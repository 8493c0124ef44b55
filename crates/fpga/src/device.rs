//! A single FPGA device type `D_i = (c_i, t_i, d_i, l_i, u_i)`.
//!
//! Since the resource-vector generalization, a device's capacities live
//! in a [`ResourceVec`] with named axes; the paper's `(c, t)` pair is
//! the canonical two-axis instance and every accessor below reproduces
//! the historical 5-tuple arithmetic bit for bit (pinned by
//! `tests/resourcevec_differential.rs`).

use crate::error::FpgaError;
use crate::resources::ResourceVec;
use std::fmt;

/// One device type of the heterogeneous library.
///
/// Fields follow the paper's Table I: `c` elementary circuit units (CLBs),
/// `t` terminals (IOBs), price `d`, and lower/upper bounds `l`, `u` on CLB
/// utilization of a feasible partition. Capacities are held as a
/// [`ResourceVec`] — axis 0 is the window-bounded area axis, axis 1 the
/// terminal axis; further axes (DSPs, BRAM, …) ride along and are
/// checked component-wise by [`Device::fits_vec`].
#[derive(Clone, Debug, PartialEq)]
pub struct Device {
    name: String,
    resources: ResourceVec,
    price: u64,
    min_util: f64,
    max_util: f64,
}

impl Device {
    /// Creates a canonical (paper 5-tuple) device type.
    ///
    /// # Panics
    ///
    /// Panics if `clbs == 0`, `iobs == 0` or the utilization bounds are not
    /// `0 ≤ min_util ≤ max_util ≤ 1`.
    pub fn new(
        name: impl Into<String>,
        clbs: u32,
        iobs: u32,
        price: u64,
        min_util: f64,
        max_util: f64,
    ) -> Self {
        match Device::try_new(name, clbs, iobs, price, min_util, max_util) {
            Ok(d) => d,
            Err(FpgaError::InvalidDevice { what, .. }) if what.contains("capacities") => {
                panic!("device capacities must be positive")
            }
            Err(_) => panic!("utilization bounds must satisfy 0 ≤ l ≤ u ≤ 1"),
        }
    }

    /// Non-panicking [`Device::new`]: validates the parameters and
    /// returns [`FpgaError::InvalidDevice`] instead of panicking.
    pub fn try_new(
        name: impl Into<String>,
        clbs: u32,
        iobs: u32,
        price: u64,
        min_util: f64,
        max_util: f64,
    ) -> Result<Self, FpgaError> {
        let name = name.into();
        if clbs == 0 || iobs == 0 {
            return Err(FpgaError::InvalidDevice {
                name,
                what: format!("capacities must be positive (c={clbs}, t={iobs})"),
            });
        }
        Self::try_with_resources(name, ResourceVec::canonical(clbs, iobs), price, min_util, max_util)
    }

    /// Builds a device from an arbitrary resource vector (axis 0 bounded
    /// by the utilization window, axis 1 capped absolutely, the rest
    /// checked component-wise by [`Device::fits_vec`]).
    ///
    /// # Errors
    ///
    /// [`FpgaError::InvalidDevice`] when the utilization bounds are out
    /// of order or outside `[0, 1]`.
    pub fn try_with_resources(
        name: impl Into<String>,
        resources: ResourceVec,
        price: u64,
        min_util: f64,
        max_util: f64,
    ) -> Result<Self, FpgaError> {
        let name = name.into();
        if !((0.0..=1.0).contains(&min_util)
            && (0.0..=1.0).contains(&max_util)
            && min_util <= max_util)
        {
            return Err(FpgaError::InvalidDevice {
                name,
                what: format!(
                    "utilization bounds must satisfy 0 ≤ l ≤ u ≤ 1 (l={min_util}, u={max_util})"
                ),
            });
        }
        Ok(Device {
            name,
            resources,
            price,
            min_util,
            max_util,
        })
    }

    /// A copy of this device with the lower utilization bound `l_i`
    /// relaxed to 0, so parts may underfill it. Used by the k-way
    /// escalation ladder when the strict feasibility window admits no
    /// partition.
    pub fn relaxed_floor(&self) -> Device {
        Device {
            min_util: 0.0,
            ..self.clone()
        }
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The named resource vector (axis 0 = area, axis 1 = terminals).
    pub fn resources(&self) -> &ResourceVec {
        &self.resources
    }

    /// CLB capacity `c_i` (the resource vector's area axis).
    pub fn clbs(&self) -> u32 {
        self.resources.area()
    }

    /// Terminal (IOB) count `t_i` (the resource vector's terminal axis).
    pub fn iobs(&self) -> u32 {
        self.resources.terminals()
    }

    /// Unit price `d_i`.
    pub fn price(&self) -> u64 {
        self.price
    }

    /// Lower CLB-utilization bound `l_i`.
    pub fn min_util(&self) -> f64 {
        self.min_util
    }

    /// Upper CLB-utilization bound `u_i`.
    pub fn max_util(&self) -> f64 {
        self.max_util
    }

    /// The smallest CLB count a feasible partition may place on this
    /// device (`⌈l_i·c_i⌉`).
    pub fn min_clbs(&self) -> u64 {
        (self.min_util * f64::from(self.clbs())).ceil() as u64
    }

    /// The largest CLB count a feasible partition may place on this
    /// device (`⌊u_i·c_i⌋`).
    pub fn max_clbs(&self) -> u64 {
        (self.max_util * f64::from(self.clbs())).floor() as u64
    }

    /// The paper's feasibility test: `l_i·c_i ≤ clbs ≤ u_i·c_i` and
    /// `terminals ≤ t_i`.
    pub fn fits(&self, clbs: u64, terminals: u64) -> bool {
        clbs >= self.min_clbs() && clbs <= self.max_clbs() && terminals <= u64::from(self.iobs())
    }

    /// Vector feasibility: the paper's window test on the area/terminal
    /// axes plus component-wise cover of every further demand axis.
    pub fn fits_vec(&self, demand: &ResourceVec) -> bool {
        self.fits(u64::from(demand.area()), u64::from(demand.terminals()))
            && self.resources.covers_extra(demand)
    }

    /// Price per CLB, the marginal-cost figure of Table I's last column.
    pub fn cost_per_clb(&self) -> f64 {
        self.price as f64 / f64::from(self.clbs())
    }

    /// CLB utilization of a partition with `clbs` blocks on this device.
    pub fn clb_utilization(&self, clbs: u64) -> f64 {
        clbs as f64 / f64::from(self.clbs())
    }

    /// IOB utilization of a partition with `terminals` used terminals.
    pub fn iob_utilization(&self, terminals: u64) -> f64 {
        terminals as f64 / f64::from(self.iobs())
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (c={}, t={}, d={}, l={:.2}, u={:.2}",
            self.name,
            self.clbs(),
            self.iobs(),
            self.price,
            self.min_util,
            self.max_util
        )?;
        // Canonical devices print the historical 5-tuple byte for byte;
        // extra axes are appended before the closing paren.
        for (axis, amount) in self
            .resources
            .axes()
            .iter()
            .zip(self.resources.amounts())
            .skip(2)
        {
            write!(f, ", {axis}={amount}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_window() {
        let d = Device::new("X", 100, 50, 135, 0.5, 0.9);
        assert_eq!(d.min_clbs(), 50);
        assert_eq!(d.max_clbs(), 90);
        assert!(d.fits(50, 50));
        assert!(d.fits(90, 0));
        assert!(!d.fits(49, 10));
        assert!(!d.fits(91, 10));
        assert!(!d.fits(60, 51));
    }

    #[test]
    fn utilizations() {
        let d = Device::new("X", 200, 100, 1, 0.0, 1.0);
        assert!((d.clb_utilization(100) - 0.5).abs() < 1e-12);
        assert!((d.iob_utilization(25) - 0.25).abs() < 1e-12);
        assert!((d.cost_per_clb() - 0.005).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "utilization bounds")]
    fn bad_bounds_panic() {
        Device::new("X", 10, 10, 1, 0.9, 0.5);
    }

    #[test]
    #[should_panic(expected = "capacities must be positive")]
    fn zero_capacity_panics() {
        Device::new("X", 0, 10, 1, 0.0, 1.0);
    }

    #[test]
    fn display_mentions_all_fields() {
        let d = Device::new("XC3020", 64, 64, 100, 0.0, 0.9);
        let s = d.to_string();
        assert!(s.contains("XC3020") && s.contains("c=64") && s.contains("d=100"));
    }

    #[test]
    fn canonical_device_is_backed_by_the_canonical_vector() {
        let d = Device::new("XC3020", 64, 58, 100, 0.0, 0.9);
        assert!(d.resources().is_canonical());
        assert_eq!(d.resources().get("clbs"), Some(64));
        assert_eq!(d.resources().get("iobs"), Some(58));
        // Display is byte-identical to the pre-ResourceVec format.
        assert_eq!(d.to_string(), "XC3020 (c=64, t=58, d=100, l=0.00, u=0.90)");
    }

    #[test]
    fn multi_axis_device_fits_componentwise() {
        let resources = ResourceVec::new(
            vec!["clbs".into(), "iobs".into(), "dsp".into()],
            vec![100, 50, 8],
        )
        .expect("valid");
        let d = Device::try_with_resources("V7", resources, 500, 0.0, 1.0).expect("valid");
        assert_eq!(d.clbs(), 100);
        assert_eq!(d.iobs(), 50);
        let need = ResourceVec::new(
            vec!["clbs".into(), "iobs".into(), "dsp".into()],
            vec![60, 20, 8],
        )
        .expect("valid");
        assert!(d.fits_vec(&need));
        let over = ResourceVec::new(
            vec!["clbs".into(), "iobs".into(), "dsp".into()],
            vec![60, 20, 9],
        )
        .expect("valid");
        assert!(!d.fits_vec(&over));
        assert!(d.to_string().contains("dsp=8"));
    }
}
