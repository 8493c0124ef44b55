//! The heterogeneous device library.

use crate::device::Device;
use crate::error::FpgaError;

/// An ordered collection of [`Device`] types (ascending CLB capacity).
///
/// # Examples
///
/// ```
/// use netpart_fpga::DeviceLibrary;
///
/// let lib = DeviceLibrary::xc3000();
/// assert_eq!(lib.len(), 5);
/// assert!(lib.device(0).clbs() < lib.device(4).clbs());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceLibrary {
    devices: Vec<Device>,
}

impl DeviceLibrary {
    /// Creates a library from arbitrary devices; they are sorted by CLB
    /// capacity (ties by price).
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<Device>) -> Self {
        DeviceLibrary::try_new(devices).expect("a device library cannot be empty")
    }

    /// Non-panicking [`DeviceLibrary::new`]: returns
    /// [`FpgaError::EmptyLibrary`] instead of panicking.
    pub fn try_new(mut devices: Vec<Device>) -> Result<Self, FpgaError> {
        if devices.is_empty() {
            return Err(FpgaError::EmptyLibrary);
        }
        devices.sort_by_key(|a| (a.clbs(), a.price()));
        Ok(DeviceLibrary { devices })
    }

    /// The XC3000 subset of the paper's Table I.
    ///
    /// CLB and IOB capacities are the published XC3000 family figures; the
    /// normalised prices decrease per CLB with device size, as in the
    /// paper's `d_i/c_i` column. The lower utilization bound of each
    /// device is set where the next smaller device stops being usable, and
    /// the upper bound models the ~90 % routable-utilization ceiling of
    /// the era's tools.
    pub fn xc3000() -> Self {
        DeviceLibrary::new(vec![
            Device::new("XC3020", 64, 64, 100, 0.0, 0.95),
            Device::new("XC3030", 100, 80, 135, 0.58, 0.95),
            Device::new("XC3042", 144, 96, 186, 0.63, 0.95),
            Device::new("XC3064", 224, 110, 272, 0.58, 0.95),
            Device::new("XC3090", 320, 144, 370, 0.63, 0.95),
        ])
    }

    /// Number of device types.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if the library is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device at library index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// The device at library index `i`, or `None` if out of range.
    pub fn get(&self, i: usize) -> Option<&Device> {
        self.devices.get(i)
    }

    /// Iterates over the devices in ascending capacity order.
    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }

    /// Looks a device up by name.
    pub fn by_name(&self, name: &str) -> Option<&Device> {
        self.devices.iter().find(|d| d.name() == name)
    }

    /// The index of the device with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.devices.iter().position(|d| d.name() == name)
    }

    /// The cheapest device on which a partition with `clbs` CLBs and
    /// `terminals` used IOBs is feasible.
    pub fn cheapest_fitting(&self, clbs: u64, terminals: u64) -> Option<&Device> {
        self.devices
            .iter()
            .filter(|d| d.fits(clbs, terminals))
            .min_by_key(|d| d.price())
    }

    /// The largest (by usable CLB capacity, ties by cheaper price)
    /// device on which a partition with `clbs` CLBs and `terminals` used
    /// IOBs is feasible. The k-way escalation ladder prefers this over
    /// [`cheapest_fitting`](Self::cheapest_fitting) when cost must be
    /// traded for terminal/area headroom.
    pub fn largest_fitting(&self, clbs: u64, terminals: u64) -> Option<&Device> {
        self.devices
            .iter()
            .filter(|d| d.fits(clbs, terminals))
            .max_by_key(|d| (d.max_clbs(), std::cmp::Reverse(d.price())))
    }

    /// A copy of this library with every device's lower utilization
    /// bound `l_i` relaxed to 0 (see [`Device::relaxed_floor`]).
    pub fn relaxed_floor(&self) -> DeviceLibrary {
        DeviceLibrary {
            devices: self.devices.iter().map(Device::relaxed_floor).collect(),
        }
    }

    /// The largest per-device CLB budget in the library
    /// (`max_i ⌊u_i·c_i⌋`).
    pub fn max_clbs_per_device(&self) -> u64 {
        self.devices.iter().map(Device::max_clbs).max().unwrap_or(0)
    }

    /// A lower bound on the cost of hosting `total_clbs` CLBs, ignoring
    /// terminal constraints: the best achievable price per CLB times the
    /// total. Useful as an optimistic bound in search.
    pub fn cost_lower_bound(&self, total_clbs: u64) -> f64 {
        let best = self
            .devices
            .iter()
            .map(|d| d.price() as f64 / d.max_clbs() as f64)
            .fold(f64::INFINITY, f64::min);
        best * total_clbs as f64
    }

    /// The cheapest device *multiset* whose combined usable capacity
    /// (`Σ ⌊uᵢ·cᵢ⌋`) covers `total_clbs`, ignoring terminal constraints
    /// and interconnect — an exact lower bound on eq. 1 achievable by any
    /// partition, computed by unbounded-knapsack DP.
    ///
    /// Returns `(cost, counts)` with one count per library device, or
    /// `None` if every device has zero usable capacity.
    ///
    /// ```
    /// use netpart_fpga::DeviceLibrary;
    ///
    /// let lib = DeviceLibrary::xc3000();
    /// let (cost, counts) = lib.optimal_cost_plan(500).expect("coverable");
    /// assert!(cost >= lib.cost_lower_bound(500).floor() as u64);
    /// assert_eq!(counts.len(), lib.len());
    /// ```
    pub fn optimal_cost_plan(&self, total_clbs: u64) -> Option<(u64, Vec<usize>)> {
        if self.devices.iter().all(|d| d.max_clbs() == 0) {
            return None;
        }
        if total_clbs == 0 {
            return Some((0, vec![0; self.devices.len()]));
        }
        let n = total_clbs as usize;
        // best[v] = (cost, device picked) to cover at least v CLBs.
        let mut best: Vec<Option<(u64, usize)>> = vec![None; n + 1];
        best[0] = Some((0, usize::MAX));
        for v in 1..=n {
            for (i, d) in self.devices.iter().enumerate() {
                let cap = d.max_clbs() as usize;
                if cap == 0 {
                    continue;
                }
                let rest = v.saturating_sub(cap);
                if let Some((c, _)) = best[rest] {
                    let cand = c + d.price();
                    if best[v].is_none_or(|(b, _)| cand < b) {
                        best[v] = Some((cand, i));
                    }
                }
            }
        }
        let (cost, _) = best[n]?;
        // Reconstruct the pick sequence.
        let mut counts = vec![0usize; self.devices.len()];
        let mut v = n;
        while v > 0 {
            let (_, i) = best[v].expect("reachable state");
            counts[i] += 1;
            v = v.saturating_sub(self.devices[i].max_clbs() as usize);
        }
        Some((cost, counts))
    }
}

impl<'a> IntoIterator for &'a DeviceLibrary {
    type Item = &'a Device;
    type IntoIter = std::slice::Iter<'a, Device>;

    fn into_iter(self) -> Self::IntoIter {
        self.devices.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xc3000_matches_table1_shape() {
        let lib = DeviceLibrary::xc3000();
        assert_eq!(lib.len(), 5);
        // capacities ascend, per-CLB cost descends (economies of scale).
        for w in lib.devices.windows(2) {
            assert!(w[0].clbs() < w[1].clbs());
            assert!(w[0].cost_per_clb() > w[1].cost_per_clb());
        }
        assert_eq!(lib.by_name("XC3090").unwrap().clbs(), 320);
        assert_eq!(lib.index_of("XC3020"), Some(0));
        assert!(lib.by_name("XC9999").is_none());
    }

    #[test]
    fn cheapest_fitting_prefers_small() {
        let lib = DeviceLibrary::xc3000();
        // 30 CLBs, 20 IOBs → XC3020 (cheapest feasible).
        assert_eq!(lib.cheapest_fitting(30, 20).unwrap().name(), "XC3020");
        // 30 CLBs but 100 IOBs → terminal constraint pushes to XC3064?
        // XC3064 needs ≥ 130 CLBs (l=0.58·224) so nothing fits.
        assert!(lib.cheapest_fitting(30, 100).is_none());
        // 130 CLBs / 100 IOBs → XC3064.
        assert_eq!(lib.cheapest_fitting(130, 100).unwrap().name(), "XC3064");
        // Too big for anything.
        assert!(lib.cheapest_fitting(400, 10).is_none());
    }

    #[test]
    fn sorted_on_construction() {
        let lib = DeviceLibrary::new(vec![
            Device::new("B", 200, 50, 10, 0.0, 1.0),
            Device::new("A", 100, 50, 10, 0.0, 1.0),
        ]);
        assert_eq!(lib.device(0).name(), "A");
        assert_eq!(lib.max_clbs_per_device(), 200);
    }

    #[test]
    fn cost_lower_bound_is_optimistic() {
        let lib = DeviceLibrary::xc3000();
        // 320·0.95 = 304 CLBs on one XC3090 costs 370; the bound must not
        // exceed the true optimum.
        assert!(lib.cost_lower_bound(304) <= 370.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_library_panics() {
        DeviceLibrary::new(vec![]);
    }

    #[test]
    fn optimal_plan_small_cases() {
        let lib = DeviceLibrary::xc3000();
        // Zero CLBs cost nothing.
        assert_eq!(lib.optimal_cost_plan(0), Some((0, vec![0; 5])));
        // 50 CLBs: one XC3020 (usable 60) at price 100 beats everything.
        let (cost, counts) = lib.optimal_cost_plan(50).unwrap();
        assert_eq!((cost, counts[0]), (100, 1));
        // 304 CLBs: exactly one XC3090.
        let (cost, counts) = lib.optimal_cost_plan(304).unwrap();
        assert_eq!((cost, counts[4]), (370, 1));
        // 305 CLBs: two devices needed; XC3064 (212) + XC3030 (95) covers
        // 307 at 272 + 135 = 407, cheaper than XC3090 + XC3020 (470).
        let (cost, _) = lib.optimal_cost_plan(305).unwrap();
        assert_eq!(cost, 272 + 135);
    }

    #[test]
    fn optimal_plan_is_a_true_lower_bound_on_greedy() {
        let lib = DeviceLibrary::xc3000();
        for total in [1u64, 77, 200, 515, 1333, 4096] {
            let (cost, counts) = lib.optimal_cost_plan(total).unwrap();
            let cap: u64 = counts
                .iter()
                .enumerate()
                .map(|(i, &n)| lib.device(i).max_clbs() * n as u64)
                .sum();
            assert!(cap >= total, "plan covers the demand");
            let recomputed: u64 = counts
                .iter()
                .enumerate()
                .map(|(i, &n)| lib.device(i).price() * n as u64)
                .sum();
            assert_eq!(recomputed, cost, "cost matches the counts");
            assert!(cost as f64 >= lib.cost_lower_bound(total) - 1e-9);
        }
    }
}
