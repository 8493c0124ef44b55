//! Evaluation of a k-way placement against a device library: the paper's
//! objective functions (1) and (2) plus per-part detail.

use crate::device::Device;
use crate::error::FpgaError;
use crate::library::DeviceLibrary;
use netpart_hypergraph::{Hypergraph, Placement};

/// Per-part evaluation detail.
#[derive(Clone, Debug, PartialEq)]
pub struct PartEval {
    /// The part.
    pub part: u16,
    /// Library index of the device hosting the part.
    pub device: usize,
    /// CLBs placed on the part (replicas included).
    pub clbs: u64,
    /// IOBs used by the part (`t_Pj`).
    pub terminals: u64,
    /// CLB utilization on the chosen device.
    pub clb_util: f64,
    /// IOB utilization on the chosen device.
    pub iob_util: f64,
    /// Whether the part satisfies the device's size and terminal bounds.
    pub feasible: bool,
}

/// Evaluation of a complete k-way partition.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Per-part detail, one entry per non-empty part.
    pub parts: Vec<PartEval>,
    /// Total device cost `$_k = Σ d_i n_i` (paper eq. 1).
    pub total_cost: u64,
    /// Average IOB utilization `k̄ = Σ t_Pj / Σ t_i n_i` (paper eq. 2).
    pub avg_iob_util: f64,
    /// Average CLB utilization `Σ clbs_j / Σ c_i n_i`.
    pub avg_clb_util: f64,
    /// Whether every part is feasible on its device.
    pub feasible: bool,
}

impl Evaluation {
    /// How many devices of each library type the partition uses
    /// (`n_i` of eq. 1), indexed like the library.
    pub fn device_histogram(&self, library_len: usize) -> Vec<usize> {
        let mut h = vec![0usize; library_len];
        for p in &self.parts {
            h[p.device] += 1;
        }
        h
    }

    /// Number of non-empty parts (`k`).
    pub fn k(&self) -> usize {
        self.parts.len()
    }
}

/// Evaluates `placement` with an explicit device choice per part
/// (`devices[p]` is a library index; empty parts are skipped).
///
/// # Panics
///
/// Panics if `devices` is shorter than the placement's part count or
/// contains an out-of-range library index.
pub fn evaluate(
    hg: &Hypergraph,
    placement: &Placement,
    library: &DeviceLibrary,
    devices: &[usize],
) -> Evaluation {
    match try_evaluate(hg, placement, library, devices) {
        Ok(e) => e,
        Err(FpgaError::MissingDeviceAssignment { .. }) => panic!("device per part"),
        Err(e) => panic!("{e}"),
    }
}

/// Non-panicking [`evaluate`]: reports a too-short `devices` slice or an
/// out-of-range library index as an [`FpgaError`] instead of panicking.
///
/// # Errors
///
/// [`FpgaError::MissingDeviceAssignment`] if `devices` is shorter than
/// the placement's part count; [`FpgaError::DeviceIndexOutOfRange`] if
/// an assignment for a non-empty part points past the library.
pub fn try_evaluate(
    hg: &Hypergraph,
    placement: &Placement,
    library: &DeviceLibrary,
    devices: &[usize],
) -> Result<Evaluation, FpgaError> {
    if devices.len() < placement.n_parts() {
        return Err(FpgaError::MissingDeviceAssignment {
            parts: placement.n_parts(),
            devices: devices.len(),
        });
    }
    let areas = placement.part_areas(hg);
    let terms = placement.part_terminal_counts(hg);
    let mut parts = Vec::new();
    let mut total_cost = 0u64;
    let mut sum_terms = 0u64;
    let mut cap_terms = 0u64;
    let mut sum_clbs = 0u64;
    let mut cap_clbs = 0u64;
    let mut feasible = true;
    for p in 0..placement.n_parts() {
        let clbs = areas[p];
        let terminals = terms[p] as u64;
        if clbs == 0 && terminals == 0 {
            continue;
        }
        let dev: &Device = library
            .get(devices[p])
            .ok_or(FpgaError::DeviceIndexOutOfRange {
                index: devices[p],
                len: library.len(),
            })?;
        let ok = dev.fits(clbs, terminals);
        feasible &= ok;
        total_cost += dev.price();
        sum_terms += terminals;
        cap_terms += u64::from(dev.iobs());
        sum_clbs += clbs;
        cap_clbs += u64::from(dev.clbs());
        parts.push(PartEval {
            part: p as u16,
            device: devices[p],
            clbs,
            terminals,
            clb_util: dev.clb_utilization(clbs),
            iob_util: dev.iob_utilization(terminals),
            feasible: ok,
        });
    }
    Ok(Evaluation {
        parts,
        total_cost,
        avg_iob_util: if cap_terms == 0 {
            0.0
        } else {
            sum_terms as f64 / cap_terms as f64
        },
        avg_clb_util: if cap_clbs == 0 {
            0.0
        } else {
            sum_clbs as f64 / cap_clbs as f64
        },
        feasible,
    })
}

/// Chooses, for every non-empty part, the cheapest feasible device, and
/// evaluates the result. Returns `None` if some part fits no device.
pub fn assign_devices(
    hg: &Hypergraph,
    placement: &Placement,
    library: &DeviceLibrary,
) -> Option<Evaluation> {
    let areas = placement.part_areas(hg);
    let terms = placement.part_terminal_counts(hg);
    let mut devices = vec![0usize; placement.n_parts()];
    for p in 0..placement.n_parts() {
        if areas[p] == 0 && terms[p] == 0 {
            continue;
        }
        let dev = library.cheapest_fitting(areas[p], terms[p] as u64)?;
        devices[p] = library.index_of(dev.name()).expect("device from library");
    }
    Some(evaluate(hg, placement, library, &devices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder, PartId};

    /// A ladder of `n` one-CLB buffers between an input pad and an output
    /// pad, so we can place prefixes on part 0 and the rest on part 1.
    fn ladder(n: usize) -> (Hypergraph, Vec<netpart_hypergraph::CellId>) {
        let mut b = HypergraphBuilder::new();
        let pi = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let mut cells = Vec::new();
        let mut prev = b.add_net("n_in");
        b.connect_output(prev, pi, 0).unwrap();
        for i in 0..n {
            let c = b.add_cell(
                format!("c{i}"),
                CellKind::logic(1),
                1,
                1,
                AdjacencyMatrix::full(1, 1),
            );
            b.connect_input(prev, c, 0).unwrap();
            let next = b.add_net(format!("n{i}"));
            b.connect_output(next, c, 0).unwrap();
            prev = next;
            cells.push(c);
        }
        let po = b.add_cell("po", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        b.connect_input(prev, po, 0).unwrap();
        (b.finish().unwrap(), cells)
    }

    #[test]
    fn single_part_cheapest_device() {
        let (hg, _) = ladder(30);
        let p = Placement::new_uniform(&hg, 1, PartId(0));
        let lib = DeviceLibrary::xc3000();
        let eval = assign_devices(&hg, &p, &lib).unwrap();
        assert_eq!(eval.k(), 1);
        assert_eq!(eval.total_cost, 100); // XC3020
        assert!(eval.feasible);
        assert_eq!(eval.device_histogram(lib.len()), vec![1, 0, 0, 0, 0]);
        // 2 pads and no crossing → 2 terminals on 64 IOBs.
        assert!((eval.avg_iob_util - 2.0 / 64.0).abs() < 1e-12);
        assert!((eval.avg_clb_util - 30.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn split_costs_two_devices_and_counts_crossing() {
        let (hg, cells) = ladder(60);
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        for &c in &cells[30..] {
            p.place(c, PartId(1));
        }
        let lib = DeviceLibrary::xc3000();
        let eval = assign_devices(&hg, &p, &lib).unwrap();
        assert_eq!(eval.k(), 2);
        assert_eq!(eval.total_cost, 200);
        assert!(eval.feasible);
        // Part 0 keeps both pads (the output pad was not moved): input pad
        // + mid-ladder crossing + output pad = 3 IOBs. Part 1 sees two
        // crossing nets (ladder in, ladder out) = 2 IOBs.
        let t: Vec<u64> = eval.parts.iter().map(|pe| pe.terminals).collect();
        assert_eq!(t, vec![3, 2]);
    }

    #[test]
    fn infeasible_when_nothing_fits() {
        let (hg, _) = ladder(400); // exceeds every max_clbs
        let p = Placement::new_uniform(&hg, 1, PartId(0));
        assert!(assign_devices(&hg, &p, &DeviceLibrary::xc3000()).is_none());
    }

    #[test]
    fn explicit_assignment_flags_infeasibility() {
        let (hg, _) = ladder(100);
        let p = Placement::new_uniform(&hg, 1, PartId(0));
        let lib = DeviceLibrary::xc3000();
        // Force the too-small XC3020.
        let eval = evaluate(&hg, &p, &lib, &[0]);
        assert!(!eval.feasible);
        assert!(!eval.parts[0].feasible);
    }

    #[test]
    fn empty_parts_are_skipped_not_charged() {
        // Everything on part 0 of a 3-part placement: parts 1 and 2 are
        // empty and must contribute neither cost nor capacity.
        let (hg, _) = ladder(30);
        let p = Placement::new_uniform(&hg, 3, PartId(0));
        let lib = DeviceLibrary::xc3000();
        // Deliberately out-of-range indices for the empty parts: they
        // are never dereferenced.
        let eval = try_evaluate(&hg, &p, &lib, &[0, 99, 99]).unwrap();
        assert_eq!(eval.k(), 1);
        assert_eq!(eval.total_cost, lib.device(0).price());
    }

    #[test]
    fn exactly_max_clbs_is_feasible_one_more_is_not() {
        // u·c = 0.9 · 100 → the window tops out at exactly 90 CLBs.
        let lib = DeviceLibrary::new(vec![Device::new("T", 100, 8, 7, 0.0, 0.9)]);
        let (hg, _) = ladder(90);
        let p = Placement::new_uniform(&hg, 1, PartId(0));
        assert!(try_evaluate(&hg, &p, &lib, &[0]).unwrap().feasible);
        let (hg, _) = ladder(91);
        let p = Placement::new_uniform(&hg, 1, PartId(0));
        assert!(!try_evaluate(&hg, &p, &lib, &[0]).unwrap().feasible);
    }

    #[test]
    fn exactly_min_clbs_is_feasible_one_fewer_is_not() {
        // l·c = 0.5 · 100 → the window bottoms out at exactly 50 CLBs.
        let lib = DeviceLibrary::new(vec![Device::new("T", 100, 8, 7, 0.5, 1.0)]);
        let (hg, _) = ladder(50);
        let p = Placement::new_uniform(&hg, 1, PartId(0));
        assert!(try_evaluate(&hg, &p, &lib, &[0]).unwrap().feasible);
        let (hg, _) = ladder(49);
        let p = Placement::new_uniform(&hg, 1, PartId(0));
        assert!(!try_evaluate(&hg, &p, &lib, &[0]).unwrap().feasible);
    }

    #[test]
    fn exactly_t_terminals_is_feasible_overflow_is_not() {
        // A single part of the ladder uses exactly 2 terminals (the two
        // pads): feasible on a 2-IOB device, infeasible on a 1-IOB one.
        let (hg, _) = ladder(10);
        let p = Placement::new_uniform(&hg, 1, PartId(0));
        let exact = DeviceLibrary::new(vec![Device::new("T2", 64, 2, 1, 0.0, 1.0)]);
        let eval = try_evaluate(&hg, &p, &exact, &[0]).unwrap();
        assert_eq!(eval.parts[0].terminals, 2);
        assert!(eval.feasible);
        assert!((eval.parts[0].iob_util - 1.0).abs() < 1e-12);
        let starved = DeviceLibrary::new(vec![Device::new("T1", 64, 1, 1, 0.0, 1.0)]);
        assert!(!try_evaluate(&hg, &p, &starved, &[0]).unwrap().feasible);
    }

    #[test]
    fn short_device_slice_is_typed_error() {
        let (hg, _) = ladder(10);
        let p = Placement::new_uniform(&hg, 2, PartId(0));
        let lib = DeviceLibrary::xc3000();
        assert_eq!(
            try_evaluate(&hg, &p, &lib, &[0]).unwrap_err(),
            FpgaError::MissingDeviceAssignment {
                parts: 2,
                devices: 1
            }
        );
    }

    #[test]
    fn out_of_range_device_index_is_typed_error() {
        let (hg, _) = ladder(10);
        let p = Placement::new_uniform(&hg, 1, PartId(0));
        let lib = DeviceLibrary::xc3000();
        assert_eq!(
            try_evaluate(&hg, &p, &lib, &[lib.len()]).unwrap_err(),
            FpgaError::DeviceIndexOutOfRange {
                index: lib.len(),
                len: lib.len()
            }
        );
    }

    #[test]
    #[should_panic(expected = "device per part")]
    fn panicking_evaluate_keeps_its_contract() {
        let (hg, _) = ladder(10);
        let p = Placement::new_uniform(&hg, 2, PartId(0));
        evaluate(&hg, &p, &DeviceLibrary::xc3000(), &[0]);
    }
}
