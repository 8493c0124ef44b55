//! Flat CSR (compressed sparse row) arenas over the hypergraph's
//! pin-level connectivity — the data layout the FM hot path runs on.
//!
//! [`Hypergraph`] keeps per-cell `Vec<NetId>` pin lists and per-net
//! `Vec<Endpoint>` sink lists: convenient to build, but every hot-path
//! query chases a pointer per cell and re-derives the distinct incident
//! nets with a sort+dedup allocation per call. [`CsrGraph`] flattens all
//! of it once per run into contiguous index-range arrays:
//!
//! * `cells → distinct nets` (ascending, exactly the order the old
//!   `incident_nets` sort+dedup produced), with the cell's pins on each
//!   net packed alongside as a sub-range — so a per-net gain evaluation
//!   touches only that net's pins instead of scanning the whole cell;
//! * `nets → distinct cells` in **first-seen endpoint order** (driver
//!   first, then sinks, duplicates dropped at their first occurrence) —
//!   exactly the order the pass loops used to derive with a linear
//!   `seen` scan per move, so neighbor updates keep electing identical
//!   move sequences.
//!
//! Both orders are part of the determinism contract: the CSR port must
//! be byte-identical to the pointer-chasing baseline (golden tables,
//! `tests/csr_differential.rs`), so the arenas encode the traversal
//! orders, not merely the connectivity.

use crate::state::CellState;
use netpart_hypergraph::{CellId, Hypergraph, NetId, Pin};

/// High bit of a packed pin code: set for output pins.
const OUT_BIT: u32 = 1 << 31;

/// Packs a pin as a `u32` code (bit 31 = output, low bits = pin index).
fn encode_pin(pin: Pin) -> u32 {
    match pin {
        Pin::Input(j) => u32::from(j),
        Pin::Output(o) => OUT_BIT | u32::from(o),
    }
}

/// One pin of a `(cell, net)` group: its packed code and its output
/// dependency mask — everything the gain kernel needs to decide where
/// the pin is connected under any [`CellState`], with no
/// [`Hypergraph`] read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct PinRec {
    /// Packed pin code ([`encode_pin`]).
    pub(crate) code: u32,
    /// The outputs this pin's connection hangs on: `1 << o` for output
    /// `o`; for input `j`, the outputs that depend on it
    /// ([`AdjacencyMatrix::input_mask`], 0 for a global input).
    ///
    /// [`AdjacencyMatrix::input_mask`]: netpart_hypergraph::AdjacencyMatrix::input_mask
    pub(crate) dep: u32,
}

impl PinRec {
    /// Returns `true` for an output (driver) pin.
    pub(crate) fn is_output(self) -> bool {
        self.code & OUT_BIT != 0
    }

    /// Connection flags of the pin under `state` (`[side 0, side 1]`).
    /// A single copy connects every pin, a traditional replica copies
    /// them all, and a functional copy keeping the outputs `mask`
    /// connects the pin iff `dep == 0 || dep & mask != 0` — the paper's
    /// floating-pin rule (eq. 4's adjacency vectors) read off `dep`.
    pub(crate) fn conn(self, state: CellState) -> [bool; 2] {
        match state {
            CellState::Single { side } => [side == 0, side == 1],
            CellState::Traditional { .. } => [true, true],
            CellState::Functional {
                orig_side,
                replica_mask,
            } => {
                // `dep` only has bits of real outputs, so `!replica_mask`
                // stands for the original's mask `full & !replica_mask`.
                let on = |mask: u32| self.dep == 0 || self.dep & mask != 0;
                let (orig, replica) = (on(!replica_mask), on(replica_mask));
                if orig_side == 0 {
                    [orig, replica]
                } else {
                    [replica, orig]
                }
            }
        }
    }
}

/// The flattened connectivity arenas. Immutable once built; shared
/// across pass loops and snapshots via `Arc`.
#[derive(Debug)]
pub(crate) struct CsrGraph {
    /// `cells → distinct nets` range bounds (`len = n_cells + 1`).
    cell_net_start: Vec<u32>,
    /// Distinct incident nets per cell, ascending within each cell.
    cell_nets: Vec<NetId>,
    /// Pin sub-range bounds per `(cell, net)` group, indexed parallel
    /// to `cell_nets` (`len = cell_nets.len() + 1`).
    group_start: Vec<u32>,
    /// Pin records grouped by `(cell, net)`, inputs before outputs in
    /// pin order within each group.
    group_pins: Vec<PinRec>,
    /// `nets → distinct cells` range bounds (`len = n_nets + 1`).
    net_cell_start: Vec<u32>,
    /// Distinct cells per net in first-seen endpoint order.
    net_cells: Vec<CellId>,
    /// Per net, the most input pins any one cell has on it (`k(n)`,
    /// the reach of a single cell's state change on the net's sink
    /// counts; see [`crate::state::cut_out_of_reach`]).
    net_max_sinks: Vec<u32>,
    /// Maximum distinct-incident-net count over all cells (the FM
    /// in-range gain bound `p_max`).
    max_cell_degree: usize,
    /// Per cell, its area.
    cell_area: Vec<u32>,
    /// Per cell, whether it is a terminal (pad).
    terminal: Vec<bool>,
}

impl CsrGraph {
    /// Flattens `hg` into CSR arenas. `O(pins log pins)` once per run.
    pub(crate) fn build(hg: &Hypergraph) -> Self {
        let n = hg.n_cells();
        let mut cell_net_start = Vec::with_capacity(n + 1);
        cell_net_start.push(0u32);
        let mut cell_nets: Vec<NetId> = Vec::new();
        let mut group_start = vec![0u32];
        let mut group_pins: Vec<PinRec> = Vec::new();
        let mut pairs: Vec<(NetId, PinRec)> = Vec::new();
        let mut net_max_sinks = vec![0u32; hg.n_nets()];
        let mut max_cell_degree = 0usize;
        for c in hg.cell_ids() {
            let cell = hg.cell(c);
            let adj = cell.adjacency();
            pairs.clear();
            pairs.extend(cell.input_nets().iter().enumerate().map(|(j, &nt)| {
                let code = encode_pin(Pin::Input(j as u16));
                let dep = adj.input_mask(j);
                (nt, PinRec { code, dep })
            }));
            // Outputs past bit 31 cannot be named by a replica mask and
            // never take part in functional replication.
            pairs.extend(cell.output_nets().iter().enumerate().map(|(o, &nt)| {
                let code = encode_pin(Pin::Output(o as u16));
                let dep = 1u32.checked_shl(o as u32).unwrap_or(0);
                (nt, PinRec { code, dep })
            }));
            // Stable sort: within one net the pins keep cell-pin order
            // (inputs in pin order, then outputs in pin order).
            pairs.sort_by_key(|&(nt, _)| nt);
            let mut i = 0;
            let first_group = cell_nets.len();
            while i < pairs.len() {
                let nt = pairs[i].0;
                cell_nets.push(nt);
                let mut sinks = 0u32;
                while i < pairs.len() && pairs[i].0 == nt {
                    group_pins.push(pairs[i].1);
                    sinks += u32::from(!pairs[i].1.is_output());
                    i += 1;
                }
                group_start.push(group_pins.len() as u32);
                let k = &mut net_max_sinks[nt.index()];
                *k = (*k).max(sinks);
            }
            cell_net_start.push(cell_nets.len() as u32);
            max_cell_degree = max_cell_degree.max(cell_nets.len() - first_group);
        }

        let mut net_cell_start = Vec::with_capacity(hg.n_nets() + 1);
        net_cell_start.push(0u32);
        let mut net_cells: Vec<CellId> = Vec::new();
        // First-seen dedup via a per-cell stamp of the last net that
        // recorded it (no net id equals the sentinel).
        let mut stamp = vec![u32::MAX; n];
        for nt in hg.net_ids() {
            for ep in hg.net(nt).endpoints() {
                if stamp[ep.cell.index()] != nt.0 {
                    stamp[ep.cell.index()] = nt.0;
                    net_cells.push(ep.cell);
                }
            }
            net_cell_start.push(net_cells.len() as u32);
        }

        CsrGraph {
            cell_area: hg.cells().iter().map(|cl| cl.area()).collect(),
            terminal: hg.cells().iter().map(|cl| cl.is_terminal()).collect(),
            cell_net_start,
            cell_nets,
            group_start,
            group_pins,
            net_cell_start,
            net_cells,
            net_max_sinks,
            max_cell_degree,
        }
    }

    /// The distinct nets incident to `c`, ascending.
    pub(crate) fn nets_of(&self, c: CellId) -> &[NetId] {
        let (s, e) = (
            self.cell_net_start[c.index()] as usize,
            self.cell_net_start[c.index() + 1] as usize,
        );
        &self.cell_nets[s..e]
    }

    /// `(net, pin records)` groups of `c`, in ascending net order.
    pub(crate) fn groups(&self, c: CellId) -> impl Iterator<Item = (NetId, &[PinRec])> + '_ {
        let (s, e) = (
            self.cell_net_start[c.index()] as usize,
            self.cell_net_start[c.index() + 1] as usize,
        );
        (s..e).map(move |g| {
            let (ps, pe) = (self.group_start[g] as usize, self.group_start[g + 1] as usize);
            (self.cell_nets[g], &self.group_pins[ps..pe])
        })
    }

    /// The pin records of `c` on `net` (empty when not incident).
    pub(crate) fn pins_on(&self, c: CellId, net: NetId) -> &[PinRec] {
        let (s, e) = (
            self.cell_net_start[c.index()] as usize,
            self.cell_net_start[c.index() + 1] as usize,
        );
        match self.cell_nets[s..e].binary_search(&net) {
            Ok(i) => {
                let g = s + i;
                let (ps, pe) = (self.group_start[g] as usize, self.group_start[g + 1] as usize);
                &self.group_pins[ps..pe]
            }
            Err(_) => &[],
        }
    }

    /// The distinct cells on `net` in first-seen endpoint order
    /// (driver's cell first).
    pub(crate) fn cells_of(&self, net: NetId) -> &[CellId] {
        let (s, e) = (
            self.net_cell_start[net.index()] as usize,
            self.net_cell_start[net.index() + 1] as usize,
        );
        &self.net_cells[s..e]
    }

    /// The most input pins any one cell has on `net` (`k(n)`).
    pub(crate) fn max_sink_pins(&self, net: NetId) -> u32 {
        self.net_max_sinks[net.index()]
    }

    /// Maximum distinct-incident-net count over all cells (`p_max`).
    pub(crate) fn max_cell_degree(&self) -> usize {
        self.max_cell_degree
    }

    /// The area of `c`.
    pub(crate) fn area(&self, c: CellId) -> u32 {
        self.cell_area[c.index()]
    }

    /// Returns `true` if `c` is a terminal (pad) cell.
    pub(crate) fn is_terminal(&self, c: CellId) -> bool {
        self.terminal[c.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder};

    /// A cell with two pins on one net plus a self-looping net pair,
    /// exercising dedup in both directions.
    fn shared_pin_graph() -> (Hypergraph, CellId, CellId) {
        let mut b = HypergraphBuilder::new();
        let pa = b.add_cell("a", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let d = b.add_cell(
            "D",
            CellKind::logic(1),
            2,
            1,
            AdjacencyMatrix::from_rows(2, &[&[0, 1]]),
        );
        let na = b.add_net("na");
        let nx = b.add_net("nx");
        b.connect_output(na, pa, 0).unwrap();
        b.connect_input(na, d, 0).unwrap();
        b.connect_input(na, d, 1).unwrap();
        b.connect_output(nx, d, 0).unwrap();
        let px = b.add_cell("X", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        b.connect_input(nx, px, 0).unwrap();
        (b.finish().unwrap(), pa, d)
    }

    #[test]
    fn matches_sort_dedup_incident_nets() {
        let (hg, _, d) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        for c in hg.cell_ids() {
            let mut nets: Vec<NetId> = hg.cell(c).incident_nets().collect();
            nets.sort_unstable();
            nets.dedup();
            assert_eq!(csr.nets_of(c), nets.as_slice(), "cell {c}");
        }
        assert_eq!(csr.nets_of(d).len(), 2, "na deduped, nx kept");
        assert_eq!(csr.max_cell_degree(), 2);
    }

    #[test]
    fn groups_keep_pin_order_and_cover_all_pins() {
        let (hg, _, d) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        let groups: Vec<(NetId, Vec<u32>)> = csr
            .groups(d)
            .map(|(nt, pins)| (nt, pins.iter().map(|p| p.code).collect()))
            .collect();
        let code = encode_pin;
        assert_eq!(
            groups,
            vec![
                (NetId(0), vec![code(Pin::Input(0)), code(Pin::Input(1))]),
                (NetId(1), vec![code(Pin::Output(0))]),
            ]
        );
        assert_eq!(csr.pins_on(d, NetId(0)).len(), 2);
        assert_eq!(csr.pins_on(d, NetId(1)).len(), 1);
        assert!(csr.pins_on(d, NetId(2)).is_empty(), "not incident");
    }

    #[test]
    fn max_sink_pins_counts_inputs_only() {
        let (hg, _, _) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        // na: D's two input pins; nx: D drives it, pad X sinks it once.
        assert_eq!(csr.max_sink_pins(NetId(0)), 2);
        assert_eq!(csr.max_sink_pins(NetId(1)), 1);
    }

    #[test]
    fn net_cells_first_seen_driver_first() {
        let (hg, pa, d) = shared_pin_graph();
        let csr = CsrGraph::build(&hg);
        // na: driver pad a, then D (its duplicate sink pin dropped).
        assert_eq!(csr.cells_of(NetId(0)), &[pa, d]);
        // Mirror the old per-move dedup: first-seen endpoint order.
        for nt in hg.net_ids() {
            let mut seen: Vec<CellId> = Vec::new();
            for ep in hg.net(nt).endpoints() {
                if !seen.contains(&ep.cell) {
                    seen.push(ep.cell);
                }
            }
            assert_eq!(csr.cells_of(nt), seen.as_slice(), "net {nt}");
        }
    }

    /// The Fig. 1 cell M (in {a, b, c}, out {X, Y}; X←{a, b}, Y←{b, c})
    /// plus a fourth input `g` that no output reads, with pads around it.
    fn fig1_with_global_input() -> (Hypergraph, CellId) {
        let mut b = HypergraphBuilder::new();
        let m = b.add_cell(
            "M",
            CellKind::logic(1),
            4,
            2,
            AdjacencyMatrix::from_rows(4, &[&[0, 1], &[1, 2]]),
        );
        for (j, name) in ["a", "b", "c", "g"].iter().enumerate() {
            let pad = b.add_cell(*name, CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
            let n = b.add_net(format!("n{name}"));
            b.connect_output(n, pad, 0).unwrap();
            b.connect_input(n, m, j).unwrap();
        }
        for (o, name) in ["X", "Y"].iter().enumerate() {
            let pad = b.add_cell(*name, CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
            let n = b.add_net(format!("n{name}"));
            b.connect_output(n, m, o).unwrap();
            b.connect_input(n, pad, 0).unwrap();
        }
        (b.finish().unwrap(), m)
    }

    #[test]
    fn pin_records_carry_output_dependency_masks() {
        let (hg, m) = fig1_with_global_input();
        let csr = CsrGraph::build(&hg);
        let recs: Vec<PinRec> = csr.groups(m).flat_map(|(_, pins)| pins.to_vec()).collect();
        let rec = |pin, dep| PinRec {
            code: encode_pin(pin),
            dep,
        };
        assert_eq!(
            recs,
            vec![
                rec(Pin::Input(0), 0b01),
                rec(Pin::Input(1), 0b11),
                rec(Pin::Input(2), 0b10),
                rec(Pin::Input(3), 0),
                rec(Pin::Output(0), 1 << 0),
                rec(Pin::Output(1), 1 << 1),
            ]
        );
        // The replica keeping Y on side 1: a floats there, c floats on
        // the original's side, b and the global input g connect on both.
        let st = CellState::Functional {
            orig_side: 0,
            replica_mask: 0b10,
        };
        let conns: Vec<[bool; 2]> = recs.iter().map(|r| r.conn(st)).collect();
        assert_eq!(
            conns,
            vec![
                [true, false],
                [true, true],
                [false, true],
                [true, true],
                [true, false],
                [false, true],
            ]
        );
        // Pads: an input pad's output carries bit 0, an output pad's
        // input (no adjacency rows) reads as global.
        let pad_in = CellId(1);
        assert_eq!(csr.pins_on(pad_in, hg.cell(m).input_net(0))[0].dep, 1);
        let pad_x = CellId(5);
        assert_eq!(csr.pins_on(pad_x, hg.cell(m).output_net(0))[0].dep, 0);
        assert!(csr.is_terminal(pad_x) && !csr.is_terminal(m));
        assert_eq!(csr.area(m), 1);
    }
}
