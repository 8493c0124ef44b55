//! Assignment of cells (and their replicas) to parts, with cut and
//! terminal evaluation that honours floating pins.
//!
//! When partitioning is performed **with replication** (paper §II), an
//! interior node may be assigned to more than one component hypergraph. A
//! *functionally replicated* cell splits its outputs between copies; a copy
//! connects an input pin only if one of the outputs it keeps depends on
//! that input (per the cell's [`AdjacencyMatrix`]). Pins that no kept
//! output needs are left **floating**, which is what removes their nets
//! from the cut set.
//!
//! [`AdjacencyMatrix`]: crate::AdjacencyMatrix

use crate::graph::{CellId, Hypergraph, NetId, Pin};
use std::error::Error;
use std::fmt;

/// Identifier of a part (one device of the k-way partition).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PartId(pub u16);

impl PartId {
    /// The part's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A bitmask over a cell's output pins (bit `o` ⇔ output `o`).
///
/// Cells participating in replication are limited to 32 outputs; XC3000
/// CLBs have at most 2.
pub type OutputMask = u32;

/// One copy of a cell: the part it sits in and the outputs it keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellCopy {
    /// The part hosting this copy.
    pub part: PartId,
    /// The outputs this copy keeps connected.
    pub outputs: OutputMask,
}

/// Maximum number of parts a [`Placement`] supports.
pub const MAX_PARTS: usize = 128;

/// A set of parts, packed into a bitmask (at most [`MAX_PARTS`] parts).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub(crate) struct PartSet(u128);

impl PartSet {
    pub(crate) fn insert(&mut self, p: PartId) {
        self.0 |= 1u128 << p.0;
    }
    pub(crate) fn contains(&self, p: PartId) -> bool {
        self.0 & (1u128 << p.0) != 0
    }
    pub(crate) fn len(&self) -> usize {
        self.0.count_ones() as usize
    }
}

/// An error raised by a [`Placement`] mutation or validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// A part id `>= n_parts` was used.
    PartOutOfRange(PartId),
    /// Attempted to replicate a cell whose kind forbids it (terminals,
    /// cells without outputs) or with an invalid output split.
    InvalidSplit(CellId),
    /// Validation found a cell whose copies do not keep each output
    /// exactly once.
    OutputsNotPartitioned(CellId),
    /// Validation found a replicated copy keeping no outputs.
    EmptyCopy(CellId),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::PartOutOfRange(p) => write!(f, "part {p} out of range"),
            PlacementError::InvalidSplit(c) => write!(f, "invalid replication split on cell {c}"),
            PlacementError::OutputsNotPartitioned(c) => {
                write!(f, "outputs of cell {c} not kept exactly once across copies")
            }
            PlacementError::EmptyCopy(c) => write!(f, "cell {c} has a copy keeping no outputs"),
        }
    }
}

impl Error for PlacementError {}

/// An assignment of every cell of a [`Hypergraph`] to one or more parts.
///
/// An unreplicated cell has a single [`CellCopy`] keeping all outputs. A
/// replicated cell has several copies whose output masks partition its
/// output set. Evaluation methods ([`cut_size`], [`part_terminals`],
/// [`part_area`]) consider only *connected* pins.
///
/// [`cut_size`]: Self::cut_size
/// [`part_terminals`]: Self::part_terminals
/// [`part_area`]: Self::part_area
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    n_parts: usize,
    copies: Vec<Vec<CellCopy>>,
}

impl Placement {
    /// Places every cell of `hg`, unreplicated, into `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `n_parts == 0`, `n_parts > MAX_PARTS` or `initial` is out
    /// of range.
    pub fn new_uniform(hg: &Hypergraph, n_parts: usize, initial: PartId) -> Self {
        assert!(n_parts > 0 && n_parts <= MAX_PARTS, "n_parts out of range");
        assert!(initial.index() < n_parts, "initial part out of range");
        let copies = hg
            .cells()
            .iter()
            .map(|c| {
                vec![CellCopy {
                    part: initial,
                    outputs: full_mask(c.m_outputs()),
                }]
            })
            .collect();
        Placement { n_parts, copies }
    }

    /// Number of parts.
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// The copies of `cell` (length 1 unless replicated).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn copies(&self, cell: CellId) -> &[CellCopy] {
        &self.copies[cell.index()]
    }

    /// Returns `true` if `cell` currently has more than one copy.
    pub fn is_replicated(&self, cell: CellId) -> bool {
        self.copies[cell.index()].len() > 1
    }

    /// The part of an unreplicated cell, or `None` if replicated.
    pub fn part_of(&self, cell: CellId) -> Option<PartId> {
        let c = &self.copies[cell.index()];
        (c.len() == 1).then(|| c[0].part)
    }

    /// Places `cell` unreplicated into `part`, collapsing any replication.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn place(&mut self, cell: CellId, part: PartId) {
        assert!(part.index() < self.n_parts, "part out of range");
        let m = self.copies[cell.index()]
            .iter()
            .fold(0, |acc, c| acc | c.outputs);
        self.copies[cell.index()] = vec![CellCopy { part, outputs: m }];
    }

    /// Splits `cell` into two copies: the existing copy keeps the outputs
    /// *not* in `replica_outputs`; a new copy in `replica_part` keeps
    /// `replica_outputs`.
    ///
    /// # Errors
    ///
    /// Returns an error if `cell` is already replicated, is a terminal or
    /// has no outputs, if `replica_outputs` is empty or not a proper subset
    /// of the cell's outputs, or if `replica_part` is out of range.
    pub fn replicate(
        &mut self,
        hg: &Hypergraph,
        cell: CellId,
        replica_part: PartId,
        replica_outputs: OutputMask,
    ) -> Result<(), PlacementError> {
        if replica_part.index() >= self.n_parts {
            return Err(PlacementError::PartOutOfRange(replica_part));
        }
        let c = hg.cell(cell);
        let full = full_mask(c.m_outputs());
        let cur = &self.copies[cell.index()];
        if cur.len() != 1
            || c.is_terminal()
            || c.m_outputs() == 0
            || replica_outputs == 0
            || replica_outputs & !full != 0
            || replica_outputs == full
        {
            return Err(PlacementError::InvalidSplit(cell));
        }
        let original = CellCopy {
            part: cur[0].part,
            outputs: full & !replica_outputs,
        };
        let replica = CellCopy {
            part: replica_part,
            outputs: replica_outputs,
        };
        self.copies[cell.index()] = vec![original, replica];
        Ok(())
    }

    /// Merges all copies of `cell` into a single copy placed in `part`.
    ///
    /// # Errors
    ///
    /// Returns an error if `part` is out of range.
    pub fn unreplicate(&mut self, cell: CellId, part: PartId) -> Result<(), PlacementError> {
        if part.index() >= self.n_parts {
            return Err(PlacementError::PartOutOfRange(part));
        }
        let m = self.copies[cell.index()]
            .iter()
            .fold(0, |acc, c| acc | c.outputs);
        self.copies[cell.index()] = vec![CellCopy { part, outputs: m }];
        Ok(())
    }

    /// Replaces the copies of `cell` wholesale (expert use: engines
    /// restoring a snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `copies` is empty or mentions a part out of range.
    pub fn set_copies(&mut self, cell: CellId, copies: Vec<CellCopy>) {
        assert!(!copies.is_empty(), "a cell needs at least one copy");
        assert!(
            copies.iter().all(|c| c.part.index() < self.n_parts),
            "part out of range"
        );
        self.copies[cell.index()] = copies;
    }

    /// Returns `true` if pin `pin` of `cell` is connected on the copy
    /// `copy` (an index into [`copies`](Self::copies)).
    ///
    /// Output pins are connected on the copy keeping them. Input pins are
    /// connected on every copy keeping an output that depends on them;
    /// *global* inputs (controlling no output) are connected on every copy.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn pin_connected(&self, hg: &Hypergraph, cell: CellId, copy: usize, pin: Pin) -> bool {
        let cp = self.copies[cell.index()][copy];
        match pin {
            Pin::Output(o) => cp.outputs & (1 << o) != 0,
            Pin::Input(j) => {
                if self.copies[cell.index()].len() == 1 {
                    return true;
                }
                let dep = hg.cell(cell).adjacency().input_mask(j as usize);
                dep == 0 || dep & cp.outputs != 0
            }
        }
    }

    /// The set of parts on which pin `pin` of `cell` is connected.
    pub fn pin_parts(&self, hg: &Hypergraph, cell: CellId, pin: Pin) -> Vec<PartId> {
        (0..self.copies[cell.index()].len())
            .filter(|&i| self.pin_connected(hg, cell, i, pin))
            .map(|i| self.copies[cell.index()][i].part)
            .collect()
    }

    pub(crate) fn net_part_set(&self, hg: &Hypergraph, net: NetId) -> PartSet {
        let mut s = PartSet::default();
        for ep in hg.net(net).endpoints() {
            for (i, cp) in self.copies[ep.cell.index()].iter().enumerate() {
                if self.pin_connected(hg, ep.cell, i, ep.pin) {
                    s.insert(cp.part);
                }
            }
        }
        s
    }

    /// The number of distinct parts the net's connected endpoints span.
    pub fn net_span(&self, hg: &Hypergraph, net: NetId) -> usize {
        self.net_part_set(hg, net).len()
    }

    /// Returns `true` if the net crosses a part boundary.
    pub fn is_cut(&self, hg: &Hypergraph, net: NetId) -> bool {
        self.net_span(hg, net) >= 2
    }

    /// The number of cut nets (the paper's cutset size).
    pub fn cut_size(&self, hg: &Hypergraph) -> usize {
        hg.net_ids().filter(|&n| self.is_cut(hg, n)).count()
    }

    /// Sum over cut nets of `span − 1` (the k-way "connectivity − 1"
    /// metric; equals [`cut_size`](Self::cut_size) for bipartitions).
    pub fn connectivity_cost(&self, hg: &Hypergraph) -> usize {
        hg.net_ids()
            .map(|n| self.net_span(hg, n).saturating_sub(1))
            .sum()
    }

    /// The area (elementary circuit units) occupied in `part`, counting
    /// every replica at the full cell area.
    pub fn part_area(&self, hg: &Hypergraph, part: PartId) -> u64 {
        let mut a = 0u64;
        for (i, copies) in self.copies.iter().enumerate() {
            let cell = hg.cell(CellId(i as u32));
            for cp in copies {
                if cp.part == part {
                    a += u64::from(cell.area());
                }
            }
        }
        a
    }

    /// Per-part areas, one entry per part.
    pub fn part_areas(&self, hg: &Hypergraph) -> Vec<u64> {
        let mut v = vec![0u64; self.n_parts];
        for (i, copies) in self.copies.iter().enumerate() {
            let cell = hg.cell(CellId(i as u32));
            for cp in copies {
                v[cp.part.index()] += u64::from(cell.area());
            }
        }
        v
    }

    /// The paper's `t_Pj`: the number of IOBs partition `part` uses.
    ///
    /// Each net incident to the part consumes IOBs as follows: one IOB per
    /// terminal (pad) endpoint connected in the part, and — if the net
    /// additionally spans another part — at least one IOB for the
    /// device-to-device crossing (shared with a pad of the same net on the
    /// same part, since it is the same physical wire at the device
    /// boundary).
    pub fn part_terminals(&self, hg: &Hypergraph, part: PartId) -> usize {
        let mut total = 0usize;
        for nid in hg.net_ids() {
            total += self.net_iobs_in_part(hg, nid, part);
        }
        total
    }

    /// Per-part IOB usage, one entry per part.
    pub fn part_terminal_counts(&self, hg: &Hypergraph) -> Vec<usize> {
        let mut v = vec![0usize; self.n_parts];
        for nid in hg.net_ids() {
            let parts = self.net_part_set(hg, nid);
            let crossing = parts.len() >= 2;
            let mut pads = vec![0usize; self.n_parts];
            for ep in hg.net(nid).endpoints() {
                if hg.cell(ep.cell).is_terminal() {
                    for (i, cp) in self.copies[ep.cell.index()].iter().enumerate() {
                        if self.pin_connected(hg, ep.cell, i, ep.pin) {
                            pads[cp.part.index()] += 1;
                        }
                    }
                }
            }
            for p in 0..self.n_parts {
                let touches = parts.contains(PartId(p as u16));
                let crossing_cost = usize::from(crossing && touches);
                v[p] += pads[p].max(crossing_cost);
            }
        }
        v
    }

    fn net_iobs_in_part(&self, hg: &Hypergraph, net: NetId, part: PartId) -> usize {
        let parts = self.net_part_set(hg, net);
        if !parts.contains(part) {
            return 0;
        }
        let mut pads = 0usize;
        for ep in hg.net(net).endpoints() {
            if hg.cell(ep.cell).is_terminal() {
                for (i, cp) in self.copies[ep.cell.index()].iter().enumerate() {
                    if cp.part == part && self.pin_connected(hg, ep.cell, i, ep.pin) {
                        pads += 1;
                    }
                }
            }
        }
        let crossing = usize::from(parts.len() >= 2);
        pads.max(crossing)
    }

    /// The number of cells with more than one copy.
    pub fn replicated_cell_count(&self) -> usize {
        self.copies.iter().filter(|c| c.len() > 1).count()
    }

    /// The number of extra copies beyond one per cell.
    pub fn total_replicas(&self) -> usize {
        self.copies.iter().map(|c| c.len() - 1).sum()
    }

    /// Checks structural invariants: every part in range; every cell's
    /// copies keep each output exactly once; replicated copies keep at
    /// least one output.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, hg: &Hypergraph) -> Result<(), PlacementError> {
        for (i, copies) in self.copies.iter().enumerate() {
            let id = CellId(i as u32);
            let cell = hg.cell(id);
            let full = full_mask(cell.m_outputs());
            let mut seen: OutputMask = 0;
            for cp in copies {
                if cp.part.index() >= self.n_parts {
                    return Err(PlacementError::PartOutOfRange(cp.part));
                }
                if copies.len() > 1 && cp.outputs == 0 {
                    return Err(PlacementError::EmptyCopy(id));
                }
                if seen & cp.outputs != 0 {
                    return Err(PlacementError::OutputsNotPartitioned(id));
                }
                seen |= cp.outputs;
            }
            if seen != full {
                return Err(PlacementError::OutputsNotPartitioned(id));
            }
        }
        Ok(())
    }
}

/// The mask keeping all of a cell's `m` outputs.
pub(crate) fn full_mask(m: usize) -> OutputMask {
    assert!(m <= 32, "cells are limited to 32 outputs");
    if m == 32 {
        u32::MAX
    } else {
        (1u32 << m) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdjacencyMatrix, BuildError, CellKind, HypergraphBuilder};

    /// Builds the cell of the paper's Fig. 1 inside a complete bipartition
    /// fixture:
    ///
    /// - cell `M` with inputs {a, b, c}, outputs {X, Y};
    ///   X depends on {a, b}, Y depends on {b, c};
    /// - three input pads driving a, b, c; two output pads sinking X, Y.
    fn fig1() -> Result<(crate::Hypergraph, CellId, [NetId; 5]), BuildError> {
        let mut b = HypergraphBuilder::new();
        let pads_in: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|n| b.add_cell(*n, CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad()))
            .collect();
        let m = b.add_cell(
            "M",
            CellKind::logic(1),
            3,
            2,
            AdjacencyMatrix::from_rows(3, &[&[0, 1], &[1, 2]]),
        );
        let pad_x = b.add_cell("X", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let pad_y = b.add_cell("Y", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let na = b.add_net("na");
        let nb = b.add_net("nb");
        let nc = b.add_net("nc");
        let nx = b.add_net("nx");
        let ny = b.add_net("ny");
        for (i, &n) in [na, nb, nc].iter().enumerate() {
            b.connect_output(n, pads_in[i], 0)?;
            b.connect_input(n, m, i)?;
        }
        b.connect_output(nx, m, 0)?;
        b.connect_input(nx, pad_x, 0)?;
        b.connect_output(ny, m, 1)?;
        b.connect_input(ny, pad_y, 0)?;
        Ok((b.finish()?, m, [na, nb, nc, nx, ny]))
    }

    #[test]
    fn unreplicated_all_pins_connected() {
        let (hg, m, _) = fig1().unwrap();
        let p = Placement::new_uniform(&hg, 2, PartId(0));
        for j in 0..3 {
            assert!(p.pin_connected(&hg, m, 0, Pin::Input(j)));
        }
        assert!(p.pin_connected(&hg, m, 0, Pin::Output(0)));
        assert_eq!(p.cut_size(&hg), 0);
        p.validate(&hg).unwrap();
    }

    #[test]
    fn functional_replication_floats_exclusive_inputs() {
        let (hg, m, nets) = fig1().unwrap();
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        // Replica on part 1 keeps output Y (bit 1); original keeps X.
        p.replicate(&hg, m, PartId(1), 0b10).unwrap();
        p.validate(&hg).unwrap();
        assert!(p.is_replicated(m));
        // Copy 0 (original, keeps X): a and b connected, c floating.
        assert!(p.pin_connected(&hg, m, 0, Pin::Input(0)));
        assert!(p.pin_connected(&hg, m, 0, Pin::Input(1)));
        assert!(!p.pin_connected(&hg, m, 0, Pin::Input(2)));
        assert!(p.pin_connected(&hg, m, 0, Pin::Output(0)));
        assert!(!p.pin_connected(&hg, m, 0, Pin::Output(1)));
        // Copy 1 (replica, keeps Y): b and c connected, a floating.
        assert!(!p.pin_connected(&hg, m, 1, Pin::Input(0)));
        assert!(p.pin_connected(&hg, m, 1, Pin::Input(1)));
        assert!(p.pin_connected(&hg, m, 1, Pin::Input(2)));
        // Cut: nb (shared input b spans both parts), nc (pad on part 0,
        // replica input on part 1), ny (driven on part 1, pad on part 0).
        assert!(!p.is_cut(&hg, nets[0])); // na stays on part 0
        assert!(p.is_cut(&hg, nets[1])); // nb crosses
        assert!(p.is_cut(&hg, nets[2])); // nc crosses (pad left behind)
        assert!(!p.is_cut(&hg, nets[3])); // nx internal to part 0
        assert!(p.is_cut(&hg, nets[4])); // ny crosses (pad left behind)
    }

    #[test]
    fn unreplicate_restores_single_copy() {
        let (hg, m, _) = fig1().unwrap();
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        p.replicate(&hg, m, PartId(1), 0b10).unwrap();
        p.unreplicate(m, PartId(1)).unwrap();
        assert!(!p.is_replicated(m));
        assert_eq!(p.part_of(m), Some(PartId(1)));
        assert_eq!(p.copies(m)[0].outputs, 0b11);
        p.validate(&hg).unwrap();
    }

    #[test]
    fn replication_areas_double_count() {
        let (hg, m, _) = fig1().unwrap();
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        assert_eq!(p.part_area(&hg, PartId(0)), 1);
        p.replicate(&hg, m, PartId(1), 0b01).unwrap();
        assert_eq!(p.part_areas(&hg), vec![1, 1]);
        assert_eq!(p.replicated_cell_count(), 1);
        assert_eq!(p.total_replicas(), 1);
    }

    #[test]
    fn invalid_splits_rejected() {
        let (hg, m, _) = fig1().unwrap();
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        // Empty replica mask.
        assert!(p.replicate(&hg, m, PartId(1), 0).is_err());
        // Full mask (nothing left for the original).
        assert!(p.replicate(&hg, m, PartId(1), 0b11).is_err());
        // Out-of-range bits.
        assert!(p.replicate(&hg, m, PartId(1), 0b100).is_err());
        // Terminals cannot replicate.
        assert!(p.replicate(&hg, CellId(0), PartId(1), 0b1).is_err());
        // Out-of-range part.
        assert_eq!(
            p.replicate(&hg, m, PartId(5), 0b1),
            Err(PlacementError::PartOutOfRange(PartId(5)))
        );
        // Double replication.
        p.replicate(&hg, m, PartId(1), 0b10).unwrap();
        assert!(p.replicate(&hg, m, PartId(1), 0b01).is_err());
    }

    #[test]
    fn terminal_counting_pads_and_crossings() {
        let (hg, m, _) = fig1().unwrap();
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        // All on part 0: 5 pads → 5 IOBs on part 0, none on part 1.
        assert_eq!(p.part_terminals(&hg, PartId(0)), 5);
        assert_eq!(p.part_terminals(&hg, PartId(1)), 0);
        // Move the logic cell to part 1: every net crosses.
        p.place(m, PartId(1));
        // Part 0: the 5 pads each still consume exactly one IOB (the
        // crossing shares the pad's wire).
        assert_eq!(p.part_terminals(&hg, PartId(0)), 5);
        // Part 1: 5 crossing nets, one IOB each.
        assert_eq!(p.part_terminals(&hg, PartId(1)), 5);
        assert_eq!(p.part_terminal_counts(&hg), vec![5, 5]);
    }

    #[test]
    fn connectivity_cost_multiway() {
        let (hg, m, _) = fig1().unwrap();
        let mut p = Placement::new_uniform(&hg, 3, PartId(0));
        p.place(m, PartId(1));
        // nets na..nc and nx, ny each span 2 parts → cost 5.
        assert_eq!(p.connectivity_cost(&hg), 5);
        assert_eq!(p.cut_size(&hg), 5);
    }

    #[test]
    fn validate_catches_bad_masks() {
        let (hg, m, _) = fig1().unwrap();
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        p.set_copies(
            m,
            vec![
                CellCopy {
                    part: PartId(0),
                    outputs: 0b01,
                },
                CellCopy {
                    part: PartId(1),
                    outputs: 0b01,
                },
            ],
        );
        assert_eq!(
            p.validate(&hg),
            Err(PlacementError::OutputsNotPartitioned(m))
        );
        p.set_copies(
            m,
            vec![
                CellCopy {
                    part: PartId(0),
                    outputs: 0b11,
                },
                CellCopy {
                    part: PartId(1),
                    outputs: 0,
                },
            ],
        );
        assert_eq!(p.validate(&hg), Err(PlacementError::EmptyCopy(m)));
    }

    #[test]
    fn full_mask_limits() {
        assert_eq!(full_mask(0), 0);
        assert_eq!(full_mask(2), 0b11);
        assert_eq!(full_mask(32), u32::MAX);
    }
}
