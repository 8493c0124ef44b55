//! Boundary-limited FM refinement on raw side vectors.
//!
//! The V-cycle's whole premise is that a projected placement is already
//! *nearly* right: after projection only cells near the cut can improve
//! it. Running the full flat engine per level squanders that — its
//! setup and pass costs scale with the entire graph. This refiner keeps
//! the flat engine's move semantics (gain-ordered selection, zero- and
//! negative-gain hill-climbing, lock-after-move, rollback to the best
//! balanced prefix) but seeds each pass from the **boundary only**: the
//! cells incident to at least one cut net. Cells join the working set
//! lazily as moves cut new nets next to them, so a pass costs time
//! proportional to the region the cut actually sweeps through, not to
//! the circuit.
//!
//! The refiner is a pure function of `(hg, cfg, sides)` — no RNG — so
//! multilevel runs stay deterministic and the engine's jobs-invariance
//! contract survives unchanged.

use netpart_core::{BipartitionConfig, RunClock, StopReason};
use netpart_hypergraph::{Hypergraph, NetId};
use std::collections::BinaryHeap;

/// Per-cell incidence in CSR form: for each cell, its distinct incident
/// nets with pin multiplicities. Gains and count updates must treat a
/// cell's pins on one net as a unit (they all flip together), so the
/// dedup is done once up front instead of per gain evaluation.
struct Incidence {
    start: Vec<u32>,
    /// `(net, multiplicity)` pairs, grouped by cell.
    entries: Vec<(u32, u32)>,
    /// Per net, the largest multiplicity any one cell has on it.
    max_mult: Vec<u32>,
}

impl Incidence {
    fn build(hg: &Hypergraph) -> Self {
        let n_cells = hg.n_cells();
        let mut start: Vec<u32> = Vec::with_capacity(n_cells + 1);
        let mut entries: Vec<(u32, u32)> = Vec::new();
        let mut stamp: Vec<u32> = vec![u32::MAX; hg.n_nets()];
        let mut at: Vec<u32> = vec![0; hg.n_nets()];
        start.push(0);
        for (ci, cell) in hg.cells().iter().enumerate() {
            for nid in cell.incident_nets() {
                let ni = nid.index();
                if stamp[ni] == ci as u32 {
                    entries[at[ni] as usize].1 += 1;
                } else {
                    stamp[ni] = ci as u32;
                    at[ni] = entries.len() as u32;
                    entries.push((ni as u32, 1));
                }
            }
            start.push(entries.len() as u32);
        }
        let mut max_mult = vec![0u32; hg.n_nets()];
        for &(n, k) in &entries {
            max_mult[n as usize] = max_mult[n as usize].max(k);
        }
        Incidence {
            start,
            entries,
            max_mult,
        }
    }

    fn of(&self, ci: usize) -> &[(u32, u32)] {
        &self.entries[self.start[ci] as usize..self.start[ci + 1] as usize]
    }
}

/// The mutable refinement state shared by the pass loop.
struct State<'a> {
    hg: &'a Hypergraph,
    cfg: &'a BipartitionConfig,
    inc: Incidence,
    /// Per-net endpoint counts by side (pin multiplicity included).
    cnt: Vec<[u32; 2]>,
    areas: [u64; 2],
    cut: usize,
    /// Σ over terminal cells of `terminal_weight[side]` — the part of
    /// the flat objective that is not the cut.
    term_cost: i64,
}

impl<'a> State<'a> {
    fn build(hg: &'a Hypergraph, cfg: &'a BipartitionConfig, sides: &[u8]) -> Self {
        let mut cnt: Vec<[u32; 2]> = vec![[0, 0]; hg.n_nets()];
        for (ni, net) in hg.nets().iter().enumerate() {
            for e in net.endpoints() {
                cnt[ni][usize::from(sides[e.cell.index()])] += 1;
            }
        }
        let cut = cnt.iter().filter(|c| c[0] > 0 && c[1] > 0).count();
        let mut areas = [0u64; 2];
        let mut term_cost = 0i64;
        for (ci, cell) in hg.cells().iter().enumerate() {
            let s = usize::from(sides[ci]);
            areas[s] += u64::from(cell.area());
            if cell.is_terminal() {
                term_cost += cfg.terminal_weight[s];
            }
        }
        State {
            hg,
            cfg,
            inc: Incidence::build(hg),
            cnt,
            areas,
            cut,
            term_cost,
        }
    }

    /// The flat objective this refiner minimizes: cut plus the weighted
    /// terminal placement cost.
    fn objective(&self) -> i64 {
        self.cut as i64 + self.term_cost
    }

    fn balanced(&self) -> bool {
        self.cfg.balanced(self.areas)
    }

    /// Gain of moving `ci` to the other side under the current counts.
    fn gain_of(&self, ci: usize, sides: &[u8]) -> i64 {
        let s = usize::from(sides[ci]);
        let o = 1 - s;
        let mut g = 0i64;
        for &(n, k) in self.inc.of(ci) {
            g += net_gain(self.cnt[n as usize], k, s);
        }
        let cell = &self.hg.cells()[ci];
        if cell.is_terminal() {
            g += self.cfg.terminal_weight[s] - self.cfg.terminal_weight[o];
        }
        g
    }

    /// Flips `ci` to the other side, updating counts, areas, cut and
    /// terminal cost. Shared by apply and rollback.
    fn flip(&mut self, ci: usize, sides: &mut [u8]) {
        let s = usize::from(sides[ci]);
        let o = 1 - s;
        sides[ci] = o as u8;
        let cell = &self.hg.cells()[ci];
        let a = u64::from(cell.area());
        self.areas[s] -= a;
        self.areas[o] += a;
        if cell.is_terminal() {
            self.term_cost += self.cfg.terminal_weight[o] - self.cfg.terminal_weight[s];
        }
        for &(n, k) in self.inc.of(ci) {
            let ni = n as usize;
            let was = self.cnt[ni];
            self.cnt[ni][s] -= k;
            self.cnt[ni][o] += k;
            let now = self.cnt[ni];
            let was_cut = was[0] > 0 && was[1] > 0;
            let now_cut = now[0] > 0 && now[1] > 0;
            match (was_cut, now_cut) {
                (false, true) => self.cut += 1,
                (true, false) => self.cut -= 1,
                _ => {}
            }
        }
    }
}

/// One net's term in the gain of moving a cell that holds `k` of the
/// net's `c` pins on side `s` to the other side.
fn net_gain(c: [u32; 2], k: u32, s: usize) -> i64 {
    let cut_now = c[0] > 0 && c[1] > 0;
    // After the move side `o` holds `c[o]+k > 0` pins, so the net stays
    // cut iff side `s` is still populated.
    let cut_after = c[s] - k > 0;
    i64::from(cut_now) - i64::from(cut_after)
}

/// Whether a flip that moved `k` pins of one net from side `s` to side
/// `o`, leaving `before_o + k` pins on `o` and `after_s` on `s`, left
/// every other cell's gain term for that net unchanged. `max_mult` is
/// the net's largest per-cell multiplicity.
///
/// A neighbor holding `k'` pins on side `x` reads the net through
/// "cut now" (both sides populated) and "`cnt[x] − k' > 0`". With both
/// sides above `max_mult ≥ k'` before and after the flip, the net stays
/// cut and every `cnt[x] − k'` stays positive, so no term moves. Any
/// smaller threshold misses a neighbor that holds more pins than it:
/// at `max_mult = 3` and `before_o = 3`, the side-`o` neighbor holding
/// all three pins loses the +1 it had for emptying side `o`.
fn gains_unchanged(before_o: u32, after_s: u32, max_mult: u32) -> bool {
    before_o > max_mult && after_s > max_mult
}

/// One FM pass over the boundary. Returns `true` when the pass found a
/// balanced prefix that strictly improves the objective (or reaches
/// balance from an unbalanced start).
#[allow(clippy::too_many_lines)]
fn one_pass(st: &mut State<'_>, sides: &mut [u8]) -> bool {
    let n_cells = st.hg.n_cells();
    let obj0 = st.objective();
    let start_balanced = st.balanced();

    let mut heap: BinaryHeap<(i64, u32)> = BinaryHeap::new();
    let mut locked = vec![false; n_cells];
    let mut seeded = vec![false; n_cells];
    let mut cur_gain = vec![0i64; n_cells];

    // Seed: every cell touching a cut net, in id order.
    for ci in 0..n_cells {
        let on_boundary = st
            .inc
            .of(ci)
            .iter()
            .any(|&(n, _)| st.cnt[n as usize][0] > 0 && st.cnt[n as usize][1] > 0);
        if on_boundary {
            seeded[ci] = true;
            cur_gain[ci] = st.gain_of(ci, sides);
            heap.push((cur_gain[ci], ci as u32));
        }
    }

    let mut trail: Vec<u32> = Vec::new();
    let mut best_obj = if start_balanced { obj0 } else { i64::MAX };
    let mut best_len = 0usize;
    let mut stash: Vec<u32> = Vec::new();

    while let Some((g, c)) = heap.pop() {
        let ci = c as usize;
        if locked[ci] || g != cur_gain[ci] {
            continue; // stale entry (lazy deletion)
        }
        let s = usize::from(sides[ci]);
        let o = 1 - s;
        let a = u64::from(st.hg.cells()[ci].area());
        if st.areas[s] < st.cfg.min_area[s] + a || st.areas[o] + a > st.cfg.max_area[o] {
            // Area-infeasible right now; may become feasible after the
            // balance shifts, so park it instead of dropping it.
            stash.push(c);
            continue;
        }

        st.flip(ci, sides);
        locked[ci] = true;
        trail.push(c);

        // Gain maintenance: a neighbor's gain can only change when one
        // of the moved cell's nets crossed a criticality threshold
        // (became cut/uncut, or is within pin-multiplicity reach of
        // doing so). Everything else is untouched by this move.
        for &(n, k) in st.inc.of(ci) {
            let after = st.cnt[n as usize];
            if gains_unchanged(after[o] - k, after[s], st.inc.max_mult[n as usize]) {
                continue;
            }
            for e in st.hg.net(NetId(n)).endpoints() {
                let ei = e.cell.index();
                if ei == ci || locked[ei] {
                    continue;
                }
                let g2 = st.gain_of(ei, sides);
                if !seeded[ei] {
                    seeded[ei] = true;
                    cur_gain[ei] = g2;
                    heap.push((g2, ei as u32));
                } else if g2 != cur_gain[ei] {
                    cur_gain[ei] = g2;
                    heap.push((g2, ei as u32));
                }
            }
        }

        let obj = st.objective();
        if st.balanced() && obj < best_obj {
            best_obj = obj;
            best_len = trail.len();
        }
        // The areas moved; parked cells may be feasible again.
        for &sc in &stash {
            if !locked[sc as usize] {
                heap.push((cur_gain[sc as usize], sc));
            }
        }
        stash.clear();
    }

    // Roll back to the best balanced prefix.
    for &c in trail[best_len..].iter().rev() {
        st.flip(c as usize, sides);
    }
    best_len > 0 && (best_obj < obj0 || !start_balanced)
}

/// Refines a bipartition side vector in place with boundary-limited FM
/// passes, stopping after `max_passes`, at convergence, or when `clock`
/// trips. Returns the number of passes run and why the loop ended.
///
/// The final `sides` always satisfies the same balance guarantee as the
/// input: every pass either improves the objective over a balanced
/// prefix or rolls back completely, so a balanced input stays balanced
/// and the cut never increases.
///
/// # Panics
///
/// Panics if `sides` is shorter than the cell count or contains values
/// other than 0 and 1.
pub fn refine_sides(
    hg: &Hypergraph,
    cfg: &BipartitionConfig,
    sides: &mut [u8],
    max_passes: usize,
    clock: &RunClock,
) -> (usize, StopReason) {
    assert!(sides.len() >= hg.n_cells(), "side per cell");
    assert!(
        sides[..hg.n_cells()].iter().all(|&s| s <= 1),
        "bipartition sides are 0 or 1"
    );
    let mut st = State::build(hg, cfg, sides);
    let mut passes = 0usize;
    let mut stop = StopReason::Converged;
    while passes < max_passes {
        if let Some(r) = clock.check_wall() {
            stop = r;
            break;
        }
        let improved = one_pass(&mut st, sides);
        passes += 1;
        if !improved {
            stop = StopReason::Converged;
            break;
        }
        if passes == max_passes {
            stop = StopReason::PassLimit;
        }
    }
    (passes, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder};
    use netpart_rng::Rng;

    /// Net `n` (id 0) driven by a pad on side 0 and sunk by nine output
    /// pads there, plus one logic cell on side 1 holding three input
    /// pins on it. Returns the graph, the sides, the first sink pad and
    /// the logic cell.
    fn triple_pin_net() -> (Hypergraph, Vec<u8>, usize, usize) {
        let mut b = HypergraphBuilder::new();
        let n = b.add_net("n");
        let m = b.add_net("m");
        let drv = b.add_cell("d", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        b.connect_output(n, drv, 0).unwrap();
        let mut sides = vec![0u8];
        for i in 0..9 {
            let q = b.add_cell(
                format!("q{i}"),
                CellKind::output_pad(),
                1,
                0,
                AdjacencyMatrix::pad(),
            );
            b.connect_input(n, q, 0).unwrap();
            sides.push(0);
        }
        let nbr = b.add_cell("N", CellKind::logic(1), 3, 1, AdjacencyMatrix::full(3, 1));
        for j in 0..3 {
            b.connect_input(n, nbr, j).unwrap();
        }
        b.connect_output(m, nbr, 0).unwrap();
        let z = b.add_cell("z", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        b.connect_input(m, z, 0).unwrap();
        sides.extend([1, 1]);
        (b.finish().unwrap(), sides, 1, nbr.index())
    }

    #[test]
    fn multi_pin_neighbor_is_not_left_stale() {
        // Counts [s:10, o:3] with the side-`o` neighbor holding all three
        // side-`o` pins: moving one side-`s` sink over changes that
        // neighbor's gain, yet the old `before_o > 2 && after_s > 2`
        // skip let it keep its heap gain.
        let (hg, mut sides, mover, nbr) = triple_pin_net();
        let cfg = BipartitionConfig::bounded([0, 0], [hg.total_area(); 2]);
        let mut st = State::build(&hg, &cfg, &sides);
        assert_eq!(st.cnt[0], [10, 3]);
        assert_eq!(st.inc.max_mult[0], 3);
        let heap_gain = st.gain_of(nbr, &sides);
        st.flip(mover, &mut sides);
        let (before_o, after_s) = (st.cnt[0][1] - 1, st.cnt[0][0]);
        assert!(before_o > 2 && after_s > 2, "the old rule skipped net n");
        assert_ne!(
            st.gain_of(nbr, &sides),
            heap_gain,
            "so the neighbor's heap gain went stale"
        );
        assert!(!gains_unchanged(before_o, after_s, st.inc.max_mult[0]));
    }

    #[test]
    fn skipped_nets_never_move_a_neighbor_term() {
        // Random graphs whose logic cells put 1..=4 input pins on a few
        // shared pad nets, random sides and random flips: whenever the
        // rule skips a net, every other endpoint's term for that net is
        // the same before and after the flip.
        let mut rng = Rng::seed_from_u64(0x7265_6669_6e65);
        let mut skipped = 0usize;
        for case in 0..64 {
            let mut b = HypergraphBuilder::new();
            let pad_nets: Vec<NetId> = (0..3)
                .map(|i| {
                    let nt = b.add_net(format!("p{i}"));
                    let p = b.add_cell(
                        format!("i{i}"),
                        CellKind::input_pad(),
                        0,
                        1,
                        AdjacencyMatrix::pad(),
                    );
                    b.connect_output(nt, p, 0).unwrap();
                    nt
                })
                .collect();
            for c in 0..12 {
                let ins = 1 + rng.gen_range(0..4);
                let x = b.add_cell(
                    format!("x{c}"),
                    CellKind::logic(1),
                    ins,
                    1,
                    AdjacencyMatrix::full(ins, 1),
                );
                for j in 0..ins {
                    b.connect_input(pad_nets[rng.gen_range(0..3)], x, j)
                        .unwrap();
                }
                let out = b.add_net(format!("o{c}"));
                b.connect_output(out, x, 0).unwrap();
                let z = b.add_cell(
                    format!("z{c}"),
                    CellKind::output_pad(),
                    1,
                    0,
                    AdjacencyMatrix::pad(),
                );
                b.connect_input(out, z, 0).unwrap();
            }
            let hg = b.finish().unwrap();
            let cfg = BipartitionConfig::bounded([0, 0], [hg.total_area(); 2]);
            let mut sides: Vec<u8> = (0..hg.n_cells())
                .map(|_| rng.gen_range(0..2) as u8)
                .collect();
            let mut st = State::build(&hg, &cfg, &sides);
            for _ in 0..40 {
                let ci = rng.gen_range(0..hg.n_cells());
                let before = st.cnt.clone();
                let s = usize::from(sides[ci]);
                st.flip(ci, &mut sides);
                for &(n, k) in st.inc.of(ci) {
                    let after = st.cnt[n as usize];
                    if !gains_unchanged(after[1 - s] - k, after[s], st.inc.max_mult[n as usize]) {
                        continue;
                    }
                    skipped += 1;
                    for e in hg.net(NetId(n)).endpoints() {
                        let ei = e.cell.index();
                        if ei == ci {
                            continue;
                        }
                        let (_, ke) = *st.inc.of(ei).iter().find(|&&(m, _)| m == n).unwrap();
                        let x = usize::from(sides[ei]);
                        assert_eq!(
                            net_gain(before[n as usize], ke, x),
                            net_gain(after, ke, x),
                            "case {case}: net {n} skipped but cell {ei}'s term moved"
                        );
                    }
                }
            }
        }
        assert!(
            skipped > 0,
            "the rule must fire for the check to mean anything"
        );
    }
}
