//! Property tests: the paper's closed-form gain model (§III, eqs. 7–11)
//! must agree exactly with the engine's cut-delta computation, on random
//! mapped circuits and random placements.
//!
//! Hand-rolled generators over `netpart-rng`, in the style of
//! `tests/props_board.rs`: each property draws [`CASES`] `(seed,
//! side_seed)` pairs from its own fixed stream, and every assertion
//! message names the pair, so a failure is a two-integer reproducer
//! (`mapped_with_sides(gates, dffs, seed, side_seed)`). The
//! critical-net lemma is checked on small hand-built nets instead,
//! where near-threshold counts and multi-pin groups are common.

use netpart::core::gain::{
    best_functional_gain, extract_vectors, functional_gain, single_move_gain, traditional_gain,
};
use netpart::core::{cut_out_of_reach, CellState, EngineState};
use netpart::prelude::*;
use netpart::verify::gen::mapped_with_sides;
use netpart_rng::Rng;
use std::ops::Range;

/// Accepted cases per property.
const CASES: usize = 24;

/// Cap on draws rejected by a property's precondition before the
/// generator is declared unable to satisfy it.
const MAX_REJECTS: usize = 1024;

/// Draws [`CASES`] `(seed, side_seed)` pairs, uniform over
/// `seeds × side_seeds`, from the fixed stream `stream`.
fn seed_pairs(stream: u64, seeds: Range<u64>, side_seeds: Range<u64>) -> Vec<(u64, u64)> {
    let mut rng = Rng::seed_from_u64(stream);
    (0..CASES)
        .map(|_| (draw(&mut rng, &seeds), draw(&mut rng, &side_seeds)))
        .collect()
}

fn draw(rng: &mut Rng, range: &Range<u64>) -> u64 {
    range.start + rng.gen_below(range.end - range.start)
}

/// True iff every pin of the cell is on a distinct net (the vector
/// model's implicit assumption).
fn distinct_nets(hg: &Hypergraph, c: CellId) -> bool {
    let cell = hg.cell(c);
    let mut nets: Vec<NetId> = cell.incident_nets().collect();
    nets.sort_unstable();
    nets.windows(2).all(|w| w[0] != w[1])
}

/// Eq. 7 (single move) equals the engine's exact delta for every cell.
#[test]
fn eq7_matches_engine() {
    for (seed, side_seed) in seed_pairs(7, 0..1000, 1..1000) {
        let (hg, sides) = mapped_with_sides(120, 8, seed, side_seed);
        let engine = EngineState::new(&hg, &sides);
        for c in hg.cell_ids() {
            if !distinct_nets(&hg, c) {
                continue;
            }
            let v = extract_vectors(&engine, c).expect("single cells have vectors");
            let side = sides[c.0 as usize];
            let formula = single_move_gain(&v);
            let exact = engine.peek_gain(c, CellState::Single { side: 1 - side });
            assert_eq!(formula, exact, "case ({seed}, {side_seed}) cell {c:?}");
        }
    }
}

/// Eq. 8 (traditional replication) equals the engine's exact delta.
#[test]
fn eq8_matches_engine() {
    for (seed, side_seed) in seed_pairs(8, 0..1000, 1..1000) {
        let (hg, sides) = mapped_with_sides(120, 8, seed, side_seed);
        let engine = EngineState::new(&hg, &sides);
        for c in hg.cell_ids() {
            if hg.cell(c).is_terminal() || !distinct_nets(&hg, c) {
                continue;
            }
            let v = extract_vectors(&engine, c).expect("single cells have vectors");
            let side = sides[c.0 as usize];
            let formula = traditional_gain(&v);
            let exact = engine.peek_gain(c, CellState::Traditional { orig_side: side });
            assert_eq!(formula, exact, "case ({seed}, {side_seed}) cell {c:?}");
        }
    }
}

/// Eqs. 9–11 (functional replication) equal the engine's exact delta
/// for every replica-output choice.
#[test]
fn eq9_to_11_match_engine() {
    for (seed, side_seed) in seed_pairs(9, 0..1000, 1..1000) {
        let (hg, sides) = mapped_with_sides(120, 8, seed, side_seed);
        let engine = EngineState::new(&hg, &sides);
        for c in hg.cell_ids() {
            let cell = hg.cell(c);
            if cell.is_terminal() || cell.m_outputs() < 2 || !distinct_nets(&hg, c) {
                continue;
            }
            let v = extract_vectors(&engine, c).expect("single cells have vectors");
            let side = sides[c.0 as usize];
            let mut best_engine = i64::MIN;
            for o in 0..cell.m_outputs() {
                let formula = functional_gain(cell.adjacency(), &v, o);
                let exact = engine.peek_gain(
                    c,
                    CellState::Functional {
                        orig_side: side,
                        replica_mask: 1 << o,
                    },
                );
                assert_eq!(
                    formula, exact,
                    "case ({seed}, {side_seed}) cell {c:?} output {o}"
                );
                best_engine = best_engine.max(exact);
            }
            let (_, g) = best_functional_gain(cell.adjacency(), &v).expect("m >= 2");
            assert_eq!(
                g, best_engine,
                "case ({seed}, {side_seed}): eq. 11 takes the max (cell {c:?})"
            );
        }
    }
}

/// Applying any single state change realizes exactly the peeked gain,
/// and incremental bookkeeping matches a from-scratch rebuild.
#[test]
fn realized_gain_matches_peek() {
    let mut rng = Rng::seed_from_u64(10);
    let (mut accepted, mut rejected) = (0, 0);
    while accepted < CASES {
        let seed = draw(&mut rng, &(0..500));
        let side_seed = draw(&mut rng, &(1..500));
        let pick = rng.gen_range(0..64);
        let (hg, sides) = mapped_with_sides(80, 6, seed, side_seed);
        let mut engine = EngineState::new(&hg, &sides);
        let logic: Vec<CellId> = hg
            .cell_ids()
            .filter(|&c| !hg.cell(c).is_terminal() && hg.cell(c).m_outputs() >= 2)
            .collect();
        if logic.is_empty() {
            rejected += 1;
            assert!(
                rejected < MAX_REJECTS,
                "too few circuits with multi-output cells"
            );
            continue;
        }
        accepted += 1;
        let case = format!("case ({seed}, {side_seed}) pick {pick}");
        let c = logic[pick % logic.len()];
        let side = sides[c.0 as usize];
        for st in [
            CellState::Single { side: 1 - side },
            CellState::Functional {
                orig_side: side,
                replica_mask: 1,
            },
            CellState::Traditional { orig_side: side },
        ] {
            let peek = engine.peek_gain(c, st);
            let before = engine.cut();
            let realized = engine.set_state(c, st);
            assert_eq!(peek, realized, "{case}");
            assert_eq!(engine.cut() as i64, before as i64 - realized, "{case}");
            assert!(engine.validate(), "{case}: incremental state diverged");
            engine.set_state(c, CellState::Single { side });
            assert!(engine.validate(), "{case}");
            assert_eq!(engine.cut(), before, "{case}");
        }
    }
}

/// Across full FM passes — not just single probes — every applied
/// move's realized cut delta equals the gain the selection structure
/// predicted, in all three replication modes and for both selection
/// strategies. `gain_repairs` counts exactly the applications whose
/// realized delta diverged from the selection-time prediction, so a
/// clean run means the incremental bucket updates never went stale.
#[test]
fn full_passes_never_go_stale() {
    for (seed, side_seed) in seed_pairs(11, 0..500, 1..500) {
        let (hg, _) = mapped_with_sides(140, 10, seed, side_seed);
        for mode in [
            ReplicationMode::None,
            ReplicationMode::Traditional,
            ReplicationMode::functional(0),
        ] {
            for strategy in [SelectionStrategy::GainBuckets, SelectionStrategy::LazyHeap] {
                let case = format!("case ({seed}, {side_seed}) {mode:?}/{strategy:?}");
                let cfg = BipartitionConfig::equal(&hg, 0.1)
                    .with_seed(side_seed)
                    .with_replication(mode)
                    .with_selection(strategy);
                let res = bipartition(&hg, &cfg);
                assert_eq!(
                    res.gain_repairs, 0,
                    "{case}: {} applied moves diverged from predicted gain",
                    res.gain_repairs
                );
                assert!(res.balanced, "{case}: unbalanced");
                if let Some(p) = &res.placement {
                    assert_eq!(
                        p.cut_size(&hg),
                        res.cut,
                        "{case}: reported cut disagrees with placement"
                    );
                }
            }
        }
    }
}

/// Every state a cell can take under the three replication modes:
/// both single sides, and for logic cells both traditional replicas and
/// every proper functional replica mask.
fn all_states(hg: &Hypergraph, c: CellId) -> Vec<CellState> {
    let cell = hg.cell(c);
    let mut out = Vec::new();
    for side in 0..2u8 {
        out.push(CellState::Single { side });
        if !cell.is_terminal() {
            out.push(CellState::Traditional { orig_side: side });
            let full = (1u32 << cell.m_outputs()) - 1;
            out.extend((1..full).map(|replica_mask| CellState::Functional {
                orig_side: side,
                replica_mask,
            }));
        }
    }
    out
}

/// Adds a logic cell with `on_net` input pins on `net` plus `extra`
/// inputs on fresh pad-driven nets, and `m` outputs each supporting a
/// random non-empty input subset. Output 0 drives `net` when `drives`;
/// every other output feeds a fresh output pad.
fn add_probe_cell(
    b: &mut HypergraphBuilder,
    rng: &mut Rng,
    net: NetId,
    on_net: usize,
    extra: usize,
    m: usize,
    drives: bool,
) -> CellId {
    let ni = on_net + extra;
    let rows: Vec<Vec<usize>> = (0..m)
        .map(|_| {
            let mut row: Vec<usize> = (0..ni).filter(|_| rng.gen_bool(0.5)).collect();
            if row.is_empty() {
                row.push(rng.gen_range(0..ni));
            }
            row
        })
        .collect();
    let refs: Vec<&[usize]> = rows.iter().map(Vec::as_slice).collect();
    let id = b.n_cells();
    let c = b.add_cell(
        format!("x{id}"),
        CellKind::logic(1),
        ni,
        m,
        AdjacencyMatrix::from_rows(ni, &refs),
    );
    for j in 0..ni {
        if j < on_net {
            b.connect_input(net, c, j).unwrap();
        } else {
            let nt = b.add_net(format!("i{id}_{j}"));
            let p = b.add_cell(
                format!("p{id}_{j}"),
                CellKind::input_pad(),
                0,
                1,
                AdjacencyMatrix::pad(),
            );
            b.connect_output(nt, p, 0).unwrap();
            b.connect_input(nt, c, j).unwrap();
        }
    }
    for o in 0..m {
        if o == 0 && drives {
            b.connect_output(net, c, 0).unwrap();
        } else {
            let nt = b.add_net(format!("o{id}_{o}"));
            b.connect_output(nt, c, o).unwrap();
            let z = b.add_cell(
                format!("z{id}_{o}"),
                CellKind::output_pad(),
                1,
                0,
                AdjacencyMatrix::pad(),
            );
            b.connect_input(nt, z, 0).unwrap();
        }
    }
    c
}

/// The directed-cut critical-net lemma behind the bucket pass's pruned
/// gain update: when [`cut_out_of_reach`] holds for a move's
/// before/after counts of a net, every candidate state of every other
/// cell on the net gets the same contribution from both snapshots.
///
/// Each case builds one net `n` with a probe cell `X` (1–3 input pins on
/// `n`, sometimes also its driver), a mover `Y` (1–3 pins on `n`), a
/// driver cell unless `X` drives, and 0–8 sink pads. Every cell starts
/// on a random side, `X`, `Y` and the driver then take a random state
/// from all three replication modes, `Y` changes to another random
/// state, and `X`'s contribution is compared over its whole state set.
/// `k` is read off the graph as the most input pins any one cell has on
/// `n`.
#[test]
fn out_of_reach_nets_contribute_identically() {
    let mut rng = Rng::seed_from_u64(15);
    let (mut held, mut moved) = (0usize, 0usize);
    for case in 0..4096 {
        let mut b = HypergraphBuilder::new();
        let n = b.add_net("n");
        let x_drives = rng.gen_range(0..3) == 0;
        let kx = 1 + rng.gen_range(0..3);
        let (ex, mx) = (rng.gen_range(0..3), 1 + rng.gen_range(0..3));
        let x = add_probe_cell(&mut b, &mut rng, n, kx, ex, mx, x_drives);
        let ky = 1 + rng.gen_range(0..3);
        let (ey, my) = (rng.gen_range(0..2), 1 + rng.gen_range(0..2));
        let y = add_probe_cell(&mut b, &mut rng, n, ky, ey, my, false);
        let d = (!x_drives).then(|| add_probe_cell(&mut b, &mut rng, n, 0, 1, 1, true));
        for _ in 0..rng.gen_range(0..9) {
            let id = b.n_cells();
            let q = b.add_cell(
                format!("q{id}"),
                CellKind::output_pad(),
                1,
                0,
                AdjacencyMatrix::pad(),
            );
            b.connect_input(n, q, 0).unwrap();
        }
        let hg = b.finish().expect("probe graph is valid");
        let sides: Vec<u8> = (0..hg.n_cells())
            .map(|_| rng.gen_range(0..2) as u8)
            .collect();
        let mut engine = EngineState::new(&hg, &sides);
        for c in [Some(x), Some(y), d].into_iter().flatten() {
            let states = all_states(&hg, c);
            engine.set_state(c, states[rng.gen_range(0..states.len())]);
        }
        let k = hg
            .cell_ids()
            .map(|c| {
                hg.cell(c)
                    .input_nets()
                    .iter()
                    .filter(|&&nt| nt == n)
                    .count()
            })
            .max()
            .unwrap() as u32;
        let before = engine.net_counts(n);
        let y_states = all_states(&hg, y);
        engine.set_state(y, y_states[rng.gen_range(0..y_states.len())]);
        let after = engine.net_counts(n);
        let old = engine.cell_state(x);
        let skip = cut_out_of_reach(before, after, k);
        held += usize::from(skip && before != after);
        for cand in all_states(&hg, x) {
            let cb = engine.net_contribution(x, old, cand, n, before);
            let ca = engine.net_contribution(x, old, cand, n, after);
            if skip {
                assert_eq!(
                    cb, ca,
                    "case {case}: k={k} counts {before:?} -> {after:?}, X {old:?} -> {cand:?}"
                );
            } else {
                moved += usize::from(cb != ca);
            }
        }
    }
    assert!(held >= 64, "only {held} changed nets out of reach");
    assert!(
        moved >= 64,
        "only {moved} contributions moved outside the rule"
    );
}
