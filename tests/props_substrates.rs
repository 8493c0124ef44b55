//! Property tests on the substrates: netlist generation, BLIF round
//! trips, decomposition, mapping invariants and placements.
//!
//! Hand-rolled generators over `netpart-rng`, in the style of
//! `tests/props_board.rs`: each property draws [`CASES`] cases from its
//! own fixed stream, and every assertion message names the case's
//! parameters, so a failure is a reproducer.

use netpart::hypergraph::{CellCopy, Pin};
use netpart::prelude::*;
use netpart::techmap::Unit;
use netpart::verify::gen::gen_netlist;
use netpart_rng::Rng;
use std::ops::Range;

/// Accepted cases per property.
const CASES: usize = 24;

/// Cap on draws rejected by a property's precondition before the
/// generator is declared unable to satisfy it.
const MAX_REJECTS: usize = 1024;

fn draw(rng: &mut Rng, range: Range<u64>) -> u64 {
    range.start + rng.gen_below(range.end - range.start)
}

/// Generated netlists always validate and honour their counts.
#[test]
fn generator_respects_config() {
    let mut rng = Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let gates = draw(&mut rng, 20..300) as usize;
        let dffs = draw(&mut rng, 0..40) as usize;
        let clustering = rng.gen_f64();
        let seed = draw(&mut rng, 0..10_000);
        let case =
            format!("case (gates={gates}, dffs={dffs}, clustering={clustering}, seed={seed})");
        let nl = gen_netlist(gates, dffs, clustering, seed);
        assert!(nl.validate().is_ok(), "{case}");
        assert_eq!(nl.n_dffs(), dffs, "{case}");
        assert_eq!(nl.n_gates(), gates + dffs, "{case}");
    }
}

/// BLIF write → parse preserves structure, and a second round trip is a
/// fixpoint.
#[test]
fn blif_roundtrip() {
    let mut rng = Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let gates = draw(&mut rng, 20..200) as usize;
        let dffs = draw(&mut rng, 0..20) as usize;
        let seed = draw(&mut rng, 0..10_000);
        let case = format!("case (gates={gates}, dffs={dffs}, seed={seed})");
        let nl = gen_netlist(gates, dffs, 0.6, seed);
        let text = write_blif(&nl);
        let back = parse_blif(&text).unwrap_or_else(|e| panic!("{case}: own output parses: {e:?}"));
        assert_eq!(back.n_gates(), nl.n_gates(), "{case}");
        assert_eq!(back.n_dffs(), nl.n_dffs(), "{case}");
        assert_eq!(
            back.primary_inputs().len(),
            nl.primary_inputs().len(),
            "{case}"
        );
        assert_eq!(
            back.primary_outputs().len(),
            nl.primary_outputs().len(),
            "{case}"
        );
        assert_eq!(write_blif(&back), text, "{case}");
    }
}

/// Decomposition leaves narrow gates alone and always produces a
/// mappable netlist with the same interface.
#[test]
fn decompose_is_mappable() {
    let mut rng = Rng::seed_from_u64(3);
    for _ in 0..CASES {
        let k = draw(&mut rng, 2..5) as usize;
        let seed = draw(&mut rng, 0..10_000);
        let case = format!("case (k={k}, seed={seed})");
        let nl = gen_netlist(100, 10, 0.5, seed);
        let out = decompose_wide_gates(&nl, k);
        assert!(out.validate().is_ok(), "{case}");
        assert!(
            out.gates()
                .all(|g| g.kind().is_dff() || g.inputs().len() <= k),
            "{case}"
        );
        assert_eq!(
            out.primary_inputs().len(),
            nl.primary_inputs().len(),
            "{case}"
        );
        assert_eq!(
            out.primary_outputs().len(),
            nl.primary_outputs().len(),
            "{case}"
        );
        assert_eq!(out.n_dffs(), nl.n_dffs(), "{case}");
        let cfg = MapperConfig {
            max_inputs: k,
            ..MapperConfig::xc3000()
        };
        assert!(map(&out, &cfg).is_ok(), "{case}");
    }
}

/// Mapping covers every DFF exactly once and every CLB respects the
/// XC3000 constraints; the emitted hypergraph is consistent.
#[test]
fn mapping_invariants() {
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let gates = draw(&mut rng, 50..300) as usize;
        let dffs = draw(&mut rng, 0..40) as usize;
        let seed = draw(&mut rng, 0..10_000);
        let case = format!("case (gates={gates}, dffs={dffs}, seed={seed})");
        let nl = gen_netlist(gates, dffs, 0.7, seed);
        let cfg = MapperConfig::xc3000();
        let m = map(&nl, &cfg).unwrap_or_else(|e| panic!("{case}: generated netlists map: {e:?}"));
        let mut total_dffs = 0usize;
        for clb in &m.clbs {
            assert!(clb.units.len() <= cfg.max_outputs, "{case}");
            let mut inputs: Vec<_> = clb
                .units
                .iter()
                .flat_map(|u| m.unit_support(&nl, u))
                .collect();
            inputs.sort_unstable();
            inputs.dedup();
            assert!(inputs.len() <= cfg.max_inputs, "{case}");
            let dffs_here: usize = clb.units.iter().map(|u| m.unit_dffs(u)).sum();
            assert!(dffs_here <= cfg.max_dffs, "{case}");
            total_dffs += dffs_here;
            let ext = clb
                .units
                .iter()
                .filter(|u| matches!(u, Unit::ExtReg { .. }))
                .count();
            assert!(ext <= 1, "{case}");
        }
        assert_eq!(total_dffs, nl.n_dffs(), "{case}");

        let hg = m.to_hypergraph(&nl);
        let s = hg.stats();
        assert_eq!(s.clbs as usize, m.n_clbs(), "{case}");
        assert_eq!(s.dffs as usize, nl.n_dffs(), "{case}");
        assert_eq!(
            s.iobs as usize,
            nl.primary_inputs().len() + nl.primary_outputs().len(),
            "{case}"
        );
    }
}

/// Placement invariants: replication splits outputs exactly once,
/// floats only inputs no kept output needs, and unreplication is an
/// exact inverse for cut metrics.
#[test]
fn placement_replication_roundtrip() {
    let mut rng = Rng::seed_from_u64(5);
    let (mut accepted, mut rejected) = (0, 0);
    while accepted < CASES {
        let seed = draw(&mut rng, 0..10_000);
        let pick = rng.gen_range(0..32);
        let case = format!("case (seed={seed}, pick={pick})");
        let nl = gen_netlist(120, 10, 0.6, seed);
        let hg = map(&nl, &MapperConfig::xc3000())
            .unwrap_or_else(|e| panic!("{case}: maps: {e:?}"))
            .to_hypergraph(&nl);
        let mut p = Placement::new_uniform(&hg, 2, PartId(0));
        let two_out: Vec<CellId> = hg
            .cell_ids()
            .filter(|&c| hg.cell(c).m_outputs() == 2 && !hg.cell(c).is_terminal())
            .collect();
        if two_out.is_empty() {
            rejected += 1;
            assert!(
                rejected < MAX_REJECTS,
                "too few circuits with two-output cells"
            );
            continue;
        }
        accepted += 1;
        let c = two_out[pick % two_out.len()];
        let before_cut = p.cut_size(&hg);
        let before_terms = p.part_terminal_counts(&hg);

        p.replicate(&hg, c, PartId(1), 0b10)
            .unwrap_or_else(|e| panic!("{case}: valid split: {e:?}"));
        p.validate(&hg)
            .unwrap_or_else(|e| panic!("{case}: invariants hold under replication: {e:?}"));
        // Exactly the adjacency-implied pins are connected on each copy.
        let adj = hg.cell(c).adjacency();
        for j in 0..hg.cell(c).n_inputs() {
            let on_orig = p.pin_connected(&hg, c, 0, Pin::Input(j as u16));
            let on_repl = p.pin_connected(&hg, c, 1, Pin::Input(j as u16));
            let global = adj.is_global_input(j);
            assert_eq!(on_orig, global || adj.depends(0, j), "{case} input {j}");
            assert_eq!(on_repl, global || adj.depends(1, j), "{case} input {j}");
        }

        p.unreplicate(c, PartId(0))
            .unwrap_or_else(|e| panic!("{case}: merge back: {e:?}"));
        p.validate(&hg)
            .unwrap_or_else(|e| panic!("{case}: invariants hold after unreplication: {e:?}"));
        assert_eq!(p.cut_size(&hg), before_cut, "{case}");
        assert_eq!(p.part_terminal_counts(&hg), before_terms, "{case}");
        assert_eq!(
            p.copies(c),
            &[CellCopy {
                part: PartId(0),
                outputs: 0b11
            }],
            "{case}"
        );
    }
}

/// Bipartition results always satisfy: reported cut equals the
/// placement's cut; areas match; balance honours the config.
#[test]
fn bipartition_postconditions() {
    let mut rng = Rng::seed_from_u64(6);
    for _ in 0..CASES {
        let seed = draw(&mut rng, 0..2_000);
        let case = format!("case (seed={seed})");
        let nl = gen_netlist(150, 12, 0.7, seed);
        let hg = map(&nl, &MapperConfig::xc3000())
            .unwrap_or_else(|e| panic!("{case}: maps: {e:?}"))
            .to_hypergraph(&nl);
        let cfg = BipartitionConfig::equal(&hg, 0.15)
            .with_seed(seed)
            .with_replication(ReplicationMode::functional(0));
        let res = bipartition(&hg, &cfg);
        assert!(res.balanced, "{case}");
        let p = res
            .placement
            .unwrap_or_else(|| panic!("{case}: functional mode exports"));
        p.validate(&hg)
            .unwrap_or_else(|e| panic!("{case}: placement invariants: {e:?}"));
        assert_eq!(p.cut_size(&hg), res.cut, "{case}");
        assert_eq!(p.part_areas(&hg), res.areas.to_vec(), "{case}");
        assert_eq!(p.replicated_cell_count(), res.replicated_cells, "{case}");
    }
}
