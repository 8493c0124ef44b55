//! Differential harness: independent implementations that claim to
//! compute the same thing must produce *certificate-identical*
//! solutions — compared byte-for-byte through the serialized
//! [`SolutionCertificate`], so every claim (placement, masks, cut set,
//! areas, terminals, metrics) is covered at once.
//!
//! Two equivalences, each over the fixed seed matrix [`SEEDS`] (the
//! seeds CI pins; see DESIGN.md §10):
//!
//! * **GainBuckets ≡ LazyHeap** — the incremental gain-bucket ladder
//!   and the lazy-heap baseline select identical move sequences
//!   (LIFO + lowest-cell-id tie order), so the winning solutions match.
//! * **jobs 1 ≡ jobs 8** — the parallel portfolio engine's determinism
//!   contract: thread count never changes the winning solution.
//!
//! The buckets ≡ heap equivalence is also run on graphs where the
//! bucket pass's pruned gain update (`skipped` in `fm.pass`) provably
//! fires: a hub net with multi-pin readers, and a coarse level.

use netpart::core::{bipartition_with_clock, BipartitionResult, RunClock};
use netpart::obs::{BufferRecorder, Value};
use netpart::prelude::*;
use netpart::verify::gen;
use netpart_rng::Rng;
use std::sync::Arc;

/// The pinned differential seed matrix. Changing these invalidates the
/// cross-references in DESIGN.md §10 — update both together.
const SEEDS: [u64; 3] = [11, 29, 47];

fn cert_text(hg: &Hypergraph, cfg: &BipartitionConfig, runs: usize) -> String {
    run_many(hg, cfg, runs)
        .expect("suite circuit partitions")
        .certificate(hg, cfg)
        .expect("winner exports a placement")
        .to_text()
}

#[test]
fn gain_buckets_and_lazy_heap_are_certificate_identical() {
    for seed in SEEDS {
        for mode in [ReplicationMode::None, ReplicationMode::functional(0)] {
            let hg = gen::mapped(350, 30, seed);
            let base = BipartitionConfig::equal(&hg, 0.1)
                .with_seed(seed)
                .with_replication(mode);
            let buckets = cert_text(
                &hg,
                &base.clone().with_selection(SelectionStrategy::GainBuckets),
                3,
            );
            let heap = cert_text(
                &hg,
                &base.clone().with_selection(SelectionStrategy::LazyHeap),
                3,
            );
            assert_eq!(
                buckets, heap,
                "strategies diverged at seed {seed} with {mode:?}"
            );
        }
    }
}

#[test]
fn bipartition_portfolio_is_jobs_invariant() {
    for seed in SEEDS {
        let hg = gen::mapped(400, 35, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(seed)
            .with_replication(ReplicationMode::functional(0));
        let texts: Vec<String> = [1, 8]
            .iter()
            .map(|&jobs| {
                portfolio_bipartition(&hg, &cfg, 6, jobs)
                    .expect("portfolio completes")
                    .certificate(&hg, &cfg)
                    .expect("winner exports a placement")
                    .to_text()
            })
            .collect();
        assert_eq!(texts[0], texts[1], "jobs 1 vs 8 diverged at seed {seed}");
    }
}

#[test]
fn kway_portfolio_is_jobs_invariant() {
    for seed in SEEDS {
        let hg = gen::mapped(700, 60, seed);
        let cfg = KWayConfig::new(DeviceLibrary::xc3000())
            .with_candidates(2)
            .with_seed(seed)
            .with_max_passes(8)
            .with_replication(ReplicationMode::functional(1));
        let texts: Vec<String> = [1, 8]
            .iter()
            .map(|&jobs| {
                portfolio_kway(&hg, &cfg, 3, jobs)
                    .expect("portfolio completes")
                    .certificate(&hg, &cfg)
                    .to_text()
            })
            .collect();
        assert_eq!(texts[0], texts[1], "jobs 1 vs 8 diverged at seed {seed}");
    }
}

#[test]
fn sequential_harness_matches_single_job_portfolio() {
    // The engine wraps `run_start`; for any seed the sequential harness
    // and a one-worker portfolio must elect the same winner.
    for seed in SEEDS {
        let hg = gen::mapped(300, 25, seed);
        let cfg = BipartitionConfig::equal(&hg, 0.1).with_seed(seed);
        let seq = cert_text(&hg, &cfg, 5);
        let par = portfolio_bipartition(&hg, &cfg, 5, 1)
            .expect("portfolio completes")
            .certificate(&hg, &cfg)
            .expect("winner exports a placement")
            .to_text();
        assert_eq!(seq, par, "sequential vs portfolio diverged at seed {seed}");
    }
}

/// A random logic network around one hub net: an input pad drives
/// `hub`, and each of `cells` logic cells reads it on 1–3 of its four
/// input pins (so the net has multi-pin groups). The other inputs read
/// an earlier cell's output (or a fresh pad for the first cell), and
/// each cell's two outputs, supported by different input subsets, feed
/// an output pad when nothing else reads them.
fn hub_circuit(cells: usize, seed: u64) -> Hypergraph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new();
    let hub = b.add_net("hub");
    let drv = b.add_cell(
        "hub_pad",
        CellKind::input_pad(),
        0,
        1,
        AdjacencyMatrix::pad(),
    );
    b.connect_output(hub, drv, 0).unwrap();
    let mut outs: Vec<NetId> = Vec::new();
    let mut read = Vec::new();
    for i in 0..cells {
        let x = b.add_cell(
            format!("x{i}"),
            CellKind::logic(1),
            4,
            2,
            AdjacencyMatrix::from_rows(4, &[&[0, 1, 2], &[1, 2, 3]]),
        );
        let on_hub = 1 + rng.gen_range(0..3);
        for j in 0..4 {
            let net = if j < on_hub {
                hub
            } else if outs.is_empty() {
                let nt = b.add_net(format!("in{i}_{j}"));
                let p = b.add_cell(
                    format!("p{i}_{j}"),
                    CellKind::input_pad(),
                    0,
                    1,
                    AdjacencyMatrix::pad(),
                );
                b.connect_output(nt, p, 0).unwrap();
                nt
            } else {
                let k = rng.gen_range(0..outs.len());
                read[k] = true;
                outs[k]
            };
            b.connect_input(net, x, j).unwrap();
        }
        for o in 0..2 {
            let nt = b.add_net(format!("o{i}_{o}"));
            b.connect_output(nt, x, o).unwrap();
            outs.push(nt);
            read.push(false);
        }
    }
    for (k, nt) in outs.iter().enumerate().filter(|&(k, _)| !read[k]) {
        let z = b.add_cell(
            format!("z{k}"),
            CellKind::output_pad(),
            1,
            0,
            AdjacencyMatrix::pad(),
        );
        b.connect_input(*nt, z, 0).unwrap();
    }
    b.finish().expect("hub circuit is valid")
}

/// One traced bipartition: the result and, per `fm.pass` event, the
/// `(applied, kept, updates, skipped)` fields.
fn traced_run(hg: &Hypergraph, cfg: &BipartitionConfig) -> (BipartitionResult, Vec<[u64; 4]>) {
    let buffer = Arc::new(BufferRecorder::new());
    let clock = RunClock::new(&cfg.budget, &cfg.fault).with_recorder(buffer.clone());
    let res = bipartition_with_clock(hg, cfg, &clock);
    let field = |e: &Event, key: &str| match e.fields.iter().find(|(k, _)| *k == key) {
        Some((_, Value::U64(v))) => *v,
        other => panic!("fm.pass field {key}: {other:?}"),
    };
    let passes = buffer
        .take()
        .iter()
        .filter(|e| e.scope == "fm" && e.name == "pass")
        .map(|e| ["applied", "kept", "updates", "skipped"].map(|k| field(e, k)))
        .collect();
    (res, passes)
}

#[test]
fn pruned_gain_updates_fire_and_match_the_heap() {
    let hub = hub_circuit(160, 5);
    let fine = gen::mapped(600, 40, SEEDS[0]);
    let ml = MultilevelConfig::new()
        .with_min_cells(48)
        .with_max_levels(2);
    let coarse = build_chain(&fine, &ml, ReplicationMode::None, SEEDS[0])
        .pop()
        .expect("coarsening engages")
        .hg;
    for (label, hg) in [("hub", &hub), ("coarse", &coarse)] {
        for seed in SEEDS {
            for mode in [
                ReplicationMode::None,
                ReplicationMode::Traditional,
                ReplicationMode::functional(0),
            ] {
                let case = format!("{label} seed {seed} {mode:?}");
                let base = BipartitionConfig::equal(hg, 0.1)
                    .with_seed(seed)
                    .with_replication(mode);
                let (b, b_passes) = traced_run(
                    hg,
                    &base.clone().with_selection(SelectionStrategy::GainBuckets),
                );
                let (h, h_passes) =
                    traced_run(hg, &base.with_selection(SelectionStrategy::LazyHeap));
                assert_eq!(b.gain_repairs, 0, "{case}: buckets repaired");
                assert_eq!(h.gain_repairs, 0, "{case}: heap repaired");
                assert_eq!(b.placement, h.placement, "{case}: placements diverged");
                assert_eq!(
                    (b.cut, b.areas, b.replicated_cells),
                    (h.cut, h.areas, h.replicated_cells),
                    "{case}: results diverged"
                );
                let moves = |p: &[[u64; 4]]| p.iter().map(|f| [f[0], f[1]]).collect::<Vec<_>>();
                assert_eq!(
                    moves(&b_passes),
                    moves(&h_passes),
                    "{case}: move sequences diverged"
                );
                let sum = |p: &[[u64; 4]], i: usize| p.iter().map(|f| f[i]).sum::<u64>();
                assert!(sum(&b_passes, 3) > 0, "{case}: no changed net was pruned");
                assert_eq!(sum(&h_passes, 3), 0, "{case}: the heap never prunes");
                assert!(
                    sum(&b_passes, 2) < sum(&h_passes, 2),
                    "{case}: pruning must save gain-update work"
                );
            }
        }
    }
}
