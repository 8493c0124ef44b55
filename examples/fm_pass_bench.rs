//! Measures the FM selection-structure rewrite: the same seeded
//! bipartition runs under the incremental `GainBuckets` ladder (the
//! default) and the retained `LazyHeap` baseline, timed per strategy
//! across a small circuit suite.
//!
//! ```text
//! cargo run --release --example fm_pass_bench [reps]
//! ```
//!
//! This is the source of the README "Performance" numbers; re-run it
//! on your own hardware. Besides the table, the run is archived as
//! `BENCH_fm.json` in the current directory — a metrics snapshot with
//! per-size wall times for both strategies and the per-pass averages
//! (`pass_ms_*` gauges, the series `scripts/perf_gate.sh` regresses
//! against).
//!
//! After the strategy table, a single flat `GainBuckets` run times the
//! 100k-gate Rent-rule synthetic (`rent100k_*` fields) — the circuit
//! the CSR hot path is sized for. The `LazyHeap` baseline is omitted
//! there: it is a minutes-not-seconds detour that the small-size
//! speedup column already characterizes.
//!
//! Both strategies must finish every run with `gain_repairs == 0`
//! (the incremental updates are exact); the example asserts it.
//!
//! The last leg times one k-way run (`kway_*` fields): the Table II
//! `s38584` stand-in at 1/3 scale, carved onto XC3000 with functional
//! replication at T = 1. Its `pass_ms_kway_suite` series is the wall
//! time of the whole `kway_partition` per FM pass, so it covers the
//! replicating gain kernel together with the carve path (fit checks,
//! extraction) around the many short device-window passes.

use netpart::core::{kway_partition_with_clock, RunClock};
use netpart::prelude::*;
use netpart::report::{f2, Table};
use std::time::Instant;

const SIZES: &[usize] = &[800, 1500, 3000];

/// Gate count and Rent exponent of the large-circuit leg. The recipe
/// (dff fraction, p, generator seed) matches `multilevel_bench`, so
/// `rent100k_ms` is directly comparable to that archive's
/// `flat_ms_100000` series across engine revisions.
const RENT_GATES: usize = 100_000;
const RENT_P: f64 = 0.65;

/// The k-way leg's circuit: a Table II stand-in and its scale-down.
const KWAY_CIRCUIT: (&str, usize) = ("s38584", 3);

fn circuit(gates: usize) -> Result<Hypergraph, Box<dyn std::error::Error>> {
    let nl = generate(
        &GeneratorConfig::new(gates)
            .with_dff(gates / 10)
            .with_seed(42),
    );
    Ok(map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl))
}

fn time_strategy(
    hg: &Hypergraph,
    strategy: SelectionStrategy,
    reps: usize,
) -> (f64, usize, usize) {
    let cfg = BipartitionConfig::equal(hg, 0.1)
        .with_seed(1)
        .with_replication(ReplicationMode::functional(0))
        .with_selection(strategy);
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = netpart::core::bipartition(hg, &cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            r.gain_repairs, 0,
            "{strategy:?}: incremental gains diverged from realized deltas"
        );
        assert!(r.balanced, "{strategy:?}: unbalanced result");
        best_ms = best_ms.min(ms);
        last = Some(r);
    }
    let r = last.expect("reps >= 1");
    (best_ms, r.cut, r.passes)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let reps: usize = args.next().map_or(Ok(3), |a| a.parse())?;

    let mut t = Table::new(
        "FM pass selection: heap baseline vs incremental gain buckets",
        &[
            "gates", "CLBs", "heap (ms)", "buckets (ms)", "speedup", "cut h/b", "passes h/b",
        ],
    );
    let mut snap = MetricsSnapshot::new();
    snap.set_meta("bench", "fm_pass_bench");
    snap.set_meta("seed", "1");
    snap.set_meta("reps", reps.to_string());

    for &gates in SIZES {
        let hg = circuit(gates)?;
        let clbs = hg.stats().clbs;
        let (heap_ms, heap_cut, heap_passes) = time_strategy(&hg, SelectionStrategy::LazyHeap, reps);
        let (bkt_ms, bkt_cut, bkt_passes) = time_strategy(&hg, SelectionStrategy::GainBuckets, reps);
        snap.set_timing(&format!("heap_ms_{gates}"), heap_ms as u64);
        snap.set_timing(&format!("buckets_ms_{gates}"), bkt_ms as u64);
        snap.set_gauge(&format!("cut_buckets_{gates}"), bkt_cut as f64);
        snap.set_gauge(&format!("cut_heap_{gates}"), heap_cut as f64);
        snap.set_gauge(&format!("speedup_{gates}"), heap_ms / bkt_ms);
        snap.set_gauge(&format!("pass_ms_heap_{gates}"), heap_ms / heap_passes as f64);
        snap.set_gauge(&format!("pass_ms_buckets_{gates}"), bkt_ms / bkt_passes as f64);
        t.row([
            gates.to_string(),
            clbs.to_string(),
            f2(heap_ms),
            f2(bkt_ms),
            format!("{}x", f2(heap_ms / bkt_ms)),
            format!("{heap_cut}/{bkt_cut}"),
            format!("{heap_passes}/{bkt_passes}"),
        ]);
    }
    println!("{t}");
    println!("(both strategies: gain_repairs == 0 on every run)");

    // Large-circuit leg: flat FM over the 100k-gate Rent synthetic,
    // single rep (the pass count is high enough that best-of-reps adds
    // nothing but wall time), replication off to match the flat series
    // in `BENCH_multilevel.json`.
    let nl = generate(
        &GeneratorConfig::new(RENT_GATES)
            .with_dff(RENT_GATES / 20)
            .with_rent(RENT_P)
            .with_seed(42),
    );
    let hg = map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl);
    let cfg = BipartitionConfig::equal(&hg, 0.1)
        .with_seed(1)
        .with_replication(ReplicationMode::None);
    let t0 = Instant::now();
    let r = netpart::core::bipartition(&hg, &cfg);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(r.gain_repairs, 0, "rent100k: incremental gains diverged");
    assert!(r.balanced, "rent100k: unbalanced result");
    let pass_ms = ms / r.passes as f64;
    println!();
    println!(
        "rent synthetic, {} gates ({} CLBs, p = {RENT_P}): cut {} in {} passes, \
         {} ms total, {} ms/pass",
        RENT_GATES,
        hg.stats().clbs,
        r.cut,
        r.passes,
        f2(ms),
        f2(pass_ms),
    );
    snap.set_timing("rent100k_ms", ms as u64);
    snap.set_gauge("rent100k_pass_ms", pass_ms);
    snap.set_gauge("rent100k_cut", r.cut as f64);
    snap.set_gauge("rent100k_passes", r.passes as f64);

    // k-way leg: one suite-scale `kway_partition`, best of `reps`.
    let (name, scale) = KWAY_CIRCUIT;
    let nl = bench_suite::build_scaled(name, scale).expect("suite circuit");
    let hg = map(&nl, &MapperConfig::xc3000())?.to_hypergraph(&nl);
    let cfg = KWayConfig::new(DeviceLibrary::xc3000())
        .with_candidates(3)
        .with_seed(1)
        .with_max_passes(8)
        .with_replication(ReplicationMode::functional(1));
    let mut best_ms = f64::INFINITY;
    let mut kway = None;
    for _ in 0..reps {
        let clock = RunClock::new(&Budget::none(), &FaultPlan::none());
        let t0 = Instant::now();
        let r = kway_partition_with_clock(&hg, &cfg, &clock)?;
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert!(r.evaluation.feasible, "kway: infeasible result");
        kway = Some((r, clock.passes()));
    }
    let (r, passes) = kway.expect("reps >= 1");
    let pass_ms = best_ms / passes as f64;
    println!(
        "k-way, {name}/{scale} ({} CLBs, functional T = 1): {} devices, ${} in {passes} \
         passes, {} ms total, {} ms/pass",
        hg.stats().clbs,
        r.devices.len(),
        r.evaluation.total_cost,
        f2(best_ms),
        f2(pass_ms),
    );
    snap.set_timing("kway_ms", best_ms as u64);
    snap.set_gauge("pass_ms_kway_suite", pass_ms);
    snap.set_gauge("kway_passes", passes as f64);
    snap.set_gauge("kway_cost", r.evaluation.total_cost as f64);

    std::fs::write("BENCH_fm.json", snap.to_json())?;
    println!("archived to BENCH_fm.json");
    Ok(())
}
