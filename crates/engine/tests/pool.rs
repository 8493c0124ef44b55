//! The worker pool behind both portfolios, pinned where the other
//! engine suites do not reach: the perfect-incumbent prune (claim-time
//! skip plus the post-join discard) and the [`WorkerStats`] totals a
//! single worker reports under faults and a zero wall budget.

use netpart_core::{BipartitionConfig, Budget, FaultPlan, KWayConfig};
use netpart_engine::{portfolio_bipartition, portfolio_kway, WorkerStats};
use netpart_fpga::DeviceLibrary;
use netpart_hypergraph::{AdjacencyMatrix, CellKind, Hypergraph, HypergraphBuilder};
use netpart_netlist::{generate, GeneratorConfig};
use netpart_techmap::{map, MapperConfig};

/// Two disconnected rings of `m` unit-area cells each. Cell `i` of a
/// ring drives one net read by cells `i + 1` and `i + 3` of the same
/// ring, so the balanced min cut is 0 (one ring per side) while a
/// random start needs many moves to find it.
fn two_rings(m: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for ring in 0..2 {
        let cells: Vec<_> = (0..m)
            .map(|i| {
                b.add_cell(
                    format!("r{ring}c{i}"),
                    CellKind::logic(1),
                    2,
                    1,
                    AdjacencyMatrix::full(2, 1),
                )
            })
            .collect();
        for i in 0..m {
            let net = b.add_net(format!("r{ring}n{i}"));
            b.connect_output(net, cells[i], 0).expect("fresh net");
            b.connect_input(net, cells[(i + 1) % m], 0)
                .expect("fresh pin");
            b.connect_input(net, cells[(i + 3) % m], 1)
                .expect("fresh pin");
        }
    }
    b.finish().expect("every pin is connected")
}

/// The prune circuit and base seed: starts 0 and 1 settle at cut 12,
/// start 2 is the first to find the perfect (cut 0) split.
fn perfect_at_start_two() -> (Hypergraph, BipartitionConfig) {
    let hg = two_rings(16);
    let cfg = BipartitionConfig::equal(&hg, 0.15).with_seed(3);
    (hg, cfg)
}

#[test]
fn a_perfect_start_ends_the_recorded_set_at_every_jobs_level() {
    let (hg, cfg) = perfect_at_start_two();
    let n = 8;
    let reference = portfolio_bipartition(&hg, &cfg, n, 1).expect("jobs=1 runs");
    let cuts: Vec<_> = reference.results.iter().map(|s| s.result.cut).collect();
    assert_eq!(
        cuts,
        [12, 12, 0],
        "recorded set ends at the first cut-0 start"
    );
    assert_eq!(reference.best_start(), 2);
    assert_eq!(reference.degradation.requested, reference.results.len());
    assert_eq!(reference.degradation.completed, reference.results.len());
    // The lone worker ran starts 0..=2 and was pruned claiming start 3.
    let w = totals(&reference.workers);
    assert_eq!((w.0, w.3), (3, 1), "starts and cutoff hits at jobs=1");
    for jobs in [1, 2, 8] {
        let r = portfolio_bipartition(&hg, &cfg, n, jobs).expect("portfolio runs");
        assert_eq!(
            r.fingerprint(&hg),
            reference.fingerprint(&hg),
            "jobs={jobs} must record the same pruned set"
        );
        assert_eq!(r.degradation, reference.degradation, "jobs={jobs}");
        assert_eq!(r.degradation.requested, r.results.len(), "jobs={jobs}");
    }
}

fn mapped(gates: usize, seed: u64) -> Hypergraph {
    let nl = generate(&GeneratorConfig::new(gates).with_dff(10).with_seed(seed));
    map(&nl, &MapperConfig::xc3000())
        .expect("generator output maps cleanly")
        .to_hypergraph(&nl)
}

/// `(starts, passes, moves, cutoff_hits)` summed over every worker.
fn totals(workers: &[WorkerStats]) -> (usize, u64, u64, u64) {
    workers.iter().fold((0, 0, 0, 0), |(s, p, m, c), w| {
        (s + w.starts, p + w.passes, m + w.moves, c + w.cutoff_hits)
    })
}

/// The jobs=1 totals of one scenario; `None` pins a typed error.
type Totals = Option<(usize, u64, u64, u64)>;

/// The scenarios both portfolios are pinned under: a killed worker and a
/// panicking worker at every unit, then a zero wall budget.
fn scenarios(units: u64) -> Vec<(String, FaultPlan, Budget)> {
    let mut out = Vec::new();
    for k in 0..units {
        out.push((
            format!("kill_start({k})"),
            FaultPlan::none().kill_start(k),
            Budget::none(),
        ));
    }
    for k in 0..units {
        out.push((
            format!("panic_in_worker({k})"),
            FaultPlan::none().panic_in_worker(k),
            Budget::none(),
        ));
    }
    out.push(("wall_ms(0)".into(), FaultPlan::none(), Budget::wall_ms(0)));
    out
}

#[test]
fn bipartition_worker_totals_at_one_job_are_pinned() {
    let hg = mapped(200, 1);
    let n = 6;
    // Start 0 takes 6 FM passes and 852 moves, every later start 4 and
    // 568. A single worker stops for good at the killed or panicking
    // start, so index 0 leaves nothing to record (a typed error).
    let want: [Totals; 13] = [
        None,
        Some((1, 6, 852, 1)),
        Some((2, 10, 1420, 1)),
        Some((3, 14, 1988, 1)),
        Some((4, 18, 2556, 1)),
        Some((5, 22, 3124, 1)),
        None,
        Some((1, 6, 852, 1)),
        Some((2, 10, 1420, 1)),
        Some((3, 14, 1988, 1)),
        Some((4, 18, 2556, 1)),
        Some((5, 22, 3124, 1)),
        // The guaranteed first start, then the deadline skip.
        Some((1, 6, 852, 1)),
    ];
    for ((label, fault, budget), want) in scenarios(n as u64).into_iter().zip(want) {
        let cfg = BipartitionConfig::equal(&hg, 0.1)
            .with_seed(4)
            .with_fault(fault)
            .with_budget(budget);
        let got = portfolio_bipartition(&hg, &cfg, n, 1)
            .ok()
            .map(|r| totals(&r.workers));
        assert_eq!(got, want, "bipartition {label}: WorkerStats totals");
    }
}

#[test]
fn kway_worker_totals_at_one_job_are_pinned() {
    let hg = mapped(800, 7);
    let tasks = 3;
    // Task 0 applies 2904 carve moves, task 1 another 5788; a k-way
    // task reports no FM passes to the pool.
    let want: [Totals; 7] = [
        None,
        Some((1, 0, 2904, 1)),
        Some((2, 0, 8692, 1)),
        None,
        Some((1, 0, 2904, 1)),
        Some((2, 0, 8692, 1)),
        Some((1, 0, 2904, 1)),
    ];
    for ((label, fault, budget), want) in scenarios(tasks as u64).into_iter().zip(want) {
        let cfg = KWayConfig::new(DeviceLibrary::xc3000())
            .with_candidates(3)
            .with_seed(1)
            .with_max_passes(6)
            .with_fault(fault)
            .with_budget(budget);
        let got = portfolio_kway(&hg, &cfg, tasks, 1)
            .ok()
            .map(|r| totals(&r.workers));
        assert_eq!(got, want, "kway {label}: WorkerStats totals");
    }
}
