//! The benchmark's own tests, on reduced-size circuits (`--smoke`).

use netpart::netlist::bench_suite;
use netpart::prelude::*;
use pipeline_bench::metrics::{END_TO_END, PER_LAYER};
use pipeline_bench::pipeline::{fr_config, inputs, Workload, DEFAULT_SEED, FR_STARTS};
use pipeline_bench::trace::{from_jsonl, self_times, to_jsonl, SpanRecord};
use pipeline_bench::{run, RunSpec};

fn smoke(workload: Workload, trace: bool) -> RunSpec {
    RunSpec {
        workload,
        seed: DEFAULT_SEED,
        pin_circuits: false,
        seconds: 0.0,
        trace,
        smoke: true,
        span_dir: None,
    }
}

#[test]
fn every_workload_verifies_and_repeats_exactly() {
    for w in Workload::ALL {
        let r = run(&smoke(w, false)).expect("untraced run");
        assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
        assert!(r.attempted > 0);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(
            r.metrics.iter().all(|m| m.2 > 0.0),
            "{}: {:?}",
            w.name(),
            r.metrics
        );
        assert!(r.json().starts_with("{\"correct\": true"));
    }
}

#[test]
fn traced_run_reports_every_layer_and_attributes_the_wall_time() {
    for w in Workload::ALL {
        // Traced and untraced rounds alternate in one run, so this also
        // checks that tracing changes no deterministic figure.
        let r = run(&smoke(w, true)).expect("traced run");
        assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
        assert!(r.rounds.iter().any(|r| r.traced) && r.rounds.iter().any(|r| !r.traced));
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).expect(n).2;
        assert!(get("obs.attributed_ratio") > 0.95, "{}", r.text);
        assert!(get("core.fm_passes") > 0.0);
        assert!(get("techmap.clbs") > 0.0);
        match w {
            Workload::Rent100kMl => assert!(get("multilevel.levels_kept") > 0.0),
            Workload::SuiteFrPortfolio => assert!(get("engine.busy_ms") > 0.0),
            Workload::SuiteKwayCost => assert!(get("kway.device_cost") > 0.0),
        }
    }
}

#[test]
fn fr_portfolio_is_identical_at_one_and_two_jobs() {
    for c in inputs(Workload::SuiteFrPortfolio, DEFAULT_SEED, true) {
        let nl = parse_blif(&c.blif).expect("generated BLIF parses");
        let nl = decompose_wide_gates(&nl, 5);
        let hg = map(&nl, &MapperConfig::xc3000())
            .expect("suite maps")
            .to_hypergraph(&nl);
        let cfg = fr_config(&hg);
        let print = |jobs| {
            let (res, _) = Engine::new(jobs)
                .bipartition_many(&hg, &cfg, FR_STARTS)
                .expect("portfolio");
            res.fingerprint(&hg)
        };
        assert_eq!(print(1), print(2), "{}", c.name);
    }
}

#[test]
fn default_seed_reproduces_the_suite_and_other_seeds_redraw_it() {
    let default = inputs(Workload::SuiteFrPortfolio, DEFAULT_SEED, false);
    for (c, name) in default.iter().zip(bench_suite::names()) {
        let published = bench_suite::build(name).expect("suite circuit");
        assert_eq!(c.blif, write_blif(&published), "{name}");
    }
    let other = inputs(Workload::SuiteFrPortfolio, DEFAULT_SEED + 1, false);
    assert!(default.iter().zip(&other).all(|(a, b)| a.blif != b.blif));
    let rent = |seed| inputs(Workload::Rent100kMl, seed, true).remove(0).blif;
    assert_eq!(rent(7), rent(7));
    assert_ne!(rent(7), rent(8));
}

fn span(
    id: u64,
    parent: Option<u64>,
    name: &str,
    interval: Option<(u64, u64)>,
    dur: u64,
) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        op: 0,
        name: name.into(),
        interval,
        dur_us: dur,
    }
}

#[test]
fn self_time_subtracts_children_and_survives_the_span_file() {
    let spans = vec![
        span(0, None, "op", Some((0, 100)), 100),
        // Overlapping timed children cover their union, 10..60.
        span(1, Some(0), "setup", Some((10, 50)), 40),
        span(2, Some(0), "partition", Some((30, 60)), 30),
        // Untimed (replayed) children cover their summed duration.
        span(3, Some(2), "fm/pass", None, 12),
        span(4, Some(2), "fm/pass", None, 8),
        // Parallel workers can report more than the parent's wall time.
        span(5, Some(1), "fm/pass", None, 70),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&0], 50);
    assert_eq!(selfs[&1], 0);
    assert_eq!(selfs[&2], 10);
    assert_eq!(selfs[&3], 12);
    assert_eq!(from_jsonl(&to_jsonl(&spans)).expect("round trip"), spans);
}
