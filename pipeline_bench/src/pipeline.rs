//! The workloads and the pipeline one operation runs:
//! BLIF text → parse/validate → decompose/map/to_hypergraph → partition
//! → certificate text → certificate parse → re-ingest → verify.
//!
//! Every stage is one call into a crate's public API, timed from
//! outside. The verifier, not the partitioner, is the reference: an
//! operation fails when the partition call errs, the result is
//! unbalanced or infeasible, or the certificate is rejected or
//! re-derives a different cut or cost.

use crate::trace::Tracer;
use netpart::core::{kway_partition_with_clock, FaultPlan, RunClock};
use netpart::netlist::bench_suite::SPECS;
use netpart::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed that reproduces the circuits the workloads are named after:
/// `synth 100000 --dff 5000 --rent 0.65 --seed 42` and the suite's
/// published generator seeds.
pub const DEFAULT_SEED: u64 = 42;

/// Partitioner seed (the CLI default); the workload seed only re-draws
/// circuits.
const PARTITION_SEED: u64 = 1;
/// Area balance tolerance of the bipartition workloads.
const EPSILON: f64 = 0.1;
/// Starts per circuit in `suite_fr_portfolio`.
pub const FR_STARTS: usize = 8;
/// Worker threads of `suite_fr_portfolio`.
pub const FR_JOBS: usize = 2;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100k-gate Rent circuit, multilevel bipartition.
    Rent100kMl,
    /// The nine suite circuits, functional-replication portfolio.
    SuiteFrPortfolio,
    /// The nine suite circuits at 1/3 scale, k-way on XC3000, routed.
    SuiteKwayCost,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Rent100kMl,
        Workload::SuiteFrPortfolio,
        Workload::SuiteKwayCost,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rent100kMl => "rent100k_ml",
            Workload::SuiteFrPortfolio => "suite_fr_portfolio",
            Workload::SuiteKwayCost => "suite_kway_cost",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One generated input circuit, as the program sees it.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// Circuit name.
    pub name: String,
    /// BLIF text.
    pub blif: String,
}

/// Generates a workload's circuits from `seed`. `smoke` shrinks every
/// circuit so a whole run takes seconds.
pub fn inputs(w: Workload, seed: u64, smoke: bool) -> Vec<Circuit> {
    match w {
        Workload::Rent100kMl => {
            let gates = if smoke { 10_000 } else { 100_000 };
            let cfg = GeneratorConfig::new(gates)
                .with_dff(gates / 20)
                .with_seed(seed)
                .with_rent(0.65);
            let nl = generate(&cfg);
            vec![Circuit {
                name: format!("rent{gates}"),
                blif: write_blif(&nl),
            }]
        }
        Workload::SuiteFrPortfolio => suite(seed, if smoke { 20 } else { 1 }),
        Workload::SuiteKwayCost => suite(seed, if smoke { 30 } else { 3 }),
    }
}

/// The nine Table II stand-ins at `1/scale_down` of their gate count
/// (the proportions of `bench_suite::build_scaled`), each generator seed
/// shifted by `seed - DEFAULT_SEED`.
fn suite(seed: u64, scale_down: usize) -> Vec<Circuit> {
    SPECS
        .iter()
        .map(|s| {
            let d = scale_down;
            let cfg = GeneratorConfig::new((s.gates / d).max(32))
                .with_pi((s.pi / d).max(4))
                .with_po((s.po / d).max(2))
                .with_dff(s.dff / d)
                .with_clustering(s.clustering)
                .with_seed(s.seed.wrapping_add(seed).wrapping_sub(DEFAULT_SEED));
            let mut nl = generate(&cfg);
            let name = if d == 1 {
                s.name.to_string()
            } else {
                format!("{}_div{d}", s.name)
            };
            nl.set_name(name.clone());
            Circuit {
                name,
                blif: write_blif(&nl),
            }
        })
        .collect()
}

/// Times the layer calls of one operation and, when tracing, mirrors
/// each as a span.
#[derive(Debug)]
pub struct Stages<'a> {
    tracer: Option<&'a Tracer>,
    /// Summed duration per stage name.
    pub times: BTreeMap<&'static str, Duration>,
}

impl<'a> Stages<'a> {
    fn new(tracer: Option<&'a Tracer>) -> Self {
        Stages {
            tracer,
            times: BTreeMap::new(),
        }
    }

    /// Runs `f` as stage `name`.
    fn run<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if let Some(t) = self.tracer {
            t.enter(name);
        }
        let t0 = Instant::now();
        let out = f(self);
        let d = t0.elapsed();
        if let Some(t) = self.tracer {
            t.exit(name);
        }
        *self.times.entry(name).or_default() += d;
        out
    }
}

/// What one pipeline operation measured.
#[derive(Debug)]
pub struct OpOutcome {
    /// Circuit name.
    pub circuit: String,
    /// Wall time from BLIF text to a verified certificate.
    pub wall: Duration,
    /// Per-stage durations.
    pub times: BTreeMap<&'static str, Duration>,
    /// Deterministic results and work counts: equal on every repetition.
    pub det: BTreeMap<&'static str, u64>,
    /// Scheduling-dependent engine figures (ms, worker count).
    pub engine: EngineFigures,
    /// Why the operation failed, if it did.
    pub failure: Option<String>,
}

/// Portfolio-engine figures of one operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineFigures {
    /// Portfolio wall time, ms.
    pub wall_ms: f64,
    /// Σ worker time inside starts, ms.
    pub busy_ms: f64,
    /// Worker threads.
    pub jobs: usize,
    /// Early stops (deadline, cancellation, incumbent cutoff).
    pub cutoff_hits: u64,
}

/// Runs the whole pipeline on one circuit. With a tracer the program's
/// events are recorded too; the computation is the same.
pub fn run_op(w: Workload, c: &Circuit, tracer: Option<&Arc<Tracer>>) -> OpOutcome {
    let mut stages = Stages::new(tracer.map(|t| &**t));
    let mut det = BTreeMap::new();
    let mut engine = EngineFigures::default();
    let t0 = Instant::now();
    let failure = stages
        .run("op", |st| pipeline(w, c, tracer, st, &mut det, &mut engine))
        .err();
    let wall = t0.elapsed();
    OpOutcome {
        circuit: c.name.clone(),
        wall,
        times: stages.times,
        det,
        engine,
        failure,
    }
}

/// A partition, certified but not yet checked.
struct Certified {
    cert: SolutionCertificate,
    cut: usize,
    cost: Option<u64>,
}

fn pipeline(
    w: Workload,
    c: &Circuit,
    tracer: Option<&Arc<Tracer>>,
    st: &mut Stages<'_>,
    det: &mut BTreeMap<&'static str, u64>,
    engine: &mut EngineFigures,
) -> Result<(), String> {
    let (hg, gates) = st.run("setup", |st| ingest(st, &c.blif))?;
    let stats = hg.stats();
    det.insert("netlist.gates", gates as u64);
    det.insert("techmap.clbs", u64::from(stats.clbs));
    det.insert("techmap.nets", u64::from(stats.nets));
    det.insert("techmap.pins", u64::from(stats.pins));
    let recorder = tracer.map(|t| Arc::clone(t) as Arc<dyn Recorder>);
    let certified = st.run("partition", |st| match w {
        Workload::Rent100kMl => {
            let engine_cfg = Engine::new(1).with_multilevel(Some(MultilevelConfig::new()));
            let cfg = BipartitionConfig::equal(&hg, EPSILON)
                .with_seed(PARTITION_SEED)
                .with_replication(ReplicationMode::None);
            portfolio(st, &hg, engine_cfg, recorder, &cfg, 1, det, engine)
        }
        Workload::SuiteFrPortfolio => {
            let cfg = fr_config(&hg);
            portfolio(
                st,
                &hg,
                Engine::new(FR_JOBS),
                recorder,
                &cfg,
                FR_STARTS,
                det,
                engine,
            )
        }
        Workload::SuiteKwayCost => kway(st, &hg, recorder, det),
    })?;
    let Certified { cert, cut, cost } = certified;
    let text = st.run("verify.write", move |_| {
        // The partitioned circuit is freed inside a stage, not between.
        drop(hg);
        cert.with_source(c.name.as_str()).to_text()
    });
    det.insert("verify.cert_bytes", text.len() as u64);
    let report = st.run("verify", |st| {
        let cert = st
            .run("verify.parse", |_| SolutionCertificate::parse(&text))
            .map_err(|e| format!("certificate does not parse: {e}"))?;
        let (hg, _) = st.run("verify.reingest", |st| ingest(st, &c.blif))?;
        Ok::<_, String>(st.run("verify.check", |_| verify(&hg, &cert)))
    })?;
    if !report.is_clean() {
        let codes: Vec<&str> = report.violations().iter().map(|v| v.code()).collect();
        return Err(format!("certificate rejected: {}", codes.join(", ")));
    }
    let re = report.recomputed();
    if re.cut != cut {
        return Err(format!(
            "verifier re-derived cut {} but the partitioner reported {cut}",
            re.cut
        ));
    }
    if re.total_cost != cost {
        return Err(format!(
            "verifier re-derived cost {:?} but the partitioner reported {cost:?}",
            re.total_cost
        ));
    }
    det.insert("cut", cut as u64);
    Ok(())
}

/// BLIF text → partition-ready hypergraph, as every `netpart` command
/// loads its input. Returns the hypergraph and the gate count.
fn ingest(st: &mut Stages<'_>, blif: &str) -> Result<(Hypergraph, usize), String> {
    let nl = st
        .run("netlist.parse", |_| parse_blif(blif))
        .map_err(|e| format!("BLIF parse: {e}"))?;
    st.run("netlist.validate", |_| nl.validate())
        .map_err(|e| format!("netlist invalid: {e}"))?;
    let gates = nl.n_gates();
    let nl = st.run("techmap.decompose", |_| decompose_wide_gates(&nl, 5));
    let mapped = st
        .run("techmap.map", |_| map(&nl, &MapperConfig::xc3000()))
        .map_err(|e| format!("techmap: {e}"))?;
    let hg = st.run("techmap.to_hypergraph", |_| mapped.to_hypergraph(&nl));
    Ok((hg, gates))
}

/// The `suite_fr_portfolio` configuration: functional replication at
/// T = 0, ε = 0.1, partitioner seed 1.
pub fn fr_config(hg: &Hypergraph) -> BipartitionConfig {
    BipartitionConfig::equal(hg, EPSILON)
        .with_seed(PARTITION_SEED)
        .with_replication(ReplicationMode::functional(0))
}

#[allow(clippy::too_many_arguments)]
fn portfolio(
    st: &mut Stages<'_>,
    hg: &Hypergraph,
    engine_cfg: Engine,
    recorder: Option<Arc<dyn Recorder>>,
    cfg: &BipartitionConfig,
    starts: usize,
    det: &mut BTreeMap<&'static str, u64>,
    engine: &mut EngineFigures,
) -> Result<Certified, String> {
    let eng = match recorder {
        Some(r) => engine_cfg.with_recorder(r),
        None => engine_cfg,
    };
    let (res, _) = st
        .run("engine.bipartition_many", |_| {
            eng.bipartition_many(hg, cfg, starts)
        })
        .map_err(|e| format!("bipartition: {e}"))?;
    let best = res.best();
    if !best.balanced {
        return Err(format!("unbalanced best start: areas {:?}", best.areas));
    }
    det.insert(
        "core.passes",
        res.results.iter().map(|s| s.result.passes as u64).sum(),
    );
    det.insert("core.moves", res.workers.iter().map(|w| w.moves).sum());
    det.insert("core.replicated_cells", best.replicated_cells as u64);
    det.insert(
        "engine.starts",
        res.workers.iter().map(|w| w.starts as u64).sum(),
    );
    *engine = EngineFigures {
        wall_ms: res.wall.as_secs_f64() * 1e3,
        busy_ms: res.workers.iter().map(|w| w.wall_ms as f64).sum(),
        jobs: eng.jobs(),
        cutoff_hits: res.workers.iter().map(|w| w.cutoff_hits).sum(),
    };
    let cert = res
        .certificate(hg, cfg)
        .ok_or("the winning start exported no placement")?;
    Ok(Certified {
        cert,
        cut: best.cut,
        cost: None,
    })
}

fn kway(
    st: &mut Stages<'_>,
    hg: &Hypergraph,
    recorder: Option<Arc<dyn Recorder>>,
    det: &mut BTreeMap<&'static str, u64>,
) -> Result<Certified, String> {
    let lib = DeviceLibrary::xc3000();
    let cfg = KWayConfig::new(lib.clone())
        .with_candidates(3)
        .with_seed(PARTITION_SEED)
        .with_max_passes(8)
        .with_replication(ReplicationMode::functional(1));
    let clock = RunClock::new(&Budget::none(), &FaultPlan::none());
    let clock = match recorder {
        Some(r) => clock.with_recorder(r),
        None => clock,
    };
    let res = st
        .run("kway.partition", |_| {
            kway_partition_with_clock(hg, &cfg, &clock)
        })
        .map_err(|e| format!("kway: {e}"))?;
    if !res.evaluation.feasible {
        return Err("k-way result is infeasible".into());
    }
    let (claim, objective) = st.run("board.route", |_| route(hg, &res.placement))?;
    let eval = &res.evaluation;
    det.insert("core.passes", clock.passes());
    det.insert("core.moves", clock.moves());
    det.insert(
        "core.replicated_cells",
        res.placement.replicated_cell_count() as u64,
    );
    det.insert("kway.attempts", res.attempts as u64);
    det.insert("kway.feasible", res.feasible_found as u64);
    det.insert("kway.k", res.devices.len() as u64);
    det.insert("kway.degraded", u64::from(res.degradation.is_degraded()));
    det.insert("kway.device_cost", eval.total_cost);
    det.insert("kway.iob_util_bits", eval.avg_iob_util.to_bits());
    det.insert("board.routed_nets", objective.routed_nets as u64);
    det.insert("board.hops", objective.hops);
    det.insert("board.congestion", objective.congestion);
    let cert = res.certificate(hg, &lib, PARTITION_SEED).with_board(
        claim,
        objective.hops,
        objective.congestion,
    );
    Ok(Certified {
        cert,
        cut: res.placement.cut_size(hg),
        cost: Some(eval.total_cost),
    })
}

/// Routes the cut nets over a star board with one leaf per used part.
fn route(
    hg: &Hypergraph,
    placement: &Placement,
) -> Result<(BoardClaim, TopologyObjective), String> {
    let used = placement
        .part_areas(hg)
        .iter()
        .rposition(|&a| a > 0)
        .map_or(0, |last| last + 1);
    let board = Board::star(used.max(2));
    let demands = board_demands(hg, placement, &board).map_err(|e| format!("board: {e}"))?;
    let routing = route_nets(&board, &demands).map_err(|e| format!("route: {e}"))?;
    let objective = TopologyObjective::evaluate(&board, &routing);
    Ok((board_claim(&board, &routing), objective))
}
