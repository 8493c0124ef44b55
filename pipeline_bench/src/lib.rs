//! End-to-end benchmark of `netpart`: BLIF text to a verified solution
//! certificate, one workload per invocation, with per-layer attribution
//! from a separate traced run. See `README.md` for the workloads and
//! what each layer metric should move.

pub mod metrics;
pub mod pipeline;
pub mod trace;

use metrics::{median, tail, Round, END_TO_END, PER_LAYER};
use pipeline::{inputs, run_op, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use trace::{from_jsonl, self_time_table, self_times, to_jsonl, Tracer};

/// What one invocation asks for.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Seed the circuits are drawn from.
    pub seed: u64,
    /// Draw the circuits from `DEFAULT_SEED` whatever `seed` says (the
    /// seed is still recorded).
    pub pin_circuits: bool,
    /// Measuring time; whole rounds run until the next would overrun it.
    pub seconds: f64,
    /// Report per-layer metrics from traced rounds instead of
    /// end-to-end ones.
    pub trace: bool,
    /// Shrink every circuit (for the benchmark's own tests).
    pub smoke: bool,
    /// Where the traced run writes its span file.
    pub span_dir: Option<std::path::PathBuf>,
}

/// The outcome of one invocation.
#[derive(Debug)]
pub struct RunReport {
    /// Pipeline operations attempted.
    pub attempted: usize,
    /// Operations that failed: an error, an unbalanced or infeasible
    /// result, or a rejected certificate.
    pub failed: usize,
    /// Every failure and determinism or tracing error, one line each.
    pub errors: Vec<String>,
    /// `(name, unit, value)` of the reported metrics, in definition order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable tables.
    pub text: String,
    /// The measured rounds.
    pub rounds: Vec<Round>,
}

impl RunReport {
    /// Whether every operation succeeded and repeated exactly.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Rounds to run at least: an untraced run reports medians of three,
/// a traced run alternates untraced and traced rounds, two of each.
fn min_rounds(trace: bool) -> usize {
    if trace {
        4
    } else {
        3
    }
}

/// Runs one workload: generates its circuits (set-up, not measured),
/// then whole rounds over them until `seconds` would be overrun.
pub fn run(spec: &RunSpec) -> Result<RunReport, String> {
    let circuit_seed = if spec.pin_circuits {
        DEFAULT_SEED
    } else {
        spec.seed
    };
    let circuits = inputs(spec.workload, circuit_seed, spec.smoke);
    let tracer = Arc::new(Tracer::default());
    let mut rounds: Vec<Round> = Vec::new();
    let mut next_op = 0u64;
    let t0 = Instant::now();
    loop {
        let traced = spec.trace && rounds.len() % 2 == 1;
        let r0 = Instant::now();
        let mut ops = Vec::with_capacity(circuits.len());
        for c in &circuits {
            let id = next_op;
            next_op += 1;
            let out = if traced {
                tracer.begin_op(id);
                let mut out = run_op(spec.workload, c, Some(&tracer));
                let n = tracer.counts();
                for (k, v) in [
                    ("trace.fm_passes", n.fm_passes),
                    ("trace.fm_selects", n.fm_selects),
                    ("trace.fm_applied", n.fm_applied),
                    ("trace.fm_kept", n.fm_kept),
                    ("trace.fm_repairs", n.fm_repairs),
                    ("trace.levels_built", n.levels_built),
                    ("trace.levels_kept", n.levels_kept),
                    ("trace.coarsest_cells", n.coarsest_cells),
                    ("trace.coarsest_nets", n.coarsest_nets),
                    ("trace.kway_attempts", n.kway_attempts),
                    ("trace.kway_feasible", n.kway_feasible),
                ] {
                    out.det.insert(k, v);
                }
                out
            } else {
                run_op(spec.workload, c, None)
            };
            ops.push((id, out));
        }
        rounds.push(Round {
            traced,
            wall: r0.elapsed(),
            ops,
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let per_round = elapsed / rounds.len() as f64;
        if rounds.len() >= min_rounds(spec.trace) && elapsed + per_round > spec.seconds {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb()?;
    report(spec, rounds, &tracer, peak_rss_mb)
}

fn report(
    spec: &RunSpec,
    rounds: Vec<Round>,
    tracer: &Tracer,
    peak_rss_mb: f64,
) -> Result<RunReport, String> {
    let mut errors = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for r in &rounds {
        for (_, o) in &r.ops {
            attempted += 1;
            if let Some(f) = &o.failure {
                failed += 1;
                errors.push(format!("{}: {f}", o.circuit));
            }
        }
    }
    errors.extend(determinism_errors(&rounds));
    errors.extend(tracer.errors());

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload {} seed {} (circuits from seed {}{}) | rounds {} untraced, {} traced | {} circuits | {} hardware threads",
        spec.workload.name(),
        spec.seed,
        if spec.pin_circuits { DEFAULT_SEED } else { spec.seed },
        if spec.smoke { ", smoke size" } else { "" },
        untraced.len(),
        traced.len(),
        rounds.first().map_or(0, |r| r.ops.len()),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let rows = end_to_end_samples(&untraced, peak_rss_mb, attempted, failed);
    text.push_str(&end_to_end_table(&rows));

    let metrics = if spec.trace {
        let spans = tracer.spans();
        let spans = match &spec.span_dir {
            // Write the spans out, then attribute from the file.
            Some(dir) => {
                let path = dir.join(format!(
                    "spans-{}-seed{}.jsonl",
                    spec.workload.name(),
                    spec.seed
                ));
                write_file(&path, &to_jsonl(&spans))?;
                let _ = writeln!(text, "spans written to {}", path.display());
                let read = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                from_jsonl(&read)?
            }
            None => spans,
        };
        let selfs = self_times(&spans);
        let wall_us: u64 = traced.iter().map(|r| r.wall.as_micros() as u64).sum();
        let _ = writeln!(text, "\nself time per span over the traced rounds");
        text.push_str(&self_time_table(&spans, &selfs, wall_us));
        let per_round: Vec<BTreeMap<&str, f64>> =
            traced.iter().map(|r| r.per_layer(&spans, &selfs)).collect();
        let totals = |rs: &[&Round]| median(&rs.iter().map(|r| r.total_s()).collect::<Vec<_>>());
        let overhead = totals(&traced) / totals(&untraced) - 1.0;
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                let v = if m.name == "obs.trace_overhead" {
                    overhead
                } else {
                    median(&per_round.iter().map(|r| r[m.name]).collect::<Vec<_>>())
                };
                (m.name, m.unit, v)
            })
            .collect();
        let _ = writeln!(
            text,
            "\nper-layer metrics (median of {} traced rounds)",
            traced.len()
        );
        for (n, u, v) in &metrics {
            let _ = writeln!(text, "  {n:<28} {v:>16.4} {u}");
        }
        metrics
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let xs = rows
                    .iter()
                    .find(|r| r.0 == m.name)
                    .and_then(|r| r.2.as_ref());
                (m.name, m.unit, xs.map_or(f64::NAN, |xs| median(xs)))
            })
            .collect()
    };
    for e in &errors {
        let _ = writeln!(text, "error: {e}");
    }
    Ok(RunReport {
        attempted,
        failed,
        errors,
        metrics,
        text,
        rounds,
    })
}

type Samples = (&'static str, &'static str, Option<Vec<f64>>);

/// Every end-to-end metric with its unit and its samples, one per
/// untraced round; `None` where the workload has no such figure. The
/// set-up time is sampled twice a round: the pipeline's own ingest and
/// the verifier's re-ingest run the same calls on the same text.
fn end_to_end_samples(
    rounds: &[&Round],
    peak_rss_mb: f64,
    attempted: usize,
    failed: usize,
) -> Vec<Samples> {
    let col = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let kway = rounds
        .first()
        .is_some_and(|r| r.ops.iter().any(|(_, o)| o.det.contains_key("kway.k")));
    let mut setups = col(&|r| r.stage_s("setup"));
    setups.extend(col(&|r| r.stage_s("verify.reingest")));
    vec![
        ("setup_s", "s", Some(setups)),
        ("partition_s", "s", Some(col(&|r| r.stage_s("partition")))),
        ("verify_s", "s", Some(col(&|r| r.stage_s("verify")))),
        ("total_s", "s", Some(col(&Round::total_s))),
        ("peak_rss_mb", "MB", Some(vec![peak_rss_mb])),
        ("cut", "count", Some(col(&|r| r.det("cut") as f64))),
        (
            "device_cost",
            "dollars",
            kway.then(|| col(&|r| r.det("kway.device_cost") as f64)),
        ),
        (
            "iob_util",
            "ratio",
            kway.then(|| col(&Round::mean_iob_util)),
        ),
        (
            "fail_rate",
            "ratio",
            Some(vec![failed as f64 / attempted.max(1) as f64]),
        ),
    ]
}

/// The end-to-end table: every metric with its unit, median, tail
/// percentile where there are enough samples, and sample count.
fn end_to_end_table(rows: &[Samples]) -> String {
    let mut out = format!(
        "{:<12} {:<8} {:>12} {:>18} {:>4}  per round\n",
        "metric", "unit", "median", "tail", "n"
    );
    for (name, unit, xs) in rows {
        let _ = match xs {
            Some(xs) => {
                let t = tail(xs).map_or("- (n < 20)".to_string(), |(p, v)| format!("p{p} {v:.4}"));
                let each: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
                writeln!(
                    out,
                    "{name:<12} {unit:<8} {:>12.4} {t:>18} {:>4}  {}",
                    median(xs),
                    xs.len(),
                    each.join(" ")
                )
            }
            None => writeln!(
                out,
                "{name:<12} {unit:<8} {:>12} {:>18} {:>4}",
                "n/a", "", 0
            ),
        };
    }
    out
}

/// Every deterministic value of an operation must equal its value on
/// every other repetition of the same circuit, traced or not.
fn determinism_errors(rounds: &[Round]) -> Vec<String> {
    let mut reference: BTreeMap<&str, BTreeMap<&str, u64>> = BTreeMap::new();
    let mut errors = Vec::new();
    for r in rounds {
        for (_, o) in r.ops.iter().filter(|(_, o)| o.failure.is_none()) {
            let seen = reference.entry(o.circuit.as_str()).or_default();
            for (k, v) in &o.det {
                match seen.get(k) {
                    Some(w) if w != v => errors.push(format!(
                        "{}: {k} is {v} here but {w} on an earlier repetition{}",
                        o.circuit,
                        if r.traced { " (traced)" } else { "" }
                    )),
                    Some(_) => {}
                    None => {
                        seen.insert(k, *v);
                    }
                }
            }
        }
    }
    errors
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
