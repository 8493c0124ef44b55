//! The CLI face of the observability contract: `--trace-out` produces a
//! JSONL trace whose deterministic skeleton (after
//! [`netpart::obs::strip_timing`]) is byte-identical across `--jobs`
//! levels for a fixed seed; `--metrics-out` writes a snapshot whose
//! deterministic sections agree across jobs levels; and without `-v`
//! the flags keep stderr free of event noise.

use netpart::obs::strip_timing;
use std::path::PathBuf;
use std::process::Command;

fn netpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netpart"))
}

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netpart-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn synth(dir: &std::path::Path, gates: &str, seed: &str) -> PathBuf {
    let blif = dir.join(format!("synth-{gates}-{seed}.blif"));
    let out = netpart()
        .args([
            "synth",
            gates,
            blif.to_str().expect("utf8 path"),
            "--dff",
            "20",
            "--seed",
            seed,
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    blif
}

/// Runs one traced command; returns (trace text, metrics text, stderr).
fn traced_run(
    dir: &std::path::Path,
    blif: &std::path::Path,
    sub: &str,
    jobs: &str,
) -> (String, String, String) {
    let trace = dir.join(format!("{sub}-{jobs}.jsonl"));
    let metrics = dir.join(format!("{sub}-{jobs}.json"));
    let mut cmd = netpart();
    cmd.args([sub, blif.to_str().expect("utf8 path"), "--seed", "5"]);
    match sub {
        "bipartition" => {
            cmd.args(["--runs", "5"]);
        }
        _ => {
            cmd.args(["--candidates", "4", "--tasks", "3"]);
        }
    }
    cmd.args([
        "--jobs",
        jobs,
        "--trace-out",
        trace.to_str().expect("utf8 path"),
        "--metrics-out",
        metrics.to_str().expect("utf8 path"),
    ]);
    let out = cmd.output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{sub} --jobs {jobs} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        std::fs::read_to_string(&trace).expect("trace file written"),
        std::fs::read_to_string(&metrics).expect("metrics file written"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Drops the scheduling-dependent parts of a metrics snapshot: the
/// `meta.jobs` line and everything from the `timing` section on (the
/// section is last in the file by construction).
fn deterministic_metrics(metrics: &str) -> String {
    metrics
        .lines()
        .take_while(|l| !l.contains("\"timing\": {"))
        .filter(|l| !l.contains("\"jobs\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn bipartition_trace_skeleton_is_identical_across_jobs_levels() {
    // Own subdirectory: another test writes `bipartition-2.*` in `tmp()`.
    let dir = tmp().join("skeleton");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let blif = synth(&dir, "350", "7");
    let (t1, m1, _) = traced_run(&dir, &blif, "bipartition", "1");
    let (t2, _, _) = traced_run(&dir, &blif, "bipartition", "2");
    let (t8, m8, _) = traced_run(&dir, &blif, "bipartition", "8");
    assert_ne!(t1, "", "trace must not be empty");
    assert_eq!(
        strip_timing(&t1),
        strip_timing(&t2),
        "stripped bipartition traces diverged between --jobs 1 and 2"
    );
    assert_eq!(
        strip_timing(&t1),
        strip_timing(&t8),
        "stripped bipartition traces diverged between --jobs 1 and 8"
    );
    // The gain-update work counters are deterministic fields of
    // `fm.pass`, so they survive the strip.
    for needle in ["\"updates\":", "\"skipped\":"] {
        assert!(
            strip_timing(&t1).contains(needle),
            "missing {needle} in stripped trace"
        );
    }
    assert_eq!(
        deterministic_metrics(&m1),
        deterministic_metrics(&m8),
        "deterministic metrics sections diverged"
    );
    // The raw traces DO carry timing: the strip is load-bearing.
    assert!(t1.contains("\"timing\""), "expected timing fields in: {t1}");
}

#[test]
fn kway_trace_skeleton_is_identical_across_jobs_levels() {
    let dir = tmp();
    let blif = synth(&dir, "500", "9");
    let (t1, m1, _) = traced_run(&dir, &blif, "kway", "1");
    let (t8, m8, _) = traced_run(&dir, &blif, "kway", "8");
    let (s1, s8) = (strip_timing(&t1), strip_timing(&t8));
    assert_eq!(
        s1, s8,
        "stripped kway traces diverged between --jobs 1 and 8"
    );
    // The trace tells the paper's story: portfolio framing and the
    // paper-metric gauges at incumbent improvements.
    for needle in [
        "\"scope\":\"portfolio\",\"event\":\"begin\"",
        "\"scope\":\"portfolio\",\"event\":\"task\"",
        "\"scope\":\"paper\",\"event\":\"cost_k\"",
        "\"scope\":\"paper\",\"event\":\"kbar\"",
        "\"scope\":\"paper\",\"event\":\"d_psi\"",
    ] {
        assert!(s1.contains(needle), "missing {needle} in stripped trace");
    }
    assert_eq!(
        deterministic_metrics(&m1),
        deterministic_metrics(&m8),
        "deterministic metrics sections diverged"
    );
}

#[test]
fn metrics_snapshot_carries_paper_gauges_and_meta() {
    let dir = tmp();
    let blif = synth(&dir, "500", "11");
    let (_, metrics, _) = traced_run(&dir, &blif, "kway", "2");
    for needle in [
        "\"cmd\": \"kway\"",
        "\"seed\": \"5\"",
        "\"tasks\": \"3\"",
        "\"paper.cost_k\"",
        "\"paper.kbar\"",
        "\"paper.devices\"",
        "\"wall_ms\"",
    ] {
        assert!(
            needle.is_empty() || metrics.contains(needle),
            "missing {needle} in:\n{metrics}"
        );
    }
}

#[test]
fn trace_flags_keep_stderr_quiet_without_verbose() {
    // Without -v the only stderr lines are the existing portfolio/cache
    // notes — no structured-event spam.
    let dir = tmp();
    let blif = synth(&dir, "350", "13");
    let (_, _, stderr) = traced_run(&dir, &blif, "bipartition", "2");
    assert!(
        !stderr.contains("fm.pass") && !stderr.contains("portfolio.begin"),
        "structured events leaked to stderr without -v: {stderr}"
    );
}

#[test]
fn verbose_flag_prints_events_and_metrics_table() {
    let dir = tmp();
    let blif = synth(&dir, "350", "17");
    let out = netpart()
        .args([
            "bipartition",
            blif.to_str().expect("utf8 path"),
            "--runs",
            "3",
            "--seed",
            "5",
            "-v",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("portfolio.begin"),
        "expected Info events on stderr with -v: {stderr}"
    );
    assert!(
        stderr.contains("run metrics"),
        "expected the metrics table with -v: {stderr}"
    );
    // Trace-level per-pass events render as `fm.pass seed=…`; the
    // metrics table's `fm.passes` counter row must not be mistaken for
    // one.
    assert!(
        !stderr.contains("fm.pass "),
        "-v must not show Trace-level events: {stderr}"
    );
}
