//! `pipeline-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--pin-circuits] [--smoke]`
//!
//! Runs one workload and prints its tables, then one JSON result line
//! as the last line of standard output. Exits 1 when an operation
//! failed or a deterministic figure changed between repetitions, and
//! 2 on a usage error.

use pipeline_bench::pipeline::{Workload, DEFAULT_SEED};
use pipeline_bench::{run, RunSpec};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "error: {msg}\nusage: pipeline-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--pin-circuits] [--smoke]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut spec = RunSpec {
        workload: Workload::Rent100kMl,
        seed: DEFAULT_SEED,
        pin_circuits: false,
        seconds: 10.0,
        trace: false,
        smoke: false,
        span_dir: Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                spec.smoke = true;
                continue;
            }
            "--pin-circuits" => {
                spec.pin_circuits = true;
                continue;
            }
            _ => {}
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(val).ok_or_else(|| format!("unknown workload {val}"))?,
                );
            }
            "--seed" => spec.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                spec.seconds = val.parse().map_err(|e| bad(&e))?;
                if !(spec.seconds >= 0.0 && spec.seconds.is_finite()) {
                    return Err(format!(
                        "--seconds must be a finite non-negative number, got {val}"
                    ));
                }
            }
            "--trace" => {
                spec.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    spec.workload = workload.ok_or("--workload is required")?;
    Ok(spec)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(s) => s,
        Err(e) => return usage(&e),
    };
    match run(&spec) {
        Ok(report) => {
            print!("{}", report.text);
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
