//! `paba-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or each in turn, in a child process of its own, for
//! `all`) for about `--seconds`,
//! prints every metric by name with its unit, and ends each workload with
//! one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! split. Exits 2 on a usage error.

use paba_perfbench::{run, Outcome, Plan, WORKLOADS};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_each(&args);
    }
    let plan = Plan::new(args.seed, args.seconds);
    match run(&args.workload, &plan, args.trace) {
        Ok(outcome) => {
            print(&args.workload, &args, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--workload all`: every workload in turn, each in a child process of
/// its own, so that `peak_rss_mb` (the process's high-water mark) is that
/// workload's alone.
fn run_each(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let trace = if args.trace { "1" } else { "0" };
    for workload in WORKLOADS {
        let flags = ["--seed", &seed, "--seconds", &seconds, "--trace", trace];
        match Command::new(&exe)
            .args(["--workload", workload])
            .args(flags)
            .status()
        {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("error: {workload}: {status}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn print(workload: &str, args: &Args, outcome: &Outcome) {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# {workload} seed={} seconds={} trace={} nproc={threads} profile={profile} speed={:.4}",
        args.seed, args.seconds, args.trace as u8, outcome.speed
    );
    for note in &outcome.notes {
        println!("# check failed: {note}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<34} {:>16.6} share (failed {} / attempted {})",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.to_json());
}
