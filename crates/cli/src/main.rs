//! `paba` — command-line front end for the cache-network simulator.
//!
//! ```text
//! paba simulate --side 45 --files 500 --cache 20 --strategy two-choice --radius 8 --runs 50
//! paba simulate --workload flash-crowd --flash-file 0 --flash-boost 80 --runs 20
//! paba trace    --side 20 --runs 4 --stride 64 --chrome-out trace.json
//! paba profile --diff BENCH_profile.json NEW_profile.json
//! paba queue    --side 24 --lambda 0.9 --radius 4 --choices 2
//! paba ballsbins --process two --bins 4096 --balls 4096 --runs 20
//! paba workload generate --workload hotspot --out hotspot.trace --requests 100000
//! paba workload inspect --trace hotspot.trace
//! paba throughput --scale quick --out BENCH_throughput.json
//! paba profile --scale quick --check --out BENCH_profile.json
//! paba repro --quick --check
//! paba queueing --quick --check
//! paba simulate --side 45 --runs 200 --serve-metrics 127.0.0.1:9464
//! paba report --dir . --out REPORT.md
//! paba help
//! ```

mod args;
mod commands;

use args::Args;

// `--features alloc-track` routes every heap allocation through the
// counting wrapper, so `/metrics` and the profile artifact report
// allocation counts and peak live bytes. Off by default: even relaxed
// atomics in the allocator are measurable overhead for a benchmark
// binary.
#[cfg(feature = "alloc-track")]
#[global_allocator]
static GLOBAL: paba_telemetry::CountingAlloc<std::alloc::System> =
    paba_telemetry::CountingAlloc(std::alloc::System);

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            commands::print_help();
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_deref() {
        Some("simulate") => commands::simulate(&parsed),
        Some("trace") => commands::trace(&parsed),
        Some("queue") => commands::queue(&parsed),
        Some("ballsbins") => commands::ballsbins(&parsed),
        Some("workload") => commands::workload(&parsed),
        Some("throughput") => commands::throughput(&parsed),
        Some("profile") => commands::profile(&parsed),
        Some(name @ ("repro" | "churn" | "queueing")) => commands::suite(name, &parsed),
        Some("report") => commands::report(&parsed),
        Some("help") | None => {
            commands::print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}' (try 'paba help')")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
