//! `paba` — command-line front end for the cache-network simulator.
//!
//! ```text
//! paba simulate --side 45 --files 500 --cache 20 --strategy two-choice --radius 8 --runs 50
//! paba simulate --workload flash-crowd --flash-file 0 --flash-boost 80 --runs 20
//! paba trace    --side 20 --runs 4 --stride 64 --chrome-out trace.json
//! paba queue    --side 24 --lambda 0.9 --radius 4 --choices 2
//! paba ballsbins --process two --bins 4096 --balls 4096 --runs 20
//! paba workload generate --workload hotspot --out hotspot.trace --requests 100000
//! paba workload inspect --trace hotspot.trace
//! paba repro --quick --check
//! paba queueing --quick --check
//! paba simulate --side 45 --runs 200 --serve-metrics 127.0.0.1:9464
//! paba report --dir . --out REPORT.md
//! paba help
//! ```

mod args;
mod commands;
mod report;

use args::Args;

// `--features alloc-track` routes every heap allocation through the
// counting wrapper, so `/metrics` reports allocation counts and peak
// live bytes. Off by default: even relaxed atomics in the allocator are
// measurable overhead for a benchmark binary.
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
    if let Err(e) = commands::run(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
