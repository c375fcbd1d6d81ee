//! Negative control: a known slowdown, injected through a public-API
//! wrapper, must be flagged by the benchmark's comparison on the metric it
//! slows, on the workload it was injected into, and nowhere else.
//!
//! Timing-sensitive, so it runs in optimized builds only:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use paba_perfbench::compare::regressions;
use paba_perfbench::{run, Inject, Outcome, Plan};

/// Runs per side of each comparison, on seeds 1, 2, 3.
const RUNS: u64 = 3;
const SECONDS: f64 = 3.0;

fn runs(workload: &str, inject: Inject) -> Vec<Outcome> {
    (1..=RUNS)
        .map(|seed| {
            let plan = Plan {
                inject,
                ..Plan::new(seed, SECONDS)
            };
            let mut out = run(workload, &plan, false).expect("known workload");
            assert!(out.correct, "{workload}: {:?}", out.notes);
            // `VmHWM` is per process and never falls, and this test runs
            // every workload in one process: its peak says nothing here.
            out.metrics.retain(|m| m.name != "peak_rss_mb");
            out
        })
        .collect()
}

/// Throughput metrics the injection must move, and quality metrics it
/// must not (the injected work changes no decision).
const SLOWED: [&str; 2] = ["requests_per_s", "wall_s"];
const QUALITY: [&str; 3] = ["max_load", "comm_cost", "sojourn_p99"];

fn assert_flagged(workload: &str, flagged: &[&str]) {
    for m in SLOWED {
        assert!(
            flagged.contains(&m),
            "{workload}: {m} not flagged in {flagged:?}"
        );
    }
    for m in QUALITY {
        assert!(
            !flagged.contains(&m),
            "{workload}: {m} flagged in {flagged:?}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
fn injected_slowdowns_are_flagged_on_their_workload_only() {
    let none = Inject::default();
    // The churn side of every comparison runs the same public request
    // loop; only the injected calls differ.
    let public_loop = Inject {
        mutations_per_event: Some(0),
        ..none
    };
    let base_static = runs("static-zipf", none);
    let base_churn = runs("churn-repair", public_loop);

    // 2 µs of busy-waiting before every static-zipf assignment, several
    // times the cost of the assignment itself.
    let spin = Inject {
        assign_spin_ns: 2_000,
        ..public_loop
    };
    let slow_static = runs("static-zipf", spin);
    let churn_again = runs("churn-repair", spin);
    assert_flagged("static-zipf", &regressions(&base_static, &slow_static));
    let flagged = regressions(&base_churn, &churn_again);
    assert!(flagged.is_empty(), "churn-repair flagged {flagged:?}");

    // No-op `mutate_placement` calls after every churn event. One call
    // rebuilds only the cached-file sampler (about a microsecond against
    // about a millisecond per event), so the control injects enough of
    // them to double the event cost.
    let mutate = Inject {
        mutations_per_event: Some(2_000),
        ..none
    };
    let slow_churn = runs("churn-repair", mutate);
    let static_again = runs("static-zipf", mutate);
    assert_flagged("churn-repair", &regressions(&base_churn, &slow_churn));
    let flagged = regressions(&base_static, &static_again);
    assert!(flagged.is_empty(), "static-zipf flagged {flagged:?}");
}
