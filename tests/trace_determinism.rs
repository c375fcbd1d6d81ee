//! End-to-end trace determinism and sampler-distribution checks.
//!
//! Three properties the recording layers promise:
//!
//! 1. a *real* traced simulation (network build, Strategy II assignment,
//!    load series) produces bit-identical event streams and time series
//!    no matter how many mcrunner threads collect it;
//! 2. reservoir sampling retains request indices uniformly — checked with
//!    per-bucket z-scores and a χ²-style aggregate built from
//!    [`paba::theory::bounds::binomial_sigma`];
//! 3. per-worker [`AtomicRecorder`] snapshots merged after join (the
//!    `paba simulate --telemetry` path) count the same sampler paths at
//!    any thread count.

use paba::core::{
    simulate_source_profiled, CacheNetwork, IidUniform, PlacementPolicy, ProximityChoice,
};
use paba::mcrunner::{run_parallel_traced, run_parallel_with_state};
use paba::popularity::Popularity;
use paba::telemetry::{
    AtomicRecorder, Recorder, SamplerPath, Sampling, TelemetrySnapshot, TraceConfig, TraceRecorder,
    TraceReport,
};
use paba::theory::bounds::binomial_sigma;
use paba::topology::Torus;
use paba::workload::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SIDE: u32 = 8; // 64 nodes → 64 requests per run
const RUNS: usize = 6;

/// One full traced run: fresh placement, Strategy II (d=2, r=3), IID
/// workload, recorder threaded through both the strategy and the loop.
fn sim_run(rec: &TraceRecorder, rng: &mut SmallRng) -> (u32, f64) {
    let net: CacheNetwork<Torus> = CacheNetwork::builder()
        .torus_side(SIDE)
        .library(24, Popularity::Uniform)
        .cache_size(3)
        .placement_policy(PlacementPolicy::ProportionalWithReplacement)
        .build(rng);
    let mut s = ProximityChoice::with_choices(Some(3), 2).with_recorder(rec);
    let mut source = WorkloadSpec::Iid
        .build(&net)
        .expect("IID workload fits any network");
    let report = simulate_source_profiled(&net, &mut s, &mut source, net.n() as u64, rng, &rec);
    (report.max_load(), report.comm_cost())
}

fn traced(threads: usize, sampling: Sampling) -> (Vec<(u32, f64)>, TraceReport) {
    let cfg = TraceConfig {
        sampling,
        stride: 16,
        max_events: 512,
        seed: 7,
    };
    run_parallel_traced(RUNS, 0xA5, Some(threads), None, cfg, |rec, _i, rng| {
        sim_run(rec, rng)
    })
}

#[test]
fn real_simulation_trace_identical_across_thread_counts() {
    for sampling in [Sampling::OneIn(3), Sampling::Reservoir(16)] {
        let (out1, rep1) = traced(1, sampling);
        for threads in [2usize, 8] {
            let (out, rep) = traced(threads, sampling);
            assert_eq!(out1, out, "outputs, {threads} threads, {sampling:?}");
            assert_eq!(
                rep1.runs, rep.runs,
                "traces, {threads} threads, {sampling:?}"
            );
            assert_eq!(
                rep1.mean_series(),
                rep.mean_series(),
                "series, {threads} threads, {sampling:?}"
            );
        }
        // The single-thread reference is itself sane: every run captured
        // events and the load series advanced with the configured stride.
        for r in &rep1.runs {
            assert!(!r.events.is_empty(), "{sampling:?}");
            assert_eq!(r.series.points.len(), 64 / 16, "{sampling:?}");
        }
        if let Sampling::OneIn(n) = sampling {
            for r in &rep1.runs {
                assert!(r.events.iter().all(|e| e.request % n == 0));
            }
        }
    }
}

#[test]
fn reservoir_sample_is_uniform_over_request_indices() {
    const REQUESTS: u64 = 64;
    const CAP: usize = 16;
    const STAT_RUNS: u64 = 200;
    const BUCKETS: usize = 8;
    let rec = TraceRecorder::new(TraceConfig {
        sampling: Sampling::Reservoir(CAP),
        stride: 0,
        max_events: 4096,
        seed: 0x5EED,
    });
    for run in 0..STAT_RUNS {
        rec.begin_run(run);
        for _ in 0..REQUESTS {
            rec.request(0, 0, 0, 1, &mut std::iter::empty());
        }
    }
    let (runs, _, _) = rec.into_parts();
    let mut counts = [0.0f64; BUCKETS];
    let mut total = 0.0f64;
    for r in &runs {
        assert_eq!(r.events.len(), CAP, "reservoir fills to capacity");
        for e in &r.events {
            counts[e.request as usize / (REQUESTS as usize / BUCKETS)] += 1.0;
            total += 1.0;
        }
    }
    // Each retained event lands in a bucket with p = 1/B under uniform
    // sampling. Per-run draws are without replacement, which only shrinks
    // the variance, so the binomial sigma is a conservative scale.
    let p = 1.0 / BUCKETS as f64;
    let sigma = binomial_sigma(total, p);
    let mut chi2 = 0.0;
    for (b, &c) in counts.iter().enumerate() {
        let z = (c - total * p) / sigma;
        assert!(z.abs() < 6.0, "bucket {b}: count {c}, z {z:.2}");
        chi2 += z * z;
    }
    // Sum of 8 squared z-scores ≈ χ²₇; 40 is far beyond any plausible
    // uniform-sampling draw (p < 1e-6).
    assert!(chi2 < 40.0, "χ² over {BUCKETS} buckets: {chi2:.1}");
}

/// Four Strategy II runs of 200 requests on one 100-node network, each
/// worker thread recording into its own [`AtomicRecorder`]: the per-run
/// max loads and the merged snapshot.
fn recorded(threads: usize) -> (Vec<u32>, TelemetrySnapshot) {
    let net: CacheNetwork<Torus> = CacheNetwork::builder()
        .torus_side(10)
        .library(50, Popularity::Uniform)
        .cache_size(3)
        .placement_policy(PlacementPolicy::ProportionalWithReplacement)
        .build(&mut SmallRng::seed_from_u64(5));
    let (reports, recorders) = run_parallel_with_state(
        4,
        5,
        Some(threads),
        None,
        AtomicRecorder::new,
        |rec, _i, rng| {
            let mut s = ProximityChoice::two_choice(Some(3)).with_recorder(rec);
            let mut source = IidUniform::new();
            simulate_source_profiled(&net, &mut s, &mut source, 200, rng, rec)
        },
    );
    let mut snapshot = TelemetrySnapshot::empty();
    for rec in &recorders {
        snapshot.merge(&rec.snapshot());
    }
    (reports.iter().map(|r| r.max_load()).collect(), snapshot)
}

#[test]
fn snapshot_totals_independent_of_thread_count() {
    let (loads1, snap1) = recorded(1);
    let (loads4, snap4) = recorded(4);
    assert_eq!(loads1, loads4);
    assert_eq!(snap1.total_requests(), 4 * 200);
    for path in SamplerPath::ALL {
        assert_eq!(
            snap1.path_count(path),
            snap4.path_count(path),
            "{} count drifted with thread count",
            path.label()
        );
    }
}
