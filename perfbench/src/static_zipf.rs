//! `static-zipf`: the paper's §V delivery loop at n = 316² ≈ 10⁵.
//!
//! Each repetition makes [`RUNS`] Monte-Carlo runs through
//! `paba_mcrunner::run_parallel` on at most two threads; each run builds a
//! fresh placement (K = 10⁴, M = 20, Zipf γ = 1.2) and serves n IID
//! requests with Strategy II (d = 2, r = 5). Every repetition uses the
//! same seed, so it repeats the same work and must reproduce the same
//! reports.

use crate::calib::{Calibration, Kernel};
use crate::layers::{self, Variant, Variants};
use crate::measure::{median, repeat_for, scaled, secs, sojourn_p99, Audited};
use crate::measure::{Metric, Outcome, Timed};
use crate::{spec, Plan};
use paba_core::{
    simulate, simulate_source, CacheNetwork, IidUniform, ProximityChoice, SimReport, Strategy,
    UncachedPolicy,
};
use paba_mcrunner::{run_parallel, run_parallel_with_state};
use paba_popularity::Popularity;
use paba_telemetry::{AtomicRecorder, TelemetrySnapshot};
use paba_topology::Torus;
use paba_util::split_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::thread::ThreadId;
use std::time::Instant;

pub const SIDE: u32 = 316;
pub const FILES: u32 = 10_000;
pub const CACHE: u32 = 20;
pub const GAMMA: f64 = 1.2;
pub const RADIUS: u32 = 5;
/// Monte-Carlo runs per repetition.
pub const RUNS: usize = 16;
/// Timed network builds whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;

fn build(side: u32, rng: &mut SmallRng) -> CacheNetwork<Torus> {
    CacheNetwork::builder()
        .torus_side(side)
        .library(FILES, Popularity::zipf(GAMMA))
        .cache_size(CACHE)
        .build(rng)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

/// The parts of a report a repeated run must reproduce exactly.
type Fingerprint = (u32, u64, u64, u64, u64);

fn fingerprint(r: &SimReport) -> Fingerprint {
    (
        r.max_load(),
        r.total_hops,
        r.total_requests,
        r.single_candidate,
        r.no_candidate_in_ball,
    )
}

/// One Monte-Carlo run.
struct McRun {
    build_s: f64,
    loop_s: f64,
    report: SimReport,
    violations: u64,
    positions: Vec<u64>,
    thread: ThreadId,
    /// Traced variant only: time and calls inside `assign`/`next_request`.
    assign: (u64, u64),
    source: (u64, u64),
}

/// One repetition: `RUNS` Monte-Carlo runs and their wall time.
struct Rep {
    wall_s: f64,
    runs: Vec<McRun>,
    snapshot: Option<TelemetrySnapshot>,
}

impl Rep {
    fn loop_s(&self) -> f64 {
        self.runs.iter().map(|r| r.loop_s).sum()
    }

    fn requests(&self) -> u64 {
        self.runs.iter().map(|r| r.report.total_requests).sum()
    }

    /// 1 − mean ÷ max of per-thread busy time.
    fn imbalance(&self) -> f64 {
        let mut busy: Vec<(ThreadId, f64)> = Vec::new();
        for r in &self.runs {
            let t = r.build_s + r.loop_s;
            match busy.iter_mut().find(|(id, _)| *id == r.thread) {
                Some(b) => b.1 += t,
                None => busy.push((r.thread, t)),
            }
        }
        let max = busy.iter().map(|b| b.1).fold(0.0, f64::max);
        let mean = busy.iter().map(|b| b.1).sum::<f64>() / busy.len().max(1) as f64;
        if max > 0.0 {
            1.0 - mean / max
        } else {
            0.0
        }
    }
}

fn mc_run<S: Strategy<Torus>>(
    rng: &mut SmallRng,
    side: u32,
    strategy: S,
    spin_ns: u64,
    timed: bool,
) -> McRun {
    let t0 = Instant::now();
    let net = build(side, rng);
    let build_s = secs(t0);
    let audited = Audited::new(strategy, Some(RADIUS), spin_ns);
    let t1 = Instant::now();
    let (report, audited, assign, source) = if timed {
        // `simulate` with the source it uses made explicit, so that the
        // source can be timed too.
        let mut strategy = Timed::new(audited);
        let mut source = Timed::new(IidUniform::with_policy(UncachedPolicy::ResampleFile));
        let report = simulate_source(&net, &mut strategy, &mut source, net.n() as u64, rng);
        let (assign, source) = ((strategy.ns, strategy.calls), (source.ns, source.calls));
        (report, strategy.into_inner(), assign, source)
    } else {
        let mut audited = audited;
        let report = simulate(&net, &mut audited, net.n() as u64, rng);
        (report, audited, (0, 0), (0, 0))
    };
    let loop_s = secs(t1);
    McRun {
        build_s,
        loop_s,
        report,
        violations: audited.violations,
        positions: audited.positions,
        thread: std::thread::current().id(),
        assign,
        source,
    }
}

fn rep(plan: &Plan, variant: Variant) -> Rep {
    let seed = split_seed(plan.seed, 0);
    let spin = plan.inject.assign_spin_ns;
    let strategy = || ProximityChoice::two_choice(Some(RADIUS));
    let t = Instant::now();
    let (runs, snapshot) = match variant {
        Variant::Untraced => (
            run_parallel(RUNS, seed, Some(threads()), |_, rng| {
                mc_run(rng, SIDE, strategy(), spin, false)
            }),
            None,
        ),
        Variant::Atomic | Variant::Traced => {
            let (runs, recs) = run_parallel_with_state(
                RUNS,
                seed,
                Some(threads()),
                None,
                AtomicRecorder::new,
                |rec, _, rng| {
                    let s = strategy().with_recorder(rec);
                    mc_run(rng, SIDE, s, spin, variant == Variant::Traced)
                },
            );
            let mut snap = TelemetrySnapshot::empty();
            for r in &recs {
                snap.merge(&r.snapshot());
            }
            (runs, Some(snap))
        }
    };
    Rep {
        wall_s: secs(t),
        runs,
        snapshot,
    }
}

/// Check every run of `rep` and that it reproduces `first`'s reports.
fn check(out: &mut Outcome, rep: &Rep, first: &[Fingerprint]) {
    let requests = rep.requests();
    out.attempted += requests;
    for (i, r) in rep.runs.iter().enumerate() {
        if !r.report.check_conservation() {
            return out.fail(requests, format!("run {i}: loads do not sum to requests"));
        }
        if r.violations > 0 {
            let v = r.violations;
            return out.fail(requests, format!("run {i}: {v} assignments beyond r"));
        }
        if fingerprint(&r.report) != first[i] {
            return out.fail(requests, format!("run {i}: report differs between reps"));
        }
    }
}

/// Median network build time on one thread, at machine speed.
fn setup_s(plan: &Plan) -> f64 {
    let cal = Calibration::new(Kernel::Memory, 1);
    let mut rng = SmallRng::seed_from_u64(split_seed(plan.seed, 1));
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            cal.probe();
            let t = Instant::now();
            let net = std::hint::black_box(build(SIDE, &mut rng));
            let s = secs(t);
            drop(net);
            s
        })
        .collect();
    median(&times) * cal.speed()
}

/// Run with tracing off: the end-to-end metrics.
pub fn untraced(plan: &Plan) -> Outcome {
    let cal = Calibration::new(Kernel::Memory, threads());
    let (reps, rss) = repeat_for(&cal, plan.seconds, 1, |_| rep(plan, Variant::Untraced));
    let mut out = Outcome::new();
    let first: Vec<Fingerprint> = reps[0]
        .runs
        .iter()
        .map(|r| fingerprint(&r.report))
        .collect();
    for r in &reps {
        check(&mut out, r, &first);
    }
    let runs = &reps[0].runs;
    let mean = |f: fn(&McRun) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
    let mut positions = Vec::new();
    for r in runs {
        merge_hist(&mut positions, &r.positions);
    }
    let rate = median(
        &reps
            .iter()
            .map(|r| r.requests() as f64 / r.loop_s())
            .collect::<Vec<_>>(),
    );
    out.speed = cal.speed();
    let mut m = scaled(
        vec![
            Metric::new(
                "wall_s",
                median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
                "s",
            ),
            Metric::new("requests_per_s", rate, "1/s"),
            // One dispatch decision per request: the event rate is the
            // request rate.
            Metric::new("events_per_s", rate, "1/s"),
        ],
        out.speed,
    );
    m.extend([
        Metric::new("setup_s", setup_s(plan), "s"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new("max_load", mean(|r| r.report.max_load() as f64), "requests"),
        Metric::new("comm_cost", mean(|r| r.report.comm_cost()), "hops"),
        Metric::new("sojourn_p99", sojourn_p99(&positions), "mean_svc"),
    ]);
    out.metrics = spec::end_to_end(&m);
    out
}

fn merge_hist(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// Traced run: the per-layer split.
pub fn traced(plan: &Plan) -> Outcome {
    let cal = Calibration::new(Kernel::Memory, threads());
    let (reps, _): (Vec<(Variant, Rep)>, _) = repeat_for(&cal, plan.seconds, 1, |i| {
        let v = Variant::CYCLE[i % 3];
        (v, rep(plan, v))
    });
    let mut out = Outcome::new();
    let first: Vec<Fingerprint> = reps[0]
        .1
        .runs
        .iter()
        .map(|r| fingerprint(&r.report))
        .collect();
    for (_, r) in &reps {
        check(&mut out, r, &first);
    }
    let variants = Variants::from_samples(
        &reps
            .iter()
            .map(|(v, r)| (*v, r.wall_s, r.loop_s()))
            .collect::<Vec<_>>(),
    );
    let traced: Vec<&Rep> = reps
        .iter()
        .filter(|(v, _)| *v == Variant::Traced)
        .map(|(_, r)| r)
        .collect();
    let total = |f: fn(&McRun) -> (u64, u64)| {
        let (ns, calls) = traced
            .iter()
            .flat_map(|r| &r.runs)
            .map(f)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        ns as f64 / calls.max(1) as f64
    };
    let snap = traced[0]
        .snapshot
        .clone()
        .unwrap_or_else(TelemetrySnapshot::empty);
    let imbalance = median(
        &reps
            .iter()
            .filter(|(v, _)| *v == Variant::Untraced)
            .map(|(_, r)| r.imbalance())
            .collect::<Vec<_>>(),
    );

    let mut on_two = vec![
        Metric::new("dispatch.assign_ns", total(|r| r.assign), "ns"),
        Metric::new("source.next_request_ns", total(|r| r.source), "ns"),
    ];
    on_two.extend(variants.metrics());
    // The topology primitives run on one thread: scale them by a
    // single-thread probe.
    let one = Calibration::new(Kernel::Memory, 1);
    one.probe();
    let topo = layers::topology(&Torus::new(SIDE), Some(RADIUS), plan.seed);

    out.speed = cal.speed();
    let mut m = scaled(on_two, out.speed);
    m.extend(scaled(topo, one.speed()));
    m.push(Metric::new("placement.build_s", setup_s(plan), "s"));
    m.push(Metric::new("mcrunner.imbalance", imbalance, "share"));
    m.extend(layers::sampler(&snap));
    m.push(Metric::new(
        "dispatch.assign_ns.slope",
        ladder(plan),
        "slope",
    ));
    out.metrics = spec::per_layer(&m);
    out
}

/// Mean `assign` nanoseconds at sides `SIDE/4`, `SIDE/2` and `SIDE`
/// (n/16, n/4, n) and their log-log slope (which a machine-speed factor
/// common to all three points does not change).
fn ladder(plan: &Plan) -> f64 {
    let points: Vec<(f64, f64)> = [SIDE / 4, SIDE / 2, SIDE]
        .iter()
        .map(|&side| {
            let per: Vec<f64> = (0..3)
                .map(|i| {
                    let mut rng = SmallRng::seed_from_u64(split_seed(plan.seed, 10 + i));
                    let s = ProximityChoice::two_choice(Some(RADIUS));
                    let r = mc_run(&mut rng, side, s, 0, true);
                    r.assign.0 as f64 / r.assign.1.max(1) as f64
                })
                .collect();
            ((side * side) as f64, median(&per))
        })
        .collect();
    layers::slope(&points)
}
