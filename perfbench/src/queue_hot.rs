//! `queue-hot`: the discrete-event queueing engine near saturation.
//!
//! One thread runs `simulate_queueing_source` on n = 64² = 4096 servers
//! (K = 32, M = 8, uniform popularity) with unconstrained two-choice
//! dispatch, Poisson arrivals at λ = 0.9 per server (an open loop: the
//! engine draws arrivals on its own clock), horizon 200 and warmup 50.
//! Repetitions cycle through [`INSTANCES`] seeded inputs, and each must
//! reproduce its input's first report.

use crate::calib::{Calibration, Kernel};
use crate::layers::{self, Variant, Variants};
use crate::measure::{median, repeat_for, scaled, secs, sojourn_p99, Audited};
use crate::measure::{Metric, Outcome, Timed};
use crate::{spec, Plan};
use paba_core::{CacheNetwork, IidUniform, ProximityChoice, Strategy, UncachedPolicy};
use paba_popularity::Popularity;
use paba_supermarket::{simulate_queueing_source, QueueReport, QueueSimConfig};
use paba_telemetry::{AtomicRecorder, TelemetrySnapshot};
use paba_topology::Torus;
use paba_util::split_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

pub const SIDE: u32 = 64;
pub const FILES: u32 = 32;
pub const CACHE: u32 = 8;
pub const LAMBDA: f64 = 0.9;
pub const HORIZON: f64 = 200.0;
pub const WARMUP: f64 = 50.0;
/// Seeded inputs the repetitions cycle through.
pub const INSTANCES: usize = 4;
/// Timed set-ups whose median is `setup_s`.
const SETUP_REPEATS: usize = 31;

fn build(side: u32, seed: u64) -> CacheNetwork<Torus> {
    let mut rng = SmallRng::seed_from_u64(seed);
    CacheNetwork::builder()
        .torus_side(side)
        .library(FILES, Popularity::Uniform)
        .cache_size(CACHE)
        .build(&mut rng)
}

fn config(horizon: f64, warmup: f64) -> QueueSimConfig {
    QueueSimConfig {
        lambda: LAMBDA,
        horizon,
        warmup,
        ..QueueSimConfig::default()
    }
}

/// One engine run.
struct Run {
    engine_s: f64,
    report: QueueReport,
    /// Arrivals, counted by the strategy wrapper.
    arrivals: u64,
    /// FIFO positions of the arrivals after the warmup.
    positions: Vec<u64>,
    /// Traced variant only: time and calls inside `assign`/`next_request`.
    assign: (u64, u64),
    source: (u64, u64),
}

impl Run {
    /// Arrivals plus departures. Each arrival departs once unless it is
    /// still queued at the horizon; the report's time-averaged queue
    /// content stands in for that remainder.
    fn events(&self) -> f64 {
        2.0 * self.arrivals as f64 - self.report.mean_queue * self.report.n as f64
    }

    /// Engine nanoseconds per event outside dispatch and request drawing
    /// (meaningful for timed runs).
    fn event_ns(&self) -> f64 {
        (self.engine_s * 1e9 - self.assign.0 as f64 - self.source.0 as f64) / self.events()
    }
}

fn engine<S: Strategy<Torus>>(
    net: &CacheNetwork<Torus>,
    strategy: S,
    cfg: &QueueSimConfig,
    seed: u64,
    timed: bool,
) -> Run {
    let mut rng = SmallRng::seed_from_u64(seed);
    let warmup_arrivals = (cfg.lambda * net.n() as f64 * cfg.warmup) as u64;
    let mut audited = Audited::new(strategy, None, 0).skip_positions(warmup_arrivals);
    let mut source = IidUniform::with_policy(UncachedPolicy::ResampleFile);
    let t = Instant::now();
    let (report, assign, source) = if timed {
        let mut strategy = Timed::new(audited);
        let mut source = Timed::new(source);
        let report = simulate_queueing_source(net, &mut strategy, &mut source, cfg, &mut rng);
        let assign = (strategy.ns, strategy.calls);
        audited = strategy.into_inner();
        (report, assign, (source.ns, source.calls))
    } else {
        let report = simulate_queueing_source(net, &mut audited, &mut source, cfg, &mut rng);
        (report, (0, 0), (0, 0))
    };
    Run {
        engine_s: secs(t),
        report,
        arrivals: audited.calls,
        positions: audited.positions,
        assign,
        source,
    }
}

/// One repetition: build input `instance`'s network and run it.
struct Rep {
    wall_s: f64,
    instance: usize,
    run: Run,
    snapshot: Option<TelemetrySnapshot>,
}

fn rep(plan: &Plan, instance: usize, variant: Variant) -> Rep {
    let seed = split_seed(plan.seed, instance as u64);
    let t = Instant::now();
    let net = build(SIDE, split_seed(seed, 0));
    let cfg = config(HORIZON, WARMUP);
    let strategy = ProximityChoice::two_choice(None);
    let rec = AtomicRecorder::new();
    let run_seed = split_seed(seed, 1);
    let run = match variant {
        Variant::Untraced => engine(&net, strategy, &cfg, run_seed, false),
        Variant::Atomic => engine(&net, strategy.with_recorder(&rec), &cfg, run_seed, false),
        Variant::Traced => engine(&net, strategy.with_recorder(&rec), &cfg, run_seed, true),
    };
    Rep {
        wall_s: secs(t),
        instance,
        run,
        snapshot: (variant != Variant::Untraced).then(|| rec.snapshot()),
    }
}

/// Conservation, Little's law within 10%, throughput within 5% of λ·n,
/// the engine's bucketed sojourn p99 within 5% of the one implied by the
/// arrival positions, and the same report as the input's first run.
fn check(out: &mut Outcome, rep: &Rep, first: &[QueueReport]) {
    let r = &rep.run.report;
    out.attempted += rep.run.arrivals;
    let expect = LAMBDA * r.n as f64;
    let little = (r.mean_response - r.littles_law_response()).abs() / r.mean_response;
    let throughput = (r.throughput() - expect).abs() / expect;
    let p99 = (sojourn_p99(&rep.run.positions) - r.sojourn_p99).abs() / r.sojourn_p99;
    // False for NaN, so a degenerate report fails the check.
    let within = |x: f64, tol: f64| x <= tol;
    let why = if r.completed > r.dispatched {
        format!("completed {} > dispatched {}", r.completed, r.dispatched)
    } else if !within(little, 0.10) {
        format!("Little's law off by {little:.3}")
    } else if !within(throughput, 0.05) {
        format!("throughput off λ·n by {throughput:.3}")
    } else if !within(p99, 0.05) {
        format!("sojourn p99 off the arrival positions' by {p99:.3}")
    } else if *r != first[rep.instance] {
        format!("input {}: report differs between reps", rep.instance)
    } else {
        return;
    };
    out.fail(rep.run.arrivals, why);
}

/// Median time to build the networks of all [`INSTANCES`] inputs, at
/// machine speed.
fn setup_s(plan: &Plan) -> f64 {
    let cal = Calibration::new(Kernel::Cache, 1);
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            cal.probe();
            let t = Instant::now();
            let nets: Vec<_> = (0..INSTANCES as u64)
                .map(|i| black_box(build(SIDE, split_seed(split_seed(plan.seed, i), 0))))
                .collect();
            let s = secs(t);
            drop(nets);
            s
        })
        .collect();
    median(&times) * cal.speed()
}

/// Run with tracing off: the end-to-end metrics.
pub fn untraced(plan: &Plan) -> Outcome {
    let cal = Calibration::new(Kernel::Cache, 1);
    let (reps, rss) = repeat_for(&cal, plan.seconds, INSTANCES, |i| {
        rep(plan, i % INSTANCES, Variant::Untraced)
    });
    let mut out = Outcome::new();
    let firsts = &reps[..INSTANCES];
    let first: Vec<QueueReport> = firsts.iter().map(|r| r.run.report.clone()).collect();
    for r in &reps {
        check(&mut out, r, &first);
    }
    let per = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mean =
        |f: fn(&Run) -> f64| firsts.iter().map(|r| f(&r.run)).sum::<f64>() / INSTANCES as f64;
    out.speed = cal.speed();
    let mut m = scaled(
        vec![
            Metric::new("wall_s", per(|r| r.wall_s), "s"),
            Metric::new(
                "requests_per_s",
                per(|r| r.run.arrivals as f64 / r.run.engine_s),
                "1/s",
            ),
            Metric::new(
                "events_per_s",
                per(|r| r.run.events() / r.run.engine_s),
                "1/s",
            ),
        ],
        out.speed,
    );
    m.extend([
        Metric::new("setup_s", setup_s(plan), "s"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new("max_load", mean(|r| r.report.max_queue as f64), "requests"),
        Metric::new("comm_cost", mean(|r| r.report.comm_cost), "hops"),
        Metric::new(
            "sojourn_p99",
            mean(|r| sojourn_p99(&r.positions)),
            "mean_svc",
        ),
    ]);
    out.metrics = spec::end_to_end(&m);
    out
}

/// Traced run: the per-layer split, on the first input.
pub fn traced(plan: &Plan) -> Outcome {
    let cal = Calibration::new(Kernel::Cache, 1);
    let (reps, _): (Vec<(Variant, Rep)>, _) = repeat_for(&cal, plan.seconds, 1, |i| {
        let v = Variant::CYCLE[i % 3];
        (v, rep(plan, 0, v))
    });
    let mut out = Outcome::new();
    let first = [reps[0].1.run.report.clone()];
    for (_, r) in &reps {
        check(&mut out, r, &first);
    }
    let variants = Variants::from_samples(
        &reps
            .iter()
            .map(|(v, r)| (*v, r.wall_s, r.run.engine_s))
            .collect::<Vec<_>>(),
    );
    let traced: Vec<&Run> = reps
        .iter()
        .filter(|(v, _)| *v == Variant::Traced)
        .map(|(_, r)| &r.run)
        .collect();
    let sum = |f: fn(&Run) -> f64| traced.iter().map(|r| f(r)).sum::<f64>();
    let assign_ns = sum(|r| r.assign.0 as f64);
    let source_ns = sum(|r| r.source.0 as f64);
    let engine_ns = sum(|r| r.engine_s * 1e9);
    let snap = reps
        .iter()
        .find_map(|(v, r)| (*v == Variant::Traced).then(|| r.snapshot.clone()))
        .flatten()
        .unwrap_or_else(TelemetrySnapshot::empty);

    let mut m = vec![
        Metric::new(
            "dispatch.assign_ns",
            assign_ns / sum(|r| r.assign.1 as f64),
            "ns",
        ),
        Metric::new(
            "source.next_request_ns",
            source_ns / sum(|r| r.source.1 as f64),
            "ns",
        ),
        Metric::new(
            "queue.event_ns",
            (engine_ns - assign_ns - source_ns) / sum(Run::events),
            "ns",
        ),
    ];
    cal.probe();
    m.extend(layers::topology(&Torus::new(SIDE), None, plan.seed));
    m.extend(variants.metrics());
    out.speed = cal.speed();
    let mut m = scaled(m, out.speed);
    m.push(Metric::new(
        "queue.dispatch_share",
        assign_ns / engine_ns,
        "share",
    ));
    m.push(Metric::new("placement.build_s", setup_s(plan), "s"));
    m.extend(layers::sampler(&snap));
    m.push(Metric::new("queue.event_ns.slope", ladder(plan), "slope"));
    out.metrics = spec::per_layer(&m);
    out
}

/// Engine nanoseconds per event, net of dispatch and request drawing, at
/// sides 16, 32 and 64 (n/16, n/4, n) on a shorter horizon, and their
/// log-log slope (which a machine-speed factor common to all three points
/// does not change).
fn ladder(plan: &Plan) -> f64 {
    let cfg = config(80.0, 20.0);
    let points: Vec<(f64, f64)> = [SIDE / 4, SIDE / 2, SIDE]
        .iter()
        .map(|&side| {
            let net = build(side, split_seed(plan.seed, 0));
            let per: Vec<f64> = (0..3)
                .map(|i| {
                    let s = ProximityChoice::two_choice(None);
                    engine(&net, s, &cfg, split_seed(plan.seed, 10 + i), true).event_ns()
                })
                .collect();
            ((side * side) as f64, median(&per))
        })
        .collect();
    layers::slope(&points)
}
