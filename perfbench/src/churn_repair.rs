//! `churn-repair`: placement writes interleaved with dispatch reads.
//!
//! One thread runs `simulate_churn` on side 32 (n = 1024, K = 256, M = 6,
//! Zipf 0.8) with Strategy II at r = 4 and 4n IID requests, while a seeded
//! schedule cycles 20% of the nodes (half leave gracefully, half crash),
//! inserts 16 files under capacity pressure, and two-choices repair
//! re-homes lost replicas. Repetitions cycle through [`INSTANCES`] seeded
//! inputs, and each must reproduce its input's first reports.
//!
//! The traced run re-runs the request loop in this file through the public
//! `ChurnEngine::{new, apply, is_alive, failover}` calls, timing each
//! event, and checks that it reproduces `simulate_churn` bit for bit.

use crate::calib::{Calibration, Kernel};
use crate::layers::{self, Variant, Variants};
use crate::measure::{median, repeat_for, scaled, secs, sojourn_p99, Audited};
use crate::measure::{Metric, Outcome, Timed};
use crate::{spec, Plan};
use paba_churn::{
    simulate_churn, ChurnCfg, ChurnEngine, ChurnEventKind, ChurnReport, ChurnSchedule,
    RepairPolicy, ScheduleSpec,
};
use paba_core::UncachedPolicy;
use paba_core::{CacheNetwork, IidUniform, ProximityChoice, RequestSource, SimReport, Strategy};
use paba_dht::HashRing;
use paba_popularity::Popularity;
use paba_telemetry::{AtomicRecorder, NullRecorder, Recorder, TelemetrySnapshot};
use paba_topology::Torus;
use paba_util::split_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

pub const SIDE: u32 = 32;
pub const CACHE: u32 = 6;
pub const GAMMA: f64 = 0.8;
pub const RADIUS: u32 = 4;
/// Seeded inputs the repetitions cycle through.
pub const INSTANCES: usize = 4;
/// Timed set-ups whose median is `setup_s`.
const SETUP_REPEATS: usize = 31;

/// Library size at `side`: n/4, so K = 256 at side 32.
fn files(side: u32) -> u32 {
    side * side / 4
}

/// The schedule at `side`: 16 inserts at n = 1024, scaled with n.
fn schedule_spec(side: u32) -> ScheduleSpec {
    ScheduleSpec {
        cycle_fraction: 0.2,
        graceful_fraction: 0.5,
        inserts: (side * side / 64).max(1),
    }
}

/// Everything built before the first request.
struct Inputs {
    net: CacheNetwork<Torus>,
    schedule: ChurnSchedule,
    cfg: ChurnCfg,
    requests: u64,
}

fn inputs(side: u32, seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(split_seed(seed, 0));
    let net = CacheNetwork::builder()
        .torus_side(side)
        .library(files(side), Popularity::zipf(GAMMA))
        .cache_size(CACHE)
        .build(&mut rng);
    let requests = 4 * net.n() as u64;
    let schedule = ChurnSchedule::generate(
        &schedule_spec(side),
        net.n(),
        net.k(),
        requests,
        split_seed(seed, 1),
    );
    let cfg = ChurnCfg {
        repair: RepairPolicy::TwoChoices,
        salt: split_seed(seed, 2),
        ..ChurnCfg::default()
    };
    Inputs {
        net,
        schedule,
        cfg,
        requests,
    }
}

fn strategy() -> ProximityChoice {
    ProximityChoice::two_choice(Some(RADIUS))
}

fn source() -> IidUniform {
    IidUniform::with_policy(UncachedPolicy::ResampleFile)
}

fn kind_index(kind: ChurnEventKind) -> usize {
    match kind {
        ChurnEventKind::Crash { .. } => 0,
        ChurnEventKind::Leave { .. } => 1,
        ChurnEventKind::Join { .. } => 2,
        ChurnEventKind::Insert { .. } => 3,
    }
}

const KINDS: [&str; 4] = ["crash", "leave", "join", "insert"];

/// What one pass of the request loop returns.
struct LoopOut {
    sim: SimReport,
    churn: ChurnReport,
    violations: u64,
    positions: Vec<u64>,
    /// Per event kind: nanoseconds inside `apply`, and events.
    apply: [(u64, u64); 4],
    failover: (u64, u64),
    assign: (u64, u64),
    source: (u64, u64),
}

/// `simulate_churn` itself.
fn engine_loop<S: Strategy<Torus>, Rec: Recorder>(
    inp: &mut Inputs,
    strategy: S,
    rng: &mut SmallRng,
    rec: &Rec,
) -> LoopOut {
    let mut audited = Audited::new(strategy, Some(RADIUS), 0);
    let (sim, churn) = simulate_churn(
        &mut inp.net,
        &mut audited,
        &mut source(),
        inp.requests,
        &inp.schedule,
        inp.cfg,
        rng,
        rec,
    );
    LoopOut {
        sim,
        churn,
        violations: audited.violations,
        positions: audited.positions,
        apply: [(0, 0); 4],
        failover: (0, 0),
        assign: (0, 0),
        source: (0, 0),
    }
}

/// The loop of `simulate_churn`, written out over the public
/// `ChurnEngine` calls so every layer can be timed, plus
/// `extra_mutations` no-op `mutate_placement` calls after each event (the
/// negative control's injected slowdown; 0 otherwise).
fn public_loop<S: Strategy<Torus>, Rec: Recorder>(
    inp: &mut Inputs,
    strategy: S,
    rng: &mut SmallRng,
    rec: &Rec,
    extra_mutations: u32,
) -> LoopOut {
    let net = &mut inp.net;
    let mut engine = ChurnEngine::new(net, inp.cfg);
    let mut strategy = Timed::new(Audited::new(strategy, Some(RADIUS), 0));
    let mut source = Timed::new(source());
    let mut sim = SimReport::new(net.n());
    let mut apply = [(0u64, 0u64); 4];
    let mut failover = (0u64, 0u64);
    let events = inp.schedule.events();
    let mut next = 0;
    for i in 0..inp.requests {
        while next < events.len() && events[next].at <= i {
            let kind = events[next].kind;
            let t = Instant::now();
            engine.apply(net, kind, rng, rec);
            let slot = &mut apply[kind_index(kind)];
            slot.0 += t.elapsed().as_nanos() as u64;
            slot.1 += 1;
            for _ in 0..extra_mutations {
                net.mutate_placement(|_| ());
            }
            next += 1;
        }
        let req = source.next_request(net, rng);
        let a = strategy.assign(net, &sim.loads, req, rng);
        if engine.is_alive(a.server) {
            sim.record(a.server, a.hops, a.fallback);
        } else {
            let t = Instant::now();
            let served = engine.failover(net, req, a.server, rng, rec);
            failover.0 += t.elapsed().as_nanos() as u64;
            failover.1 += 1;
            match served {
                Some((server, hops)) => sim.record(server, hops, a.fallback),
                None => sim.record(req.origin, 0, None),
            }
        }
    }
    let (assign, source) = ((strategy.ns, strategy.calls), (source.ns, source.calls));
    let audited = strategy.into_inner();
    LoopOut {
        sim,
        churn: engine.into_report(),
        violations: audited.violations,
        positions: audited.positions,
        apply,
        failover,
        assign,
        source,
    }
}

struct Rep {
    wall_s: f64,
    loop_s: f64,
    instance: usize,
    out: LoopOut,
    snapshot: Option<TelemetrySnapshot>,
    /// The network after the run (traced variant).
    net: Option<CacheNetwork<Torus>>,
}

fn rep(plan: &Plan, instance: usize, variant: Variant) -> Rep {
    let seed = split_seed(plan.seed, instance as u64);
    let t0 = Instant::now();
    let mut inp = inputs(SIDE, seed);
    let mut rng = SmallRng::seed_from_u64(split_seed(seed, 3));
    let rec = AtomicRecorder::new();
    let t1 = Instant::now();
    // Untraced and Atomic run `simulate_churn`, Traced the timed public
    // loop; the negative control runs the public loop untraced on both
    // sides of its comparison.
    let out = match (variant, plan.inject.mutations_per_event) {
        (Variant::Untraced, Some(extra)) => {
            public_loop(&mut inp, strategy(), &mut rng, &NullRecorder, extra)
        }
        (Variant::Untraced, None) => engine_loop(&mut inp, strategy(), &mut rng, &NullRecorder),
        (Variant::Atomic, _) => {
            engine_loop(&mut inp, strategy().with_recorder(&rec), &mut rng, &rec)
        }
        (Variant::Traced, _) => {
            public_loop(&mut inp, strategy().with_recorder(&rec), &mut rng, &rec, 0)
        }
    };
    Rep {
        wall_s: secs(t0),
        loop_s: secs(t1),
        instance,
        out,
        snapshot: (variant != Variant::Untraced).then(|| rec.snapshot()),
        net: (variant == Variant::Traced).then_some(inp.net),
    }
}

/// Conservation, radius, bounded retries, and the same reports as the
/// input's first repetition (`simulate_churn`'s). Degraded requests count
/// as failed.
fn check(out: &mut Outcome, rep: &Rep, first: &[&LoopOut]) {
    let (sim, churn) = (&rep.out.sim, &rep.out.churn);
    let first = first[rep.instance];
    let requests = sim.total_requests;
    out.attempted += requests;
    out.failed += churn.failed;
    let cap = requests * (1 + ChurnCfg::default().retry_budget as u64);
    let why = if !sim.check_conservation() {
        "loads do not sum to requests".to_string()
    } else if rep.out.violations > 0 {
        format!("{} assignments beyond r", rep.out.violations)
    } else if churn.retries > cap {
        format!(
            "{} retries exceed requests·(1 + budget) = {cap}",
            churn.retries
        )
    } else if *sim != first.sim || *churn != first.churn {
        format!(
            "input {}: reports differ from simulate_churn's",
            rep.instance
        )
    } else {
        return;
    };
    out.fail(requests, why);
}

/// Median time to set up all [`INSTANCES`] inputs (network, schedule,
/// and the engine's ring), and the median time of the network builds
/// alone, at machine speed.
fn setup_s(plan: &Plan) -> (f64, f64) {
    let cal = Calibration::new(Kernel::Cache, 1);
    let (total, build): (Vec<f64>, Vec<f64>) = (0..SETUP_REPEATS)
        .map(|_| {
            cal.probe();
            let t = Instant::now();
            let all: Vec<Inputs> = (0..INSTANCES as u64)
                .map(|i| black_box(inputs(SIDE, split_seed(plan.seed, i))))
                .collect();
            let build = secs(t);
            let engines: Vec<ChurnEngine> = all
                .iter()
                .map(|inp| black_box(ChurnEngine::new(&inp.net, inp.cfg)))
                .collect();
            let total = secs(t);
            drop((all, engines));
            (total, build)
        })
        .unzip();
    let speed = cal.speed();
    (median(&total) * speed, median(&build) * speed)
}

/// Run with tracing off: the end-to-end metrics.
pub fn untraced(plan: &Plan) -> Outcome {
    let cal = Calibration::new(Kernel::Cache, 1);
    let (reps, rss) = repeat_for(&cal, plan.seconds, INSTANCES, |i| {
        rep(plan, i % INSTANCES, Variant::Untraced)
    });
    let mut out = Outcome::new();
    let firsts: Vec<&LoopOut> = reps[..INSTANCES].iter().map(|r| &r.out).collect();
    for r in &reps {
        check(&mut out, r, &firsts);
    }
    let per = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mean = |f: fn(&LoopOut) -> f64| firsts.iter().map(|o| f(o)).sum::<f64>() / INSTANCES as f64;
    let requests = |r: &Rep| r.out.sim.total_requests as f64;
    let events = |r: &Rep| requests(r) + r.out.churn.events_applied as f64;
    out.speed = cal.speed();
    let mut m = scaled(
        vec![
            Metric::new("wall_s", per(&|r| r.wall_s), "s"),
            Metric::new("requests_per_s", per(&|r| requests(r) / r.loop_s), "1/s"),
            Metric::new("events_per_s", per(&|r| events(r) / r.loop_s), "1/s"),
        ],
        out.speed,
    );
    m.extend([
        Metric::new("setup_s", setup_s(plan).0, "s"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new("max_load", mean(|o| o.sim.max_load() as f64), "requests"),
        Metric::new("comm_cost", mean(|o| o.sim.comm_cost()), "hops"),
        Metric::new(
            "sojourn_p99",
            mean(|o| sojourn_p99(&o.positions)),
            "mean_svc",
        ),
    ]);
    out.metrics = spec::end_to_end(&m);
    out
}

/// Traced run: the per-layer split, on the first input.
pub fn traced(plan: &Plan) -> Outcome {
    let cal = Calibration::new(Kernel::Cache, 1);
    let (mut reps, _): (Vec<(Variant, Rep)>, _) = repeat_for(&cal, plan.seconds, 1, |i| {
        let v = Variant::CYCLE[i % 3];
        (v, rep(plan, 0, v))
    });
    let mut out = Outcome::new();
    for (_, r) in &reps {
        check(&mut out, r, &[&reps[0].1.out]);
    }
    let variants = Variants::from_samples(
        &reps
            .iter()
            .map(|(v, r)| (*v, r.wall_s, r.loop_s))
            .collect::<Vec<_>>(),
    );
    let traced: Vec<&Rep> = reps
        .iter()
        .filter(|(v, _)| *v == Variant::Traced)
        .map(|(_, r)| r)
        .collect();
    let total = |f: &dyn Fn(&LoopOut) -> (u64, u64)| {
        traced
            .iter()
            .map(|r| f(&r.out))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    let mean = |(ns, n): (u64, u64)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let apply_ns: u64 = (0..4).map(|k| total(&|o| o.apply[k]).0).sum();
    let loop_ns: f64 = traced.iter().map(|r| r.loop_s * 1e9).sum();
    let churn = traced[0].out.churn;
    let snap = traced[0]
        .snapshot
        .clone()
        .unwrap_or_else(TelemetrySnapshot::empty);

    let mut m = vec![
        Metric::new("dispatch.assign_ns", mean(total(&|o| o.assign)), "ns"),
        Metric::new("source.next_request_ns", mean(total(&|o| o.source)), "ns"),
        Metric::new("churn.failover_ns", mean(total(&|o| o.failover)), "ns"),
    ];
    for (k, kind) in KINDS.iter().enumerate() {
        let name = format!("churn.apply_ns.{kind}");
        m.push(Metric::new(name, mean(total(&|o| o.apply[k])), "ns"));
    }
    let mut end_state = reps
        .iter_mut()
        .rev()
        .find_map(|(_, r)| r.net.take())
        .expect("a traced repetition ran");
    let inp = inputs(SIDE, split_seed(plan.seed, 0));
    let ring = HashRing::new(inp.net.n(), inp.cfg.vnodes, inp.cfg.salt);
    let replication = inp.cfg.replication as usize;
    cal.probe();
    m.extend(layers::topology(&Torus::new(SIDE), Some(RADIUS), plan.seed));
    m.extend(layers::dht(
        &ring,
        inp.net.n(),
        inp.net.k(),
        replication,
        plan.seed,
    ));
    m.push(layers::placement_mutate(&mut end_state, plan.seed));
    m.extend(variants.metrics());
    out.speed = cal.speed();
    let mut m = scaled(m, out.speed);
    m.extend([
        Metric::new("placement.build_s", setup_s(plan).1, "s"),
        Metric::new("churn.apply_share", apply_ns as f64 / loop_ns, "share"),
        Metric::new(
            "churn.migrations_per_event",
            churn.migrations as f64 / churn.events_applied.max(1) as f64,
            "ratio",
        ),
        Metric::new("churn.apply_ns.slope", ladder(plan), "slope"),
    ]);
    m.extend(layers::sampler(&snap));
    out.metrics = spec::per_layer(&m);
    out
}

/// Mean `apply` nanoseconds per schedule event at sides 8, 16 and 32
/// (n/16, n/4, n, with K and the inserts scaled with n), and their
/// log-log slope (which a machine-speed factor common to all three points
/// does not change).
fn ladder(plan: &Plan) -> f64 {
    let points: Vec<(f64, f64)> = [SIDE / 4, SIDE / 2, SIDE]
        .iter()
        .map(|&side| {
            let per: Vec<f64> = (0..3)
                .map(|i| {
                    let seed = split_seed(plan.seed, 10 + i);
                    let mut inp = inputs(side, seed);
                    let mut rng = SmallRng::seed_from_u64(split_seed(seed, 3));
                    let o = public_loop(&mut inp, strategy(), &mut rng, &NullRecorder, 0);
                    let (ns, n) = o.apply.iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
                    ns as f64 / n.max(1) as f64
                })
                .collect();
            ((side * side) as f64, median(&per))
        })
        .collect();
    layers::slope(&points)
}
