//! The temporal serving-engine experiment and its gates
//! (schema `paba-queueing/1`).
//!
//! The paper's §VI conjectures that the static balance results carry
//! over to the supermarket model: Poisson arrivals at per-server rate
//! `λ`, FIFO queues with Exp(1) service, dispatch by the same strategy
//! code the static experiments exercise. Every run builds one seeded
//! cache network and drives it three ways with one shared request seed —
//! random replica (`d = 1`), fresh two-choice, and two-choice behind a
//! stale load signal refreshed every `4n` dispatches — then measures an
//! isolated M/M/1 reference at `n = 1`. The gates:
//!
//! * **pow-of-d collapse** — fresh two-choice p99 sojourn sits far below
//!   random dispatch at λ = 0.9 (paired per-run differences, `z ≥ Z_SEP`);
//! * **stale signal still collapses** — even a delayed load signal keeps
//!   most of the pow-of-d win over random;
//! * **no free lunch** — the stale contender is not *significantly
//!   better* than fresh information (that would mean the staleness knob
//!   is disconnected);
//! * **M/M/1 closed form** — at `n = 1` the measured mean sojourn matches
//!   `W = 1/(1−ρ)` within a tight relative tolerance;
//! * **Little's law** — the direct response-time estimator and `L/λ_eff`
//!   agree on every run of the stationary reference;
//! * **throughput conservation** — the in-window completion rate matches
//!   the offered load `λ·n` on every run.

use crate::artifact::{Gate, Metric};
use crate::experiments::Z_NONINF;
use crate::{check_network, too_large, ReproConfig};
use paba_core::{CacheNetwork, ProximityChoice, StaleLoad, Strategy};
use paba_mcrunner::{run_parallel, run_parallel_live, summarize, LiveRun};
use paba_popularity::Popularity;
use paba_supermarket::{simulate_queueing, QueueSimConfig};
use paba_topology::Torus;
use paba_util::envcfg::Scale;
use paba_util::mix_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Required paired-difference z for the separation gates: the pow-of-d
/// collapse must clear its zero point by this many combined standard
/// errors before the gate passes.
pub const Z_SEP: f64 = 3.0;
/// Relative tolerance of the M/M/1 mean sojourn against `1/(1−ρ)`.
pub const MM1_TOL: f64 = 0.05;
/// Worst-run relative gap allowed between the direct mean-response
/// estimator and the Little's-law estimate.
pub const LITTLES_TOL: f64 = 0.10;
/// Worst-run relative deviation allowed between in-window throughput and
/// the offered load `λ·n`.
pub const THROUGHPUT_TOL: f64 = 0.05;
/// Arrival rate of the isolated M/M/1 reference arm.
const MM1_LAMBDA: f64 = 0.7;

/// Per-run metric layout produced by [`run_one`].
const N_METRICS: usize = 17;
const METRIC_IDS: [&str; N_METRICS] = [
    "queueing/random/p99",
    "queueing/random/mean_response",
    "queueing/random/tail4",
    "queueing/two_choice/p99",
    "queueing/two_choice/mean_response",
    "queueing/two_choice/tail4",
    "queueing/two_choice/comm_cost",
    "queueing/two_choice/littles_gap",
    "queueing/two_choice/throughput_ratio",
    "queueing/stale/p99",
    "queueing/stale/mean_response",
    "queueing/diff/rand_minus_two_p99",
    "queueing/diff/rand_minus_stale_p99",
    "queueing/diff/stale_minus_two_p99",
    "queueing/mm1/mean_response",
    "queueing/mm1/p50",
    "queueing/mm1/littles_gap",
];

/// CLI-facing overrides of the per-scale queueing regime. `None` keeps
/// the scale default — the configuration the committed golden was
/// generated with. Overriding any knob still produces a valid
/// `paba-queueing/1` artifact (same gate/metric ids), but `--check`
/// against a default-regime golden will rightly flag the changed
/// behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueueingParams {
    /// Torus side (n = side²).
    pub side: Option<u32>,
    /// Library size K.
    pub files: Option<u32>,
    /// Cache slots per server M.
    pub cache: Option<u32>,
    /// Zipf exponent of the request popularity (0 = uniform).
    pub gamma: Option<f64>,
    /// Two-choice proximity radius.
    pub radius: Option<u32>,
    /// Per-server arrival rate λ of the paired arms.
    pub lambda: Option<f64>,
    /// Simulation end time.
    pub horizon: Option<f64>,
    /// Measurement-window start.
    pub warmup: Option<f64>,
    /// Refresh period of the stale-load contender, in dispatches
    /// (default `4·n`).
    pub stale_period: Option<u64>,
}

/// One queueing-experiment parameterization: the scale default with the
/// [`QueueingParams`] overrides applied, validated.
pub(crate) struct Regime {
    side: u32,
    k: u32,
    m: u32,
    gamma: f64,
    radius: u32,
    lambda: f64,
    horizon: f64,
    warmup: f64,
    stale_period: u64,
}

impl Regime {
    /// Resolve `p` over the `scale` defaults and reject a regime the
    /// engine cannot run. Errors name the CLI flag of the bad value.
    pub(crate) fn resolve(scale: Scale, p: &QueueingParams) -> Result<Self, String> {
        let (side, k, m, radius, horizon, warmup) = match scale {
            Scale::Quick => (6, 24, 4, 3, 3_000.0, 1_000.0),
            Scale::Default => (10, 80, 6, 4, 6_000.0, 2_000.0),
            Scale::Full => (16, 160, 8, 5, 10_000.0, 3_000.0),
        };
        let side = p.side.unwrap_or(side);
        let n = side as u64 * side as u64;
        let r = Regime {
            side,
            k: p.files.unwrap_or(k),
            m: p.cache.unwrap_or(m),
            gamma: p.gamma.unwrap_or(0.8),
            radius: p.radius.unwrap_or(radius),
            lambda: p.lambda.unwrap_or(0.9),
            horizon: p.horizon.unwrap_or(horizon),
            warmup: p.warmup.unwrap_or(warmup),
            // Saturating: `side` is only range-checked below.
            stale_period: p.stale_period.unwrap_or(n.saturating_mul(4)),
        };
        check_network(r.side, 1, r.k, Some(r.m), r.gamma)?;
        check_queue(r.lambda, r.horizon, r.warmup)?;
        if r.stale_period == 0 {
            return Err("--stale-period must be a positive dispatch count".into());
        }
        Ok(r)
    }
}

/// Reject an arrival rate or measurement window the queueing engine
/// cannot run: λ outside (0, 1), a horizon that is not finite, or a
/// warm-up that is negative or does not precede the horizon. Errors name
/// the CLI flag of the bad value. This is the one copy of these checks:
/// the suite and `paba queue` both call it.
pub fn check_queue(lambda: f64, horizon: f64, warmup: f64) -> Result<(), String> {
    if !(lambda > 0.0 && lambda < 1.0) {
        return Err(format!("--lambda must be in (0,1), got {lambda}"));
    }
    if !horizon.is_finite() {
        return Err(format!(
            "--horizon must be a finite simulated time, got {horizon}"
        ));
    }
    if !(0.0..horizon).contains(&warmup) {
        return Err(format!(
            "--warmup must be non-negative and precede --horizon, got warmup {warmup} \
             and horizon {horizon}"
        ));
    }
    Ok(())
}

/// One arm: the shared request seed re-drives the same seeded network
/// under a different dispatch strategy.
fn arm<S: Strategy<Torus>>(
    net: &CacheNetwork<Torus>,
    mut strategy: S,
    cfg: &QueueSimConfig,
    run_seed: u64,
) -> paba_supermarket::QueueReport {
    let mut rng = SmallRng::seed_from_u64(run_seed);
    simulate_queueing(net, &mut strategy, cfg, &mut rng)
}

/// One seeded network, three paired arms plus the M/M/1 reference → the
/// metric row, or the error naming the flags when the network does not
/// fit in memory (returned before any placement draw).
fn run_one(regime: &Regime, rng: &mut SmallRng) -> Result<[f64; N_METRICS], String> {
    // Derive every arm's seed up front so arms stay independent of each
    // other's draw counts (and the row stays a pure function of `rng`).
    let net_seed: u64 = rng.gen();
    let run_seed: u64 = rng.gen();
    let mm1_seed: u64 = rng.gen();

    let pop = if regime.gamma == 0.0 {
        Popularity::Uniform
    } else {
        Popularity::zipf(regime.gamma)
    };
    let mut net_rng = SmallRng::seed_from_u64(net_seed);
    let net: CacheNetwork<Torus> = CacheNetwork::builder()
        .torus_side(regime.side)
        .library(regime.k, pop)
        .cache_size(regime.m)
        .try_build(&mut net_rng)
        .map_err(|e| too_large(regime.side, regime.k, regime.m, &e))?;
    let cfg = QueueSimConfig {
        lambda: regime.lambda,
        horizon: regime.horizon,
        warmup: regime.warmup,
        tail_cap: 32,
        stride: 0,
    };
    let r = Some(regime.radius);

    let random = arm(&net, ProximityChoice::with_choices(r, 1), &cfg, run_seed);
    let two = arm(&net, ProximityChoice::two_choice(r), &cfg, run_seed);
    let stale = arm(
        &net,
        StaleLoad::new(ProximityChoice::two_choice(r), regime.stale_period),
        &cfg,
        run_seed,
    );

    // Isolated M/M/1 reference: n = 1, full replication, random dispatch.
    let mm1_net = {
        let topo = Torus::new(1);
        let library = paba_core::Library::new(4, Popularity::Uniform);
        let placement = paba_core::Placement::full(1, 4);
        CacheNetwork::from_parts(topo, library, placement)
    };
    let mm1_cfg = QueueSimConfig {
        lambda: MM1_LAMBDA,
        horizon: 20_000.0,
        warmup: 2_000.0,
        tail_cap: 16,
        stride: 0,
    };
    let mm1 = arm(
        &mm1_net,
        ProximityChoice::with_choices(None, 1),
        &mm1_cfg,
        mm1_seed,
    );

    let littles_gap = |rep: &paba_supermarket::QueueReport| {
        let direct = rep.mean_response;
        if direct > 0.0 {
            (direct - rep.littles_law_response()).abs() / direct
        } else {
            f64::INFINITY
        }
    };
    let offered = regime.lambda * net.n() as f64;

    let mut out = [0.0; N_METRICS];
    out[0] = random.sojourn_p99;
    out[1] = random.mean_response;
    out[2] = random.tail_at(4);
    out[3] = two.sojourn_p99;
    out[4] = two.mean_response;
    out[5] = two.tail_at(4);
    out[6] = two.comm_cost;
    out[7] = littles_gap(&two);
    out[8] = two.throughput() / offered;
    out[9] = stale.sojourn_p99;
    out[10] = stale.mean_response;
    out[11] = random.sojourn_p99 - two.sojourn_p99;
    out[12] = random.sojourn_p99 - stale.sojourn_p99;
    out[13] = stale.sojourn_p99 - two.sojourn_p99;
    out[14] = mm1.mean_response;
    out[15] = mm1.sojourn_p50;
    out[16] = littles_gap(&mm1);
    Ok(out)
}

/// The queueing experiment over `runs` seeded networks: metrics + the
/// six temporal gates, or the first run's error for a network too large
/// for memory. `live` (the `--serve-metrics` path) exposes run progress
/// to a concurrent scrape — the queueing engine itself records no
/// counters, so the handle is purely an observer and results are
/// identical with or without it.
pub(crate) fn run(
    cfg: &ReproConfig,
    regime: &Regime,
    runs: usize,
    live: Option<&LiveRun>,
    gates: &mut Vec<Gate>,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let master = mix_seed(cfg.seed, 0x9EE1E);
    let rows = match live {
        Some(l) => run_parallel_live(runs, master, cfg.threads, l, |_rec, _i, rng| {
            run_one(regime, rng)
        }),
        None => run_parallel(runs, master, cfg.threads, |_i, rng: &mut SmallRng| {
            run_one(regime, rng)
        }),
    };
    let rows = rows.into_iter().collect::<Result<Vec<_>, _>>()?;

    let col = |i: usize| summarize(rows.iter().map(move |r| r[i]));
    let max_col = |i: usize| rows.iter().map(|r| r[i]).fold(f64::NEG_INFINITY, f64::max);
    for (i, id) in METRIC_IDS.iter().enumerate() {
        let s = col(i);
        metrics.push(Metric {
            id: id.to_string(),
            mean: s.mean,
            std_err: s.std_err,
            runs: s.count,
        });
    }

    // Paired z: how many combined standard errors the mean per-run
    // difference clears zero by. Degenerate SE (identical runs) resolves
    // by sign.
    let paired_z = |i: usize| {
        let d = col(i);
        if d.std_err > 0.0 {
            d.mean / d.std_err
        } else if d.mean > 0.0 {
            f64::INFINITY
        } else if d.mean < 0.0 {
            f64::NEG_INFINITY
        } else {
            0.0
        }
    };

    // Gate 1: fresh two-choice collapses the p99 sojourn below random
    // dispatch at λ = 0.9 — the queueing analogue of pow-of-d balance.
    let z_two = paired_z(11);
    gates.push(Gate {
        id: "queueing/pow-of-d/p99-collapse".into(),
        passed: z_two >= Z_SEP,
        statistic: z_two,
        threshold: Z_SEP,
        p_false_pass: f64::NAN,
        detail: format!(
            "paired p99 sojourn gap random−two-choice {:+.2}±{:.2} over {runs} runs \
             (random {:.2}, two-choice {:.2}); needs z ≥ {Z_SEP}",
            col(11).mean,
            col(11).std_err,
            col(0).mean,
            col(3).mean
        ),
    });

    // Gate 2: the stale-signal contender keeps most of the collapse —
    // delayed information still beats no information.
    let z_stale = paired_z(12);
    gates.push(Gate {
        id: "queueing/stale/still-collapses".into(),
        passed: z_stale >= Z_SEP,
        statistic: z_stale,
        threshold: Z_SEP,
        p_false_pass: f64::NAN,
        detail: format!(
            "paired p99 sojourn gap random−stale {:+.2}±{:.2} over {runs} runs \
             (stale period {} dispatches); needs z ≥ {Z_SEP}",
            col(12).mean,
            col(12).std_err,
            regime.stale_period
        ),
    });

    // Gate 3: no free lunch — the stale contender may tie fresh
    // two-choice within noise but must not be *significantly better*
    // (that would mean the staleness knob is disconnected from dispatch).
    let z_lunch = paired_z(13);
    gates.push(Gate {
        id: "queueing/stale/no-free-lunch".into(),
        passed: z_lunch >= -Z_NONINF,
        statistic: z_lunch,
        threshold: -Z_NONINF,
        p_false_pass: f64::NAN,
        detail: format!(
            "paired p99 sojourn gap stale−two-choice {:+.2}±{:.2} over {runs} runs; \
             stale may not beat fresh by more than {Z_NONINF} combined SE",
            col(13).mean,
            col(13).std_err
        ),
    });

    // Gate 4: the n = 1 arm is an M/M/1 queue, so the measured mean
    // sojourn must match the closed form W = 1/(1−ρ).
    let w_exact = 1.0 / (1.0 - MM1_LAMBDA);
    let mm1 = col(14);
    let rel_err = (mm1.mean - w_exact).abs() / w_exact;
    gates.push(Gate {
        id: "queueing/mm1/closed-form".into(),
        passed: rel_err <= MM1_TOL,
        statistic: rel_err,
        threshold: MM1_TOL,
        p_false_pass: f64::NAN,
        detail: format!(
            "mean sojourn {:.3}±{:.3} vs W = 1/(1−ρ) = {w_exact:.3} at ρ = {MM1_LAMBDA} \
             (relative error {rel_err:.4}, needs ≤ {MM1_TOL})",
            mm1.mean, mm1.std_err
        ),
    });

    // Gate 5: Little's law — the direct mean-response estimator and
    // L/λ_eff agree on every run of the stationary M/M/1 reference
    // (the two-choice arm's gap at near-critical λ is censoring-biased
    // on short windows, so it is reported as a metric, not gated).
    let worst_gap = max_col(16);
    gates.push(Gate {
        id: "queueing/littles-law/consistent".into(),
        passed: worst_gap <= LITTLES_TOL,
        statistic: worst_gap,
        threshold: LITTLES_TOL,
        p_false_pass: f64::NAN,
        detail: format!(
            "worst-run relative gap between direct W and L/λ_eff on the \
             M/M/1 arm: {worst_gap:.4} (mean {:.4}, two-choice arm mean \
             {:.4}, needs ≤ {LITTLES_TOL})",
            col(16).mean,
            col(7).mean
        ),
    });

    // Gate 6: throughput conservation — in-window completions match the
    // offered load λ·n on every run.
    let worst_dev = rows
        .iter()
        .map(|r| (r[8] - 1.0).abs())
        .fold(f64::NEG_INFINITY, f64::max);
    gates.push(Gate {
        id: "queueing/throughput/conserved".into(),
        passed: worst_dev <= THROUGHPUT_TOL,
        statistic: worst_dev,
        threshold: THROUGHPUT_TOL,
        p_false_pass: f64::NAN,
        detail: format!(
            "worst-run |throughput/(λ·n) − 1| = {worst_dev:.4} \
             (mean ratio {:.4}, needs ≤ {THROUGHPUT_TOL})",
            col(8).mean
        ),
    });
    Ok(())
}
