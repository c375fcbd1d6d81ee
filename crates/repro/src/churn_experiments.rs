//! The churn-robustness experiment and its gates (schema `paba-churn/1`).
//!
//! The paper's guarantees hold for a frozen placement; this suite asserts
//! the implementation degrades gracefully when the placement is *not*
//! frozen. Every run simulates the same seeded network three ways —
//! static baseline, churned with two-choices repair, churned with repair
//! disabled — against one seeded [`ChurnSchedule`], and gates:
//!
//! * **repair-on max load** is non-inferior to the static baseline
//!   (paired per-run differences, `z ≥ −Z_NONINF`);
//! * **repair-on placement mass** recovers to near the nominal `n·M`
//!   level once every cycled node has rejoined;
//! * **repair-off runs complete** with a bounded failed fraction — the
//!   stale directory degrades service, it must not collapse it;
//! * **failover is actually exercised** — a schedule too gentle to force
//!   dead-replica retries would make the other gates vacuous;
//! * **the schedule applies pressure** — ≥10% of nodes cycle and content
//!   inserts trigger capacity evictions in every run.

use crate::artifact::{Gate, Metric};
use crate::experiments::Z_NONINF;
use crate::{check_network, too_large, ReproConfig};
use paba_churn::{simulate_churn, ChurnCfg, ChurnSchedule, RepairPolicy, ScheduleSpec};
use paba_core::{simulate_source, CacheNetwork, IidUniform, ProximityChoice};
use paba_mcrunner::{run_parallel, run_parallel_live, summarize, LiveRun};
use paba_popularity::Popularity;
use paba_telemetry::{NullRecorder, Recorder};
use paba_theory::mean_gap_z;
use paba_topology::Torus;
use paba_util::envcfg::Scale;
use paba_util::mix_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Repair-off runs must complete at least this fraction of requests.
pub const MIN_COMPLETED_FRACTION: f64 = 0.75;
/// Non-inferiority margin for the repair-on max-load gate, as a fraction
/// of the static baseline mean. Sustained churn with immediate repair is
/// allowed a small systematic max-load penalty (re-homed replicas are
/// placed by cache occupancy, not by realized request load); beyond this
/// margin the degradation reads as a repair-quality regression.
pub const MAX_LOAD_MARGIN: f64 = 0.10;
/// Repair-on runs must retain at least this fraction of nominal `n·M`
/// cached mass after the last join has refilled.
pub const MIN_MASS_RATIO: f64 = 0.6;

/// Per-run metric layout produced by [`run_one`].
const N_METRICS: usize = 12;
const METRIC_IDS: [&str; N_METRICS] = [
    "churn/static/max_load",
    "churn/static/comm_cost",
    "churn/repaired/max_load",
    "churn/repaired/comm_cost",
    "churn/diff/max_load",
    "churn/repaired/migrations",
    "churn/repaired/mean_t_u_ratio",
    "churn/unrepaired/max_load",
    "churn/unrepaired/failed_fraction",
    "churn/unrepaired/retries_per_request",
    "churn/unrepaired/evictions",
    "churn/schedule/cycled_fraction",
];

/// CLI-facing overrides of the per-scale churn regime. `None` keeps the
/// scale default — the configuration the committed golden was generated
/// with. Overriding any knob still produces a valid `paba-churn/1`
/// artifact (same gate/metric ids), but `--check` against a
/// default-regime golden will rightly flag the changed behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChurnParams {
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
    /// Fraction of nodes cycled down and back up.
    pub cycle_fraction: Option<f64>,
    /// Of the cycled nodes, the fraction leaving gracefully vs crashing.
    pub graceful_fraction: Option<f64>,
    /// Content-insert events per run.
    pub inserts: Option<u32>,
    /// Repair policy of the repaired arm (the unrepaired arm is always
    /// [`RepairPolicy::None`]).
    pub repair: Option<RepairPolicy>,
    /// Dead-replica probes allowed per request before degraded serve.
    pub retry_budget: Option<u32>,
    /// Ring replica-set size for handoff/refill.
    pub replication: Option<u32>,
}

/// One churn-experiment parameterization: the scale default with the
/// [`ChurnParams`] overrides applied, validated.
pub(crate) struct Regime {
    side: u32,
    k: u32,
    m: u32,
    gamma: f64,
    radius: u32,
    repair: RepairPolicy,
    retry_budget: u32,
    replication: u32,
    spec: ScheduleSpec,
}

impl Regime {
    /// Resolve `p` over the `scale` defaults and reject a regime the
    /// engines cannot run. Errors name the CLI flag of the bad value.
    pub(crate) fn resolve(scale: Scale, p: &ChurnParams) -> Result<Self, String> {
        let (side, k, m, radius, inserts) = match scale {
            Scale::Quick => (12, 60, 6, 4, 16),
            Scale::Default => (20, 200, 8, 5, 40),
            Scale::Full => (28, 400, 10, 6, 80),
        };
        let defaults = ChurnCfg::default();
        let r = Regime {
            side: p.side.unwrap_or(side),
            k: p.files.unwrap_or(k),
            m: p.cache.unwrap_or(m),
            gamma: p.gamma.unwrap_or(0.8),
            radius: p.radius.unwrap_or(radius),
            repair: p.repair.unwrap_or(RepairPolicy::TwoChoices),
            retry_budget: p.retry_budget.unwrap_or(defaults.retry_budget),
            replication: p.replication.unwrap_or(defaults.replication),
            spec: ScheduleSpec {
                cycle_fraction: p.cycle_fraction.unwrap_or(0.2),
                graceful_fraction: p.graceful_fraction.unwrap_or(0.5),
                inserts: p.inserts.unwrap_or(inserts),
            },
        };
        // A schedule cycles at least one node and keeps at least one up.
        check_network(r.side, 2, r.k, Some(r.m), r.gamma)?;
        if r.replication == 0 {
            // Zero replicas would place nothing on insert and hand off
            // nothing on leave: not a regime, a typo.
            return Err("--replication must be at least 1, got 0".into());
        }
        for (flag, v) in [
            ("cycle-fraction", r.spec.cycle_fraction),
            ("graceful-fraction", r.spec.graceful_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("--{flag}: expected a fraction in [0, 1], got {v}"));
            }
        }
        Ok(r)
    }
}

/// Build the regime's network from `seed` and run one arm on it, or
/// return the error naming the flags when the network does not fit in
/// memory (before any placement draw).
fn arm<F>(seed: u64, regime: &Regime, f: F) -> Result<[f64; N_METRICS], String>
where
    F: FnOnce(&mut CacheNetwork<Torus>, &mut SmallRng) -> [f64; N_METRICS],
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let pop = if regime.gamma == 0.0 {
        Popularity::Uniform
    } else {
        Popularity::zipf(regime.gamma)
    };
    let mut net: CacheNetwork<Torus> = CacheNetwork::builder()
        .torus_side(regime.side)
        .library(regime.k, pop)
        .cache_size(regime.m)
        .try_build(&mut rng)
        .map_err(|e| too_large(regime.side, regime.k, regime.m, &e))?;
    Ok(f(&mut net, &mut rng))
}

/// One seeded network, three arms, one schedule → the metric row, or
/// the error naming the flags when the network does not fit in memory.
fn run_one<R: Recorder>(
    regime: &Regime,
    rng: &mut SmallRng,
    rec: &R,
) -> Result<[f64; N_METRICS], String> {
    // Derive every arm's seed up front so arms stay independent of each
    // other's draw counts (and the row stays a pure function of `rng`).
    let net_seed: u64 = rng.gen();
    let schedule_seed: u64 = rng.gen();
    let run_seed: u64 = rng.gen();

    let n = regime.side * regime.side;
    let requests = 4 * n as u64;

    // Arm 1: static baseline — identical network seed, no events. It runs
    // before the schedule is generated, so an oversized regime fails in
    // its network build, before the schedule allocates n-entry vectors.
    let sim_static = arm(net_seed, regime, |net, _| {
        let mut strategy = ProximityChoice::two_choice(Some(regime.radius));
        let mut source = IidUniform::new();
        let mut run_rng = SmallRng::seed_from_u64(run_seed);
        let rep = simulate_source(net, &mut strategy, &mut source, requests, &mut run_rng);
        let mut o = [0.0; N_METRICS];
        o[0] = rep.max_load() as f64;
        o[1] = rep.comm_cost();
        o
    })?;

    let schedule = ChurnSchedule::generate(&regime.spec, n, regime.k, requests, schedule_seed);
    let (crashes, leaves, _joins, _inserts) = schedule.counts();
    let cycled_fraction = (crashes + leaves) as f64 / n as f64;
    let nominal = n as u64 * regime.m as u64;

    let mut out = [0.0; N_METRICS];
    out[11] = cycled_fraction;
    out[0] = sim_static[0];
    out[1] = sim_static[1];

    // Arm 2: churned, with active repair (two-choices by default).
    let repaired = arm(net_seed, regime, |net, _| {
        let cfg = ChurnCfg {
            repair: regime.repair,
            retry_budget: regime.retry_budget,
            replication: regime.replication,
            salt: schedule_seed,
            ..ChurnCfg::default()
        };
        let mut strategy = ProximityChoice::two_choice(Some(regime.radius));
        let mut source = IidUniform::new();
        let mut run_rng = SmallRng::seed_from_u64(run_seed);
        let (sim, churn) = simulate_churn(
            net,
            &mut strategy,
            &mut source,
            requests,
            &schedule,
            cfg,
            &mut run_rng,
            rec,
        );
        let mass: u64 = (0..net.n()).map(|u| net.placement().t_u(u) as u64).sum();
        let mut o = [0.0; N_METRICS];
        o[2] = sim.max_load() as f64;
        o[3] = sim.comm_cost();
        o[5] = churn.migrations as f64;
        o[6] = mass as f64 / nominal as f64;
        o
    })?;
    out[2] = repaired[2];
    out[3] = repaired[3];
    out[4] = repaired[2] - out[0]; // paired max-load difference
    out[5] = repaired[5];
    out[6] = repaired[6];

    // Arm 3: churned, repair off — stale directory, failover exercised.
    let unrepaired = arm(net_seed, regime, |net, _| {
        let cfg = ChurnCfg {
            repair: RepairPolicy::None,
            retry_budget: regime.retry_budget,
            replication: regime.replication,
            salt: schedule_seed,
            ..ChurnCfg::default()
        };
        let mut strategy = ProximityChoice::two_choice(Some(regime.radius));
        let mut source = IidUniform::new();
        let mut run_rng = SmallRng::seed_from_u64(run_seed);
        let (sim, churn) = simulate_churn(
            net,
            &mut strategy,
            &mut source,
            requests,
            &schedule,
            cfg,
            &mut run_rng,
            rec,
        );
        let mut o = [0.0; N_METRICS];
        o[7] = sim.max_load() as f64;
        o[8] = churn.failed as f64 / requests as f64;
        o[9] = churn.retries as f64 / requests as f64;
        o[10] = churn.evictions as f64;
        o
    })?;
    out[7] = unrepaired[7];
    out[8] = unrepaired[8];
    out[9] = unrepaired[9];
    out[10] = unrepaired[10];
    Ok(out)
}

/// The churn experiment over `runs` seeded networks: metrics + the five
/// robustness gates, or the first run's error for a network too large
/// for memory. `live` (the `--serve-metrics` path) shares one
/// recorder across every worker so a concurrent scrape sees churn events,
/// retries, and repair migrations as they happen — the recorder never
/// touches the RNG stream, so results are identical with or without it.
pub(crate) fn run(
    cfg: &ReproConfig,
    regime: &Regime,
    runs: usize,
    live: Option<&LiveRun>,
    gates: &mut Vec<Gate>,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let master = mix_seed(cfg.seed, 0xC4234);
    let rows = match live {
        Some(l) => run_parallel_live(runs, master, cfg.threads, l, |rec, _i, rng| {
            run_one(regime, rng, rec)
        }),
        None => run_parallel(runs, master, cfg.threads, |_i, rng: &mut SmallRng| {
            run_one(regime, rng, &NullRecorder)
        }),
    };
    let rows = rows.into_iter().collect::<Result<Vec<_>, _>>()?;

    let col = |i: usize| summarize(rows.iter().map(move |r| r[i]));
    let min_col = |i: usize| rows.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min);
    for (i, id) in METRIC_IDS.iter().enumerate() {
        let s = col(i);
        metrics.push(Metric {
            id: id.to_string(),
            mean: s.mean,
            std_err: s.std_err,
            runs: s.count,
        });
    }

    // Gate 1: repair-on max load non-inferior to static, on the paired
    // per-run differences (same network seed, same request seed). The
    // margin is absolute (a fraction of the static mean), so the gate
    // tests the *size* of the degradation and does not tighten as run
    // counts grow the way a pure-z comparison would.
    let diff = col(4);
    let stat = col(0);
    let rep = col(2);
    let margin = MAX_LOAD_MARGIN * stat.mean;
    let z = if diff.std_err > 0.0 {
        mean_gap_z(margin, 0.0, diff.mean, diff.std_err)
    } else if diff.mean <= margin {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    };
    gates.push(Gate {
        id: "churn/repair-on/max-load-noninferior".into(),
        passed: z >= -Z_NONINF,
        statistic: z,
        threshold: -Z_NONINF,
        p_false_pass: f64::NAN,
        detail: format!(
            "paired max-load diff {:+.3}±{:.3} vs margin {margin:.3} \
             (static {:.2}, repaired {:.2} over {runs} runs); \
             churned may not exceed static+margin by more than {Z_NONINF} combined SE",
            diff.mean, diff.std_err, stat.mean, rep.mean
        ),
    });

    // Gate 2: repair restores cached mass on every run.
    let worst_mass = min_col(6);
    gates.push(Gate {
        id: "churn/repair-on/mass-restored".into(),
        passed: worst_mass >= MIN_MASS_RATIO,
        statistic: worst_mass,
        threshold: MIN_MASS_RATIO,
        p_false_pass: f64::NAN,
        detail: format!(
            "worst-run cached mass after churn+repair: {:.3} of nominal n·M \
             (mean {:.3}, {} repair migrations/run)",
            worst_mass,
            col(6).mean,
            col(5).mean
        ),
    });

    // Gate 3: with repair off every run still completes the bulk of its
    // requests despite the stale directory.
    let worst_completed = 1.0 - rows.iter().map(|r| r[8]).fold(0.0, f64::max);
    gates.push(Gate {
        id: "churn/repair-off/completes-bounded".into(),
        passed: worst_completed >= MIN_COMPLETED_FRACTION,
        statistic: worst_completed,
        threshold: MIN_COMPLETED_FRACTION,
        p_false_pass: f64::NAN,
        detail: format!(
            "worst-run completed fraction {:.3} with repair disabled \
             (mean failed fraction {:.4}, {:.3} retries/request)",
            worst_completed,
            col(8).mean,
            col(9).mean
        ),
    });

    // Gate 4: the failover path actually fired in every run — otherwise
    // the bounded-degradation gate asserts nothing.
    let worst_retries = min_col(9);
    gates.push(Gate {
        id: "churn/repair-off/failover-exercised".into(),
        passed: worst_retries > 0.0,
        statistic: worst_retries,
        threshold: f64::MIN_POSITIVE,
        p_false_pass: f64::NAN,
        detail: format!(
            "worst-run dead-replica retries per request: {worst_retries:.4} \
             (mean {:.4}) — stale directories must be probed",
            col(9).mean
        ),
    });

    // Gate 5: the schedule applies real pressure — ≥10% of nodes cycle
    // and capacity evictions occur in every run.
    let worst_cycled = min_col(11);
    let worst_evictions = min_col(10);
    let pressure = (worst_cycled / 0.1).min(worst_evictions);
    gates.push(Gate {
        id: "churn/schedule/pressure".into(),
        passed: pressure >= 1.0,
        statistic: pressure,
        threshold: 1.0,
        p_false_pass: f64::NAN,
        detail: format!(
            "worst-run cycled fraction {worst_cycled:.3} (needs ≥ 0.1), \
             worst-run capacity evictions {worst_evictions:.0} (needs ≥ 1)"
        ),
    });
    Ok(())
}
