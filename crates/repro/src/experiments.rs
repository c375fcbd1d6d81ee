//! The reproduction experiments and their theorem-derived gates.
//!
//! | experiment | paper result | gate |
//! |---|---|---|
//! | `growth` | Thm 1–2 vs Thm 4/6: Strategy I's max load grows like `Θ(log n / log log n)`, Strategy II's like `Θ(log log n)` | strategy ordering at the largest `n` + slope separation against the one-choice predictor |
//! | `tradeoff` | Thm 4 / §V: communication cost rises `Θ(r)` while max load falls as the ball widens | monotone cost ladder + load non-inferiority + end-to-end load win |
//! | `goodness` | Def. 5 / Lemma 2: proportional placement is `(δ, µ)`-good w.h.p. in the `K = n`, `M = n^α` regime | every sampled placement is good with margin |
//! | `zipf_cost` | Thm 3 / eq. (1): Strategy I's cost grows like `K^{1/2}`, `K^{1−γ/2}` or `K^0` by Zipf regime | each fitted exponent (3 library sizes, Monte-Carlo-propagated error) inside its prediction's band |
//! | `examples` | §IV Example 3: `K = n^{1/2}`, `M = 1`, `r = ∞` keeps the power of two choices | nearest ≫ two-choice at the largest `n` |
//! | `fig3` | Fig. 3–4: at `M = 1` the max load rises then falls with `n`; cost tracks `Θ(√n)` | peak ≫ both ends; cost exponent inside `0.5 ± tol` |
//! | `voronoi` | Lemma 1: the largest Voronoi cell is `Θ(K ln n / M)`, its radius `O(√(K ln n / M))` | both ratios inside a constant band at every `n` and `M` |
//! | `edge_sampling` | Lemma 3(b): each edge of `H` is sampled with probability `O(1/e(H))` | `e(H) · Σ p_e²` below a constant |
//!
//! Every statistical gate is a standardized z-score with an explicit
//! false-pass bound from [`paba_theory::z_tail_bound`]; structural gates
//! (goodness, non-inferiority slacks) carry `NaN` there because no
//! sampling null applies.

use crate::artifact::{Gate, Metric};
use crate::ReproConfig;
use paba_core::{
    build_config_graph, simulate, CacheNetwork, ConfigGraphMethod, GoodnessReport,
    LeastLoadedInBall, NearestReplica, ProximityChoice, Request, SimReport, UncachedPolicy,
    VoronoiComputer,
};
use paba_mcrunner::{run_parallel, summarize, sweep_summaries, PointSummary};
use paba_popularity::Popularity;
use paba_theory::{
    fit_vs_predictor_with_errors, fit_vs_two_choice_scale, mean_gap_z, one_choice_max_load,
    slope_gap_z, z_tail_bound, zipf_cost_exponent_in_k,
};
use paba_topology::Torus;
use paba_util::envcfg::Scale;
use paba_util::{mix_seed, FxHashMap, Summary};
use rand::rngs::SmallRng;

/// z threshold for strict ordering gates (`≫`): false-pass `≤ e⁻⁸ ≈ 3.4·10⁻⁴`.
pub const Z_ORDER: f64 = 4.0;
/// z threshold for monotone-ladder gates: false-pass `≤ e⁻⁴·⁵ ≈ 1.1·10⁻²`
/// per adjacent pair (every pair must clear it).
pub const Z_MONO: f64 = 3.0;
/// z threshold for the slope-separation gate.
pub const Z_SEP: f64 = 3.0;
/// Non-inferiority slack for `≳` comparisons, in combined standard errors.
pub const Z_NONINF: f64 = 2.0;

/// The four per-run metrics every simulation experiment records.
const METRIC_NAMES: [&str; 4] = ["max_load", "comm_cost", "p99_load", "load_stddev"];

fn fill_metrics(report: &SimReport, m: &mut [f64]) {
    m[0] = report.max_load() as f64;
    m[1] = report.comm_cost();
    m[2] = report.load_quantile(0.99) as f64;
    m[3] = report.load_stddev();
}

/// Cache size for the growth regime: `M = ⌈n^0.4⌉` (the paper's
/// `M = n^α` with `α = 0.4`, comfortably inside Lemma 2's `α < 1/2`).
fn growth_m(n: u32) -> u32 {
    (n as f64).powf(0.4).ceil() as u32
}

/// The "√log n-ish" radius ladder rung: `r = ⌈2·√(ln n)⌉`.
fn r_log(n: u32) -> u32 {
    (2.0 * (n as f64).ln().sqrt()).ceil() as u32
}

/// A strategy arm: what one cell of an experiment runs on its network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Strategy I.
    Nearest,
    /// Strategy II: two choices within radius `r` (`None` = `r = ∞`).
    TwoChoice(Option<u32>),
    /// Full-information least-loaded replica within radius `r`.
    LeastLoaded(Option<u32>),
}

impl Arm {
    /// `requests` IID requests under this arm.
    fn simulate(self, net: &CacheNetwork<Torus>, requests: u64, rng: &mut SmallRng) -> SimReport {
        match self {
            Arm::Nearest => simulate(net, &mut NearestReplica::new(), requests, rng),
            Arm::TwoChoice(r) => simulate(net, &mut ProximityChoice::two_choice(r), requests, rng),
            Arm::LeastLoaded(r) => simulate(net, &mut LeastLoadedInBall::new(r), requests, rng),
        }
    }
}

/// The hook a negative control uses to inject the effect a gate is named
/// for. [`crate::Suite::run`] injects nothing ([`Inject::NONE`]).
#[derive(Clone, Copy, Debug)]
pub struct Inject {
    /// Every cell runs `arm(a)` in place of its own arm `a`.
    pub arm: fn(Arm) -> Arm,
    /// Replace the placement popularity of the Lemma 2, eq. (1) and
    /// Lemma 1 experiments with Zipf(γ) (`γ = 0` is uniform).
    pub zipf: Option<f64>,
}

impl Inject {
    /// Run every experiment as written.
    pub const NONE: Inject = Inject {
        arm: same_arm,
        zipf: None,
    };

    /// The popularity a cell places its files by, in place of `own`.
    fn popularity(&self, own: Popularity) -> Popularity {
        self.zipf.map_or(own, Popularity::zipf)
    }
}

fn same_arm(a: Arm) -> Arm {
    a
}

/// Strategy variants of the growth experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    /// Strategy I.
    Nearest,
    /// Strategy II (two choices) with `r = ⌈2√(ln n)⌉`.
    TwoRLog,
    /// Strategy II with constant `r = 3`.
    TwoRConst,
    /// Strategy II with `r = ∞`.
    TwoRInf,
    /// Full-information least-loaded-in-ball with `r = ⌈2√(ln n)⌉`.
    LeastRLog,
}

const VARIANTS: [Variant; 5] = [
    Variant::Nearest,
    Variant::TwoRLog,
    Variant::TwoRConst,
    Variant::TwoRInf,
    Variant::LeastRLog,
];

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Nearest => "nearest",
            Variant::TwoRLog => "two-rlog",
            Variant::TwoRConst => "two-rconst",
            Variant::TwoRInf => "two-rinf",
            Variant::LeastRLog => "least-rlog",
        }
    }

    /// The arm this variant runs on a network of `n` nodes.
    fn arm(self, n: u32) -> Arm {
        match self {
            Variant::Nearest => Arm::Nearest,
            Variant::TwoRLog => Arm::TwoChoice(Some(r_log(n))),
            Variant::TwoRConst => Arm::TwoChoice(Some(3)),
            Variant::TwoRInf => Arm::TwoChoice(None),
            Variant::LeastRLog => Arm::LeastLoaded(Some(r_log(n))),
        }
    }
}

/// Summary of one metric for one `(variant, side)` cell.
fn cell<'a>(
    sums: &'a [PointSummary<(u32, usize)>],
    sides: &[u32],
    variant: Variant,
    side: u32,
    metric: usize,
) -> &'a Summary {
    let vi = VARIANTS.iter().position(|&v| v == variant).expect("known");
    let si = sides.iter().position(|&s| s == side).expect("known");
    let point = &sums[si * VARIANTS.len() + vi];
    debug_assert_eq!(point.param, (side, vi));
    &point.metrics[metric]
}

fn push_z_gate(
    gates: &mut Vec<Gate>,
    id: &str,
    z: f64,
    threshold: f64,
    p_false_pass: f64,
    detail: String,
) {
    gates.push(Gate {
        id: id.to_string(),
        passed: z >= threshold,
        statistic: z,
        threshold,
        p_false_pass,
        detail,
    });
}

/// Experiment (a): max load vs `n` per strategy — the growth-separation
/// headline (Theorems 1–2 vs 4/6).
pub fn growth(
    cfg: &ReproConfig,
    inject: &Inject,
    gates: &mut Vec<Gate>,
    metrics: &mut Vec<Metric>,
) {
    let sides: Vec<u32> = match cfg.scale {
        Scale::Quick => vec![12, 16, 22, 30, 40],
        Scale::Default => vec![16, 24, 32, 44, 60, 80],
        Scale::Full => vec![24, 32, 48, 64, 96, 128, 180],
    };
    let runs = cfg.runs(36, 60, 100);

    // One flat sweep over the (side, variant) grid; each run builds its own
    // placement from the point-derived RNG (K = n, M = n^0.4, uniform
    // popularity, n requests — the paper's delivery phase).
    let points: Vec<(u32, usize)> = sides
        .iter()
        .flat_map(|&s| (0..VARIANTS.len()).map(move |vi| (s, vi)))
        .collect();
    let sums = sweep_summaries(
        &points,
        runs,
        METRIC_NAMES.len(),
        mix_seed(cfg.seed, 0xA11),
        cfg.threads,
        |&(side, vi), _run, rng, m| {
            let n = side * side;
            let net: CacheNetwork<Torus> = CacheNetwork::builder()
                .torus_side(side)
                .library(n, Popularity::Uniform)
                .cache_size(growth_m(n))
                .build(rng);
            let arm = (inject.arm)(VARIANTS[vi].arm(n));
            let report = arm.simulate(&net, n as u64, rng);
            fill_metrics(&report, m);
        },
    );

    for point in &sums {
        let (side, vi) = point.param;
        for (mi, name) in METRIC_NAMES.iter().enumerate() {
            let s = &point.metrics[mi];
            metrics.push(Metric {
                id: format!("growth/{}/side{}/{}", VARIANTS[vi].label(), side, name),
                mean: s.mean,
                std_err: s.std_err,
                runs: s.count,
            });
        }
    }

    // Gate: strategy ordering at the largest n — nearest ≫ two-choice(∞).
    let top = *sides.last().expect("non-empty side ladder");
    let near = cell(&sums, &sides, Variant::Nearest, top, 0);
    let two_inf = cell(&sums, &sides, Variant::TwoRInf, top, 0);
    let z = mean_gap_z(near.mean, near.std_err, two_inf.mean, two_inf.std_err);
    push_z_gate(
        gates,
        "growth/ordering/nearest-vs-two-rinf",
        z,
        Z_ORDER,
        z_tail_bound(Z_ORDER),
        format!(
            "max load at side {top}: nearest {:.2}±{:.2} vs two-choice(r=inf) {:.2}±{:.2}",
            near.mean, near.std_err, two_inf.mean, two_inf.std_err
        ),
    );

    // Same ordering must show in the tail of the load distribution.
    let near99 = cell(&sums, &sides, Variant::Nearest, top, 2);
    let two99 = cell(&sums, &sides, Variant::TwoRInf, top, 2);
    let z99 = mean_gap_z(near99.mean, near99.std_err, two99.mean, two99.std_err);
    push_z_gate(
        gates,
        "growth/ordering/p99-nearest-vs-two-rinf",
        z99,
        Z_ORDER,
        z_tail_bound(Z_ORDER),
        format!(
            "p99 load at side {top}: nearest {:.2}±{:.2} vs two-choice(r=inf) {:.2}±{:.2}",
            near99.mean, near99.std_err, two99.mean, two99.std_err
        ),
    );

    // Gate: proximity-d-choices ≳ least-loaded-in-ball (full information
    // buys little over two random probes — the power-of-two punchline).
    let two_log = cell(&sums, &sides, Variant::TwoRLog, top, 0);
    let least = cell(&sums, &sides, Variant::LeastRLog, top, 0);
    let z_ni = mean_gap_z(two_log.mean, two_log.std_err, least.mean, least.std_err);
    push_z_gate(
        gates,
        "growth/ordering/least-noninferior-to-two",
        z_ni,
        -Z_NONINF,
        f64::NAN,
        format!(
            "max load at side {top}: two-choice(r=log) {:.2}±{:.2} vs least-loaded {:.2}±{:.2} \
             (least may not exceed two-choice by more than {Z_NONINF} combined SE)",
            two_log.mean, two_log.std_err, least.mean, least.std_err
        ),
    );

    // Gate: growth-shape separation. Fit each strategy's mean max load
    // against the one-choice predictor ln n / ln ln n: Strategy I must have
    // a positive, significant slope; Strategy II (r = ∞) must be much
    // flatter against the same predictor. Slope uncertainty is propagated
    // from the per-point Monte-Carlo standard errors (residual-based
    // errors on a handful of sweep points are mostly chance).
    let curve = |variant: Variant| -> (Vec<(f64, f64)>, Vec<f64>) {
        sides
            .iter()
            .map(|&s| {
                let n = (s as u64 * s as u64) as f64;
                let c = cell(&sums, &sides, variant, s, 0);
                ((n, c.mean), c.std_err)
            })
            .unzip()
    };
    let (near_pts, near_ses) = curve(Variant::Nearest);
    let (two_pts, two_ses) = curve(Variant::TwoRInf);
    let fit_near =
        fit_vs_predictor_with_errors(&near_pts, &near_ses, one_choice_max_load).expect("≥2 points");
    let fit_two =
        fit_vs_predictor_with_errors(&two_pts, &two_ses, one_choice_max_load).expect("≥2 points");
    let fit_two_ll = fit_vs_two_choice_scale(&two_pts).expect("≥2 points");
    for (label, fit) in [("nearest", &fit_near), ("two-rinf", &fit_two)] {
        metrics.push(Metric {
            id: format!("growth/{label}/fit/slope-vs-one-choice"),
            mean: fit.slope,
            std_err: fit.slope_std_err,
            runs: fit.n as u64,
        });
    }
    // (The R² of the two-choice curve against its own ln ln n predictor is
    // reported in the gate detail only: it is a diagnostic without a
    // meaningful standard error, so it has no place in the statistically
    // diffed metric set.)
    let z_pos = if fit_near.slope_std_err > 0.0 {
        fit_near.slope / fit_near.slope_std_err
    } else if fit_near.slope > 0.0 {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    };
    let z_sep = slope_gap_z(&fit_near, &fit_two);
    push_z_gate(
        gates,
        "growth/separation/log-vs-loglog",
        z_pos.min(z_sep),
        Z_SEP,
        z_tail_bound(Z_SEP),
        format!(
            "slope vs (ln n/ln ln n): nearest {:.2}±{:.2}, two-choice(r=inf) {:.2}±{:.2} \
             (two-choice vs ln ln n: R²={:.3})",
            fit_near.slope,
            fit_near.slope_std_err,
            fit_two.slope,
            fit_two.slope_std_err,
            fit_two_ll.r_squared
        ),
    );
}

/// Experiment (b): the communication-cost / max-load trade-off across the
/// proximity radius `r` (Theorem 4 / §V).
pub fn tradeoff(
    cfg: &ReproConfig,
    inject: &Inject,
    gates: &mut Vec<Gate>,
    metrics: &mut Vec<Metric>,
) {
    // Rungs are spaced so every adjacent cost gap is many standard errors
    // wide even at quick scale (r = 2 vs r = 4 barely differ: both mostly
    // fall back to the nearest replica in this replication regime).
    let (side, radii): (u32, Vec<Option<u32>>) = match cfg.scale {
        Scale::Quick => (24, vec![Some(2), Some(6), Some(10), None]),
        Scale::Default => (40, vec![Some(2), Some(6), Some(12), Some(20), None]),
        Scale::Full => (60, vec![Some(2), Some(6), Some(12), Some(24), None]),
    };
    let (k, m) = (500u32, 10u32);
    let runs = cfg.runs(30, 60, 120);
    let n = side * side;

    let sums = sweep_summaries(
        &radii,
        runs,
        METRIC_NAMES.len(),
        mix_seed(cfg.seed, 0x7AD),
        cfg.threads,
        |&radius, _run, rng, out| {
            let net: CacheNetwork<Torus> = CacheNetwork::builder()
                .torus_side(side)
                .library(k, Popularity::Uniform)
                .cache_size(m)
                .build(rng);
            let report = (inject.arm)(Arm::TwoChoice(radius)).simulate(&net, n as u64, rng);
            fill_metrics(&report, out);
        },
    );

    let r_label = |r: Option<u32>| r.map_or("inf".to_string(), |r| r.to_string());
    for point in &sums {
        for (mi, name) in METRIC_NAMES.iter().enumerate() {
            let s = &point.metrics[mi];
            metrics.push(Metric {
                id: format!("tradeoff/r{}/{}", r_label(point.param), name),
                mean: s.mean,
                std_err: s.std_err,
                runs: s.count,
            });
        }
    }

    // Gate: communication cost strictly increases along the radius ladder.
    let cost = |i: usize| &sums[i].metrics[1];
    let load = |i: usize| &sums[i].metrics[0];
    let mut z_cost = f64::INFINITY;
    let mut z_load = f64::INFINITY;
    for i in 0..sums.len() - 1 {
        let (a, b) = (cost(i), cost(i + 1));
        z_cost = z_cost.min(mean_gap_z(b.mean, b.std_err, a.mean, a.std_err));
        let (la, lb) = (load(i), load(i + 1));
        // Weakly decreasing: load(r_{i+1}) may not exceed load(r_i).
        z_load = z_load.min(mean_gap_z(la.mean, la.std_err, lb.mean, lb.std_err));
    }
    let ladder: Vec<String> = sums
        .iter()
        .map(|p| {
            format!(
                "r={}: C={:.2} L={:.2}",
                r_label(p.param),
                p.metrics[1].mean,
                p.metrics[0].mean
            )
        })
        .collect();
    push_z_gate(
        gates,
        "tradeoff/cost-monotone-in-r",
        z_cost,
        Z_MONO,
        z_tail_bound(Z_MONO),
        format!(
            "adjacent cost gaps all ≥ {Z_MONO} SE: {}",
            ladder.join(", ")
        ),
    );
    push_z_gate(
        gates,
        "tradeoff/load-noninferior-in-r",
        z_load,
        -Z_NONINF,
        f64::NAN,
        format!(
            "load may never rise by more than {Z_NONINF} combined SE as r grows: {}",
            ladder.join(", ")
        ),
    );

    // Gate: the trade actually pays — the widest ball beats the narrowest
    // on max load by a decisive margin.
    let first = load(0);
    let last = load(sums.len() - 1);
    let z_win = mean_gap_z(first.mean, first.std_err, last.mean, last.std_err);
    push_z_gate(
        gates,
        "tradeoff/load-improves-with-r",
        z_win,
        Z_ORDER,
        z_tail_bound(Z_ORDER),
        format!(
            "max load r={}: {:.2}±{:.2} vs r={}: {:.2}±{:.2}",
            r_label(radii[0]),
            first.mean,
            first.std_err,
            r_label(*radii.last().expect("non-empty")),
            last.mean,
            last.std_err
        ),
    );
}

/// Experiment (c): sparse-placement goodness preconditions (Definition 5
/// / Lemma 2) — the hypothesis under which Theorem 4's load bound holds.
pub fn goodness(
    cfg: &ReproConfig,
    inject: &Inject,
    gates: &mut Vec<Gate>,
    metrics: &mut Vec<Metric>,
) {
    let side: u32 = match cfg.scale {
        Scale::Quick => 24,
        Scale::Default => 32,
        Scale::Full => 48,
    };
    let seeds = cfg.runs(12, 20, 40);
    let alpha = 0.3f64;
    let n = side * side;
    let m = (n as f64).powf(alpha).round().max(1.0) as u32;
    let delta = paba_theory::goodness_delta(alpha);
    let mu = paba_theory::goodness_mu(alpha);

    // (min t(u), max t(u,v), uncached fraction) per sampled placement.
    let reports: Vec<(u32, u32, f64)> = run_parallel(
        seeds,
        mix_seed(cfg.seed, 0x600D),
        cfg.threads,
        |_i, rng: &mut SmallRng| {
            let net: CacheNetwork<Torus> = CacheNetwork::builder()
                .torus_side(side)
                .library(n, inject.popularity(Popularity::Uniform))
                .cache_size(m)
                .build(rng);
            let rep = GoodnessReport::measure(&net, Some(4));
            let uncached = net.placement().uncached_files() as f64 / n as f64;
            (rep.min_t_u, rep.max_t_uv, uncached)
        },
    );

    for (name, value) in [
        ("min_t_u", summarize(reports.iter().map(|r| r.0 as f64))),
        ("max_t_uv", summarize(reports.iter().map(|r| r.1 as f64))),
        ("uncached_fraction", summarize(reports.iter().map(|r| r.2))),
    ] {
        metrics.push(Metric {
            id: format!("goodness/{name}"),
            mean: value.mean,
            std_err: value.std_err,
            runs: value.count,
        });
    }

    // Structural gate: every sampled placement is (δ, µ)-good. Pass/fail
    // uses Definition 5 verbatim — `t(u) ≥ δM` and the *strict* `t(u,v)
    // < µ` (same predicate as `GoodnessReport::is_good`) — so a placement
    // with t(u,v) = 12 under µ = 12.5 passes. The statistic is the worst
    // seed's margin ratio min(t(u)/(δM), µ/t(u,v)), reported for trend
    // watching; at the strict boundary (ratio exactly 1 with t(u,v) = µ)
    // `passed` is the authority, not the ratio.
    let all_good = reports.iter().all(|&(min_t_u, max_t_uv, _)| {
        min_t_u as f64 >= delta * m as f64 && (max_t_uv as f64) < mu
    });
    let margin = reports
        .iter()
        .map(|&(min_t_u, max_t_uv, _)| {
            let t_ratio = min_t_u as f64 / (delta * m as f64);
            let mu_ratio = mu / (max_t_uv as f64).max(1.0);
            t_ratio.min(mu_ratio)
        })
        .fold(f64::INFINITY, f64::min);
    let worst_t = reports.iter().map(|r| r.0).min().unwrap_or(0);
    let worst_uv = reports.iter().map(|r| r.1).max().unwrap_or(u32::MAX);
    gates.push(Gate {
        id: "goodness/lemma2-regime".into(),
        passed: all_good,
        statistic: margin,
        threshold: 1.0,
        p_false_pass: f64::NAN,
        detail: format!(
            "K=n={n}, M={m} (α={alpha}): min t(u)={worst_t} (needs ≥ δM={:.2}), \
             max t(u,v)={worst_uv} (needs < µ={mu:.2}) over {seeds} placements",
            delta * m as f64
        ),
    });
}

/// `z` of an equivalence test: how many standard errors `value` sits
/// inside `target ± tol`. Negative outside the band; `≥ z₀` means every
/// true value outside the band passes with probability `≤ e^{−z₀²/2}`.
fn within_z(value: f64, std_err: f64, target: f64, tol: f64) -> f64 {
    mean_gap_z(tol, 0.0, (value - target).abs(), std_err)
}

/// Tolerance of the exponent gates (eq. (1) and Fig. 4): a fitted
/// exponent may sit this far from its prediction. It absorbs the
/// finite-size corrections of the smallest libraries and tori.
pub const EXPONENT_TOL: f64 = 0.12;

/// Library sizes of the eq. (1) ladder, per γ of [`zipf_cost`]. The
/// γ > 2 cost is a fraction of a hop, so its ladder spans a wider range
/// of K to resolve a flat slope.
const LADDERS: [[u32; 3]; 3] = [[100, 200, 400], [100, 200, 400], [100, 400, 1600]];

/// Experiment (d): eq. (1)'s Zipf cost-exponent ladder (Theorem 3).
/// Strategy I's communication cost grows like `K^e` at fixed `M`, with
/// `e = 1/2` for `γ < 1`, `1 − γ/2` for `1 < γ < 2` and `0` for `γ > 2`.
/// The critical `γ = 1` and `γ = 2` carry log factors and are not gated.
pub fn zipf_cost(
    cfg: &ReproConfig,
    inject: &Inject,
    gates: &mut Vec<Gate>,
    metrics: &mut Vec<Metric>,
) {
    // (γ, torus side): for γ < 2 the exponent is carried by the tail
    // files, so the torus grows until the tail is cached (n·M ≫ K^γ);
    // for γ > 2 the tail carries nothing and a small torus suffices.
    let gammas: [(f64, u32); 3] = match cfg.scale {
        Scale::Quick => [(0.5, 48), (1.5, 90), (2.5, 64)],
        Scale::Default => [(0.5, 64), (1.5, 128), (2.5, 91)],
        Scale::Full => [(0.5, 104), (1.5, 208), (2.5, 128)],
    };
    let ks = LADDERS;
    let m = 3u32; // M = Θ(1), as Theorem 3's Zipf case requires
    let runs = cfg.runs(8, 24, 60);

    let points: Vec<(usize, u32)> = (0..gammas.len())
        .flat_map(|gi| ks[gi].iter().map(move |&k| (gi, k)))
        .collect();
    let sums = sweep_summaries(
        &points,
        runs,
        1,
        mix_seed(cfg.seed, 0x21F),
        cfg.threads,
        |&(gi, k), _run, rng, out| {
            let (gamma, side) = gammas[gi];
            let net: CacheNetwork<Torus> = CacheNetwork::builder()
                .torus_side(side)
                .library(k, inject.popularity(Popularity::zipf(gamma)))
                .cache_size(m)
                .build(rng);
            let requests = net.n() as u64;
            out[0] = (inject.arm)(Arm::Nearest)
                .simulate(&net, requests, rng)
                .comm_cost();
        },
    );
    for point in &sums {
        let (gi, k) = point.param;
        let c = &point.metrics[0];
        metrics.push(Metric {
            id: format!("zipf/gamma{}/K{k}/comm_cost", gammas[gi].0),
            mean: c.mean,
            std_err: c.std_err,
            runs: c.count,
        });
    }

    for (gi, &(gamma, side)) in gammas.iter().enumerate() {
        // Fit ln C against ln K; ln C's standard error is C's relative one.
        let (pts, ses): (Vec<(f64, f64)>, Vec<f64>) = sums
            .iter()
            .filter(|p| p.param.0 == gi)
            .map(|p| {
                let c = &p.metrics[0];
                ((p.param.1 as f64, c.mean.ln()), c.std_err / c.mean)
            })
            .unzip();
        let fit = fit_vs_predictor_with_errors(&pts, &ses, f64::ln).expect("≥2 library sizes");
        let predicted = zipf_cost_exponent_in_k(gamma);
        metrics.push(Metric {
            id: format!("zipf/gamma{gamma}/fit/exponent"),
            mean: fit.slope,
            std_err: fit.slope_std_err,
            runs: fit.n as u64,
        });
        push_z_gate(
            gates,
            &format!("zipf/exponent/gamma{gamma}"),
            within_z(fit.slope, fit.slope_std_err, predicted, EXPONENT_TOL),
            Z_MONO,
            z_tail_bound(Z_MONO),
            format!(
                "Strategy I cost ~ K^{:.3}±{:.3} over K in {:?} (n={}, M={m}); eq. (1) \
                 predicts {predicted} (band ±{EXPONENT_TOL})",
                fit.slope,
                fit.slope_std_err,
                ks[gi],
                side * side
            ),
        );
    }
}

/// Experiment (e): §IV's Example 3 (`K = n^{1/2}`, `M = 1`, `r = ∞`):
/// the files split the network into disjoint subproblems, so Strategy II
/// keeps the power of two choices that Example 2's `K = n` destroys.
pub fn examples(
    cfg: &ReproConfig,
    inject: &Inject,
    gates: &mut Vec<Gate>,
    metrics: &mut Vec<Metric>,
) {
    let sides: Vec<u32> = match cfg.scale {
        Scale::Quick => vec![32, 64],
        Scale::Default => vec![32, 64, 91],
        Scale::Full => vec![32, 64, 91, 128],
    };
    let arms = [
        ("two-rinf", Arm::TwoChoice(None)),
        ("nearest", Arm::Nearest),
    ];
    let runs = cfg.runs(12, 24, 60);
    let points: Vec<(u32, usize)> = sides
        .iter()
        .flat_map(|&s| (0..arms.len()).map(move |ai| (s, ai)))
        .collect();
    let sums = sweep_summaries(
        &points,
        runs,
        METRIC_NAMES.len(),
        mix_seed(cfg.seed, 0xE3),
        cfg.threads,
        |&(side, ai), _run, rng, out| {
            let n = side * side;
            let net: CacheNetwork<Torus> = CacheNetwork::builder()
                .torus_side(side)
                .library((n as f64).sqrt().round() as u32, Popularity::Uniform)
                .cache_size(1)
                .build(rng);
            let report = (inject.arm)(arms[ai].1).simulate(&net, n as u64, rng);
            fill_metrics(&report, out);
        },
    );
    for point in &sums {
        let (side, ai) = point.param;
        for (mi, name) in METRIC_NAMES.iter().enumerate() {
            let s = &point.metrics[mi];
            metrics.push(Metric {
                id: format!("examples/ex3/{}/side{side}/{name}", arms[ai].0),
                mean: s.mean,
                std_err: s.std_err,
                runs: s.count,
            });
        }
    }

    let top = sums.len() - arms.len();
    let (two, near) = (&sums[top].metrics[0], &sums[top + 1].metrics[0]);
    let side = sums[top].param.0;
    push_z_gate(
        gates,
        "examples/ex3-two-choice-keeps-its-power",
        mean_gap_z(near.mean, near.std_err, two.mean, two.std_err),
        Z_ORDER,
        z_tail_bound(Z_ORDER),
        format!(
            "K=sqrt(n), M=1 at side {side}: nearest {:.2}±{:.2} vs two-choice(r=inf) {:.2}±{:.2}",
            near.mean, near.std_err, two.mean, two.std_err
        ),
    );
}

/// Experiment (f): Fig. 3's `M = 1` curve and Fig. 4's cost (Strategy II,
/// `r = ∞`, `K = 200`). The max load first rises with `n` while files
/// have few replicas (the two choices hit the same correlated replicas,
/// as in Example 2), then falls once replication `nM/K` is high; the
/// cost tracks the torus's `Θ(√n)` mean pair distance.
pub fn fig3(cfg: &ReproConfig, inject: &Inject, gates: &mut Vec<Gate>, metrics: &mut Vec<Metric>) {
    // The second rung is the peak, at replication nM/K = 4.5.
    let sides: Vec<u32> = match cfg.scale {
        Scale::Quick => vec![10, 30, 91],
        Scale::Default => vec![10, 30, 64, 91],
        Scale::Full => vec![10, 30, 64, 91, 128],
    };
    let (k, m) = (200u32, 1u32);
    let runs = cfg.runs(12, 24, 60);
    let sums = sweep_summaries(
        &sides,
        runs,
        METRIC_NAMES.len(),
        mix_seed(cfg.seed, 0xF163),
        cfg.threads,
        |&side, _run, rng, out| {
            let net: CacheNetwork<Torus> = CacheNetwork::builder()
                .torus_side(side)
                .library(k, Popularity::Uniform)
                .cache_size(m)
                .build(rng);
            let report = (inject.arm)(Arm::TwoChoice(None)).simulate(&net, net.n() as u64, rng);
            fill_metrics(&report, out);
        },
    );
    for point in &sums {
        for (mi, name) in METRIC_NAMES.iter().enumerate() {
            let s = &point.metrics[mi];
            metrics.push(Metric {
                id: format!("fig3/m1/side{}/{name}", point.param),
                mean: s.mean,
                std_err: s.std_err,
                runs: s.count,
            });
        }
    }

    let load = |i: usize| &sums[i].metrics[0];
    let (first, peak, last) = (load(0), load(1), load(sums.len() - 1));
    let z_rise = mean_gap_z(peak.mean, peak.std_err, first.mean, first.std_err);
    let z_fall = mean_gap_z(peak.mean, peak.std_err, last.mean, last.std_err);
    let ladder: Vec<String> = sums
        .iter()
        .map(|p| format!("n={}: {:.2}", p.param * p.param, p.metrics[0].mean))
        .collect();
    push_z_gate(
        gates,
        "fig3/m1-rise-then-fall",
        z_rise.min(z_fall),
        Z_ORDER,
        z_tail_bound(Z_ORDER),
        format!(
            "max load, K={k}, M={m}, two-choice(r=inf): {} (rise z={z_rise:.1}, fall z={z_fall:.1})",
            ladder.join(", ")
        ),
    );

    let (pts, ses): (Vec<(f64, f64)>, Vec<f64>) = sums
        .iter()
        .map(|p| {
            let c = &p.metrics[1];
            (
                ((p.param * p.param) as f64, c.mean.ln()),
                c.std_err / c.mean,
            )
        })
        .unzip();
    let fit = fit_vs_predictor_with_errors(&pts, &ses, f64::ln).expect("≥2 sides");
    metrics.push(Metric {
        id: "fig4/m1/fit/cost-exponent".into(),
        mean: fit.slope,
        std_err: fit.slope_std_err,
        runs: fit.n as u64,
    });
    push_z_gate(
        gates,
        "fig4/cost-tracks-sqrt-n",
        within_z(fit.slope, fit.slope_std_err, 0.5, EXPONENT_TOL),
        Z_MONO,
        z_tail_bound(Z_MONO),
        format!(
            "two-choice(r=inf) cost ~ n^{:.3}±{:.3}; the mean pair distance grows as n^0.5 \
             (band ±{EXPONENT_TOL})",
            fit.slope, fit.slope_std_err
        ),
    );
}

/// Band of Lemma 1's gate: the largest Voronoi cell over `K ln n / M`,
/// and the largest cell radius over `√(K ln n / M)`, stay inside
/// `[CELL_LO, CELL_HI]` at every `n` and `M` (the constants of the `Θ`
/// and `O`). Cells that ignored `M` would read 4× too high at `M = 4`.
pub const CELL_LO: f64 = 0.25;
/// Upper edge of Lemma 1's band (see [`CELL_LO`]).
pub const CELL_HI: f64 = 1.5;

/// Experiment (g): Lemma 1. With uniform popularity, `K = n^{1/2}` and
/// `M = Θ(1)`, the largest Voronoi cell of Strategy I (over all files) is
/// `Θ(K ln n / M)` and fits in a ball of radius `O(√(K ln n / M))`.
pub fn voronoi(
    cfg: &ReproConfig,
    inject: &Inject,
    gates: &mut Vec<Gate>,
    metrics: &mut Vec<Metric>,
) {
    let sides: Vec<u32> = match cfg.scale {
        Scale::Quick => vec![23, 32, 45],
        Scale::Default => vec![23, 32, 45, 64],
        Scale::Full => vec![23, 32, 45, 64, 91],
    };
    let cache_sizes = [1u32, 4];
    let runs = cfg.runs(8, 24, 60);
    let points: Vec<(u32, u32)> = cache_sizes
        .iter()
        .flat_map(|&m| sides.iter().map(move |&s| (m, s)))
        .collect();
    let envelope = |side: u32, m: u32| {
        let n = (side * side) as f64;
        n.sqrt().round() * n.ln() / m as f64
    };
    let sums = sweep_summaries(
        &points,
        runs,
        2,
        mix_seed(cfg.seed, 0x1E1),
        cfg.threads,
        |&(m, side), _run, rng, out| {
            let n = side * side;
            let net: CacheNetwork<Torus> = CacheNetwork::builder()
                .torus_side(side)
                .library(
                    (n as f64).sqrt().round() as u32,
                    inject.popularity(Popularity::Uniform),
                )
                .cache_size(m)
                .build(rng);
            let mut vc = VoronoiComputer::new(n);
            let mut replicas = Vec::new();
            let (mut max_cell, mut max_radius) = (0u32, 0u32);
            for f in 0..net.k() {
                replicas.clear();
                net.placement().for_each_replica(f, |v| replicas.push(v));
                if replicas.is_empty() {
                    continue;
                }
                let (sizes, radius) = vc.cell_sizes(net.topo(), &replicas);
                max_cell = max_cell.max(sizes.values().copied().max().unwrap_or(0));
                max_radius = max_radius.max(radius);
            }
            let env = envelope(side, m);
            out[0] = max_cell as f64 / env;
            out[1] = max_radius as f64 / env.sqrt();
        },
    );
    let mut z = f64::INFINITY;
    let mut ladder = Vec::new();
    for point in &sums {
        let (m, side) = point.param;
        for (mi, name) in ["cell-ratio", "radius-ratio"].iter().enumerate() {
            let s = &point.metrics[mi];
            metrics.push(Metric {
                id: format!("lemma1/M{m}/side{side}/{name}"),
                mean: s.mean,
                std_err: s.std_err,
                runs: s.count,
            });
        }
        for c in &point.metrics {
            z = z
                .min(mean_gap_z(c.mean, c.std_err, CELL_LO, 0.0))
                .min(mean_gap_z(CELL_HI, 0.0, c.mean, c.std_err));
        }
        let (cell, radius) = (point.metrics[0].mean, point.metrics[1].mean);
        ladder.push(format!("M={m} n={}: {cell:.2}/{radius:.2}", side * side));
    }
    push_z_gate(
        gates,
        "lemma1/cell-envelope",
        z,
        Z_MONO,
        z_tail_bound(Z_MONO),
        format!(
            "max cell / (K ln n / M) and max radius / sqrt(K ln n / M) in [{CELL_LO}, \
             {CELL_HI}] at K=sqrt(n): {}",
            ladder.join(", ")
        ),
    );
}

/// Bound of Lemma 3's gate on `e(H) · Σ_e p_e²`, where `p_e` is the
/// probability that Strategy II's candidate pair is edge `e` of `H`.
/// Uniform edge sampling reads 1, and `max_e p_e ≤ c/e(H)` (Lemma 3(b)
/// with constant `c`) implies a reading of at most `c`.
pub const EDGE_MAX_RATIO: f64 = 4.0;

/// Candidate pairs Lemma 3's gate samples per placement.
pub const EDGE_SAMPLES: u64 = 20_000;

/// Experiment (h): Lemma 3(b). Under `K = n`, `M = n^α`, `r = n^β`,
/// Strategy II's candidate pair is an edge of the configuration graph `H`
/// drawn with probability `O(1/e(H))`. The gate replays Strategy II's
/// pair sampling and estimates `e(H) · Σ_e p_e²` without bias from the
/// pairs that repeat: a reading above `c` rules out Lemma 3(b) with
/// constant `c`. Lemma 3(a), `H`'s degree, is
/// asserted by
/// `tests/theory_consistency.rs::config_graph_degree_matches_lemma3_prediction`.
pub fn edge_sampling(
    cfg: &ReproConfig,
    inject: &Inject,
    gates: &mut Vec<Gate>,
    metrics: &mut Vec<Metric>,
) {
    let side: u32 = match cfg.scale {
        Scale::Quick => 24,
        Scale::Default => 32,
        Scale::Full => 45,
    };
    let runs = cfg.runs(8, 16, 40);
    let n = side * side;
    let (alpha, beta) = (0.45f64, 0.3f64);
    let m = ((n as f64).powf(alpha).round() as u32).max(2);
    let r = ((n as f64).powf(beta).ceil() as u32).clamp(1, side / 3);
    let sums = sweep_summaries(
        &[side],
        runs,
        2,
        mix_seed(cfg.seed, 0x1E3),
        cfg.threads,
        |_, _run, rng, out| {
            let net: CacheNetwork<Torus> = CacheNetwork::builder()
                .torus_side(side)
                .library(n, Popularity::Uniform)
                .cache_size(m)
                .build(rng);
            let edges = build_config_graph(&net, Some(r), ConfigGraphMethod::Auto).m();
            let Arm::TwoChoice(radius) = (inject.arm)(Arm::TwoChoice(Some(r))) else {
                panic!("Lemma 3 samples Strategy II's candidate pairs");
            };
            let mut strategy = ProximityChoice::two_choice(radius);
            let mut counts: FxHashMap<(u32, u32), u32> = FxHashMap::default();
            let mut drawn = 0u64;
            for _ in 0..EDGE_SAMPLES {
                let req = Request::sample(&net, UncachedPolicy::ResampleFile, rng);
                if let Some((a, b)) = strategy.sample_pair(&net, req.origin, req.file, rng) {
                    *counts.entry((a.min(b), a.max(b))).or_insert(0) += 1;
                    drawn += 1;
                }
            }
            // Σ_e c_e(c_e − 1) / (N(N − 1)) is unbiased for Σ_e p_e².
            let repeats: f64 = counts.values().map(|&c| c as f64 * (c as f64 - 1.0)).sum();
            let drawn = drawn as f64;
            out[0] = edges as f64 * repeats / (drawn * (drawn - 1.0)).max(1.0);
            out[1] = edges as f64;
        },
    );
    let point = &sums[0];
    for (mi, name) in ["collision-ratio", "edges"].iter().enumerate() {
        let s = &point.metrics[mi];
        metrics.push(Metric {
            id: format!("lemma3/side{side}/{name}"),
            mean: s.mean,
            std_err: s.std_err,
            runs: s.count,
        });
    }
    let ratio = &point.metrics[0];
    push_z_gate(
        gates,
        "lemma3/edge-sampling-uniform",
        mean_gap_z(EDGE_MAX_RATIO, 0.0, ratio.mean, ratio.std_err),
        Z_MONO,
        z_tail_bound(Z_MONO),
        format!(
            "K=n={n}, M={m}, r={r}: e(H) x sum of squared edge probabilities = {:.2}±{:.2} \
             over {EDGE_SAMPLES} requests per placement (1 = uniform; must stay below \
             {EDGE_MAX_RATIO}), e(H)={:.0}",
            ratio.mean, ratio.std_err, point.metrics[1].mean
        ),
    );
}

#[cfg(test)]
mod tests {
    //! Negative controls: each injects the effect a gate is named for and
    //! checks that the gate fails. They run at quick scale with a few runs;
    //! every injected effect is many standard errors wide there.
    use super::*;

    type Experiment = fn(&ReproConfig, &Inject, &mut Vec<Gate>, &mut Vec<Metric>);

    /// The gates `experiment` emits at quick scale under `inject`.
    fn gates_under(experiment: Experiment, inject: Inject, runs: usize) -> Vec<Gate> {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(runs);
        let (mut gates, mut metrics) = (Vec::new(), Vec::new());
        experiment(&cfg, &inject, &mut gates, &mut metrics);
        gates
    }

    fn assert_fail(gates: &[Gate], ids: &[&str]) {
        for id in ids {
            let g = gates.iter().find(|g| g.id == *id).expect("gate exists");
            assert!(!g.passed, "{id} passed under its control: {}", g.detail);
        }
    }

    fn arms(arm: fn(Arm) -> Arm) -> Inject {
        Inject { arm, zipf: None }
    }

    fn two_choice_is_nearest(a: Arm) -> Arm {
        match a {
            Arm::TwoChoice(_) => Arm::Nearest,
            a => a,
        }
    }

    fn least_loaded_is_nearest(a: Arm) -> Arm {
        match a {
            Arm::LeastLoaded(_) => Arm::Nearest,
            a => a,
        }
    }

    #[test]
    fn growth_gates_fail_without_two_choices() {
        let gates = gates_under(growth, arms(two_choice_is_nearest), 6);
        assert_fail(
            &gates,
            &[
                "growth/ordering/nearest-vs-two-rinf",
                "growth/ordering/p99-nearest-vs-two-rinf",
                "growth/separation/log-vs-loglog",
            ],
        );
    }

    #[test]
    fn least_loaded_gate_fails_when_least_loaded_is_nearest() {
        // Two-choice(r = ⌈2√(ln n)⌉) beats nearest by only about 0.5 at
        // quick scale, so this control needs the suite's own run count.
        let gates = gates_under(growth, arms(least_loaded_is_nearest), 36);
        assert_fail(&gates, &["growth/ordering/least-noninferior-to-two"]);
    }

    #[test]
    fn tradeoff_gates_fail_when_the_radius_is_ignored() {
        let gates = gates_under(tradeoff, arms(two_choice_is_nearest), 6);
        assert_fail(
            &gates,
            &[
                "tradeoff/cost-monotone-in-r",
                "tradeoff/load-improves-with-r",
            ],
        );
    }

    #[test]
    fn tradeoff_noninferiority_fails_when_the_widest_ball_is_nearest() {
        fn unbounded_is_nearest(a: Arm) -> Arm {
            match a {
                Arm::TwoChoice(None) => Arm::Nearest,
                a => a,
            }
        }
        let gates = gates_under(tradeoff, arms(unbounded_is_nearest), 6);
        assert_fail(&gates, &["tradeoff/load-noninferior-in-r"]);
    }

    #[test]
    fn lemma2_gate_fails_under_skewed_placement() {
        // Popular files sit on most nodes, so neighbours share many.
        let skewed = Inject {
            zipf: Some(1.5),
            ..Inject::NONE
        };
        let gates = gates_under(goodness, skewed, 4);
        assert_fail(&gates, &["goodness/lemma2-regime"]);
    }

    #[test]
    fn zipf_exponent_gates_fail_when_cost_ignores_the_library() {
        // Two random replicas cost the mean pair distance at any K.
        fn nearest_is_two_choice(a: Arm) -> Arm {
            match a {
                Arm::Nearest => Arm::TwoChoice(None),
                a => a,
            }
        }
        let gates = gates_under(zipf_cost, arms(nearest_is_two_choice), 4);
        assert_fail(
            &gates,
            &["zipf/exponent/gamma0.5", "zipf/exponent/gamma1.5"],
        );
    }

    #[test]
    fn zipf_exponent_gates_fail_under_uniform_popularity() {
        let uniform = Inject {
            zipf: Some(0.0),
            ..Inject::NONE
        };
        let gates = gates_under(zipf_cost, uniform, 4);
        assert_fail(
            &gates,
            &["zipf/exponent/gamma1.5", "zipf/exponent/gamma2.5"],
        );
    }

    #[test]
    fn example3_gate_fails_without_two_choices() {
        let gates = gates_under(examples, arms(two_choice_is_nearest), 6);
        assert_fail(&gates, &["examples/ex3-two-choice-keeps-its-power"]);
    }

    #[test]
    fn fig3_gates_fail_without_two_choices() {
        let gates = gates_under(fig3, arms(two_choice_is_nearest), 6);
        assert_fail(
            &gates,
            &["fig3/m1-rise-then-fall", "fig4/cost-tracks-sqrt-n"],
        );
    }

    #[test]
    fn lemma1_gate_fails_under_skewed_placement() {
        // Rare Zipf files get a replica or two, whose cells span the torus.
        let skewed = Inject {
            zipf: Some(1.5),
            ..Inject::NONE
        };
        let gates = gates_under(voronoi, skewed, 4);
        assert_fail(&gates, &["lemma1/cell-envelope"]);
    }

    #[test]
    fn lemma3_gate_fails_when_pairs_come_from_one_hop() {
        // Pairs drawn within radius 1 concentrate on the short edges of H.
        fn one_hop(a: Arm) -> Arm {
            match a {
                Arm::TwoChoice(Some(_)) => Arm::TwoChoice(Some(1)),
                a => a,
            }
        }
        let gates = gates_under(edge_sampling, arms(one_hop), 4);
        assert_fail(&gates, &["lemma3/edge-sampling-uniform"]);
    }
}
