//! # paba-repro — the statistical paper-reproduction suite.
//!
//! Every other crate in this workspace makes the simulator *faster* or
//! *broader*; this one proves it still *reproduces the paper*. It runs the
//! headline results of Pourmiri, Jafari Siavoshani & Shariatpanahi (IPDPS
//! 2017) as parameterized Monte-Carlo sweeps and turns each theorem's
//! qualitative claim into a **gate**: a standardized statistic with an
//! explicit threshold and an explicit bound on the probability that a
//! broken implementation slips past.
//!
//! Eight experiments (see [`experiments`]):
//!
//! 1. **growth** — max load vs `n` for Strategy I, Strategy II at
//!    `r ∈ {⌈2√(ln n)⌉, const, ∞}`, and least-loaded-in-ball; gates the
//!    `Θ(log n / log log n)` vs `Θ(log log n)` separation and the
//!    strategy ordering `nearest ≫ two-choice ≳ least-loaded`.
//! 2. **tradeoff** — communication cost vs max load across the radius
//!    ladder; gates the monotone trade-off curve.
//! 3. **goodness** — Lemma 2's `(δ, µ)`-goodness preconditions on sparse
//!    proportional placements.
//! 4. **zipf_cost** — eq. (1)'s cost exponent in `K` for one Zipf `γ`
//!    per non-critical regime (Theorem 3).
//! 5. **examples** — Example 3: two choices keep their power when
//!    `K = n^{1/2}`, `M = 1`.
//! 6. **fig3** — Fig. 3's `M = 1` rise-then-fall of the max load and
//!    Fig. 4's `Θ(√n)` cost.
//! 7. **voronoi** — Lemma 1's `Θ(K ln n / M)` Voronoi cell envelope.
//! 8. **edge_sampling** — Lemma 3(b): Strategy II's candidate pairs
//!    spread over the configuration graph's edges.
//!
//! Each gate has a negative-control test that injects the effect the
//! gate is named for through [`experiments::Inject`] (swap a strategy
//! arm, or the placement popularity) and asserts that the gate fails.
//!
//! Claims asserted by a tier-1 test are cited rather than re-gated, e.g.
//! Examples 1–2 and Lemma 3(a); the README's *Reproducing the paper*
//! table maps every claim to its gate, test, or the scale at which it
//! was not reproduced.
//!
//! The suite emits a versioned [`artifact::Artifact`]
//! (`BENCH_repro.json`, schema `paba-repro/1`), and `--check` diffs a
//! fresh run against a committed golden within statistical tolerance —
//! distinguishing RNG-reshuffle *noise* from behavioral *regression*
//! (see [`artifact::check`]). Every scale/speed PR runs through this
//! suite in CI.
//!
//! The churn-robustness ([`churn_experiments`]) and temporal queueing
//! ([`queueing_experiments`]) suites emit the same gates+metrics layout
//! under their own schemas. [`Suite::run`] is the one entry point for
//! all three.

pub mod artifact;
pub mod churn_experiments;
pub mod experiments;
pub mod queueing_experiments;

pub use artifact::{check, Artifact, CheckReport, Gate, Metric, DEFAULT_CHECK_Z, SCHEMA};
use churn_experiments::ChurnParams;
use paba_mcrunner::LiveRun;
use paba_util::envcfg::Scale;
use paba_util::Table;
use queueing_experiments::QueueingParams;

/// Configuration of one suite run.
#[derive(Clone, Copy, Debug)]
pub struct ReproConfig {
    /// Grid scale (quick = CI-sized, full = paper-sized).
    pub scale: Scale,
    /// Master seed; all experiments derive per-experiment seeds from it.
    pub seed: u64,
    /// Override every experiment's Monte-Carlo run count.
    pub runs_override: Option<usize>,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
}

impl ReproConfig {
    /// Config at `scale` with the workspace default seed.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            seed: paba_util::envcfg::DEFAULT_SEED,
            runs_override: None,
            threads: None,
        }
    }

    /// Resolve a run count: the override if set, else by scale.
    pub(crate) fn runs(&self, quick: usize, default: usize, full: usize) -> usize {
        self.runs_override.unwrap_or(match self.scale {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        })
    }
}

/// One gated suite, with its regime overrides. Every suite emits the same
/// gates+metrics [`Artifact`] layout under its own schema, so the CLI
/// runs all three through one driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Suite {
    /// The theorem-gated reproduction suite (`BENCH_repro.json`): the
    /// eight experiments of [`experiments`].
    Repro,
    /// The churn-robustness suite (`BENCH_churn.json`).
    Churn(ChurnParams),
    /// The temporal queueing suite (`BENCH_queueing.json`).
    Queueing(QueueingParams),
}

impl Suite {
    /// Subcommand and artifact stem: `repro`, `churn` or `queueing`.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Repro => "repro",
            Suite::Churn(_) => "churn",
            Suite::Queueing(_) => "queueing",
        }
    }

    /// Schema id of the suite's artifact.
    pub fn schema(&self) -> &'static str {
        match self {
            Suite::Repro => paba_util::schema::REPRO,
            Suite::Churn(_) => paba_util::schema::CHURN,
            Suite::Queueing(_) => paba_util::schema::QUEUEING,
        }
    }

    /// Monte-Carlo runs that [`Suite::run`] ticks on a live handle's
    /// progress tracker (for sizing [`LiveRun::new`]). The repro sweeps
    /// track their own progress and tick none, so it is 0 there.
    pub fn planned_runs(&self, cfg: &ReproConfig) -> usize {
        match self {
            Suite::Repro => 0,
            Suite::Churn(_) | Suite::Queueing(_) => cfg.runs(10, 24, 48),
        }
    }

    /// Reject overrides whose resolved regime (the `scale` default plus
    /// the overrides) the engines cannot run, without running anything.
    /// [`Suite::run`] applies the same check.
    pub fn validate(&self, scale: Scale) -> Result<(), String> {
        match self {
            Suite::Repro => Ok(()),
            Suite::Churn(p) => churn_experiments::Regime::resolve(scale, p).map(drop),
            Suite::Queueing(p) => queueing_experiments::Regime::resolve(scale, p).map(drop),
        }
    }

    /// Run the suite and assemble its artifact, or return the first
    /// run's error for a churn or queueing network too large for memory.
    /// `live` (the `--serve-metrics` path) is fed by the churn and
    /// queueing runs; it never touches the RNG stream, so the artifact is
    /// identical with or without it.
    pub fn run(&self, cfg: &ReproConfig, live: Option<&LiveRun>) -> Result<Artifact, String> {
        let runs = self.planned_runs(cfg);
        let mut gates = Vec::new();
        let mut metrics = Vec::new();
        match self {
            Suite::Repro => {
                let none = &experiments::Inject::NONE;
                experiments::growth(cfg, none, &mut gates, &mut metrics);
                experiments::tradeoff(cfg, none, &mut gates, &mut metrics);
                experiments::goodness(cfg, none, &mut gates, &mut metrics);
                experiments::zipf_cost(cfg, none, &mut gates, &mut metrics);
                experiments::examples(cfg, none, &mut gates, &mut metrics);
                experiments::fig3(cfg, none, &mut gates, &mut metrics);
                experiments::voronoi(cfg, none, &mut gates, &mut metrics);
                experiments::edge_sampling(cfg, none, &mut gates, &mut metrics);
            }
            Suite::Churn(p) => {
                let regime = churn_experiments::Regime::resolve(cfg.scale, p)?;
                churn_experiments::run(cfg, &regime, runs, live, &mut gates, &mut metrics)?;
            }
            Suite::Queueing(p) => {
                let regime = queueing_experiments::Regime::resolve(cfg.scale, p)?;
                queueing_experiments::run(cfg, &regime, runs, live, &mut gates, &mut metrics)?;
            }
        }
        Ok(Artifact {
            schema: self.schema().into(),
            seed: cfg.seed,
            scale: artifact::scale_label(cfg.scale).into(),
            gates,
            metrics,
        })
    }
}

/// Reject a network regime the cache-network builder cannot realise:
/// a torus side outside `min_side..=Torus::MAX_SIDE`, an empty library,
/// an empty cache, or a Zipf exponent that is not finite and
/// non-negative. `cache` is `None` for a placement that ignores it (full
/// replication). Errors name the CLI flag of the bad value. This is the
/// one copy of these checks: the suites and the `paba simulate`,
/// `trace`, `queue` and `workload generate` commands all call it.
pub fn check_network(
    side: u32,
    min_side: u32,
    k: u32,
    cache: Option<u32>,
    gamma: f64,
) -> Result<(), String> {
    let max_side = paba_topology::Torus::MAX_SIDE;
    if !(min_side..=max_side).contains(&side) {
        return Err(format!(
            "--side must be in {min_side}..={max_side}, got {side}"
        ));
    }
    if k == 0 {
        return Err("--files must be a positive library size".into());
    }
    if cache == Some(0) {
        return Err("--cache must be a positive cache size".into());
    }
    if !(gamma.is_finite() && gamma >= 0.0) {
        return Err(format!(
            "--gamma must be a finite non-negative Zipf exponent, got {gamma}"
        ));
    }
    Ok(())
}

/// The error for a network of `--side`, `--files` and `--cache` that
/// cannot be allocated, naming those flags. The suites and the run
/// commands all report an oversized network with it.
pub fn too_large(side: u32, k: u32, m: u32, e: &dyn std::fmt::Display) -> String {
    format!("--side {side}, --files {k} and --cache {m} give a network too large for memory: {e}")
}

/// Render the gate results as the standard bench table.
pub fn gates_table(a: &Artifact) -> Table {
    let mut t = Table::new(["gate", "passed", "statistic", "threshold", "p(false pass)"]);
    for g in &a.gates {
        t.push_row([
            g.id.clone(),
            if g.passed { "yes" } else { "NO" }.to_string(),
            format!("{:.3}", g.statistic),
            format!("{:.3}", g.threshold),
            if g.p_false_pass.is_nan() {
                "-".to_string()
            } else {
                format!("{:.2e}", g.p_false_pass)
            },
        ]);
    }
    t
}

/// Render the golden-diff outcome as a table (worst displacements first).
pub fn check_table(rep: &CheckReport) -> Table {
    let mut t = Table::new(["check", "value"]);
    t.push_row(["metrics compared".to_string(), format!("{}", rep.compared)]);
    t.push_row([
        "noise/regression z".to_string(),
        format!("{:.1}", rep.z_threshold),
    ]);
    t.push_row([
        "worst displacement".to_string(),
        if rep.worst_z.is_nan() {
            "-".to_string()
        } else {
            format!("z={:.2} ({})", rep.worst_z, rep.worst_id)
        },
    ]);
    t.push_row([
        "regressions".to_string(),
        format!("{}", rep.regressions.len()),
    ]);
    for d in rep.regressions.iter().take(10) {
        t.push_row([
            format!("  {}", d.id),
            format!(
                "golden {:.4} → fresh {:.4} (z={:.1})",
                d.golden_mean, d.fresh_mean, d.z
            ),
        ]);
    }
    t.push_row([
        "fresh gate failures".to_string(),
        if rep.gate_failures.is_empty() {
            "none".to_string()
        } else {
            rep.gate_failures.join(", ")
        },
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The churn suite at its scale-default regime.
    fn churn(cfg: &ReproConfig) -> Artifact {
        Suite::Churn(ChurnParams::default()).run(cfg, None).unwrap()
    }

    /// The queueing suite at its scale-default regime.
    fn queueing(cfg: &ReproConfig) -> Artifact {
        Suite::Queueing(QueueingParams::default())
            .run(cfg, None)
            .unwrap()
    }

    /// The quick suite itself, end to end: every gate must pass, the
    /// artifact must round-trip, and a self-check against its own output
    /// must be clean. This is the crate's own tier-1 anchor; CI's
    /// `suite-smoke` job additionally diffs against the committed golden.
    #[test]
    fn quick_suite_passes_and_round_trips() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        // Trim runs for test wall-clock; gates are designed to clear
        // their thresholds with margin even at reduced replication.
        cfg.runs_override = Some(12);
        let a = Suite::Repro.run(&cfg, None).unwrap();
        for g in &a.gates {
            assert!(
                g.passed,
                "gate {} failed: statistic {:.3} < threshold {:.3} ({})",
                g.id, g.statistic, g.threshold, g.detail
            );
        }
        assert!(!a.metrics.is_empty());
        // Metric ids are unique.
        let mut ids: Vec<&str> = a.metrics.iter().map(|m| m.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.metrics.len(), "duplicate metric ids");

        // Round trip compared via JSON: `Artifact` equality is NaN-hostile
        // (structural gates carry a NaN false-pass bound, and NaN ≠ NaN).
        let round = Artifact::from_json(&a.to_json()).unwrap();
        assert_eq!(round.to_json(), a.to_json());

        let rep = check(&a, &round, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok());
        assert_eq!(rep.worst_z, 0.0);

        // Tables render without panicking and carry every gate.
        assert_eq!(gates_table(&a).to_csv().lines().count(), a.gates.len() + 1);
        let _ = check_table(&rep).to_markdown();
    }

    #[test]
    fn suite_is_deterministic_in_seed_and_thread_count() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(3);
        cfg.threads = Some(1);
        let a = Suite::Repro.run(&cfg, None).unwrap();
        cfg.threads = Some(8);
        let b = Suite::Repro.run(&cfg, None).unwrap();
        // JSON form: bitwise-identical output, NaN fields included.
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn quick_churn_suite_passes_and_round_trips() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(8);
        let a = churn(&cfg);
        assert_eq!(a.schema, paba_util::schema::CHURN);
        for g in &a.gates {
            assert!(
                g.passed,
                "gate {} failed: statistic {:.3} < threshold {:.3} ({})",
                g.id, g.statistic, g.threshold, g.detail
            );
        }
        let round = Artifact::from_json_expecting(&a.to_json(), paba_util::schema::CHURN).unwrap();
        assert_eq!(round.to_json(), a.to_json());
        let rep = check(&a, &round, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok());
    }

    #[test]
    fn churn_suite_live_recorder_is_transparent() {
        // A shared live recorder must not perturb the artifact (it never
        // touches the RNG stream), and the churn counters must flow.
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(3);
        let plain = churn(&cfg);
        let live = paba_mcrunner::LiveRun::new(3);
        let observed = Suite::Churn(ChurnParams::default())
            .run(&cfg, Some(&live))
            .unwrap();
        assert_eq!(plain.metrics, observed.metrics);
        assert_eq!(plain.gates.len(), observed.gates.len());
        for (a, b) in plain.gates.iter().zip(&observed.gates) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.passed, b.passed);
            assert_eq!(a.statistic.to_bits(), b.statistic.to_bits());
        }
        let snap = live.recorder.snapshot();
        assert!(snap.counter(paba_telemetry::Counter::ChurnEvent) > 0);
        assert!(snap.counter(paba_telemetry::Counter::DeadReplicaRetry) > 0);
    }

    #[test]
    fn churn_params_override_changes_the_regime() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(2);
        let kill_heavy = ChurnParams {
            graceful_fraction: Some(0.0),
            cycle_fraction: Some(0.3),
            ..Default::default()
        };
        let a = Suite::Churn(kill_heavy).run(&cfg, None).unwrap();
        let b = churn(&cfg);
        // More crashes, same metric ids — the artifacts stay comparable
        // but the measured behavior differs.
        assert_eq!(
            a.metrics.iter().map(|m| &m.id).collect::<Vec<_>>(),
            b.metrics.iter().map(|m| &m.id).collect::<Vec<_>>()
        );
        assert_ne!(a.metrics, b.metrics);
        let cycled = |art: &Artifact| {
            art.metrics
                .iter()
                .find(|m| m.id == "churn/schedule/cycled_fraction")
                .expect("metric present")
                .mean
        };
        assert!(cycled(&a) > cycled(&b));
    }

    #[test]
    fn churn_suite_is_deterministic_in_thread_count() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(4);
        cfg.threads = Some(1);
        let a = churn(&cfg);
        cfg.threads = Some(8);
        let b = churn(&cfg);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn quick_queueing_suite_passes_and_round_trips() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(8);
        let a = queueing(&cfg);
        assert_eq!(a.schema, paba_util::schema::QUEUEING);
        for g in &a.gates {
            assert!(
                g.passed,
                "gate {} failed: statistic {:.3} vs threshold {:.3} ({})",
                g.id, g.statistic, g.threshold, g.detail
            );
        }
        let round =
            Artifact::from_json_expecting(&a.to_json(), paba_util::schema::QUEUEING).unwrap();
        assert_eq!(round.to_json(), a.to_json());
        let rep = check(&a, &round, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok());
    }

    #[test]
    fn queueing_suite_live_recorder_is_transparent() {
        // The live handle is a pure observer of run progress — the
        // queueing engine records no counters and never touches the RNG
        // stream through it, so the artifact must be bit-identical.
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(2);
        let plain = queueing(&cfg);
        let live = paba_mcrunner::LiveRun::new(2);
        let observed = Suite::Queueing(QueueingParams::default())
            .run(&cfg, Some(&live))
            .unwrap();
        assert_eq!(plain.to_json(), observed.to_json());
    }

    #[test]
    fn queueing_params_override_changes_the_regime() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(2);
        let hotter = QueueingParams {
            lambda: Some(0.95),
            ..Default::default()
        };
        let a = Suite::Queueing(hotter).run(&cfg, None).unwrap();
        let b = queueing(&cfg);
        // Same metric ids — the artifacts stay comparable — but the
        // hotter system queues measurably deeper.
        assert_eq!(
            a.metrics.iter().map(|m| &m.id).collect::<Vec<_>>(),
            b.metrics.iter().map(|m| &m.id).collect::<Vec<_>>()
        );
        assert_ne!(a.metrics, b.metrics);
        let p99 = |art: &Artifact| {
            art.metrics
                .iter()
                .find(|m| m.id == "queueing/two_choice/p99")
                .expect("metric present")
                .mean
        };
        assert!(p99(&a) > p99(&b));
    }

    #[test]
    fn queueing_suite_is_deterministic_in_thread_count() {
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(4);
        cfg.threads = Some(1);
        let a = queueing(&cfg);
        cfg.threads = Some(8);
        let b = queueing(&cfg);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_move_metrics_within_noise() {
        // The whole premise of --check: an RNG reshuffle (here: a
        // different master seed) must pass the statistical diff.
        let mut cfg = ReproConfig::new(Scale::Quick);
        cfg.runs_override = Some(12);
        let a = Suite::Repro.run(&cfg, None).unwrap();
        cfg.seed = cfg.seed.wrapping_add(1);
        let b = Suite::Repro.run(&cfg, None).unwrap();
        let rep = check(&b, &a, DEFAULT_CHECK_Z).unwrap();
        assert!(
            rep.ok(),
            "seed change must read as noise: {:?}",
            rep.regressions
        );
    }
}
