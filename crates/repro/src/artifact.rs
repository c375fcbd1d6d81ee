//! The versioned `paba-repro/1` artifact: gates + metrics, JSON in and
//! out, and the statistical golden diff behind `paba repro --check`.
//!
//! An artifact is the complete machine-readable output of one suite run:
//!
//! * **gates** — the theorem-derived pass/fail assertions, each with its
//!   standardized statistic, threshold, and an explicit bound on the
//!   probability that a *broken* (null) implementation would slip past;
//! * **metrics** — every measured mean with its standard error and run
//!   count, keyed by a stable id.
//!
//! The diff mode compares a fresh artifact against a committed golden
//! metric-by-metric via the two-sample z-score
//! `|m_f − m_g| / √(se_f² + se_g²)`, which separates **noise** (an RNG
//! reshuffle from refactoring moves every mean a little, z stays small)
//! from **regression** (a behavioral change moves some mean many combined
//! standard errors, z explodes). Id-set or schema drift is a hard error:
//! it means the suite itself changed and the golden must be regenerated.

use paba_util::envcfg::Scale;
use paba_util::json::{self, Json};
use paba_util::Provenance;

/// Current artifact schema identifier (shared with every reader via
/// [`paba_util::schema`]).
pub const SCHEMA: &str = paba_util::schema::REPRO;

/// Default noise/regression boundary for the golden diff: a metric moving
/// more than this many combined standard errors is flagged. The diff is
/// two-sided, so at `z = 6` each metric false-alarms with probability
/// `Pr[|Z| ≥ 6] ≤ 2·e⁻¹⁸ ≈ 3.0·10⁻⁸` (sub-Gaussian bound) — even
/// hundreds of metrics stay far below any practical flake rate.
pub const DEFAULT_CHECK_Z: f64 = 6.0;

/// The most a golden metric's `std_err` may exceed the fresh run's before
/// [`check`] caps it there: `z` uses `min(se_g, 32·se_f)`.
///
/// Both standard errors come from the same seeded design at the same
/// `runs` (a run-count mismatch is refused), so they estimate one
/// quantity, and at the golden's own seed they are equal. Their ratio is
/// a ratio of sample standard deviations: for normal data over 10 runs
/// it exceeds 4 with probability about 2·10⁻⁴, and 32 with about
/// 2·10⁻¹². The suites' heavy-tailed metrics spread far wider: over 13
/// quick-scale runs of each suite (seeds 1–12 plus the committed golden,
/// 156 ordered pairs per suite) the largest ratio was 86
/// (`queueing/two_choice/littles_gap`), and 17 for
/// `queueing/two_choice/p99`. A cap of 10 would have failed 2 of those
/// 156 queueing pairs and a cap of 16 one; 32 failed none (largest capped
/// `z` 3.9 against [`DEFAULT_CHECK_Z`]). It still refuses an inflated
/// error bar: a queueing golden with every `std_err` at 10⁶ and every
/// mean at 0 fails, because its precise metrics (throughput ratio,
/// communication cost) sit more than `6·32` fresh standard errors from
/// zero.
///
/// A fresh `std_err` of 0 means every fresh run agreed (a deterministic
/// metric, or a discrete one that did not move at this seed). No
/// multiple of it bounds the golden's, which is then used as written.
pub const GOLDEN_STD_ERR_CAP: f64 = 32.0;

/// One theorem-derived pass/fail assertion.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Stable gate id, e.g. `growth/ordering/nearest-vs-two-rinf`.
    pub id: String,
    /// Did the suite pass this gate?
    pub passed: bool,
    /// Standardized gate statistic (usually a z-score; a ratio for
    /// structural gates). Pass iff `statistic ≥ threshold`.
    pub statistic: f64,
    /// Pass threshold the statistic is compared against.
    pub threshold: f64,
    /// Bound on the probability that a null implementation (one *without*
    /// the asserted effect) passes — `exp(−threshold²/2)` for z-gates,
    /// NaN for structural gates where no sampling model applies.
    pub p_false_pass: f64,
    /// Human-readable one-line summary of what was measured.
    pub detail: String,
}

/// One measured quantity with its Monte-Carlo uncertainty.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable metric id, e.g. `growth/nearest/side30/max_load`.
    pub id: String,
    /// Sample mean over the runs.
    pub mean: f64,
    /// Standard error of the mean (0 for deterministic quantities).
    pub std_err: f64,
    /// Number of Monte-Carlo runs behind the mean.
    pub runs: u64,
}

/// A complete suite output.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// Schema id ([`SCHEMA`]).
    pub schema: String,
    /// Master seed the suite ran with.
    pub seed: u64,
    /// Scale the suite ran at (`quick` / `default` / `full`).
    pub scale: String,
    /// All gates, in suite order.
    pub gates: Vec<Gate>,
    /// All metrics, in suite order.
    pub metrics: Vec<Metric>,
}

/// Lower-case scale label used in artifacts.
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Default => "default",
        Scale::Full => "full",
    }
}

impl Artifact {
    /// Did every gate pass?
    pub fn all_gates_passed(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }

    /// Serialize to the `paba-repro/1` JSON layout.
    ///
    /// The provenance block is captured at write time (wall clock, thread
    /// count, build profile of the *writing* process) and is not part of
    /// the parsed [`Artifact`] — [`check`] compares suite results, not
    /// the machines that produced them.
    pub fn to_json(&self) -> String {
        let config: Vec<String> = self
            .gates
            .iter()
            .map(|g| g.id.as_str().to_string())
            .chain(self.metrics.iter().map(|m| format!("{}:{}", m.id, m.runs)))
            .collect();
        let provenance = Provenance::capture(
            &self.schema,
            self.seed,
            &self.scale,
            &format!("repro {}", config.join(" ")),
        );
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"schema\": \"{}\",\n",
            json::escape(&self.schema)
        ));
        s.push_str(&format!("  \"provenance\": {},\n", provenance.to_json()));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"scale\": \"{}\",\n",
            json::escape(&self.scale)
        ));
        s.push_str("  \"gates\": [\n");
        for (i, g) in self.gates.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"passed\": {}, \"statistic\": {}, \
                 \"threshold\": {}, \"p_false_pass\": {}, \"detail\": \"{}\"}}{}\n",
                json::escape(&g.id),
                g.passed,
                json::num(g.statistic),
                json::num(g.threshold),
                json::num(g.p_false_pass),
                json::escape(&g.detail),
                if i + 1 == self.gates.len() { "" } else { "," },
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"mean\": {}, \"std_err\": {}, \"runs\": {}}}{}\n",
                json::escape(&m.id),
                json::num(m.mean),
                json::num(m.std_err),
                m.runs,
                if i + 1 == self.metrics.len() { "" } else { "," },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse an artifact from JSON, requiring the [`SCHEMA`]
    /// (`paba-repro/1`) schema id.
    pub fn from_json(src: &str) -> Result<Self, String> {
        Self::from_json_expecting(src, SCHEMA)
    }

    /// Parse an artifact from JSON, validating the schema id against
    /// `expected` (any gates+metrics schema, e.g. `paba-churn/1`).
    pub fn from_json_expecting(src: &str, expected: &str) -> Result<Self, String> {
        let doc = json::parse(src)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("artifact missing 'schema'")?
            .to_string();
        if schema != expected {
            return Err(format!(
                "unsupported artifact schema '{schema}' (expected '{expected}')"
            ));
        }
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("artifact missing integer 'seed'")?;
        let scale = doc
            .get("scale")
            .and_then(Json::as_str)
            .ok_or("artifact missing 'scale'")?
            .to_string();
        let gates = doc
            .get("gates")
            .and_then(Json::as_arr)
            .ok_or("artifact missing 'gates' array")?
            .iter()
            .map(parse_gate)
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("artifact missing 'metrics' array")?
            .iter()
            .map(parse_metric)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            schema,
            seed,
            scale,
            gates,
            metrics,
        })
    }

    /// Write to `path`, creating parent directories as needed.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Load and parse from `path`, validating against `expected`.
    pub fn load_expecting(path: &std::path::Path, expected: &str) -> Result<Self, String> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::from_json_expecting(&src, expected).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn field<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or(format!("{what} missing '{key}'"))
}

fn parse_gate(v: &Json) -> Result<Gate, String> {
    Ok(Gate {
        id: field(v, "id", "gate")?
            .as_str()
            .ok_or("gate 'id' must be a string")?
            .to_string(),
        passed: field(v, "passed", "gate")?
            .as_bool()
            .ok_or("gate 'passed' must be a boolean")?,
        statistic: field(v, "statistic", "gate")?
            .as_f64()
            .ok_or("gate 'statistic' must be numeric or null")?,
        threshold: field(v, "threshold", "gate")?
            .as_f64()
            .ok_or("gate 'threshold' must be numeric or null")?,
        p_false_pass: field(v, "p_false_pass", "gate")?
            .as_f64()
            .ok_or("gate 'p_false_pass' must be numeric or null")?,
        detail: field(v, "detail", "gate")?
            .as_str()
            .ok_or("gate 'detail' must be a string")?
            .to_string(),
    })
}

/// A metric's error bar and run count are refused unless `check` can
/// trust them: a non-finite or negative `std_err`, or fewer than two runs,
/// would let any fresh mean pass as noise.
fn parse_metric(v: &Json) -> Result<Metric, String> {
    let id = field(v, "id", "metric")?
        .as_str()
        .ok_or("metric 'id' must be a string")?
        .to_string();
    let std_err = field(v, "std_err", "metric")?
        .as_f64()
        .ok_or("metric 'std_err' must be numeric")?;
    if !(std_err.is_finite() && std_err >= 0.0) {
        return Err(format!(
            "metric '{id}': 'std_err' must be finite and non-negative, got {std_err:?}"
        ));
    }
    let runs = field(v, "runs", "metric")?
        .as_u64()
        .ok_or("metric 'runs' must be a non-negative integer")?;
    if runs < 2 {
        return Err(format!(
            "metric '{id}': 'runs' must be at least 2, got {runs}"
        ));
    }
    Ok(Metric {
        id,
        mean: field(v, "mean", "metric")?
            .as_f64()
            .ok_or("metric 'mean' must be numeric or null")?,
        std_err,
        runs,
    })
}

/// One metric's fresh-vs-golden displacement.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    /// The metric id.
    pub id: String,
    /// Two-sample z-score of the displacement (`+∞` when a deterministic
    /// metric changed value).
    pub z: f64,
    /// Mean recorded in the golden artifact.
    pub golden_mean: f64,
    /// Mean measured by the fresh run.
    pub fresh_mean: f64,
}

/// Result of a golden diff.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckReport {
    /// Number of metric ids compared.
    pub compared: usize,
    /// The noise/regression z boundary used.
    pub z_threshold: f64,
    /// Metrics whose displacement exceeded the boundary (sorted, worst
    /// first) — statistically incompatible with pure RNG noise.
    pub regressions: Vec<MetricDelta>,
    /// Largest observed displacement (NaN when nothing was compared).
    pub worst_z: f64,
    /// Id of the metric with the largest displacement.
    pub worst_id: String,
    /// Ids of gates that failed in the fresh run.
    pub gate_failures: Vec<String>,
}

impl CheckReport {
    /// Check verdict: no regressions and every fresh gate passed.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.gate_failures.is_empty()
    }
}

/// Diff `fresh` against `golden` within statistical tolerance
/// (`z_threshold`, see [`DEFAULT_CHECK_Z`]), with the golden's standard
/// errors capped at [`GOLDEN_STD_ERR_CAP`] times the fresh ones.
///
/// Errors (rather than reporting a regression) when the artifacts are not
/// comparable: different schema or scale, different metric id sets, or a
/// metric measured over a different number of runs — those mean the
/// *suite* changed and the golden must be regenerated, not that the
/// simulator regressed.
pub fn check(fresh: &Artifact, golden: &Artifact, z_threshold: f64) -> Result<CheckReport, String> {
    if fresh.schema != golden.schema {
        return Err(format!(
            "schema mismatch: fresh '{}' vs golden '{}'",
            fresh.schema, golden.schema
        ));
    }
    if fresh.scale != golden.scale {
        return Err(format!(
            "scale mismatch: fresh ran at '{}' but the golden was generated at '{}' \
             (rerun with --scale {} or regenerate the golden)",
            fresh.scale, golden.scale, golden.scale
        ));
    }
    // Id-set drift — metrics *and* gates — is a hard error: a fresh run
    // that silently dropped a theorem gate must not report green against
    // a golden that still records it.
    let id_drift = |kind: &str, fresh_ids: Vec<&str>, golden_ids: Vec<&str>| {
        let missing: Vec<&str> = golden_ids
            .iter()
            .filter(|id| !fresh_ids.contains(id))
            .copied()
            .collect();
        let extra: Vec<&str> = fresh_ids
            .iter()
            .filter(|id| !golden_ids.contains(id))
            .copied()
            .collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{kind} id sets differ (suite changed — regenerate the golden): \
                 missing from fresh: {missing:?}, new in fresh: {extra:?}"
            ))
        }
    };
    id_drift(
        "metric",
        fresh.metrics.iter().map(|m| m.id.as_str()).collect(),
        golden.metrics.iter().map(|m| m.id.as_str()).collect(),
    )?;
    id_drift(
        "gate",
        fresh.gates.iter().map(|g| g.id.as_str()).collect(),
        golden.gates.iter().map(|g| g.id.as_str()).collect(),
    )?;

    let mut regressions = Vec::new();
    let mut worst_z = f64::NAN;
    let mut worst_id = String::new();
    for g in &golden.metrics {
        let f = fresh
            .metrics
            .iter()
            .find(|m| m.id == g.id)
            .expect("id sets verified equal above");
        if f.runs != g.runs {
            return Err(format!(
                "metric '{}' ran {} times but the golden records {} \
                 (rerun with --runs {} or regenerate the golden)",
                g.id, f.runs, g.runs, g.runs
            ));
        }
        let golden_se = if f.std_err > 0.0 {
            g.std_err.min(GOLDEN_STD_ERR_CAP * f.std_err)
        } else {
            g.std_err
        };
        let raw = paba_theory::mean_gap_z(f.mean, f.std_err, g.mean, golden_se).abs();
        // A NaN displacement means a non-finite mean or standard error on
        // either side (the writer emits `null` for those). Two NaN means
        // agree ("still non-finite"); anything else is incomparable and
        // must read as a regression, never be skipped.
        let z = if raw.is_nan() {
            if f.mean.is_nan() && g.mean.is_nan() {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            raw
        };
        if worst_z.is_nan() || z > worst_z {
            worst_z = z;
            worst_id = g.id.clone();
        }
        if z > z_threshold {
            regressions.push(MetricDelta {
                id: g.id.clone(),
                z,
                golden_mean: g.mean,
                fresh_mean: f.mean,
            });
        }
    }
    regressions.sort_by(|a, b| b.z.partial_cmp(&a.z).unwrap_or(std::cmp::Ordering::Equal));
    let gate_failures = fresh
        .gates
        .iter()
        .filter(|g| !g.passed)
        .map(|g| g.id.clone())
        .collect();
    Ok(CheckReport {
        compared: golden.metrics.len(),
        z_threshold,
        regressions,
        worst_z,
        worst_id,
        gate_failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        Artifact {
            schema: SCHEMA.into(),
            seed: 7,
            scale: "quick".into(),
            gates: vec![Gate {
                id: "g/one".into(),
                passed: true,
                statistic: 8.5,
                threshold: 4.0,
                p_false_pass: 3.4e-4,
                detail: "nearest 6.1 vs two-choice 3.2".into(),
            }],
            metrics: vec![
                Metric {
                    id: "m/a".into(),
                    mean: 6.1,
                    std_err: 0.2,
                    runs: 24,
                },
                Metric {
                    id: "m/b".into(),
                    mean: 3.2,
                    std_err: 0.1,
                    runs: 24,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let a = sample();
        let parsed = Artifact::from_json(&a.to_json()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn schema_const_matches_util_registry() {
        assert_eq!(SCHEMA, paba_util::schema::REPRO);
    }

    #[test]
    fn written_artifact_carries_matching_provenance() {
        let json = sample().to_json();
        let doc = json::parse(&json).unwrap();
        let prov = doc.get("provenance").expect("provenance block present");
        assert_eq!(prov.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(prov.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(prov.get("scale").and_then(Json::as_str), Some("quick"));
        // Pre-provenance goldens (no block at all) must still parse.
        let parsed = Artifact::from_json(&json).unwrap();
        assert_eq!(parsed, sample());
    }

    #[test]
    fn round_trip_preserves_nonfinite_as_nan() {
        let mut a = sample();
        a.gates[0].p_false_pass = f64::NAN;
        a.gates[0].statistic = f64::INFINITY;
        let parsed = Artifact::from_json(&a.to_json()).unwrap();
        assert!(parsed.gates[0].p_false_pass.is_nan());
        // ∞ is not representable in JSON: it comes back as NaN (null).
        assert!(parsed.gates[0].statistic.is_nan());
    }

    #[test]
    fn seeds_beyond_f64_precision_round_trip() {
        let mut a = sample();
        a.seed = u64::MAX; // would corrupt through an f64 detour
        let parsed = Artifact::from_json(&a.to_json()).unwrap();
        assert_eq!(parsed.seed, u64::MAX);
    }

    #[test]
    fn churn_schema_round_trips_via_expecting() {
        let mut a = sample();
        a.schema = paba_util::schema::CHURN.into();
        let json = a.to_json();
        // The repro-schema parser refuses the foreign schema…
        assert!(Artifact::from_json(&json).unwrap_err().contains("schema"));
        // …the explicit one accepts it, and provenance follows suit.
        let parsed = Artifact::from_json_expecting(&json, paba_util::schema::CHURN).unwrap();
        assert_eq!(parsed, a);
        let doc = json::parse(&json).unwrap();
        let prov = doc.get("provenance").expect("provenance block present");
        assert_eq!(
            prov.get("schema").and_then(Json::as_str),
            Some(paba_util::schema::CHURN)
        );
    }

    #[test]
    fn rejects_wrong_schema() {
        let doc = sample().to_json().replace(SCHEMA, "paba-repro/999");
        let err = Artifact::from_json(&doc).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn rejects_untrustworthy_error_bars_and_run_counts() {
        // Each doctored golden used to load, and `check` then accepted
        // any fresh mean against it.
        let doc = sample().to_json();
        for (from, to) in [
            ("\"std_err\": 0.2,", "\"std_err\": 1e400,"),
            ("\"std_err\": 0.2,", "\"std_err\": -1e308,"),
            ("\"std_err\": 0.2,", "\"std_err\": null,"),
            ("\"runs\": 24}", "\"runs\": 0}"),
            ("\"runs\": 24}", "\"runs\": 1}"),
        ] {
            let doctored = doc.replacen(from, to, 1);
            assert_ne!(doctored, doc, "{to}");
            let err = Artifact::from_json(&doctored).unwrap_err();
            assert!(err.contains("m/a"), "{to}: {err}");
        }
    }

    #[test]
    fn check_errors_on_run_count_mismatch() {
        let golden = sample();
        let mut fresh = golden.clone();
        fresh.metrics[1].runs = 12;
        let err = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap_err();
        assert!(err.contains("m/b") && err.contains("--runs 24"), "{err}");
    }

    #[test]
    fn check_accepts_statistical_noise() {
        let golden = sample();
        let mut fresh = golden.clone();
        // Shift each mean by ~1 combined standard error: plain noise.
        fresh.metrics[0].mean += 0.25;
        fresh.metrics[1].mean -= 0.12;
        let rep = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok(), "{rep:?}");
        assert_eq!(rep.compared, 2);
        assert!(rep.worst_z < 2.0);
    }

    #[test]
    fn check_caps_inflated_golden_error_bars() {
        // The committed queueing golden, doctored: every error bar
        // inflated to 10⁶ and every mean zeroed. Without the cap every
        // z would be about 10⁻³ and the check would pass.
        let committed = Artifact::from_json_expecting(
            include_str!("../../../BENCH_queueing.json"),
            paba_util::schema::QUEUEING,
        )
        .unwrap();
        let mut doctored = committed.clone();
        for m in &mut doctored.metrics {
            m.std_err = 1e6;
            m.mean = 0.0;
        }
        let rep = check(&committed, &doctored, DEFAULT_CHECK_Z).unwrap();
        assert!(!rep.ok(), "{rep:?}");
        let flagged: Vec<&str> = rep.regressions.iter().map(|d| d.id.as_str()).collect();
        assert!(
            flagged.contains(&"queueing/two_choice/throughput_ratio"),
            "{flagged:?}"
        );
        // The committed golden against itself is exact.
        let rep = check(&committed, &committed, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok() && rep.worst_z == 0.0, "{rep:?}");
    }

    #[test]
    fn cap_leaves_plausible_golden_error_bars_alone() {
        let golden = sample();
        let mut fresh = golden.clone();
        // A golden error bar 20× the fresh one is within the cap: the
        // same one-golden-standard-error gap stays noise.
        fresh.metrics[0].std_err = golden.metrics[0].std_err / 20.0;
        fresh.metrics[0].mean += golden.metrics[0].std_err;
        // A discrete metric that did not move over the fresh runs keeps
        // the golden's error bar as written.
        fresh.metrics[1].std_err = 0.0;
        fresh.metrics[1].mean += golden.metrics[1].std_err;
        let rep = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok(), "{rep:?}");
        assert!(rep.worst_z < 1.01, "{rep:?}");
        // Past the cap the same gap is measured against 32 fresh
        // standard errors instead: 100× here gives z ≈ 100/32.
        fresh.metrics[0].std_err = golden.metrics[0].std_err / 100.0;
        let rep = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap();
        assert!((rep.worst_z - 100.0 / 32.0).abs() < 0.01, "{rep:?}");
    }

    #[test]
    fn check_flags_regression() {
        let golden = sample();
        let mut fresh = golden.clone();
        fresh.metrics[0].mean += 5.0; // ≈ 17 combined standard errors
        let rep = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap();
        assert!(!rep.ok());
        assert_eq!(rep.regressions.len(), 1);
        assert_eq!(rep.regressions[0].id, "m/a");
        assert_eq!(rep.worst_id, "m/a");
        assert!(rep.worst_z > 10.0);
    }

    #[test]
    fn check_flags_nonfinite_mean_as_regression() {
        // A metric whose mean went non-finite (serialized as null → NaN)
        // is incomparable: it must surface as an infinite-z regression,
        // not be silently skipped.
        let golden = sample();
        let mut fresh = golden.clone();
        fresh.metrics[0].mean = f64::NAN;
        let rep = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap();
        assert!(!rep.ok());
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.regressions[0].z.is_infinite());
        // And symmetrically for a doctored/corrupted golden.
        let rep2 = check(&golden, &fresh, DEFAULT_CHECK_Z).unwrap();
        assert!(!rep2.ok());
        // Both sides NaN agree: still non-finite, no regression.
        let mut both = golden.clone();
        both.metrics[0].mean = f64::NAN;
        let rep3 = check(&fresh, &both, DEFAULT_CHECK_Z).unwrap();
        assert!(rep3.ok(), "{rep3:?}");
    }

    #[test]
    fn check_flags_deterministic_metric_change_as_infinite_z() {
        let mut golden = sample();
        golden.metrics[1].std_err = 0.0;
        let mut fresh = golden.clone();
        fresh.metrics[1].std_err = 0.0;
        fresh.metrics[1].mean += 1.0;
        let rep = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap();
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.regressions[0].z.is_infinite());
    }

    #[test]
    fn check_reports_fresh_gate_failures() {
        let golden = sample();
        let mut fresh = golden.clone();
        fresh.gates[0].passed = false;
        let rep = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap();
        assert!(!rep.ok());
        assert_eq!(rep.gate_failures, vec!["g/one".to_string()]);
    }

    #[test]
    fn check_errors_on_id_set_drift() {
        let golden = sample();
        let mut fresh = golden.clone();
        fresh.metrics[0].id = "m/renamed".into();
        let err = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap_err();
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn check_errors_on_gate_id_drift() {
        // A fresh run that silently lost a theorem gate must not pass.
        let golden = sample();
        let mut fresh = golden.clone();
        fresh.gates.clear();
        let err = check(&fresh, &golden, DEFAULT_CHECK_Z).unwrap_err();
        assert!(err.contains("gate id sets"), "{err}");
    }

    #[test]
    fn check_errors_on_scale_mismatch() {
        let golden = sample();
        let mut fresh = golden.clone();
        fresh.scale = "full".into();
        assert!(check(&fresh, &golden, DEFAULT_CHECK_Z)
            .unwrap_err()
            .contains("scale"));
    }

    #[test]
    fn exact_replay_has_zero_displacement() {
        let golden = sample();
        let rep = check(&golden.clone(), &golden, DEFAULT_CHECK_Z).unwrap();
        assert!(rep.ok());
        assert_eq!(rep.worst_z, 0.0);
    }
}
