//! Telemetry profiling harness: where do assign-loop requests actually go?
//!
//! Runs the throughput regime grid (see [`crate::throughput`]) under
//! Strategy II with an [`AtomicRecorder`] threaded through the hot path,
//! and reports per-regime sampler-path breakdowns, auxiliary counters,
//! candidate-pool-size histograms, and coarse stage timings. Per-thread
//! recorders ride the deterministic Monte-Carlo runner via
//! [`paba_mcrunner::run_parallel_with_state`], so parallel determinism of
//! the simulation outputs is untouched; snapshots are merged after join
//! (the merge is associative and commutative, so thread scheduling cannot
//! change the totals).
//!
//! Results are written to `BENCH_profile.json`:
//!
//! ```json
//! {
//!   "schema": "paba-profile/1",
//!   "seed": 20170529,
//!   "scale": "Quick",
//!   "points": [
//!     {
//!       "label": "sparse-zipf1.2-r5", "n": 2500, "runs": 4,
//!       "requests": 10000, "max_load_mean": 4.25,
//!       "telemetry": { "sampler_paths": {"rejection-replica": 9000, ...},
//!                      "counters": {...}, "pool_sizes": {...}, "spans": {...} }
//!     }
//!   ],
//!   "baseline": null
//! }
//! ```
//!
//! Invariant (asserted in tests and checkable by consumers): for every
//! point, the `sampler_paths` counters sum to `requests` — Strategy II
//! records exactly one path per assignment.
//!
//! `baseline` is an optional `NullRecorder` throughput non-regression
//! check against a committed `BENCH_throughput.json`: per-label hybrid
//! `speedup_vs_exact` is re-measured and compared as a ratio
//! (measured ÷ committed), gated on the geometric mean. Ratios — not raw
//! rps — so a committed Default-scale artifact remains a usable baseline
//! for a Quick-scale CI box.

use crate::throughput::{measure_point, regime_grid, ThroughputPoint};
use paba_core::{simulate_source_profiled, CacheNetwork, IidUniform, ProximityChoice};
use paba_mcrunner::run_parallel_with_state;
use paba_telemetry::{AtomicRecorder, SpanTimer, Stage, TelemetrySnapshot};
use paba_util::envcfg::Scale;
use paba_util::json::{parse, Json};
use paba_util::{schema, Provenance, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;

/// Default geometric-mean ratio gate for [`baseline_check`]. Generous on
/// purpose: CI boxes are noisy and the committed artifact may come from a
/// different scale; the gate exists to catch "the NullRecorder stopped
/// compiling to no-ops" regressions (ratios near 0.5×), not 10% jitter.
pub const DEFAULT_BASELINE_TOLERANCE: f64 = 0.35;

/// Telemetry profile of one regime-grid point.
#[derive(Clone, Debug)]
pub struct ProfilePoint {
    /// The regime profiled.
    pub point: ThroughputPoint,
    /// Monte-Carlo runs merged into the snapshot.
    pub runs: usize,
    /// Total requests across all runs.
    pub requests: u64,
    /// Mean max load across runs (sanity echo, not a benchmark target).
    pub max_load_mean: f64,
    /// Merged telemetry from every run (plus placement-build / merge spans).
    pub snapshot: TelemetrySnapshot,
}

/// One label's committed-vs-measured speedup comparison.
#[derive(Clone, Debug)]
pub struct BaselineLabel {
    /// Regime label shared by both artifacts.
    pub label: String,
    /// Hybrid `speedup_vs_exact` from the committed `BENCH_throughput.json`.
    pub committed_speedup: f64,
    /// Freshly measured hybrid `speedup_vs_exact` (with `NullRecorder`).
    pub measured_speedup: f64,
    /// `measured ÷ committed`.
    pub ratio: f64,
}

/// Outcome of the NullRecorder throughput non-regression check.
#[derive(Clone, Debug)]
pub struct BaselineCheck {
    /// Per-label comparisons (labels present in both grid and artifact).
    pub labels: Vec<BaselineLabel>,
    /// Geometric mean of the per-label ratios.
    pub geo_mean_ratio: f64,
    /// Gate applied to the geometric mean.
    pub tolerance: f64,
    /// `geo_mean_ratio >= tolerance`.
    pub pass: bool,
}

/// Profile one point: build the network once (timed as
/// [`Stage::PlacementBuild`]), run `runs` simulations through
/// [`run_parallel_with_state`] with one [`AtomicRecorder`] per worker
/// thread, and merge all snapshots (timed as [`Stage::MetricsMerge`]).
///
/// `requests = 0` defaults to `n` requests per run.
pub fn profile_point(
    point: &ThroughputPoint,
    seed: u64,
    runs: usize,
    requests: u64,
    threads: Option<usize>,
) -> ProfilePoint {
    let n = point.side as u64 * point.side as u64;
    let reqs = if requests == 0 { n } else { requests };
    let master = AtomicRecorder::new();

    let timer = SpanTimer::start(&master, Stage::PlacementBuild);
    let mut rng = SmallRng::seed_from_u64(seed);
    let net: CacheNetwork<paba_topology::Torus> = CacheNetwork::builder()
        .torus_side(point.side)
        .library(point.k, point.popularity())
        .cache_size(point.m)
        .placement_policy(point.policy())
        .build(&mut rng);
    timer.stop(&master);

    let (reports, recorders) = run_parallel_with_state(
        runs.max(1),
        seed,
        threads,
        None,
        AtomicRecorder::new,
        |rec, _i, run_rng| {
            let mut strat = ProximityChoice::two_choice(point.radius).with_recorder(rec);
            let mut source = IidUniform::new();
            simulate_source_profiled(&net, &mut strat, &mut source, reqs, run_rng, rec)
        },
    );

    let timer = SpanTimer::start(&master, Stage::MetricsMerge);
    let mut snapshot = TelemetrySnapshot::empty();
    for rec in &recorders {
        snapshot.merge(&rec.snapshot());
    }
    let max_load_mean =
        reports.iter().map(|r| r.max_load() as f64).sum::<f64>() / reports.len() as f64;
    timer.stop(&master);
    snapshot.merge(&master.snapshot());

    ProfilePoint {
        point: point.clone(),
        runs: runs.max(1),
        requests: reqs * runs.max(1) as u64,
        max_load_mean,
        snapshot,
    }
}

/// Profile the whole regime grid at a scale.
pub fn run_profile(
    scale: Scale,
    seed: u64,
    runs: usize,
    requests: u64,
    threads: Option<usize>,
) -> Vec<ProfilePoint> {
    regime_grid(scale)
        .iter()
        .map(|p| profile_point(p, seed, runs, requests, threads))
        .collect()
}

/// Merge all per-point snapshots into one workspace-wide view.
pub fn aggregate(points: &[ProfilePoint]) -> TelemetrySnapshot {
    let mut total = TelemetrySnapshot::empty();
    for p in points {
        total.merge(&p.snapshot);
    }
    total
}

/// Compare freshly measured hybrid speedups against a committed
/// `BENCH_throughput.json`. Returns `Ok(None)` when `path` does not exist
/// (nothing to check against — not a failure).
///
/// The fresh measurement runs the `scale` grid with the default
/// `NullRecorder` strategy, so a failing gate flags either a genuine
/// sampler regression or instrumentation overhead leaking into the
/// uninstrumented build.
pub fn baseline_check(
    path: &Path,
    scale: Scale,
    seed: u64,
    tolerance: f64,
) -> Result<Option<BaselineCheck>, String> {
    if !path.exists() {
        return Ok(None);
    }
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = parse(&src).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let doc_schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if doc_schema != schema::THROUGHPUT {
        return Err(format!(
            "{}: expected schema {}, got {doc_schema:?}",
            path.display(),
            schema::THROUGHPUT
        ));
    }
    let measurements = doc
        .get("measurements")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no measurements array", path.display()))?;
    let mut committed: Vec<(String, f64)> = Vec::new();
    for m in measurements {
        let sampler = m.get("sampler").and_then(Json::as_str).unwrap_or("");
        let label = m.get("label").and_then(Json::as_str).unwrap_or("");
        let speedup = m.get("speedup_vs_exact").and_then(Json::as_f64);
        if sampler == "hybrid" && !label.is_empty() {
            if let Some(s) = speedup {
                if s.is_finite() && s > 0.0 {
                    committed.push((label.to_string(), s));
                }
            }
        }
    }
    if committed.is_empty() {
        return Err(format!(
            "{}: no hybrid speedup rows to compare against",
            path.display()
        ));
    }

    let mut labels = Vec::new();
    for point in regime_grid(scale) {
        let Some((_, committed_speedup)) = committed.iter().find(|(l, _)| *l == point.label) else {
            continue;
        };
        let n = point.side as u64 * point.side as u64;
        let ms = measure_point(&point, seed, n, 1);
        let Some(measured_speedup) = ms.iter().find_map(|m| m.speedup_vs_exact) else {
            continue;
        };
        labels.push(BaselineLabel {
            label: point.label.clone(),
            committed_speedup: *committed_speedup,
            measured_speedup,
            ratio: measured_speedup / committed_speedup,
        });
    }
    if labels.is_empty() {
        return Err(format!(
            "{}: committed labels share nothing with the {scale:?} grid",
            path.display()
        ));
    }
    let geo_mean_ratio =
        (labels.iter().map(|l| l.ratio.ln()).sum::<f64>() / labels.len() as f64).exp();
    Ok(Some(BaselineCheck {
        labels,
        geo_mean_ratio,
        tolerance,
        pass: geo_mean_ratio >= tolerance,
    }))
}

fn share(count: u64, total: u64) -> String {
    if total == 0 {
        "-".into()
    } else {
        format!("{:.1}%", count as f64 * 100.0 / total as f64)
    }
}

/// Render the per-point sampler-path breakdown as the standard bench table.
pub fn to_table(points: &[ProfilePoint]) -> Table {
    use paba_telemetry::{Counter, SamplerPath};
    let mut t = Table::new([
        "point",
        "requests",
        "rej-rep",
        "rej-ball",
        "window",
        "exact",
        "index",
        "ball",
        "uncached",
        "budget-exh",
    ]);
    for p in points {
        let total = p.snapshot.total_requests();
        let s = |path| share(p.snapshot.path_count(path), total);
        t.push_row([
            p.point.label.clone(),
            format!("{}", p.requests),
            s(SamplerPath::RejectionReplica),
            s(SamplerPath::RejectionBall),
            s(SamplerPath::Windowed),
            s(SamplerPath::ExactScan),
            s(SamplerPath::IndexSample),
            s(SamplerPath::BallSample),
            s(SamplerPath::Uncached),
            format!("{}", p.snapshot.counter(Counter::RejectionBudgetExhausted)),
        ]);
    }
    t
}

/// Render a [`BaselineCheck`] as a table.
pub fn baseline_table(check: &BaselineCheck) -> Table {
    let mut t = Table::new(["point", "committed", "measured", "ratio"]);
    for l in &check.labels {
        t.push_row([
            l.label.clone(),
            format!("{:.2}x", l.committed_speedup),
            format!("{:.2}x", l.measured_speedup),
            format!("{:.2}", l.ratio),
        ]);
    }
    t
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Serialize a profile run to the `paba-profile/1` JSON schema.
///
/// Alongside the provenance block, the artifact records counting-
/// allocator stats (`"alloc"`) when the CLI was built with its
/// `alloc-track` feature, and `null` otherwise.
pub fn to_json(
    points: &[ProfilePoint],
    baseline: Option<&BaselineCheck>,
    seed: u64,
    scale: Scale,
) -> String {
    let config: Vec<String> = points
        .iter()
        .map(|p| format!("{}:{}:{}", p.point.label, p.runs, p.requests))
        .collect();
    let provenance = Provenance::capture(
        schema::PROFILE,
        seed,
        &format!("{scale:?}").to_lowercase(),
        &format!("profile {}", config.join(" ")),
    );
    let alloc = paba_telemetry::alloc::snapshot().map_or("null".to_string(), |a| a.to_json());
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{}\",\n", schema::PROFILE));
    s.push_str(&format!("  \"provenance\": {},\n", provenance.to_json()));
    s.push_str(&format!("  \"alloc\": {alloc},\n"));
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"n\": {}, \"runs\": {}, \"requests\": {}, \
             \"max_load_mean\": {}, \"telemetry\": {}}}{}\n",
            p.point.label,
            p.point.side as u64 * p.point.side as u64,
            p.runs,
            p.requests,
            json_f64(p.max_load_mean),
            p.snapshot.to_json(),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    match baseline {
        None => s.push_str("  \"baseline\": null\n"),
        Some(b) => {
            s.push_str("  \"baseline\": {\n");
            s.push_str(&format!(
                "    \"tolerance\": {}, \"geo_mean_ratio\": {}, \"pass\": {},\n",
                json_f64(b.tolerance),
                json_f64(b.geo_mean_ratio),
                b.pass
            ));
            s.push_str("    \"labels\": [\n");
            for (i, l) in b.labels.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"label\": \"{}\", \"committed_speedup\": {}, \
                     \"measured_speedup\": {}, \"ratio\": {}}}{}\n",
                    l.label,
                    json_f64(l.committed_speedup),
                    json_f64(l.measured_speedup),
                    json_f64(l.ratio),
                    if i + 1 == b.labels.len() { "" } else { "," },
                ));
            }
            s.push_str("    ]\n  }\n");
        }
    }
    s.push('}');
    s.push('\n');
    s
}

/// Write the JSON report, creating parent directories as needed.
pub fn write_json(
    path: &Path,
    points: &[ProfilePoint],
    baseline: Option<&BaselineCheck>,
    seed: u64,
    scale: Scale,
) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, to_json(points, baseline, seed, scale))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_telemetry::SamplerPath;

    fn tiny_point(radius: Option<u32>, full: bool) -> ThroughputPoint {
        ThroughputPoint {
            label: "tiny".into(),
            side: 10,
            k: if full { 20 } else { 50 },
            m: if full { 20 } else { 3 },
            gamma: 0.0,
            full,
            radius,
        }
    }

    #[test]
    fn paths_sum_to_request_count() {
        for (radius, full) in [
            (Some(3), false),
            (None, false),
            (Some(3), true),
            (None, true),
        ] {
            let p = profile_point(&tiny_point(radius, full), 11, 3, 0, Some(2));
            assert_eq!(p.runs, 3);
            assert_eq!(p.requests, 300);
            assert_eq!(
                p.snapshot.total_requests(),
                p.requests,
                "radius={radius:?} full={full}: exactly one sampler path per request"
            );
        }
    }

    #[test]
    fn snapshot_totals_independent_of_thread_count() {
        let point = tiny_point(Some(3), false);
        let a = profile_point(&point, 5, 4, 200, Some(1));
        let b = profile_point(&point, 5, 4, 200, Some(4));
        assert_eq!(a.max_load_mean, b.max_load_mean);
        for path in SamplerPath::ALL {
            assert_eq!(
                a.snapshot.path_count(path),
                b.snapshot.path_count(path),
                "{} count drifted with thread count",
                path.label()
            );
        }
    }

    #[test]
    fn profile_json_is_well_formed() {
        let p = profile_point(&tiny_point(Some(2), false), 1, 2, 100, Some(2));
        let json = to_json(&[p], None, 1, Scale::Quick);
        let doc = parse(&json).expect("profile JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(schema::PROFILE)
        );
        let prov = doc.get("provenance").expect("provenance block present");
        assert_eq!(
            prov.get("schema").and_then(Json::as_str),
            Some(schema::PROFILE),
            "provenance schema matches the artifact schema"
        );
        assert!(
            doc.get("alloc").is_some(),
            "alloc key present (null or object)"
        );
        let points = doc.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), 1);
        let telemetry = points[0].get("telemetry").unwrap();
        let paths = telemetry.get("sampler_paths").unwrap();
        let sum: u64 = SamplerPath::ALL
            .iter()
            .map(|p| paths.get(p.label()).and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(points[0].get("requests").and_then(Json::as_u64), Some(sum));
        assert!(doc.get("baseline").is_some());
    }

    #[test]
    fn baseline_check_missing_artifact_is_none() {
        let r = baseline_check(
            Path::new("/nonexistent/BENCH_throughput.json"),
            Scale::Quick,
            1,
            0.35,
        );
        assert!(matches!(r, Ok(None)));
    }

    #[test]
    fn baseline_check_compares_shared_labels() {
        // Committed artifact with one label from the Quick grid and one
        // foreign label that must be ignored.
        let committed = r#"{
          "schema": "paba-throughput/1", "seed": 1, "scale": "Default",
          "measurements": [
            {"label": "sparse-uniform-r2", "sampler": "exact-scan", "speedup_vs_exact": null},
            {"label": "sparse-uniform-r2", "sampler": "hybrid", "speedup_vs_exact": 1.0},
            {"label": "not-in-grid", "sampler": "hybrid", "speedup_vs_exact": 5.0}
          ]
        }"#;
        let dir = std::env::temp_dir().join("paba-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(&path, committed).unwrap();
        let check = baseline_check(&path, Scale::Quick, 7, 0.0)
            .expect("check runs")
            .expect("artifact present");
        assert_eq!(check.labels.len(), 1);
        assert_eq!(check.labels[0].label, "sparse-uniform-r2");
        assert!(check.labels[0].measured_speedup > 0.0);
        assert!(check.geo_mean_ratio > 0.0);
        assert!(check.pass, "tolerance 0 always passes");
    }

    #[test]
    fn baseline_check_rejects_wrong_schema() {
        let dir = std::env::temp_dir().join("paba-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong-schema.json");
        std::fs::write(&path, r#"{"schema": "other/9"}"#).unwrap();
        assert!(baseline_check(&path, Scale::Quick, 1, 0.35).is_err());
    }

    #[test]
    fn table_has_one_row_per_point() {
        let pts = vec![
            profile_point(&tiny_point(Some(2), false), 1, 1, 50, Some(1)),
            profile_point(&tiny_point(None, true), 1, 1, 50, Some(1)),
        ];
        let md = to_table(&pts).to_markdown();
        assert_eq!(md.matches("tiny").count(), 2);
    }
}
