//! `paba report`: one markdown document over every committed artifact.
//!
//! The repo accumulates one `BENCH_*.json` per harness (throughput grid,
//! profile breakdown, repro gates) and their schemas are versioned, so
//! the perf trajectory ROADMAP item 3 tracks is machine-readable — but
//! scattered. This module folds every artifact in a directory into a
//! single report: per-regime throughput/speedup tables, the repro gate
//! summary, the profile sampler-path breakdown, and — the part a human
//! cannot eyeball — **cross-artifact provenance consistency checks**:
//!
//! * hard failures (exit-nonzero): unparseable artifact, unknown schema
//!   id, a provenance block whose embedded schema or seed contradicts the
//!   artifact carrying it;
//! * warnings (reported, non-fatal): missing provenance (artifacts
//!   written before the provenance layer), debug-build measurements,
//!   scratch artifacts (`*_fresh*`) that should not be committed, and
//!   seed disagreement across artifacts.

use std::path::Path;

use paba_util::json::{parse, Json};
use paba_util::{schema, Provenance, Table};

/// One parsed artifact plus everything the checks derived from it.
#[derive(Debug)]
pub struct ReportArtifact {
    /// File name (not path), e.g. `BENCH_throughput.json`.
    pub name: String,
    /// Top-level `"schema"` value (empty when absent).
    pub schema: String,
    /// Parsed provenance block, when present and well-formed.
    pub provenance: Option<Provenance>,
    /// The parsed document.
    pub doc: Json,
}

/// The assembled report.
#[derive(Debug, Default)]
pub struct Report {
    /// Rendered markdown document.
    pub markdown: String,
    /// Artifacts successfully parsed into the report.
    pub artifacts: usize,
    /// Non-fatal consistency findings.
    pub warnings: Vec<String>,
    /// Fatal consistency findings (callers should exit nonzero).
    pub failures: Vec<String>,
}

/// List `BENCH_*.json` files in `dir` as `(file_name, contents)`, sorted
/// by name so the report (and its checks) are deterministic.
pub fn collect_dir(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") && entry.path().is_file() {
            let contents = std::fs::read_to_string(entry.path())
                .map_err(|e| format!("reading {name}: {e}"))?;
            files.push((name, contents));
        }
    }
    files.sort();
    Ok(files)
}

fn fmt_f64(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.digits$}"),
        _ => "-".into(),
    }
}

fn throughput_section(out: &mut String, doc: &Json) {
    let Some(ms) = doc.get("measurements").and_then(Json::as_arr) else {
        return;
    };
    let mut t = Table::new([
        "regime",
        "n",
        "req/s (hybrid)",
        "speedup vs exact",
        "max load",
    ]);
    for m in ms {
        if m.get("sampler").and_then(Json::as_str) != Some("hybrid") {
            continue;
        }
        t.push_row([
            m.get("label").and_then(Json::as_str).unwrap_or("?").into(),
            m.get("n")
                .and_then(Json::as_u64)
                .map_or("-".into(), |n| n.to_string()),
            fmt_f64(m.get("rps").and_then(Json::as_f64), 0),
            m.get("speedup_vs_exact")
                .and_then(Json::as_f64)
                .filter(|s| s.is_finite())
                .map_or("-".into(), |s| format!("{s:.2}x")),
            m.get("max_load")
                .and_then(Json::as_u64)
                .map_or("-".into(), |l| l.to_string()),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');
}

fn profile_section(out: &mut String, doc: &Json) {
    if let Some(points) = doc.get("points").and_then(Json::as_arr) {
        let mut t = Table::new([
            "regime",
            "requests",
            "dominant path",
            "share",
            "budget-exhausted",
        ]);
        for p in points {
            let requests = p.get("requests").and_then(Json::as_f64).unwrap_or(0.0);
            let mut dominant = ("-".to_string(), 0.0f64);
            if let Some(Json::Obj(paths)) = p.get("telemetry").and_then(|t| t.get("sampler_paths"))
            {
                for (path, count) in paths {
                    let c = count.as_f64().unwrap_or(0.0);
                    if c > dominant.1 {
                        dominant = (path.clone(), c);
                    }
                }
            }
            let share = if requests > 0.0 {
                format!("{:.1}%", dominant.1 * 100.0 / requests)
            } else {
                "-".into()
            };
            let budget = p
                .get("telemetry")
                .and_then(|t| t.get("counters"))
                .and_then(|c| c.get("rejection-budget-exhausted"))
                .and_then(Json::as_u64);
            t.push_row([
                p.get("label").and_then(Json::as_str).unwrap_or("?").into(),
                format!("{requests:.0}"),
                dominant.0,
                share,
                budget.map_or("-".into(), |b| b.to_string()),
            ]);
        }
        out.push_str(&t.to_markdown());
        out.push('\n');
    }
    match doc.get("baseline") {
        Some(Json::Null) | None => {}
        Some(b) => {
            let geo = b.get("geo_mean_ratio").and_then(Json::as_f64);
            let pass = b.get("pass").and_then(Json::as_bool).unwrap_or(false);
            out.push_str(&format!(
                "\nNullRecorder baseline gate: geo-mean ratio {} (tolerance {}) — **{}**\n",
                fmt_f64(geo, 3),
                fmt_f64(b.get("tolerance").and_then(Json::as_f64), 2),
                if pass { "pass" } else { "FAIL" },
            ));
        }
    }
    match doc.get("alloc") {
        Some(Json::Null) | None => {}
        Some(a) => out.push_str(&format!(
            "\nAllocator (alloc-track build): {} allocations, peak {} bytes live\n",
            a.get("allocations")
                .and_then(Json::as_u64)
                .map_or("-".into(), |v| v.to_string()),
            a.get("peak_bytes")
                .and_then(Json::as_u64)
                .map_or("-".into(), |v| v.to_string()),
        )),
    }
}

fn repro_section(out: &mut String, doc: &Json) {
    let gates = doc.get("gates").and_then(Json::as_arr).unwrap_or(&[]);
    let passed = gates
        .iter()
        .filter(|g| g.get("passed").and_then(Json::as_bool) == Some(true))
        .count();
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    out.push_str(&format!(
        "Theorem gates: **{passed}/{} passed** · {metrics} metrics recorded\n",
        gates.len()
    ));
    let failing: Vec<&str> = gates
        .iter()
        .filter(|g| g.get("passed").and_then(Json::as_bool) != Some(true))
        .filter_map(|g| g.get("id").and_then(Json::as_str))
        .collect();
    if !failing.is_empty() {
        out.push_str("\nFailing gates:\n");
        for id in failing {
            out.push_str(&format!("- `{id}`\n"));
        }
    }
}

fn section_for(out: &mut String, a: &ReportArtifact) {
    out.push_str(&format!("\n## {} (`{}`)\n\n", a.name, a.schema));
    match a.schema.as_str() {
        s if s == schema::THROUGHPUT => throughput_section(out, &a.doc),
        s if s == schema::PROFILE => profile_section(out, &a.doc),
        s if s == schema::REPRO => repro_section(out, &a.doc),
        // Churn and queueing artifacts share the gates+metrics layout of
        // the repro suite; only the schema id (and experiment set) differ.
        s if s == schema::CHURN => repro_section(out, &a.doc),
        s if s == schema::QUEUEING => repro_section(out, &a.doc),
        _ => out.push_str("(no renderer for this schema; see raw artifact)\n"),
    }
}

/// Run the consistency checks over the parsed artifacts, appending to
/// `warnings` / `failures`.
fn check_consistency(
    artifacts: &[ReportArtifact],
    warnings: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    let mut seeds: Vec<(String, u64)> = Vec::new();
    for a in artifacts {
        if !schema::ALL.contains(&a.schema.as_str()) {
            failures.push(format!(
                "{}: unknown schema id {:?} (known: {:?})",
                a.name,
                a.schema,
                schema::ALL
            ));
        }
        if a.name.contains("_fresh") || a.name.contains("_scratch") {
            warnings.push(format!(
                "{}: looks like a regenerated scratch artifact — it should be gitignored, \
                 not committed",
                a.name
            ));
        }
        let top_seed = a.doc.get("seed").and_then(Json::as_u64);
        if let Some(seed) = top_seed {
            seeds.push((a.name.clone(), seed));
        }
        match &a.provenance {
            None => warnings.push(format!(
                "{}: no provenance block (written before the provenance layer?)",
                a.name
            )),
            Some(p) => {
                if p.schema != a.schema {
                    failures.push(format!(
                        "{}: provenance claims schema {:?} but the artifact is {:?}",
                        a.name, p.schema, a.schema
                    ));
                }
                if let Some(seed) = top_seed {
                    if p.seed != seed {
                        failures.push(format!(
                            "{}: provenance seed {} contradicts artifact seed {seed}",
                            a.name, p.seed
                        ));
                    }
                }
                if p.build_profile == "debug" {
                    warnings.push(format!(
                        "{}: measured by a debug build — timings are not comparable",
                        a.name
                    ));
                }
            }
        }
    }
    let mut distinct: Vec<u64> = seeds.iter().map(|&(_, s)| s).collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > 1 {
        warnings.push(format!(
            "artifacts use {} different master seeds ({}): cross-artifact comparisons span runs",
            distinct.len(),
            seeds
                .iter()
                .map(|(n, s)| format!("{n}={s}"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
}

/// Build the report from `(file_name, contents)` pairs (see
/// [`collect_dir`]).
pub fn build_report(files: &[(String, String)]) -> Report {
    let mut warnings = Vec::new();
    let mut failures = Vec::new();
    let mut artifacts = Vec::new();
    for (name, contents) in files {
        let doc = match parse(contents) {
            Ok(doc) => doc,
            Err(e) => {
                failures.push(format!("{name}: unparseable JSON: {e}"));
                continue;
            }
        };
        let doc_schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let provenance = match doc.get("provenance") {
            None | Some(Json::Null) => None,
            Some(p) => match Provenance::from_json(p) {
                Ok(p) => Some(p),
                Err(e) => {
                    failures.push(format!("{name}: malformed provenance block: {e}"));
                    None
                }
            },
        };
        artifacts.push(ReportArtifact {
            name: name.clone(),
            schema: doc_schema,
            provenance,
            doc,
        });
    }
    check_consistency(&artifacts, &mut warnings, &mut failures);

    let mut md = String::from("# paba benchmark report\n\n");
    if artifacts.is_empty() {
        md.push_str("No `BENCH_*.json` artifacts found.\n");
    } else {
        let mut inv = Table::new([
            "artifact",
            "schema",
            "seed",
            "scale",
            "threads",
            "build",
            "written (unix)",
        ]);
        for a in &artifacts {
            let p = a.provenance.as_ref();
            let seed = a
                .doc
                .get("seed")
                .and_then(Json::as_u64)
                .map_or("-".into(), |s| s.to_string());
            inv.push_row([
                a.name.clone(),
                a.schema.clone(),
                seed,
                p.map_or("-".into(), |p| p.scale.clone()),
                p.map_or("-".into(), |p| p.threads.to_string()),
                p.map_or("-".into(), |p| p.build_profile.clone()),
                p.map_or("-".into(), |p| p.unix_time_s.to_string()),
            ]);
        }
        md.push_str(&inv.to_markdown());
        for a in &artifacts {
            section_for(&mut md, a);
        }
    }

    md.push_str("\n## Provenance consistency\n\n");
    if warnings.is_empty() && failures.is_empty() {
        md.push_str("- ok: all artifacts carry consistent provenance\n");
    }
    for w in &warnings {
        md.push_str(&format!("- warning: {w}\n"));
    }
    for f in &failures {
        md.push_str(&format!("- FAIL: {f}\n"));
    }

    Report {
        markdown: md,
        artifacts: artifacts.len(),
        warnings,
        failures,
    }
}

/// [`collect_dir`] + [`build_report`] in one call.
pub fn report_dir(dir: &Path) -> Result<Report, String> {
    Ok(build_report(&collect_dir(dir)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_point, to_json as profile_json};
    use crate::throughput::{measure_point, to_json as throughput_json, ThroughputPoint};
    use paba_repro::{Artifact, Gate, Metric, SCHEMA};
    use paba_util::envcfg::Scale;

    fn tiny_throughput() -> String {
        let point = ThroughputPoint {
            label: "tiny".into(),
            side: 8,
            k: 10,
            m: 2,
            gamma: 0.0,
            full: false,
            radius: Some(2),
        };
        throughput_json(&measure_point(&point, 3, 200, 1), 3, Scale::Quick)
    }

    fn tiny_profile() -> String {
        let point = ThroughputPoint {
            label: "tiny".into(),
            side: 8,
            k: 10,
            m: 2,
            gamma: 0.0,
            full: false,
            radius: Some(2),
        };
        profile_json(
            &[profile_point(&point, 3, 1, 100, Some(1))],
            None,
            3,
            Scale::Quick,
        )
    }

    fn tiny_repro() -> String {
        Artifact {
            schema: SCHEMA.into(),
            seed: 3,
            scale: "quick".into(),
            gates: vec![Gate {
                id: "g/a".into(),
                passed: true,
                statistic: 9.0,
                threshold: 4.0,
                p_false_pass: 3.4e-4,
                detail: "d".into(),
            }],
            metrics: vec![Metric {
                id: "m/a".into(),
                mean: 1.0,
                std_err: 0.1,
                runs: 8,
            }],
        }
        .to_json()
    }

    fn tiny_churn() -> String {
        Artifact {
            schema: schema::CHURN.into(),
            seed: 3,
            scale: "quick".into(),
            gates: vec![Gate {
                id: "churn/repair-on/max-load-noninferior".into(),
                passed: true,
                statistic: 1.2,
                threshold: -2.0,
                p_false_pass: f64::NAN,
                detail: "d".into(),
            }],
            metrics: vec![Metric {
                id: "churn/static/max_load".into(),
                mean: 6.5,
                std_err: 0.2,
                runs: 8,
            }],
        }
        .to_json()
    }

    fn tiny_queueing() -> String {
        Artifact {
            schema: schema::QUEUEING.into(),
            seed: 3,
            scale: "quick".into(),
            gates: vec![Gate {
                id: "queueing/pow-of-d/p99-collapse".into(),
                passed: true,
                statistic: 8.4,
                threshold: 3.0,
                p_false_pass: f64::NAN,
                detail: "d".into(),
            }],
            metrics: vec![Metric {
                id: "queueing/two_choice/p99".into(),
                mean: 4.2,
                std_err: 0.3,
                runs: 8,
            }],
        }
        .to_json()
    }

    #[test]
    fn report_over_all_writers_is_clean() {
        let files = vec![
            ("BENCH_churn.json".to_string(), tiny_churn()),
            ("BENCH_profile.json".to_string(), tiny_profile()),
            ("BENCH_queueing.json".to_string(), tiny_queueing()),
            ("BENCH_repro.json".to_string(), tiny_repro()),
            ("BENCH_throughput.json".to_string(), tiny_throughput()),
        ];
        let r = build_report(&files);
        assert_eq!(r.artifacts, 5);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        // Under `cargo test` the writers stamp build_profile = debug, which
        // is a legitimate warning; nothing else should fire.
        assert!(
            r.warnings.iter().all(|w| w.contains("debug build")),
            "{:?}",
            r.warnings
        );
        assert!(r.markdown.contains("# paba benchmark report"));
        assert!(r.markdown.contains("paba-throughput/1"));
        assert!(r.markdown.contains("paba-churn/1"));
        assert!(r.markdown.contains("paba-queueing/1"));
        assert!(!r.markdown.contains("no renderer for this schema"));
        assert!(r.markdown.contains("Theorem gates: **1/1 passed**"));
        assert!(r.markdown.contains("speedup vs exact"));
        assert!(r.markdown.contains("dominant path"));
        assert!(!r.markdown.contains("- FAIL:"));
    }

    #[test]
    fn schema_registry_agrees_with_writers() {
        // The report reader dispatches on paba_util::schema; every writer
        // must emit exactly those ids.
        for (json, want) in [
            (tiny_throughput(), schema::THROUGHPUT),
            (tiny_profile(), schema::PROFILE),
            (tiny_repro(), schema::REPRO),
            (tiny_churn(), schema::CHURN),
            (tiny_queueing(), schema::QUEUEING),
        ] {
            let doc = parse(&json).unwrap();
            assert_eq!(doc.get("schema").and_then(Json::as_str), Some(want));
            let prov = doc
                .get("provenance")
                .expect("every writer stamps provenance");
            assert_eq!(prov.get("schema").and_then(Json::as_str), Some(want));
        }
    }

    #[test]
    fn provenance_schema_mismatch_is_a_failure() {
        let doctored = tiny_repro().replacen(
            "\"provenance\": {\"schema\": \"paba-repro/1\"",
            "\"provenance\": {\"schema\": \"paba-profile/1\"",
            1,
        );
        let r = build_report(&[("BENCH_repro.json".into(), doctored)]);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("provenance claims schema"));
        assert!(r.markdown.contains("- FAIL:"));
    }

    #[test]
    fn provenance_seed_mismatch_is_a_failure() {
        let doctored = tiny_repro().replacen("\"seed\": 3, \"scale\"", "\"seed\": 4, \"scale\"", 1);
        let r = build_report(&[("BENCH_repro.json".into(), doctored)]);
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("contradicts artifact seed")),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn missing_provenance_and_fresh_name_warn_but_do_not_fail() {
        let legacy = r#"{"schema": "paba-repro/1", "seed": 1, "gates": [], "metrics": []}"#;
        let r = build_report(&[("BENCH_repro_fresh.json".into(), legacy.to_string())]);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.warnings.len(), 2, "{:?}", r.warnings);
        assert!(r.warnings.iter().any(|w| w.contains("no provenance")));
        assert!(r.warnings.iter().any(|w| w.contains("scratch artifact")));
    }

    #[test]
    fn unknown_schema_and_bad_json_are_failures() {
        let r = build_report(&[
            ("BENCH_alien.json".into(), r#"{"schema": "alien/7"}"#.into()),
            ("BENCH_broken.json".into(), "{not json".into()),
        ]);
        assert_eq!(r.failures.len(), 2, "{:?}", r.failures);
    }

    #[test]
    fn seed_disagreement_across_artifacts_warns() {
        let a = tiny_repro();
        let b = tiny_repro()
            .replace("\"seed\": 3,", "\"seed\": 5,")
            .replace("\"seed\": 3, \"scale\"", "\"seed\": 5, \"scale\"");
        let r = build_report(&[("BENCH_a.json".into(), a), ("BENCH_b.json".into(), b)]);
        assert!(
            r.warnings
                .iter()
                .any(|w| w.contains("different master seeds")),
            "{:?}",
            r.warnings
        );
    }

    #[test]
    fn collect_dir_picks_bench_json_only() {
        let dir = std::env::temp_dir().join("paba-report-collect-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_b.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_a.json"), "{}").unwrap();
        std::fs::write(dir.join("other.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_not_json.txt"), "x").unwrap();
        let files = collect_dir(&dir).unwrap();
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["BENCH_a.json", "BENCH_b.json"]);
    }
}
