//! `paba profile --diff`: statistical comparison of two profile artifacts.
//!
//! Given two `paba-profile/1` documents (OLD and NEW), the comparator
//! separates *regression* from *noise* along three axes, the same
//! discipline `paba repro --check` applies to simulation metrics:
//!
//! * **path-mix shift** — per shared regime label, each sampler path's
//!   share of requests is compared with a two-proportion z-test
//!   (`theory::bounds::{binomial_sigma, mean_gap_z}`). A shift is a
//!   regression only when both the z-score and the absolute share delta
//!   clear their gates, so diffing an artifact against itself reports
//!   exactly zero regressions (path counts are seed-deterministic).
//! * **stage-time ratios** — per-label mean span times (assign loop,
//!   placement build, metrics merge) compared as NEW/OLD ratios with a
//!   deliberately loose gate: wall-clock means are machine-dependent, so
//!   only multiples count.
//! * **throughput** — when both artifacts carry a `baseline` block, the
//!   geometric mean over shared labels of the measured-speedup ratio
//!   NEW/OLD, gated from below.

use std::path::Path;

use paba_theory::bounds::{binomial_sigma, mean_gap_z};
use paba_util::json::{parse, Json};
use paba_util::{schema, Table};

// Gates separating regression from noise; see module docs.

/// |z| a path-share shift must exceed.
pub const Z_GATE: f64 = 6.0;
/// Absolute share delta a path-share shift must also exceed.
pub const SHARE_FLOOR: f64 = 0.02;
/// NEW/OLD mean-span-time ratio above which a stage regresses.
pub const SPAN_RATIO: f64 = 3.0;
/// NEW/OLD speedup geo-mean below which throughput regresses.
pub const SPEEDUP_RATIO: f64 = 0.5;

/// One compared quantity.
#[derive(Clone, Debug)]
pub struct DiffFinding {
    /// Regime label (or `*` for artifact-wide rows).
    pub label: String,
    /// What was compared, e.g. `path:windowed` or `span:assign-loop`.
    pub metric: String,
    /// OLD value (share, mean ns, or speedup).
    pub old: f64,
    /// NEW value.
    pub new: f64,
    /// Standardized shift where one is defined, else NaN.
    pub z: f64,
    /// Whether this finding clears the regression gates.
    pub regression: bool,
    /// Human-readable qualifier.
    pub note: String,
}

/// Outcome of a profile diff.
#[derive(Clone, Debug)]
pub struct ProfileDiff {
    /// All comparisons performed (path rows only where the share moved).
    pub findings: Vec<DiffFinding>,
    /// Labels present in both artifacts.
    pub compared_labels: usize,
}

impl ProfileDiff {
    /// Number of findings flagged as regressions.
    pub fn regressions(&self) -> usize {
        self.findings.iter().filter(|f| f.regression).count()
    }
}

struct LabelProfile {
    label: String,
    requests: f64,
    /// Sampler-path label → count.
    paths: Vec<(String, f64)>,
    /// Stage label → (count, mean_ns).
    spans: Vec<(String, f64, f64)>,
}

struct ProfileDoc {
    labels: Vec<LabelProfile>,
    /// Label → measured hybrid speedup, when a baseline block is present.
    speedups: Option<Vec<(String, f64)>>,
}

fn obj_fields<'a>(j: &'a Json, what: &str, origin: &str) -> Result<&'a [(String, Json)], String> {
    match j {
        Json::Obj(fields) => Ok(fields),
        _ => Err(format!("{origin}: {what} is not an object")),
    }
}

fn parse_profile(src: &str, origin: &str) -> Result<ProfileDoc, String> {
    let doc = parse(src).map_err(|e| format!("parsing {origin}: {e}"))?;
    let doc_schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if doc_schema != schema::PROFILE {
        return Err(format!(
            "{origin}: expected schema {}, got {doc_schema:?}",
            schema::PROFILE
        ));
    }
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{origin}: no points array"))?;
    let mut labels = Vec::new();
    for p in points {
        let label = p
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{origin}: point without a label"))?
            .to_string();
        let requests = p.get("requests").and_then(Json::as_f64).unwrap_or(0.0);
        let telemetry = p
            .get("telemetry")
            .ok_or_else(|| format!("{origin}: point {label} has no telemetry"))?;
        let paths = obj_fields(
            telemetry
                .get("sampler_paths")
                .ok_or_else(|| format!("{origin}: point {label} has no sampler_paths"))?,
            "sampler_paths",
            origin,
        )?
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0)))
        .collect();
        let mut spans = Vec::new();
        if let Some(span_obj) = telemetry.get("spans") {
            for (stage, s) in obj_fields(span_obj, "spans", origin)? {
                let count = s.get("count").and_then(Json::as_f64).unwrap_or(0.0);
                let mean = s.get("mean_ns").and_then(Json::as_f64).unwrap_or(f64::NAN);
                spans.push((stage.clone(), count, mean));
            }
        }
        labels.push(LabelProfile {
            label,
            requests,
            paths,
            spans,
        });
    }
    let speedups = match doc.get("baseline") {
        None | Some(Json::Null) => None,
        Some(b) => {
            let rows = b
                .get("labels")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{origin}: baseline without labels array"))?;
            let mut out = Vec::new();
            for r in rows {
                let label = r.get("label").and_then(Json::as_str).unwrap_or("");
                let speedup = r
                    .get("measured_speedup")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                if !label.is_empty() && speedup.is_finite() && speedup > 0.0 {
                    out.push((label.to_string(), speedup));
                }
            }
            Some(out)
        }
    };
    Ok(ProfileDoc { labels, speedups })
}

fn lookup(pairs: &[(String, f64)], key: &str) -> Option<f64> {
    pairs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

/// Diff two `paba-profile/1` documents (already read into strings).
pub fn diff_profiles(old_src: &str, new_src: &str) -> Result<ProfileDiff, String> {
    let old = parse_profile(old_src, "OLD")?;
    let new = parse_profile(new_src, "NEW")?;
    let mut findings = Vec::new();
    let mut compared_labels = 0usize;

    for op in &old.labels {
        let Some(np) = new.labels.iter().find(|p| p.label == op.label) else {
            continue;
        };
        compared_labels += 1;
        if op.requests <= 0.0 || np.requests <= 0.0 {
            continue;
        }

        // Path-mix shift: two-proportion z-test on each path's share.
        let mut path_keys: Vec<&String> = op.paths.iter().map(|(k, _)| k).collect();
        for (k, _) in &np.paths {
            if !path_keys.contains(&k) {
                path_keys.push(k);
            }
        }
        for key in path_keys {
            let c_old = lookup(&op.paths, key).unwrap_or(0.0);
            let c_new = lookup(&np.paths, key).unwrap_or(0.0);
            if c_old == 0.0 && c_new == 0.0 {
                continue;
            }
            let share_old = c_old / op.requests;
            let share_new = c_new / np.requests;
            // Pooled standard errors; degenerate (0 or 1) pooled shares
            // give se = 0 and mean_gap_z resolves the sign. Clamped so a
            // corrupt artifact with a count above its request total is
            // reported as a (huge) shift instead of panicking.
            let pooled = ((c_old + c_new) / (op.requests + np.requests)).clamp(0.0, 1.0);
            let se_old = binomial_sigma(op.requests, pooled) / op.requests;
            let se_new = binomial_sigma(np.requests, pooled) / np.requests;
            let z = mean_gap_z(share_new, se_new, share_old, se_old);
            let delta = share_new - share_old;
            let regression = z.abs() > Z_GATE && delta.abs() > SHARE_FLOOR;
            if delta != 0.0 || regression {
                findings.push(DiffFinding {
                    label: op.label.clone(),
                    metric: format!("path:{key}"),
                    old: share_old,
                    new: share_new,
                    z,
                    regression,
                    note: format!("Δshare {delta:+.4}"),
                });
            }
        }

        // Stage-time ratios: only a multiple-of gate, wall clock is noisy.
        for (stage, count_old, mean_old) in &op.spans {
            let Some((_, count_new, mean_new)) = np.spans.iter().find(|(s, _, _)| s == stage)
            else {
                continue;
            };
            if *count_old == 0.0 || *count_new == 0.0 || !mean_old.is_finite() || *mean_old <= 0.0 {
                continue;
            }
            let ratio = mean_new / mean_old;
            findings.push(DiffFinding {
                label: op.label.clone(),
                metric: format!("span:{stage}"),
                old: *mean_old,
                new: *mean_new,
                z: f64::NAN,
                regression: ratio.is_finite() && ratio > SPAN_RATIO,
                note: format!("{ratio:.2}x mean time"),
            });
        }
    }
    if compared_labels == 0 {
        return Err("the two artifacts share no regime labels".into());
    }

    // Throughput: geo-mean of per-label measured-speedup ratios.
    match (&old.speedups, &new.speedups) {
        (Some(os), Some(ns)) => {
            let ratios: Vec<f64> = os
                .iter()
                .filter_map(|(label, old_speedup)| {
                    lookup(ns, label).map(|new_speedup| new_speedup / old_speedup)
                })
                .filter(|r| r.is_finite() && *r > 0.0)
                .collect();
            if !ratios.is_empty() {
                let geo = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
                findings.push(DiffFinding {
                    label: "*".into(),
                    metric: "speedup-geo-mean".into(),
                    old: 1.0,
                    new: geo,
                    z: f64::NAN,
                    regression: geo < SPEEDUP_RATIO,
                    note: format!("{} shared labels", ratios.len()),
                });
            }
        }
        _ => findings.push(DiffFinding {
            label: "*".into(),
            metric: "speedup-geo-mean".into(),
            old: f64::NAN,
            new: f64::NAN,
            z: f64::NAN,
            regression: false,
            note: "skipped: baseline block missing in at least one artifact".into(),
        }),
    }

    Ok(ProfileDiff {
        findings,
        compared_labels,
    })
}

/// Diff two artifact files.
pub fn diff_files(old: &Path, new: &Path) -> Result<ProfileDiff, String> {
    let old_src =
        std::fs::read_to_string(old).map_err(|e| format!("reading {}: {e}", old.display()))?;
    let new_src =
        std::fs::read_to_string(new).map_err(|e| format!("reading {}: {e}", new.display()))?;
    diff_profiles(&old_src, &new_src)
}

fn fmt_val(metric: &str, v: f64) -> String {
    if !v.is_finite() {
        "-".into()
    } else if metric.starts_with("path:") {
        format!("{:.2}%", v * 100.0)
    } else if metric.starts_with("span:") {
        format!("{:.0}ns", v)
    } else {
        format!("{v:.3}")
    }
}

/// Render a diff as the standard bench table.
pub fn diff_table(diff: &ProfileDiff) -> Table {
    let mut t = Table::new(["label", "metric", "old", "new", "z", "status", "note"]);
    for f in &diff.findings {
        t.push_row([
            f.label.clone(),
            f.metric.clone(),
            fmt_val(&f.metric, f.old),
            fmt_val(&f.metric, f.new),
            if f.z.is_finite() {
                format!("{:+.1}", f.z)
            } else {
                "-".into()
            },
            if f.regression { "REGRESSION" } else { "ok" }.into(),
            f.note.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_point, to_json};
    use crate::throughput::ThroughputPoint;
    use paba_util::envcfg::Scale;

    fn artifact() -> String {
        let point = ThroughputPoint {
            label: "tiny".into(),
            side: 10,
            k: 50,
            m: 3,
            gamma: 0.0,
            full: false,
            radius: Some(3),
        };
        let p = profile_point(&point, 11, 2, 200, Some(2));
        to_json(&[p], None, 11, Scale::Quick)
    }

    #[test]
    fn self_diff_reports_zero_regressions() {
        let a = artifact();
        let d = diff_profiles(&a, &a).expect("diff runs");
        assert_eq!(d.compared_labels, 1);
        assert_eq!(d.regressions(), 0, "identical artifacts never regress");
        // Path counts are bit-identical, so no path rows at all; spans
        // compare at exactly 1.0x; throughput is skipped (baseline null).
        assert!(d.findings.iter().all(|f| !f.metric.starts_with("path:")));
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "speedup-geo-mean" && f.note.starts_with("skipped")));
    }

    #[test]
    fn perturbed_path_mix_regresses() {
        let a = artifact();
        // Move every rejection-replica hit to exact-scan in NEW: a massive
        // deterministic path-mix shift.
        let doc = parse(&a).unwrap();
        let paths = doc.get("points").and_then(Json::as_arr).unwrap()[0]
            .get("telemetry")
            .and_then(|t| t.get("sampler_paths"))
            .unwrap();
        let rej = paths
            .get("rejection-replica")
            .and_then(Json::as_u64)
            .unwrap();
        let exact = paths.get("exact-scan").and_then(Json::as_u64).unwrap();
        assert!(rej > 0, "tiny sparse point must exercise rejection");
        let b = a
            .replace(
                &format!("\"rejection-replica\":{rej}"),
                "\"rejection-replica\":0",
            )
            .replace(
                &format!("\"exact-scan\":{exact}"),
                &format!("\"exact-scan\":{}", exact + rej),
            );
        assert_ne!(a, b, "perturbation must hit the artifact text");
        let d = diff_profiles(&a, &b).expect("diff runs");
        assert!(d.regressions() > 0, "perturbed path mix must regress");
        let reg = d.findings.iter().find(|f| f.regression).unwrap();
        assert!(reg.metric.starts_with("path:"));
        assert!(reg.z.abs() > Z_GATE);
    }

    #[test]
    fn count_above_request_total_flags_instead_of_panicking() {
        // A corrupt artifact can claim more path hits than requests; the
        // pooled share is clamped so this reads as a huge shift, not a
        // panic inside binomial_sigma.
        let a = artifact();
        let doc = parse(&a).unwrap();
        let exact = doc.get("points").and_then(Json::as_arr).unwrap()[0]
            .get("telemetry")
            .and_then(|t| t.get("sampler_paths"))
            .unwrap()
            .get("exact-scan")
            .and_then(Json::as_u64)
            .unwrap();
        let b = a.replace(
            &format!("\"exact-scan\":{exact}"),
            "\"exact-scan\":999999999",
        );
        assert_ne!(a, b, "perturbation must hit the artifact text");
        let d = diff_profiles(&a, &b).expect("diff must not panic");
        assert!(d.regressions() > 0);
    }

    #[test]
    fn slower_spans_regress_only_past_ratio_gate() {
        let a = artifact();
        let d = diff_profiles(&a, &a).unwrap();
        let span = d
            .findings
            .iter()
            .find(|f| f.metric == "span:assign-loop")
            .expect("assign-loop span compared");
        assert!(!span.regression);
        assert_eq!(span.old, span.new);
    }

    #[test]
    fn disjoint_labels_error() {
        let a = artifact();
        let b = a.replace("\"label\": \"tiny\"", "\"label\": \"other\"");
        assert!(diff_profiles(&a, &b).is_err());
    }

    #[test]
    fn wrong_schema_errors() {
        let err = diff_profiles(r#"{"schema": "x/1"}"#, &artifact());
        assert!(err.is_err());
    }
}
