//! Run provenance stamped into every emitted artifact.
//!
//! Cross-run comparisons (`paba report`, the suites' `--check`) are
//! only sound when each measurement records *how* it was produced.
//! [`Provenance`] is that record: the artifact's schema id, the
//! writer version, the master seed, the scale label, a hash of the
//! full configuration string, the thread budget, the build profile, and
//! the wall-clock write time. One shared [`Provenance::capture`] +
//! [`Provenance::to_json`] pair feeds every hand-rolled writer, so the
//! block cannot drift between artifacts, and [`Provenance::from_json`]
//! reads it back; all pre-existing readers tolerate the extra top-level
//! `"provenance"` key.

use std::hash::Hasher;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::hash::FxHasher;
use crate::json::{escape, Json};

/// Provenance block written under the top-level `"provenance"` key of
/// every artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Schema id of the artifact this block is embedded in (one of
    /// [`crate::schema::ALL`]).
    pub schema: String,
    /// Writing binary and version, e.g. `paba/0.1.0`.
    pub writer: String,
    /// Master seed every run derived from.
    pub seed: u64,
    /// Scale label (`quick` / `default` / `full`, or a free-form label).
    pub scale: String,
    /// FxHash of the canonical configuration string, as 16 hex digits.
    pub config_hash: String,
    /// Worker threads available to the producing run.
    pub threads: u64,
    /// `release` or `debug` (from `cfg!(debug_assertions)`).
    pub build_profile: String,
    /// Seconds since the Unix epoch at write time.
    pub unix_time_s: u64,
}

impl Provenance {
    /// Capture provenance for an artifact being written now.
    ///
    /// `config` is any canonical string describing the run parameters;
    /// only its hash is stored, so it can be verbose.
    pub fn capture(schema: &str, seed: u64, scale: &str, config: &str) -> Self {
        Self {
            schema: schema.to_string(),
            writer: concat!("paba/", env!("CARGO_PKG_VERSION")).to_string(),
            seed,
            scale: scale.to_string(),
            config_hash: config_hash(config),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            unix_time_s: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }

    /// Single-line JSON object, embedded verbatim by every writer.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\": \"{}\", \"writer\": \"{}\", \"seed\": {}, \"scale\": \"{}\", \"config_hash\": \"{}\", \"threads\": {}, \"build_profile\": \"{}\", \"unix_time_s\": {}}}",
            escape(&self.schema),
            escape(&self.writer),
            self.seed,
            escape(&self.scale),
            escape(&self.config_hash),
            self.threads,
            escape(&self.build_profile),
            self.unix_time_s,
        )
    }

    /// Parse a `"provenance"` block back: the inverse of
    /// [`Provenance::to_json`]. Every field is required, so a drifted
    /// writer shows up as `Err`, not as a silently partial struct.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let s = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("provenance missing string '{key}'"))
        };
        let n = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("provenance missing integer '{key}'"))
        };
        Ok(Self {
            schema: s("schema")?,
            writer: s("writer")?,
            seed: n("seed")?,
            scale: s("scale")?,
            config_hash: s("config_hash")?,
            threads: n("threads")?,
            build_profile: s("build_profile")?,
            unix_time_s: n("unix_time_s")?,
        })
    }
}

/// FxHash of a canonical configuration string, as 16 hex digits.
pub fn config_hash(config: &str) -> String {
    let mut h = FxHasher::default();
    h.write(config.as_bytes());
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_fills_every_field() {
        let p = Provenance::capture(crate::schema::CHURN, 42, "quick", "radius=2 gamma=0.8");
        assert_eq!(p.schema, "paba-churn/1");
        assert!(p.writer.starts_with("paba/"));
        assert_eq!(p.seed, 42);
        assert_eq!(p.scale, "quick");
        assert_eq!(p.config_hash.len(), 16);
        assert!(p.config_hash.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(p.threads >= 1);
        assert!(p.build_profile == "debug" || p.build_profile == "release");
        assert!(p.unix_time_s > 1_600_000_000, "wall clock is sane");
    }

    #[test]
    fn config_hash_is_deterministic_and_sensitive() {
        assert_eq!(config_hash("a b c"), config_hash("a b c"));
        assert_ne!(config_hash("a b c"), config_hash("a b d"));
    }

    #[test]
    fn json_is_single_line_with_all_keys() {
        let p = Provenance::capture(crate::schema::REPRO, 7, "full", "cfg");
        let j = p.to_json();
        assert!(!j.contains('\n'));
        for key in [
            "schema",
            "writer",
            "seed",
            "scale",
            "config_hash",
            "threads",
            "build_profile",
            "unix_time_s",
        ] {
            assert!(j.contains(&format!("\"{key}\": ")), "missing {key}: {j}");
        }
    }

    #[test]
    fn provenance_round_trip() {
        let p = Provenance::capture(crate::schema::QUEUEING, 99, "default", "cfg x=1 y=2");
        let doc = crate::json::parse(&p.to_json()).expect("provenance JSON parses");
        let back = Provenance::from_json(&doc).expect("all fields present");
        assert_eq!(back, p);
    }
}
