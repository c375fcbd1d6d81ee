//! The artifact schema identifiers, centralized.
//!
//! Every JSON artifact the workspace emits carries a top-level
//! `"schema"` field naming its format and version. These used to be
//! string literals scattered across five hand-rolled writers (and their
//! readers); they live here now so a writer and its reader can never
//! drift apart silently. Bump the `/N` suffix when a format changes
//! incompatibly; additive keys do not need a bump (all readers tolerate
//! unknown keys).

/// `paba repro` theorem-gate artifact (`BENCH_repro.json`).
pub const REPRO: &str = "paba-repro/1";

/// `paba trace` per-run load-evolution series.
pub const TRACE_SERIES: &str = "paba-trace-series/1";

/// `paba simulate --telemetry` snapshot dump.
pub const TELEMETRY: &str = "paba-telemetry/1";

/// `paba churn` fault-injection gate artifact (`BENCH_churn.json`).
pub const CHURN: &str = "paba-churn/1";

/// `paba queueing` temporal serving-engine gate artifact
/// (`BENCH_queueing.json`).
pub const QUEUEING: &str = "paba-queueing/1";

/// Every known schema id, for readers that dispatch on the field.
pub const ALL: [&str; 5] = [REPRO, TRACE_SERIES, TELEMETRY, CHURN, QUEUEING];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_versioned() {
        let mut seen = std::collections::HashSet::new();
        for id in ALL {
            assert!(seen.insert(id), "duplicate schema id {id}");
            let (name, version) = id.split_once('/').expect("schema id has /version");
            assert!(name.starts_with("paba-"), "{id}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-' || c.is_ascii_digit()),
                "{id}"
            );
            assert!(version.parse::<u32>().is_ok(), "{id}");
        }
    }
}
