//! The event vocabulary: which sampler path fired, auxiliary counters, and
//! coarse pipeline stages.
//!
//! Each enum carries a stable `usize` discriminant used as an array index
//! in [`crate::AtomicRecorder`] and a kebab-case `label` used as a JSON
//! key in the `paba-telemetry/1` snapshot. Extend by appending — the JSON
//! schema treats unknown keys as additive.

/// Which candidate-materialization path served one sampler invocation.
///
/// Exactly one path is recorded per assign request routed through
/// `ProximityChoice`, so the per-path counts sum to the request count —
/// the invariant `crates/core/tests/telemetry_paths.rs` pins per regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SamplerPath {
    /// Hybrid rejection loop succeeded by proposing replicas and checking
    /// distance (the sparse-pool side).
    RejectionReplica = 0,
    /// Hybrid rejection loop succeeded by proposing ball members and
    /// checking cache membership (the dense-pool side).
    RejectionBall = 1,
    /// Windowed materialization of the candidate pool (hybrid fallback or
    /// direct, depending on regime).
    Windowed = 2,
    /// Exhaustive scan materialization (`SamplerKind::ExactScan`).
    ExactScan = 3,
    /// Infinite radius: candidates drawn uniformly from the replica index
    /// without any ball geometry.
    IndexSample = 4,
    /// Full placement (every node caches every file): candidates drawn
    /// directly from the ball.
    BallSample = 5,
    /// The requested file has no replicas anywhere; the fallback policy
    /// served the request without a sampler.
    Uncached = 6,
}

impl SamplerPath {
    /// Number of variants (array dimension for per-path counters).
    pub const COUNT: usize = 7;

    /// All variants in discriminant order.
    pub const ALL: [SamplerPath; Self::COUNT] = [
        SamplerPath::RejectionReplica,
        SamplerPath::RejectionBall,
        SamplerPath::Windowed,
        SamplerPath::ExactScan,
        SamplerPath::IndexSample,
        SamplerPath::BallSample,
        SamplerPath::Uncached,
    ];

    /// Stable kebab-case name (JSON key / table row).
    pub fn label(self) -> &'static str {
        match self {
            SamplerPath::RejectionReplica => "rejection-replica",
            SamplerPath::RejectionBall => "rejection-ball",
            SamplerPath::Windowed => "windowed",
            SamplerPath::ExactScan => "exact-scan",
            SamplerPath::IndexSample => "index-sample",
            SamplerPath::BallSample => "ball-sample",
            SamplerPath::Uncached => "uncached",
        }
    }
}

/// Auxiliary event counters (not 1:1 with requests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Hybrid rejection loop ran out of attempts and fell through to
    /// windowed materialization.
    RejectionBudgetExhausted = 0,
    /// `nearest_replica` doubled its row-band search window (each count is
    /// one extra expansion beyond the initial estimate).
    RowBandExpansion = 1,
    /// `Placement::caches` membership query answered by the dense bitmap
    /// index.
    CachesBitmap = 2,
    /// `Placement::caches` membership query answered by binary search of
    /// the sorted replica/file lists.
    CachesBinarySearch = 3,
    /// One churn-schedule event (crash/leave/join/insert) applied to the
    /// live network.
    ChurnEvent = 4,
    /// A request's chosen server was dead; the failover path retried
    /// against the next-nearest live replica.
    DeadReplicaRetry = 5,
    /// No live replica was reachable within the retry budget; the request
    /// was served degraded (at its origin).
    FailedRequest = 6,
    /// One replica migrated (re-replicated or handed off) by the repair
    /// path.
    RepairMigration = 7,
}

impl Counter {
    /// Number of variants.
    pub const COUNT: usize = 8;

    /// All variants in discriminant order.
    pub const ALL: [Counter; Self::COUNT] = [
        Counter::RejectionBudgetExhausted,
        Counter::RowBandExpansion,
        Counter::CachesBitmap,
        Counter::CachesBinarySearch,
        Counter::ChurnEvent,
        Counter::DeadReplicaRetry,
        Counter::FailedRequest,
        Counter::RepairMigration,
    ];

    /// Stable kebab-case name (JSON key / table row).
    pub fn label(self) -> &'static str {
        match self {
            Counter::RejectionBudgetExhausted => "rejection-budget-exhausted",
            Counter::RowBandExpansion => "row-band-expansion",
            Counter::CachesBitmap => "caches-bitmap",
            Counter::CachesBinarySearch => "caches-binary-search",
            Counter::ChurnEvent => "churn-event",
            Counter::DeadReplicaRetry => "dead-replica-retry",
            Counter::FailedRequest => "failed-request",
            Counter::RepairMigration => "repair-migration",
        }
    }
}

/// Coarse pipeline stages timed by [`crate::SpanTimer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// The request-assignment loop of one simulation run.
    AssignLoop = 0,
}

impl Stage {
    /// Number of variants.
    pub const COUNT: usize = 1;

    /// All variants in discriminant order.
    pub const ALL: [Stage; Self::COUNT] = [Stage::AssignLoop];

    /// Stable kebab-case name (JSON key / table row).
    pub fn label(self) -> &'static str {
        match self {
            Stage::AssignLoop => "assign-loop",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_are_dense_indices() {
        for (i, p) in SamplerPath::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
    }

    #[test]
    fn labels_are_unique_kebab_case() {
        let mut seen = std::collections::HashSet::new();
        for p in SamplerPath::ALL {
            assert!(seen.insert(p.label()));
        }
        for c in Counter::ALL {
            assert!(seen.insert(c.label()));
        }
        for s in Stage::ALL {
            assert!(seen.insert(s.label()));
        }
        for label in seen {
            assert!(label
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '-' || ch.is_ascii_digit()));
        }
    }
}
