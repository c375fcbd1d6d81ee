//! Zero-overhead-when-disabled instrumentation for the assign hot path.
//!
//! The adaptive hybrid sampler (see `paba-core::strategy`) chooses between
//! several materialization paths at runtime — two-sided rejection, windowed
//! candidate enumeration, exact scans — and which path fires (and how often
//! its budgets blow) is exactly what explains where the Θ(log log n)
//! regime degrades at scale. This crate makes those internals observable
//! without taxing the hot path when observation is off:
//!
//! * [`Recorder`] — the event sink trait. Strategies are generic over it,
//!   so the choice of recorder is made at *compile time* per
//!   monomorphization, not per event.
//! * [`NullRecorder`] — the default. Every method is an empty `#[inline]`
//!   body and [`Recorder::ENABLED`] is `false`, so instrumented code
//!   compiles to exactly the uninstrumented machine code. The repo
//!   benchmark (`perfbench/`) times its loops with it, and its
//!   `telemetry.atomic_overhead` prices an [`AtomicRecorder`] against it.
//! * [`AtomicRecorder`] — relaxed per-event atomic counters plus log₂-
//!   bucket span histograms. Shareable across threads by reference; the
//!   Monte-Carlo runner gives each worker thread its own instance and
//!   merges [`TelemetrySnapshot`]s after join, so parallel determinism of
//!   the simulation itself is untouched.
//! * [`SpanTimer`] — monotonic-clock stage timers (placement build, assign
//!   loop, metrics merge) that skip the clock read entirely when the
//!   recorder is disabled.
//! * [`TelemetrySnapshot`] — a plain-data view with associative
//!   [`TelemetrySnapshot::merge`], JSON serialization for the
//!   `paba-telemetry/1` snapshot, and a human-readable table.
//!
//! On top of the aggregate counters sits the *time-resolved* layer:
//!
//! * [`TraceRecorder`] — sampled per-request [`TraceEvent`]s (1-in-N or
//!   reservoir, deterministic per run) plus a per-run load-evolution
//!   [`LoadSeries`], merged scheduling-independently via
//!   [`TraceReport::collect`].
//! * [`export`] — JSONL event dumps, the `paba-trace-series/1` artifact,
//!   and Chrome Trace Format spans loadable in Perfetto.
//!
//! And the *live* layer added for operational visibility:
//!
//! * [`serve`] — a std-only Prometheus text-exposition endpoint
//!   (`/metrics`, `/healthz`) rendering a shared [`AtomicRecorder`]
//!   snapshot plus runner progress while a run is still in flight.
//! * [`alloc`] — a counting `#[global_allocator]` wrapper surfacing
//!   allocation count / bytes / peak on the metrics page (installed by
//!   the CLI behind its `alloc-track` feature).

pub mod alloc;
pub mod events;
pub mod export;
pub mod recorder;
pub mod serve;
pub mod snapshot;
pub mod timeseries;
pub mod trace;

pub use alloc::{AllocSnapshot, CountingAlloc};
pub use events::{Counter, SamplerPath, Stage};
pub use recorder::{AtomicRecorder, NullRecorder, Recorder, SpanTimer, Tee, POOL_SIZE_BUCKETS};
pub use serve::{MetricsServer, ProgressView};
pub use snapshot::{SpanSummary, TelemetrySnapshot};
pub use timeseries::{LoadSeries, SeriesPoint};
pub use trace::{
    RunTrace, Sampling, SpanEvent, TraceConfig, TraceEvent, TraceRecorder, TraceReport,
};
