//! The [`Recorder`] trait and its two implementations.
//!
//! Instrumented code is generic over `Rec: Recorder`, so the compiler
//! monomorphizes one copy per recorder type. With [`NullRecorder`] every
//! event call is an empty inlined body and [`Recorder::ENABLED`] is a
//! compile-time `false` — any bookkeeping needed *only* to feed the
//! recorder (attempt tallies, clock reads) should be guarded by
//! `Rec::ENABLED` so the optimizer deletes it outright.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use paba_util::Histogram;

use crate::events::{Counter, SamplerPath, Stage};
use crate::snapshot::{SpanSummary, TelemetrySnapshot};

/// Event sink for hot-path instrumentation.
///
/// All methods take `&self`: the atomic implementation is shared across
/// call sites by reference, and the null implementation has no state.
pub trait Recorder {
    /// Compile-time flag: `false` means every method is a no-op and any
    /// caller-side bookkeeping guarded by this constant folds away.
    const ENABLED: bool;

    /// Record which sampler path served one request.
    fn path(&self, path: SamplerPath);

    /// Add `delta` to an auxiliary counter.
    fn count(&self, counter: Counter, delta: u64);

    /// Record the size of one materialized candidate pool.
    fn pool_size(&self, size: usize);

    /// Record an elapsed span of `nanos` nanoseconds for `stage`.
    fn span_ns(&self, stage: Stage, nanos: u64);

    /// Record the outcome of one assignment: file id, requesting origin,
    /// chosen server, hop distance, and the `(node, load)` candidates the
    /// strategy compared. Strategies call this once per request at the end
    /// of `assign`; `candidates` is lazy so a recorder that does not
    /// sample this request never pays for materializing it. Default: no-op.
    #[inline(always)]
    fn request(
        &self,
        _file: u64,
        _origin: u64,
        _server: u64,
        _hops: u32,
        _candidates: &mut dyn Iterator<Item = (u64, u32)>,
    ) {
    }

    /// Observe the full load vector after request `request_index` was
    /// recorded — the hook behind load-evolution time series. Default:
    /// no-op.
    #[inline(always)]
    fn loads(&self, _request_index: u64, _loads: &[u32]) {}
}

/// References to a recorder are recorders themselves; strategies hold a
/// `&AtomicRecorder` without losing the compile-time `ENABLED` constant.
impl<R: Recorder + ?Sized> Recorder for &R {
    const ENABLED: bool = R::ENABLED;

    #[inline(always)]
    fn path(&self, path: SamplerPath) {
        (**self).path(path);
    }

    #[inline(always)]
    fn count(&self, counter: Counter, delta: u64) {
        (**self).count(counter, delta);
    }

    #[inline(always)]
    fn pool_size(&self, size: usize) {
        (**self).pool_size(size);
    }

    #[inline(always)]
    fn span_ns(&self, stage: Stage, nanos: u64) {
        (**self).span_ns(stage, nanos);
    }

    // The two default-body hooks must be forwarded explicitly: a default
    // body on `&R` would silently swallow events instead of delegating to
    // the underlying recorder.
    #[inline(always)]
    fn request(
        &self,
        file: u64,
        origin: u64,
        server: u64,
        hops: u32,
        candidates: &mut dyn Iterator<Item = (u64, u32)>,
    ) {
        (**self).request(file, origin, server, hops, candidates);
    }

    #[inline(always)]
    fn loads(&self, request_index: u64, loads: &[u32]) {
        (**self).loads(request_index, loads);
    }
}

/// The do-nothing recorder: the default for every strategy, compiling
/// instrumented code down to the uninstrumented machine code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn path(&self, _path: SamplerPath) {}

    #[inline(always)]
    fn count(&self, _counter: Counter, _delta: u64) {}

    #[inline(always)]
    fn pool_size(&self, _size: usize) {}

    #[inline(always)]
    fn span_ns(&self, _stage: Stage, _nanos: u64) {}

    #[inline(always)]
    fn request(
        &self,
        _file: u64,
        _origin: u64,
        _server: u64,
        _hops: u32,
        _candidates: &mut dyn Iterator<Item = (u64, u32)>,
    ) {
    }

    #[inline(always)]
    fn loads(&self, _request_index: u64, _loads: &[u32]) {}
}

/// Fan one event stream out to two recorders.
///
/// Built for serving live metrics during traced runs: the strategy holds
/// a `Tee(&TraceRecorder, &AtomicRecorder)` so the per-thread trace
/// collection and the shared live scrape recorder both see every event.
///
/// The lazy `candidates` iterator of [`Recorder::request`] can only be
/// consumed once, so it is forwarded to the *first* recorder; the second
/// receives an empty iterator (the aggregate recorders ignore it anyway).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline(always)]
    fn path(&self, path: SamplerPath) {
        self.0.path(path);
        self.1.path(path);
    }

    #[inline(always)]
    fn count(&self, counter: Counter, delta: u64) {
        self.0.count(counter, delta);
        self.1.count(counter, delta);
    }

    #[inline(always)]
    fn pool_size(&self, size: usize) {
        self.0.pool_size(size);
        self.1.pool_size(size);
    }

    #[inline(always)]
    fn span_ns(&self, stage: Stage, nanos: u64) {
        self.0.span_ns(stage, nanos);
        self.1.span_ns(stage, nanos);
    }

    #[inline(always)]
    fn request(
        &self,
        file: u64,
        origin: u64,
        server: u64,
        hops: u32,
        candidates: &mut dyn Iterator<Item = (u64, u32)>,
    ) {
        self.0.request(file, origin, server, hops, candidates);
        self.1
            .request(file, origin, server, hops, &mut std::iter::empty());
    }

    #[inline(always)]
    fn loads(&self, request_index: u64, loads: &[u32]) {
        self.0.loads(request_index, loads);
        self.1.loads(request_index, loads);
    }
}

/// Candidate-pool sizes are bucketed exactly up to this bound; anything
/// larger lands in the final overflow bucket. Pools in the paper's regimes
/// are `O(m/n · ball)` — tens, not hundreds — so 512 exact buckets cover
/// everything we have ever observed with room to spare.
pub const POOL_SIZE_BUCKETS: usize = 512;

/// log₂ span buckets: bucket 0 holds the value 0, bucket `b ≥ 1` holds
/// `[2^(b-1), 2^b)`. `log2_bucket(u64::MAX) = 64`, hence 65 buckets.
const SPAN_BUCKETS: usize = 65;

/// Per-stage span aggregate: log₂ latency buckets plus exact sum/max/count
/// so means stay exact even though quantiles are bucketed.
#[derive(Debug)]
struct SpanCell {
    buckets: [AtomicU64; SPAN_BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    count: AtomicU64,
}

impl SpanCell {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn record(&self, nanos: u64) {
        let b = Histogram::log2_bucket(nanos);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(nanos, Ordering::Relaxed);
        self.max_ns.fetch_max(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn summary(&self, stage: Stage) -> SpanSummary {
        let mut buckets = Histogram::with_capacity(SPAN_BUCKETS);
        for (b, cell) in self.buckets.iter().enumerate() {
            buckets.record_n(b, cell.load(Ordering::Relaxed));
        }
        SpanSummary {
            stage,
            buckets,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Relaxed atomic event counters, shareable across threads by reference.
///
/// All loads/stores are `Relaxed`: counters are independent monotonic
/// tallies read only after the threads that fed them have joined, so no
/// ordering between events is needed.
#[derive(Debug)]
pub struct AtomicRecorder {
    paths: [AtomicU64; SamplerPath::COUNT],
    counters: [AtomicU64; Counter::COUNT],
    pool_sizes: Vec<AtomicU64>,
    spans: [SpanCell; Stage::COUNT],
}

impl AtomicRecorder {
    /// Fresh recorder with all counters at zero.
    pub fn new() -> Self {
        Self {
            paths: std::array::from_fn(|_| AtomicU64::new(0)),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            pool_sizes: (0..POOL_SIZE_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            spans: std::array::from_fn(|_| SpanCell::new()),
        }
    }

    /// Read the current counter values into a plain-data snapshot.
    ///
    /// Safe to call while other threads are still recording (each counter
    /// is read atomically), but the snapshot is only guaranteed complete
    /// after writers have joined.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut pool_sizes = Histogram::new();
        for (size, cell) in self.pool_sizes.iter().enumerate() {
            pool_sizes.record_n(size, cell.load(Ordering::Relaxed));
        }
        TelemetrySnapshot {
            paths: std::array::from_fn(|i| self.paths[i].load(Ordering::Relaxed)),
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            pool_sizes,
            spans: Stage::ALL
                .iter()
                .map(|&s| self.spans[s as usize].summary(s))
                .collect(),
        }
    }
}

impl Default for AtomicRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for AtomicRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn path(&self, path: SamplerPath) {
        self.paths[path as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn count(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    fn pool_size(&self, size: usize) {
        let bucket = size.min(POOL_SIZE_BUCKETS - 1);
        self.pool_sizes[bucket].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn span_ns(&self, stage: Stage, nanos: u64) {
        self.spans[stage as usize].record(nanos);
    }
}

/// Monotonic-clock stage timer.
///
/// The clock is read only when the recorder is enabled — with
/// [`NullRecorder`] both `start` and `stop` compile to nothing.
#[derive(Debug)]
#[must_use = "a span timer records nothing until stopped"]
pub struct SpanTimer {
    start: Option<Instant>,
    stage: Stage,
}

impl SpanTimer {
    /// Begin timing `stage`. The recorder is only consulted for its
    /// compile-time `ENABLED` flag here; the event fires on [`Self::stop`].
    #[inline]
    pub fn start<R: Recorder>(_rec: &R, stage: Stage) -> Self {
        Self {
            start: R::ENABLED.then(Instant::now),
            stage,
        }
    }

    /// Stop the timer and record the elapsed span.
    #[inline]
    pub fn stop<R: Recorder>(self, rec: &R) {
        if let Some(t0) = self.start {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            rec.span_ns(self.stage, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        const { assert!(!NullRecorder::ENABLED) };
        const { assert!(!<&NullRecorder as Recorder>::ENABLED) };
        const { assert!(AtomicRecorder::ENABLED) };
        const { assert!(<&AtomicRecorder as Recorder>::ENABLED) };
    }

    #[test]
    fn atomic_recorder_counts() {
        let rec = AtomicRecorder::new();
        rec.path(SamplerPath::Windowed);
        rec.path(SamplerPath::Windowed);
        rec.path(SamplerPath::ExactScan);
        rec.count(Counter::RejectionBudgetExhausted, 3);
        rec.pool_size(7);
        rec.pool_size(POOL_SIZE_BUCKETS + 100); // overflow bucket
        rec.span_ns(Stage::AssignLoop, 1000);
        let snap = rec.snapshot();
        assert_eq!(snap.paths[SamplerPath::Windowed as usize], 2);
        assert_eq!(snap.paths[SamplerPath::ExactScan as usize], 1);
        assert_eq!(snap.counters[Counter::RejectionBudgetExhausted as usize], 3);
        assert_eq!(snap.pool_sizes.count(7), 1);
        assert_eq!(snap.pool_sizes.count(POOL_SIZE_BUCKETS - 1), 1);
        assert_eq!(snap.total_requests(), 3);
        let span = &snap.spans[Stage::AssignLoop as usize];
        assert_eq!(span.count, 1);
        assert_eq!(span.sum_ns, 1000);
        assert_eq!(span.max_ns, 1000);
        assert_eq!(span.buckets.count(Histogram::log2_bucket(1000)), 1);
    }

    #[test]
    fn recorder_by_reference() {
        let rec = AtomicRecorder::new();
        fn generic_site<R: Recorder>(r: &R) {
            r.path(SamplerPath::BallSample);
        }
        generic_site(&&rec); // &&AtomicRecorder: blanket impl through two refs
        generic_site(&rec);
        assert_eq!(rec.snapshot().paths[SamplerPath::BallSample as usize], 2);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let rec = AtomicRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000usize {
                        rec.path(SamplerPath::RejectionReplica);
                        rec.pool_size(i % 16);
                        rec.count(Counter::CachesBitmap, 2);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.paths[SamplerPath::RejectionReplica as usize], 4000);
        assert_eq!(snap.pool_sizes.total(), 4000);
        assert_eq!(snap.counters[Counter::CachesBitmap as usize], 8000);
    }

    #[test]
    fn tee_forwards_to_both_recorders() {
        const { assert!(!Tee::<NullRecorder, NullRecorder>::ENABLED) };
        const { assert!(Tee::<NullRecorder, &AtomicRecorder>::ENABLED) };

        let a = AtomicRecorder::new();
        let b = AtomicRecorder::new();
        let tee = Tee(&a, &b);
        tee.path(SamplerPath::Windowed);
        tee.count(Counter::RowBandExpansion, 2);
        tee.pool_size(3);
        tee.span_ns(Stage::AssignLoop, 500);
        for rec in [&a, &b] {
            let snap = rec.snapshot();
            assert_eq!(snap.path_count(SamplerPath::Windowed), 1);
            assert_eq!(snap.counter(Counter::RowBandExpansion), 2);
            assert_eq!(snap.pool_sizes.total(), 1);
            assert_eq!(snap.span(Stage::AssignLoop).count, 1);
        }
    }

    #[test]
    fn span_timer_records_only_when_enabled() {
        let rec = AtomicRecorder::new();
        let t = SpanTimer::start(&rec, Stage::AssignLoop);
        t.stop(&rec);
        assert_eq!(rec.snapshot().spans[Stage::AssignLoop as usize].count, 1);

        // Null: no clock read, no record; just must compile and run.
        let t = SpanTimer::start(&NullRecorder, Stage::AssignLoop);
        assert!(t.start.is_none());
        t.stop(&NullRecorder);
    }
}
