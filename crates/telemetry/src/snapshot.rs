//! Plain-data snapshots of a recorder's counters.
//!
//! [`TelemetrySnapshot`] is what crosses thread and artifact boundaries:
//! the Monte-Carlo runner snapshots each worker's [`crate::AtomicRecorder`]
//! after join and folds them with [`TelemetrySnapshot::merge`] (associative
//! and commutative — u64 additions, histogram merges, and a max — so the
//! fold order never changes the result). The JSON form is the payload of
//! the `paba-telemetry/1` snapshot (`paba simulate --telemetry-out`).

use paba_util::{Align, Histogram, Table};

use crate::events::{Counter, SamplerPath, Stage};

/// Aggregated span timings for one [`Stage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSummary {
    /// The stage these spans timed.
    pub stage: Stage,
    /// log₂ latency buckets (see [`Histogram::log2_bucket`]): bucket 0 is
    /// the value 0, bucket `b ≥ 1` covers `[2^(b-1), 2^b)` nanoseconds.
    pub buckets: Histogram,
    /// Exact sum of recorded nanoseconds (means stay exact despite the
    /// bucketed quantiles).
    pub sum_ns: u64,
    /// Largest recorded span.
    pub max_ns: u64,
    /// Number of recorded spans.
    pub count: u64,
}

impl SpanSummary {
    /// Empty summary for `stage`.
    pub fn empty(stage: Stage) -> Self {
        Self {
            stage,
            buckets: Histogram::new(),
            sum_ns: 0,
            max_ns: 0,
            count: 0,
        }
    }

    /// Fold another summary for the same stage into `self`.
    pub fn merge(&mut self, other: &SpanSummary) {
        assert_eq!(self.stage, other.stage, "merging spans of different stages");
        self.buckets.merge(&other.buckets);
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
    }

    /// Exact mean span in nanoseconds (`NaN` when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Bucketed `q`-quantile, reported as the lower bound of the bucket at
    /// the cut (`None` when empty). A resolution of one binary order of
    /// magnitude is plenty for "where does the time go" profiles.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let b = self.buckets.quantile(q)?;
        Some(if b == 0 { 0 } else { 1u64 << (b - 1) })
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            self.count,
            self.sum_ns,
            json_f64(self.mean_ns()),
            json_opt_u64(self.quantile_ns(0.5)),
            json_opt_u64(self.quantile_ns(0.99)),
            self.max_ns,
        )
    }
}

/// A plain-data view of everything one recorder observed.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-[`SamplerPath`] request counts, indexed by discriminant.
    pub paths: [u64; SamplerPath::COUNT],
    /// Auxiliary [`Counter`] tallies, indexed by discriminant.
    pub counters: [u64; Counter::COUNT],
    /// Exact histogram of materialized candidate-pool sizes.
    pub pool_sizes: Histogram,
    /// Span summaries, one per [`Stage`], indexed by discriminant.
    pub spans: Vec<SpanSummary>,
}

impl TelemetrySnapshot {
    /// All-zero snapshot (the identity element of [`Self::merge`]).
    pub fn empty() -> Self {
        Self {
            paths: [0; SamplerPath::COUNT],
            counters: [0; Counter::COUNT],
            pool_sizes: Histogram::new(),
            spans: Stage::ALL.iter().map(|&s| SpanSummary::empty(s)).collect(),
        }
    }

    /// Fold another snapshot into `self`. Associative and commutative.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (dst, src) in self.paths.iter_mut().zip(other.paths.iter()) {
            *dst += src;
        }
        for (dst, src) in self.counters.iter_mut().zip(other.counters.iter()) {
            *dst += src;
        }
        self.pool_sizes.merge(&other.pool_sizes);
        for (dst, src) in self.spans.iter_mut().zip(other.spans.iter()) {
            dst.merge(src);
        }
    }

    /// Total requests observed: the sum over sampler paths (each assign
    /// records exactly one path).
    pub fn total_requests(&self) -> u64 {
        self.paths.iter().sum()
    }

    /// Count for one sampler path.
    pub fn path_count(&self, path: SamplerPath) -> u64 {
        self.paths[path as usize]
    }

    /// Value of one auxiliary counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Span summary for one stage.
    pub fn span(&self, stage: Stage) -> &SpanSummary {
        &self.spans[stage as usize]
    }

    /// JSON object with `sampler_paths`, `counters`, `pool_sizes`, and
    /// `spans` fields — the payload of `paba-telemetry/1`.
    pub fn to_json(&self) -> String {
        let paths: Vec<String> = SamplerPath::ALL
            .iter()
            .map(|&p| format!("\"{}\":{}", p.label(), self.path_count(p)))
            .collect();
        let counters: Vec<String> = Counter::ALL
            .iter()
            .map(|&c| format!("\"{}\":{}", c.label(), self.counter(c)))
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| format!("\"{}\":{}", s.stage.label(), s.to_json()))
            .collect();
        format!(
            "{{\"sampler_paths\":{{{}}},\"counters\":{{{}}},\"pool_sizes\":{},\"spans\":{{{}}}}}",
            paths.join(","),
            counters.join(","),
            self.pool_sizes.summary_json(),
            spans.join(","),
        )
    }

    /// Human-readable Markdown breakdown (sampler paths with shares,
    /// auxiliary counters, pool sizes, stage timings).
    pub fn table(&self) -> String {
        let total = self.total_requests();
        let mut paths = Table::new(["sampler path", "requests", "share"]).with_aligns(vec![
            Align::Left,
            Align::Right,
            Align::Right,
        ]);
        for p in SamplerPath::ALL {
            let n = self.path_count(p);
            if n == 0 {
                continue;
            }
            let share = if total == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", n as f64 * 100.0 / total as f64)
            };
            paths.push_row([p.label().to_string(), n.to_string(), share]);
        }

        let mut counters =
            Table::new(["counter", "events"]).with_aligns(vec![Align::Left, Align::Right]);
        for c in Counter::ALL {
            counters.push_row([c.label().to_string(), self.counter(c).to_string()]);
        }

        let mut spans =
            Table::new(["stage", "spans", "mean", "p50", "p99", "max"]).with_aligns(vec![
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
        for s in &self.spans {
            spans.push_row([
                s.stage.label().to_string(),
                s.count.to_string(),
                fmt_ns(s.mean_ns()),
                s.quantile_ns(0.5).map_or("-".into(), |v| fmt_ns(v as f64)),
                s.quantile_ns(0.99).map_or("-".into(), |v| fmt_ns(v as f64)),
                if s.count == 0 {
                    "-".into()
                } else {
                    fmt_ns(s.max_ns as f64)
                },
            ]);
        }

        let pool = &self.pool_sizes;
        let pool_line = if pool.total() == 0 {
            "candidate pools: none recorded".to_string()
        } else {
            format!(
                "candidate pools: {} recorded, mean {:.2}, p50 {}, p99 {}, max {}",
                pool.total(),
                pool.mean(),
                pool.quantile(0.5).unwrap_or(0),
                pool.quantile(0.99).unwrap_or(0),
                pool.max_value().unwrap_or(0),
            )
        };

        format!(
            "{}\n{}\n{}\n\n{}",
            paths.to_markdown(),
            counters.to_markdown(),
            spans.to_markdown(),
            pool_line,
        )
    }
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

/// Format nanoseconds with an adaptive unit for table cells.
fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        return "-".to_string();
    }
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{AtomicRecorder, Recorder};

    /// Deterministic pseudo-random snapshot (no clocks/randomness in tests).
    fn synthetic(seed: u64) -> TelemetrySnapshot {
        let rec = AtomicRecorder::new();
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let r = next();
            rec.path(SamplerPath::ALL[(r % SamplerPath::COUNT as u64) as usize]);
            rec.count(Counter::ALL[(r as usize / 7) % Counter::COUNT], r % 5);
            rec.pool_size((r % 40) as usize);
            rec.span_ns(Stage::AssignLoop, r % 100_000);
        }
        rec.snapshot()
    }

    #[test]
    fn merge_is_associative_across_thread_splits() {
        let parts: Vec<TelemetrySnapshot> = (0..6).map(synthetic).collect();

        // ((a⊕b)⊕c)⊕… — the left fold the runner performs.
        let mut left = TelemetrySnapshot::empty();
        for p in &parts {
            left.merge(p);
        }

        // a⊕(b⊕(c⊕…)) — fully right-associated.
        let mut right = TelemetrySnapshot::empty();
        for p in parts.iter().rev() {
            let mut acc = p.clone();
            acc.merge(&right);
            right = acc;
        }

        // Pairwise tree merge, as a 4-thread split would produce.
        let mut tree = TelemetrySnapshot::empty();
        for pair in parts.chunks(2) {
            let mut acc = pair[0].clone();
            for p in &pair[1..] {
                acc.merge(p);
            }
            tree.merge(&acc);
        }

        assert_eq!(left, right);
        assert_eq!(left, tree);
        assert_eq!(
            left.total_requests(),
            parts.iter().map(|p| p.total_requests()).sum::<u64>()
        );
    }

    #[test]
    fn empty_is_merge_identity() {
        let snap = synthetic(42);
        let mut merged = snap.clone();
        merged.merge(&TelemetrySnapshot::empty());
        assert_eq!(merged, snap);
        let mut other = TelemetrySnapshot::empty();
        other.merge(&snap);
        assert_eq!(other, snap);
    }

    #[test]
    fn json_shape() {
        let snap = synthetic(7);
        let json = snap.to_json();
        for key in ["sampler_paths", "counters", "pool_sizes", "spans"] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        for p in SamplerPath::ALL {
            assert!(json.contains(&format!("\"{}\":", p.label())));
        }
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{}\":", s.label())));
        }
        // Empty snapshot serializes nulls, not NaN.
        let empty = TelemetrySnapshot::empty().to_json();
        assert!(!empty.contains("NaN"));
        assert!(empty.contains("\"mean_ns\":null"));
    }

    #[test]
    fn table_renders_nonempty_paths_only() {
        let mut snap = TelemetrySnapshot::empty();
        snap.paths[SamplerPath::Windowed as usize] = 9;
        snap.paths[SamplerPath::ExactScan as usize] = 1;
        let table = snap.table();
        assert!(table.contains("windowed"));
        assert!(table.contains("90.0%"));
        assert!(!table.contains("ball-sample"));
    }

    #[test]
    fn span_quantiles_are_bucket_lower_bounds() {
        let mut s = SpanSummary::empty(Stage::AssignLoop);
        for ns in [0u64, 1, 900, 1000, 1100] {
            s.buckets.record(Histogram::log2_bucket(ns));
            s.sum_ns += ns;
            s.max_ns = s.max_ns.max(ns);
            s.count += 1;
        }
        // 900/1000/1100 all land in [512, 2048) buckets.
        assert_eq!(s.quantile_ns(1.0), Some(1024));
        assert_eq!(s.quantile_ns(0.0), Some(0));
    }
}
