//! Live observability handle for in-flight parallel runs.
//!
//! The per-thread recorder pattern of [`run_parallel_with_state`] is
//! ideal for post-join merging but invisible mid-run: each worker's
//! recorder is private until it joins. [`LiveRun`] inverts that for the
//! `--serve-metrics` path: every strided worker shares **one**
//! [`AtomicRecorder`] (its counters are relaxed atomics, so concurrent
//! recording is lossless and [`AtomicRecorder::snapshot`] is safe while
//! writers are still running) plus one [`Progress`] tracker, and the
//! scrape thread renders both into a Prometheus page on demand.
//!
//! Sharing one recorder instead of per-thread instances trades a little
//! cache-line contention for mid-run visibility — acceptable for an
//! explicitly opted-in observability mode, and irrelevant to the
//! `NullRecorder` fast path, which never constructs a `LiveRun`.

use std::sync::Arc;

use rand::rngs::SmallRng;

use paba_telemetry::serve::{render_metrics, ProgressView};
use paba_telemetry::{alloc, AtomicRecorder};

use crate::progress::Progress;
use crate::runner::run_parallel_with_state;

/// Shared state of one live-observable run: a recorder every worker
/// feeds and a progress tracker. Cheap to clone (two `Arc`s) so the
/// scrape thread's render closure can own a handle.
#[derive(Clone, Debug)]
pub struct LiveRun {
    /// The recorder all strided workers share.
    pub recorder: Arc<AtomicRecorder>,
    /// Completed-run tracker.
    pub progress: Arc<Progress>,
}

impl LiveRun {
    /// Fresh handle for `total` work units.
    pub fn new(total: u64) -> Self {
        Self {
            recorder: Arc::new(AtomicRecorder::new()),
            progress: Arc::new(Progress::new(total)),
        }
    }

    /// Plain-data progress view for the metrics renderer.
    pub fn progress_view(&self) -> ProgressView {
        ProgressView {
            completed: self.progress.completed(),
            total: self.progress.total(),
            elapsed_s: self.progress.elapsed().as_secs_f64(),
            rate: self.progress.rate(),
            eta_s: self.progress.eta_seconds(),
        }
    }

    /// Render the full Prometheus page: live recorder snapshot, progress,
    /// and allocator stats when the counting allocator is installed.
    pub fn render_metrics(&self) -> String {
        render_metrics(
            &self.recorder.snapshot(),
            Some(&self.progress_view()),
            alloc::snapshot().as_ref(),
        )
    }
}

/// [`run_parallel_with_state`] over a shared live recorder: every worker
/// records into `live.recorder` and ticks `live.progress`; outputs come
/// back in run-index order with the usual `(master_seed, run_index)`
/// determinism.
pub fn run_parallel_live<O, F>(
    runs: usize,
    master_seed: u64,
    threads: Option<usize>,
    live: &LiveRun,
    run_fn: F,
) -> Vec<O>
where
    O: Send,
    F: Fn(&AtomicRecorder, usize, &mut SmallRng) -> O + Sync,
{
    let (outputs, _states) = run_parallel_with_state(
        runs,
        master_seed,
        threads,
        Some(live.progress.as_ref()),
        || Arc::clone(&live.recorder),
        |rec, i, rng| run_fn(rec, i, rng),
    );
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_telemetry::{Recorder, SamplerPath, Stage};
    use rand::Rng;

    #[test]
    fn workers_share_one_recorder_and_tick_progress() {
        let live = LiveRun::new(40);
        let out = run_parallel_live(40, 11, Some(4), &live, |rec, i, rng| {
            for _ in 0..10 {
                rec.path(SamplerPath::Windowed);
            }
            rec.span_ns(Stage::AssignLoop, rng.gen_range(1..1000));
            i
        });
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        assert_eq!(live.progress.completed(), 40);
        let snap = live.recorder.snapshot();
        assert_eq!(snap.path_count(SamplerPath::Windowed), 400);
        assert_eq!(snap.span(Stage::AssignLoop).count, 40);
    }

    #[test]
    fn outputs_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let live = LiveRun::new(30);
            run_parallel_live(30, 77, Some(threads), &live, |_rec, _i, rng| {
                rng.gen::<u64>()
            })
        };
        let t1 = run(1);
        assert_eq!(t1, run(3));
        assert_eq!(t1, run(8));
    }

    #[test]
    fn render_metrics_mid_run_is_safe_and_monotone() {
        let live = LiveRun::new(16);
        // Scrape concurrently with the workers — must not tear or panic.
        let pages = std::thread::scope(|s| {
            let scraper = {
                let live = live.clone();
                s.spawn(move || {
                    let mut pages = Vec::new();
                    for _ in 0..20 {
                        pages.push(live.render_metrics());
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    pages
                })
            };
            let _ = run_parallel_live(16, 5, Some(4), &live, |rec, i, _rng| {
                for _ in 0..500 {
                    rec.path(SamplerPath::RejectionBall);
                }
                i
            });
            scraper.join().unwrap()
        });
        let totals: Vec<u64> = pages
            .iter()
            .map(|p| {
                p.lines()
                    .find(|l| l.starts_with("paba_requests_total "))
                    .and_then(|l| l.rsplit(' ').next())
                    .and_then(|v| v.parse().ok())
                    .unwrap()
            })
            .collect();
        assert!(totals.windows(2).all(|w| w[1] >= w[0]), "{totals:?}");
        let final_page = live.render_metrics();
        assert!(final_page.contains("paba_requests_total 8000"));
        assert!(final_page.contains("paba_progress_completed_runs 16"));
        assert!(final_page.contains("paba_progress_total_runs 16"));
    }
}
