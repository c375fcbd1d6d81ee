//! Lightweight progress tracking for long parallel runs.
//!
//! [`Progress`] is a shared atomic counter of completed work — cheap
//! enough to tick from every worker thread. It also reports elapsed wall
//! time, the completion rate in units/s and an ETA for the remaining
//! work, which the `--serve-metrics` endpoint renders (see
//! [`crate::LiveRun`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shared completed-work counter.
#[derive(Debug)]
pub struct Progress {
    total: u64,
    completed: AtomicU64,
    start: Instant,
}

impl Progress {
    /// Tracker for `total` units.
    pub fn new(total: u64) -> Self {
        Self {
            total: total.max(1),
            completed: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Record one completed unit.
    pub fn tick(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Units completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Total units.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Wall time since the tracker was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Completion rate in units/s (0.0 until any work completes or any
    /// measurable time elapses).
    pub fn rate(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }

    /// Estimated seconds until completion, `None` until a rate is known.
    pub fn eta_seconds(&self) -> Option<f64> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        Some(self.total.saturating_sub(self.completed()) as f64 / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_ticks() {
        let p = Progress::new(10);
        for _ in 0..7 {
            p.tick();
        }
        assert_eq!(p.completed(), 7);
        assert_eq!(p.total(), 10);
    }

    #[test]
    fn zero_total_clamped() {
        let p = Progress::new(0);
        p.tick(); // must not divide by zero
        assert_eq!(p.completed(), 1);
    }

    #[test]
    fn concurrent_ticks_all_counted() {
        let p = Progress::new(1000);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        p.tick();
                    }
                });
            }
        });
        assert_eq!(p.completed(), 1000);
    }

    #[test]
    fn rate_and_eta_after_work() {
        let p = Progress::new(100);
        assert_eq!(p.completed(), 0);
        for _ in 0..50 {
            p.tick();
        }
        // Some wall time has necessarily elapsed by now.
        std::thread::sleep(Duration::from_millis(2));
        let rate = p.rate();
        assert!(rate > 0.0, "rate should be positive after 50 ticks");
        let eta = p.eta_seconds().expect("eta known once rate is positive");
        assert!(eta >= 0.0);
        // ETA ≈ remaining / rate by definition.
        let expected = 50.0 / rate;
        assert!((eta - expected).abs() / expected < 0.5);
    }

    #[test]
    fn eta_none_before_any_work() {
        let p = Progress::new(10);
        assert_eq!(p.rate(), 0.0);
        assert!(p.eta_seconds().is_none());
    }

    #[test]
    fn ticks_beyond_total_do_not_underflow() {
        let p = Progress::new(2);
        for _ in 0..5 {
            p.tick();
        }
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(p.eta_seconds(), Some(0.0));
    }
}
