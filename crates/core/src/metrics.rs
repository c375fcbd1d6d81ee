//! Simulation metrics: the paper's Definition 1.
//!
//! * **Maximum load** `L = max_i T_i` — the largest number of requests any
//!   single server ends up handling.
//! * **Communication cost** `C` — the average hop distance between request
//!   origins and their serving nodes.
//!
//! [`SimReport`] additionally tracks the full load vector/histogram and the
//! fallback events Strategy II's finite radius can trigger (see
//! DESIGN.md §5.4), so experiments can verify fallbacks are rare in the
//! paper's regimes.

use paba_topology::NodeId;
use paba_util::Histogram;

/// Why an assignment deviated from the strategy's primary rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FallbackKind {
    /// The radius-`r` ball held exactly one replica; it was used without a
    /// load comparison (Strategy II only).
    SingleCandidate,
    /// The radius-`r` ball held no replica; the strategy escalated to the
    /// global nearest replica.
    NoCandidateInBall,
    /// The requested file had no replica anywhere and the origin served it
    /// locally. Synthetic sources redraw uncached files, so only a source
    /// that replays its files as given (a trace recorded against another
    /// placement) reaches this.
    Uncached,
}

/// Aggregated outcome of one simulated delivery phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Final per-server load vector `T_i`.
    pub loads: Vec<u32>,
    /// Number of requests processed.
    pub total_requests: u64,
    /// Sum of hop distances over all requests.
    pub total_hops: u64,
    /// Requests decided between exactly one candidate (Strategy II).
    pub single_candidate: u64,
    /// Requests whose ball held no replica.
    pub no_candidate_in_ball: u64,
    /// Requests for files with no replica anywhere.
    pub uncached: u64,
}

impl SimReport {
    /// Empty report for `n` servers.
    pub fn new(n: u32) -> Self {
        Self {
            loads: vec![0; n as usize],
            ..Default::default()
        }
    }

    /// Record one served request.
    #[inline]
    pub fn record(&mut self, server: NodeId, hops: u32, fallback: Option<FallbackKind>) {
        self.loads[server as usize] += 1;
        self.total_requests += 1;
        self.total_hops += hops as u64;
        match fallback {
            None => {}
            Some(FallbackKind::SingleCandidate) => self.single_candidate += 1,
            Some(FallbackKind::NoCandidateInBall) => self.no_candidate_in_ball += 1,
            Some(FallbackKind::Uncached) => self.uncached += 1,
        }
    }

    /// Number of servers.
    pub fn n(&self) -> u32 {
        self.loads.len() as u32
    }

    /// Maximum load `L = max_i T_i`.
    pub fn max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Mean load (requests per server).
    pub fn mean_load(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.total_requests as f64 / self.loads.len() as f64
        }
    }

    /// Communication cost `C`: average hops per request (0 if no requests).
    pub fn comm_cost(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.total_requests as f64
        }
    }

    /// Fraction of requests that hit any fallback path.
    pub fn fallback_fraction(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        (self.single_candidate + self.no_candidate_in_ball + self.uncached) as f64
            / self.total_requests as f64
    }

    /// Load quantile by the nearest-rank definition: the smallest load `l`
    /// such that at least `⌈q·n⌉` servers carry load `≤ l`.
    ///
    /// `q = 0.5` is the median server load, `q = 0.99` the p99, and
    /// `q = 1.0` equals [`SimReport::max_load`]. Computed by a counting
    /// pass over the load histogram (O(n + L)), so the repro gates can
    /// query several quantiles per run without sorting.
    ///
    /// # Panics
    /// If `q ∉ [0, 1]`.
    pub fn load_quantile(&self, q: f64) -> u32 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.loads.is_empty() {
            return 0;
        }
        let mut counts = vec![0u64; self.max_load() as usize + 1];
        for &l in &self.loads {
            counts[l as usize] += 1;
        }
        // Nearest rank, clamped to [1, n] so q = 0 returns the minimum.
        let rank = ((q * self.loads.len() as f64).ceil() as u64).clamp(1, self.loads.len() as u64);
        let mut seen = 0u64;
        for (load, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return load as u32;
            }
        }
        unreachable!("cumulative count must reach rank ≤ n")
    }

    /// Population standard deviation of the per-server load vector.
    ///
    /// The paper's theorems bound the *spread* of the allocation; the repro
    /// gates use this as a scale-free balance measure alongside
    /// [`SimReport::max_load`].
    pub fn load_stddev(&self) -> f64 {
        if self.loads.is_empty() {
            return 0.0;
        }
        let n = self.loads.len() as f64;
        let mean = self.total_requests as f64 / n;
        let ss: f64 = self
            .loads
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum();
        (ss / n).sqrt()
    }

    /// Load histogram (bucket = number of requests, count = servers).
    pub fn load_histogram(&self) -> Histogram {
        let mut h = Histogram::with_capacity(self.max_load() as usize + 1);
        for &l in &self.loads {
            h.record(l as usize);
        }
        h
    }

    /// Internal consistency: loads must sum to the request count.
    pub fn check_conservation(&self) -> bool {
        self.loads.iter().map(|&l| l as u64).sum::<u64>() == self.total_requests
    }

    /// Merge another report over the *same* network shape (for batching
    /// several request waves); panics on shape mismatch.
    pub fn merge(&mut self, other: &SimReport) {
        assert_eq!(self.loads.len(), other.loads.len(), "shape mismatch");
        for (a, b) in self.loads.iter_mut().zip(other.loads.iter()) {
            *a += b;
        }
        self.total_requests += other.total_requests;
        self.total_hops += other.total_hops;
        self.single_candidate += other.single_candidate;
        self.no_candidate_in_ball += other.no_candidate_in_ball;
        self.uncached += other.uncached;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_metrics() {
        let mut r = SimReport::new(4);
        r.record(0, 3, None);
        r.record(0, 1, Some(FallbackKind::SingleCandidate));
        r.record(2, 0, Some(FallbackKind::NoCandidateInBall));
        assert_eq!(r.max_load(), 2);
        assert_eq!(r.total_requests, 3);
        assert!((r.comm_cost() - 4.0 / 3.0).abs() < 1e-12);
        assert!((r.mean_load() - 0.75).abs() < 1e-12);
        assert_eq!(r.single_candidate, 1);
        assert_eq!(r.no_candidate_in_ball, 1);
        assert!((r.fallback_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(r.check_conservation());
    }

    #[test]
    fn histogram_reflects_loads() {
        let mut r = SimReport::new(3);
        r.record(1, 0, None);
        r.record(1, 0, None);
        let h = r.load_histogram();
        assert_eq!(h.count(0), 2); // two idle servers
        assert_eq!(h.count(2), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimReport::new(2);
        a.record(0, 5, None);
        let mut b = SimReport::new(2);
        b.record(1, 7, Some(FallbackKind::Uncached));
        a.merge(&b);
        assert_eq!(a.total_requests, 2);
        assert_eq!(a.total_hops, 12);
        assert_eq!(a.uncached, 1);
        assert_eq!(a.loads, vec![1, 1]);
        assert!(a.check_conservation());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_different_shapes() {
        let mut a = SimReport::new(2);
        a.merge(&SimReport::new(3));
    }

    #[test]
    fn empty_report() {
        let r = SimReport::new(5);
        assert_eq!(r.max_load(), 0);
        assert_eq!(r.comm_cost(), 0.0);
        assert_eq!(r.fallback_fraction(), 0.0);
        assert!(r.check_conservation());
        assert_eq!(r.load_quantile(0.5), 0);
        assert_eq!(r.load_stddev(), 0.0);
    }

    /// Brute-force nearest-rank quantile on a sorted copy, for cross-checks.
    fn brute_quantile(loads: &[u32], q: f64) -> u32 {
        let mut v = loads.to_vec();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    #[test]
    fn quantiles_match_sorted_rank() {
        let mut r = SimReport::new(10);
        // loads: [4, 1, 0, 2, 0, 0, 1, 0, 0, 0]
        for (server, times) in [(0u32, 4u32), (1, 1), (3, 2), (6, 1)] {
            for _ in 0..times {
                r.record(server, 1, None);
            }
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(r.load_quantile(q), brute_quantile(&r.loads, q), "q={q}");
        }
        assert_eq!(r.load_quantile(1.0), r.max_load());
        assert_eq!(r.load_quantile(0.0), 0);
        assert_eq!(r.load_quantile(0.5), 0); // 6 of 10 servers are idle
    }

    #[test]
    fn stddev_matches_two_pass() {
        let mut r = SimReport::new(4);
        for (server, times) in [(0u32, 3u32), (1, 1), (2, 2)] {
            for _ in 0..times {
                r.record(server, 0, None);
            }
        }
        // loads [3, 1, 2, 0]: mean 1.5, population variance 1.25.
        assert!((r.load_stddev() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantile_and_stddev_survive_merge() {
        let mut a = SimReport::new(6);
        let mut b = SimReport::new(6);
        for s in [0u32, 0, 1, 2, 2, 2] {
            a.record(s, 1, None);
        }
        for s in [3u32, 3, 3, 3, 5, 0] {
            b.record(s, 2, None);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        // Reference: element-wise summed load vector.
        let combined: Vec<u32> = a
            .loads
            .iter()
            .zip(b.loads.iter())
            .map(|(&x, &y)| x + y)
            .collect();
        assert_eq!(merged.loads, combined);
        for q in [0.0, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(
                merged.load_quantile(q),
                brute_quantile(&combined, q),
                "q={q}"
            );
        }
        let n = combined.len() as f64;
        let mean = combined.iter().map(|&l| l as f64).sum::<f64>() / n;
        let var = combined
            .iter()
            .map(|&l| (l as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!((merged.load_stddev() - var.sqrt()).abs() < 1e-12);
        assert!(merged.check_conservation());
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_rejects_out_of_range() {
        let _ = SimReport::new(2).load_quantile(1.5);
    }
}
