//! Synthetic request sources beyond the paper's IID baseline.
//!
//! Each source keeps the paper's "one ball per request" framing but bends
//! one axis of the workload:
//!
//! * [`HotspotOrigins`] — *where* requests come from: client geography
//!   concentrated around hotspot centers on the torus (or Zipf-skewed
//!   across node indices), instead of uniform origins.
//! * [`FlashCrowd`] — *when* a file is popular: one file's popularity is
//!   boosted by a factor during a request-window, then decays
//!   exponentially back to the base profile.
//! * [`ShiftingPopularity`] — *which* files are popular: the profile's
//!   rank→file assignment rotates every epoch, modelling daily topic
//!   churn under a stable popularity *shape*.

use paba_core::{apply_uncached_policy, CacheNetwork, Request, RequestSource};
use paba_popularity::{AliasTable, FileId};
use paba_topology::{NodeId, Topology};
use paba_util::SplitMix64;
use rand::Rng;

/// Requests whose origins cluster around hotspot centers.
///
/// With probability `fraction` the origin is drawn uniformly from the
/// radius-`radius` ball of a uniformly chosen center; otherwise it is
/// uniform over all `n` servers (the baseline). Files follow the library
/// profile, uncached draws redrawn from the cached sub-library.
#[derive(Clone, Debug)]
pub struct HotspotOrigins {
    centers: Vec<NodeId>,
    radius: u32,
    fraction: f64,
}

impl HotspotOrigins {
    /// Source with explicit hotspot `centers`.
    ///
    /// # Panics
    /// If `centers` is empty or `fraction` is outside `[0, 1]`.
    pub fn new(centers: Vec<NodeId>, radius: u32, fraction: f64) -> Self {
        assert!(!centers.is_empty(), "need at least one hotspot center");
        assert!(
            (0.0..=1.0).contains(&fraction),
            "hotspot fraction must be in [0,1], got {fraction}"
        );
        Self {
            centers,
            radius,
            fraction,
        }
    }

    /// `count` distinct centers drawn deterministically from `seed` over
    /// `0..n`.
    ///
    /// # Panics
    /// If `count == 0` or `count > n`.
    pub fn seeded(count: u32, radius: u32, fraction: f64, n: u32, seed: u64) -> Self {
        assert!(count > 0 && count <= n, "need 1..=n centers, got {count}");
        let mut g = SplitMix64::new(seed);
        let mut centers = Vec::with_capacity(count as usize);
        while (centers.len() as u32) < count {
            let c = g.next_below(n as u64) as NodeId;
            if !centers.contains(&c) {
                centers.push(c);
            }
        }
        Self::new(centers, radius, fraction)
    }

    /// The hotspot centers.
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }
}

impl<T: Topology> RequestSource<T> for HotspotOrigins {
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        let origin = if rng.gen::<f64>() < self.fraction {
            let c = self.centers[rng.gen_range(0..self.centers.len())];
            net.topo().sample_in_ball(c, self.radius, rng)
        } else {
            rng.gen_range(0..net.n())
        };
        let file = net.library().sample_file(rng);
        let file = apply_uncached_policy(net, file, rng);
        Request { origin, file }
    }

    fn name(&self) -> &'static str {
        "hotspot-origins"
    }
}

/// Zipf-skewed client geography: origin node `u` is drawn with
/// probability proportional to `(u+1)^{-gamma}` (node indices as
/// popularity ranks). `gamma = 0` recovers uniform origins.
#[derive(Clone, Debug)]
pub struct ZipfOrigins {
    gamma: f64,
    table: Option<(u32, AliasTable)>,
}

impl ZipfOrigins {
    /// Origins `∝ (u+1)^{-gamma}`.
    ///
    /// # Panics
    /// If `gamma` is negative or non-finite.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma.is_finite() && gamma >= 0.0, "gamma must be ≥ 0");
        Self { gamma, table: None }
    }
}

impl<T: Topology> RequestSource<T> for ZipfOrigins {
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        let origin = if self.gamma == 0.0 {
            rng.gen_range(0..net.n())
        } else {
            let n = net.n();
            if self.table.as_ref().map(|(tn, _)| *tn) != Some(n) {
                let w: Vec<f64> = (1..=n as u64)
                    .map(|i| (i as f64).powf(-self.gamma))
                    .collect();
                self.table = Some((n, AliasTable::new(&w)));
            }
            self.table.as_ref().expect("built above").1.sample(rng)
        };
        let file = net.library().sample_file(rng);
        let file = apply_uncached_policy(net, file, rng);
        Request { origin, file }
    }

    fn name(&self) -> &'static str {
        "zipf-origins"
    }
}

/// One file's popularity spikes for a request-window, then decays.
///
/// Requests `start .. start+duration` boost `hot_file`'s weight by
/// `boost`; afterwards the boost decays as `1 + (boost−1)·e^{−Δt/tau}`
/// (immediately back to baseline when `tau == 0`). At boost `b` and base
/// weight `w`, the hot file's effective popularity is the exactly
/// renormalized `b·w / (1 − w + b·w)`.
///
/// Caveat: the boost applies *before* uncached draws are redrawn from
/// the cached sub-library, so a hot file with **zero replicas** in the
/// sampled placement has every boosted draw resampled away, degrading
/// the stream to the base profile over cached files. Pick a popular
/// (low-id) `hot_file` or a placement that covers it — unpopular files
/// may be uncached in sparse placements.
#[derive(Clone, Debug)]
pub struct FlashCrowd {
    hot_file: FileId,
    start: u64,
    duration: u64,
    boost: f64,
    tau: f64,
    t: u64,
}

impl FlashCrowd {
    /// Flash crowd on `hot_file` over requests `start..start+duration`
    /// with weight multiplier `boost ≥ 1` and post-window decay constant
    /// `tau` (in requests).
    ///
    /// # Panics
    /// If `boost < 1` or `tau < 0`.
    pub fn new(hot_file: FileId, start: u64, duration: u64, boost: f64, tau: f64) -> Self {
        assert!(boost >= 1.0, "boost must be ≥ 1, got {boost}");
        assert!(tau >= 0.0, "tau must be ≥ 0, got {tau}");
        Self {
            hot_file,
            start,
            duration,
            boost,
            tau,
            t: 0,
        }
    }

    /// The boosted file.
    pub fn hot_file(&self) -> FileId {
        self.hot_file
    }

    /// Effective weight multiplier at request index `t`.
    pub fn boost_at(&self, t: u64) -> f64 {
        let end = self.start.saturating_add(self.duration);
        if t < self.start {
            1.0
        } else if t < end {
            self.boost
        } else if self.tau == 0.0 {
            1.0
        } else {
            1.0 + (self.boost - 1.0) * (-((t - end) as f64) / self.tau).exp()
        }
    }

    /// Requests emitted so far.
    pub fn elapsed(&self) -> u64 {
        self.t
    }
}

impl<T: Topology> RequestSource<T> for FlashCrowd {
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        let origin = rng.gen_range(0..net.n());
        let b = self.boost_at(self.t);
        self.t += 1;
        let w = net.library().probability(self.hot_file % net.k());
        // Mixture that renormalizes exactly: force the hot file with
        // probability q, else draw from the base profile. Then
        // P[hot] = q + (1−q)·w = b·w / (1 − w + b·w) and every other file
        // keeps weight w_f / (1 − w + b·w).
        let q = (b - 1.0) * w / (1.0 - w + b * w);
        let file = if b > 1.0 && rng.gen::<f64>() < q {
            self.hot_file % net.k()
        } else {
            net.library().sample_file(rng)
        };
        let file = apply_uncached_policy(net, file, rng);
        Request { origin, file }
    }

    fn name(&self) -> &'static str {
        "flash-crowd"
    }
}

/// The popularity profile re-ranks every epoch: the profile *shape* stays
/// fixed, but which concrete file occupies each rank rotates by `step`
/// positions per epoch of `epoch` requests — circular topic churn.
#[derive(Clone, Debug)]
pub struct ShiftingPopularity {
    epoch: u64,
    step: u32,
    t: u64,
}

impl ShiftingPopularity {
    /// Rotate the rank→file mapping by `step` every `epoch` requests.
    ///
    /// # Panics
    /// If `epoch == 0`.
    pub fn new(epoch: u64, step: u32) -> Self {
        assert!(epoch > 0, "epoch must be positive");
        Self { epoch, step, t: 0 }
    }

    /// The file currently occupying popularity rank `rank` (at internal
    /// time `t`).
    pub fn file_at_rank(&self, rank: FileId, k: u32) -> FileId {
        let rotation = (self.t / self.epoch) * self.step as u64;
        ((rank as u64 + rotation) % k as u64) as FileId
    }
}

impl<T: Topology> RequestSource<T> for ShiftingPopularity {
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        let origin = rng.gen_range(0..net.n());
        let rank = net.library().sample_file(rng);
        let file = self.file_at_rank(rank, net.k());
        self.t += 1;
        let file = apply_uncached_policy(net, file, rng);
        Request { origin, file }
    }

    fn name(&self) -> &'static str {
        "shifting-popularity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_core::simulate_source;
    use paba_core::{NearestReplica, Placement};
    use paba_popularity::Popularity;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn full_net(side: u32, k: u32) -> CacheNetwork<Torus> {
        // Full replication: no uncached handling, pure workload shape.
        let topo = Torus::new(side);
        let library = paba_core::Library::new(k, Popularity::zipf(0.8));
        let placement = Placement::full(side * side, k);
        CacheNetwork::from_parts(topo, library, placement)
    }

    #[test]
    fn hotspot_origins_concentrate_near_centers() {
        let net = full_net(20, 10);
        let mut src = HotspotOrigins::new(vec![0], 2, 0.9);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut near = 0u32;
        let trials = 20_000;
        for _ in 0..trials {
            let r = src.next_request(&net, &mut rng);
            if net.topo().dist(0, r.origin) <= 2 {
                near += 1;
            }
        }
        // ≈ 0.9 + 0.1·|ball|/n ≈ 0.903; uniform would give 13/400 ≈ 0.0325.
        assert!(near as f64 / trials as f64 > 0.85, "near fraction {near}");
    }

    #[test]
    fn hotspot_seeded_centers_distinct_and_deterministic() {
        let a = HotspotOrigins::seeded(5, 3, 0.5, 100, 7);
        let b = HotspotOrigins::seeded(5, 3, 0.5, 100, 7);
        assert_eq!(a.centers(), b.centers());
        let mut sorted = a.centers().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert!(sorted.iter().all(|&c| c < 100));
    }

    #[test]
    fn zipf_origins_rank_skew() {
        let net = full_net(10, 4);
        let mut src = ZipfOrigins::new(1.2);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = vec![0u32; net.n() as usize];
        for _ in 0..30_000 {
            counts[src.next_request(&net, &mut rng).origin as usize] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[99]);
    }

    #[test]
    fn flash_crowd_window_boosts_then_decays() {
        let src = FlashCrowd::new(3, 100, 50, 40.0, 10.0);
        assert_eq!(src.boost_at(0), 1.0);
        assert_eq!(src.boost_at(99), 1.0);
        assert_eq!(src.boost_at(100), 40.0);
        assert_eq!(src.boost_at(149), 40.0);
        let after = src.boost_at(160);
        assert!(after > 1.0 && after < 40.0, "decay boost {after}");
        assert!(src.boost_at(1000) < 1.01);
        // tau = 0: hard stop.
        let hard = FlashCrowd::new(3, 100, 50, 40.0, 0.0);
        assert_eq!(hard.boost_at(150), 1.0);
    }

    #[test]
    fn flash_crowd_hot_file_dominates_inside_window() {
        let net = full_net(12, 50);
        let mut src = FlashCrowd::new(7, 0, u64::MAX, 1e6, 0.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut hot = 0u32;
        let trials = 5_000;
        for _ in 0..trials {
            if src.next_request(&net, &mut rng).file == 7 {
                hot += 1;
            }
        }
        assert!(hot as f64 / trials as f64 > 0.99, "hot fraction {hot}");
    }

    #[test]
    fn shifting_popularity_rotates_hottest_rank() {
        let net = full_net(12, 10);
        // Epoch of 1000 requests, step 3: epoch e's hottest file is (0 + 3e) mod 10.
        let mut src = ShiftingPopularity::new(1000, 3);
        let mut rng = SmallRng::seed_from_u64(5);
        for expect_hot in [0u32, 3, 6] {
            let mut counts = vec![0u32; 10];
            for _ in 0..1000 {
                counts[src.next_request(&net, &mut rng).file as usize] += 1;
            }
            let hottest = (0..10).max_by_key(|&f| counts[f]).unwrap() as u32;
            assert_eq!(hottest, expect_hot, "counts {counts:?}");
        }
    }

    #[test]
    fn sources_drive_simulate_source() {
        let net = full_net(8, 16);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut strat = NearestReplica::new();
        let mut src = ShiftingPopularity::new(10, 1);
        let rep = simulate_source(&net, &mut strat, &mut src, 200, &mut rng);
        assert_eq!(rep.total_requests, 200);
        assert!(rep.check_conservation());
    }
}
