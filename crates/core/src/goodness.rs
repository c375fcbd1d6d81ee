//! Placement goodness (the paper's Definition 5 / Lemma 2).
//!
//! A placement is `(δ, µ)`-good when
//!
//! * every node caches at least `δ·M` **distinct** files (`t(u) ≥ δM`), and
//! * every pair of nodes shares fewer than `µ` files (`t(u,v) < µ`).
//!
//! Lemma 2 proves proportional placement is good w.h.p. in the `K = n`,
//! `M = n^α` regime with `δ = (1−α)/3` and constant `µ ≥ 5/(1−2α)`.
//! [`GoodnessReport`] measures the realized extremes, which `paba repro`
//! gates (`goodness/lemma2-regime`).

use crate::network::CacheNetwork;
use paba_topology::Topology;
use paba_util::OnlineStats;

/// Measured goodness statistics of a placement.
#[derive(Clone, Debug, PartialEq)]
pub struct GoodnessReport {
    /// Smallest distinct-file count over all nodes.
    pub min_t_u: u32,
    /// Mean distinct-file count.
    pub mean_t_u: f64,
    /// Largest pairwise overlap over the checked pairs.
    pub max_t_uv: u32,
    /// Mean pairwise overlap over the checked pairs.
    pub mean_t_uv: f64,
    /// Number of (unordered) pairs checked.
    pub pairs_checked: u64,
    /// Cache size `M` the placement was generated with.
    pub m: u32,
}

impl GoodnessReport {
    /// Compute goodness statistics for `net`.
    ///
    /// `pair_radius` limits the overlap check to pairs within torus
    /// distance `2·r` — the only pairs the configuration graph (and hence
    /// Theorem 4) cares about; `None` checks all `n(n−1)/2` pairs (use
    /// only for small `n`).
    pub fn measure<T: Topology>(net: &CacheNetwork<T>, pair_radius: Option<u32>) -> Self {
        let n = net.n();
        let placement = net.placement();
        let mut min_t_u = u32::MAX;
        let mut t_u_stats = OnlineStats::new();
        for u in 0..n {
            let t = placement.t_u(u);
            min_t_u = min_t_u.min(t);
            t_u_stats.push(t as f64);
        }
        let mut max_t_uv = 0u32;
        let mut t_uv_stats = OnlineStats::new();
        match pair_radius
            .map(|r| 2 * r)
            .filter(|&l| l < net.topo().diameter())
        {
            Some(limit) => {
                for u in 0..n {
                    let mut local_max = 0u32;
                    net.topo().for_each_in_ball(u, limit, |v| {
                        if v > u {
                            let t = placement.t_uv(u, v);
                            local_max = local_max.max(t);
                            t_uv_stats.push(t as f64);
                        }
                    });
                    max_t_uv = max_t_uv.max(local_max);
                }
            }
            None => {
                for u in 0..n {
                    for v in (u + 1)..n {
                        let t = placement.t_uv(u, v);
                        max_t_uv = max_t_uv.max(t);
                        t_uv_stats.push(t as f64);
                    }
                }
            }
        }
        Self {
            min_t_u,
            mean_t_u: t_u_stats.mean(),
            max_t_uv,
            mean_t_uv: t_uv_stats.mean(),
            pairs_checked: t_uv_stats.count(),
            m: placement.m(),
        }
    }

    /// Is the placement `(δ, µ)`-good per Definition 5?
    pub fn is_good(&self, delta: f64, mu: f64) -> bool {
        self.min_t_u as f64 >= delta * self.m as f64 && (self.max_t_uv as f64) < mu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_popularity::Popularity;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net(seed: u64, side: u32, k: u32, m: u32) -> CacheNetwork<Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(side)
            .library(k, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng)
    }

    #[test]
    fn matches_bruteforce_on_small_instance() {
        let net = net(1, 5, 12, 4);
        let rep = GoodnessReport::measure(&net, None);
        let brute_min = (0..net.n()).map(|u| net.placement().t_u(u)).min().unwrap();
        let mut brute_max_uv = 0;
        let mut count = 0u64;
        for u in 0..net.n() {
            for v in (u + 1)..net.n() {
                brute_max_uv = brute_max_uv.max(net.placement().t_uv(u, v));
                count += 1;
            }
        }
        assert_eq!(rep.min_t_u, brute_min);
        assert_eq!(rep.max_t_uv, brute_max_uv);
        assert_eq!(rep.pairs_checked, count);
        assert_eq!(rep.m, 4);
    }

    #[test]
    fn radius_limited_pairs_are_a_subset() {
        let net = net(2, 8, 30, 3);
        let local = GoodnessReport::measure(&net, Some(1));
        let global = GoodnessReport::measure(&net, None);
        assert!(local.pairs_checked < global.pairs_checked);
        assert!(local.max_t_uv <= global.max_t_uv);
        // t(u) statistics are unaffected by the pair radius.
        assert_eq!(local.min_t_u, global.min_t_u);
    }

    #[test]
    fn lemma2_regime_is_good() {
        // K = n = 1024, M = n^0.3 ≈ 8: Lemma 2 predicts (δ, µ)-goodness
        // with δ = (1−0.3)/3 ≈ 0.233 and µ = 5/(1−0.6) = 12.5.
        let side = 32u32;
        let n = side * side;
        let alpha = 0.3f64;
        let m = (n as f64).powf(alpha).round() as u32;
        let net = net(3, side, n, m);
        let rep = GoodnessReport::measure(&net, Some(4));
        let delta = paba_theory::goodness_delta(alpha);
        let mu = paba_theory::goodness_mu(alpha);
        assert!(
            rep.is_good(delta, mu),
            "expected good: min t(u)={} (δM={:.1}), max t(u,v)={} (µ={mu:.1})",
            rep.min_t_u,
            delta * m as f64,
            rep.max_t_uv
        );
    }

    #[test]
    fn full_placement_violates_overlap_bound() {
        use crate::{Library, Placement};
        let topo = Torus::new(4);
        let library = Library::new(6, Popularity::Uniform);
        let placement = Placement::full(16, 6);
        let net = CacheNetwork::from_parts(topo, library, placement);
        let rep = GoodnessReport::measure(&net, None);
        assert_eq!(rep.min_t_u, 6);
        assert_eq!(rep.max_t_uv, 6);
        assert!(rep.is_good(1.0, 7.0));
        assert!(!rep.is_good(1.0, 6.0), "µ bound is strict");
    }

    #[test]
    fn mean_t_u_matches_expectation() {
        let (k, m) = (200u32, 20u32);
        let net = net(5, 16, k, m);
        let rep = GoodnessReport::measure(&net, Some(1));
        let expect = paba_theory::expected_distinct_files(k as f64, m as f64);
        assert!(
            (rep.mean_t_u - expect).abs() < 0.5,
            "mean t(u) {} vs E {expect}",
            rep.mean_t_u
        );
    }
}
