//! The configuration graph `H` (the paper's Definition 4).
//!
//! For a placement and proximity parameter `r`, `H` connects servers `u`
//! and `v` iff they cache a common file **and** `d(u,v) ≤ 2r` on the
//! torus. Lemma 3 shows that — conditioned on placement goodness — `H` is
//! almost Δ-regular with `Δ = Θ(M²r²/K)`, and that Strategy II samples
//! each edge of `H` with probability `O(1/e(H))`; Theorem 5 then yields
//! the `Θ(log log n)` maximum load. The degree claim is pinned by
//! `tests/theory_consistency.rs` and the edge-sampling claim is gated by
//! `paba repro` (`lemma3/edge-sampling-uniform`).

use crate::network::CacheNetwork;
use paba_topology::{CsrGraph, GraphBuilder, Topology};

/// How to enumerate candidate pairs when building `H`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConfigGraphMethod {
    /// Pick whichever enumeration is cheaper for the instance (default).
    #[default]
    Auto,
    /// For each file, test all replica pairs (`Σ_j cnt_j²` distance
    /// checks) — cheap when replica lists are short.
    ReplicaPairs,
    /// For each node, scan its `2r`-ball for sharing partners
    /// (`n · |B_2r|` shared-file checks) — cheap when replicas are dense.
    BallScan,
}

/// Build the configuration graph `H` for proximity parameter `r`.
///
/// A `radius` of `None` removes the distance constraint (edges require
/// only a shared file), matching `r = ∞`.
pub fn build_config_graph<T: Topology>(
    net: &CacheNetwork<T>,
    radius: Option<u32>,
    method: ConfigGraphMethod,
) -> CsrGraph {
    let topo = net.topo();
    let n = topo.n();
    // The constraint is d(u,v) ≤ 2r.
    let limit = radius.map(|r| 2 * r);
    let effective_limit = limit.filter(|&l| l < topo.diameter());

    let method = match method {
        ConfigGraphMethod::Auto => {
            let pair_cost: u128 = (0..net.k())
                .map(|f| {
                    let c = net.placement().replica_count(f) as u128;
                    c * c
                })
                .sum();
            let ball = match effective_limit {
                Some(l) => topo.ball_size_at(0, l) as u128,
                None => n as u128,
            };
            let ball_cost = n as u128 * ball;
            if pair_cost <= ball_cost {
                ConfigGraphMethod::ReplicaPairs
            } else {
                ConfigGraphMethod::BallScan
            }
        }
        m => m,
    };

    let mut builder = GraphBuilder::new(n);
    match method {
        ConfigGraphMethod::ReplicaPairs => {
            assert!(
                !net.placement().is_full(),
                "replica-pair enumeration would be Θ(K·n²) on a full placement; \
                 use BallScan"
            );
            let mut replicas: Vec<u32> = Vec::new();
            for f in 0..net.k() {
                let cnt = net.placement().replica_count(f);
                replicas.clear();
                replicas.reserve(cnt as usize);
                net.placement().for_each_replica(f, |v| replicas.push(v));
                for i in 0..replicas.len() {
                    for j in (i + 1)..replicas.len() {
                        let (u, v) = (replicas[i], replicas[j]);
                        if effective_limit.is_none_or(|l| topo.dist(u, v) <= l) {
                            builder.add_edge(u, v);
                        }
                    }
                }
            }
        }
        ConfigGraphMethod::BallScan => {
            for u in 0..n {
                match effective_limit {
                    Some(l) => {
                        let b = &mut builder;
                        let placement = net.placement();
                        topo.for_each_in_ball(u, l, |v| {
                            if v > u && placement.shares_file(u, v) {
                                b.add_edge(u, v);
                            }
                        });
                    }
                    None => {
                        for v in (u + 1)..n {
                            if net.placement().shares_file(u, v) {
                                builder.add_edge(u, v);
                            }
                        }
                    }
                }
            }
        }
        ConfigGraphMethod::Auto => unreachable!("resolved above"),
    }
    builder.build()
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

    /// Brute-force H for cross-checking.
    fn brute(net: &CacheNetwork<Torus>, radius: Option<u32>) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for u in 0..net.n() {
            for v in (u + 1)..net.n() {
                let near = radius.is_none_or(|r| net.topo().dist(u, v) <= 2 * r);
                if near && net.placement().t_uv(u, v) >= 1 {
                    edges.push((u, v));
                }
            }
        }
        edges
    }

    #[test]
    fn both_methods_match_bruteforce() {
        let net = net(1, 7, 12, 3);
        for radius in [Some(1), Some(2), Some(3), None] {
            let expect = brute(&net, radius);
            for method in [ConfigGraphMethod::ReplicaPairs, ConfigGraphMethod::BallScan] {
                let g = build_config_graph(&net, radius, method);
                let mut got: Vec<(u32, u32)> = g.edges().collect();
                got.sort_unstable();
                assert_eq!(got, expect, "radius {radius:?} method {method:?}");
            }
            let g = build_config_graph(&net, radius, ConfigGraphMethod::Auto);
            assert_eq!(g.m() as usize, expect.len());
        }
    }

    #[test]
    fn radius_monotonicity() {
        let net = net(2, 8, 20, 2);
        let mut prev = 0u64;
        for r in [0u32, 1, 2, 4, 8] {
            let g = build_config_graph(&net, Some(r), ConfigGraphMethod::Auto);
            assert!(g.m() >= prev, "H must grow with r");
            prev = g.m();
        }
        let unbounded = build_config_graph(&net, None, ConfigGraphMethod::Auto);
        assert!(unbounded.m() >= prev);
    }

    #[test]
    fn full_placement_ball_scan() {
        use crate::{Library, Placement};
        let topo = Torus::new(6);
        let library = Library::new(3, Popularity::Uniform);
        let placement = Placement::full(36, 3);
        let net = CacheNetwork::from_parts(topo, library, placement);
        let g = build_config_graph(&net, Some(1), ConfigGraphMethod::BallScan);
        // With a shared file guaranteed, H = "distance ≤ 2" graph:
        // |B_2| − 1 = 12 neighbors each.
        for v in 0..36 {
            assert_eq!(g.degree(v), 12, "node {v}");
        }
        // Auto must route full placements to BallScan, not panic.
        let auto = build_config_graph(&net, Some(1), ConfigGraphMethod::Auto);
        assert_eq!(auto.m(), g.m());
    }

    #[test]
    fn degree_concentrates_around_lemma3_delta() {
        // Lemma 3(a): Δ = Θ(M²r²/K). Use a mid-size instance and check
        // mean degree is within a small constant factor of M²·(2r)²-ish
        // ball scaling. (The exact constant involves |B_2r| ≈ 2(2r)².)
        let side = 30u32;
        let n = side * side;
        let (k, m, r) = (n, 30u32, 6u32);
        let mut rng = SmallRng::seed_from_u64(5);
        let net = CacheNetwork::builder()
            .torus_side(side)
            .library(k, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng);
        let g = build_config_graph(&net, Some(r), ConfigGraphMethod::Auto);
        let stats = g.degree_stats();
        // Prediction: each of ~|B_2r| neighbors shares a file with
        // probability ≈ 1−(1−t(u)/K)^M ≈ M²/K (for distinct-ish files).
        let ball = net.topo().ball_size(2 * r) as f64 - 1.0;
        let p_share = 1.0 - (1.0 - (m as f64) / (k as f64)).powi(m as i32);
        let predict = ball * p_share;
        assert!(
            stats.mean > 0.4 * predict && stats.mean < 2.5 * predict,
            "mean degree {} vs prediction {predict}",
            stats.mean
        );
    }

    #[test]
    fn zero_radius_keeps_h_empty_under_sparse_placement() {
        // r = 0 ⇒ d(u,v) ≤ 0 ⇒ only self-pairs, which are not edges.
        let net = net(7, 6, 10, 2);
        let g = build_config_graph(&net, Some(0), ConfigGraphMethod::Auto);
        assert_eq!(g.m(), 0);
    }
}
