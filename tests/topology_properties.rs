//! Property-based topology validation across the whole supported parameter
//! space — metric axioms, ball/ring/brute-force agreement, and Voronoi
//! consistency, on the torus.
//!
//! Implemented as seeded exhaustive-ish sweeps (no external property
//! framework is available in this build environment); every property and
//! parameter range mirrors the original proptest suite.

use paba::core::VoronoiComputer;
use paba::topology::Torus;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic case generator: `cases` draws from seeded ranges.
fn cases(seed: u64, n: usize) -> impl Iterator<Item = SmallRng> {
    (0..n).map(move |i| SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9)))
}

#[test]
fn torus_metric_axioms() {
    for mut rng in cases(1, 48) {
        let side = rng.gen_range(1u32..16);
        let t = Torus::new(side);
        let n = t.n();
        let (a, b, c) = (
            rng.gen_range(0..256u32) % n,
            rng.gen_range(0..256u32) % n,
            rng.gen_range(0..256u32) % n,
        );
        assert_eq!(t.dist(a, a), 0);
        assert_eq!(t.dist(a, b), t.dist(b, a));
        assert!(t.dist(a, c) <= t.dist(a, b) + t.dist(b, c));
        assert!(t.dist(a, b) <= t.diameter());
        if a != b {
            assert!(t.dist(a, b) > 0);
        }
    }
}

#[test]
fn torus_ball_is_exact() {
    for mut rng in cases(2, 48) {
        let side = rng.gen_range(1u32..12);
        let t = Torus::new(side);
        let u = rng.gen_range(0..144u32) % t.n();
        let r = rng.gen_range(0u32..30);
        let mut got = t.ball_nodes(u, r);
        got.sort_unstable();
        let expect: Vec<u32> = (0..t.n()).filter(|&v| t.dist(u, v) <= r).collect();
        assert_eq!(got, expect, "side={side} u={u} r={r}");
        assert_eq!(t.ball_size(r), expect.len() as u64);
    }
}

#[test]
fn torus_ring_partitions_ball() {
    for mut rng in cases(3, 48) {
        let side = rng.gen_range(2u32..12);
        let t = Torus::new(side);
        let u = rng.gen_range(0..144u32) % t.n();
        let r = rng.gen_range(0u32..18);
        // The ball is the disjoint union of rings 0..=r.
        let mut from_rings: Vec<u32> = Vec::new();
        for d in 0..=r {
            t.for_each_at_distance(u, d, |v| from_rings.push(v));
        }
        from_rings.sort_unstable();
        let mut ball = t.ball_nodes(u, r);
        ball.sort_unstable();
        assert_eq!(from_rings, ball, "side={side} u={u} r={r}");
    }
}

#[test]
fn ball_sampling_stays_inside() {
    for mut rng in cases(6, 48) {
        let side = rng.gen_range(2u32..12);
        let t = Torus::new(side);
        let u = rng.gen_range(0..144u32) % t.n();
        let r = rng.gen_range(0u32..20);
        let mut draw_rng = SmallRng::seed_from_u64(rng.gen_range(0u64..1000));
        for _ in 0..32 {
            let v = t.sample_in_ball(u, r, &mut draw_rng);
            assert!(t.dist(u, v) <= r, "side={side} u={u} r={r} v={v}");
        }
    }
}

#[test]
fn voronoi_owners_are_nearest() {
    for mut rng in cases(7, 48) {
        let side = rng.gen_range(2u32..10);
        let t = Torus::new(side);
        let n_src = rng.gen_range(1usize..6);
        let sources: Vec<u32> = (0..n_src)
            .map(|_| rng.gen_range(0..100u32) % t.n())
            .collect();
        let mut vc = VoronoiComputer::new(t.n());
        let cells = vc.compute(&t, &sources);
        for v in 0..t.n() {
            let best = sources.iter().map(|&s| t.dist(s, v)).min().unwrap();
            assert_eq!(cells.dist[v as usize], best);
            assert_eq!(t.dist(cells.owner[v as usize], v), best);
        }
        // Cells partition the torus.
        let total: u32 = cells.cell_sizes().values().sum();
        assert_eq!(total, t.n());
    }
}

#[test]
fn ring_sizes_sum_to_n() {
    for side in 1u32..14 {
        let t = Torus::new(side);
        let total: u64 = (0..=t.diameter()).map(|d| t.ring_size(d)).sum();
        assert_eq!(total, t.n() as u64);
    }
}
