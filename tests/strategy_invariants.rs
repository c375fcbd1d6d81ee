//! Property-based integration tests: strategy invariants across randomized
//! networks (spanning paba-core / topology / popularity).
//!
//! Implemented as seeded randomized sweeps (no external property framework
//! is available in this build environment); every invariant and parameter
//! range mirrors the original proptest suite.

use paba::core::metrics::FallbackKind;
use paba::core::{Request, Strategy};
use paba::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic case generator: `n` seeded RNGs, one per property case.
fn cases(seed: u64, n: usize) -> impl Iterator<Item = SmallRng> {
    (0..n).map(move |i| SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9)))
}

/// Strategy-agnostic invariant checks over one simulated delivery phase.
fn check_invariants<S: Strategy<Torus>>(
    net: &CacheNetwork<Torus>,
    strategy: &mut S,
    radius: Option<u32>,
    seed: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut loads = vec![0u32; net.n() as usize];
    for _ in 0..200 {
        let req = Request::sample(net, &mut rng);
        let a = strategy.assign(net, &loads, req, &mut rng);
        // 1. hops is the true distance.
        assert_eq!(a.hops, net.topo().dist(req.origin, a.server));
        // 2. the server caches the file unless this was an uncached event.
        if a.fallback != Some(FallbackKind::Uncached) {
            assert!(
                net.placement().caches(a.server, req.file),
                "server {} does not cache file {}",
                a.server,
                req.file
            );
        }
        // 3. a finite radius is respected except on declared fallbacks.
        if let Some(r) = radius {
            if a.fallback.is_none() || a.fallback == Some(FallbackKind::SingleCandidate) {
                assert!(a.hops <= r, "in-ball assignment at {} hops > r={r}", a.hops);
            }
        }
        loads[a.server as usize] += 1;
    }
    assert_eq!(loads.iter().map(|&l| l as u64).sum::<u64>(), 200);
}

#[test]
fn nearest_replica_invariants() {
    for mut case in cases(0xA1, 24) {
        let side = case.gen_range(4u32..12);
        let k = case.gen_range(1u32..60);
        let m = case.gen_range(1u32..8);
        let seed = case.gen_range(0u64..1_000);
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = CacheNetwork::builder()
            .torus_side(side)
            .library(k, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng);
        let mut s = NearestReplica::new();
        check_invariants(&net, &mut s, None, seed ^ 0xdead);
    }
}

#[test]
fn proximity_choice_invariants() {
    for mut case in cases(0xA2, 24) {
        let side = case.gen_range(4u32..12);
        let k = case.gen_range(1u32..60);
        let m = case.gen_range(1u32..8);
        let radius = case.gen_range(0u32..10);
        let d = case.gen_range(1u32..5);
        let seed = case.gen_range(0u64..1_000);
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = CacheNetwork::builder()
            .torus_side(side)
            .library(k, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng);
        let mut s = ProximityChoice::with_choices(Some(radius), d);
        check_invariants(&net, &mut s, Some(radius), seed ^ 0xbeef);
    }
}

#[test]
fn proximity_unbounded_invariants() {
    for mut case in cases(0xA3, 24) {
        let side = case.gen_range(4u32..12);
        let k = case.gen_range(1u32..60);
        let m = case.gen_range(1u32..8);
        let seed = case.gen_range(0u64..1_000);
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = CacheNetwork::builder()
            .torus_side(side)
            .library(k, Popularity::zipf(0.8))
            .cache_size(m)
            .build(&mut rng);
        let mut s = ProximityChoice::two_choice(None);
        check_invariants(&net, &mut s, None, seed ^ 0xf00d);
    }
}

#[test]
fn nearest_is_actually_nearest() {
    for mut case in cases(0xA4, 24) {
        let side = case.gen_range(4u32..10);
        let k = case.gen_range(1u32..40);
        let m = case.gen_range(1u32..6);
        let seed = case.gen_range(0u64..500);
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = CacheNetwork::builder()
            .torus_side(side)
            .library(k, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng);
        let mut s = NearestReplica::new();
        let loads = vec![0u32; net.n() as usize];
        for _ in 0..50 {
            let req = Request::sample(&net, &mut rng);
            let a = s.assign(&net, &loads, req, &mut rng);
            for v in 0..net.n() {
                if net.placement().caches(v, req.file) {
                    assert!(
                        net.topo().dist(req.origin, v) >= a.hops,
                        "found closer replica {v}"
                    );
                }
            }
        }
    }
}

#[test]
fn simulation_conserves_and_bounds() {
    for mut case in cases(0xA6, 24) {
        let side = case.gen_range(4u32..12);
        let k = case.gen_range(1u32..60);
        let m = case.gen_range(1u32..8);
        let requests = case.gen_range(0u64..800);
        let seed = case.gen_range(0u64..1_000);
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = CacheNetwork::builder()
            .torus_side(side)
            .library(k, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng);
        let mut s = ProximityChoice::two_choice(Some(3));
        let rep = simulate(&net, &mut s, requests, &mut rng);
        assert!(rep.check_conservation());
        assert_eq!(rep.total_requests, requests);
        assert!(rep.max_load() as u64 <= requests);
        assert!(rep.comm_cost() <= net.topo().diameter() as f64);
        // The load histogram must count every server.
        assert_eq!(rep.load_histogram().total(), net.n() as u64);
    }
}
