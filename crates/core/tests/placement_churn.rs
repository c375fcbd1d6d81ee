//! Randomized and edge-case equivalence tests for the *mutable*
//! placement.
//!
//! `Placement::insert`/`remove` maintain three indices incrementally —
//! sorted replica lists, each node's fixed-stride file slot (node `u`
//! owns `S = min(M, K)` entries of one shared slab, `t(u)` of them in
//! use), and the dense bitmap index (with block reuse across the `n/16`
//! promotion threshold). The contract: after **any** event sequence the
//! placement is indistinguishable from one rebuilt from scratch over the
//! same node-file lists, and the hybrid sampler stays statistically
//! equivalent to the exact-scan reference on the mutated placement
//! (companion to `placement_probes.rs`, which covers static placements).
//! The slot-edge tests drive the shifts at both ends of a slot, the first
//! and last slot of the slab, a slot filled to `S` and drained, and
//! `S = K` when `M > K`.

use paba_core::{
    simulate, CacheNetwork, Library, Placement, PlacementPolicy, ProximityChoice, SamplerKind,
};
use paba_popularity::Popularity;
use paba_topology::Torus;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// From-scratch rebuild over the mutated placement's own node lists.
fn rebuild(p: &Placement) -> Placement {
    let lists: Vec<Vec<u32>> = (0..p.n()).map(|u| p.node_files(u).to_vec()).collect();
    Placement::from_node_files(p.n(), p.k(), p.m(), lists)
}

/// Every queryable surface must agree between the incrementally mutated
/// placement and its rebuild: CSR lists, replica lists, dense-index
/// assignment, membership probes, and brute-force counts.
fn assert_matches_rebuild(p: &Placement, probes: usize, seed: u64) {
    let r = rebuild(p);
    for u in 0..p.n() {
        assert_eq!(p.node_files(u), r.node_files(u), "node {u} CSR list");
        assert_eq!(p.t_u(u), r.t_u(u));
    }
    for f in 0..p.k() {
        assert_eq!(p.replica_list(f), r.replica_list(f), "file {f} replicas");
        assert_eq!(
            p.has_dense_index(f),
            r.has_dense_index(f),
            "file {f} dense-index assignment (cnt={})",
            p.replica_count(f)
        );
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..probes {
        let u = rng.gen_range(0..p.n());
        let f = rng.gen_range(0..p.k());
        assert_eq!(p.caches(u, f), r.caches(u, f), "probe {i}: caches({u},{f})");
    }
    for f in 0..p.k() {
        let brute = (0..p.n()).filter(|&u| p.caches(u, f)).count() as u32;
        assert_eq!(brute, p.replica_count(f), "file {f} membership count");
    }
}

/// Apply `events` random capacity-respecting insert/remove events.
fn churn(p: &mut Placement, events: usize, rng: &mut SmallRng) {
    for _ in 0..events {
        let u = rng.gen_range(0..p.n());
        let f = rng.gen_range(0..p.k());
        if p.caches(u, f) {
            assert!(p.remove(u, f));
        } else if p.t_u(u) < p.m() {
            assert!(p.insert(u, f));
        }
    }
}

#[test]
fn random_event_sequences_match_rebuild() {
    // Three regimes, matching placement_probes.rs: all-dense, all-sparse,
    // and a Zipf mix whose head files cross the threshold under churn.
    let regimes: [(u32, u32, u32, Popularity); 3] = [
        (1024, 8, 3, Popularity::Uniform),    // dense: cnt ≫ n/16
        (400, 3000, 4, Popularity::Uniform),  // sparse: cnt ≪ n/16
        (900, 300, 6, Popularity::zipf(1.4)), // mixed: threshold traffic
    ];
    for (idx, (n, k, m, pop)) in regimes.into_iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(31 + idx as u64);
        let library = Library::new(k, pop);
        let mut p = Placement::generate(
            n,
            &library,
            m,
            PlacementPolicy::ProportionalWithReplacement,
            &mut rng,
        );
        for round in 0..4 {
            churn(&mut p, 1500, &mut rng);
            assert_matches_rebuild(&p, 20_000, 100 * idx as u64 + round);
        }
    }
}

#[test]
fn threshold_oscillation_keeps_bitmaps_exact() {
    // n = 64 ⇒ dense at exactly 4 replicas. Drive several files back and
    // forth across the boundary so demoted blocks are freed, reused for
    // *other* files, and re-promoted — any stale bit shows up as a
    // membership disagreement.
    let n = 64u32;
    let k = 6u32;
    let mut p = Placement::from_node_files(n, k, 8, vec![Vec::new(); n as usize]);
    let mut rng = SmallRng::seed_from_u64(77);
    for round in 0u64..40 {
        for f in 0..k {
            // Grow file f to 3–6 replicas, then shrink to 0–3.
            let grow = rng.gen_range(3..=6);
            let mut added = Vec::new();
            for _ in 0..grow {
                let u = rng.gen_range(0..n);
                if !p.caches(u, f) && p.t_u(u) < p.m() {
                    p.insert(u, f);
                    added.push(u);
                }
            }
            let shrink = rng.gen_range(0..=added.len());
            for &u in added.iter().take(shrink) {
                p.remove(u, f);
            }
        }
        assert_matches_rebuild(&p, 5_000, 1000 + round);
    }
}

#[test]
fn hybrid_sampler_equivalent_on_mutated_placement() {
    // After churn the hybrid sampler must still draw from the same
    // distribution as the exact-scan reference: end-to-end max-load
    // statistics agree within Monte-Carlo noise (the placement_probes
    // tolerance, mirrored from sampler_kinds_statistically_close).
    for r in [2u32, 5] {
        let mut hybrid = 0.0;
        let mut exact = 0.0;
        let runs = 8;
        for seed in 0..runs {
            let side = 16u32;
            let mut rng = SmallRng::seed_from_u64(2000 + seed);
            let library = Library::new(40, Popularity::zipf(1.2));
            let mut p = Placement::generate(
                side * side,
                &library,
                4,
                PlacementPolicy::ProportionalWithReplacement,
                &mut rng,
            );
            churn(&mut p, 600, &mut rng);
            assert_matches_rebuild(&p, 2_000, 3000 + seed);
            let mk = |placement: Placement| {
                CacheNetwork::from_parts(
                    Torus::new(side),
                    Library::new(40, Popularity::zipf(1.2)),
                    placement,
                )
            };
            let net_h = mk(p.clone());
            let net_e = mk(p);
            let mut rng_h = SmallRng::seed_from_u64(4000 + seed);
            let mut sh = ProximityChoice::two_choice(Some(r)).sampler(SamplerKind::Hybrid);
            hybrid += simulate(&net_h, &mut sh, net_h.n() as u64, &mut rng_h).max_load() as f64;
            let mut rng_e = SmallRng::seed_from_u64(5000 + seed);
            let mut se = ProximityChoice::two_choice(Some(r)).sampler(SamplerKind::ExactScan);
            exact += simulate(&net_e, &mut se, net_e.n() as u64, &mut rng_e).max_load() as f64;
        }
        assert!(
            (hybrid - exact).abs() / runs as f64 <= 0.75,
            "r={r}: hybrid {hybrid} vs exact {exact} on mutated placements"
        );
    }
}

#[test]
fn slot_edges_match_rebuild() {
    // K = 10, M = 5 ⇒ S = 5. The first and last node of the slab start
    // at [2, 6]; their neighbours' slots must never move.
    let (n, k, m) = (8u32, 10u32, 5u32);
    let lists = (0..n)
        .map(|u| {
            if u == 0 || u == n - 1 {
                vec![2, 6]
            } else {
                vec![u]
            }
        })
        .collect();
    let mut p = Placement::from_node_files(n, k, m, lists);
    let mut probe_seed = 0;
    let mut step = |p: &Placement, u: u32, want: &[u32]| {
        assert_eq!(p.node_files(u), want, "node {u}");
        for v in (0..n).filter(|&v| v != 0 && v != n - 1) {
            assert_eq!(p.node_files(v), &[v], "neighbour {v} of node {u}");
        }
        probe_seed += 1;
        assert_matches_rebuild(p, 400, probe_seed);
    };
    for u in [0, n - 1] {
        // Insert before the first file, between two, and after the last,
        // which fills the slot to exactly S.
        assert!(p.insert(u, 0));
        step(&p, u, &[0, 2, 6]);
        assert!(p.insert(u, 4));
        step(&p, u, &[0, 2, 4, 6]);
        assert!(p.insert(u, 9));
        step(&p, u, &[0, 2, 4, 6, 9]);
        // Remove the middle, the first and the last file.
        assert!(p.remove(u, 4));
        step(&p, u, &[0, 2, 6, 9]);
        assert!(p.remove(u, 0));
        step(&p, u, &[2, 6, 9]);
        assert!(p.remove(u, 9));
        step(&p, u, &[2, 6]);
    }
}

#[test]
fn slot_fills_to_stride_and_drains() {
    // K = 12, M = 6 ⇒ S = 6: fill an empty middle node front-first (every
    // insert shifts the whole slot), then drain it in scrambled order.
    let (n, k, m) = (5u32, 12u32, 6u32);
    let mut p = Placement::from_node_files(n, k, m, vec![vec![0, 11]; n as usize]);
    let u = 2;
    for f in [0, 11] {
        assert!(p.remove(u, f));
    }
    assert_matches_rebuild(&p, 200, 1);
    for (i, f) in [10u32, 8, 6, 4, 2, 1].into_iter().enumerate() {
        assert!(p.insert(u, f));
        assert_eq!(p.t_u(u) as usize, i + 1);
        assert_matches_rebuild(&p, 200, 10 + i as u64);
    }
    assert_eq!(p.node_files(u), &[1, 2, 4, 6, 8, 10]);
    assert_eq!(p.t_u(u), m, "filled to exactly S = M");
    for (i, f) in [4u32, 10, 1, 6, 2, 8].into_iter().enumerate() {
        assert!(p.remove(u, f));
        assert_matches_rebuild(&p, 200, 20 + i as u64);
    }
    assert!(p.node_files(u).is_empty());
    for v in (0..n).filter(|&v| v != u) {
        assert_eq!(p.node_files(v), &[0, 11], "node {v}");
    }
}

#[test]
fn cache_larger_than_library_uses_stride_k() {
    // M = 12 draws over K = 4 files ⇒ S = K = 4: a node holding every
    // file refuses every insert (it already caches each one) although
    // t(u) < M, and random churn stays exact.
    let library = Library::new(4, Popularity::Uniform);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut p = Placement::generate(
        32,
        &library,
        12,
        PlacementPolicy::ProportionalWithReplacement,
        &mut rng,
    );
    assert_matches_rebuild(&p, 500, 1);
    let u = (0..p.n())
        .find(|&u| p.t_u(u) == p.k())
        .expect("12 uniform draws over 4 files fill some node");
    assert!(p.t_u(u) < p.m());
    for f in 0..p.k() {
        assert!(!p.insert(u, f), "node {u} already holds file {f}");
    }
    assert_matches_rebuild(&p, 500, 2);
    assert!(p.remove(u, 3));
    assert!(p.insert(u, 3));
    assert_eq!(p.node_files(u), &[0, 1, 2, 3]);
    assert_matches_rebuild(&p, 500, 3);
    churn(&mut p, 2_000, &mut rng);
    assert_matches_rebuild(&p, 2_000, 4);
}
