//! Randomized equivalence probes for [`Placement::caches`].
//!
//! The hot-path membership check has two internal answers for the same
//! question: the **dense bitmap** fast path (files with replica count
//! `≥ n/16`) and the **binary-search** path over the shorter of the
//! per-node file list and the per-file replica list. A disagreement
//! between them would silently bias the rejection sampler, so this suite
//! fires ~10⁵ random `(node, file)` probes per placement against a
//! reference membership set built independently from `node_files`, across
//! placements engineered to exercise both paths.

use paba_core::{Library, Placement, PlacementPolicy};
use paba_popularity::Popularity;
use paba_util::FxHashSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Reference membership relation rebuilt from the per-node file lists only
/// (never through `caches`, whose two paths are under test).
fn reference_pairs(p: &Placement) -> FxHashSet<(u32, u32)> {
    let mut set = FxHashSet::default();
    for u in 0..p.n() {
        for &f in p.node_files(u) {
            set.insert((u, f));
        }
    }
    set
}

/// Fire `probes` random probes plus full replica-list cross-checks.
fn probe(p: &Placement, probes: usize, seed: u64) {
    let reference = reference_pairs(p);
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..probes {
        let u = rng.gen_range(0..p.n());
        let f = rng.gen_range(0..p.k());
        assert_eq!(
            p.caches(u, f),
            reference.contains(&(u, f)),
            "probe {i}: caches({u}, {f}) disagrees with the node_files reference"
        );
    }
    // Every recorded replica must answer true, and replica counts must
    // match the reference exactly (catches a bitmap that over-sets bits).
    for f in 0..p.k() {
        let mut listed = 0u32;
        p.for_each_replica(f, |u| {
            listed += 1;
            assert!(p.caches(u, f), "replica list says {u} caches {f}");
        });
        assert_eq!(listed, p.replica_count(f));
        let brute = (0..p.n()).filter(|&u| p.caches(u, f)).count() as u32;
        assert_eq!(brute, p.replica_count(f), "file {f} membership count");
    }
}

#[test]
fn dense_placement_probes_agree() {
    // K = 8 files over n = 1024 nodes, M = 3: every file collects far more
    // than n/16 = 64 replicas, so every lookup rides the bitmap fast path.
    let mut rng = SmallRng::seed_from_u64(1);
    let library = Library::new(8, Popularity::Uniform);
    let p = Placement::generate(
        1024,
        &library,
        3,
        PlacementPolicy::ProportionalWithReplacement,
        &mut rng,
    );
    assert!(
        (0..8).all(|f| p.replica_count(f) as u64 * 16 >= 1024),
        "regime must make every file dense-indexed"
    );
    probe(&p, 100_000, 11);
}

#[test]
fn sparse_placement_probes_agree() {
    // K = 3000 files over n = 400 nodes, M = 4: replica counts hover near
    // 0–3, far below the n/16 = 25 dense threshold, so every lookup takes
    // the binary-search path (including uncached files).
    let mut rng = SmallRng::seed_from_u64(2);
    let library = Library::new(3000, Popularity::Uniform);
    let p = Placement::generate(
        400,
        &library,
        4,
        PlacementPolicy::ProportionalWithReplacement,
        &mut rng,
    );
    assert!(
        (0..3000).all(|f| (p.replica_count(f) as u64) * 16 < 400),
        "regime must keep every file below the dense threshold"
    );
    assert!(p.uncached_files() > 0, "want uncached probes too");
    probe(&p, 100_000, 12);
}

#[test]
fn mixed_zipf_placement_probes_agree() {
    // Zipf 1.4 head files go dense, tail files stay sparse: random probes
    // cross the bitmap/binary-search boundary inside one placement.
    let mut rng = SmallRng::seed_from_u64(3);
    let library = Library::new(300, Popularity::zipf(1.4));
    let p = Placement::generate(
        900,
        &library,
        6,
        PlacementPolicy::ProportionalWithReplacement,
        &mut rng,
    );
    let dense = (0..300)
        .filter(|&f| p.replica_count(f) as u64 * 16 >= 900)
        .count();
    assert!(
        dense > 0 && dense < 300,
        "regime must mix paths (dense files: {dense})"
    );
    probe(&p, 100_000, 13);
}

#[test]
fn handcrafted_boundary_placement_probes_agree() {
    // Straddle the n/16 threshold exactly: with n = 64 the cutoff is 4
    // replicas. File 0 gets 3 (sparse), file 1 gets 4 (dense), file 2
    // gets every node, file 3 none.
    let n = 64u32;
    let mut lists = vec![Vec::new(); n as usize];
    for u in [5u32, 17, 40] {
        lists[u as usize].push(0u32);
    }
    for u in [3u32, 19, 33, 63] {
        lists[u as usize].push(1u32);
    }
    for l in lists.iter_mut() {
        l.push(2u32);
    }
    let p = Placement::from_node_files(n, 4, 4, lists);
    assert_eq!(p.replica_count(0), 3);
    assert_eq!(p.replica_count(1), 4);
    assert_eq!(p.replica_count(2), n);
    assert_eq!(p.replica_count(3), 0);
    probe(&p, 100_000, 14);
}

#[test]
fn distinct_policy_probes_agree() {
    let mut rng = SmallRng::seed_from_u64(4);
    let library = Library::new(40, Popularity::zipf(0.7));
    let p = Placement::generate(
        500,
        &library,
        12,
        PlacementPolicy::ProportionalDistinct,
        &mut rng,
    );
    probe(&p, 100_000, 15);
}
