//! The placement build against an independent reference.
//!
//! `Placement::generate` and `Placement::from_node_files` share one
//! finisher, so rebuilding one through the other checks nothing about it.
//! The reference here is the plain algorithm, written out with no shared
//! code: per node, `M` raw draws (or `contains`-based rejection for the
//! distinct policy), `sort_unstable` + `dedup`, and `push` into one list
//! per file. Every queryable surface must agree with it — node lists,
//! replica lists, dense-index assignment and sampled membership — and a
//! build must leave the RNG exactly where the reference leaves it, so the
//! number of draws is pinned too.

use paba_core::{Library, Placement, PlacementPolicy};
use paba_popularity::{FileId, Popularity};
use paba_topology::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// The plainly built placement: one list per node and one per file.
struct Reference {
    n: u32,
    node_files: Vec<Vec<FileId>>,
    replicas: Vec<Vec<NodeId>>,
}

impl Reference {
    fn generate(n: u32, library: &Library, m: u32, distinct: bool, rng: &mut SmallRng) -> Self {
        let lists = (0..n)
            .map(|_| {
                let mut draws = Vec::new();
                if distinct {
                    while draws.len() < m as usize {
                        let f = library.sample_file(rng);
                        if !draws.contains(&f) {
                            draws.push(f);
                        }
                    }
                } else {
                    for _ in 0..m {
                        draws.push(library.sample_file(rng));
                    }
                }
                draws
            })
            .collect();
        Self::from_node_files(n, library.k(), lists)
    }

    fn from_node_files(n: u32, k: u32, lists: Vec<Vec<FileId>>) -> Self {
        let mut replicas = vec![Vec::new(); k as usize];
        let mut node_files = Vec::new();
        for (u, mut files) in lists.into_iter().enumerate() {
            files.sort_unstable();
            files.dedup();
            for &f in &files {
                replicas[f as usize].push(u as NodeId);
            }
            node_files.push(files);
        }
        Self {
            n,
            node_files,
            replicas,
        }
    }

    /// The `n/16` density threshold of the bitmap index.
    fn dense(&self, f: FileId) -> bool {
        self.replicas[f as usize].len() as u64 * 16 >= self.n as u64
    }

    fn caches(&self, u: NodeId, f: FileId) -> bool {
        self.node_files[u as usize].binary_search(&f).is_ok()
    }
}

/// Every surface of `p` must equal the reference's; `probes` random
/// `(u, f)` pairs and `probes` cached pairs check membership.
fn assert_same(p: &Placement, r: &Reference, probes: usize, what: &str) {
    assert_eq!(p.n(), r.n, "{what}: n");
    assert_eq!(p.k() as usize, r.replicas.len(), "{what}: k");
    for u in 0..p.n() {
        let files = r.node_files[u as usize].as_slice();
        assert_eq!(p.node_files(u), files, "{what}: node {u}");
        assert_eq!(p.t_u(u) as usize, files.len(), "{what}: t({u})");
    }
    for f in 0..p.k() {
        let reps = r.replicas[f as usize].as_slice();
        assert_eq!(p.replica_list(f), Some(reps), "{what}: file {f} replicas");
        assert_eq!(p.replica_count(f) as usize, reps.len(), "{what}: file {f}");
        assert_eq!(p.has_dense_index(f), r.dense(f), "{what}: file {f} dense");
    }
    let uncached = r.replicas.iter().filter(|l| l.is_empty()).count() as u32;
    assert_eq!(p.uncached_files(), uncached, "{what}: uncached files");
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for _ in 0..probes {
        let (u, f) = (rng.gen_range(0..p.n()), rng.gen_range(0..p.k()));
        assert_eq!(p.caches(u, f), r.caches(u, f), "{what}: caches({u}, {f})");
        let u = rng.gen_range(0..p.n());
        if let Some(&f) = r.node_files[u as usize].first() {
            assert!(p.caches(u, f), "{what}: caches({u}, {f})");
        }
    }
}

#[test]
fn generate_matches_the_plain_build() {
    use PlacementPolicy::{ProportionalDistinct as Distinct, ProportionalWithReplacement as Iid};
    // (n, K, M, popularity, policy). No n is a multiple of 64, so every
    // bitmap ends in a partial word; M = K and M > K (slot stride K)
    // appear under replacement, and M = K under the distinct policy.
    let regimes: [(u32, u32, u32, Popularity, PlacementPolicy); 8] = [
        (1000, 50, 6, Popularity::Uniform, Iid),
        (1000, 400, 10, Popularity::zipf(1.2), Iid),
        (300, 8, 8, Popularity::Uniform, Iid),
        (257, 5, 12, Popularity::zipf(0.8), Iid),
        (1000, 50, 6, Popularity::Uniform, Distinct),
        (1000, 400, 10, Popularity::zipf(1.2), Distinct),
        (300, 8, 8, Popularity::zipf(0.6), Distinct),
        (100, 7, 1, Popularity::zipf(2.0), Distinct),
    ];
    let (mut dense, mut sparse) = (0, 0);
    for (i, (n, k, m, popularity, policy)) in regimes.into_iter().enumerate() {
        let library = Library::new(k, popularity);
        for seed in [1u64, 2, 3] {
            let what = format!("regime {i}, seed {seed}");
            let mut built_rng = SmallRng::seed_from_u64(seed);
            let p = Placement::generate(n, &library, m, policy, &mut built_rng);
            let mut ref_rng = SmallRng::seed_from_u64(seed);
            let r = Reference::generate(n, &library, m, policy == Distinct, &mut ref_rng);
            assert_same(&p, &r, 2000, &what);
            assert_eq!(p.m(), m, "{what}: m");
            assert_eq!(p.policy(), policy, "{what}: policy");
            assert_eq!(
                built_rng.next_u64(),
                ref_rng.next_u64(),
                "{what}: the build consumed a different number of draws"
            );
            dense += (0..k).filter(|&f| r.dense(f)).count();
            sparse += (0..k).filter(|&f| !r.dense(f)).count();
        }
    }
    // Both membership paths are exercised.
    assert!(dense > 0 && sparse > 0, "dense {dense}, sparse {sparse}");
}

#[test]
fn from_node_files_matches_the_plain_build() {
    // Unsorted lists with repeats, at most M distinct files each.
    let (n, k, m) = (200u32, 30u32, 5u32);
    let mut rng = SmallRng::seed_from_u64(7);
    let lists: Vec<Vec<FileId>> = (0..n)
        .map(|_| {
            let distinct = rng.gen_range(0..=m) as usize;
            let mut pool: Vec<FileId> = Vec::new();
            while pool.len() < distinct {
                let f = rng.gen_range(0..k);
                if !pool.contains(&f) {
                    pool.push(f);
                }
            }
            let mut list = pool.clone();
            for _ in 0..rng.gen_range(0..4) {
                if !pool.is_empty() {
                    list.push(pool[rng.gen_range(0..pool.len())]);
                }
            }
            let len = list.len();
            for i in (1..len).rev() {
                list.swap(i, rng.gen_range(0..=i));
            }
            list
        })
        .collect();
    let repeats = |l: &Vec<FileId>| (1..l.len()).any(|i| l[..i].contains(&l[i]));
    assert!(lists.iter().any(|l| l.windows(2).any(|w| w[0] > w[1])));
    assert!(lists.iter().any(repeats));
    assert!(lists.iter().any(|l| l.is_empty()));
    let p = Placement::from_node_files(n, k, m, lists.clone());
    assert_same(&p, &Reference::from_node_files(n, k, lists), 4000, "lists");
}

#[test]
fn density_threshold_is_exact_at_n_over_16() {
    // n = 160: a file is dense at 10 replicas. File 0 sits at exactly 10,
    // file 1 one below, file 2 one above; file 3 is uncached and file 4
    // cached once, by the last node. Lists arrive unsorted and with
    // repeats.
    let n = 160u32;
    let lists: Vec<Vec<FileId>> = (0..n)
        .map(|u| {
            let mut list = Vec::new();
            if u % 16 == 3 {
                list.extend([0, 0]);
            }
            if u % 17 == 5 && u < 153 {
                list.push(1);
            }
            if u < 10 {
                list.insert(0, 2);
            }
            if u == n - 1 {
                list.extend([4, 2, 4]);
            }
            list
        })
        .collect();
    let p = Placement::from_node_files(n, 5, 3, lists.clone());
    let r = Reference::from_node_files(n, 5, lists);
    let counts: Vec<usize> = r.replicas.iter().map(Vec::len).collect();
    assert_eq!(counts, [10, 9, 11, 0, 1]);
    assert_same(&p, &r, 4000, "threshold");
    assert!(p.has_dense_index(0) && !p.has_dense_index(1) && p.has_dense_index(2));
}
