//! Exact DHT placements, pinned.
//!
//! `paba simulate --placement dht` builds its network with
//! [`dht_placement`], giving file `j` `max(1, round(n·M·p_j))` replicas on
//! the ring's distinct successors of its key. Each regime (a Zipf library
//! as the CLI runs it, a uniform one whose `n·M/K` is an integer, and a
//! library far larger than the `n·M` budget, where every file is clamped
//! to one replica) must reproduce its recorded realized cache size and
//! the folds of its node and replica lists to the bit. The literals were
//! recorded while the configuration still offered a fixed replication
//! rule beside the proportional one.

use paba_core::{Library, Placement};
use paba_dht::{dht_placement, DhtPlacementConfig};
use paba_popularity::Popularity;
use paba_util::mix_seed;

fn fold(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0, mix_seed)
}

/// `(label, n, K, M, Zipf γ (0 = uniform), salt)`.
const REGIMES: [(&str, u32, u32, u32, f64, u64); 3] = [
    ("zipf", 256, 200, 5, 0.8, 7),
    ("uniform", 100, 50, 3, 0.0, 11),
    ("sparse", 64, 1000, 2, 1.2, 13),
];

/// Recorded per regime, in the order of [`REGIMES`]: the realized cache
/// size, then the folds of every node's file list and of every file's
/// replica list, each list led by a separator word.
const EXPECTED: [(u32, u64, u64); 3] = [
    (13, 0x6f09a17a15c7d9b3, 0x606960109f8fa68d),
    (8, 0x96af9b750314fb58, 0xec97996d3e5128f1),
    (27, 0x3655ae8c19d1b7d2, 0x182782a8701ee21d),
];

fn observe(p: &Placement) -> (u32, u64, u64) {
    let nodes =
        fold((0..p.n()).flat_map(|u| {
            std::iter::once(u64::MAX).chain(p.node_files(u).iter().map(|&f| f as u64))
        }));
    let replicas = fold((0..p.k()).flat_map(|f| {
        let list = p.replica_list(f).expect("sparse placement");
        std::iter::once(u64::MAX).chain(list.iter().map(|&u| u as u64))
    }));
    (p.m(), nodes, replicas)
}

#[test]
fn dht_placement_matches_the_recorded_literals() {
    for (i, (label, n, k, m, gamma, salt)) in REGIMES.into_iter().enumerate() {
        let popularity = if gamma == 0.0 {
            Popularity::Uniform
        } else {
            Popularity::zipf(gamma)
        };
        let cfg = DhtPlacementConfig {
            vnodes: 128,
            salt,
            m,
        };
        let p = dht_placement(n, &Library::new(k, popularity), &cfg);
        assert_eq!(observe(&p), EXPECTED[i], "regime {label}");
    }
}
