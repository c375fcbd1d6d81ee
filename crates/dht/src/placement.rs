//! DHT-driven cache placement for a cache network.
//!
//! Each file's key is hashed onto the ring and the file is cached at its
//! `R_j` distinct successor servers. Replication is proportional to
//! popularity — the deterministic analogue of the paper's proportional
//! placement: `R_j ∝ p_j`, normalized so the total number of placed copies
//! matches a target slot budget `n·M`. Under uniform popularity every
//! file gets the same `R = round(n·M/K)` replicas.

use crate::ring::HashRing;
use paba_core::{Library, Placement};
use paba_popularity::FileId;

/// Configuration for [`dht_placement`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DhtPlacementConfig {
    /// Virtual nodes per server (128 is a good default).
    pub vnodes: u32,
    /// Ring salt (vary per experiment run).
    pub salt: u64,
    /// Per-server cache size `M`: file `j` gets `max(1, round(n·M·p_j))`
    /// replicas (at most `n`), proportional to popularity under a total
    /// budget of `n·M` copies.
    pub m: u32,
}

/// Compute a deterministic DHT placement for `n` servers over `library`.
///
/// Returns a [`Placement`] whose nominal cache size `M` is the *largest
/// realized* per-node distinct count (so `Placement::m()` reflects the
/// actual worst-case cache usage, which DHT placement does not bound a
/// priori the way i.i.d. placement does).
pub fn dht_placement(n: u32, library: &Library, cfg: &DhtPlacementConfig) -> Placement {
    let k = library.k();
    let ring = HashRing::new(n, cfg.vnodes, cfg.salt);
    let mut lists: Vec<Vec<FileId>> = vec![Vec::new(); n as usize];
    let budget = n as f64 * cfg.m as f64;
    for f in 0..k {
        let replicas = ((budget * library.probability(f)).round() as u32).clamp(1, n);
        for server in ring.lookup_replicas(f as u64, replicas as usize) {
            lists[server as usize].push(f);
        }
    }
    let realized_m = lists.iter().map(|l| l.len()).max().unwrap_or(0).max(1) as u32;
    Placement::from_node_files(n, k, realized_m, lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_popularity::Popularity;

    fn library(k: u32) -> Library {
        Library::new(k, Popularity::Uniform)
    }

    #[test]
    fn uniform_popularity_gives_exact_replica_counts() {
        // n·M/K = 30·8/60 = 4 replicas per file.
        let lib = library(60);
        let p = dht_placement(
            30,
            &lib,
            &DhtPlacementConfig {
                vnodes: 64,
                salt: 3,
                m: 8,
            },
        );
        for f in 0..60 {
            assert_eq!(p.replica_count(f), 4, "file {f}");
        }
        assert_eq!(p.uncached_files(), 0);
    }

    #[test]
    fn deterministic_given_salt() {
        let lib = library(40);
        let cfg = DhtPlacementConfig {
            vnodes: 32,
            salt: 9,
            m: 6,
        };
        let a = dht_placement(20, &lib, &cfg);
        let b = dht_placement(20, &lib, &cfg);
        for u in 0..20 {
            assert_eq!(a.node_files(u), b.node_files(u));
        }
        let c = dht_placement(20, &lib, &DhtPlacementConfig { salt: 10, ..cfg });
        let same = (0..20).all(|u| a.node_files(u) == c.node_files(u));
        assert!(!same, "different salt should relocate files");
    }

    #[test]
    fn proportional_rule_tracks_popularity() {
        let lib = Library::new(100, Popularity::zipf(1.2));
        let p = dht_placement(
            400,
            &lib,
            &DhtPlacementConfig {
                vnodes: 64,
                salt: 1,
                m: 2,
            },
        );
        // Most popular file ≈ round(n·M·p_0); every file ≥ 1 replica.
        let expect0 = (800.0 * lib.probability(0)).round() as u32;
        assert_eq!(p.replica_count(0), expect0.clamp(1, 400));
        assert!(p.replica_count(0) > 10 * p.replica_count(99).max(1) / 2);
        for f in 0..100 {
            assert!(p.replica_count(f) >= 1, "file {f} uncached");
        }
        assert_eq!(p.uncached_files(), 0);
    }

    #[test]
    fn load_is_spread_across_servers() {
        // With uniform popularity and enough files, per-server cache
        // occupancy should concentrate around K·R/n (R = n·M/K = 3).
        let lib = library(600);
        let n = 60u32;
        let p = dht_placement(
            n,
            &lib,
            &DhtPlacementConfig {
                vnodes: 128,
                salt: 5,
                m: 30,
            },
        );
        let expect = 600.0 * 3.0 / n as f64;
        for u in 0..n {
            let t = p.t_u(u) as f64;
            assert!(
                t > 0.3 * expect && t < 2.5 * expect,
                "server {u} holds {t} files vs expected {expect}"
            );
        }
    }

    #[test]
    fn works_as_cache_network_placement() {
        use paba_core::{simulate, CacheNetwork, NearestReplica};
        use paba_topology::Torus;
        use rand::SeedableRng;
        // R = n·M/K = 256·1/64 = 4 replicas per file.
        let lib = library(64);
        let placement = dht_placement(
            256,
            &lib,
            &DhtPlacementConfig {
                vnodes: 64,
                salt: 2,
                m: 1,
            },
        );
        let net = CacheNetwork::from_parts(Torus::new(16), lib, placement);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let mut s = NearestReplica::new();
        let rep = simulate(&net, &mut s, 256, &mut rng);
        assert!(rep.check_conservation());
        assert!(rep.max_load() >= 1);
    }
}
