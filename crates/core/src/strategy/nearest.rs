//! Strategy I: nearest-replica assignment (the paper's Definition 2).
//!
//! Every request goes to the closest node (graph-distance) holding the
//! file, ties broken uniformly at random. This minimizes communication
//! cost — `C = Θ(√(K/M))` under Uniform popularity (Theorem 3) — but is
//! load-oblivious: the maximum load grows as `Θ(log n)` (Theorem 1) or at
//! least `Ω(log n / log log n)` (Theorem 2).

use crate::metrics::FallbackKind;
use crate::network::CacheNetwork;
use crate::request::Request;
use crate::strategy::{nearest_replica, Assignment, Strategy};
use paba_telemetry::{NullRecorder, Recorder};
use paba_topology::Topology;
use rand::Rng;

/// Strategy I — nearest replica, uniform random tie-break.
///
/// Generic over a [`Recorder`] so the row-band expansion counter of the
/// nearest-replica search is observable; it records no sampler-path events
/// (no candidate pool is ever drawn from).
#[derive(Clone, Debug, Default)]
pub struct NearestReplica<Rec: Recorder = NullRecorder> {
    rec: Rec,
}

impl NearestReplica {
    /// Create the strategy (stateless).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<Rec: Recorder> NearestReplica<Rec> {
    /// Swap in a different instrumentation sink.
    pub fn with_recorder<R2: Recorder>(self, rec: R2) -> NearestReplica<R2> {
        NearestReplica { rec }
    }
}

impl<T: Topology, Rec: Recorder> Strategy<T> for NearestReplica<Rec> {
    fn assign<R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        _loads: &[u32],
        req: Request,
        rng: &mut R,
    ) -> Assignment {
        let a = match nearest_replica(net, req.origin, req.file, rng, &self.rec) {
            Some((server, hops)) => Assignment {
                server,
                hops,
                fallback: None,
            },
            // Uncached file (only reachable by trace replay, which hands over
            // files this placement may not cache): the origin fetches from
            // outside the network and serves locally.
            None => Assignment {
                server: req.origin,
                hops: 0,
                fallback: Some(FallbackKind::Uncached),
            },
        };
        if Rec::ENABLED {
            // Nearest-replica compares no loads: no candidates to report.
            self.rec.request(
                req.file as u64,
                req.origin as u64,
                a.server as u64,
                a.hops,
                &mut std::iter::empty(),
            );
        }
        a
    }

    fn name(&self) -> &'static str {
        "nearest-replica"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate;
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
    fn serves_from_a_caching_node_at_minimum_distance() {
        let net = net(1, 8, 16, 2);
        let mut strat = NearestReplica::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let loads = vec![0u32; net.n() as usize];
        for _ in 0..500 {
            let req = Request::sample(&net, &mut rng);
            let a = strat.assign(&net, &loads, req, &mut rng);
            assert!(net.placement().caches(a.server, req.file));
            assert_eq!(a.hops, net.topo().dist(req.origin, a.server));
            // No closer replica may exist.
            for v in 0..net.n() {
                if net.placement().caches(v, req.file) {
                    assert!(net.topo().dist(req.origin, v) >= a.hops);
                }
            }
            assert_eq!(a.fallback, None);
        }
    }

    #[test]
    fn ignores_load_vector() {
        let net = net(3, 6, 10, 2);
        let mut strat = NearestReplica::new();
        let req = Request { origin: 7, file: 3 };
        if net.placement().replica_count(3) == 0 {
            return; // placement didn't cache file 3; nothing to compare
        }
        let quiet = vec![0u32; net.n() as usize];
        let busy = vec![1000u32; net.n() as usize];
        // Same rng stream → same tie-break decisions → same server.
        let a = strat.assign(&net, &quiet, req, &mut SmallRng::seed_from_u64(5));
        let b = strat.assign(&net, &busy, req, &mut SmallRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn end_to_end_cost_tracks_sqrt_k_over_m() {
        // Theorem 3 shape check at one configuration pair: quadrupling K
        // at fixed M should ≈ double the cost.
        let mut rng = SmallRng::seed_from_u64(8);
        let mut cost = |k: u32, seed: u64| -> f64 {
            let mut inner = SmallRng::seed_from_u64(seed);
            let net = CacheNetwork::builder()
                .torus_side(45)
                .library(k, Popularity::Uniform)
                .cache_size(1)
                .build(&mut inner);
            let mut s = NearestReplica::new();
            let rep = simulate(&net, &mut s, 4 * net.n() as u64, &mut rng);
            rep.comm_cost()
        };
        let mut avg = |k: u32| (0..4).map(|s| cost(k, 100 + s)).sum::<f64>() / 4.0;
        let c100 = avg(100);
        let c400 = avg(400);
        let ratio = c400 / c100;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "cost ratio {ratio} should be ≈ 2 (√(400/100))"
        );
    }

    #[test]
    fn uncached_served_at_origin() {
        let net = net(5, 3, 400, 1);
        let uncached = (0..net.k())
            .find(|&f| net.placement().replica_count(f) == 0)
            .unwrap();
        let mut strat = NearestReplica::new();
        let loads = vec![0u32; net.n() as usize];
        let req = Request {
            origin: 4,
            file: uncached,
        };
        let a = strat.assign(&net, &loads, req, &mut SmallRng::seed_from_u64(6));
        assert_eq!(a.server, 4);
        assert_eq!(a.hops, 0);
        assert_eq!(a.fallback, Some(FallbackKind::Uncached));
    }
}
