//! Full-information baseline: least-loaded replica within the ball.
//!
//! The paper's introduction contrasts distributed server selection with a
//! centralized authority that "employs network status information to
//! optimally allocate requests". This strategy is that upper bound,
//! localized: among **all** replicas of the requested file within
//! `B_r(u)`, pick the least-loaded (ties uniform). Comparing it against
//! [`crate::ProximityChoice`] quantifies the classic power-of-two-choices
//! punchline — two random probes recover almost all of the benefit of
//! probing everyone, at O(1) probe cost instead of Θ(|B_r|).

use crate::metrics::FallbackKind;
use crate::network::CacheNetwork;
use crate::request::Request;
use crate::strategy::sampler::PoolSampler;
use crate::strategy::{nearest_replica, Assignment, Strategy};
use paba_telemetry::{NullRecorder, Recorder};
use paba_topology::{NodeId, Topology};
use rand::Rng;

/// Greedy full-information assignment: the least-loaded replica within
/// radius `r` (or globally, with `radius = None`).
#[derive(Clone, Debug)]
pub struct LeastLoadedInBall<Rec: Recorder = NullRecorder> {
    radius: Option<u32>,
    /// Windowed pool materializer shared with Strategy II's sampler.
    sampler: PoolSampler,
    /// Instrumentation sink (zero-sized no-op by default).
    rec: Rec,
}

impl LeastLoadedInBall {
    /// Create the strategy with an optional proximity radius.
    pub fn new(radius: Option<u32>) -> Self {
        Self {
            radius,
            sampler: PoolSampler::default(),
            rec: NullRecorder,
        }
    }
}

impl<Rec: Recorder> LeastLoadedInBall<Rec> {
    /// Swap in a different instrumentation sink, preserving configuration.
    pub fn with_recorder<R2: Recorder>(self, rec: R2) -> LeastLoadedInBall<R2> {
        LeastLoadedInBall {
            radius: self.radius,
            sampler: self.sampler,
            rec,
        }
    }

    /// The configured radius.
    pub fn radius(&self) -> Option<u32> {
        self.radius
    }
}

impl<T: Topology, Rec: Recorder> Strategy<T> for LeastLoadedInBall<Rec> {
    fn assign<R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        loads: &[u32],
        req: Request,
        rng: &mut R,
    ) -> Assignment {
        let placement = net.placement();
        let topo = net.topo();
        let cnt = placement.replica_count(req.file);
        if cnt == 0 {
            if Rec::ENABLED {
                self.rec.request(
                    req.file as u64,
                    req.origin as u64,
                    req.origin as u64,
                    0,
                    &mut std::iter::empty(),
                );
            }
            return Assignment {
                server: req.origin,
                hops: 0,
                fallback: Some(FallbackKind::Uncached),
            };
        }
        let r_eff = match self.radius {
            Some(r) if r < topo.diameter() => Some(r),
            _ => None,
        };

        // Reservoir-argmin over the eligible pool, uniform among ties.
        let mut best: Option<NodeId> = None;
        let mut ties = 0u32;
        let mut consider = |v: NodeId, rng: &mut R| match best {
            None => {
                best = Some(v);
                ties = 1;
            }
            Some(b) => {
                let (lv, lb) = (loads[v as usize], loads[b as usize]);
                if lv < lb {
                    best = Some(v);
                    ties = 1;
                } else if lv == lb {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = Some(v);
                    }
                }
            }
        };

        match r_eff {
            None => {
                if placement.is_full() {
                    // Global least-loaded node: scan everything.
                    for v in 0..topo.n() {
                        consider(v, rng);
                    }
                } else {
                    for i in 0..cnt {
                        consider(placement.replica_at(req.file, i), rng);
                    }
                }
            }
            Some(r) => {
                if placement.is_full() {
                    topo.for_each_in_ball(req.origin, r, |v| consider(v, rng));
                } else {
                    // Full information still means visiting the whole
                    // pool, but the windowed materializer finds it via
                    // O(r) binary searches instead of a per-node scan.
                    for &v in self
                        .sampler
                        .materialize_pool(net, req.origin, req.file, r, &self.rec)
                    {
                        consider(v, rng);
                    }
                }
            }
        }

        let a = match best {
            Some(server) => Assignment {
                server,
                hops: topo.dist(req.origin, server),
                fallback: None,
            },
            None => {
                // Empty ball: escalate to the global nearest replica.
                let (server, hops) = nearest_replica(net, req.origin, req.file, rng, &self.rec)
                    .expect("cnt > 0 implies a replica exists");
                Assignment {
                    server,
                    hops,
                    fallback: Some(FallbackKind::NoCandidateInBall),
                }
            }
        };
        if Rec::ENABLED {
            // The scanned pool can be the whole network; report only the
            // winner (its load is the pool minimum by construction).
            self.rec.request(
                req.file as u64,
                req.origin as u64,
                a.server as u64,
                a.hops,
                &mut std::iter::once((a.server as u64, loads[a.server as usize])),
            );
        }
        a
    }

    fn name(&self) -> &'static str {
        "least-loaded-in-ball"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate;
    use crate::strategy::ProximityChoice;
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
    fn picks_a_globally_least_loaded_replica() {
        let net = net(1, 8, 10, 3);
        let mut s = LeastLoadedInBall::new(None);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut loads = vec![0u32; net.n() as usize];
        // Preload arbitrary asymmetric loads.
        for (i, l) in loads.iter_mut().enumerate() {
            *l = (i as u32 * 7) % 13;
        }
        for _ in 0..300 {
            let req = Request::sample(&net, &mut rng);
            let a = s.assign(&net, &loads, req, &mut rng);
            assert!(net.placement().caches(a.server, req.file));
            // No eligible replica may be strictly less loaded.
            for v in 0..net.n() {
                if net.placement().caches(v, req.file) {
                    assert!(loads[v as usize] >= loads[a.server as usize]);
                }
            }
        }
    }

    #[test]
    fn respects_radius_or_declares_fallback() {
        let net = net(3, 9, 80, 1);
        let mut s = LeastLoadedInBall::new(Some(2));
        let loads = vec![0u32; net.n() as usize];
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..300 {
            let req = Request::sample(&net, &mut rng);
            let a = s.assign(&net, &loads, req, &mut rng);
            match a.fallback {
                None => assert!(a.hops <= 2),
                Some(FallbackKind::NoCandidateInBall) => assert!(a.hops > 2),
                other => panic!("unexpected fallback {other:?}"),
            }
        }
    }

    #[test]
    fn never_worse_than_two_choice_on_average() {
        let mut full = 0.0;
        let mut two = 0.0;
        let runs = 8;
        for seed in 0..runs {
            let net = net(100 + seed, 16, 30, 6);
            let mut rng = SmallRng::seed_from_u64(200 + seed);
            let mut s = LeastLoadedInBall::new(None);
            full += simulate(&net, &mut s, net.n() as u64, &mut rng).max_load() as f64;
            let mut rng = SmallRng::seed_from_u64(300 + seed);
            let mut s2 = ProximityChoice::two_choice(None);
            two += simulate(&net, &mut s2, net.n() as u64, &mut rng).max_load() as f64;
        }
        assert!(
            full <= two + 0.5 * runs as f64 / runs as f64,
            "full info {full} should not lose to two-choice {two}"
        );
    }

    #[test]
    fn full_placement_global_scan() {
        use crate::{Library, Placement};
        let topo = Torus::new(5);
        let library = Library::new(3, Popularity::Uniform);
        let placement = Placement::full(25, 3);
        let net = CacheNetwork::from_parts(topo, library, placement);
        let mut s = LeastLoadedInBall::new(None);
        let mut loads = vec![5u32; 25];
        loads[17] = 0;
        let mut rng = SmallRng::seed_from_u64(5);
        let a = s.assign(&net, &loads, Request { origin: 0, file: 1 }, &mut rng);
        assert_eq!(a.server, 17, "must find the unique least-loaded node");
    }

    #[test]
    fn tie_break_is_uniform() {
        use crate::{Library, Placement};
        let topo = Torus::new(4);
        let library = Library::new(1, Popularity::Uniform);
        let placement = Placement::full(16, 1);
        let net = CacheNetwork::from_parts(topo, library, placement);
        let mut s = LeastLoadedInBall::new(None);
        let loads = vec![0u32; 16];
        let mut rng = SmallRng::seed_from_u64(6);
        let mut counts = [0u32; 16];
        let trials = 16_000;
        for _ in 0..trials {
            let a = s.assign(&net, &loads, Request { origin: 3, file: 0 }, &mut rng);
            counts[a.server as usize] += 1;
        }
        let expect = trials as f64 / 16.0;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "node {v}: {c} vs {expect}"
            );
        }
    }
}
