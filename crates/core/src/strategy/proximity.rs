//! Strategy II: proximity-aware two choices (the paper's Definition 3).
//!
//! For each request born at node `u`, sample two uniform random nodes from
//! `B_r(u)` *that have cached the requested file*, and assign the request
//! to the lesser-loaded of the two (ties uniform). The radius `r` caps the
//! communication cost at `Θ(r)` while — in the regimes of Theorems 4 and 6
//! — retaining the `Θ(log log n)` maximum load of the unconstrained
//! two-choice process.
//!
//! The implementation generalizes the definition along three axes, all
//! defaulting to the paper's setting:
//!
//! * **`d` choices** (`d = 2` in the paper; `d = 1` yields the
//!   load-oblivious "random nearby replica" baseline);
//! * **pair sampling** — unordered *distinct* pairs (matching Lemma 3's
//!   `1/C(F_j(w), 2)` edge probability) or independent with-replacement
//!   draws, for ablation;
//! * **radius fallback** — what to do when `B_r(u)` holds no replica at
//!   all (impossible w.h.p. in the analyzed regimes, but a simulator must
//!   answer): escalate to the global nearest replica (default) or serve at
//!   the origin.

use crate::metrics::FallbackKind;
use crate::network::CacheNetwork;
use crate::request::Request;
use crate::strategy::sampler::{sample_by_index, PoolDraw, PoolSampler};
use crate::strategy::{nearest_replica, Assignment, SamplerKind, Strategy};
use paba_telemetry::{NullRecorder, Recorder, SamplerPath};
use paba_topology::{NodeId, Topology};
use rand::Rng;

/// How the candidate multiset is drawn from the eligible pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PairMode {
    /// `d` *distinct* candidates, uniform over subsets (the paper's model;
    /// Lemma 3 samples unordered pairs).
    #[default]
    Distinct,
    /// `d` independent draws with replacement (classic Greedy\[d\] style).
    WithReplacement,
}

/// What to do when no replica lies within the proximity ball.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RadiusFallback {
    /// Escalate to the global nearest replica (keeps every request served
    /// by a caching node; the extra hops are visible in the cost metric).
    #[default]
    NearestGlobal,
    /// Serve at the origin (models a backhaul fetch; zero hops charged).
    ServeAtOrigin,
}

/// Strategy II — proximity-aware `d`-choice assignment.
///
/// Generic over a [`Recorder`]; the default [`NullRecorder`] compiles the
/// instrumentation away entirely. Attach an active recorder with
/// [`ProximityChoice::with_recorder`] — every assignment then records
/// exactly one [`SamplerPath`] event, so path counts sum to the request
/// count.
#[derive(Clone, Debug)]
pub struct ProximityChoice<Rec: Recorder = NullRecorder> {
    radius: Option<u32>,
    d: u32,
    pair_mode: PairMode,
    fallback: RadiusFallback,
    /// Workhorse: hybrid pool sampler for finite radii (owns the
    /// exact-path materialization buffer).
    sampler: PoolSampler,
    /// Workhorse: the d sampled candidates.
    picks: Vec<NodeId>,
    /// Instrumentation sink (zero-sized no-op by default).
    rec: Rec,
}

impl ProximityChoice {
    /// The paper's Strategy II: two choices within radius `radius`
    /// (`None` = no proximity constraint, the paper's `r = ∞ ≡ √n`).
    pub fn two_choice(radius: Option<u32>) -> Self {
        Self::with_choices(radius, 2)
    }

    /// Generalized `d`-choice variant.
    ///
    /// # Panics
    /// If `d == 0`.
    pub fn with_choices(radius: Option<u32>, d: u32) -> Self {
        assert!(d >= 1, "need at least one choice");
        Self {
            radius,
            d,
            pair_mode: PairMode::default(),
            fallback: RadiusFallback::default(),
            sampler: PoolSampler::new(SamplerKind::default()),
            picks: Vec::with_capacity(d as usize),
            rec: NullRecorder,
        }
    }
}

impl<Rec: Recorder> ProximityChoice<Rec> {
    /// Swap in a different instrumentation sink (typically a
    /// `&AtomicRecorder` shared with other strategies on the same thread),
    /// preserving all other configuration.
    pub fn with_recorder<R2: Recorder>(self, rec: R2) -> ProximityChoice<R2> {
        ProximityChoice {
            radius: self.radius,
            d: self.d,
            pair_mode: self.pair_mode,
            fallback: self.fallback,
            sampler: self.sampler,
            picks: self.picks,
            rec,
        }
    }

    /// The attached instrumentation sink.
    pub fn recorder(&self) -> &Rec {
        &self.rec
    }

    /// Override the candidate sampling mode.
    pub fn pair_mode(mut self, mode: PairMode) -> Self {
        self.pair_mode = mode;
        self
    }

    /// Override the pool sampler ([`SamplerKind::Hybrid`] by default).
    pub fn sampler(mut self, kind: SamplerKind) -> Self {
        self.sampler.set_kind(kind);
        self
    }

    /// The configured pool sampler.
    pub fn sampler_kind(&self) -> SamplerKind {
        self.sampler.kind()
    }

    /// Override the empty-ball fallback behaviour.
    pub fn radius_fallback(mut self, fb: RadiusFallback) -> Self {
        self.fallback = fb;
        self
    }

    /// The configured radius (`None` = unconstrained).
    pub fn radius(&self) -> Option<u32> {
        self.radius
    }

    /// The configured number of choices.
    pub fn choices(&self) -> u32 {
        self.d
    }

    /// Sample the unordered candidate **pair** Strategy II would compare
    /// for a request at `origin` for `file`, without committing a load
    /// decision. Returns `None` when fewer than two eligible candidates
    /// exist.
    ///
    /// This is the edge-sampling process of Lemma 3(b): the returned pair
    /// is an edge of the configuration graph `H` (both endpoints cache the
    /// file and lie within `B_r(origin)`, hence within `2r` of each
    /// other). `paba repro`'s `lemma3/edge-sampling-uniform` gate replays
    /// it to check that each edge is picked with probability `O(1/e(H))`.
    pub fn sample_pair<T: Topology, R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        origin: NodeId,
        file: u32,
        rng: &mut R,
    ) -> Option<(NodeId, NodeId)> {
        let placement = net.placement();
        let topo = net.topo();
        let cnt = placement.replica_count(file);
        if cnt < 2 {
            return None;
        }
        let r_eff = match self.radius {
            Some(r) if r < topo.diameter() => Some(r),
            _ => None,
        };
        match r_eff {
            None => {
                sample_by_index(
                    cnt,
                    2,
                    PairMode::Distinct,
                    |i| placement.replica_at(file, i),
                    &mut self.picks,
                    rng,
                );
                Some((self.picks[0], self.picks[1]))
            }
            Some(r) if placement.is_full() => {
                if topo.ball_size_at(origin, r) < 2 {
                    None
                } else {
                    let a = topo.sample_in_ball(origin, r, rng);
                    let b = loop {
                        let v = topo.sample_in_ball(origin, r, rng);
                        if v != a {
                            break v;
                        }
                    };
                    Some((a, b))
                }
            }
            Some(r) => {
                let drawn = self.sampler.draw(
                    net,
                    origin,
                    file,
                    r,
                    2,
                    PairMode::Distinct,
                    &mut self.picks,
                    rng,
                    &NullRecorder, // diagnostic path: keep out of profiles
                );
                match drawn {
                    PoolDraw::Drawn if self.picks.len() == 2 => {
                        Some((self.picks[0], self.picks[1]))
                    }
                    _ => None,
                }
            }
        }
    }

    /// Pick the least-loaded node among `picks` (uniform among ties).
    fn least_loaded<R: Rng + ?Sized>(picks: &[NodeId], loads: &[u32], rng: &mut R) -> NodeId {
        debug_assert!(!picks.is_empty());
        let mut best = picks[0];
        let mut ties = 1u32;
        for &c in &picks[1..] {
            let (lc, lb) = (loads[c as usize], loads[best as usize]);
            if lc < lb {
                best = c;
                ties = 1;
            } else if lc == lb {
                ties += 1;
                if rng.gen_range(0..ties) == 0 {
                    best = c;
                }
            }
        }
        best
    }
}

impl<Rec: Recorder> ProximityChoice<Rec> {
    /// The assignment logic proper; `Strategy::assign` wraps it so the
    /// per-request trace event is emitted at a single exit point.
    fn assign_inner<T: Topology, R: Rng + ?Sized>(
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
            self.rec.path(SamplerPath::Uncached);
            return Assignment {
                server: req.origin,
                hops: 0,
                fallback: Some(FallbackKind::Uncached),
            };
        }

        // A radius at or above the diameter is no constraint at all.
        let r_eff = match self.radius {
            Some(r) if r < topo.diameter() => Some(r),
            _ => None,
        };

        let server = match r_eff {
            None => {
                // Unconstrained: the pool is the whole replica list;
                // sample by index without materializing anything.
                self.rec.path(SamplerPath::IndexSample);
                if cnt == 1 && self.d >= 2 {
                    let server = placement.replica_at(req.file, 0);
                    return Assignment {
                        server,
                        hops: topo.dist(req.origin, server),
                        fallback: Some(FallbackKind::SingleCandidate),
                    };
                }
                sample_by_index(
                    cnt,
                    self.d,
                    self.pair_mode,
                    |i| placement.replica_at(req.file, i),
                    &mut self.picks,
                    rng,
                );
                Self::least_loaded(&self.picks, loads, rng)
            }
            Some(r) if placement.is_full() => {
                // Every node is a candidate: sample directly in the ball.
                self.rec.path(SamplerPath::BallSample);
                let ball = topo.ball_size_at(req.origin, r);
                if ball == 1 && self.d >= 2 {
                    return Assignment {
                        server: req.origin,
                        hops: 0,
                        fallback: Some(FallbackKind::SingleCandidate),
                    };
                }
                self.picks.clear();
                if matches!(self.pair_mode, PairMode::Distinct) && ball <= self.d as u64 {
                    // Fewer ball nodes than choices: take them all.
                    let picks = &mut self.picks;
                    topo.for_each_in_ball(req.origin, r, |v| picks.push(v));
                } else {
                    for _ in 0..self.d {
                        loop {
                            let v = topo.sample_in_ball(req.origin, r, rng);
                            if matches!(self.pair_mode, PairMode::WithReplacement)
                                || !self.picks.contains(&v)
                            {
                                self.picks.push(v);
                                break;
                            }
                        }
                    }
                }
                Self::least_loaded(&self.picks, loads, rng)
            }
            Some(r) => {
                // Sparse placement, finite radius: hybrid rejection
                // sampling over B_r(origin) ∩ replicas — O(1) expected,
                // exact scan only when the pool is too thin to sample.
                let drawn = self.sampler.draw(
                    net,
                    req.origin,
                    req.file,
                    r,
                    self.d,
                    self.pair_mode,
                    &mut self.picks,
                    rng,
                    &self.rec,
                );
                match drawn {
                    PoolDraw::Empty => {
                        // Empty ball: escalate per the configured fallback.
                        return match self.fallback {
                            RadiusFallback::NearestGlobal => {
                                let (server, hops) =
                                    nearest_replica(net, req.origin, req.file, rng, &self.rec)
                                        .expect("cnt > 0 implies a nearest replica exists");
                                Assignment {
                                    server,
                                    hops,
                                    fallback: Some(FallbackKind::NoCandidateInBall),
                                }
                            }
                            RadiusFallback::ServeAtOrigin => Assignment {
                                server: req.origin,
                                hops: 0,
                                fallback: Some(FallbackKind::NoCandidateInBall),
                            },
                        };
                    }
                    PoolDraw::Drawn if self.picks.len() == 1 && self.d >= 2 => {
                        let server = self.picks[0];
                        return Assignment {
                            server,
                            hops: topo.dist(req.origin, server),
                            fallback: Some(FallbackKind::SingleCandidate),
                        };
                    }
                    PoolDraw::Drawn => Self::least_loaded(&self.picks, loads, rng),
                }
            }
        };
        Assignment {
            server,
            hops: topo.dist(req.origin, server),
            fallback: None,
        }
    }
}

impl<T: Topology, Rec: Recorder> Strategy<T> for ProximityChoice<Rec> {
    fn assign<R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        loads: &[u32],
        req: Request,
        rng: &mut R,
    ) -> Assignment {
        if Rec::ENABLED {
            // Paths that return before sampling (uncached, single
            // candidate) must not leak the previous request's picks into
            // this request's trace event.
            self.picks.clear();
        }
        let a = self.assign_inner(net, loads, req, rng);
        if Rec::ENABLED {
            self.rec.request(
                req.file as u64,
                req.origin as u64,
                a.server as u64,
                a.hops,
                &mut self.picks.iter().map(|&p| (p as u64, loads[p as usize])),
            );
        }
        a
    }

    fn name(&self) -> &'static str {
        "proximity-choice"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::UncachedPolicy;
    use crate::simulate::simulate;
    use crate::strategy::NearestReplica;
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
    fn chosen_server_caches_the_file_and_respects_radius() {
        let net = net(1, 9, 20, 4);
        let mut strat = ProximityChoice::two_choice(Some(3));
        let loads = vec![0u32; net.n() as usize];
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let req = Request::sample(&net, UncachedPolicy::ResampleFile, &mut rng);
            let a = strat.assign(&net, &loads, req, &mut rng);
            assert!(net.placement().caches(a.server, req.file));
            assert_eq!(a.hops, net.topo().dist(req.origin, a.server));
            match a.fallback {
                None | Some(FallbackKind::SingleCandidate) => {
                    assert!(a.hops <= 3, "in-ball assignment beyond radius")
                }
                Some(FallbackKind::NoCandidateInBall) => {
                    assert!(a.hops > 3, "fallback should mean no in-ball replica")
                }
                Some(FallbackKind::Uncached) => unreachable!("resample policy"),
            }
        }
    }

    #[test]
    fn picks_the_lesser_loaded_candidate() {
        // With radius ≥ diameter and K=1, M=1-distinct... simpler: craft
        // loads and verify the decision marginal: run many assignments
        // with an extreme load imbalance and check the busy node is
        // avoided whenever an alternative exists.
        let net = net(3, 7, 5, 3);
        let file = (0..net.k())
            .max_by_key(|&f| net.placement().replica_count(f))
            .unwrap();
        let cnt = net.placement().replica_count(file);
        assert!(cnt >= 2, "need ≥2 replicas for the test");
        let busy = net.placement().replica_at(file, 0);
        let mut loads = vec![0u32; net.n() as usize];
        loads[busy as usize] = 1_000_000;
        let mut strat = ProximityChoice::two_choice(None);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut busy_hits = 0u32;
        for _ in 0..2000 {
            let req = Request { origin: 0, file };
            let a = strat.assign(&net, &loads, req, &mut rng);
            if a.server == busy {
                busy_hits += 1;
            }
        }
        // busy is chosen only when both picks are busy — impossible for
        // distinct pairs. (It can never win a comparison.)
        assert_eq!(busy_hits, 0, "overloaded node should never win");
    }

    #[test]
    fn single_replica_is_flagged() {
        let net = net(5, 6, 300, 1); // K ≫ slots: many single-replica files
        let file = (0..net.k())
            .find(|&f| net.placement().replica_count(f) == 1)
            .expect("regime yields single-replica files");
        let mut strat = ProximityChoice::two_choice(None);
        let loads = vec![0u32; net.n() as usize];
        let mut rng = SmallRng::seed_from_u64(6);
        let a = strat.assign(&net, &loads, Request { origin: 2, file }, &mut rng);
        assert_eq!(a.fallback, Some(FallbackKind::SingleCandidate));
        assert!(net.placement().caches(a.server, file));
    }

    #[test]
    fn empty_ball_escalates_to_nearest() {
        let net = net(7, 10, 400, 1);
        // Find (origin, file) with replicas but none within radius 1.
        let r = 1u32;
        let mut found = None;
        'search: for origin in 0..net.n() {
            for file in 0..net.k() {
                let cnt = net.placement().replica_count(file);
                if cnt == 0 {
                    continue;
                }
                let any_near = (0..cnt)
                    .any(|i| net.topo().dist(origin, net.placement().replica_at(file, i)) <= r);
                if !any_near {
                    found = Some((origin, file));
                    break 'search;
                }
            }
        }
        let (origin, file) = found.expect("sparse placement must have distant files");
        let loads = vec![0u32; net.n() as usize];
        let mut rng = SmallRng::seed_from_u64(8);

        let mut strat = ProximityChoice::two_choice(Some(r));
        let a = strat.assign(&net, &loads, Request { origin, file }, &mut rng);
        assert_eq!(a.fallback, Some(FallbackKind::NoCandidateInBall));
        assert!(a.hops > r);
        assert!(net.placement().caches(a.server, file));

        let mut strat =
            ProximityChoice::two_choice(Some(r)).radius_fallback(RadiusFallback::ServeAtOrigin);
        let b = strat.assign(&net, &loads, Request { origin, file }, &mut rng);
        assert_eq!(b.server, origin);
        assert_eq!(b.hops, 0);
        assert_eq!(b.fallback, Some(FallbackKind::NoCandidateInBall));
    }

    #[test]
    fn full_placement_unbounded_matches_classic_two_choice() {
        // Example 1: M = K, r = ∞ reduces to the standard process. Compare
        // average max loads against paba-ballsbins' implementation.
        let side = 32u32;
        let n = side * side;
        let mut ours = 0.0;
        let mut classic = 0.0;
        for seed in 0..6 {
            let topo = Torus::new(side);
            let library = crate::Library::new(4, Popularity::Uniform);
            let placement = crate::Placement::full(n, 4);
            let net = CacheNetwork::from_parts(topo, library, placement);
            let mut strat = ProximityChoice::two_choice(None).pair_mode(PairMode::WithReplacement);
            let mut rng = SmallRng::seed_from_u64(seed);
            let rep = simulate(&net, &mut strat, n as u64, &mut rng);
            ours += rep.max_load() as f64 / 6.0;
            let mut rng2 = SmallRng::seed_from_u64(1000 + seed);
            classic += paba_ballsbins::two_choice(n, n as u64, &mut rng2).max_load() as f64 / 6.0;
        }
        assert!(
            (ours - classic).abs() <= 0.75,
            "Example 1 equivalence: ours {ours} vs classic {classic}"
        );
    }

    #[test]
    fn two_choice_balances_better_than_nearest() {
        // End-to-end: same network, both strategies, many runs; Strategy II
        // (r=∞) must beat Strategy I on average max load.
        let mut near_avg = 0.0;
        let mut two_avg = 0.0;
        let runs = 8;
        for seed in 0..runs {
            let net = net(100 + seed, 20, 50, 4);
            let mut rng = SmallRng::seed_from_u64(200 + seed);
            let mut near = NearestReplica::new();
            near_avg += simulate(&net, &mut near, net.n() as u64, &mut rng).max_load() as f64;
            let mut rng = SmallRng::seed_from_u64(300 + seed);
            let mut two = ProximityChoice::two_choice(None);
            two_avg += simulate(&net, &mut two, net.n() as u64, &mut rng).max_load() as f64;
        }
        near_avg /= runs as f64;
        two_avg /= runs as f64;
        assert!(
            two_avg < near_avg,
            "two-choice ({two_avg}) should balance better than nearest ({near_avg})"
        );
    }

    #[test]
    fn more_choices_help() {
        let mut d1 = 0.0;
        let mut d4 = 0.0;
        let runs = 6;
        for seed in 0..runs {
            let net = net(400 + seed, 18, 30, 5);
            let mut rng = SmallRng::seed_from_u64(500 + seed);
            let mut s1 = ProximityChoice::with_choices(None, 1);
            d1 += simulate(&net, &mut s1, net.n() as u64, &mut rng).max_load() as f64;
            let mut rng = SmallRng::seed_from_u64(600 + seed);
            let mut s4 = ProximityChoice::with_choices(None, 4);
            d4 += simulate(&net, &mut s4, net.n() as u64, &mut rng).max_load() as f64;
        }
        assert!(
            d4 < d1,
            "Greedy[4] ({d4}) should beat random replica ({d1})"
        );
    }

    #[test]
    fn radius_bounds_cost() {
        let net = net(9, 45, 100, 10);
        for r in [2u32, 5, 10] {
            let mut strat = ProximityChoice::two_choice(Some(r));
            let mut rng = SmallRng::seed_from_u64(r as u64);
            let rep = simulate(&net, &mut strat, net.n() as u64, &mut rng);
            // Essentially every assignment is in-ball in this regime, so
            // the average cost must be ≤ r (fallbacks could exceed it, but
            // must be rare).
            assert!(
                rep.comm_cost() <= r as f64 + 0.5,
                "r={r}: cost {} too high (fallback fraction {})",
                rep.comm_cost(),
                rep.fallback_fraction()
            );
        }
    }

    #[test]
    fn pair_modes_statistically_close() {
        let mut dist_avg = 0.0;
        let mut repl_avg = 0.0;
        let runs = 6;
        for seed in 0..runs {
            let net = net(700 + seed, 20, 40, 10);
            let mut rng = SmallRng::seed_from_u64(800 + seed);
            let mut sd = ProximityChoice::two_choice(None).pair_mode(PairMode::Distinct);
            dist_avg += simulate(&net, &mut sd, net.n() as u64, &mut rng).max_load() as f64;
            let mut rng = SmallRng::seed_from_u64(900 + seed);
            let mut sr = ProximityChoice::two_choice(None).pair_mode(PairMode::WithReplacement);
            repl_avg += simulate(&net, &mut sr, net.n() as u64, &mut rng).max_load() as f64;
        }
        assert!(
            (dist_avg - repl_avg).abs() / runs as f64 <= 0.5,
            "pair modes should agree: {dist_avg} vs {repl_avg}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let net = net(11, 10, 25, 3);
        for kind in [SamplerKind::Hybrid, SamplerKind::ExactScan] {
            let run = || {
                let mut strat = ProximityChoice::two_choice(Some(4)).sampler(kind);
                let mut rng = SmallRng::seed_from_u64(12);
                simulate(&net, &mut strat, 500, &mut rng)
            };
            assert_eq!(run(), run(), "{kind:?}");
        }
    }

    #[test]
    fn sampler_kinds_statistically_close() {
        // Hybrid and exact-scan draw from identical distributions, so
        // end-to-end load statistics must agree within Monte-Carlo noise
        // — across a radius sweep spanning rejection, windowed, and
        // fallback-heavy regimes.
        for r in [2u32, 5, 9] {
            let mut hybrid = 0.0;
            let mut exact = 0.0;
            let runs = 8;
            for seed in 0..runs {
                let net = net(1000 + seed, 16, 40, 4);
                let mut rng = SmallRng::seed_from_u64(1100 + seed);
                let mut sh = ProximityChoice::two_choice(Some(r)).sampler(SamplerKind::Hybrid);
                hybrid += simulate(&net, &mut sh, net.n() as u64, &mut rng).max_load() as f64;
                let mut rng = SmallRng::seed_from_u64(1200 + seed);
                let mut se = ProximityChoice::two_choice(Some(r)).sampler(SamplerKind::ExactScan);
                exact += simulate(&net, &mut se, net.n() as u64, &mut rng).max_load() as f64;
            }
            assert!(
                (hybrid - exact).abs() / runs as f64 <= 0.75,
                "r={r}: hybrid {hybrid} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sampler_kind_is_configurable() {
        let s = ProximityChoice::two_choice(Some(3));
        assert_eq!(s.sampler_kind(), SamplerKind::Hybrid);
        let s = s.sampler(SamplerKind::ExactScan);
        assert_eq!(s.sampler_kind(), SamplerKind::ExactScan);
    }

    #[test]
    #[should_panic(expected = "at least one choice")]
    fn zero_choices_panics() {
        let _ = ProximityChoice::with_choices(None, 0);
    }

    #[test]
    fn sample_pair_yields_valid_h_edges() {
        let net = net(21, 9, 15, 4);
        let mut strat = ProximityChoice::two_choice(Some(3));
        let mut rng = SmallRng::seed_from_u64(22);
        let mut pairs_seen = 0;
        for _ in 0..500 {
            let req = Request::sample(&net, UncachedPolicy::ResampleFile, &mut rng);
            if let Some((a, b)) = strat.sample_pair(&net, req.origin, req.file, &mut rng) {
                pairs_seen += 1;
                assert_ne!(a, b, "pair must be distinct");
                assert!(net.placement().caches(a, req.file));
                assert!(net.placement().caches(b, req.file));
                assert!(net.topo().dist(req.origin, a) <= 3);
                assert!(net.topo().dist(req.origin, b) <= 3);
                // Both in B_r(origin) ⇒ d(a,b) ≤ 2r: an edge of H.
                assert!(net.topo().dist(a, b) <= 6);
                assert!(net.placement().shares_file(a, b));
            }
        }
        assert!(pairs_seen > 100, "too few pairs sampled: {pairs_seen}");
    }

    #[test]
    fn sample_pair_restores_configuration() {
        let net = net(23, 8, 10, 3);
        let mut strat =
            ProximityChoice::with_choices(Some(2), 5).pair_mode(PairMode::WithReplacement);
        let mut rng = SmallRng::seed_from_u64(24);
        let _ = strat.sample_pair(&net, 0, 0, &mut rng);
        assert_eq!(strat.choices(), 5);
        assert!(matches!(strat.pair_mode, PairMode::WithReplacement));
    }
}
