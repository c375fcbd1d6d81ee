//! Hybrid candidate sampling over the eligible pool
//! `B_r(origin) ∩ replicas(file)` — the assignment hot path.
//!
//! Strategy II only ever needs `d` (= 2) uniform candidates from the pool,
//! yet the original implementation *materialized* the whole pool per
//! request with per-node membership or distance checks:
//! `O(min(cnt, |B_r|)) ≈ O(r²)` work for an `O(1)` decision. This module
//! replaces that with an adaptive sampler that is **exactly uniform** over
//! the pool and `O(1)` expected in the paper's regimes. Two mechanisms:
//!
//! * **Two-sided rejection sampling** (dense pools). Draw either a uniform
//!   index into the replica list and accept if the node lies within radius
//!   `r` (expected `cnt / |pool| = n / |B_r|` trials per accept, one
//!   [`Topology::dist_from`] each), or [`Topology::sample_in_ball`] and
//!   accept on cache membership (expected `|B_r| / |pool| = n / cnt`
//!   trials, one adaptive [`crate::Placement::caches`] each). The cheaper
//!   side is chosen by comparing `cnt` against `|B_r|`; attempts are
//!   capped so a surprisingly thin pool degrades into the exact path
//!   below instead of spinning.
//!
//! * **Windowed exact materialization** (sparse pools). Node ids are
//!   row-major lattice coordinates and replica lists are sorted, so the
//!   pool is the union of at most `2(2r + 1)` contiguous sub-slices of
//!   the replica list ([`Topology::for_each_ball_id_range`]): `O(r log
//!   cnt)` cache-friendly binary searches and block copies, not a scan of
//!   either side. Candidates are then drawn by index. This path settles
//!   the empty-pool / single-candidate cases exactly.
//!
//! Every path draws uniformly from the same pool, so the mixture is
//! exactly the paper's candidate distribution; only the wall-clock
//! changes. The repo benchmark (`perfbench/`) times it per assignment
//! (`dispatch.assign_ns`) and reports its path mix (`sampler.share.*`).

use crate::network::CacheNetwork;
use crate::placement::Placement;
use crate::strategy::proximity::PairMode;
use paba_telemetry::{Counter, Recorder, SamplerPath};
use paba_topology::{NodeId, Topology};
use rand::Rng;

/// How [`crate::ProximityChoice`] draws candidates from the eligible pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SamplerKind {
    /// Adaptive hybrid sampling: two-sided rejection for dense pools,
    /// windowed exact materialization otherwise (the default; `O(1)`
    /// expected per request in the paper's regimes).
    ///
    /// Identical in distribution to [`SamplerKind::ExactScan`], with one
    /// reporting nuance: under [`PairMode::WithReplacement`] a pool of
    /// exactly one node may be returned as `d` accepted copies instead of
    /// being flagged `SingleCandidate` (rejection sampling cannot learn
    /// the pool size). The paper's default distinct mode is
    /// flag-identical.
    #[default]
    Hybrid,
    /// Always materialize the pool per request by scanning whichever of
    /// the replica list / ball enumeration is smaller, then sample by
    /// index — the pre-sampler behaviour, kept as the oracle of the χ²
    /// equivalence tests.
    ExactScan,
}

/// Outcome of a pool draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PoolDraw {
    /// `picks` holds the candidates: `d` of them, or the entire pool if it
    /// is smaller (distinct mode), or a single node when the pool proved
    /// to be a singleton.
    Drawn,
    /// The pool is empty (no replica within the ball).
    Empty,
}

/// Rejection sampling is attempted only when the expected number of
/// trials per accepted draw, `n / max(cnt, |B_r|)`, is at most this;
/// beyond it the windowed exact path is cheaper (one cold binary search
/// plus `O(r)` cache-resident ones, regardless of density).
const REJECTION_TRIALS_MAX: u64 = 16;

/// Attempt budget per requested candidate, as a multiple of the expected
/// trial count: succeeds with overwhelming probability when the density
/// estimate holds, and bounds wasted work by a constant factor of the
/// windowed-scan cost it falls back to.
const ATTEMPT_MULT: u64 = 4;

/// Reusable scratch + configuration for pool sampling.
///
/// Owned by a strategy; holds the materialization buffer so the exact
/// path stays allocation-free across requests.
#[derive(Clone, Debug, Default)]
pub(crate) struct PoolSampler {
    kind: SamplerKind,
    /// Materialized pool for the exact path.
    candidates: Vec<NodeId>,
}

impl PoolSampler {
    pub(crate) fn new(kind: SamplerKind) -> Self {
        Self {
            kind,
            candidates: Vec::new(),
        }
    }

    pub(crate) fn kind(&self) -> SamplerKind {
        self.kind
    }

    pub(crate) fn set_kind(&mut self, kind: SamplerKind) {
        self.kind = kind;
    }

    /// Draw `d` uniform candidates from `B_r(origin) ∩ replicas(file)`
    /// into `picks` under `mode`, assuming `replica_count(file) > 0`, a
    /// finite effective radius `r < diameter`, and a sparse placement.
    ///
    /// Records exactly one [`SamplerPath`] per call on `rec` (including
    /// calls that end in [`PoolDraw::Empty`], which went through a
    /// materialization path to learn the pool is empty).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn draw<T: Topology, R: Rng + ?Sized, Rec: Recorder>(
        &mut self,
        net: &CacheNetwork<T>,
        origin: NodeId,
        file: u32,
        r: u32,
        d: u32,
        mode: PairMode,
        picks: &mut Vec<NodeId>,
        rng: &mut R,
        rec: &Rec,
    ) -> PoolDraw {
        let topo = net.topo();
        let placement = net.placement();
        let cnt = placement.replica_count(file);
        debug_assert!(cnt > 0, "caller filters uncached files");
        debug_assert!(!placement.is_full(), "caller handles full placements");
        let n = topo.n() as u64;
        // |B_r| estimate: exact (2r(r+1) + 1) in the non-wrapping regime,
        // saturated at n otherwise. Only steers path choice — every path
        // is exactly uniform — so the estimate is free to be rough.
        let est_ball = (2 * r as u64 * (r as u64 + 1) + 1).min(n);
        let trials_est = n / (cnt as u64).max(est_ball);
        if self.kind == SamplerKind::Hybrid && trials_est <= REJECTION_TRIALS_MAX {
            let replica_side = (cnt as u64) < est_ball;
            let budget = ATTEMPT_MULT * d as u64 * (trials_est + 2);
            let oc = topo.coord_of(origin);
            picks.clear();
            let mut attempts = 0u64;
            let mut ball_attempts = 0u64;
            while (picks.len() as u32) < d && attempts < budget {
                attempts += 1;
                let v = if replica_side {
                    let v = placement.replica_at(file, rng.gen_range(0..cnt));
                    if topo.dist_from(oc, v) > r {
                        continue;
                    }
                    v
                } else {
                    if Rec::ENABLED {
                        ball_attempts += 1;
                    }
                    let v = topo.sample_in_ball_from(oc, r, rng);
                    if !placement.caches(v, file) {
                        continue;
                    }
                    v
                };
                if mode == PairMode::Distinct && picks.contains(&v) {
                    continue;
                }
                picks.push(v);
            }
            if Rec::ENABLED && ball_attempts > 0 {
                record_caches(rec, placement, file, ball_attempts);
            }
            if picks.len() as u32 == d {
                rec.path(if replica_side {
                    SamplerPath::RejectionReplica
                } else {
                    SamplerPath::RejectionBall
                });
                return PoolDraw::Drawn;
            }
            // Budget exhausted: the pool is thinner than the density
            // estimate promised (possibly empty, or a singleton in
            // distinct mode). Settle it exactly below; partial picks are
            // discarded and redrawn from scratch, so the result stays
            // exactly uniform.
            rec.count(Counter::RejectionBudgetExhausted, 1);
        }
        match self.kind {
            SamplerKind::Hybrid => {
                self.materialize_windowed(net, origin, file, r, cnt);
                rec.path(SamplerPath::Windowed);
            }
            SamplerKind::ExactScan => {
                self.materialize_scan(net, origin, file, r, cnt, rec);
                rec.path(SamplerPath::ExactScan);
            }
        }
        rec.pool_size(self.candidates.len());
        match self.candidates.len() {
            0 => PoolDraw::Empty,
            1 => {
                picks.clear();
                picks.push(self.candidates[0]);
                PoolDraw::Drawn
            }
            len => {
                sample_by_index(
                    len as u32,
                    d,
                    mode,
                    |i| self.candidates[i as usize],
                    picks,
                    rng,
                );
                PoolDraw::Drawn
            }
        }
    }

    /// Materialize the pool into `candidates` via the sorted replica
    /// list restricted to the ball's contiguous id intervals, and return
    /// it. `O(min(cnt, r log cnt) + |pool|)`. Recorded as a
    /// [`SamplerPath::Windowed`] event with the resulting pool size.
    pub(crate) fn materialize_pool<T: Topology, Rec: Recorder>(
        &mut self,
        net: &CacheNetwork<T>,
        origin: NodeId,
        file: u32,
        r: u32,
        rec: &Rec,
    ) -> &[NodeId] {
        let cnt = net.placement().replica_count(file);
        self.materialize_windowed(net, origin, file, r, cnt);
        rec.path(SamplerPath::Windowed);
        rec.pool_size(self.candidates.len());
        &self.candidates
    }

    fn materialize_windowed<T: Topology>(
        &mut self,
        net: &CacheNetwork<T>,
        origin: NodeId,
        file: u32,
        r: u32,
        cnt: u32,
    ) {
        let topo = net.topo();
        let reps = net
            .placement()
            .replica_list(file)
            .expect("windowed materialization needs a sparse placement");
        self.candidates.clear();
        let oc = topo.coord_of(origin);
        if (cnt as u64) <= 2 * (2 * r as u64 + 1) {
            // Fewer replicas than ball row-intervals: a straight scan of
            // the (contiguous) replica list is cheaper than searching it.
            for &v in reps {
                if topo.dist_from(oc, v) <= r {
                    self.candidates.push(v);
                }
            }
            return;
        }
        // Narrow to the ball's row band first — one pair of binary
        // searches on the full list; the O(r) per-row interval searches
        // then run on band sub-slices small enough to stay in cache.
        let n = topo.n();
        let mut bands: [Option<(NodeId, NodeId, &[NodeId])>; 2] = [None, None];
        for (slot, range) in bands.iter_mut().zip(topo.row_band(oc, r)) {
            if let Some((blo, bhi)) = range {
                let a = interp_lower_bound(reps, blo, n);
                let b = interp_lower_bound(reps, bhi + 1, n);
                *slot = Some((blo, bhi, &reps[a..b]));
            }
        }
        let candidates = &mut self.candidates;
        let band_total: usize = bands.iter().flatten().map(|(_, _, s)| s.len()).sum();
        if band_total as u64 <= 8 * (4 * r as u64 + 2) {
            // Thin band: a sequential distance-filtered sweep of the band
            // slices beats the per-interval searches below.
            for (_, _, slice) in bands.iter().flatten() {
                for &v in *slice {
                    if topo.dist_from(oc, v) <= r {
                        candidates.push(v);
                    }
                }
            }
            return;
        }
        topo.for_each_ball_id_range(origin, r, |lo, hi| {
            // Each interval sits in whole rows, hence inside one band range.
            for band in bands.iter().flatten() {
                let (blo, bhi, slice) = *band;
                if blo <= lo && hi <= bhi {
                    let a = slice.partition_point(|&v| v < lo);
                    let b = a + slice[a..].partition_point(|&v| v <= hi);
                    candidates.extend_from_slice(&slice[a..b]);
                    break;
                }
            }
        });
    }

    /// The pre-sampler materialization: per-node scan of whichever side
    /// is smaller. Kept verbatim as the [`SamplerKind::ExactScan`]
    /// oracle the χ² equivalence tests compare against.
    fn materialize_scan<T: Topology, Rec: Recorder>(
        &mut self,
        net: &CacheNetwork<T>,
        origin: NodeId,
        file: u32,
        r: u32,
        cnt: u32,
        rec: &Rec,
    ) {
        let topo = net.topo();
        let placement = net.placement();
        self.candidates.clear();
        if (cnt as u64) <= topo.ball_size_at(origin, r) {
            for i in 0..cnt {
                let v = placement.replica_at(file, i);
                if topo.dist(origin, v) <= r {
                    self.candidates.push(v);
                }
            }
        } else {
            let candidates = &mut self.candidates;
            let mut caches_calls = 0u64;
            topo.for_each_in_ball(origin, r, |v| {
                if Rec::ENABLED {
                    caches_calls += 1;
                }
                if placement.caches(v, file) {
                    candidates.push(v);
                }
            });
            if Rec::ENABLED && caches_calls > 0 {
                record_caches(rec, placement, file, caches_calls);
            }
        }
    }
}

/// Attribute `calls` [`Placement::caches`] membership checks for `file` to
/// the index structure that answered them.
fn record_caches<Rec: Recorder>(rec: &Rec, placement: &Placement, file: u32, calls: u64) {
    let counter = if placement.has_dense_index(file) {
        Counter::CachesBitmap
    } else {
        Counter::CachesBinarySearch
    };
    rec.count(counter, calls);
}

/// Lower-bound index of `target` in `sorted` (the first element `≥
/// target`), assuming values lie in `0..n`.
///
/// Replica lists are near-uniform over the id space, so the
/// interpolation guess `target·len/n` lands within `O(√len)` of the
/// answer; galloping out from it converges in a handful of probes that
/// touch *adjacent* memory, where a cold binary search would take
/// `log₂ len` scattered probes (each a cache miss on large lists).
/// Correct for arbitrary sorted input — the distribution assumption only
/// affects speed.
pub(crate) fn interp_lower_bound(sorted: &[NodeId], target: NodeId, n: u32) -> usize {
    let len = sorted.len();
    if len == 0 {
        return 0;
    }
    let guess = (((target as u64) * (len as u64)) / (n as u64).max(1)) as usize;
    let guess = guess.min(len - 1);
    // Establish lo with (lo == 0 or sorted[lo] < target) and hi with
    // (hi == len or sorted[hi] ≥ target): the boundary lies in [lo, hi].
    let mut lo = guess;
    let mut step = 8usize;
    while lo > 0 && sorted[lo] >= target {
        lo = lo.saturating_sub(step);
        step *= 2;
    }
    let mut hi = guess;
    step = 8;
    while hi < len && sorted[hi] < target {
        hi = (hi + step).min(len);
        step *= 2;
    }
    lo + sorted[lo..hi].partition_point(|&v| v < target)
}

/// Sample `d` candidate *indices* from `0..cnt` into `picks` (as ids via
/// `map`), honouring the pair mode. `cnt ≥ 1`. In distinct mode with
/// `cnt ≤ d` the entire index range is taken.
pub(crate) fn sample_by_index<R: Rng + ?Sized, F: Fn(u32) -> NodeId>(
    cnt: u32,
    d: u32,
    mode: PairMode,
    map: F,
    picks: &mut Vec<NodeId>,
    rng: &mut R,
) {
    picks.clear();
    match mode {
        PairMode::WithReplacement => {
            for _ in 0..d {
                picks.push(map(rng.gen_range(0..cnt)));
            }
        }
        PairMode::Distinct => {
            if cnt <= d {
                for i in 0..cnt {
                    picks.push(map(i));
                }
            } else if d == 2 {
                // Exact unordered distinct pair in two draws.
                let i = rng.gen_range(0..cnt);
                let mut j = rng.gen_range(0..cnt - 1);
                if j >= i {
                    j += 1;
                }
                picks.push(map(i));
                picks.push(map(j));
            } else {
                // Small-d rejection sampling over indices.
                let mut idxs: [u32; 16] = [u32::MAX; 16];
                let d = d.min(16) as usize;
                let mut filled = 0usize;
                while filled < d {
                    let i = rng.gen_range(0..cnt);
                    if !idxs[..filled].contains(&i) {
                        idxs[filled] = i;
                        filled += 1;
                    }
                }
                for &i in &idxs[..d] {
                    picks.push(map(i));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CacheNetwork;
    use paba_popularity::Popularity;
    use paba_telemetry::NullRecorder;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn net(seed: u64, side: u32, k: u32, m: u32) -> CacheNetwork<Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(side)
            .library(k, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng)
    }

    /// Brute-force pool for cross-checking.
    fn pool(net: &CacheNetwork<Torus>, origin: u32, file: u32, r: u32) -> Vec<u32> {
        (0..net.n())
            .filter(|&v| net.placement().caches(v, file) && net.topo().dist(origin, v) <= r)
            .collect()
    }

    /// Find a (origin, file) pair matching `pred(cnt, pool_len)`.
    fn find_case(
        net: &CacheNetwork<Torus>,
        r: u32,
        pred: impl Fn(u64, usize) -> bool,
    ) -> (u32, u32) {
        for origin in 0..net.n() {
            for file in 0..net.k() {
                let cnt = net.placement().replica_count(file) as u64;
                if cnt == 0 {
                    continue;
                }
                let p = pool(net, origin, file, r).len();
                if pred(cnt, p) {
                    return (origin, file);
                }
            }
        }
        panic!("no (origin, file) case matches the requested regime");
    }

    /// Draw `trials` single candidates and chi-square-check uniformity
    /// over the brute-forced pool.
    fn check_uniform_draws(
        net: &CacheNetwork<Torus>,
        origin: u32,
        file: u32,
        r: u32,
        kind: SamplerKind,
        seed: u64,
    ) {
        let expect_pool = pool(net, origin, file, r);
        assert!(expect_pool.len() >= 2, "test regime needs a real pool");
        let mut sampler = PoolSampler::new(kind);
        let mut picks = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let trials = 4_000 * expect_pool.len();
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for _ in 0..trials {
            let out = sampler.draw(
                net,
                origin,
                file,
                r,
                1,
                PairMode::Distinct,
                &mut picks,
                &mut rng,
                &NullRecorder,
            );
            assert_eq!(out, PoolDraw::Drawn);
            assert_eq!(picks.len(), 1);
            *counts.entry(picks[0]).or_insert(0) += 1;
        }
        // Every draw must land in the pool, cover it, and be uniform.
        assert_eq!(counts.len(), expect_pool.len(), "pool coverage");
        let expect = trials as f64 / expect_pool.len() as f64;
        for &v in &expect_pool {
            let c = counts.get(&v).copied().unwrap_or(0) as f64;
            assert!(
                (c - expect).abs() < 5.0 * expect.sqrt() + 1.0,
                "node {v}: {c} vs {expect} (kind {kind:?})"
            );
        }
    }

    #[test]
    fn ball_side_rejection_regime_is_uniform() {
        // K=4, M=3 on a 20-torus: cnt ≈ n/2 ≥ |B_5| = 61, so the hybrid
        // path samples the ball and rejects on membership.
        let net = net(2, 20, 4, 3);
        let r = 5;
        let (origin, file) = find_case(&net, r, |cnt, p| cnt >= 61 && p >= 8);
        check_uniform_draws(&net, origin, file, r, SamplerKind::Hybrid, 13);
        check_uniform_draws(&net, origin, file, r, SamplerKind::ExactScan, 14);
    }

    #[test]
    fn replica_side_rejection_regime_is_uniform() {
        // K=10, M=2 on a 20-torus at r=9: |B_9| = 181 > cnt ≈ 76, and
        // n / 181 ≈ 2 expected trials — the hybrid path draws replica
        // indices and rejects on distance.
        let net = net(1, 20, 10, 2);
        let r = 9;
        let (origin, file) = find_case(&net, r, |cnt, p| (40..181).contains(&cnt) && p >= 8);
        check_uniform_draws(&net, origin, file, r, SamplerKind::Hybrid, 11);
        check_uniform_draws(&net, origin, file, r, SamplerKind::ExactScan, 12);
    }

    #[test]
    fn windowed_interval_regime_is_uniform() {
        // K=20, M=1 on a 20-torus at r=2: cnt ≈ 20 ≫ expected pool, so
        // rejection is gated off and the windowed binary-search
        // materialization runs (cnt > 2(2r+1) = 10 intervals).
        let net = net(3, 20, 20, 1);
        let r = 2;
        let (origin, file) = find_case(&net, r, |cnt, p| cnt > 10 && p >= 2);
        check_uniform_draws(&net, origin, file, r, SamplerKind::Hybrid, 15);
        check_uniform_draws(&net, origin, file, r, SamplerKind::ExactScan, 16);
    }

    #[test]
    fn windowed_linear_regime_is_uniform() {
        // K=60, M=2 on a 15-torus: cnt ≈ 7 ≤ 2(2r+1), so the windowed
        // path degenerates to a linear scan of the short replica list.
        let net = net(4, 15, 60, 2);
        let r = 6;
        let (origin, file) = find_case(&net, r, |cnt, p| cnt <= 12 && p >= 2);
        check_uniform_draws(&net, origin, file, r, SamplerKind::Hybrid, 17);
    }

    #[test]
    fn empty_pool_reported() {
        let net = net(4, 10, 400, 1);
        let r = 1;
        let (origin, file) = find_case(&net, r, |_cnt, p| p == 0);
        let mut sampler = PoolSampler::new(SamplerKind::Hybrid);
        let mut picks = vec![99];
        let mut rng = SmallRng::seed_from_u64(16);
        let out = sampler.draw(
            &net,
            origin,
            file,
            r,
            2,
            PairMode::Distinct,
            &mut picks,
            &mut rng,
            &NullRecorder,
        );
        assert_eq!(out, PoolDraw::Empty);
    }

    #[test]
    fn singleton_pool_yields_one_pick() {
        let net = net(5, 12, 200, 1);
        let r = 2;
        let (origin, file) = find_case(&net, r, |_cnt, p| p == 1);
        let expect = pool(&net, origin, file, r);
        let mut sampler = PoolSampler::new(SamplerKind::Hybrid);
        let mut picks = Vec::new();
        let mut rng = SmallRng::seed_from_u64(17);
        let out = sampler.draw(
            &net,
            origin,
            file,
            r,
            2,
            PairMode::Distinct,
            &mut picks,
            &mut rng,
            &NullRecorder,
        );
        assert_eq!(out, PoolDraw::Drawn);
        assert_eq!(picks, expect);
    }

    #[test]
    fn distinct_pairs_are_distinct_and_in_pool() {
        let net = net(6, 20, 4, 3);
        let r = 5;
        let (origin, file) = find_case(&net, r, |cnt, p| cnt >= 61 && p >= 8);
        let expect: std::collections::HashSet<u32> =
            pool(&net, origin, file, r).into_iter().collect();
        let mut sampler = PoolSampler::new(SamplerKind::Hybrid);
        let mut picks = Vec::new();
        let mut rng = SmallRng::seed_from_u64(18);
        for _ in 0..2_000 {
            let out = sampler.draw(
                &net,
                origin,
                file,
                r,
                2,
                PairMode::Distinct,
                &mut picks,
                &mut rng,
                &NullRecorder,
            );
            assert_eq!(out, PoolDraw::Drawn);
            assert_eq!(picks.len(), 2);
            assert_ne!(picks[0], picks[1]);
            assert!(expect.contains(&picks[0]) && expect.contains(&picks[1]));
        }
    }

    #[test]
    fn with_replacement_draws_stay_in_pool() {
        let net = net(7, 20, 10, 2);
        let r = 9;
        let (origin, file) = find_case(&net, r, |cnt, p| (40..181).contains(&cnt) && p >= 4);
        let expect: std::collections::HashSet<u32> =
            pool(&net, origin, file, r).into_iter().collect();
        let mut sampler = PoolSampler::new(SamplerKind::Hybrid);
        let mut picks = Vec::new();
        let mut rng = SmallRng::seed_from_u64(19);
        for _ in 0..2_000 {
            let out = sampler.draw(
                &net,
                origin,
                file,
                r,
                3,
                PairMode::WithReplacement,
                &mut picks,
                &mut rng,
                &NullRecorder,
            );
            assert_eq!(out, PoolDraw::Drawn);
            assert_eq!(picks.len(), 3);
            assert!(picks.iter().all(|v| expect.contains(v)));
        }
    }

    #[test]
    fn materialize_pool_matches_bruteforce() {
        let net = net(9, 15, 40, 2);
        let mut sampler = PoolSampler::new(SamplerKind::Hybrid);
        for r in [1u32, 3, 6, 10, 14] {
            for origin in (0..net.n()).step_by(31) {
                for file in 0..net.k() {
                    if net.placement().replica_count(file) == 0 {
                        continue;
                    }
                    let mut got: Vec<u32> = sampler
                        .materialize_pool(&net, origin, file, r, &NullRecorder)
                        .to_vec();
                    got.sort_unstable();
                    assert_eq!(
                        got,
                        pool(&net, origin, file, r),
                        "origin={origin} file={file} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed_across_regimes() {
        // One network whose files span all sampler paths (rejection on
        // both sides, windowed, empty-pool) at these radii.
        let net = net(8, 20, 10, 2);
        for r in [2u32, 5, 9] {
            let run = |kind: SamplerKind| {
                let mut sampler = PoolSampler::new(kind);
                let mut picks = Vec::new();
                let mut rng = SmallRng::seed_from_u64(21);
                let mut transcript = Vec::new();
                for origin in (0..net.n()).step_by(13) {
                    for file in 0..net.k() {
                        if net.placement().replica_count(file) == 0 {
                            continue;
                        }
                        let out = sampler.draw(
                            &net,
                            origin,
                            file,
                            r,
                            2,
                            PairMode::Distinct,
                            &mut picks,
                            &mut rng,
                            &NullRecorder,
                        );
                        transcript.push((out == PoolDraw::Drawn, picks.clone()));
                    }
                }
                transcript
            };
            assert_eq!(run(SamplerKind::Hybrid), run(SamplerKind::Hybrid), "r={r}");
            assert_eq!(
                run(SamplerKind::ExactScan),
                run(SamplerKind::ExactScan),
                "r={r}"
            );
        }
    }
}
