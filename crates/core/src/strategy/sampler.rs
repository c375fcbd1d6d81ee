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
//!   The trials run in a branch-free kernel ([`rejection_trials`]). Each
//!   iteration makes one trial: a replica index, or one square proposal
//!   of [`Topology::ball_trial`] (two draws on the paper's torus). It
//!   computes whether the node is eligible (in the ball and caching the
//!   file, or a replica within `r`) and new, writes it to a pick slot,
//!   and advances the pick count by that flag. The loop exit is then the
//!   only branch that depends on a draw. The trial kind (replica side,
//!   ball side over a bitmap-indexed file whose bits it reads directly,
//!   ball side otherwise) is chosen once per draw, with one loop each.
//!   Picks go to a 16-slot stack buffer, or to the scratch vector when
//!   `d > 16`. A loop that branches on each trial mispredicts: the
//!   diamond and membership tests are close to coin flips. Draws,
//!   picks, budgets and fallbacks are those of that loop, pinned path by
//!   path in `sampler/pins.rs`. On perfbench (10 alternating 30 s pairs,
//!   seeds 41–50, medians [quartiles] on a 2-core VM), `churn-repair`
//!   `requests_per_s` went from 731k [728k, 740k] to 882k [872k, 888k]
//!   (faster in 10 of 10) and `static-zipf` from 2.35M [2.33M, 2.39M] to
//!   2.83M [2.78M, 2.85M] (10 of 10); `queue-hot`, which never gets
//!   here, moved +8.7% with code placement. Traced `dispatch.assign_ns`
//!   (5 pairs) went from 746 to 558 ns on `churn-repair` and from 448 to
//!   383 ns on `static-zipf`.
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
use paba_telemetry::{Counter, Recorder, SamplerPath};
use paba_topology::{Coord, NodeId, Topology};
use rand::Rng;

/// How [`crate::ProximityChoice`] draws candidates from the eligible pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SamplerKind {
    /// Adaptive hybrid sampling: two-sided rejection for dense pools,
    /// windowed exact materialization otherwise (the default; `O(1)`
    /// expected per request in the paper's regimes). Identical in
    /// distribution and in its fallback flags to
    /// [`SamplerKind::ExactScan`].
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
    /// `picks` holds the candidates: `d` distinct ones, or the entire
    /// pool if it is smaller (a single node when the pool proved to be a
    /// singleton).
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

/// Picks the rejection kernel keeps in a stack buffer; larger `d` use
/// the sampler's scratch vector.
const STACK_PICKS: usize = 16;

/// Marks an unused pick slot. Node ids stay below `n ≤ 46,340²`, so no
/// node has this id.
const NO_NODE: NodeId = NodeId::MAX;

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

    /// Draw `d` distinct uniform candidates from `B_r(origin) ∩
    /// replicas(file)` into `picks`, assuming `replica_count(file) > 0`, a
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
            let attempts = self.rejection(net, oc, file, r, d, budget, replica_side, picks, rng);
            // Ball-side attempts are ball samples, one membership check each.
            if Rec::ENABLED && !replica_side && attempts > 0 {
                record_caches(rec, placement, file, attempts);
            }
            if picks.len() == d as usize {
                rec.path(if replica_side {
                    SamplerPath::RejectionReplica
                } else {
                    SamplerPath::RejectionBall
                });
                return PoolDraw::Drawn;
            }
            // Budget exhausted: the pool is thinner than the density
            // estimate promised (possibly empty, or a singleton). Settle
            // it exactly below; partial picks are discarded and redrawn
            // from scratch, so the result stays exactly uniform.
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
                sample_by_index(len as u32, d, |i| self.candidates[i as usize], picks, rng);
                PoolDraw::Drawn
            }
        }
    }

    /// The rejection trials of one draw: at most `budget` counted trials
    /// for `d` distinct picks, which land in `picks` only if all `d` are
    /// found (`picks` is left empty otherwise). Returns the number of
    /// counted trials. Kept out of line, so that the trial loops get
    /// registers of their own and the rest of [`PoolSampler::draw`] keeps
    /// its code.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn rejection<T: Topology, R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        oc: Coord,
        file: u32,
        r: u32,
        d: u32,
        budget: u64,
        replica_side: bool,
        picks: &mut Vec<NodeId>,
        rng: &mut R,
    ) -> u64 {
        picks.clear();
        // Each buffer gets kernel instances of its own, so the stack
        // buffer's length is a constant in them.
        if d as usize <= STACK_PICKS {
            let mut stack = [NO_NODE; STACK_PICKS];
            let (len, attempts) =
                trials::<true, _, _>(&mut stack, net, oc, file, r, d, budget, replica_side, rng);
            if len == d as usize {
                picks.extend_from_slice(&stack[..len]);
            }
            attempts
        } else {
            // At most min(d, n) distinct picks exist, so the kernel never
            // writes past slot min(d − 1, n).
            let slots = (d as u64).min(net.n() as u64 + 1) as usize;
            self.candidates.clear();
            self.candidates.resize(slots, NO_NODE);
            let (len, attempts) = trials::<false, _, _>(
                &mut self.candidates,
                net,
                oc,
                file,
                r,
                d,
                budget,
                replica_side,
                rng,
            );
            if len == d as usize {
                picks.extend_from_slice(&self.candidates[..len]);
            }
            attempts
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

/// The rejection trials of one draw into `slots`, returning the number of
/// picks and of counted trials. The trial kind (replica side, ball side
/// over a bitmap-indexed file, ball side otherwise) is chosen here, once,
/// so each kind gets a [`rejection_trials`] loop of its own and no kind's
/// test runs inside another's loop. `FIXED_SCAN` goes to the kernel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn trials<const FIXED_SCAN: bool, T: Topology, R: Rng + ?Sized>(
    slots: &mut [NodeId],
    net: &CacheNetwork<T>,
    oc: Coord,
    file: u32,
    r: u32,
    d: u32,
    budget: u64,
    replica_side: bool,
    rng: &mut R,
) -> (usize, u64) {
    let (topo, placement) = (net.topo(), net.placement());
    let d = d as usize;
    if replica_side {
        let reps = placement.replica_list(file).expect("sparse placement");
        let cnt = reps.len() as u32;
        rejection_trials::<FIXED_SCAN, _>(
            slots,
            d,
            budget,
            rng,
            #[inline(always)]
            |rng| {
                let v = reps[rng.gen_range(0..cnt) as usize];
                (v, topo.dist_from(oc, v) <= r, true)
            },
        )
    } else if let Some(bits) = placement.dense_bitmap(file) {
        rejection_trials::<FIXED_SCAN, _>(
            slots,
            d,
            budget,
            rng,
            #[inline(always)]
            |rng| {
                let (v, inside) = topo.ball_trial(oc, r, rng);
                // `v < n` keeps the word in range; `get` keeps a panic
                // path, and the generator-state stores it forces, out of
                // the loop.
                let word = bits.get((v / 64) as usize).copied().unwrap_or(0);
                let cached = (word >> (v % 64)) & 1 == 1;
                (v, inside & cached, inside)
            },
        )
    } else {
        rejection_trials::<FIXED_SCAN, _>(
            slots,
            d,
            budget,
            rng,
            #[inline(always)]
            |rng| {
                let (v, inside) = topo.ball_trial(oc, r, rng);
                (v, inside && placement.caches(v, file), inside)
            },
        )
    }
}

/// The rejection loop: run `trial` until `d` distinct eligible nodes fill
/// `slots` or `budget` counted trials are spent, and return the number of
/// picks and of counted trials. `trial` returns the node it names, whether
/// that node is in the pool, and whether the trial counts against the
/// budget (a ball sample does, a proposal outside the ball does not).
///
/// The loop exit is the only branch that depends on a draw. Every trial
/// writes its slot (`NO_NODE` when the node is not kept) and advances the
/// pick count by `eligible & fresh`. `slots[len..]` hold `NO_NODE`, so with
/// `FIXED_SCAN` (the stack buffer) the freshness test compares the first
/// `d` slots, a trip count fixed per draw, without an early exit; without
/// it (the scratch vector, `d` up to `n`) it compares the picks so far.
/// Each compare loads one slot, which the store of the previous trial
/// forwards to it (a load of the whole buffer right after a one-slot store
/// stalls on every trial). `slots` must have room for one more pick than
/// the pool can fill, up to `d`, and for `d` slots with `FIXED_SCAN`.
#[inline(always)]
fn rejection_trials<const FIXED_SCAN: bool, R: ?Sized>(
    slots: &mut [NodeId],
    d: usize,
    budget: u64,
    rng: &mut R,
    mut trial: impl FnMut(&mut R) -> (NodeId, bool, bool),
) -> (usize, u64) {
    let (mut len, mut attempts) = (0usize, 0u64);
    while len < d && attempts < budget {
        let (v, eligible, counted) = trial(rng);
        let upto = if FIXED_SCAN { d } else { len };
        let seen = slots[..upto].iter().fold(false, |seen, &p| seen | (p == v));
        let keep = eligible & !seen;
        slots[len] = if keep { v } else { NO_NODE };
        len += keep as usize;
        attempts += counted as u64;
    }
    (len, attempts)
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

/// Sample `d` distinct candidate *indices* from `0..cnt` into `picks` (as
/// ids via `map`). `cnt ≥ 1`, and `map` must be injective (replica lists
/// and materialized pools hold distinct nodes), so rejecting a repeated
/// id rejects a repeated index. With `cnt ≤ d` the entire index range is
/// taken.
pub(crate) fn sample_by_index<R: Rng + ?Sized, F: Fn(u32) -> NodeId>(
    cnt: u32,
    d: u32,
    map: F,
    picks: &mut Vec<NodeId>,
    rng: &mut R,
) {
    picks.clear();
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
        // Rejection sampling against the ids drawn so far.
        while (picks.len() as u32) < d {
            let v = map(rng.gen_range(0..cnt));
            if !picks.contains(&v) {
                picks.push(v);
            }
        }
    }
}

#[cfg(test)]
mod pins;

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
            let out = sampler.draw(net, origin, file, r, 1, &mut picks, &mut rng, &NullRecorder);
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
    fn index_sampling_draws_more_than_sixteen_distinct_candidates() {
        // K=2, M=2 on a 10-torus: each file has about 75 replicas, more
        // than the 40 candidates asked for, and every one must be a
        // distinct replica holder.
        let net = net(10, 10, 2, 2);
        let file = (0..net.k())
            .max_by_key(|&f| net.placement().replica_count(f))
            .unwrap();
        let cnt = net.placement().replica_count(file);
        assert!(
            cnt > 40,
            "test regime needs more than 40 replicas, got {cnt}"
        );
        let mut picks = Vec::new();
        let mut rng = SmallRng::seed_from_u64(19);
        for _ in 0..200 {
            sample_by_index(
                cnt,
                40,
                |i| net.placement().replica_at(file, i),
                &mut picks,
                &mut rng,
            );
            assert_eq!(picks.len(), 40);
            let mut distinct = picks.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), 40, "repeated candidate in {picks:?}");
            assert!(picks.iter().all(|&v| net.placement().caches(v, file)));
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
