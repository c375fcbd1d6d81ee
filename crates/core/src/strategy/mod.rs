//! Request-assignment strategies.
//!
//! * [`NearestReplica`] — the paper's **Strategy I** (Definition 2):
//!   minimum communication cost, no load awareness.
//! * [`ProximityChoice`] — the paper's **Strategy II** (Definition 3):
//!   two uniform random replica holders within distance `r` of the origin,
//!   request joins the lesser-loaded; generalized to `d ≥ 1` choices
//!   (`d = 1` is the load-oblivious "random nearby replica" baseline, and
//!   `d = 2` with `radius = None` recovers the classic two-choice process
//!   when `M = K` — the paper's Example 1).

mod least_loaded;
mod nearest;
mod proximity;
mod sampler;
mod stale;

pub use least_loaded::LeastLoadedInBall;
pub use nearest::NearestReplica;
pub use proximity::ProximityChoice;
pub use sampler::SamplerKind;
pub use stale::StaleLoad;

use crate::metrics::FallbackKind;
use crate::network::CacheNetwork;
use crate::request::Request;
use paba_telemetry::{Counter, Recorder};
use paba_topology::{NodeId, Topology};
use rand::Rng;

/// The serving decision for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// The chosen server.
    pub server: NodeId,
    /// Hop distance from the request origin to `server`.
    pub hops: u32,
    /// Whether a fallback path produced this assignment.
    pub fallback: Option<FallbackKind>,
}

/// A sequential request-assignment strategy.
///
/// `assign` receives the current load vector (`loads[v]` = requests already
/// assigned to `v`) because Strategy II's decisions depend on it; Strategy
/// I ignores it. Strategies carry internal scratch buffers, hence
/// `&mut self`.
pub trait Strategy<T: Topology> {
    /// Decide the serving node for `req` given current `loads`.
    fn assign<R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        loads: &[u32],
        req: Request,
        rng: &mut R,
    ) -> Assignment;

    /// Human-readable strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Find the nearest replica of `file` to `origin` with **exact uniform
/// tie-breaking** (Definition 2's random tie rule). Returns the chosen
/// server and its distance, or `None` when the file has no replica.
///
/// Uses an expanding **row-band** search over the sorted replica list:
/// scan only the replicas whose row lies within `w` of the origin's
/// (a couple of binary searches plus a contiguous slice, courtesy of
/// row-major node ids — [`Topology::row_band`]), and stop once the best
/// distance found is `≤ w`, since everything outside the band is farther.
/// Doubling `w` from `≈ side/cnt` touches `O(√cnt)` expected replicas
/// instead of all `cnt` (the nearest replica sits at distance
/// `Θ(√(n/cnt))`, where the band holds `Θ(√cnt)` entries).
///
/// Each doubling beyond the initial estimate is recorded on `rec` as a
/// [`Counter::RowBandExpansion`] — a proxy for how often the density
/// estimate undershoots.
pub(crate) fn nearest_replica<T: Topology, R: Rng + ?Sized, Rec: Recorder>(
    net: &CacheNetwork<T>,
    origin: NodeId,
    file: u32,
    rng: &mut R,
    rec: &Rec,
) -> Option<(NodeId, u32)> {
    let placement = net.placement();
    let cnt = placement.replica_count(file);
    if cnt == 0 {
        return None;
    }
    if placement.is_full() {
        // Every node caches the file: the origin serves itself.
        return Some((origin, 0));
    }
    let topo = net.topo();
    let reps = placement
        .replica_list(file)
        .expect("sparse placement has explicit replica lists");
    let oc = topo.coord_of(origin);
    let full_range = Some((0, topo.n() - 1));
    // Start at the expected nearest distance Θ(√(n/cnt)), so the first
    // band usually already contains the winner.
    let mut w = (((topo.n() / cnt) as f64).sqrt() as u32).max(1);
    let mut expansions = 0u64;
    loop {
        let band = topo.row_band(oc, w);
        let mut best_d = u32::MAX;
        let mut ties = 0u32;
        let mut chosen = 0u32;
        for (lo, hi) in band.into_iter().flatten() {
            let a = sampler::interp_lower_bound(reps, lo, topo.n());
            let b = sampler::interp_lower_bound(reps, hi + 1, topo.n());
            for &v in &reps[a..b] {
                let d = topo.dist_from(oc, v);
                if d < best_d {
                    best_d = d;
                    ties = 1;
                    chosen = v;
                } else if d == best_d {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        chosen = v;
                    }
                }
            }
        }
        let complete = band[0] == full_range;
        if best_d != u32::MAX && (best_d <= w || complete) {
            // Unscanned nodes are at row distance > w ≥ best_d, hence
            // strictly farther: the winner (and its tie set) is global.
            if Rec::ENABLED && expansions > 0 {
                rec.count(Counter::RowBandExpansion, expansions);
            }
            return Some((chosen, best_d));
        }
        assert!(
            !complete,
            "replica_count > 0 but no replica found in the full band"
        );
        w = w.saturating_mul(2);
        if Rec::ENABLED {
            expansions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_popularity::Popularity;
    use paba_telemetry::NullRecorder;
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

    /// Brute-force nearest distance for cross-checking.
    fn brute_nearest_dist(net: &CacheNetwork<Torus>, origin: u32, file: u32) -> Option<u32> {
        let mut best = None;
        for v in 0..net.n() {
            if net.placement().caches(v, file) {
                let d = net.topo().dist(origin, v);
                best = Some(best.map_or(d, |b: u32| b.min(d)));
            }
        }
        best
    }

    #[test]
    fn nearest_matches_bruteforce_distance() {
        let net = net(1, 9, 30, 3);
        let mut rng = SmallRng::seed_from_u64(2);
        for origin in 0..net.n() {
            for file in 0..net.k() {
                let got = nearest_replica(&net, origin, file, &mut rng, &NullRecorder);
                let expect = brute_nearest_dist(&net, origin, file);
                match (got, expect) {
                    (None, None) => {}
                    (Some((server, d)), Some(bd)) => {
                        assert_eq!(d, bd, "origin={origin} file={file}");
                        assert!(net.placement().caches(server, file));
                        assert_eq!(net.topo().dist(origin, server), d);
                    }
                    other => panic!("mismatch {other:?} at origin={origin} file={file}"),
                }
            }
        }
    }

    #[test]
    fn nearest_band_search_agrees_on_dense_files() {
        // High replica count keeps the expanding band at width 1-2;
        // compare against a brute-force answer.
        let net = net(3, 12, 4, 3); // K=4 small → each file has ~100 replicas
        let mut rng = SmallRng::seed_from_u64(4);
        for origin in (0..net.n()).step_by(7) {
            for file in 0..net.k() {
                let cnt = net.placement().replica_count(file);
                if cnt == 0 {
                    continue;
                }
                let (_, d) = nearest_replica(&net, origin, file, &mut rng, &NullRecorder).unwrap();
                assert_eq!(Some(d), brute_nearest_dist(&net, origin, file));
            }
        }
    }

    #[test]
    fn nearest_tie_break_is_uniform() {
        // Construct a placement where file 0 sits at exactly two nodes
        // equidistant from the origin; both must be picked ~50/50.
        use crate::{Library, Placement, PlacementPolicy};
        let topo = Torus::new(5);
        let library = Library::new(2, Popularity::Uniform);
        // Build a custom placement by generating until file 0 has exactly
        // the two replicas we want is fiddly; instead use generate with a
        // distinct policy and locate any equidistant pair scenario.
        let mut rng = SmallRng::seed_from_u64(9);
        let placement = Placement::generate(
            25,
            &library,
            1,
            PlacementPolicy::ProportionalDistinct,
            &mut rng,
        );
        let net = CacheNetwork::from_parts(topo, library, placement);
        // Find an (origin, file) with ≥2 nearest ties.
        'outer: for origin in 0..net.n() {
            for file in 0..net.k() {
                let Some(best) = brute_nearest_dist(&net, origin, file) else {
                    continue;
                };
                let ties: Vec<u32> = (0..net.n())
                    .filter(|&v| {
                        net.placement().caches(v, file) && net.topo().dist(origin, v) == best
                    })
                    .collect();
                if ties.len() < 2 {
                    continue;
                }
                let mut counts = std::collections::HashMap::new();
                let trials = 4000;
                for _ in 0..trials {
                    let (srv, _) =
                        nearest_replica(&net, origin, file, &mut rng, &NullRecorder).unwrap();
                    *counts.entry(srv).or_insert(0u32) += 1;
                }
                let expect = trials as f64 / ties.len() as f64;
                for &t in &ties {
                    let c = counts.get(&t).copied().unwrap_or(0) as f64;
                    assert!(
                        (c - expect).abs() < 6.0 * expect.sqrt(),
                        "tie {t}: {c} vs {expect}"
                    );
                }
                break 'outer;
            }
        }
    }

    #[test]
    fn nearest_on_full_placement_is_origin() {
        use crate::{Library, Placement};
        let topo = Torus::new(6);
        let library = Library::new(9, Popularity::Uniform);
        let placement = Placement::full(36, 9);
        let net = CacheNetwork::from_parts(topo, library, placement);
        let mut rng = SmallRng::seed_from_u64(5);
        for origin in 0..net.n() {
            let (srv, d) = nearest_replica(&net, origin, 3, &mut rng, &NullRecorder).unwrap();
            assert_eq!(srv, origin);
            assert_eq!(d, 0);
        }
    }

    #[test]
    fn nearest_none_for_uncached_file() {
        // Tiny network, huge library: find an uncached file.
        let net = net(6, 3, 500, 1);
        let uncached = (0..net.k())
            .find(|&f| net.placement().replica_count(f) == 0)
            .expect("regime guarantees uncached files");
        let mut rng = SmallRng::seed_from_u64(6);
        assert!(nearest_replica(&net, 0, uncached, &mut rng, &NullRecorder).is_none());
    }
}
