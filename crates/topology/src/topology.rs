//! The [`Topology`] trait: the geometric interface the cache-network
//! strategies are generic over.
//!
//! Strategy code in `paba-core` only needs distances, neighborhood
//! enumeration, and uniform in-ball sampling; [`crate::Torus`] (the
//! paper's model) implements them.

use crate::coords::Coord;
use crate::NodeId;
use rand::Rng;

/// A finite 2D lattice topology with an integer hop metric.
///
/// All methods must be consistent: `for_each_in_ball(u, r)` visits exactly
/// the nodes `v` with `dist(u, v) ≤ r`, each once, and `ball_size_at`
/// counts them.
pub trait Topology: Clone + Send + Sync {
    /// Number of nodes.
    fn n(&self) -> u32;

    /// Side length of the underlying `side × side` lattice.
    fn side(&self) -> u32;

    /// Hop distance between two nodes.
    fn dist(&self, a: NodeId, b: NodeId) -> u32;

    /// Lattice coordinate of node `v`.
    ///
    /// Decode once, reuse many times: pair with [`Topology::dist_from`] on
    /// hot loops that measure one fixed origin against a stream of nodes.
    fn coord_of(&self, v: NodeId) -> Coord;

    /// Hop distance from an already-decoded coordinate to node `v`.
    ///
    /// Must satisfy `dist_from(coord_of(a), b) == dist(a, b)` for every
    /// pair of nodes. The point of taking a [`Coord`] instead of a
    /// [`NodeId`] is to let callers hoist the origin's div/mod coordinate
    /// decode out of per-candidate loops (replica scans, rejection
    /// sampling), where it otherwise dominates the distance check.
    fn dist_from(&self, from: Coord, v: NodeId) -> u32;

    /// Maximum distance between any two nodes.
    fn diameter(&self) -> u32;

    /// Number of nodes within distance `r` of `u` (including `u`).
    fn ball_size_at(&self, u: NodeId, r: u32) -> u64;

    /// Visit each node within distance `r` of `u` exactly once.
    fn for_each_in_ball<F: FnMut(NodeId)>(&self, u: NodeId, r: u32, f: F);

    /// Visit the maximal contiguous **node-id intervals** `[lo, hi]`
    /// (inclusive) that exactly cover `B_r(u)`, each node once.
    ///
    /// Node ids are row-major, so the ball is at most `2(2r + 1)`
    /// intervals. This lets callers intersect sorted node lists (e.g. a
    /// file's replica list) with a ball in `O(r log len)` binary searches
    /// plus contiguous reads, instead of `O(len)` or `O(|B_r|)`
    /// per-node membership checks.
    fn for_each_ball_id_range<F: FnMut(NodeId, NodeId)>(&self, u: NodeId, r: u32, f: F);

    /// The (at most two) maximal contiguous node-id ranges `[lo, hi]`
    /// covering every node whose row lies within distance `w` of `from`'s
    /// row. Must collapse to `[(0, n−1)]` once the band spans all rows —
    /// callers use that as the "everything scanned" terminator of
    /// expanding-band searches.
    fn row_band(&self, from: Coord, w: u32) -> [Option<(NodeId, NodeId)>; 2];

    /// Visit each node at distance exactly `d` from `u` exactly once.
    fn for_each_at_distance<F: FnMut(NodeId)>(&self, u: NodeId, d: u32, f: F);

    /// Visit each lattice neighbour (distance exactly 1) of `u` once.
    fn for_each_neighbor<F: FnMut(NodeId)>(&self, u: NodeId, f: F) {
        self.for_each_at_distance(u, 1, f);
    }

    /// Uniform random node within distance `r` of `u` (including `u`).
    fn sample_in_ball<R: Rng + ?Sized>(&self, u: NodeId, r: u32, rng: &mut R) -> NodeId;

    /// One proposal of [`Topology::sample_in_ball`]'s rejection loop from
    /// an already-decoded center `from`: the node its draws name and
    /// whether that node lies within distance `r` of `from`. Repeating it
    /// until the flag is set must consume the same draws and return the
    /// same node as `sample_in_ball` at `from`'s node, so a rejection loop
    /// that also tests the node against something else can decode the
    /// center once, make one trial per iteration and combine the flags
    /// without a branch.
    fn ball_trial<R: Rng + ?Sized>(&self, from: Coord, r: u32, rng: &mut R) -> (NodeId, bool);
}

impl Topology for crate::Torus {
    #[inline]
    fn n(&self) -> u32 {
        self.n()
    }

    #[inline]
    fn side(&self) -> u32 {
        self.side()
    }

    #[inline]
    fn dist(&self, a: NodeId, b: NodeId) -> u32 {
        self.dist(a, b)
    }

    #[inline]
    fn coord_of(&self, v: NodeId) -> Coord {
        self.coord(v)
    }

    #[inline]
    fn dist_from(&self, from: Coord, v: NodeId) -> u32 {
        self.dist_from(from, v)
    }

    #[inline]
    fn diameter(&self) -> u32 {
        self.diameter()
    }

    #[inline]
    fn ball_size_at(&self, _u: NodeId, r: u32) -> u64 {
        self.ball_size(r) // vertex-transitive: independent of u
    }

    #[inline]
    fn for_each_in_ball<F: FnMut(NodeId)>(&self, u: NodeId, r: u32, f: F) {
        self.for_each_in_ball(u, r, f)
    }

    #[inline]
    fn for_each_ball_id_range<F: FnMut(NodeId, NodeId)>(&self, u: NodeId, r: u32, f: F) {
        self.for_each_ball_id_range(u, r, f)
    }

    #[inline]
    fn row_band(&self, from: Coord, w: u32) -> [Option<(NodeId, NodeId)>; 2] {
        self.row_band(from, w)
    }

    #[inline]
    fn for_each_at_distance<F: FnMut(NodeId)>(&self, u: NodeId, d: u32, f: F) {
        self.for_each_at_distance(u, d, f)
    }

    #[inline]
    fn sample_in_ball<R: Rng + ?Sized>(&self, u: NodeId, r: u32, rng: &mut R) -> NodeId {
        self.sample_in_ball(u, r, rng)
    }

    #[inline(always)]
    fn ball_trial<R: Rng + ?Sized>(&self, from: Coord, r: u32, rng: &mut R) -> (NodeId, bool) {
        self.ball_trial(from, r, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Generic consistency check usable with any Topology implementation.
    fn check_consistency<T: Topology>(t: &T) {
        let mut rng = SmallRng::seed_from_u64(11);
        for u in [0u32, t.n() / 3, t.n() - 1] {
            let cu = t.coord_of(u);
            for r in [0u32, 1, 2, t.side(), t.diameter()] {
                let mut count = 0u64;
                t.for_each_in_ball(u, r, |v| {
                    assert!(t.dist(u, v) <= r);
                    assert_eq!(t.dist_from(cu, v), t.dist(u, v), "dist_from mismatch");
                    count += 1;
                });
                assert_eq!(count, t.ball_size_at(u, r), "ball size mismatch");
                // Id-interval decomposition covers the same ball exactly.
                let mut from_ranges: Vec<NodeId> = Vec::new();
                t.for_each_ball_id_range(u, r, |lo, hi| {
                    assert!(lo <= hi, "u={u} r={r}: inverted range [{lo}, {hi}]");
                    from_ranges.extend(lo..=hi);
                });
                let mut from_ball: Vec<NodeId> = Vec::new();
                t.for_each_in_ball(u, r, |v| from_ball.push(v));
                from_ranges.sort_unstable();
                from_ball.sort_unstable();
                assert_eq!(from_ranges, from_ball, "u={u} r={r}: range decomposition");
                // Row bands cover exactly the nodes within row-distance r.
                let in_band: Vec<NodeId> = t
                    .row_band(cu, r)
                    .into_iter()
                    .flatten()
                    .flat_map(|(lo, hi)| lo..=hi)
                    .collect();
                let expect_band: Vec<NodeId> = (0..t.n())
                    .filter(|&v| {
                        let cv = t.coord_of(v);
                        // Row distance: project out the x axis entirely.
                        t.dist_from(Coord::new(cv.x, cu.y), v) <= r
                    })
                    .collect();
                let mut got_band = in_band.clone();
                got_band.sort_unstable();
                assert_eq!(got_band, expect_band, "u={u} w={r}: row band");
                // ring nodes are exactly at distance d
                t.for_each_at_distance(u, r, |v| {
                    assert_eq!(t.dist(u, v), r);
                });
                let v = t.sample_in_ball(u, r, &mut rng);
                assert!(t.dist(u, v) <= r);
                loop {
                    let (v, inside) = t.ball_trial(cu, r, &mut rng);
                    assert_eq!(inside, t.dist(u, v) <= r, "ball_trial flag, u={u} r={r}");
                    if inside {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn torus_satisfies_trait_contract() {
        check_consistency(&Torus::new(7));
        check_consistency(&Torus::new(4));
    }
}
