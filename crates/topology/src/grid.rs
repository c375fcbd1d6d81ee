//! The bounded `side × side` grid (no wraparound).
//!
//! The paper's Remark 1 states all torus asymptotics carry over to the
//! bounded grid; we implement the grid so the claim can be checked
//! empirically (`CacheNetworkBuilder::build_grid`).

use crate::coords::Coord;
use crate::NodeId;
use rand::Rng;

/// A 2D bounded grid with `side × side` nodes and the L1 metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    side: u32,
    n: u32,
}

impl Grid {
    /// Create a grid with the given side length.
    ///
    /// # Panics
    /// If `side` is zero or exceeds [`crate::Torus::MAX_SIDE`].
    pub fn new(side: u32) -> Self {
        assert!(side >= 1, "grid side must be positive");
        assert!(
            side <= crate::Torus::MAX_SIDE,
            "grid side {side} exceeds MAX_SIDE"
        );
        Self {
            side,
            n: side * side,
        }
    }

    /// Create a grid with `n` nodes; `n` must be a perfect square.
    pub fn from_nodes(n: u32) -> Self {
        // Compare in u64: near u32::MAX the rounded square root is 65536
        // and `side * side` would wrap to 0 in u32 arithmetic.
        let side = (n as f64).sqrt().round() as u64;
        assert!(
            side >= 1 && side * side == n as u64,
            "n={n} is not a positive perfect square"
        );
        Self::new(side as u32)
    }

    /// Side length.
    #[inline]
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Graph diameter: `2(side−1)`.
    #[inline]
    pub fn diameter(&self) -> u32 {
        2 * (self.side - 1)
    }

    /// Coordinate of node `v`.
    #[inline]
    pub fn coord(&self, v: NodeId) -> Coord {
        debug_assert!(v < self.n);
        Coord::new(v % self.side, v / self.side)
    }

    /// Node at coordinate `c`.
    #[inline]
    pub fn node(&self, c: Coord) -> NodeId {
        debug_assert!(c.x < self.side && c.y < self.side);
        c.y * self.side + c.x
    }

    /// L1 hop distance.
    #[inline]
    pub fn dist(&self, a: NodeId, b: NodeId) -> u32 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)
    }

    /// Hop distance from an already-decoded coordinate `from` to node `v`;
    /// see [`crate::Torus::dist_from`] for the rationale.
    #[inline]
    pub fn dist_from(&self, from: Coord, v: NodeId) -> u32 {
        let cv = self.coord(v);
        from.x.abs_diff(cv.x) + from.y.abs_diff(cv.y)
    }

    /// Size of `B_r(u)` — position-dependent on a bounded grid.
    pub fn ball_size_at(&self, u: NodeId, r: u32) -> u64 {
        let c = self.coord(u);
        let side = self.side as i64;
        let (cx, cy) = (c.x as i64, c.y as i64);
        let ri = r as i64;
        let mut total = 0u64;
        let x_lo = (cx - ri).max(0);
        let x_hi = (cx + ri).min(side - 1);
        for x in x_lo..=x_hi {
            let budget = ri - (x - cx).abs();
            let y_lo = (cy - budget).max(0);
            let y_hi = (cy + budget).min(side - 1);
            total += (y_hi - y_lo + 1) as u64;
        }
        total
    }

    /// Visit every node of `B_r(u)` exactly once (including `u`).
    pub fn for_each_in_ball<F: FnMut(NodeId)>(&self, u: NodeId, r: u32, mut f: F) {
        let c = self.coord(u);
        let side = self.side as i64;
        let (cx, cy) = (c.x as i64, c.y as i64);
        let ri = r as i64;
        for x in (cx - ri).max(0)..=(cx + ri).min(side - 1) {
            let budget = ri - (x - cx).abs();
            for y in (cy - budget).max(0)..=(cy + budget).min(side - 1) {
                f(self.node(Coord::new(x as u32, y as u32)));
            }
        }
    }

    /// Visit every node at distance exactly `d` from `u` exactly once.
    pub fn for_each_at_distance<F: FnMut(NodeId)>(&self, u: NodeId, d: u32, mut f: F) {
        if d == 0 {
            f(u);
            return;
        }
        let c = self.coord(u);
        let side = self.side as i64;
        let (cx, cy) = (c.x as i64, c.y as i64);
        let di = d as i64;
        for dx in -di..=di {
            let x = cx + dx;
            if !(0..side).contains(&x) {
                continue;
            }
            let rem = di - dx.abs();
            let y = cy + rem;
            if (0..side).contains(&y) {
                f(self.node(Coord::new(x as u32, y as u32)));
            }
            if rem > 0 {
                let y = cy - rem;
                if (0..side).contains(&y) {
                    f(self.node(Coord::new(x as u32, y as u32)));
                }
            }
        }
    }

    /// Visit the maximal contiguous **node-id intervals** `[lo, hi]`
    /// (inclusive) that exactly cover `B_r(u)` — one interval per lattice
    /// row on the bounded grid (no wraparound seams); see
    /// [`crate::Torus::for_each_ball_id_range`] for the rationale.
    pub fn for_each_ball_id_range<F: FnMut(NodeId, NodeId)>(&self, u: NodeId, r: u32, mut f: F) {
        let c = self.coord(u);
        let side = self.side as i64;
        let (cx, cy) = (c.x as i64, c.y as i64);
        let ri = r as i64;
        for y in (cy - ri).max(0)..=(cy + ri).min(side - 1) {
            let budget = ri - (y - cy).abs();
            let x_lo = (cx - budget).max(0);
            let x_hi = (cx + budget).min(side - 1);
            let row = y as u32 * self.side;
            f(row + x_lo as u32, row + x_hi as u32);
        }
    }

    /// The single maximal contiguous node-id range covering every node
    /// whose row lies within distance `w` of `from`'s row; see
    /// [`crate::Torus::row_band`]. Returned as a two-slot array to match
    /// the torus signature (the second slot is always `None` here).
    pub fn row_band(&self, from: Coord, w: u32) -> [Option<(NodeId, NodeId)>; 2] {
        let ylo = from.y.saturating_sub(w);
        let yhi = from.y.saturating_add(w).min(self.side - 1);
        [Some((ylo * self.side, (yhi + 1) * self.side - 1)), None]
    }

    /// Collect `B_r(u)` into a vector.
    pub fn ball_nodes(&self, u: NodeId, r: u32) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.ball_size_at(u, r) as usize);
        self.for_each_in_ball(u, r, |v| out.push(v));
        out
    }

    /// Uniform random node of `B_r(u)` via diamond rejection with clipping.
    pub fn sample_in_ball<R: Rng + ?Sized>(&self, u: NodeId, r: u32, rng: &mut R) -> NodeId {
        self.sample_in_ball_from(self.coord(u), r, rng)
    }

    /// [`Grid::sample_in_ball`] from an already-decoded center coordinate
    /// (skips the per-call div/mod decode on rejection-sampling loops).
    pub fn sample_in_ball_from<R: Rng + ?Sized>(&self, c: Coord, r: u32, rng: &mut R) -> NodeId {
        if r == 0 || self.n == 1 {
            return self.node(c);
        }
        if r >= self.diameter() {
            return rng.gen_range(0..self.n);
        }
        let side = self.side as i64;
        let (cx, cy) = (c.x as i64, c.y as i64);
        let ri = r as i64;
        // Rejection from the clipped bounding box; acceptance ≥ ~1/4 even
        // in a corner, so expected work stays O(1).
        let x_lo = (cx - ri).max(0);
        let x_hi = (cx + ri).min(side - 1);
        let y_lo = (cy - ri).max(0);
        let y_hi = (cy + ri).min(side - 1);
        loop {
            let x = rng.gen_range(x_lo..=x_hi);
            let y = rng.gen_range(y_lo..=y_hi);
            if (x - cx).abs() + (y - cy).abs() <= ri {
                return self.node(Coord::new(x as u32, y as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn brute_ball(g: &Grid, u: NodeId, r: u32) -> Vec<NodeId> {
        (0..g.n()).filter(|&v| g.dist(u, v) <= r).collect()
    }

    #[test]
    fn metric_axioms() {
        let g = Grid::new(5);
        for a in 0..g.n() {
            assert_eq!(g.dist(a, a), 0);
            for b in 0..g.n() {
                assert_eq!(g.dist(a, b), g.dist(b, a));
                for c in 0..g.n() {
                    assert!(g.dist(a, c) <= g.dist(a, b) + g.dist(b, c));
                }
            }
        }
    }

    #[test]
    fn no_wraparound() {
        let g = Grid::new(10);
        let left = g.node(Coord::new(0, 0));
        let right = g.node(Coord::new(9, 0));
        assert_eq!(g.dist(left, right), 9); // torus would give 1
    }

    #[test]
    fn ball_matches_bruteforce_everywhere() {
        let g = Grid::new(6);
        for u in 0..g.n() {
            for r in 0..=12 {
                let mut got = g.ball_nodes(u, r);
                got.sort_unstable();
                assert_eq!(got, brute_ball(&g, u, r), "u={u} r={r}");
                assert_eq!(g.ball_size_at(u, r), got.len() as u64);
            }
        }
    }

    #[test]
    fn corner_balls_are_smaller_than_center_balls() {
        let g = Grid::new(9);
        let corner = g.node(Coord::new(0, 0));
        let center = g.node(Coord::new(4, 4));
        for r in 1..=4 {
            assert!(g.ball_size_at(corner, r) < g.ball_size_at(center, r));
        }
    }

    #[test]
    fn ring_matches_bruteforce() {
        let g = Grid::new(6);
        for u in 0..g.n() {
            for d in 0..=12u32 {
                let mut got = Vec::new();
                g.for_each_at_distance(u, d, |v| got.push(v));
                got.sort_unstable();
                let expect: Vec<NodeId> = (0..g.n()).filter(|&v| g.dist(u, v) == d).collect();
                assert_eq!(got, expect, "u={u} d={d}");
            }
        }
    }

    #[test]
    fn sample_in_ball_in_corner() {
        let g = Grid::new(8);
        let mut rng = SmallRng::seed_from_u64(5);
        let corner = 0;
        let ball: std::collections::HashSet<NodeId> = g.ball_nodes(corner, 3).into_iter().collect();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3000 {
            let v = g.sample_in_ball(corner, 3, &mut rng);
            assert!(ball.contains(&v));
            seen.insert(v);
        }
        assert_eq!(seen.len(), ball.len());
    }

    #[test]
    fn diameter_value() {
        assert_eq!(Grid::new(10).diameter(), 18);
        assert_eq!(Grid::new(1).diameter(), 0);
    }
}
