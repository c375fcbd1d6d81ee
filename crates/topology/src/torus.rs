//! The `√n × √n` torus: the paper's network model (§II-B, Remark 1).
//!
//! Nodes are lattice points with wrap-around in both axes; the hop metric is
//! L1 with per-axis wrapping. All neighborhood operations here are *exact*
//! for every radius, including the self-wrapping regime `2r ≥ side` (needed
//! because the experiments sweep `r` all the way to "no proximity
//! constraint", which the paper writes as `r = ∞ ≡ √n`).

use crate::coords::{residues_at, residues_within, wrap_offset, wrapped_delta, Coord};
use crate::NodeId;
use rand::Rng;

/// A 2D torus with `side × side` nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus {
    side: u32,
    n: u32,
}

impl Torus {
    /// Largest supported side length (`side² ≤ u32::MAX`).
    pub const MAX_SIDE: u32 = 46_340;

    /// Create a torus with the given side length.
    ///
    /// # Panics
    /// If `side` is zero or exceeds [`Torus::MAX_SIDE`].
    pub fn new(side: u32) -> Self {
        assert!(side >= 1, "torus side must be positive");
        assert!(
            side <= Self::MAX_SIDE,
            "torus side {side} exceeds MAX_SIDE {}",
            Self::MAX_SIDE
        );
        Self {
            side,
            n: side * side,
        }
    }

    /// Create a torus with `n` nodes; `n` must be a perfect square.
    ///
    /// # Panics
    /// If `n` is not a positive perfect square.
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

    /// Side length `√n`.
    #[inline]
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Number of nodes `n = side²`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Graph diameter: `2⌊side/2⌋`.
    #[inline]
    pub fn diameter(&self) -> u32 {
        2 * (self.side / 2)
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

    /// Hop distance: per-axis wrapped L1 metric.
    #[inline]
    pub fn dist(&self, a: NodeId, b: NodeId) -> u32 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        wrapped_delta(ca.x, cb.x, self.side) + wrapped_delta(ca.y, cb.y, self.side)
    }

    /// Hop distance from an already-decoded coordinate `from` to node `v`.
    ///
    /// Equivalent to `dist(node(from), v)` but skips re-deriving `from`'s
    /// coordinate (a div + mod) — the win on loops that compare one fixed
    /// origin against many nodes.
    #[inline]
    pub fn dist_from(&self, from: Coord, v: NodeId) -> u32 {
        let cv = self.coord(v);
        wrapped_delta(from.x, cv.x, self.side) + wrapped_delta(from.y, cv.y, self.side)
    }

    /// Node reached from `v` by the (possibly negative, possibly large)
    /// lattice offset `(dx, dy)`, wrapping both axes.
    #[inline]
    pub fn offset(&self, v: NodeId, dx: i64, dy: i64) -> NodeId {
        let c = self.coord(v);
        let x = wrap_offset(c.x, dx, self.side);
        let y = wrap_offset(c.y, dy, self.side);
        self.node(Coord::new(x, y))
    }

    /// The four lattice neighbours of `v` (with duplicates on degenerate
    /// tori of side 1 or 2 — the multigraph view).
    #[inline]
    pub fn neighbors4(&self, v: NodeId) -> [NodeId; 4] {
        [
            self.offset(v, 1, 0),
            self.offset(v, -1, 0),
            self.offset(v, 0, 1),
            self.offset(v, 0, -1),
        ]
    }

    /// `|B_r(u)|`: number of nodes within distance `r` of any node
    /// (vertex-transitive, so it does not depend on `u`).
    ///
    /// Equals `2r(r+1) + 1` whenever `2r + 1 ≤ side` (paper's `Θ(r²)`), and
    /// saturates at `n` once `r ≥ diameter`.
    pub fn ball_size(&self, r: u32) -> u64 {
        let half = self.side / 2;
        let mut total = 0u64;
        for w in 0..=r.min(half) {
            let budget = r - w;
            total += residues_at(w, self.side) as u64 * residues_within(budget, self.side) as u64;
        }
        total
    }

    /// Number of nodes at distance exactly `d` from any node.
    ///
    /// Equals `4d` for `1 ≤ d` with `2d + 1 ≤ side`; `1` for `d = 0`.
    pub fn ring_size(&self, d: u32) -> u64 {
        let half = self.side / 2;
        let mut total = 0u64;
        for w in 0..=d.min(half) {
            let t = d - w;
            total += residues_at(w, self.side) as u64 * residues_at(t, self.side) as u64;
        }
        total
    }

    /// Visit every node of `B_r(u)` exactly once (including `u` itself).
    ///
    /// Allocation-free; correct for all radii (handles axis self-wrap).
    pub fn for_each_in_ball<F: FnMut(NodeId)>(&self, u: NodeId, r: u32, mut f: F) {
        let c = self.coord(u);
        let side = self.side;
        let half = side / 2;
        for w in 0..=r.min(half) {
            let budget = r - w;
            let xs = self.axis_residues(c.x, w);
            for x in xs.into_iter().flatten() {
                self.for_each_y_within(x, c.y, budget, &mut f);
            }
        }
    }

    /// Visit every node at distance exactly `d` from `u` exactly once.
    pub fn for_each_at_distance<F: FnMut(NodeId)>(&self, u: NodeId, d: u32, mut f: F) {
        let c = self.coord(u);
        let half = self.side / 2;
        for w in 0..=d.min(half) {
            let t = d - w;
            if residues_at(t, self.side) == 0 {
                continue;
            }
            let xs = self.axis_residues(c.x, w);
            for x in xs.into_iter().flatten() {
                let ys = self.axis_residues(c.y, t);
                for y in ys.into_iter().flatten() {
                    f(self.node(Coord::new(x, y)));
                }
            }
        }
    }

    /// Visit the maximal contiguous **node-id intervals** `[lo, hi]`
    /// (inclusive) that exactly cover `B_r(u)`, each node once.
    ///
    /// Node ids are row-major (`id = y·side + x`), so each lattice row's
    /// slice of the ball is one id interval (two when the x-window wraps);
    /// the ball decomposes into at most `2(2r + 1)` intervals. Sorted
    /// per-file replica lists can therefore be intersected with a ball via
    /// `O(r)` binary searches plus contiguous reads instead of a
    /// per-node membership scan — the backbone of the assignment-path
    /// window sampler in `paba-core`.
    pub fn for_each_ball_id_range<F: FnMut(NodeId, NodeId)>(&self, u: NodeId, r: u32, mut f: F) {
        let c = self.coord(u);
        let side = self.side;
        let half = side / 2;
        for w in 0..=r.min(half) {
            let budget = r - w;
            let ys = self.axis_residues(c.y, w);
            for y in ys.into_iter().flatten() {
                let row = y * side;
                if 2 * budget as u64 + 1 >= side as u64 {
                    f(row, row + side - 1);
                    continue;
                }
                let xlo = wrap_offset(c.x, -(budget as i64), side);
                let xhi = wrap_offset(c.x, budget as i64, side);
                if xlo <= xhi {
                    f(row + xlo, row + xhi);
                } else {
                    // x-window wraps the seam: two disjoint intervals.
                    f(row, row + xhi);
                    f(row + xlo, row + side - 1);
                }
            }
        }
    }

    /// The (at most two) maximal contiguous node-id ranges `[lo, hi]`
    /// covering every node whose **row** lies within wrapped distance `w`
    /// of `from`'s row — the whole torus collapses to `[(0, n−1)]` once
    /// `2w + 1 ≥ side`.
    ///
    /// Used by the expanding-band nearest-replica search: replicas outside
    /// the band are at distance `> w`, so a best-so-far `≤ w` is globally
    /// optimal.
    pub fn row_band(&self, from: Coord, w: u32) -> [Option<(NodeId, NodeId)>; 2] {
        let side = self.side;
        if 2 * w as u64 + 1 >= side as u64 {
            return [Some((0, self.n - 1)), None];
        }
        let ylo = wrap_offset(from.y, -(w as i64), side);
        let yhi = wrap_offset(from.y, w as i64, side);
        if ylo <= yhi {
            [Some((ylo * side, (yhi + 1) * side - 1)), None]
        } else {
            [
                Some((0, (yhi + 1) * side - 1)),
                Some((ylo * side, self.n - 1)),
            ]
        }
    }

    /// Collect `B_r(u)` into a vector (testing / analysis convenience).
    pub fn ball_nodes(&self, u: NodeId, r: u32) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.ball_size(r) as usize);
        self.for_each_in_ball(u, r, |v| out.push(v));
        out
    }

    /// Collect the distance-`d` ring around `u` into a vector.
    pub fn ring_nodes(&self, u: NodeId, d: u32) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.ring_size(d) as usize);
        self.for_each_at_distance(u, d, |v| out.push(v));
        out
    }

    /// Uniform random node of `B_r(u)` (including `u`).
    ///
    /// [`Torus::sample_in_ball_from`] at `u`'s coordinate.
    pub fn sample_in_ball<R: Rng + ?Sized>(&self, u: NodeId, r: u32, rng: &mut R) -> NodeId {
        self.sample_in_ball_from(self.coord(u), r, rng)
    }

    /// Uniform random node of `B_r(c)` for an already-decoded center
    /// coordinate: [`Torus::ball_trial`] until a trial lands in the ball.
    ///
    /// Expected work is O(1) for every radius: diamond rejection from the
    /// enclosing square in the non-wrapping regime (acceptance ≈ ½), and
    /// whole-torus rejection once the ball covers at least ~half the
    /// torus.
    pub fn sample_in_ball_from<R: Rng + ?Sized>(&self, c: Coord, r: u32, rng: &mut R) -> NodeId {
        loop {
            let (v, inside) = self.ball_trial(c, r, rng);
            if inside {
                return v;
            }
        }
    }

    /// One proposal of [`Torus::sample_in_ball_from`]'s rejection loop:
    /// the node its draws name, and whether that node lies in `B_r(c)`.
    ///
    /// A proposal draws nothing when the ball is `c` alone (`r = 0` or a
    /// one-node torus) and always lands. In the diamond regime `2r < side`
    /// it draws `dx` then `dy` uniformly from `[−r, r]` and lands iff
    /// `|dx| + |dy| ≤ r`; since `|dx|, |dy| ≤ r < side`, a compare-and-add
    /// wraps each axis, and the named node is a valid id either way.
    /// Otherwise it draws one uniform node of the whole torus and lands iff
    /// that node is within `r` of `c` (always, once the ball is the whole
    /// torus). Rejection loops that also test the node against something
    /// else (cache membership) combine the two flags without a branch.
    #[inline(always)]
    pub fn ball_trial<R: Rng + ?Sized>(&self, c: Coord, r: u32, rng: &mut R) -> (NodeId, bool) {
        if r == 0 || self.n == 1 {
            return (self.node(c), true);
        }
        if 2 * r as u64 >= self.side as u64 {
            let v = rng.gen_range(0..self.n);
            return (v, self.dist_from(c, v) <= r);
        }
        let (side, ri) = (self.side as i64, r as i64);
        let dx = rng.gen_range(-ri..=ri);
        let dy = rng.gen_range(-ri..=ri);
        let x = wrap_once(c.x as i64 + dx, side);
        let y = wrap_once(c.y as i64 + dy, side);
        (y as u32 * self.side + x as u32, dx.abs() + dy.abs() <= ri)
    }

    /// Exact mean hop distance between a uniform ordered pair of nodes.
    ///
    /// This is the communication cost of serving every request from a
    /// uniformly random server — the `Θ(√n)` reference line of Figure 4.
    pub fn mean_pair_distance(&self) -> f64 {
        // Independent per axis: E[d] = 2 · E[wrapped_delta].
        let s = self.side as u64;
        let mut sum = 0u64;
        for o in 0..self.side {
            sum += wrapped_delta(0, o, self.side) as u64;
        }
        2.0 * (sum as f64 / s as f64)
    }

    /// The (one or two) x/y-axis residues at wrapped distance exactly `w`
    /// from residue `a`. Returned as two options to stay allocation-free.
    #[inline]
    fn axis_residues(&self, a: u32, w: u32) -> [Option<u32>; 2] {
        match residues_at(w, self.side) {
            0 => [None, None],
            1 => [Some(wrap_offset(a, w as i64, self.side)), None],
            _ => [
                Some(wrap_offset(a, w as i64, self.side)),
                Some(wrap_offset(a, -(w as i64), self.side)),
            ],
        }
    }

    /// Visit all nodes with x-coordinate `x` whose y-coordinate is within
    /// wrapped distance `b` of `cy`.
    #[inline]
    fn for_each_y_within<F: FnMut(NodeId)>(&self, x: u32, cy: u32, b: u32, f: &mut F) {
        let side = self.side;
        if 2 * b as u64 + 1 >= side as u64 {
            for y in 0..side {
                f(self.node(Coord::new(x, y)));
            }
            return;
        }
        let bi = b as i64;
        for dy in -bi..=bi {
            let y = wrap_offset(cy, dy, side);
            f(self.node(Coord::new(x, y)));
        }
    }
}

/// `v mod side` for `v ∈ (−side, 2·side)`: one compare-and-add per bound.
#[inline]
fn wrap_once(v: i64, side: i64) -> i64 {
    if v < 0 {
        v + side
    } else if v >= side {
        v - side
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn brute_ball(t: &Torus, u: NodeId, r: u32) -> Vec<NodeId> {
        (0..t.n()).filter(|&v| t.dist(u, v) <= r).collect()
    }

    fn brute_ring(t: &Torus, u: NodeId, d: u32) -> Vec<NodeId> {
        (0..t.n()).filter(|&v| t.dist(u, v) == d).collect()
    }

    #[test]
    fn construction_and_indexing() {
        let t = Torus::new(5);
        assert_eq!(t.n(), 25);
        assert_eq!(t.side(), 5);
        for v in 0..t.n() {
            assert_eq!(t.node(t.coord(v)), v);
        }
    }

    #[test]
    fn from_nodes_accepts_squares() {
        assert_eq!(Torus::from_nodes(2025).side(), 45);
        assert_eq!(Torus::from_nodes(1).side(), 1);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn from_nodes_rejects_non_squares() {
        let _ = Torus::from_nodes(2026);
    }

    #[test]
    fn metric_axioms_small_tori() {
        for side in 1..=6u32 {
            let t = Torus::new(side);
            for a in 0..t.n() {
                assert_eq!(t.dist(a, a), 0);
                for b in 0..t.n() {
                    assert_eq!(t.dist(a, b), t.dist(b, a));
                    if a != b {
                        assert!(t.dist(a, b) > 0);
                    }
                    for c in 0..t.n() {
                        assert!(t.dist(a, c) <= t.dist(a, b) + t.dist(b, c));
                    }
                }
            }
        }
    }

    #[test]
    fn distance_bounded_by_diameter() {
        for side in 1..=8u32 {
            let t = Torus::new(side);
            let max = (0..t.n())
                .flat_map(|a| (0..t.n()).map(move |b| (a, b)))
                .map(|(a, b)| t.dist(a, b))
                .max()
                .unwrap();
            assert_eq!(max, t.diameter(), "side={side}");
        }
    }

    #[test]
    fn ball_enumeration_matches_bruteforce_all_radii() {
        for side in 1..=7u32 {
            let t = Torus::new(side);
            for u in [0, t.n() / 2, t.n() - 1] {
                for r in 0..=(2 * side) {
                    let mut got = t.ball_nodes(u, r);
                    got.sort_unstable();
                    let expect = brute_ball(&t, u, r);
                    assert_eq!(got, expect, "side={side} u={u} r={r}");
                    assert_eq!(
                        t.ball_size(r),
                        expect.len() as u64,
                        "size side={side} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_enumeration_matches_bruteforce_all_radii() {
        for side in 1..=7u32 {
            let t = Torus::new(side);
            for u in [0, t.n() - 1] {
                for d in 0..=(2 * side) {
                    let mut got = t.ring_nodes(u, d);
                    got.sort_unstable();
                    let expect = brute_ring(&t, u, d);
                    assert_eq!(got, expect, "side={side} u={u} d={d}");
                    assert_eq!(t.ring_size(d), expect.len() as u64);
                }
            }
        }
    }

    #[test]
    fn ball_size_formula_in_nonwrapping_regime() {
        // |B_r| = 2r(r+1)+1 whenever 2r+1 ≤ side (paper §II / Lemma 3).
        for side in [9u32, 15, 45] {
            let t = Torus::new(side);
            for r in 0..=(side - 1) / 2 {
                assert_eq!(
                    t.ball_size(r),
                    2 * r as u64 * (r as u64 + 1) + 1,
                    "side={side} r={r}"
                );
            }
        }
    }

    #[test]
    fn ring_size_is_4d_in_nonwrapping_regime() {
        let t = Torus::new(31);
        assert_eq!(t.ring_size(0), 1);
        for d in 1..=15 {
            assert_eq!(t.ring_size(d), 4 * d as u64);
        }
    }

    #[test]
    fn ball_saturates_at_n() {
        let t = Torus::new(6);
        assert_eq!(t.ball_size(t.diameter()), t.n() as u64);
        assert_eq!(t.ball_size(100), t.n() as u64);
        let all = t.ball_nodes(3, 100);
        assert_eq!(all.len(), t.n() as usize);
    }

    #[test]
    fn neighbors4_at_distance_one() {
        let t = Torus::new(5);
        for v in 0..t.n() {
            for w in t.neighbors4(v) {
                assert_eq!(t.dist(v, w), 1);
            }
        }
    }

    #[test]
    fn offset_wraps_correctly() {
        let t = Torus::new(4);
        let v = t.node(Coord::new(0, 0));
        assert_eq!(t.coord(t.offset(v, -1, -1)), Coord::new(3, 3));
        assert_eq!(t.coord(t.offset(v, 9, 2)), Coord::new(1, 2));
    }

    #[test]
    fn sample_in_ball_stays_in_ball_and_covers_it() {
        let t = Torus::new(9);
        let mut rng = SmallRng::seed_from_u64(42);
        for r in [0u32, 1, 2, 4, 5, 8, 20] {
            let u = 40;
            let ball: std::collections::HashSet<NodeId> = t.ball_nodes(u, r).into_iter().collect();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..2000 {
                let v = t.sample_in_ball(u, r, &mut rng);
                assert!(ball.contains(&v), "r={r} sampled outside ball");
                seen.insert(v);
            }
            assert_eq!(seen.len(), ball.len(), "r={r}: sampler missed nodes");
        }
    }

    #[test]
    fn sample_in_ball_is_roughly_uniform() {
        let t = Torus::new(15);
        let mut rng = SmallRng::seed_from_u64(7);
        let u = 0;
        let r = 3;
        let ball = t.ball_nodes(u, r);
        let trials = 50_000usize;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            *counts
                .entry(t.sample_in_ball(u, r, &mut rng))
                .or_insert(0usize) += 1;
        }
        let expect = trials as f64 / ball.len() as f64;
        for v in ball {
            let c = counts.get(&v).copied().unwrap_or(0) as f64;
            assert!(
                (c - expect).abs() < 5.0 * expect.sqrt() + 1.0,
                "node {v}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn sample_in_ball_from_is_roughly_uniform() {
        let t = Torus::new(15);
        let mut rng = SmallRng::seed_from_u64(9);
        let u = 31;
        let c = t.coord(u);
        for r in [2u32, 4, 7, 12, 20] {
            let ball = t.ball_nodes(u, r);
            let trials = 4_000 * ball.len();
            let mut counts = std::collections::HashMap::new();
            for _ in 0..trials {
                *counts
                    .entry(t.sample_in_ball_from(c, r, &mut rng))
                    .or_insert(0usize) += 1;
            }
            let expect = trials as f64 / ball.len() as f64;
            for v in ball {
                let got = counts.get(&v).copied().unwrap_or(0) as f64;
                assert!(
                    (got - expect).abs() < 5.0 * expect.sqrt() + 1.0,
                    "r={r} node {v}: {got} vs {expect}"
                );
            }
        }
    }

    /// `sample_in_ball` as first written: diamond rejection through the
    /// `rem_euclid` wrap of `offset`, a `ball_size` check, then
    /// whole-torus rejection. Kept as the oracle of the draw sequence.
    fn reference_sample(t: &Torus, u: NodeId, r: u32, rng: &mut SmallRng) -> NodeId {
        if r == 0 || t.n() == 1 {
            return u;
        }
        if (2 * r as u64) < t.side() as u64 {
            let ri = r as i64;
            loop {
                let dx = rng.gen_range(-ri..=ri);
                let dy = rng.gen_range(-ri..=ri);
                if dx.abs() + dy.abs() <= ri {
                    return t.offset(u, dx, dy);
                }
            }
        }
        if t.ball_size(r) == t.n() as u64 {
            return rng.gen_range(0..t.n());
        }
        loop {
            let v = rng.gen_range(0..t.n());
            if t.dist(u, v) <= r {
                return v;
            }
        }
    }

    #[test]
    fn ball_trial_loop_matches_both_samplers_draw_for_draw() {
        // r = 0, the diamond regime, whole-torus rejection and a ball that
        // is the whole torus, on every side up to 12.
        for side in 1..=12u32 {
            let t = Torus::new(side);
            for r in 0..=side {
                for seed in 0..200u64 {
                    let u = (seed * 7919 % t.n() as u64) as NodeId;
                    let c = t.coord(u);
                    let mut trials = SmallRng::seed_from_u64(seed);
                    let v = loop {
                        let (v, inside) = t.ball_trial(c, r, &mut trials);
                        assert!(v < t.n(), "side={side} r={r}: trial named node {v}");
                        assert_eq!(inside, t.dist(u, v) <= r, "side={side} r={r} v={v}");
                        if inside {
                            break v;
                        }
                    };
                    let mut reference = SmallRng::seed_from_u64(seed);
                    let mut plain = SmallRng::seed_from_u64(seed);
                    let mut from = SmallRng::seed_from_u64(seed);
                    let at = format!("side={side} r={r} seed={seed}");
                    assert_eq!(v, reference_sample(&t, u, r, &mut reference), "{at}");
                    assert_eq!(v, t.sample_in_ball(u, r, &mut plain), "{at}");
                    assert_eq!(v, t.sample_in_ball_from(c, r, &mut from), "{at}");
                    assert_eq!(trials, reference, "{at}: generator state");
                    assert_eq!(trials, plain, "{at}: generator state");
                    assert_eq!(trials, from, "{at}: generator state");
                }
            }
        }
    }

    #[test]
    fn mean_pair_distance_matches_bruteforce() {
        for side in [1u32, 2, 3, 4, 5, 8] {
            let t = Torus::new(side);
            let mut sum = 0u64;
            for a in 0..t.n() {
                for b in 0..t.n() {
                    sum += t.dist(a, b) as u64;
                }
            }
            let brute = sum as f64 / (t.n() as f64 * t.n() as f64);
            assert!(
                (t.mean_pair_distance() - brute).abs() < 1e-12,
                "side={side}: {} vs {brute}",
                t.mean_pair_distance()
            );
        }
    }

    #[test]
    fn degenerate_single_node_torus() {
        let t = Torus::new(1);
        assert_eq!(t.dist(0, 0), 0);
        assert_eq!(t.ball_size(0), 1);
        assert_eq!(t.ball_size(5), 1);
        assert_eq!(t.ball_nodes(0, 3), vec![0]);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(t.sample_in_ball(0, 2, &mut rng), 0);
    }
}
