//! The consistent-hash ring (Karger et al., STOC 1997 — the paper's \[30\]).
//!
//! Servers own `V` *virtual nodes* each, hashed onto the `u64` ring; a key
//! is served by the server owning the first virtual node at or after the
//! key's hash (wrapping). Virtual nodes smooth the per-server arc length
//! to `Θ(1/n)` with relative deviation `O(1/√V)`, and membership changes
//! move only the keys in the arcs adjacent to the joining/leaving server —
//! the *minimal disruption* property that motivates DHTs for cache
//! networks.

use paba_util::{mix64, mix_seed};

/// A consistent-hash ring over servers `0..n` with `V` virtual nodes each.
///
/// Ring positions are uniform 64-bit hashes, so a bucket table keyed by
/// the top bits of a position (about four points per bucket) finds any
/// position's successor in O(1) expected time, and [`HashRing::new`]
/// sorts the points bucket by bucket in O(nV) expected time.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted `(position, server)` pairs.
    points: Vec<(u64, u32)>,
    /// `starts[b]..starts[b + 1]` are the points whose position's top
    /// bits (`position >> shift`) equal `b`; the last entry is
    /// `points.len()`.
    starts: Vec<u32>,
    shift: u32,
    vnodes: u32,
    salt: u64,
}

impl HashRing {
    /// Build a ring for servers `0..n` with `vnodes` virtual nodes each.
    /// `salt` varies the whole layout (e.g. per-experiment).
    ///
    /// # Panics
    /// If `n == 0` or `vnodes == 0`, or if `n·vnodes` exceeds `u32::MAX`.
    pub fn new(n: u32, vnodes: u32, salt: u64) -> Self {
        Self::with_positions(n, vnodes, salt, |server, v| {
            Self::vnode_hash(server, v, salt)
        })
    }

    /// [`HashRing::new`] with virtual node `v` of `server` at
    /// `position(server, v)`, so tests can force a hash collision.
    ///
    /// The counting scatter of [`Scatter::new`], then a sort of each
    /// bucket of about four points.
    pub(crate) fn with_positions(
        n: u32,
        vnodes: u32,
        salt: u64,
        position: impl Fn(u32, u32) -> u64,
    ) -> Self {
        let Scatter {
            mut points,
            starts,
            shift,
        } = Scatter::new(n, vnodes, position);
        for b in starts.windows(2) {
            points[b[0] as usize..b[1] as usize].sort_unstable();
        }
        // Hash collisions across distinct (server, vnode) pairs are
        // astronomically unlikely (64-bit, ≤ 2^32 points) but would make
        // ownership ambiguous; dedupe keeps the first owner.
        let len = points.len();
        points.dedup_by_key(|p| p.0);
        if points.len() < len {
            return Self::from_sorted(points, vnodes, salt);
        }
        Self {
            points,
            starts,
            shift,
            vnodes,
            salt,
        }
    }

    /// A ring over already sorted, deduplicated points, with its bucket
    /// table built in one pass.
    fn from_sorted(points: Vec<(u64, u32)>, vnodes: u32, salt: u64) -> Self {
        let shift = shift_for(points.len());
        let mut starts = vec![0u32; (1usize << (64 - shift)) + 1];
        for &(pos, _) in &points {
            starts[(pos >> shift) as usize + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        Self {
            points,
            starts,
            shift,
            vnodes,
            salt,
        }
    }

    /// The index of the first point at or after `pos`, or `points.len()`
    /// when every point lies below it: a bucket lookup, then a search
    /// inside the bucket.
    #[inline]
    fn first_at_or_after(&self, pos: u64) -> usize {
        let b = (pos >> self.shift) as usize;
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        lo + self.points[lo..hi].partition_point(|&(p, _)| p < pos)
    }

    /// The ring position of virtual node `vnode` of `server`.
    #[inline]
    pub(crate) fn vnode_hash(server: u32, vnode: u32, salt: u64) -> u64 {
        mix_seed(salt, ((server as u64) << 32) | vnode as u64)
    }

    /// The ring position of an arbitrary key on a ring salted with
    /// `salt`.
    #[inline]
    pub(crate) fn key_hash(key: u64, salt: u64) -> u64 {
        mix64(key ^ salt.rotate_left(17))
    }

    /// Virtual nodes per server.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// The server owning `key`: the successor virtual node of the key's
    /// ring position (wrapping past the top of the key space).
    pub fn lookup(&self, key: u64) -> u32 {
        let idx = self.first_at_or_after(Self::key_hash(key, self.salt));
        let idx = if idx == self.points.len() { 0 } else { idx };
        self.points[idx].1
    }

    /// The first `k` *distinct* servers at or after `key`'s position —
    /// the replica set in successor-list replication (the paper's \[29\]).
    /// Returns fewer than `k` only if the ring has fewer distinct servers,
    /// and nothing when `k == 0`.
    pub fn lookup_replicas(&self, key: u64, k: usize) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(k);
        if k == 0 {
            return out;
        }
        let (before, after) = self
            .points
            .split_at(self.first_at_or_after(Self::key_hash(key, self.salt)));
        for &(_, server) in after.iter().chain(before) {
            if !out.contains(&server) {
                out.push(server);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// A new ring with server `gone` removed (its arcs fall to their
    /// successors; everyone else's assignments are untouched).
    ///
    /// Copies every remaining point and rebuilds the bucket table in one
    /// pass. The churn engine reads one fixed ring's successor lists
    /// through its liveness mask instead ([`crate::SuccessorDirectory`]);
    /// this rebuild is kept as the reference the ring and directory tests
    /// compare the mask against, and for the benchmark's
    /// `dht.ring_rebuild_ns` probe.
    ///
    /// # Panics
    /// If removing `gone` would empty the ring.
    pub fn without_server(&self, gone: u32) -> Self {
        let points: Vec<(u64, u32)> = self
            .points
            .iter()
            .copied()
            .filter(|&(_, s)| s != gone)
            .collect();
        assert!(!points.is_empty(), "cannot remove the last server");
        Self::from_sorted(points, self.vnodes, self.salt)
    }

    /// A new ring with server `added` joined: its `V` virtual nodes claim
    /// the arcs immediately before them, and no key whose owner is not
    /// `added` afterwards changes hands. Exact inverse of
    /// [`HashRing::without_server`] — the result is point-for-point the
    /// ring [`HashRing::new`] would build with `added` present (equal
    /// hash positions keep the smaller server id, matching `new`'s
    /// sort-then-dedup order).
    ///
    /// Merges the `V` new points into a copy of the ring and rebuilds the
    /// bucket table; kept, like [`HashRing::without_server`], for the
    /// ring tests and the benchmark's `dht.ring_rebuild_ns` probe.
    ///
    /// # Panics
    /// If `added` already owns points on the ring.
    pub fn with_server(&self, added: u32) -> Self {
        assert!(
            !self.points.iter().any(|&(_, s)| s == added),
            "server {added} is already on the ring"
        );
        let mut joined: Vec<(u64, u32)> = (0..self.vnodes)
            .map(|v| (Self::vnode_hash(added, v, self.salt), added))
            .collect();
        joined.sort_unstable();
        let mut points = Vec::with_capacity(self.points.len() + joined.len());
        let mut rest = self.points.as_slice();
        for &p in &joined {
            let at = rest.partition_point(|&q| q < p);
            points.extend_from_slice(&rest[..at]);
            points.push(p);
            rest = &rest[at..];
        }
        points.extend_from_slice(rest);
        points.dedup_by_key(|p| p.0);
        Self::from_sorted(points, self.vnodes, self.salt)
    }

    /// Fraction of `keys` whose owner differs between `self` and `other`
    /// — the disruption metric of consistent hashing.
    pub fn disruption(&self, other: &HashRing, keys: impl Iterator<Item = u64>) -> f64 {
        let mut moved = 0u64;
        let mut total = 0u64;
        for key in keys {
            total += 1;
            if self.lookup(key) != other.lookup(key) {
                moved += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            moved as f64 / total as f64
        }
    }
}

/// The shift that keys a ring of `len` points by the top bits of a
/// position: the smallest power-of-two bucket count (at least 2) that is
/// at least `len / 4`.
fn shift_for(len: usize) -> u32 {
    64 - (len / 4).max(2).next_power_of_two().trailing_zeros()
}

/// Every virtual node's `(position, server)` point, counting-sorted into
/// buckets keyed by the top bits of the position (about four points per
/// bucket), each bucket still in no particular order. [`HashRing`] sorts
/// every bucket up front; [`crate::SuccessorDirectory`] sorts a bucket
/// only when one of its walks first enters it.
pub(crate) struct Scatter {
    /// The points, bucket by bucket; equal positions share a bucket.
    pub(crate) points: Vec<(u64, u32)>,
    /// `starts[b]..starts[b + 1]` are the points whose position's top
    /// bits (`position >> shift`) equal `b`; the last entry is
    /// `points.len()`.
    pub(crate) starts: Vec<u32>,
    pub(crate) shift: u32,
}

impl Scatter {
    /// Count the points of servers `0..n` per bucket, prefix-sum into
    /// bucket ends, then scatter into the final `points` vector (filling
    /// each bucket from its end): O(nV). Hashing twice costs less than a
    /// second ring-sized buffer.
    ///
    /// # Panics
    /// If `n == 0` or `vnodes == 0`, or if `n·vnodes` exceeds `u32::MAX`.
    pub(crate) fn new(n: u32, vnodes: u32, position: impl Fn(u32, u32) -> u64) -> Self {
        assert!(n > 0, "ring needs at least one server");
        assert!(vnodes > 0, "need at least one virtual node per server");
        let len = u32::try_from(n as u64 * vnodes as u64)
            .expect("a ring holds at most u32::MAX points") as usize;
        let shift = shift_for(len);
        let mut starts = vec![0u32; (1usize << (64 - shift)) + 1];
        for server in 0..n {
            for v in 0..vnodes {
                starts[(position(server, v) >> shift) as usize] += 1;
            }
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut points = vec![(0u64, 0u32); len];
        for server in 0..n {
            for v in 0..vnodes {
                let pos = position(server, v);
                let slot = &mut starts[(pos >> shift) as usize];
                *slot -= 1;
                points[*slot as usize] = (pos, server);
            }
        }
        Self {
            points,
            starts,
            shift,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_deterministic_and_in_range() {
        let ring = HashRing::new(16, 32, 7);
        for key in 0..1000u64 {
            let a = ring.lookup(key);
            assert_eq!(a, ring.lookup(key));
            assert!(a < 16);
        }
    }

    #[test]
    fn replicas_are_distinct_and_lead_with_owner() {
        let ring = HashRing::new(10, 16, 3);
        for key in 0..200u64 {
            let reps = ring.lookup_replicas(key, 4);
            assert_eq!(reps.len(), 4);
            assert_eq!(reps[0], ring.lookup(key), "first replica is the owner");
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "replicas must be distinct");
        }
    }

    #[test]
    fn replicas_capped_by_server_count() {
        let ring = HashRing::new(3, 8, 1);
        let reps = ring.lookup_replicas(42, 10);
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn keys_spread_evenly_with_many_vnodes() {
        let n = 20u32;
        let ring = HashRing::new(n, 128, 11);
        let mut counts = vec![0u32; n as usize];
        let keys = 40_000u64;
        for key in 0..keys {
            counts[ring.lookup(key) as usize] += 1;
        }
        let expect = keys as f64 / n as f64;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.55 * expect && (c as f64) < 1.6 * expect,
                "server {s} owns {c} keys vs expected {expect} — imbalance too high"
            );
        }
    }

    #[test]
    fn fewer_vnodes_means_worse_balance() {
        let n = 20u32;
        let spread = |vnodes: u32| -> f64 {
            let ring = HashRing::new(n, vnodes, 5);
            let mut counts = vec![0u32; n as usize];
            for key in 0..20_000u64 {
                counts[ring.lookup(key) as usize] += 1;
            }
            let max = *counts.iter().max().unwrap() as f64;
            let min = *counts.iter().min().unwrap() as f64;
            max / min.max(1.0)
        };
        assert!(spread(1) > spread(256), "vnodes must smooth the ring");
    }

    #[test]
    fn minimal_disruption_on_leave() {
        // Removing one of n servers must move ≈ 1/n of keys — and never
        // reassign a key whose owner survives.
        let n = 25u32;
        let ring = HashRing::new(n, 64, 9);
        let gone = 7u32;
        let smaller = ring.without_server(gone);
        let keys = 20_000u64;
        let mut moved = 0u64;
        for key in 0..keys {
            let before = ring.lookup(key);
            let after = smaller.lookup(key);
            if before == after {
                continue;
            }
            assert_eq!(before, gone, "key moved although its owner survived");
            moved += 1;
        }
        let frac = moved as f64 / keys as f64;
        let expect = 1.0 / n as f64;
        assert!(
            frac > 0.3 * expect && frac < 3.0 * expect,
            "disruption {frac:.4} should be ≈ 1/n = {expect:.4}"
        );
        assert!((ring.disruption(&smaller, 0..keys) - frac).abs() < 1e-12);
    }

    #[test]
    fn join_is_inverse_of_leave() {
        // leave(s) then join(s) must reproduce the original ring exactly:
        // every lookup (and replica set) agrees on a large key sample.
        let ring = HashRing::new(12, 32, 13);
        let rejoined = ring.without_server(5).with_server(5);
        for key in 0..5_000u64 {
            assert_eq!(ring.lookup(key), rejoined.lookup(key), "key {key}");
            assert_eq!(
                ring.lookup_replicas(key, 3),
                rejoined.lookup_replicas(key, 3),
                "key {key}"
            );
        }
    }

    #[test]
    fn minimal_disruption_on_join() {
        // Joining an (n+1)-th server must move ≈ 1/(n+1) of keys — and
        // every moved key must move *to* the joiner.
        let ring = HashRing::new(24, 64, 17);
        let grown = ring.with_server(24);
        let keys = 20_000u64;
        let mut moved = 0u64;
        for key in 0..keys {
            let before = ring.lookup(key);
            let after = grown.lookup(key);
            if before == after {
                continue;
            }
            assert_eq!(after, 24, "key moved to a pre-existing server");
            moved += 1;
        }
        let frac = moved as f64 / keys as f64;
        let expect = 1.0 / 25.0;
        assert!(
            frac > 0.3 * expect && frac < 3.0 * expect,
            "disruption {frac:.4} should be ≈ 1/(n+1) = {expect:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "already on the ring")]
    fn join_rejects_present_server() {
        let _ = HashRing::new(4, 8, 1).with_server(2);
    }

    #[test]
    fn different_salts_give_different_layouts() {
        let a = HashRing::new(8, 16, 1);
        let b = HashRing::new(8, 16, 2);
        let differing = (0..500u64).filter(|&k| a.lookup(k) != b.lookup(k)).count();
        assert!(
            differing > 100,
            "salt should reshuffle the ring ({differing})"
        );
    }

    /// The sort-based ring the bucketed constructors must reproduce:
    /// every `(position(s, v), s)`, `sort_unstable`, then
    /// `dedup_by_key` on the position.
    fn sorted_reference(
        servers: impl Iterator<Item = u32>,
        vnodes: u32,
        position: impl Fn(u32, u32) -> u64,
    ) -> Vec<(u64, u32)> {
        let mut points: Vec<(u64, u32)> = servers
            .flat_map(|s| (0..vnodes).map(move |v| (s, v)))
            .map(|(s, v)| (position(s, v), s))
            .collect();
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        points
    }

    /// The bucket table must bracket exactly its bucket's points, and
    /// `first_at_or_after` must equal a `partition_point` over all points
    /// at both ends of the key space, on both sides of every bucket
    /// boundary, at every point and at random positions.
    fn assert_index_matches_search(ring: &HashRing) {
        let nb = ring.starts.len() - 1;
        assert!(nb.is_power_of_two() && nb >= 2);
        assert_eq!(64 - ring.shift, nb.trailing_zeros());
        assert_eq!(ring.starts[0], 0);
        assert_eq!(ring.starts[nb] as usize, ring.points.len());
        for b in 0..nb {
            for &(p, _) in &ring.points[ring.starts[b] as usize..ring.starts[b + 1] as usize] {
                assert_eq!(
                    (p >> ring.shift) as usize,
                    b,
                    "point {p} filed in bucket {b}"
                );
            }
        }
        let search = |pos: u64| ring.points.partition_point(|&(p, _)| p < pos);
        let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
        for b in 1..nb as u64 {
            let edge = b << ring.shift;
            probes.extend([edge - 1, edge, edge + 1]);
        }
        for &(p, _) in &ring.points {
            probes.extend([p.wrapping_sub(1), p, p.wrapping_add(1)]);
        }
        probes.extend((0..2_000u64).map(|i| mix64(i ^ 0xB0C4)));
        for pos in probes {
            assert_eq!(ring.first_at_or_after(pos), search(pos), "position {pos}");
        }
    }

    #[test]
    fn bucketed_build_matches_sort_reference() {
        // n·V from 1 to 65,536, powers of two and not, so the bucket
        // count (about n·V/4, at least 2) covers every shape.
        let shapes: [(u32, u32); 12] = [
            (1, 1),
            (1, 3),
            (2, 1),
            (3, 5),
            (4, 3),
            (7, 13),
            (16, 64),
            (31, 33),
            (100, 100),
            (257, 63),
            (255, 257),
            (1024, 64),
        ];
        for (n, vnodes) in shapes {
            let salt = 0x5EED ^ (n as u64) << 8 ^ vnodes as u64;
            let hash = |s, v| HashRing::vnode_hash(s, v, salt);
            let ring = HashRing::new(n, vnodes, salt);
            assert_eq!(ring.points.len(), (n * vnodes) as usize);
            assert_eq!(
                ring.points,
                sorted_reference(0..n, vnodes, hash),
                "n={n} V={vnodes}"
            );
            assert_index_matches_search(&ring);
            // Join a server beyond the range, and (when one remains)
            // remove one and add it back.
            let grown = ring.with_server(n);
            assert_eq!(
                grown.points,
                sorted_reference(0..=n, vnodes, hash),
                "join n={n}"
            );
            assert_index_matches_search(&grown);
            if n > 1 {
                let gone = n / 2;
                let shrunk = ring.without_server(gone);
                let rest = (0..n).filter(|&s| s != gone);
                assert_eq!(
                    shrunk.points,
                    sorted_reference(rest, vnodes, hash),
                    "leave n={n}"
                );
                assert_index_matches_search(&shrunk);
                let back = shrunk.with_server(gone);
                assert_eq!(back.points, ring.points, "rejoin n={n}");
                assert_eq!(back.starts, ring.starts, "rejoin n={n}");
            }
        }
    }

    #[test]
    fn colliding_positions_keep_the_smaller_server() {
        // Virtual node 1 of server 2 lands on virtual node 0 of server 0.
        // 4·3 = 12 points give 4 buckets; the 11 left after dedup give 2,
        // so the table must be rebuilt, not just the points trimmed.
        let salt = 9;
        let position = |s: u32, v: u32| {
            let (s, v) = if (s, v) == (2, 1) { (0, 0) } else { (s, v) };
            HashRing::vnode_hash(s, v, salt)
        };
        let ring = HashRing::with_positions(4, 3, salt, position);
        let expect = sorted_reference(0..4, 3, position);
        assert_eq!(expect.len(), 11);
        assert_eq!(ring.points, expect);
        assert!(ring.points.contains(&(position(0, 0), 0)));
        assert_index_matches_search(&ring);
        // Server 2's lost virtual node owns no point, but its others do.
        assert!(!ring.points.contains(&(position(2, 1), 2)));
        assert_eq!(ring.points.iter().filter(|&&(_, s)| s == 2).count(), 2);
        // A joiner whose virtual node lands on an existing point loses it
        // to the smaller id, as in `new`: server 1's virtual node 2 sits
        // where server 4's virtual node 0 will.
        let taken = |s: u32, v: u32| {
            let (s, v) = if (s, v) == (1, 2) { (4, 0) } else { (s, v) };
            HashRing::vnode_hash(s, v, salt)
        };
        let grown = HashRing::with_positions(4, 3, salt, taken).with_server(4);
        assert_eq!(grown.points.len(), 14);
        assert_eq!(grown.points, sorted_reference(0..5, 3, taken));
        assert!(grown.points.contains(&(taken(4, 0), 1)));
        assert_index_matches_search(&grown);
        // Heavy collisions: twelve points on three positions, all in the
        // lowest bucket.
        let crowded = HashRing::with_positions(4, 3, salt, |s, v| u64::from((s * 3 + v) % 3));
        assert_eq!(crowded.points, vec![(0, 0), (1, 0), (2, 0)]);
        assert_index_matches_search(&crowded);
        assert_eq!(crowded.lookup_replicas(7, 3), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_ring_panics() {
        let _ = HashRing::new(0, 4, 0);
    }
}
