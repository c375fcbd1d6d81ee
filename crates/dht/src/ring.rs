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
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted `(position, server)` pairs.
    points: Vec<(u64, u32)>,
    vnodes: u32,
    salt: u64,
}

impl HashRing {
    /// Build a ring for servers `0..n` with `vnodes` virtual nodes each.
    /// `salt` varies the whole layout (e.g. per-experiment).
    ///
    /// # Panics
    /// If `n == 0` or `vnodes == 0`.
    pub fn new(n: u32, vnodes: u32, salt: u64) -> Self {
        assert!(n > 0, "ring needs at least one server");
        assert!(vnodes > 0, "need at least one virtual node per server");
        let mut points = Vec::with_capacity(n as usize * vnodes as usize);
        for server in 0..n {
            for v in 0..vnodes {
                points.push((Self::vnode_hash(server, v, salt), server));
            }
        }
        points.sort_unstable();
        // Hash collisions across distinct (server, vnode) pairs are
        // astronomically unlikely (64-bit, ≤ 2^26 points) but would make
        // ownership ambiguous; dedupe keeps the first owner.
        points.dedup_by_key(|p| p.0);
        Self {
            points,
            vnodes,
            salt,
        }
    }

    #[inline]
    fn vnode_hash(server: u32, vnode: u32, salt: u64) -> u64 {
        mix_seed(salt, ((server as u64) << 32) | vnode as u64)
    }

    /// Hash an arbitrary key onto the ring.
    #[inline]
    pub fn key_position(&self, key: u64) -> u64 {
        mix64(key ^ self.salt.rotate_left(17))
    }

    /// Number of distinct servers on the ring.
    pub fn server_count(&self) -> u32 {
        let mut seen: Vec<u32> = self.points.iter().map(|&(_, s)| s).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len() as u32
    }

    /// Virtual nodes per server.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// The server owning `key`: the successor virtual node of the key's
    /// ring position (wrapping past the top of the key space).
    pub fn lookup(&self, key: u64) -> u32 {
        let pos = self.key_position(key);
        let idx = self.points.partition_point(|&(p, _)| p < pos);
        let idx = if idx == self.points.len() { 0 } else { idx };
        self.points[idx].1
    }

    /// The first `k` *distinct* servers at or after `key`'s position —
    /// the replica set in successor-list replication (the paper's \[29\]).
    /// Returns fewer than `k` only if the ring has fewer distinct servers,
    /// and nothing when `k == 0`.
    pub fn lookup_replicas(&self, key: u64, k: usize) -> Vec<u32> {
        self.lookup_replicas_where(key, k, |_| true)
    }

    /// [`HashRing::lookup_replicas`] over only the servers `keep`
    /// accepts: the successor walk skips every point of a rejected
    /// server. The result equals `lookup_replicas` on the ring rebuilt
    /// without the rejected servers, so a fixed ring read through a
    /// liveness mask serves a changing membership.
    pub fn lookup_replicas_where(
        &self,
        key: u64,
        k: usize,
        keep: impl Fn(u32) -> bool,
    ) -> Vec<u32> {
        let pos = self.key_position(key);
        let len = self.points.len();
        let start = self.points.partition_point(|&(p, _)| p < pos);
        let mut out: Vec<u32> = Vec::with_capacity(k);
        if k == 0 {
            return out;
        }
        for i in 0..len {
            let (_, server) = self.points[(start + i) % len];
            if keep(server) && !out.contains(&server) {
                out.push(server);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// The key positions whose [`HashRing::lookup_replicas_where`] set
    /// (for the same `k` and `keep`) contains `server`, as inclusive
    /// `(lo, hi)` ranges with `lo <= hi`; an arc that wraps past the top
    /// of the key space comes back as two ranges. Ranges may overlap.
    ///
    /// Walking back from each of `server`'s virtual nodes over accepted
    /// points until `k` distinct other servers are seen marks one arc:
    /// a key that starts its successor walk on a point passed reaches
    /// `server` before `k` others. Empty when `k == 0` or `keep` rejects
    /// `server`; the whole key space when fewer than `k` other servers
    /// are accepted. Cost: `V` binary searches plus the points walked
    /// back, about `k` per virtual node when most servers are accepted.
    pub fn replica_arcs(
        &self,
        server: u32,
        k: usize,
        keep: impl Fn(u32) -> bool,
    ) -> Vec<(u64, u64)> {
        if k == 0 || !keep(server) {
            return Vec::new();
        }
        let len = self.points.len();
        let mut arcs = Vec::with_capacity(self.vnodes as usize);
        let mut seen: Vec<u32> = Vec::with_capacity(k);
        for v in 0..self.vnodes {
            let pos = Self::vnode_hash(server, v, self.salt);
            // A virtual node lost to a hash collision owns no point.
            let Ok(at) = self.points.binary_search(&(pos, server)) else {
                continue;
            };
            seen.clear();
            let mut from = None;
            for i in 1..len {
                let (p, s) = self.points[(at + len - i) % len];
                if s != server && keep(s) && !seen.contains(&s) {
                    seen.push(s);
                    if seen.len() == k {
                        from = Some(p);
                        break;
                    }
                }
            }
            let Some(from) = from else {
                return vec![(0, u64::MAX)];
            };
            if from < pos {
                arcs.push((from + 1, pos));
            } else {
                if from < u64::MAX {
                    arcs.push((from + 1, u64::MAX));
                }
                arcs.push((0, pos));
            }
        }
        arcs
    }

    /// A new ring with server `gone` removed (its arcs fall to their
    /// successors; everyone else's assignments are untouched).
    ///
    /// Copies every remaining point. The churn engine reads one fixed
    /// ring through its liveness mask instead
    /// ([`HashRing::lookup_replicas_where`]); this rebuild is kept as the
    /// reference the ring tests compare the mask against, and for the
    /// benchmark's `dht.ring_rebuild_ns` probe.
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
        Self {
            points,
            vnodes: self.vnodes,
            salt: self.salt,
        }
    }

    /// A new ring with server `added` joined: its `V` virtual nodes claim
    /// the arcs immediately before them, and no key whose owner is not
    /// `added` afterwards changes hands. Exact inverse of
    /// [`HashRing::without_server`] — the result is point-for-point the
    /// ring [`HashRing::new`] would build with `added` present (equal
    /// hash positions keep the smaller server id, matching `new`'s
    /// sort-then-dedup order).
    ///
    /// Clones and re-sorts every point; kept, like
    /// [`HashRing::without_server`], for the ring tests and the
    /// benchmark's `dht.ring_rebuild_ns` probe.
    ///
    /// # Panics
    /// If `added` already owns points on the ring.
    pub fn with_server(&self, added: u32) -> Self {
        assert!(
            !self.points.iter().any(|&(_, s)| s == added),
            "server {added} is already on the ring"
        );
        let mut points = self.points.clone();
        points.reserve(self.vnodes as usize);
        for v in 0..self.vnodes {
            points.push((Self::vnode_hash(added, v, self.salt), added));
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        Self {
            points,
            vnodes: self.vnodes,
            salt: self.salt,
        }
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

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_ring_panics() {
        let _ = HashRing::new(0, 4, 0);
    }
}
