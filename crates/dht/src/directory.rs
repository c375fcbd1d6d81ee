//! Per-key successor lists over one consistent-hash ring, for a
//! membership that changes.
//!
//! A key's replica set under successor-list replication is its first `R`
//! distinct ring successors; with some servers down it is the first `R`
//! *live* ones, which is what the ring rebuilt without the dead servers
//! would answer (removing a server's points keeps the others in order).
//! [`SuccessorDirectory`] therefore walks the full ring once per key and
//! keeps each key's first `4R` distinct successors with a count of how
//! many are live. A membership change touches only the keys whose list
//! holds the server that changed, about `K·4R/n` of them, and a list that
//! falls below `R` live servers is walked again at twice its width.

use crate::ring::{HashRing, Scatter};

/// A key's first list holds this many distinct successors per replica,
/// so it keeps `R` live ones until three quarters of them are down.
const WIDTH_PER_REPLICA: u32 = 4;

/// End of a server's chain in [`SuccessorDirectory::links`].
const NONE: u32 = u32::MAX;

/// One key's successor list: `succ[start..start + len]`.
#[derive(Clone, Copy, Debug)]
struct List {
    start: u32,
    len: u32,
    /// The length the walk asked for; a shorter list holds every server
    /// on the ring.
    width: u32,
    /// How many of the listed servers are live.
    live: u32,
}

/// The first `4R` distinct ring successors of every key in `0..keys`
/// (ring key `key as u64`), their live counts, and a server → keys
/// index, in flat arrays.
///
/// It holds one invariant: each list is a prefix of its key's successor
/// order on the full ring that holds at least `R` live servers, or else
/// every server on the ring. The first `R` live servers of a list are
/// then exactly [`HashRing::lookup_replicas`]`(key, R)` on the ring
/// rebuilt without the dead servers. Every server starts live; the
/// caller owns the liveness mask and reports each change through
/// [`SuccessorDirectory::set_live`].
#[derive(Debug)]
pub struct SuccessorDirectory {
    /// The ring's points, bucket by bucket; `sorted[b]` says whether
    /// bucket `b` has been sorted yet.
    points: Vec<(u64, u32)>,
    starts: Vec<u32>,
    shift: u32,
    sorted: Vec<bool>,
    salt: u64,
    replication: u32,
    lists: Vec<List>,
    /// Every list's servers; a list that grows moves to the end.
    succ: Vec<u32>,
    /// `heads[s]` starts server `s`'s chain of `(key, next)` links: one
    /// per key whose list holds `s`.
    heads: Vec<u32>,
    links: Vec<(u32, u32)>,
    /// `seen[s] == epoch` when the current walk has taken server `s`.
    seen: Vec<u32>,
    epoch: u32,
}

impl SuccessorDirectory {
    /// The lists of keys `0..keys` on [`HashRing::new`]`(n, vnodes,
    /// salt)`, for `replication` live replicas per key, with every
    /// server live.
    ///
    /// Scatters the ring's points into buckets (O(nV)) but sorts only
    /// the buckets the `keys` walks enter, then walks about `4R`
    /// successors per key.
    ///
    /// # Panics
    /// As [`HashRing::new`].
    pub fn new(n: u32, vnodes: u32, salt: u64, keys: u32, replication: u32) -> Self {
        Self::with_positions(n, vnodes, salt, keys, replication, |server, v| {
            HashRing::vnode_hash(server, v, salt)
        })
    }

    /// [`SuccessorDirectory::new`] with virtual node `v` of `server` at
    /// `position(server, v)`, as [`HashRing::with_positions`].
    fn with_positions(
        n: u32,
        vnodes: u32,
        salt: u64,
        keys: u32,
        replication: u32,
        position: impl Fn(u32, u32) -> u64,
    ) -> Self {
        let Scatter {
            points,
            starts,
            shift,
        } = Scatter::new(n, vnodes, position);
        let width = replication.saturating_mul(WIDTH_PER_REPLICA);
        let entries = keys as usize * width.min(n) as usize;
        let mut dir = Self {
            points,
            sorted: vec![false; starts.len() - 1],
            starts,
            shift,
            salt,
            replication,
            lists: Vec::with_capacity(keys as usize),
            succ: Vec::with_capacity(entries),
            heads: vec![NONE; n as usize],
            links: Vec::with_capacity(entries),
            seen: vec![0; n as usize],
            epoch: 0,
        };
        for key in 0..keys {
            let list = dir.walk(key, width);
            dir.link_from(key, &list, 0);
            dir.lists.push(List {
                live: list.len,
                ..list
            });
        }
        dir
    }

    /// The live replica set of `key`: the first `R` servers of its list
    /// that `alive` accepts, in ring order.
    pub fn live_replicas<'a>(
        &'a self,
        key: u32,
        alive: &'a [bool],
    ) -> impl Iterator<Item = u32> + 'a {
        let List { start, len, .. } = self.lists[key as usize];
        self.succ[start as usize..(start + len) as usize]
            .iter()
            .copied()
            .filter(move |&s| alive[s as usize])
            .take(self.replication as usize)
    }

    /// The keys whose live replica set holds `server`, in no particular
    /// order: the index's keys for `server`, each checked against its
    /// list. Empty when `server` is down.
    pub fn keys_on<'a>(&'a self, server: u32, alive: &'a [bool]) -> impl Iterator<Item = u32> + 'a {
        let mut at = self.heads[server as usize];
        std::iter::from_fn(move || {
            (at != NONE).then(|| {
                let (key, next) = self.links[at as usize];
                at = next;
                key
            })
        })
        .filter(move |&key| self.live_replicas(key, alive).any(|s| s == server))
    }

    /// Record that `server` went down or came up, `alive` being the
    /// membership after the change: adjust the live count of every key
    /// whose list holds `server`, and grow each list that fell below `R`
    /// live servers. Call it once per change of `server`'s state.
    pub fn set_live(&mut self, server: u32, alive: &[bool]) {
        let up = alive[server as usize];
        let mut at = self.heads[server as usize];
        while at != NONE {
            let (key, next) = self.links[at as usize];
            at = next;
            let list = &mut self.lists[key as usize];
            if up {
                list.live += 1;
            } else {
                list.live -= 1;
                if list.live < self.replication && list.len == list.width {
                    self.grow(key, alive);
                }
            }
        }
    }

    /// Walk `key` again at twice its width until its list holds `R` live
    /// servers or every server on the ring. The longer list moves to the
    /// end of `succ`, and each server past the old list links the key.
    fn grow(&mut self, key: u32, alive: &[bool]) {
        let mut list = self.lists[key as usize];
        while list.live < self.replication && list.len == list.width {
            let old = list.len;
            list = List {
                live: list.live,
                ..self.walk(key, list.width.saturating_mul(2))
            };
            self.link_from(key, &list, old);
            list.live += self.succ[(list.start + old) as usize..(list.start + list.len) as usize]
                .iter()
                .filter(|&&s| alive[s as usize])
                .count() as u32;
        }
        self.lists[key as usize] = list;
    }

    /// Link `key` into the chain of each server in `list` from position
    /// `from` on.
    fn link_from(&mut self, key: u32, list: &List, from: u32) {
        for i in list.start + from..list.start + list.len {
            let server = self.succ[i as usize];
            let at = u32::try_from(self.links.len())
                .ok()
                .filter(|&at| at != NONE)
                .expect("a directory holds fewer than u32::MAX links");
            self.links.push((key, self.heads[server as usize]));
            self.heads[server as usize] = at;
        }
    }

    /// Append to `succ` the first `width` distinct servers at or after
    /// `key`'s ring position (wrapping), or every server on the ring if
    /// it holds fewer. Of points sharing a position only the first, the
    /// smaller server's once its bucket is sorted, counts, as in the
    /// ring's dedup. Sorts each bucket the walk enters for the first
    /// time. The returned list counts no live servers.
    fn walk(&mut self, key: u32, width: u32) -> List {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        let pos = HashRing::key_hash(key as u64, self.salt);
        let mask = self.sorted.len() - 1;
        let mut b = (pos >> self.shift) as usize;
        self.sort_bucket(b);
        let (lo, mut hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        let mut i = lo + self.points[lo..hi].partition_point(|&(p, _)| p < pos);
        let mut len = 0;
        for _ in 0..self.points.len() {
            if len == width {
                break;
            }
            while i == hi {
                b = (b + 1) & mask;
                self.sort_bucket(b);
                (i, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
            }
            let (p, server) = self.points[i];
            // Equal positions share a bucket, so the point before `i` is
            // either a sorted duplicate or strictly below `p`.
            if (i == 0 || self.points[i - 1].0 != p) && self.seen[server as usize] != self.epoch {
                self.seen[server as usize] = self.epoch;
                self.succ.push(server);
                len += 1;
            }
            i += 1;
        }
        let end = u32::try_from(self.succ.len())
            .expect("a directory holds at most u32::MAX list entries");
        List {
            start: end - len,
            len,
            width,
            live: 0,
        }
    }

    fn sort_bucket(&mut self, b: usize) {
        if !self.sorted[b] {
            self.sorted[b] = true;
            self.points[self.starts[b] as usize..self.starts[b + 1] as usize].sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The list of `key` as a slice.
    fn list(dir: &SuccessorDirectory, key: u32) -> &[u32] {
        let List { start, len, .. } = dir.lists[key as usize];
        &dir.succ[start as usize..(start + len) as usize]
    }

    /// `dir`'s walk of `key` at `width`, left out of its lists.
    fn walked(dir: &mut SuccessorDirectory, key: u32, width: u32) -> Vec<u32> {
        let list = dir.walk(key, width);
        dir.succ.drain(list.start as usize..).collect()
    }

    #[test]
    fn walk_matches_lookup_replicas() {
        let mut rng = SmallRng::seed_from_u64(0xD1C7);
        for _ in 0..60 {
            let n = rng.gen_range(1..200);
            let vnodes = rng.gen_range(1..80);
            let salt = rng.gen::<u64>();
            let replication = rng.gen_range(0..6);
            let keys = rng.gen_range(0..50);
            let ring = HashRing::new(n, vnodes, salt);
            let mut dir = SuccessorDirectory::new(n, vnodes, salt, keys, replication);
            for key in 0..keys {
                let width = (replication * WIDTH_PER_REPLICA) as usize;
                assert_eq!(list(&dir, key), ring.lookup_replicas(key as u64, width));
            }
            for _ in 0..40 {
                let key = rng.gen::<u32>();
                let width = rng.gen_range(0..=n + 3);
                assert_eq!(
                    walked(&mut dir, key, width),
                    ring.lookup_replicas(key as u64, width as usize),
                    "n {n}, V {vnodes}, salt {salt}, key {key}, width {width}"
                );
            }
        }
    }

    #[test]
    fn walk_matches_lookup_replicas_on_colliding_and_low_positions() {
        let salt = 0xC011;
        let hash = |s: u32, v: u32| HashRing::vnode_hash(s, v, salt);
        // Servers 2i and 2i + 1 share every position, so the even server
        // keeps each point; the odd servers own none.
        let paired = |s: u32, v: u32| hash(s / 2, v);
        // Every point in the lower half of the key space: about half the
        // keys lie past the last point and wrap to the first.
        let low = |s: u32, v: u32| hash(s, v) >> 1;
        // Twelve points on three positions, all server 0's.
        let crowded = |s: u32, v: u32| u64::from((s * 3 + v) % 3);
        type Position<'a> = &'a dyn Fn(u32, u32) -> u64;
        let shapes: [(u32, u32, Position); 4] = [
            (20, 8, &paired),
            (9, 3, &paired),
            (30, 16, &low),
            (4, 3, &crowded),
        ];
        for (shape, &(n, vnodes, position)) in shapes.iter().enumerate() {
            let ring = HashRing::with_positions(n, vnodes, salt, position);
            let mut dir = SuccessorDirectory::with_positions(n, vnodes, salt, 64, 2, position);
            let mut past_last = 0;
            let mut wrapped_owner = None;
            for key in 0..64u32 {
                assert_eq!(list(&dir, key), ring.lookup_replicas(key as u64, 8));
                for width in [1, 3, n / 2, n, n + 1] {
                    let got = walked(&mut dir, key, width);
                    assert_eq!(
                        got,
                        ring.lookup_replicas(key as u64, width as usize),
                        "shape {shape}, key {key}, width {width}"
                    );
                    if shape < 2 {
                        assert!(got.iter().all(|s| s % 2 == 0), "shape {shape}");
                    }
                }
                // Every key past the last point wraps to the first one.
                let pos = HashRing::key_hash(key as u64, salt);
                if shape == 2 && pos >> 63 == 1 {
                    past_last += 1;
                    let owner = list(&dir, key)[0];
                    assert_eq!(*wrapped_owner.get_or_insert(owner), owner);
                }
            }
            if shape == 2 {
                assert!(past_last > 10, "{past_last} keys past the last point");
            }
        }
    }

    #[test]
    fn new_sorts_only_the_buckets_its_walks_enter() {
        // The benchmark's churn regime: 65,536 points in 16,384 buckets,
        // 256 keys walking about 12 successors each.
        let dir = SuccessorDirectory::new(1024, 64, 7, 256, 3);
        let sorted = dir.sorted.iter().filter(|&&s| s).count();
        assert_eq!(dir.sorted.len(), 16_384);
        assert!(
            sorted > 256 && sorted < 16_384 / 8,
            "{sorted} buckets sorted"
        );
    }

    /// The ring of [`HashRing::new`] without the servers `alive` rejects.
    fn rebuilt(n: u32, vnodes: u32, salt: u64, alive: &[bool]) -> HashRing {
        (0..n)
            .filter(|&s| !alive[s as usize])
            .fold(HashRing::new(n, vnodes, salt), |ring, s| {
                ring.without_server(s)
            })
    }

    /// Keys `0..keys` whose replica set on `ring` holds `server`, the
    /// arcs a joiner used to walk back over, read key by key.
    fn replicated_on(ring: &HashRing, keys: u32, r: usize, server: u32) -> Vec<u32> {
        (0..keys)
            .filter(|&key| ring.lookup_replicas(key as u64, r).contains(&server))
            .collect()
    }

    #[test]
    fn random_liveness_matches_the_rebuilt_ring() {
        let (n, vnodes, keys) = (40u32, 16u32, 120u32);
        let mut rng = SmallRng::seed_from_u64(0x11FE);
        let mut grown = 0;
        let mut joins = 0;
        for trial in 0..12u64 {
            let salt = trial ^ 0x5A17;
            let replication = 1 + trial as u32 % 4;
            let r = replication as usize;
            let mut dir = SuccessorDirectory::new(n, vnodes, salt, keys, replication);
            let mut alive = vec![true; n as usize];
            // Even trials wander; odd ones are kill-heavy, going down to
            // one or two live servers before anything rejoins.
            let floor = if trial % 2 == 0 {
                n / 2
            } else {
                1 + trial as u32 % 2
            };
            let mut killing = true;
            for step in 0..60 {
                let live = alive.iter().filter(|&&a| a).count() as u32;
                let down = if trial % 2 == 0 {
                    live > floor && (live == n || rng.gen_bool(0.5))
                } else {
                    killing = (killing && live > floor) || live == n;
                    killing
                };
                let pool: Vec<u32> = (0..n).filter(|&s| alive[s as usize] == down).collect();
                let s = pool[rng.gen_range(0..pool.len())];
                alive[s as usize] = !down;
                dir.set_live(s, &alive);
                let ring = rebuilt(n, vnodes, salt, &alive);
                for key in 0..keys {
                    assert_eq!(
                        dir.live_replicas(key, &alive).collect::<Vec<_>>(),
                        ring.lookup_replicas(key as u64, r),
                        "trial {trial}, step {step}, key {key}"
                    );
                }
                if !down {
                    let mut got: Vec<u32> = dir.keys_on(s, &alive).collect();
                    got.sort_unstable();
                    assert_eq!(got, replicated_on(&ring, keys, r, s), "trial {trial}");
                    joins += 1;
                }
            }
            grown += dir
                .lists
                .iter()
                .filter(|l| l.width > 4 * replication)
                .count();
        }
        assert!(grown > 100, "only {grown} lists grew");
        assert!(joins > 100, "only {joins} joins");
    }
}
