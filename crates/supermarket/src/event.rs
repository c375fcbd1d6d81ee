//! The departure schedule: the next departure, as a winner tree with one
//! leaf per server (O(log n) per update, O(1) to read).

/// Leaf key of a server with no job in service. `+∞` never precedes an
/// arrival, so an idle server never supplies the next event.
const IDLE: u64 = f64::INFINITY.to_bits();

/// A tree node: a departure time as its `f64` bits, and its server.
///
/// A non-negative time's bits order as the time does, so comparing the
/// bits compares the times.
#[derive(Clone, Copy, Debug)]
struct Entry {
    time: u64,
    server: u32,
}

/// The pending departures, at most one per server (the job at its queue
/// head), as a winner tree: leaf `s` holds server `s`'s departure time,
/// or `+∞` while it is idle, and every inner node holds the earlier of
/// its two children. The root is the next departure. A tie goes to the
/// left child, and every server under it is smaller than every server
/// under the right one, so ties go to the smaller server.
///
/// A departure, a start of service and a server going idle each rewrite
/// one leaf and replay the matches on its path to the root.
pub(crate) struct DepartureTree {
    /// Leaves (a power of two); leaf `s` is `nodes[width + s]`, and the
    /// padding leaves past the last server stay idle.
    width: usize,
    /// `nodes[1]` is the root and `nodes[i]` the winner of `nodes[2i]`
    /// and `nodes[2i + 1]`; `nodes[0]` is unused.
    nodes: Vec<Entry>,
}

impl DepartureTree {
    /// A tree for servers `0..n`, all idle.
    pub(crate) fn new(n: u32) -> Self {
        let width = (n as usize).next_power_of_two();
        let mut nodes = vec![
            Entry {
                time: IDLE,
                server: 0,
            };
            2 * width
        ];
        for (s, leaf) in nodes[width..].iter_mut().enumerate() {
            leaf.server = s as u32;
        }
        // Every leaf is idle, so the left (smaller) server wins each tie.
        for i in (1..width).rev() {
            nodes[i] = nodes[2 * i];
        }
        Self { width, nodes }
    }

    /// The next departure's time and server. The time is `+∞` while
    /// every server is idle.
    #[inline]
    pub(crate) fn next(&self) -> (f64, u32) {
        let root = self.nodes[1];
        (f64::from_bits(root.time), root.server)
    }

    /// Schedule `server`'s departure at `time`, replacing its pending one.
    ///
    /// # Panics
    /// If `time` is NaN or carries a minus sign, whose bits would not
    /// order as the time does (debug builds only; release trusts the
    /// engine, whose times are sums of non-negative terms).
    #[inline]
    pub(crate) fn schedule(&mut self, server: u32, time: f64) {
        debug_assert!(
            time.is_sign_positive() && !time.is_nan(),
            "bad simulation time {time}"
        );
        self.set(server, time.to_bits());
    }

    /// Mark `server` idle: it has no departure pending.
    #[inline]
    pub(crate) fn idle(&mut self, server: u32) {
        self.set(server, IDLE);
    }

    /// Write `server`'s leaf and replay its matches up to the root.
    #[inline]
    fn set(&mut self, server: u32, time: u64) {
        let mut i = self.width + server as usize;
        self.nodes[i] = Entry { time, server };
        while i > 1 {
            let left = self.nodes[i & !1];
            let right = self.nodes[i | 1];
            i >>= 1;
            self.nodes[i] = if right.time < left.time { right } else { left };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The tree's root as the heap's `(time bits, server)` pair, `None`
    /// while every server is idle.
    fn root(tree: &DepartureTree) -> Option<(u64, u32)> {
        let (time, server) = tree.next();
        (time != f64::INFINITY).then_some((time.to_bits(), server))
    }

    /// Take departures off the tree in order until every server is idle,
    /// as `(time, server)` pairs.
    fn drain(tree: &mut DepartureTree) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| {
            let (time, server) = tree.next();
            tree.idle(server);
            (time != f64::INFINITY).then_some((time, server))
        })
        .collect()
    }

    #[test]
    fn time_ordering() {
        // A non-negative time's bits order as the time does, from zero and
        // the subnormals up to the idle key `+∞`.
        let times = [0.0, 1e-310, 0.5, 1.0, 2.0, 1e300, f64::INFINITY];
        for pair in times.windows(2) {
            assert!(pair[0].to_bits() < pair[1].to_bits(), "{pair:?}");
        }
        assert_eq!(IDLE, f64::INFINITY.to_bits());
        let mut tree = DepartureTree::new(3);
        for (s, t) in [2.0, 0.5, 1.0].into_iter().enumerate() {
            tree.schedule(s as u32, t);
        }
        assert_eq!(tree.next(), (0.5, 1));
        assert_eq!(drain(&mut tree), vec![(0.5, 1), (1.0, 2), (2.0, 0)]);
    }

    #[test]
    fn heap_pops_earliest_departure_first() {
        let mut tree = DepartureTree::new(3);
        for (t, s) in [(3.0, 1u32), (1.0, 2), (2.0, 0)] {
            tree.schedule(s, t);
        }
        let order: Vec<u32> = drain(&mut tree).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec![2, 0, 1]);
        // Rescheduling a pending departure replaces it.
        tree.schedule(0, 4.0);
        tree.schedule(1, 5.0);
        tree.schedule(0, 6.0);
        assert_eq!(tree.next(), (5.0, 1));
    }

    #[test]
    fn equal_times_tiebreak_by_server() {
        // Servers 3 and 5 sit under different halves of the 8 leaves, 4
        // and 5 under one pair; either way, and in either scheduling
        // order, the smaller server wins.
        for (a, b) in [(3u32, 5u32), (5, 3), (4, 5), (5, 4)] {
            let mut tree = DepartureTree::new(8);
            tree.schedule(a, 1.0);
            tree.schedule(b, 1.0);
            assert_eq!(tree.next(), (1.0, a.min(b)), "{a} then {b}");
        }
    }

    #[test]
    fn departure_tree_matches_a_binary_heap() {
        // The engine's operations against the heap the tree replaced: the
        // next departure leaves and its server either starts its next job
        // or goes idle, and an idle server starts a job. Times come from a
        // handful of values, so exact ties are common and must go to the
        // smaller server, as `(time, server)` orders them in the heap.
        const TIMES: [f64; 5] = [0.0, 0.5, 1.0, 1.0, 3.25];
        for (n, seed) in [(1u32, 1u64), (2, 2), (3, 3), (144, 4), (4096, 5)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut tree = DepartureTree::new(n);
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            let mut idle: Vec<u32> = (0..n).collect();
            let mut served = vec![false; n as usize];
            let (mut ties, mut restarts) = (0u32, 0u32);
            assert_eq!(root(&tree), None, "n={n}");
            for _ in 0..8 * n + 400 {
                let time = TIMES[rng.gen_range(0..TIMES.len())];
                if !idle.is_empty() && (heap.is_empty() || rng.gen_bool(0.5)) {
                    let s = idle.swap_remove(rng.gen_range(0..idle.len()));
                    restarts += served[s as usize] as u32;
                    served[s as usize] = true;
                    tree.schedule(s, time);
                    heap.push(Reverse((time.to_bits(), s)));
                } else {
                    let Reverse((first, s)) = heap.pop().expect("a busy server");
                    assert_eq!(tree.next(), (f64::from_bits(first), s), "n={n}");
                    ties += heap.peek().is_some_and(|&Reverse((t, _))| t == first) as u32;
                    if rng.gen_bool(0.6) {
                        tree.schedule(s, time);
                        heap.push(Reverse((time.to_bits(), s)));
                    } else {
                        tree.idle(s);
                        idle.push(s);
                    }
                }
                assert_eq!(root(&tree), heap.peek().map(|&Reverse(d)| d), "n={n}");
            }
            // Anti-vacuity: ties decided departures, and servers that had
            // gone idle started jobs again.
            assert!(ties > 0 || n == 1, "n={n}: no ties");
            assert!(restarts > 0, "n={n}: no server came back from idle");
        }
    }

    #[test]
    fn departure_tree_holds_at_most_four_nodes_per_server() {
        for n in [1u32, 2, 3, 144, 4096, 4097] {
            let tree = DepartureTree::new(n);
            assert!(tree.nodes.len() <= 4 * n as usize, "n={n}");
            assert!(tree.width >= n as usize, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "bad simulation time")]
    #[cfg(debug_assertions)]
    fn nan_time_rejected() {
        DepartureTree::new(4).schedule(1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "bad simulation time")]
    #[cfg(debug_assertions)]
    fn departure_tree_refuses_negative_time() {
        DepartureTree::new(4).schedule(2, -1.0);
    }
}
