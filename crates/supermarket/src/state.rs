//! The engine's per-server queue bookkeeping, each structure flat and
//! cheap per event (the next departure is [`crate::event`]'s):
//!
//! * [`JobQueues`]: every server's FIFO of queued arrival times, linked
//!   through one pooled node array (O(1) per push or pop);
//! * [`Occupancy`]: how many servers hold at least `k` jobs for each
//!   threshold `k` up to the tail cap, and the highest occupied one.

/// No node: the end of a list, or an empty queue's head and tail.
const NIL: u32 = u32::MAX;

/// One queued job: its arrival time and the next job in its queue.
#[derive(Clone, Copy, Debug)]
struct Job {
    arrived: f64,
    next: u32,
}

/// Every server's FIFO of queued jobs' arrival times (the head is in
/// service), as singly linked lists through one pooled node array. A
/// popped job's node goes on a free list that the next push takes from,
/// so the pool holds one node per job queued at the peak.
pub(crate) struct JobQueues {
    /// Per server: its head and tail node, both `NIL` while it is empty.
    ends: Vec<(u32, u32)>,
    jobs: Vec<Job>,
    /// First free node, linked through `next`.
    free: u32,
}

impl JobQueues {
    /// Empty queues for servers `0..n`.
    pub(crate) fn new(n: u32) -> Self {
        Self {
            ends: vec![(NIL, NIL); n as usize],
            jobs: Vec::new(),
            free: NIL,
        }
    }

    /// Append a job that arrived at `arrived` to `server`'s queue.
    #[inline]
    pub(crate) fn push(&mut self, server: usize, arrived: f64) {
        let job = Job { arrived, next: NIL };
        let node = if self.free == NIL {
            let node = u32::try_from(self.jobs.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than u32::MAX jobs queued at once");
            self.jobs.push(job);
            node
        } else {
            let node = self.free;
            self.free = self.jobs[node as usize].next;
            self.jobs[node as usize] = job;
            node
        };
        let (head, tail) = &mut self.ends[server];
        if *tail == NIL {
            *head = node;
        } else {
            self.jobs[*tail as usize].next = node;
        }
        *tail = node;
    }

    /// Remove the job at the head of `server`'s queue and return its
    /// arrival time.
    ///
    /// # Panics
    /// If the queue is empty.
    #[inline]
    pub(crate) fn pop(&mut self, server: usize) -> f64 {
        let (head, tail) = &mut self.ends[server];
        let node = *head;
        assert_ne!(node, NIL, "departure from an empty queue");
        let job = self.jobs[node as usize];
        *head = job.next;
        if job.next == NIL {
            *tail = NIL;
        }
        self.jobs[node as usize].next = self.free;
        self.free = node;
        job.arrived
    }
}

/// Per-threshold occupancy: `counts[k]` servers hold at least `k` jobs,
/// for each `k` up to the tail cap, and `top` is the highest `k` with
/// `counts[k] > 0`. Since `counts` never rises with `k`, every threshold
/// above `top` is empty too.
pub(crate) struct Occupancy {
    counts: Vec<u32>,
    top: usize,
}

impl Occupancy {
    /// `n` empty servers, thresholds `0..=cap`.
    pub(crate) fn new(n: u32, cap: usize) -> Self {
        let mut counts = vec![0; cap + 1];
        counts[0] = n;
        Self { counts, top: 0 }
    }

    /// A queue grew to `len` jobs.
    #[inline]
    pub(crate) fn grew(&mut self, len: u32) {
        let k = len as usize;
        if k < self.counts.len() {
            self.counts[k] += 1;
            self.top = self.top.max(k);
        }
    }

    /// A queue shrank from `len` jobs. When it was the last one at `len`,
    /// it still holds `len - 1`, so that is the new top.
    #[inline]
    pub(crate) fn shrank(&mut self, len: u32) {
        let k = len as usize;
        if k < self.counts.len() {
            self.counts[k] -= 1;
            if self.counts[k] == 0 {
                self.top = k - 1;
            }
        }
    }

    /// `counts[..=top]`: the thresholds some server reaches.
    #[inline]
    pub(crate) fn occupied(&self) -> &[u32] {
        &self.counts[..=self.top]
    }

    /// Every threshold's count, `0..=cap`.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    #[test]
    fn pooled_fifo_matches_a_vecdeque_per_server() {
        // Pushes and pops interleave over random servers until the pool
        // drains, then it fills and drains again: every pop must return
        // what one `VecDeque` per server returns, and the pool must never
        // hold more nodes than jobs were queued at once.
        let n = 7;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut pool = JobQueues::new(n);
        let mut deques: Vec<VecDeque<f64>> = vec![VecDeque::new(); n as usize];
        let (mut queued, mut peak, mut stamp) = (0usize, 0usize, 0.0f64);
        for round in 0..3 {
            // Fill: mostly pushes, until a few hundred jobs are queued.
            while queued < 300 {
                let s = rng.gen_range(0..n as usize);
                if rng.gen_bool(0.7) || deques[s].is_empty() {
                    stamp += 1.0;
                    pool.push(s, stamp);
                    deques[s].push_back(stamp);
                    queued += 1;
                } else {
                    assert_eq!(pool.pop(s), deques[s].pop_front().unwrap(), "round {round}");
                    queued -= 1;
                }
                peak = peak.max(queued);
            }
            // Drain: mostly pops, with pushes mixed in, until empty.
            while queued > 0 {
                let s = rng.gen_range(0..n as usize);
                if rng.gen_bool(0.2) {
                    stamp += 1.0;
                    pool.push(s, stamp);
                    deques[s].push_back(stamp);
                    queued += 1;
                    peak = peak.max(queued);
                } else if !deques[s].is_empty() {
                    assert_eq!(pool.pop(s), deques[s].pop_front().unwrap(), "round {round}");
                    queued -= 1;
                }
            }
            assert!(pool.ends.iter().all(|&e| e == (NIL, NIL)), "round {round}");
            assert_eq!(pool.jobs.len(), peak, "one node per job at the peak");
        }
    }
}
