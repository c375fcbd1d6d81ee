//! Machine-speed calibration.
//!
//! On a shared virtual machine the speed of a core changes by up to ~1.7×
//! for tens of seconds at a time as neighbours come and go, far more than
//! any bound worth gating on. A fixed reference kernel, owned by this
//! benchmark and independent of the program under test, is timed between
//! repetitions (after the first pass over the inputs), before every timed
//! set-up, and before the micro-benchmarks. A run's timings are reported
//! scaled by `REFERENCE_S / median kernel time`, i.e. in seconds of a
//! machine on which the kernel takes exactly [`REFERENCE_S`]. A change to
//! the program moves the repetition times but not the kernel, so it shows
//! in full.

use crate::measure::median;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Nominal kernel time: the scale the adjusted timings are expressed in.
pub const REFERENCE_S: f64 = 0.02;

/// Pairs sorted per pass: 1 MiB, freshly allocated each time, like the
/// ring rebuilds and placement builds of the workloads.
const SORTED: usize = 1 << 16;
/// Length of the vector summed per pass: 16 KiB, like the queue-length
/// vectors the queueing engine scans.
const SUMMED: usize = 1 << 12;
/// Table of the dependent reads of [`Kernel::Memory`]: 8 MiB of `u64`,
/// beyond the per-core caches.
const TABLE: usize = 1 << 20;

/// What the reference kernel exercises, matched to a workload's working
/// set. Both kinds sort freshly allocated random pairs and sum a
/// cache-resident vector; over ten minutes of back-to-back `queue-hot`
/// runs these tracked the engine's slow phases best, while dependent
/// reads over a large table barely slowed when it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Sorts and sums only: for workloads that live in the caches.
    Cache,
    /// Also dependent reads over 8 MiB: for workloads whose structures
    /// outgrow the caches (`static-zipf`'s 10⁵-node placements).
    Memory,
}

fn kernel(kind: Kernel, table: &[u64]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    if kind == Kernel::Memory {
        let mut i = 0usize;
        for _ in 0..(1 << 16) {
            i = (table[i] ^ x) as usize & (TABLE - 1);
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17) ^ i as u64;
        }
    }
    let mut acc = 0u64;
    for _ in 0..4 {
        let mut pairs: Vec<(u64, u32)> = (0..SORTED as u32)
            .map(|k| {
                x = mix(x.wrapping_add(k as u64));
                (x, k)
            })
            .collect();
        pairs.sort_unstable();
        acc ^= pairs[SORTED / 2].0;
    }
    let lens: Vec<u32> = (0..SUMMED as u32).map(|k| k ^ x as u32).collect();
    for k in 0..4000u64 {
        acc = acc.wrapping_add(black_box(&lens).iter().map(|&l| l as u64).sum::<u64>() ^ k);
    }
    acc
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The reference kernel, timed on `threads` threads at once (the
/// workload's own thread count, so both cores are probed when the
/// workload uses both), and the probes taken so far.
pub struct Calibration {
    kind: Kernel,
    threads: usize,
    probes: RefCell<Vec<f64>>,
}

impl Calibration {
    pub fn new(kind: Kernel, threads: usize) -> Self {
        Self {
            kind,
            threads: threads.max(1),
            probes: RefCell::new(Vec::new()),
        }
    }

    /// Time the kernel now and remember the result. The read table lives
    /// only while the probe runs.
    pub fn probe(&self) {
        let table: Vec<u64> = match self.kind {
            Kernel::Memory => (0..TABLE as u64).map(mix).collect(),
            Kernel::Cache => Vec::new(),
        };
        let (kind, table) = (self.kind, &table);
        let t = Instant::now();
        if self.threads == 1 {
            black_box(kernel(kind, table));
        } else {
            std::thread::scope(|s| {
                for _ in 0..self.threads {
                    s.spawn(|| black_box(kernel(kind, table)));
                }
            });
        }
        self.probes.borrow_mut().push(t.elapsed().as_secs_f64());
    }

    /// Factor to multiply the timings taken alongside these probes by:
    /// `REFERENCE_S` over the median probe (1 before the first probe).
    pub fn speed(&self) -> f64 {
        let probes = self.probes.borrow();
        if probes.is_empty() {
            1.0
        } else {
            REFERENCE_S / median(&probes)
        }
    }
}
