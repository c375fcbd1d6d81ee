//! Per-layer measurements shared by the workloads: direct timings of the
//! topology, placement-mutation and ring primitives on a workload's own
//! state, the sampler-path mix from an `AtomicRecorder`, and the
//! scaling-ladder fit.

use crate::measure::{median, ns_per_op, Metric};
use paba_core::CacheNetwork;
use paba_dht::HashRing;
use paba_telemetry::{Counter, SamplerPath, TelemetrySnapshot};
use paba_topology::{Topology, Torus};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Timed samples per primitive; the median is reported.
const SAMPLES: usize = 21;

/// `topology.dist_ns` and `topology.ball_sample_ns` on `torus`, sampling
/// balls of radius `radius` (the workload's `r`; `None` means the whole
/// torus, the paper's `r = ∞ ≡ √n`).
pub fn topology(torus: &Torus, radius: Option<u32>, seed: u64) -> Vec<Metric> {
    const OPS: usize = 4096;
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = torus.n();
    let pairs: Vec<(u32, u32)> = (0..OPS)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let dist_ns = ns_per_op(SAMPLES, || {
        let mut acc = 0u64;
        for &(a, b) in &pairs {
            acc += torus.dist(black_box(a), black_box(b)) as u64;
        }
        black_box(acc);
        OPS as u64
    });
    let r = radius.unwrap_or(torus.side() / 2);
    let ball_ns = ns_per_op(SAMPLES, || {
        let mut acc = 0u64;
        for &(u, _) in &pairs {
            acc += torus.sample_in_ball(black_box(u), r, &mut rng) as u64;
        }
        black_box(acc);
        OPS as u64
    });
    vec![
        Metric::new("topology.dist_ns", dist_ns, "ns"),
        Metric::new("topology.ball_sample_ns", ball_ns, "ns"),
    ]
}

/// Sampler-path shares, wasted-attempt ratio and bitmap share from the
/// counters of an `AtomicRecorder` attached to the strategy.
pub fn sampler(snap: &TelemetrySnapshot) -> Vec<Metric> {
    let requests = snap.total_requests().max(1) as f64;
    let share = |p: SamplerPath| snap.path_count(p) as f64 / requests;
    let bitmap = snap.counter(Counter::CachesBitmap) as f64;
    let search = snap.counter(Counter::CachesBinarySearch) as f64;
    vec![
        Metric::new(
            "sampler.share.rejection-replica",
            share(SamplerPath::RejectionReplica),
            "share",
        ),
        Metric::new(
            "sampler.share.rejection-ball",
            share(SamplerPath::RejectionBall),
            "share",
        ),
        Metric::new(
            "sampler.share.windowed",
            share(SamplerPath::Windowed),
            "share",
        ),
        Metric::new(
            "sampler.share.index-sample",
            share(SamplerPath::IndexSample),
            "share",
        ),
        Metric::new(
            "sampler.share.uncached",
            share(SamplerPath::Uncached),
            "share",
        ),
        Metric::new(
            "sampler.budget_exhausted_per_req",
            snap.counter(Counter::RejectionBudgetExhausted) as f64 / requests,
            "ratio",
        ),
        Metric::new(
            "placement.caches_bitmap_share",
            if bitmap + search > 0.0 {
                bitmap / (bitmap + search)
            } else {
                0.0
            },
            "share",
        ),
    ]
}

/// `placement.mutate_ns`: one `remove` and one `insert` at a time through
/// `mutate_placement`, on resident `(node, file)` pairs of `net`'s
/// current state. Each pair is removed and put back, so the network ends
/// as it started.
pub fn placement_mutate<T: Topology>(net: &mut CacheNetwork<T>, seed: u64) -> Metric {
    const PAIRS: usize = 32;
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = net.n();
    let pairs: Vec<(u32, u32)> = (0..PAIRS)
        .filter_map(|_| {
            let u = rng.gen_range(0..n);
            let files = net.placement().node_files(u);
            (!files.is_empty()).then(|| (u, files[rng.gen_range(0..files.len())]))
        })
        .collect();
    let ns = ns_per_op(SAMPLES, || {
        for &(u, f) in &pairs {
            assert!(net.mutate_placement(|p| p.remove(u, f)), "resident pair");
            assert!(net.mutate_placement(|p| p.insert(u, f)), "freed slot");
        }
        2 * pairs.len() as u64
    });
    Metric::new("placement.mutate_ns", ns, "ns")
}

/// `dht.ring_rebuild_ns` (a `without_server` or `with_server`) and
/// `dht.lookup_replicas_ns` on `ring`, for keys `0..k`.
pub fn dht(ring: &HashRing, n: u32, k: u32, replication: usize, seed: u64) -> Vec<Metric> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let rebuild = ns_per_op(SAMPLES, || {
        let u = rng.gen_range(0..n);
        let gone = black_box(ring.without_server(u));
        black_box(gone.with_server(u));
        2
    });
    let lookup = ns_per_op(SAMPLES, || {
        let mut acc = 0usize;
        for f in 0..k {
            acc += ring.lookup_replicas(f as u64, replication).len();
        }
        black_box(acc);
        k as u64
    });
    vec![
        Metric::new("dht.ring_rebuild_ns", rebuild, "ns"),
        Metric::new("dht.lookup_replicas_ns", lookup, "ns"),
    ]
}

/// Log-log slope of cost per unit against `n` over the ladder points.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    paba_util::fit_loglog(points).map_or(0.0, |fit| fit.slope)
}

/// How a repetition is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Nothing attached.
    Untraced,
    /// Only an `AtomicRecorder` attached.
    Atomic,
    /// The recorder plus the timing wrappers.
    Traced,
}

impl Variant {
    /// The order in which a traced run interleaves the variants.
    pub const CYCLE: [Variant; 3] = [Variant::Untraced, Variant::Atomic, Variant::Traced];
}

/// Median repetition times of the three variants a traced run
/// interleaves.
#[derive(Clone, Copy, Debug, Default)]
pub struct Variants {
    pub untraced_wall: f64,
    pub traced_wall: f64,
    pub null_loop: f64,
    pub atomic_loop: f64,
}

impl Variants {
    /// Collect the three variants' medians from per-repetition
    /// `(variant, wall_s, loop_s)` samples.
    pub fn from_samples(samples: &[(Variant, f64, f64)]) -> Self {
        let pick = |v: Variant, f: fn(&(Variant, f64, f64)) -> f64| {
            median(
                &samples
                    .iter()
                    .filter(|s| s.0 == v)
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        Self {
            untraced_wall: pick(Variant::Untraced, |s| s.1),
            traced_wall: pick(Variant::Traced, |s| s.1),
            null_loop: pick(Variant::Untraced, |s| s.2),
            atomic_loop: pick(Variant::Atomic, |s| s.2),
        }
    }

    /// `telemetry.atomic_overhead`, `trace.overhead_s`, `trace.overhead_share`.
    pub fn metrics(&self) -> Vec<Metric> {
        let overhead = self.traced_wall - self.untraced_wall;
        vec![
            Metric::new(
                "telemetry.atomic_overhead",
                self.atomic_loop / self.null_loop.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            Metric::new("trace.overhead_s", overhead, "s"),
            Metric::new(
                "trace.overhead_share",
                overhead / self.untraced_wall.max(f64::MIN_POSITIVE),
                "share",
            ),
        ]
    }
}
