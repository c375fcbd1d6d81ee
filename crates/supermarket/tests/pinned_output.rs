//! Exact queueing output, pinned.
//!
//! Five seeded runs on a side-12 torus with a Zipf library and partial
//! replication cover unconstrained two-choice dispatch, random dispatch
//! (`d = 1`), a stale load signal, a strided queue-length series, and a
//! warmup boundary late in the run with a backlog carried across it. Each
//! must reproduce its recorded `QueueReport` to the bit: integers
//! exactly, every f64 by `to_bits`, and the tail vector and the series
//! through a fold of their bits. The literals come from the engine that
//! re-summed every queue length on every event, so they hold any faster
//! engine to that engine's RNG stream and measurement window.

use paba_core::{CacheNetwork, IidUniform, ProximityChoice, StaleLoad, Strategy};
use paba_popularity::Popularity;
use paba_supermarket::{simulate_queueing_source, QueueReport, QueueSimConfig};
use paba_topology::Torus;
use paba_util::mix_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[derive(Clone, Copy, Debug)]
enum Case {
    TwoChoice,
    Random,
    Stale,
    Strided,
    LateWarmup,
}

const CASES: [Case; 5] = [
    Case::TwoChoice,
    Case::Random,
    Case::Stale,
    Case::Strided,
    Case::LateWarmup,
];

/// What one run must reproduce: every `QueueReport` field, f64s as bits.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    max_queue: u32,
    pre_warmup_max_queue: u32,
    mean_queue: u64,
    /// Fold of the tail vector's bits.
    tail_hash: u64,
    mean_response: u64,
    sojourn_p50: u64,
    sojourn_p99: u64,
    sojourn_p999: u64,
    completed: u64,
    dispatched: u64,
    comm_cost: u64,
    window: u64,
    n: u32,
    series_points: usize,
    /// Fold of the stride and every series point's fields, as bits.
    series_hash: u64,
}

fn fold(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0, mix_seed)
}

fn run<S: Strategy<Torus>>(
    net: &CacheNetwork<Torus>,
    mut strategy: S,
    cfg: &QueueSimConfig,
    rng: &mut SmallRng,
) -> QueueReport {
    let mut source = IidUniform::new();
    simulate_queueing_source(net, &mut strategy, &mut source, cfg, rng)
}

fn observe(case: Case, seed: u64) -> Observed {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = CacheNetwork::builder()
        .torus_side(12)
        .library(40, Popularity::zipf(0.8))
        .cache_size(5)
        .build(&mut rng);
    let cfg = QueueSimConfig {
        lambda: 0.9,
        horizon: 300.0,
        warmup: 100.0,
        tail_cap: 16,
        stride: 0,
    };
    let r = match case {
        Case::TwoChoice => run(&net, ProximityChoice::two_choice(None), &cfg, &mut rng),
        Case::Random => run(
            &net,
            ProximityChoice::with_choices(Some(3), 1),
            &cfg,
            &mut rng,
        ),
        Case::Stale => {
            let stale = StaleLoad::new(ProximityChoice::two_choice(Some(4)), 64);
            run(&net, stale, &cfg, &mut rng)
        }
        Case::Strided => {
            let cfg = QueueSimConfig { stride: 97, ..cfg };
            run(&net, ProximityChoice::two_choice(Some(2)), &cfg, &mut rng)
        }
        Case::LateWarmup => {
            let cfg = QueueSimConfig {
                lambda: 0.97,
                horizon: 220.0,
                warmup: 187.3,
                ..cfg
            };
            run(&net, ProximityChoice::with_choices(None, 1), &cfg, &mut rng)
        }
    };
    Observed {
        max_queue: r.max_queue,
        pre_warmup_max_queue: r.pre_warmup_max_queue,
        mean_queue: r.mean_queue.to_bits(),
        tail_hash: fold(r.tail.iter().map(|x| x.to_bits())),
        mean_response: r.mean_response.to_bits(),
        sojourn_p50: r.sojourn_p50.to_bits(),
        sojourn_p99: r.sojourn_p99.to_bits(),
        sojourn_p999: r.sojourn_p999.to_bits(),
        completed: r.completed,
        dispatched: r.dispatched,
        comm_cost: r.comm_cost.to_bits(),
        window: r.window.to_bits(),
        n: r.n,
        series_points: r.series.points.len(),
        series_hash: fold(
            std::iter::once(r.series.stride).chain(r.series.points.iter().flat_map(|p| {
                [
                    p.requests,
                    p.max_load.to_bits(),
                    p.mean_load.to_bits(),
                    p.gap_to_mean.to_bits(),
                    p.p99.to_bits(),
                ]
            })),
        ),
    }
}

/// Recorded in the order of [`CASES`], case `i` on seed `40 + i`.
#[rustfmt::skip]
const EXPECTED: [Observed; 5] = [
    // two-choice, no radius
    Observed {
        max_queue: 7, pre_warmup_max_queue: 6, completed: 25657, dispatched: 26003, n: 144,
        mean_queue: 0x4003dcb322f6e5b5, tail_hash: 0xcdf059c2124a6467,
        mean_response: 0x4005d6f4ce937c99, sojourn_p50: 0x40029f9240facf41,
        sojourn_p99: 0x40218c17bdd7ef1b, sojourn_p999: 0x40279dc3f0bfe60a,
        comm_cost: 0x4017fbbf3843a7ac, window: 0x4069000000000000,
        series_points: 0, series_hash: 0x48218226ff3cd4bf,
    },
    // d = 1 within radius 3
    Observed {
        max_queue: 179, pre_warmup_max_queue: 69, completed: 23254, dispatched: 25921, n: 144,
        mean_queue: 0x402b81199b6bf99d, tail_hash: 0x9946f8e708919ba6,
        mean_response: 0x4029d4da57fe6772, sojourn_p50: 0x401a1361d48aae0e,
        sojourn_p99: 0x4056401db0699abd, sojourn_p999: 0x405baa677d7d7cad,
        comm_cost: 0x40032d0173a8e46a, window: 0x4069000000000000,
        series_points: 0, series_hash: 0x48218226ff3cd4bf,
    },
    // two-choice within radius 4 on a snapshot refreshed every 64 arrivals
    Observed {
        max_queue: 18, pre_warmup_max_queue: 13, completed: 25435, dispatched: 25897, n: 144,
        mean_queue: 0x4005ae5174ea9559, tail_hash: 0x70ee4ea10d0986ce,
        mean_response: 0x4007e2559805769b, sojourn_p50: 0x400428928fa89744,
        sojourn_p99: 0x4024f877767d9272, sojourn_p999: 0x403088c3fb82e2eb,
        comm_cost: 0x4007f2009ce653ed, window: 0x4069000000000000,
        series_points: 0, series_hash: 0x48218226ff3cd4bf,
    },
    // two-choice within radius 2, series every 97 arrivals
    Observed {
        max_queue: 60, pre_warmup_max_queue: 18, completed: 25324, dispatched: 25873, n: 144,
        mean_queue: 0x4012466178ed5542, tail_hash: 0xd15d612f7d380e80,
        mean_response: 0x4013f295848972d9, sojourn_p50: 0x400e8db4c05fd6e9,
        sojourn_p99: 0x40379d6e7849c5f9, sojourn_p999: 0x4043c2446e6a3543,
        comm_cost: 0x3ffe6412a4264599, window: 0x4069000000000000,
        series_points: 399, series_hash: 0x8ff5fb48a31b81ec,
    },
    // random dispatch at λ = 0.97, window [187.3, 220)
    Observed {
        max_queue: 128, pre_warmup_max_queue: 108, completed: 2519, dispatched: 4571, n: 144,
        mean_queue: 0x4030e6361dc227f9, tail_hash: 0xf098b4abb2382988,
        mean_response: 0x401b45957dcc268b, sojourn_p50: 0x401428499ad52980,
        sojourn_p99: 0x403b204cf0873c3f, sojourn_p999: 0x403fc85ad94d038d,
        comm_cost: 0x40182fb76acd50b4, window: 0x4040599999999998,
        series_points: 0, series_hash: 0x48218226ff3cd4bf,
    },
];

#[test]
fn queueing_output_matches_the_recorded_literals() {
    for (i, (case, expected)) in CASES.into_iter().zip(&EXPECTED).enumerate() {
        assert_eq!(&observe(case, 40 + i as u64), expected, "{case:?}");
    }
}

#[test]
fn the_pinned_runs_cover_their_cases() {
    // Anti-vacuity: every window completes jobs, only the strided run
    // samples a series, and the late window opens on a backlog that
    // outgrows the transient's peak.
    assert!(EXPECTED
        .iter()
        .all(|o| 0 < o.completed && o.completed <= o.dispatched));
    for (case, o) in CASES.iter().zip(&EXPECTED) {
        assert_eq!(
            o.series_points > 0,
            matches!(case, Case::Strided),
            "{case:?}"
        );
    }
    let late = &EXPECTED[4];
    assert!(late.max_queue > late.pre_warmup_max_queue);
}
