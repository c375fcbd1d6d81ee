//! Exact static delivery output, pinned.
//!
//! Each placement regime (with-replacement Zipf, distinct, a cache larger
//! than the library, and the full library) is built from a fixed seed and
//! served by six strategies — two and three choices at a finite radius
//! and at r = ∞, the nearest replica, and the least-loaded holder in a
//! ball — through `simulate`. Every run must reproduce the recorded
//! `SimReport` to the bit, and every sparse placement its recorded node
//! and replica lists. The placement literals and the two-choice, nearest
//! and least-loaded runs of the sparse regimes come from the build that
//! sorted and deduplicated each node's raw draws and pushed into growing
//! replica lists, so they hold any faster build to that build's RNG
//! stream and placement. The three-choice runs and the full-library
//! regime were recorded while candidate sampling still had a
//! with-replacement mode; they pin the in-ball draws on a full placement
//! and the index and pool draws with `d > 2`.

use paba_core::{
    simulate, CacheNetwork, LeastLoadedInBall, NearestReplica, PlacementPolicy, ProximityChoice,
    SimReport,
};
use paba_popularity::Popularity;
use paba_topology::Torus;
use paba_util::mix_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fold(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0, mix_seed)
}

/// `(label, torus side, K, M, Zipf γ, policy)`.
const PLACEMENTS: [(&str, u32, u32, u32, f64, PlacementPolicy); 4] = [
    (
        "zipf",
        16,
        200,
        5,
        1.2,
        PlacementPolicy::ProportionalWithReplacement,
    ),
    (
        "distinct",
        16,
        100,
        6,
        0.8,
        PlacementPolicy::ProportionalDistinct,
    ),
    (
        "m>k",
        12,
        6,
        10,
        1.0,
        PlacementPolicy::ProportionalWithReplacement,
    ),
    ("full", 12, 6, 1, 1.0, PlacementPolicy::FullLibrary),
];

const STRATEGIES: [&str; 6] = [
    "two-choice r=3",
    "two-choice r=inf",
    "nearest",
    "least r=3",
    "three-choice r=3",
    "three-choice r=inf",
];

fn network(regime: usize) -> CacheNetwork<Torus> {
    let (_, side, k, m, gamma, policy) = PLACEMENTS[regime];
    CacheNetwork::builder()
        .torus_side(side)
        .library(k, Popularity::zipf(gamma))
        .cache_size(m)
        .placement_policy(policy)
        .build(&mut SmallRng::seed_from_u64(5 + regime as u64))
}

fn run(net: &CacheNetwork<Torus>, strategy: usize) -> SimReport {
    let requests = 2 * net.n() as u64;
    let rng = &mut SmallRng::seed_from_u64(0xFEED + strategy as u64);
    match strategy {
        0 => simulate(
            net,
            &mut ProximityChoice::two_choice(Some(3)),
            requests,
            rng,
        ),
        1 => simulate(net, &mut ProximityChoice::two_choice(None), requests, rng),
        2 => simulate(net, &mut NearestReplica::new(), requests, rng),
        3 => simulate(net, &mut LeastLoadedInBall::new(Some(3)), requests, rng),
        4 => simulate(
            net,
            &mut ProximityChoice::with_choices(Some(3), 3),
            requests,
            rng,
        ),
        _ => simulate(
            net,
            &mut ProximityChoice::with_choices(None, 3),
            requests,
            rng,
        ),
    }
}

/// The `SimReport` counters in declaration order after `loads`, then max
/// load and the fold of the load vector.
type Run = ([u64; 5], u32, u64);

fn observe_run(r: &SimReport) -> Run {
    (
        [
            r.total_requests,
            r.total_hops,
            r.single_candidate,
            r.no_candidate_in_ball,
            r.uncached,
        ],
        r.max_load(),
        fold(r.loads.iter().map(|&l| l as u64)),
    )
}

/// Folds of every node's file list and of every file's replica list, each
/// list led by a separator word.
fn observe_placement(net: &CacheNetwork<Torus>) -> (u64, u64) {
    let p = net.placement();
    let nodes =
        fold((0..p.n()).flat_map(|u| {
            std::iter::once(u64::MAX).chain(p.node_files(u).iter().map(|&f| f as u64))
        }));
    let replicas = fold((0..p.k()).flat_map(|f| {
        let list = p.replica_list(f).expect("sparse placement");
        std::iter::once(u64::MAX).chain(list.iter().map(|&u| u as u64))
    }));
    (nodes, replicas)
}

/// Recorded per sparse regime, in the order of [`PLACEMENTS`].
const EXPECTED_PLACEMENTS: [(u64, u64); 3] = [
    (0x3c353966f4706198, 0xf97b3ffbb15fcd1f),
    (0x43b83eeabceeeb13, 0x5e2a168e30376a07),
    (0x2030afb85390a426, 0xc159f6ab9d3c97c0),
];

/// Recorded per `(regime, strategy)`, in the nested order of
/// [`PLACEMENTS`] and [`STRATEGIES`].
#[rustfmt::skip]
const EXPECTED_RUNS: [Run; 24] = [
    // zipf, two-choice r=3
    ([512, 1572, 86, 104, 0], 5, 0x09544459e6b455fd),
    // zipf, two-choice r=inf
    ([512, 4158, 21, 0, 0], 4, 0x482c1ccaaee4bc17),
    // zipf, nearest
    ([512, 1003, 0, 0, 0], 7, 0x357d3ed615b93182),
    // zipf, least r=3
    ([512, 1584, 0, 100, 0], 5, 0x540c120eecf1054e),
    // zipf, three-choice r=3
    ([512, 1613, 72, 117, 0], 6, 0x8c6ed0dfaf9b1fcd),
    // zipf, three-choice r=inf
    ([512, 4009, 17, 0, 0], 4, 0x2542594b028352b3),
    // distinct, two-choice r=3
    ([512, 1427, 107, 107, 0], 6, 0x085d631fc272ac9b),
    // distinct, two-choice r=inf
    ([512, 4074, 7, 0, 0], 4, 0x84c176310cb460a7),
    // distinct, nearest
    ([512, 993, 0, 0, 0], 8, 0xbdba8bc398d23901),
    // distinct, least r=3
    ([512, 1436, 0, 99, 0], 5, 0x9d1aafac2059c8bd),
    // distinct, three-choice r=3
    ([512, 1428, 92, 89, 0], 4, 0x9036b7f135eec016),
    // distinct, three-choice r=inf
    ([512, 4034, 4, 0, 0], 4, 0x089b91a41d286424),
    // m>k, two-choice r=3
    ([288, 645, 0, 0, 0], 4, 0x25dbd7217cfc37a3),
    // m>k, two-choice r=inf
    ([288, 1745, 0, 0, 0], 4, 0xf095b7e6ec7f44b8),
    // m>k, nearest
    ([288, 45, 0, 0, 0], 7, 0x50da37d7ef37a857),
    // m>k, least r=3
    ([288, 622, 0, 0, 0], 3, 0xf3196662fbd54498),
    // m>k, three-choice r=3
    ([288, 643, 0, 0, 0], 3, 0xb01a54f7294701b4),
    // m>k, three-choice r=inf
    ([288, 1803, 0, 0, 0], 3, 0x7583c39756a55a0a),
    // full, two-choice r=3
    ([288, 639, 0, 0, 0], 4, 0xd2438805912c7ded),
    // full, two-choice r=inf
    ([288, 1679, 0, 0, 0], 4, 0x4faab5bdabda716c),
    // full, nearest
    ([288, 0, 0, 0, 0], 6, 0xa835d9922b38c0b6),
    // full, least r=3
    ([288, 645, 0, 0, 0], 3, 0x57bb63731523b021),
    // full, three-choice r=3
    ([288, 651, 0, 0, 0], 3, 0x4f5e9c00520da925),
    // full, three-choice r=inf
    ([288, 1791, 0, 0, 0], 3, 0xd4707b0fa17a5178),
];

#[test]
fn static_output_matches_the_recorded_literals() {
    for (i, &(label, ..)) in PLACEMENTS.iter().enumerate() {
        let net = network(i);
        if let Some(&expected) = EXPECTED_PLACEMENTS.get(i) {
            assert_eq!(observe_placement(&net), expected, "placement {label}");
        }
        for (j, strategy) in STRATEGIES.iter().enumerate() {
            assert_eq!(
                observe_run(&run(&net, j)),
                EXPECTED_RUNS[STRATEGIES.len() * i + j],
                "placement {label}, {strategy}"
            );
        }
    }
}

#[test]
fn the_pinned_runs_cover_the_fallbacks() {
    // Anti-vacuity: at r = 3 some requests find one candidate or none in
    // the ball, so the literals pin those paths too.
    let runs = EXPECTED_RUNS.map(|(c, ..)| c);
    assert!(runs.iter().any(|c| c[2] > 0), "single-candidate");
    assert!(runs.iter().any(|c| c[3] > 0), "no candidate in the ball");
}
