//! Exact static delivery output, pinned.
//!
//! Each placement regime (with-replacement Zipf, distinct, and a cache
//! larger than the library) is built from a fixed seed and served by four
//! strategies — two choices at a finite radius and at r = ∞, the nearest
//! replica, and the least-loaded holder in a ball — through `simulate`.
//! Every run must reproduce the recorded `SimReport` to the bit, and every
//! placement its recorded node and replica lists. The literals come from
//! the build that sorted and deduplicated each node's raw draws and pushed
//! into growing replica lists, so they hold any faster build to that
//! build's RNG stream and placement.

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
const PLACEMENTS: [(&str, u32, u32, u32, f64, PlacementPolicy); 3] = [
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
];

const STRATEGIES: [&str; 4] = ["two-choice r=3", "two-choice r=inf", "nearest", "least r=3"];

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
        _ => simulate(net, &mut LeastLoadedInBall::new(Some(3)), requests, rng),
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

/// Recorded per regime, in the order of [`PLACEMENTS`].
const EXPECTED_PLACEMENTS: [(u64, u64); 3] = [
    (0x3c353966f4706198, 0xf97b3ffbb15fcd1f),
    (0x43b83eeabceeeb13, 0x5e2a168e30376a07),
    (0x2030afb85390a426, 0xc159f6ab9d3c97c0),
];

/// Recorded per `(regime, strategy)`, in the nested order of
/// [`PLACEMENTS`] and [`STRATEGIES`].
#[rustfmt::skip]
const EXPECTED_RUNS: [Run; 12] = [
    // zipf, two-choice r=3
    ([512, 1572, 86, 104, 0], 5, 0x09544459e6b455fd),
    // zipf, two-choice r=inf
    ([512, 4158, 21, 0, 0], 4, 0x482c1ccaaee4bc17),
    // zipf, nearest
    ([512, 1003, 0, 0, 0], 7, 0x357d3ed615b93182),
    // zipf, least r=3
    ([512, 1584, 0, 100, 0], 5, 0x540c120eecf1054e),
    // distinct, two-choice r=3
    ([512, 1427, 107, 107, 0], 6, 0x085d631fc272ac9b),
    // distinct, two-choice r=inf
    ([512, 4074, 7, 0, 0], 4, 0x84c176310cb460a7),
    // distinct, nearest
    ([512, 993, 0, 0, 0], 8, 0xbdba8bc398d23901),
    // distinct, least r=3
    ([512, 1436, 0, 99, 0], 5, 0x9d1aafac2059c8bd),
    // m>k, two-choice r=3
    ([288, 645, 0, 0, 0], 4, 0x25dbd7217cfc37a3),
    // m>k, two-choice r=inf
    ([288, 1745, 0, 0, 0], 4, 0xf095b7e6ec7f44b8),
    // m>k, nearest
    ([288, 45, 0, 0, 0], 7, 0x50da37d7ef37a857),
    // m>k, least r=3
    ([288, 622, 0, 0, 0], 3, 0xf3196662fbd54498),
];

#[test]
fn static_output_matches_the_recorded_literals() {
    for (i, &(label, ..)) in PLACEMENTS.iter().enumerate() {
        let net = network(i);
        assert_eq!(
            observe_placement(&net),
            EXPECTED_PLACEMENTS[i],
            "placement {label}"
        );
        for (j, strategy) in STRATEGIES.iter().enumerate() {
            assert_eq!(
                observe_run(&run(&net, j)),
                EXPECTED_RUNS[4 * i + j],
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
