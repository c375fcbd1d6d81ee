//! Exact churn output, pinned.
//!
//! Every repair policy × graceful fraction × seed runs a side-12 churned
//! delivery phase whose inserts evict under capacity pressure, and must
//! reproduce the recorded `ChurnReport`, the `SimReport` max load, total
//! hops and load vector, and the final placement, to the bit. The
//! literals come from the engine that rebuilt its ring on every event
//! and scanned every file on join, so they hold any faster engine to
//! that engine's RNG stream and placement decisions. A kill-heavy
//! schedule (crashes only, nine in ten nodes cycled) is pinned the same
//! way, with literals from the engine that read one ring through its
//! liveness mask and walked a joiner's ring arcs.

use paba_churn::{
    simulate_churn, ChurnCfg, ChurnReport, ChurnSchedule, RepairPolicy, ScheduleSpec,
};
use paba_core::{CacheNetwork, IidUniform, ProximityChoice};
use paba_popularity::Popularity;
use paba_telemetry::NullRecorder;
use paba_util::mix_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// What one run must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    churn: ChurnReport,
    max_load: u32,
    total_hops: u64,
    /// Fold of the final per-server load vector.
    loads_hash: u64,
    /// Fold of every node's final cached-file list.
    placement_hash: u64,
}

fn fold(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0, mix_seed)
}

fn observe(repair: RepairPolicy, spec: ScheduleSpec, seed: u64) -> Observed {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = CacheNetwork::builder()
        .torus_side(12)
        .library(60, Popularity::zipf(0.8))
        .cache_size(6)
        .build(&mut rng);
    let requests = 4 * net.n() as u64;
    let schedule = ChurnSchedule::generate(&spec, net.n(), net.k(), requests, seed ^ 0xC0FFEE);
    let cfg = ChurnCfg {
        repair,
        salt: seed,
        ..ChurnCfg::default()
    };
    let mut strategy = ProximityChoice::two_choice(Some(4));
    let mut source = IidUniform::new();
    let mut run_rng = SmallRng::seed_from_u64(seed ^ 0xFEED);
    let (sim, churn) = simulate_churn(
        &mut net,
        &mut strategy,
        &mut source,
        requests,
        &schedule,
        cfg,
        &mut run_rng,
        &NullRecorder,
    );
    let p = net.placement();
    Observed {
        churn,
        max_load: sim.max_load(),
        total_hops: sim.total_hops,
        loads_hash: fold(sim.loads.iter().map(|&l| l as u64)),
        placement_hash: fold((0..net.n()).flat_map(|u| {
            std::iter::once(u64::MAX).chain(p.node_files(u).iter().map(|&f| f as u64))
        })),
    }
}

const REPAIRS: [RepairPolicy; 3] = [
    RepairPolicy::None,
    RepairPolicy::Random,
    RepairPolicy::TwoChoices,
];
const GRACEFUL: [f64; 3] = [0.0, 0.5, 1.0];
const SEEDS: [u64; 2] = [3, 8];

/// The schedule of [`EXPECTED`]: a quarter of the nodes cycled, 40 inserts.
fn schedule(graceful_fraction: f64) -> ScheduleSpec {
    ScheduleSpec {
        cycle_fraction: 0.25,
        graceful_fraction,
        inserts: 40,
    }
}

/// Crashes only, with nine in ten nodes cycled: outages overlap so far
/// that some files lose most of their ring successors at once.
const KILL_HEAVY: ScheduleSpec = ScheduleSpec {
    cycle_fraction: 0.9,
    graceful_fraction: 0.0,
    inserts: 40,
};

/// One recorded run: the `ChurnReport` fields in declaration order, then
/// max load, total hops, and the load and placement folds.
type Row = ([u64; 8], u32, u64, u64, u64);

/// Recorded for `(repair, graceful, seed)` in the nested order of
/// [`REPAIRS`], [`GRACEFUL`], [`SEEDS`].
#[rustfmt::skip]
const EXPECTED: [Row; 18] = [
    // none, graceful 0.0, seed 3
    ([112, 0, 74, 0, 0, 120, 71, 0], 7, 1673, 0x86e68a2f7ebc2094, 0x0f7d06667a11b717),
    // none, graceful 0.0, seed 8
    ([112, 0, 88, 0, 0, 120, 79, 0], 7, 1734, 0x7e142f76a9ce9696, 0x0c17ff3efc6cc9f6),
    // none, graceful 0.5, seed 3
    ([112, 0, 47, 0, 33, 120, 91, 41], 8, 1712, 0xf172d34328b67663, 0xc4cedce95ec7951d),
    // none, graceful 0.5, seed 8
    ([112, 0, 31, 0, 29, 120, 88, 94], 7, 1756, 0x21dc288f77dc1f01, 0xb253bbb1cfed3b88),
    // none, graceful 1.0, seed 3
    ([112, 0, 0, 0, 52, 120, 87, 159], 8, 1718, 0x7efa0ac8534cebce, 0x6bfdf5402097365f),
    // none, graceful 1.0, seed 8
    ([112, 0, 0, 0, 37, 120, 87, 175], 7, 1784, 0x318c5d586a586790, 0xd8a172a6f477ed7d),
    // random, graceful 0.0, seed 3
    ([112, 0, 0, 0, 286, 120, 109, 142], 7, 1747, 0x637cdd09ebeca837, 0xa08e95a617fb932e),
    // random, graceful 0.0, seed 8
    ([112, 0, 0, 0, 272, 120, 108, 158], 7, 1735, 0x8d78d88fc892ebd2, 0xf9a993434fd0242d),
    // random, graceful 0.5, seed 3
    ([112, 0, 0, 0, 281, 120, 106, 143], 7, 1747, 0x880e7b596411f8da, 0x8db5553cc0f73bf5),
    // random, graceful 0.5, seed 8
    ([112, 0, 0, 0, 262, 120, 105, 159], 6, 1750, 0xc6d238b804f8dc02, 0xe768868bef19a7c6),
    // random, graceful 1.0, seed 3
    ([112, 0, 0, 0, 251, 120, 96, 164], 6, 1727, 0x7ee0b6685d9a0943, 0xfce8312b49ba027f),
    // random, graceful 1.0, seed 8
    ([112, 0, 0, 0, 247, 120, 98, 175], 7, 1770, 0xaf1e70eaf206580f, 0x26ec7027535568b0),
    // two-choices, graceful 0.0, seed 3
    ([112, 0, 0, 0, 278, 120, 103, 146], 8, 1750, 0x8481cf4d13b4bdda, 0x1554512dbcfd4d28),
    // two-choices, graceful 0.0, seed 8
    ([112, 0, 0, 0, 262, 120, 103, 162], 6, 1762, 0x55f548668ad18bc6, 0xb3998f60dabee0d6),
    // two-choices, graceful 0.5, seed 3
    ([112, 0, 0, 0, 279, 120, 101, 148], 7, 1735, 0x6f31f870840db843, 0xcf8e923547913871),
    // two-choices, graceful 0.5, seed 8
    ([112, 0, 0, 0, 258, 120, 98, 165], 6, 1749, 0xf131fbf36c9685a9, 0x4c8a324c1ec98941),
    // two-choices, graceful 1.0, seed 3
    ([112, 0, 0, 0, 258, 120, 84, 167], 7, 1729, 0x691b407452cf6616, 0xf62bcc155b92f90f),
    // two-choices, graceful 1.0, seed 8
    ([112, 0, 0, 0, 240, 120, 90, 182], 7, 1738, 0xc0d830c617a10793, 0x8d1eab56b7099bfd),
];

fn expected(&(c, max_load, total_hops, loads_hash, placement_hash): &Row) -> Observed {
    Observed {
        churn: ChurnReport {
            events_applied: c[0],
            events_skipped: c[1],
            retries: c[2],
            failed: c[3],
            migrations: c[4],
            inserted: c[5],
            evictions: c[6],
            lost: c[7],
        },
        max_load,
        total_hops,
        loads_hash,
        placement_hash,
    }
}

#[test]
fn churn_output_matches_the_recorded_literals() {
    let mut i = 0;
    for repair in REPAIRS {
        for graceful in GRACEFUL {
            for seed in SEEDS {
                assert_eq!(
                    observe(repair, schedule(graceful), seed),
                    expected(&EXPECTED[i]),
                    "repair {}, graceful {graceful}, seed {seed}",
                    repair.label()
                );
                i += 1;
            }
        }
    }
}

/// Recorded for `(repair, seed)` in the nested order of [`REPAIRS`] and
/// [`SEEDS`] under [`KILL_HEAVY`].
#[rustfmt::skip]
const EXPECTED_KILL_HEAVY: [Row; 6] = [
    // none, seed 3
    ([300, 0, 490, 7, 0, 120, 80, 0], 11, 1641, 0x06ef53e294bd8d65, 0x74d29e4ab17282fb),
    // none, seed 8
    ([300, 0, 432, 7, 0, 120, 83, 0], 10, 1632, 0x8b625ba9a5e88fa2, 0x0ebb95ccdd608b77),
    // random, seed 3
    ([300, 0, 0, 0, 845, 120, 112, 701], 9, 1841, 0x70afdc500a9b0f82, 0x1f667c5630c4ccd5),
    // random, seed 8
    ([300, 0, 0, 0, 824, 120, 110, 717], 7, 1857, 0xf13e8a513dce2537, 0x11d5bae648ce7e62),
    // two-choices, seed 3
    ([300, 0, 0, 0, 833, 120, 99, 709], 8, 1823, 0x84d1dc6847bac828, 0x33f2350eba72f134),
    // two-choices, seed 8
    ([300, 0, 0, 0, 821, 120, 104, 721], 8, 1819, 0xbfd21eafce58c242, 0xfe3c8f11edd6f1bd),
];

#[test]
fn kill_heavy_churn_matches_the_recorded_literals() {
    let mut i = 0;
    for repair in REPAIRS {
        for seed in SEEDS {
            assert_eq!(
                observe(repair, KILL_HEAVY, seed),
                expected(&EXPECTED_KILL_HEAVY[i]),
                "repair {}, seed {seed}",
                repair.label()
            );
            i += 1;
        }
    }
}

#[test]
fn the_pinned_runs_cover_pressure_and_handoff() {
    // Anti-vacuity: the literals above would pin little if the runs
    // never evicted, handed off or failed over.
    let runs: Vec<ChurnReport> = EXPECTED.iter().map(|r| expected(r).churn).collect();
    assert!(runs.iter().all(|c| c.inserted > 0 && c.evictions > 0));
    // Graceful 1.0 runs only leave, so every migration there is a handoff
    // or a join refill.
    assert!([4, 5, 10, 11, 16, 17]
        .iter()
        .all(|&i| runs[i].migrations > 0));
    // Repair off under crashes only: failover must fire.
    assert!(runs[..2].iter().all(|c| c.retries > 0));
}
