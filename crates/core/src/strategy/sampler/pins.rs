//! Per-path pins of [`PoolSampler::draw`]: for each way a draw can go,
//! the outcome, the picks, where the generator stops and what the
//! recorder counts, against literals recorded before the rejection
//! trials were rewritten as a branch-free kernel. perfbench's
//! `sampler.share.*`, `placement.caches_bitmap_share` and
//! `sampler.budget_exhausted_per_req` read the counters pinned here.

use super::*;
use paba_popularity::Popularity;
use paba_telemetry::AtomicRecorder;
use paba_topology::Torus;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// The choice counts each path runs at: the paper's 2, its neighbours,
/// and 17, the first count past the kernel's stack buffer.
const CHOICES: [u32; 4] = [1, 2, 3, 17];

fn net(seed: u64, side: u32, k: u32, m: u32) -> CacheNetwork<Torus> {
    let mut rng = SmallRng::seed_from_u64(seed);
    CacheNetwork::builder()
        .torus_side(side)
        .library(k, Popularity::Uniform)
        .cache_size(m)
        .build(&mut rng)
}

fn pool_len(net: &CacheNetwork<Torus>, origin: u32, file: u32, r: u32) -> usize {
    (0..net.n())
        .filter(|&v| net.placement().caches(v, file) && net.topo().dist(origin, v) <= r)
        .count()
}

/// The first `(origin, file)` in scan order whose replica count, pool
/// size and index kind satisfy `pred(cnt, pool, dense)`.
fn find(net: &CacheNetwork<Torus>, r: u32, pred: impl Fn(u64, usize, bool) -> bool) -> (u32, u32) {
    for origin in 0..net.n() {
        for file in 0..net.k() {
            let p = net.placement();
            let cnt = p.replica_count(file) as u64;
            if cnt > 0 && pred(cnt, pool_len(net, origin, file, r), p.has_dense_index(file)) {
                return (origin, file);
            }
        }
    }
    panic!("no (origin, file) matches the pinned path");
}

/// Three consecutive draws of `d` candidates at `(origin, file, r)`, then
/// the generator's next word and the recorder's sampler-path counts and
/// budget, bitmap and binary-search counters.
fn transcript(
    net: &CacheNetwork<Torus>,
    origin: u32,
    file: u32,
    r: u32,
    d: u32,
    seed: u64,
) -> String {
    let rec = AtomicRecorder::new();
    let mut sampler = PoolSampler::new(SamplerKind::Hybrid);
    let mut picks = Vec::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::new();
    for _ in 0..3 {
        let drawn = sampler.draw(net, origin, file, r, d, &mut picks, &mut rng, &rec);
        out += &format!("{drawn:?} {picks:?}; ");
    }
    let snap = rec.snapshot();
    out += &format!(
        "next {} paths {:?} budget {} bitmap {} bsearch {}",
        rng.next_u64(),
        snap.paths,
        snap.counter(Counter::RejectionBudgetExhausted),
        snap.counter(Counter::CachesBitmap),
        snap.counter(Counter::CachesBinarySearch),
    );
    out
}

/// Compare the transcripts at every count in [`CHOICES`] with `expect`.
fn check(net: &CacheNetwork<Torus>, origin: u32, file: u32, r: u32, expect: [&str; 4]) {
    for (d, want) in CHOICES.into_iter().zip(expect) {
        let got = transcript(net, origin, file, r, d, 1000 + d as u64);
        assert_eq!(got, want, "origin {origin} file {file} r {r} d {d}");
    }
}

#[test]
fn ball_side_over_a_bitmap_indexed_file() {
    // cnt ≥ |B_6| = 85 and n/cnt ≤ 16: ball-side rejection, bitmap hits.
    let net = net(31, 24, 8, 2);
    let r = 6;
    let (origin, file) = find(&net, r, |cnt, pool, dense| cnt >= 85 && pool >= 20 && dense);
    check(
        &net,
        origin,
        file,
        r,
        [
            "Drawn [555]; Drawn [502]; Drawn [28]; next 11276363689113951394 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 17 bsearch 0",
            "Drawn [528, 557]; Drawn [2, 74]; Drawn [121, 94]; next 2044507614458342824 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 17 bsearch 0",
            "Drawn [121, 71, 573]; Drawn [530, 4, 555]; Drawn [479, 20, 502]; next 11403971109116224856 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 32 bsearch 0",
            "Drawn [4, 555, 71, 457, 20, 502, 121, 528, 2, 98, 529, 530, 548, 479, 28, 94, 573]; Drawn [4, 28, 502, 71, 557, 95, 20, 98, 479, 74, 529, 457, 528, 530, 121, 555, 2]; Drawn [502, 555, 94, 529, 479, 20, 121, 548, 95, 74, 457, 530, 557, 71, 573, 28, 98]; next 12698425419563752863 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 362 bsearch 0",
        ],
    );
}

#[test]
fn ball_side_over_a_binary_searched_file() {
    // n/17 < cnt < n/16: rejection still samples the ball (n/cnt = 16),
    // but the file sits below the bitmap's density threshold.
    let net = net(32, 40, 16, 1);
    let n = net.n() as u64;
    let r = 5;
    let (origin, file) = find(&net, r, |cnt, pool, dense| {
        17 * cnt > n && 16 * cnt < n && pool >= 2 && !dense
    });
    check(
        &net,
        origin,
        file,
        r,
        [
            "Drawn [1401]; Drawn [1401]; Drawn [1401]; next 2762293104226089790 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 0 bsearch 27",
            "Drawn [1401, 1520]; Drawn [1520, 1401]; Drawn [1520, 1401]; next 17125821121620303514 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 0 bsearch 231",
            "Drawn [1401, 1520]; Drawn [1401, 1520]; Drawn [1401, 1520]; next 7589959555462061519 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 0 bsearch 648",
            "Drawn [1401, 1520]; Drawn [1401, 1520]; Drawn [1401, 1520]; next 7422606451072450371 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 0 bsearch 3672",
        ],
    );
}

#[test]
fn replica_side() {
    // |B_9| = 181 > cnt: rejection proposes replicas, accepts on distance.
    let net = net(33, 20, 10, 2);
    let r = 9;
    let (origin, file) = find(&net, r, |cnt, pool, _| cnt < 181 && pool >= 20);
    check(
        &net,
        origin,
        file,
        r,
        [
            "Drawn [118]; Drawn [66]; Drawn [341]; next 7393936097625114059 paths [3, 0, 0, 0, 0, 0, 0] budget 0 bitmap 0 bsearch 0",
            "Drawn [380, 23]; Drawn [43, 379]; Drawn [361, 341]; next 7205801318035292603 paths [3, 0, 0, 0, 0, 0, 0] budget 0 bitmap 0 bsearch 0",
            "Drawn [118, 79, 396]; Drawn [360, 12, 380]; Drawn [23, 395, 40]; next 18245633422273933107 paths [3, 0, 0, 0, 0, 0, 0] budget 0 bitmap 0 bsearch 0",
            "Drawn [43, 40, 77, 302, 395, 320, 32, 79, 376, 380, 12, 299, 345, 341, 103, 78, 360]; Drawn [40, 43, 103, 302, 376, 77, 317, 395, 345, 23, 118, 321, 299, 78, 341, 361, 12]; Drawn [78, 396, 376, 361, 32, 299, 358, 317, 103, 302, 118, 341, 40, 43, 380, 379, 79]; next 5497558875059458549 paths [3, 0, 0, 0, 0, 0, 0] budget 0 bitmap 0 bsearch 0",
        ],
    );
}

#[test]
fn budget_spent_on_an_empty_pool() {
    // A dense file with no replica in B_1: every trial misses, the budget
    // runs out and the windowed path reports the empty pool.
    let net = net(34, 20, 10, 2);
    let r = 1;
    let (origin, file) = find(&net, r, |cnt, pool, _| 16 * cnt >= 400 && pool == 0);
    check(
        &net,
        origin,
        file,
        r,
        [
            "Empty []; Empty []; Empty []; next 2929094482183160181 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 96 bsearch 0",
            "Empty []; Empty []; Empty []; next 6579901868829984553 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 192 bsearch 0",
            "Empty []; Empty []; Empty []; next 15214643018631685936 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 288 bsearch 0",
            "Empty []; Empty []; Empty []; next 7745304863422305427 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 1632 bsearch 0",
        ],
    );
}

#[test]
fn budget_spent_on_a_one_node_pool() {
    // Replica side with a single replica in the ball: one pick, then the
    // budget runs out (d ≥ 2) and the windowed path yields the singleton.
    let net = net(35, 20, 40, 1);
    let r = 9;
    let (origin, file) = find(&net, r, |cnt, pool, _| cnt < 181 && pool == 1);
    check(
        &net,
        origin,
        file,
        r,
        [
            "Drawn [365]; Drawn [365]; Drawn [365]; next 1531274642299299567 paths [3, 0, 0, 0, 0, 0, 0] budget 0 bitmap 0 bsearch 0",
            "Drawn [365]; Drawn [365]; Drawn [365]; next 8017653214849264923 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 0 bsearch 0",
            "Drawn [365]; Drawn [365]; Drawn [365]; next 11403971109116224856 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 0 bsearch 0",
            "Drawn [365]; Drawn [365]; Drawn [365]; next 17265572328739893515 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 0 bsearch 0",
        ],
    );
}

#[test]
fn wrapping_regime() {
    // 2r ≥ side with r below the diameter: trials propose from the whole
    // torus and accept on distance.
    let net = net(36, 8, 2, 2);
    let r = 4;
    let (origin, file) = find(&net, r, |cnt, pool, _| cnt >= 41 && pool >= 20);
    check(
        &net,
        origin,
        file,
        r,
        [
            "Drawn [22]; Drawn [57]; Drawn [25]; next 9621758238822770 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 5 bsearch 0",
            "Drawn [0, 31]; Drawn [5, 57]; Drawn [31, 58]; next 15133138618541285338 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 11 bsearch 0",
            "Drawn [16, 10, 63]; Drawn [0, 24, 1]; Drawn [1, 15, 63]; next 1320337917141440127 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 17 bsearch 0",
            "Drawn [31, 5, 4, 11, 54, 59, 50, 47, 3, 10, 13, 17, 15, 25, 0, 18, 22]; Drawn [17, 15, 25, 59, 13, 10, 47, 56, 4, 24, 5, 54, 11, 16, 31, 1, 50]; Drawn [59, 22, 57, 50, 9, 56, 0, 58, 31, 63, 3, 54, 13, 24, 16, 4, 5]; next 12196334320811228067 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 119 bsearch 0",
        ],
    );
}

#[test]
fn zero_radius() {
    // The ball is the origin alone, which caches the file: trials draw
    // nothing, d = 1 succeeds, larger d spend the budget.
    let net = net(37, 20, 10, 2);
    let r = 0;
    let (origin, file) = find(&net, r, |cnt, pool, _| 16 * cnt >= 400 && pool == 1);
    check(
        &net,
        origin,
        file,
        r,
        [
            "Drawn [0]; Drawn [0]; Drawn [0]; next 4306274170895702295 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 3 bsearch 0",
            "Drawn [0]; Drawn [0]; Drawn [0]; next 17896467100183877286 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 144 bsearch 0",
            "Drawn [0]; Drawn [0]; Drawn [0]; next 4617099570643096503 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 216 bsearch 0",
            "Drawn [0]; Drawn [0]; Drawn [0]; next 14869070993565368544 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 1224 bsearch 0",
        ],
    );
}

#[test]
fn more_choices_than_nodes() {
    // A 9-node torus (|B_1| = 5): 3 and 17 choices outnumber every pool,
    // so those draws spend the budget and take the whole pool; 17 runs
    // the kernel on its scratch vector with fewer slots than the stack
    // buffer.
    let net = net(38, 3, 3, 2);
    let r = 1;
    let (origin, file) = find(&net, r, |cnt, pool, _| cnt < 5 && pool >= 2);
    check(
        &net,
        origin,
        file,
        r,
        [
            "Drawn [2]; Drawn [2]; Drawn [6]; next 8170999619506686837 paths [3, 0, 0, 0, 0, 0, 0] budget 0 bitmap 0 bsearch 0",
            "Drawn [6, 2]; Drawn [2, 6]; Drawn [2, 6]; next 14672731096115648227 paths [3, 0, 0, 0, 0, 0, 0] budget 0 bitmap 0 bsearch 0",
            "Drawn [2, 6]; Drawn [2, 6]; Drawn [2, 6]; next 5780748932206453156 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 0 bsearch 0",
            "Drawn [2, 6]; Drawn [2, 6]; Drawn [2, 6]; next 4827229768085083965 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 0 bsearch 0",
        ],
    );
    let (origin, file) = find(&net, r, |cnt, pool, _| cnt >= 5 && pool >= 2);
    check(
        &net,
        origin,
        file,
        r,
        [
            "Drawn [0]; Drawn [3]; Drawn [6]; next 46397301959546830 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 11 bsearch 0",
            "Drawn [6, 3]; Drawn [0, 3]; Drawn [3, 6]; next 16899575685988393540 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 9 bsearch 0",
            "Drawn [3, 0, 6]; Drawn [0, 3, 6]; Drawn [0, 3, 6]; next 17285834740110328047 paths [0, 3, 0, 0, 0, 0, 0] budget 0 bitmap 33 bsearch 0",
            "Drawn [0, 3, 6]; Drawn [0, 3, 6]; Drawn [0, 3, 6]; next 5650903616172172641 paths [0, 0, 3, 0, 0, 0, 0] budget 3 bitmap 612 bsearch 0",
        ],
    );
}
