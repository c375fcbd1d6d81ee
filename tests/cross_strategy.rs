//! Statistical cross-strategy orderings — the paper's qualitative claims
//! as executable assertions (averaged over enough seeds that a correct
//! implementation fails with negligible probability).

use paba::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Avg {
    load: f64,
    cost: f64,
}

fn average<F: Fn(u64) -> (f64, f64)>(runs: u64, f: F) -> Avg {
    let mut load = 0.0;
    let mut cost = 0.0;
    for s in 0..runs {
        let (l, c) = f(s);
        load += l / runs as f64;
        cost += c / runs as f64;
    }
    Avg { load, cost }
}

fn run_strategy(
    seed: u64,
    side: u32,
    k: u32,
    m: u32,
    kind: &str,
    radius: Option<u32>,
) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(paba::util::mix_seed(seed, side as u64));
    let net = CacheNetwork::builder()
        .torus_side(side)
        .library(k, Popularity::Uniform)
        .cache_size(m)
        .build(&mut rng);
    let rep = match kind {
        "nearest" => {
            let mut s = NearestReplica::new();
            simulate(&net, &mut s, net.n() as u64, &mut rng)
        }
        _ => {
            let mut s = ProximityChoice::two_choice(radius);
            simulate(&net, &mut s, net.n() as u64, &mut rng)
        }
    };
    (rep.max_load() as f64, rep.comm_cost())
}

#[test]
fn two_choice_balances_better_given_replication() {
    // Well-replicated regime (nM/K = 40): the paper's headline ordering.
    let runs = 24;
    let near = average(runs, |s| run_strategy(s, 20, 50, 5, "nearest", None));
    let two = average(runs, |s| run_strategy(1_000 + s, 20, 50, 5, "two", None));
    assert!(
        two.load < near.load - 0.5,
        "two-choice {:.2} should beat nearest {:.2}",
        two.load,
        near.load
    );
}

#[test]
fn nearest_has_minimal_cost() {
    // No strategy can undercut nearest-replica communication cost.
    let runs = 16;
    let near = average(runs, |s| run_strategy(s, 20, 100, 4, "nearest", None));
    let two_r = average(runs, |s| run_strategy(500 + s, 20, 100, 4, "two", Some(4)));
    let two_inf = average(runs, |s| run_strategy(900 + s, 20, 100, 4, "two", None));
    assert!(
        near.cost <= two_r.cost + 0.05,
        "{} vs {}",
        near.cost,
        two_r.cost
    );
    assert!(
        two_r.cost < two_inf.cost,
        "{} vs {}",
        two_r.cost,
        two_inf.cost
    );
}

#[test]
fn radius_interpolates_cost_monotonically() {
    // Larger radius → more freedom → higher cost (statistically), while
    // max load weakly improves.
    let runs = 20;
    let r2 = average(runs, |s| run_strategy(s, 18, 40, 8, "two", Some(2)));
    let r5 = average(runs, |s| run_strategy(s, 18, 40, 8, "two", Some(5)));
    let rinf = average(runs, |s| run_strategy(s, 18, 40, 8, "two", None));
    assert!(r2.cost < r5.cost && r5.cost < rinf.cost);
    assert!(rinf.load <= r2.load + 0.3);
}

#[test]
fn memory_starved_regime_annihilates_two_choice_gain() {
    // Example 2: K = n, M = 1 — the two "choices" are nearly always the
    // same single replica, so Strategy II degenerates toward Strategy I.
    let side = 20u32;
    let n = side * side;
    let runs = 24;
    let near = average(runs, |s| run_strategy(s, side, n, 1, "nearest", None));
    let two = average(runs, |s| run_strategy(3_000 + s, side, n, 1, "two", None));
    assert!(
        (two.load - near.load).abs() < 1.0,
        "memory-starved two-choice {:.2} should track nearest {:.2}",
        two.load,
        near.load
    );
}

#[test]
fn strategy_ii_cost_tracks_radius() {
    // Theorem 4's C = Θ(r): doubling r roughly doubles the cost while the
    // ball still has plenty of replicas.
    let side = 30u32;
    let runs = 16;
    let r4 = average(runs, |s| run_strategy(s, side, 20, 10, "two", Some(4)));
    let r8 = average(runs, |s| run_strategy(s, side, 20, 10, "two", Some(8)));
    let ratio = r8.cost / r4.cost;
    assert!(
        (1.5..=2.5).contains(&ratio),
        "cost ratio {ratio:.2} should be ≈ 2"
    );
}

#[test]
fn full_replication_minimizes_load_among_cache_sizes() {
    // More memory (at fixed K) can only help Strategy II.
    let runs = 20;
    let m1 = average(runs, |s| run_strategy(s, 16, 64, 1, "two", None));
    let m16 = average(runs, |s| run_strategy(7_000 + s, 16, 64, 16, "two", None));
    assert!(
        m16.load <= m1.load,
        "M=16 load {:.2} should be ≤ M=1 load {:.2}",
        m16.load,
        m1.load
    );
}
