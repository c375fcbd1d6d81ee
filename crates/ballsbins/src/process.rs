//! The allocation processes themselves.
//!
//! Each function runs one complete process of `m` sequential balls and
//! returns the final [`AllocationResult`]. Ties between equally loaded
//! candidates are broken uniformly at random, matching the paper's
//! Definition 3 ("Ties are broken randomly").

use crate::AllocationResult;
use paba_topology::CsrGraph;
use rand::Rng;

/// One-choice: every ball lands in an independent uniform bin.
///
/// At `m = n`, the maximum load is `(1+o(1)) · ln n / ln ln n` w.h.p. —
/// the benchmark the paper's Strategy I matches up to constants.
pub fn one_choice<R: Rng + ?Sized>(n: u32, m: u64, rng: &mut R) -> AllocationResult {
    assert!(n > 0, "need at least one bin");
    let mut loads = vec![0u32; n as usize];
    for _ in 0..m {
        loads[rng.gen_range(0..n) as usize] += 1;
    }
    AllocationResult { loads, m }
}

/// Classic two-choice (Greedy\[2\]): convenience wrapper over [`d_choice`].
pub fn two_choice<R: Rng + ?Sized>(n: u32, m: u64, rng: &mut R) -> AllocationResult {
    d_choice(n, m, 2, rng)
}

/// Greedy\[d\] of Azar–Broder–Karlin–Upfal: each ball samples `d`
/// independent uniform bins (with replacement) and joins the least loaded,
/// ties broken uniformly among the minimizers.
///
/// At `m = n`, the maximum load is `ln ln n / ln d + Θ(1)` w.h.p. — the
/// "power of d choices".
///
/// # Panics
/// If `n == 0` or `d == 0`.
pub fn d_choice<R: Rng + ?Sized>(n: u32, m: u64, d: u32, rng: &mut R) -> AllocationResult {
    assert!(n > 0, "need at least one bin");
    assert!(d > 0, "need at least one choice");
    let mut loads = vec![0u32; n as usize];
    for _ in 0..m {
        // Reservoir-min over d candidate draws: track the least-loaded
        // candidate, replacing ties with probability 1/(#ties so far).
        let mut best = rng.gen_range(0..n) as usize;
        let mut ties = 1u32;
        for _ in 1..d {
            let c = rng.gen_range(0..n) as usize;
            if loads[c] < loads[best] {
                best = c;
                ties = 1;
            } else if loads[c] == loads[best] {
                ties += 1;
                if rng.gen_range(0..ties) == 0 {
                    best = c;
                }
            }
        }
        loads[best] += 1;
    }
    AllocationResult { loads, m }
}

/// The (1+β)-choice process of Peres–Talwar–Wieder: with probability
/// `beta` the ball uses two choices, otherwise one.
///
/// Interpolates between one-choice (`β = 0`) and two-choice (`β = 1`);
/// for any fixed `β ∈ (0,1)` the gap is `Θ(log n / β)`, *independent of
/// m* — a useful contrast when studying how much choice the proximity
/// constraint really leaves Strategy II.
///
/// # Panics
/// If `beta ∉ [0, 1]` or `n == 0`.
pub fn one_plus_beta<R: Rng + ?Sized>(n: u32, m: u64, beta: f64, rng: &mut R) -> AllocationResult {
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
    assert!(n > 0, "need at least one bin");
    let mut loads = vec![0u32; n as usize];
    for _ in 0..m {
        let a = rng.gen_range(0..n) as usize;
        let target = if beta > 0.0 && (beta >= 1.0 || rng.gen::<f64>() < beta) {
            let b = rng.gen_range(0..n) as usize;
            pick_lesser(&loads, a, b, rng)
        } else {
            a
        };
        loads[target] += 1;
    }
    AllocationResult { loads, m }
}

/// Kenthapadi–Panigrahi balanced allocation on a graph: each ball samples
/// a **uniform random edge** of `g` and joins the lesser-loaded endpoint
/// (ties uniform).
///
/// This is the exact process of the paper's Theorem 5, whose guarantee
/// `Θ(log log n) + O(log n / log(Δ/log⁴n))` the cache-network Strategy II
/// inherits through the configuration graph `H`.
///
/// # Panics
/// If `g` has no edges.
pub fn graph_two_choice<R: Rng + ?Sized>(g: &CsrGraph, m: u64, rng: &mut R) -> AllocationResult {
    let mut loads = vec![0u32; g.n() as usize];
    for _ in 0..m {
        let (a, b) = g.sample_edge(rng);
        let t = pick_lesser(&loads, a as usize, b as usize, rng);
        loads[t] += 1;
    }
    AllocationResult { loads, m }
}

/// Node-then-neighbor variant: a uniform node, then a uniform neighbor of
/// it; ball to the lesser-loaded of the two.
///
/// On Δ-regular graphs this induces the same edge distribution as
/// [`graph_two_choice`]; on irregular graphs it biases toward low-degree
/// nodes' edges.
///
/// # Panics
/// If any node of `g` is isolated.
pub fn neighbor_two_choice<R: Rng + ?Sized>(g: &CsrGraph, m: u64, rng: &mut R) -> AllocationResult {
    let mut loads = vec![0u32; g.n() as usize];
    for _ in 0..m {
        let a = rng.gen_range(0..g.n());
        let nbrs = g.neighbors(a);
        assert!(!nbrs.is_empty(), "node {a} is isolated");
        let b = nbrs[rng.gen_range(0..nbrs.len())];
        let t = pick_lesser(&loads, a as usize, b as usize, rng);
        loads[t] += 1;
    }
    AllocationResult { loads, m }
}

/// Index of the lesser-loaded of two bins, ties uniform.
#[inline]
fn pick_lesser<R: Rng + ?Sized>(loads: &[u32], a: usize, b: usize, rng: &mut R) -> usize {
    match loads[a].cmp(&loads[b]) {
        std::cmp::Ordering::Less => a,
        std::cmp::Ordering::Greater => b,
        std::cmp::Ordering::Equal => {
            if rng.gen::<bool>() {
                a
            } else {
                b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_topology::{circulant_graph, complete_graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn conservation_all_processes() {
        let g = circulant_graph(64, 4);
        let mut r = rng(1);
        for res in [
            one_choice(64, 640, &mut r),
            two_choice(64, 640, &mut r),
            d_choice(64, 640, 5, &mut r),
            one_plus_beta(64, 640, 0.5, &mut r),
            graph_two_choice(&g, 640, &mut r),
            neighbor_two_choice(&g, 640, &mut r),
        ] {
            assert!(res.check_conservation());
            assert_eq!(res.n(), 64);
            assert_eq!(res.m, 640);
        }
    }

    #[test]
    fn two_choice_beats_one_choice_on_average() {
        // At m = n = 4096, two-choice max load should be well below
        // one-choice max load essentially every run; compare averages
        // over a few seeds to keep flakiness negligible.
        let n = 4096u32;
        let mut one = 0.0;
        let mut two = 0.0;
        for seed in 0..10 {
            one += one_choice(n, n as u64, &mut rng(seed)).max_load() as f64;
            two += two_choice(n, n as u64, &mut rng(1000 + seed)).max_load() as f64;
        }
        assert!(
            two < one - 1.0,
            "two-choice ({two}) should beat one-choice ({one}) by ≥1 on average"
        );
    }

    #[test]
    fn more_choices_never_hurt_much() {
        let n = 2048u32;
        let mut d2 = 0.0;
        let mut d4 = 0.0;
        for seed in 0..10 {
            d2 += d_choice(n, n as u64, 2, &mut rng(seed)).max_load() as f64;
            d4 += d_choice(n, n as u64, 4, &mut rng(500 + seed)).max_load() as f64;
        }
        assert!(
            d4 <= d2 + 0.2,
            "Greedy[4] ({d4}) worse than Greedy[2] ({d2})"
        );
    }

    #[test]
    fn one_plus_beta_interpolates() {
        let n = 2048u32;
        let avg = |beta: f64, base: u64| -> f64 {
            (0..8)
                .map(|s| one_plus_beta(n, n as u64, beta, &mut rng(base + s)).max_load() as f64)
                .sum::<f64>()
                / 8.0
        };
        let b0 = avg(0.0, 0);
        let b1 = avg(1.0, 100);
        let bh = avg(0.5, 200);
        assert!(b1 < b0, "β=1 ({b1}) must beat β=0 ({b0})");
        assert!(
            bh <= b0 && bh >= b1 - 0.5,
            "β=0.5 ({bh}) should interpolate"
        );
    }

    #[test]
    fn graph_two_choice_on_complete_graph_matches_two_choice_regime() {
        // On K_n, edge-uniform two-choice is the classic process
        // conditioned on distinct bins; max loads should be statistically
        // close at m = n.
        let n = 1024u32;
        let g = complete_graph(n);
        let mut a = 0.0;
        let mut b = 0.0;
        for seed in 0..8 {
            a += graph_two_choice(&g, n as u64, &mut rng(seed)).max_load() as f64;
            b += two_choice(n, n as u64, &mut rng(300 + seed)).max_load() as f64;
        }
        assert!((a - b).abs() <= 1.0, "K_n graph choice {a} vs classic {b}");
    }

    #[test]
    fn sparse_graph_choice_is_weaker_than_dense() {
        // KP: max load degrades as the graph gets sparser. Ring (Δ=2) vs
        // dense circulant (Δ=64) at n=1024.
        let n = 1024u32;
        let ring = circulant_graph(n, 1);
        let dense = circulant_graph(n, 32);
        let mut sparse_load = 0.0;
        let mut dense_load = 0.0;
        for seed in 0..8 {
            sparse_load += graph_two_choice(&ring, n as u64, &mut rng(seed)).max_load() as f64;
            dense_load +=
                graph_two_choice(&dense, n as u64, &mut rng(900 + seed)).max_load() as f64;
        }
        assert!(
            dense_load < sparse_load,
            "dense graph ({dense_load}) should balance better than ring ({sparse_load})"
        );
    }

    #[test]
    fn neighbor_variant_agrees_on_regular_graphs() {
        let n = 512u32;
        let g = circulant_graph(n, 8);
        let mut edge_v = 0.0;
        let mut nbr_v = 0.0;
        for seed in 0..8 {
            edge_v += graph_two_choice(&g, n as u64, &mut rng(seed)).max_load() as f64;
            nbr_v += neighbor_two_choice(&g, n as u64, &mut rng(77 + seed)).max_load() as f64;
        }
        assert!(
            (edge_v - nbr_v).abs() <= 1.0,
            "regular graph: edge {edge_v} vs neighbor {nbr_v}"
        );
    }

    #[test]
    fn heavily_loaded_two_choice_gap_stays_small() {
        // Berenbrink et al.: two-choice gap is m/n + O(log log n),
        // independent of m. With m = 100n the gap should stay tiny while
        // one-choice's gap grows like √(m/n · log n).
        let n = 256u32;
        let m = 100 * n as u64;
        let two = two_choice(n, m, &mut rng(5));
        let one = one_choice(n, m, &mut rng(6));
        assert!(two.gap() <= 6.0, "two-choice heavy gap {}", two.gap());
        assert!(
            one.gap() > two.gap() * 2.0,
            "one-choice heavy gap {} vs two-choice {}",
            one.gap(),
            two.gap()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = d_choice(100, 1000, 2, &mut rng(42));
        let b = d_choice(100, 1000, 2, &mut rng(42));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_balls() {
        let r = two_choice(10, 0, &mut rng(0));
        assert_eq!(r.max_load(), 0);
        assert!(r.check_conservation());
    }

    #[test]
    fn single_bin() {
        let r = d_choice(1, 57, 3, &mut rng(0));
        assert_eq!(r.max_load(), 57);
    }

    #[test]
    #[should_panic(expected = "beta must be in [0,1]")]
    fn invalid_beta_panics() {
        let _ = one_plus_beta(4, 4, 1.5, &mut rng(0));
    }
}
