//! Lemma 2: goodness of the proportional placement.
//!
//! A placement is `(δ, µ)`-good when every node holds at least `δM`
//! *distinct* files and every pair of nodes shares fewer than `µ` files.
//! The paper proves proportional placement is good w.h.p. for `K = n`,
//! `M = n^α`, `α < 1/2`, with `δ = (1−α)/3` and any constant
//! `µ ≥ 5/(1−2α)`. These functions expose those parameters and the exact
//! expectations the empirical checks compare against.

/// Lemma 2's distinct-fraction parameter `δ = (1 − α)/3`.
///
/// # Panics
/// If `alpha ∉ (0, 1/2)`.
pub fn goodness_delta(alpha: f64) -> f64 {
    assert!(
        alpha > 0.0 && alpha < 0.5,
        "Lemma 2 requires 0 < α < 1/2, got {alpha}"
    );
    (1.0 - alpha) / 3.0
}

/// Lemma 2's overlap bound `µ = 5/(1 − 2α)` (the smallest constant the
/// proof admits).
///
/// # Panics
/// If `alpha ∉ (0, 1/2)`.
pub fn goodness_mu(alpha: f64) -> f64 {
    assert!(
        alpha > 0.0 && alpha < 0.5,
        "Lemma 2 requires 0 < α < 1/2, got {alpha}"
    );
    5.0 / (1.0 - 2.0 * alpha)
}

/// Exact expectation of `t(u)` — the number of *distinct* files a node
/// holds after `M` uniform-with-replacement draws from a library of `K`:
/// `E[t(u)] = K · (1 − (1 − 1/K)^M)`.
pub fn expected_distinct_files(k: f64, m: f64) -> f64 {
    assert!(k >= 1.0 && m >= 0.0);
    k * (1.0 - (1.0 - 1.0 / k).powf(m))
}

/// Exact expectation of `t(u, v)` — the number of distinct files cached by
/// *both* of two independent nodes:
/// `E[t(u,v)] = K · (1 − (1 − 1/K)^M)²  ≈ M²/K` for `M ≪ K`.
pub fn expected_overlap(k: f64, m: f64) -> f64 {
    assert!(k >= 1.0 && m >= 0.0);
    let hit = 1.0 - (1.0 - 1.0 / k).powf(m);
    k * hit * hit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_mu_values() {
        assert!((goodness_delta(0.25) - 0.25).abs() < 1e-15);
        assert!((goodness_mu(0.25) - 10.0).abs() < 1e-12);
        // α → 0: δ → 1/3, µ → 5.
        assert!((goodness_delta(1e-9) - 1.0 / 3.0).abs() < 1e-6);
        assert!((goodness_mu(1e-9) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn mu_diverges_near_half() {
        assert!(goodness_mu(0.49) > 100.0);
    }

    #[test]
    #[should_panic(expected = "requires 0 < α < 1/2")]
    fn delta_rejects_out_of_range() {
        let _ = goodness_delta(0.5);
    }

    #[test]
    #[should_panic(expected = "requires 0 < α < 1/2")]
    fn mu_rejects_out_of_range() {
        let _ = goodness_mu(0.0);
    }

    #[test]
    fn expected_distinct_bounds() {
        // 1 draw → exactly 1 distinct file; M → ∞ → K.
        assert!((expected_distinct_files(100.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((expected_distinct_files(100.0, 1e6) - 100.0).abs() < 1e-6);
        // With replacement, distinct ≤ M, approaching M for K ≫ M.
        let e = expected_distinct_files(1e6, 100.0);
        assert!(e < 100.0 && e > 99.0, "E[t(u)]={e}");
    }

    #[test]
    fn expected_distinct_matches_simulation() {
        use rand::Rng;
        use rand::SeedableRng;
        let (k, m) = (50u32, 20u32);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let mut total = 0usize;
        let runs = 20_000;
        let mut seen = vec![false; k as usize];
        for _ in 0..runs {
            seen.iter_mut().for_each(|s| *s = false);
            for _ in 0..m {
                seen[rng.gen_range(0..k) as usize] = true;
            }
            total += seen.iter().filter(|&&s| s).count();
        }
        let sim = total as f64 / runs as f64;
        let exact = expected_distinct_files(k as f64, m as f64);
        assert!((sim - exact).abs() < 0.05, "sim {sim} vs exact {exact}");
    }

    #[test]
    fn expected_overlap_approximation() {
        // For M ≪ K: E[t(u,v)] ≈ M²/K.
        let e = expected_overlap(1e6, 100.0);
        assert!((e - 100.0 * 100.0 / 1e6).abs() / e < 0.01, "E={e}");
    }

    #[test]
    fn overlap_less_than_distinct() {
        for (k, m) in [(100.0, 10.0), (1000.0, 50.0)] {
            assert!(expected_overlap(k, m) < expected_distinct_files(k, m));
        }
    }
}
