//! Maximum-load laws from the balanced-allocations literature, as used by
//! the paper's Theorems 1, 2, 4 and 6.
//!
//! These are *leading-order predictions* (the `Θ(·)` shapes), intended for
//! ratio tests: a measured max load divided by the prediction should be
//! roughly constant across `n` when the theorem applies.

/// `ln n / ln ln n` — the one-choice (and Strategy I lower-bound) scale of
/// Theorems 1–2. Returns `NaN` for `n ≤ e` where `ln ln n ≤ 0`.
pub fn one_choice_max_load(n: f64) -> f64 {
    let ll = n.ln().ln();
    if ll <= 0.0 {
        f64::NAN
    } else {
        n.ln() / ll
    }
}

/// `ln ln n / ln 2` — the classic two-choice scale (Azar et al.), the
/// target Strategy II achieves in the Theorem 4/6 regimes.
pub fn two_choice_max_load(n: f64) -> f64 {
    d_choice_max_load(n, 2.0)
}

/// `ln ln n / ln d` — Greedy\[d\]'s maximum load at `m = n`.
pub fn d_choice_max_load(n: f64, d: f64) -> f64 {
    if n <= std::f64::consts::E || d <= 1.0 {
        return f64::NAN;
    }
    n.ln().ln() / d.ln()
}

/// Kenthapadi–Panigrahi (paper's Theorem 5) bound for an almost Δ-regular
/// graph: `log log n + log n / log(Δ / log⁴ n)`.
///
/// Returns `INFINITY` when `Δ ≤ log⁴ n` (the bound is vacuous below the
/// density threshold — exactly the regime where the paper shows the power
/// of two choices can be lost).
pub fn kp_max_load_bound(n: f64, delta: f64) -> f64 {
    if n <= std::f64::consts::E {
        return f64::NAN;
    }
    let log4 = n.ln().powi(4);
    if delta <= log4 {
        return f64::INFINITY;
    }
    n.ln().ln() + n.ln() / (delta / log4).ln()
}

/// Theorem 4's regime condition: with `K = n`, `M = n^α`, `r = n^β`, the
/// proximity-aware two-choice strategy achieves `Θ(log log n)` max load
/// provided `α + 2β ≥ 1 + 2·log log n / log n`.
pub fn theorem4_condition_met(n: f64, alpha: f64, beta: f64) -> bool {
    if n <= std::f64::consts::E {
        return false;
    }
    alpha + 2.0 * beta >= 1.0 + 2.0 * n.ln().ln() / n.ln()
}

/// The smallest `β` satisfying Theorem 4's condition for given `n`, `α`:
/// `β = (1 − α)/2 + log log n / log n`.
///
/// The paper notes `r = n^β = n^{(1−α)/2}·log n`, i.e. only a `log n`
/// factor above the nearest-replica cost `Θ(√(K/M)) = Θ(n^{(1−α)/2})`.
pub fn theorem4_min_beta(n: f64, alpha: f64) -> f64 {
    if n <= std::f64::consts::E {
        return f64::NAN;
    }
    (1.0 - alpha) / 2.0 + n.ln().ln() / n.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_choice_growth() {
        // strictly increasing and unbounded on a doubling ladder
        let mut prev = 0.0;
        for e in [1e2, 1e4, 1e8, 1e16] {
            let v = one_choice_max_load(e);
            assert!(v > prev, "{v} !> {prev}");
            prev = v;
        }
        assert!(one_choice_max_load(2.0).is_nan());
    }

    #[test]
    fn two_choice_is_asymptotically_smaller() {
        // ln n/ln ln n vs ln ln n/ln 2: the advantage ratio grows without
        // bound (the "exponential improvement"), though slowly at finite n.
        let mut prev_ratio = 0.0;
        for n in [1e4, 1e8, 1e16, 1e32, 1e64, 1e128] {
            assert!(two_choice_max_load(n) < one_choice_max_load(n));
            let ratio = one_choice_max_load(n) / two_choice_max_load(n);
            assert!(
                ratio > prev_ratio,
                "ratio must grow: {ratio} !> {prev_ratio}"
            );
            prev_ratio = ratio;
        }
        assert!(prev_ratio > 3.0);
    }

    #[test]
    fn d_choice_decreases_in_d() {
        let n = 1e6;
        assert!(d_choice_max_load(n, 2.0) > d_choice_max_load(n, 4.0));
        assert!(d_choice_max_load(n, 4.0) > d_choice_max_load(n, 8.0));
        assert!(d_choice_max_load(n, 1.0).is_nan());
    }

    #[test]
    fn kp_bound_vacuous_below_density_threshold() {
        let n = 1e6f64;
        let log4 = n.ln().powi(4);
        assert!(kp_max_load_bound(n, log4 * 0.5).is_infinite());
        let v = kp_max_load_bound(n, log4 * 1e6);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn kp_bound_decreases_with_density() {
        let n = 1e8f64;
        let d1 = kp_max_load_bound(n, 1e12);
        let d2 = kp_max_load_bound(n, 1e16);
        assert!(d2 < d1);
    }

    #[test]
    fn theorem4_condition_examples() {
        // At n = 10^6 the finite-size slack 2·loglog/log ≈ 0.38 is large:
        // α + 2β must exceed ≈ 1.38, not just 1.
        let n = 1e6;
        assert!(theorem4_condition_met(n, 0.4, 0.55)); // 1.5 ≥ 1.38
        assert!(!theorem4_condition_met(n, 0.1, 0.2)); // 0.5 < 1
                                                       // Exactly 1 is not enough at finite n (needs the 2 loglog/log slack).
        assert!(!theorem4_condition_met(n, 0.4, 0.3));
    }

    #[test]
    fn theorem4_min_beta_matches_condition() {
        for n in [1e4, 1e6, 1e10] {
            for alpha in [0.1, 0.25, 0.4] {
                let beta = theorem4_min_beta(n, alpha);
                assert!(theorem4_condition_met(n, alpha, beta + 1e-12));
                assert!(!theorem4_condition_met(n, alpha, beta - 1e-3));
            }
        }
    }

    #[test]
    fn min_beta_approaches_half_minus_alpha_half() {
        // As n → ∞, β* → (1−α)/2.
        let b_small = theorem4_min_beta(1e4, 0.3);
        let b_large = theorem4_min_beta(1e300, 0.3);
        assert!(b_small > b_large);
        assert!((b_large - 0.35).abs() < 0.01);
    }
}
