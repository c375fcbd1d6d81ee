//! Theorem 3: communication cost of the nearest-replica strategy.
//!
//! The paper derives (its equation (14)) the exact cost series
//! `C = Σ_j p_j · Θ(1 / √(1 − (1 − p_j)^M))` and specializes it to the
//! Uniform profile (`Θ(√(K/M))`) and the five Zipf regimes of equation
//! (1). We expose the exact series (sans the Θ constant) for quantitative
//! comparison in Figure 2, plus the fitted-exponent predictions that
//! `paba repro`'s `zipf/exponent/*` gates compare against.

/// Generalized harmonic number `Λ(γ) = Σ_{j=1}^{K} j^{−γ}`
/// (the paper's equation (17) normalizer).
pub fn generalized_harmonic(k: u64, gamma: f64) -> f64 {
    (1..=k).map(|j| (j as f64).powf(-gamma)).sum()
}

/// The paper's exact cost series (equation (14), with the Θ-constant set
/// to 1): `C(P, M) = Σ_j p_j / √(1 − (1 − p_j)^M)`.
///
/// `weights` must be a normalized popularity vector.
pub fn nearest_cost_series(weights: &[f64], m_cache: u32) -> f64 {
    weights
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| {
            let q = 1.0 - (1.0 - p).powi(m_cache as i32);
            p / q.sqrt()
        })
        .sum()
}

/// Uniform-profile specialization: `√(K/M)` (Theorem 3's `Θ(√(K/M))`,
/// constant set to 1).
pub fn uniform_nearest_cost(k: f64, m_cache: f64) -> f64 {
    (k / m_cache).sqrt()
}

/// Which of the five Theorem 3 regimes a Zipf exponent falls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostRegime {
    /// `0 < γ < 1`: `C = Θ(√(K/M))` — cost like Uniform.
    UniformLike,
    /// `γ = 1`: `C = Θ(√(K / (M log K)))`.
    CriticalOne,
    /// `1 < γ < 2`: `C = Θ(K^{1−γ/2} / √M)`.
    Intermediate,
    /// `γ = 2`: `C = Θ(log K / √M)`.
    CriticalTwo,
    /// `γ > 2`: `C = Θ(1/√M)` — independent of the library size.
    Saturated,
}

impl CostRegime {
    /// Classify a Zipf exponent (γ = 0 is the Uniform profile itself).
    pub fn classify(gamma: f64) -> Self {
        assert!(gamma >= 0.0 && gamma.is_finite());
        if gamma < 1.0 {
            CostRegime::UniformLike
        } else if gamma == 1.0 {
            CostRegime::CriticalOne
        } else if gamma < 2.0 {
            CostRegime::Intermediate
        } else if gamma == 2.0 {
            CostRegime::CriticalTwo
        } else {
            CostRegime::Saturated
        }
    }
}

/// The predicted power-law exponent of `C` as a function of `K` at fixed
/// `M` (ignoring logarithmic corrections): what a log–log fit of cost vs
/// library size should recover.
///
/// * `γ < 1` → `1/2`
/// * `γ = 1` → `1/2` (minus a `√log K` correction)
/// * `1 < γ < 2` → `1 − γ/2`
/// * `γ ≥ 2` → `0`
pub fn zipf_cost_exponent_in_k(gamma: f64) -> f64 {
    assert!(gamma >= 0.0 && gamma.is_finite());
    if gamma <= 1.0 {
        0.5
    } else if gamma < 2.0 {
        1.0 - gamma / 2.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_known_values() {
        assert!((generalized_harmonic(1, 1.0) - 1.0).abs() < 1e-15);
        assert!((generalized_harmonic(4, 1.0) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
        assert!((generalized_harmonic(10, 0.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_regimes_of_eq17() {
        // Λ(γ) = Θ(K^{1−γ}) for γ<1; Θ(log K) at γ=1; Θ(1) for γ>1.
        let k1 = 10_000u64;
        let k2 = 40_000u64;
        // γ = 0.5: ratio should track (k2/k1)^0.5 = 2
        let r = generalized_harmonic(k2, 0.5) / generalized_harmonic(k1, 0.5);
        assert!((r - 2.0).abs() < 0.05, "ratio {r}");
        // γ = 1: ratio of logs
        let r = generalized_harmonic(k2, 1.0) / generalized_harmonic(k1, 1.0);
        let expect = (k2 as f64).ln() / (k1 as f64).ln();
        assert!((r - expect).abs() < 0.05, "ratio {r} vs {expect}");
        // γ = 3: converges
        let r = generalized_harmonic(k2, 3.0) / generalized_harmonic(k1, 3.0);
        assert!((r - 1.0).abs() < 1e-6, "ratio {r}");
    }

    #[test]
    fn uniform_cost_series_matches_closed_form() {
        // For the uniform profile and M ≪ K, the exact series is
        // ≈ √(K/M) · (1 + o(1)).
        for (k, m) in [(1000u32, 4u32), (5000, 10), (20_000, 25)] {
            let w = vec![1.0 / k as f64; k as usize];
            let series = nearest_cost_series(&w, m);
            let closed = uniform_nearest_cost(k as f64, m as f64);
            let ratio = series / closed;
            assert!(
                (ratio - 1.0).abs() < 0.05,
                "k={k} m={m}: series {series} vs closed {closed}"
            );
        }
    }

    #[test]
    fn cost_series_decreases_in_cache_size() {
        let k = 2000usize;
        let w = vec![1.0 / k as f64; k];
        let mut prev = f64::INFINITY;
        for m in [1u32, 2, 5, 10, 50, 100] {
            let c = nearest_cost_series(&w, m);
            assert!(c < prev, "M={m}: {c} !< {prev}");
            prev = c;
        }
    }

    #[test]
    fn skewed_profiles_cost_less() {
        // More skew ⇒ popular files are everywhere ⇒ lower cost.
        let k = 5000usize;
        let weights = |gamma: f64| -> Vec<f64> {
            let mut w: Vec<f64> = (1..=k).map(|j| (j as f64).powf(-gamma)).collect();
            let s: f64 = w.iter().sum();
            w.iter_mut().for_each(|x| *x /= s);
            w
        };
        let c_uni = nearest_cost_series(&weights(0.0), 4);
        let c_z1 = nearest_cost_series(&weights(1.0), 4);
        let c_z25 = nearest_cost_series(&weights(2.5), 4);
        assert!(c_z1 < c_uni);
        assert!(c_z25 < c_z1);
    }

    #[test]
    fn regime_classification() {
        assert_eq!(CostRegime::classify(0.0), CostRegime::UniformLike);
        assert_eq!(CostRegime::classify(0.99), CostRegime::UniformLike);
        assert_eq!(CostRegime::classify(1.0), CostRegime::CriticalOne);
        assert_eq!(CostRegime::classify(1.5), CostRegime::Intermediate);
        assert_eq!(CostRegime::classify(2.0), CostRegime::CriticalTwo);
        assert_eq!(CostRegime::classify(2.5), CostRegime::Saturated);
    }

    #[test]
    fn exponent_predictions() {
        assert_eq!(zipf_cost_exponent_in_k(0.5), 0.5);
        assert_eq!(zipf_cost_exponent_in_k(1.0), 0.5);
        assert!((zipf_cost_exponent_in_k(1.5) - 0.25).abs() < 1e-15);
        assert_eq!(zipf_cost_exponent_in_k(2.0), 0.0);
        assert_eq!(zipf_cost_exponent_in_k(3.0), 0.0);
    }

    #[test]
    fn exact_series_matches_regime_exponent() {
        // Fit the exact series' slope in K and compare with the predicted
        // exponent — a self-consistency check tying (14) to equation (1).
        for gamma in [0.5f64, 1.5, 2.5] {
            let mut pts = Vec::new();
            for &k in &[2_000usize, 4_000, 8_000, 16_000, 32_000] {
                let mut w: Vec<f64> = (1..=k).map(|j| (j as f64).powf(-gamma)).collect();
                let s: f64 = w.iter().sum();
                w.iter_mut().for_each(|x| *x /= s);
                pts.push((k as f64, nearest_cost_series(&w, 3)));
            }
            let fit = paba_util::fit_loglog(&pts).unwrap();
            let predict = zipf_cost_exponent_in_k(gamma);
            assert!(
                (fit.slope - predict).abs() < 0.08,
                "γ={gamma}: fitted {} vs predicted {predict}",
                fit.slope
            );
        }
    }

    #[test]
    fn saturated_regime_cost_independent_of_k() {
        let cost = |k: usize| {
            let mut w: Vec<f64> = (1..=k).map(|j| (j as f64).powf(-3.0)).collect();
            let s: f64 = w.iter().sum();
            w.iter_mut().for_each(|x| *x /= s);
            nearest_cost_series(&w, 4)
        };
        // The series' tail beyond K is Θ(K^{-1/2}), so doubling the
        // library K → 100K moves the cost by only a couple of percent.
        let a = cost(1_000);
        let b = cost(100_000);
        assert!((a / b - 1.0).abs() < 0.05, "{a} vs {b}");
    }
}
