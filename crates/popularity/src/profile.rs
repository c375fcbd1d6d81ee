//! Popularity profiles: Uniform, Zipf(γ), and custom weight vectors.

use std::collections::TryReserveError;

/// A popularity profile over a library of `K` files.
///
/// Profiles are *shapes*; they are instantiated for a concrete library size
/// via [`Popularity::weights`] (normalized probabilities) or directly by a
/// sampler. File ids are 0-based; for Zipf, file `0` is the most popular
/// (`p_i ∝ (i+1)^{−γ}`).
#[derive(Clone, Debug, PartialEq)]
pub enum Popularity {
    /// Equal popularity: `p_i = 1/K` (the paper's main analytical setting).
    Uniform,
    /// Zipf law with exponent `gamma ≥ 0`: `p_i ∝ (i+1)^{−γ}`.
    /// `gamma = 0` coincides with `Uniform`.
    Zipf {
        /// The Zipf exponent `γ`.
        gamma: f64,
    },
    /// Arbitrary non-negative weights (need not be normalized). The library
    /// size is fixed to `weights.len()`.
    Custom(Vec<f64>),
}

impl Popularity {
    /// Convenience constructor for [`Popularity::Zipf`].
    ///
    /// # Panics
    /// If `gamma` is negative or not finite.
    pub fn zipf(gamma: f64) -> Self {
        assert!(
            gamma.is_finite() && gamma >= 0.0,
            "Zipf exponent must be finite and non-negative, got {gamma}"
        );
        Popularity::Zipf { gamma }
    }

    /// Construct a custom profile from weights.
    ///
    /// # Panics
    /// If empty, or any weight is negative/non-finite, or all are zero.
    pub fn custom(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "custom profile needs ≥1 weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        assert!(
            weights.iter().sum::<f64>() > 0.0,
            "at least one weight must be positive"
        );
        Popularity::Custom(weights)
    }

    /// Normalized probability vector for a library of `k` files.
    ///
    /// # Panics
    /// If `k == 0`, the profile is `Custom` with a different length, or
    /// the vector cannot be allocated.
    pub fn weights(&self, k: usize) -> Vec<f64> {
        self.try_weights(k)
            .expect("popularity weights allocation failed")
    }

    /// [`Popularity::weights`], returning the allocation error of a
    /// library too large for memory instead of aborting.
    ///
    /// # Panics
    /// If `k == 0`, or the profile is `Custom` with a different length.
    pub fn try_weights(&self, k: usize) -> Result<Vec<f64>, TryReserveError> {
        assert!(k > 0, "library must be non-empty");
        let mut w: Vec<f64> = Vec::new();
        w.try_reserve_exact(k)?;
        match self {
            Popularity::Uniform => w.resize(k, 1.0 / k as f64),
            Popularity::Zipf { gamma } => {
                w.extend((1..=k).map(|i| (i as f64).powf(-gamma)));
                let sum: f64 = w.iter().sum();
                for x in w.iter_mut() {
                    *x /= sum;
                }
            }
            Popularity::Custom(c) => {
                assert_eq!(
                    c.len(),
                    k,
                    "custom profile has {} weights but k={k}",
                    c.len()
                );
                let sum: f64 = c.iter().sum();
                w.extend(c.iter().map(|x| x / sum));
            }
        }
        Ok(w)
    }

    /// Probability of file `i` in a library of `k` files.
    pub fn probability(&self, i: usize, k: usize) -> f64 {
        assert!(i < k, "file index {i} out of range for k={k}");
        match self {
            Popularity::Uniform => 1.0 / k as f64,
            _ => self.weights(k)[i],
        }
    }

    /// True if the profile is exactly uniform over any library size.
    pub fn is_uniform(&self) -> bool {
        match self {
            Popularity::Uniform => true,
            Popularity::Zipf { gamma } => *gamma == 0.0,
            Popularity::Custom(w) => {
                let first = w[0];
                w.iter().all(|&x| (x - first).abs() < 1e-15)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_normalized(w: &[f64]) {
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum={sum}");
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn uniform_weights() {
        let w = Popularity::Uniform.weights(4);
        assert_normalized(&w);
        assert!(w.iter().all(|&x| (x - 0.25).abs() < 1e-15));
    }

    #[test]
    fn zipf_weights_monotone_and_normalized() {
        let w = Popularity::zipf(0.8).weights(100);
        assert_normalized(&w);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1], "Zipf weights must decrease");
        }
    }

    #[test]
    fn zipf_matches_papers_formula() {
        // p_i = (1/i^γ) / Σ_j 1/j^γ  (paper §II-B)
        let gamma = 1.5;
        let k = 50;
        let w = Popularity::zipf(gamma).weights(k);
        let norm: f64 = (1..=k).map(|j| (j as f64).powf(-gamma)).sum();
        for (i, &p) in w.iter().enumerate() {
            let expect = ((i + 1) as f64).powf(-gamma) / norm;
            assert!((p - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_zero_gamma_is_uniform() {
        let w = Popularity::zipf(0.0).weights(7);
        assert!(w.iter().all(|&x| (x - 1.0 / 7.0).abs() < 1e-12));
        assert!(Popularity::zipf(0.0).is_uniform());
    }

    #[test]
    fn custom_weights_normalize() {
        let p = Popularity::custom(vec![2.0, 1.0, 1.0]);
        let w = p.weights(3);
        assert_normalized(&w);
        assert!((w[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "custom profile has")]
    fn custom_length_mismatch_panics() {
        Popularity::custom(vec![1.0, 1.0]).weights(3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = Popularity::custom(vec![1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn all_zero_weights_panic() {
        let _ = Popularity::custom(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn invalid_gamma_panics() {
        let _ = Popularity::zipf(f64::NAN);
    }

    #[test]
    fn probability_accessor() {
        let p = Popularity::zipf(1.0);
        let w = p.weights(10);
        for (i, &wi) in w.iter().enumerate() {
            assert!((p.probability(i, 10) - wi).abs() < 1e-15);
        }
        assert!((Popularity::Uniform.probability(3, 8) - 0.125).abs() < 1e-15);
    }

    #[test]
    fn is_uniform_detection() {
        assert!(Popularity::Uniform.is_uniform());
        assert!(!Popularity::zipf(0.5).is_uniform());
        assert!(Popularity::custom(vec![1.0, 1.0]).is_uniform());
        assert!(!Popularity::custom(vec![1.0, 2.0]).is_uniform());
    }
}
