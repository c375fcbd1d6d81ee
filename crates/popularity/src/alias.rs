//! Walker–Vose alias method: O(1) sampling from a discrete distribution.
//!
//! Placement draws `n·M` file ids per run and the request stream another
//! `n`; with `n = 1.2·10⁵` and `M = 100` that is 12M draws per Monte-Carlo
//! run, so constant-time sampling matters. The alias table costs O(K) to
//! build and two uniforms per draw.

use crate::FileId;
use rand::Rng;
use std::collections::TryReserveError;

/// Alias table for a discrete distribution over `0..k`.
///
/// A draw picks cell `i` with `gen_range(0..k)`, then keeps `i` when one
/// `gen::<f64>()` falls below the cell's threshold and returns its alias
/// otherwise. Each cell holds its threshold (8 bytes) and its alias
/// (4 bytes) side by side in one 16-byte slot, so a draw reads one cache
/// line whether it keeps `i` or takes the alias.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Cell `i`: its acceptance threshold, scaled to [0, 1], and its alias.
    cells: Vec<(f64, FileId)>,
}

impl AliasTable {
    /// Build from non-negative weights (need not be normalized).
    ///
    /// # Panics
    /// If `weights` is empty, contains a negative/non-finite value, or sums
    /// to zero, or if the table cannot be allocated.
    pub fn new(weights: &[f64]) -> Self {
        Self::try_new(weights).expect("alias table allocation failed")
    }

    /// [`AliasTable::new`], returning the allocation error of a table too
    /// large for memory instead of aborting.
    ///
    /// # Panics
    /// On the invalid weights [`AliasTable::new`] rejects.
    pub fn try_new(weights: &[f64]) -> Result<Self, TryReserveError> {
        let k = weights.len();
        assert!(k > 0, "alias table needs ≥1 weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let sum: f64 = weights.iter().sum();
        assert!(sum > 0.0, "weights must not all be zero");

        // Vose's algorithm with two worklists of under/over-full cells.
        let scale = k as f64 / sum;
        let (mut scaled, mut cells) = (Vec::new(), Vec::new());
        let (mut small, mut large) = (Vec::new(), Vec::new());
        scaled.try_reserve_exact(k)?;
        cells.try_reserve_exact(k)?;
        small.try_reserve_exact(k)?;
        large.try_reserve_exact(k)?;
        scaled.extend(weights.iter().map(|w| w * scale));
        cells.extend((0..k as FileId).map(|i| (1.0f64, i)));
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            cells[s as usize] = (scaled[s as usize], l);
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers: both lists drain to cells with weight ~1.
        for &i in small.iter().chain(large.iter()) {
            cells[i as usize] = (1.0, i);
        }
        Ok(Self { cells })
    }

    /// Number of categories.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the table has exactly one category.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // a table always has ≥1 category (enforced at build)
    }

    /// Draw a category in O(1).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> FileId {
        let i = rng.gen_range(0..self.cells.len());
        let (prob, alias) = self.cells[i];
        if rng.gen::<f64>() < prob {
            i as FileId
        } else {
            alias
        }
    }

    /// Exact probability this table assigns to category `i` (reconstructed
    /// from the internal representation; used by tests).
    pub fn reconstructed_probability(&self, i: FileId) -> f64 {
        let k = self.cells.len() as f64;
        let mut p = self.cells[i as usize].0;
        for (j, &(prob, a)) in self.cells.iter().enumerate() {
            if a == i && j as u32 != i {
                p += 1.0 - prob;
            }
        }
        p / k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn reconstruction_matches_input_distribution() {
        let weights = [0.1, 0.4, 0.2, 0.3];
        let t = AliasTable::new(&weights);
        for (i, &w) in weights.iter().enumerate() {
            let p = t.reconstructed_probability(i as u32);
            assert!((p - w).abs() < 1e-12, "i={i}: {p} vs {w}");
        }
    }

    #[test]
    fn unnormalized_weights_are_scaled() {
        let t = AliasTable::new(&[2.0, 6.0]);
        assert!((t.reconstructed_probability(0) - 0.25).abs() < 1e-12);
        assert!((t.reconstructed_probability(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let s = t.sample(&mut rng);
            assert!(s == 1 || s == 3, "sampled zero-weight category {s}");
        }
    }

    #[test]
    fn single_category() {
        let t = AliasTable::new(&[5.0]);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(t.sample(&mut rng), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empirical_frequencies_match_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights);
        let mut rng = SmallRng::seed_from_u64(123);
        let trials = 200_000;
        let mut counts = [0u64; 4];
        for _ in 0..trials {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = trials as f64 * w / total;
            let got = counts[i] as f64;
            // 5-sigma binomial tolerance
            let sigma = (expect * (1.0 - w / total)).sqrt();
            assert!(
                (got - expect).abs() < 5.0 * sigma,
                "cat {i}: {got} vs {expect} ± {sigma}"
            );
        }
    }

    #[test]
    fn large_skewed_table_builds_and_reconstructs() {
        // Zipf-like heavy skew over 10k categories.
        let weights: Vec<f64> = (1..=10_000).map(|i| 1.0 / (i as f64).powf(1.2)).collect();
        let t = AliasTable::new(&weights);
        let sum: f64 = weights.iter().sum();
        let mut total_err = 0.0;
        for i in (0..10_000).step_by(997) {
            let p = t.reconstructed_probability(i as u32);
            total_err += (p - weights[i] / sum).abs();
        }
        assert!(total_err < 1e-9, "err={total_err}");
    }

    #[test]
    #[should_panic(expected = "≥1 weight")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn zero_sum_panics() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }
}
