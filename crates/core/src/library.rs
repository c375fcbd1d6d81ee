//! The file library `W = {W_1, …, W_K}` with its popularity profile.

use crate::network::BuildError;
use paba_popularity::{FileId, FileSampler, Popularity};
use rand::Rng;

/// A content library: `K` files and a popularity profile `P`, with a
/// prebuilt O(1) sampler for request/placement draws.
#[derive(Clone, Debug)]
pub struct Library {
    k: u32,
    popularity: Popularity,
    weights: Vec<f64>,
    sampler: FileSampler,
}

impl Library {
    /// Build a library of `k` files under `popularity`.
    ///
    /// # Panics
    /// If `k == 0` (a cache network needs something to serve), or if the
    /// `K`-entry weights or alias table cannot be allocated.
    pub fn new(k: u32, popularity: Popularity) -> Self {
        Self::try_new(k, popularity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Library::new`], returning a [`BuildError`] instead of aborting
    /// when the `K`-entry weights or alias table cannot be allocated.
    ///
    /// # Panics
    /// If `k == 0`.
    pub(crate) fn try_new(k: u32, popularity: Popularity) -> Result<Self, BuildError> {
        assert!(k > 0, "library must contain at least one file");
        let weights = popularity
            .try_weights(k as usize)
            .map_err(|_| BuildError::of::<f64>(k.into(), "popularity weights"))?;
        let sampler = FileSampler::try_from_weights(&popularity, &weights)
            .map_err(|_| BuildError::of::<(f64, FileId)>(k.into(), "alias table"))?;
        Ok(Self {
            k,
            popularity,
            weights,
            sampler,
        })
    }

    /// Library size `K`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The popularity profile.
    pub fn popularity(&self) -> &Popularity {
        &self.popularity
    }

    /// Normalized popularity vector `p_1..p_K`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Popularity of file `f`.
    #[inline]
    pub fn probability(&self, f: FileId) -> f64 {
        self.weights[f as usize]
    }

    /// Draw one file id from `P` in O(1).
    #[inline]
    pub fn sample_file<R: Rng + ?Sized>(&self, rng: &mut R) -> FileId {
        self.sampler.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_library() {
        let lib = Library::new(10, Popularity::Uniform);
        assert_eq!(lib.k(), 10);
        assert!((lib.probability(3) - 0.1).abs() < 1e-12);
        assert!((lib.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_library_sampling_in_range() {
        let lib = Library::new(64, Popularity::zipf(0.9));
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(lib.sample_file(&mut rng) < 64);
        }
    }

    #[test]
    #[should_panic(expected = "at least one file")]
    fn empty_library_panics() {
        let _ = Library::new(0, Popularity::Uniform);
    }
}
