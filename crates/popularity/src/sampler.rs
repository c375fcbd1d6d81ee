//! Profile-aware sampler dispatch.
//!
//! Uniform profiles need no table at all (a single `gen_range` is both
//! exact and ~2× faster than an alias draw), while skewed profiles get the
//! alias table. This is the sampler the cache network and request stream
//! actually use.

use crate::{AliasTable, FileId, Popularity};
use rand::Rng;
use std::collections::TryReserveError;

/// A sampler over file ids `0..k` following a [`Popularity`] profile.
#[derive(Clone, Debug)]
pub enum FileSampler {
    /// Exact uniform draw over `0..k`.
    Uniform {
        /// Library size.
        k: u32,
    },
    /// Alias-table draw for non-uniform profiles.
    Alias(AliasTable),
}

impl FileSampler {
    /// The sampler for `profile` over `weights.len()` files, where
    /// `weights` are the profile's weights: no table for a uniform
    /// profile, else an alias table over `weights`. Returns the allocation
    /// error of a table too large for memory instead of aborting.
    ///
    /// # Panics
    /// If `weights` is empty or longer than `u32::MAX`, or on the invalid
    /// weights [`AliasTable::new`] rejects.
    pub fn try_from_weights(
        profile: &Popularity,
        weights: &[f64],
    ) -> Result<Self, TryReserveError> {
        let k = u32::try_from(weights.len()).expect("library size must fit in a u32");
        assert!(k > 0, "library must be non-empty");
        Ok(if profile.is_uniform() {
            FileSampler::Uniform { k }
        } else {
            FileSampler::Alias(AliasTable::try_new(weights)?)
        })
    }

    /// Library size.
    pub fn k(&self) -> u32 {
        match self {
            FileSampler::Uniform { k } => *k,
            FileSampler::Alias(t) => t.len() as u32,
        }
    }

    /// Draw one file id.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> FileId {
        match self {
            FileSampler::Uniform { k } => rng.gen_range(0..*k),
            FileSampler::Alias(t) => t.sample(rng),
        }
    }

    /// Fill `out` with i.i.d. draws (placement helper).
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [FileId]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sampler(profile: &Popularity, k: u32) -> FileSampler {
        FileSampler::try_from_weights(profile, &profile.weights(k as usize)).unwrap()
    }

    #[test]
    fn uniform_profile_uses_fast_path() {
        let s = sampler(&Popularity::Uniform, 10);
        assert!(matches!(s, FileSampler::Uniform { k: 10 }));
        let s = sampler(&Popularity::zipf(0.0), 5);
        assert!(matches!(s, FileSampler::Uniform { k: 5 }));
    }

    #[test]
    fn zipf_profile_uses_alias() {
        let s = sampler(&Popularity::zipf(0.9), 10);
        assert!(matches!(s, FileSampler::Alias(_)));
        assert_eq!(s.k(), 10);
    }

    #[test]
    fn samples_in_range() {
        let mut rng = SmallRng::seed_from_u64(5);
        for profile in [Popularity::Uniform, Popularity::zipf(1.2)] {
            let s = sampler(&profile, 17);
            for _ in 0..1000 {
                assert!(s.sample(&mut rng) < 17);
            }
        }
    }

    #[test]
    fn zipf_rank_ordering_respected_empirically() {
        let s = sampler(&Popularity::zipf(1.0), 8);
        let mut rng = SmallRng::seed_from_u64(77);
        let mut counts = [0u64; 8];
        for _ in 0..100_000 {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        // Popularity must be (statistically) decreasing in rank.
        for i in 0..7 {
            assert!(
                counts[i] as f64 > counts[i + 1] as f64 * 0.95,
                "rank order violated at {i}: {counts:?}"
            );
        }
        // File 0 should get ~ p_0 = 1 / H_8 ≈ 0.368 of requests.
        let h8: f64 = (1..=8).map(|j| 1.0 / j as f64).sum();
        let expect = 100_000.0 / h8;
        assert!((counts[0] as f64 - expect).abs() < 0.05 * expect);
    }

    #[test]
    fn sample_many_fills_buffer() {
        let s = sampler(&Popularity::Uniform, 4);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut buf = vec![999u32; 64];
        s.sample_many(&mut rng, &mut buf);
        assert!(buf.iter().all(|&f| f < 4));
    }
}
