//! Request generation (the paper's §II-B delivery phase).
//!
//! `n` sequential requests arrive; each picks its origin uniformly among
//! the `n` servers and its file from the popularity profile `P` (so the
//! per-server demand `D_i → Po(1)` as `n` grows). Under the paper's
//! with-replacement placement a file can end up with *zero* replicas; the
//! theory conditions on regimes where this does not happen w.h.p., but a
//! simulator must decide. [`UncachedPolicy`] names the decision: an
//! uncached draw is redrawn from the cached sub-library, so every request
//! is served by a node that caches its file.

use crate::network::CacheNetwork;
use paba_popularity::FileId;
use paba_topology::{NodeId, Topology};
use rand::Rng;

/// A single content request: which node asked for which file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// The requesting server (chosen uniformly).
    pub origin: NodeId,
    /// The requested file (popularity-distributed).
    pub file: FileId,
}

/// What a synthetic request source does when a sampled file has no
/// replica anywhere in the network. It has one value; the benchmark
/// harness still names it through [`crate::IidUniform::with_policy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UncachedPolicy {
    /// Condition the request distribution on the cached sub-library (an
    /// O(1) draw from [`crate::CacheNetwork::sample_cached_file`]'s
    /// precomputed conditional sampler). Keeps "n balls, all served"
    /// exactly like the paper's balls-into-bins framing.
    #[default]
    ResampleFile,
}

impl Request {
    /// Sample the next request for `net`: a uniform origin and a
    /// popularity draw, redrawn from the cached sub-library when uncached.
    ///
    /// # Panics
    /// If *no* file is cached.
    pub fn sample<T: Topology, R: Rng + ?Sized>(net: &CacheNetwork<T>, rng: &mut R) -> Self {
        let origin = rng.gen_range(0..net.n());
        let file = net.library().sample_file(rng);
        let file = apply_uncached_policy(net, file, rng);
        Self { origin, file }
    }
}

/// Post-process a popularity draw: resample an uncached `file` from the
/// conditional cached-files sampler, pass a cached one through — the
/// shared tail of every synthetic request source.
///
/// # Panics
/// See [`Request::sample`].
#[inline]
pub fn apply_uncached_policy<T: Topology, R: Rng + ?Sized>(
    net: &CacheNetwork<T>,
    file: FileId,
    rng: &mut R,
) -> FileId {
    if net.placement().replica_count(file) == 0 {
        assert!(
            net.cached_file_count() > 0,
            "no file has any replica; cannot resample"
        );
        // One O(1) draw from the precomputed conditional sampler — the old
        // redraw loop needed O(K) expected draws when only a few files were
        // cached.
        return net.sample_cached_file(rng);
    }
    file
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CacheNetwork;
    use paba_popularity::Popularity;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64, k: u32, m: u32) -> CacheNetwork<paba_topology::Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(5)
            .library(k, Popularity::Uniform)
            .cache_size(m)
            .build(&mut rng)
    }

    #[test]
    fn resample_only_yields_cached_files() {
        // K much larger than total cache slots: many uncached files.
        let net = tiny_net(3, 500, 1);
        assert!(net.placement().uncached_files() > 0);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..2000 {
            let r = Request::sample(&net, &mut rng);
            assert!(r.origin < net.n());
            assert!(
                net.placement().replica_count(r.file) > 0,
                "resampled request hit uncached file {}",
                r.file
            );
        }
    }

    #[test]
    fn origins_are_uniformish() {
        let net = tiny_net(8, 10, 2);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut counts = vec![0u32; net.n() as usize];
        let trials = 25_000;
        for _ in 0..trials {
            counts[Request::sample(&net, &mut rng).origin as usize] += 1;
        }
        let expect = trials as f64 / net.n() as f64;
        for (u, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "origin {u}: {c} vs {expect}"
            );
        }
    }
}
