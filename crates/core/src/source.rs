//! Pluggable request sources: who asks for what, and in which order.
//!
//! The paper's delivery phase fixes one workload — origin uniform over the
//! `n` servers, file i.i.d. from the popularity profile ([`IidUniform`],
//! exactly [`Request::sample`]). Everything richer (flash crowds, skewed
//! client geography, drifting popularity, recorded traces) implements the
//! same [`RequestSource`] trait in the `paba-workload` crate and plugs
//! into [`crate::simulate_source`] unchanged.

use crate::network::CacheNetwork;
use crate::request::{Request, UncachedPolicy};
use paba_topology::Topology;
use rand::Rng;

/// A stream of requests against a fixed cache network.
///
/// Sources are stateful (`&mut self`): a flash crowd tracks elapsed
/// requests, a trace replay tracks its cursor. Determinism contract: the
/// emitted stream must be a pure function of the source's construction
/// parameters, the network, and the RNG stream.
pub trait RequestSource<T: Topology> {
    /// Produce the next request.
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request;

    /// Remaining stream length, if finite (e.g. a trace replay). `None`
    /// means unbounded.
    fn size_hint(&self) -> Option<u64> {
        None
    }

    /// Human-readable source name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's baseline workload: origin uniform among the `n` servers,
/// file i.i.d. from the library's popularity profile, uncached draws
/// redrawn from the cached sub-library ([`UncachedPolicy::ResampleFile`]).
///
/// Bit-for-bit compatible with the legacy [`Request::sample`] stream: for
/// the same network and RNG state it emits exactly the same requests,
/// consuming exactly the same random draws.
#[derive(Clone, Copy, Debug, Default)]
pub struct IidUniform;

impl IidUniform {
    /// The baseline source.
    pub fn new() -> Self {
        Self
    }

    /// [`IidUniform::new`], naming the uncached-file policy's one value.
    pub fn with_policy(_policy: UncachedPolicy) -> Self {
        Self
    }
}

impl<T: Topology> RequestSource<T> for IidUniform {
    #[inline]
    fn next_request<R: Rng + ?Sized>(&mut self, net: &CacheNetwork<T>, rng: &mut R) -> Request {
        Request::sample(net, rng)
    }

    fn name(&self) -> &'static str {
        "iid-uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_popularity::Popularity;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> CacheNetwork<Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(6)
            .library(80, Popularity::zipf(0.9))
            .cache_size(2)
            .build(&mut rng)
    }

    #[test]
    fn iid_uniform_matches_legacy_request_sample_bit_for_bit() {
        let net = net(1);
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = a.clone();
        let mut src = IidUniform::new();
        for _ in 0..500 {
            let legacy = Request::sample(&net, &mut a);
            let sourced = src.next_request(&net, &mut b);
            assert_eq!(legacy, sourced);
        }
        // Same number of draws consumed: the streams stay in lockstep.
        assert_eq!(a, b);
    }

    #[test]
    fn iid_uniform_is_unbounded() {
        let src = IidUniform::new();
        assert_eq!(RequestSource::<Torus>::size_hint(&src), None);
        assert_eq!(RequestSource::<Torus>::name(&src), "iid-uniform");
    }
}
