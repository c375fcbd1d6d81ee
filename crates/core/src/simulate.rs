//! End-to-end delivery-phase simulation.
//!
//! Replays the paper's experiment loop: `requests` sequential requests
//! (origin uniform, file popularity-distributed), each assigned by the
//! strategy *given the loads accumulated so far* — the sequential
//! balls-into-bins dynamic all the theorems are about. One loop,
//! [`simulate_source_profiled`], serves every entry point; the strategy,
//! the uncached-file policy (carried by the source) and the workload are
//! its parameters.

use crate::metrics::SimReport;
use crate::network::CacheNetwork;
use crate::request::UncachedPolicy;
use crate::source::{IidUniform, RequestSource};
use crate::strategy::Strategy;
use paba_telemetry::{NullRecorder, Recorder, SpanTimer, Stage};
use paba_topology::Topology;
use rand::Rng;

/// Run `requests` sequential requests of the paper's workload
/// ([`IidUniform`] with [`UncachedPolicy::ResampleFile`], the workspace
/// default — see DESIGN.md §5) through `strategy` and return the
/// aggregated [`SimReport`]. For another policy or workload, pass its
/// source to [`simulate_source`].
pub fn simulate<T: Topology, S: Strategy<T>, R: Rng + ?Sized>(
    net: &CacheNetwork<T>,
    strategy: &mut S,
    requests: u64,
    rng: &mut R,
) -> SimReport {
    let mut source = IidUniform::with_policy(UncachedPolicy::ResampleFile);
    simulate_source(net, strategy, &mut source, requests, rng)
}

/// Run `requests` sequential requests drawn from an arbitrary
/// [`RequestSource`] through `strategy`: [`simulate_source_profiled`]
/// without a recorder.
///
/// For a finite source (e.g. a trace replay), `requests` may not exceed
/// the source's remaining length — finite sources panic when drawn past
/// the end.
pub fn simulate_source<T, S, W, R>(
    net: &CacheNetwork<T>,
    strategy: &mut S,
    source: &mut W,
    requests: u64,
    rng: &mut R,
) -> SimReport
where
    T: Topology,
    S: Strategy<T>,
    W: RequestSource<T>,
    R: Rng + ?Sized,
{
    simulate_source_profiled(net, strategy, source, requests, rng, &NullRecorder)
}

/// The request loop: [`simulate_source`] with stage-level span timing and
/// per-request load observation. The whole loop runs inside a
/// [`Stage::AssignLoop`] span on `rec`, and after each request is
/// recorded `rec` observes the full load vector via [`Recorder::loads`]
/// (feeding load-evolution time series; a no-op for recorders that don't
/// collect them). With [`NullRecorder`] both compile away.
///
/// The recorder passed here times the loop and watches loads; to
/// additionally count sampler paths or see each request and its
/// assignment ([`Recorder::request`]) the *strategy* must carry a
/// recorder too (see `ProximityChoice::with_recorder`) — typically the
/// same one.
pub fn simulate_source_profiled<T, S, W, R, Rec>(
    net: &CacheNetwork<T>,
    strategy: &mut S,
    source: &mut W,
    requests: u64,
    rng: &mut R,
    rec: &Rec,
) -> SimReport
where
    T: Topology,
    S: Strategy<T>,
    W: RequestSource<T>,
    R: Rng + ?Sized,
    Rec: Recorder,
{
    let timer = SpanTimer::start(rec, Stage::AssignLoop);
    let mut report = SimReport::new(net.n());
    for i in 0..requests {
        let req = source.next_request(net, rng);
        let a = strategy.assign(net, &report.loads, req, rng);
        report.record(a.server, a.hops, a.fallback);
        if Rec::ENABLED {
            rec.loads(i, &report.loads);
        }
    }
    debug_assert!(report.check_conservation());
    timer.stop(rec);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{NearestReplica, ProximityChoice};
    use paba_popularity::Popularity;
    use paba_telemetry::{Counter, SamplerPath};
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::cell::RefCell;

    fn net(seed: u64) -> CacheNetwork<Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(8)
            .library(16, Popularity::Uniform)
            .cache_size(3)
            .build(&mut rng)
    }

    #[test]
    fn report_conserves_requests() {
        let net = net(1);
        let mut s = NearestReplica::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let rep = simulate(&net, &mut s, 300, &mut rng);
        assert_eq!(rep.total_requests, 300);
        assert!(rep.check_conservation());
        assert!(rep.max_load() >= (300 / net.n()).max(1));
    }

    /// Every `(origin, server, hops)` a strategy reports through its
    /// recorder's [`Recorder::request`] hook.
    #[derive(Default)]
    struct Seen(RefCell<Vec<(u64, u64, u32)>>);

    impl Recorder for Seen {
        const ENABLED: bool = true;
        fn path(&self, _path: SamplerPath) {}
        fn count(&self, _counter: Counter, _delta: u64) {}
        fn pool_size(&self, _size: usize) {}
        fn span_ns(&self, _stage: Stage, _nanos: u64) {}
        fn request(
            &self,
            _file: u64,
            origin: u64,
            server: u64,
            hops: u32,
            _candidates: &mut dyn Iterator<Item = (u64, u32)>,
        ) {
            self.0.borrow_mut().push((origin, server, hops));
        }
    }

    #[test]
    fn observer_sees_every_request() {
        let net = net(3);
        let seen = Seen::default();
        let mut s = ProximityChoice::two_choice(Some(2)).with_recorder(&seen);
        let mut rng = SmallRng::seed_from_u64(4);
        let rep = simulate(&net, &mut s, 123, &mut rng);
        let seen = seen.0.take();
        assert_eq!(seen.len(), 123);
        for (origin, server, hops) in seen {
            assert!(origin < u64::from(net.n()));
            assert_eq!(hops, net.topo().dist(origin as u32, server as u32));
        }
        assert_eq!(rep.total_requests, 123);
    }

    #[test]
    fn loads_are_visible_to_the_strategy_as_they_accumulate() {
        // With a single file and full replication, two-choice spreads
        // requests: no node should end up with more than a small multiple
        // of the mean while a load-oblivious origin-server would not.
        let topo = Torus::new(8);
        let library = crate::Library::new(1, Popularity::Uniform);
        let placement = crate::Placement::full(64, 1);
        let net = CacheNetwork::from_parts(topo, library, placement);
        let mut s = ProximityChoice::two_choice(None);
        let mut rng = SmallRng::seed_from_u64(5);
        let rep = simulate(&net, &mut s, 64 * 8, &mut rng);
        // mean load 8; classic two-choice keeps the max within mean+O(loglog n).
        assert!(rep.max_load() <= 13, "max load {} too high", rep.max_load());
    }

    #[test]
    fn zero_requests() {
        let net = net(6);
        let mut s = NearestReplica::new();
        let mut rng = SmallRng::seed_from_u64(7);
        let rep = simulate(&net, &mut s, 0, &mut rng);
        assert_eq!(rep.total_requests, 0);
        assert_eq!(rep.max_load(), 0);
    }

    #[test]
    fn serve_at_origin_policy_counts_uncached() {
        let mut rng = SmallRng::seed_from_u64(8);
        let sparse = CacheNetwork::builder()
            .torus_side(4)
            .library(500, Popularity::Uniform)
            .cache_size(1)
            .build(&mut rng);
        let mut s = NearestReplica::new();
        let mut source = IidUniform::with_policy(UncachedPolicy::ServeAtOrigin);
        let rep = simulate_source(&sparse, &mut s, &mut source, 2000, &mut rng);
        assert!(rep.uncached > 0, "this regime must hit uncached files");
        assert!(rep.check_conservation());
    }
}
