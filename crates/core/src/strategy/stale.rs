//! Stale load information (the paper's §VI implementation discussion).
//!
//! In a real deployment, Strategy II learns queue lengths "by polling or
//! piggybacking" — so decisions are made against a *snapshot* of the
//! loads, not their live values. [`StaleLoad`] wraps any inner strategy
//! and refreshes its load snapshot only every `period` requests,
//! quantifying how much staleness the power of two choices tolerates
//! (`paba simulate --stale P` shows the degradation curve; the classic
//! "herd effect" appears when many requests act on one stale view).

use crate::network::CacheNetwork;
use crate::request::Request;
use crate::strategy::{Assignment, Strategy};
use paba_topology::Topology;
use rand::Rng;

/// Wrapper strategy that feeds its inner strategy a periodically
/// refreshed snapshot of the load vector.
#[derive(Clone, Debug)]
pub struct StaleLoad<S> {
    inner: S,
    period: u64,
    seen: u64,
    snapshot: Vec<u32>,
}

impl<S> StaleLoad<S> {
    /// Wrap `inner`, refreshing its view of the loads every `period`
    /// requests (`period = 1` ⇒ always fresh; larger ⇒ staler).
    ///
    /// # Panics
    /// If `period == 0`.
    pub fn new(inner: S, period: u64) -> Self {
        assert!(period >= 1, "refresh period must be ≥ 1");
        Self {
            inner,
            period,
            seen: 0,
            snapshot: Vec::new(),
        }
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The refresh period.
    pub fn period(&self) -> u64 {
        self.period
    }
}

impl<T: Topology, S: Strategy<T>> Strategy<T> for StaleLoad<S> {
    fn assign<R: Rng + ?Sized>(
        &mut self,
        net: &CacheNetwork<T>,
        loads: &[u32],
        req: Request,
        rng: &mut R,
    ) -> Assignment {
        if self.seen.is_multiple_of(self.period) || self.snapshot.len() != loads.len() {
            self.snapshot.clear();
            self.snapshot.extend_from_slice(loads);
        }
        self.seen += 1;
        self.inner.assign(net, &self.snapshot, req, rng)
    }

    fn name(&self) -> &'static str {
        "stale-load"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate;
    use crate::strategy::ProximityChoice;
    use paba_popularity::Popularity;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> CacheNetwork<Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(16)
            .library(30, Popularity::Uniform)
            .cache_size(6)
            .build(&mut rng)
    }

    #[test]
    fn period_one_matches_fresh_strategy_exactly() {
        let net = net(1);
        let run_fresh = || {
            let mut s = ProximityChoice::two_choice(Some(4));
            let mut rng = SmallRng::seed_from_u64(2);
            simulate(&net, &mut s, 500, &mut rng)
        };
        let run_stale = || {
            let mut s = StaleLoad::new(ProximityChoice::two_choice(Some(4)), 1);
            let mut rng = SmallRng::seed_from_u64(2);
            simulate(&net, &mut s, 500, &mut rng)
        };
        assert_eq!(run_fresh(), run_stale());
    }

    #[test]
    fn staleness_degrades_balance_monotonically_on_average() {
        // Fresh two-choice must (statistically) beat an effectively
        // never-refreshed one; the latter still sees all-zero loads and
        // degenerates to a random-pair pick.
        let runs = 10u64;
        let avg = |period: u64, base: u64| -> f64 {
            (0..runs)
                .map(|s| {
                    let net = net(100 + s);
                    let mut strat = StaleLoad::new(ProximityChoice::two_choice(None), period);
                    let mut rng = SmallRng::seed_from_u64(base + s);
                    simulate(&net, &mut strat, net.n() as u64, &mut rng).max_load() as f64
                })
                .sum::<f64>()
                / runs as f64
        };
        let fresh = avg(1, 1000);
        let stale = avg(1_000_000, 2000);
        assert!(
            fresh < stale,
            "fresh ({fresh}) should balance better than fully stale ({stale})"
        );
    }

    #[test]
    fn invariants_preserved_under_staleness() {
        let net = net(3);
        let mut s = StaleLoad::new(ProximityChoice::two_choice(Some(3)), 50);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut loads = vec![0u32; net.n() as usize];
        for _ in 0..300 {
            let req = Request::sample(&net, &mut rng);
            let a = s.assign(&net, &loads, req, &mut rng);
            assert!(net.placement().caches(a.server, req.file));
            assert_eq!(a.hops, net.topo().dist(req.origin, a.server));
            loads[a.server as usize] += 1;
        }
    }

    #[test]
    fn accessors() {
        let s = StaleLoad::new(ProximityChoice::two_choice(None), 7);
        assert_eq!(s.period(), 7);
        assert_eq!(s.inner().choices(), 2);
    }

    #[test]
    #[should_panic(expected = "period must be ≥ 1")]
    fn zero_period_panics() {
        let _ = StaleLoad::new(ProximityChoice::two_choice(None), 0);
    }
}
