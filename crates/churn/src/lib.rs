//! # paba-churn — fault injection, dynamic placement, and repair
//!
//! The paper proves its guarantees for a placement built once and frozen
//! (§II-B), but motivates the model with CDN caches over a DHT (§VI) —
//! a regime of node failures, rejoins, and content ingest under capacity
//! pressure. This crate layers a deterministic churn engine over the
//! static stack:
//!
//! * [`ChurnSchedule`] — a seeded, replayable event sequence
//!   (crash / graceful leave / join / content insert) interleaved with
//!   the request loop by [`simulate_churn`];
//! * **mutable placement** — events mutate `Placement` incrementally
//!   (sorted replica lists, per-node file slots, and the dense bitmaps all
//!   stay consistent; see `Placement::insert`/`remove`), one
//!   `mutate_placement` batch per event, with `paba-dht`'s
//!   [`SuccessorDirectory`](paba_dht::SuccessorDirectory) as the
//!   minimal-disruption directory for leave handoff and join refill.
//!   It holds every file's first `4R` successors on one consistent-hash
//!   ring over every node, built once and read through the engine's
//!   liveness mask, so an event touches only the files whose list holds
//!   the node that churned (a joiner reads its files off the
//!   directory's node → files index);
//! * **graceful degradation** — requests hitting a dead replica probe
//!   the next-nearest live replicas under a bounded retry budget, then
//!   serve degraded at the origin ([`ChurnEngine::failover`]);
//! * **repair** — a pluggable [`RepairPolicy`] (random vs placement-level
//!   two-choices) re-homes lost copies so (δ,µ)-goodness survives churn.
//!
//! Every run is a pure function of `(network seed, schedule seed,
//! config)`, so churn experiments stay bit-identical across mcrunner
//! thread counts.

mod engine;
mod schedule;

pub use engine::{simulate_churn, ChurnCfg, ChurnEngine, ChurnReport, RepairPolicy};
pub use schedule::{ChurnEvent, ChurnEventKind, ChurnSchedule, ScheduleSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use paba_core::{CacheNetwork, GoodnessReport, IidUniform, ProximityChoice};
    use paba_popularity::Popularity;
    use paba_telemetry::{AtomicRecorder, NullRecorder};
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> CacheNetwork<Torus> {
        let mut rng = SmallRng::seed_from_u64(seed);
        CacheNetwork::builder()
            .torus_side(12)
            .library(60, Popularity::zipf(0.8))
            .cache_size(6)
            .build(&mut rng)
    }

    fn run(
        repair: RepairPolicy,
        seed: u64,
    ) -> (paba_core::SimReport, ChurnReport, CacheNetwork<Torus>) {
        let mut network = net(seed);
        let spec = ScheduleSpec {
            cycle_fraction: 0.2,
            graceful_fraction: 0.5,
            inserts: 12,
        };
        let requests = 4 * network.n() as u64;
        let schedule =
            ChurnSchedule::generate(&spec, network.n(), network.k(), requests, seed ^ 0xC0FFEE);
        let cfg = ChurnCfg {
            repair,
            salt: seed,
            ..ChurnCfg::default()
        };
        let mut strategy = ProximityChoice::two_choice(Some(4));
        let mut source = IidUniform::new();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEED);
        let (sim, churn) = simulate_churn(
            &mut network,
            &mut strategy,
            &mut source,
            requests,
            &schedule,
            cfg,
            &mut rng,
            &NullRecorder,
        );
        (sim, churn, network)
    }

    #[test]
    fn repair_off_completes_with_bounded_retries() {
        let (sim, churn, _) = run(RepairPolicy::None, 3);
        assert_eq!(
            sim.total_requests,
            sim.loads.iter().map(|&l| l as u64).sum()
        );
        assert!(churn.events_applied > 0);
        // Crashes leave the directory stale, so the failover path must
        // actually fire under this schedule.
        assert!(churn.retries > 0, "stale directory must cause retries");
        // Bounded: per request at most 1 + retry_budget probes.
        let cap = sim.total_requests * (1 + ChurnCfg::default().retry_budget as u64);
        assert!(churn.retries <= cap);
        assert!(churn.failed <= sim.total_requests);
        // No repair ⇒ no repair migrations from crashes; leaves still
        // hand off, so migrations may be positive, but nothing refills.
        assert!(churn.inserted > 0, "insert events placed copies");
    }

    #[test]
    fn repair_on_restores_placement_mass() {
        let (sim, churn, network) = run(RepairPolicy::TwoChoices, 4);
        assert!(churn.migrations > 0, "repair must move replicas");
        assert_eq!(
            sim.total_requests,
            sim.loads.iter().map(|&l| l as u64).sum()
        );
        // After the run every cycled node has rejoined and refilled; the
        // total cached mass should be close to the static n·(distinct
        // draws) level — within 20% is ample for this smoke check.
        let total: u64 = (0..network.n())
            .map(|u| network.placement().t_u(u) as u64)
            .sum();
        let nominal = network.n() as u64 * network.m() as u64;
        assert!(
            total * 5 >= nominal * 3,
            "placement mass collapsed: {total} vs nominal {nominal}"
        );
        // Goodness stays measurable on the repaired placement.
        let g = GoodnessReport::measure(&network, Some(4));
        assert!(g.min_t_u >= 1, "repair must keep every node stocked");
    }

    #[test]
    fn two_choices_repair_balances_better_than_random() {
        // Placement-level two-choices should keep the min t(u) at least
        // as high as random re-homing, aggregated over seeds.
        let (mut min_random, mut min_two) = (0u64, 0u64);
        for seed in 0..6 {
            let (_, _, net_r) = run(RepairPolicy::Random, 100 + seed);
            let (_, _, net_t) = run(RepairPolicy::TwoChoices, 100 + seed);
            min_random += (0..net_r.n())
                .map(|u| net_r.placement().t_u(u) as u64)
                .min()
                .unwrap();
            min_two += (0..net_t.n())
                .map(|u| net_t.placement().t_u(u) as u64)
                .min()
                .unwrap();
        }
        assert!(
            min_two >= min_random,
            "two-choices min t(u) sum {min_two} < random {min_random}"
        );
    }

    #[test]
    fn same_seed_is_bit_identical_and_recorder_free() {
        // Identical seeds ⇒ identical SimReport/ChurnReport, and an
        // AtomicRecorder must not perturb results (it never touches the
        // RNG stream).
        let (a_sim, a_churn, _) = run(RepairPolicy::TwoChoices, 9);
        let (b_sim, b_churn, _) = run(RepairPolicy::TwoChoices, 9);
        assert_eq!(a_sim, b_sim);
        assert_eq!(a_churn, b_churn);

        let mut network = net(9);
        let spec = ScheduleSpec {
            cycle_fraction: 0.2,
            graceful_fraction: 0.5,
            inserts: 12,
        };
        let requests = 4 * network.n() as u64;
        let schedule =
            ChurnSchedule::generate(&spec, network.n(), network.k(), requests, 9 ^ 0xC0FFEE);
        let cfg = ChurnCfg {
            repair: RepairPolicy::TwoChoices,
            salt: 9,
            ..ChurnCfg::default()
        };
        let rec = AtomicRecorder::new();
        let mut strategy = ProximityChoice::two_choice(Some(4));
        let mut source = IidUniform::new();
        let mut rng = SmallRng::seed_from_u64(9 ^ 0xFEED);
        let (c_sim, c_churn) = simulate_churn(
            &mut network,
            &mut strategy,
            &mut source,
            requests,
            &schedule,
            cfg,
            &mut rng,
            &rec,
        );
        assert_eq!(a_sim, c_sim, "recorder must not perturb the run");
        assert_eq!(a_churn, c_churn);
        // Recorder counters agree with the independent ChurnReport.
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter(paba_telemetry::Counter::DeadReplicaRetry),
            c_churn.retries
        );
        assert_eq!(
            snap.counter(paba_telemetry::Counter::FailedRequest),
            c_churn.failed
        );
        assert_eq!(
            snap.counter(paba_telemetry::Counter::ChurnEvent),
            c_churn.events_applied
        );
    }

    #[test]
    fn empty_schedule_matches_static_simulation() {
        // With no events, simulate_churn must reproduce simulate_source
        // exactly (same rng stream: no event draws, no failovers).
        let mut network = net(5);
        let schedule = ChurnSchedule::default();
        let mut strategy = ProximityChoice::two_choice(Some(4));
        let mut source = IidUniform::new();
        let mut rng = SmallRng::seed_from_u64(77);
        let requests = 2 * network.n() as u64;
        let (churned, report) = simulate_churn(
            &mut network,
            &mut strategy,
            &mut source,
            requests,
            &schedule,
            ChurnCfg::default(),
            &mut rng,
            &NullRecorder,
        );
        assert_eq!(report, ChurnReport::default());

        let static_net = net(5);
        let mut strategy2 = ProximityChoice::two_choice(Some(4));
        let mut source2 = IidUniform::new();
        let mut rng2 = SmallRng::seed_from_u64(77);
        let static_report = paba_core::simulate_source(
            &static_net,
            &mut strategy2,
            &mut source2,
            requests,
            &mut rng2,
        );
        assert_eq!(churned, static_report);
    }
}
