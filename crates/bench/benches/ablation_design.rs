//! Ablations over the simulator's design choices (DESIGN.md §2/§5).
//!
//! 1. **Power of d choices saturation** — `d ∈ {1, 2, 3, 4}` versus the
//!    full-information [`paba_core::LeastLoadedInBall`] baseline at a
//!    matched radius: two probes already capture almost all of the
//!    benefit of probing every replica in the ball (Azar et al.'s classic
//!    punchline, here under the proximity constraint).
//! 2. **Pair sampling mode** — unordered distinct pairs (the paper's
//!    Lemma-3 process) versus independent with-replacement draws.
//! 3. **Placement policy** — with-replacement (the paper's model) versus
//!    distinct-files placement: distinct placement wastes no slots, so it
//!    balances slightly better at equal `M`.
//! 4. **Uncached-file policy** — resampling versus serve-at-origin in a
//!    sparse regime where both paths actually trigger.
//! 5. **Load-information staleness** — Strategy II deciding on snapshots
//!    refreshed every `P` requests (the §VI polling/piggybacking
//!    discussion): how stale can the queue information get before the
//!    power of two choices fades?
//! 6. **DHT placement** (§VI's [29]/[30]) — deterministic consistent-
//!    hashing placement versus the paper's i.i.d. proportional placement.

use paba_bench::{emit, header, NetPoint};
use paba_core::{
    simulate, simulate_source, IidUniform, LeastLoadedInBall, NearestReplica, PairMode,
    PlacementPolicy, ProximityChoice, UncachedPolicy,
};
use paba_util::envcfg::EnvCfg;
use paba_util::Table;

fn main() {
    let cfg = EnvCfg::from_env();
    let runs = cfg.runs(10, 200, 2_000);
    header(
        "Design ablations: d-choices, pair mode, placement, uncached policy",
        "DESIGN.md section 2/5 decisions",
        &cfg,
        runs,
    );

    let point = NetPoint::uniform(45, 200, 10); // n=2025, replicas/file ≈ 100
    let radius = Some(8u32);

    // ---- 1. d-choice saturation ----
    let ds = [1u32, 2, 3, 4];
    let grid: Vec<(u32, ())> = ds.iter().map(|&d| (d, ())).collect();
    let d_res = paba_mcrunner::sweep(&grid, runs, cfg.seed, None, true, |(d, ()), _r, rng| {
        let net = point.build(rng);
        let mut s = ProximityChoice::with_choices(radius, *d);
        let rep = simulate(&net, &mut s, net.n() as u64, rng);
        (rep.max_load() as f64, rep.comm_cost())
    });
    let full_res = paba_mcrunner::sweep(&[((), ())], runs, cfg.seed, None, true, |_, _r, rng| {
        let net = point.build(rng);
        let mut s = LeastLoadedInBall::new(radius);
        let rep = simulate(&net, &mut s, net.n() as u64, rng);
        (rep.max_load() as f64, rep.comm_cost())
    });

    let mut t1 = Table::new(["policy", "max load L", "cost C", "probes/request"]);
    for (i, &d) in ds.iter().enumerate() {
        t1.push_row([
            format!("d = {d}"),
            format!("{:.3}", d_res[i].summarize(|o| o.0).mean),
            format!("{:.2}", d_res[i].summarize(|o| o.1).mean),
            format!("{d}"),
        ]);
    }
    t1.push_row([
        "full info (all in ball)".to_string(),
        format!("{:.3}", full_res[0].summarize(|o| o.0).mean),
        format!("{:.2}", full_res[0].summarize(|o| o.1).mean),
        "|B_r ∩ replicas| ≈ 15".to_string(),
    ]);
    emit("ablation_d_choices", &t1);
    println!(
        "Check: the d=1 → d=2 step captures most of the d=1 → full-info gap \
         (power of two choices); d>2 and full probing add little.\n"
    );

    // ---- 2. pair mode ----
    let modes = [PairMode::Distinct, PairMode::WithReplacement];
    let grid: Vec<(usize, ())> = (0..modes.len()).map(|i| (i, ())).collect();
    let m_res = paba_mcrunner::sweep(
        &grid,
        runs,
        cfg.seed ^ 0x11,
        None,
        true,
        |(i, ()), _r, rng| {
            let net = point.build(rng);
            let mut s = ProximityChoice::two_choice(radius).pair_mode(modes[*i]);
            let rep = simulate(&net, &mut s, net.n() as u64, rng);
            rep.max_load() as f64
        },
    );
    let mut t2 = Table::new(["pair mode", "max load L"]);
    for (i, m) in modes.iter().enumerate() {
        t2.push_row([
            format!("{m:?}"),
            format!("{:.3}", m_res[i].summarize(|&o| o).mean),
        ]);
    }
    emit("ablation_pair_mode", &t2);
    println!("Check: statistically close once balls hold >= ~10 candidates (with-replacement\nwastes the occasional duplicate probe, costing a fraction of a load unit).\n");

    // ---- 3. placement policy ----
    let policies = [
        PlacementPolicy::ProportionalWithReplacement,
        PlacementPolicy::ProportionalDistinct,
    ];
    let grid: Vec<(usize, ())> = (0..policies.len()).map(|i| (i, ())).collect();
    let p_res = paba_mcrunner::sweep(
        &grid,
        runs,
        cfg.seed ^ 0x22,
        None,
        true,
        |(i, ()), _r, rng| {
            let mut p = point.clone();
            p.policy = policies[*i];
            let net = p.build(rng);
            let mut near = NearestReplica::new();
            let near_rep = simulate(&net, &mut near, net.n() as u64, rng);
            let mut two = ProximityChoice::two_choice(radius);
            let two_rep = simulate(&net, &mut two, net.n() as u64, rng);
            (
                near_rep.max_load() as f64,
                near_rep.comm_cost(),
                two_rep.max_load() as f64,
            )
        },
    );
    let mut t3 = Table::new(["placement", "nearest L", "nearest C", "two-choice L"]);
    for (i, p) in policies.iter().enumerate() {
        t3.push_row([
            format!("{p:?}"),
            format!("{:.3}", p_res[i].summarize(|o| o.0).mean),
            format!("{:.3}", p_res[i].summarize(|o| o.1).mean),
            format!("{:.3}", p_res[i].summarize(|o| o.2).mean),
        ]);
    }
    emit("ablation_placement", &t3);
    println!(
        "Check: distinct placement (no wasted slots) lowers cost slightly and \
         loads marginally; the paper's with-replacement analysis is the \
         conservative case.\n"
    );

    // ---- 4. uncached policy in a sparse regime ----
    let sparse = NetPoint::uniform(20, 2_000, 1); // n=400 slots for K=2000 files
    let policies = [UncachedPolicy::ResampleFile, UncachedPolicy::ServeAtOrigin];
    let grid: Vec<(usize, ())> = (0..policies.len()).map(|i| (i, ())).collect();
    let u_res = paba_mcrunner::sweep(
        &grid,
        runs,
        cfg.seed ^ 0x33,
        None,
        true,
        |(i, ()), _r, rng| {
            let net = sparse.build(rng);
            let mut s = NearestReplica::new();
            let mut source = IidUniform::with_policy(policies[*i]);
            let rep = simulate_source(&net, &mut s, &mut source, net.n() as u64, rng);
            (
                rep.max_load() as f64,
                rep.comm_cost(),
                rep.uncached as f64 / rep.total_requests as f64,
            )
        },
    );
    let mut t4 = Table::new(["uncached policy", "max load L", "cost C", "uncached frac"]);
    for (i, p) in policies.iter().enumerate() {
        t4.push_row([
            format!("{p:?}"),
            format!("{:.3}", u_res[i].summarize(|o| o.0).mean),
            format!("{:.3}", u_res[i].summarize(|o| o.1).mean),
            format!("{:.4}", u_res[i].summarize(|o| o.2).mean),
        ]);
    }
    emit("ablation_uncached", &t4);
    println!(
        "Check: ~81% of files are uncached in this extreme regime \
         ((1-1/K)^(nM) ~ 0.82 with nM/K = 0.2); resampling concentrates all \
         demand on the cached fifth (higher L and C over real distances), \
         serving at the origin zeroes the hops of misses instead (lower C). \
         The paper's figures never enter this regime.\n"
    );

    // ---- 5. load-information staleness ----
    let periods = [1u64, 8, 64, 512, u64::MAX];
    let grid: Vec<(u64, ())> = periods.iter().map(|&p| (p, ())).collect();
    let s_res = paba_mcrunner::sweep(
        &grid,
        runs,
        cfg.seed ^ 0x44,
        None,
        true,
        |(p, ()), _r, rng| {
            let net = point.build(rng);
            let mut s = paba_core::StaleLoad::new(ProximityChoice::two_choice(radius), *p);
            let rep = simulate(&net, &mut s, net.n() as u64, rng);
            rep.max_load() as f64
        },
    );
    let mut t5 = Table::new(["refresh period", "max load L"]);
    for (i, &p) in periods.iter().enumerate() {
        t5.push_row([
            if p == u64::MAX {
                "never".to_string()
            } else {
                format!("{p}")
            },
            format!("{:.3}", s_res[i].summarize(|&o| o).mean),
        ]);
    }
    emit("ablation_staleness", &t5);
    println!(
        "Check: the balance degrades gracefully up to period ~ n/10 and collapses \
         to the load-oblivious level when the snapshot never refreshes -- two \
         choices tolerate substantial polling delay (section VI's conjecture).\n"
    );

    // ---- 6. DHT vs proportional placement ----
    // Equal-budget fixed replication: R = n*M/K copies per file.
    let fixed_r = point.n() * point.m / point.k;
    let kinds = [
        "proportional (paper)",
        "dht proportional",
        "dht fixed (equal budget)",
    ];
    let grid: Vec<(usize, ())> = (0..kinds.len()).map(|i| (i, ())).collect();
    let dht_res = paba_mcrunner::sweep(
        &grid,
        runs,
        cfg.seed ^ 0x55,
        None,
        true,
        |(i, ()), run, rng| {
            let n = point.n();
            let library = paba_core::Library::new(point.k, point.popularity.clone());
            let net = match *i {
                0 => point.build(rng),
                _ => {
                    let rule = if *i == 1 {
                        paba_dht::ReplicationRule::Proportional { m: point.m }
                    } else {
                        paba_dht::ReplicationRule::Fixed(fixed_r)
                    };
                    let placement = paba_dht::dht_placement(
                        n,
                        &library,
                        &paba_dht::DhtPlacementConfig {
                            vnodes: 128,
                            salt: paba_util::mix_seed(cfg.seed ^ 0x56, run as u64),
                            rule,
                        },
                    );
                    paba_core::CacheNetwork::from_parts(
                        paba_topology::Torus::new(point.side),
                        library,
                        placement,
                    )
                }
            };
            let mut near = NearestReplica::new();
            let near_rep = simulate(&net, &mut near, net.n() as u64, rng);
            let mut two = ProximityChoice::two_choice(radius);
            let two_rep = simulate(&net, &mut two, net.n() as u64, rng);
            (
                near_rep.max_load() as f64,
                near_rep.comm_cost(),
                two_rep.max_load() as f64,
                two_rep.comm_cost(),
            )
        },
    );
    let mut t6 = Table::new([
        "placement",
        "nearest L",
        "nearest C",
        "two-choice L",
        "two-choice C",
    ]);
    for (i, k) in kinds.iter().enumerate() {
        t6.push_row([
            k.to_string(),
            format!("{:.3}", dht_res[i].summarize(|o| o.0).mean),
            format!("{:.3}", dht_res[i].summarize(|o| o.1).mean),
            format!("{:.3}", dht_res[i].summarize(|o| o.2).mean),
            format!("{:.3}", dht_res[i].summarize(|o| o.3).mean),
        ]);
    }
    emit("ablation_dht_placement", &t6);
    println!(
        "Check: deterministic DHT placement reproduces the i.i.d. model's metrics \
         (consistent hashing spreads files like uniform random placement once \
         vnodes are plentiful) while adding the minimal-disruption property the \
         paper's section VI wants for deployment."
    );
}
