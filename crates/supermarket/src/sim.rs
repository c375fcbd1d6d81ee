//! The discrete-event queueing engine.
//!
//! Two event kinds drive the clock: Poisson arrivals (rate `λ·n`) and
//! per-server departures (service ~ Exp(1), scheduled when a job reaches
//! the head of its queue). Dispatch decisions delegate to a
//! [`paba_core::Strategy`] evaluated on the instantaneous queue-length
//! vector, so the static strategies and the queueing model share one
//! implementation of "two random nearby replicas, pick the shorter queue".
//!
//! The engine's state, O(n) plus one node per queued job, none of it
//! scanned per event:
//!
//! * `lens`: the queue length of every server (the job in service
//!   included), the load vector handed to the strategy, and their running
//!   total;
//! * `JobQueues`: every server's FIFO of queued arrival times, linked
//!   through one pooled node array;
//! * `DepartureTree`: a winner tree with one leaf per server holding the
//!   departure time of its job in service (`+∞` while idle), whose root is
//!   the next departure; a departure, a start of service and a server going
//!   idle each replay one leaf-to-root path, O(log n);
//! * `Occupancy`: `counts[k]`, the servers holding at least `k` jobs for
//!   `k ≤ tail_cap`, and the highest occupied threshold `top`, so the
//!   window integrals advance over `0..=top` only, O(top) per event.
//!
//! Requests come from any [`paba_core::RequestSource`]
//! ([`simulate_queueing_source`]), so the `paba-workload` families —
//! flash crowds, skewed origins, drifting popularity, trace replay — drive
//! the temporal model exactly as they drive the static one.
//! [`simulate_queueing`] is the baseline-workload wrapper and emits a
//! stream bit-identical to the pre-source engine.
//!
//! Every statistic is measured over the window `[warmup, horizon)` with
//! one shared boundary predicate `t >= warmup` — time-averaged integrals
//! (`WindowAccumulator`), event counts, response times (in-window
//! *arrivals* only, so the warmup transient cannot contaminate them), and
//! the maximum queue length (the pre-warmup peak is reported separately).

use crate::event::DepartureTree;
use crate::report::QueueReport;
use crate::sojourn::SojournHistogram;
use crate::state::{JobQueues, Occupancy};
use paba_core::{CacheNetwork, IidUniform, RequestSource, Strategy};
use paba_telemetry::LoadSeries;
use paba_topology::Topology;
use rand::Rng;

/// Configuration of a queueing run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueSimConfig {
    /// Per-server arrival rate `λ` (total rate `λ·n`); must satisfy
    /// `0 < λ < 1` for stability.
    pub lambda: f64,
    /// Simulation end time.
    pub horizon: f64,
    /// Measurements start after this time (let the system reach
    /// stationarity first).
    pub warmup: f64,
    /// Track tail fractions for queue lengths `0..=tail_cap`.
    pub tail_cap: usize,
    /// Sample the queue-length vector into [`QueueReport::series`] every
    /// `stride` arrivals (0 = off). Uses the same stride semantics as
    /// `paba trace --stride`.
    pub stride: u64,
}

impl Default for QueueSimConfig {
    fn default() -> Self {
        Self {
            lambda: 0.7,
            horizon: 2_000.0,
            warmup: 500.0,
            tail_cap: 32,
            stride: 0,
        }
    }
}

/// Exponential variate with the given rate.
#[inline]
fn exp_sample<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    debug_assert!(rate > 0.0);
    // gen::<f64>() ∈ [0,1); reflect to (0,1] so ln never sees 0.
    let u = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// Time-averaged integrals over the measurement window `[warmup, ∞)`.
///
/// `integral[k]` accumulates `∫ counts[k] dt` and `queue_area`
/// accumulates `∫ Σ_i len_i dt`, both restricted to the window. The
/// engine keeps `Σ_i len_i` as a running integer total and passes only
/// the occupied thresholds `counts[..=top]`, so an event costs O(top),
/// not O(n) or O(tail_cap). Each threshold above `top` would add
/// `0 × dt = +0.0`, which leaves its integral's bits unchanged, and the
/// area is exactly what a re-sum gives. The window opens at
/// `t == warmup` — the same `>= warmup` predicate as the event-counted
/// statistics, so an event landing exactly on the boundary belongs to the
/// window for every statistic at once.
struct WindowAccumulator {
    warmup: f64,
    /// Last time the integrals were advanced to (0 until the window opens).
    last: f64,
    integral: Vec<f64>,
    queue_area: f64,
}

impl WindowAccumulator {
    fn new(warmup: f64, cap: usize) -> Self {
        Self {
            warmup,
            last: 0.0,
            integral: vec![0.0; cap + 1],
            queue_area: 0.0,
        }
    }

    /// Credit `[max(last, warmup), t)` with the current state, then move
    /// the cursor to `t`. Thresholds past the end of `counts` are
    /// credited nothing.
    fn advance(&mut self, t: f64, counts: &[u32], total_len: u64) {
        if t >= self.warmup {
            let from = self.last.max(self.warmup);
            let dt = t - from;
            if dt > 0.0 {
                for (acc, &c) in self.integral.iter_mut().zip(counts.iter()) {
                    *acc += c as f64 * dt;
                }
                self.queue_area += total_len as f64 * dt;
            }
            self.last = t;
        }
    }

    #[cfg(test)]
    fn last_advance(&self) -> f64 {
        self.last
    }
}

/// Run the queueing simulation under the paper's baseline workload
/// (origins uniform, files i.i.d. from the popularity profile).
///
/// Equivalent to [`simulate_queueing_source`] with
/// [`IidUniform`] — bit-for-bit, including the RNG stream.
///
/// # Panics
/// If `lambda ∉ (0,1)` or `warmup ≥ horizon`.
pub fn simulate_queueing<T, S, R>(
    net: &CacheNetwork<T>,
    strategy: &mut S,
    cfg: &QueueSimConfig,
    rng: &mut R,
) -> QueueReport
where
    T: Topology,
    S: Strategy<T>,
    R: Rng + ?Sized,
{
    let mut source = IidUniform::new();
    simulate_queueing_source(net, strategy, &mut source, cfg, rng)
}

/// Run the queueing simulation with an arbitrary request source.
///
/// Poisson thinning happens here: arrivals occur at total rate `λ·n`, and
/// each arrival's origin/file pair is drawn from `source`, so any
/// `paba-workload` family (hotspots, flash crowds, shifting popularity,
/// trace replay) plugs in unchanged.
///
/// # Panics
/// If `lambda ∉ (0,1)` or `warmup ≥ horizon`.
pub fn simulate_queueing_source<T, S, Src, R>(
    net: &CacheNetwork<T>,
    strategy: &mut S,
    source: &mut Src,
    cfg: &QueueSimConfig,
    rng: &mut R,
) -> QueueReport
where
    T: Topology,
    S: Strategy<T>,
    Src: RequestSource<T>,
    R: Rng + ?Sized,
{
    assert!(
        cfg.lambda > 0.0 && cfg.lambda < 1.0,
        "need 0 < λ < 1 for stability, got {}",
        cfg.lambda
    );
    assert!(cfg.warmup < cfg.horizon, "warmup must precede horizon");

    let n = net.n();
    let total_rate = cfg.lambda * n as f64;
    // Queue lengths, handed to the dispatch strategy, and their running
    // sum; the queued jobs' arrival times; the pending departures.
    let mut lens: Vec<u32> = vec![0; n as usize];
    let mut total_len = 0u64;
    let mut queues = JobQueues::new(n);
    let mut departures = DepartureTree::new(n);

    let cap = cfg.tail_cap.max(1);
    let mut occupancy = Occupancy::new(n, cap);
    let mut acc = WindowAccumulator::new(cfg.warmup, cap);

    let mut clock;
    let mut next_arrival = exp_sample(total_rate, rng);

    let mut window_open = false;
    let mut max_queue = 0u32;
    let mut pre_warmup_max_queue = 0u32;
    let mut completed = 0u64;
    let mut response_sum = 0.0f64;
    let mut sojourns = SojournHistogram::new();
    let mut dispatched = 0u64;
    let mut hops_sum = 0.0f64;
    let mut arrival_idx = 0u64;
    let mut series = LoadSeries::new(cfg.stride);

    loop {
        // Next event: the earliest departure (`+∞` while every server is
        // idle) or the next arrival; a departure wins a tie.
        let (departure, server) = departures.next();
        let (t, is_arrival) = if departure <= next_arrival {
            (departure, false)
        } else {
            (next_arrival, true)
        };
        // Seed the in-window maximum with the state carried across the
        // warmup boundary: the window's queue-length process starts from
        // whatever the transient left behind, not from zero.
        if !window_open && t >= cfg.warmup {
            window_open = true;
            max_queue = lens.iter().copied().max().unwrap_or(0);
        }
        if t >= cfg.horizon {
            debug_assert_eq!(total_len, lens.iter().map(|&l| l as u64).sum::<u64>());
            acc.advance(cfg.horizon, occupancy.occupied(), total_len);
            break;
        }
        acc.advance(t, occupancy.occupied(), total_len);
        clock = t;

        if is_arrival {
            next_arrival = clock + exp_sample(total_rate, rng);
            let req = source.next_request(net, rng);
            let a = strategy.assign(net, &lens, req, rng);
            let s = a.server as usize;
            queues.push(s, clock);
            lens[s] += 1;
            total_len += 1;
            let new_len = lens[s];
            occupancy.grew(new_len);
            if clock >= cfg.warmup {
                max_queue = max_queue.max(new_len);
                dispatched += 1;
                hops_sum += a.hops as f64;
            } else {
                pre_warmup_max_queue = pre_warmup_max_queue.max(new_len);
            }
            series.observe(arrival_idx, &lens);
            arrival_idx += 1;
            if new_len == 1 {
                departures.schedule(a.server, clock + exp_sample(1.0, rng));
            }
        } else {
            let s = server as usize;
            let arrived = queues.pop(s);
            occupancy.shrank(lens[s]);
            lens[s] -= 1;
            total_len -= 1;
            // Count a completion only for jobs that *arrived* in the
            // window: `arrived >= warmup` implies `clock >= warmup`, and
            // keeps `completed ⊆ dispatched` so conservation and
            // Little's-law checks compare like with like.
            if arrived >= cfg.warmup {
                completed += 1;
                let sojourn = clock - arrived;
                response_sum += sojourn;
                sojourns.record(sojourn);
            }
            if lens[s] > 0 {
                departures.schedule(server, clock + exp_sample(1.0, rng));
            } else {
                departures.idle(server);
            }
        }
    }

    let window = cfg.horizon - cfg.warmup;
    let tail: Vec<f64> = acc
        .integral
        .iter()
        .map(|&a| a / (window * n as f64))
        .collect();
    QueueReport {
        max_queue,
        pre_warmup_max_queue,
        mean_queue: acc.queue_area / (window * n as f64),
        tail,
        mean_response: if completed > 0 {
            response_sum / completed as f64
        } else {
            0.0
        },
        sojourn_p50: sojourns.quantile(0.5),
        sojourn_p99: sojourns.quantile(0.99),
        sojourn_p999: sojourns.quantile(0.999),
        completed,
        dispatched,
        comm_cost: if dispatched > 0 {
            hops_sum / dispatched as f64
        } else {
            0.0
        },
        window,
        n,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_core::{Library, Placement, ProximityChoice, StaleLoad};
    use paba_popularity::Popularity;
    use paba_topology::Torus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Full-replication network: every node serves every file, isolating
    /// pure queueing behaviour.
    fn full_net(side: u32) -> CacheNetwork<Torus> {
        let topo = Torus::new(side);
        let library = Library::new(4, Popularity::Uniform);
        let placement = Placement::full(side * side, 4);
        CacheNetwork::from_parts(topo, library, placement)
    }

    #[test]
    fn mm1_sanity_single_server() {
        // n = 1 with any dispatch = an M/M/1 queue: time-averaged number
        // in system L = ρ/(1−ρ), tail Pr[N ≥ k] = ρ^k.
        let net = full_net(1);
        let mut strat = ProximityChoice::with_choices(None, 1);
        let cfg = QueueSimConfig {
            lambda: 0.5,
            horizon: 60_000.0,
            warmup: 2_000.0,
            tail_cap: 16,
            stride: 0,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let rep = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
        assert!(
            (rep.mean_queue - 1.0).abs() < 0.12,
            "M/M/1 L = 1 expected, got {}",
            rep.mean_queue
        );
        for (k, expect) in [(1usize, 0.5), (2, 0.25), (3, 0.125)] {
            assert!(
                (rep.tail_at(k) - expect).abs() < 0.05,
                "tail({k}) = {} vs ρ^{k} = {expect}",
                rep.tail_at(k)
            );
        }
    }

    #[test]
    fn mm1_mean_response_matches_closed_form() {
        // The M/M/1 closed form for the mean sojourn: W = 1/(1−ρ).
        // The older suite only checked L; this pins W directly, on both
        // the direct estimator and the sojourn-histogram mean.
        let net = full_net(1);
        for (lambda, seed) in [(0.5f64, 21u64), (0.7, 22)] {
            let expect = 1.0 / (1.0 - lambda);
            let cfg = QueueSimConfig {
                lambda,
                horizon: 120_000.0,
                warmup: 4_000.0,
                tail_cap: 16,
                stride: 0,
            };
            let mut strat = ProximityChoice::with_choices(None, 1);
            let mut rng = SmallRng::seed_from_u64(seed);
            let rep = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
            assert!(
                (rep.mean_response - expect).abs() / expect < 0.08,
                "λ={lambda}: W {} vs 1/(1−ρ) = {expect}",
                rep.mean_response
            );
            // p50 of the M/M/1 sojourn (Exp with rate 1−ρ): ln 2/(1−ρ).
            let p50 = (2.0f64).ln() / (1.0 - lambda);
            assert!(
                (rep.sojourn_p50 - p50).abs() / p50 < 0.1,
                "λ={lambda}: p50 {} vs {p50}",
                rep.sojourn_p50
            );
        }
    }

    #[test]
    fn window_accumulator_opens_exactly_at_warmup() {
        // Regression (measurement-window bug 1): the integral side used
        // `t > warmup` while event counts used `clock >= warmup`. An
        // event landing exactly on the warmup instant must open the
        // window so both sides agree on `[warmup, horizon)`.
        let mut acc = WindowAccumulator::new(10.0, 2);
        acc.advance(10.0, &[1, 1, 0], 1);
        assert_eq!(
            acc.last_advance(),
            10.0,
            "an event at t == warmup must open the measurement window"
        );
        // The stretch from the boundary onward is credited in full.
        acc.advance(12.5, &[1, 1, 0], 1);
        assert!((acc.queue_area - 2.5).abs() < 1e-12);
        assert!((acc.integral[1] - 2.5).abs() < 1e-12);
        // Pre-warmup stretches stay excluded.
        let mut before = WindowAccumulator::new(10.0, 2);
        before.advance(4.0, &[1, 1, 0], 1);
        assert_eq!(before.last_advance(), 0.0);
        assert_eq!(before.queue_area, 0.0);
    }

    #[test]
    fn bounded_integral_matches_the_full_one() {
        // The engine integrates only the occupied thresholds
        // `counts[..=top]`. Random queue dynamics drive one occupancy and
        // two accumulators, one fed that prefix and one every threshold
        // `0..=cap`, across the warmup boundary; after every event the
        // integrals must agree to the bit. One cap sits below the longest
        // queue, so `top` stays pinned at it for a while, and one above.
        let n = 6u32;
        let mut rng = SmallRng::seed_from_u64(31);
        let mut lens = vec![0u32; n as usize];
        let mut longest = 0u32;
        // (server, arrival?, time step before the event)
        let events: Vec<(usize, bool, f64)> = (0..4_000)
            .map(|_| {
                let s = rng.gen_range(0..n as usize);
                let arrive = lens[s] == 0 || rng.gen_bool(0.5);
                lens[s] = if arrive { lens[s] + 1 } else { lens[s] - 1 };
                longest = longest.max(lens[s]);
                (s, arrive, rng.gen::<f64>())
            })
            .collect();
        for cap in [longest as usize / 2, longest as usize + 3] {
            let mut occupancy = Occupancy::new(n, cap);
            let mut bounded = WindowAccumulator::new(5.0, cap);
            let mut full = WindowAccumulator::new(5.0, cap);
            let mut lens = vec![0u32; n as usize];
            let (mut t, mut total) = (0.0, 0u64);
            let mut tops = std::collections::BTreeSet::new();
            let bits = |acc: &WindowAccumulator| -> Vec<u64> {
                acc.integral.iter().map(|x| x.to_bits()).collect()
            };
            for &(s, arrive, dt) in &events {
                t += dt;
                bounded.advance(t, occupancy.occupied(), total);
                full.advance(t, occupancy.counts(), total);
                assert_eq!(bits(&bounded), bits(&full), "cap {cap}, t {t}");
                assert_eq!(bounded.queue_area.to_bits(), full.queue_area.to_bits());
                let top = occupancy.occupied().len() - 1;
                let longest_now = lens.iter().copied().max().unwrap() as usize;
                assert_eq!(top, longest_now.min(cap), "cap {cap}, lens {lens:?}");
                tops.insert(top);
                if arrive {
                    lens[s] += 1;
                    total += 1;
                    occupancy.grew(lens[s]);
                } else {
                    occupancy.shrank(lens[s]);
                    lens[s] -= 1;
                    total -= 1;
                }
            }
            // Anti-vacuity: the window opened, `top` ranged over many
            // thresholds, and it reached the cap only when that sits below
            // the longest queue.
            assert!(full.last_advance() >= 5.0 && full.integral[1] > 0.0);
            assert!(tops.len() > 5, "cap {cap}: tops {tops:?}");
            assert_eq!(tops.contains(&cap), cap < longest as usize, "cap {cap}");
        }
    }

    #[test]
    fn response_times_exclude_pre_warmup_arrivals() {
        // Regression (measurement-window bug 2): completions used to be
        // counted whenever the *departure* fell in the window, so the
        // warmup backlog leaked into `mean_response` and `completed`
        // could exceed `dispatched`. With a window much shorter than the
        // λ=0.9 backlog drain, the pre-fix code counts more completions
        // (the drained backlog) than in-window arrivals.
        let net = full_net(1);
        let mut strat = ProximityChoice::with_choices(None, 1);
        let cfg = QueueSimConfig {
            lambda: 0.9,
            horizon: 240.0,
            warmup: 200.0,
            tail_cap: 8,
            stride: 0,
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let rep = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
        assert!(rep.completed > 0, "window must see completions");
        assert!(
            rep.completed <= rep.dispatched,
            "every counted completion must be an in-window arrival \
             (completed {} vs dispatched {})",
            rep.completed,
            rep.dispatched
        );
        // Structural bound: an in-window arrival completing in-window has
        // sojourn < window length, so the mean cannot exceed it.
        assert!(
            rep.mean_response < rep.window,
            "mean response {} exceeds the window {} — pre-warmup \
             arrivals leaked into the response statistics",
            rep.mean_response,
            rep.window
        );
    }

    #[test]
    fn max_queue_is_windowed_with_pre_warmup_peak_exposed() {
        // Regression (measurement-window bug 3): `max_queue` used to take
        // its maximum over *every* arrival including warmup. With a long
        // warmup and a short window at λ=0.9, the transient peak exceeds
        // the in-window peak, so the windowed statistic must come out
        // strictly smaller than the pre-warmup one.
        let net = full_net(1);
        let mut strat = ProximityChoice::with_choices(None, 1);
        let cfg = QueueSimConfig {
            lambda: 0.9,
            horizon: 2_000.0,
            warmup: 1_800.0,
            tail_cap: 8,
            stride: 0,
        };
        let mut rng = SmallRng::seed_from_u64(22);
        let rep = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
        assert!(
            rep.max_queue < rep.pre_warmup_max_queue,
            "in-window max {} should fall below the pre-warmup peak {} \
             in this regime — max_queue is leaking the transient",
            rep.max_queue,
            rep.pre_warmup_max_queue
        );
        assert!(rep.max_queue > 0);
    }

    #[test]
    fn halving_warmup_does_not_shift_stationary_mean_response() {
        // Warmup-sensitivity: the warmup knob must only trim the
        // transient. Past mixing, measuring over [500, 6000) vs
        // [1000, 6000) re-windows the same event stream (warmup does not
        // touch the RNG), so the stationary mean response may move only
        // by window-composition noise.
        let net = full_net(8);
        let run = |warmup: f64| {
            let cfg = QueueSimConfig {
                lambda: 0.7,
                horizon: 6_000.0,
                warmup,
                tail_cap: 16,
                stride: 0,
            };
            let mut strat = ProximityChoice::two_choice(None);
            let mut rng = SmallRng::seed_from_u64(7);
            simulate_queueing(&net, &mut strat, &cfg, &mut rng)
        };
        let long = run(1_000.0);
        let short = run(500.0);
        let rel = (long.mean_response - short.mean_response).abs() / long.mean_response;
        assert!(
            rel < 0.05,
            "halving warmup moved mean response by {rel:.3} \
             ({} vs {}) — warmup is contaminating the stationary window",
            long.mean_response,
            short.mean_response
        );
    }

    #[test]
    fn littles_law_consistency() {
        let net = full_net(8);
        let mut strat = ProximityChoice::two_choice(None);
        let cfg = QueueSimConfig {
            lambda: 0.8,
            horizon: 4_000.0,
            warmup: 500.0,
            tail_cap: 32,
            stride: 0,
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let rep = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
        let direct = rep.mean_response;
        let littles = rep.littles_law_response();
        assert!(
            (direct - littles).abs() / direct < 0.1,
            "Little's law: direct {direct} vs L/λ {littles}"
        );
    }

    #[test]
    fn two_choice_tail_is_much_lighter_than_random() {
        // The supermarket effect (paper §VI / Mitzenmacher): at λ = 0.9,
        // Pr[Q ≥ 4] is ≈ λ^4 ≈ 0.66 for random dispatch but
        // ≈ λ^(2^4−1) ≈ 0.21 for two-choice.
        let net = full_net(16);
        let cfg = QueueSimConfig {
            lambda: 0.9,
            horizon: 3_000.0,
            warmup: 1_000.0,
            tail_cap: 32,
            stride: 0,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let mut random = ProximityChoice::with_choices(None, 1);
        let r_rand = simulate_queueing(&net, &mut random, &cfg, &mut rng);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut two = ProximityChoice::two_choice(None);
        let r_two = simulate_queueing(&net, &mut two, &cfg, &mut rng);
        assert!(
            r_two.tail_at(4) < 0.6 * r_rand.tail_at(4),
            "supermarket effect missing: two-choice {} vs random {}",
            r_two.tail_at(4),
            r_rand.tail_at(4)
        );
        assert!(r_two.max_queue <= r_rand.max_queue);
        // The sojourn tail collapses with the queue tail.
        assert!(
            r_two.sojourn_p99 < r_rand.sojourn_p99,
            "p99 sojourn: two-choice {} vs random {}",
            r_two.sojourn_p99,
            r_rand.sojourn_p99
        );
    }

    #[test]
    fn workload_sources_drive_the_queueing_engine() {
        // A flash crowd is the workload stress case: the boosted file
        // concentrates requests, replaying deterministically under a seed
        // and differing measurably from the baseline i.i.d. stream.
        let net = full_net(8);
        let cfg = QueueSimConfig {
            lambda: 0.8,
            horizon: 1_200.0,
            warmup: 300.0,
            tail_cap: 16,
            stride: 0,
        };
        let run = |seed: u64| {
            let mut strat = ProximityChoice::two_choice(Some(2));
            let mut source = paba_workload::FlashCrowd::new(0, 0, 10_000, 50.0, 0.0);
            let mut rng = SmallRng::seed_from_u64(seed);
            simulate_queueing_source(&net, &mut strat, &mut source, &cfg, &mut rng)
        };
        assert_eq!(run(17), run(17), "flash-crowd runs must replay");
        let flash = run(17);
        assert!(flash.completed > 0);
        assert!(flash.comm_cost <= 2.0);
        let mut strat = ProximityChoice::two_choice(Some(2));
        let mut rng = SmallRng::seed_from_u64(17);
        let iid = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
        assert_ne!(flash, iid, "the workload family must actually matter");
    }

    #[test]
    fn stale_load_period_one_matches_fresh_exactly() {
        // A StaleLoad wrapper refreshing on every request must be
        // indistinguishable from the fresh strategy, RNG stream included.
        let net = full_net(8);
        let cfg = QueueSimConfig {
            lambda: 0.8,
            horizon: 1_500.0,
            warmup: 300.0,
            tail_cap: 16,
            stride: 0,
        };
        let mut fresh = ProximityChoice::two_choice(None);
        let mut rng = SmallRng::seed_from_u64(13);
        let rep_fresh = simulate_queueing(&net, &mut fresh, &cfg, &mut rng);
        let mut stale = StaleLoad::new(ProximityChoice::two_choice(None), 1);
        let mut rng = SmallRng::seed_from_u64(13);
        let rep_stale = simulate_queueing(&net, &mut stale, &cfg, &mut rng);
        assert_eq!(rep_fresh, rep_stale);
    }

    #[test]
    fn stale_load_under_queueing_is_deterministic_and_ordered() {
        // The delayed-load-signal contender: refreshing the queue-length
        // snapshot only every `period` dispatches stays deterministic
        // given a seed, and its p99 sojourn sits between fresh two-choice
        // (better information) and random (no information) at high load.
        let net = full_net(12);
        let cfg = QueueSimConfig {
            lambda: 0.9,
            horizon: 4_000.0,
            warmup: 1_000.0,
            tail_cap: 32,
            stride: 0,
        };
        let n = net.n() as u64;
        let run_stale = |seed: u64| {
            let mut s = StaleLoad::new(ProximityChoice::two_choice(None), 4 * n);
            let mut rng = SmallRng::seed_from_u64(seed);
            simulate_queueing(&net, &mut s, &cfg, &mut rng)
        };
        assert_eq!(run_stale(14), run_stale(14), "stale runs must replay");

        let stale = run_stale(14);
        let mut two = ProximityChoice::two_choice(None);
        let mut rng = SmallRng::seed_from_u64(14);
        let fresh = simulate_queueing(&net, &mut two, &cfg, &mut rng);
        let mut rand1 = ProximityChoice::with_choices(None, 1);
        let mut rng = SmallRng::seed_from_u64(14);
        let random = simulate_queueing(&net, &mut rand1, &cfg, &mut rng);
        assert!(
            stale.sojourn_p99 >= 0.95 * fresh.sojourn_p99,
            "stale p99 {} implausibly beats fresh p99 {}",
            stale.sojourn_p99,
            fresh.sojourn_p99
        );
        assert!(
            stale.sojourn_p99 <= random.sojourn_p99,
            "stale p99 {} worse than random p99 {} — the stale signal \
             should still carry most of the pow-of-d collapse",
            stale.sojourn_p99,
            random.sojourn_p99
        );
    }

    #[test]
    fn source_engine_matches_legacy_wrapper_bit_for_bit() {
        let net = full_net(6);
        let cfg = QueueSimConfig::default();
        let mut strat = ProximityChoice::two_choice(Some(3));
        let mut rng = SmallRng::seed_from_u64(15);
        let legacy = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
        let mut strat = ProximityChoice::two_choice(Some(3));
        let mut source = IidUniform::new();
        let mut rng = SmallRng::seed_from_u64(15);
        let sourced = simulate_queueing_source(&net, &mut strat, &mut source, &cfg, &mut rng);
        assert_eq!(legacy, sourced);
    }

    #[test]
    fn load_series_rides_the_stride_machinery() {
        let net = full_net(6);
        let cfg = QueueSimConfig {
            stride: 64,
            ..QueueSimConfig::default()
        };
        let mut strat = ProximityChoice::two_choice(None);
        let mut rng = SmallRng::seed_from_u64(16);
        let rep = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
        assert!(!rep.series.points.is_empty());
        assert!(rep
            .series
            .points
            .iter()
            .enumerate()
            .all(|(i, p)| p.requests == 64 * (i as u64 + 1)));
        // Sampling never touches the RNG stream or the measurements.
        let mut strat = ProximityChoice::two_choice(None);
        let mut rng = SmallRng::seed_from_u64(16);
        let off = simulate_queueing(
            &net,
            &mut strat,
            &QueueSimConfig {
                stride: 0,
                ..QueueSimConfig::default()
            },
            &mut rng,
        );
        assert_eq!(off.completed, rep.completed);
        assert_eq!(off.mean_queue, rep.mean_queue);
        assert!(off.series.points.is_empty());
    }

    #[test]
    fn radius_caps_communication_cost() {
        let net = full_net(12);
        let cfg = QueueSimConfig {
            lambda: 0.6,
            horizon: 500.0,
            warmup: 100.0,
            tail_cap: 16,
            stride: 0,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let mut strat = ProximityChoice::two_choice(Some(2));
        let rep = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
        assert!(
            rep.comm_cost <= 2.0,
            "cost {} exceeds radius",
            rep.comm_cost
        );
        assert!(rep.comm_cost > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let net = full_net(6);
        let cfg = QueueSimConfig::default();
        let run = |seed| {
            let mut strat = ProximityChoice::two_choice(Some(3));
            let mut rng = SmallRng::seed_from_u64(seed);
            simulate_queueing(&net, &mut strat, &cfg, &mut rng)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).completed, run(10).completed);
    }

    #[test]
    fn conservation_of_jobs() {
        let net = full_net(5);
        let cfg = QueueSimConfig {
            lambda: 0.5,
            horizon: 1_000.0,
            warmup: 0.0,
            tail_cap: 8,
            stride: 0,
        };
        let mut rng = SmallRng::seed_from_u64(6);
        let mut strat = ProximityChoice::two_choice(None);
        let rep = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
        // Everything completed was dispatched; what's left is in queues.
        assert!(rep.completed <= rep.dispatched);
        // Throughput ≈ λ·n at stationarity.
        let expect = 0.5 * net.n() as f64;
        assert!(
            (rep.throughput() - expect).abs() < 0.15 * expect,
            "throughput {} vs λn {expect}",
            rep.throughput()
        );
    }

    #[test]
    #[should_panic(expected = "0 < λ < 1")]
    fn unstable_lambda_rejected() {
        let net = full_net(3);
        let mut strat = ProximityChoice::two_choice(None);
        let cfg = QueueSimConfig {
            lambda: 1.2,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = simulate_queueing(&net, &mut strat, &cfg, &mut rng);
    }
}
