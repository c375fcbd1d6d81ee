//! Subcommand implementations.

use crate::args::Args;
use paba_core::{
    simulate_source_profiled, CacheNetwork, LeastLoadedInBall, NearestReplica, PlacementPolicy,
    ProximityChoice, RequestSource, SimReport, StaleLoad,
};
use paba_mcrunner::{run_parallel_live, LiveRun};
use paba_popularity::Popularity;
use paba_repro::churn_experiments::ChurnParams;
use paba_repro::queueing_experiments::{check_queue, QueueingParams};
use paba_repro::{check_network, too_large, ReproConfig, Suite};
use paba_telemetry::{
    AtomicRecorder, MetricsServer, NullRecorder, Recorder, Tee, TelemetrySnapshot, TraceReport,
};
use paba_topology::Torus;
use paba_util::envcfg::Scale;
use paba_util::{schema, Provenance, Summary, Table};
use paba_workload::{TraceWriter, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Print the global help text.
pub fn print_help() {
    println!(
        "paba — proximity-aware balanced allocations in cache networks
(Pourmiri, Jafari Siavoshani, Shariatpanahi; IPDPS 2017)

USAGE:
  paba simulate [options]             run the static cache-network model
  paba queue [options]                run the continuous-time (supermarket) model
  paba ballsbins [options]            run a classic balls-into-bins process
  paba workload generate [options]    generate a request trace file
  paba workload inspect [options]     summarize a request trace file
  paba trace [options]                time-resolved tracing: sampled events,
                                      load time series, Chrome-trace spans
  paba repro [options]                reproduce the paper: theorems, lemmas,
                                      examples and figures as gates
  paba churn [options]                run the churn-robustness suite: seeded
                                      fault injection, repair, degradation gates
  paba queueing [options]             run the temporal serving-engine suite:
                                      paired queueing arms, sojourn-tail gates
  paba report [options]               aggregate BENCH_*.json artifacts into one
                                      provenance-checked markdown report
  paba help                           show this text

Output paths (--telemetry-out, --events-out, --series-out, --chrome-out)
accept '-' to mean stdout, e.g. for piping into jq.

SIMULATE OPTIONS (defaults in parentheses):
  --side N          torus side, n = side^2 (45)
  --files K         library size (500)
  --cache M         cache slots per server (10)
  --gamma G         Zipf exponent, 0 = uniform (0)
  --placement P     proportional | distinct | full | dht (proportional)
  --strategy S      nearest | two-choice | d-choice | least-loaded (two-choice)
  --radius R        proximity radius, integer or 'inf' (inf)
  --choices D       number of choices for d-choice, at most n (2)
  --stale P         refresh load info only every P requests (1 = fresh)
  --requests Q      requests per run (n; trace length for --workload trace)
  --runs R          Monte-Carlo runs (20)
  --seed S          master seed (20170529)
  --csv             emit CSV instead of a table
  --telemetry       record sampler-path/timing telemetry and print the breakdown
  --telemetry-out PATH  also write the merged snapshot as JSON (implies --telemetry)
  --serve-metrics ADDR  serve live Prometheus metrics (sampler paths, span
                    timings, progress, allocator stats) at
                    http://ADDR/metrics for the duration of the run;
                    ADDR like 127.0.0.1:9464 (port 0 = ephemeral, the
                    bound address is printed to stderr). Also accepted
                    by 'paba trace'
  --workload W      iid | hotspot | zipf-origins | flash-crowd | shifting
                    | trace (iid), plus the workload options below

WORKLOAD OPTIONS (with `paba simulate --workload ...` or `paba workload generate`):
  --hotspots H      number of hotspot centers (4)
  --hot-radius R    ball radius around each center (3)
  --hot-fraction F  probability a request is hotspot-local (0.8)
  --hotspot-seed S  seed for center placement (1)
  --origin-gamma G  Zipf exponent over origin ranks (1.0)
  --flash-file F    boosted file id (0)
  --flash-start T   first boosted request (0)
  --flash-duration D  boosted window length in requests (1000)
  --flash-boost B   weight multiplier during the window (50)
  --flash-tau T     post-window decay constant in requests (0 = hard stop)
  --shift-epoch E   requests per popularity epoch (500)
  --shift-step S    rank rotation per epoch (1)
  --trace PATH      trace file to replay (with --workload trace)
  --cycle           wrap a finite trace instead of stopping

WORKLOAD GENERATE/INSPECT:
  generate: --out PATH (required; .csv extension = CSV, else binary),
            --workload/--side/--files/--cache/--gamma/--requests/--seed as above
  inspect:  --trace PATH (required), --top N hottest files/origins to list (5)

QUEUE OPTIONS (plus the workload options above; --workload trace needs --cycle,
since the engine draws a Poisson number of arrivals):
  --side/--files/--cache/--gamma/--radius/--choices/--seed as above
  --strategy S      nearest | two-choice | d-choice | least-loaded (two-choice)
  --stale P         refresh queue-length info only every P dispatches (1 = fresh)
  --lambda L        per-server arrival rate in (0,1) (0.8)
  --horizon T       simulated time (2000)
  --warmup T        measurement warm-up (500)
  --stride S        sample the queue-length series every S arrivals (0 = off)

TRACE OPTIONS (plus the simulate/workload options above, except
--telemetry-out; --sample 1 --stride 0 --events-out PATH writes every
request's event while no run exceeds --max-events):
  --sample N        keep every N-th request's event (16)
  --reservoir C     instead: uniform reservoir of C events per run
  --stride S        load-series sampling stride in requests (64; 0 = off)
  --max-events E    ring-buffer bound per run for --sample mode (4096)
  --events-out PATH JSONL event dump ('-' = stdout, 'none' skips; none)
  --series-out PATH paba-trace-series/1 JSON ('-' = stdout; none)
  --chrome-out PATH Chrome Trace Format spans for Perfetto ('-'; none)

SUITE OPTIONS (paba repro | churn | queueing; SUITE is the command name):
  --scale S         quick | default | full experiment grids (PABA_SCALE or default)
  --quick           shorthand for --scale quick
  --seed S          master seed (20170529)
  --runs R          override every experiment's Monte-Carlo run count
  --out PATH        artifact path (BENCH_SUITE.json; BENCH_SUITE_fresh.json
                    under --check; 'none' skips writing)
  --check           statistically diff the fresh run against --golden and
                    fail on regression or gate failure
  --golden PATH     committed golden artifact to diff against (BENCH_SUITE.json)
  --csv             emit CSV instead of tables

CHURN OPTIONS (plus the suite options):
  --threads T       worker threads (0 = available parallelism)
  --serve-metrics ADDR  expose live counters (churn events, retries, failed
                    requests, repair migrations) at http://ADDR/metrics
  --side/--files/--cache/--gamma/--radius  override the network regime
  --cycle-fraction F    fraction of nodes crashed/left then rejoined (0.2)
  --graceful-fraction F leave (with handoff) vs crash split (0.5)
  --inserts I       mid-run catalogue inserts (scale default)
  --repair P        none | random | two-choices (two-choices)
  --retry-budget B  dead-replica failover retries per request (8)
  --replication R   DHT successor replicas per file (3)

QUEUEING OPTIONS (plus the suite options):
  --threads T       worker threads (0 = available parallelism)
  --serve-metrics ADDR  expose run progress at http://ADDR/metrics
  --side/--files/--cache/--gamma/--radius  override the network regime
  --lambda L        per-server arrival rate of the paired arms (0.9)
  --horizon T       simulated time per run (scale default)
  --warmup T        measurement-window start (scale default)
  --stale-period P  stale-signal refresh period in dispatches (4n)

REPORT OPTIONS:
  --dir DIR         directory scanned for BENCH_*.json artifacts (.)
  --out PATH        markdown output path ('-' = stdout, 'none' skips; -)
  exits nonzero on provenance/consistency failures (unknown schema,
  missing provenance, provenance contradicting its artifact); warnings
  are non-fatal

BALLSBINS OPTIONS:
  --process P       one | two | d | beta | batched (two)
  --bins N          number of bins (4096)
  --balls M         number of balls (= bins)
  --d D             choices for 'd'/'batched' (3)
  --beta B          beta for 'beta' (0.5)
  --batch B         batch size for 'batched' (64)
  --runs/--seed     as above"
    );
}

/// Run the subcommand a parsed command line names.
pub fn run(a: &Args) -> Result<(), String> {
    match a.command.as_deref() {
        Some("simulate") => simulate(a),
        Some("trace") => trace(a),
        Some("queue") => queue(a),
        Some("ballsbins") => ballsbins(a),
        Some("workload") => workload(a),
        Some(name @ ("repro" | "churn" | "queueing")) => suite(name, a),
        Some("report") => report(a),
        Some("help") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}' (try 'paba help')")),
    }
}

const SIM_KEYS: &[&str] = &[
    "side",
    "files",
    "cache",
    "gamma",
    "placement",
    "strategy",
    "radius",
    "choices",
    "stale",
    "requests",
    "runs",
    "seed",
    "csv",
    "telemetry",
    "serve-metrics",
];

/// Extra option keys accepted by `paba simulate` on top of [`SIM_KEYS`].
const SIMULATE_KEYS: &[&str] = &["telemetry-out"];

/// Extra option keys accepted by `paba trace` on top of [`SIM_KEYS`].
const TRACE_KEYS: &[&str] = &[
    "sample",
    "reservoir",
    "stride",
    "max-events",
    "events-out",
    "series-out",
    "chrome-out",
];

/// Workload-family option keys shared by `simulate` and `workload generate`.
const WORKLOAD_KEYS: &[&str] = &[
    "workload",
    "hotspots",
    "hot-radius",
    "hot-fraction",
    "hotspot-seed",
    "origin-gamma",
    "flash-file",
    "flash-start",
    "flash-duration",
    "flash-boost",
    "flash-tau",
    "shift-epoch",
    "shift-step",
    "trace",
    "cycle",
];

fn popularity(gamma: f64) -> Popularity {
    if gamma == 0.0 {
        Popularity::Uniform
    } else {
        Popularity::zipf(gamma)
    }
}

/// Build the network of the run flags, or say, naming them, that it does
/// not fit in memory.
fn try_network(
    side: u32,
    k: u32,
    m: u32,
    gamma: f64,
    policy: PlacementPolicy,
    rng: &mut SmallRng,
) -> Result<CacheNetwork<Torus>, String> {
    CacheNetwork::builder()
        .torus_side(side)
        .library(k, popularity(gamma))
        .cache_size(m)
        .placement_policy(policy)
        .try_build(rng)
        .map_err(|e| too_large(side, k, m, &e))
}

/// Parse the `--workload` family of options into a [`WorkloadSpec`].
fn workload_spec(a: &Args) -> Result<WorkloadSpec, String> {
    match a.str_or("workload", "iid").as_str() {
        "iid" => Ok(WorkloadSpec::Iid),
        "hotspot" => Ok(WorkloadSpec::Hotspot {
            hotspots: a.parse_or("hotspots", 4u32)?,
            radius: a.parse_or("hot-radius", 3u32)?,
            fraction: a.parse_or("hot-fraction", 0.8f64)?,
            seed: a.parse_or("hotspot-seed", 1u64)?,
        }),
        "zipf-origins" => Ok(WorkloadSpec::ZipfOrigins {
            gamma: a.parse_or("origin-gamma", 1.0f64)?,
        }),
        "flash-crowd" => Ok(WorkloadSpec::FlashCrowd {
            file: a.parse_or("flash-file", 0u32)?,
            start: a.parse_or("flash-start", 0u64)?,
            duration: a.parse_or("flash-duration", 1000u64)?,
            boost: a.parse_or("flash-boost", 50.0f64)?,
            tau: a.parse_or("flash-tau", 0.0f64)?,
        }),
        "shifting" => Ok(WorkloadSpec::Shifting {
            epoch: a.parse_or("shift-epoch", 500u64)?,
            step: a.parse_or("shift-step", 1u32)?,
        }),
        "trace" => WorkloadSpec::load(
            a.get("trace")
                .ok_or("--workload trace needs --trace <path>")?,
            a.flag("cycle"),
        ),
        other => Err(format!(
            "--workload: unknown workload '{other}' \
             (iid | hotspot | zipf-origins | flash-crowd | shifting | trace)"
        )),
    }
}

/// Three summaries every run family reports.
#[derive(Debug)]
pub(crate) struct SimStats {
    max_load: Summary,
    cost: Summary,
    fallback: Summary,
}

fn summarize_reports(reports: &[SimReport]) -> SimStats {
    SimStats {
        max_load: paba_mcrunner::summarize(reports.iter().map(|r| r.max_load() as f64)),
        cost: paba_mcrunner::summarize(reports.iter().map(|r| r.comm_cost())),
        fallback: paba_mcrunner::summarize(reports.iter().map(|r| r.fallback_fraction())),
    }
}

/// Error unless the command was invoked without a positional action
/// (only `paba workload <action>` takes one).
fn reject_action(a: &Args) -> Result<(), String> {
    match &a.action {
        Some(action) => Err(format!("unexpected positional argument '{action}'")),
        None => Ok(()),
    }
}

/// The dispatch options shared by `paba simulate`, `trace` and `queue`:
/// the strategy, its choice count `d` (`--choices` for d-choice, else 2)
/// and the `--stale` refresh period of the load signal.
struct Dispatch {
    strategy: String,
    d: u32,
    stale: u64,
}

/// Parse and validate the [`Dispatch`] options on a torus of side `side`
/// (already checked): d-choice takes at most one choice per node.
fn dispatch(a: &Args, side: u32) -> Result<Dispatch, String> {
    let strategy = a.str_or("strategy", "two-choice");
    let choices: u32 = a.parse_or("choices", 2)?;
    let stale: u64 = a.parse_or("stale", 1)?;
    let n = u64::from(side) * u64::from(side);
    let d = match strategy.as_str() {
        "nearest" | "two-choice" | "least-loaded" => 2,
        "d-choice" if choices == 0 => {
            return Err("--choices must be at least 1 for --strategy d-choice".into())
        }
        "d-choice" if u64::from(choices) > n => {
            return Err(format!(
                "--choices {choices} exceeds the {n} nodes of --side {side}: \
                 a request has at most one candidate per node"
            ))
        }
        "d-choice" => choices,
        other => return Err(format!("--strategy: unknown strategy '{other}'")),
    };
    if stale == 0 {
        return Err("--stale must be a positive refresh period".into());
    }
    Ok(Dispatch { strategy, d, stale })
}

/// Everything one Monte-Carlo run of `paba simulate` needs. Shared by the
/// recorded (`--telemetry`) and unrecorded paths so both run byte-identical
/// simulations — recording never touches the RNG stream.
struct SimRunCfg {
    side: u32,
    k: u32,
    m: u32,
    gamma: f64,
    radius: Option<u32>,
    dispatch: Dispatch,
    seed: u64,
    requests_opt: u64,
    placement: String,
    policy: PlacementPolicy,
    spec: WorkloadSpec,
}

/// Virtual nodes per server on the hash ring of `--placement dht`.
const DHT_VNODES: u32 = 128;

/// One `paba simulate` run: build the network, instantiate the workload,
/// run the selected strategy with `rec` threaded through the hot path.
/// A network too large for memory fails the run, before any draw, with
/// the error that names its flags.
fn sim_run_one<Rec: Recorder + Clone>(
    cfg: &SimRunCfg,
    run_idx: usize,
    rng: &mut SmallRng,
    rec: &Rec,
) -> Result<SimReport, String> {
    let net: CacheNetwork<Torus> = if cfg.placement == "dht" {
        let library = paba_core::Library::new(cfg.k, popularity(cfg.gamma));
        let p = paba_dht::dht_placement(
            cfg.side * cfg.side,
            &library,
            &paba_dht::DhtPlacementConfig {
                vnodes: DHT_VNODES,
                salt: paba_util::mix_seed(cfg.seed, run_idx as u64),
                m: cfg.m,
            },
        );
        CacheNetwork::from_parts(Torus::new(cfg.side), library, p)
    } else {
        try_network(cfg.side, cfg.k, cfg.m, cfg.gamma, cfg.policy, rng)?
    };
    let mut source = cfg
        .spec
        .build(&net)
        .expect("spec was validated before spawning runs");
    let requests = if cfg.requests_opt != 0 {
        cfg.requests_opt
    } else {
        // Finite sources (trace replay) default to their length.
        RequestSource::<Torus>::size_hint(&source).unwrap_or(net.n() as u64)
    };
    let (d, stale) = (cfg.dispatch.d, cfg.dispatch.stale);
    Ok(match cfg.dispatch.strategy.as_str() {
        "nearest" => {
            let mut s = NearestReplica::new().with_recorder(rec.clone());
            simulate_source_profiled(&net, &mut s, &mut source, requests, rng, rec)
        }
        "two-choice" | "d-choice" => {
            if stale > 1 {
                let inner = ProximityChoice::with_choices(cfg.radius, d).with_recorder(rec.clone());
                let mut s = StaleLoad::new(inner, stale);
                simulate_source_profiled(&net, &mut s, &mut source, requests, rng, rec)
            } else {
                let mut s = ProximityChoice::with_choices(cfg.radius, d).with_recorder(rec.clone());
                simulate_source_profiled(&net, &mut s, &mut source, requests, rng, rec)
            }
        }
        "least-loaded" => {
            let mut s = LeastLoadedInBall::new(cfg.radius).with_recorder(rec.clone());
            simulate_source_profiled(&net, &mut s, &mut source, requests, rng, rec)
        }
        other => unreachable!("strategy '{other}' was validated before spawning"),
    })
}

/// The reports of all runs, or the first failed run's error.
fn all_runs(reports: Vec<Result<SimReport, String>>) -> Result<Vec<SimReport>, String> {
    reports.into_iter().collect()
}

/// Write `content` to `path`, where `-` means stdout (so artifacts pipe
/// straight into `jq` & co). The "wrote …" notice goes to stderr and only
/// for real files, keeping stdout clean for the piped payload.
fn write_output(path: &str, content: &str, what: &str) -> Result<(), String> {
    if path == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(path, content).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {what} to {path}");
        Ok(())
    }
}

/// Spawn the `/metrics` scrape endpoint when `--serve-metrics ADDR` was
/// given. The returned guard keeps the listener thread alive for the
/// duration of the run; dropping it stops the endpoint. The bound
/// address goes to stderr so `--serve-metrics 127.0.0.1:0` (ephemeral
/// port) is usable from scripts.
fn spawn_metrics(a: &Args, live: &LiveRun) -> Result<Option<MetricsServer>, String> {
    let Some(addr) = a.get("serve-metrics") else {
        return Ok(None);
    };
    let render = {
        let live = live.clone();
        move || live.render_metrics()
    };
    let server = MetricsServer::spawn(addr, render)?;
    eprintln!(
        "serving live metrics on http://{}/metrics",
        server.local_addr()
    );
    Ok(Some(server))
}

/// Parse the simulate-family configuration shared by `paba simulate` and
/// `paba trace`. Returns the per-run config plus the run count;
/// `extra_keys` extends the accepted option set.
fn sim_cfg_from_args(a: &Args, extra_keys: &[&str]) -> Result<(SimRunCfg, usize), String> {
    reject_action(a)?;
    let mut known = SIM_KEYS.to_vec();
    known.extend_from_slice(WORKLOAD_KEYS);
    known.extend_from_slice(extra_keys);
    let unknown = a.unknown_keys(&known);
    if !unknown.is_empty() {
        return Err(format!("unknown option(s): {unknown:?} (see 'paba help')"));
    }
    let side: u32 = a.parse_or("side", 45)?;
    let k: u32 = a.parse_or("files", 500)?;
    let m: u32 = a.parse_or("cache", 10)?;
    let gamma: f64 = a.parse_or("gamma", 0.0)?;
    let radius = a.radius("radius")?;
    let runs: usize = a.parse_or("runs", 20)?;
    let seed: u64 = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    let requests_opt: u64 = a.parse_or("requests", 0)?;
    let placement = a.str_or("placement", "proportional");

    let policy = match placement.as_str() {
        "proportional" => PlacementPolicy::ProportionalWithReplacement,
        "distinct" => PlacementPolicy::ProportionalDistinct,
        "full" => PlacementPolicy::FullLibrary,
        "dht" => PlacementPolicy::ProportionalWithReplacement, // replaced below
        other => return Err(format!("--placement: unknown policy '{other}'")),
    };
    // Full replication ignores --cache; every other placement fills it.
    let cache = (policy != PlacementPolicy::FullLibrary).then_some(m);
    check_network(side, 1, k, cache, gamma)?;
    let dispatch = dispatch(a, side)?;
    if policy == PlacementPolicy::ProportionalDistinct {
        // Distinct draws need M files the popularity can reach.
        let weights = popularity(gamma)
            .try_weights(k as usize)
            .map_err(|e| too_large(side, k, m, &e))?;
        let drawable = weights.iter().filter(|&&w| w > 0.0).count();
        if m as usize > drawable {
            return Err(format!(
                "--cache {m} exceeds the files --placement distinct can draw \
                 ({drawable} of --files {k} have positive popularity at --gamma {gamma})"
            ));
        }
    }
    if placement == "dht" {
        // The ring indexes its points with u32: side² · DHT_VNODES must fit.
        let points = u64::from(side) * u64::from(side) * u64::from(DHT_VNODES);
        if points > u64::from(u32::MAX) {
            let max_side = (u64::from(u32::MAX) / u64::from(DHT_VNODES)).isqrt();
            return Err(format!(
                "--side {side} with --placement dht needs {points} ring points \
                 ({DHT_VNODES} per server), more than a ring holds ({}); \
                 --side must be at most {max_side}",
                u32::MAX
            ));
        }
    }

    // Workload selection: parsed and validated once (traces load here),
    // then instantiated fresh for every Monte-Carlo run.
    let spec = workload_spec(a)?;
    spec.validate(side * side, k)?;
    if let WorkloadSpec::Replay {
        trace,
        cycle: false,
    } = &spec
    {
        if requests_opt > trace.len() {
            return Err(format!(
                "--requests {requests_opt} exceeds the trace length {} (pass --cycle to wrap)",
                trace.len()
            ));
        }
    }

    let cfg = SimRunCfg {
        side,
        k,
        m,
        gamma,
        radius,
        dispatch,
        seed,
        requests_opt,
        placement,
        policy,
        spec,
    };
    Ok((cfg, runs))
}

/// The traced runs of `paba trace`: every run under its own
/// `TraceRecorder` via
/// [`paba_mcrunner::run_parallel_traced`], teed into a shared live
/// recorder when `--serve-metrics` is given so a mid-run scrape sees the
/// aggregate counters. The endpoint lives for the duration of the runs.
fn run_traced(
    a: &Args,
    cfg: &SimRunCfg,
    runs: usize,
    trace_cfg: paba_telemetry::TraceConfig,
) -> Result<(Vec<SimReport>, TraceReport), String> {
    let live = a
        .get("serve-metrics")
        .is_some()
        .then(|| LiveRun::new(runs as u64));
    let _server = match &live {
        Some(l) => spawn_metrics(a, l)?,
        None => None,
    };
    let (reports, report) = match &live {
        // The lazy candidates iterator goes to the trace side, the only
        // consumer that needs it.
        Some(l) => paba_mcrunner::run_parallel_traced(
            runs,
            cfg.seed,
            None,
            Some(l.progress.as_ref()),
            trace_cfg,
            |rec, i, rng| sim_run_one(cfg, i, rng, &Tee(rec, l.recorder.as_ref())),
        ),
        None => paba_mcrunner::run_parallel_traced(
            runs,
            cfg.seed,
            None,
            None,
            trace_cfg,
            |rec, i, rng| sim_run_one(cfg, i, rng, &rec),
        ),
    };
    Ok((all_runs(reports)?, report))
}

/// `paba simulate`: the per-metric summary, the run count, and the merged
/// telemetry snapshot when `--telemetry` (or `--telemetry-out`) asks for it.
pub(crate) fn simulate_cmd_impl(
    a: &Args,
) -> Result<(SimStats, usize, Option<TelemetrySnapshot>), String> {
    let (cfg, runs) = sim_cfg_from_args(a, SIMULATE_KEYS)?;
    let seed = cfg.seed;
    let telemetry = a.flag("telemetry") || a.get("telemetry-out").is_some();
    let (reports, snapshot) = if a.get("serve-metrics").is_some() {
        // One AtomicRecorder shared by every worker so a concurrent
        // scrape sees the run as it happens.
        let live = LiveRun::new(runs as u64);
        let _server = spawn_metrics(a, &live)?;
        let reports = run_parallel_live(runs, seed, None, &live, |rec, i, rng| {
            sim_run_one(&cfg, i, rng, &rec)
        });
        let reports = all_runs(reports)?;
        (reports, telemetry.then(|| live.recorder.snapshot()))
    } else if telemetry {
        let (reports, recorders) = paba_mcrunner::run_parallel_with_state(
            runs,
            seed,
            None,
            None,
            AtomicRecorder::new,
            |rec, run_idx, rng| sim_run_one(&cfg, run_idx, rng, &rec),
        );
        let reports = all_runs(reports)?;
        let mut snap = TelemetrySnapshot::empty();
        for rec in &recorders {
            snap.merge(&rec.snapshot());
        }
        (reports, Some(snap))
    } else {
        let reports = paba_mcrunner::run_parallel(runs, seed, None, |run_idx, rng| {
            sim_run_one(&cfg, run_idx, rng, &NullRecorder)
        });
        (all_runs(reports)?, None)
    };
    Ok((summarize_reports(&reports), runs, snapshot))
}

/// `paba simulate` with printing.
pub fn simulate(a: &Args) -> Result<(), String> {
    let (stats, runs, telemetry) = simulate_cmd_impl(a)?;
    let telemetry_out = a.str_or("telemetry-out", "none");
    // When the snapshot goes to stdout the human summary moves to stderr,
    // so `paba simulate --telemetry-out - | jq` sees pure JSON.
    let piping = telemetry_out == "-";

    let mut t = Table::new(["metric", "mean", "ci95", "min", "max"]);
    for (name, s) in [
        ("max load L", &stats.max_load),
        ("comm cost C (hops)", &stats.cost),
        ("fallback fraction", &stats.fallback),
    ] {
        t.push_row([
            name.to_string(),
            format!("{:.4}", s.mean),
            format!("±{:.4}", 1.96 * s.std_err),
            format!("{:.4}", s.min),
            format!("{:.4}", s.max),
        ]);
    }
    let mut text = String::new();
    if a.flag("csv") {
        text.push_str(&t.to_csv());
    } else {
        text.push_str(&format!("{runs} runs:\n"));
        text.push_str(&t.to_markdown());
    }
    if let Some(snap) = &telemetry {
        if !a.flag("csv") {
            text.push('\n');
            text.push_str(&snap.table());
        }
    }
    if piping {
        eprint!("{text}");
    } else {
        print!("{text}");
    }

    if let Some(snap) = &telemetry {
        if telemetry_out != "none" {
            let seed: u64 = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
            let provenance = Provenance::capture(
                schema::TELEMETRY,
                seed,
                "custom",
                &format!("simulate telemetry runs:{runs}"),
            );
            let json = format!(
                "{{\n  \"schema\": \"{}\",\n  \"provenance\": {},\n  \"requests\": {},\n  \
                 \"telemetry\": {}\n}}\n",
                schema::TELEMETRY,
                provenance.to_json(),
                snap.total_requests(),
                snap.to_json()
            );
            write_output(&telemetry_out, &json, "telemetry snapshot")?;
        }
    }
    Ok(())
}

/// `paba trace` — time-resolved tracing over the simulate configuration:
/// sampled per-request events, a load-evolution time series, and
/// Chrome-trace stage spans, all collected deterministically through
/// [`paba_mcrunner::run_parallel_traced`].
pub fn trace(a: &Args) -> Result<(), String> {
    let (cfg, runs) = sim_cfg_from_args(a, TRACE_KEYS)?;
    let sampling = match (a.get("sample"), a.get("reservoir")) {
        (Some(_), Some(_)) => return Err("--sample and --reservoir are mutually exclusive".into()),
        (Some(n), None) => {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("--sample: bad count '{n}'"))?;
            if n == 0 {
                return Err("--sample must be at least 1".into());
            }
            paba_telemetry::Sampling::OneIn(n)
        }
        (None, Some(c)) => {
            let c: usize = c
                .parse()
                .map_err(|_| format!("--reservoir: bad capacity '{c}'"))?;
            if c == 0 {
                return Err("--reservoir must be at least 1".into());
            }
            paba_telemetry::Sampling::Reservoir(c)
        }
        (None, None) => paba_telemetry::Sampling::OneIn(16),
    };
    let trace_cfg = paba_telemetry::TraceConfig {
        sampling,
        stride: a.parse_or("stride", 64u64)?,
        max_events: a.parse_or("max-events", 4096usize)?,
        seed: cfg.seed,
    };
    let stride = trace_cfg.stride;
    let (reports, report) = run_traced(a, &cfg, runs, trace_cfg)?;

    let events_out = a.str_or("events-out", "none");
    let series_out = a.str_or("series-out", "none");
    let chrome_out = a.str_or("chrome-out", "none");
    // When any artifact goes to stdout the human summary moves to
    // stderr, so `paba trace ... --events-out - | jq` sees pure JSON.
    let piping = [&events_out, &series_out, &chrome_out]
        .iter()
        .any(|p| p.as_str() == "-");

    let stats = summarize_reports(&reports);
    let mean = report.mean_series();
    let mut t = Table::new(["requests", "max load", "mean load", "gap to mean", "p99"]);
    for p in &mean.points {
        t.push_row([
            format!("{}", p.requests),
            format!("{:.3}", p.max_load),
            format!("{:.3}", p.mean_load),
            format!("{:.3}", p.gap_to_mean),
            format!("{:.3}", p.p99),
        ]);
    }
    let mut text = String::new();
    use std::fmt::Write as _;
    if a.flag("csv") {
        text.push_str(&t.to_csv());
    } else {
        writeln!(
            text,
            "{runs} runs, {} requests: max load {:.3} ± {:.3}",
            report.total_requests(),
            stats.max_load.mean,
            1.96 * stats.max_load.std_err
        )
        .unwrap();
        let events: usize = report.runs.iter().map(|r| r.events.len()).sum();
        let dropped: u64 = report.runs.iter().map(|r| r.dropped()).sum();
        writeln!(
            text,
            "retained {events} sampled events ({dropped} evicted by buffer bounds), \
             {} series points/run",
            mean.points.len()
        )
        .unwrap();
        if !mean.points.is_empty() {
            text.push_str("\nmean load evolution across runs:\n");
            text.push_str(&t.to_markdown());
        }
        if a.flag("telemetry") {
            text.push('\n');
            text.push_str(&report.snapshot.table());
        }
    }
    if piping {
        eprint!("{text}");
    } else {
        print!("{text}");
    }

    if events_out != "none" {
        write_output(&events_out, &report.events_jsonl(), "trace events")?;
    }
    if series_out != "none" {
        let provenance = Provenance::capture(
            schema::TRACE_SERIES,
            cfg.seed,
            "custom",
            &format!(
                "trace side:{} files:{} cache:{} runs:{runs} stride:{stride}",
                cfg.side, cfg.k, cfg.m
            ),
        );
        write_output(
            &series_out,
            &report.series_json(&provenance),
            "load time series",
        )?;
    }
    if chrome_out != "none" {
        write_output(&chrome_out, &report.chrome_json(), "Chrome trace")?;
    }
    Ok(())
}

/// `paba queue`.
pub fn queue(a: &Args) -> Result<(), String> {
    reject_action(a)?;
    let mut known = vec![
        "side", "files", "cache", "gamma", "radius", "choices", "strategy", "stale", "stride",
        "lambda", "horizon", "warmup", "seed", "csv",
    ];
    known.extend_from_slice(WORKLOAD_KEYS);
    let unknown = a.unknown_keys(&known);
    if !unknown.is_empty() {
        return Err(format!("unknown option(s): {unknown:?} (see 'paba help')"));
    }
    let side: u32 = a.parse_or("side", 24)?;
    let k: u32 = a.parse_or("files", 32)?;
    let m: u32 = a.parse_or("cache", 8)?;
    let gamma: f64 = a.parse_or("gamma", 0.0)?;
    let radius = a.radius("radius")?;
    let stride: u64 = a.parse_or("stride", 0)?;
    let lambda: f64 = a.parse_or("lambda", 0.8)?;
    let horizon: f64 = a.parse_or("horizon", 2_000.0)?;
    let warmup: f64 = a.parse_or("warmup", 500.0)?;
    let seed: u64 = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    check_network(side, 1, k, Some(m), gamma)?;
    let Dispatch { strategy, d, stale } = dispatch(a, side)?;
    check_queue(lambda, horizon, warmup)?;
    let spec = workload_spec(a)?;
    if let WorkloadSpec::Replay { cycle: false, .. } = spec {
        return Err(
            "--workload trace needs --cycle in paba queue: the engine draws a Poisson \
             number of arrivals, so a finite trace can always run out"
                .into(),
        );
    }
    spec.validate(side * side, k)?;

    let mut rng = SmallRng::seed_from_u64(seed);
    let policy = PlacementPolicy::ProportionalWithReplacement;
    let net = try_network(side, k, m, gamma, policy, &mut rng)?;
    let mut source = spec.build(&net)?;
    let cfg = paba_supermarket::QueueSimConfig {
        lambda,
        horizon,
        warmup,
        tail_cap: 24,
        stride,
    };
    let rep = match strategy.as_str() {
        "nearest" => {
            let mut s = NearestReplica::new();
            paba_supermarket::simulate_queueing_source(&net, &mut s, &mut source, &cfg, &mut rng)
        }
        "two-choice" | "d-choice" => {
            if stale > 1 {
                let mut s = StaleLoad::new(ProximityChoice::with_choices(radius, d), stale);
                paba_supermarket::simulate_queueing_source(
                    &net,
                    &mut s,
                    &mut source,
                    &cfg,
                    &mut rng,
                )
            } else {
                let mut s = ProximityChoice::with_choices(radius, d);
                paba_supermarket::simulate_queueing_source(
                    &net,
                    &mut s,
                    &mut source,
                    &cfg,
                    &mut rng,
                )
            }
        }
        "least-loaded" => {
            let mut s = LeastLoadedInBall::new(radius);
            paba_supermarket::simulate_queueing_source(&net, &mut s, &mut source, &cfg, &mut rng)
        }
        other => unreachable!("strategy '{other}' was validated above"),
    };

    let mut t = Table::new(["metric", "value"]);
    t.push_row(["servers n".to_string(), format!("{}", rep.n)]);
    t.push_row(["lambda".to_string(), format!("{lambda}")]);
    t.push_row(["strategy".to_string(), strategy.clone()]);
    t.push_row(["workload".to_string(), spec.name().to_string()]);
    t.push_row(["max queue".to_string(), format!("{}", rep.max_queue)]);
    t.push_row([
        "max queue (warmup)".to_string(),
        format!("{}", rep.pre_warmup_max_queue),
    ]);
    t.push_row(["mean queue".to_string(), format!("{:.4}", rep.mean_queue)]);
    t.push_row([
        "mean response".to_string(),
        format!("{:.4}", rep.mean_response),
    ]);
    t.push_row(["sojourn p50".to_string(), format!("{:.4}", rep.sojourn_p50)]);
    t.push_row(["sojourn p99".to_string(), format!("{:.4}", rep.sojourn_p99)]);
    t.push_row([
        "sojourn p999".to_string(),
        format!("{:.4}", rep.sojourn_p999),
    ]);
    t.push_row([
        "Little's-law response".to_string(),
        format!("{:.4}", rep.littles_law_response()),
    ]);
    t.push_row([
        "comm cost (hops)".to_string(),
        format!("{:.4}", rep.comm_cost),
    ]);
    for kq in 1..=6usize {
        t.push_row([format!("Pr[Q >= {kq}]"), format!("{:.5}", rep.tail_at(kq))]);
    }
    if stride > 0 {
        t.push_row([
            "series points".to_string(),
            format!("{}", rep.series.points.len()),
        ]);
    }
    if a.flag("csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.to_markdown());
    }
    Ok(())
}

/// `paba ballsbins`.
pub fn ballsbins(a: &Args) -> Result<(), String> {
    reject_action(a)?;
    let known = [
        "process", "bins", "balls", "d", "beta", "batch", "runs", "seed", "csv",
    ];
    let unknown = a.unknown_keys(&known);
    if !unknown.is_empty() {
        return Err(format!("unknown option(s): {unknown:?} (see 'paba help')"));
    }
    let process = a.str_or("process", "two");
    let n: u32 = a.parse_or("bins", 4096)?;
    let m: u64 = a.parse_or("balls", n as u64)?;
    let d: u32 = a.parse_or("d", 3)?;
    let beta: f64 = a.parse_or("beta", 0.5)?;
    let batch: u64 = a.parse_or("batch", 64)?;
    let runs: usize = a.parse_or("runs", 20)?;
    let seed: u64 = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    if !matches!(process.as_str(), "one" | "two" | "d" | "beta" | "batched") {
        return Err(format!("--process: unknown process '{process}'"));
    }
    if n == 0 {
        return Err("--bins must be a positive bin count".into());
    }
    if d == 0 {
        return Err("--d must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(format!("--beta must be in [0,1], got {beta}"));
    }
    if batch == 0 {
        return Err("--batch must be a positive batch size".into());
    }

    let maxes: Vec<f64> = paba_mcrunner::run_parallel(runs, seed, None, |_i, rng| {
        let res = match process.as_str() {
            "one" => paba_ballsbins::one_choice(n, m, rng),
            "two" => paba_ballsbins::two_choice(n, m, rng),
            "d" => paba_ballsbins::d_choice(n, m, d, rng),
            "beta" => paba_ballsbins::one_plus_beta(n, m, beta, rng),
            "batched" => paba_ballsbins::batched_d_choice(n, m, d, batch, rng),
            _ => unreachable!("validated above"),
        };
        res.max_load() as f64
    });
    let s = paba_mcrunner::summarize(maxes.iter().copied());
    let mut t = Table::new([
        "process",
        "bins",
        "balls",
        "max load (mean)",
        "ci95",
        "min",
        "max",
    ]);
    t.push_row([
        process,
        format!("{n}"),
        format!("{m}"),
        format!("{:.4}", s.mean),
        format!("±{:.4}", 1.96 * s.std_err),
        format!("{}", s.min),
        format!("{}", s.max),
    ]);
    if a.flag("csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.to_markdown());
    }
    Ok(())
}

/// The grid scale: `--quick`, else `--scale`, else `PABA_SCALE`, else
/// the default scale.
fn scale(a: &Args) -> Result<Scale, String> {
    let env = std::env::var_os("PABA_SCALE").map(|v| v.to_string_lossy().into_owned());
    scale_from(a, env.as_deref())
}

/// [`scale`] with the value of `PABA_SCALE` passed in. A malformed value
/// is an error naming its source, whether flag or variable.
fn scale_from(a: &Args, env: Option<&str>) -> Result<Scale, String> {
    if a.flag("quick") {
        return Ok(Scale::Quick);
    }
    let (source, value) = match (a.get("scale"), env) {
        (Some(s), _) => ("--scale", s),
        (None, Some(v)) => ("PABA_SCALE", v),
        (None, None) => return Ok(Scale::default()),
    };
    value
        .parse()
        .map_err(|_| format!("{source}: expected quick|default|full, got '{value}'"))
}

/// Do two path spellings name the same file? Canonicalizes each path
/// (falling back to canonicalizing the parent when the file does not
/// exist yet), so `BENCH_repro.json` and `./BENCH_repro.json` compare
/// equal; a raw string comparison backstops paths that cannot resolve.
fn same_file(a: &str, b: &str) -> bool {
    fn canon(p: &str) -> Option<std::path::PathBuf> {
        let path = std::path::Path::new(p);
        if let Ok(c) = std::fs::canonicalize(path) {
            return Some(c);
        }
        let parent = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => std::path::Path::new("."),
        };
        Some(std::fs::canonicalize(parent).ok()?.join(path.file_name()?))
    }
    match (canon(a), canon(b)) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

/// Option keys every gated suite accepts (see [`suite`]).
const SUITE_KEYS: &[&str] = &[
    "scale", "quick", "seed", "runs", "out", "check", "golden", "csv",
];

/// Extra option keys of `paba churn`: worker threads, the live endpoint,
/// and the [`ChurnParams`] regime overrides.
const CHURN_KEYS: &[&str] = &[
    "threads",
    "serve-metrics",
    "side",
    "files",
    "cache",
    "gamma",
    "radius",
    "cycle-fraction",
    "graceful-fraction",
    "inserts",
    "repair",
    "retry-budget",
    "replication",
];

/// Extra option keys of `paba queueing`: worker threads, the live
/// endpoint, and the [`QueueingParams`] regime overrides.
const QUEUEING_KEYS: &[&str] = &[
    "threads",
    "serve-metrics",
    "side",
    "files",
    "cache",
    "gamma",
    "radius",
    "lambda",
    "horizon",
    "warmup",
    "stale-period",
];

/// The churn suite with its regime overrides; absent knobs keep the scale
/// default (the configuration the committed golden was generated with).
fn churn_suite(a: &Args) -> Result<Suite, String> {
    Ok(Suite::Churn(ChurnParams {
        side: a.parse_opt("side")?,
        files: a.parse_opt("files")?,
        cache: a.parse_opt("cache")?,
        gamma: a.parse_opt("gamma")?,
        radius: a.parse_opt("radius")?,
        cycle_fraction: a.parse_opt("cycle-fraction")?,
        graceful_fraction: a.parse_opt("graceful-fraction")?,
        inserts: a.parse_opt("inserts")?,
        repair: a
            .get("repair")
            .map(|s| paba_churn::RepairPolicy::parse(s).map_err(|e| format!("--repair: {e}")))
            .transpose()?,
        retry_budget: a.parse_opt("retry-budget")?,
        replication: a.parse_opt("replication")?,
    }))
}

/// The queueing suite with its regime overrides (see [`churn_suite`]).
fn queueing_suite(a: &Args) -> Result<Suite, String> {
    Ok(Suite::Queueing(QueueingParams {
        side: a.parse_opt("side")?,
        files: a.parse_opt("files")?,
        cache: a.parse_opt("cache")?,
        gamma: a.parse_opt("gamma")?,
        radius: a.parse_opt("radius")?,
        lambda: a.parse_opt("lambda")?,
        horizon: a.parse_opt("horizon")?,
        warmup: a.parse_opt("warmup")?,
        stale_period: a.parse_opt("stale-period")?,
    }))
}

/// `paba repro | churn | queueing` — run one gated [`Suite`] of
/// `paba-repro`: print its gates, write its versioned artifact, and (with
/// `--check`) statistically diff it against the committed golden.
pub fn suite(name: &str, a: &Args) -> Result<(), String> {
    reject_action(a)?;
    let (suite, extra_keys) = match name {
        "repro" => (Suite::Repro, &[][..]),
        "churn" => (churn_suite(a)?, CHURN_KEYS),
        "queueing" => (queueing_suite(a)?, QUEUEING_KEYS),
        other => return Err(format!("unknown suite '{other}'")),
    };
    let unknown = a.unknown_keys(&[SUITE_KEYS, extra_keys].concat());
    if !unknown.is_empty() {
        return Err(format!("unknown option(s): {unknown:?} (see 'paba help')"));
    }
    let mut cfg = ReproConfig::new(scale(a)?);
    cfg.seed = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    cfg.runs_override = match a.parse_opt("runs")? {
        Some(0) => return Err("--runs must be a positive run count".into()),
        runs => runs,
    };
    cfg.threads = match a.parse_or("threads", 0usize)? {
        0 => None,
        t => Some(t),
    };
    suite.validate(cfg.scale)?;

    let name = suite.name();
    let check = a.flag("check");
    let artifact_path = format!("BENCH_{name}.json");
    let out = if check {
        // Never clobber the golden we are about to diff against.
        a.str_or("out", &format!("BENCH_{name}_fresh.json"))
    } else {
        a.str_or("out", &artifact_path)
    };
    let golden_path = a.str_or("golden", &artifact_path);
    if a.get("golden").is_some() && !check {
        return Err(
            "--golden only makes sense with --check (a plain run would ignore it \
             and regenerate the artifact instead)"
                .into(),
        );
    }
    // Load the golden *before* running or writing anything: a fresh
    // artifact written over the golden would otherwise self-compare
    // (guaranteed green) while destroying the committed baseline.
    let golden = if check {
        if out != "none" && same_file(&out, &golden_path) {
            return Err(format!(
                "--check refuses to overwrite the golden it diffs against \
                 ('{golden_path}'); pass a different --out (or 'none')"
            ));
        }
        Some(paba_repro::Artifact::load_expecting(
            std::path::Path::new(&golden_path),
            suite.schema(),
        )?)
    } else {
        None
    };

    // `--serve-metrics`: every worker shares one recorder, so a scrape
    // mid-suite sees run progress and the engine's counters (churn
    // events, dead-replica retries, repair migrations) accumulate live.
    let live = a
        .get("serve-metrics")
        .is_some()
        .then(|| LiveRun::new(suite.planned_runs(&cfg) as u64));
    let _server = match &live {
        Some(l) => spawn_metrics(a, l)?,
        None => None,
    };

    let artifact = suite.run(&cfg, live.as_ref())?;
    let gates = paba_repro::gates_table(&artifact);
    if a.flag("csv") {
        print!("{}", gates.to_csv());
    } else {
        print!("{}", gates.to_markdown());
    }
    if let Some(l) = &live {
        eprint!("{}", l.recorder.snapshot().table());
    }
    if out != "none" {
        artifact.write(std::path::Path::new(&out))?;
        eprintln!(
            "wrote {} gates / {} metrics to {out}",
            artifact.gates.len(),
            artifact.metrics.len()
        );
    }
    if !artifact.all_gates_passed() {
        return Err(format!("{name} gates failed (see table above)"));
    }
    if let Some(golden) = golden {
        let rep = paba_repro::check(&artifact, &golden, paba_repro::DEFAULT_CHECK_Z)?;
        let t = paba_repro::check_table(&rep);
        if a.flag("csv") {
            print!("{}", t.to_csv());
        } else {
            print!("{}", t.to_markdown());
        }
        if !rep.ok() {
            return Err(format!(
                "golden check failed: {} regression(s) vs {golden_path}",
                rep.regressions.len()
            ));
        }
        eprintln!("golden check passed against {golden_path}");
    }
    Ok(())
}

/// `paba report` — fold every `BENCH_*.json` artifact in a directory
/// into one markdown report with cross-artifact provenance consistency
/// checks. Warnings (debug builds, scratch names, seed drift) are
/// reported but non-fatal; failures (unparseable artifact, unknown
/// schema, missing provenance, provenance contradicting its artifact)
/// exit nonzero.
pub fn report(a: &Args) -> Result<(), String> {
    reject_action(a)?;
    let unknown = a.unknown_keys(&["dir", "out"]);
    if !unknown.is_empty() {
        return Err(format!("unknown option(s): {unknown:?} (see 'paba help')"));
    }
    let dir = a.str_or("dir", ".");
    let out = a.str_or("out", "-");
    let rep = crate::report::report_dir(std::path::Path::new(&dir))?;
    if out != "none" {
        write_output(&out, &rep.markdown, "benchmark report")?;
    }
    for w in &rep.warnings {
        eprintln!("warning: {w}");
    }
    for f in &rep.failures {
        eprintln!("FAIL: {f}");
    }
    eprintln!(
        "{} artifact(s), {} warning(s), {} failure(s)",
        rep.artifacts,
        rep.warnings.len(),
        rep.failures.len()
    );
    if !rep.failures.is_empty() {
        return Err(format!(
            "{} provenance/consistency failure(s) (see above)",
            rep.failures.len()
        ));
    }
    Ok(())
}

/// `paba workload <generate|inspect>`.
pub fn workload(a: &Args) -> Result<(), String> {
    match a.action.as_deref() {
        Some("generate") => workload_generate(a),
        Some("inspect") => workload_inspect(a),
        Some(other) => Err(format!(
            "unknown workload action '{other}' (generate | inspect)"
        )),
        None => Err("workload needs an action: generate | inspect".into()),
    }
}

fn workload_generate(a: &Args) -> Result<(), String> {
    let mut known = vec!["side", "files", "cache", "gamma", "requests", "seed", "out"];
    known.extend_from_slice(WORKLOAD_KEYS);
    let unknown = a.unknown_keys(&known);
    if !unknown.is_empty() {
        return Err(format!("unknown option(s): {unknown:?} (see 'paba help')"));
    }
    let side: u32 = a.parse_or("side", 45)?;
    let k: u32 = a.parse_or("files", 500)?;
    let m: u32 = a.parse_or("cache", 10)?;
    let gamma: f64 = a.parse_or("gamma", 0.0)?;
    let seed: u64 = a.parse_or("seed", paba_util::envcfg::DEFAULT_SEED)?;
    let requests_opt: u64 = a.parse_or("requests", 0)?;
    let out = a.get("out").ok_or("workload generate needs --out <path>")?;
    check_network(side, 1, k, Some(m), gamma)?;
    let spec = workload_spec(a)?;
    spec.validate(side * side, k)?;

    let mut rng = SmallRng::seed_from_u64(seed);
    let policy = PlacementPolicy::ProportionalWithReplacement;
    let net = try_network(side, k, m, gamma, policy, &mut rng)?;
    let mut source = spec.build(&net)?;
    let requests = if requests_opt != 0 {
        requests_opt
    } else {
        RequestSource::<Torus>::size_hint(&source).unwrap_or(net.n() as u64)
    };
    let mut w = TraceWriter::create(out, net.n(), net.k())?;
    for _ in 0..requests {
        w.write(source.next_request(&net, &mut rng))?;
    }
    let written = w.finish()?;
    eprintln!(
        "wrote {written} requests ({} workload, n={}, K={}) to {out}",
        spec.name(),
        net.n(),
        net.k()
    );
    Ok(())
}

fn workload_inspect(a: &Args) -> Result<(), String> {
    let unknown = a.unknown_keys(&["trace", "top", "csv"]);
    if !unknown.is_empty() {
        return Err(format!("unknown option(s): {unknown:?} (see 'paba help')"));
    }
    let path = a
        .get("trace")
        .ok_or("workload inspect needs --trace <path>")?;
    let top: usize = a.parse_or("top", 5)?;
    let trace = paba_workload::Trace::load(path)?;

    // Each distinct id with its request count, most requested first (ties
    // by id). Counted by sorting, so memory follows the records, not the
    // n and K the header claims.
    let ranked = |mut ids: Vec<u32>| -> Vec<(u32, u64)> {
        ids.sort_unstable();
        let mut v: Vec<(u32, u64)> = Vec::new();
        for id in ids {
            match v.last_mut() {
                Some((last, c)) if *last == id => *c += 1,
                _ => v.push((id, 1)),
            }
        }
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    };
    let files = ranked(trace.records.iter().map(|r| r.file).collect());
    let origins = ranked(trace.records.iter().map(|r| r.origin).collect());
    let total = trace.len().max(1) as f64;

    let mut t = Table::new(["property", "value"]);
    t.push_row(["records".to_string(), format!("{}", trace.len())]);
    t.push_row(["nodes n".to_string(), format!("{}", trace.n)]);
    t.push_row(["library K".to_string(), format!("{}", trace.k)]);
    t.push_row(["distinct files".to_string(), format!("{}", files.len())]);
    t.push_row(["distinct origins".to_string(), format!("{}", origins.len())]);
    for &(f, c) in files.iter().take(top) {
        t.push_row([
            format!("top file {f}"),
            format!("{c} requests ({:.2}%)", 100.0 * c as f64 / total),
        ]);
    }
    for &(o, c) in origins.iter().take(top) {
        t.push_row([
            format!("top origin {o}"),
            format!("{c} requests ({:.2}%)", 100.0 * c as f64 / total),
        ]);
    }
    if a.flag("csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.to_markdown());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn simulate_small_run_works() {
        let a = args("simulate --side 8 --files 20 --cache 3 --runs 3 --radius 3");
        let (stats, runs, telemetry) = simulate_cmd_impl(&a).unwrap();
        assert_eq!(runs, 3);
        assert!(telemetry.is_none(), "no --telemetry, no snapshot");
        assert!(stats.max_load.mean >= 1.0);
        assert!(stats.cost.mean >= 0.0);
    }

    #[test]
    fn simulate_nearest_and_least_loaded() {
        for strat in ["nearest", "least-loaded", "d-choice"] {
            let a = args(&format!(
                "simulate --side 6 --files 10 --cache 2 --runs 2 --strategy {strat}"
            ));
            let (stats, _, _) = simulate_cmd_impl(&a).unwrap();
            assert!(stats.max_load.mean >= 1.0, "{strat}");
        }
    }

    #[test]
    fn simulate_dht_placement() {
        let a = args("simulate --side 8 --files 30 --cache 3 --runs 2 --placement dht");
        let (stats, _, _) = simulate_cmd_impl(&a).unwrap();
        assert!(stats.max_load.mean >= 1.0);
    }

    #[test]
    fn simulate_rejects_unknown_options() {
        let a = args("simulate --sid 8");
        assert!(simulate_cmd_impl(&a).unwrap_err().contains("sid"));
    }

    #[test]
    fn simulate_rejects_unknown_strategy() {
        let a = args("simulate --strategy magic");
        assert!(simulate(&a).unwrap_err().contains("magic"));
    }

    #[test]
    fn queue_validates_lambda() {
        let a = args("queue --lambda 1.5");
        assert!(queue(&a).unwrap_err().contains("lambda"));
    }

    #[test]
    fn queue_runs_every_strategy_and_workload() {
        for strat in ["nearest", "two-choice", "d-choice", "least-loaded"] {
            let a = args(&format!(
                "queue --side 6 --files 8 --cache 2 --lambda 0.6 \
                 --horizon 300 --warmup 50 --strategy {strat}"
            ));
            assert!(queue(&a).is_ok(), "{strat}");
        }
        // Stale load signal, strided series, and a workload family in one.
        let a = args(
            "queue --side 6 --files 8 --cache 2 --lambda 0.6 --horizon 300 \
             --warmup 50 --stale 64 --stride 32 --workload flash-crowd",
        );
        assert!(queue(&a).is_ok());
        assert!(queue(&args("queue --strategy chaos"))
            .unwrap_err()
            .contains("chaos"));
        assert!(queue(&args("queue --stale 0"))
            .unwrap_err()
            .contains("stale"));
        assert!(queue(&args("queue --warmup 900 --horizon 800"))
            .unwrap_err()
            .contains("warmup"));
    }

    #[test]
    fn ballsbins_runs_every_process() {
        for p in ["one", "two", "d", "beta", "batched"] {
            let a = args(&format!(
                "ballsbins --process {p} --bins 64 --balls 64 --runs 2"
            ));
            assert!(ballsbins(&a).is_ok(), "{p}");
        }
    }

    #[test]
    fn ballsbins_rejects_unknown_process() {
        let a = args("ballsbins --process three");
        assert!(ballsbins(&a).unwrap_err().contains("three"));
    }

    #[test]
    fn ballsbins_rejects_zero_bins() {
        let a = args("ballsbins --bins 0");
        assert!(ballsbins(&a).unwrap_err().contains("--bins"));
    }

    #[test]
    fn ballsbins_rejects_zero_choices() {
        let a = args("ballsbins --process d --d 0");
        assert!(ballsbins(&a).unwrap_err().contains("--d"));
    }

    #[test]
    fn ballsbins_rejects_beta_outside_the_unit_interval() {
        for beta in ["2", "-0.5", "nan"] {
            let a = args(&format!("ballsbins --process beta --beta {beta}"));
            assert!(ballsbins(&a).unwrap_err().contains("--beta"), "{beta}");
        }
    }

    #[test]
    fn ballsbins_rejects_zero_batch() {
        let a = args("ballsbins --process batched --batch 0");
        assert!(ballsbins(&a).unwrap_err().contains("--batch"));
    }

    #[test]
    fn simulate_runs_every_synthetic_workload() {
        for w in ["hotspot", "zipf-origins", "flash-crowd", "shifting"] {
            let a = args(&format!(
                "simulate --side 6 --files 12 --cache 2 --runs 2 --workload {w}"
            ));
            let (stats, _, _) = simulate_cmd_impl(&a).unwrap();
            assert!(stats.max_load.mean >= 1.0, "{w}");
        }
    }

    #[test]
    fn simulate_rejects_unknown_workload() {
        let a = args("simulate --workload chaos");
        assert!(simulate_cmd_impl(&a).unwrap_err().contains("chaos"));
    }

    #[test]
    fn simulate_rejects_invalid_workload_params() {
        let a = args("simulate --side 6 --files 12 --workload flash-crowd --flash-file 99");
        assert!(simulate_cmd_impl(&a).unwrap_err().contains("flash file"));
    }

    #[test]
    fn workload_generate_inspect_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("paba_cli_workload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.display();
        let g = args(&format!(
            "workload generate --side 6 --files 12 --cache 2 --requests 300 \
             --workload hotspot --out {path_s}"
        ));
        workload(&g).unwrap();
        let i = args(&format!("workload inspect --trace {path_s}"));
        workload(&i).unwrap();
        // Replaying through `simulate` must work and default to the
        // trace's length.
        let s = args(&format!(
            "simulate --side 6 --files 12 --cache 2 --runs 2 --workload trace --trace {path_s}"
        ));
        let (stats, _, _) = simulate_cmd_impl(&s).unwrap();
        assert!(stats.max_load.mean >= 1.0);
        // Replayed workloads are identical across runs and strategies: the
        // request stream is frozen, only assignment randomness differs.
        let too_many = args(&format!(
            "simulate --side 6 --files 12 --cache 2 --requests 301 --workload trace \
             --trace {path_s}"
        ));
        assert!(simulate_cmd_impl(&too_many)
            .unwrap_err()
            .contains("exceeds the trace length"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_telemetry_accounts_for_every_request() {
        // side 8 → n = 64 requests per run, 3 runs.
        let a = args("simulate --side 8 --files 20 --cache 3 --runs 3 --radius 3 --telemetry");
        let (_, _, telemetry) = simulate_cmd_impl(&a).unwrap();
        let snap = telemetry.expect("--telemetry yields a snapshot");
        assert_eq!(snap.total_requests(), 3 * 64);
    }

    #[test]
    fn simulate_telemetry_does_not_change_results() {
        let base = "simulate --side 8 --files 20 --cache 3 --runs 3 --radius 3";
        let (plain, _, _) = simulate_cmd_impl(&args(base)).unwrap();
        let (recorded, _, _) = simulate_cmd_impl(&args(&format!("{base} --telemetry"))).unwrap();
        assert_eq!(plain.max_load.mean, recorded.max_load.mean);
        assert_eq!(plain.cost.mean, recorded.cost.mean);
        assert_eq!(plain.fallback.mean, recorded.fallback.mean);
    }

    #[test]
    fn simulate_telemetry_out_writes_snapshot_json() {
        let dir =
            std::env::temp_dir().join(format!("paba_cli_telemetry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.json");
        let a = args(&format!(
            "simulate --side 6 --files 12 --cache 2 --runs 2 --csv --telemetry-out {}",
            path.display()
        ));
        simulate(&a).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"paba-telemetry/1\""));
        assert!(json.contains("\"sampler_paths\""));
        std::fs::remove_file(&path).ok();
    }

    /// Run a suite command line (`repro …`, `churn …`, `queueing …`)
    /// through the driver.
    fn suite_cmd(cmd: &str) -> Result<(), String> {
        let a = args(cmd);
        suite(a.command.as_deref().expect("suite name"), &a)
    }

    /// A replication that keeps each suite's test fast yet clears every
    /// gate threshold with margin (the self-check is exact).
    fn fast_opts(name: &str) -> &'static str {
        match name {
            "repro" => "--runs 16",
            "churn" => "--runs 8 --threads 2",
            "queueing" => "--runs 6 --threads 2",
            other => panic!("unknown suite {other}"),
        }
    }

    fn suite_dir(test: &str, name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("paba_cli_{name}_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The artifact `{name} --quick {fast_opts}` writes, generated once
    /// per test binary: the tests that only read a generated golden share
    /// it instead of each running the suite again.
    fn generated_artifact(name: &str) -> &'static str {
        static ARTIFACTS: [std::sync::OnceLock<String>; 3] =
            [const { std::sync::OnceLock::new() }; 3];
        let slot = match name {
            "repro" => 0,
            "churn" => 1,
            "queueing" => 2,
            other => panic!("unknown suite {other}"),
        };
        ARTIFACTS[slot].get_or_init(|| {
            let dir = suite_dir("generated", name);
            let path = dir.join(format!("BENCH_{name}.json"));
            let opts = fast_opts(name);
            suite_cmd(&format!("{name} --quick {opts} --out {}", path.display())).unwrap();
            let json = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            json
        })
    }

    /// Generate a suite's artifact, then `--check` a fresh run against it.
    fn assert_generate_then_check_round_trips(name: &str) {
        let opts = fast_opts(name);
        let dir = suite_dir("round_trip", name);
        let golden = dir.join(format!("BENCH_{name}.json"));
        let fresh = dir.join(format!("BENCH_{name}_fresh.json"));
        let json = generated_artifact(name);
        std::fs::write(&golden, json).unwrap();
        assert!(json.contains(&format!("\"schema\": \"paba-{name}/1\"")));
        suite_cmd(&format!(
            "{name} --quick {opts} --check --golden {} --out {}",
            golden.display(),
            fresh.display()
        ))
        .unwrap();
        assert!(
            fresh.exists(),
            "{name}: --check must write the fresh artifact"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--golden` and `--out` spelling the same file must be refused
    /// before the suite runs or touches the golden.
    fn assert_check_refuses_aliased_golden_out_paths(name: &str) {
        let dir = suite_dir("alias", name);
        let golden = dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&golden, "{}").unwrap();
        // Same file, different spelling (an extra `./` component): the
        // overwrite guard must see through it and refuse before running.
        let aliased = dir.join(".").join(format!("BENCH_{name}.json"));
        let err = suite_cmd(&format!(
            "{name} --quick --runs 2 --check --golden {} --out {}",
            golden.display(),
            aliased.display()
        ))
        .unwrap_err();
        assert!(err.contains("refuses to overwrite"), "{name}: {err}");
        // The refusal must happen before anything touched the golden.
        assert_eq!(std::fs::read_to_string(&golden).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn assert_golden_without_check_is_an_error(name: &str) {
        let err = suite_cmd(&format!(
            "{name} --quick --runs 2 --golden /tmp/whatever.json --out none"
        ))
        .unwrap_err();
        assert!(err.contains("--check"), "{name}: {err}");
    }

    /// The suite's golden loader is handed a structurally valid artifact
    /// of `other`'s schema and must name both schemas.
    fn assert_check_rejects_wrong_schema_golden(name: &str, other: &str) {
        let dir = suite_dir("schema", name);
        let golden = dir.join(format!("BENCH_{other}.json"));
        let foreign = paba_repro::Artifact {
            schema: format!("paba-{other}/1"),
            seed: paba_util::envcfg::DEFAULT_SEED,
            scale: "quick".into(),
            gates: Vec::new(),
            metrics: Vec::new(),
        };
        foreign.write(&golden).unwrap();
        let err = suite_cmd(&format!(
            "{name} --quick --runs 2 --check --golden {} --out none",
            golden.display()
        ))
        .unwrap_err();
        assert!(err.contains(&format!("paba-{name}/1")), "{err}");
        assert!(err.contains(&format!("paba-{other}/1")), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repro_generate_then_check_round_trips() {
        assert_generate_then_check_round_trips("repro");
    }

    #[test]
    fn churn_generate_then_check_round_trips() {
        assert_generate_then_check_round_trips("churn");
    }

    #[test]
    fn queueing_generate_then_check_round_trips() {
        assert_generate_then_check_round_trips("queueing");
    }

    #[test]
    fn repro_check_refuses_aliased_golden_out_paths() {
        assert_check_refuses_aliased_golden_out_paths("repro");
    }

    #[test]
    fn churn_check_refuses_aliased_golden_out_paths() {
        assert_check_refuses_aliased_golden_out_paths("churn");
    }

    #[test]
    fn queueing_check_refuses_aliased_golden_out_paths() {
        assert_check_refuses_aliased_golden_out_paths("queueing");
    }

    #[test]
    fn repro_golden_without_check_is_an_error() {
        assert_golden_without_check_is_an_error("repro");
    }

    #[test]
    fn churn_golden_without_check_is_an_error() {
        assert_golden_without_check_is_an_error("churn");
    }

    #[test]
    fn queueing_golden_without_check_is_an_error() {
        assert_golden_without_check_is_an_error("queueing");
    }

    #[test]
    fn repro_check_rejects_wrong_schema_golden() {
        assert_check_rejects_wrong_schema_golden("repro", "queueing");
    }

    #[test]
    fn churn_check_rejects_wrong_schema_golden() {
        assert_check_rejects_wrong_schema_golden("churn", "repro");
    }

    #[test]
    fn queueing_check_rejects_wrong_schema_golden() {
        assert_check_rejects_wrong_schema_golden("queueing", "churn");
    }

    #[test]
    fn repro_check_detects_doctored_golden() {
        let dir =
            std::env::temp_dir().join(format!("paba_cli_repro_doctored_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let golden = dir.join("BENCH_repro.json");
        // Corrupt one deterministic-looking metric far beyond noise.
        let doctored =
            generated_artifact("repro").replacen("\"mean\": ", "\"mean\": 99999 , \"was\": ", 1);
        std::fs::write(&golden, doctored).unwrap();
        let err = suite_cmd(&format!(
            "repro --quick --runs 16 --check --golden {} --out none",
            golden.display()
        ))
        .unwrap_err();
        assert!(err.contains("regression"), "{err}");
        std::fs::remove_file(&golden).ok();
    }

    #[test]
    fn malformed_paba_scale_is_an_error() {
        // The variable's value is passed in: the process environment,
        // which parallel tests share, stays untouched.
        let plain = args("repro --out none");
        let err = scale_from(&plain, Some("bogus")).unwrap_err();
        assert!(err.contains("PABA_SCALE") && err.contains("bogus"), "{err}");
        assert_eq!(scale_from(&plain, Some("quick")), Ok(Scale::Quick));
        assert_eq!(scale_from(&plain, None), Ok(Scale::Default));
        // The flags take precedence over the variable.
        let full = args("repro --scale full");
        assert_eq!(scale_from(&full, Some("bogus")), Ok(Scale::Full));
        assert_eq!(
            scale_from(&args("repro --quick"), Some("bogus")),
            Ok(Scale::Quick)
        );
    }

    #[test]
    fn repro_rejects_unknown_options() {
        assert!(suite_cmd("repro --sacle quick")
            .unwrap_err()
            .contains("sacle"));
        // Threads and the live endpoint belong to churn and queueing only.
        assert!(suite_cmd("repro --quick --threads 2")
            .unwrap_err()
            .contains("threads"));
        assert!(suite_cmd("repro --quick --serve-metrics 127.0.0.1:0")
            .unwrap_err()
            .contains("serve-metrics"));
        // A bad scale or a zero run count is refused before anything runs.
        assert!(suite_cmd("repro --scale enormous --out none")
            .unwrap_err()
            .contains("enormous"));
        assert!(suite_cmd("repro --runs 0 --out none")
            .unwrap_err()
            .contains("--runs"));
    }

    #[test]
    fn suite_rejects_invalid_regimes() {
        // Each override resolves to a regime the engines cannot run, or
        // (zero replicas) one that runs to a meaningless result; it must
        // come back as an error naming the flag, before the golden is
        // read, never as a worker panic.
        for (cmd, flag) in [
            ("churn --side 0", "--side"),
            ("churn --side 1", "--side"),
            ("churn --files 0", "--files"),
            ("churn --cache 0", "--cache"),
            ("churn --gamma -1", "--gamma"),
            ("churn --gamma nan", "--gamma"),
            ("churn --replication 0", "--replication"),
            ("queueing --side 0", "--side"),
            ("queueing --side 4294967295", "--side"),
            ("queueing --files 0", "--files"),
            ("queueing --horizon 10", "--horizon"),
            ("queueing --horizon nan", "--horizon"),
            ("queueing --gamma inf", "--gamma"),
        ] {
            let err = suite_cmd(&format!(
                "{cmd} --quick --runs 2 --check --golden /nonexistent/BENCH.json --out none"
            ))
            .unwrap_err();
            assert!(err.contains(flag), "{cmd}: {err}");
        }
        // A network too large for memory passes those checks and fails
        // each run's build when the placement slots (858 TB here) are
        // reserved, before any large allocation and before any draw.
        for name in ["churn", "queueing"] {
            let err = suite_cmd(&format!(
                "{name} --quick --runs 2 --side 46340 --files 100000 --cache 100000 --out none"
            ))
            .unwrap_err();
            assert!(
                err.contains("--side 46340, --files 100000 and --cache 100000")
                    && err.contains("placement slots"),
                "{name}: {err}"
            );
        }
    }

    /// Run a `simulate`, `trace`, `queue` or `workload` command line.
    fn run_cmd(cmd: &str) -> Result<(), String> {
        let a = args(cmd);
        match a.command.as_deref() {
            Some("simulate") => simulate_cmd_impl(&a).map(drop),
            Some("trace") => trace(&a),
            Some("queue") => queue(&a),
            Some("workload") => workload(&a),
            other => panic!("not a run command: {other:?}"),
        }
    }

    #[test]
    fn commands_reject_invalid_regimes() {
        // The run commands share the suites' regime checks: each input
        // must come back as an error naming its flag, never as a worker
        // panic, a hang, a misreported window or a silent fresh run.
        let dir = std::env::temp_dir().join(format!("paba_cli_regimes_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace").display().to_string();
        let out = dir.join("out.trace").display().to_string();
        run_cmd(&format!(
            "workload generate --side 8 --files 20 --requests 1000 --out {trace_path}"
        ))
        .unwrap();
        let finite = "queue --side 8 --files 20 --workload trace --trace {trace} \
                      --horizon 200 --warmup 50";
        for (cmd, flag) in [
            ("simulate --side 0", "--side"),
            ("simulate --side 50000", "--side"),
            ("simulate --files 0", "--files"),
            ("simulate --cache 0", "--cache"),
            ("simulate --gamma -1", "--gamma"),
            ("simulate --gamma nan", "--gamma"),
            ("simulate --strategy d-choice --choices 0", "--choices"),
            // More choices than the 64 nodes: refused before any buffer
            // is sized by them (4·10⁹ aborted asking for 16 GB).
            (
                "simulate --strategy d-choice --choices 4000000000 --side 8 --files 4 \
                 --cache 2 --runs 1 --radius 2",
                "--choices",
            ),
            (
                "trace --strategy d-choice --choices 4000000000 --side 8 --files 4 \
                 --cache 2 --runs 1 --radius 2",
                "--choices",
            ),
            (
                "queue --strategy d-choice --choices 4000000000 --side 8 --files 4 \
                 --cache 2 --radius 2",
                "--choices",
            ),
            (
                "simulate --placement distinct --files 5 --cache 10",
                "--cache",
            ),
            // Zipf weights past the first file underflow to zero.
            (
                "simulate --placement distinct --gamma 1100 --files 5 --cache 2",
                "--cache",
            ),
            ("simulate --stale 0", "--stale"),
            // n·M = 2.1·10¹⁴ slots (858 TB): no machine can allocate it.
            (
                "simulate --side 46340 --files 100000 --cache 100000 --runs 1",
                "--side 46340, --files 100000 and --cache 100000",
            ),
            (
                "queue --side 46340 --files 100000 --cache 100000",
                "--cache 100000",
            ),
            // side² · 128 ring points pass u32::MAX from side 5793 up.
            (
                "simulate --placement dht --side 6000 --files 10 --cache 1 --runs 1",
                "--side 6000 with --placement dht",
            ),
            (
                "trace --placement dht --side 5793 --files 10 --cache 1 --runs 1",
                "--side must be at most 5792",
            ),
            (
                "workload generate --side 46340 --files 100000 --cache 100000 --out {out}",
                "--files 100000",
            ),
            ("trace --side 0", "--side"),
            ("queue --side 0", "--side"),
            ("queue --files 0", "--files"),
            ("queue --cache 0", "--cache"),
            ("queue --gamma -1", "--gamma"),
            ("queue --strategy d-choice --choices 0", "--choices"),
            ("queue --horizon inf", "--horizon"),
            ("queue --warmup -5 --horizon 10", "--warmup"),
            (finite, "--cycle"),
            ("workload generate --side 0 --out {out}", "--side"),
            ("workload generate --files 0 --out {out}", "--files"),
            ("workload generate --cache 0 --out {out}", "--cache"),
        ] {
            let cmd = cmd.replace("{trace}", &trace_path).replace("{out}", &out);
            let err = run_cmd(&cmd).unwrap_err();
            assert!(err.contains(flag), "{cmd}: {err}");
        }
        // --cache is checked only where the placement uses it, a cycled
        // trace still serves the queue, and a distinct placement whose
        // popularity tail is vanishingly small (but positive) completes.
        run_cmd("simulate --side 6 --files 10 --cache 0 --runs 2 --placement full").unwrap();
        for tail in [
            "--files 1000 --cache 100 --gamma 5 --side 10",
            "--files 50 --cache 50 --gamma 30 --side 4",
        ] {
            run_cmd(&format!("simulate --placement distinct {tail} --runs 1")).unwrap();
        }
        run_cmd(&format!(
            "{} --cycle",
            finite.replace("{trace}", &trace_path)
        ))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn removed_overrides_are_unknown_options() {
        // perfbench is the one performance harness: neither `throughput`
        // nor `profile` is a subcommand.
        for (cmd, want) in [
            ("simulate --grid", "unknown option(s): [\"grid\"]"),
            // `paba trace --sample 1 --stride 0 --events-out` is the one
            // way to write every request's event.
            (
                "simulate --trace-out x",
                "unknown option(s): [\"trace-out\"]",
            ),
            (
                "throughput --scale quick",
                "unknown subcommand 'throughput'",
            ),
            (
                "profile --diff a.json b.json",
                "unknown subcommand 'profile'",
            ),
        ] {
            let err = run(&args(cmd)).unwrap_err();
            assert!(err.contains(want), "{cmd}: {err}");
        }
    }

    #[test]
    fn churn_rejects_bad_options() {
        assert!(suite_cmd("churn --sacle quick")
            .unwrap_err()
            .contains("sacle"));
        assert!(suite_cmd("churn --quick --repair best-effort --out none")
            .unwrap_err()
            .contains("--repair"));
        assert!(suite_cmd("churn --quick --cycle-fraction 1.5 --out none")
            .unwrap_err()
            .contains("cycle-fraction"));
        assert!(
            suite_cmd("churn --quick --runs 2 --golden /tmp/g.json --out none")
                .unwrap_err()
                .contains("--check")
        );
    }

    #[test]
    fn queueing_rejects_bad_options() {
        assert!(suite_cmd("queueing --sacle quick")
            .unwrap_err()
            .contains("sacle"));
        assert!(suite_cmd("queueing --quick --lambda 1.2 --out none")
            .unwrap_err()
            .contains("lambda"));
        assert!(
            suite_cmd("queueing --quick --warmup 500 --horizon 100 --out none")
                .unwrap_err()
                .contains("warmup")
        );
        assert!(suite_cmd("queueing --quick --stale-period 0 --out none")
            .unwrap_err()
            .contains("stale-period"));
        assert!(
            suite_cmd("queueing --quick --runs 2 --golden /tmp/g.json --out none")
                .unwrap_err()
                .contains("--check")
        );
    }

    #[test]
    fn workload_requires_action() {
        assert!(workload(&args("workload")).unwrap_err().contains("action"));
        assert!(workload(&args("workload prune"))
            .unwrap_err()
            .contains("prune"));
    }

    #[test]
    fn non_workload_commands_reject_stray_positionals() {
        // Only `workload` takes a second positional; everywhere else a
        // stray one must fail loudly, not be silently absorbed.
        assert!(
            simulate_cmd_impl(&args("simulate bogus --side 6 --files 12"))
                .unwrap_err()
                .contains("bogus")
        );
        assert!(queue(&args("queue bogus")).unwrap_err().contains("bogus"));
        assert!(ballsbins(&args("ballsbins bogus"))
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn trace_writes_parseable_outputs() {
        let dir = std::env::temp_dir().join(format!("paba_cli_trace_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        let series = dir.join("series.json");
        let chrome = dir.join("chrome.json");
        let a = args(&format!(
            "trace --side 6 --files 12 --cache 2 --runs 2 --sample 4 --stride 16 --csv \
             --events-out {} --series-out {} --chrome-out {}",
            events.display(),
            series.display(),
            chrome.display()
        ));
        trace(&a).unwrap();
        // Every JSONL line is a standalone JSON object.
        let jsonl = std::fs::read_to_string(&events).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let ev = paba_util::json::parse(line).expect("event line parses");
            assert!(ev.get("request").is_some(), "{line}");
            assert!(ev.get("server").is_some(), "{line}");
        }
        // The series artifact carries its schema plus per-run and mean series.
        let doc = paba_util::json::parse(&std::fs::read_to_string(&series).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(paba_util::json::Json::as_str),
            Some("paba-trace-series/1")
        );
        let runs = doc
            .get("runs")
            .and_then(paba_util::json::Json::as_arr)
            .unwrap();
        assert_eq!(runs.len(), 2);
        assert!(doc.get("mean").is_some());
        // The Chrome trace is a trace_event document with complete events.
        let ct = paba_util::json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let evs = ct
            .get("traceEvents")
            .and_then(paba_util::json::Json::as_arr)
            .unwrap();
        assert!(!evs.is_empty());
        for e in evs {
            assert_eq!(
                e.get("ph").and_then(paba_util::json::Json::as_str),
                Some("X")
            );
        }
        for f in [&events, &series, &chrome] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn trace_rejects_conflicting_and_unknown_options() {
        let a = args("trace --side 6 --files 12 --sample 4 --reservoir 8");
        assert!(trace(&a).unwrap_err().contains("mutually exclusive"));
        let a = args("trace --side 6 --files 12 --smaple 4");
        assert!(trace(&a).unwrap_err().contains("smaple"));
        let a = args("trace --side 6 --files 12 --sample 0");
        assert!(trace(&a).unwrap_err().contains("--sample"));
        // simulate's artifact options are not trace's: refused, not ignored.
        for flag in ["trace-out", "telemetry-out"] {
            let a = args(&format!("trace --side 6 --files 12 --{flag} x.json"));
            assert!(trace(&a).unwrap_err().contains(flag), "{flag}");
        }
    }

    #[test]
    fn trace_sample_one_writes_every_request_as_jsonl() {
        let dir = std::env::temp_dir().join(format!(
            "paba_cli_trace_every_request_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let a = args(&format!(
            "trace --side 6 --files 12 --cache 2 --runs 2 --csv --sample 1 --stride 0 \
             --events-out {}",
            path.display()
        ));
        trace(&a).unwrap();
        let jsonl = std::fs::read_to_string(&path).unwrap();
        // --sample 1 keeps every request: side 6 → 36 requests × 2 runs.
        assert_eq!(jsonl.lines().count(), 2 * 36);
        for line in jsonl.lines() {
            paba_util::json::parse(line).expect("event line parses");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_serve_metrics_runs_and_matches_plain_results() {
        // An ephemeral port keeps the test parallel-safe; the endpoint's
        // HTTP behaviour is covered in paba-telemetry, here we check the
        // live path wires up and does not change the simulation.
        let base = "simulate --side 8 --files 20 --cache 3 --runs 3 --radius 3";
        let (plain, _, _) = simulate_cmd_impl(&args(base)).unwrap();
        let (live, _, _) =
            simulate_cmd_impl(&args(&format!("{base} --serve-metrics 127.0.0.1:0"))).unwrap();
        assert_eq!(plain.max_load.mean, live.max_load.mean);
        assert_eq!(plain.cost.mean, live.cost.mean);
    }

    #[test]
    fn trace_serve_metrics_still_traces() {
        let a = args(
            "trace --side 6 --files 12 --cache 2 --runs 2 --sample 4 --csv \
             --serve-metrics 127.0.0.1:0",
        );
        trace(&a).unwrap();
    }

    #[test]
    fn serve_metrics_rejects_bad_address() {
        let a = args("simulate --side 6 --files 12 --runs 1 --serve-metrics not-an-addr");
        assert!(simulate_cmd_impl(&a).unwrap_err().contains("not-an-addr"));
    }

    #[test]
    fn report_aggregates_generated_artifacts() {
        let dir = std::env::temp_dir().join(format!("paba_cli_report_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_repro.json"), generated_artifact("repro")).unwrap();
        let out = dir.join("REPORT.md");
        report(&args(&format!(
            "report --dir {} --out {}",
            dir.display(),
            out.display()
        )))
        .unwrap();
        let md = std::fs::read_to_string(&out).unwrap();
        assert!(md.contains("# paba benchmark report"));
        assert!(md.contains("BENCH_repro.json"));
        assert!(md.contains("Theorem gates"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_fails_on_unknown_schema() {
        let dir = std::env::temp_dir().join(format!("paba_cli_report_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_alien.json"), r#"{"schema": "alien/9"}"#).unwrap();
        let err = report(&args(&format!("report --dir {} --out none", dir.display()))).unwrap_err();
        assert!(err.contains("failure"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_trace_shape_mismatch_rejected() {
        let dir = std::env::temp_dir().join("paba_cli_workload_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.display();
        let g = args(&format!(
            "workload generate --side 6 --files 12 --cache 2 --requests 50 --out {path_s}"
        ));
        workload(&g).unwrap();
        let s = args(&format!(
            "simulate --side 7 --files 12 --cache 2 --runs 1 --workload trace --trace {path_s}"
        ));
        assert!(simulate_cmd_impl(&s)
            .unwrap_err()
            .contains("does not match"));
        std::fs::remove_file(&path).ok();
    }
}
