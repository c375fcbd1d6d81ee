//! Shared harness for the figure/table regeneration benches, and the
//! [`report`] reader behind `paba report`.
//!
//! Every bench target in this crate reproduces one figure or table of
//! Pourmiri et al. (IPDPS 2017): it sweeps the paper's parameter grid,
//! averages a configurable number of Monte-Carlo runs per point (placement
//! *and* requests re-randomized each run, matching the paper's §V setup),
//! and prints the same series the paper plots — as a Markdown table on
//! stdout (captured into `bench_output.txt`) and as CSV under
//! `target/paba-results/` for replotting.
//!
//! Environment knobs (see [`paba_util::envcfg`]): `PABA_RUNS`,
//! `PABA_SEED`, `PABA_SCALE=quick|default|full`.

pub mod report;

use paba_core::{
    simulate_source, CacheNetwork, NearestReplica, PlacementPolicy, ProximityChoice, UncachedPolicy,
};
use paba_popularity::Popularity;
use paba_util::envcfg::EnvCfg;
use paba_util::{Summary, Table};
use paba_workload::WorkloadSpec;
use rand::rngs::SmallRng;
use std::io::Write as _;
use std::path::PathBuf;

/// One network configuration point of a sweep.
#[derive(Clone, Debug)]
pub struct NetPoint {
    /// Torus side (`n = side²`).
    pub side: u32,
    /// Library size `K`.
    pub k: u32,
    /// Cache size `M`.
    pub m: u32,
    /// Popularity profile.
    pub popularity: Popularity,
    /// Placement policy.
    pub policy: PlacementPolicy,
}

impl NetPoint {
    /// Uniform-popularity point with the paper's default placement.
    pub fn uniform(side: u32, k: u32, m: u32) -> Self {
        Self {
            side,
            k,
            m,
            popularity: Popularity::Uniform,
            policy: PlacementPolicy::ProportionalWithReplacement,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> u32 {
        self.side * self.side
    }

    /// Instantiate the network with a fresh random placement.
    pub fn build(&self, rng: &mut SmallRng) -> CacheNetwork<paba_topology::Torus> {
        CacheNetwork::builder()
            .torus_side(self.side)
            .library(self.k, self.popularity.clone())
            .cache_size(self.m)
            .placement_policy(self.policy)
            .build(rng)
    }
}

/// Which strategy a sweep point runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// Strategy I (nearest replica).
    Nearest,
    /// Strategy II with `d` choices and optional radius.
    Proximity {
        /// Proximity radius (`None` = `r = ∞`).
        radius: Option<u32>,
        /// Number of choices (2 in the paper).
        d: u32,
    },
}

impl StrategyKind {
    /// The paper's Strategy II defaults.
    pub fn two_choice(radius: Option<u32>) -> Self {
        StrategyKind::Proximity { radius, d: 2 }
    }

    /// Display label.
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Nearest => "Strategy I (nearest)".into(),
            StrategyKind::Proximity { radius: None, d } => {
                format!("Strategy II (d={d}, r=inf)")
            }
            StrategyKind::Proximity { radius: Some(r), d } => {
                format!("Strategy II (d={d}, r={r})")
            }
        }
    }
}

/// Per-run scalar outcomes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunOut {
    /// Maximum load `L`.
    pub max_load: f64,
    /// Communication cost `C`.
    pub cost: f64,
    /// Fraction of requests on any fallback path.
    pub fallback: f64,
}

/// One full simulation run: fresh placement, `n` requests (the paper's
/// default request count), selected strategy, the paper's IID workload.
pub fn run_once(point: &NetPoint, kind: StrategyKind, rng: &mut SmallRng) -> RunOut {
    run_once_workload(point, kind, &WorkloadSpec::Iid, rng)
}

/// [`run_once`] with an explicit workload: the `n` requests are drawn
/// from a fresh instantiation of `spec` instead of the IID baseline.
pub fn run_once_workload(
    point: &NetPoint,
    kind: StrategyKind,
    spec: &WorkloadSpec,
    rng: &mut SmallRng,
) -> RunOut {
    let net = point.build(rng);
    let requests = net.n() as u64;
    let mut source = spec
        .build(&net, UncachedPolicy::ResampleFile)
        .expect("workload spec must fit the bench network");
    let report = match kind {
        StrategyKind::Nearest => {
            let mut s = NearestReplica::new();
            simulate_source(&net, &mut s, &mut source, requests, rng)
        }
        StrategyKind::Proximity { radius, d } => {
            let mut s = ProximityChoice::with_choices(radius, d);
            simulate_source(&net, &mut s, &mut source, requests, rng)
        }
    };
    RunOut {
        max_load: report.max_load() as f64,
        cost: report.comm_cost(),
        fallback: report.fallback_fraction(),
    }
}

/// Averaged outcome of one sweep point.
#[derive(Clone, Debug)]
pub struct PointSummary {
    /// Maximum-load statistics across runs.
    pub max_load: Summary,
    /// Communication-cost statistics across runs.
    pub cost: Summary,
    /// Fallback-fraction statistics across runs.
    pub fallback: Summary,
}

/// Sweep `(NetPoint, StrategyKind, WorkloadSpec)` triples in parallel —
/// the workload-aware twin of [`sweep_points`], sharing the same
/// deterministic `(seed, point, run)` derivation.
pub fn sweep_workload_points(
    points: &[(NetPoint, StrategyKind, WorkloadSpec)],
    runs: usize,
    seed: u64,
) -> Vec<PointSummary> {
    let outcomes = paba_mcrunner::sweep(points, runs, seed, None, true, |p, _run, rng| {
        run_once_workload(&p.0, p.1, &p.2, rng)
    });
    outcomes
        .iter()
        .map(|o| PointSummary {
            max_load: o.summarize(|r| r.max_load),
            cost: o.summarize(|r| r.cost),
            fallback: o.summarize(|r| r.fallback),
        })
        .collect()
}

/// Sweep a set of `(NetPoint, StrategyKind)` configurations in parallel.
pub fn sweep_points(
    points: &[(NetPoint, StrategyKind)],
    runs: usize,
    seed: u64,
) -> Vec<PointSummary> {
    let outcomes = paba_mcrunner::sweep(points, runs, seed, None, true, |p, _run, rng| {
        run_once(&p.0, p.1, rng)
    });
    outcomes
        .iter()
        .map(|o| PointSummary {
            max_load: o.summarize(|r| r.max_load),
            cost: o.summarize(|r| r.cost),
            fallback: o.summarize(|r| r.fallback),
        })
        .collect()
}

/// Print the standard bench header.
pub fn header(name: &str, paper_ref: &str, cfg: &EnvCfg, runs: usize) {
    println!("\n## {name}");
    println!();
    println!(
        "Reproduces {paper_ref} -- seed {}, {} runs/point, scale {:?}.",
        cfg.seed, runs, cfg.scale
    );
    println!();
}

/// Print a table to stdout and save its CSV under `target/paba-results/`.
pub fn emit(name: &str, table: &Table) {
    print!("{}", table.to_markdown());
    println!();
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(table.to_csv().as_bytes());
            println!("(CSV: {})", path.display());
            println!();
        }
    }
}

/// Directory where CSV results are written: `<workspace>/target/paba-results`
/// (or under `CARGO_TARGET_DIR` when redirected).
pub fn results_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // Bench binaries run with the package as cwd; anchor at the
            // workspace root (two levels above this crate's manifest).
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("target")
        });
    target.join("paba-results")
}

/// Geometric-ish ladder of torus sides between `lo` and `hi` (inclusive),
/// `count` points.
pub fn side_ladder(lo: u32, hi: u32, count: usize) -> Vec<u32> {
    assert!(count >= 2 && hi > lo && lo >= 2);
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let mut sides: Vec<u32> = (0..count)
        .map(|i| {
            let t = i as f64 / (count - 1) as f64;
            (llo + t * (lhi - llo)).exp().round() as u32
        })
        .collect();
    sides.dedup();
    sides
}

/// Format a mean ± 95% CI pair compactly.
pub fn pm(s: &Summary) -> String {
    format!("{:.3} ± {:.3}", s.mean, 1.96 * s.std_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn run_once_produces_sane_metrics() {
        let p = NetPoint::uniform(8, 16, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = run_once(&p, StrategyKind::Nearest, &mut rng);
        assert!(out.max_load >= 1.0);
        assert!(out.cost >= 0.0);
        let out2 = run_once(&p, StrategyKind::two_choice(Some(2)), &mut rng);
        assert!(out2.max_load >= 1.0);
    }

    #[test]
    fn sweep_points_shapes() {
        let pts = vec![
            (NetPoint::uniform(5, 10, 1), StrategyKind::Nearest),
            (NetPoint::uniform(5, 10, 2), StrategyKind::two_choice(None)),
        ];
        let res = sweep_points(&pts, 5, 3);
        assert_eq!(res.len(), 2);
        for s in &res {
            assert_eq!(s.max_load.count, 5);
        }
    }

    #[test]
    fn side_ladder_monotone() {
        let l = side_ladder(10, 55, 10);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*l.first().unwrap(), 10);
        assert_eq!(*l.last().unwrap(), 55);
    }

    #[test]
    fn strategy_labels() {
        assert!(StrategyKind::Nearest.label().contains("Strategy I"));
        assert!(StrategyKind::two_choice(Some(4)).label().contains("r=4"));
    }
}
