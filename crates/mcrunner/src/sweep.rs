//! Parameter sweeps: the figure-regeneration workhorse.
//!
//! Every paper figure is a sweep — "max load vs `n` for each cache size
//! `M`". [`sweep`] runs `runs_per_point` Monte-Carlo replications for each
//! parameter point, parallelizing across the **entire** `(point, run)`
//! grid so small points don't leave threads idle, while keeping results
//! grouped per point and deterministic in `(master_seed, point_index,
//! run_index)`.

use crate::runner::run_parallel_with_state;
use paba_util::{mix_seed, Summary};
use rand::rngs::SmallRng;

/// Results of one sweep point: the parameter and its per-run outputs (in
/// run order).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepOutcome<P, O> {
    /// The parameter value of this point.
    pub param: P,
    /// One output per Monte-Carlo run.
    pub outputs: Vec<O>,
}

impl<P, O> SweepOutcome<P, O> {
    /// Summarize a scalar metric extracted from each output.
    pub fn summarize<F: FnMut(&O) -> f64>(&self, metric: F) -> Summary {
        crate::runner::summarize(self.outputs.iter().map(metric))
    }
}

/// Run `runs_per_point` replications of `run_fn` for every point.
///
/// `run_fn(param, run_index, rng)` gets an RNG derived from
/// `(master_seed, point_index, run_index)`: changing the thread count or
/// reordering points never changes any output.
pub fn sweep<P, O, F>(
    points: &[P],
    runs_per_point: usize,
    master_seed: u64,
    threads: Option<usize>,
    run_fn: F,
) -> Vec<SweepOutcome<P, O>>
where
    P: Clone + Sync,
    O: Send,
    F: Fn(&P, usize, &mut SmallRng) -> O + Sync,
{
    let total = points.len() * runs_per_point;
    // Flatten to a single work grid: job i ↦ (point i / runs, run i % runs).
    let (flat, _): (Vec<O>, _) = run_parallel_with_state(
        total,
        master_seed,
        threads,
        None,
        || (),
        |&(), job, _outer_rng| {
            let (pi, ri) = (job / runs_per_point, job % runs_per_point);
            // Re-derive a seed that is stable per (point, run) regardless of
            // how many points/runs other sweeps used.
            let seed = mix_seed(mix_seed(master_seed, pi as u64), ri as u64);
            let mut rng = <SmallRng as rand::SeedableRng>::seed_from_u64(seed);
            run_fn(&points[pi], ri, &mut rng)
        },
    );
    // Regroup by point, preserving run order.
    let mut iter = flat.into_iter();
    points
        .iter()
        .map(|p| SweepOutcome {
            param: p.clone(),
            outputs: iter.by_ref().take(runs_per_point).collect(),
        })
        .collect()
}

/// Per-point summary of a metric-vector sweep: one [`Summary`] per metric
/// column, folded in run order.
#[derive(Clone, Debug, PartialEq)]
pub struct PointSummary<P> {
    /// The parameter value of this point.
    pub param: P,
    /// Number of Monte-Carlo runs folded in.
    pub runs: usize,
    /// One summary per metric column (in `run_fn` emission order).
    pub metrics: Vec<Summary>,
}

/// Seed-streamed variant of [`sweep`] for experiments whose per-run output
/// is a fixed vector of scalar metrics.
///
/// `run_fn(param, run_index, rng, metrics)` runs one replication and writes
/// its `n_metrics` observations into the provided slice (pre-zeroed). Only
/// those scalars cross the thread boundary — the run's heavyweight state
/// (e.g. a per-server load vector) never accumulates, so a sweep over
/// thousands of seeds at large `n` stays O(points × runs × n_metrics) in
/// memory instead of O(points × runs × n).
///
/// Seeding matches [`sweep`] exactly (`(master_seed, point_index,
/// run_index)`), and the per-point fold happens sequentially in run order,
/// so summaries are bit-identical across thread counts.
pub fn sweep_summaries<P, F>(
    points: &[P],
    runs_per_point: usize,
    n_metrics: usize,
    master_seed: u64,
    threads: Option<usize>,
    run_fn: F,
) -> Vec<PointSummary<P>>
where
    P: Clone + Sync,
    F: Fn(&P, usize, &mut SmallRng, &mut [f64]) + Sync,
{
    let outcomes = sweep(
        points,
        runs_per_point,
        master_seed,
        threads,
        |p, run, rng| {
            let mut m = vec![0.0f64; n_metrics];
            run_fn(p, run, rng, &mut m);
            m
        },
    );
    outcomes
        .into_iter()
        .map(|o| {
            let mut acc = vec![paba_util::OnlineStats::new(); n_metrics];
            for run in &o.outputs {
                debug_assert_eq!(run.len(), n_metrics);
                for (stats, &x) in acc.iter_mut().zip(run.iter()) {
                    stats.push(x);
                }
            }
            PointSummary {
                param: o.param,
                runs: o.outputs.len(),
                metrics: acc.iter().map(|s| s.summary()).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn grouping_preserves_point_and_run_order() {
        let points = vec![10u32, 20, 30];
        let res = sweep(&points, 4, 1, Some(3), |p, run, _| (*p, run));
        assert_eq!(res.len(), 3);
        for (i, out) in res.iter().enumerate() {
            assert_eq!(out.param, points[i]);
            assert_eq!(
                out.outputs,
                (0..4).map(|r| (points[i], r)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let points = vec![1u64, 2, 3, 4, 5];
        let f = |p: &u64, _run: usize, rng: &mut SmallRng| *p * rng.gen_range(1..100u64);
        let a = sweep(&points, 7, 42, Some(1), f);
        let b = sweep(&points, 7, 42, Some(8), f);
        assert_eq!(a, b);
    }

    #[test]
    fn point_results_independent_of_other_points() {
        // The same (seed, point-index, run) triple must give the same
        // output whether or not other points exist in the sweep.
        let f = |p: &u64, _run: usize, rng: &mut SmallRng| (*p, rng.gen::<u64>());
        let solo = sweep(&[7u64], 3, 9, Some(2), f);
        let multi = sweep(&[7u64, 8, 9], 3, 9, Some(2), f);
        assert_eq!(solo[0], multi[0]);
    }

    #[test]
    fn summarize_metric() {
        let res = sweep(&[0u32], 100, 5, Some(2), |_, run, _| run as f64);
        let s = res[0].summarize(|&o| o);
        assert_eq!(s.count, 100);
        assert!((s.mean - 49.5).abs() < 1e-9);
    }

    #[test]
    fn empty_points() {
        let res: Vec<SweepOutcome<u32, u32>> = sweep(&[], 10, 1, None, |_, _, _| 0u32);
        assert!(res.is_empty());
    }

    #[test]
    fn zero_runs_per_point() {
        let res = sweep(&[1u32, 2], 0, 1, None, |_, _, _| 0u32);
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|o| o.outputs.is_empty()));
    }

    #[test]
    fn summaries_match_raw_sweep() {
        let points = vec![3u64, 5, 9];
        let raw = sweep(&points, 40, 17, Some(4), |p, _run, rng| {
            let x = rng.gen_range(0..100u64) as f64;
            (x, x * *p as f64)
        });
        let summed = sweep_summaries(&points, 40, 2, 17, Some(4), |p, _run, rng, m| {
            let x = rng.gen_range(0..100u64) as f64;
            m[0] = x;
            m[1] = x * *p as f64;
        });
        assert_eq!(summed.len(), 3);
        for (r, s) in raw.iter().zip(summed.iter()) {
            assert_eq!(r.param, s.param);
            assert_eq!(s.runs, 40);
            assert_eq!(s.metrics.len(), 2);
            let expect0 = r.summarize(|o| o.0);
            let expect1 = r.summarize(|o| o.1);
            assert_eq!(s.metrics[0], expect0);
            assert_eq!(s.metrics[1], expect1);
        }
    }

    #[test]
    fn summaries_deterministic_across_threads() {
        let f = |p: &u32, _run: usize, rng: &mut SmallRng, m: &mut [f64]| {
            m[0] = *p as f64 * rng.gen::<f64>();
        };
        let a = sweep_summaries(&[1u32, 2, 3], 9, 1, 5, Some(1), f);
        let b = sweep_summaries(&[1u32, 2, 3], 9, 1, 5, Some(8), f);
        assert_eq!(a, b);
    }
}
