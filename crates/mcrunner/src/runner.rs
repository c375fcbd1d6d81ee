//! The core parallel runner.

use crate::progress::Progress;
use paba_util::{split_seed, OnlineStats, Summary};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Execute `runs` independent runs of `run_fn` in parallel and return the
/// outputs **in run-index order**.
///
/// * `run_fn(run_index, rng)` receives an RNG deterministically derived
///   from `(master_seed, run_index)`.
/// * `threads = None` uses available parallelism (capped at `runs`).
///
/// Panics in `run_fn` propagate to the caller (via the scoped join).
pub fn run_parallel<O, F>(
    runs: usize,
    master_seed: u64,
    threads: Option<usize>,
    run_fn: F,
) -> Vec<O>
where
    O: Send,
    F: Fn(usize, &mut SmallRng) -> O + Sync,
{
    run_parallel_with_state(
        runs,
        master_seed,
        threads,
        None,
        || (),
        |&(), i, rng| run_fn(i, rng),
    )
    .0
}

/// The runner: [`run_parallel`] with an optional shared [`Progress`]
/// tracker, ticked once per completed run, and with each worker thread's
/// own state built by `init` — e.g. a telemetry recorder — returned
/// alongside the outputs for post-join merging. Every other runner in
/// this crate is built on this one.
///
/// Returns `(outputs, states)`: outputs in **run-index order** (exactly as
/// [`run_parallel`]), states one per effective worker thread in thread
/// order (a single state on the single-threaded path). Determinism of the
/// outputs is untouched — each run's RNG depends only on
/// `(master_seed, run_index)`; the state is for side-channel accumulation
/// whose merge must be order-insensitive (which thread ran which runs
/// *does* vary with the thread count).
pub fn run_parallel_with_state<O, S, I, F>(
    runs: usize,
    master_seed: u64,
    threads: Option<usize>,
    progress: Option<&Progress>,
    init: I,
    run_fn: F,
) -> (Vec<O>, Vec<S>)
where
    O: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&S, usize, &mut SmallRng) -> O + Sync,
{
    if runs == 0 {
        return (Vec::new(), Vec::new());
    }
    let n_threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(runs);

    if n_threads == 1 {
        let state = init();
        let mut out = Vec::with_capacity(runs);
        for i in 0..runs {
            let mut rng = SmallRng::seed_from_u64(split_seed(master_seed, i as u64));
            out.push(run_fn(&state, i, &mut rng));
            if let Some(p) = progress {
                p.tick();
            }
        }
        return (out, vec![state]);
    }

    // Lock-free collection: thread `t` owns the strided index set
    // {t, t + T, t + 2T, …} and its state, and appends into its private
    // output vector, so workers never contend on a shared lock. Striding
    // (rather than contiguous chunks) keeps the load balanced when run
    // costs vary systematically with the index, as in flattened sweep
    // grids. Results are interleaved back into run order afterwards;
    // determinism is untouched because each run's RNG depends only on
    // `(master_seed, run_index)`.
    let results: Vec<(Vec<O>, S)> = std::thread::scope(|scope| {
        let run_fn = &run_fn;
        let init = &init;
        let handles: Vec<_> = (0..n_threads)
            .map(|t| {
                scope.spawn(move || {
                    let state = init();
                    let mut local: Vec<O> = Vec::with_capacity(runs.div_ceil(n_threads));
                    let mut i = t;
                    while i < runs {
                        let mut rng = SmallRng::seed_from_u64(split_seed(master_seed, i as u64));
                        local.push(run_fn(&state, i, &mut rng));
                        if let Some(p) = progress {
                            p.tick();
                        }
                        i += n_threads;
                    }
                    (local, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("a Monte-Carlo worker panicked"))
            })
            .collect()
    });

    let (per_thread, states): (Vec<Vec<O>>, Vec<S>) = results.into_iter().unzip();
    let mut iters: Vec<std::vec::IntoIter<O>> =
        per_thread.into_iter().map(Vec::into_iter).collect();
    let outputs = (0..runs)
        .map(|i| {
            iters[i % n_threads]
                .next()
                .unwrap_or_else(|| panic!("run {i} produced no output"))
        })
        .collect();
    (outputs, states)
}

/// Fold an iterator of observations into a [`Summary`] with a fixed
/// (sequential) accumulation order.
pub fn summarize<I: IntoIterator<Item = f64>>(values: I) -> Summary {
    values.into_iter().collect::<OnlineStats>().summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn outputs_in_run_order() {
        let out = run_parallel(100, 7, Some(4), |i, _| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let f = |_i: usize, rng: &mut SmallRng| rng.gen_range(0..1_000_000u64);
        let t1 = run_parallel(257, 99, Some(1), f);
        let t3 = run_parallel(257, 99, Some(3), f);
        let t8 = run_parallel(257, 99, Some(8), f);
        assert_eq!(t1, t3);
        assert_eq!(t1, t8);
    }

    #[test]
    fn different_seeds_differ() {
        let f = |_i: usize, rng: &mut SmallRng| rng.gen::<u64>();
        assert_ne!(run_parallel(16, 1, None, f), run_parallel(16, 2, None, f));
    }

    #[test]
    fn each_run_sees_distinct_rng() {
        let outs = run_parallel(64, 5, Some(2), |_i, rng| rng.gen::<u64>());
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outs.len(), "colliding run RNGs");
    }

    #[test]
    fn zero_runs() {
        let outs: Vec<u32> = run_parallel(0, 0, None, |_, _| 1);
        assert!(outs.is_empty());
    }

    #[test]
    fn run_index_passed_correctly() {
        let outs = run_parallel(50, 3, Some(4), |i, _| i);
        assert_eq!(outs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        let _ = run_parallel(8, 0, Some(2), |i, _| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn with_state_outputs_match_stateless_runner() {
        let f = |_i: usize, rng: &mut SmallRng| rng.gen_range(0..1_000_000u64);
        let plain = run_parallel(257, 99, Some(3), f);
        for threads in [1, 3, 8] {
            let (outs, states) = run_parallel_with_state(
                257,
                99,
                Some(threads),
                None,
                || (),
                |&(), i, rng| f(i, rng),
            );
            assert_eq!(outs, plain, "threads={threads}");
            assert_eq!(states.len(), threads.min(257));
        }
    }

    #[test]
    fn with_state_one_state_per_worker_thread() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Each worker accumulates its stride's run indices in its state;
        // the union across states must be exactly 0..runs.
        let (_, states) = run_parallel_with_state(
            100,
            7,
            Some(4),
            None,
            || AtomicU64::new(0),
            |state, i, _rng| {
                state.fetch_add(i as u64, Ordering::Relaxed);
            },
        );
        assert_eq!(states.len(), 4);
        let sum: u64 = states.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(sum, (0..100u64).sum());
    }

    #[test]
    fn with_state_zero_runs() {
        let (outs, states): (Vec<u32>, Vec<()>) =
            run_parallel_with_state(0, 0, None, None, || (), |&(), _, _| 1);
        assert!(outs.is_empty());
        assert!(states.is_empty());
    }

    #[test]
    fn progress_ticks_once_per_run() {
        let p = Progress::new(120);
        let _ = run_parallel_with_state(120, 1, Some(4), Some(&p), || (), |&(), i, _| i);
        assert_eq!(p.completed(), 120);
    }

    #[test]
    fn with_state_ticks_progress() {
        let p = Progress::new(60);
        let _ = run_parallel_with_state(60, 1, Some(3), Some(&p), || (), |&(), i, _| i);
        assert_eq!(p.completed(), 60);
    }

    #[test]
    fn summarize_basic() {
        let s = summarize([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn heavy_output_type_works() {
        // Outputs with allocation (Vec) cross threads fine.
        let outs = run_parallel(20, 4, Some(4), |i, rng: &mut SmallRng| {
            (0..i).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>()
        });
        for (i, v) in outs.iter().enumerate() {
            assert_eq!(v.len(), i);
        }
    }
}
