//! Deterministic parallel Monte-Carlo execution.
//!
//! The paper's figures average hundreds to tens of thousands of
//! independent simulation runs per data point. This crate runs those
//! replications across threads with one hard guarantee: **the result is a
//! pure function of `(master_seed, run_index)`** — never of thread count
//! or scheduling. Two design rules deliver that:
//!
//! 1. every run gets its own RNG seeded via
//!    [`paba_util::split_seed`]`(master_seed, run_index)`;
//! 2. per-run outputs are collected *by run index* and folded
//!    sequentially, so floating-point accumulation order is fixed.
//!
//! Work is distributed in fixed strides (thread `t` runs `t, t + T, …`)
//! over `std::thread::scope` scoped threads (no executor dependency, no
//! unsafety) by one runner, [`run_parallel_with_state`]; the other
//! entry points are thin wrappers over it.
//!
//! ```
//! use paba_mcrunner::run_parallel;
//! use rand::Rng;
//!
//! // 100 runs of a toy experiment, any thread count → same outputs.
//! let a = run_parallel(100, 42, Some(1), |_idx, rng| rng.gen::<u64>());
//! let b = run_parallel(100, 42, Some(4), |_idx, rng| rng.gen::<u64>());
//! assert_eq!(a, b);
//! ```

pub mod live;
pub mod progress;
pub mod runner;
pub mod sweep;
pub mod traced;

pub use live::{run_parallel_live, LiveRun};
pub use progress::Progress;
pub use runner::{run_parallel, run_parallel_with_state, summarize};
pub use sweep::{sweep, sweep_summaries, PointSummary, SweepOutcome};
pub use traced::run_parallel_traced;
