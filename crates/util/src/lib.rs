//! Measurement plumbing shared by every crate in the `paba` workspace.
//!
//! This crate is dependency-free (std only) and hosts the small, hot
//! utilities the simulators and the gated suites lean on:
//!
//! * [`hash`] — an FxHash-style 64-bit hasher for integer-keyed maps/sets
//!   (the default SipHash is needlessly slow for `u32`/`u64` node ids).
//! * [`rng`] — SplitMix64 seed derivation so parallel Monte-Carlo runs are
//!   deterministic regardless of thread scheduling.
//! * [`stats`] — Welford online mean/variance and summary types.
//! * [`histogram`] — fixed-bucket integer histograms that merge cheaply.
//! * [`linreg`] — least-squares fits (incl. log–log scaling exponents).
//! * [`table`] — Markdown / CSV table emitters behind every CLI table.
//! * [`envcfg`] — the shared run defaults: master seed and suite
//!   [`envcfg::Scale`].
//! * [`json`] — the two shared JSON emission helpers (`escape`, `num`)
//!   behind every hand-rolled artifact writer, and the reader
//!   (`parse` → `Json`) behind every artifact check.
//! * [`schema`] — the artifact schema identifiers every writer/reader
//!   pair shares.
//! * [`provenance`] — the per-artifact provenance block (seed, config
//!   hash, build profile, wall clock), written and read back by one
//!   shared type.

pub mod envcfg;
pub mod hash;
pub mod histogram;
pub mod json;
pub mod linreg;
pub mod provenance;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod table;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use histogram::Histogram;
pub use linreg::{fit_line, fit_loglog, LineFit};
pub use provenance::Provenance;
pub use rng::{mix64, mix_seed, split_seed, SplitMix64};
pub use stats::{OnlineStats, Summary};
pub use table::{Align, Table};
