//! Continuous-time queueing ("supermarket model") serving engine.
//!
//! The paper's §VI conjectures that its static balls-into-bins results
//! carry over to the dynamic setting where requests arrive as a Poisson
//! process and servers drain FIFO queues with exponential service — the
//! supermarket model of Mitzenmacher \[6\] and the survey \[31\]. This
//! crate implements that model as a discrete-event simulation **reusing
//! the exact dispatch logic of `paba-core`'s strategies** (a queue-length
//! vector is handed to [`paba_core::Strategy::assign`] as the load
//! vector), so the static and dynamic experiments exercise the same
//! decision code:
//!
//! * Poisson arrivals of total rate `λ·n` (`λ < 1`), origin/file pairs
//!   drawn from any [`paba_core::RequestSource`] — the paper's baseline
//!   i.i.d. workload or any `paba-workload` family (flash crowds, skewed
//!   origins, drifting popularity, trace replay);
//! * each server is an M/M/1 FIFO queue with unit service rate;
//! * dispatch = any [`paba_core::Strategy`] (nearest replica, proximity
//!   `d`-choice, stale-load wrappers, …) evaluated against instantaneous
//!   queue lengths;
//! * measurements over `[warmup, horizon)` with one shared boundary
//!   predicate: time-averaged queue-length tail `Pr[Q ≥ k]`, windowed
//!   maximum queue (transient peak reported separately), per-job sojourn
//!   times folded into bounded-error p50/p99/p999 quantiles
//!   ([`SojournHistogram`]), Little's-law-checked response times,
//!   communication cost, and an optional strided
//!   [`paba_telemetry::LoadSeries`] queue-length trajectory.
//!
//! The classic predictions the benches compare against: random dispatch
//! gives tail `λ^k`; two-choice dispatch gives the doubly-exponential
//! `λ^(2^k − 1)` — the queueing analogue of `log log n` balance.

mod event;
pub mod report;
pub mod sim;
pub mod sojourn;
mod state;

pub use report::QueueReport;
pub use sim::{simulate_queueing, simulate_queueing_source, QueueSimConfig};
pub use sojourn::SojournHistogram;
