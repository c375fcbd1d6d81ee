//! Benchmark of the paba workspace: three seeded workloads, each run with
//! tracing off for the end-to-end metrics, or traced for the per-layer
//! split. See `README.md` in this directory for the workloads, the metric
//! definitions, and which layer metric should move which end-to-end one.

pub mod calib;
pub mod churn_repair;
pub mod compare;
pub mod layers;
pub mod measure;
pub mod queue_hot;
pub mod spec;
pub mod static_zipf;

pub use measure::{Metric, Outcome};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["static-zipf", "queue-hot", "churn-repair"];

/// A known slowdown injected through a public-API wrapper (the negative
/// control). The default injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Inject {
    /// Busy-wait this long before every `static-zipf` assignment.
    pub assign_spin_ns: u64,
    /// `Some(m)`: run `churn-repair`'s untraced request loop through the
    /// public `ChurnEngine` calls, adding `m` no-op `mutate_placement`
    /// calls after every schedule event, so that `Some(0)` is the same
    /// loop without the slowdown. `None` runs `simulate_churn`.
    pub mutations_per_event: Option<u32>,
}

/// How long and on what inputs one run measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement time; repetitions continue until it has passed.
    pub seconds: f64,
    pub inject: Inject,
}

impl Plan {
    pub fn new(seed: u64, seconds: f64) -> Self {
        Self {
            seed,
            seconds,
            inject: Inject::default(),
        }
    }
}

/// Run `workload`; `trace` selects the per-layer run.
pub fn run(workload: &str, plan: &Plan, trace: bool) -> Result<Outcome, String> {
    let outcome = match (workload, trace) {
        ("static-zipf", false) => static_zipf::untraced(plan),
        ("static-zipf", true) => static_zipf::traced(plan),
        ("queue-hot", false) => queue_hot::untraced(plan),
        ("queue-hot", true) => queue_hot::traced(plan),
        ("churn-repair", false) => churn_repair::untraced(plan),
        ("churn-repair", true) => churn_repair::traced(plan),
        _ => {
            return Err(format!(
                "unknown workload '{workload}' (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(outcome)
}
