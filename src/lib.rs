//! # paba — Proximity-Aware Balanced Allocations in Cache Networks
//!
//! A complete Rust reproduction of Pourmiri, Jafari Siavoshani &
//! Shariatpanahi, *"Proximity-Aware Balanced Allocations in Cache
//! Networks"* (IPDPS 2017, arXiv:1610.05961): a cache network of `n`
//! servers on a torus, each holding `M` files from a `K`-file library, and
//! two request-routing strategies —
//!
//! * **Strategy I** ([`core::NearestReplica`]): route to the nearest
//!   replica. Minimum communication cost `Θ(√(K/M))`, but maximum load
//!   `Θ(log n)`.
//! * **Strategy II** ([`core::ProximityChoice`]): route to the
//!   lesser-loaded of two random replicas within distance `r`. In the
//!   paper's regimes, maximum load drops exponentially to
//!   `Θ(log log n)` while cost stays `Θ(r)`.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `paba-core` | cache network, strategies, Voronoi, configuration graph, goodness |
//! | [`topology`] | `paba-topology` | torus metric, balls, rings, CSR graphs |
//! | [`popularity`] | `paba-popularity` | Uniform/Zipf profiles, alias sampling |
//! | [`ballsbins`] | `paba-ballsbins` | one/two/d-choice, graph-based two-choice baselines |
//! | [`theory`] | `paba-theory` | the paper's closed-form predictions |
//! | [`mcrunner`] | `paba-mcrunner` | deterministic parallel Monte-Carlo driver |
//! | [`repro`] | `paba-repro` | theorem-gated reproduction suite + golden artifacts |
//! | [`supermarket`] | `paba-supermarket` | continuous-time queueing extension (§VI) |
//! | [`workload`] | `paba-workload` | pluggable request sources, trace record/replay |
//! | [`telemetry`] | `paba-telemetry` | zero-overhead recorders, tracing, time series, Chrome-trace export |
//!
//! ## Quickstart
//!
//! ```
//! use paba::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(2017);
//! let net = CacheNetwork::builder()
//!     .torus_side(45)                      // n = 2025 servers
//!     .library(500, Popularity::Uniform)   // K = 500 files
//!     .cache_size(20)                      // M = 20 draws per server
//!     .build(&mut rng);
//!
//! // Strategy I: nearest replica.
//! let mut nearest = NearestReplica::new();
//! let rep1 = simulate(&net, &mut nearest, net.n() as u64, &mut rng);
//!
//! // Strategy II: two choices within radius 8.
//! let mut two = ProximityChoice::two_choice(Some(8));
//! let rep2 = simulate(&net, &mut two, net.n() as u64, &mut rng);
//!
//! println!(
//!     "nearest: L={} C={:.2} | two-choice: L={} C={:.2}",
//!     rep1.max_load(), rep1.comm_cost(), rep2.max_load(), rep2.comm_cost(),
//! );
//! # assert!(rep1.max_load() >= 1 && rep2.max_load() >= 1);
//! ```
//!
//! See `examples/` for runnable scenarios and `paba repro --scale
//! quick|default|full` for the gated reproduction of the paper's
//! theorems, lemmas, examples and figures (the README's *Reproducing the
//! paper* table maps each claim to its gate or test).

pub use paba_ballsbins as ballsbins;
pub use paba_churn as churn;
pub use paba_core as core;
pub use paba_dht as dht;
pub use paba_mcrunner as mcrunner;
pub use paba_popularity as popularity;
pub use paba_repro as repro;
pub use paba_supermarket as supermarket;
pub use paba_telemetry as telemetry;
pub use paba_theory as theory;
pub use paba_topology as topology;
pub use paba_util as util;
pub use paba_workload as workload;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use paba_core::prelude::*;
    pub use paba_core::{
        build_config_graph, GoodnessReport, ProximityChoice, SimReport, VoronoiComputer,
    };
    pub use paba_popularity::Popularity;
    pub use paba_supermarket::{
        simulate_queueing, simulate_queueing_source, QueueSimConfig, SojournHistogram,
    };
    pub use paba_topology::{Topology, Torus};
}
