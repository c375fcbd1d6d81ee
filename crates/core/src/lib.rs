//! # paba-core — Proximity-Aware Balanced Allocations in Cache Networks
//!
//! The primary contribution of Pourmiri, Jafari Siavoshani & Shariatpanahi
//! (IPDPS 2017), implemented as a reusable simulator library:
//!
//! * a **cache network** of `n` servers on a torus/grid, each holding `M`
//!   files drawn i.i.d. with replacement from a `K`-file library according
//!   to a popularity profile ([`CacheNetwork`], [`Placement`]);
//! * **Strategy I** — nearest-replica assignment with exact uniform
//!   tie-breaking ([`NearestReplica`], the paper's Definition 2);
//! * **Strategy II** — proximity-aware two choices: two uniform random
//!   replica holders within the radius-`r` ball of the request origin, the
//!   request joins the lesser-loaded one ([`ProximityChoice`], Definition
//!   3), generalized to `d` choices;
//! * the analysis artefacts of §IV: per-file **Voronoi tessellations**
//!   (Lemma 1), the **configuration graph** `H` (Definition 4), and the
//!   placement **goodness** property (Definition 5 / Lemma 2);
//! * an end-to-end [`simulate`] driver producing [`SimReport`]s with the
//!   paper's two metrics, maximum load `L` and communication cost `C`
//!   (Definition 1).
//!
//! ## Quick example
//!
//! ```
//! use paba_core::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let net = CacheNetwork::builder()
//!     .torus_side(15)          // n = 225 servers
//!     .library(50, Popularity::Uniform)
//!     .cache_size(4)           // M = 4 draws per server
//!     .build(&mut rng);
//!
//! // Strategy II with proximity radius r = 5, n requests:
//! let mut strategy = ProximityChoice::two_choice(Some(5));
//! let report = simulate(&net, &mut strategy, net.n() as u64, &mut rng);
//! assert!(report.max_load() >= 1);
//! assert!(report.comm_cost() <= 10.0); // ≤ 2r by construction (no fallbacks ⇒ ≤ r)
//! ```

pub mod config_graph;
pub mod goodness;
pub mod library;
pub mod metrics;
pub mod network;
pub mod placement;
pub mod request;
pub mod simulate;
pub mod source;
pub mod strategy;
pub mod voronoi;

pub use config_graph::{build_config_graph, ConfigGraphMethod};
pub use goodness::GoodnessReport;
pub use library::Library;
pub use metrics::{FallbackKind, SimReport};
pub use network::{CacheNetwork, CacheNetworkBuilder};
pub use placement::{Placement, PlacementPolicy};
pub use request::{apply_uncached_policy, Request, UncachedPolicy};
pub use simulate::{simulate, simulate_source, simulate_source_profiled};
pub use source::{IidUniform, RequestSource};
pub use strategy::{
    Assignment, LeastLoadedInBall, NearestReplica, PairMode, ProximityChoice, RadiusFallback,
    SamplerKind, StaleLoad, Strategy,
};
pub use voronoi::{VoronoiCells, VoronoiComputer};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::{
        simulate, simulate_source, CacheNetwork, IidUniform, Library, NearestReplica, Placement,
        PlacementPolicy, ProximityChoice, RequestSource, SimReport, Strategy,
    };
    pub use paba_popularity::Popularity;
    pub use paba_topology::{Grid, Topology, Torus};
}
