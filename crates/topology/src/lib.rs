//! Network topologies for the cache-network model of Pourmiri et al.
//! (IPDPS 2017).
//!
//! The paper places `n` caching servers on a `√n × √n` grid and, per its
//! Remark 1, analyses the **torus** (wrap-around grid) to avoid boundary
//! effects. This crate provides the torus, behind the [`Topology`] trait
//! that the strategies are generic over:
//!
//! * [`Torus`] — exact L1-with-wraparound metric, O(1) distance, exact ball
//!   `B_r(u)` and ring (distance-exactly-`d`) enumeration valid for *all*
//!   radii including the self-wrapping regime `2r ≥ side`, and uniform
//!   sampling inside balls.
//! * [`CsrGraph`] — compressed-sparse-row adjacency used for the paper's
//!   *configuration graph* `H` (Definition 4) and for the
//!   Kenthapadi–Panigrahi balanced-allocation baseline (Theorem 5), plus
//!   generators for circulant and complete graphs.
//!
//! Node identifiers are `u32` throughout (`side ≤ 46340`, i.e. up to ~2·10⁹
//! nodes — far beyond anything the experiments sweep).

pub mod coords;
pub mod graph;
pub mod regular;
pub mod topology;
pub mod torus;

pub use coords::{wrapped_delta, Coord};
pub use graph::{CsrGraph, DegreeStats, GraphBuilder};
pub use regular::{circulant_graph, complete_graph};
pub use topology::Topology;
pub use torus::Torus;

/// Node identifier: an index in `0..n`.
pub type NodeId = u32;
