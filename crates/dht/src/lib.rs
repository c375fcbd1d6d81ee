//! Consistent-hashing (DHT) placement.
//!
//! The paper's §VI notes that "cache content placement at each server can
//! be implemented via efficient Distributed Hash Table (DHT) schemes
//! (see, e.g., \[29\] and \[30\])" — Karger et al.'s consistent hashing and
//! replica placement over it. This crate provides that substrate:
//!
//! * [`HashRing`] — a classic consistent-hash ring over the `u64` key
//!   space with virtual nodes, O(1) expected successor lookup (a
//!   bucket table keyed by the top bits of a ring position), k-distinct-
//!   successor replication, and the minimal-disruption property on
//!   membership change (tested, not just asserted). A membership
//!   predicate turns one fixed ring into the ring of any member subset:
//!   [`HashRing::lookup_replicas_where`] skips the excluded servers, and
//!   [`HashRing::replica_arcs`] names the key arcs a server replicates;
//! * [`dht_placement`] — deterministic cache placement for a
//!   [`paba_core::CacheNetwork`]: each file lands on the `R_j` distinct
//!   successors of its key, with per-file replication either fixed or
//!   proportional to popularity (the DHT analogue of the paper's
//!   proportional placement).
//!
//! Unlike the paper's i.i.d. placement, DHT placement is *deterministic
//! given the ring*, reproducible across nodes without coordination, and
//! adapts to churn with minimal movement — the properties that make the
//! scheme deployable. `paba simulate --placement dht` compares it with the
//! i.i.d. placement under Strategy I/II.

pub mod placement;
pub mod ring;

pub use placement::{dht_placement, DhtPlacementConfig, ReplicationRule};
pub use ring::HashRing;
