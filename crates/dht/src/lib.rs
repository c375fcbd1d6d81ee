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
//!   membership change (tested, not just asserted);
//! * [`SuccessorDirectory`] — one fixed ring serving a changing
//!   membership: every key's first `4R` distinct successors with their
//!   live counts and a server → keys index, in flat arrays. A key's first
//!   `R` live successors are its replica set on the ring rebuilt without
//!   the dead servers, a membership change touches only the keys whose
//!   list holds the server that changed, and the server's index names
//!   the keys it replicates (the churn engine's leave handoff and join
//!   refill);
//! * [`dht_placement`] — deterministic cache placement for a
//!   [`paba_core::CacheNetwork`]: each file lands on the `R_j` distinct
//!   successors of its key, with per-file replication proportional to
//!   popularity under a budget of `n·M` copies (the DHT analogue of the
//!   paper's proportional placement).
//!
//! Unlike the paper's i.i.d. placement, DHT placement is *deterministic
//! given the ring*, reproducible across nodes without coordination, and
//! adapts to churn with minimal movement — the properties that make the
//! scheme deployable. `paba simulate --placement dht` compares it with the
//! i.i.d. placement under Strategy I/II.

pub mod directory;
pub mod placement;
pub mod ring;

pub use directory::SuccessorDirectory;
pub use placement::{dht_placement, DhtPlacementConfig};
pub use ring::HashRing;
