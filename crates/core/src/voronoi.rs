//! Per-file Voronoi tessellations (the paper's Lemma 1 machinery).
//!
//! Under Strategy I, the set `S_j` of nodes caching file `W_j` induces a
//! Voronoi tessellation `V_j` of the torus: each node belongs to the cell
//! of its nearest replica. Lemma 1 bounds the largest cell by
//! `O(K log n / M)` and exhibits a cell of size `Θ(K log n / M)` in the
//! sparse regime — which is exactly why Strategy I's maximum load grows
//! logarithmically.
//!
//! Cells are computed by multi-source BFS with **epoch-stamped** visited
//! buffers (no O(n) clearing between files — the perf-book "workhorse
//! collection" idiom). Boundary ties are broken by BFS arrival order,
//! which is *arbitrary but deterministic*; this is fine for cell-size
//! statistics (the strategies themselves use exact uniform tie-breaking,
//! implemented separately in [`crate::strategy`]).

use paba_topology::{NodeId, Topology};
use paba_util::FxHashMap;
use std::collections::VecDeque;

/// Reusable multi-source BFS engine for Voronoi computations.
#[derive(Clone, Debug)]
pub struct VoronoiComputer {
    n: u32,
    dist: Vec<u32>,
    owner: Vec<NodeId>,
    stamp: Vec<u32>,
    epoch: u32,
    queue: VecDeque<NodeId>,
}

impl VoronoiComputer {
    /// Engine for an `n`-node topology.
    pub fn new(n: u32) -> Self {
        Self {
            n,
            dist: vec![0; n as usize],
            owner: vec![0; n as usize],
            stamp: vec![0; n as usize],
            epoch: 0,
            queue: VecDeque::new(),
        }
    }

    /// Run multi-source BFS from `sources`; afterwards `self.dist` /
    /// `self.owner` are valid for all nodes (every node is reached since
    /// the lattice is connected).
    ///
    /// # Panics
    /// If `sources` is empty or contains an out-of-range node.
    fn bfs<T: Topology>(&mut self, topo: &T, sources: &[NodeId]) {
        assert_eq!(topo.n(), self.n, "topology size mismatch");
        assert!(!sources.is_empty(), "Voronoi needs at least one source");
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: invalidate everything once per 2^32 runs.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.queue.clear();
        for &s in sources {
            assert!(s < self.n, "source {s} out of range");
            if self.stamp[s as usize] != self.epoch {
                self.stamp[s as usize] = self.epoch;
                self.dist[s as usize] = 0;
                self.owner[s as usize] = s;
                self.queue.push_back(s);
            }
        }
        while let Some(u) = self.queue.pop_front() {
            let du = self.dist[u as usize];
            let ou = self.owner[u as usize];
            let (dist, owner, stamp, queue, epoch) = (
                &mut self.dist,
                &mut self.owner,
                &mut self.stamp,
                &mut self.queue,
                self.epoch,
            );
            topo.for_each_neighbor(u, |v| {
                if stamp[v as usize] != epoch {
                    stamp[v as usize] = epoch;
                    dist[v as usize] = du + 1;
                    owner[v as usize] = ou;
                    queue.push_back(v);
                }
            });
        }
    }

    /// Compute the full tessellation snapshot for `sources`.
    pub fn compute<T: Topology>(&mut self, topo: &T, sources: &[NodeId]) -> VoronoiCells {
        self.bfs(topo, sources);
        VoronoiCells {
            owner: self.owner.clone(),
            dist: self.dist.clone(),
            sources: sources.to_vec(),
        }
    }

    /// Compute only per-cell sizes and the maximum cell radius — the
    /// quantities Lemma 1 bounds — without materializing a snapshot.
    ///
    /// Returns `(sizes_by_source, max_cell_radius)`.
    pub fn cell_sizes<T: Topology>(
        &mut self,
        topo: &T,
        sources: &[NodeId],
    ) -> (FxHashMap<NodeId, u32>, u32) {
        self.bfs(topo, sources);
        let mut sizes: FxHashMap<NodeId, u32> = FxHashMap::default();
        // All sources appear (each owns at least itself), including
        // duplicate-free handling of repeated sources.
        for &s in sources {
            sizes.entry(s).or_insert(0);
        }
        let mut max_radius = 0u32;
        for v in 0..self.n as usize {
            *sizes
                .get_mut(&self.owner[v])
                .expect("owner must be a source") += 1;
            max_radius = max_radius.max(self.dist[v]);
        }
        (sizes, max_radius)
    }
}

/// A full Voronoi tessellation snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoronoiCells {
    /// `owner[v]` = the source whose cell contains `v`.
    pub owner: Vec<NodeId>,
    /// `dist[v]` = distance from `v` to its owning source.
    pub dist: Vec<u32>,
    sources: Vec<NodeId>,
}

impl VoronoiCells {
    /// The sources this tessellation was computed from.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Size of each cell, keyed by source.
    pub fn cell_sizes(&self) -> FxHashMap<NodeId, u32> {
        let mut sizes: FxHashMap<NodeId, u32> = FxHashMap::default();
        for &s in &self.sources {
            sizes.entry(s).or_insert(0);
        }
        for &o in &self.owner {
            *sizes.get_mut(&o).expect("owner must be a source") += 1;
        }
        sizes
    }

    /// Size of the largest cell — Lemma 1's `O(K log n / M)` quantity.
    pub fn max_cell_size(&self) -> u32 {
        self.cell_sizes().values().copied().max().unwrap_or(0)
    }

    /// Largest node-to-owner distance — Lemma 1's containment radius
    /// (`O(√(K log n / M))`).
    pub fn max_cell_radius(&self) -> u32 {
        self.dist.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paba_topology::Torus;

    #[test]
    fn single_source_owns_everything() {
        let t = Torus::new(6);
        let mut vc = VoronoiComputer::new(t.n());
        let cells = vc.compute(&t, &[7]);
        assert!(cells.owner.iter().all(|&o| o == 7));
        assert_eq!(cells.max_cell_size(), 36);
        // BFS distance equals the metric distance for every node.
        for v in 0..t.n() {
            assert_eq!(cells.dist[v as usize], t.dist(7, v), "node {v}");
        }
        assert_eq!(cells.max_cell_radius(), t.diameter());
    }

    #[test]
    fn bfs_distance_equals_min_over_sources() {
        let t = Torus::new(7);
        let sources = [0u32, 24, 30];
        let mut vc = VoronoiComputer::new(t.n());
        let cells = vc.compute(&t, &sources);
        for v in 0..t.n() {
            let want = sources.iter().map(|&s| t.dist(s, v)).min().unwrap();
            assert_eq!(cells.dist[v as usize], want, "node {v}");
            // Owner must be one of the nearest sources.
            let o = cells.owner[v as usize];
            assert!(sources.contains(&o));
            assert_eq!(t.dist(o, v), want, "owner of {v} is not nearest");
        }
    }

    #[test]
    fn cells_partition_the_torus() {
        let t = Torus::new(9);
        let sources = [3u32, 40, 41, 77];
        let mut vc = VoronoiComputer::new(t.n());
        let cells = vc.compute(&t, &sources);
        let sizes = cells.cell_sizes();
        assert_eq!(sizes.len(), sources.len());
        let total: u32 = sizes.values().sum();
        assert_eq!(total, t.n());
    }

    #[test]
    fn cell_sizes_fast_path_matches_snapshot() {
        let t = Torus::new(8);
        let sources = [0u32, 9, 54, 33];
        let mut vc = VoronoiComputer::new(t.n());
        let snapshot = vc.compute(&t, &sources);
        let (sizes, radius) = vc.cell_sizes(&t, &sources);
        assert_eq!(sizes, snapshot.cell_sizes());
        assert_eq!(radius, snapshot.max_cell_radius());
    }

    #[test]
    fn epoch_reuse_gives_fresh_results() {
        let t = Torus::new(5);
        let mut vc = VoronoiComputer::new(t.n());
        let a = vc.compute(&t, &[0]);
        let b = vc.compute(&t, &[24]);
        let a2 = vc.compute(&t, &[0]);
        assert_ne!(a.owner, b.owner);
        assert_eq!(a, a2, "recomputation must be stable");
    }

    #[test]
    fn duplicate_sources_are_harmless() {
        let t = Torus::new(5);
        let mut vc = VoronoiComputer::new(t.n());
        let cells = vc.compute(&t, &[3, 3, 18, 3]);
        let sizes = cells.cell_sizes();
        assert_eq!(sizes.len(), 2);
        assert_eq!(sizes.values().sum::<u32>(), 25);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_panic() {
        let t = Torus::new(4);
        let mut vc = VoronoiComputer::new(t.n());
        let _ = vc.compute(&t, &[]);
    }

    #[test]
    fn more_sources_shrink_the_largest_cell() {
        let t = Torus::new(12);
        let mut vc = VoronoiComputer::new(t.n());
        let few = vc.compute(&t, &[0, 77]).max_cell_size();
        let many = vc
            .compute(&t, &[0, 77, 30, 100, 60, 130, 8, 90])
            .max_cell_size();
        assert!(
            many < few,
            "more replicas should shrink cells: {many} vs {few}"
        );
    }
}
