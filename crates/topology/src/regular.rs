//! Generators for regular graphs.
//!
//! Kenthapadi & Panigrahi's Theorem 5 — the engine behind the paper's
//! Theorem 4 — concerns balanced allocation on *almost Δ-regular* graphs.
//! These generators provide exactly-regular instances (circulant and
//! complete) so the baseline can be exercised across densities.

use crate::graph::{CsrGraph, GraphBuilder};

/// Circulant graph `C_n(1, 2, …, k)`: node `i` is adjacent to `i ± j (mod
/// n)` for `j = 1..=k`, giving degree `2k` (for `2k < n`).
///
/// This is the standard dense-regular family used to probe the
/// `Δ = n^Ω(log log n / log n)` density threshold of Theorem 5.
///
/// # Panics
/// If `n < 3` or `2k ≥ n`.
pub fn circulant_graph(n: u32, k: u32) -> CsrGraph {
    assert!(n >= 3, "circulant graph needs n ≥ 3");
    assert!(2 * k < n, "circulant offset k={k} too large for n={n}");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for j in 1..=k {
            b.add_edge(v, (v + j) % n);
        }
    }
    b.build()
}

/// The complete graph `K_n` — the `r = ∞`, `M = K` limit in which the
/// paper's Strategy II degenerates to the classic two-choice process.
pub fn complete_graph(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for a in 0..n {
        for bb in (a + 1)..n {
            b.add_edge(a, bb);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circulant_is_regular() {
        let g = circulant_graph(10, 3);
        for v in 0..g.n() {
            assert_eq!(g.degree(v), 6);
        }
        assert_eq!(g.m(), 30);
        assert!(g.is_connected());
    }

    #[test]
    fn circulant_adjacency_structure() {
        let g = circulant_graph(7, 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(0, 5)); // 0 - 2 mod 7
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn complete_graph_shape() {
        let g = complete_graph(6);
        assert_eq!(g.m(), 15);
        for v in 0..6 {
            assert_eq!(g.degree(v), 5);
        }
    }
}
