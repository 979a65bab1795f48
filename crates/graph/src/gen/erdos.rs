//! Uniform random graphs (GTgraph "random" twin).
//!
//! The paper's RD graph is a uniform-degree random graph; the evaluation
//! repeatedly notes that "workload balancing brings negligible benefits
//! to uniform-degree graph (RD)" (§7.1). We provide the fixed-out-degree
//! variant (every vertex has exactly `edge_factor` out-edges to uniform
//! targets), which matches GTgraph's random generator behaviour more
//! closely than Erdős–Rényi G(n, p) while remaining O(E).

use crate::EdgeList;
use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform random graph configuration.
#[derive(Clone, Copy, Debug)]
pub struct Erdos {
    /// Vertex count.
    pub(crate) num_vertices: VertexId,
    /// Out-degree of every vertex.
    pub(crate) edge_factor: u32,
}

impl Erdos {
    /// Creates a generator with exactly `edge_factor` out-edges per vertex.
    pub fn new(num_vertices: VertexId, edge_factor: u32) -> Self {
        Self {
            num_vertices,
            edge_factor,
        }
    }

    /// Generates the edge list.
    ///
    /// # Panics
    ///
    /// Panics if the graph has fewer than two vertices (self-loops would
    /// be unavoidable).
    pub fn generate(&self, seed: u64) -> EdgeList {
        assert!(self.num_vertices >= 2, "need at least two vertices");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(self.num_vertices);
        for v in 0..self.num_vertices {
            for _ in 0..self.edge_factor {
                // Re-draw on self-loop; expected iterations ≈ 1.
                let mut d = rng.gen_range(0..self.num_vertices);
                while d == v {
                    d = rng.gen_range(0..self.num_vertices);
                }
                el.push(v, d);
            }
        }
        el.dedup();
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    #[test]
    fn deterministic() {
        let g = Erdos::new(256, 8);
        assert_eq!(g.generate(5), g.generate(5));
    }

    #[test]
    fn degrees_are_near_uniform() {
        let el = Erdos::new(2048, 16).generate(9);
        let csr = Csr::from_edge_list(&el);
        let max = csr.max_degree();
        // Exactly 16 before dedup; duplicates can only lower it.
        assert!(max <= 16);
        let min = (0..csr.num_vertices())
            .map(|v| csr.degree(v))
            .min()
            .unwrap();
        assert!(min >= 12, "uniform degrees should not collapse, min={min}");
    }

    #[test]
    fn no_self_loops() {
        let el = Erdos::new(64, 4).generate(2);
        assert!(el.edges().iter().all(|&(s, d)| s != d));
    }

    #[test]
    #[should_panic(expected = "two vertices")]
    fn tiny_graph_panics() {
        Erdos::new(1, 1).generate(0);
    }
}
