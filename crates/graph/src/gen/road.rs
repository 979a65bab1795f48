//! Road-network generator for the high-diameter twins (ER, RC).
//!
//! Europe-osm and RoadCA-net drive the paper's most extreme behaviours:
//! thousands of BFS/SSSP iterations (2,578 / 555 / 5,086 / 675 in Fig. 8),
//! tiny frontiers that never overflow the online filter, and CuSha's
//! 480× SSSP blowup on ER. What matters structurally is (a) near-uniform
//! small degree, and (b) diameter proportional to the grid dimensions.
//!
//! The generator builds a `width × height` grid: a serpentine spanning
//! path guarantees connectivity, each remaining lattice edge appears with
//! probability `edge_keep_prob`, and a small fraction of local diagonal
//! shortcuts mimics real road junctions.

use crate::EdgeList;
use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Road-network (grid) generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct Road {
    /// Grid width (the long axis; diameter grows with `width + height`).
    pub(crate) width: u32,
    /// Grid height.
    pub(crate) height: u32,
    /// Probability of keeping each non-spanning lattice edge.
    pub(crate) edge_keep_prob: f64,
    /// Probability of adding a diagonal shortcut at each cell.
    pub(crate) diagonal_prob: f64,
}

impl Road {
    /// A strip road network sized so that the diameter is roughly
    /// `width + height`.
    pub fn strip(width: u32, height: u32) -> Self {
        Self {
            width,
            height,
            edge_keep_prob: 0.85,
            diagonal_prob: 0.05,
        }
    }

    /// Vertex count (`width * height`).
    pub(crate) fn num_vertices(&self) -> VertexId {
        self.width * self.height
    }

    fn id(&self, x: u32, y: u32) -> VertexId {
        y * self.width + x
    }

    /// Generates the edge list, one direction per road: build it with
    /// [`Graph::undirected_from_edges`](crate::Graph::undirected_from_edges),
    /// which adds the reverse of each.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate grid (either dimension zero).
    pub fn generate(&self, seed: u64) -> EdgeList {
        assert!(self.width > 0 && self.height > 0, "grid must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(self.num_vertices());

        // Serpentine spanning path: row 0 left-to-right, row 1
        // right-to-left, ... guarantees a connected backbone whose length
        // forces the diameter floor.
        for y in 0..self.height {
            for x in 0..self.width.saturating_sub(1) {
                el.push(self.id(x, y), self.id(x + 1, y));
            }
            if y + 1 < self.height {
                let x = if y % 2 == 0 { self.width - 1 } else { 0 };
                el.push(self.id(x, y), self.id(x, y + 1));
            }
        }

        // Probabilistic vertical lattice edges (horizontal ones are all in
        // the backbone already).
        for y in 0..self.height.saturating_sub(1) {
            for x in 0..self.width {
                if rng.gen::<f64>() < self.edge_keep_prob {
                    el.push(self.id(x, y), self.id(x, y + 1));
                }
            }
        }

        // Occasional diagonals.
        for y in 0..self.height.saturating_sub(1) {
            for x in 0..self.width.saturating_sub(1) {
                if rng.gen::<f64>() < self.diagonal_prob {
                    el.push(self.id(x, y), self.id(x + 1, y + 1));
                }
            }
        }

        el.dedup();
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stats, Graph};

    #[test]
    fn deterministic() {
        let g = Road::strip(64, 8);
        assert_eq!(g.generate(3), g.generate(3));
    }

    #[test]
    fn connected_backbone() {
        let g = Graph::undirected_from_edges(Road::strip(40, 5).generate(1));
        let dist = stats::bfs_levels(g.out(), 0);
        assert!(
            dist.iter().all(|&d| d != u32::MAX),
            "grid must be connected"
        );
    }

    #[test]
    fn diameter_scales_with_width() {
        let short = Road::strip(32, 4);
        let long = Road::strip(256, 4);
        let d_short =
            stats::estimate_diameter(Graph::undirected_from_edges(short.generate(2)).out(), 4, 7);
        let d_long =
            stats::estimate_diameter(Graph::undirected_from_edges(long.generate(2)).out(), 4, 7);
        assert!(
            d_long > d_short * 4,
            "diameter must grow with strip length: {d_short} vs {d_long}"
        );
    }

    #[test]
    fn degrees_are_small() {
        let g = Graph::undirected_from_edges(Road::strip(64, 16).generate(5));
        assert!(g.out().max_degree() <= 10);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn degenerate_grid_panics() {
        Road::strip(0, 4).generate(0);
    }
}
