//! R-MAT and Graph500 Kronecker generators.
//!
//! The paper uses the Graph500 generator for Kron24 and GTgraph for the
//! R-MAT and random graphs (§6). Both are recursive-matrix generators:
//! each edge picks one of four quadrants with probabilities `(a, b, c, d)`
//! at every one of `scale` recursion levels. Kronecker graphs are R-MAT
//! with the Graph500 parameters `a=0.57, b=0.19, c=0.19` and endpoint
//! noise, which we include for both.

use crate::EdgeList;
use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Recursive-matrix (R-MAT) generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct Rmat {
    /// `log2` of the vertex count.
    pub(crate) scale: u32,
    /// Average directed edges per vertex (edge factor).
    pub(crate) edge_factor: u32,
    /// Quadrant probabilities; `d` is implied as `1 - a - b - c`.
    pub(crate) a: f64,
    /// Upper-right quadrant probability.
    pub(crate) b: f64,
    /// Lower-left quadrant probability.
    pub(crate) c: f64,
    /// Perturb quadrant probabilities per level (Graph500-style noise),
    /// which avoids the "staircase" degree artifacts of plain R-MAT.
    pub(crate) noise: f64,
}

impl Rmat {
    /// Graph500 Kronecker parameters at the given scale.
    #[cfg(test)]
    pub(crate) fn kronecker(scale: u32, edge_factor: u32) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
        }
    }

    /// Classic GTgraph R-MAT parameters (a=0.45, b=0.15, c=0.15).
    pub fn gtgraph(scale: u32, edge_factor: u32) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.45,
            b: 0.15,
            c: 0.15,
            noise: 0.0,
        }
    }

    /// Number of vertices this configuration produces.
    pub(crate) fn num_vertices(&self) -> VertexId {
        1u32 << self.scale
    }

    /// Generates the edge list.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are malformed (`a + b + c >= 1` is
    /// required to leave room for quadrant `d`).
    pub fn generate(&self, seed: u64) -> EdgeList {
        assert!(
            self.a + self.b + self.c < 1.0 + 1e-9,
            "quadrant probabilities must leave room for d"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.num_vertices();
        let m = n as u64 * self.edge_factor as u64;
        let mut edges = Vec::with_capacity(m as usize);
        for _ in 0..m {
            edges.push(self.one_edge(&mut rng));
        }
        let mut el = EdgeList::from_pairs(edges);
        // Force the vertex-count invariant even if the top ID was unused.
        if el.num_vertices() < n {
            el = pad_vertices(el, n);
        }
        el.dedup();
        el
    }

    /// Draws a single edge by recursive quadrant descent.
    fn one_edge(&self, rng: &mut StdRng) -> (VertexId, VertexId) {
        let mut src = 0u32;
        let mut dst = 0u32;
        for level in 0..self.scale {
            let bit = 1u32 << (self.scale - 1 - level);
            // Per-level multiplicative noise, renormalized.
            let (mut a, mut b, mut c) = (self.a, self.b, self.c);
            if self.noise > 0.0 {
                let jitter = |rng: &mut StdRng, p: f64, noise: f64| {
                    p * (1.0 - noise + 2.0 * noise * rng.gen::<f64>())
                };
                a = jitter(rng, a, self.noise);
                b = jitter(rng, b, self.noise);
                c = jitter(rng, c, self.noise);
                let d = (1.0 - self.a - self.b - self.c)
                    * (1.0 - self.noise + 2.0 * self.noise * rng.gen::<f64>());
                let total = a + b + c + d;
                a /= total;
                b /= total;
                c /= total;
            }
            let r: f64 = rng.gen();
            if r < a {
                // Upper-left: neither bit set.
            } else if r < a + b {
                dst |= bit;
            } else if r < a + b + c {
                src |= bit;
            } else {
                src |= bit;
                dst |= bit;
            }
        }
        (src, dst)
    }
}

/// Rebuilds `el` with an explicit larger vertex count.
fn pad_vertices(el: EdgeList, n: VertexId) -> EdgeList {
    match el.weights() {
        None => {
            let mut out = EdgeList::new(n);
            for &(s, d) in el.edges() {
                out.push(s, d);
            }
            out
        }
        Some(w) => EdgeList::from_weighted(n, el.edges().to_vec(), w.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let g = Rmat::kronecker(8, 4);
        assert_eq!(g.generate(42), g.generate(42));
    }

    #[test]
    fn different_seeds_differ() {
        let g = Rmat::kronecker(8, 4);
        assert_ne!(g.generate(1), g.generate(2));
    }

    #[test]
    fn vertex_count_is_power_of_two() {
        let el = Rmat::gtgraph(7, 8).generate(3);
        assert_eq!(el.num_vertices(), 128);
    }

    #[test]
    fn edge_count_close_to_target_after_dedup() {
        let g = Rmat::gtgraph(10, 8);
        let el = g.generate(9);
        let target = 1024 * 8;
        // Dedup removes duplicates/self-loops; skewed R-MAT loses some but
        // should retain well over half.
        assert!(el.num_edges() > target / 2, "kept {}", el.num_edges());
        assert!(el.num_edges() <= target);
    }

    #[test]
    fn kronecker_is_skewed() {
        // Quadrant-a bias concentrates edges on low IDs: the top 1% of
        // vertices should hold a disproportionate share of out-edges.
        let el = Rmat::kronecker(10, 16).generate(5);
        let csr = crate::Csr::from_edge_list(&el);
        let mut degs: Vec<u32> = (0..csr.num_vertices()).map(|v| csr.degree(v)).collect();
        degs.sort_unstable_by(|x, y| y.cmp(x));
        let top: u64 = degs.iter().take(degs.len() / 100).map(|&d| d as u64).sum();
        let total: u64 = degs.iter().map(|&d| d as u64).sum();
        assert!(
            top * 10 > total,
            "top 1% holds {top}/{total}, expected > 10%"
        );
    }

    #[test]
    #[should_panic(expected = "room for d")]
    fn bad_probabilities_panic() {
        let g = Rmat {
            scale: 4,
            edge_factor: 1,
            a: 0.6,
            b: 0.3,
            c: 0.3,
            noise: 0.0,
        };
        g.generate(0);
    }
}
