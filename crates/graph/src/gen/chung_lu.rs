//! Chung-Lu power-law generator for social-network twins.
//!
//! Social networks (FB, LJ, OR, PK, TW in Table 3) have heavy-tailed
//! degree distributions; the evaluation's workload-imbalance effects (one
//! Twitter thread "can reap more than 4,096 active vertices", §4) are a
//! direct consequence of that skew. The Chung-Lu model reproduces an
//! arbitrary expected-degree sequence: we draw degrees from a bounded
//! Pareto (power-law) distribution with exponent `alpha` and then sample
//! endpoints proportional to degree weight.

use crate::EdgeList;
use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chung-Lu power-law configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChungLu {
    /// Vertex count.
    pub(crate) num_vertices: VertexId,
    /// Average directed edges per vertex.
    pub(crate) edge_factor: u32,
    /// Power-law exponent of the expected-degree sequence. Lower values
    /// are heavier-tailed; social graphs sit in `1.7..=2.2`.
    pub(crate) alpha: f64,
    /// Cap on a single vertex's expected degree, as a fraction of the
    /// total edge count. Twitter-class graphs use a high cap; capping low
    /// flattens hubs (used for graphs like LiveJournal).
    pub(crate) max_degree_fraction: f64,
}

impl ChungLu {
    /// A social-network preset with the given size and skew exponent.
    #[cfg(test)]
    pub(crate) fn social(num_vertices: VertexId, edge_factor: u32, alpha: f64) -> Self {
        Self {
            num_vertices,
            edge_factor,
            alpha,
            max_degree_fraction: 0.01,
        }
    }

    /// Generates the edge list.
    pub(crate) fn generate(&self, seed: u64) -> EdgeList {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.num_vertices as usize;
        let m = n as u64 * self.edge_factor as u64;

        // Expected-degree sequence: bounded Pareto via inverse transform.
        // F^-1(u) = xmin * (1 - u)^(-1/(alpha-1)).
        let xmin = 1.0f64;
        let cap = (m as f64 * self.max_degree_fraction).max(4.0);
        let mut weights = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for _ in 0..n {
            let u: f64 = rng.gen();
            let w = (xmin * (1.0 - u).powf(-1.0 / (self.alpha - 1.0))).min(cap);
            weights.push(w);
            total += w;
        }

        // Cumulative table for O(log n) weighted endpoint sampling.
        let mut cum = Vec::with_capacity(n + 1);
        cum.push(0.0f64);
        for &w in &weights {
            let last = *cum.last().expect("cum is non-empty");
            cum.push(last + w);
        }

        let sample = |rng: &mut StdRng| -> VertexId {
            let r = rng.gen::<f64>() * total;
            // partition_point: first index with cum[i] > r, minus one.
            let idx = cum.partition_point(|&c| c <= r);
            (idx.saturating_sub(1)).min(n - 1) as VertexId
        };

        let mut edges = Vec::with_capacity(m as usize);
        for _ in 0..m {
            let s = sample(&mut rng);
            let d = sample(&mut rng);
            edges.push((s, d));
        }
        let mut el = if el_needs_padding(&edges, self.num_vertices) {
            let mut out = EdgeList::new(self.num_vertices);
            for (s, d) in edges {
                out.push(s, d);
            }
            out
        } else {
            EdgeList::from_pairs(edges)
        };
        el.dedup();
        el
    }
}

fn el_needs_padding(edges: &[(VertexId, VertexId)], n: VertexId) -> bool {
    edges
        .iter()
        .map(|&(s, d)| s.max(d))
        .max()
        .is_none_or(|top| top + 1 < n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    #[test]
    fn deterministic() {
        let g = ChungLu::social(1000, 8, 2.0);
        assert_eq!(g.generate(7), g.generate(7));
    }

    #[test]
    fn respects_vertex_count() {
        let el = ChungLu::social(500, 4, 2.1).generate(1);
        assert_eq!(el.num_vertices(), 500);
    }

    #[test]
    fn heavy_tail_present() {
        let el = ChungLu::social(4000, 16, 1.8).generate(11);
        let csr = Csr::from_edge_list(&el);
        let max = csr.max_degree() as f64;
        let avg = csr.num_edges() as f64 / csr.num_vertices() as f64;
        assert!(
            max > avg * 10.0,
            "expected hub degree >> average: max={max}, avg={avg}"
        );
    }

    #[test]
    fn lower_alpha_is_more_skewed() {
        // Skew metric: share of edge endpoints carried by the top 1% of
        // vertices. (Raw max degree is not monotone in alpha here: at
        // very heavy tails the hub's sampled partners concentrate on
        // other hubs, so `dedup` collapses most of its multi-edges and
        // the post-dedup max can *fall* while the tail mass rises.)
        let skew = |alpha: f64| {
            // Disable the hub cap so the tail difference is visible.
            let cfg = ChungLu {
                num_vertices: 4000,
                edge_factor: 16,
                alpha,
                max_degree_fraction: 1.0,
            };
            let csr = Csr::from_edge_list(&cfg.generate(3));
            let n = csr.num_vertices();
            let mut degs: Vec<u32> = (0..n).map(|v| csr.degree(v)).collect();
            degs.sort_unstable_by(|a, b| b.cmp(a));
            let top: u64 = degs[..n as usize / 100].iter().map(|&d| d as u64).sum();
            top as f64 / degs.iter().map(|&d| d as u64).sum::<u64>() as f64
        };
        assert!(skew(1.7) > skew(2.4));
    }
}
