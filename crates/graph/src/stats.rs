//! Structural statistics: BFS levels, diameter estimation and degree
//! skew.
//!
//! The evaluation harness uses these to verify that each synthetic twin
//! lands in the right structural class (Table 3 reports vertex/edge
//! counts and the text reports diameter classes: road graphs 555–2,570,
//! medium 10–30, the rest below 10).

use crate::csr::Csr;
use crate::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-level BFS distances from `src`; unreachable vertices get `u32::MAX`.
pub fn bfs_levels(csr: &Csr, src: VertexId) -> Vec<u32> {
    let n = csr.num_vertices() as usize;
    let mut dist = vec![u32::MAX; n];
    if n == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    let mut frontier = vec![src];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in csr.neighbors(v) {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = level;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Estimates the diameter by running BFS from `samples` random sources
/// (plus the eccentricity-doubling heuristic: re-run from the farthest
/// vertex found). Returns the largest finite distance observed.
pub fn estimate_diameter(csr: &Csr, samples: u32, seed: u64) -> u32 {
    let n = csr.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = 0u32;
    // Always include the max-degree vertex: on skewed directed graphs a
    // random source frequently has no out-edges at all.
    let hub = (0..n).max_by_key(|&v| csr.degree(v)).unwrap_or(0);
    for sample in 0..samples.max(1) {
        let src = if sample == 0 {
            hub
        } else {
            rng.gen_range(0..n)
        };
        let dist = bfs_levels(csr, src);
        let (far, ecc) = farthest(&dist);
        best = best.max(ecc);
        // Sweep again from the periphery; on road networks this roughly
        // doubles the estimate toward the true diameter.
        let dist2 = bfs_levels(csr, far);
        best = best.max(farthest(&dist2).1);
    }
    best
}

fn farthest(dist: &[u32]) -> (VertexId, u32) {
    let mut far = 0u32;
    let mut ecc = 0u32;
    for (v, &d) in dist.iter().enumerate() {
        if d != u32::MAX && d >= ecc {
            ecc = d;
            far = v as VertexId;
        }
    }
    (far, ecc)
}

/// The Gini coefficient of the degree distribution — a single-number skew
/// measure (0 = perfectly uniform, → 1 = all edges on one hub).
pub fn degree_gini(csr: &Csr) -> f64 {
    let n = csr.num_vertices() as usize;
    if n == 0 {
        return 0.0;
    }
    let mut degs: Vec<u64> = (0..csr.num_vertices())
        .map(|v| csr.degree(v) as u64)
        .collect();
    degs.sort_unstable();
    let total: u64 = degs.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut weighted = 0u128;
    for (i, &d) in degs.iter().enumerate() {
        weighted += (i as u128 + 1) * d as u128;
    }
    let g = (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64;
    g.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeList, Graph};

    fn path(n: u32) -> Csr {
        let el = EdgeList::from_pairs((0..n - 1).map(|i| (i, i + 1)).collect());
        Graph::undirected_from_edges(el).out().clone()
    }

    #[test]
    fn bfs_levels_on_path() {
        let csr = path(5);
        assert_eq!(bfs_levels(&csr, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_levels(&csr, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let el = EdgeList::from_pairs(vec![(0, 1)]);
        let mut padded = EdgeList::new(3);
        for &(s, d) in el.edges() {
            padded.push(s, d);
        }
        let g = Graph::undirected_from_edges(padded);
        let dist = bfs_levels(g.out(), 0);
        assert_eq!(dist[2], u32::MAX);
    }

    #[test]
    fn diameter_of_path_is_exact_via_double_sweep() {
        let csr = path(100);
        assert_eq!(estimate_diameter(&csr, 1, 42), 99);
    }

    #[test]
    fn gini_uniform_vs_star() {
        let uniform = path(64);
        let star = {
            let el = EdgeList::from_pairs((1..64).map(|i| (0, i)).collect());
            Graph::undirected_from_edges(el).out().clone()
        };
        assert!(degree_gini(&star) > degree_gini(&uniform) + 0.3);
    }

    #[test]
    fn empty_graph_stats() {
        let csr = Csr::from_edge_list(&EdgeList::new(0));
        assert_eq!(estimate_diameter(&csr, 2, 0), 0);
        assert_eq!(degree_gini(&csr), 0.0);
    }
}
