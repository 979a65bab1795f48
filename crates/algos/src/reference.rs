//! Sequential reference implementations used to validate every ACC
//! program. These are deliberately simple, textbook versions — the
//! ground truth the simulated engine must reproduce bit-for-bit (BFS,
//! SSSP, k-Core, WCC) or within floating-point tolerance (PageRank, and
//! the test-only BP and SpMV oracles).

use simdx_graph::csr::Csr;
use simdx_graph::{Graph, VertexId};
use std::collections::BinaryHeap;

/// Sentinel for unreachable vertices in BFS and SSSP outputs.
pub(crate) const UNREACHED: u32 = u32::MAX;

/// Level-synchronous BFS distances from `src`.
pub fn bfs(csr: &Csr, src: VertexId) -> Vec<u32> {
    simdx_graph::stats::bfs_levels(csr, src)
}

/// Dijkstra shortest-path distances from `src`.
pub fn sssp(csr: &Csr, src: VertexId) -> Vec<u32> {
    let n = csr.num_vertices() as usize;
    let mut dist = vec![UNREACHED; n];
    if n == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    // Max-heap of Reverse'd (dist, vertex) pairs.
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, VertexId)>> = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0, src)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        let ws = csr.neighbor_weights(v);
        for (i, &u) in csr.neighbors(v).iter().enumerate() {
            let w = ws.map_or(1, |ws| ws[i]);
            let nd = d.saturating_add(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(std::cmp::Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Jacobi PageRank over the pull (in-neighbor) orientation, with
/// damping `d`, run until no rank moves by more than `eps` or
/// `max_iters` is reached. Returns the rank vector.
pub fn pagerank(graph: &Graph, d: f32, eps: f32, max_iters: u32) -> Vec<f32> {
    let n = graph.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let out = graph.out();
    let in_ = graph.in_();
    let base = (1.0 - d) / n as f32;
    let inv_deg: Vec<f32> = (0..n as VertexId)
        .map(|v| {
            let deg = out.degree(v);
            if deg == 0 {
                0.0
            } else {
                1.0 / deg as f32
            }
        })
        .collect();
    let mut rank = vec![1.0f32 / n as f32; n];
    for _ in 0..max_iters {
        let mut moved = false;
        let mut next = vec![0.0f32; n];
        for v in 0..n as VertexId {
            let mut sum = 0.0f32;
            for &u in in_.neighbors(v) {
                sum += rank[u as usize] * inv_deg[u as usize];
            }
            let r = base + d * sum;
            if (r - rank[v as usize]).abs() > eps {
                moved = true;
                next[v as usize] = r;
            } else {
                next[v as usize] = rank[v as usize];
            }
        }
        rank = next;
        if !moved {
            break;
        }
    }
    rank
}

/// Sequential k-core peeling: returns `true` per vertex that survives
/// the k-core.
///
/// Degrees are taken in the *in*-orientation and deletions propagate
/// along *out*-edges (deleting `u` removes the in-edge `(u, v)` from
/// every out-neighbor `v`), which is self-consistent on directed graphs
/// and coincides with plain degree peeling on undirected ones.
pub fn kcore(graph: &Graph, k: u32) -> Vec<bool> {
    let n = graph.num_vertices() as usize;
    let out = graph.out();
    let in_ = graph.in_();
    let mut deg: Vec<u32> = (0..n as VertexId).map(|v| in_.degree(v)).collect();
    let mut alive = vec![true; n];
    let mut queue: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| deg[v as usize] < k)
        .collect();
    for &v in &queue {
        alive[v as usize] = false;
    }
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &u in out.neighbors(v) {
            if alive[u as usize] {
                deg[u as usize] -= 1;
                if deg[u as usize] < k {
                    alive[u as usize] = false;
                    queue.push(u);
                }
            }
        }
    }
    alive
}

/// Label-propagation connected components over the out-orientation
/// (weakly connected when the CSR is symmetric). Returns the minimum
/// reachable label per vertex at fixpoint.
pub fn wcc(csr: &Csr) -> Vec<u32> {
    let n = csr.num_vertices() as usize;
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n as VertexId {
            let lv = label[v as usize];
            for &u in csr.neighbors(v) {
                if lv < label[u as usize] {
                    label[u as usize] = lv;
                    changed = true;
                }
            }
        }
    }
    label
}

/// Reference belief propagation: damped, weight-normalized belief
/// averaging over in-neighbors (the simplified sum-product variant the
/// BP program implements; see `crate::bp`). Runs exactly `rounds`
/// Jacobi rounds.
#[cfg(test)]
pub(crate) fn belief_propagation(
    graph: &Graph,
    priors: &[f32],
    lambda: f32,
    rounds: u32,
) -> Vec<f32> {
    let n = graph.num_vertices() as usize;
    assert_eq!(priors.len(), n, "one prior per vertex");
    let in_ = graph.in_();
    let mut belief = priors.to_vec();
    for _ in 0..rounds {
        let mut next = vec![0.0f32; n];
        for v in 0..n as VertexId {
            let ws = in_.neighbor_weights(v);
            let mut acc = 0.0f32;
            let mut wsum = 0.0f32;
            for (i, &u) in in_.neighbors(v).iter().enumerate() {
                let w = ws.map_or(1, |ws| ws[i]) as f32;
                acc += w * belief[u as usize];
                wsum += w;
            }
            next[v as usize] = if wsum > 0.0 {
                (1.0 - lambda) * priors[v as usize] + lambda * acc / wsum
            } else {
                priors[v as usize]
            };
        }
        belief = next;
    }
    belief
}

/// Sparse matrix-vector product `y = A·x` where `A` is the weighted
/// in-orientation adjacency (so `y[v] = Σ_{(u,v)} w_uv · x[u]`).
#[cfg(test)]
pub(crate) fn spmv(graph: &Graph, x: &[f32]) -> Vec<f32> {
    let n = graph.num_vertices() as usize;
    assert_eq!(x.len(), n, "input vector length must equal |V|");
    let in_ = graph.in_();
    let mut y = vec![0.0f32; n];
    for v in 0..n as VertexId {
        let ws = in_.neighbor_weights(v);
        let mut acc = 0.0f32;
        for (i, &u) in in_.neighbors(v).iter().enumerate() {
            acc += ws.map_or(1, |ws| ws[i]) as f32 * x[u as usize];
        }
        y[v as usize] = acc;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_graph::EdgeList;

    fn weighted_diamond() -> Graph {
        // 0 →(1) 1 →(1) 3, 0 →(5) 2 →(1) 3.
        let el = EdgeList::from_weighted(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], vec![1, 5, 1, 1]);
        Graph::directed_from_edges(el)
    }

    #[test]
    fn dijkstra_picks_shorter_path() {
        let g = weighted_diamond();
        let dist = sssp(g.out(), 0);
        assert_eq!(dist, vec![0, 1, 5, 2]);
    }

    #[test]
    fn dijkstra_unreachable() {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(vec![(1, 2), (2, 0)]));
        let dist = sssp(g.out(), 0);
        assert_eq!(dist[0], 0);
        assert_eq!(dist[1], UNREACHED);
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = weighted_diamond();
        let pr = pagerank(&g, 0.85, 1e-7, 200);
        // Dangling mass leaks (standard non-dangling-fix Jacobi); the
        // sum stays below 1 but every rank is at least the base.
        let n = g.num_vertices() as f32;
        for &r in &pr {
            assert!(r >= (1.0 - 0.85) / n - 1e-6);
        }
        // Vertex 3 (two in-links) outranks vertex 1 (one in-link).
        assert!(pr[3] > pr[1]);
    }

    #[test]
    fn kcore_peels_cascade() {
        // A triangle with a pendant: k=2 keeps the triangle only.
        let el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        let g = Graph::undirected_from_edges(el);
        let alive = kcore(&g, 2);
        assert_eq!(alive, vec![true, true, true, false]);
    }

    #[test]
    fn kcore_everything_dies_for_large_k() {
        let el = EdgeList::from_pairs(vec![(0, 1), (1, 2)]);
        let g = Graph::undirected_from_edges(el);
        assert!(kcore(&g, 5).iter().all(|&a| !a));
    }

    #[test]
    fn wcc_two_components() {
        let el = EdgeList::from_pairs(vec![(0, 1), (2, 3)]);
        let g = Graph::undirected_from_edges(el);
        assert_eq!(wcc(g.out()), vec![0, 0, 2, 2]);
    }

    #[test]
    fn bp_converges_toward_neighborhood_average() {
        let g = weighted_diamond();
        let priors = vec![1.0, 0.0, 0.0, 0.0];
        let b = belief_propagation(&g, &priors, 0.5, 10);
        // Mass flows from vertex 0 toward 3.
        assert!(b[1] > 0.0 && b[3] > 0.0);
        assert!(b[0] >= 0.5, "prior anchors vertex 0");
    }

    #[test]
    fn spmv_matches_manual() {
        let g = weighted_diamond();
        let y = spmv(&g, &[1.0, 2.0, 3.0, 4.0]);
        // y[3] = 1*x[1] + 1*x[2] = 5; y[1] = 1*x[0] = 1; y[2] = 5*x[0].
        assert_eq!(y, vec![0.0, 1.0, 5.0, 5.0]);
    }
}
