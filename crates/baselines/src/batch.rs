//! The batch filter baseline (§4, "Drawback of batch filter").
//!
//! Gunrock/B40C-style task management: load *all* edges of the active
//! vertices into an explicit active-edge list, compute on that list,
//! then collect updated vertices. Two drawbacks the paper measures:
//!
//! 1. the edge frontier can reach `2·|E|` memory, which is what makes
//!    "large-scale GPU-based graph computing intractable" (Gunrock's
//!    SSSP OOMs in Table 4);
//! 2. the resulting next-frontier is unsorted and redundant.
//!
//! This module provides the expansion step; the Gunrock-style engine
//! ([`crate::gunrock`]) drives it, and [`crate::feasibility`] prices
//! the `2·|E|` bound at paper scale.

use simdx_gpu::{Cost, GpuExecutor, KernelDesc, SchedUnit, WARP_SIZE};
use simdx_graph::csr::Csr;
use simdx_graph::{VertexId, Weight};

/// An explicit active-edge list: one entry per edge of an active vertex.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct EdgeFrontier {
    /// `(source, destination, weight)` triples. Weight is 1 for
    /// unweighted graphs.
    pub(crate) edges: Vec<(VertexId, VertexId, Weight)>,
}

/// Expands `active` into the explicit edge frontier, charging the
/// load-balanced gather kernel.
pub(crate) fn expand(
    active: &[VertexId],
    csr: &Csr,
    executor: &mut GpuExecutor,
    kernel: &KernelDesc,
    launch: bool,
) -> EdgeFrontier {
    let mut edges = Vec::new();
    let mut tasks = Vec::with_capacity(active.len());
    for &v in active {
        let nbrs = csr.neighbors(v);
        let ws = csr.neighbor_weights(v);
        for (i, &u) in nbrs.iter().enumerate() {
            let w = ws.map_or(1, |ws| ws[i]);
            edges.push((v, u, w));
        }
        // Warp-cooperative expansion: offsets read coalesced, edge
        // entries written densely.
        let d = nbrs.len() as u64;
        tasks.push(Cost {
            compute_ops: d + 2,
            coalesced_reads: 2 + d,
            writes: d,
            width: WARP_SIZE as u64,
            ..Cost::default()
        });
    }
    executor.run_kernel(kernel, SchedUnit::Warp, &tasks, launch);
    EdgeFrontier { edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_gpu::DeviceSpec;
    use simdx_graph::EdgeList;

    fn setup() -> (GpuExecutor, KernelDesc) {
        (
            GpuExecutor::new(DeviceSpec::k40()),
            KernelDesc::new("batch-expand", 24),
        )
    }

    #[test]
    fn expansion_lists_all_active_edges() {
        let (mut ex, k) = setup();
        let csr = Csr::from_edge_list(&EdgeList::from_pairs(vec![(0, 1), (0, 2), (1, 2), (2, 0)]));
        let ef = expand(&[0, 2], &csr, &mut ex, &k, true);
        assert_eq!(ef.edges, vec![(0, 1, 1), (0, 2, 1), (2, 0, 1)]);
    }

    #[test]
    fn expansion_carries_weights() {
        let (mut ex, k) = setup();
        let el = EdgeList::from_weighted(3, vec![(0, 1), (0, 2)], vec![7, 9]);
        let csr = Csr::from_edge_list(&el);
        let ef = expand(&[0], &csr, &mut ex, &k, false);
        assert_eq!(ef.edges, vec![(0, 1, 7), (0, 2, 9)]);
    }

    #[test]
    fn empty_active_list() {
        let (mut ex, k) = setup();
        let csr = Csr::from_edge_list(&EdgeList::from_pairs(vec![(0, 1)]));
        let ef = expand(&[], &csr, &mut ex, &k, false);
        assert!(ef.edges.is_empty());
    }
}
