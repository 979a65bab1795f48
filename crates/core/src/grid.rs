//! Destination-bucketed grid CSR: the bind-time layout behind
//! work-optimal parallel push.
//!
//! The parallel backend's push compute is destination-sharded: worker
//! `s` owns the contiguous vertex range `[fences[s], fences[s + 1])`
//! of `metadata_curr` and must apply exactly the frontier edges whose
//! destination falls inside it, in the serial order. Replaying the
//! *entire* task list per worker and discarding out-of-shard edges
//! would give that order too, but one iteration would traverse
//! `threads × |E_frontier|` edges.
//!
//! [`GridCsr`] hands each worker only its own edges. At [`crate::session::
//! Runtime::bind`] time every vertex's out-edges are bucketed by
//! destination shard into one sub-CSR per shard: [`GridCsr::shard`]`(s)`
//! maps a source vertex to the contiguous slice of its edges landing
//! in shard `s`, with the edge order inside each `(source, shard)`
//! cell identical to the original adjacency order. Each edge carries
//! its original offset within the source's adjacency
//! ([`ShardCsr::edge_offs`]) and its weight, so the engine's deferred
//! online-filter records keep their `(task, edge)` sort keys and
//! simulated-thread slots — the replay is **bit-equal** to the serial
//! path by construction:
//!
//! * a destination's update sequence depends only on the edges that
//!   target it, ordered by (task index, edge offset) — exactly the
//!   order a shard's cells are iterated;
//! * costs are charged from the *full* per-task degrees, so the
//!   simulated device sees identical work either way.
//!
//! Memory cost: the bucketed edges duplicate the push CSR's targets
//! (4 B), add a 4 B per-edge adjacency offset and duplicate weights
//! when present, plus `shards × (V + 1)` cell fences of 4 B — see
//! [`GridCsr::footprint_bytes`]. That buys each push iteration
//! exactly one traversal per frontier edge
//! ([`crate::metrics::RunReport::edges_examined`] records it).

use crate::par::{chunk_range, WorkerPanic, WorkerPool};
use simdx_graph::csr::Csr;
use simdx_graph::{VertexId, Weight};

/// One destination shard's sub-CSR: for every source vertex, the
/// contiguous run of its out-edges whose destination falls inside the
/// shard's vertex range, in original adjacency order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ShardCsr {
    /// `V + 1` cell fences: source `v`'s edges into this shard are
    /// `targets[offsets[v] .. offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// Edge destinations (all inside the shard's vertex range).
    targets: Vec<VertexId>,
    /// Parallel to `targets`: each edge's offset within the source's
    /// *full* adjacency — the `(task, edge)` record key and bin-slot
    /// input the serial engine derives from the raw CSR index.
    edge_offs: Vec<u32>,
    /// Parallel to `targets` when the source CSR is weighted.
    weights: Option<Vec<Weight>>,
}

impl ShardCsr {
    fn with_capacity(num_vertices: usize, edges: usize, weighted: bool) -> Self {
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        offsets.push(0);
        Self {
            offsets,
            targets: Vec::with_capacity(edges),
            edge_offs: Vec::with_capacity(edges),
            weights: weighted.then(|| Vec::with_capacity(edges)),
        }
    }

    /// Raw `[start, end)` index range of `v`'s cell in the shard
    /// arrays.
    #[inline]
    pub(crate) fn range(&self, v: VertexId) -> (usize, usize) {
        (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        )
    }

    /// The full bucketed targets array.
    pub(crate) fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Per-edge offsets within the source's full adjacency, parallel
    /// to [`Self::targets`].
    pub(crate) fn edge_offs(&self) -> &[u32] {
        &self.edge_offs
    }

    /// The bucketed weights, if the source CSR is weighted.
    pub(crate) fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Number of edges bucketed into this shard.
    pub(crate) fn num_edges(&self) -> usize {
        self.targets.len()
    }
}

/// The 2D destination-bucketed adjacency: one [`ShardCsr`] per push
/// destination shard (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridCsr {
    shards: Vec<ShardCsr>,
}

impl GridCsr {
    /// Buckets `csr`'s edges by the destination shard the monotone
    /// vertex fences define (`fences[0] == 0`,
    /// `fences.last() == |V|`, one shard per consecutive pair — the
    /// exact [`crate::scratch::PushFences::verts`] shape).
    ///
    /// One pass over the CSR in (source, adjacency) order appends each
    /// edge to its destination shard, so every `(source, shard)` cell
    /// inherits the original edge order — the property the bit-equality
    /// argument rests on. `O(|E| + |V| × shards)` time. The serial
    /// reference [`Self::build_with_pool`] is tested against.
    #[cfg(test)]
    fn build(csr: &Csr, fences: &[u32]) -> Self {
        let shard_of = Self::shard_map(csr, fences);
        Self {
            shards: Self::build_range(csr, &shard_of, fences.len() - 1, 0, csr.num_vertices()),
        }
    }

    /// [`Self::build`] with the source-vertex sweep split over the
    /// worker pool: each worker buckets a contiguous source range into
    /// private partial shards, and concatenating the partials in
    /// worker order reproduces the serial cell order exactly (the
    /// ranges are contiguous and ascending). Used by `Runtime::bind`
    /// so a parallel runtime's bind cost scales with its own width. A
    /// worker panic during the sweep is contained and returned (the
    /// session surfaces it from `Runtime::try_bind`).
    pub(crate) fn build_with_pool(
        csr: &Csr,
        fences: &[u32],
        pool: &WorkerPool,
    ) -> Result<Self, WorkerPanic> {
        let threads = pool.threads();
        let n = csr.num_vertices() as usize;
        let parts = fences.len() - 1;
        let shard_of = Self::shard_map(csr, fences);
        let mut partials: Vec<Vec<ShardCsr>> = (0..threads).map(|_| Vec::new()).collect();
        pool.try_for_each_worker(&mut partials, |w, out| {
            let (lo, hi) = chunk_range(n, threads, w);
            *out = Self::build_range(csr, &shard_of, parts, lo as VertexId, hi as VertexId);
        })?;
        // Merge: per shard, concatenate the workers' cell runs and
        // rebase their offsets onto the merged edge array.
        let weighted = csr.is_weighted();
        let mut shards: Vec<ShardCsr> = (0..parts)
            .map(|s| {
                let edges = partials.iter().map(|p| p[s].num_edges()).sum();
                ShardCsr::with_capacity(n, edges, weighted)
            })
            .collect();
        for partial in &partials {
            for (s, part) in partial.iter().enumerate() {
                let sh = &mut shards[s];
                let base = sh.targets.len() as u32;
                sh.targets.extend_from_slice(&part.targets);
                sh.edge_offs.extend_from_slice(&part.edge_offs);
                if let (Some(out), Some(ws)) = (&mut sh.weights, &part.weights) {
                    out.extend_from_slice(ws);
                }
                sh.offsets
                    .extend(part.offsets[1..].iter().map(|&o| base + o));
            }
        }
        Ok(Self { shards })
    }

    /// Destination-vertex → shard-index lookup derived from the
    /// fences, so the bucketing pass classifies each edge in O(1).
    fn shard_map(csr: &Csr, fences: &[u32]) -> Vec<u32> {
        let n = csr.num_vertices() as usize;
        assert!(fences.len() >= 2, "need at least one shard");
        assert_eq!(fences[0], 0, "fences must start at vertex 0");
        assert_eq!(*fences.last().expect("non-empty") as usize, n);
        assert!(fences.windows(2).all(|w| w[0] <= w[1]), "fences monotone");
        assert!(
            csr.num_edges() <= u32::MAX as u64,
            "grid CSR cell fences are u32-indexed"
        );
        let mut shard_of = vec![0u32; n];
        for (s, w) in fences.windows(2).enumerate() {
            for slot in &mut shard_of[w[0] as usize..w[1] as usize] {
                *slot = s as u32;
            }
        }
        shard_of
    }

    /// Buckets the out-edges of sources `[lo, hi)` into `parts` fresh
    /// partial shards (cell fences cover only the local sources).
    fn build_range(
        csr: &Csr,
        shard_of: &[u32],
        parts: usize,
        lo: VertexId,
        hi: VertexId,
    ) -> Vec<ShardCsr> {
        let local = (hi - lo) as usize;
        let weighted = csr.is_weighted();
        // Counting pass: exact per-shard reservations, so the fill
        // pass never reallocates mid-bucketing.
        let mut totals = vec![0usize; parts];
        for v in lo..hi {
            for &t in csr.neighbors(v) {
                totals[shard_of[t as usize] as usize] += 1;
            }
        }
        let mut shards: Vec<ShardCsr> = totals
            .iter()
            .map(|&e| ShardCsr::with_capacity(local, e, weighted))
            .collect();
        let ws = csr.weights();
        for v in lo..hi {
            let (elo, ehi) = csr.range(v);
            for i in elo..ehi {
                let t = csr.targets()[i];
                let sh = &mut shards[shard_of[t as usize] as usize];
                sh.targets.push(t);
                sh.edge_offs.push((i - elo) as u32);
                if let (Some(out), Some(ws)) = (&mut sh.weights, ws) {
                    out.push(ws[i]);
                }
            }
            for sh in &mut shards {
                sh.offsets.push(sh.targets.len() as u32);
            }
        }
        shards
    }

    /// Number of destination shards.
    #[cfg(test)]
    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s sub-CSR.
    #[inline]
    pub(crate) fn shard(&self, s: usize) -> &ShardCsr {
        &self.shards[s]
    }

    /// Total bucketed edges (equals the source CSR's edge count).
    #[cfg(test)]
    fn num_edges(&self) -> u64 {
        self.shards.iter().map(|s| s.num_edges() as u64).sum()
    }

    /// Approximate in-memory footprint in bytes: per edge 4 B target +
    /// 4 B adjacency offset (+ 4 B weight when present), plus
    /// `shards × (V + 1)` 4 B cell fences.
    pub fn footprint_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.offsets.len() as u64 * 4
                    + s.targets.len() as u64 * 4
                    + s.edge_offs.len() as u64 * 4
                    + s.weights.as_ref().map_or(0, |w| w.len() as u64 * 4)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simdx_graph::{weights, EdgeList};

    fn skewed_csr() -> Csr {
        // Vertex 0 fans out across every shard; the rest form chains
        // with back edges so cells of every shape appear.
        let mut edges = vec![];
        for d in 1..10u32 {
            edges.push((0, d));
        }
        for v in 1..10u32 {
            edges.push((v, (v * 3 + 1) % 10));
            edges.push((v, (v * 7 + 2) % 10));
        }
        Csr::from_edge_list(&EdgeList::from_pairs(edges))
    }

    fn weighted_csr() -> Csr {
        let el = EdgeList::from_weighted(
            6,
            vec![(0, 1), (0, 3), (0, 5), (2, 0), (2, 4), (4, 5), (5, 1)],
            vec![10, 30, 50, 20, 40, 45, 51],
        );
        Csr::from_edge_list(&el)
    }

    /// Reassembling every shard's cell for a source, ordered by the
    /// carried adjacency offsets, must reproduce the source's full
    /// adjacency (targets and weights) exactly.
    fn assert_partitions(csr: &Csr, grid: &GridCsr, fences: &[u32]) {
        assert_eq!(grid.num_edges(), csr.num_edges());
        for v in 0..csr.num_vertices() {
            let mut rebuilt: Vec<(u32, VertexId, Option<Weight>)> = Vec::new();
            for s in 0..grid.num_shards() {
                let sh = grid.shard(s);
                let (lo, hi) = sh.range(v);
                for i in lo..hi {
                    let t = sh.targets()[i];
                    assert!(
                        (fences[s]..fences[s + 1]).contains(&t),
                        "shard {s} holds out-of-range target {t}"
                    );
                    rebuilt.push((sh.edge_offs()[i], t, sh.weights().map(|w| w[i])));
                }
                // Within a cell, edge order is the original adjacency
                // order.
                assert!(sh.edge_offs()[lo..hi].windows(2).all(|w| w[0] < w[1]));
            }
            rebuilt.sort_unstable_by_key(|&(off, _, _)| off);
            let expect: Vec<(u32, VertexId, Option<Weight>)> = csr
                .neighbors(v)
                .iter()
                .enumerate()
                .map(|(k, &t)| (k as u32, t, csr.neighbor_weights(v).map(|w| w[k])))
                .collect();
            assert_eq!(rebuilt, expect, "vertex {v} cells do not partition");
        }
    }

    #[test]
    fn grid_partitions_the_adjacency() {
        let csr = skewed_csr();
        for fences in [vec![0u32, 10], vec![0, 4, 10], vec![0, 3, 3, 7, 10]] {
            let grid = GridCsr::build(&csr, &fences);
            assert_eq!(grid.num_shards(), fences.len() - 1);
            assert_partitions(&csr, &grid, &fences);
        }
    }

    #[test]
    fn grid_carries_weights() {
        let csr = weighted_csr();
        let fences = [0u32, 2, 6];
        let grid = GridCsr::build(&csr, &fences);
        assert_partitions(&csr, &grid, &fences);
        // Spot-check one cell: 0's edges into shard 1 ([2, 6)) are
        // (3, w 30) then (5, w 50), adjacency offsets 1 and 2.
        let sh = grid.shard(1);
        let (lo, hi) = sh.range(0);
        assert_eq!(&sh.targets()[lo..hi], &[3, 5]);
        assert_eq!(&sh.edge_offs()[lo..hi], &[1, 2]);
        assert_eq!(&sh.weights().expect("weighted")[lo..hi], &[30, 50]);
    }

    #[test]
    fn empty_shards_and_sources_are_well_formed() {
        let csr = Csr::from_edge_list(&EdgeList::new(5));
        let grid = GridCsr::build(&csr, &[0, 2, 2, 5]);
        assert_eq!(grid.num_edges(), 0);
        for s in 0..3 {
            for v in 0..5 {
                assert_eq!(grid.shard(s).range(v), (0, 0));
            }
        }
    }

    #[test]
    fn pooled_build_matches_serial_build() {
        let csr = skewed_csr();
        let weighted = weighted_csr();
        for threads in [2usize, 3, 5] {
            let pool = WorkerPool::new(threads);
            for (csr, fences) in [(&csr, vec![0u32, 3, 3, 7, 10]), (&weighted, vec![0, 2, 6])] {
                assert_eq!(
                    GridCsr::build_with_pool(csr, &fences, &pool).expect("clean pool"),
                    GridCsr::build(csr, &fences),
                    "{threads}-thread build diverged"
                );
            }
        }
    }

    #[test]
    fn footprint_accounts_every_array() {
        let csr = weighted_csr();
        let grid = GridCsr::build(&csr, &[0, 3, 6]);
        // 2 shards × 7 fences × 4 B + 7 edges × (4 + 4 + 4) B.
        assert_eq!(grid.footprint_bytes(), 2 * 7 * 4 + 7 * 12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// [`GridCsr::build`] partitions the adjacency losslessly for
        /// *any* weighted graph and *any* monotone fences, empty shards
        /// included.
        #[test]
        fn grid_csr_partitions_any_adjacency(
            edges in (2u32..48).prop_flat_map(|n| {
                proptest::collection::vec((0..n, 0..n), 0..150)
            }),
            cuts in proptest::collection::vec(0u32..48, 0..5),
            wseed in 0u64..100,
        ) {
            let el = weights::assign_default_weights(&EdgeList::from_pairs(edges), wseed);
            let csr = Csr::from_edge_list(&el);
            let n = csr.num_vertices();
            let mut fences: Vec<u32> = cuts.into_iter().map(|c| c % (n + 1)).collect();
            fences.extend([0, n]);
            fences.sort_unstable();
            let grid = GridCsr::build(&csr, &fences);
            prop_assert_eq!(grid.num_shards(), fences.len() - 1);
            assert_partitions(&csr, &grid, &fences);
        }
    }
}
