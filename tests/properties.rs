//! Property-based tests over randomly generated graphs: the invariants
//! the paper's mechanisms rest on must hold for *every* input, not just
//! the dataset twins.

use proptest::prelude::*;
use simdx::algos::{bfs, kcore, reference, sssp, wcc, Bfs};
use simdx::core::persist::{self, DurableCheckpoint};
use simdx::core::prelude::*;
use simdx::core::FilterPolicy;
use simdx::graph::{weights, Csr, EdgeList, Graph};
use std::collections::BTreeMap;

/// Strategy: an arbitrary directed graph with up to `max_v` vertices.
fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_v).prop_flat_map(move |n| (Just(n), proptest::collection::vec((0..n, 0..n), 0..max_e)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Graph::*_from_edges` against a map spec, over multigraphs dense
    /// enough to carry self-loops and duplicate pairs: no self-loop
    /// survives, each `(src, dst)` pair keeps its lightest edge, out-rows
    /// list the spec in key order and in-rows are its transpose, sorted.
    #[test]
    fn graph_ingest_matches_map_spec(
        (n, edges) in (2u32..12).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec((0..n, 0..n, 1u32..6), 0..120))
        })
    ) {
        let pairs: Vec<(u32, u32)> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
        let wts: Vec<u32> = edges.iter().map(|&(_, _, w)| w).collect();
        for (weighted, directed) in [(false, true), (false, false), (true, true), (true, false)] {
            let mut spec: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            for &(s, d, w) in edges.iter().filter(|&&(s, d, _)| s != d) {
                let w = if weighted { w } else { 0 };
                for key in [(s, d), (d, s)].into_iter().take(if directed { 1 } else { 2 }) {
                    spec.entry(key).and_modify(|old| *old = w.min(*old)).or_insert(w);
                }
            }
            let el = if weighted {
                EdgeList::from_weighted(n, pairs.clone(), wts.clone())
            } else {
                let mut el = EdgeList::new(n);
                pairs.iter().for_each(|&(s, d)| el.push(s, d));
                el
            };
            let g = if directed {
                Graph::directed_from_edges(el)
            } else {
                Graph::undirected_from_edges(el)
            };
            prop_assert_eq!(g.is_directed(), directed);
            prop_assert_eq!(g.out().is_weighted() && g.in_().is_weighted(), weighted);
            let rows = |csr: &Csr| -> Vec<(u32, u32, u32)> {
                (0..n)
                    .flat_map(|v| {
                        let ws = csr.neighbor_weights(v);
                        csr.neighbors(v)
                            .iter()
                            .enumerate()
                            .map(move |(i, &t)| (v, t, ws.map_or(0, |w| w[i])))
                    })
                    .collect()
            };
            let out: Vec<_> = spec.iter().map(|(&(s, d), &w)| (s, d, w)).collect();
            let mut in_: Vec<_> = out.iter().map(|&(s, d, w)| (d, s, w)).collect();
            in_.sort_unstable();
            prop_assert_eq!(rows(g.out()), out);
            prop_assert_eq!(rows(g.in_()), in_);
        }
    }

    /// CSR invariants: offsets monotone, degrees sum to |E|, neighbors
    /// sorted.
    #[test]
    fn csr_invariants((n, edges) in arb_edges(64, 200)) {
        let mut el = EdgeList::new(n);
        for (s, d) in edges {
            el.push(s, d);
        }
        let csr = Csr::from_edge_list(&el);
        prop_assert!(csr.offsets().windows(2).all(|w| w[0] <= w[1]));
        let deg_sum: u64 = (0..csr.num_vertices()).map(|v| csr.degree(v) as u64).sum();
        prop_assert_eq!(deg_sum, csr.num_edges());
        for v in 0..csr.num_vertices() {
            prop_assert!(csr.neighbors(v).windows(2).all(|w| w[0] <= w[1]));
        }
    }

    /// Transposing twice is the identity.
    #[test]
    fn transpose_involution((n, edges) in arb_edges(48, 150)) {
        let mut el = EdgeList::new(n);
        for (s, d) in edges {
            el.push(s, d);
        }
        el.dedup();
        let csr = Csr::from_edge_list(&el);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    /// The parallel grid push replay is bit-equal to the serial path on
    /// arbitrary graphs: same metadata, same activation log, same
    /// simulated cycle counts, same host edge work (the exec axis of
    /// the determinism contract, at property scale).
    #[test]
    fn parallel_push_bit_equal_to_serial_on_arbitrary_graphs((n, edges) in arb_edges(48, 150)) {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect::<Vec<_>>(),
        ));
        if g.num_vertices() == 0 {
            return Ok(());
        }
        let base = EngineConfig::unscaled().with_direction(DirectionPolicy::FixedPush);
        let serial = bfs::run(&g, 0, base.clone().with_exec(ExecMode::Serial)).expect("serial bfs");
        let par = bfs::run(&g, 0, base.parallel(3)).expect("parallel bfs");
        prop_assert_eq!(&par.meta, &serial.meta);
        prop_assert_eq!(&par.report.log, &serial.report.log);
        prop_assert_eq!(&par.report.stats, &serial.report.stats);
        prop_assert_eq!(par.report.edges_examined, serial.report.edges_examined);
    }

    /// The engine's BFS equals the sequential reference on arbitrary
    /// graphs under every filter policy.
    #[test]
    fn engine_bfs_equals_reference((n, edges) in arb_edges(48, 150)) {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect::<Vec<_>>(),
        ));
        if g.num_vertices() == 0 {
            return Ok(());
        }
        let expected = reference::bfs(g.out(), 0);
        for policy in [FilterPolicy::Jit, FilterPolicy::BallotOnly] {
            let r = bfs::run(&g, 0, EngineConfig::unscaled().with_filter(policy)).expect("bfs");
            prop_assert_eq!(&r.meta, &expected);
        }
    }

    /// The engine's SSSP (frontier relaxation) equals Dijkstra for any
    /// positive weights — the ∆-stepping-family correctness property.
    #[test]
    fn engine_sssp_equals_dijkstra((n, edges) in arb_edges(40, 120), wseed in 0u64..1000) {
        let el = EdgeList::from_pairs(
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect::<Vec<_>>(),
        );
        if el.num_vertices() == 0 {
            return Ok(());
        }
        let el = weights::assign_default_weights(&el, wseed);
        let g = Graph::directed_from_edges(el);
        let expected = reference::sssp(g.out(), 0);
        let r = sssp::run(&g, 0, EngineConfig::unscaled()).expect("sssp");
        prop_assert_eq!(r.meta, expected);
    }

    /// k-Core survivors each keep >= k surviving in-neighbors, and the
    /// result matches sequential peeling.
    #[test]
    fn engine_kcore_is_a_core((n, edges) in arb_edges(40, 150), k in 1u32..6) {
        let g = Graph::undirected_from_edges(EdgeList::from_pairs(
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect::<Vec<_>>(),
        ));
        if g.num_vertices() == 0 {
            return Ok(());
        }
        let r = kcore::run(&g, k, EngineConfig::unscaled()).expect("kcore");
        let alive = kcore::survivors(&r.meta);
        prop_assert_eq!(&alive, &reference::kcore(&g, k));
        for v in 0..g.num_vertices() {
            if alive[v as usize] {
                let live = g
                    .in_()
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| alive[u as usize])
                    .count() as u32;
                prop_assert!(live >= k, "vertex {} kept {} < k", v, live);
            }
        }
    }

    /// WCC labels are consistent: same label iff reference gives the
    /// same label (on symmetric graphs: connected components).
    #[test]
    fn engine_wcc_equals_reference((n, edges) in arb_edges(40, 120)) {
        let g = Graph::undirected_from_edges(EdgeList::from_pairs(
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect::<Vec<_>>(),
        ));
        if g.num_vertices() == 0 {
            return Ok(());
        }
        let r = wcc::run(&g, EngineConfig::unscaled()).expect("wcc");
        prop_assert_eq!(r.meta, reference::wcc(g.out()));
    }

    /// Cancelling a run at an arbitrary iteration leaves the session
    /// reusable: the next clean run over the same [`BoundGraph`] is
    /// bit-equal to a fresh engine — the abort-safe-reuse half of the
    /// supervision contract, at property scale, in both exec modes.
    #[test]
    fn cancelled_runs_leave_the_session_bit_equal(
        (n, edges) in arb_edges(48, 150),
        cancel_at in 0u32..6,
    ) {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect::<Vec<_>>(),
        ));
        if g.num_vertices() == 0 {
            return Ok(());
        }
        for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 3 }] {
            let cfg = EngineConfig::unscaled().with_exec(exec);
            let baseline = bfs::run(&g, 0, cfg.clone()).expect("fresh baseline");
            let runtime = Runtime::new(cfg).expect("runtime");
            let bound = runtime.bind(&g);
            let token = CancelToken::new();
            let hook_token = token.clone();
            let aborted = bound
                .run(Bfs::new(0))
                .cancel_token(token)
                .observe(move |rec| {
                    if rec.iteration >= cancel_at {
                        hook_token.cancel();
                    }
                })
                .execute();
            match aborted {
                // The abort is observed at the next supervision check.
                Err(SimdxError::Cancelled { progress }) => prop_assert!(
                    progress.iterations <= baseline.report.iterations,
                    "progress past convergence: {:?}",
                    progress
                ),
                // A cancel raised on the final iteration can lose the
                // race with convergence; the finished run must then be
                // untouched by supervision.
                Ok(r) => prop_assert_eq!(&r.meta, &baseline.meta),
                Err(other) => prop_assert!(false, "unexpected error: {:?}", other),
            }
            // The same session, clean run: bit-equal to a fresh engine.
            let after = bound.run(Bfs::new(0)).execute().expect("reuse after abort");
            prop_assert_eq!(&after.meta, &baseline.meta);
            prop_assert_eq!(&after.report.log, &baseline.report.log);
            prop_assert_eq!(&after.report.stats, &baseline.report.stats);
        }
    }

    /// Cancelling a *checkpointed* run at an arbitrary iteration and
    /// resuming from the handed-back snapshot is bit-equal to the
    /// uninterrupted run — metadata, activation log and simulated
    /// cycles — on arbitrary graphs, in both exec modes.
    #[test]
    fn checkpointed_cancel_then_resume_is_bit_equal(
        (n, edges) in arb_edges(48, 150),
        cancel_at in 0u32..6,
    ) {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect::<Vec<_>>(),
        ));
        if g.num_vertices() == 0 {
            return Ok(());
        }
        for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 3 }] {
            let cfg = EngineConfig::unscaled().with_exec(exec);
            let baseline = bfs::run(&g, 0, cfg.clone()).expect("fresh baseline");
            let runtime = Runtime::new(cfg).expect("runtime");
            let bound = runtime.bind(&g);
            let token = CancelToken::new();
            let hook_token = token.clone();
            let outcome = bound
                .run(Bfs::new(0))
                .cancel_token(token)
                .checkpoint_on_abort()
                .observe(move |rec| {
                    if rec.iteration >= cancel_at {
                        hook_token.cancel();
                    }
                })
                .execute();
            let resumed = match outcome {
                // A cancel raised on the final iteration can lose the
                // race with convergence.
                Ok(r) => r,
                Err(aborted) => {
                    prop_assert!(
                        matches!(aborted.error, SimdxError::Cancelled { .. }),
                        "unexpected abort: {:?}",
                        aborted.error
                    );
                    match aborted.checkpoint {
                        Some(cp) => bound
                            .resume(Bfs::new(0), cp)
                            .execute()
                            .expect("resume from cancel checkpoint"),
                        // Aborted before the first boundary capture.
                        None => bound.run(Bfs::new(0)).execute().expect("fresh rerun"),
                    }
                }
            };
            prop_assert_eq!(&resumed.meta, &baseline.meta);
            prop_assert_eq!(resumed.report.iterations, baseline.report.iterations);
            prop_assert_eq!(&resumed.report.log, &baseline.report.log);
            prop_assert_eq!(&resumed.report.stats, &baseline.report.stats);
        }
    }

    /// The ballot filter's output is always sorted, duplicate-free, and
    /// equal to the set the online filter records (ignoring order).
    #[test]
    fn filters_agree_on_frontier_content((n, edges) in arb_edges(48, 150)) {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect::<Vec<_>>(),
        ));
        if g.num_vertices() == 0 {
            return Ok(());
        }
        let jit = bfs::run(&g, 0, EngineConfig::unscaled()).expect("jit");
        let ballot = bfs::run(
            &g,
            0,
            EngineConfig::unscaled().with_filter(FilterPolicy::BallotOnly),
        )
        .expect("ballot");
        // Same metadata and same iteration structure.
        prop_assert_eq!(jit.meta, ballot.meta);
        prop_assert_eq!(jit.report.iterations, ballot.report.iterations);
        for (a, b) in jit.report.log.records.iter().zip(&ballot.report.log.records) {
            prop_assert_eq!(a.frontier_len, b.frontier_len, "iteration {}", a.iteration);
        }
    }

    /// The durable wire format over *real* mid-run checkpoints (BFS
    /// cancelled at an arbitrary boundary):
    /// decode∘encode restores the checkpoint so exactly that (a)
    /// re-encoding reproduces the blob byte-for-byte and (b) resuming
    /// the decoded checkpoint is bit-equal to resuming the original —
    /// and to the uninterrupted run. Truncating the blob at **every**
    /// byte offset and flipping single bits at sampled offsets must
    /// yield typed `CheckpointCorrupt` errors: never a panic, never a
    /// silently-wrong restore.
    #[test]
    fn durable_checkpoint_roundtrips_and_rejects_corruption(
        (n, edges) in arb_edges(40, 120),
        cut in 0u32..4,
    ) {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(
            edges.iter().map(|&(s, d)| (s % n, d % n)).collect::<Vec<_>>(),
        ));
        if g.num_vertices() == 0 {
            return Ok(());
        }
        for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
            let cfg = EngineConfig::unscaled().with_exec(exec);
            let baseline = bfs::run(&g, 0, cfg.clone()).expect("fresh baseline");
            let runtime = Runtime::new(cfg).expect("runtime");
            let bound = runtime.bind(&g);
            let token = CancelToken::new();
            let hook_token = token.clone();
            let outcome = bound
                .run(Bfs::new(0))
                .cancel_token(token)
                .checkpoint_on_abort()
                .observe(move |rec| {
                    if rec.iteration >= cut {
                        hook_token.cancel();
                    }
                })
                .execute();
            // Converged before the cut, or aborted before the first
            // boundary: no checkpoint to serialize this round.
            let Err(aborted) = outcome else { continue };
            let Some(cp) = aborted.checkpoint else { continue };

            let frame = DurableCheckpoint {
                ticket: 42 + cut as u64,
                seed: 0,
                checkpoint: cp,
            };
            let blob = persist::encode(&frame);
            let back = persist::decode::<u32>(&blob).expect("decode own encoding");
            prop_assert_eq!(back.ticket, frame.ticket);
            prop_assert_eq!(back.seed, frame.seed);
            // (a) Byte-identical re-encoding.
            prop_assert_eq!(&persist::encode(&back), &blob);
            // (b) Resuming the decoded checkpoint completes bit-equal
            // to resuming the original — and to never aborting at all.
            let from_original = bound
                .resume(Bfs::new(0), frame.checkpoint)
                .execute()
                .expect("resume original");
            let from_decoded = bound
                .resume(Bfs::new(0), back.checkpoint)
                .execute()
                .expect("resume decoded");
            prop_assert_eq!(&from_decoded.meta, &from_original.meta);
            prop_assert_eq!(&from_decoded.report.log, &from_original.report.log);
            prop_assert_eq!(&from_decoded.report.stats, &from_original.report.stats);
            prop_assert_eq!(&from_decoded.meta, &baseline.meta);
            prop_assert_eq!(&from_decoded.report.log, &baseline.report.log);
            prop_assert_eq!(&from_decoded.report.stats, &baseline.report.stats);

            // Truncation at every byte offset: typed error, no panic.
            for len in 0..blob.len() {
                match persist::decode::<u32>(&blob[..len]) {
                    Err(SimdxError::CheckpointCorrupt { .. }) => {}
                    other => prop_assert!(
                        false,
                        "truncation to {} bytes: expected CheckpointCorrupt, got {:?}",
                        len,
                        other.map(|f| f.ticket)
                    ),
                }
            }
            // Single-bit corruption at sampled offsets (every offset
            // is swept by the unit test in `persist`; here the blob
            // varies with the generated graph).
            let stride = (blob.len() / 24).max(1);
            for byte in (0..blob.len()).step_by(stride) {
                let mut flipped = blob.clone();
                flipped[byte] ^= 1 << (byte % 8);
                match persist::decode::<u32>(&flipped) {
                    Err(SimdxError::CheckpointCorrupt { .. }) => {}
                    other => prop_assert!(
                        false,
                        "bit flip at byte {}: expected CheckpointCorrupt, got {:?}",
                        byte,
                        other.map(|f| f.ticket)
                    ),
                }
            }
        }
    }
}
