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

/// The simple graph of `edges` over `n` vertices built the naive way,
/// as `(offsets, targets, weights)`: every pair pushed, in both
/// directions when `symmetric`, sorted by `(src, dst, weight)`, loops
/// dropped, the first of each `(src, dst)` kept; weights read 0 unless
/// `weighted`.
fn naive_simple(
    n: u32,
    edges: &[(u32, u32, u32)],
    weighted: bool,
    symmetric: bool,
) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
    let mut closure: Vec<(u32, u32, u32)> = edges
        .iter()
        .map(|&(s, d, w)| (s, d, if weighted { w } else { 0 }))
        .flat_map(|(s, d, w)| {
            [(s, d, w), (d, s, w)]
                .into_iter()
                .take(1 + usize::from(symmetric))
        })
        .collect();
    closure.sort_unstable();
    closure.retain(|&(s, d, _)| s != d);
    closure.dedup_by_key(|&mut (s, d, _)| (s, d));
    let mut offsets = vec![0; n as usize + 1];
    for &(s, _, _) in &closure {
        offsets[s as usize + 1] += 1;
    }
    for v in 0..n as usize {
        offsets[v + 1] += offsets[v];
    }
    let targets = closure.iter().map(|&(_, d, _)| d).collect();
    let weights = closure.iter().map(|&(_, _, w)| w).collect();
    (offsets, targets, weights)
}

/// An edge list over `n` vertices from `(src, dst, weight)` triples,
/// weighted or not.
fn edge_list(n: u32, edges: &[(u32, u32, u32)], weighted: bool) -> EdgeList {
    let mut el = EdgeList::new(n);
    for &(s, d, w) in edges {
        if weighted {
            el.push_weighted(s, d, w);
        } else {
            el.push(s, d);
        }
    }
    el
}

/// Shuffles `items` into a seeded Fisher–Yates order (xorshift).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

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

    /// `Graph::undirected_from_edges` against [`naive_simple`]. The
    /// multigraphs carry loops and duplicates in no order, and up to
    /// three isolated vertices above every endpoint; offsets, targets
    /// and weights must match exactly.
    #[test]
    fn undirected_build_equals_the_naive_closure(
        (n, edges) in (1u32..16).prop_flat_map(|span| {
            (span..span + 4, proptest::collection::vec((0..span, 0..span, 1u32..6), 0..80))
        })
    ) {
        for weighted in [false, true] {
            let (offsets, targets, wts) = naive_simple(n, &edges, weighted, true);
            let g = Graph::undirected_from_edges(edge_list(n, &edges, weighted));
            prop_assert_eq!(g.out().offsets(), &offsets[..]);
            prop_assert_eq!(g.out().targets(), &targets[..]);
            prop_assert_eq!(g.out().weights(), weighted.then_some(&wts[..]));
        }
    }

    /// The same comparison on lists `EdgeList::dedup` leaves strictly
    /// increasing and loop-free: the presorted build, which merges each
    /// row's run of the list with its mirrored run in place. A drawn
    /// pair may come back reversed at its own weight (a reciprocal pair,
    /// kept once at the lighter); `hubs` may add an out-hub at vertex 0
    /// and an in-hub at `span - 1`, whose long mirrored run, merged
    /// after every other run, is written up to its own read cursor; and
    /// up to three isolated vertices trail the endpoints.
    #[test]
    fn undirected_presorted_build_equals_the_naive_closure(
        (span, n, pairs) in (2u32..16).prop_flat_map(|span| {
            let pair = ((0..span, 0..span), (1u32..6, 0u32..6));
            (Just(span), span..span + 4, proptest::collection::vec(pair, 0..60))
        }),
        hubs in 0u32..4,
    ) {
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for &((s, d), (w, back)) in &pairs {
            edges.push((s, d, w));
            if back > 0 {
                edges.push((d, s, back));
            }
        }
        for v in 0..span {
            if hubs & 1 != 0 {
                edges.push((0, v, v % 5 + 1));
            }
            if hubs & 2 != 0 {
                edges.push((v, span - 1, v % 3 + 1));
            }
        }
        for weighted in [false, true] {
            let (offsets, targets, wts) = naive_simple(n, &edges, weighted, true);
            let mut el = edge_list(n, &edges, weighted);
            el.dedup();
            let g = Graph::undirected_from_edges(el);
            prop_assert_eq!(g.out().offsets(), &offsets[..]);
            prop_assert_eq!(g.out().targets(), &targets[..]);
            prop_assert_eq!(g.out().weights(), weighted.then_some(&wts[..]));
        }
    }

    /// `Graph::directed_from_edges` on lists `EdgeList::dedup` leaves
    /// strictly increasing and loop-free, which the count pass builds
    /// alone, adopting the weights, against the same list shuffled,
    /// which takes the place-and-normalise path: offsets, targets and
    /// weights must be identical. Rows below `lead` are empty, `hub`
    /// adds a row reaching every endpoint, and up to three isolated
    /// vertices trail them. The list with its first pair moved last
    /// (sorted up to its last pair) and with a loop or a repeat spliced
    /// in mid-list leave the count's copy part way and must still build
    /// the naive spec.
    #[test]
    fn directed_presorted_build_equals_the_sorting_build(
        ((lead, span), n, drawn) in (0u32..4, 2u32..16).prop_flat_map(|(lead, width)| {
            let span = lead + width;
            let pair = (lead..span, 0..span, 1u32..6);
            (Just((lead, span)), span..span + 4, proptest::collection::vec(pair, 0..80))
        }),
        hub in 0u32..2,
        splice in (0u32..2, 0usize..1000),
        seed in 0u64..u64::MAX,
    ) {
        let mut edges = drawn;
        if hub == 1 {
            edges.extend((0..span).map(|d| (lead, d, d % 5 + 1)));
        }
        let csr = |g: &Graph| {
            let out = g.out();
            (out.offsets().to_vec(), out.targets().to_vec(), out.weights().map(<[u32]>::to_vec))
        };
        let spec_of = |edges: &[(u32, u32, u32)], weighted: bool| {
            let (offsets, targets, wts) = naive_simple(n, edges, weighted, false);
            (offsets, targets, weighted.then_some(wts))
        };
        // What `EdgeList::dedup` leaves, as triples: sorted, loop-free,
        // the lightest of each pair kept.
        let mut list: Vec<(u32, u32, u32)> = edges.iter().copied().filter(|e| e.0 != e.1).collect();
        list.sort_unstable();
        list.dedup_by_key(|e| (e.0, e.1));
        for weighted in [false, true] {
            let mut el = edge_list(n, &edges, weighted);
            el.dedup();
            let presorted = Graph::directed_from_edges(el);
            let spec = spec_of(&edges, weighted);
            prop_assert_eq!(csr(&presorted), spec, "weighted {}", weighted);
            let mut shuffled = list.clone();
            shuffle(&mut shuffled, seed);
            let general = Graph::directed_from_edges(edge_list(n, &shuffled, weighted));
            prop_assert_eq!(csr(&general), csr(&presorted), "weighted {}", weighted);
            if list.is_empty() {
                continue;
            }
            let mut last_out_of_order = list.clone();
            last_out_of_order.rotate_left(1);
            let g = Graph::directed_from_edges(edge_list(n, &last_out_of_order, weighted));
            prop_assert_eq!(csr(&g), spec_of(&last_out_of_order, weighted));
            let mut spliced = list.clone();
            let (kind, at) = (splice.0, splice.1 % list.len());
            let (s, d, w) = list[at];
            spliced.insert(at, if kind == 0 { (s, s, w) } else { (s, d, w % 5 + 1) });
            let g = Graph::directed_from_edges(edge_list(n, &spliced, weighted));
            prop_assert_eq!(csr(&g), spec_of(&spliced, weighted), "splice {:?}", splice);
        }
    }

    /// Build-order invariance: a multigraph with loops and repeats builds
    /// the same graph, weighted or not, from its list as generated (rows
    /// out of order: sorted in place or in the row buffer), sorted with
    /// its loops and repeats (rows in order, compacted), as
    /// `EdgeList::dedup` leaves it (strictly increasing and loop-free:
    /// rows final as placed, or as merged with their mirrored runs when
    /// undirected) and shuffled. The lists are dense enough for
    /// rows past the insertion-sorted length. A directed graph's in-rows
    /// are a naive sort of its reversed out-edges.
    #[test]
    fn graph_builds_are_invariant_under_input_order(
        (n, edges) in (2u32..24).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec((0..n, 0..n, 1u32..6), 0..400))
        }),
        seed in 0u64..u64::MAX,
    ) {
        let pairs: Vec<(u32, u32)> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
        let wts: Vec<u32> = edges.iter().map(|&(_, _, w)| w).collect();
        let mut sorted: Vec<usize> = (0..edges.len()).collect();
        sorted.sort_by_key(|&i| pairs[i]);
        let mut shuffled: Vec<usize> = (0..edges.len()).collect();
        shuffle(&mut shuffled, seed);
        for weighted in [false, true] {
            let list = |order: &[usize]| {
                if weighted {
                    let wts = order.iter().map(|&i| wts[i]).collect();
                    EdgeList::from_weighted(n, order.iter().map(|&i| pairs[i]).collect(), wts)
                } else {
                    let mut el = EdgeList::new(n);
                    order.iter().for_each(|&i| el.push(pairs[i].0, pairs[i].1));
                    el
                }
            };
            let generated = list(&(0..edges.len()).collect::<Vec<_>>());
            let mut deduped = generated.clone();
            deduped.dedup();
            let orders = [generated, list(&sorted), deduped, list(&shuffled)];
            for directed in [false, true] {
                let build = |el: &EdgeList| {
                    let el = el.clone();
                    if directed { Graph::directed_from_edges(el) } else { Graph::undirected_from_edges(el) }
                };
                let csr = |g: &Graph| {
                    let out = g.out();
                    (out.offsets().to_vec(), out.targets().to_vec(), out.weights().map(<[u32]>::to_vec))
                };
                let graphs: Vec<Graph> = orders.iter().map(build).collect();
                for g in &graphs[1..] {
                    prop_assert_eq!(csr(g), csr(&graphs[0]), "directed {}, weighted {}", directed, weighted);
                }
                let g = &graphs[0];
                let mut reversed: Vec<(u32, u32, u32)> = (0..n)
                    .flat_map(|v| {
                        let ws = g.out().neighbor_weights(v);
                        g.out().neighbors(v).iter().enumerate().map(move |(i, &t)| (t, v, ws.map_or(0, |w| w[i])))
                    })
                    .collect();
                reversed.sort_unstable();
                let in_: Vec<(u32, u32, u32)> = (0..n)
                    .flat_map(|v| {
                        let ws = g.in_().neighbor_weights(v);
                        g.in_().neighbors(v).iter().enumerate().map(move |(i, &s)| (v, s, ws.map_or(0, |w| w[i])))
                    })
                    .collect();
                prop_assert_eq!(in_, reversed);
            }
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

    /// A push-only parallel run is bit-equal to the serial path on
    /// arbitrary graphs: same metadata, same activation log, same
    /// simulated cycle counts, same host edge work (the exec axis of
    /// the determinism contract, at property scale). Push runs the
    /// serial kernel under both modes while classification, degree sums
    /// and any ballot scan run on the pool.
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
        let g = graph_of(n, &edges);
        if g.num_vertices() == 0 {
            return Ok(());
        }
        for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
            let cfg = EngineConfig::unscaled().with_exec(exec);
            let baseline = bfs::run(&g, 0, cfg.clone()).expect("fresh baseline");
            let runtime = Runtime::new(cfg).expect("runtime");
            let bound = runtime.bind(&g);
            // Converged before the cut, or aborted before the first
            // boundary: no checkpoint to serialize this round.
            let Some(cp) = cut_bfs(&bound, cut) else { continue };

            let frame = DurableCheckpoint {
                ticket: 42 + cut as u64,
                seed: 0,
                checkpoint: cp,
            };
            let blob = persist::encode(&frame);
            // The trailer, combined from the section CRCs, equals a
            // direct pass over every byte ahead of it.
            prop_assert_eq!(trailer(&blob), persist::crc32(&blob[..blob.len() - 4]));
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

/// CRC-32 one bit at a time, straight from the IEEE 802.3 definition
/// (reflected, polynomial `0xEDB88320`, inverted in and out).
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// An SXCP blob's stored whole-file CRC.
fn trailer(blob: &[u8]) -> u32 {
    let body = blob.len() - 4;
    u32::from_le_bytes(blob[body..].try_into().expect("4 bytes"))
}

/// `blob` with its whole-file CRC rewritten to match its body.
fn with_recomputed_trailer(mut blob: Vec<u8>) -> Vec<u8> {
    let body = blob.len() - 4;
    let crc = persist::crc32(&blob[..body]);
    blob[body..].copy_from_slice(&crc.to_le_bytes());
    blob
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// The byte ranges of an SXCP v1 blob's five framed sections, each
/// `id u8 · len u64 · payload · CRC u32`, after the 8-byte header.
fn framed_sections(blob: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut at = 8;
    (0..5)
        .map(|_| {
            let len = le_u64(&blob[at + 1..]) as usize;
            let section = at..at + 1 + 8 + len + 4;
            at = section.end;
            section
        })
        .collect()
}

/// Whether a well-framed blob's sections agree with each other the way
/// `RunCheckpoint::check_invariants` demands, read from the bytes: one
/// metadata element per IDENT vertex, every frontier vertex in range,
/// one log record per completed iteration.
fn sections_agree(blob: &[u8]) -> bool {
    let payload = |k: usize| {
        let s = &framed_sections(blob)[k];
        &blob[s.start + 9..s.end - 4]
    };
    let ident = payload(0);
    let (num_vertices, iteration) = (le_u32(&ident[12..]), le_u32(&ident[16..]));
    let frontier = payload(2);
    le_u64(payload(1)) == u64::from(num_vertices)
        && frontier[8..]
            .chunks_exact(4)
            .all(|v| le_u32(v) < num_vertices)
        && le_u64(payload(3)) == u64::from(iteration)
}

/// The checkpoint of a BFS from vertex 0 cancelled at its `cut`
/// boundary, if it has one.
fn cut_bfs(bound: &BoundGraph<'_, '_>, cut: u32) -> Option<RunCheckpoint<u32>> {
    let token = CancelToken::new();
    let hook_token = token.clone();
    bound
        .run(Bfs::new(0))
        .cancel_token(token)
        .checkpoint_on_abort()
        .observe(move |rec| {
            if rec.iteration >= cut {
                hook_token.cancel();
            }
        })
        .execute()
        .err()?
        .checkpoint
}

/// A directed graph over `n` vertices from generated pairs.
fn graph_of(n: u32, edges: &[(u32, u32)]) -> Graph {
    Graph::directed_from_edges(EdgeList::from_pairs(
        edges
            .iter()
            .map(|&(s, d)| (s % n, d % n))
            .collect::<Vec<_>>(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The slicing-by-8 `persist::crc32` equals the bitwise definition
    /// on byte strings of 0..=2 KiB, starting at every offset mod 8 and
    /// ending at every length mod 8, so each word/tail split is hit.
    #[test]
    fn durable_checkpoint_crc32_matches_a_bitwise_reference(
        bytes in proptest::collection::vec(0u16..256, 0..2049 + 14),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        for start in 0..8.min(bytes.len() + 1) {
            for trim in 0..8.min(bytes.len() - start + 1) {
                let slice = &bytes[start..bytes.len() - trim];
                prop_assert_eq!(
                    persist::crc32(slice),
                    crc32_bitwise(slice),
                    "bytes [{}, {})",
                    start,
                    bytes.len() - trim
                );
            }
        }
    }

    /// Section splices (ROADMAP item 6): framed section k of blob A —
    /// id, length, payload, CRC, each valid on its own — replaced by
    /// blob B's, for k = 1..=5, where A and B are real mid-run BFS
    /// checkpoints (same graph or not, cut at the same boundary or
    /// not). A section of another length breaks A's trailer, so decode
    /// must report `CheckpointCorrupt`. A section of the same length
    /// cannot: a framed section ends with its own CRC, and a CRC-32
    /// register run over `payload ‖ crc32(payload)` ends in a state
    /// that depends on the payload's length but not its bytes, so the
    /// whole-file CRC is blind to the splice and A's trailer already
    /// is the recomputed one. Once the trailer matches, the blob is
    /// well-framed throughout: decode must either reject it or return a
    /// frame that re-encodes to exactly these bytes, whose sections
    /// agree with each other, and that resumes on A's graph to a result
    /// or a typed error — never a panic.
    #[test]
    fn durable_checkpoint_section_splices_are_rejected_or_consistent(
        (n, edges) in arb_edges(40, 120),
        (n_b, edges_b) in arb_edges(40, 120),
        same_graph in 0u8..2,
        cut_a in 0u32..4,
        cut_b in 0u32..4,
    ) {
        let g_a = graph_of(n, &edges);
        let g_b = if same_graph == 1 { g_a.clone() } else { graph_of(n_b, &edges_b) };
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let (bound_a, bound_b) = (runtime.bind(&g_a), runtime.bind(&g_b));
        let (Some(cp_a), Some(cp_b)) = (cut_bfs(&bound_a, cut_a), cut_bfs(&bound_b, cut_b)) else {
            return Ok(());
        };
        let blob_a = persist::encode(&DurableCheckpoint { ticket: 1, seed: 0, checkpoint: cp_a });
        let blob_b = persist::encode(&DurableCheckpoint { ticket: 2, seed: 0, checkpoint: cp_b });
        prop_assert_eq!(trailer(&blob_b), persist::crc32(&blob_b[..blob_b.len() - 4]));
        let (sections_a, sections_b) = (framed_sections(&blob_a), framed_sections(&blob_b));
        prop_assert_eq!(sections_a.last().map(|s| s.end), Some(blob_a.len() - 4));
        for k in 0..5 {
            let (a, b) = (&sections_a[k], &sections_b[k]);
            if blob_a[a.clone()] == blob_b[b.clone()] {
                continue; // an identical section splices to A itself
            }
            let spliced: Vec<u8> = [&blob_a[..a.start], &blob_b[b.clone()], &blob_a[a.end..]].concat();
            let resealed = with_recomputed_trailer(spliced.clone());
            if a.len() == b.len() {
                prop_assert_eq!(&spliced, &resealed, "section {} splice moved the trailer", k + 1);
            } else {
                match persist::decode::<u32>(&spliced) {
                    Err(SimdxError::CheckpointCorrupt { .. }) => {}
                    other => prop_assert!(
                        false,
                        "section {} spliced under A's trailer: expected CheckpointCorrupt, got {:?}",
                        k + 1,
                        other.map(|f| f.ticket)
                    ),
                }
            }
            match persist::decode::<u32>(&resealed) {
                Err(SimdxError::CheckpointCorrupt { .. }) => {}
                Err(e) => prop_assert!(false, "section {}: untyped rejection {:?}", k + 1, e),
                Ok(frame) => {
                    prop_assert_eq!(&persist::encode(&frame), &resealed);
                    prop_assert!(sections_agree(&resealed), "section {} accepted a lie", k + 1);
                    let resumed = bound_a.resume(Bfs::new(0), frame.checkpoint).execute();
                    prop_assert!(
                        !matches!(
                            resumed.map_err(|aborted| aborted.error),
                            Err(SimdxError::WorkerPanicked { .. })
                        ),
                        "section {}: resuming the splice panicked",
                        k + 1
                    );
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "edge (1, 5) outside a graph with 2 vertices")]
fn undirected_build_keeps_the_legacy_out_of_range_panic() {
    Graph::undirected_from_edges(EdgeList::from_weighted(2, vec![(0, 1), (1, 5)], vec![3, 4]));
}
