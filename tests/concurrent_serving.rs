//! Concurrency half of the determinism contract: queries served over
//! one shared [`BoundGraph`] — raw `std::thread` fan-out and the
//! [`QueryPool`] front-end alike — must stay **bit-identical** to a
//! fresh runtime and bind per query, no matter what runs beside them.
//!
//! The suite covers the five ways concurrency could break that:
//!
//! * plain interleaving — N threads × M queries over the shared core
//!   vs. solo baselines, in both exec modes;
//! * scheduling — a serving thread takes one ticket per turn, so an
//!   idle thread never waits behind a busy peer and an abort-mode close
//!   finds every ticket it did not start still queued;
//! * supervision cross-talk — a cancelled or deadline-expired query
//!   serving next to clean peers must abort *alone*;
//! * admission control — a full bounded queue under
//!   [`AdmissionPolicy::Reject`] sheds load deterministically and
//!   never corrupts the queries it did admit;
//! * fault containment — a panic raised mid-stream by a query's own
//!   program (`tests/support`'s `Faulty`) stays with that query:
//!   exactly one outcome fails typed, every peer stays bit-equal, and
//!   the session serves the failed seed cleanly afterwards.
//!
//! Each fault belongs to the program value of the serve call that arms
//! it, so the tests share no state and run concurrently.

use std::time::Duration;

use simdx::algos::{Bfs, PageRank, Sssp};
use simdx::core::jit::ActivationLog;
use simdx::core::prelude::*;
use simdx::graph::csr::Direction;
use simdx::graph::gen::Rmat;
use simdx::graph::{weights, Graph};
use simdx_gpu::executor::ExecutorStats;

mod support;
use support::{panic_payload, Action, Faulty, GatedLevels, Seam};

/// Everything that must match bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint<M: PartialEq + std::fmt::Debug> {
    meta: Vec<M>,
    iterations: u32,
    stats: ExecutorStats,
    log: ActivationLog,
}

fn fingerprint<M: PartialEq + std::fmt::Debug>(r: RunResult<M>) -> Fingerprint<M> {
    Fingerprint {
        meta: r.meta,
        iterations: r.report.iterations,
        stats: r.report.stats,
        log: r.report.log,
    }
}

/// The solo baseline: a fresh runtime and bind serving one query.
fn solo<P: SourcedProgram>(
    make: &impl Fn(u32) -> P,
    seed: u32,
    g: &Graph,
    cfg: &EngineConfig,
) -> Fingerprint<P::Meta>
where
    P::Meta: PartialEq + std::fmt::Debug,
{
    let runtime = Runtime::new(cfg.clone()).expect("runtime");
    let bound = runtime.bind(g);
    fingerprint(bound.run(make(seed)).execute().expect("solo run"))
}

/// Both exec modes.
fn config_matrix() -> Vec<(String, EngineConfig)> {
    [ExecMode::Serial, ExecMode::Parallel { threads: 3 }]
        .map(|exec| (exec.label(), EngineConfig::default().with_exec(exec)))
        .into()
}

fn rmat_graph() -> Graph {
    Graph::directed_from_edges(Rmat::gtgraph(11, 8).generate(5))
}

fn weighted_rmat_graph() -> Graph {
    Graph::directed_from_edges(weights::assign_default_weights(
        &Rmat::gtgraph(11, 8).generate(5),
        9,
    ))
}

/// N plain threads × M queries each, all over ONE bound graph — the
/// exact usage the pre-fix session API forbade (`RefCell` thread
/// confinement). Every result must match a solo baseline bit for bit.
#[test]
fn thread_fanout_is_bit_equal_to_solo_baselines() {
    const THREADS: usize = 4;
    let g = weighted_rmat_graph();
    let seeds: Vec<u32> = vec![0, 5, 9, 0, 13, 2];
    for (label, cfg) in config_matrix() {
        let baselines: Vec<_> = seeds
            .iter()
            .map(|&s| solo(&Sssp::new, s, &g, &cfg))
            .collect();
        let runtime = Runtime::new(cfg.clone()).expect("runtime");
        let bound = runtime.bind(&g);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (bound, seeds, baselines, label) = (&bound, &seeds, &baselines, &label);
                scope.spawn(move || {
                    // Stagger the seed order per thread so concurrent
                    // queries overlap different workloads.
                    for i in 0..seeds.len() {
                        let at = (i + t) % seeds.len();
                        let got = fingerprint(
                            bound
                                .run(Sssp::new(seeds[at]))
                                .execute()
                                .expect("concurrent run"),
                        );
                        assert_eq!(
                            got, baselines[at],
                            "{label}: thread {t} seed {} diverged under concurrency",
                            seeds[at]
                        );
                    }
                });
            }
        });
    }
}

/// Four threads race their first pulling queries on one bound graph
/// whose transpose nobody has built: one builds it, every query reads
/// it, each stays bit-equal to its serial baseline on a graph of its
/// own, and the graph ends up holding the transpose once.
#[test]
fn racing_first_pulls_build_one_transpose() {
    let g = rmat_graph();
    let out_bytes = g.footprint_bytes();
    let cfg = EngineConfig::default();
    let seeds = [0u32, 5, 9, 13];
    let pagerank = PageRank::new(&g);
    let pulls = |log: &ActivationLog| log.records.iter().any(|r| r.direction == Direction::Pull);
    let bfs_baselines: Vec<_> = seeds
        .iter()
        .map(|&s| solo(&Bfs::new, s, &rmat_graph(), &cfg))
        .collect();
    let pr_baseline = {
        let (own, runtime) = (rmat_graph(), Runtime::new(cfg.clone()).expect("runtime"));
        fingerprint(
            runtime
                .bind(&own)
                .run(&pagerank)
                .execute()
                .expect("pagerank"),
        )
    };
    assert!(pulls(&pr_baseline.log) && bfs_baselines.iter().all(|b| pulls(&b.log)));
    assert_eq!(
        g.footprint_bytes(),
        out_bytes,
        "the baselines ran on copies"
    );
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    let start = std::sync::Barrier::new(seeds.len());
    std::thread::scope(|scope| {
        for (t, (&seed, bfs_baseline)) in seeds.iter().zip(&bfs_baselines).enumerate() {
            let (bound, start, pagerank, pr_baseline) = (&bound, &start, &pagerank, &pr_baseline);
            scope.spawn(move || {
                let bfs = || fingerprint(bound.run(Bfs::new(seed)).execute().expect("bfs"));
                let pr = || fingerprint(bound.run(pagerank).execute().expect("pagerank"));
                start.wait();
                // Even threads open with PageRank, which pulls from its
                // first iteration; odd ones with a BFS, which pulls
                // mid-run.
                if t % 2 == 0 {
                    assert_eq!(&pr(), pr_baseline, "thread {t}: pagerank");
                }
                assert_eq!(&bfs(), bfs_baseline, "thread {t}: bfs from {seed}");
                assert_eq!(&pr(), pr_baseline, "thread {t}: pagerank");
            });
        }
    });
    assert_eq!(
        g.footprint_bytes(),
        2 * out_bytes,
        "out-CSR and one transpose"
    );
}

/// The `QueryPool` front-end serves the same bits: every outcome in
/// the report equals the solo baseline of its seed, every ticket slot
/// is filled in order, and every ticket takes one serving-thread turn.
#[test]
fn query_pool_serves_bit_equal_outcomes() {
    let g = rmat_graph();
    let seeds: Vec<u32> = vec![0, 3, 7, 11, 0, 5, 9, 2];
    for (label, cfg) in config_matrix() {
        let baselines: Vec<_> = seeds
            .iter()
            .map(|&s| solo(&Bfs::new, s, &g, &cfg))
            .collect();
        let runtime = Runtime::new(cfg.clone()).expect("runtime");
        let bound = runtime.bind(&g);
        let report = QueryPool::serve(
            &bound,
            Bfs::new(0),
            ServiceConfig::default().workers(3),
            |client| {
                for &seed in &seeds {
                    let ticket = client.submit(QueryRequest::new(seed))?;
                    assert!(ticket.index() < seeds.len());
                }
                Ok(())
            },
        )
        .expect("serve");
        assert_eq!(report.outcomes.len(), seeds.len(), "{label}");
        assert_eq!(report.completed(), seeds.len(), "{label}");
        assert_eq!(
            report.batches as usize,
            seeds.len(),
            "{label}: one turn per ticket"
        );
        assert!(report.queries_per_sec() > 0.0, "{label}");
        assert!(report.latency_percentile(99.0) >= report.latency_percentile(50.0));
        for (i, (outcome, baseline)) in report.outcomes.iter().zip(&baselines).enumerate() {
            assert_eq!(outcome.seed, seeds[i], "{label}: ticket order broken");
            let got = outcome.result.as_ref().expect("served query");
            assert_eq!(
                (&got.meta, got.report.iterations, &got.report.log),
                (&baseline.meta, baseline.iterations, &baseline.log),
                "{label}: served seed {} diverged from solo baseline",
                seeds[i]
            );
        }
    }
}

/// Supervision is per query: a pre-cancelled token and a zero deadline
/// abort exactly their own queries — typed, with progress — while the
/// clean peers in the same serve call stay bit-equal.
#[test]
fn cancellation_and_deadlines_abort_only_their_own_query() {
    let g = rmat_graph();
    let cfg = EngineConfig::default().with_exec(ExecMode::Parallel { threads: 2 });
    let baseline = solo(&Bfs::new, 0, &g, &cfg);
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    let doomed = CancelToken::new();
    doomed.cancel();
    let report = QueryPool::serve(
        &bound,
        Bfs::new(0),
        ServiceConfig::default().workers(2),
        |client| {
            client.submit(QueryRequest::new(0))?;
            client.submit(QueryRequest::new(0).cancel_token(doomed.clone()))?;
            client.submit(QueryRequest::new(0).deadline(Duration::ZERO))?;
            client.submit(QueryRequest::new(0))?;
            Ok(())
        },
    )
    .expect("serve");
    assert_eq!(report.outcomes.len(), 4);
    match &report.outcomes[1].result {
        Err(SimdxError::Cancelled { .. }) => {}
        other => panic!("cancelled query: {other:?}"),
    }
    match &report.outcomes[2].result {
        Err(SimdxError::DeadlineExceeded { .. }) => {}
        other => panic!("deadline query: {other:?}"),
    }
    for &clean in &[0usize, 3] {
        let got = report.outcomes[clean].result.as_ref().expect("clean peer");
        assert_eq!(
            (&got.meta, got.report.iterations, &got.report.log),
            (&baseline.meta, baseline.iterations, &baseline.log),
            "peer #{clean} was disturbed by a neighbouring abort"
        );
    }
    // The session is untouched: the same seed still serves bit-equal.
    let after = fingerprint(bound.run(Bfs::new(0)).execute().expect("after"));
    assert_eq!(after, baseline);
}

/// [`AdmissionPolicy::Reject`] sheds load deterministically: with one
/// serving thread parked on the gate and a depth-1 queue already
/// holding a request, every further submission is `Overloaded` — and
/// the two admitted queries still complete exactly.
#[test]
fn reject_admission_sheds_load_without_corrupting_admitted_queries() {
    let g = rmat_graph();
    let program = GatedLevels::new(&[0]);
    let runtime = Runtime::new(EngineConfig::default()).expect("runtime");
    let bound = runtime.bind(&g);
    let baseline = fingerprint(
        bound
            .run(GatedLevels::new(&[]))
            .execute()
            .expect("baseline"),
    );
    let report = QueryPool::serve(
        &bound,
        program.clone(),
        ServiceConfig::default()
            .workers(1)
            .queue_depth(1)
            .admission(AdmissionPolicy::Reject),
        |client| {
            // First query: picked up by the lone serving thread, which
            // parks on the gate inside `init`.
            client.submit(QueryRequest::new(0))?;
            program.wait_entered(0);
            // Second query: admitted into the depth-1 queue.
            let queued = client.submit(QueryRequest::new(0))?;
            assert_eq!(queued.index(), 1);
            assert_eq!(client.queued(), 1);
            // Every further submission must shed.
            for _ in 0..3 {
                match client.submit(QueryRequest::new(0)) {
                    Err(SimdxError::Overloaded {
                        capacity: 1,
                        depth: 1,
                    }) => {}
                    other => panic!("expected Overloaded, got {other:?}"),
                }
            }
            program.release(0);
            Ok(())
        },
    )
    .expect("serve");
    // Exactly the two admitted queries ran, both bit-equal.
    assert_eq!(report.outcomes.len(), 2);
    for outcome in &report.outcomes {
        let got = outcome.result.as_ref().expect("admitted query");
        assert_eq!(
            (&got.meta, got.report.iterations, &got.report.log),
            (&baseline.meta, baseline.iterations, &baseline.log),
            "admitted query diverged after load shedding"
        );
    }
}

/// `CloseMode::Drain` from inside the producer: everything already
/// admitted completes bit-equal, and every later submission fails with
/// a typed error instead of being silently dropped.
#[test]
fn drain_close_finishes_admitted_work_and_rejects_new_submissions() {
    let g = rmat_graph();
    let cfg = EngineConfig::default();
    let baseline = solo(&Bfs::new, 0, &g, &cfg);
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    let report = QueryPool::serve(
        &bound,
        Bfs::new(0),
        ServiceConfig::default().workers(2),
        |client| {
            for _ in 0..4 {
                client.submit(QueryRequest::new(0))?;
            }
            client.close(CloseMode::Drain);
            match client.submit(QueryRequest::new(0)) {
                Err(SimdxError::InvalidQuery { reason }) => {
                    assert!(reason.contains("closed"), "reason: {reason}");
                }
                other => panic!("submit after close must fail typed, got {other:?}"),
            }
            Ok(())
        },
    )
    .expect("serve");
    assert_eq!(report.outcomes.len(), 4);
    assert_eq!(report.completed(), 4, "drain finishes every admitted query");
    for outcome in &report.outcomes {
        let got = outcome.result.as_ref().expect("drained query");
        assert_eq!(
            (&got.meta, got.report.iterations, &got.report.log),
            (&baseline.meta, baseline.iterations, &baseline.log),
            "drained query diverged"
        );
    }
}

/// `CloseMode::Abort` with checkpointing armed: the in-flight query
/// aborts at its next supervision check and hands its boundary snapshot
/// back through the outcome (resumable to a bit-equal completion), and
/// queued-but-unserved queries come back as zero-progress, zero-attempt
/// cancellations — every admitted ticket still gets an outcome.
#[test]
fn abort_close_cancels_outstanding_queries_and_hands_back_checkpoints() {
    let g = rmat_graph();
    let program = GatedLevels::new(&[0]);
    let runtime = Runtime::new(EngineConfig::default()).expect("runtime");
    let bound = runtime.bind(&g);
    let baseline = fingerprint(
        bound
            .run(GatedLevels::new(&[]))
            .execute()
            .expect("baseline"),
    );
    let report = QueryPool::serve(
        &bound,
        program.clone(),
        ServiceConfig::default()
            .workers(1)
            .queue_depth(8)
            .checkpoint_aborts(true),
        |client| {
            // First query: picked up by the lone serving thread, which
            // parks on the gate inside `init`.
            client.submit(QueryRequest::new(0))?;
            program.wait_entered(0);
            // Two more queries queue behind it, then the pool aborts.
            client.submit(QueryRequest::new(0))?;
            client.submit(QueryRequest::new(0))?;
            client.close(CloseMode::Abort);
            assert!(
                matches!(
                    client.submit(QueryRequest::new(0)),
                    Err(SimdxError::InvalidQuery { .. })
                ),
                "submit after abort-close must fail typed"
            );
            program.release(0);
            Ok(())
        },
    )
    .expect("serve");
    assert_eq!(report.outcomes.len(), 3, "every admitted ticket reports");
    // The in-flight query: cancelled at its first boundary, snapshot
    // handed back.
    let inflight = &report.outcomes[0];
    assert!(
        matches!(inflight.result, Err(SimdxError::Cancelled { .. })),
        "in-flight query aborts as Cancelled, got {:?}",
        inflight.result
    );
    assert_eq!(inflight.attempts, 1);
    let cp = inflight.checkpoint.clone().expect("snapshot handed back");
    let resumed = fingerprint(
        bound
            .resume(program, cp)
            .execute()
            .expect("handed-back checkpoint resumes"),
    );
    assert_eq!(resumed, baseline, "resumed abort-close query diverged");
    // The queued-but-unserved queries: zero progress, zero attempts.
    for outcome in &report.outcomes[1..] {
        match &outcome.result {
            Err(SimdxError::Cancelled { progress }) => {
                assert_eq!(progress.iterations, 0);
                assert_eq!(progress.edges_examined, 0);
            }
            other => panic!("unserved query must cancel, got {other:?}"),
        }
        assert_eq!(outcome.attempts, 0);
        assert!(outcome.checkpoint.is_none());
    }
}

/// A serving thread takes one ticket per turn, so `CloseMode::Abort`
/// finds the tickets queued behind the in-flight one still in the
/// queue: with A served, B in flight and C, D queued, the close cancels
/// B — checkpoint captured and, since the pool's own token cancelled
/// it, spilled — while C and D come back as zero-attempt cancellations
/// with no checkpoint and nothing in the store.
#[test]
fn abort_close_leaves_queued_tickets_unserved_and_unspilled() {
    let (a, b, c, d) = (0, 1, 2, 3);
    let dir = std::env::temp_dir().join(format!("simdx-serving-abort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g = rmat_graph();
    let program = GatedLevels::new(&[a, b]);
    let runtime = Runtime::new(EngineConfig::default()).expect("runtime");
    let bound = runtime.bind(&g);
    let store = DirStore::open(&dir).expect("open store");
    let report = QueryPool::serve(
        &bound,
        program.clone(),
        ServiceConfig::default()
            .workers(1)
            .checkpoint_aborts(true)
            .durability(DurabilityPolicy::spill_to(store)),
        |client| {
            client.submit(QueryRequest::new(a))?;
            program.wait_entered(a);
            for seed in [b, c, d] {
                client.submit(QueryRequest::new(seed))?;
            }
            program.release(a);
            program.wait_entered(b);
            client.close(CloseMode::Abort);
            program.release(b);
            Ok(())
        },
    )
    .expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.outcomes.len(), 4, "every admitted ticket reports");
    assert!(
        report.outcomes[0].result.is_ok(),
        "A finished before the close"
    );
    let inflight = &report.outcomes[1];
    assert!(
        matches!(inflight.result, Err(SimdxError::Cancelled { .. })),
        "B aborts as Cancelled, got {:?}",
        inflight.result
    );
    assert_eq!(inflight.attempts, 1);
    assert!(inflight.checkpoint.is_some(), "B hands its boundary back");
    for (ticket, outcome) in report.outcomes.iter().enumerate().skip(2) {
        assert!(
            matches!(outcome.result, Err(SimdxError::Cancelled { .. })),
            "ticket {ticket}: {:?}",
            outcome.result
        );
        assert_eq!(outcome.attempts, 0, "ticket {ticket} ran after the close");
        assert!(outcome.checkpoint.is_none(), "ticket {ticket}");
    }
    assert_eq!(report.spilled, vec![1], "only B's ticket spills");
}

/// No serving thread holds queued work while a peer idles: with both
/// threads held on A and B and tickets C, D queued, releasing A and B
/// lets each thread take one of C and D, so D starts while C is still
/// held in `init`.
#[test]
fn an_idle_serving_thread_takes_the_next_ticket_while_its_peer_is_busy() {
    let (a, b, c, d) = (0, 1, 2, 3);
    let g = rmat_graph();
    let program = GatedLevels::new(&[a, b, c, d]);
    let runtime = Runtime::new(EngineConfig::default()).expect("runtime");
    let bound = runtime.bind(&g);
    let mut overlapped = false;
    let report = QueryPool::serve(
        &bound,
        program.clone(),
        ServiceConfig::default().workers(2),
        |client| {
            for seed in [a, b] {
                client.submit(QueryRequest::new(seed))?;
                program.wait_entered(seed);
            }
            client.submit(QueryRequest::new(c))?;
            client.submit(QueryRequest::new(d))?;
            program.release(a);
            program.release(b);
            program.wait_entered(c);
            overlapped = program.entered_within(d, Duration::from_secs(30));
            program.release(c);
            program.release(d);
            Ok(())
        },
    )
    .expect("serve");
    assert!(overlapped, "D waited behind C on one serving thread");
    assert_eq!(report.completed(), 4);
    assert_eq!(report.batches, 4, "one turn per ticket");
}

/// A producer that panics after submitting must not hang `serve`: the
/// queue closes on the unwind, the serving threads drain what was
/// admitted and exit, and the scope re-raises the producer's own panic.
/// `serve` runs on a helper thread so that a regression shows up as a
/// timeout here instead of a hung test binary.
#[test]
fn a_panicking_producer_unwinds_through_serve_and_leaves_the_session_usable() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let g = rmat_graph();
        let runtime = Runtime::new(EngineConfig::default()).expect("runtime");
        let bound = runtime.bind(&g);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            QueryPool::serve(
                &bound,
                Bfs::new(0),
                ServiceConfig::default().workers(2),
                |client| {
                    client.submit(QueryRequest::new(3))?;
                    panic!("producer bug");
                },
            )
            .map(|report| report.outcomes.len())
        }));
        let after = fingerprint(bound.run(Bfs::new(3)).execute().expect("clean query"));
        let _ = tx.send((caught, after));
    });
    let (caught, after) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("serve never returned from a panicking producer");
    let payload = caught.expect_err("serve must re-raise the producer's panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"producer bug"));
    assert_eq!(
        after,
        solo(&Bfs::new, 3, &rmat_graph(), &EngineConfig::default()),
        "the session must serve a clean query after the unwind"
    );
}

/// Repeated worker panics trip the circuit breaker: after
/// `breaker_threshold` consecutive worker-panic outcomes the pool sheds
/// further submissions with [`SimdxError::Unavailable`] carrying a
/// retry-after hint bounded by the cooldown.
#[test]
fn breaker_opens_under_repeated_panics_and_sheds() {
    let g = rmat_graph();
    let cfg = EngineConfig::default()
        .with_exec(ExecMode::Parallel { threads: 3 })
        .with_direction(DirectionPolicy::FixedPush);
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    let cooldown = Duration::from_secs(30);
    // Every query panics on its first push sweep, so the breaker's
    // consecutive count can only grow, making the open state
    // deterministic regardless of timing.
    let seam = Seam::Compute(0);
    let program = Faulty::new(Bfs::new(0), seam, Action::Panic).every_time();
    let mut shed = None;
    let report = QueryPool::serve(
        &bound,
        program,
        ServiceConfig::default().workers(1).breaker(2, cooldown),
        |client| {
            client.submit(QueryRequest::new(0))?;
            client.submit(QueryRequest::new(0))?;
            // Both queries panic; once their outcomes land the breaker
            // is open and every further submission sheds.
            for _ in 0..2000 {
                match client.submit(QueryRequest::new(0)) {
                    Err(SimdxError::Unavailable { retry_after }) => {
                        shed = Some(retry_after);
                        break;
                    }
                    Ok(_) => std::thread::sleep(Duration::from_millis(5)),
                    Err(other) => panic!("unexpected submit error: {other:?}"),
                }
            }
            Ok(())
        },
    )
    .expect("serve");
    for outcome in &report.outcomes {
        let err = outcome.result.as_ref().expect_err("every query panics");
        assert_eq!(panic_payload(err), seam.payload());
    }
    let retry_after = shed.expect("breaker never opened");
    assert!(
        retry_after <= cooldown,
        "retry-after hint must be bounded by the cooldown, got {retry_after:?}"
    );
    // The breaker is per-serve state: a fresh serve call admits again.
    let report = QueryPool::serve(
        &bound,
        Bfs::new(0),
        ServiceConfig::default().breaker(2, cooldown),
        |client| client.submit(QueryRequest::new(0)).map(|_| ()),
    )
    .expect("fresh serve");
    assert_eq!(report.completed(), 1, "a clean program serves cleanly");
}

/// A panic raised mid-stream by one query's program — a
/// `Seam::Compute(1)` fault, which strikes the serial push kernel on
/// the serving thread of whichever query first pushes from a level-1
/// vertex — fails exactly that query with a typed error, leaves every
/// concurrent peer's answer bit-equal, and the session serves the
/// failed seed cleanly on the next call.
#[test]
fn injected_worker_panic_spares_concurrent_peers() {
    let g = rmat_graph();
    // Push, pinned, so the fault's seam is on every query's path; under
    // `Parallel` it runs the serial kernel on the serving thread.
    let cfg = EngineConfig::default()
        .with_exec(ExecMode::Parallel { threads: 3 })
        .with_direction(DirectionPolicy::FixedPush);
    let baseline = solo(&Bfs::new, 0, &g, &cfg);
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    // One fault, shared by the nine tickets' clones of the program: it
    // strikes whichever query first pushes from a level-1 vertex.
    let seam = Seam::Compute(1);
    let report = QueryPool::serve(
        &bound,
        Faulty::new(Bfs::new(0), seam, Action::Panic),
        ServiceConfig::default().workers(3),
        |client| {
            for _ in 0..9 {
                client.submit(QueryRequest::new(0))?;
            }
            Ok(())
        },
    )
    .expect("serve survives a worker panic");
    assert_eq!(report.outcomes.len(), 9);
    let mut panics = 0;
    for outcome in &report.outcomes {
        match &outcome.result {
            Err(err) => {
                assert_eq!(panic_payload(err), seam.payload());
                panics += 1;
            }
            Ok(got) => assert_eq!(
                (&got.meta, got.report.iterations, &got.report.log),
                (&baseline.meta, baseline.iterations, &baseline.log),
                "peer of the panicked query diverged"
            ),
        }
    }
    assert_eq!(panics, 1, "the single fault must fail one query");
    // The very next query over the same session is clean and bit-equal.
    let after = fingerprint(bound.run(Bfs::new(0)).execute().expect("rerun"));
    assert_eq!(after, baseline);
}

/// The same 9-query matrix with `RetryPolicy { max_attempts: 2 }`: the
/// mid-stream worker panic is absorbed by a checkpointed retry, so
/// **zero** queries fail — the hit query reports two attempts, its
/// peers one, and every result stays bit-equal to the solo baseline.
#[test]
fn retry_policy_absorbs_an_injected_worker_panic() {
    let g = rmat_graph();
    let cfg = EngineConfig::default()
        .with_exec(ExecMode::Parallel { threads: 3 })
        .with_direction(DirectionPolicy::FixedPush);
    let baseline = solo(&Bfs::new, 0, &g, &cfg);
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    let program = Faulty::new(Bfs::new(0), Seam::Compute(1), Action::Panic);
    let report = QueryPool::serve(
        &bound,
        program.clone(),
        ServiceConfig::default()
            .workers(3)
            .retry(RetryPolicy::default().max_attempts(2)),
        |client| {
            for _ in 0..9 {
                client.submit(QueryRequest::new(0))?;
            }
            Ok(())
        },
    )
    .expect("serve");
    assert!(program.struck(), "the fault never struck");
    assert_eq!(report.outcomes.len(), 9);
    assert_eq!(report.completed(), 9, "retries must leave zero failures");
    let mut retried = 0;
    for outcome in &report.outcomes {
        let got = outcome.result.as_ref().expect("no failed queries");
        assert_eq!(
            (&got.meta, got.report.iterations, &got.report.log),
            (&baseline.meta, baseline.iterations, &baseline.log),
            "retried or peer query diverged from the solo baseline"
        );
        assert!(outcome.checkpoint.is_none(), "successes carry no snapshot");
        match outcome.attempts {
            1 => {}
            2 => retried += 1,
            n => panic!("attempts capped at 2, got {n}"),
        }
    }
    assert_eq!(retried, 1, "exactly the hit query takes a second attempt");
}
