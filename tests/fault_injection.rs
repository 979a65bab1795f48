//! Fault containment, driven through the public seams.
//!
//! The only code a run executes that the engine does not own is the
//! caller's: the `AccProgram` methods and the metadata type's `Clone`.
//! So that is where every fault here enters (`tests/support`), each at
//! the seam that reaches one engine handler:
//!
//! | seam | handler |
//! |---|---|
//! | `compute`, direction pinned to push / pull | the push / pull sweep (the submitter, in both exec modes) |
//! | `active`, `FilterPolicy::BallotOnly` | the ballot scan (pool workers under `ExecMode::Parallel`) |
//! | `init` | the submitter's `catch_unwind`, after the scratch reset |
//! | `name`, armed from `observe` | the boundary capture, before it writes the slot |
//! | `Level::clone` | the restore (`Run::init` copies the restored metadata) |
//!
//! and asserts the three guarantees the supervision subsystem makes
//! about a contained fault:
//!
//! 1. the run comes back as a *typed* [`SimdxError::WorkerPanicked`]
//!    carrying the fault's own payload (never a process abort, never a
//!    hung pool; a seam that stopped firing fails the payload check);
//! 2. the `Runtime` and `BoundGraph` stay usable — the poisoned pool is
//!    rebuilt transparently before the next query;
//! 3. the next clean run over the *same* session, or the resume of the
//!    handed-back checkpoint, is bit-equal to a fresh engine, in both
//!    exec modes.
//!
//! Every trigger belongs to one program value or one thread, so the
//! tests share no state and run concurrently.

use std::time::Duration;

use simdx::algos::{Bfs, Sssp};
use simdx::core::jit::ActivationLog;
use simdx::core::prelude::*;
use simdx::graph::gen::Rmat;
use simdx::graph::{weights, EdgeList, Graph};
use simdx_gpu::executor::ExecutorStats;

mod support;
use support::{arm_clone_fault, disarm_clone_fault, panic_payload, Action, Faulty, Levels, Seam};

/// Everything that must match bit for bit after recovery.
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

fn fresh<P: AccProgram>(program: P, g: &Graph, cfg: EngineConfig) -> Fingerprint<P::Meta> {
    let runtime = Runtime::new(cfg).expect("runtime");
    fingerprint(runtime.bind(g).run(program).execute().expect("fresh run"))
}

fn rmat_graph() -> Graph {
    Graph::directed_from_edges(Rmat::gtgraph(11, 8).generate(5))
}

/// Both exec modes.
fn config_matrix() -> Vec<(String, EngineConfig)> {
    [ExecMode::Serial, ExecMode::Parallel { threads: 3 }]
        .map(|exec| (exec.label(), EngineConfig::default().with_exec(exec)))
        .into()
}

/// A BFS from vertex 0 that panics once at `seam`.
fn bfs_fault(seam: Seam<u32>) -> Faulty<Bfs> {
    Faulty::new(Bfs::new(0), seam, Action::Panic)
}

/// Drives one query into `seam` over a reused session and asserts the
/// typed error plus bit-equal recovery.
fn assert_contained_and_recovered(label: &str, g: &Graph, cfg: EngineConfig, seam: Seam<u32>) {
    let baseline = fresh(Bfs::new(0), g, cfg.clone());
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(g);

    let err = bound
        .run(bfs_fault(seam))
        .execute()
        .expect_err("the fault must abort the run");
    assert_eq!(panic_payload(&err), seam.payload(), "{label}");
    if seam == Seam::Init {
        assert!(
            matches!(err, SimdxError::WorkerPanicked { worker: 0, .. }),
            "{label}: init runs on the submitter thread: {err:?}"
        );
    }

    // The same session (pool rebuilt if the panic poisoned it) must
    // serve the next query bit-equal to a fresh engine.
    let after = fingerprint(bound.run(Bfs::new(0)).execute().expect("recovery run"));
    assert_eq!(
        after, baseline,
        "{label}: recovery run diverged from fresh engine"
    );
}

#[test]
fn injected_panics_are_typed_and_recovery_is_bit_equal_across_the_matrix() {
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        let push = cfg.clone().with_direction(DirectionPolicy::FixedPush);
        let ballot = cfg.clone().with_filter(FilterPolicy::BallotOnly);
        assert_contained_and_recovered(&label, &g, push, Seam::Compute(0));
        assert_contained_and_recovered(&label, &g, ballot, Seam::Active(1));
        assert_contained_and_recovered(&label, &g, cfg, Seam::Init);
    }
}

#[test]
fn pull_sweep_faults_are_contained_in_both_exec_modes() {
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        let pull = cfg.with_direction(DirectionPolicy::FixedPull);
        assert_contained_and_recovered(&label, &g, pull, Seam::Compute(0));
    }
}

#[test]
fn parallel_is_not_silently_serial() {
    // The ballot scan is the one step `Parallel` runs on the pool, one
    // range of whole occupancy words per worker. On a 300-vertex path
    // with a chord 0 -> 299, the first iteration changes vertices 1 and
    // 299, so the scan reads `active` at 299, in the last of five
    // words: worker 2's range of three. A fault there must report that
    // worker, where the serial scan reports the submitter.
    let n = 300u32;
    let mut pairs: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
    pairs.push((0, n - 1));
    let g = Graph::directed_from_edges(EdgeList::from_pairs(pairs));
    let seam = Seam::ActiveAt(n - 1);
    for (exec, worker) in [
        (ExecMode::Parallel { threads: 3 }, 2),
        (ExecMode::Serial, 0),
    ] {
        let cfg = EngineConfig::default()
            .with_exec(exec)
            .with_filter(FilterPolicy::BallotOnly)
            .with_direction(DirectionPolicy::FixedPush);
        let runtime = Runtime::new(cfg).expect("runtime");
        let program = Faulty::new(Bfs::new(0), seam, Action::Panic);
        let err = runtime
            .bind(&g)
            .run(program.clone())
            .execute()
            .expect_err("the fault must abort the run");
        assert!(
            program.struck(),
            "{exec:?}: the scan never read the last vertex"
        );
        assert_eq!(panic_payload(&err), seam.payload(), "{exec:?}");
        assert!(
            matches!(err, SimdxError::WorkerPanicked { worker: w, .. } if w == worker),
            "{exec:?}: expected worker {worker}: {err:?}"
        );
    }
}

#[test]
fn sssp_recovers_bit_equal_after_a_push_fault() {
    // A second algorithm through the same harness: SSSP's aggregation
    // combine exercises the dirty-stamp path the recovery run must
    // leave pristine.
    let g = Graph::directed_from_edges(weights::assign_default_weights(
        &Rmat::gtgraph(11, 8).generate(5),
        9,
    ));
    for (label, cfg) in config_matrix() {
        let cfg = cfg.with_direction(DirectionPolicy::FixedPush);
        let baseline = fresh(Sssp::new(0), &g, cfg.clone());
        let runtime = Runtime::new(cfg).expect("runtime");
        let bound = runtime.bind(&g);
        let seam = Seam::Compute(0);
        let err = bound
            .run(Faulty::new(Sssp::new(0), seam, Action::Panic))
            .execute()
            .expect_err("the fault must abort the run");
        assert_eq!(panic_payload(&err), seam.payload(), "{label}");
        let after = fingerprint(bound.run(Sssp::new(0)).execute().expect("recovery"));
        assert_eq!(after, baseline, "{label}: sssp recovery diverged");
    }
}

#[test]
fn a_push_panic_deep_into_a_run_leaves_no_charge_behind() {
    // The matrix above panics on the very first sweep. Here the panic
    // lands several sweeps in, after the session's kernel-charge
    // accumulators have been opened, fed and committed a number of
    // times, and while one of them is open for the sweep that dies.
    // Push runs the serial kernel in both exec modes, so in the
    // parallel cells too the panic unwinds the submitting thread
    // mid-sweep, with the pool idle and the open charge, the partial
    // thread bins and the half-marked changed set left behind.
    // Whatever they hold must not reach the next query.
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        let cfg = cfg.with_direction(DirectionPolicy::FixedPush);
        let baseline = fresh(Bfs::new(0), &g, cfg.clone());
        let runtime = Runtime::new(cfg).expect("runtime");
        let bound = runtime.bind(&g);
        for level in [1, 3] {
            assert!(baseline.iterations > level + 1, "{label}: run too shallow");
            let seam = Seam::Compute(level);
            let err = bound
                .run(bfs_fault(seam))
                .execute()
                .expect_err("the fault must abort the run");
            assert_eq!(panic_payload(&err), seam.payload(), "{label}/level {level}");
            let after = fingerprint(bound.run(Bfs::new(0)).execute().expect("recovery"));
            assert_eq!(after, baseline, "{label}/level {level}: recovery diverged");
        }
    }
}

#[test]
fn delay_faults_model_stragglers_without_changing_results() {
    // A straggler worker (sleep, not panic) must not affect anything
    // the bit-equality contract covers — results depend on the merge
    // order, never on worker timing.
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        let cfg = cfg.with_filter(FilterPolicy::BallotOnly);
        let baseline = fresh(Bfs::new(0), &g, cfg.clone());
        let runtime = Runtime::new(cfg).expect("runtime");
        let bound = runtime.bind(&g);
        let stall = Action::Sleep(Duration::from_millis(2));
        let in_compute = Faulty::new(Bfs::new(0), Seam::Compute(0), stall);
        let in_ballot = Faulty::new(in_compute.clone(), Seam::Active(1), stall);
        let delayed = fingerprint(bound.run(&in_ballot).execute().expect("delayed run"));
        assert!(
            in_compute.struck() && in_ballot.struck(),
            "{label}: a straggler never stalled"
        );
        assert_eq!(delayed, baseline, "{label}: straggler changed results");
    }
}

/// Every seam's fault recovers through the checkpoint path: the armed
/// run aborts with a typed `WorkerPanicked` carrying its last boundary
/// snapshot (none when the fault struck before the first boundary), and
/// resuming from it — or rerunning fresh — is bit-equal to an
/// uninterrupted fresh engine, across the knob matrix. This includes a
/// fault raised by the capture itself: the `name` seam, armed once
/// iteration 1 is observed, strikes in the capture at the top of
/// iteration 2 before it writes, so the slot keeps boundary 1.
#[test]
fn every_panic_site_recovers_through_checkpoint_resume() {
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        // (seam, aimed config, boundary the slot must hold)
        let cases = [
            (
                Seam::Compute(2),
                cfg.clone().with_direction(DirectionPolicy::FixedPush),
                Some(2),
            ),
            (
                Seam::Compute(2),
                cfg.clone().with_direction(DirectionPolicy::FixedPull),
                Some(2),
            ),
            (
                Seam::Active(2),
                cfg.clone().with_filter(FilterPolicy::BallotOnly),
                Some(1),
            ),
            (Seam::Init, cfg.clone(), None),
            (Seam::Name, cfg.clone(), Some(1)),
        ];
        for (seam, cfg, boundary) in cases {
            let case = format!("{label}/{seam:?}");
            let baseline = fresh(Bfs::new(0), &g, cfg.clone());
            let runtime = Runtime::new(cfg).expect("runtime");
            let bound = runtime.bind(&g);
            let program = bfs_fault(seam);
            let aborted = bound
                .run(&program)
                .observe(|rec| {
                    if seam == Seam::Name && rec.iteration == 1 {
                        program.arm();
                    }
                })
                .checkpoint_on_abort()
                .execute()
                .expect_err("the fault must abort the run");
            assert_eq!(panic_payload(&aborted.error), seam.payload(), "{case}");
            assert_eq!(
                aborted.checkpoint.as_ref().map(RunCheckpoint::iteration),
                boundary,
                "{case}: wrong boundary in the slot"
            );
            let after = match aborted.checkpoint {
                Some(cp) => bound
                    .resume(Bfs::new(0), cp)
                    .execute()
                    .unwrap_or_else(|e| panic!("{case}: resume failed: {e}")),
                None => bound.run(Bfs::new(0)).execute().expect("fresh rerun"),
            };
            assert_eq!(
                fingerprint(after),
                baseline,
                "{case}: checkpointed recovery diverged from fresh engine"
            );
        }
    }
}

/// A panic while restoring — here the metadata `Clone` the restore's
/// `metadata_prev` copy calls — is contained like any worker panic, and
/// the checkpoint being resumed comes back in the `RunAborted` — it
/// never left the slot — and still resumes bit-equal afterwards.
#[test]
fn restore_faults_are_contained_and_the_checkpoint_survives() {
    let g = rmat_graph();
    let cfg = EngineConfig::default().with_exec(ExecMode::Parallel { threads: 3 });
    let baseline = fresh(Levels { src: 0 }, &g, cfg.clone());
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    let aborted = bound
        .run(Levels { src: 0 })
        .max_iterations(2)
        .checkpoint_on_abort()
        .execute()
        .expect_err("capped run");
    assert_eq!(
        aborted.error,
        SimdxError::IterationLimit { max_iterations: 2 }
    );
    let cp = aborted.checkpoint.expect("boundary snapshot");
    arm_clone_fault(0);
    let err = bound
        .resume(Levels { src: 0 }, cp)
        .execute()
        .expect_err("the armed restore must abort");
    assert_eq!(panic_payload(&err.error), "injected fault in Level::clone");
    assert!(
        matches!(err.error, SimdxError::WorkerPanicked { worker: 0, .. }),
        "restore runs on the submitter thread: {:?}",
        err.error
    );
    let cp = err
        .checkpoint
        .expect("the resumed checkpoint is handed back");
    assert_eq!(cp.iteration(), 2);
    let after = fingerprint(
        bound
            .resume(Levels { src: 0 }, cp)
            .execute()
            .expect("clean resume after contained restore fault"),
    );
    assert_eq!(after, baseline, "resume after restore fault diverged");
}

/// The boundary capture copies metadata by `Copy`, never through the
/// metadata type's `Clone`: a `Clone` armed to panic half-way through
/// the capture at the top of iteration 2 never fires, so no user code
/// can leave the slot torn between two boundaries, and the run
/// completes bit-equal.
#[test]
fn capture_never_runs_the_metadata_clone() {
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        let baseline = fresh(Levels { src: 0 }, &g, cfg.clone());
        let runtime = Runtime::new(cfg).expect("runtime");
        let bound = runtime.bind(&g);
        let half = g.num_vertices() as usize / 2;
        let run = bound
            .run(Levels { src: 0 })
            .observe(|rec| {
                if rec.iteration == 1 {
                    arm_clone_fault(half);
                }
            })
            .checkpoint_on_abort()
            .execute()
            .unwrap_or_else(|a| panic!("{label}: the armed capture aborted: {}", a.error));
        assert!(disarm_clone_fault(), "{label}: a capture cloned metadata");
        assert!(baseline.iterations > 2, "{label}: run too shallow");
        assert_eq!(
            fingerprint(run),
            baseline,
            "{label}: armed capture diverged"
        );
    }
}
