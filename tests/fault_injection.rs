//! Fault-injection differential matrix (`--features fault-inject`).
//!
//! Arms deterministic faults (`crates/core/src/fault.rs`) at the named
//! engine sites — the ballot filter, the push and pull sweeps, the
//! bind-time grid build and the scratch reset — and asserts the three
//! guarantees the supervision subsystem makes about a contained fault:
//!
//! 1. the run comes back as a *typed* [`SimdxError::WorkerPanicked`]
//!    (never a process abort, never a hung pool);
//! 2. the `Runtime` and `BoundGraph` stay usable — the poisoned pool is
//!    rebuilt transparently before the next query;
//! 3. the next clean run over the *same* session is bit-equal to a
//!    fresh engine, in both exec modes.
//!
//! Fault state is process-global, so every test body holds
//! [`TEST_LOCK`] for its whole duration: a baseline run racing another
//! test's armed plan would absorb that test's panic.

#![cfg(feature = "fault-inject")]

use std::sync::Mutex;
use std::time::Duration;

use simdx::algos::{Bfs, Sssp};
use simdx::core::fault::{self, FaultPlan, FaultSite};
use simdx::core::jit::ActivationLog;
use simdx::core::prelude::*;
use simdx::graph::gen::Rmat;
use simdx::graph::{weights, Graph};
use simdx_gpu::executor::ExecutorStats;

/// Serializes the test bodies in this binary (see the module docs).
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

/// The per-site config tweak that makes the site deterministically
/// reachable on the first iteration, regardless of the JIT's choices.
fn aim_at(site: FaultSite, cfg: EngineConfig) -> EngineConfig {
    match site {
        // BFS opens with a tiny frontier, but pin the direction anyway
        // so the adaptive heuristic can never route around the fault.
        FaultSite::Push => cfg.with_direction(DirectionPolicy::FixedPush),
        FaultSite::Pull => cfg.with_direction(DirectionPolicy::FixedPull),
        FaultSite::Ballot => cfg.with_filter(FilterPolicy::BallotOnly),
        // Fires at `execute()` entry / bind time under any config.
        FaultSite::ScratchReset | FaultSite::GridBuild => cfg,
        // Fires whenever checkpoint capture / restore is armed,
        // regardless of the engine knobs.
        FaultSite::Capture | FaultSite::Restore => cfg,
        // Fires on spill, not inside a run; exercised end-to-end by
        // tests/durable_recovery.rs.
        FaultSite::Persist => cfg,
    }
}

/// Arms a first-hit panic at `site`, drives one query into it over a
/// reused session, and asserts the typed error plus bit-equal recovery.
fn assert_contained_and_recovered(label: &str, g: &Graph, cfg: EngineConfig, site: FaultSite) {
    let baseline = fresh(Bfs::new(0), g, cfg.clone());
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(g);

    let err = {
        let _armed = fault::install(FaultPlan::new().panic_on(site));
        bound
            .run(Bfs::new(0))
            .execute()
            .expect_err("armed fault must abort the run")
    };
    match &err {
        SimdxError::WorkerPanicked { worker, payload } => {
            assert!(
                payload.contains(&format!("injected fault at {}", site.label())),
                "{label}/{}: wrong payload: {payload}",
                site.label()
            );
            if site == FaultSite::ScratchReset {
                assert_eq!(
                    *worker, 0,
                    "{label}: scratch reset runs on the submitter thread"
                );
            }
        }
        other => panic!(
            "{label}/{}: expected WorkerPanicked, got {other:?}",
            site.label()
        ),
    }

    // Disarmed: the same session (pool rebuilt if the panic poisoned
    // it) must serve the next query bit-equal to a fresh engine.
    let after = fingerprint(bound.run(Bfs::new(0)).execute().expect("recovery run"));
    assert_eq!(
        after,
        baseline,
        "{label}/{}: recovery run diverged from fresh engine",
        site.label()
    );
}

#[test]
fn injected_panics_are_typed_and_recovery_is_bit_equal_across_the_matrix() {
    let _serial = lock();
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        for site in [FaultSite::Push, FaultSite::Ballot, FaultSite::ScratchReset] {
            assert_contained_and_recovered(&label, &g, aim_at(site, cfg.clone()), site);
        }
    }
}

#[test]
fn pull_sweep_faults_are_contained_in_both_exec_modes() {
    let _serial = lock();
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        assert_contained_and_recovered(&label, &g, aim_at(FaultSite::Pull, cfg), FaultSite::Pull);
    }
}

#[test]
fn sssp_recovers_bit_equal_after_a_push_fault() {
    // A second algorithm through the same harness: SSSP's aggregation
    // combine exercises the dirty-stamp path the recovery run must
    // leave pristine.
    let _serial = lock();
    let g = Graph::directed_from_edges(weights::assign_default_weights(
        &Rmat::gtgraph(11, 8).generate(5),
        9,
    ));
    for (label, cfg) in config_matrix() {
        let cfg = aim_at(FaultSite::Push, cfg);
        let baseline = fresh(Sssp::new(0), &g, cfg.clone());
        let runtime = Runtime::new(cfg).expect("runtime");
        let bound = runtime.bind(&g);
        let err = {
            let _armed = fault::install(FaultPlan::new().panic_on(FaultSite::Push));
            bound.run(Sssp::new(0)).execute().expect_err("armed fault")
        };
        assert!(
            matches!(err, SimdxError::WorkerPanicked { .. }),
            "{label}: {err:?}"
        );
        let after = fingerprint(bound.run(Sssp::new(0)).execute().expect("recovery"));
        assert_eq!(after, baseline, "{label}: sssp recovery diverged");
    }
}

#[test]
fn a_push_panic_deep_into_a_run_leaves_no_charge_behind() {
    // The matrix above panics on the very first sweep. Here the panic
    // lands several sweeps in, after the session's kernel-charge
    // accumulators have been opened, fed and committed a number of
    // times, and while one of them is open for the sweep that dies (in
    // the parallel cells the surviving workers feed theirs to the end).
    // Whatever they hold must not reach the next query.
    let _serial = lock();
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        let cfg = aim_at(FaultSite::Push, cfg);
        let baseline = fresh(Bfs::new(0), &g, cfg.clone());
        let runtime = Runtime::new(cfg).expect("runtime");
        let bound = runtime.bind(&g);
        for nth in [5, 11] {
            let err = {
                let _armed = fault::install(FaultPlan::new().panic_at(FaultSite::Push, nth));
                bound.run(Bfs::new(0)).execute().expect_err("armed fault")
            };
            assert!(
                matches!(err, SimdxError::WorkerPanicked { .. }),
                "{label}/hit {nth}: {err:?}"
            );
            let after = fingerprint(bound.run(Bfs::new(0)).execute().expect("recovery"));
            assert_eq!(after, baseline, "{label}/hit {nth}: recovery diverged");
        }
    }
}

#[test]
fn grid_build_faults_surface_from_try_bind_and_the_runtime_recovers() {
    let _serial = lock();
    let g = rmat_graph();
    let cfg = EngineConfig::default().with_exec(ExecMode::Parallel { threads: 3 });
    let baseline = fresh(Bfs::new(0), &g, cfg.clone());
    let runtime = Runtime::new(cfg).expect("runtime");

    {
        let _armed = fault::install(FaultPlan::new().panic_on(FaultSite::GridBuild));
        let err = runtime.try_bind(&g).expect_err("bind-time fault");
        assert!(
            matches!(&err, SimdxError::WorkerPanicked { payload, .. }
                if payload.contains("injected fault at grid-build")),
            "wrong error: {err:?}"
        );
    }

    // The panic poisoned the pool mid-bind; the next bind must rebuild
    // it and produce a fully working session.
    let bound = runtime.try_bind(&g).expect("clean rebind");
    let after = fingerprint(bound.run(Bfs::new(0)).execute().expect("run after rebind"));
    assert_eq!(after, baseline, "post-recovery bind diverged");
}

#[test]
fn delay_faults_model_stragglers_without_changing_results() {
    // A straggler worker (delay, not panic) must not affect anything
    // the bit-equality contract covers — results depend on the merge
    // order, never on worker timing.
    let _serial = lock();
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        let baseline = fresh(Bfs::new(0), &g, cfg.clone());
        let runtime = Runtime::new(cfg).expect("runtime");
        let bound = runtime.bind(&g);
        let _armed = fault::install(
            FaultPlan::new()
                .delay_at(FaultSite::Push, Duration::from_millis(2), 1)
                .delay_at(FaultSite::Ballot, Duration::from_millis(2), 1),
        );
        let delayed = fingerprint(bound.run(Bfs::new(0)).execute().expect("delayed run"));
        assert_eq!(delayed, baseline, "{label}: straggler changed results");
    }
}

#[test]
fn degrade_policy_retries_an_injected_worker_panic_serially() {
    // End-to-end through the injection harness: a parallel query eats a
    // worker panic, DegradePolicy::RetrySerial replays it serially, and
    // the answer matches the serial baseline with the abort flagged.
    let _serial = lock();
    let g = rmat_graph();
    let par = EngineConfig::default()
        .with_exec(ExecMode::Parallel { threads: 3 })
        .with_direction(DirectionPolicy::FixedPush)
        .degrade_serial();
    let serial_cfg = par.clone().with_exec(ExecMode::Serial);
    // The serial retry re-enters the push sweep, so arm the panic for
    // exactly one hit: the parallel attempt absorbs it, the retry runs
    // clean.
    let baseline = fresh(Bfs::new(0), &g, serial_cfg);
    let runtime = Runtime::new(par).expect("runtime");
    let bound = runtime.bind(&g);
    let _armed = fault::install(FaultPlan::new().panic_on(FaultSite::Push));
    let recovered = bound.run(Bfs::new(0)).execute().expect("degraded run");
    assert_eq!(
        recovered.report.aborted,
        Some(AbortReason::WorkerPanic),
        "degrade retry must be flagged"
    );
    assert_eq!(
        fingerprint(recovered),
        baseline,
        "serial degrade retry diverged from the serial baseline"
    );
}

/// Every injected-panic site recovers through the checkpoint path: the
/// armed run aborts with a typed `WorkerPanicked` carrying its last
/// boundary snapshot (when one was reached), and resuming from it —
/// or rerunning fresh when the panic struck before the first boundary
/// — is bit-equal to an uninterrupted fresh engine, across the knob
/// matrix. This includes a panic injected inside the capture itself.
#[test]
fn every_panic_site_recovers_through_checkpoint_resume() {
    let _serial = lock();
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        for site in [
            FaultSite::Push,
            FaultSite::Pull,
            FaultSite::Ballot,
            FaultSite::ScratchReset,
            FaultSite::Capture,
        ] {
            let cfg = aim_at(site, cfg.clone());
            let baseline = fresh(Bfs::new(0), &g, cfg.clone());
            let runtime = Runtime::new(cfg).expect("runtime");
            let bound = runtime.bind(&g);
            let aborted = {
                let _armed = fault::install(FaultPlan::new().panic_on(site));
                bound
                    .run(Bfs::new(0))
                    .checkpoint_on_abort()
                    .execute()
                    .expect_err("armed fault must abort the run")
            };
            assert!(
                matches!(aborted.error, SimdxError::WorkerPanicked { .. }),
                "{label}/{}: expected WorkerPanicked, got {:?}",
                site.label(),
                aborted.error
            );
            // A panic before the first boundary (scratch reset at
            // execute() entry, the capture hook itself at iteration 0)
            // leaves no snapshot; everything later must.
            let after = match aborted.checkpoint {
                Some(cp) => bound
                    .resume(Bfs::new(0), cp)
                    .execute()
                    .unwrap_or_else(|e| panic!("{label}/{}: resume failed: {}", site.label(), e)),
                None => bound.run(Bfs::new(0)).execute().expect("fresh rerun"),
            };
            assert_eq!(
                fingerprint(after),
                baseline,
                "{label}/{}: checkpointed recovery diverged from fresh engine",
                site.label()
            );
        }
    }
}

/// A panic injected at the restore hook is contained like any worker
/// panic, and the checkpoint being resumed comes back in the
/// `RunAborted` — it never left the slot — and still resumes bit-equal
/// once the fault is disarmed.
#[test]
fn restore_faults_are_contained_and_the_checkpoint_survives() {
    let _serial = lock();
    let g = rmat_graph();
    let cfg = EngineConfig::default().with_exec(ExecMode::Parallel { threads: 3 });
    let baseline = fresh(Bfs::new(0), &g, cfg.clone());
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    let aborted = bound
        .run(Bfs::new(0))
        .max_iterations(2)
        .checkpoint_on_abort()
        .execute()
        .expect_err("capped run");
    assert_eq!(
        aborted.error,
        SimdxError::IterationLimit { max_iterations: 2 }
    );
    let cp = aborted.checkpoint.expect("boundary snapshot");
    let err = {
        let _armed = fault::install(FaultPlan::new().panic_on(FaultSite::Restore));
        bound
            .resume(Bfs::new(0), cp)
            .execute()
            .expect_err("armed restore fault")
    };
    assert!(
        matches!(&err.error, SimdxError::WorkerPanicked { payload, .. }
            if payload.contains("injected fault at restore")),
        "wrong error: {:?}",
        err.error
    );
    let cp = err
        .checkpoint
        .expect("the resumed checkpoint is handed back");
    assert_eq!(cp.iteration(), 2);
    let after = fingerprint(
        bound
            .resume(Bfs::new(0), cp)
            .execute()
            .expect("clean resume after contained restore fault"),
    );
    assert_eq!(after, baseline, "resume after restore fault diverged");
}

/// The degrade retry is one more attempt under the slot rule: with
/// checkpointing armed it continues from the panicked attempt's last
/// boundary instead of restarting, so the observer sees every iteration
/// exactly once and the result is still the serial baseline's.
#[test]
fn an_armed_degrade_retry_continues_from_the_last_boundary() {
    let _serial = lock();
    let g = rmat_graph();
    let par = EngineConfig::default()
        .parallel(3)
        .with_direction(DirectionPolicy::FixedPush)
        .degrade_serial();
    let baseline = fresh(Bfs::new(0), &g, par.clone().with_exec(ExecMode::Serial));
    let runtime = Runtime::new(par).expect("runtime");
    let bound = runtime.bind(&g);
    // A parallel push iteration passes the site once per worker per
    // worklist (3 × 3), so hit 19 is the first of iteration 2: two
    // iterations complete, the third dies mid-sweep.
    let _armed = fault::install(FaultPlan::new().panic_at(FaultSite::Push, 19));
    let mut seen = Vec::new();
    let recovered = bound
        .run(Bfs::new(0))
        .observe(|rec| seen.push(rec.iteration))
        .checkpoint_on_abort()
        .execute()
        .expect("degraded run");
    assert_eq!(recovered.report.aborted, Some(AbortReason::WorkerPanic));
    assert!(recovered.report.iterations > 3, "the fault struck mid-run");
    assert_eq!(
        seen,
        (0..recovered.report.iterations).collect::<Vec<_>>(),
        "each iteration observed exactly once, in order"
    );
    assert_eq!(
        fingerprint(recovered),
        baseline,
        "continued degrade retry diverged from the serial baseline"
    );
}
