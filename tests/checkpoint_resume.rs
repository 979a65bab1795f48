//! The checkpoint/resume contract through the public session API
//! (`crates/core/src/checkpoint.rs`): an armed run that aborts hands
//! back its last boundary, and resuming from it is **bit-equal** to the
//! uninterrupted run — metadata, activation log, simulated cycles, host
//! edge meter.
//!
//! These four cases lived in `session.rs`'s unit module over a private
//! test program; tier-1 runs only the umbrella crate, so they are here,
//! over [`Bfs`], where the Tier-1 line catches a broken resume path.

use simdx::algos::Bfs;
use simdx::core::prelude::*;
use simdx::graph::{EdgeList, Graph};

fn path_graph(n: u32) -> Graph {
    Graph::undirected_from_edges(EdgeList::from_pairs(
        (0..n - 1).map(|i| (i, i + 1)).collect(),
    ))
}

#[test]
fn checkpointed_abort_resumes_bit_equal_to_uninterrupted() {
    let g = path_graph(200);
    for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 3 }] {
        let runtime = Runtime::new(EngineConfig::unscaled().with_exec(exec)).expect("runtime");
        let bound = runtime.bind(&g);
        let baseline = bound.run(Bfs::new(0)).execute().expect("baseline");
        let aborted = bound
            .run(Bfs::new(0))
            .max_iterations(3)
            .checkpoint_on_abort()
            .execute()
            .expect_err("capped");
        assert_eq!(
            aborted.error,
            SimdxError::IterationLimit { max_iterations: 3 }
        );
        let cp = aborted.checkpoint.expect("boundary reached");
        assert_eq!(cp.iteration(), 3, "limit trips at the capped boundary");
        let resumed = bound.resume(Bfs::new(0), cp).execute().expect("resumed");
        assert_eq!(resumed.meta, baseline.meta);
        assert_eq!(resumed.report.log, baseline.report.log);
        assert_eq!(resumed.report.stats, baseline.report.stats);
        assert_eq!(resumed.report.iterations, baseline.report.iterations);
        assert_eq!(
            resumed.report.edges_examined,
            baseline.report.edges_examined
        );
    }
}

#[test]
fn mismatched_resume_hands_the_checkpoint_back() {
    let g = path_graph(64);
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let aborted = bound
        .run(Bfs::new(0))
        .max_iterations(2)
        .checkpoint_on_abort()
        .execute()
        .expect_err("capped");
    let cp = aborted.checkpoint.expect("checkpoint");
    // Resuming against the wrong graph is a typed error that returns
    // the snapshot instead of losing it.
    let other = path_graph(32);
    let other_bound = runtime.bind(&other);
    let err = other_bound
        .resume(Bfs::new(0), cp)
        .execute()
        .expect_err("wrong graph");
    assert!(matches!(err.error, SimdxError::InvalidQuery { .. }));
    let cp = err.checkpoint.expect("handed back");
    assert_eq!(cp.iteration(), 2);
    // The recovered checkpoint still resumes on the right graph.
    let resumed = bound.resume(Bfs::new(0), cp).execute().expect("resumed");
    let baseline = bound.run(Bfs::new(0)).execute().expect("baseline");
    assert_eq!(resumed.meta, baseline.meta);
    assert_eq!(resumed.report.stats, baseline.report.stats);
}

#[test]
fn resumed_cycle_budget_grants_additional_cycles() {
    let g = path_graph(40);
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let baseline = bound.run(Bfs::new(0)).execute().expect("baseline");
    let aborted = bound
        .run(Bfs::new(0))
        .cycle_budget(1)
        .checkpoint_on_abort()
        .execute()
        .expect_err("budget");
    assert!(matches!(aborted.error, SimdxError::BudgetExhausted { .. }));
    let cp = aborted.checkpoint.expect("checkpoint");
    let first = cp.iteration();
    assert!(first >= 1, "one iteration completed before the trip");
    // The same per-attempt budget on a resume is granted on top of the
    // checkpoint's spent cycles — forward progress, not an instant
    // re-trip at the same boundary.
    let aborted = bound
        .resume(Bfs::new(0), cp)
        .cycle_budget(1)
        .execute()
        .expect_err("still budgeted");
    assert!(matches!(aborted.error, SimdxError::BudgetExhausted { .. }));
    let cp = aborted.checkpoint.expect("checkpoint");
    assert!(cp.iteration() > first, "resume advanced the run");
    // An unbudgeted resume finishes bit-equal to the baseline.
    let resumed = bound.resume(Bfs::new(0), cp).execute().expect("resumed");
    assert_eq!(resumed.meta, baseline.meta);
    assert_eq!(resumed.report.log, baseline.report.log);
    assert_eq!(resumed.report.stats, baseline.report.stats);
}

/// A batch whose seeds each keep their own outcome: one armed run per
/// seed, so an aborted seed hands back its own resumable checkpoint and
/// costs none of the others' results.
#[test]
fn per_seed_armed_runs_hand_back_resumable_checkpoints() {
    let g = path_graph(96);
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    // Seed 0 is the far end of the path: a tight global iteration cap
    // aborts it mid-run while seed 48's shorter run completes.
    let capped = Runtime::new(EngineConfig {
        max_iterations: 60,
        ..EngineConfig::unscaled()
    })
    .expect("capped runtime");
    let capped_bound = capped.bind(&g);
    let partial: Vec<_> = [48, 0]
        .map(|seed| {
            capped_bound
                .run(Bfs::new(0))
                .source(seed)
                .checkpoint_on_abort()
                .execute()
        })
        .into();
    let ok = partial[0].as_ref().expect("short seed completes");
    let baseline = bound.run(Bfs::new(48)).execute().expect("seed 48 baseline");
    assert_eq!(ok.meta, baseline.meta);
    let aborted = partial[1].as_ref().expect_err("long seed capped");
    assert_eq!(
        aborted.error,
        SimdxError::IterationLimit { max_iterations: 60 }
    );
    let cp = aborted.checkpoint.clone().expect("checkpoint captured");
    assert_eq!(cp.iteration(), 60);
    let resumed = bound
        .resume(Bfs::new(0), cp)
        .execute()
        .expect("resumed batch member");
    let full = bound.run(Bfs::new(0)).execute().expect("baseline");
    assert_eq!(resumed.meta, full.meta);
    assert_eq!(resumed.report.stats, full.report.stats);
}
