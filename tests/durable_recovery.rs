//! Durable-checkpoint crash recovery (`crates/core/src/persist.rs`).
//!
//! Two halves:
//!
//! 1. **Kill-and-restart subprocess matrix** — a child process (this
//!    same test binary, re-invoked on its `#[ignore]`d child entry
//!    point) serves a batch with durability armed; tiny per-query
//!    cycle budgets make every admitted query final-fail at a boundary
//!    and spill. Once the child signals its spills are on disk, the
//!    parent SIGKILLs it — no drop glue, no graceful close — reopens
//!    the spill directory, and `QueryPool::recover` completes every
//!    ticket **bit-equal** to the uninterrupted baseline (metadata,
//!    activation log, simulated cycles), in {Serial, Parallel}.
//!
//! 2. **Persist fault matrix** — on-disk tampering (truncation, bit
//!    flips, version skew, a well-framed lie), plus writes spoiled at
//!    the `CheckpointStore` seam (`tests/support`'s `FaultyStore`: an
//!    i/o error, a torn write, a flipped bit) and a restore that
//!    panics on a retry: every fault surfaces as a typed
//!    `CheckpointCorrupt` / `CheckpointIo` / `WorkerPanicked`, never a
//!    process panic, recovery skips exactly the damaged blobs while
//!    completing the rest, and the store stays usable afterwards.
//!
//! Every test spills into a directory of its own, so they share no
//! state and run concurrently.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use simdx::algos::Bfs;
use simdx::core::jit::ActivationLog;
use simdx::core::persist;
use simdx::core::prelude::*;
use simdx::graph::gen::Rmat;
use simdx::graph::{Graph, VertexId};
use simdx_gpu::executor::ExecutorStats;

mod support;
use support::{
    panic_payload, Action, Faulty, FaultyStore, GatedLevels, Level, Levels, Seam, Spoil,
};

/// The graph both processes rebuild — deterministic by construction,
/// which is what makes cross-process bit-equality checkable at all.
fn graph() -> Graph {
    Graph::directed_from_edges(Rmat::gtgraph(11, 8).generate(5))
}

/// The serving batch: seeds spread across the rmat component
/// structure.
const SEEDS: &[VertexId] = &[0, 3, 7, 11, 19, 25];

/// The recovery matrix cells, keyed by the string the parent passes to
/// the child via `SIMDX_DR_CELL`.
const CELLS: &[&str] = &["serial", "parallel"];

fn cell_config(cell: &str) -> EngineConfig {
    let exec = match cell {
        "serial" => ExecMode::Serial,
        "parallel" => ExecMode::Parallel { threads: 2 },
        other => panic!("unknown matrix cell {other:?}"),
    };
    EngineConfig::unscaled().with_exec(exec)
}

/// Everything that must match bit for bit after recovery.
#[derive(Debug, PartialEq)]
struct Fingerprint<M> {
    meta: Vec<M>,
    iterations: u32,
    stats: ExecutorStats,
    log: ActivationLog,
}

fn fingerprint<M: Copy>(r: &RunResult<M>) -> Fingerprint<M> {
    Fingerprint {
        meta: r.meta.clone(),
        iterations: r.report.iterations,
        stats: r.report.stats.clone(),
        log: r.report.log.clone(),
    }
}

/// A cycle budget that deterministically aborts `seed`'s query after
/// at least one boundary but before convergence — i.e. a query that
/// will final-fail *with a checkpoint* and spill. `None` when the solo
/// run converges too fast to cut (single-boundary runs).
///
/// Both processes compute this from their own solo probe; the engine's
/// bit-equality contract makes the two answers identical.
fn spill_budget(bound: &BoundGraph<'_, '_>, seed: VertexId) -> Option<u64> {
    let solo = bound.run(Bfs::new(seed)).execute().expect("solo probe");
    let first = solo.report.log.records.first()?.cycles;
    let total = solo.report.stats.total_cycles;
    (total > first).then_some(first)
}

/// The seeds (with budgets) the serving batch will spill, in
/// submission order — ticket `i` serves `plan[i]`.
fn spill_plan(bound: &BoundGraph<'_, '_>) -> Vec<(VertexId, u64)> {
    SEEDS
        .iter()
        .filter_map(|&seed| spill_budget(bound, seed).map(|b| (seed, b)))
        .collect()
}

/// Serves the spill plan with durability armed into `dir` and returns
/// the report. Every planned query final-fails (budget exhausted) and
/// spills its boundary checkpoint.
fn serve_spilling(
    bound: &BoundGraph<'_, '_>,
    plan: &[(VertexId, u64)],
    dir: &std::path::Path,
) -> ServeReport<u32> {
    let store = DirStore::open(dir).expect("open spill dir");
    serve_spilling_into(bound, plan, store, 2)
}

/// [`serve_spilling`] through any store, on `workers` serving threads.
fn serve_spilling_into(
    bound: &BoundGraph<'_, '_>,
    plan: &[(VertexId, u64)],
    store: impl CheckpointStore + 'static,
    workers: usize,
) -> ServeReport<u32> {
    QueryPool::serve(
        bound,
        Bfs::new(0),
        ServiceConfig::default()
            .workers(workers)
            .durability(DurabilityPolicy::spill_to(store)),
        |client| {
            for &(seed, budget) in plan {
                client.submit(QueryRequest::new(seed).cycle_budget(budget))?;
            }
            Ok(())
        },
    )
    .expect("serve")
}

/// A unique scratch directory (no tempfile crate in the offline
/// workspace).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simdx-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Half 1: kill-and-restart subprocess matrix

/// CHILD ENTRY POINT — not a test of its own (hence `#[ignore]`): the
/// parent re-invokes this binary with `--ignored --exact` on this name
/// and the `SIMDX_DR_*` environment set. It serves the spill plan with
/// durability armed, verifies every planned ticket spilled, writes the
/// readiness marker, then hangs until the parent SIGKILLs it.
#[test]
#[ignore = "child half of the kill-and-restart test; spawned by the parent"]
fn child_serve_spill_and_hang() {
    let (Ok(dir), Ok(cell), Ok(ready)) = (
        std::env::var("SIMDX_DR_DIR"),
        std::env::var("SIMDX_DR_CELL"),
        std::env::var("SIMDX_DR_READY"),
    ) else {
        // Invoked by a bare `cargo test -- --ignored` sweep, not by
        // the parent: nothing to do.
        return;
    };
    let g = graph();
    let runtime = Runtime::new(cell_config(&cell)).expect("runtime");
    let bound = runtime.bind(&g);
    let plan = spill_plan(&bound);
    assert!(!plan.is_empty(), "spill plan is empty for cell {cell}");
    let report = serve_spilling(&bound, &plan, std::path::Path::new(&dir));
    assert_eq!(
        report.spilled.len(),
        plan.len(),
        "cell {cell}: every planned final failure must spill (failures: {:?})",
        report.spill_failures
    );
    assert!(report.spill_failures.is_empty());
    // Spills are fsync'd: signal the parent and wait for the bullet.
    std::fs::write(&ready, format!("{}", report.spilled.len())).expect("write ready marker");
    loop {
        std::thread::sleep(Duration::from_secs(60));
    }
}

/// After SIGKILL mid-serve, a fresh process recovers every spilled
/// ticket bit-equal to the uninterrupted baseline, in both exec modes.
#[test]
fn sigkilled_serving_process_recovers_bit_equal_across_matrix() {
    let exe = std::env::current_exe().expect("current test binary");
    for cell in CELLS {
        let dir = scratch_dir(&format!("kill-{cell}"));
        let ready = dir.with_extension("ready");
        let _ = std::fs::remove_file(&ready);

        let mut child = std::process::Command::new(&exe)
            .args(["--ignored", "--exact", "child_serve_spill_and_hang"])
            .env("SIMDX_DR_DIR", &dir)
            .env("SIMDX_DR_CELL", cell)
            .env("SIMDX_DR_READY", &ready)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn child serving process");

        // Wait for the child's spills to be durably on disk.
        let deadline = Instant::now() + Duration::from_secs(120);
        while !ready.exists() {
            if let Some(status) = child.try_wait().expect("poll child") {
                panic!("cell {cell}: child exited before signalling readiness: {status}");
            }
            assert!(
                Instant::now() < deadline,
                "cell {cell}: child never signalled readiness"
            );
            std::thread::sleep(Duration::from_millis(25));
        }

        // SIGKILL: no drop glue, no graceful close — the crash the
        // durable store exists for.
        child.kill().expect("SIGKILL child");
        child.wait().expect("reap child");

        // A fresh "process": new runtime, new bind, store reopened
        // from the directory alone.
        let g = graph();
        let runtime = Runtime::new(cell_config(cell)).expect("runtime");
        let bound = runtime.bind(&g);
        let plan = spill_plan(&bound);
        let store = DirStore::open(&dir).expect("reopen store");
        assert_eq!(
            store.tickets().expect("scan").len(),
            plan.len(),
            "cell {cell}: one durable blob per planned spill"
        );

        let report = QueryPool::recover(&bound, Bfs::new(0), &store).expect("recover");
        assert!(
            report.skipped.is_empty(),
            "cell {cell}: nothing to skip: {:?}",
            report.skipped
        );
        assert_eq!(report.recovered.len(), plan.len());
        assert_eq!(report.completed(), plan.len());
        for recovered in &report.recovered {
            let (seed, _) = plan[recovered.ticket as usize];
            assert_eq!(recovered.seed, seed, "cell {cell}: ticket→seed identity");
            assert!(
                recovered.resumed_from >= 1,
                "cell {cell}: resumed from a real boundary"
            );
            let run = recovered.result.as_ref().expect("recovered run completes");
            let baseline = bound
                .run(Bfs::new(seed))
                .execute()
                .expect("uninterrupted baseline");
            assert_eq!(
                fingerprint(run),
                fingerprint(&baseline),
                "cell {cell} seed {seed}: recovery must be bit-equal"
            );
        }
        // Recovered blobs are consumed; the store is clean.
        assert_eq!(store.tickets().expect("rescan"), Vec::<u64>::new());

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&ready);
    }
}

// ---------------------------------------------------------------------
// Half 2a: on-disk fault matrix

/// In-process spill → recover round trip, including an abort-mode
/// close racing the spill path: the budgeted queries spill and recover
/// bit-equal; abort-orphaned queued entries spill nothing.
#[test]
fn spill_then_recover_in_process_is_bit_equal() {
    let dir = scratch_dir("inproc");
    let g = graph();
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let plan = spill_plan(&bound);
    assert!(plan.len() >= 2, "need at least two spilling seeds");

    let report = serve_spilling(&bound, &plan, &dir);
    assert_eq!(report.spilled.len(), plan.len());
    assert!(report.spill_failures.is_empty());
    // The in-memory checkpoints still ride the outcomes.
    for &ticket in &report.spilled {
        assert!(report.outcomes[ticket as usize].checkpoint.is_some());
    }

    let store = DirStore::open(&dir).expect("reopen");
    let recovery = QueryPool::recover(&bound, Bfs::new(0), &store).expect("recover");
    assert!(recovery.skipped.is_empty());
    assert_eq!(recovery.completed(), plan.len());
    for recovered in &recovery.recovered {
        let baseline = bound
            .run(Bfs::new(recovered.seed))
            .execute()
            .expect("baseline");
        let run = recovered.result.as_ref().expect("completes");
        assert_eq!(fingerprint(run), fingerprint(&baseline));
    }
    assert_eq!(store.tickets().expect("clean"), Vec::<u64>::new());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Abort-mode close with durability armed: already-failed budgeted
/// queries have spilled; queued-but-unserved orphans spill nothing
/// (they have no checkpoint); everything spilled recovers bit-equal.
#[test]
fn abort_mode_close_spills_only_real_checkpoints() {
    let dir = scratch_dir("abort");
    let g = graph();
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let plan = spill_plan(&bound);
    let (first_seed, first_budget) = plan[0];

    let store = DirStore::open(&dir).expect("open");
    let report = QueryPool::serve(
        &bound,
        Bfs::new(0),
        ServiceConfig::default()
            .workers(1)
            .durability(DurabilityPolicy::spill_to(store)),
        |client| {
            // One guaranteed spill; wait until its blob is durably on
            // disk so the abort/spill interleaving is deterministic.
            client.submit(QueryRequest::new(first_seed).cycle_budget(first_budget))?;
            let blob0 = dir.join(format!("cp-{:020}.sxcp", 0));
            let deadline = Instant::now() + Duration::from_secs(60);
            while !blob0.exists() {
                assert!(Instant::now() < deadline, "ticket 0 never spilled");
                std::thread::sleep(Duration::from_millis(10));
            }
            // Then a pile of queued work the abort orphans.
            for &(seed, _) in &plan[1..] {
                client.submit(QueryRequest::new(seed))?;
            }
            client.close(CloseMode::Abort);
            Ok(())
        },
    )
    .expect("serve");
    assert!(report.spill_failures.is_empty());
    // Every spill corresponds to an outcome that really carried a
    // checkpoint; orphans (attempts == 0) never spill.
    let store = DirStore::open(&dir).expect("reopen");
    let on_disk = store.tickets().expect("scan");
    assert_eq!(report.spilled, on_disk);
    assert!(report.spilled.contains(&0), "the budgeted ticket spilled");
    for outcome in &report.outcomes {
        if outcome.attempts == 0 {
            assert!(outcome.checkpoint.is_none());
        }
    }
    let recovery = QueryPool::recover(&bound, Bfs::new(0), &store).expect("recover");
    assert!(recovery.skipped.is_empty());
    assert_eq!(recovery.completed(), on_disk.len());
    for recovered in &recovery.recovered {
        let baseline = bound
            .run(Bfs::new(recovered.seed))
            .execute()
            .expect("baseline");
        assert_eq!(
            fingerprint(recovered.result.as_ref().expect("completes")),
            fingerprint(&baseline)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whose cancellation it was decides whether it is spilled. A query
/// cancelled through its *own* token was withdrawn by its caller: the
/// in-memory checkpoint is handed back, but nothing reaches the store
/// for a later `recover` to resurrect. A query cancelled in flight by
/// an abort-mode close (the pool's token; its own is still live) is
/// the crash-survival case and still spills.
#[test]
fn caller_cancellations_are_not_spilled_but_abort_mode_ones_are() {
    let g = graph();
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let durable = |dir: &std::path::Path| {
        let store = DirStore::open(dir).expect("open");
        ServiceConfig::default()
            .workers(1)
            .durability(DurabilityPolicy::spill_to(store))
    };

    let dir = scratch_dir("withdrawn");
    let withdrawn = CancelToken::new();
    withdrawn.cancel();
    let report = QueryPool::serve(&bound, Bfs::new(0), durable(&dir), |client| {
        client.submit(QueryRequest::new(SEEDS[0]).cancel_token(withdrawn.clone()))?;
        Ok(())
    })
    .expect("serve");
    let outcome = &report.outcomes[0];
    assert!(
        matches!(outcome.result, Err(SimdxError::Cancelled { .. })),
        "got {:?}",
        outcome.result
    );
    assert!(outcome.checkpoint.is_some(), "checkpoint still handed back");
    assert_eq!(report.spilled, Vec::<u64>::new());
    assert!(report.spill_failures.is_empty());
    let store = DirStore::open(&dir).expect("reopen");
    assert_eq!(store.tickets().expect("scan"), Vec::<u64>::new());
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch_dir("shutdown");
    let program = GatedLevels::new(&[SEEDS[0]]);
    let report = QueryPool::serve(&bound, program.clone(), durable(&dir), |client| {
        client.submit(QueryRequest::new(SEEDS[0]).cancel_token(CancelToken::new()))?;
        program.wait_entered(SEEDS[0]);
        client.close(CloseMode::Abort);
        program.release(SEEDS[0]);
        Ok(())
    })
    .expect("serve");
    assert!(
        matches!(report.outcomes[0].result, Err(SimdxError::Cancelled { .. })),
        "got {:?}",
        report.outcomes[0].result
    );
    assert_eq!(report.spilled, vec![0]);
    let store = DirStore::open(&dir).expect("reopen");
    assert_eq!(store.tickets().expect("scan"), vec![0]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// On-disk damage — truncation, a flipped bit, version skew, and a
/// well-formed blob whose sections disagree — is diagnosed per blob:
/// recovery skips exactly the damaged tickets with typed errors,
/// completes the intact ones, and the store stays usable.
#[test]
fn damaged_blobs_are_skipped_with_typed_errors_and_the_rest_recover() {
    let dir = scratch_dir("damage");
    let g = graph();
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let plan = spill_plan(&bound);
    assert!(
        plan.len() >= 5,
        "need five spilling seeds, got {}",
        plan.len()
    );

    let report = serve_spilling(&bound, &plan, &dir);
    assert_eq!(report.spilled.len(), plan.len());

    // Damage four blobs directly on disk: truncate #0, flip a bit in
    // #1, skew #2's schema version, and make #3 lie — IDENT's
    // `num_vertices` one short of META's element count, with the
    // section CRC and the whole-file CRC recomputed, so nothing but the
    // cross-section check can tell. #4… stay intact.
    let store = DirStore::open(&dir).expect("reopen");
    let blob_path = |t: u64| dir.join(format!("cp-{t:020}.sxcp"));
    let blob0 = std::fs::read(blob_path(0)).expect("read blob 0");
    std::fs::write(blob_path(0), &blob0[..blob0.len() / 3]).expect("truncate blob 0");
    let mut blob1 = std::fs::read(blob_path(1)).expect("read blob 1");
    let mid = blob1.len() / 2;
    blob1[mid] ^= 0x10;
    std::fs::write(blob_path(1), &blob1).expect("corrupt blob 1");
    let mut blob2 = std::fs::read(blob_path(2)).expect("read blob 2");
    blob2[4] = 0xEE; // version u16 LE low byte
    std::fs::write(blob_path(2), &blob2).expect("skew blob 2");
    let mut blob3 = std::fs::read(blob_path(3)).expect("read blob 3");
    // 8-byte header, then IDENT: id u8, length u64, payload (ticket
    // u64, seed u32, num_vertices u32, …), CRC u32.
    let payload = 8 + 1 + 8;
    let ident_len = u64::from_le_bytes(blob3[9..17].try_into().expect("8 bytes")) as usize;
    let lie = g.num_vertices() - 1;
    blob3[payload + 12..payload + 16].copy_from_slice(&lie.to_le_bytes());
    let ident_crc = persist::crc32(&blob3[payload..payload + ident_len]);
    blob3[payload + ident_len..payload + ident_len + 4].copy_from_slice(&ident_crc.to_le_bytes());
    let body = blob3.len() - 4;
    let file_crc = persist::crc32(&blob3[..body]);
    blob3[body..].copy_from_slice(&file_crc.to_le_bytes());
    std::fs::write(blob_path(3), &blob3).expect("falsify blob 3");

    let recovery = QueryPool::recover(&bound, Bfs::new(0), &store).expect("recover");
    assert_eq!(recovery.recovered.len(), plan.len() - 4);
    assert_eq!(recovery.completed(), plan.len() - 4);
    let skipped: Vec<u64> = recovery.skipped.iter().map(|(t, _)| *t).collect();
    assert_eq!(skipped, vec![0, 1, 2, 3]);
    for (ticket, error) in &recovery.skipped {
        match error {
            SimdxError::CheckpointCorrupt { reason } => {
                let expect = match ticket {
                    2 => "schema version",
                    3 => "metadata holds",
                    _ => "",
                };
                assert!(
                    reason.contains(expect),
                    "ticket {ticket} diagnosed as: {reason}"
                );
            }
            other => panic!("ticket {ticket}: expected CheckpointCorrupt, got {other:?}"),
        }
    }
    // Skipped blobs are left in place for forensics…
    assert_eq!(store.tickets().expect("scan"), vec![0, 1, 2, 3]);
    // …and the store stays fully usable: remove them, spill again.
    for t in [0u64, 1, 2, 3] {
        store.remove(t).expect("remove damaged blob");
    }
    let again = serve_spilling(&bound, &plan[..1], &dir);
    assert_eq!(again.spilled.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SXCP v1 is a wire format, so its bytes are pinned, not just its
/// round trip: one fixed frame — a serial BFS on [`graph`] from vertex
/// 0, cancelled at its iteration-2 boundary — must encode to exactly
/// the blob every earlier build wrote: its length and the CRC-32 of
/// everything ahead of the trailer below, which is also the trailer.
/// (The CRC-32 of a whole blob, trailer included, is the polynomial's
/// residue `0x2144DF1C` for every valid blob, so it pins nothing.) A
/// codec change that moves a byte fails here even if it decodes its
/// own output.
#[test]
fn sxcp_v1_golden_blob_is_byte_stable() {
    let g = graph();
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let token = CancelToken::new();
    let hook_token = token.clone();
    let checkpoint = bound
        .run(Bfs::new(0))
        .cancel_token(token)
        .checkpoint_on_abort()
        .observe(move |rec| {
            if rec.iteration >= 2 {
                hook_token.cancel();
            }
        })
        .execute()
        .expect_err("cancelled at iteration 2")
        .checkpoint
        .expect("a boundary was reached");
    assert_eq!(checkpoint.iteration(), 3);
    let frame = persist::DurableCheckpoint {
        ticket: 7,
        seed: 0,
        checkpoint,
    };
    let blob = persist::encode(&frame);
    let body = blob.len() - 4;
    let body_crc = persist::crc32(&blob[..body]);
    assert_eq!(
        (blob.len(), body_crc),
        (GOLDEN_LEN, GOLDEN_BODY_CRC),
        "the SXCP v1 encoding of the golden frame moved"
    );
    assert_eq!(blob[body..], body_crc.to_le_bytes(), "trailer");
    let back = persist::decode::<u32>(&blob).expect("decode the golden blob");
    assert_eq!(persist::encode(&back), blob);
}

/// The golden frame's blob as the byte-at-a-time codec at `a4bc8a9`
/// wrote it.
const GOLDEN_LEN: usize = 12_822;
const GOLDEN_BODY_CRC: u32 = 0x21A2_DC5E;

// ---------------------------------------------------------------------
// Half 2b: writes spoiled at the store seam, a restore that panics

/// An i/o error on the first durable write: the first spill fails with
/// a typed `CheckpointIo` surfaced in `spill_failures`, later spills
/// succeed — the store is not poisoned by an i/o fault.
#[test]
fn injected_io_error_lands_in_spill_failures_and_store_recovers() {
    let dir = scratch_dir("ioerr");
    let g = graph();
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let plan = spill_plan(&bound);
    assert!(plan.len() >= 2);

    // One serving thread: deterministic spill order, so the i/o error
    // lands on ticket 0.
    let store = DirStore::open(&dir).expect("open");
    let report = serve_spilling_into(&bound, &plan, FaultyStore::new(store, Spoil::IoError, 1), 1);

    assert_eq!(report.spill_failures.len(), 1);
    let (ticket, error) = &report.spill_failures[0];
    assert_eq!(*ticket, 0);
    assert!(
        matches!(error, SimdxError::CheckpointIo { reason } if reason.contains("injected")),
        "typed i/o error, got {error:?}"
    );
    // The failed ticket still hands its checkpoint back in memory.
    assert!(report.outcomes[0].checkpoint.is_some());
    // Every later spill stuck.
    let expected: Vec<u64> = (1..plan.len() as u64).collect();
    assert_eq!(report.spilled, expected);
    let store = DirStore::open(&dir).expect("reopen");
    assert_eq!(store.tickets().expect("scan"), expected);
    let recovery = QueryPool::recover(&bound, Bfs::new(0), &store).expect("recover");
    assert!(recovery.skipped.is_empty());
    assert_eq!(recovery.completed(), plan.len() - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn writes and in-flight corruption produce blobs that decode
/// rejects with typed errors at recovery time — never a panic, never a
/// silently-wrong restore — and a clean re-spill heals the ticket.
#[test]
fn injected_torn_and_corrupt_writes_are_diagnosed_at_recovery() {
    let g = graph();
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let plan = spill_plan(&bound);
    for spoil in [Spoil::Truncate, Spoil::FlipBit] {
        let dir = scratch_dir(&format!("spoil-{spoil:?}"));
        let store = DirStore::open(&dir).expect("open");
        let report = serve_spilling_into(&bound, &plan[..1], FaultyStore::new(store, spoil, 1), 2);
        // The spoiled write "succeeded" from the writer's side — the
        // damage is what recovery must diagnose.
        assert_eq!(report.spilled, vec![0]);

        let store = DirStore::open(&dir).expect("reopen");
        let recovery = QueryPool::recover(&bound, Bfs::new(0), &store).expect("recover");
        assert!(recovery.recovered.is_empty());
        assert_eq!(recovery.skipped.len(), 1);
        assert!(
            matches!(recovery.skipped[0].1, SimdxError::CheckpointCorrupt { .. }),
            "{spoil:?}: typed corruption, got {:?}",
            recovery.skipped[0].1
        );
        // Store still usable: a clean re-spill of the same ticket
        // overwrites the damaged blob and recovers.
        let healed = serve_spilling(&bound, &plan[..1], &dir);
        assert_eq!(healed.spilled, vec![0]);
        let recovery = QueryPool::recover(&bound, Bfs::new(0), &store).expect("recover");
        assert_eq!(recovery.completed(), 1);
        assert!(recovery.skipped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fault in the *restore* of a retry must not cost the query its
/// checkpoint: the first attempt starves on its cycle budget and leaves
/// a boundary in the ticket's slot, the retry panics while restoring
/// from it, and the final outcome still carries that boundary — in
/// memory and, with durability armed, on disk. The first attempt's
/// opening push arms the serving thread's `Level::clone`, which the
/// retry's restore is the next to call.
#[test]
fn a_restore_fault_on_the_retry_keeps_and_spills_the_first_attempts_boundary() {
    let dir = scratch_dir("restore-fault");
    let g = graph();
    let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
    let bound = runtime.bind(&g);
    let seed = spill_plan(&bound)[0].0;
    // Where a first-iteration budget cuts a first attempt, from a
    // direct armed run.
    let solo = bound.run(Levels { src: seed }).execute().expect("solo");
    let budget = solo.report.log.records[0].cycles;
    let boundary = bound
        .run(Levels { src: seed })
        .cycle_budget(budget)
        .checkpoint_on_abort()
        .execute()
        .expect_err("starved")
        .checkpoint
        .expect("boundary reached")
        .iteration();

    let program = Faulty::new(
        Levels { src: 0 },
        Seam::Compute(Level(0)),
        Action::ArmCloneFault,
    );
    let store = DirStore::open(&dir).expect("open");
    let report = QueryPool::serve(
        &bound,
        program.clone(),
        ServiceConfig::default()
            .workers(1)
            .retry(RetryPolicy::default().max_attempts(2))
            .durability(DurabilityPolicy::spill_to(store)),
        |client| {
            client
                .submit(QueryRequest::new(seed).cycle_budget(budget))
                .map(|_| ())
        },
    )
    .expect("serve");
    assert!(
        program.struck(),
        "the first attempt never armed the restore"
    );

    let outcome = &report.outcomes[0];
    assert_eq!(outcome.attempts, 2);
    let err = outcome
        .result
        .as_ref()
        .expect_err("the retry's restore panics");
    assert_eq!(panic_payload(err), "injected fault in Level::clone");
    let cp = outcome.checkpoint.as_ref().expect("checkpoint survives");
    assert_eq!(cp.iteration(), boundary, "the first attempt's boundary");
    assert_eq!(report.spilled, vec![0]);
    assert!(report.spill_failures.is_empty());
    // And what was spilled is that boundary: it recovers bit-equal.
    let store = DirStore::open(&dir).expect("reopen");
    let recovery = QueryPool::recover(&bound, Levels { src: 0 }, &store).expect("recover");
    assert_eq!(recovery.recovered[0].resumed_from, boundary);
    let run = recovery.recovered[0].result.as_ref().expect("completes");
    assert_eq!(fingerprint(run), fingerprint(&solo));
    let _ = std::fs::remove_dir_all(&dir);
}
