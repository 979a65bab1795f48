//! Shared by the serving and fault suites (`mod support;`).
//!
//! Besides [`GatedLevels`], this holds the seams a fault enters a run
//! through. The only code a run executes that the engine does not own
//! is the caller's, so every fault scenario reaches its handler through
//! a public boundary: an [`AccProgram`] method ([`Faulty`]), the
//! metadata type's `Clone` ([`Level`]) or a [`CheckpointStore`]
//! ([`FaultyStore`]). Nothing here is process-global: a [`Faulty`]
//! program carries its own trigger, the `Clone` trigger is per thread,
//! and a [`FaultyStore`] counts its own writes, so the suites run
//! concurrently.

#![allow(dead_code)] // each suite uses a subset

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simdx::core::acc::DirectionCtx;
use simdx::core::prelude::*;
use simdx::graph::csr::Direction;
use simdx::graph::{Graph, VertexId, Weight};

/// A BFS-by-levels program whose `init` parks on a shared gate: while
/// one query holds the lone serving thread it is deterministically *in
/// flight* — the bounded queue fills behind it, and a close or cancel
/// issued meanwhile lands at its first supervision check. Results are
/// plain BFS levels, so the admitted queries still have an exact
/// expected answer.
#[derive(Clone)]
pub(crate) struct GatedLevels {
    pub(crate) src: VertexId,
    pub(crate) entered: Arc<AtomicBool>,
    pub(crate) release: Arc<AtomicBool>,
}

impl AccProgram for GatedLevels {
    type Meta = u32;
    type Update = u32;
    fn name(&self) -> &'static str {
        "gated-levels"
    }
    fn combine_kind(&self) -> CombineKind {
        CombineKind::Vote
    }
    fn init(&self, g: &Graph) -> (Vec<u32>, Vec<VertexId>) {
        self.entered.store(true, Ordering::SeqCst);
        while !self.release.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let mut m = vec![u32::MAX; g.num_vertices() as usize];
        m[self.src as usize] = 0;
        (m, vec![self.src])
    }
    fn compute(&self, _s: VertexId, _d: VertexId, _w: Weight, ms: &u32, md: &u32) -> Option<u32> {
        (*ms != u32::MAX && *md == u32::MAX).then(|| ms + 1)
    }
    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn apply(&self, _v: VertexId, c: &u32, u: u32) -> Option<u32> {
        (u < *c).then_some(u)
    }
}

impl SourcedProgram for GatedLevels {
    fn with_source(mut self, src: VertexId) -> Self {
        self.src = src;
        self
    }
}

// ---------------------------------------------------------------------
// The program seam

/// Where a [`Faulty`] program strikes. Mid-run triggers are keyed on
/// metadata, not on call counts, so they pick the same iteration under
/// every exec mode and worker schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Seam<M> {
    /// `compute` with this source metadata: the push and pull sweeps
    /// (pool workers under `ExecMode::Parallel`).
    Compute(M),
    /// `active` with this current metadata: the ballot scan.
    Active(M),
    /// `init`: the submitting thread, right after the scratch reset.
    Init,
    /// `name`, once [`Faulty::arm`] was called: the boundary capture
    /// evaluates it before it writes the checkpoint slot.
    Name,
}

impl<M> Seam<M> {
    /// The panic payload of a fault struck here.
    pub(crate) fn payload(&self) -> String {
        let method = match self {
            Seam::Compute(_) => "compute",
            Seam::Active(_) => "active",
            Seam::Init => "init",
            Seam::Name => "name",
        };
        format!("injected fault in {method}")
    }
}

/// What a [`Faulty`] program does when its seam is reached.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Action {
    /// Panics with [`Seam::payload`].
    Panic,
    /// Sleeps: a straggler worker.
    Sleep(Duration),
    /// Arms this thread's [`Level`] `Clone` trigger, so the next
    /// metadata copy the engine makes on this thread panics.
    ArmCloneFault,
}

/// `inner` with one fault armed at one seam. Every [`AccProgram`]
/// method delegates (so overrides such as `pull_candidate` survive);
/// the seam's method acts first. A fault strikes once by default —
/// shared by every clone, so one fault fires per serve call, not per
/// ticket — or at every matching call after [`Self::every_time`].
#[derive(Clone)]
pub(crate) struct Faulty<P: AccProgram> {
    pub(crate) inner: P,
    seam: Seam<P::Meta>,
    action: Action,
    repeat: bool,
    armed: Arc<AtomicBool>,
}

impl<P: AccProgram> Faulty<P> {
    /// Armed at once, except [`Seam::Name`], which waits for
    /// [`Self::arm`].
    pub(crate) fn new(inner: P, seam: Seam<P::Meta>, action: Action) -> Self {
        Self {
            inner,
            seam,
            action,
            repeat: false,
            armed: Arc::new(AtomicBool::new(seam != Seam::Name)),
        }
    }

    /// Strikes at every matching call instead of only the first.
    pub(crate) fn every_time(mut self) -> Self {
        self.repeat = true;
        self
    }

    /// Arms the fault (for every clone of this program).
    pub(crate) fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Whether a one-shot fault has struck.
    pub(crate) fn struck(&self) -> bool {
        !self.armed.load(Ordering::SeqCst)
    }

    fn strike(&self, at: Seam<P::Meta>) {
        if at != self.seam {
            return;
        }
        let fires = if self.repeat {
            self.armed.load(Ordering::SeqCst)
        } else {
            self.armed.swap(false, Ordering::SeqCst)
        };
        if fires {
            match self.action {
                Action::Panic => panic!("{}", at.payload()),
                Action::Sleep(d) => std::thread::sleep(d),
                Action::ArmCloneFault => arm_clone_fault(0),
            }
        }
    }
}

impl<P: AccProgram> AccProgram for Faulty<P> {
    type Meta = P::Meta;
    type Update = P::Update;

    fn name(&self) -> &'static str {
        self.strike(Seam::Name);
        self.inner.name()
    }

    fn combine_kind(&self) -> CombineKind {
        self.inner.combine_kind()
    }

    fn init(&self, graph: &Graph) -> (Vec<P::Meta>, Vec<VertexId>) {
        self.strike(Seam::Init);
        self.inner.init(graph)
    }

    fn active(&self, v: VertexId, curr: &P::Meta, prev: &P::Meta) -> bool {
        self.strike(Seam::Active(*curr));
        self.inner.active(v, curr, prev)
    }

    fn compute(
        &self,
        src: VertexId,
        dst: VertexId,
        w: Weight,
        m_src: &P::Meta,
        m_dst: &P::Meta,
    ) -> Option<P::Update> {
        self.strike(Seam::Compute(*m_src));
        self.inner.compute(src, dst, w, m_src, m_dst)
    }

    fn combine(&self, a: P::Update, b: P::Update) -> P::Update {
        self.inner.combine(a, b)
    }

    fn apply(&self, v: VertexId, current: &P::Meta, update: P::Update) -> Option<P::Meta> {
        self.inner.apply(v, current, update)
    }

    fn activates(&self, v: VertexId, new_meta: &P::Meta) -> bool {
        self.inner.activates(v, new_meta)
    }

    fn pull_candidate(&self, v: VertexId, meta: &P::Meta) -> bool {
        self.inner.pull_candidate(v, meta)
    }

    fn direction(&self, ctx: &DirectionCtx) -> Option<Direction> {
        self.inner.direction(ctx)
    }

    fn converged(&self, iteration: u32, frontier_len: u64, meta: &[P::Meta]) -> bool {
        self.inner.converged(iteration, frontier_len, meta)
    }
}

impl<P: SourcedProgram> SourcedProgram for Faulty<P> {
    fn with_source(mut self, src: VertexId) -> Self {
        self.inner = self.inner.with_source(src);
        self
    }
}

/// The payload of a contained panic, or a test failure naming what came
/// back instead.
pub(crate) fn panic_payload(err: &SimdxError) -> &str {
    match err {
        SimdxError::WorkerPanicked { payload, .. } => payload,
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The metadata seam

thread_local! {
    /// Clones this thread may still make before the armed one panics
    /// (`None` = disarmed).
    static CLONE_FAULT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Arms this thread's `Level::clone` to panic after `skip` more clones.
/// The engine copies metadata on the thread that submitted the run, so
/// a trigger armed there reaches exactly that run's copies.
pub(crate) fn arm_clone_fault(skip: usize) {
    CLONE_FAULT.set(Some(skip));
}

/// Disarms this thread's trigger; `true` if it had not fired.
pub(crate) fn disarm_clone_fault() -> bool {
    CLONE_FAULT.take().is_some()
}

/// BFS-level metadata with a hand-written `Clone` that can be armed to
/// panic ([`arm_clone_fault`]): the seam into every copy the engine
/// makes of a metadata array through `Clone` — `Run::init`'s
/// `metadata_prev`, on a fresh run and on a restore alike.
#[derive(Copy, Debug, PartialEq)]
pub(crate) struct Level(pub(crate) u32);

impl Level {
    pub(crate) const UNVISITED: Level = Level(u32::MAX);
}

#[allow(clippy::non_canonical_clone_impl)] // the hand-written clone is the seam
impl Clone for Level {
    fn clone(&self) -> Self {
        match CLONE_FAULT.get() {
            Some(0) => {
                CLONE_FAULT.set(None);
                panic!("injected fault in Level::clone");
            }
            Some(n) => CLONE_FAULT.set(Some(n - 1)),
            None => {}
        }
        *self
    }
}

impl PersistMeta for Level {
    const TAG: u8 = <u32 as PersistMeta>::TAG;
    const SIZE: usize = 4;
    fn write_le(self, out: &mut Vec<u8>) {
        self.0.write_le(out);
    }
    fn read_le(bytes: &[u8]) -> Self {
        Level(u32::read_le(bytes))
    }
}

/// BFS over [`Level`] metadata: the same levels, activations and costs
/// as `simdx::algos::Bfs`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Levels {
    pub(crate) src: VertexId,
}

impl AccProgram for Levels {
    type Meta = Level;
    type Update = u32;
    fn name(&self) -> &'static str {
        "levels"
    }
    fn combine_kind(&self) -> CombineKind {
        CombineKind::Vote
    }
    fn init(&self, g: &Graph) -> (Vec<Level>, Vec<VertexId>) {
        // Built without `Level::clone`, so an armed trigger is left for
        // the engine's copies.
        let mut m: Vec<Level> = (0..g.num_vertices()).map(|_| Level::UNVISITED).collect();
        m[self.src as usize] = Level(0);
        (m, vec![self.src])
    }
    fn compute(
        &self,
        _s: VertexId,
        _d: VertexId,
        _w: Weight,
        ms: &Level,
        md: &Level,
    ) -> Option<u32> {
        (*ms != Level::UNVISITED && *md == Level::UNVISITED).then(|| ms.0 + 1)
    }
    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }
    fn apply(&self, _v: VertexId, c: &Level, u: u32) -> Option<Level> {
        (u < c.0).then_some(Level(u))
    }
    fn pull_candidate(&self, _v: VertexId, meta: &Level) -> bool {
        *meta == Level::UNVISITED
    }
}

impl SourcedProgram for Levels {
    fn with_source(mut self, src: VertexId) -> Self {
        self.src = src;
        self
    }
}

// ---------------------------------------------------------------------
// The storage seam

/// How a [`FaultyStore`] spoils its armed write.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Spoil {
    /// Fail the `put` with a typed `CheckpointIo`.
    IoError,
    /// Write the first half of the blob: a torn write.
    Truncate,
    /// Write the blob with its middle byte's low bit flipped: silent
    /// media corruption.
    FlipBit,
}

/// A [`DirStore`] whose `nth` `put` (1-based) is spoiled; every other
/// operation passes through.
pub(crate) struct FaultyStore {
    inner: DirStore,
    spoil: Spoil,
    nth: u64,
    puts: AtomicU64,
}

impl FaultyStore {
    pub(crate) fn new(inner: DirStore, spoil: Spoil, nth: u64) -> Self {
        assert!(nth >= 1, "nth is 1-based");
        Self {
            inner,
            spoil,
            nth,
            puts: AtomicU64::new(0),
        }
    }
}

impl CheckpointStore for FaultyStore {
    fn put(&self, ticket: u64, blob: &[u8]) -> Result<(), SimdxError> {
        if self.puts.fetch_add(1, Ordering::SeqCst) + 1 != self.nth {
            return self.inner.put(ticket, blob);
        }
        match self.spoil {
            Spoil::IoError => Err(SimdxError::CheckpointIo {
                reason: format!("put ticket {ticket}: injected i/o fault"),
            }),
            Spoil::Truncate => self.inner.put(ticket, &blob[..blob.len() / 2]),
            Spoil::FlipBit => {
                let mut spoiled = blob.to_vec();
                let mid = spoiled.len() / 2;
                spoiled[mid] ^= 0x01;
                self.inner.put(ticket, &spoiled)
            }
        }
    }

    fn get(&self, ticket: u64) -> Result<Vec<u8>, SimdxError> {
        self.inner.get(ticket)
    }

    fn remove(&self, ticket: u64) -> Result<(), SimdxError> {
        self.inner.remove(ticket)
    }

    fn tickets(&self) -> Result<Vec<u64>, SimdxError> {
        self.inner.tickets()
    }
}
