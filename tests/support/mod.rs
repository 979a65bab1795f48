//! Shared by the serving suites (`mod support;`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use simdx::core::prelude::*;
use simdx::graph::{Graph, VertexId, Weight};

/// A BFS-by-levels program whose `init` parks on a shared gate: while
/// one query holds the lone serving thread it is deterministically *in
/// flight* — the bounded queue fills behind it, and a close or cancel
/// issued meanwhile lands at its first supervision check. Results are
/// plain BFS levels, so the admitted queries still have an exact
/// expected answer.
#[derive(Clone)]
pub struct GatedLevels {
    pub src: VertexId,
    pub entered: Arc<AtomicBool>,
    pub release: Arc<AtomicBool>,
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
