//! Worklists, degree classification, per-thread bins (§4) and the
//! changed set.
//!
//! Step I of JIT task management classifies active vertices by degree
//! into three worklists; step II assigns a thread per small task, a warp
//! per medium task and a CTA per large task. During computation the
//! online filter records newly-activated vertices into bounded
//! *thread bins*; a bin overflow is the signal that flips the JIT
//! controller over to the ballot filter.
//!
//! [`FrontierBitmap`] is the dense counterpart of a sorted worklist:
//! one `u64` word per 64 vertices (two warp chunks at the ballot
//! filter's 32-lane granularity), iterated in ascending vertex order.
//! [`ChangedSet`] — the vertices whose metadata diverged from the
//! iteration-start snapshot this iteration — is such a bitmap *and*
//! the list of vertices marked, always both; how it is stored and which
//! of its two publish and ballot strategies an iteration uses is decided
//! here and nowhere else.

use simdx_gpu::SchedUnit;
use simdx_graph::csr::Csr;
use simdx_graph::VertexId;

/// Bits per [`FrontierBitmap`] word: 64 vertices, i.e. two warp chunks
/// of the ballot filter's [`simdx_gpu::WARP_SIZE`] granularity.
pub(crate) const WORD_BITS: usize = 64;

// The engine leans on "one bitmap word = two ballot warp chunks"
// everywhere (warp-aligned scan starts inside word-aligned partitions,
// word-aligned fences that are therefore chunk-aligned); lock the
// constants together so no one can move one without the other.
const _: () = assert!(2 * simdx_gpu::WARP_SIZE == WORD_BITS);

/// A dense frontier: bit `v % 64` of word `v / 64` is set iff vertex
/// `v` is in the set.
///
/// Both iteration orders ([`Self::iter`], [`Self::drain_for_each`])
/// are ascending vertex order — the same order the ballot filter emits
/// — so a bitmap and a sorted, duplicate-free worklist are
/// interchangeable representations of the same frontier. Membership is an O(1) word load; cardinality is a
/// popcount sweep; and empty regions are skipped a word (64 vertices)
/// at a time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct FrontierBitmap {
    words: Vec<u64>,
    num_vertices: usize,
}

impl FrontierBitmap {
    /// An empty bitmap over `num_vertices` vertices.
    pub(crate) fn new(num_vertices: usize) -> Self {
        Self {
            words: vec![0; num_vertices.div_ceil(WORD_BITS)],
            num_vertices,
        }
    }

    /// Reshapes to `num_vertices` and clears every bit, reusing the
    /// word allocation (the engine calls this once per run; in steady
    /// state it never allocates).
    pub(crate) fn reset(&mut self, num_vertices: usize) {
        self.words.clear();
        self.words.resize(num_vertices.div_ceil(WORD_BITS), 0);
        self.num_vertices = num_vertices;
    }

    /// Number of vertices the bitmap covers.
    pub(crate) fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Sets bit `v`. Panics when `v` is out of range — including in
    /// release builds, where the partial tail word would otherwise
    /// silently accept phantom vertices.
    #[inline]
    pub(crate) fn set(&mut self, v: VertexId) {
        assert!((v as usize) < self.num_vertices, "vertex out of range");
        self.words[v as usize / WORD_BITS] |= 1u64 << (v as usize % WORD_BITS);
    }

    /// Tests bit `v`. Panics when `v` is out of range.
    #[inline]
    pub(crate) fn test(&self, v: VertexId) -> bool {
        assert!((v as usize) < self.num_vertices, "vertex out of range");
        self.words[v as usize / WORD_BITS] & (1u64 << (v as usize % WORD_BITS)) != 0
    }

    /// Clears bit `v`. Panics when `v` is out of range.
    #[cfg(test)]
    fn unset(&mut self, v: VertexId) {
        assert!((v as usize) < self.num_vertices, "vertex out of range");
        self.words[v as usize / WORD_BITS] &= !(1u64 << (v as usize % WORD_BITS));
    }

    /// Clears every bit, keeping the shape.
    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Popcount-based cardinality.
    #[cfg(test)]
    fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether no bit is set.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The backing words for word-level iteration (e.g. the ballot
    /// scan's all-zero-word skip).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates set bits in ascending vertex order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let w = w & (w - 1);
                (w != 0).then_some(w)
            })
            .map(move |w| (i * WORD_BITS) as VertexId + w.trailing_zeros())
        })
    }

    /// Visits set bits in ascending order, clearing each word after it
    /// is consumed — one "read out and reset" sweep.
    pub(crate) fn drain_for_each(&mut self, mut f: impl FnMut(VertexId)) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                f((i * WORD_BITS) as VertexId + w.trailing_zeros());
                w &= w - 1;
            }
            *word = 0;
        }
    }

    /// [`Self::drain_for_each`] into a vector (appended in ascending
    /// order).
    pub(crate) fn drain_into(&mut self, out: &mut Vec<VertexId>) {
        self.drain_for_each(|v| out.push(v));
    }
}

/// Changed-vertex count per vertex at which an iteration turns
/// *dense*: from one changed vertex per bitmap word on average, a sweep
/// over every word touches no more memory than a walk of the list.
/// Road wavefronts stay far below it, R-MAT middle iterations far
/// above.
const DENSE_DIVISOR: usize = WORD_BITS;

/// The vertices whose metadata diverged from the iteration-start
/// snapshot this iteration: a [`FrontierBitmap`] *and* the list of
/// vertices marked, always both.
///
/// The bitmap answers first-change detection with one bit test and is
/// the ballot scan's occupancy; the list makes publication
/// O(changed) and its length is the density the two per-iteration
/// strategy choices read ([`Self::publish`],
/// [`Self::sparse_occupancy`]). Two engine invariants
/// make the bitmap exact: metadata never returns to its
/// iteration-start value within an iteration (all ACC programs make
/// monotone progress), so `bit set ⟺ curr != prev`; and a vertex whose
/// metadata equals the snapshot cannot vote (`active(v, m, m)` is
/// false), so a zero word proves its 64 vertices inactive.
///
/// Empty — list and every bit — at each iteration boundary:
/// [`Self::publish`] drains it.
#[derive(Debug)]
pub(crate) struct ChangedSet {
    bits: FrontierBitmap,
    list: Vec<VertexId>,
}

impl ChangedSet {
    /// An empty set over `num_vertices` vertices.
    pub(crate) fn new(num_vertices: usize) -> Self {
        Self {
            bits: FrontierBitmap::new(num_vertices),
            list: Vec::new(),
        }
    }

    /// Number of vertices the set covers.
    pub(crate) fn num_vertices(&self) -> usize {
        self.bits.num_vertices()
    }

    /// Empties the set without publishing (an aborted run's leftovers).
    pub(crate) fn clear(&mut self) {
        self.bits.clear_all();
        self.list.clear();
    }

    /// Whether nothing is marked — list and bitmap both.
    pub(crate) fn is_empty(&self) -> bool {
        self.list.is_empty() && self.bits.is_empty()
    }

    /// Whether `v` has not changed yet this iteration.
    #[inline]
    pub(crate) fn is_first(&self, v: VertexId) -> bool {
        !self.bits.test(v)
    }

    /// Records `v` as changed (at most once per iteration: callers
    /// test [`Self::is_first`] before the apply that changes it).
    #[inline]
    pub(crate) fn mark(&mut self, v: VertexId) {
        self.view().mark(v);
    }

    /// Appends a shard's marked vertices — their bits were set through
    /// the shard's [`ChangedView`].
    pub(crate) fn extend_marked(&mut self, marked: &[VertexId]) {
        self.list.extend_from_slice(marked);
    }

    /// Whether this iteration changed at least one vertex per bitmap
    /// word on average. A function of the changed count and `|V|`
    /// alone — identical across exec modes and across resume — so the
    /// strategies it selects are deterministic: publication sweeps the
    /// words instead of walking the list, and the ballot filter runs
    /// the dense scan instead of the occupancy-skipping one (both pairs
    /// bit-identical in what they write and charge).
    fn is_dense(&self) -> bool {
        self.list.len() >= self.bits.num_vertices() / DENSE_DIVISOR
    }

    /// The bitmap's backing words as the ballot scan's occupancy —
    /// `None` on a dense iteration, where skipping zero words saves
    /// less than testing them costs and the dense scan runs instead.
    pub(crate) fn sparse_occupancy(&self) -> Option<&[u64]> {
        (!self.is_dense()).then(|| self.bits.words())
    }

    /// The whole set as a one-shard view, for the serial kernels.
    pub(crate) fn view(&mut self) -> ChangedView<'_> {
        ChangedView::new(0, &mut self.bits.words, &mut self.list)
    }

    /// The backing words, for [`crate::par::SliceShards`] to cut into
    /// the word-aligned windows parallel push hands its
    /// [`ChangedView`]s.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.bits.words
    }

    /// Publishes the iteration: `prev[v] = curr[v]` for every changed
    /// vertex, leaving the set empty. Sparse iterations walk the list,
    /// dense ones sweep the words — the same cells either way.
    pub(crate) fn publish<M: Copy>(&mut self, prev: &mut [M], curr: &[M]) {
        if self.is_dense() {
            self.publish_word_sweep(prev, curr);
        } else {
            self.publish_list_walk(prev, curr);
        }
    }

    /// O(changed): each listed vertex is copied and its word zeroed —
    /// in two passes, which on a 3 µs road-strip iteration is a
    /// measured 1 % of the run cheaper than one loop doing both.
    fn publish_list_walk<M: Copy>(&mut self, prev: &mut [M], curr: &[M]) {
        for &v in &self.list {
            prev[v as usize] = curr[v as usize];
        }
        for v in self.list.drain(..) {
            self.bits.words[v as usize / WORD_BITS] = 0;
        }
    }

    /// O(|V| / 64), ascending: non-zero words carry the changed
    /// vertices, zero words are skipped 64 vertices at a time.
    fn publish_word_sweep<M: Copy>(&mut self, prev: &mut [M], curr: &[M]) {
        self.bits
            .drain_for_each(|v| prev[v as usize] = curr[v as usize]);
        self.list.clear();
    }
}

/// A word-aligned window of a [`ChangedSet`] covering vertices
/// `[64 * word_off, 64 * (word_off + words.len()))`, with the list its
/// marks append to.
///
/// Disjoint windows alias nothing, so the parallel push backend hands
/// one to each destination shard (whose fences are word-aligned) for
/// **atomic-free** first-change detection; the serial kernels use the
/// whole-set window of [`ChangedSet::view`].
#[derive(Debug)]
pub(crate) struct ChangedView<'a> {
    word_off: usize,
    words: &'a mut [u64],
    list: &'a mut Vec<VertexId>,
}

impl<'a> ChangedView<'a> {
    /// A view starting at word `word_off` of the set's bitmap.
    pub(crate) fn new(word_off: usize, words: &'a mut [u64], list: &'a mut Vec<VertexId>) -> Self {
        Self {
            word_off,
            words,
            list,
        }
    }

    /// Whether `v` (inside the window) has not changed yet this
    /// iteration — called *before* the apply that may change it.
    #[inline]
    pub(crate) fn is_first(&self, v: VertexId) -> bool {
        let w = v as usize / WORD_BITS;
        debug_assert!((self.word_off..self.word_off + self.words.len()).contains(&w));
        self.words[w - self.word_off] & (1u64 << (v as usize % WORD_BITS)) == 0
    }

    /// Records `v` (inside the window) as changed.
    #[inline]
    pub(crate) fn mark(&mut self, v: VertexId) {
        let w = v as usize / WORD_BITS;
        debug_assert!((self.word_off..self.word_off + self.words.len()).contains(&w));
        self.words[w - self.word_off] |= 1u64 << (v as usize % WORD_BITS);
        self.list.push(v);
    }
}

/// Degree thresholds separating the three worklists.
///
/// §4: "we initialize the small, medium and large worklists to be warp
/// and block sizes (i.e., 32 and 128)", and performance is stable for
/// small/med in `[4, 128]` and med/large in `[128, 2048]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassifyThresholds {
    /// Degrees `<= small_max` go to the small (Thread) list.
    pub small_max: u32,
    /// Degrees `<= med_max` go to the medium (Warp) list; larger ones to
    /// the large (CTA) list.
    pub med_max: u32,
}

impl Default for ClassifyThresholds {
    fn default() -> Self {
        Self {
            small_max: 32,
            med_max: 128,
        }
    }
}

impl ClassifyThresholds {
    /// The worklist for a vertex of degree `d`.
    pub(crate) fn classify(&self, d: u32) -> SchedUnit {
        if d <= self.small_max {
            SchedUnit::Thread
        } else if d <= self.med_max {
            SchedUnit::Warp
        } else {
            SchedUnit::Cta
        }
    }
}

/// The three active worklists of one iteration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Worklists {
    /// Vertices processed one-per-thread (small degrees).
    pub(crate) small: Vec<VertexId>,
    /// Vertices processed one-per-warp (medium degrees).
    pub(crate) med: Vec<VertexId>,
    /// Vertices processed one-per-CTA (large degrees).
    pub(crate) large: Vec<VertexId>,
}

impl Worklists {
    /// Classifies `active` against the degrees in `csr` (in the scan
    /// direction the next iteration will use): clears the lists (keeping
    /// their capacity) and refills them — the zero-allocation path the
    /// engine scratch uses every iteration.
    pub(crate) fn classify_into(
        &mut self,
        active: &[VertexId],
        csr: &Csr,
        thresholds: ClassifyThresholds,
    ) {
        self.clear();
        for &v in active {
            self.classify_one(v, csr, thresholds);
        }
    }

    /// Classifies a single vertex into its list without clearing — the
    /// streaming form backing [`Self::classify_into`] and the pull-vote
    /// candidate sweep, which classifies each candidate as it finds it.
    #[inline]
    pub(crate) fn classify_one(&mut self, v: VertexId, csr: &Csr, thresholds: ClassifyThresholds) {
        match thresholds.classify(csr.degree(v)) {
            SchedUnit::Thread => self.small.push(v),
            SchedUnit::Warp => self.med.push(v),
            SchedUnit::Cta => self.large.push(v),
        }
    }

    /// Clears all three lists, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.small.clear();
        self.med.clear();
        self.large.clear();
    }

    /// Appends another set of worklists (used to merge per-worker
    /// classification results in worker order, which reproduces the
    /// serial order because workers own contiguous chunks).
    pub(crate) fn append(&mut self, other: &Self) {
        self.small.extend_from_slice(&other.small);
        self.med.extend_from_slice(&other.med);
        self.large.extend_from_slice(&other.large);
    }

    /// Total entries across the three lists.
    pub(crate) fn len(&self) -> u64 {
        (self.small.len() + self.med.len() + self.large.len()) as u64
    }

    /// Whether every list is empty (BSP termination signal).
    pub(crate) fn is_empty(&self) -> bool {
        self.small.is_empty() && self.med.is_empty() && self.large.is_empty()
    }

    /// The list processed at the given granularity.
    pub(crate) fn list(&self, unit: SchedUnit) -> &[VertexId] {
        match unit {
            SchedUnit::Thread => &self.small,
            SchedUnit::Warp => &self.med,
            SchedUnit::Cta => &self.large,
        }
    }
}

/// Bounded per-thread bins used by the online filter.
///
/// Each simulated GPU thread owns a bin of at most `threshold` slots
/// (the §4 overflow threshold, default 64). Recording into a full bin
/// raises the overflow flag instead of growing — exactly the behaviour
/// that forces the switch to the ballot filter. Once the flag is up the
/// iteration's bins are never read (the ballot filter regenerates the
/// whole list), so the serial kernels stop recording until
/// [`Self::clear`]; what a bin holds after an overflow is unspecified.
///
/// There is one bin per Thread-kernel slot (300 at the default device
/// scale) and a small frontier fills a handful of them, so the bins
/// carry a non-empty bitmap: clearing and concatenating visit only
/// the bins that hold entries, in ascending bin order —
/// the same order a walk over every bin would produce.
#[derive(Clone, Debug)]
pub(crate) struct ThreadBins {
    bins: Vec<Vec<VertexId>>,
    /// Bit `b` is set iff bin `b` holds entries.
    nonempty: FrontierBitmap,
    /// Entries across all bins.
    recorded: u64,
    threshold: usize,
    overflowed: bool,
}

impl ThreadBins {
    /// Creates `num_threads` empty bins with the given overflow
    /// threshold.
    pub(crate) fn new(num_threads: usize, threshold: usize) -> Self {
        let num_threads = num_threads.max(1);
        Self {
            bins: vec![Vec::new(); num_threads],
            nonempty: FrontierBitmap::new(num_threads),
            recorded: 0,
            threshold,
            overflowed: false,
        }
    }

    /// Number of bins (simulated threads).
    pub(crate) fn num_threads(&self) -> usize {
        self.bins.len()
    }

    /// Records vertex `v` from simulated thread `thread`. Returns
    /// `false` (and sets the overflow flag) if the bin was full.
    #[inline]
    pub(crate) fn record(&mut self, thread: usize, v: VertexId) -> bool {
        let idx = thread % self.bins.len();
        let bin = &mut self.bins[idx];
        if bin.len() >= self.threshold {
            self.overflowed = true;
            return false;
        }
        if bin.is_empty() {
            self.nonempty.set(idx as VertexId);
        }
        bin.push(v);
        self.recorded += 1;
        true
    }

    /// Whether any bin has overflowed.
    pub(crate) fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Total recorded entries across bins.
    pub(crate) fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// The bins that hold entries, in ascending bin order.
    fn nonempty_bins(&self) -> impl Iterator<Item = &[VertexId]> {
        self.nonempty
            .iter()
            .map(|b| self.bins[b as usize].as_slice())
    }

    /// Concatenates all bins in thread order (the prefix-scan
    /// concatenation of Fig. 4(b) line 20). The result may contain
    /// duplicates and is generally unsorted — the documented online
    /// filter trade-off (§4).
    #[cfg(test)]
    pub(crate) fn concatenate(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.total_recorded() as usize);
        self.concatenate_into(&mut out);
        out
    }

    /// Concatenates all bins in thread order into a reused buffer
    /// (cleared first, capacity kept).
    pub(crate) fn concatenate_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        for bin in self.nonempty_bins() {
            out.extend_from_slice(bin);
        }
    }

    /// Clears the bins that hold entries and the overflow flag for the
    /// next iteration.
    pub(crate) fn clear(&mut self) {
        let bins = &mut self.bins;
        self.nonempty.drain_for_each(|b| bins[b as usize].clear());
        self.recorded = 0;
        self.overflowed = false;
    }

    /// Reshapes to `num_threads` bins with `threshold` capacity and
    /// clears, reusing existing bin allocations (the engine calls this
    /// every iteration; growing/shrinking only moves empty `Vec`s).
    pub(crate) fn reset_to(&mut self, num_threads: usize, threshold: usize) {
        self.clear();
        let num_threads = num_threads.max(1);
        if num_threads != self.bins.len() {
            self.bins.resize_with(num_threads, Vec::new);
            self.nonempty.reset(num_threads);
        }
        self.threshold = threshold;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simdx_graph::EdgeList;
    use std::collections::BTreeSet;

    fn star_csr(leaves: u32) -> Csr {
        Csr::from_edge_list(&EdgeList::from_pairs(
            (1..=leaves).map(|i| (0, i)).collect(),
        ))
    }

    #[test]
    fn default_thresholds_match_paper() {
        let t = ClassifyThresholds::default();
        assert_eq!(t.small_max, 32);
        assert_eq!(t.med_max, 128);
        assert_eq!(t.classify(1), SchedUnit::Thread);
        assert_eq!(t.classify(32), SchedUnit::Thread);
        assert_eq!(t.classify(33), SchedUnit::Warp);
        assert_eq!(t.classify(128), SchedUnit::Warp);
        assert_eq!(t.classify(129), SchedUnit::Cta);
    }

    #[test]
    fn classify_splits_by_degree() {
        let csr = star_csr(200);
        // Vertex 0 has degree 200 (large); leaves have degree 0 (small).
        let mut lists = Worklists::default();
        lists.classify_into(&[0, 1, 2], &csr, ClassifyThresholds::default());
        assert_eq!(lists.large, vec![0]);
        assert_eq!(lists.small, vec![1, 2]);
        assert!(lists.med.is_empty());
        assert_eq!(lists.len(), 3);
        assert!(!lists.is_empty());
    }

    #[test]
    fn empty_worklists() {
        let lists = Worklists::default();
        assert!(lists.is_empty());
        assert_eq!(lists.len(), 0);
    }

    #[test]
    fn bins_record_until_threshold() {
        let mut bins = ThreadBins::new(2, 3);
        for i in 0..3 {
            assert!(bins.record(0, i));
        }
        assert!(!bins.overflowed());
        assert!(!bins.record(0, 99));
        assert!(bins.overflowed());
        // The other bin is unaffected.
        assert!(bins.record(1, 5));
        assert_eq!(bins.total_recorded(), 4);
    }

    #[test]
    fn concatenate_preserves_thread_order_with_duplicates() {
        let mut bins = ThreadBins::new(2, 8);
        bins.record(0, 7);
        bins.record(1, 3);
        bins.record(0, 7); // duplicate is kept — online filter semantics
        assert_eq!(bins.concatenate(), vec![7, 7, 3]);
    }

    #[test]
    fn clear_resets_overflow() {
        let mut bins = ThreadBins::new(1, 1);
        bins.record(0, 1);
        bins.record(0, 2);
        assert!(bins.overflowed());
        bins.clear();
        assert!(!bins.overflowed());
        assert_eq!(bins.total_recorded(), 0);
    }

    #[test]
    fn sparse_bins_walk_in_bin_order_across_bitmap_words() {
        // 300 bins = five bitmap words; a handful hold entries. Every
        // walk must visit them in ascending bin order, as a walk over
        // all 300 would.
        let mut bins = ThreadBins::new(300, 2);
        for (t, v) in [(299, 1), (0, 2), (64, 3), (63, 4), (128, 5), (64, 6)] {
            assert!(bins.record(t, v));
        }
        assert!(!bins.record(64, 7), "third record overflows bin 64");
        let want = vec![2, 4, 3, 6, 5, 1];
        assert_eq!(bins.total_recorded(), 6);
        assert_eq!(bins.concatenate(), want);

        // Shrinking drops the high bins, growing adds empty ones, and
        // neither leaves an entry or a stale non-empty bit behind.
        bins.reset_to(70, 2);
        assert_eq!(bins.total_recorded(), 0);
        assert!(!bins.overflowed());
        assert!(bins.concatenate().is_empty());
        bins.record(69, 8);
        bins.reset_to(300, 2);
        assert!(bins.concatenate().is_empty());
        bins.record(299, 9);
        bins.record(69, 10);
        assert_eq!(bins.concatenate(), vec![10, 9]);
    }

    #[test]
    fn classify_one_streams_like_classify_into() {
        let csr = star_csr(200);
        let active = [0u32, 1, 2];
        let mut batch = Worklists::default();
        batch.classify_into(&active, &csr, ClassifyThresholds::default());
        let mut streamed = Worklists::default();
        streamed.clear();
        for &v in &active {
            streamed.classify_one(v, &csr, ClassifyThresholds::default());
        }
        assert_eq!(streamed, batch);
    }

    #[test]
    fn thread_index_wraps() {
        let mut bins = ThreadBins::new(4, 16);
        bins.record(7, 42); // 7 % 4 == 3
        assert_eq!(bins.concatenate(), vec![42]);
    }

    #[test]
    fn bitmap_set_test_unset() {
        let mut b = FrontierBitmap::new(130);
        assert_eq!(b.words().len(), 3);
        for v in [0u32, 63, 64, 129] {
            assert!(!b.test(v));
            b.set(v);
            assert!(b.test(v));
        }
        assert_eq!(b.count(), 4);
        b.unset(64);
        assert!(!b.test(64));
        assert_eq!(b.count(), 3);
        assert!(!b.is_empty());
        b.clear_all();
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn bitmap_iterates_ascending() {
        let mut b = FrontierBitmap::new(200);
        for v in [199u32, 0, 64, 63, 3, 130] {
            b.set(v);
        }
        let got: Vec<VertexId> = b.iter().collect();
        assert_eq!(got, vec![0, 3, 63, 64, 130, 199]);
    }

    #[test]
    fn bitmap_drain_visits_and_clears() {
        let mut b = FrontierBitmap::new(100);
        b.set(2);
        b.set(66);
        let mut seen = Vec::new();
        b.drain_for_each(|v| seen.push(v));
        assert_eq!(seen, vec![2, 66]);
        assert!(b.is_empty());
    }

    #[test]
    fn bitmap_reset_reuses_shape() {
        let mut a = FrontierBitmap::new(70);
        a.set(1);
        a.set(69);
        a.reset(70);
        assert!(a.is_empty());
        assert_eq!(a.num_vertices(), 70);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_rejects_phantom_tail_vertices() {
        // 97 vertices leave a partial tail word; bit 100 physically
        // exists but must not be addressable.
        let mut b = FrontierBitmap::new(97);
        b.set(100);
    }

    #[test]
    fn changed_views_are_offset_aware_and_feed_one_list() {
        let mut set = ChangedSet::new(256);
        let (mut lo_list, mut hi_list) = (Vec::new(), Vec::new());
        let (lo, hi) = set.words_mut().split_at_mut(2);
        let mut w0 = ChangedView::new(0, lo, &mut lo_list);
        let mut w1 = ChangedView::new(2, hi, &mut hi_list);
        assert!(w0.is_first(5) && w1.is_first(128));
        w0.mark(5);
        w1.mark(128);
        w1.mark(255);
        assert!(!w0.is_first(5));
        assert!(w1.is_first(129));
        assert!(!w1.is_first(255));
        set.extend_marked(&lo_list);
        set.extend_marked(&hi_list);
        assert!(!set.is_first(128) && set.is_first(6));
        let curr: Vec<u32> = (0..256).collect();
        let mut prev = vec![0u32; 256];
        set.publish(&mut prev, &curr);
        let published: Vec<usize> = (0..256).filter(|&v| prev[v] != 0).collect();
        assert_eq!(published, vec![5, 128, 255]);
        assert!(set.is_empty());
    }

    #[test]
    fn density_is_the_changed_count_against_a_64th_of_the_vertices() {
        // 200 / 64 == 3: the third mark makes the iteration dense.
        let mut set = ChangedSet::new(200);
        assert!(!set.is_dense());
        set.mark(7);
        set.mark(150);
        assert!(!set.is_dense());
        set.mark(8);
        assert!(set.is_dense());
        set.clear();
        assert!(set.is_empty() && !set.is_dense());
        // Fewer than 64 vertices: every iteration is dense.
        assert!(ChangedSet::new(63).is_dense());
    }

    /// Deterministic xorshift: the property below needs arbitrary, not
    /// unpredictable, inputs.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn both_publish_strategies_write_the_same_cells_and_drain_the_set() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            let n = 1 + (xorshift(&mut rng) % 700) as usize;
            let marks = (xorshift(&mut rng) % (2 * n as u64)) as usize;
            let start: Vec<u32> = (0..n).map(|_| xorshift(&mut rng) as u32).collect();
            let (mut walk, mut sweep) = (ChangedSet::new(n), ChangedSet::new(n));
            let mut curr = start.clone();
            for _ in 0..marks {
                let v = (xorshift(&mut rng) % n as u64) as VertexId;
                let first = curr[v as usize] == start[v as usize];
                assert_eq!(walk.is_first(v), first, "bit test vs metadata compare");
                assert_eq!(sweep.view().is_first(v), first);
                // Monotone progress: a changed value never returns to
                // its iteration-start value.
                curr[v as usize] = curr[v as usize].wrapping_add(1);
                if first {
                    walk.mark(v);
                    sweep.mark(v);
                }
            }
            let (mut by_walk, mut by_sweep) = (start.clone(), start.clone());
            walk.publish_list_walk(&mut by_walk, &curr);
            sweep.publish_word_sweep(&mut by_sweep, &curr);
            assert_eq!(by_walk, curr, "n={n} marks={marks}");
            assert_eq!(by_sweep, curr, "n={n} marks={marks}");
            assert!(walk.is_empty() && sweep.is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// [`FrontierBitmap`] agrees with a `BTreeSet` model under
        /// arbitrary set/clear/test sequences over a (mostly word- and
        /// warp-misaligned) size: same membership, same popcount
        /// cardinality, same ascending iteration and drain order.
        #[test]
        fn bitmap_matches_btreeset_model(
            (n, ops) in (2u32..300).prop_flat_map(|n| {
                (Just(n), proptest::collection::vec((0u8..3, 0..n), 0..120))
            })
        ) {
            let mut bm = FrontierBitmap::new(n as usize);
            let mut model: BTreeSet<u32> = BTreeSet::new();
            for (op, v) in ops {
                match op {
                    0 => {
                        bm.set(v);
                        model.insert(v);
                    }
                    1 => {
                        bm.unset(v);
                        model.remove(&v);
                    }
                    _ => prop_assert_eq!(bm.test(v), model.contains(&v)),
                }
            }
            let expected: Vec<u32> = model.iter().copied().collect();
            prop_assert_eq!(bm.count(), expected.len() as u64);
            prop_assert_eq!(bm.is_empty(), expected.is_empty());
            prop_assert_eq!(bm.iter().collect::<Vec<_>>(), expected.clone());
            let mut drained = Vec::new();
            bm.drain_into(&mut drained);
            prop_assert_eq!(drained, expected);
            prop_assert!(bm.is_empty());
        }
    }
}
