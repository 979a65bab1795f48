//! Worklists, degree classification, per-thread bins (§4) and the
//! bitmap frontier representation.
//!
//! Step I of JIT task management classifies active vertices by degree
//! into three worklists; step II assigns a thread per small task, a warp
//! per medium task and a CTA per large task. During computation the
//! online filter records newly-activated vertices into bounded
//! *thread bins*; a bin overflow is the signal that flips the JIT
//! controller over to the ballot filter.
//!
//! [`FrontierBitmap`] is the dense counterpart of the sorted worklists:
//! one `u64` word per 64 vertices (two warp chunks at the ballot
//! filter's 32-lane granularity), selected by
//! [`crate::config::FrontierRepr::Bitmap`]. Set-shaped frontier
//! structures — the changed-vertex set, pull-candidate dedup and the
//! ballot scan's occupancy — become O(1) bit tests and word-level skips
//! instead of vertex-list walks, while every iteration order stays
//! ascending so results remain bit-equal to the list representation.

use simdx_gpu::SchedUnit;
use simdx_graph::csr::Csr;
use simdx_graph::VertexId;

/// Bits per [`FrontierBitmap`] word: 64 vertices, i.e. two warp chunks
/// of the ballot filter's [`simdx_gpu::WARP_SIZE`] granularity.
pub const WORD_BITS: usize = 64;

// The engine leans on "one bitmap word = two ballot warp chunks"
// everywhere (warp-aligned scan starts inside word-aligned partitions,
// word-aligned fences that are therefore chunk-aligned); lock the
// constants together so no one can move one without the other.
const _: () = assert!(2 * simdx_gpu::WARP_SIZE == WORD_BITS);

/// A dense frontier: bit `v % 64` of word `v / 64` is set iff vertex
/// `v` is in the set.
///
/// All iteration orders ([`Self::iter`], [`Self::collect_into`],
/// [`Self::drain_for_each`]) are ascending vertex order — the same
/// order the ballot filter emits — so a bitmap and a sorted,
/// duplicate-free worklist are interchangeable representations of the
/// same frontier. Membership is an O(1) word load; cardinality is a
/// popcount sweep; and empty regions are skipped a word (64 vertices)
/// at a time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierBitmap {
    words: Vec<u64>,
    num_vertices: usize,
}

impl FrontierBitmap {
    /// An empty bitmap over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            words: vec![0; num_vertices.div_ceil(WORD_BITS)],
            num_vertices,
        }
    }

    /// Reshapes to `num_vertices` and clears every bit, reusing the
    /// word allocation (the engine calls this once per run; in steady
    /// state it never allocates).
    pub fn reset(&mut self, num_vertices: usize) {
        self.words.clear();
        self.words.resize(num_vertices.div_ceil(WORD_BITS), 0);
        self.num_vertices = num_vertices;
    }

    /// Number of vertices the bitmap covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of backing words (`ceil(num_vertices / 64)`).
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Sets bit `v`. Panics when `v` is out of range — including in
    /// release builds, where the partial tail word would otherwise
    /// silently accept phantom vertices.
    #[inline]
    pub fn set(&mut self, v: VertexId) {
        assert!((v as usize) < self.num_vertices, "vertex out of range");
        self.words[v as usize / WORD_BITS] |= 1u64 << (v as usize % WORD_BITS);
    }

    /// Tests bit `v`. Panics when `v` is out of range.
    #[inline]
    pub fn test(&self, v: VertexId) -> bool {
        assert!((v as usize) < self.num_vertices, "vertex out of range");
        self.words[v as usize / WORD_BITS] & (1u64 << (v as usize % WORD_BITS)) != 0
    }

    /// Clears bit `v`. Panics when `v` is out of range.
    #[inline]
    pub fn unset(&mut self, v: VertexId) {
        assert!((v as usize) < self.num_vertices, "vertex out of range");
        self.words[v as usize / WORD_BITS] &= !(1u64 << (v as usize % WORD_BITS));
    }

    /// Clears every bit, keeping the shape.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Popcount-based cardinality.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The backing words for word-level iteration (e.g. the ballot
    /// scan's all-zero-word skip).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable backing words — the raw form handed to
    /// [`crate::par::SliceShards`] for word-aligned partitioning.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// A mutable view of the whole bitmap (the one-shard case of
    /// [`BitmapWordsMut`]).
    pub fn view_mut(&mut self) -> BitmapWordsMut<'_> {
        BitmapWordsMut::new(0, &mut self.words)
    }

    /// Iterates set bits in ascending vertex order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let w = w & (w - 1);
                (w != 0).then_some(w)
            })
            .map(move |w| (i * WORD_BITS) as VertexId + w.trailing_zeros())
        })
    }

    /// Rebuilds the bitmap over `num_vertices` from a worklist (any
    /// order, duplicates collapse).
    pub fn fill_from_list(&mut self, num_vertices: usize, list: &[VertexId]) {
        self.reset(num_vertices);
        for &v in list {
            self.set(v);
        }
    }

    /// Appends the set vertices to `out` in ascending order.
    pub fn collect_into(&self, out: &mut Vec<VertexId>) {
        for v in self.iter() {
            out.push(v);
        }
    }

    /// Visits set bits in ascending order, clearing each word after it
    /// is consumed — the O(set words) "publish and reset" sweep of the
    /// engine's bitmap mode.
    pub fn drain_for_each(&mut self, mut f: impl FnMut(VertexId)) {
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
    pub fn drain_into(&mut self, out: &mut Vec<VertexId>) {
        self.drain_for_each(|v| out.push(v));
    }
}

/// A word-aligned mutable window of a [`FrontierBitmap`] covering
/// vertices `[64 * word_off, 64 * (word_off + words.len()))`.
///
/// Disjoint windows alias nothing, so the parallel push backend hands
/// one to each destination shard (whose fences are word-aligned in
/// bitmap mode) for **atomic-free** changed-set recording.
#[derive(Debug)]
pub struct BitmapWordsMut<'a> {
    word_off: usize,
    words: &'a mut [u64],
}

impl<'a> BitmapWordsMut<'a> {
    /// A view starting at word `word_off` of the parent bitmap.
    pub fn new(word_off: usize, words: &'a mut [u64]) -> Self {
        Self { word_off, words }
    }

    /// Sets bit `v` (must fall inside the window).
    #[inline]
    pub fn set(&mut self, v: VertexId) {
        let w = v as usize / WORD_BITS;
        debug_assert!((self.word_off..self.word_off + self.words.len()).contains(&w));
        self.words[w - self.word_off] |= 1u64 << (v as usize % WORD_BITS);
    }

    /// Tests bit `v` (must fall inside the window).
    #[inline]
    pub fn test(&self, v: VertexId) -> bool {
        let w = v as usize / WORD_BITS;
        debug_assert!((self.word_off..self.word_off + self.words.len()).contains(&w));
        self.words[w - self.word_off] & (1u64 << (v as usize % WORD_BITS)) != 0
    }
}

/// How a compute task records "vertex `v`'s metadata first diverged
/// from the iteration-start snapshot this iteration".
///
/// The engine's first-change detection has two interchangeable
/// implementations: the list representation compares metadata
/// (`curr == prev`), the bitmap representation tests one bit. They
/// agree because of the engine invariant that metadata never returns
/// to its iteration-start value within an iteration (all ACC programs
/// make monotone progress), so `changed-bit set ⟺ curr != prev`.
pub(crate) trait ChangeSink<M> {
    /// Whether `v` has not changed yet this iteration (called *before*
    /// the apply that may change it).
    fn is_first(&self, v: VertexId, curr: &M, prev: &M) -> bool;
    /// Records `v` as changed.
    fn mark(&mut self, v: VertexId);
}

/// List-mode sink: metadata compare + changed-list push.
pub(crate) struct ListSink<'a>(pub &'a mut Vec<VertexId>);

impl<M: PartialEq> ChangeSink<M> for ListSink<'_> {
    #[inline]
    fn is_first(&self, _v: VertexId, curr: &M, prev: &M) -> bool {
        curr == prev
    }

    #[inline]
    fn mark(&mut self, v: VertexId) {
        self.0.push(v);
    }
}

/// Bitmap-mode sink: bit test + bit set over a (possibly sharded)
/// window.
pub(crate) struct BitSink<'a>(pub BitmapWordsMut<'a>);

impl<M> ChangeSink<M> for BitSink<'_> {
    #[inline]
    fn is_first(&self, v: VertexId, _curr: &M, _prev: &M) -> bool {
        !self.0.test(v)
    }

    #[inline]
    fn mark(&mut self, v: VertexId) {
        self.0.set(v);
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
    pub fn classify(&self, d: u32) -> SchedUnit {
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
pub struct Worklists {
    /// Vertices processed one-per-thread (small degrees).
    pub small: Vec<VertexId>,
    /// Vertices processed one-per-warp (medium degrees).
    pub med: Vec<VertexId>,
    /// Vertices processed one-per-CTA (large degrees).
    pub large: Vec<VertexId>,
}

impl Worklists {
    /// Builds worklists by classifying `active` against the degrees in
    /// `csr` (in the scan direction the next iteration will use).
    pub fn classify(active: &[VertexId], csr: &Csr, thresholds: ClassifyThresholds) -> Self {
        let mut lists = Self::default();
        lists.classify_into(active, csr, thresholds);
        lists
    }

    /// In-place [`Self::classify`]: clears the lists (keeping their
    /// capacity) and refills them — the zero-allocation path the engine
    /// scratch uses every iteration.
    pub fn classify_into(
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
    /// streaming form backing both [`Self::classify_into`] and the
    /// bitmap-mode drain that classifies straight out of
    /// [`ThreadBins`] without materializing the concatenated worklist.
    #[inline]
    pub fn classify_one(&mut self, v: VertexId, csr: &Csr, thresholds: ClassifyThresholds) {
        match thresholds.classify(csr.degree(v)) {
            SchedUnit::Thread => self.small.push(v),
            SchedUnit::Warp => self.med.push(v),
            SchedUnit::Cta => self.large.push(v),
        }
    }

    /// Clears all three lists, keeping capacity.
    pub fn clear(&mut self) {
        self.small.clear();
        self.med.clear();
        self.large.clear();
    }

    /// Appends another set of worklists (used to merge per-worker
    /// classification results in worker order, which reproduces the
    /// serial order because workers own contiguous chunks).
    pub fn append(&mut self, other: &Self) {
        self.small.extend_from_slice(&other.small);
        self.med.extend_from_slice(&other.med);
        self.large.extend_from_slice(&other.large);
    }

    /// Total entries across the three lists.
    pub fn len(&self) -> u64 {
        (self.small.len() + self.med.len() + self.large.len()) as u64
    }

    /// Whether every list is empty (BSP termination signal).
    pub fn is_empty(&self) -> bool {
        self.small.is_empty() && self.med.is_empty() && self.large.is_empty()
    }

    /// The list processed at the given granularity.
    pub fn list(&self, unit: SchedUnit) -> &[VertexId] {
        match unit {
            SchedUnit::Thread => &self.small,
            SchedUnit::Warp => &self.med,
            SchedUnit::Cta => &self.large,
        }
    }

    /// Iterates `(unit, list)` pairs in small→med→large order.
    pub fn iter_units(&self) -> impl Iterator<Item = (SchedUnit, &[VertexId])> {
        [
            (SchedUnit::Thread, self.small.as_slice()),
            (SchedUnit::Warp, self.med.as_slice()),
            (SchedUnit::Cta, self.large.as_slice()),
        ]
        .into_iter()
    }

    /// Sum of scan-direction degrees over all entries — the frontier
    /// workload volume used by the direction heuristic.
    pub fn degree_sum(&self, csr: &Csr) -> u64 {
        self.iter_units()
            .flat_map(|(_, l)| l.iter())
            .map(|&v| csr.degree(v) as u64)
            .sum()
    }
}

/// Bounded per-thread bins used by the online filter.
///
/// Each simulated GPU thread owns a bin of at most `threshold` slots
/// (the §4 overflow threshold, default 64). Recording into a full bin
/// raises the overflow flag instead of growing — exactly the behaviour
/// that forces the switch to the ballot filter.
///
/// There is one bin per Thread-kernel slot (300 at the default device
/// scale) and a small frontier fills a handful of them, so the bins
/// carry a non-empty bitmap: clearing, concatenating and draining
/// visit only the bins that hold entries, in ascending bin order —
/// the same order a walk over every bin would produce.
#[derive(Clone, Debug)]
pub struct ThreadBins {
    bins: Vec<Vec<VertexId>>,
    /// Bit `b` is set iff bin `b` holds entries.
    nonempty: FrontierBitmap,
    /// Entries across all bins.
    recorded: u64,
    threshold: usize,
    overflowed: bool,
    /// Records dropped because of overflow (kept for diagnostics; the
    /// ballot filter regenerates the full list so nothing is lost).
    dropped: u64,
    /// Per-bin prefix offsets into the concatenation order
    /// (`bins + 1` entries once sealed, empty while recording). Built
    /// by [`Self::seal_prefix`] so the parallel backend can partition
    /// the bin-resident frontier through [`Self::for_each_entry_in`]
    /// ranges instead of materializing the concatenated list.
    prefix: Vec<u64>,
}

impl ThreadBins {
    /// Creates `num_threads` empty bins with the given overflow
    /// threshold.
    pub fn new(num_threads: usize, threshold: usize) -> Self {
        let num_threads = num_threads.max(1);
        Self {
            bins: vec![Vec::new(); num_threads],
            nonempty: FrontierBitmap::new(num_threads),
            recorded: 0,
            threshold,
            overflowed: false,
            dropped: 0,
            prefix: Vec::new(),
        }
    }

    /// Number of bins (simulated threads).
    pub fn num_threads(&self) -> usize {
        self.bins.len()
    }

    /// The overflow threshold in force.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Records vertex `v` from simulated thread `thread`. Returns
    /// `false` (and sets the overflow flag) if the bin was full.
    pub fn record(&mut self, thread: usize, v: VertexId) -> bool {
        debug_assert!(
            self.prefix.is_empty(),
            "recording into sealed bins (prefix would go stale)"
        );
        let idx = thread % self.bins.len();
        let bin = &mut self.bins[idx];
        if bin.len() >= self.threshold {
            self.overflowed = true;
            self.dropped += 1;
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
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Records dropped due to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total recorded entries across bins.
    pub fn total_recorded(&self) -> u64 {
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
    pub fn concatenate(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.total_recorded() as usize);
        self.concatenate_into(&mut out);
        out
    }

    /// In-place [`Self::concatenate`] into a reused buffer (cleared
    /// first, capacity kept).
    pub fn concatenate_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        for bin in self.nonempty_bins() {
            out.extend_from_slice(bin);
        }
    }

    /// Visits every recorded vertex in concatenation order (bin by
    /// bin, entries in record order — exactly the sequence
    /// [`Self::concatenate`] would produce, duplicates included).
    ///
    /// This is the bitmap-native worklist drain: the engine's bitmap
    /// mode feeds the next iteration's degree sum, classification and
    /// aggregation-pull marking straight from the bins, so the
    /// duplicate-carrying online worklist need never be materialized
    /// as a flat list.
    pub fn for_each_entry(&self, mut f: impl FnMut(VertexId)) {
        for bin in self.nonempty_bins() {
            for &v in bin {
                f(v);
            }
        }
    }

    /// Builds the per-bin prefix offsets over the current contents —
    /// the index [`Self::for_each_entry_in`] ranges resolve against.
    /// Call once after the last [`Self::record`] of an iteration
    /// (recording after sealing would silently desynchronize the
    /// index, so [`Self::record`] debug-asserts the unsealed state).
    pub fn seal_prefix(&mut self) {
        self.prefix.clear();
        self.prefix.push(0);
        let mut acc = 0u64;
        for bin in &self.bins {
            acc += bin.len() as u64;
            self.prefix.push(acc);
        }
    }

    /// Visits the entries at concatenation positions `[lo, hi)` — the
    /// exact subsequence `[Self::concatenate]`'s output would hold
    /// there, duplicates included. Contiguous ranges visited in order
    /// therefore reproduce [`Self::for_each_entry`] exactly, which is
    /// how the parallel backend partitions a bin-resident frontier
    /// across workers without materializing it. Requires a current
    /// [`Self::seal_prefix`]; resolves the starting bin by binary
    /// search, so a worker pays O(log bins + entries visited).
    pub fn for_each_entry_in(&self, lo: u64, hi: u64, mut f: impl FnMut(VertexId)) {
        debug_assert_eq!(self.prefix.len(), self.bins.len() + 1, "prefix not sealed");
        debug_assert_eq!(
            *self.prefix.last().expect("sealed prefix"),
            self.total_recorded(),
            "prefix stale: bins recorded after seal_prefix"
        );
        if lo >= hi {
            return;
        }
        // Largest bin whose prefix start is <= lo (prefix[0] == 0, so
        // the partition point is always >= 1).
        let mut b = self.prefix.partition_point(|&p| p <= lo) - 1;
        let mut pos = lo;
        while pos < hi && b < self.bins.len() {
            let bin = &self.bins[b];
            let start = (pos - self.prefix[b]) as usize;
            let end = (hi - self.prefix[b]).min(bin.len() as u64) as usize;
            for &v in &bin[start..end] {
                f(v);
            }
            pos = self.prefix[b] + end as u64;
            b += 1;
        }
    }

    /// Clears the bins that hold entries, the overflow flag and the
    /// prefix index for the next iteration.
    pub fn clear(&mut self) {
        let bins = &mut self.bins;
        self.nonempty.drain_for_each(|b| bins[b as usize].clear());
        self.recorded = 0;
        self.overflowed = false;
        self.dropped = 0;
        self.prefix.clear();
    }

    /// Reshapes to `num_threads` bins with `threshold` capacity and
    /// clears, reusing existing bin allocations (the engine calls this
    /// every iteration; growing/shrinking only moves empty `Vec`s).
    pub fn reset_to(&mut self, num_threads: usize, threshold: usize) {
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
    use simdx_graph::EdgeList;

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
        let lists = Worklists::classify(&[0, 1, 2], &csr, ClassifyThresholds::default());
        assert_eq!(lists.large, vec![0]);
        assert_eq!(lists.small, vec![1, 2]);
        assert!(lists.med.is_empty());
        assert_eq!(lists.len(), 3);
        assert!(!lists.is_empty());
    }

    #[test]
    fn degree_sum_counts_scan_volume() {
        let csr = star_csr(200);
        let lists = Worklists::classify(&[0, 1], &csr, ClassifyThresholds::default());
        assert_eq!(lists.degree_sum(&csr), 200);
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
        assert_eq!(bins.dropped(), 1);
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
        assert_eq!(bins.dropped(), 0);
    }

    #[test]
    fn for_each_entry_matches_concatenation_order() {
        let mut bins = ThreadBins::new(3, 8);
        bins.record(1, 4);
        bins.record(0, 7);
        bins.record(2, 9);
        bins.record(0, 7); // duplicate kept, in record order
        let mut seen = Vec::new();
        bins.for_each_entry(|v| seen.push(v));
        assert_eq!(seen, bins.concatenate());
        assert_eq!(seen, vec![7, 7, 4, 9]);
    }

    #[test]
    fn entry_ranges_partition_the_concatenation() {
        // Uneven bins, including empty ones, so the binary search has
        // runs of equal prefix entries to step over.
        let mut bins = ThreadBins::new(5, 8);
        for (t, v) in [(0, 7), (0, 7), (2, 4), (2, 9), (2, 1), (4, 3)] {
            bins.record(t, v);
        }
        bins.seal_prefix();
        let full = bins.concatenate();
        let total = bins.total_recorded();
        for parts in 1..=4u64 {
            let mut seen = Vec::new();
            for w in 0..parts {
                let lo = total * w / parts;
                let hi = total * (w + 1) / parts;
                bins.for_each_entry_in(lo, hi, |v| seen.push(v));
            }
            assert_eq!(seen, full, "{parts}-way partition diverged");
        }
        // Out-of-range and empty ranges are harmless.
        bins.for_each_entry_in(3, 3, |_| panic!("empty range visited"));
        let mut tail = Vec::new();
        bins.for_each_entry_in(total - 1, total + 5, |v| tail.push(v));
        assert_eq!(tail, vec![full[full.len() - 1]]);
        // Clearing invalidates the prefix so recording is legal again.
        bins.clear();
        assert!(bins.record(1, 2));
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
        let mut seen = Vec::new();
        bins.for_each_entry(|v| seen.push(v));
        assert_eq!(seen, want);
        bins.seal_prefix();
        seen.clear();
        bins.for_each_entry_in(0, 6, |v| seen.push(v));
        assert_eq!(seen, want);

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
        assert_eq!(b.num_words(), 3);
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
        let mut out = Vec::new();
        b.collect_into(&mut out);
        assert_eq!(out, got);
    }

    #[test]
    fn bitmap_roundtrips_worklist_at_misaligned_len() {
        // 97 is warp- and word-misaligned: the tail word is partial.
        let list = vec![1u32, 5, 31, 32, 64, 95, 96];
        let mut b = FrontierBitmap::default();
        b.fill_from_list(97, &list);
        assert_eq!(b.count(), list.len() as u64);
        let mut out = Vec::new();
        b.collect_into(&mut out);
        assert_eq!(out, list);
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
    fn bitmap_word_window_is_offset_aware() {
        let mut b = FrontierBitmap::new(256);
        let words = b.words_mut();
        let (lo, hi) = words.split_at_mut(2);
        let mut w0 = BitmapWordsMut::new(0, lo);
        let mut w1 = BitmapWordsMut::new(2, hi);
        w0.set(5);
        w1.set(128);
        w1.set(255);
        assert!(w0.test(5));
        assert!(!w1.test(129));
        assert!(w1.test(255));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![5, 128, 255]);
    }

    #[test]
    fn change_sinks_agree() {
        let mut list = Vec::new();
        let mut bits = FrontierBitmap::new(64);
        let mut ls = ListSink(&mut list);
        let mut bs = BitSink(bits.view_mut());
        // Unchanged vertex: both report first change.
        assert!(ChangeSink::<u32>::is_first(&ls, 7, &1, &1));
        assert!(ChangeSink::<u32>::is_first(&bs, 7, &1, &1));
        ChangeSink::<u32>::mark(&mut ls, 7);
        ChangeSink::<u32>::mark(&mut bs, 7);
        // Changed vertex (curr != prev; bit set): both report not-first.
        assert!(!ChangeSink::<u32>::is_first(&ls, 7, &2, &1));
        assert!(!ChangeSink::<u32>::is_first(&bs, 7, &2, &1));
        assert_eq!(list, vec![7]);
        assert!(bits.test(7));
    }
}
