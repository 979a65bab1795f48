//! The ballot filter (§4).
//!
//! Threads cooperatively scan the metadata arrays in warp-sized,
//! coalesced chunks; `__ballot` condenses each chunk's Active results
//! into a lane mask, and the set bits are appended — in vertex order —
//! to the next active list. Because each warp owns a contiguous vertex
//! range, the output is **sorted and duplicate-free**, the property that
//! makes next-iteration memory access sequential (§4's "dual benefits:
//! coalesced scan and sorted active vertices").

use crate::acc::AccProgram;
use crate::frontier::WORD_BITS;
use simdx_gpu::warp::{ballot, popc};
use simdx_gpu::{Cost, GpuExecutor, KernelCharge, KernelDesc, SchedUnit, WARP_SIZE};
use simdx_graph::VertexId;

/// Per-warp-chunk scan cost: two coalesced metadata loads per lane,
/// the compare + ballot + popc ALU work, and the compacted append of
/// the `votes` voting lanes. Shared by the dense and sparse scans so
/// their charged sequences cannot drift apart.
fn chunk_cost(chunk: usize, votes: u32) -> Cost {
    Cost {
        compute_ops: 3 * chunk as u64,
        coalesced_reads: 2 * chunk as u64,
        writes: u64::from(votes),
        width: WARP_SIZE as u64,
        ..Cost::default()
    }
}

/// The scalar reference scan — the `< 32` tail of
/// [`scan_range_chunked`] and what the unit tests compare it against:
/// scans vertices `[start, end)` of the metadata arrays in warp-sized
/// chunks, appending active vertices to `active` and handing each
/// chunk's cost, in chunk order, to `charge` — the engine passes its
/// streaming [`KernelCharge`], the tests a collecting closure.
///
/// `start` must be warp-aligned so that partition boundaries fall on
/// the same chunk boundaries the whole-array scan uses — partitions
/// concatenated in range order are then bit-identical (same actives,
/// same cost sequence) to one scan of the full range.
pub fn scan_range<P: AccProgram>(
    program: &P,
    curr: &[P::Meta],
    prev: &[P::Meta],
    start: usize,
    end: usize,
    active: &mut Vec<VertexId>,
    charge: &mut impl FnMut(Cost),
) {
    assert_eq!(curr.len(), prev.len(), "metadata arrays must be parallel");
    assert!(
        start.is_multiple_of(WARP_SIZE),
        "partition start must be warp-aligned"
    );
    let mut preds = [false; WARP_SIZE];
    let mut base = start;
    while base < end {
        let chunk = (end - base).min(WARP_SIZE);
        for lane in 0..chunk {
            let v = (base + lane) as VertexId;
            preds[lane] = program.active(v, &curr[base + lane], &prev[base + lane]);
        }
        // `__ballot` across the warp, then the warp appends its set
        // lanes in order — keeping the global output sorted because
        // warp w owns vertices [32w, 32w+32).
        let mask = ballot(&preds[..chunk]);
        let votes = popc(mask);
        for lane in 0..chunk {
            if mask & (1 << lane) != 0 {
                active.push((base + lane) as VertexId);
            }
        }
        charge(chunk_cost(chunk, votes));
        base += chunk;
    }
}

/// The dense scan: full 32-vertex chunks are swept through `[M; 32]`
/// array windows with a fixed-width lane loop, so the compiler can
/// unroll/vectorize the Active compares into a mask (the host analogue
/// of `__ballot`); the partial tail chunk (when `end % 32 != 0`) falls
/// back to the scalar [`scan_range`].
///
/// The output — actives *and* per-chunk cost sequence — is
/// bit-identical to [`scan_range`] over the same range: same lane
/// order inside each chunk (ascending, the bit order `ballot` packs),
/// same `chunk_cost` per chunk. `start` must be warp-aligned for the
/// same reason.
pub fn scan_range_chunked<P: AccProgram>(
    program: &P,
    curr: &[P::Meta],
    prev: &[P::Meta],
    start: usize,
    end: usize,
    active: &mut Vec<VertexId>,
    charge: &mut impl FnMut(Cost),
) {
    assert_eq!(curr.len(), prev.len(), "metadata arrays must be parallel");
    assert!(
        start.is_multiple_of(WARP_SIZE),
        "partition start must be warp-aligned"
    );
    let mut base = start;
    let (mut c_rest, mut p_rest) = (&curr[start..end], &prev[start..end]);
    while let (Some((c, c_tail)), Some((p, p_tail))) = (
        c_rest.split_first_chunk::<WARP_SIZE>(),
        p_rest.split_first_chunk::<WARP_SIZE>(),
    ) {
        let mut mask = 0u32;
        for lane in 0..WARP_SIZE {
            mask |= (program.active((base + lane) as VertexId, &c[lane], &p[lane]) as u32) << lane;
        }
        let votes = popc(mask);
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            active.push((base + lane) as VertexId);
            m &= m - 1;
        }
        charge(chunk_cost(WARP_SIZE, votes));
        base += WARP_SIZE;
        (c_rest, p_rest) = (c_tail, p_tail);
    }
    if base < end {
        scan_range(program, curr, prev, base, end, active, charge);
    }
}

/// [`scan_range_chunked`] with a word-level occupancy skip: `occupancy`
/// is the changed-vertex bitmap's backing words (bit `v % 64` of word
/// `v / 64`), and any all-zero word — 64 vertices, two warp chunks —
/// is charged without touching the metadata arrays.
///
/// The output (actives *and* per-chunk cost sequence) is bit-identical
/// to the dense scan over the same range because a vertex whose
/// metadata still equals the iteration-start snapshot cannot satisfy
/// the Active condition (`active(v, m, m)` is `false` for every ACC
/// program), so a zero occupancy word proves its two chunks vote
/// nothing: same zero `writes`, same scan reads, no actives. `start`
/// must be word-aligned (64) so partition boundaries fall on occupancy
/// words; partitions concatenated in range order remain bit-identical
/// to one scan of the full range.
#[allow(clippy::too_many_arguments)]
pub fn scan_range_sparse<P: AccProgram>(
    program: &P,
    curr: &[P::Meta],
    prev: &[P::Meta],
    start: usize,
    end: usize,
    occupancy: &[u64],
    active: &mut Vec<VertexId>,
    charge: &mut impl FnMut(Cost),
) {
    assert_eq!(curr.len(), prev.len(), "metadata arrays must be parallel");
    assert!(
        start.is_multiple_of(WORD_BITS),
        "partition start must be word-aligned"
    );
    assert!(
        occupancy.len() * WORD_BITS >= end,
        "occupancy must cover the scanned range"
    );
    let mut base = start;
    while base < end {
        let word_end = (base + WORD_BITS).min(end);
        if occupancy[base / WORD_BITS] == 0 {
            // No vertex in this word changed: charge the two warp
            // chunks (or the partial tail) exactly as the dense scan
            // would — full coalesced reads, zero votes — without
            // loading metadata.
            while base < word_end {
                let chunk = (word_end - base).min(WARP_SIZE);
                charge(chunk_cost(chunk, 0));
                base += chunk;
            }
        } else {
            scan_range_chunked(program, curr, prev, base, word_end, active, charge);
            base = word_end;
        }
    }
}

/// Scans `curr` vs `prev` metadata with the program's Active condition
/// and returns the sorted, duplicate-free active list, charging the scan
/// kernel to `executor`.
///
/// # Panics
///
/// Panics if the metadata arrays have different lengths.
pub fn scan<P: AccProgram>(
    program: &P,
    curr: &[P::Meta],
    prev: &[P::Meta],
    executor: &mut GpuExecutor,
    kernel: &KernelDesc,
    launch: bool,
) -> Vec<VertexId> {
    let mut active = Vec::new();
    let mut charge = KernelCharge::default();
    executor.begin(
        &mut charge,
        kernel,
        SchedUnit::Warp,
        curr.len().div_ceil(WARP_SIZE),
    );
    scan_range_chunked(program, curr, prev, 0, curr.len(), &mut active, &mut |c| {
        charge.task(&c)
    });
    executor.commit(&charge, launch);
    active
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::CombineKind;
    use simdx_gpu::DeviceSpec;
    use simdx_graph::{Graph, Weight};

    /// Trivial program whose Active is the default curr != prev.
    struct Diff;

    impl AccProgram for Diff {
        type Meta = u32;
        type Update = u32;

        fn name(&self) -> &'static str {
            "diff"
        }

        fn combine_kind(&self) -> CombineKind {
            CombineKind::Vote
        }

        fn init(&self, _g: &Graph) -> (Vec<u32>, Vec<VertexId>) {
            unreachable!("not used by filter tests")
        }

        fn compute(
            &self,
            _s: VertexId,
            _d: VertexId,
            _w: Weight,
            _ms: &u32,
            _md: &u32,
        ) -> Option<u32> {
            None
        }

        fn combine(&self, a: u32, _b: u32) -> u32 {
            a
        }

        fn apply(&self, _v: VertexId, _c: &u32, _u: u32) -> Option<u32> {
            None
        }
    }

    fn setup() -> (GpuExecutor, KernelDesc) {
        (
            GpuExecutor::new(DeviceSpec::k40()),
            KernelDesc::new("taskmgmt", 24),
        )
    }

    /// What one scan produced: the actives and the cost sequence it
    /// handed to its sink, collected for comparison.
    #[derive(Debug, Default, PartialEq)]
    struct Scanned {
        active: Vec<VertexId>,
        tasks: Vec<Cost>,
    }

    impl Scanned {
        fn scalar(&mut self, curr: &[u32], prev: &[u32], start: usize, end: usize) {
            let Scanned { active, tasks } = self;
            scan_range(&Diff, curr, prev, start, end, active, &mut |c| {
                tasks.push(c)
            });
        }

        fn chunked(&mut self, curr: &[u32], prev: &[u32], start: usize, end: usize) {
            let Scanned { active, tasks } = self;
            scan_range_chunked(&Diff, curr, prev, start, end, active, &mut |c| {
                tasks.push(c)
            });
        }

        fn sparse(&mut self, curr: &[u32], prev: &[u32], start: usize, end: usize, occ: &[u64]) {
            let Scanned { active, tasks } = self;
            scan_range_sparse(&Diff, curr, prev, start, end, occ, active, &mut |c| {
                tasks.push(c)
            });
        }
    }

    #[test]
    fn finds_changed_vertices_sorted() {
        let (mut ex, k) = setup();
        let prev = vec![0u32; 100];
        let mut curr = prev.clone();
        curr[97] = 1;
        curr[3] = 1;
        curr[40] = 2;
        let list = scan(&Diff, &curr, &prev, &mut ex, &k, true);
        assert_eq!(list, vec![3, 40, 97]);
        assert_eq!(ex.stats().kernel_launches, 1);
    }

    #[test]
    fn scan_charges_exactly_its_cost_sequence() {
        // Streaming the chunk costs through the accumulator as they
        // are produced equals collecting them and charging the vector.
        let n = 32 * 700 + 9;
        let prev = vec![0u32; n];
        let mut curr = prev.clone();
        for v in (0..n).step_by(37) {
            curr[v] = 1;
        }
        let (mut streamed, k) = setup();
        streamed.set_scale(64);
        scan(&Diff, &curr, &prev, &mut streamed, &k, true);
        let mut collected = Scanned::default();
        collected.chunked(&curr, &prev, 0, n);
        let (mut listed, _) = setup();
        listed.set_scale(64);
        listed.run_kernel(&k, SchedUnit::Warp, &collected.tasks, true);
        assert_eq!(streamed.stats(), listed.stats());
    }

    #[test]
    fn no_changes_empty_list_but_scan_still_paid() {
        let (mut ex, k) = setup();
        let meta = vec![7u32; 1000];
        let list = scan(&Diff, &meta, &meta, &mut ex, &k, false);
        assert!(list.is_empty());
        // The scan cost is proportional to V even with nothing active —
        // the weakness JIT control exists to avoid (ER/RC in §4).
        assert!(ex.stats().total_cycles > 0);
    }

    #[test]
    fn partial_last_warp_handled() {
        let (mut ex, k) = setup();
        let prev = vec![0u32; 33];
        let mut curr = prev.clone();
        curr[32] = 5;
        let list = scan(&Diff, &curr, &prev, &mut ex, &k, false);
        assert_eq!(list, vec![32]);
    }

    #[test]
    fn cost_proportional_to_vertices_not_actives() {
        let (mut ex, k) = setup();
        let prev = vec![0u32; 32 * 1024];
        let mut curr = prev.clone();
        curr[5] = 1;
        scan(&Diff, &curr, &prev, &mut ex, &k, false);
        let one_active = ex.stats().total_cycles;

        ex.reset();
        let mut all = prev.clone();
        for m in all.iter_mut() {
            *m = 1;
        }
        scan(&Diff, &all, &prev, &mut ex, &k, false);
        let all_active = ex.stats().total_cycles;
        // The scan dominates, not the append volume: the all-active case
        // adds write traffic but stays within a small factor.
        assert!(all_active < one_active * 8);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_arrays_panic() {
        let (mut ex, k) = setup();
        scan(&Diff, &[1u32, 2], &[1u32], &mut ex, &k, false);
    }

    #[test]
    fn empty_metadata_ok() {
        let (mut ex, k) = setup();
        let list = scan(&Diff, &[] as &[u32], &[], &mut ex, &k, false);
        assert!(list.is_empty());
    }

    /// Builds the occupancy words for a metadata pair (bit set iff
    /// curr != prev), the invariant the engine maintains.
    fn occupancy(curr: &[u32], prev: &[u32]) -> Vec<u64> {
        let mut words = vec![0u64; curr.len().div_ceil(64)];
        for (v, (c, p)) in curr.iter().zip(prev).enumerate() {
            if c != p {
                words[v / 64] |= 1 << (v % 64);
            }
        }
        words
    }

    #[test]
    fn sparse_scan_is_bit_identical_to_dense() {
        // Misaligned length: 33 words plus a 5-vertex tail.
        let n = 64 * 33 + 5;
        let prev = vec![0u32; n];
        let mut curr = prev.clone();
        for v in [0usize, 63, 64, 1000, 2100, n - 1] {
            curr[v] = 1;
        }
        let occ = occupancy(&curr, &prev);
        let mut dense = Scanned::default();
        dense.scalar(&curr, &prev, 0, n);
        let mut sparse = Scanned::default();
        sparse.sparse(&curr, &prev, 0, n, &occ);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn sparse_scan_partitions_concatenate() {
        let n = 64 * 8;
        let prev = vec![0u32; n];
        let mut curr = prev.clone();
        curr[70] = 1;
        curr[400] = 2;
        let occ = occupancy(&curr, &prev);
        let mut whole = Scanned::default();
        whole.sparse(&curr, &prev, 0, n, &occ);
        // Word-aligned split at vertex 256 (word 4).
        let mut parts = Scanned::default();
        parts.sparse(&curr, &prev, 0, 256, &occ);
        parts.sparse(&curr, &prev, 256, n, &occ);
        assert_eq!(parts, whole);
    }

    #[test]
    fn sparse_scan_all_zero_still_charges_every_chunk() {
        let n = 64 * 4 + 17;
        let meta = vec![3u32; n];
        let occ = vec![0u64; n.div_ceil(64)];
        let mut out = Scanned::default();
        out.sparse(&meta, &meta, 0, n, &occ);
        assert!(out.active.is_empty());
        // Same chunk count as the dense scan: the JIT cost model sees
        // the same V-proportional kernel either way.
        assert_eq!(out.tasks.len(), n.div_ceil(WARP_SIZE));
        assert!(out.tasks.iter().all(|t| t.writes == 0));
    }

    #[test]
    fn chunked_scan_is_bit_identical_to_scalar() {
        // Warp-misaligned length: 40 full chunks plus a 13-vertex tail.
        let n = 32 * 40 + 13;
        let prev = vec![0u32; n];
        let mut curr = prev.clone();
        for v in [0usize, 31, 32, 33, 500, 1000, n - 1] {
            curr[v] = 1;
        }
        let mut scalar = Scanned::default();
        scalar.scalar(&curr, &prev, 0, n);
        let mut chunked = Scanned::default();
        chunked.chunked(&curr, &prev, 0, n);
        assert_eq!(chunked, scalar);
    }

    #[test]
    fn chunked_scan_is_bit_identical_on_an_aligned_range() {
        // No tail: every vertex goes through the fixed-width loop.
        let n = 32 * 12;
        let prev = vec![0u32; n];
        let mut curr = prev.clone();
        for v in [0usize, 31, 32, 63, 200, n - 1] {
            curr[v] = 1;
        }
        let mut scalar = Scanned::default();
        scalar.scalar(&curr, &prev, 0, n);
        let mut chunked = Scanned::default();
        chunked.chunked(&curr, &prev, 0, n);
        assert_eq!(chunked, scalar);
    }

    #[test]
    fn chunked_scan_partitions_concatenate() {
        let n = 32 * 9 + 7;
        let prev = vec![0u32; n];
        let mut curr = prev.clone();
        curr[5] = 1;
        curr[200] = 2;
        curr[n - 1] = 3;
        let mut whole = Scanned::default();
        whole.chunked(&curr, &prev, 0, n);
        let mut parts = Scanned::default();
        parts.chunked(&curr, &prev, 0, 96);
        parts.chunked(&curr, &prev, 96, n);
        assert_eq!(parts, whole);
    }

    #[test]
    #[should_panic(expected = "warp-aligned")]
    fn chunked_scan_rejects_misaligned_start() {
        let meta = vec![0u32; 64];
        Scanned::default().chunked(&meta, &meta, 5, 64);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn sparse_scan_rejects_misaligned_start() {
        let meta = vec![0u32; 128];
        let occ = vec![0u64; 2];
        Scanned::default().sparse(&meta, &meta, 32, 128, &occ);
    }
}
