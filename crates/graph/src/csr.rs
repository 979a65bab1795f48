//! Compressed sparse row (CSR) storage and the dual-orientation [`Graph`].
//!
//! The paper stores graphs in CSR because it "can save around 50% of the
//! space over edge list format" (§3.1). For directed graphs SIMD-X keeps
//! *both* the out-neighbor CSR (used by push-mode computation) and the
//! in-neighbor CSR (used by pull-mode computation) (§6, Storage Format).
//! [`Graph`] packages the two together, building the in-neighbor CSR
//! when a pull first reads it; undirected graphs share a single CSR for
//! both orientations.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;

use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::{EdgeIdx, VertexId, Weight};

/// A graph in compressed sparse row form.
///
/// `offsets` has `num_vertices + 1` entries; the neighbors of vertex `v`
/// are `targets[offsets[v] .. offsets[v + 1]]`, and, when present,
/// `weights` is parallel to `targets`.
///
/// Row order: every row is sorted by `(target, weight)`, whatever order
/// the edges arrived in — the engine relies on it for coalesced neighbor
/// access. A build validates its list, counts rows (noting whether the
/// list is presorted: strictly increasing in `(src, dst)` and loop-free)
/// and places each pair in its row. A presorted list's rows are then
/// final: a directed one's as the count copies them, an undirected
/// one's once each row's run of the list is merged with its placed
/// mirror. `Self::try_build` sorts the rows of any other list, skipping those already in order, and the [`Graph`]
/// builds normalise them in one more pass. [`Self::transpose`] preserves
/// the order by construction; nothing downstream re-sorts or re-checks.
/// Parallel edges and self-loops are kept here; [`Graph::directed_from_edges`]
/// / [`Graph::undirected_from_edges`] drop them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<EdgeIdx>,
    targets: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
}

impl Csr {
    /// Builds a CSR from an edge list: `Self::build` over its parts.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::build(el.num_vertices(), el.edges(), el.weights())
    }

    /// Builds a CSR from raw parts in `O(V + E)` plus the per-row sort.
    ///
    /// # Panics
    ///
    /// Panics on any input [`Self::try_build`] rejects (weights not
    /// parallel to edges, endpoint out of range).
    pub(crate) fn build(
        num_vertices: VertexId,
        edges: &[(VertexId, VertexId)],
        weights: Option<&[Weight]>,
    ) -> Self {
        Self::try_build(num_vertices, edges, weights).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible [`Self::build`]: returns a typed [`GraphError`] instead
    /// of panicking — the ingestion path for untrusted edge data; the
    /// weights, borrowed, are copied.
    pub(crate) fn try_build(
        num_vertices: VertexId,
        edges: &[(VertexId, VertexId)],
        weights: Option<&[Weight]>,
    ) -> Result<Self, GraphError> {
        let weights = weights.map(Cow::Borrowed);
        let (mut csr, presorted) = Self::try_scatter::<false>(num_vertices, edges, weights)?;
        if !presorted {
            csr.sort_adjacency();
        }
        Ok(csr)
    }

    /// Validates the inputs — weights parallel to edges, every endpoint
    /// below `num_vertices`, the first pair out of range the error —
    /// then counts rows and places each pair, and its reverse too when
    /// `SYMMETRIC`. The count checks endpoints as it reads them; a
    /// read-only pass checks them first if `offsets` would outgrow the
    /// list (`num_vertices ≥ |E|`). Also returns whether the list is
    /// presorted (strictly increasing in `(src, dst)`, loop-free): its
    /// rows are then final. A directed count copies the targets while
    /// the list is presorted, so such a list is built by that one read,
    /// adopting `weights` (moved if owned). A symmetric build of such a
    /// list places only the reversed pairs, behind `|E|` free slots, and
    /// merges the list's own runs in front of them ([`merge_mirrored`]).
    fn try_scatter<const SYMMETRIC: bool>(
        num_vertices: VertexId,
        edges: &[(VertexId, VertexId)],
        weights: Option<Cow<'_, [Weight]>>,
    ) -> Result<(Self, bool), GraphError> {
        if let Some(w) = &weights {
            if w.len() != edges.len() {
                return Err(GraphError::WeightsLengthMismatch {
                    weights: w.len(),
                    edges: edges.len(),
                });
            }
        }
        let in_range = |&(s, d): &(VertexId, VertexId)| s.max(d) < num_vertices;
        let check = |pairs: &[(VertexId, VertexId)]| match pairs.iter().find(|p| !in_range(p)) {
            Some(&pair) => Err(GraphError::out_of_range(pair, num_vertices)),
            None => Ok(()),
        };
        if num_vertices as usize >= edges.len() {
            check(edges)?;
        }
        let mut offsets = vec![0 as EdgeIdx; num_vertices as usize + 1];
        let mut targets = vec![0; if SYMMETRIC { 2 } else { 1 } * edges.len()];
        // Symmetric builds count in-rows first. `least`: the least key the
        // next pair may have (a loop-free pair's `key + 1` cannot overflow).
        let (mut sorted, mut least) = (0, 0u64);
        for pair @ &(s, d) in edges {
            let key = u64::from(s) << 32 | u64::from(d);
            if s == d || key < least || !in_range(pair) {
                break;
            }
            offsets[if SYMMETRIC { d } else { s } as usize + 1] += 1;
            if !SYMMETRIC {
                targets[sorted] = d;
            }
            (sorted, least) = (sorted + 1, key + 1);
        }
        check(&edges[sorted..])?;
        for &(s, d) in &edges[sorted..] {
            offsets[if SYMMETRIC { d } else { s } as usize + 1] += 1;
        }
        let presorted = sorted == edges.len();
        let mirrored = edges.iter().map(|&(s, d)| (d, s));
        if SYMMETRIC && presorted {
            offsets[0] = edges.len() as EdgeIdx;
            let mut csr = Self::with_row_lengths(offsets, targets, weights.is_some());
            csr.place(mirrored, weights.as_deref());
            match weights.as_deref() {
                Some(w) => merge_mirrored::<true>(&mut csr, edges, w),
                None => merge_mirrored::<false>(&mut csr, edges, &[]),
            }
            return Ok((csr, true));
        }
        if presorted {
            let mut csr = Self::with_row_lengths(offsets, targets, false);
            // Adopted, any spare capacity shed.
            csr.weights = weights.map(|w| w.into_owned().into_boxed_slice().into_vec());
            return Ok((csr, true));
        }
        if SYMMETRIC {
            for &(s, _) in edges {
                offsets[s as usize + 1] += 1;
            }
        }
        let mut csr = Self::with_row_lengths(offsets, targets, weights.is_some());
        csr.place(edges.iter().copied(), weights.as_deref());
        if SYMMETRIC {
            csr.place(mirrored, weights.as_deref());
        }
        csr.rewind_cursors();
        Ok((csr, false))
    }

    /// A CSR to place rows into, from `offsets[v + 1]` = row `v`'s
    /// length, `offsets[0]` the slots left free before row 0, and
    /// `targets` as long as their sum: prefix-summed, `offsets[v]` is
    /// row `v`'s start and its write cursor for [`Self::place`].
    fn with_row_lengths(mut offsets: Vec<EdgeIdx>, targets: Vec<VertexId>, weighted: bool) -> Self {
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        Self {
            weights: weighted.then(|| vec![0; targets.len()]),
            targets,
            offsets,
        }
    }

    /// Stable counting-sort placement: pair `i`, `(row, target)`, goes
    /// to its row's cursor, which advances, with `weights[i]` beside it.
    /// The caller guarantees both endpoints are below the vertex count
    /// and `weights` is present exactly when `self` is weighted.
    fn place(
        &mut self,
        pairs: impl Iterator<Item = (VertexId, VertexId)>,
        weights: Option<&[Weight]>,
    ) {
        let (offsets, targets, out) = (&mut self.offsets, &mut self.targets, &mut self.weights);
        let mut cursor = |row: VertexId| {
            let at = offsets[row as usize] as usize;
            offsets[row as usize] += 1;
            at
        };
        match (out, weights) {
            (Some(out), Some(weights)) => {
                for ((row, target), &w) in pairs.zip(weights) {
                    let at = cursor(row);
                    targets[at] = target;
                    out[at] = w;
                }
            }
            _ => {
                for (row, target) in pairs {
                    targets[cursor(row)] = target;
                }
            }
        }
    }

    /// Shifts the cursors [`Self::place`] leaves at each row's end back
    /// into row starts.
    fn rewind_cursors(&mut self) {
        let n = self.offsets.len() - 1;
        self.offsets.copy_within(..n, 1);
        self.offsets[0] = 0;
    }

    /// Sorts every adjacency list by target ID (weights follow targets;
    /// parallel edges order by weight). A list already in order is left
    /// alone — generator output arrives sorted and the counting sort is
    /// stable — and the weighted lists that do need sorting share one
    /// buffer.
    fn sort_adjacency(&mut self) {
        let mut pairs: Vec<(VertexId, Weight)> = Vec::new();
        for v in 0..self.num_vertices() {
            let (lo, hi) = self.range(v);
            let targets = &mut self.targets[lo..hi];
            match &mut self.weights {
                None if !targets.is_sorted() => targets.sort_unstable(),
                None => {}
                Some(w) => {
                    let weights = &mut w[lo..hi];
                    if targets.iter().zip(weights.iter()).is_sorted() {
                        continue;
                    }
                    pairs.clear();
                    pairs.extend(targets.iter().copied().zip(weights.iter().copied()));
                    pairs.sort_unstable();
                    for (i, &(t, wt)) in pairs.iter().enumerate() {
                        targets[i] = t;
                        weights[i] = wt;
                    }
                }
            }
        }
    }

    /// Brings every row to its simple form in one pass: ordered by
    /// target, loops dropped, each run of equal targets collapsed to its
    /// lightest edge (as sorting by `(target, weight)` and keeping the
    /// first would), compacted in place. The allocations are kept: the
    /// `realloc` of a shrink would reshuffle the heap under everything
    /// bound to the graph afterwards.
    fn normalize_rows(&mut self) {
        let len = match &mut self.weights {
            None => normalize::<false>(&mut self.offsets, &mut self.targets, &mut []),
            Some(w) => normalize::<true>(&mut self.offsets, &mut self.targets, w),
        };
        self.truncate(len);
    }

    /// Keeps the first `len` entries, and the allocations with them.
    fn truncate(&mut self, len: usize) {
        self.targets.truncate(len);
        if let Some(w) = &mut self.weights {
            w.truncate(len);
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> VertexId {
        (self.offsets.len() - 1) as VertexId
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> EdgeIdx {
        self.targets.len() as EdgeIdx
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> u32 {
        let (lo, hi) = self.range(v);
        (hi - lo) as u32
    }

    /// Raw `[start, end)` index range of `v`'s adjacency in `targets`.
    pub fn range(&self, v: VertexId) -> (usize, usize) {
        (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        )
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = self.range(v);
        &self.targets[lo..hi]
    }

    /// Weights parallel to [`Self::neighbors`], if this CSR is weighted.
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[Weight]> {
        let (lo, hi) = self.range(v);
        self.weights.as_ref().map(|w| &w[lo..hi])
    }

    /// Whether edge weights are stored.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The full offsets array (length `V + 1`).
    pub fn offsets(&self) -> &[EdgeIdx] {
        &self.offsets
    }

    /// The full targets array (length `E`).
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The full weights array, if weighted.
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Builds the transpose (in-neighbor) CSR. Weights are carried over so
    /// pull-mode SSSP sees the same weight on the reversed edge. Visiting
    /// rows in ascending source order scatters every in-row out already
    /// ordered by `(source, weight)`, so nothing is validated or sorted
    /// again.
    pub fn transpose(&self) -> Csr {
        let mut offsets = vec![0 as EdgeIdx; self.offsets.len()];
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        let targets = vec![0; self.targets.len()];
        let mut transposed = Self::with_row_lengths(offsets, targets, self.is_weighted());
        for v in 0..self.num_vertices() {
            let (lo, hi) = self.range(v);
            let reversed = self.targets[lo..hi].iter().map(|&t| (t, v));
            transposed.place(reversed, self.weights().map(|w| &w[lo..hi]));
        }
        transposed.rewind_cursors();
        transposed
    }

    /// Approximate in-memory footprint in bytes (offsets 8B, targets 4B,
    /// weights 4B) — the quantity behind the paper's "CSR saves ~50% over
    /// edge list" observation.
    pub(crate) fn footprint_bytes(&self) -> u64 {
        self.offsets.len() as u64 * 8
            + self.targets.len() as u64 * 4
            + self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4)
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// Rows up to this length are insertion-sorted in place, as
/// `sort_unstable` does: copying one out costs more than it saves.
const SHORT_ROW: usize = 8;

/// [`Csr::normalize_rows`] over the arrays, `weights` empty unless
/// `WEIGHTED` (a compile-time flag, so each loop is monomorphic: testing
/// for weights per entry read the pass about 20 % slower on R-MAT-17 and
/// 40 % on the road strip); returns the entries kept. A row that rises
/// strictly, or is short, is insertion-sorted in place if need be and
/// compacted. Any other is copied to `run`, which serves every row,
/// sorted there and written back, compacted on the way.
fn normalize<const WEIGHTED: bool>(
    offsets: &mut [EdgeIdx],
    targets: &mut [VertexId],
    weights: &mut [Weight],
) -> usize {
    let weight = |weights: &[Weight], i: usize| if WEIGHTED { weights[i] } else { 0 };
    let mut run: Vec<(VertexId, Weight)> = Vec::new();
    let (mut read, mut write) = (0usize, 0usize);
    for v in 0..offsets.len() - 1 {
        let end = offsets[v + 1] as usize;
        let (row, vertex, start) = (&targets[read..end], v as VertexId, write);
        let rising = 1 + row.windows(2).take_while(|p| p[0] < p[1]).count();
        if rising >= row.len() || row.len() <= SHORT_ROW {
            if rising < row.len() {
                insertion_sort::<WEIGHTED>(targets, weights, read..end);
            }
            for i in read..end {
                let next = (targets[i], weight(weights, i));
                write = keep::<WEIGHTED>(targets, weights, vertex, start, write, next);
            }
        } else {
            run.clear();
            run.extend((read..end).map(|i| (targets[i], weight(weights, i))));
            run.sort_unstable();
            for &next in &run {
                write = keep::<WEIGHTED>(targets, weights, vertex, start, write, next);
            }
        }
        read = end;
        offsets[v + 1] = write as EdgeIdx;
    }
    write
}

/// The symmetric closure of a presorted `edges`, in place. The back
/// `|E|` slots of `csr` hold the reversed pairs, row `v` ending at
/// `offsets[v]`, ascending as the list does. Each row's run of the list
/// and its mirrored run merge into the front, a reciprocal pair kept
/// once at its lighter weight: each entry read writes at most one, at
/// most `|E|` from the list, so writes never pass an unread mirrored
/// entry. `list_weights` is empty unless `WEIGHTED`.
fn merge_mirrored<const WEIGHTED: bool>(
    csr: &mut Csr,
    edges: &[(VertexId, VertexId)],
    list_weights: &[Weight],
) {
    let (offsets, targets) = (&mut csr.offsets, &mut csr.targets);
    let weights = csr.weights.as_deref_mut().unwrap_or_default();
    let (n, mut fwd, mut mirrored, mut write) = (offsets.len() - 1, 0, edges.len(), 0);
    for (v, offset) in offsets[..n].iter_mut().enumerate() {
        let run = edges[fwd..].iter().take_while(|e| e.0 as usize == v);
        let fwd_end = fwd + run.count();
        let mirrored_end = std::mem::replace(offset, write as EdgeIdx) as usize;
        while fwd < fwd_end && mirrored < mirrored_end {
            // Branch-free; a target in both runs is taken from both.
            let (f, m) = (edges[fwd].1, targets[mirrored]);
            let (take_f, take_m) = (f <= m, m <= f);
            if WEIGHTED {
                let pick = |take, w| if take { w } else { Weight::MAX };
                weights[write] =
                    pick(take_f, list_weights[fwd]).min(pick(take_m, weights[mirrored]));
            }
            targets[write] = f.min(m);
            fwd += usize::from(take_f);
            mirrored += usize::from(take_m);
            write += 1;
        }
        for i in mirrored..mirrored_end {
            targets[write] = targets[i];
            if WEIGHTED {
                weights[write] = weights[i];
            }
            write += 1;
        }
        for i in fwd..fwd_end {
            targets[write] = edges[i].1;
            if WEIGHTED {
                weights[write] = list_weights[i];
            }
            write += 1;
        }
        (fwd, mirrored) = (fwd_end, mirrored_end);
    }
    offsets[n] = write as EdgeIdx;
    csr.truncate(write);
}

/// Appends `(t, w)` to row `v`, written from `start` to `write`, unless
/// it is a loop or repeats the last target, whose weight then becomes
/// the lesser. Returns the row's new end.
#[inline]
fn keep<const WEIGHTED: bool>(
    targets: &mut [VertexId],
    weights: &mut [Weight],
    v: VertexId,
    start: usize,
    write: usize,
    (t, w): (VertexId, Weight),
) -> usize {
    if t == v {
        return write;
    }
    if write > start && targets[write - 1] == t {
        if WEIGHTED {
            weights[write - 1] = weights[write - 1].min(w);
        }
        return write;
    }
    targets[write] = t;
    if WEIGHTED {
        weights[write] = w;
    }
    write + 1
}

/// Sorts `targets[row]` in place, weights moving with their targets.
fn insertion_sort<const WEIGHTED: bool>(
    targets: &mut [VertexId],
    weights: &mut [Weight],
    row: Range<usize>,
) {
    for i in row.start + 1..row.end {
        let t = targets[i];
        let w = if WEIGHTED { weights[i] } else { 0 };
        let mut j = i;
        while j > row.start && targets[j - 1] > t {
            targets[j] = targets[j - 1];
            if WEIGHTED {
                weights[j] = weights[j - 1];
            }
            j -= 1;
        }
        targets[j] = t;
        if WEIGHTED {
            weights[j] = w;
        }
    }
}

/// Orientation of an adjacency scan, matching the engine's push/pull modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Scatter along out-edges (source-centric).
    Push,
    /// Gather along in-edges (destination-centric).
    Pull,
}

/// A graph holding both orientations needed by push/pull processing.
///
/// For undirected inputs, the out-CSR already contains each edge in both
/// directions, so the pull view aliases the push view and no transpose is
/// stored (the paper: "for undirected graph, we only need to store the
/// out-neighbors", §6). A directed graph builds its transpose on the
/// first call that reads the pull view — [`Self::in_`] or
/// [`Self::csr`]`(Direction::Pull)`, from any thread, once — so a graph
/// only ever pushed never holds it; a bind, serial or parallel, builds
/// nothing.
///
/// Equality compares the orientation and the out-CSR only: the
/// transpose is a function of them, built or not.
#[derive(Clone, Debug)]
pub struct Graph {
    out: Csr,
    directed: bool,
    /// The transpose of a directed graph, once a pull has read it;
    /// never set for an undirected one.
    in_: OnceLock<Csr>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.directed == other.directed && self.out == other.out
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds an undirected graph from an edge list: the symmetric
    /// closure, without self-loops, duplicate pairs collapsed to their
    /// lightest edge; a presorted list's rows are final as merged (see
    /// [`Csr`]'s row order). Peak bytes above the input ≤ the output's
    /// (`steady_state_allocs`' `undirected_builds_peak_at_their_output_bytes`).
    pub fn undirected_from_edges(el: EdgeList) -> Self {
        Self::simple::<true>(el)
    }

    /// Builds a directed graph from an edge list, without self-loops,
    /// duplicate pairs collapsed to their lightest edge. A list strictly
    /// increasing in `(src, dst)` and loop-free, as [`EdgeList::dedup`]
    /// and every generator leave it, is read once, keeping its weights;
    /// its rows are final as counted. The transpose waits for the first pull.
    pub fn directed_from_edges(el: EdgeList) -> Self {
        Self::simple::<false>(el)
    }

    /// The graph of `el` as a simple graph, every pair also placed
    /// reversed when `SYMMETRIC` (undirected): validate, count and
    /// place (see [`Csr`]'s row order), then, unless the count found the
    /// list presorted, one pass normalising the rows. Takes the list by
    /// value: its weights may be adopted, the rest freed before that pass.
    fn simple<const SYMMETRIC: bool>(el: EdgeList) -> Self {
        let (n, edges, weights) = el.into_parts();
        let scattered = Csr::try_scatter::<SYMMETRIC>(n, &edges, weights.map(Cow::Owned));
        let (mut out, presorted) = scattered.unwrap_or_else(|err| panic!("{err}"));
        drop(edges);
        if !presorted {
            out.normalize_rows();
        }
        Self {
            out,
            directed: !SYMMETRIC,
            in_: OnceLock::new(),
        }
    }

    /// Whether the graph is directed: its pull view is a transpose of
    /// its own, built on first use, not the out-CSR.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// The push-orientation (out-neighbor) CSR.
    pub fn out(&self) -> &Csr {
        &self.out
    }

    /// The pull-orientation (in-neighbor) CSR; a directed graph's first
    /// call builds it.
    pub fn in_(&self) -> &Csr {
        if self.directed {
            self.in_.get_or_init(|| self.out.transpose())
        } else {
            &self.out
        }
    }

    /// CSR for the given scan direction.
    pub fn csr(&self, dir: Direction) -> &Csr {
        match dir {
            Direction::Push => self.out(),
            Direction::Pull => self.in_(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> VertexId {
        self.out.num_vertices()
    }

    /// Number of directed edges in the push orientation.
    pub fn num_edges(&self) -> EdgeIdx {
        self.out.num_edges()
    }

    /// Footprint in bytes of the CSRs built so far: the out-CSR, plus a
    /// directed graph's transpose once a pull has built it.
    pub fn footprint_bytes(&self) -> u64 {
        self.out.footprint_bytes() + self.in_.get().map_or(0, Csr::footprint_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> EdgeList {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        EdgeList::from_pairs(vec![(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn build_and_query() {
        let csr = Csr::from_edge_list(&diamond());
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(3), &[] as &[VertexId]);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(3), 0);
    }

    #[test]
    fn build_empty_graph() {
        let csr = Csr::from_edge_list(&EdgeList::new(3));
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_edges(), 0);
        for v in 0..3 {
            assert_eq!(csr.degree(v), 0);
        }
    }

    #[test]
    fn neighbors_are_sorted() {
        let el = EdgeList::from_pairs(vec![(0, 3), (0, 1), (0, 2)]);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn weighted_build_keeps_weights_aligned_after_sort() {
        let el = EdgeList::from_weighted(4, vec![(0, 3), (0, 1), (1, 2)], vec![30, 10, 20]);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.neighbors(0), &[1, 3]);
        assert_eq!(csr.neighbor_weights(0), Some(&[10, 30][..]));
        assert_eq!(csr.neighbor_weights(1), Some(&[20][..]));
    }

    #[test]
    fn adjacency_order_is_independent_of_input_order() {
        // A weighted multigraph (parallel 0→2 edges order by weight),
        // fed already sorted — the skip path — and out of order — the
        // shared-buffer sort — must build the same CSR.
        let sorted = EdgeList::from_weighted(
            4,
            vec![(0, 1), (0, 2), (0, 2), (0, 3), (2, 0), (2, 1)],
            vec![5, 4, 9, 1, 7, 7],
        );
        let shuffled = EdgeList::from_weighted(
            4,
            vec![(2, 1), (0, 3), (0, 2), (0, 1), (2, 0), (0, 2)],
            vec![7, 1, 9, 5, 7, 4],
        );
        let csr = Csr::from_edge_list(&sorted);
        assert_eq!(csr, Csr::from_edge_list(&shuffled));
        assert_eq!(csr.neighbors(0), &[1, 2, 2, 3]);
        assert_eq!(csr.neighbor_weights(0), Some(&[5, 4, 9, 1][..]));
        assert_eq!(csr.neighbor_weights(2), Some(&[7, 7][..]));
    }

    #[test]
    fn transpose_reverses_edges() {
        let csr = Csr::from_edge_list(&diamond());
        let t = csr.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        // Double transpose is the identity (up to neighbor sorting).
        assert_eq!(t.transpose(), csr);
    }

    #[test]
    fn transpose_carries_weights() {
        let el = EdgeList::from_weighted(3, vec![(0, 1), (1, 2)], vec![7, 9]);
        let t = Csr::from_edge_list(&el).transpose();
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbor_weights(1), Some(&[7][..]));
        assert_eq!(t.neighbor_weights(2), Some(&[9][..]));
    }

    #[test]
    fn transpose_of_a_weighted_multigraph_is_the_build_over_reversed_pairs() {
        // Parallel edges (0→2 ×3, 3→2 ×2), a self-loop and an empty row:
        // the scatter must order every in-row by (source, weight) exactly
        // as a sorting build over the reversed pairs does.
        let edges = vec![
            (3, 2),
            (0, 2),
            (1, 1),
            (0, 2),
            (3, 0),
            (0, 2),
            (3, 2),
            (1, 0),
        ];
        let weights = vec![6, 9, 3, 2, 8, 5, 1, 7];
        let csr = Csr::build(5, &edges, Some(&weights));
        let reversed: Vec<_> = edges.iter().map(|&(s, d)| (d, s)).collect();
        let t = csr.transpose();
        assert_eq!(t, Csr::build(5, &reversed, Some(&weights)));
        assert_eq!(t.neighbors(2), &[0, 0, 0, 3, 3]);
        assert_eq!(t.neighbor_weights(2), Some(&[2, 5, 9, 1, 6][..]));
        assert_eq!(t.transpose(), csr);
    }

    #[test]
    fn normalize_rows_drops_loops_and_keeps_the_lightest_of_each_run() {
        // Row 0 is all self-loops, row 1 is clean, row 2 ends in a run.
        let mut csr = Csr::build(
            4,
            &[
                (0, 0),
                (2, 3),
                (0, 0),
                (1, 0),
                (2, 3),
                (1, 3),
                (2, 1),
                (2, 3),
            ],
            Some(&[1, 8, 2, 3, 6, 4, 5, 7]),
        );
        csr.normalize_rows();
        assert_eq!(csr.offsets(), &[0, 0, 2, 4, 4]);
        assert_eq!(csr.targets(), &[0, 3, 1, 3]);
        assert_eq!(csr.weights(), Some(&[3, 4, 5, 6][..]));
    }

    #[test]
    fn normalize_rows_leaves_a_clean_csr_untouched() {
        let mut csr = Csr::from_edge_list(&EdgeList::from_weighted(
            4,
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![4, 3, 2, 1],
        ));
        let before = csr.clone();
        let caps = |c: &Csr| (c.targets.capacity(), c.weights.as_ref().map(Vec::capacity));
        let (ptr, cap) = (csr.targets.as_ptr(), caps(&csr));
        csr.normalize_rows();
        assert_eq!(csr, before);
        assert_eq!((csr.targets.as_ptr(), caps(&csr)), (ptr, cap));
    }

    #[test]
    fn the_count_pass_proves_a_list_presorted_and_simple() {
        let presorted = |edges: &[(VertexId, VertexId)]| {
            let (_, presorted) = Csr::try_scatter::<false>(3, edges, None).expect("in range");
            presorted
        };
        assert!(presorted(&[(0, 1), (0, 2), (1, 0), (2, 1)]));
        assert!(presorted(&[]));
        assert!(!presorted(&[(0, 1), (0, 1)]), "a repeat");
        assert!(!presorted(&[(0, 2), (0, 1)]), "a descent in a row");
        assert!(!presorted(&[(1, 0), (0, 2)]), "a descent across rows");
        assert!(!presorted(&[(0, 1), (1, 1)]), "a loop");
    }

    #[test]
    fn a_reciprocal_pair_merges_into_one_entry_at_its_lighter_weight() {
        // (0, 1) and (1, 0) each meet the other's mirror in their row,
        // the list's entry the lighter in row 1 and the mirrored one in
        // row 0 (then the other way round); (1, 2) has no twin. The
        // merge keeps the rows' full capacity.
        let edges = [(0, 1), (1, 0), (1, 2)];
        for (weights, lighter) in [([9, 4, 6], 4), ([4, 9, 6], 4), ([5, 5, 6], 5)] {
            let (csr, presorted) =
                Csr::try_scatter::<true>(3, &edges, Some(Cow::Borrowed(&weights[..])))
                    .expect("in range");
            assert!(presorted);
            assert_eq!(csr.offsets(), &[0, 1, 3, 4]);
            assert_eq!(csr.targets(), &[1, 0, 2, 1]);
            assert_eq!(csr.weights(), Some(&[lighter, lighter, 6, 6][..]));
            assert_eq!(csr.targets.capacity(), 6);
        }
    }

    #[test]
    fn normalize_rows_equals_the_naive_simple_form_on_every_row_shape() {
        // Long rows of each shape: two runs repeating targets across
        // them (sorted), rising with a loop (compacted in place), rising
        // after rows that dropped entries (compacted down), three runs
        // (sorted); then short rows, one out of order.
        let rows: [Vec<VertexId>; 6] = [
            (1..20).chain((2..30).step_by(3)).collect(),
            (0..12).collect(),
            (3..15).collect(),
            (10..16).chain(0..3).chain(5..12).collect(),
            vec![5, 1, 4, 4, 0],
            vec![1, 2],
        ];
        let edges: Vec<_> = (0..)
            .zip(&rows)
            .flat_map(|(v, row)| row.iter().map(move |&t| (v, t)))
            .collect();
        let weights: Vec<Weight> = (0..edges.len() as Weight).map(|i| i * 7 % 11).collect();
        let mut spec: Vec<_> = edges
            .iter()
            .zip(&weights)
            .map(|(&(s, d), &w)| (s, d, w))
            .collect();
        spec.sort_unstable();
        spec.retain(|&(s, d, _)| s != d);
        spec.dedup_by_key(|&mut (s, d, _)| (s, d));
        for weighted in [false, true] {
            let w = weighted.then_some(Cow::Borrowed(&weights[..]));
            let (mut csr, presorted) = Csr::try_scatter::<false>(30, &edges, w).expect("in range");
            assert!(!presorted);
            csr.normalize_rows();
            let built: Vec<_> = (0..30)
                .flat_map(|v| {
                    let ws = csr.neighbor_weights(v).map(<[Weight]>::to_vec);
                    let row = csr.neighbors(v).iter().enumerate();
                    row.map(move |(i, &t)| (v, t, ws.as_ref().map_or(0, |ws| ws[i])))
                })
                .collect();
            let expected = spec
                .iter()
                .map(|&(s, d, w)| (s, d, if weighted { w } else { 0 }));
            assert_eq!(built, expected.collect::<Vec<_>>(), "weighted: {weighted}");
        }
    }

    #[test]
    fn a_presorted_directed_build_adopts_its_weights_without_spare_capacity() {
        // Exact capacity: the list's own vector becomes the graph's.
        let edges = vec![(0, 1), (0, 2), (2, 1)];
        let el = EdgeList::from_weighted(3, edges.clone(), vec![4, 5, 6]);
        let ptr = el.weights().map(<[Weight]>::as_ptr);
        let g = Graph::directed_from_edges(el);
        assert_eq!(g.out().weights().map(<[Weight]>::as_ptr), ptr);
        // Spare capacity is shrunk away before the graph holds it.
        let mut spare = Vec::with_capacity(64);
        spare.extend([4, 5, 6]);
        let g = Graph::directed_from_edges(EdgeList::from_weighted(3, edges, spare));
        let adopted = g.out().weights.as_ref().expect("weighted");
        assert_eq!(
            (adopted.as_slice(), adopted.capacity()),
            (&[4, 5, 6][..], 3)
        );
    }

    #[test]
    fn graph_directed_pull_view() {
        let g = Graph::directed_from_edges(diamond());
        assert!(g.is_directed());
        assert_eq!(g.csr(Direction::Push).neighbors(0), &[1, 2]);
        assert_eq!(g.csr(Direction::Pull).neighbors(3), &[1, 2]);
    }

    #[test]
    fn graph_undirected_shares_csr() {
        let g = Graph::undirected_from_edges(diamond());
        assert!(!g.is_directed());
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.csr(Direction::Pull).neighbors(0), &[1, 2]);
        assert_eq!(g.out().neighbors(3), &[1, 2]);
    }

    #[test]
    fn csr_footprint_smaller_than_edge_list_for_symmetric_graphs() {
        // The §3.1 claim: CSR ≈ half the edge-list footprint for unweighted
        // graphs once V << E.
        let mut edges = Vec::new();
        for s in 0..128u32 {
            for d in 0..128u32 {
                if s != d {
                    edges.push((s, d));
                }
            }
        }
        let edge_list_bytes = 8 * edges.len() as u64;
        let csr = Csr::from_edge_list(&EdgeList::from_pairs(edges));
        assert!(csr.footprint_bytes() < edge_list_bytes * 7 / 10);
    }

    #[test]
    fn max_degree() {
        let csr = Csr::from_edge_list(&diamond());
        assert_eq!(csr.max_degree(), 2);
    }

    #[test]
    fn try_build_rejects_out_of_range_endpoints_and_skewed_weights() {
        assert_eq!(
            Csr::try_build(2, &[(0, 1), (1, 5)], None),
            Err(GraphError::EndpointOutOfRange {
                src: 1,
                dst: 5,
                num_vertices: 2
            })
        );
        assert_eq!(
            Csr::try_build(2, &[(0, 1)], Some(&[1, 2])),
            Err(GraphError::WeightsLengthMismatch {
                weights: 2,
                edges: 1
            })
        );
    }

    #[test]
    fn the_count_pass_reports_the_first_pair_out_of_range() {
        // Four pairs over two vertices: `offsets` is smaller than the
        // list, so the count checks endpoints as it reads them, after a
        // presorted prefix or an unsorted one, built either way.
        let error = Err(GraphError::EndpointOutOfRange {
            src: 1,
            dst: 5,
            num_vertices: 2,
        });
        for edges in [
            [(0, 1), (1, 0), (1, 5), (7, 0)],
            [(1, 0), (0, 1), (1, 5), (7, 0)],
        ] {
            assert_eq!(Csr::try_build(2, &edges, None), error);
            let symmetric = Csr::try_scatter::<true>(2, &edges, None).map(|(csr, _)| csr);
            assert_eq!(symmetric, error);
        }
    }

    #[test]
    #[should_panic(expected = "weights must be parallel to edges")]
    fn build_still_panics_with_the_legacy_message() {
        Csr::build(2, &[(0, 1)], Some(&[1, 2]));
    }
}
