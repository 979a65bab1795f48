//! The traced run's span recorder. Spans are recorded from outside the
//! program — around calls into each layer's public functions and from
//! the `RunBuilder::observe` hook — kept in memory, and written as JSON
//! lines when the run ends. Spans inside the program (ROADMAP item 1a
//! `RunProfile`) are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Json};

pub type SpanId = u32;

/// Query identifier for spans that belong to no query (set-up, the
/// persist side channel).
pub const NO_QUERY: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one query share this identifier.
    pub query: u32,
    /// Counts taken at the same boundary (`frontier_len`, `cycles`, …).
    pub tags: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// `t` on the recorder's clock (zero for an instant before it).
    pub fn at_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        query: u32,
    ) -> SpanId {
        self.record_tagged(name, start_ns, end_ns, parent, query, Vec::new())
    }

    pub fn record_tagged(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        query: u32,
        tags: Vec<(&'static str, f64)>,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query,
            tags,
        });
        id
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, query: u32) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, query)
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Times `f` as a child span of `parent`.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, parent, query);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of that
    /// interval its direct children cover (overlapping children are
    /// merged first, and clipped to the parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for &(s, e) in kids.iter() {
                    let s = s.max(cursor);
                    let e = e.min(span.end_ns);
                    if e > s {
                        covered += e - s;
                        cursor = e;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`,
    /// `end_ns`, `self_ns`, `parent`, `query` and the tags.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_times_ns();
        for (id, span) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(span.name.to_string())),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("self_ns", Json::Num(self_ns[id] as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                (
                    "query",
                    if span.query == NO_QUERY {
                        Json::Null
                    } else {
                        Json::Num(f64::from(span.query))
                    },
                ),
            ];
            fields.extend(span.tags.iter().map(|&(k, v)| (k, Json::Num(v))));
            writeln!(out, "{}", obj(fields).render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_clipped_children() {
        let mut r = Recorder::new();
        let root = r.record("query", 100, 200, None, 0);
        r.record("engine.pre_loop", 100, 110, Some(root), 0);
        // Two overlapping children cover [120, 150] once.
        r.record("engine.iter", 120, 140, Some(root), 0);
        r.record("engine.iter", 130, 150, Some(root), 0);
        // A child running past its parent is clipped at the parent's end.
        let tail = r.record("engine.post_loop", 190, 230, Some(root), 0);
        r.record("grandchild", 195, 200, Some(tail), 0);
        let own = r.self_times_ns();
        // 100 total − 10 − 30 − 10 covered.
        assert_eq!(own[root as usize], 50);
        assert_eq!(own[1], 10);
        assert_eq!(own[tail as usize], 35);
    }

    #[test]
    fn open_close_and_scope_nest() {
        let mut r = Recorder::new();
        let outer = r.open("workload", None, NO_QUERY);
        let got = r.scope("setup", Some(outer), NO_QUERY, || 7);
        r.close(outer);
        assert_eq!(got, 7);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }
}
