//! The rule passes. Each pass walks the token stream of one file and
//! emits [`Finding`]s; the policy (which files are scanned, which are
//! exempt from which rule) lives in [`Policy`] so it is reviewable in
//! one place.
//!
//! Rules (ids in brackets):
//!
//! * **[safety-comment]** — every `unsafe` block, `unsafe impl` and
//!   `unsafe fn` carries a `// SAFETY:` comment in the immediately
//!   preceding lines (or a trailing one on the same line).
//! * **[safety-doc]** — every **public** `unsafe fn` additionally has a
//!   `# Safety` section in its doc comment.
//! * **[ordering-comment]** — every atomic memory-ordering use
//!   (`Ordering::Relaxed` & co.) carries a `// ORDERING:` justification
//!   nearby. `std::cmp::Ordering` variants are not atomic orderings and
//!   are ignored. Test modules are exempt.
//! * **[env-confined]** — no `std::env` read anywhere in the library
//!   crates (only the bench/CLI binaries, the examples, the lint tool
//!   and tests):
//!   the deterministic iteration loop must not grow a hidden
//!   environment dependence.
//! * **[clock-confined]** — `Instant::now` / `SystemTime::now` are
//!   confined to supervision, the service tier, benches and examples,
//!   for the same reason.
//! * **[io-confined]** — `std::fs` / `std::io` access is confined to
//!   the durable-checkpoint store (`persist.rs`), the bench/CLI
//!   binaries, the lint tool and tests: the engine loop and the rest
//!   of the serving tier must stay filesystem-free so runs are
//!   deterministic and sandboxable.
//! * **[atomic-facade]** — `simdx_core` imports atomics through
//!   `crate::sync`, never `std::sync::atomic` directly, so the `model`
//!   feature can interpose its instrumented shims.
//! * **[panic-free]** — no `unwrap()` / `expect()` / `panic!`-family
//!   macros in the non-test code of the core hot-path modules. Existing
//!   debt is pinned by the ratchet baseline (`crates/lint/baseline.txt`);
//!   only *new* violations fail.
//! * **\[surface\]** — one finding per bare `pub` (a `pub` not followed
//!   by `(`: `pub(crate)`, `pub(super)` and `pub(in …)` are not
//!   surface) and one per `unsafe` keyword, in the non-test code of the
//!   library crates. Ratcheted like `[panic-free]`: the baseline pins
//!   each file's count, so a change that grows the public or unsafe
//!   surface shows it in the baseline's diff.

use crate::lexer::{Tok, TokKind};

/// How far above a flagged token a justification comment may start
/// counting as "attached" (in lines, inclusive).
const COMMENT_LOOKBACK_LINES: u32 = 4;

/// The atomic memory orderings; `Ordering::Less` & co. (from
/// `std::cmp`) must not trip the rule.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id, e.g. `safety-comment`.
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// The scanning policy: which workspace files each rule applies to.
/// Paths are workspace-relative with `/` separators.
pub struct Policy;

impl Policy {
    /// Directories scanned at all (relative to the workspace root).
    pub const SCAN_ROOTS: &'static [&'static str] = &["crates", "src", "tests", "examples"];

    /// Subtrees never scanned: `compat` holds offline API stubs that
    /// deliberately mirror external crates' surfaces, not this repo's
    /// conventions.
    pub const SKIP_DIRS: &'static [&'static str] = &["crates/compat", "target"];

    /// Files whose whole content is test code (integration tests).
    pub fn is_test_file(path: &str) -> bool {
        path.starts_with("tests/") || path.contains("/tests/")
    }

    /// [env-confined] allowlist: the bench/CLI binaries, the examples
    /// (binaries too) and the lint tool itself — nothing in
    /// `crates/core`. Test files may also manipulate the environment
    /// (they orchestrate child processes).
    pub fn env_allowed(path: &str) -> bool {
        path.starts_with("crates/bench/")
            || path.starts_with("crates/lint/")
            || path.starts_with("examples/")
            || Self::is_test_file(path)
    }

    /// [clock-confined] allowlist: supervision (deadlines), the service
    /// tier (latency accounting), benches, examples and the lint tool.
    /// Test files measure latency too.
    pub fn clock_allowed(path: &str) -> bool {
        path == "crates/core/src/supervise.rs"
            || path == "crates/core/src/service.rs"
            || path.starts_with("crates/bench/")
            || path.starts_with("crates/lint/")
            || path.starts_with("examples/")
            || Self::is_test_file(path)
    }

    /// [io-confined] allowlist: the durable-checkpoint store (the one
    /// place the core crate touches the filesystem, by design), the
    /// bench/CLI binaries and the lint tool. Test files drive stores
    /// and scratch directories too.
    pub fn io_allowed(path: &str) -> bool {
        path == "crates/core/src/persist.rs"
            || path.starts_with("crates/bench/")
            || path.starts_with("crates/lint/")
            || Self::is_test_file(path)
    }

    /// [atomic-facade] scope: `simdx_core` sources except the facade
    /// itself.
    pub fn facade_scoped(path: &str) -> bool {
        path.starts_with("crates/core/src/") && path != "crates/core/src/sync.rs"
    }

    /// Rules whose findings are pinned per file by the ratchet baseline
    /// instead of failing outright.
    pub const RATCHETED: &'static [&'static str] = &["panic-free", "surface"];

    /// \[surface\] scope: the library crates' sources (not the bench
    /// bins, the lint tool, tests or examples).
    pub fn surface_scoped(path: &str) -> bool {
        const LIBS: &[&str] = &[
            "crates/graph/src/",
            "crates/gpu-sim/src/",
            "crates/core/src/",
            "crates/algos/src/",
            "crates/baselines/src/",
        ];
        LIBS.iter().any(|dir| path.starts_with(dir))
    }

    /// [panic-free] scope: the core hot-path modules — everything on
    /// the per-iteration critical path plus the resource pools the
    /// serving tier leans on.
    pub fn panic_free_scoped(path: &str) -> bool {
        PANIC_FREE_HOT.contains(&path) || path.starts_with("crates/core/src/filters/")
    }
}

/// The files [`Policy::panic_free_scoped`] names one by one. Every
/// entry must exist in the workspace (a unit test checks): an entry
/// left behind by a deleted module would silently scope nothing.
const PANIC_FREE_HOT: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/core/src/par.rs",
    "crates/core/src/frontier.rs",
    "crates/core/src/scratch.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/fusion.rs",
    "crates/core/src/jit.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/service.rs",
    "crates/core/src/persist.rs",
];

/// One file prepared for rule passes: tokens plus test-span marking.
pub struct FileCheck<'a> {
    pub path: String,
    pub src: &'a str,
    pub toks: Vec<Tok>,
    /// `in_test[i]` — token `i` is inside a `#[cfg(test)]` module (or
    /// the whole file is test code).
    in_test: Vec<bool>,
}

impl<'a> FileCheck<'a> {
    pub fn new(path: String, src: &'a str) -> Self {
        let toks = crate::lexer::tokenize(src);
        let in_test = mark_test_spans(&toks, src, Policy::is_test_file(&path));
        Self {
            path,
            src,
            toks,
            in_test,
        }
    }

    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_ident(&self, i: usize, word: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(self.src) == word)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct(c))
    }

    /// Index of the next non-comment token at or after `i`.
    fn next_code(&self, mut i: usize) -> Option<usize> {
        while i < self.toks.len() {
            if !self.toks[i].is_comment() {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Whether a `::` path separator sits at tokens `i`, `i + 1`.
    fn is_path_sep(&self, i: usize) -> bool {
        self.is_punct(i, ':') && self.is_punct(i + 1, ':')
    }

    /// Whether any comment "attached" to the token at index `i`
    /// contains `needle`: trailing on the same line, or ending within
    /// [`COMMENT_LOOKBACK_LINES`] lines above it. A multi-line `//`
    /// justification lexes as one token per line, so an in-window
    /// comment is first expanded to its contiguous run (consecutive
    /// comment tokens on consecutive lines) and the whole run is
    /// searched — the marker is usually on the run's *first* line,
    /// which may itself sit outside the window.
    fn attached_comment_contains(&self, i: usize, needle: &str) -> bool {
        let line = self.toks[i].line;
        let lo = line.saturating_sub(COMMENT_LOOKBACK_LINES);
        for (j, t) in self.toks.iter().enumerate() {
            if !t.is_comment() || t.line > line || t.end_line < lo {
                continue;
            }
            let mut k = j;
            while k > 0
                && self.toks[k - 1].is_comment()
                && self.toks[k - 1].end_line + 1 >= self.toks[k].line
            {
                k -= 1;
            }
            let mut m = j;
            while m + 1 < self.toks.len()
                && self.toks[m + 1].is_comment()
                && self.toks[m].end_line + 1 >= self.toks[m + 1].line
            {
                m += 1;
            }
            if self.toks[k..=m]
                .iter()
                .any(|t| t.text(self.src).contains(needle))
            {
                return true;
            }
        }
        false
    }

    /// Whether the doc comment block attached to the item whose first
    /// modifier token is at `item_start` contains `needle`. Walks
    /// backward over attributes (`#[…]`) and comments; any other token
    /// ends the block.
    fn doc_block_contains(&self, item_start: usize, needle: &str) -> bool {
        let mut i = item_start;
        while i > 0 {
            let j = i - 1;
            let t = &self.toks[j];
            if t.is_comment() {
                if t.is_doc_comment() && t.text(self.src).contains(needle) {
                    return true;
                }
                i = j;
            } else if t.kind == TokKind::Punct(']') {
                // Walk back over one `#[…]` attribute.
                let mut depth = 1usize;
                let mut k = j;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match self.toks[k].kind {
                        TokKind::Punct(']') => depth += 1,
                        TokKind::Punct('[') => depth -= 1,
                        _ => {}
                    }
                }
                // The `#` before the `[`.
                i = k.saturating_sub(1);
            } else {
                break;
            }
        }
        false
    }

    /// Walks backward from the `unsafe` token over fn modifiers
    /// (`pub`, `pub(crate)`, `const`, `extern "ABI"`, `async`) and
    /// returns `(item_start, is_public)`. `is_public` is true only for
    /// bare `pub` (restricted `pub(crate)`/`pub(super)` items are not
    /// part of the external API surface).
    fn fn_visibility(&self, unsafe_idx: usize) -> (usize, bool) {
        let mut i = unsafe_idx;
        // Where the item header starts: the earliest *modifier* token,
        // NOT any comment we skip past — doc_block_contains must start
        // its backward walk just before the modifiers, so it can see
        // the doc comments.
        let mut item_start = unsafe_idx;
        let mut public = false;
        while i > 0 {
            let j = i - 1;
            if self.toks[j].is_comment() {
                i = j; // skip, but comments are not part of the header
                continue;
            }
            match self.toks[j].kind {
                TokKind::Ident => match self.text(j) {
                    "const" | "extern" | "async" => {
                        i = j;
                        item_start = j;
                    }
                    "pub" => {
                        public = true;
                        i = j;
                        item_start = j;
                    }
                    _ => break,
                },
                TokKind::Str => {
                    // extern "C"
                    i = j;
                    item_start = j;
                }
                TokKind::Punct(')') => {
                    // `pub(crate)` / `pub(super)`: walk to the `(`,
                    // then consume the `pub` too. Restricted
                    // visibility is not public API surface.
                    let mut k = j;
                    while k > 0 && !self.is_punct(k, '(') {
                        k -= 1;
                    }
                    if k > 0 && self.is_ident(k - 1, "pub") {
                        k -= 1;
                    }
                    i = k;
                    item_start = k;
                }
                _ => break,
            }
        }
        (item_start, public)
    }
}

/// Marks which tokens are inside `#[cfg(test)] mod … { … }` spans (or
/// everything, for test files).
fn mark_test_spans(toks: &[Tok], src: &str, whole_file: bool) -> Vec<bool> {
    let mut marked = vec![whole_file; toks.len()];
    if whole_file {
        return marked;
    }
    let ident = |i: usize, w: &str| {
        toks.get(i)
            .is_some_and(|t: &Tok| t.kind == TokKind::Ident && t.text(src) == w)
    };
    let punct = |i: usize, c: char| {
        toks.get(i)
            .is_some_and(|t: &Tok| t.kind == TokKind::Punct(c))
    };
    let mut i = 0;
    while i < toks.len() {
        // `#[cfg(…test…)]` — any cfg attribute whose argument list
        // mentions the bare ident `test` (covers `cfg(test)` and
        // `cfg(all(test, …))`).
        if punct(i, '#') && punct(i + 1, '[') && ident(i + 2, "cfg") && punct(i + 3, '(') {
            let mut j = i + 4;
            let mut depth = 1usize;
            let mut saw_test = false;
            while j < toks.len() && depth > 0 {
                match toks[j].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => depth -= 1,
                    TokKind::Ident if toks[j].text(src) == "test" => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            // Expect `]`, then (skipping further attributes/comments)
            // `mod name {`.
            if saw_test && punct(j, ']') {
                let mut k = j + 1;
                // Skip comments and further `#[…]` attributes.
                loop {
                    while toks.get(k).is_some_and(Tok::is_comment) {
                        k += 1;
                    }
                    if punct(k, '#') && punct(k + 1, '[') {
                        let mut depth = 1usize;
                        k += 2;
                        while k < toks.len() && depth > 0 {
                            match toks[k].kind {
                                TokKind::Punct('[') => depth += 1,
                                TokKind::Punct(']') => depth -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                    } else {
                        break;
                    }
                }
                if ident(k, "mod") {
                    // `mod name {` — find the brace, then its match.
                    let mut b = k + 1;
                    while b < toks.len() && !punct(b, '{') {
                        b += 1;
                    }
                    if b < toks.len() {
                        let mut depth = 1usize;
                        let mut e = b + 1;
                        while e < toks.len() && depth > 0 {
                            match toks[e].kind {
                                TokKind::Punct('{') => depth += 1,
                                TokKind::Punct('}') => depth -= 1,
                                _ => {}
                            }
                            e += 1;
                        }
                        for flag in marked.iter_mut().take(e).skip(i) {
                            *flag = true;
                        }
                        i = e;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    marked
}

/// Runs every rule pass over one prepared file.
pub fn check_file(fc: &FileCheck<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_safety(fc, &mut out);
    rule_ordering(fc, &mut out);
    rule_env_clock(fc, &mut out);
    rule_io_confined(fc, &mut out);
    rule_atomic_facade(fc, &mut out);
    rule_panic_free(fc, &mut out);
    rule_surface(fc, &mut out);
    out
}

fn finding(fc: &FileCheck<'_>, i: usize, rule: &'static str, msg: String) -> Finding {
    Finding {
        file: fc.path.clone(),
        line: fc.toks[i].line,
        rule,
        msg,
    }
}

/// [safety-comment] + [safety-doc].
fn rule_safety(fc: &FileCheck<'_>, out: &mut Vec<Finding>) {
    for i in 0..fc.toks.len() {
        if !fc.is_ident(i, "unsafe") {
            continue;
        }
        let next = fc.next_code(i + 1);
        let context = match next {
            Some(j) if fc.is_punct(j, '{') => "unsafe block",
            Some(j) if fc.is_ident(j, "impl") => "unsafe impl",
            Some(j) if fc.is_ident(j, "fn") => "unsafe fn",
            Some(j) if fc.is_ident(j, "extern") => "unsafe extern block",
            // `unsafe` inside e.g. a type position (`unsafe fn()`
            // pointer) — still wants a justification; label generically.
            _ => "unsafe",
        };
        if !fc.attached_comment_contains(i, "SAFETY:") {
            out.push(finding(
                fc,
                i,
                "safety-comment",
                format!("{context} without an attached `// SAFETY:` comment"),
            ));
        }
        if context == "unsafe fn" {
            let (item_start, public) = fc.fn_visibility(i);
            if public && !fc.doc_block_contains(item_start, "# Safety") {
                out.push(finding(
                    fc,
                    i,
                    "safety-doc",
                    "public unsafe fn without a `# Safety` doc section".to_string(),
                ));
            }
        }
    }
}

/// [ordering-comment].
fn rule_ordering(fc: &FileCheck<'_>, out: &mut Vec<Finding>) {
    for i in 0..fc.toks.len() {
        if fc.in_test[i] || !fc.is_ident(i, "Ordering") || !fc.is_path_sep(i + 1) {
            continue;
        }
        let Some(variant) = fc.toks.get(i + 3) else {
            continue;
        };
        if variant.kind != TokKind::Ident || !ATOMIC_ORDERINGS.contains(&variant.text(fc.src)) {
            continue;
        }
        if !fc.attached_comment_contains(i, "ORDERING:") {
            out.push(finding(
                fc,
                i,
                "ordering-comment",
                format!(
                    "atomic `Ordering::{}` without an attached `// ORDERING:` justification",
                    variant.text(fc.src)
                ),
            ));
        }
    }
}

/// [env-confined] + [clock-confined].
fn rule_env_clock(fc: &FileCheck<'_>, out: &mut Vec<Finding>) {
    let env_ok = Policy::env_allowed(&fc.path);
    let clock_ok = Policy::clock_allowed(&fc.path);
    if env_ok && clock_ok {
        return;
    }
    const ENV_FNS: &[&str] = &[
        "var",
        "vars",
        "var_os",
        "args",
        "args_os",
        "set_var",
        "remove_var",
    ];
    for i in 0..fc.toks.len() {
        if fc.in_test[i] {
            continue;
        }
        if !env_ok {
            let std_env =
                fc.is_ident(i, "std") && fc.is_path_sep(i + 1) && fc.is_ident(i + 3, "env");
            let bare_env = fc.is_ident(i, "env")
                && fc.is_path_sep(i + 1)
                && fc
                    .toks
                    .get(i + 3)
                    .is_some_and(|t| t.kind == TokKind::Ident && ENV_FNS.contains(&t.text(fc.src)));
            if std_env || bare_env {
                out.push(finding(
                    fc,
                    i,
                    "env-confined",
                    "std::env access in a library crate breaks the determinism \
                     contract (route it through EngineConfig)"
                        .to_string(),
                ));
            }
        }
        if !clock_ok {
            let clock = (fc.is_ident(i, "Instant") || fc.is_ident(i, "SystemTime"))
                && fc.is_path_sep(i + 1)
                && fc.is_ident(i + 3, "now");
            if clock {
                out.push(finding(
                    fc,
                    i,
                    "clock-confined",
                    "wall-clock read outside supervise/service/bench/examples breaks the determinism \
                     contract (thread time through Supervisor instead)"
                        .to_string(),
                ));
            }
        }
    }
}

/// [io-confined].
fn rule_io_confined(fc: &FileCheck<'_>, out: &mut Vec<Finding>) {
    if Policy::io_allowed(&fc.path) {
        return;
    }
    for i in 0..fc.toks.len() {
        if fc.in_test[i] {
            continue;
        }
        // `std::fs` and `std::io` paths (covers both `use std::fs…`
        // imports and inline `std::fs::read(…)` calls — any file doing
        // filesystem work spells one of the two). `std::io::Error` in
        // type position is as confined as the calls: an i/o error can
        // only arise where i/o is allowed.
        if fc.is_ident(i, "std")
            && fc.is_path_sep(i + 1)
            && (fc.is_ident(i + 3, "fs") || fc.is_ident(i + 3, "io"))
        {
            let module = fc.text(i + 3).to_string();
            out.push(finding(
                fc,
                i,
                "io-confined",
                format!(
                    "std::{module} access outside persist/bench/lint/tests breaks the \
                     determinism contract (route persistence through a CheckpointStore)"
                ),
            ));
        }
    }
}

/// [atomic-facade].
fn rule_atomic_facade(fc: &FileCheck<'_>, out: &mut Vec<Finding>) {
    if !Policy::facade_scoped(&fc.path) {
        return;
    }
    for i in 0..fc.toks.len() {
        if fc.in_test[i] {
            continue;
        }
        if fc.is_ident(i, "std")
            && fc.is_path_sep(i + 1)
            && fc.is_ident(i + 3, "sync")
            && fc.is_path_sep(i + 4)
            && fc.is_ident(i + 6, "atomic")
        {
            out.push(finding(
                fc,
                i,
                "atomic-facade",
                "simdx_core must import atomics via crate::sync (the model feature interposes \
                 instrumented shims there)"
                    .to_string(),
            ));
        }
    }
}

/// [panic-free] — ratcheted; see [`crate::ratchet`].
fn rule_panic_free(fc: &FileCheck<'_>, out: &mut Vec<Finding>) {
    if !Policy::panic_free_scoped(&fc.path) {
        return;
    }
    for i in 0..fc.toks.len() {
        if fc.in_test[i] {
            continue;
        }
        // `.unwrap()` / `.expect(` — method calls only, so local
        // helpers like `unwrap_or_else` never trip it.
        if i > 0 && fc.is_punct(i - 1, '.') && fc.is_punct(i + 1, '(') {
            if fc.is_ident(i, "unwrap") {
                out.push(finding(
                    fc,
                    i,
                    "panic-free",
                    "unwrap() in a hot-path module (return a SimdxError or justify via the \
                     ratchet baseline)"
                        .to_string(),
                ));
            } else if fc.is_ident(i, "expect") {
                out.push(finding(
                    fc,
                    i,
                    "panic-free",
                    "expect() in a hot-path module (return a SimdxError or justify via the \
                     ratchet baseline)"
                        .to_string(),
                ));
            }
        }
        // `panic!(…)` family.
        if fc.is_punct(i + 1, '!')
            && fc.toks[i].kind == TokKind::Ident
            && matches!(
                fc.text(i),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            out.push(finding(
                fc,
                i,
                "panic-free",
                format!("{}! in a hot-path module", fc.text(i)),
            ));
        }
    }
}

/// `[surface]` — ratcheted; see [`crate::ratchet`].
fn rule_surface(fc: &FileCheck<'_>, out: &mut Vec<Finding>) {
    if !Policy::surface_scoped(&fc.path) {
        return;
    }
    for i in 0..fc.toks.len() {
        if fc.in_test[i] {
            continue;
        }
        if fc.is_ident(i, "pub") && !fc.is_punct(i + 1, '(') {
            out.push(finding(fc, i, "surface", "bare `pub` item".to_string()));
        } else if fc.is_ident(i, "unsafe") {
            out.push(finding(fc, i, "surface", "`unsafe` keyword".to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every finding but `[surface]`'s, which most snippets below trip
    /// and [`surface`] counts on its own.
    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&FileCheck::new(path.to_string(), src))
            .into_iter()
            .filter(|f| f.rule != "surface")
            .collect()
    }

    /// The number of `[surface]` findings.
    fn surface(path: &str, src: &str) -> usize {
        check_file(&FileCheck::new(path.to_string(), src))
            .iter()
            .filter(|f| f.rule == "surface")
            .count()
    }

    #[test]
    fn every_panic_free_scope_entry_exists_in_the_workspace() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for path in PANIC_FREE_HOT {
            assert!(root.join(path).is_file(), "{path} is scoped but absent");
            assert!(Policy::panic_free_scoped(path));
        }
    }

    #[test]
    fn annotated_unsafe_passes_and_bare_unsafe_fails() {
        let ok = "// SAFETY: disjoint shards.\nlet x = unsafe { go() };";
        assert!(check("crates/core/src/x.rs", ok).is_empty());
        let bad = "let x = unsafe { go() };";
        let f = check("crates/core/src/x.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let src = r##"
// this mentions unsafe but is a comment
let a = "unsafe";
let b = r#"unsafe { }"#;
/* unsafe impl Send for X {} */
"##;
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn public_unsafe_fn_needs_safety_doc_section() {
        let no_doc = "// SAFETY: fine.\npub unsafe fn f() {}";
        let f = check("crates/core/src/x.rs", no_doc);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-doc");
        let with_doc = "/// Does things.\n///\n/// # Safety\n///\n/// Caller must…\n\
                        // SAFETY: fine.\npub unsafe fn f() {}";
        assert!(check("crates/core/src/x.rs", with_doc).is_empty());
        // Private unsafe fn needs only the comment.
        let private = "// SAFETY: fine.\nunsafe fn f() {}";
        assert!(check("crates/core/src/x.rs", private).is_empty());
        // pub(crate) is not public API surface.
        let restricted = "// SAFETY: fine.\npub(crate) unsafe fn f() {}";
        assert!(check("crates/core/src/x.rs", restricted).is_empty());
    }

    #[test]
    fn atomic_ordering_needs_justification_but_cmp_ordering_does_not() {
        let bad = "x.store(1, Ordering::Relaxed);";
        let f = check("crates/core/src/x.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordering-comment");
        let ok = "// ORDERING: lone flag, no data published.\nx.store(1, Ordering::Relaxed);";
        assert!(check("crates/core/src/x.rs", ok).is_empty());
        let trailing = "x.store(1, Ordering::Relaxed); // ORDERING: lone flag.";
        assert!(check("crates/core/src/x.rs", trailing).is_empty());
        let cmp = "match a.cmp(&b) { Ordering::Less => {} _ => {} }";
        assert!(check("crates/core/src/x.rs", cmp).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_from_ordering_and_panic_rules() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { x.load(Ordering::Relaxed); \
                   y.unwrap(); panic!(\"boom\"); }\n}";
        assert!(check("crates/core/src/par.rs", src).is_empty());
        // …but the same code outside the module trips all three.
        let bare = "fn f() { x.load(Ordering::Relaxed); y.unwrap(); panic!(\"boom\"); }";
        let f = check("crates/core/src/par.rs", bare);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn cfg_all_test_modules_are_detected() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod harness { fn f() { y.unwrap(); } }";
        assert!(check("crates/core/src/par.rs", src).is_empty());
    }

    #[test]
    fn env_and_clock_confinement() {
        let env = "let v = std::env::var(\"X\");";
        assert_eq!(
            check("crates/core/src/engine.rs", env)[0].rule,
            "env-confined"
        );
        assert_eq!(
            check("crates/core/src/config.rs", env)[0].rule,
            "env-confined"
        );
        assert!(check("tests/something.rs", env).is_empty());
        let clock = "let t = Instant::now();";
        assert_eq!(
            check("crates/core/src/engine.rs", clock)[0].rule,
            "clock-confined"
        );
        assert!(check("crates/core/src/supervise.rs", clock).is_empty());
        assert!(check("crates/bench/src/bin/simdx.rs", clock).is_empty());
    }

    #[test]
    fn examples_are_binaries_for_env_and_clock() {
        let src = "fn main() { let a = std::env::args(); let t = Instant::now(); }";
        assert!(check("examples/x.rs", src).is_empty());
        // `std::env::args` matches both the `std::env` and the bare
        // `env::args` shape.
        let mut rules: Vec<_> = check("crates/core/src/x.rs", src)
            .iter()
            .map(|f| f.rule)
            .collect();
        rules.dedup();
        assert_eq!(rules, ["env-confined", "clock-confined"]);
    }

    #[test]
    fn io_confinement() {
        for bad in [
            "use std::fs;",
            "use std::io::Write;",
            "fn f() { let b = std::fs::read(\"x\"); }",
            "fn f(e: std::io::Error) {}",
        ] {
            let f = check("crates/core/src/service.rs", bad);
            assert_eq!(f.len(), 1, "expected one finding for {bad:?}");
            assert_eq!(f[0].rule, "io-confined");
        }
        // The allowlist: the store itself, benches, the lint tool,
        // tests.
        let io = "use std::fs;\nuse std::io::Write;";
        assert!(check("crates/core/src/persist.rs", io).is_empty());
        assert!(check("crates/bench/src/bin/simdx.rs", io).is_empty());
        assert!(check("crates/lint/src/main.rs", io).is_empty());
        assert!(check("tests/durable_recovery.rs", io).is_empty());
        // Test modules inside scanned files may touch the filesystem
        // (scratch dirs), and `std::io` in a comment is not access.
        let test_mod = "#[cfg(test)]\nmod tests { fn f() { std::fs::read(\"x\"); } }";
        assert!(check("crates/core/src/engine.rs", test_mod).is_empty());
        let comment = "// std::io::Error is not Clone.\nfn f() {}";
        assert!(check("crates/core/src/error.rs", comment).is_empty());
    }

    #[test]
    fn facade_rule_fires_only_in_core() {
        let src = "use std::sync::atomic::AtomicU64;";
        assert_eq!(
            check("crates/core/src/engine.rs", src)[0].rule,
            "atomic-facade"
        );
        assert!(check("crates/baselines/src/cpu/ligra.rs", src).is_empty());
        assert!(check("crates/core/src/sync.rs", src).is_empty());
    }

    #[test]
    fn panic_free_scope_and_method_call_shape() {
        let src = "fn f() { let x = o.unwrap(); }";
        assert_eq!(
            check("crates/core/src/engine.rs", src)[0].rule,
            "panic-free"
        );
        // Non-hot modules are out of scope.
        assert!(check("crates/core/src/error.rs", src).is_empty());
        // unwrap_or_else is not unwrap.
        let ok = "fn f() { let x = o.unwrap_or_else(PoisonError::into_inner); }";
        assert!(check("crates/core/src/engine.rs", ok).is_empty());
    }

    #[test]
    fn surface_counts_bare_pub_and_unsafe_outside_tests() {
        let src = "pub struct S { pub x: u32, y: u32 }\n\
                   pub(crate) fn f() {}\n\
                   pub(super) fn g() {}\n\
                   pub(in crate::m) fn h() {}\n\
                   // SAFETY: test.\nunsafe impl Send for S {}\n\
                   #[cfg(test)]\nmod tests { pub fn t() {} }";
        // `pub struct`, `pub x` and the `unsafe impl`; the restricted
        // forms and the test module do not count.
        assert_eq!(surface("crates/graph/src/x.rs", src), 3);
        // Only library sources are in scope.
        for path in [
            "crates/bench/src/bin/simdx.rs",
            "crates/lint/src/rules.rs",
            "tests/support/mod.rs",
            "examples/quickstart.rs",
            "src/lib.rs",
        ] {
            assert_eq!(surface(path, src), 0, "{path}");
        }
        // Comments and strings are not surface.
        assert_eq!(
            surface("crates/core/src/x.rs", "// pub unsafe\nlet s = \"pub\";"),
            0
        );
    }

    #[test]
    fn surface_and_panic_free_are_the_ratcheted_rules() {
        let src = "pub fn f() { o.unwrap(); }";
        let rules: Vec<_> = check_file(&FileCheck::new("crates/core/src/engine.rs".into(), src))
            .iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, ["panic-free", "surface"]);
        assert!(rules.iter().all(|r| Policy::RATCHETED.contains(r)));
    }
}
