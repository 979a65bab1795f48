//! `simdx-lint`: repo-specific static analysis for the SIMD-X
//! reproduction.
//!
//! The engine's correctness argument leans on conventions no generic
//! linter checks: every `unsafe` carries a written invariant, every
//! atomic ordering a written rationale, and the iteration loop reads
//! neither the environment nor the wall clock. This crate enforces
//! those conventions mechanically — a hand-rolled lexer (the container
//! builds offline, so no `syn`) feeding rule passes, with a ratchet
//! baseline for pre-existing `panic-free` debt and the `surface`
//! count.
//!
//! Run `cargo run -p simdx_lint -- --check` from the workspace root;
//! CI does the same, and the umbrella crate's `tests/lint_clean.rs`
//! runs [`lint`] in tier-1. See `crates/core/README.md` ("Invariants &
//! static checks") for the contract being enforced.

use std::path::{Path, PathBuf};

use rules::{check_file, FileCheck, Finding, Policy};

pub mod lexer;
pub mod model;
pub mod ratchet;
pub mod rules;

/// Workspace-relative path of the ratchet baseline.
pub const BASELINE_PATH: &str = "crates/lint/baseline.txt";

/// One lint pass over a workspace, its findings split by whether the
/// ratchet baseline governs them.
pub struct Report {
    /// Source files scanned.
    pub scanned: usize,
    /// Findings of the hard-fail rules, sorted by file and line.
    pub hard: Vec<Finding>,
    /// Findings of the [`Policy::RATCHETED`] rules, sorted likewise.
    pub ratcheted: Vec<Finding>,
}

/// Lints every source under `root`'s [`Policy::SCAN_ROOTS`].
pub fn lint(root: &Path) -> Result<Report, String> {
    let mut findings = Vec::new();
    let sources = collect_sources(root)?;
    for path in &sources {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        findings.extend(check_file(&FileCheck::new(rel_str(root, path), &src)));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let (ratcheted, hard) = findings
        .into_iter()
        .partition(|f| Policy::RATCHETED.contains(&f.rule));
    Ok(Report {
        scanned: sources.len(),
        hard,
        ratcheted,
    })
}

/// Reads the checked-in baseline under `root`; a missing file is an
/// empty baseline.
pub fn read_baseline(root: &Path) -> Result<ratchet::Baseline, String> {
    let file = root.join(BASELINE_PATH);
    match std::fs::read_to_string(&file) {
        Ok(text) => ratchet::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(ratchet::Baseline::new()),
        Err(e) => Err(format!("read {}: {e}", file.display())),
    }
}

/// Collects every `.rs` file under the policy's scan roots, skipping
/// excluded subtrees, sorted for stable output.
fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for scan in Policy::SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            let rel = rel_str(root, &path);
            if Policy::SKIP_DIRS.iter().any(|s| rel == *s) {
                continue;
            }
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with `/` separators.
fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
