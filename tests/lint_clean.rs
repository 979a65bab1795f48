//! The repo lint (`crates/lint`) over this workspace, as CI's
//! `simdx-lint --check` step runs it: no finding of a hard-fail rule,
//! and no file whose `[panic-free]` or `[surface]` count exceeds its
//! row in `crates/lint/baseline.txt`. A change that grows the public or
//! `unsafe` surface fails here until the baseline is regenerated
//! (`cargo run -p simdx_lint -- --update-baseline`) and the new counts
//! show in its diff.

use std::path::Path;

use simdx_lint::{lint, ratchet, read_baseline};

#[test]
fn workspace_is_lint_clean_against_its_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint(root).expect("lint the workspace");
    assert!(report.scanned > 100, "scanned {} files", report.scanned);
    let hard: Vec<String> = report.hard.iter().map(ToString::to_string).collect();
    assert!(hard.is_empty(), "hard findings:\n{}", hard.join("\n"));
    let baseline = read_baseline(root).expect("read the baseline");
    let (regressions, _) = ratchet::compare(&ratchet::tally(report.ratcheted.iter()), &baseline);
    assert!(
        regressions.is_empty(),
        "ratchet regressions:\n{}",
        regressions.join("\n")
    );
}
