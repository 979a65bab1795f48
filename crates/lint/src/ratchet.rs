//! The ratchet baseline: the findings of the ratcheted rules
//! (`Policy::RATCHETED`: pre-existing `panic-free` debt and the
//! `surface` count) are pinned per file in `crates/lint/baseline.txt`
//! so the counts can only go down. New findings (a file/rule pair
//! exceeding its baselined count) fail `--check`; improvements print a
//! nudge to re-run `--update-baseline`.
//!
//! Format: one `path<TAB>rule<TAB>count` per line, sorted, `#` comments
//! allowed. Tab-separated so paths with spaces would not break parsing
//! (they do not occur today, but the format should not care).

use std::collections::BTreeMap;

/// Keyed by (workspace-relative path, rule id).
pub type Baseline = BTreeMap<(String, String), usize>;

/// Parses baseline text. Malformed lines are reported as errors rather
/// than skipped — a corrupted baseline silently waving findings through
/// would defeat the ratchet.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let mut out = Baseline::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(path), Some(rule), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "baseline line {}: expected `path\\trule\\tcount`",
                idx + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("baseline line {}: bad count `{count}`", idx + 1))?;
        out.insert((path.to_string(), rule.to_string()), count);
    }
    Ok(out)
}

/// Renders a baseline back to text (stable order, suitable for
/// check-in).
pub fn render(b: &Baseline) -> String {
    let mut s = String::from(
        "# simdx-lint ratchet baseline: pre-existing findings pinned per (file, rule).\n\
         # Regenerate with `cargo run -p simdx_lint -- --update-baseline`.\n",
    );
    for ((path, rule), count) in b {
        s.push_str(&format!("{path}\t{rule}\t{count}\n"));
    }
    s
}

/// Aggregates findings into baseline form.
pub fn tally<'a>(findings: impl Iterator<Item = &'a crate::rules::Finding>) -> Baseline {
    let mut b = Baseline::new();
    for f in findings {
        *b.entry((f.file.clone(), f.rule.to_string())).or_insert(0) += 1;
    }
    b
}

/// Compares current findings to the baseline. Returns
/// `(regressions, improvements)` as human-readable lines.
pub fn compare(current: &Baseline, baseline: &Baseline) -> (Vec<String>, Vec<String>) {
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    for (key, &now) in current {
        let was = baseline.get(key).copied().unwrap_or(0);
        if now > was {
            regressions.push(format!(
                "{}: [{}] {} finding(s), baseline allows {}",
                key.0, key.1, now, was
            ));
        } else if now < was {
            improvements.push(format!(
                "{}: [{}] down to {} from {} — run --update-baseline to ratchet",
                key.0, key.1, now, was
            ));
        }
    }
    for (key, &was) in baseline {
        if !current.contains_key(key) && was > 0 {
            improvements.push(format!(
                "{}: [{}] down to 0 from {} — run --update-baseline to ratchet",
                key.0, key.1, was
            ));
        }
    }
    (regressions, improvements)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: &str, r: &str) -> (String, String) {
        (p.to_string(), r.to_string())
    }

    #[test]
    fn round_trips_through_text() {
        let mut b = Baseline::new();
        b.insert(key("crates/core/src/engine.rs", "panic-free"), 3);
        b.insert(key("crates/core/src/par.rs", "panic-free"), 1);
        let parsed = parse(&render(&b)).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse("no tabs here").is_err());
        assert!(parse("a\tb\tnot-a-number").is_err());
        assert!(parse("# comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn compare_detects_regressions_and_improvements() {
        let mut baseline = Baseline::new();
        baseline.insert(key("a.rs", "panic-free"), 2);
        baseline.insert(key("b.rs", "panic-free"), 1);
        let mut current = Baseline::new();
        current.insert(key("a.rs", "panic-free"), 3); // regression
                                                      // b.rs fixed entirely; c.rs is brand new debt.
        current.insert(key("c.rs", "panic-free"), 1);
        let (reg, imp) = compare(&current, &baseline);
        assert_eq!(reg.len(), 2); // a.rs worse + c.rs new
        assert_eq!(imp.len(), 1); // b.rs gone
    }
}
