//! Lexer edge cases the rule passes depend on: if any of these
//! misclassify, the lint either misses real `unsafe` or flags phantom
//! ones inside comments/strings.

use simdx_lint::lexer::{tokenize, TokKind};
use simdx_lint::rules::{check_file, FileCheck};

/// The rule ids of every finding, in report order.
fn rules(fc: &FileCheck<'_>) -> Vec<&'static str> {
    check_file(fc).iter().map(|f| f.rule).collect()
}

fn idents(src: &str) -> Vec<&str> {
    tokenize(src)
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text(src))
        .collect()
}

#[test]
fn nested_block_comments_swallow_their_contents() {
    let src = "/* outer /* inner unsafe { } */ still comment */ fn real() {}";
    assert_eq!(idents(src), ["fn", "real"]);
    let toks = tokenize(src);
    assert_eq!(
        toks.iter().filter(|t| t.is_comment()).count(),
        1,
        "one block comment token covering the whole nested span"
    );
}

#[test]
fn raw_strings_containing_unsafe_do_not_leak_tokens() {
    let src = r####"let s = r#"unsafe { Ordering::Relaxed } std::env::var"#; fn f() {}"####;
    assert_eq!(idents(src), ["let", "s", "fn", "f"]);
    // And none of the rules fire on the string contents, even in a
    // file where every rule is in scope.
    let fc = FileCheck::new("crates/core/src/engine.rs".to_string(), src);
    assert!(check_file(&fc).is_empty());
}

#[test]
fn raw_strings_with_multi_hash_fences_end_at_the_matching_fence() {
    let src = r####"let s = r##"contains "# inside"##; unsafe { f() }"####;
    let toks = tokenize(src);
    let strings: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| t.text(src))
        .collect();
    assert_eq!(strings, [r####"r##"contains "# inside"##"####]);
    // The `unsafe` after the string is real code: it must be flagged,
    // and it counts as surface.
    let fc = FileCheck::new("crates/core/src/x.rs".to_string(), src);
    assert_eq!(rules(&fc), ["safety-comment", "surface"]);
}

#[test]
fn line_comment_markers_inside_string_literals_are_string_content() {
    let src = "let url = \"https://example.com\"; let x = unsafe { g() };";
    // The `//` in the URL must not comment out the rest of the line:
    // the unsafe block is live code and gets flagged.
    let fc = FileCheck::new("crates/core/src/x.rs".to_string(), src);
    assert_eq!(rules(&fc), ["safety-comment", "surface"]);
    // And `SAFETY:` inside a string is not a justification.
    let fake = "let s = \"// SAFETY: not a comment\"; let x = unsafe { g() };";
    let fc = FileCheck::new("crates/core/src/x.rs".to_string(), fake);
    assert_eq!(rules(&fc), ["safety-comment", "surface"]);
}

#[test]
fn escaped_quotes_do_not_terminate_strings_early() {
    let src = r#"let s = "he said \"unsafe\" loudly"; fn f() {}"#;
    assert_eq!(idents(src), ["let", "s", "fn", "f"]);
}

#[test]
fn char_literals_and_lifetimes_disambiguate() {
    let src = "fn f<'a>(x: &'a str) -> char { '\\'' }";
    let toks = tokenize(src);
    let lifetimes: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .map(|t| t.text(src))
        .collect();
    assert_eq!(lifetimes, ["'a", "'a"]);
    // Char literals lex as `Str` (the rules only care that the body is
    // not code); the escaped-quote literal is exactly one of them.
    assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
}

#[test]
fn cfg_test_modules_exempt_their_span_and_only_their_span() {
    let src = "\
fn hot() { let v = table.unwrap(); }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = table.unwrap();
        x.store(1, Ordering::Relaxed);
        panic!(\"fine in tests\");
    }
}

fn also_hot() { let v = other.unwrap(); }
";
    let fc = FileCheck::new("crates/core/src/engine.rs".to_string(), src);
    let findings = check_file(&fc);
    // Only the two unwraps outside the test module fire.
    assert_eq!(findings.len(), 2, "findings: {findings:#?}");
    assert!(findings.iter().all(|f| f.rule == "panic-free"));
    assert_eq!(findings[0].line, 1);
    assert_eq!(findings[1].line, 13);
}

#[test]
fn doc_comments_are_distinguished_from_plain_comments() {
    let src = "/// outer doc\n//! inner doc\n// plain\n//// divider\n/** block doc */ fn f() {}";
    let toks = tokenize(src);
    let docs: Vec<_> = toks
        .iter()
        .filter(|t| t.is_doc_comment())
        .map(|t| t.text(src))
        .collect();
    assert_eq!(docs, ["/// outer doc", "//! inner doc", "/** block doc */"]);
}

#[test]
fn malformed_input_never_panics() {
    // Unterminated constructs at EOF: the lexer must degrade, not die.
    for src in [
        "/* never closed",
        "\"never closed",
        "r#\"never closed",
        "let x = '",
        "r#",
        "b",
        "#",
    ] {
        let _ = tokenize(src);
    }
}
