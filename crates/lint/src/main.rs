//! CLI for the repo lint. Exit codes: 0 clean, 1 findings, 2 usage or
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use simdx_lint::{lint, ratchet, read_baseline, BASELINE_PATH};

struct Args {
    root: PathBuf,
    update_baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = None;
    let mut update_baseline = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => {} // the default mode; accepted for explicitness
            "--update-baseline" => update_baseline = true,
            "--root" => {
                let dir = it.next().ok_or("--root requires a directory")?;
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                return Err(String::new()); // triggers usage, exit 2
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        root: root.unwrap_or_else(find_workspace_root),
        update_baseline,
    })
}

/// Walks up from the current directory to the first `Cargo.toml`
/// containing a `[workspace]` table, so the tool works from any
/// subdirectory.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let root = &args.root;

    let report = lint(root)?;
    let current = ratchet::tally(report.ratcheted.iter());

    if args.update_baseline {
        let baseline_file = root.join(BASELINE_PATH);
        std::fs::write(&baseline_file, ratchet::render(&current))
            .map_err(|e| format!("write {}: {e}", baseline_file.display()))?;
        println!(
            "baseline updated: {} entr{} ({} ratcheted finding(s))",
            current.len(),
            if current.len() == 1 { "y" } else { "ies" },
            report.ratcheted.len()
        );
    }

    let baseline = read_baseline(root)?;
    let (regressions, improvements) = ratchet::compare(&current, &baseline);

    for f in &report.hard {
        println!("{f}");
    }
    if !regressions.is_empty() {
        println!("ratchet regressions:");
        for f in &report.ratcheted {
            let key = (f.file.clone(), f.rule.to_string());
            if current[&key] > baseline.get(&key).copied().unwrap_or(0) {
                println!("  {f}");
            }
        }
        for r in &regressions {
            println!("  {r}");
        }
    }
    for i in &improvements {
        println!("note: {i}");
    }

    let failed = !report.hard.is_empty() || !regressions.is_empty();
    println!(
        "simdx-lint: {} files scanned, {} hard finding(s), {} ratchet regression(s){}",
        report.scanned,
        report.hard.len(),
        regressions.len(),
        if failed { "" } else { " — clean" }
    );
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("simdx-lint: {msg}");
            }
            eprintln!(
                "usage: cargo run -p simdx_lint -- [--check] [--update-baseline] [--root DIR]"
            );
            ExitCode::from(2)
        }
    }
}
