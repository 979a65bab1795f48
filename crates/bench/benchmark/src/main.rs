//! The repository benchmark: four workloads, the end-to-end metrics a
//! user of the system sees, and a per-layer trace that explains them.
//! See `README.md` beside this file for the glossary and how to read
//! the output, and `BENCHMARK.json` at the repository root for the
//! metric list and regression bounds.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. `run` drives
//! that form once per workload, trace mode and seed in child processes
//! and prints every metric by name with its unit; `compare` gates one
//! `run --out` file against another. An untraced run re-runs this
//! binary once more with `--rss-probe` (see `probe.rs`) for its
//! `peak_rss_mib`.

mod batch;
mod compare;
mod harness;
mod inputs;
mod json;
mod layers;
mod probe;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::batch::Batch;
use crate::harness::{Checks, Metrics};
use crate::json::{obj, Json};
use crate::spec::{MetricSpec, Sizing, Spec};
use crate::stats::Summary;

/// One workload run's arguments.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures; phases split it by share.
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    /// Where the traced run writes its spans as JSON lines.
    pub trace_out: PathBuf,
    /// The arguments to re-run this binary with as the memory probe's
    /// child (see `probe`); `None` probes in this process.
    pub probe_args: Option<Vec<String>>,
}

/// Exit code for a usage or environment error (no result is printed).
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => report::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("--help" | "-h") | None => Err(USAGE.to_string()),
        Some(_) => single(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  benchmark run [--workload NAME] [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
  benchmark compare A.json B.json";

/// `EngineConfig::default()` reads cached `SIMDX_*` knobs; a stray one
/// would make the run measure another configuration than it reports.
pub fn refuse_simdx_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SIMDX_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration",
            set.join(", ")
        ))
    }
}

/// The value following flag `args[*i]`.
pub fn flag_value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

pub fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read `{value}`"))
}

fn single(args: &[String]) -> Result<ExitCode, String> {
    refuse_simdx_env()?;
    let spec = Spec::embedded();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut rss_probe) = (false, false);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload = Some(flag_value(args, &mut i)?.to_string()),
            "--seed" => seed = Some(parse_num::<u64>("--seed", flag_value(args, &mut i)?)?),
            "--seconds" => {
                seconds = Some(parse_num::<f64>("--seconds", flag_value(args, &mut i)?)?);
            }
            "--trace" => {
                trace = Some(match flag_value(args, &mut i)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--smoke" => smoke = true,
            probe::FLAG => rss_probe = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}`; BENCHMARK.json names {}",
            spec.workloads.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(spec.run_seconds);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let trace = trace.unwrap_or(false);
    let run = Run {
        trace_out: PathBuf::from(".bench_out").join(format!("trace-{workload}.jsonl")),
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
        sizing: if smoke {
            Sizing::smoke()
        } else {
            Sizing::full()
        },
        probe_args: Some(args.to_vec()),
    };
    if rss_probe {
        println!("{}", probe::in_this_process(&run));
        return Ok(ExitCode::SUCCESS);
    }
    let outcome = run_workload(&run, &spec);
    print_outcome(&run, &outcome);
    Ok(if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload run's results: every metric of the trace mode, in
/// `BENCHMARK.json` order.
pub struct Outcome {
    pub metrics: Vec<(MetricSpec, Summary)>,
    /// Per-layer metrics this workload left unset (they read zero).
    pub unset: Vec<String>,
    pub checks: Checks,
    pub wall_s: f64,
}

pub fn run_workload(run: &Run, spec: &Spec) -> Outcome {
    let start = std::time::Instant::now();
    let specs = spec.metrics(run.trace);
    let mut metrics = Metrics::new(specs);
    let mut checks = Checks::default();
    match run.workload.as_str() {
        spec::RMAT17_ANALYTICS => batch::run(Batch::Analytics, run, &mut metrics, &mut checks),
        spec::ROAD_TRAVERSAL => batch::run(Batch::Road, run, &mut metrics, &mut checks),
        spec::SERVE_OPEN => serve::run_open(run, &mut metrics, &mut checks),
        spec::SERVE_FAULTED => serve::run_faulted(run, &mut metrics, &mut checks),
        other => unreachable!("workload `{other}` was checked against BENCHMARK.json"),
    }
    let mut unset = Vec::new();
    let values = specs
        .iter()
        .map(|m| {
            let value = match (metrics.get(&m.name), run.trace) {
                (Some(value), _) => value,
                // A layer this workload does not exercise reads zero
                // (`persist.*` outside `serve_faulted`, say).
                (None, true) => {
                    unset.push(m.name.clone());
                    Summary::single(0.0)
                }
                (None, false) => panic!(
                    "workload `{}` did not measure end-to-end metric `{}`",
                    run.workload, m.name
                ),
            };
            (m.clone(), value)
        })
        .collect();
    Outcome {
        metrics: values,
        unset,
        checks,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Prints every metric by name with its unit, quartiles and sample
/// count, then the result object as the last line.
fn print_outcome(run: &Run, outcome: &Outcome) {
    println!(
        "# workload {} seed {} seconds {} trace {} nproc {} wall {:.1} s",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        harness::nproc(),
        outcome.wall_s
    );
    for (m, s) in &outcome.metrics {
        println!(
            "{:<36} {:>16.6} {:<8} q1 {:<14.6} q3 {:<14.6} n {}",
            m.name, s.median, m.unit, s.q1, s.q3, s.n
        );
    }
    for failure in &outcome.checks.failures {
        println!("# FAILED: {failure}");
    }
    println!("{}", result_line(outcome).render());
}

fn result_line(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(m, s)| {
            (
                m.name.clone(),
                obj(vec![
                    ("value", Json::Num(s.median)),
                    ("unit", Json::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        (
            "attempted",
            Json::Num(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_run(workload: &str, trace: bool) -> Outcome {
        let dir = PathBuf::from(".bench_scratch").join(format!("test-{}", std::process::id()));
        let run = Run {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.2,
            trace,
            sizing: Sizing {
                rmat_scale: 9,
                road_width: 32,
                road_height: 8,
                min_source_degree: 4,
                source_pool: 8,
                drain_queries: 24,
                r_lo_qps: 2_000.0,
                r_hi_qps: 4_000.0,
                open_min_queries: 200,
                epoch_reps: 50,
            },
            trace_out: dir.join(format!("trace-{workload}.jsonl")),
            probe_args: None,
        };
        let outcome = run_workload(&run, &Spec::embedded());
        let _ = std::fs::remove_dir_all(&dir);
        // The parent too, once the faulted workload's `ScratchDir` has left.
        let _ = std::fs::remove_dir(".bench_scratch");
        outcome
    }

    /// Every metric `BENCHMARK.json` names is emitted by every
    /// workload (the result line is built from the spec's list), every
    /// end-to-end metric is non-zero everywhere, and every per-layer
    /// metric is measured by at least one workload. The converse —
    /// nothing is measured that the file does not name — is
    /// `Metrics::set` panicking on an unknown name.
    #[test]
    fn every_named_metric_is_measured_and_outputs_check_out() {
        let spec = Spec::embedded();
        let mut unset_everywhere: Option<Vec<String>> = None;
        for workload in &spec.workloads {
            let e2e = smoke_run(workload, false);
            assert_eq!(e2e.checks.failures, Vec::<String>::new(), "{workload}");
            assert!(e2e.checks.attempted > 0);
            let names: Vec<&str> = e2e.metrics.iter().map(|(m, _)| m.name.as_str()).collect();
            let want: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, want);
            for (m, s) in &e2e.metrics {
                assert!(s.median > 0.0, "{workload}: {} = {}", m.name, s.median);
            }

            let traced = smoke_run(workload, true);
            assert_eq!(traced.checks.failures, Vec::<String>::new(), "{workload}");
            assert_eq!(traced.metrics.len(), spec.per_layer.len());
            let unset = match unset_everywhere.take() {
                None => traced.unset.clone(),
                Some(so_far) => so_far
                    .into_iter()
                    .filter(|n| traced.unset.contains(n))
                    .collect(),
            };
            unset_everywhere = Some(unset);
            let line = json::parse(&result_line(&traced).render()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(
                line.get("metrics").unwrap().as_obj().unwrap().len(),
                spec.per_layer.len()
            );
        }
        assert_eq!(unset_everywhere, Some(Vec::new()));
    }

    #[test]
    fn flags_parse_and_reject() {
        let args: Vec<String> = ["--seed", "12"].iter().map(|s| s.to_string()).collect();
        let mut i = 0;
        assert_eq!(flag_value(&args, &mut i), Ok("12"));
        let mut i = 1;
        assert!(flag_value(&args, &mut i).is_err());
        assert_eq!(parse_num::<u64>("--seed", "12"), Ok(12));
        assert!(parse_num::<u64>("--seed", "x").is_err());
    }
}
