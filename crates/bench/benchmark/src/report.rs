//! `benchmark run`: every workload, each in child processes of its own,
//! untraced once per seed and traced once; prints every metric by name
//! with its unit and writes the lot as one JSON file for
//! `benchmark compare`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::harness::{nproc, serving_threads, Mode};
use crate::json::{self, obj, Json};
use crate::spec::Spec;
use crate::stats::{quartiles, spread};
use crate::{flag_value, parse_num, refuse_simdx_env};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    runs: usize,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        runs: 1,
        smoke: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => parsed.workload = Some(flag_value(args, &mut i)?.to_string()),
            "--seed" => parsed.seed = parse_num("--seed", flag_value(args, &mut i)?)?,
            "--seconds" => {
                parsed.seconds = Some(parse_num("--seconds", flag_value(args, &mut i)?)?);
            }
            "--runs" => parsed.runs = parse_num("--runs", flag_value(args, &mut i)?)?,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(flag_value(args, &mut i)?)),
            other => return Err(format!("run: unknown argument `{other}`")),
        }
        i += 1;
    }
    if parsed.runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    Ok(parsed)
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run (the driver's checkout is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One child run's parsed result line.
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` in the child's order.
    metrics: Vec<(String, f64, String)>,
    wall_s: f64,
    /// The child's full standard output (its per-metric table).
    text: String,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    let start = Instant::now();
    // `output` waits for the child to end and collects its pipes.
    let out = command
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: the child printed nothing ({})", out.status))?;
    let result = json::parse(line).map_err(|e| {
        format!(
            "{workload}: the child's last line is not a result ({e}; {}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no `metrics` object")?
        .iter()
        .map(|(name, m)| {
            Ok((
                name.clone(),
                m.num_field("value")?,
                m.str_field("unit")?.to_string(),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Child {
        correct: result.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: result.num_field("attempted")?,
        failed: result.num_field("failed")?,
        metrics,
        wall_s,
        text,
    })
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    refuse_simdx_env()?;
    let args = parse_args(args)?;
    let spec = Spec::embedded();
    let workloads: Vec<String> = match &args.workload {
        Some(w) if spec.workloads.contains(w) => vec![w.clone()],
        Some(w) => return Err(format!("unknown workload `{w}`")),
        None => spec.workloads.clone(),
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.3 } else { spec.run_seconds });

    let env = obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        (
            "serving_threads",
            obj(vec![
                ("bounded_metrics", Json::Num(1.0)),
                (
                    "capacity_serial",
                    Json::Num(serving_threads(Mode::Serial, 0) as f64),
                ),
                (
                    "capacity_par2",
                    Json::Num(serving_threads(Mode::Par2, 0) as f64),
                ),
                (
                    "open_loop",
                    Json::Num(serving_threads(Mode::Serial, 1) as f64),
                ),
            ]),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_head",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
    ]);
    println!("# env {}", env.render());

    let mut all_correct = true;
    let mut rows = Vec::new();
    for workload in &workloads {
        let mut untraced = Vec::new();
        for r in 0..args.runs {
            let child = run_child(workload, args.seed + r as u64, seconds, false, args.smoke)?;
            if args.runs == 1 {
                print!("{}", child.text);
            }
            untraced.push(child);
        }
        let traced = run_child(workload, args.seed, seconds, true, args.smoke)?;
        print!("{}", traced.text);

        println!(
            "# {workload}: {} untraced run(s), seeds {}..={}",
            args.runs,
            args.seed,
            args.seed + args.runs as u64 - 1
        );
        let mut end_to_end = Vec::new();
        for m in &spec.end_to_end {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|c| c.metrics.iter().find(|(n, _, _)| *n == m.name))
                .map(|(_, v, _)| *v)
                .collect();
            if let (Some((q1, med, q3)), Some(sp)) = (quartiles(&values), spread(&values)) {
                let bound = m.bound.unwrap_or(0.0);
                println!(
                    "{:<26} median {:>14.6} {:<5} q1 {:<12.6} q3 {:<12.6} spread {:>5.1} % of bound {:>4.0} % {}",
                    m.name,
                    med,
                    m.unit,
                    q1,
                    q3,
                    sp * 100.0,
                    bound * 100.0,
                    if sp > bound {
                        "UNSTEADY"
                    } else if sp > bound / 3.0 {
                        "(over a third of the bound)"
                    } else {
                        ""
                    }
                );
            }
            end_to_end.push((
                m.name.as_str(),
                obj(vec![
                    ("unit", Json::Str(m.unit.clone())),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let per_layer = traced
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.as_str(),
                    obj(vec![
                        ("unit", Json::Str(unit.clone())),
                        ("value", Json::Num(*value)),
                    ]),
                )
            })
            .collect();
        let children = || untraced.iter().chain(std::iter::once(&traced));
        let attempted: f64 = children().map(|c| c.attempted).sum();
        let failed: f64 = children().map(|c| c.failed).sum();
        all_correct &= children().all(|c| c.correct);
        let wall: Vec<Json> = children().map(|c| Json::Num(c.wall_s)).collect();
        println!(
            "# {workload}: ops_attempted {attempted} ops_failed {failed} wall {:.1} s",
            children().map(|c| c.wall_s).sum::<f64>()
        );
        rows.push(obj(vec![
            ("name", Json::Str(workload.clone())),
            ("ops_attempted", Json::Num(attempted)),
            ("ops_failed", Json::Num(failed)),
            ("wall_s", Json::Arr(wall)),
            ("end_to_end", obj(end_to_end)),
            ("per_layer", obj(per_layer)),
        ]));
    }

    if let Some(path) = &args.out {
        let doc = obj(vec![("env", env), ("workloads", Json::Arr(rows))]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
