//! `benchmark compare A.json B.json`: the regression gate. Applies each
//! end-to-end metric's bound from `BENCHMARK.json` per (metric,
//! workload) row of two `benchmark run --out` files, A the parent and
//! B the change. Exits non-zero on a regression, on a higher share of
//! failed operations, or on a workload of A that B lacks.

use std::process::ExitCode;

use crate::json::{self, Json};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// Worse than the parent by more than the bound.
    Regression,
    /// The run-to-run spread exceeds the bound: neither "unchanged" nor
    /// "regressed" can be claimed.
    Unresolved,
    /// Spread wider than the bound, but every run of the change reads
    /// better than every run of the parent.
    Better,
}

/// Judges one (metric, workload) row from the two sides' per-run
/// values.
pub fn judge(m: &MetricSpec, parent: &[f64], change: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(f64::INFINITY);
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
    let (a, b) = (med(parent), med(change));
    let worse_by = if m.lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    };
    // A single run per side has no spread to hold against the bound.
    let widest = spread(parent)
        .unwrap_or(0.0)
        .max(spread(change).unwrap_or(0.0));
    if widest > bound {
        let all_better = parent.iter().all(|&p| {
            change
                .iter()
                .all(|&c| if m.lower_is_better { c < p } else { c > p })
        });
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    // NaN (a missing side) must not pass as "within the bound".
    if worse_by <= bound {
        Verdict::Ok
    } else {
        Verdict::Regression
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn values(w: &Json, metric: &str) -> Vec<f64> {
    w.get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn describe(values: &[f64]) -> String {
    match (quartiles(values), values) {
        (Some((q1, med, q3)), _) => format!("{med:.6} [{q1:.6}, {q3:.6}]"),
        (None, [one]) => format!("{one:.6}"),
        _ => "missing".to_string(),
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: benchmark compare A.json B.json".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("# A (parent) = {a_path}, B (change) = {b_path}; ratios are B / A");
    let failed_rows = failed_rows(&a, &b, &Spec::embedded());
    if failed_rows.is_empty() {
        println!("# no regression");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("# REGRESSION: {}", failed_rows.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

/// Prints every row of the comparison and returns the ones that fail
/// the gate, as `workload/metric`.
fn failed_rows(a: &Json, b: &Json, spec: &Spec) -> Vec<String> {
    let mut failed_rows = Vec::new();
    for name in &spec.workloads {
        let (wa, wb) = match (workload(a, name), workload(b, name)) {
            (Some(wa), Some(wb)) => (wa, wb),
            // The gate fails closed: a workload the parent measured and
            // the change did not was never compared.
            (Some(_), None) => {
                println!("== {name}: MISSING from B");
                failed_rows.push(format!("{name}/missing"));
                continue;
            }
            (None, Some(_)) => {
                println!("== {name}: not in A, nothing to compare");
                continue;
            }
            (None, None) => continue,
        };
        println!("== {name}");
        for m in &spec.end_to_end {
            let (va, vb) = (values(wa, &m.name), values(wb, &m.name));
            let verdict = judge(m, &va, &vb);
            let ratio = crate::stats::median(&vb).unwrap_or(f64::NAN)
                / crate::stats::median(&va).unwrap_or(f64::NAN);
            println!(
                "{:<24} {:<5} A {:<38} B {:<38} B/A {:>6.3} bound {:>4.0} % {}",
                m.name,
                m.unit,
                describe(&va),
                describe(&vb),
                ratio,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                    Verdict::Better => "better (every run of B beats every run of A)",
                }
            );
            if verdict == Verdict::Regression {
                failed_rows.push(format!("{name}/{}", m.name));
            }
        }
        // A higher share of failed operations fails the gate whatever
        // the timings say.
        let share = |w: &Json| -> f64 {
            let attempted = w.num_field("ops_attempted").unwrap_or(0.0);
            w.num_field("ops_failed").unwrap_or(0.0) / attempted.max(1.0)
        };
        println!(
            "ops_failed / ops_attempted   A {:.4}  B {:.4}",
            share(wa),
            share(wb)
        );
        if share(wb) > share(wa) {
            failed_rows.push(format!("{name}/ops_failed"));
        }
        // Layer metrics carry no bound: shown for the explanation.
        if let (Some(la), Some(lb)) = (
            wa.get("per_layer").and_then(Json::as_obj),
            wb.get("per_layer").and_then(Json::as_obj),
        ) {
            for (metric, ma) in la {
                let Some((_, mb)) = lb.iter().find(|(k, _)| k == metric) else {
                    continue;
                };
                let (x, y) = (
                    ma.num_field("value").unwrap_or(f64::NAN),
                    mb.num_field("value").unwrap_or(f64::NAN),
                );
                if x == 0.0 && y == 0.0 {
                    continue;
                }
                println!(
                    "  {:<36} {:<6} A {:>16.6} B {:>16.6} B/A {:>6.3}",
                    metric,
                    ma.str_field("unit").unwrap_or(""),
                    x,
                    y,
                    y / x
                );
            }
        }
    }
    failed_rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "s".to_string(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn bound_applies_in_the_metric_s_direction() {
        let lower = metric(true, 0.1);
        let tight = [1.00, 1.01, 0.99, 1.0, 1.0];
        assert_eq!(judge(&lower, &tight, &[1.05; 5]), Verdict::Ok);
        assert_eq!(judge(&lower, &tight, &[1.2; 5]), Verdict::Regression);
        assert_eq!(judge(&lower, &tight, &[0.5; 5]), Verdict::Ok);
        let higher = metric(false, 0.1);
        assert_eq!(judge(&higher, &tight, &[0.8; 5]), Verdict::Regression);
        assert_eq!(judge(&higher, &tight, &[1.5; 5]), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let m = metric(true, 0.1);
        let noisy = [1.0, 1.5, 0.7, 1.3, 0.9];
        assert_eq!(judge(&m, &noisy, &[1.0; 5]), Verdict::Unresolved);
        assert_eq!(
            judge(&m, &noisy, &[2.0, 2.1, 1.9, 2.0, 2.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(&m, &noisy, &[0.5; 5]), Verdict::Better);
    }

    #[test]
    fn single_runs_compare_directly_and_a_missing_side_fails() {
        let m = metric(true, 0.1);
        assert_eq!(judge(&m, &[1.0], &[1.05]), Verdict::Ok);
        assert_eq!(judge(&m, &[1.0], &[1.5]), Verdict::Regression);
        assert_eq!(judge(&m, &[1.0], &[]), Verdict::Regression);
    }

    #[test]
    fn a_workload_missing_from_the_change_fails_the_gate() {
        let spec = Spec::embedded();
        let row = |name: &str| {
            let metrics: Vec<String> = spec
                .end_to_end
                .iter()
                .map(|m| format!(r#""{}": {{"values": [1.0, 1.0]}}"#, m.name))
                .collect();
            format!(
                r#"{{"name": "{name}", "ops_attempted": 4, "ops_failed": 0, "end_to_end": {{{}}}}}"#,
                metrics.join(", ")
            )
        };
        let doc = |names: &[String]| {
            let rows: Vec<String> = names.iter().map(|n| row(n)).collect();
            json::parse(&format!(r#"{{"workloads": [{}]}}"#, rows.join(", "))).unwrap()
        };
        let (all, one) = (doc(&spec.workloads), doc(&spec.workloads[..1]));
        assert_eq!(failed_rows(&all, &all, &spec), Vec::<String>::new());
        // B from `run --workload X`: the other workloads were never
        // compared, so they fail; a workload only B has does not.
        let missing: Vec<String> = spec.workloads[1..]
            .iter()
            .map(|w| format!("{w}/missing"))
            .collect();
        assert_eq!(failed_rows(&all, &one, &spec), missing);
        assert_eq!(failed_rows(&one, &all, &spec), Vec::<String>::new());
    }
}
