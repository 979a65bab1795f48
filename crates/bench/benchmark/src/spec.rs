//! What the benchmark measures and at what size. The metric and
//! workload lists are read from the repository's `BENCHMARK.json`,
//! compiled in, so that file is the only place a name, unit, direction
//! or bound is written down; the sizing constants live here because
//! `BENCHMARK.json`'s keys are fixed by the benchmark contract.

use crate::json::{self, Json};

/// The repository's `BENCHMARK.json` (four levels up from this
/// file), compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

pub const RMAT17_ANALYTICS: &str = "rmat17_analytics";
pub const ROAD_TRAVERSAL: &str = "road_traversal";
pub const SERVE_OPEN: &str = "serve_open";
pub const SERVE_FAULTED: &str = "serve_faulted";

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`. Panics if it is malformed: the
    /// file ships with this source and a unit test parses it.
    pub fn embedded() -> Self {
        Self::from_json(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json is well formed")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let workloads = root
            .arr_field("workloads")?
            .iter()
            .map(|w| w.str_field("name").map(str::to_string))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            root.arr_field(key)?
                .iter()
                .map(|m| metric(m, bounded))
                .collect()
        };
        Ok(Self {
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
            run_seconds: root.num_field("run_seconds")?,
        })
    }

    /// The metrics a run in the given trace mode reports: every
    /// end-to-end metric untraced, every per-layer metric traced.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn metric(m: &Json, bounded: bool) -> Result<MetricSpec, String> {
    let name = m.str_field("name")?.to_string();
    let lower_is_better = match m.str_field("better")? {
        "lower" => true,
        "higher" => false,
        other => return Err(format!("metric `{name}`: better = `{other}`")),
    };
    Ok(MetricSpec {
        unit: m.str_field("unit")?.to_string(),
        lower_is_better,
        bound: if bounded {
            Some(m.num_field("bound")?)
        } else {
            None
        },
        name,
    })
}

// Every size the workloads depend on is one of these constants or a
// `Sizing` field. Changing one changes what the numbers mean, so a
// change here is a benchmark change: its own PR, no gain claimed,
// baseline measured again.

/// `Rmat::gtgraph(rmat_scale, RMAT_EDGE_FACTOR)`.
pub const RMAT_EDGE_FACTOR: u32 = 8;
/// BFS sources in the analytics suite (beside SSSP, PageRank, k-Core
/// and WCC).
pub const ANALYTICS_BFS: usize = 4;
/// BFS sources in the road suite. Eight, not more: one `par2` pass over
/// them takes ~0.7 s, and the traced run needs ten.
pub const ROAD_BFS: usize = 8;
pub const KCORE_K: u32 = 8;
/// Queries per faulted round (`solve_serial_s` on `serve_faulted`);
/// every other one is starved.
pub const FAULTED_QUERIES: usize = 40;
/// `RetryPolicy` of the faulted workload.
pub const RETRY_ATTEMPTS: u32 = 2;
pub const RETRY_BACKOFF_MS: u64 = 1;

/// The sizes `--smoke` and the unit tests shrink.
#[derive(Clone, Debug)]
pub struct Sizing {
    /// `Rmat::gtgraph(rmat_scale, RMAT_EDGE_FACTOR)`.
    pub rmat_scale: u32,
    /// `Road::strip(road_width, road_height)`.
    pub road_width: u32,
    pub road_height: u32,
    /// Distinct sources the serving workloads draw their queries from;
    /// each one's solo answer is computed once for output checking.
    pub source_pool: usize,
    /// Out-degree floor for a query source (see `inputs::pick_sources`).
    pub min_source_degree: u32,
    /// Queries per closed-loop pass (`solve_serial_s` on `serve_open`).
    pub drain_queries: usize,
    /// Open-loop arrival rates, queries per second. Constants, never
    /// derived from a capacity probe at run time, so parent and change
    /// see the same load. On the 2-CPU reference container one serving
    /// thread sustains ~95 q/s of R-MAT-17 BFS: 30 and 60 are ~30 % and
    /// ~63 % of that.
    pub r_lo_qps: f64,
    pub r_hi_qps: f64,
    /// Fewest queries one of the traced run's open-loop phases sends:
    /// 200 leaves the ten samples beyond rank that a p95 needs.
    pub open_min_queries: usize,
    /// Repetitions of the empty `WorkerPool::run` epoch.
    pub epoch_reps: usize,
}

impl Sizing {
    pub fn full() -> Self {
        Self {
            rmat_scale: 17,
            road_width: 512,
            road_height: 64,
            source_pool: 32,
            min_source_degree: 8,
            drain_queries: 48,
            r_lo_qps: 30.0,
            r_hi_qps: 60.0,
            open_min_queries: 200,
            epoch_reps: 10_000,
        }
    }

    /// `--smoke`: the same code paths at a size that finishes all four
    /// workloads in seconds. A BFS takes ~0.3 ms here, so the arrival
    /// rates rise with it to keep the open-loop phases short; smoke
    /// numbers are for checking the harness, never for comparison.
    pub fn smoke() -> Self {
        Self {
            rmat_scale: 12,
            road_width: 64,
            road_height: 16,
            r_lo_qps: 300.0,
            r_hi_qps: 600.0,
            epoch_reps: 1_000,
            ..Self::full()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_benchmark_json_meets_the_contract_limits() {
        let spec = Spec::embedded();
        assert_eq!(
            spec.workloads,
            [RMAT17_ANALYTICS, ROAD_TRAVERSAL, SERVE_OPEN, SERVE_FAULTED]
        );
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);

        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert!(setup.lower_is_better && setup.unit == "s");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );

        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name), "name {}", m.name);
            assert!(unit_ok(&m.unit), "unit {} of {}", m.unit, m.name);
            names.push(&m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");

        let root = json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = root
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for w in root.arr_field("workloads").unwrap() {
            let why = w.str_field("why").unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        assert!(Spec::from_json("{}").is_err());
        assert!(Spec::from_json(
            r#"{"workloads": [], "run_seconds": 1, "per_layer": [],
                "end_to_end": [{"name": "x", "unit": "s", "better": "sideways", "bound": 0.1}]}"#
        )
        .is_err());
    }
}
