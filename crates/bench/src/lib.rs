//! Shared harness for the per-table / per-figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§7); this library holds the dataset cache, the
//! system runners and the plain-text table printer they share. Each
//! binary's module doc names the table or figure it regenerates.

#![forbid(unsafe_code)]

use simdx_algos::{bfs::Bfs, kcore::KCore, pagerank::PageRank, sssp::Sssp};
use simdx_baselines::cpu::{galois, ligra};
use simdx_baselines::cusha::{CushaConfig, CushaEngine};
use simdx_baselines::feasibility::{self, Algo, System};
use simdx_baselines::gunrock::{GunrockConfig, GunrockEngine};
use simdx_core::{EngineConfig, RunReport, Runtime};
use simdx_gpu::DeviceSpec;
use simdx_graph::datasets::{self, DatasetSpec};
use simdx_graph::{Graph, VertexId};

/// Fixed generation seed so every binary sees identical graphs.
pub const SEED: u64 = 3;

/// k for the Table 4 k-Core runs (§7.1 uses k = 32 there).
pub const TABLE4_K: u32 = 32;

/// Table 4 / Fig. 12 / Fig. 13 column order.
pub const GRAPH_ORDER: [&str; 11] = [
    "FB", "ER", "KR", "LJ", "OR", "PK", "RD", "RC", "RM", "UK", "TW",
];

/// Builds (and caches per call site) a dataset twin.
pub fn load(abbrev: &str) -> (&'static DatasetSpec, Graph) {
    let spec = datasets::dataset(abbrev).expect("known dataset");
    (spec, spec.build(SEED))
}

/// The per-run source vertex (highest out-degree, Gunrock-style).
pub fn source(g: &Graph) -> VertexId {
    datasets::default_source(g.out())
}

/// One-shot session run for the figure/table binaries: builds a
/// runtime, binds the graph and executes a single program. Binaries
/// that query one graph repeatedly should bind once instead.
pub fn run_one<P: simdx_core::AccProgram>(
    g: &Graph,
    cfg: EngineConfig,
    program: P,
) -> Result<simdx_core::RunResult<P::Meta>, simdx_core::SimdxError> {
    let runtime = Runtime::new(cfg)?;
    runtime.bind(g).run(program).execute()
}

/// One Table 4 cell: simulated milliseconds, or a blank reason.
pub type Cell = Result<f64, String>;

/// Runs `system` × `algo` on a twin, honoring the paper-scale
/// feasibility rules for the blank cells.
pub fn run_cell(system: System, algo: Algo, spec: &DatasetSpec, g: &Graph) -> Cell {
    if let Err(why) = feasibility::check(system, algo, spec, &DeviceSpec::k40()) {
        return Err(format!("{why:?}"));
    }
    let src = source(g);
    let ms = match system {
        System::SimdX => {
            let runtime = Runtime::new(EngineConfig::default()).map_err(|e| e.to_string())?;
            let bound = runtime.bind(g);
            let report = match algo {
                Algo::Bfs => bound.run(Bfs::new(src)).execute().map(|r| r.report),
                Algo::Sssp => bound.run(Sssp::new(src)).execute().map(|r| r.report),
                Algo::PageRank => bound.run(PageRank::new(g)).execute().map(|r| r.report),
                Algo::KCore => bound.run(KCore::new(TABLE4_K)).execute().map(|r| r.report),
            };
            report.map_err(|e| e.to_string())?.elapsed_ms
        }
        System::Gunrock => {
            let cfg = GunrockConfig::default();
            let report = match algo {
                Algo::Bfs => GunrockEngine::new(Bfs::new(src), g, cfg)
                    .run()
                    .map(|r| r.report),
                Algo::Sssp => GunrockEngine::new(Sssp::new(src), g, cfg)
                    .run()
                    .map(|r| r.report),
                Algo::PageRank => GunrockEngine::new(PageRank::new(g), g, cfg)
                    .run()
                    .map(|r| r.report),
                Algo::KCore => unreachable!("filtered by feasibility"),
            };
            report.map_err(|e| e.to_string())?.elapsed_ms
        }
        System::CuSha => {
            let cfg = CushaConfig::default();
            let report = match algo {
                Algo::Bfs => CushaEngine::new(Bfs::new(src), g, cfg)
                    .run()
                    .map(|r| r.report),
                Algo::Sssp => CushaEngine::new(Sssp::new(src), g, cfg)
                    .run()
                    .map(|r| r.report),
                Algo::PageRank => CushaEngine::new(PageRank::new(g), g, cfg)
                    .run()
                    .map(|r| r.report),
                Algo::KCore => unreachable!("filtered by feasibility"),
            };
            report.map_err(|e| e.to_string())?.elapsed_ms
        }
        System::Ligra => {
            let cfg = ligra::LigraConfig::default();
            let report: Result<RunReport, _> = match algo {
                Algo::Bfs => ligra::bfs(g, src, cfg).map(|r| r.report),
                Algo::Sssp => ligra::sssp(g, src, cfg).map(|r| r.report),
                Algo::PageRank => ligra::pagerank(g, 0.85, 1e-6, cfg).map(|r| r.report),
                Algo::KCore => ligra::kcore(g, TABLE4_K, cfg).map(|r| r.report),
            };
            report.map_err(|e| e.to_string())?.elapsed_ms
        }
        System::Galois => {
            let cfg = galois::GaloisConfig::default();
            let report: Result<RunReport, _> = match algo {
                Algo::Bfs => galois::bfs(g, src, cfg).map(|r| r.report),
                Algo::Sssp => galois::sssp(g, src, cfg).map(|r| r.report),
                Algo::PageRank => galois::pagerank(g, 0.85, 1e-6, cfg).map(|r| r.report),
                Algo::KCore => unreachable!("filtered by feasibility"),
            };
            report.map_err(|e| e.to_string())?.elapsed_ms
        }
    };
    Ok(ms)
}

/// Prints an aligned table: header row, then one row per entry.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    };
    print_row(header);
    for row in rows {
        print_row(row);
    }
}

/// Formats a cell as fixed-point ms or a dash for blanks.
pub fn fmt_cell(cell: &Cell) -> String {
    match cell {
        Ok(ms) => format!("{ms:.1}"),
        Err(_) => "-".to_string(),
    }
}

/// Geometric-mean speedup of `base` over `other` across paired cells,
/// skipping blanks.
pub fn geomean_speedup(base: &[Cell], other: &[Cell]) -> Option<f64> {
    let mut log_sum = 0.0f64;
    let mut n = 0u32;
    for (b, o) in base.iter().zip(other) {
        if let (Ok(b), Ok(o)) = (b, o) {
            if *b > 0.0 && *o > 0.0 {
                log_sum += (o / b).ln();
                n += 1;
            }
        }
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_ignores_blanks() {
        let base = vec![Ok(1.0), Ok(2.0), Err("oom".into())];
        let other = vec![Ok(4.0), Err("oom".into()), Ok(9.0)];
        let s = geomean_speedup(&base, &other).expect("one pair");
        assert!((s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn run_cell_respects_feasibility() {
        let (spec, g) = load("TW");
        let cell = run_cell(System::CuSha, Algo::Bfs, spec, &g);
        assert!(cell.is_err(), "TW should be blank for CuSha");
    }
}
