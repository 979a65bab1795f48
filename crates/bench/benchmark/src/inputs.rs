//! Seeded input generation. `--seed` derives the graph-generator seed,
//! the weight seed, the query sources and the arrival schedule; the
//! program under test only ever sees the generated inputs.

use std::time::{Duration, Instant};

use simdx_graph::gen::{Rmat, Road};
use simdx_graph::weights::assign_default_weights;
use simdx_graph::{EdgeList, Graph, VertexId};

use crate::spec::{Sizing, RMAT_EDGE_FACTOR};

/// SplitMix64: tiny, seedable, and the same stream on every platform.
/// (`simdx_bench` does not depend on the workspace's `rand` stub.)
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of the run's `--seed`: the graph, the sources
    /// and the schedule each draw from their own stream, so resizing
    /// one never shifts the others.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

const STREAM_GRAPH: u64 = 1;
const STREAM_WEIGHTS: u64 = 2;
const STREAM_SOURCES: u64 = 3;
const STREAM_QUERIES: u64 = 4;
const STREAM_SCHEDULE: u64 = 5;

/// One orientation/weighting of a workload's edge list.
#[derive(Clone)]
pub struct Twin {
    pub edges: EdgeList,
    pub directed: bool,
}

impl Twin {
    /// `Graph::*_from_edges` on a copy of the edge list. The copy is the
    /// caller's load generation; time [`Self::build_from`] instead when
    /// the build is what is measured.
    pub fn build(&self) -> Graph {
        Self::build_from(self.edges.clone(), self.directed)
    }

    pub fn build_from(edges: EdgeList, directed: bool) -> Graph {
        if directed {
            Graph::directed_from_edges(edges)
        } else {
            Graph::undirected_from_edges(edges)
        }
    }
}

/// Copies of the twins' edge lists, for [`build_twins`] to consume. The
/// copy is load generation: make it before the clock starts.
pub fn copy_edges(twins: &[&Twin]) -> Vec<EdgeList> {
    twins.iter().map(|t| t.edges.clone()).collect()
}

/// `Graph::*_from_edges` on every twin, consuming `copies`.
pub fn build_twins(twins: &[&Twin], copies: Vec<EdgeList>) -> Vec<Graph> {
    copies
        .into_iter()
        .zip(twins)
        .map(|(edges, twin)| Twin::build_from(edges, twin.directed))
        .collect()
}

/// The edge lists of one workload, generated once per run.
pub struct EdgeInputs {
    /// The graph BFS runs on (and the only one the serving workloads
    /// build).
    pub primary: Twin,
    /// Weighted twin for SSSP; `None` for the serving workloads, which
    /// run BFS only.
    pub weighted: Option<Twin>,
    /// Undirected twin for k-Core and WCC; `None` when `primary` is
    /// already undirected.
    pub undirected: Option<Twin>,
    /// Wall time of the generator calls (load generation, excluded
    /// from `setup_s`).
    pub gen_s: f64,
}

/// The R-MAT edge list, directed, with its weighted and undirected
/// twins when `with_twins` (the analytics suite); the serving workloads
/// hold the primary list only, so their memory is not the harness's.
pub fn rmat_inputs(seed: u64, sizing: &Sizing, with_twins: bool) -> EdgeInputs {
    let start = Instant::now();
    let graph_seed = Rng::stream(seed, STREAM_GRAPH).next_u64();
    let weight_seed = Rng::stream(seed, STREAM_WEIGHTS).next_u64();
    let edges = Rmat::gtgraph(sizing.rmat_scale, RMAT_EDGE_FACTOR).generate(graph_seed);
    EdgeInputs {
        weighted: with_twins.then(|| Twin {
            edges: assign_default_weights(&edges, weight_seed),
            directed: true,
        }),
        undirected: with_twins.then(|| Twin {
            edges: edges.clone(),
            directed: false,
        }),
        primary: Twin {
            edges,
            directed: true,
        },
        gen_s: start.elapsed().as_secs_f64(),
    }
}

pub fn road_inputs(seed: u64, sizing: &Sizing) -> EdgeInputs {
    let start = Instant::now();
    let graph_seed = Rng::stream(seed, STREAM_GRAPH).next_u64();
    let weight_seed = Rng::stream(seed, STREAM_WEIGHTS).next_u64();
    let edges = Road::strip(sizing.road_width, sizing.road_height).generate(graph_seed);
    let weighted = assign_default_weights(&edges, weight_seed);
    EdgeInputs {
        primary: Twin {
            edges,
            directed: false,
        },
        weighted: Some(Twin {
            edges: weighted,
            directed: false,
        }),
        undirected: None,
        gen_s: start.elapsed().as_secs_f64(),
    }
}

/// `count` distinct query sources with out-degree at least
/// `min_degree`, drawn with the run's seed. The degree floor keeps
/// every source inside the graph's large component, so two seeds give
/// query sets of like cost (an isolated R-MAT vertex answers in one
/// iteration).
pub fn pick_sources(graph: &Graph, seed: u64, count: usize, min_degree: u32) -> Vec<VertexId> {
    let out = graph.out();
    let mut candidates: Vec<VertexId> = (0..graph.num_vertices())
        .filter(|&v| out.degree(v) >= min_degree)
        .collect();
    assert!(
        candidates.len() >= count,
        "graph has {} vertices of degree >= {min_degree}, need {count}",
        candidates.len()
    );
    let mut rng = Rng::stream(seed, STREAM_SOURCES);
    for i in 0..count {
        let j = i + rng.below(candidates.len() - i);
        candidates.swap(i, j);
    }
    candidates.truncate(count);
    candidates
}

/// `n` query sources drawn uniformly (with repeats) from `pool`.
pub fn draw_queries(pool: &[VertexId], seed: u64, phase: u64, n: usize) -> Vec<VertexId> {
    let mut rng = Rng::stream(seed, STREAM_QUERIES.wrapping_add(phase << 8));
    (0..n).map(|_| pool[rng.below(pool.len())]).collect()
}

/// Due times of an open-loop arrival process: `n` offsets from the
/// phase start with exponential inter-arrival gaps of mean
/// `1 / rate_qps` (independent users).
pub fn arrival_offsets(seed: u64, phase: u64, rate_qps: f64, n: usize) -> Vec<Duration> {
    let mut rng = Rng::stream(seed, STREAM_SCHEDULE.wrapping_add(phase << 8));
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -rng.unit().ln() / rate_qps;
            Duration::from_secs_f64(at)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_sources_queries_and_due_times() {
        let sizing = Sizing::smoke();
        let graph = rmat_inputs(9, &sizing, false).primary.build();
        let again = rmat_inputs(9, &sizing, false).primary.build();
        assert_eq!(graph, again);
        let pool = pick_sources(&graph, 9, 16, 4);
        assert_eq!(pool, pick_sources(&again, 9, 16, 4));
        assert_eq!(draw_queries(&pool, 9, 1, 50), draw_queries(&pool, 9, 1, 50));
        assert_eq!(
            arrival_offsets(9, 1, 60.0, 100),
            arrival_offsets(9, 1, 60.0, 100)
        );
        // Another seed, another phase: other inputs.
        assert_ne!(pool, pick_sources(&graph, 10, 16, 4));
        assert_ne!(draw_queries(&pool, 9, 1, 50), draw_queries(&pool, 9, 2, 50));
        assert_ne!(
            arrival_offsets(9, 1, 60.0, 100),
            arrival_offsets(10, 1, 60.0, 100)
        );
    }

    #[test]
    fn sources_are_distinct_and_meet_the_degree_floor() {
        let graph = rmat_inputs(3, &Sizing::smoke(), false).primary.build();
        let pool = pick_sources(&graph, 3, 32, 8);
        let mut unique = pool.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 32);
        assert!(pool.iter().all(|&v| graph.out().degree(v) >= 8));
    }

    #[test]
    fn arrival_schedule_is_increasing_with_the_asked_mean_rate() {
        let due = arrival_offsets(1, 0, 50.0, 4000);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        let mean_gap = due.last().unwrap().as_secs_f64() / due.len() as f64;
        assert!((mean_gap - 0.02).abs() < 0.002, "mean gap {mean_gap}");
    }
}
