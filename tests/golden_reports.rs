//! Golden run reports: equality *across a refactor*, not just across
//! the configuration matrix.
//!
//! `tests/{frontier,parallel,session}_equivalence.rs` prove that every
//! exec mode agrees with the serial run of the *same build*. A change
//! to how the engine charges the simulator moves every cell together
//! and stays invisible to them.
//! This suite pins the simulated device's view — `ExecutorStats`
//! (cycles, launches, barrier passes, invocations, traffic), the
//! iteration count, the host edge meter and a digest of the
//! `ActivationLog` — of BFS / SSSP / PageRank / k-Core on two small
//! fixed graphs to the values the tree produced **before** the
//! streamed-charging refactor (recorded at commit `e085b9f`), across
//! {Serial, Parallel 2/3}. The WCC and 96-thread-CTA rows were recorded
//! at `18704a7`, before the engine's host-side charging and candidate
//! marking changed.
//!
//! A deliberate cost-model change re-records the table (print
//! `observe(..)` for each row); anything else that moves it is a bug.

use simdx::algos::{bfs, kcore, pagerank, sssp, wcc};
use simdx::core::prelude::*;
use simdx::core::FilterKind;
use simdx::graph::csr::Direction;
use simdx::graph::gen::{Rmat, Road};
use simdx::graph::{weights, EdgeList, Graph};
use std::time::Duration;

/// What the simulated device and the activation log saw of one run.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    iterations: u32,
    edges_examined: u64,
    total_cycles: u64,
    kernel_launches: u64,
    barrier_passes: u64,
    kernel_invocations: u64,
    /// Coalesced / random / write / atomic transactions.
    traffic: [u64; 4],
    /// FNV-1a over every field of every `IterationRecord`, in order.
    log_digest: u64,
}

fn observe<M>(r: &RunResult<M>) -> Golden {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for rec in &r.report.log.records {
        mix(u64::from(rec.iteration));
        mix(match rec.direction {
            Direction::Push => 0,
            Direction::Pull => 1,
        });
        mix(rec.frontier_len);
        mix(rec.degree_sum);
        mix(match rec.filter {
            FilterKind::Online => 0,
            FilterKind::Ballot => 1,
        });
        mix(u64::from(rec.overflowed));
        mix(rec.cycles);
    }
    let s = &r.report.stats;
    Golden {
        iterations: r.report.iterations,
        edges_examined: r.report.edges_examined,
        total_cycles: s.total_cycles,
        kernel_launches: s.kernel_launches,
        barrier_passes: s.barrier_passes,
        kernel_invocations: s.kernel_invocations,
        traffic: [
            s.traffic.coalesced_reads,
            s.traffic.random_reads,
            s.traffic.writes,
            s.traffic.atomics,
        ],
        log_digest: digest,
    }
}

/// Every retained configuration cell must reproduce `want` exactly.
fn assert_golden<M>(
    what: &str,
    want: &Golden,
    base: EngineConfig,
    run: impl Fn(EngineConfig) -> RunResult<M>,
) {
    for exec in [
        ExecMode::Serial,
        ExecMode::Parallel { threads: 2 },
        ExecMode::Parallel { threads: 3 },
    ] {
        let got = observe(&run(base.clone().with_exec(exec)));
        assert_eq!(
            &got,
            want,
            "{what}: {} left the recorded report",
            exec.label()
        );
    }
}

/// The R-MAT rows run with a 4-entry bin threshold so the JIT
/// controller overflows into the ballot filter on a graph this small:
/// the rows then cover push, vote pull, aggregation pull (mark sweep),
/// online concatenation and the ballot scan.
fn rmat_cfg() -> EngineConfig {
    EngineConfig::default().with_overflow_threshold(4)
}

/// A 96-thread CTA, a width that is not a power of two, so CTA tasks
/// take the general path of the cost model's cycle division and of the
/// online filter's bin-slot modulo. This graph's largest degree is 53,
/// so the worklist thresholds drop to 8 / 24 to make CTA tasks of its
/// hubs, and a 1-entry bin threshold makes the BFS source's 53 records
/// overflow unless each lands in a slot of its own. The bandwidth floor
/// hides a CTA kernel's makespan on a graph this small; `simdx_gpu`'s
/// cost tests pin the division itself.
fn rmat_cta96_cfg() -> EngineConfig {
    let mut cfg = EngineConfig {
        threads_per_cta: 96,
        ..EngineConfig::default().with_overflow_threshold(1)
    };
    cfg.thresholds.small_max = 8;
    cfg.thresholds.med_max = 24;
    cfg
}

fn rmat_edges() -> EdgeList {
    Rmat::gtgraph(11, 8).generate(5)
}

fn road_edges() -> EdgeList {
    Road::strip(64, 16).generate(5)
}

fn weighted(el: &EdgeList) -> Graph {
    Graph::directed_from_edges(weights::assign_default_weights(el, 9))
}

#[test]
fn bfs_reports_match_the_recorded_ones() {
    let g = Graph::directed_from_edges(rmat_edges());
    assert_golden("bfs/rmat", &BFS_RMAT, rmat_cfg(), |cfg| {
        bfs::run(&g, 0, cfg).expect("bfs")
    });
    assert_golden("bfs/rmat/cta96", &BFS_RMAT_CTA96, rmat_cta96_cfg(), |cfg| {
        bfs::run(&g, 0, cfg).expect("bfs")
    });
    let g = Graph::undirected_from_edges(road_edges());
    assert_golden("bfs/road", &BFS_ROAD, EngineConfig::default(), |cfg| {
        bfs::run(&g, 0, cfg).expect("bfs")
    });
}

/// Supervision is host-side only and *metered*: with every limit armed
/// the serial BFS rows still equal their goldens, an unarmed run never
/// polls, and the armed count is bounded by the run's own activation
/// log — a boundary and a mid-iteration check per iteration, plus one
/// poll per 256 tasks (`supervise::POLL_STRIDE`, rounded up) of each
/// of the three worklists. A poll per vertex or per edge breaks the
/// ceiling; no wall-clock percentage could say as much.
#[test]
fn armed_supervision_keeps_the_goldens_and_its_check_count_is_bounded() {
    let rows = [
        (
            "bfs/rmat",
            &BFS_RMAT,
            Graph::directed_from_edges(rmat_edges()),
            rmat_cfg(),
        ),
        (
            "bfs/road",
            &BFS_ROAD,
            Graph::undirected_from_edges(road_edges()),
            EngineConfig::default(),
        ),
    ];
    for (what, want, g, cfg) in rows {
        let runtime = Runtime::new(cfg).expect("runtime");
        let bound = runtime.bind(&g);
        let plain = bound.run(bfs::Bfs::new(0)).execute().expect("plain");
        assert_eq!(plain.report.supervision_checks, 0, "{what}: unarmed");
        let armed = bound
            .run(bfs::Bfs::new(0))
            .cancel_token(CancelToken::new())
            .deadline(Duration::from_secs(3600))
            .cycle_budget(u64::MAX)
            .execute()
            .expect("armed");
        assert_eq!(&observe(&armed), want, "{what}: armed run left the golden");
        assert_eq!(armed.meta, plain.meta, "{what}");
        let report = &armed.report;
        let ceiling: u64 = report
            .log
            .records
            .iter()
            .map(|r| 5 + r.frontier_len / 256)
            .sum();
        assert!(
            (2 * u64::from(report.iterations)..=ceiling).contains(&report.supervision_checks),
            "{what}: {} checks over {} iterations (ceiling {ceiling})",
            report.supervision_checks,
            report.iterations
        );
    }
}

#[test]
fn sssp_reports_match_the_recorded_ones() {
    let g = weighted(&rmat_edges());
    assert_golden("sssp/rmat", &SSSP_RMAT, rmat_cfg(), |cfg| {
        sssp::run(&g, 0, cfg).expect("sssp")
    });
    let g = weighted(&road_edges());
    assert_golden("sssp/road", &SSSP_ROAD, EngineConfig::default(), |cfg| {
        sssp::run(&g, 0, cfg).expect("sssp")
    });
}

/// The PageRank rows also cover both ways the serial engine finds
/// aggregation-pull candidates: a frontier whose out-degree volume
/// reaches `|V|` is marked bottom-up (an in-edge sweep over every
/// vertex), a thinner one top-down (an out-edge walk from the frontier).
/// The log's `degree_sum` is that volume, so the rows must hold pull
/// iterations on both sides of it.
#[test]
fn pagerank_reports_match_the_recorded_ones() {
    let mut dense = Vec::new();
    let mut log_density = |g: &Graph, cfg: EngineConfig| {
        let n = u64::from(g.num_vertices());
        let log = pagerank::run(g, cfg).expect("pagerank").report.log;
        let pulls = log
            .records
            .iter()
            .filter(|r| r.direction == Direction::Pull);
        dense.extend(pulls.map(|r| r.degree_sum >= n));
    };
    let g = Graph::directed_from_edges(rmat_edges());
    assert_golden("pagerank/rmat", &PAGERANK_RMAT, rmat_cfg(), |cfg| {
        pagerank::run(&g, cfg).expect("pagerank")
    });
    assert_golden(
        "pagerank/rmat/cta96",
        &PAGERANK_RMAT_CTA96,
        rmat_cta96_cfg(),
        |cfg| pagerank::run(&g, cfg).expect("pagerank"),
    );
    log_density(&g, rmat_cfg());
    let g = Graph::undirected_from_edges(road_edges());
    assert_golden(
        "pagerank/road",
        &PAGERANK_ROAD,
        EngineConfig::default(),
        |cfg| pagerank::run(&g, cfg).expect("pagerank"),
    );
    log_density(&g, EngineConfig::default());
    assert!(
        dense.contains(&true) && dense.contains(&false),
        "pull iterations by dense frontier: {dense:?}"
    );
}

/// WCC pulls with every vertex a candidate: the vote sweep classifies
/// all of `|V|` and each gather stops at its first smaller label.
#[test]
fn wcc_reports_match_the_recorded_ones() {
    let g = Graph::undirected_from_edges(rmat_edges());
    assert_golden("wcc/rmat", &WCC_RMAT, rmat_cfg(), |cfg| {
        wcc::run(&g, cfg).expect("wcc")
    });
    let g = Graph::undirected_from_edges(road_edges());
    assert_golden("wcc/road", &WCC_ROAD, EngineConfig::default(), |cfg| {
        wcc::run(&g, cfg).expect("wcc")
    });
}

#[test]
fn kcore_reports_match_the_recorded_ones() {
    let g = Graph::undirected_from_edges(rmat_edges());
    assert_golden("kcore/rmat", &KCORE_RMAT, rmat_cfg(), |cfg| {
        kcore::run(&g, 8, cfg).expect("kcore")
    });
    let g = Graph::undirected_from_edges(road_edges());
    assert_golden("kcore/road", &KCORE_ROAD, EngineConfig::default(), |cfg| {
        kcore::run(&g, 3, cfg).expect("kcore")
    });
}

// Recorded at commit e085b9f (serial/list cell; every other cell equalled it).
const BFS_RMAT: Golden = Golden {
    iterations: 7,
    edges_examined: 12_511,
    total_cycles: 136_018,
    kernel_launches: 3,
    barrier_passes: 14,
    kernel_invocations: 32,
    traffic: [4_329, 12_525, 5_103, 0],
    log_digest: 0xdd47af560be5cd8f,
};
const BFS_ROAD: Golden = Golden {
    iterations: 71,
    edges_examined: 3_714,
    total_cycles: 150_455,
    kernel_launches: 1,
    barrier_passes: 142,
    kernel_invocations: 284,
    traffic: [1_804, 4_737, 3_263, 0],
    log_digest: 0xd923e39390182912,
};
const SSSP_RMAT: Golden = Golden {
    iterations: 14,
    edges_examined: 42_343,
    total_cycles: 367_007,
    kernel_launches: 1,
    barrier_passes: 28,
    kernel_invocations: 56,
    traffic: [6_549, 42_541, 12_881, 0],
    log_digest: 0xbb5fdd9f69b1379b,
};
const SSSP_ROAD: Golden = Golden {
    iterations: 77,
    edges_examined: 5_501,
    total_cycles: 207_589,
    kernel_launches: 1,
    barrier_passes: 154,
    kernel_invocations: 308,
    traffic: [3_951, 8_556, 8_160, 0],
    log_digest: 0x83af4e524642b722,
};
const PAGERANK_RMAT: Golden = Golden {
    iterations: 18,
    edges_examined: 185_744,
    total_cycles: 1_991_590,
    kernel_launches: 1,
    barrier_passes: 36,
    kernel_invocations: 90,
    traffic: [36_025, 185_744, 138_754, 0],
    log_digest: 0xde9cd2a39c201d51,
};
const PAGERANK_ROAD: Golden = Golden {
    iterations: 21,
    edges_examined: 54_061,
    total_cycles: 779_854,
    kernel_launches: 1,
    barrier_passes: 42,
    kernel_invocations: 105,
    traffic: [28_180, 54_061, 69_235, 0],
    log_digest: 0xd61aaf35e3d163f9,
};
const KCORE_RMAT: Golden = Golden {
    iterations: 9,
    edges_examined: 47_875,
    total_cycles: 353_567,
    kernel_launches: 1,
    barrier_passes: 18,
    kernel_invocations: 36,
    traffic: [4_150, 47_875, 5_548, 0],
    log_digest: 0x9bd74487f27f267b,
};
const KCORE_ROAD: Golden = Golden {
    iterations: 73,
    edges_examined: 5_457,
    total_cycles: 171_837,
    kernel_launches: 1,
    barrier_passes: 146,
    kernel_invocations: 292,
    traffic: [2_253, 6_845, 4_386, 0],
    log_digest: 0x2706c07a06b8f36a,
};
// Recorded at commit 18704a7 (every cell equalled the serial one).
const BFS_RMAT_CTA96: Golden = Golden {
    iterations: 7,
    edges_examined: 12_511,
    total_cycles: 138_307,
    kernel_launches: 3,
    barrier_passes: 14,
    kernel_invocations: 32,
    traffic: [4_439, 12_525, 5_095, 0],
    log_digest: 0x6af4419c473362f3,
};
const PAGERANK_RMAT_CTA96: Golden = Golden {
    iterations: 18,
    edges_examined: 185_744,
    total_cycles: 2_008_069,
    kernel_launches: 1,
    barrier_passes: 36,
    kernel_invocations: 90,
    traffic: [36_822, 185_744, 138_674, 0],
    log_digest: 0xfb9cb214e2d250bb,
};
const WCC_RMAT: Golden = Golden {
    iterations: 8,
    edges_examined: 102_497,
    total_cycles: 738_543,
    kernel_launches: 2,
    barrier_passes: 16,
    kernel_invocations: 38,
    traffic: [14_024, 102_571, 15_245, 0],
    log_digest: 0x4283a952e2ffd33b,
};
const WCC_ROAD: Golden = Golden {
    iterations: 76,
    edges_examined: 152_637,
    total_cycles: 1_619_311,
    kernel_launches: 2,
    barrier_passes: 152,
    kernel_invocations: 373,
    traffic: [75_060, 152_804, 88_968, 0],
    log_digest: 0x1c9fe0a9e83165f1,
};
