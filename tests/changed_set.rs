//! The changed set's density rule, straddled.
//!
//! The engine publishes `metadata_prev` by list walk and ballot-scans
//! through the occupancy words while an iteration changed fewer than
//! `|V| / 64` vertices, and switches to the word sweep and the dense
//! scan from there on (`crates/core/README.md`, "The changed set").
//! Nothing outside `frontier.rs` can select a strategy, so these tests
//! reach both sides through their inputs: star graphs whose push
//! iterations change exactly one vertex fewer than, exactly, and one
//! more than the threshold — and they must not be able to tell.

use simdx::algos::{bfs, reference};
use simdx::core::prelude::*;
use simdx::core::FilterKind;
use simdx::graph::{EdgeList, Graph};

/// A directed two-level star on `n` vertices: hub 0 points at leaves
/// `1..=leaves`, leaf `i` at its own child `leaves + i`, the rest are
/// isolated. BFS from the hub changes exactly `leaves` vertices in its
/// first iteration (one wide task) and in its second (`leaves` unit
/// tasks), and a child is only found if its leaf was published.
fn star(n: u32, leaves: u32) -> Graph {
    let mut el = EdgeList::new(n);
    for leaf in 1..=leaves {
        el.push(0, leaf);
        el.push(leaf, leaves + leaf);
    }
    Graph::directed_from_edges(el)
}

/// Serial and three-worker runs of one policy must agree bit for bit,
/// and both with the sequential reference.
fn assert_cells_agree(what: &str, g: &Graph, cfg: EngineConfig) -> RunResult<u32> {
    let serial = bfs::run(g, 0, cfg.clone()).expect("serial bfs");
    let par = bfs::run(g, 0, cfg.parallel(3)).expect("parallel bfs");
    assert_eq!(serial.meta, reference::bfs(g.out(), 0), "{what}: reference");
    assert_eq!(par.meta, serial.meta, "{what}: metadata");
    assert_eq!(par.report.log, serial.report.log, "{what}: activation log");
    assert_eq!(
        par.report.stats, serial.report.stats,
        "{what}: executor stats"
    );
    serial
}

#[test]
fn push_iterations_on_either_side_of_the_threshold() {
    // 2560 is a multiple of 64, 2597 is not (and not of 32 either);
    // both have |V| / 64 == 40.
    for n in [2560u32, 2597] {
        let threshold = n / 64;
        for leaves in [threshold - 1, threshold, threshold + 1] {
            let g = star(n, leaves);
            for policy in [FilterPolicy::Jit, FilterPolicy::BallotOnly] {
                let what = format!("n={n} leaves={leaves} {policy:?}");
                // Pinned to push: on so few edges the adaptive
                // heuristic would pull, and change the task shapes.
                let cfg = EngineConfig::unscaled()
                    .with_filter(policy)
                    .with_direction(DirectionPolicy::FixedPush);
                let r = assert_cells_agree(&what, &g, cfg);
                // Iterations 0 and 1 discover the two levels, iteration
                // 2 finds the children's empty adjacencies.
                let log = &r.report.log.records;
                assert_eq!(log.len(), 3, "{what}");
                assert_eq!(log[1].frontier_len, u64::from(leaves), "{what}");
                assert_eq!(log[2].frontier_len, u64::from(leaves), "{what}");
                let want = match policy {
                    FilterPolicy::BallotOnly => FilterKind::Ballot,
                    _ => FilterKind::Online,
                };
                assert!(log.iter().all(|rec| rec.filter == want), "{what}");
            }
        }
    }
}

#[test]
fn hub_overflow_replays_identically() {
    // One CTA task activates 10 000 leaves at once, far over its lanes'
    // bin thresholds (the Twitter hub effect of §4): the overflow flag
    // must replay identically in parallel, and the JIT switch to the
    // ballot scan — on a dense iteration — must regenerate the full
    // frontier.
    let g = star(20_001, 10_000);
    let cfg = EngineConfig::unscaled().with_direction(DirectionPolicy::FixedPush);
    let r = assert_cells_agree("hub", &g, cfg);
    let first = &r.report.log.records[0];
    assert!(first.overflowed);
    assert_eq!(first.filter, FilterKind::Ballot);
    assert_eq!(r.report.log.records[1].frontier_len, 10_000);
}
