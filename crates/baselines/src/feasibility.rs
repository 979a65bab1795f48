//! Paper-scale feasibility rules — the mechanics behind Table 4's
//! blank cells.
//!
//! The dataset twins are small enough that nothing OOMs at twin scale,
//! so feasibility is evaluated against the *paper-scale* sizes recorded
//! in each [`DatasetSpec`] (Table 3) and the target device's on-board
//! memory, exactly as the paper reasons:
//!
//! * CuSha "requires edge list as the input for computation, it cannot
//!   accommodate large graphs" (§7.1) — G-Shards store roughly
//!   20 bytes/edge (source value, source, destination, weight plus
//!   window bookkeeping);
//! * Gunrock's SSSP "suffers out of memory (OOM) error for all larger
//!   graphs" (§7.1) — the batch filter needs a worst-case `2·|E|`
//!   frontier on top of the weighted CSR;
//! * Galois "cannot converge for SSSP on ER" and Ligra "fails to obtain
//!   result for BFS on UK" (§7.1) — encoded as explicit rules.

use simdx_gpu::DeviceSpec;
use simdx_graph::datasets::DatasetSpec;

/// The systems compared in Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum System {
    /// This work.
    SimdX,
    /// CuSha (GPU, edge-centric).
    CuSha,
    /// Gunrock (GPU, AFC).
    Gunrock,
    /// Galois (CPU, async worklist).
    Galois,
    /// Ligra (CPU, push-pull frontier).
    Ligra,
}

/// Table 4 algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Breadth-first search.
    Bfs,
    /// PageRank.
    PageRank,
    /// Single-source shortest path.
    Sssp,
    /// k-Core decomposition.
    KCore,
}

/// Why a system cannot produce a number for a cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Infeasible {
    /// Paper-scale memory demand exceeds device memory.
    OutOfMemory {
        /// Bytes required at paper scale.
        required: u64,
        /// Bytes available.
        available: u64,
    },
    /// The system does not implement the algorithm (k-Core outside
    /// SIMD-X/Ligra: "those systems fail to support such algorithms").
    Unsupported,
    /// Known non-convergence from the paper's runs.
    DoesNotConverge,
}

/// Paper-scale bytes of the weighted CSR: uint64 offsets and uint32
/// targets for each stored orientation (out + in for directed graphs,
/// §6), with one shared weight array.
pub(crate) fn csr_bytes(spec: &DatasetSpec) -> u64 {
    let orientations = if spec.directed { 2 } else { 1 };
    orientations * ((spec.paper_vertices + 1) * 8 + spec.paper_edges * 4) + spec.paper_edges * 4
}

/// Paper-scale bytes of a CuSha G-Shards image: a 16-byte shard entry
/// (source index, destination index, source value, edge value) plus
/// ~6 B/edge of window bookkeeping, and per-vertex window arrays.
pub(crate) fn cusha_bytes(spec: &DatasetSpec) -> u64 {
    spec.paper_edges * 22 + spec.paper_vertices * 8
}

/// Paper-scale bytes Gunrock needs for an algorithm: weighted CSR plus,
/// for SSSP, the worst-case `2·|E|` batch-filter frontier of
/// (vertex, distance) pairs (§4's "up to 2·|E| memory space").
pub(crate) fn gunrock_bytes(spec: &DatasetSpec, algo: Algo) -> u64 {
    let frontier = match algo {
        Algo::Sssp => 2 * spec.paper_edges * 8,
        _ => spec.paper_vertices * 8,
    };
    csr_bytes(spec) + frontier
}

/// Checks whether `system` can run `algo` on `spec` within `device` at
/// paper scale. `Ok(())` means Table 4 shows a number.
pub fn check(
    system: System,
    algo: Algo,
    spec: &DatasetSpec,
    device: &DeviceSpec,
) -> Result<(), Infeasible> {
    let mem = device.global_mem_bytes;
    let oom = |required: u64| {
        if required > mem {
            Err(Infeasible::OutOfMemory {
                required,
                available: mem,
            })
        } else {
            Ok(())
        }
    };
    match (system, algo) {
        // k-Core comparisons exist only for SIMD-X and Ligra (§7.1).
        (System::CuSha | System::Gunrock | System::Galois, Algo::KCore) => {
            Err(Infeasible::Unsupported)
        }
        (System::SimdX, _) => oom(csr_bytes(spec) + spec.paper_vertices * 16),
        (System::CuSha, _) => oom(cusha_bytes(spec)),
        (System::Gunrock, a) => oom(gunrock_bytes(spec, a)),
        // CPU systems have 512 GB; their failures are convergence rules.
        (System::Galois, Algo::Sssp) if spec.abbrev == "ER" => Err(Infeasible::DoesNotConverge),
        (System::Ligra, Algo::Bfs) if spec.abbrev == "UK" => Err(Infeasible::DoesNotConverge),
        (System::Galois | System::Ligra, _) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_graph::datasets;

    fn k40() -> DeviceSpec {
        DeviceSpec::k40()
    }

    fn spec(abbrev: &str) -> &'static DatasetSpec {
        datasets::dataset(abbrev).expect("known dataset")
    }

    #[test]
    fn simdx_fits_everything_on_k40() {
        for d in datasets::all() {
            for algo in [Algo::Bfs, Algo::PageRank, Algo::Sssp, Algo::KCore] {
                assert_eq!(
                    check(System::SimdX, algo, d, &k40()),
                    Ok(()),
                    "SIMD-X should fit {} for {:?}",
                    d.abbrev,
                    algo
                );
            }
        }
    }

    #[test]
    fn cusha_ooms_on_the_largest_graphs() {
        // §7.1: CuSha "cannot accommodate large graphs (e.g., FB and
        // TW) across all algorithms".
        for abbrev in ["FB", "TW", "UK"] {
            assert!(
                matches!(
                    check(System::CuSha, Algo::Bfs, spec(abbrev), &k40()),
                    Err(Infeasible::OutOfMemory { .. })
                ),
                "{abbrev} should OOM for CuSha"
            );
        }
        for abbrev in ["ER", "LJ", "OR", "PK", "RC", "KR"] {
            assert_eq!(
                check(System::CuSha, Algo::Bfs, spec(abbrev), &k40()),
                Ok(()),
                "{abbrev} should fit CuSha"
            );
        }
    }

    #[test]
    fn gunrock_sssp_ooms_on_larger_graphs_only() {
        // §7.1: Gunrock "suffers OOM for all larger graphs in SSSP" but
        // its BFS runs everywhere.
        for abbrev in ["FB", "TW", "UK"] {
            assert!(matches!(
                check(System::Gunrock, Algo::Sssp, spec(abbrev), &k40()),
                Err(Infeasible::OutOfMemory { .. })
            ));
            assert_eq!(
                check(System::Gunrock, Algo::Bfs, spec(abbrev), &k40()),
                Ok(())
            );
        }
        assert_eq!(
            check(System::Gunrock, Algo::Sssp, spec("LJ"), &k40()),
            Ok(())
        );
    }

    #[test]
    fn kcore_only_simdx_and_ligra() {
        assert_eq!(
            check(System::Gunrock, Algo::KCore, spec("LJ"), &k40()),
            Err(Infeasible::Unsupported)
        );
        assert_eq!(
            check(System::Ligra, Algo::KCore, spec("LJ"), &k40()),
            Ok(())
        );
        assert_eq!(
            check(System::SimdX, Algo::KCore, spec("LJ"), &k40()),
            Ok(())
        );
    }

    #[test]
    fn convergence_rules() {
        assert_eq!(
            check(System::Galois, Algo::Sssp, spec("ER"), &k40()),
            Err(Infeasible::DoesNotConverge)
        );
        assert_eq!(
            check(System::Ligra, Algo::Bfs, spec("UK"), &k40()),
            Err(Infeasible::DoesNotConverge)
        );
        assert_eq!(check(System::Galois, Algo::Bfs, spec("ER"), &k40()), Ok(()));
    }
}
