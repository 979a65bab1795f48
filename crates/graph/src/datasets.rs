//! Registry of scaled-down twins of the paper's Table 3 datasets.
//!
//! Each entry mirrors the *structural class* of the original graph
//! (degree skew, diameter class, directedness) at roughly 1/64 of its
//! vertex count so the whole evaluation suite runs on a CPU-simulated
//! GPU in minutes. The mapping is documented per entry.
//!
//! All built graphs carry random edge weights in the Gunrock range
//! `[1, 64)` so SSSP runs on every dataset, matching §6.

use crate::csr::{Csr, Graph};
use crate::gen::{ChungLu, Erdos, Rmat, Road, Web};
use crate::weights;
use crate::EdgeList;

/// Structural class of a dataset (Table 3 groups).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphClass {
    /// Social networks: power-law degrees, low diameter.
    Social,
    /// Road maps: near-uniform tiny degrees, huge diameter.
    Road,
    /// Hyperlink web: power-law with host locality, medium diameter.
    Web,
    /// Synthetic (Kronecker / R-MAT / uniform random).
    Synthetic,
}

/// Generator configuration for a dataset twin.
#[derive(Clone, Copy, Debug)]
pub(crate) enum GenSpec {
    /// Chung-Lu power-law (social graphs).
    ChungLu(ChungLu),
    /// Grid road network.
    Road(Road),
    /// Host-structured web graph.
    Web(Web),
    /// R-MAT / Kronecker.
    Rmat(Rmat),
    /// Uniform random.
    Erdos(Erdos),
}

impl GenSpec {
    /// Generates the raw (unweighted, directed) edge list.
    pub(crate) fn generate(&self, seed: u64) -> EdgeList {
        match self {
            Self::ChungLu(g) => g.generate(seed),
            Self::Road(g) => g.generate(seed),
            Self::Web(g) => g.generate(seed),
            Self::Rmat(g) => g.generate(seed),
            Self::Erdos(g) => g.generate(seed),
        }
    }

    /// Returns a copy shrunk by `2^shift` in vertex count (edge factors
    /// kept), for fast test runs that preserve the structural class.
    pub(crate) fn scaled_down(&self, shift: u32) -> Self {
        match *self {
            Self::ChungLu(mut g) => {
                g.num_vertices = (g.num_vertices >> shift).max(64);
                Self::ChungLu(g)
            }
            Self::Road(mut g) => {
                g.width = (g.width >> shift).max(16);
                g.height = (g.height >> shift.min(2)).max(4);
                Self::Road(g)
            }
            Self::Web(mut g) => {
                g.num_vertices = (g.num_vertices >> shift).max(64);
                Self::Web(g)
            }
            Self::Rmat(mut g) => {
                g.scale = g.scale.saturating_sub(shift).max(6);
                Self::Rmat(g)
            }
            Self::Erdos(mut g) => {
                g.num_vertices = (g.num_vertices >> shift).max(64);
                Self::Erdos(g)
            }
        }
    }
}

/// A dataset twin: metadata plus its generator.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Table 3 abbreviation (FB, ER, ...).
    pub abbrev: &'static str,
    /// Original dataset name.
    pub name: &'static str,
    /// Structural class.
    pub class: GraphClass,
    /// Whether the original is directed (directed twins store a
    /// transpose CSR for pull mode, per §6).
    pub directed: bool,
    /// Generator.
    pub(crate) gen: GenSpec,
    /// Original vertex count (for the Table 3 report).
    pub paper_vertices: u64,
    /// Original edge count (for the Table 3 report).
    pub paper_edges: u64,
}

impl DatasetSpec {
    /// Builds the weighted graph deterministically from `seed`.
    pub fn build(&self, seed: u64) -> Graph {
        let el = self.gen.generate(seed);
        let el = weights::assign_default_weights(&el, seed ^ 0x5EED_F00D);
        if self.directed {
            Graph::directed_from_edges(el)
        } else {
            Graph::undirected_from_edges(el)
        }
    }

    /// Builds a `2^shift`-times smaller weighted variant for tests.
    pub fn build_scaled(&self, seed: u64, shift: u32) -> Graph {
        let el = self.gen.scaled_down(shift).generate(seed);
        let el = weights::assign_default_weights(&el, seed ^ 0x5EED_F00D);
        if self.directed {
            Graph::directed_from_edges(el)
        } else {
            Graph::undirected_from_edges(el)
        }
    }
}

/// All eleven dataset twins, in Table 3 / Table 4 column order.
pub fn all() -> &'static [DatasetSpec] {
    &DATASETS
}

/// Looks up a dataset by its Table 3 abbreviation (case-insensitive).
pub fn dataset(abbrev: &str) -> Option<&'static DatasetSpec> {
    DATASETS
        .iter()
        .find(|d| d.abbrev.eq_ignore_ascii_case(abbrev))
}

static DATASETS: [DatasetSpec; 11] = [
    DatasetSpec {
        abbrev: "FB",
        name: "Facebook",
        class: GraphClass::Social,
        directed: false,
        gen: GenSpec::ChungLu(ChungLu {
            num_vertices: 1 << 17,
            edge_factor: 12,
            alpha: 1.9,
            max_degree_fraction: 0.005,
        }),
        paper_vertices: 16_777_215,
        paper_edges: 775_824_943,
    },
    DatasetSpec {
        abbrev: "ER",
        name: "Europe-osm",
        class: GraphClass::Road,
        directed: false,
        gen: GenSpec::Road(Road {
            width: 1600,
            height: 128,
            edge_keep_prob: 0.85,
            diagonal_prob: 0.05,
        }),
        paper_vertices: 50_912_018,
        paper_edges: 108_109_319,
    },
    DatasetSpec {
        abbrev: "KR",
        name: "Kron24",
        class: GraphClass::Synthetic,
        directed: true,
        gen: GenSpec::Rmat(Rmat {
            scale: 16,
            edge_factor: 32,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
        }),
        paper_vertices: 16_777_216,
        paper_edges: 536_870_911,
    },
    DatasetSpec {
        abbrev: "LJ",
        name: "LiveJournal",
        class: GraphClass::Social,
        directed: true,
        gen: GenSpec::ChungLu(ChungLu {
            num_vertices: 1 << 16,
            edge_factor: 28,
            alpha: 2.1,
            max_degree_fraction: 0.003,
        }),
        paper_vertices: 4_847_571,
        paper_edges: 136_950_781,
    },
    DatasetSpec {
        abbrev: "OR",
        name: "Orkut",
        class: GraphClass::Social,
        directed: false,
        gen: GenSpec::ChungLu(ChungLu {
            num_vertices: 1 << 15,
            edge_factor: 30,
            alpha: 1.8,
            max_degree_fraction: 0.004,
        }),
        paper_vertices: 3_072_626,
        paper_edges: 234_370_165,
    },
    DatasetSpec {
        abbrev: "PK",
        name: "Pokec",
        class: GraphClass::Social,
        directed: true,
        gen: GenSpec::ChungLu(ChungLu {
            num_vertices: 1 << 15,
            edge_factor: 24,
            alpha: 2.05,
            max_degree_fraction: 0.003,
        }),
        paper_vertices: 1_632_803,
        paper_edges: 61_245_127,
    },
    DatasetSpec {
        abbrev: "RD",
        name: "Random",
        class: GraphClass::Synthetic,
        directed: true,
        gen: GenSpec::Erdos(Erdos {
            num_vertices: 1 << 16,
            edge_factor: 32,
        }),
        paper_vertices: 4_000_000,
        paper_edges: 511_999_999,
    },
    DatasetSpec {
        abbrev: "RC",
        name: "RoadCA-net",
        class: GraphClass::Road,
        directed: false,
        gen: GenSpec::Road(Road {
            width: 512,
            height: 60,
            edge_keep_prob: 0.85,
            diagonal_prob: 0.05,
        }),
        paper_vertices: 1_971_281,
        paper_edges: 5_533_213,
    },
    DatasetSpec {
        abbrev: "RM",
        name: "R-MAT",
        class: GraphClass::Synthetic,
        directed: true,
        gen: GenSpec::Rmat(Rmat {
            scale: 16,
            edge_factor: 32,
            a: 0.45,
            b: 0.15,
            c: 0.15,
            noise: 0.0,
        }),
        paper_vertices: 3_999_983,
        paper_edges: 511_999_999,
    },
    DatasetSpec {
        abbrev: "UK",
        name: "UK-2002",
        class: GraphClass::Web,
        directed: true,
        gen: GenSpec::Web(Web {
            num_vertices: 1 << 17,
            edge_factor: 24,
            mean_host_size: 64,
            cross_host_fraction: 0.15,
        }),
        paper_vertices: 18_520_343,
        paper_edges: 596_227_523,
    },
    DatasetSpec {
        abbrev: "TW",
        name: "Twitter",
        class: GraphClass::Social,
        directed: true,
        gen: GenSpec::ChungLu(ChungLu {
            num_vertices: 1 << 17,
            edge_factor: 24,
            alpha: 1.7,
            max_degree_fraction: 0.02,
        }),
        paper_vertices: 25_165_811,
        paper_edges: 787_169_139,
    },
];

/// Picks a canonical BFS/SSSP source for a graph: the highest-out-degree
/// vertex, which is guaranteed non-isolated (Gunrock-style "largest
/// degree" source selection keeps runs comparable across systems).
pub fn default_source(csr: &Csr) -> crate::VertexId {
    let mut best = 0;
    let mut best_deg = 0;
    for v in 0..csr.num_vertices() {
        let d = csr.degree(v);
        if d > best_deg {
            best_deg = d;
            best = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn registry_has_eleven_unique_entries() {
        let names: Vec<_> = all().iter().map(|d| d.abbrev).collect();
        assert_eq!(names.len(), 11);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 11);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(dataset("tw").map(|d| d.abbrev), Some("TW"));
        assert_eq!(dataset("Tw").map(|d| d.abbrev), Some("TW"));
        assert!(dataset("XX").is_none());
    }

    #[test]
    fn scaled_build_is_deterministic_and_weighted() {
        let d = dataset("PK").expect("PK exists");
        let g1 = d.build_scaled(1, 4);
        let g2 = d.build_scaled(1, 4);
        assert_eq!(g1.out().num_edges(), g2.out().num_edges());
        assert!(g1.out().is_weighted());
    }

    #[test]
    fn road_twin_is_high_diameter_class() {
        let d = dataset("RC").expect("RC exists");
        let g = d.build_scaled(3, 2);
        let diam = stats::estimate_diameter(g.out(), 2, 1);
        assert!(diam > 60, "road twin diameter too small: {diam}");
    }

    #[test]
    fn social_twin_is_skewed() {
        let d = dataset("TW").expect("TW exists");
        let g = d.build_scaled(2, 4);
        assert!(stats::degree_gini(g.out()) > 0.4);
    }

    #[test]
    fn uniform_twin_is_flat() {
        let d = dataset("RD").expect("RD exists");
        let g = d.build_scaled(2, 4);
        assert!(stats::degree_gini(g.out()) < 0.2);
    }

    #[test]
    fn directedness_matches_spec() {
        assert!(dataset("LJ").unwrap().build_scaled(1, 6).is_directed());
        assert!(!dataset("FB").unwrap().build_scaled(1, 6).is_directed());
    }

    #[test]
    fn default_source_has_max_degree() {
        let g = dataset("PK").unwrap().build_scaled(1, 6);
        let src = default_source(g.out());
        let deg = g.out().degree(src);
        assert_eq!(deg, g.out().max_degree());
        assert!(deg > 0);
    }
}
