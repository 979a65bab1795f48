//! Synthetic graph generators.
//!
//! Each generator is deterministic given its seed and emits an
//! [`EdgeList`](crate::EdgeList); callers decide whether to build a
//! directed or undirected [`Graph`](crate::Graph) from it. The generators
//! cover all four structural classes of the paper's Table 3:
//!
//! * `ChungLu` — power-law social networks (FB, LJ, OR, PK, TW),
//! * [`Road`] — high-diameter road maps (ER, RC),
//! * `Web` — hyperlink web graphs with community structure (UK),
//! * [`Rmat`] — R-MAT and Graph500 Kronecker graphs (RM, KR),
//! * [`Erdos`] — uniform-degree random graphs (RD).
//!
//! `ChungLu` and `Web` are reached only through the dataset registry
//! ([`crate::datasets`]).

pub(crate) mod chung_lu;
pub(crate) mod erdos;
pub(crate) mod rmat;
pub(crate) mod road;
pub(crate) mod web;

pub(crate) use chung_lu::ChungLu;
pub use erdos::Erdos;
pub use rmat::Rmat;
pub use road::Road;
pub(crate) use web::Web;
