//! # spectralfly-graph
//!
//! The graph-analysis substrate of the SpectralFly reproduction: a compact CSR graph
//! type plus every structural measurement the paper's evaluation needs.
//!
//! * [`csr`] — the [`CsrGraph`] container used by every other crate.
//! * [`metrics`] — BFS sweeps: diameter, mean shortest-path length, girth, connectivity
//!   (Table I, Fig. 5), and the component labelling of a filtered subgraph.
//! * [`spectral`] — adjacency eigenvalues, the spectral gap, µ₁, and the Ramanujan test
//!   (Section II, Table I).
//! * [`partition`] — multilevel balanced bisection, the METIS substitute used to
//!   upper-bound bisection bandwidth (Fig. 4, Fig. 5, Table II).
//! * [`failures`] — random link-failure sweeps with the paper's batched
//!   coefficient-of-variation stopping rule (Fig. 5).
//! * [`profile`] — one-call structural profiling ([`profile_graph`]): the Table-I columns
//!   plus the bisection bracket and the Ramanujan certificate, computed on demand.
//! * [`matching`] — near-maximum matchings used to pair routers into cabinets (Section VII).
//! * [`paths`] — the shared distance / next-hop oracle ([`paths::DistanceMatrix`])
//!   consumed by both the analytical layer and the packet-level simulator.
//! * [`oracle`] — the [`oracle::PathOracle`] trait that puts the dense matrix, the
//!   O(n) Cayley-translation oracle, and the landmark/ALT oracle behind one
//!   interface, so million-router fabrics escape the O(n²) memory wall without
//!   changing a single routing call site.
//!
//! ```
//! use spectralfly_graph::{profile_graph, Column, CsrGraph};
//!
//! // A 3-cube: 3-regular, diameter 3.
//! let edges: Vec<(u32, u32)> = (0..8u32)
//!     .flat_map(|v| (0..3).map(move |b| (v, v ^ (1 << b))))
//!     .filter(|&(u, v)| u < v)
//!     .collect();
//! let g = CsrGraph::from_edges(8, &edges);
//! let p = profile_graph(&g, &[Column::Diameter, Column::Girth], 1);
//! assert_eq!((p.radix, p.diameter, p.girth), (3, Some(3), Some(4)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod failures;
pub mod matching;
pub mod metrics;
pub mod oracle;
pub mod partition;
pub mod paths;
pub mod profile;
pub mod spectral;

pub use csr::{CsrGraph, VertexId};
pub use oracle::{
    CayleyDiff, CayleyOracle, DenseOracle, LandmarkOracle, OracleError, OracleKind, PathOracle,
};
pub use partition::{bisect, bisection_bandwidth, partition_kway, BisectConfig, Bisection};
pub use paths::DistanceMatrix;
pub use profile::{profile_graph, Column, StructuralProfile};
pub use spectral::{spectral_summary, SpectralSummary};
