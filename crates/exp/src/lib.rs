//! # spectralfly-exp
//!
//! The reproduction harness: manifest-driven experiment sweeps with
//! provenance stamps, golden baselines, and regression gates.
//!
//! Every simulation figure, sweep and structural table of the reproduction is
//! a section of *one declarative object* (only the two layout figures remain
//! binaries of their own). A TOML manifest
//! ([`Manifest`]) declares structural tables ([`Structure`]) and sweeps: the
//! cross product of the suite's five string-keyed axes — topology specs
//! ([`topo::TopoSpec`]), routing registry names, traffic-pattern specs,
//! fault plans / fault scripts, and oracle policies — plus shards, seeds,
//! loads, and measurement windows. The runner ([`runner::run_manifest`])
//! executes every point, digests the deterministic results bit-for-bit
//! ([`digest::digest_results`]), reduces each to the fixed [`Metrics`] row that
//! `repro run` prints one table per section from, and stamps the artifact with
//! provenance ([`Provenance`]): git revision + dirty flag, config hash, seed,
//! rustc and host. Checked-in baselines ([`baseline::Baselines`]) then turn
//! any behaviour drift into a CI failure with a typed diagnosis
//! ([`baseline::Diagnosis`]) instead of a silently wrong number in a table.
//! Speed is not this crate's business: `benchmark/` times the simulator.
//!
//! The `repro` binary in `spectralfly-bench` is the CLI over this crate:
//! `repro run manifests/paper.toml` reproduces the paper, `repro check
//! manifests/smoke.toml` is the CI gate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod digest;
pub mod manifest;
pub mod provenance;
pub mod runner;
pub mod toml;
pub mod topo;

pub use baseline::{compare, Baselines, Comparison, Diagnosis};
pub use digest::{digest_outcome, digest_results, digest_row, fnv64_str, Fnv64};
pub use manifest::{Experiment, ExternalFigure, Manifest, ManifestError, Mode, Structure};
pub use provenance::{json_str, Provenance};
pub use runner::{
    expand, render_table, run_manifest, Metrics, PointResult, RunError, RunOptions, RunReport,
};
pub use topo::TopoSpec;
