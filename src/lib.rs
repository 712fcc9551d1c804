//! # spectralfly-suite
//!
//! Umbrella crate for the SpectralFly reproduction workspace. It re-exports the individual
//! crates so the examples under `examples/` and the cross-crate integration tests under
//! `tests/` can reach every component through one dependency:
//!
//! * [`spectralfly_ff`] — finite fields and number theory.
//! * [`spectralfly_graph`] — graph metrics, spectra, partitioning, failure sweeps.
//! * [`spectralfly_topology`] — LPS, SlimFly, BundleFly, DragonFly, SkyWalk, JellyFish.
//! * [`spectralfly_simnet`] — the packet-level interconnect simulator, its synthetic traffic
//!   patterns, collectives and Ember application motifs.
//! * [`spectralfly_layout`] — machine-room layout, wiring, power, and latency models.
//!
//! See `README.md` for a tour and `DESIGN.md` for the experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use spectralfly_ff;
pub use spectralfly_graph;
pub use spectralfly_layout;
pub use spectralfly_simnet;
pub use spectralfly_topology;
