//! Physical machine-room modelling for Section VII of the paper ("Beyond Structure"):
//!
//! * [`room`] — the rectilinear cabinet grid (two routers per cabinet, `y = ⌈√(2c/0.6)⌉`
//!   columns) and the intra-/inter-cabinet wire-length model;
//! * [`qap`] — the heuristic placement of routers into cabinets: a near-maximum matching of
//!   the topology is pinned inside cabinets, then cabinet positions are optimized with
//!   simulated annealing plus greedy pairwise refinement (the Quadratic Assignment Problem
//!   heuristic standing in for the paper's expectation-minimization approach);
//! * [`wiring`] — wire-length statistics and electrical/optical link classification;
//! * [`power`] — the per-port power model (Mellanox SB7800-derived: 3.76 W electrical,
//!   4.72 W optical) and the power-per-bandwidth metric of Table II;
//! * [`latency`] — end-to-end latency as a function of switch latency with 5 ns/m cable
//!   delay (Fig. 11).

pub mod latency;
pub mod power;
pub mod qap;
pub mod room;
pub mod wiring;

pub use latency::{latency_profile, LatencyProfile};
pub use power::{PowerModel, PowerSummary};
pub use qap::{place_topology, Placement, QapConfig};
pub use room::MachineRoom;
pub use wiring::{classify_links, WiringStats};
