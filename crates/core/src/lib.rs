//! # spectralfly
//!
//! The paper's primary contribution as a library: **SpectralFly**, an interconnection
//! network whose router graph is an LPS Ramanujan graph, together with the tools a network
//! architect needs to adopt it:
//!
//! * [`network`] — [`SpectralFlyNetwork`]: an LPS router graph plus endpoint concentration,
//!   with the "essentially unstructured" endpoint ordering the paper uses for rank placement.
//! * [`design`] — design-space exploration: enumerate feasible (radix, size) combinations
//!   (Fig. 4), and search for the instance closest to a target port count / endpoint count
//!   (how the paper arrives at LPS(23, 13) with concentration 8 for ~8.7K endpoints).
//!
//! ```
//! use spectralfly::network::SpectralFlyNetwork;
//!
//! // A small SpectralFly: LPS(11, 7) routers with 4 endpoints per router.
//! let net = SpectralFlyNetwork::new(11, 7, 4).unwrap();
//! assert_eq!(net.num_routers(), 168);
//! assert_eq!(net.num_endpoints(), 672);
//! assert_eq!(net.router_of_endpoint(13), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod design;
pub mod network;

pub use design::{DesignPoint, DesignSpace};
pub use network::SpectralFlyNetwork;
