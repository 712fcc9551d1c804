//! The SpectralFly network: an LPS router graph with endpoint concentration.
//!
//! A fully realized SpectralFly system (Section VI of the paper) is an LPS(p, q) router
//! graph in which every router additionally serves `c` endpoints ("concentration"). Router
//! ports therefore split into `p + 1` network ports and `c` endpoint ports. The paper's
//! simulation instance is `LPS(23, 13)` with `c = 8`: 1092 routers × 8 ≈ 8.7K endpoints on
//! 32-port routers.

use spectralfly_graph::paths::DistanceMatrix;
use spectralfly_graph::CsrGraph;
use spectralfly_topology::lps::LpsGraph;
use spectralfly_topology::spec::TopologyError;
use spectralfly_topology::Topology;

/// An LPS router graph plus endpoint concentration.
#[derive(Clone, Debug)]
pub struct SpectralFlyNetwork {
    lps: LpsGraph,
    concentration: usize,
}

impl SpectralFlyNetwork {
    /// Build a SpectralFly network from LPS parameters and a per-router endpoint count.
    pub fn new(p: u64, q: u64, concentration: usize) -> Result<Self, TopologyError> {
        if concentration == 0 {
            return Err(TopologyError::InvalidParameter(
                "concentration must be at least 1".to_string(),
            ));
        }
        Ok(SpectralFlyNetwork {
            lps: LpsGraph::new(p, q)?,
            concentration,
        })
    }

    /// Wrap an already constructed LPS graph.
    pub fn from_lps(lps: LpsGraph, concentration: usize) -> Result<Self, TopologyError> {
        if concentration == 0 {
            return Err(TopologyError::InvalidParameter(
                "concentration must be at least 1".to_string(),
            ));
        }
        Ok(SpectralFlyNetwork { lps, concentration })
    }

    /// The underlying LPS graph.
    pub fn lps(&self) -> &LpsGraph {
        &self.lps
    }

    /// The router graph.
    pub fn router_graph(&self) -> &CsrGraph {
        self.lps.graph()
    }

    /// Endpoints per router.
    pub fn concentration(&self) -> usize {
        self.concentration
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.lps.graph().num_vertices()
    }

    /// Number of endpoints (`routers × concentration`).
    pub fn num_endpoints(&self) -> usize {
        self.num_routers() * self.concentration
    }

    /// Network radix of each router (`p + 1`).
    pub fn network_radix(&self) -> usize {
        (self.lps.p() + 1) as usize
    }

    /// Total ports per router (network links + endpoint links).
    pub fn router_ports(&self) -> usize {
        self.network_radix() + self.concentration
    }

    /// The router serving a given endpoint.
    ///
    /// Endpoints are numbered consecutively per router in the natural construction order of
    /// the LPS vertex enumeration — the "essentially unstructured ordering resulting from
    /// the Elzinga construction" the paper uses for sequential rank allocation.
    pub fn router_of_endpoint(&self, endpoint: usize) -> u32 {
        assert!(
            endpoint < self.num_endpoints(),
            "endpoint {endpoint} out of range"
        );
        (endpoint / self.concentration) as u32
    }

    /// The endpoints attached to a router.
    pub fn endpoints_of_router(&self, router: u32) -> std::ops::Range<usize> {
        let r = router as usize;
        (r * self.concentration)..((r + 1) * self.concentration)
    }

    /// Precompute the all-pairs router distance matrix (parallel BFS sweep).
    pub fn distance_matrix(&self) -> DistanceMatrix {
        DistanceMatrix::from_graph(self.router_graph())
    }

    /// Human-readable name, e.g. `SpectralFly(23, 13) x8`.
    pub fn name(&self) -> String {
        format!(
            "SpectralFly({}, {}) x{}",
            self.lps.p(),
            self.lps.q(),
            self.concentration
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_simulation_instance_dimensions() {
        // The paper's SST/macro configuration: LPS(23, 13), concentration 8.
        let net = SpectralFlyNetwork::new(23, 13, 8).unwrap();
        assert_eq!(net.num_routers(), 1092);
        assert_eq!(net.num_endpoints(), 8736); // ~8.7K endpoints
        assert_eq!(net.network_radix(), 24);
        assert_eq!(net.router_ports(), 32); // fits 32-port routers
    }

    #[test]
    fn endpoint_router_mapping_roundtrip() {
        let net = SpectralFlyNetwork::new(11, 7, 4).unwrap();
        for r in 0..net.num_routers() as u32 {
            for e in net.endpoints_of_router(r) {
                assert_eq!(net.router_of_endpoint(e), r);
            }
        }
    }

    #[test]
    fn rejects_zero_concentration() {
        assert!(SpectralFlyNetwork::new(11, 7, 0).is_err());
    }

    #[test]
    fn distance_matrix_consistent_with_graph() {
        let net = SpectralFlyNetwork::new(5, 7, 2).unwrap();
        let dm = net.distance_matrix();
        assert_eq!(dm.n(), net.num_routers());
        // Neighbours are at distance 1.
        let g = net.router_graph();
        for v in 0..g.num_vertices() as u32 {
            for &w in g.neighbors(v) {
                assert_eq!(dm.dist(v, w), 1);
            }
            assert_eq!(dm.dist(v, v), 0);
        }
    }
}
