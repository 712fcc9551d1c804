//! Design-space exploration for SpectralFly deployments.
//!
//! The paper emphasizes LPS flexibility: for a given radix there are arbitrarily many
//! feasible sizes (Fig. 4, upper-left and lower-left), in contrast to SlimFly/DragonFly
//! whose radix uniquely determines the size. This module enumerates the feasible design
//! points and answers the sizing question an architect actually asks: *"I have R-port
//! routers and need at least E endpoints — which LPS instance and concentration should I
//! use?"* (the paper's answer for R = 32, E ≈ 8.7K is LPS(23, 13) with concentration 8).

use spectralfly_topology::lps::LpsGraph;
use spectralfly_topology::spec::{enumerate_lps, TopologySpec};

/// One feasible SpectralFly deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DesignPoint {
    /// LPS parameter `p` (network radix is `p + 1`).
    pub p: u64,
    /// LPS parameter `q`.
    pub q: u64,
    /// Number of routers.
    pub routers: u64,
    /// Endpoints per router.
    pub concentration: usize,
    /// Total endpoints (`routers × concentration`).
    pub endpoints: u64,
    /// Total ports used per router (`p + 1 + concentration`).
    pub ports_used: usize,
}

/// The enumerated LPS design space up to a parameter limit.
#[derive(Clone, Debug)]
pub struct DesignSpace {
    specs: Vec<TopologySpec>,
}

impl DesignSpace {
    /// Enumerate all valid LPS specs with `p, q < limit`.
    pub fn new(limit: u64) -> Self {
        DesignSpace {
            specs: enumerate_lps(limit),
        }
    }

    /// The specs themselves.
    pub fn specs(&self) -> &[TopologySpec] {
        &self.specs
    }

    /// Pick the deployment that serves at least `min_endpoints` endpoints on routers with
    /// `router_ports` ports, minimizing (in order) total router count and unused ports.
    ///
    /// Every concentration from 1 to `router_ports − (p + 1)` is considered. Returns `None`
    /// if no spec in the space fits.
    pub fn pick_for_endpoints(
        &self,
        router_ports: usize,
        min_endpoints: u64,
    ) -> Option<DesignPoint> {
        let mut best: Option<DesignPoint> = None;
        for spec in &self.specs {
            let TopologySpec::Lps { p, q } = *spec else {
                continue;
            };
            let radix = (p + 1) as usize;
            if radix >= router_ports {
                continue;
            }
            let routers = spec.num_routers();
            let max_conc = router_ports - radix;
            // The smallest concentration that reaches the endpoint target.
            let need = min_endpoints.div_ceil(routers).max(1);
            if need > max_conc as u64 {
                continue;
            }
            let concentration = need as usize;
            let point = DesignPoint {
                p,
                q,
                routers,
                concentration,
                endpoints: routers * concentration as u64,
                ports_used: radix + concentration,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    (point.routers, router_ports - point.ports_used)
                        < (b.routers, router_ports - b.ports_used)
                }
            };
            if better {
                best = Some(point);
            }
        }
        best
    }

    /// Pick the LPS spec closest (in relative radix and size distance) to a target.
    pub fn closest(&self, target_radix: u64, target_routers: u64) -> Option<TopologySpec> {
        spectralfly_topology::spec::closest_spec(&self.specs, target_radix, target_routers)
    }
}

/// The theoretical lower bound on µ₁ for a radix-`k` Ramanujan graph: `(k − 2√(k−1))/k`.
///
/// The paper uses this to argue any LPS graph with `k ≥ 35` beats every SlimFly's µ₁ ≈ 2/3,
/// and any LPS with `k ≥ 36` beats SlimFly's normalized bisection bandwidth 1/3.
pub fn ramanujan_mu1_lower_bound(k: u64) -> f64 {
    let k = k as f64;
    (k - 2.0 * (k - 1.0).sqrt()) / k
}

/// Smallest radix whose Ramanujan µ₁ lower bound exceeds a threshold.
pub fn min_radix_with_mu1_above(threshold: f64) -> u64 {
    (3..10_000u64)
        .find(|&k| ramanujan_mu1_lower_bound(k) > threshold)
        .unwrap_or(u64::MAX)
}

/// Verify that an LPS instance realizes a design point (used by tests and examples).
pub fn realize(point: &DesignPoint) -> Result<LpsGraph, spectralfly_topology::spec::TopologyError> {
    LpsGraph::new(point.p, point.q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_simulation_sizing() {
        // 32-port routers, >= 8192 endpoints -> LPS(23, 13) with concentration 8 is among
        // the feasible answers; whatever the optimizer picks must meet the constraints.
        let ds = DesignSpace::new(40);
        let point = ds.pick_for_endpoints(32, 8192).unwrap();
        assert!(point.endpoints >= 8192);
        assert!(point.ports_used <= 32);
        // The paper's concrete choice is feasible:
        let lps_23_13 = TopologySpec::Lps { p: 23, q: 13 };
        assert!(ds.specs().contains(&lps_23_13));
        assert_eq!(lps_23_13.num_routers(), 1092);
    }

    #[test]
    fn mu1_threshold_radix_matches_paper() {
        // "an LPS graph with radix k >= 35 is guaranteed to have larger mu1 than any SlimFly
        // topology" (SlimFly mu1 ~ 2/3).
        assert_eq!(min_radix_with_mu1_above(2.0 / 3.0), 35);
        // "an LPS graph with k >= 36 has larger normalized bandwidth than any SlimFly"
        // (normalized BW bound mu1/2 > 1/3 is the same inequality shifted by one).
        assert!(ramanujan_mu1_lower_bound(36) / 2.0 > 1.0 / 3.0);
        assert!(ramanujan_mu1_lower_bound(34) / 2.0 < 1.0 / 3.0);
    }

    #[test]
    fn closest_finds_exact_match() {
        let ds = DesignSpace::new(30);
        let best = ds.closest(12, 168).unwrap();
        assert_eq!(best, TopologySpec::Lps { p: 11, q: 7 });
    }

    #[test]
    fn realize_builds_the_graph() {
        use spectralfly_topology::Topology;
        let ds = DesignSpace::new(12);
        let point = ds.pick_for_endpoints(8, 200).unwrap();
        let lps = realize(&point).unwrap();
        assert_eq!(lps.graph().num_vertices() as u64, point.routers);
    }
}
