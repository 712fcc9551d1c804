//! BundleFly `BF(p, s)` — a star product of an MMS graph and a Paley graph.
//!
//! Each vertex of the MMS graph `MMS(s)` (the "bundle") is blown up into a copy of the
//! Paley graph on `p` vertices, and every MMS edge becomes a perfect matching between the
//! two bundles it joins. The result has `2·p·s²` routers and radix
//! `(p−1)/2 + (3s−δ)/2` (Paley degree plus MMS degree), matching the formulas quoted in
//! Section IV of the paper.
//!
//! The original BundleFly paper chooses specific per-edge bijections to minimize diameter;
//! we use the identity matching, which preserves the vertex count, radix, degree distribution
//! and the size/cost trade-offs the paper compares
//! (docs/REPRODUCING.md § "Documented substitutions").

use crate::paley::PaleyGraph;
use crate::slimfly::SlimFlyGraph;
use crate::spec::TopologyError;
use crate::Topology;
use spectralfly_graph::{CsrGraph, VertexId};

/// A BundleFly instance.
#[derive(Clone, Debug)]
pub struct BundleFlyGraph {
    p: u64,
    s: u64,
    graph: CsrGraph,
}

impl BundleFlyGraph {
    /// Construct `BF(p, s)`: `p` a prime `≡ 1 (mod 4)` (Paley factor), `s` a prime power
    /// (MMS factor).
    pub fn new(p: u64, s: u64) -> Result<Self, TopologyError> {
        let paley = PaleyGraph::new(p)?;
        let mms = SlimFlyGraph::new(s)?;
        let bundles = mms.graph().num_vertices();
        let pn = p as usize;
        let n = bundles * pn;
        let id = |bundle: usize, member: usize| -> VertexId { (bundle * pn + member) as VertexId };
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        // Intra-bundle Paley edges.
        for b in 0..bundles {
            for (u, v) in paley.graph().edges() {
                edges.push((id(b, u as usize), id(b, v as usize)));
            }
        }
        // Inter-bundle perfect matchings along MMS edges (identity bijection).
        for (g1, g2) in mms.graph().edges() {
            for m in 0..pn {
                edges.push((id(g1 as usize, m), id(g2 as usize, m)));
            }
        }
        let graph = CsrGraph::from_edges(n, &edges);
        Ok(BundleFlyGraph { p, s, graph })
    }

    /// The Paley prime `p`.
    pub fn p(&self) -> u64 {
        self.p
    }

    /// The MMS parameter `s`.
    pub fn s(&self) -> u64 {
        self.s
    }
}

impl Topology for BundleFlyGraph {
    fn name(&self) -> String {
        format!("BF({}, {})", self.p, self.s)
    }
    fn graph(&self) -> &CsrGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use spectralfly_graph::metrics::{diameter_and_mean_distance, is_connected};

    #[test]
    fn rejects_bad_parameters() {
        assert!(BundleFlyGraph::new(7, 3).is_err()); // 7 not ≡ 1 mod 4
        assert!(BundleFlyGraph::new(13, 6).is_err()); // 6 not a prime power
    }

    #[test]
    fn table1_bf_13_3() {
        // Table I: BF(13, 3) has 234 routers and radix 11.
        let g = BundleFlyGraph::new(13, 3).unwrap();
        assert_eq!(g.graph().num_vertices(), 234);
        assert_eq!(g.graph().max_degree(), 11);
        assert!(is_connected(g.graph()));
        let (diam, _) = diameter_and_mean_distance(g.graph()).unwrap();
        assert!(diam <= 4, "diameter {diam}");
    }

    #[test]
    fn sizes_match_closed_form() {
        for &(p, s) in &[(13u64, 3u64), (37, 3), (5, 4)] {
            let g = BundleFlyGraph::new(p, s).unwrap();
            let spec = TopologySpec::BundleFly { p, s };
            assert_eq!(g.graph().num_vertices() as u64, spec.num_routers());
            assert_eq!(g.graph().max_degree() as u64, spec.radix());
        }
    }

    #[test]
    fn degrees_are_paley_plus_mms() {
        let g = BundleFlyGraph::new(13, 3).unwrap();
        let mms = SlimFlyGraph::new(3).unwrap();
        let paley_deg = 6usize;
        // Each BundleFly vertex degree = Paley degree + degree of its bundle in MMS(3).
        for b in 0..mms.graph().num_vertices() {
            let mms_deg = mms.graph().degree(b as u32);
            for m in 0..13usize {
                let v = (b * 13 + m) as u32;
                assert_eq!(g.graph().degree(v), paley_deg + mms_deg);
            }
        }
    }
}
