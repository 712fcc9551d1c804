//! SlimFly / McKay–Miller–Širáň (MMS) graphs `SF(q)`.
//!
//! The MMS graph over `F_q` (a prime power with `q = 4w + δ`, `δ ∈ {-1, 0, 1}`) has vertex
//! set `{0, 1} × F_q × F_q`. Writing a primitive element as `ξ`:
//!
//! * `(0, x, y) ~ (0, x, y')` iff `y − y' ∈ X`,
//! * `(1, m, c) ~ (1, m, c')` iff `c − c' ∈ X'`,
//! * `(0, x, y) ~ (1, m, c)` iff `y = m·x + c`,
//!
//! where `(X, X')` are symmetric generator sets in `F_q*`:
//!
//! * `δ = 1`: `X` = even powers of ξ (the nonzero squares), `X'` = odd powers — the classical
//!   McKay–Miller–Širáň choice; the two sets partition `F_q*`.
//! * `δ = −1`: `X = {±ξ^{2i} : 0 ≤ i < (q+1)/4}` and `X' = {±ξ^{2i+1} : 0 ≤ i < (q+1)/4}`.
//!   Both have size `(q+1)/2`, are closed under negation, overlap in two elements, and their
//!   union is `F_q*`. By Cauchy–Davenport `X + X = X' + X' = F_q` for prime `q`, which gives
//!   the diameter-2 property (verified in tests for the paper's instances).
//! * `δ = 0` (`q = 2^k`): `X` = the first `q/2` powers `{ξ⁰, …, ξ^{q/2−1}}`, `X'` the rest.
//!
//! For `δ = ±1` the graph is `(3q − δ)/2`-regular with diameter 2. For `δ = 0` the graph is
//! used only as the MMS factor inside BundleFly (the paper's `BF(·, 4)` instances); its
//! diameter may exceed 2, which does not affect the BundleFly-level metrics reported.

use crate::spec::{delta, TopologyError};
use crate::Topology;
use spectralfly_ff::field::FiniteField;
use spectralfly_graph::{CsrGraph, VertexId};
use std::collections::BTreeSet;

/// A SlimFly (MMS) graph instance.
#[derive(Clone, Debug)]
pub struct SlimFlyGraph {
    q: u64,
    graph: CsrGraph,
    x_set: Vec<u64>,
}

impl SlimFlyGraph {
    /// Construct `SF(q)` for a prime power `q ≥ 3`.
    pub fn new(q: u64) -> Result<Self, TopologyError> {
        let field = FiniteField::new(q).ok_or_else(|| {
            TopologyError::InvalidParameter(format!("SlimFly requires a prime power q, got {q}"))
        })?;
        if q < 3 {
            return Err(TopologyError::InvalidParameter(format!(
                "SlimFly requires q >= 3, got {q}"
            )));
        }
        let (x_set, xp_set) = generator_sets(&field);
        let graph = build_mms(&field, &x_set, &xp_set)?;
        Ok(SlimFlyGraph { q, graph, x_set })
    }

    /// The field-size parameter `q`.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// The intra-group generator set `X` (part 0).
    pub fn x_set(&self) -> &[u64] {
        &self.x_set
    }

    /// The paper's radix formula `(3q − δ)/2` (the maximum degree).
    pub fn expected_radix(q: u64) -> u64 {
        ((3 * q as i64 - delta(q)) / 2) as u64
    }
}

impl Topology for SlimFlyGraph {
    fn name(&self) -> String {
        format!("SF({})", self.q)
    }
    fn graph(&self) -> &CsrGraph {
        &self.graph
    }
}

/// The Hafner generator sets `(X, X')` for `F_q`.
pub fn generator_sets(field: &FiniteField) -> (Vec<u64>, Vec<u64>) {
    let q = field.order();
    let w = (q / 4) as i64;
    let mut x_exp: Vec<u64> = Vec::new();
    let mut xp_exp: Vec<u64> = Vec::new();
    match delta(q) {
        1 => {
            // X = even powers, X' = odd powers.
            for e in 0..(q - 1) {
                if e % 2 == 0 {
                    x_exp.push(e);
                } else {
                    xp_exp.push(e);
                }
            }
        }
        -1 => {
            // q = 4w' - 1. Both sets have size (q+1)/2 = 2w' and are closed under negation
            // because -1 = ξ^{(q-1)/2} with (q-1)/2 odd.
            let wp = (w + 1) as u64; // w' = (q + 1)/4
            let half = (q - 1) / 2;
            for i in 0..wp {
                x_exp.push(2 * i);
                x_exp.push((2 * i + half) % (q - 1));
                xp_exp.push(2 * i + 1);
                xp_exp.push((2 * i + 1 + half) % (q - 1));
            }
            x_exp.sort_unstable();
            x_exp.dedup();
            xp_exp.sort_unstable();
            xp_exp.dedup();
        }
        _ => {
            // δ = 0: q = 2^k; split the powers into the first q/2 and the rest.
            for e in 0..(q - 1) {
                if e < q / 2 {
                    x_exp.push(e);
                } else {
                    xp_exp.push(e);
                }
            }
        }
    }
    let x: Vec<u64> = x_exp.iter().map(|&e| field.xi_pow(e)).collect();
    let xp: Vec<u64> = xp_exp.iter().map(|&e| field.xi_pow(e)).collect();
    (x, xp)
}

/// Assemble the MMS adjacency from the field and the generator sets.
fn build_mms(
    field: &FiniteField,
    x_set: &[u64],
    xp_set: &[u64],
) -> Result<CsrGraph, TopologyError> {
    let q = field.order();
    let n = (2 * q * q) as usize;
    let id = |part: u64, a: u64, b: u64| -> VertexId { (part * q * q + a * q + b) as VertexId };
    let mut adj: Vec<BTreeSet<VertexId>> = vec![BTreeSet::new(); n];
    let mut add = |u: VertexId, v: VertexId| {
        if u != v {
            adj[u as usize].insert(v);
            adj[v as usize].insert(u);
        }
    };
    // Intra-part edges.
    for a in 0..q {
        for b in 0..q {
            for &s in x_set {
                let b2 = field.add(b, s);
                add(id(0, a, b), id(0, a, b2));
            }
            for &s in xp_set {
                let b2 = field.add(b, s);
                add(id(1, a, b), id(1, a, b2));
            }
        }
    }
    // Cross edges: (0, x, y) ~ (1, m, c) iff y = m x + c.
    for x in 0..q {
        for m in 0..q {
            for c in 0..q {
                let y = field.add(field.mul(m, x), c);
                add(id(0, x, y), id(1, m, c));
            }
        }
    }
    let adj: Vec<BTreeSet<VertexId>> = adj;
    let graph = CsrGraph::from_adjacency_sets(&adj);
    // Sanity: the maximum degree must match the paper's radix formula.
    let expected = SlimFlyGraph::expected_radix(q) as usize;
    if graph.max_degree() != expected {
        return Err(TopologyError::ConstructionFailed(format!(
            "SF({q}): max degree {} differs from (3q - delta)/2 = {expected}",
            graph.max_degree()
        )));
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectralfly_graph::metrics::{diameter_and_mean_distance, is_connected};

    #[test]
    fn rejects_non_prime_powers() {
        assert!(SlimFlyGraph::new(6).is_err());
        assert!(SlimFlyGraph::new(15).is_err());
        assert!(SlimFlyGraph::new(1).is_err());
    }

    #[test]
    fn table1_sf_sizes() {
        // SF(7): 98 routers, radix 11; SF(17): 578 routers, radix 25.
        let a = SlimFlyGraph::new(7).unwrap();
        assert_eq!(a.graph().num_vertices(), 98);
        assert_eq!(a.graph().max_degree(), 11);
        let b = SlimFlyGraph::new(17).unwrap();
        assert_eq!(b.graph().num_vertices(), 578);
        assert_eq!(b.graph().max_degree(), 25);
    }

    #[test]
    fn sf_q_1_mod_4_is_regular_diameter_2() {
        // q ≡ 1 (mod 4): the MMS graph is (3q-1)/2-regular with diameter 2.
        for q in [5u64, 9, 13, 17] {
            let g = SlimFlyGraph::new(q).unwrap();
            assert!(is_connected(g.graph()), "q={q}");
            assert_eq!(
                g.graph().regular_degree(),
                Some(SlimFlyGraph::expected_radix(q) as usize),
                "q={q}"
            );
            let (diam, _) = diameter_and_mean_distance(g.graph()).unwrap();
            assert_eq!(diam, 2, "q={q}");
        }
    }

    #[test]
    fn sf_q_3_mod_4_has_diameter_2() {
        // q ≡ 3 (mod 4): slightly irregular (two degree values) but still diameter 2.
        for q in [7u64, 11, 19, 23] {
            let g = SlimFlyGraph::new(q).unwrap();
            assert!(is_connected(g.graph()), "q={q}");
            let (diam, _) = diameter_and_mean_distance(g.graph()).unwrap();
            assert_eq!(diam, 2, "q={q}");
            assert_eq!(
                g.graph().max_degree() as u64,
                SlimFlyGraph::expected_radix(q)
            );
        }
    }

    #[test]
    fn sf_table1_mean_distance_close_to_paper() {
        // Table I: SF(7) mean distance 1.89, SF(17) mean distance 1.96.
        let a = SlimFlyGraph::new(7).unwrap();
        let (_, mean) = diameter_and_mean_distance(a.graph()).unwrap();
        assert!((mean - 1.89).abs() < 0.02, "SF(7) mean {mean}");
        let b = SlimFlyGraph::new(17).unwrap();
        let (_, mean) = diameter_and_mean_distance(b.graph()).unwrap();
        assert!((mean - 1.96).abs() < 0.02, "SF(17) mean {mean}");
    }

    #[test]
    fn generator_sets_cover_and_are_symmetric() {
        for q in [5u64, 7, 9, 13, 19, 23, 27] {
            let f = FiniteField::new(q).unwrap();
            let (x, xp) = generator_sets(&f);
            let xs: std::collections::HashSet<u64> = x.iter().copied().collect();
            let xps: std::collections::HashSet<u64> = xp.iter().copied().collect();
            // No zero, no duplicates.
            assert_eq!(xs.len(), x.len(), "q={q}");
            assert_eq!(xps.len(), xp.len(), "q={q}");
            assert!(!xs.contains(&0) && !xps.contains(&0), "q={q}");
            // Union covers F_q^* (needed for the cross-pair diameter-2 argument).
            for e in 1..q {
                assert!(xs.contains(&e) || xps.contains(&e), "q={q}: {e} uncovered");
            }
            // Expected sizes: (q - delta)/2 each.
            let expected = ((q as i64 - delta(q)) / 2) as usize;
            assert_eq!(x.len(), expected, "q={q} |X|");
            if delta(q) != 0 {
                assert_eq!(xp.len(), expected, "q={q} |X'|");
            }
            // Negation-closure for odd q (guarantees undirectedness).
            if q % 2 == 1 {
                for &e in &x {
                    assert!(xs.contains(&f.neg(e)), "q={q}: X not symmetric at {e}");
                }
                for &e in &xp {
                    assert!(xps.contains(&f.neg(e)), "q={q}: X' not symmetric at {e}");
                }
            }
        }
    }

    #[test]
    fn sf4_builds_for_bundlefly_factor() {
        // q = 4 (characteristic 2) is only used as the MMS factor of BF(·, 4).
        let g = SlimFlyGraph::new(4).unwrap();
        assert_eq!(g.graph().num_vertices(), 32);
        assert_eq!(g.graph().max_degree(), 6);
        assert!(is_connected(g.graph()));
    }
}
