//! LPS (Lubotzky–Phillips–Sarnak) Ramanujan graphs — the SpectralFly router topology.
//!
//! `LPS(p, q)` is the Cayley graph of `PSL(2, F_q)` (if the Legendre symbol `(p/q) = 1`) or
//! `PGL(2, F_q)` (if `(p/q) = -1`) with respect to the `p + 1` generator matrices built from
//! the normalized four-square representations of `p` (Definition 3 of the paper). For
//! `q > 2√p` the result is a connected, `(p + 1)`-regular Ramanujan graph; it is bipartite
//! exactly in the PGL case.

use crate::spec::TopologyError;
use crate::Topology;
use spectralfly_ff::arith::mod_reduce_signed;
use spectralfly_ff::pgl::{ProjMat, ProjectiveGroup, ProjectiveIndex, ProjectiveKind};
use spectralfly_ff::primes::is_prime;
use spectralfly_ff::quaternion::lps_generators_quadruples;
use spectralfly_ff::residue::{legendre, sum_of_two_squares_plus_one};
use spectralfly_graph::{CayleyOracle, CsrGraph, OracleError, VertexId};

/// An LPS graph together with its construction metadata.
#[derive(Clone, Debug)]
pub struct LpsGraph {
    p: u64,
    q: u64,
    kind: ProjectiveKind,
    graph: CsrGraph,
    /// Canonical matrix of each vertex (index = vertex id).
    vertices: Vec<ProjMat>,
    /// Canonical generator matrices (|S| = p + 1).
    generators: Vec<ProjMat>,
}

impl LpsGraph {
    /// Construct `LPS(p, q)`.
    ///
    /// Requirements (checked): `p`, `q` distinct odd primes, `q > 2√p` (the condition
    /// under which the construction is guaranteed to be a `(p+1)`-regular Ramanujan graph),
    /// and a group of at most `u32::MAX` classes — every one becomes a vertex.
    pub fn new(p: u64, q: u64) -> Result<Self, TopologyError> {
        if p < 3 || p.is_multiple_of(2) || !is_prime(p) {
            return Err(TopologyError::InvalidParameter(format!(
                "LPS requires p to be an odd prime, got {p}"
            )));
        }
        if q < 3 || q.is_multiple_of(2) || !is_prime(q) {
            return Err(TopologyError::InvalidParameter(format!(
                "LPS requires q to be an odd prime, got {q}"
            )));
        }
        if p == q {
            return Err(TopologyError::InvalidParameter(
                "LPS requires p != q".to_string(),
            ));
        }
        // Widened: `p` and `q` are unvetted here, and `4p` or `q²` may not fit.
        if u128::from(q) * u128::from(q) <= 4 * u128::from(p) {
            return Err(TopologyError::InvalidParameter(format!(
                "LPS requires q > 2*sqrt(p) (got p={p}, q={q})"
            )));
        }

        // Vertex ids are `u32` and every class is enumerated: refuse a group that does not
        // fit before anything is sized by it. This also bounds `q` below 2¹¹ for everything
        // built past this point (q³ − q ≤ 2³³ already fails at q = 2048).
        let n = Self::checked_expected_vertices(p, q);
        if n.is_none_or(|n| n > u64::from(VertexId::MAX)) {
            let n = n.map_or_else(|| "over 2^64".to_string(), |n| n.to_string());
            return Err(TopologyError::InvalidParameter(format!(
                "LPS({p},{q}) has {n} vertices; vertex ids hold at most {}",
                VertexId::MAX
            )));
        }

        let kind = if legendre(p, q) == 1 {
            ProjectiveKind::Psl
        } else {
            ProjectiveKind::Pgl
        };
        let group = ProjectiveGroup::new(q, kind);
        let generators = generator_matrices(&group, p, q);
        // The p + 1 generators must be distinct projective classes and the set must be
        // closed under inversion (so the Cayley graph is simple and undirected).
        {
            let set: std::collections::HashSet<ProjMat> = generators.iter().copied().collect();
            if set.len() != generators.len() {
                return Err(TopologyError::ConstructionFailed(format!(
                    "LPS({p},{q}): generator matrices are not distinct"
                )));
            }
            for g in &generators {
                if !set.contains(&group.inverse(*g)) {
                    return Err(TopologyError::ConstructionFailed(format!(
                        "LPS({p},{q}): generator set not symmetric"
                    )));
                }
            }
        }

        let vertices = group.enumerate();
        // Closed-form ranking instead of a HashMap<ProjMat, VertexId>: O(q²)
        // side tables versus hashing n = Θ(q³) matrices, which dominated both
        // construction time and transient memory at million-vertex scale.
        let index = ProjectiveIndex::new(&group);
        let mut adj: Vec<Vec<VertexId>> =
            vec![Vec::with_capacity(generators.len()); vertices.len()];
        for (i, &v) in vertices.iter().enumerate() {
            for &s in &generators {
                let w = group.mul(v, s);
                let j = index.index_of(w) as VertexId;
                debug_assert_eq!(vertices[j as usize], w);
                adj[i].push(j);
            }
        }
        for (i, list) in adj.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            if list.len() != generators.len() || list.binary_search(&(i as VertexId)).is_ok() {
                return Err(TopologyError::ConstructionFailed(format!(
                    "LPS({p},{q}): Cayley graph is not simple and (p+1)-regular"
                )));
            }
        }
        let graph = CsrGraph::from_sorted_adjacency(adj);
        Ok(LpsGraph {
            p,
            q,
            kind,
            graph,
            vertices,
            generators,
        })
    }

    /// The prime `p` (radix = p + 1).
    pub fn p(&self) -> u64 {
        self.p
    }

    /// The prime `q` (field size).
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Whether the vertex group is PSL or PGL.
    pub fn kind(&self) -> ProjectiveKind {
        self.kind
    }

    /// Canonical matrices of the generator set `S` (|S| = p + 1).
    pub fn generators(&self) -> &[ProjMat] {
        &self.generators
    }

    /// Closed-form number of vertices: `(3 - (p/q)) (q³ - q) / 4`.
    ///
    /// # Panics
    /// If `q³` overflows `u64` (see [`LpsGraph::checked_expected_vertices`]).
    pub fn expected_vertices(p: u64, q: u64) -> u64 {
        Self::checked_expected_vertices(p, q)
            .unwrap_or_else(|| panic!("the vertex count of LPS({p}, {q}) overflows u64"))
    }

    /// [`LpsGraph::expected_vertices`] for parameters nobody has vetted yet —
    /// the order of `PSL₂(F_q)` when `p` is a residue mod `q`, of `PGL₂(F_q)`
    /// otherwise — or `None` when `q³` overflows `u64`. Total, so a size guard
    /// can ask before anything is built: a `q` that is no odd prime (no LPS
    /// graph at all) counts as the `PGL` case.
    pub fn checked_expected_vertices(p: u64, q: u64) -> Option<u64> {
        let pgl = q.checked_pow(3)?.checked_sub(q)?;
        let psl = q > 2 && is_prime(q) && legendre(p, q) == 1;
        Some(if psl { pgl / 2 } else { pgl })
    }

    /// The theoretical Ramanujan bound `2√(k-1) = 2√p` on the nontrivial spectral radius.
    pub fn ramanujan_bound(&self) -> f64 {
        2.0 * (self.p as f64).sqrt()
    }

    /// Whether this instance is bipartite (exactly the PGL case, `(p/q) = -1`).
    pub fn is_bipartite(&self) -> bool {
        self.kind == ProjectiveKind::Pgl
    }

    /// Build the exact, O(n·radix)-memory path oracle that exploits this graph's Cayley
    /// structure: one BFS ball from the identity of `PGL₂`/`PSL₂(F_q)`, with
    /// `diff(u, v) = rank(mat(u)⁻¹ · mat(v))` ranked in closed form by
    /// [`ProjectiveIndex`]. The translation keeps 8 bytes per vertex (its
    /// matrix, packed) plus `4(q² + q) + 2q` bytes of rank and inverse tables;
    /// with the oracle's own `2 + 2·radix + ⌈radix/8⌉` that is 23 bytes/vertex
    /// at radix 6 instead of the dense matrix's n bytes/vertex — the
    /// difference between ~25 MB and ~1.1 TiB on a million-router fabric.
    pub fn cayley_oracle(&self) -> Result<CayleyOracle, OracleError> {
        let group = ProjectiveGroup::new(self.q, self.kind);
        let index = ProjectiveIndex::new(&group);
        let identity = index.index_of(group.identity()) as VertexId;
        // Entries are below q < 2¹¹ (the vertex-count guard in `new`), so `as u16` is exact.
        let packed: Vec<[u16; 4]> = self
            .vertices
            .iter()
            .map(|m| [m.a as u16, m.b as u16, m.c as u16, m.d as u16])
            .collect();
        let aux_bytes = packed.len() * std::mem::size_of::<[u16; 4]>()
            + index.table_bytes()
            + group.table_bytes();
        let unpack = |[a, b, c, d]: [u16; 4]| ProjMat {
            a: a.into(),
            b: b.into(),
            c: c.into(),
            d: d.into(),
        };
        let diff = move |u: VertexId, v: VertexId| -> VertexId {
            let (x, y) = (unpack(packed[u as usize]), unpack(packed[v as usize]));
            index.index_of(group.inverse_mul(x, y)) as VertexId
        };
        CayleyOracle::new(&self.graph, identity, Box::new(diff), aux_bytes)
    }
}

impl Topology for LpsGraph {
    fn name(&self) -> String {
        format!("LPS({}, {})", self.p, self.q)
    }
    fn graph(&self) -> &CsrGraph {
        &self.graph
    }
}

/// Build the `p + 1` canonical generator matrices of `LPS(p, q)`.
fn generator_matrices(group: &ProjectiveGroup, p: u64, q: u64) -> Vec<ProjMat> {
    let (x, y) = sum_of_two_squares_plus_one(q);
    let quads = lps_generators_quadruples(p);
    quads
        .iter()
        .map(|s| {
            // [ a0 + a1 x + a3 y    -a1 y + a2 + a3 x ]
            // [ -a1 y - a2 + a3 x    a0 - a1 x - a3 y ]
            let (a0, a1, a2, a3) = (s.a0, s.a1, s.a2, s.a3);
            let xi = x as i64;
            let yi = y as i64;
            let a = mod_reduce_signed(a0 + a1 * xi + a3 * yi, q);
            let b = mod_reduce_signed(-a1 * yi + a2 + a3 * xi, q);
            let c = mod_reduce_signed(-a1 * yi - a2 + a3 * xi, q);
            let d = mod_reduce_signed(a0 - a1 * xi - a3 * yi, q);
            group
                .canonicalize(a, b, c, d)
                .expect("LPS generator matrices have determinant p != 0 mod q")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectralfly_graph::metrics::{diameter_and_mean_distance, girth, is_connected};
    use spectralfly_graph::spectral::spectral_summary;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(LpsGraph::new(4, 7).is_err()); // p not prime
        assert!(LpsGraph::new(3, 9).is_err()); // q not prime
        assert!(LpsGraph::new(7, 7).is_err()); // p == q
        assert!(LpsGraph::new(23, 5).is_err()); // q <= 2 sqrt(p)
        assert!(LpsGraph::new(2, 7).is_err()); // p even
                                               // 4p wraps u64: still "q <= 2 sqrt(p)", not an overflow panic.
        assert!(LpsGraph::new(18446744073709551557, 7).is_err());
        // More classes than a u32 vertex id can number (4.3·10⁹, 137 GB of matrices),
        // and a q whose cube overflows u64: refused before anything is allocated.
        for (p, q) in [(3, 1627), (3, 3000029)] {
            match LpsGraph::new(p, q) {
                Err(TopologyError::InvalidParameter(why)) => {
                    assert!(why.contains("vertices"), "{why}")
                }
                other => panic!("LPS({p},{q}): {other:?}"),
            }
        }
    }

    #[test]
    fn checked_expected_vertices_is_total() {
        assert_eq!(LpsGraph::checked_expected_vertices(11, 7), Some(168));
        assert_eq!(LpsGraph::checked_expected_vertices(3, 7), Some(336));
        // No odd prime q: no LPS graph, counted as PGL rather than panicking.
        assert_eq!(LpsGraph::checked_expected_vertices(4, 6), Some(210));
        assert_eq!(LpsGraph::checked_expected_vertices(3, 0), Some(0));
        assert_eq!(LpsGraph::checked_expected_vertices(3000017, 3000029), None);
    }

    #[test]
    fn paper_example_lps_3_5() {
        // Example 1 of the paper: LPS(3, 5) is 4-regular on PGL(2, F_5) (120 vertices).
        let g = LpsGraph::new(3, 5).unwrap();
        assert_eq!(g.kind(), ProjectiveKind::Pgl);
        assert_eq!(g.graph().num_vertices(), 120);
        assert_eq!(g.graph().regular_degree(), Some(4));
        assert!(is_connected(g.graph()));
        assert_eq!(g.generators().len(), 4);
    }

    #[test]
    fn table1_sizes_and_radix() {
        // Table I rows: LPS(11,7) = 168 routers radix 12; LPS(23,11) = 660 routers radix 24.
        let a = LpsGraph::new(11, 7).unwrap();
        assert_eq!(a.graph().num_vertices(), 168);
        assert_eq!(a.graph().regular_degree(), Some(12));
        let b = LpsGraph::new(23, 11).unwrap();
        assert_eq!(b.graph().num_vertices(), 660);
        assert_eq!(b.graph().regular_degree(), Some(24));
    }

    #[test]
    fn expected_vertex_formula_matches_construction() {
        for &(p, q) in &[(3u64, 5u64), (3, 7), (5, 7), (11, 7), (3, 11), (7, 11)] {
            let g = LpsGraph::new(p, q).unwrap();
            assert_eq!(
                g.graph().num_vertices() as u64,
                LpsGraph::expected_vertices(p, q),
                "p={p} q={q}"
            );
        }
    }

    #[test]
    fn lps_3_7_structure_matches_paper_figure() {
        // Figure 3 (left) of the paper draws the entire LPS(3, 7): PGL case, 336 vertices,
        // 4-regular, and bipartite.
        let g = LpsGraph::new(3, 7).unwrap();
        assert_eq!(g.graph().num_vertices(), 336);
        assert_eq!(g.graph().regular_degree(), Some(4));
        assert!(g.is_bipartite());
        assert!(spectralfly_graph::spectral::bipartite_sign_vector(g.graph()).is_some());
    }

    #[test]
    fn psl_case_is_not_bipartite() {
        let g = LpsGraph::new(11, 7).unwrap();
        assert_eq!(g.kind(), ProjectiveKind::Psl);
        assert!(spectralfly_graph::spectral::bipartite_sign_vector(g.graph()).is_none());
    }

    #[test]
    fn table1_diameter_distance_girth_for_lps_11_7() {
        // Table I: LPS(11, 7) has diameter 3, mean distance 2.39, girth 3.
        let g = LpsGraph::new(11, 7).unwrap();
        let (diam, mean) = diameter_and_mean_distance(g.graph()).unwrap();
        assert_eq!(diam, 3);
        assert!((mean - 2.39).abs() < 0.02, "mean distance {mean}");
        assert_eq!(girth(g.graph()), Some(3));
    }

    #[test]
    fn lps_graphs_are_ramanujan() {
        for &(p, q) in &[(3u64, 5u64), (5, 7), (11, 7), (3, 13)] {
            let g = LpsGraph::new(p, q).unwrap();
            let s = spectral_summary(g.graph(), 120, 17);
            assert!(
                s.lambda_nontrivial.abs() <= g.ramanujan_bound() + 1e-6,
                "LPS({p},{q}) lambda = {} bound = {}",
                s.lambda_nontrivial,
                g.ramanujan_bound()
            );
            assert!(s.ramanujan);
        }
    }

    #[test]
    fn vertex_transitive_distance_profile_sample() {
        // Cayley graphs are vertex transitive: the distance histogram from any vertex is the
        // same. Spot-check a few sources on LPS(5, 7).
        use spectralfly_graph::metrics::distance_histogram_from;
        let g = LpsGraph::new(5, 7).unwrap();
        let h0 = distance_histogram_from(g.graph(), 0);
        for src in [1u32, 17, 100, 150] {
            assert_eq!(distance_histogram_from(g.graph(), src), h0);
        }
    }

    /// What the Cayley oracle reports resident is what it holds: per vertex `d₀` 2 B,
    /// labels 2·radix B, descent bits ⌈radix/8⌉ B and the packed matrix 8 B; per group the
    /// rank tables 4(q² + q) B and the inverse table 2q B.
    #[test]
    fn cayley_oracle_memory_matches_documented_formula() {
        use spectralfly_graph::PathOracle;
        let g = LpsGraph::new(5, 13).unwrap();
        let (n, radix, q) = (g.graph().num_vertices(), 6usize, 13);
        assert_eq!(n, 2184);
        let per_vertex = 2 + 2 * radix + radix.div_ceil(8) + 8;
        assert_eq!(per_vertex, 23);
        assert_eq!(
            g.cayley_oracle().unwrap().memory_bytes(),
            n * per_vertex + 4 * (q * q + q) + 2 * q
        );
    }

    #[test]
    fn generator_set_is_symmetric_closed() {
        let g = LpsGraph::new(13, 11).unwrap();
        let group = ProjectiveGroup::new(11, g.kind());
        let set: std::collections::HashSet<ProjMat> = g.generators().iter().copied().collect();
        for &s in g.generators() {
            assert!(set.contains(&group.inverse(s)));
        }
        assert_eq!(set.len(), 14);
    }
}
