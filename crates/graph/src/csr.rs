//! Compressed sparse row (CSR) representation of undirected graphs.
//!
//! Every topology in this project is an undirected, loop-free multigraph-free graph on
//! `n` routers. The CSR layout keeps neighbour lists contiguous, which is what the
//! BFS sweeps, the spectral matrix-vector products, and the partitioner all iterate over.

use std::collections::BTreeSet;

/// Vertex index type. `u32` is sufficient for every topology the paper considers
/// (the largest design-space sweep stays below ~10⁷ vertices) and halves memory traffic
/// compared to `usize` during the parallel BFS sweeps.
pub type VertexId = u32;

/// An immutable undirected graph in CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists.
    neighbors: Vec<VertexId>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl CsrGraph {
    /// Build a graph from an undirected edge list on vertices `0..n`.
    ///
    /// Self-loops are dropped and duplicate edges are collapsed; the paper's topologies are
    /// all simple graphs so this is a safety net rather than a semantic choice.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut adj: Vec<BTreeSet<VertexId>> = vec![BTreeSet::new(); n];
        for &(u, v) in edges {
            let (u, v) = (u as usize, v as usize);
            assert!(u < n && v < n, "edge ({u}, {v}) out of range for n = {n}");
            if u == v {
                continue;
            }
            adj[u].insert(v as VertexId);
            adj[v].insert(u as VertexId);
        }
        Self::from_adjacency_sets(&adj)
    }

    /// Build from per-vertex neighbour sets (assumed symmetric, loop-free).
    pub fn from_adjacency_sets(adj: &[BTreeSet<VertexId>]) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for set in adj {
            neighbors.extend(set.iter().copied());
            offsets.push(neighbors.len());
        }
        let num_edges = neighbors.len() / 2;
        CsrGraph {
            offsets,
            neighbors,
            num_edges,
        }
    }

    /// Build from sorted adjacency lists without checking symmetry (used by generators that
    /// guarantee it). Debug builds still assert symmetry.
    pub fn from_sorted_adjacency(adj: Vec<Vec<VertexId>>) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for list in &adj {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "neighbour lists must be strictly sorted"
            );
            neighbors.extend(list.iter().copied());
            offsets.push(neighbors.len());
        }
        let g = CsrGraph {
            offsets,
            neighbors,
            num_edges: 0,
        };
        #[cfg(debug_assertions)]
        {
            for u in 0..n {
                for &v in g.neighbors(u as VertexId) {
                    debug_assert!(
                        g.neighbors(v).binary_search(&(u as VertexId)).is_ok(),
                        "adjacency not symmetric: {u} -> {v}"
                    );
                }
            }
        }
        let num_edges = g.neighbors.len() / 2;
        CsrGraph { num_edges, ..g }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all vertices.
    pub fn min_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .min()
            .unwrap_or(0)
    }

    /// If the graph is `k`-regular, return `k`.
    pub fn regular_degree(&self) -> Option<usize> {
        let k = self.max_degree();
        if k == self.min_degree() {
            Some(k)
        } else {
            None
        }
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// A new graph with the listed undirected edges removed (edges not present are ignored).
    pub fn remove_edges(&self, removed: &[(VertexId, VertexId)]) -> CsrGraph {
        use std::collections::HashSet;
        let kill: HashSet<(VertexId, VertexId)> = removed
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        let edges: Vec<(VertexId, VertexId)> = self
            .edges()
            .filter(|&(u, v)| !kill.contains(&(u, v)))
            .collect();
        CsrGraph::from_edges(self.num_vertices(), &edges)
    }

    /// The subgraph induced on `keep` (vertices renumbered in the order given).
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> CsrGraph {
        let mut remap = vec![VertexId::MAX; self.num_vertices()];
        for (new, &old) in keep.iter().enumerate() {
            remap[old as usize] = new as VertexId;
        }
        let mut edges = Vec::new();
        for &old in keep {
            for &w in self.neighbors(old) {
                let nw = remap[w as usize];
                let nu = remap[old as usize];
                if nw != VertexId::MAX && nu < nw {
                    edges.push((nu, nw));
                }
            }
        }
        CsrGraph::from_edges(keep.len(), &edges)
    }

    /// Adjacency-matrix–vector product `y = A x` (used by the spectral routines).
    pub fn adjacency_matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.num_vertices());
        assert_eq!(y.len(), self.num_vertices());
        for (v, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &w in self.neighbors(v as VertexId) {
                acc += x[w as usize];
            }
            *out = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

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

    #[test]
    fn basic_counts() {
        let g = complete_graph(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.regular_degree(), Some(4));
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (1, 1), (1, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn neighbor_queries() {
        let g = path_graph(4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterator_is_each_edge_once() {
        let g = cycle_graph(6);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 6);
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn remove_edges_drops_only_listed() {
        let g = cycle_graph(5);
        let h = g.remove_edges(&[(0, 1), (4, 3)]);
        assert_eq!(h.num_edges(), 3);
        assert!(!h.has_edge(0, 1));
        assert!(!h.has_edge(3, 4));
        assert!(h.has_edge(1, 2));
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = complete_graph(6);
        let h = g.induced_subgraph(&[1, 3, 5]);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.regular_degree(), Some(2));
    }

    #[test]
    fn matvec_on_cycle() {
        let g = cycle_graph(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        g.adjacency_matvec(&x, &mut y);
        assert_eq!(y, vec![2.0 + 4.0, 1.0 + 3.0, 2.0 + 4.0, 3.0 + 1.0]);
    }

    #[test]
    fn from_sorted_adjacency_roundtrip() {
        let g1 = cycle_graph(5);
        let adj: Vec<Vec<u32>> = (0..5u32).map(|v| g1.neighbors(v).to_vec()).collect();
        let g2 = CsrGraph::from_sorted_adjacency(adj);
        assert_eq!(g1, g2);
    }
}
