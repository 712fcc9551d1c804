//! Structural path metrics: BFS distance sweeps, diameter, mean shortest-path length,
//! girth, and connectivity — the quantities reported in Table I and Figure 5 of the paper —
//! plus the one component labelling the simulator's fault and oracle layers share.
//!
//! The all-pairs sweep advances 64 sources per pass (the bit-parallel kernel behind
//! [`crate::paths::DistanceMatrix`]), the passes in parallel with rayon. For vertex-transitive
//! topologies (LPS and canonical DragonFly are Cayley-graph-based and vertex-transitive) a
//! single-source profile already determines the distance distribution, and callers can use
//! [`distance_histogram_from`] for that shortcut; the experiment harness uses the exact
//! sweep throughout.

use crate::csr::{CsrGraph, VertexId};
use crate::paths::{bfs_levels_64, BFS_BATCH};
use rayon::prelude::*;

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances.
pub fn bfs_distances(g: &CsrGraph, source: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::with_capacity(n);
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Histogram of distances from `source`: `hist[d]` = number of vertices at distance `d`.
/// Unreachable vertices are not counted.
pub fn distance_histogram_from(g: &CsrGraph, source: VertexId) -> Vec<usize> {
    let dist = bfs_distances(g, source);
    let mut hist = Vec::new();
    for &d in &dist {
        if d == UNREACHABLE {
            continue;
        }
        let d = d as usize;
        if hist.len() <= d {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Is the graph connected? (Empty graphs count as connected.)
pub fn is_connected(g: &CsrGraph) -> bool {
    let n = g.num_vertices();
    if n == 0 {
        return true;
    }
    let dist = bfs_distances(g, 0);
    dist.iter().all(|&d| d != UNREACHABLE)
}

/// Label the connected components of the subgraph of `g` that keeps the
/// vertices `keep_vertex` accepts and the edges `keep_edge(u, port)` accepts
/// (port `port` of `u`, read from `u`'s side): `labels[v]` becomes `v`'s
/// component id, or `u32::MAX` for an excluded vertex. Ids are assigned in
/// ascending order of each component's smallest vertex. Returns the number of
/// components; `labels` is the caller's, so a relabelling reuses it.
pub fn label_components(
    g: &CsrGraph,
    keep_vertex: impl Fn(VertexId) -> bool,
    keep_edge: impl Fn(VertexId, usize) -> bool,
    labels: &mut Vec<u32>,
) -> usize {
    labels.clear();
    labels.resize(g.num_vertices(), u32::MAX);
    let mut count = 0u32;
    let mut stack = Vec::new();
    for root in 0..g.num_vertices() as VertexId {
        if labels[root as usize] != u32::MAX || !keep_vertex(root) {
            continue;
        }
        labels[root as usize] = count;
        stack.push(root);
        while let Some(u) = stack.pop() {
            for (port, &w) in g.neighbors(u).iter().enumerate() {
                if labels[w as usize] == u32::MAX && keep_vertex(w) && keep_edge(u, port) {
                    labels[w as usize] = count;
                    stack.push(w);
                }
            }
        }
        count += 1;
    }
    count as usize
}

/// Exact diameter and mean shortest-path length via a parallel all-sources BFS sweep.
///
/// Returns `None` if the graph is disconnected (both quantities are undefined then, and
/// the paper's failure experiments stop at the disconnection threshold for the same reason).
/// The mean is taken over ordered pairs of *distinct* vertices, matching the paper's
/// "average shortest path length / distance" column.
pub fn diameter_and_mean_distance(g: &CsrGraph) -> Option<(u32, f64)> {
    let n = g.num_vertices();
    if n <= 1 {
        return Some((0, 0.0));
    }
    // Per pass of 64 sources: the last level that reached anything (the largest
    // eccentricity among them), the distance sum and the pairs reached.
    let per_batch: Vec<(u32, u64, u64)> = (0..n.div_ceil(BFS_BATCH))
        .into_par_iter()
        .map(|batch| {
            let first = batch * BFS_BATCH;
            let (mut depth, mut sum, mut reached) = (0u32, 0u64, 0u64);
            bfs_levels_64(g, first..n.min(first + BFS_BATCH), |level, _, new| {
                depth = level;
                sum += new.count_ones() as u64 * level as u64;
                reached += new.count_ones() as u64;
            });
            (depth, sum, reached)
        })
        .collect();
    let (mut diameter, mut total, mut reached) = (0u32, 0u64, 0u64);
    for (depth, sum, pairs) in per_batch {
        diameter = diameter.max(depth);
        total += sum;
        reached += pairs;
    }
    let pairs = (n as u64) * (n as u64 - 1);
    (reached == pairs).then_some((diameter, total as f64 / pairs as f64))
}

/// Girth (length of a shortest cycle), or `None` for forests.
///
/// BFS from every vertex; a non-tree edge at BFS levels `d(u)`, `d(v)` closes a cycle of
/// length at most `d(u) + d(v) + 1`, and taking the minimum over all sources is exact.
/// Early termination prunes sources once the best-known girth cannot be improved.
pub fn girth(g: &CsrGraph) -> Option<u32> {
    let n = g.num_vertices();
    if n == 0 {
        return None;
    }
    let best = (0..n as VertexId)
        .into_par_iter()
        .map(|s| shortest_cycle_through(g, s))
        .min_by_key(|c| c.unwrap_or(u32::MAX));
    match best {
        Some(Some(c)) => Some(c),
        _ => None,
    }
}

/// Length of the shortest cycle passing through `source`, if any.
fn shortest_cycle_through(g: &CsrGraph, source: VertexId) -> Option<u32> {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut parent = vec![VertexId::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    let mut best: Option<u32> = None;
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        if let Some(b) = best {
            // Any cycle found from here on has length >= 2*du + 1 > b.
            if 2 * du + 1 >= b {
                break;
            }
        }
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            } else if parent[u as usize] != v {
                // Non-tree edge: cycle through the BFS tree of length d(u) + d(v) + 1.
                let len = du + dist[v as usize] + 1;
                best = Some(best.map_or(len, |b| b.min(len)));
            }
        }
    }
    best
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

    fn petersen() -> CsrGraph {
        // The Petersen graph: 10 vertices, 3-regular, diameter 2, girth 5.
        let outer: Vec<(u32, u32)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let inner: Vec<(u32, u32)> = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5)).collect();
        let spokes: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 5)).collect();
        let edges: Vec<_> = outer.into_iter().chain(inner).chain(spokes).collect();
        CsrGraph::from_edges(10, &edges)
    }

    #[test]
    fn bfs_on_cycle() {
        let g = cycle_graph(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn connectivity() {
        let g = cycle_graph(5);
        assert!(is_connected(&g));
        let h = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!is_connected(&h));
        assert_eq!(diameter_and_mean_distance(&h), None);
    }

    #[test]
    fn components_of_a_filtered_cycle() {
        let g = cycle_graph(6);
        let mut labels = vec![9; 2];
        assert_eq!(label_components(&g, |_| true, |_, _| true, &mut labels), 1);
        assert_eq!(labels, [0; 6]);
        // Drop vertex 3 and the edge 0–1 (port 0 of 0, read from 0's side):
        // {0, 4, 5} and {1, 2} remain, numbered from their smallest vertex.
        let count = label_components(&g, |v| v != 3, |u, p| (u, p) != (0, 0), &mut labels);
        assert_eq!(count, 2);
        assert_eq!(labels, [0, 1, 1, u32::MAX, 0, 0]);
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter_and_mean_distance(&complete_graph(7)).unwrap().0, 1);
        assert_eq!(diameter_and_mean_distance(&cycle_graph(8)).unwrap().0, 4);
        assert_eq!(diameter_and_mean_distance(&cycle_graph(9)).unwrap().0, 4);
        assert_eq!(diameter_and_mean_distance(&petersen()).unwrap().0, 2);
    }

    #[test]
    fn mean_distance_of_complete_graph_is_one() {
        let (_, mean) = diameter_and_mean_distance(&complete_graph(10)).unwrap();
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_distance_of_c4() {
        // C4 distances from any vertex: 1,1,2 -> mean = 4/3.
        let (_, mean) = diameter_and_mean_distance(&cycle_graph(4)).unwrap();
        assert!((mean - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn girth_of_known_graphs() {
        assert_eq!(girth(&cycle_graph(7)), Some(7));
        assert_eq!(girth(&complete_graph(4)), Some(3));
        assert_eq!(girth(&petersen()), Some(5));
        let tree = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        assert_eq!(girth(&tree), None);
    }

    #[test]
    fn eccentricity_and_histogram() {
        let g = cycle_graph(6);
        assert_eq!(distance_histogram_from(&g, 0), vec![1, 2, 2, 1]);
    }
}
