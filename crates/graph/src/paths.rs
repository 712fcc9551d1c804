//! The shared distance / next-hop oracle: all-pairs router distances with minimal
//! next-hop queries.
//!
//! Both the analytical layer (path diversity, average hop counts under a placement)
//! and the packet-level simulator (`spectralfly_simnet::SimNetwork`) need, for an
//! arbitrary (current router, destination router) pair, the set of neighbours that lie
//! on a shortest path.
//! Historically each kept its own copy of this machinery; it now lives here, in the
//! graph substrate both depend on, so there is exactly one implementation to test
//! and optimize: the [`DistanceMatrix`] (u16 entries; every topology in the paper
//! has diameter well below 2¹⁶), from which next hops are derived by scanning the
//! current router's neighbour list (at most the radix, ≤ ~90, long) against the
//! destination's row.
//!
//! The matrix is rebuilt for every degraded graph of a failure sweep, so its
//! construction is written for throughput: a bit-parallel BFS that advances 64
//! sources per pass (`bfs_levels_64`).

use crate::csr::{CsrGraph, VertexId};
use crate::oracle::OracleError;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::ops::Range;

/// Marker for unreachable pairs.
pub const UNREACHABLE_U16: u16 = u16::MAX;

/// Dense all-pairs distance matrix over routers.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major distances; `u16::MAX` encodes "unreachable".
    dist: Vec<u16>,
}

/// Single-source BFS writing u16 distances straight into a caller-provided row
/// (`UNREACHABLE_U16` marks unreachable vertices). The row doubles as the BFS
/// visited set, so the only working memory is the queue.
///
/// Distances saturate at `UNREACHABLE_U16 - 1`: on graphs with more than `u16::MAX`
/// vertices a shortest path could in principle exceed the u16 range, and a saturated
/// entry must not collide with the unreachable sentinel. Every topology this
/// repository simulates has diameter orders of magnitude below the cap, so the
/// saturation branch exists for correctness, not for use.
pub(crate) fn bfs_distances_into(
    g: &CsrGraph,
    source: VertexId,
    row: &mut [u16],
    queue: &mut VecDeque<VertexId>,
) {
    row.fill(UNREACHABLE_U16);
    queue.clear();
    row[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = row[u as usize];
        let dv = du.saturating_add(1).min(UNREACHABLE_U16 - 1);
        for &v in g.neighbors(u) {
            if row[v as usize] == UNREACHABLE_U16 {
                row[v as usize] = dv;
                queue.push_back(v);
            }
        }
    }
}

/// Sources one [`bfs_levels_64`] pass advances together: one bit of a `u64` each.
pub(crate) const BFS_BATCH: usize = 64;

/// Level-synchronous BFS from up to [`BFS_BATCH`] consecutive `sources` at once
/// (Then et al., "The More the Merrier: Efficient Multi-Source Graph Traversal",
/// VLDB 2014) — the one all-sources sweep of this crate, behind both
/// [`DistanceMatrix`] and [`crate::metrics::diameter_and_mean_distance`].
///
/// Bit `i` of a vertex's word stands for source `sources.start + i`: a pass keeps
/// one word per vertex each for the sources that have *seen* it, that reached it
/// at the previous level (the *frontier*) and that reach it now (*next*), so one
/// `|=` per edge advances all 64 searches. `visit(level, v, new)` is called once
/// per level `≥ 1` and vertex `v` with the non-empty set `new` of sources whose
/// distance to `v` is exactly `level`; the sources themselves (level 0) are not
/// reported. A level costs a walk of the frontier's edges plus `O(n)`, so a pass
/// is `O(diameter · (n + m))` — a win over 64 queue BFSes while the diameter stays
/// below 64, which holds with a wide margin for every fabric simulated here.
pub(crate) fn bfs_levels_64(
    g: &CsrGraph,
    sources: Range<usize>,
    mut visit: impl FnMut(u32, usize, u64),
) {
    assert!(sources.len() <= BFS_BATCH, "one bit per source");
    let n = g.num_vertices();
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    for (i, s) in sources.enumerate() {
        seen[s] = 1 << i;
        frontier[s] = 1 << i;
    }
    for level in 1u32.. {
        for (v, &reached) in frontier.iter().enumerate() {
            if reached != 0 {
                for &w in g.neighbors(v as VertexId) {
                    next[w as usize] |= reached;
                }
            }
        }
        let mut advanced = false;
        for (v, reach) in next.iter_mut().enumerate() {
            let new = std::mem::take(reach) & !seen[v];
            frontier[v] = new;
            if new != 0 {
                seen[v] |= new;
                visit(level, v, new);
                advanced = true;
            }
        }
        if !advanced {
            return;
        }
    }
}

impl DistanceMatrix {
    /// The most vertices a matrix holds: `u16` distances with `u16::MAX` as
    /// the unreachable sentinel.
    pub const MAX_VERTICES: usize = u16::MAX as usize;

    /// Compute the matrix with one bit-parallel BFS pass (`bfs_levels_64`) per 64
    /// sources, the passes in parallel.
    ///
    /// Each pass writes its 64 rows directly into the shared flat buffer
    /// (`par_chunks_mut`), so peak memory is the matrix itself plus three words
    /// per vertex per worker — not a second copy of the matrix in per-row vectors.
    ///
    /// The u16 distance encoding (with `u16::MAX` as the unreachable sentinel)
    /// requires every finite distance < 2¹⁶ − 1; `n − 1` bounds path length, so the
    /// vertex count is checked up front — and `n > u16::MAX` also means the dense
    /// `n²` u16 buffer would exceed 8 GiB, which is exactly when callers should fall
    /// back to a memory-scalable [`crate::oracle::PathOracle`] rather than build
    /// this matrix ([`OracleError::TooManyVertices`]).
    pub fn try_from_graph(g: &CsrGraph) -> Result<Self, OracleError> {
        let n = g.num_vertices();
        if n > Self::MAX_VERTICES {
            return Err(OracleError::TooManyVertices {
                n,
                max: Self::MAX_VERTICES,
            });
        }
        let mut dist = vec![0u16; n * n];
        if n > 0 {
            dist.par_chunks_mut(BFS_BATCH * n)
                .enumerate()
                .for_each(|(batch, rows)| {
                    let first = batch * BFS_BATCH;
                    let sources = first..first + rows.len() / n;
                    rows.fill(UNREACHABLE_U16);
                    for (i, s) in sources.clone().enumerate() {
                        rows[i * n + s] = 0;
                    }
                    bfs_levels_64(g, sources, |level, v, mut new| {
                        // The saturation rule of `bfs_distances_into`.
                        let d = level.min(UNREACHABLE_U16 as u32 - 1) as u16;
                        while new != 0 {
                            rows[new.trailing_zeros() as usize * n + v] = d;
                            new &= new - 1;
                        }
                    });
                });
        }
        Ok(DistanceMatrix { n, dist })
    }

    /// Number of routers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The distances from router `from` to every router, indexed by destination.
    fn row(&self, from: usize) -> &[u16] {
        &self.dist[from * self.n..(from + 1) * self.n]
    }

    /// Distance between two routers (`u16::MAX` if unreachable).
    #[inline]
    pub fn dist(&self, from: VertexId, to: VertexId) -> u16 {
        self.dist[from as usize * self.n + to as usize]
    }

    /// The neighbours of `current` that lie on a shortest path toward `dst`
    /// (empty when `dst` is `current` itself or unreachable) — the analysis
    /// form of [`Self::min_next_ports_into`].
    pub fn min_next_hops(&self, g: &CsrGraph, current: VertexId, dst: VertexId) -> Vec<VertexId> {
        let mut ports = Vec::new();
        self.min_next_ports_into(g, current, dst, &mut ports);
        let neighbours = g.neighbors(current);
        ports.iter().map(|&p| neighbours[usize::from(p)]).collect()
    }

    /// Write each port of `current` (index into its neighbour list) whose
    /// neighbour lies on a shortest path toward `dst` into `out` (cleared
    /// first), in ascending order — the definition of the minimal-port
    /// predicate. Empty when `dst` is `current` itself or unreachable.
    /// Allocation-free once `out` has grown to the radix.
    ///
    /// Every [`CsrGraph`] is undirected, so the matrix is symmetric and
    /// `dist(w, dst)` is entry `w` of `dst`'s row: the scan touches that one row
    /// instead of one row per neighbour. It writes every port and steps past
    /// the minimal ones only, so the loop has no branch per port to mispredict.
    /// `tests/min_port_scan.rs` holds it to a BFS from each neighbour on the
    /// paper's degraded fabrics. Port ids are `u16`: the caller keeps
    /// `current`'s degree within 65,536 (`SimNetwork` checks every router
    /// once, when it is assembled).
    #[inline]
    pub fn min_next_ports_into(
        &self,
        g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        out: &mut Vec<u16>,
    ) {
        out.clear();
        let toward = self.row(dst as usize);
        let d = toward[current as usize];
        if current == dst || d == UNREACHABLE_U16 {
            return;
        }
        let neighbours = g.neighbors(current);
        out.resize(neighbours.len(), 0);
        let mut count = 0;
        for (i, &w) in neighbours.iter().enumerate() {
            out[count] = i as u16;
            count += usize::from(toward[w as usize].saturating_add(1) == d);
        }
        out.truncate(count);
    }

    /// Number of distinct shortest paths between two routers (path diversity).
    ///
    /// Computed by dynamic programming over BFS levels; saturates at `u64::MAX`.
    pub fn shortest_path_count(&self, g: &CsrGraph, src: VertexId, dst: VertexId) -> u64 {
        if src == dst {
            return 1;
        }
        let d = self.dist(src, dst);
        if d == UNREACHABLE_U16 {
            return 0;
        }
        // counts[v] = number of shortest src->v paths, filled in BFS-level order from src.
        let mut counts = vec![0u64; self.n];
        counts[src as usize] = 1;
        let mut order: Vec<VertexId> = (0..self.n as VertexId)
            .filter(|&v| self.dist(src, v) <= d)
            .collect();
        order.sort_by_key(|&v| self.dist(src, v));
        for &v in &order {
            if v == src {
                continue;
            }
            let dv = self.dist(src, v);
            let mut acc: u64 = 0;
            for &w in g.neighbors(v) {
                if self.dist(src, w) + 1 == dv {
                    acc = acc.saturating_add(counts[w as usize]);
                }
            }
            counts[v as usize] = acc;
        }
        counts[dst as usize]
    }

    /// Each row's entries off the diagonal: the slice before it, then the one after.
    fn off_diagonal(&self) -> impl Iterator<Item = &[u16]> {
        let rows = self.dist.chunks(self.n.max(1)).enumerate();
        rows.flat_map(|(r, row)| [&row[..r], &row[r + 1..]])
    }

    /// Mean distance over ordered distinct pairs (`None` if the graph is disconnected).
    pub fn mean_distance(&self) -> Option<f64> {
        if self.n <= 1 {
            return Some(0.0);
        }
        let mut sum = 0u64;
        for part in self.off_diagonal() {
            for &d in part {
                if d == UNREACHABLE_U16 {
                    return None;
                }
                sum += d as u64;
            }
        }
        Some(sum as f64 / (self.n as f64 * (self.n as f64 - 1.0)))
    }

    /// Diameter (`None` if disconnected).
    pub fn diameter(&self) -> Option<u16> {
        let mut max = 0u16;
        for part in self.off_diagonal() {
            for &d in part {
                if d == UNREACHABLE_U16 {
                    return None;
                }
                max = max.max(d);
            }
        }
        Some(max)
    }

    /// Largest finite distance, ignoring unreachable pairs (0 for the empty graph).
    ///
    /// Unlike [`Self::diameter`] this is total: on a disconnected graph it reports the
    /// diameter of the reachable pairs, which is what the simulator's VC sizing needs.
    pub fn max_reachable_distance(&self) -> u16 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE_U16)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The 64-source passes against one queue BFS per row, at sizes around the
        /// batch width (a lone vertex; last passes of 63, 64 and 1 sources, alone
        /// or after full ones) and edge densities from none — every vertex its
        /// own component — through a giant component with stragglers to connected.
        #[test]
        fn matrix_rows_equal_one_bfs_per_source(
            size in 0usize..5,
            density in 0usize..4,
            seed in 0u64..10_000,
        ) {
            let n = [1, 63, 64, 65, 129][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut vertex = || rng.gen_range(0..n) as VertexId;
            let edges: Vec<_> = (0..n * density).map(|_| (vertex(), vertex())).collect();
            let distinct: Vec<_> = edges.into_iter().filter(|(a, b)| a != b).collect();
            let g = CsrGraph::from_edges(n, &distinct);
            let dm = DistanceMatrix::try_from_graph(&g).unwrap();
            let (mut row, mut queue) = (vec![0u16; n], VecDeque::new());
            for s in 0..n {
                bfs_distances_into(&g, s as VertexId, &mut row, &mut queue);
                prop_assert_eq!(dm.row(s), &row[..], "source {}", s);
            }
        }
    }

    fn cycle_graph(n: usize) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &edges)
    }

    fn hypercube(dim: u32) -> CsrGraph {
        let n = 1usize << dim;
        let mut edges = Vec::new();
        for v in 0..n as u32 {
            for b in 0..dim {
                let w = v ^ (1 << b);
                if v < w {
                    edges.push((v, w));
                }
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn distances_match_bfs() {
        let g = hypercube(4);
        let dm = DistanceMatrix::try_from_graph(&g).unwrap();
        for u in 0..16u32 {
            for v in 0..16u32 {
                assert_eq!(dm.dist(u, v) as u32, (u ^ v).count_ones());
            }
        }
        assert_eq!(dm.diameter(), Some(4));
        assert_eq!(dm.mean_distance().unwrap(), 2.0 * 16.0 / 15.0);
    }

    #[test]
    fn min_next_hops_follow_shortest_paths() {
        let g = cycle_graph(8);
        let dm = DistanceMatrix::try_from_graph(&g).unwrap();
        // From 0 toward 3 the unique minimal next hop is 1.
        assert_eq!(dm.min_next_hops(&g, 0, 3), vec![1]);
        // From 0 toward 4 (antipodal) both neighbours are minimal.
        let mut hops = dm.min_next_hops(&g, 0, 4);
        hops.sort_unstable();
        assert_eq!(hops, vec![1, 7]);
        assert!(dm.min_next_hops(&g, 5, 5).is_empty());
    }

    #[test]
    fn shortest_path_counts_on_hypercube() {
        // Number of shortest paths between antipodal vertices of Q_d is d!.
        let g = hypercube(4);
        let dm = DistanceMatrix::try_from_graph(&g).unwrap();
        assert_eq!(dm.shortest_path_count(&g, 0, 15), 24);
        assert_eq!(dm.shortest_path_count(&g, 0, 1), 1);
        assert_eq!(dm.shortest_path_count(&g, 3, 3), 1);
    }

    #[test]
    fn min_next_ports_into_clears_its_buffer() {
        let g = cycle_graph(8);
        let dm = DistanceMatrix::try_from_graph(&g).unwrap();
        let mut buf = vec![7; 5];
        dm.min_next_ports_into(&g, 0, 4, &mut buf);
        assert_eq!(buf, [0, 1]);
        dm.min_next_ports_into(&g, 0, 3, &mut buf);
        assert_eq!(buf, [0]);
    }

    #[test]
    fn disconnected_graph_reports_none() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let dm = DistanceMatrix::try_from_graph(&g).unwrap();
        assert_eq!(dm.dist(0, 2), UNREACHABLE_U16);
        assert_eq!(dm.diameter(), None);
        assert_eq!(dm.mean_distance(), None);
        assert_eq!(dm.shortest_path_count(&g, 0, 3), 0);
        assert_eq!(dm.max_reachable_distance(), 1);
        // Unreachable destinations have no minimal next hops — an unreachable
        // neighbour must not count as "on a shortest path" (MAX + 1 saturates to MAX).
        assert!(dm.min_next_hops(&g, 0, 2).is_empty());
    }
}
