//! The shared distance / next-hop oracle: all-pairs router distances with minimal
//! next-hop queries.
//!
//! Both the analytical layer (path diversity, average hop counts under a placement)
//! and the packet-level simulator (`spectralfly_simnet::SimNetwork`) need, for an
//! arbitrary (current router, destination router) pair, the set of neighbours that lie
//! on a shortest path.
//! Historically each kept its own copy of this machinery; it now lives here, in the
//! graph substrate both depend on, so there is exactly one implementation to test
//! and optimize. Two representations are provided:
//!
//! * [`DistanceMatrix`] — the dense distance matrix (u16 entries; every topology in
//!   the paper has diameter well below 2¹⁶), from which next hops are derived by
//!   scanning the current router's neighbour list (at most the radix, ≤ ~90, long);
//! * [`NextHopTable`] — a precomputation of every `(router, dst)` pair's
//!   minimal-port list as fixed-stride 8-byte rows (u8 ports; every paper topology
//!   has radix ≪ 256), built in parallel from the matrix. The simulator's routing
//!   hot path reads one such row per decision instead of rescanning the neighbour
//!   list against the matrix, and a memory-budget guard falls back to the scan for
//!   huge `n`.
//!
//! Both are rebuilt for every degraded graph of a failure sweep, so their
//! construction is written for throughput: the matrix comes from a bit-parallel
//! BFS that advances 64 sources per pass (`bfs_levels_64`), the table from a
//! branch-free compaction over the neighbours' matrix rows with no allocation per
//! row.

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
    /// Compute the matrix with one bit-parallel BFS pass (`bfs_levels_64`) per 64
    /// sources, the passes in parallel.
    ///
    /// Each pass writes its 64 rows directly into the shared flat buffer
    /// (`par_chunks_mut`), so peak memory is the matrix itself plus three words
    /// per vertex per worker — not a second copy of the matrix in per-row vectors.
    ///
    /// # Panics
    /// If the graph has more than `u16::MAX` vertices — the convenience wrapper for
    /// callers that know their topology is small. Large-topology constructors should
    /// use [`DistanceMatrix::try_from_graph`] and route to a sparse
    /// [`crate::oracle::PathOracle`] instead of aborting.
    pub fn from_graph(g: &CsrGraph) -> Self {
        Self::try_from_graph(g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DistanceMatrix::from_graph`] with a typed failure instead of a panic.
    ///
    /// The u16 distance encoding (with `u16::MAX` as the unreachable sentinel)
    /// requires every finite distance < 2¹⁶ − 1; `n − 1` bounds path length, so the
    /// vertex count is checked up front — and `n > u16::MAX` also means the dense
    /// `n²` u16 buffer would exceed 8 GiB, which is exactly when callers should fall
    /// back to a memory-scalable oracle rather than build this matrix.
    pub fn try_from_graph(g: &CsrGraph) -> Result<Self, OracleError> {
        let n = g.num_vertices();
        if n > u16::MAX as usize {
            return Err(OracleError::TooManyVertices {
                n,
                max: u16::MAX as usize,
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
    /// (empty when `dst` is `current` itself or unreachable).
    pub fn min_next_hops(&self, g: &CsrGraph, current: VertexId, dst: VertexId) -> Vec<VertexId> {
        let d = self.dist(current, dst);
        if current == dst || d == UNREACHABLE_U16 {
            return Vec::new();
        }
        g.neighbors(current)
            .iter()
            .copied()
            .filter(|&w| self.dist(w, dst).saturating_add(1) == d)
            .collect()
    }

    /// Ports of `current` (indices into its neighbour list) whose neighbour lies on a
    /// shortest path toward `dst` — the port-indexed sibling of [`Self::min_next_hops`],
    /// used by the simulator where output links are addressed by port. Empty when
    /// `dst` is `current` itself or unreachable.
    pub fn min_next_ports(&self, g: &CsrGraph, current: VertexId, dst: VertexId) -> Vec<usize> {
        let mut out = Vec::new();
        self.min_next_ports_into(g, current, dst, &mut out);
        out
    }

    /// Visit each port of `current` whose neighbour lies on a shortest path toward
    /// `dst`, in ascending port order — the definition of the minimal-port
    /// predicate, shared by the `_into` queries. The [`NextHopTable`] builder
    /// evaluates the same predicate without its branches; `tests/next_hop_table.rs`
    /// holds the two to each other pair by pair.
    #[inline]
    fn for_each_min_port(
        &self,
        g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        mut f: impl FnMut(usize),
    ) {
        let d = self.dist(current, dst);
        if current == dst || d == UNREACHABLE_U16 {
            return;
        }
        for (i, &w) in g.neighbors(current).iter().enumerate() {
            if self.dist(w, dst).saturating_add(1) == d {
                f(i);
            }
        }
    }

    /// [`Self::min_next_ports`] into a caller-owned buffer (cleared first), so a
    /// routing hot path that falls back to the scan stays allocation-free once the
    /// buffer has grown to the radix.
    pub fn min_next_ports_into(
        &self,
        g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        self.for_each_min_port(g, current, dst, |i| out.push(i));
    }

    /// [`Self::min_next_ports_into`] with packed `u8` port ids — the scan sibling
    /// of a [`NextHopTable`] row, for hot paths that want one buffer type across
    /// both strategies.
    ///
    /// # Panics
    /// If `current`'s degree exceeds `u8::MAX` (port ids would not fit; use
    /// [`Self::min_next_ports_into`] there).
    pub fn min_next_ports_u8_into(
        &self,
        g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        out: &mut Vec<u8>,
    ) {
        assert!(
            g.degree(current) <= u8::MAX as usize,
            "router {current}'s degree exceeds the packed u8 port space"
        );
        out.clear();
        self.for_each_min_port(g, current, dst, |i| out.push(i as u8));
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

/// Fixed-stride row width of [`NextHopTable`]: one count byte plus up to
/// [`INLINE_MAX`] inline ports.
const ROW_STRIDE: usize = 8;
/// Longest minimal-port list stored inline; longer lists spill.
const INLINE_MAX: usize = ROW_STRIDE - 1;
/// Count-byte marker for a spilled row.
const SPILLED: u8 = 0xFF;

/// Precomputed minimal next-hop ports for every `(router, dst)` pair.
///
/// `ports(r, d)` is the ascending list of `r`'s output ports whose neighbour lies on
/// a shortest path toward `d` — exactly [`DistanceMatrix::min_next_ports`], but as
/// **one 8-byte table read** instead of a radix-wide rescan of the distance matrix.
/// Each pair owns a fixed-stride row: a count byte followed by up to 7 inline `u8`
/// ports (every topology in the paper has radix ≪ 256); a longer list spills to a
/// side arena behind a marker byte. How often depends on the fabric's path
/// diversity, and on the paper's own it is not rare: measured on the pristine
/// graphs, 42.6 % of all pairs spill on LPS(23,13) (5.94 minimal ports on average),
/// 7.5 % on DragonFly(16,8,69), 0.4 % on SlimFly(27) and none on BundleFly(9,9).
/// The fixed stride is what makes the hot path fast on large networks: a CSR
/// layout (`u32` offsets + packed ports) costs two *dependent* cache/TLB misses
/// per lookup, which measured no faster than the scan's prefetch-overlapped
/// misses — the inline row costs one.
///
/// Construction is parallel (one router's rows per task, spills gathered in a flat
/// arena per task — nothing is allocated per row) and guarded by a memory
/// budget: [`NextHopTable::build`] returns `None` when the table would exceed the
/// budget or some vertex degree exceeds `u8::MAX` — callers then keep the
/// matrix-scan fallback ([`DistanceMatrix::min_next_ports_into`]), which the
/// simulator drives through a reused scratch buffer so the fallback is also
/// allocation-free.
#[derive(Clone, Debug)]
pub struct NextHopTable {
    n: usize,
    /// Fixed-stride rows, `ROW_STRIDE` bytes per `(router, dst)` pair in row-major
    /// order: `[count, port, port, ...]`, or `[SPILLED, off0, off1, off2, off3,
    /// count, 0, 0]` (little-endian u32 spill offset) when the list is longer than
    /// `INLINE_MAX`.
    rows: Vec<u8>,
    /// Overflow arena for the lists longer than `INLINE_MAX`, in row order.
    spill: Vec<u8>,
}

impl NextHopTable {
    /// Default construction budget: 2 GiB covers every topology in the paper with
    /// two orders of magnitude to spare (LPS(23,13) needs ~10 MB) and the
    /// beyond-paper sweeps up to ~16K routers, while refusing to build quadratic
    /// state for design-space sweeps into the millions of routers, where the scan
    /// fallback is the right trade.
    pub const DEFAULT_BUDGET_BYTES: usize = 1 << 31;

    /// Build the table under [`Self::DEFAULT_BUDGET_BYTES`].
    pub fn build(g: &CsrGraph, dist: &DistanceMatrix) -> Option<NextHopTable> {
        Self::build_with_budget(g, dist, Self::DEFAULT_BUDGET_BYTES)
    }

    /// Build the table if it fits in `budget_bytes`; `None` means "keep scanning".
    pub fn build_with_budget(
        g: &CsrGraph,
        dist: &DistanceMatrix,
        budget_bytes: usize,
    ) -> Option<NextHopTable> {
        Self::try_build(g, dist, budget_bytes).ok()
    }

    /// [`NextHopTable::build_with_budget`] with a typed reason for refusing.
    ///
    /// Refusal is not an abort: every caller keeps a scan fallback, and the error
    /// distinguishes "radix does not fit the packed u8 port space"
    /// ([`OracleError::RadixTooLarge`]) from "the quadratic table blows the memory
    /// budget" ([`OracleError::BudgetExceeded`]) so large-topology constructors can
    /// report *why* they routed to a sparse oracle.
    pub fn try_build(
        g: &CsrGraph,
        dist: &DistanceMatrix,
        budget_bytes: usize,
    ) -> Result<NextHopTable, OracleError> {
        let n = g.num_vertices();
        assert_eq!(n, dist.n(), "graph and distance matrix disagree on n");
        if g.max_degree() > u8::MAX as usize {
            return Err(OracleError::RadixTooLarge {
                max_degree: g.max_degree(),
                max: u8::MAX as usize,
            });
        }
        let rows_bytes = n
            .checked_mul(n)
            .and_then(|nn| nn.checked_mul(ROW_STRIDE))
            .ok_or(OracleError::BudgetExceeded {
                required: usize::MAX,
                budget: budget_bytes,
            })?;
        if rows_bytes > budget_bytes {
            return Err(OracleError::BudgetExceeded {
                required: rows_bytes,
                budget: budget_bytes,
            });
        }
        if n == 0 {
            return Ok(NextHopTable {
                n,
                rows: Vec::new(),
                spill: Vec::new(),
            });
        }

        // Parallel fill, one router per task. A task reads its own matrix row and
        // its neighbours' side by side and compacts each destination's minimal
        // ports into a stack buffer without a branch per port; over-long lists go
        // to the task's own flat arena, at offsets relative to it.
        let mut rows = vec![0u8; rows_bytes];
        let arenas: Vec<Vec<u8>> = rows
            .par_chunks_mut(n * ROW_STRIDE)
            .enumerate()
            .map(|(r, chunk)| {
                let own = dist.row(r);
                let neighbours = g.neighbors(r as VertexId).iter();
                let toward: Vec<&[u16]> = neighbours.map(|&w| dist.row(w as usize)).collect();
                let mut arena = Vec::new();
                let mut ports = [0u8; u8::MAX as usize + 1];
                for (d, row) in chunk.chunks_exact_mut(ROW_STRIDE).enumerate() {
                    // Port `i` is minimal iff `dist(wᵢ, d) + 1 == dist(r, d)` — the
                    // predicate of `for_each_min_port`, whose two early exits are
                    // folded into a `want` no neighbour can meet.
                    let want = if d == r || own[d] == UNREACHABLE_U16 {
                        u32::MAX
                    } else {
                        own[d] as u32
                    };
                    let mut count = 0usize;
                    for (port, via) in toward.iter().enumerate() {
                        ports[count] = port as u8;
                        count += usize::from(via[d] as u32 + 1 == want);
                    }
                    if count <= INLINE_MAX {
                        let inline = u64::from_le_bytes(ports[..8].try_into().expect("8 bytes"));
                        let kept = inline & ((1u64 << (8 * count)) - 1);
                        row.copy_from_slice(&(kept << 8 | count as u64).to_le_bytes());
                    } else {
                        row[0] = SPILLED;
                        row[1..5].copy_from_slice(&(arena.len() as u32).to_le_bytes());
                        row[5] = count as u8;
                        arena.extend_from_slice(&ports[..count]);
                    }
                }
                arena
            })
            .collect();

        let spill_bytes: usize = arenas.iter().map(Vec::len).sum();
        if spill_bytes > u32::MAX as usize {
            return Err(OracleError::BudgetExceeded {
                required: usize::MAX,
                budget: budget_bytes,
            });
        }
        if rows_bytes + spill_bytes > budget_bytes {
            return Err(OracleError::BudgetExceeded {
                required: rows_bytes + spill_bytes,
                budget: budget_bytes,
            });
        }
        // Concatenate the arenas in router order, rebasing each router's offsets.
        let mut spill = Vec::with_capacity(spill_bytes);
        for (chunk, arena) in rows.chunks_exact_mut(n * ROW_STRIDE).zip(&arenas) {
            let base = spill.len() as u32;
            if base > 0 && !arena.is_empty() {
                for row in chunk.chunks_exact_mut(ROW_STRIDE) {
                    if row[0] == SPILLED {
                        let local = u32::from_le_bytes(row[1..5].try_into().expect("4 bytes"));
                        row[1..5].copy_from_slice(&(base + local).to_le_bytes());
                    }
                }
            }
            spill.extend_from_slice(arena);
        }
        Ok(NextHopTable { n, rows, spill })
    }

    /// Number of routers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The ascending minimal ports of `current` toward `dst` (empty when `dst` is
    /// `current` itself or unreachable). One fixed-stride row read; no scan, no heap.
    #[inline]
    pub fn ports(&self, current: VertexId, dst: VertexId) -> &[u8] {
        let base = (current as usize * self.n + dst as usize) * ROW_STRIDE;
        let row = &self.rows[base..base + ROW_STRIDE];
        let count = row[0];
        if count != SPILLED {
            &row[1..1 + count as usize]
        } else {
            let off = u32::from_le_bytes([row[1], row[2], row[3], row[4]]) as usize;
            &self.spill[off..off + row[5] as usize]
        }
    }

    /// Bytes held by the table (fixed-stride rows + spill arena).
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() + self.spill.len()
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
            let dm = DistanceMatrix::from_graph(&g);
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
        let dm = DistanceMatrix::from_graph(&g);
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
        let dm = DistanceMatrix::from_graph(&g);
        // From 0 toward 3 the unique minimal next hop is 1.
        assert_eq!(dm.min_next_hops(&g, 0, 3), vec![1]);
        // From 0 toward 4 (antipodal) both neighbours are minimal.
        let mut hops = dm.min_next_hops(&g, 0, 4);
        hops.sort_unstable();
        assert_eq!(hops, vec![1, 7]);
        assert!(dm.min_next_hops(&g, 5, 5).is_empty());
    }

    #[test]
    fn port_and_vertex_views_agree() {
        let g = cycle_graph(9);
        let dm = DistanceMatrix::from_graph(&g);
        for u in 0..9u32 {
            for v in 0..9u32 {
                let by_vertex = dm.min_next_hops(&g, u, v);
                let by_port: Vec<VertexId> = dm
                    .min_next_ports(&g, u, v)
                    .into_iter()
                    .map(|p| g.neighbors(u)[p])
                    .collect();
                assert_eq!(by_vertex, by_port, "({u}, {v})");
            }
        }
    }

    #[test]
    fn shortest_path_counts_on_hypercube() {
        // Number of shortest paths between antipodal vertices of Q_d is d!.
        let g = hypercube(4);
        let dm = DistanceMatrix::from_graph(&g);
        assert_eq!(dm.shortest_path_count(&g, 0, 15), 24);
        assert_eq!(dm.shortest_path_count(&g, 0, 1), 1);
        assert_eq!(dm.shortest_path_count(&g, 3, 3), 1);
    }

    #[test]
    fn next_hop_table_matches_scan_on_small_graphs() {
        for g in [
            cycle_graph(9),
            hypercube(4),
            CsrGraph::from_edges(4, &[(0, 1), (2, 3)]),
        ] {
            let dm = DistanceMatrix::from_graph(&g);
            let table = NextHopTable::build(&g, &dm).expect("tiny graphs fit any budget");
            let n = g.num_vertices() as VertexId;
            for u in 0..n {
                for v in 0..n {
                    let scanned = dm.min_next_ports(&g, u, v);
                    let packed: Vec<usize> =
                        table.ports(u, v).iter().map(|&p| p as usize).collect();
                    assert_eq!(scanned, packed, "({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn next_hop_table_ports_into_buffer_agree() {
        let g = cycle_graph(8);
        let dm = DistanceMatrix::from_graph(&g);
        let mut buf = Vec::new();
        dm.min_next_ports_into(&g, 0, 4, &mut buf);
        assert_eq!(buf, dm.min_next_ports(&g, 0, 4));
        // The buffer is cleared, not appended to.
        dm.min_next_ports_into(&g, 0, 3, &mut buf);
        assert_eq!(buf, dm.min_next_ports(&g, 0, 3));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn next_hop_table_spills_long_port_lists() {
        // Complete bipartite K_{8,8}: same-side pairs are at distance 2 with all
        // 8 neighbours minimal — longer than the 7-port inline row, so these
        // lists exercise the spill arena.
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in 8..16u32 {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_edges(16, &edges);
        let dm = DistanceMatrix::from_graph(&g);
        let table = NextHopTable::build(&g, &dm).unwrap();
        for u in 0..16u32 {
            for v in 0..16u32 {
                let scanned = dm.min_next_ports(&g, u, v);
                let packed: Vec<usize> = table.ports(u, v).iter().map(|&p| p as usize).collect();
                assert_eq!(scanned, packed, "({u}, {v})");
            }
        }
        assert_eq!(table.ports(0, 1).len(), 8, "same-side pair spills 8 ports");
    }

    #[test]
    fn next_hop_table_respects_memory_budget() {
        let g = hypercube(4);
        let dm = DistanceMatrix::from_graph(&g);
        let full = NextHopTable::build(&g, &dm).unwrap();
        assert!(full.memory_bytes() > 0);
        // A budget below the table's own footprint must refuse to build.
        assert!(NextHopTable::build_with_budget(&g, &dm, full.memory_bytes() / 2).is_none());
        assert!(NextHopTable::build_with_budget(&g, &dm, full.memory_bytes() + 8).is_some());
    }

    #[test]
    fn next_hop_table_refuses_radix_above_u8() {
        // A star with 300 leaves: the hub's degree does not fit a u8 port id.
        let edges: Vec<(u32, u32)> = (1..=300u32).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(301, &edges);
        let dm = DistanceMatrix::from_graph(&g);
        assert!(NextHopTable::build(&g, &dm).is_none());
    }

    #[test]
    fn disconnected_graph_reports_none() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let dm = DistanceMatrix::from_graph(&g);
        assert_eq!(dm.dist(0, 2), UNREACHABLE_U16);
        assert_eq!(dm.diameter(), None);
        assert_eq!(dm.mean_distance(), None);
        assert_eq!(dm.shortest_path_count(&g, 0, 3), 0);
        assert_eq!(dm.max_reachable_distance(), 1);
        // Unreachable destinations have no minimal next hops — an unreachable
        // neighbour must not count as "on a shortest path" (MAX + 1 saturates to MAX).
        assert!(dm.min_next_hops(&g, 0, 2).is_empty());
        assert!(dm.min_next_ports(&g, 0, 2).is_empty());
    }
}
