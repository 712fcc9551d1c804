//! Balanced graph bisection — the METIS substitute used to *upper-bound* bisection
//! bandwidth (Section IV-d of the paper pairs a METIS cut with the spectral lower bound
//! µ₁·k·n/4; we do the same with this partitioner).
//!
//! The algorithm is the classic multilevel scheme:
//!
//! 1. **Coarsening** by randomized heavy-edge matching until the graph is small.
//! 2. **Initial partition** by greedy region growing from several random seeds.
//! 3. **Uncoarsening** with a boundary Fiduccia–Mattheyses (FM) refinement pass per level.
//!
//! The result is a balanced two-way partition and its cut weight; the minimum cut over a
//! handful of random restarts is reported as the bisection-bandwidth estimate.

use crate::csr::{CsrGraph, VertexId};
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

/// Tuning parameters for the multilevel bisection.
#[derive(Clone, Debug)]
pub struct BisectConfig {
    /// Stop coarsening once the graph has at most this many vertices
    /// (`usize::MAX`: never coarsen — single-level FM).
    pub coarsen_until: usize,
    /// Number of greedy-growing attempts for the initial partition of the coarsest graph.
    pub initial_tries: usize,
    /// Maximum FM passes per level.
    pub fm_passes: usize,
    /// Allowed imbalance: each side must weigh at most `(1 + balance_tolerance) * total / 2`.
    pub balance_tolerance: f64,
}

impl Default for BisectConfig {
    fn default() -> Self {
        BisectConfig {
            coarsen_until: 160,
            initial_tries: 8,
            fm_passes: 6,
            balance_tolerance: 0.02,
        }
    }
}

/// A two-way partition of a graph.
#[derive(Clone, Debug)]
pub struct Bisection {
    /// Side (0 or 1) of each vertex.
    pub side: Vec<u8>,
    /// Total weight of edges crossing the cut.
    pub cut: u64,
    /// Vertex-weight of each side.
    pub part_weight: [u64; 2],
}

/// Internal weighted graph used during coarsening.
#[derive(Clone, Debug)]
struct WGraph {
    vweight: Vec<u64>,
    /// Adjacency with accumulated edge weights (symmetric, no self loops).
    adj: Vec<Vec<(u32, u64)>>,
}

impl WGraph {
    fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let mut adj = vec![Vec::new(); n];
        for (v, nbrs) in adj.iter_mut().enumerate() {
            for &w in g.neighbors(v as VertexId) {
                nbrs.push((w, 1u64));
            }
        }
        WGraph {
            vweight: vec![1; n],
            adj,
        }
    }

    fn n(&self) -> usize {
        self.vweight.len()
    }

    fn total_vweight(&self) -> u64 {
        self.vweight.iter().sum()
    }

    /// One level of heavy-edge-matching coarsening. Returns the coarse graph and the map
    /// from fine vertices to coarse vertices, or `None` if coarsening stalls.
    fn coarsen(&self, rng: &mut StdRng) -> Option<(WGraph, Vec<u32>)> {
        let n = self.n();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut matched = vec![u32::MAX; n];
        let mut coarse_of = vec![u32::MAX; n];
        let mut next = 0u32;
        for &u in &order {
            if matched[u as usize] != u32::MAX {
                continue;
            }
            // Pick unmatched neighbour with maximum edge weight.
            let mut best: Option<(u32, u64)> = None;
            for &(v, w) in &self.adj[u as usize] {
                if matched[v as usize] == u32::MAX && best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((v, w));
                }
            }
            match best {
                Some((v, _)) => {
                    matched[u as usize] = v;
                    matched[v as usize] = u;
                    coarse_of[u as usize] = next;
                    coarse_of[v as usize] = next;
                }
                None => {
                    matched[u as usize] = u;
                    coarse_of[u as usize] = next;
                }
            }
            next += 1;
        }
        let coarse_n = next as usize;
        if coarse_n as f64 > 0.95 * n as f64 {
            return None; // stalled: almost nothing matched
        }
        let mut vweight = vec![0u64; coarse_n];
        for v in 0..n {
            vweight[coarse_of[v] as usize] += self.vweight[v];
        }
        // Aggregate edges via a hash map per coarse vertex.
        let mut adj: Vec<std::collections::HashMap<u32, u64>> =
            vec![std::collections::HashMap::new(); coarse_n];
        for u in 0..n {
            let cu = coarse_of[u];
            for &(v, w) in &self.adj[u] {
                let cv = coarse_of[v as usize];
                if cu == cv {
                    continue;
                }
                *adj[cu as usize].entry(cv).or_insert(0) += w;
            }
        }
        let adj: Vec<Vec<(u32, u64)>> = adj
            .into_iter()
            .map(|m| {
                let mut v: Vec<(u32, u64)> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        Some((WGraph { vweight, adj }, coarse_of))
    }

    fn cut_of(&self, side: &[u8]) -> u64 {
        let mut cut = 0u64;
        for u in 0..self.n() {
            for &(v, w) in &self.adj[u] {
                if (u as u32) < v && side[u] != side[v as usize] {
                    cut += w;
                }
            }
        }
        cut
    }

    fn part_weights(&self, side: &[u8]) -> [u64; 2] {
        let mut pw = [0u64; 2];
        for (v, &s) in side.iter().enumerate() {
            pw[s as usize] += self.vweight[v];
        }
        pw
    }

    /// Greedy region growing from `seed_vertex` until half the total weight is reached.
    fn grow_partition(&self, seed_vertex: u32) -> Vec<u8> {
        let n = self.n();
        let half = self.total_vweight() / 2;
        let mut side = vec![1u8; n];
        let mut in_region = vec![false; n];
        let mut region_weight = 0u64;
        // Priority: vertices with the largest connectivity to the region first.
        let mut gain = vec![0i64; n];
        let mut frontier: std::collections::BinaryHeap<(i64, u32)> =
            std::collections::BinaryHeap::new();
        frontier.push((0, seed_vertex));
        while region_weight < half {
            let Some((_, u)) = frontier.pop() else { break };
            if in_region[u as usize] {
                continue;
            }
            in_region[u as usize] = true;
            side[u as usize] = 0;
            region_weight += self.vweight[u as usize];
            for &(v, w) in &self.adj[u as usize] {
                if !in_region[v as usize] {
                    gain[v as usize] += w as i64;
                    frontier.push((gain[v as usize], v));
                }
            }
        }
        side
    }

    /// One boundary FM pass. Moves vertices greedily by gain while respecting balance,
    /// keeping the best prefix of moves. Returns true if the cut improved.
    fn fm_pass(&self, side: &mut [u8], max_side: u64) -> bool {
        let n = self.n();
        let mut gain: Vec<i64> = vec![0; n];
        for u in 0..n {
            for &(v, w) in &self.adj[u] {
                if side[u] == side[v as usize] {
                    gain[u] -= w as i64;
                } else {
                    gain[u] += w as i64;
                }
            }
        }
        let mut pw = self.part_weights(side);
        let mut locked = vec![false; n];
        let mut heap: std::collections::BinaryHeap<(i64, u32)> =
            (0..n as u32).map(|v| (gain[v as usize], v)).collect();
        let start_cut = self.cut_of(side) as i64;
        let mut cur_cut = start_cut;
        let mut best_cut = start_cut;
        let mut moves: Vec<u32> = Vec::new();
        let mut best_prefix = 0usize;
        let move_limit = n; // full pass
        while moves.len() < move_limit {
            // Pop the best movable vertex.
            let mut chosen = None;
            let mut stash = Vec::new();
            while let Some((g, v)) = heap.pop() {
                if locked[v as usize] || g != gain[v as usize] {
                    if !locked[v as usize] {
                        stash.push((gain[v as usize], v));
                    }
                    continue;
                }
                let from = side[v as usize] as usize;
                let to = 1 - from;
                if pw[to] + self.vweight[v as usize] > max_side {
                    stash.push((g, v));
                    continue;
                }
                chosen = Some(v);
                break;
            }
            for item in stash {
                heap.push(item);
            }
            let Some(v) = chosen else { break };
            // Apply the move.
            let from = side[v as usize] as usize;
            let to = 1 - from;
            pw[from] -= self.vweight[v as usize];
            pw[to] += self.vweight[v as usize];
            cur_cut -= gain[v as usize];
            side[v as usize] = to as u8;
            locked[v as usize] = true;
            moves.push(v);
            // Update neighbour gains.
            for &(w, ew) in &self.adj[v as usize] {
                let wi = w as usize;
                if locked[wi] {
                    continue;
                }
                if side[wi] == side[v as usize] {
                    gain[wi] -= 2 * ew as i64;
                } else {
                    gain[wi] += 2 * ew as i64;
                }
                heap.push((gain[wi], w));
            }
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = moves.len();
            }
        }
        // Roll back moves beyond the best prefix.
        for &v in moves.iter().skip(best_prefix) {
            side[v as usize] ^= 1;
        }
        best_cut < start_cut
    }
}

/// Compute a balanced bisection of `g` (single run).
pub fn bisect(g: &CsrGraph, cfg: &BisectConfig, seed: u64) -> Bisection {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = WGraph::from_csr(g);
    let total = base.total_vweight();
    let max_side = ((total as f64 / 2.0) * (1.0 + cfg.balance_tolerance)).ceil() as u64;

    // Coarsening phase.
    let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new(); // (fine graph, map fine->coarse)
    let mut current = base.clone();
    while current.n() > cfg.coarsen_until {
        match current.coarsen(&mut rng) {
            Some((coarse, map)) => {
                levels.push((current, map));
                current = coarse;
            }
            None => break,
        }
    }

    // Initial partition on the coarsest graph.
    let mut best_side: Option<(Vec<u8>, u64)> = None;
    for _ in 0..cfg.initial_tries.max(1) {
        let seed_vertex = rng.gen_range(0..current.n()) as u32;
        let mut side = current.grow_partition(seed_vertex);
        for _ in 0..cfg.fm_passes {
            if !current.fm_pass(&mut side, max_side) {
                break;
            }
        }
        let cut = current.cut_of(&side);
        if best_side.as_ref().is_none_or(|(_, c)| cut < *c) {
            best_side = Some((side, cut));
        }
    }
    let mut side = best_side.expect("at least one initial partition attempt").0;

    // Uncoarsening with refinement.
    while let Some((fine, map)) = levels.pop() {
        let mut fine_side = vec![0u8; fine.n()];
        for v in 0..fine.n() {
            fine_side[v] = side[map[v] as usize];
        }
        side = fine_side;
        for _ in 0..cfg.fm_passes {
            if !fine.fm_pass(&mut side, max_side) {
                break;
            }
        }
        current = fine;
    }

    let cut = current.cut_of(&side);
    let part_weight = current.part_weights(&side);
    Bisection {
        side,
        cut,
        part_weight,
    }
}

/// Estimate the bisection bandwidth (minimum balanced cut) as the best of `restarts`
/// randomized multilevel runs. This is an upper bound on the true bisection width,
/// mirroring the paper's use of METIS.
pub fn bisection_bandwidth(g: &CsrGraph, restarts: usize, seed: u64) -> u64 {
    use rayon::prelude::*;
    let cfg = BisectConfig::default();
    (0..restarts.max(1) as u64)
        .into_par_iter()
        .map(|r| {
            bisect(
                g,
                &cfg,
                seed.wrapping_add(r.wrapping_mul(0x9E3779B97F4A7C15)),
            )
            .cut
        })
        .min()
        .unwrap_or(0)
}

/// Partition `g` into `parts` balanced parts, returning the part index of each vertex.
///
/// Power-of-two part counts recurse on [`bisect`] (each half is extracted with
/// [`CsrGraph::induced_subgraph`] and split again with a level-derived seed), which keeps
/// the edge cut low — the property the parallel simulator wants, since cut edges become
/// cross-shard messages. Any other part count falls back to a contiguous block
/// assignment, which is balanced but cut-oblivious.
pub fn partition_kway(g: &CsrGraph, parts: usize, cfg: &BisectConfig, seed: u64) -> Vec<u32> {
    let n = g.num_vertices();
    if parts <= 1 || n == 0 {
        return vec![0; n];
    }
    if !parts.is_power_of_two() {
        // Contiguous blocks: part sizes differ by at most one.
        return (0..n).map(|v| (v * parts / n) as u32).collect();
    }
    let mut assign = vec![0u32; n];
    // (vertex list in original ids, first part index, parts to split into)
    let mut work: Vec<(Vec<VertexId>, u32, usize)> = vec![((0..n as VertexId).collect(), 0, parts)];
    while let Some((mut verts, base, k)) = work.pop() {
        if k == 1 || verts.len() <= 1 {
            // k parts but ≤1 vertex left: everything lands in the first part.
            for &v in &verts {
                assign[v as usize] = base;
            }
            continue;
        }
        let sub = g.induced_subgraph(&verts);
        // Derive a per-level seed so sibling bisections see independent streams.
        let level_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(base as u64)
            .wrapping_add((k as u64) << 32);
        let b = bisect(&sub, cfg, level_seed);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (i, &v) in verts.iter().enumerate() {
            if b.side[i] == 0 {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        // A stalled bisection (everything on one side) would recurse forever; fall back
        // to an even split of the vertex list.
        if left.is_empty() || right.is_empty() {
            let mid = verts.len() / 2;
            right = verts.split_off(mid);
            left = verts;
        }
        work.push((left, base, k / 2));
        work.push((right, base + (k / 2) as u32, k / 2));
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_graph(n: usize) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
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

    /// Two K_m cliques joined by a single bridge edge: the optimal bisection cuts only it.
    fn barbell(m: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..m as u32 {
            for v in (u + 1)..m as u32 {
                edges.push((u, v));
                edges.push((m as u32 + u, m as u32 + v));
            }
        }
        edges.push((0, m as u32));
        CsrGraph::from_edges(2 * m, &edges)
    }

    #[test]
    fn bisection_is_balanced() {
        let g = cycle_graph(64);
        let b = bisect(&g, &BisectConfig::default(), 1);
        let diff = b.part_weight[0] as i64 - b.part_weight[1] as i64;
        assert!(diff.abs() <= 2, "parts {:?}", b.part_weight);
        assert_eq!(b.side.len(), 64);
    }

    #[test]
    fn cycle_bisection_cut_is_two() {
        // A cycle's minimum balanced cut is exactly 2.
        for n in [16usize, 50, 128] {
            let g = cycle_graph(n);
            let cut = bisection_bandwidth(&g, 4, 42);
            assert_eq!(cut, 2, "n={n}");
        }
    }

    #[test]
    fn barbell_bisection_finds_the_bridge() {
        let g = barbell(12);
        let cut = bisection_bandwidth(&g, 4, 7);
        assert_eq!(cut, 1);
    }

    #[test]
    fn complete_bipartite_cut() {
        // Balanced bisection of K_{2m,2m} that splits each side in half cuts 2 * m * m... the
        // minimum balanced cut of K_{a,a} with a even is a^2/2.
        let g = complete_bipartite(8, 8);
        let cut = bisection_bandwidth(&g, 8, 3);
        assert_eq!(cut, 32);
    }

    #[test]
    fn cut_value_matches_side_assignment() {
        let g = barbell(8);
        let b = bisect(&g, &BisectConfig::default(), 5);
        let mut recount = 0u64;
        for (u, v) in g.edges() {
            if b.side[u as usize] != b.side[v as usize] {
                recount += 1;
            }
        }
        assert_eq!(recount, b.cut);
    }

    #[test]
    fn single_level_config_also_works() {
        let cfg = BisectConfig {
            coarsen_until: usize::MAX,
            ..Default::default()
        };
        let g = cycle_graph(40);
        let b = bisect(&g, &cfg, 11);
        assert!(b.cut >= 2);
        let diff = b.part_weight[0] as i64 - b.part_weight[1] as i64;
        assert!(diff.abs() <= 2);
    }

    #[test]
    fn kway_covers_all_parts_and_balances() {
        let g = cycle_graph(64);
        for parts in [1usize, 2, 4, 8] {
            let a = partition_kway(&g, parts, &BisectConfig::default(), 17);
            assert_eq!(a.len(), 64);
            let mut counts = vec![0usize; parts];
            for &p in &a {
                assert!((p as usize) < parts, "part {p} out of range");
                counts[p as usize] += 1;
            }
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(
                max - min <= 64 / parts / 2 + 2,
                "parts={parts} counts {counts:?}"
            );
        }
    }

    #[test]
    fn kway_four_way_cycle_cut_is_small() {
        // A 4-way split of a cycle needs only 4 cut edges; recursive bisection should
        // land at (or very near) that.
        let g = cycle_graph(64);
        let a = partition_kway(&g, 4, &BisectConfig::default(), 3);
        let cut = g
            .edges()
            .filter(|&(u, v)| a[u as usize] != a[v as usize])
            .count();
        assert!(cut <= 8, "cut {cut}");
    }

    #[test]
    fn kway_non_power_of_two_falls_back_contiguous() {
        let g = cycle_graph(30);
        let a = partition_kway(&g, 3, &BisectConfig::default(), 1);
        assert_eq!(a, (0..30).map(|v| (v * 3 / 30) as u32).collect::<Vec<_>>());
    }

    #[test]
    fn kway_degenerate_inputs() {
        let g = cycle_graph(4);
        assert_eq!(
            partition_kway(&g, 1, &BisectConfig::default(), 0),
            vec![0; 4]
        );
        // More parts than vertices still assigns every vertex a valid part.
        let a = partition_kway(&g, 8, &BisectConfig::default(), 0);
        assert!(a.iter().all(|&p| p < 8));
        let empty = CsrGraph::from_edges(0, &[]);
        assert!(partition_kway(&empty, 4, &BisectConfig::default(), 0).is_empty());
    }
}
