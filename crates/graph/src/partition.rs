//! Balanced graph bisection — the METIS substitute used to *upper-bound* bisection
//! bandwidth (Section IV-d of the paper pairs a METIS cut with the spectral lower bound
//! µ₁·k·n/4; we do the same with this partitioner).
//!
//! The algorithm is the classic multilevel scheme:
//!
//! 1. **Coarsening** by randomized heavy-edge matching until the graph is small.
//! 2. **Initial partition** by greedy region growing from several random seeds.
//! 3. **Uncoarsening** with Fiduccia–Mattheyses (FM) refinement at each level: a pass
//!    seeds every vertex (not only the boundary), makes up to one move per vertex, each
//!    the unlocked vertex of largest `(gain, id)` that the balance bound lets move, and
//!    rolls back to the lowest-cut prefix. The unlocked vertices sit in FM's gain
//!    buckets, one id-ordered bitset per gain value and side, so a move and each
//!    neighbour's gain update are O(1) and the pass is O(moves × degree) plus the
//!    bucket walks.
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
        // The first-visited member of each coarse vertex, in coarse-id order.
        let mut first: Vec<u32> = Vec::new();
        for &u in &order {
            if matched[u as usize] != u32::MAX {
                continue;
            }
            let next = first.len() as u32;
            first.push(u);
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
        }
        let coarse_n = first.len();
        if coarse_n as f64 > 0.95 * n as f64 {
            return None; // stalled: almost nothing matched
        }
        let mut vweight = vec![0u64; coarse_n];
        for v in 0..n {
            vweight[coarse_of[v] as usize] += self.vweight[v];
        }
        // Sum each coarse vertex's edges through one dense slot map: `slot[c]` is
        // `(coarse vertex being summed, index of c in its list)`.
        let mut slot = vec![(u32::MAX, 0u32); coarse_n];
        let mut adj: Vec<Vec<(u32, u64)>> = Vec::with_capacity(coarse_n);
        for (cu, &u) in first.iter().enumerate() {
            let cu = cu as u32;
            let partner = matched[u as usize];
            let mut list: Vec<(u32, u64)> = Vec::new();
            for x in [u, partner].into_iter().take(1 + (partner != u) as usize) {
                for &(v, w) in &self.adj[x as usize] {
                    let cv = coarse_of[v as usize];
                    if cv == cu {
                        continue;
                    }
                    let (owner, at) = &mut slot[cv as usize];
                    if *owner != cu {
                        (*owner, *at) = (cu, list.len() as u32);
                        list.push((cv, 0));
                    }
                    list[*at as usize].1 += w;
                }
            }
            list.sort_unstable();
            adj.push(list);
        }
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

    /// One Fiduccia–Mattheyses pass over every vertex. Each step moves the unlocked
    /// vertex with the largest `(gain, id)` whose move keeps its destination side at most
    /// `max_side`, and locks it; the pass stops when no move fits or after `n` moves,
    /// then rolls back to the prefix of moves with the strictly lowest cut. Returns true
    /// if the cut improved.
    ///
    /// The unlocked vertices sit in one [`GainBuckets`] per side, so a move and each
    /// neighbour's gain update are O(1), and picking the next vertex walks down from
    /// the highest non-empty gain.
    fn fm_pass(&self, side: &mut [u8], max_side: u64) -> bool {
        self.fm_pass_spanned(side, max_side, None)
    }

    /// [`WGraph::fm_pass`] with gains beyond `±span` sharing the end buckets. With no
    /// `span`, every gain gets its own bucket while the largest weighted degree is
    /// small against the mean, so one high-degree vertex (a star's hub) cannot make
    /// the buckets outweigh the graph.
    fn fm_pass_spanned(&self, side: &mut [u8], max_side: u64, span: Option<i64>) -> bool {
        let n = self.n();
        // Gains, the cut and the weighted degrees in one sweep.
        let mut gain: Vec<i64> = vec![0; n];
        let (mut cut2, mut max_wdeg, mut sum_wdeg) = (0u64, 0u64, 0u64);
        for u in 0..n {
            let (mut external, mut internal) = (0u64, 0u64);
            for &(v, w) in &self.adj[u] {
                if side[u] == side[v as usize] {
                    internal += w;
                } else {
                    external += w;
                }
            }
            gain[u] = external as i64 - internal as i64;
            cut2 += external;
            max_wdeg = max_wdeg.max(external + internal);
            sum_wdeg += external + internal;
        }
        let span =
            span.unwrap_or_else(|| max_wdeg.min(4 * (sum_wdeg / n.max(1) as u64) + 64) as i64);
        let mut pw = self.part_weights(side);
        let min_weight = self.vweight.iter().copied().min().unwrap_or(0);
        let mut locked = vec![false; n];
        let mut buckets = [GainBuckets::new(n, span), GainBuckets::new(n, span)];
        for v in 0..n {
            buckets[side[v] as usize].insert(v as u32, gain[v]);
        }
        let start_cut = (cut2 / 2) as i64;
        let mut cur_cut = start_cut;
        let mut best_cut = start_cut;
        let mut moves: Vec<u32> = Vec::new();
        let mut best_prefix = 0usize;
        while moves.len() < n {
            // The best movable vertex of each side, then the better of the two.
            let best_of = |from: usize, buckets: &mut [GainBuckets; 2]| {
                let room = max_side.checked_sub(pw[1 - from])?;
                if min_weight > room {
                    return None;
                }
                buckets[from].best(&gain, |v| self.vweight[v as usize] <= room)
            };
            let candidates = [best_of(0, &mut buckets), best_of(1, &mut buckets)];
            let Some((g, v)) = candidates[0].max(candidates[1]) else {
                break;
            };
            // Apply the move.
            let from = side[v as usize] as usize;
            let to = 1 - from;
            buckets[from].remove(v, g);
            pw[from] -= self.vweight[v as usize];
            pw[to] += self.vweight[v as usize];
            cur_cut -= g;
            side[v as usize] = to as u8;
            locked[v as usize] = true;
            moves.push(v);
            // Update neighbour gains.
            for &(w, ew) in &self.adj[v as usize] {
                let wi = w as usize;
                if locked[wi] {
                    continue;
                }
                let home = &mut buckets[side[wi] as usize];
                home.remove(w, gain[wi]);
                if side[wi] == side[v as usize] {
                    gain[wi] -= 2 * ew as i64;
                } else {
                    gain[wi] += 2 * ew as i64;
                }
                home.insert(w, gain[wi]);
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

/// One side's unlocked vertices by gain: bucket `b` is an id-ordered bitset of the
/// vertices of gain `b - span`, except that the two end buckets also hold every gain
/// beyond `±span`. A count per bucket and a lazy top (no non-empty bucket lies above
/// it) let [`GainBuckets::best`] start at the highest gain present, and a lazy high
/// word per bucket (no set bit lies above it) at that bucket's highest id.
struct GainBuckets {
    span: i64,
    /// `u64` words per bucket.
    words: usize,
    bits: Vec<u64>,
    count: Vec<u32>,
    high: Vec<u32>,
    top: usize,
}

impl GainBuckets {
    fn new(n: usize, span: i64) -> Self {
        let buckets = 2 * span as usize + 1;
        let words = n.div_ceil(64);
        GainBuckets {
            span,
            words,
            bits: vec![0; buckets * words],
            count: vec![0; buckets],
            high: vec![0; buckets],
            top: 0,
        }
    }

    fn bucket(&self, gain: i64) -> usize {
        (gain.clamp(-self.span, self.span) + self.span) as usize
    }

    fn insert(&mut self, v: u32, gain: i64) {
        let b = self.bucket(gain);
        self.bits[b * self.words + v as usize / 64] |= 1 << (v % 64);
        self.count[b] += 1;
        self.high[b] = self.high[b].max(v / 64);
        self.top = self.top.max(b);
    }

    fn remove(&mut self, v: u32, gain: i64) {
        let b = self.bucket(gain);
        self.bits[b * self.words + v as usize / 64] &= !(1 << (v % 64));
        self.count[b] -= 1;
    }

    /// The vertex with the largest `(gain, id)` that `fits`, with its gain. An end
    /// bucket's vertices need not share one gain, so it is searched whole; any other
    /// bucket's first fitting vertex in descending id order is the answer.
    fn best(&mut self, gain: &[i64], fits: impl Fn(u32) -> bool) -> Option<(i64, u32)> {
        while self.top > 0 && self.count[self.top] == 0 {
            self.top -= 1;
        }
        let ends = [0, 2 * self.span as usize];
        for b in (0..=self.top).rev().filter(|&b| self.count[b] > 0) {
            let row = &self.bits[b * self.words..(b + 1) * self.words];
            let high = &mut self.high[b];
            while row[*high as usize] == 0 {
                *high -= 1;
            }
            let mut ids = row[..=*high as usize]
                .iter()
                .enumerate()
                .rev()
                .flat_map(|(i, &word)| {
                    let base = 64 * i as u32;
                    let mut rest = word;
                    std::iter::from_fn(move || {
                        let bit = rest.checked_ilog2()?;
                        rest &= !(1 << bit);
                        Some(base + bit)
                    })
                });
            let found = if ends.contains(&b) {
                ids.filter(|&v| fits(v))
                    .map(|v| (gain[v as usize], v))
                    .max()
            } else {
                ids.find(|&v| fits(v)).map(|v| (gain[v as usize], v))
            };
            if found.is_some() {
                return found;
            }
        }
        None
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

    impl WGraph {
        /// The binary-heap pass [`WGraph::fm_pass`] replaced: the reference its gain
        /// buckets must match move for move.
        fn fm_pass_heap(&self, side: &mut [u8], max_side: u64) -> bool {
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

    /// A random graph with vertex weights in `1..=4` and edge weights in `1..=9`: a
    /// stand-in for a coarse level, where heavy vertices can be blocked by balance
    /// while lighter ones below them still fit.
    fn random_wgraph(rng: &mut StdRng, n: usize) -> WGraph {
        let mut adj: Vec<std::collections::BTreeMap<u32, u64>> = vec![Default::default(); n];
        for _ in 0..n * rng.gen_range(1usize..6) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                let w = rng.gen_range(1..10);
                adj[u].insert(v as u32, w);
                adj[v].insert(u as u32, w);
            }
        }
        WGraph {
            vweight: (0..n).map(|_| rng.gen_range(1..5)).collect(),
            adj: adj.into_iter().map(|m| m.into_iter().collect()).collect(),
        }
    }

    /// Run the heap reference and the bucket pass side by side from one start, pass
    /// after pass, under the balance bound `max_side`, and assert they agree on every
    /// side and return value. Buckets are tried at `g`'s own span and, if `narrow`, at
    /// spans that send most gains to the shared end buckets (each pick then searches
    /// an end bucket whole, so only small graphs afford them).
    fn assert_passes_agree(g: &WGraph, start: &[u8], max_side: u64, narrow: bool, what: &str) {
        let spans = if narrow {
            &[Some(0), Some(1), Some(3)][..]
        } else {
            &[]
        };
        for &span in [None].iter().chain(spans) {
            let (mut heap, mut buckets) = (start.to_vec(), start.to_vec());
            for pass in 0..6 {
                let improved = g.fm_pass_heap(&mut heap, max_side);
                let same = g.fm_pass_spanned(&mut buckets, max_side, span);
                assert_eq!(
                    (improved, &heap),
                    (same, &buckets),
                    "{what}: span {span:?}, pass {pass}"
                );
                if !improved {
                    break;
                }
            }
        }
    }

    /// `graphs` random weighted graphs of up to `max_n` vertices, each from a random
    /// and from a grown start under a tight balance bound (0–3 % slack).
    fn buckets_match_heap_on_random_graphs(graphs: u64, max_n: usize, narrow: bool) {
        for seed in 0..graphs {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..max_n + 1);
            let g = random_wgraph(&mut rng, n);
            let slack = rng.gen_range(0..4) as f64 / 100.0;
            let max_side = ((g.total_vweight() as f64 / 2.0) * (1.0 + slack)).ceil() as u64;
            let random: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2)).collect();
            assert_passes_agree(
                &g,
                &random,
                max_side,
                narrow,
                &format!("seed {seed}, random start"),
            );
            let grown = g.grow_partition(rng.gen_range(0..n) as u32);
            assert_passes_agree(
                &g,
                &grown,
                max_side,
                narrow,
                &format!("seed {seed}, grown start"),
            );
        }
    }

    #[test]
    fn gain_buckets_match_the_heap_pass() {
        buckets_match_heap_on_random_graphs(60, 150, true);
    }

    /// The same at scale, optimised: `cargo test --release -p spectralfly-graph --lib
    /// partition -- --ignored`.
    #[test]
    #[ignore = "hundreds of graphs of up to 2,000 vertices; run optimised"]
    fn gain_buckets_match_the_heap_pass_at_scale() {
        buckets_match_heap_on_random_graphs(300, 2000, false);
    }

    /// Every coarse level of the paper's fabrics, refined from a grown start under the
    /// default balance bound: the levels whose vertices weigh 1 to dozens.
    #[test]
    fn gain_buckets_match_the_heap_pass_on_coarse_levels() {
        for (name, g) in paper_graphs() {
            let mut rng = StdRng::seed_from_u64(7);
            let mut level = WGraph::from_csr(&g);
            let max_side = ((level.total_vweight() as f64 / 2.0) * 1.02).ceil() as u64;
            for depth in 0.. {
                let start = level.grow_partition(rng.gen_range(0..level.n()) as u32);
                assert_passes_agree(
                    &level,
                    &start,
                    max_side,
                    true,
                    &format!("{name}, level {depth}"),
                );
                match level.coarsen(&mut rng) {
                    Some((coarse, _)) if level.n() > 20 => level = coarse,
                    _ => break,
                }
            }
        }
    }

    /// FNV-1a over a side or owner vector.
    fn fnv<T: Copy + Into<u64>>(xs: &[T]) -> u64 {
        xs.iter().fold(0xCBF2_9CE4_8422_2325, |h, &x| {
            (h ^ x.into()).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// LPS(11,7) and SlimFly(9), copied into this crate's graph type (the
    /// topology crate links its own copy of this one).
    fn paper_graphs() -> Vec<(&'static str, CsrGraph)> {
        use spectralfly_topology::{LpsGraph, SlimFlyGraph, Topology};
        let copy = |t: &dyn Topology| {
            let g = t.graph();
            let adj = (0..g.num_vertices() as VertexId).map(|v| g.neighbors(v).to_vec());
            CsrGraph::from_sorted_adjacency(adj.collect())
        };
        vec![
            ("LPS(11,7)", copy(&LpsGraph::new(11, 7).unwrap())),
            ("SlimFly(9)", copy(&SlimFlyGraph::new(9).unwrap())),
        ]
    }

    /// Every bisection and k-way partition of the paper's fabrics is pinned:
    /// `(cut, hash of side)` for three seeds, and the owner hash at k = 2
    /// and 4, recorded from the binary-heap FM pass.
    #[test]
    fn bisections_are_pinned() {
        /// A fabric's name, its `(cut, side hash)` at seeds 1–3, and its owner
        /// hashes at k = 2 and 4.
        type Pinned = (&'static str, [(u64, u64); 3], [u64; 2]);
        let expected: [Pinned; 2] = [
            (
                "LPS(11,7)",
                [
                    (308, 12181488219640279871),
                    (308, 3221728322052636077),
                    (288, 14985384751102798188),
                ],
                [9379446629824639019, 10462777384929695727],
            ),
            (
                "SlimFly(9)",
                [
                    (369, 9522400873720646244),
                    (375, 16879698284390934334),
                    (369, 17246087968314260622),
                ],
                [4963813952381845322, 15074492826115659165],
            ),
        ];
        let cfg = BisectConfig::default();
        for ((name, g), (pinned_name, bisections, kway)) in paper_graphs().into_iter().zip(expected)
        {
            assert_eq!(name, pinned_name);
            let got: Vec<(u64, u64)> = [1u64, 2, 3]
                .iter()
                .map(|&seed| {
                    let b = bisect(&g, &cfg, seed);
                    (b.cut, fnv(&b.side))
                })
                .collect();
            let owners: Vec<u64> = [2usize, 4]
                .iter()
                .map(|&k| fnv(&partition_kway(&g, k, &cfg, 0x5EED)))
                .collect();
            assert_eq!(got, bisections, "{name}: bisections");
            assert_eq!(owners, kway, "{name}: k-way owners");
        }
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
