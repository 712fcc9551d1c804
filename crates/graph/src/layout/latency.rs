//! End-to-end latency under a physical placement (Fig. 11 of the paper).
//!
//! Each link's delay is its wire length × 5 ns/m; each traversed switch adds a uniform
//! switch latency. End-to-end latency between two routers is the minimum total delay over
//! all paths (Dijkstra on the weighted graph), and the paper reports the average and the
//! maximum over all router pairs as the switch latency sweeps from 0 to 250 ns.

use crate::csr::{CsrGraph, VertexId};
use crate::layout::qap::Placement;
use rayon::prelude::*;

/// Cable propagation delay in ns per metre (the paper's assumption).
pub const CABLE_DELAY_NS_PER_M: f64 = 5.0;

/// Average and maximum end-to-end latency of a placed topology at one switch latency.
#[derive(Clone, Copy, Debug)]
pub struct LatencyProfile {
    /// Switch latency assumed per traversed router, in ns.
    pub switch_latency_ns: f64,
    /// Mean over all ordered router pairs of the minimum end-to-end latency, in ns.
    pub average_latency_ns: f64,
    /// Maximum over all router pairs, in ns.
    pub max_latency_ns: f64,
}

/// Compute min end-to-end latencies from `src` to all routers (Dijkstra).
fn dijkstra_latency(
    g: &CsrGraph,
    placement: &Placement,
    src: VertexId,
    switch_latency_ns: f64,
) -> Vec<f64> {
    let n = g.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    dist[src as usize] = 0.0;
    // Binary heap keyed on negative latency (max-heap -> min-heap via Reverse on bits).
    let mut heap = std::collections::BinaryHeap::new();
    heap.push((std::cmp::Reverse(ordered_float(0.0)), src));
    while let Some((std::cmp::Reverse(d), u)) = heap.pop() {
        let d = from_ordered(d);
        if d > dist[u as usize] + 1e-12 {
            continue;
        }
        for &w in g.neighbors(u) {
            let wire = placement.link_length_m(u, w);
            let nd = d + wire * CABLE_DELAY_NS_PER_M + switch_latency_ns;
            if nd + 1e-12 < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push((std::cmp::Reverse(ordered_float(nd)), w));
            }
        }
    }
    dist
}

// f64 does not implement Ord; encode finite non-negative latencies monotonically as u64.
fn ordered_float(x: f64) -> u64 {
    debug_assert!(x >= 0.0 && x.is_finite());
    x.to_bits()
}
fn from_ordered(b: u64) -> f64 {
    f64::from_bits(b)
}

/// Compute the latency profile of a placed topology for one switch latency.
pub fn latency_profile(
    g: &CsrGraph,
    placement: &Placement,
    switch_latency_ns: f64,
) -> LatencyProfile {
    let n = g.num_vertices();
    assert!(n >= 2, "latency profile needs at least two routers");
    let per_source: Vec<(f64, f64)> = (0..n as VertexId)
        .into_par_iter()
        .map(|s| {
            let d = dijkstra_latency(g, placement, s, switch_latency_ns);
            let mut sum = 0.0;
            let mut max = 0.0f64;
            for (t, &x) in d.iter().enumerate() {
                if t == s as usize {
                    continue;
                }
                sum += x;
                max = max.max(x);
            }
            (sum, max)
        })
        .collect();
    let total: f64 = per_source.iter().map(|(s, _)| s).sum();
    let max = per_source.iter().map(|(_, m)| *m).fold(0.0f64, f64::max);
    LatencyProfile {
        switch_latency_ns,
        average_latency_ns: total / (n as f64 * (n as f64 - 1.0)),
        max_latency_ns: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::qap::{place_topology, QapConfig};

    fn ring(n: usize) -> CsrGraph {
        let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        e.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &e)
    }

    fn complete(n: usize) -> CsrGraph {
        let mut e = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                e.push((u, v));
            }
        }
        CsrGraph::from_edges(n, &e)
    }

    #[test]
    fn latency_grows_with_switch_latency() {
        let g = ring(20);
        let p = place_topology(
            &g,
            &QapConfig {
                anneal_iters: 2000,
                ..Default::default()
            },
        );
        let l0 = latency_profile(&g, &p, 0.0);
        let l100 = latency_profile(&g, &p, 100.0);
        let l250 = latency_profile(&g, &p, 250.0);
        assert!(l100.average_latency_ns > l0.average_latency_ns);
        assert!(l250.average_latency_ns > l100.average_latency_ns);
        assert!(l250.max_latency_ns >= l250.average_latency_ns);
    }

    #[test]
    fn complete_graph_latency_is_single_hop() {
        // In a complete graph every pair is one hop, so max latency = longest wire * 5 + s.
        let g = complete(10);
        let p = place_topology(
            &g,
            &QapConfig {
                anneal_iters: 2000,
                ..Default::default()
            },
        );
        let s = 50.0;
        let prof = latency_profile(&g, &p, s);
        let longest = p.link_lengths_m(&g).iter().cloned().fold(0.0f64, f64::max);
        // Multi-hop detours could only be cheaper if switch latency were negative, so the
        // max end-to-end latency never exceeds the single-hop worst case.
        assert!(prof.max_latency_ns <= longest * CABLE_DELAY_NS_PER_M + s + 1e-9);
        assert!(prof.average_latency_ns > 0.0);
    }

    #[test]
    fn zero_switch_latency_still_counts_wire_delay() {
        let g = ring(8);
        let p = place_topology(
            &g,
            &QapConfig {
                anneal_iters: 500,
                ..Default::default()
            },
        );
        let prof = latency_profile(&g, &p, 0.0);
        // Every pair is at least one 2 m hop away: >= 10 ns.
        assert!(prof.average_latency_ns >= 10.0);
    }
}
