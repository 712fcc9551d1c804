//! Exactness battery for the dense minimal-port scan: on every `(src, dst)` pair,
//! `DenseOracle`'s packed and wide queries must equal the definition — port `i`
//! of `src` is minimal toward `dst` iff a BFS from its neighbour `wᵢ` reaches
//! `dst` one hop sooner than a BFS from `src` — including disconnected pairs and
//! self-destinations. The definition never reads a `DistanceMatrix`, so it pins
//! the scan's read of the destination's row (which equals the neighbour's
//! column only because the graph is undirected) on random graphs, on the
//! degraded paper fabrics a failure sweep rebuilds, and on a graph where every
//! pair of a part has 30–33 minimal ports.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::failures::delete_random_edges;
use spectralfly_graph::metrics::is_connected;
use spectralfly_graph::paths::UNREACHABLE_U16;
use spectralfly_graph::{CsrGraph, DenseOracle, PathOracle, VertexId};
use spectralfly_topology::{
    BundleFlyGraph, GeneralizedDragonFly, LpsGraph, SlimFlyGraph, Topology,
};
use std::collections::VecDeque;

/// Hop counts from `source` by a queue BFS; `u32::MAX` marks unreachable.
fn bfs(g: &CsrGraph, source: VertexId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_vertices()];
    dist[source as usize] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[u as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// The oracle's distances and both port queries equal the BFS definition on
/// every ordered pair of `g`.
fn assert_scan_exact(g: &CsrGraph, what: &str) {
    let oracle = DenseOracle::build(g).expect("fits the dense matrix");
    let n = g.num_vertices() as VertexId;
    let from: Vec<Vec<u32>> = (0..n).map(|v| bfs(g, v)).collect();
    let (mut packed, mut wide) = (Vec::new(), Vec::new());
    for src in 0..n {
        let neighbours = g.neighbors(src);
        for dst in 0..n {
            let d = from[src as usize][dst as usize];
            let expect: Vec<usize> = (0..neighbours.len())
                .filter(|&i| d != u32::MAX && from[neighbours[i] as usize][dst as usize] + 1 == d)
                .collect();
            let dist = u16::try_from(d).unwrap_or(UNREACHABLE_U16);
            assert_eq!(oracle.dist(g, src, dst), dist, "{what}: dist({src}, {dst})");
            let got = oracle.min_ports_u8(g, src, dst, &mut packed);
            assert!(
                got.iter().map(|&p| p as usize).eq(expect.iter().copied()),
                "{what}: min_ports_u8({src}, {dst})"
            );
            oracle.min_ports_into(g, src, dst, &mut wide);
            assert_eq!(wide, expect, "{what}: min_ports_into({src}, {dst})");
        }
    }
}

/// The four `sweep_rebuild` fabrics with a fifth of their links failed — the
/// heaviest damage that workload rebuilds the oracle for (≈7 M pairs, seconds
/// once optimised: CI runs this package with `--release` for it) — or, in a
/// debug build, the small-scale member of each family.
#[test]
fn scan_is_exact_on_the_degraded_sweep_fabrics() {
    let full = !cfg!(debug_assertions);
    let fabrics: [Box<dyn Topology>; 4] = if full {
        [
            Box::new(LpsGraph::new(23, 13).unwrap()),
            Box::new(SlimFlyGraph::new(27).unwrap()),
            Box::new(BundleFlyGraph::new(9, 9).unwrap()),
            Box::new(GeneralizedDragonFly::new(16, 8, 69).unwrap()),
        ]
    } else {
        [
            Box::new(LpsGraph::new(11, 7).unwrap()),
            Box::new(SlimFlyGraph::new(9).unwrap()),
            Box::new(BundleFlyGraph::new(13, 3).unwrap()),
            Box::new(GeneralizedDragonFly::new(8, 4, 21).unwrap()),
        ]
    };
    for fabric in &fabrics {
        let damaged = delete_random_edges(fabric.graph(), 0.2, 3606);
        assert_scan_exact(&damaged, &fabric.name());
    }
}

/// Damage past the disconnection threshold: ports toward another component
/// are empty, and an unreachable neighbour is never minimal.
#[test]
fn scan_is_exact_on_a_graph_the_damage_disconnects() {
    let lps = LpsGraph::new(11, 7).unwrap();
    let damaged = delete_random_edges(lps.graph(), 0.8, 3606);
    assert!(!is_connected(&damaged), "0.8 of the links gone must cut it");
    assert_scan_exact(&damaged, "LPS(11,7) in pieces");
}

/// Complete multipartite K(9,10,11,12): two routers of one part are two hops
/// apart through every router outside it — 30 to 33 minimal ports, the longest
/// lists any test here builds.
#[test]
fn scan_is_exact_with_thirty_minimal_ports_per_pair() {
    let parts = [9u32, 10, 11, 12];
    let part_of: Vec<usize> = (0..4).flat_map(|i| vec![i; parts[i] as usize]).collect();
    let n = part_of.len() as u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| part_of[u as usize] != part_of[v as usize])
        .collect();
    let g = CsrGraph::from_edges(n as usize, &edges);
    assert_scan_exact(&g, "K(9,10,11,12)");
    let oracle = DenseOracle::build(&g).unwrap();
    let mut scratch = Vec::new();
    for u in 0..n {
        let part = parts[part_of[u as usize]];
        let peer = (0..n).find(|&v| v != u && part_of[v as usize] == part_of[u as usize]);
        let ports = oracle.min_ports_u8(&g, u, peer.unwrap(), &mut scratch);
        assert_eq!(ports.len() as u32, n - part);
    }
}

/// A random graph, deterministic in `seed`: a ring spine (keeps most instances
/// connected) plus random chords, with an option to delete spine edges so some
/// instances are genuinely disconnected.
fn random_graph(n: usize, extra: usize, cut: bool, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = (0..n as u32)
        .map(|i| (i, (i + 1) % n as u32))
        .filter(|_| !cut || rng.gen_range(0..4usize) != 0)
        .collect();
    for _ in 0..extra {
        let a = rng.gen_range(0..n) as u32;
        let b = rng.gen_range(0..n) as u32;
        if a != b {
            edges.push((a, b));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scan_is_exact_on_random_graphs(
        n in 2usize..40,
        extra in 0usize..30,
        cut in 0usize..2,
        seed in 0u64..10_000,
    ) {
        assert_scan_exact(&random_graph(n, extra, cut == 1, seed), "random graph");
    }
}
