//! Equality battery for the packed next-hop table: every `(src, dst)` lookup must
//! equal the scan-based `min_next_ports` derivation the table precomputes —
//! including disconnected pairs and self-destinations — on random graphs, on the
//! degraded paper fabrics a failure sweep rebuilds it for, and on graphs whose
//! lists all outgrow the inline row.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::failures::delete_random_edges;
use spectralfly_graph::metrics::is_connected;
use spectralfly_graph::paths::{DistanceMatrix, NextHopTable};
use spectralfly_graph::{CsrGraph, VertexId};
use spectralfly_topology::{
    BundleFlyGraph, GeneralizedDragonFly, LpsGraph, SlimFlyGraph, Topology,
};

/// Table and scan agree on every ordered pair of `g`; returns the table.
fn assert_table_equals_scan(g: &CsrGraph, what: &str) -> NextHopTable {
    let dm = DistanceMatrix::from_graph(g);
    let table = NextHopTable::build(g, &dm).expect("fits the budget");
    let n = g.num_vertices() as VertexId;
    for src in 0..n {
        for dst in 0..n {
            let scanned = dm.min_next_ports(g, src, dst);
            let packed = table.ports(src, dst).iter().map(|&p| p as usize);
            assert!(packed.eq(scanned), "{what}: ({src}, {dst})");
        }
    }
    table
}

/// The four `sweep_rebuild` fabrics with a fifth of their links failed — the
/// heaviest damage that workload rebuilds the table for (≈7 M pairs, seconds
/// once optimised: CI runs this package with `--release` for it) — or, in a
/// debug build, the small-scale member of each family.
#[test]
fn table_equals_scan_on_the_degraded_sweep_fabrics() {
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
        assert_table_equals_scan(&damaged, &fabric.name());
    }
}

/// Damage past the disconnection threshold: rows toward another component are
/// empty, and an unreachable neighbour is never minimal.
#[test]
fn table_equals_scan_on_a_graph_the_damage_disconnects() {
    let lps = LpsGraph::new(11, 7).unwrap();
    let damaged = delete_random_edges(lps.graph(), 0.8, 3606);
    assert!(!is_connected(&damaged), "0.8 of the links gone must cut it");
    assert_table_equals_scan(&damaged, "LPS(11,7) in pieces");
}

/// Complete multipartite K(9,10,11,12): two routers of one part are two hops
/// apart through every router outside it — 30 to 33 minimal ports — so every
/// router's share of the spill arena is non-empty, their sizes differ, and all
/// but the first are rebased when the shares are concatenated.
#[test]
fn table_equals_scan_when_every_router_spills() {
    let parts = [9u32, 10, 11, 12];
    let part_of: Vec<usize> = (0..4).flat_map(|i| vec![i; parts[i] as usize]).collect();
    let n = part_of.len() as u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| part_of[u as usize] != part_of[v as usize])
        .collect();
    let g = CsrGraph::from_edges(n as usize, &edges);
    let table = assert_table_equals_scan(&g, "K(9,10,11,12)");
    for u in 0..n {
        let part = parts[part_of[u as usize]];
        let peer = (0..n).find(|&v| v != u && part_of[v as usize] == part_of[u as usize]);
        assert_eq!(table.ports(u, peer.unwrap()).len() as u32, n - part);
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
    fn table_lookups_equal_scan_everywhere(
        n in 2usize..40,
        extra in 0usize..30,
        cut in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let g = random_graph(n, extra, cut == 1, seed);
        let dm = DistanceMatrix::from_graph(&g);
        let table = NextHopTable::build(&g, &dm).expect("small graphs always fit the budget");
        let mut buf = Vec::new();
        for src in 0..n as VertexId {
            for dst in 0..n as VertexId {
                let scanned = dm.min_next_ports(&g, src, dst);
                let packed: Vec<usize> = table.ports(src, dst).iter().map(|&p| p as usize).collect();
                prop_assert_eq!(&scanned, &packed, "({}, {})", src, dst);
                // The into-buffer fallback agrees too (same hot-path contract).
                dm.min_next_ports_into(&g, src, dst, &mut buf);
                prop_assert_eq!(&scanned, &buf, "into ({}, {})", src, dst);
            }
        }
    }

    /// Random (src, dst) probes on larger graphs than the exhaustive test can
    /// afford, exercising longer packed rows.
    #[test]
    fn table_lookups_equal_scan_sampled(
        n in 40usize..120,
        extra in 0usize..200,
        seed in 0u64..10_000,
    ) {
        let g = random_graph(n, extra, false, seed);
        let dm = DistanceMatrix::from_graph(&g);
        let table = NextHopTable::build(&g, &dm).expect("fits the budget");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1E);
        for _ in 0..64 {
            let src = rng.gen_range(0..n) as VertexId;
            let dst = rng.gen_range(0..n) as VertexId;
            let scanned = dm.min_next_ports(&g, src, dst);
            let packed: Vec<usize> = table.ports(src, dst).iter().map(|&p| p as usize).collect();
            prop_assert_eq!(&scanned, &packed, "({}, {})", src, dst);
        }
    }
}
