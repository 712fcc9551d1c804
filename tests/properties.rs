//! Property-based tests (proptest) over the core invariants: finite-field axioms, LPS
//! construction invariants, CSR graph behaviour under edge deletion, and simulator
//! conservation laws.

use proptest::prelude::*;
use spectralfly_suite::*;

use spectralfly_ff::field::FiniteField;
use spectralfly_ff::primes::{is_prime, odd_primes_below};
use spectralfly_ff::quaternion::lps_generators_quadruples;
use spectralfly_ff::residue::{legendre, sqrt_mod_prime};
use spectralfly_graph::csr::CsrGraph;
use spectralfly_graph::failures::delete_random_edges;
use spectralfly_graph::metrics::{bfs_distances, diameter_and_mean_distance};
use spectralfly_simnet::config::PACKET_BYTES;
use spectralfly_simnet::{SimConfig, SimNetwork, Simulator, Workload};
use spectralfly_topology::spec::TopologySpec;
use spectralfly_topology::{JellyFishGraph, LpsGraph, Topology};

fn small_odd_primes() -> Vec<u64> {
    odd_primes_below(60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Field axioms hold for arbitrary prime fields and random element triples.
    #[test]
    fn prime_field_axioms(p_idx in 0usize..15, a in 0u64..1000, b in 0u64..1000, c in 0u64..1000) {
        let primes = small_odd_primes();
        let p = primes[p_idx % primes.len()];
        let f = FiniteField::new(p).unwrap();
        let (a, b, c) = (a % p, b % p, c % p);
        prop_assert_eq!(f.add(a, b), f.add(b, a));
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        prop_assert_eq!(f.add(a, f.neg(a)), 0);
        if a != 0 {
            prop_assert_eq!(f.mul(a, f.inv(a)), 1);
        }
    }

    /// Square roots round-trip for arbitrary residues modulo arbitrary odd primes.
    #[test]
    fn sqrt_roundtrip(p_idx in 0usize..15, a in 0u64..10_000) {
        let primes = small_odd_primes();
        let p = primes[p_idx % primes.len()];
        let a = a % p;
        match sqrt_mod_prime(a, p) {
            Some(r) => prop_assert_eq!(r * r % p, a),
            None => prop_assert_eq!(legendre(a, p), -1),
        }
    }

    /// The LPS generator normalization always yields exactly p + 1 quadruples of norm p.
    #[test]
    fn lps_quadruple_count(p_idx in 0usize..15) {
        let primes = small_odd_primes();
        let p = primes[p_idx % primes.len()];
        let quads = lps_generators_quadruples(p);
        prop_assert_eq!(quads.len() as u64, p + 1);
        for q in quads {
            prop_assert_eq!(q.norm(), p as i64);
        }
    }

    /// The closed-form LPS vertex-count formula matches the constructed graph, and the graph
    /// is always (p+1)-regular, for every admissible pair drawn from the small prime pool.
    #[test]
    fn lps_formula_matches_construction(pi in 0usize..6, qi in 0usize..6) {
        let ps = [3u64, 5, 7, 11, 13, 17];
        let qs = [5u64, 7, 11, 13, 17, 19];
        let (p, q) = (ps[pi], qs[qi]);
        prop_assume!(p != q && q * q > 4 * p && is_prime(p) && is_prime(q));
        // Keep the largest instances out of the property loop for speed.
        prop_assume!(TopologySpec::Lps { p, q }.num_routers() <= 2500);
        let g = LpsGraph::new(p, q).unwrap();
        prop_assert_eq!(g.graph().num_vertices() as u64, LpsGraph::expected_vertices(p, q));
        prop_assert_eq!(g.graph().regular_degree(), Some((p + 1) as usize));
    }

    /// Deleting edges never decreases distances and never increases the edge count.
    #[test]
    fn edge_deletion_is_monotone(seed in 0u64..500, proportion in 0.0f64..0.5) {
        let g = JellyFishGraph::new(60, 4, seed).unwrap();
        let damaged = delete_random_edges(g.graph(), proportion, seed);
        prop_assert!(damaged.num_edges() <= g.graph().num_edges());
        let before = bfs_distances(g.graph(), 0);
        let after = bfs_distances(&damaged, 0);
        for (b, a) in before.iter().zip(after.iter()) {
            // Unreachable (MAX) is always >= any finite distance.
            prop_assert!(*a >= *b);
        }
    }

    /// Random regular graphs from the JellyFish generator are simple and regular.
    #[test]
    fn jellyfish_regularity(n in 8usize..60, k in 3usize..6, seed in 0u64..1000) {
        prop_assume!(k < n && n * k % 2 == 0);
        let g = JellyFishGraph::new(n, k, seed).unwrap();
        prop_assert_eq!(g.graph().regular_degree(), Some(k));
        prop_assert_eq!(g.graph().num_edges(), n * k / 2);
    }

    /// Simulator conservation: every injected packet is delivered exactly once, regardless of
    /// pattern, message size, or offered load.
    #[test]
    fn simulator_delivers_everything(
        msgs in 1usize..6,
        bytes in 64u64..16_384,
        load_pct in 1u32..10,
        seed in 0u64..100,
    ) {
        let ring: Vec<(u32, u32)> = (0..8u32).map(|i| (i, (i + 1) % 8)).collect();
        let net = SimNetwork::new(CsrGraph::from_edges(8, &ring), 2);
        let wl = Workload::uniform_random(net.num_endpoints(), msgs, bytes, seed);
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, load_pct as f64 / 10.0);
        let expected_packets: u64 = wl
            .messages
            .iter()
            .map(|m| m.bytes.div_ceil(PACKET_BYTES).max(1))
            .sum();
        prop_assert_eq!(res.delivered_packets, expected_packets);
        prop_assert_eq!(res.delivered_bytes, wl.total_bytes());
    }

    /// Mean distance is always between 1 and the diameter for connected non-trivial graphs.
    #[test]
    fn mean_distance_bounded_by_diameter(n in 10usize..80, k in 3usize..6, seed in 0u64..200) {
        prop_assume!(k < n && n * k % 2 == 0);
        let g = JellyFishGraph::new(n, k, seed).unwrap();
        if let Some((diam, mean)) = diameter_and_mean_distance(g.graph()) {
            prop_assert!(mean >= 1.0);
            prop_assert!(mean <= diam as f64);
        }
    }

    /// The shared distance oracle agrees with a brute-force Floyd–Warshall oracle on
    /// random JellyFish graphs: distances match, and `min_next_hops` returns exactly
    /// the neighbours that decrease the brute-force distance by one.
    #[test]
    #[allow(clippy::needless_range_loop)] // index-heavy Floyd–Warshall reads clearest as written
    fn min_next_hops_match_bruteforce_oracle(n in 6usize..32, k in 3usize..6, seed in 0u64..500) {
        prop_assume!(k < n && n * k % 2 == 0);
        let g = JellyFishGraph::new(n, k, seed).unwrap();
        let dm = spectralfly_graph::paths::DistanceMatrix::from_graph(g.graph());

        // Independent oracle: Floyd–Warshall over the adjacency lists.
        const INF: u32 = u32::MAX / 4;
        let mut fw = vec![vec![INF; n]; n];
        for v in 0..n {
            fw[v][v] = 0;
            for &w in g.graph().neighbors(v as u32) {
                fw[v][w as usize] = 1;
            }
        }
        for mid in 0..n {
            for a in 0..n {
                for b in 0..n {
                    let via = fw[a][mid].saturating_add(fw[mid][b]);
                    if via < fw[a][b] {
                        fw[a][b] = via;
                    }
                }
            }
        }

        for cur in 0..n {
            for dst in 0..n {
                let expected_dist =
                    if fw[cur][dst] >= INF { u16::MAX } else { fw[cur][dst] as u16 };
                prop_assert_eq!(dm.dist(cur as u32, dst as u32), expected_dist, "({}, {})", cur, dst);
                let mut expected: Vec<u32> = if cur == dst {
                    Vec::new()
                } else {
                    g.graph()
                        .neighbors(cur as u32)
                        .iter()
                        .copied()
                        .filter(|&w| fw[w as usize][dst].saturating_add(1) == fw[cur][dst])
                        .collect()
                };
                let mut got = dm.min_next_hops(g.graph(), cur as u32, dst as u32);
                expected.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(got, expected, "next hops ({}, {})", cur, dst);
            }
        }
    }

    /// Registry-driven conformance: every registered routing algorithm delivers every
    /// packet of a random workload and stays within the hop bound implied by its VC
    /// rule, on an arbitrary ring + concentration + seed.
    #[test]
    fn every_registered_algorithm_conserves_packets(
        routers in 4usize..12,
        conc in 1usize..4,
        seed in 0u64..100,
    ) {
        let ring: Vec<(u32, u32)> =
            (0..routers as u32).map(|i| (i, (i + 1) % routers as u32)).collect();
        let net = SimNetwork::new(CsrGraph::from_edges(routers, &ring), conc);
        let wl = Workload::uniform_random(net.num_endpoints(), 3, 2048, seed);
        let expected_packets: u64 = wl
            .messages
            .iter()
            .map(|m| m.bytes.div_ceil(PACKET_BYTES).max(1))
            .sum();
        // A fresh built-ins registry keeps the test set independent of custom
        // routers other test binaries register into the process-global registry.
        for name in spectralfly_simnet::RouterRegistry::with_builtins().names() {
            let mut cfg = SimConfig::default().with_routing(name.clone(), net.diameter() as u32);
            cfg.seed = seed;
            let res = Simulator::new(&net, &cfg).run(&wl);
            prop_assert_eq!(res.delivered_packets, expected_packets, "{}", &name);
            prop_assert!(
                (res.max_hops as usize) < cfg.num_vcs,
                "{}: {} hops >= VC bound {}", &name, res.max_hops, cfg.num_vcs
            );
        }
    }
}
