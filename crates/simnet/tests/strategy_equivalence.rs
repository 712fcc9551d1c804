//! Table/scan strategy battery: the packed next-hop table is a pure lookup
//! structure, so simulation results must be **bit-identical** whether the routing
//! hot path reads the table or falls back to scanning the distance matrix — on
//! both engines, across routing algorithms, finite and offered-load runs.
//!
//! This is the determinism half of the hot-path contract (the performance half
//! is the repo benchmark's `simnet.routing.decisions_per_s.*` probes); it pins
//! down that `best_minimal_port`'s two-pass
//! min+count / pick-k-th walk consumes the RNG exactly as the collect-into-`Vec`
//! implementation did, under both port-set representations.

use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    FaultPlan, ReferenceSimulator, RouterRegistry, SimConfig, SimNetwork, Simulator, Workload,
};

fn ring(n: usize) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    e.push((n as u32 - 1, 0));
    CsrGraph::from_edges(n, &e)
}

/// A connected random graph: ring spine plus random chords, deterministic in `seed`.
fn chordal_ring(n: usize, extra: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: std::collections::BTreeSet<(u32, u32)> = (0..n as u32)
        .map(|i| {
            let j = (i + 1) % n as u32;
            (i.min(j), i.max(j))
        })
        .collect();
    for _ in 0..extra * 4 {
        if edges.len() >= n + extra {
            break;
        }
        let a = rng.gen_range(0..n) as u32;
        let b = rng.gen_range(0..n) as u32;
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    let edges: Vec<(u32, u32)> = edges.into_iter().collect();
    CsrGraph::from_edges(n, &edges)
}

/// Every registered algorithm × several seeds × both engines × finite and
/// offered-load runs: table-backed and scan-backed networks must agree exactly
/// — on pristine graphs and on one degraded by a fault plan, whose oracle and
/// table are rebuilt over the surviving links.
#[test]
fn golden_seed_results_identical_across_table_and_scan() {
    let degraded = SimNetwork::with_faults(
        chordal_ring(16, 9, 77),
        2,
        &FaultPlan::random_links(0.1).with_seed(1),
    )
    .unwrap();
    assert!(degraded.has_faults());
    let nets: Vec<(&str, SimNetwork)> = vec![
        ("ring10", SimNetwork::new(ring(10), 2)),
        ("chordal12", SimNetwork::new(chordal_ring(12, 6, 5), 2)),
        ("chordal16", SimNetwork::new(chordal_ring(16, 9, 77), 1)),
        ("chordal16-links0.1", degraded),
    ];
    for (gname, table_net) in nets {
        assert!(
            table_net.next_hop_table().is_some(),
            "{gname}: small nets must build the table"
        );
        let scan_net = table_net.clone().without_next_hop_table();
        for name in RouterRegistry::with_builtins().names() {
            for seed in [1u64, 42, 1303] {
                let mut cfg =
                    SimConfig::default().with_routing(name.clone(), table_net.diameter() as u32);
                cfg.seed = seed;
                let wl = Workload::uniform_random(table_net.num_endpoints(), 6, 2048, seed);

                let t = Simulator::new(&table_net, &cfg).run(&wl);
                let s = Simulator::new(&scan_net, &cfg).run(&wl);
                assert_eq!(t, s, "{gname}/{name}/seed{seed}: wakeup engine, finite run");

                let t_ref = ReferenceSimulator::new(&table_net, &cfg).run(&wl);
                let s_ref = ReferenceSimulator::new(&scan_net, &cfg).run(&wl);
                assert_eq!(t_ref, s_ref, "{gname}/{name}/seed{seed}: reference engine");

                let t_load = Simulator::new(&table_net, &cfg).run_with_offered_load(&wl, 0.8);
                let s_load = Simulator::new(&scan_net, &cfg).run_with_offered_load(&wl, 0.8);
                assert_eq!(t_load, s_load, "{gname}/{name}/seed{seed}: offered load");
            }
        }
    }
}

/// Steady-state (windowed continuous sources) runs take the same hot path; the
/// strategies must agree there too, including the time-series samples.
#[test]
fn steady_state_results_identical_across_table_and_scan() {
    let table_net = SimNetwork::new(ring(8), 2);
    let scan_net = table_net.clone().without_next_hop_table();
    let mut cfg = SimConfig::default().with_routing("ugal-g", table_net.diameter() as u32);
    cfg.windows = Some(spectralfly_simnet::MeasurementWindows::new(
        2_000_000, 20_000_000,
    ));
    cfg.seed = 9;
    let wl = Workload::uniform_random(table_net.num_endpoints(), 2, 4096, 9);
    let t = Simulator::new(&table_net, &cfg).run_with_offered_load(&wl, 0.7);
    let s = Simulator::new(&scan_net, &cfg).run_with_offered_load(&wl, 0.7);
    assert_eq!(t, s);
    assert!(t.measurement.is_some());
}
