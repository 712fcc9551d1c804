//! Oracle invariance: swapping the path-oracle backing (dense matrix, landmark
//! labeling, Cayley translation) must never change simulation
//! physics. On tie-free topologies (odd rings: the minimal next hop is unique
//! for every pair) every backing yields bit-identical `SimResults` on the same
//! golden seed — the oracle changes memory and speed, never answers, which is
//! why the network picks it instead of the caller.
//!
//! VC counts are pinned explicitly in every config: the landmark oracle's
//! `diameter()` is an upper *bound* (≤ 2× exact), so deriving VCs from the
//! network under test would vary a config knob alongside the oracle.

use std::sync::Arc;

use spectralfly_graph::{CayleyOracle, CsrGraph, LandmarkOracle, OracleKind};
use spectralfly_simnet::{
    FaultPlan, MeasurementWindows, SimConfig, SimNetwork, SimResults, Simulator, Workload,
};

fn ring(n: usize) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    e.push((n as u32 - 1, 0));
    CsrGraph::from_edges(n, &e)
}

/// The ring is the Cayley graph of Z/n with generators ±1: `u⁻¹·v = v − u`.
fn ring_cayley(n: usize) -> CayleyOracle {
    let g = ring(n);
    let m = n as u32;
    CayleyOracle::new(&g, 0, Box::new(move |u, v| (v + m - u) % m), 0)
        .expect("ring translation validates")
}

/// The `n`-ring behind a landmark oracle, which `SimNetwork::new` would only
/// pick past the dense wall.
fn ring_landmark(n: usize, concentration: usize) -> SimNetwork {
    let oracle = LandmarkOracle::build(&ring(n)).expect("landmark builds");
    SimNetwork::with_oracle(ring(n), concentration, Arc::new(oracle))
}

/// Every oracle backing over the same `n`-ring, labelled for assertions.
fn backings(n: usize, concentration: usize) -> Vec<(&'static str, SimNetwork)> {
    vec![
        ("dense", SimNetwork::new(ring(n), concentration)),
        ("landmark", ring_landmark(n, concentration)),
        (
            "cayley",
            SimNetwork::with_oracle(ring(n), concentration, Arc::new(ring_cayley(n))),
        ),
    ]
}

fn assert_all_equal(results: Vec<(&'static str, SimResults)>) {
    let (base_name, base) = &results[0];
    for (name, res) in &results[1..] {
        assert_eq!(res, base, "{name} vs {base_name}");
    }
}

/// Finite golden run, minimal routing, tie-free ring: all three backings must
/// produce the identical `SimResults` — latency histograms, per-link counters,
/// and engine counters included.
#[test]
fn finite_golden_runs_are_identical_across_oracle_backings() {
    let results: Vec<(&'static str, SimResults)> = backings(9, 2)
        .into_iter()
        .map(|(name, net)| {
            let wl = Workload::uniform_random(net.num_endpoints(), 6, 2048, 41);
            let mut cfg = SimConfig::default().with_routing("minimal", 5);
            cfg.seed = 41;
            (name, Simulator::new(&net, &cfg).try_run(&wl).unwrap())
        })
        .collect();
    assert!(results[0].1.delivered_packets > 0);
    assert_all_equal(results);
}

/// Steady-state golden run under adaptive routing (UGAL-L reads queue state,
/// so any divergence in port sets would compound): identical results,
/// interval time-series included.
#[test]
fn steady_state_golden_runs_are_identical_across_oracle_backings() {
    let results: Vec<(&'static str, SimResults)> = backings(9, 2)
        .into_iter()
        .map(|(name, net)| {
            let wl = Workload::uniform_random(net.num_endpoints(), 1, 2048, 43);
            let cfg = SimConfig::default()
                .with_routing("ugal-l", 9)
                .with_windows(MeasurementWindows::new(2_000_000, 15_000_000));
            (
                name,
                Simulator::new(&net, &cfg)
                    .try_run_with_offered_load(&wl, 0.4)
                    .unwrap(),
            )
        })
        .collect();
    assert!(results[0].1.measurement.is_some());
    assert!(!results[0].1.samples.is_empty());
    assert_all_equal(results);
}

/// `SimNetwork::new` picks dense while the matrix fits and demotes to
/// landmarks past the u16 vertex-count wall — without the caller changing
/// anything.
#[test]
fn new_demotes_to_landmark_past_the_dense_wall() {
    let small = SimNetwork::new(ring(9), 1);
    assert_eq!(small.oracle_kind(), OracleKind::Dense);

    let n = u16::MAX as usize + 1;
    let big = SimNetwork::new(ring(n), 1);
    assert_eq!(big.oracle_kind(), OracleKind::Landmark);
    // The landmark footprint is what makes the demotion worthwhile: pinned
    // rows + cache budget stay far under the ~8 GiB the dense matrix needs.
    assert!(big.oracle_memory_bytes() < (n * n * 2) / 4);
}

/// Fault injection re-runs `SimNetwork::new` over the survivor graph: the result
/// is dense (small) or landmark (huge) but never Cayley — edge deletions break
/// vertex-transitivity, so translated distances would be wrong.
#[test]
fn fault_injection_demotes_to_a_non_cayley_oracle() {
    let plan = FaultPlan::parse("links(0.1)").unwrap().with_seed(7);
    let net = SimNetwork::with_faults(ring(64), 1, &plan).expect("plan leaves survivors");
    assert_eq!(net.oracle_kind(), OracleKind::Dense);

    let n = u16::MAX as usize + 1;
    let big = SimNetwork::with_faults(ring(n), 1, &plan).expect("plan leaves survivors");
    assert_eq!(big.oracle_kind(), OracleKind::Landmark);
}

/// The landmark row cache is a perf structure shared through `Arc`; exercising
/// the same network from two simulators concurrently must not perturb results.
#[test]
fn shared_landmark_cache_does_not_leak_state_between_runs() {
    let net = ring_landmark(9, 2);
    let wl = Workload::uniform_random(net.num_endpoints(), 6, 2048, 47);
    let mut cfg = SimConfig::default().with_routing("minimal", 5);
    cfg.seed = 47;
    let first = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
    let second = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
    assert_eq!(first, second, "warm cache changed results");
}
