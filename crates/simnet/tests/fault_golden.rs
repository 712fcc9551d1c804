//! Golden-seed lock: `FaultPlan::none()` is the identity.
//!
//! The acceptance bar for the fault subsystem is that fault-free simulation is
//! **bit-identical** to the pre-fault engine: building a network through
//! [`SimNetwork::with_faults`] with the empty plan must produce exactly the
//! results of [`SimNetwork::new`] — same construction path, same RNG
//! consumption, same `SimResults` field for field — across finite,
//! offered-load, and steady-state (windowed, with and without a live pattern)
//! runs.

use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    FaultPlan, MeasurementWindows, SimConfig, SimError, SimNetwork, Simulator, Workload,
};

fn chordal_ring(n: usize, chords: &[(u32, u32)]) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    e.extend_from_slice(chords);
    CsrGraph::from_edges(n, &e)
}

#[test]
fn none_plan_is_bit_identical_across_run_modes() -> Result<(), SimError> {
    let graph = chordal_ring(10, &[(0, 5), (2, 7), (3, 8)]);
    let pristine = SimNetwork::new(graph.clone(), 2);
    let via_plan = SimNetwork::with_faults(graph, 2, &FaultPlan::none()).unwrap();
    assert!(!via_plan.has_faults());

    for routing in ["minimal", "valiant", "ugal-l", "ugal-g"] {
        for seed in [1u64, 42, 0x5EED] {
            let mut cfg = SimConfig::default().with_routing(routing, pristine.diameter() as u32);
            cfg.seed = seed;
            let wl = Workload::uniform_random(pristine.num_endpoints(), 4, 2048, seed);

            // Finite, workload-paced.
            let a = Simulator::new(&pristine, &cfg).try_run(&wl)?;
            let b = Simulator::new(&via_plan, &cfg).try_run(&wl)?;
            assert_eq!(a, b, "{routing}/seed {seed}: finite run diverged");

            // Finite, offered-load.
            let a = Simulator::new(&pristine, &cfg).try_run_with_offered_load(&wl, 0.4)?;
            let b = Simulator::new(&via_plan, &cfg).try_run_with_offered_load(&wl, 0.4)?;
            assert_eq!(a, b, "{routing}/seed {seed}: offered-load run diverged");

            // Steady-state, template destinations.
            let mut scfg = cfg.clone();
            scfg.windows = Some(MeasurementWindows::new(1_000_000, 8_000_000));
            let a = Simulator::new(&pristine, &scfg).try_run_with_offered_load(&wl, 0.3)?;
            let b = Simulator::new(&via_plan, &scfg).try_run_with_offered_load(&wl, 0.3)?;
            assert_eq!(a, b, "{routing}/seed {seed}: steady run diverged");

            // Steady-state, live pattern (the alive-endpoint mapping must not
            // engage on pristine networks).
            let mut pcfg = cfg.clone();
            pcfg.windows =
                Some(MeasurementWindows::new(1_000_000, 8_000_000).with_pattern("adversarial(4)"));
            let a = Simulator::new(&pristine, &pcfg).try_run_with_offered_load(&wl, 0.3)?;
            let b = Simulator::new(&via_plan, &pcfg).try_run_with_offered_load(&wl, 0.3)?;
            assert_eq!(a, b, "{routing}/seed {seed}: pattern steady run diverged");
        }
    }
    Ok(())
}

#[test]
fn vacuously_applied_plans_are_pristine_too() -> Result<(), SimError> {
    // A plan whose damage misses the graph entirely (absent link) must also
    // take the pristine construction path.
    let graph = chordal_ring(8, &[]);
    let plan = FaultPlan::parse("link(0, 4)").unwrap(); // the 8-ring has no chord (0,4)
    let net = SimNetwork::with_faults(graph.clone(), 1, &plan).unwrap();
    assert!(!net.has_faults());
    let cfg = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
    let wl = Workload::uniform_random(net.num_endpoints(), 5, 1024, 9);
    assert_eq!(
        Simulator::new(&net, &cfg).try_run(&wl)?,
        Simulator::new(&SimNetwork::new(graph, 1), &cfg).try_run(&wl)?,
    );
    Ok(())
}
