//! The routing registry in action: list the built-in algorithms, compare their
//! behaviour on a congested SpectralFly instance, and register a custom algorithm
//! at runtime — all without touching the simulator engine.

use spectralfly_simnet::routing::{self, Router, RoutingCtx, RoutingState};
use spectralfly_simnet::workload::random_placement;
use spectralfly_simnet::{SimConfig, SimNetwork, Simulator, Workload};
use spectralfly_topology::{LpsGraph, Topology};

/// Non-adaptive minimal routing: always the first shortest-path port, never
/// balancing load — a deliberately naive baseline to compare the built-ins against.
struct FirstPort;

impl Router for FirstPort {
    fn name(&self) -> &str {
        "first-port"
    }
    fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
        let target = state.current_target(ctx.dst());
        usize::from(ctx.minimal_ports(target)[0])
    }
}

fn main() {
    routing::register("first-port", || Box::new(FirstPort));
    println!(
        "registered algorithms: {}",
        routing::registered_names().join(", ")
    );

    let net = SimNetwork::new(LpsGraph::new(11, 7).unwrap().graph().clone(), 4);
    let placement = random_placement(256, net.num_endpoints(), 7);
    let wl = Workload::synthetic("transpose", 8, 6, 4096, 9)
        .unwrap()
        .place(&placement);

    println!("\ntranspose traffic on SpectralFly LPS(11,7) x4 at offered load 0.7:");
    println!(
        "{:<12} {:>12} {:>10} {:>10}",
        "algorithm", "completion", "mean hops", "max hops"
    );
    for name in routing::registered_names() {
        let cfg = SimConfig::default().with_routing(name.clone(), net.diameter() as u32);
        let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.7);
        println!(
            "{:<12} {:>9} us {:>10.3} {:>10}",
            name,
            res.completion_time_ps / 1_000_000,
            res.mean_hops,
            res.max_hops
        );
    }
}
