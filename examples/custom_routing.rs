//! The routing registry in action: list the built-in algorithms, compare their
//! behaviour on a congested SpectralFly instance, and add a custom algorithm to
//! the registries a run carries — all without touching the simulator engine.

use spectralfly_simnet::routing::{Router, RoutingCtx, RoutingState};
use spectralfly_simnet::{
    MeasurementWindows, Registries, SimConfig, SimNetwork, Simulator, Workload,
};
use spectralfly_topology::{LpsGraph, Topology};
use std::error::Error;

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

fn main() -> Result<(), Box<dyn Error>> {
    // The built-ins plus `first-port`: only configs built over this value
    // can select it.
    let registries = Registries::default().with_router("first-port", || Box::new(FirstPort))?;
    let names = registries.routing.names();
    println!("registered algorithms: {}", names.join(", "));

    let net = SimNetwork::new(LpsGraph::new(11, 7)?.graph().clone(), 4);
    // 256 ranks scattered over the machine, each a Poisson source sending 4 KiB
    // messages to its transpose partner, measured in steady state.
    let mix = "traffic(1, transpose, 4096) x 256 @ random";

    println!("\n{mix} on SpectralFly LPS(11,7) x4 at offered load 0.7:");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "algorithm", "tput Gb/s", "p99", "mean hops", "max hops"
    );
    for name in names {
        let cfg = SimConfig::from(registries.clone())
            .with_routing(name.clone(), net.diameter() as u32)
            .with_windows(MeasurementWindows::new(2_000_000, 8_000_000))
            .with_jobs(mix);
        // A steady run's traffic is its job mix; the workload argument stays empty.
        let res =
            Simulator::new(&net, &cfg).try_run_with_offered_load(&Workload::default(), 0.7)?;
        let m = res.measurement.ok_or("windowed run")?;
        println!(
            "{:<12} {:>10.1} {:>7.2} us {:>10.3} {:>10}",
            name,
            m.throughput_gbps(),
            res.p99_packet_latency_ps as f64 / 1e6,
            res.mean_hops,
            res.max_hops
        );
    }
    Ok(())
}
