//! The traffic-pattern registry in action: list the built-in patterns, drive
//! the steady-state sources with adversarial and uniform traffic on a congested
//! SpectralFly instance, and register a custom pattern at runtime — all without
//! touching the simulator engine.

use rand::rngs::StdRng;
use rand::Rng;
use spectralfly_simnet::pattern::{self, TrafficPattern};
use spectralfly_simnet::{MeasurementWindows, SimConfig, SimNetwork, Simulator, Workload};
use spectralfly_topology::{LpsGraph, Topology};
use std::error::Error;

/// A "ring neighbor exchange": each endpoint sends to one of its two ring
/// neighbours, chosen per message — the gentlest possible pattern.
struct NeighborExchange {
    n: usize,
}

impl TrafficPattern for NeighborExchange {
    fn name(&self) -> &str {
        "neighbor-exchange"
    }
    fn endpoints(&self) -> usize {
        self.n
    }
    fn dst(&self, src: usize, rng: &mut StdRng) -> usize {
        if rng.gen_range(0..2) == 0 {
            (src + 1) % self.n
        } else {
            (src + self.n - 1) % self.n
        }
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    pattern::register("neighbor-exchange", |ctx, _args| {
        Ok(Box::new(NeighborExchange { n: ctx.endpoints }))
    });
    println!(
        "registered patterns: {}",
        pattern::registered_names().join(", ")
    );

    let net = SimNetwork::new(LpsGraph::new(11, 7)?.graph().clone(), 4);
    // A steady run's traffic is its job mix: `traffic(1, spec)` makes every
    // endpoint a Poisson source drawing each destination live from `spec`,
    // so the workload argument is left empty.
    let wl = Workload::default();

    println!(
        "\nsteady-state sweep on SpectralFly LPS(11,7) x4, UGAL-L, offered load 0.8\n\
         (20 us measured after 5 us warmup):"
    );
    println!(
        "{:<18} {:>12} {:>10} {:>10}",
        "pattern", "tput Gb/s", "delivered", "mean hops"
    );
    for spec in ["random", "adversarial(4)", "tornado", "neighbor-exchange"] {
        let cfg = SimConfig::default()
            .with_routing("ugal-l", net.diameter() as u32)
            .with_windows(MeasurementWindows::new(5_000_000, 20_000_000))
            .with_jobs(&format!("traffic(1, {spec})"));
        let res = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.8)?;
        let m = res.measurement.ok_or("windowed run")?;
        println!(
            "{:<18} {:>12.1} {:>10.3} {:>10.3}",
            spec,
            m.throughput_gbps(),
            m.delivery_ratio(),
            res.mean_hops
        );
    }
    Ok(())
}
