//! Simulate synthetic traffic on SpectralFly vs DragonFly with UGAL-L routing and report the
//! relative speedup — a miniature of the paper's Fig. 6 experiment.
//!
//! Run with: `cargo run --release --example traffic_simulation`

use spectralfly_simnet::workload::random_placement;
use spectralfly_simnet::{SimConfig, SimNetwork, Simulator, Workload};
use spectralfly_topology::{GeneralizedDragonFly, LpsGraph, Topology};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // Small configurations: ~650 endpoints each, 15-port routers with 4 endpoints per router.
    let spectralfly = SimNetwork::new(LpsGraph::new(11, 7)?.graph().clone(), 4);
    let dragonfly = SimNetwork::new(GeneralizedDragonFly::new(8, 4, 21)?.graph().clone(), 4);

    let bits = 9; // 512 MPI ranks
    let ranks = 1usize << bits;
    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>9}",
        "pattern", "load", "SpectralFly us", "DragonFly us", "speedup"
    );
    for pattern in ["random", "shuffle", "transpose"] {
        for load in [0.2, 0.5, 0.7] {
            let mut times = Vec::new();
            for net in [&spectralfly, &dragonfly] {
                let mut cfg = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
                cfg.seed = 7;
                let placement = random_placement(ranks, net.num_endpoints(), 11);
                let wl = Workload::synthetic(pattern, bits, 8, 4096, 3)?.place(&placement);
                let res = Simulator::new(net, &cfg).try_run_with_offered_load(&wl, load)?;
                times.push(res.completion_time_ps as f64 / 1e6); // microseconds
            }
            println!(
                "{:<12} {:>10.1} {:>14.1} {:>14.1} {:>9.2}",
                pattern,
                load,
                times[0],
                times[1],
                times[1] / times[0]
            );
        }
    }
    println!("\nSpeedup > 1 means SpectralFly finishes the same workload faster than DragonFly,");
    println!("which is the paper's headline simulation result (Fig. 6).");
    Ok(())
}
