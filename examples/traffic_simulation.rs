//! Simulate the synthetic micro-benchmarks on SpectralFly vs DragonFly with UGAL-L routing and
//! report sustained throughput and p99 latency — a miniature of the paper's Fig. 6 experiment.
//!
//! Each point is a steady job mix: 512 ranks scattered over the machine, each a Poisson source
//! at the offered load drawing every destination live from the pattern, measured for 8 us
//! after a 2 us warmup.
//!
//! Run with: `cargo run --release --example traffic_simulation`

use spectralfly_simnet::{MeasurementWindows, SimConfig, SimNetwork, Simulator, Workload};
use spectralfly_topology::{GeneralizedDragonFly, LpsGraph, Topology};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // Small configurations: ~650 endpoints each, 15-port routers with 4 endpoints per router.
    let spectralfly = SimNetwork::new(LpsGraph::new(11, 7)?.graph().clone(), 4);
    let dragonfly = SimNetwork::new(GeneralizedDragonFly::new(8, 4, 21)?.graph().clone(), 4);

    println!(
        "{:<10} {:>5} {:>9} {:>9} {:>7} {:>8} {:>8}",
        "pattern", "load", "SF Gb/s", "DF Gb/s", "ratio", "SF p99", "DF p99"
    );
    for pattern in ["random", "shuffle", "transpose"] {
        for load in [0.5, 0.8, 1.0] {
            let mut rows = Vec::new();
            for net in [&spectralfly, &dragonfly] {
                let mut cfg = SimConfig::default()
                    .with_routing("ugal-l", net.diameter() as u32)
                    .with_windows(MeasurementWindows::new(2_000_000, 8_000_000))
                    .with_jobs(&format!("traffic(1, {pattern}, 4096) x 512 @ random"));
                cfg.seed = 7;
                // A steady run's traffic is its job mix; the workload argument stays empty.
                let res = Simulator::new(net, &cfg)
                    .try_run_with_offered_load(&Workload::default(), load)?;
                let m = res.measurement.ok_or("windowed run")?;
                rows.push((m.throughput_gbps(), res.p99_packet_latency_ps as f64 / 1e6));
            }
            let ((sf_gbps, sf_p99), (df_gbps, df_p99)) = (rows[0], rows[1]);
            println!(
                "{:<10} {:>5.1} {:>9.1} {:>9.1} {:>7.3} {:>5.2} us {:>5.2} us",
                pattern,
                load,
                sf_gbps,
                df_gbps,
                sf_gbps / df_gbps,
                sf_p99,
                df_p99
            );
        }
    }
    println!("\nratio > 1 means SpectralFly sustains more of the offered traffic than DragonFly;");
    println!("below saturation both carry it all, and the p99 columns are where they differ.");
    Ok(())
}
