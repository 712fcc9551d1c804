//! Fig. 10: Ember application motifs (Halo3D-26, Sweep3D, FFT balanced / unbalanced) under
//! UGAL routing, reported as speedup relative to DragonFly-UGAL.
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin fig10_ember_ugal [--full]`
//!
//! The Ember motifs are phased (bulk-synchronous) workloads, so they always run
//! to completion — steady-state windows do not apply here.

use spectralfly_bench::{ember_figure, Cli};
use spectralfly_simnet::{simulate, SimConfig};

fn main() {
    let cli = Cli::parse("fig10_ember_ugal [--full]", &[], &["--full"]);
    ember_figure(
        "Fig. 10: Ember motifs, ugal-l routing, speedup relative to DragonFly",
        cli.flag("--full"),
        |net, wl| {
            let mut cfg = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
            cfg.seed = 0xE4BF;
            let res = simulate(net, &cfg, wl, None).unwrap_or_else(|e| panic!("{e}"));
            res.completion_time_ps
        },
    );
}
