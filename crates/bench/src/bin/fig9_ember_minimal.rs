//! Fig. 9: Ember application motifs (Halo3D-26, Sweep3D, FFT balanced / unbalanced) under
//! minimal routing, reported as speedup relative to the DragonFly topology.
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin fig9_ember_minimal [--full]`
//!
//! The motifs are phased (bulk-synchronous) workloads, not a product of
//! registry strings, so this figure and Fig. 10 are the two simulation figures
//! that are not sections of `manifests/paper.toml`.

use spectralfly_bench::{ember_figure, Cli};
use spectralfly_simnet::{simulate, SimConfig};

fn main() {
    let cli = Cli::parse("fig9_ember_minimal [--full]", &[], &["--full"]);
    ember_figure(
        "Fig. 9: Ember motifs, minimal routing, speedup relative to DragonFly",
        cli.flag("--full"),
        |net, wl| {
            let mut cfg = SimConfig::default().with_routing("minimal", net.diameter() as u32);
            cfg.seed = 0xE4BE;
            let res = simulate(net, &cfg, wl, None).unwrap_or_else(|e| panic!("{e}"));
            res.completion_time_ps
        },
    );
}
