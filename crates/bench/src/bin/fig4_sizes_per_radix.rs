//! Fig. 4 (lower-left): feasible topology sizes per radix for LPS, SlimFly, BundleFly, and
//! canonical DragonFly.
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin fig4_sizes_per_radix [--limit 100]`

use spectralfly_bench::Cli;
use spectralfly_topology::spec::{
    enumerate_bundlefly, enumerate_dragonfly, enumerate_lps, enumerate_slimfly, TopologySpec,
};

fn main() {
    let cli = Cli::parse("fig4_sizes_per_radix [--limit P]", &["--limit"], &[]);
    let limit: u64 = cli.number("--limit", 100);

    let families: Vec<(&str, Vec<TopologySpec>)> = vec![
        ("LPS", enumerate_lps(limit)),
        ("SlimFly", enumerate_slimfly(limit)),
        ("BundleFly", enumerate_bundlefly(limit, 16)),
        ("DragonFly", enumerate_dragonfly(limit)),
    ];
    println!("# Fig. 4 (lower-left): feasible sizes per radix (columns: family radix vertices)");
    for (name, specs) in &families {
        let mut points: Vec<(u64, u64)> =
            specs.iter().map(|s| (s.radix(), s.num_routers())).collect();
        points.sort_unstable();
        points.dedup();
        for (radix, n) in points {
            println!("{name} {radix} {n}");
        }
    }
    println!("#");
    println!("# Note: SlimFly and DragonFly have exactly one feasible size per radix, while LPS");
    println!("# offers arbitrarily many (one per admissible q), which is the paper's flexibility");
    println!("# argument.");
}
