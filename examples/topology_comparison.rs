//! Compare SpectralFly against SlimFly, BundleFly, and DragonFly at one of the paper's
//! Table-I size classes: diameter, mean distance, girth, µ₁, and the bisection bracket.
//!
//! Run with: `cargo run --release --example topology_comparison [-- --class 1]`

use spectralfly_graph::{profile_graph, Column};
use spectralfly_topology::spec::table1_size_classes;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let class_idx = args
        .iter()
        .position(|a| a == "--class")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0)
        .min(4);
    let class = table1_size_classes().into_iter().nth(class_idx).unwrap();

    println!("size class #{class_idx}:");
    println!(
        "{:<14} {:>7} {:>6} {:>6} {:>8} {:>6} {:>6} {:>12}",
        "topology", "routers", "radix", "diam", "distance", "girth", "mu1", "bisection"
    );
    for spec in class {
        let graph = spec.build().expect("size-class spec builds");
        let profile = profile_graph(&graph, &Column::ALL, 0xC0FFEE);
        println!(
            "{:<14} {:>7} {:>6} {:>6} {:>8.3} {:>6} {:>6} {:>12}",
            spec.name(),
            profile.routers,
            profile.radix,
            profile.diameter.map_or("-".to_string(), |d| d.to_string()),
            profile.mean_distance.unwrap_or(f64::NAN),
            profile.girth.map_or("-".to_string(), |g| g.to_string()),
            profile.mu1.map_or("-".to_string(), |m| format!("{m:.2}")),
            profile
                .bisection_upper
                .map_or("-".to_string(), |b| b.to_string()),
        );
    }
    println!("\nExpected shape (paper, Table I / Fig. 4): SlimFly has the smallest diameter and");
    println!("mean distance; SpectralFly (LPS) has the largest mu1 and bisection bandwidth;");
    println!("DragonFly and BundleFly trail on both spectral columns.");
}
