//! Table I: basic structural properties of LPS, SlimFly, BundleFly and DragonFly across the
//! five size classes (routers, radix, diameter, mean distance, girth, µ₁).
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin table1 [--classes N]`
//! (default: the first 2 size classes, which finish in seconds; `--classes 5` reproduces the
//! whole table).

use spectralfly::profile::{profile_graph, ProfileConfig};
use spectralfly_bench::{fmt, print_table, Cli};
use spectralfly_topology::spec::table1_size_classes;

fn main() {
    let cli = Cli::parse("table1 [--classes N]", &["--classes"], &[]);
    let classes = cli.number("--classes", 2usize).min(5);

    let mut rows = Vec::new();
    for class in table1_size_classes().into_iter().take(classes) {
        for spec in class {
            let graph = spec.build().expect("size-class spec builds");
            let cfg = ProfileConfig {
                skip_bisection: true,
                ..Default::default()
            };
            let p = profile_graph(&spec.name(), &graph, &cfg);
            rows.push(vec![
                p.name.clone(),
                p.routers.to_string(),
                p.radix.to_string(),
                p.diameter.to_string(),
                fmt(p.mean_distance),
                p.girth.map_or("-".into(), |g| g.to_string()),
                p.mu1.map_or("-".into(), |m| format!("{m:.2}")),
            ]);
        }
    }
    print_table(
        "Table I: basic structural properties",
        &[
            "Topology", "Routers", "Radix", "Diam.", "Dist.", "Girth", "mu1",
        ],
        &rows,
    );
}
