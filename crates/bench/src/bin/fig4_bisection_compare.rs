//! Fig. 4 (lower-right): raw bisection bandwidth of the Table-I instances of LPS, SlimFly,
//! BundleFly and DragonFly, bracketed by the spectral lower bound and the partitioner
//! upper bound.
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin fig4_bisection_compare [--classes N]`

use spectralfly::profile::{profile_graph, ProfileConfig};
use spectralfly_bench::{fmt, print_table, Cli};
use spectralfly_topology::spec::table1_size_classes;

fn main() {
    let cli = Cli::parse("fig4_bisection_compare [--classes N]", &["--classes"], &[]);
    let classes = cli.number("--classes", 2usize).min(5);

    let mut rows = Vec::new();
    for class in table1_size_classes().into_iter().take(classes) {
        for spec in class {
            let graph = spec.build().expect("size-class spec builds");
            let cfg = ProfileConfig {
                bisection_restarts: 2,
                ..Default::default()
            };
            let p = profile_graph(&spec.name(), &graph, &cfg);
            rows.push(vec![
                p.name.clone(),
                p.routers.to_string(),
                p.bisection_lower.map_or("-".into(), |l| format!("{l:.0}")),
                p.bisection_upper.map_or("-".into(), |u| u.to_string()),
                p.normalized_bisection.map_or("-".into(), fmt),
            ]);
        }
    }
    print_table(
        "Fig. 4 (lower-right): bisection bandwidth comparison (links)",
        &[
            "Topology",
            "Routers",
            "Spectral lower",
            "Partitioner upper",
            "Normalized",
        ],
        &rows,
    );
}
