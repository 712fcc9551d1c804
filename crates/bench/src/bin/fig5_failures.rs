//! Fig. 5: diameter, average hop count, and bisection bandwidth under random link failures
//! for comparable LPS / SlimFly / BundleFly / DragonFly instances (~600-vertex class by
//! default; `--large` runs the ~5-7K class of the right column).
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin fig5_failures [--large] [--quick]`

use spectralfly_bench::{fmt, print_table, Cli};
use spectralfly_graph::failures::{failure_sweep, FailureMetric, TrialConfig};
use spectralfly_topology::spec::TopologySpec;

fn main() {
    let cli = Cli::parse(
        "fig5_failures [--large] [--quick]",
        &[],
        &["--large", "--quick"],
    );
    let large = cli.flag("--large");
    let quick = cli.flag("--quick");

    // Size classes from the paper: ~600 vertices (left column) and ~5K (right column).
    let specs: Vec<TopologySpec> = if large {
        vec![
            TopologySpec::Lps { p: 71, q: 17 },
            TopologySpec::SlimFly { q: 47 },
            TopologySpec::BundleFly { p: 137, s: 4 },
            TopologySpec::DragonFly { a: 69 },
        ]
    } else {
        vec![
            TopologySpec::Lps { p: 23, q: 11 },
            TopologySpec::SlimFly { q: 17 },
            TopologySpec::BundleFly { p: 37, s: 3 },
            TopologySpec::DragonFly { a: 24 },
        ]
    };
    let proportions: Vec<f64> = if large {
        vec![0.0, 0.1, 0.2, 0.4, 0.6, 0.8]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    };
    let trial_cfg = TrialConfig {
        max_trials: if quick { 8 } else { 40 },
        ..Default::default()
    };

    for metric in [
        FailureMetric::Diameter,
        FailureMetric::MeanDistance,
        FailureMetric::BisectionBandwidth,
    ] {
        let mut rows = Vec::new();
        for spec in &specs {
            let g = spec.build().expect("failure-class spec builds");
            let sweep = failure_sweep(&g, &proportions, metric, &trial_cfg, 0xFA11);
            let mut row = vec![spec.name()];
            for pt in sweep {
                row.push(if pt.connected_trials == 0 {
                    "disc.".to_string()
                } else {
                    fmt(pt.mean)
                });
            }
            rows.push(row);
        }
        let mut header: Vec<String> = vec!["Topology".to_string()];
        header.extend(proportions.iter().map(|p| format!("{p:.1}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        print_table(
            &format!("Fig. 5: {metric:?} vs proportion of failed links"),
            &header_refs,
            &rows,
        );
    }
}
