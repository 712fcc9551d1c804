//! Fig. 11: average and maximum end-to-end latency of SpectralFly and SlimFly relative to
//! the SkyWalk topology in the same machine room, as a function of switch latency
//! (0–250 ns, 5 ns/m cable delay).
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin fig11_latency [--pairs N]`

use spectralfly_bench::{fmt, print_table, table2_pairs, Cli};
use spectralfly_layout::{latency_profile, place_topology, QapConfig};
use spectralfly_topology::skywalk::{SkyWalkConfig, SkyWalkGraph};
use spectralfly_topology::{LpsGraph, SlimFlyGraph, Topology};

fn main() {
    let cli = Cli::parse(
        "fig11_latency [--pairs N] [--anneal ITERS]",
        &["--pairs", "--anneal"],
        &[],
    );
    let pairs: usize = cli.number("--pairs", 2);
    let switch_latencies: Vec<f64> = vec![0.0, 50.0, 100.0, 150.0, 200.0, 250.0];
    let qap = QapConfig {
        anneal_iters: cli.number("--anneal", 40_000),
        ..Default::default()
    };

    let mut avg_rows = Vec::new();
    let mut max_rows = Vec::new();
    for ((p, q), sf_q) in table2_pairs().into_iter().take(pairs) {
        for (name, graph) in [
            (
                format!("LPS({p},{q})"),
                LpsGraph::new(p, q).unwrap().graph().clone(),
            ),
            (
                format!("SlimFly({sf_q})"),
                SlimFlyGraph::new(sf_q).unwrap().graph().clone(),
            ),
        ] {
            let placement = place_topology(&graph, &qap);
            // SkyWalk baseline in the same room with the same radix.
            let positions = placement.router_positions_m();
            let sky_cfg = SkyWalkConfig {
                radix: graph.max_degree(),
                ..Default::default()
            };
            let sky = SkyWalkGraph::new(&positions, &sky_cfg, 0x5111).expect("SkyWalk builds");
            let sky_placement = place_topology(sky.graph(), &qap);

            let mut avg_row = vec![name.clone()];
            let mut max_row = vec![name.clone()];
            for &s in &switch_latencies {
                let ours = latency_profile(&graph, &placement, s);
                let theirs = latency_profile(sky.graph(), &sky_placement, s);
                avg_row.push(fmt(ours.average_latency_ns / theirs.average_latency_ns));
                max_row.push(fmt(ours.max_latency_ns / theirs.max_latency_ns));
            }
            avg_rows.push(avg_row);
            max_rows.push(max_row);
        }
    }
    let mut header: Vec<String> = vec!["Topology".to_string()];
    header.extend(switch_latencies.iter().map(|s| format!("{s:.0} ns")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Fig. 11: average end-to-end latency relative to SkyWalk vs switch latency",
        &header_refs,
        &avg_rows,
    );
    print_table(
        "Fig. 11: maximum end-to-end latency relative to SkyWalk vs switch latency",
        &header_refs,
        &max_rows,
    );
}
