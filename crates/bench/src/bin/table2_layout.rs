//! Table II: wire length and energy efficiency of comparable SpectralFly and SlimFly
//! topologies under the heuristic machine-room layout, with SkyWalk instantiations in the
//! same room as the parenthesized baseline.
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin table2_layout [--pairs N] [--skywalk-trials N]`

use spectralfly_bench::{fmt, print_table, table2_pairs, Cli};
use spectralfly_graph::partition::bisection_bandwidth;
use spectralfly_graph::CsrGraph;
use spectralfly_layout::wiring::DEFAULT_ELECTRICAL_LIMIT_M;
use spectralfly_layout::{classify_links, place_topology, PowerModel, QapConfig};
use spectralfly_topology::skywalk::{SkyWalkConfig, SkyWalkGraph};
use spectralfly_topology::{LpsGraph, SlimFlyGraph, Topology};

struct Row {
    name: String,
    routers: usize,
    radix: usize,
    mean_wire: f64,
    max_wire: f64,
    skywalk_mean: f64,
    skywalk_max: f64,
    electrical: usize,
    optical: usize,
    bisection: u64,
    power_w: f64,
    mw_per_gbps: f64,
}

fn analyze(name: &str, graph: &CsrGraph, qap: &QapConfig, skywalk_trials: usize) -> Row {
    let placement = place_topology(graph, qap);
    let wiring = classify_links(graph, &placement, DEFAULT_ELECTRICAL_LIMIT_M);
    let bisection = bisection_bandwidth(graph, 2, 0x7AB2);
    let power = PowerModel::default().summarize(&wiring, bisection);
    // SkyWalk baseline: same machine room, same radix, averaged over instantiations.
    let positions = placement.router_positions_m();
    let radix = graph.max_degree();
    let mut sky_mean = 0.0;
    let mut sky_max = 0.0;
    let mut done = 0usize;
    for trial in 0..skywalk_trials {
        let cfg = SkyWalkConfig {
            radix,
            ..Default::default()
        };
        if let Ok(sw) = SkyWalkGraph::new(&positions, &cfg, 0x50FA + trial as u64) {
            let sp = place_topology(sw.graph(), qap);
            let sw_wiring = classify_links(sw.graph(), &sp, DEFAULT_ELECTRICAL_LIMIT_M);
            sky_mean += sw_wiring.mean_wire_m;
            sky_max += sw_wiring.max_wire_m;
            done += 1;
        }
    }
    if done > 0 {
        sky_mean /= done as f64;
        sky_max /= done as f64;
    }
    Row {
        name: name.to_string(),
        routers: graph.num_vertices(),
        radix,
        mean_wire: wiring.mean_wire_m,
        max_wire: wiring.max_wire_m,
        skywalk_mean: sky_mean,
        skywalk_max: sky_max,
        electrical: wiring.electrical_links,
        optical: wiring.optical_links,
        bisection,
        power_w: power.total_power_w,
        mw_per_gbps: power.mw_per_gbps,
    }
}

fn main() {
    let cli = Cli::parse(
        "table2_layout [--pairs N] [--skywalk-trials N] [--anneal ITERS]",
        &["--pairs", "--skywalk-trials", "--anneal"],
        &[],
    );
    let pairs: usize = cli.number("--pairs", 2);
    let skywalk_trials: usize = cli.number("--skywalk-trials", 3);
    let qap = QapConfig {
        anneal_iters: cli.number("--anneal", 60_000),
        ..Default::default()
    };

    let mut rows = Vec::new();
    for ((p, q), sf_q) in table2_pairs().into_iter().take(pairs) {
        let lps = LpsGraph::new(p, q).expect("Table II LPS instance");
        let sf = SlimFlyGraph::new(sf_q).expect("Table II SlimFly instance");
        for (name, graph) in [
            (format!("LPS({p},{q})"), lps.graph().clone()),
            (format!("SF({sf_q})"), sf.graph().clone()),
        ] {
            let r = analyze(&name, &graph, &qap, skywalk_trials);
            rows.push(vec![
                r.name,
                r.routers.to_string(),
                r.radix.to_string(),
                format!("{} ({})", fmt(r.mean_wire), fmt(r.skywalk_mean)),
                format!("{} ({})", fmt(r.max_wire), fmt(r.skywalk_max)),
                r.electrical.to_string(),
                r.optical.to_string(),
                r.bisection.to_string(),
                format!("{:.0}", r.power_w),
                fmt(r.mw_per_gbps),
            ]);
        }
    }
    print_table(
        "Table II: wire length and energy efficiency (SkyWalk baseline in parentheses)",
        &[
            "Topology",
            "Routers",
            "Radix",
            "Avg wire (m)",
            "Max wire (m)",
            "Elec.",
            "Optical",
            "Bisection",
            "Power (W)",
            "mW per Gb/s",
        ],
        &rows,
    );
    println!("\nNote: absolute power differs from the paper (whose per-link accounting is not");
    println!("fully specified); the LPS-vs-SlimFly ordering and the ~5-15% efficiency gap are");
    println!("the reproduced quantities (see docs/REPRODUCING.md, Appendix A).");
}
