//! Lay out a SpectralFly and a SlimFly instance in a machine room, then compare wire
//! lengths, electrical/optical split, power, and end-to-end latency — a miniature of the
//! paper's Table II and Fig. 11.
//!
//! Run with: `cargo run --release --example machine_room`

use spectralfly_graph::layout::wiring::DEFAULT_ELECTRICAL_LIMIT_M;
use spectralfly_graph::layout::{
    classify_links, latency_profile, place_topology, PowerModel, QapConfig,
};
use spectralfly_graph::partition::bisection_bandwidth;
use spectralfly_topology::{LpsGraph, SlimFlyGraph, Topology};

fn main() {
    let qap = QapConfig {
        anneal_iters: 40_000,
        ..Default::default()
    };
    let power_model = PowerModel::default();
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>8} {:>8} {:>10} {:>12}",
        "topology",
        "routers",
        "avg wire m",
        "max wire m",
        "elec",
        "optical",
        "power W",
        "avg lat ns"
    );
    for (name, graph) in [
        ("LPS(11,7)", LpsGraph::new(11, 7).unwrap().graph().clone()),
        ("SF(9)", SlimFlyGraph::new(9).unwrap().graph().clone()),
    ] {
        let placement = place_topology(&graph, &qap);
        let wiring = classify_links(&graph, &placement, DEFAULT_ELECTRICAL_LIMIT_M);
        let bisection = bisection_bandwidth(&graph, 2, 1);
        let power = power_model.summarize(&wiring, bisection);
        let latency = latency_profile(&graph, &placement, 100.0);
        println!(
            "{:<12} {:>8} {:>12.2} {:>12.2} {:>8} {:>8} {:>10.0} {:>12.1}",
            name,
            graph.num_vertices(),
            wiring.mean_wire_m,
            wiring.max_wire_m,
            wiring.electrical_links,
            wiring.optical_links,
            power.total_power_w,
            latency.average_latency_ns,
        );
    }
    println!(
        "\nExpected shape (paper, Table II): the two topologies are within ~10% of each other"
    );
    println!(
        "on wire length, with SpectralFly slightly ahead on the smaller instances and needing"
    );
    println!("fewer links for comparable bisection bandwidth.");
}
