//! Quickstart: build a SpectralFly router graph, inspect its structural properties, and verify
//! the Ramanujan property — the 60-second tour of the library.
//!
//! Run with: `cargo run --release --example quickstart`

use spectralfly_graph::spectral::spectral_summary;
use spectralfly_graph::{profile_graph, Column};
use spectralfly_topology::{LpsGraph, Topology};

fn main() {
    // The paper's smallest Table-I instance: LPS(11, 7) with 4 endpoints per router.
    let lps = LpsGraph::new(11, 7).expect("valid LPS parameters");
    let concentration = 4;
    println!("network      : {} x{concentration}", lps.name());
    println!("routers      : {}", lps.num_routers());
    println!("endpoints    : {}", lps.num_routers() * concentration);
    println!("network radix: {}", lps.radix());
    println!("router ports : {}", lps.radix() + concentration);

    // Structural profile (Table I columns).
    let profile = profile_graph(lps.graph(), &Column::ALL, 0xC0FFEE);
    println!("\nstructural profile");
    println!("  diameter        : {:?}", profile.diameter);
    println!(
        "  mean distance   : {:.3}",
        profile.mean_distance.unwrap_or(f64::NAN)
    );
    println!("  girth           : {:?}", profile.girth);
    println!("  mu1             : {:.3}", profile.mu1.unwrap_or(f64::NAN));
    println!(
        "  bisection (links): [{:.0}, {}]",
        profile.bisection_lower.unwrap_or(0.0),
        profile.bisection_upper.unwrap_or(0)
    );

    // The Ramanujan certificate: |lambda(G)| <= 2 sqrt(k - 1).
    let s = spectral_summary(lps.graph(), 100, 42);
    let bound = lps.ramanujan_bound();
    println!("\nspectral certificate");
    println!("  lambda(G)        : {:.4}", s.lambda_nontrivial);
    println!("  2 sqrt(k-1)      : {:.4}", bound);
    println!("  Ramanujan        : {}", s.ramanujan);
    assert!(s.ramanujan, "LPS graphs are Ramanujan by construction");
}
