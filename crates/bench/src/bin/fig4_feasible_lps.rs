//! Fig. 4 (upper-left): feasible (number of vertices, radix) combinations of LPS graphs for
//! `p, q < 300` — the design-space scatter demonstrating LPS flexibility.
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin fig4_feasible_lps [--limit 300]`

use spectralfly::design::DesignSpace;
use spectralfly_bench::{print_table, Cli};

fn main() {
    let cli = Cli::parse("fig4_feasible_lps [--limit P]", &["--limit"], &[]);
    let limit: u64 = cli.number("--limit", 300);
    let ds = DesignSpace::new(limit);
    let mut points = ds.feasible_points();
    points.sort_unstable();
    println!(
        "# LPS design space for p, q < {limit}: {} feasible instances",
        points.len()
    );
    println!("# columns: radix  vertices");
    for (radix, n) in &points {
        println!("{radix} {n}");
    }
    // Summary per radix (the paper's point: many sizes are available per radix).
    let radixes = ds.radixes();
    let rows: Vec<Vec<String>> = radixes
        .iter()
        .map(|&r| {
            let sizes = ds.sizes_for_radix(r);
            vec![
                r.to_string(),
                sizes.len().to_string(),
                sizes.first().map(|s| s.to_string()).unwrap_or_default(),
                sizes.last().map(|s| s.to_string()).unwrap_or_default(),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 (upper-left) summary: feasible LPS sizes per radix",
        &["Radix", "#sizes", "Smallest", "Largest"],
        &rows,
    );
}
