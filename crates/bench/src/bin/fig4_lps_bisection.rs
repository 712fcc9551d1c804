//! Fig. 4 (upper-right): normalized bisection bandwidth of LPS graphs across sizes and
//! radixes.
//!
//! The paper sweeps `p, q < 100` (up to ~10⁶ vertices); the default here caps the vertex
//! count so the sweep finishes quickly — pass `--max-vertices N` (and `--limit P`) to widen.
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin fig4_lps_bisection`

use spectralfly_bench::{fmt, print_table, Cli};
use spectralfly_graph::partition::normalized_bisection_bandwidth;
use spectralfly_topology::spec::{enumerate_lps, TopologySpec};

fn main() {
    let cli = Cli::parse(
        "fig4_lps_bisection [--limit P] [--max-vertices N] [--restarts N]",
        &["--limit", "--max-vertices", "--restarts"],
        &[],
    );
    let limit: u64 = cli.number("--limit", 24);
    let max_vertices: u64 = cli.number("--max-vertices", 4000);
    let restarts: usize = cli.number("--restarts", 2);

    let mut rows = Vec::new();
    for spec in enumerate_lps(limit) {
        if spec.num_routers() > max_vertices {
            continue;
        }
        let TopologySpec::Lps { p, q } = spec else {
            continue;
        };
        let g = spec.build().expect("valid LPS spec");
        let nb = normalized_bisection_bandwidth(&g, restarts, 0xF164);
        rows.push(vec![
            format!("LPS({p},{q})"),
            spec.radix().to_string(),
            spec.num_routers().to_string(),
            fmt(nb),
        ]);
    }
    rows.sort_by(|a, b| {
        a[1].parse::<u64>()
            .unwrap()
            .cmp(&b[1].parse::<u64>().unwrap())
    });
    print_table(
        "Fig. 4 (upper-right): normalized bisection bandwidth of LPS graphs",
        &["Instance", "Radix", "Vertices", "BW / (nk/2)"],
        &rows,
    );
    println!("\n(The Ramanujan lower bound (k - 2 sqrt(k-1)) / (2k) guarantees the large-radix");
    println!(" values stay above 1/3; larger radix gives larger normalized bandwidth.)");
}
