//! Million-endpoint LPS fabric: the memory-wall benchmark behind the
//! sub-quadratic oracle tier.
//!
//! The dense `DistanceMatrix` needs `n²` u16 entries — ~2.2 TiB at the
//! n = 1,092,624 routers of LPS(5,103) — so the classic construction path
//! cannot even start at this scale. This binary builds that fabric behind a
//! [`CayleyOracle`](spectralfly_graph::CayleyOracle) (one BFS ball from the identity plus O(1) PGL₂ group
//! translation, 23 bytes a router resident) or a [`LandmarkOracle`](spectralfly_graph::LandmarkOracle) (hub labeling), runs
//! finite and steady-state simulations under minimal and UGAL-L routing, and
//! records wall times, routing decisions/second, oracle resident bytes, and
//! the process peak RSS (`VmHWM`) as one JSON entry appended to `--out`.
//!
//! Usage: `cargo run --release -p spectralfly-bench --bin million_node
//! --out PATH [--oracle cayley|landmark|auto] [--load-pct N] [--seed N]
//! [--shards N] [--smoke]`
//!
//! * default fabric: LPS(5,103) — 103³ − 103 = 1,092,624 radix-6 routers × 1
//!   endpoint (Legendre(5|103) = −1, so the group is PGL₂ and every vertex of
//!   the projective line construction is used);
//! * `--smoke`: LPS(5,47) — 103,776 routers — same code paths in seconds, for
//!   CI;
//! * `--oracle dense` is accepted and *expected to fail fast* with
//!   [`spectralfly_graph::OracleError::TooManyVertices`] — the point of the
//!   tier — so the error path is part of what this binary demonstrates;
//! * offered load defaults to 5% of injection bandwidth: the paper's
//!   million-endpoint question is feasibility and memory, not saturation.

use spectralfly_bench::{append_entry, fmt, Cli};
use spectralfly_graph::OracleError;
use spectralfly_simnet::{
    simulate, MeasurementWindows, OraclePolicy, RoutingHarness, SimConfig, SimNetwork, SimResults,
    Workload,
};
use spectralfly_topology::{LpsGraph, Topology};
use std::sync::Arc;
use std::time::Instant;

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Build the fabric behind the requested oracle backing. `Cayley` goes
/// through the topology's group structure ([`LpsGraph::cayley_oracle`]);
/// everything else goes through the generic policy selector.
fn build_network(lps: &LpsGraph, policy: OraclePolicy) -> Result<SimNetwork, OracleError> {
    match policy {
        OraclePolicy::Cayley => Ok(SimNetwork::with_oracle(
            lps.graph().clone(),
            1,
            Arc::new(lps.cayley_oracle()?),
        )),
        other => SimNetwork::with_policy(lps.graph().clone(), 1, other),
    }
}

fn run_point(
    net: &SimNetwork,
    cfg: &SimConfig,
    wl: &Workload,
    load: Option<f64>,
) -> (SimResults, f64) {
    let t0 = Instant::now();
    let res = simulate(net, cfg, wl, load).unwrap_or_else(|e| panic!("{e}"));
    (res, t0.elapsed().as_secs_f64())
}

const USAGE: &str = "million_node --out PATH [--oracle cayley|landmark|auto|dense] \
                     [--load-pct N] [--seed N] [--shards N] [--smoke]";

fn main() {
    let cli = Cli::parse(
        USAGE,
        &["--out", "--oracle", "--load-pct", "--seed", "--shards"],
        &["--smoke"],
    );
    let smoke = cli.flag("--smoke");
    let (p, q) = if smoke { (5u64, 47u64) } else { (5u64, 103u64) };
    let policy: OraclePolicy = cli.number("--oracle", OraclePolicy::Cayley);
    let load = cli.number("--load-pct", 5u64) as f64 / 100.0;
    let seed = cli.number("--seed", 0x106u64);
    let shards: usize = cli.number("--shards", 1);
    if shards == 0 {
        cli.fail("--shards must be at least 1");
    }
    let Some(out) = cli.value("--out") else {
        cli.fail("--out PATH is required");
    };

    let t0 = Instant::now();
    let lps = LpsGraph::new(p, q).expect("valid LPS parameters");
    let build_graph_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let net = build_network(&lps, policy).unwrap_or_else(|e| {
        panic!(
            "--oracle {policy} cannot represent LPS({p},{q}) ({} routers): {e}",
            lps.graph().num_vertices()
        )
    });
    let build_oracle_s = t0.elapsed().as_secs_f64();
    println!(
        "fabric {}: {} routers, radix {}, diameter {}, oracle {} ({} bytes resident), \
         graph {:.2} s + oracle {:.2} s",
        lps.name(),
        net.num_routers(),
        net.graph().max_degree(),
        net.diameter(),
        net.oracle_kind(),
        net.oracle_memory_bytes(),
        build_graph_s,
        build_oracle_s,
    );

    // One 4 KiB packet per endpoint: the finite feasibility run. Steady-state
    // reuses the same templates as sources (destinations redrawn per message).
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, seed);
    let windows = MeasurementWindows::new(500_000, 2_000_000);
    let mut rows: Vec<String> = Vec::new();
    for algo in ["minimal", "ugal-l"] {
        let cfg = SimConfig {
            seed,
            ..SimConfig::default().with_routing(algo, net.diameter() as u32)
        }
        .with_shards(shards);

        let (fin, fin_wall) = run_point(&net, &cfg, &wl, None);
        assert_eq!(
            fin.delivered_packets,
            net.num_endpoints() as u64,
            "{algo}: finite run must deliver every packet"
        );
        println!(
            "  {algo:<8} finite  wall {:>8.2} s  events {:>12}  delivered {:>9}",
            fin_wall, fin.engine.events, fin.delivered_packets
        );

        let steady_cfg = cfg.clone().with_windows(windows.clone());
        let (steady, steady_wall) = run_point(&net, &steady_cfg, &wl, Some(load));
        let m = steady
            .measurement
            .as_ref()
            .expect("steady run produces a summary");
        assert!(
            m.delivered_packets > 0,
            "{algo}: steady window delivered nothing"
        );
        println!(
            "  {algo:<8} steady  wall {:>8.2} s  events {:>12}  measured {:>9}  {} Gb/s",
            steady_wall,
            steady.engine.events,
            m.delivered_packets,
            fmt(m.throughput_gbps()),
        );

        // Raw routing decisions/second at this scale: the per-hop cost the
        // oracle tier is accountable for (group translation / label lookup
        // instead of a table row).
        let decisions: u64 = if smoke { 200_000 } else { 1_000_000 };
        let mut harness = RoutingHarness::new(&net, &cfg);
        harness.warm();
        let mut sink = 0usize;
        let t0 = Instant::now();
        for i in 0..decisions {
            sink ^= harness.decide_round_robin(i);
        }
        let micro_wall = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        let per_sec = decisions as f64 / micro_wall;
        println!(
            "  {algo:<8} micro   {decisions} decisions  {} decisions/s",
            fmt(per_sec)
        );

        rows.push(format!(
            "{{\"algo\":\"{algo}\",\"finite_wall_s\":{fin_wall:.3},\
             \"finite_events\":{},\"steady_wall_s\":{steady_wall:.3},\
             \"steady_events\":{},\"measured_packets\":{},\
             \"measured_throughput_gbps\":{:.3},\"decisions_per_sec\":{per_sec:.0}}}",
            fin.engine.events,
            steady.engine.events,
            m.delivered_packets,
            m.throughput_gbps(),
        ));
    }

    let peak = peak_rss_bytes();
    println!(
        "peak RSS {:.2} GiB (oracle {} bytes of it)",
        peak as f64 / (1u64 << 30) as f64,
        net.oracle_memory_bytes()
    );
    let config = format!(
        "million_node p={p} q={q} oracle={policy} load={load} shards={shards} smoke={smoke}"
    );
    let entry = format!(
        "{{\"unix_time\":{},{},\"scenario\":\"million-node-lps({p},{q})x1-load{load}\",\
         \"routers\":{},\"endpoints\":{},\"oracle\":\"{}\",\
         \"oracle_bytes\":{},\"peak_rss_bytes\":{peak},\"shards\":{shards},\
         \"build_graph_s\":{build_graph_s:.3},\"build_oracle_s\":{build_oracle_s:.3},\
         \"runs\":[{}]}}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        spectralfly_bench::provenance_field(&config, seed),
        net.num_routers(),
        net.num_endpoints(),
        net.oracle_kind(),
        net.oracle_memory_bytes(),
        rows.join(",")
    );
    append_entry(out, &entry);
}
