//! Golden lock on the code the two live engines share.
//!
//! The equivalence batteries (`engine_equivalence.rs`, `pdes_equivalence.rs`,
//! `fault_equivalence.rs`) compare engine to engine, so a draw-order slip in
//! code *both* engines run — source spawning, job injection, collective
//! firing, fault arming — would move both together and pass. This table pins
//! each engine to itself on the (core × mode × faults) cells no other pinned
//! digest reaches: jobs mode on the sequential engine, and every run mode
//! under a runtime [`FaultScript`] (whose `at(0us, …)` entry is a live,
//! counted fault event in steady-state runs and a pre-applied mask flip in
//! finite ones).
//!
//! The parallel column runs at every shard count in `PDES_SHARDS`
//! (comma-separated, default `2`): results are shard-count-invariant, so one
//! digest serves them all.

use spectralfly_exp::digest_results;
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    FaultScript, MeasurementWindows, ParallelSimulator, SimConfig, SimNetwork, SimResults,
    Simulator, Workload,
};

/// `(cell, sequential, parallel)`. Recorded by this test itself (on drift it
/// prints the replacement rows) at the commit before the engines' shared
/// driver was factored out, pinned ever since.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("jobs", "f51accc7ae9125ee", "bdf6839a23f9b26e"),
    ("script/finite", "130eccec5b30571f", "ed6c6948a6fede06"),
    ("script/offered", "c350dea9c8a1216e", "4a98d001632176df"),
    ("script/steady", "f9d2ba28e77c74dc", "0fef372381bb08ab"),
    ("script/pattern", "4ed337f81b25f56f", "1400118614258eca"),
    ("script/jobs", "9eb09f0ac96cd761", "24a00723be4cf05c"),
];

const SCRIPT: &str =
    "at(0us, link(0,6)) + at(2us, links(0.2)) + at(4us, router(3)) + at(6us, heal(all)) \
     + churn(1mhz, 1us)";
const MIX: &str = "allreduce-ring(2048) x 6 + alltoall(1024) x 4 \
                   + traffic(0.6, adversarial(4), 2048) x 8 + traffic(0.3, random, 1024) x 6 @ random";

fn shard_set() -> Vec<usize> {
    match std::env::var("PDES_SHARDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("PDES_SHARDS must be integers"))
            .collect(),
        Err(_) => vec![2],
    }
}

/// One run on the engine named by `parallel` (the parallel engine also at one
/// shard — its flow-control model, not the thread count, is what is pinned).
fn run(
    net: &SimNetwork,
    cfg: &SimConfig,
    wl: &Workload,
    load: Option<f64>,
    parallel: bool,
) -> SimResults {
    let outcome = match (load, parallel) {
        (None, false) => Simulator::new(net, cfg).try_run(wl),
        (None, true) => ParallelSimulator::new(net, cfg).try_run(wl),
        (Some(l), false) => Simulator::new(net, cfg).try_run_with_offered_load(wl, l),
        (Some(l), true) => ParallelSimulator::new(net, cfg).try_run_with_offered_load(wl, l),
    };
    outcome.unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn shared_driver_cells_reproduce_their_golden_digests() {
    let mut edges: Vec<(u32, u32)> = (0..12).map(|i| (i, (i + 1) % 12)).collect();
    edges.extend_from_slice(&[(0, 6), (2, 9), (4, 10)]);
    let net = SimNetwork::new(CsrGraph::from_edges(12, &edges), 2);
    let mut base = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
    base.seed = 0xD21E;
    let wl = Workload::uniform_random(net.num_endpoints(), 4, 2048, base.seed);
    let windows = MeasurementWindows::new(1_000_000, 8_000_000);
    let scripted = base
        .clone()
        .with_fault_script(FaultScript::parse(SCRIPT).unwrap());

    let cells: Vec<(&str, SimConfig, Option<f64>)> = vec![
        (
            "jobs",
            base.clone().with_windows(windows.clone()).with_jobs(MIX),
            Some(0.8),
        ),
        ("script/finite", scripted.clone(), None),
        ("script/offered", scripted.clone(), Some(0.5)),
        (
            "script/steady",
            scripted.clone().with_windows(windows.clone()),
            Some(0.5),
        ),
        (
            "script/pattern",
            scripted
                .clone()
                .with_windows(windows.clone().with_pattern("adversarial(4)")),
            Some(0.5),
        ),
        (
            "script/jobs",
            scripted.clone().with_windows(windows).with_jobs(MIX),
            Some(0.8),
        ),
    ];

    let mut actual: Vec<String> = Vec::new();
    for (cell, cfg, load) in &cells {
        let seq = run(&net, cfg, &wl, *load, false);
        if cell.starts_with("script/") {
            assert!(
                seq.faults.dropped_total() > 0 && seq.faults.retransmits > 0,
                "{cell}: the script must actually cost packets: {:?}",
                seq.faults
            );
        }
        if cell.ends_with("jobs") {
            assert_eq!(seq.tenants.len(), 4, "{cell}");
        }
        let mut par: Option<String> = None;
        for shards in shard_set() {
            let sharded = cfg.clone().with_shards(shards);
            let d = digest_results(&run(&net, &sharded, &wl, *load, true));
            assert_eq!(
                par.get_or_insert_with(|| d.clone()),
                &d,
                "{cell}: {shards} shards disagree with the other shard counts"
            );
        }
        actual.push(format!(
            "    (\"{cell}\", \"{}\", \"{}\"),",
            digest_results(&seq),
            par.expect("PDES_SHARDS must name at least one count")
        ));
    }

    let golden: Vec<String> = GOLDEN
        .iter()
        .map(|(cell, seq, par)| format!("    (\"{cell}\", \"{seq}\", \"{par}\"),"))
        .collect();
    assert!(
        golden == actual,
        "shared-driver cells drifted from their golden digests; if the drift \
         is intended, the new table is:\n{}",
        actual.join("\n")
    );
}
