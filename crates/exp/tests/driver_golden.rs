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
//! A second table pins the credit core where its flow control is all that
//! moves: credit-starved cells (one or two packets per VC) on `lps(11,7)x4`,
//! every routing × finite / steady / steady under churn, each checked to park
//! links on the parallel side. Shard invariance cannot catch a mistake every
//! shard count makes the same way — a wake at the wrong time, an epoch
//! boundary moved (which UGAL-G's congestion board would show) — these cells
//! can.
//!
//! The parallel column runs at every shard count in `PDES_SHARDS`
//! (comma-separated, default `2`): results are shard-count-invariant, so one
//! digest serves them all.

use spectralfly_exp::{digest_results, fnv64_str, TopoSpec};
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    FaultScript, MeasurementWindows, ParallelSimulator, SimConfig, SimError, SimNetwork,
    SimResults, Simulator, Workload,
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
) -> Result<SimResults, SimError> {
    match (load, parallel) {
        (None, false) => Simulator::new(net, cfg).try_run(wl),
        (None, true) => ParallelSimulator::new(net, cfg).try_run(wl),
        (Some(l), false) => Simulator::new(net, cfg).try_run_with_offered_load(wl, l),
        (Some(l), true) => ParallelSimulator::new(net, cfg).try_run_with_offered_load(wl, l),
    }
}

/// Assert `PDES_SHARDS` agrees on one value and return it.
fn shard_invariant(cell: &str, mut at: impl FnMut(usize) -> String) -> String {
    let mut first: Option<String> = None;
    for shards in shard_set() {
        let v = at(shards);
        assert_eq!(
            first.get_or_insert_with(|| v.clone()),
            &v,
            "{cell}: {shards} shards disagree with the other shard counts"
        );
    }
    first.expect("PDES_SHARDS must name at least one count")
}

/// Compare a recorded table against the one just computed, printing the
/// replacement rows on drift.
fn assert_table(what: &str, golden: &[(&str, &str, &str)], actual: &[String]) {
    let golden: Vec<String> = golden
        .iter()
        .map(|(cell, seq, par)| format!("    (\"{cell}\", \"{seq}\", \"{par}\"),"))
        .collect();
    assert!(
        golden == actual,
        "{what} drifted from their golden digests; if the drift is intended, \
         the new table is:\n{}",
        actual.join("\n")
    );
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
        let seq = run(&net, cfg, &wl, *load, false).unwrap_or_else(|e| panic!("{cell}: {e}"));
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
        let par = shard_invariant(cell, |shards| {
            let sharded = cfg.clone().with_shards(shards);
            let r = run(&net, &sharded, &wl, *load, true);
            digest_results(&r.unwrap_or_else(|e| panic!("{cell}: {e}")))
        });
        actual.push(format!(
            "    (\"{cell}\", \"{}\", \"{par}\"),",
            digest_results(&seq)
        ));
    }
    assert_table("shared-driver cells", GOLDEN, &actual);
}

/// `(cell, sequential, parallel)` for the credit-starved cells: a digest, or
/// the typed error the run ended in; the parallel column also pins
/// `parks/wakeups`. Recorded at the parent of the change that stopped scheduling
/// credit returns as events.
#[rustfmt::skip]
const STARVED: &[(&str, &str, &str)] = &[
    ("b1/minimal/finite", "deadlock f6d5af2f8c79d21d", "9a8e6c4c0288e4a8 1342/1342"),
    ("b1/minimal/steady", "d69fb2e20b239e30", "dcbfbf6adfb38a98 2358/2239"),
    ("b1/minimal/churn", "f0354b063fd5091c", "871c3e86badad80f 2367/2249"),
    ("b1/valiant/finite", "deadlock 8773caa54b376e35", "deadlock 439425f93fb99e36"),
    ("b1/valiant/steady", "3aa0e23c2d70500d", "ca037f85f39f7353 2991/2740"),
    ("b1/valiant/churn", "940612a5ca7b3ef1", "e9f390b2d2efc2ae 2901/2665"),
    ("b1/ugal-l/finite", "deadlock 169b61984373ca31", "1ed5708de898cd66 1337/1337"),
    ("b1/ugal-l/steady", "c18fd09a5726ca82", "7d1632b2d0905fb1 2366/2245"),
    ("b1/ugal-l/churn", "9fb306fbb7db5d62", "9573066d7e8a7802 2376/2257"),
    ("b1/ugal-g/finite", "deadlock 8347801ceb66e62f", "f7c259b5409acc73 1324/1324"),
    ("b1/ugal-g/steady", "b739d4d5a4e8d0c0", "eacc1456b8915b68 2329/2196"),
    ("b1/ugal-g/churn", "1036612e99430d14", "72f674deaf40c281 2331/2206"),
    ("b2/minimal/finite", "757d9f6514ccc10b", "8972ef0a5389a1c6 109/109"),
    ("b2/minimal/steady", "f186caa291c36218", "b895165a41557cfd 604/597"),
    ("b2/minimal/churn", "1e518a7ad4cd1861", "10f58a3cefe7a290 618/604"),
    ("b2/valiant/finite", "deadlock 5aaaee8c500fcd0c", "33b0a4dc91b83f87 161/161"),
    ("b2/valiant/steady", "53e2b70d963bcf27", "8c8b60a1ad31894b 905/870"),
    ("b2/valiant/churn", "d8c11b7ddbd8eff4", "28908b8679269b90 940/890"),
    ("b2/ugal-l/finite", "deadlock 7bd327078c481b39", "be86c4a28e57c771 111/111"),
    ("b2/ugal-l/steady", "db8e818dc33cf145", "511d583d59f0f0e7 604/597"),
    ("b2/ugal-l/churn", "be1ede448668eb50", "c7878fa44de230c0 620/610"),
    ("b2/ugal-g/finite", "deadlock 32cc792ae1281332", "7d8568184acafb47 98/98"),
    ("b2/ugal-g/steady", "4f2c1407cc557022", "e28ec2a75f5b8855 560/559"),
    ("b2/ugal-g/churn", "b54c7abf3e8b1843", "1978628a9a2229cf 557/551"),
];

/// Steady-state churn on the starved cells (`fault_horizon_ns` bounds it).
const CHURN: &str = "churn(2mhz, 1us)";

/// A digest, or the typed error the run ended in with a digest of its
/// diagnosis (which counts the undelivered packets and parked links).
fn outcome(r: &Result<SimResults, SimError>) -> String {
    match r {
        Ok(r) => digest_results(r),
        Err(SimError::Deadlock { diagnosis }) => format!("deadlock {:016x}", fnv64_str(diagnosis)),
        Err(e) => panic!("only a deadlock is an expected outcome: {e}"),
    }
}

#[test]
fn credit_starved_cells_reproduce_their_golden_digests() {
    let spec = TopoSpec::parse("lps(11,7)x4").unwrap();
    let net = SimNetwork::new(spec.build().unwrap(), spec.concentration);
    let wl = Workload::uniform_random(net.num_endpoints(), 2, 8192, 0x57A4);
    let windows = MeasurementWindows::new(1_000_000, 3_000_000);
    let mut actual: Vec<String> = Vec::new();
    for buffer in [1, 2] {
        for routing in ["minimal", "valiant", "ugal-l", "ugal-g"] {
            let mut finite = SimConfig::default().with_routing(routing, net.diameter() as u32);
            finite.seed = 0x57A4;
            finite.buffer_packets_per_vc = buffer;
            let steady = finite.clone().with_windows(windows.clone());
            let mut churn = steady
                .clone()
                .with_fault_script(FaultScript::parse(CHURN).unwrap().with_seed(5));
            churn.fault_horizon_ns = 5_000.0;
            for (mode, cfg) in [("finite", finite), ("steady", steady), ("churn", churn)] {
                let cell = format!("b{buffer}/{routing}/{mode}");
                let seq = outcome(&run(&net, &cfg, &wl, Some(0.95), false));
                let par = shard_invariant(&cell, |shards| {
                    let sharded = cfg.clone().with_shards(shards);
                    let r = run(&net, &sharded, &wl, Some(0.95), true);
                    let mut o = outcome(&r);
                    if let Ok(r) = &r {
                        let e = &r.engine;
                        assert!(
                            e.blocked_parks > 0,
                            "{cell}: no link parked at {shards} shards"
                        );
                        assert_eq!(mode == "churn", r.faults.fault_events > 0, "{cell}");
                        o += &format!(" {}/{}", e.blocked_parks, e.wakeups);
                    }
                    o
                });
                actual.push(format!("    (\"{cell}\", \"{seq}\", \"{par}\"),"));
            }
        }
    }
    assert_table("credit-starved cells", STARVED, &actual);
}
