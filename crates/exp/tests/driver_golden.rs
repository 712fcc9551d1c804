//! Golden lock on the run driver and the event core.
//!
//! The equivalence batteries (`engine_equivalence.rs`, `pdes_equivalence.rs`,
//! `fault_equivalence.rs`) compare shard counts with each other, so a
//! draw-order slip that every shard count makes — source spawning, job
//! injection, collective firing, fault arming — would pass them. This table
//! pins the (mode × faults) cells no other pinned digest reaches: jobs mode,
//! and every run mode under a runtime [`FaultScript`] (whose `at(0us, …)`
//! entry is a live, counted fault event in steady-state runs and a
//! pre-applied mask flip in finite ones).
//!
//! A second table pins the core where its flow control is all that moves:
//! credit-starved cells (one or two packets per VC) on `lps(11,7)x4`, every
//! routing × finite / steady / steady under churn, each checked to park
//! links. Shard invariance cannot catch a mistake every shard count makes
//! the same way — a wake at the wrong time, an epoch boundary moved (which
//! UGAL-G's congestion board would show) — these cells can. Beside them, a
//! steady cell that wedges pins the deadlock a steady run reports.
//!
//! Every cell runs at one shard and at every shard count in `PDES_SHARDS`
//! (comma-separated, default `2`): results are shard-count-invariant, so one
//! digest serves them all.

use spectralfly_exp::{digest_results, fnv64_str, TopoSpec};
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    FaultScript, MeasurementWindows, SimConfig, SimError, SimNetwork, SimResults, Simulator,
    Workload,
};

/// `(cell, digest)`. Recorded by this test itself (on drift it prints the
/// replacement rows) on the sharded engine at the commit before the run
/// driver was factored out, pinned ever since; the two steady cells were
/// re-recorded once, when every steady run became a job mix.
const GOLDEN: &[(&str, &str)] = &[
    ("jobs", "bdf6839a23f9b26e"),
    ("script/finite", "ed6c6948a6fede06"),
    ("script/offered", "4a98d001632176df"),
    ("script/steady", "1de17c868c504991"),
    ("script/pattern", "cae61090933e67d3"),
    ("script/jobs", "24a00723be4cf05c"),
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

/// One run of `cfg` at `shards` shards.
fn run(
    net: &SimNetwork,
    cfg: &SimConfig,
    wl: &Workload,
    load: Option<f64>,
    shards: usize,
) -> Result<SimResults, SimError> {
    let cfg = cfg.clone().with_shards(shards);
    let sim = Simulator::new(net, &cfg);
    match load {
        None => sim.try_run(wl),
        Some(l) => sim.try_run_with_offered_load(wl, l),
    }
}

/// Assert one shard and every count in `PDES_SHARDS` agree on one value and
/// return it.
fn shard_invariant(cell: &str, mut at: impl FnMut(usize) -> String) -> String {
    let one = at(1);
    for shards in shard_set() {
        assert_eq!(
            at(shards),
            one,
            "{cell}: {shards} shards disagree with one shard"
        );
    }
    one
}

/// Compare a recorded table against the one just computed, printing the
/// replacement rows on drift.
fn assert_table(what: &str, golden: &[(&str, &str)], actual: &[String]) {
    let golden: Vec<String> = golden
        .iter()
        .map(|(cell, outcome)| format!("    (\"{cell}\", \"{outcome}\"),"))
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
            (scripted.clone().with_windows(windows.clone())).with_jobs("traffic(1, random, 2048)"),
            Some(0.5),
        ),
        (
            "script/pattern",
            (scripted.clone().with_windows(windows.clone()))
                .with_jobs("traffic(1, adversarial(4), 2048)"),
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
        let digest = shard_invariant(cell, |shards| {
            let r = run(&net, cfg, &wl, *load, shards).unwrap_or_else(|e| panic!("{cell}: {e}"));
            if cell.starts_with("script/") {
                assert!(
                    r.faults.dropped_total() > 0 && r.faults.retransmits > 0,
                    "{cell}: the script must actually cost packets: {:?}",
                    r.faults
                );
            }
            if cell.ends_with("jobs") {
                assert_eq!(r.tenants.len(), 4, "{cell}");
            }
            digest_results(&r)
        });
        actual.push(format!("    (\"{cell}\", \"{digest}\"),"));
    }
    assert_table("shared-driver cells", GOLDEN, &actual);
}

/// `(cell, outcome)` for the credit-starved cells: a digest and
/// `parks/wakeups`, or the typed error the run ended in. Recorded on the
/// sharded engine at the parent of the change that stopped scheduling credit
/// returns as events; the steady and churn cells were re-recorded once, when
/// every steady run became a job mix.
#[rustfmt::skip]
const STARVED: &[(&str, &str)] = &[
    ("b1/minimal/finite", "9a8e6c4c0288e4a8 1342/1342"),
    ("b1/minimal/steady", "02e9ab07908aacce 2401/2268"),
    ("b1/minimal/churn", "6367837a4a19db31 2409/2273"),
    ("b1/valiant/finite", "deadlock 439425f93fb99e36"),
    ("b1/valiant/steady", "253f3cc2c8528f12 2918/2694"),
    ("b1/valiant/churn", "237e14743accad22 2993/2730"),
    ("b1/ugal-l/finite", "1ed5708de898cd66 1337/1337"),
    ("b1/ugal-l/steady", "82f0cdca282bc0f1 2416/2285"),
    ("b1/ugal-l/churn", "c8cf66a666c5117a 2423/2288"),
    ("b1/ugal-g/finite", "f7c259b5409acc73 1324/1324"),
    ("b1/ugal-g/steady", "08be2b116cc38ff8 2381/2281"),
    ("b1/ugal-g/churn", "7a5156306963da6e 2387/2276"),
    ("b2/minimal/finite", "8972ef0a5389a1c6 109/109"),
    ("b2/minimal/steady", "29db294c8f7e12d8 534/532"),
    ("b2/minimal/churn", "7ae022fccc6dfc5b 541/535"),
    ("b2/valiant/finite", "33b0a4dc91b83f87 161/161"),
    ("b2/valiant/steady", "c04cee50c91b2f65 947/917"),
    ("b2/valiant/churn", "736338281e477fa0 933/890"),
    ("b2/ugal-l/finite", "be86c4a28e57c771 111/111"),
    ("b2/ugal-l/steady", "c0882d4a5e963b3e 568/564"),
    ("b2/ugal-l/churn", "f0cbd513ed939c0b 575/572"),
    ("b2/ugal-g/finite", "7d8568184acafb47 98/98"),
    ("b2/ugal-g/steady", "81c5471feafaaaad 541/537"),
    ("b2/ugal-g/churn", "b27f83f22aeef525 514/512"),
];

/// Steady-state churn on the starved cells (`fault_horizon_ps` bounds it).
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
            let steady = (finite.clone().with_windows(windows.clone()))
                .with_jobs("traffic(1, random, 8192)");
            let mut churn = steady
                .clone()
                .with_fault_script(FaultScript::parse(CHURN).unwrap().with_seed(5));
            churn.fault_horizon_ps = 5_000_000;
            for (mode, cfg) in [("finite", finite), ("steady", steady), ("churn", churn)] {
                let cell = format!("b{buffer}/{routing}/{mode}");
                let got = shard_invariant(&cell, |shards| {
                    let r = run(&net, &cfg, &wl, Some(0.95), shards);
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
                actual.push(format!("    (\"{cell}\", \"{got}\"),"));
            }
        }
    }
    assert_table("credit-starved cells", STARVED, &actual);
}

/// The steady twin of the `b1/valiant` cells, run long and light enough to
/// wedge: at load 0.3 over a 20 µs window its last packet is delivered at
/// 33.9 µs and its event queue then empties with links still parked, 7 µs
/// before the drain deadline. A steady run that wedges is
/// [`SimError::Deadlock`]; it used to return `Ok`, and its window then
/// measured a wedged fabric.
#[test]
fn a_steady_run_that_wedges_is_a_deadlock() {
    let spec = TopoSpec::parse("lps(11,7)x4").unwrap();
    let net = SimNetwork::new(spec.build().unwrap(), spec.concentration);
    let wl = Workload::uniform_random(net.num_endpoints(), 2, 8192, 0x57A4);
    let mut cfg = SimConfig::default()
        .with_routing("valiant", net.diameter() as u32)
        .with_windows(MeasurementWindows::new(1_000_000, 20_000_000))
        .with_jobs("traffic(1, random, 8192)");
    cfg.seed = 0x57A4;
    cfg.buffer_packets_per_vc = 1;
    let diagnosis = shard_invariant("wedged steady", |shards| {
        match run(&net, &cfg, &wl, Some(0.3), shards) {
            Err(SimError::Deadlock { diagnosis }) => diagnosis,
            other => panic!(
                "{shards} shards: expected a deadlock, got {:?}",
                other.map(|r| digest_results(&r))
            ),
        }
    });
    for part in [
        "29 undelivered packets and 4 links parked",
        "link queues: 10, pending injections: 19",
        "the last packet was delivered at 33943680 ps",
    ] {
        assert!(diagnosis.contains(part), "{part:?} not in: {diagnosis}");
    }
}
