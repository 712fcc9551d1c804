//! Golden lock: `jobs = None` is the identity.
//!
//! The acceptance bar for the jobs subsystem is that job-less simulation is
//! **bit-identical** to the pre-jobs engine. The digests below were recorded
//! when the jobs subsystem landed, from code paths the subsystem does not
//! touch when `SimConfig::jobs` is `None` — so they pin the pre-jobs engines'
//! exact results across finite, offered-load, steady-state (template and
//! pattern destinations), and faulted runs. Any future change that perturbs a
//! legacy path — a tag check reordering RNG draws, a tenant-stats hook firing
//! for untagged traffic — drifts a digest here before it ever reaches the
//! recorded manifest baselines.
//!
//! The digests are the sharded engine's, and every cell runs at one shard
//! and at two.

use spectralfly_exp::digest_results;
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    FaultPlan, MeasurementWindows, SimConfig, SimNetwork, SimResults, Simulator, Workload,
};

fn chordal_ring(n: usize, chords: &[(u32, u32)]) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    e.extend_from_slice(chords);
    CsrGraph::from_edges(n, &e)
}

/// Digest one engine's result, asserting the job-less invariants first.
fn digest(label: &str, r: &SimResults) -> String {
    assert!(r.tenants.is_empty(), "{label}: job-less run grew tenants");
    digest_results(r)
}

/// Scenario battery × golden digests `(scenario, digest)`. Recorded by this
/// test itself (on drift it prints the full replacement table), pinned ever
/// since.
const GOLDEN: &[(&str, &str)] = &[
    ("finite/minimal", "37ecdb6c9d141f78"),
    ("offered/minimal", "2e8c0e65c72b3de4"),
    ("steady/minimal", "81a5ab6c2789f2ac"),
    ("pattern/minimal", "fb09278258fdb20d"),
    ("faulted/minimal", "84d59827de575bca"),
    ("finite/ugal-l", "d148da9a0dd87596"),
    ("offered/ugal-l", "eeaea0f67ebc4f4c"),
    ("steady/ugal-l", "9893cf0d76f29e57"),
    ("pattern/ugal-l", "ef64e720c9caca18"),
    ("faulted/ugal-l", "67e4cd85d099d4eb"),
];

#[test]
fn jobless_runs_reproduce_pre_jobs_golden_digests() {
    let graph = chordal_ring(12, &[(0, 6), (2, 9), (4, 10)]);
    let net = SimNetwork::new(graph.clone(), 2);
    let faulted =
        SimNetwork::with_faults(graph, 2, &FaultPlan::parse("link(0,6)+link(2,9)").unwrap())
            .expect("dropping two chords leaves the ring spine connected");

    let mut actual: Vec<(String, String)> = Vec::new();
    let mut record = |label: String,
                      net: &SimNetwork,
                      cfg: &SimConfig,
                      run: &dyn Fn(&SimNetwork, &SimConfig) -> SimResults| {
        let one = digest(&label, &run(net, cfg));
        let two = digest(&label, &run(net, &cfg.clone().with_shards(2)));
        assert_eq!(one, two, "{label}: two shards diverged from one");
        actual.push((label, one));
    };

    for routing in ["minimal", "ugal-l"] {
        let mut cfg = SimConfig::default().with_routing(routing, net.diameter() as u32);
        cfg.seed = 0x901D;
        assert!(cfg.jobs.is_none(), "default config must be job-less");
        let wl = Workload::uniform_random(net.num_endpoints(), 4, 2048, cfg.seed);

        let finite =
            |net: &SimNetwork, cfg: &SimConfig| Simulator::new(net, cfg).try_run(&wl).unwrap();
        let offered = |net: &SimNetwork, cfg: &SimConfig| {
            Simulator::new(net, cfg)
                .try_run_with_offered_load(&wl, 0.4)
                .unwrap()
        };

        // Finite, workload-paced.
        record(format!("finite/{routing}"), &net, &cfg, &finite);

        // Finite, offered-load.
        record(format!("offered/{routing}"), &net, &cfg, &offered);

        // Steady-state, template destinations.
        let mut scfg = cfg.clone();
        scfg.windows = Some(MeasurementWindows::new(1_000_000, 8_000_000));
        record(format!("steady/{routing}"), &net, &scfg, &offered);

        // Steady-state, live pattern destinations.
        let mut pcfg = cfg.clone();
        pcfg.windows =
            Some(MeasurementWindows::new(1_000_000, 8_000_000).with_pattern("adversarial(4)"));
        record(format!("pattern/{routing}"), &net, &pcfg, &offered);

        // Steady-state on a statically degraded network.
        let mut fcfg = cfg.clone().with_routing(routing, faulted.diameter() as u32);
        fcfg.seed = cfg.seed;
        fcfg.windows = Some(MeasurementWindows::new(1_000_000, 8_000_000));
        record(format!("faulted/{routing}"), &faulted, &fcfg, &offered);
    }

    assert_eq!(GOLDEN.len(), actual.len(), "scenario battery size drifted");
    let drifted: Vec<String> = GOLDEN
        .iter()
        .zip(&actual)
        .filter_map(|(&(id, want), (aid, got))| {
            assert_eq!(id, aid.as_str(), "scenario battery order drifted");
            (want != got).then(|| format!("    (\"{aid}\", \"{got}\"),"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "job-less runs drifted from the pre-jobs golden digests; if the drift \
         is intended, the new table is:\n{}",
        drifted.join("\n")
    );
}
