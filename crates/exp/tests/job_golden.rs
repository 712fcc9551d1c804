//! Golden lock: the finite paths are untouched by the jobs subsystem, and a
//! single-tenant mix is the steady run.
//!
//! The `finite/*` and `offered/*` digests were recorded when the jobs
//! subsystem landed, from code paths the subsystem does not touch — a
//! workload run with `SimConfig::jobs` unset — so they pin the pre-jobs
//! engines' exact results. Any change that perturbs those paths — a tag check
//! reordering RNG draws, a tenant-stats hook firing for untagged traffic —
//! drifts a digest here before it ever reaches the recorded manifest
//! baselines. The steady cells run the one-tenant mixes a manifest's steady
//! points run (`traffic(1, P, bytes)`): uniform, adversarial and on a
//! statically degraded network.
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

/// Digest one engine's result, asserting first that exactly the steady runs
/// report their one tenant.
fn digest(label: &str, r: &SimResults) -> String {
    let tenants = usize::from(!label.starts_with("finite/") && !label.starts_with("offered/"));
    assert_eq!(r.tenants.len(), tenants, "{label}: tenant table");
    digest_results(r)
}

/// Scenario battery × golden digests `(scenario, digest)`. Recorded by this
/// test itself (on drift it prints the full replacement table), pinned ever
/// since; the steady cells were re-recorded once, when every steady run
/// became a job mix.
const GOLDEN: &[(&str, &str)] = &[
    ("finite/minimal", "37ecdb6c9d141f78"),
    ("offered/minimal", "2e8c0e65c72b3de4"),
    ("steady/minimal", "f04861e0a0e978b1"),
    ("pattern/minimal", "14a2fd20e848c96c"),
    ("faulted/minimal", "4b0ac893733ffce1"),
    ("finite/ugal-l", "d148da9a0dd87596"),
    ("offered/ugal-l", "eeaea0f67ebc4f4c"),
    ("steady/ugal-l", "65d9630ff395c95c"),
    ("pattern/ugal-l", "f460c2c9f0a8f08d"),
    ("faulted/ugal-l", "1eee67871f4c4897"),
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

        let steady = |cfg: &SimConfig, mix: &str| {
            let windows = MeasurementWindows::new(1_000_000, 8_000_000);
            cfg.clone().with_windows(windows).with_jobs(mix)
        };

        // Steady-state, uniform destinations.
        let scfg = steady(&cfg, "traffic(1, random, 2048)");
        record(format!("steady/{routing}"), &net, &scfg, &offered);

        // Steady-state, adversarial destinations.
        let pcfg = steady(&cfg, "traffic(1, adversarial(4), 2048)");
        record(format!("pattern/{routing}"), &net, &pcfg, &offered);

        // Steady-state on a statically degraded network.
        let mut fcfg = cfg.clone().with_routing(routing, faulted.diameter() as u32);
        fcfg.seed = cfg.seed;
        let fcfg = steady(&fcfg, "traffic(1, random, 2048)");
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
        "runs drifted from their golden digests; if the drift is intended, \
         the new table is:\n{}",
        drifted.join("\n")
    );
}
