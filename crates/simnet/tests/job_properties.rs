//! Property battery for the jobs subsystem.
//!
//! The satellite contract, over **random** topologies and **every** registered
//! routing algorithm:
//!
//! * every rank of an all-reduce / all-gather completes **exactly once** —
//!   `ranks_completed` equals the tenant size, never more, and a rerun is
//!   bit-identical;
//! * delivered collective message counts match the closed forms of the
//!   schedules — `2n(n−1)` for the ring all-reduce, `2(n−1)` for the tree,
//!   `n(n−1)` for all-to-all and the ring all-gather;
//! * packet conservation (`injected == delivered + failed`, nothing in
//!   flight) holds exactly under a runtime fault script that drops and
//!   retransmits collective traffic mid-chain;
//! * the bursty open-loop sources (`mmpp`, `onoff`) track their configured
//!   stationary rate inside the measurement window — warmup excluded,
//!   deterministic per seed.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    routing, FaultScript, MeasurementWindows, SimConfig, SimNetwork, SimResults, Simulator,
    Workload,
};

/// A connected random graph: ring spine plus seeded chords.
fn chordal_ring(n: usize, extra: usize, seed: u64) -> CsrGraph {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: std::collections::BTreeSet<(u32, u32)> = (0..n as u32)
        .map(|i| {
            let j = (i + 1) % n as u32;
            (i.min(j), i.max(j))
        })
        .collect();
    for _ in 0..extra * 4 {
        if edges.len() >= n + extra {
            break;
        }
        let a = rng.gen_range(0..n) as u32;
        let b = rng.gen_range(0..n) as u32;
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    let edges: Vec<(u32, u32)> = edges.into_iter().collect();
    CsrGraph::from_edges(n, &edges)
}

/// One steady jobs run (jobs mode requires windows;
/// the workload only lends its type — the mix supersedes it).
fn run_mix(net: &SimNetwork, cfg: &SimConfig, load: f64) -> SimResults {
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 256, cfg.seed);
    Simulator::new(net, cfg)
        .try_run_with_offered_load(&wl, load)
        .unwrap_or_else(|e| panic!("jobs run refused: {e}"))
}

/// The four collective schedules' closed-form message counts over `n` ranks.
fn closed_forms(n: u64) -> [(&'static str, u64); 4] {
    [
        ("allreduce-ring", 2 * n * (n - 1)),
        ("allreduce-tree", 2 * (n - 1)),
        ("alltoall", n * (n - 1)),
        ("allgather", n * (n - 1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graph × every registered router: all four collectives, placed
    /// as disjoint tenants of one mix, complete every rank exactly once and
    /// deliver exactly their closed-form message counts.
    #[test]
    fn collectives_complete_exactly_once_with_closed_form_counts(
        routers in 6usize..13,
        extra in 0usize..6,
        conc in 2usize..4,
        seed in 0u64..500,
    ) {
        let graph = chordal_ring(routers, extra, seed ^ 0x10B5);
        let net = SimNetwork::new(graph, conc);
        let n = (net.num_endpoints() / 4).clamp(2, 5);
        let mix = closed_forms(n as u64)
            .map(|(name, _)| format!("{name}(1024) x {n}"))
            .join(" + ");
        for routing in routing::BUILTINS.names() {
            let mut cfg = SimConfig::default()
                .with_routing(routing.clone(), net.diameter().max(1) as u32)
                .with_windows(MeasurementWindows::new(1_000, 400_000_000))
                .with_jobs(&mix);
            cfg.seed = seed;
            let res = run_mix(&net, &cfg, 1.0);
            prop_assert_eq!(res.tenants.len(), 4, "{}", &routing);
            for (t, (name, want)) in res.tenants.iter().zip(closed_forms(n as u64)) {
                let out = t.collective.as_ref().unwrap_or_else(
                    || panic!("{routing}/{name}: no collective outcome"));
                prop_assert_eq!(t.ranks, n, "{}/{}", &routing, name);
                prop_assert!(
                    out.completed,
                    "{}/{}: stalled at {}/{} messages, {}/{} ranks",
                    &routing, name, out.delivered_messages, out.total_messages,
                    out.ranks_completed, n
                );
                // Exactly once: every rank done, none double-counted.
                prop_assert_eq!(out.ranks_completed, n, "{}/{}", &routing, name);
                prop_assert_eq!(out.total_messages, want, "{}/{}", &routing, name);
                prop_assert_eq!(out.delivered_messages, want, "{}/{}", &routing, name);
                prop_assert!(
                    out.completion_time_ps > 0 && out.completion_time_ps <= 400_001_000,
                    "{}/{}: completion time {} outside the run",
                    &routing, name, out.completion_time_ps
                );
            }
            // Exactly once also means exactly reproducible.
            prop_assert_eq!(res, run_mix(&net, &cfg, 1.0), "{}: rerun diverged", &routing);
        }
    }
}

/// Runtime churn mid-collective: drops are retransmitted and the conservation
/// identities hold exactly for every registered router — `injected ==
/// delivered + failed` with nothing left in flight (the chain stalls rather
/// than leaks when a message terminally fails), and every drop is either
/// rescheduled or terminally failed — and two shards reproduce the run.
#[test]
fn collective_mixes_conserve_packets_under_fault_scripts() {
    let graph = chordal_ring(12, 5, 0xFA57);
    let net = SimNetwork::new(graph, 2);
    let mix = "allreduce-ring(2048) x 6 + alltoall(2048) x 6 + allgather(2048) x 6";
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 256, 3);
    for script_spec in [
        "at(2us, links(0.2)) + at(10us, heal(all))",
        "churn(200khz, 6us)",
    ] {
        for routing in routing::BUILTINS.names() {
            let script = FaultScript::parse(script_spec).unwrap().with_seed(11);
            let mut cfg = SimConfig::default()
                .with_routing(routing.clone(), net.diameter() as u32)
                .with_windows(MeasurementWindows::new(1_000, 400_000_000))
                .with_jobs(mix)
                .with_fault_script(script);
            cfg.seed = 0xC0117;
            cfg.fault_horizon_ps = 100_000_000;
            let res = Simulator::new(&net, &cfg)
                .try_run_with_offered_load(&wl, 1.0)
                .unwrap_or_else(|e| panic!("{script_spec}/{routing}: {e}"));
            let f = &res.faults;
            assert!(f.injected > 0, "{script_spec}/{routing}");
            assert_eq!(
                f.injected,
                f.delivered + f.failed,
                "{script_spec}/{routing}: conservation violated"
            );
            assert_eq!(f.in_flight(), 0, "{script_spec}/{routing}");
            assert_eq!(
                f.dropped_total(),
                f.retransmits + f.failed,
                "{script_spec}/{routing}: drops leaked"
            );
            // Collective bookkeeping stays consistent with the packet layer:
            // a stalled chain reports partial delivery, never more than the
            // schedule holds.
            for t in &res.tenants {
                let out = t.collective.as_ref().expect("collective outcome");
                assert!(out.delivered_messages <= out.total_messages);
                assert_eq!(
                    out.completed,
                    out.ranks_completed == t.ranks,
                    "{script_spec}/{routing}/{}: completion flag drifted",
                    t.name
                );
                if f.failed == 0 {
                    assert!(
                        out.completed,
                        "{script_spec}/{routing}/{}: no terminal loss yet stalled",
                        t.name
                    );
                }
            }
            let two_cfg = cfg.clone().with_shards(2);
            let mut two = Simulator::new(&net, &two_cfg)
                .try_run_with_offered_load(&wl, 1.0)
                .unwrap_or_else(|e| panic!("{script_spec}/{routing}: two shards: {e}"));
            two.engine = res.engine;
            assert_eq!(res, two, "{script_spec}/{routing}: two shards diverged");
        }
    }
}

/// The bursty open-loop sources track their configured stationary rate: with
/// `mmpp` and `onoff` tenants tuned to the same stationary load as a plain
/// Poisson `traffic` tenant, all three inject the same measured byte volume
/// to within sampling tolerance. The warmup equals the measurement span, so
/// erroneously counting warmup-era injections would double the bursty
/// tenants' measured volume and trip the tolerance; and the whole run is
/// bit-identical per seed while distinct across seeds.
#[test]
fn bursty_sources_track_their_stationary_rate() {
    let graph = chordal_ring(8, 4, 0xB025);
    let net = SimNetwork::new(graph, 4);
    // All three tenants sit at stationary load 0.4:
    //   mmpp: (0.8·6 + 0.0·6) / (6+6) = 0.4, onoff: 0.8·5/(5+5) = 0.4.
    let mix = "traffic(0.4, random, 2048) x 10 \
               + mmpp(0.8, 0.0, 6, 6, 2048) x 10 \
               + onoff(0.8, 1.5, 5, 5, 2048) x 10";
    let span_ps = 600_000_000;
    let mut cfg = SimConfig::default()
        .with_routing("minimal", net.diameter() as u32)
        .with_windows(MeasurementWindows::new(span_ps, span_ps))
        .with_jobs(mix);
    cfg.seed = 0x5EED1;
    let res = run_mix(&net, &cfg, 1.0);
    assert_eq!(res.tenants.len(), 3);
    let poisson = res.tenants[0].injected_bytes as f64;
    assert!(poisson > 0.0, "reference tenant injected nothing");
    for t in &res.tenants[1..] {
        let ratio = t.injected_bytes as f64 / poisson;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "{}: measured volume is {ratio:.3}x the Poisson reference at the \
             same stationary load ({} vs {} bytes over {span_ps} ps)",
            t.name,
            t.injected_bytes,
            res.tenants[0].injected_bytes
        );
    }
    // Deterministic per seed…
    assert_eq!(res, run_mix(&net, &cfg, 1.0), "same seed must reproduce");
    // …and actually seeded: a different seed draws different arrivals.
    let mut other = cfg.clone();
    other.seed = 0x5EED2;
    let res2 = run_mix(&net, &other, 1.0);
    assert_ne!(
        (
            res.tenants[1].injected_messages,
            res.tenants[2].injected_messages
        ),
        (
            res2.tenants[1].injected_messages,
            res2.tenants[2].injected_messages
        ),
        "bursty arrivals must depend on the seed"
    );
}
