//! PDES equivalence battery: the sharded conservative parallel engine vs
//! itself across shard counts, and vs the sequential wakeup engine.
//!
//! Two tiers of guarantees, mirroring `engine_equivalence.rs`:
//!
//! 1. **Shard-count invariance** (the parallel engine's core claim): for a
//!    given network, config, and workload, every shard count produces the
//!    identical `SimResults` — physics fields exactly (the steady-state
//!    `IntervalSample` series included: shards record per-shard partials that
//!    the merge folds by tick index), engine counters excepted (arena
//!    high-water marks depend on the partition). Checked on finite,
//!    offered-load, steady-state, pattern-driven, and degraded runs, across
//!    every registered routing algorithm.
//! 2. **Sequential oracle**: on block-free runs the input-queued credit model
//!    coincides with the sequential engine's shared-buffer model, so results
//!    must match the wakeup engine bit-for-bit; under congestion the two
//!    models schedule differently, but the conservation quantities
//!    (packets / bytes / messages delivered) must agree on drained runs.
//!
//! The shard set honours `PDES_SHARDS` (comma-separated, e.g. `1,2,3,4`) so CI
//! can matrix over it; the default battery covers {1, 2, 4, 8}.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    FaultPlan, MeasurementWindows, Message, ParallelSimulator, RouterRegistry, SimConfig,
    SimNetwork, SimResults, Simulator, Workload,
};

fn shard_set() -> Vec<usize> {
    match std::env::var("PDES_SHARDS") {
        Ok(s) => {
            let v: Vec<usize> = s
                .split(',')
                .map(|t| t.trim().parse().expect("PDES_SHARDS must be integers"))
                .collect();
            assert!(!v.is_empty(), "PDES_SHARDS must name at least one count");
            v
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn ring(n: usize) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    e.push((n as u32 - 1, 0));
    CsrGraph::from_edges(n, &e)
}

/// A connected random graph: a ring spine plus `extra` random chords,
/// deterministic in `seed`.
fn chordal_ring(n: usize, extra: usize, seed: u64) -> CsrGraph {
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

/// Strip the engine counters (the one field shard counts legitimately
/// disagree on) so the rest of the results can be compared with `==`.
fn core_fields(mut r: SimResults) -> SimResults {
    r.engine = Default::default();
    r
}

/// Run the parallel engine at every shard count in the battery and assert the
/// physics fields are identical; returns the (shared) result for further
/// checks against the sequential oracle.
fn assert_shard_invariant(
    net: &SimNetwork,
    cfg: &SimConfig,
    ctx: &str,
    run: impl Fn(&ParallelSimulator) -> SimResults,
) -> SimResults {
    let mut baseline: Option<(usize, SimResults)> = None;
    for shards in shard_set() {
        let cfg_s = cfg.clone().with_shards(shards);
        let res = run(&ParallelSimulator::new(net, &cfg_s));
        match &baseline {
            None => baseline = Some((shards, res)),
            Some((s0, r0)) => assert_eq!(
                core_fields(r0.clone()),
                core_fields(res),
                "{ctx}: {shards} shards diverged from {s0} shards"
            ),
        }
    }
    baseline.expect("battery has at least one shard count").1
}

/// Finite drain-to-empty runs: identical across shard counts for every
/// registered routing algorithm, and conserving deliveries vs the sequential
/// engine (which always drains the same packet set).
#[test]
fn shard_counts_agree_on_finite_runs_across_all_routers() {
    let scenarios: Vec<(&str, CsrGraph, usize, u64)> = vec![
        ("ring8", ring(8), 2, 3),
        ("chordal12", chordal_ring(12, 6, 42), 2, 17),
    ];
    for (name, graph, conc, seed) in scenarios {
        let net = SimNetwork::new(graph, conc);
        let wl = Workload::uniform_random(net.num_endpoints(), 6, 3000, seed);
        for routing in RouterRegistry::with_builtins().names() {
            let mut cfg = SimConfig::default().with_routing(routing.clone(), net.diameter() as u32);
            cfg.seed = seed;
            let par =
                assert_shard_invariant(&net, &cfg, &format!("{name}/{routing}"), |s| s.run(&wl));
            let seq = Simulator::new(&net, &cfg).run(&wl);
            assert_eq!(
                par.delivered_packets, seq.delivered_packets,
                "{name}/{routing}"
            );
            assert_eq!(par.delivered_bytes, seq.delivered_bytes, "{name}/{routing}");
            assert_eq!(
                par.delivered_messages, seq.delivered_messages,
                "{name}/{routing}"
            );
            // VC hop bound holds in the parallel engine too.
            assert!(
                (par.max_hops as usize) < cfg.num_vcs,
                "{name}/{routing}: {} hops >= VC bound {}",
                par.max_hops,
                cfg.num_vcs
            );
        }
    }
}

/// Poisson-spaced finite runs (no measurement windows): the injection schedule
/// is packetized on the main thread with the sequential engine's RNG stream,
/// so it is identical across shard counts by construction — and the drained
/// results must be too.
#[test]
fn shard_counts_agree_on_offered_load_finite_runs() {
    let net = SimNetwork::new(chordal_ring(10, 5, 7), 2);
    let wl = Workload::uniform_random(net.num_endpoints(), 4, 4096, 19);
    for routing in ["minimal", "ugal-l"] {
        let mut cfg = SimConfig::default().with_routing(routing, net.diameter() as u32);
        cfg.seed = 19;
        let par =
            assert_shard_invariant(&net, &cfg, routing, |s| s.run_with_offered_load(&wl, 0.7));
        let seq = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.7);
        assert_eq!(par.delivered_packets, seq.delivered_packets, "{routing}");
        assert_eq!(par.delivered_bytes, seq.delivered_bytes, "{routing}");
    }
}

/// Steady-state runs with measurement windows: per-source RNG streams and
/// per-shard sample partials (folded by tick index at merge — shards carry no
/// sampling events) keep the time-series, the measurement summary, and the
/// latency statistics identical across shard counts.
#[test]
fn shard_counts_agree_on_steady_state_runs() {
    let net = SimNetwork::new(ring(8), 2);
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 23);
    let cfg = SimConfig::default()
        .with_routing("ugal-g", net.diameter() as u32)
        .with_windows(MeasurementWindows::new(2_000_000, 20_000_000));
    let res = assert_shard_invariant(&net, &cfg, "steady/ugal-g", |s| {
        s.run_with_offered_load(&wl, 0.5)
    });
    let m = res.measurement.expect("steady run produces a summary");
    assert!(m.delivered_packets > 50, "got {}", m.delivered_packets);
    assert!(!res.samples.is_empty());
}

/// Regression for the sampler rework: sampling used to be driven by per-shard
/// replicated tick *events*; it is now event-free per-shard state whose
/// partials are folded by tick index at merge. The `IntervalSample` series —
/// every field of every tick — must be identical across shard counts, and the
/// tick grid itself must match the configured interval/deadline exactly.
#[test]
fn interval_sample_series_is_shard_count_invariant() {
    let net = SimNetwork::new(chordal_ring(10, 5, 7), 2);
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 31);
    let windows = MeasurementWindows::new(2_000_000, 20_000_000);
    let ivm = windows.sample_interval_ps;
    let deadline = windows.deadline_ps();
    let cfg = SimConfig::default()
        .with_routing("ugal-l", net.diameter() as u32)
        .with_windows(windows);

    let mut baseline: Option<Vec<spectralfly_simnet::IntervalSample>> = None;
    for shards in shard_set() {
        let mut cfg = cfg.clone();
        cfg.shards = shards;
        let res = ParallelSimulator::new(&net, &cfg).run_with_offered_load(&wl, 0.6);
        assert_eq!(
            res.samples.len(),
            (deadline / ivm) as usize,
            "{shards} shards: tick count must cover the full sampling window"
        );
        for (i, s) in res.samples.iter().enumerate() {
            assert_eq!(s.t_ps, (i as u64 + 1) * ivm, "{shards} shards: tick grid");
        }
        assert!(
            res.samples.iter().any(|s| s.delivered_packets > 0),
            "{shards} shards: series must be non-trivial"
        );
        match &baseline {
            None => baseline = Some(res.samples),
            Some(base) => {
                assert_eq!(base.len(), res.samples.len(), "{shards} shards");
                for (i, (a, b)) in base.iter().zip(res.samples.iter()).enumerate() {
                    assert_eq!(a.t_ps, b.t_ps, "{shards} shards, tick {i}");
                    assert_eq!(
                        a.delivered_bytes, b.delivered_bytes,
                        "{shards} shards, tick {i}"
                    );
                    assert_eq!(
                        a.delivered_packets, b.delivered_packets,
                        "{shards} shards, tick {i}"
                    );
                    assert_eq!(
                        a.mean_queue_depth.to_bits(),
                        b.mean_queue_depth.to_bits(),
                        "{shards} shards, tick {i}"
                    );
                    assert_eq!(
                        a.blocked_links, b.blocked_links,
                        "{shards} shards, tick {i}"
                    );
                }
            }
        }
    }
}

/// Steady-state runs driven by a synthetic traffic pattern (destinations drawn
/// per message from the per-source streams).
#[test]
fn shard_counts_agree_on_pattern_driven_runs() {
    let net = SimNetwork::new(ring(8), 1);
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 29);
    for pattern in ["tornado", "hotspot(3, 0.5)", "adversarial(1)"] {
        let cfg = SimConfig::default()
            .with_routing("valiant", net.diameter() as u32)
            .with_windows(MeasurementWindows::new(2_000_000, 15_000_000).with_pattern(pattern));
        let res =
            assert_shard_invariant(&net, &cfg, pattern, |s| s.run_with_offered_load(&wl, 0.4));
        assert!(
            res.measurement.expect("summary").delivered_packets > 0,
            "{pattern}"
        );
    }
}

/// Degraded topologies: the partition and the epoch protocol must cope with
/// missing links/routers, and results stay shard-count-invariant — both on a
/// feasible finite workload and on an alive-mapped pattern run.
#[test]
fn shard_counts_agree_on_degraded_networks() {
    let graph = chordal_ring(12, 6, 5);
    let plan = FaultPlan::random_links(0.15).with_seed(9);
    let net = SimNetwork::with_faults(graph, 2, &plan).expect("plan leaves survivors");

    // Finite: every alive endpoint sends to a reachable alive peer.
    let alive = net.alive_endpoints();
    let mut messages = Vec::new();
    for (i, &src) in alive.iter().enumerate() {
        let sr = net.router_of_endpoint(src);
        let dst = alive
            .iter()
            .cycle()
            .skip(i + 1)
            .take(alive.len())
            .copied()
            .find(|&d| {
                d != src
                    && net.dist(sr, net.router_of_endpoint(d))
                        != spectralfly_graph::paths::UNREACHABLE_U16
            });
        let Some(dst) = dst else { continue };
        messages.push(Message {
            src,
            dst,
            bytes: 6000,
            inject_offset_ps: 0,
        });
    }
    let wl = Workload::new("degraded-pairs", messages);
    let mut cfg = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
    cfg.seed = 31;
    let par = assert_shard_invariant(&net, &cfg, "degraded/finite", |s| s.run(&wl));
    let seq = Simulator::new(&net, &cfg).run(&wl);
    assert_eq!(par.delivered_packets, seq.delivered_packets);
    assert_eq!(par.delivered_messages, seq.delivered_messages);

    // Steady pattern over the alive-endpoint space.
    let cfg = SimConfig::default()
        .with_routing("minimal", net.diameter() as u32)
        .with_windows(MeasurementWindows::new(2_000_000, 15_000_000).with_pattern("uniform"));
    let res = assert_shard_invariant(&net, &cfg, "degraded/pattern", |s| {
        s.run_with_offered_load(&wl, 0.3)
    });
    assert!(res.measurement.expect("summary").delivered_packets > 0);
}

/// Runtime churn: every shard count replays the identical fault timeline, so
/// a scripted run — including drops, retransmissions, and terminal failures —
/// must be bit-identical across shard counts for every registered routing
/// algorithm, and the conservation identities must hold on the merged stats.
#[test]
fn shard_counts_agree_on_runtime_churn_across_all_routers() {
    use spectralfly_simnet::FaultScript;
    let net = SimNetwork::new(chordal_ring(12, 6, 5), 2);
    let wl = Workload::uniform_random(net.num_endpoints(), 5, 2048, 13);
    let scripts: Vec<(&str, &str)> = vec![
        ("pulse", "at(1us, links(0.25)) + at(60us, heal(all))"),
        ("churn", "churn(250khz, 10us)"),
    ];
    for (name, spec) in scripts {
        for routing in RouterRegistry::with_builtins().names() {
            let mut cfg = SimConfig::default()
                .with_routing(routing.clone(), net.diameter() as u32)
                .with_fault_script(FaultScript::parse(spec).unwrap().with_seed(7));
            cfg.seed = 0xFA117;
            cfg.fault_horizon_ns = 150_000.0; // bound the churn chain at 150us
            let res =
                assert_shard_invariant(&net, &cfg, &format!("{name}/{routing}"), |s| s.run(&wl));
            let f = &res.faults;
            assert_eq!(
                f.injected,
                5 * net.num_endpoints() as u64,
                "{name}/{routing}"
            );
            assert_eq!(
                f.injected,
                f.delivered + f.failed,
                "{name}/{routing}: conservation violated"
            );
            assert_eq!(f.in_flight(), 0, "{name}/{routing}");
            assert_eq!(
                f.dropped_total(),
                f.retransmits + f.failed,
                "{name}/{routing}"
            );
            assert!(f.fault_events > 0, "{name}/{routing}");
            assert_eq!(res.delivered_packets, f.delivered, "{name}/{routing}");
        }
    }
}

/// Tier-2 exactness: on block-free runs the credit model and the sequential
/// shared-buffer model execute the identical cascade, so the parallel engine
/// must reproduce the wakeup engine's results bit-for-bit. Each golden is
/// checked to actually be block-free on both sides so the claim is not
/// vacuous. (Tie-breaks draw from different RNG constructions in the two
/// engines, so the goldens use minimal routing on odd rings — every
/// router pair has a unique shortest path, leaving no ties to break.)
#[test]
fn block_free_goldens_match_the_sequential_engine_exactly() {
    let goldens: Vec<(&str, CsrGraph, usize, u64)> = vec![
        ("ring5", ring(5), 1, 1),
        ("ring7", ring(7), 2, 7),
        ("ring9", ring(9), 2, 13),
    ];
    for (name, graph, conc, seed) in goldens {
        let net = SimNetwork::new(graph, conc);
        let mut cfg = SimConfig::default().with_routing("minimal", net.diameter() as u32);
        cfg.seed = seed;
        let wl = Workload::uniform_random(net.num_endpoints(), 2, 1024, seed);
        let seq = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(
            seq.engine.blocked_parks, 0,
            "{name}: golden must be block-free on the sequential side"
        );
        for shards in shard_set() {
            let cfg_s = cfg.clone().with_shards(shards);
            let par = ParallelSimulator::new(&net, &cfg_s).run(&wl);
            assert_eq!(
                par.engine.blocked_parks, 0,
                "{name}: golden must be block-free at {shards} shards"
            );
            // Credit returns are not events: both engines pop one event per
            // injection, arrival and transmit attempt.
            assert_eq!(
                par.engine.events, seq.engine.events,
                "{name}: the parallel engine popped a different number of events at {shards} shards"
            );
            assert_eq!(
                core_fields(seq.clone()),
                core_fields(par),
                "{name}: block-free results must match the sequential engine at {shards} shards"
            );
        }
    }
}

/// Under congestion the input-queued credit model legitimately schedules
/// differently from the sequential shared-buffer model, but a drained finite
/// run must conserve packets, bytes, and messages. (The sequential side is
/// checked to actually congest; the parallel engine's per-input-port credit
/// pools give it more aggregate buffering, so its backpressure path gets its
/// own small-buffer test below.)
#[test]
fn congested_runs_conserve_deliveries_vs_sequential() {
    let net = SimNetwork::new(ring(8), 4);
    let cfg = SimConfig {
        seed: 37,
        ..Default::default()
    };
    let wl = Workload::uniform_random(net.num_endpoints(), 60, 4096, 37);
    let seq = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.9);
    assert!(
        seq.engine.blocked_parks > 0,
        "sequential side must actually congest"
    );
    let par = assert_shard_invariant(&net, &cfg, "congested", |s| {
        s.run_with_offered_load(&wl, 0.9)
    });
    assert_eq!(par.engine.timed_retries, 0);
    assert_eq!(par.delivered_packets, seq.delivered_packets);
    assert_eq!(par.delivered_bytes, seq.delivered_bytes);
    assert_eq!(par.delivered_messages, seq.delivered_messages);
}

/// Starve the credit pools so the parallel engine's backpressure path is
/// demonstrably exercised: links must park on exhausted credits, every park
/// must be matched by a credit wakeup, the run must still drain completely,
/// and the whole episode must stay shard-count-invariant.
#[test]
fn credit_backpressure_engages_and_drains() {
    let net = SimNetwork::new(ring(8), 4);
    let cfg = SimConfig {
        buffer_packets_per_vc: 2,
        seed: 41,
        ..Default::default()
    };
    let wl = Workload::uniform_random(net.num_endpoints(), 30, 4096, 41);
    let counts = std::cell::RefCell::new(Vec::new());
    let par = assert_shard_invariant(&net, &cfg, "backpressure", |s| {
        let r = s.run_with_offered_load(&wl, 0.9);
        let e = &r.engine;
        counts
            .borrow_mut()
            .push((e.events, e.blocked_parks, e.wakeups));
        r
    });
    assert!(
        par.engine.blocked_parks > 0,
        "run must actually exhaust credits"
    );
    assert_eq!(par.engine.blocked_parks, par.engine.wakeups);
    assert_eq!(par.engine.timed_retries, 0);
    assert_eq!(par.delivered_bytes, wl.total_bytes());
    // On a pristine run the event set itself is shard-count-invariant: a
    // parked link gets exactly one wake however its credits travelled.
    // (Under a fault script every shard replays the timeline, so counts
    // legitimately differ there.)
    let counts = counts.into_inner();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "(events, parks, wakeups) per shard count must agree: {counts:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random connected graphs × shard counts: full delivery, the VC hop
    /// bound, park/wakeup balance, bit-identical reruns, and shard-count
    /// invariance — the conservative protocol's guarantees under arbitrary
    /// topology and load.
    #[test]
    fn parallel_engine_invariants_on_random_graphs(
        routers in 5usize..14,
        extra in 0usize..8,
        conc in 1usize..3,
        msgs in 1usize..4,
        seed in 0u64..200,
    ) {
        let graph = chordal_ring(routers, extra, seed ^ 0xBEEF);
        let net = SimNetwork::new(graph, conc);
        let wl = Workload::uniform_random(net.num_endpoints(), msgs, 2048, seed);
        let expected_packets: u64 = wl
            .messages
            .iter()
            .map(|m| m.bytes.div_ceil(SimConfig::default().packet_size_bytes).max(1))
            .sum();
        for routing in ["minimal", "valiant", "ugal-l"] {
            let mut cfg = SimConfig::default().with_routing(routing, net.diameter() as u32);
            cfg.seed = seed;
            let mut baseline: Option<SimResults> = None;
            for shards in [1usize, 2, 5] {
                let cfg_s = cfg.clone().with_shards(shards);
                let sim = ParallelSimulator::new(&net, &cfg_s);
                let a = sim.run(&wl);
                // Full delivery and the VC hop bound.
                prop_assert_eq!(a.delivered_packets, expected_packets, "{}@{}", routing, shards);
                prop_assert_eq!(a.delivered_bytes, wl.total_bytes(), "{}@{}", routing, shards);
                prop_assert!(
                    (a.max_hops as usize) < cfg.num_vcs,
                    "{}@{}: {} hops >= VC bound {}", routing, shards, a.max_hops, cfg.num_vcs
                );
                // Credit flow control: never a timed retry, and in a drained
                // run every park is matched by exactly one credit wakeup.
                prop_assert_eq!(a.engine.timed_retries, 0, "{}@{}", routing, shards);
                prop_assert_eq!(
                    a.engine.blocked_parks, a.engine.wakeups,
                    "{}@{}", routing, shards
                );
                // Determinism across two runs at the same shard count.
                let b = sim.run(&wl);
                prop_assert_eq!(&a, &b, "{}@{}: rerun must be identical", routing, shards);
                // Shard-count invariance of the physics.
                match &baseline {
                    None => baseline = Some(a),
                    Some(r0) => prop_assert_eq!(
                        core_fields(r0.clone()),
                        core_fields(a),
                        "{}@{}: diverged from the 1-shard result", routing, shards
                    ),
                }
            }
        }
    }
}

/// Tenant-mix steady runs through the jobs subsystem: the full `SimResults` —
/// per-tenant stats and collective outcomes included — is bit-identical
/// across shard counts on a congested, irregular mix, and bit-identical to
/// the sequential engine on a tie-free, block-free golden (odd ring, minimal
/// routing, light load — the regime where the credit and shared-buffer models
/// execute the identical cascade; the job source streams are engine-invariant
/// by construction, so only scheduling could diverge).
#[test]
fn tenant_mix_steady_runs_are_shard_invariant_and_match_sequential_tie_free() {
    // Shard invariance under congestion: collectives + adversarial open-loop
    // + both bursty sources, spanning shard boundaries of a chordal graph.
    const MIX: &str = "allreduce-ring(4096) x 6 \
                       + traffic(0.4, adversarial(4), 1024) x 12 \
                       + mmpp(0.6, 0.1, 4, 4, 1024) x 6 \
                       + onoff(0.7, 1.5, 3, 5, 1024) x 6";
    let net = SimNetwork::new(chordal_ring(12, 6, 42), 3);
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 256, 9);
    for routing in ["minimal", "ugal-l"] {
        let mut cfg = SimConfig::default()
            .with_routing(routing, net.diameter() as u32)
            .with_windows(MeasurementWindows::new(500_000, 5_000_000))
            .with_jobs(MIX);
        cfg.seed = 23;
        let par = assert_shard_invariant(&net, &cfg, &format!("mix/{routing}"), |s| {
            s.run_with_offered_load(&wl, 0.9)
        });
        assert_eq!(par.tenants.len(), 4, "{routing}");
        assert!(
            par.tenants.iter().all(|t| t.injected_messages > 0),
            "{routing}: every tenant must offer measured traffic"
        );
    }

    // Sequential oracle on a tie-free golden: light load, unique shortest
    // paths, checked block-free on both sides so the claim is not vacuous.
    const LIGHT: &str = "allreduce-ring(1024) x 4 \
                         + traffic(0.05, random, 512) x 8 \
                         + mmpp(0.1, 0.0, 5, 5, 512) x 4";
    let net = SimNetwork::new(ring(9), 2);
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 256, 5);
    let mut cfg = SimConfig::default()
        .with_routing("minimal", net.diameter() as u32)
        .with_windows(MeasurementWindows::new(500_000, 5_000_000))
        .with_jobs(LIGHT);
    cfg.seed = 31;
    let seq = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 1.0);
    assert_eq!(
        seq.engine.blocked_parks, 0,
        "golden must be block-free on the sequential side"
    );
    let coll = seq.tenants[0].collective.as_ref().expect("outcome");
    assert!(coll.completed, "golden collective must complete: {coll:?}");
    for shards in shard_set() {
        let cfg_s = cfg.clone().with_shards(shards);
        let par = ParallelSimulator::new(&net, &cfg_s).run_with_offered_load(&wl, 1.0);
        assert_eq!(
            par.engine.blocked_parks, 0,
            "golden must be block-free at {shards} shards"
        );
        assert_eq!(
            core_fields(seq.clone()),
            core_fields(par),
            "tenant-mix golden must match the sequential engine at {shards} shards"
        );
    }
}

/// The Ember motifs as co-resident collective jobs: per-rank round
/// dependencies (pipelined Sweep3D blocks, halo iterations that wait on 26
/// neighbours, FFT column exchanges behind row exchanges) cross shard
/// boundaries of a chordal graph at random placement, and the full
/// `SimResults` — every motif's completion time included — is bit-identical
/// across shard counts; every schedule message is delivered.
#[test]
fn ember_motif_mix_is_shard_invariant() {
    const MIX: &str = "halo3d(2, 4096) x 8 @ random + sweep3d(2, 2048, 2) x 9 @ random \
                       + fft3d(1024) x 9 @ random + fft3d(1024, 2, 2) x 8 @ random";
    let net = SimNetwork::new(chordal_ring(12, 6, 42), 3);
    let wl = Workload::default();
    for routing in ["minimal", "ugal-l"] {
        let mut cfg = SimConfig::default()
            .with_routing(routing, net.diameter() as u32)
            .with_windows(MeasurementWindows::new(0, 50_000_000))
            .with_jobs(MIX);
        cfg.seed = 0xE4BE;
        let par = assert_shard_invariant(&net, &cfg, &format!("ember/{routing}"), |s| {
            s.run_with_offered_load(&wl, 1.0)
        });
        // 2×2×2 halo, 3×3 sweep and pencil grid, 4×2 pencil grid.
        let totals = [2 * 56, 4 * 12, 9 * 4, 2 * 8 * 4];
        for (t, total) in par.tenants.iter().zip(totals) {
            let out = t.collective.expect("a motif is a collective");
            assert_eq!(out.total_messages, total, "{routing}/{}", t.name);
            assert!(out.completed, "{routing}/{}: {out:?}", t.name);
        }
    }
}
