//! Engine-equivalence battery on **degraded** graphs: the wakeup engine vs the
//! polling reference, across every registered routing algorithm, on networks
//! damaged by seeded fault plans.
//!
//! The contract mirrors `engine_equivalence.rs`: block-free runs match
//! bit-for-bit (the engines share packetization, routing decisions, and —
//! crucially here — the component-restricted Valiant intermediate sampler);
//! congested runs conserve deliveries. The degraded dimension adds: both
//! engines must agree on *feasibility* too — the same workload yields the
//! same `FaultError` on both.

use spectralfly_graph::failures::draw_failed_links;
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    FaultPlan, ReferenceSimulator, RouterRegistry, SimConfig, SimNetwork, SimResults, Simulator,
    Workload,
};

fn chordal_ring(n: usize, chords: &[(u32, u32)]) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    e.extend_from_slice(chords);
    CsrGraph::from_edges(n, &e)
}

fn core_fields(mut r: SimResults) -> SimResults {
    r.engine = Default::default();
    r
}

/// A workload among endpoints that are mutually reachable on the degraded
/// network: every alive endpoint sends to the next alive endpoint of its own
/// router component (guaranteed feasible).
fn feasible_workload(net: &SimNetwork, msgs: usize, bytes: u64) -> Workload {
    use spectralfly_simnet::Message;
    let alive = net.alive_endpoints();
    let mut messages = Vec::new();
    for (i, &src) in alive.iter().enumerate() {
        let sr = net.router_of_endpoint(src);
        // The next alive endpoint in the same component as src.
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
        for k in 0..msgs {
            messages.push(Message {
                src,
                dst,
                bytes,
                inject_offset_ps: k as u64,
            });
        }
    }
    Workload::new("degraded-pairs", messages)
}

#[test]
fn engines_agree_on_degraded_networks_across_all_routers() {
    // Damage levels from light to fragmenting, over two graph shapes.
    let scenarios: Vec<(&str, CsrGraph, FaultPlan)> = vec![
        (
            "ring12-links10",
            chordal_ring(12, &[(0, 6), (3, 9), (1, 7), (4, 10)]),
            FaultPlan::random_links(0.1).with_seed(3),
        ),
        (
            "ring16-links30",
            chordal_ring(16, &[(0, 8), (2, 10), (5, 13), (1, 9), (6, 14)]),
            FaultPlan::random_links(0.3).with_seed(17),
        ),
        (
            "ring12-router-down",
            chordal_ring(12, &[(0, 6), (2, 8), (4, 10)]),
            FaultPlan::parse("routers(2)").unwrap().with_seed(5),
        ),
        (
            "ring10-mixed",
            chordal_ring(10, &[(0, 5), (2, 7), (3, 8)]),
            FaultPlan::parse("links(0.15) + router(1)")
                .unwrap()
                .with_seed(9),
        ),
    ];
    for (name, graph, plan) in scenarios {
        let net = SimNetwork::with_faults(graph, 2, &plan).expect("plan applies");
        assert!(net.has_faults(), "{name}: plan must actually damage");
        let wl = feasible_workload(&net, 2, 1536);
        assert!(wl.num_messages() > 0, "{name}");
        for routing in RouterRegistry::with_builtins().names() {
            let mut cfg = SimConfig::default().with_routing(routing.clone(), net.diameter() as u32);
            cfg.seed = 0xD15EA5E;
            let new = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
            let old = ReferenceSimulator::new(&net, &cfg).try_run(&wl).unwrap();
            // Conservation always.
            assert_eq!(
                new.delivered_packets, old.delivered_packets,
                "{name}/{routing}"
            );
            assert_eq!(new.delivered_bytes, old.delivered_bytes, "{name}/{routing}");
            assert_eq!(
                new.delivered_messages, old.delivered_messages,
                "{name}/{routing}"
            );
            assert_eq!(new.delivered_bytes, wl.total_bytes(), "{name}/{routing}");
            // Hop bound still holds on the degraded diameter.
            assert!(
                (new.max_hops as usize) < cfg.num_vcs,
                "{name}/{routing}: {} hops >= VC bound {}",
                new.max_hops,
                cfg.num_vcs
            );
            // Block-free runs are exactly equal.
            if new.engine.blocked_parks == 0 && old.engine.timed_retries == 0 {
                assert_eq!(
                    core_fields(new.clone()),
                    core_fields(old),
                    "{name}/{routing}: block-free degraded runs must match exactly"
                );
            }
            // Determinism across invocations.
            assert_eq!(new, Simulator::new(&net, &cfg).try_run(&wl).unwrap());
        }
    }
}

/// Runtime churn (the dynamic counterpart of the static plans above): the
/// sequential and parallel engines each run the same fault *script* —
/// time-scheduled link churn with heal — across every registered routing
/// algorithm, and both must satisfy the conservation identities exactly:
/// `injected == delivered + failed` after a finite drain (nothing lost and
/// unaccounted), and `dropped_total == retransmits + failed` (every drop
/// either rescheduled or terminally failed). The polling reference engine
/// does not participate: it predates the runtime fault path and asserts
/// scripts away.
#[test]
fn engines_conserve_packets_under_runtime_churn_across_all_routers() {
    use spectralfly_simnet::{FaultScript, ParallelSimulator};
    let scenarios: Vec<(&str, &str)> = vec![
        ("pulse", "at(1us, links(0.2)) + at(50us, heal(all))"),
        ("router-blip", "at(2us, router(3)) + at(40us, heal(all))"),
        ("churn", "churn(300khz, 8us)"),
    ];
    for (name, spec) in scenarios {
        let graph = chordal_ring(12, &[(0, 6), (3, 9), (1, 7), (4, 10)]);
        let net = SimNetwork::new(graph, 2);
        let wl = Workload::uniform_random(net.num_endpoints(), 6, 1536, 21);
        for routing in RouterRegistry::with_builtins().names() {
            let script = FaultScript::parse(spec).unwrap().with_seed(33);
            let mut cfg = SimConfig::default()
                .with_routing(routing.clone(), net.diameter() as u32)
                .with_fault_script(script);
            cfg.seed = 0xC0FFEE;
            cfg.fault_horizon_ns = 200_000.0; // clip churn expansion at 200us
            let seq = Simulator::new(&net, &cfg)
                .try_run(&wl)
                .unwrap_or_else(|e| panic!("{name}/{routing}: sequential: {e}"));
            let cfg_par = cfg.clone().with_shards(2);
            let par = ParallelSimulator::new(&net, &cfg_par)
                .try_run(&wl)
                .unwrap_or_else(|e| panic!("{name}/{routing}: parallel: {e}"));
            for (engine, res) in [("seq", &seq), ("par", &par)] {
                let f = &res.faults;
                assert_eq!(
                    f.injected,
                    6 * net.num_endpoints() as u64,
                    "{name}/{routing}/{engine}"
                );
                assert_eq!(
                    f.injected,
                    f.delivered + f.failed,
                    "{name}/{routing}/{engine}: conservation violated"
                );
                assert_eq!(f.in_flight(), 0, "{name}/{routing}/{engine}");
                assert_eq!(
                    f.dropped_total(),
                    f.retransmits + f.failed,
                    "{name}/{routing}/{engine}"
                );
                assert!(f.fault_events > 0, "{name}/{routing}/{engine}");
                assert_eq!(
                    res.delivered_packets, f.delivered,
                    "{name}/{routing}/{engine}: stats layers disagree"
                );
            }
            // The engines schedule differently under churn (credit vs shared
            // buffers, different RNG constructions) but must agree on what was
            // offered to the network.
            assert_eq!(seq.faults.injected, par.faults.injected, "{name}/{routing}");
            // Determinism of the scripted run.
            assert_eq!(
                seq,
                Simulator::new(&net, &cfg).try_run(&wl).unwrap(),
                "{name}/{routing}: scripted rerun must be identical"
            );
        }
    }
}

#[test]
fn engines_agree_on_infeasibility() {
    // Cut an 8-ring in two; a cross-cut message must be rejected identically
    // by both engines, before any simulation work.
    let plan = FaultPlan::parse("link(0,7) + link(3,4)").unwrap();
    let net = SimNetwork::with_faults(chordal_ring(8, &[]), 1, &plan).unwrap();
    let wl = Workload::new(
        "cross",
        vec![spectralfly_simnet::Message {
            src: 1,
            dst: 5,
            bytes: 512,
            inject_offset_ps: 0,
        }],
    );
    for routing in RouterRegistry::with_builtins().names() {
        let cfg = SimConfig::default().with_routing(routing.clone(), net.diameter() as u32);
        let a = Simulator::new(&net, &cfg).try_run(&wl).unwrap_err();
        let b = ReferenceSimulator::new(&net, &cfg)
            .try_run(&wl)
            .unwrap_err();
        assert_eq!(a, b, "{routing}");
        let c = Simulator::new(&net, &cfg)
            .try_run_with_offered_load(&wl, 0.5)
            .unwrap_err();
        assert_eq!(a, c, "{routing}");
    }
}

#[test]
fn degraded_draws_match_the_static_fig5_sweep() {
    // The cross-layer seed contract, end to end at the network level: the
    // graph a `links(f)` plan leaves behind is the graph the static Fig. 5
    // machinery would measure at the same seed.
    use spectralfly_graph::failures::delete_random_edges;
    let g = chordal_ring(20, &[(0, 10), (4, 14), (7, 17)]);
    for (f, seed) in [(0.1, 0xFA11u64), (0.25, 23)] {
        let net =
            SimNetwork::with_faults(g.clone(), 1, &FaultPlan::random_links(f).with_seed(seed))
                .unwrap();
        assert_eq!(net.graph(), &delete_random_edges(&g, f, seed));
        assert_eq!(
            net.graph().num_edges(),
            g.num_edges() - draw_failed_links(&g, f, seed).len()
        );
    }
}
