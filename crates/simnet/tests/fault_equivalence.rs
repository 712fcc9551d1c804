//! Shard-count battery on **degraded** graphs: one shard vs two, across every
//! registered routing algorithm, on networks damaged by seeded fault plans and
//! under runtime fault scripts.
//!
//! The contract mirrors `engine_equivalence.rs`: two shards reproduce the
//! one-shard run exactly (the component-restricted Valiant intermediate
//! sampler included), every packet is delivered within the VC hop bound, and
//! reruns are identical. The degraded dimension adds: both shard counts agree
//! on *feasibility* too — the same workload yields the same `FaultError`.

use spectralfly_graph::failures::draw_failed_links;
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    routing, FaultPlan, SimConfig, SimNetwork, SimResults, Simulator, Workload,
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
fn shard_counts_agree_on_degraded_networks_across_all_routers() {
    // Damage levels from light to fragmenting, over two graph shapes.
    let scenarios: Vec<(&str, CsrGraph, FaultPlan)> = vec![
        (
            "ring12-links10",
            chordal_ring(12, &[(0, 6), (3, 9), (1, 7), (4, 10)]),
            FaultPlan::parse("links(0.1)").unwrap().with_seed(3),
        ),
        (
            "ring16-links30",
            chordal_ring(16, &[(0, 8), (2, 10), (5, 13), (1, 9), (6, 14)]),
            FaultPlan::parse("links(0.3)").unwrap().with_seed(17),
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
        for routing in routing::BUILTINS.names() {
            let mut cfg = SimConfig::default().with_routing(routing.clone(), net.diameter() as u32);
            cfg.seed = 0xD15EA5E;
            let one = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
            assert_eq!(one.delivered_bytes, wl.total_bytes(), "{name}/{routing}");
            assert_eq!(
                one.delivered_messages,
                wl.num_messages() as u64,
                "{name}/{routing}"
            );
            // Hop bound still holds on the degraded diameter.
            assert!(
                (one.max_hops as usize) < cfg.num_vcs,
                "{name}/{routing}: {} hops >= VC bound {}",
                one.max_hops,
                cfg.num_vcs
            );
            let two_cfg = cfg.clone().with_shards(2);
            let two = Simulator::new(&net, &two_cfg).try_run(&wl).unwrap();
            assert_eq!(
                core_fields(one.clone()),
                core_fields(two),
                "{name}/{routing}: two shards diverged"
            );
            // Determinism across invocations.
            assert_eq!(one, Simulator::new(&net, &cfg).try_run(&wl).unwrap());
        }
    }
}

/// Runtime churn (the dynamic counterpart of the static plans above): one
/// shard and two run the same fault *script* — time-scheduled link churn with
/// heal — across every registered routing algorithm, identically, and the run
/// satisfies the conservation identities exactly: `injected == delivered +
/// failed` after a finite drain (nothing lost and unaccounted), and
/// `dropped_total == retransmits + failed` (every drop either rescheduled or
/// terminally failed).
#[test]
fn shard_counts_conserve_packets_under_runtime_churn_across_all_routers() {
    use spectralfly_simnet::FaultScript;
    let scenarios: Vec<(&str, &str)> = vec![
        ("pulse", "at(1us, links(0.2)) + at(50us, heal(all))"),
        ("router-blip", "at(2us, router(3)) + at(40us, heal(all))"),
        ("churn", "churn(300khz, 8us)"),
    ];
    for (name, spec) in scenarios {
        let graph = chordal_ring(12, &[(0, 6), (3, 9), (1, 7), (4, 10)]);
        let net = SimNetwork::new(graph, 2);
        let wl = Workload::uniform_random(net.num_endpoints(), 6, 1536, 21);
        for routing in routing::BUILTINS.names() {
            let script = FaultScript::parse(spec).unwrap().with_seed(33);
            let mut cfg = SimConfig::default()
                .with_routing(routing.clone(), net.diameter() as u32)
                .with_fault_script(script);
            cfg.seed = 0xC0FFEE;
            cfg.fault_horizon_ps = 200_000_000; // clip churn expansion at 200us
            let one = Simulator::new(&net, &cfg)
                .try_run(&wl)
                .unwrap_or_else(|e| panic!("{name}/{routing}: {e}"));
            let f = &one.faults;
            assert_eq!(
                f.injected,
                6 * net.num_endpoints() as u64,
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
            assert_eq!(
                one.delivered_packets, f.delivered,
                "{name}/{routing}: stats layers disagree"
            );
            let cfg_two = cfg.clone().with_shards(2);
            let two = Simulator::new(&net, &cfg_two)
                .try_run(&wl)
                .unwrap_or_else(|e| panic!("{name}/{routing}: two shards: {e}"));
            assert_eq!(
                core_fields(one.clone()),
                core_fields(two),
                "{name}/{routing}: two shards diverged"
            );
            // Determinism of the scripted run.
            assert_eq!(
                one,
                Simulator::new(&net, &cfg).try_run(&wl).unwrap(),
                "{name}/{routing}: scripted rerun must be identical"
            );
        }
    }
}

#[test]
fn shard_counts_agree_on_infeasibility() {
    // Cut an 8-ring in two; a cross-cut message must be rejected identically
    // at every shard count, before any simulation work.
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
    for routing in routing::BUILTINS.names() {
        let cfg = SimConfig::default().with_routing(routing.clone(), net.diameter() as u32);
        let a = Simulator::new(&net, &cfg).try_run(&wl).unwrap_err();
        let two = cfg.clone().with_shards(2);
        let b = Simulator::new(&net, &two).try_run(&wl).unwrap_err();
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
        let plan = FaultPlan::parse(&format!("links({f})")).unwrap();
        let net = SimNetwork::with_faults(g.clone(), 1, &plan.with_seed(seed)).unwrap();
        assert_eq!(net.graph(), &delete_random_edges(&g, f, seed));
        assert_eq!(
            net.graph().num_edges(),
            g.num_edges() - draw_failed_links(&g, f, seed).len()
        );
    }
}
