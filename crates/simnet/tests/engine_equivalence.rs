//! Equivalence battery: the wakeup-driven engine vs the polling reference.
//!
//! Two tiers of guarantees:
//!
//! 1. **Exact equivalence** on runs without a single blocking episode: the two
//!    engines then execute the identical event cascade with the identical RNG
//!    stream, so every field of `SimResults` (except the engine counters, which
//!    intentionally differ in kind) must match bit-for-bit. Golden-seed triples
//!    over several (topology, routing, seed) combinations pin this down.
//! 2. **Conservation equivalence** under congestion: once links block, the
//!    engines schedule transmissions at different instants (the wakeup engine
//!    transmits the moment a slot frees; the polling engine at its next retry
//!    tick ≥ that moment) and adaptive routing then diverges — but the
//!    conservation quantities (packets / bytes / messages delivered) and the
//!    invariants (full delivery, VC hop bound, determinism) must hold in both.
//!
//! A proptest over random connected graphs × every registered routing
//! algorithm closes the battery.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    ReferenceSimulator, RouterRegistry, SimConfig, SimNetwork, SimResults, Simulator, Workload,
};

fn ring(n: usize) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    e.push((n as u32 - 1, 0));
    CsrGraph::from_edges(n, &e)
}

fn complete(n: usize) -> CsrGraph {
    let mut e = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            e.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &e)
}

/// A connected random graph: a ring spine (guarantees connectivity) plus
/// `extra` random chords, deterministic in `seed`.
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

/// Strip the engine counters (the one field the two engines legitimately
/// disagree on) so the rest of the results can be compared with `==`.
fn core_fields(mut r: SimResults) -> SimResults {
    r.engine = Default::default();
    r
}

/// Golden-seed exact equivalence on block-free runs. Each triple is checked to
/// actually be block-free (zero parks on the wakeup side, zero timed retries on
/// the polling side) so the exactness claim is not vacuous.
#[test]
fn golden_triples_reproduce_reference_results_exactly() {
    let triples: Vec<(&str, CsrGraph, usize, &str, u64)> = vec![
        ("ring8", ring(8), 2, "minimal", 1),
        ("ring12", ring(12), 1, "valiant", 7),
        ("complete6", complete(6), 2, "ugal-l", 3),
        ("chordal10", chordal_ring(10, 5, 42), 2, "ugal-g", 11),
        ("chordal16", chordal_ring(16, 8, 99), 1, "minimal", 23),
    ];
    for (name, graph, conc, routing, seed) in triples {
        let net = SimNetwork::new(graph, conc);
        let mut cfg = SimConfig::default().with_routing(routing, net.diameter() as u32);
        cfg.seed = seed;
        // Light traffic: a handful of small messages keeps buffers clear.
        let wl = Workload::uniform_random(net.num_endpoints(), 3, 1024, seed);

        let new = Simulator::new(&net, &cfg).run(&wl);
        let old = ReferenceSimulator::new(&net, &cfg).run(&wl);
        assert_eq!(
            new.engine.blocked_parks, 0,
            "{name}/{routing}: golden triple must be block-free"
        );
        assert_eq!(old.engine.timed_retries, 0, "{name}/{routing}");
        assert_eq!(
            core_fields(new.clone()),
            core_fields(old.clone()),
            "{name}/{routing}: block-free results must match exactly"
        );
        // Block-free event cascades are identical event-for-event.
        assert_eq!(new.engine.events, old.engine.events, "{name}/{routing}");

        // Offered-load variant (Poisson schedules consume the RNG identically).
        let new_l = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.2);
        let old_l = ReferenceSimulator::new(&net, &cfg).run_with_offered_load(&wl, 0.2);
        if new_l.engine.blocked_parks == 0 {
            assert_eq!(
                core_fields(new_l),
                core_fields(old_l),
                "{name}/{routing}: block-free offered-load results must match exactly"
            );
        } else {
            assert_eq!(new_l.delivered_packets, old_l.delivered_packets);
            assert_eq!(new_l.delivered_bytes, old_l.delivered_bytes);
        }
    }
}

/// Under heavy congestion the engines may schedule differently, but both must
/// conserve packets/bytes/messages — and the wakeup engine must do it without
/// a single timed retry while the reference engine demonstrably polls.
#[test]
fn congested_runs_conserve_deliveries_across_engines() {
    let net = SimNetwork::new(ring(8), 4);
    let cfg = SimConfig::default();
    let wl = Workload::uniform_random(net.num_endpoints(), 60, 4096, 13);
    let new = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.9);
    let old = ReferenceSimulator::new(&net, &cfg).run_with_offered_load(&wl, 0.9);

    assert!(new.engine.blocked_parks > 0, "run must actually congest");
    assert_eq!(new.engine.timed_retries, 0);
    assert!(old.engine.timed_retries > 0, "reference must actually poll");

    assert_eq!(new.delivered_packets, old.delivered_packets);
    assert_eq!(new.delivered_bytes, old.delivered_bytes);
    assert_eq!(new.delivered_messages, old.delivered_messages);
    // The wakeup engine does strictly less event work under congestion.
    assert!(
        new.engine.events < old.engine.events,
        "wakeup {} events vs reference {}",
        new.engine.events,
        old.engine.events
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random connected graphs × every registered routing algorithm: the wakeup
    /// engine must deliver every packet, stay within the VC hop bound, run
    /// bit-identically across two invocations, never schedule a timed retry,
    /// and agree with the reference engine on the conservation quantities.
    #[test]
    fn wakeup_engine_invariants_on_random_graphs(
        routers in 5usize..14,
        extra in 0usize..8,
        conc in 1usize..3,
        msgs in 1usize..4,
        seed in 0u64..200,
    ) {
        let graph = chordal_ring(routers, extra, seed ^ 0xC0FFEE);
        let net = SimNetwork::new(graph, conc);
        let wl = Workload::uniform_random(net.num_endpoints(), msgs, 2048, seed);
        let expected_packets: u64 = wl
            .messages
            .iter()
            .map(|m| m.bytes.div_ceil(SimConfig::default().packet_size_bytes).max(1))
            .sum();
        for name in RouterRegistry::with_builtins().names() {
            let mut cfg = SimConfig::default().with_routing(name.clone(), net.diameter() as u32);
            cfg.seed = seed;
            let sim = Simulator::new(&net, &cfg);
            let a = sim.run(&wl);
            // Full delivery.
            prop_assert_eq!(a.delivered_packets, expected_packets, "{}", &name);
            prop_assert_eq!(a.delivered_bytes, wl.total_bytes(), "{}", &name);
            // VC hop bound.
            prop_assert!(
                (a.max_hops as usize) < cfg.num_vcs,
                "{}: {} hops >= VC bound {}", &name, a.max_hops, cfg.num_vcs
            );
            // Never a timed retry; every park matched by a wakeup in a drained run.
            prop_assert_eq!(a.engine.timed_retries, 0, "{}", &name);
            prop_assert_eq!(a.engine.blocked_parks, a.engine.wakeups, "{}", &name);
            // Determinism across two runs.
            let b = sim.run(&wl);
            prop_assert_eq!(&a, &b, "{}: two runs of the same seed must be identical", &name);
            // Conservation agreement with the polling reference.
            let r = ReferenceSimulator::new(&net, &cfg).run(&wl);
            prop_assert_eq!(a.delivered_packets, r.delivered_packets, "{}", &name);
            prop_assert_eq!(a.delivered_bytes, r.delivered_bytes, "{}", &name);
            prop_assert_eq!(a.delivered_messages, r.delivered_messages, "{}", &name);
            // And when nothing ever blocked, the equivalence is exact.
            if a.engine.blocked_parks == 0 && r.engine.timed_retries == 0 {
                let mut a_core = a.clone();
                a_core.engine = Default::default();
                let mut r_core = r.clone();
                r_core.engine = Default::default();
                prop_assert_eq!(a_core, r_core, "{}: block-free equivalence", &name);
            }
        }
    }
}
