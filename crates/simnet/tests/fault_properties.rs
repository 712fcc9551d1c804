//! Property battery for the fault subsystem.
//!
//! The satellite contract: on **any** degraded graph, for **every** registered
//! routing algorithm, a random permutation among the surviving endpoints
//! either delivers *all* of its packets (no silent drops — when every pair is
//! connected) or is rejected up front with a typed [`FaultError`] (when the
//! damage separates some pair) — never a hang, never a partial delivery.

use proptest::prelude::*;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use spectralfly_graph::paths::UNREACHABLE_U16;
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    routing, FaultError, FaultPlan, Infeasible, Message, SimConfig, SimError, SimNetwork,
    Simulator, Workload,
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

/// A random permutation workload over the network's alive endpoints
/// (deterministic in `seed`): every alive endpoint sends one message, every
/// alive endpoint receives one; self-pairs are skipped.
fn alive_permutation(net: &SimNetwork, bytes: u64, seed: u64) -> Workload {
    let alive = net.alive_endpoints();
    let mut dsts = alive.clone();
    dsts.shuffle(&mut StdRng::seed_from_u64(seed));
    let messages: Vec<Message> = alive
        .iter()
        .zip(&dsts)
        .filter(|(s, d)| s != d)
        .map(|(&src, &dst)| Message {
            src,
            dst,
            bytes,
            inject_offset_ps: 0,
        })
        .collect();
    Workload::new("alive-permutation", messages)
}

/// Whether every message pair of `wl` is routable on `net`.
fn all_pairs_connected(net: &SimNetwork, wl: &Workload) -> bool {
    wl.messages.iter().all(|m| {
        let (sr, dr) = (net.router_of_endpoint(m.src), net.router_of_endpoint(m.dst));
        sr == dr || net.dist(sr, dr) != UNREACHABLE_U16
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random graph × random damage × every registered router: full delivery
    /// on connected damage, a typed error on disconnecting damage.
    #[test]
    fn degraded_permutations_deliver_fully_or_fail_typed(
        routers in 6usize..14,
        extra in 0usize..6,
        conc in 1usize..3,
        kill_pct in 0u32..45,
        down in 0usize..3,
        seed in 0u64..500,
    ) {
        let graph = chordal_ring(routers, extra, seed ^ 0xFA17);
        let plan = FaultPlan::parse(&format!("links({}) + routers({down})", kill_pct as f64 / 100.0))
            .unwrap()
            .with_seed(seed);
        let net = SimNetwork::with_faults(graph, conc, &plan).unwrap();
        let wl = alive_permutation(&net, 1024, seed ^ 0x9E37);
        if wl.num_messages() == 0 {
            return Ok(()); // everything died or only self-pairs — nothing to assert
        }
        let expected_feasible = all_pairs_connected(&net, &wl);
        for routing in routing::BUILTINS.names() {
            let mut cfg = SimConfig::default()
                .with_routing(routing.clone(), net.diameter().max(1) as u32);
            cfg.seed = seed;
            match Simulator::new(&net, &cfg).try_run(&wl) {
                Ok(res) => {
                    prop_assert!(
                        expected_feasible,
                        "{routing}: ran a workload with a disconnected pair"
                    );
                    // No silent drops: every packet of every message delivered.
                    prop_assert_eq!(res.delivered_messages, wl.num_messages() as u64, "{}", &routing);
                    prop_assert_eq!(res.delivered_bytes, wl.total_bytes(), "{}", &routing);
                    prop_assert!(
                        (res.max_hops as usize) < cfg.num_vcs,
                        "{}: hop bound", &routing
                    );
                }
                Err(e) => {
                    prop_assert!(
                        !expected_feasible,
                        "{routing}: rejected a fully connected workload: {e}"
                    );
                    prop_assert!(
                        matches!(e, SimError::Fault(FaultError::Other(Infeasible::Disconnected { .. }))),
                        "{routing}: wrong error class: {e}"
                    );
                }
            }
        }
    }

    /// Messages touching a down router's endpoints are always RouterDown —
    /// checked before connectivity, on every router.
    #[test]
    fn down_router_endpoints_are_rejected(
        routers in 5usize..12,
        victim in 0usize..12,
        seed in 0u64..200,
    ) {
        let victim = (victim % routers) as u32;
        let graph = chordal_ring(routers, 3, seed);
        let plan = FaultPlan::parse(&format!("router({victim})")).unwrap();
        let net = SimNetwork::with_faults(graph, 1, &plan).unwrap();
        let src = (victim as usize + 1) % routers;
        let wl = Workload::new(
            "to-the-dead",
            vec![Message { src, dst: victim as usize, bytes: 256, inject_offset_ps: 0 }],
        );
        for routing in routing::BUILTINS.names() {
            let cfg = SimConfig::default().with_routing(routing.clone(), net.diameter().max(1) as u32);
            let err = Simulator::new(&net, &cfg).try_run(&wl).unwrap_err();
            prop_assert_eq!(
                err,
                SimError::Fault(FaultError::Other(
                    Infeasible::RouterDown { endpoint: victim as usize, router: victim }
                )),
                "{}", &routing
            );
        }
    }
}
