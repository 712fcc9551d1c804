//! Engine battery over every registered routing algorithm: the invariants a
//! run must keep on its own — full delivery, the VC hop bound, no timed
//! retry, one wakeup per park, determinism — and exact agreement between one
//! shard and two, on random graphs and under congestion.
//!
//! `pdes_equivalence.rs` holds every shard count to one shard on its
//! scenarios; this battery is the one that walks the whole routing registry
//! (UGAL-G's congestion board included) over arbitrary topologies.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::config::PACKET_BYTES;
use spectralfly_simnet::{RouterRegistry, SimConfig, SimNetwork, SimResults, Simulator, Workload};

fn ring(n: usize) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    e.push((n as u32 - 1, 0));
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

/// Strip the engine counters (arena high-water marks depend on the
/// partition) so the rest of the results can be compared with `==`.
fn core_fields(mut r: SimResults) -> SimResults {
    r.engine = Default::default();
    r
}

/// Under heavy congestion links park on exhausted credits: every park must be
/// matched by one wakeup in the drained run, no retry is ever timed, and two
/// shards reproduce the one-shard run exactly.
#[test]
fn congested_runs_match_across_shard_counts() {
    let net = SimNetwork::new(ring(8), 4);
    let cfg = SimConfig {
        buffer_packets_per_vc: 2,
        ..SimConfig::default()
    };
    let wl = Workload::uniform_random(net.num_endpoints(), 60, 4096, 13);
    let one = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.9);
    assert!(one.engine.blocked_parks > 0, "run must actually congest");
    assert_eq!(one.engine.blocked_parks, one.engine.wakeups);
    assert_eq!(one.engine.timed_retries, 0);
    assert_eq!(one.delivered_bytes, wl.total_bytes());
    let two_cfg = cfg.with_shards(2);
    let two = Simulator::new(&net, &two_cfg).run_with_offered_load(&wl, 0.9);
    assert_eq!(core_fields(one), core_fields(two));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random connected graphs × every registered routing algorithm: every
    /// packet delivered within the VC hop bound, no timed retry, every park
    /// matched by a wakeup, two runs of one seed identical, and two shards
    /// identical to one.
    #[test]
    fn engine_invariants_on_random_graphs(
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
            .map(|m| m.bytes.div_ceil(PACKET_BYTES).max(1))
            .sum();
        for name in RouterRegistry::with_builtins().names() {
            let mut cfg = SimConfig::default().with_routing(name.clone(), net.diameter() as u32);
            cfg.seed = seed;
            let sim = Simulator::new(&net, &cfg);
            let a = sim.run(&wl);
            prop_assert_eq!(a.delivered_packets, expected_packets, "{}", &name);
            prop_assert_eq!(a.delivered_bytes, wl.total_bytes(), "{}", &name);
            prop_assert!(
                (a.max_hops as usize) < cfg.num_vcs,
                "{}: {} hops >= VC bound {}", &name, a.max_hops, cfg.num_vcs
            );
            prop_assert_eq!(a.engine.timed_retries, 0, "{}", &name);
            prop_assert_eq!(a.engine.blocked_parks, a.engine.wakeups, "{}", &name);
            let b = sim.run(&wl);
            prop_assert_eq!(&a, &b, "{}: two runs of the same seed must be identical", &name);
            let two_cfg = cfg.clone().with_shards(2);
            let two = Simulator::new(&net, &two_cfg).run(&wl);
            prop_assert_eq!(core_fields(a), core_fields(two), "{}: 2 shards diverged", &name);
        }
    }
}
