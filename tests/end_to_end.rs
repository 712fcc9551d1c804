//! Cross-crate integration tests: topology generation → structural analysis → simulation →
//! layout, exercised through the public APIs exactly the way the experiment binaries use them.

use spectralfly_suite::*;

use spectralfly_graph::metrics::diameter_and_mean_distance;
use spectralfly_graph::partition::bisection_bandwidth;
use spectralfly_graph::paths::DistanceMatrix;
use spectralfly_graph::spectral::spectral_summary;
use spectralfly_graph::{profile_graph, Column};
use spectralfly_layout::wiring::DEFAULT_ELECTRICAL_LIMIT_M;
use spectralfly_layout::{classify_links, latency_profile, place_topology, PowerModel, QapConfig};
use spectralfly_simnet::workload::random_placement;
use spectralfly_simnet::{
    simulate, MeasurementWindows, SimConfig, SimNetwork, Simulator, Workload,
};
use spectralfly_topology::spec::table1_size_classes;
use spectralfly_topology::{GeneralizedDragonFly, LpsGraph, SlimFlyGraph, Topology};

/// Table I, first size class: every column has the right shape across all four topologies.
#[test]
fn table1_first_size_class_reproduces_paper_shape() {
    let class = &table1_size_classes()[0];
    let mut profiles = Vec::new();
    for spec in class {
        let g = spec.build().expect("spec builds");
        profiles.push(profile_graph(&g, &Column::ALL, 0xC0FFEE));
    }
    let (lps, sf, bf, df) = (&profiles[0], &profiles[1], &profiles[2], &profiles[3]);
    // Paper values: LPS(11,7)=168/12, SF(7)=98/11, BF(13,3)=234/11, DF(12)=156/12.
    assert_eq!((lps.routers, lps.radix), (168, 12));
    assert_eq!((sf.routers, sf.radix), (98, 11));
    assert_eq!((bf.routers, bf.radix), (234, 11));
    assert_eq!((df.routers, df.radix), (156, 12));
    // Diameters: SF = 2; LPS, DF = 3.
    assert_eq!(sf.diameter, Some(2));
    assert_eq!(lps.diameter, Some(3));
    assert_eq!(df.diameter, Some(3));
    // Mean distance ordering: SF < LPS < DF (paper: 1.89 < 2.39 < 2.70).
    assert!(sf.mean_distance < lps.mean_distance);
    assert!(lps.mean_distance < df.mean_distance);
    // Spectral gap ordering: LPS and SF well above DF (paper: 0.50, 0.62 vs 0.08).
    let (lps_mu1, sf_mu1, df_mu1) = (lps.mu1.unwrap(), sf.mu1.unwrap(), df.mu1.unwrap());
    assert!(lps_mu1 > 5.0 * df_mu1, "{lps_mu1} vs {df_mu1}");
    assert!(sf_mu1 > 5.0 * df_mu1);
    // Only the LPS instance must certify as Ramanujan.
    assert_eq!(lps.ramanujan, Some(true));
}

/// The paper's simulation-scale SpectralFly instance is Ramanujan and fits 32-port routers.
#[test]
fn simulation_instance_is_ramanujan_and_fits_ports() {
    let lps = LpsGraph::new(23, 13).unwrap();
    assert_eq!(lps.num_routers(), 1092);
    assert_eq!(lps.radix() + 8, 32, "24 network ports + concentration 8");
    let s = spectral_summary(lps.graph(), 80, 3);
    assert!(s.ramanujan);
    assert!(s.mu1 > 0.5);
}

/// Normalized bisection bandwidth: LPS beats a similarly sized SlimFly (Fig. 4 lower-right).
#[test]
fn lps_bisection_beats_slimfly_at_comparable_size() {
    let lps = LpsGraph::new(23, 11).unwrap(); // 660 routers, radix 24
    let sf = SlimFlyGraph::new(17).unwrap(); // 578 routers, radix 25
    let lps_bw = bisection_bandwidth(lps.graph(), 3, 1) as f64
        / (lps.graph().num_vertices() as f64 * 24.0 / 2.0);
    let sf_bw = bisection_bandwidth(sf.graph(), 3, 1) as f64
        / (sf.graph().num_vertices() as f64 * 25.0 / 2.0);
    assert!(
        lps_bw > sf_bw,
        "normalized bisection: LPS {lps_bw:.3} should exceed SlimFly {sf_bw:.3}"
    );
}

/// End-to-end simulation comparison at small scale: SpectralFly completes a congested random
/// workload at least as fast as a comparable DragonFly under UGAL-L (Fig. 6 shape).
#[test]
fn spectralfly_beats_dragonfly_on_congested_random_traffic() {
    let lps_net = SimNetwork::new(LpsGraph::new(11, 7).unwrap().graph().clone(), 4);
    let df_net = SimNetwork::new(
        GeneralizedDragonFly::new(8, 4, 21).unwrap().graph().clone(),
        4,
    );
    let bits = 9;
    let ranks = 1usize << bits;
    let mut times = Vec::new();
    for net in [&lps_net, &df_net] {
        let mut cfg = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
        cfg.seed = 5;
        let placement = random_placement(ranks, net.num_endpoints(), 11);
        let wl = Workload::synthetic("random", bits, 8, 4096, 3)
            .unwrap()
            .place(&placement);
        let res = Simulator::new(net, &cfg).run_with_offered_load(&wl, 0.6);
        assert_eq!(res.delivered_messages as usize, wl.num_messages());
        times.push(res.completion_time_ps as f64);
    }
    let speedup = times[1] / times[0];
    assert!(
        speedup > 0.9,
        "SpectralFly should be competitive with DragonFly (speedup {speedup:.2})"
    );
}

/// The Ember motifs run end-to-end on the small-scale SpectralFly as collective jobs — all
/// four side by side, each scattered over its own 64 endpoints, under UGAL-L: every schedule
/// message of every motif is delivered, and 2 and 4 shards agree on the whole result.
#[test]
fn ember_motifs_run_on_spectralfly() {
    let net = SimNetwork::new(LpsGraph::new(11, 7).unwrap().graph().clone(), 4);
    let motifs = [
        "halo3d(1, 2048)",
        "sweep3d(2, 1024, 2)",
        "fft3d(512)",
        "fft3d(512, 1, 4)",
    ];
    let mix = motifs
        .map(|motif| format!("{motif} x 64 @ random"))
        .join(" + ");
    let run = |shards: usize| {
        let cfg = SimConfig::default()
            .with_routing("ugal-l", net.diameter() as u32)
            .with_windows(MeasurementWindows::new(0, 200_000_000))
            .with_jobs(&mix)
            .with_shards(shards);
        let mut res = simulate(&net, &cfg, &Workload::default(), Some(1.0)).unwrap();
        res.engine = Default::default(); // arena high-water marks follow the partition
        res
    };
    let res = run(2);
    // 4×4×4 halo, 8×8 sweep (2 blocks × 2 sweeps), 8×8 and 16×4 pencil grids.
    let totals = [10 * 10 * 10 - 64, 4 * 112, 64 * 14, 64 * 18];
    assert_eq!(res.tenants.len(), 4);
    for ((tenant, motif), total) in res.tenants.iter().zip(motifs).zip(totals) {
        let outcome = tenant.collective.expect("a motif is a collective");
        assert_eq!(outcome.total_messages, total, "{motif}");
        assert_eq!(outcome.delivered_messages, total, "{motif}");
        assert!(
            outcome.completed && outcome.ranks_completed == 64,
            "{motif}"
        );
        assert!(outcome.completion_time_ps > 0, "{motif}");
    }
    assert_eq!(
        res,
        run(4),
        "the motif mix must not depend on the shard count"
    );
}

/// Layout pipeline: placement, wiring, power, and latency are internally consistent for an
/// LPS/SlimFly pair (Table II shape: comparable wire lengths).
#[test]
fn layout_pipeline_is_consistent_for_table2_pair() {
    let qap = QapConfig {
        anneal_iters: 15_000,
        ..Default::default()
    };
    let lps = LpsGraph::new(11, 7).unwrap();
    let sf = SlimFlyGraph::new(9).unwrap();
    let mut means = Vec::new();
    for g in [lps.graph(), sf.graph()] {
        let placement = place_topology(g, &qap);
        let wiring = classify_links(g, &placement, DEFAULT_ELECTRICAL_LIMIT_M);
        assert_eq!(wiring.links, g.num_edges());
        let power = PowerModel::default().summarize(&wiring, bisection_bandwidth(g, 2, 1));
        assert!(power.total_power_w > 0.0);
        let lat = latency_profile(g, &placement, 100.0);
        assert!(lat.max_latency_ns >= lat.average_latency_ns);
        means.push(wiring.mean_wire_m);
    }
    // Comparable machine rooms -> comparable mean wire lengths (within 2x of each other).
    let ratio = means[0] / means[1];
    assert!(ratio > 0.5 && ratio < 2.0, "mean wire ratio {ratio}");
}

/// Failure resilience: LPS keeps a usable diameter under 20% failures (Fig. 5 shape).
#[test]
fn lps_diameter_degrades_gracefully_under_failures() {
    use spectralfly_graph::failures::{delete_random_edges, FailureMetric, TrialConfig};
    let lps = LpsGraph::new(11, 7).unwrap();
    let cfg = TrialConfig {
        max_trials: 10,
        ..Default::default()
    };
    let point = spectralfly_graph::failures::failure_point(
        lps.graph(),
        0.2,
        FailureMetric::Diameter,
        &cfg,
        9,
    );
    assert!(
        point.mean >= 3.0 && point.mean <= 6.0,
        "diameter {}",
        point.mean
    );
    // Sanity on the deletion primitive itself.
    let damaged = delete_random_edges(lps.graph(), 0.2, 3);
    assert_eq!(damaged.num_edges(), lps.graph().num_edges() * 8 / 10);
}

/// The two routing extremes agree on delivery but differ in hop count on SpectralFly.
#[test]
fn valiant_paths_are_longer_but_still_deliver() {
    let net = SimNetwork::new(LpsGraph::new(11, 7).unwrap().graph().clone(), 2);
    let placement = random_placement(128, net.num_endpoints(), 3);
    let wl = Workload::synthetic("shuffle", 7, 4, 2048, 5)
        .unwrap()
        .place(&placement);
    let d = net.diameter() as u32;
    let min_res = {
        let cfg = SimConfig::default().with_routing("minimal", d);
        Simulator::new(&net, &cfg).run(&wl)
    };
    let val_res = {
        let cfg = SimConfig::default().with_routing("valiant", d);
        Simulator::new(&net, &cfg).run(&wl)
    };
    assert_eq!(min_res.delivered_packets, val_res.delivered_packets);
    assert!(val_res.mean_hops > min_res.mean_hops);
    assert!(min_res.max_hops <= d);
    assert!(val_res.max_hops <= 2 * d);
}

/// Registry-driven conformance on a real SpectralFly instance: every built-in
/// algorithm delivers a placed synthetic workload and stays within its own VC hop
/// bound. Iterates a freshly-built registry so the test set is independent of
/// custom routers other tests register into the process-global one concurrently.
#[test]
fn every_registered_algorithm_delivers_on_spectralfly() {
    let net = SimNetwork::new(LpsGraph::new(11, 7).unwrap().graph().clone(), 2);
    let placement = random_placement(128, net.num_endpoints(), 3);
    let wl = Workload::synthetic("shuffle", 7, 2, 2048, 5)
        .unwrap()
        .place(&placement);
    let names = spectralfly_simnet::RouterRegistry::with_builtins().names();
    for expected in ["minimal", "valiant", "ugal-l", "ugal-g"] {
        assert!(
            names.contains(&expected.to_string()),
            "{expected} missing from {names:?}"
        );
    }
    for name in names {
        let cfg = SimConfig::default().with_routing(name.clone(), net.diameter() as u32);
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_messages as usize, wl.num_messages(), "{name}");
        assert!(
            (res.max_hops as usize) < cfg.num_vcs,
            "{name}: hop bound violated"
        );
    }
}

/// A custom algorithm registered through the public API is selectable by name in a
/// `SimConfig` and routes traffic end-to-end, without any engine changes.
#[test]
fn custom_registered_algorithm_routes_end_to_end() {
    use spectralfly_simnet::routing::{self, Router, RoutingCtx, RoutingState};

    /// Deterministic non-adaptive minimal routing: always the first minimal port.
    struct FirstPort;
    impl Router for FirstPort {
        fn name(&self) -> &str {
            "e2e-first-port"
        }
        fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
            let target = state.current_target(ctx.dst());
            ctx.minimal_ports(target)[0]
        }
    }

    routing::register("e2e-first-port", || Box::new(FirstPort));
    let net = SimNetwork::new(LpsGraph::new(5, 7).unwrap().graph().clone(), 2);
    let cfg = SimConfig::default().with_routing("e2e-first-port", net.diameter() as u32);
    let wl = Workload::uniform_random(net.num_endpoints(), 4, 1024, 2);
    let res = Simulator::new(&net, &cfg).run(&wl);
    assert_eq!(res.delivered_messages as usize, wl.num_messages());
    assert!(res.max_hops as u16 <= net.diameter());
}

/// UGAL-G's global congestion signal changes routing decisions relative to UGAL-L
/// under congestion, while both deliver the same traffic.
#[test]
fn ugal_variants_deliver_identically_but_route_differently() {
    let net = SimNetwork::new(LpsGraph::new(11, 7).unwrap().graph().clone(), 4);
    let placement = random_placement(256, net.num_endpoints(), 7);
    let wl = Workload::synthetic("transpose", 8, 6, 4096, 9)
        .unwrap()
        .place(&placement);
    let d = net.diameter() as u32;
    let mut results = Vec::new();
    for routing in ["ugal-l", "ugal-g"] {
        let cfg = SimConfig::default().with_routing(routing, d);
        let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.7);
        assert_eq!(
            res.delivered_messages as usize,
            wl.num_messages(),
            "{routing}"
        );
        results.push(res);
    }
    // Same conservation laws, but the algorithms are genuinely distinct decision
    // procedures; under heavy load their trajectories must diverge.
    assert_eq!(results[0].delivered_packets, results[1].delivered_packets);
    assert_ne!(
        (results[0].completion_time_ps, results[0].mean_hops),
        (results[1].completion_time_ps, results[1].mean_hops),
        "UGAL-L and UGAL-G produced identical trajectories"
    );
}

/// Verify the cheap diameter helpers agree with the profile used by the harness.
#[test]
fn distance_helpers_agree_across_crates() {
    let lps = LpsGraph::new(13, 11).unwrap();
    let (d1, m1) = diameter_and_mean_distance(lps.graph()).unwrap();
    let dm = DistanceMatrix::from_graph(lps.graph());
    assert_eq!(d1 as u16, dm.diameter().unwrap());
    assert!((m1 - dm.mean_distance().unwrap()).abs() < 1e-12);
}
