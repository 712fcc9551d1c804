//! Steady-state pattern integration: destinations drawn live from a configured
//! traffic pattern, golden-seed stability of the pattern-less path across the
//! registry refactor, and loud failure on unknown specs.

use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{MeasurementWindows, SimConfig, SimNetwork, Simulator, Workload};

fn ring(n: usize) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    e.push((n as u32 - 1, 0));
    CsrGraph::from_edges(n, &e)
}

/// Golden-seed lock: a pattern-less (template-cycling) uniform steady-state run
/// must stay **bit-identical**. The constants below pin ring(8)×2, UGAL-L,
/// windows (5 ms warmup, 30 ms measure), seed 0xC0FFEE, a 1-msg/endpoint
/// 4096-byte uniform workload (seed 9) — any drift in packetization, source
/// scheduling, or RNG consumption shows up here.
#[test]
fn uniform_steady_state_is_bit_identical_to_its_golden() {
    let net = SimNetwork::new(ring(8), 2);
    let mut cfg = SimConfig::default()
        .with_routing("ugal-l", net.diameter() as u32)
        .with_windows(MeasurementWindows::new(5_000_000, 30_000_000));
    cfg.seed = 0xC0FFEE;
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 9);

    let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.25);
    let m = res.measurement.as_ref().expect("windowed run");
    assert_eq!(res.completion_time_ps, 36_861_703);
    assert_eq!(res.delivered_packets, 374);
    assert_eq!(res.delivered_messages, 374);
    assert_eq!(res.delivered_bytes, 1_531_904);
    assert_eq!(res.mean_packet_latency_ps, 1_011_969.4197860962);
    assert_eq!(res.max_packet_latency_ps, 4_333_279);
    assert_eq!(res.p50_packet_latency_ps, 915_360);
    assert_eq!(res.p95_packet_latency_ps, 2_746_080);
    assert_eq!(res.p99_packet_latency_ps, 3_562_852);
    assert_eq!(res.max_message_latency_ps, 4_333_279);
    assert_eq!(res.mean_hops, 1.7165775401069518);
    assert_eq!(res.max_hops, 6);
    assert_eq!(res.engine.events, 2_268);
    assert_eq!(m.injected_packets, 374);
    assert_eq!(m.delivered_packets, 374);
    assert_eq!(m.delivered_bytes, 1_531_904);
    assert_eq!(m.min_inject_ps, 5_016_084);
    assert_eq!(m.max_inject_ps, 34_762_718);

    // A saturated point of the same configuration.
    let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.8);
    let m = res.measurement.as_ref().expect("windowed run");
    assert_eq!(res.completion_time_ps, 64_830_395);
    assert_eq!(res.delivered_packets, 959);
    assert_eq!(res.delivered_bytes, 3_928_064);
    assert_eq!(res.mean_packet_latency_ps, 13_614_920.407716371);
    assert_eq!(res.max_packet_latency_ps, 49_421_922);
    assert_eq!(res.p99_packet_latency_ps, 42_232_822);
    assert_eq!(res.max_hops, 7);
    assert_eq!(res.engine.events, 8_593);
    assert_eq!(m.injected_packets, 1_153);
    assert_eq!(m.min_inject_ps, 5_015_677);
    assert_eq!(m.max_inject_ps, 34_942_971);
}

/// With `pattern: tornado` on a ring(8)×1, every message travels exactly 4 hops
/// (the antipodal shift), which is directly observable in the hop statistics —
/// proof the sources draw destinations from the pattern, not the (uniform)
/// workload templates.
#[test]
fn steady_sources_draw_destinations_from_the_configured_pattern() {
    let net = SimNetwork::new(ring(8), 1);
    let cfg = SimConfig::default()
        .with_windows(MeasurementWindows::new(2_000_000, 20_000_000).with_pattern("tornado"));
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 9);
    let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.2);
    assert!(res.delivered_packets > 50, "{}", res.delivered_packets);
    assert_eq!(
        res.mean_hops, 4.0,
        "tornado on an 8-ring must route every packet across 4 hops"
    );
    assert_eq!(res.max_hops, 4);

    // The same run without the pattern mixes distances 1..=4.
    let cfg_uniform =
        SimConfig::default().with_windows(MeasurementWindows::new(2_000_000, 20_000_000));
    let uni = Simulator::new(&net, &cfg_uniform).run_with_offered_load(&wl, 0.2);
    assert!(
        uni.mean_hops < 4.0,
        "uniform templates should average under 4 hops, got {}",
        uni.mean_hops
    );
}

/// Pattern-driven steady-state runs stay deterministic given the seed, and the
/// pattern spec survives the config round-trip.
#[test]
fn pattern_runs_are_deterministic_given_seed() {
    let net = SimNetwork::new(ring(6), 2);
    let cfg = SimConfig::default().with_windows(
        MeasurementWindows::new(2_000_000, 15_000_000).with_pattern("hotspot(3, 0.5)"),
    );
    assert_eq!(
        cfg.windows.as_ref().unwrap().pattern.as_deref(),
        Some("hotspot(3, 0.5)")
    );
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 2048, 4);
    let a = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.4);
    let b = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.4);
    assert_eq!(a, b);
    assert!(a.delivered_packets > 0);
}

/// Group-aligned adversarial traffic on a ring: with single-endpoint groups the
/// victim of endpoint `e` is exactly `(e + 1) mod n`, so every packet goes one
/// hop clockwise — again directly visible in the hop statistics.
#[test]
fn adversarial_groups_align_to_the_requested_size() {
    let net = SimNetwork::new(ring(8), 1);
    let cfg = SimConfig::default().with_windows(
        MeasurementWindows::new(2_000_000, 20_000_000).with_pattern("adversarial(1)"),
    );
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 9);
    let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.2);
    assert!(res.delivered_packets > 50);
    assert_eq!(res.mean_hops, 1.0);
    assert_eq!(res.max_hops, 1);
}

/// An unknown pattern spec fails the run loudly, before any simulation work,
/// naming the registered patterns — the same contract as unknown routing names.
#[test]
#[should_panic(expected = "unknown traffic pattern")]
fn unknown_steady_pattern_panics_with_candidates() {
    let net = SimNetwork::new(ring(6), 1);
    let cfg = SimConfig::default()
        .with_windows(MeasurementWindows::new(1_000_000, 5_000_000).with_pattern("wormhole-9000"));
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 2048, 4);
    let _ = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.2);
}
