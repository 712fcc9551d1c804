//! Steady-state pattern integration: a steady run's mix draws destinations
//! live from its traffic pattern, the uniform mix is golden-seed stable, and
//! an unknown nested pattern is a typed error naming the candidates.

use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    pattern, MeasurementWindows, PatternCtx, Registries, SimConfig, SimError, SimNetwork,
    Simulator, Workload,
};

fn ring(n: usize) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    e.push((n as u32 - 1, 0));
    CsrGraph::from_edges(n, &e)
}

/// `cfg` under windows of `warmup_ps` + `measure_ps`, running `mix`.
fn steady(cfg: SimConfig, warmup_ps: u64, measure_ps: u64, mix: &str) -> SimConfig {
    cfg.with_windows(MeasurementWindows::new(warmup_ps, measure_ps))
        .with_jobs(mix)
}

/// Golden-seed lock: the uniform steady-state mix must stay
/// **bit-identical**. The constants below pin ring(8)×2, UGAL-L, windows
/// (5 µs warmup, 30 µs measure), seed 0xC0FFEE, `traffic(1, random, 4096)` —
/// any drift in packetization, source scheduling, or RNG consumption shows up
/// here.
#[test]
fn uniform_steady_state_is_bit_identical_to_its_golden() -> Result<(), SimError> {
    let net = SimNetwork::new(ring(8), 2);
    let base = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
    let mut cfg = steady(base, 5_000_000, 30_000_000, "traffic(1, random, 4096)");
    cfg.seed = 0xC0FFEE;
    let wl = Workload::default();

    let res = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.25)?;
    let m = res.measurement.as_ref().expect("windowed run");
    assert_eq!(res.completion_time_ps, 37_220_446);
    assert_eq!(res.delivered_packets, 363);
    assert_eq!(res.delivered_messages, 363);
    assert_eq!(res.delivered_bytes, 1_486_848);
    assert_eq!(res.mean_packet_latency_ps, 1_138_652.561983471);
    assert_eq!(res.max_packet_latency_ps, 2_875_281);
    assert_eq!(res.p50_packet_latency_ps, 1_030_126);
    assert_eq!(res.p95_packet_latency_ps, 2_326_011);
    assert_eq!(res.p99_packet_latency_ps, 2_688_419);
    assert_eq!(res.max_message_latency_ps, 2_875_281);
    assert_eq!(res.mean_hops, 2.0330578512396693);
    assert_eq!(res.max_hops, 5);
    assert_eq!(res.engine.events, 2_604);
    assert_eq!(m.injected_packets, 363);
    assert_eq!(m.delivered_packets, 363);
    assert_eq!(m.delivered_bytes, 1_486_848);
    assert_eq!(m.min_inject_ps, 5_044_088);
    assert_eq!(m.max_inject_ps, 34_932_046);

    // A saturated point of the same configuration.
    let res = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.8)?;
    let m = res.measurement.as_ref().expect("windowed run");
    assert_eq!(res.completion_time_ps, 62_489_891);
    assert_eq!(res.delivered_packets, 1_160);
    assert_eq!(res.delivered_bytes, 4_751_360);
    assert_eq!(res.mean_packet_latency_ps, 14_281_376.035344828);
    assert_eq!(res.max_packet_latency_ps, 33_795_932);
    assert_eq!(res.p99_packet_latency_ps, 30_491_240);
    assert_eq!(res.max_hops, 5);
    assert_eq!(res.engine.events, 9_319);
    assert_eq!(m.injected_packets, 1_160);
    assert_eq!(m.min_inject_ps, 5_041_437);
    assert_eq!(m.max_inject_ps, 34_975_840);
    Ok(())
}

/// With `traffic(1, tornado)` on a ring(8)×1, every message travels exactly
/// 4 hops (the antipodal shift), which is directly observable in the hop
/// statistics — proof the sources draw destinations from the mix's pattern.
#[test]
fn steady_sources_draw_destinations_from_the_configured_pattern() -> Result<(), SimError> {
    let net = SimNetwork::new(ring(8), 1);
    let cfg = steady(
        SimConfig::default(),
        2_000_000,
        20_000_000,
        "traffic(1, tornado)",
    );
    let wl = Workload::default();
    let res = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.2)?;
    assert!(res.delivered_packets > 50, "{}", res.delivered_packets);
    assert_eq!(
        res.mean_hops, 4.0,
        "tornado on an 8-ring must route every packet across 4 hops"
    );
    assert_eq!(res.max_hops, 4);

    // The same run under uniform traffic mixes distances 1..=4.
    let cfg_uniform = steady(
        SimConfig::default(),
        2_000_000,
        20_000_000,
        "traffic(1, random)",
    );
    let uni = Simulator::new(&net, &cfg_uniform).try_run_with_offered_load(&wl, 0.2)?;
    assert!(
        uni.mean_hops < 4.0,
        "uniform traffic should average under 4 hops, got {}",
        uni.mean_hops
    );
    Ok(())
}

/// Pattern-driven steady-state runs stay deterministic given the seed.
#[test]
fn pattern_runs_are_deterministic_given_seed() -> Result<(), SimError> {
    let net = SimNetwork::new(ring(6), 2);
    let mix = "traffic(1, hotspot(3, 0.5), 2048)";
    let cfg = steady(SimConfig::default(), 2_000_000, 15_000_000, mix);
    let wl = Workload::default();
    let a = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.4)?;
    let b = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.4)?;
    assert_eq!(a, b);
    assert!(a.delivered_packets > 0);
    Ok(())
}

/// Group-aligned adversarial traffic on a ring: with single-endpoint groups the
/// victim of endpoint `e` is exactly `(e + 1) mod n`, so every packet goes one
/// hop clockwise — again directly visible in the hop statistics.
#[test]
fn adversarial_groups_align_to_the_requested_size() -> Result<(), SimError> {
    let net = SimNetwork::new(ring(8), 1);
    let mix = "traffic(1, adversarial(1))";
    let cfg = steady(SimConfig::default(), 2_000_000, 20_000_000, mix);
    let wl = Workload::default();
    let res = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.2)?;
    assert!(res.delivered_packets > 50);
    assert_eq!(res.mean_hops, 1.0);
    assert_eq!(res.max_hops, 1);
    Ok(())
}

/// An unknown pattern nested in a mix fails the run with a typed error,
/// before any simulation work, naming the registered patterns — the same
/// contract as unknown routing names.
#[test]
fn unknown_steady_pattern_errs_with_candidates() {
    let net = SimNetwork::new(ring(6), 1);
    let mix = "traffic(1, wormhole-9000)";
    let cfg = steady(SimConfig::default(), 1_000_000, 5_000_000, mix);
    let err = Simulator::new(&net, &cfg)
        .try_run_with_offered_load(&Workload::default(), 0.2)
        .unwrap_err();
    assert!(matches!(err, SimError::Job(_)), "{err:?}");
    assert_eq!(
        err.to_string(),
        "invalid arguments for job \"traffic\": nested pattern spec rejected: \
         unknown traffic pattern \"wormhole-9000\"; registered: adversarial, bit-complement, \
         bit-reverse, bit-shuffle, hotspot, nearest-group, random, tornado, transpose"
    );
}

/// A pattern added to one config's registries is what that run's nested
/// `traffic(1, name)` resolves to; a config without it refuses the name and
/// lists only the built-ins.
#[test]
fn a_custom_pattern_resolves_only_in_the_run_that_carries_it() {
    let net = SimNetwork::new(ring(6), 1);
    let mix = "traffic(1, next-rank)";
    let registries = Registries::default().with_pattern("next-rank", |ctx, _| {
        pattern::create("nearest-group(1)", &PatternCtx::new(ctx.endpoints))
    });
    let custom = SimConfig::from(registries.unwrap());
    let custom = steady(custom, 1_000_000, 5_000_000, mix);
    let res = Simulator::new(&net, &custom)
        .try_run_with_offered_load(&Workload::default(), 0.2)
        .unwrap();
    assert!(res.delivered_packets > 0);
    // One hop to the next rank's router, every time.
    assert_eq!(res.max_hops, 1);

    let plain = steady(SimConfig::default(), 1_000_000, 5_000_000, mix);
    let err = Simulator::new(&net, &plain)
        .try_run_with_offered_load(&Workload::default(), 0.2)
        .unwrap_err();
    assert!(
        err.to_string().ends_with(
            "unknown traffic pattern \"next-rank\"; registered: adversarial, bit-complement, \
             bit-reverse, bit-shuffle, hotspot, nearest-group, random, tornado, transpose"
        ),
        "{err}"
    );
}
