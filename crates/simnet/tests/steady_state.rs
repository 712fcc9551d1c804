//! Steady-state measurement-window tests: continuous Poisson sources (the
//! uniform mix `traffic(1, random)`), windowed stats, warmup exclusion, and
//! the shape of the saturation curve.

use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    MeasurementWindows, SimConfig, SimError, SimNetwork, Simulator, Workload,
};

fn ring(n: usize) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    e.push((n as u32 - 1, 0));
    CsrGraph::from_edges(n, &e)
}

fn steady_cfg(warmup_ps: u64, measure_ps: u64) -> SimConfig {
    SimConfig::default()
        .with_windows(MeasurementWindows::new(warmup_ps, measure_ps))
        .with_jobs("traffic(1, random)")
}

/// One steady-state run at `load`, returning the measured aggregate throughput
/// in Gb/s and the full results.
fn run_at(net: &SimNetwork, load: f64) -> (f64, spectralfly_simnet::SimResults) {
    let cfg = steady_cfg(10_000_000, 60_000_000);
    let res = Simulator::new(net, &cfg)
        .try_run_with_offered_load(&Workload::default(), load)
        .unwrap();
    let tput = res.measurement.expect("windowed run").throughput_gbps();
    (tput, res)
}

/// Below saturation, the measured delivered throughput tracks the offered load
/// (every endpoint injects `load` × its 100 Gb/s NIC bandwidth); above
/// saturation it plateaus at the network's capacity, far under the offer.
#[test]
fn measured_throughput_matches_offer_below_saturation_and_plateaus_above() {
    let net = SimNetwork::new(ring(8), 4);
    let nic_gbps = spectralfly_simnet::config::LINK_GBPS;
    let endpoints = net.num_endpoints() as f64;

    // Below saturation (four endpoints per router of an 8-ring saturate its
    // links near load ~0.3).
    for load in [0.1, 0.15, 0.2] {
        let (tput, res) = run_at(&net, load);
        let offered = endpoints * nic_gbps * load;
        let err = (tput - offered).abs() / offered;
        assert!(
            err < 0.15,
            "load {load}: measured {tput:.1} Gb/s vs offered {offered:.1} Gb/s ({:.1}% off)",
            err * 100.0
        );
        // Everything injected in the window drains within the drain budget.
        let m = res.measurement.unwrap();
        assert_eq!(m.injected_packets, m.delivered_packets, "load {load}");
    }

    // Above saturation: two different offered loads land on the same plateau,
    // and both deliver far less than offered.
    let (t07, r07) = run_at(&net, 0.75);
    let (t09, r09) = run_at(&net, 0.9);
    let offered07 = endpoints * nic_gbps * 0.75;
    let offered09 = endpoints * nic_gbps * 0.9;
    assert!(
        t07 < 0.65 * offered07,
        "load 0.75 should be past saturation: {t07:.1} vs offered {offered07:.1}"
    );
    assert!(
        t09 < 0.65 * offered09,
        "load 0.9 should be past saturation: {t09:.1} vs offered {offered09:.1}"
    );
    let plateau_gap = (t07 - t09).abs() / t07.max(t09);
    assert!(
        plateau_gap < 0.2,
        "saturated throughput must plateau: {t07:.1} vs {t09:.1} Gb/s ({:.1}% apart)",
        plateau_gap * 100.0
    );
    // Saturation means undelivered measured packets at the drain deadline.
    assert!(r07.measurement.unwrap().delivery_ratio() < 1.0);
    assert!(r09.measurement.unwrap().delivery_ratio() < 1.0);
}

/// Warmup-phase packets must never appear in measured statistics, even though
/// the network demonstrably carried traffic during warmup.
#[test]
fn warmup_packets_never_appear_in_measured_stats() -> Result<(), SimError> {
    let net = SimNetwork::new(ring(6), 1);
    let warmup = 20_000_000u64;
    let cfg = steady_cfg(warmup, 40_000_000);
    let wl = Workload::default();
    let res = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.3)?;
    let m = res.measurement.expect("windowed run");

    // Measured packets exist and every one of them was injected at or after
    // the warmup boundary and before the window end.
    assert!(m.delivered_packets > 0);
    assert!(
        m.min_inject_ps >= warmup,
        "measured packet injected at {} ps, inside the {warmup} ps warmup",
        m.min_inject_ps
    );
    assert!(m.max_inject_ps < m.window_end_ps);

    // The warmup was not idle: the time-series shows deliveries strictly before
    // the measurement window opened — traffic that is absent from the stats.
    let warmup_deliveries: u64 = res
        .samples
        .iter()
        .filter(|s| s.t_ps <= warmup)
        .map(|s| s.delivered_packets)
        .sum();
    assert!(
        warmup_deliveries > 0,
        "expected warmup-phase traffic in the time-series"
    );
    // A second run of the same configuration is bit-identical (steady-state
    // mode preserves determinism given the seed).
    let again = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.3)?;
    assert_eq!(res, again);
    Ok(())
}

/// The interval time-series is well-formed and reflects saturation: ticks are
/// strictly increasing, queue depths are finite, and a past-saturation run
/// shows blocked links in some tick while a light run shows (almost) none.
#[test]
fn interval_time_series_tracks_congestion() {
    // Four endpoints per router: uniform traffic saturates the 8-ring near
    // load 0.3, so load 0.9 is far past it (one endpoint per router is
    // barely at it).
    let net = SimNetwork::new(ring(8), 4);
    let (_, light) = run_at(&net, 0.15);
    let (_, heavy) = run_at(&net, 0.9);

    for res in [&light, &heavy] {
        assert!(!res.samples.is_empty());
        for w in res.samples.windows(2) {
            assert!(w[0].t_ps < w[1].t_ps, "sample ticks must increase");
        }
        for s in &res.samples {
            assert!(s.mean_queue_depth.is_finite() && s.mean_queue_depth >= 0.0);
        }
    }
    let light_peak_blocked = light.samples.iter().map(|s| s.blocked_links).max().unwrap();
    let heavy_peak_blocked = heavy.samples.iter().map(|s| s.blocked_links).max().unwrap();
    assert!(
        heavy_peak_blocked > light_peak_blocked,
        "saturated run should park more links (heavy {heavy_peak_blocked} vs light {light_peak_blocked})"
    );
    let light_peak_q = light
        .samples
        .iter()
        .map(|s| s.mean_queue_depth)
        .fold(0.0f64, f64::max);
    let heavy_peak_q = heavy
        .samples
        .iter()
        .map(|s| s.mean_queue_depth)
        .fold(0.0f64, f64::max);
    assert!(
        heavy_peak_q > light_peak_q,
        "saturated queues must run deeper ({heavy_peak_q:.2} vs {light_peak_q:.2})"
    );
    // Saturated steady-state runs still execute zero timed retries.
    assert_eq!(heavy.engine.timed_retries, 0);
    assert!(heavy.engine.blocked_parks > 0);
}

/// Messages only count as delivered when measured, and the workload-paced
/// entry point ignores windows entirely (phased motifs stay finite runs).
#[test]
fn windows_scope_is_offered_load_only() -> Result<(), SimError> {
    let net = SimNetwork::new(ring(6), 1);
    let cfg = steady_cfg(5_000_000, 20_000_000);
    let wl = Workload::uniform_random(net.num_endpoints(), 2, 2048, 4);

    // Workload-paced run: windows ignored, classic finite semantics.
    let windowed = SimConfig {
        jobs: None,
        ..cfg.clone()
    };
    let finite = Simulator::new(&net, &windowed).try_run(&wl)?;
    assert_eq!(finite.delivered_messages as usize, wl.num_messages());
    assert!(finite.measurement.is_none());
    assert!(finite.samples.is_empty());

    // Steady-state run: messages recorded only from the window.
    let steady = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.2)?;
    let m = steady.measurement.expect("windowed");
    assert!(steady.delivered_messages > 0);
    assert!(m.injected_packets >= steady.delivered_messages);
    Ok(())
}
