//! The `try_*` entry points reject bad configuration with a typed
//! [`SimError`], at one shard and at two — an unknown routing name, an
//! unknown pattern spec, an unknown / malformed / oversized job mix, an
//! offered load outside `(0, 1]`, a job mix without measurement windows, a
//! workload endpoint the network does not have, an empty measurement window,
//! windows that overflow `u64` picoseconds, a VC, buffer or shard count out
//! of range — and the panicking `run*` wrappers die with that error's
//! message. The builders never panic: they pass bad values on to these
//! checks.

use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    JobError, MeasurementWindows, Message, PatternError, SimConfig, SimError, SimNetwork,
    Simulator, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn ring(n: u32) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    CsrGraph::from_edges(n as usize, &edges)
}

fn windows() -> MeasurementWindows {
    MeasurementWindows::new(1_000_000, 5_000_000)
}

macro_rules! typed_errors {
    ($test:ident, $shards:expr) => {
        #[test]
        fn $test() {
            let net = SimNetwork::new(ring(9), 2);
            let wl = Workload::uniform_random(net.num_endpoints(), 1, 1024, 4);
            let base = SimConfig::default().with_shards($shards);

            let unknown_routing = SimConfig {
                routing: "wormhole-9000".to_string(),
                ..base.clone()
            };
            // The builder sets the name as given and leaves the VC count alone.
            let built = base.clone().with_routing("wormhole-9000", 3);
            assert_eq!(built.num_vcs, base.num_vcs);
            for cfg in [unknown_routing, built] {
                let sim = Simulator::new(&net, &cfg);
                for err in [
                    sim.try_run(&wl).unwrap_err(),
                    sim.try_run_with_offered_load(&wl, 0.5).unwrap_err(),
                ] {
                    assert!(
                        matches!(&err, SimError::UnknownRouting { name, registered }
                            if name == "wormhole-9000"
                                && registered.contains(&"minimal".to_string())),
                        "{err:?}"
                    );
                }
                let panic = catch_unwind(AssertUnwindSafe(|| sim.run(&wl))).unwrap_err();
                let message = panic.downcast_ref::<String>().expect("a formatted panic");
                assert!(
                    message.starts_with("unknown routing algorithm \"wormhole-9000\"; registered:")
                );
            }

            let cfg = base.clone().with_windows(windows().with_pattern("wormhole-9000"));
            let err = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.5);
            assert!(
                matches!(err, Err(SimError::Pattern(PatternError::Unknown { .. }))),
                "{err:?}"
            );

            for (mix, variant) in [
                ("warp-drive(3)", "Unknown"),
                ("traffic(0.5", "BadSpec"),
                ("traffic(1.5)", "BadArgs"),
                ("traffic(0.5) x 4096", "BadArgs"),
            ] {
                let cfg = base.clone().with_windows(windows()).with_jobs(mix);
                let err = Simulator::new(&net, &cfg)
                    .try_run_with_offered_load(&wl, 0.5)
                    .unwrap_err();
                let got = match &err {
                    SimError::Job(JobError::Unknown { .. }) => "Unknown",
                    SimError::Job(JobError::BadSpec(_)) => "BadSpec",
                    SimError::Job(JobError::BadArgs { .. }) => "BadArgs",
                    _ => "not a job error",
                };
                assert_eq!(got, variant, "{mix}: {err:?}");
            }

            let sim = Simulator::new(&net, &base);
            for load in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
                let err = sim.try_run_with_offered_load(&wl, load);
                assert!(matches!(err, Err(SimError::OfferedLoad(_))), "{load}: {err:?}");
            }
            assert!(sim.try_run_with_offered_load(&wl, 1.0).is_ok());

            // A job mix needs steady-state windows: workload-paced runs and
            // window-less offered-load runs have nowhere to put it.
            let windowless = base.clone().with_jobs("traffic(0.5) x 4");
            let windowed = windowless.clone().with_windows(windows());
            for err in [
                Simulator::new(&net, &windowless).try_run(&wl),
                Simulator::new(&net, &windowless).try_run_with_offered_load(&wl, 0.5),
                Simulator::new(&net, &windowed).try_run(&wl),
            ] {
                assert!(matches!(err, Err(SimError::JobsWithoutWindows)), "{err:?}");
            }
            let sim = Simulator::new(&net, &windowless);
            let panic = catch_unwind(AssertUnwindSafe(|| sim.run(&wl))).unwrap_err();
            assert_eq!(
                panic.downcast_ref::<String>().expect("a formatted panic"),
                "SimConfig::jobs requires steady-state measurement windows \
                 (SimConfig::with_windows)"
            );

            // A workload naming an endpoint past the network's last one.
            let stray = Workload::new(
                "stray",
                vec![Message {
                    src: 0,
                    dst: net.num_endpoints(),
                    bytes: 64,
                    inject_offset_ps: 0,
                }],
            );
            let steady = base.clone().with_windows(windows());
            for err in [
                Simulator::new(&net, &base).try_run(&stray),
                Simulator::new(&net, &base).try_run_with_offered_load(&stray, 0.5),
                Simulator::new(&net, &steady).try_run_with_offered_load(&stray, 0.5),
            ] {
                assert!(
                    matches!(&err, Err(SimError::EndpointOutOfRange(m))
                        if m == "workload references endpoint 18 but the network has only 18"),
                    "{err:?}"
                );
            }
            let sim = Simulator::new(&net, &base);
            let panic = catch_unwind(AssertUnwindSafe(|| sim.run(&stray))).unwrap_err();
            assert_eq!(
                panic.downcast_ref::<String>().expect("a formatted panic"),
                "workload references endpoint 18 but the network has only 18"
            );

            // Windows whose deadline wraps `u64` (through the warmup, or
            // through the drain, which is as long as the measurement), and an
            // empty measurement window.
            let mut bad = vec![windows(), windows()];
            bad[0].warmup_ps = u64::MAX;
            bad[1].measure_ps = u64::MAX / 2;
            bad.push(MeasurementWindows::new(1_000_000, 0));
            for w in bad {
                let cfg = base.clone().with_windows(w);
                let err = Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.5);
                assert!(matches!(err, Err(SimError::Windows(_))), "{err:?}");
            }
        }
    };
}

typed_errors!(one_shard_returns_typed_errors, 1);
typed_errors!(two_shards_return_typed_errors, 2);

/// Counts the engine stores narrower than `usize` are refused before any
/// simulation work: VC ids are `u8`, with `u8::MAX` the "none" of a link
/// waiting for no VC (past 256 VCs a hop's VC wraps to 0 and its credit
/// returns to the wrong pool — Valiant's VC rule gets there at diameter 128),
/// credits are `u32`, and a run needs at least one shard — also when the
/// shard count comes through the builder.
#[test]
fn out_of_range_counts_are_typed_errors() {
    let net = SimNetwork::new(ring(9), 2);
    let wl = Workload::uniform_random(net.num_endpoints(), 2, 1024, 4);
    let with = |shards, num_vcs, buffer| SimConfig {
        shards,
        num_vcs,
        buffer_packets_per_vc: buffer,
        ..SimConfig::default()
    };
    let (vcs, slots) = (SimConfig::default().num_vcs, 4);
    let vc_message = |n| format!("num_vcs must be in 1..=255 (VC ids are u8), got {n}");
    let slot_message = |n| format!("buffer_packets_per_vc must be in 1..=4294967295, got {n}");
    let zero_shards = "shards must be in 1.., got 0".to_string();
    let mut cases = vec![
        (with(0, vcs, slots), zero_shards.clone()),
        (SimConfig::default().with_shards(0), zero_shards),
    ];
    for shards in [1, 2] {
        cases.push((with(shards, 0, slots), vc_message(0)));
        cases.push((with(shards, 256, slots), vc_message(256)));
        let valiant = SimConfig::default()
            .with_shards(shards)
            .with_routing("valiant", 128);
        cases.push((valiant, vc_message(257)));
        cases.push((with(shards, vcs, 0), slot_message(0)));
        if let Some(n) = (u32::MAX as usize).checked_add(1) {
            cases.push((with(shards, vcs, n), slot_message(n)));
        }
    }
    for (cfg, message) in cases {
        let sim = Simulator::new(&net, &cfg);
        let expected = SimError::Config(message.clone());
        assert_eq!(sim.try_run(&wl), Err(expected.clone()));
        assert_eq!(sim.try_run_with_offered_load(&wl, 0.5), Err(expected));
        let panic = catch_unwind(AssertUnwindSafe(|| sim.run(&wl))).unwrap_err();
        assert_eq!(panic.downcast_ref::<String>(), Some(&message));
    }
    // The edges of each range run.
    for cfg in [with(1, 255, 1), with(2, 1, 1)] {
        let res = Simulator::new(&net, &cfg).try_run(&wl);
        assert!(!matches!(res, Err(SimError::Config(_))), "{res:?}");
    }
}
