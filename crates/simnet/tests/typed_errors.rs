//! The `try_*` entry points reject bad configuration with a typed
//! [`SimError`], at one shard and at two — an unknown routing name, an
//! unknown / malformed / oversized job mix, an offered load outside `(0, 1]`,
//! a job mix on a run that is not steady, a steady run without a job mix, a
//! workload endpoint the network does not have, a message over
//! [`MAX_MESSAGE_BYTES`], an empty measurement window, windows that overflow
//! `u64` picoseconds, a VC, buffer or shard count out of range — each with
//! the message its `Display` prints. The builders never panic: they pass bad
//! values on to these checks.

use spectralfly_graph::CsrGraph;
use spectralfly_simnet::config::MAX_MESSAGE_BYTES;
use spectralfly_simnet::job::validate_mix_spec;
use spectralfly_simnet::{
    JobError, MeasurementWindows, Message, SimConfig, SimError, SimNetwork, Simulator, Workload,
};

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
                    let message = err.to_string();
                    assert!(
                        message.starts_with("unknown routing algorithm \"wormhole-9000\"; registered:")
                    );
                }
            }

            for (mix, variant) in [
                ("warp-drive(3)", "Unknown"),
                ("traffic(0.5", "BadSpec"),
                ("traffic(1.5)", "BadArgs"),
                ("traffic(0.5) x 4096", "BadArgs"),
                ("traffic(0.5, random, 1099511627776)", "BadArgs"),
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

            // A job mix needs a steady run, windows and an offered load:
            // workload-paced runs (windowed or not) and window-less
            // offered-load runs have nowhere to put it.
            let windowless = base.clone().with_jobs("traffic(0.5) x 4");
            let windowed = windowless.clone().with_windows(windows());
            for err in [
                Simulator::new(&net, &windowless).try_run(&wl),
                Simulator::new(&net, &windowless).try_run_with_offered_load(&wl, 0.5),
                Simulator::new(&net, &windowed).try_run(&wl),
            ] {
                let err = err.unwrap_err();
                assert_eq!(err, SimError::JobsWithoutSteadyRun);
                assert_eq!(
                    err.to_string(),
                    "SimConfig::jobs requires a steady run: measurement windows \
                     (SimConfig::with_windows) and an offered load \
                     (Simulator::try_run_with_offered_load)"
                );
            }
            // And a steady run needs a job mix: it has no other sources.
            let jobless = base.clone().with_windows(windows());
            let err = Simulator::new(&net, &jobless)
                .try_run_with_offered_load(&wl, 0.5)
                .unwrap_err();
            assert_eq!(err, SimError::SteadyRunWithoutJobs);
            assert_eq!(
                err.to_string(),
                "a steady run requires a job mix (SimConfig::with_jobs), e.g. \
                 \"traffic(1, random)\": its tenants are the run's only sources"
            );
            // Windows alone leave a workload-paced run finite.
            assert!(Simulator::new(&net, &jobless).try_run(&wl).is_ok());

            // A workload naming an endpoint past the network's last one, and a
            // message too large to packetize: refused on finite and
            // offered-load runs before a packet is built, and ignored by a
            // steady run, whose traffic is its mix.
            let one = |dst, bytes| {
                let m = Message {
                    src: 0,
                    dst,
                    bytes,
                    inject_offset_ps: 0,
                };
                Workload::new("one", vec![m])
            };
            let stray = "workload references endpoint 18 but the network has only 18";
            let huge = "workload message 0 has 1099511627776 bytes, more than the 1073741824 \
                        a message may have";
            let steady = windowed.clone();
            for (wl, expected) in [
                (one(net.num_endpoints(), 64), SimError::EndpointOutOfRange(stray.to_string())),
                (one(1, 1 << 40), SimError::Config(huge.to_string())),
            ] {
                for err in [
                    Simulator::new(&net, &base).try_run(&wl),
                    Simulator::new(&net, &base).try_run_with_offered_load(&wl, 0.5),
                ] {
                    let err = err.unwrap_err();
                    assert_eq!(err.to_string(), expected.to_string());
                    assert_eq!(err, expected);
                }
                let ran = Simulator::new(&net, &steady).try_run_with_offered_load(&wl, 0.5);
                assert!(ran.is_ok(), "{ran:?}");
            }

            // Windows whose deadline wraps `u64` (through the warmup, or
            // through the drain, which is as long as the measurement), and an
            // empty measurement window.
            let mut bad = vec![windows(), windows()];
            bad[0].warmup_ps = u64::MAX;
            bad[1].measure_ps = u64::MAX / 2;
            bad.push(MeasurementWindows::new(1_000_000, 0));
            for w in bad {
                let cfg = windowed.clone().with_windows(w);
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
        let err = sim.try_run(&wl).unwrap_err();
        assert_eq!(err, SimError::Config(message.clone()));
        assert_eq!(err.to_string(), message);
        assert_eq!(sim.try_run_with_offered_load(&wl, 0.5), Err(err));
    }
    // The edges of each range run.
    for cfg in [with(1, 255, 1), with(2, 1, 1)] {
        let res = Simulator::new(&net, &cfg).try_run(&wl);
        assert!(!matches!(res, Err(SimError::Config(_))), "{res:?}");
    }
}

/// A job's `bytes` is bounded like a workload message: one past
/// [`MAX_MESSAGE_BYTES`] is a `BadArgs`, the bound itself is accepted.
#[test]
fn job_bytes_are_bounded() {
    let over = format!("traffic(0.5, random, {})", MAX_MESSAGE_BYTES + 1);
    let err = validate_mix_spec(&over).unwrap_err();
    assert!(matches!(err, JobError::BadArgs { .. }), "{err:?}");
    assert!(
        err.to_string().contains("bytes must be at most 1073741824"),
        "{err}"
    );
    let at = format!("traffic(0.5, random, {MAX_MESSAGE_BYTES})");
    assert_eq!(validate_mix_spec(&at), Ok(()));
}
