//! Simulation parameters: the paper's simulated hardware as constants, and the
//! knobs a run sets.
//!
//! The paper compares topologies on one fixed machine (docs/REPRODUCING.md §
//! "Documented substitutions"): 100 Gb/s links and NICs, 30 ns links, 100 ns routers and
//! 4 KiB packets. Those values, and the protocol constants derived from them,
//! are the constants below; [`SimConfig`] holds only what a run varies.

use crate::pattern::{self, PatternCtx, PatternError, PatternRegistry, TrafficPattern};
use crate::routing::{self, Router, RouterRegistry};
use crate::spec::DuplicateName;
use std::sync::Arc;

/// Packet payload, bytes: larger messages are segmented into packets of at
/// most this many bytes.
pub const PACKET_BYTES: u64 = 4096;
/// The largest message a run accepts, bytes: 2^30, or 262,144 packets. A
/// larger workload message is refused with [`crate::SimError::Config`], and a
/// larger job `bytes` argument with a [`crate::JobError`], before any packet
/// is built.
pub const MAX_MESSAGE_BYTES: u64 = 1 << 30;
/// Link and endpoint injection (NIC) bandwidth, Gb/s.
pub const LINK_GBPS: f64 = 100.0;
/// Link propagation latency, picoseconds.
pub const LINK_LATENCY_PS: u64 = 30_000;
/// Per-hop router (switch) latency, picoseconds.
pub const ROUTER_LATENCY_PS: u64 = 100_000;
/// The conservative lookahead `E`, link + router latency, picoseconds: the
/// credit return delay and the epoch length of the event core.
pub const LOOKAHEAD_PS: u64 = LINK_LATENCY_PS + ROUTER_LATENCY_PS;
/// UGAL bias: the minimal path is preferred unless the Valiant estimate is
/// smaller by more than this many packet-cycles (a small positive bias reduces
/// needless detours).
pub const UGAL_THRESHOLD: f64 = 1.0;
/// Per-packet retransmission budget: how many times a dropped packet is
/// retransmitted from its source NIC before it is abandoned in the `Failed`
/// terminal state.
pub const RETRANSMIT_BUDGET: u32 = 8;
/// Base retransmission timeout, picoseconds (see [`retransmit_backoff_ps`]).
pub const RTO_BASE_PS: u64 = 200_000;

/// Serialization time of `bytes` on a link or through an endpoint NIC, in
/// picoseconds. The float product is exact for every size up to
/// [`MAX_MESSAGE_BYTES`], the largest a run serializes.
pub fn serialization_ps(bytes: u64) -> u64 {
    ((bytes as f64 * 8.0) / LINK_GBPS * 1000.0).ceil() as u64
}

/// The wait before the `attempt`-th retransmission of a packet (1-based),
/// measured from the drop: `LOOKAHEAD_PS + RTO_BASE_PS · 2^min(attempt−1, 6)`.
/// The lookahead floor keeps the retransmission event safely beyond the event
/// core's conservative epoch bound.
pub fn retransmit_backoff_ps(attempt: u32) -> u64 {
    LOOKAHEAD_PS + (RTO_BASE_PS << attempt.saturating_sub(1).min(6))
}

/// Warmup / measurement windows for steady-state runs.
///
/// The paper's saturation curves (Figures 6–8) assume a network in steady
/// state; a finite drain-to-empty run conflates saturation latency with drain
/// time. With windows and a job mix ([`SimConfig::jobs`]) configured,
/// [`crate::Simulator::try_run_with_offered_load`] runs the mix's tenants as
/// **continuous sources** — `traffic(1, random)` is every alive endpoint
/// sending Poisson arrivals to fresh uniform destinations, `traffic(1,
/// adversarial(8))` the adversarial scenario — from time 0 until
/// `warmup_ps + measure_ps`. The statistics count only packets injected inside
/// `[warmup_ps, warmup_ps + measure_ps)`, and the run then drains for at most
/// [`MeasurementWindows::drain_ps`] (as long as the measurement) before
/// stopping (packets still in flight at the deadline are abandoned — above
/// saturation the queues would otherwise never empty). A time-series sample
/// ([`crate::stats::IntervalSample`]) is recorded every
/// [`MeasurementWindows::sample_interval_ps`] (32 samples across warmup and
/// measurement).
///
/// Workload-paced runs ([`crate::Simulator::try_run`]) ignore the windows: phased
/// application motifs are finite by nature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeasurementWindows {
    /// Warmup before measurement starts, picoseconds.
    pub warmup_ps: u64,
    /// Length of the measurement window, picoseconds.
    pub measure_ps: u64,
}

impl MeasurementWindows {
    /// A warmup and a measurement window. A steady run refuses an empty
    /// measurement window (`measure_ps == 0`), and windows whose deadline does
    /// not fit `u64` picoseconds, with [`crate::SimError::Windows`].
    pub fn new(warmup_ps: u64, measure_ps: u64) -> Self {
        MeasurementWindows {
            warmup_ps,
            measure_ps,
        }
    }

    /// Grace period after injection stops during which in-flight packets may
    /// still deliver, picoseconds: as long as the measurement.
    pub fn drain_ps(&self) -> u64 {
        self.measure_ps
    }

    /// Spacing of the steady-state time-series samples, picoseconds: 32
    /// samples across warmup and measurement.
    pub fn sample_interval_ps(&self) -> u64 {
        (self.measure_end_ps() / 32).max(1)
    }

    /// Start of the measurement window, picoseconds.
    pub fn measure_start_ps(&self) -> u64 {
        self.warmup_ps
    }

    /// End of the measurement window (= end of injection), picoseconds.
    pub fn measure_end_ps(&self) -> u64 {
        self.warmup_ps + self.measure_ps
    }

    /// Hard stop of the simulation, picoseconds.
    pub fn deadline_ps(&self) -> u64 {
        self.measure_end_ps() + self.drain_ps()
    }
}

/// The families of names a run may extend: routing algorithms and traffic
/// patterns. The default shares the built-in tables; adding an entry copies
/// that family into this value alone, and a name it already holds —
/// `minimal`, the alias `ugal` — is refused with [`DuplicateName`].
#[derive(Clone, Debug)]
pub struct Registries {
    /// What [`SimConfig::routing`] names.
    pub routing: Arc<RouterRegistry>,
    /// What the nested pattern of a `traffic(load, pattern)` tenant in
    /// [`SimConfig::jobs`] names.
    pub patterns: Arc<PatternRegistry>,
}

impl Default for Registries {
    fn default() -> Self {
        Registries {
            routing: Arc::clone(&routing::BUILTINS),
            patterns: Arc::clone(&pattern::BUILTINS),
        }
    }
}

impl Registries {
    /// Builder-style: add a routing algorithm under `name`.
    pub fn with_router<F>(mut self, name: &str, factory: F) -> Result<Self, DuplicateName>
    where
        F: Fn() -> Box<dyn Router> + Send + Sync + 'static,
    {
        Arc::make_mut(&mut self.routing)
            .register(name, factory)
            .map(|()| self)
    }

    /// Builder-style: add a traffic pattern under `name`.
    pub fn with_pattern<F>(mut self, name: &str, factory: F) -> Result<Self, DuplicateName>
    where
        F: Fn(&PatternCtx, &[f64]) -> Result<Box<dyn TrafficPattern>, PatternError>
            + Send
            + Sync
            + 'static,
    {
        Arc::make_mut(&mut self.patterns)
            .register(name, factory)
            .map(|()| self)
    }
}

/// The parameters a simulation run varies.
///
/// The simulated hardware is the paper's and is fixed (see the module
/// constants). What varies per run is the buffering (64 KB router buffers per
/// port by default, expressed here as packets per virtual channel), the VC
/// count (set from the topology diameter by [`SimConfig::with_routing`]),
/// the routing algorithm, the seed, the measurement mode, the shard count and
/// the runtime faults and job mix.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Buffer capacity per router per virtual channel, in packets.
    pub buffer_packets_per_vc: usize,
    /// Number of virtual channels (must exceed the longest routed path in hops).
    pub num_vcs: usize,
    /// Routing algorithm, as a name resolved through the routing registry
    /// ([`crate::routing`]); built-ins are `minimal`, `valiant`, `ugal-l`, `ugal-g`.
    pub routing: String,
    /// RNG seed (Valiant intermediates, adaptive tie-breaks, Poisson injection).
    pub seed: u64,
    /// Steady-state warmup/measurement windows. `None` (the default) keeps the
    /// finite drain-to-empty behaviour; `Some`, with [`SimConfig::jobs`], runs
    /// offered-load runs as the mix's continuous sources under windowed
    /// measurement.
    pub windows: Option<MeasurementWindows>,
    /// Shard count of the event core ([`crate::Simulator`]).
    ///
    /// `1` (the default) runs the one shard on the calling thread; more run
    /// one worker thread per shard under the conservative epoch protocol.
    /// Results are shard-count-invariant by construction, so this is a
    /// performance knob, never a semantics knob.
    pub shards: usize,
    /// Runtime fault script: time-scheduled link/router failures and
    /// recoveries injected into the event loop while traffic is in flight
    /// ([`crate::fault::FaultScript::none`] by default — no runtime churn,
    /// and the engines' hot paths stay byte-for-byte the pristine ones).
    ///
    /// Unlike a static fault plan (damage applied at network construction,
    /// [`crate::SimNetwork::with_faults`]), the script is expanded by the
    /// engines at run start into a deterministic
    /// [`crate::fault::FaultTimeline`] over the network's surviving graph;
    /// both kinds compose (static damage first, churn on the survivors). A
    /// dropped packet is retransmitted up to [`RETRANSMIT_BUDGET`] times,
    /// each after [`retransmit_backoff_ps`].
    pub fault_script: crate::fault::FaultScript,
    /// Horizon for expanding the fault script on *finite* (drain-to-empty)
    /// runs, picoseconds; steady-state runs use their windows' deadline
    /// instead. Events past the horizon never fire.
    pub fault_horizon_ps: u64,
    /// Multi-tenant job mix spec (see [`crate::job`]), e.g.
    /// `"traffic(1.0, random) x 64 + allreduce-ring(65536) x 16"`. A steady
    /// run ([`SimConfig::windows`] under an offered load) requires it and
    /// nothing else sets its traffic: the mix is resolved onto the surviving
    /// endpoints, drives per-tenant sources and collective schedules, and
    /// reports [`crate::stats::TenantStats`] per tenant. `None` (the default)
    /// is a finite run of the workload; a mix on a run that is not steady is
    /// refused with [`crate::SimError::JobsWithoutSteadyRun`].
    pub jobs: Option<String>,
    /// What [`SimConfig::routing`] and the patterns nested in
    /// [`SimConfig::jobs`] name: the built-ins unless set by [`SimConfig::from`].
    pub registries: Registries,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_packets_per_vc: 16,
            num_vcs: 8,
            routing: "minimal".to_string(),
            seed: 0x5EED,
            windows: None,
            shards: 1,
            fault_script: crate::fault::FaultScript::none(),
            fault_horizon_ps: 1_000_000_000,
            jobs: None,
            registries: Registries::default(),
        }
    }
}

impl From<Registries> for SimConfig {
    /// The default config over `registries`: it starts a builder chain, so the
    /// [`SimConfig::with_routing`] that follows reads a custom VC count.
    fn from(registries: Registries) -> Self {
        SimConfig {
            registries,
            ..SimConfig::default()
        }
    }
}

impl SimConfig {
    /// Link latency in picoseconds ([`LINK_LATENCY_PS`]).
    pub fn link_latency_ps(&self) -> u64 {
        LINK_LATENCY_PS
    }

    /// Router latency in picoseconds ([`ROUTER_LATENCY_PS`]).
    pub fn router_latency_ps(&self) -> u64 {
        ROUTER_LATENCY_PS
    }

    /// Builder-style: set the routing algorithm (by registry name) and the VC
    /// count the paper prescribes for it on a diameter-`diameter` topology:
    /// `d + 1` for minimal paths and `2d + 1` for detour-based algorithms
    /// (Section V-A), as reported by the algorithm itself
    /// ([`crate::routing::Router::vcs_for_diameter`]). A name
    /// [`SimConfig::registries`] does not hold is set as given and leaves the
    /// VC count alone; the run then returns [`crate::SimError::UnknownRouting`].
    pub fn with_routing(mut self, routing: impl Into<String>, diameter: u32) -> Self {
        self.routing = routing.into();
        if let Ok(router) = self.registries.routing.resolve(&self.routing) {
            self.num_vcs = router.vcs_for_diameter(diameter);
        }
        self
    }

    /// Builder-style: enable steady-state measurement windows.
    pub fn with_windows(mut self, windows: MeasurementWindows) -> Self {
        self.windows = Some(windows);
        self
    }

    /// Builder-style: set the shard count (zero is refused by the run with
    /// [`crate::SimError::Config`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder-style: schedule a runtime fault script (see
    /// [`SimConfig::fault_script`]).
    pub fn with_fault_script(mut self, script: crate::fault::FaultScript) -> Self {
        self.fault_script = script;
        self
    }

    /// Builder-style: run a multi-tenant job mix (see [`SimConfig::jobs`]).
    pub fn with_jobs(mut self, mix: &str) -> Self {
        self.jobs = Some(mix.to_string());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_scales_with_bytes() {
        // 4096 bytes at 100 Gb/s = 327.68 ns = 327680 ps.
        assert_eq!(serialization_ps(4096), 327_680);
        assert_eq!(serialization_ps(0), 0);
        assert!(serialization_ps(8192) > serialization_ps(4096));
    }

    #[test]
    fn with_routing_updates_vcs() {
        let cfg = SimConfig::default().with_routing("valiant", 4);
        assert_eq!(cfg.num_vcs, 9);
        assert_eq!(cfg.routing, "valiant");
        // Registry names work directly, in any spelling the registry normalizes.
        let cfg = SimConfig::default().with_routing("UGAL_L", 3);
        assert_eq!(cfg.num_vcs, 7);
    }

    /// Minimal paths under a name of its own, claiming `3d + 1` VCs: a count
    /// neither the default 8 nor any built-in gives on diameter 3.
    struct Wide;

    impl Router for Wide {
        fn name(&self) -> &str {
            "wide"
        }
        fn vcs_for_diameter(&self, diameter: u32) -> usize {
            3 * diameter as usize + 1
        }
        fn route(
            &self,
            ctx: &mut routing::RoutingCtx<'_>,
            state: &mut routing::RoutingState,
        ) -> usize {
            usize::from(ctx.minimal_ports(state.current_target(ctx.dst()))[0])
        }
    }

    #[test]
    fn registries_refuse_a_name_they_already_hold() {
        let wide = Registries::default().with_router("wide", || Box::new(Wide));
        let wide = wide.unwrap();
        // A built-in, a built-in's alias in another spelling, and a name
        // added once already: each is a typed error, never a replacement.
        for name in ["minimal", "UGAL", "wide"] {
            let err = wide
                .clone()
                .with_router(name, || Box::new(Wide))
                .unwrap_err();
            assert_eq!(err, DuplicateName(crate::spec::normalize(name)));
        }
        let err = (Registries::default())
            .with_pattern("Uniform", |ctx, _| pattern::create("random", ctx))
            .unwrap_err();
        assert_eq!(err.to_string(), "name \"uniform\" is already registered");
        assert_eq!(wide.routing.resolve("minimal").unwrap().name(), "minimal");
    }

    #[test]
    fn two_configs_in_one_process_resolve_independently() {
        let ring: Vec<(u32, u32)> = (0..6u32).map(|i| (i, (i + 1) % 6)).collect();
        let net = crate::SimNetwork::new(spectralfly_graph::CsrGraph::from_edges(6, &ring), 1);
        let wl = crate::Workload::uniform_random(6, 2, 512, 1);
        let registries = Registries::default().with_router("wide", || Box::new(Wide));
        let custom = SimConfig::from(registries.unwrap()).with_routing("wide", 3);
        let plain = SimConfig::default().with_routing("wide", 3);
        let res = crate::Simulator::new(&net, &custom).try_run(&wl).unwrap();
        assert_eq!(res.delivered_messages, 12);
        let err = crate::Simulator::new(&net, &plain)
            .try_run(&wl)
            .unwrap_err();
        let builtins = ["minimal", "ugal-g", "ugal-l", "valiant"].map(String::from);
        assert_eq!(
            err,
            crate::SimError::UnknownRouting {
                name: "wide".to_string(),
                registered: builtins.to_vec(),
            }
        );
    }

    #[test]
    fn a_custom_router_gets_its_own_vc_count() {
        // `From` starts the chain, so `with_routing` always sees the custom
        // algorithm: no builder order leaves the default 8 behind.
        let registries = Registries::default().with_router("wide", || Box::new(Wide));
        let cfg = SimConfig::from(registries.unwrap()).with_routing("wide", 3);
        assert_eq!((cfg.routing.as_str(), cfg.num_vcs), ("wide", 10));
        // Without it the name is kept and the count left alone.
        assert_eq!(SimConfig::default().with_routing("wide", 3).num_vcs, 8);
    }

    #[test]
    fn measurement_windows_layout() {
        let w = MeasurementWindows::new(1_000, 64_000);
        assert_eq!(w.measure_start_ps(), 1_000);
        assert_eq!(w.measure_end_ps(), 65_000);
        assert_eq!(w.drain_ps(), 64_000);
        assert_eq!(w.deadline_ps(), 129_000);
        assert_eq!(w.sample_interval_ps(), 65_000 / 32);
        assert_eq!(MeasurementWindows::new(0, 1).sample_interval_ps(), 1);
        let cfg = SimConfig::default().with_windows(w.clone());
        assert_eq!(cfg.windows, Some(w));
        assert!(SimConfig::default().windows.is_none());
    }

    #[test]
    fn shard_builder_round_trips() {
        assert_eq!(SimConfig::default().shards, 1);
        assert_eq!(SimConfig::default().with_shards(4).shards, 4);
    }

    #[test]
    fn fault_script_knobs_default_off_and_backoff_caps() {
        let cfg = SimConfig::default();
        assert!(cfg.fault_script.is_none());
        assert_eq!(cfg.fault_horizon_ps, 1_000_000_000);
        assert_eq!(cfg.link_latency_ps() + cfg.router_latency_ps(), 130_000);
        // Exponential up to the cap at 2^6, then flat.
        assert_eq!(retransmit_backoff_ps(1), LOOKAHEAD_PS + 200_000);
        assert_eq!(retransmit_backoff_ps(2), LOOKAHEAD_PS + 400_000);
        assert_eq!(retransmit_backoff_ps(7), LOOKAHEAD_PS + 200_000 * 64);
        assert_eq!(
            retransmit_backoff_ps(8),
            retransmit_backoff_ps(7),
            "backoff must cap, not overflow"
        );
        let script = crate::fault::FaultScript::parse("churn(1khz, 5us)").unwrap();
        assert!(!cfg.with_fault_script(script).fault_script.is_none());
    }
}
