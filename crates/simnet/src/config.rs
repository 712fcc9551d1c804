//! Simulation parameters (the hardware knobs the paper's SST/macro runs configure).

use crate::fault::FaultPlan;
use crate::routing;

/// Which path-oracle representation a network should be built with
/// ([`crate::SimNetwork::with_policy`]; see `spectralfly_graph::oracle`).
///
/// The policy is *applied* at network construction — a run configuration has
/// no graph to build an oracle over, so [`SimConfig`] does not carry it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OraclePolicy {
    /// Dense while the matrix fits its `u16` index space, landmark beyond it.
    #[default]
    Auto,
    /// Force the dense `DistanceMatrix` + `NextHopTable` pair (errors past
    /// `u16::MAX` routers).
    Dense,
    /// Force the landmark/ALT oracle.
    Landmark,
    /// The O(n) Cayley-translation oracle. Only satisfiable by topology-layer
    /// constructors that know the group (`LpsGraph::cayley_oracle()` injected
    /// via [`crate::SimNetwork::with_oracle`]);
    /// [`crate::SimNetwork::with_policy`] on a plain graph rejects it.
    Cayley,
}

impl std::fmt::Display for OraclePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OraclePolicy::Auto => write!(f, "auto"),
            OraclePolicy::Dense => write!(f, "dense"),
            OraclePolicy::Landmark => write!(f, "landmark"),
            OraclePolicy::Cayley => write!(f, "cayley"),
        }
    }
}

impl std::str::FromStr for OraclePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(OraclePolicy::Auto),
            "dense" => Ok(OraclePolicy::Dense),
            "landmark" => Ok(OraclePolicy::Landmark),
            "cayley" => Ok(OraclePolicy::Cayley),
            other => Err(format!(
                "unknown oracle policy {other:?}; expected auto, dense, landmark, or cayley"
            )),
        }
    }
}

/// Warmup / measurement / drain windows for steady-state runs.
///
/// The paper's saturation curves (Figures 6–8) assume a network in steady
/// state; a finite drain-to-empty run conflates saturation latency with drain
/// time. With windows configured, [`crate::Simulator::run_with_offered_load`]
/// switches to **continuous per-endpoint Poisson sources**: every endpoint
/// that sends in the workload keeps injecting (cycling through its workload
/// messages) from time 0 until `warmup_ps + measure_ps`, the statistics count
/// only packets injected inside `[warmup_ps, warmup_ps + measure_ps)`, and the
/// run then drains for at most `drain_ps` before stopping (packets still in
/// flight at the deadline are abandoned — above saturation the queues would
/// otherwise never empty). A time-series sample
/// ([`crate::stats::IntervalSample`]) is recorded every `sample_interval_ps`.
/// With [`MeasurementWindows::pattern`] set, each spawned message's destination
/// is drawn live from the named traffic pattern ([`crate::pattern`]) instead of
/// the workload template — the adversarial / tornado / hotspot scenarios.
///
/// Workload-paced runs ([`crate::Simulator::run`]) ignore the windows: phased
/// application motifs are finite by nature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeasurementWindows {
    /// Warmup before measurement starts, picoseconds.
    pub warmup_ps: u64,
    /// Length of the measurement window, picoseconds.
    pub measure_ps: u64,
    /// Grace period after injection stops during which in-flight packets may
    /// still deliver, picoseconds.
    pub drain_ps: u64,
    /// Spacing of the steady-state time-series samples, picoseconds.
    pub sample_interval_ps: u64,
    /// Traffic-pattern spec the continuous sources draw destinations from
    /// (resolved through [`crate::pattern`], e.g. `"adversarial(128)"`).
    ///
    /// `None` (the default) keeps the original template behaviour: each source
    /// cycles through its workload messages' destinations — bit-identical to
    /// the pre-pattern engine. `Some(spec)` overrides only the *destination* of
    /// every spawned message with a live draw from the pattern; message sizes
    /// and the set of sending endpoints still come from the workload.
    pub pattern: Option<String>,
}

impl MeasurementWindows {
    /// Windows with a drain as long as the measurement and 32 samples across
    /// the measured span.
    ///
    /// # Panics
    /// If `measure_ps` is zero.
    pub fn new(warmup_ps: u64, measure_ps: u64) -> Self {
        assert!(measure_ps > 0, "measurement window must be non-empty");
        MeasurementWindows {
            warmup_ps,
            measure_ps,
            drain_ps: measure_ps,
            sample_interval_ps: ((warmup_ps + measure_ps) / 32).max(1),
            pattern: None,
        }
    }

    /// Builder-style: draw steady-state destinations from a registered traffic
    /// pattern instead of the workload templates.
    ///
    /// The spec is resolved against the network when the run starts; an unknown
    /// or invalid spec panics there with the registered pattern names, exactly
    /// as an unknown routing name does.
    pub fn with_pattern(mut self, spec: impl Into<String>) -> Self {
        self.pattern = Some(spec.into());
        self
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
        self.measure_end_ps() + self.drain_ps
    }
}

/// Hardware and protocol parameters of a simulation run.
///
/// Defaults approximate the paper's setup: 100 Gb/s links, 64 KB router buffers per port
/// (expressed here as packets per virtual channel), and VC count set from the topology
/// diameter by [`SimConfig::vcs_for_diameter`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Maximum packet payload carried per packet, in bytes. Messages larger than this are
    /// segmented.
    pub packet_size_bytes: u64,
    /// Link bandwidth in Gb/s.
    pub link_bandwidth_gbps: f64,
    /// Link propagation latency in nanoseconds.
    pub link_latency_ns: f64,
    /// Per-hop router (switch) latency in nanoseconds.
    pub router_latency_ns: f64,
    /// Injection (endpoint NIC) bandwidth in Gb/s.
    pub injection_bandwidth_gbps: f64,
    /// Buffer capacity per router per virtual channel, in packets.
    pub buffer_packets_per_vc: usize,
    /// Number of virtual channels (must exceed the longest routed path in hops).
    pub num_vcs: usize,
    /// Routing algorithm, as a name resolved through the routing registry
    /// ([`crate::routing`]); built-ins are `minimal`, `valiant`, `ugal-l`, `ugal-g`.
    pub routing: String,
    /// UGAL bias: the minimal path is preferred unless the Valiant estimate is smaller by
    /// more than this many packet-cycles (a small positive bias reduces needless detours).
    pub ugal_threshold: f64,
    /// RNG seed (Valiant intermediates, adaptive tie-breaks, Poisson injection).
    pub seed: u64,
    /// Steady-state warmup/measurement/drain windows. `None` (the default)
    /// keeps the finite drain-to-empty behaviour; `Some` switches offered-load
    /// runs to continuous Poisson sources with windowed measurement.
    pub windows: Option<MeasurementWindows>,
    /// The fault plan the run's network is expected to be degraded by
    /// ([`crate::fault::FaultPlan::none`] by default).
    ///
    /// Faults are *applied* at network construction
    /// ([`crate::SimNetwork::with_faults`]), not here — a `SimConfig` has no
    /// graph to damage. Recording the plan in the config threads it through
    /// sweep drivers alongside routing and windows, and lets the engines
    /// fail fast on the classic sweep bug: a config that asks for faults
    /// paired with a network that was built pristine (or with a different
    /// plan) panics at simulator construction instead of silently measuring
    /// the wrong machine.
    pub faults: FaultPlan,
    /// Worker-shard count for the parallel engine ([`crate::ParallelSimulator`]).
    ///
    /// `1` (the default) runs the conservative PDES loop on a single shard; the
    /// sequential wakeup engine ignores this field entirely. Results are
    /// shard-count-invariant by construction, so this is a performance knob,
    /// never a semantics knob.
    pub shards: usize,
    /// Runtime fault script: time-scheduled link/router failures and
    /// recoveries injected into the event loop while traffic is in flight
    /// ([`crate::fault::FaultScript::none`] by default — no runtime churn,
    /// and the engines' hot paths stay byte-for-byte the pristine ones).
    ///
    /// Unlike [`SimConfig::faults`] (static damage applied at network
    /// construction), the script is expanded by the engines at run start into
    /// a deterministic [`crate::fault::FaultTimeline`] over the network's
    /// surviving graph; both kinds compose (static damage first, churn on the
    /// survivors).
    pub fault_script: crate::fault::FaultScript,
    /// Per-packet retransmission budget: how many times a dropped packet is
    /// retransmitted from its source NIC before it is abandoned in the
    /// `Failed` terminal state.
    pub retransmit_budget: u32,
    /// Base retransmission timeout, nanoseconds. The k-th retransmission of a
    /// packet waits `lookahead + rto_base · 2^min(k−1, 6)` after the drop
    /// (capped exponential backoff; the link+router-latency lookahead floor
    /// keeps retransmissions safe under the PDES engine's conservative bound).
    pub rto_base_ns: f64,
    /// Horizon for expanding the fault script on *finite* (drain-to-empty)
    /// runs, nanoseconds; steady-state runs use their windows' deadline
    /// instead. Events past the horizon never fire.
    pub fault_horizon_ns: f64,
    /// Multi-tenant job mix spec (see [`crate::job`]), e.g.
    /// `"traffic(1.0, random) x 64 + allreduce-ring(65536) x 16"`. `None`
    /// (the default) runs the classic single-workload modes untouched. When
    /// set, steady-state runs ([`SimConfig::windows`] present) resolve the
    /// mix onto the fabric and drive per-tenant sources and collective
    /// schedules instead of the workload's templates, reporting
    /// [`crate::stats::TenantStats`] per tenant.
    pub jobs: Option<String>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_size_bytes: 4096,
            link_bandwidth_gbps: 100.0,
            link_latency_ns: 30.0,
            router_latency_ns: 100.0,
            injection_bandwidth_gbps: 100.0,
            buffer_packets_per_vc: 16,
            num_vcs: 8,
            routing: "minimal".to_string(),
            ugal_threshold: 1.0,
            seed: 0x5EED,
            windows: None,
            faults: FaultPlan::none(),
            shards: 1,
            fault_script: crate::fault::FaultScript::none(),
            retransmit_budget: 8,
            rto_base_ns: 200.0,
            fault_horizon_ns: 1_000_000.0,
            jobs: None,
        }
    }
}

impl SimConfig {
    /// Serialization time of `bytes` on a link, in picoseconds.
    pub fn serialization_ps(&self, bytes: u64) -> u64 {
        ((bytes as f64 * 8.0) / self.link_bandwidth_gbps * 1000.0).ceil() as u64
    }

    /// Serialization time of `bytes` through the endpoint NIC (injection
    /// bandwidth), in picoseconds.
    pub fn injection_serialization_ps(&self, bytes: u64) -> u64 {
        ((bytes as f64 * 8.0) / self.injection_bandwidth_gbps * 1000.0).ceil() as u64
    }

    /// Link latency in picoseconds.
    pub fn link_latency_ps(&self) -> u64 {
        (self.link_latency_ns * 1000.0).round() as u64
    }

    /// Router latency in picoseconds.
    pub fn router_latency_ps(&self) -> u64 {
        (self.router_latency_ns * 1000.0).round() as u64
    }

    /// The VC count the paper prescribes for `routing` on a diameter-`diameter`
    /// topology: `d + 1` for minimal paths and `2d + 1` for detour-based algorithms
    /// (Section V-A), as reported by the algorithm itself
    /// ([`crate::routing::Router::vcs_for_diameter`]).
    ///
    /// # Panics
    /// If `routing` is not in the routing registry.
    pub fn vcs_for_diameter(routing: impl Into<String>, diameter: u32) -> usize {
        let router = routing::resolve(&routing.into()).unwrap_or_else(|e| panic!("{e}"));
        router.vcs_for_diameter(diameter)
    }

    /// Builder-style: set the routing algorithm (by registry name) and a VC
    /// count suitable for `diameter`.
    ///
    /// # Panics
    /// If `routing` is not in the routing registry.
    pub fn with_routing(mut self, routing: impl Into<String>, diameter: u32) -> Self {
        let name = routing.into();
        self.num_vcs = Self::vcs_for_diameter(name.clone(), diameter);
        self.routing = name;
        self
    }

    /// Builder-style: enable steady-state measurement windows.
    pub fn with_windows(mut self, windows: MeasurementWindows) -> Self {
        self.windows = Some(windows);
        self
    }

    /// Builder-style: record the fault plan the run's network is degraded by
    /// (see [`SimConfig::faults`] — the plan is applied at network
    /// construction, this field keeps config and network honest).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Builder-style: set the worker-shard count used by the parallel engine.
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
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

    /// Builder-style: set the per-packet retransmission budget.
    pub fn with_retransmit_budget(mut self, budget: u32) -> Self {
        self.retransmit_budget = budget;
        self
    }

    /// Base retransmission timeout in picoseconds.
    pub fn rto_base_ps(&self) -> u64 {
        (self.rto_base_ns * 1000.0).round() as u64
    }

    /// Finite-run fault-script horizon in picoseconds.
    pub fn fault_horizon_ps(&self) -> u64 {
        (self.fault_horizon_ns * 1000.0).round() as u64
    }

    /// The wait before the `attempt`-th retransmission of a packet (1-based),
    /// measured from the drop: `lookahead + rto_base · 2^min(attempt−1, 6)`.
    /// The `lookahead` floor (link + router latency) keeps the retransmission
    /// event safely beyond the PDES engine's conservative lookahead bound.
    pub fn retransmit_backoff_ps(&self, attempt: u32) -> u64 {
        let lookahead = self.link_latency_ps() + self.router_latency_ps();
        lookahead + (self.rto_base_ps() << attempt.saturating_sub(1).min(6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_scales_with_bytes() {
        let cfg = SimConfig::default();
        // 4096 bytes at 100 Gb/s = 327.68 ns = 327680 ps.
        assert_eq!(cfg.serialization_ps(4096), 327_680);
        assert_eq!(cfg.serialization_ps(0), 0);
        assert!(cfg.serialization_ps(8192) > cfg.serialization_ps(4096));
    }

    #[test]
    fn vc_rule_matches_paper() {
        assert_eq!(SimConfig::vcs_for_diameter("minimal", 3), 4);
        assert_eq!(SimConfig::vcs_for_diameter("valiant", 3), 7);
        assert_eq!(SimConfig::vcs_for_diameter("ugal-l", 4), 9);
        assert_eq!(SimConfig::vcs_for_diameter("ugal-g", 4), 9);
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

    #[test]
    #[should_panic(expected = "unknown routing algorithm")]
    fn unknown_routing_name_panics_with_candidates() {
        let _ = SimConfig::default().with_routing("wormhole-9000", 3);
    }

    #[test]
    fn measurement_windows_layout() {
        let w = MeasurementWindows::new(1_000, 64_000);
        assert_eq!(w.measure_start_ps(), 1_000);
        assert_eq!(w.measure_end_ps(), 65_000);
        assert_eq!(w.deadline_ps(), 129_000);
        assert!(w.sample_interval_ps >= 1);
        assert!(w.pattern.is_none());
        let cfg = SimConfig::default().with_windows(w.clone());
        assert_eq!(cfg.windows, Some(w));
        assert!(SimConfig::default().windows.is_none());
    }

    #[test]
    fn windows_carry_a_pattern_spec() {
        let w = MeasurementWindows::new(1_000, 64_000).with_pattern("adversarial(32)");
        assert_eq!(w.pattern.as_deref(), Some("adversarial(32)"));
        // Pattern-less windows stay equal to their original spelling.
        assert_ne!(w, MeasurementWindows::new(1_000, 64_000));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_measurement_window_panics() {
        let _ = MeasurementWindows::new(10, 0);
    }

    #[test]
    fn shard_builder_round_trips() {
        assert_eq!(SimConfig::default().shards, 1);
        assert_eq!(SimConfig::default().with_shards(4).shards, 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_panics() {
        let _ = SimConfig::default().with_shards(0);
    }

    #[test]
    fn oracle_policy_parses_and_round_trips() {
        for p in [
            OraclePolicy::Auto,
            OraclePolicy::Dense,
            OraclePolicy::Landmark,
            OraclePolicy::Cayley,
        ] {
            assert_eq!(p.to_string().parse::<OraclePolicy>(), Ok(p));
        }
        assert_eq!(" DENSE ".parse::<OraclePolicy>(), Ok(OraclePolicy::Dense));
        assert!("quantum".parse::<OraclePolicy>().is_err());
    }

    #[test]
    fn fault_script_knobs_default_off_and_backoff_caps() {
        let cfg = SimConfig::default();
        assert!(cfg.fault_script.is_none());
        assert_eq!(cfg.retransmit_budget, 8);
        assert_eq!(cfg.rto_base_ps(), 200_000);
        assert_eq!(cfg.fault_horizon_ps(), 1_000_000_000);
        let lookahead = cfg.link_latency_ps() + cfg.router_latency_ps();
        // Exponential up to the cap at 2^6, then flat.
        assert_eq!(cfg.retransmit_backoff_ps(1), lookahead + 200_000);
        assert_eq!(cfg.retransmit_backoff_ps(2), lookahead + 400_000);
        assert_eq!(cfg.retransmit_backoff_ps(7), lookahead + 200_000 * 64);
        assert_eq!(
            cfg.retransmit_backoff_ps(8),
            cfg.retransmit_backoff_ps(7),
            "backoff must cap, not overflow"
        );
        let cfg = cfg
            .with_fault_script(crate::fault::FaultScript::parse("churn(1khz, 5us)").unwrap())
            .with_retransmit_budget(3);
        assert!(!cfg.fault_script.is_none());
        assert_eq!(cfg.retransmit_budget, 3);
    }
}
