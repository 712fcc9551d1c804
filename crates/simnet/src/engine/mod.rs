//! The discrete-event simulation engine: one event core with sender-held,
//! per-(link, VC) credits.
//!
//! Packets are routed store-and-forward across directed links. Every router owns one
//! output queue per directed link, and every directed link holds one credit pool per
//! virtual channel, one credit per downstream buffer slot: a packet may start crossing a
//! link only while the link holds a credit for the packet's next VC, and the credit
//! returns to the link, one lookahead (link + router latency) later, when the packet
//! leaves the downstream buffer. The virtual channel index equals the packet's hop
//! count, which makes the channel dependency graph acyclic (Section V-A of the paper).
//!
//! # One run driver, one core
//!
//! What a run *is* — the validation ladder behind every `try_run*`, the finite / steady /
//! jobs mode choice, fault-script arming, continuous sources, job injection, collective
//! firing — is written once, in the private `driver` module, which calls three methods of
//! the one core, the private `shard` module's `ShardCore`: the routers are
//! partitioned into [`SimConfig::shards`] shards, each with its own calendar queue and
//! packet arena, advancing in epochs bounded by the lookahead. [`Simulator`] drives one
//! shard on the calling thread, or one worker thread per shard, and the results are
//! identical at every shard count (docs/ARCHITECTURE.md § "One run driver, one core").
//!
//! # The wakeup-driven hot path
//!
//! A link whose head packet finds its credit pool empty parks and schedules *nothing*;
//! one wake event, at the time the first matching credit returns, revives it. There are
//! no time-based retry events, so [`crate::stats::EngineCounters::timed_retries`] is
//! always zero, while `blocked_parks` / `wakeups` count the parking traffic.
//!
//! Event storage is a bucketed calendar queue with an overflow heap for far-future
//! events, beside three append-only sorted lanes for the transmits and arrivals that
//! are due a fixed delay after the instant that schedules them (the private `calendar`
//! module), and packets live in an index arena with a free list so
//! steady-state runs recycle slots instead of growing without bound. The queues thread
//! through that arena: every link's output queue and every router's pending injections
//! is a FIFO chained by each packet's `next` index, so a queue is a head/tail pair and
//! queueing a packet allocates nothing. A link's transmit state — when it is free, its
//! queue, the routers at both ends — is one 24-byte `LinkSlot`: a transmit usually finds
//! its link cold in cache, and one record spans one cache line or two, where separate
//! per-link arrays cost a line each.
//!
//! # Steady-state measurement
//!
//! With [`crate::config::MeasurementWindows`] and a job mix ([`SimConfig::jobs`])
//! configured, [`Simulator::try_run_with_offered_load`] switches from the finite
//! drain-to-empty run to the mix's continuous sources with warmup/measurement/drain
//! windows — see the type's documentation for the protocol.

mod calendar;
mod driver;
mod shard;

pub use shard::Simulator;

use crate::config::{serialization_ps, SimConfig, PACKET_BYTES};
use crate::fault::{FaultEvent, FaultEventKind, FaultTimeline};
use crate::job::MsgTag;
use crate::network::SimNetwork;
use crate::routing::{self, Router, RoutingState};
use crate::workload::Workload;
use driver::UNTAGGED;
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::csr::VertexId;
use spectralfly_graph::metrics::label_components;
use std::sync::Arc;

/// The name the sharded engine used to have. [`Simulator`] runs every shard
/// count, so this alias only keeps existing callers compiling.
pub type ParallelSimulator<'a> = Simulator<'a>;

/// Why a run could not start or could not complete.
///
/// Returned by the `try_run*` entry points. Every variant but `Deadlock` and
/// `Internal` is a rejection *before* any simulation work; `Deadlock` is the
/// wakeup core's quiescence detection turned into a value — degenerate
/// configurations (tiny per-VC buffers under saturation) degrade gracefully
/// instead of aborting the process — and `Internal` is an engine bug
/// reported as a value rather than a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// [`SimConfig::routing`] names no algorithm of [`SimConfig::registries`].
    UnknownRouting {
        /// The name that failed to resolve.
        name: String,
        /// The primary names the run's registry holds, for the error message.
        registered: Vec<String>,
    },
    /// The job mix ([`SimConfig::jobs`]) is malformed, names an unknown job,
    /// or does not fit the surviving endpoints.
    Job(crate::job::JobError),
    /// The offered load is not a fraction in `(0, 1]` (the message carries
    /// the rejected value).
    OfferedLoad(String),
    /// [`SimConfig::jobs`] is set on a run that is not a steady run: one
    /// without [`SimConfig::windows`], or a workload-paced one
    /// ([`Simulator::try_run`]).
    JobsWithoutSteadyRun,
    /// A steady run ([`SimConfig::windows`] under an offered load) without
    /// [`SimConfig::jobs`]: the job mix is a steady run's only traffic.
    SteadyRunWithoutJobs,
    /// The workload names an endpoint the network does not have (the message
    /// carries the endpoint and the network's count).
    EndpointOutOfRange(String),
    /// The measurement window is empty, or the windows do not fit `u64`
    /// picoseconds (the message carries the spans).
    Windows(String),
    /// A field of [`SimConfig`] is out of range: [`SimConfig::num_vcs`]
    /// outside `1..=255` (VC ids are `u8`),
    /// [`SimConfig::buffer_packets_per_vc`] outside `1..=u32::MAX`, or
    /// [`SimConfig::shards`] zero (the message names the field and value); or
    /// a workload message is larger than [`crate::config::MAX_MESSAGE_BYTES`]
    /// (the message names the workload message and its size).
    Config(String),
    /// A fault plan or script made the run infeasible (dead endpoints,
    /// disconnected pairs, fragmented survivors, malformed script).
    Fault(crate::fault::FaultError),
    /// The run quiesced with undelivered packets: links parked in a cyclic
    /// head-of-line wait that no credit return can ever break.
    Deadlock {
        /// Human-readable diagnosis (undelivered/parked/queued counts and the
        /// buffer-sizing hint).
        diagnosis: String,
    },
    /// The engine broke one of its own invariants: a finite run's event loop
    /// ended with initial injections its cursor never reached, or with
    /// undelivered packets and no parked link to explain them. No input
    /// produces this; the message carries the counts for the bug report.
    Internal(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownRouting { name, registered } => {
                crate::spec::write_unknown(f, routing::FAMILY.unknown, name, registered)
            }
            SimError::Job(e) => e.fmt(f),
            SimError::Fault(e) => e.fmt(f),
            SimError::JobsWithoutSteadyRun => f.write_str(
                "SimConfig::jobs requires a steady run: measurement windows \
                 (SimConfig::with_windows) and an offered load \
                 (Simulator::try_run_with_offered_load)",
            ),
            SimError::SteadyRunWithoutJobs => f.write_str(
                "a steady run requires a job mix (SimConfig::with_jobs), e.g. \
                 \"traffic(1, random)\": its tenants are the run's only sources",
            ),
            SimError::EndpointOutOfRange(message)
            | SimError::OfferedLoad(message)
            | SimError::Windows(message)
            | SimError::Config(message)
            | SimError::Deadlock { diagnosis: message } => f.write_str(message),
            SimError::Internal(message) => write!(f, "engine invariant violated: {message}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Job(e) => Some(e),
            SimError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::fault::FaultError> for SimError {
    fn from(e: crate::fault::FaultError) -> Self {
        SimError::Fault(e)
    }
}

/// What the simulator's constructor does: check the counts the engine stores
/// narrow (VC ids as `u8`, credits as `u32`) and the shard count, then
/// resolve the configured routing algorithm — as a value the `try_*` entry
/// points report.
pub(crate) fn resolve_router(cfg: &SimConfig) -> Result<Box<dyn Router>, SimError> {
    let out_of_range = |field: &str, range: &str, value: &dyn std::fmt::Display| {
        Err(SimError::Config(format!(
            "{field} must be in {range}, got {value}"
        )))
    };
    if !(1..=u8::MAX as usize).contains(&cfg.num_vcs) {
        return out_of_range("num_vcs", "1..=255 (VC ids are u8)", &cfg.num_vcs);
    }
    if !(1..=u32::MAX as usize).contains(&cfg.buffer_packets_per_vc) {
        let range = "1..=4294967295";
        return out_of_range("buffer_packets_per_vc", range, &cfg.buffer_packets_per_vc);
    }
    if cfg.shards == 0 {
        return out_of_range("shards", "1..", &cfg.shards);
    }
    let registry = &cfg.registries.routing;
    (registry.resolve(&cfg.routing)).map_err(|_| SimError::UnknownRouting {
        name: cfg.routing.clone(),
        registered: registry.names(),
    })
}

/// Reject an offered load outside `(0, 1]` (NaN included).
pub(crate) fn check_offered_load(offered_load: f64) -> Result<(), SimError> {
    if offered_load > 0.0 && offered_load <= 1.0 {
        Ok(())
    } else {
        Err(SimError::OfferedLoad(format!(
            "offered load must be in (0, 1], got {offered_load}"
        )))
    }
}

/// Why a packet was dropped by the runtime fault machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DropReason {
    /// The packet occupied or was queued on (or crossing) a link that died.
    LinkDown,
    /// The packet was at / injecting from / destined to a down router.
    RouterDown,
    /// No alive port made progress toward the packet's target.
    NoRoute,
    /// The packet exceeded the detour hop TTL.
    TtlExceeded,
}

/// A packet in a shard's arena: self-describing (stable id, message identity,
/// the credit it holds) so it can cross shard boundaries by value.
#[derive(Clone, Debug)]
struct Packet {
    src_router: VertexId,
    dst_router: VertexId,
    bytes: u64,
    inject_time_ps: u64,
    hops: u32,
    /// Algorithm-owned routing state (e.g. a Valiant intermediate still to be visited).
    routing: RoutingState,
    /// Globally unique, shard-count-invariant packet id (event keys, RNG).
    stable_id: u64,
    /// Message identity and completion accounting, carried with the packet so
    /// the destination shard can account messages without a global map.
    msg_id: u64,
    msg_total: u32,
    msg_first_inject: u64,
    /// Link and VC whose credit this packet holds (`u32::MAX` right after
    /// injection — an injected packet consumed no link credit).
    via_link: u32,
    via_vc: u8,
    /// The arena index of the packet behind this one in the FIFO it sits in
    /// — a link's output queue or a router's pending injections, at most one
    /// at a time (`u32::MAX` = none). Meaningful only while queued: a push
    /// overwrites it, so the stale value a packet carries out of a queue, or
    /// across shards, is never followed.
    next: u32,
    /// Times this packet has been dropped and rescheduled (fault runs only).
    attempts: u32,
    /// First time this packet was dropped (`u64::MAX` = never): recovery time
    /// is measured from here to eventual delivery.
    first_drop_ps: u64,
    /// Tenant / collective tag (tenant `u32::MAX` = the untagged traffic of a
    /// finite run).
    /// Carried by value so the destination shard can account per-tenant stats
    /// and collective releases without a global map.
    tag: MsgTag,
}

/// Split a message into per-packet `(payload_bytes, nic_serialization_ps)`
/// segments — the single source of truth for message segmentation, shared by
/// the finite schedule and the steady-state sources so the two paths can never
/// drift apart. An iterator, so packetizing a message allocates nothing.
fn segment_message(total_bytes: u64) -> impl ExactSizeIterator<Item = (u64, u64)> {
    let npkts = total_bytes.div_ceil(PACKET_BYTES).max(1);
    (0..npkts as usize).map(move |k| {
        let sent = k as u64 * PACKET_BYTES;
        let bytes = (total_bytes - sent.min(total_bytes)).clamp(1, PACKET_BYTES);
        (bytes, serialization_ps(bytes))
    })
}

/// Packetize a workload into a finite run's injection schedule: each source's
/// messages serialized through its NIC, Poisson-spaced under an offered load
/// by the one stream seeded from [`SimConfig::seed`]. Packet `i` has stable id
/// `i`, and message `m`'s packets carry message id `m`.
fn packetize(
    net: &SimNetwork,
    cfg: &SimConfig,
    workload: &Workload,
    offered_load: Option<f64>,
) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let messages = &workload.messages;
    let mut packets = Vec::new();
    // NIC-busy horizon per endpoint: a flat Vec keyed by endpoint id (endpoints are
    // dense small integers; a HashMap here cost a hash + probe per message).
    let mut nic_free: Vec<u64> = vec![0; net.num_endpoints()];
    let mut order: Vec<usize> = (0..messages.len()).collect();
    order.sort_by_key(|&i| (messages[i].src, messages[i].inject_offset_ps, i));
    for &mi in &order {
        let m = &messages[mi];
        let segments = segment_message(m.bytes);
        let total = segments.len() as u32;
        let nic = &mut nic_free[m.src];
        let base = match offered_load {
            None => m.inject_offset_ps,
            Some(load) => {
                let mean_gap = serialization_ps(PACKET_BYTES) as f64 / load;
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                *nic + (-u.ln() * mean_gap) as u64
            }
        };
        let first = base.max(*nic);
        let mut t = first;
        for (bytes, nic_ser) in segments {
            packets.push(Packet {
                src_router: net.router_of_endpoint(m.src),
                dst_router: net.router_of_endpoint(m.dst),
                bytes,
                inject_time_ps: t,
                hops: 0,
                routing: RoutingState::default(),
                stable_id: packets.len() as u64,
                msg_id: mi as u64,
                msg_total: total,
                msg_first_inject: first,
                via_link: u32::MAX,
                via_vc: 0,
                next: u32::MAX,
                attempts: 0,
                first_drop_ps: u64::MAX,
                tag: UNTAGGED,
            });
            t += nic_ser;
        }
        *nic = t;
    }
    packets
}

/// Runtime-liveness state for fault-script runs: which directed links and
/// routers are currently dead, when each link last died (for mid-flight drop
/// detection), and a per-router component label over the alive subgraph (the
/// cheap oracle re-patch — O(V+E) per fault event instead of a full O(n·d)
/// distance rebuild). Every shard holds a copy and replays the same timeline,
/// so the shards' liveness views can never diverge.
pub(crate) struct FaultRuntime {
    pub timeline: Arc<FaultTimeline>,
    /// Per-directed-link down *counters*: overlapping failures stack, so two
    /// downs need two ups (or a heal-all) before the link is alive again.
    link_down: Vec<u16>,
    /// Per-router down counters (same stacking semantics).
    router_down: Vec<u16>,
    /// Last time each directed link transitioned up→down (`0` = never): a
    /// packet whose flight window contains this instant was lost on the wire.
    pub last_down_ps: Vec<u64>,
    /// Connected-component label per router over the alive subgraph
    /// (`u32::MAX` for dead routers), refreshed after every fault event.
    comp: Vec<u32>,
    /// Detour hop budget: a packet exceeding it is dropped (`TtlExceeded`)
    /// rather than orbiting a degraded region forever.
    pub ttl: u32,
}

impl FaultRuntime {
    pub fn new(net: &SimNetwork, timeline: Arc<FaultTimeline>) -> Self {
        let g = net.graph();
        let mut fr = FaultRuntime {
            timeline,
            link_down: vec![0; net.num_directed_links()],
            router_down: vec![0; g.num_vertices()],
            last_down_ps: vec![0; net.num_directed_links()],
            comp: Vec::new(),
            ttl: 4 * (net.diameter().max(1) as u32) + 8,
        };
        fr.repatch(net);
        fr
    }

    #[inline]
    pub fn link_dead(&self, link: usize) -> bool {
        self.link_down[link] > 0
    }

    #[inline]
    pub fn link_alive(&self, link: usize) -> bool {
        self.link_down[link] == 0
    }

    #[inline]
    pub fn router_dead(&self, r: VertexId) -> bool {
        self.router_down[r as usize] > 0
    }

    /// Whether `a` and `b` sit in the same alive component (always true for
    /// `a == b` on an alive router).
    #[inline]
    pub fn reachable(&self, a: VertexId, b: VertexId) -> bool {
        let ca = self.comp[a as usize];
        ca != u32::MAX && ca == self.comp[b as usize]
    }

    /// Mark one directed link down, recording the transition time and
    /// returning whether this was an up→down edge (first down).
    fn down_link(&mut self, link: usize, now: u64, newly: &mut Vec<usize>) {
        self.link_down[link] += 1;
        if self.link_down[link] == 1 {
            self.last_down_ps[link] = now;
            newly.push(link);
        }
    }

    /// Apply one timeline event to the liveness masks. Returns the directed
    /// links that just transitioned up→down — the engine must flush their
    /// queues. Router events take their incident links down/up with them.
    pub fn apply(&mut self, net: &SimNetwork, ev: &FaultEvent, now: u64) -> Vec<usize> {
        let g = net.graph();
        let mut newly = Vec::new();
        match ev.kind {
            FaultEventKind::LinkDown { u, v } => {
                for (a, b) in [(u, v), (v, u)] {
                    if let Some(l) = net.directed_link_between(a, b) {
                        self.down_link(l, now, &mut newly);
                    }
                }
            }
            FaultEventKind::LinkUp { u, v } => {
                for (a, b) in [(u, v), (v, u)] {
                    if let Some(l) = net.directed_link_between(a, b) {
                        self.link_down[l] = self.link_down[l].saturating_sub(1);
                    }
                }
            }
            FaultEventKind::RouterDown { r } => {
                self.router_down[r as usize] += 1;
                for p in 0..g.degree(r) {
                    let nbr = g.neighbors(r)[p];
                    self.down_link(net.link_id(r, p), now, &mut newly);
                    if let Some(back) = net.directed_link_between(nbr, r) {
                        self.down_link(back, now, &mut newly);
                    }
                }
            }
            FaultEventKind::RouterUp { r } => {
                self.router_down[r as usize] = self.router_down[r as usize].saturating_sub(1);
                for p in 0..g.degree(r) {
                    let nbr = g.neighbors(r)[p];
                    let l = net.link_id(r, p);
                    self.link_down[l] = self.link_down[l].saturating_sub(1);
                    if let Some(back) = net.directed_link_between(nbr, r) {
                        self.link_down[back] = self.link_down[back].saturating_sub(1);
                    }
                }
            }
            FaultEventKind::HealAll => {
                self.link_down.fill(0);
                self.router_down.fill(0);
            }
        }
        self.repatch(net);
        newly
    }

    /// Apply the timeline's entries at `t = 0` as pure mask flips (no queue
    /// flushing — a finite run starts on that liveness state, no packet
    /// exists yet). Returns the index of the first entry still to be
    /// scheduled as a live event.
    pub fn apply_initial(&mut self, net: &SimNetwork) -> usize {
        let timeline = Arc::clone(&self.timeline);
        let mut idx = 0;
        while idx < timeline.events.len() && timeline.events[idx].time_ps == 0 {
            self.apply(net, &timeline.events[idx], timeline.events[idx].time_ps);
            idx += 1;
        }
        idx
    }

    /// Recompute alive-component labels: one sweep over the alive subgraph,
    /// O(V+E).
    fn repatch(&mut self, net: &SimNetwork) {
        let (router_down, link_down) = (&self.router_down, &self.link_down);
        label_components(
            net.graph(),
            |r| router_down[r as usize] == 0,
            |r, p| link_down[net.link_id(r, p)] == 0,
            &mut self.comp,
        );
    }
}
