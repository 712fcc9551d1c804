//! The discrete-event simulation engine.
//!
//! Packets are routed store-and-forward across directed links. Every router owns one
//! output queue per directed link; per-router, per-virtual-channel buffer occupancy with
//! fixed capacity provides credit-style backpressure (a packet cannot start crossing a link
//! until the downstream router has a free slot in the next virtual channel). The virtual
//! channel index equals the packet's hop count, which makes the channel dependency graph
//! acyclic and the schedule deadlock-free (Section V-A of the paper).
//!
//! # One run driver, two flow-control cores
//!
//! What a run *is* — the validation ladder behind every `try_run*`, the finite / steady /
//! jobs mode choice, fault-script arming, continuous sources, job injection, collective
//! firing — is written once, in the private `driver` module, against a three-method `Core`
//! trait. The two live engines differ only in the event core under it: this module's
//! shared-pool core (`EngineState` and [`Simulator`]'s event handlers) and [`parallel`]'s
//! sender-held-credit core (`ShardCore` under the epoch loop); [`simulate`] picks one from
//! [`SimConfig::shards`]. See docs/ARCHITECTURE.md for the split.
//!
//! # The wakeup-driven hot path
//!
//! This core is **wakeup-driven**: when a link's head packet finds the downstream
//! `(router, vc)` buffer full, the link parks itself on that slot's waiter list and
//! schedules *nothing*. The two places a slot can free — a packet transmitting out of
//! it, or delivering at its router — wake the FIFO-head link parked on the slot (one
//! wakeup per freed buffer unit; a woken link that loses the race to a newly arriving
//! packet re-parks, and the reclaimer's departure wakes the next waiter). There are no
//! time-based retry events at all. The polling implementation, which re-enqueues a
//! `TryTransmit` every retry quantum per blocked link, lives in [`mod@reference`] as the
//! equivalence oracle and performance baseline, and [`crate::stats::EngineCounters`]
//! makes the difference observable: `timed_retries` is zero for this engine by
//! construction, while `blocked_parks`/`wakeups` count the waiter-list traffic.
//!
//! Event storage is a bucketed calendar queue with an overflow heap for far-future
//! events (the private `calendar` module), and packets live in an index arena with a free list so
//! steady-state runs recycle slots instead of growing without bound.
//!
//! # Steady-state measurement
//!
//! With [`crate::config::MeasurementWindows`] configured,
//! [`Simulator::run_with_offered_load`] switches from the finite drain-to-empty run to
//! continuous per-endpoint Poisson sources with warmup/measurement/drain windows — see
//! the type's documentation and DESIGN.md for the protocol.

mod calendar;
mod driver;
pub mod parallel;
pub mod reference;

use crate::config::SimConfig;
use crate::fault::{FaultEvent, FaultEventKind, FaultTimeline};
use crate::job::MsgTag;
use crate::network::SimNetwork;
use crate::routing::{self, RouteScratch, Router, RoutingCtx, RoutingState};
use crate::stats::{EngineCounters, FaultStats, IntervalSample, SimResults, StatsCollector};
use crate::workload::Workload;
use calendar::{CalendarQueue, Timed};
use driver::{Core, Draws, Mode, RunPlan, Steady, Traffic, UNTAGGED};
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::csr::VertexId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Why a run could not start or could not complete.
///
/// Returned by the `try_run*` entry points of every engine; the panicking
/// `run*` variants unwrap it. Every variant but `Deadlock` is a rejection
/// *before* any simulation work; `Deadlock` is the wakeup engine's quiescence
/// detection turned into a value — degenerate configurations (tiny per-VC
/// buffers under saturation) degrade gracefully instead of aborting the
/// process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// [`SimConfig::routing`] does not name a registered routing algorithm.
    UnknownRouting {
        /// The name that failed to resolve.
        name: String,
        /// Canonical names currently registered, for the error message.
        registered: Vec<String>,
    },
    /// The steady-state destination pattern
    /// ([`crate::config::MeasurementWindows::pattern`]) was rejected.
    Pattern(crate::pattern::PatternError),
    /// The job mix ([`SimConfig::jobs`]) is malformed, names an unknown job,
    /// or does not fit the surviving endpoints.
    Job(crate::job::JobError),
    /// [`SimConfig::faults`] records a plan the network was not built with
    /// (the message says which side has what).
    FaultPlanMismatch(String),
    /// The offered load is not a fraction in `(0, 1]` (the message carries
    /// the rejected value).
    OfferedLoad(String),
    /// [`SimConfig::jobs`] is set on a run without steady-state measurement
    /// windows (a workload-paced run, or no [`SimConfig::windows`]).
    JobsWithoutWindows,
    /// The workload names an endpoint the network does not have (the message
    /// carries the endpoint and the network's count).
    EndpointOutOfRange(String),
    /// The measurement windows do not fit `u64` picoseconds (the message
    /// carries the spans).
    Windows(String),
    /// The parallel engine's conservative lookahead (link + router latency)
    /// is zero (the message carries both latencies).
    Lookahead(String),
    /// A fault plan or script made the run infeasible (dead endpoints,
    /// disconnected pairs, fragmented survivors, malformed script).
    Fault(crate::fault::FaultError),
    /// The run quiesced with undelivered packets: links parked in a cyclic
    /// head-of-line wait that no buffer free can ever break.
    Deadlock {
        /// Human-readable diagnosis (undelivered/parked/queued counts and the
        /// buffer-sizing hint).
        diagnosis: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownRouting { name, registered } => {
                crate::spec::write_unknown(f, routing::FAMILY.unknown, name, registered)
            }
            SimError::Pattern(e) => e.fmt(f),
            SimError::Job(e) => e.fmt(f),
            SimError::Fault(e) => e.fmt(f),
            SimError::JobsWithoutWindows => f.write_str(
                "SimConfig::jobs requires steady-state measurement windows \
                 (SimConfig::with_windows)",
            ),
            SimError::FaultPlanMismatch(message)
            | SimError::EndpointOutOfRange(message)
            | SimError::OfferedLoad(message)
            | SimError::Windows(message)
            | SimError::Lookahead(message)
            | SimError::Deadlock { diagnosis: message } => f.write_str(message),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Pattern(e) => Some(e),
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

/// What every engine's constructor does: assert the buffer geometry, then
/// resolve the configured routing algorithm and check the config's fault plan
/// against the network — as a value the live engines defer to their `try_*`
/// entry points.
pub(crate) fn resolve_router(
    net: &SimNetwork,
    cfg: &SimConfig,
) -> Result<Box<dyn Router>, SimError> {
    assert!(cfg.num_vcs >= 1, "need at least one virtual channel");
    assert!(
        cfg.buffer_packets_per_vc >= 1,
        "need at least one buffer slot per VC"
    );
    let router = routing::create(&cfg.routing).ok_or_else(|| SimError::UnknownRouting {
        name: cfg.routing.clone(),
        registered: routing::registered_names(),
    })?;
    crate::fault::check_config_plan(net, &cfg.faults)?;
    Ok(router)
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

/// Internal per-packet state.
#[derive(Clone, Debug)]
pub(crate) struct Packet {
    src_router: VertexId,
    dst_router: VertexId,
    bytes: u64,
    inject_time_ps: u64,
    hops: u32,
    /// Algorithm-owned routing state (e.g. a Valiant intermediate still to be visited).
    routing: RoutingState,
    /// Index of the owning message (for message-completion accounting).
    msg: usize,
    /// Directed link the packet is currently crossing (`u32::MAX` when not in
    /// flight on a link) — how the fault machinery detects mid-flight drops.
    via_link: u32,
    /// Retransmissions consumed so far (0 until the first drop).
    attempts: u32,
    /// Time of the packet's first drop (`u64::MAX` if never dropped), for the
    /// recovery-time statistics.
    first_drop_ps: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// Endpoint NIC injects a packet at its source router.
    /// (`u32` indices keep the event 24 bytes — the queue moves millions.)
    Inject { packet: u32 },
    /// Try to transmit the head of a directed link's output queue.
    TryTransmit { link: u32 },
    /// A packet arrives at a router after crossing a link.
    Arrive { packet: u32, router: VertexId },
    /// A continuous source generates its next message (steady-state mode only).
    NextMessage { source: u32 },
    /// Record a steady-state time-series sample (steady-state mode only).
    Sample,
    /// Apply fault-timeline entry `idx` (then chain `idx + 1`). Fault events
    /// are self-chaining so at most one is ever queued — the calendar queue
    /// forbids out-of-order pushes, and a script's events span the whole run.
    Fault { idx: u32 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Timed for Event {
    fn time(&self) -> u64 {
        self.time
    }
}

/// A finite run's injection schedule, shared between the live engines and the
/// polling reference so all see byte-identical packetization (and consume the
/// RNG identically in offered-load mode).
pub(crate) struct InjectionSchedule {
    pub packets: Vec<Packet>,
    /// Packet indices in injection-event push order (event time =
    /// `packets[i].inject_time_ps`).
    pub injections: Vec<usize>,
    pub msg_first_inject: Vec<u64>,
    pub msg_packets_left: Vec<u32>,
}

/// Split a message into per-packet `(payload_bytes, nic_serialization_ps)`
/// segments — the single source of truth for message segmentation, shared by
/// the finite schedule and the steady-state sources so the two paths can never
/// drift apart.
pub(crate) fn segment_message(cfg: &SimConfig, total_bytes: u64) -> Vec<(u64, u64)> {
    let npkts = total_bytes.div_ceil(cfg.packet_size_bytes).max(1);
    (0..npkts)
        .map(|k| {
            let sent = k * cfg.packet_size_bytes;
            let bytes = (total_bytes - sent.min(total_bytes))
                .min(cfg.packet_size_bytes)
                .max(1);
            (bytes, cfg.injection_serialization_ps(bytes))
        })
        .collect()
}

/// Packetize a workload and lay out its injection schedule (each source's
/// messages serialized through its NIC; Poisson-spaced under an offered load).
pub(crate) fn packetize(
    net: &SimNetwork,
    cfg: &SimConfig,
    workload: &Workload,
    offered_load: Option<f64>,
    rng: &mut StdRng,
) -> InjectionSchedule {
    let messages = &workload.messages;
    let mut sched = InjectionSchedule {
        packets: Vec::new(),
        injections: Vec::new(),
        msg_first_inject: vec![u64::MAX; messages.len()],
        msg_packets_left: vec![0; messages.len()],
    };
    // NIC-busy horizon per endpoint: a flat Vec keyed by endpoint id (endpoints are
    // dense small integers; a HashMap here cost a hash + probe per message).
    let mut nic_free: Vec<u64> = vec![0; net.num_endpoints()];
    let mut order: Vec<usize> = (0..messages.len()).collect();
    order.sort_by_key(|&i| (messages[i].src, messages[i].inject_offset_ps, i));
    for &mi in &order {
        let m = &messages[mi];
        let segments = segment_message(cfg, m.bytes);
        sched.msg_packets_left[mi] = segments.len() as u32;
        let nic = &mut nic_free[m.src];
        let base = match offered_load {
            None => m.inject_offset_ps,
            Some(load) => {
                let mean_gap = cfg.serialization_ps(cfg.packet_size_bytes) as f64 / load;
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                *nic + (-u.ln() * mean_gap) as u64
            }
        };
        let mut t = base.max(*nic);
        for (bytes, nic_ser) in segments {
            let pi = sched.packets.len();
            sched.packets.push(Packet {
                src_router: net.router_of_endpoint(m.src),
                dst_router: net.router_of_endpoint(m.dst),
                bytes,
                inject_time_ps: t,
                hops: 0,
                routing: RoutingState::default(),
                msg: mi,
                via_link: u32::MAX,
                attempts: 0,
                first_drop_ps: u64::MAX,
            });
            sched.msg_first_inject[mi] = sched.msg_first_inject[mi].min(t);
            sched.injections.push(pi);
            t += nic_ser;
        }
        *nic = t;
    }
    sched
}

/// Record and recycle message slots whose last packet just delivered
/// (steady-state modes): message latency is recorded if the first injection
/// fell inside the measurement window, then the slot returns to the free list
/// so long runs stay bounded by in-flight messages. In jobs mode the
/// completion is also attributed to its tenant, and a collective message
/// releases the destination rank's dependency through [`Traffic`].
fn drain_completed(core: &mut SeqCore<'_, '_>, traffic: &mut Traffic<'_>) {
    while let Some(mi) = core.st.completed_msgs.pop() {
        let first = core.st.msg_first_inject[mi];
        let last = core.st.msg_last_delivery[mi];
        let failed = core.st.msg_failed.get(mi).copied().unwrap_or(false);
        let delivered = last != u64::MAX && !failed;
        let measured = delivered && core.stats.is_measured(first);
        if measured {
            core.stats
                .record_message(last.saturating_sub(first.min(last)));
        }
        let tag = core.st.msg_tag.get(mi).copied();
        core.st.msg_free.push(mi);
        // Jobs mode only (`msg_tag` is empty otherwise).
        let Some(tag) = tag.filter(|_| delivered) else {
            continue;
        };
        if measured {
            core.stats.record_tenant_message(tag.tenant);
        }
        if tag.is_collective() {
            core.stats
                .record_tenant_collective_delivery(tag.tenant, last);
            traffic.collective_delivered(core, tag, last);
        }
    }
}

/// Routing decision for packet `pi` currently at `router`: delegate to the
/// configured [`Router`] behind a [`RoutingCtx`] snapshot of the engine state.
/// Shared by both engines so a given queue state yields the same decision.
#[allow(clippy::too_many_arguments)]
pub(crate) fn choose_port(
    net: &SimNetwork,
    cfg: &SimConfig,
    algo: &dyn Router,
    packets: &mut [Packet],
    pi: usize,
    router: VertexId,
    link_qlen: &[u32],
    occupancy: &[u32],
    router_occ: &[u32],
    link_parked: &[bool],
    rng: &mut dyn rand::RngCore,
    scratch: &mut RouteScratch,
) -> usize {
    // Detach the packet's routing state so the context can borrow the rest of the
    // engine state immutably while the algorithm mutates its own state.
    let mut state = std::mem::take(&mut packets[pi].routing);
    let mut ctx = RoutingCtx::new(
        net,
        link_qlen,
        occupancy,
        router_occ,
        link_parked,
        cfg.num_vcs,
        cfg.ugal_threshold,
        router,
        packets[pi].dst_router,
        packets[pi].hops,
        rng,
        scratch,
    );
    let port = algo.route(&mut ctx, &mut state);
    // Hard assert (not debug_assert): Router is a third-party extension point, and
    // an out-of-range port would otherwise silently index into the next router's
    // link range and corrupt the run far from the buggy decision.
    assert!(
        port < net.graph().degree(router),
        "router {} returned out-of-range port {port} at router {router}",
        algo.name()
    );
    packets[pi].routing = state;
    port
}

/// Shared runtime-liveness state for fault-script runs: which directed links
/// and routers are currently dead, when each link last died (for mid-flight
/// drop detection), and a per-router component label over the alive subgraph
/// (the cheap oracle re-patch — O(V+E) per fault event instead of a full
/// O(n·d) distance rebuild). Used identically by the sequential and PDES
/// engines so their liveness views can never diverge.
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

    /// Recompute alive-component labels: one BFS sweep over the alive
    /// subgraph, O(V+E).
    fn repatch(&mut self, net: &SimNetwork) {
        let g = net.graph();
        let n = g.num_vertices();
        self.comp.clear();
        self.comp.resize(n, u32::MAX);
        let mut queue: VecDeque<VertexId> = VecDeque::new();
        let mut next_label = 0u32;
        for start in 0..n as VertexId {
            if self.comp[start as usize] != u32::MAX || self.router_down[start as usize] > 0 {
                continue;
            }
            let label = next_label;
            next_label += 1;
            self.comp[start as usize] = label;
            queue.push_back(start);
            while let Some(r) = queue.pop_front() {
                for p in 0..g.degree(r) {
                    let nbr = g.neighbors(r)[p];
                    if self.comp[nbr as usize] != u32::MAX
                        || self.router_down[nbr as usize] > 0
                        || self.link_down[net.link_id(r, p)] > 0
                    {
                        continue;
                    }
                    self.comp[nbr as usize] = label;
                    queue.push_back(nbr);
                }
            }
        }
    }
}

/// Place `item` in an index arena, reusing a freed slot when available (both
/// cores keep their packets in one, so steady-state runs recycle slots).
pub(crate) fn alloc_slot<T>(arena: &mut Vec<T>, free: &mut Vec<usize>, item: T) -> usize {
    match free.pop() {
        Some(i) => {
            arena[i] = item;
            i
        }
        None => {
            // Event payloads index the arena as u32 (24-byte events); an
            // arena past 4G slots would be a >200 GB run, but fail loudly
            // rather than truncate.
            assert!(
                arena.len() < u32::MAX as usize,
                "packet arena exceeded u32 index space"
            );
            arena.push(item);
            arena.len() - 1
        }
    }
}

/// Mutable state of one event loop, grouped to keep borrows manageable.
struct EngineState {
    /// Packet arena; freed slots are recycled through `free`.
    packets: Vec<Packet>,
    free: Vec<usize>,
    link_queue: Vec<VecDeque<usize>>,
    /// Per-link queue depths, mirrored from `link_queue` on every push/pop: the
    /// flat array the routing hot path reads ([`RoutingCtx::queue_len`]) without
    /// touching the `VecDeque` headers.
    link_qlen: Vec<u32>,
    link_free_at: Vec<u64>,
    /// occupancy[router * num_vcs + vc]
    occupancy: Vec<u32>,
    /// Per-router sum of `occupancy` across VCs, maintained incrementally so the
    /// UGAL-G congestion signal is one read (verified against the per-VC sum in
    /// debug builds on every query — see [`RoutingCtx::router_occupancy`]).
    router_occ: Vec<u32>,
    /// Reused scan-fallback buffers for minimal-port queries.
    route_scratch: RouteScratch,
    /// waiters[router * num_vcs + vc]: links whose head packet is blocked on the slot.
    waiters: Vec<VecDeque<usize>>,
    /// Whether a link is currently parked on some waiter list.
    link_parked: Vec<bool>,
    parked_count: usize,
    pending_inject: Vec<VecDeque<usize>>,
    /// Per-router depths of `pending_inject`, so the admit check on every
    /// transmit/arrive is one cached read for the common empty case.
    pending_len: Vec<u32>,
    queue: CalendarQueue<Event>,
    seq: u64,
    msg_packets_left: Vec<u32>,
    msg_first_inject: Vec<u64>,
    msg_last_delivery: Vec<u64>,
    /// Message slots recycled by the steady-state loop (finite runs never free).
    msg_free: Vec<usize>,
    /// Messages whose last packet just delivered, awaiting the steady-state
    /// loop's record-and-recycle drain (unused in finite runs).
    completed_msgs: Vec<usize>,
    /// Whether `enter_router` should report completions into `completed_msgs`.
    track_completions: bool,
    /// Running delivery totals (all packets), for the time-series samples.
    delivered_packets_total: u64,
    delivered_bytes_total: u64,
    /// Totals as of the previous sampling tick.
    sampled_packets: u64,
    sampled_bytes: u64,
    counters: EngineCounters,
    /// Runtime fault machinery — `None` unless a fault script is configured,
    /// so pristine runs skip every liveness check (and stay bit-identical to
    /// builds without this subsystem).
    fault: Option<Box<FaultRuntime>>,
    /// Drop / retransmission / recovery accounting for this loop.
    fstats: FaultStats,
    /// Whether a message lost a packet terminally (its completion must not be
    /// recorded as a delivered message).
    msg_failed: Vec<bool>,
    /// Jobs-mode tenant tag per message slot (empty unless [`SimConfig::jobs`]
    /// is set, so every other mode skips the tenant accounting entirely).
    msg_tag: Vec<MsgTag>,
    /// NIC-busy horizon per endpoint (steady-state modes; finite runs lay
    /// out their whole injection schedule up front).
    nic_free: Vec<u64>,
}

impl EngineState {
    fn new(net: &SimNetwork, cfg: &SimConfig) -> Self {
        // Bucket the calendar around the packet serialization time — the natural
        // spacing of transmit/arrive events — with an ample ring so only genuinely
        // far-future events (distant injections) spill into the overflow heap.
        let width = (cfg.serialization_ps(cfg.packet_size_bytes) / 4).max(1);
        EngineState {
            packets: Vec::new(),
            free: Vec::new(),
            link_queue: vec![VecDeque::new(); net.num_directed_links()],
            link_qlen: vec![0; net.num_directed_links()],
            link_free_at: vec![0; net.num_directed_links()],
            occupancy: vec![0; net.num_routers() * cfg.num_vcs],
            router_occ: vec![0; net.num_routers()],
            route_scratch: RouteScratch::default(),
            waiters: vec![VecDeque::new(); net.num_routers() * cfg.num_vcs],
            link_parked: vec![false; net.num_directed_links()],
            parked_count: 0,
            pending_inject: vec![VecDeque::new(); net.num_routers()],
            pending_len: vec![0; net.num_routers()],
            queue: CalendarQueue::new(width, 1024),
            seq: 0,
            msg_packets_left: Vec::new(),
            msg_first_inject: Vec::new(),
            msg_last_delivery: Vec::new(),
            msg_free: Vec::new(),
            completed_msgs: Vec::new(),
            track_completions: false,
            delivered_packets_total: 0,
            delivered_bytes_total: 0,
            sampled_packets: 0,
            sampled_bytes: 0,
            counters: EngineCounters::default(),
            fault: None,
            fstats: FaultStats::default(),
            msg_failed: Vec::new(),
            msg_tag: Vec::new(),
            nic_free: vec![0; net.num_endpoints()],
        }
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Event {
            time,
            seq: self.seq,
            kind,
        });
    }

    /// Enqueue a packet on a link's output queue, keeping the flat depth mirror
    /// in sync.
    #[inline]
    fn link_push(&mut self, link: usize, pi: usize) {
        self.link_queue[link].push_back(pi);
        self.link_qlen[link] += 1;
        debug_assert_eq!(self.link_qlen[link] as usize, self.link_queue[link].len());
    }

    /// Dequeue the head packet of a link's output queue, keeping the flat depth
    /// mirror in sync.
    #[inline]
    fn link_pop(&mut self, link: usize) -> Option<usize> {
        let head = self.link_queue[link].pop_front();
        if head.is_some() {
            self.link_qlen[link] -= 1;
        }
        debug_assert_eq!(self.link_qlen[link] as usize, self.link_queue[link].len());
        head
    }

    /// Increment a `(router, vc)` buffer slot together with the router's
    /// incremental occupancy total.
    #[inline]
    fn occ_inc(&mut self, router: VertexId, slot: usize) {
        self.occupancy[slot] += 1;
        self.router_occ[router as usize] += 1;
    }

    /// Decrement a `(router, vc)` buffer slot together with the router's total,
    /// mirroring the former `saturating_sub` exactly (a decrement of an empty slot
    /// is a no-op on both counters, so they can never diverge).
    #[inline]
    fn occ_dec(&mut self, router: VertexId, slot: usize) {
        if self.occupancy[slot] > 0 {
            self.occupancy[slot] -= 1;
            self.router_occ[router as usize] -= 1;
        }
    }

    /// Allocate a packet slot, reusing a freed one when available.
    fn alloc_packet(&mut self, p: Packet) -> usize {
        alloc_slot(&mut self.packets, &mut self.free, p)
    }

    /// Wake the FIFO-head link parked on `slot` — exactly one, because exactly
    /// one buffer unit freed. Waking every waiter would be a thundering herd:
    /// all but one re-park, costing O(waiters²) events to drain a list. One
    /// wakeup per free loses nothing — if the woken link finds the slot
    /// reclaimed it re-parks at the back, and the reclaimer's own departure
    /// wakes the next waiter. Deterministic (FIFO park order).
    fn wake_waiters(&mut self, slot: usize, now: u64) {
        if let Some(link) = self.waiters[slot].pop_front() {
            self.link_parked[link] = false;
            self.parked_count -= 1;
            self.counters.wakeups += 1;
            let t = now.max(self.link_free_at[link]);
            self.push(t, EventKind::TryTransmit { link: link as u32 });
        }
    }
}

/// The packet-level simulator (wakeup-driven engine).
pub struct Simulator<'a> {
    net: &'a SimNetwork,
    cfg: &'a SimConfig,
    /// The routing algorithm, resolved once from the registry at
    /// construction — or why no run can start (see [`resolve_router`]).
    router: Result<Box<dyn Router>, SimError>,
}

/// The sequential core as the shared driver sees it: one event loop's state
/// and the collector it feeds.
struct SeqCore<'s, 'a> {
    sim: &'s Simulator<'a>,
    st: &'s mut EngineState,
    stats: &'s mut StatsCollector,
}

impl Core for SeqCore<'_, '_> {
    fn inject_message(&mut self, now: u64, src_ep: usize, dst_ep: usize, bytes: u64, tag: MsgTag) {
        let (sim, st) = (self.sim, &mut *self.st);
        let segments = segment_message(sim.cfg, bytes);
        let mut t = now.max(st.nic_free[src_ep]);
        // Message slots are recycled once recorded (see `drain_completed`),
        // so long runs stay bounded by in-flight messages, mirroring the
        // packet arena.
        let mi = st.msg_free.pop().unwrap_or_else(|| {
            st.msg_packets_left.push(0);
            st.msg_last_delivery.push(0);
            st.msg_first_inject.push(0);
            st.msg_failed.push(false);
            st.msg_failed.len() - 1
        });
        st.msg_packets_left[mi] = segments.len() as u32;
        st.msg_last_delivery[mi] = u64::MAX;
        st.msg_first_inject[mi] = t;
        st.msg_failed[mi] = false;
        if tag.tenant != u32::MAX {
            // Jobs mode only: `msg_tag` stays empty otherwise, so every other
            // mode skips the tenant accounting entirely.
            if st.msg_tag.len() < st.msg_packets_left.len() {
                st.msg_tag.resize(st.msg_packets_left.len(), UNTAGGED);
            }
            st.msg_tag[mi] = tag;
            self.stats.note_tenant_injection(tag.tenant, bytes, t);
        }
        let src_router = sim.net.router_of_endpoint(src_ep);
        let dst_router = sim.net.router_of_endpoint(dst_ep);
        for (pkt_bytes, nic_ser) in segments {
            let packet = Packet {
                src_router,
                dst_router,
                bytes: pkt_bytes,
                inject_time_ps: t,
                hops: 0,
                routing: RoutingState::default(),
                msg: mi,
                via_link: u32::MAX,
                attempts: 0,
                first_drop_ps: u64::MAX,
            };
            let pi = st.alloc_packet(packet);
            if st.fault.is_some() {
                st.fstats.injected += 1;
            }
            self.stats.note_injection(t);
            st.push(t, EventKind::Inject { packet: pi as u32 });
            t += nic_ser;
        }
        st.nic_free[src_ep] = t;
    }

    fn schedule_source(&mut self, time: u64, source: u32, _endpoint: usize) {
        self.st.push(time, EventKind::NextMessage { source });
    }

    fn arm_faults(&mut self, timeline: &Arc<FaultTimeline>, finite: bool) {
        let (runtime, first) = driver::fault_runtime(self.sim.net, timeline, finite);
        if let Some((time, idx)) = first {
            self.st.push(time, EventKind::Fault { idx });
        }
        self.st.fault = Some(runtime);
    }
}

/// Run one simulation on the core [`SimConfig::shards`] selects: one shard is
/// the sequential wakeup engine ([`Simulator`]), more run the conservative
/// parallel engine ([`parallel::ParallelSimulator`]) with that many worker
/// threads. `offered_load = None` paces injections as the workload specifies
/// (`try_run`); `Some(load)` is `try_run_with_offered_load`, steady-state
/// under [`SimConfig::windows`].
pub fn simulate(
    net: &SimNetwork,
    cfg: &SimConfig,
    workload: &Workload,
    offered_load: Option<f64>,
) -> Result<SimResults, SimError> {
    if cfg.shards > 1 {
        parallel::ParallelSimulator::new(net, cfg).simulate(workload, offered_load)
    } else {
        Simulator::new(net, cfg).simulate(workload, offered_load)
    }
}

impl<'a> Simulator<'a> {
    /// Create a simulator over a network with a configuration.
    ///
    /// A `cfg.routing` that names no registered algorithm (see
    /// [`crate::routing`]) or a `cfg.faults` plan the network was not built
    /// with is reported by the first `try_*` call (the `run*` wrappers panic
    /// with the same message).
    pub fn new(net: &'a SimNetwork, cfg: &'a SimConfig) -> Self {
        Simulator {
            net,
            cfg,
            router: resolve_router(net, cfg),
        }
    }

    /// The routing algorithm, for the event handlers.
    fn router(&self) -> &dyn Router {
        self.router
            .as_deref()
            .expect("the front door returns the setup error before any event runs")
    }

    /// Run the workload with message injections spaced exactly as the workload specifies
    /// (each source's messages additionally serialized through its NIC).
    ///
    /// Measurement windows, if configured, are ignored here: a workload-paced
    /// run is finite and runs to completion.
    ///
    /// # Panics
    /// On a degraded network, if the workload is infeasible on the surviving
    /// graph — use [`Simulator::try_run`] to handle the [`crate::FaultError`]
    /// instead.
    pub fn run(&self, workload: &Workload) -> SimResults {
        self.try_run(workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::run`], rejecting workloads that a fault plan has made
    /// infeasible: a referenced endpoint on a down router yields
    /// [`crate::Infeasible::RouterDown`], a message pair separated by the
    /// damage yields [`crate::Infeasible::Disconnected`] — both *before* any
    /// simulation work, never as a hang or a mid-run panic. A run that
    /// quiesces with packets parked in a cyclic head-of-line wait yields
    /// [`SimError::Deadlock`]. On pristine networks without a fault script
    /// this never errs.
    pub fn try_run(&self, workload: &Workload) -> Result<SimResults, SimError> {
        self.simulate(workload, None)
    }

    /// Run the workload with Poisson-spaced injections corresponding to an offered load in
    /// `(0, 1]` — the fraction of endpoint injection bandwidth the sources try to use
    /// (the x-axis of Figures 6–8 in the paper).
    ///
    /// Without [`SimConfig::windows`] this is a finite run: every workload message is
    /// injected once (Poisson-spaced) and the network drains to empty. With windows
    /// configured the run switches to **continuous per-endpoint Poisson sources** and
    /// steady-state measurement (see [`crate::config::MeasurementWindows`]).
    ///
    /// # Panics
    /// On a degraded network, if the run is infeasible on the surviving graph
    /// — use [`Simulator::try_run_with_offered_load`] to handle the
    /// [`crate::FaultError`] instead.
    pub fn run_with_offered_load(&self, workload: &Workload, offered_load: f64) -> SimResults {
        self.try_run_with_offered_load(workload, offered_load)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::run_with_offered_load`], rejecting runs that a fault plan
    /// has made infeasible. Finite runs validate every workload message pair
    /// (like [`Simulator::try_run`]). Steady-state runs with a live
    /// destination pattern ([`crate::config::MeasurementWindows::pattern`])
    /// instead require every surviving router to sit in one connected
    /// component ([`crate::Infeasible::Fragmented`] otherwise): the pattern
    /// draws destinations across the whole surviving machine, and injection
    /// is restricted to the endpoints of alive routers.
    ///
    /// The pattern's endpoint space is the *compacted* alive-endpoint rank
    /// space. Uniform patterns are unaffected, but group-structured specs
    /// (`adversarial(g)`, `nearest-group(g)`) see group boundaries shift by
    /// however many endpoints died before them — once routers are down,
    /// treat group-aligned results as approximate (or pass a group size in
    /// surviving-rank units).
    pub fn try_run_with_offered_load(
        &self,
        workload: &Workload,
        offered_load: f64,
    ) -> Result<SimResults, SimError> {
        self.simulate(workload, Some(offered_load))
    }

    /// Through the shared front door, then into the finite or steady loop.
    fn simulate(
        &self,
        workload: &Workload,
        offered_load: Option<f64>,
    ) -> Result<SimResults, SimError> {
        let run = RunPlan::new(self.net, self.cfg, &self.router, workload, offered_load)?;
        match &run.mode {
            Mode::Finite { offered_load } => self.run_finite(&run, workload, *offered_load),
            Mode::Steady(steady) => Ok(self.run_steady(&run, steady)),
        }
    }

    /// The core view of one event loop's state.
    fn core<'s>(
        &'s self,
        st: &'s mut EngineState,
        stats: &'s mut StatsCollector,
    ) -> SeqCore<'s, 'a> {
        SeqCore {
            sim: self,
            st,
            stats,
        }
    }

    /// Finite drain-to-empty run (the legacy semantics) on the wakeup engine.
    fn run_finite(
        &self,
        run: &RunPlan<'_>,
        workload: &Workload,
        offered_load: Option<f64>,
    ) -> Result<SimResults, SimError> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut stats = StatsCollector::default();
        if workload.messages.is_empty() {
            return Ok(stats.finish());
        }
        let sched = packetize(self.net, self.cfg, workload, offered_load, &mut rng);
        let mut st = EngineState::new(self.net, self.cfg);
        st.packets = sched.packets;
        st.msg_packets_left = sched.msg_packets_left;
        st.msg_first_inject = sched.msg_first_inject;
        st.msg_last_delivery = vec![u64::MAX; workload.messages.len()];
        st.msg_failed = vec![false; workload.messages.len()];
        for &pi in &sched.injections {
            let t = st.packets[pi].inject_time_ps;
            st.push(t, EventKind::Inject { packet: pi as u32 });
        }
        if let Some(timeline) = &run.timeline {
            st.fstats.injected = st.packets.len() as u64;
            self.core(&mut st, &mut stats).arm_faults(timeline, true);
        }

        st.counters.arena_slots = st.packets.len() as u64;
        while let Some(ev) = st.queue.pop() {
            st.counters.events += 1;
            self.handle_event(ev, &mut st, &mut rng, &mut stats);
        }

        // Every packet must have been delivered (or, under a fault script,
        // terminally failed).
        let undelivered: u32 = st.msg_packets_left.iter().sum();
        if undelivered > 0 {
            return Err(driver::undrained(
                undelivered as u64,
                st.parked_count,
                st.link_queue.iter().map(|q| q.len()).sum(),
                st.pending_inject.iter().map(|q| q.len()).sum(),
                st.occupancy.iter().sum(),
            ));
        }
        debug_assert_eq!(st.parked_count, 0, "drained run left links parked");
        for (mi, &last) in st.msg_last_delivery.iter().enumerate() {
            if last != u64::MAX && !st.msg_failed[mi] {
                stats.record_message(last.saturating_sub(st.msg_first_inject[mi].min(last)));
            }
        }
        stats.record_engine(&st.counters);
        let mut results = stats.finish();
        results.faults = st.fstats;
        Ok(results)
    }

    /// Steady-state run: continuous sources — per-endpoint Poisson sources
    /// over the workload templates, or the tenants of a job mix, whose
    /// collectives start at `t = 0` and whose accounting lands in
    /// [`SimResults::tenants`] — under windowed measurement and a bounded
    /// drain. One loop serves both: the modes differ only inside [`Traffic`].
    fn run_steady(&self, run: &RunPlan<'_>, steady: &Steady<'_>) -> SimResults {
        let w = steady.windows;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut stats = steady.traffic.stats(w);
        let mut st = EngineState::new(self.net, self.cfg);
        st.track_completions = true;
        let mut core = self.core(&mut st, &mut stats);
        let draws = Draws::RunGlobal(&mut rng);
        let mut traffic = Traffic::arm(&mut core, run, steady, |_| true, draws);
        let first_sample = w.sample_interval_ps.max(1);
        if first_sample <= w.deadline_ps() {
            core.st.push(first_sample, EventKind::Sample);
        }

        while let Some(ev) = core.st.queue.pop() {
            if ev.time > w.deadline_ps() {
                // Drain deadline: abandon whatever is still in flight (above
                // saturation the queues would never empty).
                break;
            }
            let slots = core.st.packets.len() as u64;
            let counters = &mut core.st.counters;
            counters.events += 1;
            counters.arena_slots = counters.arena_slots.max(slots);
            match ev.kind {
                EventKind::NextMessage { source } => {
                    let draws = Draws::RunGlobal(&mut rng);
                    traffic.next_message(&mut core, source as usize, ev.time, draws);
                }
                EventKind::Sample => self.record_sample(ev.time, w, core.st, core.stats),
                _ => self.handle_event(ev, core.st, &mut rng, core.stats),
            }
            drain_completed(&mut core, &mut traffic);
        }
        drain_completed(&mut core, &mut traffic);
        traffic.report_ranks(&mut stats, |_| true);
        stats.record_engine(&st.counters);
        let mut results = stats.finish();
        results.faults = st.fstats;
        results
    }

    /// Record one steady-state time-series tick and schedule the next.
    fn record_sample(
        &self,
        now: u64,
        w: &crate::config::MeasurementWindows,
        st: &mut EngineState,
        stats: &mut StatsCollector,
    ) {
        let queued: usize = st.link_queue.iter().map(|q| q.len()).sum();
        let links = st.link_queue.len().max(1);
        stats.record_sample(IntervalSample {
            t_ps: now,
            delivered_bytes: st.delivered_bytes_total - st.sampled_bytes,
            delivered_packets: st.delivered_packets_total - st.sampled_packets,
            mean_queue_depth: queued as f64 / links as f64,
            blocked_links: st.parked_count,
        });
        st.sampled_bytes = st.delivered_bytes_total;
        st.sampled_packets = st.delivered_packets_total;
        let next = now + w.sample_interval_ps.max(1);
        if next <= w.deadline_ps() {
            st.push(next, EventKind::Sample);
        }
    }

    /// Process one core event (injection, transmission, arrival). Shared by the
    /// finite and steady-state loops.
    fn handle_event(
        &self,
        ev: Event,
        st: &mut EngineState,
        rng: &mut StdRng,
        stats: &mut StatsCollector,
    ) {
        let now = ev.time;
        let cap = self.cfg.buffer_packets_per_vc as u32;
        match ev.kind {
            EventKind::Inject { packet } => {
                let packet = packet as usize;
                let router = st.packets[packet].src_router;
                if let Some(fr) = st.fault.as_deref() {
                    let dst = st.packets[packet].dst_router;
                    let reason = if fr.router_dead(router) || fr.router_dead(dst) {
                        Some(DropReason::RouterDown)
                    } else if !fr.reachable(router, dst) {
                        Some(DropReason::NoRoute)
                    } else {
                        None
                    };
                    if let Some(reason) = reason {
                        // The packet never entered a buffer — pure NIC-side drop.
                        self.drop_packet(packet, now, reason, st);
                        return;
                    }
                }
                let slot = router as usize * self.cfg.num_vcs;
                if st.occupancy[slot] < cap {
                    st.occ_inc(router, slot);
                    self.enter_router(packet, router, now, st, rng, stats);
                    self.admit_pending(router, now, st, cap);
                } else {
                    st.pending_inject[router as usize].push_back(packet);
                    st.pending_len[router as usize] += 1;
                }
            }
            EventKind::TryTransmit { link } => {
                let link = link as usize;
                if st.fault.as_deref().is_some_and(|fr| fr.link_dead(link)) {
                    // Defensive: the fault event flushed this queue, but a
                    // same-timestamp transmit may still have been in flight.
                    self.flush_dead_link(link, now, DropReason::LinkDown, st);
                    return;
                }
                if st.link_parked[link] {
                    // Already on a waiter list; the slot-free wakeup will retry.
                    return;
                }
                let Some(&pi) = st.link_queue[link].front() else {
                    return;
                };
                if st.link_free_at[link] > now {
                    let t = st.link_free_at[link];
                    st.push(t, EventKind::TryTransmit { link: link as u32 });
                    return;
                }
                let (src_router, port) = self.net.link_owner(link);
                let dst_router = self.net.link_target(src_router, port);
                let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
                let next_vc = (st.packets[pi].hops as usize + 1).min(self.cfg.num_vcs - 1);
                let down = dst_router as usize * self.cfg.num_vcs + next_vc;
                if st.occupancy[down] >= cap {
                    // Wakeup-driven backpressure: park on the downstream slot's
                    // waiter list; no timed retry is ever scheduled.
                    st.link_parked[link] = true;
                    st.parked_count += 1;
                    st.waiters[down].push_back(link);
                    st.counters.blocked_parks += 1;
                    return;
                }
                st.link_pop(link);
                let up = src_router as usize * self.cfg.num_vcs + vc;
                st.occ_dec(src_router, up);
                st.occ_inc(dst_router, down);
                if vc == 0 {
                    self.admit_pending(src_router, now, st, cap);
                }
                st.wake_waiters(up, now);
                let ser = self.cfg.serialization_ps(st.packets[pi].bytes);
                let start = now.max(st.link_free_at[link]);
                st.link_free_at[link] = start + ser;
                let arrive =
                    start + ser + self.cfg.link_latency_ps() + self.cfg.router_latency_ps();
                st.packets[pi].hops += 1;
                st.packets[pi].via_link = link as u32;
                st.push(
                    arrive,
                    EventKind::Arrive {
                        packet: pi as u32,
                        router: dst_router,
                    },
                );
                if !st.link_queue[link].is_empty() {
                    let t = st.link_free_at[link];
                    st.push(t, EventKind::TryTransmit { link: link as u32 });
                }
            }
            EventKind::Arrive { packet, router } => {
                let pi = packet as usize;
                if st.fault.is_some() {
                    let via = st.packets[pi].via_link;
                    let ser = self.cfg.serialization_ps(st.packets[pi].bytes);
                    let flight_start = now.saturating_sub(
                        ser + self.cfg.link_latency_ps() + self.cfg.router_latency_ps(),
                    );
                    let crossed_dead_link = via != u32::MAX
                        && st.fault.as_deref().unwrap().last_down_ps[via as usize] > flight_start;
                    if crossed_dead_link {
                        // The link died under the packet mid-flight: release the
                        // downstream buffer the transmit reserved, then drop.
                        let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
                        let slot = router as usize * self.cfg.num_vcs + vc;
                        st.occ_dec(router, slot);
                        st.wake_waiters(slot, now);
                        self.drop_packet(pi, now, DropReason::LinkDown, st);
                        self.admit_pending(router, now, st, cap);
                        return;
                    }
                    // `via_link` is deliberately left set: `enter_router`'s
                    // liveness fallback reads it as the arrival port (U-turn
                    // avoidance), and the next transmit overwrites it anyway.
                }
                self.enter_router(pi, router, now, st, rng, stats);
                self.admit_pending(router, now, st, cap);
            }
            EventKind::Fault { idx } => {
                self.apply_fault(idx as usize, now, st);
            }
            EventKind::NextMessage { .. } | EventKind::Sample => {
                unreachable!("steady-state events are handled by the steady loop")
            }
        }
    }

    /// Apply fault-timeline entry `idx`: flip the liveness masks, flush the
    /// queues of every link that just died (dropping their packets into the
    /// retransmission path), evict injections pending at a router that just
    /// died, and chain the next timeline entry.
    fn apply_fault(&self, idx: usize, now: u64, st: &mut EngineState) {
        let mut fr = st.fault.take().expect("fault event without fault runtime");
        st.fstats.fault_events += 1;
        let ev = fr.timeline.events[idx];
        let reason = match ev.kind {
            FaultEventKind::RouterDown { .. } => DropReason::RouterDown,
            _ => DropReason::LinkDown,
        };
        let newly_dead = fr.apply(self.net, &ev, now);
        if idx + 1 < fr.timeline.events.len() {
            let t = fr.timeline.events[idx + 1].time_ps;
            st.push(
                t,
                EventKind::Fault {
                    idx: idx as u32 + 1,
                },
            );
        }
        st.fault = Some(fr);
        for link in newly_dead {
            self.flush_dead_link(link, now, reason, st);
        }
        if let FaultEventKind::RouterDown { r } = ev.kind {
            while let Some(pi) = st.pending_inject[r as usize].pop_front() {
                st.pending_len[r as usize] -= 1;
                self.drop_packet(pi, now, DropReason::RouterDown, st);
            }
        }
    }

    /// Drop every packet occupying or queued on a dead directed link,
    /// releasing their upstream buffers (waking waiters exactly as a normal
    /// departure would) and un-parking the link itself if it was waiting on a
    /// downstream slot.
    fn flush_dead_link(&self, link: usize, now: u64, reason: DropReason, st: &mut EngineState) {
        let cap = self.cfg.buffer_packets_per_vc as u32;
        let (src_router, port) = self.net.link_owner(link);
        if st.link_parked[link] {
            // The single-FIFO wakeup protocol pops exactly one waiter per
            // buffer free; a dead link left on a waiter list would either eat
            // a wakeup meant for a live link or revive a flushed queue.
            let &head = st.link_queue[link]
                .front()
                .expect("parked link with an empty queue");
            let next_vc = (st.packets[head].hops as usize + 1).min(self.cfg.num_vcs - 1);
            let dst_router = self.net.link_target(src_router, port);
            let down = dst_router as usize * self.cfg.num_vcs + next_vc;
            let before = st.waiters[down].len();
            st.waiters[down].retain(|&l| l != link);
            debug_assert_eq!(
                st.waiters[down].len() + 1,
                before,
                "parked link not on its waiter list"
            );
            st.link_parked[link] = false;
            st.parked_count -= 1;
        }
        while let Some(pi) = st.link_pop(link) {
            let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
            let up = src_router as usize * self.cfg.num_vcs + vc;
            st.occ_dec(src_router, up);
            if vc == 0 {
                self.admit_pending(src_router, now, st, cap);
            }
            st.wake_waiters(up, now);
            self.drop_packet(pi, now, reason, st);
        }
    }

    /// A packet just lost its current traversal: count the typed drop, then
    /// either schedule a retransmission from its source NIC (capped
    /// exponential backoff) or retire it into the `Failed` terminal state.
    /// The caller has already released whatever buffer the packet occupied.
    fn drop_packet(&self, pi: usize, now: u64, reason: DropReason, st: &mut EngineState) {
        match reason {
            DropReason::LinkDown => st.fstats.dropped_link_down += 1,
            DropReason::RouterDown => st.fstats.dropped_router_down += 1,
            DropReason::NoRoute => st.fstats.dropped_no_route += 1,
            DropReason::TtlExceeded => st.fstats.dropped_ttl += 1,
        }
        let (attempts, msg) = {
            let p = &mut st.packets[pi];
            if p.first_drop_ps == u64::MAX {
                p.first_drop_ps = now;
            }
            p.via_link = u32::MAX;
            (p.attempts, p.msg)
        };
        if attempts < self.cfg.retransmit_budget {
            let attempt = attempts + 1;
            {
                let p = &mut st.packets[pi];
                p.attempts = attempt;
                p.hops = 0;
                p.routing = RoutingState::default();
            }
            st.fstats.retransmits += 1;
            let t = now + self.cfg.retransmit_backoff_ps(attempt);
            st.push(t, EventKind::Inject { packet: pi as u32 });
        } else {
            st.fstats.failed += 1;
            st.free.push(pi);
            if let Some(f) = st.msg_failed.get_mut(msg) {
                *f = true;
            }
            st.msg_packets_left[msg] -= 1;
            if st.msg_packets_left[msg] == 0 && st.track_completions {
                st.completed_msgs.push(msg);
            }
        }
    }

    /// Re-issue an injection for a waiting packet if the router now has VC-0 space.
    fn admit_pending(&self, router: VertexId, now: u64, st: &mut EngineState, cap: u32) {
        if st.pending_len[router as usize] == 0 {
            return;
        }
        let slot = router as usize * self.cfg.num_vcs;
        if st.occupancy[slot] < cap {
            if let Some(wpkt) = st.pending_inject[router as usize].pop_front() {
                st.pending_len[router as usize] -= 1;
                st.push(
                    now,
                    EventKind::Inject {
                        packet: wpkt as u32,
                    },
                );
            }
        }
    }

    /// A packet has just become resident at `router` (injection or arrival): deliver it if
    /// it is home, otherwise pick an output port and enqueue it.
    fn enter_router(
        &self,
        pi: usize,
        router: VertexId,
        now: u64,
        st: &mut EngineState,
        rng: &mut StdRng,
        stats: &mut StatsCollector,
    ) {
        st.packets[pi].routing.note_arrival(router);
        let target = st.packets[pi]
            .routing
            .current_target(st.packets[pi].dst_router);
        if target == router {
            let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
            let slot = router as usize * self.cfg.num_vcs + vc;
            st.occ_dec(router, slot);
            let latency = now - st.packets[pi].inject_time_ps;
            stats.record_packet(latency, st.packets[pi].hops, st.packets[pi].bytes, now);
            if let Some(tag) = st.msg_tag.get(st.packets[pi].msg) {
                // Jobs mode only (`msg_tag` is empty otherwise): attribute the
                // delivery to its tenant alongside the global accounting.
                if tag.tenant != u32::MAX {
                    stats.record_tenant_packet(tag.tenant, latency, st.packets[pi].bytes, now);
                }
            }
            st.delivered_packets_total += 1;
            st.delivered_bytes_total += st.packets[pi].bytes;
            if st.fault.is_some() {
                st.fstats.delivered += 1;
                let fd = st.packets[pi].first_drop_ps;
                if fd != u64::MAX {
                    // The packet was dropped at least once and still made it
                    // home: its recovery time is first-drop → delivery.
                    let rec = now.saturating_sub(fd);
                    st.fstats.recovered += 1;
                    st.fstats.total_recovery_ps += rec;
                    st.fstats.max_recovery_ps = st.fstats.max_recovery_ps.max(rec);
                }
            }
            let m = st.packets[pi].msg;
            st.msg_packets_left[m] -= 1;
            if st.msg_packets_left[m] == 0 {
                // Written exactly once per message — the delivery that zeroes the
                // counter is by definition the message's last delivery.
                st.msg_last_delivery[m] = now;
                if st.track_completions {
                    st.completed_msgs.push(m);
                }
            }
            st.free.push(pi);
            st.wake_waiters(slot, now);
            return;
        }
        if let Some(fr) = st.fault.as_deref() {
            let reason = if st.packets[pi].hops >= fr.ttl {
                Some(DropReason::TtlExceeded)
            } else if !fr.reachable(router, target) {
                // No alive path can exist — drop now instead of wandering.
                Some(DropReason::NoRoute)
            } else {
                None
            };
            if let Some(reason) = reason {
                let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
                let slot = router as usize * self.cfg.num_vcs + vc;
                st.occ_dec(router, slot);
                st.wake_waiters(slot, now);
                self.drop_packet(pi, now, reason, st);
                return;
            }
        }
        let port = choose_port(
            self.net,
            self.cfg,
            self.router(),
            &mut st.packets,
            pi,
            router,
            &st.link_qlen,
            &st.occupancy,
            &st.router_occ,
            &st.link_parked,
            rng,
            &mut st.route_scratch,
        );
        let link = {
            let pristine = self.net.link_id(router, port);
            match st.fault.as_deref() {
                // Liveness-aware port mask: the immutable oracle's choice is
                // kept whenever its link is up; only a dead choice falls back
                // to the best alive port (greedy on static distance, RNG-free
                // so the shared decision stream is not perturbed).
                Some(fr) if fr.link_dead(pristine) => {
                    let (via, hops, attempts) = {
                        let p = &st.packets[pi];
                        (p.via_link, p.hops, p.attempts)
                    };
                    let prev = (via != u32::MAX).then(|| self.net.link_owner(via as usize).0);
                    let salt = hops.wrapping_add(attempts.wrapping_mul(31));
                    routing::best_alive_port(self.net, router, target, prev, salt, |l| {
                        if !fr.link_alive(l) {
                            return false;
                        }
                        // Static distance can point into a component the
                        // damage has cut off from the target — require the
                        // next hop to share the target's alive component.
                        let (r, p) = self.net.link_owner(l);
                        fr.reachable(self.net.link_target(r, p), target)
                    })
                    .map(|p| self.net.link_id(router, p))
                }
                _ => Some(pristine),
            }
        };
        let Some(link) = link else {
            // Every port toward the target is dead right now (the component
            // check above passed, so this is transient contention with the
            // fault timeline): recover through the retransmission path.
            let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
            let slot = router as usize * self.cfg.num_vcs + vc;
            st.occ_dec(router, slot);
            st.wake_waiters(slot, now);
            self.drop_packet(pi, now, DropReason::NoRoute, st);
            return;
        };
        // Schedule a transmit only when this enqueue makes the queue non-empty: a
        // non-empty queue already has exactly one driver in flight (a scheduled
        // TryTransmit, or a park that a wakeup will revive), and scheduling at
        // `max(now, free_at)` directly skips the pop-check-repush round-trip the
        // old schedule-at-now made against a still-serializing link.
        let was_empty = st.link_qlen[link] == 0;
        st.link_push(link, pi);
        if was_empty {
            let t = now.max(st.link_free_at[link]);
            st.push(t, EventKind::TryTransmit { link: link as u32 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Message, Workload};
    use spectralfly_graph::CsrGraph;

    fn ring(n: usize) -> CsrGraph {
        let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        e.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &e)
    }

    fn complete(n: usize) -> CsrGraph {
        let mut e = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                e.push((u, v));
            }
        }
        CsrGraph::from_edges(n, &e)
    }

    #[test]
    fn single_packet_latency_is_deterministic_and_correct() {
        // One 4096-byte packet over exactly one hop on a 2-router network.
        let net = SimNetwork::new(complete(2), 1);
        let cfg = SimConfig::default();
        let wl = Workload::new(
            "one",
            vec![Message {
                src: 0,
                dst: 1,
                bytes: 4096,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_packets, 1);
        assert_eq!(res.delivered_messages, 1);
        // Latency = serialization + link latency + router latency.
        let expected = cfg.serialization_ps(4096) + cfg.link_latency_ps() + cfg.router_latency_ps();
        assert_eq!(res.max_packet_latency_ps, expected);
        assert_eq!(res.mean_hops, 1.0);
    }

    #[test]
    fn all_packets_delivered_on_every_registered_routing_algorithm() {
        // Registry-driven conformance: every built-in algorithm must deliver every
        // packet and respect the VC/diameter hop bound implied by its own VC rule.
        // Iterates a freshly-built registry (not the process-global one) so the test
        // set cannot depend on what other tests registered concurrently.
        let net = SimNetwork::new(ring(8), 2);
        let wl = Workload::uniform_random(net.num_endpoints(), 10, 1024, 7);
        let names = routing::RouterRegistry::with_builtins().names();
        assert!(
            names.len() >= 4,
            "expected at least 4 built-ins, got {names:?}"
        );
        for name in names {
            let cfg = SimConfig::default().with_routing(name.clone(), net.diameter() as u32);
            let res = Simulator::new(&net, &cfg).run(&wl);
            assert_eq!(res.delivered_packets, 160, "{name}");
            assert_eq!(res.delivered_messages, 160, "{name}");
            assert!(res.completion_time_ps > 0, "{name}");
            assert!(
                (res.max_hops as usize) < cfg.num_vcs,
                "{name}: {} hops exceeds the VC bound {}",
                res.max_hops,
                cfg.num_vcs
            );
        }
    }

    #[test]
    fn message_segmentation_into_packets() {
        let net = SimNetwork::new(complete(3), 1);
        let cfg = SimConfig::default();
        // 10 KB message with 4 KB packets -> 3 packets, 1 message.
        let wl = Workload::new(
            "big",
            vec![Message {
                src: 0,
                dst: 2,
                bytes: 10_240,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_packets, 3);
        assert_eq!(res.delivered_messages, 1);
        assert_eq!(res.delivered_bytes, 10_240);
    }

    #[test]
    fn minimal_routing_takes_shortest_paths_when_uncongested() {
        let net = SimNetwork::new(ring(10), 1);
        let cfg = SimConfig::default();
        let wl = Workload::new(
            "far",
            vec![Message {
                src: 0,
                dst: 5,
                bytes: 512,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.max_hops, 5);
    }

    #[test]
    fn valiant_routes_are_longer_than_minimal() {
        let net = SimNetwork::new(ring(12), 1);
        let wl = Workload::uniform_random(12, 4, 512, 3);
        let d = net.diameter() as u32;
        let min_cfg = SimConfig::default().with_routing("minimal", d);
        let val_cfg = SimConfig::default().with_routing("valiant", d);
        let rmin = Simulator::new(&net, &min_cfg).run(&wl);
        let rval = Simulator::new(&net, &val_cfg).run(&wl);
        assert!(rval.mean_hops > rmin.mean_hops);
    }

    #[test]
    fn congestion_increases_latency_with_offered_load() {
        let net = SimNetwork::new(ring(8), 2);
        let cfg = SimConfig::default();
        let wl = Workload::uniform_random(net.num_endpoints(), 30, 4096, 5);
        let sim = Simulator::new(&net, &cfg);
        let light = sim.run_with_offered_load(&wl, 0.1);
        let heavy = sim.run_with_offered_load(&wl, 0.9);
        assert_eq!(light.delivered_packets, heavy.delivered_packets);
        assert!(
            heavy.mean_packet_latency_ps > light.mean_packet_latency_ps,
            "heavy {} vs light {}",
            heavy.mean_packet_latency_ps,
            light.mean_packet_latency_ps
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let net = SimNetwork::new(ring(6), 2);
        let cfg = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
        let wl = Workload::uniform_random(net.num_endpoints(), 8, 1024, 11);
        let a = Simulator::new(&net, &cfg).run(&wl);
        let b = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(a.completion_time_ps, b.completion_time_ps);
        assert_eq!(a.max_packet_latency_ps, b.max_packet_latency_ps);
    }

    #[test]
    fn self_destination_on_same_router_is_delivered_without_hops() {
        // Two endpoints on the same router exchange a message: zero network hops.
        let net = SimNetwork::new(complete(2), 2);
        let cfg = SimConfig::default();
        let wl = Workload::new(
            "local",
            vec![Message {
                src: 0,
                dst: 1,
                bytes: 256,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_packets, 1);
        assert_eq!(res.max_hops, 0);
    }

    /// The headline property of the wakeup engine: a congested run executes
    /// zero time-based retry re-enqueues — backpressure is handled entirely by
    /// waiter-list parks and wakeups (which must both be exercised here).
    #[test]
    fn congested_run_has_zero_timed_retries() {
        // A ring at offered load 0.9 with 4 endpoints per router is far beyond
        // saturation: downstream buffers fill and links block. (Buffers stay at
        // the default depth — very shallow buffers can genuinely deadlock this
        // single-FIFO-per-link model, in both engines.)
        let cfg = SimConfig::default();
        let net = SimNetwork::new(ring(8), 4);
        let wl = Workload::uniform_random(net.num_endpoints(), 100, 4096, 5);
        let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.9);
        assert_eq!(
            res.engine.timed_retries, 0,
            "wakeup engine must never schedule a timed retry"
        );
        assert!(
            res.engine.blocked_parks > 0,
            "a saturated ring must actually block (got {} parks)",
            res.engine.blocked_parks
        );
        assert_eq!(
            res.engine.blocked_parks, res.engine.wakeups,
            "every parked link must be woken again in a drained run"
        );
        // Same run on the polling reference: it must retry on a timer.
        let ref_res = ReferenceSimulator::new(&net, &cfg).run_with_offered_load(&wl, 0.9);
        assert!(
            ref_res.engine.timed_retries > 0,
            "the reference engine polls under congestion"
        );
        assert_eq!(ref_res.engine.blocked_parks, 0);
    }

    use super::reference::ReferenceSimulator;

    /// Out-of-order delivery inside one message: adaptive minimal routing on a
    /// ring with an antipodal destination splits a message's packets across the
    /// two equal-length directions, so a later-injected packet can overtake an
    /// earlier one. Message latency must span first injection to last delivery.
    #[test]
    fn multi_packet_message_latency_spans_first_inject_to_last_delivery() {
        let net = SimNetwork::new(ring(8), 1);
        let cfg = SimConfig::default();
        // 10 packets from router 0 to the antipode (both directions minimal).
        let wl = Workload::new(
            "antipodal",
            vec![Message {
                src: 0,
                dst: 4,
                bytes: 10 * 4096,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_packets, 10);
        assert_eq!(res.delivered_messages, 1);
        // First packet injected at t=0, so the message latency is exactly the
        // completion time, and it dominates every per-packet latency.
        assert_eq!(res.max_message_latency_ps, res.completion_time_ps);
        assert!(res.max_message_latency_ps >= res.max_packet_latency_ps);
    }

    /// Degraded topologies route around the damage: a ring with one down
    /// router still delivers everything among the survivors, the long way.
    #[test]
    fn degraded_ring_reroutes_and_delivers() {
        use crate::fault::{FaultError, FaultPlan, Infeasible};
        let plan = FaultPlan::parse("router(4)").unwrap();
        let net = SimNetwork::with_faults(ring(8), 1, &plan).unwrap();
        let cfg = SimConfig::default().with_routing("minimal", net.diameter() as u32);
        // 3 -> 5 minimally crossed router 4 (2 hops); now it rides the long arc.
        let wl = Workload::new(
            "around",
            vec![Message {
                src: 3,
                dst: 5,
                bytes: 512,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        assert_eq!(res.delivered_packets, 1);
        assert_eq!(res.max_hops, 6);
        // Anything touching the down router's endpoint fails fast and typed.
        let dead = Workload::new(
            "dead",
            vec![Message {
                src: 3,
                dst: 4,
                bytes: 512,
                inject_offset_ps: 0,
            }],
        );
        let err = Simulator::new(&net, &cfg).try_run(&dead).unwrap_err();
        assert_eq!(
            err,
            SimError::Fault(FaultError::Other(Infeasible::RouterDown {
                endpoint: 4,
                router: 4
            }))
        );
    }

    /// Steady-state live patterns on a degraded network run over the surviving
    /// machine: dead endpoints neither inject nor receive.
    #[test]
    fn degraded_steady_pattern_runs_over_survivors() {
        use crate::fault::{FaultError, FaultPlan, Infeasible};
        let plan = FaultPlan::parse("router(2)").unwrap();
        let net = SimNetwork::with_faults(ring(8), 2, &plan).unwrap();
        let mut cfg = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
        cfg.windows = Some(
            crate::config::MeasurementWindows::new(2_000_000, 20_000_000).with_pattern("random"),
        );
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 5);
        let res = Simulator::new(&net, &cfg)
            .try_run_with_offered_load(&wl, 0.3)
            .unwrap();
        let m = res.measurement.expect("steady-state run has a summary");
        assert!(m.delivered_packets > 20, "got {}", m.delivered_packets);
        // A fragmented surviving graph is rejected up front for live patterns.
        let cut = FaultPlan::parse("link(0,7) + link(3,4)").unwrap();
        let frag = SimNetwork::with_faults(ring(8), 2, &cut).unwrap();
        let err = Simulator::new(&frag, &cfg)
            .try_run_with_offered_load(&wl, 0.3)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Fault(FaultError::Other(Infeasible::Fragmented { components: 2 }))
        );
    }

    /// `try_run` must return `FaultPlanMismatch` with a message containing
    /// `expect`, and `run` must panic with that same message.
    fn assert_plan_mismatch(net: &SimNetwork, cfg: &SimConfig, expect: &str) {
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 1024, 1);
        let sim = Simulator::new(net, cfg);
        let err = sim.try_run(&wl).unwrap_err();
        assert!(
            matches!(&err, SimError::FaultPlanMismatch(m) if m.contains(expect)),
            "{err:?}"
        );
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(&wl)))
            .expect_err("run must panic on a mismatched fault plan");
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
    }

    /// A config that records a fault plan must be paired with a network built
    /// from that plan.
    #[test]
    fn config_fault_plan_without_degraded_network_panics() {
        use crate::fault::FaultPlan;
        let net = SimNetwork::new(ring(8), 1);
        let cfg = SimConfig::default().with_fault_plan(FaultPlan::random_links(0.2));
        assert_plan_mismatch(&net, &cfg, "built pristine");
    }

    /// Same spec at a different seed is different damage — the config check
    /// compares the full cache key, not just the spelling.
    #[test]
    fn config_fault_plan_with_wrong_seed_panics() {
        use crate::fault::FaultPlan;
        let net = SimNetwork::with_faults(ring(12), 1, &FaultPlan::random_links(0.2).with_seed(1))
            .unwrap();
        let cfg = SimConfig::default().with_fault_plan(FaultPlan::random_links(0.2).with_seed(2));
        assert_plan_mismatch(&net, &cfg, "does not match the network's");
    }

    /// A machine with every router down is as infeasible for a live pattern
    /// as a fragmented one — not a normal-looking zero-throughput run.
    #[test]
    fn all_routers_down_is_rejected_for_live_patterns() {
        use crate::fault::{FaultError, FaultPlan, Infeasible};
        let net = SimNetwork::with_faults(ring(6), 1, &FaultPlan::random_routers(6)).unwrap();
        let cfg = SimConfig::default().with_windows(
            crate::config::MeasurementWindows::new(1_000_000, 4_000_000).with_pattern("random"),
        );
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 1024, 3);
        let err = Simulator::new(&net, &cfg)
            .try_run_with_offered_load(&wl, 0.3)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Fault(FaultError::Other(Infeasible::Fragmented { components: 0 }))
        );
    }

    /// The packet arena recycles delivered slots in steady-state mode instead of
    /// growing per injected packet.
    #[test]
    fn steady_state_arena_stays_bounded() {
        let net = SimNetwork::new(ring(6), 1);
        let cfg = SimConfig::default().with_windows(crate::config::MeasurementWindows::new(
            2_000_000, 30_000_000,
        ));
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 9);
        let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.3);
        let m = res.measurement.expect("steady-state run has a summary");
        assert!(m.delivered_packets > 50, "got {}", m.delivered_packets);
        // The arena's high-water mark tracks in-flight packets, not total
        // injections: the free list must have recycled slots many times over.
        assert!(
            res.engine.arena_slots < m.injected_packets,
            "arena grew to {} slots for {} measured injections",
            res.engine.arena_slots,
            m.injected_packets
        );
    }

    /// A runtime fault script injects failures mid-run, packets are dropped
    /// with typed reasons and recovered by retransmission, and the
    /// conservation identity (injected = delivered + failed + in-flight, with
    /// in-flight = 0 after a finite drain) holds exactly.
    #[test]
    fn fault_script_drops_retransmit_and_conserve_packets() {
        let net = SimNetwork::new(ring(8), 2);
        let script = crate::fault::FaultScript::parse("at(1us, links(0.25)) + at(60us, heal(all))")
            .unwrap()
            .with_seed(11);
        let cfg = SimConfig::default()
            .with_routing("minimal", net.diameter() as u32)
            .with_fault_script(script);
        let wl = Workload::uniform_random(net.num_endpoints(), 20, 4096, 7);
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        let f = res.faults;
        assert_eq!(f.injected, 20 * net.num_endpoints() as u64);
        assert_eq!(
            f.injected,
            f.delivered + f.failed,
            "finite drain left {} packets unaccounted",
            f.in_flight()
        );
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.dropped_total(), f.retransmits + f.failed);
        assert!(f.fault_events >= 2, "script events: {}", f.fault_events);
        assert!(
            f.dropped_total() > 0,
            "a quarter of a ring's links dying must drop something"
        );
        // Delivered totals include retransmitted survivors.
        assert_eq!(res.delivered_packets, f.delivered);
        if f.recovered > 0 {
            assert!(f.mean_recovery_ps() > 0.0);
            assert!(f.max_recovery_ps as f64 >= f.mean_recovery_ps());
        }
    }

    /// The same script with no packets in harm's way (events beyond the
    /// horizon) leaves the run untouched and the fault stats clean.
    #[test]
    fn fault_script_beyond_horizon_is_inert() {
        let net = SimNetwork::new(ring(6), 1);
        let script = crate::fault::FaultScript::parse("at(2ms, links(0.5))").unwrap();
        // Default fault horizon is 1 ms: the event is clipped at expansion.
        let cfg = SimConfig::default().with_fault_script(script);
        let wl = Workload::uniform_random(net.num_endpoints(), 5, 1024, 3);
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        assert_eq!(res.faults.fault_events, 0);
        assert_eq!(res.faults.dropped_total(), 0);
        assert_eq!(res.faults.injected, res.faults.delivered);
        let pristine_cfg = SimConfig::default();
        let pristine = Simulator::new(&net, &pristine_cfg).run(&wl);
        assert_eq!(res.delivered_packets, pristine.delivered_packets);
        assert_eq!(res.mean_packet_latency_ps, pristine.mean_packet_latency_ps);
    }

    /// Runtime router failure with recovery: packets to/from the down router
    /// are dropped (typed) while it is dark, and traffic completes after the
    /// heal — graceful degradation, never a hang.
    #[test]
    fn router_churn_recovers_after_heal() {
        let net = SimNetwork::new(complete(5), 1);
        let script =
            crate::fault::FaultScript::parse("at(500ns, router(2)) + at(30us, heal(all))").unwrap();
        let cfg = SimConfig::default().with_fault_script(script);
        let wl = Workload::uniform_random(net.num_endpoints(), 10, 2048, 5);
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        let f = res.faults;
        assert_eq!(f.injected, f.delivered + f.failed);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.fault_events, 2);
    }

    /// The wakeup engine's quiescence detection surfaces as a typed
    /// [`SimError::Deadlock`] (with the diagnostic text preserved) instead of
    /// a process abort.
    #[test]
    fn hol_deadlock_is_a_typed_error() {
        // Single VC + single buffer slot on a ring forces the classic cyclic
        // head-of-line wait under all-to-all pressure.
        let net = SimNetwork::new(ring(8), 4);
        let cfg = SimConfig {
            num_vcs: 1,
            buffer_packets_per_vc: 1,
            ..SimConfig::default()
        };
        let wl = Workload::uniform_random(net.num_endpoints(), 30, 4096, 13);
        match Simulator::new(&net, &cfg).try_run(&wl) {
            Err(SimError::Deadlock { diagnosis }) => {
                assert!(
                    diagnosis.contains("cyclic head-of-line wait"),
                    "{diagnosis}"
                );
                assert!(diagnosis.contains("buffer_packets_per_vc"), "{diagnosis}");
            }
            Err(other) => panic!("expected a deadlock, got {other}"),
            Ok(_) => panic!("expected a deadlock, run completed"),
        }
    }
}
