//! Conservative parallel discrete-event engine (PDES): routers are partitioned
//! across worker shards, each shard runs its own calendar queue and packet
//! arena, and the shards advance in barrier-synchronized epochs bounded by the
//! network's minimum cross-router latency (the *lookahead*).
//!
//! # Synchronization protocol
//!
//! Every cross-router interaction in this model takes at least
//! `E = link_latency + router_latency` of simulated time: a packet transmitted
//! at `t` arrives at the downstream router no earlier than `t + E`, and a
//! buffer credit freed at `t` reaches the upstream sender at `t + E`. `E` is
//! therefore a global lookahead, and the classic conservative bound applies:
//! with `m` the minimum pending-event time across all shards, every event
//! strictly before `m + E` can be processed without ever receiving a
//! straggler. Each epoch runs three barriers:
//!
//! 1. every shard publishes its earliest pending-event time; after the
//!    barrier, every shard reduces the same global minimum `m` (and the run
//!    terminates when `m` is `u64::MAX`, or passes the drain deadline);
//! 2. every shard publishes its routers' buffer occupancy to a shared board;
//!    after the barrier, every shard snapshots the whole board — the
//!    epoch-consistent congestion view UGAL's remote signals read;
//! 3. every shard processes its events strictly below `m + E`, queueing
//!    cross-shard packet handoffs and credit returns as timestamped messages;
//!    after the barrier, every shard drains its inbox into its own queue
//!    (every message carries a timestamp `≥ m + E`, i.e. next epoch or later).
//!
//! # Shard-count invariance
//!
//! Results are identical for every shard count by construction:
//!
//! * every event carries a *stable key* derived from packet / endpoint / link
//!   identity (never from arena indices or push order), and each shard pops in
//!   `(time, key)` order — and any two events on *different* routers commute,
//!   because state is router-local;
//! * routing decisions draw from a counter-based per-decision RNG seeded by
//!   `(seed, packet id, hop)`, not from a shared sequential stream;
//! * steady-state sources own per-endpoint RNG streams seeded by
//!   `(seed, endpoint)`;
//! * epoch boundaries are themselves shard-count-invariant (the `m` sequence
//!   depends only on the deterministic event set), so the congestion snapshots
//!   refresh at the same simulated times everywhere.
//!
//! The flow-control model differs from the sequential engine in one deliberate
//! way: buffer capacity is enforced by *per-(link, VC) sender-held credits*
//! (an input-queued router), because a sender cannot synchronously read a
//! remote router's shared buffer counter. The sequential [`super::Simulator`]
//! remains the physics oracle: on uncongested runs — where backpressure never
//! engages — the two engines produce identical results, and on congested runs
//! the parallel engine is validated by conservation and invariant checks plus
//! exact cross-shard-count equality (see `tests/pdes_equivalence.rs`).

use super::calendar::{CalendarQueue, Timed};
use super::{packetize_phase, segment_message, AliveEndpoints, DropReason, FaultRuntime, SimError};
use crate::config::{MeasurementWindows, SimConfig};
use crate::fault::{FaultEventKind, FaultTimeline};
use crate::job::{self, CollectiveState, JobBehavior, JobCtx, MixPlan, MsgTag, RateRuntime};
use crate::network::SimNetwork;
use crate::routing::{self, RouteScratch, Router, RoutingCtx, RoutingState};
use crate::stats::{EngineCounters, FaultStats, IntervalSample, SimResults, StatsCollector};
use crate::workload::Workload;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use spectralfly_graph::csr::VertexId;
use spectralfly_graph::{partition_kway, BisectConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Seed for the router partition. Fixed (not `cfg.seed`): the partition is a
/// performance decision, and results are shard-count-invariant anyway, so
/// changing the simulation seed must not reshuffle which shard owns what.
const PARTITION_SEED: u64 = 0x9A27_51DE_C0DE_0006;

// Stable event-key classes: at equal timestamps, events pop in class order
// (fault flips, source arrivals, then injections, credits, arrivals,
// transmits). Any fixed order works — same-time events on different routers
// commute — it only has to be the *same* order for every shard count. Class 0
// (once the replicated sampling tick, freed when sampling went event-free —
// see [`ShardCore::flush_sample_ticks`]) is now the fault-timeline event, so
// liveness flips apply before any co-timed packet event, and the packet
// classes keep their values (golden-seed results on fault-free runs are
// unchanged).
const CLASS_FAULT: u64 = 0;
const CLASS_NEXT_MESSAGE: u64 = 1;
const CLASS_INJECT: u64 = 2;
const CLASS_CREDIT: u64 = 3;
const CLASS_ARRIVE: u64 = 4;
const CLASS_TRY_TRANSMIT: u64 = 5;

/// Pack a class and a stable id into one orderable key.
#[inline]
fn key(class: u64, id: u64) -> u64 {
    (class << 56) | (id & 0x00FF_FFFF_FFFF_FFFF)
}

/// SplitMix64 finalizer (the same mixer the workspace `rand` shim seeds with).
#[inline]
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter-based per-decision generator: a fresh SplitMix64 stream keyed by
/// `(seed, packet id, hop)`. A routing decision is uniquely identified by the
/// packet and its hop count, so the draw sequence is a pure function of the
/// decision — independent of event interleaving and shard count.
struct DecisionRng {
    state: u64,
}

impl DecisionRng {
    fn new(seed: u64, stable_id: u64, hops: u32) -> Self {
        DecisionRng {
            state: mix64(mix64(seed) ^ mix64(stable_id).wrapping_add(hops as u64)),
        }
    }
}

impl RngCore for DecisionRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A packet in a shard's arena. Unlike the sequential engine's packet, it is
/// self-describing (stable id, message identity, upstream credit slot) so it
/// can cross shard boundaries by value.
#[derive(Clone, Debug)]
struct ParPacket {
    src_router: VertexId,
    dst_router: VertexId,
    bytes: u64,
    inject_time_ps: u64,
    hops: u32,
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
    /// Times this packet has been dropped and rescheduled (fault runs only).
    attempts: u32,
    /// First time this packet was dropped (`u64::MAX` = never): recovery time
    /// is measured from here to eventual delivery.
    first_drop_ps: u64,
    /// Tenant / collective tag (tenant `u32::MAX` = untagged legacy traffic).
    /// Carried by value so the destination shard can account per-tenant stats
    /// and collective releases without a global map.
    tag: MsgTag,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum PKind {
    /// A continuous source generates its next message (steady-state only).
    NextMessage { source: u32 },
    /// Endpoint NIC injects a packet at its (local) source router.
    Inject { packet: u32 },
    /// A buffer credit returns to the sender side of a link.
    Credit { link: u32, vc: u8 },
    /// A packet arrives at a (local) router after crossing a link.
    Arrive { packet: u32, router: VertexId },
    /// Try to transmit the head of a (local) link's output queue.
    TryTransmit { link: u32 },
    /// Apply fault-timeline entry `idx` to this shard's liveness view. Every
    /// shard replays the whole timeline (self-chaining, one in queue at a
    /// time), so the per-shard liveness masks can never diverge.
    Fault { idx: u32 },
}

/// An event ordered by `(time, key)`. The key is stable across shard counts;
/// the trailing `kind` comparison exists only for `Ord` consistency (two
/// distinct events never share a `(time, key)` pair unless they are
/// interchangeable credit increments).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PEvent {
    time: u64,
    key: u64,
    kind: PKind,
}

impl Timed for PEvent {
    fn time(&self) -> u64 {
        self.time
    }
}

/// A timestamped cross-shard handoff, drained at the epoch barrier. Every
/// variant carries a timestamp `≥ m + E` by the lookahead argument (a
/// retransmission's backoff is `≥ E` by construction — see
/// [`crate::SimConfig::retransmit_backoff_ps`]).
enum ShardMsg {
    Arrive {
        time: u64,
        router: VertexId,
        packet: ParPacket,
    },
    Credit {
        time: u64,
        link: u32,
        vc: u8,
    },
    /// A dropped packet returns to its source NIC on the shard owning its
    /// source router, re-entering as a fresh injection.
    Retransmit {
        time: u64,
        packet: ParPacket,
    },
}

/// Per-message completion accounting on the destination shard: packets of the
/// message still in flight. (Every packet carries the message's first-inject
/// time, so only the countdown needs to live here.)
struct MsgEntry {
    left: u32,
}

/// One shard's contribution to a steady-state sampling tick; merged by tick
/// index on the main thread.
struct RawSample {
    t_ps: u64,
    bytes: u64,
    packets: u64,
    queued: u64,
    parked: usize,
}

/// The shared congestion board: every shard publishes its owned routers'
/// occupancy before barrier 2 and snapshots the whole board after it.
struct SnapshotBoard {
    occupancy: Vec<u32>,
    router_occ: Vec<u32>,
}

/// A barrier that panicking shards poison, so sibling shards blocked on it
/// fail fast instead of deadlocking the run.
struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        PoisonBarrier {
            n,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!st.poisoned, "barrier poisoned: a sibling shard panicked");
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return;
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        assert!(!st.poisoned, "barrier poisoned: a sibling shard panicked");
    }

    fn poison(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// On-drop poisoner: armed at shard start so any panic (even one inside a
/// barrier wait's assert) releases the siblings.
struct PoisonGuard<'a>(&'a PoisonBarrier);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// State shared between all shards of one run (or one finite phase).
struct EpochShared {
    barrier: PoisonBarrier,
    /// Each shard's earliest pending-event time, published before barrier 1.
    next_times: Vec<AtomicU64>,
    /// Cross-shard message inboxes, appended before barrier 3 and drained by
    /// the owner after it.
    inboxes: Vec<Mutex<Vec<ShardMsg>>>,
    board: Mutex<SnapshotBoard>,
}

impl EpochShared {
    fn new(shards: usize, net: &SimNetwork, cfg: &SimConfig) -> Self {
        EpochShared {
            barrier: PoisonBarrier::new(shards),
            next_times: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            board: Mutex::new(SnapshotBoard {
                occupancy: vec![0; net.num_routers() * cfg.num_vcs],
                router_occ: vec![0; net.num_routers()],
            }),
        }
    }
}

/// What one shard hands back to the main thread when its loop ends.
struct ShardOutcome {
    stats: StatsCollector,
    counters: EngineCounters,
    samples: Vec<RawSample>,
    fstats: FaultStats,
    delivered_packets: u64,
    phase_end: u64,
    in_queues: usize,
    pending: usize,
    occ_sum: u32,
    parked: usize,
}

/// One worker shard's complete simulation state. Arrays are indexed in the
/// *global* id space (routers, links) — each shard only ever touches its owned
/// region, and global indexing keeps every id stable across shard counts.
struct ShardCore<'a> {
    sid: usize,
    net: &'a SimNetwork,
    cfg: &'a SimConfig,
    algo: &'a dyn Router,
    owner: &'a [u32],
    /// The conservative lookahead `E = link_latency + router_latency`, ps.
    lookahead: u64,
    cap: u32,
    nv: usize,
    /// Links owned by this shard (their source router is owned).
    my_links: Vec<usize>,
    /// Routers owned by this shard.
    my_routers: Vec<VertexId>,
    packets: Vec<ParPacket>,
    free: Vec<usize>,
    link_queue: Vec<VecDeque<usize>>,
    link_qlen: Vec<u32>,
    link_free_at: Vec<u64>,
    /// Sender-held credits per `(link, vc)`: downstream buffer slots this link
    /// may still claim on that VC. Consumed at transmit, returned (with `E`
    /// delay) when the packet departs the downstream router.
    credits: Vec<u32>,
    /// The VC a parked link is waiting for a credit on (`u8::MAX` = none).
    waiting_vc: Vec<u8>,
    link_parked: Vec<bool>,
    parked_count: usize,
    /// Live occupancy of owned routers (capacity/injection gating).
    occupancy: Vec<u32>,
    router_occ: Vec<u32>,
    /// Epoch-consistent snapshot of *all* routers' occupancy (routing signals).
    occ_view: Vec<u32>,
    rocc_view: Vec<u32>,
    pending_inject: Vec<VecDeque<usize>>,
    pending_len: Vec<u32>,
    queue: CalendarQueue<PEvent>,
    route_scratch: RouteScratch,
    /// Runtime liveness view for fault-script runs (`None` = pristine run,
    /// zero hot-path overhead). Every shard holds its own copy, kept identical
    /// by replaying the full shared timeline.
    fault: Option<Box<FaultRuntime>>,
    /// Fault accounting partials (all-zero on pristine runs).
    fstats: FaultStats,
    /// Message completion accounting, keyed by stable message id. All packets
    /// of a message deliver at one destination router, hence at one shard.
    /// A terminally failed packet never decrements its entry, so a damaged
    /// message is never recorded as completed — the countdown analogue of the
    /// sequential engine's `msg_failed` poisoning.
    msgs: HashMap<u64, MsgEntry>,
    /// Collective messages fully delivered since the last drain, handed to the
    /// jobs driving closure which owns the dependency trackers (empty unless
    /// [`crate::SimConfig::jobs`] is set).
    jobs_completed: Vec<(MsgTag, u64)>,
    /// Per-destination-shard outboxes, flushed at barrier 3.
    out: Vec<Vec<ShardMsg>>,
    stats: StatsCollector,
    counters: EngineCounters,
    raw_samples: Vec<RawSample>,
    /// Steady-state sampling cadence in ps; `0` = sampling disarmed (finite
    /// runs). Ticks are *not* queue events (they used to be, replicated on
    /// every shard — pure per-shard event-loop overhead): each shard folds its
    /// local partial at `flush_sample_ticks` before handling any event at or
    /// past a tick's timestamp, which reproduces the replicated-event ordering
    /// exactly (see that method's invariant note).
    tick_ivm: u64,
    /// Last tick timestamp to record (the drain deadline).
    tick_deadline: u64,
    /// Index of the next unrecorded tick (tick `k` fires at `k * tick_ivm`).
    next_tick: u64,
    delivered_packets_total: u64,
    delivered_bytes_total: u64,
    sampled_packets: u64,
    sampled_bytes: u64,
    phase_end: u64,
}

impl<'a> ShardCore<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        sid: usize,
        shards: usize,
        net: &'a SimNetwork,
        cfg: &'a SimConfig,
        algo: &'a dyn Router,
        owner: &'a [u32],
        lookahead: u64,
        stats: StatsCollector,
        phase_start: u64,
    ) -> Self {
        let nv = cfg.num_vcs;
        let links = net.num_directed_links();
        let my_routers: Vec<VertexId> = (0..net.num_routers() as VertexId)
            .filter(|&r| owner[r as usize] as usize == sid)
            .collect();
        let my_links: Vec<usize> = (0..links)
            .filter(|&l| owner[net.link_owner(l).0 as usize] as usize == sid)
            .collect();
        let width = (cfg.serialization_ps(cfg.packet_size_bytes) / 4).max(1);
        ShardCore {
            sid,
            net,
            cfg,
            algo,
            owner,
            lookahead,
            cap: cfg.buffer_packets_per_vc as u32,
            nv,
            my_links,
            my_routers,
            packets: Vec::new(),
            free: Vec::new(),
            link_queue: vec![VecDeque::new(); links],
            link_qlen: vec![0; links],
            link_free_at: vec![0; links],
            credits: vec![cfg.buffer_packets_per_vc as u32; links * nv],
            waiting_vc: vec![u8::MAX; links],
            link_parked: vec![false; links],
            parked_count: 0,
            occupancy: vec![0; net.num_routers() * nv],
            router_occ: vec![0; net.num_routers()],
            occ_view: vec![0; net.num_routers() * nv],
            rocc_view: vec![0; net.num_routers()],
            pending_inject: vec![VecDeque::new(); net.num_routers()],
            pending_len: vec![0; net.num_routers()],
            queue: CalendarQueue::new(width, 1024),
            route_scratch: RouteScratch::default(),
            fault: None,
            fstats: FaultStats::default(),
            msgs: HashMap::new(),
            jobs_completed: Vec::new(),
            out: (0..shards).map(|_| Vec::new()).collect(),
            stats,
            counters: EngineCounters::default(),
            raw_samples: Vec::new(),
            tick_ivm: 0,
            tick_deadline: 0,
            next_tick: 1,
            delivered_packets_total: 0,
            delivered_bytes_total: 0,
            sampled_packets: 0,
            sampled_bytes: 0,
            phase_end: phase_start,
        }
    }

    #[inline]
    fn push(&mut self, time: u64, key: u64, kind: PKind) {
        self.queue.push(PEvent { time, key, kind });
    }

    fn alloc_packet(&mut self, p: ParPacket) -> usize {
        let slot = match self.free.pop() {
            Some(i) => {
                self.packets[i] = p;
                i
            }
            None => {
                assert!(
                    self.packets.len() < u32::MAX as usize,
                    "packet arena exceeded u32 index space"
                );
                self.packets.push(p);
                self.packets.len() - 1
            }
        };
        self.counters.arena_slots = self.counters.arena_slots.max(self.packets.len() as u64);
        slot
    }

    #[inline]
    fn link_push(&mut self, link: usize, pi: usize) {
        self.link_queue[link].push_back(pi);
        self.link_qlen[link] += 1;
    }

    #[inline]
    fn link_pop(&mut self, link: usize) -> Option<usize> {
        let head = self.link_queue[link].pop_front();
        if head.is_some() {
            self.link_qlen[link] -= 1;
        }
        head
    }

    #[inline]
    fn occ_inc(&mut self, router: VertexId, slot: usize) {
        self.occupancy[slot] += 1;
        self.router_occ[router as usize] += 1;
    }

    #[inline]
    fn occ_dec(&mut self, router: VertexId, slot: usize) {
        if self.occupancy[slot] > 0 {
            self.occupancy[slot] -= 1;
            self.router_occ[router as usize] -= 1;
        }
    }

    /// Route a credit increment to the shard owning the link's sender side.
    fn send_credit(&mut self, link: u32, vc: u8, time: u64) {
        let o = self.owner[self.net.link_owner(link as usize).0 as usize] as usize;
        if o == self.sid {
            self.push(
                time,
                key(CLASS_CREDIT, ((link as u64) << 8) | vc as u64),
                PKind::Credit { link, vc },
            );
        } else {
            self.out[o].push(ShardMsg::Credit { time, link, vc });
        }
    }

    /// Route a dropped packet back to the shard owning its source router for
    /// re-injection at `time` (`now + backoff ≥ now + E`, so the handoff
    /// respects the conservative bound), freeing the local arena slot on a
    /// cross-shard handoff.
    fn send_retransmit(&mut self, time: u64, pi: usize) {
        let o = self.owner[self.packets[pi].src_router as usize] as usize;
        if o == self.sid {
            let k = key(CLASS_INJECT, self.packets[pi].stable_id);
            self.push(time, k, PKind::Inject { packet: pi as u32 });
        } else {
            let packet = self.packets[pi].clone();
            self.free.push(pi);
            self.out[o].push(ShardMsg::Retransmit { time, packet });
        }
    }

    /// Route a packet arrival to the shard owning the downstream router,
    /// freeing the local arena slot on a cross-shard handoff.
    fn send_arrive(&mut self, time: u64, router: VertexId, pi: usize) {
        let o = self.owner[router as usize] as usize;
        if o == self.sid {
            let k = key(CLASS_ARRIVE, self.packets[pi].stable_id);
            self.push(
                time,
                k,
                PKind::Arrive {
                    packet: pi as u32,
                    router,
                },
            );
        } else {
            let packet = self.packets[pi].clone();
            self.free.push(pi);
            self.out[o].push(ShardMsg::Arrive {
                time,
                router,
                packet,
            });
        }
    }

    /// Enqueue one drained inbox message as a local event.
    fn deliver_msg(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Arrive {
                time,
                router,
                packet,
            } => {
                let k = key(CLASS_ARRIVE, packet.stable_id);
                let slot = self.alloc_packet(packet);
                self.push(
                    time,
                    k,
                    PKind::Arrive {
                        packet: slot as u32,
                        router,
                    },
                );
            }
            ShardMsg::Credit { time, link, vc } => {
                self.push(
                    time,
                    key(CLASS_CREDIT, ((link as u64) << 8) | vc as u64),
                    PKind::Credit { link, vc },
                );
            }
            ShardMsg::Retransmit { time, packet } => {
                let k = key(CLASS_INJECT, packet.stable_id);
                let slot = self.alloc_packet(packet);
                self.push(
                    time,
                    k,
                    PKind::Inject {
                        packet: slot as u32,
                    },
                );
            }
        }
    }

    /// Process one core event. `NextMessage` belongs to the driving loop
    /// (steady mode) and never reaches this.
    fn handle_core(&mut self, ev: PEvent) {
        let now = ev.time;
        match ev.kind {
            PKind::Inject { packet } => {
                let pi = packet as usize;
                let router = self.packets[pi].src_router;
                if let Some(fr) = self.fault.as_deref() {
                    let dst = self.packets[pi].dst_router;
                    let reason = if fr.router_dead(router) || fr.router_dead(dst) {
                        Some(DropReason::RouterDown)
                    } else if !fr.reachable(router, dst) {
                        Some(DropReason::NoRoute)
                    } else {
                        None
                    };
                    if let Some(reason) = reason {
                        // The packet never entered a buffer — pure NIC-side drop.
                        self.drop_packet(pi, now, reason);
                        return;
                    }
                }
                let slot = router as usize * self.nv;
                if self.occupancy[slot] < self.cap {
                    self.occ_inc(router, slot);
                    self.enter_router(pi, router, now);
                    self.admit_pending(router, now);
                } else {
                    self.pending_inject[router as usize].push_back(pi);
                    self.pending_len[router as usize] += 1;
                }
            }
            PKind::TryTransmit { link } => self.try_transmit(link as usize, now),
            PKind::Arrive { packet, router } => {
                let pi = packet as usize;
                if let Some(fr) = self.fault.as_deref() {
                    let via = self.packets[pi].via_link;
                    let ser = self.cfg.serialization_ps(self.packets[pi].bytes);
                    let flight_start = now.saturating_sub(ser + self.lookahead);
                    if via != u32::MAX && fr.last_down_ps[via as usize] > flight_start {
                        // The link died under the packet mid-flight. The packet
                        // never claims its downstream buffer slot (`occ_inc`
                        // happens below), so only its held credit goes back.
                        let vv = self.packets[pi].via_vc;
                        self.send_credit(via, vv, now + self.lookahead);
                        self.drop_packet(pi, now, DropReason::LinkDown);
                        return;
                    }
                }
                let vc = (self.packets[pi].hops as usize).min(self.nv - 1);
                self.occ_inc(router, router as usize * self.nv + vc);
                self.enter_router(pi, router, now);
                self.admit_pending(router, now);
            }
            PKind::Fault { idx } => self.apply_fault(idx as usize, now),
            PKind::Credit { link, vc } => {
                let l = link as usize;
                self.credits[l * self.nv + vc as usize] += 1;
                if self.link_parked[l] && self.waiting_vc[l] == vc {
                    self.link_parked[l] = false;
                    self.waiting_vc[l] = u8::MAX;
                    self.parked_count -= 1;
                    self.counters.wakeups += 1;
                    let t = now.max(self.link_free_at[l]);
                    self.push(
                        t,
                        key(CLASS_TRY_TRANSMIT, l as u64),
                        PKind::TryTransmit { link },
                    );
                }
            }
            PKind::NextMessage { .. } => {
                unreachable!("mode events are handled by the driving loop")
            }
        }
    }

    fn try_transmit(&mut self, link: usize, now: u64) {
        if self.fault.as_deref().is_some_and(|fr| fr.link_dead(link)) {
            // Defensive: the fault event flushed this queue, but a
            // same-timestamp transmit may still have been in flight.
            self.flush_dead_link(link, now, DropReason::LinkDown);
            return;
        }
        if self.link_parked[link] {
            // A credit wakeup will revive this link; nothing to do.
            return;
        }
        let Some(&pi) = self.link_queue[link].front() else {
            return;
        };
        if self.link_free_at[link] > now {
            let t = self.link_free_at[link];
            self.push(
                t,
                key(CLASS_TRY_TRANSMIT, link as u64),
                PKind::TryTransmit { link: link as u32 },
            );
            return;
        }
        let (src_router, port) = self.net.link_owner(link);
        let dst_router = self.net.link_target(src_router, port);
        let hops = self.packets[pi].hops as usize;
        let vc = hops.min(self.nv - 1);
        let next_vc = (hops + 1).min(self.nv - 1);
        let pool = link * self.nv + next_vc;
        if self.credits[pool] == 0 {
            // Park until a credit for (link, next_vc) returns — the credit
            // analogue of the sequential engine's waiter lists.
            self.link_parked[link] = true;
            self.waiting_vc[link] = next_vc as u8;
            self.parked_count += 1;
            self.counters.blocked_parks += 1;
            return;
        }
        self.credits[pool] -= 1;
        self.link_pop(link);
        self.occ_dec(src_router, src_router as usize * self.nv + vc);
        if vc == 0 {
            self.admit_pending(src_router, now);
        }
        // The packet vacated its slot here: return the credit it held for the
        // link it arrived on (delayed by the lookahead, modelling the reverse
        // propagation of the credit signal).
        let (via_link, via_vc) = (self.packets[pi].via_link, self.packets[pi].via_vc);
        if via_link != u32::MAX {
            self.send_credit(via_link, via_vc, now + self.lookahead);
        }
        let ser = self.cfg.serialization_ps(self.packets[pi].bytes);
        let start = now.max(self.link_free_at[link]);
        self.link_free_at[link] = start + ser;
        let arrive = start + ser + self.lookahead;
        self.packets[pi].hops += 1;
        self.packets[pi].via_link = link as u32;
        self.packets[pi].via_vc = next_vc as u8;
        self.send_arrive(arrive, dst_router, pi);
        if !self.link_queue[link].is_empty() {
            let t = self.link_free_at[link];
            self.push(
                t,
                key(CLASS_TRY_TRANSMIT, link as u64),
                PKind::TryTransmit { link: link as u32 },
            );
        }
    }

    /// A packet just became resident at `router`: deliver if home, else pick a
    /// port and enqueue. Mirrors the sequential `enter_router` with credit
    /// returns in place of waiter wakeups.
    fn enter_router(&mut self, pi: usize, router: VertexId, now: u64) {
        self.packets[pi].routing.note_arrival(router);
        let dst = self.packets[pi].dst_router;
        let target = self.packets[pi].routing.current_target(dst);
        if target == router {
            let hops = self.packets[pi].hops;
            let vc = (hops as usize).min(self.nv - 1);
            self.occ_dec(router, router as usize * self.nv + vc);
            let bytes = self.packets[pi].bytes;
            let latency = now - self.packets[pi].inject_time_ps;
            self.stats.record_packet(latency, hops, bytes, now);
            let tag = self.packets[pi].tag;
            if tag.tenant != u32::MAX {
                self.stats
                    .record_tenant_packet(tag.tenant, latency, bytes, now);
            }
            self.delivered_packets_total += 1;
            self.delivered_bytes_total += bytes;
            if self.fault.is_some() {
                self.fstats.delivered += 1;
                let fd = self.packets[pi].first_drop_ps;
                if fd != u64::MAX {
                    // The packet was dropped at least once and still made it
                    // home: its recovery time is first-drop → delivery.
                    let rec = now.saturating_sub(fd);
                    self.fstats.recovered += 1;
                    self.fstats.total_recovery_ps += rec;
                    self.fstats.max_recovery_ps = self.fstats.max_recovery_ps.max(rec);
                }
            }
            let (via_link, via_vc) = (self.packets[pi].via_link, self.packets[pi].via_vc);
            if via_link != u32::MAX {
                self.send_credit(via_link, via_vc, now + self.lookahead);
            }
            let msg_id = self.packets[pi].msg_id;
            let msg_total = self.packets[pi].msg_total;
            let first = self.packets[pi].msg_first_inject;
            let entry = self
                .msgs
                .entry(msg_id)
                .or_insert(MsgEntry { left: msg_total });
            entry.left -= 1;
            if entry.left == 0 {
                self.msgs.remove(&msg_id);
                if self.stats.is_measured(first) {
                    self.stats
                        .record_message(now.saturating_sub(first.min(now)));
                }
                if tag.tenant != u32::MAX {
                    if self.stats.is_measured(first) {
                        self.stats.record_tenant_message(tag.tenant);
                    }
                    if tag.is_collective() {
                        // Release handled by the driving closure (it owns the
                        // collective trackers): queue the completed tag. The
                        // destination rank's endpoint lives on this shard, so
                        // the release — and the sends it fires — stay local.
                        self.stats
                            .record_tenant_collective_delivery(tag.tenant, now);
                        self.jobs_completed.push((tag, now));
                    }
                }
            }
            self.phase_end = self.phase_end.max(now);
            self.free.push(pi);
            return;
        }
        if let Some(fr) = self.fault.as_deref() {
            let reason = if self.packets[pi].hops >= fr.ttl {
                Some(DropReason::TtlExceeded)
            } else if !fr.reachable(router, target) {
                // No alive path can exist — drop now instead of wandering.
                Some(DropReason::NoRoute)
            } else {
                None
            };
            if let Some(reason) = reason {
                self.drop_resident(pi, router, now, reason);
                return;
            }
        }
        let port = self.route_forward(pi, router);
        let link = {
            let pristine = self.net.link_id(router, port);
            match self.fault.as_deref() {
                // Liveness-aware port mask: the immutable oracle's choice is
                // kept whenever its link is up; only a dead choice falls back
                // to the best alive port (greedy on static distance, RNG-free
                // so the per-decision counter streams are not perturbed).
                Some(fr) if fr.link_dead(pristine) => {
                    let (via, hops, attempts) = {
                        let p = &self.packets[pi];
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
            self.drop_resident(pi, router, now, DropReason::NoRoute);
            return;
        };
        let was_empty = self.link_qlen[link] == 0;
        self.link_push(link, pi);
        if was_empty {
            let t = now.max(self.link_free_at[link]);
            self.push(
                t,
                key(CLASS_TRY_TRANSMIT, link as u64),
                PKind::TryTransmit { link: link as u32 },
            );
        }
    }

    /// Drop a packet that is resident in `router`'s input buffer: release the
    /// buffer slot, return the credit the packet still holds for the link it
    /// arrived on, then route the drop through the retransmission path. (The
    /// caller runs `admit_pending` after `enter_router` returns, exactly as on
    /// the delivery path.)
    fn drop_resident(&mut self, pi: usize, router: VertexId, now: u64, reason: DropReason) {
        let vc = (self.packets[pi].hops as usize).min(self.nv - 1);
        self.occ_dec(router, router as usize * self.nv + vc);
        let (via_link, via_vc) = (self.packets[pi].via_link, self.packets[pi].via_vc);
        if via_link != u32::MAX {
            self.send_credit(via_link, via_vc, now + self.lookahead);
        }
        self.drop_packet(pi, now, reason);
    }

    /// Apply fault-timeline entry `idx`: flip this shard's liveness masks
    /// (every shard applies every entry, so the masks stay identical
    /// everywhere), flush the queues of owned links that just died, evict
    /// injections pending at owned routers that just died, and chain the next
    /// timeline entry.
    fn apply_fault(&mut self, idx: usize, now: u64) {
        let mut fr = self
            .fault
            .take()
            .expect("fault event without fault runtime");
        self.fstats.fault_events += 1;
        let ev = fr.timeline.events[idx];
        let reason = match ev.kind {
            FaultEventKind::RouterDown { .. } => DropReason::RouterDown,
            _ => DropReason::LinkDown,
        };
        let newly_dead = fr.apply(self.net, &ev, now);
        if idx + 1 < fr.timeline.events.len() {
            let t = fr.timeline.events[idx + 1].time_ps;
            self.push(
                t,
                key(CLASS_FAULT, idx as u64 + 1),
                PKind::Fault {
                    idx: idx as u32 + 1,
                },
            );
        }
        self.fault = Some(fr);
        for link in newly_dead {
            // Only the owner shard holds queue/park state for a link; other
            // shards took the same mask flip and have nothing to flush.
            if self.owner[self.net.link_owner(link).0 as usize] as usize == self.sid {
                self.flush_dead_link(link, now, reason);
            }
        }
        if let FaultEventKind::RouterDown { r } = ev.kind {
            if self.owner[r as usize] as usize == self.sid {
                while let Some(pi) = self.pending_inject[r as usize].pop_front() {
                    self.pending_len[r as usize] -= 1;
                    self.drop_packet(pi, now, DropReason::RouterDown);
                }
            }
        }
    }

    /// Drop every packet queued on a dead directed link, releasing its
    /// upstream buffer slot and returning the credit it still holds for the
    /// link it arrived on, and un-park the link itself (a parked dead link
    /// would eat the next credit wakeup for nothing).
    fn flush_dead_link(&mut self, link: usize, now: u64, reason: DropReason) {
        let (src_router, _port) = self.net.link_owner(link);
        if self.link_parked[link] {
            self.link_parked[link] = false;
            self.waiting_vc[link] = u8::MAX;
            self.parked_count -= 1;
        }
        while let Some(pi) = self.link_pop(link) {
            let vc = (self.packets[pi].hops as usize).min(self.nv - 1);
            self.occ_dec(src_router, src_router as usize * self.nv + vc);
            if vc == 0 {
                self.admit_pending(src_router, now);
            }
            let (via_link, via_vc) = (self.packets[pi].via_link, self.packets[pi].via_vc);
            if via_link != u32::MAX {
                self.send_credit(via_link, via_vc, now + self.lookahead);
            }
            self.drop_packet(pi, now, reason);
        }
    }

    /// A packet just lost its current traversal: count the typed drop, then
    /// either reschedule it from its source NIC (capped exponential backoff,
    /// possibly on another shard) or retire it into the `Failed` terminal
    /// state. The caller has already released whatever buffer slot and held
    /// credit the packet occupied.
    fn drop_packet(&mut self, pi: usize, now: u64, reason: DropReason) {
        match reason {
            DropReason::LinkDown => self.fstats.dropped_link_down += 1,
            DropReason::RouterDown => self.fstats.dropped_router_down += 1,
            DropReason::NoRoute => self.fstats.dropped_no_route += 1,
            DropReason::TtlExceeded => self.fstats.dropped_ttl += 1,
        }
        let attempts = {
            let p = &mut self.packets[pi];
            if p.first_drop_ps == u64::MAX {
                p.first_drop_ps = now;
            }
            p.via_link = u32::MAX;
            p.via_vc = 0;
            p.attempts
        };
        if attempts < self.cfg.retransmit_budget {
            let attempt = attempts + 1;
            {
                let p = &mut self.packets[pi];
                p.attempts = attempt;
                p.hops = 0;
                p.routing = RoutingState::default();
            }
            self.fstats.retransmits += 1;
            let t = now + self.cfg.retransmit_backoff_ps(attempt);
            self.send_retransmit(t, pi);
        } else {
            // Terminal failure: the destination shard's `MsgEntry` countdown
            // simply never reaches zero, so the damaged message is never
            // recorded as completed.
            self.fstats.failed += 1;
            self.free.push(pi);
        }
    }

    /// Routing decision via the shared [`Router`] behind an epoch-consistent
    /// congestion snapshot and a per-decision counter RNG.
    fn route_forward(&mut self, pi: usize, router: VertexId) -> usize {
        let mut state = std::mem::take(&mut self.packets[pi].routing);
        let dst = self.packets[pi].dst_router;
        let hops = self.packets[pi].hops;
        let mut rng = DecisionRng::new(self.cfg.seed, self.packets[pi].stable_id, hops);
        let mut ctx = RoutingCtx::new(
            self.net,
            &self.link_qlen,
            &self.occ_view,
            &self.rocc_view,
            &self.link_parked,
            self.nv,
            self.cfg.ugal_threshold,
            router,
            dst,
            hops,
            &mut rng,
            &mut self.route_scratch,
        );
        let port = self.algo.route(&mut ctx, &mut state);
        // Hard assert, as in the sequential engine: Router is a third-party
        // extension point.
        assert!(
            port < self.net.graph().degree(router),
            "router {} returned out-of-range port {port} at router {router}",
            self.algo.name()
        );
        self.packets[pi].routing = state;
        port
    }

    fn admit_pending(&mut self, router: VertexId, now: u64) {
        if self.pending_len[router as usize] == 0 {
            return;
        }
        let slot = router as usize * self.nv;
        if self.occupancy[slot] < self.cap {
            if let Some(wpkt) = self.pending_inject[router as usize].pop_front() {
                self.pending_len[router as usize] -= 1;
                let k = key(CLASS_INJECT, self.packets[wpkt].stable_id);
                self.push(
                    now,
                    k,
                    PKind::Inject {
                        packet: wpkt as u32,
                    },
                );
            }
        }
    }

    /// Arm steady-state sampling: one local partial every `ivm` ps up to and
    /// including `deadline` (every shard records the same tick timestamps, so
    /// the main-thread merge aligns partials by tick index).
    fn arm_sampler(&mut self, ivm: u64, deadline: u64) {
        self.tick_ivm = ivm.max(1);
        self.tick_deadline = deadline;
        self.next_tick = 1;
    }

    /// Record every pending sampling tick with timestamp ≤ `min(upto,
    /// deadline)`. Called before handling each event (with the event's time)
    /// and once after the loop ends (with the deadline).
    ///
    /// Equivalence with the old replicated `Sample` queue events: a shard
    /// processes its events in nondecreasing time order (the conservative
    /// epoch bound guarantees cross-shard arrivals never travel backwards in
    /// time), and a tick event carried class 0 — at its timestamp it popped
    /// *before* every co-timed event. Flushing all ticks ≤ `ev.time` before
    /// handling `ev` therefore interleaves ticks with state changes at exactly
    /// the positions the queue gave them; ticks between two events (or after
    /// the last one) see unchanged state either way, so the recorded partials
    /// are identical — without n_shards × n_ticks queue traffic.
    #[inline]
    fn flush_sample_ticks(&mut self, upto: u64) {
        if self.tick_ivm == 0 {
            return;
        }
        let upto = upto.min(self.tick_deadline);
        while self.next_tick * self.tick_ivm <= upto {
            self.record_raw_sample(self.next_tick * self.tick_ivm);
            self.next_tick += 1;
        }
    }

    /// Record one steady-state tick's local partial (merged by tick index on
    /// the main thread).
    fn record_raw_sample(&mut self, now: u64) {
        let queued: u64 = self
            .my_links
            .iter()
            .map(|&l| self.link_qlen[l] as u64)
            .sum();
        self.raw_samples.push(RawSample {
            t_ps: now,
            bytes: self.delivered_bytes_total - self.sampled_bytes,
            packets: self.delivered_packets_total - self.sampled_packets,
            queued,
            parked: self.parked_count,
        });
        self.sampled_bytes = self.delivered_bytes_total;
        self.sampled_packets = self.delivered_packets_total;
    }

    fn into_outcome(self) -> ShardOutcome {
        ShardOutcome {
            delivered_packets: self.delivered_packets_total,
            phase_end: self.phase_end,
            in_queues: self.link_queue.iter().map(|q| q.len()).sum(),
            pending: self.pending_inject.iter().map(|q| q.len()).sum(),
            occ_sum: self.occupancy.iter().sum(),
            parked: self.parked_count,
            stats: self.stats,
            counters: self.counters,
            samples: self.raw_samples,
            fstats: self.fstats,
        }
    }
}

/// The conservative epoch loop: publish → reduce `m` → snapshot → process
/// `< min(m + E, deadline + 1)` → exchange. `handle` dispatches one event
/// (the steady driver intercepts `Sample` / `NextMessage` here).
fn run_epochs<'a, F>(
    core: &mut ShardCore<'a>,
    shared: &EpochShared,
    deadline: Option<u64>,
    mut handle: F,
) where
    F: FnMut(&mut ShardCore<'a>, PEvent),
{
    loop {
        let nt = core.queue.next_time().unwrap_or(u64::MAX);
        shared.next_times[core.sid].store(nt, Ordering::Relaxed);
        shared.barrier.wait(); // barrier 1: all next-times published
        let m = shared
            .next_times
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .min()
            .expect("at least one shard");
        // Every shard computes the same `m`, so every shard breaks together.
        if m == u64::MAX {
            break;
        }
        if let Some(d) = deadline {
            if m > d {
                break;
            }
        }
        {
            let mut board = shared.board.lock().unwrap_or_else(|e| e.into_inner());
            for &r in &core.my_routers {
                let r = r as usize;
                board.router_occ[r] = core.router_occ[r];
                board.occupancy[r * core.nv..(r + 1) * core.nv]
                    .copy_from_slice(&core.occupancy[r * core.nv..(r + 1) * core.nv]);
            }
        }
        shared.barrier.wait(); // barrier 2: board complete for this epoch
        {
            let board = shared.board.lock().unwrap_or_else(|e| e.into_inner());
            core.occ_view.copy_from_slice(&board.occupancy);
            core.rocc_view.copy_from_slice(&board.router_occ);
        }
        let mut limit = m.saturating_add(core.lookahead);
        if let Some(d) = deadline {
            // Cap at the drain deadline so over-deadline events are never
            // popped — the sequential loop's break-before-count, exactly.
            limit = limit.min(d.saturating_add(1));
        }
        while let Some(ev) = core.queue.pop_before(limit) {
            core.counters.events += 1;
            handle(core, ev);
        }
        for dest in 0..core.out.len() {
            if dest == core.sid || core.out[dest].is_empty() {
                continue;
            }
            let mut outbox = std::mem::take(&mut core.out[dest]);
            shared.inboxes[dest]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(&mut outbox);
            core.out[dest] = outbox; // keep the allocation
        }
        shared.barrier.wait(); // barrier 3: all handoffs delivered
        let msgs = std::mem::take(
            &mut *shared.inboxes[core.sid]
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for msg in msgs {
            core.deliver_msg(msg);
        }
    }
}

/// Join all shard threads, preferring a root-cause panic payload over the
/// "barrier poisoned" cascade the siblings die with.
fn join_shards<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    fn is_poison(p: &(dyn std::any::Any + Send)) -> bool {
        let text = p
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| p.downcast_ref::<&str>().copied());
        text.is_some_and(|s| s.contains("barrier poisoned"))
    }
    let mut outs = Vec::with_capacity(handles.len());
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for h in handles {
        match h.join() {
            Ok(v) => outs.push(v),
            Err(p) => match &first_panic {
                None => first_panic = Some(p),
                Some(existing) if is_poison(existing.as_ref()) && !is_poison(p.as_ref()) => {
                    first_panic = Some(p)
                }
                _ => {}
            },
        }
    }
    if let Some(p) = first_panic {
        std::panic::resume_unwind(p);
    }
    outs
}

/// A continuous Poisson source owned by one shard (steady-state mode), with
/// its own deterministic RNG stream keyed by `(seed, endpoint)`.
struct PSource {
    endpoint: usize,
    templates: Vec<(usize, u64)>,
    next_template: usize,
    nic_free_ps: u64,
    rng: StdRng,
    msg_counter: u64,
    pkt_counter: u64,
}

fn source_rng(seed: u64, endpoint: usize) -> StdRng {
    StdRng::seed_from_u64(mix64(seed).wrapping_add(mix64(endpoint as u64 ^ 0x005E_ED50_17CE)))
}

fn exp_gap(cfg: &SimConfig, bytes: u64, load: f64, rng: &mut StdRng) -> u64 {
    let ser = cfg.injection_serialization_ps(bytes) as f64;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * ser / load) as u64
}

/// Generate one message from a shard-local source: pattern draw (if any),
/// then gap draw, both from the source's own stream — the fixed per-source
/// draw order that makes steady-state runs shard-count-invariant.
#[allow(clippy::too_many_arguments)]
fn spawn_message(
    core: &mut ShardCore<'_>,
    sources: &mut [PSource],
    si: usize,
    now: u64,
    load: f64,
    w: &MeasurementWindows,
    pattern: Option<&dyn crate::pattern::TrafficPattern>,
    alive: Option<&AliveEndpoints>,
) {
    let net = core.net;
    let cfg = core.cfg;
    let src = &mut sources[si];
    let (mut dst, bytes) = src.templates[src.next_template % src.templates.len()];
    src.next_template += 1;
    if let Some(p) = pattern {
        let src_rank = match alive {
            None => src.endpoint,
            Some(m) => m.rank[src.endpoint] as usize,
        };
        let drawn = p.dst(src_rank, &mut src.rng);
        let endpoint_space = alive.map(|m| m.alive.len()).unwrap_or(net.num_endpoints());
        assert!(
            drawn < endpoint_space,
            "pattern {} returned out-of-range destination {drawn} (pattern space has {} endpoints)",
            p.name(),
            endpoint_space
        );
        dst = match alive {
            None => drawn,
            Some(m) => m.alive[drawn],
        };
    }
    let segments = segment_message(cfg, bytes);
    let mut t = now.max(src.nic_free_ps);
    let first = t;
    let msg_id = ((src.endpoint as u64) << 40) | src.msg_counter;
    src.msg_counter += 1;
    let src_router = net.router_of_endpoint(src.endpoint);
    let dst_router = net.router_of_endpoint(dst);
    let total = segments.len() as u32;
    let endpoint = src.endpoint;
    for (pkt_bytes, nic_ser) in segments {
        let stable_id = ((endpoint as u64) << 40) | sources[si].pkt_counter;
        sources[si].pkt_counter += 1;
        let packet = ParPacket {
            src_router,
            dst_router,
            bytes: pkt_bytes,
            inject_time_ps: t,
            hops: 0,
            routing: RoutingState::default(),
            stable_id,
            msg_id,
            msg_total: total,
            msg_first_inject: first,
            via_link: u32::MAX,
            via_vc: 0,
            attempts: 0,
            first_drop_ps: u64::MAX,
            tag: MsgTag::open_loop(u32::MAX, 0),
        };
        let slot = core.alloc_packet(packet);
        if core.fault.is_some() {
            core.fstats.injected += 1;
        }
        core.stats.note_injection(t);
        core.push(
            t,
            key(CLASS_INJECT, stable_id),
            PKind::Inject {
                packet: slot as u32,
            },
        );
        t += nic_ser;
    }
    sources[si].nic_free_ps = t;
    let next = now + exp_gap(cfg, bytes, load, &mut sources[si].rng);
    if next < w.measure_end_ps() {
        core.push(
            next,
            key(CLASS_NEXT_MESSAGE, endpoint as u64),
            PKind::NextMessage { source: si as u32 },
        );
    }
}

/// One owned open-loop job rank (jobs mode): the rank's pattern / rate RNG
/// stream is keyed by `(seed, endpoint)` via [`job::source_rng`] — the same
/// stream the sequential engine's jobs sources draw from, so open-loop
/// injection schedules are engine- and shard-count-invariant.
struct JPSource {
    endpoint: usize,
    tenant: u32,
    rank: u32,
    bytes: u64,
    ser_ps: u64,
    rate: job::RateProcess,
    rt: RateRuntime,
    rng: StdRng,
}

/// Per-endpoint id counters and NIC cursors for jobs-mode injections. Ids are
/// `(endpoint << 40) | counter` — the same endpoint-unique scheme as
/// [`PSource`], and an endpoint's injections happen in a deterministic local
/// order (open-loop arrivals and collective releases are both driven by the
/// owning shard's `(time, key)` event order), so ids are shard-count-invariant.
struct JobNics {
    nic_free: Vec<u64>,
    msg_counter: Vec<u64>,
    pkt_counter: Vec<u64>,
}

impl JobNics {
    fn new(num_endpoints: usize) -> Self {
        JobNics {
            nic_free: vec![0; num_endpoints],
            msg_counter: vec![0; num_endpoints],
            pkt_counter: vec![0; num_endpoints],
        }
    }
}

/// Inject one tagged jobs-mode message from `src_ep` to `dst_ep` on the shard
/// owning `src_ep`'s router, serializing its packets through the endpoint's
/// NIC exactly like [`spawn_message`] does for workload sources.
fn inject_job_message_par(
    core: &mut ShardCore<'_>,
    nics: &mut JobNics,
    now: u64,
    src_ep: usize,
    dst_ep: usize,
    bytes: u64,
    tag: MsgTag,
) {
    let net = core.net;
    let segments = segment_message(core.cfg, bytes);
    let mut t = now.max(nics.nic_free[src_ep]);
    let first = t;
    let msg_id = ((src_ep as u64) << 40) | nics.msg_counter[src_ep];
    nics.msg_counter[src_ep] += 1;
    let src_router = net.router_of_endpoint(src_ep);
    let dst_router = net.router_of_endpoint(dst_ep);
    let total = segments.len() as u32;
    core.stats.note_tenant_injection(tag.tenant, bytes, t);
    for (pkt_bytes, nic_ser) in segments {
        let stable_id = ((src_ep as u64) << 40) | nics.pkt_counter[src_ep];
        nics.pkt_counter[src_ep] += 1;
        let packet = ParPacket {
            src_router,
            dst_router,
            bytes: pkt_bytes,
            inject_time_ps: t,
            hops: 0,
            routing: RoutingState::default(),
            stable_id,
            msg_id,
            msg_total: total,
            msg_first_inject: first,
            via_link: u32::MAX,
            via_vc: 0,
            attempts: 0,
            first_drop_ps: u64::MAX,
            tag,
        };
        let slot = core.alloc_packet(packet);
        if core.fault.is_some() {
            core.fstats.injected += 1;
        }
        core.stats.note_injection(t);
        core.push(
            t,
            key(CLASS_INJECT, stable_id),
            PKind::Inject {
                packet: slot as u32,
            },
        );
        t += nic_ser;
    }
    nics.nic_free[src_ep] = t;
}

/// Fire collective group `g` of the tracker at `collectives[ci]` at time
/// `now`: inject its sends and cascade through any same-rank follow-up groups
/// the firing itself unblocks. Mirrors the sequential engine's
/// `fire_collective_from` — every group fired here belongs to a rank this
/// shard owns, so every send originates from an owned endpoint.
fn fire_collective_par(
    core: &mut ShardCore<'_>,
    plan: &MixPlan,
    collectives: &mut [(u32, CollectiveState)],
    nics: &mut JobNics,
    ci: usize,
    g: usize,
    now: u64,
) {
    let (ti, cs) = &mut collectives[ci];
    let tenant = &plan.tenants[*ti as usize];
    let rounds = cs.schedule().rounds;
    let mut ready = vec![g];
    while let Some(g) = ready.pop() {
        let (sends, next) = cs.fire(g);
        let round = (g % rounds) as u32;
        let src_ep = tenant.endpoints[g / rounds];
        for (dst_rank, bytes) in sends {
            let dst_ep = tenant.endpoints[dst_rank as usize];
            inject_job_message_par(
                core,
                nics,
                now,
                src_ep,
                dst_ep,
                bytes,
                MsgTag {
                    tenant: *ti,
                    dst_rank,
                    round,
                },
            );
        }
        if let Some(n) = next {
            ready.push(n);
        }
    }
}

/// One open-loop jobs-mode arrival on the owning shard: draw the destination
/// rank from the tenant's pattern, inject the message, and schedule the
/// source's next arrival from its rate process. The twin of the sequential
/// engine's `spawn_job_message` — identical draw order on the identical
/// per-endpoint stream.
#[allow(clippy::too_many_arguments)]
fn spawn_job_message_par(
    core: &mut ShardCore<'_>,
    plan: &MixPlan,
    jsources: &mut [JPSource],
    nics: &mut JobNics,
    si: usize,
    now: u64,
    load_scale: f64,
    w: &MeasurementWindows,
) {
    let s = &mut jsources[si];
    let tenant = &plan.tenants[s.tenant as usize];
    let JobBehavior::OpenLoop(spec) = &tenant.behavior else {
        unreachable!("open-loop source on a collective tenant")
    };
    let drawn = spec.pattern.dst(s.rank as usize, &mut s.rng);
    assert!(
        drawn < tenant.endpoints.len(),
        "pattern {} returned out-of-range destination {drawn} (tenant has {} ranks)",
        spec.pattern.name(),
        tenant.endpoints.len()
    );
    let dst_ep = tenant.endpoints[drawn];
    let endpoint = s.endpoint;
    let tag = MsgTag::open_loop(s.tenant, drawn as u32);
    let bytes = s.bytes;
    inject_job_message_par(core, nics, now, endpoint, dst_ep, bytes, tag);
    let s = &mut jsources[si];
    let next = s
        .rate
        .next_arrival_ps(&mut s.rt, now, s.ser_ps, load_scale, &mut s.rng);
    if next < w.measure_end_ps() {
        core.push(
            next,
            key(CLASS_NEXT_MESSAGE, endpoint as u64),
            PKind::NextMessage { source: si as u32 },
        );
    }
}

/// The sharded conservative parallel simulator.
///
/// Drop-in counterpart to [`crate::Simulator`] driven by
/// [`crate::SimConfig::shards`]: routers are assigned to worker shards by a
/// recursive spectral bisection of the topology
/// ([`spectralfly_graph::partition_kway`] — minimizing the links crossing
/// shards minimizes cross-shard traffic), and the shards co-simulate under the
/// conservative epoch protocol described in the
/// [module documentation](self).
///
/// Results are **shard-count-invariant**: for a given network, config, and
/// workload, every shard count produces the identical [`SimResults`] —
/// including the steady-state [`IntervalSample`] series, whose per-shard
/// partials are folded by tick index on the main thread (engine counters
/// excepted: arena high-water marks depend on the partition). The
/// flow-control model is an input-queued
/// variant of the sequential engine's (see the module docs), so uncongested
/// runs also match [`crate::Simulator`] exactly.
pub struct ParallelSimulator<'a> {
    net: &'a SimNetwork,
    cfg: &'a SimConfig,
    /// The routing algorithm, or why no run can start (see
    /// [`super::resolve_router`]).
    router: Result<Box<dyn Router>, SimError>,
    shards: usize,
    owner: Vec<u32>,
    lookahead: u64,
}

impl<'a> ParallelSimulator<'a> {
    /// Create a parallel simulator over a network with a configuration,
    /// running [`SimConfig::shards`] worker shards.
    ///
    /// An unregistered `cfg.routing` or a `cfg.faults` plan the network was
    /// not built with is reported by the first `try_*` call, exactly as on
    /// [`crate::Simulator::new`].
    ///
    /// # Panics
    /// If the configured link + router latency is zero (the conservative
    /// lookahead would vanish), or if `cfg.shards` is zero.
    pub fn new(net: &'a SimNetwork, cfg: &'a SimConfig) -> Self {
        assert!(cfg.num_vcs >= 1, "need at least one virtual channel");
        assert!(
            cfg.buffer_packets_per_vc >= 1,
            "need at least one buffer slot per VC"
        );
        assert!(cfg.shards >= 1, "shard count must be at least 1");
        let lookahead = cfg.link_latency_ps() + cfg.router_latency_ps();
        assert!(
            lookahead > 0,
            "parallel engine needs positive link + router latency for conservative lookahead"
        );
        let shards = cfg.shards;
        let owner = partition_kway(
            net.graph(),
            shards,
            &BisectConfig::default(),
            PARTITION_SEED,
        );
        ParallelSimulator {
            net,
            cfg,
            router: super::resolve_router(net, cfg),
            shards,
            owner,
            lookahead,
        }
    }

    /// The routing algorithm, or the construction-time rejection every
    /// `try_*` entry point returns before doing anything else.
    fn router(&self) -> Result<&dyn Router, SimError> {
        self.router.as_deref().map_err(SimError::clone)
    }

    /// The router→shard assignment in use (length [`SimNetwork::num_routers`]).
    pub fn shard_assignment(&self) -> &[u32] {
        &self.owner
    }

    /// Run the workload with injections spaced exactly as the workload
    /// specifies. Semantics match [`crate::Simulator::run`].
    ///
    /// # Panics
    /// On a degraded network, if the workload is infeasible on the surviving
    /// graph, or on a detected buffer deadlock — use
    /// [`ParallelSimulator::try_run`] instead.
    pub fn run(&self, workload: &Workload) -> SimResults {
        self.try_run(workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ParallelSimulator::run`], returning infeasible-workload and deadlock
    /// conditions as typed errors (see [`crate::Simulator::try_run`]).
    pub fn try_run(&self, workload: &Workload) -> Result<SimResults, SimError> {
        self.router()?;
        assert!(
            self.cfg.jobs.is_none(),
            "SimConfig::jobs requires steady-state measurement windows (SimConfig::with_windows)"
        );
        if self.net.has_faults() {
            crate::fault::validate_workload(self.net, workload)?;
        }
        self.run_finite(workload, None)
    }

    /// Run with Poisson-spaced injections at an offered load in `(0, 1]`.
    /// Semantics match [`crate::Simulator::run_with_offered_load`], including
    /// the switch to steady-state measurement under [`SimConfig::windows`].
    ///
    /// # Panics
    /// On a degraded network, if the run is infeasible on the surviving graph
    /// — use [`ParallelSimulator::try_run_with_offered_load`] instead.
    pub fn run_with_offered_load(&self, workload: &Workload, offered_load: f64) -> SimResults {
        self.try_run_with_offered_load(workload, offered_load)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ParallelSimulator::run_with_offered_load`], returning
    /// infeasible-run and deadlock conditions as typed errors (see
    /// [`crate::Simulator::try_run_with_offered_load`]).
    pub fn try_run_with_offered_load(
        &self,
        workload: &Workload,
        offered_load: f64,
    ) -> Result<SimResults, SimError> {
        self.router()?;
        super::check_offered_load(offered_load)?;
        match &self.cfg.windows {
            None => {
                assert!(
                    self.cfg.jobs.is_none(),
                    "SimConfig::jobs requires steady-state measurement windows \
                     (SimConfig::with_windows)"
                );
                if self.net.has_faults() {
                    crate::fault::validate_workload(self.net, workload)?;
                }
                self.run_finite(workload, Some(offered_load))
            }
            Some(w) => {
                if self.cfg.jobs.is_some() {
                    if self.net.has_faults() {
                        crate::fault::validate_steady_pattern(self.net)?;
                    }
                    return self.run_steady_jobs(offered_load, w);
                }
                if self.net.has_faults() {
                    if w.pattern.is_some() {
                        crate::fault::validate_steady_pattern(self.net)?;
                    } else {
                        crate::fault::validate_workload(self.net, workload)?;
                    }
                }
                self.run_steady(workload, offered_load, w)
            }
        }
    }

    /// Expand the configured fault script against the topology, or `None`
    /// when no script is configured — the exact twin of
    /// [`crate::Simulator`]'s expansion, so both engines schedule the same
    /// timeline.
    fn fault_timeline(&self, horizon_ps: u64) -> Result<Option<Arc<FaultTimeline>>, SimError> {
        if self.cfg.fault_script.is_none() {
            return Ok(None);
        }
        let tl = self.cfg.fault_script.expand(self.net.graph(), horizon_ps)?;
        Ok(Some(Arc::new(tl)))
    }

    /// Finite drain-to-empty run: one epoch-synchronized co-simulation per
    /// phase. Packetization happens on the main thread with the same global
    /// RNG stream as the sequential engine, so injection schedules are
    /// byte-identical to [`crate::Simulator`]'s.
    fn run_finite(
        &self,
        workload: &Workload,
        offered_load: Option<f64>,
    ) -> Result<SimResults, SimError> {
        let router = self.router()?;
        if let Some(max_ep) = workload.max_endpoint() {
            assert!(
                max_ep < self.net.num_endpoints(),
                "workload references endpoint {max_ep} but the network has only {}",
                self.net.num_endpoints()
            );
        }
        let timeline = self.fault_timeline(self.cfg.fault_horizon_ps())?;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut stats = StatsCollector::default();
        let mut faults = FaultStats::default();
        let mut phase_start: u64 = 0;

        for (phase_idx, phase) in workload.phases.iter().enumerate() {
            if phase.messages.is_empty() {
                continue;
            }
            let sched = packetize_phase(
                self.net,
                self.cfg,
                phase,
                phase_start,
                offered_load,
                &mut rng,
            );
            let total = sched.packets.len() as u64;
            let mut shard_pkts: Vec<Vec<ParPacket>> = vec![Vec::new(); self.shards];
            for (i, p) in sched.packets.iter().enumerate() {
                shard_pkts[self.owner[p.src_router as usize] as usize].push(ParPacket {
                    src_router: p.src_router,
                    dst_router: p.dst_router,
                    bytes: p.bytes,
                    inject_time_ps: p.inject_time_ps,
                    hops: 0,
                    routing: p.routing.clone(),
                    stable_id: ((phase_idx as u64) << 40) | i as u64,
                    msg_id: p.msg as u64,
                    msg_total: sched.msg_packets_left[p.msg],
                    msg_first_inject: sched.msg_first_inject[p.msg],
                    via_link: u32::MAX,
                    via_vc: 0,
                    attempts: 0,
                    first_drop_ps: u64::MAX,
                    tag: MsgTag::open_loop(u32::MAX, 0),
                });
            }

            let shared = EpochShared::new(self.shards, self.net, self.cfg);
            let outs: Vec<ShardOutcome> = std::thread::scope(|scope| {
                let handles: Vec<_> = shard_pkts
                    .into_iter()
                    .enumerate()
                    .map(|(sid, pkts)| {
                        let shared = &shared;
                        let timeline = &timeline;
                        scope.spawn(move || {
                            let _guard = PoisonGuard(&shared.barrier);
                            let mut core = ShardCore::new(
                                sid,
                                self.shards,
                                self.net,
                                self.cfg,
                                router,
                                &self.owner,
                                self.lookahead,
                                StatsCollector::default(),
                                phase_start,
                            );
                            if let Some(tl) = timeline {
                                // Each phase gets a fresh liveness view
                                // fast-forwarded to the phase boundary (mask
                                // flips only — no packets exist yet), then
                                // chains live fault events from the first
                                // entry still ahead. Every shard runs the
                                // identical chain.
                                let mut fr = Box::new(FaultRuntime::new(self.net, Arc::clone(tl)));
                                let idx = fr.fast_forward(self.net, phase_start);
                                if idx < tl.events.len() {
                                    core.push(
                                        tl.events[idx].time_ps,
                                        key(CLASS_FAULT, idx as u64),
                                        PKind::Fault { idx: idx as u32 },
                                    );
                                }
                                core.fault = Some(fr);
                            }
                            for p in pkts {
                                let t = p.inject_time_ps;
                                let k = key(CLASS_INJECT, p.stable_id);
                                let slot = core.alloc_packet(p);
                                if core.fault.is_some() {
                                    core.fstats.injected += 1;
                                }
                                core.push(
                                    t,
                                    k,
                                    PKind::Inject {
                                        packet: slot as u32,
                                    },
                                );
                            }
                            run_epochs(&mut core, shared, None, |c, ev| c.handle_core(ev));
                            core.into_outcome()
                        })
                    })
                    .collect();
                join_shards(handles)
            });

            let delivered: u64 = outs.iter().map(|o| o.delivered_packets).sum();
            let failed: u64 = outs.iter().map(|o| o.fstats.failed).sum();
            if delivered + failed < total {
                let undelivered = total - delivered - failed;
                let in_queues: usize = outs.iter().map(|o| o.in_queues).sum();
                let pending: usize = outs.iter().map(|o| o.pending).sum();
                let occ: u32 = outs.iter().map(|o| o.occ_sum).sum();
                let parked: usize = outs.iter().map(|o| o.parked).sum();
                if parked > 0 {
                    return Err(SimError::Deadlock {
                        diagnosis: format!(
                            "simulation deadlocked with {undelivered} undelivered packets and \
                             {parked} links parked in a cyclic head-of-line wait (link queues: \
                             {in_queues}, pending injections: {pending}, occupancy sum: {occ}); \
                             single-FIFO link queues can deadlock across virtual channels when \
                             buffer_packets_per_vc is very small — increase it"
                        ),
                    });
                }
                panic!(
                    "simulation ended with {undelivered} undelivered packets \
                     (link queues: {in_queues}, pending injections: {pending}, \
                     occupancy sum: {occ}) — engine invariant violated"
                );
            }
            for o in outs {
                phase_start = phase_start.max(o.phase_end);
                stats.record_engine(&o.counters);
                faults.merge(&o.fstats);
                stats.absorb(o.stats);
            }
        }
        let mut results = stats.finish();
        results.faults = faults;
        Ok(results)
    }

    /// Steady-state run: shard-owned continuous Poisson sources, windowed
    /// measurement, per-shard sample partials folded by tick index.
    fn run_steady(
        &self,
        workload: &Workload,
        offered_load: f64,
        w: &MeasurementWindows,
    ) -> Result<SimResults, SimError> {
        let router = self.router()?;
        if let Some(max_ep) = workload.max_endpoint() {
            assert!(
                max_ep < self.net.num_endpoints(),
                "workload references endpoint {max_ep} but the network has only {}",
                self.net.num_endpoints()
            );
        }
        let timeline = self.fault_timeline(w.deadline_ps())?;
        let alive_map: Option<AliveEndpoints> =
            (self.net.has_faults() && w.pattern.is_some()).then(|| AliveEndpoints::new(self.net));
        let pattern_endpoints = alive_map
            .as_ref()
            .map(|m| m.alive.len())
            .unwrap_or(self.net.num_endpoints());
        let pattern = w
            .pattern
            .as_deref()
            .map(|spec| {
                crate::pattern::create(spec, &crate::pattern::PatternCtx::new(pattern_endpoints))
            })
            .transpose()?;
        let mut stats = StatsCollector::with_window(w.measure_start_ps(), w.measure_end_ps());

        let mut templates: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.net.num_endpoints()];
        for phase in &workload.phases {
            for m in &phase.messages {
                templates[m.src].push((m.dst, m.bytes));
            }
        }

        let ivm = w.sample_interval_ps.max(1);
        let deadline = w.deadline_ps();
        let shared = EpochShared::new(self.shards, self.net, self.cfg);
        let outs: Vec<ShardOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards)
                .map(|sid| {
                    let shared = &shared;
                    let templates = &templates;
                    let pattern = pattern.as_deref();
                    let alive = alive_map.as_ref();
                    let timeline = &timeline;
                    scope.spawn(move || {
                        let _guard = PoisonGuard(&shared.barrier);
                        let mut core = ShardCore::new(
                            sid,
                            self.shards,
                            self.net,
                            self.cfg,
                            router,
                            &self.owner,
                            self.lookahead,
                            StatsCollector::with_window(w.measure_start_ps(), w.measure_end_ps()),
                            0,
                        );
                        if let Some(tl) = timeline {
                            let fr = Box::new(FaultRuntime::new(self.net, Arc::clone(tl)));
                            if !tl.events.is_empty() {
                                core.push(
                                    tl.events[0].time_ps,
                                    key(CLASS_FAULT, 0),
                                    PKind::Fault { idx: 0 },
                                );
                            }
                            core.fault = Some(fr);
                        }
                        let mut sources: Vec<PSource> = templates
                            .iter()
                            .enumerate()
                            .filter(|(e, t)| {
                                !t.is_empty()
                                    && alive.is_none_or(|m| m.rank[*e] != u32::MAX)
                                    && self.owner[self.net.router_of_endpoint(*e) as usize] as usize
                                        == sid
                            })
                            .map(|(endpoint, templates)| PSource {
                                endpoint,
                                templates: templates.clone(),
                                next_template: 0,
                                nic_free_ps: 0,
                                rng: source_rng(self.cfg.seed, endpoint),
                                msg_counter: 0,
                                pkt_counter: 0,
                            })
                            .collect();
                        for (si, src) in sources.iter_mut().enumerate() {
                            let first_bytes = src.templates[0].1;
                            let gap = exp_gap(self.cfg, first_bytes, offered_load, &mut src.rng);
                            if gap < w.measure_end_ps() {
                                core.push(
                                    gap,
                                    key(CLASS_NEXT_MESSAGE, src.endpoint as u64),
                                    PKind::NextMessage { source: si as u32 },
                                );
                            }
                        }
                        // Sampling is event-free: each shard folds its local
                        // partial whenever event time crosses a tick boundary
                        // (and below, after the loop, for the trailing ticks).
                        core.arm_sampler(ivm, deadline);
                        run_epochs(&mut core, shared, Some(deadline), |c, ev| {
                            c.flush_sample_ticks(ev.time);
                            match ev.kind {
                                PKind::NextMessage { source } => spawn_message(
                                    c,
                                    &mut sources,
                                    source as usize,
                                    ev.time,
                                    offered_load,
                                    w,
                                    pattern,
                                    alive,
                                ),
                                _ => c.handle_core(ev),
                            }
                        });
                        core.flush_sample_ticks(deadline);
                        core.into_outcome()
                    })
                })
                .collect();
            join_shards(handles)
        });

        let nticks = outs[0].samples.len();
        debug_assert!(
            outs.iter().all(|o| o.samples.len() == nticks),
            "shards disagree on the sampling tick count"
        );
        let links = self.net.num_directed_links().max(1);
        for k in 0..nticks {
            let t_ps = outs[0].samples[k].t_ps;
            let bytes: u64 = outs.iter().map(|o| o.samples[k].bytes).sum();
            let packets: u64 = outs.iter().map(|o| o.samples[k].packets).sum();
            let queued: u64 = outs.iter().map(|o| o.samples[k].queued).sum();
            let parked: usize = outs.iter().map(|o| o.samples[k].parked).sum();
            stats.record_sample(IntervalSample {
                t_ps,
                delivered_bytes: bytes,
                delivered_packets: packets,
                mean_queue_depth: queued as f64 / links as f64,
                blocked_links: parked,
            });
        }
        let mut faults = FaultStats::default();
        for o in outs {
            stats.record_engine(&o.counters);
            faults.merge(&o.fstats);
            stats.absorb(o.stats);
        }
        let mut results = stats.finish();
        results.faults = faults;
        Ok(results)
    }

    /// Steady-state multi-tenant jobs run ([`SimConfig::jobs`]): the parallel
    /// twin of the sequential engine's jobs mode. The mix is resolved once on
    /// the main thread (deterministic in the seed, so every engine and shard
    /// count executes the identical plan); every shard arms the same tenant
    /// table and holds a full copy of each collective's dependency tracker but
    /// drives — and at the end reports — only the ranks whose endpoints it
    /// owns.
    ///
    /// Collective releases are **shard-local by construction**: all packets of
    /// a message deliver at the destination rank's router (the shard owning
    /// that rank), and the groups the delivery releases belong to that same
    /// rank, so the sends they fire originate from an owned endpoint. No
    /// cross-shard job state is ever needed.
    fn run_steady_jobs(
        &self,
        offered_load: f64,
        w: &MeasurementWindows,
    ) -> Result<SimResults, SimError> {
        let router = self.router()?;
        let mix = self.cfg.jobs.as_deref().expect("jobs run without a mix");
        let alive = self.net.alive_endpoints();
        let plan = job::resolve_mix(mix, &JobCtx::new(), &alive, self.cfg.seed)?;
        let plan = &plan;
        let timeline = self.fault_timeline(w.deadline_ps())?;
        let mut stats = StatsCollector::with_window(w.measure_start_ps(), w.measure_end_ps());
        stats.init_tenants(plan.tenant_descs());

        let ivm = w.sample_interval_ps.max(1);
        let deadline = w.deadline_ps();
        let shared = EpochShared::new(self.shards, self.net, self.cfg);
        let outs: Vec<ShardOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards)
                .map(|sid| {
                    let shared = &shared;
                    let timeline = &timeline;
                    scope.spawn(move || {
                        let _guard = PoisonGuard(&shared.barrier);
                        let mut shard_stats =
                            StatsCollector::with_window(w.measure_start_ps(), w.measure_end_ps());
                        shard_stats.init_tenants(plan.tenant_descs());
                        let mut core = ShardCore::new(
                            sid,
                            self.shards,
                            self.net,
                            self.cfg,
                            router,
                            &self.owner,
                            self.lookahead,
                            shard_stats,
                            0,
                        );
                        if let Some(tl) = timeline {
                            let fr = Box::new(FaultRuntime::new(self.net, Arc::clone(tl)));
                            if !tl.events.is_empty() {
                                core.push(
                                    tl.events[0].time_ps,
                                    key(CLASS_FAULT, 0),
                                    PKind::Fault { idx: 0 },
                                );
                            }
                            core.fault = Some(fr);
                        }
                        let owns_ep = |ep: usize| {
                            self.owner[self.net.router_of_endpoint(ep) as usize] as usize == sid
                        };
                        // Full tracker copies; sources only for owned ranks.
                        let mut collectives: Vec<(u32, CollectiveState)> = Vec::new();
                        let mut coll_of_tenant: Vec<Option<usize>> = vec![None; plan.tenants.len()];
                        let mut jsources: Vec<JPSource> = Vec::new();
                        for (ti, t) in plan.tenants.iter().enumerate() {
                            match &t.behavior {
                                JobBehavior::Collective(sched) => {
                                    coll_of_tenant[ti] = Some(collectives.len());
                                    collectives.push((
                                        ti as u32,
                                        CollectiveState::new(Arc::new(sched.clone())),
                                    ));
                                }
                                JobBehavior::OpenLoop(spec) => {
                                    for (rank, &ep) in t.endpoints.iter().enumerate() {
                                        if !owns_ep(ep) {
                                            continue;
                                        }
                                        jsources.push(JPSource {
                                            endpoint: ep,
                                            tenant: ti as u32,
                                            rank: rank as u32,
                                            bytes: spec.bytes,
                                            ser_ps: self.cfg.injection_serialization_ps(spec.bytes),
                                            rate: spec.rate.clone(),
                                            rt: RateRuntime::default(),
                                            rng: job::source_rng(self.cfg.seed, ep),
                                        });
                                    }
                                }
                            }
                        }
                        let mut nics = JobNics::new(self.net.num_endpoints());
                        // First arrival of every owned open-loop source.
                        for (si, s) in jsources.iter_mut().enumerate() {
                            let t = s.rate.next_arrival_ps(
                                &mut s.rt,
                                0,
                                s.ser_ps,
                                offered_load,
                                &mut s.rng,
                            );
                            if t < w.measure_end_ps() {
                                core.push(
                                    t,
                                    key(CLASS_NEXT_MESSAGE, s.endpoint as u64),
                                    PKind::NextMessage { source: si as u32 },
                                );
                            }
                        }
                        // Fire owned ranks' round-0 groups at t = 0.
                        for ci in 0..collectives.len() {
                            let ti = collectives[ci].0 as usize;
                            let eps = &plan.tenants[ti].endpoints;
                            let ready = collectives[ci].1.ready_at_start(|rank| owns_ep(eps[rank]));
                            for g in ready {
                                fire_collective_par(
                                    &mut core,
                                    plan,
                                    &mut collectives,
                                    &mut nics,
                                    ci,
                                    g,
                                    0,
                                );
                            }
                        }
                        core.arm_sampler(ivm, deadline);
                        run_epochs(&mut core, shared, Some(deadline), |c, ev| {
                            c.flush_sample_ticks(ev.time);
                            match ev.kind {
                                PKind::NextMessage { source } => spawn_job_message_par(
                                    c,
                                    plan,
                                    &mut jsources,
                                    &mut nics,
                                    source as usize,
                                    ev.time,
                                    offered_load,
                                    w,
                                ),
                                _ => c.handle_core(ev),
                            }
                            // Release whatever the event completed. At most
                            // one message completes per event, and both the
                            // completed message's rank and the groups it
                            // unblocks are owned here.
                            while let Some((tag, t)) = c.jobs_completed.pop() {
                                let ci = coll_of_tenant[tag.tenant as usize]
                                    .expect("collective tag on a non-collective tenant");
                                if let Some(g) =
                                    collectives[ci].1.on_delivered(tag.dst_rank, tag.round)
                                {
                                    fire_collective_par(
                                        c,
                                        plan,
                                        &mut collectives,
                                        &mut nics,
                                        ci,
                                        g,
                                        t,
                                    );
                                }
                            }
                        });
                        core.flush_sample_ticks(deadline);
                        // Owned ranks only: every shard holds a full tracker
                        // copy (trivially complete ranks are complete in every
                        // copy), so the merged total counts each rank once.
                        for (ti, cs) in &collectives {
                            let eps = &plan.tenants[*ti as usize].endpoints;
                            let n = cs.ranks_completed_among(|rank| owns_ep(eps[rank]));
                            core.stats.add_tenant_ranks_completed(*ti, n);
                        }
                        core.into_outcome()
                    })
                })
                .collect();
            join_shards(handles)
        });

        let nticks = outs[0].samples.len();
        debug_assert!(
            outs.iter().all(|o| o.samples.len() == nticks),
            "shards disagree on the sampling tick count"
        );
        let links = self.net.num_directed_links().max(1);
        for k in 0..nticks {
            let t_ps = outs[0].samples[k].t_ps;
            let bytes: u64 = outs.iter().map(|o| o.samples[k].bytes).sum();
            let packets: u64 = outs.iter().map(|o| o.samples[k].packets).sum();
            let queued: u64 = outs.iter().map(|o| o.samples[k].queued).sum();
            let parked: usize = outs.iter().map(|o| o.samples[k].parked).sum();
            stats.record_sample(IntervalSample {
                t_ps,
                delivered_bytes: bytes,
                delivered_packets: packets,
                mean_queue_depth: queued as f64 / links as f64,
                blocked_links: parked,
            });
        }
        let mut faults = FaultStats::default();
        for o in outs {
            stats.record_engine(&o.counters);
            faults.merge(&o.fstats);
            stats.absorb(o.stats);
        }
        let mut results = stats.finish();
        results.faults = faults;
        Ok(results)
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

    /// Engine-counter-free view of results: arena high-water marks depend on
    /// the partition, so cross-shard-count equality is asserted on the
    /// physics (interval samples included), not the bookkeeping.
    fn core_fields(r: &SimResults) -> SimResults {
        let mut r = r.clone();
        r.engine = EngineCounters::default();
        r
    }

    #[test]
    fn finite_results_are_identical_across_shard_counts() {
        let net = SimNetwork::new(ring(8), 2);
        let wl = Workload::uniform_random(net.num_endpoints(), 12, 2048, 7);
        let mut results = Vec::new();
        for shards in [1usize, 2, 3, 4] {
            let cfg = SimConfig::default()
                .with_routing("ugal-l", net.diameter() as u32)
                .with_shards(shards);
            results.push(core_fields(&ParallelSimulator::new(&net, &cfg).run(&wl)));
        }
        for r in &results[1..] {
            assert_eq!(results[0], *r);
        }
        assert!(results[0].delivered_packets > 0);
    }

    #[test]
    fn uncongested_run_matches_sequential_engine_exactly() {
        // Light load, shallow queues: backpressure never engages, so the
        // input-queued credit model and the shared-buffer model coincide and
        // minimal routing on a ring is tie-free below saturation pressure.
        let net = SimNetwork::new(ring(6), 1);
        let cfg = SimConfig::default().with_shards(2);
        let wl = Workload::single_phase(
            "pair",
            vec![
                Message {
                    src: 0,
                    dst: 3,
                    bytes: 9000,
                    inject_offset_ps: 0,
                },
                Message {
                    src: 4,
                    dst: 1,
                    bytes: 4096,
                    inject_offset_ps: 500_000,
                },
            ],
        );
        let seq = crate::Simulator::new(&net, &cfg).run(&wl);
        let par = ParallelSimulator::new(&net, &cfg).run(&wl);
        assert_eq!(core_fields(&seq), core_fields(&par));
    }

    #[test]
    fn steady_state_is_identical_across_shard_counts() {
        let net = SimNetwork::new(ring(6), 2);
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 9);
        let mut results = Vec::new();
        for shards in [1usize, 2, 4] {
            let cfg = SimConfig::default()
                .with_routing("ugal-g", net.diameter() as u32)
                .with_windows(crate::config::MeasurementWindows::new(
                    2_000_000, 20_000_000,
                ))
                .with_shards(shards);
            let res = ParallelSimulator::new(&net, &cfg).run_with_offered_load(&wl, 0.4);
            results.push(core_fields(&res));
        }
        for r in &results[1..] {
            assert_eq!(results[0], *r);
        }
        let m = results[0].measurement.expect("steady run has a summary");
        assert!(m.delivered_packets > 20, "got {}", m.delivered_packets);
        assert!(!results[0].samples.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let net = SimNetwork::new(ring(6), 2);
        let cfg = SimConfig::default()
            .with_routing("valiant", net.diameter() as u32)
            .with_shards(2);
        let wl = Workload::uniform_random(net.num_endpoints(), 8, 1024, 11);
        let a = ParallelSimulator::new(&net, &cfg).run(&wl);
        let b = ParallelSimulator::new(&net, &cfg).run(&wl);
        assert_eq!(a, b);
    }

    #[test]
    fn shard_assignment_covers_all_routers() {
        let net = SimNetwork::new(ring(8), 1);
        let cfg = SimConfig::default().with_shards(4);
        let sim = ParallelSimulator::new(&net, &cfg);
        assert_eq!(sim.shard_assignment().len(), 8);
        assert!(sim.shard_assignment().iter().all(|&s| s < 4));
    }

    #[test]
    fn fault_script_conserves_packets_and_is_shard_count_invariant() {
        let net = SimNetwork::new(ring(8), 2);
        let wl = Workload::uniform_random(net.num_endpoints(), 20, 1024, 11);
        let mut results = Vec::new();
        for shards in [1usize, 2, 4] {
            let cfg = SimConfig::default()
                .with_routing("minimal", net.diameter() as u32)
                .with_shards(shards)
                .with_fault_script(
                    crate::fault::FaultScript::parse("at(1us, links(0.25)) + at(60us, heal(all))")
                        .unwrap()
                        .with_seed(11),
                );
            let res = ParallelSimulator::new(&net, &cfg)
                .try_run(&wl)
                .expect("scripted run completes");
            let f = &res.faults;
            assert_eq!(f.injected, 20 * net.num_endpoints() as u64);
            assert_eq!(f.injected, f.delivered + f.failed, "conservation violated");
            assert_eq!(f.in_flight(), 0, "finite run left packets in flight");
            assert_eq!(f.dropped_total(), f.retransmits + f.failed);
            assert!(f.fault_events >= 2, "both script terms must fire");
            assert_eq!(res.delivered_packets, f.delivered);
            results.push(core_fields(&res));
        }
        for r in &results[1..] {
            assert_eq!(results[0], *r, "fault runs must be shard-count-invariant");
        }
        assert!(
            results[0].faults.dropped_total() > 0,
            "a 25% link cut on a ring must drop something"
        );
    }

    #[test]
    fn fault_run_matches_sequential_conservation() {
        // Engines differ in flow control and RNG streams under churn, so the
        // comparison is on the conservation identity and event count, not on
        // bit-identical results.
        let net = SimNetwork::new(ring(6), 2);
        let wl = Workload::uniform_random(net.num_endpoints(), 10, 512, 5);
        let mk = |shards: usize| {
            SimConfig::default()
                .with_routing("ugal-l", net.diameter() as u32)
                .with_shards(shards)
                .with_fault_script(
                    crate::fault::FaultScript::parse("at(500ns, router(2)) + at(40us, heal(all))")
                        .unwrap()
                        .with_seed(3),
                )
        };
        let seq_cfg = mk(1);
        let seq = crate::Simulator::new(&net, &seq_cfg)
            .try_run(&wl)
            .expect("sequential scripted run completes");
        let par_cfg = mk(2);
        let par = ParallelSimulator::new(&net, &par_cfg)
            .try_run(&wl)
            .expect("parallel scripted run completes");
        for f in [&seq.faults, &par.faults] {
            assert_eq!(f.injected, f.delivered + f.failed);
            assert_eq!(f.in_flight(), 0);
            assert_eq!(f.fault_events, 2);
        }
        assert_eq!(seq.faults.injected, par.faults.injected);
    }

    #[test]
    fn pristine_runs_report_zero_fault_stats() {
        let net = SimNetwork::new(ring(6), 1);
        let cfg = SimConfig::default().with_shards(2);
        let wl = Workload::uniform_random(net.num_endpoints(), 4, 512, 2);
        let res = ParallelSimulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.faults, FaultStats::default());
    }
}
