//! Conservative parallel discrete-event engine (PDES): routers are partitioned
//! across worker shards, each shard runs its own calendar queue and packet
//! arena, and the shards advance in barrier-synchronized epochs bounded by the
//! network's minimum cross-router latency (the *lookahead*).
//!
//! This module is the sender-held-credit *core* — `ShardCore`, its event
//! handlers, the epoch loop — plus the shard launcher and outcome fold around
//! it. What a run is (the front door, sources, jobs, fault arming) is the
//! shared `driver` module's, written once for both engines; each shard hands
//! it an `owns(endpoint)` predicate and per-source RNG streams.
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
//!    cross-shard packet handoffs and credit returns as timestamped messages,
//!    then settles every credit return below `m + E`; after the barrier, every
//!    shard drains its inbox — packets into its own queue, credit returns into
//!    its per-source FIFOs (every message carries a timestamp `≥ m + E`, i.e.
//!    next epoch or later).
//!
//! A credit return is not an event. Each shard keeps one time-ordered FIFO of
//! pending returns per source shard (a shard produces its returns in pop
//! order, `now + E`, and a peer's batches arrive in epoch order) and settles
//! every return with `time ≤ now` into the sender-held credits when
//! `try_transmit` — the only reader — runs. That is exactly the old ordering:
//! a return at `t` used to be a class-3 event, which always ran before a
//! class-5 transmit at `t`. A parked link gets one wake event at its earliest
//! pending return; pending returns count toward the shard's published next
//! time, so the epoch sequence — and with it every congestion snapshot — is
//! the one credit events produced.
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
//!   `(seed, endpoint)`, and number their messages and packets per endpoint;
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
use super::driver::{self, Core, Draws, Mode, RunPlan, Steady, Traffic, UNTAGGED};
use super::{packetize, segment_message, DropReason, FaultRuntime, SimError};
use crate::config::SimConfig;
use crate::fault::{FaultEventKind, FaultTimeline};
use crate::job::MsgTag;
use crate::network::SimNetwork;
use crate::routing::{self, RouteScratch, Router, RoutingCtx, RoutingState};
use crate::stats::{EngineCounters, FaultStats, IntervalSample, SimResults, StatsCollector};
use crate::workload::Workload;
use rand::{rngs::StdRng, RngCore, SeedableRng};
use spectralfly_graph::csr::VertexId;
use spectralfly_graph::{partition_kway, BisectConfig};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Seed for the router partition. Fixed (not `cfg.seed`): the partition is a
/// performance decision, and results are shard-count-invariant anyway, so
/// changing the simulation seed must not reshuffle which shard owns what.
const PARTITION_SEED: u64 = 0x9A27_51DE_C0DE_0006;

// Stable event-key classes: at equal timestamps, events pop in class order
// (fault flips, source arrivals, then injections, credit wakes, arrivals,
// transmits). Any fixed order works — same-time events on different routers
// commute — it only has to be the *same* order for every shard count. The
// fault-timeline event is class 0 so liveness flips apply before any co-timed
// packet event.
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
    /// Wake a link parked on `vc`: a credit return for `(link, vc)` is due
    /// now (the return itself is settled by the next `try_transmit`). Keyed
    /// like the credit event it replaces; a no-op if the link no longer waits
    /// on `vc` (a fault flushed it, or it re-parked on another VC).
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
/// events sharing a `(time, key)` pair are identical wakes, of which the
/// first wakes the link and the rest find it awake).
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
    /// A credit return, tagged with the shard that produced it (the FIFO it
    /// joins on the receiving side).
    Credit { from: usize, ret: CreditReturn },
    /// A dropped packet returns to its source NIC on the shard owning its
    /// source router, re-entering as a fresh injection.
    Retransmit { time: u64, packet: ParPacket },
}

/// A buffer credit on its way back to the sender side of `link`: it refills
/// the `(link, vc)` pool at `time`, settled by the first read at or after it.
#[derive(Clone, Copy, Debug)]
struct CreditReturn {
    time: u64,
    link: u32,
    vc: u8,
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

/// State shared between all shards of one run.
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
    /// may still claim on that VC. Consumed at transmit; refilled from
    /// `returns` when `try_transmit` reads them.
    credits: Vec<u32>,
    /// Credit returns not yet settled into `credits`, one time-ordered FIFO
    /// per source shard (this shard's own at index `sid`).
    returns: Vec<VecDeque<CreditReturn>>,
    /// The VC a parked link is waiting for a credit on (`u8::MAX` = none).
    waiting_vc: Vec<u8>,
    link_parked: Vec<bool>,
    parked_count: usize,
    /// Parked links without a scheduled wake: no return for their
    /// `(link, waiting_vc)` lay below the epoch limit when they parked.
    unwoken: Vec<u32>,
    /// For a link in `unwoken`, the earliest return recorded for its
    /// `(link, waiting_vc)` (`u64::MAX` = none yet).
    wake_at: Vec<u64>,
    /// Exclusive upper bound of the epoch being processed: every return below
    /// it has been recorded, every return recorded from now on lies at or
    /// past it.
    epoch_limit: u64,
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
    /// of a message deliver at one destination router, hence at one shard; a
    /// one-packet message completes without an entry.
    /// A terminally failed packet never decrements its entry, so a damaged
    /// message is never recorded as completed — the countdown analogue of the
    /// sequential engine's `msg_failed` poisoning.
    msgs: HashMap<u64, MsgEntry>,
    /// Collective messages fully delivered since the last drain, handed to the
    /// steady driving closure whose [`Traffic`] owns the dependency trackers
    /// (empty unless [`crate::SimConfig::jobs`] is set).
    jobs_completed: Vec<(MsgTag, u64)>,
    /// NIC cursors and id counters of the endpoints this shard injects from.
    nics: EndpointNics,
    /// Per-destination-shard outboxes, flushed at barrier 3.
    out: Vec<Vec<ShardMsg>>,
    stats: StatsCollector,
    counters: EngineCounters,
    raw_samples: Vec<RawSample>,
    /// Steady-state sampling cadence in ps; `0` = sampling disarmed (finite
    /// runs). Ticks are *not* queue events: each shard folds its local partial
    /// at `flush_sample_ticks` before handling any event at or past a tick's
    /// timestamp (see that method's invariant note).
    tick_ivm: u64,
    /// Last tick timestamp to record (the drain deadline).
    tick_deadline: u64,
    /// Index of the next unrecorded tick (tick `k` fires at `k * tick_ivm`).
    next_tick: u64,
    delivered_packets_total: u64,
    delivered_bytes_total: u64,
    sampled_packets: u64,
    sampled_bytes: u64,
}

impl<'a> ShardCore<'a> {
    /// Shard `sid` of `sim`'s partition, collecting into `stats`.
    fn new(sid: usize, sim: &'a ParallelSimulator<'_>, stats: StatsCollector) -> Self {
        let (net, cfg, owner) = (sim.net, sim.cfg, &sim.owner[..]);
        let (shards, lookahead) = (cfg.shards, sim.lookahead);
        let algo = (sim.router.as_deref())
            .expect("the front door returns the setup error before any shard is built");
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
            returns: (0..shards).map(|_| VecDeque::new()).collect(),
            waiting_vc: vec![u8::MAX; links],
            link_parked: vec![false; links],
            parked_count: 0,
            unwoken: Vec::new(),
            wake_at: vec![u64::MAX; links],
            epoch_limit: 0,
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
            nics: EndpointNics {
                nic_free: vec![0; net.num_endpoints()],
                msg_counter: vec![0; net.num_endpoints()],
                pkt_counter: vec![0; net.num_endpoints()],
            },
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
        }
    }

    #[inline]
    fn push(&mut self, time: u64, key: u64, kind: PKind) {
        self.queue.push(PEvent { time, key, kind });
    }

    fn alloc_packet(&mut self, p: ParPacket) -> usize {
        let slot = super::alloc_slot(&mut self.packets, &mut self.free, p);
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

    /// Route a credit return to the shard owning the link's sender side.
    fn send_credit(&mut self, link: u32, vc: u8, time: u64) {
        let ret = CreditReturn { time, link, vc };
        let o = self.owner[self.net.link_owner(link as usize).0 as usize] as usize;
        if o == self.sid {
            self.record_return(o, ret);
        } else {
            let from = self.sid;
            self.out[o].push(ShardMsg::Credit { from, ret });
        }
    }

    /// Append a return to `from`'s FIFO (every return recorded during or
    /// after an epoch lies at or past its limit, so each FIFO stays sorted),
    /// and let it bid for the wake of a link parked on its pool.
    fn record_return(&mut self, from: usize, ret: CreditReturn) {
        debug_assert!(
            (self.returns[from].back()).is_none_or(|b| b.time <= ret.time),
            "credit returns from shard {from} out of time order"
        );
        let l = ret.link as usize;
        if !self.unwoken.is_empty() && self.link_parked[l] && self.waiting_vc[l] == ret.vc {
            self.wake_at[l] = self.wake_at[l].min(ret.time);
        }
        self.returns[from].push_back(ret);
    }

    /// Settle every recorded return with `time ≤ upto` into `credits`.
    #[inline]
    fn settle_returns(&mut self, upto: u64) {
        for fifo in &mut self.returns {
            while let Some(r) = fifo.front().filter(|r| r.time <= upto) {
                self.credits[r.link as usize * self.nv + r.vc as usize] += 1;
                fifo.pop_front();
            }
        }
    }

    /// The earliest pending event or credit return (`u64::MAX` = none).
    fn next_time(&self) -> u64 {
        let fronts = self.returns.iter().filter_map(|f| f.front());
        let nt = self.queue.next_time().unwrap_or(u64::MAX);
        fronts.map(|r| r.time).fold(nt, u64::min)
    }

    fn push_wake(&mut self, time: u64, link: usize, vc: u8) {
        let kind = PKind::Credit {
            link: link as u32,
            vc,
        };
        self.push(
            time,
            key(CLASS_CREDIT, ((link as u64) << 8) | vc as u64),
            kind,
        );
    }

    /// Park `link` until a credit for `(link, vc)` returns — the credit
    /// analogue of the sequential engine's waiter lists. The wake goes at the
    /// earliest recorded return if that lies below the epoch limit (no earlier
    /// one can still arrive); otherwise the link waits in `unwoken`.
    fn park(&mut self, link: usize, vc: u8) {
        self.link_parked[link] = true;
        self.waiting_vc[link] = vc;
        self.parked_count += 1;
        self.counters.blocked_parks += 1;
        let matching = |f: &VecDeque<CreditReturn>| {
            f.iter()
                .find(|r| r.link as usize == link && r.vc == vc)
                .map(|r| r.time)
        };
        let earliest = self.returns.iter().filter_map(matching).min();
        match earliest {
            Some(t) if t < self.epoch_limit => self.push_wake(t, link, vc),
            _ => {
                self.wake_at[link] = earliest.unwrap_or(u64::MAX);
                self.unwoken.push(link as u32);
            }
        }
    }

    /// At an epoch start, when every return below the new limit is recorded:
    /// wake the unwoken links whose earliest return lies below it.
    fn schedule_due_wakes(&mut self) {
        let mut unwoken = std::mem::take(&mut self.unwoken);
        unwoken.retain(|&l| {
            let (l, t) = (l as usize, self.wake_at[l as usize]);
            let due = t < self.epoch_limit;
            if due {
                self.push_wake(t, l, self.waiting_vc[l]);
            }
            !due
        });
        self.unwoken = unwoken;
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
            ShardMsg::Credit { from, ret } => self.record_return(from, ret),
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
        self.settle_returns(now);
        if self.credits[pool] == 0 {
            self.park(link, next_vc as u8);
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
            let first = self.packets[pi].msg_first_inject;
            if self.message_complete(pi) {
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

    /// Count delivered packet `pi` against its message; `true` when it was the
    /// message's last. A one-packet message never touches the table.
    fn message_complete(&mut self, pi: usize) -> bool {
        let (msg_id, total) = (self.packets[pi].msg_id, self.packets[pi].msg_total);
        if total == 1 {
            return true;
        }
        match self.msgs.entry(msg_id) {
            Entry::Vacant(v) => {
                v.insert(MsgEntry { left: total - 1 });
                false
            }
            Entry::Occupied(mut o) => {
                o.get_mut().left -= 1;
                let done = o.get().left == 0;
                if done {
                    o.remove();
                }
                done
            }
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
            self.unwoken.retain(|&l| l as usize != link);
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
    /// This interleaves ticks with state changes exactly as class-0 queue
    /// events would: a shard processes its events in nondecreasing time order
    /// (the conservative epoch bound guarantees cross-shard arrivals never
    /// travel backwards in time), so flushing all ticks ≤ `ev.time` before
    /// handling `ev` puts each tick before every co-timed event, and ticks
    /// between two events (or after the last one) see unchanged state —
    /// without n_shards × n_ticks queue traffic.
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
        shared.next_times[core.sid].store(core.next_time(), Ordering::Relaxed);
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
        core.epoch_limit = limit;
        if !core.unwoken.is_empty() {
            core.schedule_due_wakes();
        }
        while let Some(ev) = core.queue.pop_before(limit) {
            core.counters.events += 1;
            handle(core, ev);
        }
        // Returns below the limit are what this epoch's credit events were:
        // settled now, they cannot hold the next published time back.
        core.settle_returns(limit - 1);
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

/// The per-source stream of a template source under [`Draws::PerSource`]:
/// keyed by `(seed, endpoint)`, so a source's draws cannot depend on which
/// shard owns it.
fn source_rng(seed: u64, endpoint: usize) -> StdRng {
    StdRng::seed_from_u64(mix64(seed).wrapping_add(mix64(endpoint as u64 ^ 0x005E_ED50_17CE)))
}

/// Per-endpoint NIC cursors and id counters for steady-state injections. Ids
/// are `(endpoint << 40) | counter`, and an endpoint's injections happen in a
/// deterministic local order (source arrivals and collective releases are
/// both driven by the owning shard's `(time, key)` event order), so ids are
/// shard-count-invariant.
struct EndpointNics {
    nic_free: Vec<u64>,
    msg_counter: Vec<u64>,
    pkt_counter: Vec<u64>,
}

impl Core for ShardCore<'_> {
    /// On the shard owning `src_ep`'s router.
    fn inject_message(&mut self, now: u64, src_ep: usize, dst_ep: usize, bytes: u64, tag: MsgTag) {
        let net = self.net;
        let segments = segment_message(self.cfg, bytes);
        let mut t = now.max(self.nics.nic_free[src_ep]);
        let first = t;
        let msg_id = ((src_ep as u64) << 40) | self.nics.msg_counter[src_ep];
        self.nics.msg_counter[src_ep] += 1;
        let src_router = net.router_of_endpoint(src_ep);
        let dst_router = net.router_of_endpoint(dst_ep);
        let total = segments.len() as u32;
        if tag.tenant != u32::MAX {
            self.stats.note_tenant_injection(tag.tenant, bytes, t);
        }
        for (pkt_bytes, nic_ser) in segments {
            let stable_id = ((src_ep as u64) << 40) | self.nics.pkt_counter[src_ep];
            self.nics.pkt_counter[src_ep] += 1;
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
            let slot = self.alloc_packet(packet);
            if self.fault.is_some() {
                self.fstats.injected += 1;
            }
            self.stats.note_injection(t);
            self.push(
                t,
                key(CLASS_INJECT, stable_id),
                PKind::Inject {
                    packet: slot as u32,
                },
            );
            t += nic_ser;
        }
        self.nics.nic_free[src_ep] = t;
    }

    fn schedule_source(&mut self, time: u64, source: u32, endpoint: usize) {
        self.push(
            time,
            key(CLASS_NEXT_MESSAGE, endpoint as u64),
            PKind::NextMessage { source },
        );
    }

    /// Every shard arms (and then replays) the identical chain.
    fn arm_faults(&mut self, timeline: &Arc<FaultTimeline>, finite: bool) {
        let (runtime, first) = driver::fault_runtime(self.net, timeline, finite);
        if let Some((time, idx)) = first {
            self.push(time, key(CLASS_FAULT, idx as u64), PKind::Fault { idx });
        }
        self.fault = Some(runtime);
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
    owner: Vec<u32>,
    lookahead: u64,
}

impl<'a> ParallelSimulator<'a> {
    /// Create a parallel simulator over a network with a configuration,
    /// running [`SimConfig::shards`] worker shards.
    ///
    /// An unregistered `cfg.routing`, a `cfg.faults` plan the network was
    /// not built with, or a zero link + router latency (the conservative
    /// lookahead would vanish) is reported by the first `try_*` call, exactly
    /// as on [`crate::Simulator::new`].
    ///
    /// # Panics
    /// If `cfg.shards` is zero.
    pub fn new(net: &'a SimNetwork, cfg: &'a SimConfig) -> Self {
        assert!(cfg.shards >= 1, "shard count must be at least 1");
        let lookahead = cfg.link_latency_ps() + cfg.router_latency_ps();
        let router = super::resolve_router(net, cfg).and_then(|router| match lookahead {
            0 => Err(SimError::Lookahead(format!(
                "the parallel engine needs a positive conservative lookahead, but \
                 link_latency_ns = {} and router_latency_ns = {} add up to 0 ps \
                 (raise either, or run at shards = 1)",
                cfg.link_latency_ns, cfg.router_latency_ns
            ))),
            _ => Ok(router),
        });
        let bisect = BisectConfig::default();
        let owner = partition_kway(net.graph(), cfg.shards, &bisect, PARTITION_SEED);
        ParallelSimulator {
            net,
            cfg,
            router,
            owner,
            lookahead,
        }
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
        self.simulate(workload, None)
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
        self.simulate(workload, Some(offered_load))
    }

    /// Through the shared front door, then into the finite or steady run.
    pub(super) fn simulate(
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

    /// The one shard launcher: a scoped thread per shard builds its
    /// [`ShardCore`] (collecting into a fresh `stats()`), runs `drive` on it,
    /// and hands its outcome back to the main thread.
    fn run_sharded(
        &self,
        stats: impl Fn() -> StatsCollector + Sync,
        drive: impl Fn(&mut ShardCore<'_>, &EpochShared) + Sync,
    ) -> Vec<ShardOutcome> {
        let shared = EpochShared::new(self.cfg.shards, self.net, self.cfg);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.cfg.shards)
                .map(|sid| {
                    let (shared, stats, drive) = (&shared, &stats, &drive);
                    scope.spawn(move || {
                        let _guard = PoisonGuard(&shared.barrier);
                        let mut core = ShardCore::new(sid, self, stats());
                        drive(&mut core, shared);
                        core.into_outcome()
                    })
                })
                .collect();
            join_shards(handles)
        })
    }

    /// Fold the shards' outcomes into the run's results: sample partials by
    /// tick index (finite runs record none), engine counters, fault partials
    /// and per-shard statistics.
    fn fold_outcomes(&self, outs: Vec<ShardOutcome>, mut stats: StatsCollector) -> SimResults {
        let nticks = outs[0].samples.len();
        debug_assert!(
            outs.iter().all(|o| o.samples.len() == nticks),
            "shards disagree on the sampling tick count"
        );
        let links = self.net.num_directed_links().max(1);
        for k in 0..nticks {
            let queued: u64 = outs.iter().map(|o| o.samples[k].queued).sum();
            stats.record_sample(IntervalSample {
                t_ps: outs[0].samples[k].t_ps,
                delivered_bytes: outs.iter().map(|o| o.samples[k].bytes).sum(),
                delivered_packets: outs.iter().map(|o| o.samples[k].packets).sum(),
                mean_queue_depth: queued as f64 / links as f64,
                blocked_links: outs.iter().map(|o| o.samples[k].parked).sum(),
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
        results
    }

    /// Finite drain-to-empty run: one epoch-synchronized co-simulation.
    /// Packetization happens on the main thread with the same global RNG
    /// stream as the sequential engine, so injection schedules are
    /// byte-identical to [`crate::Simulator`]'s.
    fn run_finite(
        &self,
        run: &RunPlan<'_>,
        workload: &Workload,
        offered_load: Option<f64>,
    ) -> Result<SimResults, SimError> {
        if workload.messages.is_empty() {
            return Ok(StatsCollector::default().finish());
        }
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let sched = packetize(self.net, self.cfg, workload, offered_load, &mut rng);
        let launch = |core: &mut ShardCore<'_>, shared: &EpochShared| {
            if let Some(timeline) = &run.timeline {
                core.arm_faults(timeline, true);
            }
            // Every shard loads the packets injected at its own routers.
            for (i, p) in sched.packets.iter().enumerate() {
                if self.owner[p.src_router as usize] as usize != core.sid {
                    continue;
                }
                let stable_id = i as u64;
                let slot = core.alloc_packet(ParPacket {
                    src_router: p.src_router,
                    dst_router: p.dst_router,
                    bytes: p.bytes,
                    inject_time_ps: p.inject_time_ps,
                    hops: 0,
                    routing: p.routing.clone(),
                    stable_id,
                    msg_id: p.msg as u64,
                    msg_total: sched.msg_packets_left[p.msg],
                    msg_first_inject: sched.msg_first_inject[p.msg],
                    via_link: u32::MAX,
                    via_vc: 0,
                    attempts: 0,
                    first_drop_ps: u64::MAX,
                    tag: UNTAGGED,
                });
                if core.fault.is_some() {
                    core.fstats.injected += 1;
                }
                let packet = slot as u32;
                core.push(
                    p.inject_time_ps,
                    key(CLASS_INJECT, stable_id),
                    PKind::Inject { packet },
                );
            }
            run_epochs(core, shared, None, |c, ev| c.handle_core(ev));
        };
        let outs = self.run_sharded(StatsCollector::default, launch);

        let total = sched.packets.len() as u64;
        let delivered: u64 = outs.iter().map(|o| o.delivered_packets).sum();
        let failed: u64 = outs.iter().map(|o| o.fstats.failed).sum();
        if delivered + failed < total {
            return Err(driver::undrained(
                total - delivered - failed,
                outs.iter().map(|o| o.parked).sum(),
                outs.iter().map(|o| o.in_queues).sum(),
                outs.iter().map(|o| o.pending).sum(),
                outs.iter().map(|o| o.occ_sum).sum(),
            ));
        }
        Ok(self.fold_outcomes(outs, StatsCollector::default()))
    }

    /// Steady-state run: every shard arms the traffic of the endpoints on its
    /// own routers — shard-owned Poisson sources over the workload templates,
    /// or its ranks of the job mix, resolved once on the main thread so every
    /// shard count executes the identical plan — under windowed measurement,
    /// with per-shard sample partials folded by tick index.
    fn run_steady(&self, run: &RunPlan<'_>, steady: &Steady<'_>) -> SimResults {
        let w = steady.windows;
        let deadline = w.deadline_ps();
        let launch = |core: &mut ShardCore<'_>, shared: &EpochShared| {
            let sid = core.sid;
            let owns =
                |ep: usize| self.owner[self.net.router_of_endpoint(ep) as usize] as usize == sid;
            let mut traffic = Traffic::arm(core, run, steady, owns, Draws::PerSource(source_rng));
            // Sampling is event-free: each shard folds its local partial
            // whenever event time crosses a tick boundary (and below, after
            // the loop, for the trailing ticks).
            core.arm_sampler(w.sample_interval_ps, deadline);
            run_epochs(core, shared, Some(deadline), |c, ev| {
                c.flush_sample_ticks(ev.time);
                match ev.kind {
                    PKind::NextMessage { source } => {
                        let draws = Draws::PerSource(source_rng);
                        traffic.next_message(c, source as usize, ev.time, draws);
                    }
                    _ => c.handle_core(ev),
                }
                // Release whatever the event completed. At most one message
                // completes per event, and both the completed message's rank
                // and the groups it unblocks are owned here.
                while let Some((tag, t)) = c.jobs_completed.pop() {
                    traffic.collective_delivered(c, tag, t);
                }
            });
            core.flush_sample_ticks(deadline);
            traffic.report_ranks(&mut core.stats, owns);
        };
        let outs = self.run_sharded(|| steady.traffic.stats(w), launch);
        self.fold_outcomes(outs, steady.traffic.stats(w))
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
        let wl = Workload::new(
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
