//! The event core: routers are partitioned into shards, each shard runs its
//! own event queue and packet arena, and the shards advance in epochs
//! bounded by the network's minimum cross-router latency (the *lookahead*) —
//! on the calling thread at one shard, on one worker thread per shard, behind
//! barriers, otherwise.
//!
//! This module is the sender-held-credit core — `ShardCore`, its event
//! handlers, the epoch loop — plus [`Simulator`], which launches the shards
//! and folds their outcomes. What a run is (the front door, sources, jobs,
//! fault arming) is the `driver` module's; each shard hands it an
//! `owns(endpoint)` predicate.
//!
//! # Event sources
//!
//! A shard's epoch loop draws on four sources:
//!
//! * **the injection cursor** — a finite run's schedule is packetized
//!   straight into one list of small injection records per shard, and each
//!   shard sorts its own list by `(time, stable_id)`, so the list is its own
//!   injection stream, in exactly the `(time, key)` order its `Inject`
//!   events would pop in. A cursor walks it and builds each packet into the
//!   arena as it injects it; no initial injection is ever pushed. The arena
//!   starts empty and holds only the packets in flight, in finite and steady
//!   runs alike;
//! * **three sorted lanes** — most events are due a fixed delay after the
//!   instant that schedules them, and so are pushed in time order: a
//!   transmit on an idle link is due now (the `now` lane), the next
//!   transmit behind a busy link at `now + ser` (the `transmit` lane), and a
//!   same-shard arrival at `now + ser + E` (the `arrive` lane). A lane is
//!   append-only: it takes a push that orders at or after its tail under the
//!   full [`Event`] order, and turns any other away to the store;
//! * **the store** — every other event: the lanes' rejects, re-injections
//!   (pending-buffer admissions, retransmissions), credit wakes, fault and
//!   source events, and cross-shard hand-offs. Its current 65.5 ns slot is
//!   a run sorted once, popped from its end, beside a binary heap of later
//!   pushes into that slot, which is sorted into the run when the run is
//!   spent; later events wait in a radix heap's buckets, the lowest of
//!   which refills the run once the run and the heap are spent;
//! * **the credit-return FIFOs** — settled on read, not popped (below).
//!
//! The loop pops the least of the cursor's head, the lane heads and the
//! store's minimum under the full [`Event`] order, so pop order is the
//! one a single queue holding every event would give; the shard's next time
//! is the least of those heads and the credit-return FIFOs' fronts.
//!
//! # Flow control
//!
//! Buffer capacity is enforced by *per-(link, VC) sender-held credits* (an
//! input-queued router): a link holds one credit per downstream buffer slot
//! of each VC, spends one to transmit, and gets it back when the packet
//! leaves that slot — `E` after the fact, modelling the credit signal's
//! reverse propagation. A sender never reads a remote router's buffer
//! counter, which is what lets the routers live on different shards.
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
//! straggler. Each epoch runs up to three barriers:
//!
//! 1. every shard publishes its earliest pending-event time; after the
//!    barrier, every shard reduces the same global minimum `m` (and the run
//!    terminates when `m` is `u64::MAX`, or passes the drain deadline);
//! 2. only for a routing that reads remote occupancy
//!    ([`crate::Router::reads_remote_occupancy`]): every shard publishes its
//!    routers' buffer occupancy to a shared board; after the barrier, every
//!    shard snapshots the whole board — the epoch-consistent congestion view
//!    UGAL-G's remote signal reads;
//! 3. every shard processes its events strictly below `m + E`, queueing
//!    cross-shard packet handoffs and credit returns as timestamped messages,
//!    then settles every credit return below `m + E`; after the barrier, every
//!    shard drains its inbox — packets into its own queue, credit returns into
//!    its per-source FIFOs (every message carries a timestamp `≥ m + E`, i.e.
//!    next epoch or later).
//!
//! One shard runs the same epochs with no barrier and no inbox: `m` is its own
//! next time, and the board is a copy of its own occupancy. The epoch bound
//! still decides when a parked link is woken and when the congestion view
//! refreshes, so a one-shard run is the many-shard run, event for event.
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
//! `tests/pdes_equivalence.rs` holds every shard count to the one-shard run,
//! exactly, under congestion.

use super::driver::{self, Mode, RunPlan, Steady, Traffic};
use super::queue::{LanedQueue, Timed};
use super::{
    packetize, segment_message, Cold, DropReason, FaultRuntime, Hot, Injection, SimError, NIL,
};
use crate::config::{
    retransmit_backoff_ps, serialization_ps, SimConfig, LOOKAHEAD_PS, RETRANSMIT_BUDGET,
};
use crate::fault::{FaultEventKind, FaultTimeline};
use crate::job::MsgTag;
use crate::network::SimNetwork;
use crate::routing::{self, RouteScratch, Router, RoutingCtx};
use crate::stats::{EngineCounters, FaultStats, IntervalSample, SimResults, StatsCollector};
use crate::workload::Workload;
use rand::RngCore;
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

// The queue's lanes (see `LanedQueue`), each fed at a fixed offset from the
// current instant so that its pushes arrive mostly in order: transmits due
// now on an idle link, transmits due later (`now + ser` behind a busy link),
// and same-shard arrivals (`now + ser + E`).
const LANE_NOW: usize = 0;
const LANE_TRANSMIT: usize = 1;
const LANE_ARRIVE: usize = 2;

/// SplitMix64 finalizer (the same mixer the workspace `rand` shim seeds with),
/// increment included — unlike `job::mix64`, which omits it and so draws a
/// different stream from the same input. It keys the per-decision routing
/// streams; merging it with `job::mix64` would move every golden digest.
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

/// What an event does. No event stores one: an [`Event`] carries the kind's
/// class in its key and the kind's fields in two payload words, and
/// [`Event::kind`] decodes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A continuous source generates its next message (steady-state only).
    NextMessage { source: u32 },
    /// Endpoint NIC injects a packet at its (local) source router. The
    /// router rides in the event, so an injection reads only the packet's
    /// [`Hot`] half.
    Inject { packet: u32, router: VertexId },
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

impl EventKind {
    /// The kind's key class, then its fields as two payload words in
    /// declaration order (zero where it has fewer than two).
    #[inline]
    fn encode(self) -> (u64, u32, u32) {
        match self {
            EventKind::Fault { idx } => (CLASS_FAULT, idx, 0),
            EventKind::NextMessage { source } => (CLASS_NEXT_MESSAGE, source, 0),
            EventKind::Inject { packet, router } => (CLASS_INJECT, packet, router),
            EventKind::Credit { link, vc } => (CLASS_CREDIT, link, u32::from(vc)),
            EventKind::Arrive { packet, router } => (CLASS_ARRIVE, packet, router),
            EventKind::TryTransmit { link } => (CLASS_TRY_TRANSMIT, link, 0),
        }
    }
}

/// An event in 24 bytes — the event queue moves millions — ordered by
/// `(time, key, a, b)`. The key packs the [`EventKind`]'s class above a
/// stable id and is stable across shard counts; `a` and `b` are the kind's
/// fields ([`EventKind::encode`]). A class names one kind and the payload
/// keeps its fields' order, so this is the `(time, key, kind)` order. The
/// payload comparison exists only for `Ord` consistency (two events sharing
/// a `(time, key)` pair are identical wakes, of which the first wakes the
/// link and the rest find it awake; no two injections share one).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: u64,
    key: u64,
    a: u32,
    b: u32,
}

const _: () = assert!(std::mem::size_of::<Event>() == 24);

impl Event {
    /// A `kind` event at `time`, keyed by its class and the low 56 bits of
    /// the stable `id`.
    #[inline]
    fn new(time: u64, id: u64, kind: EventKind) -> Self {
        let (class, a, b) = kind.encode();
        let key = (class << 56) | (id & 0x00FF_FFFF_FFFF_FFFF);
        Event { time, key, a, b }
    }

    /// The kind the key's class byte and the payload encode.
    #[inline]
    fn kind(&self) -> EventKind {
        let (a, b) = (self.a, self.b);
        match self.key >> 56 {
            CLASS_FAULT => EventKind::Fault { idx: a },
            CLASS_NEXT_MESSAGE => EventKind::NextMessage { source: a },
            CLASS_INJECT => EventKind::Inject {
                packet: a,
                router: b,
            },
            CLASS_CREDIT => EventKind::Credit {
                link: a,
                vc: b as u8,
            },
            CLASS_ARRIVE => EventKind::Arrive {
                packet: a,
                router: b,
            },
            CLASS_TRY_TRANSMIT => EventKind::TryTransmit { link: a },
            class => unreachable!("event class {class}"),
        }
    }
}

impl Timed for Event {
    fn time(&self) -> u64 {
        self.time
    }
}

/// A timestamped cross-shard handoff, drained at the epoch barrier. Every
/// variant carries a timestamp `≥ m + E` by the lookahead argument (a
/// retransmission's backoff is `≥ E` by construction — see
/// [`crate::config::retransmit_backoff_ps`]).
enum ShardMsg {
    Arrive {
        time: u64,
        router: VertexId,
        packet: (Hot, Cold),
    },
    /// A credit return, tagged with the shard that produced it (the FIFO it
    /// joins on the receiving side).
    Credit { from: usize, ret: CreditReturn },
    /// A dropped packet returns to its source NIC on the shard owning its
    /// source router, re-entering as a fresh injection.
    Retransmit { time: u64, packet: (Hot, Cold) },
}

/// A buffer credit on its way back to the sender side of `link`: it refills
/// the `(link, vc)` pool at `time`, settled by the first read at or after it.
#[derive(Clone, Copy, Debug)]
struct CreditReturn {
    time: u64,
    link: u32,
    vc: u8,
}

/// A FIFO of arena packets chained through [`Hot::next`]: a link's output
/// queue or a router's pending injections. A packet sits in at most one FIFO
/// at a time, so the queues cost a head/tail pair each and never allocate.
/// `tail` is meaningful only while `head` is not [`NIL`].
#[derive(Clone, Copy, Debug)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
    };

    #[inline]
    fn front(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head as usize)
    }

    /// Append `pi`, overwriting the `next` it carries (a slot's previous
    /// queue, or another shard's arena, may have left one there).
    #[inline]
    fn push(&mut self, packets: &mut [Hot], pi: usize) {
        packets[pi].next = NIL;
        match self.head {
            NIL => self.head = pi as u32,
            _ => packets[self.tail as usize].next = pi as u32,
        }
        self.tail = pi as u32;
    }

    #[inline]
    fn pop(&mut self, packets: &[Hot]) -> Option<usize> {
        let head = self.front()?;
        self.head = packets[head].next;
        Some(head)
    }

    /// The chain from `head`, checked to end at `tail` without looping (a
    /// debug walk, not a hot-path call).
    fn walk(&self, packets: &[Hot]) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut at = self.head;
        while at != NIL {
            assert!(chain.len() < packets.len(), "FIFO chain loops");
            chain.push(at as usize);
            at = packets[at as usize].next;
        }
        if let Some(&last) = chain.last() {
            assert_eq!(
                last, self.tail as usize,
                "FIFO chain does not end at its tail"
            );
        }
        chain
    }
}

/// What a transmit reads of one directed link, in one 24-byte record: a
/// transmit usually finds its link cold in cache, and the record spans one
/// cache line or two, where separate per-link arrays cost a line each.
/// Built for every link in [`ShardCore::new`]; only the owning shard's slots
/// ever change.
#[derive(Clone, Copy, Debug)]
struct LinkSlot {
    /// When the link finishes serializing its last transmission, ps.
    free_at: u64,
    /// The link's output queue.
    queue: Fifo,
    /// The router the link leaves (its owner, [`SimNetwork::link_owner`]).
    src: VertexId,
    /// The router the link leads to.
    dst: VertexId,
}

const _: () = assert!(std::mem::size_of::<LinkSlot>() == 24);

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

/// State shared between the shards of a run on more than one shard.
struct EpochShared {
    barrier: PoisonBarrier,
    /// Each shard's earliest pending-event time, published before barrier 1.
    next_times: Vec<AtomicU64>,
    /// Cross-shard message inboxes, appended before barrier 3 and drained by
    /// the owner after it.
    inboxes: Vec<Mutex<Vec<ShardMsg>>>,
    /// Empty unless the routing reads remote occupancy.
    board: Mutex<SnapshotBoard>,
}

impl EpochShared {
    fn new(shards: usize, net: &SimNetwork, cfg: &SimConfig, board: bool) -> Self {
        let routers = if board { net.num_routers() } else { 0 };
        EpochShared {
            barrier: PoisonBarrier::new(shards),
            next_times: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            board: Mutex::new(SnapshotBoard {
                occupancy: vec![0; routers * cfg.num_vcs],
                router_occ: vec![0; routers],
            }),
        }
    }

    /// Barrier 1: publish `core`'s next time and reduce the global minimum.
    fn min_next_time(&self, core: &ShardCore<'_>) -> u64 {
        self.next_times[core.sid].store(core.next_time(), Ordering::Relaxed);
        self.barrier.wait();
        (self.next_times.iter())
            .map(|a| a.load(Ordering::Relaxed))
            .min()
            .expect("at least one shard")
    }

    /// Barrier 2: publish `core`'s routers' occupancy, then snapshot the
    /// whole board into its congestion view.
    fn exchange_board(&self, core: &mut ShardCore<'_>) {
        {
            let mut board = self.board.lock().unwrap_or_else(|e| e.into_inner());
            for &r in &core.my_routers {
                let r = r as usize;
                board.router_occ[r] = core.router_occ[r];
                board.occupancy[r * core.nv..(r + 1) * core.nv]
                    .copy_from_slice(&core.occupancy[r * core.nv..(r + 1) * core.nv]);
            }
        }
        self.barrier.wait();
        let board = self.board.lock().unwrap_or_else(|e| e.into_inner());
        core.occ_view.copy_from_slice(&board.occupancy);
        core.rocc_view.copy_from_slice(&board.router_occ);
    }

    /// Barrier 3: hand `core`'s outboxes to their shards, then drain its own
    /// inbox into its queue and credit FIFOs.
    fn exchange_messages(&self, core: &mut ShardCore<'_>) {
        for dest in 0..core.out.len() {
            if dest == core.sid || core.out[dest].is_empty() {
                continue;
            }
            let mut outbox = std::mem::take(&mut core.out[dest]);
            self.inboxes[dest]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(&mut outbox);
            core.out[dest] = outbox; // keep the allocation
        }
        self.barrier.wait();
        let msgs = std::mem::take(
            &mut *self.inboxes[core.sid]
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for msg in msgs {
            core.deliver_msg(msg);
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
    /// Initial injections the cursor never reached.
    unspent: usize,
    /// Nothing was left to happen: no queued event, initial injection or
    /// credit return (every shard agrees, since the loop ends on a global
    /// minimum).
    quiescent: bool,
    /// When this shard last delivered a packet, picoseconds.
    last_delivery_ps: u64,
}

/// One shard's complete simulation state. Arrays are indexed in the *global*
/// id space (routers, links) — each shard only ever touches its owned region,
/// and global indexing keeps every id stable across shard counts.
pub(super) struct ShardCore<'a> {
    sid: usize,
    net: &'a SimNetwork,
    cfg: &'a SimConfig,
    algo: &'a dyn Router,
    /// Whether `algo` reads remote occupancy: the congestion view is kept
    /// (and refreshed every epoch) only then.
    reads_board: bool,
    owner: &'a [u32],
    cap: u32,
    nv: usize,
    /// Links owned by this shard (their source router is owned).
    my_links: Vec<usize>,
    /// Routers owned by this shard.
    my_routers: Vec<VertexId>,
    /// The packet arena, split by slot into the per-hop [`Hot`] halves and
    /// the [`Cold`] rest, so the hot path's working set is 32 bytes a packet.
    hot: Vec<Hot>,
    cold: Vec<Cold>,
    free: Vec<usize>,
    /// A finite run's initial injections at this shard's routers, in
    /// `(time, stable_id)` order (empty in steady mode, and released once
    /// the cursor is spent).
    schedule: Vec<Injection>,
    /// The injection cursor: `schedule[inject_cursor..]` is not injected yet.
    inject_cursor: usize,
    /// Per-link transmit state, indexed by global link id.
    links: Vec<LinkSlot>,
    /// Per-link output-queue lengths, kept flat beside `links` because
    /// routing reads them across a router's ports as a slice.
    link_qlen: Vec<u32>,
    /// Sender-held credits per `(link, vc)`: downstream buffer slots this link
    /// may still claim on that VC. Consumed at transmit; refilled from
    /// `returns` when `try_transmit` reads them.
    credits: Vec<u32>,
    /// Credit returns not yet settled into `credits`, one time-ordered FIFO
    /// per source shard (this shard's own at index `sid`).
    returns: Vec<VecDeque<CreditReturn>>,
    /// The VC a parked link is waiting for a credit on (`u8::MAX` = not
    /// parked).
    waiting_vc: Vec<u8>,
    parked_count: usize,
    /// Parked links without a scheduled wake — no return for their
    /// `(link, waiting_vc)` lay below the epoch limit when they parked — each
    /// beside the earliest return recorded for that pool since (`u64::MAX` =
    /// none yet).
    unwoken: Vec<(u32, u64)>,
    /// Exclusive upper bound of the epoch being processed: every return below
    /// it has been recorded, every return recorded from now on lies at or
    /// past it.
    epoch_limit: u64,
    /// Live occupancy of owned routers (capacity/injection gating).
    occupancy: Vec<u32>,
    router_occ: Vec<u32>,
    /// Epoch-consistent snapshot of *all* routers' occupancy (routing
    /// signals; empty unless `reads_board`).
    occ_view: Vec<u32>,
    rocc_view: Vec<u32>,
    /// Per-router injections waiting for a VC-0 buffer slot, and their counts.
    pending_inject: Vec<Fifo>,
    pending_len: Vec<u32>,
    queue: LanedQueue<Event, 3>,
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
    /// message is never recorded as completed.
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
    last_delivery_ps: u64,
    sampled_packets: u64,
    sampled_bytes: u64,
}

impl<'a> ShardCore<'a> {
    /// Shard `sid` of `sim`'s partition, collecting into `stats`, with its
    /// injection cursor armed over `schedule`: a finite run's initial
    /// injections at this shard's routers (see [`super::packetize`]), which
    /// it sorts by `(time, stable_id)` on the shard's own thread. That is the
    /// order their `Inject` events pop in, so the schedule is its own
    /// injection stream: the epoch loop merges the cursor's head with the
    /// queue, and no initial injection is ever pushed. Stable ids are
    /// assigned before the sort, so no key, RNG stream or digest depends on
    /// it.
    fn new(
        sid: usize,
        sim: &'a Simulator<'_>,
        stats: StatsCollector,
        mut schedule: Vec<Injection>,
    ) -> Self {
        schedule.sort_unstable_by_key(|inj| (inj.time, inj.stable_id));
        let (net, cfg, owner) = (sim.net, sim.cfg, &sim.owner[..]);
        let shards = cfg.shards;
        let algo = sim.algo();
        let reads_board = algo.reads_remote_occupancy();
        let view = if reads_board { net.num_routers() } else { 0 };
        let nv = cfg.num_vcs;
        let link_slots: Vec<LinkSlot> = (0..net.num_directed_links())
            .map(|l| {
                let (src, port) = net.link_owner(l);
                LinkSlot {
                    free_at: 0,
                    queue: Fifo::EMPTY,
                    src,
                    dst: net.link_target(src, port),
                }
            })
            .collect();
        let links = link_slots.len();
        let my_routers: Vec<VertexId> = (0..net.num_routers() as VertexId)
            .filter(|&r| owner[r as usize] as usize == sid)
            .collect();
        let my_links: Vec<usize> = (0..links)
            .filter(|&l| owner[link_slots[l].src as usize] as usize == sid)
            .collect();
        ShardCore {
            sid,
            net,
            cfg,
            algo,
            reads_board,
            owner,
            cap: cfg.buffer_packets_per_vc as u32,
            nv,
            my_links,
            my_routers,
            hot: Vec::new(),
            cold: Vec::new(),
            free: Vec::new(),
            schedule,
            inject_cursor: 0,
            links: link_slots,
            link_qlen: vec![0; links],
            credits: vec![cfg.buffer_packets_per_vc as u32; links * nv],
            returns: (0..shards).map(|_| VecDeque::new()).collect(),
            waiting_vc: vec![u8::MAX; links],
            parked_count: 0,
            unwoken: Vec::new(),
            epoch_limit: 0,
            occupancy: vec![0; net.num_routers() * nv],
            router_occ: vec![0; net.num_routers()],
            occ_view: vec![0; view * nv],
            rocc_view: vec![0; view],
            pending_inject: vec![Fifo::EMPTY; net.num_routers()],
            pending_len: vec![0; net.num_routers()],
            queue: LanedQueue::new(),
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
            last_delivery_ps: 0,
            sampled_packets: 0,
            sampled_bytes: 0,
        }
    }

    #[inline]
    fn push(&mut self, time: u64, id: u64, kind: EventKind) {
        self.queue.push(Event::new(time, id, kind));
    }

    /// Schedule a transmit attempt on `link` at `time`: in the `now` lane if
    /// it is due at once, in the `transmit` lane if it is due later.
    #[inline]
    fn push_transmit(&mut self, time: u64, now: u64, link: usize) {
        let lane = if time == now { LANE_NOW } else { LANE_TRANSMIT };
        let kind = EventKind::TryTransmit { link: link as u32 };
        self.queue
            .push_lane(lane, Event::new(time, link as u64, kind));
    }

    /// Place a packet in the arena, reusing a freed slot when available, so
    /// steady-state runs recycle slots.
    fn alloc_packet(&mut self, (hot, cold): (Hot, Cold)) -> usize {
        let slot = match self.free.pop() {
            Some(i) => {
                self.hot[i] = hot;
                self.cold[i] = cold;
                i
            }
            None => {
                self.hot.push(hot);
                self.cold.push(cold);
                self.check_arena_index();
                self.hot.len() - 1
            }
        };
        self.counters.arena_slots = self.counters.arena_slots.max(self.hot.len() as u64);
        slot
    }

    /// Release slot `pi` and return its packet by value, for another shard:
    /// the far side's [`Self::alloc_packet`] places it again.
    fn hand_off(&mut self, pi: usize) -> (Hot, Cold) {
        self.free.push(pi);
        (self.hot[pi], self.cold[pi])
    }

    /// Events and FIFOs index the arena as `u32` (keeping them small — the
    /// queue moves millions), and index `u32::MAX` is the FIFOs' "none"
    /// ([`NIL`]), so the arena holds at most `u32::MAX` slots. An arena past
    /// 4G slots would be a >350 GB run, but fail loudly rather than truncate.
    fn check_arena_index(&self) {
        assert!(
            self.hot.len() <= u32::MAX as usize,
            "packet arena exceeded u32 index space (index u32::MAX is reserved \
             as the FIFOs' \"none\" value)"
        );
    }

    /// The cursor's next initial injection, as the event it stands for. Its
    /// packet has no arena slot yet ([`NIL`] stands in): no other event
    /// shares an injection's `(time, key)`, so the slot never decides the
    /// order.
    #[inline]
    fn inject_head(&self) -> Option<Event> {
        let inj = self.schedule.get(self.inject_cursor)?;
        let kind = EventKind::Inject {
            packet: NIL,
            router: inj.src_router,
        };
        Some(Event::new(inj.time, inj.stable_id, kind))
    }

    /// Pop the earliest event before `limit` under the full [`Event`] order:
    /// the queue's minimum (store and lanes) or the cursor's head,
    /// whichever is smaller.
    #[inline]
    fn pop_before(&mut self, limit: u64) -> Option<Event> {
        let head = self.inject_head();
        if let Some(ev) = self.queue.pop_before(limit, head.as_ref()) {
            return Some(ev);
        }
        head.filter(|h| h.time < limit)?;
        Some(self.inject_next())
    }

    /// Take the cursor's head: build its packet into an arena slot — a
    /// finite run's arena holds only the packets in flight, as a steady
    /// run's does — and return the `Inject` event that carries the slot. Out
    /// of line, so the steady loop's `pop_before`, which never gets here,
    /// stays small. The spent schedule is released.
    #[inline(never)]
    fn inject_next(&mut self) -> Event {
        let inj = self.schedule[self.inject_cursor];
        self.inject_cursor += 1;
        if self.inject_cursor == self.schedule.len() {
            self.schedule = Vec::new();
            self.inject_cursor = 0;
        }
        if self.fault.is_some() {
            self.fstats.injected += 1;
        }
        let packet = self.alloc_packet(inj.packet(driver::UNTAGGED)) as u32;
        let router = inj.src_router;
        Event::new(
            inj.time,
            inj.stable_id,
            EventKind::Inject { packet, router },
        )
    }

    #[inline]
    fn link_push(&mut self, link: usize, pi: usize) {
        self.links[link].queue.push(&mut self.hot, pi);
        self.link_qlen[link] += 1;
    }

    #[inline]
    fn link_pop(&mut self, link: usize) -> Option<usize> {
        let head = self.links[link].queue.pop(&self.hot)?;
        self.link_qlen[link] -= 1;
        Some(head)
    }

    fn pending_push(&mut self, router: VertexId, pi: usize) {
        self.pending_inject[router as usize].push(&mut self.hot, pi);
        self.pending_len[router as usize] += 1;
    }

    fn pending_pop(&mut self, router: VertexId) -> Option<usize> {
        let head = self.pending_inject[router as usize].pop(&self.hot)?;
        self.pending_len[router as usize] -= 1;
        Some(head)
    }

    #[inline]
    fn occ_inc(&mut self, router: VertexId, slot: usize) {
        self.occupancy[slot] += 1;
        self.router_occ[router as usize] += 1;
    }

    /// Release one buffer slot. Every slot released was claimed, so an
    /// occupancy already at 0 is an accounting leak (a double-counted drop),
    /// which a debug build stops on; a release build leaves it at 0.
    #[inline]
    fn occ_dec(&mut self, router: VertexId, slot: usize) {
        debug_assert!(
            self.occupancy[slot] > 0,
            "router {router} releases a VC {} buffer slot it does not hold",
            slot % self.nv
        );
        if self.occupancy[slot] > 0 {
            self.occupancy[slot] -= 1;
            self.router_occ[router as usize] -= 1;
        }
    }

    /// Route a credit return to the shard owning the link's sender side.
    fn send_credit(&mut self, link: u32, vc: u8, time: u64) {
        let ret = CreditReturn { time, link, vc };
        // At one shard every link is this shard's: skip the owner lookup.
        if self.out.len() > 1 {
            let o = self.owner[self.links[link as usize].src as usize] as usize;
            if o != self.sid {
                let from = self.sid;
                self.out[o].push(ShardMsg::Credit { from, ret });
                return;
            }
        }
        self.record_return(self.sid, ret);
    }

    /// Append a return to `from`'s FIFO (every return recorded during or
    /// after an epoch lies at or past its limit, so each FIFO stays sorted),
    /// and let it bid for the wake of a link parked on its pool.
    fn record_return(&mut self, from: usize, ret: CreditReturn) {
        debug_assert!(
            (self.returns[from].back()).is_none_or(|b| b.time <= ret.time),
            "credit returns from shard {from} out of time order"
        );
        if !self.unwoken.is_empty() && self.waiting_vc[ret.link as usize] == ret.vc {
            let waiting = self.unwoken.iter_mut().find(|(l, _)| *l == ret.link);
            if let Some((_, earliest)) = waiting {
                *earliest = (*earliest).min(ret.time);
            }
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

    /// The earliest pending event, initial injection or credit return
    /// (`u64::MAX` = none).
    fn next_time(&self) -> u64 {
        let fronts = self.returns.iter().filter_map(|f| f.front());
        let nt = self.queue.next_time().unwrap_or(u64::MAX);
        let head = self.inject_head().map_or(u64::MAX, |h| h.time);
        fronts.map(|r| r.time).fold(nt.min(head), u64::min)
    }

    fn push_wake(&mut self, time: u64, link: usize, vc: u8) {
        let kind = EventKind::Credit {
            link: link as u32,
            vc,
        };
        self.push(time, ((link as u64) << 8) | vc as u64, kind);
    }

    /// Park `link` until a credit for `(link, vc)` returns. The wake goes at
    /// the earliest recorded return if that lies below the epoch limit (no
    /// earlier one can still arrive); otherwise the link waits in `unwoken`.
    fn park(&mut self, link: usize, vc: u8) {
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
            _ => (self.unwoken).push((link as u32, earliest.unwrap_or(u64::MAX))),
        }
    }

    /// At an epoch start, when every return below the new limit is recorded:
    /// wake the unwoken links whose earliest return lies below it.
    fn schedule_due_wakes(&mut self) {
        let mut unwoken = std::mem::take(&mut self.unwoken);
        unwoken.retain(|&(l, t)| {
            let vc = self.waiting_vc[l as usize];
            if vc == u8::MAX {
                // A wake left behind by a fault flush has woken the link since.
                return false;
            }
            let due = t < self.epoch_limit;
            if due {
                self.push_wake(t, l as usize, vc);
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
        let router = self.cold[pi].src_router;
        let o = self.owner[router as usize] as usize;
        if o == self.sid {
            let kind = EventKind::Inject {
                packet: pi as u32,
                router,
            };
            self.push(time, self.hot[pi].stable_id, kind);
        } else {
            let packet = self.hand_off(pi);
            self.out[o].push(ShardMsg::Retransmit { time, packet });
        }
    }

    /// Route a packet arrival to the shard owning the downstream router,
    /// freeing the local arena slot on a cross-shard handoff.
    fn send_arrive(&mut self, time: u64, router: VertexId, pi: usize) {
        let o = self.owner[router as usize] as usize;
        if o == self.sid {
            let kind = EventKind::Arrive {
                packet: pi as u32,
                router,
            };
            let ev = Event::new(time, self.hot[pi].stable_id, kind);
            self.queue.push_lane(LANE_ARRIVE, ev);
        } else {
            let packet = self.hand_off(pi);
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
                let id = packet.0.stable_id;
                let slot = self.alloc_packet(packet);
                self.push(
                    time,
                    id,
                    EventKind::Arrive {
                        packet: slot as u32,
                        router,
                    },
                );
            }
            ShardMsg::Credit { from, ret } => self.record_return(from, ret),
            ShardMsg::Retransmit { time, packet } => {
                let (id, router) = (packet.0.stable_id, packet.1.src_router);
                let slot = self.alloc_packet(packet);
                let kind = EventKind::Inject {
                    packet: slot as u32,
                    router,
                };
                self.push(time, id, kind);
            }
        }
    }

    /// Process one core event. `NextMessage` belongs to the driving loop
    /// (steady mode) and never reaches this.
    fn handle_core(&mut self, ev: Event) {
        let now = ev.time;
        match ev.kind() {
            EventKind::Inject { packet, router } => {
                let pi = packet as usize;
                if let Some(fr) = self.fault.as_deref() {
                    let dst = self.hot[pi].dst_router;
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
                    self.pending_push(router, pi);
                }
            }
            EventKind::TryTransmit { link } => self.try_transmit(link as usize, now),
            EventKind::Arrive { packet, router } => {
                let pi = packet as usize;
                if let Some(fr) = self.fault.as_deref() {
                    let via = self.hot[pi].via_link;
                    let ser = serialization_ps(u64::from(self.hot[pi].bytes));
                    let flight_start = now.saturating_sub(ser + LOOKAHEAD_PS);
                    if via != u32::MAX && fr.last_down_ps[via as usize] > flight_start {
                        // The link died under the packet mid-flight. The packet
                        // never claims its downstream buffer slot (`occ_inc`
                        // happens below), so only its held credit goes back.
                        let vv = self.hot[pi].via_vc;
                        self.send_credit(via, vv, now + LOOKAHEAD_PS);
                        self.drop_packet(pi, now, DropReason::LinkDown);
                        return;
                    }
                }
                let vc = (self.hot[pi].hops as usize).min(self.nv - 1);
                self.occ_inc(router, router as usize * self.nv + vc);
                self.enter_router(pi, router, now);
                self.admit_pending(router, now);
            }
            EventKind::Fault { idx } => self.apply_fault(idx as usize, now),
            EventKind::Credit { link, vc } => {
                let l = link as usize;
                if self.waiting_vc[l] == vc {
                    self.waiting_vc[l] = u8::MAX;
                    self.parked_count -= 1;
                    self.counters.wakeups += 1;
                    let t = now.max(self.links[l].free_at);
                    self.push_transmit(t, now, l);
                }
            }
            EventKind::NextMessage { .. } => {
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
        if self.waiting_vc[link] != u8::MAX {
            // A credit wakeup will revive this link; nothing to do.
            return;
        }
        let LinkSlot {
            free_at,
            queue,
            src: src_router,
            dst: dst_router,
        } = self.links[link];
        let Some(pi) = queue.front() else {
            return;
        };
        if free_at > now {
            self.push_transmit(free_at, now, link);
            return;
        }
        let hops = self.hot[pi].hops as usize;
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
        let (via_link, via_vc) = (self.hot[pi].via_link, self.hot[pi].via_vc);
        if via_link != u32::MAX {
            self.send_credit(via_link, via_vc, now + LOOKAHEAD_PS);
        }
        // The link is free (`free_at ≤ now`): serialization starts now.
        let ser = serialization_ps(u64::from(self.hot[pi].bytes));
        let t = now + ser;
        self.links[link].free_at = t;
        let p = &mut self.hot[pi];
        p.hops += 1;
        p.via_link = link as u32;
        p.via_vc = next_vc as u8;
        self.send_arrive(t + LOOKAHEAD_PS, dst_router, pi);
        if self.links[link].queue.front().is_some() {
            self.push_transmit(t, now, link);
        }
    }

    /// A packet just became resident at `router`: deliver if home, else pick a
    /// port and enqueue.
    fn enter_router(&mut self, pi: usize, router: VertexId, now: u64) {
        self.hot[pi].note_arrival(router);
        let target = self.hot[pi].target();
        if target == router {
            let Hot {
                hops,
                bytes,
                via_link,
                via_vc,
                ..
            } = self.hot[pi];
            let Cold {
                inject_time_ps,
                msg_first_inject: first,
                first_drop_ps: fd,
                tag,
                ..
            } = self.cold[pi];
            let bytes = u64::from(bytes);
            let vc = (hops as usize).min(self.nv - 1);
            self.occ_dec(router, router as usize * self.nv + vc);
            let latency = now - inject_time_ps;
            self.stats.record_packet(latency, hops, bytes, now);
            if tag.tenant != u32::MAX {
                self.stats
                    .record_tenant_packet(tag.tenant, latency, bytes, now);
            }
            self.delivered_packets_total += 1;
            self.delivered_bytes_total += bytes;
            self.last_delivery_ps = now;
            if self.fault.is_some() {
                self.fstats.delivered += 1;
                if fd != u64::MAX {
                    // The packet was dropped at least once and still made it
                    // home: its recovery time is first-drop → delivery.
                    let rec = now.saturating_sub(fd);
                    self.fstats.recovered += 1;
                    self.fstats.total_recovery_ps += rec;
                    self.fstats.max_recovery_ps = self.fstats.max_recovery_ps.max(rec);
                }
            }
            if via_link != u32::MAX {
                self.send_credit(via_link, via_vc, now + LOOKAHEAD_PS);
            }
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
            let reason = if self.hot[pi].hops >= fr.ttl {
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
                    let (via, hops) = (self.hot[pi].via_link, self.hot[pi].hops);
                    let attempts = self.cold[pi].attempts;
                    let links = &self.links;
                    let prev = (via != u32::MAX).then(|| links[via as usize].src);
                    let salt = hops.wrapping_add(attempts.wrapping_mul(31));
                    routing::best_alive_port(self.net, router, target, prev, salt, |l| {
                        // Static distance can point into a component the
                        // damage has cut off from the target — require the
                        // next hop to share the target's alive component.
                        fr.link_alive(l) && fr.reachable(links[l].dst, target)
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
            let t = now.max(self.links[link].free_at);
            self.push_transmit(t, now, link);
        }
    }

    /// Count delivered packet `pi` against its message; `true` when it was the
    /// message's last. A one-packet message never touches the table.
    fn message_complete(&mut self, pi: usize) -> bool {
        let (msg_id, total) = (self.cold[pi].msg_id, self.cold[pi].msg_total);
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
        let vc = (self.hot[pi].hops as usize).min(self.nv - 1);
        self.occ_dec(router, router as usize * self.nv + vc);
        let (via_link, via_vc) = (self.hot[pi].via_link, self.hot[pi].via_vc);
        if via_link != u32::MAX {
            self.send_credit(via_link, via_vc, now + LOOKAHEAD_PS);
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
            let next = idx as u32 + 1;
            self.push(t, u64::from(next), EventKind::Fault { idx: next });
        }
        self.fault = Some(fr);
        for link in newly_dead {
            // Only the owner shard holds queue/park state for a link; other
            // shards took the same mask flip and have nothing to flush.
            if self.owner[self.links[link].src as usize] as usize == self.sid {
                self.flush_dead_link(link, now, reason);
            }
        }
        if let FaultEventKind::RouterDown { r } = ev.kind {
            if self.owner[r as usize] as usize == self.sid {
                while let Some(pi) = self.pending_pop(r) {
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
        let src_router = self.links[link].src;
        if self.waiting_vc[link] != u8::MAX {
            self.waiting_vc[link] = u8::MAX;
            self.parked_count -= 1;
            self.unwoken.retain(|&(l, _)| l as usize != link);
        }
        while let Some(pi) = self.link_pop(link) {
            let vc = (self.hot[pi].hops as usize).min(self.nv - 1);
            self.occ_dec(src_router, src_router as usize * self.nv + vc);
            if vc == 0 {
                self.admit_pending(src_router, now);
            }
            let (via_link, via_vc) = (self.hot[pi].via_link, self.hot[pi].via_vc);
            if via_link != u32::MAX {
                self.send_credit(via_link, via_vc, now + LOOKAHEAD_PS);
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
            let c = &mut self.cold[pi];
            if c.first_drop_ps == u64::MAX {
                c.first_drop_ps = now;
            }
            c.attempts
        };
        let h = &mut self.hot[pi];
        h.via_link = u32::MAX;
        h.via_vc = 0;
        if attempts < RETRANSMIT_BUDGET {
            let attempt = attempts + 1;
            self.cold[pi].attempts = attempt;
            let h = &mut self.hot[pi];
            h.hops = 0;
            h.intermediate = NIL;
            self.fstats.retransmits += 1;
            let t = now + retransmit_backoff_ps(attempt);
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
    /// congestion snapshot and a per-decision counter RNG. The packet's
    /// detour goes to the router as a [`routing::RoutingState`] and comes back into
    /// [`Hot::intermediate`].
    fn route_forward(&mut self, pi: usize, router: VertexId) -> usize {
        let Hot {
            stable_id,
            dst_router: dst,
            hops,
            ..
        } = self.hot[pi];
        let mut state = self.hot[pi].routing_state();
        let mut rng = DecisionRng::new(self.cfg.seed, stable_id, hops);
        let mut ctx = RoutingCtx::new(
            self.net,
            &self.link_qlen,
            &self.occ_view,
            &self.rocc_view,
            self.nv,
            router,
            dst,
            hops,
            &mut rng,
            &mut self.route_scratch,
        );
        let port = self.algo.route(&mut ctx, &mut state);
        // Hard assert (not debug_assert): Router is a third-party extension
        // point, and an out-of-range port would otherwise silently index into
        // the next router's link range far from the buggy decision.
        assert!(
            port < self.net.graph().degree(router),
            "router {} returned out-of-range port {port} at router {router}",
            self.algo.name()
        );
        debug_assert_ne!(state.intermediate, Some(NIL), "a detour to router id NIL");
        self.hot[pi].intermediate = state.intermediate.unwrap_or(NIL);
        port
    }

    fn admit_pending(&mut self, router: VertexId, now: u64) {
        if self.pending_len[router as usize] == 0 {
            return;
        }
        let slot = router as usize * self.nv;
        if self.occupancy[slot] < self.cap {
            if let Some(wpkt) = self.pending_pop(router) {
                let kind = EventKind::Inject {
                    packet: wpkt as u32,
                    router,
                };
                self.push(now, self.hot[wpkt].stable_id, kind);
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

    /// Every FIFO, followed from its head, ends at its tail and holds exactly
    /// the count its flat mirror says (`link_qlen`, `pending_len`).
    fn check_fifos(&self) {
        for (l, slot) in self.links.iter().enumerate() {
            let len = slot.queue.walk(&self.hot).len();
            assert_eq!(len, self.link_qlen[l] as usize, "link {l}'s FIFO");
        }
        for (r, fifo) in self.pending_inject.iter().enumerate() {
            let len = fifo.walk(&self.hot).len();
            assert_eq!(
                len, self.pending_len[r] as usize,
                "router {r}'s pending FIFO"
            );
        }
    }

    fn into_outcome(self) -> ShardOutcome {
        if cfg!(debug_assertions) {
            self.check_fifos();
        }
        ShardOutcome {
            delivered_packets: self.delivered_packets_total,
            in_queues: self.link_qlen.iter().map(|&q| q as usize).sum(),
            pending: self.pending_len.iter().map(|&q| q as usize).sum(),
            occ_sum: self.occupancy.iter().sum(),
            parked: self.parked_count,
            unspent: self.schedule.len() - self.inject_cursor,
            quiescent: self.next_time() == u64::MAX,
            last_delivery_ps: self.last_delivery_ps,
            stats: self.stats,
            counters: EngineCounters {
                store_events: self.queue.store_pops(),
                ..self.counters
            },
            samples: self.raw_samples,
            fstats: self.fstats,
        }
    }
}

/// The conservative epoch loop: reduce `m` → refresh the congestion view →
/// process `< min(m + E, deadline + 1)` → exchange. `shared` is `None` at one
/// shard, where `m` is the core's own next time, the view is a copy of its
/// own occupancy and there is nothing to exchange. `handle` dispatches one
/// event (the steady driver intercepts `NextMessage` here).
fn run_epochs<'a, F>(
    core: &mut ShardCore<'a>,
    shared: Option<&EpochShared>,
    deadline: Option<u64>,
    mut handle: F,
) where
    F: FnMut(&mut ShardCore<'a>, Event),
{
    loop {
        let m = match shared {
            Some(shared) => shared.min_next_time(core),
            None => core.next_time(),
        };
        // Every shard computes the same `m`, so every shard breaks together.
        if m == u64::MAX || deadline.is_some_and(|d| m > d) {
            break;
        }
        if core.reads_board {
            match shared {
                Some(shared) => shared.exchange_board(core),
                None => {
                    core.occ_view.copy_from_slice(&core.occupancy);
                    core.rocc_view.copy_from_slice(&core.router_occ);
                }
            }
        }
        let mut limit = m.saturating_add(LOOKAHEAD_PS);
        if let Some(d) = deadline {
            // Cap at the drain deadline so over-deadline events are never
            // popped.
            limit = limit.min(d.saturating_add(1));
        }
        core.epoch_limit = limit;
        if !core.unwoken.is_empty() {
            core.schedule_due_wakes();
        }
        while let Some(ev) = core.pop_before(limit) {
            core.counters.events += 1;
            handle(core, ev);
        }
        // Returns below the limit are what this epoch's credit events were:
        // settled now, they cannot hold the next published time back.
        core.settle_returns(limit - 1);
        if let Some(shared) = shared {
            shared.exchange_messages(core);
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

/// The three calls the run driver makes into the core.
impl ShardCore<'_> {
    /// Packetize one message from `src_ep` to `dst_ep` through the source
    /// endpoint's NIC (no earlier than `now`, behind whatever the NIC is still
    /// serializing) and queue one injection per packet, on the shard owning
    /// `src_ep`'s router. `tag` attributes the message to a tenant
    /// ([`driver::UNTAGGED`] outside jobs mode).
    pub(super) fn inject_message(
        &mut self,
        now: u64,
        src_ep: usize,
        dst_ep: usize,
        bytes: u64,
        tag: MsgTag,
    ) {
        let net = self.net;
        let segments = segment_message(bytes);
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
            let injection = Injection {
                time: t,
                stable_id,
                msg_id,
                msg_first_inject: first,
                src_router,
                dst_router,
                bytes: pkt_bytes as u32,
                msg_total: total,
            };
            let slot = self.alloc_packet(injection.packet(tag));
            if self.fault.is_some() {
                self.fstats.injected += 1;
            }
            self.stats.note_injection(t);
            let kind = EventKind::Inject {
                packet: slot as u32,
                router: src_router,
            };
            self.push(t, stable_id, kind);
            t += nic_ser;
        }
        self.nics.nic_free[src_ep] = t;
    }

    /// Queue the next arrival of source `source` (sending from `endpoint`).
    pub(super) fn schedule_source(&mut self, time: u64, source: u32, endpoint: usize) {
        self.push(time, endpoint as u64, EventKind::NextMessage { source });
    }

    /// Install the runtime fault machinery over `timeline` and queue its
    /// first live entry (see [`driver::fault_runtime`] for `finite`). Every
    /// shard arms (and then replays) the identical chain.
    pub(super) fn arm_faults(&mut self, timeline: &Arc<FaultTimeline>, finite: bool) {
        let (runtime, first) = driver::fault_runtime(self.net, timeline, finite);
        if let Some((time, idx)) = first {
            self.push(time, u64::from(idx), EventKind::Fault { idx });
        }
        self.fault = Some(runtime);
    }
}

/// The packet-level simulator.
///
/// Routers are assigned to [`SimConfig::shards`] shards by recursive
/// multilevel FM bisection of the topology
/// ([`spectralfly_graph::partition_kway`] — minimizing the links crossing
/// shards minimizes cross-shard traffic); at one shard it returns at once.
/// One shard runs on the calling thread; more co-simulate on one worker
/// thread each under the conservative epoch protocol (see [the engine
/// module](super) and docs/ARCHITECTURE.md § "The event core: shards, epochs, credits").
///
/// Results are **shard-count-invariant**: for a given network, config, and
/// workload, every shard count produces the identical [`SimResults`] —
/// including the steady-state [`IntervalSample`] series, whose per-shard
/// partials are folded by tick index (engine counters excepted: arena
/// high-water marks depend on the partition).
pub struct Simulator<'a> {
    net: &'a SimNetwork,
    cfg: &'a SimConfig,
    /// The routing algorithm, resolved once from the registry at
    /// construction — or why no run can start (see
    /// [`super::resolve_router`]).
    router: Result<Box<dyn Router>, SimError>,
    owner: Vec<u32>,
}

impl<'a> Simulator<'a> {
    /// Create a simulator over a network with a configuration.
    ///
    /// A `cfg.routing` that names no registered algorithm (see
    /// [`crate::routing`]) or a field out of range ([`SimError::Config`]) is
    /// reported by the first `try_*` call.
    pub fn new(net: &'a SimNetwork, cfg: &'a SimConfig) -> Self {
        let router = super::resolve_router(cfg);
        let bisect = BisectConfig::default();
        // A zero shard count is already `router`'s error: partition for one
        // shard so that the constructor itself never fails.
        let owner = partition_kway(net.graph(), cfg.shards.max(1), &bisect, PARTITION_SEED);
        Simulator {
            net,
            cfg,
            router,
            owner,
        }
    }

    /// The router→shard assignment in use (length [`SimNetwork::num_routers`]).
    pub fn shard_assignment(&self) -> &[u32] {
        &self.owner
    }

    /// The routing algorithm, for the shards.
    fn algo(&self) -> &dyn Router {
        (self.router.as_deref())
            .expect("the front door returns the setup error before any shard is built")
    }

    /// Run the workload with message injections spaced exactly as the workload specifies
    /// (each source's messages additionally serialized through its NIC).
    ///
    /// Measurement windows, if configured, are ignored here: a workload-paced
    /// run is finite and runs to completion.
    ///
    /// Workloads that a fault plan has made infeasible are rejected before
    /// any simulation work, never as a hang or a mid-run panic: a referenced
    /// endpoint on a down router yields [`crate::Infeasible::RouterDown`], a
    /// message pair separated by the damage yields
    /// [`crate::Infeasible::Disconnected`]. A run that quiesces with packets
    /// parked in a cyclic head-of-line wait yields [`SimError::Deadlock`].
    pub fn try_run(&self, workload: &Workload) -> Result<SimResults, SimError> {
        self.simulate(workload, None)
    }

    /// Run the workload with Poisson-spaced injections corresponding to an offered load in
    /// `(0, 1]` — the fraction of endpoint injection bandwidth the sources try to use
    /// (the x-axis of Figures 6–8 in the paper).
    ///
    /// Without [`SimConfig::windows`] this is a finite run: every workload message is
    /// injected once (Poisson-spaced) and the network drains to empty. With windows
    /// configured it is a **steady run**: the job mix ([`SimConfig::jobs`], which a
    /// steady run requires) drives continuous sources under steady-state measurement
    /// (see [`crate::config::MeasurementWindows`]), the offered load multiplies every
    /// tenant's load, and `workload` is ignored.
    ///
    /// Runs that a fault plan has made infeasible are rejected up front.
    /// Finite runs validate every workload message pair (like
    /// [`Simulator::try_run`]). Steady runs instead require every surviving
    /// router to sit in one connected component
    /// ([`crate::Infeasible::Fragmented`] otherwise): the mix is placed on the
    /// alive endpoints and draws destinations across the surviving machine.
    ///
    /// A tenant's pattern speaks in its own ranks over those alive endpoints.
    /// Uniform patterns are unaffected, but group-structured specs
    /// (`adversarial(g)`, `nearest-group(g)`) see group boundaries shift by
    /// however many endpoints died before them — once routers are down,
    /// treat group-aligned results as approximate (or pass a group size in
    /// surviving-rank units).
    ///
    /// A run that quiesces with links parked in a cyclic head-of-line wait
    /// yields [`SimError::Deadlock`] in every mode: a finite run with packets
    /// undelivered, a steady run whose event queue empties before its drain
    /// deadline (its diagnosis adds when the last packet was delivered).
    pub fn try_run_with_offered_load(
        &self,
        workload: &Workload,
        offered_load: f64,
    ) -> Result<SimResults, SimError> {
        self.simulate(workload, Some(offered_load))
    }

    /// Through the driver's front door, then into the finite or steady run.
    fn simulate(
        &self,
        workload: &Workload,
        offered_load: Option<f64>,
    ) -> Result<SimResults, SimError> {
        let run = RunPlan::new(self.net, self.cfg, &self.router, workload, offered_load)?;
        match &run.mode {
            Mode::Finite { offered_load } => self.run_finite(&run, workload, *offered_load),
            Mode::Steady(steady) => self.run_steady(&run, steady),
        }
    }

    /// The one shard launcher: each shard builds its [`ShardCore`] over its
    /// schedule (collecting into a fresh `stats()`), runs `drive` on it, and
    /// hands its outcome back — on the calling thread at one shard, on a
    /// scoped thread per shard otherwise.
    fn run_sharded(
        &self,
        stats: impl Fn() -> StatsCollector + Sync,
        schedules: Vec<Vec<Injection>>,
        drive: impl Fn(&mut ShardCore<'_>, Option<&EpochShared>) + Sync,
    ) -> Vec<ShardOutcome> {
        let mut schedules = schedules.into_iter();
        let shards = self.cfg.shards;
        if shards == 1 {
            let schedule = schedules.next().unwrap_or_default();
            let mut core = ShardCore::new(0, self, stats(), schedule);
            drive(&mut core, None);
            return vec![core.into_outcome()];
        }
        let board = self.algo().reads_remote_occupancy();
        let shared = EpochShared::new(shards, self.net, self.cfg, board);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|sid| {
                    let (shared, stats, drive) = (&shared, &stats, &drive);
                    let schedule = schedules.next().unwrap_or_default();
                    scope.spawn(move || {
                        let _guard = PoisonGuard(&shared.barrier);
                        let mut core = ShardCore::new(sid, self, stats(), schedule);
                        drive(&mut core, Some(shared));
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

    /// Finite drain-to-empty run. The schedule is packetized once, on the
    /// calling thread, into one list of injection records per shard; each
    /// shard sorts its own list and its cursor walks it. The shards' arenas
    /// start empty and hold only the packets in flight, so an arena's
    /// high-water mark is the shard's in-flight peak.
    fn run_finite(
        &self,
        run: &RunPlan<'_>,
        workload: &Workload,
        offered_load: Option<f64>,
    ) -> Result<SimResults, SimError> {
        if workload.messages.is_empty() {
            return Ok(StatsCollector::default().finish());
        }
        let schedules = packetize(self.net, self.cfg, workload, offered_load, &self.owner);
        let total = schedules.iter().map(Vec::len).sum::<usize>() as u64;
        let launch = |core: &mut ShardCore<'_>, shared: Option<&EpochShared>| {
            if let Some(timeline) = &run.timeline {
                core.arm_faults(timeline, true);
            }
            run_epochs(core, shared, None, |c, ev| c.handle_core(ev));
        };
        let outs = self.run_sharded(StatsCollector::default, schedules, launch);

        let delivered: u64 = outs.iter().map(|o| o.delivered_packets).sum();
        let failed: u64 = outs.iter().map(|o| o.fstats.failed).sum();
        if delivered + failed < total {
            return Err(driver::undrained(
                total - delivered - failed,
                outs.iter().map(|o| o.unspent).sum(),
                outs.iter().map(|o| o.parked).sum(),
                outs.iter().map(|o| o.in_queues).sum(),
                outs.iter().map(|o| o.pending).sum(),
                outs.iter().map(|o| o.occ_sum).sum(),
            ));
        }
        Ok(self.fold_outcomes(outs, StatsCollector::default()))
    }

    /// Steady-state run: every shard arms the traffic of the endpoints on its
    /// own routers — its ranks of the job mix, resolved once on the main
    /// thread so every shard count executes the identical plan — under
    /// windowed measurement, with per-shard sample partials folded by tick
    /// index. A run whose event queue empties before its deadline with links
    /// still parked has wedged, and returns [`SimError::Deadlock`] instead of
    /// a window.
    fn run_steady(&self, run: &RunPlan<'_>, steady: &Steady<'_>) -> Result<SimResults, SimError> {
        let w = steady.windows;
        let deadline = w.deadline_ps();
        let launch = |core: &mut ShardCore<'_>, shared: Option<&EpochShared>| {
            let sid = core.sid;
            let owns =
                |ep: usize| self.owner[self.net.router_of_endpoint(ep) as usize] as usize == sid;
            let mut traffic = Traffic::arm(core, run, steady, owns);
            // Sampling is event-free: each shard folds its local partial
            // whenever event time crosses a tick boundary (and below, after
            // the loop, for the trailing ticks).
            core.arm_sampler(w.sample_interval_ps(), deadline);
            run_epochs(core, shared, Some(deadline), |c, ev| {
                c.flush_sample_ticks(ev.time);
                match ev.kind() {
                    EventKind::NextMessage { source } => {
                        traffic.next_message(c, source as usize, ev.time)
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
        let outs = self.run_sharded(|| steady.stats(), Vec::new(), launch);
        let parked: usize = outs.iter().map(|o| o.parked).sum();
        if parked > 0 && outs.iter().all(|o| o.quiescent) {
            return Err(driver::wedged(
                parked,
                outs.iter().map(|o| o.in_queues).sum(),
                outs.iter().map(|o| o.pending).sum(),
                outs.iter().map(|o| o.occ_sum).sum(),
                outs.iter().map(|o| o.last_delivery_ps).max().unwrap_or(0),
            ));
        }
        Ok(self.fold_outcomes(outs, steady.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MeasurementWindows, PACKET_BYTES};
    use crate::fault::FaultScript;
    use crate::workload::{Message, Workload};
    use spectralfly_graph::CsrGraph;

    fn ring(n: usize) -> CsrGraph {
        let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        e.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &e)
    }

    /// Every kind survives the trip through the stored event, at payloads 0
    /// and `u32::MAX`, VC 0 and 255, and ids whose bits past 56 are dropped.
    #[test]
    fn every_event_kind_round_trips_through_the_stored_event() {
        for x in [0, u32::MAX] {
            let kinds = [
                EventKind::Fault { idx: x },
                EventKind::NextMessage { source: x },
                EventKind::Inject {
                    packet: x,
                    router: x,
                },
                EventKind::Inject {
                    packet: x,
                    router: !x,
                },
                EventKind::Credit { link: x, vc: 0 },
                EventKind::Credit {
                    link: x,
                    vc: u8::MAX,
                },
                EventKind::Arrive {
                    packet: x,
                    router: x,
                },
                EventKind::Arrive {
                    packet: x,
                    router: !x,
                },
                EventKind::TryTransmit { link: x },
            ];
            for kind in kinds {
                for id in [0, u64::MAX] {
                    let ev = Event::new(u64::MAX, id, kind);
                    assert_eq!((ev.time, ev.kind()), (u64::MAX, kind));
                }
            }
        }
    }

    /// Sorting a seeded batch by the derived `(time, key, a, b)` order is
    /// sorting it by `(time, key, kind)`. Times, ids and payloads come from
    /// ranges of three or four values, so every level of the order ties.
    #[test]
    fn derived_event_order_is_the_time_key_kind_order() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3606);
        let values = [0, 1, u32::MAX];
        let batch: Vec<(Event, EventKind)> = (0..4096)
            .map(|_| {
                let x = values[rng.gen_range(0..3usize)];
                let y = values[rng.gen_range(0..3usize)];
                let kind = match rng.gen_range(0..6) {
                    0 => EventKind::Fault { idx: x },
                    1 => EventKind::NextMessage { source: x },
                    2 => EventKind::Inject {
                        packet: x,
                        router: y,
                    },
                    3 => EventKind::Credit {
                        link: x,
                        vc: y as u8,
                    },
                    4 => EventKind::Arrive {
                        packet: x,
                        router: y,
                    },
                    _ => EventKind::TryTransmit { link: x },
                };
                let ev = Event::new(rng.gen_range(0..4), rng.gen_range(0..3), kind);
                (ev, kind)
            })
            .collect();
        let mut derived = batch.clone();
        derived.sort_by_key(|&(ev, _)| ev);
        let mut by_kind = batch;
        by_kind.sort_by_key(|&(ev, kind)| (ev.time, ev.key, kind));
        assert_eq!(derived, by_kind);
    }

    /// Engine-counter-free view of results: arena high-water marks depend on
    /// the partition, so cross-shard-count equality is asserted on the
    /// physics (interval samples included), not the bookkeeping.
    fn core_fields(r: &SimResults) -> SimResults {
        let mut r = r.clone();
        r.engine = EngineCounters::default();
        r
    }

    /// One `bytes`-byte message from endpoint 0 to `dst`.
    fn one_message(dst: usize, bytes: u64) -> Workload {
        let m = Message {
            src: 0,
            dst,
            bytes,
            inject_offset_ps: 0,
        };
        Workload::new("one", vec![m])
    }

    /// [`one_message`], run under the default configuration.
    fn run_one(net: &SimNetwork, dst: usize, bytes: u64) -> SimResults {
        let wl = one_message(dst, bytes);
        Simulator::new(net, &SimConfig::default())
            .try_run(&wl)
            .unwrap()
    }

    #[test]
    fn single_packet_latency_is_deterministic_and_correct() {
        // One 4096-byte packet over exactly one hop.
        let net = SimNetwork::new(ring(4), 1);
        let res = run_one(&net, 1, 4096);
        assert_eq!((res.delivered_packets, res.delivered_messages), (1, 1));
        // Latency = serialization + link latency + router latency.
        let expected = serialization_ps(4096) + LOOKAHEAD_PS;
        assert_eq!(res.max_packet_latency_ps, expected);
        assert_eq!(res.mean_hops, 1.0);
    }

    /// Adaptive minimal routing splits a message to the antipode of a ring
    /// across both directions, so packets can overtake each other; message
    /// latency must still span first injection to last delivery.
    #[test]
    fn multi_packet_message_latency_spans_first_inject_to_last_delivery() {
        let net = SimNetwork::new(ring(8), 1);
        let res = run_one(&net, 4, 10 * 4096);
        assert_eq!((res.delivered_packets, res.delivered_messages), (10, 1));
        assert_eq!(res.max_message_latency_ps, res.completion_time_ps);
        assert!(res.max_message_latency_ps >= res.max_packet_latency_ps);
    }

    #[test]
    fn message_segmentation_into_packets() {
        // 10 KB message with 4 KB packets -> 3 packets (the last partial), 1 message.
        let net = SimNetwork::new(ring(3), 1);
        let res = run_one(&net, 2, 10_240);
        assert_eq!((res.delivered_packets, res.delivered_messages), (3, 1));
        assert_eq!(res.delivered_bytes, 10_240);
    }

    #[test]
    fn minimal_routing_takes_shortest_paths_when_uncongested() {
        let net = SimNetwork::new(ring(10), 1);
        let res = run_one(&net, 5, 512);
        assert_eq!(res.max_hops, 5);
    }

    #[test]
    fn self_destination_on_same_router_is_delivered_without_hops() {
        // Two endpoints on the same router exchange a message: zero network hops.
        let net = SimNetwork::new(CsrGraph::from_edges(2, &[(0, 1)]), 2);
        let res = run_one(&net, 1, 256);
        assert_eq!((res.delivered_packets, res.max_hops), (1, 0));
    }

    #[test]
    fn congestion_increases_latency_with_offered_load() {
        let net = SimNetwork::new(ring(8), 2);
        let cfg = SimConfig::default();
        let wl = Workload::uniform_random(net.num_endpoints(), 30, 4096, 5);
        let sim = Simulator::new(&net, &cfg);
        let light = sim.try_run_with_offered_load(&wl, 0.1).unwrap();
        let heavy = sim.try_run_with_offered_load(&wl, 0.9).unwrap();
        assert_eq!(light.delivered_packets, heavy.delivered_packets);
        assert!(heavy.mean_packet_latency_ps > light.mean_packet_latency_ps);
    }

    /// A steady mix on a degraded network runs over the surviving machine; a
    /// fragmented or empty surviving machine is rejected up front.
    #[test]
    fn degraded_steady_pattern_runs_over_survivors() {
        use crate::fault::{FaultError, FaultPlan, Infeasible};
        let fragmented = |components| {
            Err::<SimResults, _>(SimError::Fault(FaultError::Other(Infeasible::Fragmented {
                components,
            })))
        };
        // The survivors of `router(2)` form a 7-router path: diameter 6.
        let cfg = SimConfig::default()
            .with_routing("ugal-l", 6)
            .with_windows(MeasurementWindows::new(2_000_000, 20_000_000))
            .with_jobs("traffic(1, random)");
        let wl = Workload::default();
        let run = |plan: &str| {
            let plan = FaultPlan::parse(plan).unwrap();
            let net = SimNetwork::with_faults(ring(8), 2, &plan).unwrap();
            Simulator::new(&net, &cfg).try_run_with_offered_load(&wl, 0.3)
        };
        let m = run("router(2)").unwrap().measurement.expect("a summary");
        assert!(m.delivered_packets > 20, "got {}", m.delivered_packets);
        assert_eq!(run("link(0,7) + link(3,4)"), fragmented(2));
        assert_eq!(run("routers(8)"), fragmented(0));
    }

    /// A script whose events all lie past the fault horizon (1 ms by
    /// default) leaves the run untouched and the fault stats clean.
    #[test]
    fn fault_script_beyond_horizon_is_inert() {
        let net = SimNetwork::new(ring(6), 1);
        let cfg = SimConfig::default()
            .with_fault_script(FaultScript::parse("at(2ms, links(0.5))").unwrap());
        let wl = Workload::uniform_random(net.num_endpoints(), 5, 1024, 3);
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        assert_eq!(
            (res.faults.fault_events, res.faults.dropped_total()),
            (0, 0)
        );
        assert_eq!(res.faults.injected, res.faults.delivered);
        let pristine = Simulator::new(&net, &SimConfig::default())
            .try_run(&wl)
            .unwrap();
        assert_eq!(res.delivered_packets, pristine.delivered_packets);
        assert_eq!(res.mean_packet_latency_ps, pristine.mean_packet_latency_ps);
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
            results.push(core_fields(
                &Simulator::new(&net, &cfg).try_run(&wl).unwrap(),
            ));
        }
        for r in &results[1..] {
            assert_eq!(results[0], *r);
        }
        assert!(results[0].delivered_packets > 0);
    }

    #[test]
    fn steady_state_is_identical_across_shard_counts() {
        let net = SimNetwork::new(ring(6), 2);
        let wl = Workload::default();
        let mut results = Vec::new();
        for shards in [1usize, 2, 4] {
            let cfg = SimConfig::default()
                .with_routing("ugal-g", net.diameter() as u32)
                .with_windows(MeasurementWindows::new(2_000_000, 20_000_000))
                .with_jobs("traffic(1, random)")
                .with_shards(shards);
            let res = Simulator::new(&net, &cfg)
                .try_run_with_offered_load(&wl, 0.4)
                .unwrap();
            results.push(core_fields(&res));
        }
        for r in &results[1..] {
            assert_eq!(results[0], *r);
        }
        let m = results[0].measurement.expect("steady run has a summary");
        assert!(m.delivered_packets > 20, "got {}", m.delivered_packets);
        assert!(!results[0].samples.is_empty());
    }

    /// The arena recycles delivered slots in steady-state mode instead of
    /// growing per injected packet.
    #[test]
    fn steady_state_arena_stays_bounded() {
        let net = SimNetwork::new(ring(6), 1);
        let cfg = SimConfig::default()
            .with_windows(MeasurementWindows::new(2_000_000, 30_000_000))
            .with_jobs("traffic(1, random)");
        let wl = Workload::default();
        let res = Simulator::new(&net, &cfg)
            .try_run_with_offered_load(&wl, 0.3)
            .unwrap();
        let m = res.measurement.expect("steady-state run has a summary");
        assert!(m.delivered_packets > 50, "got {}", m.delivered_packets);
        assert!(
            res.engine.arena_slots < m.injected_packets,
            "arena grew to {} slots for {} measured injections",
            res.engine.arena_slots,
            m.injected_packets
        );
    }

    /// The finite twin of [`steady_state_arena_stays_bounded`]: the cursor
    /// builds each packet when it injects it and delivery frees its slot, so
    /// a finite run's arena holds the packets in flight, not the schedule.
    #[test]
    fn finite_arena_holds_packets_in_flight() {
        let net = SimNetwork::new(ring(8), 2);
        let wl = Workload::uniform_random(net.num_endpoints(), 50, 4096, 23);
        let res = Simulator::new(&net, &SimConfig::default())
            .try_run_with_offered_load(&wl, 0.5)
            .unwrap();
        let injected = 50 * net.num_endpoints() as u64;
        assert_eq!(res.delivered_packets, injected);
        assert!(
            res.engine.arena_slots * 10 < injected,
            "arena grew to {} slots for {injected} injected packets",
            res.engine.arena_slots
        );
    }

    /// The schedule's numbering: injection `i` has stable id `i` in
    /// `(source, offset, message)` order, message `m`'s injections carry
    /// message id `m` and its first injection time, and the last packet of a
    /// message carries the remainder. Pinned from the packetizer that built
    /// whole packets.
    #[test]
    fn schedule_numbering_is_pinned() {
        let net = SimNetwork::new(ring(3), 1);
        let message = |src, dst, bytes| Message {
            src,
            dst,
            bytes,
            inject_offset_ps: 0,
        };
        let messages = vec![message(2, 0, 100), message(0, 1, 2 * 4096 + 100)];
        let wl = Workload::new("two", messages);
        let schedule = packetize(&net, &SimConfig::default(), &wl, Some(0.5), &[0; 3]).remove(0);
        let record =
            |time, stable_id, msg_id, msg_first_inject, src, dst, bytes, msg_total| Injection {
                time,
                stable_id,
                msg_id,
                msg_first_inject,
                src_router: src,
                dst_router: dst,
                bytes,
                msg_total,
            };
        let expected = [
            record(44_476, 0, 1, 44_476, 0, 1, 4096, 3),
            record(372_156, 1, 1, 44_476, 0, 1, 4096, 3),
            record(699_836, 2, 1, 44_476, 0, 1, 100, 3),
            record(81_803, 3, 0, 81_803, 2, 0, 100, 1),
        ];
        assert_eq!(schedule, expected);
    }

    #[test]
    fn deterministic_given_seed() {
        let net = SimNetwork::new(ring(6), 2);
        let cfg = SimConfig::default()
            .with_routing("valiant", net.diameter() as u32)
            .with_shards(2);
        let wl = Workload::uniform_random(net.num_endpoints(), 8, 1024, 11);
        let a = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        let b = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_assignment_covers_all_routers() {
        let net = SimNetwork::new(ring(8), 1);
        let cfg = SimConfig::default().with_shards(4);
        let sim = Simulator::new(&net, &cfg);
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
                    FaultScript::parse("at(1us, links(0.25)) + at(60us, heal(all))")
                        .unwrap()
                        .with_seed(11),
                );
            let res = Simulator::new(&net, &cfg)
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
    fn pristine_runs_report_zero_fault_stats() {
        let net = SimNetwork::new(ring(6), 1);
        let cfg = SimConfig::default().with_shards(2);
        let wl = Workload::uniform_random(net.num_endpoints(), 4, 512, 2);
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        assert_eq!(res.faults, FaultStats::default());
    }

    /// The arena-threaded FIFOs against a `VecDeque` model: pushes and pops
    /// interleaved on three links and one router's pending injections, slots
    /// recycled through the free list, every packet entering with a junk
    /// `next`, a packet handed out of a queue by value and re-entered the way
    /// a cross-shard handoff does it, and a dead link's flush. Each packet
    /// queued on a link claims a buffer slot at the link's router, as it
    /// would in a run, so the flush releases only slots that are held.
    #[test]
    fn arena_fifos_match_a_vecdeque_model() {
        let net = SimNetwork::new(ring(4), 1);
        let cfg = SimConfig::default();
        let sim = Simulator::new(&net, &cfg);
        let mut core = ShardCore::new(0, &sim, StatsCollector::default(), Vec::new());
        // Two links leaving router 0 and one leaving router 1; router 3's
        // pending queue is never admitted from by a flush of router 0.
        let links = [net.link_id(0, 0), net.link_id(0, 1), net.link_id(1, 0)];
        let pending_router = 3;
        let mut model: Vec<VecDeque<usize>> = vec![VecDeque::new(); 4];
        let template = packetize(&net, &cfg, &one_message(1, 64), None, &sim.owner)[0][0]
            .packet(driver::UNTAGGED);
        let queue_on_link = |core: &mut ShardCore<'_>, link: usize, pi: usize| {
            let src = core.links[link].src;
            core.occ_inc(src, src as usize * core.nv);
            core.link_push(link, pi);
        };
        let check = |core: &ShardCore<'_>, model: &[VecDeque<usize>]| {
            core.check_fifos();
            for (q, &l) in links.iter().enumerate() {
                assert_eq!(
                    core.links[l].queue.walk(&core.hot),
                    Vec::from(model[q].clone())
                );
            }
            let pending = core.pending_inject[pending_router as usize].walk(&core.hot);
            assert_eq!(pending, Vec::from(model[3].clone()));
        };
        let mut state = 0x5EED_F1F0_u64;
        for step in 0..400u64 {
            state = mix64(state);
            let q = (state % 4) as usize;
            if (state >> 8) & 1 == 0 || model[q].is_empty() {
                let mut p = template;
                p.0.stable_id = step;
                p.0.next = (state >> 32) as u32;
                let pi = core.alloc_packet(p);
                match q {
                    3 => core.pending_push(pending_router, pi),
                    _ => queue_on_link(&mut core, links[q], pi),
                }
                model[q].push_back(pi);
            } else {
                let pi = match q {
                    3 => core.pending_pop(pending_router),
                    _ => core.link_pop(links[q]),
                };
                assert_eq!(pi, model[q].pop_front());
                core.free.push(pi.unwrap());
            }
            check(&core, &model);
        }

        // A cross-shard handoff: the head of a queue of at least two leaves
        // by value, still naming its successor in `next`, and re-enters the
        // arena onto another queue.
        for q in [0, 1] {
            while model[q].len() < 2 {
                let pi = core.alloc_packet(template);
                queue_on_link(&mut core, links[q], pi);
                model[q].push_back(pi);
            }
        }
        let pi = core.link_pop(links[0]).unwrap();
        assert_eq!(Some(pi), model[0].pop_front());
        let handed = core.hand_off(pi);
        assert_eq!(
            handed.0.next as usize, model[0][0],
            "the handed-off `next` is stale"
        );
        let pi = core.alloc_packet(handed);
        queue_on_link(&mut core, links[2], pi);
        model[2].push_back(pi);
        check(&core, &model);

        // A dead link's flush drains its FIFO (two packets at least, dropped
        // into retransmission); the others keep theirs.
        core.flush_dead_link(links[1], 0, DropReason::LinkDown);
        assert_eq!(core.fstats.dropped_link_down, model[1].len() as u64);
        model[1].clear();
        check(&core, &model);
        let queued: usize = model.iter().take(3).map(VecDeque::len).sum();
        let out = core.into_outcome();
        assert_eq!((out.in_queues, out.pending), (queued, model[3].len()));
    }

    /// A packet whose every field holds a distinct non-default value —
    /// with a detour and with none, at 1 byte and at [`PACKET_BYTES`] —
    /// placed in shard 0's arena, then handed to shard 1 by value as an
    /// arrival and as a retransmission, reads back field for field on the
    /// far side, behind the event that names its new slot.
    #[test]
    fn a_packet_survives_the_split_and_a_hand_off() {
        let net = SimNetwork::new(ring(4), 1);
        let cfg = SimConfig {
            shards: 2,
            ..SimConfig::default()
        };
        let sim = Simulator::new(&net, &cfg);
        let owned_by = |sid| (0..4).find(|&r| sim.owner[r as usize] == sid).unwrap();
        let (near, far) = (owned_by(0), owned_by(1));
        let mut here = ShardCore::new(0, &sim, StatsCollector::default(), Vec::new());
        let mut there = ShardCore::new(1, &sim, StatsCollector::default(), Vec::new());
        for (intermediate, bytes) in [(near, 1), (NIL, PACKET_BYTES as u16)] {
            let hot = Hot {
                stable_id: 0x0123_4567_89AB,
                dst_router: far,
                via_link: 5,
                next: 6,
                hops: 7,
                intermediate,
                bytes,
                via_vc: 8,
            };
            let cold = Cold {
                src_router: far,
                inject_time_ps: 9,
                msg_id: 10,
                msg_total: 11,
                msg_first_inject: 12,
                attempts: 3,
                first_drop_ps: 13,
                tag: MsgTag {
                    tenant: 14,
                    dst_rank: 15,
                    round: 16,
                },
            };
            assert!(cold.tag.is_collective());
            for arrive in [true, false] {
                let pi = here.alloc_packet((hot, cold));
                if arrive {
                    here.send_arrive(1000, far, pi);
                } else {
                    here.send_retransmit(1000, pi);
                }
                assert_eq!(here.free.last(), Some(&pi), "the near slot is released");
                let msgs = std::mem::take(&mut here.out[1]);
                assert_eq!(msgs.len(), 1);
                for msg in msgs {
                    there.deliver_msg(msg);
                }
                let ev = there.pop_before(u64::MAX).expect("the hand-off's event");
                let (slot, router) = match ev.kind() {
                    EventKind::Arrive { packet, router } if arrive => (packet, router),
                    EventKind::Inject { packet, router } if !arrive => (packet, router),
                    kind => panic!("unexpected {kind:?}"),
                };
                assert_eq!((ev.time, ev.key & 0xFFFF, router), (1000, 0x89AB, far));
                let slot = slot as usize;
                assert_eq!((there.hot[slot], there.cold[slot]), (hot, cold));
                there.free.push(slot);
            }
        }
    }

    /// FNV-1a over the `Debug` rendering of a run's physics, field by field.
    /// The destructure names every field, so a new one does not compile
    /// until it is placed here, and the engine counters are left out.
    fn results_digest(r: &SimResults) -> u64 {
        let SimResults {
            completion_time_ps,
            delivered_packets,
            delivered_messages,
            delivered_bytes,
            mean_packet_latency_ps,
            max_packet_latency_ps,
            p50_packet_latency_ps,
            p95_packet_latency_ps,
            p99_packet_latency_ps,
            max_message_latency_ps,
            mean_hops,
            max_hops,
            engine: _,
            samples,
            measurement,
            faults,
            tenants,
        } = r;
        let physics: [&dyn std::fmt::Debug; 16] = [
            completion_time_ps,
            delivered_packets,
            delivered_messages,
            delivered_bytes,
            mean_packet_latency_ps,
            max_packet_latency_ps,
            p50_packet_latency_ps,
            p95_packet_latency_ps,
            p99_packet_latency_ps,
            max_message_latency_ps,
            mean_hops,
            max_hops,
            samples,
            measurement,
            faults,
            tenants,
        ];
        format!("{physics:?}")
            .bytes()
            .fold(0xCBF2_9CE4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
            })
    }

    /// The schedule's shard split: at 2 and 4 shards each shard's list holds
    /// the injections at its own routers and comes out of `ShardCore::new`
    /// in `(time, stable_id)` order, and merging the lists gives the
    /// one-shard schedule record for record — the stable ids are the whole
    /// run's numbering at every shard count.
    #[test]
    fn shard_schedules_merge_to_the_one_shard_schedule() {
        let net = SimNetwork::new(ring(8), 4);
        let wl = Workload::uniform_random(net.num_endpoints(), 6, 3 * 4096, 17);
        let sorted = |cfg: &SimConfig| {
            let sim = Simulator::new(&net, cfg);
            let lists = packetize(&net, cfg, &wl, Some(0.9), &sim.owner);
            assert_eq!(lists.len(), cfg.shards);
            (lists.into_iter().enumerate())
                .map(|(sid, list)| {
                    let core = ShardCore::new(sid, &sim, StatsCollector::default(), list);
                    assert!(core
                        .schedule
                        .windows(2)
                        .all(|w| { (w[0].time, w[0].stable_id) < (w[1].time, w[1].stable_id) }));
                    let mine = |inj: &Injection| sim.owner[inj.src_router as usize] == sid as u32;
                    assert!(core.schedule.iter().all(mine));
                    core.schedule
                })
                .collect::<Vec<_>>()
        };
        let whole = sorted(&SimConfig::default()).remove(0);
        assert_eq!(whole.len(), 3 * 6 * 32);
        for shards in [2, 4] {
            let lists = sorted(&SimConfig::default().with_shards(shards));
            assert!(lists.iter().all(|l| !l.is_empty()), "{shards} shards");
            let mut merged = lists.concat();
            merged.sort_unstable_by_key(|inj| (inj.time, inj.stable_id));
            assert_eq!(merged, whole, "{shards} shards");
        }
    }

    /// Run `wl` at one shard the way `run_finite` does, and report whether a
    /// packet waited in `pending_inject`, and whether one was dropped into
    /// retransmission, while the cursor still had initial injections left —
    /// packets re-entering through the queue while the cursor is live.
    fn reentries_under_live_cursor(
        net: &SimNetwork,
        cfg: &SimConfig,
        wl: &Workload,
        load: f64,
    ) -> (bool, bool) {
        let sim = Simulator::new(net, cfg);
        let run = RunPlan::new(net, cfg, &sim.router, wl, Some(load)).unwrap();
        let schedule = packetize(net, cfg, wl, Some(load), &sim.owner).remove(0);
        let mut core = ShardCore::new(0, &sim, StatsCollector::default(), schedule);
        if let Some(timeline) = &run.timeline {
            core.arm_faults(timeline, true);
        }
        let (mut waited, mut retransmitted) = (false, false);
        run_epochs(&mut core, None, None, |c, ev| {
            c.handle_core(ev);
            if c.inject_head().is_some() {
                waited |= c.pending_len.iter().any(|&n| n > 0);
                retransmitted |= c.fstats.retransmits > 0;
            }
        });
        assert!(core.schedule.is_empty(), "the cursor is spent and released");
        (waited, retransmitted)
    }

    /// The injection cursor merged with the queue is the old all-in-the-queue
    /// schedule, event for event: finite Poisson runs of three-packet
    /// messages where injections wait for VC-0 slots (two per VC), and where
    /// a link cut drops packets into retransmission, both while the cursor
    /// is live. Event counts and digests are pinned from the engine that
    /// pushed every initial injection into its event queue (every shard
    /// replays the fault timeline, so a faulted run's count grows with the
    /// shard count). The queue's store serves some of them, not all: the
    /// rest come from the cursor and the lanes.
    #[test]
    fn injection_cursor_merges_with_queued_reentries() {
        let net = SimNetwork::new(ring(8), 4);
        let wl = Workload::uniform_random(net.num_endpoints(), 6, 3 * 4096, 17);
        let load = 0.9;
        let d = net.diameter() as u32;
        let starved = SimConfig {
            buffer_packets_per_vc: 2,
            ..SimConfig::default().with_routing("ugal-l", d)
        };
        let script = FaultScript::parse("at(1us, links(0.25)) + at(30us, heal(all))").unwrap();
        let faulted = SimConfig::default()
            .with_routing("minimal", d)
            .with_fault_script(script.with_seed(5));
        let cases = [
            (
                "pending",
                starved,
                (true, false),
                [3804, 3804, 3804],
                4051343997659972522,
            ),
            (
                "faults",
                faulted,
                (true, true),
                [4625, 4628, 4634],
                6650115819740192987,
            ),
        ];
        for (name, cfg, reentries, events, digest) in cases {
            assert_eq!(
                reentries_under_live_cursor(&net, &cfg, &wl, load),
                reentries,
                "{name}: (waited, retransmitted) under a live cursor"
            );
            for (shards, events) in [1usize, 2, 4].into_iter().zip(events) {
                let cfg = cfg.clone().with_shards(shards);
                let res = Simulator::new(&net, &cfg)
                    .try_run_with_offered_load(&wl, load)
                    .unwrap();
                let settled = res.delivered_packets + res.faults.failed;
                assert_eq!(settled, 3 * 6 * 32, "{name}");
                assert_eq!(
                    (res.engine.events, results_digest(&res)),
                    (events, digest),
                    "{name} at {shards} shards"
                );
                let store = res.engine.store_events;
                assert!(
                    0 < store && store < events,
                    "{name} at {shards} shards: the store served {store} of {events}"
                );
            }
        }
    }

    /// A lane turns a push that orders before its tail away to the store,
    /// and pop order does not change. Every packet of this workload-paced run
    /// is injected at `t = 0`, so the transmits pop in link order and their
    /// arrivals reach the `arrive` lane out of key (packet id) order. The
    /// event count and digest are pinned from the engine without lanes.
    #[test]
    fn lane_rejections_keep_pop_order() {
        let net = SimNetwork::new(ring(8), 4);
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 29);
        let cfg = SimConfig::default();
        let sim = Simulator::new(&net, &cfg);
        let schedule = packetize(&net, &cfg, &wl, None, &sim.owner).remove(0);
        assert!(schedule.iter().all(|inj| inj.time == 0));
        let mut core = ShardCore::new(0, &sim, StatsCollector::default(), schedule);
        run_epochs(&mut core, None, None, |c, ev| c.handle_core(ev));
        assert!(
            core.queue.rejections(LANE_ARRIVE) > 0,
            "no arrival came out of order"
        );
        let res = sim.try_run(&wl).unwrap();
        assert_eq!(res.delivered_packets, 32);
        assert_eq!(
            (res.engine.events, results_digest(&res)),
            (164, 11988925739379672201)
        );
    }

    /// Quiescence with links parked surfaces as a typed
    /// [`SimError::Deadlock`] carrying the diagnosis, not a process abort.
    #[test]
    fn hol_deadlock_is_a_typed_error() {
        // One VC and one buffer slot on a ring force the classic cyclic
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
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }
}
