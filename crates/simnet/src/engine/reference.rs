//! The polling reference engine.
//!
//! This is the engine the wakeup-driven rewrite replaced, retained verbatim in
//! behaviour: blocked links re-enqueue a `TryTransmit` every retry quantum
//! (`timed_retries` in [`crate::stats::EngineCounters`] counts them), the event
//! loop is a single [`std::collections::BinaryHeap`], and runs always drain to
//! empty. It exists for two reasons:
//!
//! 1. **Equivalence oracle** — the test battery asserts that on runs without a
//!    single blocking episode the wakeup engine reproduces this engine's
//!    results *exactly* (same event cascade, same RNG stream, same
//!    `SimResults`), and that under congestion the conservation quantities
//!    (packets, bytes, messages delivered) still agree.
//! 2. **Performance baseline** — the polling cost the wakeup engine removed
//!    (README § Engine performance records the saturated-ring event counts).
//!
//! It shares packetization (`packetize`) and the routing
//! decision path (`choose_port`) with the wakeup engine, so the two
//! can only diverge in event scheduling, never in workload layout or routing
//! behaviour. Steady-state measurement windows are not supported here.

use super::{choose_port, packetize, Event, EventKind, Packet};
use crate::config::SimConfig;
use crate::network::SimNetwork;
use crate::routing::{RouteScratch, Router};
use crate::stats::{EngineCounters, SimResults, StatsCollector};
use crate::workload::Workload;
use rand::{rngs::StdRng, SeedableRng};
use spectralfly_graph::csr::VertexId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Mutable state of the event loop.
struct RefState {
    packets: Vec<Packet>,
    link_queue: Vec<VecDeque<usize>>,
    /// Flat per-link queue depths, mirrored on every push/pop (see the wakeup
    /// engine's `EngineState::link_qlen`).
    link_qlen: Vec<u32>,
    link_free_at: Vec<u64>,
    occupancy: Vec<u32>,
    /// Per-router occupancy totals, maintained incrementally (same invariant as
    /// the wakeup engine's, so the shared routing path sees identical signals).
    router_occ: Vec<u32>,
    /// Reused scan-fallback buffers for minimal-port queries (see the wakeup
    /// engine's mirror).
    route_scratch: RouteScratch,
    pending_inject: Vec<VecDeque<usize>>,
    /// Per-router depths of `pending_inject` (see the wakeup engine's mirror).
    pending_len: Vec<u32>,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    msg_packets_left: Vec<u32>,
    msg_first_inject: Vec<u64>,
    msg_last_delivery: Vec<u64>,
    counters: EngineCounters,
}

impl RefState {
    fn push(&mut self, time: u64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// See `EngineState::link_push`.
    #[inline]
    fn link_push(&mut self, link: usize, pi: usize) {
        self.link_queue[link].push_back(pi);
        self.link_qlen[link] += 1;
        debug_assert_eq!(self.link_qlen[link] as usize, self.link_queue[link].len());
    }

    /// See `EngineState::link_pop`.
    #[inline]
    fn link_pop(&mut self, link: usize) -> Option<usize> {
        let head = self.link_queue[link].pop_front();
        if head.is_some() {
            self.link_qlen[link] -= 1;
        }
        debug_assert_eq!(self.link_qlen[link] as usize, self.link_queue[link].len());
        head
    }

    /// See `EngineState::occ_inc` — the engines must maintain the totals identically.
    #[inline]
    fn occ_inc(&mut self, router: VertexId, slot: usize) {
        self.occupancy[slot] += 1;
        self.router_occ[router as usize] += 1;
    }

    /// See `EngineState::occ_dec` — mirrors the former `saturating_sub` exactly.
    #[inline]
    fn occ_dec(&mut self, router: VertexId, slot: usize) {
        if self.occupancy[slot] > 0 {
            self.occupancy[slot] -= 1;
            self.router_occ[router as usize] -= 1;
        }
    }
}

/// The polling (pre-wakeup) packet-level simulator.
pub struct ReferenceSimulator<'a> {
    net: &'a SimNetwork,
    cfg: &'a SimConfig,
    router: Box<dyn Router>,
}

impl<'a> ReferenceSimulator<'a> {
    /// Create a reference simulator over a network with a configuration.
    ///
    /// # Panics
    /// If `cfg.routing` does not name a registered routing algorithm, or
    /// `cfg.faults` records a plan the network was not built with.
    pub fn new(net: &'a SimNetwork, cfg: &'a SimConfig) -> Self {
        let router = super::resolve_router(net, cfg).unwrap_or_else(|e| panic!("{e}"));
        ReferenceSimulator { net, cfg, router }
    }

    /// Run the workload with message injections spaced exactly as the workload
    /// specifies.
    ///
    /// # Panics
    /// On a degraded network, if the workload is infeasible on the surviving
    /// graph — use [`ReferenceSimulator::try_run`] to handle the
    /// [`crate::FaultError`] instead.
    pub fn run(&self, workload: &Workload) -> SimResults {
        self.try_run(workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ReferenceSimulator::run`] with the same degraded-network feasibility
    /// checks as [`crate::Simulator::try_run`], so the engine-equivalence
    /// battery covers fault handling too.
    pub fn try_run(&self, workload: &Workload) -> Result<SimResults, super::SimError> {
        self.reject_fault_script();
        super::driver::check_finite(self.net, workload)?;
        Ok(self.run_internal(workload, None))
    }

    /// The polling engine predates the runtime fault machinery and does not
    /// implement drops or retransmission — fail loudly rather than silently
    /// simulating a pristine network under a script the caller configured.
    fn reject_fault_script(&self) {
        assert!(
            self.cfg.fault_script.is_none(),
            "the reference engine does not support runtime fault scripts \
             (configured: {:?}); use Simulator or ParallelSimulator",
            self.cfg.fault_script.spec()
        );
    }

    /// Run the workload with Poisson-spaced injections at an offered load in
    /// `(0, 1]` (always a finite drain-to-empty run; measurement windows are
    /// not supported by the reference engine).
    ///
    /// # Panics
    /// On a degraded network, if the workload is infeasible on the surviving
    /// graph — use [`ReferenceSimulator::try_run_with_offered_load`] instead.
    pub fn run_with_offered_load(&self, workload: &Workload, offered_load: f64) -> SimResults {
        self.try_run_with_offered_load(workload, offered_load)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ReferenceSimulator::run_with_offered_load`] with the degraded-network
    /// feasibility checks of [`crate::Simulator::try_run_with_offered_load`].
    pub fn try_run_with_offered_load(
        &self,
        workload: &Workload,
        offered_load: f64,
    ) -> Result<SimResults, super::SimError> {
        super::check_offered_load(offered_load)?;
        self.reject_fault_script();
        super::driver::check_finite(self.net, workload)?;
        Ok(self.run_internal(workload, Some(offered_load)))
    }

    fn run_internal(&self, workload: &Workload, offered_load: Option<f64>) -> SimResults {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut stats = StatsCollector::default();
        if workload.messages.is_empty() {
            return stats.finish();
        }
        let sched = packetize(self.net, self.cfg, workload, offered_load, &mut rng);
        let mut st = RefState {
            packets: sched.packets,
            link_queue: vec![VecDeque::new(); self.net.num_directed_links()],
            link_qlen: vec![0; self.net.num_directed_links()],
            link_free_at: vec![0; self.net.num_directed_links()],
            occupancy: vec![0; self.net.num_routers() * self.cfg.num_vcs],
            router_occ: vec![0; self.net.num_routers()],
            route_scratch: RouteScratch::default(),
            pending_inject: vec![VecDeque::new(); self.net.num_routers()],
            pending_len: vec![0; self.net.num_routers()],
            heap: BinaryHeap::new(),
            seq: 0,
            msg_packets_left: sched.msg_packets_left,
            msg_first_inject: sched.msg_first_inject,
            msg_last_delivery: vec![u64::MAX; workload.messages.len()],
            counters: EngineCounters::default(),
        };
        for &pi in &sched.injections {
            let t = st.packets[pi].inject_time_ps;
            st.push(t, EventKind::Inject { packet: pi as u32 });
        }

        // --- Event loop (polling): blocked links retry every quantum. ---
        st.counters.arena_slots = st.packets.len() as u64;
        let cap = self.cfg.buffer_packets_per_vc as u32;
        let retry_quantum = self.cfg.serialization_ps(self.cfg.packet_size_bytes).max(1);
        while let Some(Reverse(ev)) = st.heap.pop() {
            st.counters.events += 1;
            let now = ev.time;
            match ev.kind {
                EventKind::Inject { packet } => {
                    let packet = packet as usize;
                    let router = st.packets[packet].src_router;
                    let slot = router as usize * self.cfg.num_vcs;
                    if st.occupancy[slot] < cap {
                        st.occ_inc(router, slot);
                        self.enter_router(packet, router, now, &mut st, &mut rng, &mut stats);
                        self.admit_pending(router, now, &mut st, cap);
                    } else {
                        st.pending_inject[router as usize].push_back(packet);
                        st.pending_len[router as usize] += 1;
                    }
                }
                EventKind::TryTransmit { link } => {
                    let link = link as usize;
                    let Some(&pi) = st.link_queue[link].front() else {
                        continue;
                    };
                    if st.link_free_at[link] > now {
                        let t = st.link_free_at[link];
                        st.push(t, EventKind::TryTransmit { link: link as u32 });
                        continue;
                    }
                    let (src_router, port) = self.net.link_owner(link);
                    let dst_router = self.net.link_target(src_router, port);
                    let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
                    let next_vc = (st.packets[pi].hops as usize + 1).min(self.cfg.num_vcs - 1);
                    let down = dst_router as usize * self.cfg.num_vcs + next_vc;
                    if st.occupancy[down] >= cap {
                        // The polling hot path this engine preserves: retry on a timer.
                        st.counters.timed_retries += 1;
                        st.push(
                            now + retry_quantum,
                            EventKind::TryTransmit { link: link as u32 },
                        );
                        continue;
                    }
                    st.link_pop(link);
                    let up = src_router as usize * self.cfg.num_vcs + vc;
                    st.occ_dec(src_router, up);
                    st.occ_inc(dst_router, down);
                    if vc == 0 {
                        self.admit_pending(src_router, now, &mut st, cap);
                    }
                    let ser = self.cfg.serialization_ps(st.packets[pi].bytes);
                    let start = now.max(st.link_free_at[link]);
                    st.link_free_at[link] = start + ser;
                    let arrive =
                        start + ser + self.cfg.link_latency_ps() + self.cfg.router_latency_ps();
                    st.packets[pi].hops += 1;
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
                    self.enter_router(packet as usize, router, now, &mut st, &mut rng, &mut stats);
                    self.admit_pending(router, now, &mut st, cap);
                }
                EventKind::NextMessage { .. } | EventKind::Sample | EventKind::Fault { .. } => {
                    unreachable!(
                        "the reference engine never schedules steady-state or fault events"
                    )
                }
            }
        }

        // Every packet must have been delivered; anything else is an engine bug.
        let undelivered: u32 = st.msg_packets_left.iter().sum();
        if undelivered > 0 {
            let in_queues: usize = st.link_queue.iter().map(|q| q.len()).sum();
            let pending: usize = st.pending_inject.iter().map(|q| q.len()).sum();
            let occ: u32 = st.occupancy.iter().sum();
            panic!(
                "simulation ended with {undelivered} undelivered packets \
                 (link queues: {in_queues}, pending injections: {pending}, \
                 occupancy sum: {occ}) — engine invariant violated"
            );
        }
        for (mi, &last) in st.msg_last_delivery.iter().enumerate() {
            if last != u64::MAX {
                stats.record_message(last.saturating_sub(st.msg_first_inject[mi].min(last)));
            }
        }
        stats.record_engine(&st.counters);
        stats.finish()
    }

    /// Re-issue an injection for a waiting packet if the router now has VC-0 space.
    fn admit_pending(&self, router: VertexId, now: u64, st: &mut RefState, cap: u32) {
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

    /// A packet has just become resident at `router`: deliver it if it is home,
    /// otherwise pick an output port and enqueue it.
    fn enter_router(
        &self,
        pi: usize,
        router: VertexId,
        now: u64,
        st: &mut RefState,
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
            let m = st.packets[pi].msg;
            st.msg_packets_left[m] -= 1;
            if st.msg_packets_left[m] == 0 {
                // Written exactly once per message — the delivery that zeroes the
                // counter is by definition the message's last delivery.
                st.msg_last_delivery[m] = now;
            }
            return;
        }
        let port = choose_port(
            self.net,
            self.cfg,
            self.router.as_ref(),
            &mut st.packets,
            pi,
            router,
            &st.link_qlen,
            &st.occupancy,
            &st.router_occ,
            &[],
            rng,
            &mut st.route_scratch,
        );
        let link = self.net.link_id(router, port);
        // Same driver-event discipline as the wakeup engine's enter_router (the
        // engines must schedule identically on block-free runs): only the enqueue
        // that makes the queue non-empty schedules a transmit, directly at
        // `max(now, free_at)`.
        let was_empty = st.link_qlen[link] == 0;
        st.link_push(link, pi);
        if was_empty {
            let t = now.max(st.link_free_at[link]);
            st.push(t, EventKind::TryTransmit { link: link as u32 });
        }
    }
}
