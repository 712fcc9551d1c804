//! Simulation results and derived metrics.

/// Event-loop accounting of one run, summed over shards.
///
/// The engine is wakeup-driven: a link out of credits parks exactly once per
/// blocking episode and is woken by one event when a credit returns, so
/// `blocked_parks` / `wakeups` count the blocking traffic and nothing ever
/// retries on a timer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events popped from the event queue.
    pub events: u64,
    /// Time-based transmit retries while blocked. Always 0: no engine polls
    /// any more. Kept because the repository benchmark reports it.
    pub timed_retries: u64,
    /// Times a link parked itself waiting for a credit.
    pub blocked_parks: u64,
    /// Parked links woken by a returning credit.
    pub wakeups: u64,
    /// High-water mark of the packet arena (distinct packet slots ever live at
    /// once). In steady-state mode this stays near the in-flight packet count
    /// while total injections grow unbounded — the free list recycles slots.
    pub arena_slots: u64,
}

impl EngineCounters {
    /// Accumulate another phase's counters into this one.
    pub fn merge(&mut self, other: &EngineCounters) {
        self.events += other.events;
        self.timed_retries += other.timed_retries;
        self.blocked_parks += other.blocked_parks;
        self.wakeups += other.wakeups;
        self.arena_slots = self.arena_slots.max(other.arena_slots);
    }
}

/// Runtime-fault accounting of one run (all zeros unless a
/// [`crate::fault::FaultScript`] is configured).
///
/// All counters are **engine totals** (not filtered by the measurement
/// window), because the conservation identity they support —
/// `injected == delivered + failed + in_flight()` — only holds over the whole
/// run. A second identity ties the drop and recovery counters together:
/// `dropped_total() == retransmits + failed` (every drop either triggered a
/// retransmission or exhausted the packet's budget). Both are asserted by the
/// chaos test batteries, per engine and per shard count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Distinct packets handed to a source NIC (retransmissions of the same
    /// packet are *not* recounted here — see `retransmits`).
    pub injected: u64,
    /// Packets delivered to their destination (engine total, unwindowed).
    pub delivered: u64,
    /// Packets that reached their retransmit budget and were abandoned in the
    /// `Failed` terminal state.
    pub failed: u64,
    /// Retransmissions scheduled (each drop below the budget schedules one).
    pub retransmits: u64,
    /// Drops of packets occupying or queued on a link that went down.
    pub dropped_link_down: u64,
    /// Drops of packets at (or injecting from / destined to) a down router.
    pub dropped_router_down: u64,
    /// Drops because no alive port made progress (including packets whose
    /// destination is unreachable in the current degraded component).
    pub dropped_no_route: u64,
    /// Drops because a packet exceeded the hop TTL while detouring.
    pub dropped_ttl: u64,
    /// Fault-timeline events applied (link/router down/up, heals).
    pub fault_events: u64,
    /// Sum over recovered packets (delivered after ≥1 drop) of delivery time
    /// minus first-drop time, picoseconds: total time spent recovering.
    pub total_recovery_ps: u64,
    /// Packets delivered after at least one drop.
    pub recovered: u64,
    /// Worst single packet recovery time (first drop to delivery), picoseconds.
    pub max_recovery_ps: u64,
}

impl FaultStats {
    /// Total packet drops, over every typed reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_link_down + self.dropped_router_down + self.dropped_no_route + self.dropped_ttl
    }

    /// Packets still in flight (or queued for retransmission) by the
    /// conservation identity `injected = delivered + failed + in_flight`.
    /// Zero at the end of a completed finite run; generally positive at a
    /// steady-state deadline.
    pub fn in_flight(&self) -> u64 {
        self.injected
            .saturating_sub(self.delivered)
            .saturating_sub(self.failed)
    }

    /// Mean recovery time (first drop to delivery) over recovered packets,
    /// picoseconds.
    pub fn mean_recovery_ps(&self) -> f64 {
        if self.recovered == 0 {
            return 0.0;
        }
        self.total_recovery_ps as f64 / self.recovered as f64
    }

    /// Accumulate another shard's (or phase's) fault counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.failed += other.failed;
        self.retransmits += other.retransmits;
        self.dropped_link_down += other.dropped_link_down;
        self.dropped_router_down += other.dropped_router_down;
        self.dropped_no_route += other.dropped_no_route;
        self.dropped_ttl += other.dropped_ttl;
        self.fault_events = self.fault_events.max(other.fault_events);
        self.total_recovery_ps += other.total_recovery_ps;
        self.recovered += other.recovered;
        self.max_recovery_ps = self.max_recovery_ps.max(other.max_recovery_ps);
    }
}

/// One sampling tick of the steady-state time-series (see
/// [`crate::config::MeasurementWindows::sample_interval_ps`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IntervalSample {
    /// Simulated time of the tick, picoseconds.
    pub t_ps: u64,
    /// Payload bytes delivered since the previous tick (all packets, not just
    /// measured ones — this is the instantaneous drain rate of the network).
    pub delivered_bytes: u64,
    /// Packets delivered since the previous tick.
    pub delivered_packets: u64,
    /// Mean output-queue depth over all directed links, in packets.
    pub mean_queue_depth: f64,
    /// Number of links parked waiting for a credit (head packet blocked on a
    /// full downstream buffer) at the tick.
    pub blocked_links: usize,
}

impl IntervalSample {
    /// Delivered throughput over an interval of `interval_ps`, in Gb/s.
    pub fn throughput_gbps(&self, interval_ps: u64) -> f64 {
        if interval_ps == 0 {
            return 0.0;
        }
        (self.delivered_bytes as f64 * 8.0) / interval_ps as f64 * 1000.0
    }
}

/// Steady-state accounting for a run with measurement windows configured:
/// everything here refers to packets *injected inside the measurement window*.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeasurementSummary {
    /// Start of the measurement window (end of warmup), picoseconds.
    pub window_start_ps: u64,
    /// End of the measurement window, picoseconds.
    pub window_end_ps: u64,
    /// Packets injected (generated) inside the window.
    pub injected_packets: u64,
    /// Of those, packets delivered before the drain deadline.
    pub delivered_packets: u64,
    /// Payload bytes of the delivered measured packets.
    pub delivered_bytes: u64,
    /// Earliest injection time of a measured packet (`u64::MAX` if none) —
    /// always ≥ `window_start_ps`, which is what the warmup-exclusion tests pin.
    pub min_inject_ps: u64,
    /// Latest injection time of a measured packet (0 if none).
    pub max_inject_ps: u64,
}

impl MeasurementSummary {
    /// Sustained delivered throughput over the measurement window, in Gb/s.
    pub fn throughput_gbps(&self) -> f64 {
        let dur = self.window_end_ps.saturating_sub(self.window_start_ps);
        if dur == 0 {
            return 0.0;
        }
        (self.delivered_bytes as f64 * 8.0) / dur as f64 * 1000.0
    }

    /// Fraction of measured injected packets that were delivered before the
    /// drain deadline (1.0 below saturation; below 1.0 once queues outlive the
    /// drain window).
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected_packets == 0 {
            return 0.0;
        }
        self.delivered_packets as f64 / self.injected_packets as f64
    }
}

/// Outcome of one tenant's collective schedule (see [`crate::job::Schedule`]).
///
/// The message counters are **engine totals** (unwindowed), because
/// completion is a property of the whole run: a collective that finishes
/// during warmup still completed. Terminal packet loss under a fault script
/// stalls the dependency chain, which surfaces here as `completed == false`
/// with the delivered count short of the total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectiveOutcome {
    /// Messages the schedule injects when it runs to completion.
    pub total_messages: u64,
    /// Collective messages fully delivered.
    pub delivered_messages: u64,
    /// Ranks that fired every round and received every inbound message.
    pub ranks_completed: usize,
    /// Whether every schedule message was delivered.
    pub completed: bool,
    /// Time the last collective message was delivered — the collective
    /// completion time when `completed`, else the stall point (0 if nothing
    /// was delivered).
    pub completion_time_ps: u64,
}

/// Per-tenant results of a multi-tenant jobs run (one entry per tenant of the
/// [`crate::job::MixPlan`], in declaration order). Latency and goodput fields
/// follow the run's measurement-window filtering exactly like the run-level
/// aggregates; the collective outcome (when present) is unwindowed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant label (`t{index}:{job-name}`).
    pub name: String,
    /// The tenant's job spec as written in the mix.
    pub job: String,
    /// Number of ranks (endpoints) allocated to the tenant.
    pub ranks: usize,
    /// Messages injected inside the measurement window.
    pub injected_messages: u64,
    /// Payload bytes injected inside the measurement window.
    pub injected_bytes: u64,
    /// Measured messages fully delivered.
    pub delivered_messages: u64,
    /// Measured packets delivered.
    pub delivered_packets: u64,
    /// Payload bytes of the measured delivered packets.
    pub delivered_bytes: u64,
    /// Mean measured packet latency, picoseconds.
    pub mean_latency_ps: f64,
    /// Median measured packet latency (nearest-rank), picoseconds.
    pub p50_latency_ps: u64,
    /// 95th-percentile measured packet latency, picoseconds.
    pub p95_latency_ps: u64,
    /// 99th-percentile measured packet latency, picoseconds — the
    /// interference report's headline number.
    pub p99_latency_ps: u64,
    /// Maximum measured packet latency, picoseconds.
    pub max_latency_ps: u64,
    /// Delivered tenant throughput over the measurement window, Gb/s.
    pub goodput_gbps: f64,
    /// Collective-schedule outcome; `None` for open-loop tenants.
    pub collective: Option<CollectiveOutcome>,
}

/// Static description of one tenant, identical on every shard (the engines
/// derive it from the resolved [`crate::job::MixPlan`] before starting).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantDesc {
    /// Tenant label (`t{index}:{job-name}`).
    pub name: String,
    /// The tenant's job spec as written in the mix.
    pub job: String,
    /// Number of ranks allocated to the tenant.
    pub ranks: usize,
    /// Total messages of the tenant's collective schedule; `None` for
    /// open-loop tenants.
    pub collective_total: Option<u64>,
}

/// Per-tenant accumulator inside [`StatsCollector`]; merged across shards by
/// [`StatsCollector::absorb`] with the same order-free operations as the
/// run-level aggregates.
#[derive(Clone, Debug, Default)]
struct TenantAcc {
    desc: TenantDesc,
    latencies_ps: Vec<u64>,
    delivered_bytes: u64,
    delivered_messages: u64,
    injected_messages: u64,
    injected_bytes: u64,
    collective_delivered: u64,
    collective_last_ps: u64,
    ranks_completed: usize,
}

impl TenantAcc {
    fn absorb(&mut self, other: TenantAcc) {
        debug_assert_eq!(self.desc, other.desc, "tenant descriptors diverged");
        self.latencies_ps.extend(other.latencies_ps);
        self.delivered_bytes += other.delivered_bytes;
        self.delivered_messages += other.delivered_messages;
        self.injected_messages += other.injected_messages;
        self.injected_bytes += other.injected_bytes;
        self.collective_delivered += other.collective_delivered;
        self.collective_last_ps = self.collective_last_ps.max(other.collective_last_ps);
        self.ranks_completed += other.ranks_completed;
    }

    fn finish(mut self, window: Option<(u64, u64)>) -> TenantStats {
        let n = self.latencies_ps.len();
        let (mean, p50, p95, p99, max) = latency_summary(&mut self.latencies_ps);
        let goodput_gbps = match window {
            Some((s, e)) if e > s => (self.delivered_bytes as f64 * 8.0) / (e - s) as f64 * 1000.0,
            _ => 0.0,
        };
        TenantStats {
            name: self.desc.name,
            job: self.desc.job,
            ranks: self.desc.ranks,
            injected_messages: self.injected_messages,
            injected_bytes: self.injected_bytes,
            delivered_messages: self.delivered_messages,
            delivered_packets: n as u64,
            delivered_bytes: self.delivered_bytes,
            mean_latency_ps: mean,
            p50_latency_ps: p50,
            p95_latency_ps: p95,
            p99_latency_ps: p99,
            max_latency_ps: max,
            goodput_gbps,
            collective: self.desc.collective_total.map(|total| CollectiveOutcome {
                total_messages: total,
                delivered_messages: self.collective_delivered,
                ranks_completed: self.ranks_completed,
                completed: self.collective_delivered == total,
                completion_time_ps: self.collective_last_ps,
            }),
        }
    }
}

/// Aggregated results of one simulation run.
///
/// Without measurement windows every delivered packet contributes; with
/// windows configured ([`crate::config::MeasurementWindows`]) the latency,
/// hop, and delivery fields cover only packets injected inside the
/// measurement window, and [`SimResults::measurement`] carries the window
/// bookkeeping.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResults {
    /// Simulated time at which the last (measured) packet was delivered (picoseconds).
    pub completion_time_ps: u64,
    /// Number of (measured) packets delivered.
    pub delivered_packets: u64,
    /// Number of (measured) messages fully delivered.
    pub delivered_messages: u64,
    /// Total payload bytes delivered.
    pub delivered_bytes: u64,
    /// Mean packet latency (injection to delivery), picoseconds.
    pub mean_packet_latency_ps: f64,
    /// Maximum packet latency, picoseconds.
    pub max_packet_latency_ps: u64,
    /// Median packet latency (nearest-rank), picoseconds.
    pub p50_packet_latency_ps: u64,
    /// 95th-percentile packet latency (nearest-rank), picoseconds.
    pub p95_packet_latency_ps: u64,
    /// 99th-percentile packet latency (nearest-rank), picoseconds.
    pub p99_packet_latency_ps: u64,
    /// Maximum message completion latency (injection of first packet to delivery of last).
    pub max_message_latency_ps: u64,
    /// Mean hop count over delivered packets.
    pub mean_hops: f64,
    /// Maximum hop count over delivered packets.
    pub max_hops: u32,
    /// Event-loop accounting (events processed, retries, parks, wakeups).
    pub engine: EngineCounters,
    /// Steady-state time-series, one entry per sampling tick (empty without
    /// measurement windows).
    pub samples: Vec<IntervalSample>,
    /// Measurement-window bookkeeping (`None` without measurement windows).
    pub measurement: Option<MeasurementSummary>,
    /// Runtime-fault accounting (all zeros unless a
    /// [`crate::fault::FaultScript`] is configured).
    pub faults: FaultStats,
    /// Per-tenant results of a multi-tenant jobs run (empty unless
    /// [`crate::config::SimConfig::jobs`] is set).
    pub tenants: Vec<TenantStats>,
}

impl SimResults {
    /// Aggregate delivered throughput in Gb/s over the whole run.
    pub fn throughput_gbps(&self) -> f64 {
        if self.completion_time_ps == 0 {
            return 0.0;
        }
        // bits / ps * 1000 = Gb/s
        (self.delivered_bytes as f64 * 8.0) / self.completion_time_ps as f64 * 1000.0
    }

    /// Speedup of this run relative to a baseline run of the same workload
    /// (ratio of completion times, >1 means this run is faster).
    pub fn speedup_over(&self, baseline: &SimResults) -> f64 {
        if self.completion_time_ps == 0 {
            return 0.0;
        }
        baseline.completion_time_ps as f64 / self.completion_time_ps as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the element at rank
/// `ceil(pct/100 · n)` (1-based), i.e. index `ceil(pct/100 · n) − 1`.
///
/// This is the textbook nearest-rank definition: `percentile(v, 100.0)` is the
/// maximum, `percentile(v, 50.0)` of an odd-length slice is the true median,
/// and — unlike the former `n·99/100` indexing — p99 of exactly 100 samples is
/// the 99th value, not the maximum. `sorted` must not be empty and `pct` must
/// lie in `(0, 100]`.
pub(crate) fn percentile_nearest_rank(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty slice");
    assert!(
        pct > 0.0 && pct <= 100.0,
        "percentile must be in (0, 100], got {pct}"
    );
    let n = sorted.len();
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sort `latencies` and summarise them as `(mean, p50, p95, p99, max)`, the
/// percentiles nearest-rank; all zero when there are none.
fn latency_summary(latencies: &mut [u64]) -> (f64, u64, u64, u64, u64) {
    latencies.sort_unstable();
    let Some(&max) = latencies.last() else {
        return (0.0, 0, 0, 0, 0);
    };
    let sum: u128 = latencies.iter().map(|&x| x as u128).sum();
    let p = |pct| percentile_nearest_rank(latencies, pct);
    (
        sum as f64 / latencies.len() as f64,
        p(50.0),
        p(95.0),
        p(99.0),
        max,
    )
}

/// Builder that accumulates per-packet and per-message observations during a run.
#[derive(Clone, Debug, Default)]
pub struct StatsCollector {
    /// Measurement window `(start, end)` on *injection* times; `None` counts
    /// every packet (the workload-paced / legacy behaviour).
    window: Option<(u64, u64)>,
    latencies_ps: Vec<u64>,
    hop_sum: u64,
    max_hops: u32,
    bytes: u64,
    messages_done: u64,
    max_message_latency_ps: u64,
    last_delivery_ps: u64,
    injected_in_window: u64,
    min_inject_ps: u64,
    max_inject_ps: u64,
    samples: Vec<IntervalSample>,
    counters: EngineCounters,
    /// Per-tenant accumulators of a jobs run (empty otherwise). Kept inside
    /// the collector so shard merging reuses the one [`StatsCollector::absorb`]
    /// path.
    tenants: Vec<TenantAcc>,
}

impl StatsCollector {
    /// A collector that only counts packets injected in `[start, end)`.
    pub fn with_window(start: u64, end: u64) -> Self {
        StatsCollector {
            window: Some((start, end)),
            min_inject_ps: u64::MAX,
            ..Default::default()
        }
    }

    /// Whether an injection timestamp falls inside the measurement window
    /// (always true without a window).
    #[inline]
    pub fn is_measured(&self, inject_ps: u64) -> bool {
        match self.window {
            None => true,
            Some((s, e)) => inject_ps >= s && inject_ps < e,
        }
    }

    /// Note a packet injection (steady-state mode bookkeeping; a no-op when the
    /// injection falls outside the window).
    pub fn note_injection(&mut self, inject_ps: u64) {
        if self.window.is_some() && self.is_measured(inject_ps) {
            self.injected_in_window += 1;
        }
    }

    /// Record a delivered packet. `delivered_at - latency_ps` is its injection
    /// time; packets injected outside the measurement window are ignored.
    pub fn record_packet(&mut self, latency_ps: u64, hops: u32, bytes: u64, delivered_at: u64) {
        let inject = delivered_at - latency_ps;
        if !self.is_measured(inject) {
            return;
        }
        self.latencies_ps.push(latency_ps);
        self.hop_sum += hops as u64;
        self.max_hops = self.max_hops.max(hops);
        self.bytes += bytes;
        self.last_delivery_ps = self.last_delivery_ps.max(delivered_at);
        self.min_inject_ps = self.min_inject_ps.min(inject);
        self.max_inject_ps = self.max_inject_ps.max(inject);
    }

    /// Record a fully delivered message (the engine applies the window filter
    /// on the message's first injection before calling this).
    pub fn record_message(&mut self, latency_ps: u64) {
        self.messages_done += 1;
        self.max_message_latency_ps = self.max_message_latency_ps.max(latency_ps);
    }

    /// Record one steady-state sampling tick.
    pub fn record_sample(&mut self, sample: IntervalSample) {
        self.samples.push(sample);
    }

    /// Arm per-tenant accounting for a jobs run. Every collector that will be
    /// absorbed into this one must be armed with the identical descriptors
    /// (each shard derives them from the same resolved mix).
    pub fn init_tenants(&mut self, descs: Vec<TenantDesc>) {
        self.tenants = descs
            .into_iter()
            .map(|desc| TenantAcc {
                desc,
                ..Default::default()
            })
            .collect();
    }

    /// Note a jobs-mode message injection for `tenant` (window-filtered like
    /// [`StatsCollector::note_injection`]).
    pub fn note_tenant_injection(&mut self, tenant: u32, bytes: u64, inject_ps: u64) {
        if self.is_measured(inject_ps) {
            let t = &mut self.tenants[tenant as usize];
            t.injected_messages += 1;
            t.injected_bytes += bytes;
        }
    }

    /// Record a delivered packet for `tenant` (same filtering as
    /// [`StatsCollector::record_packet`], which the engine calls alongside).
    pub fn record_tenant_packet(
        &mut self,
        tenant: u32,
        latency_ps: u64,
        bytes: u64,
        delivered_at: u64,
    ) {
        if !self.is_measured(delivered_at - latency_ps) {
            return;
        }
        let t = &mut self.tenants[tenant as usize];
        t.latencies_ps.push(latency_ps);
        t.delivered_bytes += bytes;
    }

    /// Record a fully delivered measured message for `tenant`.
    pub fn record_tenant_message(&mut self, tenant: u32) {
        self.tenants[tenant as usize].delivered_messages += 1;
    }

    /// Record the delivery of one collective-schedule message for `tenant`
    /// (unwindowed — completion is a whole-run property).
    pub fn record_tenant_collective_delivery(&mut self, tenant: u32, now_ps: u64) {
        let t = &mut self.tenants[tenant as usize];
        t.collective_delivered += 1;
        t.collective_last_ps = t.collective_last_ps.max(now_ps);
    }

    /// Add ranks that completed their collective (each engine/shard reports
    /// the ranks it owns exactly once, at the end of the run).
    pub fn add_tenant_ranks_completed(&mut self, tenant: u32, ranks: usize) {
        self.tenants[tenant as usize].ranks_completed += ranks;
    }

    /// Accumulate a phase's event-loop counters.
    pub fn record_engine(&mut self, counters: &EngineCounters) {
        self.counters.merge(counters);
    }

    /// Fold another collector (a worker shard's partial observations) into this
    /// one. Every aggregate [`StatsCollector::finish`] derives is order-free
    /// (sums, maxes, sorted percentiles), so absorbing shards in any order
    /// yields the same [`SimResults`] as a single sequential collector.
    pub(crate) fn absorb(&mut self, other: StatsCollector) {
        debug_assert_eq!(
            self.window, other.window,
            "absorbing a collector with a different measurement window"
        );
        self.latencies_ps.extend(other.latencies_ps);
        self.hop_sum += other.hop_sum;
        self.max_hops = self.max_hops.max(other.max_hops);
        self.bytes += other.bytes;
        self.messages_done += other.messages_done;
        self.max_message_latency_ps = self
            .max_message_latency_ps
            .max(other.max_message_latency_ps);
        self.last_delivery_ps = self.last_delivery_ps.max(other.last_delivery_ps);
        self.injected_in_window += other.injected_in_window;
        self.min_inject_ps = self.min_inject_ps.min(other.min_inject_ps);
        self.max_inject_ps = self.max_inject_ps.max(other.max_inject_ps);
        self.samples.extend(other.samples);
        self.counters.merge(&other.counters);
        if self.tenants.is_empty() {
            self.tenants = other.tenants;
        } else if !other.tenants.is_empty() {
            debug_assert_eq!(self.tenants.len(), other.tenants.len());
            for (mine, theirs) in self.tenants.iter_mut().zip(other.tenants) {
                mine.absorb(theirs);
            }
        }
    }

    /// Finalize into a [`SimResults`].
    pub fn finish(mut self) -> SimResults {
        let measurement = self.window.map(|(s, e)| MeasurementSummary {
            window_start_ps: s,
            window_end_ps: e,
            injected_packets: self.injected_in_window,
            delivered_packets: self.latencies_ps.len() as u64,
            delivered_bytes: self.bytes,
            min_inject_ps: self.min_inject_ps,
            max_inject_ps: self.max_inject_ps,
        });
        let window = self.window;
        let tenants: Vec<TenantStats> =
            self.tenants.into_iter().map(|t| t.finish(window)).collect();
        let n = self.latencies_ps.len();
        if n == 0 {
            return SimResults {
                engine: self.counters,
                samples: self.samples,
                measurement,
                tenants,
                ..Default::default()
            };
        }
        let (mean, p50, p95, p99, max) = latency_summary(&mut self.latencies_ps);
        SimResults {
            completion_time_ps: self.last_delivery_ps,
            delivered_packets: n as u64,
            delivered_messages: self.messages_done,
            delivered_bytes: self.bytes,
            mean_packet_latency_ps: mean,
            max_packet_latency_ps: max,
            p50_packet_latency_ps: p50,
            p95_packet_latency_ps: p95,
            p99_packet_latency_ps: p99,
            max_message_latency_ps: self.max_message_latency_ps,
            mean_hops: self.hop_sum as f64 / n as f64,
            max_hops: self.max_hops,
            engine: self.counters,
            samples: self.samples,
            measurement,
            faults: FaultStats::default(),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_aggregates_correctly() {
        let mut c = StatsCollector::default();
        c.record_packet(100, 2, 64, 1_000);
        c.record_packet(300, 4, 64, 2_000);
        c.record_packet(200, 3, 64, 1_500);
        c.record_message(350);
        let r = c.finish();
        assert_eq!(r.delivered_packets, 3);
        assert_eq!(r.delivered_messages, 1);
        assert_eq!(r.delivered_bytes, 192);
        assert_eq!(r.completion_time_ps, 2_000);
        assert_eq!(r.max_packet_latency_ps, 300);
        assert!((r.mean_packet_latency_ps - 200.0).abs() < 1e-9);
        assert!((r.mean_hops - 3.0).abs() < 1e-9);
        assert_eq!(r.max_hops, 4);
        assert_eq!(r.max_message_latency_ps, 350);
        assert_eq!(r.p50_packet_latency_ps, 200);
        assert!(r.measurement.is_none());
    }

    #[test]
    fn empty_run_is_all_zero() {
        let r = StatsCollector::default().finish();
        assert_eq!(r.delivered_packets, 0);
        assert_eq!(r.throughput_gbps(), 0.0);
    }

    #[test]
    fn throughput_and_speedup() {
        let a = SimResults {
            completion_time_ps: 1_000_000,
            delivered_bytes: 125_000,
            ..Default::default()
        };
        // 125 KB in 1 us = 1000 Gb/s.
        assert!((a.throughput_gbps() - 1000.0).abs() < 1e-9);
        let b = SimResults {
            completion_time_ps: 2_000_000,
            ..Default::default()
        };
        assert!((b.speedup_over(&a) - 0.5).abs() < 1e-12);
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
    }

    /// Nearest-rank percentiles at the sizes the old `n·99/100` indexing got
    /// wrong: with exactly 100 samples p99 must be the 99th value, not the max.
    #[test]
    fn nearest_rank_percentiles_at_boundary_sizes() {
        // n = 1: every percentile is the single sample.
        let one = [42u64];
        for pct in [50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile_nearest_rank(&one, pct), 42, "n=1 p{pct}");
        }

        // Ascending 1..=n so the value *is* its 1-based rank.
        let v99: Vec<u64> = (1..=99).collect();
        let v100: Vec<u64> = (1..=100).collect();
        let v101: Vec<u64> = (1..=101).collect();

        // n = 99: ceil(0.50·99)=50, ceil(0.95·99)=95, ceil(0.99·99)=99.
        assert_eq!(percentile_nearest_rank(&v99, 50.0), 50);
        assert_eq!(percentile_nearest_rank(&v99, 95.0), 95);
        assert_eq!(percentile_nearest_rank(&v99, 99.0), 99);

        // n = 100: ceil(0.50·100)=50, ceil(0.95·100)=95, ceil(0.99·100)=99 —
        // the regression case: p99 of 100 samples is 99, not the max (100).
        assert_eq!(percentile_nearest_rank(&v100, 50.0), 50);
        assert_eq!(percentile_nearest_rank(&v100, 95.0), 95);
        assert_eq!(percentile_nearest_rank(&v100, 99.0), 99);
        assert_ne!(
            percentile_nearest_rank(&v100, 99.0),
            *v100.last().unwrap(),
            "p99 of 100 samples must not be the maximum"
        );

        // n = 101: ceil(0.50·101)=51 (true median), ceil(0.95·101)=96, ceil(0.99·101)=100.
        assert_eq!(percentile_nearest_rank(&v101, 50.0), 51);
        assert_eq!(percentile_nearest_rank(&v101, 95.0), 96);
        assert_eq!(percentile_nearest_rank(&v101, 99.0), 100);

        // p100 is always the maximum.
        assert_eq!(percentile_nearest_rank(&v100, 100.0), 100);
    }

    #[test]
    fn finish_reports_nearest_rank_p99() {
        let mut c = StatsCollector::default();
        // 100 packets with latencies 1..=100.
        for lat in 1..=100u64 {
            c.record_packet(lat, 1, 8, 1_000 + lat);
        }
        let r = c.finish();
        assert_eq!(r.p99_packet_latency_ps, 99);
        assert_eq!(r.p95_packet_latency_ps, 95);
        assert_eq!(r.p50_packet_latency_ps, 50);
        assert_eq!(r.max_packet_latency_ps, 100);
    }

    #[test]
    fn window_filters_packets_by_injection_time() {
        let mut c = StatsCollector::with_window(1_000, 2_000);
        // Injected at 500 (delivered 1500): warmup, ignored.
        c.record_packet(1_000, 1, 64, 1_500);
        // Injected at 1_200 (delivered 1_900): measured.
        c.record_packet(700, 2, 64, 1_900);
        // Injected at 2_000 (delivered 2_100): past the window end, ignored.
        c.record_packet(100, 1, 64, 2_100);
        c.note_injection(500);
        c.note_injection(1_200);
        c.note_injection(2_000);
        let r = c.finish();
        assert_eq!(r.delivered_packets, 1);
        assert_eq!(r.delivered_bytes, 64);
        let m = r.measurement.expect("windowed run has a summary");
        assert_eq!(m.injected_packets, 1);
        assert_eq!(m.delivered_packets, 1);
        assert_eq!(m.min_inject_ps, 1_200);
        assert_eq!(m.max_inject_ps, 1_200);
        assert!(m.min_inject_ps >= m.window_start_ps);
    }

    #[test]
    fn counters_merge_and_interval_throughput() {
        let mut a = EngineCounters {
            events: 10,
            timed_retries: 2,
            arena_slots: 7,
            ..Default::default()
        };
        a.merge(&EngineCounters {
            events: 5,
            timed_retries: 1,
            blocked_parks: 3,
            wakeups: 3,
            arena_slots: 4,
        });
        assert_eq!(a.events, 15);
        assert_eq!(a.timed_retries, 3);
        assert_eq!(a.blocked_parks, 3);
        // Arena high-water merges by max, not sum.
        assert_eq!(a.arena_slots, 7);
        let s = IntervalSample {
            t_ps: 1_000_000,
            delivered_bytes: 125_000,
            delivered_packets: 31,
            mean_queue_depth: 1.5,
            blocked_links: 4,
        };
        // 125 KB per 1 us = 1000 Gb/s.
        assert!((s.throughput_gbps(1_000_000) - 1000.0).abs() < 1e-9);
        assert_eq!(s.throughput_gbps(0), 0.0);
    }
}
