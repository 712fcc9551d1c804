//! The run driver — everything about a run that does not depend on how
//! buffers are modelled (docs/ARCHITECTURE.md § "One run driver, one core"):
//!
//! * the front door, [`RunPlan::new`]: `(SimConfig, workload, optional load)`
//!   → a validated [`Mode`] plus the expanded fault timeline, or the
//!   [`SimError`] that says why no run can start;
//! * [`Traffic`]: one shard's share of the job mix — its tenants' continuous
//!   sources and collective trackers: the steady-state prelude
//!   ([`Traffic::arm`]) and the two per-message hooks of the steady event
//!   loop, which call into the event core through three `ShardCore` methods:
//!   `inject_message`, `schedule_source`, `arm_faults`.
//!
//! Every source draws from a stream of its own, seeded by `(seed, endpoint)`
//! and consumed in one fixed order — destination, then arrival gap — so
//! which shard owns a source cannot change its draws.

use super::shard::ShardCore;
use super::{FaultRuntime, SimError};
use crate::config::{serialization_ps, MeasurementWindows, SimConfig, MAX_MESSAGE_BYTES};
use crate::fault::{self, FaultTimeline};
use crate::job::{self, CollectiveState, JobBehavior, MixPlan, MsgTag, RateProcess, RateRuntime};
use crate::network::SimNetwork;
use crate::routing::Router;
use crate::stats::StatsCollector;
use crate::workload::Workload;
use rand::rngs::StdRng;
use std::sync::Arc;

/// The tag of a message no tenant owns (every message of a finite run).
pub(crate) const UNTAGGED: MsgTag = MsgTag {
    tenant: u32::MAX,
    dst_rank: 0,
    round: u32::MAX,
};

/// How a run executes, decided once at the front door.
pub(crate) enum Mode<'c> {
    /// Inject every workload message once — Poisson-spaced at the offered
    /// load, or as the workload paces them — and drain to empty.
    Finite { offered_load: Option<f64> },
    /// The job mix's continuous sources under measurement windows.
    Steady(Steady<'c>),
}

/// A steady-state run: the job mix `plan` at the run-level offered `load`,
/// under windows whose deadline fits `u64`.
pub(crate) struct Steady<'c> {
    pub load: f64,
    pub windows: &'c MeasurementWindows,
    pub plan: MixPlan,
}

impl Steady<'_> {
    /// A collector over the windows with the tenant table armed (every shard
    /// arms the identical table).
    pub(crate) fn stats(&self) -> StatsCollector {
        let w = self.windows;
        let mut stats = StatsCollector::with_window(w.measure_start_ps(), w.measure_end_ps());
        stats.init_tenants(self.plan.tenant_descs());
        stats
    }
}

/// A validated run: short of a deadlock, nothing here can fail any more.
pub(crate) struct RunPlan<'c> {
    pub cfg: &'c SimConfig,
    pub mode: Mode<'c>,
    /// The configured fault script expanded over the run's horizon. The
    /// runtime machinery is armed whenever a script is present — even one
    /// whose expansion drew no events — so the fault statistics (including
    /// the conservation identity) are populated for every scripted run.
    pub timeline: Option<Arc<FaultTimeline>>,
}

impl<'c> RunPlan<'c> {
    /// The front door: every rejection a configuration can earn, in one
    /// place, before any simulation work. `setup` is the simulator's
    /// construction-time resolution ([`super::resolve_router`]).
    pub(crate) fn new(
        net: &SimNetwork,
        cfg: &'c SimConfig,
        setup: &Result<Box<dyn Router>, SimError>,
        workload: &Workload,
        offered_load: Option<f64>,
    ) -> Result<Self, SimError> {
        if let Err(rejection) = setup {
            return Err(rejection.clone());
        }
        if let Some(load) = offered_load {
            super::check_offered_load(load)?;
        }
        // A steady run is windows, an offered load and a job mix; windows
        // without a load leave a workload-paced run, finite by nature.
        let (mode, horizon_ps) = match (offered_load, &cfg.windows, cfg.jobs.as_deref()) {
            (Some(load), Some(windows), Some(mix)) => {
                let deadline = checked_deadline_ps(windows)?;
                if net.has_faults() {
                    fault::validate_steady_mix(net)?;
                }
                let alive = net.alive_endpoints();
                let ctx = job::JobCtx {
                    registries: cfg.registries.clone(),
                };
                let plan = job::resolve_mix(mix, &ctx, &alive, cfg.seed).map_err(SimError::Job)?;
                let steady = Steady {
                    load,
                    windows,
                    plan,
                };
                (Mode::Steady(steady), deadline)
            }
            (Some(_), Some(_), None) => return Err(SimError::SteadyRunWithoutJobs),
            (_, _, Some(_)) => return Err(SimError::JobsWithoutSteadyRun),
            _ => {
                check_finite(net, workload)?;
                (Mode::Finite { offered_load }, cfg.fault_horizon_ps)
            }
        };
        Ok(RunPlan {
            cfg,
            mode,
            timeline: fault_timeline(net, cfg, horizon_ps)?,
        })
    }
}

/// Expand the configured fault script against the (possibly statically
/// degraded) topology, or `None` when no script is configured.
fn fault_timeline(
    net: &SimNetwork,
    cfg: &SimConfig,
    horizon_ps: u64,
) -> Result<Option<Arc<FaultTimeline>>, SimError> {
    if cfg.fault_script.is_none() {
        return Ok(None);
    }
    let timeline = cfg.fault_script.expand(net.graph(), horizon_ps)?;
    Ok(Some(Arc::new(timeline)))
}

/// The windows' hard stop, rejecting an empty measurement window and windows
/// whose spans (or whose last sampling tick) do not fit `u64` picoseconds
/// instead of wrapping.
fn checked_deadline_ps(w: &MeasurementWindows) -> Result<u64, SimError> {
    if w.measure_ps == 0 {
        return Err(SimError::Windows(
            "the measurement window is empty (measure_ps = 0)".to_string(),
        ));
    }
    (w.warmup_ps.checked_add(w.measure_ps))
        .and_then(|end| end.checked_add(w.drain_ps()))
        .filter(|deadline| deadline.checked_add(w.sample_interval_ps()).is_some())
        .ok_or_else(|| {
            SimError::Windows(format!(
                "measurement windows overflow u64 picoseconds: warmup {} + measure {} + \
                 drain {} (+ one sample interval)",
                w.warmup_ps,
                w.measure_ps,
                w.drain_ps()
            ))
        })
}

/// The finite half of the front door: reject a workload that names an
/// endpoint the network does not have or a message larger than
/// [`MAX_MESSAGE_BYTES`], and, on a degraded network, one whose message pairs
/// are not all still connected.
fn check_finite(net: &SimNetwork, workload: &Workload) -> Result<(), SimError> {
    let endpoints = net.num_endpoints();
    if let Some(max_ep) = workload.max_endpoint().filter(|&e| e >= endpoints) {
        return Err(SimError::EndpointOutOfRange(format!(
            "workload references endpoint {max_ep} but the network has only {endpoints}"
        )));
    }
    if let Some((i, m)) =
        (workload.messages.iter().enumerate()).find(|(_, m)| m.bytes > MAX_MESSAGE_BYTES)
    {
        return Err(SimError::Config(format!(
            "workload message {i} has {} bytes, more than the {MAX_MESSAGE_BYTES} a message \
             may have",
            m.bytes
        )));
    }
    if net.has_faults() {
        fault::validate_workload(net, workload)?;
    }
    Ok(())
}

/// A fresh liveness view over `timeline`, and the `(time, index)` of its
/// first live entry for the core to queue. A `finite` run starts on the
/// entries at `t = 0` — replayed as pure mask flips, no packet exists yet —
/// and the chain resumes from the first entry still ahead. In a steady-state
/// run every entry — an `at(0us, …)` one included — is a live, counted fault
/// event.
pub(crate) fn fault_runtime(
    net: &SimNetwork,
    timeline: &Arc<FaultTimeline>,
    finite: bool,
) -> (Box<FaultRuntime>, Option<(u64, u32)>) {
    let mut runtime = Box::new(FaultRuntime::new(net, Arc::clone(timeline)));
    let idx = if finite {
        runtime.apply_initial(net)
    } else {
        0
    };
    let first = timeline.events.get(idx).map(|e| (e.time_ps, idx as u32));
    (runtime, first)
}

/// A finite run ended with packets neither delivered nor terminally failed.
/// With every initial injection issued and links still parked that is a
/// genuine buffer deadlock, which the wakeup design makes a detectable
/// quiescent state and this a typed error; anything else is an engine bug,
/// [`SimError::Internal`].
pub(crate) fn undrained(
    undelivered: u64,
    unspent: usize,
    parked: usize,
    in_queues: usize,
    pending: usize,
    occ: u32,
) -> SimError {
    if unspent > 0 || parked == 0 {
        return SimError::Internal(format!(
            "simulation ended with {undelivered} undelivered packets \
             (initial injections never issued: {unspent}, parked links: {parked}, \
             link queues: {in_queues}, pending injections: {pending}, \
             occupancy sum: {occ})"
        ));
    }
    SimError::Deadlock {
        diagnosis: deadlock_diagnosis(undelivered, parked, in_queues, pending, occ),
    }
}

/// A steady-state or jobs run whose event queue emptied before its deadline
/// with `parked` links still parked: no credit can return, so the fabric is
/// wedged and its window is not a measurement. Every packet left sits in a
/// link queue or a pending-injection buffer.
pub(crate) fn wedged(
    parked: usize,
    in_queues: usize,
    pending: usize,
    occ: u32,
    last_delivery_ps: u64,
) -> SimError {
    let undelivered = (in_queues + pending) as u64;
    let diagnosis = deadlock_diagnosis(undelivered, parked, in_queues, pending, occ);
    SimError::Deadlock {
        diagnosis: format!("{diagnosis}; the last packet was delivered at {last_delivery_ps} ps"),
    }
}

fn deadlock_diagnosis(
    undelivered: u64,
    parked: usize,
    in_queues: usize,
    pending: usize,
    occ: u32,
) -> String {
    format!(
        "simulation deadlocked with {undelivered} undelivered packets and \
         {parked} links parked in a cyclic head-of-line wait (link queues: \
         {in_queues}, pending injections: {pending}, occupancy sum: {occ}); \
         single-FIFO link queues can deadlock across virtual channels when \
         buffer_packets_per_vc is very small — increase it"
    )
}

/// How fast sources send and when they fall silent.
#[derive(Clone, Copy)]
struct Pace {
    /// The run-level offered load (scales every open-loop tenant's rates).
    load: f64,
    /// End of injection — the end of the measurement window.
    end_ps: u64,
}

impl Pace {
    /// Queue source `si`'s next arrival unless it falls past the end of
    /// injection.
    fn schedule(&self, core: &mut ShardCore<'_>, time: u64, si: usize, endpoint: usize) {
        if time < self.end_ps {
            core.schedule_source(time, si as u32, endpoint);
        }
    }
}

/// One shard's share of a steady-state run's traffic: the open-loop sources
/// and collective trackers of the mix's tenants.
pub(crate) struct Traffic<'p> {
    pace: Pace,
    plan: &'p MixPlan,
    sources: Vec<JobSource>,
    /// Per tenant, a collective's dependency tracker. Every shard holds a full
    /// copy but drives — and at the end reports — only the ranks whose
    /// endpoints it owns: all packets of a message deliver at the destination
    /// rank's router, and the groups the delivery releases belong to that
    /// same rank, so a release never needs another shard's state.
    collectives: Vec<Option<CollectiveState>>,
}

/// One rank of an open-loop tenant, driving the tenant's [`RateProcess`] from
/// a dedicated per-endpoint RNG (see [`job::source_rng`]), so open-loop
/// injection schedules are shard-count-invariant.
struct JobSource {
    endpoint: usize,
    tenant: u32,
    rank: u32,
    bytes: u64,
    /// NIC serialization of one message at full injection bandwidth — the
    /// rate process's time base.
    ser_ps: u64,
    rate: RateProcess,
    rt: RateRuntime,
    rng: StdRng,
}

impl<'p> Traffic<'p> {
    /// The steady-state prelude, in the one order every shard replays: arm
    /// the fault timeline, build the sources on endpoints `owns` accepts and
    /// schedule each one's first arrival, then fire every owned rank's round-0
    /// collective groups at `t = 0`.
    pub(crate) fn arm(
        core: &mut ShardCore<'_>,
        run: &RunPlan<'_>,
        steady: &'p Steady<'_>,
        owns: impl Fn(usize) -> bool,
    ) -> Self {
        if let Some(timeline) = &run.timeline {
            core.arm_faults(timeline, false);
        }
        let pace = Pace {
            load: steady.load,
            end_ps: steady.windows.measure_end_ps(),
        };
        let plan = &steady.plan;
        let mut sources: Vec<JobSource> = Vec::new();
        for (ti, t) in plan.tenants.iter().enumerate() {
            let JobBehavior::OpenLoop(spec) = &t.behavior else {
                continue;
            };
            let owned = t.endpoints.iter().enumerate().filter(|(_, &ep)| owns(ep));
            sources.extend(owned.map(|(rank, &ep)| JobSource {
                endpoint: ep,
                tenant: ti as u32,
                rank: rank as u32,
                bytes: spec.bytes,
                ser_ps: serialization_ps(spec.bytes),
                rate: spec.rate.clone(),
                rt: RateRuntime::default(),
                rng: job::source_rng(run.cfg.seed, ep),
            }));
        }
        for (si, s) in sources.iter_mut().enumerate() {
            let first = s
                .rate
                .next_arrival_ps(&mut s.rt, 0, s.ser_ps, pace.load, &mut s.rng);
            pace.schedule(core, first, si, s.endpoint);
        }
        let mut collectives: Vec<Option<CollectiveState>> = Vec::new();
        for (ti, t) in plan.tenants.iter().enumerate() {
            collectives.push(match &t.behavior {
                JobBehavior::OpenLoop(_) => None,
                JobBehavior::Collective(sched) => {
                    let mut cs = CollectiveState::new(Arc::clone(sched));
                    for g in cs.ready_at_start(|rank| owns(t.endpoints[rank])) {
                        fire_collective(core, &t.endpoints, ti as u32, &mut cs, g, 0);
                    }
                    Some(cs)
                }
            });
        }
        Traffic {
            pace,
            plan,
            sources,
            collectives,
        }
    }

    /// One open-loop arrival of source `si` at `now`: draw the destination
    /// rank from the tenant's pattern, inject the message, and schedule the
    /// source's next arrival from its rate process.
    pub(crate) fn next_message(&mut self, core: &mut ShardCore<'_>, si: usize, now: u64) {
        let (pace, s) = (self.pace, &mut self.sources[si]);
        let tenant = &self.plan.tenants[s.tenant as usize];
        let JobBehavior::OpenLoop(spec) = &tenant.behavior else {
            unreachable!("open-loop source on a collective tenant")
        };
        let drawn = spec.pattern.dst(s.rank as usize, &mut s.rng);
        // Hard assert (not debug_assert): TrafficPattern is a third-party
        // extension point, and an out-of-range destination would otherwise
        // index past the tenant's endpoints far from the buggy draw.
        assert!(
            drawn < tenant.endpoints.len(),
            "pattern {} returned out-of-range destination {drawn} (tenant has {} ranks)",
            spec.pattern.name(),
            tenant.endpoints.len()
        );
        let tag = MsgTag::open_loop(s.tenant, drawn as u32);
        core.inject_message(now, s.endpoint, tenant.endpoints[drawn], s.bytes, tag);
        let next = s
            .rate
            .next_arrival_ps(&mut s.rt, now, s.ser_ps, pace.load, &mut s.rng);
        pace.schedule(core, next, si, s.endpoint);
    }

    /// A collective message tagged `tag` was fully delivered at `now`:
    /// release the destination rank's dependency and fire (and inject)
    /// whatever rounds the delivery unblocks, at the delivery's own
    /// timestamp. A terminally failed collective message never gets here and
    /// stalls its destination rank's chain by design: collective completion
    /// semantics are delivery, not transmission.
    pub(crate) fn collective_delivered(&mut self, core: &mut ShardCore<'_>, tag: MsgTag, now: u64) {
        let cs = self.collectives[tag.tenant as usize]
            .as_mut()
            .expect("collective tag on a non-collective tenant");
        if let Some(g) = cs.on_delivered(tag.dst_rank, tag.round) {
            let endpoints = &self.plan.tenants[tag.tenant as usize].endpoints;
            fire_collective(core, endpoints, tag.tenant, cs, g, now);
        }
    }

    /// End-of-run report: the completed collective ranks whose endpoints
    /// `owns` accepts (trivially complete ranks are complete in every shard's
    /// tracker copy, so each shard counts only its own and the merged total
    /// counts each rank once).
    pub(crate) fn report_ranks(&self, stats: &mut StatsCollector, owns: impl Fn(usize) -> bool) {
        for (ti, cs) in self.collectives.iter().enumerate() {
            if let Some(cs) = cs {
                let endpoints = &self.plan.tenants[ti].endpoints;
                let done = cs.ranks_completed_among(|rank| owns(endpoints[rank]));
                stats.add_tenant_ranks_completed(ti as u32, done);
            }
        }
    }
}

/// Fire collective group `g` of tenant `ti` at time `now`: inject its sends
/// and cascade through any same-rank follow-up groups the firing itself
/// unblocks (rounds with no inbound dependencies). Every group fired here
/// belongs to a rank the shard owns, so every send originates from an owned
/// endpoint.
fn fire_collective(
    core: &mut ShardCore<'_>,
    endpoints: &[usize],
    ti: u32,
    cs: &mut CollectiveState,
    g: usize,
    now: u64,
) {
    let rounds = cs.schedule().rounds;
    let mut ready = vec![g];
    while let Some(g) = ready.pop() {
        let (sends, next) = cs.fire(g);
        let round = (g % rounds) as u32;
        let src_ep = endpoints[g / rounds];
        for (dst_rank, bytes) in sends {
            let tag = MsgTag {
                tenant: ti,
                dst_rank,
                round,
            };
            core.inject_message(now, src_ep, endpoints[dst_rank as usize], bytes, tag);
        }
        ready.extend(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Undelivered packets with no parked link, or with initial injections
    /// never issued, are an engine bug returned as a value, not a panic; only
    /// parked links with the cursor spent make a deadlock.
    #[test]
    fn undrained_without_parked_links_is_an_internal_error() {
        let err = undrained(3, 0, 0, 1, 2, 4);
        let SimError::Internal(message) = &err else {
            panic!("expected an internal error, got {err:?}");
        };
        assert!(message.contains("3 undelivered packets"), "{message}");
        assert!(err.to_string().starts_with("engine invariant violated: "));
        assert!(matches!(undrained(3, 5, 2, 0, 0, 0), SimError::Internal(_)));
        assert!(matches!(
            undrained(3, 0, 2, 1, 0, 4),
            SimError::Deadlock { .. }
        ));
    }
}
