//! The run driver — everything about a run that does not depend on how
//! buffers are modelled (docs/ARCHITECTURE.md § "One run driver, one core"):
//!
//! * the front door, [`RunPlan::new`]: `(SimConfig, workload, optional load)`
//!   → a validated [`Mode`] plus the expanded fault timeline, or the
//!   [`SimError`] that says why no run can start;
//! * [`Traffic`]: one shard's continuous sources and collective trackers — the
//!   steady-state prelude ([`Traffic::arm`]) and the two per-message hooks of
//!   the steady event loops, which call into the event core through three
//!   `ShardCore` methods: `inject_message`, `schedule_source`, `arm_faults`.
//!
//! Every source draws from a stream of its own, seeded by `(seed, endpoint)`
//! and consumed in one fixed order — pattern, then gap — so which shard owns
//! a source cannot change its draws.

use super::shard::{mix64, ShardCore};
use super::{FaultRuntime, SimError};
use crate::config::{serialization_ps, MeasurementWindows, SimConfig, MAX_MESSAGE_BYTES};
use crate::fault::{self, FaultTimeline};
use crate::job::{self, CollectiveState, JobBehavior, MixPlan, MsgTag, RateProcess, RateRuntime};
use crate::network::SimNetwork;
use crate::pattern::{self, TrafficPattern};
use crate::routing::Router;
use crate::stats::StatsCollector;
use crate::workload::Workload;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// The tag of a message no tenant owns (every message outside jobs mode).
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
    /// Continuous sources under measurement windows.
    Steady(Steady<'c>),
}

/// A steady-state run: `traffic` at the run-level offered `load`, under
/// windows whose deadline fits `u64`.
pub(crate) struct Steady<'c> {
    pub load: f64,
    pub windows: &'c MeasurementWindows,
    pub traffic: TrafficPlan,
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
        // Windows only apply under an offered load: workload-paced runs are
        // finite by nature.
        let (mode, horizon_ps) = match (offered_load, &cfg.windows) {
            (Some(load), Some(windows)) => {
                let deadline = checked_deadline_ps(windows)?;
                let traffic = TrafficPlan::new(net, cfg, workload, windows)?;
                let steady = Steady {
                    load,
                    windows,
                    traffic,
                };
                (Mode::Steady(steady), deadline)
            }
            _ if cfg.jobs.is_some() => return Err(SimError::JobsWithoutWindows),
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

/// Reject a workload that names an endpoint the network does not have, or a
/// message larger than [`MAX_MESSAGE_BYTES`].
fn check_workload(net: &SimNetwork, workload: &Workload) -> Result<(), SimError> {
    let endpoints = net.num_endpoints();
    if let Some(max_ep) = workload.max_endpoint().filter(|&e| e >= endpoints) {
        return Err(SimError::EndpointOutOfRange(format!(
            "workload references endpoint {max_ep} but the network has only {endpoints}"
        )));
    }
    match (workload.messages.iter().enumerate()).find(|(_, m)| m.bytes > MAX_MESSAGE_BYTES) {
        Some((i, m)) => Err(SimError::Config(format!(
            "workload message {i} has {} bytes, more than the {MAX_MESSAGE_BYTES} a message \
             may have",
            m.bytes
        ))),
        None => Ok(()),
    }
}

/// The finite half of the front door: the workload must fit the network and,
/// on a degraded one, every message pair must still be connected.
pub(crate) fn check_finite(net: &SimNetwork, workload: &Workload) -> Result<(), SimError> {
    check_workload(net, workload)?;
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
        diagnosis: format!(
            "simulation deadlocked with {undelivered} undelivered packets and \
             {parked} links parked in a cyclic head-of-line wait (link queues: \
             {in_queues}, pending injections: {pending}, occupancy sum: {occ}); \
             single-FIFO link queues can deadlock across virtual channels when \
             buffer_packets_per_vc is very small — increase it"
        ),
    }
}

/// What a steady-state run's sources send, resolved once per run and shared
/// by every shard of it.
pub(crate) enum TrafficPlan {
    /// Every sending endpoint of the workload cycles through its own
    /// messages.
    Templates(TemplatePlan),
    /// [`SimConfig::jobs`]: tenants draw their own traffic, superseding both
    /// the workload templates and the live destination pattern.
    Jobs(MixPlan),
}

/// Template-mode traffic: per-endpoint message templates and the optional
/// live destination pattern.
pub(crate) struct TemplatePlan {
    /// `(dst endpoint, bytes)` per sending endpoint, in workload order.
    templates: Vec<Vec<(usize, u64)>>,
    pattern: Option<Box<dyn TrafficPattern>>,
    /// The surviving endpoint space of a degraded network under a live
    /// pattern: the endpoints of up routers ascending, and each endpoint's
    /// index in that list (`u32::MAX` for dead ones). The pattern runs over
    /// these ranks — the surviving machine — and only alive endpoints inject.
    /// Pristine networks skip the mapping, keeping them bit-identical.
    alive: Option<(Vec<usize>, Vec<u32>)>,
    /// Size of the pattern's endpoint space.
    pattern_endpoints: usize,
}

impl TrafficPlan {
    /// Resolve the steady-state traffic of a run, with the feasibility checks
    /// a degraded network needs: a job mix or a live pattern draws
    /// destinations across the whole surviving machine, so every surviving
    /// router must be reachable; template runs validate their message pairs.
    fn new(
        net: &SimNetwork,
        cfg: &SimConfig,
        workload: &Workload,
        w: &MeasurementWindows,
    ) -> Result<Self, SimError> {
        let machine_wide = cfg.jobs.is_some() || w.pattern.is_some();
        if net.has_faults() && machine_wide {
            fault::validate_steady_pattern(net)?;
        }
        if let Some(mix) = cfg.jobs.as_deref() {
            let alive = net.alive_endpoints();
            let plan = job::resolve_mix(mix, &job::JobCtx::new(), &alive, cfg.seed)
                .map_err(SimError::Job)?;
            return Ok(TrafficPlan::Jobs(plan));
        }
        check_workload(net, workload)?;
        if net.has_faults() && !machine_wide {
            fault::validate_workload(net, workload)?;
        }
        let alive = (net.has_faults() && machine_wide).then(|| {
            let alive = net.alive_endpoints();
            let mut rank = vec![u32::MAX; net.num_endpoints()];
            for (i, &e) in alive.iter().enumerate() {
                rank[e] = i as u32;
            }
            (alive, rank)
        });
        let pattern_endpoints =
            (alive.as_ref()).map_or(net.num_endpoints(), |(alive, _)| alive.len());
        let pattern = (w.pattern.as_deref())
            .map(|spec| pattern::create(spec, &pattern::PatternCtx::new(pattern_endpoints)))
            .transpose()
            .map_err(SimError::Pattern)?;
        let mut templates: Vec<Vec<(usize, u64)>> = vec![Vec::new(); net.num_endpoints()];
        for m in &workload.messages {
            templates[m.src].push((m.dst, m.bytes));
        }
        Ok(TrafficPlan::Templates(TemplatePlan {
            templates,
            pattern,
            alive,
            pattern_endpoints,
        }))
    }

    /// A collector over the windows, with the tenant table armed in jobs
    /// mode (every shard arms the identical table).
    pub(crate) fn stats(&self, w: &MeasurementWindows) -> StatsCollector {
        let mut stats = StatsCollector::with_window(w.measure_start_ps(), w.measure_end_ps());
        if let TrafficPlan::Jobs(plan) = self {
            stats.init_tenants(plan.tenant_descs());
        }
        stats
    }
}

/// How fast sources send and when they fall silent.
#[derive(Clone, Copy)]
struct Pace<'p> {
    cfg: &'p SimConfig,
    /// The run-level offered load (scales every open-loop tenant's rates).
    load: f64,
    /// End of injection — the end of the measurement window.
    end_ps: u64,
}

impl Pace<'_> {
    /// Queue source `si`'s next arrival unless it falls past the end of
    /// injection.
    fn schedule(&self, core: &mut ShardCore<'_>, time: u64, si: usize, endpoint: usize) {
        if time < self.end_ps {
            core.schedule_source(time, si as u32, endpoint);
        }
    }

    /// Exponential inter-arrival gap for a message of `bytes` at the offered
    /// load of the endpoint injection bandwidth.
    fn exp_gap(&self, bytes: u64, rng: &mut StdRng) -> u64 {
        let ser = serialization_ps(bytes) as f64;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (-u.ln() * ser / self.load) as u64
    }
}

/// One shard's share of a steady-state run's traffic.
pub(crate) enum Traffic<'p> {
    Templates(TemplateSources<'p>),
    Jobs(Tenants<'p>),
}

impl<'p> Traffic<'p> {
    /// The steady-state prelude, in the one order every shard replays: arm
    /// the fault timeline, build the sources on endpoints `owns` accepts and
    /// schedule each one's first arrival, then fire every owned rank's round-0
    /// collective groups at `t = 0`.
    pub(crate) fn arm(
        core: &mut ShardCore<'_>,
        run: &'p RunPlan<'_>,
        steady: &'p Steady<'_>,
        owns: impl Fn(usize) -> bool,
    ) -> Self {
        if let Some(timeline) = &run.timeline {
            core.arm_faults(timeline, false);
        }
        let pace = Pace {
            cfg: run.cfg,
            load: steady.load,
            end_ps: steady.windows.measure_end_ps(),
        };
        match &steady.traffic {
            TrafficPlan::Templates(plan) => {
                Traffic::Templates(TemplateSources::arm(core, pace, plan, owns))
            }
            TrafficPlan::Jobs(plan) => Traffic::Jobs(Tenants::arm(core, pace, plan, owns)),
        }
    }

    /// Source `si`'s arrival at `now`: generate its message and schedule its
    /// next arrival.
    pub(crate) fn next_message(&mut self, core: &mut ShardCore<'_>, si: usize, now: u64) {
        match self {
            Traffic::Templates(t) => t.spawn_message(core, si, now),
            Traffic::Jobs(t) => t.spawn_job_message(core, si, now),
        }
    }

    /// A collective message tagged `tag` was fully delivered at `now`:
    /// release the destination rank's dependency and fire (and inject)
    /// whatever rounds the delivery unblocks, at the delivery's own
    /// timestamp. A terminally failed collective message never gets here and
    /// stalls its destination rank's chain by design: collective completion
    /// semantics are delivery, not transmission.
    pub(crate) fn collective_delivered(&mut self, core: &mut ShardCore<'_>, tag: MsgTag, now: u64) {
        let Traffic::Jobs(tenants) = self else {
            unreachable!("collective tag outside jobs mode")
        };
        let cs = tenants.collectives[tag.tenant as usize]
            .as_mut()
            .expect("collective tag on a non-collective tenant");
        if let Some(g) = cs.on_delivered(tag.dst_rank, tag.round) {
            let endpoints = &tenants.plan.tenants[tag.tenant as usize].endpoints;
            fire_collective(core, endpoints, tag.tenant, cs, g, now);
        }
    }

    /// End-of-run report: the completed collective ranks whose endpoints
    /// `owns` accepts (trivially complete ranks are complete in every shard's
    /// tracker copy, so each shard counts only its own and the merged total
    /// counts each rank once).
    pub(crate) fn report_ranks(&self, stats: &mut StatsCollector, owns: impl Fn(usize) -> bool) {
        let Traffic::Jobs(tenants) = self else {
            return;
        };
        for (ti, cs) in tenants.collectives.iter().enumerate() {
            if let Some(cs) = cs {
                let endpoints = &tenants.plan.tenants[ti].endpoints;
                let done = cs.ranks_completed_among(|rank| owns(endpoints[rank]));
                stats.add_tenant_ranks_completed(ti as u32, done);
            }
        }
    }
}

/// Template-mode sources: one continuous Poisson source per sending endpoint,
/// cycling through that endpoint's workload messages.
pub(crate) struct TemplateSources<'p> {
    pace: Pace<'p>,
    plan: &'p TemplatePlan,
    sources: Vec<Source<'p>>,
}

struct Source<'p> {
    endpoint: usize,
    templates: &'p [(usize, u64)],
    next_template: usize,
    rng: StdRng,
}

/// A template source's stream: keyed by `(seed, endpoint)`, so its draws
/// cannot depend on which shard owns it. It reads like `job::source_rng`
/// (jobs-mode sources), but this one mixes with `shard::mix64`, which adds
/// the SplitMix64 increment that `job::mix64` does not: the two draw
/// different streams, and merging them would re-record every steady golden.
fn source_rng(seed: u64, endpoint: usize) -> StdRng {
    StdRng::seed_from_u64(mix64(seed).wrapping_add(mix64(endpoint as u64 ^ 0x005E_ED50_17CE)))
}

impl<'p> TemplateSources<'p> {
    fn arm(
        core: &mut ShardCore<'_>,
        pace: Pace<'p>,
        plan: &'p TemplatePlan,
        owns: impl Fn(usize) -> bool,
    ) -> Self {
        let alive = |e: usize| (plan.alive.as_ref()).is_none_or(|(_, rank)| rank[e] != u32::MAX);
        let mut sources: Vec<Source<'p>> = (plan.templates.iter().enumerate())
            .filter(|(e, t)| !t.is_empty() && alive(*e) && owns(*e))
            .map(|(endpoint, templates)| Source {
                endpoint,
                templates,
                next_template: 0,
                rng: source_rng(pace.cfg.seed, endpoint),
            })
            .collect();
        for (si, s) in sources.iter_mut().enumerate() {
            let gap = pace.exp_gap(s.templates[0].1, &mut s.rng);
            pace.schedule(core, gap, si, s.endpoint);
        }
        TemplateSources {
            pace,
            plan,
            sources,
        }
    }

    /// Generate one message from source `si` at its arrival time `now` and
    /// schedule the source's next arrival — pattern draw (if any), then gap
    /// draw, both from the source's stream: the fixed draw order that keeps
    /// per-source streams shard-count-invariant.
    ///
    /// With a destination pattern configured, the message's destination is
    /// drawn live from it (one pattern draw per message); the template cycle
    /// still supplies the message size, so workloads keep controlling *how
    /// much* each endpoint sends while the pattern controls *where to*. On a
    /// degraded network the pattern speaks in surviving-machine ranks: the
    /// source's rank goes in, the drawn rank is mapped back to a physical
    /// endpoint.
    fn spawn_message(&mut self, core: &mut ShardCore<'_>, si: usize, now: u64) {
        let (pace, plan, src) = (self.pace, self.plan, &mut self.sources[si]);
        let (mut dst, bytes) = src.templates[src.next_template % src.templates.len()];
        src.next_template += 1;
        if let Some(p) = plan.pattern.as_deref() {
            let src_rank = match &plan.alive {
                None => src.endpoint,
                Some((_, rank)) => rank[src.endpoint] as usize,
            };
            let drawn = p.dst(src_rank, &mut src.rng);
            // Hard assert (not debug_assert): TrafficPattern is a third-party
            // extension point, and an out-of-range destination would
            // otherwise index past the endpoint map far from the buggy draw.
            assert!(
                drawn < plan.pattern_endpoints,
                "pattern {} returned out-of-range destination {drawn} (pattern space has {} endpoints)",
                p.name(),
                plan.pattern_endpoints
            );
            dst = match &plan.alive {
                None => drawn,
                Some((alive, _)) => alive[drawn],
            };
        }
        core.inject_message(now, src.endpoint, dst, bytes, UNTAGGED);
        // Next arrival of the (open-loop) Poisson process, measured from this
        // arrival.
        let next = now.saturating_add(pace.exp_gap(bytes, &mut src.rng));
        pace.schedule(core, next, si, src.endpoint);
    }
}

/// Jobs-mode traffic: the open-loop sources and collective trackers of the
/// mix's tenants.
pub(crate) struct Tenants<'p> {
    pace: Pace<'p>,
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

impl<'p> Tenants<'p> {
    fn arm(
        core: &mut ShardCore<'_>,
        pace: Pace<'p>,
        plan: &'p MixPlan,
        owns: impl Fn(usize) -> bool,
    ) -> Self {
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
                rng: job::source_rng(pace.cfg.seed, ep),
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
        Tenants {
            pace,
            plan,
            sources,
            collectives,
        }
    }

    /// One open-loop arrival of source `si`: draw the destination rank from
    /// the tenant's pattern, inject the message, and schedule the source's
    /// next arrival from its rate process.
    fn spawn_job_message(&mut self, core: &mut ShardCore<'_>, si: usize, now: u64) {
        let (pace, s) = (self.pace, &mut self.sources[si]);
        let tenant = &self.plan.tenants[s.tenant as usize];
        let JobBehavior::OpenLoop(spec) = &tenant.behavior else {
            unreachable!("open-loop source on a collective tenant")
        };
        let drawn = spec.pattern.dst(s.rank as usize, &mut s.rng);
        // Hard assert, as in `spawn_message`: a third-party extension point.
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
