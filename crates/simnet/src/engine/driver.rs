//! The run driver both live engines share — everything about a run that does
//! not depend on how buffers are modelled (docs/ARCHITECTURE.md § "One run
//! driver, two flow-control cores"):
//!
//! * the front door, [`RunPlan::new`]: `(SimConfig, workload, optional load)`
//!   → a validated [`Mode`] plus the expanded fault timeline, or the
//!   [`SimError`] that says why no run can start;
//! * [`Traffic`]: one core's continuous sources and collective trackers — the
//!   steady-state prelude ([`Traffic::arm`]) and the two per-message hooks of
//!   the steady event loops;
//! * [`Core`]: the three calls the shared code makes into an event core,
//!   monomorphized per core.
//!
//! The cores keep different RNG disciplines (one run-global stream vs. one
//! stream per source) and nothing here unifies them: the stream is a
//! parameter ([`Draws`]), and the shared code draws from whichever
//! `&mut StdRng` it is handed, in one fixed order — pattern, then gap.

use super::{FaultRuntime, SimError};
use crate::config::{MeasurementWindows, SimConfig};
use crate::fault::{self, FaultTimeline};
use crate::job::{self, CollectiveState, JobBehavior, MixPlan, MsgTag, RateProcess, RateRuntime};
use crate::network::SimNetwork;
use crate::pattern::{self, TrafficPattern};
use crate::routing::Router;
use crate::stats::StatsCollector;
use crate::workload::Workload;
use rand::{rngs::StdRng, Rng};
use std::sync::Arc;

/// What the shared driver needs from an event core.
pub(crate) trait Core {
    /// Packetize one message from `src_ep` to `dst_ep` through the source
    /// endpoint's NIC (no earlier than `now`, behind whatever the NIC is still
    /// serializing) and queue one injection per packet. `tag` attributes the
    /// message to a tenant ([`UNTAGGED`] outside jobs mode).
    fn inject_message(&mut self, now: u64, src_ep: usize, dst_ep: usize, bytes: u64, tag: MsgTag);

    /// Queue the next arrival of source `source` (sending from `endpoint`).
    fn schedule_source(&mut self, time: u64, source: u32, endpoint: usize);

    /// Install the runtime fault machinery over `timeline` and queue its
    /// first live entry (see [`fault_runtime`] for `finite`).
    fn arm_faults(&mut self, timeline: &Arc<FaultTimeline>, finite: bool);
}

/// The tag of a message no tenant owns (every message outside jobs mode).
pub(crate) const UNTAGGED: MsgTag = MsgTag {
    tenant: u32::MAX,
    dst_rank: 0,
    round: u32::MAX,
};

/// Where a template source's draws come from — the one thing the two cores'
/// traffic generation disagrees on. (Job sources own a stream on both.)
pub(crate) enum Draws<'r> {
    /// Every source shares the run-global stream (which the sequential core's
    /// routing decisions also draw from).
    RunGlobal(&'r mut StdRng),
    /// Every source owns a stream, seeded from `(seed, endpoint)` by this
    /// function.
    PerSource(fn(u64, usize) -> StdRng),
}

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
    /// place, before any simulation work. `setup` is the engine's
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
                (Mode::Finite { offered_load }, cfg.fault_horizon_ps())
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

/// The windows' hard stop, rejecting windows whose spans (or whose last
/// sampling tick) do not fit `u64` picoseconds instead of wrapping.
fn checked_deadline_ps(w: &MeasurementWindows) -> Result<u64, SimError> {
    (w.warmup_ps.checked_add(w.measure_ps))
        .and_then(|end| end.checked_add(w.drain_ps))
        .filter(|deadline| deadline.checked_add(w.sample_interval_ps).is_some())
        .ok_or_else(|| {
            SimError::Windows(format!(
                "measurement windows overflow u64 picoseconds: warmup {} + measure {} + \
                 drain {} (+ sample interval {})",
                w.warmup_ps, w.measure_ps, w.drain_ps, w.sample_interval_ps
            ))
        })
}

/// Reject a workload that names an endpoint the network does not have.
fn check_endpoints(net: &SimNetwork, workload: &Workload) -> Result<(), SimError> {
    let endpoints = net.num_endpoints();
    match workload.max_endpoint() {
        Some(max_ep) if max_ep >= endpoints => Err(SimError::EndpointOutOfRange(format!(
            "workload references endpoint {max_ep} but the network has only {endpoints}"
        ))),
        _ => Ok(()),
    }
}

/// The finite half of the front door: the workload must fit the network and,
/// on a degraded one, every message pair must still be connected.
pub(crate) fn check_finite(net: &SimNetwork, workload: &Workload) -> Result<(), SimError> {
    check_endpoints(net, workload)?;
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
/// With links still parked that is a genuine buffer deadlock, which the
/// wakeup design makes a detectable quiescent state (a polling engine would
/// spin on retries forever) and this a typed error; anything else is an
/// engine bug.
pub(crate) fn undrained(
    undelivered: u64,
    parked: usize,
    in_queues: usize,
    pending: usize,
    occ: u32,
) -> SimError {
    assert!(
        parked > 0,
        "simulation ended with {undelivered} undelivered packets \
         (link queues: {in_queues}, pending injections: {pending}, \
         occupancy sum: {occ}) — engine invariant violated"
    );
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
/// by every core (and every shard) of it.
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
        check_endpoints(net, workload)?;
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
    fn schedule(&self, core: &mut impl Core, time: u64, si: usize, endpoint: usize) {
        if time < self.end_ps {
            core.schedule_source(time, si as u32, endpoint);
        }
    }

    /// Exponential inter-arrival gap for a message of `bytes` at the offered
    /// load of the endpoint injection bandwidth.
    fn exp_gap(&self, bytes: u64, rng: &mut StdRng) -> u64 {
        let ser = self.cfg.injection_serialization_ps(bytes) as f64;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (-u.ln() * ser / self.load) as u64
    }
}

/// One core's share of a steady-state run's traffic.
pub(crate) enum Traffic<'p> {
    Templates(TemplateSources<'p>),
    Jobs(Tenants<'p>),
}

impl<'p> Traffic<'p> {
    /// The steady-state prelude, in the one order both cores replay: arm the
    /// fault timeline, build the sources on endpoints `owns` accepts (the
    /// sequential core owns them all) and schedule each one's first arrival,
    /// then fire every owned rank's round-0 collective groups at `t = 0`.
    pub(crate) fn arm<C: Core>(
        core: &mut C,
        run: &'p RunPlan<'_>,
        steady: &'p Steady<'_>,
        owns: impl Fn(usize) -> bool,
        draws: Draws<'_>,
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
                Traffic::Templates(TemplateSources::arm(core, pace, plan, owns, draws))
            }
            TrafficPlan::Jobs(plan) => Traffic::Jobs(Tenants::arm(core, pace, plan, owns)),
        }
    }

    /// Source `si`'s arrival at `now`: generate its message and schedule its
    /// next arrival. `draws` is the discipline the traffic was armed with.
    pub(crate) fn next_message<C: Core>(
        &mut self,
        core: &mut C,
        si: usize,
        now: u64,
        draws: Draws<'_>,
    ) {
        match self {
            Traffic::Templates(t) => t.spawn_message(core, si, now, draws),
            Traffic::Jobs(t) => t.spawn_job_message(core, si, now),
        }
    }

    /// A collective message tagged `tag` was fully delivered at `now`:
    /// release the destination rank's dependency and fire (and inject)
    /// whatever rounds the delivery unblocks, at the delivery's own
    /// timestamp. A terminally failed collective message never gets here and
    /// stalls its destination rank's chain by design: collective completion
    /// semantics are delivery, not transmission.
    pub(crate) fn collective_delivered<C: Core>(&mut self, core: &mut C, tag: MsgTag, now: u64) {
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
    /// `owns` accepts (trivially complete ranks are complete in every core's
    /// tracker copy, so each core counts only its own and the merged total
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
    /// One stream per source under [`Draws::PerSource`], else empty.
    streams: Vec<StdRng>,
}

struct Source<'p> {
    endpoint: usize,
    templates: &'p [(usize, u64)],
    next_template: usize,
}

impl<'p> TemplateSources<'p> {
    fn arm<C: Core>(
        core: &mut C,
        pace: Pace<'p>,
        plan: &'p TemplatePlan,
        owns: impl Fn(usize) -> bool,
        mut draws: Draws<'_>,
    ) -> Self {
        let alive = |e: usize| (plan.alive.as_ref()).is_none_or(|(_, rank)| rank[e] != u32::MAX);
        let sources: Vec<Source<'p>> = (plan.templates.iter().enumerate())
            .filter(|(e, t)| !t.is_empty() && alive(*e) && owns(*e))
            .map(|(endpoint, templates)| Source {
                endpoint,
                templates,
                next_template: 0,
            })
            .collect();
        let mut streams: Vec<StdRng> = match draws {
            Draws::RunGlobal(_) => Vec::new(),
            Draws::PerSource(stream) => (sources.iter())
                .map(|s| stream(pace.cfg.seed, s.endpoint))
                .collect(),
        };
        for (si, s) in sources.iter().enumerate() {
            let rng = match &mut draws {
                Draws::RunGlobal(rng) => &mut **rng,
                Draws::PerSource(_) => &mut streams[si],
            };
            let gap = pace.exp_gap(s.templates[0].1, rng);
            pace.schedule(core, gap, si, s.endpoint);
        }
        TemplateSources {
            pace,
            plan,
            sources,
            streams,
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
    fn spawn_message<C: Core>(&mut self, core: &mut C, si: usize, now: u64, draws: Draws<'_>) {
        let rng = match draws {
            Draws::RunGlobal(rng) => rng,
            Draws::PerSource(_) => &mut self.streams[si],
        };
        let (pace, plan, src) = (self.pace, self.plan, &mut self.sources[si]);
        let (mut dst, bytes) = src.templates[src.next_template % src.templates.len()];
        src.next_template += 1;
        if let Some(p) = plan.pattern.as_deref() {
            let src_rank = match &plan.alive {
                None => src.endpoint,
                Some((_, rank)) => rank[src.endpoint] as usize,
            };
            let drawn = p.dst(src_rank, rng);
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
        let next = now.saturating_add(pace.exp_gap(bytes, rng));
        pace.schedule(core, next, si, src.endpoint);
    }
}

/// Jobs-mode traffic: the open-loop sources and collective trackers of the
/// mix's tenants.
pub(crate) struct Tenants<'p> {
    pace: Pace<'p>,
    plan: &'p MixPlan,
    sources: Vec<JobSource>,
    /// Per tenant, a collective's dependency tracker. Every core holds a full
    /// copy but drives — and at the end reports — only the ranks whose
    /// endpoints it owns: all packets of a message deliver at the destination
    /// rank's router, and the groups the delivery releases belong to that
    /// same rank, so a release never needs another core's state.
    collectives: Vec<Option<CollectiveState>>,
}

/// One rank of an open-loop tenant, driving the tenant's [`RateProcess`] from
/// a dedicated per-endpoint RNG (see [`job::source_rng`]) on both cores, so
/// open-loop injection schedules are engine- and shard-count-invariant.
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
    fn arm<C: Core>(
        core: &mut C,
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
                ser_ps: pace.cfg.injection_serialization_ps(spec.bytes),
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
    fn spawn_job_message<C: Core>(&mut self, core: &mut C, si: usize, now: u64) {
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
/// belongs to a rank the core owns, so every send originates from an owned
/// endpoint.
fn fire_collective<C: Core>(
    core: &mut C,
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
