//! Executes a [`Manifest`]: expands the declared axes into points, simulates
//! each point at every shard count, digests the outcomes, reduces each to the
//! fixed [`Metrics`] row `repro run` tabulates, and assembles a
//! provenance-stamped [`RunReport`].
//!
//! Three invariants are enforced *during* the run, not just at check time:
//!
//! * **Shard equivalence** — within one point, every shard count on the axis
//!   must produce the identical results digest (1 runs the event core on the
//!   calling thread, >1 on that many worker threads). A divergence is a hard
//!   [`RunError::ShardDivergence`], because it means the shard-count
//!   invariance the rest of the suite relies on has broken; a baseline
//!   comparison would only say "drift" without naming the shard counts.
//! * **Packet conservation** — a finite point must end with every injected
//!   packet delivered or terminally failed; anything else is a hard
//!   [`RunError::Conservation`]. Likewise a mix of nothing but collectives,
//!   with no fault script to lose a message, must finish every one of them
//!   ([`RunError::IncompleteCollective`]).
//! * **Determinism of refusal** — a configuration that cannot run (e.g. a
//!   destination unreachable under the fault plan) is digested as its typed
//!   error, not skipped: an experiment silently losing points is itself a
//!   regression the baseline must catch.

use crate::digest::{digest_outcome, digest_row};
use crate::manifest::{failure_metric, latency_column, Experiment, Manifest, Mode, Structure};
use crate::provenance::{json_str, Provenance};
use crate::toml::render_float;
use crate::topo::{Size, TopoSpec};
use rayon::prelude::*;
use spectralfly_graph::failures::{failure_point, sweep_seed, TrialConfig};
use spectralfly_graph::layout::wiring::DEFAULT_ELECTRICAL_LIMIT_M;
use spectralfly_graph::layout::{
    classify_links, latency_profile, place_topology, PowerModel, QapConfig,
};
use spectralfly_graph::{profile_graph, Column, CsrGraph};
use spectralfly_simnet::fault::{FaultPlan, FaultScript};
use spectralfly_simnet::stats::TenantStats;
use spectralfly_simnet::workload::Workload;
use spectralfly_simnet::{
    EngineCounters, MeasurementWindows, SimConfig, SimError, SimNetwork, SimResults, Simulator,
};
use spectralfly_topology::skywalk::{SkyWalkConfig, SkyWalkGraph};
use spectralfly_topology::Topology;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Errors that abort a run (as opposed to outcomes that are digested).
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// A topology spec failed to build (constructor rejected the parameters).
    Build {
        /// The offending spec.
        spec: String,
        /// The constructor's reason.
        reason: String,
    },
    /// Two shard counts of one point produced different results digests.
    ShardDivergence {
        /// The point's identifier.
        point: String,
        /// `(shards, digest)` per axis value, in axis order.
        digests: Vec<(usize, String)>,
    },
    /// A finite point ended with packets neither delivered nor terminally
    /// failed: `injected != delivered + failed`.
    Conservation {
        /// The point's identifier.
        point: String,
        /// Distinct packets handed to a source NIC.
        injected: u64,
        /// Packets delivered.
        delivered: u64,
        /// Packets abandoned after exhausting their retransmit budget.
        failed: u64,
    },
    /// A point whose mix is all collectives, run without a fault script,
    /// ended with a collective unfinished.
    IncompleteCollective {
        /// The point's identifier.
        point: String,
        /// The first unfinished tenant's label.
        tenant: String,
        /// Schedule messages it got delivered.
        delivered: u64,
        /// Messages in its schedule.
        total: u64,
    },
    /// [`RunOptions::filter`] kept no point or structural row.
    NothingSelected {
        /// The filter.
        filter: String,
        /// The names of the manifest's sections the filter could have matched.
        sections: Vec<String>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Build { spec, reason } => write!(f, "building {spec}: {reason}"),
            RunError::ShardDivergence { point, digests } => {
                write!(f, "engine divergence at {point}:")?;
                for (s, d) in digests {
                    write!(f, " shards={s} -> {d}")?;
                }
                Ok(())
            }
            RunError::Conservation {
                point,
                injected,
                delivered,
                failed,
            } => write!(
                f,
                "conservation violated at {point}: injected {injected} != \
                 delivered {delivered} + failed {failed}"
            ),
            RunError::IncompleteCollective {
                point,
                tenant,
                delivered,
                total,
            } => write!(
                f,
                "collective incomplete at {point}: {tenant} delivered {delivered} of {total} \
                 messages and no fault script lost the rest — the window closed first (raise \
                 measure_ns); a wedged fabric is a deadlock, not this"
            ),
            RunError::NothingSelected { filter, sections } => write!(
                f,
                "filter {filter:?} selects nothing: it is a substring of no point id \
                 or structural row; sections: {}",
                sections.join(", ")
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// One expanded sweep point (shards are *not* part of the identity: every
/// shard count must agree, so they are one point, not several).
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Stable identifier used as the baseline key.
    pub id: String,
    /// Owning experiment section.
    pub experiment: String,
    /// Canonical topology spec.
    pub topology: String,
    /// Routing registry name.
    pub routing: String,
    /// Pattern spec (empty = none). A steady point with pattern `P` runs the
    /// mix `traffic(1, P, bytes)`.
    pub pattern: String,
    /// Multi-tenant jobs mix spec (empty = none), the traffic of a steady
    /// point as written.
    pub jobs: String,
    /// Static-fault plan spec.
    pub fault: String,
    /// Runtime fault-script spec.
    pub fault_script: String,
    /// RNG seed.
    pub seed: u64,
    /// Offered load (`None` for finite runs).
    pub load: Option<f64>,
    /// Shard counts to run and cross-check.
    pub shards: Vec<usize>,
    /// Execution mode (copied from the experiment).
    pub mode: Mode,
    /// Fault seed (copied from the experiment).
    pub fault_seed: u64,
}

impl Point {
    /// The stable identifier: experiment, topology and routing, then every
    /// coordinate that is not its axis default — so ids stay stable when an
    /// axis gains a default-valued entry.
    fn compute_id(&self) -> String {
        let mut id = format!("{}/{}/{}", self.experiment, self.topology, self.routing);
        for (tag, value, default) in [
            ("p", &self.pattern, ""),
            ("j", &self.jobs, ""),
            ("f", &self.fault, "none"),
            ("c", &self.fault_script, "none"),
        ] {
            if value != default {
                let _ = write!(id, "/{tag}={value}");
            }
        }
        let _ = write!(id, "/s={}", self.seed);
        if let Some(l) = self.load {
            let _ = write!(id, "/l={}", render_float(l));
        }
        id
    }

    /// The id of this point's sibling at `entry` on the string axis `axis`
    /// (a manifest field name, see [`Experiment::relative_axis`]).
    fn sibling_id(&self, axis: &str, entry: &str) -> String {
        let mut sibling = self.clone();
        let field = match axis {
            "topologies" => &mut sibling.topology,
            "routings" => &mut sibling.routing,
            "patterns" => &mut sibling.pattern,
            "jobs" => &mut sibling.jobs,
            "faults" => &mut sibling.fault,
            _ => &mut sibling.fault_script,
        };
        *field = entry.to_string();
        sibling.compute_id()
    }
}

/// One tenant's columns of a jobs point.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantMetrics {
    /// Tenant label (`t{index}:{job-name}`).
    pub name: String,
    /// 99th-percentile measured packet latency, picoseconds.
    pub p99_ps: u64,
    /// Delivered throughput over the measurement window, Gb/s.
    pub goodput_gbps: f64,
    /// Completion time of the tenant's collective, picoseconds (`None` for an
    /// open-loop tenant or a collective that stalled).
    pub collective_ps: Option<u64>,
}

/// The fixed metric row every successfully simulated point reports — one
/// schema for every figure and sweep, so a table never needs its own columns.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// Sustained throughput over the measurement window, Gb/s (steady points).
    pub throughput_gbps: Option<f64>,
    /// Drain-to-empty completion time (finite points) or, for a mix
    /// of nothing but collectives, the time the last of them finished;
    /// picoseconds.
    pub completion_ps: Option<u64>,
    /// Share of the measured (steady) or injected (finite) packets delivered.
    pub delivery_ratio: f64,
    /// Median packet latency, picoseconds.
    pub p50_ps: u64,
    /// 99th-percentile packet latency, picoseconds.
    pub p99_ps: u64,
    /// Packets dropped by runtime faults, over every reason.
    pub drops: u64,
    /// Retransmissions scheduled.
    pub retransmits: u64,
    /// Packets abandoned after exhausting their retransmit budget.
    pub failed: u64,
    /// Mean first-drop-to-delivery time over recovered packets, picoseconds.
    pub mean_recovery_ps: f64,
    /// Worst first-drop-to-delivery time, picoseconds.
    pub max_recovery_ps: u64,
    /// Per-tenant columns (empty without a jobs mix).
    pub tenants: Vec<TenantMetrics>,
    /// Event-loop accounting of the point's first shard count. Bookkeeping,
    /// not physics: it differs across shard counts (arena high-water marks),
    /// so no digest, baseline, table or JSON row reads it.
    pub engine: EngineCounters,
}

impl Metrics {
    /// Reduce one run's results to the row.
    pub fn of(res: &SimResults) -> Metrics {
        let f = &res.faults;
        let collective_ps = |t: &TenantStats| {
            let done = t.collective.filter(|c| c.completed);
            done.map(|c| c.completion_time_ps)
        };
        let all_collectives: Option<Vec<u64>> = res.tenants.iter().map(collective_ps).collect();
        Metrics {
            throughput_gbps: res.measurement.as_ref().map(|m| m.throughput_gbps()),
            completion_ps: match res.measurement {
                None => Some(res.completion_time_ps),
                Some(_) => all_collectives.and_then(|done| done.into_iter().max()),
            },
            delivery_ratio: match &res.measurement {
                Some(m) => m.delivery_ratio(),
                None if f.injected > 0 => f.delivered as f64 / f.injected as f64,
                None => 1.0,
            },
            p50_ps: res.p50_packet_latency_ps,
            p99_ps: res.p99_packet_latency_ps,
            drops: f.dropped_total(),
            retransmits: f.retransmits,
            failed: f.failed,
            mean_recovery_ps: f.mean_recovery_ps(),
            max_recovery_ps: f.max_recovery_ps,
            tenants: res
                .tenants
                .iter()
                .map(|t| TenantMetrics {
                    name: t.name.clone(),
                    p99_ps: t.p99_latency_ps,
                    goodput_gbps: t.goodput_gbps,
                    collective_ps: collective_ps(t),
                })
                .collect(),
            engine: res.engine,
        }
    }

    /// The scalar a point contributes to a figure: `(value, higher_is_better)`.
    /// Finite runs and all-collective mixes score by completion time in ps —
    /// a collective's window throughput only says how long the window was —
    /// every other windowed (steady-state) run by sustained measured
    /// throughput in Gb/s.
    pub fn figure_of_merit(&self) -> (f64, bool) {
        match (self.completion_ps, self.throughput_gbps) {
            (Some(ps), _) => (ps as f64, false),
            (None, Some(gbps)) => (gbps, true),
            (None, None) => (0.0, false),
        }
    }
}

/// Speedup of `ours` over `base` for a [`Metrics::figure_of_merit`] pair: above
/// one means `ours` is better, whichever way the metric points. `None` when
/// the two are different metrics (a collective mix that stalled under a fault
/// script beside one that finished).
fn merit_speedup(base: (f64, bool), ours: (f64, bool)) -> Option<f64> {
    let ratio = match (base.1, ours.1) {
        (true, true) => ours.0 / base.0,
        (false, false) => base.0 / ours.0,
        _ => return None,
    };
    ratio.is_finite().then_some(ratio)
}

/// The digested outcome of one point.
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The point's identifier (the baseline key).
    pub id: String,
    /// Owning experiment section (the table the point is printed in).
    pub experiment: String,
    /// Bit-exact outcome digest (identical across the point's shard counts).
    pub digest: String,
    /// One-line human summary (delivered counts or the typed error).
    pub summary: String,
    /// The metric row (`None` for a typed-error outcome or a structural row).
    pub metrics: Option<Metrics>,
    /// A structural row's values in its section's `metrics` order, `None`
    /// where undefined (empty for a simulated point).
    pub values: Vec<Option<f64>>,
    /// Figure of merit as a speedup over the section's
    /// [`Experiment::relative_to`] sibling, when both points ran.
    pub relative: Option<f64>,
    /// Wall time over all shard counts — for a structural row, of evaluating
    /// its topology's rows — milliseconds (informational only).
    pub wall_ms: u64,
}

/// Everything one `repro run` produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Manifest name.
    pub manifest: String,
    /// Manifest configuration hash ([`Manifest::config_hash`]).
    pub config_hash: String,
    /// Provenance stamp collected at run start.
    pub provenance: Provenance,
    /// Per-point digests, in expansion order.
    pub points: Vec<PointResult>,
}

/// Expand an experiment's axes into points (cross product, shards folded into
/// each point). Order is deterministic: topology, routing, pattern, jobs,
/// fault, script, seed, load — outermost first.
pub fn expand(e: &Experiment) -> Vec<Point> {
    let loads: Vec<Option<f64>> = match e.mode {
        Mode::Finite { .. } => vec![None],
        Mode::Steady { .. } => e.loads.iter().copied().map(Some).collect(),
    };
    let patterns: Vec<String> = if e.patterns.is_empty() {
        vec![String::new()]
    } else {
        e.patterns.clone()
    };
    let jobs_axis: Vec<String> = if e.jobs.is_empty() {
        vec![String::new()]
    } else {
        e.jobs.clone()
    };
    let mut points = Vec::new();
    for topo in &e.topologies {
        for routing in &e.routings {
            for pattern in &patterns {
                for jobs in &jobs_axis {
                    for fault in &e.faults {
                        for script in &e.fault_scripts {
                            for &seed in &e.seeds {
                                for &load in &loads {
                                    let mut point = Point {
                                        id: String::new(),
                                        experiment: e.name.clone(),
                                        topology: topo.clone(),
                                        routing: routing.clone(),
                                        pattern: pattern.clone(),
                                        jobs: jobs.clone(),
                                        fault: fault.clone(),
                                        fault_script: script.clone(),
                                        seed,
                                        load,
                                        shards: e.shards.clone(),
                                        mode: e.mode.clone(),
                                        fault_seed: e.fault_seed,
                                    };
                                    point.id = point.compute_id();
                                    points.push(point);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    points
}

/// The [`RunError::Build`] of `spec`, given a constructor's reason.
fn build_error(spec: &str) -> impl Fn(String) -> RunError + '_ {
    move |reason| RunError::Build {
        spec: spec.to_string(),
        reason,
    }
}

/// What makes two points share a network: the topology and — degraded — the
/// fault plan and its seed. The axes revisit each one for every routing ×
/// pattern × seed × load combination, and the all-pairs BFS and next-hop
/// table behind it are the expensive part.
fn network_key(p: &Point) -> (&str, &str, u64) {
    let fault_seed = if p.fault == "none" { 0 } else { p.fault_seed };
    (&p.topology, &p.fault, fault_seed)
}

/// Build the network `p` runs on.
fn build_network(p: &Point) -> Result<SimNetwork, RunError> {
    let spec = TopoSpec::parse(&p.topology).map_err(build_error(&p.topology))?;
    if p.fault == "none" {
        return spec.network().map_err(build_error(&p.topology));
    }
    let graph = spec.build().map_err(build_error(&p.topology))?;
    let plan = FaultPlan::parse(&p.fault)
        .expect("validated by the manifest")
        .with_seed(p.fault_seed);
    SimNetwork::with_faults(graph, spec.concentration, &plan)
        .map_err(|e| e.to_string())
        .map_err(build_error(&format!("{} + {}", p.topology, p.fault)))
}

/// One network of a run and the points still to take it. The first point to
/// ask builds it, under the lock, so points that ask meanwhile wait for that
/// build instead of repeating it; the last one takes the slot's own handle
/// with it, so the network is freed as soon as its last point has run.
struct SharedNetwork {
    /// The network once built, and how many points have yet to take it.
    state: Mutex<(Option<Arc<SimNetwork>>, usize)>,
}

impl SharedNetwork {
    fn take(&self, p: &Point) -> Result<Arc<SimNetwork>, RunError> {
        let mut state = self.state.lock().expect("a network build panicked");
        let (network, takers) = &mut *state;
        if network.is_none() {
            *network = Some(Arc::new(build_network(p)?));
        }
        *takers -= 1;
        let handle = if *takers == 0 {
            network.take()
        } else {
            network.clone()
        };
        Ok(handle.expect("built above"))
    }
}

/// Run `points` in parallel, one point per task, each on the network it
/// shares with the other points of equal [`network_key`]; results in `points`
/// order.
///
/// Nothing is built up front. Points are visited grouped by network, in the
/// order the networks first appear, and a network lives from its first point's
/// start to its last point's end ([`SharedNetwork`]) — so about one network per
/// worker is resident at a time, however many the sweep names. Once a point
/// has failed, points after it in visiting order are not started, and the
/// error returned is that of the first failing point in that order — for a
/// build failure, the first network that does not build.
fn run_points(points: &[Point]) -> Result<Vec<PointResult>, RunError> {
    let mut index = BTreeMap::new();
    let mut takers: Vec<usize> = Vec::new();
    let mut visits: Vec<(usize, usize)> = Vec::with_capacity(points.len());
    for (at, p) in points.iter().enumerate() {
        let network = *index.entry(network_key(p)).or_insert(takers.len());
        if network == takers.len() {
            takers.push(0);
        }
        takers[network] += 1;
        visits.push((network, at));
    }
    visits.sort_unstable();
    let networks: Vec<SharedNetwork> = (takers.into_iter())
        .map(|takers| SharedNetwork {
            state: Mutex::new((None, takers)),
        })
        .collect();
    let first_failure = AtomicUsize::new(usize::MAX);
    let outcomes: Vec<Option<Result<PointResult, RunError>>> = visits
        .par_iter()
        .enumerate()
        .map(|(visit, &(network, at))| {
            if visit > first_failure.load(Ordering::SeqCst) {
                return None;
            }
            let p = &points[at];
            let outcome = networks[network].take(p).and_then(|net| run_point(&net, p));
            if outcome.is_err() {
                first_failure.fetch_min(visit, Ordering::SeqCst);
            }
            Some(outcome)
        })
        .collect();
    let mut results: Vec<Option<PointResult>> = vec![None; points.len()];
    for (&(_, at), outcome) in visits.iter().zip(outcomes) {
        results[at] = Some(outcome.expect("only points after a failure are skipped")?);
    }
    Ok(results.into_iter().flatten().collect())
}

fn point_config(p: &Point, net: &SimNetwork, shards: usize) -> SimConfig {
    let mut cfg = SimConfig::default()
        .with_routing(p.routing.clone(), net.diameter() as u32)
        .with_shards(shards);
    cfg.seed = p.seed;
    if p.fault_script != "none" {
        cfg = cfg.with_fault_script(
            FaultScript::parse(&p.fault_script)
                .expect("validated by the manifest")
                .with_seed(p.fault_seed),
        );
    }
    if let Mode::Steady {
        warmup_ns,
        measure_ns,
        bytes,
    } = p.mode
    {
        // A steady point runs one job mix: its jobs entry as written, or
        // every alive endpoint sending `bytes` to destinations drawn from its
        // pattern (uniform when it has none).
        let mix = if p.jobs.is_empty() {
            let pattern = if p.pattern.is_empty() {
                "random"
            } else {
                &p.pattern
            };
            format!("traffic(1, {pattern}, {bytes})")
        } else {
            p.jobs.clone()
        };
        cfg = cfg
            .with_windows(MeasurementWindows::new(warmup_ns * 1000, measure_ns * 1000))
            .with_jobs(&mix);
    }
    cfg
}

fn point_workload(p: &Point, net: &SimNetwork) -> Workload {
    match p.mode {
        // Drawn over the endpoints whose routers are up, as a steady mix is
        // placed; on a network where all are up the map is the identity.
        Mode::Finite { messages, bytes } => {
            let alive = net.alive_endpoints();
            let mut wl = Workload::uniform_random(alive.len(), messages, bytes, p.seed);
            for m in &mut wl.messages {
                (m.src, m.dst) = (alive[m.src], alive[m.dst]);
            }
            wl
        }
        // A steady point's traffic is its job mix (`point_config`).
        Mode::Steady { .. } => Workload::default(),
    }
}

fn outcome_summary(outcome: &Result<SimResults, SimError>) -> String {
    match outcome {
        Ok(r) => format!(
            "delivered={} completion={}ps p99={}ps",
            r.delivered_packets, r.completion_time_ps, r.p99_packet_latency_ps
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// Run one point at every shard count on its axis, assert the digests agree,
/// and return the digested result.
pub fn run_point(net: &SimNetwork, p: &Point) -> Result<PointResult, RunError> {
    let wl = point_workload(p, net);
    let start = Instant::now();
    let mut digests: Vec<(usize, String)> = Vec::with_capacity(p.shards.len());
    let mut first = None;
    for &shards in &p.shards {
        let cfg = point_config(p, net, shards);
        let sim = Simulator::new(net, &cfg);
        let outcome = match p.load {
            None => sim.try_run(&wl),
            Some(load) => sim.try_run_with_offered_load(&wl, load),
        };
        digests.push((shards, digest_outcome(&outcome)));
        first.get_or_insert(outcome);
    }
    let outcome = first.expect("the shards axis is non-empty");
    let digest = digests[0].1.clone();
    if digests.iter().any(|(_, d)| *d != digest) {
        return Err(RunError::ShardDivergence {
            point: p.id.clone(),
            digests,
        });
    }
    if let Ok(res) = &outcome {
        if !matches!(p.mode, Mode::Steady { .. }) {
            check_conservation(&p.id, res)?;
        }
        if p.fault_script == "none" {
            check_collectives(&p.id, res)?;
        }
    }
    Ok(PointResult {
        id: p.id.clone(),
        experiment: p.experiment.clone(),
        digest,
        summary: outcome_summary(&outcome),
        metrics: outcome.as_ref().ok().map(Metrics::of),
        values: Vec::new(),
        relative: None,
        wall_ms: start.elapsed().as_millis() as u64,
    })
}

/// A drained run leaves nothing in flight: every injected packet was
/// delivered or terminally failed.
fn check_conservation(point: &str, res: &SimResults) -> Result<(), RunError> {
    let f = &res.faults;
    if f.injected == f.delivered + f.failed {
        return Ok(());
    }
    Err(RunError::Conservation {
        point: point.to_string(),
        injected: f.injected,
        delivered: f.delivered,
        failed: f.failed,
    })
}

/// A mix of nothing but collectives, with no fault script to lose a message,
/// finishes every one of them: a blank completion time would silently empty a
/// whole `relative_to` column when the point is the baseline.
fn check_collectives(point: &str, res: &SimResults) -> Result<(), RunError> {
    let outcomes = res.tenants.iter().map(|t| Some((t.collective?, t)));
    let Some(outcomes) = outcomes.collect::<Option<Vec<_>>>() else {
        return Ok(()); // an open-loop tenant: a steady-state experiment
    };
    match outcomes.into_iter().find(|(c, _)| !c.completed) {
        None => Ok(()),
        Some((c, tenant)) => Err(RunError::IncompleteCollective {
            point: point.to_string(),
            tenant: tenant.name.clone(),
            delivered: c.delivered_messages,
            total: c.total_messages,
        }),
    }
}

// The constants of the binaries Table II and Fig. 11 came from: placement
// budgets (annealing swap proposals), and the SkyWalk baselines — Table II's
// is the mean of three instantiations, the `t`-th seeded `0x50FA + t`.
const TABLE2_ANNEAL_ITERS: usize = 60_000;
const TABLE2_SKYWALK_TRIALS: u64 = 3;
const TABLE2_SKYWALK_SEED: u64 = 0x50FA;
const FIG11_ANNEAL_ITERS: usize = 40_000;
const FIG11_SKYWALK_SEED: u64 = 0x5111;
/// Fig. 11's x-axis, in ns: a latency column's rows are one per entry.
const SWITCH_LATENCIES_NS: [u64; 6] = [0, 50, 100, 150, 200, 250];

/// What tells a structural row from its topology's other rows: a link-failure
/// level (its index in the sweep and the proportion) or a Fig. 11 switch
/// latency in ns — or neither, for a topology's one row.
#[derive(Clone, Copy, Default)]
struct RowAt {
    failures: Option<(usize, f64)>,
    switch_ns: Option<u64>,
}

impl RowAt {
    /// The rows every topology of `s` has.
    fn all(s: &Structure) -> Vec<RowAt> {
        if s.metrics.iter().any(|&c| latency_column(c)) {
            let at = |ns| RowAt {
                switch_ns: Some(ns),
                ..Default::default()
            };
            SWITCH_LATENCIES_NS.map(at).to_vec()
        } else if s.link_failures.is_empty() {
            vec![RowAt::default()]
        } else {
            let at = |level| RowAt {
                failures: Some(level),
                ..Default::default()
            };
            let levels = s.link_failures.iter().copied().enumerate();
            levels.map(at).collect()
        }
    }

    /// The row id's suffix after `section/topology`.
    fn suffix(self) -> String {
        match (self.failures, self.switch_ns) {
            (Some((_, f)), _) => format!("/links={}", render_float(f)),
            (_, Some(ns)) => format!("/switch={ns}ns"),
            _ => String::new(),
        }
    }
}

/// The rows of one `[structure.*]` section that `keep` keeps, each a digested
/// point `section/topology[/links=f | /switch=Nns]`: one per topology, per
/// topology × failure proportion or per topology × switch latency. Topologies
/// are independent, and evaluated in parallel; a topology's rows share its
/// graph and placement, and the wall time of evaluating them.
fn run_structure(
    s: &Structure,
    keep: &(impl Fn(&str) -> bool + Sync),
) -> Result<Vec<PointResult>, RunError> {
    let mut topologies = Vec::new();
    for (topo, size) in s.rows().map_err(build_error(&s.name))? {
        let prefix = format!("{}/{}", s.name, topo.graph_name());
        let rows: Vec<(String, RowAt)> = (RowAt::all(s).into_iter())
            .map(|at| (format!("{prefix}{}", at.suffix()), at))
            .filter(|(id, _)| keep(id))
            .collect();
        if !rows.is_empty() {
            topologies.push((topo, size, rows));
        }
    }
    let evaluate = |(topo, size, rows): &(TopoSpec, Option<Size>, Vec<(String, RowAt)>)| {
        let start = Instant::now();
        let at: Vec<RowAt> = rows.iter().map(|(_, at)| *at).collect();
        let values =
            structure_values(s, topo, *size, &at).map_err(build_error(&topo.graph_name()))?;
        let wall_ms = start.elapsed().as_millis() as u64;
        let row = |((id, _), values): (&(String, RowAt), Vec<Option<f64>>)| {
            let names = s.metrics.iter().map(|c| c.name());
            let cells = (s.metrics.iter().zip(&values))
                .map(|(c, v)| format!("{}={}", c.name(), structure_cell(s, *c, *v)));
            PointResult {
                id: id.clone(),
                experiment: s.name.clone(),
                digest: digest_row(names.zip(values.iter().copied())),
                summary: cells.collect::<Vec<_>>().join(" "),
                metrics: None,
                values,
                relative: None,
                wall_ms,
            }
        };
        Ok(rows.iter().zip(values).map(row).collect::<Vec<_>>())
    };
    let results: Vec<Result<Vec<PointResult>, RunError>> =
        topologies.par_iter().map(evaluate).collect();
    let mut points = Vec::new();
    for rows in results {
        points.extend(rows?);
    }
    Ok(points)
}

/// One topology's `rows`, each its values in `metrics` order: the closed-form
/// `size` (routers, radix) where the section reads nothing else and the row
/// was enumerated with one; at a failure level (its index in the sweep, the
/// proportion), each metric's [`failure_point`] mean over the connected
/// trials, seeded as `failure_sweep` seeds that index; otherwise
/// [`profile_graph`] on the built graph, then the Table II measurements and,
/// at a switch latency, the Fig. 11 ratios.
fn structure_values(
    s: &Structure,
    topo: &TopoSpec,
    size: Option<Size>,
    rows: &[RowAt],
) -> Result<Vec<Vec<Option<f64>>>, String> {
    if let (true, Some((routers, radix))) = (s.is_closed_form(), size) {
        let value = |c| if c == Column::Routers { routers } else { radix };
        let row: Vec<Option<f64>> = s.metrics.iter().map(|&c| Some(value(c) as f64)).collect();
        return Ok(vec![row; rows.len()]);
    }
    let g = topo.build()?;
    if !s.link_failures.is_empty() {
        // One round of the stopping rule (10 batches × 4 trials): what Fig. 5 ran.
        let trials = TrialConfig {
            max_trials: 40,
            ..Default::default()
        };
        let levels: Vec<(usize, f64)> = rows.iter().filter_map(|at| at.failures).collect();
        let failed = |&(index, proportion): &(usize, f64)| {
            let mean = |c| {
                let seed = sweep_seed(s.seed, index);
                let point = failure_point(&g, proportion, failure_metric(c)?, &trials, seed);
                (point.connected_trials > 0).then_some(point.mean)
            };
            s.metrics.iter().map(|&c| mean(c)).collect()
        };
        return Ok(levels.par_iter().map(failed).collect());
    }
    let wants = |columns: &[Column]| s.metrics.iter().any(|c| columns.contains(c));
    let power = wants(&[Column::PowerW, Column::MwPerGbps]);
    let mut columns = s.metrics.clone();
    columns.extend(power.then_some(Column::BisectionUpper));
    let profile = profile_graph(&g, &columns, s.seed);
    let table2 = (s.metrics.iter())
        .any(|&c| Column::LAYOUT.contains(&c) && !latency_column(c))
        .then(|| {
            let skywalk = wants(&[Column::SkywalkWireMean, Column::SkywalkWireMax]);
            table2(&g, profile.bisection_upper, skywalk)
        });
    let table2_value = |c| table2.as_ref()?.iter().find(|(column, _)| *column == c)?.1;
    let switch_ns: Vec<u64> = rows.iter().filter_map(|at| at.switch_ns).collect();
    let ratios = match switch_ns.as_slice() {
        [] => Vec::new(),
        switch_ns => fig11(&g, switch_ns)?,
    };
    let row = |ratios: Option<&(f64, f64)>| {
        let value = |c| match c {
            Column::LatencyAvgVsSkywalk => ratios.map(|(avg, _)| *avg),
            Column::LatencyMaxVsSkywalk => ratios.map(|(_, max)| *max),
            _ => profile.value(c).or_else(|| table2_value(c)),
        };
        s.metrics.iter().map(|&c| value(c)).collect()
    };
    Ok((0..rows.len()).map(|i| row(ratios.get(i))).collect())
}

/// One topology's Table II columns: its wiring and, given the bisection,
/// power under the machine-room placement and, when `skywalk`, the mean and
/// the longest wire of SkyWalks of its radix over the placed routers, each
/// placed the same way, averaged over the instantiations that build (`None`
/// when none does).
fn table2(g: &CsrGraph, bisection: Option<u64>, skywalk: bool) -> [(Column, Option<f64>); 8] {
    let qap = QapConfig {
        anneal_iters: TABLE2_ANNEAL_ITERS,
        ..Default::default()
    };
    let placement = place_topology(g, &qap);
    let wiring = classify_links(g, &placement, DEFAULT_ELECTRICAL_LIMIT_M);
    let power = bisection.map(|b| PowerModel::default().summarize(&wiring, b));
    let positions = placement.router_positions_m();
    let config = SkyWalkConfig {
        radix: g.max_degree(),
        ..Default::default()
    };
    let trials = if skywalk { TABLE2_SKYWALK_TRIALS } else { 0 };
    let (mut built, mut mean, mut max) = (0usize, 0.0, 0.0);
    for t in 0..trials {
        let Ok(sky) = SkyWalkGraph::new(&positions, &config, TABLE2_SKYWALK_SEED + t) else {
            continue;
        };
        let placement = place_topology(sky.graph(), &qap);
        let wiring = classify_links(sky.graph(), &placement, DEFAULT_ELECTRICAL_LIMIT_M);
        built += 1;
        mean += wiring.mean_wire_m;
        max += wiring.max_wire_m;
    }
    let sky = (built > 0).then(|| (mean / built as f64, max / built as f64));
    [
        (Column::WireMean, Some(wiring.mean_wire_m)),
        (Column::WireMax, Some(wiring.max_wire_m)),
        (Column::SkywalkWireMean, sky.map(|(mean, _)| mean)),
        (Column::SkywalkWireMax, sky.map(|(_, max)| max)),
        (
            Column::LinksElectrical,
            Some(wiring.electrical_links as f64),
        ),
        (Column::LinksOptical, Some(wiring.optical_links as f64)),
        (Column::PowerW, power.as_ref().map(|p| p.total_power_w)),
        (Column::MwPerGbps, power.as_ref().map(|p| p.mw_per_gbps)),
    ]
}

/// One topology's Fig. 11 ratios at each of `switch_ns`: its mean and its
/// maximum end-to-end latency over those of a SkyWalk of its radix in the
/// same room, both placed once for all the switch latencies.
fn fig11(g: &CsrGraph, switch_ns: &[u64]) -> Result<Vec<(f64, f64)>, String> {
    let qap = QapConfig {
        anneal_iters: FIG11_ANNEAL_ITERS,
        ..Default::default()
    };
    let placement = place_topology(g, &qap);
    let config = SkyWalkConfig {
        radix: g.max_degree(),
        ..Default::default()
    };
    let positions = placement.router_positions_m();
    let sky = SkyWalkGraph::new(&positions, &config, FIG11_SKYWALK_SEED)
        .map_err(|e| format!("its SkyWalk baseline: {e}"))?;
    let sky_placement = place_topology(sky.graph(), &qap);
    let ratios = |&ns: &u64| {
        let ours = latency_profile(g, &placement, ns as f64);
        let theirs = latency_profile(sky.graph(), &sky_placement, ns as f64);
        (
            ours.average_latency_ns / theirs.average_latency_ns,
            ours.max_latency_ns / theirs.max_latency_ns,
        )
    };
    Ok(switch_ns.iter().map(ratios).collect())
}

/// One table cell of a structural row: counts, watts and the spectral
/// bisection bound as integers, µ₁ to two decimals (Table I, Fig. 4 and
/// Table II precision), every other real — and every failure-sweep mean — to
/// three; an undefined value is `-`, or `disc.` where every failure trial
/// disconnected the graph.
fn structure_cell(s: &Structure, column: Column, value: Option<f64>) -> String {
    use Column::*;
    let swept = !s.link_failures.is_empty();
    let Some(v) = value else {
        return if swept { "disc." } else { "-" }.to_string();
    };
    match column {
        Ramanujan => if v > 0.0 { "yes" } else { "no" }.to_string(),
        Mu1 => format!("{v:.2}"),
        _ if swept => format!("{v:.3}"),
        Routers | Radix | Diameter | Girth | BisectionLower | BisectionUpper | LinksElectrical
        | LinksOptical | PowerW => format!("{v:.0}"),
        _ => format!("{v:.3}"),
    }
}

/// Options for [`run_manifest`].
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Does nothing: the `[external.*]` section kind it skipped is gone. The
    /// field stays because `benchmark/src/workloads.rs` names it in a struct
    /// literal and only a benchmark PR may edit that file (ROADMAP item 7(ii)).
    pub skip_external: bool,
    /// Only run points and structural rows whose identifier contains this
    /// substring; one that selects nothing is [`RunError::NothingSelected`].
    pub filter: Option<String>,
    /// Does nothing: the `[perf.*]` section kind it skipped is gone. The field
    /// stays because `benchmark/src/workloads.rs` names it in a struct literal
    /// and only a benchmark PR may edit that file (ROADMAP item 7(ii)).
    pub skip_perf: bool,
}

/// Execute a manifest end to end and assemble the stamped report.
pub fn run_manifest(m: &Manifest, opts: &RunOptions) -> Result<RunReport, RunError> {
    let keep = |id: &str| opts.filter.as_deref().is_none_or(|f| id.contains(f));
    let points: Vec<Point> = m
        .experiments
        .iter()
        .flat_map(expand)
        .filter(|p| keep(&p.id))
        .collect();
    let mut point_results = run_points(&points)?;
    relate_to_siblings(m, &points, &mut point_results);
    for s in &m.structures {
        point_results.extend(run_structure(s, &keep)?);
    }
    if let Some(filter) = opts.filter.as_ref().filter(|_| point_results.is_empty()) {
        let sections =
            (m.experiments.iter().map(|e| &e.name)).chain(m.structures.iter().map(|s| &s.name));
        return Err(RunError::NothingSelected {
            filter: filter.clone(),
            sections: sections.cloned().collect(),
        });
    }
    Ok(RunReport {
        manifest: m.name.clone(),
        config_hash: m.config_hash(),
        provenance: Provenance::collect(
            &m.config_hash(),
            (m.experiments.first().map(|e| e.seeds[0]))
                .or(m.structures.first().map(|s| s.seed))
                .unwrap_or(0),
        ),
        points: point_results,
    })
}

/// Fill [`PointResult::relative`] for every section that names a
/// [`Experiment::relative_to`] entry: each point's figure of merit as a
/// speedup over its sibling at that entry (absent when either point did not
/// run, was filtered out, or scored zero).
fn relate_to_siblings(m: &Manifest, points: &[Point], results: &mut [PointResult]) {
    let merits: BTreeMap<String, (f64, bool)> = results
        .iter()
        .filter_map(|r| Some((r.id.clone(), r.metrics.as_ref()?.figure_of_merit())))
        .collect();
    for (p, r) in points.iter().zip(results) {
        let section = m.experiments.iter().find(|e| e.name == p.experiment);
        let Some((axis, entry)) = section.and_then(Experiment::relative_axis) else {
            continue;
        };
        let base = merits.get(&p.sibling_id(axis, entry));
        r.relative = base
            .zip(merits.get(&p.id))
            .and_then(|(&base, &ours)| merit_speedup(base, ours));
    }
}

fn json_opt(value: Option<String>) -> String {
    value.unwrap_or_else(|| "null".to_string())
}

impl Metrics {
    fn to_json(&self) -> String {
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{{\"name\":{},\"p99_ps\":{},\"goodput_gbps\":{:.3},\"collective_ps\":{}}}",
                    json_str(&t.name),
                    t.p99_ps,
                    t.goodput_gbps,
                    json_opt(t.collective_ps.map(|c| c.to_string())),
                )
            })
            .collect();
        format!(
            "{{\"throughput_gbps\":{},\"completion_ps\":{},\"delivery_ratio\":{:.4},\
             \"p50_ps\":{},\"p99_ps\":{},\"drops\":{},\"retransmits\":{},\"failed\":{},\
             \"mean_recovery_ps\":{:.0},\"max_recovery_ps\":{},\"tenants\":[{}]}}",
            json_opt(self.throughput_gbps.map(|t| format!("{t:.3}"))),
            json_opt(self.completion_ps.map(|c| c.to_string())),
            self.delivery_ratio,
            self.p50_ps,
            self.p99_ps,
            self.drops,
            self.retransmits,
            self.failed,
            self.mean_recovery_ps,
            self.max_recovery_ps,
            tenants.join(","),
        )
    }

    /// The row's table cells, in [`METRIC_COLUMNS`] order.
    fn cells(&self) -> Vec<String> {
        let or_dash = |cell: Option<String>| cell.unwrap_or_else(|| "-".to_string());
        let us = |ps: f64| format!("{:.3}", ps / 1e6);
        let recovered = self.max_recovery_ps > 0;
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                let collective = t.collective_ps.map(|c| (c / 1000).to_string());
                let p99_ns = t.p99_ps / 1000;
                format!(
                    "{} {p99_ns}/{:.1}/{}",
                    t.name,
                    t.goodput_gbps,
                    or_dash(collective)
                )
            })
            .collect();
        vec![
            or_dash(self.throughput_gbps.map(|t| format!("{t:.3}"))),
            or_dash(self.completion_ps.map(|c| us(c as f64))),
            format!("{:.3}", self.delivery_ratio),
            (self.p50_ps / 1000).to_string(),
            (self.p99_ps / 1000).to_string(),
            self.drops.to_string(),
            self.retransmits.to_string(),
            self.failed.to_string(),
            or_dash(recovered.then(|| us(self.mean_recovery_ps))),
            or_dash(recovered.then(|| us(self.max_recovery_ps as f64))),
            or_dash((!tenants.is_empty()).then(|| tenants.join("; "))),
        ]
    }
}

/// Column titles of the fixed metric row ([`Metrics`]), as `repro run` prints it.
const METRIC_COLUMNS: [&str; 11] = [
    "Tput Gb/s",
    "Compl us",
    "Delivered",
    "p50 ns",
    "p99 ns",
    "Drops",
    "Retx",
    "Failed",
    "MeanRec us",
    "MaxRec us",
    "Tenant p99 ns/Gb/s/coll ns",
];

/// Render a markdown-style table: a title line, a header row and value rows.
fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let rule: Vec<String> = header.iter().map(|h| "-".repeat(h.len())).collect();
    let mut out = format!(
        "\n== {title} ==\n{}\n{}\n",
        header.join(" | "),
        rule.join("-|-")
    );
    for row in rows {
        out.push_str(&row.join(" | "));
        out.push('\n');
    }
    out
}

impl RunReport {
    /// The table of section `name`: per point of this report in it, the
    /// point's id within the section and its `cells` — or nothing, when the
    /// section has no point here.
    fn section_table(
        &self,
        name: &str,
        kind: &str,
        header: &[&str],
        cells: impl Fn(&PointResult) -> Vec<String>,
    ) -> String {
        let prefix = format!("{name}/");
        let rows: Vec<Vec<String>> = (self.points.iter())
            .filter(|p| p.experiment == name)
            .map(|p| {
                let label = p.id.strip_prefix(&prefix).unwrap_or(&p.id).to_string();
                std::iter::once(label).chain(cells(p)).collect()
            })
            .collect();
        if rows.is_empty() {
            return String::new();
        }
        render_table(&format!("{name} ({kind})"), header, &rows)
    }

    /// One table per experiment and structure section of `m` that has points
    /// in this report: an experiment's [`Metrics`] row and — when the section
    /// names a [`Experiment::relative_to`] entry — the figure of merit as a
    /// speedup over that sibling; a structural table's metric columns.
    pub fn tables(&self, m: &Manifest) -> String {
        let mut out = String::new();
        for e in &m.experiments {
            let versus = e.relative_to.as_ref().map(|entry| format!("vs {entry}"));
            let mut header = vec!["Point"];
            header.extend(METRIC_COLUMNS);
            header.extend(versus.as_deref());
            let cells = |p: &PointResult| {
                let Some(metrics) = &p.metrics else {
                    return vec![p.summary.clone()];
                };
                let relative = p.relative.map_or("-".to_string(), |r| format!("{r:.3}"));
                let versus = versus.as_ref().map(|_| relative);
                metrics.cells().into_iter().chain(versus).collect()
            };
            let kind = format!("{} mode", e.mode.name());
            out.push_str(&self.section_table(&e.name, &kind, &header, cells));
        }
        for s in &m.structures {
            let names = s.metrics.iter().map(|c| c.name());
            let header: Vec<&str> = std::iter::once("Topology").chain(names).collect();
            let cells = |p: &PointResult| {
                let cell = |(c, v): (&Column, &Option<f64>)| structure_cell(s, *c, *v);
                s.metrics.iter().zip(&p.values).map(cell).collect()
            };
            out.push_str(&self.section_table(&s.name, "structure", &header, cells));
        }
        out
    }

    /// Render the report as a JSON artifact (hand-rolled, like every other
    /// JSON emitter in the suite).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"manifest\": {},\n", json_str(&self.manifest)));
        out.push_str(&format!(
            "  \"config_hash\": {},\n",
            json_str(&self.config_hash)
        ));
        out.push_str(&format!(
            "  \"provenance\": {},\n",
            self.provenance.to_json()
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\":{},\"digest\":{},\"summary\":{},\"metrics\":{},\"relative\":{},\"wall_ms\":{}}}{}\n",
                json_str(&p.id),
                json_str(&p.digest),
                json_str(&p.summary),
                p.metrics.as_ref().map_or("null".to_string(), Metrics::to_json),
                json_opt(p.relative.map(|r| format!("{r:.4}"))),
                p.wall_ms,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_manifest() -> Manifest {
        Manifest::parse(
            r#"
[manifest]
name = "runner-test"

[experiment.eq]
topologies = ["ring(9)x2"]
routings = ["minimal"]
shards = [1, 2]
seeds = [7, 8]
mode = "finite"
messages = 2
bytes = 1024
"#,
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_the_cross_product_with_stable_ids() {
        let m = mini_manifest();
        let points = expand(&m.experiments[0]);
        assert_eq!(points.len(), 2, "1 topo x 1 routing x 2 seeds");
        assert_eq!(points[0].id, "eq/ring(9)x2/minimal/s=7");
        assert_eq!(points[1].id, "eq/ring(9)x2/minimal/s=8");
        assert_eq!(points[0].shards, vec![1, 2]);
        // Defaults are elided from the id, so ids stay stable when an axis
        // gains a default-valued entry.
        assert!(!points[0].id.contains("none"));
    }

    #[test]
    fn runner_digests_agree_across_engines_on_tie_free_rings() {
        let m = mini_manifest();
        let report = run_manifest(&m, &RunOptions::default()).unwrap();
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert_eq!(p.digest.len(), 16, "{}", p.id);
            assert!(p.summary.starts_with("delivered="), "{}", p.summary);
        }
        // Different seeds are different workloads are different digests.
        assert_ne!(report.points[0].digest, report.points[1].digest);
        assert_eq!(report.config_hash, m.config_hash());
        let json = report.to_json();
        assert!(json.contains("\"config_hash\""));
        assert!(json.contains("\"git_rev\""));
        assert!(json.contains(&report.points[0].digest));
    }

    #[test]
    fn filter_restricts_points() {
        let m = mini_manifest();
        let report = run_manifest(
            &m,
            &RunOptions {
                filter: Some("s=7".to_string()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.points.len(), 1);
        assert!(report.points[0].id.ends_with("s=7"));
    }

    #[test]
    fn deterministic_refusals_are_digested_not_skipped() {
        // router(0) on a 5-ring with concentration 1 kills endpoint 0;
        // uniform-random traffic to/from it is infeasible, which must surface
        // as a digested error outcome, not a lost point.
        let m = Manifest::parse(
            r#"
[manifest]
name = "refusal"

[experiment.dead]
topologies = ["ring(5)"]
routings = ["minimal"]
faults = ["router(0)"]
mode = "finite"
messages = 1
bytes = 512
"#,
        )
        .unwrap();
        let report = run_manifest(&m, &RunOptions::default()).unwrap();
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.points[0].digest.len(), 16);
    }

    fn run(src: &str) -> RunReport {
        run_manifest(&Manifest::parse(src).unwrap(), &RunOptions::default()).unwrap()
    }

    #[test]
    fn relative_ratio_direction_follows_the_figure_of_merit() {
        // Completion time: base 2000 ps vs ours 1000 ps -> 2x speedup.
        assert_eq!(merit_speedup((2_000.0, false), (1_000.0, false)), Some(2.0));
        // Throughput: base 500 Gb/s vs ours 1000 Gb/s -> 2x speedup.
        assert_eq!(merit_speedup((500.0, true), (1_000.0, true)), Some(2.0));
        // A time against a rate, or against nothing, is no ratio.
        assert_eq!(merit_speedup((500.0, true), (1_000.0, false)), None);
        assert_eq!(merit_speedup((0.0, true), (1_000.0, true)), None);

        let axes = "topologies = [\"ring(9)x2\"]\nroutings = [\"valiant\", \"minimal\"]\n\
                    relative_to = \"minimal\"\nseeds = [7]\n";
        let finite = run(&format!(
            "[manifest]\nname = \"r\"\n[experiment.f]\n{axes}messages = 4\n"
        ));
        let [valiant, minimal] = finite.points.as_slice() else {
            panic!("two routings, two points");
        };
        let completion =
            |p: &PointResult| p.metrics.as_ref().unwrap().completion_ps.unwrap() as f64;
        assert_eq!(minimal.relative, Some(1.0));
        assert_eq!(
            valiant.relative,
            Some(completion(minimal) / completion(valiant)),
            "finite points score by completion time: base over ours"
        );
        let steady = run(&format!(
            "[manifest]\nname = \"r\"\n[experiment.s]\n{axes}mode = \"steady\"\n\
             warmup_ns = 2000\nmeasure_ns = 8000\nloads = [0.9]\n"
        ));
        let tput = |p: &PointResult| p.metrics.as_ref().unwrap().throughput_gbps.unwrap();
        let [valiant, minimal] = steady.points.as_slice() else {
            panic!("two routings, two points");
        };
        assert_eq!(
            valiant.relative,
            Some(tput(valiant) / tput(minimal)),
            "steady points score by measured throughput: ours over base"
        );
        // The table carries the metric row plus the ratio column.
        let m = Manifest::parse(&format!(
            "[manifest]\nname = \"r\"\n[experiment.f]\n{axes}messages = 4\n"
        ))
        .unwrap();
        let table = finite.tables(&m);
        assert!(table.contains("== f (finite mode) =="), "{table}");
        assert!(table.contains("| vs minimal\n"), "{table}");
        assert!(table.contains("ring(9)x2/minimal/s=7 | - | "), "{table}");
        assert!(table.trim_end().ends_with("| 1.000"), "{table}");
        // A section without the field prints no ratio column.
        let plain = run_manifest(&mini_manifest(), &RunOptions::default()).unwrap();
        assert!(plain.points.iter().all(|p| p.relative.is_none()));
        assert!(!plain.tables(&mini_manifest()).contains(" vs "));
    }

    /// A mix of nothing but collectives is a finite job in a window: it scores
    /// by when its last tenant finished, not by bytes over the window length
    /// (which every sibling that finishes shares, so the column read 1.000).
    #[test]
    fn all_collective_mixes_score_by_collective_completion() {
        let section = |jobs: &str| {
            format!(
                "[manifest]\nname = \"r\"\n[experiment.c]\n\
                 topologies = [\"ring(9)x2\", \"ring(15)x2\"]\nroutings = [\"minimal\"]\n\
                 jobs = [\"{jobs}\"]\nshards = [2]\nseeds = [7]\nloads = [1.0]\nmode = \"steady\"\n\
                 warmup_ns = 0\nmeasure_ns = 400000\nrelative_to = \"ring(9)x2\"\n"
            )
        };
        let src = section("alltoall(2048) x 12 @ random + fft3d(1024) x 6 @ random");
        let report = run(&src);
        let [small, large] = report.points.as_slice() else {
            panic!("two topologies, two points");
        };
        let completion = |p: &PointResult| {
            let m = p.metrics.as_ref().unwrap();
            let last = m.tenants.iter().map(|t| t.collective_ps.unwrap()).max();
            assert_eq!(m.completion_ps, last, "the latest tenant");
            assert_eq!(m.figure_of_merit(), (last.unwrap() as f64, false));
            last.unwrap() as f64
        };
        assert_eq!(small.relative, Some(1.0));
        assert_eq!(large.relative, Some(completion(small) / completion(large)));
        assert_ne!(
            large.relative,
            Some(1.0),
            "placements differ, so do the times"
        );
        let table = report.tables(&Manifest::parse(&src).unwrap());
        let cell = format!(" | {:.3} | 1.000 | ", completion(large) / 1e6);
        assert!(table.contains(&cell), "Compl us is filled: {table}");
        // One open-loop tenant and the mix is a steady-state experiment again.
        let mixed = run(&section("alltoall(2048) x 12 + traffic(0.5) x 6"));
        for p in &mixed.points {
            let m = p.metrics.as_ref().unwrap();
            assert_eq!(m.completion_ps, None);
            assert_eq!(m.figure_of_merit(), (m.throughput_gbps.unwrap(), true));
        }
    }

    /// A point's metric row carries the engine counters of its first shard
    /// count's run (bookkeeping that differs across shard counts), and a
    /// steady point's counters are not zero.
    #[test]
    fn metrics_carry_the_first_shard_counts_engine_counters() {
        let m = Manifest::parse(
            "[manifest]\nname = \"e\"\n[experiment.s]\ntopologies = [\"ring(9)x2\"]\n\
             routings = [\"ugal-l\"]\nshards = [2, 1]\nseeds = [7]\nmode = \"steady\"\n\
             warmup_ns = 2000\nmeasure_ns = 8000\nloads = [0.9]\n",
        )
        .unwrap();
        let report = run_manifest(&m, &RunOptions::default()).unwrap();
        let engine = report.points[0].metrics.as_ref().unwrap().engine;
        assert!(engine.events > 0, "{engine:?}");
        let p = &expand(&m.experiments[0])[0];
        let net = build_network(p).unwrap();
        let run = |shards| {
            let cfg = point_config(p, &net, shards);
            let sim = Simulator::new(&net, &cfg);
            sim.try_run_with_offered_load(&Workload::default(), 0.9)
                .unwrap()
        };
        assert_eq!(engine, run(2).engine, "the first shard count's run");
        assert_ne!(engine, run(1).engine, "shard counts keep different books");
    }

    /// A steady section without a pattern runs uniform traffic over the
    /// surviving machine: the endpoints of down routers neither send nor
    /// receive, so `routers(2)` measures the survivors instead of refusing
    /// the point for addressing a dead endpoint.
    #[test]
    fn a_pattern_less_steady_section_runs_over_down_routers() {
        let report = run(
            "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"lps(11,7)x4\"]\n\
             routings = [\"minimal\"]\nfaults = [\"routers(2)\"]\nseeds = [5]\n\
             loads = [0.5]\nmode = \"steady\"\nwarmup_ns = 1000\nmeasure_ns = 4000\n",
        );
        let point = &report.points[0];
        assert_eq!(point.id, "e/lps(11,7)x4/minimal/f=routers(2)/s=5/l=0.5");
        let m = (point.metrics.as_ref()).unwrap_or_else(|| panic!("{}", point.summary));
        assert!(m.throughput_gbps.is_some_and(|t| t > 0.0), "{m:?}");
        assert!(m.delivery_ratio > 0.9, "{m:?}");
        assert_eq!(m.tenants.len(), 1);
        assert_eq!(m.tenants[0].name, "t0:traffic");
    }

    /// A finite section draws its uniform workload over the survivors too:
    /// a down router's endpoints neither send nor receive, so the point
    /// delivers everything instead of refusing to address a dead endpoint.
    #[test]
    fn a_finite_section_runs_over_down_routers() {
        let report = run(
            "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)x2\"]\n\
             routings = [\"minimal\"]\nfaults = [\"router(2)\"]\nseeds = [1]\n\
             mode = \"finite\"\nmessages = 2\nbytes = 1024\n",
        );
        let point = &report.points[0];
        assert!(!point.summary.contains("error:"), "{}", point.summary);
        let m = (point.metrics.as_ref()).unwrap_or_else(|| panic!("{}", point.summary));
        assert_eq!(m.delivery_ratio, 1.0, "{m:?}");
        // 8 surviving routers × 2 endpoints × 2 messages of one packet each.
        assert!(
            point.summary.starts_with("delivered=32 "),
            "{}",
            point.summary
        );
    }

    #[test]
    fn a_finite_run_that_loses_packets_is_a_run_error() {
        use spectralfly_simnet::FaultStats;
        let mut res = SimResults {
            faults: FaultStats {
                injected: 10,
                delivered: 8,
                failed: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(check_conservation("p", &res), Ok(()));
        res.faults.delivered = 7;
        let err = check_conservation("p", &res).unwrap_err();
        assert_eq!(
            err,
            RunError::Conservation {
                point: "p".to_string(),
                injected: 10,
                delivered: 7,
                failed: 2
            }
        );
        assert!(err
            .to_string()
            .contains("injected 10 != delivered 7 + failed 2"));
    }

    /// No fault script, nothing but collectives, and one of them unfinished:
    /// the point did not do what the section says, and says so — a blank
    /// "Compl us" on the `relative_to` baseline would empty the whole column.
    #[test]
    fn an_unfinished_all_collective_mix_is_a_run_error() {
        use spectralfly_simnet::stats::CollectiveOutcome;
        let tenant = |name: &str, delivered: u64| TenantStats {
            name: name.to_string(),
            collective: Some(CollectiveOutcome {
                total_messages: 10,
                delivered_messages: delivered,
                completed: delivered == 10,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut res = SimResults {
            tenants: vec![tenant("t0:alltoall", 10), tenant("t1:fft3d", 7)],
            ..Default::default()
        };
        let err = check_collectives("p", &res).unwrap_err();
        assert_eq!(
            err,
            RunError::IncompleteCollective {
                point: "p".to_string(),
                tenant: "t1:fft3d".to_string(),
                delivered: 7,
                total: 10
            }
        );
        let text = err.to_string();
        assert!(
            text.contains("t1:fft3d delivered 7 of 10 messages"),
            "{text}"
        );
        assert!(
            text.contains("measure_ns") && text.contains("wedged") && !text.contains("shards"),
            "{text}"
        );
        // Beside an open-loop tenant a collective may be starved by design.
        res.tenants.push(TenantStats::default());
        assert_eq!(check_collectives("p", &res), Ok(()));
        res.tenants.clear();
        assert_eq!(check_collectives("p", &res), Ok(()));

        // End to end: a window that closes mid-collective fails the run; a
        // fault script makes the same stall an outcome to report.
        let section = |script: &str| {
            format!(
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)x2\"]\n\
                 routings = [\"minimal\"]\njobs = [\"alltoall(4096) x 16\"]\n{script}\
                 seeds = [7]\nloads = [1.0]\nmode = \"steady\"\n\
                 warmup_ns = 0\nmeasure_ns = 1000\n"
            )
        };
        let m = Manifest::parse(&section("")).unwrap();
        match run_manifest(&m, &RunOptions::default()) {
            Err(RunError::IncompleteCollective { tenant, total, .. }) => {
                assert_eq!((tenant.as_str(), total), ("t0:alltoall", 240));
            }
            other => panic!("expected an incomplete collective, got {other:?}"),
        }
        let scripted = run(&section("fault_scripts = [\"at(1us, links(0.0))\"]\n"));
        let tenants = &scripted.points[0].metrics.as_ref().unwrap().tenants;
        assert_eq!(tenants[0].collective_ps, None);
    }

    /// The oracle changes memory and speed, never answers, so the network
    /// picks it: the dense network and the same LPS graph behind its Cayley
    /// oracle digest alike. `lps(5,13)x1` under minimal and UGAL-L keeps the
    /// digest its smoke section pinned while the oracle was a manifest axis;
    /// the congested `lps(11,7)x4` point (PSL, 12 ports, UGAL-L at load 0.9)
    /// walks the Cayley port order against the dense scan's in queue-driven
    /// tie-breaks.
    #[test]
    fn dense_and_cayley_backings_digest_alike() {
        use spectralfly_topology::{LpsGraph, Topology};
        let m = Manifest::parse(
            "[manifest]\nname = \"x\"\n[experiment.cayley-oracle]\n\
             topologies = [\"lps(5,13)x1\"]\nroutings = [\"minimal\", \"ugal-l\"]\nseeds = [7]\n\
             messages = 2\nbytes = 1024\n[experiment.hot]\ntopologies = [\"lps(11,7)x4\"]\n\
             routings = [\"ugal-l\"]\nseeds = [5]\nmode = \"steady\"\nloads = [0.9]\n\
             warmup_ns = 2000\nmeasure_ns = 8000\n",
        )
        .unwrap();
        for (e, (p, q, concentration)) in m.experiments.iter().zip([(5, 13, 1), (11, 7, 4)]) {
            let lps = LpsGraph::new(p, q).unwrap();
            let cayley = Arc::new(lps.cayley_oracle().unwrap());
            let dense = SimNetwork::new(lps.graph().clone(), concentration);
            let cayley = SimNetwork::with_oracle(lps.graph().clone(), concentration, cayley);
            assert_eq!(dense.oracle_kind(), spectralfly_graph::OracleKind::Dense);
            for point in expand(e) {
                let digest = run_point(&dense, &point).unwrap().digest;
                assert_eq!(
                    run_point(&cayley, &point).unwrap().digest,
                    digest,
                    "{}",
                    point.id
                );
                if e.name == "cayley-oracle" {
                    assert_eq!(digest, "358e09c00efd2cb9", "{}", point.id);
                }
            }
        }
    }

    /// Routing is the outer axis and the fault plan the inner one, so the six
    /// points name three networks in the order a, b, c, a, b, c; the runner
    /// visits them a, a, b, b, c, c and must still answer in expansion order.
    #[test]
    fn points_sharing_interleaved_networks_come_back_in_expansion_order() {
        let section = |faults: &str| {
            format!(
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)x2\"]\n\
                 routings = [\"minimal\", \"valiant\"]\nfaults = [{faults}]\nseeds = [5]\n\
                 fault_seed = 9\nmessages = 2\n"
            )
        };
        let m = Manifest::parse(&section("\"none\", \"link(0,1)\", \"links(0.2)\"")).unwrap();
        let points = expand(&m.experiments[0]);
        let faults: Vec<&str> = points.iter().map(|p| p.fault.as_str()).collect();
        let plans = ["none", "link(0,1)", "links(0.2)"];
        assert_eq!(faults, [plans, plans].concat());
        let report = run_manifest(&m, &RunOptions::default()).unwrap();
        assert_eq!(report.points.len(), 6);
        let spec = TopoSpec::parse("ring(9)x2").unwrap();
        for (p, got) in points.iter().zip(&report.points) {
            let plan = FaultPlan::parse(&p.fault).unwrap().with_seed(9);
            let net = SimNetwork::with_faults(spec.build().unwrap(), 2, &plan).unwrap();
            let direct = run_point(&net, p).unwrap();
            assert_eq!((&got.id, &got.digest), (&p.id, &direct.digest));
        }
        // The second of three networks does not build: that is the error, by
        // its spec, whatever the points of the other two did.
        let m = Manifest::parse(&section("\"none\", \"router(99)\", \"links(0.2)\"")).unwrap();
        match run_manifest(&m, &RunOptions::default()) {
            Err(RunError::Build { spec, .. }) => assert_eq!(spec, "ring(9)x2 + router(99)"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn build_errors_name_the_spec() {
        let m = Manifest::parse(
            "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"lps(4,6)\"]\nroutings = [\"minimal\"]\n",
        )
        .unwrap();
        match run_manifest(&m, &RunOptions::default()) {
            Err(RunError::Build { spec, .. }) => assert_eq!(spec, "lps(4,6)x1"),
            other => panic!("{other:?}"),
        }
    }
}
