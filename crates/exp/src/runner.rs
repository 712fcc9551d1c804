//! Executes a [`Manifest`]: expands the declared axes into points, simulates
//! each point at every shard count, digests the outcomes, reduces each to the
//! fixed [`Metrics`] row `repro run` tabulates, and assembles a
//! provenance-stamped [`RunReport`].
//!
//! Three invariants are enforced *during* the run, not just at check time:
//!
//! * **Shard equivalence** — within one point, every shard count on the axis
//!   must produce the identical results digest (1 dispatches the sequential
//!   wakeup engine, >1 the conservative parallel engine). A divergence is a
//!   hard [`RunError::ShardDivergence`], because it means an engine
//!   equivalence guarantee the rest of the suite relies on has broken; a
//!   baseline comparison would only say "drift" without naming the engines.
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
use crate::manifest::{failure_metric, Experiment, ExternalFigure, Manifest, Mode, Structure};
use crate::provenance::{json_str, Provenance};
use crate::toml::render_float;
use crate::topo::TopoSpec;
use rayon::prelude::*;
use spectralfly_graph::failures::{failure_point, sweep_seed, TrialConfig};
use spectralfly_graph::{profile_graph, Column};
use spectralfly_simnet::fault::{FaultPlan, FaultScript};
use spectralfly_simnet::stats::TenantStats;
use spectralfly_simnet::workload::{random_placement, Workload};
use spectralfly_simnet::{
    simulate, MeasurementWindows, OraclePolicy, SimConfig, SimError, SimNetwork, SimResults,
};
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
    /// [`RunOptions::filter`] kept no point, structural row or external figure.
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
                 measure_ns), or the one-shard core deadlocked on a dense exchange, which it \
                 does not report in steady mode (run the point at shards >= 2)"
            ),
            RunError::NothingSelected { filter, sections } => write!(
                f,
                "filter {filter:?} selects nothing: it is a substring of no point id, \
                 structural row or external figure; sections: {}",
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
    /// Steady-state pattern spec (empty = workload-template destinations).
    pub pattern: String,
    /// Multi-tenant jobs mix spec (empty = no jobs). Supersedes the workload
    /// templates and the pattern when set.
    pub jobs: String,
    /// Static-fault plan spec.
    pub fault: String,
    /// Runtime fault-script spec.
    pub fault_script: String,
    /// Oracle policy.
    pub oracle: String,
    /// RNG seed.
    pub seed: u64,
    /// Offered load (`None` for workload-paced finite runs).
    pub load: Option<f64>,
    /// Shard counts to run and cross-check.
    pub shards: Vec<usize>,
    /// Execution mode (copied from the experiment).
    pub mode: Mode,
    /// Fault seed (copied from the experiment).
    pub fault_seed: u64,
    /// Rank count of a placed pattern micro-benchmark (copied from the
    /// experiment; `None` = every endpoint sends).
    pub ranks: Option<usize>,
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
            ("o", &self.oracle, "auto"),
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
            "fault_scripts" => &mut sibling.fault_script,
            _ => &mut sibling.oracle,
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
    /// Drain-to-empty completion time (finite / offered points) or, for a mix
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
    /// Wall time over all shard counts, milliseconds (informational only).
    pub wall_ms: u64,
}

/// The captured outcome of one external figure binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExternalResult {
    /// Section name.
    pub name: String,
    /// Binary invoked.
    pub bin: String,
    /// Whether it ran and exited zero.
    pub ok: bool,
    /// Tail of its standard output (or the launch error).
    pub output_tail: String,
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
    /// External figure outcomes (empty when externals were skipped).
    pub external: Vec<ExternalResult>,
}

/// Expand an experiment's axes into points (cross product, shards folded into
/// each point). Order is deterministic: topology, routing, pattern, fault,
/// script, oracle, seed, load — outermost first.
pub fn expand(e: &Experiment) -> Vec<Point> {
    let loads: Vec<Option<f64>> = match e.mode {
        Mode::Finite { .. } => vec![None],
        _ => e.loads.iter().copied().map(Some).collect(),
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
                            for oracle in &e.oracles {
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
                                            oracle: oracle.clone(),
                                            seed,
                                            load,
                                            shards: e.shards.clone(),
                                            mode: e.mode.clone(),
                                            fault_seed: e.fault_seed,
                                            ranks: e.ranks,
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

/// What makes two points share a network: the topology and — pristine — the
/// oracle policy or — degraded — the fault plan and its seed (a degraded
/// network re-selects its oracle, whatever the axis says). The axes revisit
/// each one for every routing × pattern × seed × load combination, and the
/// all-pairs BFS and next-hop table behind it are the expensive part.
fn network_key(p: &Point) -> (&str, &str, u64, &str) {
    if p.fault == "none" {
        (&p.topology, &p.fault, 0, &p.oracle)
    } else {
        (&p.topology, &p.fault, p.fault_seed, "")
    }
}

/// Build the network `p` runs on.
fn build_network(p: &Point) -> Result<SimNetwork, RunError> {
    let spec = TopoSpec::parse(&p.topology).map_err(build_error(&p.topology))?;
    if p.fault == "none" {
        let policy: OraclePolicy = p.oracle.parse().expect("validated by the manifest");
        return spec.network(policy).map_err(build_error(&p.topology));
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
    if p.fault != "none" {
        cfg = cfg.with_fault_plan(
            FaultPlan::parse(&p.fault)
                .expect("validated by the manifest")
                .with_seed(p.fault_seed),
        );
    }
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
        ..
    } = p.mode
    {
        let mut w = MeasurementWindows::new(warmup_ns * 1000, measure_ns * 1000);
        if !p.pattern.is_empty() {
            w = w.with_pattern(p.pattern.clone());
        }
        cfg = cfg.with_windows(w);
        if !p.jobs.is_empty() {
            cfg = cfg.with_jobs(&p.jobs);
        }
    }
    cfg
}

/// A seeded random placement of `ranks` logical ranks on the network's *alive*
/// endpoints — on a pristine network exactly [`random_placement`] (the same
/// draws), on a degraded one the surviving machine, so a placed
/// micro-benchmark never addresses a dead endpoint. Refuses a job larger than
/// the surviving machine.
fn place_on_alive(net: &SimNetwork, ranks: usize, seed: u64) -> Result<Vec<usize>, String> {
    let alive = net.alive_endpoints();
    if ranks > alive.len() {
        let fit = alive.len();
        return Err(format!("{ranks} ranks do not fit {fit} alive endpoints"));
    }
    let slots = random_placement(ranks, alive.len(), seed);
    Ok(slots.into_iter().map(|slot| alive[slot]).collect())
}

fn point_workload(p: &Point, net: &SimNetwork) -> Result<Workload, RunError> {
    let (messages, bytes) = match p.mode {
        Mode::Finite { messages, bytes } | Mode::Offered { messages, bytes } => (messages, bytes),
        // Steady mode: the workload supplies senders and sizes; destinations
        // come from the pattern (or the uniform-random templates).
        Mode::Steady { bytes, .. } => (1, bytes),
    };
    let Some(ranks) = p.ranks else {
        let endpoints = net.num_endpoints();
        return Ok(Workload::uniform_random(endpoints, messages, bytes, p.seed));
    };
    // The placed micro-benchmarks of Figs. 6–8: the pattern materialised over
    // the rank space, scattered over the surviving machine.
    let placement = place_on_alive(net, ranks, p.seed).map_err(build_error(&p.id))?;
    let wl = Workload::synthetic(&p.pattern, ranks.trailing_zeros(), messages, bytes, p.seed)
        .map_err(|e| build_error(&p.id)(e.to_string()))?;
    Ok(wl.place(&placement))
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
    let wl = point_workload(p, net)?;
    let start = Instant::now();
    let mut digests: Vec<(usize, String)> = Vec::with_capacity(p.shards.len());
    let mut first = None;
    for &shards in &p.shards {
        let cfg = point_config(p, net, shards);
        let outcome = simulate(net, &cfg, &wl, p.load);
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

/// Execute an external figure binary, capturing success and an output tail.
/// Looks for `<bin>` beside the running executable first (every
/// `spectralfly-bench` binary lands in one `target/<profile>/`, wherever the
/// command is run from), then `target/release/<bin>` under the current
/// directory, falling back to `cargo run --release -p spectralfly-bench --bin
/// <bin>`.
pub fn run_external(x: &ExternalFigure) -> ExternalResult {
    let beside_self = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join(&x.bin)));
    let direct = beside_self
        .into_iter()
        .chain([std::path::Path::new("target/release").join(&x.bin)])
        .find(|path| path.is_file());
    let out = if let Some(direct) = direct {
        std::process::Command::new(direct).args(&x.args).output()
    } else {
        std::process::Command::new("cargo")
            .args([
                "run",
                "--release",
                "-q",
                "-p",
                "spectralfly-bench",
                "--bin",
                &x.bin,
                "--",
            ])
            .args(&x.args)
            .output()
    };
    match out {
        Ok(o) => {
            let text = String::from_utf8_lossy(&o.stdout);
            let tail: String = text
                .lines()
                .rev()
                .take(20)
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect::<Vec<_>>()
                .join("\n");
            ExternalResult {
                name: x.name.clone(),
                bin: x.bin.clone(),
                ok: o.status.success(),
                output_tail: tail,
            }
        }
        Err(e) => ExternalResult {
            name: x.name.clone(),
            bin: x.bin.clone(),
            ok: false,
            output_tail: format!("launch failed: {e}"),
        },
    }
}

/// The rows of one `[structure.*]` section that `keep` keeps, each a digested
/// point `section/topology[/links=f]`: one per topology, or per topology ×
/// failure proportion. Rows are independent, and evaluated in parallel.
fn run_structure(
    s: &Structure,
    keep: &(impl Fn(&str) -> bool + Sync),
) -> Result<Vec<PointResult>, RunError> {
    let levels: Vec<Option<(usize, f64)>> = match s.link_failures.as_slice() {
        [] => vec![None],
        swept => swept.iter().copied().enumerate().map(Some).collect(),
    };
    let mut rows = Vec::new();
    for (topo, size) in s.rows().map_err(build_error(&s.name))? {
        for level in &levels {
            let links = level.map(|(_, f)| format!("/links={}", render_float(f)));
            let id = [&s.name, "/", &topo.graph_name(), &links.unwrap_or_default()].concat();
            if keep(&id) {
                rows.push((id, topo.clone(), size, *level));
            }
        }
    }
    let evaluate = |(id, topo, size, level): &(String, TopoSpec, _, _)| {
        let start = Instant::now();
        let values =
            structure_values(s, topo, *size, *level).map_err(build_error(&topo.graph_name()))?;
        let names = s.metrics.iter().map(|c| c.name());
        let cells = (s.metrics.iter().zip(&values))
            .map(|(c, v)| format!("{}={}", c.name(), structure_cell(s, *c, *v)));
        Ok(PointResult {
            id: id.clone(),
            experiment: s.name.clone(),
            digest: digest_row(names.zip(values.iter().copied())),
            summary: cells.collect::<Vec<_>>().join(" "),
            metrics: None,
            values,
            relative: None,
            wall_ms: start.elapsed().as_millis() as u64,
        })
    };
    let results: Vec<Result<PointResult, RunError>> = rows.par_iter().map(evaluate).collect();
    results.into_iter().collect()
}

/// One row's values in `metrics` order: the closed-form `size` (routers,
/// radix) where the section reads nothing else and the row was enumerated
/// with one, otherwise [`profile_graph`] on the built graph — or, at a failure
/// `level` (its index in the sweep, the proportion), each metric's
/// [`failure_point`] mean over the connected trials, seeded as
/// `failure_sweep` seeds that index.
fn structure_values(
    s: &Structure,
    topo: &TopoSpec,
    size: Option<(u64, u64)>,
    level: Option<(usize, f64)>,
) -> Result<Vec<Option<f64>>, String> {
    if let (true, Some((routers, radix))) = (s.is_closed_form(), size) {
        let value = |c| if c == Column::Routers { routers } else { radix };
        return Ok(s.metrics.iter().map(|&c| Some(value(c) as f64)).collect());
    }
    let g = topo.build()?;
    let Some((index, proportion)) = level else {
        let profile = profile_graph(&g, &s.metrics, s.seed);
        return Ok(s.metrics.iter().map(|&c| profile.value(c)).collect());
    };
    // One round of the stopping rule (10 batches × 4 trials): what Fig. 5 ran.
    let trials = TrialConfig {
        max_trials: 40,
        ..Default::default()
    };
    let seed = sweep_seed(s.seed, index);
    let mean = |c| {
        let point = failure_point(&g, proportion, failure_metric(c)?, &trials, seed);
        (point.connected_trials > 0).then_some(point.mean)
    };
    Ok(s.metrics.iter().map(|&c| mean(c)).collect())
}

/// One table cell of a structural row: counts as integers, µ₁ to two decimals
/// and the spectral bisection bound to none (Table I / Fig. 4 precision),
/// every other real — and every failure-sweep mean — to three; an undefined
/// value is `-`, or `disc.` where every failure trial disconnected the graph.
fn structure_cell(s: &Structure, column: Column, value: Option<f64>) -> String {
    let swept = !s.link_failures.is_empty();
    let Some(v) = value else {
        return if swept { "disc." } else { "-" }.to_string();
    };
    match column {
        Column::Ramanujan => if v > 0.0 { "yes" } else { "no" }.to_string(),
        Column::Mu1 => format!("{v:.2}"),
        Column::BisectionLower => format!("{v:.0}"),
        Column::MeanDistance | Column::Lambda2 | Column::BisectionNormalized => format!("{v:.3}"),
        _ if swept => format!("{v:.3}"),
        _ => format!("{v:.0}"),
    }
}

/// Options for [`run_manifest`].
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Skip `[external.*]` sections (the check path always does).
    pub skip_external: bool,
    /// Only run points, structural rows and external figures whose identifier
    /// contains this substring; one that selects nothing is
    /// [`RunError::NothingSelected`].
    pub filter: Option<String>,
    /// Does nothing: the `[perf.*]` section kind it skipped is gone. The field
    /// stays because `benchmark/src/workloads.rs` names it in a struct literal
    /// and only a benchmark PR may edit that file (ROADMAP item 6g).
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
    let mut external = Vec::new();
    if !opts.skip_external {
        for x in m.external.iter().filter(|x| keep(&x.name)) {
            external.push(run_external(x));
        }
    }
    let nothing_ran = point_results.is_empty() && external.is_empty();
    if let Some(filter) = opts.filter.as_ref().filter(|_| nothing_ran) {
        let externals = m.external.iter().filter(|_| !opts.skip_external);
        let sections = (m.experiments.iter().map(|e| &e.name))
            .chain(m.structures.iter().map(|s| &s.name))
            .chain(externals.map(|x| &x.name));
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
        external,
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
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
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
        out.push_str("  ],\n  \"external\": [\n");
        for (i, x) in self.external.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\":{},\"bin\":{},\"ok\":{},\"output_tail\":{}}}{}\n",
                json_str(&x.name),
                json_str(&x.bin),
                x.ok,
                json_str(&x.output_tail),
                if i + 1 < self.external.len() { "," } else { "" }
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
        assert!(!points[0].id.contains("auto"));
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

    #[test]
    fn alive_placement_avoids_dead_endpoints_and_matches_pristine() {
        let graph = TopoSpec::parse("ring(8)").unwrap().build().unwrap();
        let pristine = SimNetwork::new(graph.clone(), 2);
        assert_eq!(
            place_on_alive(&pristine, 8, 7).unwrap(),
            random_placement(8, pristine.num_endpoints(), 7),
            "pristine placement must be bit-identical to random_placement"
        );
        let plan = FaultPlan::parse("router(5)").unwrap();
        let net = SimNetwork::with_faults(graph, 2, &plan).unwrap();
        let placement = place_on_alive(&net, 8, 7).unwrap();
        assert_eq!(placement.len(), 8);
        for &e in &placement {
            assert!(net.endpoint_alive(e), "rank placed on dead endpoint {e}");
        }
    }

    #[test]
    fn finite_patterns_materialise_over_placed_ranks() {
        let m = Manifest::parse(
            "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)x2\"]\n\
             routings = [\"minimal\"]\nfaults = [\"router(2)\"]\npatterns = [\"shuffle\"]\n\
             ranks = 8\nmessages = 3\nbytes = 512\nseeds = [11]\n",
        )
        .unwrap();
        let points = expand(&m.experiments[0]);
        assert_eq!(
            points[0].id,
            "e/ring(9)x2/minimal/p=shuffle/f=router(2)/s=11"
        );
        let net = &build_network(&points[0]).unwrap();
        let wl = point_workload(&points[0], net).unwrap();
        // bit-shuffle over 8 ranks fixes ranks 0 and 7; the other six send.
        assert_eq!(wl.num_messages(), 6 * 3);
        let placement = place_on_alive(net, 8, 11).unwrap();
        for msg in &wl.messages {
            assert!(placement.contains(&msg.src) && placement.contains(&msg.dst));
            assert!(net.endpoint_alive(msg.src) && net.endpoint_alive(msg.dst));
        }
        let report = run_manifest(&m, &RunOptions::default()).unwrap();
        assert_eq!(
            report.points[0].summary.split(' ').next(),
            Some("delivered=18")
        );
        // More ranks than surviving endpoints is a typed refusal, not a panic.
        let mut crowded = points[0].clone();
        crowded.ranks = Some(32);
        assert!(matches!(
            run_point(net, &crowded),
            Err(RunError::Build { reason, .. }) if reason.contains("32 ranks do not fit 16")
        ));
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
            text.contains("measure_ns") && text.contains("shards >= 2"),
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
                 shards = [2]\nseeds = [7]\nloads = [1.0]\nmode = \"steady\"\n\
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

    /// `oracles = ["cayley"]` used to validate and then fail every point at
    /// its network build; it now builds through the LPS group structure,
    /// and the oracle is an implementation detail of the same simulation.
    /// The second section is congested (PSL, 12 ports, UGAL-L at load 0.9), so
    /// queue-driven tie-breaks walk the Cayley port order against the table's.
    #[test]
    fn the_cayley_oracle_axis_runs_and_digests_like_dense() {
        let report = run(
            "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"lps(3,5)x2\"]\n\
             routings = [\"minimal\", \"ugal-l\"]\noracles = [\"dense\", \"cayley\"]\nseeds = [5]\n\
             [experiment.hot]\ntopologies = [\"lps(11,7)x4\"]\nroutings = [\"ugal-l\"]\n\
             oracles = [\"dense\", \"cayley\"]\nseeds = [5]\nmode = \"offered\"\nloads = [0.9]\n\
             messages = 8\n",
        );
        let ids: Vec<&str> = report.points.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids[0], "e/lps(3,5)x2/minimal/o=dense/s=5");
        assert_eq!(ids[1], "e/lps(3,5)x2/minimal/o=cayley/s=5");
        assert_eq!(ids.len(), 6, "{ids:?}");
        for (pair, delivered) in report.points.chunks(2).zip([480, 480, 5376]) {
            assert!(
                pair[0]
                    .summary
                    .starts_with(&format!("delivered={delivered} ")),
                "{}",
                pair[0].summary
            );
            assert_eq!(
                pair[0].digest, pair[1].digest,
                "{} vs {}",
                pair[0].id, pair[1].id
            );
        }
        let spec = TopoSpec::parse("lps(3,5)x2").unwrap();
        let net = spec.network(OraclePolicy::Cayley).unwrap();
        assert_eq!(net.oracle_kind(), spectralfly_graph::OracleKind::Cayley);
        let ring = TopoSpec::parse("ring(9)").unwrap();
        assert!(ring.network(OraclePolicy::Cayley).is_err());
        assert!(ring.network(OraclePolicy::Landmark).is_ok());
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
