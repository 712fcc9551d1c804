//! Executes a [`Manifest`]: expands the declared axes into points, simulates
//! each point at every shard count, digests the outcomes, times the perf
//! scenarios, and assembles a provenance-stamped [`RunReport`].
//!
//! Two invariants are enforced *during* the run, not just at check time:
//!
//! * **Shard equivalence** — within one point, every shard count on the axis
//!   must produce the identical results digest (1 dispatches the sequential
//!   wakeup engine, >1 the conservative parallel engine). A divergence is a
//!   hard [`RunError::ShardDivergence`], because it means an engine
//!   equivalence guarantee the rest of the suite relies on has broken; a
//!   baseline comparison would only say "drift" without naming the engines.
//! * **Determinism of refusal** — a configuration that cannot run (e.g. a
//!   destination unreachable under the fault plan) is digested as its typed
//!   error, not skipped: an experiment silently losing points is itself a
//!   regression the baseline must catch.
//!
//! Performance scenarios measure the **calibration ratio** (scenario
//! useful-events/s ÷ pinned calibration workload useful-events/s, medians of
//! interleaved rounds). Raw events/s on the runner host is recorded in the
//! artifact but never gated: the interleaved ratio is the quantity that
//! transfers across hosts, which is what lets the baseline live in git.

use crate::digest::digest_outcome;
use crate::manifest::{Experiment, ExternalFigure, Manifest, Mode, PerfScenario};
use crate::provenance::{json_str, Provenance};
use crate::toml::render_float;
use crate::topo::TopoSpec;
use rayon::prelude::*;
use spectralfly_simnet::fault::{FaultPlan, FaultScript};
use spectralfly_simnet::workload::Workload;
use spectralfly_simnet::{
    simulate, MeasurementWindows, OraclePolicy, SimConfig, SimError, SimNetwork, SimResults,
    Simulator,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
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
}

/// The digested outcome of one point.
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The point's identifier (the baseline key).
    pub id: String,
    /// Bit-exact outcome digest (identical across the point's shard counts).
    pub digest: String,
    /// One-line human summary (delivered counts or the typed error).
    pub summary: String,
    /// Wall time over all shard counts, milliseconds (informational only).
    pub wall_ms: u64,
}

/// The measured outcome of one perf scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfResult {
    /// Scenario name (the baseline key).
    pub name: String,
    /// Median scenario useful-events/s ÷ median calibration useful-events/s.
    pub ratio: f64,
    /// Median scenario useful-events/s (informational, host-dependent).
    pub scenario_eps: f64,
    /// Median calibration useful-events/s (informational, host-dependent).
    pub calibration_eps: f64,
    /// The tolerance band the manifest declares for this scenario.
    pub tolerance: f64,
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
    /// Per-scenario perf measurements, in manifest order.
    pub perf: Vec<PerfResult>,
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
                                        let mut id = format!("{}/{}/{}", e.name, topo, routing);
                                        if !pattern.is_empty() {
                                            id.push_str(&format!("/p={pattern}"));
                                        }
                                        if !jobs.is_empty() {
                                            id.push_str(&format!("/j={jobs}"));
                                        }
                                        if fault != "none" {
                                            id.push_str(&format!("/f={fault}"));
                                        }
                                        if script != "none" {
                                            id.push_str(&format!("/c={script}"));
                                        }
                                        if oracle != "auto" {
                                            id.push_str(&format!("/o={oracle}"));
                                        }
                                        id.push_str(&format!("/s={seed}"));
                                        if let Some(l) = load {
                                            id.push_str(&format!("/l={}", render_float(l)));
                                        }
                                        points.push(Point {
                                            id,
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
                                        });
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

/// Per-run cache of built networks: the axes revisit the same topology (and
/// the same degraded topology) for every routing × seed × load combination,
/// and the all-pairs BFS behind each network is the expensive part.
struct NetworkCache {
    /// Pristine networks keyed by `(topology, oracle)`.
    pristine: BTreeMap<(String, String), SimNetwork>,
    /// Degraded networks keyed by `(topology, fault spec, fault seed)`.
    faulted: BTreeMap<(String, String, u64), SimNetwork>,
}

impl NetworkCache {
    fn build(points: &[Point]) -> Result<NetworkCache, RunError> {
        let mut pristine = BTreeMap::new();
        let mut faulted = BTreeMap::new();
        for p in points {
            let spec = TopoSpec::parse(&p.topology).map_err(|reason| RunError::Build {
                spec: p.topology.clone(),
                reason,
            })?;
            if p.fault == "none" {
                let key = (p.topology.clone(), p.oracle.clone());
                if let Entry::Vacant(slot) = pristine.entry(key) {
                    let graph = spec.build().map_err(|reason| RunError::Build {
                        spec: p.topology.clone(),
                        reason,
                    })?;
                    let policy: OraclePolicy = p.oracle.parse().expect("validated by the manifest");
                    let net = SimNetwork::with_policy(graph, spec.concentration, policy).map_err(
                        |e| RunError::Build {
                            spec: p.topology.clone(),
                            reason: e.to_string(),
                        },
                    )?;
                    slot.insert(net);
                }
            } else {
                let key = (p.topology.clone(), p.fault.clone(), p.fault_seed);
                if let Entry::Vacant(slot) = faulted.entry(key) {
                    let graph = spec.build().map_err(|reason| RunError::Build {
                        spec: p.topology.clone(),
                        reason,
                    })?;
                    let plan = FaultPlan::parse(&p.fault)
                        .expect("validated by the manifest")
                        .with_seed(p.fault_seed);
                    let net =
                        SimNetwork::with_faults(graph, spec.concentration, &plan).map_err(|e| {
                            RunError::Build {
                                spec: format!("{} + {}", p.topology, p.fault),
                                reason: e.to_string(),
                            }
                        })?;
                    slot.insert(net);
                }
            }
        }
        Ok(NetworkCache { pristine, faulted })
    }

    fn get(&self, p: &Point) -> &SimNetwork {
        if p.fault == "none" {
            &self.pristine[&(p.topology.clone(), p.oracle.clone())]
        } else {
            &self.faulted[&(p.topology.clone(), p.fault.clone(), p.fault_seed)]
        }
    }
}

fn point_config(p: &Point, net: &SimNetwork, shards: usize) -> SimConfig {
    let mut cfg = SimConfig::default()
        .with_routing(p.routing.clone(), net.diameter() as u32)
        .with_shards(shards);
    cfg.seed = p.seed;
    cfg.oracle = p.oracle.parse().expect("validated by the manifest");
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

fn point_workload(p: &Point, net: &SimNetwork) -> Workload {
    match p.mode {
        Mode::Finite { messages, bytes } | Mode::Offered { messages, bytes } => {
            Workload::uniform_random(net.num_endpoints(), messages, bytes, p.seed)
        }
        // Steady mode: the workload supplies senders and sizes; destinations
        // come from the pattern (or the uniform-random templates).
        Mode::Steady { bytes, .. } => {
            Workload::uniform_random(net.num_endpoints(), 1, bytes, p.seed)
        }
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
    let mut summary = String::new();
    for &shards in &p.shards {
        let cfg = point_config(p, net, shards);
        let outcome = simulate(net, &cfg, &wl, p.load);
        if summary.is_empty() {
            summary = outcome_summary(&outcome);
        }
        digests.push((shards, digest_outcome(&outcome)));
    }
    let first = digests[0].1.clone();
    if digests.iter().any(|(_, d)| *d != first) {
        return Err(RunError::ShardDivergence {
            point: p.id.clone(),
            digests,
        });
    }
    Ok(PointResult {
        id: p.id.clone(),
        digest: first,
        summary,
        wall_ms: start.elapsed().as_millis() as u64,
    })
}

fn useful_eps(res: &SimResults, wall_s: f64) -> f64 {
    (res.engine.events - res.engine.timed_retries) as f64 / wall_s.max(1e-9)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    xs[xs.len() / 2]
}

/// The pinned calibration workload every perf ratio is measured against: a
/// small fixed simulation whose cost tracks the same event-loop hot path as
/// the scenarios. Changing it invalidates every recorded perf baseline, so
/// it is deliberately boring and parameter-free.
fn calibration_run() -> (SimNetwork, SimConfig, Workload) {
    let spec = TopoSpec::parse("ring(16)x2").expect("pinned calibration topology");
    let graph = spec.build().expect("pinned calibration topology");
    let net = SimNetwork::new(graph, spec.concentration);
    let cfg = SimConfig::default().with_routing("minimal", net.diameter() as u32);
    let wl = Workload::uniform_random(net.num_endpoints(), 4, 4096, 0xCA11B);
    (net, cfg, wl)
}

/// Measure one perf scenario: `rounds` interleaved (calibration, scenario)
/// pairs, median useful-events/s on each side, ratio of the medians.
pub fn run_perf_scenario(s: &PerfScenario) -> Result<PerfResult, RunError> {
    let spec = TopoSpec::parse(&s.topology).map_err(|reason| RunError::Build {
        spec: s.topology.clone(),
        reason,
    })?;
    let graph = spec.build().map_err(|reason| RunError::Build {
        spec: s.topology.clone(),
        reason,
    })?;
    let net = SimNetwork::new(graph, spec.concentration);
    let mut cfg = SimConfig::default().with_routing(s.routing.clone(), net.diameter() as u32);
    cfg.seed = s.seed;
    let wl = Workload::uniform_random(net.num_endpoints(), s.messages, s.bytes, s.seed);
    let (cal_net, cal_cfg, cal_wl) = calibration_run();

    let mut cal_eps = Vec::with_capacity(s.rounds);
    let mut scen_eps = Vec::with_capacity(s.rounds);
    for _ in 0..s.rounds {
        // Interleave: one calibration, one scenario, per round, so slow host
        // phases (thermal, noisy neighbours) hit both sides alike.
        let t = Instant::now();
        let res = Simulator::new(&cal_net, &cal_cfg).run(&cal_wl);
        cal_eps.push(useful_eps(&res, t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, s.load);
        scen_eps.push(useful_eps(&res, t.elapsed().as_secs_f64()));
    }
    let scenario_eps = median(&mut scen_eps);
    let calibration_eps = median(&mut cal_eps);
    Ok(PerfResult {
        name: s.name.clone(),
        ratio: scenario_eps / calibration_eps.max(1e-9),
        scenario_eps,
        calibration_eps,
        tolerance: s.tolerance,
    })
}

/// Execute an external figure binary, capturing success and an output tail.
/// Tries `target/release/<bin>` first (the CI layout), falling back to
/// `cargo run --release -p spectralfly-bench --bin <bin>`.
pub fn run_external(x: &ExternalFigure) -> ExternalResult {
    let direct = std::path::Path::new("target/release").join(&x.bin);
    let out = if direct.exists() {
        std::process::Command::new(&direct).args(&x.args).output()
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

/// Options for [`run_manifest`].
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Skip `[external.*]` sections (the check path always does).
    pub skip_external: bool,
    /// Only run points and scenarios whose identifier contains this substring.
    pub filter: Option<String>,
    /// Skip `[perf.*]` sections (used by tests that only need digests).
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
    let cache = NetworkCache::build(&points)?;
    // Points are independent deterministic simulations; run them in parallel
    // and collect in expansion order (par_iter preserves order on collect).
    let results: Vec<Result<PointResult, RunError>> = points
        .par_iter()
        .map(|p| run_point(cache.get(p), p))
        .collect();
    let mut point_results = Vec::with_capacity(results.len());
    for r in results {
        point_results.push(r?);
    }
    // Perf scenarios run sequentially *after* the sweeps: an idle machine is
    // part of the methodology (the ratio cancels most but not all noise).
    let mut perf = Vec::new();
    if !opts.skip_perf {
        for s in m.perf.iter().filter(|s| keep(&s.name)) {
            perf.push(run_perf_scenario(s)?);
        }
    }
    let mut external = Vec::new();
    if !opts.skip_external {
        for x in m.external.iter().filter(|x| keep(&x.name)) {
            external.push(run_external(x));
        }
    }
    Ok(RunReport {
        manifest: m.name.clone(),
        config_hash: m.config_hash(),
        provenance: Provenance::collect(
            &m.config_hash(),
            m.experiments.first().map(|e| e.seeds[0]).unwrap_or(0),
        ),
        points: point_results,
        perf,
        external,
    })
}

impl RunReport {
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
                "    {{\"id\":{},\"digest\":{},\"summary\":{},\"wall_ms\":{}}}{}\n",
                json_str(&p.id),
                json_str(&p.digest),
                json_str(&p.summary),
                p.wall_ms,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"perf\": [\n");
        for (i, p) in self.perf.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\":{},\"ratio\":{:.6},\"scenario_eps\":{:.0},\"calibration_eps\":{:.0},\"tolerance\":{}}}{}\n",
                json_str(&p.name),
                p.ratio,
                p.scenario_eps,
                p.calibration_eps,
                render_float(p.tolerance),
                if i + 1 < self.perf.len() { "," } else { "" }
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

    #[test]
    fn perf_scenario_produces_a_positive_ratio() {
        let s = PerfScenario {
            name: "tiny".to_string(),
            topology: "ring(9)x2".to_string(),
            routing: "minimal".to_string(),
            load: 0.5,
            messages: 2,
            bytes: 2048,
            rounds: 1,
            tolerance: 0.5,
            seed: 3,
        };
        let r = run_perf_scenario(&s).unwrap();
        assert!(r.ratio > 0.0);
        assert!(r.scenario_eps > 0.0);
        assert!(r.calibration_eps > 0.0);
        assert_eq!(r.tolerance, 0.5);
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
