//! The five workloads: set-up (spec strings → ready-to-run inputs), one
//! operation (a simulate call or a manifest run), and the output checks.
//!
//! Every input is generated here from `--seed`; the simulator receives only
//! the generated inputs. Simulated statistics are deterministic and serve as
//! checks, never as gated metrics.

use crate::trace::Tracer;
use spectralfly_exp::{
    digest_results, expand, fnv64_str, run_manifest, Manifest, RunOptions, TopoSpec,
};
use spectralfly_simnet::{
    FaultScript, MeasurementWindows, ParallelSimulator, SimConfig, SimNetwork, SimResults,
    Simulator, Workload,
};
use spectralfly_topology::{LpsGraph, Topology};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SatSeq,
    SatShards2,
    SteadyMixChurn,
    Cayley100k,
    SweepRebuild,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::SatSeq,
        Kind::SatShards2,
        Kind::SteadyMixChurn,
        Kind::Cayley100k,
        Kind::SweepRebuild,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SatSeq => "sat_seq",
            Kind::SatShards2 => "sat_shards2",
            Kind::SteadyMixChurn => "steady_mix_churn",
            Kind::Cayley100k => "cayley_100k",
            Kind::SweepRebuild => "sweep_rebuild",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes. `Smoke` walks the same code on fabrics that finish in
/// seconds; its numbers mean nothing and are never compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// The saturation fabric and its finite message count per endpoint.
    pub fn sat(self) -> (&'static str, usize) {
        match self {
            Scale::Full => ("lps(23,13)x8", 50),
            Scale::Smoke => ("lps(11,7)x4", 4),
        }
    }

    /// `(p, q)` of the Cayley-oracle fabric.
    pub fn cayley(self) -> (u64, u64) {
        match self {
            Scale::Full => (5, 47),
            Scale::Smoke => (5, 13),
        }
    }

    /// Steady-state windows of `steady_mix_churn`, picoseconds.
    pub fn churn_windows(self) -> MeasurementWindows {
        match self {
            Scale::Full => MeasurementWindows::new(4_000_000, 16_000_000),
            Scale::Smoke => MeasurementWindows::new(1_000_000, 4_000_000),
        }
    }

    /// The four-tenant mix of `steady_mix_churn`.
    pub fn churn_mix(self) -> &'static str {
        match self {
            Scale::Full => {
                "allreduce-ring(4096) x 64 + traffic(0.5, random, 4096) x 2048 \
                 + traffic(0.9, adversarial(8), 4096) x 4096 + mmpp(0.2, 0.9, 2, 2, 4096) x 1024"
            }
            Scale::Smoke => {
                "allreduce-ring(4096) x 16 + traffic(0.5, random, 4096) x 64 \
                 + traffic(0.9, adversarial(4), 4096) x 128 + mmpp(0.2, 0.9, 2, 2, 4096) x 64"
            }
        }
    }

    fn sweep_manifest(self) -> &'static str {
        match self {
            Scale::Full => include_str!("../workloads/sweep_rebuild.toml"),
            Scale::Smoke => include_str!("../workloads/sweep_rebuild_smoke.toml"),
        }
    }
}

/// The live fault script of `steady_mix_churn`.
pub const CHURN_SCRIPT: &str = "churn(1mhz, 10us)";

pub struct SimInputs {
    pub net: SimNetwork,
    pub cfg: SimConfig,
    pub wl: Workload,
    /// `Some` drives `try_run_with_offered_load`, `None` the workload-paced `try_run`.
    pub load: Option<f64>,
}

pub enum Inputs {
    Sim(Box<SimInputs>),
    Sweep(Manifest),
}

impl Inputs {
    /// Operations one round attempts: one simulate call, or one per manifest point.
    pub fn ops_per_round(&self) -> u64 {
        match self {
            Inputs::Sim(_) => 1,
            Inputs::Sweep(m) => sweep_points(m) as u64,
        }
    }
}

fn sweep_points(m: &Manifest) -> usize {
    m.experiments.iter().map(|e| expand(e).len()).sum()
}

/// The sweep manifest text for `seed` — what `Manifest::parse` is handed.
pub fn sweep_manifest_text(scale: Scale, seed: u64) -> String {
    scale.sweep_manifest().replace("{seed}", &seed.to_string())
}

/// A dense-oracle network from a `family(args)xC` spec string.
pub fn dense_network(spec: &str, t: &mut Tracer) -> Result<SimNetwork, String> {
    let spec = TopoSpec::parse(spec)?;
    let graph = t.span("topology.build", |_| spec.build())?;
    Ok(t.span("graph.oracle.build_dense", |_| {
        SimNetwork::new(graph, spec.concentration)
    }))
}

/// LPS(p, q) × 1 behind its Cayley oracle.
pub fn cayley_network(p: u64, q: u64, t: &mut Tracer) -> Result<SimNetwork, String> {
    let lps = t
        .span("topology.build", |_| LpsGraph::new(p, q))
        .map_err(|e| e.to_string())?;
    t.span("graph.oracle.build_cayley", |_| {
        let oracle = lps.cayley_oracle().map_err(|e| e.to_string())?;
        Ok(SimNetwork::with_oracle(
            lps.graph().clone(),
            1,
            Arc::new(oracle),
        ))
    })
}

fn routed(net: &SimNetwork, routing: &str, seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::default().with_routing(routing, net.diameter() as u32)
    }
}

fn uniform(net: &SimNetwork, msgs: usize, seed: u64, t: &mut Tracer) -> Workload {
    t.span("simnet.workload.gen", |_| {
        Workload::uniform_random(net.num_endpoints(), msgs, 4096, seed)
    })
}

/// Spec strings → ready-to-run. For `sweep_rebuild` only parse + expand: the
/// topology and oracle rebuilds are the workload there.
pub fn setup(kind: Kind, scale: Scale, seed: u64, t: &mut Tracer) -> Result<Inputs, String> {
    let sim = |net, cfg, wl, load| Ok(Inputs::Sim(Box::new(SimInputs { net, cfg, wl, load })));
    match kind {
        Kind::SatSeq | Kind::SatShards2 => {
            let (spec, msgs) = scale.sat();
            let net = dense_network(spec, t)?;
            let wl = uniform(&net, msgs, seed, t);
            let shards = if kind == Kind::SatShards2 { 2 } else { 1 };
            let cfg = routed(&net, "ugal-l", seed).with_shards(shards);
            sim(net, cfg, wl, Some(0.9))
        }
        Kind::SteadyMixChurn => {
            let net = dense_network(scale.sat().0, t)?;
            let wl = uniform(&net, 1, seed, t);
            let script = FaultScript::parse(CHURN_SCRIPT).map_err(|e| e.to_string())?;
            let cfg = routed(&net, "ugal-l", seed)
                .with_windows(scale.churn_windows())
                .with_jobs(scale.churn_mix())
                .with_fault_script(script.with_seed(seed));
            sim(net, cfg, wl, Some(1.0))
        }
        Kind::Cayley100k => {
            let (p, q) = scale.cayley();
            let net = cayley_network(p, q, t)?;
            let wl = uniform(&net, 1, seed, t);
            let cfg = routed(&net, "minimal", seed);
            sim(net, cfg, wl, None)
        }
        Kind::SweepRebuild => {
            let text = sweep_manifest_text(scale, seed);
            let manifest = t
                .span("exp.manifest.parse", |_| Manifest::parse(&text))
                .map_err(|e| e.to_string())?;
            let points = t.span("exp.runner.expand", |_| sweep_points(&manifest));
            if points == 0 {
                return Err("sweep manifest expands to no points".to_string());
            }
            Ok(Inputs::Sweep(manifest))
        }
    }
}

/// What one round produced.
pub struct Outcome {
    /// Packets the round's `packets_per_s` counts: delivered packets of a
    /// finite run, measured-window packets of a steady one, summed over the
    /// points of a sweep.
    pub packets: u64,
    /// `spectralfly_exp::digest_results` of the run (of the point digests for
    /// a sweep). Must repeat exactly from round to round.
    pub digest: String,
    /// The simulation's results; `None` for a sweep, whose public result
    /// carries digests and summaries only.
    pub sim: Option<SimResults>,
    /// Per-point summaries of a sweep.
    pub summaries: Vec<String>,
}

/// One operation: `Simulator`/`ParallelSimulator::new` + run, or `run_manifest`.
pub fn run_round(inputs: &Inputs, t: &mut Tracer) -> Result<Outcome, String> {
    match inputs {
        Inputs::Sim(s) => {
            let res = run_sim(s, t).map_err(|e| e.to_string())?;
            Ok(Outcome {
                packets: res
                    .measurement
                    .as_ref()
                    .map_or(res.delivered_packets, |m| m.delivered_packets),
                digest: digest_results(&res),
                sim: Some(res),
                summaries: Vec::new(),
            })
        }
        Inputs::Sweep(m) => {
            let opts = RunOptions {
                skip_external: true,
                skip_perf: true,
                filter: None,
            };
            let report = t
                .span("exp.runner.run_manifest", |_| run_manifest(m, &opts))
                .map_err(|e| e.to_string())?;
            let digests: Vec<&str> = report.points.iter().map(|p| p.digest.as_str()).collect();
            Ok(Outcome {
                packets: report
                    .points
                    .iter()
                    .filter_map(|p| delivered_of(&p.summary))
                    .sum(),
                digest: format!("{:016x}", fnv64_str(&digests.join(","))),
                sim: None,
                summaries: report.points.into_iter().map(|p| p.summary).collect(),
            })
        }
    }
}

/// The simulate call itself. The simulator is constructed inside the timed
/// region: `ParallelSimulator::new` partitions the graph, which users pay per run.
pub fn run_sim(s: &SimInputs, t: &mut Tracer) -> Result<SimResults, spectralfly_simnet::SimError> {
    if s.cfg.shards > 1 {
        let sim = t.span("simnet.engine.new", |_| {
            ParallelSimulator::new(&s.net, &s.cfg)
        });
        t.span("simnet.engine.run", |_| match s.load {
            Some(load) => sim.try_run_with_offered_load(&s.wl, load),
            None => sim.try_run(&s.wl),
        })
    } else {
        let sim = t.span("simnet.engine.new", |_| Simulator::new(&s.net, &s.cfg));
        t.span("simnet.engine.run", |_| match s.load {
            Some(load) => sim.try_run_with_offered_load(&s.wl, load),
            None => sim.try_run(&s.wl),
        })
    }
}

/// `N` of a point summary `delivered=N completion=…`; `None` for an error summary.
fn delivered_of(summary: &str) -> Option<u64> {
    summary
        .strip_prefix("delivered=")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Whether the hidden self-test flag is set: it shifts every expected count
/// by one so a test can watch a failed check fail the command.
fn planted_failure() -> u64 {
    u64::from(std::env::var_os("SPECTRALFLY_BENCH_PLANT_FAILURE").is_some())
}

/// The output checks; a failed check fails the operation.
pub fn check(kind: Kind, inputs: &Inputs, out: &Outcome) -> Result<(), String> {
    let plant = planted_failure();
    let same = |what: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got}, expected {want}"))
        }
    };
    match (inputs, &out.sim) {
        (Inputs::Sim(_), Some(res)) if kind == Kind::SteadyMixChurn => {
            let f = &res.faults;
            same(
                "injected == delivered + failed + in_flight",
                f.delivered + f.failed + f.in_flight(),
                f.injected,
            )?;
            same(
                "dropped == retransmits + failed",
                f.dropped_total(),
                f.retransmits + f.failed,
            )?;
            same("tenants", res.tenants.len() as u64, 4 + plant)?;
            if out.packets == 0 {
                return Err("the measurement window delivered nothing".to_string());
            }
            Ok(())
        }
        (Inputs::Sim(s), Some(res)) => {
            // Finite runs drain: every message of `msgs x endpoints` arrives,
            // one 4096-byte packet each, on either engine.
            let msgs = s.wl.num_messages() as u64;
            same("delivered packets", res.delivered_packets, msgs + plant)?;
            same("delivered messages", res.delivered_messages, msgs)?;
            same("delivered bytes", res.delivered_bytes, s.wl.total_bytes())
        }
        (Inputs::Sweep(m), None) => {
            same(
                "digested points",
                out.summaries.len() as u64,
                sweep_points(m) as u64 + plant,
            )?;
            match out.summaries.iter().find(|s| delivered_of(s).is_none()) {
                Some(bad) => Err(format!("a sweep point did not run: {bad}")),
                None => Ok(()),
            }
        }
        _ => Err("workload and outcome kinds disagree".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_is_32_points_over_16_degraded_networks() {
        let m = Manifest::parse(&sweep_manifest_text(Scale::Full, 3606)).expect("manifest parses");
        let points: Vec<_> = m.experiments.iter().flat_map(expand).collect();
        assert_eq!(points.len(), 32);
        let mut nets: Vec<_> = points
            .iter()
            .map(|p| (p.topology.clone(), p.fault.clone()))
            .collect();
        nets.sort();
        nets.dedup();
        assert_eq!(nets.len(), 16);
        assert!(points
            .iter()
            .all(|p| p.seed == 3606 && p.fault_seed == 3606));
    }

    #[test]
    fn summaries_parse() {
        assert_eq!(
            delivered_of("delivered=42 completion=7ps p99=3ps"),
            Some(42)
        );
        assert_eq!(delivered_of("error: network partitioned"), None);
    }
}
