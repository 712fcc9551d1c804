//! The traced run's probes: stand-alone timings of single public functions.
//!
//! The suite is fixed — the paper fabrics, the churn script, the tenant mix —
//! and identical in every traced run, whichever workload is being traced, so
//! each probe row is the same measurement everywhere. What is `pub(crate)`
//! inside the engines (calendar queue, packet arena, per-epoch barrier waits,
//! congestion-board copies) cannot be probed from here; see the README.

use crate::metrics::median;
use crate::trace::Tracer;
use crate::workloads::{self, Inputs, Kind, Scale, SimInputs, CHURN_SCRIPT};
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_exp::runner::run_point;
use spectralfly_exp::{digest_results, expand, Manifest, TopoSpec};
use spectralfly_graph::failures::{failure_point, FailureMetric, TrialConfig};
use spectralfly_graph::{
    bisection_bandwidth, partition_kway, spectral_summary, BisectConfig, LandmarkOracle,
};
use spectralfly_simnet::job::{resolve_mix, validate_mix_spec};
use spectralfly_simnet::stats::StatsCollector;
use spectralfly_simnet::{
    pattern, FaultPlan, FaultScript, JobCtx, PatternCtx, RoutingHarness, SimConfig, SimNetwork,
    SimResults,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub type Rows = Vec<(&'static str, f64)>;

/// Operations per rate probe.
fn rate_ops(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 2_000_000,
        Scale::Smoke => 50_000,
    }
}

/// Median operations per second over five timed batches of `ops / 5`, after
/// one untimed batch: page faults and lazily filled caches (the landmark
/// oracle's exact rows) are not the steady rate.
fn rate(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    const BATCHES: u64 = 5;
    let per = (ops / BATCHES).max(1);
    let mut samples = Vec::new();
    for batch in 0..=BATCHES {
        let t0 = Instant::now();
        for i in 0..per {
            op(batch * per + i);
        }
        if batch > 0 {
            samples.push(per as f64 / t0.elapsed().as_secs_f64());
        }
    }
    median(&samples)
}

/// Median seconds of `reps` calls.
fn seconds<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `SimNetwork::minimal_ports_packed` — the call the engines make per hop —
/// over seeded router pairs.
fn min_ports_rate(net: &SimNetwork, ops: u64, seed: u64) -> f64 {
    let n = net.num_routers() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(u32, u32)> = (0..ops.min(1 << 18))
        .map(|_| {
            let src = rng.gen_range(0..n);
            let dst = rng.gen_range(0..n - 1);
            (src, if dst >= src { dst + 1 } else { dst })
        })
        .collect();
    let mut scratch = Vec::new();
    let mut sink = 0usize;
    let rate = rate(ops, |i| {
        let (src, dst) = pairs[i as usize % pairs.len()];
        let ports = net.minimal_ports_packed(src, dst, &mut scratch);
        sink ^= ports.len() + usize::from(ports[0]);
    });
    black_box(sink);
    rate
}

/// `RoutingHarness::decide_round_robin`: the routing decision with no event
/// loop around it.
fn decisions_rate(net: &SimNetwork, routing: &str, ops: u64, seed: u64) -> f64 {
    let cfg = SimConfig {
        seed,
        ..SimConfig::default().with_routing(routing, net.diameter() as u32)
    };
    let mut harness = RoutingHarness::new(net, &cfg);
    harness.warm();
    let mut sink = 0usize;
    let rate = rate(ops, |i| sink ^= harness.decide_round_robin(i));
    black_box(sink);
    rate
}

/// The sequential and the 2-shard engine on the `sat_*` inputs, alternating,
/// first pair discarded as warm-up.
fn parallel_pair(scale: Scale, seed: u64, rows: &mut Rows) -> Result<SimResults, String> {
    let off = &mut Tracer::new(false);
    let Inputs::Sim(seq) = workloads::setup(Kind::SatSeq, scale, seed, off)? else {
        unreachable!("sat_seq is a simulation workload");
    };
    let par = SimInputs {
        cfg: seq.cfg.clone().with_shards(2),
        net: seq.net.clone(),
        wl: seq.wl.clone(),
        load: seq.load,
    };
    let (mut seq_s, mut par_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for pair in 0..3 {
        let t0 = Instant::now();
        let seq_res = workloads::run_sim(&seq, off).map_err(|e| e.to_string())?;
        let seq_wall = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let par_res = workloads::run_sim(&par, off).map_err(|e| e.to_string())?;
        let par_wall = t0.elapsed().as_secs_f64();
        if pair > 0 {
            seq_s.push(seq_wall);
            par_s.push(par_wall);
        }
        last = Some((seq_res, par_res));
    }
    let (seq_res, par_res) = last.expect("three pairs ran");
    if (seq_res.delivered_packets, seq_res.delivered_bytes)
        != (par_res.delivered_packets, par_res.delivered_bytes)
    {
        return Err("the 2-shard engine delivered different totals than the sequential".into());
    }
    let epoch_ps = par.cfg.link_latency_ps() + par.cfg.router_latency_ps();
    rows.push((
        "simnet.parallel.event_surplus",
        par_res.engine.events as f64 / seq_res.engine.events as f64,
    ));
    rows.push((
        "simnet.parallel.speedup_vs_seq",
        median(&seq_s) / median(&par_s),
    ));
    rows.push((
        "simnet.parallel.epochs_upper",
        par_res.completion_time_ps.div_ceil(epoch_ps) as f64,
    ));
    rows.push((
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    ));
    Ok(seq_res)
}

/// 1 M `record_packet` + `finish` (the percentile sort) on scrambled latencies.
fn stats(scale: Scale, seed: u64, rows: &mut Rows) {
    let n = rate_ops(scale) / 2;
    let (mut record_s, mut finish_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut collector = StatsCollector::default();
        let mut x = seed | 1;
        let t0 = Instant::now();
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let latency = 1_000_000 + (x >> 44);
            collector.record_packet(latency, (x >> 60) as u32 + 1, 4096, latency + i);
        }
        record_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(collector.finish());
        finish_s.push(t0.elapsed().as_secs_f64());
    }
    rows.push(("simnet.stats.record_per_s", n as f64 / median(&record_s)));
    rows.push(("simnet.stats.finish_s", median(&finish_s)));
}

/// The experiment layer on the sweep manifest text.
fn exp(scale: Scale, seed: u64, digested: &SimResults, rows: &mut Rows) -> Result<(), String> {
    let text = workloads::sweep_manifest_text(scale, seed);
    let manifest = Manifest::parse(&text).map_err(|e| e.to_string())?;
    rows.push((
        "exp.manifest.parse_s",
        seconds(50, || Manifest::parse(&text)),
    ));
    rows.push((
        "exp.runner.expand_s",
        seconds(50, || {
            manifest
                .experiments
                .iter()
                .map(|e| expand(e).len())
                .sum::<usize>()
        }),
    ));
    let mut sink = 0usize;
    rows.push((
        "exp.digest.per_s",
        rate(10_000, |_| sink ^= digest_results(digested).len()),
    ));
    black_box(sink);
    Ok(())
}

/// Run the fixed probe suite.
pub fn run(scale: Scale, seed: u64) -> Result<Rows, String> {
    let mut rows = Rows::new();
    let ops = rate_ops(scale);
    let off = &mut Tracer::new(false);

    // Oracle tier and routing decision on the dense paper fabric.
    let (sat_spec, _) = scale.sat();
    let dense = workloads::dense_network(sat_spec, off)?;
    let graph = dense.graph().clone();
    let conc = dense.concentration();
    let scan = dense.clone().without_next_hop_table();
    let landmark_s = seconds(5, || LandmarkOracle::build(&graph));
    let landmark = SimNetwork::with_oracle(
        graph.clone(),
        conc,
        Arc::new(LandmarkOracle::build(&graph).map_err(|e| e.to_string())?),
    );
    rows.push(("graph.oracle.build_landmark_s", landmark_s));
    rows.push((
        "graph.oracle.bytes_dense",
        dense.oracle_memory_bytes() as f64,
    ));
    for (name, net) in [
        ("graph.oracle.min_ports_per_s.dense", &dense),
        ("graph.oracle.min_ports_per_s.dense_scan", &scan),
        ("graph.oracle.min_ports_per_s.landmark", &landmark),
    ] {
        rows.push((name, min_ports_rate(net, ops, seed)));
    }
    for (name, routing) in [
        ("simnet.routing.decisions_per_s.minimal", "minimal"),
        ("simnet.routing.decisions_per_s.ugal-l", "ugal-l"),
        ("simnet.routing.decisions_per_s.ugal-g", "ugal-g"),
    ] {
        rows.push((name, decisions_rate(&dense, routing, ops, seed)));
    }

    // The same two calls behind the Cayley oracle.
    let (p, q) = scale.cayley();
    let cayley = workloads::cayley_network(p, q, off)?;
    rows.push((
        "graph.oracle.bytes_cayley",
        cayley.oracle_memory_bytes() as f64,
    ));
    // A quarter of the operations: a translation costs ~50x a table row.
    rows.push((
        "graph.oracle.min_ports_per_s.cayley",
        min_ports_rate(&cayley, ops / 4, seed),
    ));
    rows.push((
        "simnet.routing.decisions_per_s.cayley_minimal",
        decisions_rate(&cayley, "minimal", ops / 4, seed),
    ));
    drop(cayley);

    // The sharded engine against the sequential one.
    rows.push((
        "graph.partition.kway2_s",
        seconds(5, || {
            partition_kway(&graph, 2, &BisectConfig::default(), seed)
        }),
    ));
    let digested = parallel_pair(scale, seed, &mut rows)?;

    // Statistics, patterns, faults, jobs.
    stats(scale, seed, &mut rows);
    let endpoints = dense.num_endpoints();
    let adversarial = pattern::create("adversarial(8)", &PatternCtx::new(endpoints))
        .map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sink = 0usize;
    rows.push((
        "simnet.pattern.draws_per_s",
        rate(ops, |i| {
            sink ^= adversarial.dst(i as usize % endpoints, &mut rng)
        }),
    ));
    black_box(sink);
    let script = FaultScript::parse(CHURN_SCRIPT)
        .map_err(|e| e.to_string())?
        .with_seed(seed);
    let horizon_ps = scale.churn_windows().deadline_ps();
    script
        .expand(&graph, horizon_ps)
        .map_err(|e| e.to_string())?;
    rows.push((
        "simnet.fault.expand_s",
        seconds(5, || script.expand(&graph, horizon_ps)),
    ));
    let mix = scale.churn_mix();
    let available: Vec<usize> = (0..endpoints).collect();
    let resolve = || {
        validate_mix_spec(mix)?;
        resolve_mix(mix, &JobCtx::new(), &available, seed)
    };
    resolve().map_err(|e| e.to_string())?;
    rows.push(("simnet.job.resolve_s", seconds(5, resolve)));

    exp(scale, seed, &digested, &mut rows)?;

    // Analysis-only layers, on the paper fabric's router graph.
    rows.push((
        "graph.partition.bisect_s",
        seconds(3, || bisection_bandwidth(&graph, 2, seed)),
    ));
    rows.push((
        "graph.spectral.summary_s",
        seconds(3, || spectral_summary(&graph, 100, seed)),
    ));
    let trials = TrialConfig {
        initial_batch: 2,
        batches: 4,
        max_trials: 8,
        ..TrialConfig::default()
    };
    rows.push((
        "graph.failures.point_s",
        seconds(1, || {
            failure_point(&graph, 0.1, FailureMetric::Diameter, &trials, seed)
        }),
    ));
    Ok(rows)
}

/// `sweep_rebuild` taken apart: what `run_manifest` does per point, replayed
/// through the same public pieces one network and one point at a time, so the
/// round's wall splits into building and simulating.
pub fn sweep_walk(manifest: &Manifest, t: &mut Tracer) -> Result<(), String> {
    let points: Vec<_> = manifest.experiments.iter().flat_map(expand).collect();
    let mut nets: BTreeMap<(String, String), SimNetwork> = BTreeMap::new();
    for p in &points {
        let key = (p.topology.clone(), p.fault.clone());
        if nets.contains_key(&key) {
            continue;
        }
        let spec = TopoSpec::parse(&p.topology)?;
        let graph = t.span("topology.build", |_| spec.build())?;
        let plan = FaultPlan::parse(&p.fault)
            .map_err(|e| e.to_string())?
            .with_seed(p.fault_seed);
        let net = t
            .span("simnet.network.with_faults", |_| {
                SimNetwork::with_faults(graph, spec.concentration, &plan)
            })
            .map_err(|e| e.to_string())?;
        nets.insert(key, net);
    }
    for p in &points {
        let net = &nets[&(p.topology.clone(), p.fault.clone())];
        t.span("exp.runner.run_point", |_| run_point(net, p))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
