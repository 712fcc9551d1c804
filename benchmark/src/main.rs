//! The repository benchmark: one workload per process, host-time end-to-end
//! metrics with tracing off, per-layer metrics from a separate traced run.
//!
//! `<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>` (see
//! `../BENCHMARK.json` and `README.md`). A pass is: set-up sampled several
//! times, one untimed warm-up round, then timed rounds — a closed batch loop,
//! one simulation at a time — until `--seconds` have been measured, with the
//! host-speed reference (`hostspeed`) sampled between them. Every end-to-end
//! time is the median over the pass's samples divided by the host's median
//! slowness over the same samples. The last line of standard output is the
//! result as one JSON object.

mod hostspeed;
#[cfg(test)]
mod json;
mod metrics;
mod probes;
mod trace;
mod workloads;

use hostspeed::{slowness, Reference};
use metrics::{iqr, median, Metric, END_TO_END, PER_LAYER};
use spectralfly_simnet::SimResults;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use trace::{Phase, Tracer};
use workloads::{Inputs, Kind, Scale};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    trace_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--trace-dir DIR] | --list",
        names.join("|")
    )
}

/// The metric glossary: name, unit, direction, and which end-to-end metric on
/// which workload each layer metric is predicted to move.
fn list_metrics() {
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let moves: Vec<String> = m.moves.iter().map(|(e, w)| format!("{e}@{w}")).collect();
        println!(
            "{:<46} {:<6} {:<6} {}",
            m.name,
            m.unit,
            m.better,
            moves.join(" ")
        );
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::SatSeq,
        // 0xE16: the seed of every row the legacy `bench_engine` recorded.
        seed: 3606,
        seconds: 18.0,
        trace: false,
        scale: Scale::Full,
        // Beside the sources, wherever the command is run from.
        trace_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            list_metrics();
            std::process::exit(0);
        }
        if flag == "--smoke" {
            args.scale = Scale::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.kind = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Peak resident set of this process so far (`VmHWM`), MiB. One process runs
/// one workload, so this is the workload's own peak.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPU seconds (user + system, every thread) this process has used so far.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name, in USER_HZ ticks (100 per second on Linux).
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let after = &stat[stat.rfind(')')? + 1..];
            let mut fields = after.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Operation accounting: an operation is one simulate call or one manifest
/// point, warm-up included; it fails on `Err`, on a panic, or on a failed check.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    digest: Option<String>,
    /// Results of the last simulation (every round digests identically).
    last_sim: Option<SimResults>,
}

struct Round {
    wall_s: f64,
    cpu_s: f64,
    packets: u64,
}

/// One round — the operation, then its checks — with failures counted, not
/// propagated: a panic in one simulate call must not abort the benchmark.
fn round(args: &Args, inputs: &Inputs, t: &mut Tracer, ops: &mut Ops) -> Option<Round> {
    let per_round = inputs.ops_per_round();
    ops.attempted += per_round;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        t.span("run", |t| workloads::run_round(inputs, t))
    }));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let checked = match result {
        Ok(Ok(outcome)) => workloads::check(args.kind, inputs, &outcome).and_then(|()| {
            // Simulated statistics are deterministic: every round of one
            // process must digest identically.
            match ops.digest.as_ref() {
                Some(first) if *first != outcome.digest => Err(format!(
                    "result digest changed between rounds: {first} then {}",
                    outcome.digest
                )),
                _ => {
                    ops.digest = Some(outcome.digest.clone());
                    Ok(outcome)
                }
            }
        }),
        Ok(Err(e)) => Err(e),
        Err(_) => Err("the operation panicked".to_string()),
    };
    match checked {
        Ok(outcome) => {
            ops.last_sim = outcome.sim;
            Some(Round {
                wall_s,
                cpu_s,
                packets: outcome.packets,
            })
        }
        Err(e) => {
            eprintln!("{}: operation failed: {e}", args.kind.name());
            ops.failed += per_round;
            None
        }
    }
}

/// Set-up samples per pass.
const SETUP_SAMPLES: usize = 5;

/// A phase's timed samples and the reference samples taken around them.
struct Timed {
    seconds: Vec<f64>,
    reference: Vec<f64>,
}

/// Set-up, sampled `SETUP_SAMPLES` times with a reference sample before,
/// between and after. A sample is a batch: set-up is repeated until 20 ms have
/// passed and the batch's mean is taken, so a microsecond set-up
/// (`sweep_rebuild`: parse + expand) is timed over hundreds of calls. Only one
/// set of inputs is alive at a time.
fn sampled_setup(args: &Args, host: &Reference, t: &mut Tracer) -> Result<(Inputs, Timed), String> {
    let mut timed = Timed {
        seconds: Vec::new(),
        reference: vec![host.sample()],
    };
    let mut calls = 0;
    loop {
        let t0 = Instant::now();
        let first = calls;
        let inputs = loop {
            t.enter(Phase::Setup, calls);
            calls += 1;
            let inputs = t.span("setup", |t| {
                workloads::setup(args.kind, args.scale, args.seed, t)
            })?;
            if t0.elapsed().as_secs_f64() >= 0.02 {
                break inputs;
            }
        };
        timed
            .seconds
            .push(t0.elapsed().as_secs_f64() / f64::from(calls - first));
        timed.reference.push(host.sample());
        if timed.seconds.len() == SETUP_SAMPLES {
            return Ok((inputs, timed));
        }
    }
}

struct Pass {
    setup: Timed,
    peak_rss_mb: f64,
    rounds: Vec<Round>,
    /// Reference samples of the timed rounds: two before the first round and
    /// two after every round.
    reference: Vec<f64>,
    inputs: Inputs,
}

fn pass(args: &Args, measure_s: f64, t: &mut Tracer, ops: &mut Ops) -> Result<Pass, String> {
    let host = Reference::new(args.scale);
    let (inputs, setup) = sampled_setup(args, &host, t)?;
    // Not alive during the warm-up operation, so `peak_rss_mb` holds no
    // reference table.
    drop(host);
    t.enter(Phase::Warmup, 0);
    // The warm-up round: checked and counted, not timed.
    round(args, &inputs, t, ops);
    // Read here, after set-up and one operation — what a user running one
    // simulation sees. Later rounds only add allocator drift, which varies
    // with how many rounds the host's speed allowed.
    let peak_rss_mb = peak_rss_mib()?;
    let host = Reference::new(args.scale);
    let mut reference = host.gap().to_vec();
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    // Another round is started while at least half of it should still fit, so
    // a pass measures for `measure_s` on average whatever the round's length.
    while rounds
        .last()
        .is_none_or(|last| started.elapsed().as_secs_f64() + last.wall_s / 2.0 < measure_s)
    {
        t.enter(Phase::Run, rounds.len() as u32);
        match round(args, &inputs, t, ops) {
            Some(r) => rounds.push(r),
            // A failing operation will fail again; one more is enough to tell
            // a fluke from a defect without burning the time cap.
            None if ops.failed >= 2 * inputs.ops_per_round() => break,
            None => {}
        }
        reference.extend(host.gap());
    }
    Ok(Pass {
        setup,
        peak_rss_mb,
        rounds,
        reference,
        inputs,
    })
}

/// `name → (value, samples, iqr)`.
type Values = BTreeMap<&'static str, (f64, usize, f64)>;

fn summarize(values: &mut Values, name: &'static str, samples: &[f64]) {
    if !samples.is_empty() {
        values.insert(name, (median(samples), samples.len(), iqr(samples)));
    }
}

/// The end-to-end metrics: host times divided by the host's slowness over
/// the phase they were taken in (the raw medians are printed beside it).
fn end_to_end(p: &Pass) -> Values {
    let mut v = Values::new();
    let setup_slow = slowness(&p.setup.reference);
    let run_slow = slowness(&p.reference);
    let walls: Vec<f64> = p.rounds.iter().map(|r| r.wall_s).collect();
    println!(
        "host slowness: set-up {} (n={}), rounds {} (n={}); raw medians: setup_s {}, run_wall_s {}",
        readable(setup_slow),
        p.setup.reference.len(),
        readable(run_slow),
        p.reference.len(),
        readable(median(&p.setup.seconds)),
        readable(median(&walls)),
    );
    let scaled = |xs: &[f64], by: f64| xs.iter().map(|x| x * by).collect::<Vec<f64>>();
    summarize(
        &mut v,
        "setup_s",
        &scaled(&p.setup.seconds, 1.0 / setup_slow),
    );
    summarize(&mut v, "run_wall_s", &scaled(&walls, 1.0 / run_slow));
    let rates: Vec<f64> = p
        .rounds
        .iter()
        .map(|r| r.packets as f64 / r.wall_s)
        .collect();
    summarize(&mut v, "packets_per_s", &scaled(&rates, run_slow));
    v.insert("peak_rss_mb", (p.peak_rss_mb, 1, 0.0));
    v
}

/// Per-span cost of the tracer, measured: seconds per recorded span.
fn span_cost_s() -> f64 {
    const SPANS: u32 = 100_000;
    let mut t = Tracer::new(true);
    let t0 = Instant::now();
    for _ in 0..SPANS {
        t.span("probe", |_| std::hint::black_box(()));
    }
    t0.elapsed().as_secs_f64() / f64::from(SPANS)
}

fn per_layer(args: &Args, p: &Pass, ops: &Ops, t: &mut Tracer) -> Result<Values, String> {
    let mut v = Values::new();
    if let Inputs::Sweep(manifest) = &p.inputs {
        t.enter(Phase::Walk, 0);
        probes::sweep_walk(manifest, t)?;
        let total = |span| t.totals(span).iter().sum::<f64>();
        let build_s = total("topology.build") + total("simnet.network.with_faults");
        let sim_s = total("exp.runner.run_point");
        v.insert(
            "exp.runner.build_share",
            (build_s / (build_s + sim_s), 1, 0.0),
        );
        v.insert("exp.runner.sim_share", (sim_s / (build_s + sim_s), 1, 0.0));
    }
    for (metric, span) in [
        ("topology.build_s", "topology.build"),
        ("graph.oracle.build_dense_s", "graph.oracle.build_dense"),
        ("graph.oracle.build_cayley_s", "graph.oracle.build_cayley"),
        ("simnet.network.with_faults_s", "simnet.network.with_faults"),
        ("simnet.workload.gen_s", "simnet.workload.gen"),
        ("simnet.engine.new_s", "simnet.engine.new"),
        ("simnet.engine.run_s", "simnet.engine.run"),
    ] {
        summarize(&mut v, metric, &t.totals(span));
    }
    let cpu: Vec<f64> = p.rounds.iter().map(|r| r.cpu_s).collect();
    summarize(&mut v, "simnet.engine.cpu_s", &cpu);
    v.insert(
        "host.slowness",
        (slowness(&p.reference), p.reference.len(), 0.0),
    );

    if let Some(res) = &ops.last_sim {
        let e = &res.engine;
        let run_s = v.get("simnet.engine.run_s").map_or(0.0, |x| x.0);
        for (name, value) in [
            ("simnet.engine.events", e.events as f64),
            (
                "simnet.engine.events_per_packet",
                e.events as f64 / res.delivered_packets.max(1) as f64,
            ),
            ("simnet.engine.blocked_parks", e.blocked_parks as f64),
            ("simnet.engine.wakeups", e.wakeups as f64),
            ("simnet.engine.arena_slots", e.arena_slots as f64),
            ("simnet.engine.timed_retries", e.timed_retries as f64),
            (
                "simnet.engine.ns_per_event",
                run_s * 1e9 / e.events.max(1) as f64,
            ),
            ("simnet.fault.drops", res.faults.dropped_total() as f64),
            ("simnet.fault.retransmits", res.faults.retransmits as f64),
            ("simnet.fault.failed", res.faults.failed as f64),
        ] {
            v.insert(name, (value, 1, 0.0));
        }
    }

    let run_spans = t.spans().iter().filter(|s| s.phase == Phase::Run).count();
    let spans_per_round = run_spans as f64 / p.rounds.len() as f64;
    let round_s = median(&p.rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    v.insert(
        "trace.overhead",
        (span_cost_s() * spans_per_round / round_s, 1, 0.0),
    );
    v.insert(
        "trace.unattributed_share",
        (t.unattributed_share(&[Phase::Setup, Phase::Run]), 1, 0.0),
    );

    for (name, value) in probes::run(args.scale, args.seed)? {
        v.insert(name, (value, 1, 0.0));
    }
    Ok(v)
}

/// Six significant digits, whatever the magnitude.
fn readable(x: f64) -> String {
    if x == 0.0 || (1e-3..1e7).contains(&x.abs()) {
        let digits = (5 - x.abs().max(1.0).log10().floor() as i32).max(0) as usize;
        format!("{x:.digits$}")
    } else {
        format!("{x:.5e}")
    }
}

fn report(table: &[Metric], values: &Values) -> String {
    let mut json = Vec::new();
    for m in table {
        // A span or count the workload never produced is a true zero: no time
        // was spent, nothing was counted, in that layer.
        let (value, n, iqr) = values.get(m.name).copied().unwrap_or((0.0, 0, 0.0));
        println!(
            "{:<46} {:>16} {:<6} {:<6} n={n:<4} iqr={}",
            m.name,
            readable(value),
            m.unit,
            m.better,
            readable(iqr)
        );
        json.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    json.join(", ")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    // `run_manifest` stamps provenance by asking git; keep it from walking
    // out of the checkout.
    if let Ok(cwd) = std::env::current_dir() {
        std::env::set_var("GIT_CEILING_DIRECTORIES", cwd);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut ops = Ops::default();
    // The traced run measures for the same `--seconds`, half of them in the
    // workload's rounds and the rest in the probes.
    let measure_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let outcome = pass(&args, measure_s, &mut tracer, &mut ops).and_then(|p| {
        let values = if p.rounds.is_empty() {
            Values::new()
        } else if args.trace {
            per_layer(&args, &p, &ops, &mut tracer)?
        } else {
            end_to_end(&p)
        };
        Ok((p.rounds.len(), values))
    });
    let (rounds, values) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{}: {e}", args.kind.name());
            std::process::exit(1);
        }
    };
    if args.trace {
        let file = format!("trace-{}-seed{}.jsonl", args.kind.name(), args.seed);
        if let Err(e) = tracer.write_jsonl(&args.trace_dir.join(file), args.kind.name()) {
            eprintln!("writing the trace: {e}");
            std::process::exit(1);
        }
    }
    let correct = ops.failed == 0 && rounds > 0;
    println!(
        "workload {} seed {} rounds {rounds} result_digest {}",
        args.kind.name(),
        args.seed,
        ops.digest.as_deref().unwrap_or("none"),
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = report(table, &values);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        ops.attempted, ops.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
