//! Shared CLI argument parsing for the experiment binaries.
//!
//! Every figure/sweep binary accepts the same flag vocabulary —
//! `--routing`, `--pattern`, `--faults`/`--fault-seed`, `--seed`,
//! `--warmup`/`--measure`, `--shards`, `--topo`, plus list-valued axes like
//! `--loads` and `--fractions` — and this module is the single definition of
//! each, so a flag behaves identically everywhere it is accepted and a new
//! binary picks the vocabulary up by import instead of re-implementing it.

use spectralfly_simnet::spec::{self, SpecError};
use spectralfly_simnet::{
    pattern, routing, FaultPlan, FaultScript, MeasurementWindows, OraclePolicy,
};

/// Parse `--name <value>` from the command line, falling back to `default`
/// (malformed values fall back too).
pub fn arg_u64(name: &str, default: u64) -> u64 {
    arg_str(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The raw string value of `--name <value>`, if the flag is present.
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a comma-separated `f64` list from `--name a,b,c`, falling back to
/// `default` when the flag is absent. Every parsed value must satisfy
/// `valid` (described by `expect` in the panic message).
///
/// # Panics
/// If the flag is present without a value, an entry is not a number, or an
/// entry fails validation.
pub fn arg_f64_list(
    name: &str,
    default: &[f64],
    valid: impl Fn(f64) -> bool,
    expect: &str,
) -> Vec<f64> {
    match arg_str(name) {
        None => default.to_vec(),
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                let v: f64 = s
                    .parse()
                    .unwrap_or_else(|_| panic!("{name} entry {s:?} is not a number"));
                assert!(valid(v), "{name} entry {v} is not {expect}");
                v
            })
            .collect(),
    }
}

/// Offered loads selected with `--loads a,b,c` (fractions of injection
/// bandwidth in `(0, 1]`), falling back to `default`.
pub fn loads_from_args(default: &[f64]) -> Vec<f64> {
    arg_f64_list("--loads", default, |l| l > 0.0 && l <= 1.0, "in (0, 1]")
}

/// Failure fractions selected with `--fractions a,b,c` (fractions of links in
/// `[0, 1]`), falling back to `default`.
pub fn fractions_from_args(default: &[f64]) -> Vec<f64> {
    arg_f64_list(
        "--fractions",
        default,
        |f| (0.0..=1.0).contains(&f),
        "in [0, 1]",
    )
}

/// The RNG seed selected on the command line (`--seed <u64>`), with a
/// per-binary default — sweeping seeds puts error bars on any figure.
pub fn seed_from_args(default: u64) -> u64 {
    arg_u64("--seed", default)
}

/// The engine shard count selected on the command line (`--shards <n>`,
/// default 1). One shard is the sequential wakeup engine; more run the
/// conservative parallel engine ([`spectralfly_simnet::ParallelSimulator`])
/// with that many worker threads — a performance knob, never a semantics knob:
/// results are identical at every value.
///
/// # Panics
/// If zero is requested.
pub fn shards_from_args() -> usize {
    let shards = arg_u64("--shards", 1) as usize;
    assert!(shards >= 1, "--shards must be at least 1");
    shards
}

/// The path-oracle policy selected on the command line (`--oracle
/// auto|dense|landmark|cayley`, default `auto`). Like `--shards`, this is a
/// memory/performance knob, never a semantics knob: every backing answers
/// minimal-path queries identically, so results do not depend on it. `cayley`
/// is only honoured by binaries that construct algebraic topologies (the
/// translation oracle comes from the topology, e.g.
/// [`spectralfly_topology::LpsGraph::cayley_oracle`]); generic sweeps reject
/// it through [`spectralfly_simnet::SimNetwork::with_policy`].
///
/// # Panics
/// If the value is not one of the four policy names.
pub fn oracle_from_args() -> OraclePolicy {
    match arg_str("--oracle") {
        None => OraclePolicy::default(),
        Some(s) => s.parse().unwrap_or_else(|e| panic!("--oracle: {e}")),
    }
}

/// The case-insensitive topology-name filter selected with
/// `--topo <substring>`, if any.
pub fn topo_filter_from_args() -> Option<String> {
    arg_str("--topo").map(|s| s.to_lowercase())
}

/// Steady-state measurement windows selected on the command line:
/// `--measure <ns>` (required to enable them) and `--warmup <ns>` (default:
/// one quarter of the measurement span). With windows configured, the
/// offered-load sweeps report *sustained measured throughput* over the
/// window instead of drain-to-empty completion time — the paper's saturation
/// curves — via [`spectralfly_simnet::MeasurementSummary`].
pub fn measurement_from_args() -> Option<MeasurementWindows> {
    let measure_ns = arg_u64("--measure", 0);
    if measure_ns == 0 {
        return None;
    }
    let warmup_ns = arg_u64("--warmup", measure_ns / 4);
    Some(MeasurementWindows::new(warmup_ns * 1000, measure_ns * 1000))
}

/// Split a comma-separated spec list into its specs — commas inside
/// parentheses separate a spec's arguments, not specs:
/// `"hotspot(8,0.2),adversarial"` → `["hotspot(8,0.2)", "adversarial"]`.
pub fn split_pattern_list(list: &str) -> Result<Vec<String>, SpecError> {
    let calls = spec::parse_list(list)?;
    Ok(calls.iter().map(|c| c.text().to_string()).collect())
}

/// The registry entries selected with `flag a,b,c` (falling back to `default`
/// when the flag is absent; `all` selects every registered entry), validated
/// against the registry that `registered` / `is_registered` front.
fn registry_list_from_args(
    flag: &str,
    what: &str,
    default: &[&str],
    registered: fn() -> Vec<String>,
    is_registered: fn(&str) -> bool,
) -> Vec<String> {
    let requested = match arg_str(flag) {
        Some(list) => split_pattern_list(&list).unwrap_or_else(|e| panic!("{flag}: {e}")),
        None => default.iter().map(|s| s.to_string()).collect(),
    };
    assert!(
        !requested.is_empty(),
        "{flag} requires at least one {what}; registered: {}",
        registered().join(", ")
    );
    if requested.iter().any(|r| r == "all") {
        return registered();
    }
    for spec in &requested {
        assert!(
            is_registered(spec),
            "unknown {what} {spec:?}; registered: {}",
            registered().join(", ")
        );
    }
    requested
}

/// Routing algorithms selected on the command line: `--routing a,b,c` (registry
/// names, validated against [`spectralfly_simnet::routing`]) with a fallback when
/// the flag is absent. `--routing all` selects every registered algorithm.
///
/// # Panics
/// If the list is malformed, or a requested name is not in the routing
/// registry (the message lists what is).
pub fn routing_names_from_args(default: &[&str]) -> Vec<String> {
    registry_list_from_args(
        "--routing",
        "routing algorithm",
        default,
        routing::registered_names,
        routing::is_registered,
    )
}

/// Traffic patterns selected on the command line: `--pattern a,b,c` (pattern
/// specs, validated against [`spectralfly_simnet::pattern`]) with a fallback
/// when the flag is absent. `--pattern all` selects every registered pattern.
/// Specs may carry arguments, e.g. `--pattern "hotspot(8,0.2),adversarial"`.
///
/// # Panics
/// If the list is malformed, or a requested spec's base name is not in the
/// pattern registry (the message lists what is).
pub fn pattern_names_from_args(default: &[&str]) -> Vec<String> {
    registry_list_from_args(
        "--pattern",
        "traffic pattern",
        default,
        pattern::registered_names,
        pattern::is_registered,
    )
}

/// The fault plan selected on the command line: `--faults <spec>` (a
/// [`FaultPlan`] spec like `links(0.1)` or `routers(4)+link(0,1)`; default
/// `none`) seeded by `--fault-seed <u64>` (default
/// [`FaultPlan::DEFAULT_SEED`]). Every simulation binary that accepts it
/// builds its networks through [`crate::SimTopology::faulted_network`], so the
/// same flag degrades every topology of a sweep with one seeded plan.
///
/// # Panics
/// If the spec does not parse (the message names the registered fault models).
pub fn faults_from_args() -> FaultPlan {
    let args: Vec<String> = std::env::args().collect();
    let spec = args
        .iter()
        .position(|a| a == "--faults")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("--faults requires a fault-plan spec, e.g. links(0.1)"))
                .clone()
        })
        .unwrap_or_else(|| "none".to_string());
    let plan = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("{e}"));
    plan.with_seed(arg_u64("--fault-seed", FaultPlan::DEFAULT_SEED))
}

/// The **runtime** fault script selected on the command line:
/// `--fault-script <spec>` (a [`FaultScript`] spec like
/// `at(5us, links(0.05)) + at(20us, heal(all))` or `churn(200khz, 8us)`;
/// default `none`) seeded by `--fault-seed <u64>` (default
/// [`FaultPlan::DEFAULT_SEED`], shared with `--faults` — the two axes are
/// independent draws, so reusing the seed flag is unambiguous). Where
/// `--faults` degrades the topology *before* the run, a fault script injects
/// failure/recovery events *during* it: packets are dropped and retransmitted,
/// and routing re-converges live.
///
/// # Panics
/// If the spec does not parse (the message points at the offending sub-spec).
pub fn fault_script_from_args() -> FaultScript {
    let spec = arg_str("--fault-script").unwrap_or_else(|| "none".to_string());
    let script = FaultScript::parse(&spec).unwrap_or_else(|e| panic!("{e}"));
    script.with_seed(arg_u64("--fault-seed", FaultPlan::DEFAULT_SEED))
}
