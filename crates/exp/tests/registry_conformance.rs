//! Cross-family conformance for the one registry: the five families of names
//! (routing, pattern, fault, job, topology) list exactly the entries, resolve
//! exactly the aliases, and render exactly the unknown-name and bad-argument
//! errors they did before they shared `spec::Registry`, `spec::ResolveError`
//! and `spec::ArgReader`. Every expected string below was printed by the
//! commit before that change — except the three Ember motifs (`halo3d`,
//! `sweep3d`, `fft3d`), which joined the job family later and are pinned here
//! as they were registered.

use spectralfly_exp::TopoSpec;
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::job::validate_mix_spec;
use spectralfly_simnet::{
    fault, job, pattern, routing, FaultPlan, FaultScript, JobCtx, PatternCtx, SimConfig,
    SimNetwork, Simulator, Workload,
};

fn ring5() -> CsrGraph {
    let edges: Vec<(u32, u32)> = (0..5u32).map(|i| (i, (i + 1) % 5)).collect();
    CsrGraph::from_edges(5, &edges)
}

#[test]
fn builtin_name_lists_are_unchanged() {
    for (names, expected) in [
        (routing::BUILTINS.names(), "minimal ugal-g ugal-l valiant"),
        (
            pattern::BUILTINS.names(),
            "adversarial bit-complement bit-reverse bit-shuffle hotspot nearest-group random \
             tornado transpose",
        ),
        (fault::BUILTINS.names(), "link links router routers"),
        (
            job::BUILTINS.names(),
            "allgather allreduce-ring allreduce-tree alltoall fft3d halo3d mmpp onoff sweep3d \
             traffic",
        ),
    ] {
        assert_eq!(names.join(" "), expected);
    }
    // The topology families are listed by their unknown-family error, below.
}

#[test]
fn builtin_aliases_select_their_primaries() {
    assert_eq!(routing::resolve("UGAL").unwrap().name(), "ugal-l");
    let ctx = PatternCtx::new(64);
    for (alias, primary) in [
        ("uniform", "random"),
        ("shuffle", "bit-shuffle"),
        ("reverse", "bit-reverse"),
        ("complement", "bit-complement"),
    ] {
        assert_eq!(pattern::create(alias, &ctx).unwrap().name(), primary);
    }
    for (alias, primary) in [
        ("all-reduce-ring", "allreduce-ring"),
        ("All Reduce Tree(512)", "allreduce-tree"),
        ("all_to_all", "alltoall"),
        ("all-gather", "allgather"),
    ] {
        let plan = job::resolve_mix(alias, &JobCtx::new(), &[0, 1, 2, 3], 1).unwrap();
        assert_eq!(plan.tenants[0].name, format!("t0:{primary}"));
    }
}

#[test]
fn unknown_names_render_as_before() {
    let net = SimNetwork::new(ring5(), 1);
    let cfg = SimConfig {
        routing: "warp-speed".to_string(),
        ..SimConfig::default()
    };
    let wl = Workload::uniform_random(5, 1, 64, 1);
    let routing = Simulator::new(&net, &cfg).try_run(&wl).unwrap_err();
    let pattern = pattern::create("Warp_Speed(1)", &PatternCtx::new(64))
        .map(drop)
        .unwrap_err();
    let fault = FaultPlan::parse("Meteor_Strike(3)").unwrap_err();
    let job = validate_mix_spec("Warp_Drive(3)").unwrap_err();
    let topology = TopoSpec::parse("torus(4,4)").unwrap_err();
    assert_eq!(
        [
            routing.to_string(),
            pattern.to_string(),
            fault.to_string(),
            job.to_string(),
            topology
        ],
        [
            "unknown routing algorithm \"warp-speed\"; registered: minimal, ugal-g, ugal-l, valiant",
            "unknown traffic pattern \"warp-speed\"; registered: adversarial, bit-complement, \
             bit-reverse, bit-shuffle, hotspot, nearest-group, random, tornado, transpose",
            "unknown fault model \"meteor-strike\"; registered: link, links, router, routers",
            "unknown job \"warp-drive\"; registered: allgather, allreduce-ring, allreduce-tree, \
             alltoall, fft3d, halo3d, mmpp, onoff, sweep3d, traffic",
            "unknown topology family \"torus\"; known: lps(p,q), slimfly(q), bundlefly(p,s), \
             dragonfly(a|a,h,g), ring(n)",
        ]
    );
}

/// `how | spec | error`, one rejected spec a line. `how` says what is asked to
/// take the spec: `pattern::create` over 64 endpoints, `FaultPlan::parse`,
/// that plan's `apply` on a 5-ring, `FaultScript::parse`, `validate_mix_spec`,
/// `resolve_mix` over 64 endpoints, `TopoSpec::parse`, or that spec's `build`.
const BAD_ARGUMENTS: &str = r#"
pattern | tornado(3) | invalid arguments for pattern "tornado": takes no arguments, got 1
pattern | hotspot(0) | invalid arguments for pattern "hotspot": argument 1 must be a positive integer, got 0
pattern | hotspot(4, 1.5) | invalid arguments for pattern "hotspot": fraction must be in (0, 1], got 1.5
pattern | hotspot(1,2,3) | invalid arguments for pattern "hotspot": takes at most two arguments (count, fraction), got 3
pattern | adversarial(65) | invalid arguments for pattern "adversarial": group size 65 exceeds the 64 endpoints
pattern | adversarial(2.5) | invalid arguments for pattern "adversarial": argument 1 must be a positive integer, got 2.5
pattern | nearest-group(1,2) | invalid arguments for pattern "nearest-group": takes at most one argument (group size), got 2
plan | links(1.5) | invalid arguments for fault model "links": fraction must be in [0, 1], got 1.5
plan | links | invalid arguments for fault model "links": takes exactly 1 argument(s), got 0
plan | links(0.1, 2) | invalid arguments for fault model "links": takes exactly 1 argument(s), got 2
plan | link(1) | invalid arguments for fault model "link": takes exactly 2 argument(s), got 1
plan | router(-1) | invalid arguments for fault model "router": argument 1 must be a non-negative integer id, got -1
plan | link(0, 4294967296) | invalid arguments for fault model "link": argument 2 must be a non-negative integer id, got 4294967296
plan | routers(2.5) | invalid arguments for fault model "routers": count must be a non-negative integer, got 2.5
apply | routers(9) | invalid arguments for fault model "routers": cannot fail 9 of 5 routers
apply | router(7) | invalid arguments for fault model "router": router 7 out of range for 5 routers
script | churn(1e300ghz, 1ps) | invalid arguments for fault model "churn": rate must be positive and at most 1e12 Hz (a mean gap of 1 ps), got inf Hz
script | at(1e30s, links(0.1)) | invalid arguments for fault model "at": time must be non-negative and fit u64 picoseconds, got 1000000000000000000000000000000000000000000 ps
mix | traffic(1.5) | invalid arguments for job "traffic": load must be in (0, 1], got 1.5
mix | traffic | invalid arguments for job "traffic": load must be in (0, 1], got NaN
mix | traffic(0.5, 3) | invalid arguments for job "traffic": argument 2 must be a pattern spec, not a number
mix | traffic(0.5, random, 0) | invalid arguments for job "traffic": bytes must be a positive integer, got 0
mix | traffic(0.5, random, 4096, 1) | invalid arguments for job "traffic": takes at most 3 arguments, got 4
mix | mmpp(0.5, 1.5) | invalid arguments for job "mmpp": state-1 load must be in [0, 1], got 1.5
mix | mmpp(random) | invalid arguments for job "mmpp": argument 1 is not a number
mix | onoff(0.5, 0.9) | invalid arguments for job "onoff": Pareto shape alpha must be > 1, got 0.9
mix | onoff(0.5, 2, 0) | invalid arguments for job "onoff": duration (µs) must be positive, got 0
mix | allreduce-ring(0) | invalid arguments for job "allreduce-ring": bytes must be a positive integer, got 0
mix | alltoall(1, 2) | invalid arguments for job "alltoall": takes at most 1 arguments, got 2
mix | halo3d(0) | invalid arguments for job "halo3d": iterations must be a positive integer, got 0
mix | halo3d(1, 2, 3) | invalid arguments for job "halo3d": takes at most 2 arguments, got 3
mix | sweep3d(0.5) | invalid arguments for job "sweep3d": KBA blocks must be a positive integer, got 0.5
mix | sweep3d(2, 2048, 0) | invalid arguments for job "sweep3d": sweeps must be a positive integer, got 0
mix | fft3d(0) | invalid arguments for job "fft3d": bytes must be a positive integer, got 0
mix | fft3d(1024, 1, 2.5) | invalid arguments for job "fft3d": rows must be a positive integer, got 2.5
mix | fft3d(1, 2, 3, 4) | invalid arguments for job "fft3d": takes at most 3 arguments, got 4
resolve | fft3d(1024, 1, 3) x 8 | invalid arguments for job "fft3d": 3 rows do not divide the tenant's 8 ranks
resolve | fft3d(1024, 1, 4) x 2 | invalid arguments for job "fft3d": 4 rows do not divide the tenant's 2 ranks
resolve | halo3d(4194304) x 8 | invalid arguments for job "halo3d": 8 ranks x 4194304 rounds is past the 2^24 (rank, round) groups a schedule may hold
mix | traffic(0.5) x 0 | invalid arguments for job "mix": rank count must be a positive integer, got 0
mix | traffic(0.5) @ group(0) | invalid arguments for job "group": group size must be a positive integer, got 0
mix | traffic(0.5) @ random(1) | invalid arguments for job "random": contiguous and random take no argument, group at most one
topology | lps(11) | wrong argument count for lps: got 1
topology | dragonfly(1,2) | wrong argument count for dragonfly: got 2
build | lps(4,6) | lps(4,6)x1: invalid parameter: LPS requires p to be an odd prime, got 4
build | ring(2) | ring(2)x1: a ring needs at least 3 routers
"#;

#[test]
fn bad_arguments_render_as_before() {
    for line in BAD_ARGUMENTS.trim().lines() {
        let [how, spec, expected] = line.split(" | ").collect::<Vec<_>>()[..] else {
            panic!("malformed row {line:?}");
        };
        let rejected = match how {
            "pattern" => pattern::create(spec, &PatternCtx::new(64))
                .map(drop)
                .map_err(|e| e.to_string()),
            "plan" => FaultPlan::parse(spec).map(drop).map_err(|e| e.to_string()),
            "apply" => (FaultPlan::parse(spec).unwrap().apply(&ring5()).map(drop))
                .map_err(|e| e.to_string()),
            "script" => FaultScript::parse(spec)
                .map(drop)
                .map_err(|e| e.to_string()),
            "mix" => validate_mix_spec(spec).map_err(|e| e.to_string()),
            "resolve" => {
                let available: Vec<usize> = (0..64).collect();
                let plan = job::resolve_mix(spec, &JobCtx::new(), &available, 7);
                plan.map(drop).map_err(|e| e.to_string())
            }
            "topology" => TopoSpec::parse(spec).map(drop),
            "build" => TopoSpec::parse(spec).unwrap().build().map(drop),
            other => panic!("unknown row kind {other:?}"),
        };
        assert_eq!(rejected.unwrap_err(), expected, "{how} {spec}");
    }
    let no_endpoints = pattern::create("random", &PatternCtx::new(0)).map(drop);
    assert_eq!(
        no_endpoints.unwrap_err().to_string(),
        "invalid arguments for pattern \"random\": pattern context has zero endpoints"
    );
}
