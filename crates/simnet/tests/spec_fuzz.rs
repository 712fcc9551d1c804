//! Deterministic fuzz battery for the spec grammar and the registries behind
//! it: random strings and every single-edit mutation of a corpus of valid
//! specs go through every string entry point, each of which must return `Ok`
//! or a typed error — never panic, never run past the per-case budget — with
//! grammar errors pointing at a char boundary of the input. Plus the
//! strictness table (malformed specs the per-registry parsers used to accept)
//! and the meaning-preservation table (what every checked-in spec string
//! parsed to before the registries shared one grammar).

mod common;

use common::{random_strings, single_edit_mutations, within_budget};
use proptest::prelude::*;
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::job::{resolve_mix, validate_mix_spec};
use spectralfly_simnet::spec::{self, SpecError};
use spectralfly_simnet::{
    pattern, FaultError, FaultPlan, FaultScript, JobBehavior, JobCtx, JobError, PatternCtx,
    PatternError,
};

/// Valid specs of every kind the registries accept.
const CORPUS: &[&str] = &[
    "random",
    "Bit_Shuffle",
    "hotspot(8, 0.2)",
    "adversarial(4)",
    "nearest-group(32)",
    "none",
    "links(0.05)",
    "links(0.1) + routers(2)",
    "link(0, 1)+router(3)",
    "at(5us, links(0.05)) + at(20us, heal(all))",
    "churn(10mhz, 2us)",
    "churn(2e5hz, 8us) + at(300ns, router(2))",
    "allreduce-ring(4096) x 16 + traffic(0.5, random, 4096) x 8 + traffic(0.9, adversarial(4), 4096) x 8",
    "allgather x 8 @ random + onoff(0.9, 1.4) x 4",
    "mmpp(0.2, 0.9, 2, 2, 4096) x8 @ group(4) + alltoall(512)",
    "halo3d(2, 8192) x 7 + sweep3d(2, 2048, 2) x 13 @ random + fft3d(1024) x 11",
    "fft3d(1024, 1, 4) x 8 @ random + halo3d x 1 + sweep3d x 1 + fft3d x 1",
];

fn ring9() -> CsrGraph {
    let edges: Vec<(u32, u32)> = (0..9u32).map(|i| (i, (i + 1) % 9)).collect();
    CsrGraph::from_edges(9, &edges)
}

/// Push `input` through every string entry point of the crate.
fn exercise(input: &str) {
    let located = |e: &SpecError| {
        assert_eq!(e.spec, input);
        assert!(input.is_char_boundary(e.offset), "{e}");
    };
    for parsed in [
        spec::parse(input).map(drop),
        spec::parse_call(input).map(drop),
        spec::parse_list(input).map(drop),
    ] {
        if let Err(e) = &parsed {
            located(e);
        }
    }
    if let Err(PatternError::BadSpec(e)) = pattern::create(input, &PatternCtx::new(64)) {
        located(&e);
    }
    match FaultPlan::parse(input) {
        Ok(plan) => drop(plan.apply(&ring9())),
        Err(FaultError::BadSpec(e)) => located(&e),
        Err(_) => {}
    }
    match FaultScript::parse(input) {
        Ok(script) => drop(script.expand(&ring9(), 1_000_000)),
        Err(FaultError::BadSpec(e)) => located(&e),
        Err(_) => {}
    }
    let available: Vec<usize> = (0..64).collect();
    for resolved in [
        validate_mix_spec(input),
        resolve_mix(input, &JobCtx::new(), &available, 7).map(drop),
    ] {
        if let Err(JobError::BadSpec(e)) = resolved {
            located(&e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_strings_yield_ok_or_typed_errors(seed in 0u64..u64::MAX) {
        within_budget(random_strings(seed, 64), exercise);
    }
}

#[test]
fn single_edit_mutations_yield_ok_or_typed_errors() {
    for valid in CORPUS {
        exercise(valid);
        within_budget(single_edit_mutations(valid), exercise);
    }
}

/// Each of these was accepted before the registries shared one strict parser.
#[test]
fn malformed_specs_are_rejected_with_an_offset() {
    let Err(PatternError::BadSpec(e)) =
        pattern::create("hotspot(8,,0.2)", &PatternCtx::new(64)).map(drop)
    else {
        panic!("hotspot(8,,0.2) must be a grammar error");
    };
    assert_eq!((e.offset, e.reason.as_str()), (10, "empty argument"));

    let Err(FaultError::BadSpec(e)) = FaultPlan::parse("links(,0.1)") else {
        panic!("links(,0.1) must be a grammar error");
    };
    assert_eq!((e.offset, e.reason.as_str()), (6, "empty argument"));

    let unbalanced = "traffic(0.5, (random, 4096) x 8 @ group(4)";
    let Err(JobError::BadSpec(e)) = validate_mix_spec(unbalanced) else {
        panic!("{unbalanced:?} must be a grammar error");
    };
    assert_eq!(e.offset, 13, "{e}");

    for (spec, offset) in [("tornado()", 8), ("random x 2", 7), ("random,", 6)] {
        let Err(PatternError::BadSpec(e)) = pattern::create(spec, &PatternCtx::new(64)).map(drop)
        else {
            panic!("{spec:?} must be a grammar error");
        };
        assert_eq!(e.offset, offset, "{e}");
    }
}

/// The Ember motifs size a process grid from whatever rank count the mix
/// hands them: a prime or a single rank degenerates (a line, nothing to
/// send), a zero count or a pencil grid that does not fit is `BadArgs` — at
/// validation when the spec alone says so, at resolution when it takes the
/// rank count — and nothing panics (the phased generators asserted).
#[test]
fn ember_motif_edge_cases_resolve_or_are_bad_args() {
    let messages =
        |mix: &str| -> Vec<String> { describe_mix(mix).into_iter().map(|t| t.4).collect() };
    assert_eq!(
        messages("halo3d(2, 64) x 7 + sweep3d(1, 64, 2) x 13 + fft3d(64) x 11"),
        ["24 msgs", "24 msgs", "110 msgs"],
        "prime rank counts are lines"
    );
    assert_eq!(
        messages("halo3d x 1 + sweep3d(3) x 1 + fft3d x 1 + fft3d(64, 2, 1) x 1 + fft3d x 2"),
        ["0 msgs", "0 msgs", "0 msgs", "0 msgs", "2 msgs"],
    );
    assert_eq!(
        messages("fft3d(64, 1, 4) x 4 + fft3d(64, 1, 4) x 8"),
        ["12 msgs", "32 msgs"]
    );
    for (spec, reason) in [
        ("halo3d(0)", "iterations must be a positive integer, got 0"),
        ("halo3d(1, 0)", "bytes must be a positive integer, got 0"),
        ("halo3d(1, 2, 3)", "takes at most 2 arguments, got 3"),
        ("sweep3d(0)", "KBA blocks must be a positive integer, got 0"),
        (
            "sweep3d(1, 64, 0.5)",
            "sweeps must be a positive integer, got 0.5",
        ),
        (
            "fft3d(64, 0)",
            "iterations must be a positive integer, got 0",
        ),
        ("fft3d(64, 1, 0)", "rows must be a positive integer, got 0"),
        ("fft3d(64, 1, random)", "argument 3 is not a number"),
    ] {
        let name = &spec[..spec.find('(').unwrap()];
        let expected = format!("invalid arguments for job {name:?}: {reason}");
        assert_eq!(validate_mix_spec(spec).unwrap_err().to_string(), expected);
    }
    let available: Vec<usize> = (0..64).collect();
    // An iteration count is as large as the spec says; the schedule is not.
    let endless = "sweep3d(4096, 64, 4096) x 64";
    let Err(e) = resolve_mix(endless, &JobCtx::new(), &available, 7).map(drop) else {
        panic!("{endless} must not resolve");
    };
    let reason = "64 ranks x 4096 x 4096 x 14 rounds is past the 2^24 (rank, round) groups";
    assert!(e.to_string().contains(reason), "{e}");
    for (mix, rows, ranks) in [("fft3d(64, 1, 3) x 8", 3, 8), ("fft3d(64, 1, 4) x 2", 4, 2)] {
        assert!(
            validate_mix_spec(mix).is_ok(),
            "{mix}: the spec alone is fine"
        );
        let Err(e) = resolve_mix(mix, &JobCtx::new(), &available, 7).map(drop) else {
            panic!("{mix} must not resolve");
        };
        let reason = format!("{rows} rows do not divide the tenant's {ranks} ranks");
        assert_eq!(
            e.to_string(),
            format!("invalid arguments for job \"fft3d\": {reason}")
        );
    }
}

/// What a fault plan, a fault script (expanded on `ring(9)` over 100 µs) and
/// a job mix (resolved over 8736 endpoints) mean, at seed 1025 / 23501.
fn describe_fault(s: &str) -> String {
    let plan = FaultPlan::parse(s).unwrap().with_seed(1025);
    format!("{} | {}", plan.spec(), plan.cache_key())
}

fn describe_script(s: &str) -> String {
    let script = FaultScript::parse(s).unwrap().with_seed(1025);
    let tl = script.expand(&ring9(), 100_000_000).unwrap();
    let sum = tl
        .events
        .iter()
        .fold(0u64, |a, e| a.wrapping_add(e.time_ps));
    format!("{} | {} events, time sum {sum}", script.spec(), tl.len())
}

/// Per tenant: name, job spec, first endpoint, rank count, behaviour.
fn describe_mix(s: &str) -> Vec<(String, String, usize, usize, String)> {
    let available: Vec<usize> = (0..8736).collect();
    let plan = resolve_mix(s, &JobCtx::new(), &available, 23501).unwrap();
    let tenant = |t: &spectralfly_simnet::job::ResolvedTenant| {
        let what = match &t.behavior {
            JobBehavior::Collective(c) => format!("{} msgs", c.total_messages),
            JobBehavior::OpenLoop(o) => {
                let load = o.rate.stationary_load();
                format!("{} B at {load} via {}", o.bytes, o.pattern.name())
            }
        };
        let (name, job) = (t.name.clone(), t.job.clone());
        (name, job, t.endpoints[0], t.endpoints.len(), what)
    };
    plan.tenants.iter().map(tenant).collect()
}

/// Every pattern, fault, fault-script and job-mix string in `manifests/*.toml`,
/// `benchmark/workloads/*.toml` and `benchmark/src/workloads.rs` (`churn_mix`,
/// `CHURN_SCRIPT`), with what it meant at the commit before this grammar —
/// recorded there through the same public calls. (The topology strings are
/// pinned in `crates/exp/tests/spec_fuzz.rs`.)
#[test]
fn checked_in_specs_keep_their_meaning() {
    for (spec, name, args) in [
        ("random", "random", vec![]),
        ("adversarial(4)", "adversarial", vec![4.0]),
        ("adversarial(32)", "adversarial", vec![32.0]),
    ] {
        let call = spec::parse_call(spec).unwrap();
        assert_eq!(
            (call.key(), call.numbers().unwrap()),
            (name.to_string(), args)
        );
    }
    assert_eq!(describe_fault("none"), "none | none");
    for fraction in ["0.01", "0.02", "0.05", "0.1", "0.2"] {
        let spec = format!("links({fraction})");
        assert_eq!(describe_fault(&spec), format!("{spec} | {spec}#0x401"));
    }
    for (spec, events, time_sum) in [
        ("churn(10mhz, 2us)", 2074, 105675592435u64),
        ("churn(1mhz, 5us)", 198, 10450301667),
        ("churn(1mhz, 10us)", 193, 10420592540),
    ] {
        let meaning = format!("{spec} | {events} events, time sum {time_sum}");
        assert_eq!(describe_script(spec), meaning);
    }

    const RING: &str = "allreduce-ring(4096)";
    const VICTIM: &str = "traffic(0.5, random, 4096)";
    const HOSTILE_4: &str = "traffic(0.9, adversarial(4), 4096)";
    const HOSTILE_8: &str = "traffic(0.9, adversarial(8), 4096)";
    const MMPP: &str = "mmpp(0.2, 0.9, 2, 2, 4096)";
    let victim = "4096 B at 0.5 via random";
    let hostile = "4096 B at 0.9 via adversarial";
    let bursty = "4096 B at 0.55 via random";
    let ring16 = ("t0:allreduce-ring", RING, 0, 16, "480 msgs");
    let ring64 = ("t0:allreduce-ring", RING, 0, 64, "8064 msgs");
    let victim64 = ("t1:traffic", VICTIM, 16, 64, victim);
    let victim2048 = ("t1:traffic", VICTIM, 64, 2048, victim);
    let hostile4096 = ("t2:traffic", HOSTILE_8, 2112, 4096, hostile);
    for (mix, tenants) in [
        // manifests/smoke.toml
        (
            format!("{RING} x 16 + {VICTIM} x 64 + {HOSTILE_4} x 64"),
            vec![ring16, victim64, ("t2:traffic", HOSTILE_4, 80, 64, hostile)],
        ),
        // manifests/interference.toml
        (
            format!("{RING} x 64 + {VICTIM} x 2048"),
            vec![ring64, victim2048],
        ),
        (
            format!("{RING} x 64 + {VICTIM} x 2048 + {HOSTILE_8} x 4096"),
            vec![ring64, victim2048, hostile4096],
        ),
        // benchmark/src/workloads.rs: churn_mix at full and smoke scale
        (
            format!("{RING} x 64 + {VICTIM} x 2048 + {HOSTILE_8} x 4096 + {MMPP} x 1024"),
            vec![
                ring64,
                victim2048,
                hostile4096,
                ("t3:mmpp", MMPP, 6208, 1024, bursty),
            ],
        ),
        (
            format!("{RING} x 16 + {VICTIM} x 64 + {HOSTILE_4} x 128 + {MMPP} x 64"),
            vec![
                ring16,
                victim64,
                ("t2:traffic", HOSTILE_4, 80, 128, hostile),
                ("t3:mmpp", MMPP, 208, 64, bursty),
            ],
        ),
    ] {
        let expected: Vec<_> = tenants
            .into_iter()
            .map(|(n, j, first, ranks, what)| (n.into(), j.into(), first, ranks, what.into()))
            .collect();
        assert_eq!(describe_mix(&mix), expected, "{mix}");
    }

    // The Ember sections (Figs. 9–10) of manifests/paper.toml, paper-full.toml
    // and smoke.toml: one randomly placed motif per mix, pinned here when the
    // motifs became jobs — the message totals are those of the phased
    // generators they replaced.
    for (job, tenant, ranks, messages) in [
        ("halo3d(2, 8192)", "t0:halo3d", 512, 20_272),
        ("sweep3d(2, 2048, 2)", "t0:sweep3d", 484, 3_696),
        ("fft3d(1024)", "t0:fft3d", 512, 23_552),
        ("fft3d(1024, 1, 4)", "t0:fft3d", 512, 66_560),
        ("halo3d(2, 8192)", "t0:halo3d", 8192, 381_424),
        ("sweep3d(2, 2048, 2)", "t0:sweep3d", 8100, 64_080),
        ("fft3d(1024)", "t0:fft3d", 8192, 1_556_480),
        ("halo3d(2, 8192)", "t0:halo3d", 64, 1_872),
        ("sweep3d(2, 2048, 2)", "t0:sweep3d", 64, 448),
        ("fft3d(1024)", "t0:fft3d", 64, 896),
        ("fft3d(1024, 1, 4)", "t0:fft3d", 64, 1_152),
    ] {
        let mix = format!("{job} x {ranks} @ random");
        let what = format!("{messages} msgs");
        // 3897: the first draw of the placement stream at this seed.
        let expected = vec![(tenant.to_string(), job.to_string(), 3897, ranks, what)];
        assert_eq!(describe_mix(&mix), expected, "{mix}");
    }
}
