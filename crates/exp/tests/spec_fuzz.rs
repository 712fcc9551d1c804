//! The exp half of the spec fuzz battery (see `crates/simnet/tests/spec_fuzz.rs`):
//! `TopoSpec::parse`, `Manifest::parse` and `Baselines::parse` return `Ok` or
//! a typed error on random strings and on every single-edit mutation of valid
//! input — never a panic, never past the per-case budget — plus the topology
//! rows of the strictness and meaning-preservation tables.

#[path = "../../simnet/tests/common/mod.rs"]
mod common;

use common::{random_strings, single_edit_mutations, within_budget};
use proptest::prelude::*;
use spectralfly_exp::{Baselines, Manifest, TopoSpec};

/// The checked-in smoke baselines, whose quoted keys hold `/`, `=`, `,`, `(`
/// and spaces.
const BASELINES: &str = include_str!("../../../manifests/baselines/smoke.toml");

/// A manifest exercising every spec-valued axis.
const MANIFEST: &str = r#"[manifest]
name = "fuzz"
[experiment.e]
topologies = ["lps(11,7)x4", "ring(9)x2"]
routings = ["ugal-l"]
jobs = ["allgather x 8 @ random + traffic(0.9, adversarial(4), 4096) x 8", "halo3d(2, 8192) x 7 @ random + sweep3d(2, 2048, 2) x 1 + fft3d(1024, 1, 4) x 8", "fft3d(1024) x 11"]
faults = ["links(0.1) + routers(2)"]
fault_scripts = ["at(5us, links(0.05)) + churn(10mhz, 2us)"]
mode = "steady"
[experiment.p]
topologies = ["ring(5)x2"]
routings = ["minimal"]
patterns = ["hotspot(8, 0.2)"]
mode = "steady"
[structure.listed]
topologies = ["slimfly(5)", "dragonfly(4,2,5)"]
metrics = ["diameter", "bisection-upper"]
link_failures = [0.0, 0.25]
seed = 0xFA11
[structure.enumerated]
enumerate = ["lps(30)", "bundlefly(30,6)"]
max_routers = 4000
metrics = ["radix", "routers", "mu1"]
"#;

fn parse_topology(input: &str) {
    let _ = TopoSpec::parse(input);
}

fn parse_manifest(input: &str) {
    let _ = Manifest::parse(input);
}

fn parse_baselines(input: &str) {
    let _ = Baselines::parse(input);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_strings_yield_ok_or_typed_errors(seed in 0u64..u64::MAX) {
        within_budget(random_strings(seed, 64), parse_topology);
        // As a whole document, and as an axis value of a well-formed one.
        let mut documents = random_strings(seed, 16);
        for value in random_strings(seed ^ 1, 16) {
            let quoted: String = value.chars().filter(|c| !matches!(c, '"' | '\\')).collect();
            documents.push(MANIFEST.replace("lps(11,7)x4", &quoted));
            documents.push(MANIFEST.replace("links(0.1) + routers(2)", &quoted));
            documents.push(MANIFEST.replace("slimfly(5)", &quoted));
            documents.push(MANIFEST.replace("bundlefly(30,6)", &quoted));
            documents.push(MANIFEST.replace("bisection-upper", &quoted));
        }
        within_budget(documents, parse_manifest);
        within_budget(random_strings(seed, 64), parse_baselines);
    }
}

#[test]
fn single_edit_mutations_yield_ok_or_typed_errors() {
    for valid in [
        "lps(11,7)x4",
        "LPS(11, 7) x 4",
        "ring(9)",
        "dragonfly(8,4,21)x4",
    ] {
        TopoSpec::parse(valid).unwrap();
        within_budget(single_edit_mutations(valid), parse_topology);
    }
    for valid in ["lps(30)", "bundlefly(30, 6)"] {
        TopoSpec::enumerate(valid).unwrap();
        within_budget(single_edit_mutations(valid), |input| {
            let _ = TopoSpec::enumerate(input);
        });
    }
    Manifest::parse(MANIFEST).unwrap();
    within_budget(single_edit_mutations(MANIFEST), parse_manifest);
    Baselines::parse(BASELINES).unwrap();
    within_budget(single_edit_mutations(BASELINES), parse_baselines);
}

/// Window lengths whose picosecond values (or whose warmup + measure + drain
/// sum) wrap `u64` used to parse, and then abort `run_manifest` inside
/// `MeasurementWindows::new` — "measurement window must be non-empty" from a
/// product wrapped to 0 in release builds, an overflow panic in debug builds.
#[test]
fn window_lengths_that_overflow_picoseconds_are_rejected() {
    for (key, value, field) in [
        ("measure_ns", "2305843009213693952", "measure_ns"),
        ("measure_ns", "18446744073709551615", "measure_ns"),
        ("warmup_ns", "18446744073709551615", "warmup_ns"),
        ("warmup_ns", "18446744073709551", "warmup_ns"),
        ("measure_ns", "9223372036854775", "measure_ns"),
    ] {
        let err = Manifest::parse(&MANIFEST.replace(
            "mode = \"steady\"\n",
            &format!("mode = \"steady\"\n{key} = {value}\n"),
        ))
        .unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("[experiment.e] {field}:")),
            "{key} = {value}: {err}"
        );
    }
    // Windows just under the limit still parse.
    let fits = "mode = \"steady\"\nwarmup_ns = 0\nmeasure_ns = 9007199254740991\n";
    Manifest::parse(&MANIFEST.replace("mode = \"steady\"\n", fits)).unwrap();
}

/// Each of these used to parse — as `lps(11,7)x4`, `ring(9)x3`, … — with the
/// junk silently dropped.
#[test]
fn malformed_topologies_are_rejected_with_an_offset() {
    for (spec, offset) in [
        ("lps(11,7)garbage x4", 9),
        ("ring(9)x2x3", 7),
        ("lps(11,7)(x4", 9),
        ("lps(11,,7)x4", 7),
        ("lps(11,7)x4 @ random", 14),
    ] {
        let reason = TopoSpec::parse(spec).unwrap_err();
        assert!(
            reason.contains(&format!("(at byte {offset})")),
            "{spec}: {reason}"
        );
        // … and a manifest names the axis the bad spec sits on.
        let err = Manifest::parse(&MANIFEST.replace("ring(9)x2", spec)).unwrap_err();
        assert!(
            err.to_string().contains("[experiment.e] topologies"),
            "{err}"
        );
    }
    assert!(TopoSpec::parse("lps(11,7)x4 + ring(9)").is_err());
}

/// Each of these used to parse, and then abort or hang the process from inside
/// `TopoSpec::build` or `run_manifest`: `ring(4294967296)` truncated to an
/// empty ring over 2³² vertices (a 96 GiB allocation), a concentration of
/// `u64::MAX` wrapped the endpoint count, and the other four never came back
/// from their constructors. The last three sat inside the router ceiling:
/// `dragonfly(4095)` is 16.8 M routers and 3.4·10¹⁰ links, allocated until the
/// process aborted; `dragonfly(2,18446744073709551615,2)` overflowed `a·h` in
/// `GeneralizedDragonFly::new` (a panic in debug builds, a wrapped count in
/// release); `lps(18446744073709551615,7)` is 168 routers of radix 2⁶⁴.
///
/// No spec reaches `SimNetwork::new`'s 65,536-port assert either. Every
/// family is regular or near-regular, so a router of degree d > 65,536
/// needs more than d²/2 ≈ 2.1·10⁹ links, far past the 2²⁷ the guard allows.
/// The two `…65537…` specs are the smallest DragonFlys with such a router
/// (degree 65,537): `dragonfly(2,65536,65537)` has 131,074 routers and
/// 4.3·10⁹ links, `dragonfly(65537)` 4.3·10⁹ routers.
#[test]
fn oversized_topologies_are_rejected_before_anything_is_built() {
    for spec in [
        "ring(4294967296)",
        "lps(11,7)x18446744073709551615",
        "lps(3000017,3000029)",
        "slimfly(4294967311)",
        "dragonfly(4294967296)",
        "dragonfly(8,4,4294967296)",
        "dragonfly(4095)",
        "dragonfly(2,18446744073709551615,2)",
        "lps(18446744073709551615,7)",
        "dragonfly(2,65536,65537)x1",
        "dragonfly(65537)x1",
    ] {
        let reason = TopoSpec::parse(spec).unwrap_err();
        assert!(reason.contains("is too large"), "{spec}: {reason}");
        let err = Manifest::parse(&MANIFEST.replace("ring(9)x2", spec)).unwrap_err();
        assert!(
            err.to_string().contains("[experiment.e] topologies"),
            "{err}"
        );
    }
    // The largest fabric the repository runs is well inside the ceiling.
    TopoSpec::parse("lps(5,103)x8").unwrap();
    // The constructor checks its own arithmetic too, whoever calls it.
    let unchecked = spectralfly_topology::GeneralizedDragonFly::new(2, u64::MAX, 2);
    assert!(unchecked.unwrap_err().to_string().contains("is too large"));
    // A [structure.*] section is a second door for the same strings.
    for spec in ["dragonfly(4095)", "dragonfly(2,18446744073709551615,2)"] {
        let err = Manifest::parse(&MANIFEST.replace("slimfly(5)", spec)).unwrap_err();
        assert!(
            err.to_string().contains("[structure.listed] topologies")
                && err.to_string().contains("is too large"),
            "{err}"
        );
    }
}

/// Every topology string in `manifests/*.toml`, `benchmark/workloads/*.toml`
/// and `benchmark/src/workloads.rs` when the shared grammar landed, with the
/// `TopoSpec` it parsed to at the commit before.
#[test]
fn checked_in_topologies_keep_their_meaning() {
    for (spec, family, args, concentration) in [
        ("ring(5)x2", "ring", &[5u64][..], 2),
        ("ring(9)x2", "ring", &[9], 2),
        ("lps(11,7)x4", "lps", &[11, 7], 4),
        ("lps(23,13)x8", "lps", &[23, 13], 8),
        ("slimfly(9)x4", "slimfly", &[9], 4),
        ("slimfly(27)x8", "slimfly", &[27], 8),
        ("bundlefly(13,3)x3", "bundlefly", &[13, 3], 3),
        ("bundlefly(9,9)x6", "bundlefly", &[9, 9], 6),
        ("dragonfly(8,4,21)x4", "dragonfly", &[8, 4, 21], 4),
        ("dragonfly(16,8,69)x8", "dragonfly", &[16, 8, 69], 8),
        // [structure.*] rows: router graphs, spelled without a concentration.
        ("lps(11,7)", "lps", &[11, 7], 1),
        ("lps(89,19)", "lps", &[89, 19], 1),
        ("slimfly(59)", "slimfly", &[59], 1),
        ("bundlefly(157,5)", "bundlefly", &[157, 5], 1),
        ("dragonfly(85)", "dragonfly", &[85], 1),
    ] {
        let parsed = TopoSpec::parse(spec).unwrap();
        assert_eq!(
            (
                parsed.family.as_str(),
                &parsed.args[..],
                parsed.concentration
            ),
            (family, args, concentration)
        );
        let spelled = if spec.contains('x') {
            parsed.canonical()
        } else {
            parsed.graph_name()
        };
        assert_eq!(spelled, spec);
    }
    // Every enumeration in `manifests/*.toml`, with the number of members the
    // flag-driven binaries it replaced listed at the same limits.
    for (spec, members, first, last) in [
        ("lps(300)", 3247, "lps(3,5)", "lps(293,283)"),
        ("lps(100)", 454, "lps(3,5)", "lps(97,89)"),
        ("lps(24)", 39, "lps(3,5)", "lps(23,19)"),
        ("slimfly(100)", 34, "slimfly(3)", "slimfly(97)"),
        (
            "bundlefly(100,16)",
            120,
            "bundlefly(5,3)",
            "bundlefly(97,13)",
        ),
        ("dragonfly(100)", 98, "dragonfly(2)", "dragonfly(99)"),
    ] {
        let rows = TopoSpec::enumerate(spec).unwrap();
        assert_eq!(rows.len(), members, "{spec}");
        assert_eq!(rows[0].0.graph_name(), first, "{spec}");
        assert_eq!(rows[members - 1].0.graph_name(), last, "{spec}");
    }
}
