//! Regression-gate self-test: inject synthetic drift into baseline copies and
//! assert the gate fails each injection with the right diagnosis. A gate that
//! cannot catch a planted regression is worse than no gate — it certifies.

use spectralfly_exp::{compare, Baselines, Diagnosis, Manifest, RunOptions};
use spectralfly_exp::{runner, RunReport};

const MINI: &str = r#"
[manifest]
name = "gate-selftest"
description = "tiny manifest for gate injection tests"

[experiment.eq]
topologies = ["ring(5)x2"]
routings = ["minimal"]
shards = [1, 2]
seeds = [7, 9]
mode = "finite"
messages = 2
bytes = 512

[structure.shape]
topologies = ["ring(5)", "lps(3,5)"]
metrics = ["routers", "diameter", "mu1"]
"#;

fn fresh_run(m: &Manifest) -> RunReport {
    let opts = RunOptions {
        skip_external: true,
        ..Default::default()
    };
    runner::run_manifest(m, &opts).expect("mini manifest runs clean")
}

#[test]
fn gate_passes_clean_and_fails_each_injected_regression_with_the_right_diagnosis() {
    let m = Manifest::parse(MINI).unwrap();
    let report = fresh_run(&m);
    let golden = Baselines::from_report(&report);

    // Baselines survive their own serialisation — what `repro check` reads
    // back from disk is what `--record-baselines` wrote.
    let reloaded = Baselines::parse(&golden.to_toml()).expect("recorded baselines re-parse");
    assert_eq!(reloaded, golden);

    // Clean: a fresh run against its own baselines passes with no findings.
    let cmp = compare(&report, &golden);
    assert!(cmp.passed(), "clean compare failed: {:?}", cmp.findings);

    // Injection 1: perturb one results digest — the gate must name the exact
    // point and both digests.
    let mut drifted = golden.clone();
    let (victim_id, original) = drifted.results[0].clone();
    drifted.results[0].1 = "0000000000000000".to_string();
    let cmp = compare(&report, &drifted);
    assert!(!cmp.passed());
    assert_eq!(
        cmp.findings,
        vec![Diagnosis::ResultsDrift {
            id: victim_id.clone(),
            expected: "0000000000000000".to_string(),
            got: original,
        }]
    );

    // Injection 3: a baselined point the fresh run no longer produces — a
    // sweep silently losing coverage must fail, not shrink.
    let mut phantom = golden.clone();
    phantom.results.push((
        "eq/ring(99)x2/minimal/s=7".to_string(),
        "feedfacecafebeef".to_string(),
    ));
    let cmp = compare(&report, &phantom);
    assert_eq!(
        cmp.findings,
        vec![Diagnosis::MissingPoint {
            id: "eq/ring(99)x2/minimal/s=7".to_string()
        }]
    );

    // Injection 4: the fresh run grew a point the baseline never recorded —
    // new coverage must be adopted consciously via --record-baselines.
    let mut amnesiac = golden.clone();
    let dropped = amnesiac.results.pop().unwrap();
    let cmp = compare(&report, &amnesiac);
    assert_eq!(
        cmp.findings,
        vec![Diagnosis::UnbaselinedPoint { id: dropped.0 }]
    );

    // Injections 6 and 7: a structural row is a point like any other — a
    // corrupted digest is drift naming the `section/topology` row, a row the
    // fresh run no longer produces is a missing point.
    let row = golden
        .results
        .iter()
        .position(|(id, _)| id == "shape/lps(3,5)");
    let row = row.expect("structure rows are recorded beside the points");
    let mut drifted = golden.clone();
    drifted.results[row].1 = "0000000000000000".to_string();
    assert_eq!(
        compare(&report, &drifted).findings,
        vec![Diagnosis::ResultsDrift {
            id: "shape/lps(3,5)".to_string(),
            expected: "0000000000000000".to_string(),
            got: golden.results[row].1.clone(),
        }]
    );
    let mut shrunk = report.clone();
    shrunk.points.retain(|p| p.id != "shape/lps(3,5)");
    assert_eq!(
        compare(&shrunk, &golden).findings,
        vec![Diagnosis::MissingPoint {
            id: "shape/lps(3,5)".to_string()
        }]
    );

    // Injection 5: baselines recorded for a different manifest config hash
    // short-circuit to a single mismatch finding — no noise from the (now
    // meaningless) per-point diffs.
    let mut stale = golden.clone();
    stale.config_hash = "ffffffffffffffff".to_string();
    let cmp = compare(&report, &stale);
    assert_eq!(
        cmp.findings,
        vec![Diagnosis::ManifestMismatch {
            expected: "ffffffffffffffff".to_string(),
            got: m.config_hash(),
        }]
    );
}
