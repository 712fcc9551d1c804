//! Drives the built benchmark at `--smoke` scale — every workload, probe and
//! check, in seconds — and holds its result line to `../BENCHMARK.json`.

#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::process::{Command, Output};

fn bench(workload: &str, seed: &str, trace: &str, plant_failure: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spectralfly-benchmark"));
    cmd.args(["--smoke", "--seconds", "0", "--workload", workload])
        .args(["--seed", seed, "--trace", trace])
        .args(["--trace-dir", env!("CARGO_TARGET_TMPDIR")]);
    if plant_failure {
        cmd.env("SPECTRALFLY_BENCH_PLANT_FAILURE", "1");
    }
    cmd.output().expect("the benchmark binary starts")
}

/// The result: the last line of standard output, one JSON object.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark printed a result");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

fn spec() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON")
}

fn workloads(spec: &Json) -> Vec<String> {
    listed(spec, "workloads", "why")
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

/// `(name, <second>)` of every entry of the list `key`.
fn listed(spec: &Json, key: &str, second: &str) -> Vec<(String, String)> {
    let field = |e: &Json, k| e.get(k).and_then(Json::str).expect("a string").to_string();
    spec.get(key)
        .expect(key)
        .items()
        .iter()
        .map(|e| (field(e, "name"), field(e, second)))
        .collect()
}

#[test]
fn every_workload_reports_every_metric_at_two_seeds() {
    let spec = spec();
    for workload in &workloads(&spec) {
        let mut digests = Vec::new();
        for (seed, trace, key) in [
            ("3606", "0", "end_to_end"),
            ("3606", "1", "per_layer"),
            ("7", "0", "end_to_end"),
        ] {
            let out = bench(workload, seed, trace, false);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} seed {seed} trace {trace}: {stderr}"
            );
            let r = result(&out);
            assert_eq!(r.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
            assert!(r.get("attempted").and_then(Json::num).expect("attempted") >= 1.0);
            assert_eq!(r.get("failed").and_then(Json::num), Some(0.0));

            let metrics = r.get("metrics").expect("metrics");
            let want = listed(&spec, key, "unit");
            let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(metrics.keys(), names, "{workload} trace {trace}");
            for (name, unit) in &want {
                let m = metrics.get(name).expect("listed");
                assert_eq!(m.keys(), ["value", "unit"]);
                assert_eq!(m.get("unit").and_then(Json::str), Some(unit.as_str()));
                let value = m.get("value").and_then(Json::num).expect("a number");
                assert!(
                    value.is_finite() && value >= 0.0,
                    "{workload} {name} = {value}"
                );
                // End-to-end metrics are never 0; nor is any probe (the rows
                // from `graph.oracle.build_landmark_s` on, bar the tracer's).
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload} {name} is 0");
                }
            }
            if trace == "1" {
                let probes = names
                    .iter()
                    .skip_while(|n| **n != "graph.oracle.build_landmark_s");
                for name in probes {
                    let value = metrics
                        .get(name)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::num);
                    assert!(value > Some(0.0), "{workload} probe {name} is 0");
                }
                let file = format!(
                    "{}/trace-{workload}-seed{seed}.jsonl",
                    env!("CARGO_TARGET_TMPDIR")
                );
                let spans = std::fs::read_to_string(&file).expect("the trace was written");
                assert!(spans.lines().all(|l| Json::parse(l).is_ok()), "{file}");
                assert!(spans.lines().any(|l| l.contains("\"name\":\"run\"")));
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            let digest = stdout
                .lines()
                .find_map(|l| l.split("result_digest ").nth(1))
                .expect("a digest line")
                .to_string();
            digests.push((seed, digest));
        }
        // Simulated statistics are a function of the seed alone.
        assert_eq!(
            digests[0].1, digests[1].1,
            "{workload}: traced run changed the digest"
        );
        assert_ne!(
            digests[0].1, digests[2].1,
            "{workload}: the seed does not reach the inputs"
        );
    }
}

/// A failed check fails the operation, the result and the exit code.
#[test]
fn a_planted_failure_fails_the_command() {
    for workload in &workloads(&spec()) {
        let out = bench(workload, "3606", "0", true);
        assert!(
            !out.status.success(),
            "{workload} exited 0 with a planted failure"
        );
        let r = result(&out);
        assert_eq!(r.get("correct"), Some(&Json::Bool(false)), "{workload}");
        assert!(
            r.get("failed").and_then(Json::num) > Some(0.0),
            "{workload}"
        );
    }
}

#[test]
fn bad_arguments_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_spectralfly-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
