//! End-to-end self-test of the `repro` binary: record baselines for a tiny
//! manifest in a scratch directory, then corrupt the baseline copies the way
//! real regressions would and assert `repro check` exits nonzero with the
//! right diagnosis on stderr. This is the CI gate testing itself.

use spectralfly_exp::Baselines;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const MINI: &str = r#"
[manifest]
name = "gate-e2e"
description = "scratch manifest for the repro binary self-test"

[experiment.eq]
topologies = ["ring(5)x2"]
routings = ["minimal"]
shards = [1, 2]
seeds = [7]
mode = "finite"
messages = 2
bytes = 512
"#;

struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("repro_gate_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }

    fn manifest(&self) -> PathBuf {
        self.dir.join("gate-e2e.toml")
    }

    fn baselines(&self) -> PathBuf {
        self.dir.join("baselines").join("gate-e2e.toml")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn repro(args: &[&str], scratch: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--out", scratch.join("artifacts").to_str().unwrap()])
        .output()
        .expect("repro binary spawns")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn record(scratch: &Scratch) {
    std::fs::write(scratch.manifest(), MINI).unwrap();
    let out = repro(
        &[
            "run",
            scratch.manifest().to_str().unwrap(),
            "--record-baselines",
            "--skip-external",
        ],
        &scratch.dir,
    );
    assert!(
        out.status.success(),
        "recording run failed: {}",
        stderr_of(&out)
    );
    assert!(scratch.baselines().is_file(), "baseline file was written");
}

fn check(scratch: &Scratch) -> Output {
    repro(
        &["check", scratch.manifest().to_str().unwrap()],
        &scratch.dir,
    )
}

fn load_baselines(scratch: &Scratch) -> Baselines {
    Baselines::parse(&std::fs::read_to_string(scratch.baselines()).unwrap()).unwrap()
}

fn store_baselines(scratch: &Scratch, b: &Baselines) {
    std::fs::write(scratch.baselines(), b.to_toml()).unwrap();
}

#[test]
fn check_passes_against_freshly_recorded_baselines() {
    let scratch = Scratch::new("clean");
    record(&scratch);
    let out = check(&scratch);
    assert!(
        out.status.success(),
        "clean check failed: {}",
        stderr_of(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("check passed"), "{stdout}");
    // The run artifact is provenance-stamped.
    let artifact = scratch.dir.join("artifacts").join("gate-e2e.json");
    let json = std::fs::read_to_string(artifact).unwrap();
    assert!(
        json.contains("\"provenance\""),
        "artifact carries provenance"
    );
    assert!(json.contains("\"config_hash\""));
}

#[test]
fn check_fails_on_a_perturbed_results_digest_with_a_drift_diagnosis() {
    let scratch = Scratch::new("drift");
    record(&scratch);
    let mut b = load_baselines(&scratch);
    let victim = b.results[0].0.clone();
    b.results[0].1 = "0000000000000000".to_string();
    store_baselines(&scratch, &b);
    let out = check(&scratch);
    assert!(!out.status.success(), "perturbed digest must fail the gate");
    let err = stderr_of(&out);
    assert!(err.contains("results drift"), "wrong diagnosis: {err}");
    assert!(
        err.contains(&victim),
        "diagnosis must name the point: {err}"
    );
}

/// A `[perf.*]` table left in a baseline file by the retired perf gate is
/// refused with what to do about it, not skipped.
#[test]
fn check_refuses_a_baseline_file_with_a_perf_table() {
    let scratch = Scratch::new("perf");
    record(&scratch);
    let stale = format!(
        "{}\n[perf.tiny]\nratio = 0.7\n",
        load_baselines(&scratch).to_toml()
    );
    std::fs::write(scratch.baselines(), stale).unwrap();
    let out = check(&scratch);
    assert!(
        !out.status.success(),
        "a stale perf table must fail the gate"
    );
    let err = stderr_of(&out);
    assert!(
        err.contains("[perf.tiny]: the perf gate was retired") && err.contains("delete the table"),
        "wrong diagnosis: {err}"
    );
}

/// A `--filter` that selects nothing is an error naming the filter and the
/// manifest's sections — not an empty report, an artifact and exit 0.
#[test]
fn a_filter_that_selects_nothing_fails_and_writes_no_artifact() {
    let scratch = Scratch::new("nothing");
    std::fs::write(scratch.manifest(), MINI).unwrap();
    let manifest = scratch.manifest();
    let run = |filter: &str| {
        let args = ["run", manifest.to_str().unwrap(), "--filter", filter];
        repro(&args, &scratch.dir)
    };
    let out = run("nosuchsection");
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("filter \"nosuchsection\" selects nothing"),
        "{err}"
    );
    assert!(err.contains("sections: eq"), "{err}");
    assert!(!scratch.dir.join("artifacts").exists(), "no artifact");
    assert!(run("eq/ring(5)").status.success());
}

#[test]
fn check_fails_when_baselines_were_recorded_for_a_different_manifest() {
    let scratch = Scratch::new("stale");
    record(&scratch);
    // Editing the manifest after recording changes its config hash; the gate
    // must refuse to compare rather than diff against stale goldens.
    std::fs::write(
        scratch.manifest(),
        MINI.replace("bytes = 512", "bytes = 1024"),
    )
    .unwrap();
    let out = check(&scratch);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(
        err.contains("recorded for config"),
        "wrong diagnosis: {err}"
    );
}

/// A rejected command line: exit code 2, the reason and the usage text.
fn assert_usage_error(out: &Output, reason: &str) {
    let err = stderr_of(out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains(reason), "missing {reason:?}: {err}");
    assert!(err.contains("usage:"), "no usage text: {err}");
}

#[test]
fn unknown_flags_exit_2_instead_of_being_ignored() {
    let scratch = Scratch::new("unknown");
    std::fs::write(scratch.manifest(), MINI).unwrap();
    let manifest = scratch.manifest();
    // A mistyped --skip-external must not run every external figure binary.
    let out = repro(
        &["run", manifest.to_str().unwrap(), "--skip-externals"],
        &scratch.dir,
    );
    assert_usage_error(&out, "unknown flag --skip-externals");
    // Run-only switches are not silently accepted by `check`, and an unknown
    // subcommand is rejected the same way.
    let out = repro(
        &["check", manifest.to_str().unwrap(), "--record-baselines"],
        &scratch.dir,
    );
    assert_usage_error(&out, "belong to `repro run`");
    let out = repro(&["frobnicate", manifest.to_str().unwrap()], &scratch.dir);
    assert_usage_error(&out, "expected `run` or `check`");
}

#[test]
fn a_flag_without_its_value_exits_2() {
    let scratch = Scratch::new("missing");
    std::fs::write(scratch.manifest(), MINI).unwrap();
    // `repro` appends `--out DIR`, so `--filter` is followed by another flag…
    let out = repro(
        &["run", scratch.manifest().to_str().unwrap(), "--filter"],
        &scratch.dir,
    );
    assert_usage_error(&out, "--filter needs a value");
    // …and here a flag ends the command line.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["check", scratch.manifest().to_str().unwrap(), "--baselines"])
        .output()
        .unwrap();
    assert_usage_error(&out, "--baselines needs a value");
}

#[test]
fn malformed_values_exit_2_instead_of_falling_back_to_the_default() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig11_latency"), ["--pairs", "x"]),
        (env!("CARGO_BIN_EXE_table2_layout"), ["--pairs", "-1"]),
    ] {
        let out = Command::new(bin).args(args).output().unwrap();
        assert_usage_error(&out, &format!("{}: {:?}", args[0], args[1]));
    }
}

#[test]
fn externals_resolve_beside_the_running_binary_from_any_directory() {
    let scratch = Scratch::new("external");
    std::fs::write(
        scratch.manifest(),
        "[manifest]\nname = \"gate-e2e\"\n[external.latency]\nbin = \"fig11_latency\"\nargs = [\"--pairs\", \"1\", \"--anneal\", \"10\"]\n",
    )
    .unwrap();
    // From a directory with no `target/release` (and no workspace for the
    // cargo fallback to build), only the sibling of `repro` can answer.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["run", scratch.manifest().to_str().unwrap()])
        .current_dir(&scratch.dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("external latency"), "{stdout}");
    let artifact = std::fs::read_to_string(scratch.dir.join("artifacts/gate-e2e.json")).unwrap();
    assert!(artifact.contains("\"ok\":true"), "{artifact}");
    assert!(
        artifact.contains("Fig. 11: maximum end-to-end latency"),
        "captured the figure: {artifact}"
    );
}

/// A manifest of structural tables alone is a first-class citizen of the
/// gate: recorded, stamped with its own seed, checked, and failed on drift.
#[test]
fn a_structure_only_manifest_records_and_checks_from_any_directory() {
    let scratch = Scratch::new("structure");
    std::fs::write(
        scratch.manifest(),
        "[manifest]\nname = \"gate-e2e\"\n[structure.shape]\ntopologies = [\"lps(3,5)\", \"ring(9)\"]\n\
         metrics = [\"routers\", \"diameter\", \"mu1\", \"ramanujan\"]\nseed = 77\n",
    )
    .unwrap();
    let repro_here = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&scratch.dir)
            .output()
            .unwrap()
    };
    let out = repro_here(&["run", "gate-e2e.toml", "--record-baselines"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== shape (structure) =="), "{stdout}");
    assert!(stdout.contains("lps(3,5) | 120 | "), "{stdout}");
    let artifact = std::fs::read_to_string(scratch.dir.join("artifacts/gate-e2e.json")).unwrap();
    assert!(artifact.contains("\"seed\":77"), "{artifact}");
    let out = repro_here(&["check", "gate-e2e.toml"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("check passed: 2 points"));

    let mut b = load_baselines(&scratch);
    assert_eq!(b.results[1].0, "shape/ring(9)");
    b.results[1].1 = "0000000000000000".to_string();
    store_baselines(&scratch, &b);
    let out = repro_here(&["check", "gate-e2e.toml"]);
    assert!(!out.status.success(), "a drifted structure row must fail");
    let err = stderr_of(&out);
    assert!(err.contains("results drift at shape/ring(9)"), "{err}");
}
