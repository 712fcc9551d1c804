//! `repro` — the one-command paper reproduction and its CI regression gate.
//!
//! ```text
//! repro run   <manifest.toml> [--out DIR] [--record-baselines] [--baselines PATH] [--skip-external] [--filter S]
//! repro check <manifest.toml> [--baselines PATH] [--out DIR] [--filter S]
//! ```
//!
//! `run` executes every experiment, structural table and external figure the
//! manifest declares — with `--filter S`, those whose id contains `S`; a
//! filter that selects nothing is an error — prints the digest summary and
//! then one table per experiment and structure section (with each point's
//! figure of merit as a ratio to its `relative_to` sibling where the section
//! names one), and writes a provenance-stamped JSON artifact to `--out`
//! (default `artifacts/`). With `--record-baselines` it also (re)writes the
//! manifest's golden baseline file — the reviewed act of accepting current
//! behaviour.
//!
//! `check` re-runs the manifest's native experiments and structural tables
//! (externals are always skipped: they are reproduction output, not gated
//! state) and diffs against the checked-in baselines. Any drift — a changed
//! results digest, a lost or new point, or baselines recorded for a different
//! manifest — prints a typed diagnosis and exits nonzero. CI runs this on the
//! smoke manifest. It gates behaviour, not speed: `benchmark/` measures that.
//!
//! The default baseline path is `<manifest dir>/baselines/<manifest name>.toml`.

use spectralfly_bench::Cli;
use spectralfly_exp::{baseline, fnv64_str, runner, Baselines, Manifest, RunOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\n  repro run   <manifest.toml> [--out DIR] [--record-baselines] [--baselines PATH] [--skip-external] [--filter S]\n  repro check <manifest.toml> [--baselines PATH] [--out DIR] [--filter S]";

fn default_baseline_path(manifest_path: &Path, name: &str) -> PathBuf {
    manifest_path
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join("baselines")
        .join(format!("{name}.toml"))
}

fn load_manifest(path: &str) -> Result<Manifest, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Manifest::parse(&src).map_err(|e| format!("{path}: {e}"))
}

fn write_artifact(report: &runner::RunReport, out_dir: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = Path::new(out_dir).join(format!("{}.json", report.manifest));
    std::fs::write(&path, report.to_json())?;
    Ok(path)
}

fn print_report(report: &runner::RunReport, m: &Manifest) {
    println!(
        "manifest {} (config {}) @ {}{}",
        report.manifest,
        report.config_hash,
        report.provenance.git_rev,
        if report.provenance.git_dirty {
            " (dirty)"
        } else {
            ""
        }
    );
    // A closed-form scatter is thousands of one-multiplication rows, each in
    // its table below: the section gets one line, its rows' digests combined.
    let scatter = |name: &str| (m.structures.iter()).any(|s| s.name == name && s.is_closed_form());
    for p in report.points.iter().filter(|p| !scatter(&p.experiment)) {
        println!(
            "  {:<60} {}  {:>6} ms  {}",
            p.id, p.digest, p.wall_ms, p.summary
        );
    }
    for s in m.structures.iter().filter(|s| s.is_closed_form()) {
        let rows = report.points.iter().filter(|p| p.experiment == s.name);
        let digests: Vec<&str> = rows.map(|p| p.digest.as_str()).collect();
        let (combined, rows) = (fnv64_str(&digests.concat()), digests.len());
        if rows > 0 {
            println!("  {:<60} {combined:016x}  {rows} closed-form rows", s.name);
        }
    }
    for x in &report.external {
        println!(
            "  external {:<20} {} ({})",
            x.name,
            if x.ok { "ok" } else { "FAILED" },
            x.bin
        );
    }
    print!("{}", report.tables(m));
}

fn cmd_run(manifest_path: &str, cli: &Cli) -> ExitCode {
    let m = match load_manifest(manifest_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = RunOptions {
        skip_external: cli.flag("--skip-external"),
        filter: cli.value("--filter").map(str::to_string),
        ..Default::default()
    };
    let report = match runner::run_manifest(&m, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&report, &m);
    match write_artifact(&report, cli.value("--out").unwrap_or("artifacts")) {
        Ok(path) => println!("artifact: {}", path.display()),
        Err(e) => {
            eprintln!("repro: writing artifact: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.external.iter().any(|x| !x.ok) {
        eprintln!("repro: an external figure binary failed");
        return ExitCode::FAILURE;
    }
    if cli.flag("--record-baselines") {
        if opts.filter.is_some() {
            eprintln!("repro: refusing to record baselines from a --filter'ed run (it would drop every filtered-out point)");
            return ExitCode::FAILURE;
        }
        let base = Baselines::from_report(&report);
        let path = cli
            .value("--baselines")
            .map(PathBuf::from)
            .unwrap_or_else(|| default_baseline_path(Path::new(manifest_path), &m.name));
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("repro: creating {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(&path, base.to_toml()) {
            eprintln!("repro: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("baselines recorded: {}", path.display());
    }
    ExitCode::SUCCESS
}

fn cmd_check(manifest_path: &str, cli: &Cli) -> ExitCode {
    if cli.flag("--record-baselines") || cli.flag("--skip-external") {
        cli.fail("--record-baselines and --skip-external belong to `repro run`");
    }
    let m = match load_manifest(manifest_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_path = cli
        .value("--baselines")
        .map(PathBuf::from)
        .unwrap_or_else(|| default_baseline_path(Path::new(manifest_path), &m.name));
    let baselines = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("reading {}: {e}", baseline_path.display()))
        .and_then(|src| {
            Baselines::parse(&src).map_err(|e| format!("{}: {e}", baseline_path.display()))
        }) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("repro: {e} (record with `repro run {manifest_path} --record-baselines`)");
            return ExitCode::FAILURE;
        }
    };
    let opts = RunOptions {
        skip_external: true, // externals are output, not gated state
        filter: cli.value("--filter").map(str::to_string),
        ..Default::default()
    };
    if opts.filter.is_some() {
        eprintln!("repro: refusing to check a --filter'ed run against full baselines (every skipped point would read as missing)");
        return ExitCode::FAILURE;
    }
    let report = match runner::run_manifest(&m, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(out_dir) = cli.value("--out") {
        match write_artifact(&report, out_dir) {
            Ok(path) => println!("artifact: {}", path.display()),
            Err(e) => eprintln!("repro: writing artifact: {e}"),
        }
    }
    let cmp = baseline::compare(&report, &baselines);
    if cmp.passed() {
        println!(
            "check passed: {} points match {}",
            report.points.len(),
            baseline_path.display()
        );
        ExitCode::SUCCESS
    } else {
        for d in &cmp.findings {
            eprintln!("FAIL: {d}");
        }
        eprintln!(
            "repro check failed: {} finding(s) against {}",
            cmp.findings.len(),
            baseline_path.display()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse(
        USAGE,
        &["--out", "--filter", "--baselines"],
        &["--record-baselines", "--skip-external"],
    );
    match cli.positional() {
        [cmd, manifest_path] if cmd == "run" => cmd_run(manifest_path, &cli),
        [cmd, manifest_path] if cmd == "check" => cmd_check(manifest_path, &cli),
        _ => cli.fail("expected `run` or `check` and one manifest path"),
    }
}
