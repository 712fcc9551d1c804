//! `repro` — the one-command paper reproduction and its CI regression gate.
//!
//! ```text
//! repro run   <manifest.toml> [--out DIR] [--record-baselines] [--baselines PATH] [--filter S]
//! repro check <manifest.toml> [--baselines PATH] [--out DIR] [--filter S]
//! ```
//!
//! `run` executes every experiment and structural table the manifest declares
//! — with `--filter S`, those whose id contains `S`; a filter that selects
//! nothing is an error — prints the digest summary and then one table per
//! experiment and structure section (with each point's figure of merit as a
//! ratio to its `relative_to` sibling where the section names one), and writes
//! a provenance-stamped JSON artifact to `--out` (default `artifacts/`). With
//! `--record-baselines` it also (re)writes the manifest's golden baseline
//! file — the reviewed act of accepting current behaviour.
//!
//! `check` re-runs the manifest's experiments and structural tables and diffs
//! against the checked-in baselines. Any drift — a changed results digest, a
//! lost or new point, or baselines recorded for a different manifest — prints
//! a typed diagnosis and exits nonzero. CI runs this on the smoke manifest.
//! It gates behaviour, not speed: `benchmark/` measures that.
//!
//! The default baseline path is `<manifest dir>/baselines/<manifest name>.toml`.

use spectralfly_exp::{baseline, fnv64_str, runner, Baselines, Manifest, RunOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\n  repro run   <manifest.toml> [--out DIR] [--record-baselines] [--baselines PATH] [--filter S]\n  repro check <manifest.toml> [--baselines PATH] [--out DIR] [--filter S]";

/// The command line after the program name. Every flag is known here, so an
/// unknown flag and a flag without its value end the process with the usage
/// text and exit code 2 instead of silently running the default.
#[derive(Debug, Default)]
struct Cli {
    positional: Vec<String>,
    out: Option<String>,
    filter: Option<String>,
    baselines: Option<String>,
    record_baselines: bool,
}

impl Cli {
    /// Parse `args`; a repeated flag's last value wins. The violation is
    /// returned.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let slot = match arg.as_str() {
                "--out" => &mut cli.out,
                "--filter" => &mut cli.filter,
                "--baselines" => &mut cli.baselines,
                "--record-baselines" => {
                    cli.record_baselines = true;
                    continue;
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => {
                    cli.positional.push(arg);
                    continue;
                }
            };
            let value = (args.next())
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value"))?;
            *slot = Some(value);
        }
        Ok(cli)
    }
}

/// Reject the command line: the reason, the usage text, exit code 2.
fn usage_error(reason: &str) -> ! {
    eprintln!("error: {reason}\nusage: {USAGE}");
    std::process::exit(2)
}

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
    print!("{}", report.tables(m));
    print!("{}", report.wall_table());
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
        filter: cli.filter.clone(),
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
    match write_artifact(&report, cli.out.as_deref().unwrap_or("artifacts")) {
        Ok(path) => println!("artifact: {}", path.display()),
        Err(e) => {
            eprintln!("repro: writing artifact: {e}");
            return ExitCode::FAILURE;
        }
    }
    if cli.record_baselines {
        if opts.filter.is_some() {
            eprintln!("repro: refusing to record baselines from a --filter'ed run (it would drop every filtered-out point)");
            return ExitCode::FAILURE;
        }
        let base = Baselines::from_report(&report);
        let path = cli
            .baselines
            .as_ref()
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
    if cli.record_baselines {
        usage_error("--record-baselines belongs to `repro run`");
    }
    let m = match load_manifest(manifest_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_path = cli
        .baselines
        .as_ref()
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
        filter: cli.filter.clone(),
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
    if let Some(out_dir) = &cli.out {
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
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|reason| usage_error(&reason));
    match cli.positional.as_slice() {
        [cmd, manifest_path] if cmd == "run" => cmd_run(manifest_path, &cli),
        [cmd, manifest_path] if cmd == "check" => cmd_check(manifest_path, &cli),
        _ => usage_error("expected `run` or `check` and one manifest path"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn declared_flags_parse_and_the_last_value_wins() {
        let cli = parse(&[
            "run",
            "--out",
            "a",
            "--record-baselines",
            "m.toml",
            "--out",
            "b",
        ]);
        let cli = cli.unwrap();
        assert_eq!(cli.positional, ["run", "m.toml"]);
        assert!(cli.record_baselines);
        assert_eq!(cli.out.as_deref(), Some("b"));
        assert_eq!(cli.filter, None, "absent flags have no value");
    }

    #[test]
    fn undeclared_flags_and_missing_values_are_violations() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert_eq!(err(&["--record"]), "unknown flag --record");
        assert_eq!(err(&["--filter"]), "--filter needs a value");
        assert_eq!(
            err(&["--filter", "--record-baselines"]),
            "--filter needs a value",
            "a flag is never swallowed as another flag's value"
        );
    }
}
