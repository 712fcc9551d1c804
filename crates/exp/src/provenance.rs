//! Provenance stamps: enough context to trust (or distrust) a recorded number.
//!
//! The retired `BENCH_engine.json` trajectory taught the lesson this module
//! encodes: a performance row with no record of *which commit*, *which
//! configuration*, and *which seed* produced it cannot be distinguished from
//! host noise after the fact. Every artifact the runner emits carries a
//! [`Provenance`] stamp so a regression can be traced to the exact tree state
//! that produced it.
//!
//! Collection is best-effort by design: a build from a tarball has no git, CI
//! may have a shallow clone, and a stamp must never turn a benchmark run into
//! a failure. Anything unavailable degrades to `"unknown"`.

use std::process::Command;

/// A provenance stamp for one artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `"unknown"` outside a repository.
    pub git_rev: String,
    /// Whether the working tree had uncommitted changes (`git status
    /// --porcelain` non-empty). `false` when git is unavailable.
    pub git_dirty: bool,
    /// FNV-64 hex of the canonical configuration that produced the artifact
    /// ([`crate::Manifest::config_hash`]).
    pub config_hash: String,
    /// The RNG seed the run used.
    pub seed: u64,
    /// `rustc --version`, or `"unknown"`.
    pub rustc: String,
    /// Host triple pieces: `os/arch` from compile-time constants.
    pub host: String,
    /// Wall-clock seconds since the unix epoch at collection time.
    pub unix_time: u64,
}

fn command_line(bin: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(bin).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

impl Provenance {
    /// Collect a stamp for a run with the given configuration hash and seed.
    /// Never fails: unavailable fields degrade to `"unknown"` / `false`.
    pub fn collect(config_hash: &str, seed: u64) -> Provenance {
        let git_rev =
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
        // An empty porcelain status is a clean tree; a failed invocation (no
        // git, not a repo) is reported clean because "dirty" is a positive
        // claim about the tree we cannot substantiate.
        let git_dirty = Command::new("git")
            .args(["status", "--porcelain"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| !o.stdout.iter().all(|b| b.is_ascii_whitespace()))
            .unwrap_or(false);
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Provenance {
            git_rev,
            git_dirty,
            config_hash: config_hash.to_string(),
            seed,
            rustc,
            host: format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH),
            unix_time,
        }
    }

    /// Render as a JSON object (hand-rolled, like the artifact around it).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\":{},\"git_dirty\":{},\"config_hash\":{},\"seed\":{},\"rustc\":{},\"host\":{},\"unix_time\":{}}}",
            json_str(&self.git_rev),
            self.git_dirty,
            json_str(&self.config_hash),
            self.seed,
            json_str(&self.rustc),
            json_str(&self.host),
            self.unix_time,
        )
    }
}

/// Escape a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_a_complete_stamp() {
        let p = Provenance::collect("deadbeefdeadbeef", 42);
        assert_eq!(p.config_hash, "deadbeefdeadbeef");
        assert_eq!(p.seed, 42);
        assert!(!p.host.is_empty());
        assert!(p.host.contains('/'));
        // In this repo git is available, so the rev resolves to 40 hex chars.
        if p.git_rev != "unknown" {
            assert_eq!(p.git_rev.len(), 40, "{}", p.git_rev);
            assert!(p.git_rev.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn json_stamp_is_well_formed() {
        let p = Provenance {
            git_rev: "abc".to_string(),
            git_dirty: true,
            config_hash: "ff".to_string(),
            seed: 7,
            rustc: "rustc 1.0 \"x\"".to_string(),
            host: "linux/x86_64".to_string(),
            unix_time: 1_000,
        };
        let j = p.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"git_rev\":\"abc\""));
        assert!(j.contains("\"git_dirty\":true"));
        assert!(j.contains("\"seed\":7"));
        assert!(j.contains("\\\"x\\\""), "inner quotes are escaped: {j}");
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_str("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_str("a\nb"), "\"a\\nb\"");
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
    }
}
