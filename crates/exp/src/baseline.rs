//! Golden baselines and the regression gate.
//!
//! A baseline file is a small checked-in TOML document recording, for one
//! manifest, the expected digest of every point:
//!
//! ```toml
//! [baseline]
//! manifest = "smoke"
//! config_hash = "0123456789abcdef"
//!
//! [results]
//! "eq/ring(9)x2/minimal/s=7" = "a1b2c3d4e5f60718"
//! ```
//!
//! [`compare`] diffs a fresh [`RunReport`] against a baseline. Results are
//! gated **exactly** — the simulator is deterministic, so any digest change
//! is a behaviour change that must be either fixed or consciously re-recorded.
//! Both directions of set mismatch (a point present on one side only) are
//! failures: losing a point is how a sweep silently stops covering a figure.

use crate::runner::RunReport;
use crate::toml::{self, render_str, Value};

/// Why a fresh run failed the gate.
#[derive(Clone, Debug, PartialEq)]
pub enum Diagnosis {
    /// A point's digest differs from the recorded one.
    ResultsDrift {
        /// The point's identifier.
        id: String,
        /// Digest the baseline records.
        expected: String,
        /// Digest the fresh run produced.
        got: String,
    },
    /// A baselined point is absent from the fresh run.
    MissingPoint {
        /// The absent point's identifier.
        id: String,
    },
    /// The fresh run produced a point the baseline does not know.
    UnbaselinedPoint {
        /// The new point's identifier.
        id: String,
    },
    /// The baseline was recorded for a different manifest configuration.
    ManifestMismatch {
        /// Hash the baseline records.
        expected: String,
        /// Hash of the manifest that produced the fresh run.
        got: String,
    },
}

impl std::fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Diagnosis::ResultsDrift { id, expected, got } => {
                write!(f, "results drift at {id}: baseline {expected}, got {got}")
            }
            Diagnosis::MissingPoint { id } => {
                write!(f, "baselined point {id} missing from the fresh run")
            }
            Diagnosis::UnbaselinedPoint { id } => {
                write!(f, "point {id} has no baseline (re-record to adopt it)")
            }
            Diagnosis::ManifestMismatch { expected, got } => write!(
                f,
                "baseline was recorded for config {expected}, manifest hashes to {got} (re-record after manifest changes)"
            ),
        }
    }
}

/// The recorded expectations for one manifest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baselines {
    /// Manifest name the baseline was recorded for.
    pub manifest: String,
    /// [`crate::Manifest::config_hash`] at record time.
    pub config_hash: String,
    /// `(point id, digest)` in recorded order.
    pub results: Vec<(String, String)>,
}

impl Baselines {
    /// Record a fresh report as the new baseline.
    pub fn from_report(report: &RunReport) -> Baselines {
        Baselines {
            manifest: report.manifest.clone(),
            config_hash: report.config_hash.clone(),
            results: report
                .points
                .iter()
                .map(|p| (p.id.clone(), p.digest.clone()))
                .collect(),
        }
    }

    /// Parse a baseline file. Any table other than `[baseline]` and
    /// `[results]` is refused by name: a misspelt `[result]` would otherwise
    /// read as an empty baseline.
    pub fn parse(src: &str) -> Result<Baselines, String> {
        let doc = toml::parse(src).map_err(|e| e.to_string())?;
        for t in doc.tables.iter().filter(|t| !t.path.is_empty()) {
            match (t.path[0].as_str(), t.path.len()) {
                ("baseline" | "results", 1) => {}
                ("perf", _) => {
                    let retired = "the perf gate was retired (benchmark/ measures speed)";
                    return Err(format!("[{}]: {retired}; delete the table", t.path_str()));
                }
                _ => {
                    let known = "a baseline file holds [baseline] and [results]";
                    return Err(format!("unknown table [{}]; {known}", t.path_str()));
                }
            }
        }
        let header = doc
            .table("baseline")
            .ok_or("baseline file has no [baseline] table")?;
        let get = |field: &str| -> Result<String, String> {
            match header.get(field) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("[baseline] {field} must be a string")),
            }
        };
        let mut results = Vec::new();
        if let Some(t) = doc.table("results") {
            for e in &t.entries {
                match &e.value {
                    Value::Str(d) => results.push((e.key.clone(), d.clone())),
                    v => {
                        return Err(format!(
                            "[results] {:?} must be a digest string, got {}",
                            e.key,
                            v.type_name()
                        ))
                    }
                }
            }
        }
        Ok(Baselines {
            manifest: get("manifest")?,
            config_hash: get("config_hash")?,
            results,
        })
    }

    /// Render as the checked-in TOML form (a parse fixpoint).
    pub fn to_toml(&self) -> String {
        let mut out = String::from("[baseline]\n");
        out.push_str(&format!("manifest = {}\n", render_str(&self.manifest)));
        out.push_str(&format!(
            "config_hash = {}\n",
            render_str(&self.config_hash)
        ));
        if !self.results.is_empty() {
            out.push_str("\n[results]\n");
            for (id, digest) in &self.results {
                out.push_str(&format!("{} = {}\n", render_str(id), render_str(digest)));
            }
        }
        out
    }
}

/// The gate's verdict.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    /// Failures — non-empty means the gate fails.
    pub findings: Vec<Diagnosis>,
}

impl Comparison {
    /// Whether the fresh run passes the gate.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Diff a fresh report against recorded baselines.
pub fn compare(report: &RunReport, baselines: &Baselines) -> Comparison {
    let mut cmp = Comparison::default();

    if baselines.config_hash != report.config_hash {
        cmp.findings.push(Diagnosis::ManifestMismatch {
            expected: baselines.config_hash.clone(),
            got: report.config_hash.clone(),
        });
        // A mismatched manifest makes every per-point diff meaningless noise;
        // report the one actionable finding and stop.
        return cmp;
    }

    for (id, expected) in &baselines.results {
        match report.points.iter().find(|p| &p.id == id) {
            None => cmp
                .findings
                .push(Diagnosis::MissingPoint { id: id.clone() }),
            Some(p) if &p.digest != expected => cmp.findings.push(Diagnosis::ResultsDrift {
                id: id.clone(),
                expected: expected.clone(),
                got: p.digest.clone(),
            }),
            Some(_) => {}
        }
    }
    for p in &report.points {
        if !baselines.results.iter().any(|(id, _)| id == &p.id) {
            cmp.findings
                .push(Diagnosis::UnbaselinedPoint { id: p.id.clone() });
        }
    }

    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Provenance;
    use crate::runner::PointResult;

    fn report() -> RunReport {
        RunReport {
            manifest: "gate-test".into(),
            config_hash: "0123456789abcdef".into(),
            provenance: Provenance {
                git_rev: "test".into(),
                git_dirty: false,
                config_hash: "0123456789abcdef".into(),
                seed: 0,
                rustc: "test".into(),
                host: "test/test".into(),
                unix_time: 0,
            },
            points: vec![PointResult {
                id: "eq/ring(9)x2/minimal/s=7".into(),
                experiment: "eq".into(),
                digest: "00112233445566aa".into(),
                summary: "delivered=36".into(),
                metrics: None,
                values: Vec::new(),
                relative: None,
                wall_ms: 1,
            }],
        }
    }

    #[test]
    fn clean_comparison_passes_and_round_trips() {
        let rep = report();
        let base = Baselines::from_report(&rep);
        let reparsed = Baselines::parse(&base.to_toml()).unwrap();
        assert_eq!(base, reparsed, "baseline TOML is a parse fixpoint");
        let cmp = compare(&rep, &reparsed);
        assert!(cmp.passed(), "{:?}", cmp.findings);
    }

    #[test]
    fn perturbed_digest_is_results_drift() {
        let rep = report();
        let mut base = Baselines::from_report(&rep);
        base.results[0].1 = "ffffffffffffffff".into();
        let cmp = compare(&rep, &base);
        assert_eq!(cmp.findings.len(), 1);
        match &cmp.findings[0] {
            Diagnosis::ResultsDrift { id, expected, got } => {
                assert_eq!(id, "eq/ring(9)x2/minimal/s=7");
                assert_eq!(expected, "ffffffffffffffff");
                assert_eq!(got, "00112233445566aa");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn set_mismatches_fail_in_both_directions() {
        let rep = report();
        let mut base = Baselines::from_report(&rep);
        base.results.push(("eq/ghost/s=1".into(), "aa".into()));
        let cmp = compare(&rep, &base);
        assert!(cmp
            .findings
            .iter()
            .any(|d| matches!(d, Diagnosis::MissingPoint { id } if id == "eq/ghost/s=1")));

        let base = Baselines {
            results: Vec::new(),
            ..Baselines::from_report(&rep)
        };
        let cmp = compare(&rep, &base);
        assert!(cmp
            .findings
            .iter()
            .any(|d| matches!(d, Diagnosis::UnbaselinedPoint { .. })));
    }

    #[test]
    fn config_hash_mismatch_short_circuits() {
        let rep = report();
        let mut base = Baselines::from_report(&rep);
        base.config_hash = "0000000000000000".into();
        base.results[0].1 = "ffffffffffffffff".into(); // would also drift
        let cmp = compare(&rep, &base);
        assert_eq!(
            cmp.findings.len(),
            1,
            "mismatch reports once, not per point"
        );
        assert!(matches!(
            cmp.findings[0],
            Diagnosis::ManifestMismatch { .. }
        ));
    }

    /// A misspelt `[result]` is not an empty baseline, and a leftover
    /// `[perf.*]` table says what to do with it.
    #[test]
    fn unknown_tables_are_refused_by_name() {
        let header = "[baseline]\nmanifest = \"m\"\nconfig_hash = \"00\"\n";
        let refused = |table: &str| Baselines::parse(&format!("{header}\n{table}\n")).unwrap_err();
        let err = refused("[result]\n\"eq/a\" = \"aa\"");
        assert!(err.contains("unknown table [result]"), "{err}");
        let err = refused("[results.extra]\nx = 1");
        assert!(err.contains("unknown table [results.extra]"), "{err}");
        let err = refused("[perf.routing-bound]\nratio = 0.68");
        assert!(err.starts_with("[perf.routing-bound]: the perf gate was retired"));
        assert!(err.ends_with("delete the table"), "{err}");
        assert!(Baselines::parse(&format!("{header}\n[results]\n")).is_ok());
    }
}
