//! Golden baselines and the regression gate.
//!
//! A baseline file is a small checked-in TOML document recording, for one
//! manifest, the expected digest of every point and the expected calibration
//! ratio of every perf scenario:
//!
//! ```toml
//! [baseline]
//! manifest = "smoke"
//! config_hash = "0123456789abcdef"
//!
//! [results]
//! "eq/ring(9)x2/minimal/s=7" = "a1b2c3d4e5f60718"
//!
//! [perf.routing-bound]
//! ratio = 1.42
//! ```
//!
//! [`compare`] diffs a fresh [`RunReport`] against a baseline. Results are
//! gated **exactly** — the simulator is deterministic, so any digest change
//! is a behaviour change that must be either fixed or consciously re-recorded.
//! Perf ratios are gated with the tolerance band *the manifest declares*: a
//! fresh ratio below `baseline · (1 − tolerance)` is a regression; a ratio
//! above `baseline · (1 + tolerance)` is reported as an improvement note (a
//! prompt to re-record, never a failure). Both directions of set mismatch
//! (a point present on one side only) are failures: losing a point is how a
//! sweep silently stops covering a figure.

use crate::manifest::Manifest;
use crate::runner::RunReport;
use crate::toml::{self, render_float, render_key, render_str, Value};

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
    /// A perf scenario's calibration ratio fell below the tolerance band.
    PerfRegression {
        /// Scenario name.
        name: String,
        /// Recorded baseline ratio.
        baseline: f64,
        /// Fresh measured ratio.
        got: f64,
        /// The manifest's tolerance band.
        tolerance: f64,
    },
    /// A baselined perf scenario is absent from the fresh run.
    MissingPerf {
        /// The absent scenario's name.
        name: String,
    },
    /// The fresh run measured a scenario the baseline does not know.
    UnbaselinedPerf {
        /// The new scenario's name.
        name: String,
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
            Diagnosis::PerfRegression {
                name,
                baseline,
                got,
                tolerance,
            } => write!(
                f,
                "perf regression in {name}: ratio {got:.3} below baseline {baseline:.3} - {:.0}% tolerance",
                tolerance * 100.0
            ),
            Diagnosis::MissingPerf { name } => {
                write!(f, "baselined perf scenario {name} missing from the fresh run")
            }
            Diagnosis::UnbaselinedPerf { name } => {
                write!(f, "perf scenario {name} has no baseline (re-record to adopt it)")
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
    /// [`Manifest::config_hash`] at record time.
    pub config_hash: String,
    /// `(point id, digest)` in recorded order.
    pub results: Vec<(String, String)>,
    /// `(scenario name, ratio)` in recorded order.
    pub perf: Vec<(String, f64)>,
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
            perf: report
                .perf
                .iter()
                .map(|p| (p.name.clone(), p.ratio))
                .collect(),
        }
    }

    /// Parse a baseline file.
    pub fn parse(src: &str) -> Result<Baselines, String> {
        let doc = toml::parse(src).map_err(|e| e.to_string())?;
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
        let mut perf = Vec::new();
        for t in doc.tables_under("perf") {
            let name = t.path.get(1).cloned().unwrap_or_default();
            let ratio = match t.get("ratio") {
                Some(Value::Float(x)) => *x,
                Some(Value::Int(i)) => *i as f64,
                _ => return Err(format!("[perf.{name}] needs a numeric ratio")),
            };
            perf.push((name, ratio));
        }
        Ok(Baselines {
            manifest: get("manifest")?,
            config_hash: get("config_hash")?,
            results,
            perf,
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
        for (name, ratio) in &self.perf {
            out.push_str(&format!(
                "\n[perf.{}]\nratio = {}\n",
                render_key(name),
                render_float(*ratio)
            ));
        }
        out
    }
}

/// The gate's verdict: hard failures plus informational notes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    /// Failures — non-empty means the gate fails.
    pub findings: Vec<Diagnosis>,
    /// Informational notes (perf improvements beyond the band, etc.).
    pub notes: Vec<String>,
}

impl Comparison {
    /// Whether the fresh run passes the gate.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Diff a fresh report against recorded baselines under the manifest that
/// produced both (the manifest supplies the perf tolerance bands).
pub fn compare(manifest: &Manifest, report: &RunReport, baselines: &Baselines) -> Comparison {
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

    for (name, baseline_ratio) in &baselines.perf {
        let tolerance = manifest
            .perf
            .iter()
            .find(|s| &s.name == name)
            .map(|s| s.tolerance)
            .unwrap_or(0.5);
        match report.perf.iter().find(|p| &p.name == name) {
            None => cmp
                .findings
                .push(Diagnosis::MissingPerf { name: name.clone() }),
            Some(p) => {
                if p.ratio < baseline_ratio * (1.0 - tolerance) {
                    cmp.findings.push(Diagnosis::PerfRegression {
                        name: name.clone(),
                        baseline: *baseline_ratio,
                        got: p.ratio,
                        tolerance,
                    });
                } else if p.ratio > baseline_ratio * (1.0 + tolerance) {
                    cmp.notes.push(format!(
                        "perf improvement in {name}: ratio {:.3} above baseline {:.3} + {:.0}% band; consider re-recording",
                        p.ratio, baseline_ratio, tolerance * 100.0
                    ));
                }
            }
        }
    }
    for p in &report.perf {
        if !baselines.perf.iter().any(|(name, _)| name == &p.name) {
            cmp.findings.push(Diagnosis::UnbaselinedPerf {
                name: p.name.clone(),
            });
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Provenance;
    use crate::runner::{PerfResult, PointResult};

    fn manifest() -> Manifest {
        Manifest::parse(
            r#"
[manifest]
name = "gate-test"

[experiment.eq]
topologies = ["ring(9)x2"]
routings = ["minimal"]
mode = "finite"
messages = 2
bytes = 1024

[perf.bound]
topology = "ring(9)x2"
routing = "minimal"
load = 0.5
messages = 2
rounds = 1
tolerance = 0.2
"#,
        )
        .unwrap()
    }

    fn report(m: &Manifest) -> RunReport {
        RunReport {
            manifest: m.name.clone(),
            config_hash: m.config_hash(),
            provenance: Provenance {
                git_rev: "test".into(),
                git_dirty: false,
                config_hash: m.config_hash(),
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
            perf: vec![PerfResult {
                name: "bound".into(),
                ratio: 1.5,
                scenario_eps: 1e6,
                calibration_eps: 6.6e5,
                tolerance: 0.2,
            }],
            external: Vec::new(),
        }
    }

    #[test]
    fn clean_comparison_passes_and_round_trips() {
        let m = manifest();
        let rep = report(&m);
        let base = Baselines::from_report(&rep);
        let reparsed = Baselines::parse(&base.to_toml()).unwrap();
        assert_eq!(base, reparsed, "baseline TOML is a parse fixpoint");
        let cmp = compare(&m, &rep, &reparsed);
        assert!(cmp.passed(), "{:?}", cmp.findings);
        assert!(cmp.notes.is_empty());
    }

    #[test]
    fn perturbed_digest_is_results_drift() {
        let m = manifest();
        let rep = report(&m);
        let mut base = Baselines::from_report(&rep);
        base.results[0].1 = "ffffffffffffffff".into();
        let cmp = compare(&m, &rep, &base);
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
    fn slowed_perf_row_is_a_regression_inside_the_declared_band() {
        let m = manifest();
        let rep = report(&m);
        let mut base = Baselines::from_report(&rep);
        // Baseline claims a ratio high enough that the fresh 1.5 falls below
        // the 20% band: 1.5 < 2.0 * 0.8.
        base.perf[0].1 = 2.0;
        let cmp = compare(&m, &rep, &base);
        assert_eq!(cmp.findings.len(), 1);
        match &cmp.findings[0] {
            Diagnosis::PerfRegression {
                name,
                baseline,
                got,
                tolerance,
            } => {
                assert_eq!(name, "bound");
                assert_eq!(*baseline, 2.0);
                assert_eq!(*got, 1.5);
                assert_eq!(*tolerance, 0.2);
            }
            other => panic!("{other:?}"),
        }
        // Just inside the band passes: 1.5 >= 1.8 * 0.8.
        base.perf[0].1 = 1.8;
        assert!(compare(&m, &rep, &base).passed());
    }

    #[test]
    fn faster_than_band_is_a_note_not_a_failure() {
        let m = manifest();
        let rep = report(&m);
        let mut base = Baselines::from_report(&rep);
        base.perf[0].1 = 1.0; // fresh 1.5 > 1.0 * 1.2
        let cmp = compare(&m, &rep, &base);
        assert!(cmp.passed());
        assert_eq!(cmp.notes.len(), 1);
        assert!(cmp.notes[0].contains("improvement"));
    }

    #[test]
    fn set_mismatches_fail_in_both_directions() {
        let m = manifest();
        let rep = report(&m);
        let mut base = Baselines::from_report(&rep);
        base.results.push(("eq/ghost/s=1".into(), "aa".into()));
        base.perf.push(("ghost-perf".into(), 1.0));
        let cmp = compare(&m, &rep, &base);
        assert!(cmp
            .findings
            .iter()
            .any(|d| matches!(d, Diagnosis::MissingPoint { id } if id == "eq/ghost/s=1")));
        assert!(cmp
            .findings
            .iter()
            .any(|d| matches!(d, Diagnosis::MissingPerf { name } if name == "ghost-perf")));

        let base = Baselines {
            results: Vec::new(),
            perf: Vec::new(),
            ..Baselines::from_report(&rep)
        };
        let cmp = compare(&m, &rep, &base);
        assert!(cmp
            .findings
            .iter()
            .any(|d| matches!(d, Diagnosis::UnbaselinedPoint { .. })));
        assert!(cmp
            .findings
            .iter()
            .any(|d| matches!(d, Diagnosis::UnbaselinedPerf { .. })));
    }

    #[test]
    fn config_hash_mismatch_short_circuits() {
        let m = manifest();
        let rep = report(&m);
        let mut base = Baselines::from_report(&rep);
        base.config_hash = "0000000000000000".into();
        base.results[0].1 = "ffffffffffffffff".into(); // would also drift
        let cmp = compare(&m, &rep, &base);
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
}
