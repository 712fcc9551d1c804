//! Property tests for manifest parsing: any manifest the model can express
//! round-trips spec → TOML → spec exactly (all five axes plus the run knobs),
//! and invalid values on any axis fail with a typed error naming the
//! offending field — the manifest mirror of the fault-spec byte-offset errors.

use proptest::prelude::*;
use spectralfly_exp::{Baselines, Experiment, Manifest, ManifestError, Mode, Structure, TopoSpec};
use spectralfly_graph::Column;
use std::path::Path;

const TOPOLOGIES: &[&str] = &[
    "ring(5)",
    "ring(9)x2",
    "lps(11,7)x4",
    "slimfly(9)x4",
    "dragonfly(8,4,21)x4",
    "bundlefly(13,3)x3",
];
const ROUTINGS: &[&str] = &["minimal", "valiant", "ugal-l", "ugal-g"];
const PATTERNS: &[&str] = &[
    "random",
    "adversarial(4)",
    "tornado",
    "hotspot(8,0.2)",
    "nearest-group(32)",
];
const FAULTS: &[&str] = &["none", "links(0.05)", "router(0)", "link(0,1)"];
const JOBS: &[&str] = &[
    "allreduce-ring(4096) x 8",
    "traffic(0.5, random, 1024) x 8 + mmpp(0.1, 0.8) x 4",
    "allgather x 8 @ random + onoff(0.9, 1.4) x 4",
];
const SCRIPTS: &[&str] = &["none", "churn(1mhz, 5us)", "churn(10khz, 2us)"];
const ROW_TOPOLOGIES: &[&str] = &["ring(5)", "lps(11,7)", "slimfly(9)", "dragonfly(8,4,21)"];
const ENUMERATIONS: &[&str] = &["lps(30)", "slimfly(12)", "bundlefly(30,6)", "dragonfly(9)"];

/// Pick a non-empty subset of `pool` from a drawn bitmask (wrapping the mask
/// so every draw selects at least the first element).
fn subset(pool: &[&str], mask: usize) -> Vec<String> {
    let mask = (mask % (1 << pool.len())).max(1);
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, s)| s.to_string())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// spec → manifest → canonical TOML → manifest is the identity, and the
    /// canonical TOML is a fixpoint (so config hashes are stable), across
    /// random selections on all five axes and all three modes.
    #[test]
    fn manifests_round_trip_across_all_axes(
        topo_mask in 1usize..64,
        routing_mask in 1usize..16,
        pattern_mask in 0usize..32,
        fault_mask in 1usize..16,
        script_mask in 1usize..8,
        shard_mask in 1usize..8,
        jobs_mask in 0usize..8,
        n_seeds in 1usize..4,
        seed0 in 0u64..1_000_000,
        load_centi in 5u64..100,
        mode_pick in 0usize..3,
        messages in 1usize..6,
        bytes in 512u64..8192,
        warmup in 0u64..5_000,
        measure in 1u64..20_000,
        fault_seed in 0u64..1_000_000,
        row_mask in 1usize..16,
        enumerated in 0usize..3,
        column_mask in 1usize..2048,
        failure_mask in 0usize..8,
    ) {
        // The pattern axis only drives steady-state sources; outside steady
        // mode it must stay empty (the parser enforces this as a typed error,
        // exercised below).
        let mode = match mode_pick {
            0 => Mode::Finite { messages, bytes },
            1 => Mode::Offered { messages, bytes },
            _ => Mode::Steady { warmup_ns: warmup, measure_ns: measure, bytes },
        };
        let patterns = if matches!(mode, Mode::Steady { .. }) && pattern_mask > 0 {
            subset(PATTERNS, pattern_mask)
        } else {
            Vec::new()
        };
        // The jobs axis, like patterns, only exists in steady mode, and a
        // steady section names one of the two.
        let jobs = if matches!(mode, Mode::Steady { .. }) && jobs_mask > 0 && patterns.is_empty() {
            subset(JOBS, jobs_mask)
        } else {
            Vec::new()
        };
        let shards: Vec<usize> = [1usize, 2, 4]
            .iter()
            .enumerate()
            .filter(|(i, _)| shard_mask & (1 << i) != 0)
            .map(|(_, &s)| s)
            .collect();
        let exp = Experiment {
            name: "sweep".to_string(),
            topologies: subset(TOPOLOGIES, topo_mask)
                .iter()
                .map(|t| TopoSpec::parse(t).unwrap().canonical())
                .collect(),
            routings: subset(ROUTINGS, routing_mask),
            patterns,
            jobs,
            faults: subset(FAULTS, fault_mask),
            fault_scripts: subset(SCRIPTS, script_mask),
            shards,
            seeds: (0..n_seeds as u64).map(|i| seed0 + i).collect(),
            loads: vec![load_centi as f64 / 100.0],
            mode,
            fault_seed,
            ranks: None,
            relative_to: None,
        };
        // A structural table: rows listed or enumerated (capped or not), any
        // columns — under link failures, any of the three that have a sweep.
        let swept = failure_mask > 0;
        let columns: Vec<Column> = Column::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| column_mask & (1 << i) != 0)
            .map(|(_, c)| c)
            .collect();
        let sweepable = [Column::Diameter, Column::MeanDistance, Column::BisectionUpper];
        let structure = Structure {
            name: "table".to_string(),
            topologies: if enumerated == 0 { subset(ROW_TOPOLOGIES, row_mask) } else { Vec::new() },
            enumerate: if enumerated == 0 { Vec::new() } else { subset(ENUMERATIONS, row_mask) },
            max_routers: (enumerated == 2).then_some(2_000 + seed0),
            metrics: if swept { sweepable[..1 + column_mask % 3].to_vec() } else { columns },
            link_failures: [0.0, 0.1, 0.55]
                .into_iter()
                .enumerate()
                .filter(|(i, _)| failure_mask & (1 << i) != 0)
                .map(|(_, f)| f)
                .collect(),
            seed: fault_seed,
        };
        let manifest = Manifest {
            name: "prop".to_string(),
            description: "round-trip property".to_string(),
            experiments: vec![exp],
            structures: vec![structure],
        };

        let rendered = manifest.to_toml();
        let reparsed = match Manifest::parse(&rendered) {
            Ok(m) => m,
            Err(e) => return Err(TestCaseError::Fail(format!("reparse failed: {e}\n{rendered}"))),
        };
        prop_assert_eq!(&reparsed, &manifest, "round-trip changed the manifest");
        prop_assert_eq!(reparsed.to_toml(), rendered, "canonical TOML is not a fixpoint");
        prop_assert_eq!(reparsed.config_hash(), manifest.config_hash());
    }

    /// Corrupting any one of the six string axes fails with a `Field` error naming
    /// exactly that axis (never a panic, never a misattributed field).
    #[test]
    fn axis_errors_name_the_offending_field(axis in 0usize..6, seed in 0u64..1_000) {
        let bogus = format!("no-such-thing-{seed}");
        let (field, line): (&str, String) = match axis {
            0 => ("topologies", format!("topologies = [\"{bogus}(3)\"]\nroutings = [\"minimal\"]\n")),
            1 => ("routings", format!("topologies = [\"ring(9)\"]\nroutings = [\"{bogus}\"]\n")),
            2 => ("patterns", format!(
                "topologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nmode = \"steady\"\npatterns = [\"{bogus}\"]\n"
            )),
            3 => ("faults", format!(
                "topologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nfaults = [\"{bogus}(1)\"]\n"
            )),
            4 => ("fault_scripts", format!(
                "topologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nfault_scripts = [\"{bogus}(1)\"]\n"
            )),
            _ => ("jobs", format!(
                "topologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nmode = \"steady\"\njobs = [\"{bogus} x 4\"]\n"
            )),
        };
        let src = format!("[manifest]\nname = \"x\"\n[experiment.bad]\n{line}");
        match Manifest::parse(&src) {
            Err(ManifestError::Field { section, field: f, reason }) => {
                prop_assert_eq!(section, "experiment.bad".to_string());
                prop_assert_eq!(f, field.to_string());
                prop_assert!(!reason.is_empty(), "reason must explain the rejection");
            }
            other => return Err(TestCaseError::Fail(format!(
                "expected a Field error on {field}, got {other:?}"
            ))),
        }
    }
}

/// The five-axis fixture from the smoke manifest's grammar parses and its
/// typed errors survive through the `Display` path the CLI prints.
#[test]
fn display_of_field_errors_is_actionable() {
    let err = Manifest::parse(
        "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"warp\"]\n",
    )
    .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("[experiment.e]"), "{text}");
    assert!(text.contains("routings"), "{text}");
    assert!(
        text.contains("minimal"),
        "the error should list the registered names: {text}"
    );
}

/// TOML-level failures keep their byte-precise location (the manifest mirror
/// of `FaultError::BadSpec`'s offset).
#[test]
fn toml_errors_carry_line_and_offset() {
    let src = "[manifest]\nname = \"x\"\n[experiment.e\n";
    match Manifest::parse(src) {
        Err(ManifestError::Toml(e)) => {
            assert_eq!(e.line, 3);
            assert!(e.offset > 0);
            assert!(e.to_string().contains("line 3"), "{e}");
        }
        other => panic!("{other:?}"),
    }
}

/// Every checked-in manifest and benchmark workload parses, its canonical TOML
/// re-parses equal, and each one with a checked-in baseline still hashes to
/// the `config_hash` recorded there: a parser change that altered what any of
/// them means, or how it renders, fails here.
#[test]
fn checked_in_manifests_round_trip_and_keep_their_config_hash() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut parsed, mut hashed) = (0, 0);
    for dir in ["manifests", "benchmark/workloads"] {
        let mut paths: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        paths.sort();
        for path in paths {
            // A workload's `{seed}` is the benchmark's --seed (default 3606).
            let src = std::fs::read_to_string(&path)
                .unwrap()
                .replace("{seed}", "3606");
            let m = Manifest::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let canonical = Manifest::parse(&m.to_toml()).unwrap();
            assert_eq!(canonical, m, "{}", path.display());
            parsed += 1;
            let baseline =
                (path.parent().unwrap().join("baselines")).join(format!("{}.toml", m.name));
            if let Ok(recorded) = std::fs::read_to_string(&baseline) {
                let recorded = Baselines::parse(&recorded).unwrap();
                assert_eq!(recorded.config_hash, m.config_hash(), "{}", path.display());
                hashed += 1;
            }
        }
    }
    // smoke, interference, paper, paper-full and the two benchmark workloads;
    // smoke and interference have baselines.
    assert_eq!((parsed, hashed), (6, 2));
}
