//! The benchmark's metric tables — name, unit, direction, and for every layer
//! metric the (end-to-end metric, workload) pairs it is predicted to move —
//! plus the order statistics every reported value goes through.
//! The tests below hold these tables against `../BENCHMARK.json`.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// `(end-to-end metric, workload)` pairs this number should move; every
    /// other pairing is predicted unchanged. Empty for the end-to-end metrics
    /// themselves and for layers no workload executes today.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// Host-time metrics a user of the simulator sees, the same on every workload.
pub const END_TO_END: &[Metric] = &[
    metric("setup_s", "s", "lower", &[]),
    metric("run_wall_s", "s", "lower", &[]),
    metric("packets_per_s", "1/s", "higher", &[]),
    metric("peak_rss_mb", "MiB", "lower", &[]),
];

const SAT: &[(&str, &str)] = &[
    ("run_wall_s", "sat_seq"),
    ("run_wall_s", "sat_shards2"),
    ("run_wall_s", "steady_mix_churn"),
];
const SAT_SETUP: &[(&str, &str)] = &[
    ("setup_s", "sat_seq"),
    ("setup_s", "sat_shards2"),
    ("setup_s", "steady_mix_churn"),
];
const SIMS: &[(&str, &str)] = &[
    ("run_wall_s", "sat_seq"),
    ("run_wall_s", "sat_shards2"),
    ("run_wall_s", "steady_mix_churn"),
    ("run_wall_s", "cayley_100k"),
];
const SHARDS2: &[(&str, &str)] = &[("run_wall_s", "sat_shards2")];
const CHURN: &[(&str, &str)] = &[("run_wall_s", "steady_mix_churn")];
const CAYLEY: &[(&str, &str)] = &[("run_wall_s", "cayley_100k")];
const SWEEP: &[(&str, &str)] = &[("run_wall_s", "sweep_rebuild")];
const SWEEP_SETUP: &[(&str, &str)] = &[("setup_s", "sweep_rebuild")];
const STATS: &[(&str, &str)] = &[
    ("run_wall_s", "sat_seq"),
    ("run_wall_s", "steady_mix_churn"),
];

/// Single-layer numbers of the traced run. Kinds (README "Per-layer metrics"):
/// spans and counts are read on the workload being run and are 0 where the
/// workload never enters the layer; probes are a fixed suite on the paper
/// fabrics, identical in every traced run.
pub const PER_LAYER: &[Metric] = &[
    // Spans around the workload's own set-up and simulate calls.
    metric(
        "topology.build_s",
        "s",
        "lower",
        &[("setup_s", "cayley_100k"), ("run_wall_s", "sweep_rebuild")],
    ),
    metric("graph.oracle.build_dense_s", "s", "lower", SAT_SETUP),
    metric(
        "graph.oracle.build_cayley_s",
        "s",
        "lower",
        &[("setup_s", "cayley_100k")],
    ),
    metric("simnet.network.with_faults_s", "s", "lower", SWEEP),
    metric(
        "simnet.workload.gen_s",
        "s",
        "lower",
        &[
            ("setup_s", "sat_seq"),
            ("setup_s", "sat_shards2"),
            ("setup_s", "steady_mix_churn"),
            ("setup_s", "cayley_100k"),
        ],
    ),
    metric("simnet.engine.new_s", "s", "lower", SHARDS2),
    metric("simnet.engine.run_s", "s", "lower", SIMS),
    metric("simnet.engine.cpu_s", "s", "lower", SIMS),
    metric("exp.runner.build_share", "ratio", "lower", SWEEP),
    metric("exp.runner.sim_share", "ratio", "lower", SWEEP),
    // Exact counts read from the workload's SimResults.
    metric("simnet.engine.events", "count", "lower", SIMS),
    metric("simnet.engine.events_per_packet", "ratio", "lower", SIMS),
    metric("simnet.engine.blocked_parks", "count", "lower", SAT),
    metric("simnet.engine.wakeups", "count", "lower", SAT),
    metric(
        "simnet.engine.arena_slots",
        "count",
        "lower",
        &[("peak_rss_mb", "sat_seq"), ("peak_rss_mb", "cayley_100k")],
    ),
    metric("simnet.engine.timed_retries", "count", "lower", SIMS),
    metric("simnet.engine.ns_per_event", "ns", "lower", SIMS),
    metric("simnet.fault.drops", "count", "lower", CHURN),
    metric("simnet.fault.retransmits", "count", "lower", CHURN),
    metric("simnet.fault.failed", "count", "lower", CHURN),
    // Fixed probes: oracle tier.
    metric("graph.oracle.build_landmark_s", "s", "lower", &[]),
    metric(
        "graph.oracle.bytes_dense",
        "bytes",
        "lower",
        &[
            ("peak_rss_mb", "sat_seq"),
            ("peak_rss_mb", "sat_shards2"),
            ("peak_rss_mb", "steady_mix_churn"),
        ],
    ),
    metric(
        "graph.oracle.bytes_cayley",
        "bytes",
        "lower",
        &[("peak_rss_mb", "cayley_100k")],
    ),
    metric("graph.oracle.min_ports_per_s.dense", "1/s", "higher", SAT),
    metric(
        "graph.oracle.min_ports_per_s.dense_scan",
        "1/s",
        "higher",
        &[],
    ),
    metric(
        "graph.oracle.min_ports_per_s.cayley",
        "1/s",
        "higher",
        CAYLEY,
    ),
    metric(
        "graph.oracle.min_ports_per_s.landmark",
        "1/s",
        "higher",
        &[],
    ),
    // Fixed probes: routing decision.
    metric(
        "simnet.routing.decisions_per_s.minimal",
        "1/s",
        "higher",
        SWEEP,
    ),
    metric(
        "simnet.routing.decisions_per_s.ugal-l",
        "1/s",
        "higher",
        &[
            ("run_wall_s", "sat_seq"),
            ("run_wall_s", "sat_shards2"),
            ("run_wall_s", "steady_mix_churn"),
            ("run_wall_s", "sweep_rebuild"),
        ],
    ),
    metric(
        "simnet.routing.decisions_per_s.ugal-g",
        "1/s",
        "higher",
        &[],
    ),
    metric(
        "simnet.routing.decisions_per_s.cayley_minimal",
        "1/s",
        "higher",
        CAYLEY,
    ),
    // Fixed probes: the sharded engine against the sequential one.
    metric("graph.partition.kway2_s", "s", "lower", SHARDS2),
    metric("simnet.parallel.event_surplus", "ratio", "lower", SHARDS2),
    metric("simnet.parallel.speedup_vs_seq", "ratio", "higher", SHARDS2),
    metric("simnet.parallel.epochs_upper", "count", "lower", SHARDS2),
    metric("host.cores", "count", "higher", SHARDS2),
    // Fixed probes: statistics, patterns, faults, jobs.
    metric("simnet.stats.record_per_s", "1/s", "higher", STATS),
    metric("simnet.stats.finish_s", "s", "lower", STATS),
    metric("simnet.pattern.draws_per_s", "1/s", "higher", CHURN),
    metric("simnet.fault.expand_s", "s", "lower", CHURN),
    metric("simnet.job.resolve_s", "s", "lower", CHURN),
    // Fixed probes: the experiment layer.
    metric("exp.manifest.parse_s", "s", "lower", SWEEP_SETUP),
    metric("exp.runner.expand_s", "s", "lower", SWEEP_SETUP),
    metric("exp.digest.per_s", "1/s", "higher", SWEEP),
    // Fixed probes: analysis-only layers no workload pays for today; ROADMAP
    // item 6 (a spectral report in every manifest run) will start to.
    metric("graph.partition.bisect_s", "s", "lower", &[]),
    metric("graph.spectral.summary_s", "s", "lower", &[]),
    metric("graph.failures.point_s", "s", "lower", &[]),
    // The host-speed reference over the traced rounds (`hostspeed`): what the
    // end-to-end times of an untraced run are divided by.
    metric("host.slowness", "ratio", "lower", &[]),
    // The tracer itself.
    metric("trace.overhead", "ratio", "lower", &[]),
    metric("trace.unattributed_share", "ratio", "lower", &[]),
];

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile, by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`; 0 below two samples.
pub fn iqr(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    quartile(3) - quartile(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Kind;

    #[test]
    fn median_and_iqr_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        let v = [7.0, 1.0, 11.0, 2.0, 4.0];
        assert_eq!(median(&v), 4.0);
        assert!((iqr(&v) - 7.5).abs() < 1e-12);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(iqr(&[5.0]), 0.0);
    }

    fn spec() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::str)
            .unwrap_or_else(|| panic!("no string {key:?}"))
    }

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    /// `BENCHMARK.json` lists the metrics the binary prints, with the same
    /// units and directions, within the driver's limits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let spec = spec();
        assert_eq!(
            spec.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = spec
            .get("run_seconds")
            .and_then(Json::num)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let paths: Vec<_> = spec
            .get("paths")
            .expect("paths")
            .items()
            .iter()
            .map(Json::str)
            .collect();
        assert_eq!(paths, [Some("benchmark")]);

        let workloads = spec.get("workloads").expect("workloads").items();
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, Kind::ALL.map(Kind::name));
        for w in workloads {
            assert_eq!(w.keys(), ["name", "why"]);
            let why = field(w, "why");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why of {}",
                field(w, "name")
            );
        }

        for (key, table, keys) in [
            (
                "end_to_end",
                END_TO_END,
                &["name", "unit", "better", "bound"][..],
            ),
            ("per_layer", PER_LAYER, &["name", "unit", "better"][..]),
        ] {
            let listed = spec.get(key).expect(key).items();
            assert_eq!(listed.len(), table.len(), "{key}");
            assert!(listed.len() <= 128);
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(entry.keys(), keys, "{}", m.name);
                assert_eq!(field(entry, "name"), m.name);
                assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
                assert_eq!(field(entry, "better"), m.better, "{}", m.name);
                assert!(is_name(m.name), "{}", m.name);
                assert!(matches!(m.better, "lower" | "higher"));
            }
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        all.extend(names);
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");

        // setup_s is present, in seconds, lower is better, with the largest bound.
        let bounds: Vec<(&str, f64)> = spec
            .get("end_to_end")
            .expect("end_to_end")
            .items()
            .iter()
            .map(|e| {
                (
                    field(e, "name"),
                    e.get("bound").and_then(Json::num).expect("bound"),
                )
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| *n == "setup_s")
            .expect("setup_s")
            .1;
        assert!(bounds
            .iter()
            .all(|&(_, b)| b > 0.0 && b <= setup && b <= 0.25));
        assert_eq!((END_TO_END[0].unit, END_TO_END[0].better), ("s", "lower"));
    }

    /// Every predicted effect of a layer metric names an end-to-end metric and
    /// a workload that exist.
    #[test]
    fn every_moves_target_exists() {
        for m in PER_LAYER {
            for (metric, workload) in m.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *metric),
                    "{}: {metric}",
                    m.name
                );
                assert!(Kind::parse(workload).is_some(), "{}: {workload}", m.name);
            }
        }
    }

    /// The `[profile.release]` table of a manifest, comments and blanks dropped.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark measures the code users run: same release profile as the root.
    #[test]
    fn release_profile_mirrors_the_root_manifest() {
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(
            !root.is_empty(),
            "the root manifest has a [profile.release] table"
        );
        assert_eq!(root, release_profile(include_str!("../Cargo.toml")));
    }
}
