//! `[structure.*]` sections end to end: the checked-in tables are the ones
//! the topology crate defines, rows are ids
//! `section/topology[/links=f | /switch=Nns]` that `--filter` addresses,
//! closed-form tables never build a graph, the layout rows are the layout
//! library's numbers, and nothing a section can say makes the runner panic.

use spectralfly_exp::{
    runner, Manifest, ManifestError, PointResult, RunError, RunOptions, TopoSpec,
};
use spectralfly_topology::spec::{enumerate_lps, table1_size_classes, TopologySpec};
use std::path::Path;

fn checked_in(name: &str) -> Manifest {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../manifests")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("manifest is checked in");
    Manifest::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn run(src: &str, filter: Option<&str>) -> Vec<PointResult> {
    let m = Manifest::parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let opts = RunOptions {
        skip_external: true,
        filter: filter.map(str::to_string),
        ..Default::default()
    };
    runner::run_manifest(&m, &opts)
        .unwrap_or_else(|e| panic!("{e}\n{src}"))
        .points
}

/// A `TopologySpec` the way a manifest row spells it.
fn spelled(spec: &TopologySpec) -> String {
    let family = match spec {
        TopologySpec::Lps { .. } => "lps",
        TopologySpec::SlimFly { .. } => "slimfly",
        TopologySpec::BundleFly { .. } => "bundlefly",
        TopologySpec::DragonFly { .. } => "dragonfly",
    };
    let args: Vec<String> = spec.params().iter().map(u64::to_string).collect();
    format!("{family}({})", args.join(","))
}

fn section(body: &str) -> String {
    format!("[manifest]\nname = \"s\"\n[structure.t]\n{body}")
}

/// `table1_size_classes()` stays (an example and the root tests use it), so
/// the manifests' spelling of Table I is pinned to it.
#[test]
fn the_table1_sections_list_the_topology_crates_size_classes() {
    let names = |classes: &[[TopologySpec; 4]]| -> Vec<String> {
        classes.iter().flatten().map(spelled).collect()
    };
    let classes = table1_size_classes();
    for (manifest, expected) in [
        ("paper-full.toml", names(&classes)),
        ("paper.toml", names(&classes[..2])),
    ] {
        let m = checked_in(manifest);
        for table in ["table1", "fig4-bisection-compare"] {
            let s = m.structures.iter().find(|s| s.name == table);
            let s = s.unwrap_or_else(|| panic!("{manifest} has no {table} section"));
            assert_eq!(s.topologies, expected, "{manifest} [{table}]");
        }
    }
    let smoke = checked_in("smoke.toml");
    assert_eq!(smoke.structures[0].topologies, names(&classes[..1]));
}

#[test]
fn an_enumerated_section_is_the_family_enumeration_row_for_row() {
    let rows = run(
        &section("enumerate = [\"lps(30)\"]\nmetrics = [\"radix\", \"routers\"]\n"),
        None,
    );
    let specs = enumerate_lps(30);
    assert_eq!(rows.len(), specs.len());
    for (row, spec) in rows.iter().zip(&specs) {
        let TopologySpec::Lps { p, q } = *spec else {
            panic!("enumerate_lps yields LPS specs");
        };
        assert_eq!(row.id, format!("t/lps({p},{q})"));
        let expected = [spec.radix(), spec.num_routers()].map(|v| Some(v as f64));
        assert_eq!(row.values, expected, "{}", row.id);
        assert_eq!(
            row.summary,
            format!("radix={} routers={}", spec.radix(), spec.num_routers())
        );
    }
    // The cap drops rows, keeps the order.
    let capped = run(
        &section("enumerate = [\"lps(30)\"]\nmax_routers = 700\nmetrics = [\"routers\"]\n"),
        None,
    );
    let small: Vec<String> = (specs.iter().filter(|s| s.num_routers() <= 700))
        .map(|s| format!("t/{}", spelled(s)))
        .collect();
    assert_eq!(
        capped.iter().map(|r| r.id.clone()).collect::<Vec<_>>(),
        small
    );
}

/// The design-space scatters read closed forms only: members far past the
/// size ceiling (`lps(281,293)`: 25.2 M routers) are rows like any other, and
/// a row that was built would have failed the run.
#[test]
fn closed_form_tables_never_build_a_graph() {
    let m = checked_in("paper.toml");
    let mut scatters = m.clone();
    scatters.experiments.clear();
    scatters.structures.retain(|s| s.is_closed_form());
    let opts = RunOptions {
        skip_external: true,
        ..Default::default()
    };
    let rows = runner::run_manifest(&scatters, &opts).unwrap().points;
    let count = |section: &str| rows.iter().filter(|r| r.experiment == section).count();
    assert_eq!(count("fig4-feasible-lps"), 3247);
    assert_eq!(count("fig4-sizes-per-radix"), 706);
    let big = rows
        .iter()
        .find(|r| r.id == "fig4-feasible-lps/lps(281,293)")
        .unwrap();
    assert_eq!(big.values, [Some(282.0), Some(25_153_464.0)]);
    assert!(TopoSpec::parse("lps(281,293)").is_err());
    // A listed topology with no closed form (or invalid parameters) is built
    // — and a build failure names the row.
    let rows = run(&section("topologies = [\"ring(7)\", \"dragonfly(4,2,5)\"]\nmetrics = [\"routers\", \"radix\"]\n"), None);
    assert_eq!(rows[0].values, [Some(7.0), Some(2.0)]);
    assert_eq!(rows[1].values, [Some(20.0), Some(5.0)]);
    let bad = Manifest::parse(&section(
        "topologies = [\"lps(4,6)\"]\nmetrics = [\"routers\"]\n",
    ))
    .unwrap();
    let err = runner::run_manifest(&bad, &opts).unwrap_err();
    assert_eq!(err.to_string().split(':').next(), Some("building lps(4,6)"));
}

#[test]
fn failure_rows_are_topology_times_proportion_and_filter_addresses_one() {
    let src = section(
        "topologies = [\"lps(3,5)\", \"ring(9)\"]\nmetrics = [\"diameter\", \"bisection-upper\"]\n\
         link_failures = [0.0, 0.1, 0.5]\nseed = 0xFA11\n",
    );
    let rows = run(&src, None);
    let ids: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "t/lps(3,5)/links=0.0",
            "t/lps(3,5)/links=0.1",
            "t/lps(3,5)/links=0.5",
            "t/ring(9)/links=0.0",
            "t/ring(9)/links=0.1",
            "t/ring(9)/links=0.5",
        ]
    );
    // Pristine rows are the pristine metrics, exactly.
    assert_eq!(rows[0].values[0], Some(6.0));
    assert_eq!(rows[3].values, [Some(4.0), Some(2.0)]);
    assert_eq!(rows[3].summary, "diameter=4.000 bisection-upper=2.000");
    // One failed link in nine cuts a ring open (diameter 8, still connected,
    // one link left to cut); four or five leave no connected trial at all:
    // the row is `disc.`, and its digest that of "undefined", not of a NaN.
    assert_eq!(rows[4].values, [Some(8.0), Some(1.0)]);
    assert_eq!(rows[5].values, [None, None]);
    assert_eq!(rows[5].summary, "diameter=disc. bisection-upper=disc.");
    assert_eq!(
        rows[5].digest,
        spectralfly_exp::digest_row([("diameter", None), ("bisection-upper", None)])
    );
    assert_ne!(rows[5].digest, rows[4].digest);
    // A filtered run evaluates the one row, to the same digest: a row's seed
    // is its place in the sweep, not its place among the kept rows.
    let one = run(&src, Some("lps(3,5)/links=0.1"));
    assert_eq!(one.len(), 1);
    assert_eq!(
        one[0],
        PointResult {
            wall_ms: one[0].wall_ms,
            ..rows[1].clone()
        }
    );
    // A filter that addresses no row is an error, not an empty table.
    let none = RunOptions {
        filter: Some("no-such-row".to_string()),
        ..Default::default()
    };
    let refused = runner::run_manifest(&Manifest::parse(&src).unwrap(), &none);
    assert!(
        matches!(&refused, Err(RunError::NothingSelected { sections, .. }) if sections == &["t"]),
        "{refused:?}"
    );
    // Same section, same seed, same digests; another seed, other draws.
    let again = run(&src, None);
    assert!(rows.iter().zip(&again).all(|(a, b)| a.digest == b.digest));
    let reseeded = run(&src.replace("0xFA11", "0xFA12"), None);
    assert_eq!(
        reseeded[0].digest, rows[0].digest,
        "pristine rows do not draw"
    );
    assert_ne!(reseeded[1].digest, rows[1].digest);
}

/// Every column on the smallest member of every family, and every failure
/// metric up to the edge of the proportion range: rows, never a panic.
#[test]
fn no_section_makes_the_runner_panic() {
    let tiny = "\"ring(3)\", \"ring(4)\", \"lps(3,5)\", \"slimfly(3)\", \"slimfly(4)\", \
                \"bundlefly(5,3)\", \"bundlefly(5,4)\", \"dragonfly(2)\", \"dragonfly(2,1,2)\", \"dragonfly(3,1,2)\"";
    let all = "\"routers\", \"radix\", \"diameter\", \"mean-distance\", \"girth\", \"lambda2\", \"mu1\", \
               \"ramanujan\", \"bisection-lower\", \"bisection-upper\", \"bisection-normalized\"";
    let rows = run(
        &section(&format!("topologies = [{tiny}]\nmetrics = [{all}]\n")),
        None,
    );
    assert_eq!(rows.len(), 10);
    for row in &rows {
        assert_eq!(row.values.len(), 11, "{}", row.id);
        assert!(
            row.values.iter().flatten().all(|v| v.is_finite()),
            "{}: {}",
            row.id,
            row.summary
        );
        assert!(
            row.values[0].is_some() && row.values[2].is_some(),
            "{}",
            row.id
        );
    }
    // bundlefly(5,4) is irregular: the spectral columns are undefined there.
    let irregular = rows.iter().find(|r| r.id == "t/bundlefly(5,4)").unwrap();
    assert!(
        irregular
            .summary
            .contains(" mu1=- ramanujan=- bisection-lower=- "),
        "{}",
        irregular.summary
    );
    let swept = run(
        &section(&format!(
            "topologies = [{tiny}]\nmetrics = [\"diameter\", \"mean-distance\", \"bisection-upper\"]\n\
             link_failures = [0, 0.34, 0.999]\n"
        )),
        None,
    );
    assert_eq!(swept.len(), 30);
    assert!(swept
        .iter()
        .all(|r| r.values.iter().flatten().all(|v| v.is_finite())));
}

/// Every topology a checked-in manifest lists from the four paper families
/// has admissible parameters, read off the spec without building it: a
/// manifest cannot name an LPS(19, 7) (q < 2√p) again.
#[test]
fn every_listed_paper_topology_is_admissible() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../manifests");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if !name.ends_with(".toml") {
            continue;
        }
        let m = checked_in(&name);
        let experiments = m.experiments.iter().flat_map(|e| &e.topologies);
        for listed in experiments.chain(m.structures.iter().flat_map(|s| &s.topologies)) {
            let topo = TopoSpec::parse(listed).unwrap();
            let spec = match (topo.family.as_str(), topo.args.as_slice()) {
                ("lps", &[p, q]) => TopologySpec::Lps { p, q },
                ("slimfly", &[q]) => TopologySpec::SlimFly { q },
                ("bundlefly", &[p, s]) => TopologySpec::BundleFly { p, s },
                ("dragonfly", &[a]) => TopologySpec::DragonFly { a },
                _ => continue,
            };
            assert!(
                spec.is_valid(),
                "{name}: {listed} is not a valid {}",
                spec.name()
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "{checked}");
}

/// The checked-in layout rows are the library pipeline, value for value, at
/// the constants of the binaries they replaced: Table II is `place_topology`
/// (60k annealing steps), `classify_links` at 5 m and
/// `PowerModel::summarize` over the partitioner's bisection at the section
/// seed, beside three SkyWalks seeded `0x50FA + t`; Fig. 11 is
/// `latency_profile` under a 40k-step placement over one SkyWalk seeded
/// `0x5111`. The printed cells are the binaries' output.
#[test]
fn smoke_layout_rows_are_the_library_pipeline() {
    use spectralfly_graph::layout::wiring::DEFAULT_ELECTRICAL_LIMIT_M;
    use spectralfly_graph::layout::{
        classify_links, latency_profile, place_topology, PowerModel, QapConfig,
    };
    use spectralfly_graph::partition::bisection_bandwidth;
    use spectralfly_topology::skywalk::{SkyWalkConfig, SkyWalkGraph};
    use spectralfly_topology::Topology;

    let mut m = checked_in("smoke.toml");
    m.experiments.clear();
    m.structures
        .retain(|s| ["table2-layout", "fig11-latency"].contains(&s.name.as_str()));
    let report = runner::run_manifest(&m, &RunOptions::default()).unwrap();
    let rows = &report.points;
    assert_eq!(rows.len(), 2 + 2 * 6);
    let row = |id: &str| &rows.iter().find(|r| r.id == id).unwrap().values;
    let qap = |anneal_iters| QapConfig {
        anneal_iters,
        ..Default::default()
    };
    for topology in ["lps(11,7)", "slimfly(9)"] {
        let g = TopoSpec::parse(topology).unwrap().build().unwrap();
        let skywalk = |positions: &[(f64, f64)], seed| {
            let config = SkyWalkConfig {
                radix: g.max_degree(),
                ..Default::default()
            };
            SkyWalkGraph::new(positions, &config, seed).unwrap()
        };

        let placement = place_topology(&g, &qap(60_000));
        let wiring = classify_links(&g, &placement, DEFAULT_ELECTRICAL_LIMIT_M);
        let bisection = bisection_bandwidth(&g, 2, 0x7AB2);
        let power = PowerModel::default().summarize(&wiring, bisection);
        let (mut mean, mut max) = (0.0, 0.0);
        for t in 0..3 {
            let sky = skywalk(&placement.router_positions_m(), 0x50FA + t);
            let sky_placement = place_topology(sky.graph(), &qap(60_000));
            let sky_wiring =
                classify_links(sky.graph(), &sky_placement, DEFAULT_ELECTRICAL_LIMIT_M);
            (mean, max) = (mean + sky_wiring.mean_wire_m, max + sky_wiring.max_wire_m);
        }
        let expected = [
            g.num_vertices() as f64,
            g.max_degree() as f64,
            wiring.mean_wire_m,
            mean / 3.0,
            wiring.max_wire_m,
            max / 3.0,
            wiring.electrical_links as f64,
            wiring.optical_links as f64,
            bisection as f64,
            power.total_power_w,
            power.mw_per_gbps,
        ];
        assert_eq!(
            *row(&format!("table2-layout/{topology}")),
            expected.map(Some),
            "{topology}"
        );

        let placement = place_topology(&g, &qap(40_000));
        let sky = skywalk(&placement.router_positions_m(), 0x5111);
        let sky_placement = place_topology(sky.graph(), &qap(40_000));
        for ns in [0, 50, 100, 150, 200, 250] {
            let ours = latency_profile(&g, &placement, ns as f64);
            let theirs = latency_profile(sky.graph(), &sky_placement, ns as f64);
            let expected = [
                ours.average_latency_ns / theirs.average_latency_ns,
                ours.max_latency_ns / theirs.max_latency_ns,
            ];
            let id = format!("fig11-latency/{topology}/switch={ns}ns");
            assert_eq!(*row(&id), expected.map(Some), "{id}");
        }
    }
    let tables = report.tables(&m);
    for printed in [
        "lps(11,7) | 168 | 12 | 8.268 | 8.059 | 20.400 | 19.533 | 165 | 843 | 288 | 9199 | 319.400\n",
        "slimfly(9) | 162 | 13 | 8.926 | 8.154 | 19.600 | 19.600 | 136 | 917 | 369 | 9679 | 262.309\n",
        "lps(11,7)/switch=250ns | 1.012 | 0.805\n",
        "slimfly(9)/switch=50ns | 0.936 | 0.888\n",
    ] {
        assert!(tables.contains(printed), "{printed}{tables}");
    }
}

/// Every layout column on the smallest member of every family: rows of
/// finite values, never a panic.
#[test]
fn layout_columns_on_the_smallest_topologies_are_rows() {
    let tiny = "\"ring(3)\", \"lps(3,5)\", \"slimfly(3)\", \"bundlefly(5,4)\", \"dragonfly(2)\"";
    let table2 = "\"wire-mean\", \"wire-max\", \"skywalk-wire-mean\", \"skywalk-wire-max\", \
                  \"links-electrical\", \"links-optical\", \"power-w\", \"mw-per-gbps\"";
    let fig11 = "\"routers\", \"latency-avg-vs-skywalk\", \"latency-max-vs-skywalk\"";
    for (metrics, rows) in [(table2, 5), (fig11, 5 * 6)] {
        let body = format!("topologies = [{tiny}]\nmetrics = [{metrics}]\n");
        let rows_of = run(&section(&body), None);
        assert_eq!(rows_of.len(), rows);
        let finite = |row: &&PointResult| row.values.iter().all(|v| v.is_some_and(f64::is_finite));
        assert!(rows_of.iter().all(|row| finite(&row)), "{rows_of:?}");
    }
}

/// The `ManifestError::Field` parsing `src` fails with: section, field, reason.
fn refused(src: &str) -> (String, String, String) {
    match Manifest::parse(src) {
        Err(ManifestError::Field {
            section,
            field,
            reason,
        }) => (section, field, reason),
        other => panic!("{src}: expected a Field error, got {other:?}"),
    }
}

/// A latency column's rows are switch latencies: only the closed-form
/// columns can share its table, and it has no failure sweep. Both mistakes
/// are typed errors naming the field.
#[test]
fn latency_columns_share_a_table_with_routers_and_radix_only() {
    let table = |metrics: &str, failures: &str| {
        section(&format!(
            "topologies = [\"lps(3,5)\"]\nmetrics = [{metrics}]\n{failures}"
        ))
    };
    let ok = table("\"routers\", \"radix\", \"latency-max-vs-skywalk\"", "");
    assert!(Manifest::parse(&ok).is_ok());
    let failures = "link_failures = [0.1]\n";
    for (metrics, failures, field, reason) in [
        (
            "\"latency-avg-vs-skywalk\", \"wire-mean\"",
            "",
            "metrics",
            "wire-mean cannot share",
        ),
        (
            "\"diameter\", \"latency-max-vs-skywalk\"",
            "",
            "metrics",
            "diameter cannot share",
        ),
        (
            "\"latency-avg-vs-skywalk\"",
            failures,
            "link_failures",
            "not failure levels",
        ),
    ] {
        let (section, f, r) = refused(&table(metrics, failures));
        assert_eq!(
            (section.as_str(), f.as_str()),
            ("structure.t", field),
            "{metrics}"
        );
        assert!(r.contains(reason), "{metrics}: {r}");
    }
}

/// `[external.*]` is no section kind any more: it is refused like any
/// unknown section, and the error names the kinds there are.
#[test]
fn an_external_section_is_an_unknown_section() {
    let src = "[manifest]\nname = \"x\"\n[external.t2]\nbin = \"table2_layout\"\n";
    let (section, field, reason) = refused(src);
    assert_eq!((section.as_str(), field.as_str()), ("external.t2", ""));
    let kinds = "expected [manifest], [experiment.*] or [structure.*]";
    assert_eq!(reason, format!("unknown section; {kinds}"));
}
