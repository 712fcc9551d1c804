//! Golden-digest battery over the pinned smoke manifest.
//!
//! Locks the engine-equivalence contract end to end: in the tie-free regime
//! the sequential wakeup engine (shards = 1) and the conservative parallel
//! engine (shards = 2, 4) must produce bit-identical `SimResults` digests,
//! and the digests must match the checked-in release-recorded baselines —
//! which also proves the digests are stable across optimisation profiles.

use spectralfly_exp::{expand, runner, Baselines, Manifest, RunOptions, TopoSpec};
use spectralfly_simnet::SimNetwork;
use std::collections::BTreeMap;
use std::path::Path;

fn smoke_manifest() -> Manifest {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../manifests/smoke.toml");
    let src = std::fs::read_to_string(&path).expect("manifests/smoke.toml is checked in");
    Manifest::parse(&src).expect("checked-in smoke manifest parses")
}

fn smoke_baselines() -> Baselines {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../manifests/baselines/smoke.toml");
    let src = std::fs::read_to_string(&path).expect("manifests/baselines/smoke.toml is checked in");
    Baselines::parse(&src).expect("checked-in baselines parse")
}

/// Every shard count on the engine-equivalence axis — run *separately*, not
/// through the runner's own divergence assertion — produces the same digest.
/// shards = 1 is a different engine than shards > 1, so this is the
/// sequential-vs-parallel cross-check, not just shard invariance.
#[test]
fn engine_equivalence_digests_are_bit_identical_across_shard_counts() {
    let m = smoke_manifest();
    let exp = m
        .experiments
        .iter()
        .find(|e| e.name == "engine-equivalence")
        .expect("smoke manifest pins an engine-equivalence experiment");
    assert_eq!(
        exp.shards,
        vec![1, 2, 4],
        "the battery must span the sequential engine and two parallel shardings"
    );
    let mut nets: BTreeMap<String, SimNetwork> = BTreeMap::new();
    for t in &exp.topologies {
        let spec = TopoSpec::parse(t).unwrap();
        let graph = spec.build().unwrap();
        nets.insert(t.clone(), SimNetwork::new(graph, spec.concentration));
    }
    let points = expand(exp);
    assert!(!points.is_empty());
    for p in &points {
        let per_shard: Vec<(usize, String)> = p
            .shards
            .iter()
            .map(|&s| {
                let mut solo = p.clone();
                solo.shards = vec![s];
                let r = runner::run_point(&nets[&p.topology], &solo)
                    .unwrap_or_else(|e| panic!("{}: {e}", p.id));
                (s, r.digest)
            })
            .collect();
        let (_, golden) = &per_shard[0];
        for (s, d) in &per_shard {
            assert_eq!(
                d, golden,
                "{}: shards={s} diverged from shards={} ({d} vs {golden})",
                p.id, per_shard[0].0
            );
        }
    }
}

/// The full smoke manifest (points and structural rows) reproduces the
/// checked-in golden digests exactly. The baselines were recorded by a
/// release build; this test runs unoptimised — passing proves the digests do
/// not depend on the optimisation profile, only on the simulation (and, for
/// the `[structure.*]` rows, on the graph numerics) itself.
#[test]
fn smoke_manifest_reproduces_checked_in_golden_digests() {
    let m = smoke_manifest();
    let base = smoke_baselines();
    assert_eq!(base.manifest, m.name);
    assert_eq!(
        base.config_hash,
        m.config_hash(),
        "baselines were recorded for a different smoke manifest; re-record with \
         `repro run manifests/smoke.toml --record-baselines`"
    );
    let opts = RunOptions {
        skip_external: true,
        ..Default::default()
    };
    let report = runner::run_manifest(&m, &opts).expect("smoke manifest runs clean");
    let golden: BTreeMap<&str, &str> = base
        .results
        .iter()
        .map(|(id, d)| (id.as_str(), d.as_str()))
        .collect();
    assert_eq!(report.points.len(), golden.len(), "point set drifted");
    for p in &report.points {
        let want = golden
            .get(p.id.as_str())
            .unwrap_or_else(|| panic!("{} missing from checked-in baselines", p.id));
        assert_eq!(
            &p.digest.as_str(),
            want,
            "{}: digest drifted from golden baseline",
            p.id
        );
    }
}

/// The parallel engine is shard-count-invariant even outside the tie-free
/// regime: the degraded (faulted, steady-state) points must digest the same
/// at 2 and 4 shards. Exercised here via the runner's own divergence check —
/// a divergence would surface as `RunError::ShardDivergence`, not a silent
/// baseline mismatch.
#[test]
fn parallel_engine_is_shard_invariant_on_degraded_points() {
    let m = smoke_manifest();
    let exp = m
        .experiments
        .iter()
        .find(|e| e.name == "degraded")
        .expect("smoke manifest pins a degraded experiment");
    assert_eq!(exp.shards, vec![2, 4]);
    let mut only = m.clone();
    only.experiments.retain(|e| e.name == "degraded");
    only.structures.clear();
    only.external.clear();
    let opts = RunOptions {
        skip_external: true,
        ..Default::default()
    };
    let report = runner::run_manifest(&only, &opts)
        .expect("2-shard and 4-shard runs of the faulted steady-state points agree");
    assert!(!report.points.is_empty());
}

/// The paper's headline contrast, as the gate sees it: in the smoke manifest's
/// `profile` table the LPS row certifies Ramanujan and the DragonFly row does
/// not, with µ₁ an order of magnitude apart.
#[test]
fn smoke_profile_certifies_lps_ramanujan_and_dragonfly_not() {
    let m = smoke_manifest();
    let section = (m.structures.iter())
        .find(|s| s.name == "profile")
        .expect("smoke manifest pins a structural profile section");
    let column = |name: &str| {
        let at = section.metrics.iter().position(|c| c.name() == name);
        at.unwrap_or_else(|| panic!("the profile section has no {name} column"))
    };
    let opts = RunOptions {
        skip_external: true,
        filter: Some("profile/".to_string()),
        ..Default::default()
    };
    let report = runner::run_manifest(&m, &opts).expect("structural rows evaluate");
    assert_eq!(report.points.len(), section.topologies.len());
    let row = |topology: &str| {
        let id = format!("profile/{topology}");
        let found = report.points.iter().find(|p| p.id == id);
        &found.unwrap_or_else(|| panic!("no row {id}")).values
    };
    let (lps, df) = (row("lps(11,7)"), row("dragonfly(12)"));
    assert_eq!(lps[column("ramanujan")], Some(1.0));
    assert_eq!(df[column("ramanujan")], Some(0.0));
    assert_eq!(lps[column("routers")], Some(168.0));
    let (lps_mu1, df_mu1) = (lps[column("mu1")].unwrap(), df[column("mu1")].unwrap());
    assert!(
        (lps_mu1 - 0.50).abs() < 0.03 && df_mu1 < 0.1,
        "{lps_mu1} {df_mu1}"
    );
    let table = report.tables(&m);
    assert!(table.contains("== profile (structure) =="), "{table}");
    assert!(
        table.contains("\nlps(11,7) | 168 | 12 | 3 | 2.389 | 3 | "),
        "{table}"
    );
    assert!(table.contains(" | 0.50 | yes | "), "{table}");
}
