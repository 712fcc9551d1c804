//! # spectralfly-bench
//!
//! The experiment harness: one binary per table / figure of the paper (see DESIGN.md for
//! the index) plus Criterion benches over the substrate kernels. This library holds the
//! pieces the binaries share: the simulation topology classes of Section VI, offered-load
//! sweeps, scaled-down defaults (so every experiment finishes in minutes on a laptop), and
//! uniform result printing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub use args::*;

use rayon::prelude::*;
use spectralfly_graph::paths::DistanceMatrix;
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::fault::AppliedFaults;
use spectralfly_simnet::workload::{random_placement, Workload};
use spectralfly_simnet::{
    pattern, simulate, FaultError, FaultPlan, SimConfig, SimError, SimNetwork, SimResults,
};
use spectralfly_topology::{
    BundleFlyGraph, GeneralizedDragonFly, LpsGraph, SlimFlyGraph, Topology,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Experiment scale: `Paper` reproduces the published configuration; `Small` is a reduced
/// configuration with the same topology families for quick runs and CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~8.7K endpoints on 32-port routers (the paper's Section VI setup).
    Paper,
    /// A few hundred endpoints; same families, minutes instead of hours.
    Small,
}

impl Scale {
    /// Parse from CLI args: `--full` selects [`Scale::Paper`], anything else stays small.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full" || a == "--paper") {
            Scale::Paper
        } else {
            Scale::Small
        }
    }

    /// log2 of the number of MPI ranks used by the synthetic micro-benchmarks.
    pub fn rank_bits(&self) -> u32 {
        match self {
            Scale::Paper => 13, // 8192 ranks, as in the paper
            Scale::Small => 9,  // 512 ranks
        }
    }

    /// Messages per rank for the synthetic micro-benchmarks.
    pub fn messages_per_rank(&self) -> usize {
        match self {
            Scale::Paper => 20,
            Scale::Small => 10,
        }
    }
}

/// A named simulation topology: router graph plus endpoint concentration.
pub struct SimTopology {
    /// Display name, e.g. `SpectralFly LPS(23,13) x8`.
    pub name: String,
    /// Router graph.
    pub graph: CsrGraph,
    /// Endpoints per router.
    pub concentration: usize,
    /// Endpoints per topology group, when the family has a natural group
    /// structure (DragonFly groups, SlimFly local clusters). Group-structured
    /// traffic patterns (`adversarial`, `nearest-group`) align to this via
    /// [`pattern_spec_for`]; `None` leaves the pattern its own fallback.
    pub group_endpoints: Option<usize>,
    /// Lazily-computed distance oracle, shared by every network built from this
    /// topology (the sweep drivers build one network per routing × pattern; the
    /// quadratic all-pairs BFS should run once, not once per sweep).
    dist: OnceLock<Arc<DistanceMatrix>>,
    /// Degraded graphs + oracles, keyed by [`FaultPlan::cache_key`]: a fault
    /// sweep builds one network per routing × load point, and the damage draw
    /// plus all-pairs BFS should run once per plan, not once per point.
    fault_cache: Mutex<BTreeMap<String, (AppliedFaults, Arc<DistanceMatrix>)>>,
}

impl SimTopology {
    /// A named topology (the distance oracle is computed on first use).
    pub fn new(name: impl Into<String>, graph: CsrGraph, concentration: usize) -> Self {
        SimTopology {
            name: name.into(),
            graph,
            concentration,
            group_endpoints: None,
            dist: OnceLock::new(),
            fault_cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// Builder-style: record the family's group structure as `routers_per_group`
    /// consecutive routers (× concentration endpoints each).
    pub fn with_router_groups(mut self, routers_per_group: usize) -> Self {
        self.group_endpoints = Some(routers_per_group * self.concentration);
        self
    }

    /// The topology's distance oracle (computed on first call, then shared).
    pub fn distances(&self) -> Arc<DistanceMatrix> {
        self.dist
            .get_or_init(|| Arc::new(DistanceMatrix::from_graph(&self.graph)))
            .clone()
    }

    /// Wrap into a simulator network sharing the cached distance oracle.
    pub fn network(&self) -> SimNetwork {
        SimNetwork::with_distances(self.graph.clone(), self.concentration, self.distances())
    }

    /// Wrap into a simulator network degraded by `plan`, caching the damage
    /// draw and the rebuilt distance oracle per [`FaultPlan::cache_key`] so a
    /// routing × load sweep over one plan applies it exactly once. The empty
    /// plan returns the pristine [`SimTopology::network`].
    pub fn faulted_network(&self, plan: &FaultPlan) -> Result<SimNetwork, FaultError> {
        if plan.is_none() {
            return Ok(self.network());
        }
        let mut cache = self.fault_cache.lock().expect("fault cache poisoned");
        let key = plan.cache_key();
        if !cache.contains_key(&key) {
            let applied = plan.apply(&self.graph)?;
            let dist = Arc::new(DistanceMatrix::from_graph(&applied.graph));
            cache.insert(key.clone(), (applied, dist));
        }
        let (applied, dist) = cache.get(&key).expect("just inserted");
        Ok(SimNetwork::degraded(
            applied.clone(),
            self.concentration,
            Arc::clone(dist),
        ))
    }
}

/// The four topology classes compared in the paper's simulations (Section VI-B), at the
/// requested scale. Order: SpectralFly, SlimFly, BundleFly, DragonFly.
///
/// Paper scale: LPS(23,13)×8, SF(27)×8, BF(9,9)×6, DF(a=16,h=8,g=69)×8 — all ≈ 8.7K
/// endpoints on ≤ 32-port routers. Small scale keeps the same families at ~650 endpoints.
///
/// Group structure for the group-aligned traffic patterns: DragonFly groups are
/// its `a` routers per group, SlimFly "groups" are the MMS local clusters of `q`
/// consecutive routers, and SpectralFly (an expander with no modular structure)
/// uses single-router groups — its adversarial worst case funnels every router's
/// endpoints into one victim router, concentrating load on the few minimal
/// routes between the pair. BundleFly is left to the pattern's own fallback.
pub fn simulation_topologies(scale: Scale) -> Vec<SimTopology> {
    match scale {
        Scale::Paper => vec![
            SimTopology::new(
                "SpectralFly LPS(23,13) x8",
                LpsGraph::new(23, 13)
                    .expect("valid LPS parameters")
                    .graph()
                    .clone(),
                8,
            )
            .with_router_groups(1),
            SimTopology::new(
                "SlimFly SF(27) x8",
                SlimFlyGraph::new(27)
                    .expect("valid SlimFly parameter")
                    .graph()
                    .clone(),
                8,
            )
            .with_router_groups(27),
            SimTopology::new(
                "BundleFly BF(9,9) x6",
                BundleFlyGraph::new(9, 9)
                    .expect("valid BundleFly parameters")
                    .graph()
                    .clone(),
                6,
            ),
            SimTopology::new(
                "DragonFly DF(16,8,69) x8",
                GeneralizedDragonFly::new(16, 8, 69)
                    .expect("valid DragonFly parameters")
                    .graph()
                    .clone(),
                8,
            )
            .with_router_groups(16),
        ],
        Scale::Small => vec![
            SimTopology::new(
                "SpectralFly LPS(11,7) x4",
                LpsGraph::new(11, 7)
                    .expect("valid LPS parameters")
                    .graph()
                    .clone(),
                4,
            )
            .with_router_groups(1),
            SimTopology::new(
                "SlimFly SF(9) x4",
                SlimFlyGraph::new(9)
                    .expect("valid SlimFly parameter")
                    .graph()
                    .clone(),
                4,
            )
            .with_router_groups(9),
            SimTopology::new(
                "BundleFly BF(13,3) x3",
                BundleFlyGraph::new(13, 3)
                    .expect("valid BundleFly parameters")
                    .graph()
                    .clone(),
                3,
            ),
            SimTopology::new(
                "DragonFly DF(8,4,21) x4",
                GeneralizedDragonFly::new(8, 4, 21)
                    .expect("valid DragonFly parameters")
                    .graph()
                    .clone(),
                4,
            )
            .with_router_groups(8),
        ],
    }
}

/// The offered-load sweep used on the x-axis of Figures 6–8.
pub const OFFERED_LOADS: [f64; 6] = [0.1, 0.2, 0.3, 0.5, 0.6, 0.7];

/// The scalar a sweep point contributes to a figure: `(value, higher_is_better)`.
/// Windowed (steady-state) runs score by sustained measured throughput in Gb/s;
/// finite runs score by completion time in ps.
pub fn figure_of_merit(res: &SimResults) -> (f64, bool) {
    match &res.measurement {
        Some(m) => (m.throughput_gbps(), true),
        None => (res.completion_time_ps as f64, false),
    }
}

/// Speedup of `ours` over `base` for a [`figure_of_merit`] value pair.
pub fn merit_speedup(base: (f64, bool), ours: (f64, bool)) -> f64 {
    debug_assert_eq!(base.1, ours.1, "mixed metric directions");
    if ours.1 {
        ours.0 / base.0
    } else {
        base.0 / ours.0
    }
}

/// Build a [`SimConfig`] following the paper: routing algorithm (a registry name or
/// [`spectralfly_simnet::RoutingAlgorithm`] constant) with a VC count derived from
/// the topology diameter, 4 KB packets, 100 Gb/s links.
pub fn paper_sim_config(net: &SimNetwork, routing: impl Into<String>, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default().with_routing(routing, net.diameter() as u32);
    cfg.seed = seed;
    cfg
}

/// A random rank placement restricted to the network's *alive* endpoints: on a
/// pristine network this is exactly
/// [`spectralfly_simnet::workload::random_placement`] (bit-identical, same
/// draws); on a degraded one the ranks land on the surviving machine, so
/// placed micro-benchmarks never address a dead endpoint.
pub fn place_on_alive(net: &SimNetwork, ranks: usize, seed: u64) -> Vec<usize> {
    if !net.has_faults() {
        return random_placement(ranks, net.num_endpoints(), seed);
    }
    let alive = net.alive_endpoints();
    random_placement(ranks, alive.len(), seed)
        .into_iter()
        .map(|i| alive[i])
        .collect()
}

/// Run one workload-paced simulation on the core [`SimConfig::shards`]
/// selects (see [`simulate`]). Results are identical at every shard count
/// above one (the parallel engine is shard-count-invariant), so `--shards` is
/// purely a wall-clock knob for the sweep drivers.
pub fn run_workload(net: &SimNetwork, cfg: &SimConfig, wl: &Workload) -> SimResults {
    simulate(net, cfg, wl, None).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_workload`] for an offered-load point, through the fault-checked
/// entry so degraded sweeps surface infeasibility (and detected deadlocks)
/// as a value.
pub fn try_run_offered_load(
    net: &SimNetwork,
    cfg: &SimConfig,
    wl: &Workload,
    load: f64,
) -> Result<SimResults, SimError> {
    simulate(net, cfg, wl, Some(load))
}

/// [`sweep_offered_loads`] through the fault-checked entry point: each load
/// point carries a `Result`, so a sweep driver can report an infeasible
/// degraded run (disconnected pair, fragmented survivors) as a table entry
/// instead of a panic.
pub fn try_sweep_offered_loads(
    net: &SimNetwork,
    cfg: &SimConfig,
    wl: &Workload,
    loads: &[f64],
) -> Vec<(f64, Result<SimResults, SimError>)> {
    loads
        .par_iter()
        .map(|&load| (load, try_run_offered_load(net, cfg, wl, load)))
        .collect()
}

/// Align a pattern spec to a topology's group structure: group-structured
/// patterns (`adversarial`, `nearest-group`) without explicit arguments gain the
/// topology's endpoints-per-group ([`SimTopology::group_endpoints`]) as their
/// group size, so `--pattern adversarial` means "adversarial against *this*
/// topology" for every topology in a sweep. Specs with explicit arguments and
/// patterns without group structure pass through untouched.
pub fn pattern_spec_for(topo: &SimTopology, spec: &str) -> String {
    let Some(group) = topo.group_endpoints else {
        return spec.to_string();
    };
    match pattern::parse_spec(spec) {
        Ok((base, args))
            if args.is_empty() && (base == "adversarial" || base == "nearest-group") =>
        {
            format!("{base}({group})")
        }
        _ => spec.to_string(),
    }
}

/// The steady-state source workload for pattern-driven sweeps: every endpoint
/// sends `bytes`-sized messages (one template each), so the workload supplies
/// the *senders and sizes* while [`MeasurementWindows::pattern`](spectralfly_simnet::MeasurementWindows::pattern) supplies the
/// destinations. (Template destinations are uniform-random; they are only used
/// when no pattern is configured.)
pub fn steady_source_workload(net: &SimNetwork, bytes: u64, seed: u64) -> Workload {
    Workload::uniform_random(net.num_endpoints(), 1, bytes, seed)
}

/// Run one simulation per offered load, in parallel (one simulation per core) —
/// the sweep behind the x-axis of Figures 6–8.
///
/// Results are deterministic and identical to the sequential loop: every simulation
/// owns its RNG seeded from `cfg.seed`, so parallelism cannot perturb them.
pub fn sweep_offered_loads(
    net: &SimNetwork,
    cfg: &SimConfig,
    wl: &Workload,
    loads: &[f64],
) -> Vec<(f64, SimResults)> {
    loads
        .par_iter()
        .map(|&load| {
            (
                load,
                try_run_offered_load(net, cfg, wl, load).unwrap_or_else(|e| panic!("{e}")),
            )
        })
        .collect()
}

/// Run one full-speed (workload-paced) simulation per workload, in parallel — the
/// sweep behind the Ember figures (9–10), where the x-axis is the motif.
pub fn sweep_workloads(net: &SimNetwork, cfg: &SimConfig, wls: &[Workload]) -> Vec<SimResults> {
    wls.par_iter()
        .map(|wl| run_workload(net, cfg, wl))
        .collect()
}

/// The LPS↔SlimFly size pairs of Table II / Fig. 11.
pub fn table2_pairs() -> Vec<((u64, u64), u64)> {
    vec![((11, 7), 9), ((19, 7), 13), ((23, 11), 17), ((29, 13), 23)]
}

/// The shared provenance stamp every recording binary embeds in its JSON
/// trajectory rows: git rev + dirty flag, an FNV-64 hash of the binary's
/// effective configuration, and the run seed. Rendered as a
/// `"provenance":{...}` field ready to splice into a hand-rolled JSON object.
///
/// Rows without this stamp cannot be distinguished from host noise after the
/// fact — see `spectralfly_exp::provenance`.
pub fn provenance_field(config: &str, seed: u64) -> String {
    let hash = format!("{:016x}", spectralfly_exp::fnv64_str(config));
    format!(
        "\"provenance\":{}",
        spectralfly_exp::Provenance::collect(&hash, seed).to_json()
    )
}

/// Append `entry` to the JSON trajectory array at `out` (created if absent) —
/// the `BENCH_*.json` perf-trajectory format shared by the recording binaries.
///
/// # Panics
/// If `out` exists but does not hold a JSON array, or the write fails.
pub fn append_entry(out: &str, entry: &str) {
    let existing = std::fs::read_to_string(out).unwrap_or_default();
    let trimmed = existing.trim();
    let new_content = if trimmed.is_empty() || trimmed == "[]" {
        format!("[\n{entry}\n]\n")
    } else {
        let body = trimmed
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .unwrap_or_else(|| panic!("{out} is not a JSON array"));
        format!("[{},\n{entry}\n]\n", body.trim_end().trim_end_matches(','))
    };
    std::fs::write(out, new_content).expect("write bench trajectory");
    println!("appended to {out}");
}

/// Print a markdown-style table: a header row and aligned value rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", header.join(" | "));
    println!(
        "{}",
        header
            .iter()
            .map(|h| "-".repeat(h.len()))
            .collect::<Vec<_>>()
            .join("-|-")
    );
    for row in rows {
        println!("{}", row.join(" | "));
    }
}

/// Format a float with 3 significant decimals for table output.
pub fn fmt(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectralfly_simnet::MeasurementWindows;

    #[test]
    fn small_scale_topologies_build_and_fit_ports() {
        for t in simulation_topologies(Scale::Small) {
            let radix = t.graph.max_degree();
            assert!(
                radix + t.concentration <= 32,
                "{}: {} ports",
                t.name,
                radix + t.concentration
            );
            let net = t.network();
            assert!(net.num_endpoints() >= 500, "{}", t.name);
        }
    }

    #[test]
    fn group_specs_align_to_each_topology() {
        let topos = simulation_topologies(Scale::Small);
        // SpectralFly: single-router groups -> group = concentration endpoints.
        assert_eq!(topos[0].group_endpoints, Some(4));
        assert_eq!(pattern_spec_for(&topos[0], "adversarial"), "adversarial(4)");
        // SlimFly SF(9) x4: MMS local clusters of 9 routers.
        assert_eq!(
            pattern_spec_for(&topos[1], "nearest-group"),
            "nearest-group(36)"
        );
        // BundleFly: no declared structure -> spec passes through.
        assert_eq!(topos[2].group_endpoints, None);
        assert_eq!(pattern_spec_for(&topos[2], "adversarial"), "adversarial");
        // DragonFly DF(8,4,21) x4: groups of 8 routers.
        assert_eq!(
            pattern_spec_for(&topos[3], "adversarial"),
            "adversarial(32)"
        );
        // Explicit arguments and non-group patterns are never rewritten.
        assert_eq!(
            pattern_spec_for(&topos[3], "adversarial(7)"),
            "adversarial(7)"
        );
        assert_eq!(pattern_spec_for(&topos[3], "tornado"), "tornado");
        assert_eq!(
            pattern_spec_for(&topos[3], "hotspot(8, 0.2)"),
            "hotspot(8, 0.2)"
        );
    }

    #[test]
    fn pattern_lists_split_at_top_level_commas_only() {
        let split = |list| split_pattern_list(list).unwrap();
        assert_eq!(
            split("hotspot(8,0.2),adversarial"),
            vec!["hotspot(8,0.2)", "adversarial"]
        );
        assert_eq!(
            split(" random , nearest-group(32) "),
            vec!["random", "nearest-group(32)"]
        );
        assert_eq!(split("tornado"), vec!["tornado"]);
        assert_eq!(split("hotspot(4, 0.5)"), vec!["hotspot(4, 0.5)"]);
        assert_eq!(split_pattern_list(" , ,").unwrap_err().offset, 1);
        // Every element is a spec the registry can validate whole.
        for spec in split("hotspot(8,0.2),adversarial(64),random") {
            assert!(pattern::is_registered(&spec), "{spec}");
        }
    }

    #[test]
    fn steady_source_workload_covers_every_endpoint() {
        let ring: Vec<(u32, u32)> = (0..6u32).map(|i| (i, (i + 1) % 6)).collect();
        let net = SimNetwork::new(CsrGraph::from_edges(6, &ring), 3);
        let wl = steady_source_workload(&net, 4096, 1);
        assert_eq!(wl.num_messages(), net.num_endpoints());
        let senders: std::collections::BTreeSet<usize> =
            wl.phases[0].messages.iter().map(|m| m.src).collect();
        assert_eq!(senders.len(), net.num_endpoints());
        assert!(wl.phases[0].messages.iter().all(|m| m.bytes == 4096));
    }

    #[test]
    fn faulted_networks_cache_one_oracle_per_plan() {
        let t = &simulation_topologies(Scale::Small)[0];
        let plan = FaultPlan::random_links(0.05).with_seed(3);
        let a = t.faulted_network(&plan).unwrap();
        let b = t.faulted_network(&plan).unwrap();
        assert!(a.has_faults());
        assert!(
            Arc::ptr_eq(&a.distances_arc(), &b.distances_arc()),
            "same plan must share one degraded oracle"
        );
        assert_eq!(a.graph(), b.graph());
        // A different seed is different damage — and a different oracle.
        let c = t.faulted_network(&plan.clone().with_seed(4)).unwrap();
        assert!(!Arc::ptr_eq(&a.distances_arc(), &c.distances_arc()));
        // The empty plan is the pristine cached network.
        let p = t.faulted_network(&FaultPlan::none()).unwrap();
        assert!(!p.has_faults());
        assert!(Arc::ptr_eq(&p.distances_arc(), &t.distances()));
    }

    #[test]
    fn alive_placement_avoids_dead_endpoints_and_matches_pristine() {
        let ring: Vec<(u32, u32)> = (0..8u32).map(|i| (i, (i + 1) % 8)).collect();
        let g = CsrGraph::from_edges(8, &ring);
        let pristine = SimNetwork::new(g.clone(), 2);
        assert_eq!(
            place_on_alive(&pristine, 8, 7),
            random_placement(8, pristine.num_endpoints(), 7),
            "pristine placement must be bit-identical to random_placement"
        );
        let plan = FaultPlan::parse("router(5)").unwrap();
        let net = SimNetwork::with_faults(g, 2, &plan).unwrap();
        let placement = place_on_alive(&net, 8, 7);
        assert_eq!(placement.len(), 8);
        for &e in &placement {
            assert!(net.endpoint_alive(e), "rank placed on dead endpoint {e}");
        }
    }

    #[test]
    fn try_sweep_surfaces_fault_errors_per_load_point() {
        // Cut a 6-ring in two; a cross-cut workload errs at every load point.
        let ring: Vec<(u32, u32)> = (0..6u32).map(|i| (i, (i + 1) % 6)).collect();
        let plan = FaultPlan::parse("link(0,5)+link(2,3)").unwrap();
        let net = SimNetwork::with_faults(CsrGraph::from_edges(6, &ring), 1, &plan).unwrap();
        let cfg = paper_sim_config(&net, "minimal", 1);
        let wl = Workload::single_phase(
            "cross",
            vec![spectralfly_simnet::Message {
                src: 1,
                dst: 4,
                bytes: 512,
                inject_offset_ps: 0,
            }],
        );
        for (_, res) in try_sweep_offered_loads(&net, &cfg, &wl, &[0.2, 0.5]) {
            assert!(matches!(
                res,
                Err(SimError::Fault(FaultError::Disconnected { .. }))
            ));
        }
        // A same-side workload sails through.
        let wl = Workload::single_phase(
            "local",
            vec![spectralfly_simnet::Message {
                src: 0,
                dst: 2,
                bytes: 512,
                inject_offset_ps: 0,
            }],
        );
        for (_, res) in try_sweep_offered_loads(&net, &cfg, &wl, &[0.2]) {
            assert_eq!(res.unwrap().delivered_packets, 1);
        }
    }

    #[test]
    fn topology_networks_share_one_distance_oracle() {
        let t = &simulation_topologies(Scale::Small)[0];
        let a = t.network();
        let b = t.network();
        assert!(
            Arc::ptr_eq(&a.distances_arc(), &b.distances_arc()),
            "every network built from one SimTopology must share its oracle"
        );
        assert!(Arc::ptr_eq(&a.distances_arc(), &t.distances()));
    }

    #[test]
    fn paper_config_uses_diameter_based_vcs() {
        let t = &simulation_topologies(Scale::Small)[0];
        let net = t.network();
        let cfg = paper_sim_config(&net, "valiant", 1);
        assert_eq!(cfg.num_vcs, 2 * net.diameter() as usize + 1);
        assert_eq!(cfg.routing, "valiant");
    }

    #[test]
    fn parallel_load_sweep_matches_sequential_runs() {
        use spectralfly_simnet::Simulator;
        let ring: Vec<(u32, u32)> = (0..8u32).map(|i| (i, (i + 1) % 8)).collect();
        let net = SimNetwork::new(CsrGraph::from_edges(8, &ring), 2);
        let cfg = paper_sim_config(&net, "ugal-g", 42);
        let wl = Workload::uniform_random(net.num_endpoints(), 6, 2048, 9);
        let loads = [0.2, 0.5, 0.8];
        let swept = sweep_offered_loads(&net, &cfg, &wl, &loads);
        assert_eq!(swept.len(), loads.len());
        for (i, (load, res)) in swept.iter().enumerate() {
            assert_eq!(*load, loads[i]);
            let seq = Simulator::new(&net, &cfg).run_with_offered_load(&wl, *load);
            assert_eq!(
                res.completion_time_ps, seq.completion_time_ps,
                "load {load}"
            );
            assert_eq!(res.delivered_packets, seq.delivered_packets, "load {load}");
        }
    }

    #[test]
    fn figure_of_merit_direction_matches_run_kind() {
        use spectralfly_simnet::MeasurementSummary;
        let finite = SimResults {
            completion_time_ps: 2_000,
            ..Default::default()
        };
        let (v, higher) = figure_of_merit(&finite);
        assert_eq!(v, 2_000.0);
        assert!(!higher);
        let steady = SimResults {
            measurement: Some(MeasurementSummary {
                window_start_ps: 0,
                window_end_ps: 1_000_000,
                delivered_bytes: 125_000, // 1000 Gb/s over 1 us
                ..Default::default()
            }),
            ..Default::default()
        };
        let (v, higher) = figure_of_merit(&steady);
        assert!((v - 1000.0).abs() < 1e-9);
        assert!(higher);
        // Completion time: base 2000 ps vs ours 1000 ps -> 2x speedup.
        assert!((merit_speedup((2_000.0, false), (1_000.0, false)) - 2.0).abs() < 1e-12);
        // Throughput: base 500 Gb/s vs ours 1000 Gb/s -> 2x speedup.
        assert!((merit_speedup((500.0, true), (1_000.0, true)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn steady_sweep_reports_measured_throughput() {
        let ring: Vec<(u32, u32)> = (0..8u32).map(|i| (i, (i + 1) % 8)).collect();
        let net = SimNetwork::new(CsrGraph::from_edges(8, &ring), 1);
        let mut cfg = paper_sim_config(&net, "minimal", 3);
        cfg.windows = Some(MeasurementWindows::new(5_000_000, 20_000_000));
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 2);
        let swept = sweep_offered_loads(&net, &cfg, &wl, &[0.2, 0.3]);
        for (load, res) in swept {
            let (v, higher) = figure_of_merit(&res);
            assert!(higher, "windowed sweep scores by throughput");
            assert!(v > 0.0, "load {load}: no measured throughput");
        }
    }

    #[test]
    fn offered_loads_match_paper_axis() {
        assert_eq!(OFFERED_LOADS.len(), 6);
        assert_eq!(OFFERED_LOADS[0], 0.1);
        assert_eq!(OFFERED_LOADS[5], 0.7);
    }
}
