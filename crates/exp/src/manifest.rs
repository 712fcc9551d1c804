//! The experiment manifest: a declarative description of a reproduction sweep.
//!
//! A manifest is a TOML document (see [`crate::toml`] for the accepted subset)
//! with one `[manifest]` header table and two kinds of sections:
//!
//! * `[experiment.NAME]` — a **sweep**: the cross product of the declared axes
//!   (topology × routing × pattern × faults / fault-script × shards × seeds ×
//!   loads), each point simulated, digested and tabulated (optionally as a
//!   ratio to a sibling point, see [`Experiment::relative_to`]). Every axis
//!   value is validated *at parse time* against the subsystem that owns it —
//!   routing names against [`spectralfly_simnet::routing`], pattern specs
//!   against [`spectralfly_simnet::pattern`], fault plans/scripts against
//!   [`spectralfly_simnet::fault`], topology specs against [`crate::topo`] —
//!   so a typo fails with the offending field named, before any simulation
//!   starts. The path oracle is no axis: [`TopoSpec::network`] derives it.
//! * `[structure.NAME]` — a **structural table**: a row set (topologies listed
//!   outright, or a family enumerated up to a limit) × columns chosen from
//!   [`Column::ALL`] (Table I, Figs. 4 and 5) and [`Column::LAYOUT`] (Table II,
//!   Fig. 11), crossed with random link-failure proportions (Fig. 5) or, with
//!   a latency column, with Fig. 11's switch latencies. Nothing is simulated;
//!   each row is digested and gated exactly like an experiment point.
//!
//! [`Manifest::to_toml`] renders the canonical form; parsing it back yields an
//! equal manifest (property-tested), and [`Manifest::config_hash`] — the FNV-64
//! of the canonical form — is the configuration fingerprint stamped into every
//! artifact and baseline.

use crate::digest::fnv64_str;
use crate::toml::{self, is_bare_key, render_str, Document, Table, TomlError, Value};
use crate::topo::{Size, TopoSpec};
use spectralfly_graph::failures::FailureMetric;
use spectralfly_graph::Column;
use spectralfly_simnet::fault::{FaultPlan, FaultScript};
use spectralfly_simnet::{pattern, routing};
use std::collections::HashSet;

/// Errors from parsing or validating a manifest.
#[derive(Clone, Debug, PartialEq)]
pub enum ManifestError {
    /// The document is not parseable TOML (subset); carries line + offset.
    Toml(TomlError),
    /// A field failed validation. `section`/`field` name the offending key.
    Field {
        /// Dotted table path, e.g. `experiment.fig6`.
        section: String,
        /// Key within the table, e.g. `routings`.
        field: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Toml(e) => write!(f, "{e}"),
            ManifestError::Field {
                section,
                field,
                reason,
            } => write!(f, "manifest [{section}] {field}: {reason}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<TomlError> for ManifestError {
    fn from(e: TomlError) -> Self {
        ManifestError::Toml(e)
    }
}

/// How an experiment's points are executed and measured.
#[derive(Clone, Debug, PartialEq)]
pub enum Mode {
    /// Workload-paced finite run ([`spectralfly_simnet::Simulator::try_run`]):
    /// every endpoint sends `messages` messages of `bytes` bytes, the run
    /// drains to empty. Loads do not apply.
    Finite {
        /// Messages per endpoint.
        messages: usize,
        /// Bytes per message.
        bytes: u64,
    },
    /// Steady-state run with measurement windows: continuous Poisson sources
    /// at each `loads` entry, running the point's job mix (the jobs axis, or
    /// the pattern axis as `traffic(1, P, bytes)`).
    Steady {
        /// Warmup span, nanoseconds.
        warmup_ns: u64,
        /// Measurement span, nanoseconds.
        measure_ns: u64,
        /// Bytes per message.
        bytes: u64,
    },
}

impl Mode {
    /// The mode's name in manifest source.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Finite { .. } => "finite",
            Mode::Steady { .. } => "steady",
        }
    }
}

/// One `[experiment.NAME]` sweep: the cross product of its axes.
#[derive(Clone, Debug, PartialEq)]
pub struct Experiment {
    /// Section name.
    pub name: String,
    /// Topology axis (canonical [`TopoSpec`] spellings).
    pub topologies: Vec<String>,
    /// Routing axis (registry names).
    pub routings: Vec<String>,
    /// Pattern axis (registry specs). A non-empty axis requires `mode =
    /// "steady"`: an entry `P` runs the mix `traffic(1, P, bytes)`, every alive
    /// endpoint drawing each message's destination from the pattern live (no
    /// entry runs `traffic(1, random, bytes)`).
    pub patterns: Vec<String>,
    /// Multi-tenant jobs axis ([`spectralfly_simnet::job`] mix specs, e.g.
    /// `"allreduce-ring(8192) x 8 + traffic(0.3, random) x 24"`), each run as
    /// written. A non-empty axis requires `mode = "steady"` and an empty
    /// pattern axis: a steady section names one of the two.
    pub jobs: Vec<String>,
    /// Static-fault axis ([`FaultPlan`] specs; `"none"` = pristine).
    pub faults: Vec<String>,
    /// Runtime-fault axis ([`FaultScript`] specs; `"none"` = no churn).
    pub fault_scripts: Vec<String>,
    /// Engine shard counts. Every value of this axis must produce the
    /// identical results digest (the runner asserts it): `1` runs the event
    /// core on the calling thread, `>1` on that many worker threads, so
    /// listing `[1, 2, 4]` re-proves shard-count invariance on every run.
    pub shards: Vec<usize>,
    /// RNG seeds.
    pub seeds: Vec<u64>,
    /// Offered loads (fractions of injection bandwidth; ignored by `finite`).
    pub loads: Vec<f64>,
    /// Execution mode.
    pub mode: Mode,
    /// Seed for the static-fault and fault-script draws.
    pub fault_seed: u64,
    /// Rendering only: one entry of one of the string axes. `repro run` then
    /// also prints each point's figure of merit as a ratio to the sibling
    /// point that differs only in taking this entry on that axis (DragonFly in
    /// Figs. 6–7, `minimal` in Fig. 8, the undamaged fabric in the fault
    /// sweeps). Never affects what is simulated or digested.
    pub relative_to: Option<String>,
}

impl Experiment {
    /// The string axes in expansion order, by manifest field name.
    fn string_axes(&self) -> [(&'static str, &[String]); 6] {
        [
            ("topologies", &self.topologies),
            ("routings", &self.routings),
            ("patterns", &self.patterns),
            ("jobs", &self.jobs),
            ("faults", &self.faults),
            ("fault_scripts", &self.fault_scripts),
        ]
    }

    /// The axis [`Experiment::relative_to`] names an entry of, with that
    /// entry: the one swept (multi-entry) axis listing it, else the first
    /// axis listing it (`"none"` sits on both fault axes by default).
    pub fn relative_axis(&self) -> Option<(&'static str, &str)> {
        let entry = self.relative_to.as_deref()?;
        let listing = |swept: bool| {
            self.string_axes()
                .into_iter()
                .find(|(_, axis)| axis.iter().any(|e| e == entry) && (axis.len() > 1) == swept)
        };
        listing(true)
            .or_else(|| listing(false))
            .map(|(axis, _)| (axis, entry))
    }
}

/// One `[structure.NAME]` table: a row set × a closed metric list.
#[derive(Clone, Debug, PartialEq)]
pub struct Structure {
    /// Section name.
    pub name: String,
    /// Rows listed outright ([`TopoSpec::graph_name`] spellings) — or empty,
    /// the rows being enumerated.
    pub topologies: Vec<String>,
    /// Rows enumerated: [`TopoSpec::enumerate`] specs such as `lps(300)`.
    pub enumerate: Vec<String>,
    /// Drop enumerated rows with more routers than this.
    pub max_routers: Option<u64>,
    /// The columns. `routers` / `radix` alone never build an enumerated row.
    /// A latency column (`latency-avg-vs-skywalk`, `latency-max-vs-skywalk`)
    /// makes a row per topology × Fig. 11 switch latency, and then only
    /// `routers` and `radix` may join it.
    pub metrics: Vec<Column>,
    /// Proportions of links failed uniformly at random. Non-empty makes a row
    /// per topology × proportion, each metric (`diameter`, `mean-distance`,
    /// `bisection-upper` only) its `graph::failures::failure_point` mean.
    pub link_failures: Vec<f64>,
    /// Seed of the Lanczos start vector, the partitioner and the failure draws.
    pub seed: u64,
}

/// The failure sweep behind `column`, for the three columns that have one.
pub(crate) fn failure_metric(column: Column) -> Option<FailureMetric> {
    match column {
        Column::Diameter => Some(FailureMetric::Diameter),
        Column::MeanDistance => Some(FailureMetric::MeanDistance),
        Column::BisectionUpper => Some(FailureMetric::BisectionBandwidth),
        _ => None,
    }
}

/// Whether `column` is one of Fig. 11's, whose rows are switch latencies.
pub(crate) fn latency_column(column: Column) -> bool {
    matches!(
        column,
        Column::LatencyAvgVsSkywalk | Column::LatencyMaxVsSkywalk
    )
}

impl Structure {
    /// Whether every value is a closed form (an enumerated row is then never built).
    pub fn is_closed_form(&self) -> bool {
        let closed = |c: &Column| matches!(c, Column::Routers | Column::Radix);
        self.link_failures.is_empty() && self.metrics.iter().all(closed)
    }

    /// The rows, in order: listed topologies, or enumerated members within
    /// `max_routers` — those with their closed-form `(routers, radix)`.
    pub fn rows(&self) -> Result<Vec<(TopoSpec, Option<Size>)>, String> {
        let mut rows = Vec::new();
        for spec in &self.topologies {
            rows.push((TopoSpec::parse(spec)?, None));
        }
        let cap = self.max_routers.unwrap_or(u64::MAX);
        for spec in &self.enumerate {
            let members = TopoSpec::enumerate(spec)?.into_iter();
            let within = members.filter(|(_, (routers, _))| *routers <= cap);
            rows.extend(within.map(|(m, size)| (m, Some(size))));
        }
        Ok(rows)
    }
}

/// A parsed, validated manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Manifest name (baselines and artifacts are filed under it).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Experiments in source order.
    pub experiments: Vec<Experiment>,
    /// Structural tables in source order.
    pub structures: Vec<Structure>,
}

fn field_err(section: &str, field: &str, reason: impl Into<String>) -> ManifestError {
    ManifestError::Field {
        section: section.to_string(),
        field: field.to_string(),
        reason: reason.into(),
    }
}

// ---- typed getters over a toml table ----------------------------------------

fn get_str(t: &Table, field: &str) -> Result<Option<String>, ManifestError> {
    match t.get(field) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(v) => Err(field_err(
            &t.path_str(),
            field,
            format!("expected a string, got {}", v.type_name()),
        )),
    }
}

fn req_str(t: &Table, field: &str) -> Result<String, ManifestError> {
    get_str(t, field)?.ok_or_else(|| field_err(&t.path_str(), field, "missing required field"))
}

fn get_u64(t: &Table, field: &str, default: u64) -> Result<u64, ManifestError> {
    match t.get(field) {
        None => Ok(default),
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        Some(v) => Err(field_err(
            &t.path_str(),
            field,
            format!("expected a non-negative integer, got {}", v.render()),
        )),
    }
}

/// The array under `field`, each item read by `item`; `what` names the items
/// in the error a non-array, or the first item `item` refuses, gets.
fn get_list<T>(
    t: &Table,
    field: &str,
    what: &str,
    item: impl Fn(&Value) -> Option<T>,
) -> Result<Option<Vec<T>>, ManifestError> {
    let expected = |got: String| {
        let reason = format!("expected an array of {what}, got {got}");
        field_err(&t.path_str(), field, reason)
    };
    match t.get(field) {
        None => Ok(None),
        Some(Value::Array(items)) => (items.iter())
            .map(|v| {
                item(v).ok_or_else(|| expected(format!("a {} ({})", v.type_name(), v.render())))
            })
            .collect::<Result<_, _>>()
            .map(Some),
        Some(v) => Err(expected(v.type_name().to_string())),
    }
}

fn get_str_list(t: &Table, field: &str) -> Result<Option<Vec<String>>, ManifestError> {
    get_list(t, field, "strings", |v| match v {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    })
}

fn get_u64_list(t: &Table, field: &str) -> Result<Option<Vec<u64>>, ManifestError> {
    get_list(t, field, "non-negative integers", |v| match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    })
}

fn get_f64_list(t: &Table, field: &str) -> Result<Option<Vec<f64>>, ManifestError> {
    get_list(t, field, "numbers", |v| match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    })
}

// ---- parsing ----------------------------------------------------------------

impl Manifest {
    /// Parse and validate a manifest from TOML source.
    pub fn parse(src: &str) -> Result<Manifest, ManifestError> {
        let doc = toml::parse(src)?;
        Self::from_document(&doc)
    }

    fn from_document(doc: &Document) -> Result<Manifest, ManifestError> {
        let header = doc
            .table("manifest")
            .ok_or_else(|| field_err("manifest", "name", "missing [manifest] table"))?;
        let name = req_str(header, "name")?;
        if !is_bare_key(&name) {
            return Err(field_err(
                "manifest",
                "name",
                format!("manifest names are [A-Za-z0-9_-]+, got {name:?}"),
            ));
        }
        let description = get_str(header, "description")?.unwrap_or_default();

        fn sections<S>(
            doc: &Document,
            kind: &str,
            from_table: impl Fn(&Table) -> Result<S, ManifestError>,
        ) -> Result<Vec<S>, ManifestError> {
            doc.tables_under(kind).into_iter().map(from_table).collect()
        }
        let experiments = sections(doc, "experiment", Experiment::from_table)?;
        let structures = sections(doc, "structure", Structure::from_table)?;
        if let Some(s) = (structures.iter()).find(|s| experiments.iter().any(|e| e.name == s.name))
        {
            let reason = "an [experiment.*] section has this name; ids and tables go by it";
            return Err(field_err(&format!("structure.{}", s.name), "", reason));
        }
        for t in &doc.tables {
            let known = t.path.is_empty() && t.entries.is_empty()
                || t.path_str() == "manifest"
                || matches!(
                    t.path.first().map(String::as_str),
                    Some("experiment" | "structure")
                ) && t.path.len() == 2;
            if !known {
                return Err(field_err(
                    &t.path_str(),
                    "",
                    "unknown section; expected [manifest], [experiment.*] or [structure.*]",
                ));
            }
        }
        if experiments.is_empty() && structures.is_empty() {
            return Err(field_err(
                "manifest",
                "name",
                "manifest declares no experiments or structural tables",
            ));
        }
        Ok(Manifest {
            name,
            description,
            experiments,
            structures,
        })
    }

    /// The canonical TOML rendering: parsing it back yields an equal manifest.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("[manifest]\n");
        out.push_str(&format!("name = {}\n", render_str(&self.name)));
        out.push_str(&format!(
            "description = {}\n",
            render_str(&self.description)
        ));
        let sections = (self.experiments.iter().map(Experiment::to_toml))
            .chain(self.structures.iter().map(Structure::to_toml));
        for section in sections {
            out.push('\n');
            out.push_str(&section);
        }
        out
    }

    /// The manifest's configuration fingerprint: FNV-64 of the canonical TOML,
    /// rendered as hex. Stamped into artifacts and baselines so `repro check`
    /// can refuse to compare a run against baselines recorded for a different
    /// configuration.
    pub fn config_hash(&self) -> String {
        format!("{:016x}", fnv64_str(&self.to_toml()))
    }
}

/// Refuse a key the section kind does not define, naming it.
fn check_keys(t: &Table, allowed: &[&str]) -> Result<(), ManifestError> {
    match t
        .entries
        .iter()
        .find(|e| !allowed.contains(&e.key.as_str()))
    {
        None => Ok(()),
        Some(e) => Err(field_err(
            &t.path_str(),
            &e.key,
            format!("unknown field; known fields: {}", allowed.join(", ")),
        )),
    }
}

fn section_name(t: &Table) -> String {
    t.path.get(1).cloned().unwrap_or_default()
}

fn render_str_list(key: &str, items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| render_str(s)).collect();
    format!("{key} = [{}]\n", inner.join(", "))
}

impl Experiment {
    fn from_table(t: &Table) -> Result<Experiment, ManifestError> {
        let section = t.path_str();
        let name = section_name(t);
        check_keys(
            t,
            &[
                "topologies",
                "routings",
                "patterns",
                "jobs",
                "faults",
                "fault_scripts",
                "shards",
                "seeds",
                "loads",
                "mode",
                "messages",
                "bytes",
                "warmup_ns",
                "measure_ns",
                "fault_seed",
                "relative_to",
            ],
        )?;

        let topologies = get_str_list(t, "topologies")?
            .ok_or_else(|| field_err(&section, "topologies", "missing required axis"))?;
        if topologies.is_empty() {
            return Err(field_err(&section, "topologies", "axis must be non-empty"));
        }
        let mut canon_topos = Vec::with_capacity(topologies.len());
        for spec in &topologies {
            let parsed = TopoSpec::parse(spec)
                .map_err(|reason| field_err(&section, "topologies", reason))?;
            canon_topos.push(parsed.canonical());
        }

        let routings = get_str_list(t, "routings")?
            .ok_or_else(|| field_err(&section, "routings", "missing required axis"))?;
        if routings.is_empty() {
            return Err(field_err(&section, "routings", "axis must be non-empty"));
        }
        for r in &routings {
            routing::resolve(r).map_err(|e| field_err(&section, "routings", e.to_string()))?;
        }

        let patterns = get_str_list(t, "patterns")?.unwrap_or_default();
        for p in &patterns {
            pattern::validate_spec(p)
                .map_err(|e| field_err(&section, "patterns", e.to_string()))?;
        }

        let jobs = get_str_list(t, "jobs")?.unwrap_or_default();
        for j in &jobs {
            spectralfly_simnet::job::validate_mix_spec(j)
                .map_err(|e| field_err(&section, "jobs", e.to_string()))?;
        }

        let faults = get_str_list(t, "faults")?.unwrap_or_else(|| vec!["none".to_string()]);
        for f in &faults {
            FaultPlan::parse(f).map_err(|e| field_err(&section, "faults", e.to_string()))?;
        }
        let fault_scripts =
            get_str_list(t, "fault_scripts")?.unwrap_or_else(|| vec!["none".to_string()]);
        for s in &fault_scripts {
            FaultScript::parse(s)
                .map_err(|e| field_err(&section, "fault_scripts", e.to_string()))?;
        }

        let shards = get_u64_list(t, "shards")?
            .unwrap_or_else(|| vec![1])
            .into_iter()
            .map(|s| s as usize)
            .collect::<Vec<_>>();
        if shards.is_empty() || shards.contains(&0) {
            return Err(field_err(&section, "shards", "shard counts must be >= 1"));
        }

        let seeds = get_u64_list(t, "seeds")?.unwrap_or_else(|| vec![0x5EED]);
        if seeds.is_empty() {
            return Err(field_err(&section, "seeds", "axis must be non-empty"));
        }

        let loads = get_f64_list(t, "loads")?.unwrap_or_else(|| vec![0.7]);
        for &l in &loads {
            if !(l > 0.0 && l <= 1.0) {
                return Err(field_err(
                    &section,
                    "loads",
                    format!("loads are fractions in (0, 1], got {l}"),
                ));
            }
        }

        let bytes = get_u64(t, "bytes", 4096)?;
        if bytes == 0 {
            return Err(field_err(&section, "bytes", "messages must be non-empty"));
        }
        let messages = get_u64(t, "messages", 2)? as usize;
        let mode_name = get_str(t, "mode")?.unwrap_or_else(|| "finite".to_string());
        let mode = match mode_name.as_str() {
            "finite" => Mode::Finite { messages, bytes },
            "steady" => {
                let measure_ns = get_u64(t, "measure_ns", 20_000)?;
                if measure_ns == 0 {
                    return Err(field_err(
                        &section,
                        "measure_ns",
                        "steady mode needs a non-empty measurement window",
                    ));
                }
                let warmup_ns = get_u64(t, "warmup_ns", measure_ns / 4)?;
                // The runner measures in picoseconds, drains for as long as
                // it measures and samples 32 times across warmup + measure
                // (`MeasurementWindows::new`): each span, and the deadline
                // plus one sampling tick, must fit `u64`.
                let ps = |field: &str, ns: u64| {
                    ns.checked_mul(1000).ok_or_else(|| {
                        field_err(
                            &section,
                            field,
                            format!("{ns} ns overflows u64 picoseconds"),
                        )
                    })
                };
                let measure_ps = ps("measure_ns", measure_ns)?;
                let warmup_ps = ps("warmup_ns", warmup_ns)?;
                let end_ps = warmup_ps.checked_add(measure_ps);
                if end_ps
                    .and_then(|end| end.checked_add(measure_ps)?.checked_add(end / 32 + 1))
                    .is_none()
                {
                    let longer = if warmup_ns > measure_ns {
                        "warmup_ns"
                    } else {
                        "measure_ns"
                    };
                    return Err(field_err(
                        &section,
                        longer,
                        "warmup + measure + drain (as long as measure) overflows u64 picoseconds",
                    ));
                }
                Mode::Steady {
                    warmup_ns,
                    measure_ns,
                    bytes,
                }
            }
            other => {
                return Err(field_err(
                    &section,
                    "mode",
                    format!("unknown mode {other:?}; known modes: finite, steady"),
                ))
            }
        };
        if matches!(mode, Mode::Finite { .. }) && messages == 0 {
            return Err(field_err(&section, "messages", "must be at least 1"));
        }
        let steady = matches!(mode, Mode::Steady { .. });
        if !patterns.is_empty() && !steady {
            return Err(field_err(
                &section,
                "patterns",
                "the pattern axis drives steady-state sources; set mode = \"steady\"",
            ));
        }
        if !jobs.is_empty() && !steady {
            return Err(field_err(
                &section,
                "jobs",
                "the jobs axis drives steady-state tenant mixes; set mode = \"steady\"",
            ));
        }
        if !jobs.is_empty() && !patterns.is_empty() {
            return Err(field_err(
                &section,
                "jobs",
                "a steady section names the pattern axis (each entry runs as \
                 traffic(1, pattern, bytes)) or the jobs axis, not both",
            ));
        }

        // A topology entry may be named in any spelling the axis accepts.
        let relative_to = get_str(t, "relative_to")?
            .map(|r| TopoSpec::parse(&r).map_or(r, |topo| topo.canonical()));
        let experiment = Experiment {
            name,
            topologies: canon_topos,
            routings,
            patterns,
            jobs,
            faults,
            fault_scripts,
            shards,
            seeds,
            loads,
            mode,
            fault_seed: get_u64(t, "fault_seed", FaultPlan::DEFAULT_SEED)?,
            relative_to,
        };
        if let (Some(entry), None) = (&experiment.relative_to, experiment.relative_axis()) {
            return Err(field_err(
                &section,
                "relative_to",
                format!("{entry:?} is not an entry of any axis of this section"),
            ));
        }
        Ok(experiment)
    }

    fn to_toml(&self) -> String {
        let mut out = format!("[experiment.{}]\n", self.name);
        out.push_str(&render_str_list("topologies", &self.topologies));
        out.push_str(&render_str_list("routings", &self.routings));
        if !self.patterns.is_empty() {
            out.push_str(&render_str_list("patterns", &self.patterns));
        }
        if !self.jobs.is_empty() {
            out.push_str(&render_str_list("jobs", &self.jobs));
        }
        out.push_str(&render_str_list("faults", &self.faults));
        out.push_str(&render_str_list("fault_scripts", &self.fault_scripts));
        let shards: Vec<String> = self.shards.iter().map(usize::to_string).collect();
        out.push_str(&format!("shards = [{}]\n", shards.join(", ")));
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        out.push_str(&format!("seeds = [{}]\n", seeds.join(", ")));
        let loads: Vec<String> = self.loads.iter().map(|l| toml::render_float(*l)).collect();
        out.push_str(&format!("loads = [{}]\n", loads.join(", ")));
        out.push_str(&format!("mode = {}\n", render_str(self.mode.name())));
        match &self.mode {
            Mode::Finite { messages, bytes } => {
                out.push_str(&format!("messages = {messages}\n"));
                out.push_str(&format!("bytes = {bytes}\n"));
            }
            Mode::Steady {
                warmup_ns,
                measure_ns,
                bytes,
            } => {
                out.push_str(&format!("warmup_ns = {warmup_ns}\n"));
                out.push_str(&format!("measure_ns = {measure_ns}\n"));
                out.push_str(&format!("bytes = {bytes}\n"));
            }
        }
        out.push_str(&format!("fault_seed = {}\n", self.fault_seed));
        // Emitted only when set, so sections that predate the field keep
        // their canonical form (and the manifest its config hash).
        if let Some(entry) = &self.relative_to {
            out.push_str(&format!("relative_to = {}\n", render_str(entry)));
        }
        out
    }
}

impl Structure {
    fn from_table(t: &Table) -> Result<Structure, ManifestError> {
        let section = t.path_str();
        let bad = |field: &str, reason: String| field_err(&section, field, reason);
        check_keys(
            t,
            &[
                "topologies",
                "enumerate",
                "max_routers",
                "metrics",
                "link_failures",
                "seed",
            ],
        )?;
        let enumerated = t.get("enumerate").is_some();
        let source = if enumerated {
            "enumerate"
        } else {
            "topologies"
        };
        if enumerated && t.get("topologies").is_some() {
            let reason = "rows are listed (`topologies`) or enumerated, not both";
            return Err(bad(source, reason.into()));
        }
        if !enumerated && t.get("max_routers").is_some() {
            let reason = "caps an enumeration; this section has none";
            return Err(bad("max_routers", reason.into()));
        }
        let mut topologies = Vec::new();
        for spec in get_str_list(t, "topologies")?.unwrap_or_default() {
            let topo = TopoSpec::parse(&spec).map_err(|reason| bad(source, reason))?;
            if topo.concentration != 1 {
                let c = topo.concentration;
                let reason = format!("a row is a router graph; {spec:?} has concentration {c}");
                return Err(bad(source, reason));
            }
            topologies.push(topo.graph_name());
        }
        let mut metrics = Vec::new();
        let columns = || Column::ALL.into_iter().chain(Column::LAYOUT);
        for name in get_str_list(t, "metrics")?.unwrap_or_default() {
            let column = columns().find(|c| c.name() == name);
            let known = columns().map(Column::name).collect::<Vec<_>>().join(", ");
            let unknown = format!("unknown metric {name:?}; known: {known}");
            metrics.push(column.ok_or_else(|| bad("metrics", unknown))?);
        }
        if metrics.is_empty() {
            return Err(bad("metrics", "a table needs at least one column".into()));
        }
        let cap = t.get("max_routers").map(|_| get_u64(t, "max_routers", 0));
        let structure = Structure {
            name: section_name(t),
            topologies,
            enumerate: get_str_list(t, "enumerate")?.unwrap_or_default(),
            max_routers: cap.transpose()?,
            metrics,
            link_failures: get_f64_list(t, "link_failures")?.unwrap_or_default(),
            seed: get_u64(t, "seed", 0x5EED)?,
        };
        let levels = &structure.link_failures;
        let sound = |(i, f): (usize, &f64)| (0.0..1.0).contains(f) && !levels[..i].contains(f);
        if let Some((_, f)) = levels.iter().enumerate().find(|&level| !sound(level)) {
            let reason = format!("proportions are distinct fractions in [0, 1), got {f}");
            return Err(bad("link_failures", reason));
        }
        if structure.metrics.iter().any(|&c| latency_column(c)) {
            let beside =
                |c: &&Column| !latency_column(**c) && !matches!(c, Column::Routers | Column::Radix);
            if let Some(c) = structure.metrics.iter().find(beside) {
                let reason = format!(
                    "{} cannot share a table with the latency columns, whose rows are switch \
                     latencies; only routers and radix can",
                    c.name()
                );
                return Err(bad("metrics", reason));
            }
            if !levels.is_empty() {
                let reason = "the latency columns' rows are switch latencies, not failure levels";
                return Err(bad("link_failures", reason.into()));
            }
        }
        let unswept = |c: &&Column| !levels.is_empty() && failure_metric(**c).is_none();
        if let Some(c) = structure.metrics.iter().find(unswept) {
            let swept = "diameter, mean-distance and bisection-upper";
            let reason = format!("{} has no failure sweep; {swept} have", c.name());
            return Err(bad("metrics", reason));
        }
        let rows = structure.rows().map_err(|reason| bad(source, reason))?;
        if rows.is_empty() {
            return Err(bad(source, "the table has no rows".into()));
        }
        let mut seen = HashSet::new();
        if let Some((twice, _)) = rows.iter().find(|(r, _)| !seen.insert(r.graph_name())) {
            let reason = format!("{} is a row twice (ids are unique)", twice.graph_name());
            return Err(bad(source, reason));
        }
        // A listed spec met the size guard when it parsed; an enumerated
        // member that is to be built meets it here.
        let oversized = (rows.iter()).find_map(|(r, _)| TopoSpec::parse(&r.canonical()).err());
        match oversized.filter(|_| !structure.is_closed_form()) {
            Some(reason) => Err(bad(source, format!("{reason}; set max_routers"))),
            None => Ok(structure),
        }
    }

    fn to_toml(&self) -> String {
        let mut out = format!("[structure.{}]\n", self.name);
        if self.enumerate.is_empty() {
            out.push_str(&render_str_list("topologies", &self.topologies));
        } else {
            out.push_str(&render_str_list("enumerate", &self.enumerate));
        }
        if let Some(cap) = self.max_routers {
            out.push_str(&format!("max_routers = {cap}\n"));
        }
        let metrics: Vec<String> = self.metrics.iter().map(|c| c.name().to_string()).collect();
        out.push_str(&render_str_list("metrics", &metrics));
        if !self.link_failures.is_empty() {
            let levels = self.link_failures.iter().map(|f| toml::render_float(*f));
            let levels = levels.collect::<Vec<_>>().join(", ");
            out.push_str(&format!("link_failures = [{levels}]\n"));
        }
        out.push_str(&format!("seed = {}\n", self.seed));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = r#"
[manifest]
name = "mini"
description = "a test manifest"

[experiment.eq]
topologies = ["ring(9)x2"]
routings = ["minimal"]
shards = [1, 2]
seeds = [7]
mode = "finite"
messages = 2
bytes = 1024

[experiment.steady]
topologies = ["lps(11,7)x4"]
routings = ["ugal-l"]
patterns = ["adversarial(4)"]
faults = ["links(0.05)"]
mode = "steady"
warmup_ns = 2000
measure_ns = 8000
loads = [0.7]

[structure.shape]
topologies = ["LPS(11, 7)", "ring(9)x1"]
metrics = ["routers", "mu1"]
seed = 0xC0FFEE

[structure.decay]
enumerate = ["slimfly(8)"]
max_routers = 60
metrics = ["diameter"]
link_failures = [0, 0.25]
"#;

    #[test]
    fn parses_and_round_trips_canonically() {
        let m = Manifest::parse(SMOKE).unwrap();
        assert_eq!(m.name, "mini");
        assert_eq!(m.experiments.len(), 2);
        assert_eq!(m.experiments[0].shards, vec![1, 2]);
        let [shape, decay] = m.structures.as_slice() else {
            panic!("two structure sections");
        };
        assert_eq!(shape.topologies, ["lps(11,7)", "ring(9)"]);
        assert_eq!(shape.metrics, [Column::Routers, Column::Mu1]);
        assert_eq!(shape.seed, 0xC0FFEE);
        assert!(!shape.is_closed_form());
        // slimfly(3), (4) and (5) have 18, 32 and 50 routers; slimfly(7) has 98.
        let rows = decay.rows().unwrap();
        let rows: Vec<String> = rows.iter().map(|(topo, _)| topo.graph_name()).collect();
        assert_eq!(rows, ["slimfly(3)", "slimfly(4)", "slimfly(5)"]);
        assert_eq!(decay.link_failures, [0.0, 0.25]);
        assert_eq!(
            m.experiments[1].mode,
            Mode::Steady {
                warmup_ns: 2000,
                measure_ns: 8000,
                bytes: 4096
            }
        );
        let canonical = m.to_toml();
        let back = Manifest::parse(&canonical).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.to_toml(), canonical, "canonical form is a fixpoint");
        assert_eq!(m.config_hash(), back.config_hash());
        assert_eq!(m.config_hash().len(), 16);
    }

    #[test]
    fn typed_errors_name_the_offending_field() {
        let cases: Vec<(&str, &str, &str, &str)> = vec![
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"warp-speed\"]\n",
                "experiment.e",
                "routings",
                "unknown routing algorithm",
            ),
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"torus(4)\"]\nroutings = [\"minimal\"]\n",
                "experiment.e",
                "topologies",
                "unknown topology family",
            ),
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nmode = \"steady\"\npatterns = [\"mystery\"]\n",
                "experiment.e",
                "patterns",
                "unknown traffic pattern",
            ),
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nfaults = [\"meteor(3)\"]\n",
                "experiment.e",
                "faults",
                "",
            ),
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nloads = [1.5]\n",
                "experiment.e",
                "loads",
                "fractions in (0, 1]",
            ),
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nshards = [0]\n",
                "experiment.e",
                "shards",
                ">= 1",
            ),
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nwingspan = 3\n",
                "experiment.e",
                "wingspan",
                "unknown field",
            ),
            // The retired placed micro-benchmark spellings are refused by name:
            // the `offered` mode, the `ranks` key and a finite pattern axis.
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nmode = \"offered\"\n",
                "experiment.e",
                "mode",
                "unknown mode \"offered\"; known modes: finite, steady",
            ),
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\nmode = \"steady\"\npatterns = [\"shuffle\"]\nranks = 8\n",
                "experiment.e",
                "ranks",
                "unknown field",
            ),
            (
                "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\npatterns = [\"shuffle\"]\n",
                "experiment.e",
                "patterns",
                "set mode = \"steady\"",
            ),
            // `[perf.*]` is not a section kind.
            (
                "[manifest]\nname = \"x\"\n[perf.p]\ntopology = \"ring(9)\"\nrouting = \"minimal\"\n",
                "perf.p",
                "",
                "unknown section; expected [manifest], [experiment.*] or [structure.*]",
            ),
        ];
        for (src, section, field, reason_frag) in cases {
            match Manifest::parse(src) {
                Err(ManifestError::Field {
                    section: s,
                    field: f,
                    reason,
                }) => {
                    assert_eq!(s, section, "{src}");
                    assert_eq!(f, field, "{src}");
                    assert!(
                        reason.contains(reason_frag),
                        "reason {reason:?} missing {reason_frag:?}"
                    );
                }
                other => panic!("expected a Field error for {src:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn toml_errors_pass_through_with_location() {
        match Manifest::parse("[manifest\nname = \"x\"\n") {
            Err(ManifestError::Toml(e)) => assert_eq!(e.line, 1),
            other => panic!("expected a Toml error, got {other:?}"),
        }
    }

    #[test]
    fn pattern_axis_requires_steady_mode() {
        let src = "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\"]\nroutings = [\"minimal\"]\npatterns = [\"random\"]\n";
        match Manifest::parse(src) {
            Err(ManifestError::Field { field, .. }) => assert_eq!(field, "patterns"),
            other => panic!("{other:?}"),
        }
    }

    /// A steady section's traffic is one mix per point: a pattern entry is
    /// the mix `traffic(1, P, bytes)`, so naming both axes is refused rather
    /// than one silently shadowing the other.
    #[test]
    fn a_steady_section_names_patterns_or_jobs_not_both() {
        let steady = "mode = \"steady\"\nloads = [0.5]\n";
        let both = format!("{steady}patterns = [\"tornado\"]\njobs = [\"traffic(1, random)\"]\n");
        match section(&both) {
            Err(ManifestError::Field { field, reason, .. }) => {
                assert_eq!(field, "jobs");
                assert!(reason.contains("not both"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
        assert!(section(&format!("{steady}patterns = [\"tornado\"]\n")).is_ok());
        assert!(section(&format!("{steady}jobs = [\"traffic(1, random)\"]\n")).is_ok());
    }

    fn section(body: &str) -> Result<Experiment, ManifestError> {
        let src = format!(
            "[manifest]\nname = \"x\"\n[experiment.e]\ntopologies = [\"ring(9)\", \"ring(5)x2\"]\n\
             routings = [\"minimal\", \"valiant\"]\n{body}"
        );
        Manifest::parse(&src).map(|m| m.experiments[0].clone())
    }

    fn rejected_field(body: &str) -> String {
        match section(body) {
            Err(ManifestError::Field { field, .. }) => field,
            other => panic!("{body:?}: expected a Field error, got {other:?}"),
        }
    }

    #[test]
    fn relative_to_names_one_entry_of_one_axis() {
        // An entry on no axis is a typed error naming the field.
        assert_eq!(rejected_field("relative_to = \"ugal-l\"\n"), "relative_to");
        assert_eq!(rejected_field("relative_to = 3\n"), "relative_to");
        let e = section("relative_to = \"minimal\"\n").unwrap();
        assert_eq!(e.relative_axis(), Some(("routings", "minimal")));
        // Topology entries are matched in canonical spelling.
        let e = section("relative_to = \"Ring(5) x 2\"\n").unwrap();
        assert_eq!(e.relative_axis(), Some(("topologies", "ring(5)x2")));
        // "none" sits on both fault axes by default: the swept one is meant.
        let e =
            section("fault_scripts = [\"none\", \"churn(1mhz, 5us)\"]\nrelative_to = \"none\"\n")
                .unwrap();
        assert_eq!(e.relative_axis(), Some(("fault_scripts", "none")));
        let e = section("faults = [\"none\", \"links(0.1)\"]\nrelative_to = \"none\"\n").unwrap();
        assert_eq!(e.relative_axis(), Some(("faults", "none")));
        // The field round-trips, and is rendered only when set.
        let m = Manifest::parse(SMOKE).unwrap();
        assert!(!m.to_toml().contains("relative_to"));
        let mut with = m.clone();
        with.experiments[0].relative_to = Some("minimal".to_string());
        assert_eq!(Manifest::parse(&with.to_toml()).unwrap(), with);
        assert_ne!(with.config_hash(), m.config_hash());
    }

    #[test]
    fn structure_errors_name_the_offending_field() {
        let rows = "topologies = [\"lps(3,5)\"]\n";
        let cols = "metrics = [\"diameter\"]\n";
        for (body, field, reason_frag) in [
            (
                format!("{rows}metrics = [\"wingspan\"]\n"),
                "metrics",
                "unknown metric \"wingspan\"; known: routers, radix",
            ),
            (
                format!("{rows}metrics = []\n"),
                "metrics",
                "at least one column",
            ),
            (rows.to_string(), "metrics", "at least one column"),
            (format!("topologies = []\n{cols}"), "topologies", "no rows"),
            (cols.to_string(), "topologies", "no rows"),
            (
                format!("enumerate = [\"lps(5)\"]\n{cols}"),
                "enumerate",
                "no rows",
            ),
            (
                format!("enumerate = [\"lps(30)\"]\nmax_routers = 100\n{cols}"),
                "enumerate",
                "no rows",
            ),
            (
                format!("{rows}enumerate = [\"lps(30)\"]\n{cols}"),
                "enumerate",
                "not both",
            ),
            (
                format!("enumerate = [\"ring(30)\"]\n{cols}"),
                "enumerate",
                "not an enumeration",
            ),
            (
                format!("enumerate = [\"lps(30)x2\"]\n{cols}"),
                "enumerate",
                "not an enumeration",
            ),
            (
                format!("enumerate = [\"lps(5000)\"]\n{cols}"),
                "enumerate",
                "at most 4096",
            ),
            (
                format!("enumerate = [\"lps(300)\"]\n{cols}"),
                "enumerate",
                "is too large",
            ),
            (
                format!("{rows}max_routers = 100\n{cols}"),
                "max_routers",
                "caps an enumeration",
            ),
            (
                format!("topologies = [\"lps(3,5)x2\"]\n{cols}"),
                "topologies",
                "has concentration 2",
            ),
            (
                format!("topologies = [\"torus(4)\"]\n{cols}"),
                "topologies",
                "unknown topology family",
            ),
            (
                format!("{rows}{cols}link_failures = [0.5, 1.0]\n"),
                "link_failures",
                "[0, 1), got 1",
            ),
            (
                format!("{rows}{cols}link_failures = [-0.1]\n"),
                "link_failures",
                "[0, 1)",
            ),
            (
                format!("{rows}{cols}link_failures = [0.1, 0.3, 0.1]\n"),
                "link_failures",
                "distinct fractions in [0, 1), got 0.1",
            ),
            // Two spellings of one topology, and a family enumerated twice,
            // would each record one baseline key twice.
            (
                format!("topologies = [\"lps(3,5)\", \"LPS(3, 5)\"]\n{cols}"),
                "topologies",
                "lps(3,5) is a row twice",
            ),
            (
                format!("enumerate = [\"slimfly(8)\", \"slimfly(6)\"]\n{cols}"),
                "enumerate",
                "slimfly(3) is a row twice",
            ),
            // The trial count is a constant of the runner, not a key.
            (
                format!("{rows}{cols}link_failures = [0.1]\ntrials = 0\n"),
                "trials",
                "unknown field",
            ),
            (
                format!("{rows}metrics = [\"girth\"]\nlink_failures = [0.1]\n"),
                "metrics",
                "girth has no failure sweep",
            ),
            (
                format!("{rows}{cols}restarts = 3\n"),
                "restarts",
                "unknown field; known fields: topologies, enumerate",
            ),
            (format!("{rows}{cols}seed = -1\n"), "seed", "non-negative"),
        ] {
            let src = format!("[manifest]\nname = \"x\"\n[structure.s]\n{body}");
            match Manifest::parse(&src) {
                Err(ManifestError::Field {
                    section,
                    field: f,
                    reason,
                }) => {
                    assert_eq!(
                        (section.as_str(), f.as_str()),
                        ("structure.s", field),
                        "{body}"
                    );
                    assert!(reason.contains(reason_frag), "{body}: {reason:?}");
                }
                other => panic!("{body:?}: expected a Field error, got {other:?}"),
            }
        }
        // A section name serves one kind: its rows and an experiment's points
        // would share ids and a table.
        let clash = "[manifest]\nname = \"x\"\n[experiment.s]\ntopologies = [\"ring(9)\"]\n\
                     routings = [\"minimal\"]\n[structure.s]\ntopologies = [\"ring(9)\"]\nmetrics = [\"girth\"]\n";
        assert!(matches!(
            Manifest::parse(clash),
            Err(ManifestError::Field { section, .. }) if section == "structure.s"
        ));
    }

    #[test]
    fn structure_sections_leave_other_manifests_canonical_form_alone() {
        let m = Manifest::parse(SMOKE).unwrap();
        let mut without = m.clone();
        without.structures.clear();
        assert!(!without.to_toml().contains("structure"));
        assert_ne!(without.config_hash(), m.config_hash());
        // Only the keys a section sets are rendered.
        let toml = m.to_toml();
        assert!(toml.contains("[structure.shape]\ntopologies = [\"lps(11,7)\", \"ring(9)\"]\nmetrics = [\"routers\", \"mu1\"]\nseed = 12648430\n"), "{toml}");
        assert!(toml.contains("[structure.decay]\nenumerate = [\"slimfly(8)\"]\nmax_routers = 60\nmetrics = [\"diameter\"]\nlink_failures = [0.0, 0.25]\nseed = 24301\n"), "{toml}");
    }

    #[test]
    fn empty_manifest_is_rejected() {
        assert!(Manifest::parse("[manifest]\nname = \"x\"\n").is_err());
    }
}
