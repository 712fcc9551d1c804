//! The pluggable fault-injection subsystem: run the simulator on degraded
//! topologies.
//!
//! The paper's Fig. 5 argues that LPS Ramanujan expanders stay structurally
//! healthy under random link failures; this module makes the *dynamic* half of
//! that claim testable by letting every simulation run on a damaged graph. A
//! [`FaultPlan`] — a composition of [`FaultModel`]s selected by spec string
//! through a string-keyed [`FaultRegistry`], the fault family of the one
//! [`crate::spec::Registry`] — is applied once at [`SimNetwork`] construction
//! ([`SimNetwork::with_faults`]): failed links
//! and down routers are deleted from the router graph, and the distance /
//! next-hop oracle is rebuilt over the *surviving* graph. Routing algorithms
//! therefore steer around failures through the ordinary minimal-port machinery
//! — the per-hop hot path is byte-for-byte the pristine one, with no fault
//! branching.
//!
//! # Fault specs
//!
//! A plan spec is one or more model terms joined by `+`, each a registry name
//! with numeric arguments, in the shared grammar of [`crate::spec`]
//! (docs/ARCHITECTURE.md § "Spec grammar"). Built-ins:
//!
//! | spec | meaning |
//! |------|---------|
//! | `none` | no faults (the pristine graph; never consumes the seed) |
//! | `links(f)` | a fraction `f ∈ [0, 1]` of links chosen uniformly at random |
//! | `routers(k)` | `k` routers chosen uniformly at random |
//! | `link(u, v)` | the specific link `{u, v}` (absent links are ignored) |
//! | `router(r)` | the specific router `r` |
//!
//! Random draws are deterministic in the plan seed ([`FaultPlan::with_seed`])
//! and shared with the static Fig. 5 sweeps
//! ([`spectralfly_graph::failures::draw_failed_links`]), so a static metric
//! sweep and a dynamic throughput sweep at equal seeds damage identical links.
//!
//! A **down router** loses all of its links but keeps its vertex id (endpoint
//! numbering never shifts); its endpoints are dead — a workload that references
//! them is rejected with [`Infeasible::RouterDown`] before the run starts, and
//! endpoint pairs separated by the damage are rejected with
//! [`Infeasible::Disconnected`], by [`crate::Simulator::try_run`] and
//! [`crate::Simulator::try_run_with_offered_load`].
//!
//! ```
//! use spectralfly_graph::CsrGraph;
//! use spectralfly_simnet::fault::FaultPlan;
//! use spectralfly_simnet::SimNetwork;
//!
//! // A 6-ring with router 3 administratively down.
//! let ring = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
//! let plan = FaultPlan::parse("router(3)").unwrap();
//! let net = SimNetwork::with_faults(ring, 1, &plan).unwrap();
//! assert!(net.has_faults());
//! assert!(!net.router_alive(3));
//! // The survivors re-route the long way around: 2 -> 4 is now 4 hops, not 2.
//! assert_eq!(net.dist(2, 4), 4);
//! // A no-fault plan leaves the network pristine (and bit-identical to
//! // `SimNetwork::new` — locked by a golden-seed test).
//! let pristine = SimNetwork::with_faults(net.graph().clone(), 1, &FaultPlan::none());
//! assert!(!pristine.unwrap().has_faults());
//! ```

use crate::network::SimNetwork;
use crate::spec::{self, Arg, ArgReader, Call, DuplicateName, Family, Registry, ResolveError};
use crate::workload::Workload;
use spectralfly_graph::csr::{CsrGraph, VertexId};
use spectralfly_graph::failures::{draw_failed_links, draw_failed_routers};
use spectralfly_graph::paths::UNREACHABLE_U16;
use std::sync::{Arc, LazyLock};

/// Why a fault plan could not be built or a run could not start on a degraded
/// network: the shared [`ResolveError`] triple — `Unknown` model, `BadSpec`
/// grammar, `BadArgs` (arguments invalid for the model, or for the graph the
/// plan is applied to) — around the three ways damage makes a run
/// [`Infeasible`] (`FaultError::Other`).
pub type FaultError = ResolveError<Infeasible>;

/// How a fault plan makes a run infeasible before it starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Infeasible {
    /// A workload references an endpoint whose router is down.
    RouterDown {
        /// The dead endpoint.
        endpoint: usize,
        /// The down router serving it.
        router: VertexId,
    },
    /// A workload pairs two endpoints the damage has separated.
    Disconnected {
        /// Source endpoint.
        src: usize,
        /// Destination endpoint.
        dst: usize,
        /// Source endpoint's router.
        src_router: VertexId,
        /// Destination endpoint's router.
        dst_router: VertexId,
    },
    /// A steady run needs every surviving router in one connected component,
    /// but the damage fragmented them. (The message still says
    /// "live-pattern": error outcomes are digested, and recorded baselines
    /// pin its text.)
    Fragmented {
        /// Number of connected components among the surviving routers.
        components: usize,
    },
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasible::RouterDown { endpoint, router } => {
                write!(f, "endpoint {endpoint} is attached to down router {router}")
            }
            Infeasible::Disconnected {
                src,
                dst,
                src_router,
                dst_router,
            } => write!(
                f,
                "endpoints {src} (router {src_router}) and {dst} (router {dst_router}) \
                 are disconnected by the fault plan"
            ),
            Infeasible::Fragmented { components } => write!(
                f,
                "the fault plan fragments the surviving routers into {components} \
                 components; live-pattern steady-state runs need one"
            ),
        }
    }
}

/// The links and routers one fault model takes down on a graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSet {
    /// Undirected links to delete (absent links are ignored).
    pub links: Vec<(VertexId, VertexId)>,
    /// Routers to take down (all their links are deleted; endpoints go dead).
    pub routers: Vec<VertexId>,
}

/// A fault model: a deterministic draw of failed links / down routers on a
/// graph.
///
/// Implementations must be `Send + Sync` (plans are shared across parallel
/// sweeps). Randomized models must be deterministic in `seed`; static models
/// ignore it. Arguments that only become checkable against a concrete graph
/// (a router count larger than the machine, an out-of-range id) are rejected
/// here with [`ResolveError::BadArgs`].
pub trait FaultModel: Send + Sync {
    /// Canonical registry name (lowercase, dash-separated).
    fn name(&self) -> &str;

    /// The fault set this model inflicts on `g`, deterministic in `seed`.
    fn draw(&self, g: &CsrGraph, seed: u64) -> Result<FaultSet, FaultError>;
}

/// Uniformly random link failures (`links(f)`): a fraction `f` of the graph's
/// links, drawn through the same machinery as the static Fig. 5 sweeps.
pub struct RandomLinks {
    fraction: f64,
}

impl FaultModel for RandomLinks {
    fn name(&self) -> &str {
        "links"
    }
    fn draw(&self, g: &CsrGraph, seed: u64) -> Result<FaultSet, FaultError> {
        Ok(FaultSet {
            links: draw_failed_links(g, self.fraction, seed),
            routers: Vec::new(),
        })
    }
}

/// Uniformly random router failures (`routers(k)`): `k` distinct routers.
pub struct RandomRouters {
    count: usize,
}

impl FaultModel for RandomRouters {
    fn name(&self) -> &str {
        "routers"
    }
    fn draw(&self, g: &CsrGraph, seed: u64) -> Result<FaultSet, FaultError> {
        let n = g.num_vertices();
        if self.count > n {
            let reason = format!("cannot fail {} of {n} routers", self.count);
            return Err(FAMILY.bad_args("routers", reason));
        }
        Ok(FaultSet {
            links: Vec::new(),
            routers: draw_failed_routers(n, self.count, seed),
        })
    }
}

/// One explicitly named down link (`link(u, v)`).
pub struct DownLink {
    u: VertexId,
    v: VertexId,
}

impl FaultModel for DownLink {
    fn name(&self) -> &str {
        "link"
    }
    fn draw(&self, _g: &CsrGraph, _seed: u64) -> Result<FaultSet, FaultError> {
        Ok(FaultSet {
            links: vec![(self.u, self.v)],
            routers: Vec::new(),
        })
    }
}

/// One explicitly named down router (`router(r)`).
pub struct DownRouter {
    r: VertexId,
}

impl FaultModel for DownRouter {
    fn name(&self) -> &str {
        "router"
    }
    fn draw(&self, _g: &CsrGraph, _seed: u64) -> Result<FaultSet, FaultError> {
        Ok(FaultSet {
            links: Vec::new(),
            routers: vec![self.r],
        })
    }
}

/// [`FaultModel::draw`], rejecting ids outside `g` — arguments that only
/// become checkable against a concrete graph.
fn draw_checked(model: &dyn FaultModel, g: &CsrGraph, seed: u64) -> Result<FaultSet, FaultError> {
    let n = g.num_vertices();
    let set = model.draw(g, seed)?;
    let out_of_range = |what: String| {
        FAMILY.bad_args(model.name(), format!("{what} out of range for {n} routers"))
    };
    if let Some(&(u, v)) = set.links.iter().find(|&&(u, v)| u.max(v) as usize >= n) {
        return Err(out_of_range(format!("link ({u}, {v})")));
    }
    if let Some(&r) = set.routers.iter().find(|&&r| r as usize >= n) {
        return Err(out_of_range(format!("router {r}")));
    }
    Ok(set)
}

/// Signature of a fault-model factory: an instance from a spec term's numeric
/// arguments.
pub type FaultFactory = dyn Fn(&[f64]) -> Result<Arc<dyn FaultModel>, FaultError> + Send + Sync;

/// The fault-model family of the one [`Registry`] (the contract every family
/// shares is docs/ARCHITECTURE.md § "The registry contract").
pub type FaultRegistry = Registry<FaultFactory>;

/// How this family calls itself in error messages; its factories report bad
/// arguments through it ([`Family::args`], [`Family::bad_args`]).
pub const FAMILY: Family = Family {
    unknown: "fault model",
    args: "fault model",
};

/// The fault models, built once per process. Closed: plans and scripts
/// select from this table only.
pub static BUILTINS: LazyLock<FaultRegistry> =
    LazyLock::new(|| FaultRegistry::builtins().expect("distinct names"));

fn vertex_arg(args: &ArgReader<f64>, idx: usize) -> Result<VertexId, FaultError> {
    let a = args.number(idx, f64::NAN)?;
    if !(a >= 0.0 && a.fract() == 0.0 && a <= u32::MAX as f64) {
        let position = idx + 1;
        return Err(args.bad(format!(
            "argument {position} must be a non-negative integer id, got {a}"
        )));
    }
    Ok(a as VertexId)
}

impl FaultRegistry {
    fn builtins() -> Result<Self, DuplicateName> {
        let mut r = Self::empty();
        r.register("links", |args| {
            let args = FAMILY.args("links", args);
            args.exactly_n_args(1)?;
            Ok(Arc::new(RandomLinks {
                fraction: args.fraction(0, f64::NAN, "fraction", true)?,
            }))
        })?;
        r.register("routers", |args| {
            let args = FAMILY.args("routers", args);
            args.exactly_n_args(1)?;
            let count = args.number(0, f64::NAN)?;
            if !(count >= 0.0 && count.fract() == 0.0) {
                return Err(args.bad(format!("count must be a non-negative integer, got {count}")));
            }
            Ok(Arc::new(RandomRouters {
                count: count as usize,
            }))
        })?;
        r.register("link", |args| {
            let args = FAMILY.args("link", args);
            args.exactly_n_args(2)?;
            Ok(Arc::new(DownLink {
                u: vertex_arg(&args, 0)?,
                v: vertex_arg(&args, 1)?,
            }))
        })?;
        r.register("router", |args| {
            let args = FAMILY.args("router", args);
            args.exactly_n_args(1)?;
            Ok(Arc::new(DownRouter {
                r: vertex_arg(&args, 0)?,
            }))
        })?;
        Ok(r)
    }

    fn register<F>(&mut self, name: &str, factory: F) -> Result<(), DuplicateName>
    where
        F: Fn(&[f64]) -> Result<Arc<dyn FaultModel>, FaultError> + Send + Sync + 'static,
    {
        self.insert(name, Arc::new(factory))
    }
}

/// Instantiate the fault model selected by one parsed spec term (of a plan,
/// e.g. `links(0.1)`, or the action of a script's `at(time, action)`).
fn create_call(term: &Call) -> Result<Arc<dyn FaultModel>, FaultError> {
    let factory = BUILTINS.lookup(&FAMILY, term.name)?;
    factory(&term.numbers()?)
}

/// The terms of a composed plan or script spec, with its canonical spelling:
/// the terms as written, joined by `+`. `none` and the empty string are the
/// empty composition. Fault terms take neither `x N` nor `@`.
fn parse_terms(src: &str) -> Result<(String, Vec<Call<'_>>), FaultError> {
    if matches!(spec::normalize(src).as_str(), "" | "none") {
        return Ok((String::new(), Vec::new()));
    }
    let terms = spec::parse(src)?
        .into_iter()
        .map(|term| match (term.times, &term.at) {
            (None, None) => Ok(term.call),
            _ => Err(term
                .call
                .error(term.call.end, "fault terms take neither 'x N' nor '@'")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let canonical = terms.iter().map(Call::text).collect::<Vec<_>>().join("+");
    Ok((canonical, terms))
}

/// What `spec()` reports for a composition with this canonical spelling.
fn spec_or_none(canonical: &str) -> String {
    match canonical {
        "" => "none",
        spelled => spelled,
    }
    .to_string()
}

/// A composed, seeded fault plan: what to break and with which random draws.
///
/// Plans are cheap to clone (terms are shared) and are applied once, at
/// network construction ([`crate::SimNetwork::with_faults`]). Two plans with
/// the same spec and seed damage any given graph identically
/// ([`FaultPlan::cache_key`] is the sweep caches' key).
#[derive(Clone, Default)]
pub struct FaultPlan {
    /// The canonical spelling (empty for the empty plan).
    spec: String,
    models: Vec<Arc<dyn FaultModel>>,
    seed: u64,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("spec", &self.spec())
            .field("seed", &self.seed)
            .finish()
    }
}

impl FaultPlan {
    /// The default per-plan seed (override with [`FaultPlan::with_seed`]).
    pub const DEFAULT_SEED: u64 = 0xFA117;

    /// The empty plan: no faults. Applying it is the identity (and networks
    /// built through it are bit-identical to pristine construction).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Parse a plan spec: model terms joined by `+`, e.g.
    /// `"links(0.1) + routers(2)"`; `"none"` (or an empty string) is the empty
    /// plan. Terms resolve through [`BUILTINS`].
    pub fn parse(spec: &str) -> Result<Self, FaultError> {
        let (spec, terms) = parse_terms(spec)?;
        Ok(FaultPlan {
            spec,
            models: terms.iter().map(create_call).collect::<Result<_, _>>()?,
            seed: Self::DEFAULT_SEED,
        })
    }

    /// Builder-style: set the seed of the plan's random draws.
    ///
    /// The first term draws with exactly this seed — which is what ties the
    /// `links(f)` model bit-for-bit to the static sweeps'
    /// [`spectralfly_graph::failures::delete_random_edges`] at the same seed;
    /// later terms use decorrelated derived seeds.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan breaks nothing.
    pub fn is_none(&self) -> bool {
        self.models.is_empty()
    }

    /// The plan's canonical spec string (`"none"` for the empty plan).
    pub fn spec(&self) -> String {
        spec_or_none(&self.spec)
    }

    /// A key identifying the damage the plan inflicts: spec plus seed (seed is
    /// omitted for the empty plan, which never draws). Sweep caches key their
    /// degraded graphs and rebuilt oracles by this.
    pub fn cache_key(&self) -> String {
        if self.is_none() {
            "none".to_string()
        } else {
            format!("{}#{:#x}", self.spec(), self.seed)
        }
    }

    /// Apply the plan to a router graph: delete the drawn links and every link
    /// of each down router, keeping all vertex ids (so endpoint numbering is
    /// stable; a down router survives as an isolated vertex).
    pub fn apply(&self, g: &CsrGraph) -> Result<AppliedFaults, FaultError> {
        let n = g.num_vertices();
        let mut down_routers = vec![false; n];
        let mut removed: Vec<(VertexId, VertexId)> = Vec::new();
        for (i, model) in self.models.iter().enumerate() {
            // Term 0 draws with the plan seed itself (shared with the static
            // sweeps); later terms decorrelate by index.
            let term_seed = self.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            let set = draw_checked(model.as_ref(), g, term_seed)?;
            removed.extend_from_slice(&set.links);
            for &r in &set.routers {
                down_routers[r as usize] = true;
            }
        }
        for (r, &down) in down_routers.iter().enumerate() {
            if down {
                for &w in g.neighbors(r as VertexId) {
                    removed.push((r as VertexId, w));
                }
            }
        }
        let graph = g.remove_edges(&removed);
        let removed_links = g.num_edges() - graph.num_edges();
        let any_down = down_routers.iter().any(|&d| d);
        Ok(AppliedFaults {
            graph,
            down_routers,
            removed_links,
            any_down,
            spec: self.spec(),
        })
    }
}

/// The outcome of applying a [`FaultPlan`] to a graph: the surviving topology
/// plus the damage metadata the simulator needs.
#[derive(Clone, Debug)]
pub struct AppliedFaults {
    /// The surviving router graph (all original vertex ids; down routers are
    /// isolated vertices).
    pub graph: CsrGraph,
    /// Administrative down mask, indexed by router id.
    pub down_routers: Vec<bool>,
    /// Undirected links actually removed (drawn links that existed, plus every
    /// link of each down router, deduplicated).
    pub removed_links: usize,
    /// Whether any router is administratively down.
    pub any_down: bool,
    /// The plan spec that produced this damage.
    pub spec: String,
}

impl AppliedFaults {
    /// Whether the plan changed nothing (no removed links, no down routers).
    pub fn is_pristine(&self) -> bool {
        self.removed_links == 0 && !self.any_down
    }
}

// ---------------------------------------------------------------------------
// Runtime fault scripts: time-scheduled failure and recovery.
// ---------------------------------------------------------------------------

/// One entry of an expanded [`FaultTimeline`]: something breaks or heals at a
/// scheduled instant.
///
/// Link events name the *undirected* link `{u, v}`; engines resolve them to
/// both directed link ids. Events are idempotent under composition through
/// per-resource down *counters*: two overlapping failures of the same link
/// need two recoveries (or one [`FaultEventKind::HealAll`]) before the link
/// carries traffic again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEventKind {
    /// The undirected link `{u, v}` goes down (both directions).
    LinkDown {
        /// One end of the link.
        u: VertexId,
        /// The other end.
        v: VertexId,
    },
    /// The undirected link `{u, v}` recovers (one failure's worth).
    LinkUp {
        /// One end of the link.
        u: VertexId,
        /// The other end.
        v: VertexId,
    },
    /// Router `r` goes down: all its links die and its NICs stop injecting.
    RouterDown {
        /// The failing router.
        r: VertexId,
    },
    /// Router `r` recovers (one failure's worth).
    RouterUp {
        /// The recovering router.
        r: VertexId,
    },
    /// Every runtime failure heals at once (down counters reset to zero).
    HealAll,
}

/// A scheduled fault event: what happens, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation time of the event, picoseconds.
    pub time_ps: u64,
    /// What breaks or heals.
    pub kind: FaultEventKind,
}

/// A [`FaultScript`] expanded against a concrete graph and horizon: the full,
/// deterministic schedule of runtime fault events, sorted by time (ties keep
/// script-term order). Both engines consume the same timeline — the PDES
/// engine replicates it on every shard — so fault state is identical across
/// engines and shard counts by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultTimeline {
    /// The scheduled events, sorted ascending by `time_ps`.
    pub events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// Whether the timeline schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[derive(Clone)]
enum ScriptAction {
    /// A registry fault model drawn and applied at the scheduled instant.
    Model {
        model: Arc<dyn FaultModel>,
    },
    HealAll,
}

#[derive(Clone)]
enum ScriptTerm {
    At { time_ps: u64, action: ScriptAction },
    Churn { rate_hz: f64, mttr_ps: u64 },
}

/// A time-scheduled runtime fault script: the dynamic counterpart of
/// [`FaultPlan`].
///
/// Where a plan damages the graph once at network construction, a script
/// schedules failures *and recoveries* while traffic is in flight. Terms are
/// joined by `+`:
///
/// | term | meaning |
/// |------|---------|
/// | `at(T, model(…))` | apply a registry fault model at time `T` (e.g. `at(5us, links(0.05))`) |
/// | `at(T, heal(all))` | heal every runtime failure at time `T` |
/// | `churn(R, M)` | Poisson link churn: failures at rate `R`, each healing after an exponential repair time with mean `M` |
///
/// Times (up to `u64` picoseconds) and rates (up to 1e12 Hz) take the unit
/// suffixes of the spec grammar. All random draws are
/// deterministic in the script seed ([`FaultScript::with_seed`]), so a script
/// expands to the identical [`FaultTimeline`] on every engine and shard
/// count.
///
/// ```
/// use spectralfly_simnet::fault::FaultScript;
/// let s = FaultScript::parse("at(5us, links(0.05)) + at(20us, heal(all))").unwrap();
/// assert!(!s.is_none());
/// assert_eq!(s.spec(), "at(5us, links(0.05))+at(20us, heal(all))");
/// ```
#[derive(Clone, Default)]
pub struct FaultScript {
    /// The canonical spelling (empty for the empty script).
    spec: String,
    terms: Vec<ScriptTerm>,
    seed: u64,
}

impl std::fmt::Debug for FaultScript {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultScript")
            .field("spec", &self.spec())
            .field("seed", &self.seed)
            .finish()
    }
}

impl FaultScript {
    /// The empty script: nothing ever breaks at runtime.
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// Parse a script spec (see the type docs for the terms); `"none"` or an
    /// empty string is the empty script. Grammar errors carry the byte offset
    /// of the offending token in the composed spec.
    pub fn parse(spec: &str) -> Result<Self, FaultError> {
        let (spec, terms) = parse_terms(spec)?;
        Ok(FaultScript {
            spec,
            terms: terms.iter().map(script_term).collect::<Result<_, _>>()?,
            seed: FaultPlan::DEFAULT_SEED,
        })
    }

    /// Builder-style: set the seed of the script's random draws (model draws
    /// and churn arrival/repair times).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The script's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the script schedules nothing.
    pub fn is_none(&self) -> bool {
        self.terms.is_empty()
    }

    /// The script's canonical spec string (`"none"` for the empty script).
    pub fn spec(&self) -> String {
        spec_or_none(&self.spec)
    }

    /// Expand the script against a concrete (surviving) router graph into the
    /// deterministic event timeline up to `horizon_ps` inclusive. Pure in
    /// (spec, seed, graph, horizon): every engine and shard expanding the same
    /// script sees the identical timeline.
    pub fn expand(&self, g: &CsrGraph, horizon_ps: u64) -> Result<FaultTimeline, FaultError> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut events: Vec<FaultEvent> = Vec::new();
        for (i, term) in self.terms.iter().enumerate() {
            // Term 0 draws with the script seed itself; later terms
            // decorrelate by index (same scheme as FaultPlan::apply).
            let term_seed = self.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            match term {
                ScriptTerm::At { time_ps, action } => {
                    if *time_ps > horizon_ps {
                        continue;
                    }
                    match action {
                        ScriptAction::HealAll => events.push(FaultEvent {
                            time_ps: *time_ps,
                            kind: FaultEventKind::HealAll,
                        }),
                        ScriptAction::Model { model } => {
                            let set = draw_checked(model.as_ref(), g, term_seed)?;
                            for &(u, v) in &set.links {
                                events.push(FaultEvent {
                                    time_ps: *time_ps,
                                    kind: FaultEventKind::LinkDown { u, v },
                                });
                            }
                            for &r in &set.routers {
                                events.push(FaultEvent {
                                    time_ps: *time_ps,
                                    kind: FaultEventKind::RouterDown { r },
                                });
                            }
                        }
                    }
                }
                ScriptTerm::Churn { rate_hz, mttr_ps } => {
                    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
                    if edges.is_empty() {
                        continue;
                    }
                    let mut rng = StdRng::seed_from_u64(term_seed);
                    let mean_gap_ps = 1e12 / rate_hz;
                    let mut t = 0.0f64;
                    loop {
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        t += -u.ln() * mean_gap_ps;
                        if !t.is_finite() || t > horizon_ps as f64 {
                            break;
                        }
                        let down_ps = t.round() as u64;
                        let (a, b) = edges[rng.gen_range(0..edges.len())];
                        events.push(FaultEvent {
                            time_ps: down_ps,
                            kind: FaultEventKind::LinkDown { u: a, v: b },
                        });
                        let ur: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let repair_ps = (-ur.ln() * *mttr_ps as f64).round() as u64;
                        let up_ps = down_ps.saturating_add(repair_ps);
                        if up_ps <= horizon_ps {
                            events.push(FaultEvent {
                                time_ps: up_ps,
                                kind: FaultEventKind::LinkUp { u: a, v: b },
                            });
                        }
                    }
                }
            }
        }
        // Stable: ties keep generation (script-term) order, so the timeline is
        // a pure function of (spec, seed, graph, horizon).
        events.sort_by_key(|e| e.time_ps);
        Ok(FaultTimeline { events })
    }
}

/// A script argument that must be a number carrying one of `units` (matched
/// case-insensitively; `""` is the bare-number scale), scaled to the base unit.
fn unit_arg(
    term: &Call,
    arg: &Arg,
    units: &[(&str, f64)],
    expect: &str,
) -> Result<f64, FaultError> {
    let scaled = match arg {
        Arg::Num(n) => units
            .iter()
            .find(|(unit, _)| n.unit.eq_ignore_ascii_case(unit))
            .map(|(_, scale)| n.value * scale),
        Arg::Call(_) => None,
    };
    scaled.ok_or_else(|| {
        term.error(arg.offset(), format!("expected {expect}"))
            .into()
    })
}

/// A time argument in picoseconds: `ps`/`ns`/`us`/`ms`/`s` suffixes, bare
/// numbers are ps. Must be non-negative and fit `u64` picoseconds.
fn time_arg(term: &Call, arg: &Arg) -> Result<u64, FaultError> {
    const UNITS: [(&str, f64); 6] = [
        ("", 1.0),
        ("ps", 1.0),
        ("ns", 1e3),
        ("us", 1e6),
        ("ms", 1e9),
        ("s", 1e12),
    ];
    let ps = unit_arg(term, arg, &UNITS, "a time like '5us' or '300ns'")?.round();
    // `u64::MAX as f64` rounds up to 2^64, the first value that does not fit.
    if !(0.0..u64::MAX as f64).contains(&ps) {
        let reason = format!("time must be non-negative and fit u64 picoseconds, got {ps} ps");
        return Err(FAMILY.bad_args(&term.key(), reason));
    }
    Ok(ps as u64)
}

/// A rate argument in Hz: `hz`/`khz`/`mhz`/`ghz` suffixes, bare numbers are
/// Hz. Must be positive with a mean gap of at least one picosecond — a
/// faster process would never advance the picosecond clock it is expanded on.
fn rate_arg(term: &Call, arg: &Arg) -> Result<f64, FaultError> {
    const UNITS: [(&str, f64); 5] = [
        ("", 1.0),
        ("hz", 1.0),
        ("khz", 1e3),
        ("mhz", 1e6),
        ("ghz", 1e9),
    ];
    let hz = unit_arg(term, arg, &UNITS, "a rate like '200khz'")?;
    if !(hz > 0.0 && hz <= 1e12) {
        let reason =
            format!("rate must be positive and at most 1e12 Hz (a mean gap of 1 ps), got {hz} Hz");
        return Err(FAMILY.bad_args(&term.key(), reason));
    }
    Ok(hz)
}

fn script_term(term: &Call) -> Result<ScriptTerm, FaultError> {
    Ok(match (term.key().as_str(), term.args.as_slice()) {
        ("at", [time, Arg::Call(action)]) => {
            let reject = |reason: &str| Err(action.error(action.start, reason).into());
            let action = match (action.key().as_str(), action.args.as_slice()) {
                ("heal", [Arg::Call(all)]) if all.args.is_empty() && all.key() == "all" => {
                    ScriptAction::HealAll
                }
                ("heal", _) => return reject("heal takes the single argument 'all'"),
                ("at" | "churn", _) => {
                    return reject("script terms cannot nest inside at(time, action)")
                }
                _ => ScriptAction::Model {
                    model: create_call(action)?,
                },
            };
            ScriptTerm::At {
                time_ps: time_arg(term, time)?,
                action,
            }
        }
        ("churn", [rate, mttr]) => ScriptTerm::Churn {
            rate_hz: rate_arg(term, rate)?,
            mttr_ps: time_arg(term, mttr)?,
        },
        (head, _) => {
            let reason = if head == "heal" {
                "heal(all) must be scheduled inside at(time, heal(all))"
            } else {
                "expected at(time, action) or churn(rate, mttr)"
            };
            return Err(term.error(term.start, reason).into());
        }
    })
}

// ---------------------------------------------------------------------------
// Run-start validation.
// ---------------------------------------------------------------------------

/// Check a finite workload against a degraded network: every referenced
/// endpoint's router must be up, and every (src, dst) pair must be connected
/// on the surviving graph. No-op quickly on pristine networks (the engines
/// only call this when [`SimNetwork::has_faults`] is true).
pub(crate) fn validate_workload(net: &SimNetwork, wl: &Workload) -> Result<(), FaultError> {
    for m in &wl.messages {
        let sr = net.router_of_endpoint(m.src);
        let dr = net.router_of_endpoint(m.dst);
        if !net.router_alive(sr) {
            return Err(FaultError::Other(Infeasible::RouterDown {
                endpoint: m.src,
                router: sr,
            }));
        }
        if !net.router_alive(dr) {
            return Err(FaultError::Other(Infeasible::RouterDown {
                endpoint: m.dst,
                router: dr,
            }));
        }
        if sr != dr && net.dist(sr, dr) == UNREACHABLE_U16 {
            return Err(FaultError::Other(Infeasible::Disconnected {
                src: m.src,
                dst: m.dst,
                src_router: sr,
                dst_router: dr,
            }));
        }
    }
    Ok(())
}

/// Check a steady run against a degraded network: its job mix is placed on,
/// and draws destinations across, the whole surviving machine, so every alive
/// router must sit in one connected component.
pub(crate) fn validate_steady_mix(net: &SimNetwork) -> Result<(), FaultError> {
    let components = net.alive_component_count();
    if components != 1 {
        // components == 0 means every router is down — as infeasible for a
        // machine-wide mix as a fragmented one.
        return Err(FaultError::Other(Infeasible::Fragmented { components }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> CsrGraph {
        let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        e.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &e)
    }

    #[test]
    fn parse_none_and_empty_are_the_empty_plan() {
        for spec in ["none", "None", "", "  ", " NONE "] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert!(plan.is_none(), "{spec:?}");
            assert_eq!(plan.spec(), "none");
            assert_eq!(plan.cache_key(), "none");
        }
        // The empty plan's cache key ignores the seed: no draws happen.
        assert_eq!(FaultPlan::none().with_seed(9).cache_key(), "none");
    }

    #[test]
    fn parse_composes_terms_and_keeps_spelling() {
        let plan = FaultPlan::parse("links(0.1) + routers(2)")
            .unwrap()
            .with_seed(5);
        assert!(!plan.is_none());
        assert_eq!(plan.spec(), "links(0.1)+routers(2)");
        assert_eq!(plan.cache_key(), "links(0.1)+routers(2)#0x5");
        assert_eq!(plan.seed(), 5);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(matches!(
            FaultPlan::parse("links(0.1) + "),
            Err(FaultError::BadSpec { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("links(0.1"),
            Err(FaultError::BadSpec { .. })
        ));
    }

    #[test]
    fn explicit_link_and_router_terms_apply() {
        let g = ring(6);
        let applied = FaultPlan::parse("link(0, 1) + router(3)")
            .unwrap()
            .apply(&g)
            .unwrap();
        // link(0,1) plus router 3's two links.
        assert_eq!(applied.removed_links, 3);
        assert!(applied.any_down);
        assert!(applied.down_routers[3]);
        assert_eq!(applied.graph.degree(3), 0);
        assert_eq!(applied.graph.num_vertices(), 6);
        assert!(!applied.is_pristine());
        // Deleting an absent link is a no-op, not an error.
        let applied = FaultPlan::parse("link(0, 3)").unwrap().apply(&g).unwrap();
        assert_eq!(applied.removed_links, 0);
        assert!(applied.is_pristine());
        // Out-of-range ids are rejected at apply time (graph-dependent).
        assert!(matches!(
            FaultPlan::parse("router(6)").unwrap().apply(&g),
            Err(FaultError::BadArgs { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("link(0, 9)").unwrap().apply(&g),
            Err(FaultError::BadArgs { .. })
        ));
    }

    #[test]
    fn random_links_share_the_static_sweep_draws() {
        // The satellite contract: at equal seeds, the dynamic links(f) model
        // damages exactly the graph the static Fig. 5 path damages.
        use spectralfly_graph::failures::delete_random_edges;
        let g = ring(30);
        for (f, seed) in [(0.1, 0xFA11u64), (0.3, 7), (0.5, 99)] {
            let applied = FaultPlan::parse(&format!("links({f})"))
                .unwrap()
                .with_seed(seed)
                .apply(&g)
                .unwrap();
            assert_eq!(
                applied.graph,
                delete_random_edges(&g, f, seed),
                "links({f}) at seed {seed} must equal the static sweep's deletion"
            );
        }
    }

    /// The plan `routers(k)`.
    fn routers(k: usize) -> FaultPlan {
        FaultPlan::parse(&format!("routers({k})")).unwrap()
    }

    #[test]
    fn random_routers_draw_is_deterministic_and_isolating() {
        let g = ring(12);
        let draw = |seed| routers(3).with_seed(seed).apply(&g).unwrap();
        let (a, b) = (draw(4), draw(4));
        assert_eq!(a.down_routers, b.down_routers);
        assert_eq!(a.down_routers.iter().filter(|&&d| d).count(), 3);
        for (r, &down) in a.down_routers.iter().enumerate() {
            if down {
                assert_eq!(a.graph.degree(r as VertexId), 0);
            }
        }
        assert_ne!(a.down_routers, draw(5).down_routers);
    }

    #[test]
    fn random_routers_beyond_machine_size_is_typed_not_clamped() {
        // routers(400) on a 12-router graph must be BadArgs at apply time,
        // not a silently clamped whole-machine outage.
        let err = routers(400).apply(&ring(12)).unwrap_err();
        assert!(matches!(err, FaultError::BadArgs { .. }), "{err}");
        // The boundary case (exactly n) is allowed.
        let applied = routers(12).apply(&ring(12)).unwrap();
        assert_eq!(applied.down_routers.iter().filter(|&&d| d).count(), 12);
    }

    #[test]
    fn composed_terms_decorrelate_their_draws() {
        // links(0.2)+links(0.2) must not delete the same set twice.
        let g = ring(40);
        let applied = FaultPlan::parse("links(0.2)+links(0.2)")
            .unwrap()
            .with_seed(11)
            .apply(&g)
            .unwrap();
        assert!(
            applied.removed_links > 8,
            "two decorrelated 20% draws should overlap only partially, removed {}",
            applied.removed_links
        );
    }

    #[test]
    fn none_plan_apply_is_the_identity() {
        let g = ring(8);
        let applied = FaultPlan::none().apply(&g).unwrap();
        assert!(applied.is_pristine());
        assert_eq!(applied.graph, g);
        assert_eq!(applied.spec, "none");
    }

    #[test]
    fn bad_spec_errors_carry_the_whole_spec_and_the_token_offset() {
        // Second term malformed: the offset points at the missing ')'.
        let spec = "links(0.1) + links(0.2";
        let Err(FaultError::BadSpec(e)) = FaultPlan::parse(spec) else {
            panic!("expected BadSpec");
        };
        assert_eq!((e.spec.as_str(), e.offset), (spec, spec.len()));
        assert!(e.reason.contains("missing ')'"), "{e}");
        // Empty term between separators: offset lands on the second '+'.
        let Err(FaultError::BadSpec(e)) = FaultPlan::parse("links(0.1) +  + routers(2)") else {
            panic!("expected BadSpec");
        };
        assert_eq!(e.offset, 14, "{e}");
        // Display includes the offset.
        assert!(e.to_string().contains("byte 14"), "{e}");
        // The job-mix combinators mean nothing on a fault term.
        for spec in ["links(0.1) x 4", "links(0.1) @ random"] {
            let Err(FaultError::BadSpec(e)) = FaultPlan::parse(spec) else {
                panic!("expected BadSpec for {spec:?}");
            };
            assert_eq!(e.offset, 10, "{e}");
        }
    }

    #[test]
    fn script_parse_accepts_the_documented_grammar() {
        let s = FaultScript::parse("at(5us,links(0.05))+at(20us,heal(all))").unwrap();
        assert!(!s.is_none());
        assert_eq!(s.spec(), "at(5us,links(0.05))+at(20us,heal(all))");
        assert_eq!(s.seed(), FaultPlan::DEFAULT_SEED);
        let s = FaultScript::parse(" churn(200khz, 8us) ")
            .unwrap()
            .with_seed(7);
        assert_eq!(s.spec(), "churn(200khz, 8us)");
        assert_eq!(s.seed(), 7);
        for spec in ["none", "", "  ", "NONE"] {
            assert!(FaultScript::parse(spec).unwrap().is_none(), "{spec:?}");
        }
        // Times: bare ps, ns, us, ms, s; rates: bare hz, khz, mhz, ghz.
        for spec in [
            "at(1500, link(0,1))",
            "at(300ns, router(2))",
            "at(1ms, routers(1))",
            "at(0.001s, links(0.5))",
            "churn(1000, 500ns)",
            "churn(2mhz, 1us)",
            "churn(0.001ghz, 1000000)",
        ] {
            assert!(FaultScript::parse(spec).is_ok(), "{spec:?}");
        }
    }

    #[test]
    fn script_parse_rejects_malformed_terms_with_offsets() {
        // Unknown head.
        let err = FaultScript::parse("links(0.1)").unwrap_err();
        assert!(
            matches!(&err, FaultError::BadSpec(e) if e.offset == 0),
            "bare plan terms are not script terms: {err:?}"
        );
        // Missing closing paren on at().
        let err = FaultScript::parse("at(5us, links(0.05)").unwrap_err();
        assert!(matches!(err, FaultError::BadSpec { .. }), "{err:?}");
        // Bad time token.
        let err = FaultScript::parse("at(xyz, links(0.05))").unwrap_err();
        match err {
            FaultError::BadSpec(e) => {
                assert_eq!(e.offset, 3, "offset should point inside at(");
                assert!(e.reason.contains("time"), "{e}");
            }
            other => panic!("{other:?}"),
        }
        // Missing action.
        assert!(FaultScript::parse("at(5us)").is_err());
        // Malformed inner links() in the SECOND term: offset points at it.
        let spec = "at(1us, heal(all)) + at(2us, links(0.1)";
        let err = FaultScript::parse(spec).unwrap_err();
        assert!(matches!(err, FaultError::BadSpec { .. }), "{err:?}");
        let spec = "at(1us, heal(all)) + at(2us, links(0.1()";
        let err = FaultScript::parse(spec).unwrap_err();
        match err {
            FaultError::BadSpec(e) => {
                assert!(
                    e.offset >= 21,
                    "{e}: the offset must land in the second term"
                );
            }
            other => panic!("{other:?}"),
        }
        // Unknown model inside at() resolves through the registry.
        assert!(matches!(
            FaultScript::parse("at(1us, meteor-strike(3))"),
            Err(FaultError::Unknown { .. })
        ));
        // Bad model args inside at().
        assert!(matches!(
            FaultScript::parse("at(1us, links(1.5))"),
            Err(FaultError::BadArgs { .. })
        ));
        // heal outside at(), heal with a bad argument, nesting, churn arity,
        // bad rate.
        assert!(FaultScript::parse("heal(all)").is_err());
        assert!(FaultScript::parse("at(1us, heal(some))").is_err());
        assert!(FaultScript::parse("at(1us, at(2us, heal(all)))").is_err());
        assert!(FaultScript::parse("churn(200khz)").is_err());
        assert!(FaultScript::parse("churn(-1, 5us)").is_err());
        assert!(FaultScript::parse("churn(1khz, -5us)").is_err());
    }

    #[test]
    fn script_heads_straddling_a_multibyte_char_are_typed_errors() {
        // The head check used to byte-slice the term and panic on these.
        for spec in [
            "héotspot(8,0.2)",
            "léinks(0.1)+routers(4)",
            "aédversarial(8)",
        ] {
            let Err(FaultError::BadSpec(e)) = FaultScript::parse(spec) else {
                panic!("expected BadSpec for {spec:?}");
            };
            assert!(spec.is_char_boundary(e.offset), "{e}");
        }
    }

    #[test]
    fn script_times_and_rates_are_range_checked_at_parse_time() {
        // A rate whose mean gap rounds to zero used to make `expand` spin
        // forever; times beyond u64 picoseconds used to saturate silently.
        for spec in [
            "churn(1e300ghz, 1ps)",
            "churn(1.1e12, 1us)",
            "churn(1khz, 1e30s)",
            "at(1e30s, links(0.1))",
            "at(18446744073709551616, heal(all))",
        ] {
            let err = FaultScript::parse(spec).unwrap_err();
            assert!(matches!(err, FaultError::BadArgs { .. }), "{spec}: {err:?}");
        }
        // The boundaries themselves are fine.
        for spec in ["churn(1e12, 1us)", "at(18446744073709549568, heal(all))"] {
            assert!(FaultScript::parse(spec).is_ok(), "{spec}");
        }
        // Unknown units are grammar errors at the literal.
        let err = FaultScript::parse("churn(5furlongs, 1us)").unwrap_err();
        assert!(
            matches!(&err, FaultError::BadSpec(e) if e.offset == 6),
            "{err:?}"
        );
    }

    #[test]
    fn script_expansion_is_deterministic_and_sorted() {
        let g = ring(16);
        let s = FaultScript::parse("churn(10mhz, 2us) + at(5us, routers(1)) + at(90us, heal(all))")
            .unwrap()
            .with_seed(42);
        let horizon = 100_000_000; // 100 us
        let a = s.expand(&g, horizon).unwrap();
        let b = s.expand(&g, horizon).unwrap();
        assert_eq!(
            a, b,
            "expansion must be pure in (spec, seed, graph, horizon)"
        );
        assert!(!a.is_empty());
        assert!(a.events.windows(2).all(|w| w[0].time_ps <= w[1].time_ps));
        assert!(a.events.iter().all(|e| e.time_ps <= horizon));
        // The at() terms landed.
        assert!(
            a.events
                .iter()
                .any(|e| matches!(e.kind, FaultEventKind::RouterDown { .. })
                    && e.time_ps == 5_000_000)
        );
        assert!(a
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::HealAll) && e.time_ps == 90_000_000));
        // Churn produced both downs and (within-horizon) repairs.
        let downs = a
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultEventKind::LinkDown { .. }))
            .count();
        let ups = a
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultEventKind::LinkUp { .. }))
            .count();
        assert!(
            downs > 100,
            "10 MHz over 100us should fire ~1000 times, got {downs}"
        );
        assert!(ups > 0 && ups <= downs);
        // A different seed draws a different schedule.
        let c = s.clone().with_seed(43).expand(&g, horizon).unwrap();
        assert_ne!(a, c);
        // Events past the horizon are clipped.
        let clipped = s.expand(&g, 1_000_000).unwrap();
        assert!(clipped.events.iter().all(|e| e.time_ps <= 1_000_000));
        // Out-of-range ids are rejected at expansion (graph-dependent).
        assert!(matches!(
            FaultScript::parse("at(1us, router(99))")
                .unwrap()
                .expand(&g, horizon),
            Err(FaultError::BadArgs { .. })
        ));
    }

    #[test]
    fn display_messages_name_the_facts() {
        let e = Infeasible::RouterDown {
            endpoint: 17,
            router: 4,
        };
        assert!(e.to_string().contains("17") && e.to_string().contains('4'));
        let e = Infeasible::Disconnected {
            src: 1,
            dst: 2,
            src_router: 0,
            dst_router: 5,
        };
        assert!(e.to_string().contains("disconnected"));
        let e = FaultError::Other(Infeasible::Fragmented { components: 3 });
        assert!(e.to_string().contains('3'));
    }
}
