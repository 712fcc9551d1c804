//! The pluggable traffic-pattern subsystem.
//!
//! Synthetic traffic patterns are implementations of the [`TrafficPattern`] trait —
//! a destination distribution `dst(src, rng)` over endpoint ids — selected by name
//! through a string-keyed [`PatternRegistry`], exactly mirroring the routing
//! subsystem ([`crate::routing`]). A pattern is used in two ways:
//!
//! * **materialized** into a finite [`Workload`] ([`TrafficPattern::workload`],
//!   [`Workload::synthetic`]) for drain-to-empty runs and the placed
//!   micro-benchmarks of Figures 6–8;
//! * **sampled live** by the steady-state Poisson sources: with
//!   [`crate::config::MeasurementWindows::pattern`] set, every source draws each
//!   message's destination from the pattern at injection time instead of cycling
//!   its workload templates — the routing-sensitive scenarios (adversarial,
//!   tornado, hotspot) that separate UGAL from minimal routing.
//!
//! # Pattern specs
//!
//! Patterns are selected by a **spec string** in the shared grammar of
//! [`crate::spec`] (see "Spec grammar" in `docs/ARCHITECTURE.md`): a registry
//! name optionally followed by numeric arguments, e.g. `"uniform"`,
//! `"hotspot(8, 0.2)"`, `"adversarial(128)"`. Built-ins:
//!
//! | spec | destination of `src` (over `n` endpoints) | permutation? |
//! |------|-------------------------------------------|--------------|
//! | `random` (alias `uniform`) | uniform over the other `n − 1` endpoints | no |
//! | `bit-shuffle` (alias `shuffle`) | rank bits rotated left by one | if `n` is a power of two |
//! | `bit-reverse` (alias `reverse`) | rank bits reversed | if `n` is a power of two |
//! | `transpose` | high/low halves of the rank bits swapped | if `n` is a power of two |
//! | `bit-complement` (alias `complement`) | all rank bits inverted | if `n` is a power of two |
//! | `tornado` | `(src + n/2) mod n` — the half-machine shift | yes |
//! | `nearest-group(g)` | `(src + g) mod n` — same offset in the next group | yes |
//! | `adversarial(g)` | uniform over group `(src/g + 1) mod ⌈n/g⌉` | no |
//! | `hotspot(k, f)` | w.p. `f` uniform over endpoints `0..k`, else uniform | no |
//!
//! The bit-permutation patterns act on the largest power-of-two prefix of the
//! endpoint range (the *rank space*); endpoints past the prefix fall back to
//! uniform destinations. Group-structured patterns (`adversarial`,
//! `nearest-group`) read their group size `g` (in endpoints) from the first
//! argument, falling back to [`PatternCtx::group_endpoints`] and finally to
//! `⌈√n⌉`; `adversarial` is the per-topology worst case — every group sends all
//! of its traffic into one victim group, which saturates the few minimal-route
//! channels between the pair while leaving the rest of the machine idle.
//!
//! # Registering a custom pattern
//!
//! ```
//! use spectralfly_simnet::pattern::{self, PatternCtx, TrafficPattern};
//! use rand::rngs::StdRng;
//!
//! /// Every endpoint sends to endpoint 0 — the fully degenerate hotspot.
//! struct DrainToZero {
//!     n: usize,
//! }
//!
//! impl TrafficPattern for DrainToZero {
//!     fn name(&self) -> &str {
//!         "drain-to-zero"
//!     }
//!     fn endpoints(&self) -> usize {
//!         self.n
//!     }
//!     fn dst(&self, _src: usize, _rng: &mut StdRng) -> usize {
//!         0
//!     }
//! }
//!
//! pattern::register("drain-to-zero", |ctx, _args| {
//!     Ok(Box::new(DrainToZero { n: ctx.endpoints }))
//! });
//! assert!(pattern::is_registered("drain-to-zero"));
//!
//! // The new pattern is now selectable by spec everywhere a pattern is accepted:
//! let p = pattern::create("Drain_To_Zero", &PatternCtx::new(64)).unwrap();
//! let mut rng = rand::SeedableRng::seed_from_u64(1);
//! assert_eq!(p.dst(17, &mut rng), 0);
//! ```

use crate::spec::{self, SpecError};
use crate::workload::{Message, Workload};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Construction-time context for a pattern: the endpoint space it must cover and
/// whatever topology structure the caller knows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternCtx {
    /// Number of endpoints the pattern draws destinations from (`dst < endpoints`).
    pub endpoints: usize,
    /// Endpoints per topology group, when the caller knows the group structure
    /// (e.g. `a × concentration` for a DragonFly with `a` routers per group).
    /// Group-structured patterns without an explicit group-size argument use
    /// this; when absent they fall back to `⌈√endpoints⌉`.
    pub group_endpoints: Option<usize>,
}

impl PatternCtx {
    /// A context over `endpoints` endpoints with no known group structure.
    pub fn new(endpoints: usize) -> Self {
        PatternCtx {
            endpoints,
            group_endpoints: None,
        }
    }

    /// Builder-style: record the topology's endpoints-per-group.
    pub fn with_group_endpoints(mut self, group_endpoints: usize) -> Self {
        self.group_endpoints = Some(group_endpoints);
        self
    }

    /// The group size a group-structured pattern should use: the explicit
    /// argument if given, else the topology's [`PatternCtx::group_endpoints`],
    /// else `⌈√endpoints⌉` (a scale-free default that still concentrates an
    /// entire group's bandwidth onto one victim group).
    fn resolve_group(&self, explicit: Option<usize>) -> usize {
        explicit
            .or(self.group_endpoints)
            .unwrap_or_else(|| (self.endpoints as f64).sqrt().ceil() as usize)
            .max(1)
    }
}

/// Why a pattern spec could not be turned into a pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatternError {
    /// The spec's base name is not in the registry.
    Unknown {
        /// The (normalized) name that failed to resolve.
        name: String,
        /// Canonical names currently registered, for the error message.
        registered: Vec<String>,
    },
    /// The spec string does not follow the grammar.
    BadSpec(SpecError),
    /// The spec parsed but its arguments (or the context) are invalid for the
    /// pattern.
    BadArgs {
        /// The pattern that rejected its arguments.
        name: String,
        /// What was wrong with them.
        reason: String,
    },
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::Unknown { name, registered } => write!(
                f,
                "unknown traffic pattern {name:?}; registered: {}",
                registered.join(", ")
            ),
            PatternError::BadSpec(e) => e.fmt(f),
            PatternError::BadArgs { name, reason } => {
                write!(f, "invalid arguments for pattern {name:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for PatternError {}

impl From<SpecError> for PatternError {
    fn from(e: SpecError) -> Self {
        PatternError::BadSpec(e)
    }
}

/// A synthetic traffic pattern: a destination distribution over endpoint ids.
///
/// Implementations must be `Send + Sync` (sweeps run one simulation per core) and
/// must return destinations in `0..endpoints()`. Destinations may depend on the
/// RNG (drawing from it deterministically given the seed) or be pure functions of
/// the source. A pattern whose map `src → dst(src)` is deterministic and bijective
/// over the whole endpoint range should report [`TrafficPattern::is_permutation`].
pub trait TrafficPattern: Send + Sync {
    /// Canonical registry name (lowercase, dash-separated).
    fn name(&self) -> &str;

    /// Number of endpoints the pattern draws destinations from.
    fn endpoints(&self) -> usize;

    /// The destination endpoint for one message from `src`.
    ///
    /// Must be `< self.endpoints()`. May equal `src` for degenerate instances
    /// (fixed points of a permutation); workload materialization skips such
    /// messages and the steady-state sources deliver them locally at zero hops.
    fn dst(&self, src: usize, rng: &mut StdRng) -> usize;

    /// Whether `src → dst(src)` is a deterministic bijection over the whole
    /// endpoint range (so e.g. every endpoint receives from exactly one sender).
    fn is_permutation(&self) -> bool {
        false
    }

    /// Materialize the pattern into a single-phase [`Workload`]: every endpoint
    /// sends `msgs_per_endpoint` messages of `bytes` each, destinations drawn
    /// from the pattern (self-sends are skipped). Deterministic in `seed`.
    ///
    /// For the built-in patterns this reproduces the legacy `Workload`
    /// constructors bit-for-bit (`random` ↔ [`Workload::uniform_random`],
    /// `bit-shuffle` ↔ [`Workload::bit_shuffle`], …), which keeps every
    /// golden-seed figure stable across the registry refactor.
    fn workload(&self, msgs_per_endpoint: usize, bytes: u64, seed: u64) -> Workload {
        let n = self.endpoints();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut messages = Vec::with_capacity(n * msgs_per_endpoint);
        for src in 0..n {
            for i in 0..msgs_per_endpoint {
                let dst = self.dst(src, &mut rng);
                debug_assert!(
                    dst < n,
                    "pattern {} produced out-of-range {dst}",
                    self.name()
                );
                if dst == src {
                    continue;
                }
                messages.push(Message {
                    src,
                    dst,
                    bytes,
                    inject_offset_ps: i as u64,
                });
            }
        }
        Workload::single_phase(self.name(), messages)
    }
}

// ---------------------------------------------------------------------------
// Built-in patterns.
// ---------------------------------------------------------------------------

/// The shared self-send collision bump: a randomized pattern that happens to
/// draw its own source steps to `(dst + 1) mod n` instead — exactly the rule
/// [`Workload::uniform_random`] has always used, so pattern materialization
/// stays bit-identical to the legacy constructors.
#[inline]
fn bump_self(n: usize, src: usize, dst: usize) -> usize {
    if dst == src {
        (dst + 1) % n
    } else {
        dst
    }
}

/// Uniform-random traffic (`random`): every message goes to a uniformly random
/// other endpoint.
///
/// RNG consumption per destination is one `gen_range` draw with the shared
/// `bump_self` collision rule — exactly the draw pattern of
/// [`Workload::uniform_random`], so materialization is bit-identical to it.
pub struct Uniform {
    n: usize,
}

impl TrafficPattern for Uniform {
    fn name(&self) -> &str {
        "random"
    }
    fn endpoints(&self) -> usize {
        self.n
    }
    fn dst(&self, src: usize, rng: &mut StdRng) -> usize {
        bump_self(self.n, src, rng.gen_range(0..self.n))
    }
}

/// Which bit permutation a [`BitPermutation`] applies to the rank bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BitPerm {
    /// Rotate left by one — FFT / sorting traffic (`bit-shuffle`).
    Shuffle,
    /// Reverse the bit string (`bit-reverse`).
    Reverse,
    /// Swap the high and low halves — matrix transpose (`transpose`).
    Transpose,
    /// Invert every bit — the worst case for dimension-ordered meshes
    /// (`bit-complement`).
    Complement,
}

/// A permutation of the rank-id bit representation over the largest power-of-two
/// prefix of the endpoint range; endpoints past the prefix (only possible when
/// the endpoint count is not a power of two) send uniformly at random.
pub struct BitPermutation {
    n: usize,
    /// log2 of the power-of-two rank space.
    bits: u32,
    kind: BitPerm,
}

impl BitPermutation {
    fn apply(&self, r: usize) -> usize {
        let b = self.bits;
        let mask = (1usize << b) - 1;
        match self.kind {
            BitPerm::Shuffle => {
                if b == 0 {
                    r
                } else {
                    ((r << 1) | (r >> (b - 1))) & mask
                }
            }
            BitPerm::Reverse => {
                let mut out = 0usize;
                for i in 0..b {
                    if r & (1 << i) != 0 {
                        out |= 1 << (b - 1 - i);
                    }
                }
                out
            }
            BitPerm::Transpose => {
                let half = b / 2;
                let low_mask = (1usize << half) - 1;
                let low = r & low_mask;
                let high = r >> half;
                (low << (b - half)) | high
            }
            BitPerm::Complement => !r & mask,
        }
    }
}

impl TrafficPattern for BitPermutation {
    fn name(&self) -> &str {
        match self.kind {
            BitPerm::Shuffle => "bit-shuffle",
            BitPerm::Reverse => "bit-reverse",
            BitPerm::Transpose => "transpose",
            BitPerm::Complement => "bit-complement",
        }
    }
    fn endpoints(&self) -> usize {
        self.n
    }
    fn dst(&self, src: usize, rng: &mut StdRng) -> usize {
        let prefix = 1usize << self.bits;
        if src < prefix {
            self.apply(src) % self.n.max(1)
        } else {
            // Outside the rank space: uniform fallback (same draw as `Uniform`).
            bump_self(self.n, src, rng.gen_range(0..self.n))
        }
    }
    fn is_permutation(&self) -> bool {
        self.n.is_power_of_two()
    }
}

/// Tornado traffic: `dst = (src + n/2) mod n`, the shift that sends every
/// message half-way around the machine — on ring-like topologies all of it
/// travels the same direction and minimal routing uses half the links.
pub struct Tornado {
    n: usize,
}

impl TrafficPattern for Tornado {
    fn name(&self) -> &str {
        "tornado"
    }
    fn endpoints(&self) -> usize {
        self.n
    }
    fn dst(&self, src: usize, _rng: &mut StdRng) -> usize {
        (src + self.n / 2) % self.n
    }
    fn is_permutation(&self) -> bool {
        true
    }
}

/// Nearest-group traffic: `dst = (src + g) mod n` — every endpoint sends to the
/// endpoint at its own offset in the next group, a deterministic bijection that
/// still routes every message across a group boundary.
pub struct NearestGroup {
    n: usize,
    group: usize,
}

impl TrafficPattern for NearestGroup {
    fn name(&self) -> &str {
        "nearest-group"
    }
    fn endpoints(&self) -> usize {
        self.n
    }
    fn dst(&self, src: usize, _rng: &mut StdRng) -> usize {
        (src + self.group) % self.n
    }
    fn is_permutation(&self) -> bool {
        true
    }
}

/// Per-topology adversarial worst case: each group of `group` consecutive
/// endpoints pairs with the next group as its **victim** — every message from
/// group `k` goes to a uniformly random endpoint of group `(k + 1) mod G`. All
/// of a group's injected bandwidth converges on the few channels that lie on
/// minimal routes between the pair, which saturates minimal routing while
/// non-minimal algorithms (Valiant, UGAL) detour around the hot channels
/// (Section VI-C's adversarial scenario).
pub struct Adversarial {
    n: usize,
    group: usize,
}

impl TrafficPattern for Adversarial {
    fn name(&self) -> &str {
        "adversarial"
    }
    fn endpoints(&self) -> usize {
        self.n
    }
    fn dst(&self, src: usize, rng: &mut StdRng) -> usize {
        let groups = self.n.div_ceil(self.group);
        let victim = (src / self.group + 1) % groups;
        let start = victim * self.group;
        let len = self.group.min(self.n - start);
        // The bump is only reachable when there is a single group (victim ==
        // own group).
        bump_self(self.n, src, start + rng.gen_range(0..len))
    }
}

/// Hotspot traffic: with probability `fraction` a message targets one of the
/// `hot` hotspot endpoints (`0..hot`, uniformly); otherwise it goes to a
/// uniformly random endpoint. Models a storage or service partition that a
/// slice of all traffic funnels into.
pub struct Hotspot {
    n: usize,
    hot: usize,
    fraction: f64,
}

impl TrafficPattern for Hotspot {
    fn name(&self) -> &str {
        "hotspot"
    }
    fn endpoints(&self) -> usize {
        self.n
    }
    fn dst(&self, src: usize, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        let dst = if u < self.fraction {
            rng.gen_range(0..self.hot)
        } else {
            rng.gen_range(0..self.n)
        };
        bump_self(self.n, src, dst)
    }
}

// ---------------------------------------------------------------------------
// Spec parsing and the registry.
// ---------------------------------------------------------------------------

/// Factory producing a pattern instance from a context and the spec's numeric
/// arguments.
pub type PatternFactory =
    Arc<dyn Fn(&PatternCtx, &[f64]) -> Result<Box<dyn TrafficPattern>, PatternError> + Send + Sync>;

/// Split a pattern spec into its normalized base name and numeric arguments:
/// `"Hotspot(8, 0.2)"` → `("hotspot", [8.0, 0.2])`.
pub fn parse_spec(spec: &str) -> Result<(String, Vec<f64>), PatternError> {
    let call = spec::parse_call(spec)?;
    Ok((call.key(), call.numbers()?))
}

/// Validate that `args[idx]`, if present, is a positive integer-valued count.
fn count_arg(name: &str, args: &[f64], idx: usize) -> Result<Option<usize>, PatternError> {
    match args.get(idx) {
        None => Ok(None),
        Some(&a) => {
            if !a.is_finite() || a < 1.0 || a.fract() != 0.0 {
                return Err(PatternError::BadArgs {
                    name: name.to_string(),
                    reason: format!("argument {} must be a positive integer, got {a}", idx + 1),
                });
            }
            Ok(Some(a as usize))
        }
    }
}

fn require_endpoints(name: &str, ctx: &PatternCtx) -> Result<usize, PatternError> {
    if ctx.endpoints == 0 {
        return Err(PatternError::BadArgs {
            name: name.to_string(),
            reason: "pattern context has zero endpoints".to_string(),
        });
    }
    Ok(ctx.endpoints)
}

fn no_args(name: &str, args: &[f64]) -> Result<(), PatternError> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(PatternError::BadArgs {
            name: name.to_string(),
            reason: format!("takes no arguments, got {}", args.len()),
        })
    }
}

fn group_pattern_size(name: &str, ctx: &PatternCtx, args: &[f64]) -> Result<usize, PatternError> {
    if args.len() > 1 {
        return Err(PatternError::BadArgs {
            name: name.to_string(),
            reason: format!(
                "takes at most one argument (group size), got {}",
                args.len()
            ),
        });
    }
    let n = require_endpoints(name, ctx)?;
    let g = ctx.resolve_group(count_arg(name, args, 0)?);
    if g > n {
        return Err(PatternError::BadArgs {
            name: name.to_string(),
            reason: format!("group size {g} exceeds the {n} endpoints"),
        });
    }
    Ok(g)
}

/// The largest `bits` with `2^bits <= n` (the rank space of the bit patterns).
fn prefix_bits(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - 1 - n.leading_zeros()
}

/// String-keyed registry of traffic patterns.
///
/// Names are normalized by [`spec::normalize`], so `Bit_Shuffle`,
/// `bit shuffle`, and `bit-shuffle` all resolve to the same entry.
#[derive(Clone, Default)]
pub struct PatternRegistry {
    /// normalized key → factory.
    entries: BTreeMap<String, PatternFactory>,
    /// normalized alias → normalized target key. Aliases are redirects resolved
    /// at lookup time, so re-registering a pattern under its primary name also
    /// retargets every alias (they can never go stale).
    aliases: BTreeMap<String, String>,
}

impl PatternRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        PatternRegistry::default()
    }

    /// A registry pre-populated with the built-in patterns (see the module docs
    /// for the table).
    pub fn with_builtins() -> Self {
        let mut r = PatternRegistry::empty();
        r.register("random", |ctx, args| {
            no_args("random", args)?;
            Ok(Box::new(Uniform {
                n: require_endpoints("random", ctx)?,
            }))
        });
        for (kind, name) in [
            (BitPerm::Shuffle, "bit-shuffle"),
            (BitPerm::Reverse, "bit-reverse"),
            (BitPerm::Transpose, "transpose"),
            (BitPerm::Complement, "bit-complement"),
        ] {
            r.register(name, move |ctx, args| {
                no_args(name, args)?;
                let n = require_endpoints(name, ctx)?;
                Ok(Box::new(BitPermutation {
                    n,
                    bits: prefix_bits(n),
                    kind,
                }))
            });
        }
        r.register("tornado", |ctx, args| {
            no_args("tornado", args)?;
            Ok(Box::new(Tornado {
                n: require_endpoints("tornado", ctx)?,
            }))
        });
        r.register("nearest-group", |ctx, args| {
            Ok(Box::new(NearestGroup {
                n: require_endpoints("nearest-group", ctx)?,
                group: group_pattern_size("nearest-group", ctx, args)?,
            }))
        });
        r.register("adversarial", |ctx, args| {
            Ok(Box::new(Adversarial {
                n: require_endpoints("adversarial", ctx)?,
                group: group_pattern_size("adversarial", ctx, args)?,
            }))
        });
        r.register("hotspot", |ctx, args| {
            if args.len() > 2 {
                return Err(PatternError::BadArgs {
                    name: "hotspot".to_string(),
                    reason: format!(
                        "takes at most two arguments (count, fraction), got {}",
                        args.len()
                    ),
                });
            }
            let n = require_endpoints("hotspot", ctx)?;
            let hot = count_arg("hotspot", args, 0)?.unwrap_or(4).min(n);
            let fraction = args.get(1).copied().unwrap_or(0.25);
            if !(fraction > 0.0 && fraction <= 1.0) {
                return Err(PatternError::BadArgs {
                    name: "hotspot".to_string(),
                    reason: format!("fraction must be in (0, 1], got {fraction}"),
                });
            }
            Ok(Box::new(Hotspot { n, hot, fraction }))
        });
        // Aliases (the paper and booksim spell several of these differently).
        r.alias("uniform", "random");
        r.alias("shuffle", "bit-shuffle");
        r.alias("reverse", "bit-reverse");
        r.alias("complement", "bit-complement");
        r
    }

    /// Register (or replace) a pattern under `name`. Aliases pointing at `name`
    /// follow the replacement automatically.
    pub fn register<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(&PatternCtx, &[f64]) -> Result<Box<dyn TrafficPattern>, PatternError>
            + Send
            + Sync
            + 'static,
    {
        let key = spec::normalize(name);
        // A primary registration shadows any alias of the same name.
        self.aliases.remove(&key);
        self.entries.insert(key, Arc::new(factory));
    }

    /// Register `name` as an alias redirecting to the entry `target`. The
    /// redirect is resolved at lookup time, so replacing `target` later also
    /// changes what the alias creates.
    ///
    /// # Panics
    /// If `target` is not registered (as a primary name or an alias).
    pub fn alias(&mut self, name: &str, target: &str) {
        // Resolve one level so alias chains cannot form.
        let target_key = self.resolve(&spec::normalize(target)).unwrap_or_else(|| {
            panic!("alias target {target:?} is not registered");
        });
        self.aliases.insert(spec::normalize(name), target_key);
    }

    /// Resolve a normalized base name to its primary entry key, following at
    /// most one alias redirect.
    fn resolve(&self, base: &str) -> Option<String> {
        if self.entries.contains_key(base) {
            return Some(base.to_string());
        }
        self.aliases
            .get(base)
            .filter(|target| self.entries.contains_key(*target))
            .cloned()
    }

    /// Instantiate the pattern selected by `spec` (name plus optional arguments,
    /// e.g. `"hotspot(8, 0.2)"`) for `ctx`.
    pub fn create(
        &self,
        spec: &str,
        ctx: &PatternCtx,
    ) -> Result<Box<dyn TrafficPattern>, PatternError> {
        let (base, args) = parse_spec(spec)?;
        self.create_parsed(&base, &args, ctx)
    }

    /// [`PatternRegistry::create`] for a spec that is already parsed (a
    /// pattern nested inside a job spec): normalized base name plus arguments.
    pub fn create_parsed(
        &self,
        base: &str,
        args: &[f64],
        ctx: &PatternCtx,
    ) -> Result<Box<dyn TrafficPattern>, PatternError> {
        let Some(factory) = self.resolve(base).and_then(|key| self.entries.get(&key)) else {
            return Err(PatternError::Unknown {
                name: base.to_string(),
                registered: self.names(),
            });
        };
        factory(ctx, args)
    }

    /// Whether `spec`'s base name resolves to a registered pattern.
    pub fn contains(&self, spec: &str) -> bool {
        parse_spec(spec).is_ok_and(|(base, _)| self.resolve(&base).is_some())
    }

    /// The primary names of the registered patterns (aliases are redirects and
    /// are not listed).
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }
}

fn global_registry() -> &'static RwLock<PatternRegistry> {
    static GLOBAL: OnceLock<RwLock<PatternRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(PatternRegistry::with_builtins()))
}

/// Instantiate a pattern by spec from the global registry.
pub fn create(spec: &str, ctx: &PatternCtx) -> Result<Box<dyn TrafficPattern>, PatternError> {
    global_registry()
        .read()
        .expect("pattern registry poisoned")
        .create(spec, ctx)
}

/// [`create`] for an already-parsed spec (see
/// [`PatternRegistry::create_parsed`]).
pub fn create_parsed(
    base: &str,
    args: &[f64],
    ctx: &PatternCtx,
) -> Result<Box<dyn TrafficPattern>, PatternError> {
    global_registry()
        .read()
        .expect("pattern registry poisoned")
        .create_parsed(base, args, ctx)
}

/// Whether `spec`'s base name is selectable through the global registry.
pub fn is_registered(spec: &str) -> bool {
    global_registry()
        .read()
        .expect("pattern registry poisoned")
        .contains(spec)
}

/// Register a custom pattern in the global registry (see the module docs for an
/// end-to-end example).
pub fn register<F>(name: &str, factory: F)
where
    F: Fn(&PatternCtx, &[f64]) -> Result<Box<dyn TrafficPattern>, PatternError>
        + Send
        + Sync
        + 'static,
{
    global_registry()
        .write()
        .expect("pattern registry poisoned")
        .register(name, factory);
}

/// Canonical names of the distinct patterns in the global registry.
pub fn registered_names() -> Vec<String> {
    global_registry()
        .read()
        .expect("pattern registry poisoned")
        .names()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_are_canonical_and_complete() {
        let names = PatternRegistry::with_builtins().names();
        assert_eq!(
            names,
            vec![
                "adversarial",
                "bit-complement",
                "bit-reverse",
                "bit-shuffle",
                "hotspot",
                "nearest-group",
                "random",
                "tornado",
                "transpose",
            ]
        );
    }

    #[test]
    fn lookup_normalizes_spelling_and_resolves_aliases() {
        let r = PatternRegistry::with_builtins();
        let ctx = PatternCtx::new(64);
        for spelling in ["Bit_Shuffle", " bit shuffle ", "shuffle", "bit-shuffle"] {
            assert_eq!(
                r.create(spelling, &ctx).unwrap().name(),
                "bit-shuffle",
                "{spelling}"
            );
        }
        assert_eq!(r.create("uniform", &ctx).unwrap().name(), "random");
        assert!(matches!(
            r.create("no-such-pattern", &ctx),
            Err(PatternError::Unknown { .. })
        ));
    }

    #[test]
    fn spec_parsing_accepts_arguments() {
        assert_eq!(
            parse_spec("tornado").unwrap(),
            ("tornado".to_string(), vec![])
        );
        assert_eq!(
            parse_spec("Hotspot(8, 0.2)").unwrap(),
            ("hotspot".to_string(), vec![8.0, 0.2])
        );
        assert_eq!(
            parse_spec("adversarial(128)").unwrap(),
            ("adversarial".to_string(), vec![128.0])
        );
        assert!(matches!(
            parse_spec("hotspot(8"),
            Err(PatternError::BadSpec { .. })
        ));
        assert!(matches!(
            parse_spec("hotspot(a)"),
            Err(PatternError::BadSpec { .. })
        ));
        assert!(matches!(
            parse_spec("  "),
            Err(PatternError::BadSpec { .. })
        ));
    }

    #[test]
    fn arguments_are_validated() {
        let r = PatternRegistry::with_builtins();
        let ctx = PatternCtx::new(64);
        assert!(matches!(
            r.create("tornado(3)", &ctx),
            Err(PatternError::BadArgs { .. })
        ));
        assert!(matches!(
            r.create("hotspot(0)", &ctx),
            Err(PatternError::BadArgs { .. })
        ));
        assert!(matches!(
            r.create("hotspot(4, 1.5)", &ctx),
            Err(PatternError::BadArgs { .. })
        ));
        assert!(matches!(
            r.create("adversarial(65)", &ctx),
            Err(PatternError::BadArgs { .. })
        ));
        assert!(matches!(
            r.create("adversarial(2.5)", &ctx),
            Err(PatternError::BadArgs { .. })
        ));
    }

    #[test]
    fn group_size_resolution_order() {
        let r = PatternRegistry::with_builtins();
        // Explicit argument wins.
        let ctx = PatternCtx::new(100).with_group_endpoints(20);
        let mut rng = StdRng::seed_from_u64(1);
        let p = r.create("nearest-group(10)", &ctx).unwrap();
        assert_eq!(p.dst(0, &mut rng), 10);
        // Context group next.
        let p = r.create("nearest-group", &ctx).unwrap();
        assert_eq!(p.dst(0, &mut rng), 20);
        // ⌈√n⌉ fallback last.
        let p = r.create("nearest-group", &PatternCtx::new(100)).unwrap();
        assert_eq!(p.dst(0, &mut rng), 10);
    }

    #[test]
    fn adversarial_targets_exactly_the_victim_group() {
        let ctx = PatternCtx::new(96).with_group_endpoints(32);
        let p = create("adversarial", &ctx).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for src in 0..96 {
            for _ in 0..8 {
                let d = p.dst(src, &mut rng);
                let victim = (src / 32 + 1) % 3;
                assert!(
                    d / 32 == victim,
                    "src {src} (group {}) sent to {d} (group {}), expected group {victim}",
                    src / 32,
                    d / 32
                );
            }
        }
    }

    #[test]
    fn tornado_and_nearest_group_are_shifts() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = create("tornado", &PatternCtx::new(10)).unwrap();
        assert!(p.is_permutation());
        for src in 0..10 {
            assert_eq!(p.dst(src, &mut rng), (src + 5) % 10);
        }
        let p = create("nearest-group(3)", &PatternCtx::new(10)).unwrap();
        for src in 0..10 {
            assert_eq!(p.dst(src, &mut rng), (src + 3) % 10);
        }
    }

    #[test]
    fn bit_complement_inverts_the_rank_bits() {
        let p = create("bit-complement", &PatternCtx::new(16)).unwrap();
        assert!(p.is_permutation());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.dst(0b0000, &mut rng), 0b1111);
        assert_eq!(p.dst(0b1010, &mut rng), 0b0101);
        // Alias spelling.
        let p = create("complement", &PatternCtx::new(16)).unwrap();
        assert_eq!(p.name(), "bit-complement");
    }

    #[test]
    fn hotspot_concentrates_the_requested_fraction() {
        let p = create("hotspot(4, 0.5)", &PatternCtx::new(256)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut hot_hits = 0usize;
        let draws = 20_000;
        for i in 0..draws {
            let d = p.dst(100 + (i % 50), &mut rng);
            assert!(d < 256);
            if d < 4 {
                hot_hits += 1;
            }
        }
        // Expected ≈ 0.5 + 0.5 * (4/256) ≈ 0.508 of draws.
        let frac = hot_hits as f64 / draws as f64;
        assert!(
            (0.45..0.57).contains(&frac),
            "hotspot fraction {frac:.3} out of expected band"
        );
    }

    #[test]
    fn custom_registration_extends_the_global_registry() {
        struct Fixed {
            n: usize,
        }
        impl TrafficPattern for Fixed {
            fn name(&self) -> &str {
                "fixed-test-pattern"
            }
            fn endpoints(&self) -> usize {
                self.n
            }
            fn dst(&self, _src: usize, _rng: &mut StdRng) -> usize {
                0
            }
        }
        register("fixed-test-pattern", |ctx, _| {
            Ok(Box::new(Fixed { n: ctx.endpoints }))
        });
        assert!(is_registered("fixed-test-pattern"));
        assert_eq!(
            create("Fixed-Test-Pattern", &PatternCtx::new(8))
                .unwrap()
                .name(),
            "fixed-test-pattern"
        );
    }

    #[test]
    fn aliases_follow_re_registration() {
        // Replacing a pattern under its primary name must retarget its aliases
        // too: an alias is a redirect, not a snapshot of the factory.
        let mut r = PatternRegistry::with_builtins();
        struct Fixed {
            n: usize,
        }
        impl TrafficPattern for Fixed {
            fn name(&self) -> &str {
                "random" // replacement keeps the canonical name
            }
            fn endpoints(&self) -> usize {
                self.n
            }
            fn dst(&self, _src: usize, _rng: &mut StdRng) -> usize {
                self.n - 1
            }
        }
        r.register("random", |ctx, _| Ok(Box::new(Fixed { n: ctx.endpoints })));
        let ctx = PatternCtx::new(8);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(r.create("random", &ctx).unwrap().dst(0, &mut rng), 7);
        // The "uniform" alias resolves to the replacement, not the stale builtin.
        assert_eq!(r.create("uniform", &ctx).unwrap().dst(0, &mut rng), 7);
        // Registering under an alias's own name shadows the alias.
        r.register("uniform", |ctx, _| {
            Ok(Box::new(Uniform {
                n: require_endpoints("uniform", ctx)?,
            }))
        });
        assert_eq!(r.create("uniform", &ctx).unwrap().name(), "random");
        assert!(r.names().contains(&"uniform".to_string()));
    }

    #[test]
    fn materialized_workload_skips_self_sends_and_stays_in_range() {
        for spec in ["random", "tornado", "hotspot", "adversarial"] {
            let p = create(spec, &PatternCtx::new(50)).unwrap();
            let wl = p.workload(3, 512, 11);
            assert!(wl.num_messages() <= 150, "{spec}");
            for m in &wl.phases[0].messages {
                assert_ne!(m.src, m.dst, "{spec}");
                assert!(m.src < 50 && m.dst < 50, "{spec}");
            }
        }
    }
}
