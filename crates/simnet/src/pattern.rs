//! The pluggable traffic-pattern subsystem.
//!
//! Synthetic traffic patterns are implementations of the [`TrafficPattern`] trait —
//! a destination distribution `dst(src, rng)` over endpoint ids — selected by name
//! through a string-keyed [`PatternRegistry`], the pattern family of the one
//! [`crate::spec::Registry`]. A pattern is used in two ways:
//!
//! * **materialized** into a finite [`Workload`] ([`TrafficPattern::workload`],
//!   [`Workload::synthetic`]) for drain-to-empty runs and the placed
//!   micro-benchmarks of Figures 6–8;
//! * **sampled live** by the steady-state sources: an open-loop job such as
//!   `traffic(1, adversarial(8))` ([`crate::job`]) draws each message's
//!   destination from the pattern at injection time — the routing-sensitive
//!   scenarios (adversarial, tornado, hotspot) that separate UGAL from minimal
//!   routing.
//!
//! # Pattern specs
//!
//! Patterns are selected by a **spec string** in the shared grammar of
//! [`crate::spec`] (docs/ARCHITECTURE.md § "Spec grammar"): a registry
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
//! assert!(pattern::validate_spec("drain-to-zero").is_ok());
//!
//! // The new pattern is now selectable by spec everywhere a pattern is accepted:
//! let p = pattern::create("Drain_To_Zero", &PatternCtx::new(64)).unwrap();
//! let mut rng = rand::SeedableRng::seed_from_u64(1);
//! assert_eq!(p.dst(17, &mut rng), 0);
//! ```

use crate::spec::{self, ArgReader, Family, Global, Registry, ResolveError};
use crate::workload::{Message, Workload};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

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

/// Why a pattern spec could not be turned into a pattern: the shared
/// [`ResolveError`] triple — `Unknown` name, `BadSpec` grammar, `BadArgs`
/// (arguments, or the context, invalid for the pattern).
pub type PatternError = ResolveError;

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

    /// Materialize the pattern into a [`Workload`]: every endpoint
    /// sends `msgs_per_endpoint` messages of `bytes` each, destinations drawn
    /// from the pattern (self-sends are skipped). Deterministic in `seed`.
    ///
    /// For `random` this reproduces [`Workload::uniform_random`] bit-for-bit.
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
        Workload::new(self.name(), messages)
    }
}

// ---------------------------------------------------------------------------
// Built-in patterns.
// ---------------------------------------------------------------------------

/// The shared self-send collision bump: a randomized pattern that happens to
/// draw its own source steps to `(dst + 1) mod n` instead — exactly the rule
/// [`Workload::uniform_random`] has always used, so pattern materialization
/// stays bit-identical to it.
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

/// Signature of a pattern factory: an instance from a context and the spec's
/// numeric arguments.
pub type PatternFactory =
    dyn Fn(&PatternCtx, &[f64]) -> Result<Box<dyn TrafficPattern>, PatternError> + Send + Sync;

/// The traffic-pattern family of the one [`Registry`] (the contract every
/// family shares is docs/ARCHITECTURE.md § "The registry contract"): names are
/// normalized, so `Bit_Shuffle`, `bit shuffle`, and `bit-shuffle` all resolve
/// to the same entry.
pub type PatternRegistry = Registry<PatternFactory>;

/// How this family calls itself in error messages; custom factories report
/// bad arguments through it ([`Family::args`], [`Family::bad_args`]).
pub const FAMILY: Family = Family {
    unknown: "traffic pattern",
    args: "pattern",
};

static GLOBAL: Global<PatternFactory> = Global::new(PatternRegistry::with_builtins);

/// Split a pattern spec into its normalized base name and numeric arguments:
/// `"Hotspot(8, 0.2)"` → `("hotspot", [8.0, 0.2])`.
pub(crate) fn parse_spec(spec: &str) -> Result<(String, Vec<f64>), PatternError> {
    let call = spec::parse_call(spec)?;
    Ok((call.key(), call.numbers()?))
}

fn require_endpoints(args: &ArgReader<f64>, ctx: &PatternCtx) -> Result<usize, PatternError> {
    if ctx.endpoints == 0 {
        return Err(args.bad("pattern context has zero endpoints"));
    }
    Ok(ctx.endpoints)
}

fn group_pattern_size(args: &ArgReader<f64>, ctx: &PatternCtx) -> Result<usize, PatternError> {
    args.max_args(1, "one argument (group size)")?;
    let n = require_endpoints(args, ctx)?;
    let explicit = args.positive_int(0, "argument 1")?;
    let g = ctx.resolve_group(explicit.map(|g| g as usize));
    if g > n {
        return Err(args.bad(format!("group size {g} exceeds the {n} endpoints")));
    }
    Ok(g)
}

/// The largest `bits` with `2^bits <= n` (the rank space of the bit patterns).
fn prefix_bits(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - 1 - n.leading_zeros()
}

impl PatternRegistry {
    /// A registry pre-populated with the built-in patterns (see the module docs
    /// for the table).
    pub fn with_builtins() -> Self {
        let mut r = Self::empty();
        r.register("random", |ctx, args| {
            let args = FAMILY.args("random", args);
            args.no_args()?;
            Ok(Box::new(Uniform {
                n: require_endpoints(&args, ctx)?,
            }))
        });
        for (kind, name) in [
            (BitPerm::Shuffle, "bit-shuffle"),
            (BitPerm::Reverse, "bit-reverse"),
            (BitPerm::Transpose, "transpose"),
            (BitPerm::Complement, "bit-complement"),
        ] {
            r.register(name, move |ctx, args| {
                let args = FAMILY.args(name, args);
                args.no_args()?;
                let n = require_endpoints(&args, ctx)?;
                Ok(Box::new(BitPermutation {
                    n,
                    bits: prefix_bits(n),
                    kind,
                }))
            });
        }
        r.register("tornado", |ctx, args| {
            let args = FAMILY.args("tornado", args);
            args.no_args()?;
            Ok(Box::new(Tornado {
                n: require_endpoints(&args, ctx)?,
            }))
        });
        r.register("nearest-group", |ctx, args| {
            let args = FAMILY.args("nearest-group", args);
            Ok(Box::new(NearestGroup {
                n: require_endpoints(&args, ctx)?,
                group: group_pattern_size(&args, ctx)?,
            }))
        });
        r.register("adversarial", |ctx, args| {
            let args = FAMILY.args("adversarial", args);
            Ok(Box::new(Adversarial {
                n: require_endpoints(&args, ctx)?,
                group: group_pattern_size(&args, ctx)?,
            }))
        });
        r.register("hotspot", |ctx, args| {
            let args = FAMILY.args("hotspot", args);
            args.max_args(2, "two arguments (count, fraction)")?;
            let n = require_endpoints(&args, ctx)?;
            let hot = args.positive_int(0, "argument 1")?.unwrap_or(4) as usize;
            Ok(Box::new(Hotspot {
                n,
                hot: hot.min(n),
                fraction: args.fraction(1, 0.25, "fraction", false)?,
            }))
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
        self.insert(name, Arc::new(factory));
    }
}

/// Instantiate the pattern selected by `spec` (name plus optional arguments,
/// e.g. `"hotspot(8, 0.2)"`) for `ctx`, from the global registry.
pub fn create(spec: &str, ctx: &PatternCtx) -> Result<Box<dyn TrafficPattern>, PatternError> {
    let (base, args) = parse_spec(spec)?;
    create_parsed(&base, &args, ctx)
}

/// [`create`] for a spec that is already parsed (a pattern nested inside a
/// job spec): normalized base name plus arguments.
pub(crate) fn create_parsed(
    base: &str,
    args: &[f64],
    ctx: &PatternCtx,
) -> Result<Box<dyn TrafficPattern>, PatternError> {
    let factory = GLOBAL.read().lookup(&FAMILY, base)?;
    factory(ctx, args)
}

/// Check that `spec` follows the grammar and its base name is selectable
/// through the global registry. Whether the arguments suit the pattern depends
/// on the endpoint count, and is [`create`]'s to say.
pub fn validate_spec(spec: &str) -> Result<(), PatternError> {
    let (base, _) = parse_spec(spec)?;
    GLOBAL.read().lookup(&FAMILY, &base).map(drop)
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
    GLOBAL.write().register(name, factory);
}

/// Primary names of the patterns in the global registry.
pub fn registered_names() -> Vec<String> {
    GLOBAL.read().names()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn group_size_resolution_order() {
        // Explicit argument wins.
        let ctx = PatternCtx::new(100).with_group_endpoints(20);
        let mut rng = StdRng::seed_from_u64(1);
        let p = create("nearest-group(10)", &ctx).unwrap();
        assert_eq!(p.dst(0, &mut rng), 10);
        // Context group next.
        let p = create("nearest-group", &ctx).unwrap();
        assert_eq!(p.dst(0, &mut rng), 20);
        // ⌈√n⌉ fallback last.
        let p = create("nearest-group", &PatternCtx::new(100)).unwrap();
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
    fn materialized_workload_skips_self_sends_and_stays_in_range() {
        for spec in ["random", "tornado", "hotspot", "adversarial"] {
            let p = create(spec, &PatternCtx::new(50)).unwrap();
            let wl = p.workload(3, 512, 11);
            assert!(wl.num_messages() <= 150, "{spec}");
            for m in &wl.messages {
                assert_ne!(m.src, m.dst, "{spec}");
                assert!(m.src < 50 && m.dst < 50, "{spec}");
            }
        }
    }
}
