//! The pluggable traffic-pattern subsystem.
//!
//! Synthetic traffic patterns are implementations of the [`TrafficPattern`] trait —
//! a destination distribution `dst(src, rng)` over endpoint ids — selected by name
//! through a string-keyed [`PatternRegistry`], the pattern family of the one
//! [`crate::spec::Registry`]. A pattern is **sampled live** by the
//! steady-state sources: an open-loop job such as `traffic(1, adversarial(8))`
//! or the micro-benchmarks of Figures 6–8, `traffic(1, shuffle, 4096) x 512 @
//! random` ([`crate::job`]), draws each message's destination from the pattern
//! at injection time, over the tenant's own ranks. The routing-sensitive
//! patterns (adversarial, tornado, hotspot) are what separate UGAL from minimal
//! routing.
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
//! argument, falling back to `⌈√n⌉`; `adversarial` is the per-topology worst
//! case — every group sends all of its traffic into one victim group, which
//! saturates the few minimal-route channels between the pair while leaving the
//! rest of the machine idle.
//!
//! # Registering a custom pattern
//!
//! A run resolves the pattern nested in a `traffic(load, pattern)` tenant
//! against its own [`crate::Registries`]: the built-ins ([`BUILTINS`], what
//! [`create`] reads) plus whatever was added to that value.
//!
//! ```
//! use spectralfly_simnet::pattern::{self, PatternCtx, TrafficPattern};
//! use spectralfly_simnet::Registries;
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
//! let registries = Registries::default()
//!     .with_pattern("drain-to-zero", |ctx, _args| {
//!         Ok(Box::new(DrainToZero { n: ctx.endpoints }))
//!     })
//!     .unwrap();
//!
//! // The new pattern is selectable by spec through these registries — in a
//! // run, as `traffic(1, drain-to-zero)` under `SimConfig::from(registries)`:
//! let p = registries.patterns.create("Drain_To_Zero", &PatternCtx::new(64)).unwrap();
//! let mut rng = rand::SeedableRng::seed_from_u64(1);
//! assert_eq!(p.dst(17, &mut rng), 0);
//! assert!(pattern::validate_spec("drain-to-zero").is_err());
//! ```

use crate::spec::{self, ArgReader, DuplicateName, Family, Registry, ResolveError};
use rand::{rngs::StdRng, Rng};
use std::sync::{Arc, LazyLock};

/// Construction-time context for a pattern: the endpoint space it must cover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternCtx {
    /// Number of endpoints the pattern draws destinations from (`dst < endpoints`).
    pub endpoints: usize,
}

impl PatternCtx {
    /// A context over `endpoints` endpoints.
    pub fn new(endpoints: usize) -> Self {
        PatternCtx { endpoints }
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
    /// (fixed points of a permutation); the steady-state sources deliver such
    /// messages locally at zero hops.
    fn dst(&self, src: usize, rng: &mut StdRng) -> usize;

    /// Whether `src → dst(src)` is a deterministic bijection over the whole
    /// endpoint range (so e.g. every endpoint receives from exactly one sender).
    fn is_permutation(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Built-in patterns.
// ---------------------------------------------------------------------------

/// The shared self-send collision bump: a randomized pattern that happens to
/// draw its own source steps to `(dst + 1) mod n` instead — the rule
/// [`crate::Workload::uniform_random`] uses too.
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
/// `bump_self` collision rule — the draw pattern of
/// [`crate::Workload::uniform_random`].
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

/// The built-in patterns (see the module docs for the table), built once per
/// process: what [`create`] and every [`crate::Registries::default`] select
/// from.
pub static BUILTINS: LazyLock<Arc<PatternRegistry>> =
    LazyLock::new(|| Arc::new(PatternRegistry::builtins().expect("distinct names")));

/// Split a pattern spec into its normalized base name and numeric arguments:
/// `"Hotspot(8, 0.2)"` → `("hotspot", [8.0, 0.2])`.
fn parse_spec(spec: &str) -> Result<(String, Vec<f64>), PatternError> {
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
    // The explicit size, else `⌈√n⌉`: a scale-free default that still
    // concentrates an entire group's bandwidth onto one victim group.
    let g = (args.positive_int(0, "argument 1")?)
        .map_or_else(|| (n as f64).sqrt().ceil() as usize, |g| g as usize);
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
    fn builtins() -> Result<Self, DuplicateName> {
        let mut r = Self::empty();
        r.register("random", |ctx, args| {
            let args = FAMILY.args("random", args);
            args.no_args()?;
            Ok(Box::new(Uniform {
                n: require_endpoints(&args, ctx)?,
            }))
        })?;
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
            })?;
        }
        r.register("tornado", |ctx, args| {
            let args = FAMILY.args("tornado", args);
            args.no_args()?;
            Ok(Box::new(Tornado {
                n: require_endpoints(&args, ctx)?,
            }))
        })?;
        r.register("nearest-group", |ctx, args| {
            let args = FAMILY.args("nearest-group", args);
            Ok(Box::new(NearestGroup {
                n: require_endpoints(&args, ctx)?,
                group: group_pattern_size(&args, ctx)?,
            }))
        })?;
        r.register("adversarial", |ctx, args| {
            let args = FAMILY.args("adversarial", args);
            Ok(Box::new(Adversarial {
                n: require_endpoints(&args, ctx)?,
                group: group_pattern_size(&args, ctx)?,
            }))
        })?;
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
        })?;
        // Aliases (the paper and booksim spell several of these differently).
        r.alias("uniform", "random")?;
        r.alias("shuffle", "bit-shuffle")?;
        r.alias("reverse", "bit-reverse")?;
        r.alias("complement", "bit-complement")?;
        Ok(r)
    }

    /// Add a pattern under `name`, which must select nothing yet.
    pub(crate) fn register<F>(&mut self, name: &str, factory: F) -> Result<(), DuplicateName>
    where
        F: Fn(&PatternCtx, &[f64]) -> Result<Box<dyn TrafficPattern>, PatternError>
            + Send
            + Sync
            + 'static,
    {
        self.insert(name, Arc::new(factory))
    }

    /// Instantiate the pattern `spec` selects here (name plus optional
    /// arguments, e.g. `"hotspot(8, 0.2)"`) for `ctx`.
    pub fn create(
        &self,
        spec: &str,
        ctx: &PatternCtx,
    ) -> Result<Box<dyn TrafficPattern>, PatternError> {
        let (base, args) = parse_spec(spec)?;
        self.lookup(&FAMILY, &base)?(ctx, &args)
    }
}

/// Instantiate the built-in pattern selected by `spec` for `ctx`
/// ([`PatternRegistry::create`] on [`BUILTINS`]).
pub fn create(spec: &str, ctx: &PatternCtx) -> Result<Box<dyn TrafficPattern>, PatternError> {
    BUILTINS.create(spec, ctx)
}

/// Check that `spec` follows the grammar and its base name is a built-in.
/// Whether the arguments suit the pattern depends on the endpoint count, and
/// is [`create`]'s to say.
pub fn validate_spec(spec: &str) -> Result<(), PatternError> {
    let (base, _) = parse_spec(spec)?;
    BUILTINS.lookup(&FAMILY, &base).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
        let ctx = PatternCtx::new(100);
        let mut rng = StdRng::seed_from_u64(1);
        let p = create("nearest-group(20)", &ctx).unwrap();
        assert_eq!(p.dst(0, &mut rng), 20);
        // ⌈√n⌉ fallback otherwise.
        let p = create("nearest-group", &ctx).unwrap();
        assert_eq!(p.dst(0, &mut rng), 10);
    }

    #[test]
    fn adversarial_targets_exactly_the_victim_group() {
        let p = create("adversarial(32)", &PatternCtx::new(96)).unwrap();
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

    /// A bit permutation's destination of every rank over `2^bits` ranks.
    fn bit_pattern(name: &str, bits: u32) -> Vec<(usize, usize)> {
        let p = create(name, &PatternCtx::new(1 << bits)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        (0..1 << bits)
            .map(|src| (src, p.dst(src, &mut rng)))
            .collect()
    }

    #[test]
    fn shuffle_is_a_left_rotation() {
        for (src, dst) in bit_pattern("shuffle", 4) {
            assert_eq!(dst, ((src << 1) | (src >> 3)) & 0xF);
        }
    }

    #[test]
    fn bit_reverse_is_an_involution() {
        for (src, dst) in bit_pattern("reverse", 6) {
            // Reversing twice returns the source.
            let rev = |r: usize| r.reverse_bits() >> (usize::BITS - 6);
            assert_eq!(rev(dst), src);
        }
    }

    #[test]
    fn transpose_swaps_halves() {
        for (src, dst) in bit_pattern("transpose", 6) {
            let low = src & 0b111;
            let high = src >> 3;
            assert_eq!(dst, (low << 3) | high);
        }
    }
}
