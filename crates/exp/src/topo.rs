//! The manifest's topology axis: compact specs like `lps(11,7)x4` resolved to
//! router graphs plus endpoint concentration.
//!
//! A spec is `family(args) x C` in the shared grammar of
//! [`spectralfly_simnet::spec`] (docs/ARCHITECTURE.md § "Spec grammar"): `C`
//! is the endpoints-per-router concentration
//! (default 1), the arguments are integers, and `family` is one of:
//!
//! * `lps(p, q)` — SpectralFly LPS Ramanujan graph,
//! * `slimfly(q)` — SlimFly / MMS,
//! * `bundlefly(p, s)` — BundleFly,
//! * `dragonfly(a)` — canonical DragonFly (`a+1` groups, circulant global links),
//! * `dragonfly(a, h, g)` — generalized DragonFly,
//! * `ring(n)` — an `n`-cycle (the engine-equivalence golden family: odd rings
//!   have unique shortest paths, leaving no routing ties to break).
//!
//! Validity is delegated to the topology constructors themselves
//! ([`spectralfly_topology`]); this module owns the surface syntax and one
//! size guard, both derived from one table of family entries — so a family
//! added there becomes reachable here by one entry.

use spectralfly_graph::{CsrGraph, DistanceMatrix};
use spectralfly_simnet::spec::{self, Arg};
use spectralfly_simnet::SimNetwork;
use spectralfly_topology::spec::{
    enumerate_bundlefly, enumerate_dragonfly, enumerate_lps, enumerate_slimfly,
};
use spectralfly_topology::{GeneralizedDragonFly, LpsGraph, Topology, TopologySpec};
use std::sync::Arc;

/// The most routers, and the most endpoints (routers × concentration), a spec
/// may describe: some 15× the largest fabric the repository runs
/// (`lps(5,103)x1` in `paper-full.toml`: 1,092,624 routers) and well inside the `u32` ids the
/// engines index routers, links and endpoints with. Past it a spec is refused
/// before anything is built — a constructor handed `ring(4294967296)` would
/// truncate, allocate without bound or never return.
const MAX_SIZE: u64 = 1 << 24;

/// The most links a spec may describe: the engines give each link two directed
/// `u32` ids, and the largest fabric the repository runs has 3.3 M links. A
/// dense family can sit inside [`MAX_SIZE`] and far outside this —
/// `dragonfly(4095)` is 16.8 M routers and 3.4·10¹⁰ links.
const MAX_LINKS: u64 = 1 << 27;

/// The largest limit a family enumeration accepts: the LPS design space has
/// one row per pair of primes below it.
const MAX_LIMIT: u64 = 1 << 12;

/// What a family makes of its arguments.
enum Shape {
    /// One of the paper's four families: size and construction are
    /// [`TopologySpec`]'s.
    Paper(TopologySpec),
    /// Generalized DragonFly: `g` groups of `a` routers, `h` global links each.
    DragonFly { a: u64, h: u64, g: u64 },
    /// An `n`-cycle.
    Ring(u64),
}

impl Shape {
    /// Closed-form router count; `None` when it overflows `u64`.
    fn routers(&self) -> Option<u64> {
        match *self {
            Shape::Paper(spec) => spec.checked_num_routers(),
            Shape::DragonFly { a, g, .. } => a.checked_mul(g),
            Shape::Ring(n) => Some(n),
        }
    }

    /// Closed-form link count — for an irregular BundleFly, the bound
    /// routers × radix / 2; `None` when it overflows `u64`.
    fn links(&self) -> Option<u64> {
        match *self {
            Shape::Paper(spec) => {
                let routers = spec.checked_num_routers()?;
                // A router count that fits bounds the MMS radix terms, but
                // not LPS's `p`.
                let radix = match spec {
                    TopologySpec::Lps { p, .. } => p.checked_add(1)?,
                    TopologySpec::BundleFly { p: 0, .. } => return Some(0),
                    _ => spec.radix(),
                };
                routers.checked_mul(radix).map(|ends| ends / 2)
            }
            Shape::DragonFly { a, h, g } => {
                let local = a.checked_mul(a.saturating_sub(1))?.checked_mul(g)? / 2;
                local.checked_add(a.checked_mul(h)?.checked_mul(g)? / 2)
            }
            Shape::Ring(n) => Some(n),
        }
    }

    /// The router graph, for a shape inside [`MAX_SIZE`] and [`MAX_LINKS`]
    /// (validity errors come from the constructors).
    fn build(&self) -> Result<CsrGraph, String> {
        match *self {
            Shape::Paper(spec) => spec.build().map_err(|e| e.to_string()),
            Shape::DragonFly { a, h, g } => GeneralizedDragonFly::new(a, h, g)
                .map(|t| t.graph().clone())
                .map_err(|e| e.to_string()),
            Shape::Ring(n) if n < 3 => Err("a ring needs at least 3 routers".to_string()),
            Shape::Ring(n) => {
                let n = n as u32;
                let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
                Ok(CsrGraph::from_edges(n as usize, &edges))
            }
        }
    }
}

/// A family's design-space enumeration: (limits taken, valid members below).
type Enumerate = (usize, fn(&[u64]) -> Vec<TopologySpec>);

/// One topology family: its name, its parameter names for the error text, the
/// argument counts it accepts, what it makes of that many arguments, and its
/// enumeration, if it has one.
struct TopoFamily {
    name: &'static str,
    params: &'static str,
    arities: &'static [usize],
    shape: fn(&[u64]) -> Shape,
    enumerate: Option<Enumerate>,
}

/// The one place a topology family is named, in the order the unknown-family
/// error lists them. Closed: nothing registers a topology at run time.
static FAMILIES: &[TopoFamily] = &[
    TopoFamily {
        name: "lps",
        params: "p,q",
        arities: &[2],
        shape: |a| Shape::Paper(TopologySpec::Lps { p: a[0], q: a[1] }),
        enumerate: Some((1, |l| enumerate_lps(l[0]))),
    },
    TopoFamily {
        name: "slimfly",
        params: "q",
        arities: &[1],
        shape: |a| Shape::Paper(TopologySpec::SlimFly { q: a[0] }),
        enumerate: Some((1, |l| enumerate_slimfly(l[0]))),
    },
    TopoFamily {
        name: "bundlefly",
        params: "p,s",
        arities: &[2],
        shape: |a| Shape::Paper(TopologySpec::BundleFly { p: a[0], s: a[1] }),
        enumerate: Some((2, |l| enumerate_bundlefly(l[0], l[1]))),
    },
    TopoFamily {
        name: "dragonfly",
        params: "a|a,h,g",
        arities: &[1, 3],
        shape: |a| match *a {
            [a, h, g] => Shape::DragonFly { a, h, g },
            _ => Shape::Paper(TopologySpec::DragonFly { a: a[0] }),
        },
        enumerate: Some((1, |l| enumerate_dragonfly(l[0]))),
    },
    TopoFamily {
        name: "ring",
        params: "n",
        arities: &[1],
        shape: |a| Shape::Ring(a[0]),
        enumerate: None,
    },
];

/// A parsed topology spec: canonical text, family + arguments, concentration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoSpec {
    /// Family name (lowercase).
    pub family: String,
    /// Integer arguments.
    pub args: Vec<u64>,
    /// Endpoints per router.
    pub concentration: usize,
}

/// The closed-form `(routers, radix)` of an enumerated family member.
pub type Size = (u64, u64);

/// One `family(integers…)` term of the shared grammar: the family key, its
/// arguments and the `x N` multiplier, if any.
fn read_call(spec: &str) -> Result<(String, Vec<u64>, Option<u64>), String> {
    let terms = spec::parse(spec).map_err(|e| e.to_string())?;
    let [term] = terms.as_slice() else {
        return Err(format!("expected one topology, found a '+' in {spec:?}"));
    };
    let bad = |offset: usize, reason: &str| term.call.error(offset, reason).to_string();
    if let Some(at) = &term.at {
        return Err(bad(at.start, "a topology takes no '@ placement'"));
    }
    let integer = |a: &Arg| match a {
        Arg::Num(n) if n.unit.is_empty() => n.text.parse().ok(),
        _ => None,
    };
    let args = term
        .call
        .args
        .iter()
        .map(|a| integer(a).ok_or_else(|| bad(a.offset(), "bad integer argument")))
        .collect::<Result<_, _>>()?;
    Ok((term.call.key(), args, term.times))
}

fn family(name: &str) -> Result<&'static TopoFamily, String> {
    let key = spec::normalize(name);
    FAMILIES.iter().find(|f| f.name == key).ok_or_else(|| {
        let known: Vec<_> = FAMILIES
            .iter()
            .map(|f| format!("{}({})", f.name, f.params))
            .collect();
        format!(
            "unknown topology family {name:?}; known: {}",
            known.join(", ")
        )
    })
}

impl TopoSpec {
    /// Parse a spec like `lps(11,7)x4`. The error is a plain reason; callers
    /// (the manifest parser) wrap it with the offending field.
    pub fn parse(spec: &str) -> Result<TopoSpec, String> {
        let (family, args, times) = read_call(spec)?;
        let concentration = usize::try_from(times.unwrap_or(1))
            .ok()
            .filter(|&c| c >= 1)
            .ok_or_else(|| format!("concentration must be at least 1 in {spec:?}"))?;
        let parsed = TopoSpec {
            family,
            args,
            concentration,
        };
        // Resolve family, arity and size eagerly so a manifest error points
        // at the spec, not at a build failure deep inside the runner.
        parsed.shape()?;
        Ok(parsed)
    }

    /// Every valid member of a family below the limits of an enumeration spec
    /// — `lps(300)`: `p, q < 300`; `bundlefly(100,16)`: `p < 100`, `s < 16` —
    /// as the family's `spectralfly_topology::spec::enumerate_*` lists them,
    /// each with its closed-form [`Size`]. Nothing is size-checked: a
    /// design-space scatter reads the closed forms only.
    pub fn enumerate(spec: &str) -> Result<Vec<(TopoSpec, Size)>, String> {
        let (name, limits, times) = read_call(spec)?;
        let listing = family(&name)?.enumerate.filter(|(arity, _)| {
            times.is_none() && limits.len() == *arity && limits.iter().all(|&l| l <= MAX_LIMIT)
        });
        let (_, list) = listing.ok_or_else(|| {
            format!(
                "{spec:?} is not an enumeration: a family other than ring, one limit \
                 (bundlefly: p and s limits) of at most {MAX_LIMIT}, no 'x'"
            )
        })?;
        let member = |m: TopologySpec| {
            let topo = TopoSpec {
                family: name.clone(),
                args: m.params(),
                concentration: 1,
            };
            (topo, (m.num_routers(), m.radix()))
        };
        Ok(list(&limits).into_iter().map(member).collect())
    }

    /// The family's reading of the arguments: a known family, an argument
    /// count it accepts, and a size within [`MAX_SIZE`] and [`MAX_LINKS`].
    fn shape(&self) -> Result<Shape, String> {
        let family = family(&self.family)?;
        if !family.arities.contains(&self.args.len()) {
            return Err(format!(
                "wrong argument count for {}: got {}",
                self.family,
                self.args.len()
            ));
        }
        let shape = (family.shape)(&self.args);
        let fits = |n: &u64| *n <= MAX_SIZE;
        (shape.routers().filter(fits))
            .and_then(|routers| routers.checked_mul(self.concentration as u64))
            .filter(fits)
            .and(shape.links().filter(|&links| links <= MAX_LINKS))
            .ok_or_else(|| {
                format!(
                    "{} is too large: at most {MAX_SIZE} routers, as many endpoints \
                     (routers x concentration) and {MAX_LINKS} links can be simulated",
                    self.canonical()
                )
            })?;
        Ok(shape)
    }

    /// The canonical spelling of the router graph alone (`lps(11,7)`): what a
    /// structural row, which has no endpoints, is called.
    pub fn graph_name(&self) -> String {
        let args: Vec<String> = self.args.iter().map(u64::to_string).collect();
        format!("{}({})", self.family, args.join(","))
    }

    /// The canonical spelling this spec round-trips through.
    pub fn canonical(&self) -> String {
        format!("{}x{}", self.graph_name(), self.concentration)
    }

    /// Build the router graph (validity errors come from the constructors).
    pub fn build(&self) -> Result<CsrGraph, String> {
        (self.shape()?.build()).map_err(|e| format!("{}: {e}", self.canonical()))
    }

    /// Build the pristine simulated network. [`SimNetwork::new`] picks the
    /// dense oracle while the distance matrix fits, a landmark one past it;
    /// an `lps(p,q)` past that wall gets `LpsGraph::cayley_oracle()` instead,
    /// because this layer is the one that knows the group. The closed-form
    /// router count decides, so no other oracle is built first.
    pub fn network(&self) -> Result<SimNetwork, String> {
        let shape = self.shape()?;
        let past_dense = shape.routers() > Some(DistanceMatrix::MAX_VERTICES as u64);
        match shape {
            Shape::Paper(TopologySpec::Lps { p, q }) if past_dense => {
                let named = |e: String| format!("{}: {e}", self.canonical());
                let lps = LpsGraph::new(p, q).map_err(|e| named(e.to_string()))?;
                let oracle = lps.cayley_oracle().map_err(|e| named(e.to_string()))?;
                let (graph, oracle) = (lps.graph().clone(), Arc::new(oracle));
                Ok(SimNetwork::with_oracle(graph, self.concentration, oracle))
            }
            _ => Ok(SimNetwork::new(self.build()?, self.concentration)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectralfly_graph::OracleKind;

    #[test]
    fn specs_parse_build_and_round_trip() {
        for (spec, canonical, routers) in [
            ("lps(11,7)x4", "lps(11,7)x4", 168),
            ("LPS(11, 7) x 4", "lps(11,7)x4", 168), // spacing and case are ignored
            ("slimfly(9)x4", "slimfly(9)x4", 162),
            ("ring(9)x2", "ring(9)x2", 9),
            ("ring(8)", "ring(8)x1", 8),
            ("dragonfly(8,4,21)x4", "dragonfly(8,4,21)x4", 168),
            ("bundlefly(13,3)x3", "bundlefly(13,3)x3", 234),
        ] {
            let parsed = TopoSpec::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(parsed.canonical(), canonical, "{spec}");
            let g = parsed.build().unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(g.num_vertices(), routers, "{spec}");
            // The canonical spelling re-parses to the same spec.
            assert_eq!(TopoSpec::parse(&parsed.canonical()).unwrap(), parsed);
        }
    }

    #[test]
    fn bad_specs_carry_reasons() {
        assert!(TopoSpec::parse("torus(4,4)")
            .unwrap_err()
            .contains("unknown topology family"));
        assert!(TopoSpec::parse("lps(11)")
            .unwrap_err()
            .contains("argument count"));
        assert!(TopoSpec::parse("lps(11,7)x0")
            .unwrap_err()
            .contains("at least 1"));
        assert!(TopoSpec::parse("lps(a,b)")
            .unwrap_err()
            .contains("bad integer"));
        assert!(TopoSpec::parse("lps(11,7")
            .unwrap_err()
            .contains("missing ')'"));
        // Invalid parameters surface from the constructor at build time.
        assert!(TopoSpec::parse("lps(4,6)").unwrap().build().is_err());
        assert!(TopoSpec::parse("ring(2)").unwrap().build().is_err());
    }

    /// The oracle follows from the topology: dense below the matrix's wall,
    /// and past it, for a pristine LPS graph, the group translation — not the
    /// landmark oracle `SimNetwork::new` would build there.
    #[test]
    fn lps_past_the_dense_wall_is_cayley_backed() {
        let network = |spec: &str| TopoSpec::parse(spec).unwrap().network().unwrap();
        assert_eq!(network("lps(11,7)x4").oracle_kind(), OracleKind::Dense);
        let big = network("lps(5,47)x1");
        assert_eq!(big.oracle_kind(), OracleKind::Cayley);
        assert_eq!(big.num_routers(), 103_776);
    }
}
