//! The manifest's topology axis: compact specs like `lps(11,7)x4` resolved to
//! router graphs plus endpoint concentration.
//!
//! A spec is `family(args) x C` in the shared grammar of
//! [`spectralfly_simnet::spec`] (see "Spec grammar" in
//! `docs/ARCHITECTURE.md`): `C` is the endpoints-per-router concentration
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
//! ([`spectralfly_topology`]); this module only owns the surface syntax, so a
//! family added there becomes reachable here by one match arm.

use spectralfly_graph::CsrGraph;
use spectralfly_simnet::spec::{self, Arg};
use spectralfly_topology::{
    BundleFlyGraph, CanonicalDragonFly, GeneralizedDragonFly, GlobalArrangement, LpsGraph,
    SlimFlyGraph, Topology,
};

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

impl TopoSpec {
    /// Parse a spec like `lps(11,7)x4`. The error is a plain reason; callers
    /// (the manifest parser) wrap it with the offending field.
    pub fn parse(spec: &str) -> Result<TopoSpec, String> {
        let terms = spec::parse(spec).map_err(|e| e.to_string())?;
        let [term] = terms.as_slice() else {
            return Err(format!("expected one topology, found a '+' in {spec:?}"));
        };
        let bad = |offset: usize, reason: &str| term.call.error(offset, reason).to_string();
        if let Some(at) = &term.at {
            return Err(bad(at.start, "a topology takes no '@ placement'"));
        }
        let concentration = usize::try_from(term.times.unwrap_or(1))
            .ok()
            .filter(|&c| c >= 1)
            .ok_or_else(|| format!("concentration must be at least 1 in {spec:?}"))?;
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
        let parsed = TopoSpec {
            family: term.call.key(),
            args,
            concentration,
        };
        // Check arity eagerly so a manifest error points at the spec, not at
        // a build failure deep inside the runner.
        parsed.check_arity()?;
        Ok(parsed)
    }

    fn check_arity(&self) -> Result<(), String> {
        let ok = match self.family.as_str() {
            "lps" | "bundlefly" => self.args.len() == 2,
            "slimfly" | "ring" => self.args.len() == 1,
            "dragonfly" => self.args.len() == 1 || self.args.len() == 3,
            other => return Err(format!(
                "unknown topology family {other:?}; known: lps(p,q), slimfly(q), bundlefly(p,s), dragonfly(a|a,h,g), ring(n)"
            )),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "wrong argument count for {}: got {}",
                self.family,
                self.args.len()
            ))
        }
    }

    /// The canonical spelling this spec round-trips through.
    pub fn canonical(&self) -> String {
        let args: Vec<String> = self.args.iter().map(u64::to_string).collect();
        format!("{}({})x{}", self.family, args.join(","), self.concentration)
    }

    /// Build the router graph (validity errors come from the constructors).
    pub fn build(&self) -> Result<CsrGraph, String> {
        let a = &self.args;
        match self.family.as_str() {
            "lps" => LpsGraph::new(a[0], a[1])
                .map(|g| g.graph().clone())
                .map_err(|e| format!("{}: {e}", self.canonical())),
            "slimfly" => SlimFlyGraph::new(a[0])
                .map(|g| g.graph().clone())
                .map_err(|e| format!("{}: {e}", self.canonical())),
            "bundlefly" => BundleFlyGraph::new(a[0], a[1])
                .map(|g| g.graph().clone())
                .map_err(|e| format!("{}: {e}", self.canonical())),
            "dragonfly" if a.len() == 3 => GeneralizedDragonFly::new(a[0], a[1], a[2])
                .map(|g| g.graph().clone())
                .map_err(|e| format!("{}: {e}", self.canonical())),
            "dragonfly" => CanonicalDragonFly::new(a[0], GlobalArrangement::Circulant)
                .map(|g| g.graph().clone())
                .map_err(|e| format!("{}: {e}", self.canonical())),
            "ring" => {
                let n = a[0] as usize;
                if n < 3 {
                    return Err(format!(
                        "{}: a ring needs at least 3 routers",
                        self.canonical()
                    ));
                }
                let edges: Vec<(u32, u32)> =
                    (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
                Ok(CsrGraph::from_edges(n, &edges))
            }
            _ => unreachable!("check_arity rejects unknown families"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
