//! Topology specifications: closed-form size/radix formulas, parameter enumeration for the
//! design-space figures (Fig. 4), and the size-class parameter search used to build fair
//! comparisons (Table I's five size classes).

use crate::{BundleFlyGraph, CanonicalDragonFly, LpsGraph, SlimFlyGraph, Topology};
use spectralfly_ff::primes::{is_prime, odd_primes_below, prime_power};
use spectralfly_ff::residue::legendre;
use spectralfly_graph::CsrGraph;

/// Errors reported by topology constructors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// Parameters violate the topology's definition.
    InvalidParameter(String),
    /// The construction ran but produced an inconsistent graph (internal invariant broken).
    ConstructionFailed(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            TopologyError::ConstructionFailed(m) => write!(f, "construction failed: {m}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A buildable topology description with closed-form size and radix.
///
/// This is the unit of the design-space enumeration (Fig. 4): sizes and radixes can be
/// computed without materializing the graph, and [`TopologySpec::build`] constructs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// `LPS(p, q)` — SpectralFly router graph.
    Lps {
        /// Odd prime `p`; radix is `p + 1`.
        p: u64,
        /// Odd prime `q > 2√p`.
        q: u64,
    },
    /// `SF(q)` — SlimFly / MMS graph.
    SlimFly {
        /// Prime power `q`.
        q: u64,
    },
    /// `BF(p, s)` — BundleFly.
    BundleFly {
        /// Paley prime `p ≡ 1 (mod 4)`.
        p: u64,
        /// MMS parameter `s` (prime power).
        s: u64,
    },
    /// Canonical DragonFly `DF(a)`.
    DragonFly {
        /// Group size `a`; `a + 1` groups.
        a: u64,
    },
}

impl TopologySpec {
    /// Closed-form number of routers.
    ///
    /// # Panics
    /// If the count overflows `u64` (see [`TopologySpec::checked_num_routers`]).
    pub fn num_routers(&self) -> u64 {
        self.checked_num_routers()
            .unwrap_or_else(|| panic!("the router count of {} overflows u64", self.name()))
    }

    /// [`TopologySpec::num_routers`] for parameters nobody has vetted yet:
    /// `None` when the count overflows `u64`. Total — it never builds, loops
    /// or panics — so it can bound a spec before [`TopologySpec::build`] runs.
    pub fn checked_num_routers(&self) -> Option<u64> {
        match *self {
            TopologySpec::Lps { p, q } => LpsGraph::checked_expected_vertices(p, q),
            TopologySpec::SlimFly { q } => q.checked_mul(q)?.checked_mul(2),
            TopologySpec::BundleFly { p, s } => s.checked_mul(s)?.checked_mul(p)?.checked_mul(2),
            TopologySpec::DragonFly { a } => a.checked_mul(a.checked_add(1)?),
        }
    }

    /// Closed-form router radix (maximum degree).
    pub fn radix(&self) -> u64 {
        match *self {
            TopologySpec::Lps { p, .. } => p + 1,
            TopologySpec::SlimFly { q } => ((3 * q as i64 - delta(q)) / 2) as u64,
            TopologySpec::BundleFly { p, s } => {
                (p - 1) / 2 + ((3 * s as i64 - delta(s)) / 2) as u64
            }
            TopologySpec::DragonFly { a } => a,
        }
    }

    /// The construction's parameters, in the order [`TopologySpec::name`] prints them.
    pub fn params(&self) -> Vec<u64> {
        match *self {
            TopologySpec::Lps { p, q } => vec![p, q],
            TopologySpec::SlimFly { q } => vec![q],
            TopologySpec::BundleFly { p, s } => vec![p, s],
            TopologySpec::DragonFly { a } => vec![a],
        }
    }

    /// Short display name, e.g. `LPS(23, 11)`.
    pub fn name(&self) -> String {
        match *self {
            TopologySpec::Lps { p, q } => format!("LPS({p}, {q})"),
            TopologySpec::SlimFly { q } => format!("SF({q})"),
            TopologySpec::BundleFly { p, s } => format!("BF({p}, {s})"),
            TopologySpec::DragonFly { a } => format!("DF({a})"),
        }
    }

    /// Whether the parameters are admissible for the construction.
    pub fn is_valid(&self) -> bool {
        match *self {
            TopologySpec::Lps { p, q } => {
                p >= 3
                    && q >= 3
                    && p != q
                    && p % 2 == 1
                    && q % 2 == 1
                    && is_prime(p)
                    && is_prime(q)
                    && u128::from(q) * u128::from(q) > 4 * u128::from(p)
            }
            TopologySpec::SlimFly { q } => q >= 3 && prime_power(q).is_some(),
            TopologySpec::BundleFly { p, s } => {
                p % 4 == 1 && prime_power(p).is_some() && s >= 3 && prime_power(s).is_some()
            }
            TopologySpec::DragonFly { a } => a >= 2,
        }
    }

    /// Construct the router graph.
    pub fn build(&self) -> Result<CsrGraph, TopologyError> {
        match *self {
            TopologySpec::Lps { p, q } => Ok(LpsGraph::new(p, q)?.graph().clone()),
            TopologySpec::SlimFly { q } => Ok(SlimFlyGraph::new(q)?.graph().clone()),
            TopologySpec::BundleFly { p, s } => Ok(BundleFlyGraph::new(p, s)?.graph().clone()),
            TopologySpec::DragonFly { a } => Ok(CanonicalDragonFly::new(
                a,
                crate::GlobalArrangement::Circulant,
            )?
            .graph()
            .clone()),
        }
    }
}

/// The deficiency δ with `q = 4w + δ`, `δ ∈ {-1, 0, 1}`, used by the MMS radix formula.
pub(crate) fn delta(q: u64) -> i64 {
    match q % 4 {
        0 => 0,
        1 => 1,
        3 => -1,
        _ => {
            // q ≡ 2 (mod 4) only happens for q = 2, which no construction here uses;
            // treat it as δ = 0 for formula purposes.
            0
        }
    }
}

/// Enumerate every valid LPS spec with `p, q < limit` (Fig. 4 upper-left of the paper).
pub fn enumerate_lps(limit: u64) -> Vec<TopologySpec> {
    let ps = odd_primes_below(limit);
    let qs = odd_primes_below(limit);
    let mut out = Vec::new();
    for &p in &ps {
        for &q in &qs {
            let spec = TopologySpec::Lps { p, q };
            if spec.is_valid() {
                out.push(spec);
            }
        }
    }
    out
}

/// Enumerate valid SlimFly specs with `q < limit`.
pub fn enumerate_slimfly(limit: u64) -> Vec<TopologySpec> {
    (3..limit)
        .filter(|&q| prime_power(q).is_some())
        .map(|q| TopologySpec::SlimFly { q })
        .collect()
}

/// Enumerate valid BundleFly specs with `p < p_limit`, `s < s_limit`.
pub fn enumerate_bundlefly(p_limit: u64, s_limit: u64) -> Vec<TopologySpec> {
    let mut out = Vec::new();
    for p in (2..p_limit).filter(|&p| prime_power(p).is_some()) {
        if p % 4 != 1 {
            continue;
        }
        for s in 3..s_limit {
            let spec = TopologySpec::BundleFly { p, s };
            if spec.is_valid() {
                out.push(spec);
            }
        }
    }
    out
}

/// Enumerate canonical DragonFly specs with `a < limit`.
pub fn enumerate_dragonfly(limit: u64) -> Vec<TopologySpec> {
    (2..limit).map(|a| TopologySpec::DragonFly { a }).collect()
}

/// Find, per family, the spec whose (radix, routers) is closest to a target — the parameter
/// search the paper uses to assemble each Table-I size class.
///
/// Distance is relative: `|radix - target_radix| / target_radix + |n - target_n| / target_n`.
pub fn closest_spec(
    candidates: &[TopologySpec],
    target_radix: u64,
    target_routers: u64,
) -> Option<TopologySpec> {
    let score = |s: &TopologySpec| {
        let dr = (s.radix() as f64 - target_radix as f64).abs() / target_radix as f64;
        let dn = (s.num_routers() as f64 - target_routers as f64).abs() / target_routers as f64;
        dr + dn
    };
    candidates
        .iter()
        .copied()
        .min_by(|a, b| score(a).partial_cmp(&score(b)).unwrap())
}

/// The five Table-I size classes of the paper, as (LPS, SlimFly, BundleFly, DragonFly) specs.
pub fn table1_size_classes() -> Vec<[TopologySpec; 4]> {
    vec![
        [
            TopologySpec::Lps { p: 11, q: 7 },
            TopologySpec::SlimFly { q: 7 },
            TopologySpec::BundleFly { p: 13, s: 3 },
            TopologySpec::DragonFly { a: 12 },
        ],
        [
            TopologySpec::Lps { p: 23, q: 11 },
            TopologySpec::SlimFly { q: 17 },
            TopologySpec::BundleFly { p: 37, s: 3 },
            TopologySpec::DragonFly { a: 24 },
        ],
        [
            TopologySpec::Lps { p: 53, q: 17 },
            TopologySpec::SlimFly { q: 37 },
            TopologySpec::BundleFly { p: 97, s: 4 },
            TopologySpec::DragonFly { a: 53 },
        ],
        [
            TopologySpec::Lps { p: 71, q: 17 },
            TopologySpec::SlimFly { q: 47 },
            TopologySpec::BundleFly { p: 137, s: 4 },
            TopologySpec::DragonFly { a: 69 },
        ],
        [
            TopologySpec::Lps { p: 89, q: 19 },
            TopologySpec::SlimFly { q: 59 },
            TopologySpec::BundleFly { p: 157, s: 5 },
            TopologySpec::DragonFly { a: 85 },
        ],
    ]
}

/// Sanity helper: does the Legendre symbol make `LPS(p, q)` a PSL (non-bipartite) instance?
pub fn lps_is_psl(p: u64, q: u64) -> bool {
    legendre(p, q) == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_closed_form_sizes_match_paper() {
        // Routers and radix columns of Table I.
        let expected: Vec<Vec<(u64, u64)>> = vec![
            vec![(168, 12), (98, 11), (234, 11), (156, 12)],
            vec![(660, 24), (578, 25), (666, 23), (600, 24)],
            vec![(2448, 54), (2738, 55), (3104, 54), (2862, 53)],
            vec![(4896, 72), (4418, 71), (4384, 74), (4830, 69)],
            vec![(6840, 90), (6962, 89), (7850, 85), (7310, 85)],
        ];
        for (class, exp) in table1_size_classes().iter().zip(expected.iter()) {
            for (spec, &(n, k)) in class.iter().zip(exp.iter()) {
                assert!(spec.is_valid(), "{}", spec.name());
                assert_eq!(spec.num_routers(), n, "{} routers", spec.name());
                assert_eq!(spec.radix(), k, "{} radix", spec.name());
            }
        }
    }

    #[test]
    fn lps_enumeration_respects_constraints() {
        let specs = enumerate_lps(30);
        assert!(!specs.is_empty());
        for s in &specs {
            if let TopologySpec::Lps { p, q } = s {
                assert!(q * q > 4 * p);
                assert_ne!(p, q);
            }
        }
        // (3, 5) is the smallest valid pair; (3, 3) and (5, 3) must be excluded.
        assert!(specs.contains(&TopologySpec::Lps { p: 3, q: 5 }));
        assert!(!specs.contains(&TopologySpec::Lps { p: 5, q: 3 }));
    }

    #[test]
    fn smallest_lps_graph_has_120_vertices() {
        // The paper notes "the smallest possible LPS graph is on 120 vertices".
        let min = enumerate_lps(300)
            .iter()
            .map(|s| s.num_routers())
            .min()
            .unwrap();
        assert_eq!(min, 120);
    }

    #[test]
    fn slimfly_radix_formula() {
        assert_eq!(TopologySpec::SlimFly { q: 17 }.radix(), 25);
        assert_eq!(TopologySpec::SlimFly { q: 19 }.radix(), 29);
        assert_eq!(TopologySpec::SlimFly { q: 27 }.radix(), 41);
        assert_eq!(TopologySpec::SlimFly { q: 9 }.radix(), 13);
        assert_eq!(TopologySpec::SlimFly { q: 4 }.radix(), 6);
    }

    #[test]
    fn closest_spec_prefers_matching_size() {
        let candidates = enumerate_dragonfly(100);
        let best = closest_spec(&candidates, 24, 600).unwrap();
        assert_eq!(best, TopologySpec::DragonFly { a: 24 });
    }

    #[test]
    fn legendre_kind_helper() {
        assert!(lps_is_psl(11, 7));
        assert!(!lps_is_psl(3, 5));
    }

    #[test]
    fn bundlefly_enumeration_only_paley_primes() {
        for s in enumerate_bundlefly(60, 10) {
            if let TopologySpec::BundleFly { p, .. } = s {
                assert_eq!(p % 4, 1);
            }
        }
    }
}
