//! DragonFly router graphs.
//!
//! Two variants are used by the paper:
//!
//! * the **canonical** `DF(a)` of Section IV: `a + 1` groups of `a` routers, complete graphs
//!   inside each group, and exactly one global link between every pair of groups (radix `a`);
//! * the **generalized** `DF(a, h, g)` of Section VI's simulations: `g` groups of `a` routers,
//!   each router carrying `h` global links, with the `a·h` global links per group spread
//!   across the other groups as evenly as possible. The paper uses the *circulant*
//!   arrangement of global links (after Hastings et al.), which we implement alongside the
//!   *absolute* arrangement for comparison.

use crate::spec::TopologyError;
use crate::Topology;
use spectralfly_graph::{CsrGraph, VertexId};

/// How global (inter-group) links are assigned to routers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GlobalArrangement {
    /// Consecutive global-link slots go to consecutive peer groups relative to the source
    /// group (the arrangement the paper selects for its simulations).
    Circulant,
    /// Global-link slots go to peer groups in absolute group order.
    Absolute,
}

/// Canonical DragonFly `DF(a)`: `a+1` fully connected groups of `a` routers, radix `a`.
#[derive(Clone, Debug)]
pub struct CanonicalDragonFly {
    a: u64,
    arrangement: GlobalArrangement,
    graph: CsrGraph,
}

impl CanonicalDragonFly {
    /// Construct `DF(a)` with the given global-link arrangement.
    pub fn new(a: u64, arrangement: GlobalArrangement) -> Result<Self, TopologyError> {
        if a < 2 {
            return Err(TopologyError::InvalidParameter(format!(
                "canonical DragonFly requires a >= 2, got {a}"
            )));
        }
        let a_us = a as usize;
        let groups = a_us + 1;
        let n = a_us * groups;
        let id = |g: usize, r: usize| -> VertexId { (g * a_us + r) as VertexId };
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        // Intra-group complete graphs.
        for g in 0..groups {
            for r1 in 0..a_us {
                for r2 in (r1 + 1)..a_us {
                    edges.push((id(g, r1), id(g, r2)));
                }
            }
        }
        // Global links: one per router, one per group pair.
        for g in 0..groups {
            for r in 0..a_us {
                let target_group = match arrangement {
                    GlobalArrangement::Circulant => (g + r + 1) % groups,
                    GlobalArrangement::Absolute => {
                        if r < g {
                            r
                        } else {
                            r + 1
                        }
                    }
                };
                let peer_router = match arrangement {
                    // Peer slot chosen so that the reverse mapping lands back on (g, r).
                    GlobalArrangement::Circulant => {
                        (groups - r - 2) % groups // = a - 1 - r for r in 0..a
                    }
                    GlobalArrangement::Absolute => {
                        if g < target_group {
                            g
                        } else {
                            g - 1
                        }
                    }
                };
                let u = id(g, r);
                let v = id(target_group, peer_router);
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        let graph = CsrGraph::from_edges(n, &edges);
        if graph.regular_degree() != Some(a_us) {
            return Err(TopologyError::ConstructionFailed(format!(
                "DF({a}): expected {a}-regular graph, got degrees {}..{}",
                graph.min_degree(),
                graph.max_degree()
            )));
        }
        Ok(CanonicalDragonFly {
            a,
            arrangement,
            graph,
        })
    }

    /// Group size (and radix) `a`.
    pub fn a(&self) -> u64 {
        self.a
    }

    /// Which global-link arrangement was used.
    pub fn arrangement(&self) -> GlobalArrangement {
        self.arrangement
    }

    /// Group index of a router.
    pub fn group_of(&self, v: VertexId) -> usize {
        v as usize / self.a as usize
    }
}

impl Topology for CanonicalDragonFly {
    fn name(&self) -> String {
        format!("DF({})", self.a)
    }
    fn graph(&self) -> &CsrGraph {
        &self.graph
    }
}

/// Orders a vertex pair so the smaller id comes first (undirected edge key).
fn ordered(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Generalized DragonFly `DF(a, h, g)`: `g` groups of `a` routers, `h` global links per router.
#[derive(Clone, Debug)]
pub struct GeneralizedDragonFly {
    a: u64,
    h: u64,
    g: u64,
    graph: CsrGraph,
}

impl GeneralizedDragonFly {
    /// Construct `DF(a, h, g)` with circulant global-link distribution.
    ///
    /// Requirements: `a ≥ 2`, `h ≥ 1`, `g ≥ 2`, and `a·h ≥ g − 1` is *not* required — when
    /// there are fewer global links than peer groups, nearer groups (in circulant offset
    /// order) are preferred; when there are more, the extra links wrap around the offsets.
    pub fn new(a: u64, h: u64, g: u64) -> Result<Self, TopologyError> {
        if a < 2 || h < 1 || g < 2 {
            return Err(TopologyError::InvalidParameter(format!(
                "generalized DragonFly requires a >= 2, h >= 1, g >= 2 (got a={a}, h={h}, g={g})"
            )));
        }
        let (a_us, h_us, groups) = (a as usize, h as usize, g as usize);
        let too_large =
            || TopologyError::InvalidParameter(format!("DF({a}, {h}, {g}) is too large"));
        let n = a_us.checked_mul(groups).ok_or_else(too_large)?;
        let id = |grp: usize, r: usize| -> VertexId { (grp * a_us + r) as VertexId };
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        for grp in 0..groups {
            for r1 in 0..a_us {
                for r2 in (r1 + 1)..a_us {
                    edges.push((id(grp, r1), id(grp, r2)));
                }
            }
        }
        // Global links. Each group owns a*h global-link slots. Slots are paired by sweeping
        // circulant offsets d = 1, 2, ... (connecting group grp to grp + d), wrapping around
        // the offsets until every slot is used. Within a group, each new link goes to the
        // router with the most remaining global capacity, which keeps per-router global
        // degrees within one of each other (and exactly h when a*h slots divide evenly).
        let slots_per_group = a_us.checked_mul(h_us).ok_or_else(too_large)?;
        let mut used = vec![vec![0usize; a_us]; groups]; // global links already on each router
        let mut used_total = vec![0usize; groups];
        let mut placed: std::collections::HashSet<(VertexId, VertexId)> =
            std::collections::HashSet::new();
        let mut remaining = slots_per_group.checked_mul(groups).ok_or_else(too_large)? / 2;
        let pick_router = |used_g: &[usize], avoid: Option<usize>| -> usize {
            let mut best = usize::MAX;
            let mut best_used = usize::MAX;
            for (r, &u) in used_g.iter().enumerate() {
                if Some(r) == avoid {
                    continue;
                }
                if u < best_used {
                    best_used = u;
                    best = r;
                }
            }
            best
        };
        let mut d = 1usize;
        let mut stalled_rounds = 0usize;
        while remaining > 0 {
            let offset = (d - 1) % (groups - 1) + 1;
            let mut placed_this_round = false;
            for grp in 0..groups {
                let peer = (grp + offset) % groups;
                // Visit each unordered pair once per sweep when the offset is self-paired.
                if offset * 2 == groups && grp > peer {
                    continue;
                }
                if remaining == 0 {
                    break;
                }
                if used_total[grp] >= slots_per_group || used_total[peer] >= slots_per_group {
                    continue;
                }
                let r1 = pick_router(&used[grp], None);
                let mut r2 = pick_router(&used[peer], None);
                let mut edge = ordered(id(grp, r1), id(peer, r2));
                if placed.contains(&edge) {
                    // Try the peer's second-best router to avoid a parallel link.
                    let alt = pick_router(&used[peer], Some(r2));
                    if alt != usize::MAX {
                        r2 = alt;
                        edge = ordered(id(grp, r1), id(peer, r2));
                    }
                    if placed.contains(&edge) {
                        continue;
                    }
                }
                used[grp][r1] += 1;
                used[peer][r2] += 1;
                used_total[grp] += 1;
                used_total[peer] += 1;
                placed.insert(edge);
                edges.push(edge);
                remaining -= 1;
                placed_this_round = true;
            }
            d += 1;
            if placed_this_round {
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if stalled_rounds > groups {
                    return Err(TopologyError::ConstructionFailed(format!(
                        "DF({a},{h},{g}): unable to place all global links ({remaining} left)"
                    )));
                }
            }
        }
        let graph = CsrGraph::from_edges(n, &edges);
        Ok(GeneralizedDragonFly { a, h, g, graph })
    }

    /// Routers per group.
    pub fn a(&self) -> u64 {
        self.a
    }
    /// Global links per router.
    pub fn h(&self) -> u64 {
        self.h
    }
    /// Number of groups.
    pub fn groups(&self) -> u64 {
        self.g
    }
    /// Group index of a router.
    pub fn group_of(&self, v: VertexId) -> usize {
        v as usize / self.a as usize
    }
}

impl Topology for GeneralizedDragonFly {
    fn name(&self) -> String {
        format!("DF(a={}, h={}, g={})", self.a, self.h, self.g)
    }
    fn graph(&self) -> &CsrGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectralfly_graph::metrics::{diameter_and_mean_distance, is_connected};

    #[test]
    fn canonical_df12_matches_table1() {
        // Table I: DF(12) has 156 routers, radix 12, diameter 3.
        for arr in [GlobalArrangement::Circulant, GlobalArrangement::Absolute] {
            let g = CanonicalDragonFly::new(12, arr).unwrap();
            assert_eq!(g.graph().num_vertices(), 156);
            assert_eq!(g.graph().regular_degree(), Some(12));
            assert!(is_connected(g.graph()));
            let (diam, _) = diameter_and_mean_distance(g.graph()).unwrap();
            assert_eq!(diam, 3, "{arr:?}");
        }
    }

    #[test]
    fn canonical_small_sizes() {
        for a in [2u64, 3, 5, 8, 24] {
            let g = CanonicalDragonFly::new(a, GlobalArrangement::Circulant).unwrap();
            assert_eq!(g.graph().num_vertices() as u64, a * (a + 1));
            assert_eq!(g.graph().regular_degree(), Some(a as usize));
        }
    }

    #[test]
    fn every_group_pair_has_exactly_one_global_link() {
        let a = 8u64;
        let df = CanonicalDragonFly::new(a, GlobalArrangement::Circulant).unwrap();
        let groups = (a + 1) as usize;
        let mut pair_links = std::collections::HashMap::new();
        for (u, v) in df.graph().edges() {
            let gu = df.group_of(u);
            let gv = df.group_of(v);
            if gu != gv {
                let key = (gu.min(gv), gu.max(gv));
                *pair_links.entry(key).or_insert(0usize) += 1;
            }
        }
        assert_eq!(pair_links.len(), groups * (groups - 1) / 2);
        assert!(pair_links.values().all(|&c| c == 1));
    }

    #[test]
    fn rejects_tiny_parameters() {
        assert!(CanonicalDragonFly::new(1, GlobalArrangement::Circulant).is_err());
        assert!(GeneralizedDragonFly::new(1, 1, 4).is_err());
        assert!(GeneralizedDragonFly::new(4, 0, 4).is_err());
    }

    #[test]
    fn generalized_simulation_configuration() {
        // The paper's simulation DragonFly: a = 16 routers/group, h = 8 global links/router,
        // g = 69 groups -> 1104 routers of radix 23 (15 intra + 8 global).
        let df = GeneralizedDragonFly::new(16, 8, 69).unwrap();
        assert_eq!(df.graph().num_vertices(), 16 * 69);
        assert!(is_connected(df.graph()));
        assert_eq!(df.graph().regular_degree(), Some(15 + 8));
        let (diam, _) = diameter_and_mean_distance(df.graph()).unwrap();
        assert!(diam <= 4, "diameter {diam}");
    }

    #[test]
    fn generalized_global_links_spread_evenly() {
        let df = GeneralizedDragonFly::new(4, 2, 9).unwrap();
        // 4*2 = 8 global links per group across 8 peer groups: exactly one per pair.
        let mut pair_links = std::collections::HashMap::new();
        for (u, v) in df.graph().edges() {
            let gu = df.group_of(u);
            let gv = df.group_of(v);
            if gu != gv {
                *pair_links.entry((gu.min(gv), gu.max(gv))).or_insert(0usize) += 1;
            }
        }
        assert_eq!(pair_links.len(), 9 * 8 / 2);
        assert!(pair_links.values().all(|&c| c == 1));
        assert_eq!(df.graph().regular_degree(), Some(3 + 2));
    }
}
