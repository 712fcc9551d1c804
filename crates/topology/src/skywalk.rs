//! A SkyWalk-style layout-aware random topology.
//!
//! SkyWalk (Fujiwara et al., IPDPS 2014) targets ultra-low end-to-end latency by choosing
//! links with lengths drawn from a distance-aware distribution over the machine-room
//! cabinet layout. The paper uses SkyWalk purely as a *wire-length and latency baseline*
//! (Table II parentheses and Fig. 11), averaged over 20 random instantiations in the same
//! machine room.
//!
//! This module implements that baseline: given per-router physical positions (produced by
//! `spectralfly_graph::layout`), it samples a connected, (near-)`k`-regular random topology whose
//! link-length distribution is biased toward short cables — each router first connects to
//! its cabinet partner, and the remaining ports are filled by sampling peers with
//! probability proportional to `1 / (ε + distance)^α`. This is a documented substitution
//! for the exact SkyWalk generator; what the experiments consume is only the resulting
//! wire-length distribution and hop counts.

use crate::spec::TopologyError;
use crate::Topology;
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::{CsrGraph, VertexId};
use std::collections::HashSet;

/// Parameters of the SkyWalk-style generator.
#[derive(Clone, Debug)]
pub struct SkyWalkConfig {
    /// Target router radix.
    pub radix: usize,
    /// Distance-bias exponent α (larger ⇒ shorter cables preferred more strongly).
    pub alpha: f64,
    /// Additive smoothing ε in metres added to every distance before weighting.
    pub epsilon: f64,
}

impl Default for SkyWalkConfig {
    fn default() -> Self {
        SkyWalkConfig {
            radix: 16,
            alpha: 2.0,
            epsilon: 2.0,
        }
    }
}

/// A sampled SkyWalk-style topology.
#[derive(Clone, Debug)]
pub struct SkyWalkGraph {
    graph: CsrGraph,
    radix: usize,
}

impl SkyWalkGraph {
    /// Sample a SkyWalk-style topology over routers at the given physical `positions`
    /// (metres). Deterministic in `seed`.
    pub fn new(
        positions: &[(f64, f64)],
        cfg: &SkyWalkConfig,
        seed: u64,
    ) -> Result<Self, TopologyError> {
        let n = positions.len();
        if n < 2 {
            return Err(TopologyError::InvalidParameter(
                "SkyWalk needs at least two routers".to_string(),
            ));
        }
        if cfg.radix == 0 || cfg.radix >= n {
            return Err(TopologyError::InvalidParameter(format!(
                "SkyWalk radix must be in 1..n (got {} for n={n})",
                cfg.radix
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = |a: usize, b: usize| -> f64 {
            let (xa, ya) = positions[a];
            let (xb, yb) = positions[b];
            ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt()
        };
        let mut degree = vec![0usize; n];
        let mut edge_set: HashSet<(VertexId, VertexId)> = HashSet::new();
        let add = |edge_set: &mut HashSet<(VertexId, VertexId)>,
                   degree: &mut Vec<usize>,
                   u: usize,
                   v: usize|
         -> bool {
            if u == v {
                return false;
            }
            let key = ((u.min(v)) as VertexId, (u.max(v)) as VertexId);
            if edge_set.contains(&key) {
                return false;
            }
            edge_set.insert(key);
            degree[u] += 1;
            degree[v] += 1;
            true
        };

        // Ring over routers sorted by position guarantees connectivity with short cables.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            positions[a]
                .partial_cmp(&positions[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for i in 0..n {
            let u = order[i];
            let v = order[(i + 1) % n];
            add(&mut edge_set, &mut degree, u, v);
        }

        // Fill remaining ports with distance-biased random shortcuts.
        let mut attempts = 0usize;
        let max_attempts = 200 * n * cfg.radix;
        while attempts < max_attempts {
            attempts += 1;
            let candidates: Vec<usize> = (0..n).filter(|&v| degree[v] < cfg.radix).collect();
            if candidates.len() < 2 {
                break;
            }
            let u = candidates[rng.gen_range(0..candidates.len())];
            // Sample peer with probability proportional to 1/(eps + d)^alpha.
            let weights: Vec<f64> = candidates
                .iter()
                .map(|&v| {
                    if v == u {
                        0.0
                    } else {
                        1.0 / (cfg.epsilon + dist(u, v)).powf(cfg.alpha)
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                break;
            }
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = candidates[0];
            for (i, &w) in weights.iter().enumerate() {
                if pick < w {
                    chosen = candidates[i];
                    break;
                }
                pick -= w;
            }
            add(&mut edge_set, &mut degree, u, chosen);
        }
        let edges: Vec<(VertexId, VertexId)> = edge_set.into_iter().collect();
        let graph = CsrGraph::from_edges(n, &edges);
        Ok(SkyWalkGraph {
            graph,
            radix: cfg.radix,
        })
    }

    /// The requested radix (achieved degree may be one lower for a few routers).
    pub fn target_radix(&self) -> usize {
        self.radix
    }
}

impl Topology for SkyWalkGraph {
    fn name(&self) -> String {
        format!("SkyWalk(k={})", self.radix)
    }
    fn graph(&self) -> &CsrGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectralfly_graph::metrics::is_connected;

    fn grid_positions(n: usize) -> Vec<(f64, f64)> {
        let cols = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| ((i % cols) as f64 * 2.0, (i / cols) as f64 * 0.6))
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        let pos = grid_positions(10);
        assert!(SkyWalkGraph::new(&pos[..1], &SkyWalkConfig::default(), 1).is_err());
        let cfg = SkyWalkConfig {
            radix: 10,
            ..Default::default()
        };
        assert!(SkyWalkGraph::new(&pos, &cfg, 1).is_err());
    }

    #[test]
    fn connected_and_degree_bounded() {
        let pos = grid_positions(64);
        let cfg = SkyWalkConfig {
            radix: 8,
            ..Default::default()
        };
        let g = SkyWalkGraph::new(&pos, &cfg, 11).unwrap();
        assert!(is_connected(g.graph()));
        assert!(g.graph().max_degree() <= 8);
        // Most routers should reach the full radix.
        let full = (0..64u32).filter(|&v| g.graph().degree(v) == 8).count();
        assert!(full > 48, "only {full} routers reached full radix");
    }

    #[test]
    fn deterministic_in_seed() {
        let pos = grid_positions(32);
        let cfg = SkyWalkConfig {
            radix: 6,
            ..Default::default()
        };
        let a = SkyWalkGraph::new(&pos, &cfg, 3).unwrap();
        let b = SkyWalkGraph::new(&pos, &cfg, 3).unwrap();
        assert_eq!(a.graph(), b.graph());
    }

    #[test]
    fn distance_bias_prefers_short_links() {
        // With a strong bias the mean link length should be well below the mean pairwise
        // distance of the room.
        let pos = grid_positions(100);
        let cfg = SkyWalkConfig {
            radix: 6,
            alpha: 3.0,
            epsilon: 1.0,
        };
        let g = SkyWalkGraph::new(&pos, &cfg, 5).unwrap();
        let d = |a: u32, b: u32| {
            let (xa, ya) = pos[a as usize];
            let (xb, yb) = pos[b as usize];
            ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt()
        };
        let link_mean: f64 =
            g.graph().edges().map(|(u, v)| d(u, v)).sum::<f64>() / g.graph().num_edges() as f64;
        let mut all = 0.0;
        let mut count = 0usize;
        for u in 0..100u32 {
            for v in (u + 1)..100u32 {
                all += d(u, v);
                count += 1;
            }
        }
        let all_mean = all / count as f64;
        assert!(
            link_mean < 0.8 * all_mean,
            "link {link_mean} vs room {all_mean}"
        );
    }
}
