//! Random link-failure experiments (Section IV-A of the paper).
//!
//! The paper deletes a proportion of edges uniformly at random, recomputes diameter, mean
//! hop count, and bisection bandwidth on the damaged topology, and averages over enough
//! trials that the coefficient of variation of batch means drops below 10%. The same
//! protocol is implemented here, including the batched stopping rule.
//!
//! This module measures **static** resilience: structural metrics of the damaged
//! graph. The **dynamic** side — actually routing packets on the degraded
//! topology — lives in `spectralfly_simnet::fault`, whose random fault models
//! draw their failures through [`draw_failed_links`] / [`draw_failed_routers`]
//! below, so a static sweep and a dynamic sweep at the same seed damage the
//! same links.
//!
//! ```
//! use spectralfly_graph::failures::{delete_random_edges, draw_failed_links};
//! use spectralfly_graph::CsrGraph;
//!
//! // A 4-cycle; kill half the links, deterministically in the seed.
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let killed = draw_failed_links(&g, 0.5, 7);
//! assert_eq!(killed.len(), 2);
//! // Deleting is exactly "remove the drawn links": the two views cannot drift.
//! let damaged = delete_random_edges(&g, 0.5, 7);
//! assert_eq!(damaged, g.remove_edges(&killed));
//! assert_eq!(damaged.num_edges(), 2);
//! ```

use crate::csr::{CsrGraph, VertexId};
use crate::metrics::{diameter_and_mean_distance, is_connected};
use crate::partition::bisection_bandwidth;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use rayon::prelude::*;

/// Which structural quantity a failure sweep measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureMetric {
    /// Graph diameter after edge deletion.
    Diameter,
    /// Mean shortest-path length after edge deletion.
    MeanDistance,
    /// Bisection bandwidth (partitioner upper bound) after edge deletion.
    BisectionBandwidth,
}

/// Outcome of one failure level (a single proportion of deleted edges).
#[derive(Clone, Debug)]
pub struct FailurePoint {
    /// Fraction of edges deleted.
    pub proportion: f64,
    /// Mean of the metric over connected trials.
    pub mean: f64,
    /// Number of trials that produced a connected graph.
    pub connected_trials: usize,
    /// Total trials run.
    pub total_trials: usize,
}

/// Configuration of the stopping rule used by [`failure_sweep`].
#[derive(Clone, Debug)]
pub struct TrialConfig {
    /// Trials per batch; the paper uses batches whose size grows in powers of ten.
    pub initial_batch: usize,
    /// Number of batches whose means feed the coefficient-of-variation test.
    pub batches: usize,
    /// Target coefficient of variation of batch means (paper: 10%).
    pub target_cov: f64,
    /// Hard cap on total trials per failure level.
    pub max_trials: usize,
    /// Restarts for the bisection partitioner (only used for the bandwidth metric).
    pub bisection_restarts: usize,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            initial_batch: 4,
            batches: 10,
            target_cov: 0.10,
            max_trials: 400,
            bisection_restarts: crate::profile::BISECTION_RESTARTS,
        }
    }
}

/// Draw `round(proportion * |E|)` distinct edges uniformly at random
/// (deterministic in `seed`) — the kill set of one failure trial.
///
/// This is the single source of failure draws: [`delete_random_edges`] (the
/// static Fig. 5 sweeps) and the simulator's `links(f)` fault model both
/// delete exactly this set, so static and dynamic resilience sweeps at equal
/// seeds run on identically damaged graphs.
pub fn draw_failed_links(g: &CsrGraph, proportion: f64, seed: u64) -> Vec<(VertexId, VertexId)> {
    assert!(
        (0.0..=1.0).contains(&proportion),
        "failure proportion {proportion} outside [0, 1]"
    );
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let kill = (((edges.len() as f64) * proportion).round() as usize).min(edges.len());
    let mut rng = StdRng::seed_from_u64(seed);
    edges.shuffle(&mut rng);
    edges.truncate(kill);
    edges
}

/// Draw `count` distinct routers uniformly at random (deterministic in `seed`)
/// — the down-set of one router-failure trial, shared with the simulator's
/// `routers(k)` fault model.
///
/// # Panics
/// If `count > n`.
pub fn draw_failed_routers(n: usize, count: usize, seed: u64) -> Vec<VertexId> {
    assert!(count <= n, "cannot fail {count} of {n} routers");
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    ids.truncate(count);
    ids
}

/// Delete `round(proportion * |E|)` edges uniformly at random (deterministic in `seed`).
///
/// The deleted set is exactly [`draw_failed_links`] at the same seed.
pub fn delete_random_edges(g: &CsrGraph, proportion: f64, seed: u64) -> CsrGraph {
    g.remove_edges(&draw_failed_links(g, proportion, seed))
}

fn measure(g: &CsrGraph, metric: FailureMetric, cfg: &TrialConfig, seed: u64) -> Option<f64> {
    if !is_connected(g) {
        return None;
    }
    match metric {
        FailureMetric::Diameter => diameter_and_mean_distance(g).map(|(d, _)| d as f64),
        FailureMetric::MeanDistance => diameter_and_mean_distance(g).map(|(_, m)| m),
        FailureMetric::BisectionBandwidth => {
            Some(bisection_bandwidth(g, cfg.bisection_restarts, seed) as f64)
        }
    }
}

/// Measure `metric` at a single failure proportion, with the batched CoV stopping rule.
///
/// The batch size doubles until either the coefficient of variation of the batch means is
/// below `cfg.target_cov` or `cfg.max_trials` is reached. Disconnected trials are excluded
/// from the mean (the metrics are undefined there), mirroring the paper's restriction to
/// proportions below the disconnection threshold.
pub fn failure_point(
    g: &CsrGraph,
    proportion: f64,
    metric: FailureMetric,
    cfg: &TrialConfig,
    seed: u64,
) -> FailurePoint {
    let mut all_values: Vec<f64> = Vec::new();
    let mut total_trials = 0usize;
    let mut batch = cfg.initial_batch.max(1);
    loop {
        // Run `cfg.batches` batches of the current size in parallel.
        let batch_results: Vec<Vec<Option<f64>>> = (0..cfg.batches)
            .into_par_iter()
            .map(|b| {
                (0..batch)
                    .map(|t| {
                        let trial_seed = seed
                            .wrapping_add((total_trials + b * batch + t) as u64)
                            .wrapping_mul(0x9E3779B97F4A7C15);
                        let damaged = delete_random_edges(g, proportion, trial_seed);
                        measure(&damaged, metric, cfg, trial_seed)
                    })
                    .collect()
            })
            .collect();
        total_trials += cfg.batches * batch;
        let mut batch_means = Vec::new();
        for results in &batch_results {
            let vals: Vec<f64> = results.iter().filter_map(|x| *x).collect();
            all_values.extend_from_slice(&vals);
            if !vals.is_empty() {
                batch_means.push(vals.iter().sum::<f64>() / vals.len() as f64);
            }
        }
        if batch_means.len() >= 2 {
            let m = batch_means.iter().sum::<f64>() / batch_means.len() as f64;
            let var = batch_means.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
                / (batch_means.len() - 1) as f64;
            let cov = if m.abs() > 1e-12 {
                var.sqrt() / m.abs()
            } else {
                0.0
            };
            if cov <= cfg.target_cov || total_trials >= cfg.max_trials {
                break;
            }
        } else if total_trials >= cfg.max_trials {
            break;
        }
        batch *= 2;
    }
    let connected_trials = all_values.len();
    let mean = if connected_trials > 0 {
        all_values.iter().sum::<f64>() / connected_trials as f64
    } else {
        f64::NAN
    };
    FailurePoint {
        proportion,
        mean,
        connected_trials,
        total_trials,
    }
}

/// Sweep a metric across multiple failure proportions (Fig. 5 of the paper).
pub fn failure_sweep(
    g: &CsrGraph,
    proportions: &[f64],
    metric: FailureMetric,
    cfg: &TrialConfig,
    seed: u64,
) -> Vec<FailurePoint> {
    proportions
        .iter()
        .enumerate()
        .map(|(i, &p)| failure_point(g, p, metric, cfg, sweep_seed(seed, i)))
        .collect()
}

/// The seed [`failure_sweep`] hands the `index`-th proportion of a sweep seeded `seed`.
pub fn sweep_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(index as u64 * 7919)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_graph(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    fn hypercube(dim: u32) -> CsrGraph {
        let n = 1usize << dim;
        let mut edges = Vec::new();
        for v in 0..n as u32 {
            for b in 0..dim {
                let w = v ^ (1 << b);
                if v < w {
                    edges.push((v, w));
                }
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn delete_zero_and_all() {
        let g = complete_graph(8);
        assert_eq!(delete_random_edges(&g, 0.0, 1).num_edges(), g.num_edges());
        assert_eq!(delete_random_edges(&g, 1.0, 1).num_edges(), 0);
    }

    #[test]
    fn deletion_count_matches_proportion() {
        let g = hypercube(6); // 192 edges
        let damaged = delete_random_edges(&g, 0.25, 9);
        assert_eq!(damaged.num_edges(), 192 - 48);
    }

    #[test]
    fn drawn_links_are_exactly_the_deleted_set() {
        let g = hypercube(5);
        for (prop, seed) in [(0.0, 1u64), (0.25, 9), (0.5, 42), (1.0, 7)] {
            let killed = draw_failed_links(&g, prop, seed);
            assert_eq!(
                killed.len(),
                ((g.num_edges() as f64) * prop).round() as usize
            );
            // No duplicates in the kill set.
            let distinct: std::collections::BTreeSet<_> =
                killed.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
            assert_eq!(distinct.len(), killed.len());
            assert_eq!(delete_random_edges(&g, prop, seed), g.remove_edges(&killed));
        }
    }

    #[test]
    fn drawn_routers_are_distinct_and_deterministic() {
        let down = draw_failed_routers(40, 7, 11);
        assert_eq!(down.len(), 7);
        let distinct: std::collections::BTreeSet<_> = down.iter().collect();
        assert_eq!(distinct.len(), 7);
        assert!(down.iter().all(|&r| r < 40));
        assert_eq!(down, draw_failed_routers(40, 7, 11));
        assert_ne!(down, draw_failed_routers(40, 7, 12));
        assert_eq!(draw_failed_routers(5, 0, 3), Vec::<VertexId>::new());
        assert_eq!(draw_failed_routers(3, 3, 3).len(), 3);
    }

    #[test]
    fn deletion_is_deterministic_in_seed() {
        let g = hypercube(5);
        let a = delete_random_edges(&g, 0.3, 1234);
        let b = delete_random_edges(&g, 0.3, 1234);
        assert_eq!(a, b);
        let c = delete_random_edges(&g, 0.3, 999);
        // Overwhelmingly likely to differ.
        assert_ne!(a, c);
    }

    #[test]
    fn failure_point_on_robust_graph() {
        let g = complete_graph(16);
        let cfg = TrialConfig {
            max_trials: 40,
            ..Default::default()
        };
        let p = failure_point(&g, 0.1, FailureMetric::Diameter, &cfg, 5);
        assert!(p.connected_trials > 0);
        // K16 with 10% of edges removed still has diameter 1 or 2.
        assert!(p.mean >= 1.0 && p.mean <= 2.0, "mean diameter {}", p.mean);
    }

    #[test]
    fn mean_distance_grows_with_failures() {
        let g = hypercube(6);
        let cfg = TrialConfig {
            max_trials: 24,
            ..Default::default()
        };
        let p0 = failure_point(&g, 0.0, FailureMetric::MeanDistance, &cfg, 3);
        let p3 = failure_point(&g, 0.3, FailureMetric::MeanDistance, &cfg, 3);
        assert!(p3.mean > p0.mean);
    }

    #[test]
    fn bisection_metric_under_failures_decreases() {
        let g = hypercube(6);
        let cfg = TrialConfig {
            max_trials: 16,
            ..Default::default()
        };
        let p0 = failure_point(&g, 0.0, FailureMetric::BisectionBandwidth, &cfg, 3);
        let p4 = failure_point(&g, 0.4, FailureMetric::BisectionBandwidth, &cfg, 3);
        assert!(p4.mean < p0.mean);
    }

    #[test]
    fn sweep_returns_one_point_per_proportion() {
        let g = complete_graph(12);
        let cfg = TrialConfig {
            max_trials: 12,
            ..Default::default()
        };
        let pts = failure_sweep(&g, &[0.0, 0.2, 0.4], FailureMetric::Diameter, &cfg, 1);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].proportion, 0.0);
        assert!(pts[2].mean >= pts[0].mean);
    }
}
