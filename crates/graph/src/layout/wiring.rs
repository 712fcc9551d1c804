//! Wire-length statistics and electrical/optical link classification (Table II columns).

use crate::csr::CsrGraph;
use crate::layout::qap::Placement;

/// Maximum cable length (metres) that can be driven electrically; longer runs need optics.
/// Passive copper DAC cables for 100 Gb/s-class links top out around 5 m.
pub const DEFAULT_ELECTRICAL_LIMIT_M: f64 = 5.0;

/// Wire-length statistics of a placed topology.
#[derive(Clone, Debug)]
pub struct WiringStats {
    /// Number of links.
    pub links: usize,
    /// Mean wire length (metres).
    pub mean_wire_m: f64,
    /// Maximum wire length (metres).
    pub max_wire_m: f64,
    /// Total wire length (metres).
    pub total_wire_m: f64,
    /// Links short enough for electrical cabling.
    pub electrical_links: usize,
    /// Links requiring optical cabling.
    pub optical_links: usize,
}

/// Classify every link of `g` under `placement` into electrical vs optical using
/// `electrical_limit_m`, and aggregate the length statistics.
pub fn classify_links(g: &CsrGraph, placement: &Placement, electrical_limit_m: f64) -> WiringStats {
    let lengths = placement.link_lengths_m(g);
    let links = lengths.len();
    if links == 0 {
        return WiringStats {
            links: 0,
            mean_wire_m: 0.0,
            max_wire_m: 0.0,
            total_wire_m: 0.0,
            electrical_links: 0,
            optical_links: 0,
        };
    }
    let total: f64 = lengths.iter().sum();
    let max = lengths.iter().cloned().fold(0.0f64, f64::max);
    let electrical = lengths.iter().filter(|&&l| l <= electrical_limit_m).count();
    WiringStats {
        links,
        mean_wire_m: total / links as f64,
        max_wire_m: max,
        total_wire_m: total,
        electrical_links: electrical,
        optical_links: links - electrical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::qap::{place_topology, QapConfig};

    fn ring(n: usize) -> CsrGraph {
        let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        e.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &e)
    }

    #[test]
    fn stats_are_consistent() {
        let g = ring(32);
        let p = place_topology(
            &g,
            &QapConfig {
                anneal_iters: 5000,
                ..Default::default()
            },
        );
        let s = classify_links(&g, &p, DEFAULT_ELECTRICAL_LIMIT_M);
        assert_eq!(s.links, 32);
        assert_eq!(s.electrical_links + s.optical_links, s.links);
        assert!(s.mean_wire_m <= s.max_wire_m);
        assert!((s.total_wire_m - s.mean_wire_m * s.links as f64).abs() < 1e-6);
        assert!((s.total_wire_m - p.total_wire_m).abs() < 1e-6);
    }

    #[test]
    fn tight_limit_forces_all_optical() {
        let g = ring(20);
        let p = place_topology(
            &g,
            &QapConfig {
                anneal_iters: 2000,
                ..Default::default()
            },
        );
        let s = classify_links(&g, &p, 0.1);
        assert_eq!(s.electrical_links, 0);
        assert_eq!(s.optical_links, 20);
        // And a huge limit makes everything electrical.
        let s2 = classify_links(&g, &p, 1e6);
        assert_eq!(s2.optical_links, 0);
    }

    #[test]
    fn intra_cabinet_links_count_as_electrical() {
        let g = ring(16);
        let p = place_topology(
            &g,
            &QapConfig {
                anneal_iters: 5000,
                ..Default::default()
            },
        );
        let s = classify_links(&g, &p, DEFAULT_ELECTRICAL_LIMIT_M);
        // The perfect-matching pairs give at least 8 two-metre links.
        assert!(s.electrical_links >= 8);
    }
}
