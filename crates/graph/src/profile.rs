//! One-call structural profiling of a topology — the measurements behind Table I, Fig. 4
//! (lower-right), and the topology-comparison narrative of Section IV — and the closed list
//! of columns a structural table can name, the machine-room columns of Table II and Fig. 11
//! among them.

use crate::csr::CsrGraph;
use crate::metrics::{diameter_and_mean_distance, girth};
use crate::partition::bisection_bandwidth;
use crate::spectral::{spectral_bisection_lower_bound, spectral_summary};

/// Lanczos iterations behind the spectral columns (ample for every instance in the paper).
pub const LANCZOS_ITERS: usize = 100;
/// Random restarts of the bisection partitioner behind the bisection columns.
pub const BISECTION_RESTARTS: usize = 2;

/// One column of a structural table. [`profile_graph`] computes what the requested
/// [`Column::ALL`] columns need and nothing else; the [`Column::LAYOUT`] columns need a
/// machine-room placement ([`crate::layout`]) and a SkyWalk baseline besides the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// Number of routers.
    Routers,
    /// Router radix (max degree).
    Radix,
    /// Diameter in hops.
    Diameter,
    /// Mean shortest-path length over ordered pairs.
    MeanDistance,
    /// Girth (length of shortest cycle).
    Girth,
    /// Second-largest adjacency eigenvalue λ₂.
    Lambda2,
    /// Normalized Laplacian gap µ₁ = (k − λ₂)/k.
    Mu1,
    /// Whether the graph certifies as Ramanujan.
    Ramanujan,
    /// Spectral (Fiedler) lower bound µ₁·k·n/4 on bisection bandwidth.
    BisectionLower,
    /// Partitioner upper bound on bisection bandwidth.
    BisectionUpper,
    /// Partitioner upper bound divided by `n·k/2`.
    BisectionNormalized,
    /// Mean wire length in metres under the machine-room placement.
    WireMean,
    /// Longest wire in metres under the machine-room placement.
    WireMax,
    /// [`Column::WireMean`] of SkyWalk topologies of the same radix in the same room.
    SkywalkWireMean,
    /// [`Column::WireMax`] of SkyWalk topologies of the same radix in the same room.
    SkywalkWireMax,
    /// Links short enough for electrical cabling.
    LinksElectrical,
    /// Links that need optical cabling.
    LinksOptical,
    /// Switch-port power in watts (both ends of every link).
    PowerW,
    /// Switch-port power per unit of bisection bandwidth, mW per Gb/s.
    MwPerGbps,
    /// Mean end-to-end latency over a same-room SkyWalk's, at one switch latency.
    LatencyAvgVsSkywalk,
    /// Maximum end-to-end latency over a same-room SkyWalk's, at one switch latency.
    LatencyMaxVsSkywalk,
}

impl Column {
    /// Every column [`profile_graph`] computes, in Table-I order.
    pub const ALL: [Column; 11] = [
        Column::Routers,
        Column::Radix,
        Column::Diameter,
        Column::MeanDistance,
        Column::Girth,
        Column::Lambda2,
        Column::Mu1,
        Column::Ramanujan,
        Column::BisectionLower,
        Column::BisectionUpper,
        Column::BisectionNormalized,
    ];

    /// The machine-room columns: Table II's, then Fig. 11's.
    pub const LAYOUT: [Column; 10] = [
        Column::WireMean,
        Column::WireMax,
        Column::SkywalkWireMean,
        Column::SkywalkWireMax,
        Column::LinksElectrical,
        Column::LinksOptical,
        Column::PowerW,
        Column::MwPerGbps,
        Column::LatencyAvgVsSkywalk,
        Column::LatencyMaxVsSkywalk,
    ];

    /// The column's name in manifests and table headers.
    pub fn name(self) -> &'static str {
        match self {
            Column::Routers => "routers",
            Column::Radix => "radix",
            Column::Diameter => "diameter",
            Column::MeanDistance => "mean-distance",
            Column::Girth => "girth",
            Column::Lambda2 => "lambda2",
            Column::Mu1 => "mu1",
            Column::Ramanujan => "ramanujan",
            Column::BisectionLower => "bisection-lower",
            Column::BisectionUpper => "bisection-upper",
            Column::BisectionNormalized => "bisection-normalized",
            Column::WireMean => "wire-mean",
            Column::WireMax => "wire-max",
            Column::SkywalkWireMean => "skywalk-wire-mean",
            Column::SkywalkWireMax => "skywalk-wire-max",
            Column::LinksElectrical => "links-electrical",
            Column::LinksOptical => "links-optical",
            Column::PowerW => "power-w",
            Column::MwPerGbps => "mw-per-gbps",
            Column::LatencyAvgVsSkywalk => "latency-avg-vs-skywalk",
            Column::LatencyMaxVsSkywalk => "latency-max-vs-skywalk",
        }
    }
}

/// The structural profile of a topology. A field is `None` when no requested column
/// needed it, or when it is undefined: distances on a disconnected graph, girth on a
/// forest, the spectral fields on an irregular graph.
#[derive(Clone, Debug)]
pub struct StructuralProfile {
    /// Number of routers.
    pub routers: usize,
    /// Router radix (max degree).
    pub radix: usize,
    /// Whether the graph is regular.
    pub regular: bool,
    /// Diameter in hops.
    pub diameter: Option<u32>,
    /// Mean shortest-path length over ordered pairs.
    pub mean_distance: Option<f64>,
    /// Girth (length of shortest cycle).
    pub girth: Option<u32>,
    /// Second-largest adjacency eigenvalue λ₂.
    pub lambda2: Option<f64>,
    /// Normalized Laplacian gap µ₁ = (k − λ₂)/k.
    pub mu1: Option<f64>,
    /// Whether the graph certifies as Ramanujan.
    pub ramanujan: Option<bool>,
    /// Partitioner upper bound on bisection bandwidth (links crossing the best found cut).
    pub bisection_upper: Option<u64>,
    /// Spectral (Fiedler) lower bound µ₁·k·n/4.
    pub bisection_lower: Option<f64>,
    /// Normalized bisection bandwidth: upper bound divided by `n·k/2`.
    pub normalized_bisection: Option<f64>,
}

/// Profile a topology: the all-pairs sweep, the girth search, the spectrum and the
/// partitioner each run only when one of `columns` reads them. `seed` drives the Lanczos
/// start vector and the partitioner.
pub fn profile_graph(g: &CsrGraph, columns: &[Column], seed: u64) -> StructuralProfile {
    use Column::*;
    let wants = |needed: &[Column]| needed.iter().any(|c| columns.contains(c));
    let (routers, radix) = (g.num_vertices(), g.max_degree());
    let regular = g.regular_degree().is_some();
    let distances = wants(&[Diameter, MeanDistance])
        .then(|| diameter_and_mean_distance(g))
        .flatten();
    let spectrum = (regular && wants(&[Lambda2, Mu1, Ramanujan, BisectionLower]))
        .then(|| spectral_summary(g, LANCZOS_ITERS, seed));
    let mu1 = spectrum.as_ref().map(|s| s.mu1);
    let bisection_upper = wants(&[BisectionUpper, BisectionNormalized])
        .then(|| bisection_bandwidth(g, BISECTION_RESTARTS, seed));
    StructuralProfile {
        routers,
        radix,
        regular,
        diameter: distances.map(|(d, _)| d),
        mean_distance: distances.map(|(_, m)| m),
        girth: wants(&[Girth]).then(|| girth(g)).flatten(),
        lambda2: spectrum.as_ref().map(|s| s.lambda2),
        mu1,
        ramanujan: spectrum.as_ref().map(|s| s.ramanujan),
        bisection_upper,
        bisection_lower: mu1.map(|m| spectral_bisection_lower_bound(routers, radix, m)),
        normalized_bisection: bisection_upper
            .map(|upper| upper as f64 / (routers as f64 * radix as f64 / 2.0)),
    }
}

impl StructuralProfile {
    /// The value under `column` as a number (`ramanujan` as 1 / 0), if it was computed
    /// and is defined; `None` for a [`Column::LAYOUT`] column.
    pub fn value(&self, column: Column) -> Option<f64> {
        match column {
            Column::Routers => Some(self.routers as f64),
            Column::Radix => Some(self.radix as f64),
            Column::Diameter => self.diameter.map(f64::from),
            Column::MeanDistance => self.mean_distance,
            Column::Girth => self.girth.map(f64::from),
            Column::Lambda2 => self.lambda2,
            Column::Mu1 => self.mu1,
            Column::Ramanujan => self.ramanujan.map(|r| u8::from(r) as f64),
            Column::BisectionLower => self.bisection_lower,
            Column::BisectionUpper => self.bisection_upper.map(|b| b as f64),
            Column::BisectionNormalized => self.normalized_bisection,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn petersen() -> CsrGraph {
        // The Petersen graph: 10 vertices, 3-regular, diameter 2, girth 5.
        let outer = (0..5).map(|i| (i, (i + 1) % 5));
        let inner = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5));
        let spokes = (0..5).map(|i| (i, i + 5));
        let edges: Vec<(u32, u32)> = outer.chain(inner).chain(spokes).collect();
        CsrGraph::from_edges(10, &edges)
    }

    #[test]
    fn every_column_on_petersen() {
        let p = profile_graph(&petersen(), &Column::ALL, 7);
        assert_eq!((p.routers, p.radix, p.regular), (10, 3, true));
        assert_eq!((p.diameter, p.girth), (Some(2), Some(5)));
        // Each vertex has 3 at distance 1, 6 at distance 2 -> 15/9.
        assert!((p.mean_distance.unwrap() - 15.0 / 9.0).abs() < 1e-12);
        // Spectrum {3, 1^5, (-2)^4}: λ₂ = 1, µ₁ = 2/3, |λ| = 2 ≤ 2√2.
        assert!((p.lambda2.unwrap() - 1.0).abs() < 1e-6);
        assert!((p.mu1.unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(p.ramanujan, Some(true));
        let (lower, upper) = (p.bisection_lower.unwrap(), p.bisection_upper.unwrap());
        assert!(
            (lower - 5.0).abs() < 1e-5 && upper >= 5,
            "[{lower}, {upper}]"
        );
        let normalized = p.normalized_bisection.unwrap();
        assert!(normalized > 0.0 && normalized <= 1.0);
        assert_eq!(normalized, upper as f64 / 15.0);
        let names: Vec<&str> = Column::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names[3], "mean-distance");
        assert!(Column::ALL.iter().all(|&c| p.value(c).is_some()));
    }

    #[test]
    fn undefined_columns_are_none_not_a_panic() {
        // Two triangles: regular, disconnected. A path: a connected forest, irregular.
        let triangles = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let p = profile_graph(&triangles, &Column::ALL, 7);
        assert_eq!(
            (p.diameter, p.mean_distance, p.girth),
            (None, None, Some(3))
        );
        assert!(p.mu1.is_some() && p.bisection_upper == Some(0));
        let path = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = profile_graph(&path, &Column::ALL, 7);
        assert_eq!((p.diameter, p.girth, p.regular), (Some(3), None, false));
        assert!(p.lambda2.is_none() && p.mu1.is_none() && p.ramanujan.is_none());
        assert!(p.bisection_lower.is_none() && p.bisection_upper == Some(1));
    }
}
