//! `spectralfly_graph::profile_graph` against the paper's Table I rows. The
//! function lives in the graph crate; its reference instances are built here,
//! where the generators are.

use spectralfly_graph::{profile_graph, Column};
use spectralfly_topology::lps::LpsGraph;
use spectralfly_topology::slimfly::SlimFlyGraph;
use spectralfly_topology::Topology;

#[test]
fn lps_11_7_profile_matches_table1_row() {
    // Table I row: LPS(11,7): 168 routers, radix 12, diam 3, dist 2.39, girth 3, mu1 0.50.
    let lps = LpsGraph::new(11, 7).unwrap();
    let prof = profile_graph(lps.graph(), &Column::ALL, 0xC0FFEE);
    assert_eq!(prof.routers, 168);
    assert_eq!(prof.radix, 12);
    assert_eq!(prof.diameter, Some(3));
    assert!((prof.mean_distance.unwrap() - 2.39).abs() < 0.02);
    assert_eq!(prof.girth, Some(3));
    let mu1 = prof.mu1.unwrap();
    assert!((mu1 - 0.50).abs() < 0.03, "mu1 = {mu1}");
    assert_eq!(prof.ramanujan, Some(true));
    // Bisection bracket is consistent: lower bound <= upper bound.
    assert!(prof.bisection_lower.unwrap() <= prof.bisection_upper.unwrap() as f64 + 1e-9);
    // Every column reads back as the number a table prints.
    assert_eq!(prof.value(Column::Routers), Some(168.0));
    assert_eq!(prof.value(Column::Ramanujan), Some(1.0));
    assert_eq!(prof.value(Column::Mu1), prof.mu1);
}

#[test]
fn sf7_profile_matches_table1_row() {
    // Table I row: SF(7): 98 routers, radix 11, diam 2, dist 1.89, girth 3, mu1 0.62.
    let sf = SlimFlyGraph::new(7).unwrap();
    let prof = profile_graph(sf.graph(), &Column::ALL, 0xC0FFEE);
    assert_eq!(prof.routers, 98);
    assert_eq!(prof.radix, 11);
    assert_eq!(prof.diameter, Some(2));
    assert!((prof.mean_distance.unwrap() - 1.89).abs() < 0.02);
    let mu1 = prof.mu1.expect("SF(7) is regular");
    assert!((mu1 - 0.62).abs() < 0.05, "mu1 = {mu1}");
}

/// What used to be `ProfileConfig::skip_bisection`: a part runs only when a
/// requested column reads it.
#[test]
fn only_the_requested_columns_are_computed() {
    let lps = LpsGraph::new(3, 5).unwrap();
    let prof = profile_graph(lps.graph(), &[Column::Diameter], 1);
    assert_eq!((prof.routers, prof.radix, prof.diameter), (120, 4, Some(6)));
    assert!(
        prof.mean_distance.is_some(),
        "one sweep yields both distances"
    );
    assert!(prof.girth.is_none() && prof.mu1.is_none() && prof.ramanujan.is_none());
    assert!(prof.bisection_upper.is_none() && prof.normalized_bisection.is_none());
    assert_eq!(prof.value(Column::BisectionNormalized), None);
    // The spectral bound alone runs the spectrum, not the partitioner.
    let prof = profile_graph(lps.graph(), &[Column::BisectionLower], 1);
    assert!(prof.bisection_lower.is_some() && prof.bisection_upper.is_none());
    assert!(prof.diameter.is_none());
}
