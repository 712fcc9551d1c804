//! Exactness battery for the sub-quadratic path oracles on *real* topologies.
//!
//! The unit tests in `spectralfly_graph::oracle` prove the Cayley and landmark
//! oracles correct on synthetic Cayley graphs (hypercubes, cycles). This
//! battery closes the loop on the topologies the simulator actually routes on:
//!
//! * [`LpsGraph::cayley_oracle`] — the PGL₂/PSL₂ group translation — against
//!   the dense [`DistanceMatrix`], on both projective kinds;
//! * [`PaleyGraph::cayley_oracle`] — additive-group translation over prime
//!   *and* prime-power fields (q = 9 is the case plain integer subtraction
//!   gets wrong);
//! * [`LandmarkOracle`] on Jellyfish (no algebraic structure) and on
//!   fault-degraded graphs — the exact shape `SimNetwork::with_faults` demotes
//!   to when the dense matrix no longer fits.
//!
//! "Exact" means: identical distances AND identical minimal next-port sets
//! for every source/destination pair, plus a `max_distance_bound` that really
//! bounds the diameter.

use proptest::prelude::*;
use spectralfly_ff::pgl::ProjectiveKind;
use spectralfly_graph::failures::delete_random_edges;
use spectralfly_graph::metrics::bfs_distances;
use spectralfly_graph::{CsrGraph, DistanceMatrix, LandmarkOracle, PathOracle};
use spectralfly_topology::{JellyFishGraph, LpsGraph, PaleyGraph, Topology};

/// One pair against its expected answer: the distance and the minimal ports
/// must both agree.
fn assert_pair(
    g: &CsrGraph,
    oracle: &dyn PathOracle,
    (u, v): (u32, u32),
    (dist, ports): (u32, &[u16]),
    label: &str,
) {
    assert_eq!(
        u32::from(oracle.dist(g, u, v)),
        dist,
        "{label}: dist({u}, {v})"
    );
    // Stale contents: the query promises to clear the buffer first.
    let mut got = vec![0xAAAA; 3];
    oracle.min_ports(g, u, v, &mut got);
    assert_eq!(got, ports, "{label}: min_ports({u}, {v})");
}

/// All-pairs comparison of `oracle` against the dense BFS matrix on `g`.
fn assert_matches_dense(g: &CsrGraph, oracle: &dyn PathOracle, label: &str) {
    let dm = DistanceMatrix::try_from_graph(g).unwrap();
    let n = g.num_vertices() as u32;
    let mut ports = Vec::new();
    for u in 0..n {
        for v in 0..n {
            dm.min_next_ports_into(g, u, v, &mut ports);
            assert_pair(g, oracle, (u, v), (u32::from(dm.dist(u, v)), &ports), label);
        }
    }
    assert_eq!(oracle.n(), g.num_vertices(), "{label}: n()");
    assert!(
        oracle.max_distance_bound() >= dm.max_reachable_distance(),
        "{label}: max_distance_bound {} < true max distance {}",
        oracle.max_distance_bound(),
        dm.max_reachable_distance()
    );
}

/// The same comparison against BFS rows from `dsts` evenly spaced destinations
/// — every source toward each — for graphs where all pairs is too slow unoptimised.
fn assert_matches_bfs_rows(g: &CsrGraph, oracle: &dyn PathOracle, dsts: usize, label: &str) {
    let n = g.num_vertices();
    for dst in (0..n as u32).step_by(n / dsts) {
        let row = bfs_distances(g, dst);
        for u in 0..n as u32 {
            let d = row[u as usize];
            let ports: Vec<u16> = (0..g.degree(u) as u16)
                .filter(|&i| row[g.neighbors(u)[usize::from(i)] as usize] + 1 == d)
                .collect();
            assert_pair(g, oracle, (u, dst), (d, &ports), label);
        }
    }
}

/// LPS translation oracles are exact on both projective kinds. Legendre(p | q)
/// decides the group: (3,5) and (5,7) are non-residues (PGL₂, n = q³−q),
/// (11,7) is a residue (PSL₂, n = (q³−q)/2).
#[test]
fn lps_cayley_oracle_is_exact_on_both_projective_kinds() {
    for (p, q, kind) in [
        (3u64, 5u64, ProjectiveKind::Pgl),
        (5, 7, ProjectiveKind::Pgl),
        (11, 7, ProjectiveKind::Psl),
    ] {
        let lps = LpsGraph::new(p, q).expect("valid LPS parameters");
        assert_eq!(lps.kind(), kind, "LPS({p},{q})");
        let oracle = lps.cayley_oracle().expect("translation validates");
        assert_matches_dense(lps.graph(), &oracle, &format!("LPS({p},{q})"));
    }
}

/// Where the label and descent tables can go wrong that the small cases do
/// not reach. LPS(23,13): radix 24, a descent row of three bytes. LPS(5,13):
/// PGL₂ on 2,184 routers, so from every destination the translations range
/// over the whole group, the 156 classes of the `a = 0, b = 1` block included.
#[test]
fn lps_cayley_oracle_is_exact_past_one_descent_byte_and_in_the_a0_block() {
    for (p, q, kind) in [
        (23u64, 13u64, ProjectiveKind::Psl),
        (5, 13, ProjectiveKind::Pgl),
    ] {
        let lps = LpsGraph::new(p, q).expect("valid LPS parameters");
        assert_eq!(lps.kind(), kind, "LPS({p},{q})");
        let oracle = lps.cayley_oracle().expect("translation validates");
        assert_matches_bfs_rows(lps.graph(), &oracle, 32, &format!("LPS({p},{q})"));
    }
}

/// Paley translation oracles are exact over prime and prime-power fields.
/// q = 9 = 3² is the regression case: the group is (F₉, +), so the diff must
/// be field subtraction, not integer subtraction mod q.
#[test]
fn paley_cayley_oracle_is_exact_including_prime_power_fields() {
    // q = 157: radix 78, a descent row wider than one machine word.
    for q in [5u64, 9, 13, 17, 157] {
        let paley = PaleyGraph::new(q).expect("valid Paley parameter");
        let oracle = paley.cayley_oracle().expect("translation validates");
        assert_matches_dense(paley.graph(), &oracle, &format!("Paley({q})"));
    }
}

/// The landmark oracle is exact on Jellyfish — a topology with no algebraic
/// structure at all, where the Cayley route is unavailable and `Auto` policy
/// falls back to landmarks at scale.
#[test]
fn landmark_oracle_is_exact_on_jellyfish() {
    for (n, k, seed) in [(18usize, 3usize, 7u64), (24, 4, 11), (30, 5, 13)] {
        let jf = JellyFishGraph::new(n, k, seed).expect("valid Jellyfish parameters");
        let oracle = LandmarkOracle::build(jf.graph()).expect("non-empty graph");
        assert_matches_dense(jf.graph(), &oracle, &format!("Jellyfish({n},{k})"));
    }
}

/// The landmark oracle stays exact after fault injection — the shape a
/// degraded million-endpoint network takes when `with_faults` rebuilds the
/// oracle over the survivor graph (Cayley translation is invalid there, so
/// the fault path always demotes to dense-or-landmark). Deleting edges can
/// disconnect the graph; unreachable pairs must agree with the dense matrix
/// too. A starved cache (4-row floor) forces the eviction path.
#[test]
fn landmark_oracle_is_exact_on_fault_degraded_graphs() {
    let lps = LpsGraph::new(3, 5).expect("valid LPS parameters");
    let jf = JellyFishGraph::new(26, 4, 3).expect("valid Jellyfish parameters");
    for (name, g) in [("LPS(3,5)", lps.graph()), ("Jellyfish(26,4)", jf.graph())] {
        for proportion in [0.1, 0.35] {
            let degraded = delete_random_edges(g, proportion, 42);
            for cache_budget in [LandmarkOracle::DEFAULT_CACHE_BYTES, 16] {
                let oracle = LandmarkOracle::build_with(&degraded, 8, cache_budget)
                    .expect("non-empty graph");
                let label = format!("{name} minus {proportion} links, cache {cache_budget}");
                assert_matches_dense(&degraded, &oracle, &label);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized sweep: landmark oracles are exact on random regular graphs
    /// of any shape — any landmark count (including 1, fully ALT-bound
    /// dependent) and a starved cache that churns the eviction path.
    #[test]
    fn landmark_oracle_exact_on_random_jellyfish(
        n in 6usize..36,
        k in 3usize..6,
        seed in 0u64..u64::MAX,
        landmarks in 1usize..8,
        tiny_cache in 0u32..2,
    ) {
        prop_assume!(k < n && (n * k) % 2 == 0);
        let jf = JellyFishGraph::new(n, k, seed).expect("valid Jellyfish parameters");
        let budget = if tiny_cache == 1 { 16 } else { LandmarkOracle::DEFAULT_CACHE_BYTES };
        let oracle = LandmarkOracle::build_with(jf.graph(), landmarks, budget)
            .expect("non-empty graph");
        assert_matches_dense(
            jf.graph(),
            &oracle,
            &format!("Jellyfish({n},{k},{seed}) lm={landmarks}"),
        );
    }

    /// Randomized fault sweep: exactness survives arbitrary link deletion,
    /// including disconnecting cuts.
    #[test]
    fn landmark_oracle_exact_under_random_faults(
        seed in 0u64..u64::MAX,
        proportion in 0.0f64..0.5,
        landmarks in 1usize..6,
    ) {
        let jf = JellyFishGraph::new(20, 4, 17).expect("valid Jellyfish parameters");
        let degraded = delete_random_edges(jf.graph(), proportion, seed);
        let oracle = LandmarkOracle::build_with(&degraded, landmarks, 16)
            .expect("non-empty graph");
        assert_matches_dense(
            &degraded,
            &oracle,
            &format!("degraded Jellyfish seed={seed} prop={proportion}"),
        );
    }
}
