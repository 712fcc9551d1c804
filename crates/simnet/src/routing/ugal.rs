//! UGAL — Universal Globally-Adaptive Load-balanced routing, in its local (UGAL-L)
//! and global (UGAL-G) variants.
//!
//! Both make one decision at the source router: stay minimal, or detour through a
//! random intermediate à la Valiant. The decision compares congestion-weighted path
//! lengths, `cost = congestion × hops`; the variants differ only in the congestion
//! signal. UGAL-L sees the local output-queue depths; UGAL-G additionally sees the
//! downstream routers' buffer occupancy — the idealized global link-state the
//! literature grants UGAL-G.
//!
//! # Decision order
//!
//! The detour wins only when `cost_val +`
//! [`UGAL_THRESHOLD`] `< cost_min`, so the
//! source decision evaluates it only while it still can:
//!
//! 1. the minimal half: [`RoutingCtx::best_minimal_port`] toward the
//!    destination, `d_min` and `cost_min`;
//! 2. if `d_min + UGAL_THRESHOLD >= cost_min`, minimal — no sample drawn;
//! 3. otherwise sample the intermediate and read `d_val`, the detour's hop
//!    count; if `d_val + UGAL_THRESHOLD >= cost_min`, minimal;
//! 4. only then the minimal-port scan toward the intermediate and the
//!    comparison of the two costs.
//!
//! Both early returns give the port the full comparison would have given:
//! - every [`PathOracle`](spectralfly_graph::oracle::PathOracle) answers
//!   exact distances, so `d_val >= d_min` by the triangle inequality;
//! - congestion is never negative, so `cost_val >= d_val`;
//! - every term is a small integer held in an `f64`, so the comparisons are
//!   exact.
//!
//! The work skipped comes after the decision's last draw that can change its
//! result (the sampler's draw, two distance reads, the second scan and that
//! scan's tie draw), and the engine's per-decision generator is fresh for each
//! decision and dropped after it, so no later decision sees the difference.
//! The draw order is unchanged: the minimal scan's tie draw, then the
//! sampler's.

use super::{Router, RoutingCtx, RoutingState};
use crate::config::UGAL_THRESHOLD;
use spectralfly_graph::csr::VertexId;

/// The congestion estimate for sending through `port`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Signal {
    /// Local output-queue depth only.
    Local,
    /// Local queue depth plus the downstream router's total buffer occupancy.
    Global,
}

fn congestion(ctx: &RoutingCtx<'_>, port: usize, signal: Signal) -> f64 {
    let local = ctx.queue_len(port) as f64;
    match signal {
        Signal::Local => local,
        Signal::Global => local + ctx.router_occupancy(ctx.port_target(port)) as f64,
    }
}

/// Shared source-routing decision; per-hop behaviour after the decision is adaptive
/// minimal toward the current target.
fn ugal_route(ctx: &mut RoutingCtx<'_>, state: &mut RoutingState, signal: Signal) -> usize {
    let dst = ctx.dst();
    if ctx.hops() == 0 && state.intermediate.is_none() {
        let min_port = ctx.best_minimal_port(dst);
        let d_min = ctx.dist(ctx.router(), dst) as f64;
        let cost_min = (congestion(ctx, min_port, signal) + 1.0) * d_min;
        // `cost_val >= d_val >= d_min` (module docs): each early return below
        // settles a decision the detour could not have won.
        if d_min + UGAL_THRESHOLD >= cost_min {
            return min_port;
        }
        let Some(inter) = ctx.sample_intermediate() else {
            return min_port;
        };
        let d_val = detour_len(ctx, inter, dst);
        if d_val + UGAL_THRESHOLD >= cost_min {
            return min_port;
        }
        let val_port = ctx.best_minimal_port(inter);
        let cost_val = (congestion(ctx, val_port, signal) + 1.0) * d_val;
        if cost_val + UGAL_THRESHOLD < cost_min {
            state.intermediate = Some(inter);
            return val_port;
        }
        return min_port;
    }
    let target = state.current_target(dst);
    ctx.best_minimal_port(target)
}

fn detour_len(ctx: &RoutingCtx<'_>, inter: VertexId, dst: VertexId) -> f64 {
    ctx.dist(ctx.router(), inter) as f64 + ctx.dist(inter, dst) as f64
}

/// UGAL-L: at the source router, choose between the minimal path and a Valiant path
/// using local output-queue occupancy weighted by path length.
#[derive(Clone, Copy, Debug, Default)]
pub struct UgalL;

impl Router for UgalL {
    fn name(&self) -> &str {
        "ugal-l"
    }

    fn vcs_for_diameter(&self, diameter: u32) -> usize {
        2 * diameter as usize + 1
    }

    fn reads_remote_occupancy(&self) -> bool {
        false
    }

    fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
        ugal_route(ctx, state, Signal::Local)
    }
}

/// UGAL-G: like UGAL-L, but the congestion estimate adds the candidate next-hop
/// routers' total buffer occupancy — global queue state a real deployment would
/// obtain from link-state exchange, which this simulator reads directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct UgalG;

impl Router for UgalG {
    fn name(&self) -> &str {
        "ugal-g"
    }

    fn vcs_for_diameter(&self, diameter: u32) -> usize {
        2 * diameter as usize + 1
    }

    fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
        ugal_route(ctx, state, Signal::Global)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::routing::RouteScratch;
    use crate::SimNetwork;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use spectralfly_graph::CsrGraph;

    /// What the reference decision computed on its way to the port.
    #[derive(Debug)]
    struct Trace {
        d_min: f64,
        cost_min: f64,
        d_val: Option<f64>,
    }

    /// The source decision as it was before the early returns: it samples
    /// an intermediate, scans toward it and compares the two costs every
    /// time. Also reports the quantities the battery classifies paths by.
    fn reference_ugal_route(
        ctx: &mut RoutingCtx<'_>,
        state: &mut RoutingState,
        signal: Signal,
    ) -> (usize, Option<Trace>) {
        let dst = ctx.dst();
        if ctx.hops() == 0 && state.intermediate.is_none() {
            let min_port = ctx.best_minimal_port(dst);
            let d_min = ctx.dist(ctx.router(), dst) as f64;
            let cost_min = (congestion(ctx, min_port, signal) + 1.0) * d_min;
            let mut trace = Trace {
                d_min,
                cost_min,
                d_val: None,
            };
            if let Some(inter) = ctx.sample_intermediate() {
                let val_port = ctx.best_minimal_port(inter);
                let d_val = detour_len(ctx, inter, dst);
                trace.d_val = Some(d_val);
                let cost_val = (congestion(ctx, val_port, signal) + 1.0) * d_val;
                if cost_val + UGAL_THRESHOLD < cost_min {
                    state.intermediate = Some(inter);
                    return (val_port, Some(trace));
                }
            }
            return (min_port, Some(trace));
        }
        let target = state.current_target(dst);
        (ctx.best_minimal_port(target), None)
    }

    /// Which part of the source decision settled it, and whether a detour
    /// won within one threshold of an early return's bound — what shows each
    /// bound tight.
    #[derive(Clone, Copy, Debug)]
    enum Reach {
        BeforeSampling,
        AfterDetourLength,
        FullMinimal,
        FullDetour,
        DetourNearBeforeSampling,
        DetourNearAfterDetourLength,
    }

    fn reach(t: &Trace, detoured: bool) -> Vec<Reach> {
        let settles = |d: f64, bound: f64| d + bound >= t.cost_min;
        let mut reached = Vec::new();
        if settles(t.d_min, UGAL_THRESHOLD) {
            reached.push(Reach::BeforeSampling);
        } else if let Some(d_val) = t.d_val {
            reached.push(if settles(d_val, UGAL_THRESHOLD) {
                Reach::AfterDetourLength
            } else if detoured {
                Reach::FullDetour
            } else {
                Reach::FullMinimal
            });
        }
        if detoured && settles(t.d_min, 2.0 * UGAL_THRESHOLD) {
            reached.push(Reach::DetourNearBeforeSampling);
        }
        if detoured && t.d_val.is_some_and(|d| settles(d, 2.0 * UGAL_THRESHOLD)) {
            reached.push(Reach::DetourNearAfterDetourLength);
        }
        reached
    }

    fn edges_graph(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> CsrGraph {
        CsrGraph::from_edges(n, &edges.collect::<Vec<_>>())
    }

    fn hypercube(dim: u32) -> CsrGraph {
        let n = 1u32 << dim;
        edges_graph(
            n as usize,
            (0..n).flat_map(move |v| (0..dim).map(move |b| (v, v ^ (1 << b)))),
        )
    }

    /// A 4-regular graph on `n` routers: the union of two random Hamiltonian
    /// cycles, redrawn until they share no edge (connected by construction).
    fn random_regular(n: usize, seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        loop {
            let mut edges = Vec::new();
            for _ in 0..2 {
                let mut order: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    order.swap(i, rng.gen_range(0..i + 1));
                }
                edges.extend((0..n).map(|i| (order[i], order[(i + 1) % n])));
            }
            let g = CsrGraph::from_edges(n, &edges);
            if (0..n as u32).all(|v| g.degree(v) == 4) {
                return g;
            }
        }
    }

    /// The battery's networks: a ring, a hypercube, a random regular graph,
    /// `K(4,4)` (every same-side pair two hops apart over four shortest
    /// paths, so a tie-broken minimal port often sits beside an idle detour
    /// of the same length), and a hypercube with a quarter of its links cut,
    /// whose intermediates come from the source's surviving component.
    fn networks() -> Vec<SimNetwork> {
        let ring = edges_graph(12, (0..12u32).map(|i| (i, (i + 1) % 12)));
        let bipartite = edges_graph(8, (0..4u32).flat_map(|u| (4..8).map(move |v| (u, v))));
        let plan = FaultPlan::parse("links(0.25)").unwrap().with_seed(11);
        let faulted = SimNetwork::with_faults(hypercube(6), 1, &plan).unwrap();
        assert!(faulted.component_peers(0).is_some());
        vec![
            SimNetwork::new(ring, 1),
            SimNetwork::new(hypercube(5), 1),
            SimNetwork::new(random_regular(40, 7), 1),
            SimNetwork::new(bipartite, 1),
            faulted,
        ]
    }

    /// `decisions` source and transit decisions on `net` under `signal`,
    /// each made by the reference and by [`ugal_route`] from the same inputs
    /// and identically seeded generators. Queue depths are mostly zero
    /// (`heavy` false) or spread over `0..16` (`heavy` true). Returns how
    /// many source decisions reached each [`Reach`], or the first
    /// divergence.
    fn compare(
        net: &SimNetwork,
        signal: Signal,
        heavy: bool,
        seed: u64,
        decisions: usize,
    ) -> Result<[usize; 6], String> {
        let num_vcs = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = |rng: &mut StdRng| -> u32 {
            match (heavy, rng.gen_range(0..8)) {
                (true, _) => rng.gen_range(0..16),
                (false, 0..=3) => 0,
                (false, 4 | 5) => 1,
                (false, _) => rng.gen_range(2..5),
            }
        };
        let link_qlen: Vec<u32> = (0..net.num_directed_links())
            .map(|_| depth(&mut rng))
            .collect();
        // Each router's buffered packets sit on one of its VCs.
        let mut occupancy = vec![0u32; net.num_routers() * num_vcs];
        for r in 0..net.num_routers() {
            occupancy[r * num_vcs + rng.gen_range(0..num_vcs)] = depth(&mut rng);
        }
        let router_occ: Vec<u32> = occupancy.chunks(num_vcs).map(|c| c.iter().sum()).collect();
        let mut scratch = RouteScratch::default();
        let mut reached = [0usize; 6];
        let all: Vec<VertexId> = (0..net.num_routers() as VertexId).collect();
        for _ in 0..decisions {
            let src = rng.gen_range(0..net.num_routers()) as VertexId;
            let reachable = net.component_peers(src).unwrap_or(&all);
            let peers: Vec<VertexId> = reachable.iter().copied().filter(|&r| r != src).collect();
            if peers.is_empty() {
                continue;
            }
            let dst = peers[rng.gen_range(0..peers.len())];
            // One decision in four is a transit hop or a pending detour.
            let (hops, start) = match rng.gen_range(0..8) {
                0 => (1, RoutingState::default()),
                1 => {
                    let intermediate = Some(peers[rng.gen_range(0..peers.len())]);
                    (rng.gen_range(0..2), RoutingState { intermediate })
                }
                _ => (0, RoutingState::default()),
            };
            if start.intermediate == Some(dst) {
                continue;
            }
            let decision_seed = rng.next_u64();
            let mut decide = |new: bool| {
                let mut state = start.clone();
                let mut draws = StdRng::seed_from_u64(decision_seed);
                let mut ctx = RoutingCtx::new(
                    net,
                    &link_qlen,
                    &occupancy,
                    &router_occ,
                    num_vcs,
                    src,
                    dst,
                    hops,
                    &mut draws,
                    &mut scratch,
                );
                let (port, trace) = match new {
                    true => (ugal_route(&mut ctx, &mut state, signal), None),
                    false => reference_ugal_route(&mut ctx, &mut state, signal),
                };
                (port, state, trace)
            };
            let (want_port, want_state, trace) = decide(false);
            let (port, state, _) = decide(true);
            if (port, &state) != (want_port, &want_state) {
                return Err(format!(
                    "{signal:?} at {src} -> {dst} (hops {hops}, from {start:?}): \
                     port {port} and {state:?}, the reference {want_port} and \
                     {want_state:?} ({trace:?})"
                ));
            }
            let detoured = want_state.intermediate.is_some() && start.intermediate.is_none();
            for r in trace.iter().flat_map(|t| reach(t, detoured)) {
                reached[r as usize] += 1;
            }
        }
        Ok(reached)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The early returns change no decision: UGAL-L and UGAL-G, on every
        /// battery network, under idle-leaning and loaded queues, give the
        /// reference's port and routing state.
        #[test]
        fn early_returns_match_the_full_comparison(
            which in 0usize..5,
            global in 0usize..2,
            heavy in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            let net = &networks()[which];
            let signal = [Signal::Local, Signal::Global][global];
            let outcome = compare(net, signal, heavy == 1, seed, 200).map(|_| ());
            proptest::prop_assert_eq!(outcome, Ok(()));
        }
    }

    /// The battery reaches every way a source decision settles, under both
    /// signals: before sampling, after the detour length, and the full
    /// comparison picking each side. It also holds detours that won within
    /// one threshold of an early return's bound, so a wider bound fails it.
    /// Under UGAL-L no detour wins that near the first bound: `cost_min =
    /// d_min + 2` needs `d_min = 2` and a minimal-port queue of 1 (at
    /// `d_min = 1` no detour is short enough), and a detour of length 2 leaves
    /// through an idle port on a shortest path, which the minimal scan would
    /// have picked instead.
    #[test]
    fn battery_reaches_every_path() {
        for signal in [Signal::Local, Signal::Global] {
            let mut reached = [0usize; 6];
            for (i, net) in networks().iter().enumerate() {
                for heavy in [false, true] {
                    let counts = compare(net, signal, heavy, i as u64, 2000).unwrap();
                    for (total, n) in reached.iter_mut().zip(counts) {
                        *total += n;
                    }
                }
            }
            if signal == Signal::Local {
                assert_eq!(reached[Reach::DetourNearBeforeSampling as usize], 0);
                reached[Reach::DetourNearBeforeSampling as usize] = 1;
            }
            assert!(reached.iter().all(|&n| n > 0), "{signal:?}: {reached:?}");
        }
    }
}
