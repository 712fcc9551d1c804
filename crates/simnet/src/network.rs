//! The simulated network: router graph, endpoint concentration, directed-link indexing,
//! and shortest-path routing state behind the [`PathOracle`] trait — the same oracle
//! tier the analytical layer uses, so the simulator and the analysis can never
//! disagree about paths.
//!
//! Every oracle is exact, so which one backs a network is derived, never
//! configured. [`SimNetwork::new`] builds the dense
//! [`spectralfly_graph::paths::DistanceMatrix`] while it fits its
//! [`spectralfly_graph::paths::DistanceMatrix::MAX_VERTICES`] index space,
//! and the O(k·n) [`spectralfly_graph::LandmarkOracle`] past it. A topology
//! that knows its group injects the O(n) [`spectralfly_graph::CayleyOracle`]
//! through [`SimNetwork::with_oracle`] (`LpsGraph::cayley_oracle()`, which is
//! what carries million-router LPS fabrics). Faults break vertex transitivity,
//! so [`SimNetwork::with_faults`] builds through [`SimNetwork::new`] over the
//! degraded graph and never keeps a Cayley oracle — the demotion the routing
//! correctness argument requires. Whatever the representation,
//! [`SimNetwork::minimal_ports_packed`] hides it behind a caller-owned `u16`
//! buffer, so the hot path stays allocation-free across the whole tier.

use crate::fault::{AppliedFaults, FaultError, FaultPlan};
use spectralfly_graph::csr::{CsrGraph, VertexId};
use spectralfly_graph::metrics::label_components;
use spectralfly_graph::oracle::{DenseOracle, LandmarkOracle, OracleKind, PathOracle};
use std::sync::Arc;

/// Fault metadata of a degraded network: which routers are administratively
/// down, and the connected-component structure of the surviving graph (used by
/// the Valiant intermediate sampler and the run-start feasibility checks).
#[derive(Clone, Debug)]
struct NetworkFaults {
    /// Administrative down mask, indexed by router id.
    down: Vec<bool>,
    /// Connected-component id per router (over the degraded graph).
    comp_of: Vec<u32>,
    /// Members of each component, ascending. Down routers are isolated, so
    /// they form singleton components and never appear in an alive component.
    comp_members: Vec<Vec<VertexId>>,
    /// Number of components containing at least one alive router.
    alive_components: usize,
    /// The fault-plan spec that produced this damage.
    spec: String,
}

impl NetworkFaults {
    /// Label the degraded graph's connected components.
    fn new(graph: &CsrGraph, down: Vec<bool>, spec: String) -> Self {
        let mut comp_of = Vec::new();
        let count = label_components(graph, |_| true, |_, _| true, &mut comp_of);
        let mut comp_members: Vec<Vec<VertexId>> = vec![Vec::new(); count];
        for (v, &c) in comp_of.iter().enumerate() {
            comp_members[c as usize].push(v as VertexId);
        }
        let mut alive_seen = vec![false; comp_members.len()];
        let mut alive_components = 0usize;
        for (r, &d) in down.iter().enumerate() {
            let cid = comp_of[r] as usize;
            if !d && !alive_seen[cid] {
                alive_seen[cid] = true;
                alive_components += 1;
            }
        }
        NetworkFaults {
            down,
            comp_of,
            comp_members,
            alive_components,
            spec,
        }
    }
}

/// A network instance fed to the simulator: a router graph plus endpoint concentration.
///
/// Directed links are indexed contiguously: link `(u, i)` is the `i`-th entry of `u`'s
/// neighbour list, with a global id `link_offset[u] + i`.
#[derive(Clone, Debug)]
pub struct SimNetwork {
    graph: CsrGraph,
    concentration: usize,
    /// Prefix offsets into the directed-link index space.
    link_offset: Vec<usize>,
    /// link id → (owning router, port): the inverse of `link_id`, precomputed so
    /// the engines' transmit path is a table read instead of a binary search.
    link_owner: Vec<(VertexId, u32)>,
    /// The path oracle every distance / minimal-port query routes through
    /// (`Arc` so clones of the network share rather than recompute it).
    oracle: Arc<dyn PathOracle>,
    /// [`PathOracle::max_distance_bound`] cached at construction, so
    /// [`SimNetwork::diameter`] is a field read instead of (for the dense
    /// oracle) an O(n²) rescan per call.
    max_dist: u16,
    /// Fault metadata when the network was built over a degraded graph
    /// ([`SimNetwork::with_faults`]); `None` for pristine networks, so every
    /// fault-aware query short-circuits to the pristine answer.
    faults: Option<Arc<NetworkFaults>>,
    n: usize,
}

impl SimNetwork {
    /// Build a network from a router graph and a per-router endpoint count (≥ 1):
    /// dense-backed while the distance matrix fits its index space, landmark-backed
    /// past it. A plain graph carries no group structure, so a Cayley oracle comes
    /// from the topology layer through [`SimNetwork::with_oracle`].
    ///
    /// # Panics
    /// If `concentration` is 0 or a router has more than 65,536 ports: a
    /// caller contract, since the routing layers carry port ids as `u16`.
    pub fn new(graph: CsrGraph, concentration: usize) -> Self {
        // The dense oracle fails only past its vertex wall, where the graph is
        // non-empty — all a landmark oracle needs.
        let oracle: Arc<dyn PathOracle> = match DenseOracle::build(&graph) {
            Ok(dense) => Arc::new(dense),
            Err(_) => Arc::new(LandmarkOracle::build(&graph).expect("a non-empty graph")),
        };
        Self::assemble(graph, concentration, oracle)
    }

    /// Build a network around a caller-constructed oracle — the injection
    /// point for [`spectralfly_graph::CayleyOracle`]s built by the topology
    /// layer, and for landmark oracles with tuned parameters.
    ///
    /// # Panics
    /// If the oracle was not built over exactly `graph`'s vertex count,
    /// `concentration` is 0, or a router has more than 65,536 ports: caller
    /// contracts, since a mismatched oracle would answer for another graph
    /// and the routing layers carry port ids as `u16`.
    pub fn with_oracle(graph: CsrGraph, concentration: usize, oracle: Arc<dyn PathOracle>) -> Self {
        Self::assemble(graph, concentration, oracle)
    }

    /// The shared tail of every constructor: link indexing + oracle caching.
    /// Port ids are `u16` from the oracle down to the routing context, so this
    /// is where the radix is checked, once per network.
    fn assemble(graph: CsrGraph, concentration: usize, oracle: Arc<dyn PathOracle>) -> Self {
        assert!(concentration >= 1, "concentration must be at least 1");
        let n = graph.num_vertices();
        assert_eq!(
            oracle.n(),
            n,
            "oracle is over {} routers but the graph has {n}",
            oracle.n()
        );
        let radix = graph.max_degree();
        assert!(
            radix <= usize::from(u16::MAX) + 1,
            "a router has {radix} ports; port ids are u16 (at most 65536 ports)"
        );
        let mut link_offset = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        link_offset.push(0);
        for v in 0..n {
            acc += graph.degree(v as VertexId);
            link_offset.push(acc);
        }
        let mut link_owner = Vec::with_capacity(acc);
        for v in 0..n {
            for p in 0..graph.degree(v as VertexId) {
                link_owner.push((v as VertexId, p as u32));
            }
        }
        let max_dist = oracle.max_distance_bound();
        SimNetwork {
            graph,
            concentration,
            link_offset,
            link_owner,
            oracle,
            max_dist,
            faults: None,
            n,
        }
    }

    /// Build a network over the topology left by a fault plan: apply `plan` to
    /// `graph`, rebuild the path oracle over the **surviving** graph, and
    /// record the damage so the engines can reject infeasible workloads with a
    /// [`FaultError`] instead of hanging.
    ///
    /// The degraded oracle is never Cayley: faults break the vertex
    /// transitivity the translation trick depends on, so the network is built
    /// by [`SimNetwork::new`] — dense or landmark — regardless of what the
    /// pristine network used: the automatic Cayley→landmark demotion.
    ///
    /// With [`FaultPlan::none`] (or any plan that happens to remove nothing)
    /// this is exactly [`SimNetwork::new`] — same construction path, no fault
    /// metadata — so fault-free simulation stays bit-identical.
    pub fn with_faults(
        graph: CsrGraph,
        concentration: usize,
        plan: &FaultPlan,
    ) -> Result<Self, FaultError> {
        let applied = plan.apply(&graph)?;
        if applied.is_pristine() {
            return Ok(Self::new(graph, concentration));
        }
        let AppliedFaults {
            graph,
            down_routers,
            spec,
            removed_links: _,
            any_down: _,
        } = applied;
        let faults = Arc::new(NetworkFaults::new(&graph, down_routers, spec));
        let mut net = Self::new(graph, concentration);
        net.faults = Some(faults);
        Ok(net)
    }

    /// This network, unchanged: a dense minimal-port query is always the
    /// distance-matrix scan, so there is no next-hop table to drop. Kept only
    /// because the repo benchmark still calls it.
    pub fn without_next_hop_table(self) -> Self {
        self
    }

    /// The router graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Which oracle representation backs this network.
    pub fn oracle_kind(&self) -> OracleKind {
        self.oracle.kind()
    }

    /// Resident bytes held by the path oracle (`graph.oracle.bytes_*` in the
    /// repo benchmark).
    pub fn oracle_memory_bytes(&self) -> usize {
        self.oracle.memory_bytes()
    }

    /// Endpoints per router.
    pub fn concentration(&self) -> usize {
        self.concentration
    }

    /// Whether this network was built over a degraded graph (a fault plan that
    /// actually removed something).
    #[inline]
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// The fault-plan spec this network was degraded by, if any.
    pub fn fault_spec(&self) -> Option<&str> {
        self.faults.as_ref().map(|f| f.spec.as_str())
    }

    /// Whether a router is up (always true on pristine networks). A down
    /// router keeps its vertex id but has no links and dead endpoints.
    #[inline]
    pub fn router_alive(&self, router: VertexId) -> bool {
        match &self.faults {
            None => true,
            Some(f) => !f.down[router as usize],
        }
    }

    /// Whether an endpoint's router is up (always true on pristine networks).
    #[inline]
    pub fn endpoint_alive(&self, endpoint: usize) -> bool {
        self.router_alive(self.router_of_endpoint(endpoint))
    }

    /// Endpoint ids whose routers are up, ascending (all of them on a pristine
    /// network). The steady-state sources and the bench placements run traffic
    /// over exactly this set on degraded networks.
    pub fn alive_endpoints(&self) -> Vec<usize> {
        (0..self.num_endpoints())
            .filter(|&e| self.endpoint_alive(e))
            .collect()
    }

    /// Number of connected components of the surviving graph that contain at
    /// least one alive router (1 on a pristine network).
    pub fn alive_component_count(&self) -> usize {
        match &self.faults {
            None => 1,
            Some(f) => f.alive_components,
        }
    }

    /// The routers sharing `router`'s connected component on the surviving
    /// graph, ascending — `None` on pristine networks (every router qualifies).
    ///
    /// This is the Valiant intermediate candidate set on degraded networks:
    /// any member is reachable from `router` by construction, so detour
    /// routing never steers a packet at an unreachable intermediate.
    #[inline]
    pub(crate) fn component_peers(&self, router: VertexId) -> Option<&[VertexId]> {
        self.faults
            .as_ref()
            .map(|f| f.comp_members[f.comp_of[router as usize] as usize].as_slice())
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.n
    }

    /// Number of endpoints.
    pub fn num_endpoints(&self) -> usize {
        self.n * self.concentration
    }

    /// Number of directed links (twice the undirected edge count).
    pub fn num_directed_links(&self) -> usize {
        self.link_offset[self.n]
    }

    /// Router serving an endpoint.
    #[inline]
    pub fn router_of_endpoint(&self, endpoint: usize) -> VertexId {
        debug_assert!(endpoint < self.num_endpoints());
        (endpoint / self.concentration) as VertexId
    }

    /// Router distance in hops (`u16::MAX` if unreachable).
    #[inline]
    pub fn dist(&self, a: VertexId, b: VertexId) -> u16 {
        self.oracle.dist(&self.graph, a, b)
    }

    /// Topology diameter over routers, ignoring unreachable pairs (cached at
    /// construction). Exact on dense- and Cayley-backed networks; on landmark
    /// networks a tight upper bound (≤ 2× the true diameter), which is safe
    /// everywhere this is consumed — VC sizing and hop budgets only require
    /// "at least the longest minimal route".
    pub fn diameter(&self) -> u16 {
        self.max_dist
    }

    /// Global id of directed link `(router, port)`.
    #[inline]
    pub fn link_id(&self, router: VertexId, port: usize) -> usize {
        self.link_offset[router as usize] + port
    }

    /// The neighbour reached through `(router, port)`.
    #[inline]
    pub fn link_target(&self, router: VertexId, port: usize) -> VertexId {
        self.graph.neighbors(router)[port]
    }

    /// The directed link id carrying traffic from `u` to its neighbour `v`,
    /// or `None` if `{u, v}` is not a link of the surviving graph. A linear
    /// scan of `u`'s ports — this is fault-timeline resolution (cold path),
    /// not the per-hop hot path.
    pub fn directed_link_between(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.graph
            .neighbors(u)
            .iter()
            .position(|&w| w == v)
            .map(|port| self.link_id(u, port))
    }

    /// The `(router, port)` that owns a directed link — the inverse of
    /// [`Self::link_id`], as one table read.
    #[inline]
    pub fn link_owner(&self, link: usize) -> (VertexId, usize) {
        let (r, p) = self.link_owner[link];
        (r, p as usize)
    }

    /// Ports of `current` whose neighbour lies on a shortest path to `dst`,
    /// computed into `scratch` (cleared and refilled; allocation-free once
    /// grown to the radix — the landmark oracle may additionally BFS on a
    /// destination-row cache miss) and returned as a slice. The ports are
    /// ascending under every oracle, so callers' tie-breaks are
    /// representation-blind.
    #[inline]
    pub fn minimal_ports_packed<'s>(
        &self,
        current: VertexId,
        dst: VertexId,
        scratch: &'s mut Vec<u16>,
    ) -> &'s [u16] {
        self.oracle.min_ports(&self.graph, current, dst, scratch);
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use spectralfly_graph::paths::DistanceMatrix;

    fn ring(n: usize) -> CsrGraph {
        let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        e.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &e)
    }

    #[test]
    fn link_indexing_is_contiguous_and_unique() {
        let net = SimNetwork::new(ring(6), 2);
        let mut seen = std::collections::HashSet::new();
        for r in 0..6u32 {
            for p in 0..net.graph().degree(r) {
                assert!(seen.insert(net.link_id(r, p)));
            }
        }
        assert_eq!(seen.len(), net.num_directed_links());
        assert_eq!(net.num_directed_links(), 12);
    }

    #[test]
    fn endpoints_and_distances() {
        let net = SimNetwork::new(ring(8), 4);
        assert_eq!(net.num_endpoints(), 32);
        assert_eq!(net.router_of_endpoint(0), 0);
        assert_eq!(net.router_of_endpoint(31), 7);
        assert_eq!(net.dist(0, 4), 4);
        assert_eq!(net.diameter(), 4);
    }

    #[test]
    fn minimal_ports_point_toward_destination() {
        let net = SimNetwork::new(ring(8), 1);
        let mut scratch = Vec::new();
        let ports = net.minimal_ports_packed(0, 2, &mut scratch);
        assert_eq!(ports.len(), 1);
        assert_eq!(net.link_target(0, ports[0].into()), 1);
        // Antipodal destination: both directions are minimal.
        assert_eq!(net.minimal_ports_packed(0, 4, &mut scratch).len(), 2);
        assert!(net.minimal_ports_packed(3, 3, &mut scratch).is_empty());
    }

    #[test]
    fn simulator_and_analysis_share_one_oracle() {
        // The network's distance view must be the analytical DistanceMatrix itself.
        let g = ring(9);
        let net = SimNetwork::new(g.clone(), 1);
        let dm = DistanceMatrix::try_from_graph(&g).unwrap();
        let mut scratch = Vec::new();
        for a in 0..9u32 {
            for b in 0..9u32 {
                assert_eq!(net.dist(a, b), dm.dist(a, b));
                let ports: Vec<VertexId> = net
                    .minimal_ports_packed(a, b, &mut scratch)
                    .iter()
                    .map(|&p| net.link_target(a, p.into()))
                    .collect();
                assert_eq!(ports, dm.min_next_hops(&g, a, b));
            }
        }
    }

    #[test]
    fn pristine_network_answers_fault_queries_trivially() {
        let net = SimNetwork::new(ring(6), 2);
        assert!(!net.has_faults());
        assert_eq!(net.fault_spec(), None);
        assert!((0..6).all(|r| net.router_alive(r)));
        assert!((0..12).all(|e| net.endpoint_alive(e)));
        assert_eq!(net.alive_endpoints().len(), 12);
        assert_eq!(net.alive_component_count(), 1);
        assert!(net.component_peers(0).is_none());
    }

    #[test]
    fn none_plan_builds_a_pristine_network() {
        let net = SimNetwork::with_faults(ring(6), 2, &FaultPlan::none()).unwrap();
        assert!(!net.has_faults());
        // A plan whose damage is vacuous (absent link) is pristine too.
        let plan = FaultPlan::parse("link(0, 3)").unwrap();
        let net = SimNetwork::with_faults(ring(6), 2, &plan).unwrap();
        assert!(!net.has_faults());
    }

    #[test]
    fn down_router_isolates_and_reroutes() {
        let plan = FaultPlan::parse("router(3)").unwrap();
        let net = SimNetwork::with_faults(ring(8), 2, &plan).unwrap();
        assert!(net.has_faults());
        assert_eq!(net.fault_spec(), Some("router(3)"));
        assert!(!net.router_alive(3));
        assert!(!net.endpoint_alive(6) && !net.endpoint_alive(7));
        assert_eq!(net.alive_endpoints().len(), 14);
        // The survivors stay connected (the ring minus one vertex is a path);
        // distances reroute the long way around the hole.
        assert_eq!(net.alive_component_count(), 1);
        assert_eq!(net.dist(2, 4), 6);
        // The down router is its own singleton component; the alive component
        // holds the other 7 routers and excludes it.
        let peers = net.component_peers(0).unwrap();
        assert_eq!(peers.len(), 7);
        assert!(!peers.contains(&3));
        assert_eq!(net.component_peers(3).unwrap(), &[3]);
        // The oracle was rebuilt over the surviving graph: the down router is
        // unreachable, and its ports are gone.
        assert_eq!(net.dist(0, 3), spectralfly_graph::paths::UNREACHABLE_U16);
        assert_eq!(net.graph().degree(3), 0);
    }

    #[test]
    fn link_failures_fragmenting_the_graph_are_reported_as_components() {
        // Cut the 6-ring into two 3-paths.
        let plan = FaultPlan::parse("link(0,5) + link(2,3)").unwrap();
        let net = SimNetwork::with_faults(ring(6), 1, &plan).unwrap();
        assert_eq!(net.alive_component_count(), 2);
        // Everyone is administratively alive — the damage is pure link loss.
        assert!((0..6).all(|r| net.router_alive(r)));
        assert_eq!(net.component_peers(1).unwrap(), &[0, 1, 2]);
        assert_eq!(net.component_peers(4).unwrap(), &[3, 4, 5]);
        assert_eq!(net.dist(2, 3), spectralfly_graph::paths::UNREACHABLE_U16);
    }
}
