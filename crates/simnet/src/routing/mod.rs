//! The pluggable routing subsystem.
//!
//! Routing decisions are made by implementations of the [`Router`] trait, selected
//! by name through a string-keyed [`RouterRegistry`] — the routing family of the
//! one [`crate::spec::Registry`]. The engine is algorithm-
//! agnostic: for every packet that needs an output port it builds a [`RoutingCtx`]
//! (neighbour ports, queue occupancies, the shared distance oracle, and the run's
//! RNG), hands it to the configured router together with the packet's opaque
//! [`RoutingState`], and enqueues the packet on whatever port comes back.
//!
//! Built-in algorithms (Section V of the paper):
//!
//! | registry name | algorithm | VCs for diameter `d` |
//! |---------------|-----------|----------------------|
//! | `minimal`     | adaptive minimal ([`minimal::Minimal`]) | `d + 1` |
//! | `valiant`     | Valiant randomized ([`valiant::Valiant`]) | `2d + 1` |
//! | `ugal-l`      | UGAL with local queue state ([`ugal::UgalL`]) | `2d + 1` |
//! | `ugal-g`      | UGAL with global queue state ([`ugal::UgalG`]) | `2d + 1` |
//!
//! # Registering a custom algorithm
//!
//! A run resolves [`crate::SimConfig::routing`] against its own
//! [`crate::Registries`]: the built-ins plus what was added to that value.
//!
//! ```
//! use spectralfly_simnet::routing::{self, Router, RoutingCtx, RoutingState};
//! use spectralfly_simnet::{Registries, SimConfig};
//!
//! /// Always takes the first minimal port — non-adaptive minimal routing.
//! struct FirstMinimal;
//!
//! impl Router for FirstMinimal {
//!     fn name(&self) -> &str {
//!         "first-minimal"
//!     }
//!     fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
//!         let target = state.current_target(ctx.dst());
//!         usize::from(ctx.minimal_ports(target)[0])
//!     }
//! }
//!
//! let registries = Registries::default()
//!     .with_router("first-minimal", || Box::new(FirstMinimal))
//!     .unwrap();
//! assert!(registries.routing.names().contains(&"first-minimal".to_string()));
//!
//! // The new algorithm is selectable by name in every config built over
//! // these registries, and nowhere else:
//! let cfg = SimConfig::from(registries).with_routing("first-minimal", 3);
//! assert_eq!(cfg.num_vcs, 4);
//! assert!(routing::resolve("first-minimal").is_err());
//! ```

pub mod minimal;
pub mod ugal;
pub mod valiant;

use crate::network::SimNetwork;
use crate::spec::{DuplicateName, Family, Registry, ResolveError};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use spectralfly_graph::csr::VertexId;
use std::sync::{Arc, LazyLock};

pub use minimal::Minimal;
pub use ugal::{UgalG, UgalL};
pub use valiant::Valiant;

/// Per-packet routing state, threaded through the engine without inspection beyond
/// the two methods below.
///
/// The one field has engine-defined **detour semantics**: a stored router id means
/// "steer minimally toward this router before the destination" — the engine routes
/// toward it ([`RoutingState::current_target`]) and clears it on arrival
/// ([`RoutingState::note_arrival`]). Valiant and UGAL store their detour router in
/// it; single-detour custom algorithms can do the same. Algorithms needing richer
/// per-packet state (multi-leg detours, visited-set history) would need this struct
/// extended — by design it stays minimal, because it is cloned per packet.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingState {
    /// Intermediate router still to be visited (`None` once reached / not used).
    pub intermediate: Option<VertexId>,
}

impl RoutingState {
    /// Clear the intermediate target once the packet reaches it.
    #[inline]
    pub fn note_arrival(&mut self, router: VertexId) {
        if self.intermediate == Some(router) {
            self.intermediate = None;
        }
    }

    /// The router the packet is currently steering toward: the intermediate if one is
    /// pending, the destination otherwise.
    #[inline]
    pub fn current_target(&self, dst: VertexId) -> VertexId {
        self.intermediate.unwrap_or(dst)
    }
}

/// The reusable per-engine buffer the minimal-port query writes its `u16`
/// port ids into, so decisions stay allocation-free once it has grown to the
/// radix.
#[derive(Debug, Default)]
pub struct RouteScratch {
    ports: Vec<u16>,
}

/// Everything a routing decision may consult, snapshotted at decision time.
///
/// Wraps the network (neighbour ports and the shared distance oracle), the engine's
/// queue and buffer state, and the run's RNG.
pub struct RoutingCtx<'a> {
    net: &'a SimNetwork,
    /// Per-link output-queue depths, maintained incrementally by the engine —
    /// one flat array a router's ports read as a slice. (The queues
    /// themselves are FIFOs threaded through the packet arena, whose length
    /// only a walk could tell.)
    link_qlen: &'a [u32],
    occupancy: &'a [u32],
    /// Per-router buffered-packet totals, maintained incrementally by the engines
    /// (`occupancy` summed across VCs, without the `num_vcs`-wide walk).
    router_occ: &'a [u32],
    num_vcs: usize,
    router: VertexId,
    dst: VertexId,
    hops: u32,
    /// Any deterministic generator: the engine passes a per-decision
    /// counter-based stream (so decisions stay independent of event
    /// interleaving across shards), [`RoutingHarness`] its own `StdRng`.
    rng: &'a mut dyn RngCore,
    /// Scratch the minimal-port query writes into.
    scratch: &'a mut RouteScratch,
}

impl<'a> RoutingCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        net: &'a SimNetwork,
        link_qlen: &'a [u32],
        occupancy: &'a [u32],
        router_occ: &'a [u32],
        num_vcs: usize,
        router: VertexId,
        dst: VertexId,
        hops: u32,
        rng: &'a mut dyn RngCore,
        scratch: &'a mut RouteScratch,
    ) -> Self {
        RoutingCtx {
            net,
            link_qlen,
            occupancy,
            router_occ,
            num_vcs,
            router,
            dst,
            hops,
            rng,
            scratch,
        }
    }

    /// The router the packet currently resides at.
    #[inline]
    pub fn router(&self) -> VertexId {
        self.router
    }

    /// The packet's final destination router.
    #[inline]
    pub fn dst(&self) -> VertexId {
        self.dst
    }

    /// Hops the packet has taken so far (0 at the source router).
    #[inline]
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Number of routers in the network.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.net.num_routers()
    }

    /// Router distance in hops from the shared distance oracle.
    #[inline]
    pub fn dist(&self, a: VertexId, b: VertexId) -> u16 {
        self.net.dist(a, b)
    }

    /// Output ports of the current router whose neighbour lies on a shortest path to
    /// `target`, ascending — written into the context's scratch buffer, so the
    /// query allocates nothing once the buffer has grown to the radix.
    pub fn minimal_ports(&mut self, target: VertexId) -> &[u16] {
        self.net
            .minimal_ports_packed(self.router, target, &mut self.scratch.ports)
    }

    /// The neighbour reached through `port` of the current router.
    #[inline]
    pub fn port_target(&self, port: usize) -> VertexId {
        self.net.link_target(self.router, port)
    }

    /// Occupancy of the current router's output queue on `port`, in packets.
    ///
    /// O(1) from the engine's incrementally-maintained flat depth array: one
    /// `u32` read, beside the reads for the router's other ports (the queue
    /// itself is a FIFO threaded through the packet arena, which would have
    /// to be walked).
    #[inline]
    pub fn queue_len(&self, port: usize) -> usize {
        self.link_qlen[self.net.link_id(self.router, port)] as usize
    }

    /// Total buffered packets (all virtual channels) at an arbitrary router — the
    /// "global" congestion signal available to UGAL-G style algorithms — as of
    /// the start of the engine's current epoch.
    ///
    /// O(1): the engine maintains the per-router total incrementally on every
    /// enqueue/dequeue, so this is one array read rather than a `num_vcs`-wide
    /// sum per candidate port. Debug builds verify the incremental total against
    /// the per-VC sum on every query.
    ///
    /// # Panics
    /// In a run whose algorithm declares [`Router::reads_remote_occupancy`]
    /// `false`: the engine keeps no occupancy view for it. A caller contract:
    /// an algorithm that reads the view must declare so.
    #[inline]
    pub fn router_occupancy(&self, router: VertexId) -> u32 {
        let Some(&total) = self.router_occ.get(router as usize) else {
            panic!(
                "router_occupancy({router}) read by a routing algorithm whose \
                 Router::reads_remote_occupancy() is false"
            );
        };
        debug_assert_eq!(
            total,
            {
                let base = router as usize * self.num_vcs;
                self.occupancy[base..base + self.num_vcs]
                    .iter()
                    .sum::<u32>()
            },
            "incremental occupancy total diverged from per-VC sum at router {router}"
        );
        total
    }

    /// The decision RNG (deterministic given [`crate::SimConfig::seed`]).
    #[inline]
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }

    /// The least-occupied minimal port toward `target`, breaking ties uniformly at
    /// random — the adaptive-minimal primitive every built-in algorithm shares.
    ///
    /// Allocation-free: the candidate ports come as a slice (the oracle's
    /// query into the reused scratch buffer), and the selection is a two-pass
    /// min+count / pick-k-th walk. The single `gen_range` draw over the tie
    /// count consumes the RNG exactly as the old collect-into-`Vec`
    /// implementation did (ties walked in ascending port order), so golden-seed
    /// results are bit-identical across oracle backings.
    pub fn best_minimal_port(&mut self, target: VertexId) -> usize {
        let RoutingCtx {
            net,
            link_qlen,
            router,
            rng,
            scratch,
            ..
        } = self;
        let ports = net.minimal_ports_packed(*router, target, &mut scratch.ports);
        let link_qlen = &link_qlen[net.link_id(*router, 0)..];
        pick_least_queued(ports, link_qlen, &mut **rng, *router, target)
    }

    /// A uniformly random intermediate router excluding the current router and the
    /// destination, or `None` if no such router exists.
    ///
    /// Exact by construction (index remapping around the excluded ids), replacing the
    /// engine's former bounded rejection loop, which could silently give up on small
    /// networks and degrade Valiant to minimal routing.
    ///
    /// On a degraded network ([`crate::SimNetwork::with_faults`]) candidates
    /// come from the current router's connected component of the *surviving*
    /// graph instead of the whole id space, so a detour can never steer a
    /// packet at a down or unreachable router. Pristine networks take the
    /// original dense path (bit-identical RNG consumption).
    pub fn sample_intermediate(&mut self) -> Option<VertexId> {
        match self.net.component_peers(self.router) {
            None => sample_excluding(self.rng, self.net.num_routers(), self.router, self.dst),
            Some(peers) => sample_peers_excluding(self.rng, peers, self.router, self.dst),
        }
    }
}

/// The two-pass min+count / pick-k-th walk behind [`RoutingCtx::best_minimal_port`]
/// over `router`'s queue depths `qlen` (indexed by port): one `gen_range` draw
/// over the tie count, ties resolved in ascending port order — exactly the RNG
/// consumption of the historical collect-into-`Vec` implementation.
fn pick_least_queued(
    ports: &[u16],
    qlen: &[u32],
    rng: &mut dyn RngCore,
    router: VertexId,
    target: VertexId,
) -> usize {
    let mut min_q = u32::MAX;
    let mut ties = 0usize;
    for &p in ports {
        let q = qlen[usize::from(p)];
        if q < min_q {
            min_q = q;
            ties = 1;
        } else if q == min_q {
            ties += 1;
        }
    }
    // Hard assert: an empty port set means the target is unreachable (or equals the
    // current router, which the engine rules out) — fail with the routing facts
    // instead of an opaque panic deeper in.
    assert!(
        ties > 0,
        "no minimal port from router {router} toward {target} (unreachable destination?)"
    );
    let k = rng.gen_range(0..ties);
    let mut seen = 0usize;
    for &p in ports {
        if qlen[usize::from(p)] == min_q {
            if seen == k {
                return usize::from(p);
            }
            seen += 1;
        }
    }
    unreachable!("tie index {k} below the counted {ties} ties must exist")
}

/// Uniform sample from a sorted candidate slice excluding `a` and `b` (which
/// may coincide, and need not be members) — the degraded-network sibling of
/// [`sample_excluding`], used when Valiant intermediates must come from one
/// connected component of the surviving graph. Allocation-free: two binary
/// searches plus one `gen_range` draw with index remapping.
fn sample_peers_excluding(
    rng: &mut dyn RngCore,
    peers: &[VertexId],
    a: VertexId,
    b: VertexId,
) -> Option<VertexId> {
    let pa = peers.binary_search(&a).ok();
    let pb = if b == a {
        None
    } else {
        peers.binary_search(&b).ok()
    };
    let excluded = pa.is_some() as usize + pb.is_some() as usize;
    if peers.len() <= excluded {
        return None;
    }
    let mut x = rng.gen_range(0..peers.len() - excluded);
    let (lo, hi) = match (pa, pb) {
        (Some(p), Some(q)) => (Some(p.min(q)), Some(p.max(q))),
        (Some(p), None) | (None, Some(p)) => (Some(p), None),
        (None, None) => (None, None),
    };
    if let Some(l) = lo {
        if x >= l {
            x += 1;
        }
    }
    if let Some(h) = hi {
        if x >= h {
            x += 1;
        }
    }
    Some(peers[x])
}

/// The deterministic liveness fallback behind runtime fault scripts: the best
/// **alive** port out of `router` toward `target`, scored by pristine-oracle
/// progress (`1 + dist(neighbour, target)`), lowest port winning ties.
///
/// This is the "liveness-aware port mask layered over the immutable oracle":
/// the engines first let the configured algorithm choose through the
/// unmodified [`RoutingCtx`] hot path; only when the chosen port's link is
/// runtime-dead do they re-decide here, filtering dead ports at decision time
/// instead of rebuilding the oracle per fault event. RNG-free on purpose —
/// the fallback must not perturb the RNG stream shared with the pristine
/// decision path, or healed runs would diverge from never-damaged ones.
///
/// Static distances can strand a pure greedy walk: kill a router's only
/// distance-decreasing link and the greedy fallback picks a sideways
/// neighbour whose own minimal (alive) choice points straight back —
/// a deterministic ping-pong that burns the TTL, and, being deterministic,
/// burns it again identically on every retransmission attempt. Two
/// RNG-free escape valves break such cycles:
///
/// * **U-turn avoidance** — the neighbour the packet just arrived from
///   (`prev`) is only chosen when it is the *sole* alive option;
/// * **salted rotation** — among equally-best ports, `salt` (the caller
///   passes hops + attempts, both of which advance every time a walk
///   revisits a trap) selects round-robin, so a revisit or a retry explores
///   a different equally-good direction instead of replaying the loop.
///
/// Returns `None` when no alive port reaches the target on the *static*
/// oracle (the caller drops the packet with a `NoRoute` reason and lets the
/// retransmission protocol retry after recovery).
pub(crate) fn best_alive_port<F>(
    net: &SimNetwork,
    router: VertexId,
    target: VertexId,
    prev: Option<VertexId>,
    salt: u32,
    link_alive: F,
) -> Option<usize>
where
    F: Fn(usize) -> bool,
{
    use spectralfly_graph::paths::UNREACHABLE_U16;
    let nbrs = net.graph().neighbors(router);
    let mut best: Option<u32> = None;
    let mut count = 0u32;
    let mut uturn: Option<(u32, usize)> = None;
    for (port, &nbr) in nbrs.iter().enumerate() {
        if !link_alive(net.link_id(router, port)) {
            continue;
        }
        let d = net.dist(nbr, target);
        if d == UNREACHABLE_U16 {
            continue;
        }
        let score = 1 + d as u32;
        if prev == Some(nbr) {
            if uturn.map(|(s, _)| score < s).unwrap_or(true) {
                uturn = Some((score, port));
            }
            continue;
        }
        match best {
            Some(s) if score > s => {}
            Some(s) if score == s => count += 1,
            _ => {
                best = Some(score);
                count = 1;
            }
        }
    }
    let Some(best) = best else {
        return uturn.map(|(_, p)| p);
    };
    let mut pick = salt % count;
    for (port, &nbr) in nbrs.iter().enumerate() {
        if prev == Some(nbr) || !link_alive(net.link_id(router, port)) {
            continue;
        }
        let d = net.dist(nbr, target);
        if d != UNREACHABLE_U16 && 1 + d as u32 == best {
            if pick == 0 {
                return Some(port);
            }
            pick -= 1;
        }
    }
    unreachable!("salted rotation stays within the counted candidate set")
}

/// Uniform sample from `0..n` excluding `a` and `b` (which may coincide).
fn sample_excluding(rng: &mut dyn RngCore, n: usize, a: VertexId, b: VertexId) -> Option<VertexId> {
    let excluded = if a == b { 1 } else { 2 };
    if n <= excluded {
        return None;
    }
    let mut x = rng.gen_range(0..n - excluded) as VertexId;
    let (lo, hi) = (a.min(b), a.max(b));
    if x >= lo {
        x += 1;
    }
    if a != b && x >= hi {
        x += 1;
    }
    Some(x)
}

/// A standalone driver for routing decisions outside any engine: an idle network's
/// queue state plus one configured algorithm, with every per-decision buffer owned
/// and reused by the harness.
///
/// This is the measurement surface for the routing-decisions-per-second microbench
/// and the zero-allocation integration test: `decide` exercises exactly the hot
/// path the engines run per hop ([`RoutingCtx::best_minimal_port`], the congestion
/// signals, the intermediate sampler) without any event-loop work around it.
///
/// Its queues stay idle, so every UGAL decision settles right after the
/// minimal scan ([`ugal`] module docs, step 2): for UGAL, `decide` never
/// reaches the sampler, and the UGAL probes time the minimal half alone.
/// Valiant still samples. Every decision draws from the harness's one
/// `StdRng`, so a draw UGAL skips shifts every later decision's draws, and
/// nothing pins the harness's stream. The engine gives each decision a fresh
/// generator instead, so there a skipped draw moves nothing.
pub struct RoutingHarness<'a> {
    net: &'a SimNetwork,
    algo: Box<dyn Router>,
    link_qlen: Vec<u32>,
    occupancy: Vec<u32>,
    router_occ: Vec<u32>,
    scratch: RouteScratch,
    num_vcs: usize,
    rng: StdRng,
    state: RoutingState,
}

impl<'a> RoutingHarness<'a> {
    /// Build a harness over `net` with `cfg`'s routing algorithm, VC count and
    /// seed. Queue state starts idle (every queue empty).
    ///
    /// # Panics
    /// If `cfg.routing` names no algorithm of `cfg.registries`. The panic
    /// stays because the benchmark's routing probes pin this infallible
    /// signature; check a name with [`RouterRegistry::resolve`] first.
    pub fn new(net: &'a SimNetwork, cfg: &crate::config::SimConfig) -> Self {
        use rand::SeedableRng;
        let algo = (cfg.registries.routing.resolve(&cfg.routing)).unwrap_or_else(|e| panic!("{e}"));
        RoutingHarness {
            net,
            algo,
            link_qlen: vec![0; net.num_directed_links()],
            occupancy: vec![0; net.num_routers() * cfg.num_vcs],
            router_occ: vec![0; net.num_routers()],
            scratch: RouteScratch::default(),
            num_vcs: cfg.num_vcs,
            rng: StdRng::seed_from_u64(cfg.seed),
            state: RoutingState::default(),
        }
    }

    /// One source-router decision for a packet at `src` destined to `dst`
    /// (`src != dst`, reachable), returning the chosen output port.
    pub fn decide(&mut self, src: VertexId, dst: VertexId) -> usize {
        self.state = RoutingState::default();
        let mut ctx = RoutingCtx::new(
            self.net,
            &self.link_qlen,
            &self.occupancy,
            &self.router_occ,
            self.num_vcs,
            src,
            dst,
            0,
            &mut self.rng,
            &mut self.scratch,
        );
        self.algo.route(&mut ctx, &mut self.state)
    }

    /// Warm the harness so steady-state decisions are allocation-free from the
    /// first: grows the scratch buffer to the network's radix.
    pub fn warm(&mut self) {
        self.scratch.ports.reserve(self.net.graph().max_degree());
    }

    /// The `i`-th decision of a deterministic all-pairs rotation over the
    /// network's routers — the shared drive pattern of the decisions-per-second
    /// microbenches and the allocation test, so they all measure the same
    /// stream.
    pub fn decide_round_robin(&mut self, i: u64) -> usize {
        let n = self.net.num_routers() as u64;
        let src = (i % n) as VertexId;
        let dst = ((i * 7 + 1 + src as u64) % n) as VertexId;
        let dst = if dst == src {
            (dst + 1) % n as VertexId
        } else {
            dst
        };
        self.decide(src, dst)
    }
}

/// A routing algorithm: a stateless decision procedure over per-packet state.
///
/// Implementations must be `Send + Sync` — offered-load sweeps run one simulation
/// per core, and each simulation owns one boxed router instance.
pub trait Router: Send + Sync {
    /// Canonical registry name (lowercase, dash-separated).
    fn name(&self) -> &str;

    /// Virtual channels required on a topology of diameter `diameter` so that the
    /// hop-indexed VC schedule stays deadlock-free (Section V-A of the paper).
    ///
    /// The default covers algorithms whose paths are minimal; detour-based
    /// algorithms (Valiant, UGAL) override this with `2d + 1`.
    fn vcs_for_diameter(&self, diameter: u32) -> usize {
        diameter as usize + 1
    }

    /// Whether decisions read [`RoutingCtx::router_occupancy`]. Only for an
    /// algorithm that does will the engine publish and snapshot every router's
    /// buffer occupancy each epoch; for one that returns `false`, the call
    /// panics.
    ///
    /// The default, `true`, is always correct; algorithms that read nothing
    /// but their own router's queues override it to skip the snapshot.
    fn reads_remote_occupancy(&self) -> bool {
        true
    }

    /// Pick the output port for a packet resident at `ctx.router()`.
    ///
    /// Called only when the packet is not yet at its current target, so a minimal
    /// port toward `state.current_target(ctx.dst())` always exists on a connected
    /// topology.
    fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize;
}

/// Signature of a routing factory: a fresh router instance per call.
pub type RouterFactory = dyn Fn() -> Box<dyn Router> + Send + Sync;

/// The routing family of the one [`Registry`] (the contract every family
/// shares is docs/ARCHITECTURE.md § "The registry contract"): names are
/// normalized, so `UGAL-L`, `ugal_l`, and `ugal-l` all resolve to the same
/// entry.
pub type RouterRegistry = Registry<RouterFactory>;

/// How this family calls itself in error messages; custom factories report
/// bad arguments through it ([`Family::args`], [`Family::bad_args`]).
pub const FAMILY: Family = Family {
    unknown: "routing algorithm",
    args: "routing algorithm",
};

/// The paper's algorithms plus UGAL-G, built once per process: what
/// [`resolve`] and every [`crate::Registries::default`] select from.
pub static BUILTINS: LazyLock<Arc<RouterRegistry>> =
    LazyLock::new(|| Arc::new(RouterRegistry::builtins().expect("distinct names")));

impl RouterRegistry {
    fn builtins() -> Result<Self, DuplicateName> {
        let mut r = Self::empty();
        r.register("minimal", || Box::new(Minimal))?;
        r.register("valiant", || Box::new(Valiant))?;
        r.register("ugal-l", || Box::new(UgalL))?;
        r.register("ugal-g", || Box::new(UgalG))?;
        // The paper says "UGAL" for the local variant.
        r.alias("ugal", "ugal-l")?;
        Ok(r)
    }

    /// Add an algorithm under `name`, which must select nothing yet.
    pub(crate) fn register<F>(&mut self, name: &str, factory: F) -> Result<(), DuplicateName>
    where
        F: Fn() -> Box<dyn Router> + Send + Sync + 'static,
    {
        self.insert(name, Arc::new(factory))
    }

    /// Instantiate the algorithm `name` selects here, or the error naming the
    /// registered algorithms.
    pub fn resolve(&self, name: &str) -> Result<Box<dyn Router>, ResolveError> {
        Ok(self.lookup(&FAMILY, name)?())
    }
}

/// Instantiate a built-in algorithm by name ([`BUILTINS`]), or the error
/// naming them.
pub fn resolve(name: &str) -> Result<Box<dyn Router>, ResolveError> {
    BUILTINS.resolve(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vc_rules_match_paper() {
        assert_eq!(resolve("minimal").unwrap().vcs_for_diameter(3), 4);
        assert_eq!(resolve("valiant").unwrap().vcs_for_diameter(3), 7);
        assert_eq!(resolve("ugal-l").unwrap().vcs_for_diameter(4), 9);
        assert_eq!(resolve("ugal-g").unwrap().vcs_for_diameter(4), 9);
    }

    #[test]
    fn sample_excluding_is_exact_and_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        // Impossible cases.
        assert_eq!(sample_excluding(&mut rng, 2, 0, 1), None);
        assert_eq!(sample_excluding(&mut rng, 1, 0, 0), None);
        // n = 3 with two excluded: the single remaining router, every time.
        for _ in 0..50 {
            assert_eq!(sample_excluding(&mut rng, 3, 0, 2), Some(1));
        }
        // Larger case: never the excluded ids, all others hit.
        let mut counts = [0usize; 10];
        for _ in 0..8000 {
            let x = sample_excluding(&mut rng, 10, 3, 7).unwrap();
            assert!(x != 3 && x != 7);
            counts[x as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            if i == 3 || i == 7 {
                assert_eq!(c, 0);
            } else {
                assert!((700..1300).contains(&c), "router {i} drawn {c} times");
            }
        }
    }

    #[test]
    fn sample_peers_excluding_is_exact_and_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let peers: Vec<VertexId> = vec![0, 2, 5, 7, 9];
        // Excluding two members leaves {0, 2, 9}; all hit, nothing else.
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..3000 {
            let x = sample_peers_excluding(&mut rng, &peers, 5, 7).unwrap();
            assert!([0, 2, 9].contains(&x));
            *counts.entry(x).or_insert(0usize) += 1;
        }
        for (&x, &c) in &counts {
            assert!((800..1200).contains(&c), "peer {x} drawn {c} times");
        }
        // Coinciding exclusions count once; non-member exclusions not at all.
        assert!([0, 2, 7, 9].contains(&sample_peers_excluding(&mut rng, &peers, 5, 5).unwrap()));
        assert!(peers.contains(&sample_peers_excluding(&mut rng, &peers, 4, 6).unwrap()));
        // Too few candidates -> None.
        assert_eq!(sample_peers_excluding(&mut rng, &[3, 8], 3, 8), None);
        assert_eq!(sample_peers_excluding(&mut rng, &[3], 3, 3), None);
        assert_eq!(sample_peers_excluding(&mut rng, &[], 0, 1), None);
    }

    #[test]
    fn degraded_network_samples_intermediates_from_the_component() {
        // 8-ring cut into two 4-paths: {0,1,2,3} and {4,5,6,7}.
        let plan = crate::fault::FaultPlan::parse("link(3,4) + link(7,0)").unwrap();
        let ring: Vec<(u32, u32)> = (0..8u32).map(|i| (i, (i + 1) % 8)).collect();
        let net = crate::SimNetwork::with_faults(
            spectralfly_graph::CsrGraph::from_edges(8, &ring),
            1,
            &plan,
        )
        .unwrap();
        let cfg = crate::SimConfig::default().with_routing("valiant", net.diameter() as u32);
        let mut harness = RoutingHarness::new(&net, &cfg);
        // Valiant decisions at router 1 toward 3 must only ever detour inside
        // {0, 1, 2, 3} — the port chosen always stays in the component.
        for _ in 0..200 {
            let port = harness.decide(1, 3);
            let next = net.link_target(1, port);
            assert!((0..=3).contains(&next), "escaped the component via {next}");
        }
    }

    #[test]
    fn radix_above_u8_routes_to_the_right_port() {
        // A star with 300 leaves: the hub's port ids leave the u8 range.
        // Regression test: a u8 port scan used to truncate them here,
        // silently routing to the wrong neighbour.
        let edges: Vec<(u32, u32)> = (1..=300u32).map(|v| (0, v)).collect();
        let g = crate::SimNetwork::new(spectralfly_graph::CsrGraph::from_edges(301, &edges), 1);
        let cfg = crate::SimConfig::default().with_routing("minimal", 2);
        let mut harness = RoutingHarness::new(&g, &cfg);
        // The hub's neighbour list is sorted, so leaf v sits behind port v - 1.
        assert_eq!(harness.decide(0, 300), 299);
        assert_eq!(harness.decide(0, 257), 256);
        assert_eq!(harness.decide(0, 1), 0);
        assert_eq!(harness.decide(42, 7), 0);
        // End-to-end: a leaf-to-leaf message crosses the hub and delivers.
        let wl = crate::Workload::new(
            "star",
            vec![crate::workload::Message {
                src: 299,
                dst: 300,
                bytes: 512,
                inject_offset_ps: 0,
            }],
        );
        let res = crate::Simulator::new(&g, &cfg).try_run(&wl).unwrap();
        assert_eq!(res.delivered_packets, 1);
        assert_eq!(res.max_hops, 2);
    }

    #[test]
    fn routing_state_tracks_intermediate() {
        let mut st = RoutingState::default();
        assert_eq!(st.current_target(9), 9);
        st.intermediate = Some(4);
        assert_eq!(st.current_target(9), 4);
        st.note_arrival(3);
        assert_eq!(st.intermediate, Some(4));
        st.note_arrival(4);
        assert_eq!(st.current_target(9), 9);
    }
}
