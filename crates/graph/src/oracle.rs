//! The memory-scalable path-oracle tier: one trait, three representations.
//!
//! Every consumer of "distance and minimal next hops between routers" — the
//! analytical layer, the sequential engine, the PDES engine, the routing
//! registry — asks through [`PathOracle`], and the representation behind the
//! trait is chosen by topology size and structure:
//!
//! * [`DenseOracle`] — the existing [`DistanceMatrix`] + [`NextHopTable`] pair.
//!   O(n²) memory, O(1) packed-row lookups; the right trade up to ~10⁴ routers
//!   and the default there.
//! * [`CayleyOracle`] — for vertex-transitive topologies (LPS over PGL₂/PSL₂,
//!   Paley): **one** BFS ball from the identity element plus an O(1)
//!   group-translation map `diff(u, v) = index(u⁻¹ · v)` supplied by the
//!   algebraic layer. O(n·radix) memory; distances and minimal-port sets are
//!   exact because `d(u, v) = d(e, u⁻¹v)` in any Cayley graph, and a decision
//!   costs one translation: with `z = dst⁻¹·current`, the port along
//!   generator `s` is minimal iff `d(e, z·s) + 1 = d(e, z)`, a bit
//!   precomputed per element and generator. This is what unlocks
//!   million-router LPS fabrics (a dense matrix there would need ~2 TB).
//! * [`LandmarkOracle`] — for non-algebraic or symmetry-broken graphs
//!   (Jellyfish, degraded post-fault topologies): a handful of pinned
//!   farthest-point landmark BFS rows for ALT-style distance shortcuts, plus
//!   an LRU-bounded cache of exact per-destination BFS rows. O(k·n) pinned
//!   memory, exact answers (the landmark bounds only short-circuit when they
//!   are tight; everything else falls back to a real BFS row).
//!
//! All three honour the allocation-free hot-path contract the packed
//! [`NextHopTable`] established: `min_ports_u8` writes into (or bypasses) a
//! caller-owned scratch buffer and never allocates per decision once the
//! scratch has grown to the radix — the landmark cache allocates only on a
//! *miss*, which its LRU bound amortizes away under any localized traffic.

use crate::csr::{CsrGraph, VertexId};
use crate::paths::{bfs_distances_into, DistanceMatrix, NextHopTable, UNREACHABLE_U16};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Why an oracle (or one of its dense components) could not be constructed.
///
/// Construction failures are recoverable by design: the caller either routes to
/// a sparser representation or keeps a scan fallback — nothing here aborts the
/// process, which is the contract `DistanceMatrix::from_graph`'s hard assert
/// used to break on large topologies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleError {
    /// The vertex count exceeds what the representation can index.
    TooManyVertices {
        /// Vertices in the graph.
        n: usize,
        /// Largest supported vertex count.
        max: usize,
    },
    /// A vertex degree exceeds the packed port id space.
    RadixTooLarge {
        /// The offending maximum degree.
        max_degree: usize,
        /// Largest packable degree.
        max: usize,
    },
    /// The representation would exceed its memory budget.
    BudgetExceeded {
        /// Bytes the representation needs (`usize::MAX` when the size itself overflows).
        required: usize,
        /// The configured budget in bytes.
        budget: usize,
    },
    /// A structural precondition failed (e.g. a Cayley translation map that
    /// disagrees with the graph it claims to describe).
    Inconsistent(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::TooManyVertices { n, max } => write!(
                f,
                "oracle supports at most {max} vertices, got {n} — use a sparse oracle \
                 (Cayley for vertex-transitive topologies, landmark otherwise)"
            ),
            OracleError::RadixTooLarge { max_degree, max } => write!(
                f,
                "vertex degree {max_degree} exceeds the packed port space (max {max})"
            ),
            OracleError::BudgetExceeded { required, budget } => write!(
                f,
                "representation needs {required} bytes but the budget is {budget}"
            ),
            OracleError::Inconsistent(why) => write!(f, "oracle construction failed: {why}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// Which representation a [`PathOracle`] uses — reported for logging, bench
/// labels, and the simulator's fault-demotion policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Dense [`DistanceMatrix`] + optional packed [`NextHopTable`].
    Dense,
    /// Single BFS ball + group translation over a vertex-transitive graph.
    Cayley,
    /// Farthest-point landmarks + LRU-cached exact BFS rows.
    Landmark,
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleKind::Dense => write!(f, "dense"),
            OracleKind::Cayley => write!(f, "cayley"),
            OracleKind::Landmark => write!(f, "landmark"),
        }
    }
}

/// Distance + minimal-next-port queries behind the allocation-free contract.
///
/// The graph is passed to every query rather than owned, so oracles stay
/// independent of graph storage and a [`crate::CsrGraph`] can be shared between
/// its oracle and everything else that reads it. All answers are **exact** —
/// representations differ in memory and construction cost, never in results
/// (the equivalence suites pin this).
pub trait PathOracle: Send + Sync + std::fmt::Debug {
    /// Number of routers the oracle answers for.
    fn n(&self) -> usize;

    /// Distance between two routers ([`UNREACHABLE_U16`] if unreachable).
    fn dist(&self, g: &CsrGraph, from: VertexId, to: VertexId) -> u16;

    /// The ascending minimal ports of `current` toward `dst` as packed `u8`
    /// ids, either as an internal row or written into `scratch` (cleared
    /// first). Empty when `dst` is `current` itself or unreachable.
    ///
    /// Callers guarantee `current`'s degree fits `u8` (the simulator's wide
    /// path uses [`PathOracle::min_ports_into`] above that).
    fn min_ports_u8<'a>(
        &'a self,
        g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        scratch: &'a mut Vec<u8>,
    ) -> &'a [u8];

    /// The ascending minimal ports of `current` toward `dst` written into a
    /// caller-owned buffer (cleared first) — the wide-port sibling of
    /// [`PathOracle::min_ports_u8`] for radices beyond `u8`.
    fn min_ports_into(&self, g: &CsrGraph, current: VertexId, dst: VertexId, out: &mut Vec<usize>);

    /// An upper bound on the largest finite router-to-router distance, tight
    /// enough for VC sizing (exact for [`DenseOracle`] and [`CayleyOracle`];
    /// a ≤ 2·eccentricity landmark bound for [`LandmarkOracle`]).
    fn max_distance_bound(&self) -> u16;

    /// Resident bytes held by the oracle (pinned structures; caches count
    /// their capacity).
    fn memory_bytes(&self) -> usize;

    /// Which representation this is.
    fn kind(&self) -> OracleKind;
}

/// The classic dense pair behind the [`PathOracle`] trait: a
/// [`DistanceMatrix`] plus (when it fits its budget and the radix packs) the
/// fixed-stride [`NextHopTable`] whose row reads make the routing hot path
/// allocation- and scan-free.
#[derive(Clone, Debug)]
pub struct DenseOracle {
    dist: Arc<DistanceMatrix>,
    table: Option<NextHopTable>,
    max_d: u16,
}

impl DenseOracle {
    /// Build from a graph: the matrix (failing typed on `n > u16::MAX`), then
    /// the packed table under its default budget (a table refusal silently
    /// keeps the scan fallback — that is a performance trade, not an error).
    pub fn build(g: &CsrGraph) -> Result<Self, OracleError> {
        let dist = Arc::new(DistanceMatrix::try_from_graph(g)?);
        Ok(Self::from_matrix(g, dist))
    }

    /// Wrap an existing (possibly shared) matrix, building the packed table if
    /// it fits.
    pub fn from_matrix(g: &CsrGraph, dist: Arc<DistanceMatrix>) -> Self {
        let table = NextHopTable::build(g, &dist);
        let max_d = dist.max_reachable_distance();
        DenseOracle { dist, table, max_d }
    }

    /// Drop the packed table, forcing every query onto the matrix-scan path —
    /// the differential-testing hook behind the table-vs-scan suites.
    pub fn without_table(mut self) -> Self {
        self.table = None;
        self
    }

    /// The distance matrix (shared).
    pub fn distances(&self) -> &Arc<DistanceMatrix> {
        &self.dist
    }

    /// The packed next-hop table, if one was built.
    pub fn table(&self) -> Option<&NextHopTable> {
        self.table.as_ref()
    }
}

impl PathOracle for DenseOracle {
    fn n(&self) -> usize {
        self.dist.n()
    }

    #[inline]
    fn dist(&self, _g: &CsrGraph, from: VertexId, to: VertexId) -> u16 {
        self.dist.dist(from, to)
    }

    #[inline]
    fn min_ports_u8<'a>(
        &'a self,
        g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        scratch: &'a mut Vec<u8>,
    ) -> &'a [u8] {
        match &self.table {
            Some(t) => t.ports(current, dst),
            None => {
                self.dist.min_next_ports_u8_into(g, current, dst, scratch);
                scratch
            }
        }
    }

    fn min_ports_into(&self, g: &CsrGraph, current: VertexId, dst: VertexId, out: &mut Vec<usize>) {
        self.dist.min_next_ports_into(g, current, dst, out);
    }

    fn max_distance_bound(&self) -> u16 {
        self.max_d
    }

    fn memory_bytes(&self) -> usize {
        self.dist.n() * self.dist.n() * 2 + self.table.as_ref().map_or(0, |t| t.memory_bytes())
    }

    fn kind(&self) -> OracleKind {
        OracleKind::Dense
    }
}

/// O(1) vertex-id translation for a vertex-transitive graph: `diff(u, v)` is
/// the vertex id of `u⁻¹ · v` in the group the vertices enumerate.
///
/// The algebraic layer (which knows the group) supplies this; the oracle only
/// requires what it verifies at construction: `diff(u, u) = identity`, every
/// edge `u → w` translates to a generator (`diff(u, w)` is a neighbour of the
/// identity, a different one per port), and `v ↦ diff(x, v)` carries each
/// port to the port of the same generator.
pub type CayleyDiff = Box<dyn Fn(VertexId, VertexId) -> VertexId + Send + Sync>;

/// Exact path oracle for Cayley graphs in O(n·radix) memory.
///
/// In a Cayley graph, left-translation by `u⁻¹` is an automorphism mapping
/// `u → identity` and `v → u⁻¹v`, so `d(u, v) = d(e, u⁻¹v)`: one BFS ball
/// `d0[·] = d(e, ·)` from the identity answers every pair through the
/// translation map.
///
/// Minimal ports need no translation per port. Port `i` of `u` leads to
/// `w = u·s` for one generator `s`, and `d(w, v) = d(v, w) = d0[v⁻¹u·s]`,
/// where `v⁻¹u·s` is simply the neighbour of `z = v⁻¹u` along the same
/// generator. So whether the port is minimal depends only on `z` and on
/// *which generator the port is*: construction labels every port with its
/// generator (the position of `diff(u, w)` among the identity's neighbours)
/// and stores per element `z` a bitset over generators, bit `k` set iff
/// `d0[z·s_k] + 1 = d0[z]`. A decision is then **one** translation
/// `z = diff(dst, current)`, one bitset row, and a walk of `current`'s label
/// row in ascending port order — no heap, no per-port group arithmetic.
///
/// Memory per vertex: `d0` 2 B + labels 2·radix B + bitset ⌈radix/8⌉ B, plus
/// whatever the translation map keeps (8 B of packed matrix for LPS).
pub struct CayleyOracle {
    /// `d0[x] = d(identity, x)`, one BFS from the identity vertex.
    d0: Vec<u16>,
    /// Ports per vertex — one per generator; the graph is regular.
    radix: usize,
    /// `labels[u * radix + i]`: the generator port `i` of `u` follows, as the
    /// position of `diff(u, wᵢ)` among the identity's (sorted) neighbours.
    labels: Vec<u16>,
    /// Bytes per `descent` row: ⌈radix / 8⌉.
    row_bytes: usize,
    /// Row `z`, bit `k`: generator `k` leads from `z` one step toward the
    /// identity. All-zero for the identity and for unreachable elements.
    descent: Vec<u8>,
    /// Vertex id of the group identity.
    identity: VertexId,
    /// Exact maximum distance (vertex transitivity: `max d0` is the diameter
    /// of the reachable pairs).
    max_d: u16,
    /// Bytes held by the translation map's side tables (reported by the builder).
    aux_bytes: usize,
    diff: CayleyDiff,
}

impl std::fmt::Debug for CayleyOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CayleyOracle")
            .field("n", &self.d0.len())
            .field("radix", &self.radix)
            .field("identity", &self.identity)
            .field("max_d", &self.max_d)
            .finish_non_exhaustive()
    }
}

impl CayleyOracle {
    /// Vertices whose translations are checked against each other at
    /// construction (every pair of them, every port).
    const VALIDATION_SAMPLES: usize = 64;

    /// Build from the graph, the identity vertex, and the translation map.
    ///
    /// `aux_bytes` is the resident size of whatever tables `diff` closes over
    /// (rank tables, vertex-matrix arrays), so [`PathOracle::memory_bytes`]
    /// reports the true footprint.
    ///
    /// Construction BFSes once from `identity`, then visits **every** edge:
    /// the graph must be regular, `diff(u, u)` must be the identity, and the
    /// ports of `u` must translate one-to-one onto the identity's neighbours —
    /// that pass is what fills the label and descent tables. What stays
    /// sampled is the part that costs a translation per *pair*: on a
    /// deterministic vertex sample, translating by `v` must carry each port
    /// of `u` to the same generator's port of `diff(v, u)`. A mismatch
    /// returns [`OracleError::Inconsistent`] — the typed guard against wiring
    /// a translation map to the wrong graph.
    pub fn new(
        g: &CsrGraph,
        identity: VertexId,
        diff: CayleyDiff,
        aux_bytes: usize,
    ) -> Result<Self, OracleError> {
        let n = g.num_vertices();
        if (identity as usize) >= n {
            return Err(OracleError::Inconsistent(format!(
                "identity vertex {identity} out of range ({n} vertices)"
            )));
        }
        let generators = g.neighbors(identity);
        let radix = generators.len();
        let max_radix = usize::from(u16::MAX) + 1;
        if radix > max_radix {
            return Err(OracleError::RadixTooLarge {
                max_degree: radix,
                max: max_radix,
            });
        }
        let mut d0 = vec![0u16; n];
        let mut queue = VecDeque::new();
        bfs_distances_into(g, identity, &mut d0, &mut queue);
        let max_d = d0
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE_U16)
            .max()
            .unwrap_or(0);

        let row_bytes = radix.div_ceil(8);
        let mut labels = vec![0u16; n * radix];
        let mut descent = vec![0u8; n * row_bytes];
        let mut seen = vec![false; radix];
        for (u, du) in d0.iter().copied().enumerate() {
            let u = u as VertexId;
            let ports = g.neighbors(u);
            if ports.len() != radix {
                return Err(OracleError::Inconsistent(format!(
                    "vertex {u} has degree {} but the identity has {radix}; \
                     a Cayley graph is regular",
                    ports.len()
                )));
            }
            let uu = diff(u, u);
            if uu != identity {
                return Err(OracleError::Inconsistent(format!(
                    "diff({u}, {u}) = {uu}, expected the identity {identity}"
                )));
            }
            let u_labels = &mut labels[u as usize * radix..][..radix];
            let u_descent = &mut descent[u as usize * row_bytes..][..row_bytes];
            seen.fill(false);
            for (&w, label) in ports.iter().zip(u_labels) {
                let t = diff(u, w);
                if (t as usize) >= n {
                    return Err(OracleError::Inconsistent(format!(
                        "diff({u}, {w}) = {t} out of range ({n} vertices)"
                    )));
                }
                let Ok(k) = generators.binary_search(&t) else {
                    return Err(OracleError::Inconsistent(format!(
                        "neighbour {w} of {u} translates to distance {} from the identity; \
                         a Cayley translation must map edges to edges",
                        d0[t as usize]
                    )));
                };
                if std::mem::replace(&mut seen[k], true) {
                    return Err(OracleError::Inconsistent(format!(
                        "two ports of {u} translate to the same generator {t}"
                    )));
                }
                *label = k as u16;
                if du != UNREACHABLE_U16 && d0[w as usize].saturating_add(1) == du {
                    u_descent[k / 8] |= 1 << (k % 8);
                }
            }
        }

        // Deterministic sample: evenly spaced vertices, always including the
        // identity.
        let stride = (n / Self::VALIDATION_SAMPLES).max(1);
        let sample = || {
            let spaced = (0..n).step_by(stride).map(|u| u as VertexId);
            std::iter::once(identity).chain(spaced)
        };
        for v in sample() {
            for u in sample() {
                let z = diff(v, u);
                if (z as usize) >= n {
                    return Err(OracleError::Inconsistent(format!(
                        "diff({v}, {u}) = {z} out of range ({n} vertices)"
                    )));
                }
                for (i, &w) in g.neighbors(u).iter().enumerate() {
                    let k = labels[u as usize * radix + i];
                    let t = diff(v, w);
                    let carried = g
                        .neighbors(z)
                        .binary_search(&t)
                        .is_ok_and(|j| labels[z as usize * radix + j] == k);
                    if !carried {
                        return Err(OracleError::Inconsistent(format!(
                            "translating by {v} carries {u} to {z} but its neighbour {w} to {t}, \
                             which is not {z}'s neighbour along the same generator"
                        )));
                    }
                }
            }
        }

        Ok(CayleyOracle {
            d0,
            radix,
            labels,
            row_bytes,
            descent,
            identity,
            max_d,
            aux_bytes,
            diff,
        })
    }

    /// The vertex id of the group identity.
    pub fn identity(&self) -> VertexId {
        self.identity
    }

    /// Visit each minimal port of `current` toward `dst` in ascending order:
    /// the ports whose generator has its bit set in the descent row of
    /// `diff(dst, current)`.
    #[inline]
    fn for_each_min_port(&self, current: VertexId, dst: VertexId, mut f: impl FnMut(usize)) {
        if current == dst {
            return;
        }
        let z = (self.diff)(dst, current) as usize;
        let row = &self.descent[z * self.row_bytes..][..self.row_bytes];
        let labels = &self.labels[current as usize * self.radix..][..self.radix];
        for (i, &k) in labels.iter().enumerate() {
            if row[usize::from(k / 8)] >> (k % 8) & 1 != 0 {
                f(i);
            }
        }
    }
}

impl PathOracle for CayleyOracle {
    fn n(&self) -> usize {
        self.d0.len()
    }

    #[inline]
    fn dist(&self, _g: &CsrGraph, from: VertexId, to: VertexId) -> u16 {
        self.d0[(self.diff)(from, to) as usize]
    }

    #[inline]
    fn min_ports_u8<'a>(
        &'a self,
        _g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        scratch: &'a mut Vec<u8>,
    ) -> &'a [u8] {
        scratch.clear();
        self.for_each_min_port(current, dst, |i| scratch.push(i as u8));
        scratch
    }

    fn min_ports_into(
        &self,
        _g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        self.for_each_min_port(current, dst, |i| out.push(i));
    }

    fn max_distance_bound(&self) -> u16 {
        self.max_d
    }

    fn memory_bytes(&self) -> usize {
        self.d0.len() * 2 + self.labels.len() * 2 + self.descent.len() + self.aux_bytes
    }

    fn kind(&self) -> OracleKind {
        OracleKind::Cayley
    }
}

/// The LRU row cache behind [`LandmarkOracle`]: exact per-destination BFS
/// rows, bounded to `cap` slots, evicting the least-recently-stamped slot.
struct RowCache {
    /// Destination → slot.
    map: HashMap<VertexId, usize>,
    /// Slot → owning destination.
    owner: Vec<VertexId>,
    /// Slot → distance row (`d(·, dst)`; undirected, so one BFS *from* `dst`).
    rows: Vec<Vec<u16>>,
}

/// Exact path oracle for non-algebraic graphs in O(k·n) pinned memory.
///
/// `k` farthest-point-sampled landmarks pin one BFS row each. Distance queries
/// first try the landmark (ALT) bounds — `max |d(u,L) − d(v,L)|` from below,
/// `min d(u,L) + d(L,v)` from above — and short-circuit **only when the bounds
/// meet**, so every returned distance is exact. Everything else (including all
/// minimal-port queries) reads an exact per-destination BFS row from an
/// LRU-bounded cache; a miss runs one BFS (the only allocating operation, and
/// the reason this oracle suits *localized or modest-n* workloads — the
/// simulator demotes broken-symmetry topologies here, and uniform traffic over
/// millions of destinations belongs on [`CayleyOracle`] instead).
///
/// Concurrency: cache hits take a read lock (with per-slot atomic LRU stamps),
/// so PDES shards querying in parallel do not serialize; only misses take the
/// write lock.
pub struct LandmarkOracle {
    n: usize,
    /// The landmark vertex ids, in selection order.
    landmarks: Vec<VertexId>,
    /// `k` pinned rows, row-major: `lm_rows[l * n + v] = d(landmarks[l], v)`.
    lm_rows: Vec<u16>,
    /// VC-sizing bound: max over components of `min_L 2·ecc(L)` over the
    /// component's landmarks (`size − 1` for landmark-free components) —
    /// ≥ the true max finite distance, ≤ 2× it on covered components.
    max_bound: u16,
    cache: RwLock<RowCache>,
    cache_cap: usize,
    /// Slot → last-use stamp (atomic so hits update LRU order under the read lock).
    slot_stamp: Vec<AtomicU64>,
    clock: AtomicU64,
}

impl std::fmt::Debug for LandmarkOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LandmarkOracle")
            .field("n", &self.n)
            .field("landmarks", &self.landmarks.len())
            .field("cache_cap", &self.cache_cap)
            .finish_non_exhaustive()
    }
}

impl LandmarkOracle {
    /// Default landmark count: enough for useful ALT bounds on expander-like
    /// graphs, small enough that pinned memory stays ~16·2n bytes.
    pub const DEFAULT_LANDMARKS: usize = 16;

    /// Default budget for the exact-row cache (256 MiB ⇒ ~64 K cached
    /// destinations at n = 2048, ~120 at n = 10⁶).
    pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

    /// Build with the default landmark count and cache budget.
    pub fn build(g: &CsrGraph) -> Result<Self, OracleError> {
        Self::build_with(g, Self::DEFAULT_LANDMARKS, Self::DEFAULT_CACHE_BYTES)
    }

    /// Build with an explicit landmark count and cache budget (bytes).
    ///
    /// Landmarks are farthest-point sampled: the first is vertex 0, each next
    /// maximizes its distance to the chosen set (unreached vertices count as
    /// infinitely far, so every connected component receives a landmark before
    /// any component gets a second). Deterministic — same graph, same oracle.
    pub fn build_with(
        g: &CsrGraph,
        num_landmarks: usize,
        cache_budget_bytes: usize,
    ) -> Result<Self, OracleError> {
        let n = g.num_vertices();
        if n == 0 {
            return Err(OracleError::Inconsistent(
                "landmark oracle needs a non-empty graph".to_string(),
            ));
        }
        let k = num_landmarks.clamp(1, n);
        let mut landmarks: Vec<VertexId> = Vec::with_capacity(k);
        let mut lm_rows = vec![0u16; k * n];
        let mut queue = VecDeque::new();
        // min_d[v] = distance from v to the closest chosen landmark.
        let mut min_d = vec![UNREACHABLE_U16; n];
        let mut next = 0 as VertexId;
        for l in 0..k {
            landmarks.push(next);
            let row = &mut lm_rows[l * n..(l + 1) * n];
            bfs_distances_into(g, next, row, &mut queue);
            let mut best = (0u16, next);
            for v in 0..n {
                min_d[v] = min_d[v].min(row[v]);
                // Strict > keeps the smallest id among ties, so selection is
                // order-deterministic.
                if min_d[v] > best.0 {
                    best = (min_d[v], v as VertexId);
                }
            }
            next = best.1;
        }
        // VC-sizing bound, per connected component. Inside a component that
        // holds landmarks, d(u, v) ≤ 2·ecc(L) for any of its landmarks L
        // (triangle through L), so its bound is the min over them; a component
        // the sampling budget never reached (k < number of components) falls
        // back to `size − 1`, the longest possible shortest path. The overall
        // bound is the MAX over components — a min over all landmarks would be
        // unsound on disconnected graphs, where a small component's landmark
        // (eccentricity 0 for an isolated vertex) says nothing about paths in
        // a larger landmark-free component.
        let mut comp = vec![usize::MAX; n];
        let mut comp_sizes: Vec<u32> = Vec::new();
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            let id = comp_sizes.len();
            comp_sizes.push(0);
            comp[s] = id;
            queue.push_back(s as VertexId);
            while let Some(u) = queue.pop_front() {
                comp_sizes[id] += 1;
                for &w in g.neighbors(u) {
                    if comp[w as usize] == usize::MAX {
                        comp[w as usize] = id;
                        queue.push_back(w);
                    }
                }
            }
        }
        let mut comp_bound = vec![u32::MAX; comp_sizes.len()];
        for (l, &lm) in landmarks.iter().enumerate() {
            let ecc = lm_rows[l * n..(l + 1) * n]
                .iter()
                .copied()
                .filter(|&d| d != UNREACHABLE_U16)
                .max()
                .unwrap_or(0);
            let c = comp[lm as usize];
            comp_bound[c] = comp_bound[c].min(u32::from(ecc) * 2);
        }
        let max_bound = comp_sizes
            .iter()
            .zip(&comp_bound)
            .map(|(&size, &b)| if b == u32::MAX { size - 1 } else { b })
            .max()
            .unwrap_or(0)
            .min(u32::from(UNREACHABLE_U16 - 1)) as u16;
        let row_bytes = n * 2;
        let cache_cap = (cache_budget_bytes / row_bytes.max(1)).clamp(4, 1 << 20);
        Ok(LandmarkOracle {
            n,
            landmarks,
            lm_rows,
            max_bound,
            cache: RwLock::new(RowCache {
                map: HashMap::with_capacity(cache_cap),
                owner: Vec::with_capacity(cache_cap),
                rows: Vec::with_capacity(cache_cap),
            }),
            cache_cap,
            slot_stamp: (0..cache_cap).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(0),
        })
    }

    /// The chosen landmark vertices, in selection order.
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// Exact-row cache capacity in rows.
    pub fn cache_capacity(&self) -> usize {
        self.cache_cap
    }

    #[inline]
    fn stamp(&self, slot: usize) {
        let t = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.slot_stamp[slot].store(t, Ordering::Relaxed);
    }

    /// Run `f` over the exact row `d(·, dst)`, fetching or computing it.
    fn with_dst_row<R>(&self, g: &CsrGraph, dst: VertexId, f: impl FnOnce(&[u16]) -> R) -> R {
        {
            let cache = self.cache.read().unwrap_or_else(|e| e.into_inner());
            if let Some(&slot) = cache.map.get(&dst) {
                self.stamp(slot);
                return f(&cache.rows[slot]);
            }
        }
        // Miss: BFS outside any lock (undirected graph, so the ball *from*
        // `dst` is the column *toward* it).
        let mut row = vec![0u16; self.n];
        let mut queue = VecDeque::new();
        bfs_distances_into(g, dst, &mut row, &mut queue);
        let mut cache = self.cache.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&slot) = cache.map.get(&dst) {
            // A sibling shard raced us to the same destination.
            self.stamp(slot);
            return f(&cache.rows[slot]);
        }
        let slot = if cache.rows.len() < self.cache_cap {
            cache.rows.push(row);
            cache.owner.push(dst);
            cache.rows.len() - 1
        } else {
            let victim = (0..self.cache_cap)
                .min_by_key(|&s| self.slot_stamp[s].load(Ordering::Relaxed))
                .expect("cache capacity is at least 4");
            let old = cache.owner[victim];
            cache.map.remove(&old);
            cache.rows[victim] = row;
            cache.owner[victim] = dst;
            victim
        };
        cache.map.insert(dst, slot);
        self.stamp(slot);
        f(&cache.rows[slot])
    }

    /// The ALT bounds for `(u, v)`: `Some(d)` when they pin the distance
    /// exactly (including the cross-component case, which one landmark row
    /// already decides).
    #[inline]
    fn alt_exact(&self, u: VertexId, v: VertexId) -> Option<u16> {
        let n = self.n;
        let mut lb = 0u16;
        let mut ub = UNREACHABLE_U16;
        for l in 0..self.landmarks.len() {
            let du = self.lm_rows[l * n + u as usize];
            let dv = self.lm_rows[l * n + v as usize];
            match (du == UNREACHABLE_U16, dv == UNREACHABLE_U16) {
                (true, true) => continue, // both outside this landmark's component
                (true, false) | (false, true) => return Some(UNREACHABLE_U16),
                (false, false) => {
                    lb = lb.max(du.abs_diff(dv));
                    ub = ub.min(du.saturating_add(dv));
                }
            }
        }
        (lb == ub).then_some(ub)
    }

    /// Visit each minimal port through an exact destination row — the same
    /// predicate as the dense scan.
    #[inline]
    fn for_each_min_port(
        &self,
        g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        mut f: impl FnMut(usize),
    ) {
        if current == dst {
            return;
        }
        self.with_dst_row(g, dst, |row| {
            let d = row[current as usize];
            if d == UNREACHABLE_U16 {
                return;
            }
            for (i, &w) in g.neighbors(current).iter().enumerate() {
                if row[w as usize].saturating_add(1) == d {
                    f(i);
                }
            }
        });
    }
}

impl PathOracle for LandmarkOracle {
    fn n(&self) -> usize {
        self.n
    }

    fn dist(&self, g: &CsrGraph, from: VertexId, to: VertexId) -> u16 {
        if from == to {
            return 0;
        }
        if let Some(d) = self.alt_exact(from, to) {
            return d;
        }
        self.with_dst_row(g, to, |row| row[from as usize])
    }

    fn min_ports_u8<'a>(
        &'a self,
        g: &CsrGraph,
        current: VertexId,
        dst: VertexId,
        scratch: &'a mut Vec<u8>,
    ) -> &'a [u8] {
        scratch.clear();
        self.for_each_min_port(g, current, dst, |i| scratch.push(i as u8));
        scratch
    }

    fn min_ports_into(&self, g: &CsrGraph, current: VertexId, dst: VertexId, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_min_port(g, current, dst, |i| out.push(i));
    }

    fn max_distance_bound(&self) -> u16 {
        self.max_bound
    }

    fn memory_bytes(&self) -> usize {
        self.lm_rows.len() * 2 + self.cache_cap * self.n * 2
    }

    fn kind(&self) -> OracleKind {
        OracleKind::Landmark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_graph(n: usize) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
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

    /// Assert an oracle agrees with the dense matrix on every pair: distances
    /// and minimal-port *sets* (ascending order included).
    fn assert_matches_dense(g: &CsrGraph, oracle: &dyn PathOracle) {
        let dm = DistanceMatrix::from_graph(g);
        let n = g.num_vertices() as VertexId;
        let mut scratch = Vec::new();
        let mut wide = Vec::new();
        for u in 0..n {
            for v in 0..n {
                assert_eq!(oracle.dist(g, u, v), dm.dist(u, v), "dist({u}, {v})");
                let expect = dm.min_next_ports(g, u, v);
                let got: Vec<usize> = oracle
                    .min_ports_u8(g, u, v, &mut scratch)
                    .iter()
                    .map(|&p| p as usize)
                    .collect();
                assert_eq!(got, expect, "min_ports_u8({u}, {v})");
                oracle.min_ports_into(g, u, v, &mut wide);
                assert_eq!(wide, expect, "min_ports_into({u}, {v})");
            }
        }
        assert_eq!(oracle.n(), g.num_vertices());
        assert!(oracle.max_distance_bound() >= dm.max_reachable_distance());
    }

    /// The hypercube is the Cayley graph of (Z/2)^d with unit generators:
    /// `u⁻¹·v = u XOR v` and the identity is vertex 0.
    fn hypercube_cayley(dim: u32) -> (CsrGraph, CayleyOracle) {
        let g = hypercube(dim);
        let oracle =
            CayleyOracle::new(&g, 0, Box::new(|u, v| u ^ v), 0).expect("valid translation");
        (g, oracle)
    }

    #[test]
    fn dense_oracle_matches_matrix() {
        for g in [cycle_graph(9), hypercube(4)] {
            let oracle = DenseOracle::build(&g).unwrap();
            assert!(oracle.table().is_some());
            assert_matches_dense(&g, &oracle);
            assert_eq!(oracle.kind(), OracleKind::Dense);
            // The scan path must agree with the table path.
            let scan = DenseOracle::build(&g).unwrap().without_table();
            assert!(scan.table().is_none());
            assert_matches_dense(&g, &scan);
        }
    }

    #[test]
    fn cayley_oracle_exact_on_hypercube() {
        let (g, oracle) = hypercube_cayley(4);
        assert_matches_dense(&g, &oracle);
        assert_eq!(oracle.kind(), OracleKind::Cayley);
        assert_eq!(oracle.max_distance_bound(), 4);
        assert_eq!(oracle.identity(), 0);
    }

    /// The cycle is the Cayley graph of Z/n with generators ±1.
    #[test]
    fn cayley_oracle_exact_on_cycle() {
        let n = 12u32;
        let g = cycle_graph(n as usize);
        let oracle = CayleyOracle::new(&g, 0, Box::new(move |u, v| (v + n - u) % n), 0).unwrap();
        assert_matches_dense(&g, &oracle);
    }

    #[test]
    fn cayley_oracle_rejects_wrong_translation() {
        let g = hypercube(3);
        // A translation map for the wrong group: addition mod 8 is not the
        // hypercube's group, so neighbours do not translate to distance 1.
        let err = CayleyOracle::new(&g, 0, Box::new(|u, v| (v + 8 - u) % 8), 0).unwrap_err();
        assert!(matches!(err, OracleError::Inconsistent(_)), "{err}");
        // And an out-of-range identity is rejected up front.
        let err = CayleyOracle::new(&g, 99, Box::new(|u, v| u ^ v), 0).unwrap_err();
        assert!(matches!(err, OracleError::Inconsistent(_)), "{err}");
    }

    /// A translation that is right wherever a 64-vertex sample looks — every
    /// multiple of 4 in the 256-vertex hypercube — and wrong on one edge out
    /// of an unsampled vertex: only visiting every edge finds it.
    #[test]
    fn cayley_oracle_rejects_one_wrong_unsampled_edge() {
        let g = hypercube(8);
        for wrong in [6, 1] {
            // 6 is no generator at all; 1 is the generator of another port of 5.
            let diff = move |u, v| if (u, v) == (5, 7) { wrong } else { u ^ v };
            let err = CayleyOracle::new(&g, 0, Box::new(diff), 0).unwrap_err();
            assert!(matches!(err, OracleError::Inconsistent(_)), "{err}");
        }
        // Right on every edge, wrong from a sampled vertex to a sampled vertex's
        // neighbour: the port-carrying check is what sees a translation that
        // is no automorphism.
        let diff = |u, v| if (u, v) == (4, 9) { 12 } else { u ^ v };
        let err = CayleyOracle::new(&g, 0, Box::new(diff), 0).unwrap_err();
        assert!(matches!(err, OracleError::Inconsistent(_)), "{err}");
    }

    /// A path is not regular: a typed error, not a label row indexed past its end.
    #[test]
    fn cayley_oracle_rejects_irregular_graph() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        for identity in [0, 1] {
            let err =
                CayleyOracle::new(&g, identity, Box::new(|u, v| (v + 4 - u) % 4), 0).unwrap_err();
            assert!(matches!(err, OracleError::Inconsistent(_)), "{err}");
        }
    }

    #[test]
    fn landmark_oracle_exact_on_small_graphs() {
        for g in [
            cycle_graph(9),
            hypercube(4),
            CsrGraph::from_edges(4, &[(0, 1), (2, 3)]), // disconnected
        ] {
            let oracle = LandmarkOracle::build_with(&g, 3, 1 << 20).unwrap();
            assert_matches_dense(&g, &oracle);
            assert_eq!(oracle.kind(), OracleKind::Landmark);
        }
    }

    #[test]
    fn landmark_oracle_exact_under_tiny_cache() {
        // A cache capacity at the floor (4 rows) for 16 destinations forces
        // constant eviction; answers must stay exact regardless.
        let g = hypercube(4);
        let oracle = LandmarkOracle::build_with(&g, 2, 1).unwrap();
        assert_eq!(oracle.cache_capacity(), 4);
        assert_matches_dense(&g, &oracle);
        // Second sweep hits the warmed/evicted cache in a different access order.
        let mut scratch = Vec::new();
        for v in (0..16u32).rev() {
            for u in 0..16u32 {
                assert_eq!(oracle.dist(&g, u, v) as u32, (u ^ v).count_ones());
                let _ = oracle.min_ports_u8(&g, u, v, &mut scratch);
            }
        }
    }

    #[test]
    fn landmark_selection_covers_components() {
        // Two components: farthest-point sampling must place a landmark in
        // each before refining either.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let oracle = LandmarkOracle::build_with(&g, 2, 1 << 20).unwrap();
        let comp = |v: VertexId| (v >= 3) as u8;
        let covered: std::collections::HashSet<u8> =
            oracle.landmarks().iter().map(|&l| comp(l)).collect();
        assert_eq!(covered.len(), 2, "landmarks: {:?}", oracle.landmarks());
        assert_matches_dense(&g, &oracle);
    }

    #[test]
    fn typed_errors_from_dense_construction() {
        // try_from_graph on an oversized graph: typed, no panic. Use a cheap
        // synthetic check through the error type instead of allocating 4 GB:
        // the radix guard is exercised via NextHopTable on a star.
        let edges: Vec<(u32, u32)> = (1..=300u32).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(301, &edges);
        let dm = DistanceMatrix::from_graph(&g);
        let err = NextHopTable::try_build(&g, &dm, NextHopTable::DEFAULT_BUDGET_BYTES).unwrap_err();
        assert_eq!(
            err,
            OracleError::RadixTooLarge {
                max_degree: 300,
                max: 255
            }
        );
        let g = hypercube(4);
        let dm = DistanceMatrix::from_graph(&g);
        let err = NextHopTable::try_build(&g, &dm, 16).unwrap_err();
        assert!(matches!(err, OracleError::BudgetExceeded { .. }), "{err}");
        // Errors render human-readable.
        assert!(format!("{err}").contains("budget"));
    }

    #[test]
    fn oracle_trait_objects_are_shareable() {
        let g = hypercube(3);
        let oracle: Arc<dyn PathOracle> = Arc::new(DenseOracle::build(&g).unwrap());
        let g2 = g.clone();
        let o2 = Arc::clone(&oracle);
        let h = std::thread::spawn(move || o2.dist(&g2, 0, 7));
        assert_eq!(h.join().unwrap(), 3);
        assert_eq!(oracle.dist(&g, 0, 7), 3);
    }
}
