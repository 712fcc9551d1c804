//! # spectralfly-simnet
//!
//! A coarse-grained, cycle-accurate-enough packet-level interconnect simulator — the
//! substitute for SST/macro's SNAPPR network model used in Section VI of the paper.
//!
//! What is modelled (matching the knobs the paper reports):
//!
//! * store-and-forward packet switching with per-link serialization (bandwidth), link
//!   propagation latency, and per-hop router latency;
//! * finite per-virtual-channel input buffers with credit-based backpressure: every
//!   directed link holds one credit per downstream buffer slot of each VC, spends one
//!   to transmit, and gets it back a link + router latency after the packet leaves
//!   that slot;
//! * deadlock avoidance by incrementing the virtual channel on every hop
//!   (`diameter + 1` VCs for minimal routing, `2·diameter + 1` for Valiant — Section V-A);
//! * a **pluggable routing subsystem** ([`routing`]): algorithms implement the
//!   [`routing::Router`] trait and are selected by name through a string-keyed
//!   registry that the run carries ([`Registries`], which a caller may extend).
//!   Built-ins: **minimal** (adaptive among all shortest-path next hops),
//!   **Valiant**, **UGAL-L**, and **UGAL-G** (Section V, plus the global-queue
//!   variant the paper discusses as UGAL's idealized form);
//! * Poisson packet injection to sweep offered load;
//! * a **pluggable traffic-pattern subsystem** ([`pattern`]) on the same
//!   registry ([`spec::Registry`]): synthetic patterns implement [`pattern::TrafficPattern`] and are
//!   selected by spec string (`"random"`, `"tornado"`, `"hotspot(8, 0.2)"`,
//!   `"adversarial(128)"`, …) and sampled live by the steady-state sources of
//!   an open-loop job such as `traffic(1, tornado)`;
//! * a **fault-injection subsystem** ([`fault`]) over a closed list of fault
//!   models: a seeded [`fault::FaultPlan`] (spec strings like
//!   `"links(0.1)"` or `"routers(4)+link(0,1)"`) degrades the topology at
//!   [`SimNetwork::with_faults`] construction, the distance / next-hop oracle
//!   is rebuilt over the surviving graph so every algorithm routes around the
//!   damage with zero hot-path branching, and infeasible runs fail fast with
//!   [`fault::FaultError`] through [`Simulator::try_run`] /
//!   [`Simulator::try_run_with_offered_load`];
//! * **one wakeup-driven event core** ([`engine`]): a link out of credits parks and is
//!   woken by one event when the first matching credit returns — no time-based retry
//!   polling — over a packet arena and an event queue of sorted lanes beside a heap;
//! * **sharding** of that core: routers are partitioned into [`SimConfig::shards`]
//!   shards by recursive spectral bisection, which advance in epochs bounded by the
//!   link + router latency lookahead — one shard on the calling thread, more on
//!   barrier-synchronized worker threads — with shard-count-invariant results
//!   (the shard count is a performance knob, never a semantics knob);
//! * **steady-state measurement** ([`config::MeasurementWindows`]): the job mix's
//!   continuous sources with warmup/measurement/drain windows and an interval
//!   time-series ([`stats::IntervalSample`]), so offered-load sweeps measure true
//!   saturation behaviour instead of drain-to-empty completion times;
//! * a **job/tenant subsystem** ([`job`]) over a closed list of jobs: a mix
//!   spec like
//!   `"allreduce-ring(4096) x 64 + traffic(0.9, adversarial(8), 4096) x 128"`
//!   ([`SimConfig::with_jobs`]) places co-resident tenants — dependency-ordered
//!   collectives (`allreduce-ring`, `allreduce-tree`, `alltoall`, `allgather`,
//!   and the Ember application motifs `halo3d`, `sweep3d`, `fft3d`, whose rounds
//!   wait on each rank's own inbound messages like the MPI skeletons they model)
//!   and bursty open-loop sources (`traffic`, `mmpp`, `onoff`) — onto disjoint
//!   endpoint ranges (contiguous / random / `group(k)` placement) — a steady
//!   run's only traffic — and every run reports per-tenant
//!   [`stats::TenantStats`]: latency percentiles,
//!   goodput, and collective completion.
//!
//! Path state (distances, minimal next hops) comes from the shared oracle in
//! [`spectralfly_graph::paths`], the same one the analytical layer uses.
//!
//! What is *not* modelled: flit-level wormhole detail, QoS priority queues, and adaptive
//! injection throttling. The paper's results are *relative speedups between topologies*,
//! which this level of detail reproduces; absolute times differ from SST/macro.
//!
//! ```
//! use spectralfly_simnet::{SimConfig, SimNetwork, Simulator};
//! use spectralfly_simnet::workload::Workload;
//! use spectralfly_graph::CsrGraph;
//!
//! // A tiny 4-router ring with 2 endpoints per router.
//! let ring = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let net = SimNetwork::new(ring, 2);
//! let wl = Workload::uniform_random(net.num_endpoints(), 20, 256, 1);
//! // Algorithms are picked by registry name ("minimal", "valiant", "ugal-l", "ugal-g").
//! let cfg = SimConfig::default().with_routing("ugal-g", net.diameter() as u32);
//! let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
//! assert_eq!(res.delivered_packets, 20 * net.num_endpoints() as u64);
//! ```

#![warn(missing_docs)]
#![warn(clippy::missing_panics_doc)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod fault;
pub mod job;
pub mod network;
pub mod pattern;
pub mod routing;
pub mod spec;
pub mod stats;
pub mod workload;

pub use config::{MeasurementWindows, Registries, SimConfig};
pub use engine::{ParallelSimulator, SimError, Simulator};
pub use fault::{
    FaultError, FaultEvent, FaultEventKind, FaultPlan, FaultScript, FaultTimeline, Infeasible,
};
pub use job::{JobBehavior, JobCtx, JobError, MixPlan, Schedule};
pub use network::SimNetwork;
pub use pattern::{PatternCtx, PatternError, PatternRegistry, TrafficPattern};
pub use routing::{Router, RouterRegistry, RoutingCtx, RoutingHarness, RoutingState};
pub use stats::{
    CollectiveOutcome, EngineCounters, FaultStats, IntervalSample, MeasurementSummary, SimResults,
    TenantDesc, TenantStats,
};
pub use workload::{Message, Workload};
