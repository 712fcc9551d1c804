//! The hot-path allocation contract: in steady state, one routing decision makes
//! **zero heap allocations** — the oracle's scratch buffer allocates once, during
//! warmup, then is reused.
//!
//! A counting global allocator wraps `System`; the test drives decisions through
//! `RoutingHarness` (exactly the per-hop path the engines run: minimal-port
//! query, two-pass tie-break, congestion signals, intermediate sampling) and
//! asserts the allocation counter does not move — for the built-in algorithms
//! and for a custom one that reads `RoutingCtx::minimal_ports` itself. One engine-level check rides
//! along: the link queues thread through the packet arena, so a whole run
//! allocates fewer times than the network has directed links.

use spectralfly_graph::{CayleyOracle, CsrGraph};
use spectralfly_simnet::routing::{Router, RoutingCtx, RoutingState};
use spectralfly_simnet::{
    Message, Registries, RoutingHarness, SimConfig, SimNetwork, Simulator, Workload,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// Per-thread allocation count: the libtest harness allocates on its own
    /// threads (progress printing, test bookkeeping) concurrently with the
    /// measurement, so a process-global counter would flake.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the TLS slot may be unavailable during thread teardown.
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn chordal_ring(n: usize) -> CsrGraph {
    // Ring spine plus fixed-stride chords: several equal-length minimal paths per
    // pair, so the tie-breaking walk is actually exercised.
    let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    for i in 0..n as u32 {
        edges.push((i, (i + 5) % n as u32));
    }
    CsrGraph::from_edges(n, &edges)
}

/// Drive `iters` decisions over all (src, dst) pairs in rotation (the same
/// stream the microbenches use) and return how many heap allocations they made.
fn allocations_for(harness: &mut RoutingHarness<'_>, iters: u64) -> u64 {
    let before = thread_allocations();
    for i in 0..iters {
        std::hint::black_box(harness.decide_round_robin(i));
    }
    thread_allocations() - before
}

/// The `routing` module's documented custom algorithm: always the first
/// minimal port.
struct FirstMinimal;

impl Router for FirstMinimal {
    fn name(&self) -> &str {
        "first-minimal"
    }
    fn route(&self, ctx: &mut RoutingCtx<'_>, state: &mut RoutingState) -> usize {
        let target = state.current_target(ctx.dst());
        usize::from(ctx.minimal_ports(target)[0])
    }
}

#[test]
fn routing_decisions_are_allocation_free_in_steady_state() {
    let registries = Registries::default()
        .with_router("first-minimal", || Box::new(FirstMinimal))
        .unwrap();
    let net = SimNetwork::new(chordal_ring(24), 1);
    for name in ["minimal", "valiant", "ugal-l", "ugal-g", "first-minimal"] {
        let cfg = SimConfig::from(registries.clone()).with_routing(name, net.diameter() as u32);
        let mut harness = RoutingHarness::new(&net, &cfg);
        harness.warm();
        // Warmup: let lazily-grown state (the scan scratch buffer) reach its
        // steady-state capacity.
        allocations_for(&mut harness, 256);
        // Steady state: not a single allocation across many decisions.
        let allocs = allocations_for(&mut harness, 4096);
        assert_eq!(
            allocs, 0,
            "{name}: {allocs} heap allocations in 4096 steady-state decisions"
        );
    }
}

/// The scan allocates only during warmup (growing its scratch buffer), never
/// per decision afterwards — quantify that the warmup itself is bounded.
#[test]
fn scan_warmup_allocations_are_bounded() {
    let net = SimNetwork::new(chordal_ring(24), 1);
    let cfg = SimConfig::default().with_routing("ugal-g", net.diameter() as u32);
    let mut harness = RoutingHarness::new(&net, &cfg);
    let warmup_allocs = allocations_for(&mut harness, 256);
    // The scratch buffer doubles at most log2(radix) times; anything beyond a
    // handful of allocations means a per-decision allocation crept back in.
    assert!(
        warmup_allocs < 16,
        "scan warmup made {warmup_allocs} allocations (expected a few buffer growths)"
    );
    assert_eq!(allocations_for(&mut harness, 4096), 0);
}

/// The engine's queues allocate nothing per link: they thread through the
/// packet arena. In a finite one-shard run where every router sends one
/// packet to each neighbour — whose one minimal route is the link between
/// them, so every directed link queues a packet — the whole run, simulator
/// construction included, makes fewer heap allocations than there are
/// directed links.
#[test]
fn link_queues_allocate_nothing_per_link() {
    let net = SimNetwork::new(chordal_ring(256), 1);
    let g = net.graph();
    let messages: Vec<Message> = (0..g.num_vertices())
        .flat_map(|src| {
            g.neighbors(src as u32).iter().map(move |&dst| Message {
                src,
                dst: dst as usize,
                bytes: 64,
                inject_offset_ps: 0,
            })
        })
        .collect();
    let (packets, links) = (messages.len() as u64, net.num_directed_links() as u64);
    assert_eq!(packets, links);
    let wl = Workload::new("neighbours", messages);
    let cfg = SimConfig::default();
    let before = thread_allocations();
    let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
    let allocs = thread_allocations() - before;
    assert_eq!((res.delivered_packets, res.max_hops), (packets, 1));
    assert!(
        allocs < links,
        "{allocs} heap allocations for a run over {links} directed links"
    );
}

/// The Cayley oracle keeps the contract too: a decision is one translation, a
/// descent row and a label row, written into the harness's scratch. The
/// 6-cube is the Cayley graph of (Z/2)⁶ — `u⁻¹·v = u ^ v` — with up to six
/// equal-length minimal ports per pair.
#[test]
fn cayley_backed_decisions_are_allocation_free_in_steady_state() {
    let dim = 6;
    let edges: Vec<(u32, u32)> = (0..1u32 << dim)
        .flat_map(|v| (0..dim).map(move |b| (v, v ^ (1 << b))))
        .collect();
    let g = CsrGraph::from_edges(1 << dim, &edges);
    let oracle = CayleyOracle::new(&g, 0, Box::new(|u, v| u ^ v), 0).expect("xor translates");
    let net = SimNetwork::with_oracle(g, 1, Arc::new(oracle));

    for name in ["minimal", "ugal-l"] {
        let cfg = SimConfig::default().with_routing(name, net.diameter() as u32);
        let mut harness = RoutingHarness::new(&net, &cfg);
        harness.warm();
        allocations_for(&mut harness, 256);
        let allocs = allocations_for(&mut harness, 4096);
        assert_eq!(
            allocs, 0,
            "{name}/cayley: {allocs} heap allocations in 4096 steady-state decisions"
        );
    }
}
