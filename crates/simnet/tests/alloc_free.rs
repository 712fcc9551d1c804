//! The hot-path allocation contract: in steady state, one routing decision makes
//! **zero heap allocations** — on the packed-table strategy and on the matrix-scan
//! fallback (whose scratch buffer allocates once, during warmup, then is reused).
//!
//! A counting global allocator wraps `System`; the test drives decisions through
//! `RoutingHarness` (exactly the per-hop path the engines run: packed minimal-port
//! query, two-pass tie-break, congestion signals, intermediate sampling) and
//! asserts the allocation counter does not move.

use spectralfly_graph::{CayleyOracle, CsrGraph};
use spectralfly_simnet::{RoutingHarness, SimConfig, SimNetwork};
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

#[test]
fn routing_decisions_are_allocation_free_in_steady_state() {
    let n = 24u32;
    let table_net = SimNetwork::new(chordal_ring(n as usize), 1);
    assert!(table_net.next_hop_table().is_some());
    let scan_net = table_net.clone().without_next_hop_table();

    for name in ["minimal", "valiant", "ugal-l", "ugal-g"] {
        for (strategy, net) in [("table", &table_net), ("scan", &scan_net)] {
            let cfg = SimConfig::default().with_routing(name, net.diameter() as u32);
            let mut harness = RoutingHarness::new(net, &cfg);
            harness.warm();
            // Warmup: let lazily-grown state (the scan scratch buffer) reach its
            // steady-state capacity.
            allocations_for(&mut harness, 256);
            // Steady state: not a single allocation across many decisions.
            let allocs = allocations_for(&mut harness, 4096);
            assert_eq!(
                allocs, 0,
                "{name}/{strategy}: {allocs} heap allocations in 4096 steady-state decisions"
            );
        }
    }
}

/// The scan fallback allocates only during warmup (growing its scratch buffer),
/// never per decision afterwards — quantify that the warmup itself is bounded.
#[test]
fn scan_fallback_warmup_allocations_are_bounded() {
    let n = 24u32;
    let net = SimNetwork::new(chordal_ring(n as usize), 1).without_next_hop_table();
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
