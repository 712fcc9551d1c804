//! The host-speed reference: a fixed piece of work, timed between the
//! benchmark's own measurements, that says how fast the host is right now.
//!
//! The sandbox is a microVM on a shared host whose speed changes by 20–50 %
//! from second to second and from minute to minute (README "Measured
//! steadiness"), which no statistic over raw host time averages away. So the
//! end-to-end times are reported **relative to this reference**: a time's
//! median is divided by the reference's median slowness over the same phase.
//! The reference is a toy discrete-event loop — a binary heap of pending
//! events, two dependent reads in a table larger than the private caches per
//! event — because that is what slows down the way the simulator does; a
//! register-only kernel does not. It uses the standard library only, so no
//! change to the simulator can move it.

use crate::metrics::median;
use crate::workloads::Scale;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one full-scale `Reference::sample` took on the quiet 2-core host
/// when the benchmark was defined. It only fixes the scale: a slowness of 1.0
/// is that host on a quiet minute, and a normalised second is a second there.
pub const NOMINAL_S: f64 = 0.2;

/// Entries of the table: 32 MiB, eight times the private L2.
const TABLE: usize = 1 << 22;
/// Events pending in the heap at any time.
const LIVE: u64 = 200_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

pub struct Reference {
    table: Vec<u64>,
    events: u64,
}

impl Reference {
    pub fn new(scale: Scale) -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        let table = (0..TABLE)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        let events = match scale {
            Scale::Full => 600_000,
            Scale::Smoke => 6_000,
        };
        Reference { table, events }
    }

    /// Seconds the fixed work takes now. Every sample does identical work.
    pub fn sample(&self) -> f64 {
        let t0 = Instant::now();
        let live = LIVE.min(self.events);
        let mask = TABLE - 1;
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut heap = BinaryHeap::with_capacity(live as usize);
        for id in 0..live {
            x = xorshift(x);
            heap.push(Reverse((x % 1000, id)));
        }
        for _ in 0..self.events {
            let Reverse((time, id)) = heap.pop().expect("the heap holds `live` events");
            x = xorshift(x);
            let first = self.table[x as usize & mask];
            let second = self.table[(first ^ time) as usize & mask];
            heap.push(Reverse((time + 1 + (second ^ x) % 500, id)));
        }
        black_box(heap.len());
        t0.elapsed().as_secs_f64()
    }

    /// The two samples taken in every gap between timed rounds.
    pub fn gap(&self) -> [f64; 2] {
        [self.sample(), self.sample()]
    }
}

/// How much slower than nominal the host ran while `samples` were taken.
pub fn slowness(samples: &[f64]) -> f64 {
    median(samples) / NOMINAL_S
}
