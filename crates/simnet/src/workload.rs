//! Workloads: flat message lists injected into the simulator.
//!
//! A workload drives a finite, drain-to-empty run: [`Workload::uniform_random`]
//! is every endpoint sending to uniformly random others, injected back to back
//! or, with an offered load, at a Poisson pace. A workload has no internal
//! ordering: every message is injectable from the start. Steady-state traffic —
//! the synthetic micro-benchmarks of Section VI-C (uniform random, bit shuffle,
//! bit reverse, transpose) included — is a [`crate::job`] mix whose sources draw
//! destinations live from a [`crate::pattern`]; traffic whose messages depend on
//! one another — the collectives and the Ember application motifs (Halo3D-26,
//! Sweep3D, FFT) — is a [`crate::job`] schedule.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// A point-to-point message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Source endpoint id.
    pub src: usize,
    /// Destination endpoint id.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Injection offset (picoseconds) relative to the start of the run.
    pub inject_offset_ps: u64,
}

/// A complete workload.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// The messages, all injectable from the start of the run.
    pub messages: Vec<Message>,
    /// Human-readable name for reports.
    pub name: String,
}

impl Workload {
    /// A workload from its message list.
    pub fn new(name: &str, messages: Vec<Message>) -> Self {
        Workload {
            messages,
            name: name.to_string(),
        }
    }

    /// Total number of messages.
    pub fn num_messages(&self) -> usize {
        self.messages.len()
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.bytes).sum()
    }

    /// Largest endpoint id referenced (for validation against a network).
    pub fn max_endpoint(&self) -> Option<usize> {
        self.messages.iter().map(|m| m.src.max(m.dst)).max()
    }

    /// Uniform-random traffic: every endpoint sends `msgs_per_endpoint` messages of
    /// `bytes` each to uniformly random other endpoints, injected back-to-back.
    pub fn uniform_random(
        endpoints: usize,
        msgs_per_endpoint: usize,
        bytes: u64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut messages = Vec::with_capacity(endpoints * msgs_per_endpoint);
        for src in 0..endpoints {
            for i in 0..msgs_per_endpoint {
                let mut dst = rng.gen_range(0..endpoints);
                if dst == src {
                    dst = (dst + 1) % endpoints;
                }
                messages.push(Message {
                    src,
                    dst,
                    bytes,
                    inject_offset_ps: i as u64, // ordering hint; spacing handled by the engine
                });
            }
        }
        Workload::new("random", messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_random_has_no_self_messages() {
        let wl = Workload::uniform_random(32, 5, 128, 3);
        assert_eq!(wl.num_messages(), 160);
        for m in &wl.messages {
            assert_ne!(m.src, m.dst);
            assert!(m.src < 32 && m.dst < 32);
        }
        assert_eq!(wl.total_bytes(), 160 * 128);
    }
}
