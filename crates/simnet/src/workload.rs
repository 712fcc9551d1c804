//! Workloads: flat message lists injected into the simulator.
//!
//! The synthetic micro-benchmarks of Section VI-C (uniform random, bit shuffle, bit
//! reverse, transpose) are workloads whose destinations are permutations of the endpoint
//! id's bit representation, with Poisson-spaced injections to model offered load. A
//! workload has no internal ordering: every message is injectable from the start. Traffic
//! whose messages depend on one another — the collectives and the Ember application motifs
//! (Halo3D-26, Sweep3D, FFT) — is a [`crate::job`] schedule instead.

use crate::pattern::{PatternCtx, PatternError};
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

    /// Permutation traffic over `2^bits` logical ranks mapped onto the first `2^bits`
    /// endpoints: each rank sends `msgs_per_rank` messages to `perm(rank)`.
    fn bit_permutation(
        name: &str,
        bits: u32,
        msgs_per_rank: usize,
        bytes: u64,
        perm: impl Fn(usize, u32) -> usize,
    ) -> Self {
        let ranks = 1usize << bits;
        let mut messages = Vec::with_capacity(ranks * msgs_per_rank);
        for src in 0..ranks {
            let dst = perm(src, bits) % ranks;
            if dst == src {
                continue;
            }
            for i in 0..msgs_per_rank {
                messages.push(Message {
                    src,
                    dst,
                    bytes,
                    inject_offset_ps: i as u64,
                });
            }
        }
        Workload::new(name, messages)
    }

    /// Bit-shuffle traffic (rotate the rank's bits left by one) — FFT / sorting pattern.
    pub fn bit_shuffle(bits: u32, msgs_per_rank: usize, bytes: u64) -> Self {
        Self::bit_permutation("bit-shuffle", bits, msgs_per_rank, bytes, |r, b| {
            let mask = (1usize << b) - 1;
            ((r << 1) | (r >> (b - 1))) & mask
        })
    }

    /// Bit-reverse traffic (reverse the rank's bit representation).
    pub fn bit_reverse(bits: u32, msgs_per_rank: usize, bytes: u64) -> Self {
        Self::bit_permutation("bit-reverse", bits, msgs_per_rank, bytes, |r, b| {
            let mut out = 0usize;
            for i in 0..b {
                if r & (1 << i) != 0 {
                    out |= 1 << (b - 1 - i);
                }
            }
            out
        })
    }

    /// Transpose traffic (swap the high and low halves of the rank's bits) — matrix
    /// transpose pattern.
    pub fn transpose(bits: u32, msgs_per_rank: usize, bytes: u64) -> Self {
        Self::bit_permutation("transpose", bits, msgs_per_rank, bytes, |r, b| {
            let half = b / 2;
            let low_mask = (1usize << half) - 1;
            let low = r & low_mask;
            let high = r >> half;
            (low << (b - half)) | high
        })
    }

    /// Build a named synthetic pattern over `2^bits` ranks by resolving `pattern`
    /// through the traffic-pattern registry ([`crate::pattern`]) and
    /// materializing it — any registered spec works (`"random"`, `"tornado"`,
    /// `"hotspot(8, 0.2)"`, custom registrations, …).
    ///
    /// Unknown or malformed specs return a [`PatternError`] naming the
    /// registered patterns instead of panicking, mirroring how the routing
    /// registry reports unknown algorithm names.
    pub fn synthetic(
        pattern: &str,
        bits: u32,
        msgs_per_rank: usize,
        bytes: u64,
        seed: u64,
    ) -> Result<Self, PatternError> {
        let ctx = PatternCtx::new(1usize << bits);
        let p = crate::pattern::create(pattern, &ctx)?;
        Ok(p.workload(msgs_per_rank, bytes, seed))
    }

    /// Remap every rank id through `placement` (rank → endpoint), e.g. to scatter a job's
    /// ranks across a larger machine (the paper's random node allocation under
    /// under-subscription).
    pub fn place(&self, placement: &[usize]) -> Workload {
        let placed = |m: &Message| Message {
            src: placement[m.src],
            dst: placement[m.dst],
            ..*m
        };
        Workload {
            messages: self.messages.iter().map(placed).collect(),
            name: self.name.clone(),
        }
    }
}

/// A random placement of `ranks` logical ranks onto `endpoints` physical endpoints
/// (deterministic in `seed`), used when a job under-subscribes the machine.
pub fn random_placement(ranks: usize, endpoints: usize, seed: u64) -> Vec<usize> {
    use rand::seq::SliceRandom;
    assert!(
        ranks <= endpoints,
        "cannot place {ranks} ranks on {endpoints} endpoints"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots: Vec<usize> = (0..endpoints).collect();
    slots.shuffle(&mut rng);
    slots.truncate(ranks);
    slots
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

    #[test]
    fn shuffle_is_a_left_rotation() {
        let wl = Workload::bit_shuffle(4, 1, 64);
        for m in &wl.messages {
            let expected = ((m.src << 1) | (m.src >> 3)) & 0xF;
            assert_eq!(m.dst, expected);
        }
    }

    #[test]
    fn bit_reverse_is_an_involution() {
        let wl = Workload::bit_reverse(6, 1, 64);
        for m in &wl.messages {
            // Reversing twice returns the source.
            let rev = |r: usize| -> usize {
                let mut out = 0;
                for i in 0..6 {
                    if r & (1 << i) != 0 {
                        out |= 1 << (5 - i);
                    }
                }
                out
            };
            assert_eq!(rev(m.dst), m.src);
        }
    }

    #[test]
    fn transpose_swaps_halves() {
        let wl = Workload::transpose(6, 1, 64);
        for m in &wl.messages {
            let low = m.src & 0b111;
            let high = m.src >> 3;
            assert_eq!(m.dst, (low << 3) | high);
        }
    }

    #[test]
    fn fixed_points_are_skipped() {
        // Rank 0 is a fixed point of every bit permutation and must not send to itself.
        for wl in [
            Workload::bit_shuffle(5, 2, 64),
            Workload::bit_reverse(5, 2, 64),
            Workload::transpose(4, 2, 64),
        ] {
            for m in &wl.messages {
                assert_ne!(m.src, m.dst);
            }
        }
    }

    #[test]
    fn placement_remaps_endpoints() {
        let wl = Workload::transpose(3, 1, 64);
        let placement = random_placement(8, 64, 9);
        let placed = wl.place(&placement);
        assert_eq!(placed.num_messages(), wl.num_messages());
        for (a, b) in placed.messages.iter().zip(&wl.messages) {
            assert_eq!(a.src, placement[b.src]);
            assert_eq!(a.dst, placement[b.dst]);
        }
        // Placement must be injective.
        let set: std::collections::HashSet<_> = placement.iter().collect();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn synthetic_dispatch_resolves_through_the_pattern_registry() {
        assert!(Workload::synthetic("random", 4, 1, 64, 1).is_ok());
        assert!(Workload::synthetic("shuffle", 4, 1, 64, 1).is_ok());
        // Registry-only patterns (no legacy constructor) are reachable too.
        assert!(Workload::synthetic("tornado", 4, 1, 64, 1).is_ok());
        assert!(Workload::synthetic("hotspot(2, 0.5)", 4, 1, 64, 1).is_ok());
        // Unknown names are a proper error naming the candidates, not a panic.
        let err = Workload::synthetic("nonsense", 4, 1, 64, 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown traffic pattern"), "{msg}");
        assert!(msg.contains("tornado"), "{msg}");
    }

    #[test]
    fn synthetic_matches_legacy_constructors_bit_for_bit() {
        // The registry refactor must not perturb a single message of the
        // figures' workloads: pattern-materialized and legacy-constructed
        // workloads are identical, messages and names both.
        let cases: Vec<(Workload, Workload)> = vec![
            (
                Workload::synthetic("random", 5, 3, 256, 77).unwrap(),
                Workload::uniform_random(32, 3, 256, 77),
            ),
            (
                Workload::synthetic("shuffle", 5, 2, 128, 1).unwrap(),
                Workload::bit_shuffle(5, 2, 128),
            ),
            (
                Workload::synthetic("reverse", 6, 2, 128, 1).unwrap(),
                Workload::bit_reverse(6, 2, 128),
            ),
            (
                Workload::synthetic("transpose", 6, 4, 512, 1).unwrap(),
                Workload::transpose(6, 4, 512),
            ),
        ];
        for (ours, legacy) in cases {
            assert_eq!(ours.name, legacy.name);
            assert_eq!(ours.messages, legacy.messages);
        }
    }
}
