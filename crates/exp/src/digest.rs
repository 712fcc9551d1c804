//! Bit-exact digests of simulation results.
//!
//! The simulator is deterministic: the same configuration and seed produce the
//! same [`SimResults`] on every host, every engine, and every shard count (for
//! the core fields — see below). That determinism is the entire basis of the
//! golden-baseline gate, and this module reduces a result to a single FNV-1a 64
//! fingerprint so a baseline is one hex word, not a serialized struct.
//!
//! What is digested — and what is deliberately **not**:
//!
//! * All core aggregates (completion time, delivered counts, latency
//!   percentiles, hops), with floats folded in via [`f64::to_bits`] — the mean
//!   latency and mean hops are exact sums divided by exact counts, so their
//!   bit patterns are reproducible.
//! * The steady-state time-series and measurement-window summary.
//! * The fault counters.
//! * **Not** [`EngineCounters`](spectralfly_simnet::EngineCounters): events/parks/wakeups are engine bookkeeping,
//!   not simulation semantics, and they legitimately differ between the
//!   sequential and sharded engines (and across shard counts). Including them
//!   would make every cross-engine digest comparison fail by construction; the
//!   PDES equivalence tests strip them for the same reason.

use spectralfly_simnet::{SimError, SimResults};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Incremental FNV-1a 64 hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Fold an `f64` by bit pattern (exact, not approximate).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of a string's bytes.
pub fn fnv64_str(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(s.as_bytes());
    h.finish()
}

/// Digest a [`SimResults`] to a 16-hex-digit fingerprint, excluding the
/// engine counters (see the module docs for why they must be excluded).
pub fn digest_results(r: &SimResults) -> String {
    let mut h = Fnv64::new();
    h.write_u64(r.completion_time_ps);
    h.write_u64(r.delivered_packets);
    h.write_u64(r.delivered_messages);
    h.write_u64(r.delivered_bytes);
    h.write_f64(r.mean_packet_latency_ps);
    h.write_u64(r.max_packet_latency_ps);
    h.write_u64(r.p50_packet_latency_ps);
    h.write_u64(r.p95_packet_latency_ps);
    h.write_u64(r.p99_packet_latency_ps);
    h.write_u64(r.max_message_latency_ps);
    h.write_f64(r.mean_hops);
    h.write_u64(r.max_hops as u64);
    h.write_u64(r.samples.len() as u64);
    for s in &r.samples {
        h.write_u64(s.t_ps);
        h.write_u64(s.delivered_bytes);
        h.write_u64(s.delivered_packets);
        h.write_f64(s.mean_queue_depth);
        h.write_u64(s.blocked_links as u64);
    }
    match &r.measurement {
        None => h.write_u64(0),
        Some(m) => {
            h.write_u64(1);
            h.write_u64(m.window_start_ps);
            h.write_u64(m.window_end_ps);
            h.write_u64(m.injected_packets);
            h.write_u64(m.delivered_packets);
            h.write_u64(m.delivered_bytes);
            h.write_u64(m.min_inject_ps);
            h.write_u64(m.max_inject_ps);
        }
    }
    let f = &r.faults;
    for v in [
        f.injected,
        f.delivered,
        f.failed,
        f.retransmits,
        f.dropped_link_down,
        f.dropped_router_down,
        f.dropped_no_route,
        f.dropped_ttl,
        f.fault_events,
        f.total_recovery_ps,
        f.recovered,
        f.max_recovery_ps,
    ] {
        h.write_u64(v);
    }
    // Per-tenant results are folded only when present: legacy (jobs-less)
    // runs keep their recorded digests bit-identical.
    if !r.tenants.is_empty() {
        h.write_u64(r.tenants.len() as u64);
        for t in &r.tenants {
            h.write(t.name.as_bytes());
            h.write(t.job.as_bytes());
            h.write_u64(t.ranks as u64);
            h.write_u64(t.injected_messages);
            h.write_u64(t.injected_bytes);
            h.write_u64(t.delivered_messages);
            h.write_u64(t.delivered_packets);
            h.write_u64(t.delivered_bytes);
            h.write_f64(t.mean_latency_ps);
            h.write_u64(t.p50_latency_ps);
            h.write_u64(t.p95_latency_ps);
            h.write_u64(t.p99_latency_ps);
            h.write_u64(t.max_latency_ps);
            h.write_f64(t.goodput_gbps);
            match &t.collective {
                None => h.write_u64(0),
                Some(c) => {
                    h.write_u64(1);
                    h.write_u64(c.total_messages);
                    h.write_u64(c.delivered_messages);
                    h.write_u64(c.ranks_completed as u64);
                    h.write_u64(c.completed as u64);
                    h.write_u64(c.completion_time_ps);
                }
            }
        }
    }
    format!("{:016x}", h.finish())
}

/// Digest a run *outcome* — a configuration can deterministically refuse to
/// run (an unreachable destination under faults surfaces as a typed
/// [`SimError`]), and that refusal is itself a reproducible result worth
/// pinning in a baseline rather than aborting the sweep.
pub fn digest_outcome(outcome: &Result<SimResults, SimError>) -> String {
    match outcome {
        Ok(r) => digest_results(r),
        Err(e) => format!("{:016x}", fnv64_str(&format!("error:{e}"))),
    }
}

/// Digest one structural row: each column's name, then whether its value is
/// defined and the value's bit pattern — an undefined value is a mark of its
/// own, never the bits of some NaN.
pub fn digest_row<'a>(cells: impl IntoIterator<Item = (&'a str, Option<f64>)>) -> String {
    let mut h = Fnv64::new();
    for (name, value) in cells {
        h.write(name.as_bytes());
        h.write_u64(value.is_some() as u64);
        h.write_f64(value.unwrap_or(0.0));
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectralfly_simnet::{EngineCounters, IntervalSample};

    fn sample_results() -> SimResults {
        SimResults {
            completion_time_ps: 123_456,
            delivered_packets: 42,
            delivered_messages: 7,
            delivered_bytes: 43_008,
            mean_packet_latency_ps: 812.5,
            max_packet_latency_ps: 2_100,
            p50_packet_latency_ps: 800,
            p95_packet_latency_ps: 1_900,
            p99_packet_latency_ps: 2_050,
            max_message_latency_ps: 3_000,
            mean_hops: 2.25,
            max_hops: 5,
            samples: vec![IntervalSample {
                t_ps: 1_000,
                delivered_bytes: 512,
                delivered_packets: 2,
                mean_queue_depth: 0.5,
                blocked_links: 1,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let r = sample_results();
        let d = digest_results(&r);
        assert_eq!(d.len(), 16);
        assert_eq!(d, digest_results(&r.clone()), "digest is a pure function");

        let mut changed = r.clone();
        changed.p99_packet_latency_ps += 1;
        assert_ne!(
            d,
            digest_results(&changed),
            "one-field drift changes the digest"
        );

        let mut float_changed = r.clone();
        float_changed.mean_hops = 2.25 + f64::EPSILON * 4.0;
        assert_ne!(
            d,
            digest_results(&float_changed),
            "float drift is caught by bit pattern"
        );
    }

    #[test]
    fn engine_counters_do_not_affect_the_digest() {
        let r = sample_results();
        let mut sharded = r.clone();
        sharded.engine = EngineCounters {
            events: 999_999,
            blocked_parks: 123,
            wakeups: 123,
            arena_slots: 64,
            timed_retries: 0,
        };
        assert_eq!(
            digest_results(&r),
            digest_results(&sharded),
            "engine bookkeeping differs across engines and must not drift the digest"
        );
    }

    #[test]
    fn outcome_digests_distinguish_errors_from_results() {
        let ok = digest_outcome(&Ok(sample_results()));
        assert_eq!(ok, digest_results(&sample_results()));
        assert_eq!(
            fnv64_str(""),
            FNV_OFFSET,
            "empty-string FNV is the offset basis"
        );
        assert_eq!(
            fnv64_str("a"),
            0xaf63dc4c8601ec8c,
            "FNV-1a 64 reference vector"
        );
    }
}
