//! The pluggable **job** subsystem: multi-tenant collective and bursty
//! workloads.
//!
//! A *job* describes what one tenant runs on its slice of the fabric. Jobs are
//! selected by spec string from the closed list [`NAMES`] and composed into a
//! multi-tenant **mix** placed on disjoint endpoint allocations. The resolved
//! [`MixPlan`] is what both live engines execute when
//! [`crate::SimConfig::jobs`] is set: open-loop tenants drive per-endpoint
//! sources (replacing the single global Poisson pattern), collective tenants
//! run dependency-ordered message schedules where a rank's next round fires
//! only once its inbound messages for the current round have been delivered.
//!
//! # Mix specs
//!
//! A mix is written in the shared grammar of [`crate::spec`]
//! (docs/ARCHITECTURE.md § "Spec grammar"): tenants joined by `+`, each a job spec with an
//! optional `x RANKS` size (tenants without one split the remaining endpoints
//! evenly) and an optional `@ contiguous | random | group(g)` placement, e.g.
//! `traffic(1.0, random) x 64 + traffic(1.0, adversarial(8)) x 64 @ random`.
//!
//! # Built-in jobs
//!
//! | spec | kind | semantics over `n` tenant ranks |
//! |------|------|---------------------------------|
//! | `allreduce-ring(bytes)` | collective | reduce-scatter + allgather ring: `2(n−1)` rounds, each rank sends one `⌈bytes/n⌉` chunk to `(rank+1) mod n` per round — `2n(n−1)` messages |
//! | `allreduce-tree(bytes)` | collective | binomial reduce to rank 0 then binomial broadcast: `2⌈log₂n⌉` rounds, `2(n−1)` messages of `bytes` |
//! | `alltoall(bytes)` | collective | `n−1` synchronized rounds, round `r`: rank → `(rank+r+1) mod n` — `n(n−1)` messages |
//! | `allgather(bytes)` | collective | ring: `n−1` rounds of full-`bytes` sends to `(rank+1) mod n` — `n(n−1)` messages |
//! | `halo3d(iters, face_bytes)` | collective | Ember Halo3D-26 on the near-cubic `a×b×c` grid of the ranks: `iters` rounds (default 1), every rank to its ≤ 26 neighbours (`face_bytes`, ¼ across an edge, ¹⁄₁₆ across a corner) — `(3a−2)(3b−2)(3c−2) − n` messages per round |
//! | `sweep3d(kba_blocks, bytes, sweeps)` | collective | Ember Sweep3D on the near-square `px×py` array of the ranks: per sweep (default 1; odd sweeps start from the opposite corner) and KBA block (default 1), `px+py−2` rounds — anti-diagonal `d` sends downwind in round `d` — and `2·px·py − px − py` messages; blocks pipeline, a rank waits only for its two upwind neighbours |
//! | `fft3d(bytes, iters, rows)` | collective | Ember 3-D FFT on an `nx×ny` pencil grid: per iteration (default 1) an all-to-all within every row, then within every column — 2 rounds, `n(nx+ny−2)` messages. `rows` omitted: the balanced near-square grid; `rows = 4`: the paper's unbalanced one (`rows` must divide `n`) |
//! | `traffic(load, pattern, bytes)` | open loop | Poisson arrivals at `load`, destinations drawn from the nested pattern spec over the tenant's rank space |
//! | `mmpp(r0, r1, d0, d1, bytes)` | open loop | 2-state Markov-modulated Poisson: loads `r0`/`r1`, exponential dwell means `d0`/`d1` **microseconds**; stationary load `(r0·d0 + r1·d1)/(d0+d1)` |
//! | `onoff(peak, alpha, on, off, bytes)` | open loop | self-similar on-off: Pareto(`alpha`) ON/OFF periods with means `on`/`off` **microseconds**, Poisson at `peak` while ON; stationary load `peak·on/(on+off)` |
//!
//! `bytes` defaults to 4096 everywhere and is at most
//! [`crate::config::MAX_MESSAGE_BYTES`] (2^30). The three Ember motifs (Section VI-D,
//! Figs. 9–10: the `fig9-ember-minimal` / `fig10-ember-ugal` sections of
//! `manifests/paper.toml`) size their process grid from the tenant's rank
//! count, so `sweep3d(2, 2048, 2) x 484` is a 22×22 array; their per-rank
//! dependencies are those of the MPI skeletons — no global barrier between
//! rounds. Open-loop destination draws use the
//! tenant's rank space; `mmpp`/`onoff` draw uniformly over the other ranks.
//! The engine-level offered load passed to
//! [`crate::Simulator::try_run_with_offered_load`] acts as a **global multiplier**
//! on every tenant's configured load, so offered-load sweeps scale the whole
//! mix together.
//!
//! # Collective completion semantics
//!
//! A collective is a [`Schedule`]: per (rank, round) *groups* of sends plus
//! inbound counts. Group `(rank, 0)` fires at simulation start; group
//! `(rank, r+1)` fires when `(rank, r)` has fired **and** every round-`r`
//! message destined to `rank` has been **delivered** (terminal packet loss
//! under a fault script stalls the chain — the tenant reports an incomplete
//! collective rather than fabricating progress; packet conservation still
//! holds). [`CollectiveState`] is the engine-side dependency tracker; in the
//! sharded engine every update for `(rank, r)` is local to the shard owning
//! `rank`'s router, so no cross-shard coordination is needed.

use crate::config::MAX_MESSAGE_BYTES;
use crate::pattern::{self, PatternCtx, PatternError, TrafficPattern};
use crate::spec::{self, Arg, ArgReader, Call, Family, ResolveError};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// Default message/chunk payload when a job spec omits `bytes`.
pub const DEFAULT_JOB_BYTES: u64 = 4096;

/// Why a job spec or mix could not be resolved: the shared [`ResolveError`]
/// triple — `Unknown` job, `BadSpec` grammar, `BadArgs` (arguments, or the
/// placement, invalid).
pub type JobError = ResolveError;

/// Construction-time context for a job: the run's names, which the nested
/// pattern of a `traffic(load, pattern)` job resolves against.
#[derive(Clone, Debug, Default)]
pub struct JobCtx {
    /// The run's [`crate::SimConfig::registries`].
    pub registries: crate::Registries,
}

impl JobCtx {
    /// A context over the built-in names.
    pub fn new() -> Self {
        JobCtx::default()
    }
}

/// What a tenant actually runs: a finite dependency-ordered collective, or an
/// open-loop source model driving every rank continuously.
pub enum JobBehavior {
    /// A dependency-ordered message schedule (see [`Schedule`]), shared by
    /// every core that tracks it.
    Collective(Arc<Schedule>),
    /// Continuous per-rank sources (see [`OpenLoopSpec`]).
    OpenLoop(OpenLoopSpec),
}

/// Open-loop tenant behavior: an arrival-rate process plus a destination
/// distribution over the tenant's rank space.
pub struct OpenLoopSpec {
    /// Destination distribution over ranks (`dst < ranks`).
    pub pattern: Box<dyn TrafficPattern>,
    /// Message payload bytes.
    pub bytes: u64,
    /// The arrival-rate process modulating the Poisson injections.
    pub rate: RateProcess,
}

/// An arrival-rate process for open-loop sources. All loads are fractions of
/// the endpoint injection bandwidth, exactly like the engine's offered load.
#[derive(Clone, Debug, PartialEq)]
pub enum RateProcess {
    /// Plain Poisson arrivals at `load`.
    Poisson {
        /// Offered load fraction in (0, 1].
        load: f64,
    },
    /// Two-state Markov-modulated Poisson process: in state `i` arrivals are
    /// Poisson at `loads[i]`; dwell times are exponential with mean
    /// `dwell_ps[i]`.
    Mmpp {
        /// Per-state offered-load fractions.
        loads: [f64; 2],
        /// Per-state mean dwell times in picoseconds.
        dwell_ps: [u64; 2],
    },
    /// Self-similar on-off: Pareto(`alpha`)-distributed ON and OFF period
    /// lengths with the given means; Poisson at `peak` while ON, silent
    /// while OFF. Heavy-tailed periods (`1 < alpha < 2`) produce the
    /// long-range-dependent burstiness pure Poisson cannot.
    OnOff {
        /// Offered load while ON, in (0, 1].
        peak: f64,
        /// Pareto shape parameter (must be > 1 for a finite mean).
        alpha: f64,
        /// Mean ON period in picoseconds.
        on_ps: u64,
        /// Mean OFF period in picoseconds.
        off_ps: u64,
    },
}

impl RateProcess {
    /// The long-run average offered load of the process — what the empirical
    /// injected rate converges to over a long measurement window.
    pub fn stationary_load(&self) -> f64 {
        match self {
            RateProcess::Poisson { load } => *load,
            RateProcess::Mmpp { loads, dwell_ps } => {
                let d0 = dwell_ps[0] as f64;
                let d1 = dwell_ps[1] as f64;
                (loads[0] * d0 + loads[1] * d1) / (d0 + d1)
            }
            RateProcess::OnOff {
                peak,
                on_ps,
                off_ps,
                ..
            } => peak * (*on_ps as f64) / (*on_ps as f64 + *off_ps as f64),
        }
    }
}

/// Per-source runtime state for a [`RateProcess`]: which modulation state the
/// source is in and when that state expires. `Default` starts every source
/// in its first state with the period length not yet drawn.
#[derive(Clone, Debug, Default)]
pub struct RateRuntime {
    state: u8,
    /// Absolute ps when the current modulation state ends; `None` until the
    /// first period is drawn (lazily, so construction needs no RNG).
    until_ps: Option<u64>,
}

/// One exponential draw with mean `mean` (ps), via a
/// `gen_range(EPSILON..1.0)` inverse-CDF draw.
fn exp_draw(mean: f64, rng: &mut StdRng) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * mean) as u64
}

/// One Pareto(`alpha`) draw with the given mean (ps): scale
/// `xm = mean·(α−1)/α`, sample `xm / u^{1/α}`.
fn pareto_draw(mean_ps: u64, alpha: f64, rng: &mut StdRng) -> u64 {
    let xm = mean_ps as f64 * (alpha - 1.0) / alpha;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (xm / u.powf(1.0 / alpha)) as u64
}

impl RateProcess {
    /// The absolute time of the next arrival after `now_ps` for a source
    /// whose messages serialize in `ser_ps` at full injection bandwidth,
    /// scaled by the run-level `load_scale` multiplier. Returns `u64::MAX`
    /// when the process emits nothing reachable (e.g. a zero-rate state that
    /// never ends within the guard bound).
    ///
    /// Every shard count calls this with the same per-endpoint RNG stream and
    /// the same draw order, which is what makes jobs-mode results
    /// bit-identical across shard counts.
    pub fn next_arrival_ps(
        &self,
        rt: &mut RateRuntime,
        now_ps: u64,
        ser_ps: u64,
        load_scale: f64,
        rng: &mut StdRng,
    ) -> u64 {
        let gap = |load: f64, rng: &mut StdRng| -> Option<u64> {
            let l = load * load_scale;
            if l <= 0.0 {
                return None;
            }
            Some(exp_draw(ser_ps as f64 / l, rng))
        };
        match self {
            RateProcess::Poisson { load } => match gap(*load, rng) {
                Some(g) => now_ps.saturating_add(g),
                None => u64::MAX,
            },
            RateProcess::Mmpp { loads, dwell_ps } => {
                let mut now = now_ps;
                // Memorylessness lets a draw that crosses a state boundary be
                // discarded and redrawn in the new state; bound the number of
                // silent states skipped so a (0, 0)-rate process terminates.
                for _ in 0..10_000 {
                    let until = *rt.until_ps.get_or_insert_with(|| {
                        now.saturating_add(exp_draw(dwell_ps[rt.state as usize] as f64, rng))
                    });
                    if let Some(g) = gap(loads[rt.state as usize], rng) {
                        let t = now.saturating_add(g);
                        if t <= until {
                            return t;
                        }
                    }
                    now = until;
                    rt.state ^= 1;
                    rt.until_ps =
                        Some(now.saturating_add(exp_draw(dwell_ps[rt.state as usize] as f64, rng)));
                }
                u64::MAX
            }
            RateProcess::OnOff {
                peak,
                alpha,
                on_ps,
                off_ps,
            } => {
                let mut now = now_ps;
                for _ in 0..10_000 {
                    let until = *rt.until_ps.get_or_insert_with(|| {
                        now.saturating_add(pareto_draw(*on_ps, *alpha, rng))
                    });
                    // State 0 is ON, state 1 is OFF.
                    if rt.state == 0 {
                        if let Some(g) = gap(*peak, rng) {
                            let t = now.saturating_add(g);
                            if t <= until {
                                return t;
                            }
                        }
                    }
                    now = until;
                    rt.state ^= 1;
                    let mean = if rt.state == 0 { *on_ps } else { *off_ps };
                    rt.until_ps = Some(now.saturating_add(pareto_draw(mean, *alpha, rng)));
                }
                u64::MAX
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Collective schedules.
// ---------------------------------------------------------------------------

/// A dependency-ordered collective message schedule over `ranks` tenant
/// ranks. Sends are grouped by `(rank, round)` — group index
/// `g = rank·rounds + round` — and a group's sends are injected only when the
/// group *fires* (see the module docs for the firing rule).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Tenant size the schedule was built for.
    pub ranks: usize,
    /// Number of rounds (groups per rank).
    pub rounds: usize,
    /// `sends[g]`: the `(dst_rank, bytes)` messages group `g` injects.
    pub sends: Vec<Vec<(u32, u64)>>,
    /// `inbound[g]`: how many round-`(g mod rounds)` messages target rank
    /// `g / rounds` — the delivery dependencies of that rank's next round.
    pub inbound: Vec<u32>,
    /// Total messages in the schedule (the closed form the proptests check).
    pub total_messages: u64,
}

impl Schedule {
    /// Group index of `(rank, round)`.
    pub fn group(&self, rank: usize, round: usize) -> usize {
        rank * self.rounds + round
    }

    /// Build a schedule from explicit per-group send lists, deriving the
    /// inbound counts and the message total.
    ///
    /// # Panics
    /// If `sends` does not hold `ranks × rounds` groups, or a send names a
    /// rank past `ranks`: a caller contract, which every built-in schedule
    /// keeps by construction.
    pub fn from_sends(ranks: usize, rounds: usize, sends: Vec<Vec<(u32, u64)>>) -> Schedule {
        assert_eq!(sends.len(), ranks * rounds);
        let mut inbound = vec![0u32; ranks * rounds];
        let mut total = 0u64;
        for (g, group) in sends.iter().enumerate() {
            let round = g % rounds;
            for &(dst, _) in group {
                inbound[dst as usize * rounds + round] += 1;
                total += 1;
            }
        }
        Schedule {
            ranks,
            rounds,
            sends,
            inbound,
            total_messages: total,
        }
    }

    /// Ring all-reduce: reduce-scatter then allgather, `2(n−1)` rounds of one
    /// `⌈bytes/n⌉`-chunk send to the successor — `2n(n−1)` messages total.
    pub fn allreduce_ring(ranks: usize, bytes: u64) -> Schedule {
        if ranks <= 1 {
            return Schedule::from_sends(ranks, 0, Vec::new());
        }
        let rounds = 2 * (ranks - 1);
        let chunk = bytes.div_ceil(ranks as u64).max(1);
        let mut sends = Vec::with_capacity(ranks * rounds);
        for rank in 0..ranks {
            for _ in 0..rounds {
                sends.push(vec![(((rank + 1) % ranks) as u32, chunk)]);
            }
        }
        Schedule::from_sends(ranks, rounds, sends)
    }

    /// Binomial-tree all-reduce: reduce to rank 0 in `⌈log₂n⌉` rounds, then
    /// the mirrored binomial broadcast — `2(n−1)` full-`bytes` messages.
    pub fn allreduce_tree(ranks: usize, bytes: u64) -> Schedule {
        if ranks <= 1 {
            return Schedule::from_sends(ranks, 0, Vec::new());
        }
        let k = usize::BITS - (ranks - 1).leading_zeros(); // ⌈log₂ ranks⌉
        let rounds = 2 * k as usize;
        let mut sends = vec![Vec::new(); ranks * rounds];
        for r in 0..k as usize {
            let step = 1usize << r;
            for rank in (step..ranks).step_by(step << 1) {
                if rank % (step << 1) == step {
                    sends[rank * rounds + r].push(((rank - step) as u32, bytes));
                }
            }
        }
        for j in 0..k as usize {
            let step = 1usize << (k as usize - 1 - j);
            for rank in (0..ranks).step_by(step << 1) {
                if rank + step < ranks {
                    sends[rank * rounds + k as usize + j].push(((rank + step) as u32, bytes));
                }
            }
        }
        Schedule::from_sends(ranks, rounds, sends)
    }

    /// Round-synchronized all-to-all: in round `r` rank sends `bytes` to
    /// `(rank + r + 1) mod n` — `n(n−1)` messages over `n−1` rounds.
    pub fn alltoall(ranks: usize, bytes: u64) -> Schedule {
        if ranks <= 1 {
            return Schedule::from_sends(ranks, 0, Vec::new());
        }
        let rounds = ranks - 1;
        let mut sends = Vec::with_capacity(ranks * rounds);
        for rank in 0..ranks {
            for r in 0..rounds {
                sends.push(vec![(((rank + r + 1) % ranks) as u32, bytes)]);
            }
        }
        Schedule::from_sends(ranks, rounds, sends)
    }

    /// Ring allgather: `n−1` rounds of one full-`bytes` send to the
    /// successor — `n(n−1)` messages.
    pub fn allgather(ranks: usize, bytes: u64) -> Schedule {
        if ranks <= 1 {
            return Schedule::from_sends(ranks, 0, Vec::new());
        }
        let rounds = ranks - 1;
        let mut sends = Vec::with_capacity(ranks * rounds);
        for rank in 0..ranks {
            for _ in 0..rounds {
                sends.push(vec![(((rank + 1) % ranks) as u32, bytes)]);
            }
        }
        Schedule::from_sends(ranks, rounds, sends)
    }

    /// Build a schedule from `(round, src, dst, bytes)` messages: each lands
    /// in its sender's `(src, round)` group, in iteration order.
    fn from_messages(
        ranks: usize,
        rounds: usize,
        messages: impl IntoIterator<Item = (usize, usize, usize, u64)>,
    ) -> Schedule {
        let mut sends = vec![Vec::new(); ranks * rounds];
        for (round, src, dst, bytes) in messages {
            sends[src * rounds + round].push((dst as u32, bytes));
        }
        Schedule::from_sends(ranks, rounds, sends)
    }

    /// Halo3D-26 (Ember): the ranks form a near-cubic 3-D grid (X fastest, no
    /// periodic wrap) and in each of `iters` rounds every rank sends to each
    /// of its ≤ 26 face, edge and corner neighbours — `face_bytes` across a
    /// face, a quarter of that across an edge and a sixteenth across a corner,
    /// the way a stencil's halo surfaces shrink. A rank starts its next
    /// iteration once its own neighbours' messages are in, not when the whole
    /// grid is. An `a × b × c` grid sends `(3a−2)(3b−2)(3c−2) − abc` messages
    /// per iteration.
    pub fn halo3d(ranks: usize, iters: usize, face_bytes: u64) -> Schedule {
        let (nx, ny, nz) = near_cubic(ranks);
        let mut messages = Vec::new();
        for round in 0..iters {
            for src in 0..ranks {
                let at = [src % nx, (src / nx) % ny, src / (nx * ny)];
                for offset in 0..27usize {
                    let d = [offset / 9, (offset / 3) % 3, offset % 3];
                    // Offsets are stored +1, so `at + d` is the neighbour +1.
                    let inside = |k: usize, n: usize| (1..=n).contains(&(at[k] + d[k]));
                    if offset == 13 || !(inside(0, nx) && inside(1, ny) && inside(2, nz)) {
                        continue;
                    }
                    let dst =
                        (at[0] + d[0] - 1) + nx * ((at[1] + d[1] - 1) + ny * (at[2] + d[2] - 1));
                    let bytes = match d.iter().filter(|&&k| k != 1).count() {
                        1 => face_bytes,
                        2 => (face_bytes / 4).max(1),
                        _ => (face_bytes / 16).max(1),
                    };
                    messages.push((round, src, dst, bytes));
                }
            }
        }
        Schedule::from_messages(ranks, iters, messages)
    }

    /// Sweep3D (Ember): wavefronts over a near-square `px × py` process array
    /// (the 3-D domain is decomposed over X and Y; Z is swept in `kba_blocks`
    /// blocks). Rank `(i, j)` on anti-diagonal `d = i + j` sends `bytes` to
    /// its downwind neighbours `(i+1, j)` and `(i, j+1)` in round `d` of its
    /// block, so it waits only for its own two upwind neighbours: the origin
    /// starts the next block at once and the blocks pipeline across the
    /// array. Odd sweeps run mirrored, from the opposite corner. A sweep of
    /// one block is `px + py − 2` rounds and `2·px·py − px − py` messages.
    pub fn sweep3d(ranks: usize, kba_blocks: usize, bytes: u64, sweeps: usize) -> Schedule {
        let (px, py) = near_square(ranks);
        let diagonals = (px + py).saturating_sub(2);
        let rounds = sweeps * kba_blocks * diagonals;
        let mut messages = Vec::new();
        for block in 0..sweeps * kba_blocks {
            let reverse = (block / kba_blocks) % 2 == 1;
            // Mirroring both coordinates maps a forward sweep onto the
            // reverse one, downwind neighbours included.
            let rank = |i: usize, j: usize| {
                if reverse {
                    (px - 1 - i) + px * (py - 1 - j)
                } else {
                    i + px * j
                }
            };
            for d in 0..diagonals {
                for i in d.saturating_sub(py - 1)..=d.min(px - 1) {
                    let j = d - i;
                    let downwind = [(i + 1, j), (i, j + 1)];
                    for (ni, nj) in downwind.into_iter().filter(|&(ni, nj)| ni < px && nj < py) {
                        messages.push((block * diagonals + d, rank(i, j), rank(ni, nj), bytes));
                    }
                }
            }
        }
        Schedule::from_messages(ranks, rounds, messages)
    }

    /// 3-D FFT (Ember): the ranks form an `nx × ny` pencil grid and each of
    /// `iters` transforms is two rounds — an all-to-all of `bytes` per pair
    /// within every X row, then within every Y column; a rank enters the
    /// column exchange once its own row's messages are in. `rows = None` is
    /// the balanced near-square grid (many small all-to-alls); `Some(ny)` is
    /// the skewed one — the paper's unbalanced decomposition is 4 rows — and
    /// must divide the rank count (`None` is returned otherwise). An
    /// iteration is `n(nx + ny − 2)` messages.
    pub fn fft3d(ranks: usize, bytes: u64, iters: usize, rows: Option<usize>) -> Option<Schedule> {
        let ny = match rows {
            Some(ny) if ny == 0 || !ranks.is_multiple_of(ny) => return None,
            Some(ny) => ny,
            None => near_square(ranks).1,
        };
        let nx = ranks / ny;
        // Groups in index order — rank-major, a row then a column exchange
        // per iteration — so the dense all-to-alls are laid out once.
        let mut sends = Vec::with_capacity(ranks * 2 * iters);
        for src in 0..ranks {
            let (x, y) = (src % nx, src / nx);
            let row = (0..nx).filter(|&x2| x2 != x).map(|x2| x2 + nx * y);
            let column = (0..ny).filter(|&y2| y2 != y).map(|y2| x + nx * y2);
            let row: Vec<_> = row.map(|dst| (dst as u32, bytes)).collect();
            let column: Vec<_> = column.map(|dst| (dst as u32, bytes)).collect();
            for _ in 0..iters {
                sends.extend([row.clone(), column.clone()]);
            }
        }
        Some(Schedule::from_sends(ranks, 2 * iters, sends))
    }
}

/// The near-cubic factorisation `nx ≤ ny ≤ nz` of `ranks`: the one with the
/// least spread between its extremes (a prime degenerates to a line).
fn near_cubic(ranks: usize) -> (usize, usize, usize) {
    let mut best = (1, 1, ranks.max(1));
    for nx in (1..).take_while(|nx| nx * nx * nx <= ranks) {
        for ny in (nx..).take_while(|ny| nx * ny * ny <= ranks) {
            if ranks.is_multiple_of(nx * ny) && ranks / (nx * ny) - nx < best.2 - best.0 {
                best = (nx, ny, ranks / (nx * ny));
            }
        }
    }
    best
}

/// The near-square factorisation `px ≤ py` of `ranks`.
fn near_square(ranks: usize) -> (usize, usize) {
    let divisors = (1..).take_while(|px| px * px <= ranks);
    let px = divisors
        .filter(|&px| ranks.is_multiple_of(px))
        .last()
        .unwrap_or(1);
    (px, ranks.max(1) / px)
}

/// Engine-side dependency tracker for one tenant's [`Schedule`].
///
/// Both engines drive it the same way: at start, fire every group returned by
/// [`CollectiveState::ready_at_start`] (injecting its sends); on delivery of
/// the last packet of a collective message, call
/// [`CollectiveState::on_delivered`] and fire whatever it unblocks, cascading
/// through [`CollectiveState::fire`]'s returned follow-up group (empty groups
/// fire as no-ops so the per-rank sequencing chain always advances). In the
/// sharded engine each shard owns the ranks placed on its routers, and every
/// update touches only the owning rank's state — shard-local by construction.
pub struct CollectiveState {
    sched: Arc<Schedule>,
    deps_left: Vec<u32>,
    fired: Vec<bool>,
    /// Per-rank countdown: `rounds` group-firings plus every inbound
    /// delivery; a rank completes exactly when it reaches zero.
    rank_left: Vec<u64>,
    ranks_completed: usize,
}

impl CollectiveState {
    /// Fresh tracker for `sched` with nothing fired or delivered.
    pub fn new(sched: Arc<Schedule>) -> CollectiveState {
        let rounds = sched.rounds;
        let mut deps_left = vec![0u32; sched.ranks * rounds];
        let mut rank_left = vec![0u64; sched.ranks];
        for (rank, left) in rank_left.iter_mut().enumerate() {
            let mut inbound_total = 0u64;
            for r in 0..rounds {
                let g = rank * rounds + r;
                if r > 0 {
                    deps_left[g] = 1 + sched.inbound[g - 1];
                }
                inbound_total += sched.inbound[g] as u64;
            }
            *left = rounds as u64 + inbound_total;
        }
        let mut ranks_completed = 0;
        for &left in &rank_left {
            if left == 0 {
                ranks_completed += 1;
            }
        }
        CollectiveState {
            sched,
            deps_left,
            fired: vec![false; deps_left_len(rounds, &rank_left)],
            rank_left,
            ranks_completed,
        }
    }

    /// The schedule being tracked.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// Groups with no dependencies (round 0) for ranks accepted by `owns` —
    /// each shard passes its ownership predicate.
    pub fn ready_at_start(&self, owns: impl Fn(usize) -> bool) -> Vec<usize> {
        let rounds = self.sched.rounds;
        (0..self.sched.ranks)
            .filter(|&rank| rounds > 0 && owns(rank))
            .map(|rank| rank * rounds)
            .collect()
    }

    /// Fire group `g`: marks it fired, advances the owning rank's completion
    /// countdown, and decrements the sequencing dependency of the rank's next
    /// round. Returns the group's sends and, if the next round just became
    /// ready, its group index (cascade by firing it too).
    pub fn fire(&mut self, g: usize) -> (Vec<(u32, u64)>, Option<usize>) {
        debug_assert!(!self.fired[g], "group {g} fired twice");
        self.fired[g] = true;
        let rounds = self.sched.rounds;
        let rank = g / rounds;
        self.retire_rank_unit(rank);
        let next = if g % rounds + 1 < rounds {
            self.release(g + 1)
        } else {
            None
        };
        (self.sched.sends[g].clone(), next)
    }

    /// A round-`round` message was delivered to `dst_rank`. Returns the
    /// rank's next-round group if this delivery made it ready.
    pub fn on_delivered(&mut self, dst_rank: u32, round: u32) -> Option<usize> {
        let rounds = self.sched.rounds;
        let rank = dst_rank as usize;
        self.retire_rank_unit(rank);
        if (round as usize) + 1 < rounds {
            self.release(rank * rounds + round as usize + 1)
        } else {
            None
        }
    }

    /// Ranks whose every group has fired and every inbound message has been
    /// delivered.
    pub fn ranks_completed(&self) -> usize {
        self.ranks_completed
    }

    /// Completed ranks accepted by `owns` — the sharded engine's end-of-run
    /// report. Every shard holds a full tracker copy (trivially complete
    /// ranks are complete in *every* copy), so each shard counts only the
    /// ranks it owns and the merged total counts every rank exactly once.
    pub fn ranks_completed_among(&self, owns: impl Fn(usize) -> bool) -> usize {
        self.rank_left
            .iter()
            .enumerate()
            .filter(|&(rank, &left)| left == 0 && owns(rank))
            .count()
    }

    fn retire_rank_unit(&mut self, rank: usize) {
        debug_assert!(self.rank_left[rank] > 0, "rank {rank} over-completed");
        self.rank_left[rank] -= 1;
        if self.rank_left[rank] == 0 {
            self.ranks_completed += 1;
        }
    }

    fn release(&mut self, g: usize) -> Option<usize> {
        debug_assert!(self.deps_left[g] > 0, "group {g} over-released");
        self.deps_left[g] -= 1;
        (self.deps_left[g] == 0).then_some(g)
    }
}

fn deps_left_len(rounds: usize, rank_left: &[u64]) -> usize {
    rank_left.len() * rounds
}

/// Tag attached to every jobs-mode message so delivery (or terminal loss) can
/// be attributed to a tenant and, for collectives, release the destination
/// rank's next round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgTag {
    /// Tenant index into the [`MixPlan`].
    pub tenant: u32,
    /// Destination rank within the tenant.
    pub dst_rank: u32,
    /// Collective round the message belongs to, or `u32::MAX` for open-loop
    /// traffic.
    pub round: u32,
}

impl MsgTag {
    /// Tag for an open-loop (non-collective) message.
    pub fn open_loop(tenant: u32, dst_rank: u32) -> MsgTag {
        MsgTag {
            tenant,
            dst_rank,
            round: u32::MAX,
        }
    }

    /// Whether this message participates in a collective schedule.
    pub fn is_collective(&self) -> bool {
        self.round != u32::MAX
    }
}

// ---------------------------------------------------------------------------
// Job specs.
// ---------------------------------------------------------------------------

/// How this family calls itself in error messages ([`Family::args`],
/// [`Family::bad_args`]).
pub const FAMILY: Family = Family {
    unknown: "job",
    args: "job",
};

/// The jobs, sorted: what a mix's tenant may name (besides the aliases
/// `all-reduce-ring`, `all-reduce-tree`, `all-to-all` and `all-gather`), and
/// what an unknown name's error lists. Closed: nothing registers a job at run
/// time.
pub const NAMES: [&str; 10] = [
    "allgather",
    "allreduce-ring",
    "allreduce-tree",
    "alltoall",
    "fft3d",
    "halo3d",
    "mmpp",
    "onoff",
    "sweep3d",
    "traffic",
];

fn bytes_arg(args: &ArgReader<Arg>, idx: usize) -> Result<u64, JobError> {
    let bytes = args
        .positive_int(idx, "bytes")?
        .unwrap_or(DEFAULT_JOB_BYTES);
    if bytes > MAX_MESSAGE_BYTES {
        return Err(args.bad(format!(
            "bytes must be at most {MAX_MESSAGE_BYTES}, got {bytes}"
        )));
    }
    Ok(bytes)
}

/// Microsecond argument converted to picoseconds.
fn us_arg(args: &ArgReader<Arg>, idx: usize, default_us: f64) -> Result<u64, JobError> {
    let v = args.number(idx, default_us)?;
    if !(v.is_finite() && v > 0.0) {
        return Err(args.bad(format!("duration (µs) must be positive, got {v}")));
    }
    Ok((v * 1e6) as u64)
}

/// The most `(rank, round)` groups a motif's schedule may hold: iteration
/// counts come from a spec string, and past this the group table alone is
/// hundreds of megabytes.
const MAX_SCHEDULE_GROUPS: usize = 1 << 24;

/// Refuse a motif whose `ranks × ∏ factors` groups exceed
/// [`MAX_SCHEDULE_GROUPS`] (or overflow) before anything is allocated.
fn check_groups(name: &str, ranks: usize, factors: &[usize]) -> Result<(), JobError> {
    let groups = (factors.iter()).try_fold(ranks, |groups, &f| groups.checked_mul(f));
    if groups.is_some_and(|groups| groups <= MAX_SCHEDULE_GROUPS) {
        return Ok(());
    }
    let rounds = factors.iter().map(|f| f.to_string()).collect::<Vec<_>>();
    let reason = format!(
        "{ranks} ranks x {} rounds is past the 2^24 (rank, round) groups a schedule may hold",
        rounds.join(" x ")
    );
    Err(FAMILY.bad_args(name, reason))
}

/// Argument `idx`, if present, as a positive count that fits `usize`.
fn count_arg(args: &ArgReader<Arg>, idx: usize, what: &str) -> Result<Option<usize>, JobError> {
    let count = args.positive_int(idx, what)?;
    Ok(count.map(|v| usize::try_from(v).unwrap_or(usize::MAX)))
}

/// A `traffic` job's nested pattern spec that the run's patterns refuse.
fn nested_pattern_rejected(e: PatternError) -> JobError {
    FAMILY.bad_args("traffic", format!("nested pattern spec rejected: {e}"))
}

/// One tenant's job with its arguments bound, waiting for the tenant's rank
/// count (see the module docs for what each runs).
enum JobSpec<'a> {
    AllreduceRing(u64),
    AllreduceTree(u64),
    Alltoall(u64),
    Allgather(u64),
    Halo3d {
        iters: usize,
        face_bytes: u64,
    },
    Sweep3d {
        kba_blocks: usize,
        bytes: u64,
        sweeps: usize,
    },
    Fft3d {
        bytes: u64,
        iters: usize,
        rows: Option<usize>,
    },
    /// Poisson arrivals, destinations drawn from a nested pattern spec (as
    /// written) over the tenant's rank space.
    Traffic {
        load: f64,
        pattern: &'a str,
        bytes: u64,
    },
    /// Markov-modulated arrivals, uniform-random destinations.
    Mmpp {
        rate: RateProcess,
        bytes: u64,
    },
    /// Pareto on-off arrivals, uniform-random destinations.
    OnOff {
        rate: RateProcess,
        bytes: u64,
    },
}

impl<'a> JobSpec<'a> {
    /// The job one tenant's spec names, with its arguments checked; a nested
    /// pattern must name one of `ctx`'s patterns.
    fn parse(call: &Call<'a>, ctx: &JobCtx) -> Result<Self, JobError> {
        let args = |name| FAMILY.args(name, call.args.as_slice());
        let collective = |name| {
            let args = args(name);
            args.max_args(1, "1 arguments")?;
            bytes_arg(&args, 0)
        };
        Ok(match call.key().as_str() {
            "allreduce-ring" | "all-reduce-ring" => {
                JobSpec::AllreduceRing(collective("allreduce-ring")?)
            }
            "allreduce-tree" | "all-reduce-tree" => {
                JobSpec::AllreduceTree(collective("allreduce-tree")?)
            }
            "alltoall" | "all-to-all" => JobSpec::Alltoall(collective("alltoall")?),
            "allgather" | "all-gather" => JobSpec::Allgather(collective("allgather")?),
            "halo3d" => {
                let args = args("halo3d");
                args.max_args(2, "2 arguments")?;
                JobSpec::Halo3d {
                    iters: count_arg(&args, 0, "iterations")?.unwrap_or(1),
                    face_bytes: bytes_arg(&args, 1)?,
                }
            }
            "sweep3d" => {
                let args = args("sweep3d");
                args.max_args(3, "3 arguments")?;
                JobSpec::Sweep3d {
                    kba_blocks: count_arg(&args, 0, "KBA blocks")?.unwrap_or(1),
                    bytes: bytes_arg(&args, 1)?,
                    sweeps: count_arg(&args, 2, "sweeps")?.unwrap_or(1),
                }
            }
            "fft3d" => {
                let args = args("fft3d");
                args.max_args(3, "3 arguments")?;
                JobSpec::Fft3d {
                    bytes: bytes_arg(&args, 0)?,
                    iters: count_arg(&args, 1, "iterations")?.unwrap_or(1),
                    rows: count_arg(&args, 2, "rows")?,
                }
            }
            "traffic" => {
                let args = args("traffic");
                args.max_args(3, "3 arguments")?;
                let (pattern, name) = match call.args.get(1) {
                    None => ("random", "random"),
                    Some(Arg::Call(p)) => (p.numbers().map(|_| p.text())?, p.name),
                    Some(Arg::Num(_)) => {
                        return Err(args.bad("argument 2 must be a pattern spec, not a number"))
                    }
                };
                let traffic = JobSpec::Traffic {
                    load: args.fraction(0, f64::NAN, "load", false)?,
                    pattern,
                    bytes: bytes_arg(&args, 2)?,
                };
                (ctx.registries.patterns.lookup(&pattern::FAMILY, name))
                    .map_err(nested_pattern_rejected)?;
                traffic
            }
            "mmpp" => {
                let args = args("mmpp");
                args.max_args(5, "5 arguments")?;
                let r0 = args.fraction(0, f64::NAN, "state-0 load", false)?;
                let r1 = args.fraction(1, 0.0, "state-1 load", true)?;
                JobSpec::Mmpp {
                    bytes: bytes_arg(&args, 4)?,
                    rate: RateProcess::Mmpp {
                        loads: [r0, r1],
                        dwell_ps: [us_arg(&args, 2, 2.0)?, us_arg(&args, 3, 2.0)?],
                    },
                }
            }
            "onoff" => {
                let args = args("onoff");
                args.max_args(5, "5 arguments")?;
                let alpha = args.number(1, 1.5)?;
                if !(alpha.is_finite() && alpha > 1.0) {
                    return Err(args.bad(format!("Pareto shape alpha must be > 1, got {alpha}")));
                }
                JobSpec::OnOff {
                    bytes: bytes_arg(&args, 4)?,
                    rate: RateProcess::OnOff {
                        peak: args.fraction(0, f64::NAN, "peak load", false)?,
                        alpha,
                        on_ps: us_arg(&args, 2, 1.0)?,
                        off_ps: us_arg(&args, 3, 1.0)?,
                    },
                }
            }
            other => return Err(FAMILY.unknown(other, &NAMES)),
        })
    }

    /// The primary name, whatever spelling selected the job.
    fn name(&self) -> &'static str {
        match self {
            JobSpec::AllreduceRing(_) => "allreduce-ring",
            JobSpec::AllreduceTree(_) => "allreduce-tree",
            JobSpec::Alltoall(_) => "alltoall",
            JobSpec::Allgather(_) => "allgather",
            JobSpec::Halo3d { .. } => "halo3d",
            JobSpec::Sweep3d { .. } => "sweep3d",
            JobSpec::Fft3d { .. } => "fft3d",
            JobSpec::Traffic { .. } => "traffic",
            JobSpec::Mmpp { .. } => "mmpp",
            JobSpec::OnOff { .. } => "onoff",
        }
    }

    /// What a tenant of `ranks` ranks running this job does; an open-loop
    /// job's pattern resolves against `ctx`'s patterns.
    fn behavior(&self, ranks: usize, ctx: &JobCtx) -> Result<JobBehavior, JobError> {
        let open_loop = |pattern: &str, rate: RateProcess, bytes: u64| {
            let patterns = &ctx.registries.patterns;
            let pattern = (patterns.create(pattern, &PatternCtx::new(ranks)))
                .map_err(nested_pattern_rejected)?;
            let spec = OpenLoopSpec {
                pattern,
                bytes,
                rate,
            };
            Ok(JobBehavior::OpenLoop(spec))
        };
        let schedule = match *self {
            JobSpec::AllreduceRing(bytes) => Schedule::allreduce_ring(ranks, bytes),
            JobSpec::AllreduceTree(bytes) => Schedule::allreduce_tree(ranks, bytes),
            JobSpec::Alltoall(bytes) => Schedule::alltoall(ranks, bytes),
            JobSpec::Allgather(bytes) => Schedule::allgather(ranks, bytes),
            JobSpec::Halo3d { iters, face_bytes } => {
                check_groups("halo3d", ranks, &[iters])?;
                Schedule::halo3d(ranks, iters, face_bytes)
            }
            JobSpec::Sweep3d {
                kba_blocks,
                bytes,
                sweeps,
            } => {
                let (px, py) = near_square(ranks);
                check_groups("sweep3d", ranks, &[sweeps, kba_blocks, px + py - 2])?;
                Schedule::sweep3d(ranks, kba_blocks, bytes, sweeps)
            }
            JobSpec::Fft3d { bytes, iters, rows } => {
                check_groups("fft3d", ranks, &[2, iters])?;
                Schedule::fft3d(ranks, bytes, iters, rows).ok_or_else(|| {
                    let rows = rows.unwrap_or(0);
                    let reason = format!("{rows} rows do not divide the tenant's {ranks} ranks");
                    FAMILY.bad_args("fft3d", reason)
                })?
            }
            JobSpec::Traffic {
                load,
                pattern,
                bytes,
            } => return open_loop(pattern, RateProcess::Poisson { load }, bytes),
            JobSpec::Mmpp { ref rate, bytes } | JobSpec::OnOff { ref rate, bytes } => {
                return open_loop("random", rate.clone(), bytes)
            }
        };
        Ok(JobBehavior::Collective(Arc::new(schedule)))
    }
}

// ---------------------------------------------------------------------------
// Tenant mixes and placement.
// ---------------------------------------------------------------------------

/// How a tenant's ranks map onto free endpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The first contiguous run of free endpoints (the default).
    Contiguous,
    /// A seeded uniform draw of free endpoints (scattered across the fabric).
    Random,
    /// Like contiguous but starting at a multiple of the group size — ranks
    /// line up with topology groups, so group-structured patterns inside the
    /// tenant hit real group boundaries. `None` is a group size of `⌈√n⌉`.
    Group(Option<usize>),
}

/// One parsed (not yet placed) tenant of a mix.
#[derive(Clone, Debug, PartialEq)]
struct TenantSpec<'a> {
    job: Call<'a>,
    ranks: Option<usize>,
    placement: Placement,
}

/// A positive count that fits `usize`, from a `x N` / `group(g)` value (NaN
/// stands for "not a number at all").
fn positive_count(name: &str, what: &str, v: f64) -> Result<usize, JobError> {
    if !(v >= 1.0 && v.fract() == 0.0 && v <= usize::MAX as f64) {
        let reason = format!("{what} must be a positive integer, got {v}");
        return Err(FAMILY.bad_args(name, reason));
    }
    Ok(v as usize)
}

fn parse_placement(at: &Call) -> Result<Placement, JobError> {
    let base = at.key();
    match (base.as_str(), at.args.as_slice()) {
        ("contiguous", []) => Ok(Placement::Contiguous),
        ("random", []) => Ok(Placement::Random),
        ("group", []) => Ok(Placement::Group(None)),
        ("group", [g]) => {
            let g = positive_count("group", "group size", g.number().unwrap_or(f64::NAN))?;
            Ok(Placement::Group(Some(g)))
        }
        ("contiguous" | "random" | "group", _) => Err(FAMILY.bad_args(
            &base,
            "contiguous and random take no argument, group at most one",
        )),
        (other, _) => {
            let reason = format!("unknown placement {other:?} (contiguous | random | group)");
            Err(at.error(at.start, reason).into())
        }
    }
}

/// Parse a mix string into its tenant specs without placing or instantiating
/// anything.
fn parse_mix(mix: &str) -> Result<Vec<TenantSpec<'_>>, JobError> {
    spec::parse(mix)?
        .into_iter()
        .map(|term| {
            Ok(TenantSpec {
                ranks: term
                    .times
                    .map(|n| positive_count("mix", "rank count", n as f64))
                    .transpose()?,
                placement: term
                    .at
                    .as_ref()
                    .map_or(Ok(Placement::Contiguous), parse_placement)?,
                job: term.call,
            })
        })
        .collect()
}

/// Check that a mix string parses and every tenant's job spec names a job
/// with valid arguments (a `traffic` job's nested pattern, a built-in one) —
/// the manifest-level validation hook (placement feasibility depends on the
/// topology and is checked by [`resolve_mix`]).
pub fn validate_mix_spec(spec: &str) -> Result<(), JobError> {
    let ctx = JobCtx::new();
    for t in parse_mix(spec)? {
        JobSpec::parse(&t.job, &ctx)?;
    }
    Ok(())
}

/// One tenant of a resolved [`MixPlan`], ready for the engines to execute.
pub struct ResolvedTenant {
    /// Display label, `t{index}:{job-name}`.
    pub name: String,
    /// The tenant's job spec as written in the mix.
    pub job: String,
    /// Rank → global endpoint id (disjoint across tenants).
    pub endpoints: Vec<usize>,
    /// What the tenant runs.
    pub behavior: JobBehavior,
}

/// A fully resolved multi-tenant mix: every tenant sized, placed on disjoint
/// endpoint allocations, and instantiated. Resolution happens once, before
/// any shard starts, so every shard count executes the identical plan.
pub struct MixPlan {
    /// The tenants in declaration order.
    pub tenants: Vec<ResolvedTenant>,
}

impl MixPlan {
    /// The per-tenant descriptors the simulator hands to
    /// [`crate::stats::StatsCollector::init_tenants`] — derived from the plan
    /// so every shard arms its collector identically.
    pub fn tenant_descs(&self) -> Vec<crate::stats::TenantDesc> {
        self.tenants
            .iter()
            .map(|t| crate::stats::TenantDesc {
                name: t.name.clone(),
                job: t.job.clone(),
                ranks: t.endpoints.len(),
                collective_total: match &t.behavior {
                    JobBehavior::Collective(s) => Some(s.total_messages),
                    JobBehavior::OpenLoop(_) => None,
                },
            })
            .collect()
    }
}

/// SplitMix64 finalizer *without* the `0x9E37_79B9_7F4A_7C15` increment
/// that `engine::shard::mix64` adds first — the two are different functions
/// and draw different streams. Seeds placement and [`source_rng`]; merging
/// it with the shard's mixer would move every steady golden digest.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Deterministic per-endpoint RNG for the open-loop tenant sources of a
/// steady run, the only continuous sources there are: every shard seeds the
/// endpoints it owns through this function, so a given endpoint consumes the
/// identical stream at every shard count.
pub(crate) fn source_rng(seed: u64, endpoint: usize) -> StdRng {
    StdRng::seed_from_u64(mix64(seed).wrapping_add(mix64(endpoint as u64 ^ 0x005E_ED50_17CE)))
}

/// Resolve a mix string against `available` endpoints (global ids, typically
/// the alive endpoints in declaration order): size every tenant, place each
/// on disjoint endpoints per its placement policy, and instantiate its
/// behavior. Deterministic in `seed` — random placement uses a dedicated
/// seeded stream, so the plan is identical across engines and shard counts.
pub fn resolve_mix(
    spec: &str,
    ctx: &JobCtx,
    available: &[usize],
    seed: u64,
) -> Result<MixPlan, JobError> {
    let n = available.len();
    if n == 0 {
        return Err(FAMILY.bad_args("mix", "no endpoints available for placement"));
    }
    let specs = parse_mix(spec)?;
    // Size the tenants: explicit `x N` first, then split the remainder
    // evenly (earlier tenants absorb the remainder).
    let explicit = specs
        .iter()
        .filter_map(|t| t.ranks)
        .fold(0usize, usize::saturating_add);
    let implicit = specs.iter().filter(|t| t.ranks.is_none()).count();
    let needed = explicit.saturating_add(implicit);
    if needed > n {
        let reason = format!("mix needs at least {needed} endpoints but only {n} are available");
        return Err(FAMILY.bad_args("mix", reason));
    }
    let rem = n - explicit;
    let share = rem.checked_div(implicit).unwrap_or(0);
    let extra = rem.checked_rem(implicit).unwrap_or(0);
    let mut sizes = Vec::with_capacity(specs.len());
    let mut seen_implicit = 0usize;
    for t in &specs {
        sizes.push(match t.ranks {
            Some(r) => r,
            None => {
                seen_implicit += 1;
                share + usize::from(seen_implicit <= extra)
            }
        });
    }

    // Place tenants in declaration order over slot indices into `available`.
    let mut free = vec![true; n];
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x4A0B_5EED_90B5_0001));
    let mut tenants = Vec::with_capacity(specs.len());
    for (ti, (t, &ranks)) in specs.iter().zip(&sizes).enumerate() {
        let slots: Vec<usize> = match &t.placement {
            Placement::Contiguous | Placement::Group(_) => {
                let align = match &t.placement {
                    Placement::Group(g) => g
                        .unwrap_or_else(|| (n as f64).sqrt().ceil() as usize)
                        .max(1),
                    _ => 1,
                };
                let mut found = None;
                let mut s = 0;
                while s + ranks <= n {
                    if free[s..s + ranks].iter().all(|&f| f) {
                        found = Some((s..s + ranks).collect());
                        break;
                    }
                    s += align;
                }
                found.ok_or_else(|| {
                    let reason = format!(
                        "tenant {ti} ({:?}) needs {ranks} free endpoints \
                         (alignment {align}) but no such block remains",
                        t.job.text()
                    );
                    FAMILY.bad_args("mix", reason)
                })?
            }
            Placement::Random => {
                let mut pool: Vec<usize> = (0..n).filter(|&i| free[i]).collect();
                debug_assert!(pool.len() >= ranks);
                // Partial Fisher–Yates: the first `ranks` entries become a
                // uniform sample without replacement, in draw order.
                for i in 0..ranks {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                pool.truncate(ranks);
                pool
            }
        };
        for &s in &slots {
            free[s] = false;
        }
        let job = JobSpec::parse(&t.job, ctx)?;
        let behavior = job.behavior(ranks, ctx)?;
        tenants.push(ResolvedTenant {
            name: format!("t{ti}:{}", job.name()),
            job: t.job.text().to_string(),
            endpoints: slots.iter().map(|&s| available[s]).collect(),
            behavior,
        });
    }
    Ok(MixPlan { tenants })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_grammar_accepts_sizes_and_placements() {
        let ts = parse_mix(
            "allreduce-ring(8192) x 4 + traffic(1.0, adversarial(8)) x8 @ random + mmpp(0.9, 0.1) @group(4)",
        )
        .unwrap();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].ranks, Some(4));
        assert_eq!(ts[0].placement, Placement::Contiguous);
        assert_eq!(ts[1].ranks, Some(8));
        assert_eq!(ts[1].placement, Placement::Random);
        assert_eq!(ts[2].ranks, None);
        assert_eq!(ts[2].placement, Placement::Group(Some(4)));
        assert!(matches!(
            parse_mix("traffic(1.0) x"),
            Err(JobError::BadSpec { .. })
        ));
        assert!(matches!(
            parse_mix("traffic(1.0) @ diagonal"),
            Err(JobError::BadSpec { .. })
        ));
        assert!(matches!(
            parse_mix("traffic(1.0) + + traffic(1.0)"),
            Err(JobError::BadSpec { .. })
        ));
    }

    #[test]
    fn schedule_closed_forms() {
        for n in [2usize, 3, 4, 7, 8, 16] {
            let ring = Schedule::allreduce_ring(n, 4096);
            assert_eq!(ring.total_messages, (2 * n * (n - 1)) as u64, "ring n={n}");
            assert_eq!(ring.rounds, 2 * (n - 1));
            let tree = Schedule::allreduce_tree(n, 4096);
            assert_eq!(tree.total_messages, (2 * (n - 1)) as u64, "tree n={n}");
            let a2a = Schedule::alltoall(n, 4096);
            assert_eq!(a2a.total_messages, (n * (n - 1)) as u64, "alltoall n={n}");
            let ag = Schedule::allgather(n, 4096);
            assert_eq!(ag.total_messages, (n * (n - 1)) as u64, "allgather n={n}");
        }
        assert_eq!(Schedule::allreduce_ring(1, 4096).total_messages, 0);
        assert_eq!(Schedule::allreduce_tree(1, 4096).rounds, 0);
        // The Ember motifs at the Fig. 9–10 sizes: the totals of the phased
        // generators they replace (8×8×8 halo, 22×22 sweep, 16×32 and 128×4
        // pencil grids).
        let halo = Schedule::halo3d(512, 2, 8192);
        assert_eq!(
            (halo.rounds, halo.total_messages),
            (2, 2 * (22 * 22 * 22 - 512))
        );
        assert_eq!(halo.total_messages, 20_272);
        assert_eq!(halo.sends[0].len(), 7, "a corner rank has 7 neighbours");
        assert_eq!(halo.sends[halo.group(1 + 8 + 64, 0)].len(), 26);
        let sizes: Vec<u64> = halo.sends[0].iter().map(|&(_, bytes)| bytes).collect();
        assert_eq!(sizes, [8192, 8192, 2048, 8192, 2048, 2048, 512]);
        let sweep = Schedule::sweep3d(484, 2, 2048, 2);
        assert_eq!((sweep.rounds, sweep.total_messages), (4 * 42, 3_696));
        let balanced = Schedule::fft3d(512, 1024, 1, None).unwrap();
        assert_eq!((balanced.rounds, balanced.total_messages), (2, 23_552));
        assert_eq!(balanced.sends[0].len(), 15, "16 × 32: rows of 16");
        let skewed = Schedule::fft3d(512, 1024, 1, Some(4)).unwrap();
        assert_eq!(skewed.total_messages, 66_560);
        assert_eq!(skewed.sends[0].len(), 127, "128 × 4: rows of 128");
        // Rank counts with no grid to speak of degenerate, they do not panic.
        assert_eq!(near_cubic(8192), (16, 16, 32));
        assert_eq!((near_cubic(7), near_square(7)), ((1, 1, 7), (1, 7)));
        assert_eq!(Schedule::halo3d(7, 1, 64).total_messages, 12);
        assert_eq!(Schedule::sweep3d(7, 1, 64, 2).total_messages, 12);
        assert_eq!(Schedule::fft3d(7, 64, 1, None).unwrap().total_messages, 42);
        assert_eq!(
            Schedule::sweep3d(1, 3, 64, 2),
            Schedule::from_sends(1, 0, Vec::new())
        );
        assert_eq!(Schedule::fft3d(512, 64, 1, Some(3)), None);
    }

    /// Drive a schedule to completion with instant deliveries and check the
    /// dependency machine: every group fires exactly once, every rank
    /// completes exactly once, and the message count matches the total.
    fn drain_schedule(sched: Schedule) {
        let total = sched.total_messages;
        let ranks = sched.ranks;
        let rounds = sched.rounds;
        let mut st = CollectiveState::new(Arc::new(sched));
        let mut to_fire: Vec<usize> = st.ready_at_start(|_| true);
        let mut delivered = 0u64;
        let mut fired = 0usize;
        let mut pending: Vec<(u32, u32)> = Vec::new();
        while !to_fire.is_empty() || !pending.is_empty() {
            while let Some(g) = to_fire.pop() {
                let round = (g % rounds.max(1)) as u32;
                let (sends, next) = st.fire(g);
                fired += 1;
                pending.extend(sends.iter().map(|&(dst, _)| (dst, round)));
                to_fire.extend(next);
            }
            if let Some((dst, round)) = pending.pop() {
                delivered += 1;
                to_fire.extend(st.on_delivered(dst, round));
            }
        }
        assert_eq!(delivered, total);
        assert_eq!(fired, ranks * rounds, "every group fires exactly once");
        assert_eq!(st.ranks_completed(), ranks, "every rank completes");
    }

    #[test]
    fn dependency_machine_drains_every_builtin_collective() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            drain_schedule(Schedule::allreduce_ring(n, 4096));
            drain_schedule(Schedule::allreduce_tree(n, 4096));
            drain_schedule(Schedule::alltoall(n, 4096));
            drain_schedule(Schedule::allgather(n, 4096));
            drain_schedule(Schedule::halo3d(n, 2, 4096));
            drain_schedule(Schedule::sweep3d(n, 2, 4096, 2));
            drain_schedule(Schedule::fft3d(n, 4096, 2, None).unwrap());
        }
        drain_schedule(Schedule::halo3d(64, 1, 4096));
        drain_schedule(Schedule::sweep3d(30, 3, 4096, 3));
        drain_schedule(Schedule::fft3d(64, 4096, 1, Some(4)).unwrap());
    }

    #[test]
    fn sweep_ranks_wait_for_their_upwind_neighbours_only() {
        // 3 × 3 array, two KBA blocks of 4 rounds each: rank (i, j) = i + 3j
        // sends in round i + j of its block.
        let sched = Schedule::sweep3d(9, 2, 64, 1);
        assert_eq!(sched.rounds, 8);
        let mut st = CollectiveState::new(Arc::new(sched));
        let fire = |st: &mut CollectiveState, g: usize| {
            // Cascade as the engines do; returns the non-empty groups fired.
            let (mut ready, mut sent) = (vec![g], Vec::new());
            while let Some(g) = ready.pop() {
                let (sends, next) = st.fire(g);
                if !sends.is_empty() {
                    sent.push((g / 8, g % 8, sends));
                }
                ready.extend(next);
            }
            sent
        };
        // The origin sends block 0 and, owing nothing to anyone, block 1 with
        // it — it does not wait for the wavefront to cross the array.
        let origin = fire(&mut st, 0);
        let downwind = vec![(1, 64), (3, 64)];
        assert_eq!(origin, [(0, 0, downwind.clone()), (0, 4, downwind)]);
        // Rank (1, 1) sits on anti-diagonal 2: it idles through round 1 and
        // then owes its two upwind neighbours' round-1 messages.
        assert_eq!(fire(&mut st, 4 * 8), []);
        assert_eq!(
            st.on_delivered(4, 1),
            None,
            "one upwind message is not enough"
        );
        let Some(g) = st.on_delivered(4, 1) else {
            panic!("both upwind messages are in");
        };
        assert_eq!(g, 4 * 8 + 2);
        // … and then stops again, at block 1's upwind messages (round 5).
        assert_eq!(fire(&mut st, g), [(4, 2, vec![(5, 64), (7, 64)])]);
    }

    #[test]
    fn rounds_gate_on_delivery() {
        // alltoall n=3: rank 0's round-1 group must wait for both its own
        // round-0 firing and the round-0 message addressed to it.
        let mut st = CollectiveState::new(Arc::new(Schedule::alltoall(3, 64)));
        let starts = st.ready_at_start(|_| true);
        assert_eq!(starts, vec![0, 2, 4]);
        let (sends, next) = st.fire(0); // rank 0 round 0 → sends to rank 1
        assert_eq!(sends, vec![(1, 64)]);
        assert_eq!(next, None, "round 1 still owes a delivery");
        // Rank 2's round-0 message to rank 0 arrives → rank 0 round 1 ready.
        assert_eq!(st.on_delivered(0, 0), Some(1));
    }

    #[test]
    fn stationary_loads() {
        let mmpp = RateProcess::Mmpp {
            loads: [0.9, 0.1],
            dwell_ps: [1_000_000, 3_000_000],
        };
        assert!((mmpp.stationary_load() - 0.3).abs() < 1e-12);
        let onoff = RateProcess::OnOff {
            peak: 0.8,
            alpha: 1.5,
            on_ps: 1_000_000,
            off_ps: 3_000_000,
        };
        assert!((onoff.stationary_load() - 0.2).abs() < 1e-12);
        assert_eq!(RateProcess::Poisson { load: 0.7 }.stationary_load(), 0.7);
    }

    /// Long-run empirical arrival rate of a rate process tracks its
    /// stationary load (the engine-free version of the statistical
    /// satellite test).
    fn check_empirical(rate: RateProcess, seed: u64) {
        let ser_ps = 400u64; // 4096 B at ~80 Gb/s, say
        let horizon = 4_000_000_000u64; // 4 ms
        let mut rt = RateRuntime::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0u64;
        let mut arrivals = 0u64;
        loop {
            now = rate.next_arrival_ps(&mut rt, now, ser_ps, 1.0, &mut rng);
            if now >= horizon {
                break;
            }
            arrivals += 1;
        }
        let empirical = arrivals as f64 * ser_ps as f64 / horizon as f64;
        let expect = rate.stationary_load();
        assert!(
            (empirical - expect).abs() < 0.12 * expect.max(0.05),
            "{rate:?}: empirical {empirical:.4} vs stationary {expect:.4}"
        );
    }

    #[test]
    fn rate_processes_track_their_stationary_load() {
        check_empirical(RateProcess::Poisson { load: 0.5 }, 1);
        check_empirical(
            RateProcess::Mmpp {
                loads: [0.9, 0.1],
                dwell_ps: [2_000_000, 2_000_000],
            },
            2,
        );
        check_empirical(
            RateProcess::OnOff {
                peak: 0.8,
                alpha: 1.6,
                on_ps: 1_000_000,
                off_ps: 1_000_000,
            },
            3,
        );
    }

    #[test]
    fn arrival_streams_are_deterministic_per_seed() {
        let rate = RateProcess::Mmpp {
            loads: [0.8, 0.05],
            dwell_ps: [1_000_000, 500_000],
        };
        let run = |seed: u64| {
            let mut rt = RateRuntime::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut now = 0u64;
            (0..200)
                .map(|_| {
                    now = rate.next_arrival_ps(&mut rt, now, 400, 1.0, &mut rng);
                    now
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn placement_policies_are_disjoint_and_deterministic() {
        let available: Vec<usize> = (0..32).collect();
        let ctx = JobCtx::new();
        let plan = resolve_mix(
            "allreduce-ring x 8 + traffic(1.0) x 8 @ group(8) + traffic(0.5) @ random",
            &ctx,
            &available,
            42,
        )
        .unwrap();
        assert_eq!(plan.tenants.len(), 3);
        assert_eq!(plan.tenants[0].endpoints, (0..8).collect::<Vec<_>>());
        // Group placement starts at the next free multiple of 8.
        assert_eq!(plan.tenants[1].endpoints, (8..16).collect::<Vec<_>>());
        // The implicit tenant takes the 16 remaining endpoints.
        assert_eq!(plan.tenants[2].endpoints.len(), 16);
        let mut all: Vec<usize> = plan
            .tenants
            .iter()
            .flat_map(|t| t.endpoints.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 32, "allocations are disjoint and exhaustive");
        // Determinism: same seed, same plan; different seed, different
        // random placement.
        let again = resolve_mix(
            "allreduce-ring x 8 + traffic(1.0) x 8 @ group(8) + traffic(0.5) @ random",
            &ctx,
            &available,
            42,
        )
        .unwrap();
        assert_eq!(plan.tenants[2].endpoints, again.tenants[2].endpoints);
    }

    #[test]
    fn placement_respects_alive_endpoint_lists() {
        // Placement slots index into `available`, so a faulted fabric just
        // passes its alive list and tenants land only on survivors.
        let available = vec![3usize, 5, 8, 9, 10, 11, 20, 21];
        let plan = resolve_mix(
            "allgather x 4 + traffic(1.0) x 4",
            &JobCtx::new(),
            &available,
            1,
        )
        .unwrap();
        assert_eq!(plan.tenants[0].endpoints, vec![3, 5, 8, 9]);
        assert_eq!(plan.tenants[1].endpoints, vec![10, 11, 20, 21]);
    }

    #[test]
    fn oversubscribed_mixes_are_rejected() {
        let available: Vec<usize> = (0..8).collect();
        assert!(matches!(
            resolve_mix("traffic(1.0) x 16", &JobCtx::new(), &available, 1),
            Err(JobError::BadArgs { .. })
        ));
        assert!(matches!(
            resolve_mix(
                "traffic(1.0) x 4 @ group(8) + traffic(1.0) x 8",
                &JobCtx::new(),
                &available,
                1
            ),
            Err(JobError::BadArgs { .. })
        ));
    }

    #[test]
    fn traffic_job_builds_its_nested_pattern_over_rank_space() {
        let available: Vec<usize> = (0..10).collect();
        let plan = resolve_mix(
            "traffic(0.75, tornado, 2048)",
            &JobCtx::new(),
            &available,
            1,
        );
        match &plan.unwrap().tenants[0].behavior {
            JobBehavior::OpenLoop(spec) => {
                assert_eq!(spec.bytes, 2048);
                assert_eq!(spec.rate, RateProcess::Poisson { load: 0.75 });
                assert_eq!(spec.pattern.endpoints(), 10);
                let mut rng = StdRng::seed_from_u64(1);
                assert_eq!(spec.pattern.dst(0, &mut rng), 5);
            }
            _ => panic!("traffic is open loop"),
        }
        // A nested spec the flat pattern parser cannot express.
        assert!(validate_mix_spec("traffic(1.0, hotspot(4, 0.5))").is_ok());
    }

    /// Platform canary: every finite pacing gap, steady source gap and
    /// fault gap is an `exp_draw`-style `-u.ln() * mean` draw, and `f64::ln`
    /// is whatever the platform's libm returns. A libm whose `ln` moves any
    /// of these 10⁵ draws fails here, by name, before it moves the goldens.
    /// The draws are truncated to whole picoseconds, so the second hash pins
    /// the bits of `-u.ln()` for the same `u` values: a libm one ulp off
    /// fails it even where no draw moves.
    #[test]
    fn exp_draws_are_pinned_on_this_platform() {
        let mut rng = StdRng::seed_from_u64(3606);
        let hash = (0..100_000).fold(0u64, |h, _| mix64(h ^ exp_draw(1e6, &mut rng)));
        assert_eq!(hash, 14795812545231025008);
        let mut rng = StdRng::seed_from_u64(3606);
        let bits = (0..100_000).fold(0u64, |h, _| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            mix64(h ^ (-u.ln()).to_bits())
        });
        assert_eq!(bits, 18410699089603193793);
    }
}
