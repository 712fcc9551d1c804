//! The event loop's queue: a few append-only sorted lanes beside one store.
//!
//! Most of an event loop's delays are not unpredictable: a transmit on an
//! idle link is due now, and the next transmit and the packet's arrival are
//! due a fixed delay later. [`LanedQueue`] keeps such events in append-only
//! sorted lanes, which need no sort and no heap, and every other event in
//! its store.
//!
//! The store is split at the end of the time slot of `last`, the time it
//! last refilled at; a slot is 2^16 time units. Items in that slot or an
//! earlier one sit in a sorted run, its minimum last, plus a
//! [`std::collections::BinaryHeap`] of the items pushed since the run was
//! sorted; once the run is spent, the heap is sorted into it. Items in later
//! slots sit in a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, J. ACM
//! 1990): buckets keyed by the highest bit in which an item's time differs
//! from `last`, so a push is one XOR and no comparison. When the run and the
//! heap are both spent and the next pop is at the lowest non-empty bucket's
//! least time, that bucket refills them: its least time becomes `last`, the
//! items in its slot become the run, sorted once, and the rest drop to lower
//! buckets. An item moves at most once per bit of its distance from `last`
//! above the slot width.
//!
//! Whole waves of events can share one timestamp (every packet of a finite
//! run injected at `t = 0` moves in lockstep), and their tie-break keys
//! arrive in no particular order: a heap that large pops along a random
//! path through memory, a sorted run pops its next cache line.
//!
//! A bucket is a list of fixed-size chunks, and every bucket takes its
//! chunks from one shared free list, so a wave that passes through the
//! buckets leaves behind chunks any bucket can reuse, not 64 buffers each
//! grown to the wave's size.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// An item with a schedule timestamp. `Ord` must order by `(time, tiebreak)`
/// ascending so equal-time items pop in a deterministic order.
pub(crate) trait Timed: Ord + Copy {
    /// Schedule time.
    fn time(&self) -> u64;
}

/// Capacity an emptied store keeps for reuse. A store that held a bigger
/// wave gives the rest back; it would otherwise hold two wave-sized buffers,
/// the run and the heap, and a wave's worth of chunks until the end of the
/// run.
const KEEP: usize = 1024;

/// Log2 of the store's slot width. The run and the heap hold every item in
/// `last`'s slot or an earlier one, so a refill sorts a slot's items into the
/// run together instead of moving each down the buckets below the slot
/// width. The engine's times are picoseconds, and 2^16 ps (65.5 ns) is
/// shorter than the lookahead (130 ns) and a full packet's serialization
/// (327.7 ns), so most of what an event schedules lands in a later slot.
const SLOT_BITS: u32 = 16;

/// Items a bucket chunk holds.
const CHUNK: usize = 256;

/// `N` append-only sorted lanes beside a store for every other item.
///
/// A push that names a lane joins it if it orders at or after the lane's
/// tail under the full `Ord`, and goes to the store otherwise, so every
/// lane is sorted by construction, with no sort and no heap. A lane pays off
/// for a caller whose pushes arrive mostly in order — at a fixed delay after
/// the current instant — and costs it one comparison where they do not.
pub(crate) struct LanedQueue<T: Timed, const N: usize> {
    /// The store's sorted run, its minimum last.
    run: Vec<Reverse<T>>,
    /// The store's items in `last`'s slot or earlier pushed since the run
    /// was last sorted.
    heap: BinaryHeap<Reverse<T>>,
    /// The time the store last refilled at: the run and the heap hold the
    /// items in its slot or earlier, the buckets the items in later slots.
    last: u64,
    /// Bucket `i` holds the items whose time differs from `last` highest in
    /// bit `i` (never below `SLOT_BITS`), as full chunks and a partly full
    /// last one.
    buckets: [Vec<Vec<T>>; 64],
    /// Bit `i` is set if bucket `i` holds an item.
    occupied: u64,
    /// The least time in each bucket (`u64::MAX` in an empty one).
    mins: [u64; 64],
    /// Empty chunks, each with room for `CHUNK` items.
    free: Vec<Vec<T>>,
    lanes: [VecDeque<T>; N],
    /// Time of the item the store last served.
    popped_time: u64,
    /// Pops the store served.
    store_pops: u64,
    /// Pushes each lane turned away to the store.
    #[cfg(test)]
    rejections: [u64; N],
}

impl<T: Timed, const N: usize> LanedQueue<T, N> {
    /// Empty lanes beside an empty store.
    pub fn new() -> Self {
        LanedQueue {
            run: Vec::new(),
            heap: BinaryHeap::new(),
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            mins: [u64::MAX; 64],
            free: Vec::new(),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            popped_time: 0,
            store_pops: 0,
            #[cfg(test)]
            rejections: [0; N],
        }
    }

    /// Number of queued items.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        let bucketed: usize = self.buckets.iter().flatten().map(Vec::len).sum();
        let laned: usize = self.lanes.iter().map(VecDeque::len).sum();
        self.run.len() + self.heap.len() + bucketed + laned
    }

    /// Pushes lane `lane` turned away to the store.
    #[cfg(test)]
    pub fn rejections(&self, lane: usize) -> u64 {
        self.rejections[lane]
    }

    /// Chunks the store holds, in buckets and on the free list.
    #[cfg(test)]
    pub fn chunks(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum::<usize>() + self.free.len()
    }

    /// Pops the store served (the rest came from a lane or the side
    /// stream).
    pub fn store_pops(&self) -> u64 {
        self.store_pops
    }

    /// Insert an item into the store. Must not be scheduled before the item
    /// the store last served, unless the store is empty.
    #[inline]
    pub fn push(&mut self, item: T) {
        debug_assert!(
            item.time() >= self.popped_time || self.store_is_empty(),
            "event queue push into the past: {} < {}",
            item.time(),
            self.popped_time
        );
        if item.time() >> SLOT_BITS <= self.last >> SLOT_BITS {
            self.heap.push(Reverse(item));
        } else {
            self.push_bucket(item);
        }
    }

    /// Append an item in a slot after `last`'s to the bucket of the highest
    /// bit in which its time differs from `last`.
    #[inline]
    fn push_bucket(&mut self, item: T) {
        let b = 63 - (item.time() ^ self.last).leading_zeros() as usize;
        self.occupied |= 1 << b;
        self.mins[b] = self.mins[b].min(item.time());
        let chunks = &mut self.buckets[b];
        match chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(item),
            _ => {
                let mut chunk = self.free.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
                chunk.push(item);
                chunks.push(chunk);
            }
        }
    }

    /// Append an item to lane `lane` if it orders at or after the lane's
    /// tail, else insert it into the store.
    #[inline]
    pub fn push_lane(&mut self, lane: usize, item: T) {
        let tail = self.lanes[lane].back();
        if tail.is_none_or(|tail| *tail <= item) {
            self.lanes[lane].push_back(item);
        } else {
            #[cfg(test)]
            {
                self.rejections[lane] += 1;
            }
            self.push(item);
        }
    }

    /// Remove and return the earliest item (ties broken by the item's `Ord`).
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<T> {
        self.pop_before(u64::MAX, None)
    }

    /// Remove and return the earliest item under the full `Ord` — the least
    /// lane head or the store's minimum — if it lies strictly before `limit`
    /// and, given `side`, orders strictly before it; leave the queue's items
    /// untouched otherwise.
    ///
    /// This is the event loop's epoch primitive: with lookahead `E` and
    /// epoch floor `m`, every event before `m + E` is safe to process because
    /// any message still in flight from another shard carries a timestamp
    /// `≥ m + E`.
    ///
    /// `side` is the head of a pre-sorted stream the caller merges in: `None`
    /// back means either that the head goes first or that nothing lies
    /// before `limit`, and the caller tells the two apart by the head's own
    /// time.
    #[inline]
    pub fn pop_before(&mut self, limit: u64, side: Option<&T>) -> Option<T> {
        let mut lane: Option<(usize, T)> = None;
        for (i, l) in self.lanes.iter().enumerate() {
            if let Some(&head) = l.front() {
                if lane.is_none_or(|(_, least)| head < least) {
                    lane = Some((i, head));
                }
            }
        }
        let bound = match (lane.as_ref().map(|(_, head)| head), side) {
            (Some(head), Some(side)) => Some(head.min(side)),
            (head, side) => head.or(side),
        };
        if self.run.is_empty() {
            if !self.heap.is_empty() {
                // Sort the heap into the spent run (the two buffers swap, so
                // nothing is reallocated).
                let spent = std::mem::take(&mut self.run);
                self.run = std::mem::replace(&mut self.heap, BinaryHeap::from(spent)).into_vec();
                self.run.sort_unstable();
            } else if self.occupied != 0 {
                // Refill only for a pop at the lowest bucket's least time,
                // so `last` never runs ahead of what pops: a push in or
                // before `last`'s slot goes to the heap.
                let b = self.occupied.trailing_zeros() as usize;
                let least = self.mins[b];
                if least < limit && bound.is_none_or(|bound| least <= bound.time()) {
                    self.refill(b);
                }
            }
        }
        if let Some(&min) = self.store_min() {
            if min.time() < limit && bound.is_none_or(|bound| min < *bound) {
                return Some(self.pop_store());
            }
        }
        let (i, head) = lane?;
        if head.time() >= limit || side.is_some_and(|side| *side < head) {
            return None;
        }
        self.lanes[i].pop_front()
    }

    /// Refill the spent run from bucket `b`, the lowest non-empty one: its
    /// least time becomes `last`, its items in that time's slot the run, and
    /// the rest drop to lower buckets.
    fn refill(&mut self, b: usize) {
        self.occupied &= !(1 << b);
        self.last = std::mem::replace(&mut self.mins[b], u64::MAX);
        let mut chunks = std::mem::take(&mut self.buckets[b]);
        for mut chunk in chunks.drain(..) {
            for item in chunk.drain(..) {
                if item.time() >> SLOT_BITS == self.last >> SLOT_BITS {
                    self.run.push(Reverse(item));
                } else {
                    self.push_bucket(item);
                }
            }
            self.free.push(chunk);
        }
        // Keep the emptied chunk list's capacity.
        self.buckets[b] = chunks;
        self.run.sort_unstable();
    }

    fn store_is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty() && self.occupied == 0
    }

    /// The minimum of the run and the heap: the heap's top or the run's end.
    fn store_min(&self) -> Option<&T> {
        let Reverse(min) = self.heap.peek().max(self.run.last())?;
        Some(min)
    }

    /// Remove the minimum of the run and the heap.
    fn pop_store(&mut self) -> T {
        let top = if self.heap.peek() > self.run.last() {
            self.heap.pop()
        } else {
            self.run.pop()
        };
        let Reverse(item) = top.expect("pop of a non-empty store");
        if self.store_is_empty() {
            self.run.shrink_to(KEEP);
            self.heap.shrink_to(KEEP);
            self.free.truncate(KEEP / CHUNK);
        }
        self.popped_time = item.time();
        self.store_pops += 1;
        item
    }

    /// The timestamp of the earliest item without removing it — crucially,
    /// a later `push` of an *earlier* cross-shard message stays legal after
    /// this query.
    pub fn next_time(&self) -> Option<u64> {
        let heads = self.lanes.iter().filter_map(|l| l.front().map(T::time));
        // An empty mask has 64 trailing zeros: no bucket.
        let lowest = self.mins.get(self.occupied.trailing_zeros() as usize);
        let store = self.store_min().map(T::time).or(lowest.copied());
        heads.chain(store).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Ev(u64, u64); // (time, seq)

    impl Timed for Ev {
        fn time(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = LanedQueue::<Ev, 0>::new();
        q.push(Ev(35, 1));
        q.push(Ev(5, 2));
        q.push(Ev(35, 0));
        q.push(Ev(900, 3));
        q.push(Ev(0, 4));
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        assert_eq!(
            out,
            vec![Ev(0, 4), Ev(5, 2), Ev(35, 0), Ev(35, 1), Ev(900, 3)]
        );
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = LanedQueue::<Ev, 0>::new();
        q.push(Ev(3, 0));
        assert_eq!(q.pop(), Some(Ev(3, 0)));
        // Same-time cascade: push at the current time after popping it.
        q.push(Ev(3, 1));
        q.push(Ev(100, 2));
        q.push(Ev(4, 3));
        assert_eq!(q.pop(), Some(Ev(3, 1)));
        q.push(Ev(50, 4));
        assert_eq!(q.pop(), Some(Ev(4, 3)));
        assert_eq!(q.pop(), Some(Ev(50, 4)));
        // A jump across an empty stretch to an item pushed long before.
        q.push(Ev(101, 5));
        assert_eq!(q.pop(), Some(Ev(100, 2)));
        assert_eq!(q.pop(), Some(Ev(101, 5)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The engine's merge: pop the queue's earliest item if it orders before
    /// the side stream's head, else take the head — either only before
    /// `limit`. `pop_before` is the queue's.
    fn pop_merged(
        pop_before: impl FnOnce(u64, Option<&Ev>) -> Option<Ev>,
        side: &[Ev],
        next: &mut usize,
        limit: u64,
    ) -> Option<Ev> {
        let head = side.get(*next);
        if let Some(e) = pop_before(limit, head) {
            return Some(e);
        }
        let head = *head.filter(|h| h.0 < limit)?;
        *next += 1;
        Some(head)
    }

    /// Differential check against a plain BinaryHeap on a deterministic
    /// pseudo-random trace with clustered and far-future times — first the
    /// queue alone, then the queue merged with a pre-sorted side stream
    /// through the bounded `pop_before` under epoch limits, with the heap
    /// holding both.
    #[test]
    fn matches_binary_heap_on_random_trace() {
        let mut q = LanedQueue::<Ev, 0>::new();
        let mut oracle: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut rnd = xorshift(0x2545F4914F6CDD1D);
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..5_000 {
            let r = rnd();
            if !r.is_multiple_of(3) || q.len() == 0 {
                // Mostly near-future pushes, occasionally far-future ones.
                let delta = if r.is_multiple_of(17) {
                    r % 10_000
                } else {
                    r % 64
                };
                let e = Ev(now + delta, seq);
                seq += 1;
                q.push(e);
                oracle.push(Reverse(e));
            } else {
                let got = q.pop();
                let want = oracle.pop().map(|Reverse(e)| e);
                assert_eq!(got, want);
                if let Some(e) = got {
                    now = e.0;
                }
            }
        }
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);

        // The side stream: even keys, runs of equal times, and long jumps.
        // The queue gets odd keys, pushed at and after the last popped time,
        // so equal times interleave the two streams.
        let mut side = Vec::new();
        let mut t = 0u64;
        for i in 0..2_000u64 {
            let r = rnd();
            t += match r % 23 {
                0 => r % 5_000,
                1..=9 => 0,
                _ => r % 12,
            };
            side.push(Ev(t, 2 * i));
        }
        let mut q = LanedQueue::<Ev, 0>::new();
        oracle.extend(side.iter().map(|&e| Reverse(e)));
        let (mut next, mut now, mut seq) = (0usize, 0u64, 0u64);
        for round in 0..1_500 {
            for _ in 0..rnd() % 4 {
                let r = rnd();
                let delta = match r % 11 {
                    0 => r % 10_000,
                    1 | 2 => 0,
                    _ => r % 64,
                };
                let e = Ev(now + delta, 2 * seq + 1);
                seq += 1;
                q.push(e);
                oracle.push(Reverse(e));
            }
            let limit = now + 1 + rnd() % 96;
            loop {
                let want = match oracle.peek() {
                    Some(&Reverse(e)) if e.0 < limit => oracle.pop().map(|Reverse(e)| e),
                    _ => None,
                };
                let got = pop_merged(|l, b| q.pop_before(l, b), &side, &mut next, limit);
                assert_eq!(got, want, "round {round} limit {limit}");
                match got {
                    Some(e) => now = e.0,
                    None => break,
                }
            }
        }
        assert!(next > 0 && next < side.len(), "both streams are live");
        assert!(q.len() > 0);
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(
                pop_merged(|l, b| q.pop_before(l, b), &side, &mut next, u64::MAX),
                Some(want)
            );
        }
        assert_eq!(
            pop_merged(|l, b| q.pop_before(l, b), &side, &mut next, u64::MAX),
            None
        );
        assert_eq!(next, side.len());
    }

    /// Push `e` into the oracle and into `q`: lane `lane`, or the store if
    /// `None`.
    fn push_both<const N: usize>(
        q: &mut LanedQueue<Ev, N>,
        oracle: &mut BinaryHeap<Reverse<Ev>>,
        lane: Option<usize>,
        e: Ev,
    ) {
        oracle.push(Reverse(e));
        match lane {
            Some(l) => q.push_lane(l, e),
            None => q.push(e),
        }
    }

    /// Three lanes plus the store plus a pre-sorted side stream pop
    /// exactly what one BinaryHeap holding every item pops, under random
    /// epoch limits. The trace mixes same-time waves with scattered keys (a
    /// finite run's `t = 0` shape, where most lane pushes are turned away at
    /// the tail), pushes at the current instant between pops (keys below the
    /// one just popped included), in-order pushes at each lane's fixed
    /// offset, and far-future items that wait in the store.
    #[test]
    fn lanes_merge_matches_binary_heap() {
        let mut rnd = xorshift(0xD1B5_4A32_D192_ED03);
        // Keys are unique: a random high part above the push's sequence number.
        let mut seq = 0u64;
        let mut key = |r: u64| {
            seq += 1;
            ((r & 0xFFFF_FFFF) << 24) | seq
        };
        let mut side = Vec::new();
        let mut t = 0u64;
        for _ in 0..1_500 {
            let r = rnd();
            t += match r % 23 {
                0 => r % 5_000,
                1..=9 => 0,
                _ => r % 12,
            };
            side.push(Ev(t, key(r >> 7)));
        }
        side.sort_unstable();
        let mut q: LanedQueue<Ev, 3> = LanedQueue::new();
        let mut oracle: BinaryHeap<Reverse<Ev>> = side.iter().map(|&e| Reverse(e)).collect();
        let (mut next, mut now, mut popped) = (0usize, 0u64, 0u64);
        let mut below = 0u64;
        let lane_of = |r: u64| Some((r % 4) as usize).filter(|&l| l < 3);
        for round in 0..1_200 {
            match rnd() % 4 {
                0 => {
                    let at = now + [0, 0, 16, 40][(rnd() % 4) as usize];
                    for _ in 0..rnd() % 64 {
                        let r = rnd();
                        let e = Ev(at, key(r >> 2));
                        push_both(&mut q, &mut oracle, lane_of(r), e);
                    }
                }
                1 => {
                    for (lane, offset) in [0u64, 25, 66].into_iter().enumerate() {
                        for _ in 0..rnd() % 4 {
                            let e = Ev(now + offset, (1 << 60) | key(0));
                            push_both(&mut q, &mut oracle, Some(lane), e);
                        }
                    }
                }
                2 => {
                    let r = rnd();
                    let e = Ev(now + 200 + r % 10_000, key(r >> 14));
                    push_both(&mut q, &mut oracle, None, e);
                }
                _ => {}
            }
            let limit = now + 1 + rnd() % 96;
            loop {
                let want = match oracle.peek() {
                    Some(&Reverse(e)) if e.0 < limit => oracle.pop().map(|Reverse(e)| e),
                    _ => None,
                };
                let got = pop_merged(|l, b| q.pop_before(l, b), &side, &mut next, limit);
                assert_eq!(got, want, "round {round} limit {limit}");
                let Some(e) = got else { break };
                (now, popped) = (e.0, popped + 1);
                let r = rnd();
                if r.is_multiple_of(3) {
                    let at_now = Ev(now, key(r >> 2));
                    below += u64::from(at_now < e);
                    push_both(&mut q, &mut oracle, lane_of(r >> 40), at_now);
                }
            }
        }
        assert!(
            next > 0 && next < side.len() && q.len() > 0,
            "every stream is live"
        );
        while let Some(Reverse(want)) = oracle.pop() {
            let got = pop_merged(|l, b| q.pop_before(l, b), &side, &mut next, u64::MAX);
            assert_eq!(got, Some(want));
            popped += 1;
        }
        assert_eq!(
            pop_merged(|l, b| q.pop_before(l, b), &side, &mut next, u64::MAX),
            None
        );
        assert_eq!((next, q.len()), (side.len(), 0));
        let queued = popped - side.len() as u64;
        assert!(
            0 < q.store_pops() && q.store_pops() < queued,
            "the store served {} of {queued} pops",
            q.store_pops()
        );
        let rejected: [u64; 3] = std::array::from_fn(|l| q.rejections(l));
        assert!(
            rejected.iter().all(|&n| n > 50) && below > 100,
            "lane rejections {rejected:?}, {below} pushes below the key just popped"
        );
    }

    /// `pop_before` must behave as a guarded `pop`: pop exactly the items
    /// strictly before the limit, in order, and leave the rest untouched —
    /// differentially checked against a plain BinaryHeap with the same guard,
    /// on clustered bursts with far-future outliers, then on a same-time wave.
    #[test]
    fn pop_before_matches_guarded_binary_heap() {
        let mut q = LanedQueue::<Ev, 0>::new();
        let mut oracle: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut rnd = xorshift(0x9E3779B97F4A7C15);
        let mut now = 0u64;
        let mut seq = 0u64;
        for round in 0..400 {
            // A clustered burst with occasional far-future outliers.
            for _ in 0..3 {
                let r = rnd();
                let delta = if r.is_multiple_of(13) {
                    r % 5_000
                } else {
                    r % 48
                };
                let e = Ev(now + delta, seq);
                seq += 1;
                q.push(e);
                oracle.push(Reverse(e));
            }
            // Epoch-style drain up to a limit ahead of "now".
            let limit = now + 1 + rnd() % 96;
            loop {
                let want = match oracle.peek() {
                    Some(&Reverse(e)) if e.0 < limit => {
                        oracle.pop();
                        Some(e)
                    }
                    _ => None,
                };
                let got = q.pop_before(limit, None);
                assert_eq!(got, want, "round {round} limit {limit}");
                match got {
                    Some(e) => now = e.0,
                    None => break,
                }
            }
            // The queue must refuse to pop at-or-after the limit even when
            // non-empty.
            if let Some(&Reverse(e)) = oracle.peek() {
                assert!(e.0 >= limit);
            }
        }
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
            now = want.0;
        }
        assert_eq!(q.pop(), None);

        // A wave of 12,000 items at one instant with scattered keys (a finite
        // run's `t = 0` shape), which arrives through a bucket and which the
        // store sorts into its run, and while the run drains, pushes at that
        // instant (keys below the one just popped included) and just after
        // it, which join the heap, and 40 slots after it, which join a
        // bucket.
        let wave = ((now >> SLOT_BITS) + 1) << SLOT_BITS;
        for _ in 0..12_000 {
            push_both(&mut q, &mut oracle, None, Ev(wave, (rnd() << 20) | seq));
            seq += 1;
        }
        assert!(q.run.is_empty() && q.heap.is_empty() && q.chunks() >= 12_000 / CHUNK);
        let mut below = 0u64;
        while let Some(first) = q.next_time() {
            let limit = first + 1 + rnd() % 96;
            loop {
                let want = match oracle.peek() {
                    Some(&Reverse(e)) if e.0 < limit => oracle.pop().map(|Reverse(e)| e),
                    _ => None,
                };
                let got = q.pop_before(limit, None);
                assert_eq!(got, want, "wave limit {limit}");
                let Some(e) = got else { break };
                let r = rnd();
                if !r.is_multiple_of(3) && seq < 30_000 {
                    let later = [0, 0, 1, 40 << SLOT_BITS][(r % 4) as usize];
                    let at = Ev(e.0 + later, (r << 20) | seq);
                    seq += 1;
                    below += u64::from(at < e);
                    push_both(&mut q, &mut oracle, None, at);
                }
            }
        }
        assert!(oracle.is_empty() && q.pop().is_none());
        assert!(below > 1_000, "{below} pushes below the key just popped");
    }

    /// `next_time` reports the true minimum without consuming anything: an
    /// earlier push afterwards must still be legal and pop first.
    #[test]
    fn next_time_is_non_destructive() {
        let mut q = LanedQueue::<Ev, 0>::new();
        assert_eq!(q.next_time(), None);
        q.push(Ev(500, 0));
        assert_eq!(q.next_time(), Some(500));
        // After the query, an earlier event (a cross-shard message in the
        // engine) can still arrive and must come out first.
        q.push(Ev(7, 1));
        assert_eq!(q.next_time(), Some(7));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(Ev(7, 1)));
        assert_eq!(q.next_time(), Some(500));
        assert_eq!(q.pop(), Some(Ev(500, 0)));
        assert_eq!(q.next_time(), None);
    }

    /// One slot's width.
    const W: u64 = 1 << SLOT_BITS;

    /// `next_time` reads the lowest bucket when the minimum sits there, and a
    /// push in `last`'s slot, exactly at `last` or below it into an empty
    /// store goes first.
    #[test]
    fn next_time_reads_the_lowest_bucket() {
        let mut q = LanedQueue::<Ev, 0>::new();
        for e in [
            Ev(1_000 * W, 0),
            Ev(600 * W, 1),
            Ev(900 * W, 2),
            Ev(1 << 56, 3),
        ] {
            q.push(e);
        }
        assert!(q.run.is_empty() && q.heap.is_empty());
        assert_eq!(q.next_time(), Some(600 * W));
        assert_eq!(q.pop(), Some(Ev(600 * W, 1)));
        assert_eq!((q.last, q.run.len(), q.heap.len()), (600 * W, 0, 0));
        assert_eq!(q.next_time(), Some(900 * W));
        // In `last`'s slot, and exactly at `last`: the heap takes both, and
        // they go first.
        q.push(Ev(600 * W + 5, 4));
        q.push(Ev(600 * W, 5));
        assert_eq!((q.heap.len(), q.next_time()), (2, Some(600 * W)));
        assert_eq!(q.pop(), Some(Ev(600 * W, 5)));
        assert_eq!(q.pop(), Some(Ev(600 * W + 5, 4)));
        assert_eq!(q.pop(), Some(Ev(900 * W, 2)));
        assert_eq!(q.next_time(), Some(1_000 * W));
        assert_eq!(q.pop(), Some(Ev(1_000 * W, 0)));
        assert_eq!(q.next_time(), Some(1 << 56));
        assert_eq!(q.pop(), Some(Ev(1 << 56, 3)));
        // Below `last` into the emptied store.
        q.push(Ev(3, 6));
        q.push(Ev(1 << 57, 7));
        assert_eq!(q.next_time(), Some(3));
        assert_eq!(q.pop(), Some(Ev(3, 6)));
        assert_eq!(q.next_time(), Some(1 << 57));
        assert_eq!(q.pop(), Some(Ev(1 << 57, 7)));
        assert_eq!((q.next_time(), q.len()), (None, 0));
    }

    /// A bucket refills the run only for a pop at its least time: with an
    /// earlier lane head or side head in front, `last` stays put, so a
    /// push before the bucket's items still goes to a bucket, not the heap.
    #[test]
    fn a_refill_waits_for_its_pop() {
        let mut q = LanedQueue::<Ev, 1>::new();
        q.push(Ev(W << 30, 0));
        q.push_lane(0, Ev(10 * W, 1));
        q.push_lane(0, Ev(20 * W, 2));
        assert_eq!(q.pop_before(u64::MAX, Some(&Ev(5 * W, 9))), None);
        assert_eq!(q.pop(), Some(Ev(10 * W, 1)));
        assert_eq!(q.pop_before(15 * W, None), None);
        assert_eq!((q.last, q.run.len()), (0, 0));
        q.push(Ev(25 * W, 3));
        assert_eq!((q.heap.len(), q.next_time()), (0, Some(20 * W)));
        assert_eq!(q.pop(), Some(Ev(20 * W, 2)));
        assert_eq!(q.pop(), Some(Ev(25 * W, 3)));
        assert_eq!(q.last, 25 * W);
        assert_eq!(q.pop_before(W << 30, None), None);
        assert_eq!(q.pop(), Some(Ev(W << 30, 0)));
        assert_eq!(q.last, W << 30);
    }

    /// What a radix trace exercised.
    #[derive(Debug, Default)]
    struct RadixCoverage {
        /// Bit `i` is set if a push landed in bucket `i`.
        levels: u64,
        /// Pushes exactly at `last` into a non-empty store.
        at_last: u64,
        /// Pushes after `last` in its slot.
        in_slot: u64,
        /// Pushes below `last` into an empty store.
        below_empty: u64,
        /// Pushes within 2^20 of `u64::MAX`.
        near_max: u64,
        /// `next_time` checks with the minimum in a bucket.
        bucket_next: u64,
        /// Pops from the side stream while the queue held an item before
        /// the limit.
        side: u64,
    }

    /// Pop the merged stream strictly before `limit`, each pop checked
    /// against the oracle (which holds the queue's items) and the side
    /// stream's head, and `next_time` checked after it. Returns the time of
    /// the last pop.
    fn drain_merged(
        q: &mut LanedQueue<Ev, 0>,
        oracle: &mut BinaryHeap<Reverse<Ev>>,
        (side, next): (&[Ev], &mut usize),
        limit: u64,
        cov: &mut RadixCoverage,
    ) -> Option<u64> {
        let mut last = None;
        loop {
            let qmin = oracle.peek().map(|&Reverse(e)| e);
            let head = side.get(*next).copied();
            let want = qmin.into_iter().chain(head).min().filter(|e| e.0 < limit);
            let got = pop_merged(|l, b| q.pop_before(l, b), side, next, limit);
            assert_eq!(got, want, "limit {limit}");
            let Some(e) = got else { return last };
            if got == qmin {
                oracle.pop();
            } else {
                cov.side += u64::from(qmin.is_some_and(|e| e.0 < limit));
            }
            last = Some(e.0);
            assert_eq!(q.next_time(), oracle.peek().map(|&Reverse(e)| e.0));
            cov.bucket_next += u64::from(q.run.is_empty() && q.heap.is_empty() && q.occupied != 0);
        }
    }

    /// Differential check of the radix store against a plain `BinaryHeap`:
    /// `ops` random pushes and pops, in epoch drains under `pop_before`
    /// limits, merged with a pre-sorted side stream. A push is due
    /// `2^(k-1) ≤ δ < 2^k` after the last pop for a random level
    /// `1 ≤ k ≤ 62`, exactly at `last`, or within 2^20 of `u64::MAX - 1`; a
    /// limit lies `2^j` ahead for a random `j`. Once past 2^40, an emptied
    /// store starts over below `last`, beside a new side stream.
    fn check_radix_trace(seed: u64, ops: usize) -> RadixCoverage {
        let mut rnd = xorshift(seed);
        // A random bit level, mostly low: `0`, `1..=16` or `17..=62`.
        let level = |r: u64| match r % 4 {
            0 => 0,
            1 | 2 => 1 + (r >> 2) % 16,
            _ => 17 + (r >> 2) % 46,
        };
        let mut side_keys = 0u64;
        let mut side = side_stream(&mut rnd, 0, &mut side_keys);
        let mut q = LanedQueue::<Ev, 0>::new();
        let mut oracle: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut cov = RadixCoverage::default();
        let (mut next, mut now, mut seq) = (0usize, 0u64, 0u64);
        while (seq as usize) < ops / 2 {
            let r = rnd();
            let mut push = |q: &mut LanedQueue<Ev, 0>, time: u64| {
                let e = Ev(time, 2 * seq + 1);
                seq += 1;
                q.push(e);
                oracle.push(Reverse(e));
            };
            if q.len() == 0 && now > 1 << 40 {
                // Start over below `last`, into the empty store.
                let time = r % (1 << 30);
                cov.below_empty += u64::from(time < q.last);
                push(&mut q, time);
                (side, next) = (side_stream(&mut rnd, time, &mut side_keys), 0);
            }
            for _ in 0..r % 6 {
                let (r, s) = (rnd(), rnd());
                let time = if r.is_multiple_of(64) {
                    (END - s % (1 << 20)).max(now)
                } else {
                    let delta = match level(r) {
                        0 => {
                            let at = q.last.max(q.popped_time);
                            cov.at_last += u64::from(at == q.last && q.len() > 0);
                            push(&mut q, at);
                            continue;
                        }
                        k => (1 << (k - 1)) | (s & ((1 << (k - 1)) - 1)),
                    };
                    let room = (END - now).max(1);
                    now.checked_add(delta)
                        .filter(|&t| t <= END)
                        .unwrap_or(END - s % room)
                };
                if time >> SLOT_BITS > q.last >> SLOT_BITS {
                    cov.levels |= 1 << (63 - (time ^ q.last).leading_zeros());
                }
                cov.in_slot += u64::from(time > q.last && time >> SLOT_BITS == q.last >> SLOT_BITS);
                cov.near_max += u64::from(time > u64::MAX - (1 << 20));
                push(&mut q, time);
            }
            assert_eq!(q.next_time(), oracle.peek().map(|&Reverse(e)| e.0));
            let limit = now.saturating_add(1 << level(rnd()));
            let popped = drain_merged(&mut q, &mut oracle, (&side, &mut next), limit, &mut cov);
            now = popped.unwrap_or(now);
        }
        drain_merged(&mut q, &mut oracle, (&side, &mut next), u64::MAX, &mut cov);
        assert_eq!((q.len(), next), (0, side.len()));
        cov
    }

    /// The latest time a radix trace pushes: a limit saturates at
    /// `u64::MAX`, and only what lies strictly before it pops.
    const END: u64 = u64::MAX - 1;

    /// 256 sorted side-stream items from `t` on, with even keys: runs of
    /// equal times, short steps and jumps of up to 2^15.
    fn side_stream(rnd: &mut impl FnMut() -> u64, mut t: u64, keys: &mut u64) -> Vec<Ev> {
        (0..256)
            .map(|_| {
                let r = rnd();
                t = END.min(
                    t + match r % 8 {
                        0..=3 => 0,
                        4..=6 => r % 64,
                        _ => 1 << (r % 16),
                    },
                );
                *keys += 1;
                Ev(t, 2 * *keys)
            })
            .collect()
    }

    /// The radix store over every bit level: times up to near `u64::MAX`,
    /// pushes exactly at `last` and below it into an empty store, and
    /// `next_time` with the minimum in a bucket.
    #[test]
    fn radix_levels_match_binary_heap() {
        let cov = check_radix_trace(0x5851_F42D_4C95_7F2D, 60_000);
        assert!(
            cov.levels == u64::MAX << SLOT_BITS
                && cov.at_last > 1_000
                && cov.in_slot > 1_000
                && cov.below_empty > 20
                && cov.near_max > 100
                && cov.bucket_next > 500
                && cov.side > 1_000,
            "{cov:?}"
        );
    }

    /// The same check over 10⁶ operations. Run it optimised, where the
    /// push-into-the-past `debug_assert!` is compiled out:
    /// `cargo test --release -p spectralfly-simnet --lib engine:: -- --ignored`.
    #[test]
    #[ignore = "long; run optimised with --ignored"]
    fn radix_store_matches_binary_heap_over_a_million_ops() {
        let cov = check_radix_trace(0xA076_1D64_78BD_642F, 1_000_000);
        assert!(
            cov.levels == u64::MAX << SLOT_BITS && cov.below_empty > 500 && cov.side > 10_000,
            "{cov:?}"
        );
    }

    /// A 100k-item wave that drains through the buckets holds at most one
    /// partly full chunk per bucket beyond what its items fill, and an
    /// emptied store gives its chunks back.
    #[test]
    fn a_wave_through_the_buckets_holds_few_chunks() {
        let mut rnd = xorshift(0x2F1D_8A4B_33C0_9E57);
        let mut q = LanedQueue::<Ev, 0>::new();
        let mut oracle: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        // A sixteenth of a slot apart: the wave spans 256 slots.
        let step = W / 16;
        for seq in 0..100_000 {
            let r = rnd();
            let e = Ev(W + r % 4_096 * step, (r << 20) | seq);
            push_both(&mut q, &mut oracle, None, e);
        }
        let (mut peak, mut most, mut seq) = (q.len(), q.chunks(), 100_000u64);
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
            let r = rnd();
            if r.is_multiple_of(4) && seq < 160_000 {
                let e = Ev(want.0 + r % 8_192 * step, (r << 20) | seq);
                push_both(&mut q, &mut oracle, None, e);
                seq += 1;
            }
            peak = peak.max(q.len());
            most = most.max(q.chunks());
        }
        assert!(
            most <= peak.div_ceil(CHUNK) + 64,
            "{most} chunks for a peak of {peak} items"
        );
        assert!(
            q.pop().is_none() && q.chunks() <= KEEP / CHUNK,
            "{} chunks kept",
            q.chunks()
        );
    }
}
