//! The event loop's queue: a few append-only sorted lanes beside one store.
//!
//! Most of an event loop's delays are not unpredictable: a transmit on an
//! idle link is due now, and the next transmit and the packet's arrival are
//! due a fixed delay later. [`LanedQueue`] keeps such events in append-only
//! sorted lanes, which need no sort and no heap, and every other event in
//! its store.
//!
//! The store is a sorted run, its minimum last, plus a
//! [`std::collections::BinaryHeap`] of the items pushed since the run was
//! sorted; once the run is spent, the heap is sorted into it. Whole waves of
//! events can share one timestamp (every packet of a finite run injected at
//! `t = 0` moves in lockstep), and their tie-break keys arrive in no
//! particular order: a heap that large pops along a random path through
//! memory, a sorted run pops its next cache line.

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
/// the run and the heap, until the end of the run.
const KEEP: usize = 1024;

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
    /// The store's items pushed since the run was last sorted.
    heap: BinaryHeap<Reverse<T>>,
    lanes: [VecDeque<T>; N],
    /// Time of the item the store last served.
    popped_time: u64,
    /// Pops the store served.
    calendar_pops: u64,
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
            lanes: std::array::from_fn(|_| VecDeque::new()),
            popped_time: 0,
            calendar_pops: 0,
            #[cfg(test)]
            rejections: [0; N],
        }
    }

    /// Number of queued items.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Pushes lane `lane` turned away to the store.
    #[cfg(test)]
    pub fn rejections(&self, lane: usize) -> u64 {
        self.rejections[lane]
    }

    /// Pops the store served (the rest came from a lane or the side
    /// stream).
    pub fn calendar_pops(&self) -> u64 {
        self.calendar_pops
    }

    /// Insert an item into the store. Must not be scheduled before the item
    /// the store last served, unless the store is empty.
    #[inline]
    pub fn push(&mut self, item: T) {
        debug_assert!(
            item.time() >= self.popped_time || self.store_min().is_none(),
            "event queue push into the past: {} < {}",
            item.time(),
            self.popped_time
        );
        self.heap.push(Reverse(item));
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
    /// and, given `side`, orders strictly before it; leave the queue
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
        // Once the run is spent, sort the heap into it (the two buffers
        // swap, so nothing is reallocated).
        if self.run.is_empty() && !self.heap.is_empty() {
            let spent = std::mem::take(&mut self.run);
            self.run = std::mem::replace(&mut self.heap, BinaryHeap::from(spent)).into_vec();
            self.run.sort_unstable();
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

    /// The store's minimum: the heap's top or the run's end.
    fn store_min(&self) -> Option<&T> {
        let Reverse(min) = self.heap.peek().max(self.run.last())?;
        Some(min)
    }

    /// Remove the store's minimum.
    fn pop_store(&mut self) -> T {
        let top = if self.heap.peek() > self.run.last() {
            self.heap.pop()
        } else {
            self.run.pop()
        };
        let Reverse(item) = top.expect("pop of a non-empty store");
        if self.run.is_empty() && self.heap.is_empty() {
            self.run.shrink_to(KEEP);
            self.heap.shrink_to(KEEP);
        }
        self.popped_time = item.time();
        self.calendar_pops += 1;
        item
    }

    /// The timestamp of the earliest item without removing it — crucially,
    /// a later `push` of an *earlier* cross-shard message stays legal after
    /// this query.
    pub fn next_time(&self) -> Option<u64> {
        let heads = self.lanes.iter().filter_map(|l| l.front().map(T::time));
        heads.chain(self.store_min().map(T::time)).min()
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
            0 < q.calendar_pops() && q.calendar_pops() < queued,
            "the store served {} of {queued} pops",
            q.calendar_pops()
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
        // run's `t = 0` shape), which the store sorts into its run, and while
        // the run drains, pushes at that instant (keys below the one just
        // popped included) and shortly after it, which join the heap.
        let wave = now + 100;
        for _ in 0..12_000 {
            push_both(&mut q, &mut oracle, None, Ev(wave, (rnd() << 20) | seq));
            seq += 1;
        }
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
                    let at = Ev(e.0 + [0, 0, 1, 40][(r % 4) as usize], (r << 20) | seq);
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
}
