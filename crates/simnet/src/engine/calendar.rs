//! A bucketed calendar queue for the event loop's hot path.
//!
//! Discrete-event traffic is heavily clustered around "now": almost every event
//! an interconnect simulation schedules lands within a few serialization times
//! of the current timestamp. A single [`std::collections::BinaryHeap`] pays
//! `O(log n)` sift per operation on one big array; the calendar queue instead
//! hashes events by `time / bucket_width` into a ring of small per-bucket heaps
//! (near-O(1) insert/pop when the width matches the event spacing) and falls
//! back to one overflow heap for far-future events, which migrate into the ring
//! lazily as the cursor approaches them.
//!
//! A bucket sorts its heap into a run once it is the earliest one left, and
//! pops from the run's end. Whole waves of events can share one timestamp
//! (every packet of a finite run injected at `t = 0` moves in lockstep), and
//! their tie-break keys arrive in no particular order: a heap that large pops
//! along a random path through memory, a sorted run pops its next cache line.
//!
//! Correctness argument for the ring: items are only pushed at or after the
//! time of the last popped item (`cursor_slot`), and anything at or beyond
//! `cursor_slot + nbuckets` goes to the overflow heap, so at any instant each
//! bucket holds items of exactly one slot in `[cursor_slot, cursor_slot +
//! nbuckets)` — the first non-empty bucket in cursor order therefore holds the
//! ring minimum, and the overall minimum is the smaller of that and the
//! overflow top.
//!
//! Most of an event loop's delays are not unpredictable, though: a transmit
//! on an idle link is due now, and the next transmit and the packet's arrival
//! are due a fixed delay later. [`LanedQueue`] keeps such events in
//! append-only sorted lanes beside the calendar, which they then skip.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// An item with a schedule timestamp. `Ord` must order by `(time, tiebreak)`
/// ascending so equal-time items pop in a deterministic order.
pub(crate) trait Timed: Ord + Copy {
    /// Schedule time.
    fn time(&self) -> u64;
}

/// Capacity an emptied bucket keeps for reuse. A bucket that held a bigger
/// wave gives the rest back; it would otherwise hold two wave-sized buffers,
/// the run and the heap, until the end of the run.
const KEEP: usize = 1024;

/// One slot's items: `run`, sorted with its minimum last, and `heap`, the
/// items pushed since the run was last sorted.
struct Bucket<T: Timed> {
    run: Vec<Reverse<T>>,
    heap: BinaryHeap<Reverse<T>>,
}

impl<T: Timed> Bucket<T> {
    fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Once the run is spent, sort the heap into it (the two buffers swap,
    /// so nothing is reallocated).
    fn sort_heap(&mut self) {
        if self.run.is_empty() && !self.heap.is_empty() {
            let spent = std::mem::take(&mut self.run);
            self.run = std::mem::replace(&mut self.heap, BinaryHeap::from(spent)).into_vec();
            self.run.sort_unstable();
        }
    }

    /// Whether the minimum is the heap's top rather than the run's end.
    fn min_in_heap(&self) -> bool {
        match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(h)) => h > r,
            (r, _) => r.is_none(),
        }
    }

    fn min(&self) -> Option<&T> {
        let top = if self.min_in_heap() {
            self.heap.peek()
        } else {
            self.run.last()
        };
        top.map(|Reverse(t)| t)
    }

    /// Remove the minimum.
    fn pop(&mut self) -> T {
        let top = if self.min_in_heap() {
            self.heap.pop()
        } else {
            self.run.pop()
        };
        let Reverse(item) = top.expect("pop of a non-empty bucket");
        if self.is_empty() {
            self.run.shrink_to(KEEP);
            self.heap.shrink_to(KEEP);
        }
        item
    }
}

/// Bucketed calendar queue with an overflow heap for far-future items.
pub(crate) struct CalendarQueue<T: Timed> {
    buckets: Vec<Bucket<T>>,
    far: BinaryHeap<Reverse<T>>,
    bucket_width: u64,
    /// `time / bucket_width` of the most recently popped item.
    cursor_slot: u64,
    in_buckets: usize,
    len: usize,
}

impl<T: Timed> CalendarQueue<T> {
    /// A queue with `nbuckets` buckets of `bucket_width` picoseconds each.
    pub fn new(bucket_width: u64, nbuckets: usize) -> Self {
        let bucket_width = bucket_width.max(1);
        let nbuckets = nbuckets.max(2);
        CalendarQueue {
            buckets: (0..nbuckets)
                .map(|_| Bucket {
                    run: Vec::new(),
                    heap: BinaryHeap::new(),
                })
                .collect(),
            far: BinaryHeap::new(),
            bucket_width,
            cursor_slot: 0,
            in_buckets: 0,
            len: 0,
        }
    }

    /// Number of queued items.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Insert an item. Must not be scheduled before the last popped item.
    pub fn push(&mut self, item: T) {
        let slot = item.time() / self.bucket_width;
        debug_assert!(
            slot >= self.cursor_slot || self.len == 0,
            "calendar queue push into the past: slot {slot} < cursor {}",
            self.cursor_slot
        );
        let n = self.buckets.len() as u64;
        if slot < self.cursor_slot + n {
            self.buckets[(slot % n) as usize].heap.push(Reverse(item));
            self.in_buckets += 1;
        } else {
            self.far.push(Reverse(item));
        }
        self.len += 1;
    }

    /// Remove and return the earliest item (ties broken by the item's `Ord`).
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<T> {
        self.pop_limited(None, None)
    }

    /// Remove and return the earliest item if it is scheduled strictly before
    /// `limit` and, given a `bound`, orders strictly before it; leave the
    /// queue untouched otherwise.
    ///
    /// This is the event loop's epoch primitive: with lookahead `E` and
    /// epoch floor `m`, every event before `m + E` is safe to process because
    /// any message still in flight from another shard carries a timestamp
    /// `≥ m + E`. The cursor may advance into `limit`'s bucket, which is safe
    /// for the same reason — nothing earlier can arrive afterwards.
    ///
    /// `bound` is the head of a pre-sorted side stream merged with the queue:
    /// `None` back means either that the head goes first or that nothing
    /// lies before `limit`, and the caller tells the two apart by the head's
    /// own time.
    pub fn pop_before(&mut self, limit: u64, bound: Option<&T>) -> Option<T> {
        self.pop_limited(Some(limit), bound)
    }

    /// The timestamp of the earliest item without removing it (or advancing
    /// the cursor or migrating overflow items — crucially, a later `push` of
    /// an *earlier* cross-shard message stays legal after this query).
    pub fn next_time(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // An overflow item whose slot has entered the window but has not
        // migrated yet can still be the minimum, so always consult `far`.
        let far_t = self.far.peek().map(|&Reverse(e)| e.time());
        if self.in_buckets == 0 {
            return far_t;
        }
        let n = self.buckets.len() as u64;
        let ring_t = (self.cursor_slot..self.cursor_slot + n)
            .map(|s| (s % n) as usize)
            .find_map(|b| self.buckets[b].min().map(|e| e.time()));
        match (ring_t, far_t) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    fn pop_limited(&mut self, limit: Option<u64>, bound: Option<&T>) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        // Migrate overflow items that have entered the active window.
        let n = self.buckets.len() as u64;
        while let Some(Reverse(top)) = self.far.peek() {
            let slot = top.time() / self.bucket_width;
            if slot >= self.cursor_slot + n {
                break;
            }
            let item = self.far.pop().expect("peeked");
            self.buckets[(slot % n) as usize].heap.push(item);
            self.in_buckets += 1;
        }
        // The first non-empty bucket in cursor order holds the ring minimum.
        let ring_min = if self.in_buckets > 0 {
            (self.cursor_slot..self.cursor_slot + n)
                .map(|s| (s % n) as usize)
                .find(|&b| !self.buckets[b].is_empty())
        } else {
            None
        };
        if let Some(b) = ring_min {
            self.buckets[b].sort_heap();
        }
        let ring_top = ring_min.and_then(|b| self.buckets[b].min());
        let far_top = self.far.peek().map(|Reverse(top)| top);
        // Order by full `Ord`, so the ring/overflow split never leaks into pop
        // order (two equal items are interchangeable).
        let take_far = match (ring_top, far_top) {
            (Some(ring), Some(far)) => far < ring,
            (ring, _) => ring.is_none(),
        };
        let earliest = if take_far { far_top? } else { ring_top? };
        if limit.is_some_and(|limit| earliest.time() >= limit)
            || bound.is_some_and(|bound| earliest >= bound)
        {
            return None;
        }
        let item = match ring_min.filter(|_| !take_far) {
            Some(b) => {
                self.in_buckets -= 1;
                self.buckets[b].pop()
            }
            None => self.far.pop()?.0,
        };
        self.len -= 1;
        self.cursor_slot = item.time() / self.bucket_width;
        Some(item)
    }
}

/// A [`CalendarQueue`] beside `N` append-only sorted lanes.
///
/// A push that names a lane joins it if it orders at or after the lane's
/// tail under the full `Ord`, and goes to the calendar otherwise, so every
/// lane is sorted by construction, with no sort and no heap. A lane pays off
/// for a caller whose pushes arrive mostly in order — at a fixed delay after
/// the current instant — and costs it one comparison where they do not.
pub(crate) struct LanedQueue<T: Timed, const N: usize> {
    calendar: CalendarQueue<T>,
    lanes: [VecDeque<T>; N],
    /// Pops the calendar served.
    calendar_pops: u64,
    /// Pushes each lane turned away to the calendar.
    #[cfg(test)]
    rejections: [u64; N],
}

impl<T: Timed, const N: usize> LanedQueue<T, N> {
    /// Empty lanes beside a [`CalendarQueue::new`]`(bucket_width, nbuckets)`.
    pub fn new(bucket_width: u64, nbuckets: usize) -> Self {
        LanedQueue {
            calendar: CalendarQueue::new(bucket_width, nbuckets),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            calendar_pops: 0,
            #[cfg(test)]
            rejections: [0; N],
        }
    }

    /// Number of queued items.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.calendar.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Pushes lane `lane` turned away to the calendar.
    #[cfg(test)]
    pub fn rejections(&self, lane: usize) -> u64 {
        self.rejections[lane]
    }

    /// Pops the calendar served (the rest came from a lane or the side
    /// stream).
    pub fn calendar_pops(&self) -> u64 {
        self.calendar_pops
    }

    /// Insert an item into the calendar. Must not be scheduled before the
    /// last popped item.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.calendar.push(item);
    }

    /// Append an item to lane `lane` if it orders at or after the lane's
    /// tail, else insert it into the calendar.
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
            self.calendar.push(item);
        }
    }

    /// Remove and return the earliest item under the full `Ord` — the least
    /// lane head or the calendar's minimum — if it lies strictly before
    /// `limit` and, given `side`, orders before it.
    ///
    /// `side` is the head of a pre-sorted stream the caller merges in, with
    /// [`CalendarQueue::pop_before`]'s contract: `None` back means either
    /// that the head goes first or that nothing lies before `limit`.
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
        if let Some(item) = self.calendar.pop_before(limit, bound) {
            self.calendar_pops += 1;
            return Some(item);
        }
        let (i, head) = lane?;
        if head.time() >= limit || side.is_some_and(|side| *side < head) {
            return None;
        }
        self.lanes[i].pop_front()
    }

    /// The timestamp of the earliest item, lane heads included, without
    /// removing it (see [`CalendarQueue::next_time`]).
    pub fn next_time(&self) -> Option<u64> {
        let heads = self.lanes.iter().filter_map(|l| l.front().map(T::time));
        heads.chain(self.calendar.next_time()).min()
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
        let mut q = CalendarQueue::new(10, 8);
        q.push(Ev(35, 1));
        q.push(Ev(5, 2));
        q.push(Ev(35, 0));
        q.push(Ev(900, 3)); // far beyond the 8*10 window -> overflow heap
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
        let mut q = CalendarQueue::new(7, 4);
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
        // Cursor jump across an empty stretch into what was the far heap.
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
        let mut q = CalendarQueue::new(16, 8);
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

        // The side stream: even keys, runs of equal times, and jumps past the
        // ring's 128 ps horizon. The queue gets odd keys, pushed at and after
        // the last popped time, so equal times interleave the two streams and
        // far pushes wait in the overflow heap.
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
        let mut q = CalendarQueue::new(16, 8);
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

    /// Push `e` into the oracle and into `q`: lane `lane`, or the calendar
    /// if `None`.
    fn push_both(
        q: &mut LanedQueue<Ev, 3>,
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

    /// Three lanes plus the calendar plus a pre-sorted side stream pop
    /// exactly what one BinaryHeap holding every item pops, under random
    /// epoch limits. The trace mixes same-time waves with scattered keys (a
    /// finite run's `t = 0` shape, where most lane pushes are turned away at
    /// the tail), pushes at the current instant between pops (keys below the
    /// one just popped included), in-order pushes at each lane's fixed
    /// offset, and far-future items that wait in the overflow heap.
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
        let mut q: LanedQueue<Ev, 3> = LanedQueue::new(16, 8);
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
            "the calendar served {} of {queued} pops",
            q.calendar_pops()
        );
        let rejected: [u64; 3] = std::array::from_fn(|l| q.rejections(l));
        assert!(
            rejected.iter().all(|&n| n > 50) && below > 100,
            "lane rejections {rejected:?}, {below} pushes below the key just popped"
        );
    }

    /// Adversarial overflow-heap trace: every push lands at or beyond the
    /// bucket horizon (`cursor + nbuckets * width`), so *all* traffic funnels
    /// through the far heap and must migrate correctly as the cursor chases it.
    #[test]
    fn far_future_horizon_crossing_matches_binary_heap() {
        let width = 10u64;
        let nbuckets = 4usize;
        let horizon = width * nbuckets as u64;
        let mut q = CalendarQueue::new(width, nbuckets);
        let mut oracle: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut now = 0u64;
        for seq in 0..200u64 {
            // Alternate exactly-at-horizon and far-beyond-horizon pushes, plus
            // one near event to keep the ring populated.
            let deltas = [horizon, horizon + 1, 3 * horizon + seq % width, 1];
            for (i, d) in deltas.iter().enumerate() {
                let e = Ev(now + d, seq * 10 + i as u64);
                q.push(e);
                oracle.push(Reverse(e));
            }
            // Drain two, keeping a backlog that straddles the horizon.
            for _ in 0..2 {
                let got = q.pop();
                let want = oracle.pop().map(|Reverse(e)| e);
                assert_eq!(got, want);
                now = got.expect("backlog never empties here").0;
            }
        }
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }

    /// Bucket-boundary ties: equal times landing exactly on slot boundaries
    /// (`k * width`), including ties split across the ring/overflow border,
    /// must still pop in full `(time, seq)` order.
    #[test]
    fn bucket_boundary_ties_pop_in_seq_order() {
        let width = 10u64;
        let mut q = CalendarQueue::new(width, 4);
        let mut oracle: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        // Time 40 sits exactly on the horizon at push time (cursor 0, window
        // [0, 40)): these go to the overflow heap...
        for seq in 0..4 {
            let e = Ev(40, seq);
            q.push(e);
            oracle.push(Reverse(e));
        }
        // ...and these equal-time, *lower-seq* items arrive after the cursor
        // has advanced, landing in the ring. The ring/overflow split must not
        // leak into pop order.
        for (t, seq) in [(0, 100), (10, 101), (20, 102)] {
            let e = Ev(t, seq);
            q.push(e);
            oracle.push(Reverse(e));
        }
        assert_eq!(q.pop(), Some(Ev(0, 100)));
        assert_eq!(q.pop(), Some(Ev(10, 101)));
        oracle.pop();
        oracle.pop();
        for seq in [90u64, 95] {
            let e = Ev(40, seq);
            q.push(e);
            oracle.push(Reverse(e));
        }
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }

    /// `pop_before` must behave as a guarded `pop`: pop exactly the items
    /// strictly before the limit, in order, and leave the rest untouched —
    /// differentially checked against a plain BinaryHeap with the same guard.
    #[test]
    fn pop_before_matches_guarded_binary_heap() {
        let mut q = CalendarQueue::new(16, 8);
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
        }
        assert_eq!(q.pop(), None);
    }

    /// `next_time` reports the true minimum (including unmigrated overflow
    /// items) without consuming anything or advancing the cursor: an earlier
    /// push afterwards must still be legal and pop first.
    #[test]
    fn next_time_is_non_destructive_and_sees_overflow() {
        let mut q = CalendarQueue::new(10, 4);
        assert_eq!(q.next_time(), None);
        q.push(Ev(500, 0)); // straight to the overflow heap
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
