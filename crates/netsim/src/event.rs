//! Timed event queue.
//!
//! A classic discrete-event scheduler: events are popped in time
//! order, and events scheduled for the same instant are delivered in
//! insertion (FIFO) order so runs are deterministic.
//!
//! The production implementation is a *calendar queue* (a bucketed
//! timing wheel, Brown 1988): events hash into `O(1)`-addressable
//! day-width buckets, so `schedule`/`next` run in amortised constant
//! time instead of the `O(log n)` of a binary heap, and — unlike a
//! heap — same-instant events need no sifting to keep FIFO order.
//! The tests keep the original binary-heap scheduler as an oracle:
//! seeded property tests drive both with the same randomized schedule
//! and assert identical pop sequences.

use crate::time::SimTime;

/// A scheduled entry, ordered by `(time, seq)`.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// Smallest bucket count the calendar keeps (power of two).
const MIN_BUCKETS: usize = 16;
/// Largest bucket count the calendar grows to (power of two).
const MAX_BUCKETS: usize = 1 << 16;
/// Initial bucket width: 2^10 µs ≈ 1 ms, a good match for the
/// millisecond-scale handshake/transfer events the simulations post.
const INITIAL_SHIFT: u32 = 10;

/// The calendar proper: a ring of buckets, each a `VecDeque` holding
/// its events sorted *ascending* by `(time, seq)` — the bucket
/// minimum pops from the front in `O(1)`, and the dominant insertion
/// pattern (monotonically later times, FIFO bursts at one instant)
/// appends to the back in `O(1)`. Only an insertion that lands
/// between already-queued entries pays a shift, and the resize policy
/// keeps buckets at `O(1)` occupancy.
///
/// An event at time `t` lives in bucket `day(t) % n` where
/// `day(t) = t.micros >> shift` — all events of one "day" share one
/// bucket, which is what makes the cursor scan in [`Calendar::min_bucket`]
/// correct: the first cursor day whose bucket holds an event of that
/// day owns the global minimum.
struct Calendar<E> {
    buckets: Vec<std::collections::VecDeque<Scheduled<E>>>,
    /// `log2` of the bucket width in microseconds.
    shift: u32,
    /// Lower bound on the day of the earliest queued event. Pops
    /// tighten it to the exact minimum day; pushes relax it downward.
    cursor_day: u64,
    len: usize,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            shift: INITIAL_SHIFT,
            cursor_day: 0,
            len: 0,
        }
    }

    #[inline]
    fn day(&self, t: SimTime) -> u64 {
        t.as_micros() >> self.shift
    }

    #[inline]
    fn bucket_of_day(&self, day: u64) -> usize {
        (day as usize) & (self.buckets.len() - 1)
    }

    fn push(&mut self, s: Scheduled<E>) {
        let day = self.day(s.time);
        if self.len == 0 || day < self.cursor_day {
            self.cursor_day = day;
        }
        let b = self.bucket_of_day(day);
        let bucket = &mut self.buckets[b];
        // Ascending (time, seq): seq grows monotonically, so FIFO
        // bursts at one instant and later-time schedules both append.
        match bucket.back() {
            Some(back) if (back.time, back.seq) > (s.time, s.seq) => {
                let pos = bucket.partition_point(|e| (e.time, e.seq) < (s.time, s.seq));
                bucket.insert(pos, s);
            }
            _ => bucket.push_back(s),
        }
        self.len += 1;
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    /// Bucket index and day of the earliest queued event, or `None`
    /// when empty.
    ///
    /// Scans days from `cursor_day`: the first day whose bucket's
    /// front (= bucket minimum) belongs to that day holds the global
    /// minimum. If a full ring passes without a hit, every event is at
    /// least one full rotation ahead — fall back to comparing bucket
    /// minima directly and jump the calendar to the winner.
    fn min_bucket(&self) -> Option<(usize, u64)> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        for step in 0..n as u64 {
            let day = self.cursor_day + step;
            let b = self.bucket_of_day(day);
            if let Some(front) = self.buckets[b].front() {
                if self.day(front.time) == day {
                    return Some((b, day));
                }
            }
        }
        // Sparse horizon: global minimum over bucket minima.
        let (b, front) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.front().map(|t| (i, t)))
            .min_by_key(|(_, t)| (t.time, t.seq))
            .expect("len > 0 implies a non-empty bucket");
        Some((b, self.day(front.time)))
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let (b, day) = self.min_bucket()?;
        self.cursor_day = day;
        let s = self.buckets[b]
            .pop_front()
            .expect("min_bucket found an event");
        self.len -= 1;
        if self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        }
        Some(s)
    }

    fn peek(&self) -> Option<&Scheduled<E>> {
        let (b, _) = self.min_bucket()?;
        self.buckets[b].front()
    }

    /// Rebuild the ring for the current population: bucket count
    /// tracks `len` (one event per bucket on average) and the bucket
    /// width tracks the mean gap between queued events, so both
    /// clustered and sparse schedules keep `O(1)` operations. Events
    /// re-insert in globally sorted order, so every re-insert is a
    /// back append.
    fn resize(&mut self) {
        let mut events: Vec<Scheduled<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            events.extend(bucket.drain(..));
        }
        events.sort_unstable_by_key(|s| (s.time, s.seq));
        let n = events
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != n {
            self.buckets.resize_with(n, std::collections::VecDeque::new);
            // Shrinks drop tail buckets (empty after the drain above);
            // keep the allocation for the survivors.
            self.buckets.truncate(n);
        }
        if let (Some(first), Some(last)) = (events.first(), events.last()) {
            let span = last.time.as_micros() - first.time.as_micros();
            let mean_gap = (span / events.len() as u64).max(1);
            // Width = next power of two above the mean inter-event
            // gap, so one "day" holds O(1) events.
            self.shift = 64 - mean_gap.leading_zeros();
            self.cursor_day = self.day(first.time);
        }
        self.len = events.len();
        for s in events {
            let day = self.day(s.time);
            let b = self.bucket_of_day(day);
            self.buckets[b].push_back(s);
        }
    }
}

/// A deterministic discrete-event queue.
///
/// The queue tracks the current simulated time: popping an event
/// advances the clock to that event's timestamp. Scheduling an event
/// in the past is a logic error and panics — a simulation that does
/// so would silently reorder causality otherwise.
pub struct EventQueue<E> {
    calendar: Calendar<E>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> EventQueue<E> {
    /// New queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            calendar: Calendar::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    pub fn pending(&self) -> usize {
        self.calendar.len
    }

    /// True when no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.calendar.len == 0
    }

    /// Total events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time. This is a
    /// plain `assert!` — release builds reject causality violations
    /// too, and the message carries both timestamps.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.calendar.push(Scheduled {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedule `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[allow(clippy::should_implement_trait)] // by-value Option pair, not an Iterator
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let s = self.calendar.pop()?;
        debug_assert!(
            s.time >= self.now,
            "calendar queue produced an out-of-order event: event time {} is behind now={}",
            s.time,
            self.now
        );
        self.now = s.time;
        self.processed += 1;
        Some((s.time, s.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.calendar.peek().map(|s| s.time)
    }

    /// Drain and deliver every event to `handler`, which may schedule
    /// more events. Runs until the queue is empty or `max_events` is
    /// hit (a runaway-loop backstop); returns the number delivered.
    pub fn run<F: FnMut(&mut EventQueue<E>, SimTime, E)>(
        &mut self,
        max_events: u64,
        mut handler: F,
    ) -> u64 {
        let mut delivered = 0;
        while delivered < max_events {
            // Pop manually so the handler can reschedule through us.
            let Some(s) = self.calendar.pop() else { break };
            self.now = s.time;
            self.processed += 1;
            delivered += 1;
            handler(self, s.time, s.event);
        }
        delivered
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest event wins.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The original `BinaryHeap` scheduler, kept as the ordering oracle
    /// for the calendar queue: property tests drive both with the same
    /// schedule and assert identical `(time, event)` pop sequences.
    struct ReferenceHeapQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        now: SimTime,
        seq: u64,
    }

    impl<E> ReferenceHeapQueue<E> {
        /// New queue at t = 0.
        fn new() -> Self {
            ReferenceHeapQueue {
                heap: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
            }
        }

        /// Current simulated time.
        fn now(&self) -> SimTime {
            self.now
        }

        /// Schedule `event` at absolute time `at` (panics on the past,
        /// like [`EventQueue::schedule`]).
        fn schedule(&mut self, at: SimTime, event: E) {
            assert!(
                at >= self.now,
                "cannot schedule into the past: now={} at={}",
                self.now,
                at
            );
            self.heap.push(Scheduled {
                time: at,
                seq: self.seq,
                event,
            });
            self.seq += 1;
        }

        /// Pop the next event, advancing the clock to its timestamp.
        #[allow(clippy::should_implement_trait)]
        fn next(&mut self) -> Option<(SimTime, E)> {
            let s = self.heap.pop()?;
            self.now = s.time;
            Some((s.time, s.event))
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.next().unwrap().1, "a");
        assert_eq!(q.next().unwrap().1, "b");
        assert_eq!(q.next().unwrap().1, "c");
        assert!(q.next().is_none());
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.next().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.next();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.next();
        q.schedule(SimTime::from_millis(5), ());
    }

    /// The past-scheduling guard is a plain `assert!` (not debug-only)
    /// and its message names both timestamps — the report a user needs
    /// to find the offending call site deterministically.
    #[test]
    fn scheduling_past_rejected_with_both_timestamps() {
        let result = std::panic::catch_unwind(|| {
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_micros(2_000), ());
            q.next();
            q.schedule(SimTime::from_micros(500), ());
        });
        let err = result.expect_err("past scheduling must panic, even with debug_assertions off");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the formatted assert message");
        assert!(msg.contains("now=2.000ms") || msg.contains("now="), "{msg}");
        assert!(msg.contains("at="), "{msg}");
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 0);
        q.next();
        q.schedule_in(SimDuration::from_millis(5), 1);
        let (t, e) = q.next().unwrap();
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(e, 1);
    }

    #[test]
    fn run_drains_with_rescheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 0u32);
        let delivered = q.run(100, |q, _t, n| {
            if n < 4 {
                q.schedule_in(SimDuration::from_millis(1), n + 1);
            }
        });
        assert_eq!(delivered, 5);
        assert_eq!(q.now(), SimTime::from_millis(5));
    }

    #[test]
    fn run_respects_max_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 0u32);
        // Infinite self-rescheduling loop capped by the backstop.
        let delivered = q.run(50, |q, _t, n| {
            q.schedule_in(SimDuration::from_millis(1), n + 1);
        });
        assert_eq!(delivered, 50);
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn far_future_horizon_jump() {
        // Events far beyond one full ring rotation exercise the
        // sparse-horizon fallback in `Calendar::min_bucket`.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(u64::from(u32::MAX)), 1u32);
        q.schedule(SimTime::from_micros(5), 0u32);
        assert_eq!(q.next().unwrap().1, 0);
        assert_eq!(q.next().unwrap().1, 1);
        assert!(q.next().is_none());
    }

    #[test]
    fn growth_and_shrink_preserve_order() {
        // Push enough to force several resizes, then drain and check
        // global order — including FIFO among same-time entries.
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from_u64(0xCA1E);
        let mut expected: Vec<(u64, u32)> = Vec::new();
        for i in 0..500u32 {
            // Deliberately collide times so FIFO ties appear.
            let t = rng.range_u64(0, 50) * 100;
            q.schedule(SimTime::from_micros(t), i);
            expected.push((t, i));
        }
        expected.sort_by_key(|&(t, i)| (t, i));
        let mut got = Vec::new();
        while let Some((t, e)) = q.next() {
            got.push((t.as_micros(), e));
        }
        assert_eq!(got, expected);
    }

    /// Property test: the calendar queue's pop order is identical to
    /// the binary-heap oracle's over randomized interleaved
    /// schedule/pop workloads, including same-timestamp FIFO ties.
    #[test]
    fn matches_heap_oracle_on_random_schedules() {
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(0x0E0E ^ seed);
            let mut cal = EventQueue::new();
            let mut heap = ReferenceHeapQueue::new();
            let mut popped = Vec::new();
            let mut oracle = Vec::new();
            let mut id = 0u32;
            for _ in 0..400 {
                if rng.chance(0.6) || cal.pending() == 0 {
                    // Cluster times aggressively: ~1/3 of pushes share
                    // a timestamp with an earlier one.
                    let base = cal.now().as_micros();
                    let dt = if rng.chance(0.33) {
                        0
                    } else {
                        rng.range_u64(0, 4_000)
                    };
                    let at = SimTime::from_micros(base + dt);
                    cal.schedule(at, id);
                    heap.schedule(at, id);
                    id += 1;
                } else {
                    popped.push(cal.next().expect("pending > 0"));
                    oracle.push(heap.next().expect("queues stay in lockstep"));
                }
            }
            while let Some(e) = cal.next() {
                popped.push(e);
                oracle.push(heap.next().expect("same length"));
            }
            assert!(heap.next().is_none());
            assert_eq!(popped, oracle, "divergence with seed {seed}");
        }
    }

    /// Property test for the serving horizon: diurnal arrival gaps put
    /// events *hours* apart in sim time, exercising the sparse
    /// fallback and bucket-array resizes far more than the dense
    /// crawl ever does. Seeded sweep of mixed dense/sparse workloads
    /// cross-checked against the binary-heap oracle.
    #[test]
    fn matches_heap_oracle_on_sparse_far_future_schedules() {
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(0x5AAF ^ seed);
            let mut cal = EventQueue::new();
            let mut heap = ReferenceHeapQueue::new();
            let mut popped = Vec::new();
            let mut oracle = Vec::new();
            let mut id = 0u32;
            for _ in 0..300 {
                if rng.chance(0.55) || cal.pending() == 0 {
                    let base = cal.now().as_micros();
                    // Trimodal gaps: dense (sub-ms), diurnal think
                    // times (tens of seconds), and far-future troughs
                    // (up to ~6 h of sim time in one hop).
                    let dt = match rng.index(3) {
                        0 => rng.range_u64(0, 1_000),
                        1 => rng.range_u64(1_000_000, 60_000_000),
                        _ => rng.range_u64(3_600_000_000, 21_600_000_000),
                    };
                    let at = SimTime::from_micros(base + dt);
                    cal.schedule(at, id);
                    heap.schedule(at, id);
                    id += 1;
                } else {
                    popped.push(cal.next().expect("pending > 0"));
                    oracle.push(heap.next().expect("queues stay in lockstep"));
                }
            }
            while let Some(e) = cal.next() {
                popped.push(e);
                oracle.push(heap.next().expect("same length"));
            }
            assert!(heap.next().is_none());
            assert_eq!(popped, oracle, "sparse divergence with seed {seed}");
            assert_eq!(cal.now(), heap.now(), "clock divergence with seed {seed}");
        }
    }
}
