//! Timed event queue.
//!
//! A classic discrete-event scheduler: events are popped in time
//! order, and events scheduled for the same instant are delivered in
//! insertion (FIFO) order so runs are deterministic.
//!
//! The queue is a binary heap keyed on `(time, seq)`, where `seq` is
//! the insertion counter: the key is unique, so the pop order is one
//! total order and FIFO at one instant needs no extra structure.
//! Seeded property tests drive it and a linear-scan oracle with the
//! same randomized schedule and assert identical pop sequences.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry, ordered by `(time, seq)`.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

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

/// A deterministic discrete-event queue.
///
/// The queue tracks the current simulated time: popping an event
/// advances the clock to that event's timestamp. Scheduling an event
/// in the past is a logic error and panics — a simulation that does
/// so would silently reorder causality otherwise.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> EventQueue<E> {
    /// New queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
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
        self.heap.len()
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
        self.heap.push(Scheduled {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[allow(clippy::should_implement_trait)] // by-value Option pair, not an Iterator
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(
            s.time >= self.now,
            "event queue produced an out-of-order event: event time {} is behind now={}",
            s.time,
            self.now
        );
        self.now = s.time;
        self.processed += 1;
        Some((s.time, s.event))
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

    /// The ordering oracle: an unsorted list that pops its earliest
    /// `(time, seq)` entry by linear scan. It shares no algorithm with
    /// the queue under test, so agreement between the two is evidence.
    struct LinearScanQueue {
        pending: Vec<(SimTime, u64, u32)>,
        now: SimTime,
        seq: u64,
    }

    impl LinearScanQueue {
        fn new() -> Self {
            LinearScanQueue {
                pending: Vec::new(),
                now: SimTime::ZERO,
                seq: 0,
            }
        }

        fn schedule(&mut self, at: SimTime, id: u32) {
            self.pending.push((at, self.seq, id));
            self.seq += 1;
        }

        fn next(&mut self) -> Option<(SimTime, u32)> {
            let (i, _) = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(time, seq, _))| (time, seq))?;
            let (time, _, id) = self.pending.swap_remove(i);
            self.now = time;
            Some((time, id))
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
    fn far_future_horizon_jump() {
        // An event scheduled first but due ~71 minutes later pops last.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(u64::from(u32::MAX)), 1u32);
        q.schedule(SimTime::from_micros(5), 0u32);
        assert_eq!(q.next().unwrap().1, 0);
        assert_eq!(q.next().unwrap().1, 1);
        assert!(q.next().is_none());
    }

    #[test]
    fn growth_and_shrink_preserve_order() {
        // Push a batch, then drain and check global order — including
        // FIFO among same-time entries.
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

    /// Property test: the queue's pop order and clock are identical to
    /// the linear-scan oracle's over randomized interleaved
    /// schedule/pop workloads, including same-timestamp FIFO ties.
    #[test]
    fn matches_heap_oracle_on_random_schedules() {
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(0x0E0E ^ seed);
            let mut q = EventQueue::new();
            let mut scan = LinearScanQueue::new();
            let mut popped = Vec::new();
            let mut oracle = Vec::new();
            let mut id = 0u32;
            for _ in 0..400 {
                if rng.chance(0.6) || q.pending() == 0 {
                    // Cluster times aggressively: ~1/3 of pushes share
                    // a timestamp with an earlier one.
                    let base = q.now().as_micros();
                    let dt = if rng.chance(0.33) {
                        0
                    } else {
                        rng.range_u64(0, 4_000)
                    };
                    let at = SimTime::from_micros(base + dt);
                    q.schedule(at, id);
                    scan.schedule(at, id);
                    id += 1;
                } else {
                    popped.push(q.next().expect("pending > 0"));
                    oracle.push(scan.next().expect("queues stay in lockstep"));
                }
            }
            while let Some(e) = q.next() {
                popped.push(e);
                oracle.push(scan.next().expect("same length"));
            }
            assert!(scan.next().is_none());
            assert_eq!(popped, oracle, "divergence with seed {seed}");
            assert_eq!(q.now(), scan.now, "clock divergence with seed {seed}");
        }
    }

    /// Property test for the serving horizon: diurnal arrival gaps put
    /// events *hours* apart in sim time. Seeded sweep of mixed
    /// dense/sparse workloads cross-checked against the linear-scan
    /// oracle.
    #[test]
    fn matches_heap_oracle_on_sparse_far_future_schedules() {
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(0x5AAF ^ seed);
            let mut q = EventQueue::new();
            let mut scan = LinearScanQueue::new();
            let mut popped = Vec::new();
            let mut oracle = Vec::new();
            let mut id = 0u32;
            for _ in 0..300 {
                if rng.chance(0.55) || q.pending() == 0 {
                    let base = q.now().as_micros();
                    // Trimodal gaps: dense (sub-ms), diurnal think
                    // times (tens of seconds), and far-future troughs
                    // (up to ~6 h of sim time in one hop).
                    let dt = match rng.index(3) {
                        0 => rng.range_u64(0, 1_000),
                        1 => rng.range_u64(1_000_000, 60_000_000),
                        _ => rng.range_u64(3_600_000_000, 21_600_000_000),
                    };
                    let at = SimTime::from_micros(base + dt);
                    q.schedule(at, id);
                    scan.schedule(at, id);
                    id += 1;
                } else {
                    popped.push(q.next().expect("pending > 0"));
                    oracle.push(scan.next().expect("queues stay in lockstep"));
                }
            }
            while let Some(e) = q.next() {
                popped.push(e);
                oracle.push(scan.next().expect("same length"));
            }
            assert!(scan.next().is_none());
            assert_eq!(popped, oracle, "sparse divergence with seed {seed}");
            assert_eq!(q.now(), scan.now, "clock divergence with seed {seed}");
        }
    }
}
