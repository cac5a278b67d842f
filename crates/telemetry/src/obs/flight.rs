//! Bounded ring-buffer flight recorder.
//!
//! Each worker carries a recorder that keeps the last-N structured
//! events it saw (connection opens, injected faults, retries, h1
//! close-delimited cycles…). The ring itself is worker-local and so
//! depends on which visits a worker happened to process — which is why
//! nothing derived from the *whole* ring is ever exported. The two
//! deterministic outputs are
//!
//! * **fault-abort snapshots**: when a visit's injected-fault count
//!   reaches the abort threshold, the recorder captures that visit's
//!   events (a visit is processed wholly by one worker, so the
//!   rank-filtered slice of the ring is a pure function of the visit);
//!   merging recorders keeps the trigger with the smallest rank, so
//!   the snapshot written after the crawl is thread-count-invariant;
//! * **panic dumps** (best-effort): [`with_panic_dump`] writes the
//!   current visit's events if the wrapped closure panics — the panic
//!   site in a deterministic crawl is itself deterministic.

use origin_netsim::json;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

/// Default ring capacity per worker.
pub const DEFAULT_CAPACITY: usize = 256;

/// One structured flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Visit-relative simulated time, µs.
    pub t_us: u64,
    /// Site rank of the visit the event occurred in.
    pub rank: u32,
    /// Stable event code (e.g. `fault.421`, `h1.connection_closed`).
    pub code: &'static str,
    /// Event-specific value (attempt number, frame count, bytes…).
    pub value: u64,
    /// Short human-readable detail (usually the host involved).
    pub detail: String,
}

impl FlightEvent {
    fn json(&self, out: &mut String) {
        out.push_str("{\"t_us\":");
        json::push_u64(out, self.t_us);
        out.push_str(",\"rank\":");
        json::push_u64(out, u64::from(self.rank));
        out.push_str(",\"code\":");
        json::push_str(out, self.code);
        out.push_str(",\"value\":");
        json::push_u64(out, self.value);
        out.push_str(",\"detail\":");
        json::push_str(out, &self.detail);
        out.push('}');
    }
}

/// A snapshot document: `head` (everything up to the event list's
/// opening bracket), then one event per line.
fn snapshot_json(mut out: String, events: &[FlightEvent]) -> String {
    out.reserve(128 * events.len());
    json::push_joined(&mut out, events, ",\n", |out, e| {
        out.push_str("    ");
        e.json(out);
    });
    out.push_str("\n  ]\n}\n");
    out
}

/// A fault-abort trigger: the lowest-ranked visit whose injected-fault
/// count reached the threshold, plus its captured events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trigger {
    /// Rank of the triggering visit.
    pub rank: u32,
    /// The visit's flight events, captured at trigger time.
    pub events: Vec<FlightEvent>,
}

/// Per-worker bounded event ring with deterministic trigger capture.
/// [`Default`] keeps the last [`DEFAULT_CAPACITY`] events.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<FlightEvent>,
    capacity: usize,
    recorded: u64,
    current_rank: u32,
    trigger: Option<Trigger>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            recorded: 0,
            current_rank: 0,
            trigger: None,
        }
    }

    /// Mark the start of a visit; subsequent events belong to `rank`.
    pub fn begin_visit(&mut self, rank: u32) {
        self.current_rank = rank;
    }

    /// Record one event at visit-relative sim time `t_us` for the
    /// current visit.
    pub fn record(&mut self, t_us: u64, code: &'static str, value: u64, detail: &str) {
        // A full ring hands the evicted event's `String` to the new
        // one: steady-state recording allocates nothing.
        let mut slot = String::new();
        if self.ring.len() == self.capacity {
            slot = self.ring.pop_front().map_or(slot, |e| e.detail);
            slot.clear();
        }
        slot.push_str(detail);
        self.ring.push_back(FlightEvent {
            t_us,
            rank: self.current_rank,
            code,
            value,
            detail: slot,
        });
        self.recorded += 1;
    }

    /// Total events recorded (not bounded by the ring; deterministic
    /// across thread counts when summed over workers).
    pub fn events_recorded(&self) -> u64 {
        self.recorded
    }

    /// The events of visit `rank` still present in the ring, in
    /// recording order.
    pub fn visit_events(&self, rank: u32) -> Vec<FlightEvent> {
        self.ring
            .iter()
            .filter(|e| e.rank == rank)
            .cloned()
            .collect()
    }

    /// Capture the current visit as a fault-abort trigger if it beats
    /// (has a smaller rank than) any trigger captured so far.
    pub fn capture_trigger(&mut self) {
        let rank = self.current_rank;
        if self.trigger.as_ref().is_none_or(|t| rank < t.rank) {
            self.trigger = Some(Trigger {
                rank,
                events: self.visit_events(rank),
            });
        }
    }

    /// The captured trigger, if any visit reached the abort threshold.
    pub fn trigger(&self) -> Option<&Trigger> {
        self.trigger.as_ref()
    }

    /// Fold another recorder in: event counts add and the
    /// smallest-rank trigger wins (commutative and associative). Ring
    /// contents are deliberately **not** merged — they are
    /// worker-local and never exported.
    pub fn merge(&mut self, other: FlightRecorder) {
        self.recorded += other.recorded;
        if let Some(t) = other.trigger {
            if self.trigger.as_ref().is_none_or(|mine| t.rank < mine.rank) {
                self.trigger = Some(t);
            }
        }
    }

    /// Deterministic JSON snapshot of the captured trigger. `None`
    /// when no visit reached the threshold.
    pub fn trigger_snapshot_json(&self, threshold: u64) -> Option<String> {
        let t = self.trigger.as_ref()?;
        let mut head = String::from("{\n  \"trigger_rank\": ");
        json::push_u64(&mut head, u64::from(t.rank));
        head.push_str(",\n  \"fault_threshold\": ");
        json::push_u64(&mut head, threshold);
        head.push_str(",\n  \"events\": [\n");
        Some(snapshot_json(head, &t.events))
    }

    /// JSON dump of the current visit's events (the panic-dump body).
    pub fn panic_snapshot_json(&self) -> String {
        let mut head = String::from("{\n  \"panic_rank\": ");
        json::push_u64(&mut head, u64::from(self.current_rank));
        head.push_str(",\n  \"events\": [\n");
        snapshot_json(head, &self.visit_events(self.current_rank))
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

/// Run `f` over `state`; if it panics, write the current visit's
/// events of the recorder `state` holds to `path` (best-effort) and
/// resume the panic.
pub fn with_panic_dump<S, R>(
    state: &mut S,
    path: &Path,
    recorder: impl FnOnce(&S) -> &FlightRecorder,
    f: impl FnOnce(&mut S) -> R,
) -> R {
    match panic::catch_unwind(AssertUnwindSafe(|| f(state))) {
        Ok(r) => r,
        Err(payload) => {
            let _ = std::fs::write(path, recorder(state).panic_snapshot_json());
            panic::resume_unwind(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(ranks: &[u32]) -> FlightRecorder {
        let mut rec = FlightRecorder::new(8);
        for &r in ranks {
            rec.begin_visit(r);
            rec.record(10, "conn.open", 1, "a.example");
            rec.record(20, "fault.421", 1, "b.example");
        }
        rec
    }

    #[test]
    fn ring_is_bounded() {
        let mut rec = FlightRecorder::new(4);
        rec.begin_visit(1);
        for i in 0..10 {
            // Shrinking details: a recycled slot must not keep the
            // evicted event's longer tail.
            rec.record(i, "conn.open", i, &"h".repeat(10 - i as usize));
        }
        assert_eq!(rec.events_recorded(), 10);
        assert_eq!(rec.visit_events(1).len(), 4);
        assert_eq!(rec.visit_events(1)[0].t_us, 6);
        let details: Vec<String> = rec.visit_events(1).into_iter().map(|e| e.detail).collect();
        assert_eq!(details, ["hhhh", "hhh", "hh", "h"]);
    }

    #[test]
    fn every_constructor_bounds_the_ring() {
        for (mut rec, kept) in [
            (FlightRecorder::default(), DEFAULT_CAPACITY),
            (FlightRecorder::new(0), 1),
        ] {
            rec.begin_visit(1);
            for i in 0..1_000 {
                rec.record(i, "conn.open", i, "a.example");
            }
            assert_eq!(rec.visit_events(1).len(), kept);
        }
    }

    #[test]
    fn trigger_keeps_smallest_rank_across_merges() {
        let mut a = filled(&[5, 3]);
        a.begin_visit(3);
        a.capture_trigger();
        let mut b = filled(&[2]);
        b.begin_visit(2);
        b.capture_trigger();
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab.trigger().unwrap().rank, 2);
        assert_eq!(
            ab.trigger_snapshot_json(3).unwrap(),
            ba.trigger_snapshot_json(3).unwrap()
        );
        assert_eq!(
            ab.events_recorded(),
            a.events_recorded() + b.events_recorded()
        );
    }

    #[test]
    fn later_visit_with_larger_rank_does_not_displace_trigger() {
        let mut rec = filled(&[4]);
        rec.begin_visit(4);
        rec.capture_trigger();
        rec.begin_visit(9);
        rec.record(5, "fault.421", 1, "x");
        rec.capture_trigger();
        assert_eq!(rec.trigger().unwrap().rank, 4);
    }

    #[test]
    fn snapshot_json_shape() {
        let mut rec = filled(&[7]);
        rec.begin_visit(7);
        rec.capture_trigger();
        let json = rec.trigger_snapshot_json(2).unwrap();
        assert!(json.contains("\"trigger_rank\": 7"));
        assert!(json.contains("\"code\":\"fault.421\""));
        assert!(json.ends_with("]\n}\n"));
    }

    #[test]
    fn panic_dump_writes_current_visit() {
        let dir = std::env::temp_dir().join("origin-telemetry-panic-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("flight.panic.json");
        let _ = std::fs::remove_file(&path);
        let mut rec = FlightRecorder::new(8);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            with_panic_dump(
                &mut rec,
                &path,
                |rec| rec,
                |rec| {
                    rec.begin_visit(3);
                    rec.record(1, "conn.open", 1, "boom.example");
                    panic!("injected");
                },
            )
        }));
        assert!(result.is_err());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"panic_rank\": 3"));
        assert!(body.contains("boom.example"));
        let _ = std::fs::remove_file(&path);
    }
}
