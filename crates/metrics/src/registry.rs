//! The metric registry.

use crate::hist::FixedHistogram;
use origin_netsim::hash::FxHashMap;
use origin_netsim::{json, SimDuration};

/// Accumulated simulated time spent in a named phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of recorded intervals.
    pub count: u64,
    /// Total simulated time across intervals.
    pub total: SimDuration,
}

/// A set of named metrics with commutative, shard-mergeable
/// accumulation.
///
/// Counters, histograms and phase totals hold only integers, so
/// merging shards in any order — or not sharding at all — produces
/// identical values. `runtime_ms` holds wall-clock milliseconds and
/// is exported as a separate top-level JSON section so determinism
/// checks can strip it (`jq 'del(.runtime_ms)'`).
///
/// Maps use the deterministic Fx hasher and are sorted by name at
/// export time — the crawl records metrics per page, so the hot path
/// must be one hash probe with no allocation for an existing key,
/// while serialisation (once per run) pays the sort.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: FxHashMap<String, u64>,
    hists: FxHashMap<String, FixedHistogram>,
    phases: FxHashMap<String, PhaseStat>,
    runtime_ms: FxHashMap<String, f64>,
}

/// `(name, value)` pairs sorted by name, for the export paths.
fn sorted<V>(map: &FxHashMap<String, V>) -> Vec<(&str, &V)> {
    let mut v: Vec<(&str, &V)> = map.iter().map(|(k, x)| (k.as_str(), x)).collect();
    v.sort_unstable_by_key(|&(k, _)| k);
    v
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the named counter.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            // Materialise the key even for n == 0 so a zero counter
            // appears in the export — absent and zero must serialise
            // identically across shardings.
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Increment the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record an observation into the named fixed-bucket histogram,
    /// creating it with `bounds` on first use. Later calls must pass
    /// the same bounds (enforced on merge and on observe).
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        if !self.hists.contains_key(name) {
            self.hists
                .insert(name.to_string(), FixedHistogram::new(bounds));
        }
        let h = self.hists.get_mut(name).expect("present or just inserted");
        assert_eq!(h.bounds(), bounds, "histogram {name} bounds changed");
        h.observe(value);
    }

    /// The named histogram, when it has been observed into.
    pub fn histogram(&self, name: &str) -> Option<&FixedHistogram> {
        self.hists.get(name)
    }

    /// Add one interval of simulated time to the named phase.
    pub fn record_phase(&mut self, name: &str, elapsed: SimDuration) {
        self.record_phase_n(name, 1, elapsed);
    }

    /// Add `count` pre-accumulated intervals totalling `total` to the
    /// named phase in one map probe. Equivalent to `count` calls to
    /// [`Registry::record_phase`] whose durations sum to `total` —
    /// phase accumulation is commutative integer addition, so batching
    /// per page instead of per request cannot change any export.
    pub fn record_phase_n(&mut self, name: &str, count: u64, total: SimDuration) {
        if let Some(p) = self.phases.get_mut(name) {
            p.count += count;
            p.total += total;
        } else {
            self.phases
                .insert(name.to_string(), PhaseStat { count, total });
        }
    }

    /// The named phase total, when recorded.
    pub fn phase(&self, name: &str) -> Option<PhaseStat> {
        self.phases.get(name).copied()
    }

    /// Set a wall-clock runtime entry (milliseconds). Not merged by
    /// shard discipline — the driver sets these once per run; they are
    /// excluded from determinism comparison.
    pub fn set_runtime_ms(&mut self, name: &str, ms: f64) {
        self.runtime_ms.insert(name.to_string(), ms);
    }

    /// Fold another registry into this one. Deterministic sections
    /// merge by integer addition (commutative and associative, so any
    /// shard order yields the same result); `runtime_ms` entries are
    /// taken from `other` only when absent here.
    pub fn merge(&mut self, other: &Registry) {
        for (name, &v) in &other.counters {
            self.add(name, v);
        }
        for (name, h) in &other.hists {
            match self.hists.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(name.clone(), h.clone());
                }
            }
        }
        for (name, p) in &other.phases {
            let mine = self.phases.entry(name.clone()).or_default();
            mine.count += p.count;
            mine.total += p.total;
        }
        for (name, &ms) in &other.runtime_ms {
            self.runtime_ms.entry(name.clone()).or_insert(ms);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.hists.is_empty()
            && self.phases.is_empty()
            && self.runtime_ms.is_empty()
    }

    /// Iterate `(name, value)` over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        sorted(&self.counters).into_iter().map(|(k, &v)| (k, v))
    }

    /// Serialise to JSON. Name-sorted sections plus integer-only
    /// deterministic values make the output byte-identical across
    /// runs and thread counts; `runtime_ms` is a sibling top-level key
    /// so `jq 'del(.runtime_ms)'` removes every wall-clock value.
    pub fn to_json(&self) -> String {
        /// One `"name": { … }` section: a member per line, or `{}`.
        fn section<V>(
            out: &mut String,
            name: &str,
            map: &FxHashMap<String, V>,
            mut value: impl FnMut(&mut String, &V),
        ) {
            out.push_str("  ");
            json::push_str(out, name);
            out.push_str(": {");
            json::push_joined(out, sorted(map), ",", |out, (key, v)| {
                out.push_str("\n    ");
                json::push_str(out, key);
                out.push_str(": ");
                value(out, v);
            });
            out.push_str(if map.is_empty() { "}" } else { "\n  }" });
        }
        fn u64_array(out: &mut String, xs: &[u64]) {
            out.push('[');
            json::push_joined(out, xs, ", ", |out, &x| json::push_u64(out, x));
            out.push(']');
        }

        let mut out = String::from("{\n");
        section(&mut out, "counters", &self.counters, |out, &v| {
            json::push_u64(out, v)
        });
        out.push_str(",\n");
        section(&mut out, "histograms", &self.hists, |out, h| {
            out.push_str("{\"bounds\": ");
            u64_array(out, h.bounds());
            out.push_str(", \"counts\": ");
            u64_array(out, h.counts());
            out.push_str(", \"count\": ");
            json::push_u64(out, h.count());
            out.push_str(", \"sum\": ");
            json::push_u64(out, h.sum());
            out.push('}');
        });
        out.push_str(",\n");
        section(&mut out, "phases", &self.phases, |out, p| {
            out.push_str("{\"count\": ");
            json::push_u64(out, p.count);
            out.push_str(", \"total_us\": ");
            json::push_u64(out, p.total.as_micros());
            out.push('}');
        });
        out.push_str(",\n");
        section(&mut out, "runtime_ms", &self.runtime_ms, |out, &ms| {
            json::push_fixed(out, ms, 3)
        });
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.inc("a");
        r.add("a", 4);
        r.add("b", 0);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), 0);
        assert_eq!(r.counter("missing"), 0);
        // Zero-add materialises the key so exports are shard-stable.
        assert!(r.to_json().contains("\"b\": 0"));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut r = Registry::new();
        r.add("x", 7);
        r.observe("h", &[1, 10], 3);
        r.record_phase("p", SimDuration::from_millis(2));
        let snapshot = r.clone();
        r.merge(&Registry::new());
        assert_eq!(r, snapshot);

        let mut empty = Registry::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn merge_is_commutative_on_output() {
        let mut a = Registry::new();
        a.add("x", 2);
        a.observe("h", &[5], 1);
        a.record_phase("p", SimDuration::from_micros(10));
        let mut b = Registry::new();
        b.add("x", 3);
        b.add("y", 1);
        b.observe("h", &[5], 9);
        b.record_phase("p", SimDuration::from_micros(5));
        b.record_phase("q", SimDuration::from_micros(1));

        let mut ab = Registry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Registry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.counter("x"), 5);
        assert_eq!(ab.phase("p").unwrap().count, 2);
        assert_eq!(ab.phase("p").unwrap().total, SimDuration::from_micros(15));
    }

    #[test]
    fn json_shape_and_runtime_section() {
        let mut r = Registry::new();
        r.add("n.count", 2);
        r.observe("lat", &[1, 2], 2);
        r.record_phase("crawl", SimDuration::from_millis(1));
        r.set_runtime_ms("total", 12.5);
        let json = r.to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"n.count\": 2"));
        assert!(json.contains(
            "\"lat\": {\"bounds\": [1, 2], \"counts\": [0, 1, 0], \"count\": 1, \"sum\": 2}"
        ));
        assert!(json.contains("\"crawl\": {\"count\": 1, \"total_us\": 1000}"));
        assert!(json.contains("\"runtime_ms\": {"));
        assert!(json.contains("\"total\": 12.500"));
        // Empty registry is still valid JSON with all four sections.
        let empty = Registry::new().to_json();
        for key in ["counters", "histograms", "phases", "runtime_ms"] {
            assert!(empty.contains(key), "missing {key}");
        }
    }

    #[test]
    fn runtime_ms_does_not_merge_additively() {
        let mut a = Registry::new();
        a.set_runtime_ms("total", 10.0);
        let mut b = Registry::new();
        b.set_runtime_ms("total", 99.0);
        b.set_runtime_ms("extra", 1.0);
        a.merge(&b);
        let json = a.to_json();
        assert!(json.contains("\"total\": 10.000"));
        assert!(json.contains("\"extra\": 1.000"));
    }
}
