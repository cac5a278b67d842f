//! Property-law tests for the streaming aggregates (seeded, no
//! external quickcheck): sketch error bounds against exact sorted
//! percentiles, and merge associativity / shard-order invariance for
//! sketches and timelines.

use std::collections::BTreeMap;

use origin_telemetry::obs::sketch::bucket_index;
use origin_telemetry::obs::window::{DEFAULT_SPACING, DEFAULT_WINDOW};
use origin_telemetry::obs::{Exemplar, QuantileSketch, Timeline, VisitObs};

/// Minimal deterministic generator (splitmix64) for the property runs.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Nearest-rank exact percentile of a sorted slice.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

#[test]
fn sketch_quantiles_match_exact_within_documented_error() {
    for seed in 0..20u64 {
        let mut gen = Gen::new(seed);
        let n = 50 + gen.below(2_000) as usize;
        // Mix magnitudes: uniform small, heavy-tailed large.
        let mut values: Vec<u64> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    gen.below(100)
                } else {
                    let shift = 4 + gen.below(24);
                    gen.below(1 << shift)
                }
            })
            .collect();
        let mut sketch = QuantileSketch::new();
        for &v in &values {
            sketch.record(v, None);
        }
        values.sort_unstable();
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let est = sketch.quantile(q);
            assert!(
                est >= exact && est <= exact + exact / 8 + 1,
                "seed {seed} q {q}: exact {exact}, estimate {est}"
            );
        }
        assert_eq!(sketch.max(), *values.last().unwrap());
        assert_eq!(sketch.quantile(1.0), *values.last().unwrap());
    }
}

#[test]
fn sketch_merge_is_associative_and_commutative() {
    for seed in 0..10u64 {
        let mut gen = Gen::new(0xABCD ^ seed);
        let parts: Vec<QuantileSketch> = (0..3)
            .map(|p| {
                let mut s = QuantileSketch::new();
                for _ in 0..200 {
                    let v = gen.below(1 << 20);
                    s.record(
                        v,
                        Some(Exemplar {
                            value: v,
                            rank: gen.below(500) as u32,
                            span_id: gen.below(1 << 30),
                        }),
                    );
                }
                let _ = p;
                s
            })
            .collect();
        let [a, b, c] = [&parts[0], &parts[1], &parts[2]];
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        // c ⊕ b ⊕ a
        let mut rev = c.clone();
        rev.merge(b);
        rev.merge(a);
        assert_eq!(left, right, "associativity failed at seed {seed}");
        assert_eq!(left, rev, "commutativity failed at seed {seed}");
    }
}

/// Reference model: the sparse two-`BTreeMap` sketch `QuantileSketch`
/// used before its buckets became one contiguous run. Kept verbatim as
/// the oracle the dense layout is checked against.
#[derive(Default)]
struct OracleSketch {
    buckets: BTreeMap<u16, u64>,
    exemplars: BTreeMap<u16, Exemplar>,
    count: u64,
    max: u64,
}

impl OracleSketch {
    fn record(&mut self, value: u64, exemplar: Option<Exemplar>) {
        let idx = bucket_index(value);
        *self.buckets.entry(idx).or_insert(0) += 1;
        self.count += 1;
        self.max = self.max.max(value);
        if let Some(e) = exemplar {
            let merged = match self.exemplars.get(&idx) {
                Some(prev) => prev.merge(e),
                None => e,
            };
            self.exemplars.insert(idx, merged);
        }
    }

    fn quantile_bucket(&self, q: f64) -> Option<u16> {
        if self.count == 0 {
            return None;
        }
        let k = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (&idx, &n) in &self.buckets {
            cum += n;
            if cum >= k {
                return Some(idx);
            }
        }
        self.buckets.last_key_value().map(|(&idx, _)| idx)
    }

    fn quantile_exemplar(&self, q: f64) -> Option<Exemplar> {
        self.quantile_bucket(q)
            .and_then(|idx| self.exemplars.get(&idx).copied())
    }
}

type Sample = (u64, Option<Exemplar>);

fn sketch_of(samples: &[Sample]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &(v, e) in samples {
        s.record(v, e);
    }
    s
}

/// Fisher–Yates on the property generator.
fn shuffle<T>(gen: &mut Gen, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, gen.below(i as u64 + 1) as usize);
    }
}

/// `sketch` answers every query the way the oracle does for `samples`.
fn assert_matches_oracle(sketch: &QuantileSketch, samples: &[Sample], what: &str) {
    let mut oracle = OracleSketch::default();
    for &(v, e) in samples {
        oracle.record(v, e);
    }
    assert_eq!(sketch.count(), oracle.count, "{what}: count");
    assert_eq!(sketch.max(), oracle.max, "{what}: max");
    assert_eq!(
        sketch.occupied_buckets(),
        oracle.buckets.len(),
        "{what}: occupied buckets"
    );
    for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(
            sketch.quantile_bucket(q),
            oracle.quantile_bucket(q),
            "{what}: quantile_bucket({q})"
        );
        assert_eq!(
            sketch.quantile_exemplar(q),
            oracle.quantile_exemplar(q),
            "{what}: quantile_exemplar({q})"
        );
    }
}

#[test]
fn contiguous_sketch_agrees_with_the_btreemap_oracle() {
    for seed in 0..24u64 {
        let mut gen = Gen::new(0x5CE7 ^ seed);
        let n = 1 + gen.below(400) as usize;
        let with_exemplars = seed % 2 == 0;
        let mut random: Vec<Sample> = (0..n)
            .map(|_| {
                let v = gen.next() >> gen.below(64);
                let e = (with_exemplars && gen.below(3) > 0).then(|| Exemplar {
                    value: v,
                    rank: gen.below(50) as u32,
                    span_id: gen.below(1 << 20),
                });
                (v, e)
            })
            .collect();
        let mut ascending = random.clone();
        ascending.sort_by_key(|&(v, _)| v);
        let descending: Vec<Sample> = ascending.iter().rev().copied().collect();
        let extremes: Vec<Sample> = (0..n).map(|i| ([0, u64::MAX, 7, 8][i % 4], None)).collect();

        // Every build order of one multiset is the same sketch, equal
        // to the oracle: appends, prepends (descending) and both.
        let reference = sketch_of(&random);
        assert_matches_oracle(&reference, &random, "random");
        assert_eq!(sketch_of(&ascending), reference, "seed {seed}: ascending");
        assert_eq!(sketch_of(&descending), reference, "seed {seed}: descending");
        assert_matches_oracle(&sketch_of(&extremes), &extremes, "extremes");

        // Random 2–5-way partitions merged in shuffled order.
        let ways = 2 + gen.below(4) as usize;
        shuffle(&mut gen, &mut random);
        let mut parts: Vec<QuantileSketch> = (0..ways)
            .map(|w| sketch_of(&random[w * n / ways..(w + 1) * n / ways]))
            .collect();
        shuffle(&mut gen, &mut parts);
        let mut merged = QuantileSketch::new();
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged, reference, "seed {seed}: {ways}-way merge");
        assert_matches_oracle(&merged, &random, "merged");
    }
}

fn random_visit(gen: &mut Gen, rank: u32) -> VisitObs {
    let requests = 1 + gen.below(40);
    let mut v = VisitObs {
        rank,
        plt_us: 100_000 + gen.below(8_000_000),
        plt_ideal_ip_us: 100_000 + gen.below(6_000_000),
        plt_ideal_origin_us: 100_000 + gen.below(5_000_000),
        plt_span: ((rank as u64) << 24) | gen.below(100),
        requests,
        coalesced_requests: gen.below(requests + 1),
        connections_opened: 1 + gen.below(20),
        dns_queries: gen.below(20),
        dns_cache_hits: gen.below(10),
        dns_cache_misses: gen.below(10),
        measured_tls: 1 + gen.below(20),
        model_ip_tls: 1 + gen.below(15),
        model_origin_tls: 1 + gen.below(8),
        fault_misdirected_421: gen.below(3),
        fault_events: gen.below(5),
        fault_recoveries: gen.below(5),
        h1_connections: gen.below(6),
        h1_requests: gen.below(12),
        h1_redundant: [
            gen.below(3),
            gen.below(3),
            gen.below(3),
            gen.below(3),
            gen.below(3),
        ],
        ..VisitObs::default()
    };
    for _ in 0..gen.below(8) {
        v.handshakes
            .push((gen.below(5_000_000), gen.below(200_000), gen.below(1 << 30)));
    }
    for _ in 0..gen.below(8) {
        v.bytes
            .push((gen.below(5_000_000), gen.below(1 << 22), gen.below(1 << 30)));
    }
    v
}

#[test]
fn timeline_merge_is_shard_order_invariant() {
    for seed in 0..8u64 {
        let mut gen = Gen::new(0x7137 ^ seed);
        let visits: Vec<VisitObs> = (0..120).map(|r| random_visit(&mut gen, r)).collect();

        // Ground truth: one timeline fed sequentially.
        let mut whole = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
        for v in &visits {
            whole.record_visit(v);
        }

        // Shard by an arbitrary interleave into 4 parts, then merge the
        // parts in several different orders.
        let mut shards: Vec<Timeline> = (0..4)
            .map(|_| Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING))
            .collect();
        for (i, v) in visits.iter().enumerate() {
            shards[(i * 7 + seed as usize) % 4].record_visit(v);
        }
        for order in [[0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]] {
            let mut merged = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
            for &s in &order {
                merged.merge(shards[s].clone());
            }
            assert_eq!(
                merged.to_json(),
                whole.to_json(),
                "seed {seed}, merge order {order:?}"
            );
        }

        // Associativity: ((s0 ⊕ s1) ⊕ (s2 ⊕ s3)) byte-matches too.
        let [s0, s1, s2, s3] = <[Timeline; 4]>::try_from(shards).unwrap();
        let mut left = s0;
        left.merge(s1);
        let mut right = s2;
        right.merge(s3);
        left.merge(right);
        assert_eq!(left.to_json(), whole.to_json(), "seed {seed}, paired merge");
    }
}

#[test]
fn timeline_memory_is_windows_times_series_not_visits() {
    let mut gen = Gen::new(42);
    let mut t = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
    // Many visits, few distinct windows: ranks wrap over 8 epochs.
    for i in 0..50_000u32 {
        let mut v = random_visit(&mut gen, i % 8);
        v.handshakes.truncate(2);
        v.bytes.truncate(2);
        t.record_visit(&v);
    }
    assert_eq!(t.total_visits(), 50_000);
    // 8 epochs at 1s spacing + event offsets up to ~5s: a handful of
    // 4s windows, regardless of 50k visits streamed through.
    assert!(t.num_windows() <= 8, "windows: {}", t.num_windows());
    let totals = t.totals();
    // Bounded by distinct log2 sub-buckets, not samples.
    assert!(totals.plt().occupied_buckets() < 300);
    assert!(totals.bytes().occupied_buckets() < 300);
}
