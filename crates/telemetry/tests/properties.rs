//! Property-law tests for the streaming aggregates (seeded, no
//! external quickcheck): sketch error bounds against exact sorted
//! percentiles, and merge associativity / shard-order invariance for
//! sketches and timelines.

use std::collections::BTreeMap;

use origin_netsim::SimDuration;
use origin_telemetry::obs::sketch::bucket_index;
use origin_telemetry::obs::window::{DEFAULT_SPACING, DEFAULT_WINDOW};
use origin_telemetry::obs::{dashboard, Exemplar, QuantileSketch, Timeline, VisitObs};

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

/// A visit stream in rank order on a `window`/`spacing` timeline:
/// ranks skip ahead at random, some epochs fall exactly on a window
/// edge, and handshake and byte offsets reach up to five windows ahead,
/// some exactly onto an edge.
fn rank_ordered_visits(gen: &mut Gen, window: u64, spacing: u64) -> Vec<VisitObs> {
    let mut rank = gen.below(4) as u32;
    (0..20 + gen.below(100))
        .map(|_| {
            rank += 1 + gen.below(3) as u32;
            let epoch = u64::from(rank) * spacing;
            let offset = |gen: &mut Gen| match gen.below(4) {
                0 => (window - epoch % window) % window + gen.below(5) * window,
                _ => gen.below(5 * window),
            };
            let mut v = random_visit(gen, rank);
            for e in v.handshakes.iter_mut().chain(v.bytes.iter_mut()) {
                e.0 = offset(gen);
            }
            v
        })
        .collect()
}

fn timeline_of(window: u64, spacing: u64, visits: &[VisitObs]) -> Timeline {
    let mut t = Timeline::new(
        SimDuration::from_micros(window),
        SimDuration::from_micros(spacing),
    );
    for v in visits {
        t.record_visit(v);
    }
    t
}

/// A crawl's fold: `visits` cut into random chunks, merged in order,
/// each merge followed by a seal at the next chunk's first rank, then a
/// seal of everything.
fn sealed_in_chunks(gen: &mut Gen, window: u64, spacing: u64, visits: &[VisitObs]) -> Timeline {
    let mut cuts: Vec<usize> = (0..gen.below(8))
        .map(|_| gen.below(visits.len() as u64 + 1) as usize)
        .chain([0, visits.len()])
        .collect();
    cuts.sort_unstable();
    let chunks: Vec<&[VisitObs]> = cuts.windows(2).map(|c| &visits[c[0]..c[1]]).collect();
    let mut total = timeline_of(window, spacing, &[]);
    for (k, chunk) in chunks.iter().enumerate() {
        total.merge(timeline_of(window, spacing, chunk));
        if let Some(next) = chunks[k + 1..].iter().find_map(|c| c.first()) {
            total.seal_before(next.rank);
        }
    }
    total.seal_all();
    total
}

#[test]
fn sealing_keeps_every_exported_number() {
    for seed in 0..200u64 {
        let mut gen = Gen::new(0x5EA1 ^ seed);
        let ms = |n: u64| n * 1_000;
        let window = ms([500, 1_000, 1_500, 4_000][gen.below(4) as usize]);
        let spacing = ms([250, 500, 1_000, 2_000][gen.below(4) as usize]);
        let visits = rank_ordered_visits(&mut gen, window, spacing);
        let open = timeline_of(window, spacing, &visits);
        let sealed = sealed_in_chunks(&mut gen, window, spacing, &visits);
        let case = format!("seed {seed}, window {window} µs, spacing {spacing} µs");
        assert_eq!(sealed.to_json(), open.to_json(), "{case}");
        assert_eq!(sealed.totals(), open.totals(), "{case}");
        assert_eq!(sealed.num_windows(), open.num_windows(), "{case}");
        assert_eq!(sealed.total_visits(), open.total_visits(), "{case}");
        let last = visits.last().expect("a stream has visits").rank;
        for _ in 0..4 {
            let lo = gen.below(u64::from(last) + 1) as u32;
            let hi = lo + gen.below(u64::from(last - lo) + 1) as u32;
            assert_eq!(
                dashboard::render(&sealed, lo, hi),
                dashboard::render(&open, lo, hi),
                "{case}, ranks {lo}..={hi}"
            );
        }
        // Sealed whole, the timeline is one value however it was cut.
        let again = sealed_in_chunks(&mut gen, window, spacing, &visits);
        assert!(sealed == again, "{case}: two chunkings seal apart");
    }
}

/// A timeline of visits 0..8 sealed before rank 8's epoch: windows
/// 0 and 1 of 4 s at 1 s spacing.
fn sealed_before_rank_8() -> Timeline {
    let mut t = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
    for rank in 0..8 {
        t.record_visit(&VisitObs {
            rank,
            ..VisitObs::default()
        });
    }
    t.seal_before(8);
    assert_eq!(t.num_windows(), 2);
    t
}

#[test]
#[should_panic(expected = "window 1 is sealed")]
fn recording_into_a_sealed_window_panics() {
    let mut t = sealed_before_rank_8();
    // Rank 7 is below the rank it was sealed at: out of rank order.
    t.record_visit(&VisitObs {
        rank: 7,
        ..VisitObs::default()
    });
}

#[test]
#[should_panic(expected = "window 1 is sealed")]
fn merging_into_a_sealed_window_panics() {
    let mut t = sealed_before_rank_8();
    let mut late = Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING);
    late.record_visit(&VisitObs {
        rank: 5,
        ..VisitObs::default()
    });
    t.merge(late);
}

#[test]
#[should_panic(expected = "a retained timeline is never sealed")]
fn sealing_a_retained_timeline_panics() {
    Timeline::new(DEFAULT_WINDOW, DEFAULT_SPACING)
        .with_retention(4)
        .seal_all();
}
