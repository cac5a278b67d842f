//! Deterministic log2-bucket quantile sketch.
//!
//! An HDR-style histogram: values below 8 get exact buckets; above
//! that, each power-of-two octave is split into 8 linear sub-buckets,
//! so a bucket's width is at most 1/8 of its lower bound. Quantile
//! estimates return the bucket's upper bound, which yields the
//! one-sided error law pinned by the property tests:
//!
//! ```text
//! exact(q) <= estimate(q) <= exact(q) + exact(q)/8 + 1
//! ```
//!
//! (nearest-rank definition of `exact`; the `+ 1` absorbs integer
//! truncation).
//!
//! Storage is one contiguous run of buckets: `base` is the smallest
//! occupied bucket index and `counts[i]` belongs to bucket `base + i`,
//! up to the largest occupied bucket. Filing a sample is an index and
//! an add; the run only grows when a sample lands outside it, and
//! [`bucket_index`] never exceeds 495, so a sketch holds at most 496
//! slots however many samples it sees. A run grows by whole octaves
//! of [`SUBBUCKETS`] slots, never by doubling, so it holds fewer than
//! one octave of spare slots. Both ends of the run are always
//! occupied, which makes the layout a function of the recorded
//! multiset alone: derived `Eq` is canonical under any record or merge
//! order. Exemplar slots are allocated on the first exemplar, so
//! sketches that never carry one pay for counts only.
//!
//! Each bucket may carry an [`Exemplar`] linking the largest sample
//! that landed in it back to a `trace` span, so an outlier
//! percentile is one hop from its waterfall.

/// Number of linear sub-buckets per power-of-two octave. The relative
/// bucket error is `1 / SUBBUCKETS`.
pub const SUBBUCKETS: u64 = 8;

/// A sample that stands in for every sample in its bucket, keeping a
/// link back to the trace span that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The sampled value (same unit as the sketch).
    pub value: u64,
    /// Site rank of the visit that produced the sample.
    pub rank: u32,
    /// Trace span ID (`trace::span_ref(rank, seq)`): the visit's
    /// trace process is its rank, the low bits select the span.
    pub span_id: u64,
}

impl Exemplar {
    /// Deterministic two-exemplar merge: keep the larger value;
    /// tie-break on smaller rank, then smaller span ID, so the result
    /// is independent of merge order.
    pub fn merge(self, other: Exemplar) -> Exemplar {
        match other.value.cmp(&self.value) {
            std::cmp::Ordering::Greater => other,
            std::cmp::Ordering::Less => self,
            std::cmp::Ordering::Equal => {
                if (other.rank, other.span_id) < (self.rank, self.span_id) {
                    other
                } else {
                    self
                }
            }
        }
    }
}

/// A bucket's exemplar slot: the [`Exemplar`] when `present`, all
/// zeros otherwise. 24 bytes, where `Option<Exemplar>` takes 32.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    value: u64,
    span_id: u64,
    rank: u32,
    present: bool,
}

const _: () = assert!(size_of::<Slot>() == 24);

impl Slot {
    fn get(self) -> Option<Exemplar> {
        self.present.then_some(Exemplar {
            value: self.value,
            rank: self.rank,
            span_id: self.span_id,
        })
    }

    /// Merge `e` into the exemplar this slot holds.
    fn keep(&mut self, e: Exemplar) {
        // Most samples in a bucket are below the largest one it holds.
        if self.present && self.value > e.value {
            return;
        }
        let kept = self.get().map_or(e, |prev| prev.merge(e));
        *self = Slot {
            value: kept.value,
            span_id: kept.span_id,
            rank: kept.rank,
            present: true,
        };
    }
}

/// Make room in `run` for `more` slots: when it has to grow, it grows
/// to the next whole octave, not to double its size.
fn reserve_octaves<T>(run: &mut Vec<T>, more: usize) {
    let len = run.len() + more;
    if len > run.capacity() {
        let octaves = len.next_multiple_of(SUBBUCKETS as usize);
        run.reserve_exact(octaves - run.len());
    }
}

/// Map a value to its bucket index. Exact below [`SUBBUCKETS`]; above,
/// `SUBBUCKETS` linear sub-buckets per octave.
pub fn bucket_index(v: u64) -> u16 {
    if v < SUBBUCKETS {
        return v as u16;
    }
    let octave = 63 - v.leading_zeros() as u64; // >= 3
    let sub = (v >> (octave - 3)) - SUBBUCKETS; // 0..8 within the octave
    (octave * 8 - 16 + sub) as u16
}

/// Upper bound (inclusive) of a bucket: the largest value that maps to
/// `idx`. Inverse of [`bucket_index`] up to bucket resolution.
pub fn bucket_upper(idx: u16) -> u64 {
    let idx = idx as u64;
    if idx < SUBBUCKETS {
        return idx;
    }
    let octave = (idx - 8) / 8 + 3;
    let sub = (idx - 8) % 8;
    ((SUBBUCKETS + sub + 1) << (octave - 3)) - 1
}

/// A mergeable quantile sketch over `u64` samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Bucket index of `counts[0]` (0 while the sketch is empty).
    base: u16,
    /// Per-bucket sample counts over `[base, base + len)`; first and
    /// last are nonzero.
    counts: Vec<u64>,
    /// Parallel to `counts` once any sample carried an exemplar; empty
    /// until then.
    exemplars: Vec<Slot>,
    count: u64,
    max: u64,
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sketch with room for the runs `self` holds: the next
    /// window's sketch fills much as this one did.
    pub(crate) fn sized_like(&self) -> Self {
        QuantileSketch {
            counts: Vec::with_capacity(self.counts.len()),
            exemplars: Vec::with_capacity(self.exemplars.len()),
            ..Self::default()
        }
    }

    /// Slot of bucket `idx`, extending the run to cover it first. The
    /// caller makes the slot nonzero, which keeps both ends occupied.
    fn slot(&mut self, idx: u16) -> usize {
        if self.counts.is_empty() {
            self.base = idx;
        }
        if idx < self.base {
            let grow = usize::from(self.base - idx);
            reserve_octaves(&mut self.counts, grow);
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            if !self.exemplars.is_empty() {
                reserve_octaves(&mut self.exemplars, grow);
                let none = std::iter::repeat_n(Slot::default(), grow);
                self.exemplars.splice(0..0, none);
            }
            self.base = idx;
        }
        let slot = usize::from(idx - self.base);
        if slot >= self.counts.len() {
            let more = slot + 1 - self.counts.len();
            reserve_octaves(&mut self.counts, more);
            self.counts.resize(slot + 1, 0);
            if !self.exemplars.is_empty() {
                reserve_octaves(&mut self.exemplars, more);
                self.exemplars.resize(slot + 1, Slot::default());
            }
        }
        slot
    }

    /// Merge `e` into the exemplar of `slot`.
    fn keep_exemplar(&mut self, slot: usize, e: Exemplar) {
        if self.exemplars.is_empty() {
            reserve_octaves(&mut self.exemplars, self.counts.len());
            self.exemplars.resize(self.counts.len(), Slot::default());
        }
        self.exemplars[slot].keep(e);
    }

    /// Record one sample, optionally with an exemplar linking it to a
    /// trace span.
    pub fn record(&mut self, value: u64, exemplar: Option<Exemplar>) {
        let slot = self.slot(bucket_index(value));
        self.counts[slot] += 1;
        self.count += 1;
        self.max = self.max.max(value);
        if let Some(e) = exemplar {
            self.keep_exemplar(slot, e);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of occupied buckets.
    pub fn occupied_buckets(&self) -> usize {
        self.counts.iter().filter(|&&n| n > 0).count()
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// containing the `ceil(q·count)`-th smallest sample, clamped to
    /// the observed maximum. Returns 0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> u64 {
        match self.quantile_bucket(q) {
            Some(idx) => bucket_upper(idx).min(self.max),
            None => 0,
        }
    }

    /// Slot of the bucket the quantile estimate comes from.
    fn quantile_slot(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let k = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // `counts` sums to `count >= k`, so some slot reaches `k`.
        let mut cum = 0u64;
        self.counts.iter().position(|&n| {
            cum += n;
            cum >= k
        })
    }

    /// The bucket index the quantile estimate comes from, or `None`
    /// when the sketch is empty.
    pub fn quantile_bucket(&self, q: f64) -> Option<u16> {
        self.quantile_slot(q).map(|slot| self.base + slot as u16)
    }

    /// The exemplar attached to the bucket a quantile falls in, if any
    /// sample in that bucket carried one.
    pub fn quantile_exemplar(&self, q: f64) -> Option<Exemplar> {
        let slot = self.quantile_slot(q)?;
        self.exemplars.get(slot).copied().and_then(Slot::get)
    }

    /// Fold another sketch in. Bucket counts add, exemplars merge by
    /// the deterministic [`Exemplar::merge`] rule, so the operation is
    /// commutative and associative.
    pub fn merge(&mut self, other: &QuantileSketch) {
        let Some(last) = other.counts.len().checked_sub(1) else {
            return;
        };
        // Cover the other run's (occupied) ends, then add slot by slot
        // at the offset between the two bases.
        let shift = self.slot(other.base);
        self.slot(other.base + last as u16);
        for (mine, theirs) in self.counts[shift..].iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        for (i, e) in other.exemplars.iter().enumerate() {
            if let Some(e) = e.get() {
                self.keep_exemplar(shift + i, e);
            }
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut prev = bucket_index(0);
        for v in 1..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx == prev || idx == prev + 1, "jump at {v}");
            prev = idx;
        }
    }

    #[test]
    fn bucket_upper_inverts_bucket_index() {
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper({idx}) = {upper} < {v}");
            assert_eq!(bucket_index(upper), idx);
            if upper + 1 < u64::MAX {
                assert_eq!(bucket_index(upper + 1), idx + 1);
            }
        }
        // Spot-check large magnitudes.
        for shift in 10..60 {
            let v = 1u64 << shift;
            assert!(bucket_upper(bucket_index(v)) >= v);
        }
    }

    #[test]
    fn bucket_relative_width_is_at_most_one_eighth() {
        for v in SUBBUCKETS..1_000_000u64 {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper - v <= v / 8, "width too large at {v}: upper {upper}");
        }
    }

    #[test]
    fn exemplar_merge_is_order_independent() {
        let a = Exemplar {
            value: 9,
            rank: 4,
            span_id: 1,
        };
        let b = Exemplar {
            value: 9,
            rank: 2,
            span_id: 7,
        };
        let c = Exemplar {
            value: 11,
            rank: 9,
            span_id: 3,
        };
        assert_eq!(a.merge(b), b.merge(a));
        assert_eq!(a.merge(b).merge(c), c.merge(b.merge(a)));
        assert_eq!(a.merge(c).value, 11);
        assert_eq!(a.merge(b).rank, 2);
    }

    #[test]
    fn run_spans_exactly_the_occupied_buckets() {
        // The widest possible sketch: 496 slots, whichever end came
        // first, and a sketch without exemplars allocates none.
        let (mut up, mut down) = (QuantileSketch::new(), QuantileSketch::new());
        for v in [0, 1_000, u64::MAX] {
            up.record(v, None);
        }
        for v in [u64::MAX, 1_000, 0] {
            down.record(v, None);
        }
        assert_eq!(up, down);
        assert_eq!((up.base, up.counts.len()), (0, 496));
        assert_eq!((up.counts[0], up.counts[495]), (1, 1));
        assert_eq!(up.occupied_buckets(), 3);
        assert!(up.exemplars.is_empty());

        // Merging widens to the union and keeps both ends occupied.
        let mut mid = QuantileSketch::new();
        mid.record(1_000, None);
        let mut low = QuantileSketch::new();
        low.record(5, None);
        mid.merge(&low);
        mid.merge(&QuantileSketch::new());
        assert_eq!(mid.base, 5);
        assert_eq!(usize::from(bucket_index(1_000)), 5 + mid.counts.len() - 1);
    }

    #[test]
    fn runs_grow_by_octaves_not_by_doubling() {
        let mut rng = origin_netsim::SimRng::seed_from_u64(0x5c);
        let mut merged = QuantileSketch::new();
        for _ in 0..20 {
            let mut s = QuantileSketch::new();
            for i in 0..200u32 {
                // Values spread over every octave, in random order.
                let v = rng.next_u64() >> rng.index(64);
                let e = Exemplar {
                    value: v,
                    rank: i,
                    span_id: u64::from(i),
                };
                s.record(v, (i % 3 == 0).then_some(e));
            }
            merged.merge(&s);
            for run in [&s, &merged] {
                assert!(run.counts.capacity() - run.counts.len() < 8);
                assert!(run.exemplars.capacity() - run.exemplars.len() < 8);
            }
        }
    }

    #[test]
    fn empty_sketch_is_all_zeros() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile_exemplar(0.99), None);
    }

    /// Keeping an exemplar is the two-exemplar merge folded over the
    /// stream, ties on value, rank and span included.
    #[test]
    fn keep_is_the_merge_fold() {
        let mut rng = origin_netsim::SimRng::seed_from_u64(0x4EE9);
        for _ in 0..500 {
            let (mut slot, mut fold) = (Slot::default(), None::<Exemplar>);
            for _ in 0..rng.range_u64(1, 40) {
                let e = Exemplar {
                    value: rng.range_u64(0, 6),
                    rank: rng.range_u64(0, 4) as u32,
                    span_id: rng.range_u64(0, 4),
                };
                slot.keep(e);
                fold = Some(fold.map_or(e, |p| p.merge(e)));
                assert_eq!(slot.get(), fold);
            }
        }
    }
}
