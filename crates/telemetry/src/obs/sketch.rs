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
//! slots however many samples it sees. Both ends of the run are always
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
    exemplars: Vec<Option<Exemplar>>,
    count: u64,
    max: u64,
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slot of bucket `idx`, extending the run to cover it first. The
    /// caller makes the slot nonzero, which keeps both ends occupied.
    fn slot(&mut self, idx: u16) -> usize {
        if self.counts.is_empty() {
            self.base = idx;
        }
        if idx < self.base {
            let grow = usize::from(self.base - idx);
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            if !self.exemplars.is_empty() {
                self.exemplars.splice(0..0, std::iter::repeat_n(None, grow));
            }
            self.base = idx;
        }
        let slot = usize::from(idx - self.base);
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
            if !self.exemplars.is_empty() {
                self.exemplars.resize(slot + 1, None);
            }
        }
        slot
    }

    /// Merge `e` into the exemplar of `slot`.
    fn keep_exemplar(&mut self, slot: usize, e: Exemplar) {
        if self.exemplars.is_empty() {
            self.exemplars.resize(self.counts.len(), None);
        }
        let kept = &mut self.exemplars[slot];
        *kept = Some(kept.map_or(e, |prev| prev.merge(e)));
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
        self.exemplars.get(slot).copied().flatten()
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
            if let Some(e) = *e {
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
    fn empty_sketch_is_all_zeros() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile_exemplar(0.99), None);
    }
}
