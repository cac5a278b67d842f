//! Fixed-bucket histograms.
//!
//! Unlike `origin_core::stats::Histogram` (exact per-value counts, used for
//! paper tables), these histograms have bucket bounds fixed at
//! construction so two instances recorded independently on different
//! shards are always merge-compatible — the precondition for the
//! registry's commutative `merge()`.

/// A histogram over `u64` observations with fixed upper bounds.
///
/// An observation `x` lands in the first bucket whose bound satisfies
/// `x <= bound`; values above the last bound land in the implicit
/// overflow bucket. `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl FixedHistogram {
    /// New histogram with the given ascending upper bounds.
    ///
    /// Panics when `bounds` is empty or not strictly ascending —
    /// merge compatibility depends on every instance of a metric
    /// using identical bounds, so malformed bounds are a programming
    /// error, not data.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        FixedHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Fold another histogram into this one. Panics when bounds
    /// differ — shards of the same metric always share bounds.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_buckets_and_overflow() {
        let mut h = FixedHistogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 100] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 112);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = FixedHistogram::new(&[10]);
        let mut b = FixedHistogram::new(&[10]);
        a.observe(3);
        b.observe(30);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 33);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = FixedHistogram::new(&[10]);
        let b = FixedHistogram::new(&[20]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bounds_must_ascend() {
        FixedHistogram::new(&[5, 5]);
    }
}
