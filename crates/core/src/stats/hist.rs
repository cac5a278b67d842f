//! Integer-valued frequency distributions.

use std::collections::BTreeMap;

/// A frequency distribution over integer values.
///
/// Used for Figure 1's bar series (number of unique ASes contacted per
/// page) and Table 8 (distribution of SAN-entry counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Record one observation of `value`.
    pub fn add(&mut self, value: u64) {
        self.add_n(value, 1);
    }

    /// Record `n` observations of `value`.
    fn add_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations equal to `value` (0.0 when empty).
    pub fn fraction(&self, value: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts.get(&value).copied().unwrap_or(0) as f64 / self.total as f64
        }
    }

    /// `(value, count)` pairs in ascending value order.
    pub fn bins(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// `(value, count)` pairs sorted by descending count; ties broken
    /// by ascending value. This is Table 8's "rank by count" ordering.
    pub fn ranked(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.bins().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Fraction of observations with value ≤ `x` — the histogram's CDF.
    pub fn cdf_at(&self, x: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cum: u64 = self.counts.range(..=x).map(|(_, &c)| c).sum();
        cum as f64 / self.total as f64
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, c) in other.bins() {
            self.add_n(v, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in values {
            h.add(v);
        }
        h
    }

    #[test]
    fn empty() {
        let h = Histogram::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction(3), 0.0);
        assert_eq!(h.cdf_at(10), 0.0);
    }

    #[test]
    fn add_and_fraction() {
        let h = hist(&[2, 2, 5]);
        assert_eq!(h.total(), 3);
        assert!((h.fraction(2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.fraction(5) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.fraction(4), 0.0);
    }

    #[test]
    fn cdf_steps() {
        let h = hist(&[1, 2, 3, 4]);
        assert_eq!(h.cdf_at(0), 0.0);
        assert_eq!(h.cdf_at(2), 0.5);
        assert_eq!(h.cdf_at(4), 1.0);
    }

    #[test]
    fn ranked_order() {
        let h = hist(&[7, 7, 7, 3, 3, 9]);
        assert_eq!(h.ranked(), vec![(7, 3), (3, 2), (9, 1)]);
    }

    #[test]
    fn ranked_tie_breaks_ascending_value() {
        let h = hist(&[4, 4, 2, 2]);
        assert_eq!(h.ranked(), vec![(2, 2), (4, 2)]);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = hist(&[1, 2]);
        a.merge(&hist(&[2, 3]));
        assert_eq!(a.total(), 4);
        assert_eq!(a.bins().collect::<Vec<_>>(), vec![(1, 1), (2, 2), (3, 1)]);
        a.merge(&Histogram::default());
        assert_eq!(a, hist(&[1, 2, 2, 3]));
    }
}
