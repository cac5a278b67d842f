//! Five-number summaries used for the per-bucket rows of Table 1.

use crate::{mean, quantile_sorted};

/// A distribution summary: count, min/max, mean, and the quartiles.
///
/// Built once from a sample set; all accessors are O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarize a sample set. Returns `None` when `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Some(Summary {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            mean: mean(&sorted).expect("non-empty"),
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            p75: quantile_sorted(&sorted, 0.75),
            p90: quantile_sorted(&sorted, 0.90),
            p99: quantile_sorted(&sorted, 0.99),
        })
    }

    /// Summarize integer samples.
    pub fn from_u64(samples: &[u64]) -> Option<Self> {
        let xs: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Self::from_samples(&xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(Summary::from_samples(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn quartiles_of_known_set() {
        // 1..=100: median 50.5, p25 25.75, p75 75.25 under type-7.
        let xs: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::from_samples(&xs).unwrap();
        assert_eq!(s.median, 50.5);
        assert_eq!(s.p25, 25.75);
        assert_eq!(s.p75, 75.25);
        assert_eq!(s.mean, 50.5);
    }

    #[test]
    fn from_u64_matches_f64() {
        let a = Summary::from_u64(&[1, 2, 3]).unwrap();
        let b = Summary::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let s = Summary::from_samples(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 5.0);
    }
}
