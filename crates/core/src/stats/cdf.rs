//! Empirical CDFs for the paper's figure series.

use super::quantile_sorted;

/// An empirical cumulative distribution function.
///
/// Stores the sorted sample set; evaluation is a binary search. Used
/// to regenerate Figure 1 (unique ASes per page), Figure 3 (DNS/TLS
/// counts), Figure 4 (SAN sizes), Figure 7 (new connections) and
/// Figure 9 (page load times).
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from samples. Panics on NaN samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Cdf { sorted }
    }

    /// Build a CDF from integer samples.
    pub fn from_u64(samples: &[u64]) -> Self {
        Self::from_samples(&samples.iter().map(|&x| x as f64).collect::<Vec<_>>())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x): fraction of samples less than or equal to `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point returns the count of samples <= x because the
        // predicate holds for the sorted prefix of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the q-quantile of the samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        Some(quantile_sorted(&self.sorted, q))
    }

    /// Median convenience accessor.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Step-function points of the full empirical CDF: one `(x, p)`
    /// pair per distinct sample value.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let x = self.sorted[i];
            let mut j = i + 1;
            while j < n && self.sorted[j] == x {
                j += 1;
            }
            out.push((x, j as f64 / n as f64));
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let c = Cdf::from_samples(&[]);
        assert!(c.is_empty());
        assert_eq!(c.eval(1.0), 0.0);
        assert_eq!(c.quantile(0.5), None);
    }

    #[test]
    fn eval_step_boundaries() {
        let c = Cdf::from_u64(&[1, 2, 2, 3]);
        assert_eq!(c.eval(0.0), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(1.5), 0.25);
        assert_eq!(c.eval(2.0), 0.75);
        assert_eq!(c.eval(3.0), 1.0);
        assert_eq!(c.eval(99.0), 1.0);
    }

    #[test]
    fn median_matches_quantile() {
        let c = Cdf::from_u64(&[10, 20, 30]);
        assert_eq!(c.median(), Some(20.0));
    }

    #[test]
    fn steps_deduplicate() {
        let c = Cdf::from_u64(&[5, 5, 7]);
        assert_eq!(c.steps(), vec![(5.0, 2.0 / 3.0), (7.0, 1.0)]);
    }

    #[test]
    fn monotone_nondecreasing() {
        let c = Cdf::from_u64(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let mut last = 0.0;
        for x in 0..10 {
            let p = c.eval(x as f64);
            assert!(p >= last, "CDF must be non-decreasing");
            last = p;
        }
    }
}
