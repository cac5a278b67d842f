//! The statistics the paper reports its results in.
//!
//! The paper reports its results almost exclusively as medians,
//! percentiles, CDFs, frequency distributions, and top-k breakdown
//! tables. These are small building blocks for all of those, so the
//! model, the deployment simulator and `repro` share one
//! implementation:
//!
//! - [`Cdf`] — empirical CDFs with quantile lookup, used for Figures
//!   1, 3, 4, 7 and 9.
//! - [`Histogram`] — integer-valued frequency distributions
//!   (Figure 1's bar series, Table 8's SAN-size distribution).
//! - [`TopK`] — top-k counters with share-of-total percentages
//!   (Tables 2, 4, 5, 6, 7, 9).
//! - [`TimeSeries`] — bucketed longitudinal series (Figure 8).
//! - [`table`] — plain-text table rendering used by the `repro`
//!   binary to print paper-style tables.

mod cdf;
mod hist;
mod series;
pub mod table;
mod topk;

pub use cdf::Cdf;
pub use hist::Histogram;
pub use series::TimeSeries;
pub use topk::{TopEntry, TopK, FINAL_KEPT};

/// Compute the `q`-quantile (0.0 ..= 1.0) of a slice using linear
/// interpolation between closest ranks (type-7 estimator, the same
/// rule NumPy uses and therefore the one the paper's plots were made
/// with).
///
/// Returns `None` for an empty slice or a `q` outside `[0, 1]`.
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(origin_core::stats::quantile(&xs, 0.5), Some(2.5));
/// ```
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) || q.is_nan() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    Some(quantile_sorted(&sorted, q))
}

/// [`quantile`] over a non-empty slice that is already sorted
/// ascending.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of a slice (convenience wrapper over [`quantile`]).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Relative change from `before` to `after`, in percent.
///
/// Negative values are reductions: the paper's "reduces median DNS
/// queries by ∼64%" is `percent_change(14.0, 5.0) ≈ -64.3`.
pub fn percent_change(before: f64, after: f64) -> f64 {
    if before == 0.0 {
        return 0.0;
    }
    (after - before) / before * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_out_of_range_is_none() {
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[1.0], 1.1), None);
        assert_eq!(quantile(&[1.0], f64::NAN), None);
    }

    #[test]
    fn quantile_single_sample() {
        assert_eq!(quantile(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile(&[42.0], 0.5), Some(42.0));
        assert_eq!(quantile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(40.0));
        assert_eq!(quantile(&xs, 0.5), Some(25.0));
        assert_eq!(quantile(&xs, 0.25), Some(17.5));
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [30.0, 10.0, 40.0, 20.0];
        assert_eq!(quantile(&xs, 0.5), Some(25.0));
    }

    #[test]
    fn median_odd() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn percent_change_reduction() {
        let c = percent_change(14.0, 5.0);
        assert!((c - (-64.2857)).abs() < 0.01);
    }

    #[test]
    fn percent_change_zero_before() {
        assert_eq!(percent_change(0.0, 5.0), 0.0);
    }
}
