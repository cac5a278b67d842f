//! Bucketed time series for longitudinal plots (Figure 8).

/// A time series of event counts bucketed into fixed-width windows.
///
/// Figure 8 plots new-TLS-connections-per-second for control and
/// experiment groups over a two-week deployment; this type accumulates
/// raw event timestamps and reports per-bucket rates.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Bucket width in the same unit as the timestamps (e.g. seconds).
    bucket_width: f64,
    /// Count of events per bucket, indexed by bucket number.
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// Create a series covering `[0, horizon)` with `bucket_width`
    /// buckets. Panics if `bucket_width <= 0` or `horizon <= 0`.
    pub fn new(horizon: f64, bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        assert!(horizon > 0.0, "horizon must be positive");
        let n = (horizon / bucket_width).ceil() as usize;
        TimeSeries {
            bucket_width,
            buckets: vec![0; n],
        }
    }

    /// Record one event at time `t`. Events outside `[0, horizon)` are
    /// ignored (the passive pipeline logs outside the study window are
    /// dropped the same way).
    pub fn record(&mut self, t: f64) {
        if t < 0.0 {
            return;
        }
        let idx = (t / self.bucket_width) as usize;
        if let Some(b) = self.buckets.get_mut(idx) {
            *b += 1;
        }
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when the series has no buckets.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Raw per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Mean rate over a bucket index range `[start, end)` — used to
    /// compare experiment vs control over the deployment window only.
    pub fn mean_rate(&self, start: usize, end: usize) -> f64 {
        let end = end.min(self.buckets.len());
        if start >= end {
            return 0.0;
        }
        let sum: u64 = self.buckets[start..end].iter().sum();
        sum as f64 / ((end - start) as f64 * self.bucket_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_count_rounds_up() {
        let s = TimeSeries::new(10.0, 3.0);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn record_places_events() {
        let mut s = TimeSeries::new(10.0, 1.0);
        s.record(0.0);
        s.record(0.5);
        s.record(9.9);
        assert_eq!(s.counts()[0], 2);
        assert_eq!(s.counts()[9], 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn out_of_range_ignored() {
        let mut s = TimeSeries::new(10.0, 1.0);
        s.record(-1.0);
        s.record(10.0);
        s.record(100.0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn mean_rate_over_window() {
        let mut s = TimeSeries::new(4.0, 1.0);
        for t in [0.0, 0.5, 1.0, 1.25, 1.5, 1.75] {
            s.record(t);
        }
        assert_eq!(s.mean_rate(0, 2), 3.0);
        assert_eq!(s.mean_rate(2, 4), 0.0);
        assert_eq!(s.mean_rate(3, 3), 0.0);
        // end clamped to len
        assert_eq!(s.mean_rate(0, 100), 1.5);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_width_panics() {
        TimeSeries::new(1.0, 0.0);
    }
}
