//! Open-loop session arrival processes.
//!
//! The serving engine (DESIGN.md §20) replaces the one-shot crawl with
//! an open-loop workload: sessions arrive on their own clock,
//! independent of how fast the system drains them. Arrivals are a
//! Poisson process whose rate is modulated by a diurnal (daily sine)
//! profile, sampled by thinning: candidate gaps are drawn from the
//! exponential of the *peak* rate and accepted with probability
//! `rate(t) / peak`, which yields an exact non-homogeneous Poisson
//! process without any discretization of the rate curve.

use crate::exact;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A non-homogeneous Poisson arrival process with a diurnal rate
/// profile.
///
/// The instantaneous rate is
///
/// ```text
/// rate(t) = peak · (1 − a/2 · (1 + cos(2π·t / period)))
/// ```
///
/// so the trough sits at `t = 0` (and every whole period), the peak at
/// half-period, and `a` (the amplitude in `[0, 1]`) is the
/// peak-to-trough swing as a fraction of the peak: `a = 0` is a
/// homogeneous process, `a = 1` silences the trough entirely.
pub struct ArrivalProcess {
    rng: SimRng,
    /// Mean candidate gap at peak rate, in µs.
    peak_gap_us: f64,
    amplitude: f64,
    period_us: f64,
    now: SimTime,
}

impl ArrivalProcess {
    /// Create a process emitting `peak_rate_per_sec` arrivals per
    /// simulated second at peak, modulated by `amplitude` over
    /// `period`. Panics on a non-positive rate, an amplitude outside
    /// `[0, 1]`, or a zero period with a non-zero amplitude.
    pub fn new(rng: SimRng, peak_rate_per_sec: f64, amplitude: f64, period: SimDuration) -> Self {
        assert!(
            peak_rate_per_sec > 0.0 && peak_rate_per_sec.is_finite(),
            "peak rate must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&amplitude),
            "amplitude must be in [0, 1]"
        );
        assert!(
            amplitude == 0.0 || period > SimDuration::ZERO,
            "diurnal modulation needs a period"
        );
        ArrivalProcess {
            rng,
            peak_gap_us: 1_000_000.0 / peak_rate_per_sec,
            amplitude,
            period_us: period.as_micros() as f64,
            now: SimTime::ZERO,
        }
    }

    /// The instantaneous rate at `t` as a fraction of the peak rate,
    /// in `(0, 1]`.
    fn rate_factor(&self, t: SimTime) -> f64 {
        if self.amplitude == 0.0 {
            return 1.0;
        }
        let turns = t.as_micros() as f64 / self.period_us;
        1.0 - self.amplitude / 2.0 * (1.0 + exact::cos_turns(turns))
    }

    /// Advance to and return the next arrival instant (thinning).
    ///
    /// Every candidate advances time by at least 1 µs, so the stream
    /// is strictly increasing and cannot stall.
    pub fn next_arrival(&mut self) -> SimTime {
        loop {
            let gap = self.rng.exponential(self.peak_gap_us).max(1.0);
            self.now += SimDuration::from_micros(gap.round() as u64);
            if self.rng.chance(self.rate_factor(self.now)) {
                return self.now;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_in(process: &mut ArrivalProcess, from: SimTime, to: SimTime) -> usize {
        let mut n = 0;
        loop {
            let t = process.next_arrival();
            if t >= to {
                return n;
            }
            if t >= from {
                n += 1;
            }
        }
    }

    #[test]
    fn homogeneous_rate_matches_mean() {
        let rng = SimRng::seed_from_u64(0x0ab1);
        let mut p = ArrivalProcess::new(rng, 100.0, 0.0, SimDuration::ZERO);
        // 100/s over 200 s ⇒ expect ~20k arrivals; Poisson σ ≈ 141.
        let n = count_in(&mut p, SimTime::ZERO, SimTime::from_secs(200));
        assert!((19_300..20_700).contains(&n), "got {n}");
    }

    #[test]
    fn diurnal_trough_is_quieter_than_peak() {
        let rng = SimRng::seed_from_u64(0x0ab2);
        let period = SimDuration::from_secs(1_000);
        let mut p = ArrivalProcess::new(rng, 50.0, 0.8, period);
        // Trough (t=0) rate is peak·(1−a) = 10/s; peak (t=period/2)
        // is 50/s. Count 100-second slices centred on each.
        let trough = count_in(&mut p, SimTime::ZERO, SimTime::from_secs(100));
        let rng2 = SimRng::seed_from_u64(0x0ab2);
        let mut p2 = ArrivalProcess::new(rng2, 50.0, 0.8, period);
        let peak = count_in(&mut p2, SimTime::from_secs(450), SimTime::from_secs(550));
        assert!(
            peak as f64 > 2.5 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn stream_is_deterministic_and_strictly_increasing() {
        let mk = || {
            ArrivalProcess::new(
                SimRng::seed_from_u64(7),
                1_000.0,
                0.6,
                SimDuration::from_secs(60),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        let mut prev = SimTime::ZERO;
        for _ in 0..10_000 {
            let t = a.next_arrival();
            assert_eq!(t, b.next_arrival());
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn amplitude_one_silences_the_trough() {
        let rng = SimRng::seed_from_u64(0x0ab3);
        let period = SimDuration::from_secs(1_000);
        let mut p = ArrivalProcess::new(rng, 20.0, 1.0, period);
        // rate(0) = 0: essentially nothing lands in the first seconds
        // compared to the half-period window.
        let trough = count_in(&mut p, SimTime::ZERO, SimTime::from_secs(20));
        assert!(trough < 10, "trough nearly silent, got {trough}");
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn rejects_out_of_range_amplitude() {
        ArrivalProcess::new(
            SimRng::seed_from_u64(1),
            1.0,
            1.5,
            SimDuration::from_secs(1),
        );
    }
}
