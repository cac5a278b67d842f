//! Simulated time.
//!
//! All simulation time is an integer count of microseconds so that
//! event ordering is exact and runs are bit-for-bit reproducible —
//! floating-point time would make event order depend on summation
//! order.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// Fractional milliseconds to whole microseconds, half away from zero:
/// the workspace's one quantisation, equal to
/// `(ms * 1_000.0).round() as u64` on every input (negatives and NaN
/// come out 0, as the saturating cast makes them there).
///
/// Every finished request is quantised — once, nine values — and
/// `f64::round` is a libm call on the baseline x86-64 target, so the
/// common range is done in registers. In `[0, 2^52)` `x` splits
/// exactly into `trunc(x)` and a fraction in `[0, 1)` — the truncation
/// to `i64`, its conversion back and the subtraction are all exact,
/// one signed conversion each way where `u64` takes two and a fix-up —
/// and rounding half away from zero is adding that comparison. From
/// 2^52 up every `f64` is an integer already; there, and for
/// negatives and NaN, `round` is the rare path.
#[inline]
pub fn millis_to_micros(ms: f64) -> u64 {
    const EXACT_BELOW: f64 = (1u64 << 52) as f64;
    let x = ms * 1_000.0;
    if (0.0..EXACT_BELOW).contains(&x) {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x.round() as u64
    }
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (fractional).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the epoch (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration since an earlier instant; saturates to zero when
    /// `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Index of the tumbling window of width `width` containing this
    /// instant (window `i` covers `[i·width, (i+1)·width)`). Panics on
    /// a zero-width window.
    pub const fn window_index(self, width: SimDuration) -> u64 {
        assert!(width.0 > 0, "zero-width window");
        self.0 / width.0
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from fractional milliseconds (rounded to whole µs).
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(
            ms >= 0.0 && ms.is_finite(),
            "negative or non-finite duration"
        );
        SimDuration(millis_to_micros(ms))
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiply by an integer factor (e.g. N round trips).
    pub const fn times(self, n: u64) -> Self {
        SimDuration(self.0 * n)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_secs(2).as_millis_f64(), 2_000.0);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        // saturating when "earlier" is later
        assert_eq!(
            SimTime::from_millis(1) - SimTime::from_millis(9),
            SimDuration::ZERO
        );
    }

    /// The in-register path against the formula it stands for, where
    /// it could differ: signs, NaN and infinities, every tie `k + 0.5`
    /// µs up to 2^20 and at each power of two below 2^52 with the
    /// floats either side, the hand-over at 2^52, subnormals, and
    /// random bit patterns.
    #[test]
    fn millis_to_micros_equals_rounding_the_product() {
        let check = |ms: f64| {
            let want = (ms * 1_000.0).round() as u64;
            assert_eq!(
                millis_to_micros(ms),
                want,
                "ms = {ms:e} ({:#x})",
                ms.to_bits()
            );
        };
        let ulps = |x: f64| {
            [-2i64, -1, 0, 1, 2].map(|d| f64::from_bits(x.to_bits().wrapping_add_signed(d)))
        };
        let specials = [
            0.0,
            -0.0,
            -1.0,
            -0.000_6,
            -1e300,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
        ];
        specials.into_iter().for_each(check);
        let powers = (1..52).flat_map(|e| [(1u64 << e) - 1, 1 << e]);
        for k in (0..1 << 20).chain(powers) {
            for us in ulps(k as f64 + 0.5) {
                ulps(us / 1_000.0).into_iter().for_each(check);
            }
        }
        for boundary in [(1u64 << 52) as f64, (1u64 << 53) as f64] {
            for us in ulps(boundary) {
                ulps(us / 1_000.0).into_iter().for_each(check);
            }
        }
        for bits in [1, 2, 0x000F_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000] {
            check(f64::from_bits(bits));
            check(-f64::from_bits(bits));
        }
        // xorshift64*: every exponent, sign and NaN payload is drawn.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1_000_000 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            check(f64::from_bits(state.wrapping_mul(0x2545_F491_4F6C_DD1D)));
        }
    }

    #[test]
    fn window_index_tumbles() {
        let w = SimDuration::from_millis(4);
        assert_eq!(SimTime::ZERO.window_index(w), 0);
        assert_eq!(SimTime::from_micros(3_999).window_index(w), 0);
        assert_eq!(SimTime::from_micros(4_000).window_index(w), 1);
        assert_eq!(SimTime::from_millis(41).window_index(w), 10);
    }

    #[test]
    fn duration_ops() {
        let d = SimDuration::from_millis(3).times(4);
        assert_eq!(d, SimDuration::from_millis(12));
        assert_eq!(
            d.saturating_sub(SimDuration::from_millis(20)),
            SimDuration::ZERO
        );
        let total: SimDuration = [SimDuration::from_millis(1), SimDuration::from_millis(2)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration::from_millis(3));
    }

    #[test]
    fn display_formats_ms() {
        assert_eq!(SimTime::from_micros(1234).to_string(), "1.234ms");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_duration_panics() {
        SimDuration::from_millis_f64(-1.0);
    }
}
