//! Path latency/bandwidth model.
//!
//! The browser loader and the CDN experiment need plausible per-path
//! costs for DNS lookups, TCP/TLS handshakes and body transfers. A
//! [`LinkProfile`] captures one client↔server path; its transfer
//! estimator models TCP slow start (initial cwnd of 10 MSS doubling
//! each RTT) so that many-small-objects vs one-coalesced-connection
//! trade-offs discussed in §6.1 of the paper actually appear.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Sender maximum segment size used by the transfer estimator.
pub const MSS: u64 = 1460;
/// Initial congestion window in segments (RFC 6928).
pub const INIT_CWND: u64 = 10;

/// The three link classes every host falls into, seen from the single
/// US-East vantage of §3.1, as (RTT in ms, bandwidth in Mbps): 0 = a
/// nearby CDN edge, 1 = a same-continent origin, 2 = an
/// intercontinental origin. The DES loader builds [`LinkProfile`]s
/// from these; the serve engine's analytic visit cost reads them
/// directly.
pub const LINK_CLASSES: [(f64, f64); 3] = [(32.0, 60.0), (95.0, 25.0), (210.0, 18.0)];

/// A one-way network path profile between a client and a server.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Round-trip time.
    pub rtt: SimDuration,
    /// Bottleneck bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// Multiplicative jitter amplitude in [0, 1): each sampled delay is
    /// scaled by a factor drawn from [1 − jitter, 1 + jitter].
    pub jitter: f64,
}

impl LinkProfile {
    /// A profile with the given RTT in milliseconds and bandwidth in
    /// megabits per second, no jitter.
    pub fn new(rtt_ms: f64, bandwidth_mbps: f64) -> Self {
        assert!(rtt_ms > 0.0, "rtt must be positive");
        assert!(bandwidth_mbps > 0.0, "bandwidth must be positive");
        LinkProfile {
            rtt: SimDuration::from_millis_f64(rtt_ms),
            bandwidth_bps: (bandwidth_mbps * 1_000_000.0 / 8.0) as u64,
            jitter: 0.0,
        }
    }

    /// Set multiplicative jitter (0.0 ..= 0.9).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..0.95).contains(&jitter), "jitter out of range");
        self.jitter = jitter;
        self
    }

    /// A typical broadband client → nearby CDN edge path: 20 ms RTT,
    /// 50 Mbps. Matches the unthrottled datacenter vantage of §3.1
    /// closely enough for shape reproduction.
    pub fn broadband_edge() -> Self {
        LinkProfile::new(20.0, 50.0)
    }

    /// Sample a concrete delay around `base` with this profile's
    /// jitter. With zero jitter this returns `base` unchanged.
    pub fn jittered(&self, base: SimDuration, rng: &mut SimRng) -> SimDuration {
        if self.jitter == 0.0 {
            return base;
        }
        let factor = rng.range_f64(1.0 - self.jitter, 1.0 + self.jitter);
        SimDuration::from_millis_f64(base.as_millis_f64() * factor)
    }

    /// Estimated time to transfer `bytes` of response body over an
    /// established connection, starting from congestion window
    /// `cwnd_segments`.
    ///
    /// Models slow start: each RTT delivers `cwnd` segments, then the
    /// window doubles, capped by the bandwidth-delay product. A warm
    /// (coalesced) connection passes a large `cwnd_segments` and skips
    /// the ramp — this is the §6.1 "bytes in steady state on one
    /// connection vs slow-start on many" effect.
    pub fn transfer_time(&self, bytes: u64, cwnd_segments: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let rtt_s = self.rtt.as_secs_f64();
        // Max segments in flight per RTT permitted by the pipe.
        let bdp_segments = ((self.bandwidth_bps as f64 * rtt_s) / MSS as f64).max(1.0) as u64;
        let mut cwnd = cwnd_segments.max(1).min(bdp_segments.max(1));
        let mut remaining = bytes.div_ceil(MSS); // segments left
        let mut rtts = 0u64;
        while remaining > 0 {
            rtts += 1;
            remaining = remaining.saturating_sub(cwnd);
            cwnd = (cwnd * 2).min(bdp_segments);
            if rtts > 10_000 {
                break; // defensive cap; unreachable for sane inputs
            }
        }
        // Serialization time at the bottleneck plus the RTT rounds.
        let serialize = bytes as f64 / self.bandwidth_bps as f64;
        SimDuration::from_millis_f64(
            rtts as f64 * self.rtt.as_millis_f64() * 0.5 + serialize * 1_000.0,
        )
    }

    /// Congestion window (in segments) a connection reaches after
    /// transferring `bytes` — lets callers carry warm-connection state
    /// between coalesced requests.
    pub fn cwnd_after(&self, bytes: u64, cwnd_segments: u64) -> u64 {
        let rtt_s = self.rtt.as_secs_f64();
        let bdp_segments = ((self.bandwidth_bps as f64 * rtt_s) / MSS as f64).max(1.0) as u64;
        let mut cwnd = cwnd_segments.max(1).min(bdp_segments.max(1));
        let mut remaining = bytes.div_ceil(MSS);
        while remaining > 0 {
            remaining = remaining.saturating_sub(cwnd);
            cwnd = (cwnd * 2).min(bdp_segments);
            if cwnd == bdp_segments && remaining > 0 {
                break;
            }
        }
        cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        let l = LinkProfile::new(20.0, 50.0);
        assert_eq!(l.transfer_time(0, INIT_CWND), SimDuration::ZERO);
    }

    #[test]
    fn small_object_fits_one_window() {
        let l = LinkProfile::new(20.0, 50.0);
        // 10 KB < 10 segments: one delivery round (half RTT) + serialization.
        let t = l.transfer_time(10_000, INIT_CWND);
        assert!(t >= SimDuration::from_millis(10));
        assert!(t < SimDuration::from_millis(15), "t={t}");
    }

    #[test]
    fn cold_transfer_slower_than_warm() {
        let l = LinkProfile::new(40.0, 50.0);
        let cold = l.transfer_time(500_000, INIT_CWND);
        let warm = l.transfer_time(500_000, 10_000);
        assert!(cold > warm, "cold={cold} warm={warm}");
    }

    #[test]
    fn more_bytes_take_longer() {
        let l = LinkProfile::new(20.0, 10.0);
        let a = l.transfer_time(10_000, INIT_CWND);
        let b = l.transfer_time(1_000_000, INIT_CWND);
        assert!(b > a);
    }

    #[test]
    fn faster_link_is_faster() {
        let slow = LinkProfile::new(20.0, 5.0);
        let fast = LinkProfile::new(20.0, 100.0);
        let big = 2_000_000;
        assert!(fast.transfer_time(big, INIT_CWND) < slow.transfer_time(big, INIT_CWND));
    }

    #[test]
    fn cwnd_grows_with_bytes() {
        let l = LinkProfile::new(50.0, 100.0);
        let after_small = l.cwnd_after(10_000, INIT_CWND);
        let after_big = l.cwnd_after(5_000_000, INIT_CWND);
        assert!(after_big >= after_small);
        assert!(after_small >= INIT_CWND);
    }

    #[test]
    fn jitter_bounds() {
        let l = LinkProfile::new(20.0, 50.0).with_jitter(0.25);
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..200 {
            let s = l.jittered(l.rtt, &mut rng).as_millis_f64();
            assert!((15.0..=25.0).contains(&s), "s={s}");
        }
    }

    #[test]
    fn no_jitter_is_exact() {
        let l = LinkProfile::new(20.0, 50.0);
        let mut rng = SimRng::seed_from_u64(10);
        assert_eq!(l.jittered(l.rtt, &mut rng), SimDuration::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "rtt must be positive")]
    fn zero_rtt_panics() {
        LinkProfile::new(0.0, 1.0);
    }
}
