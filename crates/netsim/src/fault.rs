//! Fault injection.
//!
//! Two fault classes matter for the paper's deployment story:
//!
//! 1. Ordinary packet loss/corruption (kept for workload realism, in
//!    the spirit of smoltcp's `--drop-chance`/`--corrupt-chance`
//!    example options).
//! 2. The §6.7 incident: a non-compliant HTTP/2 middlebox (an
//!    antivirus network agent) that, instead of ignoring unknown frame
//!    types as RFC 7540 §4.1 requires, tears down the TLS connection
//!    when it sees an ORIGIN frame. [`Middlebox`] models any on-path
//!    device that inspects frame type codes.

use crate::hash::fnv1a64;
use crate::rng::SimRng;

/// Coerce a probability into \[0,1\]. `f64::clamp` propagates NaN, so a
/// NaN input would survive into `SimRng::chance` and poison every
/// comparison against it; treat NaN as "no fault".
fn sanitize_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// A named bundle of fault probabilities, parseable from the CLI
/// (`drop=0.01,h421=0.005,middlebox=0.1`). One profile drives an entire
/// crawl; each page visit derives its own fault RNG from the site seed,
/// so a fixed profile yields byte-identical results at any thread count
/// and the all-zero profile is indistinguishable from a clean run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProfile {
    /// Probability a response transfer loses a packet (retransmit + backoff).
    pub drop: f64,
    /// Probability a response transfer is corrupted in flight.
    pub corrupt: f64,
    /// Base probability that a coalesced request draws `421 Misdirected
    /// Request` (edge authority-list skew). Scaled per authority by
    /// [`FaultProfile::h421_for`].
    pub h421: f64,
    /// Probability a new connection's path crosses the §6.7
    /// non-compliant middlebox, which tears down TLS on seeing an
    /// ORIGIN frame.
    pub middlebox: f64,
}

impl FaultProfile {
    /// The all-zero profile: injects nothing.
    pub fn none() -> Self {
        FaultProfile::default()
    }

    /// Parse a comma-separated `key=value` spec, e.g.
    /// `drop=0.01,h421=0.005,middlebox=0.1`. Keys: `drop`, `corrupt`,
    /// `h421`, `middlebox`; omitted keys default to 0. Unknown keys and
    /// malformed values are errors; out-of-range values are sanitized
    /// into \[0,1\].
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut profile = FaultProfile::none();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let p: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("fault `{key}` has non-numeric value `{value}`"))?;
            let p = sanitize_probability(p);
            match key.trim() {
                "drop" => profile.drop = p,
                "corrupt" => profile.corrupt = p,
                "h421" => profile.h421 = p,
                "middlebox" => profile.middlebox = p,
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(profile)
    }

    /// Render in the same `key=value` form [`FaultProfile::parse`] accepts.
    pub fn spec(&self) -> String {
        format!(
            "drop={},corrupt={},h421={},middlebox={}",
            self.drop, self.corrupt, self.h421, self.middlebox
        )
    }

    /// Per-authority 421 rate. Authority-list skew at an edge is not
    /// uniform — a missing SAN hits every request for that name — so
    /// the base rate is scaled by a deterministic per-authority factor
    /// in [0.5, 1.5) derived from an FNV-1a hash of the name.
    pub fn h421_for(&self, authority: &str) -> f64 {
        if self.h421 == 0.0 {
            return 0.0;
        }
        let scale = 0.5 + (fnv1a64(authority.as_bytes()) % 1024) as f64 / 1024.0;
        sanitize_probability(self.h421 * scale)
    }

    /// Decide the fate of one packet under this profile's `drop` and
    /// `corrupt` rates (each sanitized into \[0,1\], so a literal
    /// profile with a NaN rate injects nothing). Draws one `chance` for
    /// the drop and, if the packet survived, one for the corruption.
    pub fn packet_fate(&self, rng: &mut SimRng) -> PacketFate {
        if rng.chance(sanitize_probability(self.drop)) {
            PacketFate::Dropped
        } else if rng.chance(sanitize_probability(self.corrupt)) {
            PacketFate::Corrupted
        } else {
            PacketFate::Delivered
        }
    }
}

/// Outcome of [`FaultProfile::packet_fate`] for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Delivered intact.
    Delivered,
    /// Silently dropped.
    Dropped,
    /// Delivered with corrupted payload.
    Corrupted,
}

/// Verdict from a middlebox observing an HTTP/2 frame on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiddleboxVerdict {
    /// Frame forwarded unchanged.
    Forward,
    /// Connection torn down — the §6.7 failure mode.
    TearDown,
}

/// An on-path device that observes HTTP/2 frame type codes.
///
/// Deliberately ignorant of frame payloads: real interception stacks
/// key off the one-byte type field, which is all the §6.7 bug needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Middlebox {
    /// A standards-compliant pass-through (RFC 7540 §4.1: unknown frame
    /// types must be ignored, so a middlebox simply forwards them).
    Compliant,
    /// The §6.7 bug: any frame type outside the RFC 7540 core set
    /// (0x00 DATA through 0x09 CONTINUATION) tears the connection down.
    /// ORIGIN (0x0c) and ALTSVC (0x0a) are both "unknown" to it.
    NonCompliant,
}

impl Middlebox {
    /// Inspect a frame type code (the raw `u8` on the wire) and decide
    /// what happens.
    pub fn inspect(self, frame_type: u8) -> MiddleboxVerdict {
        match self {
            Middlebox::NonCompliant if frame_type > 0x09 => MiddleboxVerdict::TearDown,
            _ => MiddleboxVerdict::Forward,
        }
    }

    /// Human-readable name for logs and incident reports.
    pub fn name(self) -> &'static str {
        match self {
            Middlebox::Compliant => "compliant",
            Middlebox::NonCompliant => "non-compliant antivirus agent",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultProfile {
        /// True when every probability is zero, i.e. the profile cannot
        /// perturb a crawl.
        fn is_zero(&self) -> bool {
            self.drop == 0.0 && self.corrupt == 0.0 && self.h421 == 0.0 && self.middlebox == 0.0
        }
    }

    const ORIGIN_FRAME_TYPE: u8 = 0x0c;
    const ALTSVC_FRAME_TYPE: u8 = 0x0a;
    const DATA_FRAME_TYPE: u8 = 0x00;

    /// The profile's rates as a literal (no `parse` sanitizing).
    fn rates(drop: f64, corrupt: f64) -> FaultProfile {
        FaultProfile {
            drop,
            corrupt,
            ..FaultProfile::none()
        }
    }

    #[test]
    fn no_faults_always_delivers() {
        let f = FaultProfile::none();
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(f.packet_fate(&mut rng), PacketFate::Delivered);
        }
    }

    #[test]
    fn full_drop_always_drops() {
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(rates(1.0, 0.0).packet_fate(&mut rng), PacketFate::Dropped);
    }

    #[test]
    fn out_of_range_rates_clamp() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(rates(7.0, -3.0).packet_fate(&mut rng), PacketFate::Dropped);
            assert_eq!(
                rates(-1.0, 5.0).packet_fate(&mut rng),
                PacketFate::Corrupted
            );
        }
    }

    #[test]
    fn drop_rate_close_to_p() {
        let f = rates(0.15, 0.0);
        let mut rng = SimRng::seed_from_u64(3);
        let drops = (0..10_000)
            .filter(|_| f.packet_fate(&mut rng) == PacketFate::Dropped)
            .count();
        assert!((1_300..1_700).contains(&drops), "drops={drops}");
    }

    #[test]
    fn nan_rates_inject_nothing_and_draw_nothing() {
        let f = rates(f64::NAN, f64::NAN);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(f.packet_fate(&mut rng), PacketFate::Delivered);
        }
        assert_eq!(rng.next_u64(), SimRng::seed_from_u64(4).next_u64());
    }

    #[test]
    fn profile_parse_full_spec() {
        let p = FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1").unwrap();
        assert_eq!(p.drop, 0.01);
        assert_eq!(p.corrupt, 0.0);
        assert_eq!(p.h421, 0.005);
        assert_eq!(p.middlebox, 0.1);
        assert!(!p.is_zero());
    }

    #[test]
    fn profile_parse_round_trips_through_spec() {
        let p = FaultProfile::parse("drop=0.25,corrupt=0.5,h421=1,middlebox=0").unwrap();
        assert_eq!(FaultProfile::parse(&p.spec()).unwrap(), p);
    }

    #[test]
    fn profile_parse_rejects_garbage() {
        assert!(FaultProfile::parse("drop").is_err());
        assert!(FaultProfile::parse("drop=abc").is_err());
        assert!(FaultProfile::parse("jitter=0.5").is_err());
    }

    #[test]
    fn profile_parse_sanitizes_range_and_nan() {
        let p = FaultProfile::parse("drop=7,corrupt=-1,h421=NaN").unwrap();
        assert_eq!(p.drop, 1.0);
        assert_eq!(p.corrupt, 0.0);
        assert_eq!(p.h421, 0.0);
    }

    #[test]
    fn zero_profile_is_zero_and_empty_spec_parses() {
        assert!(FaultProfile::none().is_zero());
        assert!(FaultProfile::parse("").unwrap().is_zero());
        assert!(FaultProfile::parse("drop=0,corrupt=0,h421=0,middlebox=0")
            .unwrap()
            .is_zero());
    }

    #[test]
    fn per_authority_rate_is_deterministic_and_scaled() {
        let p = FaultProfile::parse("h421=0.01").unwrap();
        let a = p.h421_for("img.example.com");
        assert_eq!(a, p.h421_for("img.example.com"));
        assert!((0.005..0.015).contains(&a), "rate {a} outside [0.5p, 1.5p)");
        // Different authorities should generally see different rates.
        assert_ne!(a, p.h421_for("cdn.example.net"));
        // Zero base rate stays zero, and full rate clamps at 1.
        assert_eq!(FaultProfile::none().h421_for("x"), 0.0);
        let full = FaultProfile::parse("h421=1").unwrap();
        for host in ["a", "bb", "ccc"] {
            assert!(full.h421_for(host) >= 0.5);
            assert!(full.h421_for(host) <= 1.0);
        }
    }

    #[test]
    fn parsed_profile_drives_packet_fate() {
        let p = FaultProfile::parse("drop=1").unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        assert_eq!(p.packet_fate(&mut rng), PacketFate::Dropped);
    }

    #[test]
    fn compliant_forwards_everything() {
        for ft in [DATA_FRAME_TYPE, ORIGIN_FRAME_TYPE, 0xff] {
            assert_eq!(Middlebox::Compliant.inspect(ft), MiddleboxVerdict::Forward);
        }
    }

    #[test]
    fn non_compliant_kills_origin_frames() {
        let m = Middlebox::NonCompliant;
        assert_eq!(m.inspect(DATA_FRAME_TYPE), MiddleboxVerdict::Forward);
        assert_eq!(m.inspect(0x09), MiddleboxVerdict::Forward);
        assert_eq!(m.inspect(ALTSVC_FRAME_TYPE), MiddleboxVerdict::TearDown);
        assert_eq!(m.inspect(ORIGIN_FRAME_TYPE), MiddleboxVerdict::TearDown);
    }

    #[test]
    fn middlebox_names() {
        assert_eq!(Middlebox::Compliant.name(), "compliant");
        assert!(Middlebox::NonCompliant.name().contains("non-compliant"));
    }
}
