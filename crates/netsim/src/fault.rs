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

/// Probabilistic packet-level fault injection.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Probability a packet is silently dropped.
    pub drop_chance: f64,
    /// Probability a delivered packet is corrupted.
    pub corrupt_chance: f64,
}

impl FaultInjector {
    /// No faults.
    pub fn none() -> Self {
        FaultInjector {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
        }
    }

    /// Construct with the given probabilities (each sanitized to \[0,1\]).
    pub fn new(drop_chance: f64, corrupt_chance: f64) -> Self {
        FaultInjector {
            drop_chance: sanitize_probability(drop_chance),
            corrupt_chance: sanitize_probability(corrupt_chance),
        }
    }

    /// Decide the fate of one packet.
    pub fn apply(&self, rng: &mut SimRng) -> PacketFate {
        if rng.chance(self.drop_chance) {
            PacketFate::Dropped
        } else if rng.chance(self.corrupt_chance) {
            PacketFate::Corrupted
        } else {
            PacketFate::Delivered
        }
    }
}

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

    /// True when every probability is zero, i.e. the profile cannot
    /// perturb a crawl.
    pub fn is_zero(&self) -> bool {
        self.drop == 0.0 && self.corrupt == 0.0 && self.h421 == 0.0 && self.middlebox == 0.0
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

    /// Packet-level injector for this profile's drop/corrupt rates.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector::new(self.drop, self.corrupt)
    }
}

/// Outcome of passing one packet through a [`FaultInjector`].
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
    /// Frame silently discarded (connection survives).
    DropFrame,
    /// Connection torn down — the §6.7 failure mode.
    TearDown,
}

/// An on-path device that observes HTTP/2 frame type codes.
///
/// Implementations are deliberately ignorant of frame payloads: real
/// interception stacks key off the one-byte type field, which is all
/// the §6.7 bug needed.
pub trait Middlebox {
    /// Inspect a frame type code (the raw `u8` on the wire) and decide
    /// what happens.
    fn inspect(&self, frame_type: u8) -> MiddleboxVerdict;

    /// Human-readable name for logs and incident reports.
    fn name(&self) -> &str;
}

/// A standards-compliant pass-through (RFC 7540 §4.1: implementations
/// must ignore and discard unknown frame types — middleboxes should
/// simply forward them).
#[derive(Debug, Clone, Default)]
pub struct CompliantMiddlebox;

impl Middlebox for CompliantMiddlebox {
    fn inspect(&self, _frame_type: u8) -> MiddleboxVerdict {
        MiddleboxVerdict::Forward
    }
    fn name(&self) -> &str {
        "compliant"
    }
}

/// The §6.7 bug: any frame type outside the RFC 7540 core set tears
/// the connection down. ORIGIN (0x0c) and ALTSVC (0x0a) are both
/// "unknown" to such a stack.
#[derive(Debug, Clone)]
pub struct NonCompliantMiddlebox {
    /// Highest frame type code the stack recognizes. RFC 7540 defines
    /// 0x00 (DATA) through 0x09 (CONTINUATION).
    pub max_known_type: u8,
}

impl Default for NonCompliantMiddlebox {
    fn default() -> Self {
        // Knows only the RFC 7540 core frames.
        NonCompliantMiddlebox {
            max_known_type: 0x09,
        }
    }
}

impl Middlebox for NonCompliantMiddlebox {
    fn inspect(&self, frame_type: u8) -> MiddleboxVerdict {
        if frame_type <= self.max_known_type {
            MiddleboxVerdict::Forward
        } else {
            MiddleboxVerdict::TearDown
        }
    }
    fn name(&self) -> &str {
        "non-compliant antivirus agent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORIGIN_FRAME_TYPE: u8 = 0x0c;
    const ALTSVC_FRAME_TYPE: u8 = 0x0a;
    const DATA_FRAME_TYPE: u8 = 0x00;

    #[test]
    fn no_faults_always_delivers() {
        let f = FaultInjector::none();
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(f.apply(&mut rng), PacketFate::Delivered);
        }
    }

    #[test]
    fn full_drop_always_drops() {
        let f = FaultInjector::new(1.0, 0.0);
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(f.apply(&mut rng), PacketFate::Dropped);
    }

    #[test]
    fn probabilities_clamped() {
        let f = FaultInjector::new(7.0, -3.0);
        assert_eq!(f.drop_chance, 1.0);
        assert_eq!(f.corrupt_chance, 0.0);
    }

    #[test]
    fn drop_rate_close_to_p() {
        let f = FaultInjector::new(0.15, 0.0);
        let mut rng = SimRng::seed_from_u64(3);
        let drops = (0..10_000)
            .filter(|_| f.apply(&mut rng) == PacketFate::Dropped)
            .count();
        assert!((1_300..1_700).contains(&drops), "drops={drops}");
    }

    #[test]
    fn nan_probability_sanitized_to_zero() {
        let f = FaultInjector::new(f64::NAN, f64::NAN);
        assert_eq!(f.drop_chance, 0.0);
        assert_eq!(f.corrupt_chance, 0.0);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(f.apply(&mut rng), PacketFate::Delivered);
        }
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
    fn profile_injector_carries_drop_and_corrupt() {
        let p = FaultProfile::parse("drop=1").unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        assert_eq!(p.injector().apply(&mut rng), PacketFate::Dropped);
    }

    #[test]
    fn compliant_forwards_everything() {
        let m = CompliantMiddlebox;
        assert_eq!(m.inspect(DATA_FRAME_TYPE), MiddleboxVerdict::Forward);
        assert_eq!(m.inspect(ORIGIN_FRAME_TYPE), MiddleboxVerdict::Forward);
        assert_eq!(m.inspect(0xff), MiddleboxVerdict::Forward);
    }

    #[test]
    fn non_compliant_kills_origin_frames() {
        let m = NonCompliantMiddlebox::default();
        assert_eq!(m.inspect(DATA_FRAME_TYPE), MiddleboxVerdict::Forward);
        assert_eq!(m.inspect(0x09), MiddleboxVerdict::Forward);
        assert_eq!(m.inspect(ALTSVC_FRAME_TYPE), MiddleboxVerdict::TearDown);
        assert_eq!(m.inspect(ORIGIN_FRAME_TYPE), MiddleboxVerdict::TearDown);
    }

    #[test]
    fn middlebox_names() {
        assert_eq!(CompliantMiddlebox.name(), "compliant");
        assert!(NonCompliantMiddlebox::default()
            .name()
            .contains("non-compliant"));
    }
}
