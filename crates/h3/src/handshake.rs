//! The QUIC handshake: how one completed ([`HandshakeMode`]) and the
//! cost model that turns that into blocking time on a
//! [`LinkProfile`].
//!
//! QUIC folds transport and TLS establishment into one exchange
//! (RFC 9000/9001): a full handshake costs a single round trip where
//! TCP+TLS 1.3 costs two, and a resumed handshake can carry the first
//! request in the client's first flight (0-RTT). A server rejecting
//! early data falls the connection back to a full 1-RTT handshake
//! rather than failing it.
//!
//! The cost model also carries the anti-amplification interaction
//! (Nawrocki et al.): before the client's address is validated, a
//! server may send at most [`AMPLIFICATION_FACTOR`]× the bytes it
//! received (RFC 9000 §8.1). A certificate chain that overflows that
//! budget stalls the handshake for one extra round trip — unless the
//! client presented an address-validation token from a previous
//! connection to the same address (shared address validation,
//! Sy et al.).

use origin_netsim::{LinkProfile, SimDuration, SimRng};

/// How an established QUIC connection's handshake completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeMode {
    /// Full handshake: one round trip before the first request.
    OneRtt,
    /// Accepted 0-RTT resumption: the first request rode the client's
    /// first flight.
    ZeroRtt,
    /// The server rejected the early data; the handshake completed as
    /// a full 1-RTT exchange and the 0-RTT request was replayed.
    ZeroRttRejected,
}

impl HandshakeMode {
    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            HandshakeMode::OneRtt => "1-rtt",
            HandshakeMode::ZeroRtt => "0-rtt",
            HandshakeMode::ZeroRttRejected => "0-rtt-rejected",
        }
    }
}

/// Bytes of the client's padded first datagram (RFC 9000 §14.1 makes
/// Initial packets at least 1200 bytes precisely to widen the server's
/// amplification budget).
pub const CLIENT_INITIAL_BYTES: u64 = 1_200;

/// Pre-validation send allowance multiplier (RFC 9000 §8.1).
pub const AMPLIFICATION_FACTOR: u64 = 3;

/// Server handshake bytes that accompany the certificate chain
/// (ServerHello, EncryptedExtensions, CertificateVerify, Finished).
pub const HANDSHAKE_OVERHEAD_BYTES: u64 = 900;

/// Cost shape of one QUIC handshake over a given certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuicCostModel {
    /// Extra round trips the anti-amplification limit forces before
    /// the server can finish its first flight (0 when the address is
    /// already validated, or the chain fits the budget).
    pub amplification_rtts: u32,
}

impl QuicCostModel {
    /// Model for a server whose certificate chain is `cert_bytes` on
    /// the wire. With `address_validated` (a token from a previous
    /// connection to this address), the amplification limit does not
    /// apply.
    pub fn for_certificate(cert_bytes: u64, address_validated: bool) -> Self {
        let first_flight = cert_bytes + HANDSHAKE_OVERHEAD_BYTES;
        let budget = AMPLIFICATION_FACTOR * CLIENT_INITIAL_BYTES;
        QuicCostModel {
            amplification_rtts: u32::from(!address_validated && first_flight > budget),
        }
    }

    /// Round trips a completed handshake blocked for. A full handshake
    /// costs one RTT (transport and TLS share the exchange — no TCP
    /// round trip precedes it); accepted 0-RTT costs none; a rejected
    /// 0-RTT completes as a full handshake. The amplification stall
    /// applies to the full-handshake shapes only — an accepted 0-RTT
    /// ticket carries the server's address-validation token.
    pub fn round_trips(&self, mode: HandshakeMode) -> f64 {
        match mode {
            HandshakeMode::ZeroRtt => 0.0,
            HandshakeMode::OneRtt | HandshakeMode::ZeroRttRejected => {
                1.0 + f64::from(self.amplification_rtts)
            }
        }
    }

    /// Blocking handshake time over `link`, jittered like every other
    /// handshake in the simulation.
    pub fn handshake_cost(
        &self,
        mode: HandshakeMode,
        link: &LinkProfile,
        rng: &mut SimRng,
    ) -> SimDuration {
        let rtts = self.round_trips(mode);
        if rtts == 0.0 {
            return SimDuration::ZERO;
        }
        let base = SimDuration::from_millis_f64(link.rtt.as_millis_f64() * rtts);
        link.jittered(base, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_threshold() {
        // Small chain fits 3 × 1200 even with overhead.
        assert_eq!(
            QuicCostModel::for_certificate(1_500, false).amplification_rtts,
            0
        );
        // A bloated chain overflows the pre-validation budget…
        assert_eq!(
            QuicCostModel::for_certificate(6_000, false).amplification_rtts,
            1
        );
        // …unless the address is already validated.
        assert_eq!(
            QuicCostModel::for_certificate(6_000, true).amplification_rtts,
            0
        );
    }

    #[test]
    fn zero_rtt_is_free_and_rejection_is_not() {
        let m = QuicCostModel::for_certificate(6_000, false);
        assert_eq!(m.round_trips(HandshakeMode::ZeroRtt), 0.0);
        assert_eq!(m.round_trips(HandshakeMode::OneRtt), 2.0);
        assert_eq!(m.round_trips(HandshakeMode::ZeroRttRejected), 2.0);
    }
}
