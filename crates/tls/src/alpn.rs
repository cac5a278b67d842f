//! ALPN (RFC 7301) protocol negotiation.
//!
//! The mixed-protocol universe decides *per connection* whether the
//! client speaks h2 or falls back to HTTP/1.1. Deployment intent
//! lives on the server side: a modern origin advertises
//! `h2, http/1.1`, a legacy origin only `http/1.1`. The client
//! always offers both. Negotiation follows RFC 7301 §3.2: the
//! **server's** preference order wins, and an empty intersection is
//! a fatal `no_application_protocol` alert (modelled as `None`).
//!
//! Everything here is pure computation — no RNG, no I/O — so running
//! negotiation on every simulated connection setup cannot perturb
//! deterministic outputs.

use std::fmt;

/// An application protocol name as carried in the ALPN extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlpnProtocol {
    /// `h2` — HTTP/2 over TLS (RFC 9113 §3.1).
    H2,
    /// `http/1.1` (RFC 9112).
    Http11,
}

impl AlpnProtocol {
    /// The protocol name from the IANA registry.
    pub fn name(self) -> &'static str {
        match self {
            AlpnProtocol::H2 => "h2",
            AlpnProtocol::Http11 => "http/1.1",
        }
    }
}

impl fmt::Display for AlpnProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What every simulated client offers, in client preference order.
pub const CLIENT_OFFER: &[AlpnProtocol] = &[AlpnProtocol::H2, AlpnProtocol::Http11];

/// What a modern (h2-capable) origin advertises, server preference
/// order: h2 first.
pub const MODERN_ADVERTISEMENT: &[AlpnProtocol] = &[AlpnProtocol::H2, AlpnProtocol::Http11];

/// What a legacy origin advertises: HTTP/1.1 only.
pub const LEGACY_ADVERTISEMENT: &[AlpnProtocol] = &[AlpnProtocol::Http11];

/// The advertisement for an origin that serves the given protocol to
/// this universe. `h2_capable` is the deployment fact (derived
/// deterministically from the universe seed via the site's legacy
/// flag and the per-host protocol sample).
pub fn server_advertisement(h2_capable: bool) -> &'static [AlpnProtocol] {
    if h2_capable {
        MODERN_ADVERTISEMENT
    } else {
        LEGACY_ADVERTISEMENT
    }
}

/// RFC 7301 §3.2 negotiation: the first protocol in the **server's**
/// advertisement that the client also offered. `None` models the
/// fatal `no_application_protocol` alert.
pub fn negotiate(
    client_offer: &[AlpnProtocol],
    server_advertisement: &[AlpnProtocol],
) -> Option<AlpnProtocol> {
    server_advertisement
        .iter()
        .copied()
        .find(|p| client_offer.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_preference_wins() {
        // Client prefers http/1.1, server prefers h2: h2 is chosen.
        let client = [AlpnProtocol::Http11, AlpnProtocol::H2];
        assert_eq!(
            negotiate(&client, MODERN_ADVERTISEMENT),
            Some(AlpnProtocol::H2)
        );
    }

    #[test]
    fn legacy_advertisement_forces_fallback() {
        assert_eq!(
            negotiate(CLIENT_OFFER, LEGACY_ADVERTISEMENT),
            Some(AlpnProtocol::Http11)
        );
    }

    #[test]
    fn default_universe_negotiates_h2() {
        assert_eq!(
            negotiate(CLIENT_OFFER, server_advertisement(true)),
            Some(AlpnProtocol::H2)
        );
        assert_eq!(
            negotiate(CLIENT_OFFER, server_advertisement(false)),
            Some(AlpnProtocol::Http11)
        );
    }

    #[test]
    fn empty_intersection_is_fatal() {
        let h2_only_client = [AlpnProtocol::H2];
        assert_eq!(negotiate(&h2_only_client, LEGACY_ADVERTISEMENT), None);
        assert_eq!(negotiate(&[], MODERN_ADVERTISEMENT), None);
    }

    #[test]
    fn names_match_the_iana_registry() {
        assert_eq!(AlpnProtocol::H2.name(), "h2");
        assert_eq!(AlpnProtocol::Http11.name(), "http/1.1");
        assert_eq!(AlpnProtocol::Http11.to_string(), "http/1.1");
    }
}
