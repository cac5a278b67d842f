//! RFC 8336 ORIGIN frame semantics.
//!
//! The ORIGIN frame lets a server name the set of origins the current
//! connection is authoritative for, so clients can coalesce requests
//! for those origins without per-hostname DNS queries or new TLS
//! connections. This module implements both sides:
//!
//! - **Server**: an [`OriginSet`] is configured from the deployment's
//!   coalescing policy (in the paper: the third-party domain added to
//!   the certificate) and serialized into a stream-0 ORIGIN frame
//!   right after SETTINGS.
//! - **Client**: [`ClientOriginState`] tracks the connection's origin
//!   set per RFC 8336 §2.3 — implicitly the connected origin until an
//!   ORIGIN frame arrives, then exactly the most recent frame's
//!   contents. The client must still check the server certificate
//!   covers the coalesced name; that check lives in `origin-tls` and
//!   is consulted by the browser model.

use crate::frame::Frame;
use std::fmt;

/// A parsed ASCII origin: scheme, host, and effective port.
///
/// RFC 8336 carries origins as ASCII serializations
/// (`https://example.com[:port]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OriginEntry {
    /// URI scheme; coalescing only ever applies to `https`.
    pub scheme: String,
    /// Lowercase hostname.
    pub host: String,
    /// Effective port (scheme default applied).
    pub port: u16,
}

impl OriginEntry {
    /// An `https` origin on the default port.
    pub fn https(host: &str) -> Self {
        OriginEntry {
            scheme: "https".to_string(),
            host: host.to_ascii_lowercase(),
            port: 443,
        }
    }

    /// Parse an ASCII origin serialization.
    ///
    /// Returns `None` for non-ASCII input, a missing scheme separator,
    /// an empty host, or an unparsable port — RFC 8336 §2.1 says
    /// unparsable entries must be ignored, so the caller skips `None`s
    /// rather than erroring the connection.
    pub fn parse(s: &str) -> Option<OriginEntry> {
        if !s.is_ascii() {
            return None;
        }
        let (scheme, rest) = s.split_once("://")?;
        if scheme.is_empty() || rest.is_empty() {
            return None;
        }
        let scheme = scheme.to_ascii_lowercase();
        let default_port = match scheme.as_str() {
            "https" => 443,
            "http" => 80,
            _ => 0,
        };
        let (host, port) = match rest.rsplit_once(':') {
            Some((h, p)) if !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()) => {
                (h, p.parse().ok()?)
            }
            _ => (rest, default_port),
        };
        if host.is_empty() || host.contains('/') {
            return None;
        }
        Some(OriginEntry {
            scheme,
            host: host.to_ascii_lowercase(),
            port,
        })
    }

    /// ASCII serialization, omitting the scheme-default port.
    pub fn ascii(&self) -> String {
        let default = match self.scheme.as_str() {
            "https" => 443,
            "http" => 80,
            _ => 0,
        };
        if self.port == default {
            format!("{}://{}", self.scheme, self.host)
        } else {
            format!("{}://{}:{}", self.scheme, self.host, self.port)
        }
    }
}

impl fmt::Display for OriginEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.ascii())
    }
}

/// A set of origins a connection is authoritative for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OriginSet {
    entries: Vec<OriginEntry>,
}

impl OriginSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from entries (deduplicated, order-preserving — wire order
    /// matters for reproducibility).
    pub fn from_entries<I: IntoIterator<Item = OriginEntry>>(entries: I) -> Self {
        let mut set = OriginSet::new();
        for e in entries {
            set.add(e);
        }
        set
    }

    /// Build an `https` origin set from hostnames.
    pub fn from_hosts<'a, I: IntoIterator<Item = &'a str>>(hosts: I) -> Self {
        Self::from_entries(hosts.into_iter().map(OriginEntry::https))
    }

    /// Add one entry (ignored if already present).
    pub fn add(&mut self, entry: OriginEntry) {
        if !self.entries.contains(&entry) {
            self.entries.push(entry);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in wire order.
    pub fn entries(&self) -> &[OriginEntry] {
        &self.entries
    }

    /// Membership check: scheme, host and effective port must all
    /// match (RFC 6454 origin comparison).
    pub fn allows(&self, origin: &OriginEntry) -> bool {
        self.entries.contains(origin)
    }

    /// Membership check for an https host on 443: what
    /// `allows(&OriginEntry::https(host))` answers, without building
    /// the entry (the pool asks once per candidate connection).
    pub fn allows_https_host(&self, host: &str) -> bool {
        let lowered = || host.bytes().map(|b| b.to_ascii_lowercase());
        self.entries
            .iter()
            .any(|e| e.port == 443 && e.scheme == "https" && e.host.bytes().eq(lowered()))
    }

    /// Serialize into an ORIGIN frame (stream 0).
    pub fn to_frame(&self) -> Frame {
        Frame::Origin {
            origins: self.entries.iter().map(|e| e.ascii()).collect(),
        }
    }

    /// Parse a received ORIGIN frame's entries, silently skipping
    /// unparsable ones per RFC 8336 §2.1.
    pub fn from_frame_entries(origins: &[String]) -> Self {
        Self::from_entries(origins.iter().filter_map(|s| OriginEntry::parse(s)))
    }
}

/// Client-side origin tracking for one connection (RFC 8336 §2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOriginState {
    /// No ORIGIN frame received: the origin set is implicitly the
    /// connected origin, and coalescing falls back to RFC 7540 §9.1.1
    /// certificate/IP rules.
    Implicit {
        /// The origin the connection was opened to.
        connected: OriginEntry,
    },
    /// An ORIGIN frame has been received: the set is exactly the most
    /// recent frame's contents.
    Explicit {
        /// The advertised origin set.
        set: OriginSet,
    },
}

impl ClientOriginState {
    /// Initial state for a connection to `host`.
    pub fn connect_https(host: &str) -> Self {
        ClientOriginState::Implicit {
            connected: OriginEntry::https(host),
        }
    }

    /// Handle a received ORIGIN frame: the origin set is replaced
    /// wholesale (not merged) by the frame contents.
    pub fn on_origin_frame(&mut self, origins: &[String]) {
        *self = ClientOriginState::Explicit {
            set: OriginSet::from_frame_entries(origins),
        };
    }

    /// Has an explicit origin set been received?
    pub fn is_explicit(&self) -> bool {
        matches!(self, ClientOriginState::Explicit { .. })
    }

    /// May this connection be used for `origin` *on the basis of the
    /// ORIGIN mechanism alone*? Certificate coverage must additionally
    /// be verified by the caller.
    ///
    /// - Implicit state: only the connected origin qualifies (other
    ///   coalescing paths — IP matching — are outside RFC 8336).
    /// - Explicit state: exactly the advertised set qualifies.
    pub fn allows(&self, origin: &OriginEntry) -> bool {
        match self {
            ClientOriginState::Implicit { connected } => connected == origin,
            ClientOriginState::Explicit { set } => set.allows(origin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let o = OriginEntry::parse("https://Example.COM").unwrap();
        assert_eq!(o.scheme, "https");
        assert_eq!(o.host, "example.com");
        assert_eq!(o.port, 443);
        assert_eq!(o.ascii(), "https://example.com");
    }

    #[test]
    fn parse_explicit_port() {
        let o = OriginEntry::parse("https://example.com:8443").unwrap();
        assert_eq!(o.port, 8443);
        assert_eq!(o.ascii(), "https://example.com:8443");
        // Default port collapses in serialization.
        assert_eq!(
            OriginEntry::parse("https://example.com:443")
                .unwrap()
                .ascii(),
            "https://example.com"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(OriginEntry::parse("example.com"), None);
        assert_eq!(OriginEntry::parse("https://"), None);
        assert_eq!(OriginEntry::parse("://host"), None);
        assert_eq!(OriginEntry::parse("https://host/path"), None);
        assert_eq!(OriginEntry::parse("https://h\u{00e9}.com"), None);
    }

    #[test]
    fn parse_http_default_port() {
        assert_eq!(OriginEntry::parse("http://example.com").unwrap().port, 80);
    }

    #[test]
    fn set_membership_requires_exact_triple() {
        let set = OriginSet::from_hosts(["a.com", "b.com"]);
        assert!(set.allows(&OriginEntry::https("a.com")));
        assert!(set.allows_https_host("b.com"));
        assert!(set.allows_https_host("B.Com"));
        assert!(!set.allows_https_host("c.com"));
        assert!(!set.allows_https_host("b.co"));
        let off_default = OriginSet::from_entries(OriginEntry::parse("https://a.com:8443"));
        assert!(!off_default.allows_https_host("a.com"));
        // Different port → different origin.
        assert!(!set.allows(&OriginEntry::parse("https://a.com:8443").unwrap()));
        // Different scheme → different origin.
        assert!(!set.allows(&OriginEntry::parse("http://a.com").unwrap()));
    }

    #[test]
    fn set_dedupes() {
        let set = OriginSet::from_hosts(["a.com", "a.com"]);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn frame_roundtrip() {
        let set = OriginSet::from_hosts(["example.com", "static.example.com"]);
        let frame = set.to_frame();
        let Frame::Origin { origins } = &frame else {
            panic!("not an ORIGIN frame")
        };
        let back = OriginSet::from_frame_entries(origins);
        assert_eq!(back, set);
    }

    #[test]
    fn unparsable_entries_skipped() {
        let set = OriginSet::from_frame_entries(&[
            "https://good.com".to_string(),
            "not an origin".to_string(),
            "https://also-good.com".to_string(),
        ]);
        assert_eq!(set.len(), 2);
        assert!(set.allows_https_host("good.com"));
        assert!(set.allows_https_host("also-good.com"));
    }

    #[test]
    fn client_state_implicit_allows_only_connected() {
        let st = ClientOriginState::connect_https("www.example.com");
        assert!(!st.is_explicit());
        assert!(st.allows(&OriginEntry::https("www.example.com")));
        assert!(!st.allows(&OriginEntry::https("static.example.com")));
    }

    #[test]
    fn origin_frame_replaces_set() {
        let mut st = ClientOriginState::connect_https("www.example.com");
        st.on_origin_frame(&[
            "https://www.example.com".to_string(),
            "https://static.example.com".to_string(),
        ]);
        assert!(st.is_explicit());
        assert!(st.allows(&OriginEntry::https("static.example.com")));
        // A second frame replaces wholesale — the first set is gone.
        st.on_origin_frame(&["https://only.example.com".to_string()]);
        assert!(!st.allows(&OriginEntry::https("static.example.com")));
        assert!(!st.allows(&OriginEntry::https("www.example.com")));
        assert!(st.allows(&OriginEntry::https("only.example.com")));
    }

    #[test]
    fn empty_origin_frame_empties_set() {
        let mut st = ClientOriginState::connect_https("www.example.com");
        st.on_origin_frame(&[]);
        assert!(st.is_explicit());
        // Even the connected origin is no longer advertised; the
        // client falls back to not coalescing anything new.
        assert!(!st.allows(&OriginEntry::https("www.example.com")));
    }
}
