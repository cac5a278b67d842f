//! Alt-Svc advertisement (RFC 7838): how an h2 origin tells a client
//! that HTTP/3 is available.
//!
//! In the wild, h3 discovery is bootstrap-limited: the first
//! connection to an origin is TCP+TLS, and only its response headers
//! (`alt-svc: h3=":443"; ma=86400`) unlock QUIC for subsequent
//! connections. The model keeps that shape — a visit's first
//! connection per certificate scope always pays the h2 path, then the
//! learned advertisement upgrades later connections in the same scope
//! — because it is exactly the asymmetry that makes coalescing-like
//! treatments (resumption, shared address validation) matter under h3.
//! The model learns the advertisement as a fact of the connection's
//! certificate scope, so no header value is ever rendered or parsed.

use std::collections::HashSet;

/// The client's per-visit memory of which certificate scopes have
/// advertised h3. Scope keys are certificate serials: an advertisement
/// learned from any host behind a certificate upgrades every host the
/// certificate covers, mirroring how the pool coalesces.
#[derive(Debug, Clone, Default)]
pub struct AltSvcCache {
    scopes: HashSet<u64>,
    learned: u64,
}

impl AltSvcCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an h3 advertisement for the certificate scope. Returns
    /// true when the scope was newly learned.
    pub fn learn(&mut self, cert_serial: u64) -> bool {
        let fresh = self.scopes.insert(cert_serial);
        if fresh {
            self.learned += 1;
        }
        fresh
    }

    /// Has this certificate scope advertised h3?
    pub fn knows(&self, cert_serial: u64) -> bool {
        self.scopes.contains(&cert_serial)
    }

    /// Distinct scopes learned over the cache's lifetime.
    pub fn learned(&self) -> u64 {
        self.learned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_is_scope_keyed() {
        let mut cache = AltSvcCache::new();
        assert!(!cache.knows(7));
        assert!(cache.learn(7));
        assert!(!cache.learn(7));
        assert!(cache.knows(7));
        assert!(!cache.knows(8));
        assert_eq!(cache.learned(), 1);
    }
}
