//! Coalescing policies (§2.3 of the paper).

/// Which browser's connection-reuse algorithm to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrowserKind {
    /// Chromium ≈v88: IP-based coalescing with a *connected-set only*
    /// match — the subresource's DNS answer must contain the exact IP
    /// of an established connection, and the connection's certificate
    /// must cover the new name. Address-set transitivity is lost
    /// (§2.3's `{IPA,IPB}` example).
    Chromium,
    /// Firefox ≈v91: IP-based coalescing with transitivity — Firefox
    /// caches the full address set from each DNS answer, so any
    /// overlap between the new answer and a pooled connection's
    /// *available* set permits reuse (given certificate coverage).
    Firefox,
    /// Firefox ≈v96 with ORIGIN frame support: in addition to
    /// transitive IP matching, a connection whose advertised origin
    /// set contains the new name may be reused — though Firefox still
    /// performs the (render-blocking) DNS query first, the
    /// conservative behaviour §6.8 calls out.
    FirefoxOrigin,
    /// The §4 model's ideal IP coalescing: perfect knowledge of
    /// name→IP colocations; any two hostnames that share an address
    /// coalesce, and no duplicate connections ever open. Not a real
    /// browser — the model's upper bound.
    IdealIp,
    /// The §4 model's ideal ORIGIN coalescing: one connection per
    /// service (per origin AS), no DNS queries for coalesced names,
    /// perfect certificate SANs assumed. The model's best case.
    IdealOrigin,
}

impl BrowserKind {
    /// Does this policy honour ORIGIN frames?
    pub fn uses_origin_frame(self) -> bool {
        matches!(self, BrowserKind::FirefoxOrigin | BrowserKind::IdealOrigin)
    }

    /// Does the client still issue a DNS query for a name it will
    /// coalesce (Firefox's conservative ORIGIN handling, §6.8)?
    /// Ideal-model policies skip the query; every real browser makes
    /// it.
    pub fn dns_before_coalesce(self) -> bool {
        !matches!(self, BrowserKind::IdealIp | BrowserKind::IdealOrigin)
    }

    /// Does this policy model client race behaviour (happy-eyeballs
    /// duplicate connections, speculative DNS)? The ideal models
    /// don't — §4.2 calls the races out as the gap between measured
    /// DNS and TLS counts.
    pub fn models_races(self) -> bool {
        matches!(
            self,
            BrowserKind::Chromium | BrowserKind::Firefox | BrowserKind::FirefoxOrigin
        )
    }

    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BrowserKind::Chromium => "Chromium (IP, connected-set)",
            BrowserKind::Firefox => "Firefox (IP, transitive)",
            BrowserKind::FirefoxOrigin => "Firefox + ORIGIN",
            BrowserKind::IdealIp => "Ideal Modelled IP Coalescing",
            BrowserKind::IdealOrigin => "Ideal Modelled Origin Coalescing",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chromium_is_strict() {
        let k = BrowserKind::Chromium;
        assert!(!k.uses_origin_frame());
        assert!(k.dns_before_coalesce());
        assert!(k.models_races());
    }

    #[test]
    fn firefox_ignores_origin_frames() {
        assert!(!BrowserKind::Firefox.uses_origin_frame());
    }

    #[test]
    fn firefox_origin_still_queries_dns() {
        let k = BrowserKind::FirefoxOrigin;
        assert!(k.uses_origin_frame());
        assert!(
            k.dns_before_coalesce(),
            "§6.8: Firefox conservatively queries DNS"
        );
    }

    #[test]
    fn ideal_models_skip_dns_and_races() {
        for k in [BrowserKind::IdealIp, BrowserKind::IdealOrigin] {
            assert!(!k.dns_before_coalesce());
            assert!(!k.models_races());
        }
    }

    #[test]
    fn labels_match_figure3_legend() {
        assert_eq!(
            BrowserKind::IdealOrigin.label(),
            "Ideal Modelled Origin Coalescing"
        );
        assert_eq!(BrowserKind::IdealIp.label(), "Ideal Modelled IP Coalescing");
    }
}
