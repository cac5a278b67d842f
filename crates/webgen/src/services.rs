//! The third-party service catalog.
//!
//! Table 7 lists the most-requested subresource hostnames; Table 9
//! groups the ones each big provider could add to its customers'
//! certificates. The named entries below reproduce those hostnames
//! with popularity weights proportional to the paper's request
//! shares; a generated tail of smaller services (analytics, ad
//! exchanges, widget CDNs) fills out the remaining AS diversity.

use origin_web::{ContentType, FetchMode};

/// A third-party service: one hostname, hosted at one provider.
#[derive(Debug, Clone, Copy)]
pub struct ServiceDef {
    /// Hostname.
    pub host: &'static str,
    /// Index into [`crate::universe::PROVIDERS`].
    pub provider: usize,
    /// Dominant content type served.
    pub content: ContentType,
    /// Popularity weight (∝ Table 7 request shares ×100).
    pub weight: u32,
    /// Default fetch mode for this service's resources.
    pub fetch: FetchMode,
}

/// Named services matching Tables 7 and 9.
///
/// Provider indices: 0 Google, 1 Cloudflare, 2 Amazon-02, 3 Amazon
/// AES, 4 Fastly, 5 Akamai, 6 Facebook, 7 Akamai Intl, 8 OVH,
/// 9 Hetzner.
pub const SERVICES: [ServiceDef; 24] = [
    // Table 7 top-10.
    ServiceDef {
        host: "fonts.gstatic.com",
        provider: 0,
        content: ContentType::Woff2,
        weight: 223,
        fetch: FetchMode::CorsAnonymous,
    },
    ServiceDef {
        host: "www.google-analytics.com",
        provider: 0,
        content: ContentType::TextJavascript,
        weight: 167,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "www.facebook.com",
        provider: 6,
        content: ContentType::Javascript,
        weight: 158,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "www.google.com",
        provider: 0,
        content: ContentType::Html,
        weight: 152,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "tpc.googlesyndication.com",
        provider: 0,
        content: ContentType::Html,
        weight: 121,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "cm.g.doubleclick.net",
        provider: 0,
        content: ContentType::Gif,
        weight: 118,
        fetch: FetchMode::XhrFetch,
    },
    ServiceDef {
        host: "googleads.g.doubleclick.net",
        provider: 0,
        content: ContentType::TextJavascript,
        weight: 115,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "pagead2.googlesyndication.com",
        provider: 0,
        content: ContentType::TextJavascript,
        weight: 112,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "fonts.googleapis.com",
        provider: 0,
        content: ContentType::Css,
        weight: 97,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "cdn.shopify.com",
        provider: 1,
        content: ContentType::Jpeg,
        weight: 87,
        fetch: FetchMode::Normal,
    },
    // Table 9 provider-grouped services.
    ServiceDef {
        host: "cdnjs.cloudflare.com",
        provider: 1,
        content: ContentType::Javascript,
        weight: 80,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "ajax.cloudflare.com",
        provider: 1,
        content: ContentType::Javascript,
        weight: 55,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "cdn.jsdelivr.net",
        provider: 1,
        content: ContentType::Javascript,
        weight: 43,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "sni.cloudflaressl.com",
        provider: 1,
        content: ContentType::Other,
        weight: 38,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "d1.cloudfront.net",
        provider: 2,
        content: ContentType::Jpeg,
        weight: 50,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "d2.cloudfront.net",
        provider: 2,
        content: ContentType::Javascript,
        weight: 35,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "static.hotjar.com",
        provider: 2,
        content: ContentType::Javascript,
        weight: 37,
        fetch: FetchMode::XhrFetch,
    },
    ServiceDef {
        host: "assets.s3.amazonaws.com",
        provider: 2,
        content: ContentType::Png,
        weight: 30,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "www.googletagmanager.com",
        provider: 0,
        content: ContentType::TextJavascript,
        weight: 83,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "connect.facebook.net",
        provider: 6,
        content: ContentType::Javascript,
        weight: 48,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "static.fastly.net",
        provider: 4,
        content: ContentType::Css,
        weight: 36,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "assets.akamaized.net",
        provider: 5,
        content: ContentType::Webp,
        weight: 33,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "media.akamai.net",
        provider: 7,
        content: ContentType::Jpeg,
        weight: 20,
        fetch: FetchMode::Normal,
    },
    ServiceDef {
        host: "pixel.ovh.net",
        provider: 8,
        content: ContentType::Gif,
        weight: 12,
        fetch: FetchMode::XhrFetch,
    },
];

/// Number of generated tail services (small analytics/widget/ad
/// hosts, each in its own tail AS).
pub const TAIL_SERVICE_COUNT: u16 = 360;

/// Hostname of tail service `i`.
pub fn tail_service_host(i: u16) -> String {
    format!("tag{i}.widget-net-{}.net", i % 97)
}

/// Popularity weight of tail service `i` (Zipf-flavored decay).
pub fn tail_service_weight(i: u16) -> u32 {
    (40.0 / (1.0 + i as f64 * 0.12)).ceil() as u32
}

/// Content type of tail service `i`.
pub fn tail_service_content(i: u16) -> ContentType {
    match i % 7 {
        0 | 1 => ContentType::Javascript,
        2 => ContentType::Gif,
        3 => ContentType::Json,
        4 => ContentType::Png,
        5 => ContentType::Jpeg,
        _ => ContentType::Plain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_hosts_present_in_order() {
        assert_eq!(SERVICES[0].host, "fonts.gstatic.com");
        assert_eq!(SERVICES[9].host, "cdn.shopify.com");
        // Weights decay through the Table 7 block.
        for w in SERVICES[..10].windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
    }

    #[test]
    fn fonts_are_cors_anonymous() {
        let fonts = SERVICES
            .iter()
            .find(|s| s.host == "fonts.gstatic.com")
            .unwrap();
        assert_eq!(fonts.fetch, FetchMode::CorsAnonymous);
        assert_eq!(fonts.content, ContentType::Woff2);
    }

    #[test]
    fn provider_indices_in_range() {
        for s in SERVICES.iter() {
            assert!(s.provider < 10, "{} provider {}", s.host, s.provider);
        }
    }

    #[test]
    fn tail_services_valid() {
        for i in [0, 1, 100, TAIL_SERVICE_COUNT - 1] {
            let h = tail_service_host(i);
            assert!(origin_dns::DnsName::parse(&h).is_ok(), "{h}");
            assert!(tail_service_weight(i) >= 1);
        }
        // Weight decays.
        assert!(tail_service_weight(0) > tail_service_weight(200));
    }
}
