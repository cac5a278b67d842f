//! The provider/AS topology and per-host network state.

use crate::services::SERVICES;
use origin_dns::record::{RecordSet, Rotation};
use origin_dns::{DnsName, ZoneSet};
use origin_netsim::hash::{FxHashMap, FxHashSet};
use origin_netsim::SimRng;
use origin_tls::{Certificate, CertificateAuthority, CtLogSet, KnownIssuer};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// A hosting/CDN provider in the synthetic topology.
#[derive(Debug, Clone, Copy)]
pub struct ProviderDef {
    /// Organization name (Table 2 vocabulary).
    pub org: &'static str,
    /// Autonomous system number.
    pub asn: u32,
    /// First octet of the provider's synthetic /8 (for IP→AS
    /// attribution).
    pub net: u8,
    /// Default certificate issuer for sites hosted here.
    pub issuer: KnownIssuer,
    /// Fraction of sites hosted by this provider (Table 9: Cloudflare
    /// 24.74%, Amazon 7.75%, Google 5.09%, …). Zero for pure
    /// third-party-only ASes like Facebook.
    pub hosting_share: f64,
}

/// The top-10 destination ASes of Table 2 (plus their Table 9 hosting
/// shares). Tail ASes are generated on top of these.
pub const PROVIDERS: [ProviderDef; 10] = [
    ProviderDef {
        org: "Google",
        asn: 15169,
        net: 8,
        issuer: KnownIssuer::GoogleTrustServices,
        hosting_share: 0.0509,
    },
    ProviderDef {
        org: "Cloudflare",
        asn: 13335,
        net: 104,
        issuer: KnownIssuer::CloudflareEcc,
        hosting_share: 0.2474,
    },
    ProviderDef {
        org: "Amazon 02",
        asn: 16509,
        net: 52,
        issuer: KnownIssuer::Amazon,
        hosting_share: 0.0775,
    },
    ProviderDef {
        org: "Amazon AES",
        asn: 14618,
        net: 54,
        issuer: KnownIssuer::Amazon,
        hosting_share: 0.022,
    },
    ProviderDef {
        org: "Fastly",
        asn: 54113,
        net: 151,
        issuer: KnownIssuer::DigiCertHighAssurance,
        hosting_share: 0.030,
    },
    ProviderDef {
        org: "Akamai AS",
        asn: 16625,
        net: 23,
        issuer: KnownIssuer::DigiCertSecureServer,
        hosting_share: 0.024,
    },
    ProviderDef {
        org: "Facebook",
        asn: 32934,
        net: 157,
        issuer: KnownIssuer::DigiCertHighAssurance,
        hosting_share: 0.0,
    },
    ProviderDef {
        org: "Akamai Intl. B.V.",
        asn: 20940,
        net: 92,
        issuer: KnownIssuer::DigiCertSecureServer,
        hosting_share: 0.012,
    },
    ProviderDef {
        org: "OVH SAS",
        asn: 16276,
        net: 141,
        issuer: KnownIssuer::LetsEncrypt,
        hosting_share: 0.028,
    },
    ProviderDef {
        org: "Hetzner Online GmbH",
        asn: 24940,
        net: 88,
        issuer: KnownIssuer::LetsEncrypt,
        hosting_share: 0.024,
    },
];

/// Number of synthetic tail ASes (small hosts, regional ISPs,
/// universities) beyond the named providers. The paper observed
/// 13,316 distinct ASes; the tail here is scaled down but preserves
/// the concentration shape (top-10 ≈ 64% of requests).
pub const TAIL_AS_COUNT: u32 = 400;

/// ASN assigned to tail AS index `i`.
pub fn tail_asn(i: u32) -> u32 {
    60_000 + i
}

/// The shared network state of the synthetic web: DNS zones, server
/// certificates and IP→AS attribution.
pub struct Universe {
    /// Authoritative DNS for everything.
    pub zones: ZoneSet,
    // Hot read-side tables with the deterministic Fx hasher; none is
    // ever iterated, so the hasher cannot change any output. The
    // certificate table is a set keyed by each certificate's own
    // subject, so the name is stored once, and the fallback walk
    // probes it with borrowed `&str`s. No map holds a host's AS:
    // every address is allocated with its host's AS, so the AS is read
    // off the host's registered addresses, which key by `Ipv4Addr`
    // because the generator allocates no other kind.
    // Certificates are Arc-shared: the browser pool keeps a reference
    // on every pooled connection, so handing out a refcount bump
    // instead of a deep clone (SAN list + issuer string) is the
    // difference between one allocation per issuance and one per
    // connection.
    certs: FxHashSet<BySubject>,
    ip_asn: FxHashMap<Ipv4Addr, u32>,
    cas: HashMap<KnownIssuer, CertificateAuthority>,
    /// Shared front-end (anycast/VIP) address pools per provider AS.
    /// Big CDNs terminate many hostnames on few addresses — the
    /// phenomenon that makes IP-based coalescing possible at all and
    /// that §5.2's single-address alignment exploits deliberately.
    vip_pools: FxHashMap<u32, Vec<IpAddr>>,
    /// CT logs receiving all issuance.
    pub ct_logs: CtLogSet,
}

impl Universe {
    /// An empty universe with the service catalog's hosts registered.
    pub fn new(rng: &mut SimRng) -> Self {
        let mut u = Universe {
            zones: ZoneSet::new(),
            certs: FxHashSet::default(),
            ip_asn: FxHashMap::default(),
            cas: HashMap::new(),
            vip_pools: FxHashMap::default(),
            ct_logs: CtLogSet::default_operators(),
        };
        u.register_services(rng);
        u
    }

    /// Allocate an IP inside a provider's /8 and record its AS.
    pub fn alloc_ip(&mut self, net: u8, asn: u32, rng: &mut SimRng) -> IpAddr {
        loop {
            let ip = Ipv4Addr::new(
                net,
                rng.range_u64(0, 256) as u8,
                rng.range_u64(0, 256) as u8,
                rng.range_u64(1, 255) as u8,
            );
            if let std::collections::hash_map::Entry::Vacant(e) = self.ip_asn.entry(ip) {
                e.insert(asn);
                return IpAddr::V4(ip);
            }
        }
    }

    /// Number of shared front-end addresses per provider pool.
    pub const VIP_POOL_SIZE: usize = 24;

    /// Draw an address from a provider's shared front-end pool
    /// (created on first use). Distinct hostnames on the same provider
    /// frequently land on the same VIP.
    pub fn provider_vip(&mut self, net: u8, asn: u32, rng: &mut SimRng) -> IpAddr {
        if !self.vip_pools.contains_key(&asn) {
            let pool: Vec<IpAddr> = (0..Self::VIP_POOL_SIZE)
                .map(|_| self.alloc_ip(net, asn, rng))
                .collect();
            self.vip_pools.insert(asn, pool);
        }
        *rng.choose(&self.vip_pools[&asn])
    }

    /// The origin AS of an address (0 if unknown, as every IPv6 one is:
    /// the generator allocates none).
    pub fn asn_of_ip(&self, ip: &IpAddr) -> u32 {
        match ip {
            IpAddr::V4(v4) => self.ip_asn.get(v4).copied().unwrap_or(0),
            IpAddr::V6(_) => 0,
        }
    }

    /// The AS serving a hostname (0 if unregistered): that of its first
    /// registered address, since a host registers addresses of one AS.
    pub fn asn_of_host(&self, host: &DnsName) -> u32 {
        let first = self.zones.registered(host).and_then(|addrs| addrs.first());
        first.map_or(0, |ip| self.asn_of_ip(ip))
    }

    /// The certificate a server presents for connections to `host`.
    /// Falls back through parent domains so sharded subdomains find
    /// their site certificate. The walk borrows successive suffixes
    /// of the name — no per-level allocation.
    pub fn cert_for(&self, host: &DnsName) -> Option<&Certificate> {
        self.cert_shared_ref(host).map(|a| a.as_ref())
    }

    /// [`Universe::cert_for`] returning the shared handle — a clone is
    /// a refcount bump, not a certificate copy.
    pub fn cert_shared(&self, host: &DnsName) -> Option<Arc<Certificate>> {
        self.cert_shared_ref(host).cloned()
    }

    fn cert_shared_ref(&self, host: &DnsName) -> Option<&Arc<Certificate>> {
        let mut cursor = host.as_str();
        loop {
            if let Some(c) = self.certs.get(cursor) {
                return Some(&c.0);
            }
            match cursor.split_once('.') {
                Some((_, rest)) => cursor = rest,
                None => return None,
            }
        }
    }

    /// Present `cert` for connections to its subject, replacing any
    /// certificate presented there before (the §5 reissue path).
    pub fn set_cert(&mut self, cert: Certificate) {
        self.certs.replace(BySubject(Arc::new(cert)));
    }

    /// Register a host's DNS records. Hosts on the same addresses pass
    /// clones of one set. The host's AS is its addresses' own, so all of
    /// them must have been allocated with one AS.
    pub fn register_host(&mut self, host: DnsName, addresses: Arc<[IpAddr]>, rotation: Rotation) {
        debug_assert!(
            addresses.iter().all(|ip| {
                let asn = self.asn_of_ip(ip);
                asn != 0 && asn == self.asn_of_ip(&addresses[0])
            }),
            "{host}: addresses of no AS, or of more than one"
        );
        let rs = RecordSet::new(addresses, 300).with_rotation(rotation);
        self.zones.insert(host, rs);
    }

    /// Reserve the zone, certificate and address tables for a world of
    /// `sites` ranks, so generation does not rehash them as they grow.
    /// Worlds of 2,000–80,000 ranks register about 1.45 hosts, 0.64
    /// certificates and 1.24 addresses a rank, beyond the catalogue's
    /// ~384 hosts and certificates and ~800 addresses.
    pub fn reserve_sites(&mut self, sites: u32) {
        let sites = sites as usize;
        let total = |per_site: f64, fixed: usize| (per_site * sites as f64) as usize + fixed;
        self.zones
            .reserve(total(1.45, 384).saturating_sub(self.zones.len()));
        self.certs
            .reserve(total(0.64, 384).saturating_sub(self.certs.len()));
        self.ip_asn
            .reserve(total(1.24, 800).saturating_sub(self.ip_asn.len()));
    }

    /// Issue a certificate from a provider's CA, logging to CT, with
    /// `filler` counted filler names after the SANs (see
    /// [`Certificate::filler`]).
    pub fn issue_cert(
        &mut self,
        issuer: KnownIssuer,
        subject: DnsName,
        extra_sans: &[DnsName],
        filler: u16,
    ) -> Certificate {
        let ca = self
            .cas
            .entry(issuer)
            .or_insert_with(|| CertificateAuthority::new(issuer));
        ca.issue_with_filler(subject, extra_sans, filler, 0, &mut self.ct_logs)
            .expect("generator stays within SAN limits")
    }

    /// Total certificates issued across all CAs.
    pub fn certs_issued(&self) -> u64 {
        self.cas.values().map(|ca| ca.issued_count()).sum()
    }

    /// Register the fixed third-party service catalog: every service
    /// hostname gets 2–4 addresses in its provider's space, wildcard
    /// DNS coverage, and a provider-issued certificate (services are
    /// professionally operated; their own certs are in order).
    fn register_services(&mut self, rng: &mut SimRng) {
        // Group service hosts by their certificate parent so services
        // sharing a cert (e.g. *.googlesyndication.com) get one.
        for svc in SERVICES.iter() {
            let provider = &PROVIDERS[svc.provider];
            let host = origin_dns::name::name(svc.host);
            let n_addrs = 2 + (rng.range_u64(0, 3) as usize);
            let addrs = (0..n_addrs)
                .map(|_| self.provider_vip(provider.net, provider.asn, rng))
                .collect();
            // Services rotate answers (load balancing) — the behaviour
            // that defeats Chromium's strict IP matching (§2.3).
            self.register_host(host.clone(), addrs, Rotation::RoundRobin);
            let cert = self.issue_cert(
                provider.issuer,
                host.clone(),
                &[origin_dns::name::name(&format!("*.{}", host.registrable()))],
                0,
            );
            self.set_cert(cert);
        }
    }
}

/// A certificate as a table entry keyed by its subject: it hashes and
/// compares as the subject's text, so the table is probed with `&str`.
struct BySubject(Arc<Certificate>);

impl PartialEq for BySubject {
    fn eq(&self, other: &Self) -> bool {
        self.0.subject == other.0.subject
    }
}

impl Eq for BySubject {}

impl std::hash::Hash for BySubject {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.subject.as_str().hash(state);
    }
}

impl std::borrow::Borrow<str> for BySubject {
    fn borrow(&self) -> &str {
        self.0.subject.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;

    fn universe() -> (Universe, SimRng) {
        let mut rng = SimRng::seed_from_u64(0x0516);
        let u = Universe::new(&mut rng);
        (u, rng)
    }

    #[test]
    fn services_registered_with_dns_and_certs() {
        let (u, _) = universe();
        let host = name("cdnjs.cloudflare.com");
        let ans = u
            .zones
            .resolve_shared(&host, &mut FxHashMap::default())
            .expect("service resolves");
        assert!(!ans.addresses.is_empty());
        assert_eq!(u.asn_of_host(&host), 13335);
        for ip in ans.addresses.iter() {
            assert_eq!(u.asn_of_ip(ip), 13335);
        }
        let cert = u.cert_for(&host).expect("service cert");
        assert!(cert.covers(&host));
    }

    #[test]
    fn cert_fallback_walks_parents() {
        let (mut u, _) = universe();
        let cert = u.issue_cert(
            KnownIssuer::LetsEncrypt,
            name("site.com"),
            &[name("*.site.com")],
            0,
        );
        u.set_cert(cert);
        let c = u.cert_for(&name("static.site.com")).expect("fallback cert");
        assert_eq!(c.subject, name("site.com"));
        assert!(u.cert_for(&name("unrelated.net")).is_none());
    }

    #[test]
    fn alloc_ip_unique_and_attributed() {
        let (mut u, mut rng) = universe();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let ip = u.alloc_ip(8, 15169, &mut rng);
            assert!(seen.insert(ip), "duplicate ip {ip}");
            assert_eq!(u.asn_of_ip(&ip), 15169);
        }
    }

    #[test]
    fn provider_table_matches_paper_top10() {
        assert_eq!(PROVIDERS[0].org, "Google");
        assert_eq!(PROVIDERS[0].asn, 15169);
        assert_eq!(PROVIDERS[1].asn, 13335);
        assert!((PROVIDERS[1].hosting_share - 0.2474).abs() < 1e-9);
        assert_eq!(PROVIDERS.len(), 10);
        // Facebook hosts no third-party sites.
        assert_eq!(PROVIDERS[6].hosting_share, 0.0);
    }

    #[test]
    fn certs_are_ct_logged() {
        let (u, _) = universe();
        assert!(u.certs_issued() > 0);
        assert_eq!(u.ct_logs.total_entries(), u.certs_issued() * 3);
    }
}
