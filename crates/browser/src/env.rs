//! The environment a browser loads pages against.

use origin_dns::{DnsName, QueryAnswer, ResolverState};
use origin_h2::{OriginEntry, OriginSet};
use origin_netsim::hash::FxHashMap;
use origin_netsim::link::LINK_CLASSES;
use origin_netsim::{LinkProfile, SimRng, SimTime};
use origin_telemetry::trace::Tracer;
use origin_tls::Certificate;
use origin_webgen::{Dataset, PROVIDERS};
use std::cell::RefCell;
use std::net::IpAddr;
use std::sync::Arc;

/// What the loader needs from "the rest of the Internet". The
/// synthetic universe implements it for the §3/§4 crawl; the CDN
/// simulator implements it for the §5 deployment (with its own
/// certificates, origin sets and anycast addressing).
pub trait WebEnv {
    /// Resolve a hostname at simulated time `now`. An environment with
    /// a real resolver hands it `tracer` for the query's trace event
    /// ([`origin_dns::ResolverState::resolve`]); the others ignore it.
    fn resolve(
        &mut self,
        host: &DnsName,
        now: SimTime,
        rng: &mut SimRng,
        tracer: Option<&mut Tracer>,
    ) -> Option<QueryAnswer>;

    /// The certificate the server presents for connections to `host`,
    /// as the shared handle the loader parks on a pooled connection.
    /// Called once per new connection: environments keep their
    /// certificates `Arc`-shared so this is a refcount bump.
    fn cert_shared(&self, host: &DnsName) -> Option<std::sync::Arc<Certificate>>;

    /// Origin AS of an address.
    fn asn_of_ip(&self, ip: &IpAddr) -> u32;

    /// Can the server terminating connections for `conn_host` also
    /// authoritatively serve `new_host` on the same socket? When
    /// false, a coalescing attempt would draw `421 Misdirected
    /// Request` (§2.2).
    fn colocated(&self, conn_host: &DnsName, new_host: &DnsName) -> bool;

    /// The ORIGIN frame origin set the server for `host` advertises
    /// (None = server has no ORIGIN support — the pre-deployment
    /// world), as the shared handle the loader parks on a pooled
    /// connection. The connected host itself need not be listed: the
    /// pool counts it as advertised on any connection that has a set.
    /// Called once per new connection, so environments keep one set
    /// per certificate and this is a refcount bump.
    fn origin_set_for(&self, host: &DnsName) -> Option<Arc<OriginSet>>;

    /// The two per-request host facts: the origin AS serving `host`
    /// and the network path profile toward it. The loader asks once at
    /// the top of every request; these are the only host facts it
    /// reads.
    fn request_facts(&self, host: &DnsName) -> (u32, LinkProfile);
}

/// The webgen-backed environment for the §3 crawl: resolves against
/// the universe's zones, serves the universe's certificates, treats
/// servers in the same provider AS as colocated, and (by default)
/// advertises no ORIGIN frames — exactly the 2021 Internet the paper
/// measured.
pub struct UniverseEnv<'a> {
    dataset: &'a Dataset,
    resolver: ResolverState,
    /// When set, servers hosted by these provider ASes advertise an
    /// origin set covering all page hosts they serve (used by the §4
    /// what-if runs and §5-style deployments on the crawl universe).
    pub origin_enabled_asns: Vec<u32>,
    /// Per-host derived facts (AS, registrable domain, link class) of
    /// the visit: `colocated` runs for every candidate connection and
    /// `request_facts` once per request, and each would otherwise
    /// re-derive the registrable domain and re-hash the hostname into
    /// the universe maps. Keyed by the `DnsName` the loader asks about
    /// (a refcount bump), a pure function of the immutable dataset, and
    /// emptied by [`UniverseEnv::flush_dns`] with the resolver cache.
    facts: RefCell<FxHashMap<DnsName, HostFacts>>,
    /// The origin set an ORIGIN-enabled provider advertises on every
    /// connection under one certificate: its exact SANs in certificate
    /// order. Kept across visits — one `Arc` per certificate, a pure
    /// function of the dataset — and keyed by the certificate's address
    /// in it, because serials are per issuing CA and repeat across
    /// issuers.
    origin_sets: RefCell<FxHashMap<usize, Arc<OriginSet>>>,
}

#[derive(Clone, Copy)]
struct HostFacts {
    asn: u32,
    /// Byte offset of [`DnsName::registrable_str`] in the host's name.
    registrable: u8,
    /// 0 = CDN edge, 1 = same-continent tail, 2 = intercontinental
    /// tail (see `link_profile`).
    link_class: u8,
}

impl HostFacts {
    fn of(host: &DnsName, universe: &origin_webgen::Universe) -> Self {
        let asn = universe.asn_of_host(host);
        let link_class = if PROVIDERS.iter().any(|p| p.asn == asn) {
            0
        } else {
            // Stable per-host class (FNV over the name).
            1 + (origin_netsim::hash::fnv1a64(host.as_str().as_bytes()) % 2) as u8
        };
        let at = host.as_str().len() - host.registrable_str().len();
        HostFacts {
            asn,
            registrable: u8::try_from(at).expect("a DNS name is at most 253 octets"),
            link_class,
        }
    }
}

impl<'a> UniverseEnv<'a> {
    /// Wrap a dataset. The resolver starts cold (the paper's crawler
    /// cleared caches between page loads).
    ///
    /// The dataset is borrowed read-only: all mutable resolver state
    /// (cache, round-robin rotation serials) lives in this env, so any
    /// number of envs — one per crawl worker — can share one dataset.
    /// Rotation still advances per query like a real authoritative
    /// farm, via the session's serial overlay.
    pub fn new(dataset: &'a Dataset) -> Self {
        UniverseEnv {
            dataset,
            resolver: ResolverState::new(),
            origin_enabled_asns: Vec::new(),
            facts: RefCell::default(),
            origin_sets: RefCell::default(),
        }
    }

    fn host_facts(&self, host: &DnsName) -> HostFacts {
        let mut facts = self.facts.borrow_mut();
        if let Some(&f) = facts.get(host) {
            return f;
        }
        let f = HostFacts::of(host, &self.dataset.universe);
        facts.insert(host.clone(), f);
        f
    }

    /// Origin AS serving a hostname, from the visit's host facts.
    pub fn asn_of_host(&self, host: &DnsName) -> u32 {
        self.host_facts(host).asn
    }

    /// Clear the DNS cache (fresh browser session per page, §3.1) and
    /// the host facts the last visit derived, keeping their capacity.
    pub fn flush_dns(&mut self) {
        self.resolver.flush_cache();
        self.facts.get_mut().clear();
    }

    /// The resolver's counters (plaintext exposure etc.).
    pub fn resolver_stats(&self) -> origin_dns::resolver::ResolverStats {
        self.resolver.stats()
    }

    /// The resolver's counters since the last take, resetting them to
    /// zero. Lets one env be reused across many page visits (keeping
    /// its tables' capacity) while each visit still records
    /// exactly the per-visit deltas a fresh env would have reported.
    pub fn take_resolver_stats(&mut self) -> origin_dns::resolver::ResolverStats {
        let stats = self.resolver.stats();
        self.resolver.reset_stats();
        stats
    }
}

impl WebEnv for UniverseEnv<'_> {
    fn resolve(
        &mut self,
        host: &DnsName,
        now: SimTime,
        rng: &mut SimRng,
        tracer: Option<&mut Tracer>,
    ) -> Option<QueryAnswer> {
        self.resolver
            .resolve(&self.dataset.universe.zones, host, now, rng, tracer)
    }

    fn cert_shared(&self, host: &DnsName) -> Option<std::sync::Arc<Certificate>> {
        self.dataset.universe.cert_shared(host)
    }

    fn asn_of_ip(&self, ip: &IpAddr) -> u32 {
        self.dataset.universe.asn_of_ip(ip)
    }

    fn colocated(&self, conn_host: &DnsName, new_host: &DnsName) -> bool {
        // Same registrable domain → same origin server farm. Same
        // provider AS → shared CDN edge able to serve both (the §4
        // model's core assumption, stated in §4.1). Both facts come
        // memoized: registrable domains compare as suffixes in place.
        let a = self.host_facts(conn_host);
        let b = self.host_facts(new_host);
        conn_host.as_str()[a.registrable.into()..] == new_host.as_str()[b.registrable.into()..]
            || (a.asn != 0 && a.asn == b.asn)
    }

    fn origin_set_for(&self, host: &DnsName) -> Option<Arc<OriginSet>> {
        let asn = self.asn_of_host(host);
        if !self.origin_enabled_asns.contains(&asn) {
            return None;
        }
        // An ORIGIN-enabled provider advertises the connected host
        // (implied, see the trait) plus its sibling names on this
        // certificate — the least-effort configuration §4.3 ends at.
        let cert = self.dataset.universe.cert_for(host)?;
        let at = std::ptr::from_ref(cert) as usize;
        let mut sets = self.origin_sets.borrow_mut();
        let set = sets
            .entry(at)
            .or_insert_with(|| Arc::new(origin_set_of(cert)));
        Some(set.clone())
    }

    fn request_facts(&self, host: &DnsName) -> (u32, LinkProfile) {
        let f = self.host_facts(host);
        (f.asn, link_profile(f.link_class))
    }
}

/// The ORIGIN set a certificate's server advertises: its exact SAN
/// names, filler ones included, in certificate order.
fn origin_set_of(cert: &Certificate) -> OriginSet {
    let exact = cert.san_names().filter(|san| !san.is_wildcard());
    OriginSet::from_entries(exact.map(|san| OriginEntry::https(san.as_str())))
}

/// Link profile for a memoized link class. Tail origins from a single
/// US-East vantage (§3.1): about half are same-continent, half
/// intercontinental; providers get a nearby CDN edge.
fn link_profile(class: u8) -> LinkProfile {
    // Constant indices: this runs per request, and each arm folds to
    // a literal profile (no float rounding at run time).
    let of = |class: usize, jitter: f64| {
        let (rtt_ms, mbps) = LINK_CLASSES[class];
        LinkProfile::new(rtt_ms, mbps).with_jitter(jitter)
    };
    match class {
        0 => of(0, 0.25),
        1 => of(1, 0.30),
        _ => of(2, 0.25),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UniverseEnv<'_> {
        /// See [`ResolverState::footprint`].
        pub(crate) fn resolver_footprint(&self) -> [(usize, usize); 2] {
            self.resolver.footprint()
        }

        /// The host-fact table's `(keys, capacity)`.
        pub(crate) fn host_fact_footprint(&self) -> (usize, usize) {
            let facts = self.facts.borrow();
            (facts.len(), facts.capacity())
        }
    }
    use origin_dns::name::name;
    use origin_webgen::DatasetConfig;

    fn dataset() -> Dataset {
        Dataset::generate(DatasetConfig {
            sites: 50,
            tranco_total: 500_000,
            seed: 3,
            ..Default::default()
        })
    }

    #[test]
    fn resolves_and_attributes() {
        let d = dataset();
        let mut env = UniverseEnv::new(&d);
        let mut rng = SimRng::seed_from_u64(1);
        let ans = env
            .resolve(&name("cdnjs.cloudflare.com"), SimTime::ZERO, &mut rng, None)
            .expect("service resolves");
        assert!(!ans.addresses.is_empty());
        assert_eq!(env.asn_of_ip(&ans.addresses[0]), 13335);
    }

    #[test]
    fn colocation_same_provider() {
        let d = dataset();
        let env = UniverseEnv::new(&d);
        // Two Cloudflare-hosted services are colocated.
        assert!(env.colocated(&name("cdnjs.cloudflare.com"), &name("ajax.cloudflare.com")));
        // Cloudflare and Google are not.
        assert!(!env.colocated(&name("cdnjs.cloudflare.com"), &name("fonts.gstatic.com")));
        // Same registrable domain always is.
        assert!(env.colocated(&name("site-000001.com"), &name("www.site-000001.com")));
    }

    #[test]
    fn origin_sets_only_for_enabled_asns() {
        let d = dataset();
        let mut env = UniverseEnv::new(&d);
        assert!(env.origin_set_for(&name("cdnjs.cloudflare.com")).is_none());
        env.origin_enabled_asns.push(13335);
        let set = env
            .origin_set_for(&name("cdnjs.cloudflare.com"))
            .expect("origin set");
        assert!(set.allows_https_host("cdnjs.cloudflare.com"));
        // One set per certificate, however many connections ask.
        let again = env.origin_set_for(&name("cdnjs.cloudflare.com")).unwrap();
        assert!(Arc::ptr_eq(&set, &again));
    }

    /// A certificate whose filler names are a count advertises the
    /// same ORIGIN set as its twin that lists them.
    #[test]
    fn origin_set_spells_out_filler_names() {
        let mut d = dataset();
        let site = d.successful_sites().find(|s| {
            let cert = d.universe.cert_for(&s.root_host).unwrap();
            cert.filler > 0 && cert.listed_names().any(|n| n.is_wildcard())
        });
        let root = site
            .expect("a filler certificate with a wildcard")
            .root_host
            .clone();
        let set_of = |d: &Dataset| {
            let mut env = UniverseEnv::new(d);
            env.origin_enabled_asns.push(env.asn_of_host(&root));
            env.origin_set_for(&root).expect("origin set")
        };
        let counted = set_of(&d);
        let cert = d.universe.cert_for(&root).unwrap();
        let listed = origin_tls::CertificateBuilder::new(root.clone())
            .sans(cert.san_names())
            .build();
        let names = cert.san_count() - 1; // less the wildcard
        d.universe.set_cert(listed);
        assert_eq!(*counted, *set_of(&d));
        assert_eq!(counted.len(), names);
    }

    #[test]
    fn links_differ_by_provider_size() {
        let d = dataset();
        let env = UniverseEnv::new(&d);
        let (_, cdn) = env.request_facts(&name("cdnjs.cloudflare.com"));
        let (_, tail) = env.request_facts(&name("tag0.widget-net-0.net"));
        assert!(cdn.rtt < tail.rtt);
    }
}
