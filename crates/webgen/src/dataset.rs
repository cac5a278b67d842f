//! Site and page generation.

use crate::dist;
use crate::services::{
    tail_service_content, tail_service_host, tail_service_weight, SERVICES, TAIL_SERVICE_COUNT,
};
use crate::universe::{tail_asn, ProviderDef, Universe, PROVIDERS};
use origin_dns::name::name;
use origin_dns::record::Rotation;
use origin_dns::DnsName;
use origin_netsim::hash::splitmix64_finalize;
use origin_netsim::SimRng;
use origin_tls::KnownIssuer;
use origin_web::{ContentType, FetchMode, Page, PathSpec, Protocol, Resource};
use std::net::IpAddr;
use std::sync::Arc;

/// Dataset generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Number of Tranco ranks to generate (the paper used 500K; the
    /// default here is a laptop-scale 20K that preserves all shapes).
    pub sites: u32,
    /// The nominal Tranco list size rank buckets are scaled against.
    pub tranco_total: u32,
    /// Master seed.
    pub seed: u64,
    /// Share of sites in `[0, 1]` that are *legacy*: their origin
    /// never deployed h2, so ALPN negotiates `http/1.1`, first-party
    /// assets are domain-sharded across the site's shard hosts, and
    /// none of their connections coalesce. Assignment is a pure hash
    /// of `(seed, rank)` — no RNG draws — so `legacy_share = 0.0`
    /// (the default) generates a byte-identical dataset to one that
    /// has never heard of the knob.
    pub legacy_share: f64,
    /// Share of non-legacy sites in `[0, 1]` whose origins deploy
    /// HTTP/3: every host behind the site's certificates advertises
    /// `alt-svc: h3`, so visits upgrade eligible connections to QUIC.
    /// Assigned by the same draw-free `(seed, rank)` hash as
    /// [`legacy_share`] under a distinct salt, so `h3_share = 0.0`
    /// (the default) is byte-identical to a build without the knob.
    /// Legacy sites never deploy h3 (no h2, let alone QUIC).
    ///
    /// [`legacy_share`]: Self::legacy_share
    pub h3_share: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            sites: 20_000,
            tranco_total: 500_000,
            seed: 0x0516,
            legacy_share: 0.0,
            h3_share: 0.0,
        }
    }
}

/// A uniform draw in `[0, 1)` that is a pure hash of `(seed, rank)`.
/// Consuming no RNG draws keeps every existing draw sequence — and
/// therefore every committed report — untouched at any share.
fn site_unit(seed: u64, rank: u32) -> f64 {
    let z = splitmix64_finalize(seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic legacy assignment: the site's [`site_unit`] compared
/// against the share.
fn is_legacy_site(seed: u64, rank: u32, legacy_share: f64) -> bool {
    legacy_share > 0.0 && site_unit(seed, rank) < legacy_share
}

/// Deterministic h3 deployment assignment: the same draw-free hash as
/// [`is_legacy_site`] under a distinct seed salt, so the two
/// populations are independent and neither perturbs any RNG stream.
fn is_h3_site(seed: u64, rank: u32, h3_share: f64) -> bool {
    h3_share > 0.0 && site_unit(seed ^ 0x4833_5F51_C0A1_E5CE, rank) < h3_share
}

/// A reference to a third-party service used by a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceRef {
    /// Index into [`SERVICES`].
    Named(u32),
    /// Generated tail service index.
    Tail(u32),
}

impl ServiceRef {
    /// The service hostname.
    ///
    /// The catalog is finite (named + tail entries), and `page_for`
    /// asks for the same hostnames millions of times per crawl, so
    /// the `DnsName`s are interned once process-wide and cloned
    /// (an `Arc` bump) thereafter.
    pub fn host(self) -> DnsName {
        static HOSTS: std::sync::OnceLock<Vec<DnsName>> = std::sync::OnceLock::new();
        let hosts = HOSTS.get_or_init(|| {
            SERVICES
                .iter()
                .map(|s| name(s.host))
                .chain((0..TAIL_SERVICE_COUNT).map(|i| name(&tail_service_host(i))))
                .collect()
        });
        match self {
            ServiceRef::Named(i) => hosts[i as usize].clone(),
            ServiceRef::Tail(i) => hosts[SERVICES.len() + i as usize].clone(),
        }
    }

    /// The AS serving it.
    pub fn asn(self) -> u32 {
        match self {
            ServiceRef::Named(i) => PROVIDERS[SERVICES[i as usize].provider].asn,
            ServiceRef::Tail(i) => tail_asn(i % crate::universe::TAIL_AS_COUNT),
        }
    }

    /// Index into [`PROVIDERS`] when hosted by a named provider.
    pub fn provider(self) -> Option<usize> {
        match self {
            ServiceRef::Named(i) => Some(SERVICES[i as usize].provider),
            ServiceRef::Tail(_) => None,
        }
    }

    /// Dominant content type.
    pub fn content(self) -> ContentType {
        match self {
            ServiceRef::Named(i) => SERVICES[i as usize].content,
            ServiceRef::Tail(i) => tail_service_content(i),
        }
    }

    /// Fetch mode of this service's resources.
    pub fn fetch(self) -> FetchMode {
        match self {
            ServiceRef::Named(i) => SERVICES[i as usize].fetch,
            ServiceRef::Tail(i) => {
                if i % 5 == 0 {
                    FetchMode::XhrFetch
                } else {
                    FetchMode::Normal
                }
            }
        }
    }
}

/// One generated site's static configuration.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Tranco rank (1-based).
    pub rank: u32,
    /// Root document host.
    pub root_host: DnsName,
    /// Sharded first-party subdomains.
    pub shard_hosts: Box<[DnsName]>,
    /// Hosting provider index (None = self-hosted in a tail AS).
    pub provider: Option<usize>,
    /// The AS serving the first-party hosts.
    pub asn: u32,
    /// Whether the crawl of this site failed (non-200/CAPTCHA);
    /// failed sites are excluded from the dataset like the paper's
    /// 36.5%.
    pub failed: bool,
    /// Third-party services this page uses.
    pub services: Box<[ServiceRef]>,
    /// Subresource request budget.
    pub n_requests: u32,
    /// Per-page RNG seed for lazy page materialization.
    pub page_seed: u64,
    /// Whether the first-party shards share the root's address set
    /// (the IP-coalescible configuration).
    pub shards_share_ip: bool,
    /// Whether the origin is legacy (HTTP/1.1-only ALPN, sharded
    /// asset layout). See [`DatasetConfig::legacy_share`].
    pub legacy: bool,
    /// Whether the origin deploys HTTP/3 (advertises `alt-svc: h3`).
    /// See [`DatasetConfig::h3_share`]; always false for legacy sites.
    pub h3: bool,
}

/// A generated dataset: the universe plus per-site configurations.
pub struct Dataset {
    /// Generation parameters.
    pub config: DatasetConfig,
    /// Shared network state (zones, certs, AS attribution).
    pub universe: Universe,
    sites: Vec<SiteConfig>,
}

impl Dataset {
    /// Generate a dataset.
    pub fn generate(config: DatasetConfig) -> Dataset {
        let rng = SimRng::seed_from_u64(config.seed);
        let mut universe = Universe::new(&mut rng.derive("universe"));
        let mut site_rng = rng.derive("sites");
        let mut scratch = GenScratch::default();
        let mut sites = Vec::with_capacity(config.sites as usize);
        for rank in 1..=config.sites {
            let cfg = Self::generate_site(rank, config, &mut universe, &mut site_rng, &mut scratch);
            sites.push(cfg);
        }
        Dataset {
            config,
            universe,
            sites,
        }
    }

    /// All sites (including failed crawls).
    pub fn sites(&self) -> &[SiteConfig] {
        &self.sites
    }

    /// Sites whose crawl succeeded (the measurement population).
    pub fn successful_sites(&self) -> impl Iterator<Item = &SiteConfig> {
        self.sites.iter().filter(|s| !s.failed)
    }

    fn generate_site(
        rank: u32,
        config: DatasetConfig,
        universe: &mut Universe,
        rng: &mut SimRng,
        scratch: &mut GenScratch,
    ) -> SiteConfig {
        let text = &mut scratch.text;
        let root_host = fmt_name(text, format_args!("site-{rank:06}.com"));
        // Scale the rank into the nominal Tranco space so the success
        // rate gradient matches Table 1 regardless of dataset size.
        let scaled_rank =
            (rank as u64 * config.tranco_total as u64 / config.sites.max(1) as u64) as u32;
        let failed = !rng.chance(dist::success_rate_for_rank(
            scaled_rank,
            config.tranco_total,
        ));

        // Hosting: walk the named providers' shares, else self-host.
        let mut provider: Option<usize> = None;
        let mut u = rng.unit();
        for (i, p) in PROVIDERS.iter().enumerate() {
            if u < p.hosting_share {
                provider = Some(i);
                break;
            }
            u -= p.hosting_share;
        }
        let asn = match provider {
            Some(i) => PROVIDERS[i].asn,
            None => 70_000 + rank, // each self-hosted site is its own AS
        };

        // First-party addressing.
        let net = match provider {
            Some(i) => PROVIDERS[i].net,
            None => 170 + (rank % 60) as u8,
        };
        let n_addrs = if provider.is_some() {
            2
        } else {
            1 + rng.index(2)
        };
        let root_addrs: Arc<[IpAddr]> = (0..n_addrs)
            .map(|_| {
                if provider.is_some() {
                    // CDN-fronted sites share the provider's VIP pool.
                    universe.provider_vip(net, asn, rng)
                } else {
                    universe.alloc_ip(net, asn, rng)
                }
            })
            .collect();
        let rotation = if provider.is_some() {
            Rotation::RoundRobin
        } else {
            Rotation::Fixed
        };
        universe.register_host(root_host.clone(), root_addrs.clone(), rotation);

        // Shards; ones sharing the root's addresses share its set.
        const SHARD_LABELS: [&str; 5] = ["www", "static", "img", "cdn", "assets"];
        let n_shards = dist::sample_shard_count(rng) as usize;
        let shards_share_ip = rng.chance(0.45);
        let mut shard_hosts = Vec::with_capacity(n_shards);
        for label in SHARD_LABELS.iter().take(n_shards) {
            let h = fmt_name(text, format_args!("{label}.{root_host}"));
            let addrs = if shards_share_ip {
                root_addrs.clone()
            } else {
                (0..n_addrs)
                    .map(|_| {
                        if provider.is_some() {
                            universe.provider_vip(net, asn, rng)
                        } else {
                            universe.alloc_ip(net, asn, rng)
                        }
                    })
                    .collect()
            };
            universe.register_host(h.clone(), addrs, rotation);
            shard_hosts.push(h);
        }

        // Certificate with a Table 8-matched SAN count.
        let target_sans = dist::sample_existing_san_count(rng) as usize;
        let mut issuer = match provider {
            Some(i) => PROVIDERS[i].issuer,
            None => sample_tail_issuer(rng),
        };
        // Certificates beyond the common 100-name limit come from the
        // high-limit issuers the paper observed (Comodo, cPanel, DFN).
        if target_sans > issuer.san_limit() {
            issuer = KnownIssuer::Comodo;
        }
        let target_sans = target_sans.min(issuer.san_limit() - 1);
        let sans = &mut scratch.sans;
        sans.clear();
        // Not every operator maintains a wildcard: ~60% of multi-SAN
        // certificates carry one; the rest enumerate hostnames and
        // frequently miss shards — the gap the §4.3 planner fills.
        let has_wildcard = target_sans >= 2 && rng.chance(0.60);
        if has_wildcard {
            sans.push(fmt_name(text, format_args!("*.{root_host}")));
        } else if target_sans >= 2 {
            // Enumerated certs list *some* shards explicitly.
            for h in shard_hosts.iter().take(target_sans.saturating_sub(1)) {
                if rng.chance(0.6) {
                    sans.push(h.clone());
                }
            }
        }
        // Pad with plausible operator names (mail, api, alternate
        // TLDs) to hit the measured SAN size.
        let mut i = 0;
        while sans.len() + 1 < target_sans {
            sans.push(fmt_name(text, format_args!("alt-{i}.{root_host}")));
            i += 1;
        }
        let mut cert = universe.issue_cert(issuer, root_host.clone(), sans);
        if target_sans == 0 {
            // A CN-only certificate (11,131 sites in the paper).
            cert.sans = Vec::new();
        }
        universe.set_cert(root_host.clone(), cert);

        // Request budget and third-party services.
        let n_requests = dist::sample_request_count(rng);
        let target_as = dist::sample_as_count(rng, n_requests);
        pick_services(rng, target_as, scratch);
        // Register any tail services this page introduced.
        for s in &scratch.services {
            if let ServiceRef::Tail(t) = s {
                let host = s.host();
                if universe.zones.registered(&host).is_none() {
                    let svc_asn = s.asn();
                    let svc_net = 200 + (t % 50) as u8;
                    let addrs = (0..2)
                        .map(|_| universe.alloc_ip(svc_net, svc_asn, rng))
                        .collect();
                    universe.register_host(host.clone(), addrs, Rotation::RoundRobin);
                    let issuer = sample_tail_issuer(rng);
                    let cert = universe.issue_cert(issuer, host.clone(), &[]);
                    universe.set_cert(host, cert);
                }
            }
        }

        SiteConfig {
            rank,
            root_host,
            shard_hosts: shard_hosts.into_boxed_slice(),
            provider,
            asn,
            failed,
            services: scratch.services[..].into(),
            n_requests,
            page_seed: rng.next_u64(),
            shards_share_ip,
            legacy: is_legacy_site(config.seed, rank, config.legacy_share),
            h3: !is_legacy_site(config.seed, rank, config.legacy_share)
                && is_h3_site(config.seed, rank, config.h3_share),
        }
    }

    /// Materialize the page for a site (deterministic per site).
    pub fn page_for(&self, site: &SiteConfig) -> Page {
        self.page_for_with(site, &mut PageScratch::new())
    }

    /// [`Dataset::page_for`] with caller-owned scratch buffers.
    ///
    /// Materialization is a pure function of the site: the scratch
    /// only recycles buffer capacity (host slots, ordering vectors,
    /// the page's host and resource tables) across calls, so the
    /// returned page is byte-identical to [`Dataset::page_for`]'s.
    /// Crawl workers hold one scratch each and
    /// [`PageScratch::recycle`] finished pages back into it.
    pub fn page_for_with(&self, site: &SiteConfig, scratch: &mut PageScratch) -> Page {
        let mut rng = SimRng::seed_from_u64(site.page_seed);

        // Hosts and their request weights: first-party carries ~40% of
        // requests (sites serve much of their own content), services
        // split the rest by popularity weight. Slot `i` is the page's
        // host `i`: the root, its shards, then the services.
        let slots = &mut scratch.slots;
        slots.clear();
        let mut hosts = std::mem::take(&mut scratch.hosts);
        hosts.clear();
        let n_fp = 1 + site.shard_hosts.len();
        let fp_weight_total = 40.0;
        for (i, h) in std::iter::once(&site.root_host)
            .chain(site.shard_hosts.iter())
            .enumerate()
        {
            // Root slightly heavier than shards.
            let w = fp_weight_total / n_fp as f64 * if i == 0 { 1.3 } else { 0.9 };
            hosts.push(h.clone());
            slots.push(HostSlot {
                weight: w,
                content: HostContent::FirstParty,
                fetch: FetchMode::Normal,
            });
        }
        let svc_weight_total: f64 = site
            .services
            .iter()
            .map(|s| match s {
                ServiceRef::Named(i) => SERVICES[*i as usize].weight as f64,
                ServiceRef::Tail(i) => tail_service_weight(*i) as f64,
            })
            .sum();
        for s in &site.services {
            let w = match s {
                ServiceRef::Named(i) => SERVICES[*i as usize].weight as f64,
                ServiceRef::Tail(i) => tail_service_weight(*i) as f64,
            };
            hosts.push(s.host());
            slots.push(HostSlot {
                weight: 60.0 * w / svc_weight_total.max(1.0),
                content: HostContent::Service(s.content()),
                fetch: s.fetch(),
            });
        }

        // AS group of each slot (first-party slots share the site AS).
        let slot_asns = &mut scratch.slot_asns;
        slot_asns.clear();
        for i in 0..slots.len() {
            slot_asns.push(if i < n_fp {
                site.asn
            } else {
                site.services[i - n_fp].asn()
            });
        }

        // Per-host protocol (hosts keep one protocol for the load).
        let protocols = &mut scratch.protocols;
        protocols.clear();
        for i in 0..slots.len() {
            let big = if i < n_fp {
                site.provider.is_some()
            } else {
                !matches!(site.services.get(i - n_fp), Some(ServiceRef::Tail(_)))
            };
            protocols.push(dist::sample_host_protocol(&mut rng, big));
        }

        // Distribute the request budget: every host gets at least one
        // request, the rest go by weight.
        let n = site.n_requests.max(slots.len() as u32) as usize;
        let per_host = &mut scratch.per_host;
        per_host.clear();
        per_host.resize(slots.len(), 1usize);
        let total_w: f64 = slots.iter().map(|s| s.weight).sum();
        for _ in slots.len()..n {
            let mut pick = rng.unit() * total_w;
            let mut chosen = 0;
            for (i, s) in slots.iter().enumerate() {
                if pick < s.weight {
                    chosen = i;
                    break;
                }
                pick -= s.weight;
            }
            per_host[chosen] += 1;
        }

        // Emit resources in an interleaved (shuffled) order so
        // discovery chains cross hostnames the way real pages do
        // (script on host A pulls CSS from host B pulls a font from
        // host C). CSS resources are remembered so fonts can be
        // discovered through them (the crossorigin chain of §5.3).
        let order = &mut scratch.order;
        order.clear();
        for (slot_idx, &count) in per_host.iter().enumerate() {
            for j in 0..count {
                order.push((slot_idx, j));
            }
        }
        rng.shuffle(order);
        // Head-of-document pattern: pages reference one resource from
        // each provider group early (tag manager, analytics, fonts
        // CSS, first-party app bundle), then the long tail of
        // subresources follows. Pull one first-contact per AS group
        // to the front of the discovery order.
        {
            let seen_groups = &mut scratch.seen_groups;
            seen_groups.clear();
            let front = &mut scratch.front;
            let rest = &mut scratch.rest;
            front.clear();
            rest.clear();
            for &(slot_idx, j) in order.iter() {
                let group = slot_asns[slot_idx];
                if j == 0 && seen_groups.insert(group) {
                    front.push((slot_idx, j));
                } else {
                    rest.push((slot_idx, j));
                }
            }
            front.extend(rest.iter().copied());
            std::mem::swap(order, front);
        }
        let css_indices = &mut scratch.css_indices;
        css_indices.clear();
        let seen_slots = &mut scratch.seen_slots;
        seen_slots.clear();
        seen_slots.resize(slots.len(), false);
        // Recycled resource storage; resource 0 is the root document
        // on host slot 0.
        let mut resources = std::mem::take(&mut scratch.resources);
        resources.clear();
        resources.push(Resource::new("/", ContentType::Html, 14_000));
        // The discovery backbone: each newly-contacted host is found
        // by parsing content fetched from the previously-discovered
        // one (script loads script loads beacon…), so host
        // first-contacts form a serial chain through the page — the
        // critical-path shape that makes connection setup removable
        // in the §4.1 reconstruction.
        let mut last_first_contact: Option<usize> = None;
        let seen_groups_emit = &mut scratch.seen_groups_emit;
        seen_groups_emit.clear();
        for (emitted, &(slot_idx, j)) in order.iter().enumerate() {
            let slot = &slots[slot_idx];
            let idx = emitted + 1;
            {
                let content = match &slot.content {
                    HostContent::FirstParty => sample_first_party_content(&mut rng),
                    HostContent::Service(ct) => {
                        if rng.chance(0.75) {
                            *ct
                        } else {
                            sample_first_party_content(&mut rng)
                        }
                    }
                };
                let size = (rng.log_normal(content.typical_size() as f64, 0.9) as u64)
                    .clamp(200, 6_000_000);
                // The path is a function of the slot that placed the
                // resource, its ordinal there and the content type.
                let slot_path = PathSpec::Slot {
                    slot: slot_idx as u16,
                    ordinal: j as u32,
                };
                let mut r = Resource::new(slot_path, content, size);
                r.host = slot_idx as u16;
                r.fetch_mode = if content.is_font() {
                    FetchMode::CorsAnonymous
                } else {
                    slot.fetch
                };
                r.protocol = if rng.chance(dist::REQUEST_NA_RATE) {
                    Protocol::NA
                } else {
                    protocols[slot_idx]
                };
                r.secure = !rng.chance(dist::REQUEST_INSECURE_RATE);
                // Discovery structure: fonts hang off a CSS resource;
                // other resources chain off the immediately preceding
                // resource (long sequential discovery chains, the
                // critical-path shape WProf documented) or off a
                // random earlier one, else off the root document.
                let first_contact = !seen_slots[slot_idx];
                seen_slots[slot_idx] = true;
                let group_seen = seen_groups_emit.contains(&slot_asns[slot_idx]);
                seen_groups_emit.insert(slot_asns[slot_idx]);
                if content.is_font() && !css_indices.is_empty() {
                    r.discovered_by = Some(*rng.choose(css_indices));
                } else if first_contact && group_seen && rng.chance(0.95) {
                    // Same-ecosystem discovery (a Google tag loads the
                    // next Google host, a CDN bundle pulls its sibling
                    // asset host): chains into the backbone. These are
                    // exactly the coalescable setups of §4.
                    r.discovered_by = last_first_contact;
                } else if first_contact && rng.chance(0.45) {
                    // Independent third-party ecosystems mostly load
                    // in parallel (async script tags), occasionally
                    // chained.
                    r.discovered_by = last_first_contact;
                } else if emitted > 0 && rng.chance(0.70) {
                    r.discovered_by = Some(emitted); // chain off previous
                } else if emitted > 0 && rng.chance(0.20) {
                    r.discovered_by = Some(1 + rng.index(emitted));
                }
                debug_assert!(r.discovered_by.is_none_or(|p| p < idx));
                if first_contact {
                    last_first_contact = Some(idx);
                }
                if content == ContentType::Css {
                    css_indices.push(idx);
                }
                resources.push(r);
            }
        }
        if site.legacy {
            apply_legacy_layout(site.shard_hosts.len(), &mut resources);
        }
        Page {
            rank: site.rank,
            root_host: site.root_host.clone(),
            hosts,
            resources,
            legacy: site.legacy,
            h3: site.h3,
        }
    }
}

/// The legacy-site transform, a draw-free post-pass over a fully
/// materialized page (so the RNG draw sequence is identical to the
/// modern rendering of the same site):
///
/// - every first-party resource is served over HTTP/1.1 — the origin
///   never deployed h2, so ALPN settles on `http/1.1`;
/// - first-party *assets* are re-spread round-robin across the
///   site's shard hosts — the classic domain-sharding workaround for
///   the 6-connections-per-host limit (third-party services keep
///   their own, independently sampled protocols).
///
/// Host slots `0..=n_shards` are the root and its shards. Only
/// `Resource::host` moves: a path keeps naming the slot that placed it.
fn apply_legacy_layout(n_shards: usize, resources: &mut [Resource]) {
    if let Some(root) = resources.first_mut() {
        root.protocol = Protocol::H11;
    }
    let mut fp_seen = 0usize;
    for r in resources.iter_mut().skip(1) {
        let first_party = r.host as usize <= n_shards;
        if !first_party {
            continue;
        }
        if r.protocol != Protocol::NA {
            r.protocol = Protocol::H11;
        }
        if n_shards > 0 {
            r.host = 1 + (fp_seen % n_shards) as u16;
            fp_seen += 1;
        }
    }
}

/// One host slot in a materializing page (see
/// [`Dataset::page_for_with`]).
struct HostSlot {
    weight: f64,
    content: HostContent,
    fetch: FetchMode,
}

enum HostContent {
    FirstParty,
    Service(ContentType),
}

/// Reusable buffers for [`Dataset::page_for_with`]: everything a page
/// materialization allocates, kept warm across a worker's visits.
///
/// Holding one per crawl worker (never shared — materialization is
/// single-threaded per scratch) turns the ~300 heap allocations of a
/// cold `page_for` into a handful of capacity-retained writes.
#[derive(Default)]
pub struct PageScratch {
    slots: Vec<HostSlot>,
    slot_asns: Vec<u32>,
    protocols: Vec<Protocol>,
    per_host: Vec<usize>,
    order: Vec<(usize, usize)>,
    front: Vec<(usize, usize)>,
    rest: Vec<(usize, usize)>,
    css_indices: Vec<usize>,
    seen_slots: Vec<bool>,
    seen_groups: origin_netsim::hash::FxHashSet<u32>,
    seen_groups_emit: origin_netsim::hash::FxHashSet<u32>,
    hosts: Vec<DnsName>,
    resources: Vec<Resource>,
}

impl PageScratch {
    /// Empty scratch (first use allocates, later uses recycle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a finished page's host and resource tables to the
    /// scratch so the next [`Dataset::page_for_with`] call reuses
    /// their capacity.
    pub fn recycle(&mut self, page: Page) {
        self.hosts = page.hosts;
        self.resources = page.resources;
    }
}

/// First-party content mix: images, CSS, JS, HTML fragments — tuned
/// with the service catalog to land Table 5's global shares.
fn sample_first_party_content(rng: &mut SimRng) -> ContentType {
    let u = rng.unit();
    match () {
        _ if u < 0.17 => ContentType::Javascript,
        _ if u < 0.33 => ContentType::Jpeg,
        _ if u < 0.46 => ContentType::Png,
        _ if u < 0.56 => ContentType::Html,
        _ if u < 0.64 => ContentType::Gif,
        _ if u < 0.74 => ContentType::Css,
        _ if u < 0.78 => ContentType::Json,
        _ if u < 0.81 => ContentType::Woff2,
        _ if u < 0.85 => ContentType::Webp,
        _ if u < 0.88 => ContentType::Plain,
        _ if u < 0.93 => ContentType::XJavascript,
        _ => ContentType::Other,
    }
}

/// Issuers for self-hosted sites, ∝ Table 4 with the provider-tied
/// issuers (Google/Amazon/Cloudflare) removed.
fn sample_tail_issuer(rng: &mut SimRng) -> KnownIssuer {
    let u = rng.unit();
    match () {
        _ if u < 0.30 => KnownIssuer::LetsEncrypt,
        _ if u < 0.48 => KnownIssuer::Sectigo,
        _ if u < 0.62 => KnownIssuer::DigiCertHighAssurance,
        _ if u < 0.74 => KnownIssuer::DigiCertSecureServer,
        _ if u < 0.83 => KnownIssuer::GoDaddy,
        _ if u < 0.90 => KnownIssuer::DigiCertTlsRsa,
        _ if u < 0.96 => KnownIssuer::GeoTrust,
        _ => KnownIssuer::Comodo,
    }
}

/// Buffers [`Dataset::generate`] reuses from rank to rank: name text,
/// SANs, and a page's picked services with their ASes and candidates.
#[derive(Default)]
struct GenScratch {
    text: String,
    sans: Vec<DnsName>,
    services: Vec<ServiceRef>,
    ases: origin_netsim::hash::FxHashSet<u32>,
    candidates: Vec<u32>,
}

/// Parse a formatted name, formatting it in `text`'s reused buffer.
fn fmt_name(text: &mut String, args: std::fmt::Arguments) -> DnsName {
    text.clear();
    std::fmt::Write::write_fmt(text, args).expect("formatting into a String succeeds");
    name(text)
}

/// Choose `scratch.services` until the page's distinct third-party AS
/// count reaches `target_as - 1` (the first-party AS is the remaining
/// one).
fn pick_services(rng: &mut SimRng, target_as: u32, scratch: &mut GenScratch) {
    let GenScratch {
        services,
        ases,
        candidates,
        ..
    } = scratch;
    let needed = target_as.saturating_sub(1);
    services.clear();
    ases.clear();
    let mut guard = 0;
    while (ases.len() as u32) < needed && guard < needed * 10 + 50 {
        guard += 1;
        let s = if rng.chance(0.55) {
            ServiceRef::Named(rng.zipf(SERVICES.len(), 1.05) as u32)
        } else {
            ServiceRef::Tail(rng.zipf(TAIL_SERVICE_COUNT as usize, 1.02) as u32)
        };
        if services.contains(&s) {
            continue;
        }
        services.push(s);
        ases.insert(s.asn());
    }
    // Pages use several hostnames per provider (fonts.googleapis.com
    // + fonts.gstatic.com + analytics + ad exchanges all in AS15169):
    // add extra services drawn from the ASes already in the set, so
    // distinct hostnames land near the paper's ~13 while the page's
    // AS spread stays at its Figure 1 target.
    if needed > 0 {
        candidates.clear();
        candidates.extend(
            (0..SERVICES.len() as u32)
                .filter(|&i| ases.contains(&PROVIDERS[SERVICES[i as usize].provider].asn)),
        );
        if !candidates.is_empty() {
            let extras = 5 + rng.index(4);
            let mut guard = 0;
            while guard < extras * 8 {
                guard += 1;
                let s = ServiceRef::Named(candidates[rng.zipf(candidates.len(), 0.8)]);
                if services.contains(&s) {
                    continue;
                }
                services.push(s);
                if services.len() >= needed as usize + extras {
                    break;
                }
            }
        }
    }
}

/// Re-export for universe provider access in doc examples.
pub use crate::universe::PROVIDERS as PROVIDER_TABLE;

#[allow(unused_imports)]
use ProviderDef as _ProviderDefUsed;

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::generate(DatasetConfig {
            sites: 300,
            tranco_total: 500_000,
            seed: 42,
            ..Default::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.sites().len(), b.sites().len());
        for (x, y) in a.sites().iter().zip(b.sites()) {
            assert_eq!(x.root_host, y.root_host);
            assert_eq!(x.n_requests, y.n_requests);
            assert_eq!(x.page_seed, y.page_seed);
            assert_eq!(x.services, y.services);
        }
        let pa = a.page_for(&a.sites()[0]);
        let pb = b.page_for(&b.sites()[0]);
        assert_eq!(pa, pb);
    }

    #[test]
    fn success_rate_plausible() {
        let d = small();
        let ok = d.successful_sites().count();
        let rate = ok as f64 / d.sites().len() as f64;
        assert!((0.55..=0.75).contains(&rate), "success rate {rate}");
    }

    #[test]
    fn hosting_shares_roughly_match() {
        let d = Dataset::generate(DatasetConfig {
            sites: 3_000,
            tranco_total: 500_000,
            seed: 7,
            ..Default::default()
        });
        let cf = d.sites().iter().filter(|s| s.provider == Some(1)).count() as f64
            / d.sites().len() as f64;
        assert!((0.21..=0.29).contains(&cf), "cloudflare share {cf}");
        let self_hosted = d.sites().iter().filter(|s| s.provider.is_none()).count() as f64
            / d.sites().len() as f64;
        assert!(self_hosted > 0.4, "self-hosted share {self_hosted}");
    }

    #[test]
    fn pages_have_root_and_budgeted_requests() {
        let d = small();
        let site = d.sites().iter().find(|s| !s.failed).unwrap();
        let page = d.page_for(site);
        assert_eq!(page.resources[0].content_type, ContentType::Html);
        assert_eq!(page.host_of(&page.resources[0]), &site.root_host);
        // Budget is approximate (hosts each get ≥1) but close.
        let n = (page.resources.len() - 1) as u32;
        assert!(
            n >= site.n_requests.min(3),
            "n={n} budget={}",
            site.n_requests
        );
    }

    #[test]
    fn page_hosts_resolve_in_universe() {
        let d = small();
        let site = d.sites().iter().find(|s| !s.failed).unwrap().clone();
        let page = d.page_for(&site);
        let mut rng = SimRng::seed_from_u64(1);
        for host in &page.hosts {
            let ans = d
                .universe
                .zones
                .resolve_shared(host, &mut Default::default(), &mut rng);
            assert!(ans.is_some(), "unresolvable host {host}");
            assert_ne!(d.universe.asn_of_host(host), 0);
        }
    }

    /// A host's AS is read off its first registered address, so every
    /// address a host registers must carry the AS it was generated
    /// with: its site's, or its service's.
    #[test]
    fn every_registered_address_carries_its_hosts_as() {
        let d = Dataset::generate(DatasetConfig {
            sites: 2_000,
            legacy_share: 0.25,
            h3_share: 0.5,
            ..Default::default()
        });
        let u = &d.universe;
        let check = |host: &DnsName, asn: u32| {
            assert_ne!(asn, 0, "{host}");
            assert_eq!(u.asn_of_host(host), asn, "{host}");
            for ip in u.zones.registered(host).expect("registered") {
                assert_eq!(u.asn_of_ip(ip), asn, "{host} {ip}");
            }
        };
        for svc in SERVICES.iter() {
            check(&name(svc.host), PROVIDERS[svc.provider].asn);
        }
        for s in d.sites() {
            for host in std::iter::once(&s.root_host).chain(s.shard_hosts.iter()) {
                check(host, s.asn);
            }
            for svc in s.services.iter() {
                check(&svc.host(), svc.asn());
            }
        }
    }

    #[test]
    fn site_certs_cover_root() {
        let d = small();
        for site in d.successful_sites().take(50) {
            let cert = d.universe.cert_for(&site.root_host).expect("site cert");
            // Sites with SAN-less certs (Table 8's zero bucket) exist.
            if cert.san_count() > 0 {
                assert!(cert.covers(&site.root_host));
            }
        }
    }

    #[test]
    fn fonts_are_cors_anonymous_in_pages() {
        let d = small();
        let mut seen_font = false;
        for site in d.successful_sites().take(40) {
            let page = d.page_for(site);
            for r in &page.resources {
                if r.content_type.is_font() {
                    seen_font = true;
                    assert_eq!(r.fetch_mode, FetchMode::CorsAnonymous);
                }
            }
        }
        assert!(seen_font, "no fonts generated in 40 pages");
    }

    #[test]
    fn discovery_order_leads_with_group_heads() {
        // The head-of-document pattern: the first requests contact
        // each AS group once before the long tail of subresources.
        let d = small();
        for site in d.successful_sites().take(20) {
            let page = d.page_for(site);
            let mut groups_seen = std::collections::HashSet::new();
            let mut all_groups = std::collections::HashSet::new();
            for r in &page.resources {
                all_groups.insert(d.universe.asn_of_host(page.host_of(r)));
            }
            let prefix = all_groups.len() + 2;
            for r in page.resources.iter().take(prefix) {
                groups_seen.insert(d.universe.asn_of_host(page.host_of(r)));
            }
            assert!(
                groups_seen.len() >= all_groups.len().saturating_sub(1),
                "rank {}: {} of {} groups in the first {prefix} requests",
                site.rank,
                groups_seen.len(),
                all_groups.len()
            );
        }
    }

    #[test]
    fn pages_have_discovery_chains() {
        // Deep discovery chains are what make setup time removable on
        // the critical path; the generator must produce them.
        let d = small();
        let mut max_depth = 0;
        for site in d.successful_sites().take(20) {
            let page = d.page_for(site);
            // Root = 0; a resource is one deeper than what discovered
            // it, or than the root when nothing did (parents come first).
            let mut depth = vec![0usize; page.resources.len()];
            for (i, r) in page.resources.iter().enumerate().skip(1) {
                depth[i] = r.discovered_by.map_or(1, |p| depth[p] + 1);
            }
            max_depth = max_depth.max(depth.into_iter().max().unwrap_or(0));
        }
        assert!(max_depth >= 5, "max discovery depth {max_depth}");
    }

    #[test]
    fn fonts_discovered_through_css() {
        let d = small();
        let mut checked = 0;
        for site in d.successful_sites().take(30) {
            let page = d.page_for(site);
            for r in &page.resources {
                if r.content_type.is_font() {
                    if let Some(p) = r.discovered_by {
                        if page.resources[p].content_type == ContentType::Css {
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 0, "no css→font discovery chains generated");
    }

    #[test]
    fn service_as_targets_respected() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut scratch = GenScratch::default();
        pick_services(&mut rng, 6, &mut scratch);
        let ases: std::collections::HashSet<u32> =
            scratch.services.iter().map(|s| s.asn()).collect();
        assert!(
            ases.len() >= 4,
            "wanted ~5 third-party ASes, got {}",
            ases.len()
        );
        pick_services(&mut rng, 1, &mut scratch);
        assert!(scratch.services.is_empty());
    }

    /// A shard on its root's addresses holds the root's set, not a
    /// copy of it; a service reference is a tag and an index.
    #[test]
    fn shards_sharing_an_address_set_share_its_storage() {
        assert_eq!(std::mem::size_of::<ServiceRef>(), 8);
        let d = small();
        let zones = &d.universe.zones;
        let mut shared = 0;
        for s in d.sites() {
            let root = zones.registered(&s.root_host).unwrap().as_ptr();
            for shard in s.shard_hosts.iter() {
                let same = zones.registered(shard).unwrap().as_ptr() == root;
                assert_eq!(same, s.shards_share_ip, "{shard}");
                shared += u32::from(same);
            }
        }
        assert!(shared > 50, "{shared} shards on their root's set");
    }

    /// Every path a mixed universe renders, pinned: the digest was
    /// recorded while `Resource` still carried the `String` the
    /// generator formatted. A legacy page re-homes first-party assets
    /// onto shards *after* their paths were fixed, so a path rendered
    /// from the serving host instead of the placing slot changes
    /// HTTP/1.1 request-line bytes — and this digest.
    #[test]
    fn rendered_paths_are_pinned() {
        let d = Dataset::generate(DatasetConfig {
            sites: 400,
            legacy_share: 0.25,
            h3_share: 0.5,
            ..Default::default()
        });
        let mut text = String::new();
        let mut path = String::new();
        let (mut legacy_pages, mut rehomed) = (0, 0);
        for site in d.successful_sites() {
            let page = d.page_for(site);
            legacy_pages += u32::from(page.legacy);
            for r in &page.resources {
                let host = page.host_of(r);
                text.push_str(host.as_str());
                text.push_str(r.render_path(&page.hosts, &mut path));
                text.push('\n');
                let label = host.labels().next().unwrap();
                rehomed += u32::from(path != "/" && !path.starts_with(&format!("/{label}/")));
            }
        }
        assert_eq!((legacy_pages, rehomed), (75, 1696));
        assert_eq!(
            origin_netsim::hash::fnv1a64(text.as_bytes()),
            0x6ee1_4df9_9aed_021f
        );
    }

    /// Scratch reuse must be observationally invisible: pages built
    /// through one recycled [`PageScratch`] are identical to pages
    /// built with a fresh scratch each call (which is what
    /// [`Dataset::page_for`] does).
    #[test]
    fn scratch_reuse_is_output_invisible() {
        let d = small();
        let mut scratch = PageScratch::new();
        for site in d.sites().iter().filter(|s| !s.failed).take(25) {
            let fresh = d.page_for(site);
            let reused = d.page_for_with(site, &mut scratch);
            assert_eq!(reused, fresh, "site {}", site.rank);
            scratch.recycle(reused);
        }
    }
}
