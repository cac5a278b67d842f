//! Caching stub resolver with per-transport privacy accounting.

use crate::name::DnsName;
use crate::zone::{Answer, SerialKey, ZoneSet};
use origin_netsim::hash::FxHashMap;
use origin_netsim::{SimDuration, SimRng, SimTime};
use origin_telemetry::trace::{Arg, Site, Tracer};

/// The transport a client uses for its DNS queries. The paper's
/// privacy argument (§6.2) is that every coalesced connection hides at
/// least one query "if transmitted over UDP or TCP on port 53" —
/// plaintext transports leak, encrypted ones don't.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Classic cleartext DNS over UDP/TCP port 53.
    Udp53,
    /// DNS over TLS (RFC 7858).
    DoT,
    /// DNS over HTTPS (RFC 8484).
    DoH,
}

impl Transport {
    /// Whether queries over this transport are visible on-path.
    pub fn is_plaintext(self) -> bool {
        matches!(self, Transport::Udp53)
    }

    /// The variant's name, as trace events label it.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Udp53 => "Udp53",
            Transport::DoT => "DoT",
            Transport::DoH => "DoH",
        }
    }
}

/// Counters describing the resolver's work; the experiment harness
/// reads these to report DNS-query reductions and privacy exposure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries answered from cache.
    pub cache_hits: u64,
    /// Queries that went to the network.
    pub network_queries: u64,
    /// Network queries sent in cleartext (subset of `network_queries`).
    pub plaintext_queries: u64,
    /// Queries that returned NXDOMAIN.
    pub nxdomain: u64,
}

impl ResolverStats {
    /// Total lookups served (cache hits plus network queries).
    pub fn lookups(&self) -> u64 {
        self.cache_hits + self.network_queries
    }

    /// Export the counters into a metrics registry under `dns.*`.
    pub fn record_into(&self, metrics: &mut origin_telemetry::metrics::Registry) {
        metrics.add("dns.lookups", self.lookups());
        metrics.add("dns.cache_hits", self.cache_hits);
        metrics.add("dns.cache_misses", self.network_queries);
        metrics.add("dns.plaintext_queries", self.plaintext_queries);
        metrics.add("dns.nxdomain", self.nxdomain);
    }

    /// Feed the resolver's per-visit counters into a streaming
    /// observation (the stats must already be a visit delta, as
    /// returned by a freshly flushed resolver).
    pub fn record_obs(&self, obs: &mut origin_telemetry::obs::VisitObs) {
        obs.dns_queries += self.lookups();
        obs.dns_cache_hits += self.cache_hits;
        obs.dns_cache_misses += self.network_queries;
    }
}

/// The result of one resolution.
///
/// Addresses are a shared slice: the zone's answer (the registered set
/// itself unless rotation reordered it), which the cache and every
/// cache hit hand out again instead of copying the address list, and
/// which the browser's connection pool keeps as each connection's
/// available set. The slice is immutable, so sharing is
/// observationally identical to cloning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAnswer {
    /// Resolved addresses (answer order as returned by the authority
    /// or as cached).
    pub addresses: std::sync::Arc<[std::net::IpAddr]>,
    /// Whether this answer came from cache (no network query).
    pub from_cache: bool,
    /// Time the lookup took (zero for cache hits).
    pub latency: SimDuration,
}

struct CacheEntry {
    addresses: std::sync::Arc<[std::net::IpAddr]>,
    expires: SimTime,
}

/// The mutable half of a caching stub resolver: cache, rotation
/// serials, transport and latency model, and counters — everything a
/// resolver *session* owns, with the authoritative [`ZoneSet`]
/// borrowed read-only at each query.
///
/// This split is what lets many sessions (one per crawl worker)
/// resolve against one shared zone set concurrently: the zones never
/// mutate; every session carries its own `ResolverState`.
///
/// Latency model: cache hits are free; network queries cost one
/// resolver round trip (configurable base latency with exponential
/// tail jitter, reflecting real-world recursive lookup behaviour).
pub struct ResolverState {
    /// Keyed by the queried name itself (a refcount bump on the caller's
    /// `DnsName`), so a flush leaves no name behind: a session reused
    /// across a whole crawl stays as small as its largest visit.
    cache: FxHashMap<DnsName, CacheEntry>,
    /// Per-session round-robin serials overlaying the shared zones.
    serials: FxHashMap<SerialKey, u32>,
    /// Transport used for network queries.
    pub transport: Transport,
    /// Base network-lookup latency.
    pub base_latency: SimDuration,
    /// Mean of the exponential tail added to `base_latency`.
    pub tail_mean_ms: f64,
    stats: ResolverStats,
}

impl ResolverState {
    /// A fresh session with a 30 ms base lookup cost and a 60 ms-mean
    /// exponential tail — a cold recursive resolver doing upstream
    /// work, as the paper's cache-flushed crawls saw.
    pub fn new(transport: Transport) -> Self {
        ResolverState {
            cache: FxHashMap::default(),
            serials: FxHashMap::default(),
            transport,
            base_latency: SimDuration::from_millis(30),
            tail_mean_ms: 60.0,
            stats: ResolverStats::default(),
        }
    }

    /// Replace the latency model.
    pub fn with_latency(mut self, base: SimDuration, tail_mean_ms: f64) -> Self {
        self.base_latency = base;
        self.tail_mean_ms = tail_mean_ms;
        self
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Reset counters (cache is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = ResolverStats::default();
    }

    /// Drop all session state (cache and rotation serials) — the
    /// paper's active measurements start every page load with a fresh
    /// browser session to "eliminate DNS and resource caching effects"
    /// (§3.1).
    pub fn flush_cache(&mut self) {
        self.cache.clear();
        self.serials.clear();
    }

    /// `(keys held, capacity retained)` of the cache and the serials.
    #[doc(hidden)]
    pub fn footprint(&self) -> [(usize, usize); 2] {
        [
            (self.cache.len(), self.cache.capacity()),
            (self.serials.len(), self.serials.capacity()),
        ]
    }

    /// Resolve `name` against `zones` at simulated time `now`.
    ///
    /// Returns `None` on NXDOMAIN. Cache entries expire strictly after
    /// their TTL. With a tracer, each query leaves one event: a
    /// `dns.cache_hit` instant, a `dns.query` complete span (duration =
    /// simulated lookup latency) or a `dns.nxdomain` instant.
    pub fn resolve(
        &mut self,
        zones: &ZoneSet,
        name: &DnsName,
        now: SimTime,
        rng: &mut SimRng,
        tracer: Option<&mut Tracer>,
    ) -> Option<QueryAnswer> {
        static CACHE_HIT: Site = Site::new("dns.cache_hit", "dns", &["name"]);
        static QUERY: Site = Site::new(
            "dns.query",
            "dns",
            &["name", "transport", "plaintext", "answers"],
        );
        static NXDOMAIN: Site = Site::new("dns.nxdomain", "dns", &["name"]);
        let (at, host) = (now.as_micros(), Arg::Str(name.as_str()));
        if let Some(entry) = self.cache.get(name) {
            if entry.expires > now {
                self.stats.cache_hits += 1;
                if let Some(t) = tracer {
                    t.instant_at(&CACHE_HIT, at, &[host]);
                }
                return Some(QueryAnswer {
                    addresses: entry.addresses.clone(),
                    from_cache: true,
                    latency: SimDuration::ZERO,
                });
            }
            self.cache.remove(name);
        }
        self.stats.network_queries += 1;
        if self.transport.is_plaintext() {
            self.stats.plaintext_queries += 1;
        }
        let latency = self.network_latency(rng);
        let Some(Answer {
            addresses,
            ttl_secs,
        }) = zones.resolve_shared(name, &mut self.serials, rng)
        else {
            self.stats.nxdomain += 1;
            if let Some(t) = tracer {
                t.instant_at(&NXDOMAIN, at, &[host]);
            }
            return None;
        };
        if let Some(t) = tracer {
            t.complete(
                &QUERY,
                at,
                latency.as_micros(),
                &[
                    host,
                    Arg::Str(self.transport.name()),
                    Arg::Bool(self.transport.is_plaintext()),
                    Arg::U64(addresses.len() as u64),
                ],
            );
        }
        self.cache.insert(
            name.clone(),
            CacheEntry {
                addresses: addresses.clone(),
                expires: now + SimDuration::from_secs(ttl_secs as u64),
            },
        );
        Some(QueryAnswer {
            addresses,
            from_cache: false,
            latency,
        })
    }

    fn network_latency(&self, rng: &mut SimRng) -> SimDuration {
        let tail = if self.tail_mean_ms > 0.0 {
            rng.exponential(self.tail_mean_ms)
        } else {
            0.0
        };
        self.base_latency + SimDuration::from_millis_f64(tail)
    }
}

/// A caching stub resolver owning its [`ZoneSet`] — the convenient
/// single-threaded wrapper around [`ResolverState`].
pub struct Resolver {
    zones: ZoneSet,
    state: ResolverState,
}

impl Resolver {
    /// Create a resolver over `zones`; see [`ResolverState::new`] for
    /// the latency defaults.
    pub fn new(zones: ZoneSet, transport: Transport) -> Self {
        Resolver {
            zones,
            state: ResolverState::new(transport),
        }
    }

    /// Replace the latency model.
    pub fn with_latency(mut self, base: SimDuration, tail_mean_ms: f64) -> Self {
        self.state = self.state.with_latency(base, tail_mean_ms);
        self
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ResolverStats {
        self.state.stats()
    }

    /// Reset counters (cache is preserved).
    pub fn reset_stats(&mut self) {
        self.state.reset_stats();
    }

    /// Drop all cached entries and rotation state.
    pub fn flush_cache(&mut self) {
        self.state.flush_cache();
    }

    /// Transport used for network queries.
    pub fn transport(&self) -> Transport {
        self.state.transport
    }

    /// Resolve `name` at simulated time `now`; see
    /// [`ResolverState::resolve`].
    pub fn resolve(
        &mut self,
        name: &DnsName,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<QueryAnswer> {
        self.state.resolve(&self.zones, name, now, rng, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use crate::record::{v4, RecordSet};

    fn setup() -> (Resolver, SimRng) {
        let mut zones = ZoneSet::new();
        zones.insert(
            name("www.example.com"),
            RecordSet::new(vec![v4(10, 0, 0, 1)], 60),
        );
        (
            Resolver::new(zones, Transport::Udp53).with_latency(SimDuration::from_millis(15), 0.0),
            SimRng::seed_from_u64(7),
        )
    }

    #[test]
    fn network_then_cache() {
        let (mut r, mut rng) = setup();
        let t0 = SimTime::ZERO;
        let a1 = r.resolve(&name("www.example.com"), t0, &mut rng).unwrap();
        assert!(!a1.from_cache);
        assert_eq!(a1.latency, SimDuration::from_millis(15));
        let a2 = r
            .resolve(
                &name("www.example.com"),
                t0 + SimDuration::from_secs(1),
                &mut rng,
            )
            .unwrap();
        assert!(a2.from_cache);
        assert_eq!(a2.latency, SimDuration::ZERO);
        let s = r.stats();
        assert_eq!(s.network_queries, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.plaintext_queries, 1);
    }

    #[test]
    fn ttl_expiry_forces_requery() {
        let (mut r, mut rng) = setup();
        r.resolve(&name("www.example.com"), SimTime::ZERO, &mut rng)
            .unwrap();
        // 61 s later the 60 s TTL has lapsed.
        let a = r
            .resolve(&name("www.example.com"), SimTime::from_secs(61), &mut rng)
            .unwrap();
        assert!(!a.from_cache);
        assert_eq!(r.stats().network_queries, 2);
    }

    #[test]
    fn nxdomain_counts() {
        let (mut r, mut rng) = setup();
        assert!(r
            .resolve(&name("missing.example.com"), SimTime::ZERO, &mut rng)
            .is_none());
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn encrypted_transport_not_plaintext() {
        let mut zones = ZoneSet::new();
        zones.insert(name("x.com"), RecordSet::single(v4(1, 1, 1, 1)));
        let mut r = Resolver::new(zones, Transport::DoH);
        let mut rng = SimRng::seed_from_u64(1);
        r.resolve(&name("x.com"), SimTime::ZERO, &mut rng);
        assert_eq!(r.stats().network_queries, 1);
        assert_eq!(r.stats().plaintext_queries, 0);
        assert!(!Transport::DoT.is_plaintext());
        assert!(Transport::Udp53.is_plaintext());
    }

    #[test]
    fn flush_cache_forces_requery() {
        let (mut r, mut rng) = setup();
        r.resolve(&name("www.example.com"), SimTime::ZERO, &mut rng)
            .unwrap();
        r.flush_cache();
        let a = r
            .resolve(&name("www.example.com"), SimTime::from_secs(1), &mut rng)
            .unwrap();
        assert!(!a.from_cache);
    }

    #[test]
    fn latency_tail_adds() {
        let mut zones = ZoneSet::new();
        zones.insert(name("x.com"), RecordSet::single(v4(1, 1, 1, 1)));
        let mut r =
            Resolver::new(zones, Transport::Udp53).with_latency(SimDuration::from_millis(15), 10.0);
        let mut rng = SimRng::seed_from_u64(2);
        let a = r.resolve(&name("x.com"), SimTime::ZERO, &mut rng).unwrap();
        assert!(a.latency >= SimDuration::from_millis(15));
    }
}
