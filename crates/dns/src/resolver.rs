//! Caching stub resolver with plaintext (port-53) privacy accounting.

use crate::name::DnsName;
use crate::zone::{Answer, SerialKey, ZoneSet};
use origin_netsim::hash::FxHashMap;
use origin_netsim::{SimDuration, SimRng, SimTime};
use origin_telemetry::trace::{Arg, Site, Tracer};

/// Counters describing the resolver's work; the experiment harness
/// reads these to report DNS-query reductions and privacy exposure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries answered from cache.
    pub cache_hits: u64,
    /// Queries that went to the network.
    pub network_queries: u64,
    /// Network queries sent in cleartext: every network query, since
    /// sessions resolve over port 53 (§6.2's on-path exposure).
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

/// Base cost of a network lookup: one round trip to a cold recursive
/// resolver doing upstream work, as the paper's cache-flushed crawls
/// saw.
const BASE_LATENCY: SimDuration = SimDuration::from_millis(30);
/// Mean of the exponential tail added to [`BASE_LATENCY`].
const TAIL_MEAN_MS: f64 = 60.0;

/// A caching stub resolver session: cache, rotation serials and
/// counters, with the authoritative [`ZoneSet`] borrowed read-only at
/// each query.
///
/// This split is what lets many sessions (one per crawl worker)
/// resolve against one shared zone set concurrently: the zones never
/// mutate; every session carries its own `ResolverState`.
///
/// Queries go over plaintext port 53. Cache hits are free; a network
/// query costs a 30 ms base plus a 60 ms-mean exponential tail.
#[derive(Default)]
pub struct ResolverState {
    /// Keyed by the queried name itself (a refcount bump on the caller's
    /// `DnsName`), so a flush leaves no name behind: a session reused
    /// across a whole crawl stays as small as its largest visit.
    cache: FxHashMap<DnsName, CacheEntry>,
    /// Per-session round-robin serials overlaying the shared zones.
    serials: FxHashMap<SerialKey, u32>,
    stats: ResolverStats,
}

impl ResolverState {
    /// A fresh, cold session.
    pub fn new() -> Self {
        Self::default()
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
        self.stats.plaintext_queries += 1;
        let latency = BASE_LATENCY + SimDuration::from_millis_f64(rng.exponential(TAIL_MEAN_MS));
        let Some(Answer {
            addresses,
            ttl_secs,
        }) = zones.resolve_shared(name, &mut self.serials)
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
                    Arg::Str("Udp53"),
                    Arg::Bool(true),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use crate::record::{v4, RecordSet};

    fn setup() -> (ZoneSet, ResolverState, SimRng) {
        let mut zones = ZoneSet::new();
        zones.insert(
            name("www.example.com"),
            RecordSet::new(vec![v4(10, 0, 0, 1)], 60),
        );
        (zones, ResolverState::new(), SimRng::seed_from_u64(7))
    }

    #[test]
    fn network_then_cache() {
        let (zones, mut r, mut rng) = setup();
        let www = name("www.example.com");
        let a1 = r
            .resolve(&zones, &www, SimTime::ZERO, &mut rng, None)
            .unwrap();
        assert!(!a1.from_cache);
        assert!(a1.latency >= BASE_LATENCY, "{:?}", a1.latency);
        let a2 = r
            .resolve(&zones, &www, SimTime::from_secs(1), &mut rng, None)
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
        let (zones, mut r, mut rng) = setup();
        let www = name("www.example.com");
        r.resolve(&zones, &www, SimTime::ZERO, &mut rng, None)
            .unwrap();
        // 61 s later the 60 s TTL has lapsed.
        let a = r
            .resolve(&zones, &www, SimTime::from_secs(61), &mut rng, None)
            .unwrap();
        assert!(!a.from_cache);
        assert_eq!(r.stats().network_queries, 2);
        assert_eq!(r.stats().plaintext_queries, 2);
    }

    #[test]
    fn nxdomain_counts() {
        let (zones, mut r, mut rng) = setup();
        let missing = name("missing.example.com");
        assert!(r
            .resolve(&zones, &missing, SimTime::ZERO, &mut rng, None)
            .is_none());
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn flush_cache_forces_requery() {
        let (zones, mut r, mut rng) = setup();
        let www = name("www.example.com");
        r.resolve(&zones, &www, SimTime::ZERO, &mut rng, None)
            .unwrap();
        r.flush_cache();
        let a = r
            .resolve(&zones, &www, SimTime::from_secs(1), &mut rng, None)
            .unwrap();
        assert!(!a.from_cache);
    }

    #[test]
    fn latency_is_the_base_plus_one_exponential_draw() {
        let (zones, mut r, mut rng) = setup();
        let mut twin = SimRng::seed_from_u64(7);
        let a = r
            .resolve(
                &zones,
                &name("www.example.com"),
                SimTime::ZERO,
                &mut rng,
                None,
            )
            .unwrap();
        let tail = SimDuration::from_millis_f64(twin.exponential(TAIL_MEAN_MS));
        assert_eq!(a.latency, BASE_LATENCY + tail);
        assert_eq!(rng.next_u64(), twin.next_u64());
    }
}
