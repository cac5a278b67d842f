//! The browser connection pool.
//!
//! A pool holds one page's connections, a few dozen at most, so it is
//! that list in opening order plus a 421 denylist, and every decision
//! walks the list. The coalescing rule is stated once, as that walk's
//! gates (`ConnectionPool::candidates`): [`ConnectionPool::decide`]
//! takes the first candidate that can carry the request, and
//! [`ConnectionPool::redundant_if_h2`] asks whether there is any. The
//! tests keep the original full-scan decision as the reference the
//! walk must match on randomized pools.
//!
//! A cleared pool holds capacity and no keys: it is as large as its
//! worker's largest visit, never as large as the crawl (DESIGN.md §10).

use crate::policy::BrowserKind;
use origin_dns::DnsName;
use origin_h2::OriginSet;
use origin_tls::Certificate;
use origin_web::{FetchMode, Protocol};
use std::net::IpAddr;

/// The classic browser cap on parallel HTTP/1.1 connections to one
/// host — the reason legacy sites domain-shard their assets. The
/// loader passes it to [`ConnectionPool::decide`], which enforces it.
pub(crate) const MAX_H1_CONNECTIONS_PER_HOST: u32 = 6;

/// Connection pools are partitioned by credentials mode: a CORS-
/// anonymous or programmatic (XHR/fetch) request never rides a
/// credentialed element-fetch connection — the behaviour that capped
/// the paper's §5.3 deployment gains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolPartition {
    /// Credentialed element fetches.
    Default,
    /// CORS-anonymous fetches (fonts, `crossorigin=anonymous`).
    Anonymous,
    /// Programmatic XHR / `fetch()` traffic.
    Programmatic,
}

impl From<FetchMode> for PoolPartition {
    fn from(m: FetchMode) -> Self {
        match m {
            FetchMode::Normal => PoolPartition::Default,
            FetchMode::CorsAnonymous => PoolPartition::Anonymous,
            FetchMode::XhrFetch => PoolPartition::Programmatic,
        }
    }
}

/// One pooled connection.
#[derive(Debug, Clone)]
pub struct PooledConnection {
    /// Hostname the connection was opened for (TLS SNI).
    pub host: DnsName,
    /// The established (connected) address.
    pub ip: IpAddr,
    /// The full DNS answer set observed when connecting — Firefox
    /// keeps this *available set* and uses it for transitive
    /// matching; Chromium keeps only `ip`.
    pub available_set: std::sync::Arc<[IpAddr]>,
    /// Certificate the server presented.
    pub cert: std::sync::Arc<Certificate>,
    /// Origin set advertised via ORIGIN frame, if any. Shared: an
    /// environment hands every connection under one certificate the
    /// same set. The connected host belongs to it whether listed or
    /// not: a server advertises at least the origin it was reached as.
    pub origin_set: Option<std::sync::Arc<OriginSet>>,
    /// Negotiated protocol.
    pub protocol: Protocol,
    /// Pool partition.
    pub partition: PoolPartition,
    /// Bytes transferred so far (drives the warm-cwnd estimate).
    pub bytes_transferred: u64,
    /// Always 0: nothing increments it, and an HTTP/1.1 connection's
    /// occupancy is `busy_until` alone. It stays only because the
    /// frozen harness under `benchmark/` builds this struct as a
    /// literal that names it.
    pub in_flight: u32,
    /// Time (ms from navigation start) this connection finishes its
    /// current response — HTTP/1.1 connections serialize requests.
    pub busy_until: f64,
    /// The peer closed the connection (an HTTP/1.1 close-delimited
    /// response or `Connection: close`). A closed connection is never
    /// reused and no longer occupies a per-host slot; always `false`
    /// for h2 connections, so the pure-h2 universe never consults it.
    pub closed: bool,
    /// The connection runs over QUIC (an h3 upgrade). QUIC
    /// multiplexes like h2 and coalesces by certificate/IP the same
    /// way, but carries no ORIGIN frame (RFC 8336 is h2-only), so
    /// `origin_set` is always `None` for it. The pool never reads this
    /// flag; only the loader's transfer does, to drive the connection's
    /// QPACK encoder. Always `false` outside an h3 universe.
    pub quic: bool,
}

impl PooledConnection {
    /// Can this connection multiplex (HTTP/2)?
    pub fn multiplexes(&self) -> bool {
        self.protocol == Protocol::H2
    }

    /// Did this connection's ORIGIN frame name `host`? The connected
    /// host counts as named on any connection that sent one — a server
    /// advertises at least the origin it was reached as — so a shared
    /// per-certificate set need not list it (a host only a wildcard
    /// SAN covers never is).
    fn origin_frame_allows(&self, host: &DnsName) -> bool {
        self.origin_set
            .as_ref()
            .is_some_and(|s| *host == self.host || s.allows_https_host(host.as_str()))
    }

    /// The rule under which `policy` may put `host` (DNS answer
    /// `addrs`) here, most specific first: an ORIGIN-frame entry, the
    /// connected address, or (transitively) any available-set address.
    /// The §4 ideal-ORIGIN model assumes perfect deployment, so it
    /// needs none of them. `None`: the policy finds no evidence.
    #[inline]
    fn evidence(
        &self,
        policy: BrowserKind,
        host: &DnsName,
        addrs: &[IpAddr],
    ) -> Option<&'static str> {
        if policy.uses_origin_frame() && self.origin_frame_allows(host) {
            return Some("origin-frame");
        }
        let exact = || addrs.contains(&self.ip);
        match policy {
            BrowserKind::Chromium => exact().then_some("ip-exact"),
            BrowserKind::Firefox | BrowserKind::FirefoxOrigin | BrowserKind::IdealIp => {
                let overlap = self.available_set.iter().any(|a| addrs.contains(a));
                overlap.then(|| if exact() { "ip-exact" } else { "ip-transitive" })
            }
            BrowserKind::IdealOrigin if exact() => Some("ip-exact"),
            BrowserKind::IdealOrigin => Some("model-colocation"),
        }
    }
}

/// How a request got (or didn't get) a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseDecision {
    /// Reuse an existing same-host connection (ordinary keep-alive).
    SameHost(usize),
    /// Coalesce onto a connection opened for a different host, under
    /// the named rule (`origin-frame`, `ip-exact`, `ip-transitive` or
    /// `model-colocation`).
    Coalesce(usize, &'static str),
    /// Open a new connection.
    New,
}

/// The §4 ideal models are structural: they count connections per
/// service and are blind to pool partitions, HTTP/1.1 serialization,
/// timing and certificates — "the number of TLS handshakes is equal to
/// the number of separate services" (§4.2).
fn is_ideal(policy: BrowserKind) -> bool {
    matches!(policy, BrowserKind::IdealIp | BrowserKind::IdealOrigin)
}

/// The pool and its reuse logic: one page's connections in opening
/// order, and the `(host, connection)` mappings a `421 Misdirected
/// Request` barred from coalescing for the rest of the page load
/// (mirrors Firefox's 421 handling). Same-host reuse ignores the
/// denylist: a 421 indicts the mapping, not the connection.
#[derive(Debug, Default)]
pub struct ConnectionPool {
    conns: Vec<PooledConnection>,
    evicted: Vec<(DnsName, u32)>,
}

impl ConnectionPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pooled connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// All connections.
    pub fn connections(&self) -> &[PooledConnection] {
        &self.conns
    }

    /// Mutable access to one connection.
    pub fn get_mut(&mut self, idx: usize) -> &mut PooledConnection {
        &mut self.conns[idx]
    }

    /// Empty the pool for the next page visit: keys go, capacity stays.
    /// Costs what the visit just finished put in, whatever the worker
    /// crawled before; no decision can tell the result from a fresh pool.
    pub fn clear(&mut self) {
        self.conns.clear();
        self.evicted.clear();
    }

    /// Insert a connection; returns its index.
    pub fn insert(&mut self, conn: PooledConnection) -> usize {
        self.conns.push(conn);
        self.conns.len() - 1
    }

    /// Record a `421 Misdirected Request` for `host` on connection
    /// `idx`: that coalesced mapping is evicted, and neither
    /// [`ConnectionPool::decide`] nor [`ConnectionPool::redundant_if_h2`]
    /// offers it again. The caller replays the request, normally on a
    /// dedicated connection.
    pub fn evict_coalesce(&mut self, host: &DnsName, idx: usize) {
        let idx = u32::try_from(idx).expect("pool outgrew u32 indices");
        if !self.is_evicted(host, idx) {
            self.evicted.push((host.clone(), idx));
        }
    }

    fn is_evicted(&self, host: &DnsName, idx: u32) -> bool {
        self.evicted.iter().any(|(h, i)| *i == idx && h == host)
    }

    /// The connections opened for `host` (TLS SNI), in opening order.
    fn same_host<'a>(
        &'a self,
        host: &'a DnsName,
    ) -> impl Iterator<Item = (usize, &'a PooledConnection)> + 'a {
        self.conns
            .iter()
            .enumerate()
            .filter(move |(_, c)| c.host == *host)
    }

    /// The connections `policy` may coalesce `host` onto, in opening
    /// order, each with the rule that admits it. A connection passes,
    /// cheapest gate first: the partition (real policies only), the
    /// policy's evidence, the certificate's coverage of `host` (real
    /// policies only: the §4 ideal models assume the least-effort SAN
    /// modifications are applied), the 421 denylist, and the server's
    /// colocation. Every gate is a pure predicate, so their order
    /// cannot change which connection comes first or its rule.
    /// Protocol state is the caller's gate.
    fn candidates<'a>(
        &'a self,
        policy: BrowserKind,
        host: &'a DnsName,
        addrs: &'a [IpAddr],
        partition: PoolPartition,
        colocated: &'a impl Fn(&DnsName) -> bool,
    ) -> impl Iterator<Item = (usize, &'static str)> + 'a {
        let ideal = is_ideal(policy);
        self.conns.iter().enumerate().filter_map(move |(i, c)| {
            if !ideal && c.partition != partition {
                return None;
            }
            let rule = c.evidence(policy, host, addrs)?;
            let admitted = (ideal || c.cert.covers(host))
                && !self.is_evicted(host, i as u32)
                && colocated(&c.host);
            admitted.then_some((i, rule))
        })
    }

    /// Decide how a request to `host` (with DNS answer `addrs`, in
    /// `partition`) gets a connection under `policy`.
    ///
    /// `colocated(conn_host)` must answer whether the server behind a
    /// pooled connection can serve `host` without a 421; it
    /// represents the server-side half of the decision that the
    /// client cannot see but experiences as an error + retry.
    #[allow(clippy::too_many_arguments)] // one decision, eight independent inputs
    pub fn decide(
        &self,
        policy: BrowserKind,
        host: &DnsName,
        addrs: &[IpAddr],
        partition: PoolPartition,
        max_h1_per_host: u32,
        start: f64,
        colocated: impl Fn(&DnsName) -> bool,
    ) -> ReuseDecision {
        let ideal = is_ideal(policy);

        // 1. Same-host reuse (keep-alive): H2 always multiplexes; an
        //    H1.1 connection is only reusable when idle.
        let mut h1_same_host = 0u32;
        for (i, c) in self.same_host(host) {
            if c.closed || (!ideal && c.partition != partition) {
                continue;
            }
            if c.multiplexes() || ideal {
                return ReuseDecision::SameHost(i);
            }
            h1_same_host += 1;
            if c.busy_until <= start {
                return ReuseDecision::SameHost(i);
            }
        }
        if h1_same_host >= max_h1_per_host {
            // All six H1.1 slots busy: queue behind the least loaded
            // (modelled as same-host reuse with blocking charged by
            // the loader).
            if let Some((i, _)) = self
                .same_host(host)
                .filter(|(_, c)| !c.closed && c.partition == partition)
                .min_by(|(_, a), (_, b)| {
                    a.busy_until
                        .partial_cmp(&b.busy_until)
                        .expect("finite times")
                })
            {
                return ReuseDecision::SameHost(i);
            }
        }

        // 2. Cross-host coalescing: the first candidate whose protocol
        //    can carry the request (real browsers coalesce only onto
        //    multiplexing connections).
        self.candidates(policy, host, addrs, partition, &colocated)
            .find(|&(i, _)| {
                let c = &self.conns[i];
                !c.closed && (ideal || c.multiplexes())
            })
            .map_or(ReuseDecision::New, |(i, rule)| {
                ReuseDecision::Coalesce(i, rule)
            })
    }

    /// Would `policy`'s **h2** rules have merged a request to `host`
    /// onto an existing connection, had every pooled connection
    /// multiplexed? Called just before a legacy HTTP/1.1 connection
    /// opens, this counts the *redundant connections* of Sander
    /// et al.: setups an all-h2 deployment would have avoided.
    ///
    /// [`ConnectionPool::decide`] with the protocol gates removed: a
    /// same-host connection in the partition (any, for the ideal
    /// models) would simply multiplex, and otherwise any coalescing
    /// candidate would do. Partition, certificate-coverage,
    /// 421-eviction, and colocation gates keep their real-browser
    /// semantics. Connections the HTTP/1.1 peer already closed still
    /// count: in the hypothetical h2 world the same setup would have
    /// stayed open.
    pub fn redundant_if_h2(
        &self,
        policy: BrowserKind,
        host: &DnsName,
        addrs: &[IpAddr],
        partition: PoolPartition,
        colocated: impl Fn(&DnsName) -> bool,
    ) -> bool {
        self.same_host(host)
            .any(|(_, c)| is_ideal(policy) || c.partition == partition)
            || self
                .candidates(policy, host, addrs, partition, &colocated)
                .next()
                .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use origin_dns::name::name;
    use origin_dns::record::v4;
    use origin_tls::CertificateBuilder;

    /// Does the oracle's IP matching extend to the full answer set
    /// (transitivity)?
    fn ip_transitive(policy: BrowserKind) -> bool {
        matches!(
            policy,
            BrowserKind::Firefox | BrowserKind::FirefoxOrigin | BrowserKind::IdealIp
        )
    }

    impl ConnectionPool {
        /// `(keys held, capacity retained)` of the connection list and
        /// the 421 denylist — what the loader's footprint test bounds by
        /// the largest single visit.
        pub(crate) fn footprint(&self) -> [(usize, usize); 2] {
            [
                (self.conns.len(), self.conns.capacity()),
                (self.evicted.len(), self.evicted.capacity()),
            ]
        }

        /// Number of evicted (host, connection) coalesce mappings.
        fn evicted_mappings(&self) -> usize {
            self.evicted.len()
        }

        /// Did a 421 bar `host` from connection `idx`? Read off the
        /// denylist itself, so the oracles share no gate with the walk.
        fn evicted_linear(&self, host: &DnsName, idx: usize) -> bool {
            self.evicted
                .iter()
                .any(|(h, i)| h == host && *i as usize == idx)
        }

        /// The original full-scan decision logic, kept as the reference
        /// implementation: [`ConnectionPool::decide`] must
        /// agree with it, rule label included, on every input of the
        /// randomized property test.
        #[allow(clippy::too_many_arguments)]
        fn decide_linear(
            &self,
            policy: BrowserKind,
            host: &DnsName,
            addrs: &[IpAddr],
            partition: PoolPartition,
            max_h1_per_host: u32,
            start: f64,
            colocated: impl Fn(&DnsName) -> bool,
        ) -> ReuseDecision {
            let is_ideal = matches!(policy, BrowserKind::IdealIp | BrowserKind::IdealOrigin);

            // 1. Same-host reuse (keep-alive): H2 always multiplexes; an
            //    H1.1 connection is only reusable when idle.
            let mut h1_same_host = 0u32;
            for (i, c) in self.conns.iter().enumerate() {
                if c.closed || (!is_ideal && c.partition != partition) || &c.host != host {
                    continue;
                }
                if c.multiplexes() || is_ideal {
                    return ReuseDecision::SameHost(i);
                }
                h1_same_host += 1;
                if c.busy_until <= start {
                    return ReuseDecision::SameHost(i);
                }
            }
            if h1_same_host >= max_h1_per_host {
                if let Some((i, _)) = self
                    .conns
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.closed && c.partition == partition && &c.host == host)
                    .min_by(|(_, a), (_, b)| {
                        a.busy_until
                            .partial_cmp(&b.busy_until)
                            .expect("finite times")
                    })
                {
                    return ReuseDecision::SameHost(i);
                }
            }

            // 2. Cross-host coalescing (HTTP/2 only, same partition, cert
            //    must cover the new name, server must actually serve it,
            //    and the mapping must not have been evicted by a 421).
            for (i, c) in self.conns.iter().enumerate() {
                if c.closed || self.evicted_linear(host, i) {
                    continue;
                }
                if !is_ideal && (c.partition != partition || !c.multiplexes()) {
                    continue;
                }
                // Real browsers require the connection's certificate to
                // cover the new name; the §4 ideal models assume the
                // least-effort SAN modifications have been applied.
                if !is_ideal && !c.cert.covers(host) {
                    continue;
                }
                if !colocated(&c.host) {
                    continue;
                }
                let ip_match = if ip_transitive(policy) {
                    c.available_set.iter().any(|a| addrs.contains(a))
                } else {
                    addrs.contains(&c.ip)
                };
                let origin_match = policy.uses_origin_frame() && c.origin_frame_allows(host);
                let allowed = match policy {
                    BrowserKind::Chromium | BrowserKind::Firefox | BrowserKind::IdealIp => ip_match,
                    BrowserKind::FirefoxOrigin => origin_match || ip_match,
                    BrowserKind::IdealOrigin => {
                        // The model assumes perfect ORIGIN deployment:
                        // colocation itself implies an advertised origin.
                        true
                    }
                };
                if allowed {
                    let rule = self.explain_coalesce_linear(policy, host, addrs, i);
                    return ReuseDecision::Coalesce(i, rule);
                }
            }
            ReuseDecision::New
        }

        /// The rule-label oracle: names the evidence that let `host`
        /// coalesce onto connection `idx`, most specific first.
        fn explain_coalesce_linear(
            &self,
            policy: BrowserKind,
            host: &DnsName,
            addrs: &[IpAddr],
            idx: usize,
        ) -> &'static str {
            let c = &self.conns[idx];
            if policy.uses_origin_frame() && c.origin_frame_allows(host) {
                return "origin-frame";
            }
            if addrs.contains(&c.ip) {
                return "ip-exact";
            }
            if ip_transitive(policy) && c.available_set.iter().any(|a| addrs.contains(a)) {
                return "ip-transitive";
            }
            // Only IdealOrigin coalesces with no IP or ORIGIN evidence:
            // the §4 model assumes colocation itself implies reusability.
            "model-colocation"
        }

        /// The redundancy-probe oracle: a full scan of every connection
        /// with the protocol gates removed.
        fn redundant_if_h2_linear(
            &self,
            policy: BrowserKind,
            host: &DnsName,
            addrs: &[IpAddr],
            partition: PoolPartition,
            colocated: impl Fn(&DnsName) -> bool,
        ) -> bool {
            let is_ideal = matches!(policy, BrowserKind::IdealIp | BrowserKind::IdealOrigin);
            for (i, c) in self.conns.iter().enumerate() {
                // Same-host: an h2 connection would simply multiplex.
                if &c.host == host && (is_ideal || c.partition == partition) {
                    return true;
                }
                if self.evicted_linear(host, i) {
                    continue;
                }
                if !is_ideal && (c.partition != partition || !c.cert.covers(host)) {
                    continue;
                }
                if colocated(&c.host) && c.evidence(policy, host, addrs).is_some() {
                    return true;
                }
            }
            false
        }
    }

    fn conn(host: &str, ip: IpAddr, set: Vec<IpAddr>, sans: &[&str]) -> PooledConnection {
        let mut b = CertificateBuilder::new(name(host));
        for s in sans {
            b = b.san(name(s));
        }
        PooledConnection {
            host: name(host),
            ip,
            available_set: set.into(),
            cert: std::sync::Arc::new(b.build()),
            origin_set: None,
            protocol: Protocol::H2,
            partition: PoolPartition::Default,
            bytes_transferred: 0,
            in_flight: 0,
            busy_until: 0.0,
            closed: false,
            quic: false,
        }
    }

    fn always(_: &DnsName) -> bool {
        true
    }

    #[test]
    fn same_host_h2_always_reuses() {
        let mut pool = ConnectionPool::new();
        pool.insert(conn("a.com", v4(1, 1, 1, 1), vec![v4(1, 1, 1, 1)], &[]));
        let d = pool.decide(
            BrowserKind::Chromium,
            &name("a.com"),
            &[v4(9, 9, 9, 9)], // even with different DNS answer
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::SameHost(0));
    }

    #[test]
    fn chromium_requires_connected_ip() {
        let mut pool = ConnectionPool::new();
        // Connected to IPA; available set {IPA, IPB} (the §2.3 example).
        let ipa = v4(1, 1, 1, 1);
        let ipb = v4(2, 2, 2, 2);
        let ipc = v4(3, 3, 3, 3);
        pool.insert(conn(
            "www.a.com",
            ipa,
            vec![ipa, ipb],
            &["*.a.com", "cdn.a.com"],
        ));
        // Subresource's DNS answer {IPB, IPC}: Chromium misses…
        let d = pool.decide(
            BrowserKind::Chromium,
            &name("cdn.a.com"),
            &[ipb, ipc],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::New);
        // …Firefox's transitivity finds IPB in the available set.
        let d = pool.decide(
            BrowserKind::Firefox,
            &name("cdn.a.com"),
            &[ipb, ipc],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::Coalesce(0, "ip-transitive"));
    }

    #[test]
    fn chromium_coalesces_on_exact_ip() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("www.a.com", ip, vec![ip], &["*.a.com"]));
        let d = pool.decide(
            BrowserKind::Chromium,
            &name("img.a.com"),
            &[ip],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::Coalesce(0, "ip-exact"));
    }

    #[test]
    fn cert_coverage_is_mandatory() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("www.a.com", ip, vec![ip], &[])); // no SANs beyond subject
        let d = pool.decide(
            BrowserKind::Firefox,
            &name("cdn.a.com"),
            &[ip],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::New);
    }

    #[test]
    fn colocation_check_prevents_421_path() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("www.a.com", ip, vec![ip], &["other.example"]));
        let d = pool.decide(
            BrowserKind::Firefox,
            &name("other.example"),
            &[ip],
            PoolPartition::Default,
            6,
            0.0,
            |_| false, // server would 421
        );
        assert_eq!(d, ReuseDecision::New);
    }

    #[test]
    fn an_origin_set_always_covers_the_connected_host() {
        // One set per certificate lists its exact SANs; a host only a
        // wildcard SAN covers is not among them, and is the origin the
        // connection was opened to all the same.
        let ip = v4(1, 1, 1, 1);
        let mut c = conn("shop.a.com", ip, vec![ip], &["*.a.com", "a.com"]);
        assert!(!c.origin_frame_allows(&name("shop.a.com")), "no frame yet");
        c.origin_set = Some(OriginSet::from_hosts(["a.com"]).into());
        assert!(c.origin_frame_allows(&name("shop.a.com")));
        assert!(c.origin_frame_allows(&name("a.com")));
        assert!(!c.origin_frame_allows(&name("img.a.com")));
        let why = c.evidence(BrowserKind::FirefoxOrigin, &name("shop.a.com"), &[]);
        assert_eq!(why, Some("origin-frame"));
    }

    #[test]
    fn origin_frame_coalesces_without_ip_match() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        let mut c = conn("www.a.com", ip, vec![ip], &["third.party.com"]);
        c.origin_set = Some(OriginSet::from_hosts(["www.a.com", "third.party.com"]).into());
        pool.insert(c);
        // DNS answer for the third party has no overlap at all.
        let answer = [v4(7, 7, 7, 7)];
        let d = pool.decide(
            BrowserKind::FirefoxOrigin,
            &name("third.party.com"),
            &answer,
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::Coalesce(0, "origin-frame"));
        // Plain Firefox (no ORIGIN support) opens a new connection.
        let d = pool.decide(
            BrowserKind::Firefox,
            &name("third.party.com"),
            &answer,
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::New);
    }

    #[test]
    fn partitions_do_not_mix() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("fonts.x.com", ip, vec![ip], &[]));
        let d = pool.decide(
            BrowserKind::Firefox,
            &name("fonts.x.com"),
            &[ip],
            PoolPartition::Anonymous,
            6,
            0.0,
            always,
        );
        assert_eq!(
            d,
            ReuseDecision::New,
            "anonymous must not reuse default-pool conn"
        );
    }

    #[test]
    fn h1_busy_connection_not_reused_until_limit() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        let mut c = conn("old.x.com", ip, vec![ip], &[]);
        c.protocol = Protocol::H11;
        c.busy_until = 10.0;
        pool.insert(c);
        let d = pool.decide(
            BrowserKind::Chromium,
            &name("old.x.com"),
            &[ip],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::New, "busy H1.1 conn → open another");
        // At the limit, queue on the least-loaded.
        let d = pool.decide(
            BrowserKind::Chromium,
            &name("old.x.com"),
            &[ip],
            PoolPartition::Default,
            1,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::SameHost(0));
    }

    #[test]
    fn ideal_origin_coalesces_on_colocation_alone() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("www.a.com", ip, vec![ip], &["svc.example"]));
        let d = pool.decide(
            BrowserKind::IdealOrigin,
            &name("svc.example"),
            &[], // no DNS performed at all
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::Coalesce(0, "model-colocation"));
    }

    #[test]
    fn wildcard_san_scopes_to_one_level() {
        // RFC 6125: "*.cdn.com" matches exactly one label — a
        // sibling subdomain coalesces, the bare parent and a deeper
        // name do not.
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("edge.cdn.com", ip, vec![ip], &["*.cdn.com"]));
        for (host, want) in [
            ("a.cdn.com", ReuseDecision::Coalesce(0, "ip-exact")),
            ("cdn.com", ReuseDecision::New),
            ("x.y.cdn.com", ReuseDecision::New),
        ] {
            let d = pool.decide(
                BrowserKind::Chromium,
                &name(host),
                &[ip],
                PoolPartition::Default,
                6,
                0.0,
                always,
            );
            assert_eq!(d, want, "{host}");
        }
    }

    #[test]
    fn exact_and_wildcard_sans_agree_on_first_match_order() {
        // A host covered by one connection's exact SAN and another's
        // wildcard SAN must coalesce onto the *earliest-inserted*
        // candidate, whichever kind of SAN covers it: pinned in both
        // insertion orders.
        let ip = v4(1, 1, 1, 1);
        for exact_first in [true, false] {
            let mut pool = ConnectionPool::new();
            if exact_first {
                pool.insert(conn("e.cdn.com", ip, vec![ip], &["static.cdn.com"]));
                pool.insert(conn("w.cdn.com", ip, vec![ip], &["*.cdn.com"]));
            } else {
                pool.insert(conn("w.cdn.com", ip, vec![ip], &["*.cdn.com"]));
                pool.insert(conn("e.cdn.com", ip, vec![ip], &["static.cdn.com"]));
            }
            let d = pool.decide(
                BrowserKind::Chromium,
                &name("static.cdn.com"),
                &[ip],
                PoolPartition::Default,
                6,
                0.0,
                always,
            );
            assert_eq!(
                d,
                ReuseDecision::Coalesce(0, "ip-exact"),
                "exact_first={exact_first}"
            );
        }
    }

    #[test]
    fn firefox_coalesces_via_available_set_overlap() {
        // §2.3's {IPA, IPB} example: the pooled connection connected
        // to A but its DNS answer also listed B. A new host resolving
        // to {B} alone overlaps the *available* set, which Firefox
        // honours (transitive matching) and Chromium — which keeps
        // only the connected IP — does not.
        let mut pool = ConnectionPool::new();
        let a = v4(1, 1, 1, 1);
        let b = v4(2, 2, 2, 2);
        pool.insert(conn("a.com", a, vec![a, b], &["b.com"]));
        let answer = [b];
        let ff = pool.decide(
            BrowserKind::Firefox,
            &name("b.com"),
            &answer,
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(ff, ReuseDecision::Coalesce(0, "ip-transitive"));
        let cr = pool.decide(
            BrowserKind::Chromium,
            &name("b.com"),
            &answer,
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(cr, ReuseDecision::New);
    }

    #[test]
    fn evicted_mapping_never_coalesces_again() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("www.a.com", ip, vec![ip], &["*.a.com"]));
        let host = name("img.a.com");
        let d = pool.decide(
            BrowserKind::Chromium,
            &host,
            &[ip],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::Coalesce(0, "ip-exact"));
        // The coalesced request drew a 421: evict the mapping.
        pool.evict_coalesce(&host, 0);
        assert_eq!(pool.evicted_mappings(), 1);
        let d = pool.decide(
            BrowserKind::Chromium,
            &host,
            &[ip],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::New, "evicted mapping must not be reused");
        // Eviction is idempotent.
        pool.evict_coalesce(&host, 0);
        assert_eq!(pool.evicted_mappings(), 1);
    }

    #[test]
    fn eviction_scopes_to_the_one_host() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("www.a.com", ip, vec![ip], &["*.a.com"]));
        pool.evict_coalesce(&name("img.a.com"), 0);
        // A sibling host still coalesces onto the same connection…
        let d = pool.decide(
            BrowserKind::Chromium,
            &name("static.a.com"),
            &[ip],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::Coalesce(0, "ip-exact"));
        // …and same-host keep-alive on the connection is unaffected.
        let d = pool.decide(
            BrowserKind::Chromium,
            &name("www.a.com"),
            &[v4(9, 9, 9, 9)],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::SameHost(0));
    }

    #[test]
    fn eviction_applies_to_ideal_policies_too() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("www.a.com", ip, vec![ip], &["svc.example"]));
        pool.evict_coalesce(&name("svc.example"), 0);
        for policy in [BrowserKind::IdealIp, BrowserKind::IdealOrigin] {
            let d = pool.decide(
                policy,
                &name("svc.example"),
                &[ip],
                PoolPartition::Default,
                6,
                0.0,
                always,
            );
            assert_eq!(d, ReuseDecision::New, "{policy:?}");
        }
    }

    #[test]
    fn eviction_falls_through_to_next_candidate() {
        // Two connections could serve the host; evicting the first
        // mapping makes both decide paths pick the second.
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        pool.insert(conn("www.a.com", ip, vec![ip], &["*.a.com"]));
        pool.insert(conn("alt.a.com", ip, vec![ip], &["*.a.com"]));
        let host = name("img.a.com");
        pool.evict_coalesce(&host, 0);
        let d = pool.decide(
            BrowserKind::Chromium,
            &host,
            &[ip],
            PoolPartition::Default,
            6,
            0.0,
            always,
        );
        assert_eq!(d, ReuseDecision::Coalesce(1, "ip-exact"));
    }

    #[test]
    fn closed_connection_is_never_reused_and_frees_its_slot() {
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        let mut c = conn("old.x.com", ip, vec![ip], &[]);
        c.protocol = Protocol::H11;
        c.closed = true;
        pool.insert(c);
        // Even with max_h1_per_host = 1 the closed connection neither
        // serves the request nor counts toward the cap: open fresh.
        let d = pool.decide(
            BrowserKind::Chromium,
            &name("old.x.com"),
            &[ip],
            PoolPartition::Default,
            1,
            100.0,
            always,
        );
        assert_eq!(d, ReuseDecision::New);
        // The ideal models skip it too.
        for policy in [BrowserKind::IdealIp, BrowserKind::IdealOrigin] {
            let d = pool.decide(
                policy,
                &name("old.x.com"),
                &[ip],
                PoolPartition::Default,
                6,
                100.0,
                always,
            );
            assert_eq!(d, ReuseDecision::New, "{policy:?}");
        }
    }

    #[test]
    fn redundancy_probe_ignores_protocol_gates() {
        // A busy HTTP/1.1 connection to the same host: the real
        // decision opens a new connection, but had the pool been h2
        // the request would have multiplexed — redundant under every
        // policy.
        let mut pool = ConnectionPool::new();
        let ip = v4(1, 1, 1, 1);
        let mut c = conn("shard1.a.com", ip, vec![ip], &["*.a.com"]);
        c.protocol = Protocol::H11;
        c.busy_until = 10.0;
        pool.insert(c);
        let host = name("shard1.a.com");
        assert_eq!(
            pool.decide(
                BrowserKind::Firefox,
                &host,
                &[ip],
                PoolPartition::Default,
                6,
                0.0,
                always
            ),
            ReuseDecision::New
        );
        for policy in [
            BrowserKind::Chromium,
            BrowserKind::Firefox,
            BrowserKind::FirefoxOrigin,
            BrowserKind::IdealIp,
            BrowserKind::IdealOrigin,
        ] {
            assert!(
                pool.redundant_if_h2(policy, &host, &[ip], PoolPartition::Default, always),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn redundancy_probe_keeps_policy_evidence_rules() {
        // Cross-host shard with cert coverage: IP-based policies need
        // address evidence, IdealOrigin merges on colocation alone.
        let mut pool = ConnectionPool::new();
        let ipa = v4(1, 1, 1, 1);
        let ipb = v4(2, 2, 2, 2);
        let mut c = conn("shard1.a.com", ipa, vec![ipa], &["*.a.com"]);
        c.protocol = Protocol::H11;
        pool.insert(c);
        let host = name("shard2.a.com");
        // Disjoint DNS answer: no IP evidence.
        assert!(!pool.redundant_if_h2(
            BrowserKind::Firefox,
            &host,
            &[ipb],
            PoolPartition::Default,
            always
        ));
        assert!(pool.redundant_if_h2(
            BrowserKind::IdealOrigin,
            &host,
            &[ipb],
            PoolPartition::Default,
            always
        ));
        // Shared address: the IP policies would have merged.
        assert!(pool.redundant_if_h2(
            BrowserKind::Firefox,
            &host,
            &[ipa],
            PoolPartition::Default,
            always
        ));
        // Partition mismatch blocks real policies even with evidence.
        assert!(!pool.redundant_if_h2(
            BrowserKind::Firefox,
            &host,
            &[ipa],
            PoolPartition::Anonymous,
            always
        ));
        // No colocation → a coalesce attempt would 421: not redundant.
        assert!(!pool.redundant_if_h2(
            BrowserKind::Firefox,
            &host,
            &[ipa],
            PoolPartition::Default,
            |_| false
        ));
    }

    #[test]
    fn randomized_pools_match_the_full_scan() {
        // Property test: on randomized pools (hosts, SANs incl.
        // wildcards and filler counts, overlapping address sets, mixed
        // protocols and partitions, busy and closed H1.1 connections,
        // QUIC connections) the gated walk equals the full-scan reference
        // for every policy, host and answer; every coalesce carries the
        // rule label the oracle names, and the redundancy probe agrees
        // with its full-scan oracle in every partition. Seeded SimRng,
        // so failures replay exactly.
        //
        // One pool is `clear()`ed and refilled round after round from
        // the same small vocabulary of hostnames, wildcard parents and
        // addresses, and must decide exactly like a pool built fresh
        // for the round: a connection or an eviction that survived the
        // clear would show as a difference.
        use origin_netsim::SimRng;
        let hosts = [
            "a.com",
            "www.a.com",
            "b.net",
            "api.b.net",
            "c.org",
            "cdn.c.org",
            "static.cdn.com",
            "edge.cdn.com",
            // Filler labels: a certificate's filler count covers them,
            // though its SAN list never names them.
            "alt-0.a.com",
            "alt-1.a.com",
            "alt-0.b.net",
        ];
        let sans = [
            "a.com",
            "*.a.com",
            "b.net",
            "*.b.net",
            "*.c.org",
            "static.cdn.com",
            "*.cdn.com",
            "edge.cdn.com",
            "alt-1.a.com",
        ];
        let policies = [
            BrowserKind::Chromium,
            BrowserKind::Firefox,
            BrowserKind::FirefoxOrigin,
            BrowserKind::IdealIp,
            BrowserKind::IdealOrigin,
        ];
        let partitions = [
            PoolPartition::Default,
            PoolPartition::Anonymous,
            PoolPartition::Programmatic,
        ];
        let ips: Vec<IpAddr> = (1..=6).map(|d| v4(10, 0, 0, d)).collect();
        let mut rng = SimRng::seed_from_u64(0x5EED_C0DE);
        let mut pool = ConnectionPool::new();
        let mut rules_seen = std::collections::BTreeSet::new();
        let mut probes_seen = [false; 2];
        let mut filler_only = 0;
        for trial in 0..150u32 {
            pool.clear();
            assert!(pool.is_empty());
            assert_eq!(pool.evicted_mappings(), 0);
            let mut fresh = ConnectionPool::new();
            let n = 1 + rng.index(7);
            for _ in 0..n {
                let host = *rng.choose(&hosts);
                let ip = *rng.choose(&ips);
                let mut set = vec![ip];
                while rng.chance(0.4) {
                    set.push(*rng.choose(&ips));
                }
                let mut cert_sans: Vec<&str> = Vec::new();
                while rng.chance(0.6) && cert_sans.len() < 3 {
                    cert_sans.push(*rng.choose(&sans));
                }
                let mut c = conn(host, ip, set, &cert_sans);
                if rng.chance(0.3) {
                    let mut cert = (*c.cert).clone();
                    cert.filler = 1 + rng.index(2) as u16;
                    c.cert = cert.into();
                }
                let h1 = rng.chance(0.3);
                if h1 {
                    c.protocol = Protocol::H11;
                    c.busy_until = rng.range_f64(0.0, 40.0);
                    c.closed = rng.chance(0.25);
                }
                if rng.chance(0.2) {
                    c.partition = *rng.choose(&partitions);
                }
                // A QUIC connection multiplexes like h2 but never
                // carries an ORIGIN set.
                if !h1 && rng.chance(0.2) {
                    c.quic = true;
                } else if rng.chance(0.2) {
                    c.origin_set = Some(OriginSet::from_hosts([host, *rng.choose(&hosts)]).into());
                }
                fresh.insert(c.clone());
                pool.insert(c);
            }
            // Random 421 evictions must be honored identically by
            // both decide paths.
            while rng.chance(0.3) {
                // The deref steers inference to `T = &str` (clippy's
                // auto-deref suggestion makes `choose` infer `T = str`).
                #[allow(clippy::explicit_auto_deref)]
                let host = name(*rng.choose(&hosts));
                let idx = rng.index(pool.len());
                fresh.evict_coalesce(&host, idx);
                pool.evict_coalesce(&host, idx);
            }
            assert_eq!(pool.evicted_mappings(), fresh.evicted_mappings());
            for _ in 0..12 {
                let host = name(hosts[rng.index(hosts.len())]);
                let mut answer: Vec<IpAddr> = Vec::new();
                while answer.len() < 3 && rng.chance(0.7) {
                    answer.push(*rng.choose(&ips));
                }
                let partition = *rng.choose(&partitions);
                let start = rng.range_f64(0.0, 50.0);
                // Randomized but deterministic colocation relation.
                let colo_salt = rng.next_u64();
                let colocated = |h: &DnsName| (h.as_str().len() as u64 ^ colo_salt) % 3 != 0;
                for policy in policies {
                    let at = format!(
                        "trial {trial}: {policy:?} {host} answer {answer:?} partition {partition:?}"
                    );
                    let walk = pool.decide(policy, &host, &answer, partition, 2, start, colocated);
                    let linear =
                        pool.decide_linear(policy, &host, &answer, partition, 2, start, colocated);
                    let rebuilt =
                        fresh.decide(policy, &host, &answer, partition, 2, start, colocated);
                    assert_eq!((walk, walk), (linear, rebuilt), "{at}");
                    // The oracle labels its coalesce with the rule-label
                    // oracle, so the equality above pins the label too.
                    if let ReuseDecision::Coalesce(i, rule) = walk {
                        rules_seen.insert(rule);
                        let cert = &pool.conns[i].cert;
                        let listed = cert.listed_names().any(|n| origin_tls::covers(&n, &host));
                        filler_only += u32::from(!is_ideal(policy) && !listed);
                    }
                    for partition in partitions {
                        let redundant =
                            pool.redundant_if_h2(policy, &host, &answer, partition, colocated);
                        assert_eq!(
                            redundant,
                            pool.redundant_if_h2_linear(
                                policy, &host, &answer, partition, colocated
                            ),
                            "{at} (probe in {partition:?})"
                        );
                        probes_seen[usize::from(redundant)] = true;
                    }
                }
            }
        }
        assert_eq!(
            rules_seen.into_iter().collect::<Vec<_>>(),
            [
                "ip-exact",
                "ip-transitive",
                "model-colocation",
                "origin-frame"
            ],
            "every rule label is exercised"
        );
        assert_eq!(probes_seen, [true, true], "both probe outcomes");
        assert!(
            filler_only > 0,
            "no coalesce onto a filler-only certificate"
        );
    }
}
