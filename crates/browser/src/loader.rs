//! The page loader: turns a [`Page`] into a [`PageLoad`] under a
//! coalescing policy and an environment.
//!
//! The loader reproduces the connection-level behaviour the paper
//! measures: per-hostname DNS queries, TCP+TLS establishment,
//! connection reuse/coalescing per policy, happy-eyeballs duplicate
//! connections and speculative DNS races (§4.2's explanation for
//! DNS≠TLS counts), warm-connection transfer speedups, and the
//! resource-tree dispatch order that shapes PLT.

use crate::env::WebEnv;
use crate::policy::BrowserKind;
use crate::pool::{
    ConnectionPool, PoolPartition, PooledConnection, ReuseDecision, MAX_H1_CONNECTIONS_PER_HOST,
};
use origin_h3::{H3Conn, H3Counts, H3RequestStats, H3Session, QuicConnectOutcome};
use origin_netsim::link::INIT_CWND;
use origin_netsim::{
    FaultProfile, HandshakeModel, LinkProfile, Middlebox, MiddleboxVerdict, PacketFate,
    SimDuration, SimRng, SimTime, TlsVersion,
};
use origin_telemetry::metrics::Registry;
use origin_telemetry::obs::{FlightRecorder, VisitSinks};
use origin_telemetry::trace::Tracer;
use origin_web::har::{ms_to_us, PageLoad, Phase, RequestTiming, SealedUs};
use origin_web::{Page, Protocol, Resource};
use std::net::{IpAddr, Ipv4Addr};

mod report;
pub use report::{fault_counter_names, h3_counter_names};

/// RFC 8336 ORIGIN frame type code — what the §6.7 middlebox keys on.
const ORIGIN_FRAME_TYPE: u8 = origin_h2::FrameType::Origin.to_u8();

/// First retransmit backoff (ms); doubles per attempt (200, 400, 800),
/// approximating the minimum TCP retransmission timeout of deployed
/// stacks rather than RFC 6298's 1 s initial RTO.
const RETRY_BASE_MS: f64 = 200.0;

/// Per-resource parse/dispatch delay (ms) modelling the browser's
/// dependency-graph computation, which the §4.1 reconstruction
/// deliberately leaves unmodified.
const DISPATCH_DELAY_MS: f64 = 2.0;

/// Transfer retry bound. After this many consecutive drop/corrupt
/// verdicts the transfer is force-delivered — the model charges the
/// backoffs but never livelocks, so a crawl terminates even under
/// `drop=1`.
const MAX_TRANSFER_RETRIES: u32 = 3;

/// Per-visit fault-injection state: the profile, a dedicated RNG, and
/// the counts of what the profile injected.
///
/// Every fault decision — and the cost of every repair a fault
/// triggers — draws from this RNG and never from the simulation RNG.
/// That separation is what the determinism guarantees hang off:
///
/// - a faulted load preserves the clean load's random stream, so the
///   page skeleton, handshake costs and server think times are those
///   of the clean run, perturbed only by the injected faults;
/// - the all-zero profile draws nothing (`SimRng::chance(0.0)` does
///   not consume a draw) and is byte-identical to a clean load;
/// - seeding from the site's page seed makes a faulted crawl
///   reproducible at any thread count.
pub struct FaultSession {
    profile: FaultProfile,
    rng: SimRng,
    /// Counters accumulated over the loads this session observed.
    pub counts: FaultCounts,
}

impl FaultSession {
    /// Session for one page visit. `seed` should derive from the
    /// site's own seed so shards agree on it.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultSession {
            profile,
            rng: SimRng::seed_from_u64(seed),
            counts: FaultCounts::default(),
        }
    }

    /// The profile this session injects.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }
}

/// What fault injection did to a load, and what recovery cost:
/// every counter lands in the `fault.*` metrics namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Coalesced requests answered `421 Misdirected Request`.
    pub misdirected_421: u64,
    /// (host → connection) mappings evicted from the pool after a 421.
    pub pool_evictions: u64,
    /// Connections torn down by the §6.7 middlebox on the ORIGIN frame.
    pub middlebox_teardowns: u64,
    /// Reconnects that suppressed ORIGIN advertisement after a teardown.
    pub origin_suppressed: u64,
    /// Transfers that lost a packet.
    pub drops: u64,
    /// Transfers corrupted in flight.
    pub corruptions: u64,
    /// Total recovery attempts (421 replays + reconnects + retransmits).
    pub retries: u64,
    /// Retransmit backoff periods served.
    pub backoff_events: u64,
    /// Total simulated time (µs) spent in retransmit backoff.
    pub backoff_us: u64,
}

impl FaultCounts {
    /// Field-wise `self - earlier`; `earlier` must be a prior snapshot.
    pub fn since(&self, earlier: &FaultCounts) -> FaultCounts {
        FaultCounts {
            misdirected_421: self.misdirected_421 - earlier.misdirected_421,
            pool_evictions: self.pool_evictions - earlier.pool_evictions,
            middlebox_teardowns: self.middlebox_teardowns - earlier.middlebox_teardowns,
            origin_suppressed: self.origin_suppressed - earlier.origin_suppressed,
            drops: self.drops - earlier.drops,
            corruptions: self.corruptions - earlier.corruptions,
            retries: self.retries - earlier.retries,
            backoff_events: self.backoff_events - earlier.backoff_events,
            backoff_us: self.backoff_us - earlier.backoff_us,
        }
    }
}

/// The five policies evaluated by the redundant-connection probe and
/// the `h1.redundant.*` counter each one feeds, in the fixed slot
/// order shared by the per-visit stats array. Every legacy HTTP/1.1
/// connection that opens is tested against *all five* — the question
/// "would h2 have merged this?" is policy-relative (Sander et al.),
/// and answering it for every policy in one crawl is what lets the
/// redundancy report compare them on identical traffic.
pub const REDUNDANCY_KINDS: [(BrowserKind, &str); 5] = [
    (BrowserKind::Chromium, "h1.redundant.chromium"),
    (BrowserKind::Firefox, "h1.redundant.firefox"),
    (BrowserKind::FirefoxOrigin, "h1.redundant.firefox_origin"),
    (BrowserKind::IdealIp, "h1.redundant.ideal_ip"),
    (BrowserKind::IdealOrigin, "h1.redundant.ideal_origin"),
];

/// Per-visit HTTP/3 accounting. Only h3 pages touch it, so on a
/// pure-h2 visit every field is zero and nothing reaches the metrics
/// registry (zero counters are never added).
#[derive(Debug, Default, Clone, Copy)]
struct H3Stats {
    /// Pages whose origins deploy h3.
    pages: u64,
    /// Requests that rode QUIC connections.
    requests: u64,
    /// QPACK encoder-stream instructions across the visit's
    /// connections.
    qpack_instructions: u64,
    /// QPACK dynamic-table evictions (encoder side).
    qpack_evictions: u64,
    /// Connection IDs issued (including each handshake's sequence 0).
    cids_issued: u64,
    /// Connection IDs retired by rotation.
    cids_retired: u64,
    /// The session's handshake/resumption/Alt-Svc counters.
    counts: H3Counts,
}

/// Per-visit HTTP/1.1 accounting. Only legacy pages touch it, so on a
/// pure-h2 visit every field is zero and nothing reaches the metrics
/// registry (zero counters are never added).
#[derive(Debug, Default, Clone, Copy)]
struct H1Stats {
    requests: u64,
    connections_opened: u64,
    keepalive_reuse: u64,
    close_delimited: u64,
    pages: u64,
    /// Redundant-connection counts, slot-for-slot with
    /// [`REDUNDANCY_KINDS`].
    redundant: [u64; 5],
}

/// The QUIC machines an arena keeps. The first `used` ride connections
/// of the current visit; the rest wait, in whatever state their last
/// connection left them, to be reset and taken — so there are never
/// more than the one visit that drove the most needed.
#[derive(Default)]
struct QuicMachines {
    all: Vec<H3Conn>,
    used: usize,
}

impl QuicMachines {
    /// The index of a machine no connection of this visit rides: the
    /// next waiting one, reset, else a fresh one.
    fn take(&mut self) -> usize {
        let i = self.used;
        self.used += 1;
        match self.all.get_mut(i) {
            Some(machine) => machine.reset(),
            None => self.all.push(H3Conn::new()),
        }
        i
    }
}

/// The loader's side of one pooled connection, slot-for-slot with
/// [`ConnectionPool::connections`].
struct ConnState {
    /// Simulated time (µs) the connection started opening — the anchor
    /// for coalescing flow arrows.
    open_us: u64,
    /// HTTP/1.1 request/response cycles the connection has carried:
    /// the legacy requests it served that were not coalesced rides.
    h1_cycles: u64,
    /// The arena's QUIC machine riding the connection, taken by its
    /// first request over QUIC.
    quic: Option<usize>,
}

/// Per-visit working memory, recycled across page loads.
///
/// A cold load allocates a connection pool (its connection list and
/// 421 denylist), the timing vector and three per-resource buffers on
/// every visit; a crawl does that millions of times. A `VisitArena`
/// owned by each crawl worker keeps those allocations warm: every
/// buffer is `clear()`ed — capacity retained — at the start of the
/// next load, and [`VisitArena::recycle`] returns a consumed
/// [`PageLoad`]'s request storage to the arena.
///
/// The same goes for the QUIC machines: the QPACK encoders a visit
/// drove stay in the arena, and a later QUIC connection takes one
/// reset — table empty, insert counts and counters zero — with its
/// table's strings and its wire buffers still allocated.
///
/// The arena carries *capacity* only, never keys: every value written
/// during a load is a pure function of page, environment and RNG, so
/// a warm arena loads byte-identically to a fresh one
/// (`arena_reuse_is_output_invisible`) and is as large, and resets as
/// fast, as its largest visit (`worker_state_is_bounded_by_the_largest_visit`).
#[derive(Default)]
pub struct VisitArena {
    pool: ConnectionPool,
    ready: Vec<f64>,
    child_seq: Vec<u32>,
    timings: Vec<RequestTiming>,
    /// One slot per pooled connection, pushed in lock-step with the
    /// pool by `Visit::admit`.
    conns: Vec<ConnState>,
    /// The visit's h3 memory: Alt-Svc scopes, session tickets,
    /// validated addresses. Reset per visit (fresh browser session);
    /// never touched on non-h3 pages.
    h3_session: H3Session,
    /// Where an HTTP/1.1 framing decision or an HTTP/3 field section
    /// gets its resource's path rendered; h2 requests never read one.
    path: String,
    quic: QuicMachines,
}

impl VisitArena {
    /// Empty arena (first load allocates, later loads recycle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a finished load's request storage to the arena so the
    /// next load reuses its capacity.
    pub fn recycle(&mut self, load: PageLoad) {
        if load.requests.capacity() > self.timings.capacity() {
            let mut v = load.requests;
            v.clear();
            self.timings = v;
        }
    }
}

/// Loader configuration.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// The coalescing policy.
    pub kind: BrowserKind,
    /// Probability a host's first connection races a duplicate
    /// (happy-eyeballs v2, §4.2). Duplicates cost an extra TLS
    /// handshake but carry no requests.
    pub happy_eyeballs_dup_rate: f64,
    /// Probability of an extra speculative DNS query per host.
    pub speculative_dns_rate: f64,
    /// §6.8's recommendation: skip the (render-blocking) DNS query
    /// for names the connection's ORIGIN set already covers. Stock
    /// Firefox keeps querying ("conservative"); setting this models
    /// the paper's proposed client change.
    pub trust_origin_without_dns: bool,
}

impl BrowserConfig {
    /// Defaults for a given policy (races only for real browsers).
    pub fn new(kind: BrowserKind) -> Self {
        let races = kind.models_races();
        BrowserConfig {
            kind,
            happy_eyeballs_dup_rate: if races { 0.10 } else { 0.0 },
            speculative_dns_rate: if races { 0.06 } else { 0.0 },
            trust_origin_without_dns: false,
        }
    }
}

/// The loader.
pub struct PageLoader {
    /// Configuration.
    pub config: BrowserConfig,
}

impl PageLoader {
    /// Loader with default config for `kind`.
    pub fn new(kind: BrowserKind) -> Self {
        PageLoader {
            config: BrowserConfig::new(kind),
        }
    }

    /// Simulate one page load with every option of
    /// [`PageLoader::load_observed`] at its default: no faults, no
    /// telemetry, a throw-away arena. The environment's DNS cache
    /// should be flushed beforehand to match the paper's fresh-session
    /// method.
    pub fn load(&self, page: &Page, env: &mut dyn WebEnv, rng: &mut SimRng) -> PageLoad {
        self.load_observed(
            page,
            env,
            rng,
            None,
            None,
            None,
            &mut VisitArena::new(),
            VisitSinks::default(),
        )
    }

    /// Simulate one page load; the one full-featured entry point.
    /// Every request runs the five-stage visit pipeline (resolve →
    /// decide → open → transfer → report; DESIGN.md §8).
    /// Each optional argument switches on one independent concern:
    ///
    /// - `faults` — deterministic fault injection. The load suffers
    ///   the session's profile and performs the client-side recovery
    ///   the paper implies: 421 → evict + replay on a dedicated
    ///   connection, middlebox teardown → reconnect with ORIGIN
    ///   suppressed, packet drop → bounded exponential-backoff
    ///   retransmit. Every fault decision and repair cost draws from
    ///   the session's own RNG, never from `rng` (see
    ///   [`FaultSession`]).
    /// - `metrics` — the load's work counters and simulated phase
    ///   times. Everything recorded is derived per page from the
    ///   finished load, so registry contents are independent of how
    ///   pages are sharded across crawl workers; per-request f64 phase
    ///   values are rounded to integer microseconds *before*
    ///   accumulation (summing f64s across differently-chunked shards
    ///   would not be associative). Zero-valued `fault.*`, `h1.*` and
    ///   `h3.*` counters are never materialized, so an all-zero fault
    ///   profile or a pure-h2 page leaves the registry byte-identical
    ///   to a run without that subsystem.
    /// - `tracer` — span tracing: DNS queries, TCP/TLS or QUIC
    ///   establishment with SAN validation, per-request phase spans on
    ///   the serving connection's track, coalescing decisions
    ///   annotated with the policy rule that allowed them, and flow
    ///   events linking each coalesced request back to the opening of
    ///   the connection it reused. The caller owns the visit context:
    ///   call [`Tracer::begin_visit`] with the site's rank before
    ///   loading.
    /// - `sinks.flight` — the load's notable events (connection opens,
    ///   injected faults and their recoveries, h1 close-delimited
    ///   teardowns, NXDOMAIN lookups) appended to the caller's bounded
    ///   [`FlightRecorder`] as each request completes (a panic dump
    ///   holds the visit's completed requests, not the one that was
    ///   half-run); call [`FlightRecorder::begin_visit`] first.
    /// - `sinks.visit` — the completed load's per-visit observation
    ///   (request/connection/fault/h1 counters, PLT, handshake and
    ///   byte events with trace-span exemplar references);
    ///   [`origin_telemetry::obs::VisitObs::clear`] it between visits.
    ///
    /// The stages only simulate: each request's events are emitted
    /// once it completes (bar the resolver's own, which it traces), and
    /// `metrics` and `sinks.visit` are filled by one walk over the
    /// finished load. No sink draws from `rng`, so the returned
    /// [`PageLoad`] is identical whichever sinks are attached. `arena`
    /// carries buffer *capacity* only between visits (see
    /// [`VisitArena`]): crawl workers hold one each and recycle loads
    /// back into it, and the load is byte-identical through a warm or
    /// a fresh one.
    ///
    /// The positional signature is pinned by the frozen harness under
    /// `benchmark/`.
    #[allow(clippy::too_many_arguments)]
    pub fn load_observed(
        &self,
        page: &Page,
        env: &mut dyn WebEnv,
        rng: &mut SimRng,
        mut faults: Option<&mut FaultSession>,
        metrics: Option<&mut Registry>,
        tracer: Option<&mut Tracer>,
        arena: &mut VisitArena,
        sinks: VisitSinks<'_>,
    ) -> PageLoad {
        let before = faults.as_deref().map(|f| f.counts).unwrap_or_default();
        let n = page.resources.len();
        arena.pool.clear();
        arena.conns.clear();
        arena.quic.used = 0;
        arena.h3_session.recycle();
        arena.timings.clear();
        arena.timings.reserve(n);
        // ready[i]: time resource i finished, gating its children.
        arena.ready.clear();
        arena.ready.resize(n, 0.0f64);
        // Count children seen per parent for stagger offsets.
        arena.child_seq.clear();
        arena.child_seq.resize(n, 0u32);
        let (h1, h3) = Visit {
            config: &self.config,
            page,
            env,
            rng,
            faults: faults.as_deref_mut(),
            tracer,
            flight: sinks.flight,
            arena,
            h1: H1Stats::default(),
            h3: H3Stats::default(),
        }
        .run();
        let load = PageLoad {
            rank: page.rank,
            root_host: page.root_host.clone(),
            requests: std::mem::take(&mut arena.timings),
        };

        let delta = faults.as_deref().map(|f| f.counts.since(&before));
        report::record_load(page, &load, (&h1, &h3), delta, metrics, sinks.visit);
        load
    }
}

/// One page visit in flight: the world every pipeline stage reads and
/// writes. Built by [`PageLoader::load_observed`] over its own
/// arguments; consumed by [`Visit::run`].
///
/// Two RNGs are in reach and the stages keep them apart: `rng` is the
/// simulation stream (page skeleton, DNS, handshakes, think times),
/// `faults.rng` pays for every fault decision and every repair. The
/// `tracer` and `flight` sinks are written by [`Visit::report`] alone,
/// bar the tracer [`Visit::resolve`] lends the resolver.
struct Visit<'a> {
    config: &'a BrowserConfig,
    page: &'a Page,
    env: &'a mut dyn WebEnv,
    rng: &'a mut SimRng,
    faults: Option<&'a mut FaultSession>,
    tracer: Option<&'a mut Tracer>,
    flight: Option<&'a mut FlightRecorder>,
    arena: &'a mut VisitArena,
    h1: H1Stats,
    h3: H3Stats,
}

/// One request's passage through the pipeline: the facts fixed at
/// dispatch plus what the stages learn on the way. What only telemetry
/// reads is a plain `Copy` fact, kept for [`Visit::report`]; an instant
/// is kept as the microseconds its stage computed, because the f64 sum
/// behind it is not one `report` could redo (`(after_dns + penalty) +
/// wasted` is not `after_dns + (penalty + wasted)`).
struct Request<'p> {
    res: &'p Resource,
    link: LinkProfile,
    partition: PoolPartition,
    /// Only secure h2 resources on a page whose origins deploy h3 can
    /// upgrade to QUIC. Never true outside an h3 universe, so the
    /// pure-h2 paths are untouched at `h3_share = 0`.
    h3_eligible: bool,
    /// A legacy page's HTTP/1.1 requests count keep-alive cycles and
    /// framing; the gate is the page's legacy flag — never the
    /// protocol alone — so the default universe's sampled-H11 traffic
    /// keeps its exact pre-mixed-universe behaviour.
    legacy_h1: bool,
    /// The DNS answer; `None` until (and unless) the request resolves
    /// (N/A-protocol skips, NXDOMAIN, ORIGIN-frame-trusted coalescing).
    addrs: Option<std::sync::Arc<[IpAddr]>>,
    /// Setup time wasted on failed attempts (421 round trip,
    /// middlebox-torn handshake) before the request could proceed;
    /// charged as blocked time, like a browser waterfall would show.
    fault_penalty_ms: f64,
    reuse_label: &'static str,
    rule_label: Option<&'static str>,
    /// The connection whose server answered `421 Misdirected Request`.
    misdirected: Option<usize>,
    /// When the §6.7 middlebox tore the first setup down (µs).
    torn_down_us: Option<u64>,
    /// How the request's new connection was established.
    opened: Option<Opened>,
    /// Each retransmit backoff served, in attempt order: start (µs),
    /// length (µs), and the packet fate that caused it.
    backoffs: [Option<(u64, u64, &'static str)>; MAX_TRANSFER_RETRIES as usize],
    /// From the transfer stage: the QPACK view of an h3 request, the
    /// framing and keep-alive cycle of an h1 request.
    h3_qpack: Option<H3RequestStats>,
    h1_framing: Option<(&'static str, u64)>,
    /// The record under construction. It starts as the *unserved*
    /// record — no network resources, protocol N/A — which is exactly
    /// what an N/A skip or an NXDOMAIN returns; [`Visit::open`] stamps
    /// protocol and address on the requests that get served.
    t: RequestTiming,
}

/// How a request's new connection was established.
#[derive(Clone, Copy)]
enum Opened {
    /// TCP, then (for a secure resource) TLS at this version, with the
    /// application protocol ALPN settled on.
    Tcp {
        tls: TlsVersion,
        alpn: Option<origin_tls::AlpnProtocol>,
    },
    /// One QUIC handshake.
    Quic(QuicConnectOutcome),
}

impl<'p> Request<'p> {
    fn dispatch(page: &'p Page, idx: usize, start: f64, env: &dyn WebEnv) -> Self {
        let res = &page.resources[idx];
        let host = page.host_of(res).clone();
        let (asn, link) = env.request_facts(&host);
        Request {
            res,
            link,
            partition: PoolPartition::from(res.fetch_mode),
            h3_eligible: page.h3 && res.secure && res.protocol == Protocol::H2,
            legacy_h1: page.legacy && res.protocol == Protocol::H11,
            addrs: None,
            fault_penalty_ms: 0.0,
            reuse_label: "new",
            rule_label: None,
            misdirected: None,
            torn_down_us: None,
            opened: None,
            backoffs: [None; MAX_TRANSFER_RETRIES as usize],
            h3_qpack: None,
            h1_framing: None,
            t: RequestTiming {
                resource_index: idx,
                host,
                ip: PLACEHOLDER_IP,
                asn,
                start,
                phase: Phase::default(),
                did_dns: false,
                new_connection: false,
                coalesced: false,
                protocol: Protocol::NA,
                cert_issuer: None,
                secure: res.secure,
                extra_connections: 0,
                extra_dns: 0,
                us: SealedUs::default(),
            },
        }
    }

    /// The DNS answer as the pool reads it: empty when unresolved.
    fn addrs(&self) -> &[IpAddr] {
        self.addrs.as_deref().unwrap_or(&[])
    }

    /// When the request can ask the pool for a connection (ms).
    fn after_dns(&self) -> f64 {
        self.t.start + self.t.phase.dns
    }

    /// When connection setup can begin: after DNS and after whatever
    /// failed attempts the faults cost (ms).
    fn setup_start(&self) -> f64 {
        self.after_dns() + self.fault_penalty_ms
    }
}

impl Visit<'_> {
    /// Walk the resource tree in discovery order, dispatching each
    /// resource when its parent and the main thread allow, and return
    /// the visit's protocol stats.
    fn run(mut self) -> (H1Stats, H3Stats) {
        let page = self.page;
        self.h1.pages = u64::from(page.legacy);
        self.h3.pages = u64::from(page.h3);
        // The browser main thread parses/executes resources serially;
        // this is the CPU floor under PLT that coalescing cannot
        // remove (and the reason §6.1 warns against assuming "faster").
        let mut main_thread_free = 0.0f64;

        for (idx, res) in page.resources.iter().enumerate() {
            let parent = if idx == 0 {
                None
            } else {
                Some(res.discovered_by.unwrap_or(0))
            };
            let start = if let Some(p) = parent {
                // A child dispatches after its discovering resource
                // finishes plus the CPU time to parse/execute the
                // parent — the dependency-graph computation the §4.1
                // reconstruction leaves untouched. Scripts and style
                // sheets cost more than images.
                let seq = self.arena.child_seq[p];
                self.arena.child_seq[p] += 1;
                let parent_cpu = if page.resources[p].content_type.is_render_blocking() {
                    self.rng.log_normal(40.0, 0.8)
                } else {
                    self.rng.log_normal(8.0, 0.5)
                };
                let dep_ready =
                    self.arena.ready[p] + parent_cpu + DISPATCH_DELAY_MS * (1.0 + seq as f64 * 6.0);
                // The main thread must also have worked through the
                // handling slices of every earlier resource.
                dep_ready.max(main_thread_free)
            } else {
                0.0
            };

            // Main-thread slice consumed handling this resource (a
            // queue of CPU work, not a ratchet on start times).
            main_thread_free += self.rng.log_normal(9.0, 0.5);
            let timing = self.run_request(idx, start);
            self.arena.ready[idx] = timing.end();
            self.arena.timings.push(timing);
        }

        if page.h3 {
            // Fold the visit's session counters and per-connection
            // QPACK/CID totals into the stats the registry sees.
            self.h3.counts = self.arena.h3_session.counts;
            let quic = &self.arena.quic;
            for conn in &quic.all[..quic.used] {
                self.h3.qpack_instructions += conn.qpack_instructions();
                self.h3.qpack_evictions += conn.qpack_evictions();
                self.h3.cids_issued += conn.cids_issued();
                self.h3.cids_retired += conn.cids_retired();
            }
        }
        (self.h1, self.h3)
    }

    /// One request through the five stages. Whichever way it leaves,
    /// its record is sealed exactly once, where its last phase is
    /// written: in [`Visit::transfer`] when served, here when not.
    fn run_request(&mut self, idx: usize, start: f64) -> RequestTiming {
        let mut rq = Request::dispatch(self.page, idx, start, &*self.env);
        // Failed/aborted requests (Table 3's N/A rows) consume no
        // network resources.
        let conn = if rq.res.protocol != Protocol::NA && self.resolve(&mut rq) {
            let decision = self.decide(&mut rq);
            let conn = self.open(&mut rq, decision);
            self.transfer(&mut rq, conn);
            Some(conn)
        } else {
            rq.t.seal();
            None
        };
        self.report(&rq, conn);
        rq.t
    }

    /// How the pool would connect `rq` at time `at` given DNS answer
    /// `addrs` (empty: before, or without, resolving).
    fn ask_pool(&self, rq: &Request<'_>, addrs: &[IpAddr], at: f64) -> ReuseDecision {
        let host = &rq.t.host;
        self.arena.pool.decide(
            self.config.kind,
            host,
            addrs,
            rq.partition,
            MAX_H1_CONNECTIONS_PER_HOST,
            at,
            |ch| self.env.colocated(ch, host),
        )
    }

    /// Stage 1 — resolve: probe the pool for a connection that serves
    /// the name without DNS, else query. Draws from `rng` only (the
    /// resolver's latency, then the speculative-query race). Returns
    /// `false` on NXDOMAIN, leaving `rq.t` the failed record.
    fn resolve(&mut self, rq: &mut Request<'_>) -> bool {
        let kind = self.config.kind;
        let host = &rq.t.host;
        let start = rq.t.start;
        // Would an existing connection serve without DNS? The ideal
        // models skip the query for coalesced names; real browsers
        // always resolve first (§6.8) unless configured to trust the
        // ORIGIN set.
        let trusts_origin = self.config.trust_origin_without_dns && kind.uses_origin_frame();
        let skip_dns = (trusts_origin || !kind.dns_before_coalesce()) && {
            let probe = self.ask_pool(rq, &[], start);
            trusts_origin && matches!(probe, ReuseDecision::Coalesce(..))
                || !kind.dns_before_coalesce() && probe != ReuseDecision::New
        };
        if skip_dns {
            return true;
        }

        // The query starts with the request, quantised as its seal will
        // be, so a DNS span begins exactly where the request does.
        let now = SimTime::from_micros(ms_to_us(start));
        // The environment's resolver traces its own queries, on the
        // loader's lane: the one sink the stages hand on.
        let mut tracer = self.tracer.as_deref_mut();
        if let Some(t) = tracer.as_deref_mut() {
            t.set_tid(0);
        }
        let Some(ans) = self.env.resolve(host, now, self.rng, tracer) else {
            // NXDOMAIN: the request fails after the lookup.
            rq.t.phase.dns = NXDOMAIN_MS;
            rq.t.did_dns = true;
            return false;
        };
        rq.t.phase.dns = ans.latency.as_millis_f64();
        rq.t.did_dns = !ans.from_cache;
        rq.addrs = Some(ans.addresses);
        if rq.t.did_dns && self.rng.chance(self.config.speculative_dns_rate) {
            rq.t.extra_dns = 1;
        }
        true
    }

    /// Stage 2 — decide: ask the pool how the request gets a
    /// connection. Draws nothing from `rng`; a coalesced ride may draw
    /// a 421 from the fault RNG, which turns the decision into `New`.
    fn decide(&mut self, rq: &mut Request<'_>) -> ReuseDecision {
        let host = &rq.t.host;
        let decision = self.ask_pool(rq, rq.addrs(), rq.after_dns());
        let (Some(f), ReuseDecision::Coalesce(i, _)) = (self.faults.as_deref_mut(), decision)
        else {
            return decision;
        };
        if !f.rng.chance(f.profile.h421_for(host.as_str())) {
            return decision;
        }
        // The server behind the coalesced connection refused this
        // authority: one full round trip learns that via `421
        // Misdirected Request`. Evict the mapping so no later request
        // repeats the mistake, then replay on a dedicated connection.
        let rtt_ms = rq.link.rtt.as_millis_f64();
        self.arena.pool.evict_coalesce(host, i);
        f.counts.misdirected_421 += 1;
        f.counts.pool_evictions += 1;
        f.counts.retries += 1;
        rq.misdirected = Some(i);
        rq.fault_penalty_ms += rtt_ms;
        rq.reuse_label = "replay-421";
        ReuseDecision::New
    }

    /// Stage 3 — open: attach the request to the connection the
    /// decision names, or establish a new one (TCP+TLS, or QUIC in a
    /// certificate scope that already advertised h3). Returns the
    /// serving connection's pool index, whose address and AS the
    /// record is stamped with.
    fn open(&mut self, rq: &mut Request<'_>, decision: ReuseDecision) -> usize {
        let conn_idx = match decision {
            ReuseDecision::SameHost(i) => {
                rq.reuse_label = "same-host";
                let c = &self.arena.pool.connections()[i];
                // Real browsers queue behind a busy H1.1 connection;
                // the ideal models are timing-blind best cases.
                if self.config.kind.models_races()
                    && !c.multiplexes()
                    && c.busy_until > rq.after_dns()
                {
                    rq.t.phase.blocked += c.busy_until - rq.after_dns();
                }
                i
            }
            ReuseDecision::Coalesce(i, rule) => {
                rq.t.coalesced = true;
                rq.reuse_label = "coalesced";
                rq.rule_label = Some(rule);
                i
            }
            ReuseDecision::New => {
                rq.t.new_connection = true;
                let ip = rq.addrs().first().copied().unwrap_or(PLACEHOLDER_IP);
                match self.env.cert_shared(&rq.t.host) {
                    Some(c) if rq.h3_eligible && self.arena.h3_session.knows_h3(c.serial) => {
                        self.open_quic(rq, ip, c)
                    }
                    cert => self.open_tcp(rq, ip, cert),
                }
            }
        };
        rq.t.phase.blocked += rq.fault_penalty_ms;
        let ip = self.arena.pool.connections()[conn_idx].ip;
        rq.t.protocol = rq.res.protocol;
        rq.t.ip = ip;
        if ip != PLACEHOLDER_IP {
            rq.t.asn = self.env.asn_of_ip(&ip).max(rq.t.asn);
        }
        conn_idx
    }

    /// Establish a TCP(+TLS) connection: ALPN, handshake cost from
    /// `rng`, the §6.7 middlebox teardown and its reconnect from the
    /// fault RNG, then the happy-eyeballs race from `rng`.
    fn open_tcp(
        &mut self,
        rq: &mut Request<'_>,
        ip: IpAddr,
        cert: Option<std::sync::Arc<origin_tls::Certificate>>,
    ) -> usize {
        let res = rq.res;
        // ALPN (RFC 7301) selects what the fresh connection speaks:
        // the client always offers `h2, http/1.1`, the origin's
        // advertisement — its deployment fact — wins. Pure
        // computation, so running it on every setup perturbs nothing.
        let alpn = origin_tls::alpn_negotiate(
            origin_tls::alpn::CLIENT_OFFER,
            origin_tls::alpn::server_advertisement(res.protocol == Protocol::H2),
        );
        debug_assert_eq!(
            alpn == Some(origin_tls::AlpnProtocol::H2),
            res.protocol == Protocol::H2,
            "negotiated ALPN must agree with the deployed protocol"
        );
        // CDN edges negotiate TLS 1.3; roughly half the tail origins
        // still ran TLS 1.2 (2-RTT handshakes) at the paper's Feb-2021
        // snapshot.
        let is_tail_path = rq.link.rtt > SimDuration::from_millis(40);
        let tls = if is_tail_path && self.rng.chance(0.65) {
            TlsVersion::Tls12
        } else {
            TlsVersion::Tls13
        };
        let hs = HandshakeModel::for_certificate(
            tls,
            cert.as_ref().map(|c| c.wire_size()).unwrap_or(1_500),
        );
        let mut cost = hs.connect(&rq.link, self.rng);
        let mut origin_set = self.env.origin_set_for(&rq.t.host);
        // Whether the middlebox teardown below also ate the origin's
        // `alt-svc: h3` advertisement (the reconnect suppresses
        // optional frames/headers).
        let mut altsvc_suppressed = false;
        if let Some(f) = self.faults.as_deref_mut() {
            if origin_set.is_some()
                && f.rng.chance(f.profile.middlebox)
                && Middlebox::NonCompliant.inspect(ORIGIN_FRAME_TYPE) == MiddleboxVerdict::TearDown
            {
                // §6.7: the handshake succeeded, then the ORIGIN frame
                // the edge sent on the fresh connection tripped an
                // on-path middlebox, which tore the connection down.
                // The wasted setup is charged as blocked time and the
                // client reconnects with ORIGIN advertisement
                // suppressed (the fail-open the CDN shipped).
                let wasted = cost.tcp.as_millis_f64()
                    + if res.secure {
                        cost.tls.as_millis_f64()
                    } else {
                        0.0
                    };
                rq.torn_down_us = Some(ms_to_us(rq.setup_start() + wasted));
                rq.fault_penalty_ms += wasted;
                cost = hs.connect(&rq.link, &mut f.rng);
                origin_set = None;
                altsvc_suppressed = true;
                f.counts.middlebox_teardowns += 1;
                f.counts.origin_suppressed += 1;
                f.counts.retries += 1;
            }
        }
        rq.t.phase.connect = cost.tcp.as_millis_f64();
        rq.t.phase.ssl = if res.secure {
            cost.tls.as_millis_f64()
        } else {
            0.0
        };
        if self.rng.chance(self.config.happy_eyeballs_dup_rate) {
            rq.t.extra_connections = 1;
        }
        rq.t.cert_issuer = cert.as_ref().map(|c| c.issuer.clone());
        rq.opened = Some(Opened::Tcp { tls, alpn });
        if rq.legacy_h1 {
            self.h1.connections_opened += 1;
            // This connection opens because HTTP/1.1 cannot multiplex
            // or coalesce. Before it enters the pool, ask each policy
            // whether its *h2* rules would have merged the request
            // onto an existing connection — Sander et al.'s redundant
            // connections, the setups an all-h2 deployment would have
            // avoided.
            for (slot, (kind, _)) in REDUNDANCY_KINDS.iter().enumerate() {
                if self.arena.pool.redundant_if_h2(
                    *kind,
                    &rq.t.host,
                    rq.addrs(),
                    rq.partition,
                    |ch| self.env.colocated(ch, &rq.t.host),
                ) {
                    self.h1.redundant[slot] += 1;
                }
            }
        }
        if rq.h3_eligible {
            if let Some(c) = cert.as_ref() {
                // The h2 response from an h3 origin advertises
                // `alt-svc: h3` for its whole certificate scope, and a
                // TLS 1.3 handshake banks a session ticket the scope's
                // QUIC handshakes can redeem.
                let session = &mut self.arena.h3_session;
                session.learn_alt_svc(c.serial, altsvc_suppressed);
                if tls == TlsVersion::Tls13 {
                    session.bank_ticket(rq.t.host.as_str(), c.serial);
                }
            }
        }
        let cert = cert.unwrap_or_else(|| {
            // Plain-HTTP hosts have no certificate; a subject-only
            // stand-in keeps the pool typed.
            std::sync::Arc::new(origin_tls::CertificateBuilder::new(rq.t.host.clone()).build())
        });
        self.admit(rq, ip, cert, origin_set)
    }

    /// Open one QUIC connection in a certificate scope that has already
    /// advertised h3 this visit; the handshake draws from `rng`. QUIC
    /// folds transport and TLS establishment into one exchange, so
    /// there is no TCP round trip: the whole handshake cost (0-RTT
    /// resumption, full 1-RTT, or the anti-amplification stall a
    /// bloated chain forces) lands in the `ssl` phase and `connect`
    /// stays zero. The pooled connection carries no ORIGIN set — RFC
    /// 8336 frames are h2-only — so SAN/IP matching alone gates
    /// coalescing onto it.
    fn open_quic(
        &mut self,
        rq: &mut Request<'_>,
        ip: IpAddr,
        cert: std::sync::Arc<origin_tls::Certificate>,
    ) -> usize {
        let host = &rq.t.host;
        let outcome = self.arena.h3_session.connect(
            host.as_str(),
            cert.serial,
            cert.wire_size(),
            ip,
            &rq.link,
            self.rng,
        );
        rq.t.phase.connect = 0.0;
        rq.t.phase.ssl = outcome.cost.as_millis_f64();
        rq.t.cert_issuer = Some(cert.issuer.clone());
        rq.opened = Some(Opened::Quic(outcome));
        self.admit(rq, ip, cert, None)
    }

    /// Enter a freshly established connection into the pool and its
    /// [`ConnState`] slot — the one place the two grow, in lock-step.
    fn admit(
        &mut self,
        rq: &Request<'_>,
        ip: IpAddr,
        cert: std::sync::Arc<origin_tls::Certificate>,
        origin_set: Option<std::sync::Arc<origin_h2::OriginSet>>,
    ) -> usize {
        let open_us = ms_to_us(rq.setup_start());
        let i = self.arena.pool.insert(PooledConnection {
            host: rq.t.host.clone(),
            ip,
            // Unresolved only when a 421 turned an ORIGIN-trusted ride
            // into a new connection.
            available_set: rq.addrs.clone().unwrap_or_else(|| [].into()),
            cert,
            origin_set,
            protocol: rq.res.protocol,
            partition: rq.partition,
            bytes_transferred: 0,
            in_flight: 0,
            busy_until: 0.0,
            closed: false,
            quic: matches!(rq.opened, Some(Opened::Quic(_))),
        });
        self.arena.conns.push(ConnState {
            open_us,
            h1_cycles: 0,
            quic: None,
        });
        debug_assert_eq!(self.arena.conns.len(), self.arena.pool.len());
        i
    }

    /// Stage 4 — transfer: send/wait/receive on the serving
    /// connection. The think time draws from `rng`; packet fates and
    /// every retransmit backoff draw from the fault RNG. Then a QUIC
    /// connection's QPACK encoder compresses the request's header
    /// block, and a legacy HTTP/1.1 request counts its cycle.
    fn transfer(&mut self, rq: &mut Request<'_>, conn_idx: usize) {
        let res = rq.res;
        let start = rq.t.start;
        let conn = self.arena.pool.get_mut(conn_idx);
        let warm_cwnd = if conn.bytes_transferred > 0 {
            rq.link.cwnd_after(conn.bytes_transferred, INIT_CWND)
        } else {
            INIT_CWND
        };
        let phase = &mut rq.t.phase;
        phase.send = 0.3;
        phase.wait = origin_webgen::dist::sample_wait_ms(self.rng);
        phase.receive = rq.link.transfer_time(res.size, warm_cwnd).as_millis_f64();
        if let Some(f) = self.faults.as_deref_mut() {
            // Bounded deterministic retry: each drop/corrupt verdict
            // costs an exponentially growing backoff plus one RTT to
            // retransmit, all charged to the receive phase. After
            // MAX_TRANSFER_RETRIES the transfer is force-delivered so
            // the crawl terminates under any profile.
            for attempt in 0..MAX_TRANSFER_RETRIES {
                let fate_label = match f.profile.packet_fate(&mut f.rng) {
                    PacketFate::Delivered => break,
                    PacketFate::Dropped => {
                        f.counts.drops += 1;
                        "dropped"
                    }
                    PacketFate::Corrupted => {
                        f.counts.corruptions += 1;
                        "corrupted"
                    }
                };
                f.counts.retries += 1;
                let backoff = RETRY_BASE_MS * f64::from(1u32 << attempt);
                let redo = backoff + rq.link.rtt.as_millis_f64();
                let redo_us = ms_to_us(redo);
                rq.backoffs[attempt as usize] =
                    Some((ms_to_us(start + phase.total()), redo_us, fate_label));
                phase.receive += redo;
                f.counts.backoff_events += 1;
                f.counts.backoff_us += redo_us;
            }
        }
        // Every phase now holds its final value: the record's one
        // quantisation, read from here on by the spans, the metrics,
        // the observation and the §3/§4 analysis.
        rq.t.seal();
        conn.bytes_transferred += res.size;
        if self.config.kind.models_races() && !conn.multiplexes() {
            conn.busy_until = start + rq.t.total();
        }

        // Requests riding a QUIC connection drive its QPACK encoder
        // (static/dynamic compression replaces HPACK) and periodic
        // connection-ID rotation. Only h3 pages ever mark a connection
        // `quic`, so this block is dead at `h3_share = 0`.
        if conn.quic {
            self.h3.requests += 1;
            let arena = &mut *self.arena;
            let i = *arena.conns[conn_idx]
                .quic
                .get_or_insert_with(|| arena.quic.take());
            let path = res.render_path(&self.page.hosts, &mut arena.path);
            rq.h3_qpack = Some(arena.quic.all[i].drive_request(rq.t.host.as_str(), path));
        }
        if rq.legacy_h1 {
            self.h1.requests += 1;
            // Coalesced rides are excluded — only the ideal
            // (protocol-blind) models ever coalesce h1, and they model
            // structure, not wire protocol.
            if !rq.t.coalesced {
                self.h1_cycle(rq, conn_idx);
            }
        }
    }

    /// One HTTP/1.1 request/response cycle of legacy traffic: its
    /// keep-alive count, its place among its connection's cycles and
    /// its response framing, each fixed by rule (the replay oracle in
    /// `tests/replay.rs` holds them to the `origin-h1` machine). Draws
    /// from no RNG.
    fn h1_cycle(&mut self, rq: &mut Request<'_>, conn_idx: usize) {
        if !rq.t.new_connection {
            self.h1.keepalive_reuse += 1;
        }
        let arena = &mut *self.arena;
        let cycles = &mut arena.conns[conn_idx].h1_cycles;
        *cycles += 1;
        // Without a Content-Length the body runs until the server
        // closes, and the connection leaves the reusable pool: `closed`
        // frees its per-host slot, and the next request to this host
        // pays a fresh setup.
        let mut framing = "content-length";
        if close_delimited_response(rq.res.render_path(&self.page.hosts, &mut arena.path)) {
            framing = "close-delimited";
            arena.pool.get_mut(conn_idx).closed = true;
            self.h1.close_delimited += 1;
        }
        rq.h1_framing = Some((framing, *cycles));
    }

    /// Stage 5 — report: every flight record and trace event of the
    /// completed request, from what its stages kept on `rq` (`conn`
    /// served it, if one did). Returns at once when no sink is attached.
    fn report(&mut self, rq: &Request<'_>, conn: Option<usize>) {
        let (flight, tracer) = match (self.flight.as_deref_mut(), self.tracer.as_deref_mut()) {
            (None, None) => return,
            sinks => sinks,
        };
        if let Some(rec) = flight {
            rq.record(rec, conn, self.arena);
        }
        if let Some(t) = tracer {
            rq.trace(t, conn, self.arena, self.page.legacy);
        }
    }
}

/// Address recorded for requests that never reached one.
const PLACEHOLDER_IP: IpAddr = IpAddr::V4(Ipv4Addr::UNSPECIFIED);

/// What a failed lookup costs before the request gives up (ms).
const NXDOMAIN_MS: f64 = 15.0;

/// Does a legacy origin serve this resource with a close-delimited
/// body (no `Content-Length`)? FNV-1a over the path picks roughly one
/// response in sixteen — a pure function of the page, so every thread
/// count and every visit agrees on which connections tear down.
fn close_delimited_response(path: &str) -> bool {
    origin_netsim::hash::fnv1a64(path.as_bytes()) & 15 == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::UniverseEnv;
    use origin_telemetry::trace::EventKind;
    use origin_webgen::{Dataset, DatasetConfig};

    fn dataset() -> Dataset {
        Dataset::generate(DatasetConfig {
            sites: 120,
            tranco_total: 500_000,
            seed: 11,
            ..Default::default()
        })
    }

    /// A clean, untraced load through `arena`, counted into `metrics`.
    fn metered(
        loader: &PageLoader,
        page: &Page,
        env: &mut UniverseEnv,
        rng: &mut SimRng,
        metrics: &mut Registry,
        arena: &mut VisitArena,
    ) -> PageLoad {
        let sinks = VisitSinks::default();
        loader.load_observed(page, env, rng, None, Some(metrics), None, arena, sinks)
    }

    fn load_first_page(kind: BrowserKind, d: &Dataset) -> PageLoad {
        let site = d
            .sites()
            .iter()
            .find(|s| !s.failed)
            .expect("a successful site")
            .clone();
        let page = d.page_for(&site);
        let mut env = UniverseEnv::new(d);
        env.flush_dns();
        let loader = PageLoader::new(kind);
        let mut rng = SimRng::seed_from_u64(99);
        loader.load(&page, &mut env, &mut rng)
    }

    #[test]
    fn load_produces_timing_per_resource() {
        let d = dataset();
        let site = d.sites().iter().find(|s| !s.failed).unwrap().clone();
        let page = d.page_for(&site);
        let pl = load_first_page(BrowserKind::Chromium, &d);
        assert_eq!(pl.requests.len(), page.resources.len());
        assert!(pl.plt() > 0.0);
        // Root request always opens a connection and queries DNS.
        assert!(pl.requests[0].new_connection);
        assert!(pl.requests[0].did_dns);
    }

    #[test]
    fn dns_once_per_host() {
        let d = dataset();
        let pl = load_first_page(BrowserKind::Chromium, &d);
        // Network DNS queries ≤ distinct hosts (cache hits after the
        // first query per host).
        let distinct_hosts: std::collections::HashSet<_> =
            pl.requests.iter().map(|r| r.host.clone()).collect();
        let base_dns: u64 = pl.requests.iter().filter(|r| r.did_dns).count() as u64;
        assert!(base_dns <= distinct_hosts.len() as u64);
    }

    #[test]
    fn same_host_requests_reuse_connections() {
        // Every successful page of the test world, loaded cold. A page
        // whose hosts are each fetched in one credentials mode opens no
        // more new h2 connections than it has distinct hosts. Pools are
        // partitioned by that mode (a credentialed and a CORS-anonymous
        // fetch of one host never share a connection), so a page that
        // fetches a host in two modes may open one per (host, mode).
        let d = dataset();
        let loader = PageLoader::new(BrowserKind::Chromium);
        let (mut one_mode_pages, mut mixed_pages) = (0, 0);
        for site in d.sites().iter().filter(|s| !s.failed) {
            let page = d.page_for(site);
            let mut env = UniverseEnv::new(&d);
            env.flush_dns();
            let pl = loader.load(&page, &mut env, &mut SimRng::seed_from_u64(99));
            let hosts: std::collections::HashSet<_> = pl.requests.iter().map(|r| &r.host).collect();
            let pairs: std::collections::HashSet<_> = pl
                .requests
                .iter()
                .zip(&page.resources)
                .map(|(r, res)| (&r.host, PoolPartition::from(res.fetch_mode)))
                .collect();
            let h2_new = pl
                .requests
                .iter()
                .filter(|r| r.new_connection && r.protocol == Protocol::H2)
                .count();
            if pairs.len() == hosts.len() {
                one_mode_pages += 1;
                assert!(h2_new <= hosts.len(), "{}: {h2_new} new", site.root_host);
            } else {
                mixed_pages += 1;
                assert!(h2_new <= pairs.len(), "{}: {h2_new} new", site.root_host);
            }
        }
        assert!(
            one_mode_pages >= 10 && mixed_pages >= 1,
            "{one_mode_pages} / {mixed_pages}"
        );
    }

    #[test]
    fn ideal_origin_fewer_connections_than_chromium() {
        let d1 = dataset();
        let chromium = load_first_page(BrowserKind::Chromium, &d1);
        let d2 = dataset();
        let ideal = load_first_page(BrowserKind::IdealOrigin, &d2);
        assert!(
            ideal.tls_connections() <= chromium.tls_connections(),
            "ideal {} vs chromium {}",
            ideal.tls_connections(),
            chromium.tls_connections()
        );
        assert!(
            ideal.dns_queries() <= chromium.dns_queries(),
            "ideal {} vs chromium {}",
            ideal.dns_queries(),
            chromium.dns_queries()
        );
        assert!(ideal.coalesced_requests() >= chromium.coalesced_requests());
    }

    #[test]
    fn ideal_ip_between_measured_and_origin() {
        let d1 = dataset();
        let measured = load_first_page(BrowserKind::Chromium, &d1);
        let d2 = dataset();
        let ideal_ip = load_first_page(BrowserKind::IdealIp, &d2);
        let d3 = dataset();
        let ideal_origin = load_first_page(BrowserKind::IdealOrigin, &d3);
        assert!(ideal_ip.tls_connections() <= measured.tls_connections());
        assert!(ideal_origin.tls_connections() <= ideal_ip.tls_connections());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let d1 = dataset();
        let a = load_first_page(BrowserKind::Firefox, &d1);
        let d2 = dataset();
        let b = load_first_page(BrowserKind::Firefox, &d2);
        assert_eq!(a, b);
    }

    #[test]
    fn coalesced_requests_have_no_setup_phases() {
        let d = dataset();
        let sites: Vec<_> = d
            .sites()
            .iter()
            .filter(|s| !s.failed)
            .take(10)
            .cloned()
            .collect();
        let mut total_coalesced = 0;
        for site in sites {
            let page = d.page_for(&site);
            let mut env = UniverseEnv::new(&d);
            env.flush_dns();
            let loader = PageLoader::new(BrowserKind::IdealOrigin);
            let mut rng = SimRng::seed_from_u64(99);
            let pl = loader.load(&page, &mut env, &mut rng);
            for r in &pl.requests {
                if r.coalesced {
                    assert_eq!(r.phase.connect, 0.0);
                    assert_eq!(r.phase.ssl, 0.0);
                    assert!(!r.new_connection);
                }
            }
            total_coalesced += pl.coalesced_requests();
        }
        assert!(
            total_coalesced > 0,
            "ideal origin should coalesce across 10 pages"
        );
    }

    #[test]
    fn traced_load_is_identical_to_untraced() {
        // Tracing observes the simulation without drawing from its
        // RNG, so a traced load must return the same PageLoad — this
        // is what lets `repro trace` reproduce exactly the visit the
        // crawl measured.
        let d1 = dataset();
        let untraced = load_first_page(BrowserKind::IdealOrigin, &d1);
        let d2 = dataset();
        let site = d2
            .sites()
            .iter()
            .find(|s| !s.failed)
            .expect("a successful site")
            .clone();
        let page = d2.page_for(&site);
        let mut env = UniverseEnv::new(&d2);
        env.flush_dns();
        let loader = PageLoader::new(BrowserKind::IdealOrigin);
        let mut rng = SimRng::seed_from_u64(99);
        let mut tracer = Tracer::new();
        tracer.begin_visit(site.rank as u64, "test visit");
        let mut metrics = Registry::new();
        let traced = loader.load_observed(
            &page,
            &mut env,
            &mut rng,
            None,
            Some(&mut metrics),
            Some(&mut tracer),
            &mut VisitArena::new(),
            VisitSinks::default(),
        );
        assert_eq!(traced, untraced);

        // The HAR export's PLT and the metrics registry's per-visit
        // sim.page phase are the same integer-microsecond value.
        let page_phase = metrics.phase("sim.page").expect("sim.page recorded");
        assert_eq!(page_phase.total.as_micros(), traced.plt_us());

        // Every successful request produced a span on its serving
        // connection's track, and coalesced requests are linked to the
        // reused connection by a flow-start/flow-end pair.
        // Served requests and NXDOMAIN failures get spans; skipped
        // (N/A-protocol, no-DNS) requests get only an instant.
        let req_spans = traced
            .requests
            .iter()
            .filter(|r| r.protocol != Protocol::NA || r.did_dns)
            .count();
        let span_count = tracer
            .events()
            .filter(|e| e.cat() == "request" && e.kind() == EventKind::Complete)
            .count();
        assert_eq!(span_count, req_spans);
        let coalesced = traced.coalesced_requests() as usize;
        assert!(coalesced > 0, "ideal-origin visit should coalesce");
        let flow_starts = tracer
            .events()
            .filter(|e| e.kind() == EventKind::FlowStart)
            .count();
        let flow_ends = tracer
            .events()
            .filter(|e| e.kind() == EventKind::FlowEnd)
            .count();
        assert_eq!(flow_starts, coalesced);
        assert_eq!(flow_ends, coalesced);

        // Request span ends equal the quantised request ends the HAR
        // export reports: spans, HAR, and metrics tell one story.
        let max_span_end = tracer
            .events()
            .filter(|e| e.cat() == "request" && e.kind() == EventKind::Complete)
            .map(|e| e.ts_us() + e.dur_us())
            .max()
            .expect("at least one request span");
        assert_eq!(max_span_end, traced.plt_us());
    }

    #[test]
    fn pure_h2_visit_records_no_h1_metrics() {
        // The mixed-protocol machinery must be invisible on a default
        // (legacy share 0) universe: no `h1.*` key may materialize,
        // or the committed metrics baselines would change shape.
        let d = dataset();
        let site = d.sites().iter().find(|s| !s.failed).unwrap().clone();
        let page = d.page_for(&site);
        assert!(!page.legacy);
        let mut env = UniverseEnv::new(&d);
        env.flush_dns();
        let loader = PageLoader::new(BrowserKind::Firefox);
        let mut rng = SimRng::seed_from_u64(99);
        let mut metrics = Registry::new();
        metered(
            &loader,
            &page,
            &mut env,
            &mut rng,
            &mut metrics,
            &mut VisitArena::new(),
        );
        assert!(metrics.counters().all(|(name, _)| !name.starts_with("h1.")));
        assert!(metrics.counters().all(|(name, _)| !name.starts_with("h3.")));
    }

    #[test]
    fn h3_pages_upgrade_connections_to_quic() {
        let d = Dataset::generate(DatasetConfig {
            sites: 40,
            tranco_total: 500_000,
            seed: 11,
            legacy_share: 0.0,
            h3_share: 1.0,
        });
        let mut env = UniverseEnv::new(&d);
        let loader = PageLoader::new(BrowserKind::Firefox);
        let mut metrics = Registry::new();
        let mut arena = VisitArena::new();
        let mut pages = 0u64;
        for site in d.sites().iter().filter(|s| !s.failed).take(12) {
            let page = d.page_for(site);
            assert!(page.h3, "share 1.0 makes every site deploy h3");
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let load = metered(&loader, &page, &mut env, &mut rng, &mut metrics, &mut arena);
            pages += 1;
            arena.recycle(load);
        }
        assert_eq!(metrics.counter("h3.pages"), pages);
        // Alt-Svc is learned from the first (h2) connection per cert
        // scope; later New decisions in a known scope open QUIC.
        assert!(metrics.counter("h3.altsvc_learned") > 0);
        assert!(metrics.counter("h3.connections") > 0);
        // Every QUIC connection ran exactly one handshake.
        assert_eq!(
            metrics.counter("h3.connections"),
            metrics.counter("h3.handshakes_1rtt") + metrics.counter("h3.handshakes_0rtt"),
        );
        // 0-RTT attempts can only spend tickets that TLS 1.3 or a
        // prior full handshake banked.
        assert!(
            metrics.counter("h3.handshakes_0rtt") + metrics.counter("h3.zero_rtt_rejected")
                <= metrics.counter("h3.tickets_issued")
        );
        // Requests rode the QUIC connections and drove QPACK.
        assert!(metrics.counter("h3.requests") > 0);
        assert!(metrics.counter("h3.qpack_instructions") > 0);
        assert!(metrics.counter("h3.cids_issued") >= metrics.counter("h3.connections"));
    }

    #[test]
    fn legacy_pages_count_h1_cycles() {
        let d = Dataset::generate(DatasetConfig {
            sites: 40,
            tranco_total: 500_000,
            seed: 11,
            legacy_share: 1.0,
            h3_share: 0.0,
        });
        let mut env = UniverseEnv::new(&d);
        let loader = PageLoader::new(BrowserKind::Firefox);
        let mut metrics = Registry::new();
        let mut arena = VisitArena::new();
        let mut h11_requests = 0u64;
        let mut coalesced_h1 = 0u64;
        let mut pages = 0u64;
        for site in d.sites().iter().filter(|s| !s.failed).take(12) {
            let page = d.page_for(site);
            assert!(page.legacy, "share 1.0 makes every site legacy");
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let load = metered(&loader, &page, &mut env, &mut rng, &mut metrics, &mut arena);
            for r in &load.requests {
                if r.protocol == Protocol::H11 {
                    h11_requests += 1;
                    coalesced_h1 += r.coalesced as u64;
                }
            }
            pages += 1;
            arena.recycle(load);
        }
        // Every HTTP/1.1 request that reached the network is counted
        // exactly once.
        assert!(metrics.counter("h1.requests") > 0);
        assert_eq!(metrics.counter("h1.requests"), h11_requests);
        assert_eq!(
            metrics.counter("h1.requests"),
            metrics.counter("h1.connections_opened")
                + metrics.counter("h1.keepalive_reuse")
                + coalesced_h1,
            "every h1 request either opened, kept alive, or coalesced"
        );
        assert_eq!(metrics.counter("h1.pages"), pages);
        // Domain-sharded legacy pages open connections an h2
        // deployment would have merged; any event redundant under
        // Chromium's strict rules is redundant under the ideal-ORIGIN
        // model too (its conditions are a superset trigger).
        assert!(metrics.counter("h1.redundant.ideal_origin") > 0);
        assert!(
            metrics.counter("h1.redundant.ideal_origin")
                >= metrics.counter("h1.redundant.chromium")
        );
        // ~1/16 of paths draw a close-delimited response; across a
        // dozen legacy sites some connection must have torn down.
        assert!(metrics.counter("h1.close_delimited") > 0);
    }

    /// An arena that has carried 500+ visits of a mixed, faulted
    /// universe — the compared tests' own hostnames among them, legacy
    /// peers that closed connections, 421s that evicted coalesced
    /// mappings — and so has held every kind of key a reset must drop,
    /// and holds used QUIC machines a later visit will take.
    fn worn_arena() -> VisitArena {
        let d = Dataset::generate(DatasetConfig {
            sites: 900,
            tranco_total: 500_000,
            seed: 11,
            legacy_share: 0.3,
            h3_share: 0.3,
        });
        let profile = FaultProfile {
            h421: 0.2,
            ..Default::default()
        };
        let loader = PageLoader::new(BrowserKind::Firefox);
        let mut env = UniverseEnv::new(&d);
        let mut arena = VisitArena::new();
        let mut metrics = Registry::new();
        let mut visits = 0;
        for site in d.successful_sites() {
            let page = d.page_for(site);
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let mut faults = FaultSession::new(profile, site.page_seed);
            let load = loader.load_observed(
                &page,
                &mut env,
                &mut rng,
                Some(&mut faults),
                Some(&mut metrics),
                None,
                &mut arena,
                VisitSinks::default(),
            );
            arena.recycle(load);
            visits += 1;
        }
        assert!(visits >= 500, "only {visits} warm-up visits");
        assert!(metrics.counter("fault.pool_evictions") > 0);
        assert!(metrics.counter("h1.close_delimited") > 0);
        let quic = &arena.quic.all;
        assert!(quic.iter().any(|m| m.qpack_instructions() > 1));
        assert!(quic.iter().any(|m| m.cids_retired() > 0), "a rotated CID");
        arena
    }

    /// Between visits a worker keeps capacity, never keys: after 1,500
    /// distinct sites of a mixed universe through one arena and one
    /// environment, a reset leaves the pool, the resolver and the
    /// env's host facts empty, what they retain is sized by the
    /// largest single visit, not by the crawl, and the arena holds no
    /// more QUIC machines than one visit drove. Counts only — no
    /// clock.
    #[test]
    fn worker_state_is_bounded_by_the_largest_visit() {
        let d = Dataset::generate(DatasetConfig {
            sites: 2_500,
            tranco_total: 500_000,
            seed: 5,
            legacy_share: 0.25,
            h3_share: 0.5,
        });
        let loader = PageLoader::new(BrowserKind::Chromium);
        let mut env = UniverseEnv::new(&d);
        let mut arena = VisitArena::new();
        let footprint = |arena: &VisitArena, env: &UniverseEnv| {
            let mut all = arena.pool.footprint().to_vec();
            all.extend(env.resolver_footprint());
            all.push(env.host_fact_footprint());
            all
        };
        let mut peak_keys = vec![0usize; footprint(&arena, &env).len()];
        let mut peak_machines = 0;
        let mut visits = 0;
        for site in d.successful_sites() {
            let page = d.page_for(site);
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let load = loader.load_observed(
                &page,
                &mut env,
                &mut rng,
                None,
                None,
                None,
                &mut arena,
                VisitSinks::default(),
            );
            arena.recycle(load);
            for (peak, (keys, _)) in peak_keys.iter_mut().zip(footprint(&arena, &env)) {
                *peak = (*peak).max(keys);
            }
            peak_machines = peak_machines.max(arena.quic.used);
            visits += 1;
        }
        assert!(visits >= 1_500, "only {visits} visits");
        assert!(peak_machines > 1);
        assert_eq!(
            arena.quic.all.len(),
            peak_machines,
            "the arena holds exactly the machines of its busiest visit"
        );

        arena.pool.clear();
        env.flush_dns();
        for (i, ((keys, capacity), peak)) in footprint(&arena, &env)
            .into_iter()
            .zip(peak_keys)
            .enumerate()
        {
            assert_eq!(keys, 0, "structure {i} kept keys across the reset");
            // Amortized growth at most doubles; the smallest table or
            // vector holds 3-4 slots.
            assert!(
                capacity <= (2 * peak).max(4),
                "structure {i} retains {capacity} slots after {visits} visits; \
                 its largest visit held {peak} keys"
            );
        }
    }

    /// A recycled arena carries the h1 cycle counts, the QUIC/QPACK
    /// state and the h3 session memory of its last visit; none of it
    /// may leak into the next visit, in either mixed universe.
    #[test]
    fn protocol_state_does_not_leak_through_the_arena() {
        // One arena for the whole test: worn before the first universe,
        // and carrying the first universe's leftovers into the second.
        let mut reused = worn_arena();
        for (legacy_share, h3_share) in [(0.5, 0.0), (0.0, 1.0)] {
            let d = Dataset::generate(DatasetConfig {
                sites: 20,
                tranco_total: 500_000,
                seed: 7,
                legacy_share,
                h3_share,
            });
            let loader = PageLoader::new(BrowserKind::Firefox);
            // Loads, every counter (`h1.*`, `h3.qpack_*`, `h3.cids_*`
            // among them) and the trace, whose `h3.request` instants
            // carry each request's byte counts on both QPACK streams
            // and whose `h1.request` instants the keep-alive cycle: a
            // reused arena must emit what a fresh one does.
            let run = |arena: &mut VisitArena| {
                let mut env = UniverseEnv::new(&d);
                let mut metrics = Registry::new();
                let mut tracer = Tracer::new();
                let mut loads = Vec::new();
                for site in d.sites().iter().filter(|s| !s.failed).take(8) {
                    let page = d.page_for(site);
                    env.flush_dns();
                    let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
                    tracer.begin_visit(u64::from(site.rank), site.root_host.as_str());
                    let load = loader.load_observed(
                        &page,
                        &mut env,
                        &mut rng,
                        None,
                        Some(&mut metrics),
                        Some(&mut tracer),
                        arena,
                        VisitSinks::default(),
                    );
                    loads.push(load.clone());
                    arena.recycle(load);
                }
                let trace = origin_telemetry::trace::to_chrome_json(&tracer);
                assert!(trace.contains("h1.request") || trace.contains("h3.request"));
                (loads, metrics.to_json(), trace)
            };
            let fresh = run(&mut VisitArena::new());
            let first = run(&mut reused);
            let second = run(&mut reused); // warm arena, last visit's state cleared
            assert_eq!(fresh, first, "shares {legacy_share}/{h3_share}");
            assert_eq!(
                first, second,
                "shares {legacy_share}/{h3_share}: state leaked"
            );
        }
    }

    /// Arena reuse must be observationally invisible: a worker that
    /// recycles one [`VisitArena`] across visits — hundreds of them,
    /// over the same hostnames, its QUIC machines passing from
    /// connection to connection — produces `PageLoad`s identical to a
    /// worker that builds a fresh arena per visit, on the pure-h2
    /// universe and on a mixed one.
    #[test]
    fn arena_reuse_is_output_invisible() {
        let mixed = Dataset::generate(DatasetConfig {
            sites: 120,
            tranco_total: 500_000,
            seed: 11,
            legacy_share: 0.3,
            h3_share: 0.3,
        });
        let mut arena = worn_arena();
        for d in [dataset(), mixed] {
            let sites: Vec<_> = d.successful_sites().take(16).collect();
            let loader = PageLoader::new(BrowserKind::Chromium);
            let load_all = |mut arena: Option<&mut VisitArena>| {
                let mut env = UniverseEnv::new(&d);
                let mut loads = Vec::new();
                for site in &sites {
                    let page = d.page_for(site);
                    env.flush_dns();
                    let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
                    let mut fresh = VisitArena::new();
                    let arena = arena.as_deref_mut().unwrap_or(&mut fresh);
                    let load = loader.load_observed(
                        &page,
                        &mut env,
                        &mut rng,
                        None,
                        None,
                        None,
                        arena,
                        VisitSinks::default(),
                    );
                    loads.push(load.clone());
                    arena.recycle(load);
                }
                loads
            };
            let fresh = load_all(None);
            assert_eq!(load_all(Some(&mut arena)), fresh);
        }
    }
}
