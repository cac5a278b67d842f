//! What the loader tells its sinks, each event and counter from one
//! place: a request's trace events and flight records, from the facts
//! its stages kept ([`super::Visit::report`]), and what the registry
//! and the visit's observation take from the finished load.

use super::{
    FaultCounts, H1Stats, H3Stats, Opened, Request, VisitArena, ORIGIN_FRAME_TYPE, REDUNDANCY_KINDS,
};
use origin_netsim::{SimDuration, TlsVersion};
use origin_telemetry::metrics::Registry;
use origin_telemetry::obs::{FlightRecorder, VisitObs};
use origin_telemetry::trace::{span_ref, Arg, Site, Tracer};
use origin_web::har::{ms_to_us, PageLoad};
use origin_web::{Page, Protocol};

impl Request<'_> {
    /// The request's flight records, in the order its stages met them.
    pub(super) fn record(&self, rec: &mut FlightRecorder, conn: Option<usize>, arena: &VisitArena) {
        let host = self.t.host.as_str();
        let Some(conn) = conn else {
            if self.res.protocol != Protocol::NA {
                let index = self.t.resource_index as u64;
                rec.record(self.t.start_us(), "dns.nxdomain", index, host);
            }
            return;
        };
        if let Some(i) = self.misdirected {
            rec.record(ms_to_us(self.after_dns()), "fault.421", i as u64, host);
        }
        if let Some(at) = self.torn_down_us {
            let frame = u64::from(ORIGIN_FRAME_TYPE);
            rec.record(at, "fault.middlebox_teardown", frame, host);
        }
        if let Some(opened) = self.opened {
            let code = match opened {
                Opened::Tcp { .. } => "conn.open",
                Opened::Quic(_) => "quic.open",
            };
            rec.record(arena.conns[conn].open_us, code, conn as u64, host);
        }
        for (attempt, &(at, _, _)) in self.backoffs.iter().flatten().enumerate() {
            rec.record(at, "fault.backoff", attempt as u64 + 1, host);
        }
        if let Some(("close-delimited", cycle)) = self.h1_framing {
            let at = ms_to_us(self.t.start + self.t.total());
            rec.record(at, "h1.connection_closed", cycle, host);
        }
    }

    /// The request's trace events, in the order its stages met them: on
    /// the loader's track (0) if it was not served, else on the track
    /// of the connection that refused it (421) and then of the one that
    /// served it (`1 + conn`).
    pub(super) fn trace(
        &self,
        t: &mut Tracer,
        conn: Option<usize>,
        arena: &VisitArena,
        legacy: bool,
    ) {
        let host = self.t.host.as_str();
        let index = (self.t.resource_index as u64, host);
        let start_ts = self.t.start_us();
        let Some(conn) = conn else {
            t.set_tid(0);
            if self.res.protocol == Protocol::NA {
                t.instant_at(&SKIPPED, start_ts, &[Arg::Str(host), Arg::Str("n/a")]);
            } else {
                let args = [Arg::Str(host), Arg::Str("nxdomain")];
                t.complete_indexed(&REQ_FAILED, index, start_ts, self.t.total_us(), &args);
            }
            return;
        };
        if let Some(i) = self.misdirected {
            let args = [Arg::Str(host), Arg::U64(i as u64)];
            t.set_tid(1 + i as u32);
            t.instant_at(&FAULT_421, ms_to_us(self.after_dns()), &args);
            let evicted = self.after_dns() + self.link.rtt.as_millis_f64();
            t.instant_at(&FAULT_EVICT, ms_to_us(evicted), &args);
        }
        let tid = 1 + conn as u32;
        let serving = &arena.pool.connections()[conn];
        t.set_tid(tid);
        if let Some(rule) = self.rule_label {
            // Flow arrow from the reused connection's opening to this
            // request's dispatch, plus an instant naming the rule that
            // allowed the reuse.
            let id = t.next_id();
            t.flow_start(id, &FLOW, arena.conns[conn].open_us, tid);
            t.flow_end(id, &FLOW, ms_to_us(self.after_dns()));
            let args = [
                Arg::Str(rule),
                Arg::U64(conn as u64),
                Arg::Str(serving.host.as_str()),
            ];
            t.instant_at(&COALESCE, ms_to_us(self.after_dns()), &args);
        }
        if let Some(at) = self.torn_down_us {
            let frame = Arg::U64(u64::from(ORIGIN_FRAME_TYPE));
            t.instant_at(&TEARDOWN, at, &[Arg::Str(host), frame, Arg::Bool(true)]);
        }
        if let Some(opened) = self.opened {
            let [_, _, connect_us, ssl_us, ..] = self.t.phases_us();
            t.name_conn(tid, conn as u64, host);
            let mut hs_start = self.setup_start();
            if let Opened::Tcp { .. } = opened {
                let ip = [Arg::Ip(serving.ip)];
                t.complete(&TCP_CONNECT, ms_to_us(hs_start), connect_us, &ip);
                hs_start += self.t.phase.connect;
            }
            if self.res.secure {
                let issuer = Arg::Str(self.t.cert_issuer.as_deref().unwrap_or_default());
                match opened {
                    Opened::Tcp { tls, alpn } => {
                        let version = match tls {
                            TlsVersion::Tls12 => "TLS 1.2",
                            TlsVersion::Tls13 => "TLS 1.3",
                            TlsVersion::Tls13ZeroRtt => "TLS 1.3 0-RTT",
                        };
                        let alpn = Arg::Str(alpn.map_or("none", |p| p.name()));
                        let args = [Arg::Str(version), Arg::Str(host), issuer, alpn];
                        // `alpn` is annotated only on legacy pages so
                        // pure-h2 traces stay byte-identical to the
                        // committed baselines.
                        let args = &args[..if legacy { 4 } else { 3 }];
                        t.complete(&TLS_HANDSHAKE, ms_to_us(hs_start), ssl_us, args);
                    }
                    Opened::Quic(o) => {
                        let args = [
                            Arg::Str(o.mode.label()),
                            Arg::Str(host),
                            issuer,
                            Arg::U64(u64::from(o.amplification_rtts)),
                            Arg::Bool(o.cross_host),
                        ];
                        t.complete(&QUIC_HANDSHAKE, ms_to_us(hs_start), ssl_us, &args);
                    }
                }
                // The SAN check the pool's coalescing relies on, for h3
                // as for h2: the presented certificate covers the
                // requested name. Read off the pooled certificate, where
                // a host that presented none has a subject-only
                // stand-in, which does not count.
                let covered = self.t.cert_issuer.is_some() && serving.cert.covers(&self.t.host);
                let at = ms_to_us(hs_start + self.t.phase.ssl);
                t.instant_at(&SAN_VALIDATED, at, &[Arg::Str(host), Arg::Bool(covered)]);
            }
        }
        for (attempt, &(at, dur, fate)) in self.backoffs.iter().flatten().enumerate() {
            let args = [Arg::U64(attempt as u64 + 1), Arg::Str(fate)];
            t.complete(&BACKOFF, at, dur, &args);
        }

        // The request span and its phase children. Offsets accumulate
        // in the sealed integer microseconds — the same arithmetic the
        // HAR export and metrics registry use — so the span end equals
        // the request's recorded end exactly.
        let conn = Arg::U64(conn as u64);
        let args = [
            Arg::Str(host),
            Arg::Str(self.res.protocol.label()),
            Arg::Str(self.reuse_label),
            conn,
            Arg::Str(self.rule_label.unwrap_or_default()),
        ];
        let args = &args[..if self.rule_label.is_some() { 5 } else { 4 }];
        t.complete_indexed(&REQ, index, start_ts, self.t.total_us(), args);
        // h3 requests add the QPACK view: how many bytes the header
        // block and its table-mutating instructions took on this
        // connection's streams.
        if let Some(q) = self.h3_qpack {
            let bytes = [q.section_bytes, q.instruction_bytes].map(Arg::U64);
            t.instant_at(&H3_REQUEST, start_ts, &[bytes[0], bytes[1], conn]);
        }
        // Legacy requests add the HTTP/1.1 view: the response framing
        // and which keep-alive cycle of its connection this request
        // rode.
        if let Some((framing, cycle)) = self.h1_framing {
            let args = [Arg::Str(framing), Arg::U64(cycle), conn];
            t.instant_at(&H1_REQUEST, start_ts, &args);
        }
        let mut off = start_ts;
        for (span, dur) in PHASE_SPANS.iter().zip(self.t.phases_us()) {
            if dur > 0 {
                t.complete(span, off, dur, &[]);
            }
            off += dur;
        }
    }
}

// The trace events `Request::trace` emits.
static SKIPPED: Site = Site::new("req.skipped", "request", &["host", "reason"]);
static REQ_FAILED: Site = Site::new("req", "request", &["host", "outcome"]);
static FAULT_421: Site = Site::new("fault.421", "fault", &["host", "conn"]);
static FAULT_EVICT: Site = Site::new("fault.evict", "fault", &["host", "conn"]);
static FLOW: Site = Site::new("coalesce", "flow", &[]);
static COALESCE: Site = Site::new("coalesce", "request", &["rule", "conn", "conn_host"]);
static TEARDOWN: Site = Site::new(
    "fault.middlebox_teardown",
    "fault",
    &["host", "frame_type", "origin_suppressed"],
);
static TCP_CONNECT: Site = Site::new("tcp.connect", "net", &["ip"]);
static TLS_HANDSHAKE: Site = Site::new(
    "tls.handshake",
    "tls",
    &["version", "sni", "issuer", "alpn"],
);
static QUIC_HANDSHAKE: Site = Site::new(
    "quic.handshake",
    "tls",
    &["mode", "sni", "issuer", "amplification_rtts", "cross_host"],
);
static SAN_VALIDATED: Site = Site::new("tls.san_validated", "tls", &["host", "covered"]);
static BACKOFF: Site = Site::new("fault.backoff", "fault", &["attempt", "fate"]);
static REQ: Site = Site::new(
    "req",
    "request",
    &["host", "protocol", "reuse", "conn", "rule"],
);
static H3_REQUEST: Site = Site::new(
    "h3.request",
    "h3",
    &["section_bytes", "instruction_bytes", "conn"],
);
static H1_REQUEST: Site = Site::new("h1.request", "h1", &["framing", "cycle", "conn"]);

/// The spans of the seven request phases, in HAR order.
static PHASE_SPANS: [Site; 7] = [
    Site::new("phase.blocked", "phase", &[]),
    Site::new("phase.dns", "phase", &[]),
    Site::new("phase.connect", "phase", &[]),
    Site::new("phase.ssl", "phase", &[]),
    Site::new("phase.send", "phase", &[]),
    Site::new("phase.wait", "phase", &[]),
    Site::new("phase.receive", "phase", &[]),
];

/// Upper bounds (inclusive) for the per-page connection histogram.
const CONNS_PER_PAGE_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32];

/// One walk over a completed load, feeding whichever of the registry
/// and the visit's observation is attached. Per-request values are read
/// off each record's seal; `sim.transfer` is the one value quantised
/// here: it rounds the *sum* of three phases, which no seal holds.
/// Exemplar span references name `req <index> <host>` in the visit's
/// trace ([`span_ref`]: rank, resource index).
pub(super) fn record_load(
    page: &Page,
    load: &PageLoad,
    (h1, h3): (&H1Stats, &H3Stats),
    faults: Option<FaultCounts>,
    metrics: Option<&mut Registry>,
    mut visit: Option<&mut VisitObs>,
) {
    if metrics.is_none() && visit.is_none() {
        return;
    }
    let rank = load.rank as u64;
    let (mut opened, mut tls, mut coalesced, mut pool_reuse, mut dns_queries) = (0, 0, 0, 0, 0);
    let [mut dns_t, mut connect_t, mut tls_t, mut transfer_t, mut blocked_t] =
        [SimDuration::ZERO; 5];
    // PLT is the latest end of any request; its exemplar, the first
    // served request to end that late.
    let (mut plt_us, mut served_end, mut plt_idx) = (0, 0, 0);
    for r in &load.requests {
        let conns = r.new_connection as u64 + u64::from(r.extra_connections);
        opened += conns;
        tls += if r.secure { conns } else { 0 };
        coalesced += r.coalesced as u64;
        dns_queries += r.did_dns as u64 + r.extra_dns as u64;
        let [blocked, dns, connect, ssl, ..] = r.phases_us();
        dns_t += SimDuration::from_micros(dns);
        connect_t += SimDuration::from_micros(connect);
        tls_t += SimDuration::from_micros(ssl);
        transfer_t += SimDuration::from_millis_f64(r.phase.send + r.phase.wait + r.phase.receive);
        blocked_t += SimDuration::from_micros(blocked);
        plt_us = plt_us.max(r.end_us());
        // Failed N/A requests use no network.
        if r.protocol == Protocol::NA {
            continue;
        }
        // A served request that neither opened nor coalesced rode an
        // existing same-host connection.
        pool_reuse += (!r.new_connection && !r.coalesced) as u64;
        let idx = r.resource_index;
        if let Some(v) = visit.as_deref_mut() {
            let span = span_ref(rank, idx as u64);
            if r.new_connection && connect + ssl > 0 {
                let handshake = (r.start_us() + blocked + dns, connect + ssl, span);
                v.handshakes.push(handshake);
            }
            v.bytes.push((r.end_us(), page.resources[idx].size, span));
        }
        if r.end_us() > served_end {
            served_end = r.end_us();
            plt_idx = idx;
        }
    }
    let requests = load.requests.len() as u64;
    if let Some(m) = metrics {
        m.record_phase_n("sim.dns", requests, dns_t);
        m.record_phase_n("sim.connect", requests, connect_t);
        m.record_phase_n("sim.tls", requests, tls_t);
        m.record_phase_n("sim.transfer", requests, transfer_t);
        m.record_phase_n("sim.blocked", requests, blocked_t);
        m.add("browser.requests", requests);
        m.add("browser.connections_opened", opened);
        m.add("browser.coalesced_requests", coalesced);
        m.add("browser.pool_reuse", pool_reuse);
        m.add("browser.dns_queries", dns_queries);
        m.observe(
            "browser.connections_per_page",
            CONNS_PER_PAGE_BOUNDS,
            opened,
        );
        m.record_phase("sim.page", SimDuration::from_micros(plt_us));
        let delta = faults.unwrap_or_default();
        add_nonzero(m, &counter_table(h1, h3, &delta));
        if delta.backoff_events > 0 {
            let total = SimDuration::from_micros(delta.backoff_us);
            m.record_phase_n("fault.backoff", delta.backoff_events, total);
        }
    }
    if let Some(v) = visit {
        v.rank = load.rank;
        v.requests += requests;
        v.coalesced_requests += coalesced;
        v.connections_opened += opened;
        v.plt_us = plt_us;
        v.plt_span = span_ref(rank, plt_idx as u64);
        v.measured_tls = tls;
        v.h1_connections = h1.connections_opened;
        v.h1_requests = h1.requests;
        v.h1_redundant = h1.redundant;
        if let Some(f) = faults {
            let events = f.misdirected_421 + f.middlebox_teardowns + f.drops + f.corruptions;
            v.fault_misdirected_421 = f.misdirected_421;
            v.fault_events = events;
            // Recovery is bounded by construction — every injected
            // fault is replayed, reconnected, or force-delivered within
            // MAX_TRANSFER_RETRIES — so today every event counts as
            // recovered and the SLO gate pins the rate at 1.0. A future
            // failure mode that gives up would diverge here.
            v.fault_recoveries = events;
        }
    }
}

/// Where the `h3.*` and the `fault.*` families start in
/// [`counter_table`].
const H3_COUNTERS: usize = 10;
const FAULT_COUNTERS: usize = 26;

/// The `h1.*`, `h1.redundant.*`, `h3.*` and `fault.*` counters of one
/// visit, each name beside its value: the one table the registry is
/// fed from and the report schemas read their names off. (The fault
/// backoff pair feeds the `fault.backoff` phase instead.)
fn counter_table(h1: &H1Stats, h3: &H3Stats, f: &FaultCounts) -> [(&'static str, u64); 33] {
    let c = &h3.counts;
    let redundant = |slot: usize| (REDUNDANCY_KINDS[slot].1, h1.redundant[slot]);
    [
        ("h1.requests", h1.requests),
        ("h1.connections_opened", h1.connections_opened),
        ("h1.keepalive_reuse", h1.keepalive_reuse),
        ("h1.close_delimited", h1.close_delimited),
        ("h1.pages", h1.pages),
        redundant(0),
        redundant(1),
        redundant(2),
        redundant(3),
        redundant(4),
        ("h3.pages", h3.pages),
        ("h3.requests", h3.requests),
        ("h3.connections", c.connections),
        ("h3.handshakes_1rtt", c.handshakes_1rtt),
        ("h3.handshakes_0rtt", c.handshakes_0rtt),
        ("h3.zero_rtt_rejected", c.zero_rtt_rejected),
        ("h3.tickets_issued", c.tickets_issued),
        ("h3.resumed_cross_host", c.resumed_cross_host),
        ("h3.altsvc_learned", c.altsvc_learned),
        ("h3.altsvc_suppressed", c.altsvc_suppressed),
        ("h3.amplification_rtts", c.amplification_rtts),
        ("h3.addr_validated_skips", c.addr_validated_skips),
        ("h3.qpack_instructions", h3.qpack_instructions),
        ("h3.qpack_evictions", h3.qpack_evictions),
        ("h3.cids_issued", h3.cids_issued),
        ("h3.cids_retired", h3.cids_retired),
        ("fault.misdirected_421", f.misdirected_421),
        ("fault.pool_evictions", f.pool_evictions),
        ("fault.middlebox_teardowns", f.middlebox_teardowns),
        ("fault.origin_suppressed", f.origin_suppressed),
        ("fault.drops", f.drops),
        ("fault.corruptions", f.corruptions),
        ("fault.retries", f.retries),
    ]
}

/// The names of [`counter_table`], in its order.
fn counter_names() -> [&'static str; 33] {
    let (h1, h3) = (H1Stats::default(), H3Stats::default());
    counter_table(&h1, &h3, &FaultCounts::default()).map(|(name, _)| name)
}

/// Every `h3.*` counter a visit can feed: an `H3Report`'s schema.
pub fn h3_counter_names() -> [&'static str; 16] {
    let names = &counter_names()[H3_COUNTERS..FAULT_COUNTERS];
    names
        .try_into()
        .expect("the h3.* slice of the counter table")
}

/// Every `fault.*` counter a visit can feed: a `ResilienceReport`'s
/// schema.
pub fn fault_counter_names() -> [&'static str; 7] {
    let names = &counter_names()[FAULT_COUNTERS..];
    names
        .try_into()
        .expect("the fault.* slice of the counter table")
}

/// Fold one visit's counters into the registry by name. Zero values
/// are skipped — `Registry::add` materializes keys, and a crawl that
/// never exercised a subsystem (legacy share 0, h3 share 0, a profile
/// that injected nothing) must serialize exactly as it did before that
/// subsystem existed.
fn add_nonzero(metrics: &mut Registry, counters: &[(&'static str, u64)]) {
    for &(name, value) in counters {
        if value > 0 {
            metrics.add(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report schemas' slices of the counter table start and end
    /// where their families do.
    #[test]
    fn counter_name_slices_are_whole_families() {
        let all = counter_names();
        let family = |prefix: &str| all.iter().filter(|n| n.starts_with(prefix)).count();
        assert!(h3_counter_names().iter().all(|n| n.starts_with("h3.")));
        assert!(fault_counter_names()
            .iter()
            .all(|n| n.starts_with("fault.")));
        assert_eq!(family("h3."), h3_counter_names().len());
        assert_eq!(family("fault."), fault_counter_names().len());
    }
}
