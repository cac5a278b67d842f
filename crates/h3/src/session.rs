//! Per-visit HTTP/3 session state and the per-connection driver.
//!
//! [`H3Session`] is what one browser visit remembers across
//! connections: which certificate scopes have advertised h3 (the
//! Alt-Svc bootstrap: a scope's first connection pays the h2 path,
//! its advertisement upgrades later ones), the TLS session tickets
//! banked by completed full handshakes (certificate-scoped, so
//! resumption crosses hostnames — Sy et al.), and which server
//! addresses have been validated (so later handshakes to the same
//! address skip the anti-amplification stall — shared address
//! validation). [`connect`] folds all three into one deterministic
//! handshake decision.
//!
//! [`H3Conn`] is one QUIC connection's request machinery: its QPACK
//! encoder — whose byte and instruction counts are what a crawl
//! exports — and its request count, from which the connection IDs a
//! migrating client rotates through are counted. The round trip
//! through a [`crate::qpack::Decoder`] is checked by the tests that
//! replay a crawl's connections. It owns its wire buffers
//! and its table recycles its strings, so a request borrows its header
//! block and a reused machine ([`H3Conn::reset`]) allocates nothing.
//!
//! [`connect`]: H3Session::connect

use std::net::IpAddr;

use origin_netsim::{LinkProfile, SimDuration, SimRng};

use crate::handshake::{HandshakeMode, QuicCostModel};
use crate::qpack::{EncodedRequest, Encoder, DEFAULT_TABLE_SIZE};

/// Probability a server rejects offered 0-RTT early data (key
/// rotation, anti-replay windows); the rejected handshake completes as
/// a full exchange.
pub const ZERO_RTT_REJECT_RATE: f64 = 0.05;

/// Requests between connection-ID rotations on a live connection:
/// each rotation issues a fresh ID and retires the oldest (RFC 9000
/// §5.1), so one ID stays active.
pub const CID_ROTATION_PERIOD: u64 = 16;

/// Counters one visit accumulates; drained into `h3.*` metrics by the
/// loader (nonzero-gated, like every other feature family).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct H3Counts {
    /// QUIC connections established.
    pub connections: u64,
    /// Full 1-RTT handshakes (including 0-RTT rejections that fell
    /// back).
    pub handshakes_1rtt: u64,
    /// Accepted 0-RTT handshakes.
    pub handshakes_0rtt: u64,
    /// 0-RTT offers the server rejected.
    pub zero_rtt_rejected: u64,
    /// Session tickets banked (h2 TLS 1.3 and QUIC 1-RTT handshakes).
    pub tickets_issued: u64,
    /// Redemptions whose issuing host differed from the redeeming
    /// host — the cross-hostname resumption treatment.
    pub resumed_cross_host: u64,
    /// Certificate scopes that advertised h3.
    pub altsvc_learned: u64,
    /// Advertisements lost to middlebox connection teardown.
    pub altsvc_suppressed: u64,
    /// Extra round trips paid to the anti-amplification limit.
    pub amplification_rtts: u64,
    /// Handshakes that skipped the amplification stall because the
    /// address was already validated.
    pub addr_validated_skips: u64,
}

/// What one QUIC connection establishment cost and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuicConnectOutcome {
    /// How the handshake completed.
    pub mode: HandshakeMode,
    /// Blocking handshake time (replaces both `connect` and `ssl`
    /// phases — QUIC has no separate transport round trip).
    pub cost: SimDuration,
    /// The redeemed ticket came from a different hostname.
    pub cross_host: bool,
    /// Extra round trips the amplification limit charged.
    pub amplification_rtts: u32,
}

/// One visit's h3 memory. Every field is a short list — a visit meets
/// a handful of certificates and addresses — so linear scans serve.
#[derive(Debug, Clone, Default)]
pub struct H3Session {
    /// Certificate serials whose scope advertised h3 (RFC 7838). An
    /// advertisement learned from any host behind a certificate
    /// upgrades every host the certificate covers, the way the pool
    /// coalesces.
    scopes: Vec<u64>,
    /// Banked session tickets, oldest first, as (certificate serial,
    /// issuing host): a ticket resumes any host presenting the same
    /// certificate (Sy et al.) and is single-use (RFC 8446 §C.4).
    tickets: Vec<(u64, String)>,
    /// Addresses a completed handshake validated this visit.
    validated: Vec<IpAddr>,
    /// Running counters, drained by the loader.
    pub counts: H3Counts,
}

impl H3Session {
    /// Fresh session: nothing learned, no tickets banked.
    pub fn new() -> Self {
        Self::default()
    }

    /// Back to [`new`](Self::new) for arena reuse, keeping every
    /// list's capacity.
    pub fn recycle(&mut self) {
        self.scopes.clear();
        self.tickets.clear();
        self.validated.clear();
        self.counts = H3Counts::default();
    }

    /// Has this certificate scope advertised h3?
    pub fn knows_h3(&self, cert_serial: u64) -> bool {
        self.scopes.contains(&cert_serial)
    }

    /// An h2 response from this scope carried (or, when `suppressed`,
    /// would have carried — middleboxes that tear down long-lived
    /// connections also eat the advertisement) an `alt-svc: h3` value.
    pub fn learn_alt_svc(&mut self, cert_serial: u64, suppressed: bool) {
        if suppressed {
            self.counts.altsvc_suppressed += 1;
        } else if !self.knows_h3(cert_serial) {
            self.scopes.push(cert_serial);
            self.counts.altsvc_learned += 1;
        }
    }

    /// A full TLS 1.3 handshake (h2 path) with `host` completed and
    /// issued a session ticket into the certificate scope.
    pub fn bank_ticket(&mut self, host: &str, cert_serial: u64) {
        self.tickets.push((cert_serial, host.to_string()));
        self.counts.tickets_issued += 1;
    }

    /// Establish one QUIC connection to `host` at `ip` under the
    /// certificate with `cert_serial` / `cert_bytes` on the wire.
    ///
    /// Deterministic given the rng: the newest ticket banked for the
    /// certificate is redeemed for a 0-RTT offer (one `chance` draw
    /// decides rejection); otherwise a full 1-RTT handshake runs,
    /// paying the amplification stall unless `ip` was validated by an
    /// earlier handshake this visit. Every completed full handshake
    /// issues a fresh ticket and validates `ip`.
    pub fn connect(
        &mut self,
        host: &str,
        cert_serial: u64,
        cert_bytes: u64,
        ip: IpAddr,
        link: &LinkProfile,
        rng: &mut SimRng,
    ) -> QuicConnectOutcome {
        let ticket = self
            .tickets
            .iter()
            .rposition(|&(serial, _)| serial == cert_serial)
            .map(|i| self.tickets.remove(i));
        let cross_host = ticket.as_ref().is_some_and(|(_, issuer)| issuer != host);
        // A rejected 0-RTT offer completes as a full handshake
        // (RFC 9001 §4.6.2) rather than failing the connection.
        let mode = match ticket {
            None => HandshakeMode::OneRtt,
            Some(_) if rng.chance(ZERO_RTT_REJECT_RATE) => HandshakeMode::ZeroRttRejected,
            Some(_) => HandshakeMode::ZeroRtt,
        };
        let address_validated = self.validated.contains(&ip);
        let model = QuicCostModel::for_certificate(cert_bytes, address_validated);
        let cost = model.handshake_cost(mode, link, rng);

        self.counts.connections += 1;
        match mode {
            HandshakeMode::ZeroRtt => {
                self.counts.handshakes_0rtt += 1;
                if cross_host {
                    self.counts.resumed_cross_host += 1;
                }
            }
            HandshakeMode::OneRtt | HandshakeMode::ZeroRttRejected => {
                self.counts.handshakes_1rtt += 1;
                if mode == HandshakeMode::ZeroRttRejected {
                    self.counts.zero_rtt_rejected += 1;
                }
                if address_validated {
                    self.counts.addr_validated_skips += 1;
                } else {
                    self.counts.amplification_rtts += u64::from(model.amplification_rtts);
                }
                // Full handshakes reissue a ticket and validate the
                // path (RFC 9000 §8.1: a completed handshake is
                // address validation).
                self.bank_ticket(host, cert_serial);
                if !address_validated {
                    self.validated.push(ip);
                }
            }
        }
        QuicConnectOutcome {
            mode,
            cost,
            cross_host,
            amplification_rtts: match mode {
                HandshakeMode::ZeroRtt => 0,
                _ if address_validated => 0,
                _ => model.amplification_rtts,
            },
        }
    }
}

/// Per-request QPACK byte counts, for trace spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct H3RequestStats {
    /// Encoder-stream bytes emitted for this request's inserts.
    pub instruction_bytes: u64,
    /// Field-section bytes for the request headers.
    pub section_bytes: u64,
}

/// One QUIC connection's request machinery.
#[derive(Debug, Clone)]
pub struct H3Conn {
    encoder: Encoder,
    /// The current request's two streams; kept for capacity.
    encoded: EncodedRequest,
    requests: u64,
}

impl Default for H3Conn {
    fn default() -> Self {
        Self::new()
    }
}

impl H3Conn {
    /// Fresh connection state.
    pub fn new() -> Self {
        H3Conn {
            encoder: Encoder::new(),
            encoded: EncodedRequest::default(),
            requests: 0,
        }
    }

    /// Back to [`H3Conn::new`] — an empty table, insert and eviction
    /// counts zero, no requests (so one connection ID) — keeping
    /// every allocation: a pooled machine starting its next
    /// connection emits the bytes and counts a fresh one would.
    pub fn reset(&mut self) {
        self.encoder.reset(DEFAULT_TABLE_SIZE);
        self.requests = 0;
    }

    /// Encode one request's header block through QPACK and count the
    /// request.
    pub fn drive_request(&mut self, authority: &str, path: &str) -> H3RequestStats {
        let fields = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", authority),
            (":path", path),
        ];
        self.encoder.encode_into(&fields, &mut self.encoded);
        self.requests += 1;
        H3RequestStats {
            instruction_bytes: self.encoded.instructions.len() as u64,
            section_bytes: self.encoded.section.len() as u64,
        }
    }

    /// Requests driven on this connection.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// QPACK encoder-stream instructions emitted.
    pub fn qpack_instructions(&self) -> u64 {
        self.encoder.instructions()
    }

    /// QPACK dynamic-table evictions on the encoder side.
    pub fn qpack_evictions(&self) -> u64 {
        self.encoder.evictions()
    }

    /// Connection IDs issued: the handshake's sequence 0 plus one
    /// per rotation.
    pub fn cids_issued(&self) -> u64 {
        1 + self.cids_retired()
    }

    /// Connection IDs retired: one per [`CID_ROTATION_PERIOD`]
    /// requests.
    pub fn cids_retired(&self) -> u64 {
        self.requests / CID_ROTATION_PERIOD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_netsim::SimRng;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([198, 51, 100, last])
    }

    fn link() -> LinkProfile {
        LinkProfile::broadband_edge()
    }

    #[test]
    fn first_connect_is_1rtt_then_tickets_enable_0rtt() {
        let mut s = H3Session::new();
        let mut rng = SimRng::seed_from_u64(7);
        let l = link();
        let first = s.connect("a.example.com", 9, 1_500, ip(1), &l, &mut rng);
        assert_eq!(first.mode, HandshakeMode::OneRtt);
        assert!(first.cost > SimDuration::ZERO);
        // The 1-RTT handshake banked a ticket; the next connection in
        // the scope — different hostname — resumes across hosts.
        let second = s.connect("b.example.com", 9, 1_500, ip(2), &l, &mut rng);
        assert!(matches!(
            second.mode,
            HandshakeMode::ZeroRtt | HandshakeMode::ZeroRttRejected
        ));
        if second.mode == HandshakeMode::ZeroRtt {
            assert!(second.cross_host);
            assert_eq!(second.cost, SimDuration::ZERO);
        }
        let c = s.counts;
        assert_eq!(c.handshakes_1rtt + c.handshakes_0rtt, c.connections);
        assert!(c.handshakes_0rtt + c.zero_rtt_rejected <= c.tickets_issued);
    }

    #[test]
    fn a_ticket_is_used_once() {
        let mut s = H3Session::new();
        let mut rng = SimRng::seed_from_u64(7);
        let l = link();
        s.bank_ticket("a.example.com", 7);
        let resumed = s.connect("b.example.com", 7, 1_500, ip(1), &l, &mut rng);
        assert_eq!(resumed.mode, HandshakeMode::ZeroRtt, "seed 7 accepts");
        assert!(resumed.cross_host);
        assert!(s.tickets.is_empty());
        // Nothing left to redeem: the next handshake is full.
        let cold = s.connect("b.example.com", 7, 1_500, ip(1), &l, &mut rng);
        assert_eq!(cold.mode, HandshakeMode::OneRtt);
        assert_eq!(s.counts.tickets_issued, 2);
    }

    #[test]
    fn the_newest_ticket_for_a_serial_is_redeemed_first() {
        let mut s = H3Session::new();
        let mut rng = SimRng::seed_from_u64(7);
        let l = link();
        s.bank_ticket("old.example.com", 7);
        s.bank_ticket("other.example.com", 8);
        s.bank_ticket("new.example.com", 7);
        s.connect("new.example.com", 7, 1_500, ip(1), &l, &mut rng);
        // The newest serial-7 ticket was its own host's: not cross-host.
        assert_eq!(s.counts.resumed_cross_host, 0);
        assert!(s.tickets.iter().any(|(_, h)| h == "old.example.com"));
        assert!(!s.tickets.iter().any(|(_, h)| h == "new.example.com"));
    }

    #[test]
    fn a_ticket_for_one_serial_does_not_serve_another() {
        let mut s = H3Session::new();
        let mut rng = SimRng::seed_from_u64(7);
        let l = link();
        s.bank_ticket("a.example.com", 7);
        let out = s.connect("a.example.com", 8, 1_500, ip(1), &l, &mut rng);
        assert_eq!(out.mode, HandshakeMode::OneRtt);
        assert!(!out.cross_host);
        assert!(s.tickets.contains(&(7, "a.example.com".to_string())));
    }

    #[test]
    fn a_scope_is_learned_once() {
        let mut s = H3Session::new();
        assert!(!s.knows_h3(7));
        s.learn_alt_svc(7, false);
        s.learn_alt_svc(7, false);
        assert!(s.knows_h3(7));
        assert!(!s.knows_h3(8));
        assert_eq!(s.counts.altsvc_learned, 1);
    }

    #[test]
    fn a_suppressed_advertisement_is_not_learned() {
        let mut s = H3Session::new();
        s.learn_alt_svc(7, true);
        assert!(!s.knows_h3(7));
        assert_eq!(
            (s.counts.altsvc_learned, s.counts.altsvc_suppressed),
            (0, 1)
        );
    }

    #[test]
    fn recycle_forgets_everything_and_keeps_capacity() {
        let mut s = H3Session::new();
        let mut rng = SimRng::seed_from_u64(7);
        s.learn_alt_svc(7, false);
        s.connect("a.example.com", 7, 1_500, ip(1), &link(), &mut rng);
        s.recycle();
        assert!(!s.knows_h3(7));
        assert!(s.tickets.is_empty() && s.validated.is_empty());
        assert_eq!(s.counts, H3Counts::default());
        assert!(s.scopes.capacity() > 0 && s.tickets.capacity() > 0);
    }

    #[test]
    fn shared_address_validation_skips_amplification() {
        let mut s = H3Session::new();
        let mut rng = SimRng::seed_from_u64(7);
        let l = link();
        // Bloated chain to a fresh address: the stall applies.
        let first = s.connect("a.example.com", 9, 6_000, ip(1), &l, &mut rng);
        assert_eq!(first.amplification_rtts, 1);
        // Drop the banked ticket so the next handshake is full.
        s.tickets.clear();
        // Same address: validated by the first handshake, no stall.
        let again = s.connect("other.example.com", 9, 6_000, ip(1), &l, &mut rng);
        assert_eq!(again.amplification_rtts, 0);
        assert!(s.counts.addr_validated_skips >= 1);
    }

    #[test]
    fn conn_drives_qpack_and_rotates_cids() {
        let mut conn = H3Conn::new();
        let mut decoder = crate::qpack::Decoder::new();
        for i in 0..(CID_ROTATION_PERIOD * 2) {
            let path = format!("/asset/{i}");
            let stats = conn.drive_request("a.example.com", &path);
            assert!(stats.section_bytes > 0);
            // The two streams decode to the request that went in.
            let fields = [
                (":method", "GET"),
                (":scheme", "https"),
                (":authority", "a.example.com"),
                (":path", path.as_str()),
            ];
            decoder
                .apply_instructions(&conn.encoded.instructions)
                .unwrap();
            let decoded = decoder.decode_expecting(&conn.encoded.section, &fields);
            assert_eq!(decoded, Ok(()));
        }
        assert_eq!(conn.requests(), CID_ROTATION_PERIOD * 2);
        assert!(conn.qpack_instructions() > 0);
        // Two rotations: sequence 0 plus two fresh IDs issued, two
        // retired.
        assert_eq!(conn.cids_issued(), 3);
        assert_eq!(conn.cids_retired(), 2);
    }

    #[test]
    fn cid_counts_follow_the_rotation_period() {
        let mut conn = H3Conn::new();
        let check = |conn: &mut H3Conn| {
            let mut driven = 0;
            for (requests, issued, retired) in [(0, 1, 0), (15, 1, 0), (16, 2, 1), (32, 3, 2)] {
                for i in driven..requests {
                    conn.drive_request("a.example.com", &format!("/{i}"));
                }
                driven = requests;
                let got = (conn.cids_issued(), conn.cids_retired());
                assert_eq!(got, (issued, retired), "after {requests} requests");
            }
        };
        check(&mut conn);
        conn.reset();
        check(&mut conn);
    }

    #[test]
    fn a_reset_conn_emits_what_a_fresh_one_does() {
        let drive = |conn: &mut H3Conn| {
            let stats: Vec<H3RequestStats> = (0..40)
                .map(|i| {
                    let path = format!("/js/app-{}.js", i % 9);
                    conn.drive_request("cdn.example.com", &path)
                })
                .collect();
            let bytes = (
                conn.encoded.instructions.clone(),
                conn.encoded.section.clone(),
            );
            let counts = (
                conn.qpack_instructions(),
                conn.qpack_evictions(),
                conn.cids_issued(),
                conn.cids_retired(),
                conn.requests(),
            );
            (stats, bytes, counts)
        };
        let fresh = drive(&mut H3Conn::new());
        // Worn on other names first, with a table small enough to have
        // evicted, then reset.
        let mut reused = H3Conn::new();
        reused.encoder.reset(102);
        for i in 0..50 {
            let path = format!("/img/{i}.png");
            reused.drive_request("static.other.example", &path);
        }
        assert!(reused.qpack_evictions() > 0);
        reused.reset();
        assert_eq!(drive(&mut reused), fresh);
    }
}
