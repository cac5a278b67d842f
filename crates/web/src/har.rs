//! HAR-style request timelines.
//!
//! Times are fractional milliseconds from navigation start, matching
//! the HTTP Archive format the paper's WebPageTest collection
//! produced. A [`RequestTiming`] carries the phase breakdown the §4.1
//! reconstruction edits; a [`PageLoad`] is one page's full record.

use crate::page::Protocol;
use origin_dns::DnsName;
use origin_netsim::json;
use std::net::IpAddr;
use std::sync::Arc;

/// The HAR phases of one request, as durations in milliseconds.
///
/// `dns`, `connect` and `ssl` are zero for requests that reused a
/// connection — exactly the phases the paper's model removes when a
/// request is coalescable.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Phase {
    /// Queueing/blocked time before the request could be dispatched.
    pub blocked: f64,
    /// DNS resolution time (0 when cached or coalesced).
    pub dns: f64,
    /// TCP connect time (0 when reused).
    pub connect: f64,
    /// TLS handshake time (0 when reused).
    pub ssl: f64,
    /// Time writing the request.
    pub send: f64,
    /// Server think time to first byte.
    pub wait: f64,
    /// Body download time.
    pub receive: f64,
}

/// Quantise a millisecond value to integer microseconds — through
/// [`origin_netsim::millis_to_micros`], the rounding
/// `SimDuration::from_millis_f64` applies, so HAR arithmetic and the
/// loader's metrics path agree exactly. Negatives and NaN map to 0.
#[inline]
pub fn ms_to_us(ms: f64) -> u64 {
    origin_netsim::millis_to_micros(ms.max(0.0))
}

impl Phase {
    /// The phase durations quantised to integer microseconds, in HAR
    /// order (blocked, dns, connect, ssl, send, wait, receive). A
    /// finished record carries these already:
    /// [`RequestTiming::phases_us`].
    pub fn quantised_us(&self) -> [u64; 7] {
        [
            ms_to_us(self.blocked),
            ms_to_us(self.dns),
            ms_to_us(self.connect),
            ms_to_us(self.ssl),
            ms_to_us(self.send),
            ms_to_us(self.wait),
            ms_to_us(self.receive),
        ]
    }

    /// Total duration in integer microseconds of a phase set still
    /// being written (the loader's fault loop, while `receive` grows);
    /// a finished record's is [`RequestTiming::total_us`].
    pub fn total_us(&self) -> u64 {
        self.quantised_us().iter().sum()
    }

    /// Total request duration (ms). Accumulated as integer
    /// microseconds per phase, not naive f64 summation, so the value
    /// is associative and identical to what the metrics registry
    /// records for the same phases.
    pub fn total(&self) -> f64 {
        self.total_us() as f64 / 1_000.0
    }

    /// The setup cost a coalesced request avoids (dns+connect+ssl).
    pub fn setup(&self) -> f64 {
        self.dns + self.connect + self.ssl
    }
}

/// `start` and the seven phases of a finished [`RequestTiming`] in
/// integer microseconds, with the end they add up to: what
/// [`RequestTiming::seal`] writes and every consumer of a load reads.
/// The default is the seal of an all-zero timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SealedUs {
    start: u64,
    phases: [u64; 7],
    end: u64,
}

/// One request's record in a page load.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTiming {
    /// Index into the page's resource list.
    pub resource_index: usize,
    /// Hostname requested.
    pub host: DnsName,
    /// Destination IP the connection used.
    pub ip: IpAddr,
    /// Origin AS of the destination IP.
    pub asn: u32,
    /// Start time (ms from navigation start).
    pub start: f64,
    /// Phase durations.
    pub phase: Phase,
    /// Whether this request performed a DNS query on the network.
    pub did_dns: bool,
    /// Whether this request opened a new TCP+TLS connection (and so
    /// validated a certificate).
    pub new_connection: bool,
    /// Whether the request was coalesced onto an existing connection
    /// for a *different* hostname (connection reuse for the same
    /// hostname is ordinary keep-alive, not coalescing).
    pub coalesced: bool,
    /// Application protocol.
    pub protocol: Protocol,
    /// Issuer of the certificate validated on this connection (only
    /// set when `new_connection`); the certificate's own handle.
    pub cert_issuer: Option<Arc<str>>,
    /// Whether the request went over HTTPS.
    pub secure: bool,
    /// Extra connections opened by client races (happy-eyeballs
    /// duplicates, speculative pre-connects) attributed to this
    /// request — §4.2's "race conditions … make multiple connections
    /// for the same sets of resources".
    pub extra_connections: u8,
    /// Extra DNS queries from the same race behaviour.
    pub extra_dns: u8,
    /// The integer-microsecond form of `start` and `phase`. Whoever
    /// writes those two fields calls [`RequestTiming::seal`] when done
    /// (a literal starts from `SealedUs::default()`); every `*_us`
    /// accessor reads this and, in debug builds, asserts it is current.
    pub us: SealedUs,
}

impl RequestTiming {
    /// What [`RequestTiming::seal`] stores for the current `start` and
    /// `phase`.
    fn quantise(&self) -> SealedUs {
        let start = ms_to_us(self.start);
        let phases = self.phase.quantised_us();
        SealedUs {
            start,
            phases,
            end: start + phases.iter().sum::<u64>(),
        }
    }

    /// Quantise `start` and `phase` — the one time this record's
    /// timing is rounded. The loader seals each request when its last
    /// phase is written; an editor of a sealed timing (the §4.1
    /// reconstruction) seals again after its edits.
    pub fn seal(&mut self) {
        self.us = self.quantise();
    }

    /// [`RequestTiming::seal`] by value, for records built as literals.
    pub fn sealed(mut self) -> Self {
        self.seal();
        self
    }

    fn sealed_us(&self) -> &SealedUs {
        debug_assert_eq!(
            self.us,
            self.quantise(),
            "start or phase edited after seal()"
        );
        &self.us
    }

    /// Start time in integer microseconds.
    pub fn start_us(&self) -> u64 {
        self.sealed_us().start
    }

    /// The phase durations in integer microseconds, in HAR order
    /// (blocked, dns, connect, ssl, send, wait, receive).
    pub fn phases_us(&self) -> [u64; 7] {
        self.sealed_us().phases
    }

    /// Total request duration in integer microseconds: the sum of
    /// [`RequestTiming::phases_us`].
    pub fn total_us(&self) -> u64 {
        let us = self.sealed_us();
        us.end - us.start
    }

    /// Total request duration (ms), derived from the
    /// integer-microsecond form.
    pub fn total(&self) -> f64 {
        self.total_us() as f64 / 1_000.0
    }

    /// End time in integer microseconds (quantised start + quantised
    /// phase total).
    pub fn end_us(&self) -> u64 {
        self.sealed_us().end
    }

    /// End time (ms), derived from the integer-microsecond form.
    pub fn end(&self) -> f64 {
        self.end_us() as f64 / 1_000.0
    }
}

/// One full page-load record: the HAR-equivalent for our model.
#[derive(Debug, Clone, PartialEq)]
pub struct PageLoad {
    /// Tranco rank of the page.
    pub rank: u32,
    /// Root hostname.
    pub root_host: DnsName,
    /// Per-request records in dispatch order.
    pub requests: Vec<RequestTiming>,
}

impl PageLoad {
    /// Page load time: the latest request end (ms).
    pub fn plt(&self) -> f64 {
        self.plt_us() as f64 / 1_000.0
    }

    /// Page load time in integer microseconds.
    pub fn plt_us(&self) -> u64 {
        self.requests.iter().map(|r| r.end_us()).max().unwrap_or(0)
    }

    /// Number of network DNS queries (including race duplicates).
    pub fn dns_queries(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.did_dns as u64 + r.extra_dns as u64)
            .sum()
    }

    /// Number of new TLS connections (= certificate validations),
    /// including race duplicates; plain-HTTP connections don't count.
    pub fn tls_connections(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| {
                if r.secure {
                    r.new_connection as u64 + r.extra_connections as u64
                } else {
                    0
                }
            })
            .sum()
    }

    /// Number of requests (including the root document).
    pub fn request_count(&self) -> u64 {
        self.requests.len() as u64
    }

    /// Distinct destination ASes touched (Figure 1's x-axis): the
    /// requests whose AS no earlier request has. Allocates nothing and
    /// looks back per request, which suits a diagnostic; the crawl's
    /// aggregator reads the count off its own per-page tally.
    pub fn distinct_ases(&self) -> u64 {
        let first =
            |(i, r): &(usize, &RequestTiming)| !self.requests[..*i].iter().any(|e| e.asn == r.asn);
        self.requests.iter().enumerate().filter(first).count() as u64
    }

    /// Requests that were coalesced onto a connection opened for a
    /// different hostname.
    pub fn coalesced_requests(&self) -> u64 {
        self.requests.iter().filter(|r| r.coalesced).count() as u64
    }

    /// New TLS connections made to a specific host (the §5 active
    /// measurement: "# new connections to subresource; 0 =
    /// coalescing").
    pub fn new_connections_to(&self, host: &DnsName) -> u64 {
        self.requests
            .iter()
            .filter(|r| &r.host == host)
            .map(|r| r.new_connection as u64 + r.extra_connections as u64)
            .sum()
    }

    /// Serialize as a HAR 1.2 document (`log`/`pages`/`entries`), the
    /// format the paper's WebPageTest collection produced.
    ///
    /// Simulated time has no calendar, so `startedDateTime` values
    /// count from a fixed epoch chosen to match the paper's crawl
    /// window (Feb 2021). Phases that did not occur use HAR's `-1`
    /// convention; the applicable phases are the quantised
    /// integer-microsecond values, so each entry's `time` — and the
    /// page's `onLoad` — equals exactly what the metrics registry
    /// records.
    pub fn to_har_json(&self) -> String {
        let page_id = format!("page_{}", self.rank);
        let mut out = String::new();
        out.push_str("{\n  \"log\": {\n");
        out.push_str("    \"version\": \"1.2\",\n");
        out.push_str(
            "    \"creator\": { \"name\": \"respect-origin\", \"version\": \"0.1.0\" },\n",
        );
        out.push_str("    \"pages\": [\n      {\n        \"startedDateTime\": ");
        json::push_str(&mut out, &har_datetime(0));
        out.push_str(",\n        \"id\": ");
        json::push_str(&mut out, &page_id);
        out.push_str(",\n        \"title\": \"https://");
        json::escape_into(&mut out, self.root_host.as_str());
        out.push_str("/\",\n        \"pageTimings\": { \"onContentLoad\": -1, \"onLoad\": ");
        json::push_f64(&mut out, self.plt());
        out.push_str(" }\n      }\n    ],\n");
        out.push_str("    \"entries\": [");
        json::push_joined(&mut out, &self.requests, ",", |out, r| {
            let na = r.protocol == Protocol::NA;
            let version = har_http_version(r.protocol);
            out.push_str("\n      {\n        \"pageref\": ");
            json::push_str(out, &page_id);
            out.push_str(",\n        \"startedDateTime\": ");
            json::push_str(out, &har_datetime(r.start_us()));
            out.push_str(",\n        \"time\": ");
            json::push_f64(out, r.total());
            out.push_str(",\n        \"request\": { \"method\": \"GET\", \"url\": \"");
            out.push_str(if r.secure { "https://" } else { "http://" });
            json::escape_into(out, r.host.as_str());
            out.push_str("/r");
            json::push_u64(out, r.resource_index as u64);
            out.push_str("\", \"httpVersion\": ");
            json::push_str(out, version);
            out.push_str(", \"headers\": [], \"queryString\": [], \"cookies\": [], \"headersSize\": -1, \"bodySize\": -1 },\n");
            out.push_str("        \"response\": { \"status\": ");
            json::push_u64(out, if na { 0 } else { 200 });
            out.push_str(", \"statusText\": ");
            json::push_str(out, if na { "" } else { "OK" });
            out.push_str(", \"httpVersion\": ");
            json::push_str(out, version);
            out.push_str(", \"headers\": [], \"cookies\": [], \"content\": { \"size\": -1, \"mimeType\": \"\" }, \"redirectURL\": \"\", \"headersSize\": -1, \"bodySize\": -1 },\n");
            out.push_str("        \"cache\": {},\n        \"timings\": { ");
            // HAR's convention for a phase that did not occur is -1.
            let [blocked, dns, connect, ssl, send, wait, receive] = r.phases_us();
            let timings = [
                ("blocked", !na, blocked),
                ("dns", r.did_dns || dns > 0, dns),
                ("connect", r.new_connection, connect),
                ("ssl", r.new_connection && r.secure, ssl),
                ("send", !na, send),
                ("wait", !na, wait),
                ("receive", !na, receive),
            ];
            json::push_joined(out, timings, ", ", |out, (phase, applies, us)| {
                json::push_str(out, phase);
                out.push_str(": ");
                match applies {
                    true => json::push_f64(out, us as f64 / 1_000.0),
                    false => out.push_str("-1"),
                }
            });
            out.push_str(" },\n        \"serverIPAddress\": ");
            json::push_str(out, &r.ip.to_string());
            out.push_str(",\n        \"_asn\": ");
            json::push_u64(out, u64::from(r.asn));
            out.push_str(",\n        \"_coalesced\": ");
            json::push_bool(out, r.coalesced);
            out.push_str("\n      }");
        });
        out.push_str(if self.requests.is_empty() {
            "]\n"
        } else {
            "\n    ]\n"
        });
        out.push_str("  }\n}\n");
        out
    }
}

/// ISO-8601 timestamp `us` microseconds after the fixed HAR epoch
/// (2021-02-01T00:00:00Z, the paper's crawl month). Millisecond
/// precision, as WebPageTest HARs carry.
fn har_datetime(us: u64) -> String {
    let total_ms = us / 1_000;
    let (ms, s, m) = (
        total_ms % 1_000,
        (total_ms / 1_000) % 60,
        (total_ms / 60_000) % 60,
    );
    let h = total_ms / 3_600_000;
    format!("2021-02-01T{h:02}:{m:02}:{s:02}.{ms:03}Z")
}

/// HAR `httpVersion` string for a protocol.
fn har_http_version(p: Protocol) -> &'static str {
    match p {
        Protocol::NA => "",
        p => p.label(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;
    use std::net::Ipv4Addr;

    fn t(
        idx: usize,
        host: &str,
        start: f64,
        dns: f64,
        connect: f64,
        receive: f64,
        asn: u32,
    ) -> RequestTiming {
        RequestTiming {
            resource_index: idx,
            host: name(host),
            ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            asn,
            start,
            phase: Phase {
                blocked: 1.0,
                dns,
                connect,
                ssl: connect / 2.0,
                send: 0.5,
                wait: 20.0,
                receive,
            },
            did_dns: dns > 0.0,
            new_connection: connect > 0.0,
            coalesced: false,
            protocol: Protocol::H2,
            cert_issuer: None,
            secure: true,
            extra_connections: 0,
            extra_dns: 0,
            us: SealedUs::default(),
        }
        .sealed()
    }

    fn load() -> PageLoad {
        PageLoad {
            rank: 1,
            root_host: name("www.example.com"),
            requests: vec![
                t(0, "www.example.com", 0.0, 15.0, 40.0, 30.0, 100),
                t(1, "static.example.com", 90.0, 12.0, 40.0, 10.0, 100),
                t(2, "fonts.cdnhost.com", 95.0, 18.0, 40.0, 5.0, 200),
            ],
        }
    }

    #[test]
    fn phase_totals() {
        let p = Phase {
            blocked: 1.0,
            dns: 2.0,
            connect: 3.0,
            ssl: 4.0,
            send: 5.0,
            wait: 6.0,
            receive: 7.0,
        };
        assert_eq!(p.total(), 28.0);
        assert_eq!(p.setup(), 9.0);
    }

    #[test]
    fn plt_is_latest_end() {
        let l = load();
        let ends: Vec<f64> = l.requests.iter().map(|r| r.end()).collect();
        assert_eq!(l.plt(), ends.iter().cloned().fold(0.0, f64::max));
        assert!(l.plt() > 90.0);
    }

    #[test]
    fn counters() {
        let l = load();
        assert_eq!(l.dns_queries(), 3);
        assert_eq!(l.tls_connections(), 3);
        assert_eq!(l.request_count(), 3);
        assert_eq!(l.distinct_ases(), 2);
        assert_eq!(l.coalesced_requests(), 0);
        assert_eq!(l.new_connections_to(&name("fonts.cdnhost.com")), 1);
        assert_eq!(l.new_connections_to(&name("missing.example")), 0);
    }

    #[test]
    fn distinct_ases_counts_first_occurrences() {
        let mut l = load();
        l.requests = (0..80)
            .map(|i| t(i, "a.com", 0.0, 0.0, 0.0, 1.0, 1_000 + (i % 40) as u32))
            .collect();
        assert_eq!(l.distinct_ases(), 40);
    }

    #[test]
    fn empty_page_plt_zero() {
        let l = PageLoad {
            rank: 1,
            root_host: name("a.com"),
            requests: vec![],
        };
        assert_eq!(l.plt(), 0.0);
        assert_eq!(l.distinct_ases(), 0);
    }

    #[test]
    fn phase_totals_quantise_to_integer_microseconds() {
        // 0.1 + 0.2 is the canonical float-accumulation trap: the
        // naive sum is 0.30000000000000004 ms. Quantised arithmetic
        // yields exactly 300 µs, matching the metrics path.
        let p = Phase {
            blocked: 0.1,
            send: 0.2,
            ..Default::default()
        };
        assert_eq!(p.total_us(), 300);
        assert_eq!(p.total(), 0.3);
        assert_eq!(p.quantised_us().iter().sum::<u64>(), p.total_us());
        // Sub-microsecond noise rounds away instead of accumulating.
        let tiny = Phase {
            wait: 0.0004,
            ..Default::default()
        };
        assert_eq!(tiny.total_us(), 0);
        assert_eq!(tiny.total(), 0.0);
    }

    #[test]
    fn request_end_uses_quantised_arithmetic() {
        let r = t(0, "a.com", 10.1, 0.2, 0.0, 0.0, 1);
        assert_eq!(r.start_us(), 10_100);
        assert_eq!(r.phases_us(), r.phase.quantised_us());
        assert_eq!(r.total_us(), r.phase.total_us());
        assert_eq!(r.end_us(), r.start_us() + r.phase.total_us());
        assert_eq!(r.end(), r.end_us() as f64 / 1_000.0);
    }

    #[test]
    fn an_edit_is_invisible_until_resealed() {
        let mut r = t(0, "a.com", 10.0, 0.0, 0.0, 0.0, 1);
        let before = r.us;
        r.start = 5.0;
        r.phase.wait = 1.5;
        assert_eq!(r.us, before, "editing a field does not touch the seal");
        r.seal();
        assert_eq!(r.start_us(), 5_000);
        assert_eq!(r.phases_us()[5], 1_500);
        assert_eq!(r.end_us(), before.end - 5_000 - 18_500);
    }

    #[test]
    fn har_export_has_schema_keys() {
        let har = load().to_har_json();
        for key in [
            "\"log\"",
            "\"version\": \"1.2\"",
            "\"creator\"",
            "\"pages\"",
            "\"entries\"",
            "\"pageTimings\"",
            "\"startedDateTime\"",
            "\"pageref\"",
            "\"request\"",
            "\"response\"",
            "\"timings\"",
            "\"blocked\"",
            "\"dns\"",
            "\"connect\"",
            "\"ssl\"",
            "\"send\"",
            "\"wait\"",
            "\"receive\"",
            "\"serverIPAddress\"",
            "\"_coalesced\"",
        ] {
            assert!(har.contains(key), "HAR export missing {key}");
        }
    }

    #[test]
    fn har_onload_equals_last_request_end() {
        let l = load();
        let har = l.to_har_json();
        let last_end = l.requests.iter().map(|r| r.end()).fold(0.0, f64::max);
        assert_eq!(l.plt(), last_end);
        assert!(
            har.contains(&format!("\"onLoad\": {:?}", l.plt())),
            "onLoad must carry the PLT"
        );
        // Every entry's `time` is its quantised phase total.
        for r in &l.requests {
            assert!(har.contains(&format!("\"time\": {:?}", r.phase.total())));
            assert_eq!(r.phase.total_us(), r.total_us());
        }
    }

    #[test]
    fn har_uses_minus_one_for_inapplicable_phases() {
        // A reused-connection request did no DNS, connect, or TLS.
        let mut reused = t(1, "b.com", 5.0, 0.0, 0.0, 3.0, 1);
        reused.did_dns = false;
        reused.new_connection = false;
        let l = PageLoad {
            rank: 9,
            root_host: name("b.com"),
            requests: vec![reused],
        };
        let har = l.to_har_json();
        assert!(har.contains("\"dns\": -1"), "dns must be -1 when skipped");
        assert!(har.contains("\"connect\": -1"));
        assert!(har.contains("\"ssl\": -1"));
        assert!(!har.contains("\"wait\": -1"), "wait always applies");
    }

    #[test]
    fn har_datetime_counts_from_fixed_epoch() {
        assert_eq!(har_datetime(0), "2021-02-01T00:00:00.000Z");
        assert_eq!(har_datetime(1_500), "2021-02-01T00:00:00.001Z");
        assert_eq!(har_datetime(61_000_000), "2021-02-01T00:01:01.000Z");
        assert_eq!(har_datetime(3_600_000_000), "2021-02-01T01:00:00.000Z");
    }
}
