//! Text waterfall rendering (Figure 2).
//!
//! Renders a [`PageLoad`] as an aligned ASCII waterfall so the
//! Figure 2 before/after comparison can be printed by the `repro`
//! harness.

use crate::har::PageLoad;

/// Glyphs used for the phase bars.
const GLYPH_BLOCKED: char = '░';
const GLYPH_DNS: char = 'D';
const GLYPH_CONNECT: char = 'C';
const GLYPH_SEND_WAIT: char = '▒';
const GLYPH_RECEIVE: char = '█';

/// Render a waterfall, `width` columns for the time axis.
pub fn render(load: &PageLoad, width: usize) -> String {
    let plt = load.plt().max(1.0);
    let scale = width as f64 / plt;
    let label_w = load
        .requests
        .iter()
        .map(|r| r.host.as_str().len())
        .max()
        .unwrap_or(0)
        .max(8);
    let mut out = String::new();
    out.push_str(&format!(
        "{:label_w$}  0ms{:>pad$}\n",
        "host",
        format!("{:.0}ms", plt),
        pad = width
    ));
    for r in &load.requests {
        let mut bar = String::new();
        let col = |ms: f64| (ms * scale).round() as usize;
        let start = col(r.start);
        bar.extend(std::iter::repeat_n(' ', start));
        let mut push_seg = |dur: f64, glyph: char| {
            let n = col(dur).max(if dur > 0.0 { 1 } else { 0 });
            bar.extend(std::iter::repeat_n(glyph, n));
        };
        push_seg(r.phase.blocked, GLYPH_BLOCKED);
        push_seg(r.phase.dns, GLYPH_DNS);
        push_seg(r.phase.connect + r.phase.ssl, GLYPH_CONNECT);
        push_seg(r.phase.send + r.phase.wait, GLYPH_SEND_WAIT);
        push_seg(r.phase.receive, GLYPH_RECEIVE);
        let marker = if r.coalesced {
            " (coalesced)"
        } else if r.new_connection {
            ""
        } else {
            " (reused)"
        };
        out.push_str(&format!("{:label_w$}  {bar}{marker}\n", r.host.as_str()));
    }
    out.push_str(&format!(
        "PLT {:.1}ms | {} requests | {} DNS | {} TLS | {} coalesced\n",
        load.plt(),
        load.request_count(),
        load.dns_queries(),
        load.tls_connections(),
        load.coalesced_requests()
    ));
    out
}

/// Render two waterfalls (measured vs reconstructed) side by side
/// vertically, with a delta line — the Figure 2 presentation.
pub fn render_comparison(before: &PageLoad, after: &PageLoad, width: usize) -> String {
    let mut out = String::new();
    out.push_str("== measured ==\n");
    out.push_str(&render(before, width));
    out.push_str("\n== reconstructed (coalesced) ==\n");
    out.push_str(&render(after, width));
    let saved = before.plt() - after.plt();
    out.push_str(&format!(
        "\ntime saved: {saved:.1}ms ({:.1}%)\n",
        saved / before.plt().max(1.0) * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::har::{Phase, RequestTiming};
    use crate::page::Protocol;
    use origin_dns::name::name;
    use std::net::{IpAddr, Ipv4Addr};

    fn load() -> PageLoad {
        PageLoad {
            rank: 1,
            root_host: name("www.example.com"),
            requests: vec![
                RequestTiming {
                    resource_index: 0,
                    host: name("www.example.com"),
                    ip: IpAddr::V4(Ipv4Addr::new(1, 1, 1, 1)),
                    asn: 13335,
                    start: 0.0,
                    phase: Phase {
                        dns: 15.0,
                        connect: 20.0,
                        ssl: 20.0,
                        wait: 30.0,
                        receive: 15.0,
                        ..Default::default()
                    },
                    did_dns: true,
                    new_connection: true,
                    coalesced: false,
                    protocol: Protocol::H2,
                    cert_issuer: None,
                    secure: true,
                    extra_connections: 0,
                    extra_dns: 0,
                    us: Default::default(),
                }
                .sealed(),
                RequestTiming {
                    resource_index: 1,
                    host: name("static.example.com"),
                    ip: IpAddr::V4(Ipv4Addr::new(1, 1, 1, 1)),
                    asn: 13335,
                    start: 100.0,
                    phase: Phase {
                        wait: 20.0,
                        receive: 10.0,
                        ..Default::default()
                    },
                    did_dns: false,
                    new_connection: false,
                    coalesced: true,
                    protocol: Protocol::H2,
                    cert_issuer: None,
                    secure: true,
                    extra_connections: 0,
                    extra_dns: 0,
                    us: Default::default(),
                }
                .sealed(),
            ],
        }
    }

    #[test]
    fn render_contains_hosts_and_summary() {
        let r = render(&load(), 60);
        assert!(r.contains("www.example.com"));
        assert!(r.contains("static.example.com"));
        assert!(r.contains("(coalesced)"));
        assert!(r.contains("PLT"));
        assert!(r.contains('D'), "dns glyph present");
        assert!(r.contains('C'), "connect glyph present");
    }

    #[test]
    fn comparison_reports_savings() {
        let before = load();
        let mut after = load();
        after.requests[1].start = 60.0;
        after.requests[1].seal();
        let r = render_comparison(&before, &after, 40);
        assert!(r.contains("time saved"));
        assert!(r.contains("measured"));
        assert!(r.contains("reconstructed"));
    }

    #[test]
    fn empty_load_renders() {
        let l = PageLoad {
            rank: 1,
            root_host: name("a.com"),
            requests: vec![],
        };
        let r = render(&l, 40);
        assert!(r.contains("PLT 0.0ms"));
    }

    /// A request with round-number phases so golden columns are exact.
    fn golden_req(
        idx: usize,
        host: &str,
        start: f64,
        phase: Phase,
        new_connection: bool,
        coalesced: bool,
    ) -> RequestTiming {
        RequestTiming {
            resource_index: idx,
            host: name(host),
            ip: IpAddr::V4(Ipv4Addr::new(1, 1, 1, 1)),
            asn: 1,
            start,
            phase,
            did_dns: phase.dns > 0.0,
            new_connection,
            coalesced,
            protocol: Protocol::H2,
            cert_issuer: None,
            secure: true,
            extra_connections: 0,
            extra_dns: 0,
            us: Default::default(),
        }
        .sealed()
    }

    /// Before: both requests pay full setup. PLT 60ms.
    fn golden_before() -> PageLoad {
        PageLoad {
            rank: 1,
            root_host: name("a.com"),
            requests: vec![
                golden_req(
                    0,
                    "a.com",
                    0.0,
                    Phase {
                        dns: 10.0,
                        connect: 10.0,
                        ssl: 10.0,
                        wait: 10.0,
                        receive: 10.0,
                        ..Default::default()
                    },
                    true,
                    false,
                ),
                golden_req(
                    1,
                    "b.com",
                    25.0,
                    Phase {
                        dns: 5.0,
                        connect: 10.0,
                        ssl: 5.0,
                        wait: 10.0,
                        receive: 5.0,
                        ..Default::default()
                    },
                    true,
                    false,
                ),
            ],
        }
    }

    /// After: the second request coalesces, dropping its setup. PLT 50ms.
    fn golden_after() -> PageLoad {
        let mut l = golden_before();
        l.requests[1] = golden_req(
            1,
            "b.com",
            25.0,
            Phase {
                wait: 10.0,
                receive: 5.0,
                ..Default::default()
            },
            false,
            true,
        );
        l
    }

    #[test]
    fn render_matches_golden_fixture() {
        // Width 60 on a 60 ms page: one column per millisecond.
        let mut want = String::new();
        want.push_str("host      0ms");
        want.push_str(&" ".repeat(56));
        want.push_str("60ms\n");
        want.push_str("a.com     ");
        want.push_str(&"D".repeat(10));
        want.push_str(&"C".repeat(20));
        want.push_str(&"▒".repeat(10));
        want.push_str(&"█".repeat(10));
        want.push('\n');
        want.push_str("b.com     ");
        want.push_str(&" ".repeat(25));
        want.push_str(&"D".repeat(5));
        want.push_str(&"C".repeat(15));
        want.push_str(&"▒".repeat(10));
        want.push_str(&"█".repeat(5));
        want.push('\n');
        want.push_str("PLT 60.0ms | 2 requests | 2 DNS | 2 TLS | 0 coalesced\n");
        assert_eq!(render(&golden_before(), 60), want);
    }

    #[test]
    fn render_coalesced_matches_golden_fixture() {
        // Width 60 on a 50 ms page: 1.2 columns per millisecond, still
        // integral for every round-number boundary in the fixture.
        let mut want = String::new();
        want.push_str("host      0ms");
        want.push_str(&" ".repeat(56));
        want.push_str("50ms\n");
        want.push_str("a.com     ");
        want.push_str(&"D".repeat(12));
        want.push_str(&"C".repeat(24));
        want.push_str(&"▒".repeat(12));
        want.push_str(&"█".repeat(12));
        want.push('\n');
        want.push_str("b.com     ");
        want.push_str(&" ".repeat(30));
        want.push_str(&"▒".repeat(12));
        want.push_str(&"█".repeat(6));
        want.push_str(" (coalesced)\n");
        want.push_str("PLT 50.0ms | 2 requests | 1 DNS | 1 TLS | 1 coalesced\n");
        assert_eq!(render(&golden_after(), 60), want);
    }

    #[test]
    fn render_comparison_matches_golden_fixture() {
        let got = render_comparison(&golden_before(), &golden_after(), 60);
        let mut want = String::from("== measured ==\n");
        want.push_str(&render(&golden_before(), 60));
        want.push_str("\n== reconstructed (coalesced) ==\n");
        want.push_str(&render(&golden_after(), 60));
        want.push_str("\ntime saved: 10.0ms (16.7%)\n");
        assert_eq!(got, want);
    }
}
