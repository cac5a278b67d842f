//! §4.1 timeline reconstruction.
//!
//! "Each timeline was then reconstructed first by finding the
//! timelines' event labels {block, send, wait, receive} for the
//! affected subrequests. We then modified those timestamps,
//! conservatively, by omitting the smallest DNS query and TCP/TLS
//! connection establishment times for blocking requests." (§4.1)
//!
//! Concretely: requests identified as coalescable lose their
//! `dns`/`connect`/`ssl` phases, and every request shifts earlier by
//! exactly the amount its discovering parent finished earlier — the
//! browser's dependency-graph computation time (the gap between a
//! parent finishing and a child dispatching) is deliberately left
//! unmodified.

use origin_web::har::PageLoad;
use origin_web::Page;

/// Reconstruct a measured page load as if the requests selected by
/// `coalescable` had been coalesced (no DNS, no TCP+TLS setup).
///
/// `coalescable(i)` is consulted for each request index; the root
/// document (index 0) can never be coalesced (§4.1: "the request for
/// a base-page can never be coalesced since it initiates the first
/// connection").
pub fn reconstruct(
    page: &Page,
    measured: &PageLoad,
    mut coalescable: impl FnMut(usize) -> bool,
) -> PageLoad {
    assert_eq!(
        page.resources.len(),
        measured.requests.len(),
        "page and load must describe the same resource set"
    );
    let n = measured.requests.len();
    // New end time per request, indexed by resource index.
    let mut new_end = vec![0.0f64; n];
    let mut old_end = vec![0.0f64; n];
    let mut out = measured.clone();

    for i in 0..n {
        let r = &mut out.requests[i];
        old_end[i] = measured.requests[i].end();

        // Parent in the discovery graph (root-referenced resources
        // implicitly descend from the root document).
        let parent = if i == 0 {
            None
        } else {
            Some(page.resources[i].discovered_by.unwrap_or(0))
        };

        // Shift the start by however much the parent finished
        // earlier; the dispatch gap itself is preserved.
        if let Some(p) = parent {
            let shift = old_end[p] - new_end[p];
            r.start = (r.start - shift).max(0.0);
        }

        if i != 0 && coalescable(i) {
            // Remove the setup phases: the request rides an existing
            // connection.
            r.phase.dns = 0.0;
            r.phase.connect = 0.0;
            r.phase.ssl = 0.0;
            r.did_dns = false;
            r.new_connection = false;
            r.coalesced = true;
            r.cert_issuer = None;
            r.extra_connections = 0;
            r.extra_dns = 0;
        }
        // The start and the setup phases moved: quantise them again
        // so the reconstruction reads as a finished record does.
        r.seal();
        new_end[i] = r.end();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;
    use origin_web::har::{Phase, RequestTiming};
    use origin_web::{ContentType, Page, Protocol, Resource};
    use std::net::{IpAddr, Ipv4Addr};

    /// Build the Figure 2 example: root + chain of subresources.
    fn fixture() -> (Page, PageLoad) {
        let mut page = Page::new(1, name("www.example.com"), 10_000);
        let css = page.push(
            name("static.example.com"),
            Resource::new("/css/style.css", ContentType::Css, 5_000),
        );
        page.push(
            name("fonts.cdnhost.com"),
            Resource::new("/arial.woff", ContentType::Woff2, 8_000).discovered_by(css),
        );
        let ip = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
        let req = |idx: usize, host: &str, start: f64, setup: f64| {
            RequestTiming {
                resource_index: idx,
                host: name(host),
                ip,
                asn: 100,
                start,
                phase: Phase {
                    blocked: 1.0,
                    dns: setup / 2.0,
                    connect: setup / 4.0,
                    ssl: setup / 4.0,
                    send: 1.0,
                    wait: 20.0,
                    receive: 10.0,
                },
                did_dns: setup > 0.0,
                new_connection: setup > 0.0,
                coalesced: false,
                protocol: Protocol::H2,
                cert_issuer: Some("CA".into()),
                secure: true,
                extra_connections: 0,
                extra_dns: 1,
                us: Default::default(),
            }
            .sealed()
        };
        let load = PageLoad {
            rank: 1,
            root_host: name("www.example.com"),
            requests: vec![
                req(0, "www.example.com", 0.0, 100.0),
                // css starts 8 ms after root finishes (dispatch gap).
                req(1, "static.example.com", 140.0, 80.0),
                // font starts 5 ms after css finishes.
                req(2, "fonts.cdnhost.com", 257.0, 60.0),
            ],
        };
        (page, load)
    }

    #[test]
    fn no_coalescing_is_identity() {
        let (page, load) = fixture();
        let out = reconstruct(&page, &load, |_| false);
        assert_eq!(out, load);
    }

    #[test]
    fn coalesced_request_loses_setup_and_children_shift() {
        let (page, load) = fixture();
        // css (request 1) coalesces; font (request 2) does not.
        let out = reconstruct(&page, &load, |i| i == 1);
        // css: setup phases zeroed.
        assert_eq!(out.requests[1].phase.dns, 0.0);
        assert_eq!(out.requests[1].phase.connect, 0.0);
        assert_eq!(out.requests[1].phase.ssl, 0.0);
        assert!(out.requests[1].coalesced);
        assert!(!out.requests[1].new_connection);
        assert_eq!(out.requests[1].extra_dns, 0);
        // css's own start is unchanged (its parent, the root, didn't
        // move) but it finishes 80 ms earlier.
        assert_eq!(out.requests[1].start, load.requests[1].start);
        let css_saving = load.requests[1].end() - out.requests[1].end();
        assert!((css_saving - 80.0).abs() < 1e-9);
        // font keeps its setup but starts 80 ms earlier (cascade).
        assert_eq!(out.requests[2].phase.dns, load.requests[2].phase.dns);
        assert!((load.requests[2].start - out.requests[2].start - 80.0).abs() < 1e-9);
        // PLT improves by exactly the cascaded saving.
        assert!((load.plt() - out.plt() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn root_never_coalesces() {
        let (page, load) = fixture();
        let out = reconstruct(&page, &load, |_| true);
        assert!(out.requests[0].new_connection);
        assert!(out.requests[0].phase.dns > 0.0);
        // Everything else coalesced.
        assert!(out.requests[1].coalesced && out.requests[2].coalesced);
        // Savings cascade: 80 + 60 off the chain.
        assert!((load.plt() - out.plt() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn counts_reflect_reconstruction() {
        let (page, load) = fixture();
        assert_eq!(load.tls_connections(), 3);
        assert_eq!(load.dns_queries(), 3 + 3); // extra_dns = 1 each
        let out = reconstruct(&page, &load, |_| true);
        assert_eq!(out.tls_connections(), 1);
        assert_eq!(out.dns_queries(), 1 + 1);
    }

    #[test]
    fn starts_never_negative() {
        let (page, mut load) = fixture();
        // Craft an extreme shift: parent saves more than child's start.
        load.requests[1].start = 101.0;
        load.requests[2].start = 150.0;
        load.requests.iter_mut().for_each(|r| r.seal());
        let out = reconstruct(&page, &load, |_| true);
        for r in &out.requests {
            assert!(r.start >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "same resource set")]
    fn mismatched_inputs_panic() {
        let (page, mut load) = fixture();
        load.requests.pop();
        reconstruct(&page, &load, |_| false);
    }
}
