//! §4.2 predictions: ideal DNS queries, TLS connections, certificate
//! validations, and reconstructed PLTs.
//!
//! "In an ideal coalescing, the number of DNS queries, TLS
//! handshakes, and certificate validations is equal to the number of
//! separate services (not domains or hostnames) needed to serve all
//! webpage resources."

use crate::reconstruct::reconstruct;
use crate::smallset::SmallSet;
use origin_web::har::{ms_to_us, PageLoad};
use origin_web::Page;
use std::net::IpAddr;

/// How requests are grouped into "one connection suffices" classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalescingGrouping {
    /// Ideal IP-based coalescing: any set of ≥2 connections to the
    /// same IP address collapses to one ("our model assumes no
    /// changes and looks for missed opportunities").
    ByIp,
    /// Ideal ORIGIN coalescing: one connection per origin AS — the
    /// model's proxy for "separate services", justified in §4.1 by
    /// the assumption that every server in an ASN can authoritatively
    /// serve all content for that ASN.
    ByAs,
    /// ORIGIN coalescing enabled at a single provider only (the
    /// Figure 9 dotted line): requests to `asn` group together;
    /// everything else keeps its measured behaviour.
    BySingleAs(u32),
}

/// One page's predicted ideal counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPrediction {
    /// Predicted DNS queries.
    pub dns_queries: u64,
    /// Predicted new TLS connections.
    pub tls_connections: u64,
    /// Predicted certificate validations (= TLS connections).
    pub cert_validations: u64,
    /// Reconstructed page load time (ms).
    pub plt_ms: f64,
}

/// The connection addresses / ASes one page's new connections have
/// met so far (a page opens ~18 connections).
type SeenSet<T> = SmallSet<T, 32>;

/// Pages up to this many requests keep [`predict_counts3`]'s
/// per-request end times on the stack.
const INLINE_REQUESTS: usize = 256;

/// Decide, per request, whether the model coalesces it, and return
/// the indices of coalescable requests plus the count of groups that
/// still need a connection.
///
/// A request is coalescable when an earlier request in the page
/// already contacted its group (IP or AS). Requests that never opened
/// a connection in the measured load (reused/failed/N-A) keep their
/// behaviour — the model only removes *redundant* setups.
fn coalescable_set(measured: &PageLoad, grouping: CoalescingGrouping) -> (Vec<bool>, u64) {
    let n = measured.requests.len();
    let mut coalescable = vec![false; n];
    let mut seen_ips: SeenSet<IpAddr> = SmallSet::new();
    let mut seen_as: SeenSet<u32> = SmallSet::new();
    let mut groups = 0u64;
    for (i, r) in measured.requests.iter().enumerate() {
        if !r.new_connection {
            continue; // already reused, or never connected
        }
        let first_of_group = match grouping {
            CoalescingGrouping::ByIp => seen_ips.insert(r.ip),
            CoalescingGrouping::ByAs => seen_as.insert(r.asn),
            CoalescingGrouping::BySingleAs(asn) => {
                if r.asn == asn {
                    seen_as.insert(asn)
                } else {
                    true // outside the deployment: keep measured behaviour
                }
            }
        };
        if first_of_group {
            groups += 1;
        } else if i != 0 {
            coalescable[i] = true;
        }
    }
    (coalescable, groups)
}

/// Predict one page's ideal counts and reconstructed PLT.
pub fn predict(
    page: &Page,
    measured: &PageLoad,
    grouping: CoalescingGrouping,
) -> (ModelPrediction, PageLoad) {
    let (coalescable, _groups) = coalescable_set(measured, grouping);
    let mut reconstructed = reconstruct(page, measured, |i| coalescable[i]);
    // The ideal models also collapse the client-race duplicates
    // (happy-eyeballs second connections, speculative queries): those
    // duplicate an existing connection by definition.
    if !matches!(grouping, CoalescingGrouping::BySingleAs(_)) {
        for r in &mut reconstructed.requests {
            r.extra_connections = 0;
            r.extra_dns = 0;
        }
    }
    let prediction = ModelPrediction {
        dns_queries: reconstructed.dns_queries(),
        tls_connections: reconstructed.tls_connections(),
        cert_validations: reconstructed.tls_connections(),
        plt_ms: reconstructed.plt(),
    };
    (prediction, reconstructed)
}

/// The three predictions the crawl keeps per page — `ByIp`, `ByAs`
/// and `BySingleAs(single_asn)` — computed in one fused walk.
///
/// Everything that does not depend on the grouping (the measured end
/// times, the quantised phase total, the setup cost a coalesced
/// request sheds, the discovery parent) is read once per request off
/// the record's seal instead of derived once per grouping. The
/// per-grouping remainder is the coalescing decision, the start-shift
/// recursion — a start that moved is a new value, and the one thing
/// quantised here — and the count accumulation. Two identities make
/// the fusion exact:
///
/// * `old_end` is grouping-independent: it is the *measured* end time.
/// * zeroing `phase.{dns,connect,ssl}` and sealing again equals
///   subtracting their sealed values from the un-coalesced total,
///   because the total sums per-field `ms_to_us` and `ms_to_us(0.0)
///   == 0`.
///
/// Equivalence with three full [`predict`] reconstructions, bit for
/// bit, is asserted by `fused_counts_match_full_reconstruction` below
/// and on real measured loads in the bench crate.
pub fn predict_counts3(page: &Page, measured: &PageLoad, single_asn: u32) -> [ModelPrediction; 3] {
    assert_eq!(
        page.resources.len(),
        measured.requests.len(),
        "page and load must describe the same resource set"
    );
    let n = measured.requests.len();
    let mut seen_ips: SeenSet<IpAddr> = SmallSet::new();
    let mut seen_as: SeenSet<u32> = SmallSet::new();
    let mut seen_single = false;
    // Per request: the end under each of the three groupings, then
    // the measured end.
    let mut inline = [[0.0f64; 4]; INLINE_REQUESTS];
    let mut spilled = Vec::new();
    let ends: &mut [[f64; 4]] = if n <= INLINE_REQUESTS {
        &mut inline[..n]
    } else {
        spilled.resize(n, [0.0; 4]);
        &mut spilled
    };
    let mut dns = [0u64; 3];
    let mut tls = [0u64; 3];
    let mut plt_us = [0u64; 3];
    for i in 0..n {
        let r = &measured.requests[i];
        let q = r.phases_us();
        let total_us = r.total_us();
        let setup_us = q[1] + q[2] + q[3]; // dns + connect + ssl
        ends[i][3] = r.end_us() as f64 / 1_000.0;
        let parent = if i == 0 {
            None
        } else {
            Some(page.resources[i].discovered_by.unwrap_or(0))
        };
        // Same decisions coalescable_set makes, one walk for all three.
        let mut coalesce = [false; 3];
        if r.new_connection {
            if !seen_ips.insert(r.ip) && i != 0 {
                coalesce[0] = true;
            }
            if !seen_as.insert(r.asn) && i != 0 {
                coalesce[1] = true;
            }
            if r.asn == single_asn {
                if seen_single && i != 0 {
                    coalesce[2] = true;
                }
                seen_single = true;
            }
        }
        for g in 0..3 {
            // A request whose parent ended when it was measured to
            // starts when it was measured to: that start is sealed.
            // Only a start that moved is a new value to quantise.
            let shift = parent.map_or(0.0, |p| ends[p][3] - ends[p][g]);
            let start_us = if shift == 0.0 {
                r.start_us()
            } else {
                ms_to_us((r.start - shift).max(0.0))
            };
            let collapse_races = g != 2; // BySingleAs keeps client races
            let mut did_dns = r.did_dns;
            let mut new_conn = r.new_connection;
            let mut extra_conns = r.extra_connections;
            let mut extra_dns = r.extra_dns;
            if coalesce[g] {
                did_dns = false;
                new_conn = false;
                extra_conns = 0;
                extra_dns = 0;
            }
            if collapse_races {
                extra_conns = 0;
                extra_dns = 0;
            }
            dns[g] += did_dns as u64 + extra_dns as u64;
            if r.secure {
                tls[g] += new_conn as u64 + extra_conns as u64;
            }
            let eff_total = if coalesce[g] {
                total_us - setup_us
            } else {
                total_us
            };
            let end_us = start_us + eff_total;
            ends[i][g] = end_us as f64 / 1_000.0;
            plt_us[g] = plt_us[g].max(end_us);
        }
    }
    std::array::from_fn(|g| ModelPrediction {
        dns_queries: dns[g],
        tls_connections: tls[g],
        cert_validations: tls[g],
        plt_ms: plt_us[g] as f64 / 1_000.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;
    use origin_web::har::{Phase, RequestTiming};
    use origin_web::{ContentType, Page, Protocol, Resource};
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, d))
    }

    fn req(idx: usize, host: &str, ip_: IpAddr, asn: u32, new_conn: bool) -> RequestTiming {
        RequestTiming {
            resource_index: idx,
            host: name(host),
            ip: ip_,
            asn,
            start: idx as f64 * 100.0,
            phase: Phase {
                dns: if new_conn { 20.0 } else { 0.0 },
                connect: if new_conn { 40.0 } else { 0.0 },
                ssl: if new_conn { 20.0 } else { 0.0 },
                wait: 30.0,
                receive: 10.0,
                ..Default::default()
            },
            did_dns: new_conn,
            new_connection: new_conn,
            coalesced: false,
            protocol: Protocol::H2,
            cert_issuer: None,
            secure: true,
            extra_connections: 0,
            extra_dns: 0,
            us: Default::default(),
        }
        .sealed()
    }

    /// root (AS 1, ip 1), shard (AS 1, ip 1), service-a (AS 2, ip 2),
    /// service-b (AS 2, ip 3), reused request to root host.
    fn fixture() -> (Page, PageLoad) {
        let mut page = Page::new(1, name("site.com"), 1_000);
        page.push(
            name("static.site.com"),
            Resource::new("/a.css", ContentType::Css, 100),
        );
        page.push(
            name("x.svc.net"),
            Resource::new("/x.js", ContentType::Javascript, 100),
        );
        page.push(
            name("y.svc.net"),
            Resource::new("/y.js", ContentType::Javascript, 100),
        );
        page.push(
            name("site.com"),
            Resource::new("/img.png", ContentType::Png, 100),
        );
        let load = PageLoad {
            rank: 1,
            root_host: name("site.com"),
            requests: vec![
                req(0, "site.com", ip(1), 1, true),
                req(1, "static.site.com", ip(1), 1, true),
                req(2, "x.svc.net", ip(2), 2, true),
                req(3, "y.svc.net", ip(3), 2, true),
                req(4, "site.com", ip(1), 1, false),
            ],
        };
        (page, load)
    }

    #[test]
    fn by_ip_collapses_same_ip_only() {
        let (page, load) = fixture();
        assert_eq!(load.tls_connections(), 4);
        let (pred, recon) = predict(&page, &load, CoalescingGrouping::ByIp);
        // shard shares ip(1) with root → coalesces; services differ.
        assert_eq!(pred.tls_connections, 3);
        assert_eq!(pred.dns_queries, 3);
        assert!(recon.requests[1].coalesced);
        assert!(!recon.requests[2].coalesced);
        assert!(!recon.requests[3].coalesced);
    }

    #[test]
    fn by_as_collapses_services() {
        let (page, load) = fixture();
        let (pred, recon) = predict(&page, &load, CoalescingGrouping::ByAs);
        // Two groups: AS1, AS2.
        assert_eq!(pred.tls_connections, 2);
        assert_eq!(pred.cert_validations, 2);
        assert!(recon.requests[1].coalesced);
        assert!(recon.requests[3].coalesced);
    }

    #[test]
    fn single_as_only_touches_that_as() {
        let (page, load) = fixture();
        let (pred, recon) = predict(&page, &load, CoalescingGrouping::BySingleAs(2));
        // AS2's second connection coalesces; AS1's shard does not.
        assert_eq!(pred.tls_connections, 3);
        assert!(!recon.requests[1].coalesced);
        assert!(recon.requests[3].coalesced);
    }

    #[test]
    fn reused_requests_untouched() {
        let (page, load) = fixture();
        let (_, recon) = predict(&page, &load, CoalescingGrouping::ByAs);
        assert!(!recon.requests[4].coalesced);
        assert!(!recon.requests[4].new_connection);
    }

    #[test]
    fn fused_counts_match_full_reconstruction() {
        // The fused walk the crawl runs must agree bit for bit with
        // predict() (which materialises the reconstructed PageLoad) on
        // every grouping — both when the single-AS deployment exists in
        // the page and when it names an AS the page never contacts.
        let (mut page, mut load) = fixture();
        // Exercise the corners the base fixture doesn't: an insecure
        // request (excluded from TLS counts), race duplicates, and a
        // discovery chain (child shifts when its parent coalesces).
        load.requests[2].extra_connections = 1;
        load.requests[2].extra_dns = 2;
        load.requests[3].secure = false;
        page.resources[3].discovered_by = Some(2);
        for single_asn in [2u32, 999] {
            let fused = predict_counts3(&page, &load, single_asn);
            let full = [
                CoalescingGrouping::ByIp,
                CoalescingGrouping::ByAs,
                CoalescingGrouping::BySingleAs(single_asn),
            ]
            .map(|grouping| predict(&page, &load, grouping).0);
            assert_eq!(fused, full, "single_asn {single_asn}");
        }
    }

    #[test]
    fn plt_improves_with_coalescing() {
        let (page, load) = fixture();
        let (ip_pred, _) = predict(&page, &load, CoalescingGrouping::ByIp);
        let (as_pred, _) = predict(&page, &load, CoalescingGrouping::ByAs);
        assert!(ip_pred.plt_ms <= load.plt());
        assert!(as_pred.plt_ms <= ip_pred.plt_ms);
    }
}
