//! §3.3 dataset characterization (Tables 1–7, Figure 1).

use crate::stats::{self, Histogram, TopK};
use origin_dns::DnsName;
use origin_netsim::hash::FxHashMap;
use origin_web::har::PageLoad;
use origin_web::{ContentType, Page, Protocol};

/// Streaming aggregator over `(page, load)` pairs reproducing the
/// paper's dataset characterization. Feed every successful crawl via
/// [`Characterization::add`], then read the table accessors.
///
/// Both internal maps use the deterministic Fx hasher; neither is read
/// in iteration order (buckets are sorted for Table 1, `as_content` is
/// probed per AS key for Table 6).
///
/// A page has ~111 requests but ~15 hosts and ~8 ASes, so `add`
/// tallies per page and flushes per key: requests are counted into
/// small arrays first, and each table is probed once per distinct key
/// of the page instead of once per request.
#[derive(Default)]
pub struct Characterization {
    /// Per-rank-bucket data: (bucket index → per-page samples).
    buckets: FxHashMap<u32, BucketSamples>,
    /// Requests per destination AS (Table 2).
    pub as_requests: TopK<u32>,
    /// Requests per protocol (Table 3 top).
    pub protocol_requests: TopK<&'static str>,
    /// Secure vs insecure (Table 3 bottom).
    pub secure_requests: u64,
    /// Insecure request count.
    pub insecure_requests: u64,
    /// Certificate issuers by validations (Table 4).
    pub issuers: TopK<String>,
    /// Requests per content type (Table 5).
    pub content_types: TopK<&'static str>,
    /// Requests per content type (by discriminant) of each AS; read
    /// through [`Characterization::as_content`] (Table 6).
    as_content: FxHashMap<u32, [u64; ContentType::ALL.len()]>,
    /// Subresource hostnames (Table 7).
    pub hostnames: TopK<DnsName>,
    /// Unique ASes per page (Figure 1).
    pub ases_per_page: Histogram,
    /// Total pages characterized.
    pub pages: u64,
    /// Total requests.
    pub total_requests: u64,
    /// Rank-bucket width used for Table 1 (paper: 100K).
    pub bucket_width: u32,
    /// Scale factor mapping generated ranks onto the nominal Tranco
    /// space (tranco_total / generated_sites).
    pub rank_scale: f64,
    /// The page being added: requests per content type of each AS met
    /// so far (a handful, scanned linearly), and subrequests per entry
    /// of `Page::hosts`. Capacity only — both are cleared per page.
    page_ases: Vec<(u32, [u64; ContentType::ALL.len()])>,
    page_hosts: Vec<u64>,
}

#[derive(Default)]
struct BucketSamples {
    requests: Vec<f64>,
    plt: Vec<f64>,
    dns: Vec<f64>,
    tls: Vec<f64>,
    success: u64,
}

/// One visit's Table 1 figures, as [`Characterization::add`] sampled
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageTotals {
    /// [`PageLoad::dns_queries`].
    pub dns_queries: u64,
    /// [`PageLoad::tls_connections`].
    pub tls_connections: u64,
    /// [`PageLoad::plt`] (ms).
    pub plt_ms: f64,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Bucket index (0 = ranks 1–100K).
    pub bucket: u32,
    /// Successful page loads in the bucket.
    pub success: u64,
    /// Median requests per page.
    pub median_requests: f64,
    /// Median page load time (ms).
    pub median_plt: f64,
    /// Median DNS queries.
    pub median_dns: f64,
    /// Median TLS connections.
    pub median_tls: f64,
}

impl Characterization {
    /// New aggregator for a dataset generated with `sites` ranks
    /// standing in for `tranco_total` (paper: 500K).
    pub fn new(sites: u32, tranco_total: u32) -> Self {
        Characterization {
            bucket_width: 100_000,
            rank_scale: tranco_total as f64 / sites.max(1) as f64,
            ..Default::default()
        }
    }

    /// Add one successful page load. Returns the visit's totals: the
    /// walk over its requests computes them for Table 1, and a caller
    /// sampling them too need not walk the load again.
    pub fn add(&mut self, page: &Page, load: &PageLoad) -> PageTotals {
        assert_eq!(
            page.resources.len(),
            load.requests.len(),
            "page and load must describe the same resource set"
        );
        // Tally the page...
        self.page_ases.clear();
        self.page_hosts.clear();
        self.page_hosts.resize(page.hosts.len(), 0);
        let mut protocols = [0u64; Protocol::ALL.len()];
        let (mut secure, mut dns, mut tls, mut plt_us) = (0u64, 0u64, 0u64, 0u64);
        for (i, (r, res)) in load.requests.iter().zip(&page.resources).enumerate() {
            plt_us = plt_us.max(r.end_us());
            dns += r.did_dns as u64 + r.extra_dns as u64;
            if r.secure {
                secure += 1;
                tls += r.new_connection as u64 + r.extra_connections as u64;
            }
            protocols[r.protocol as usize] += 1;
            if let Some(issuer) = &r.cert_issuer {
                self.issuers.add_ref_n(&**issuer, 1);
            }
            let at = self.page_ases.iter().position(|(asn, _)| *asn == r.asn);
            let at = at.unwrap_or_else(|| {
                self.page_ases.push((r.asn, [0; ContentType::ALL.len()]));
                self.page_ases.len() - 1
            });
            self.page_ases[at].1[res.content_type as usize] += 1;
            if i != 0 {
                self.page_hosts[res.host as usize] += 1;
            }
        }
        let totals = PageTotals {
            dns_queries: dns,
            tls_connections: tls,
            plt_ms: plt_us as f64 / 1_000.0,
        };

        // ...then flush it, one probe per distinct key.
        let n = load.request_count();
        self.pages += 1;
        self.total_requests += n;
        self.secure_requests += secure;
        self.insecure_requests += n - secure;
        let scaled_rank = (load.rank as f64 * self.rank_scale) as u32;
        let bucket = scaled_rank.saturating_sub(1) / self.bucket_width;
        let b = self.buckets.entry(bucket).or_default();
        b.success += 1;
        b.requests.push(n as f64 - 1.0); // subrequests
        b.plt.push(totals.plt_ms);
        b.dns.push(dns as f64);
        b.tls.push(tls as f64);
        self.ases_per_page.add(self.page_ases.len() as u64);
        for (p, n) in Protocol::ALL.iter().zip(protocols) {
            self.protocol_requests.add_n(p.label(), n);
        }
        let mut content = [0u64; ContentType::ALL.len()];
        for (asn, by_type) in &self.page_ases {
            self.as_requests.add_n(*asn, by_type.iter().sum());
            let as_content = self.as_content.entry(*asn).or_default();
            for ((n, of_as), total) in by_type.iter().zip(as_content).zip(&mut content) {
                *of_as += n;
                *total += n;
            }
        }
        for (ct, n) in ContentType::ALL.iter().zip(content) {
            self.content_types.add_n(ct.mime(), n);
        }
        for (host, n) in page.hosts.iter().zip(&self.page_hosts) {
            self.hostnames.add_ref_n(host, *n);
        }
        totals
    }

    /// Fold a shard's characterization into this one. Per-bucket
    /// sample vectors are concatenated in call order, so merging
    /// rank-ordered shards in rank order reproduces the sequential
    /// sample order exactly (and medians sort anyway); every other
    /// field is a commutative counter.
    pub fn merge(&mut self, other: Characterization) {
        for (bucket, samples) in other.buckets {
            let b = self.buckets.entry(bucket).or_default();
            b.requests.extend(samples.requests);
            b.plt.extend(samples.plt);
            b.dns.extend(samples.dns);
            b.tls.extend(samples.tls);
            b.success += samples.success;
        }
        self.as_requests.merge(&other.as_requests);
        self.protocol_requests.merge(&other.protocol_requests);
        self.secure_requests += other.secure_requests;
        self.insecure_requests += other.insecure_requests;
        self.issuers.merge(&other.issuers);
        self.content_types.merge(&other.content_types);
        for (asn, by_type) in &other.as_content {
            let mine = self.as_content.entry(*asn).or_default();
            for (n, of_as) in by_type.iter().zip(mine) {
                *of_as += n;
            }
        }
        self.hostnames.merge(&other.hostnames);
        self.ases_per_page.merge(&other.ases_per_page);
        self.pages += other.pages;
        self.total_requests += other.total_requests;
    }

    /// Export the crawl-wide counters into a metrics registry under
    /// `crawl.*`.
    pub fn record_into(&self, metrics: &mut origin_telemetry::metrics::Registry) {
        metrics.add("crawl.pages", self.pages);
        metrics.add("crawl.requests", self.total_requests);
        metrics.add("crawl.secure_requests", self.secure_requests);
        metrics.add("crawl.insecure_requests", self.insecure_requests);
    }

    /// Table 1 rows in bucket order, plus the whole-dataset row.
    pub fn table1(&self) -> Vec<Table1Row> {
        let mut buckets: Vec<u32> = self.buckets.keys().copied().collect();
        buckets.sort_unstable();
        let mut rows = Vec::new();
        let mut all = BucketSamples::default();
        for bkt in buckets {
            let b = &self.buckets[&bkt];
            rows.push(Table1Row {
                bucket: bkt,
                success: b.success,
                median_requests: stats::median(&b.requests).unwrap_or(0.0),
                median_plt: stats::median(&b.plt).unwrap_or(0.0),
                median_dns: stats::median(&b.dns).unwrap_or(0.0),
                median_tls: stats::median(&b.tls).unwrap_or(0.0),
            });
            all.success += b.success;
            all.requests.extend_from_slice(&b.requests);
            all.plt.extend_from_slice(&b.plt);
            all.dns.extend_from_slice(&b.dns);
            all.tls.extend_from_slice(&b.tls);
        }
        rows.push(Table1Row {
            bucket: u32::MAX, // sentinel: the "Total" row
            success: all.success,
            median_requests: stats::median(&all.requests).unwrap_or(0.0),
            median_plt: stats::median(&all.plt).unwrap_or(0.0),
            median_dns: stats::median(&all.dns).unwrap_or(0.0),
            median_tls: stats::median(&all.tls).unwrap_or(0.0),
        });
        rows
    }

    /// Whole-dataset mean subrequests per page (the `μ` row of Table 1),
    /// summed in ascending order so the sum is independent of how the
    /// buckets were visited.
    pub fn request_mean(&self) -> Option<f64> {
        let mut all: Vec<f64> = self
            .buckets
            .values()
            .flat_map(|b| b.requests.iter().copied())
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        stats::mean(&all)
    }

    /// The content types one AS served, by MIME label (Table 6).
    pub fn as_content(&self, asn: u32) -> TopK<&'static str> {
        let mut topk = TopK::new();
        if let Some(by_type) = self.as_content.get(&asn) {
            for (ct, n) in ContentType::ALL.iter().zip(by_type) {
                topk.add_n(ct.mime(), *n);
            }
        }
        topk
    }

    /// Fraction of requests secured with HTTPS (Table 3: 98.53%).
    pub fn secure_fraction(&self) -> f64 {
        let total = self.secure_requests + self.insecure_requests;
        if total == 0 {
            0.0
        } else {
            self.secure_requests as f64 / total as f64
        }
    }

    /// Figure 1 series: `(as_count, fraction_of_pages)` plus CDF.
    pub fn figure1(&self) -> Vec<(u64, f64, f64)> {
        self.ases_per_page
            .bins()
            .map(|(v, c)| {
                (
                    v,
                    c as f64 / self.pages.max(1) as f64,
                    self.ases_per_page.cdf_at(v),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;
    use origin_web::har::{Phase, RequestTiming};
    use origin_web::Resource;
    use std::net::{IpAddr, Ipv4Addr};

    fn sample(rank: u32) -> (Page, PageLoad) {
        let mut page = Page::new(rank, name("site.com"), 1_000);
        page.push(
            name("cdn.site.com"),
            Resource::new("/a.js", ContentType::Javascript, 10),
        );
        let ip = IpAddr::V4(Ipv4Addr::new(1, 2, 3, 4));
        let mk = |idx: usize, host: &str, asn: u32| {
            RequestTiming {
                resource_index: idx,
                host: name(host),
                ip,
                asn,
                start: 0.0,
                phase: Phase {
                    dns: 10.0,
                    connect: 20.0,
                    ssl: 20.0,
                    wait: 30.0,
                    receive: 5.0,
                    ..Default::default()
                },
                did_dns: true,
                new_connection: true,
                coalesced: false,
                protocol: Protocol::H2,
                cert_issuer: Some("Test CA".into()),
                secure: true,
                extra_connections: 0,
                extra_dns: 0,
                us: Default::default(),
            }
            .sealed()
        };
        let load = PageLoad {
            rank,
            root_host: name("site.com"),
            requests: vec![mk(0, "site.com", 100), mk(1, "cdn.site.com", 200)],
        };
        (page, load)
    }

    #[test]
    fn accumulates_counts() {
        let mut c = Characterization::new(100, 500_000);
        let (p, l) = sample(1);
        let totals = c.add(&p, &l);
        assert_eq!(totals.dns_queries, l.dns_queries());
        assert_eq!(totals.tls_connections, l.tls_connections());
        assert_eq!(totals.plt_ms, l.plt());
        let (p2, l2) = sample(60);
        c.add(&p2, &l2);
        assert_eq!(c.pages, 2);
        assert_eq!(c.total_requests, 4);
        assert_eq!(c.protocol_requests.count(&"HTTP/2"), 4);
        assert_eq!(c.content_types.count(&"text/html"), 2);
        // Per-AS content: the root document on AS 100, the script on
        // AS 200, nothing on an AS no page touched.
        assert_eq!(c.as_content(100).top(3)[0].key, "text/html");
        assert_eq!(c.as_content(200).count(&"application/javascript"), 2);
        assert_eq!(c.as_content(200).total(), 2);
        assert_eq!(c.as_content(300).total(), 0);
        assert_eq!(c.secure_fraction(), 1.0);
        assert_eq!(c.as_requests.count(&100), 2);
        assert_eq!(c.issuers.count(&"Test CA".to_string()), 4);
        // Root not counted as subresource hostname.
        assert_eq!(c.hostnames.count(&name("site.com")), 0);
        assert_eq!(c.hostnames.count(&name("cdn.site.com")), 2);
    }

    #[test]
    fn table1_buckets_by_scaled_rank() {
        let mut c = Characterization::new(100, 500_000);
        // rank 1 → scaled 5_000 → bucket 0; rank 60 → 300_000 → bucket 2.
        let (p, l) = sample(1);
        c.add(&p, &l);
        let (p2, l2) = sample(60);
        c.add(&p2, &l2);
        let rows = c.table1();
        assert_eq!(rows.len(), 3); // two buckets + total
        assert_eq!(rows[0].bucket, 0);
        assert_eq!(rows[1].bucket, 2);
        assert_eq!(rows[2].bucket, u32::MAX);
        assert_eq!(rows[2].success, 2);
        assert_eq!(rows[0].median_requests, 1.0);
        assert_eq!(rows[0].median_dns, 2.0);
    }

    #[test]
    fn figure1_fractions_sum_to_one() {
        let mut c = Characterization::new(100, 500_000);
        for rank in 1..=10 {
            let (p, l) = sample(rank);
            c.add(&p, &l);
        }
        let f: f64 = c.figure1().iter().map(|(_, frac, _)| frac).sum();
        assert!((f - 1.0).abs() < 1e-9);
        // Every page touched exactly 2 ASes.
        assert_eq!(c.figure1()[0].0, 2);
        assert_eq!(c.figure1()[0].2, 1.0);
    }

    #[test]
    fn merge_matches_sequential_add() {
        // Sequential reference over ranks 1..=6.
        let mut seq = Characterization::new(100, 500_000);
        for rank in 1..=6 {
            let (p, l) = sample(rank);
            seq.add(&p, &l);
        }
        // Same pages split over two rank-ordered shards.
        let mut lo = Characterization::new(100, 500_000);
        let mut hi = Characterization::new(100, 500_000);
        for rank in 1..=3 {
            let (p, l) = sample(rank);
            lo.add(&p, &l);
        }
        for rank in 4..=6 {
            let (p, l) = sample(rank);
            hi.add(&p, &l);
        }
        let mut merged = Characterization::new(100, 500_000);
        merged.merge(lo);
        merged.merge(hi);
        assert_eq!(merged.pages, seq.pages);
        assert_eq!(merged.total_requests, seq.total_requests);
        assert_eq!(merged.table1(), seq.table1());
        assert_eq!(merged.figure1(), seq.figure1());
        assert_eq!(merged.as_requests.top(10), seq.as_requests.top(10));
        assert_eq!(merged.hostnames.top(10), seq.hostnames.top(10));
        assert_eq!(merged.as_content(200).top(5), seq.as_content(200).top(5));

        // empty ⊕ x == x.
        let mut from_empty = Characterization::new(100, 500_000);
        let mut x = Characterization::new(100, 500_000);
        let (p, l) = sample(2);
        x.add(&p, &l);
        let x_rows = x.table1();
        from_empty.merge(x);
        assert_eq!(from_empty.table1(), x_rows);
    }
}
