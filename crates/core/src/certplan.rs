//! §4.3 certificate-modification planning (Figures 4–5, Tables 8–9).
//!
//! "In each website's certificate we identify and add the individual
//! hostnames needed to load the webpage that are available from the
//! same provider but absent from the SAN."

use crate::smallset::SmallSet;
use crate::stats::{Cdf, Histogram, TopK};
use origin_dns::DnsName;
use origin_tls::Certificate;
use origin_web::Page;
use std::collections::HashMap;

/// The least-effort SAN plan for one website's certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct CertPlan {
    /// Site rank.
    pub rank: u32,
    /// The website (certificate subject).
    pub root_host: DnsName,
    /// DNS SAN entries in the existing certificate.
    pub existing_sans: u32,
    /// Hostnames to add: same-provider page hosts the SAN misses.
    pub additions: Vec<DnsName>,
}

impl CertPlan {
    /// SAN entries after the modification.
    pub fn ideal_sans(&self) -> u32 {
        self.existing_sans + self.additions.len() as u32
    }

    /// Does this certificate need any change at all? (62.41% of the
    /// paper's sites did not.)
    pub fn unchanged(&self) -> bool {
        self.additions.is_empty()
    }
}

/// Compute the least-effort plan for one site.
///
/// `same_provider(a, b)` answers whether hosts `a` and `b` are served
/// by the same provider (the §4.1 colocation assumption); `cert` is
/// the certificate currently served for the root host (None models
/// the paper's SAN-less certificates). Both are asked once per host
/// of the page, the first time a secure resource names it — not once
/// per resource.
pub fn plan_site(
    page: &Page,
    cert: Option<&Certificate>,
    same_provider: impl Fn(&DnsName, &DnsName) -> bool,
) -> CertPlan {
    let existing_sans = cert.map(|c| c.san_count() as u32).unwrap_or(0);
    let mut additions: Vec<DnsName> = Vec::new();
    let mut decided: SmallSet<u16, 32> = SmallSet::new();
    for r in &page.resources {
        if !r.secure || !decided.insert(r.host) {
            continue;
        }
        let host = page.host_of(r);
        if *host == page.root_host || !same_provider(&page.root_host, host) {
            continue;
        }
        if !cert.is_some_and(|c| c.covers(host)) {
            additions.push(host.clone());
        }
    }
    CertPlan {
        rank: page.rank,
        root_host: page.root_host.clone(),
        existing_sans,
        additions,
    }
}

/// One side of Table 8: `(san_size, site_count)` rows by frequency.
pub type Table8Side = Vec<(u64, u64)>;

/// One Table 9 row: provider, customer-site count, and its top-k
/// `(hostname, count, percent-of-sites)` additions.
pub type Table9Row = (String, u64, Vec<(DnsName, u64, f64)>);

/// Aggregate over all sites: the Figure 4/5 and Table 8 inputs.
#[derive(Default)]
pub struct PlanSummary {
    /// Existing SAN sizes (Table 8 "Measured", Figure 4 blue).
    pub existing: Histogram,
    /// Ideal SAN sizes (Table 8 "Ideal", Figure 4 red).
    pub ideal: Histogram,
    /// Number of additions per certificate (Figure 5 green).
    pub changes: Histogram,
    /// `(existing, ideal)` per site, for the Figure 5 rank plot.
    pub per_site: Vec<(u32, u32)>,
    /// Sites requiring no modification.
    pub unchanged_sites: u64,
    /// Total sites planned.
    pub total_sites: u64,
    /// Sites with no SAN at all in the existing certificate.
    pub san_less_sites: u64,
    /// Of the SAN-less sites, how many need changes (the paper found
    /// only 2 of 11,131).
    pub san_less_needing_changes: u64,
}

impl PlanSummary {
    /// Record one site's plan.
    pub fn add(&mut self, plan: &CertPlan) {
        self.total_sites += 1;
        self.existing.add(plan.existing_sans as u64);
        self.ideal.add(plan.ideal_sans() as u64);
        self.changes.add(plan.additions.len() as u64);
        self.per_site.push((plan.existing_sans, plan.ideal_sans()));
        if plan.unchanged() {
            self.unchanged_sites += 1;
        }
        if plan.existing_sans == 0 {
            self.san_less_sites += 1;
            if !plan.unchanged() {
                self.san_less_needing_changes += 1;
            }
        }
    }

    /// Fold a shard's summary into this one. `per_site` concatenates
    /// in call order — merge rank-ordered shards in rank order to
    /// reproduce the sequential Figure 5 series byte for byte; the
    /// histograms and counters are order-independent.
    pub fn merge(&mut self, other: PlanSummary) {
        self.existing.merge(&other.existing);
        self.ideal.merge(&other.ideal);
        self.changes.merge(&other.changes);
        self.per_site.extend(other.per_site);
        self.unchanged_sites += other.unchanged_sites;
        self.total_sites += other.total_sites;
        self.san_less_sites += other.san_less_sites;
        self.san_less_needing_changes += other.san_less_needing_changes;
    }

    /// Export the plan totals into a metrics registry under
    /// `certplan.*`.
    pub fn record_into(&self, metrics: &mut origin_telemetry::metrics::Registry) {
        metrics.add("certplan.sites", self.total_sites);
        metrics.add("certplan.unchanged_sites", self.unchanged_sites);
        metrics.add("certplan.san_less_sites", self.san_less_sites);
        let additions: u64 = self.changes.bins().map(|(v, c)| v * c).sum();
        metrics.add("certplan.san_additions", additions);
    }

    /// Fraction of sites needing no change (paper: 62.41%).
    pub fn unchanged_fraction(&self) -> f64 {
        if self.total_sites == 0 {
            0.0
        } else {
            self.unchanged_sites as f64 / self.total_sites as f64
        }
    }

    /// Fraction of sites coalescible with ≤ `n` additions (paper:
    /// 92.66% within 10).
    pub fn within_changes(&self, n: u64) -> f64 {
        self.changes.cdf_at(n)
    }

    /// Figure 4 CDFs: `(existing, ideal)`.
    pub fn figure4(&self) -> (Cdf, Cdf) {
        let existing: Vec<u64> = self.per_site.iter().map(|&(e, _)| e as u64).collect();
        let ideal: Vec<u64> = self.per_site.iter().map(|&(_, i)| i as u64).collect();
        (Cdf::from_u64(&existing), Cdf::from_u64(&ideal))
    }

    /// Figure 5 series: sites ranked by existing SAN size
    /// (descending); each entry is `(existing, ideal, changes)`.
    pub fn figure5(&self) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<(u32, u32, u32)> =
            self.per_site.iter().map(|&(e, i)| (e, i, i - e)).collect();
        v.sort_by_key(|&(e, _, _)| std::cmp::Reverse(e));
        v
    }

    /// Sites whose certificate exceeds `threshold` SAN names, before
    /// and after modification (the paper: 230 → 529 above 250).
    pub fn sites_above(&self, threshold: u64) -> (u64, u64) {
        let before = self
            .per_site
            .iter()
            .filter(|&&(e, _)| e as u64 > threshold)
            .count() as u64;
        let after = self
            .per_site
            .iter()
            .filter(|&&(_, i)| i as u64 > threshold)
            .count() as u64;
        (before, after)
    }

    /// Table 8: top-`k` SAN sizes by site count, measured vs ideal.
    pub fn table8(&self, k: usize) -> (Table8Side, Table8Side) {
        let mut measured = self.existing.ranked();
        measured.truncate(k);
        let mut ideal = self.ideal.ranked();
        ideal.truncate(k);
        (measured, ideal)
    }
}

/// Table 9 accumulator: for each hosting provider, which third-party
/// hostnames would most often need adding to its customers' certs.
#[derive(Default)]
pub struct EffectiveChanges {
    per_provider: HashMap<String, ProviderChanges>,
}

#[derive(Default)]
struct ProviderChanges {
    sites: u64,
    hostnames: TopK<DnsName>,
}

impl EffectiveChanges {
    /// New accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a site hosted by `provider` and the hostnames its plan
    /// adds.
    pub fn add(&mut self, provider: &str, plan: &CertPlan) {
        // A crawl names a dozen providers: look the label up borrowed,
        // and own it only the first time it is seen.
        if !self.per_provider.contains_key(provider) {
            self.per_provider
                .insert(provider.to_string(), ProviderChanges::default());
        }
        let p = self
            .per_provider
            .get_mut(provider)
            .expect("present or just inserted");
        p.sites += 1;
        for h in &plan.additions {
            p.hostnames.add_ref_n(h, 1);
        }
    }

    /// Fold a shard's accumulator into this one; all fields are
    /// commutative counters, so any merge order gives the same table.
    pub fn merge(&mut self, other: EffectiveChanges) {
        for (provider, changes) in other.per_provider {
            let p = self.per_provider.entry(provider).or_default();
            p.sites += changes.sites;
            p.hostnames.merge(&changes.hostnames);
        }
    }

    /// Table 9 rows: `(provider, site_count, top-k hostnames with the
    /// count and percent-of-provider-sites using each)`.
    pub fn table9(&self, k: usize) -> Vec<Table9Row> {
        let mut rows: Vec<Table9Row> = self
            .per_provider
            .iter()
            .map(|(name, p)| {
                let hosts = p
                    .hostnames
                    .top(k)
                    .into_iter()
                    .map(|e| {
                        let pct = if p.sites == 0 {
                            0.0
                        } else {
                            e.count as f64 / p.sites as f64 * 100.0
                        };
                        (e.key, e.count, pct)
                    })
                    .collect();
                (name.clone(), p.sites, hosts)
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;
    use origin_tls::CertificateBuilder;
    use origin_web::{ContentType, Resource};

    fn page() -> Page {
        let mut p = Page::new(1, name("site.com"), 1_000);
        p.push(
            name("static.site.com"),
            Resource::new("/a.css", ContentType::Css, 10),
        );
        p.push(
            name("cdnjs.cloudflare.com"),
            Resource::new("/x.js", ContentType::Javascript, 10),
        );
        p.push(
            name("fonts.gstatic.com"),
            Resource::new("/f.woff2", ContentType::Woff2, 10),
        );
        p
    }

    /// site.com + static.site.com + cdnjs are "same provider";
    /// fonts.gstatic.com is not.
    fn same_provider(a: &DnsName, b: &DnsName) -> bool {
        let group = |h: &DnsName| {
            if h.as_str().contains("site.com") || h.as_str().contains("cloudflare") {
                1
            } else {
                2
            }
        };
        group(a) == group(b)
    }

    #[test]
    fn plan_adds_missing_same_provider_hosts() {
        let cert = CertificateBuilder::new(name("site.com"))
            .san(name("*.site.com"))
            .build();
        let plan = plan_site(&page(), Some(&cert), same_provider);
        // static.site.com is covered by the wildcard; cdnjs is same
        // provider but absent; fonts.gstatic.com is another provider.
        assert_eq!(plan.additions, vec![name("cdnjs.cloudflare.com")]);
        assert_eq!(plan.existing_sans, 2);
        assert_eq!(plan.ideal_sans(), 3);
        assert!(!plan.unchanged());
    }

    #[test]
    fn covered_site_needs_nothing() {
        let cert = CertificateBuilder::new(name("site.com"))
            .san(name("*.site.com"))
            .san(name("cdnjs.cloudflare.com"))
            .build();
        let plan = plan_site(&page(), Some(&cert), same_provider);
        assert!(plan.unchanged());
    }

    #[test]
    fn san_less_cert() {
        let plan = plan_site(&page(), None, same_provider);
        assert_eq!(plan.existing_sans, 0);
        // static + cdnjs both need adding (nothing is covered).
        assert_eq!(plan.additions.len(), 2);
    }

    #[test]
    fn duplicate_hosts_deduped() {
        let mut p = page();
        p.push(
            name("cdnjs.cloudflare.com"),
            Resource::new("/y.js", ContentType::Javascript, 10),
        );
        let cert = CertificateBuilder::new(name("site.com"))
            .san(name("*.site.com"))
            .build();
        let plan = plan_site(&p, Some(&cert), same_provider);
        assert_eq!(plan.additions.len(), 1);
    }

    #[test]
    fn summary_statistics() {
        let mut s = PlanSummary::default();
        let cert = CertificateBuilder::new(name("site.com"))
            .san(name("*.site.com"))
            .build();
        let changed = plan_site(&page(), Some(&cert), same_provider);
        let full_cert = CertificateBuilder::new(name("site.com"))
            .san(name("*.site.com"))
            .san(name("cdnjs.cloudflare.com"))
            .build();
        let unchanged = plan_site(&page(), Some(&full_cert), same_provider);
        s.add(&changed);
        s.add(&unchanged);
        assert_eq!(s.total_sites, 2);
        assert_eq!(s.unchanged_fraction(), 0.5);
        assert_eq!(s.within_changes(0), 0.5);
        assert_eq!(s.within_changes(10), 1.0);
        let (before, after) = s.sites_above(2);
        assert_eq!(before, 1); // the 3-SAN cert
        assert_eq!(after, 2);
        let (cdf_e, cdf_i) = s.figure4();
        assert_eq!(cdf_e.len(), 2);
        assert!(cdf_i.median().unwrap() >= cdf_e.median().unwrap());
        // Figure 5 sorted descending by existing size.
        let f5 = s.figure5();
        assert!(f5[0].0 >= f5[1].0);
    }

    #[test]
    fn summary_merge_matches_sequential_add() {
        let cert = CertificateBuilder::new(name("site.com"))
            .san(name("*.site.com"))
            .build();
        let changed = plan_site(&page(), Some(&cert), same_provider);
        let san_less = plan_site(&page(), None, same_provider);

        let mut seq = PlanSummary::default();
        seq.add(&changed);
        seq.add(&san_less);
        seq.add(&changed);

        let mut lo = PlanSummary::default();
        lo.add(&changed);
        lo.add(&san_less);
        let mut hi = PlanSummary::default();
        hi.add(&changed);
        let mut merged = PlanSummary::default();
        merged.merge(lo);
        merged.merge(hi);

        assert_eq!(merged.total_sites, seq.total_sites);
        assert_eq!(merged.per_site, seq.per_site);
        assert_eq!(merged.san_less_sites, seq.san_less_sites);
        assert_eq!(
            merged.san_less_needing_changes,
            seq.san_less_needing_changes
        );
        assert_eq!(merged.table8(5), seq.table8(5));
        assert_eq!(merged.figure5(), seq.figure5());

        // x ⊕ empty == x.
        let mut alone = PlanSummary::default();
        alone.add(&changed);
        let rows = alone.table8(5);
        alone.merge(PlanSummary::default());
        assert_eq!(alone.table8(5), rows);
        assert_eq!(alone.total_sites, 1);
    }

    #[test]
    fn effective_changes_merge_matches_sequential_add() {
        let cert = CertificateBuilder::new(name("site.com"))
            .san(name("*.site.com"))
            .build();
        let plan = plan_site(&page(), Some(&cert), same_provider);

        let mut seq = EffectiveChanges::new();
        seq.add("Cloudflare", &plan);
        seq.add("Fastly", &plan);
        seq.add("Cloudflare", &plan);

        let mut lo = EffectiveChanges::new();
        lo.add("Cloudflare", &plan);
        lo.add("Fastly", &plan);
        let mut hi = EffectiveChanges::new();
        hi.add("Cloudflare", &plan);
        let mut merged = EffectiveChanges::new();
        merged.merge(lo);
        merged.merge(hi);
        assert_eq!(merged.table9(5), seq.table9(5));

        // empty ⊕ x == x.
        let mut from_empty = EffectiveChanges::new();
        let mut x = EffectiveChanges::new();
        x.add("Akamai", &plan);
        let rows = x.table9(5);
        from_empty.merge(x);
        assert_eq!(from_empty.table9(5), rows);
    }

    #[test]
    fn effective_changes_table9() {
        let mut e = EffectiveChanges::new();
        let cert = CertificateBuilder::new(name("site.com"))
            .san(name("*.site.com"))
            .build();
        let plan = plan_site(&page(), Some(&cert), same_provider);
        e.add("Cloudflare", &plan);
        e.add("Cloudflare", &plan);
        let rows = e.table9(5);
        assert_eq!(rows.len(), 1);
        let (provider, sites, hosts) = &rows[0];
        assert_eq!(provider, "Cloudflare");
        assert_eq!(*sites, 2);
        assert_eq!(hosts[0].0.as_str(), "cdnjs.cloudflare.com");
        assert_eq!(hosts[0].1, 2);
        assert_eq!(hosts[0].2, 100.0);
    }

    #[test]
    fn insecure_hosts_excluded() {
        let mut p = page();
        let mut r = Resource::new("/p.gif", ContentType::Gif, 5);
        r.secure = false;
        p.push(name("plain.site.com"), r);
        let plan = plan_site(&p, None, same_provider);
        assert!(!plan.additions.contains(&name("plain.site.com")));
    }
}
