//! The sample group and the Figure 6 certificate setup.

use crate::env::ADDRESS_PLAN_SITES;
use origin_dns::name::name;
use origin_dns::DnsName;
use origin_netsim::hash::FxHashMap;
use origin_netsim::SimRng;
use origin_tls::{Certificate, CertificateAuthority, CtLogSet, KnownIssuer};
use origin_web::{ContentType, FetchMode, Page, PathSpec, Protocol, Resource};
use std::sync::Arc;

/// The coalesced third-party domain. In the paper this is a domain
/// "used by ∼50% of the top 1M websites … over 5 Billion daily
/// requests" hosted by the deployment CDN — i.e. the cdnjs service.
pub const THIRD_PARTY_HOST: &str = "cdnjs.cloudflare.com";

/// The control group's decoy: a valid, unused domain with exactly the
/// same byte length as [`THIRD_PARTY_HOST`] so both treatment groups'
/// certificates grow by the same number of bytes (Figure 6).
pub const CONTROL_DECOY_HOST: &str = "cdnj0.cloudflare.com";

/// `[prefix, suffix]` around a first-party asset's number and a
/// third-party library's ([`PathSpec::Numbered`]).
static FIRST_PARTY_PATH: [&str; 2] = ["/assets/fp", ".bin"];
static THIRD_PARTY_PATH: [&str; 2] = ["/ajax/libs/lib", ".min.js"];

/// Treatment assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Treatment {
    /// Certificate (and, in §5.3, ORIGIN frame) carries the real
    /// third-party domain.
    Experiment,
    /// Certificate carries the equal-length decoy.
    Control,
}

/// One domain in the sample group.
#[derive(Debug, Clone)]
pub struct SampleSite {
    /// The customer domain.
    pub host: DnsName,
    /// Treatment arm.
    pub treatment: Treatment,
    /// The certificate currently served (reissued at setup); every
    /// connection to the site shares this handle.
    pub cert: Arc<Certificate>,
    /// How this page requests the third party. The §5.3 discovery:
    /// `crossorigin=anonymous` and XHR/fetch subresource requests do
    /// not coalesce.
    pub third_party_fetch: FetchMode,
    /// Number of third-party subresources the page requests.
    pub third_party_requests: u32,
    /// Per-site RNG seed for page materialization.
    pub page_seed: u64,
}

impl SampleSite {
    /// Build this site's page: root + a few first-party resources +
    /// its third-party requests.
    pub fn page(&self) -> Page {
        let mut page = Page::new(1, self.host.clone(), 12_000);
        self.page_into(&mut page, &name(THIRD_PARTY_HOST));
        page
    }

    /// [`SampleSite::page`] written over `page`, whatever it held: a
    /// measurement worker keeps one `Page`, so its host and resource
    /// tables keep their capacity from visit to visit. `third_party`
    /// is [`THIRD_PARTY_HOST`], parsed once by the caller.
    pub fn page_into(&self, page: &mut Page, third_party: &DnsName) {
        let mut rng = SimRng::seed_from_u64(self.page_seed);
        let n_fp = 3 + rng.index(6);
        // A tail of sites never fires the third-party tag from the
        // landing page (consent banners, lazy loading) — the source
        // of the paper's ~9%/6% zero-connection *control* visits.
        let tag_blocked = rng.chance(0.08);
        page.rank = 1;
        page.root_host = self.host.clone();
        page.legacy = false;
        page.h3 = false;
        page.hosts.clear();
        page.hosts.push(self.host.clone());
        page.resources.clear();
        page.resources
            .push(Resource::new("/", ContentType::Html, 12_000));
        for i in 0..n_fp {
            let ct = if i == 0 {
                ContentType::Css
            } else {
                ContentType::Javascript
            };
            let path = PathSpec::Numbered(&FIRST_PARTY_PATH, i as u32);
            page.resources
                .push(Resource::new(path, ct, 8_000 + i as u64 * 1_000));
        }
        if self.third_party_requests > 0 {
            page.hosts.push(third_party.clone());
        }
        for j in 0..self.third_party_requests {
            // Secondary requests occasionally go through a different
            // fetch path (a beacon via fetch() next to the script
            // tag), which lands in another connection pool partition.
            let fetch = if j > 0 && rng.chance(0.12) {
                FetchMode::XhrFetch
            } else {
                self.third_party_fetch
            };
            let path = PathSpec::Numbered(&THIRD_PARTY_PATH, j);
            let mut r = Resource::new(path, ContentType::Javascript, 15_000)
                .discovered_by(1)
                .fetch_mode(fetch);
            r.host = 1; // `page.hosts` is [the site, the third party]
            if tag_blocked {
                r.protocol = Protocol::NA;
            }
            page.resources.push(r);
        }
    }
}

/// The assembled sample group: the immutable §5 world. Everything
/// that is a function of the sample alone — sites, certificates, the
/// host index — is built here once; measurement workers borrow it.
pub struct SampleGroup {
    /// Sites in the study (after the subpage-only filter).
    pub sites: Vec<SampleSite>,
    /// Sites removed because only their subpages request the third
    /// party (the paper dropped 22%).
    pub removed_subpage_only: u32,
    /// CT logs that received the reissues.
    pub ct_logs: CtLogSet,
    /// The certificate [`THIRD_PARTY_HOST`] itself serves.
    pub(crate) third_party_cert: Arc<Certificate>,
    /// Host → position in `sites`.
    index: FxHashMap<DnsName, u32>,
}

impl SampleGroup {
    /// Build the sample: `n` candidate domains (paper: 5000), the
    /// subpage-only filter, random treatment assignment, and the
    /// equal-byte certificate reissue. Panics if `n` exceeds
    /// [`ADDRESS_PLAN_SITES`]: every site needs an address of its own.
    pub fn build(n: u32, rng: &mut SimRng) -> SampleGroup {
        assert!(
            n as usize <= ADDRESS_PLAN_SITES,
            "SampleGroup::build({n}): the deployment's address plan holds {ADDRESS_PLAN_SITES} sites"
        );
        let mut ca = CertificateAuthority::new(KnownIssuer::CloudflareEcc);
        let mut ct = CtLogSet::default_operators();
        let third_party = name(THIRD_PARTY_HOST);
        let decoy = name(CONTROL_DECOY_HOST);
        let mut sites = Vec::new();
        let mut index = FxHashMap::with_capacity_and_hasher(n as usize, Default::default());
        let mut removed = 0;
        for i in 0..n {
            // 22% of candidates only request the third party from
            // subpages; active measurement can't trigger those.
            if rng.chance(0.22) {
                removed += 1;
                continue;
            }
            let host = name(&format!("sample-{i:05}.example"));
            let treatment = if rng.chance(0.5) {
                Treatment::Experiment
            } else {
                Treatment::Control
            };
            let added = match treatment {
                Treatment::Experiment => third_party.clone(),
                Treatment::Control => decoy.clone(),
            };
            let cert = ca
                .issue(
                    host.clone(),
                    &[name(&format!("*.{host}")), added],
                    0,
                    &mut ct,
                )
                .expect("sample certs stay small");
            // Fetch-mode mix: most pages embed the third party as a
            // plain script; a tail uses XHR/fetch or anonymous mode
            // (the §5.3 obstruction).
            let u = rng.unit();
            let third_party_fetch = if u < 0.75 {
                FetchMode::Normal
            } else if u < 0.88 {
                FetchMode::XhrFetch
            } else {
                FetchMode::CorsAnonymous
            };
            index.insert(host.clone(), sites.len() as u32);
            sites.push(SampleSite {
                host,
                treatment,
                cert: Arc::new(cert),
                third_party_fetch,
                third_party_requests: 1 + rng.index(3) as u32,
                page_seed: rng.next_u64(),
            });
        }
        // Not one of the study's reissues: its own CA, its own logs.
        let mut logs = CtLogSet::default_operators();
        let third_party_cert = CertificateAuthority::new(KnownIssuer::CloudflareEcc)
            .issue(third_party, &[name("*.cloudflare.com")], 0, &mut logs)
            .expect("third-party cert");
        SampleGroup {
            sites,
            removed_subpage_only: removed,
            ct_logs: ct,
            third_party_cert: Arc::new(third_party_cert),
            index,
        }
    }

    /// Position in `sites` of the study site serving `host`.
    pub(crate) fn index_of(&self, host: &DnsName) -> Option<usize> {
        self.index.get(host).map(|&i| i as usize)
    }

    /// Sites in one arm.
    pub fn arm(&self, treatment: Treatment) -> impl Iterator<Item = &SampleSite> {
        self.sites.iter().filter(move |s| s.treatment == treatment)
    }

    /// Verify the Figure 6 integrity property: every certificate in
    /// both arms grew by the same number of SAN bytes.
    pub fn equal_byte_check(&self) -> bool {
        assert_eq!(THIRD_PARTY_HOST.len(), CONTROL_DECOY_HOST.len());
        let mut sizes: Vec<u64> = Vec::new();
        for s in &self.sites {
            let added: u64 = s
                .cert
                .listed_names()
                .filter(|n| n.as_str() == THIRD_PARTY_HOST || n.as_str() == CONTROL_DECOY_HOST)
                .map(|n| n.wire_len() as u64 + 2)
                .sum();
            sizes.push(added);
        }
        sizes.windows(2).all(|w| w[0] == w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> SampleGroup {
        let mut rng = SimRng::seed_from_u64(0x5A11);
        SampleGroup::build(1_000, &mut rng)
    }

    #[test]
    fn decoy_matches_length() {
        assert_eq!(THIRD_PARTY_HOST.len(), CONTROL_DECOY_HOST.len());
        assert_ne!(THIRD_PARTY_HOST, CONTROL_DECOY_HOST);
    }

    #[test]
    fn subpage_filter_removes_about_22_percent() {
        let g = group();
        let frac = g.removed_subpage_only as f64 / 1_000.0;
        assert!((0.18..=0.26).contains(&frac), "removed {frac}");
    }

    #[test]
    fn arms_are_roughly_balanced() {
        let g = group();
        let exp = g.arm(Treatment::Experiment).count();
        let ctl = g.arm(Treatment::Control).count();
        let ratio = exp as f64 / (exp + ctl) as f64;
        assert!((0.45..=0.55).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn certificates_cover_their_arm_domain() {
        let g = group();
        for s in &g.sites {
            assert!(s.cert.covers(&s.host));
            match s.treatment {
                Treatment::Experiment => {
                    assert!(s.cert.covers(&name(THIRD_PARTY_HOST)));
                    assert!(!s.cert.covers(&name(CONTROL_DECOY_HOST)));
                }
                Treatment::Control => {
                    assert!(s.cert.covers(&name(CONTROL_DECOY_HOST)));
                    assert!(!s.cert.covers(&name(THIRD_PARTY_HOST)));
                }
            }
        }
    }

    #[test]
    fn equal_byte_property_holds() {
        assert!(group().equal_byte_check());
    }

    #[test]
    fn reissues_land_in_ct_logs() {
        let g = group();
        // Every site's cert in all three logs.
        assert_eq!(g.ct_logs.total_entries(), g.sites.len() as u64 * 3);
    }

    #[test]
    fn pages_request_the_third_party() {
        let g = group();
        let s = &g.sites[0];
        let page = s.page();
        let tp = page
            .resources
            .iter()
            .filter(|r| page.host_of(r).as_str() == THIRD_PARTY_HOST)
            .count() as u32;
        assert_eq!(tp, s.third_party_requests);
        assert_eq!(page.host_of(&page.resources[0]), &s.host);
        // Deterministic regeneration.
        assert_eq!(s.page(), page);
    }

    /// Every `host` + path the group's pages render, pinned: the
    /// digest was recorded while `Resource` still carried the `String`
    /// that `page_into` formatted.
    #[test]
    fn rendered_paths_are_pinned() {
        let g = group();
        let mut text = String::new();
        let mut path = String::new();
        for s in &g.sites {
            let page = s.page();
            for r in &page.resources {
                text.push_str(page.host_of(r).as_str());
                text.push_str(r.render_path(&page.hosts, &mut path));
                text.push('\n');
            }
        }
        assert_eq!(g.sites.len(), 785);
        assert_eq!(
            origin_netsim::hash::fnv1a64(text.as_bytes()),
            0x526a_9299_0237_92e4
        );
    }

    /// [`SampleSite::page`] as it was before `page_into` replaced it:
    /// builds every page from nothing, through [`Page::push`].
    fn page_oracle(site: &SampleSite) -> Page {
        let mut rng = SimRng::seed_from_u64(site.page_seed);
        let mut page = Page::new(1, site.host.clone(), 12_000);
        let n_fp = 3 + rng.index(6);
        for i in 0..n_fp {
            let ct = if i == 0 {
                ContentType::Css
            } else {
                ContentType::Javascript
            };
            page.push(
                site.host.clone(),
                Resource::new(
                    PathSpec::Numbered(&FIRST_PARTY_PATH, i as u32),
                    ct,
                    8_000 + i as u64 * 1_000,
                ),
            );
        }
        let tag_blocked = rng.chance(0.08);
        for j in 0..site.third_party_requests {
            let fetch = if j > 0 && rng.chance(0.12) {
                FetchMode::XhrFetch
            } else {
                site.third_party_fetch
            };
            let mut r = Resource::new(
                PathSpec::Numbered(&THIRD_PARTY_PATH, j),
                ContentType::Javascript,
                15_000,
            )
            .discovered_by(1)
            .fetch_mode(fetch);
            if tag_blocked {
                r.protocol = origin_web::Protocol::NA;
            }
            page.push(name(THIRD_PARTY_HOST), r);
        }
        page
    }

    /// A recycled page carries nothing over: one `Page` written by
    /// every site in order and then in reverse equals the page built
    /// from nothing each time.
    #[test]
    fn recycled_page_equals_fresh_page() {
        let g = group();
        let third_party = name(THIRD_PARTY_HOST);
        let fresh: Vec<Page> = g.sites.iter().map(page_oracle).collect();
        let mut page = Page::new(9, third_party.clone(), 1);
        page.legacy = true;
        page.h3 = true;
        // What each kind of leak needs to show: the slot kinds that
        // followed each other somewhere in the two sweeps.
        let (mut shrank, mut unblocked, mut xhr_to_normal, mut tp_to_fp) = (0, 0, 0, 0);
        for i in (0..g.sites.len()).chain((0..g.sites.len()).rev()) {
            let before = page.clone();
            g.sites[i].page_into(&mut page, &third_party);
            assert_eq!(page, fresh[i], "site {i} after {}", before.root_host);
            assert_eq!(g.sites[i].page(), fresh[i]);
            shrank += (page.resources.len() < before.resources.len()) as u32;
            for (new, old) in page.resources.iter().zip(&before.resources) {
                unblocked += (old.protocol == Protocol::NA && new.protocol == Protocol::H2) as u32;
                xhr_to_normal += (old.fetch_mode == FetchMode::XhrFetch
                    && new.fetch_mode == FetchMode::Normal) as u32;
                tp_to_fp += (old.discovered_by.is_some() && new.discovered_by.is_none()) as u32;
            }
        }
        assert!(shrank > 100, "large page then small: {shrank}");
        assert!(unblocked > 100, "NA slot reused as H2: {unblocked}");
        assert!(
            xhr_to_normal > 100,
            "XhrFetch slot reused as Normal: {xhr_to_normal}"
        );
        assert!(
            tp_to_fp > 100,
            "third-party slot reused first-party: {tp_to_fp}"
        );
    }

    #[test]
    fn fetch_mode_mix_present() {
        let g = group();
        let normal = g
            .sites
            .iter()
            .filter(|s| s.third_party_fetch == FetchMode::Normal)
            .count();
        let frac = normal as f64 / g.sites.len() as f64;
        assert!((0.63..=0.77).contains(&frac), "normal fetch share {frac}");
    }
}
