//! The deployment environment the browsers load sample pages against.

use crate::sample::{SampleGroup, SampleSite, Treatment, CONTROL_DECOY_HOST, THIRD_PARTY_HOST};
use origin_browser::WebEnv;
use origin_dns::{DnsName, QueryAnswer};
use origin_h2::OriginSet;
use origin_netsim::{LinkProfile, SimDuration, SimRng, SimTime};
use origin_telemetry::trace::Tracer;
use origin_tls::Certificate;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Which §5 deployment is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentMode {
    /// Pre-deployment: sample domains and the third party on their
    /// ordinary separate addresses, no ORIGIN frames.
    Baseline,
    /// §5.2: DNS aligned — one single address serves all sample
    /// domains *and* the third party (limited to two datacenters in
    /// the paper; address alignment is what matters here).
    IpAligned,
    /// §5.3: DNS reverted; sample group moved to an isolated anycast
    /// address; edges send ORIGIN frames matching each certificate.
    OriginFrames,
}

/// One measurement worker's view of the §5 world under a deployment
/// mode. Sites, certificates and the host index are the group's and
/// are borrowed; the view itself holds only the mode, its three fixed
/// DNS answers and (§5.3) its two origin sets, so making one costs the
/// same for any group.
pub struct CdnEnv<'a> {
    group: &'a SampleGroup,
    /// Active deployment mode.
    pub mode: DeploymentMode,
    /// The third party's ordinary address (baseline and §5.3).
    third_party: Arc<[IpAddr]>,
    /// The shared address of the §5.2 alignment.
    shared: Arc<[IpAddr]>,
    /// The isolated anycast address of the §5.3 deployment.
    anycast: Arc<[IpAddr]>,
    /// What the §5.3 edges advertise beside the connected host, for an
    /// experiment and for a control site; `None` outside §5.3.
    origin_sets: Option<[Arc<OriginSet>; 2]>,
}

/// The deployment CDN's AS (Cloudflare in the paper's Table 2).
pub const CDN_ASN: u32 = 13335;

/// Study sites the ordinary address plan holds, 200 to a /24:
/// 104.16.1–255.x, then 104.20.0.x to 104.255.255.x.
pub const ADDRESS_PLAN_SITES: usize = (255 + 236 * 256) * 200;

/// The ordinary (baseline) address of study site `i`, one per site.
/// 104.17–104.19 are skipped: they hold the third party and the two
/// deployment addresses.
fn ordinary_ip(i: usize) -> IpAddr {
    let block = i / 200;
    let (b, c) = match block.checked_sub(255) {
        None => (16, 1 + block),
        Some(over) => (20 + over / 256, over % 256),
    };
    let b = u8::try_from(b).expect("SampleGroup::build bounds the address plan");
    IpAddr::V4(Ipv4Addr::new(104, b, c as u8, (i % 200) as u8))
}

impl<'a> CdnEnv<'a> {
    /// A view of `group` under `mode`.
    pub fn new(group: &'a SampleGroup, mode: DeploymentMode) -> Self {
        let answer = |b| Arc::from([IpAddr::V4(Ipv4Addr::new(104, b, 0, 1))]);
        CdnEnv {
            group,
            mode,
            third_party: answer(17),
            shared: answer(18),
            anycast: answer(19),
            origin_sets: (mode == DeploymentMode::OriginFrames).then(|| {
                [THIRD_PARTY_HOST, CONTROL_DECOY_HOST]
                    .map(|host| Arc::new(OriginSet::from_hosts([host])))
            }),
        }
    }

    fn site_of(&self, host: &DnsName) -> Option<&SampleSite> {
        self.group.index_of(host).map(|i| &self.group.sites[i])
    }

    /// The DNS answer for a hostname under the current mode.
    fn answer(&self, host: &DnsName) -> Option<Arc<[IpAddr]>> {
        let site = if host.as_str() == THIRD_PARTY_HOST {
            None
        } else {
            Some(self.group.index_of(host)?)
        };
        Some(match (self.mode, site) {
            (DeploymentMode::IpAligned, _) => self.shared.clone(),
            (_, None) => self.third_party.clone(),
            (DeploymentMode::OriginFrames, Some(_)) => self.anycast.clone(),
            (DeploymentMode::Baseline, Some(i)) => Arc::from([ordinary_ip(i)]),
        })
    }
}

impl WebEnv for CdnEnv<'_> {
    fn resolve(
        &mut self,
        host: &DnsName,
        _now: SimTime,
        rng: &mut SimRng,
        _tracer: Option<&mut Tracer>,
    ) -> Option<QueryAnswer> {
        Some(QueryAnswer {
            addresses: self.answer(host)?,
            from_cache: false,
            latency: SimDuration::from_millis_f64(12.0 + rng.exponential(8.0)),
        })
    }

    fn cert_shared(&self, host: &DnsName) -> Option<Arc<Certificate>> {
        if host.as_str() == THIRD_PARTY_HOST {
            return Some(self.group.third_party_cert.clone());
        }
        self.site_of(host).map(|s| s.cert.clone())
    }

    fn asn_of_ip(&self, _ip: &IpAddr) -> u32 {
        CDN_ASN
    }

    fn colocated(&self, _conn_host: &DnsName, _new_host: &DnsName) -> bool {
        // One CDN serves the whole sample; edges are configured for
        // every sample authority, so no coalescing attempt 421s.
        true
    }

    fn origin_set_for(&self, host: &DnsName) -> Option<Arc<OriginSet>> {
        // ORIGIN frames are "populated with either the third party or
        // control domain to match the sample's certificate" (§5.3),
        // beside the connected host every set implies.
        let [experiment, control] = self.origin_sets.as_ref()?;
        Some(match self.site_of(host)?.treatment {
            Treatment::Experiment => experiment.clone(),
            Treatment::Control => control.clone(),
        })
    }

    fn request_facts(&self, _host: &DnsName) -> (u32, LinkProfile) {
        (CDN_ASN, LinkProfile::new(22.0, 60.0).with_jitter(0.25))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CdnEnv<'_> {
        /// The address a hostname resolves to under the current mode.
        fn address_of(&self, host: &DnsName) -> Option<IpAddr> {
            self.answer(host).map(|a| a[0])
        }
    }
    use origin_dns::name::name;

    fn group() -> SampleGroup {
        let mut rng = SimRng::seed_from_u64(7);
        SampleGroup::build(200, &mut rng)
    }

    #[test]
    fn baseline_separate_addresses() {
        let g = group();
        let env = CdnEnv::new(&g, DeploymentMode::Baseline);
        let site = &g.sites[0];
        let a = env.address_of(&site.host).unwrap();
        let tp = env.address_of(&name(THIRD_PARTY_HOST)).unwrap();
        assert_ne!(a, tp);
    }

    #[test]
    fn ip_aligned_shares_one_address() {
        let g = group();
        let env = CdnEnv::new(&g, DeploymentMode::IpAligned);
        let a = env.address_of(&g.sites[0].host).unwrap();
        let b = env.address_of(&g.sites[1].host).unwrap();
        let tp = env.address_of(&name(THIRD_PARTY_HOST)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, tp);
    }

    #[test]
    fn origin_mode_reverts_dns_and_isolates_sample() {
        let g = group();
        let env = CdnEnv::new(&g, DeploymentMode::OriginFrames);
        let a = env.address_of(&g.sites[0].host).unwrap();
        let b = env.address_of(&g.sites[1].host).unwrap();
        let tp = env.address_of(&name(THIRD_PARTY_HOST)).unwrap();
        assert_eq!(a, b, "sample group on one isolated anycast address");
        assert_ne!(a, tp, "third party restored to its own addressing");
    }

    #[test]
    fn origin_sets_match_treatment() {
        let g = group();
        let env = CdnEnv::new(&g, DeploymentMode::OriginFrames);
        for s in &g.sites {
            let set = env
                .origin_set_for(&s.host)
                .expect("origin set in §5.3 mode");
            match s.treatment {
                Treatment::Experiment => {
                    assert!(set.allows_https_host(THIRD_PARTY_HOST));
                    assert!(!set.allows_https_host(CONTROL_DECOY_HOST));
                }
                Treatment::Control => {
                    assert!(set.allows_https_host(CONTROL_DECOY_HOST));
                    assert!(!set.allows_https_host(THIRD_PARTY_HOST));
                }
            }
        }
        // No ORIGIN frames outside §5.3.
        let env = CdnEnv::new(&g, DeploymentMode::IpAligned);
        assert!(env.origin_set_for(&g.sites[0].host).is_none());
    }

    /// The view computes what the per-environment maps used to store:
    /// every site, under every mode, answers as it did.
    #[test]
    fn every_site_answers_as_the_stored_maps_did() {
        let mut rng = SimRng::seed_from_u64(0x5A11);
        let g = SampleGroup::build(1_000, &mut rng);
        let third_party = name(THIRD_PARTY_HOST);
        let v4 = |b, c, d| IpAddr::V4(Ipv4Addr::new(104, b, c, d));
        for mode in [
            DeploymentMode::Baseline,
            DeploymentMode::IpAligned,
            DeploymentMode::OriginFrames,
        ] {
            let env = CdnEnv::new(&g, mode);
            for (i, s) in g.sites.iter().enumerate() {
                let expected = match mode {
                    DeploymentMode::Baseline => v4(16, 1 + (i / 200) as u8, (i % 200) as u8),
                    DeploymentMode::IpAligned => v4(18, 0, 1),
                    DeploymentMode::OriginFrames => v4(19, 0, 1),
                };
                assert_eq!(env.address_of(&s.host), Some(expected), "{mode:?} site {i}");
                let cert = env.cert_shared(&s.host).expect("sample cert");
                assert!(Arc::ptr_eq(&cert, &s.cert), "{mode:?} site {i}");
                let (own, other) = match s.treatment {
                    Treatment::Experiment => (THIRD_PARTY_HOST, CONTROL_DECOY_HOST),
                    Treatment::Control => (CONTROL_DECOY_HOST, THIRD_PARTY_HOST),
                };
                match env.origin_set_for(&s.host) {
                    Some(set) => {
                        assert_eq!(mode, DeploymentMode::OriginFrames);
                        // The connected host is implied, not listed.
                        assert_eq!(set.len(), 1);
                        assert!(set.allows_https_host(own) && !set.allows_https_host(other));
                    }
                    None => assert_ne!(mode, DeploymentMode::OriginFrames),
                }
            }
            let tp = match mode {
                DeploymentMode::IpAligned => v4(18, 0, 1),
                _ => v4(17, 0, 1),
            };
            assert_eq!(env.address_of(&third_party), Some(tp), "{mode:?}");
            assert!(env.origin_set_for(&third_party).is_none());
            for stranger in [
                "unrelated.example",
                "sample-99999.example",
                CONTROL_DECOY_HOST,
            ] {
                assert_eq!(env.address_of(&name(stranger)), None, "{mode:?} {stranger}");
                assert!(env.cert_shared(&name(stranger)).is_none());
            }
        }
    }

    /// Every study site the plan admits has an ordinary address of its
    /// own, clear of the three fixed ones, and the addresses the first
    /// 51,000 sites always had are unchanged. The third octet used to
    /// be `1 + (i / 200) as u8`: a debug-build panic at site 51,000
    /// and, in release, site k + 51,200 on site k's address.
    #[test]
    fn address_plan_carries_past_site_51_000() {
        let v4 = |b, c, d| IpAddr::V4(Ipv4Addr::new(104, b, c, d));
        assert_eq!(ordinary_ip(0), v4(16, 1, 0));
        assert_eq!(ordinary_ip(50_999), v4(16, 255, 199));
        assert_eq!(ordinary_ip(51_000), v4(20, 0, 0));
        assert_eq!(ordinary_ip(51_200), v4(20, 1, 0));
        assert_eq!(ordinary_ip(51_000 + 256 * 200), v4(21, 0, 0));
        assert_eq!(ordinary_ip(ADDRESS_PLAN_SITES - 1), v4(255, 255, 199));
        // One site per /24 (plus both ends of a few) is enough: the
        // last octet is `i % 200` within a block.
        let mut seen = std::collections::BTreeSet::new();
        for i in (0..ADDRESS_PLAN_SITES).step_by(200) {
            let IpAddr::V4(ip) = ordinary_ip(i) else {
                unreachable!()
            };
            let [a, b, c, d] = ip.octets();
            assert!(
                (a, d) == (104, 0) && !(17..=19).contains(&b),
                "site {i}: {ip}"
            );
            assert!(seen.insert((b, c)), "site {i} reuses {ip}'s /24");
        }
    }

    #[test]
    #[should_panic(expected = "address plan holds")]
    fn build_refuses_more_sites_than_addresses() {
        SampleGroup::build(ADDRESS_PLAN_SITES as u32 + 1, &mut SimRng::seed_from_u64(7));
    }

    #[test]
    fn unknown_hosts_do_not_resolve() {
        let g = group();
        let mut env = CdnEnv::new(&g, DeploymentMode::Baseline);
        let mut rng = SimRng::seed_from_u64(1);
        assert!(env
            .resolve(&name("unrelated.example"), SimTime::ZERO, &mut rng, None)
            .is_none());
    }

    #[test]
    fn third_party_cert_covers_itself() {
        let g = group();
        let env = CdnEnv::new(&g, DeploymentMode::Baseline);
        let c = env.cert_shared(&name(THIRD_PARTY_HOST)).unwrap();
        assert!(c.covers(&name(THIRD_PARTY_HOST)));
    }
}
