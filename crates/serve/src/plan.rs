//! Site serving plans.
//!
//! The crawl materializes a full `Page` per visit and
//! walks its resource tree through the browser loader. At serving
//! rates that is the wrong trade: the coalescing outcome of a visit is
//! a pure function of the site's *host topology* (which hosts, which
//! edges, which coalescing keys under each arm), so we compile that
//! topology once per site into a flat [`SitePlan`] and replay it per
//! visit with zero per-visit allocation. `O(sites)` memory, built
//! before serving starts, shared read-only by every worker shard.

use origin_netsim::hash::splitmix64;
use origin_netsim::link::LINK_CLASSES;
use origin_webgen::dataset::ServiceRef;
use origin_webgen::{Dataset, SiteConfig};

/// One host's serving profile within a site plan: 24 bytes, since a
/// plan set holds one per host of every successful rank.
#[derive(Debug, Clone, Copy)]
pub struct HostPlan {
    /// Coalescing key when the terminating edge does NOT advertise
    /// ORIGIN (per-host / per-cert connections).
    pub control_key: u32,
    /// Coalescing key when it does (provider-wide ORIGIN set).
    pub origin_key: u32,
    /// Terminating edge — the unit of rollout assignment and of the
    /// session pool's per-edge cap.
    pub edge: u32,
    /// Requests this host serves per visit: at most its page's, which
    /// webgen clamps to [`origin_webgen::dist::MAX_REQUESTS_PER_PAGE`].
    pub requests: u16,
    /// Bytes this host serves per visit.
    pub bytes: u64,
    /// Link class: index into [`LINK_CLASSES`] (RTT ms, Mbps).
    pub link_class: u8,
}

impl HostPlan {
    /// Round-trip time to this host, µs.
    pub fn rtt_us(&self) -> u64 {
        (LINK_CLASSES[self.link_class as usize].0 * 1_000.0) as u64
    }

    /// Whether this is one of the site's own hosts (root or shard)
    /// rather than a third-party service.
    pub fn is_first_party(&self) -> bool {
        self.control_key & FP_BIT != 0
    }

    /// Transfer time for this host's bytes at link bandwidth, µs.
    pub fn transfer_us(&self) -> u64 {
        (self.bytes as f64 * 8.0 / LINK_CLASSES[self.link_class as usize].1) as u64
    }
}

/// A compiled site: everything a visit needs, flat and allocation-free
/// to replay.
#[derive(Debug, Clone)]
pub struct SitePlan {
    /// Tranco rank of the site.
    pub rank: u32,
    /// Root + shards + services, in deterministic order (root first),
    /// at exact size.
    pub hosts: Box<[HostPlan]>,
    /// The provider edge whose rollout state decides this site's A/B
    /// arm (`None` = no provider involvement, always control).
    pub arm_edge: Option<u32>,
    /// Connections a cold visit needs under ideal IP coalescing.
    pub model_ip_tls: u32,
    /// Connections a cold visit needs under ideal ORIGIN coalescing.
    pub model_origin_tls: u32,
    /// Total requests per visit.
    pub total_requests: u32,
}

// Key-space layout (disjoint by construction):
//   named service i            ->                 i   (i < 2^24)
//   provider ORIGIN set p      ->  0x2000_0000 | p
//   tail service i             ->  0x4000_0000 | i
//   first-party of rank r      ->  0x8000_0000 | r·16 (+1+j per shard)
const PROVIDER_BIT: u32 = 0x2000_0000;
const TAIL_BIT: u32 = 0x4000_0000;
const FP_BIT: u32 = 0x8000_0000;

/// Compile one site. Pure in the site config — no RNG draws — so the
/// plan set is identical on every worker and every run.
pub fn compile_site(site: &SiteConfig) -> SitePlan {
    let rank = site.rank;
    let fp_base = FP_BIT | (rank * 16);
    let fp_edge = match site.provider {
        Some(p) => p as u32,
        None => FP_BIT | rank,
    };
    let fp_origin_key = match site.provider {
        Some(p) => PROVIDER_BIT | p as u32,
        None => fp_base,
    };
    // Distinct-connection counting for the ideal models uses a tiny
    // sorted scratch (host counts are ~tens); transient, build-time
    // only.
    let mut ip_keys: Vec<u64> = Vec::new();
    let mut origin_keys: Vec<u64> = Vec::new();
    let note = |set: &mut Vec<u64>, k: u64| {
        if !set.contains(&k) {
            set.push(k);
        }
    };

    let n_fp_hosts = 1 + site.shard_hosts.len();
    let n_hosts = n_fp_hosts + site.services.len();
    let total_requests = site.n_requests.max(1);
    let base_req = total_requests / n_hosts as u32;
    let rem = total_requests as usize % n_hosts;
    let requests_for = |i: usize| {
        u16::try_from(base_req + u32::from(i < rem)).expect("a page's requests fit 16 bits")
    };

    let mut hosts = Vec::with_capacity(n_hosts);
    let mut arm_edge = site.provider.map(|p| p as u32);
    for j in 0..n_fp_hosts {
        let control_key = if site.shards_share_ip {
            fp_base
        } else {
            fp_base + j as u32
        };
        // Under ideal IP coalescing first-party hosts merge only when
        // the shards share the root's address set; under ideal ORIGIN
        // the site's cert covers all of them regardless.
        note(&mut ip_keys, u64::from(control_key));
        note(&mut origin_keys, u64::from(fp_origin_key));
        let link_class = if site.provider.is_some() {
            0
        } else {
            1 + (site.asn % 2) as u8
        };
        let requests = requests_for(j);
        hosts.push(HostPlan {
            control_key,
            origin_key: fp_origin_key,
            edge: fp_edge,
            requests,
            bytes: host_bytes(site.page_seed, j, requests),
            link_class,
        });
    }
    for (k, svc) in site.services.iter().enumerate() {
        let i = n_fp_hosts + k;
        let (control_key, origin_key, edge, link_class) = match svc {
            ServiceRef::Named(s) => {
                let p = svc.provider().expect("named services have a provider") as u32;
                if arm_edge.is_none() {
                    arm_edge = Some(p);
                }
                (u32::from(*s), PROVIDER_BIT | p, p, 0u8)
            }
            ServiceRef::Tail(t) => {
                let key = TAIL_BIT | u32::from(*t);
                (key, key, key, 1 + (t % 2) as u8)
            }
        };
        // Provider-hosted services share the provider's edge address,
        // so ideal IP already merges them; ORIGIN matches that and
        // additionally pulls in provider-hosted first parties.
        let ip_key = match svc.provider() {
            Some(p) => u64::from(PROVIDER_BIT | p as u32) << 32,
            None => u64::from(control_key),
        };
        note(&mut ip_keys, ip_key);
        note(&mut origin_keys, u64::from(origin_key));
        let requests = requests_for(i);
        hosts.push(HostPlan {
            control_key,
            origin_key,
            edge,
            requests,
            bytes: host_bytes(site.page_seed, i, requests),
            link_class,
        });
    }
    SitePlan {
        rank,
        hosts: hosts.into_boxed_slice(),
        arm_edge,
        model_ip_tls: ip_keys.len() as u32,
        model_origin_tls: origin_keys.len() as u32,
        total_requests,
    }
}

/// Deterministic per-host payload size: requests × a host-stable
/// object size in [16 KiB, 48 KiB).
fn host_bytes(page_seed: u64, host_idx: usize, requests: u16) -> u64 {
    let object = 16_384 + splitmix64(page_seed ^ (host_idx as u64) << 17) % 32_768;
    u64::from(requests) * object
}

/// Compile every successful site of a dataset, in rank order.
pub fn compile_dataset(dataset: &Dataset) -> Vec<SitePlan> {
    dataset.successful_sites().map(compile_site).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_webgen::DatasetConfig;

    fn small_dataset() -> Dataset {
        Dataset::generate(DatasetConfig {
            sites: 300,
            ..DatasetConfig::default()
        })
    }

    #[test]
    fn plans_cover_successful_sites_in_rank_order() {
        let ds = small_dataset();
        let plans = compile_dataset(&ds);
        assert_eq!(plans.len(), ds.successful_sites().count());
        assert!(plans.windows(2).all(|w| w[0].rank < w[1].rank));
        assert!(!plans.is_empty());
    }

    #[test]
    fn requests_are_conserved_across_hosts() {
        let ds = small_dataset();
        for plan in compile_dataset(&ds) {
            let sum: u32 = plan.hosts.iter().map(|h| u32::from(h.requests)).sum();
            assert_eq!(sum, plan.total_requests, "rank {}", plan.rank);
        }
    }

    #[test]
    fn origin_model_never_needs_more_connections_than_ip() {
        let ds = small_dataset();
        for plan in compile_dataset(&ds) {
            assert!(
                plan.model_origin_tls <= plan.model_ip_tls,
                "rank {}: origin {} > ip {}",
                plan.rank,
                plan.model_origin_tls,
                plan.model_ip_tls
            );
            assert!(plan.model_origin_tls >= 1);
        }
    }

    #[test]
    fn key_spaces_are_disjoint() {
        let ds = small_dataset();
        for plan in compile_dataset(&ds) {
            for h in &plan.hosts {
                let is_fp = h.control_key & FP_BIT != 0;
                let is_tail = h.control_key & TAIL_BIT != 0 && !is_fp;
                let is_named = h.control_key < PROVIDER_BIT;
                assert!(
                    is_fp || is_tail || is_named,
                    "rank {}: key {:#x} outside all spaces",
                    plan.rank,
                    h.control_key
                );
            }
        }
    }

    #[test]
    fn provider_hosted_sites_have_an_arm_edge() {
        let ds = small_dataset();
        let plans = compile_dataset(&ds);
        let with_arm = plans.iter().filter(|p| p.arm_edge.is_some()).count();
        assert!(with_arm > 0, "some sites must be rollout-eligible");
        for p in &plans {
            if let Some(e) = p.arm_edge {
                assert!(e < PROVIDER_BIT, "arm edge must be a provider edge");
            }
        }
    }

    /// The layout is pinned, and the request count fits 16 bits
    /// because webgen clamps a page's requests.
    #[test]
    fn host_plans_fit_24_bytes() {
        assert_eq!(std::mem::size_of::<HostPlan>(), 24);
        assert!(u16::try_from(origin_webgen::dist::MAX_REQUESTS_PER_PAGE).is_ok());
    }

    #[test]
    fn compile_is_deterministic() {
        let a = compile_dataset(&small_dataset());
        let b = compile_dataset(&small_dataset());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rank, y.rank);
            assert_eq!(x.model_ip_tls, y.model_ip_tls);
            assert_eq!(x.hosts.len(), y.hosts.len());
            for (hx, hy) in x.hosts.iter().zip(&y.hosts) {
                assert_eq!(hx.control_key, hy.control_key);
                assert_eq!(hx.bytes, hy.bytes);
            }
        }
    }
}
