//! Calibrated distribution samplers.
//!
//! Every constant here is tied to a published marginal; the
//! `calibration` integration test asserts the generated dataset stays
//! inside tolerance bands of the paper's numbers (EXPERIMENTS.md
//! records the final values).

use origin_netsim::rng::Zipf;
use origin_netsim::{exact, SimRng};
use origin_web::Protocol;

/// The most subrequests a page is generated with.
pub const MAX_REQUESTS_PER_PAGE: u32 = 900;

/// Per-page subrequest count: log-normal with the paper's median 81 /
/// mean 113 (σ chosen so mean/median = e^(σ²/2) ≈ 1.395 → σ ≈ 0.816),
/// clamped to `[3, MAX_REQUESTS_PER_PAGE]`.
pub fn sample_request_count(rng: &mut SimRng) -> u32 {
    let x = rng.log_normal(81.0, 0.816);
    (x.round() as u32).clamp(3, MAX_REQUESTS_PER_PAGE)
}

/// Number of distinct ASes a page touches (Figure 1): point masses at
/// 1 (6.5%) and 2 (14%) with a log-normal body whose median lands the
/// CDF's 50% crossing at 6 ASes and whose tail reaches ~10².
pub fn sample_as_count(rng: &mut SimRng, request_count: u32) -> u32 {
    let u = rng.unit();
    if u < 0.065 {
        return 1;
    }
    if u < 0.205 {
        return 2;
    }
    // Bigger pages touch more ASes; couple the median mildly to the
    // request count around the global median of 81.
    let scale = exact::pow(request_count as f64 / 81.0, 0.35);
    let x = rng.log_normal(6.6 * scale, 0.62);
    (x.round() as u32).clamp(3, 140)
}

/// Number of sharded first-party subdomains (beyond the root host).
/// Sharding was an HTTP/1.1-era optimization (§1); most sites carry
/// one to three shards.
pub fn sample_shard_count(rng: &mut SimRng) -> u32 {
    let u = rng.unit();
    match () {
        _ if u < 0.30 => 0,
        _ if u < 0.62 => 1,
        _ if u < 0.85 => 2,
        _ if u < 0.96 => 3,
        _ => 4,
    }
}

/// Existing certificate SAN-entry counts (Table 8 "Measured" column,
/// normalized to its top-10 plus a long tail). Returns the number of
/// DNS SAN entries in the site's current certificate. `tail` is
/// [`san_tail_law`].
pub fn sample_existing_san_count(rng: &mut SimRng, tail: &Zipf) -> u32 {
    // (count, probability) from Table 8 counts / 315,796, with the
    // remaining ~4.8% spread over a tail reaching the >250 regime
    // (230 sites above 250 in the paper).
    const POINTS: [(u32, f64); 10] = [
        (2, 0.4529),
        (3, 0.2315),
        (1, 0.0959),
        (0, 0.0352),
        (8, 0.0264),
        (4, 0.0229),
        (9, 0.0202),
        (6, 0.0131),
        (5, 0.0100),
        (10, 0.0081),
    ];
    let mut u = rng.unit();
    for (v, p) in POINTS {
        if u < p {
            return v;
        }
        u -= p;
    }
    // Long tail: 11 .. ~2000, Zipf-flavored, ≲0.1% above 250 (the
    // paper saw 230/315,796 sites above 250).
    rng.zipf(tail) as u32 + 11
}

/// The rank law of [`sample_existing_san_count`]'s long tail.
pub fn san_tail_law() -> Zipf {
    Zipf::new(1940, 1.8)
}

/// Protocol negotiated for requests to a host. Request-level marginals
/// (Table 3): H2 73.64%, H1.1 19.09%, H3 0.34%, QUIC 0.07%, H1.0
/// 0.03%, H0.9 trace, N/A 6.8%. N/A is drawn per-request (failed
/// requests), so the per-host draw renormalizes the rest.
pub fn sample_host_protocol(rng: &mut SimRng, big_provider: bool) -> Protocol {
    // CDN-hosted services are H2 nearly always; the H1.1 share lives
    // in the self-hosted tail.
    let u = rng.unit();
    if big_provider {
        match () {
            _ if u < 0.955 => Protocol::H2,
            _ if u < 0.990 => Protocol::H11,
            _ if u < 0.9945 => Protocol::H3Q050,
            _ if u < 0.9955 => Protocol::Quic,
            _ => Protocol::H11,
        }
    } else {
        match () {
            _ if u < 0.62 => Protocol::H2,
            _ if u < 0.992 => Protocol::H11,
            _ if u < 0.9924 => Protocol::H10,
            _ if u < 0.99244 => Protocol::H09,
            _ => Protocol::H11,
        }
    }
}

/// Probability a request record has no protocol (aborted/failed):
/// Table 3's 6.8% "N/A" row.
pub const REQUEST_NA_RATE: f64 = 0.068;

/// Probability a request is plain HTTP (Table 3: 1.47% insecure).
pub const REQUEST_INSECURE_RATE: f64 = 0.0147;

/// Crawl success rate per rank bucket (Table 1): non-200s and
/// CAPTCHAs removed ~36.5% of sites, mildly rank-dependent.
pub fn success_rate_for_rank(rank: u32, tranco_total: u32) -> f64 {
    let frac = rank as f64 / tranco_total.max(1) as f64; // 0 = most popular
                                                         // 68.2% at the top bucket declining to ~60.2% at the bottom.
    0.682 - 0.08 * frac
}

/// Server think time (HAR "wait"), ms: log-normal around 55 ms
/// (folds in redirect chains and backend work).
pub fn sample_wait_ms(rng: &mut SimRng) -> f64 {
    rng.log_normal(55.0, 0.8).clamp(4.0, 4_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xCAFE)
    }

    fn median_u32(mut xs: Vec<u32>) -> u32 {
        xs.sort_unstable();
        xs[xs.len() / 2]
    }

    #[test]
    fn request_count_median_near_81() {
        let mut r = rng();
        let xs: Vec<u32> = (0..20_000).map(|_| sample_request_count(&mut r)).collect();
        let med = median_u32(xs.clone());
        assert!((75..=87).contains(&med), "median={med}");
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
        assert!((100.0..=128.0).contains(&mean), "mean={mean}");
    }

    #[test]
    fn as_count_point_masses_and_median() {
        let mut r = rng();
        let xs: Vec<u32> = (0..20_000).map(|_| sample_as_count(&mut r, 81)).collect();
        let ones = xs.iter().filter(|&&x| x == 1).count() as f64 / xs.len() as f64;
        let twos = xs.iter().filter(|&&x| x == 2).count() as f64 / xs.len() as f64;
        assert!((0.05..=0.08).contains(&ones), "P(1)={ones}");
        assert!((0.12..=0.16).contains(&twos), "P(2)={twos}");
        let med = median_u32(xs);
        assert!((5..=8).contains(&med), "median={med}");
    }

    #[test]
    fn san_count_top_is_two() {
        let (mut r, tail) = (rng(), san_tail_law());
        let xs: Vec<u32> = (0..50_000)
            .map(|_| sample_existing_san_count(&mut r, &tail))
            .collect();
        let twos = xs.iter().filter(|&&x| x == 2).count() as f64 / xs.len() as f64;
        assert!((0.43..=0.48).contains(&twos), "P(2)={twos}");
        let zeros = xs.iter().filter(|&&x| x == 0).count() as f64 / xs.len() as f64;
        assert!((0.03..=0.04).contains(&zeros), "P(0)={zeros}");
        // Long tail exists but is rare.
        let big = xs.iter().filter(|&&x| x > 250).count() as f64 / xs.len() as f64;
        assert!(big > 0.0 && big < 0.004, "P(>250)={big}");
    }

    #[test]
    fn protocol_mix_shapes() {
        let mut r = rng();
        let big: Vec<Protocol> = (0..10_000)
            .map(|_| sample_host_protocol(&mut r, true))
            .collect();
        let h2 = big.iter().filter(|&&p| p == Protocol::H2).count() as f64 / big.len() as f64;
        assert!(h2 > 0.93, "big-provider H2 share {h2}");
        let small: Vec<Protocol> = (0..10_000)
            .map(|_| sample_host_protocol(&mut r, false))
            .collect();
        let h11 = small.iter().filter(|&&p| p == Protocol::H11).count() as f64 / small.len() as f64;
        assert!(h11 > 0.3, "tail H1.1 share {h11}");
    }

    #[test]
    fn success_rate_declines_with_rank() {
        assert!(success_rate_for_rank(0, 500_000) > success_rate_for_rank(499_999, 500_000));
        let top = success_rate_for_rank(50_000, 500_000);
        assert!((0.60..=0.70).contains(&top));
    }

    #[test]
    fn shard_count_in_range() {
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(sample_shard_count(&mut r) <= 4);
        }
    }

    #[test]
    fn wait_ms_positive_and_bounded() {
        let mut r = rng();
        for _ in 0..1_000 {
            let w = sample_wait_ms(&mut r);
            assert!((2.0..=3_000.0).contains(&w));
        }
    }
}
