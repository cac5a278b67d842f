//! The sharded crawl's headline guarantee: the thread count changes
//! wall-clock time and nothing else. Every series, table, and counter
//! must come out identical whether the crawl runs on 1, 2, or 8
//! workers — this is what makes `repro --threads N` artifacts
//! byte-comparable across machines.

use origin_bench::{trace_site, CrawlResults, CrawlSpec};
use origin_cdn::{ActiveMeasurement, SampleGroup, Treatment};
use origin_netsim::{FaultProfile, SimRng};
use origin_telemetry::metrics::Registry;
use origin_telemetry::trace::{to_chrome_json, EventKind, Sampler, Tracer};

const SITES: u32 = 300;
const SEED: u64 = 0xD373;

fn assert_results_equal(a: &CrawlResults, b: &CrawlResults, label: &str) {
    // Raw per-site series, in rank order.
    assert_eq!(a.measured.dns, b.measured.dns, "{label}: measured dns");
    assert_eq!(a.measured.tls, b.measured.tls, "{label}: measured tls");
    assert_eq!(a.measured.plt, b.measured.plt, "{label}: measured plt");
    assert_eq!(a.model_ip.plt, b.model_ip.plt, "{label}: model ip plt");
    assert_eq!(
        a.model_origin.plt, b.model_origin.plt,
        "{label}: model origin plt"
    );
    assert_eq!(a.model_cdn_plt, b.model_cdn_plt, "{label}: model cdn plt");
    // Characterization tables.
    assert_eq!(
        a.characterization.pages, b.characterization.pages,
        "{label}: pages"
    );
    assert_eq!(
        a.characterization.table1(),
        b.characterization.table1(),
        "{label}: table1"
    );
    assert_eq!(
        a.characterization.as_requests.top(25),
        b.characterization.as_requests.top(25),
        "{label}: table2"
    );
    assert_eq!(
        a.characterization.hostnames.top(25),
        b.characterization.hostnames.top(25),
        "{label}: table7"
    );
    assert_eq!(
        a.characterization.figure1(),
        b.characterization.figure1(),
        "{label}: figure1"
    );
    // Certificate planning.
    assert_eq!(a.plan.per_site, b.plan.per_site, "{label}: plan per-site");
    assert_eq!(
        a.plan.total_sites, b.plan.total_sites,
        "{label}: plan totals"
    );
    assert_eq!(a.plan.table8(10), b.plan.table8(10), "{label}: table8");
    assert_eq!(
        a.effective.table9(10),
        b.effective.table9(10),
        "{label}: table9"
    );
}

/// `spec` at 1, 2 and 8 worker threads.
fn at_1_2_8(spec: CrawlSpec) -> [CrawlResults; 3] {
    [1, 2, 8].map(|threads| {
        CrawlSpec {
            threads,
            ..spec.clone()
        }
        .run()
    })
}

/// `spec` on two threads (enough to cross a shard boundary).
fn on_two(spec: CrawlSpec) -> CrawlResults {
    CrawlSpec { threads: 2, ..spec }.run()
}

fn pure() -> CrawlSpec {
    CrawlSpec::new(SITES, SEED)
}

/// Every series and table, and the serialized registry — counters,
/// histograms, AND the simulated phase totals — agree across the runs.
/// The registry bytes are what lets CI `cmp` two `--metrics` exports
/// and what makes the perf-gate baseline machine-independent (the lib
/// never records wall-clock runtime_ms, so the raw JSON compares).
fn assert_thread_invariant([one, two, eight]: &[CrawlResults; 3], what: &str) {
    assert_results_equal(one, two, &format!("{what} 1 vs 2 threads"));
    assert_results_equal(one, eight, &format!("{what} 1 vs 8 threads"));
    let json = one.metrics.to_json();
    assert!(!json.is_empty());
    assert_eq!(json, two.metrics.to_json(), "{what} metrics: 1 vs 2");
    assert_eq!(json, eight.metrics.to_json(), "{what} metrics: 1 vs 8");
}

#[test]
fn crawl_identical_across_thread_counts() {
    assert_thread_invariant(&at_1_2_8(pure()), "clean");
}

#[test]
fn faulted_crawl_identical_across_thread_counts() {
    // Fault decisions draw from per-site fault RNGs, so the sharded
    // crawl's determinism guarantee survives injection: for any fixed
    // profile, the merged output — series, tables, AND the fault.*
    // counters — is byte-identical at any thread count.
    let profile = FaultProfile::parse("drop=0.01,h421=0.02,middlebox=0.15").unwrap();
    let runs = at_1_2_8(CrawlSpec {
        faults: Some(profile),
        ..pure()
    });
    let retries = runs[0].metrics.counter("fault.retries");
    assert!(retries > 0, "profile never fired");
    assert_thread_invariant(&runs, "faulted");
}

#[test]
fn h3_crawl_identical_across_thread_counts() {
    // Alt-Svc learning, ticket banking, and 0-RTT rejection all draw
    // from per-site state and RNGs, so the sharded crawl's determinism
    // guarantee survives the QUIC upgrade path: for any fixed share,
    // the merged output — series, tables, AND the h3.* counters — is
    // byte-identical at any thread count.
    let runs = at_1_2_8(CrawlSpec {
        h3_share: 0.5,
        ..pure()
    });
    let quic = runs[0].metrics.counter("h3.connections");
    assert!(quic > 0, "no connection ever upgraded to QUIC");
    assert_thread_invariant(&runs, "h3");
}

#[test]
fn zero_fault_profile_reproduces_the_clean_crawl() {
    // `--faults` with an all-zero profile must be indistinguishable
    // from no `--faults` at all: no fault.* key materializes and every
    // series matches, so the committed clean reports stay valid.
    let clean = on_two(pure());
    let zero = on_two(CrawlSpec {
        faults: Some(FaultProfile::none()),
        ..pure()
    });
    assert_results_equal(&clean, &zero, "clean vs zero profile");
    assert_eq!(clean.metrics.to_json(), zero.metrics.to_json());
}

#[test]
fn crawl_metrics_cover_every_pipeline_stage() {
    let r = CrawlSpec {
        threads: 1,
        ..pure()
    }
    .run();
    for key in [
        "crawl.pages",
        "browser.requests",
        "browser.connections_opened",
        "dns.lookups",
        "certplan.sites",
    ] {
        assert!(r.metrics.counter(key) > 0, "missing counter {key}");
    }
    assert_eq!(r.metrics.counter("crawl.pages"), r.characterization.pages);
    assert_eq!(
        r.metrics.counter("crawl.requests"),
        r.characterization.total_requests
    );
}

#[test]
fn active_measurement_identical_across_thread_counts() {
    let mut rng = SimRng::seed_from_u64(0xAC7);
    let group = SampleGroup::build(600, &mut rng);
    let m = ActiveMeasurement::origin_experiment();
    let one = m.run_threads(&group, Treatment::Experiment, 42, 1);
    let four = m.run_threads(&group, Treatment::Experiment, 42, 4);
    assert_eq!(one.plt_ms, four.plt_ms, "1 vs 4 threads");
    assert_eq!(one.fraction_with(0), four.fraction_with(0));
    assert_eq!(one.cdf(), four.cdf());
    // Per-visit metrics shard and merge on the same rank-ordered
    // spine as the sample vectors.
    let json = one.metrics.to_json();
    assert_eq!(json, four.metrics.to_json(), "metrics: 1 vs 4 threads");
    assert!(one.metrics.counter("cdn.active.visits") > 0);
}

#[test]
fn tracing_the_wire_check_does_not_perturb_it() {
    let mut rng = SimRng::seed_from_u64(0xAC7);
    let group = SampleGroup::build(600, &mut rng);
    let m = ActiveMeasurement::origin_experiment();
    let (mut plain, mut traced) = (Registry::new(), Registry::new());
    let mut tracer = Tracer::new();
    let want = m.wire_spot_check(&group, 40, Some(&mut plain), None);
    let got = m.wire_spot_check(&group, 40, Some(&mut traced), Some(&mut tracer));
    assert_eq!(want, 40);
    assert_eq!(want, got);
    assert_eq!(plain, traced);
    assert!(plain.counter("h2.origin_frames_accepted") > 0);
    assert!(!tracer.is_empty(), "the traced check recorded no events");
}

#[test]
fn trace_json_identical_across_thread_counts() {
    // The whole point of deriving span/flow IDs from (visit, sequence)
    // and merging tracers along the rank-ordered shard spine: the
    // exported Chrome trace JSON is byte-identical for any --threads.
    let [one, two, eight] = at_1_2_8(CrawlSpec {
        sampler: Some(Sampler::new(4)),
        ..pure()
    });
    assert!(!one.trace.is_empty(), "sampled crawl produced no events");
    let json = to_chrome_json(&one.trace);
    assert_eq!(json, to_chrome_json(&two.trace), "trace: 1 vs 2 threads");
    assert_eq!(json, to_chrome_json(&eight.trace), "trace: 1 vs 8 threads");
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // A traced crawl must measure exactly what an untraced crawl
    // measures: tracing reads simulation state, never the RNG.
    let traced = on_two(CrawlSpec {
        sampler: Some(Sampler::new(2)),
        ..pure()
    });
    let untraced = on_two(pure());
    assert_eq!(traced.measured.plt, untraced.measured.plt);
    assert_eq!(traced.measured.dns, untraced.measured.dns);
    assert_eq!(traced.model_origin.plt, untraced.model_origin.plt);
    assert_eq!(traced.metrics.to_json(), untraced.metrics.to_json());
}

#[test]
fn site_trace_links_coalesced_requests_with_flows() {
    // Find a visit that coalesced, then check its exported trace:
    // every coalesced request contributes one flow-start/flow-end pair
    // (the arrow from the reused connection's opening to the request),
    // with matching deterministic IDs.
    let (load, trace) = (1..=50)
        .filter_map(|rank| trace_site(SITES, SEED, rank))
        .find(|(load, _)| load.coalesced_requests() > 0)
        .expect("some top-50 site coalesces under Chromium policy");
    let starts: Vec<u64> = trace
        .events()
        .filter(|e| e.kind() == EventKind::FlowStart)
        .map(|e| e.flow_id())
        .collect();
    let ends: Vec<u64> = trace
        .events()
        .filter(|e| e.kind() == EventKind::FlowEnd)
        .map(|e| e.flow_id())
        .collect();
    assert_eq!(starts.len(), load.coalesced_requests() as usize);
    assert_eq!(starts, ends, "every flow arrow has both ends");
    let json = to_chrome_json(&trace);
    assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
    // The HAR export of the same visit carries the identical PLT.
    let har = load.to_har_json();
    let plt_ms = load.plt_us() as f64 / 1_000.0;
    assert!(
        har.contains(&format!("\"onLoad\": {plt_ms:?}")),
        "HAR onLoad must equal the visit PLT"
    );
    // Re-tracing the same rank reproduces the same bytes.
    let (_, again) = trace_site(SITES, SEED, load.rank).expect("same rank resolves again");
    assert_eq!(json, to_chrome_json(&again));
}

#[test]
fn series_samples_merge_identities() {
    use origin_bench::SeriesSamples;
    let mut x = SeriesSamples::default();
    x.dns.extend([1.0, 2.0]);
    x.tls.extend([3.0]);
    x.plt.extend([4.0, 5.0]);
    // empty ⊕ x == x.
    let mut from_empty = SeriesSamples::default();
    from_empty.merge(x.clone());
    assert_eq!(from_empty.dns, x.dns);
    assert_eq!(from_empty.plt, x.plt);
    // x ⊕ empty == x.
    let mut with_empty = x.clone();
    with_empty.merge(SeriesSamples::default());
    assert_eq!(with_empty.tls, x.tls);
    // Concatenation is associative: (x ⊕ y) ⊕ z == x ⊕ (y ⊕ z).
    let mut y = SeriesSamples::default();
    y.dns.push(9.0);
    let mut z = SeriesSamples::default();
    z.dns.push(11.0);
    let mut xy_z = x.clone();
    xy_z.merge(y.clone());
    xy_z.merge(z.clone());
    let mut yz = y.clone();
    yz.merge(z.clone());
    let mut x_yz = x.clone();
    x_yz.merge(yz);
    assert_eq!(xy_z.dns, x_yz.dns);
}
