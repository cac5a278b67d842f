//! Byte-pin of the full cross product inside `cargo test`: legacy h1 ×
//! h3 × fault recovery × every telemetry sink, on the `crawl-mixed`
//! configuration of `BENCHMARK.json` at small scale.

use origin_bench::{run_crawl_observed, CrawlResults, CrawlSpec, ObsConfig};
use origin_netsim::rng::fnv1a64;
use origin_netsim::FaultProfile;
use origin_trace::{to_chrome_json, Sampler};

fn crawl_mixed(threads: usize) -> CrawlSpec {
    CrawlSpec {
        threads,
        sampler: Some(Sampler::new(4)),
        faults: Some(FaultProfile::parse("drop=0.01,h421=0.005,middlebox=0.1").unwrap()),
        legacy_share: 0.25,
        h3_share: 0.5,
        obs: Some(ObsConfig::default()),
        ..CrawlSpec::new(300, 0x0516)
    }
}

/// FNV-1a of the registry, trace and timeline exports.
fn digests(r: &CrawlResults) -> [u64; 3] {
    let timeline = r.timeline.as_ref().expect("observed crawl");
    [
        r.metrics.to_json(),
        to_chrome_json(&r.trace),
        timeline.to_json(),
    ]
    .map(|json| fnv1a64(json.as_bytes()))
}

/// The constants were computed from the code before the visit-pipeline
/// refactor (PR 12); any change to the order of an RNG draw, a counter,
/// a span or a window cell moves them.
#[test]
fn crawl_mixed_digests_are_pinned() {
    for threads in [1, 3] {
        assert_eq!(
            digests(&crawl_mixed(threads).run()),
            [0xd0050d43830eaafc, 0x86da740b593c0daf, 0xd7bd9feec9898ffc],
            "{threads} threads: registry, trace, timeline"
        );
    }
}

/// `run_crawl_observed` survives only for the frozen harness under
/// `benchmark/`; this is its one caller in the workspace. With every
/// argument non-default, it and the struct it forwards to must produce
/// the same registry, trace and timeline bytes.
#[test]
fn positional_adapter_cannot_drift_from_crawl_spec() {
    let s = crawl_mixed(3);
    let positional = run_crawl_observed(
        s.sites,
        s.seed,
        s.threads,
        s.sampler.as_ref(),
        s.faults.as_ref(),
        s.legacy_share,
        s.h3_share,
        s.obs.as_ref(),
    );
    assert_eq!(digests(&positional), digests(&s.run()));
}

/// What buffering that trace costs: one fixed-size record per event
/// plus its values (strings copied once, names and keys not at all).
/// The owned `String`/`Vec` event it replaced took ~230 bytes.
#[test]
fn crawl_mixed_trace_stays_under_64_bytes_an_event() {
    let r = crawl_mixed(1).run();
    let events = r.trace.len();
    assert!(events > 10_000, "only {events} events traced");
    let per_event = r.trace.footprint().iter().sum::<usize>() as f64 / events as f64;
    assert!(
        per_event <= 64.0,
        "{per_event:.1} bytes/event over {events} events"
    );
}
