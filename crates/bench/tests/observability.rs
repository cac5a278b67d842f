//! Streaming observability (`origin_telemetry::obs`) wired through the
//! crawl: the timeline and flight-recorder outputs are byte-identical for
//! any thread count, an unobserved crawl is byte-identical to a build
//! without the obs layer, and the optional-subsystem gating rule
//! (`fault.*` / `h1.*` / `h3.*` / `obs.*` keys exist only when the subsystem
//! actually did something) holds.

use origin_bench::{CrawlSpec, ObsConfig};
use origin_netsim::{FaultProfile, SimDuration};

const SITES: u32 = 200;
const SEED: u64 = 0xD373;

const PROFILE: &str = "drop=0.01,h421=0.02,middlebox=0.15";

/// The quarter-legacy universe under the reference-style profile.
fn faulted_mixed(threads: usize) -> CrawlSpec {
    CrawlSpec {
        threads,
        faults: Some(FaultProfile::parse(PROFILE).unwrap()),
        legacy_share: 0.25,
        ..CrawlSpec::new(SITES, SEED)
    }
}

fn observed(threads: usize, obs: &ObsConfig) -> origin_bench::CrawlResults {
    CrawlSpec {
        obs: Some(obs.clone()),
        ..faulted_mixed(threads)
    }
    .run()
}

#[test]
fn timeline_json_identical_across_thread_counts() {
    // The tentpole guarantee: the exported time series is a pure
    // function of the site list — window-keyed union with commutative
    // cell addition means shard boundaries can't show through.
    let obs = ObsConfig::default();
    let one = observed(1, &obs);
    let two = observed(2, &obs);
    let eight = observed(8, &obs);
    let json = one.timeline.as_ref().unwrap().to_json();
    assert!(json.contains("\"windows\""), "timeline export is empty");
    assert_eq!(
        json,
        two.timeline.as_ref().unwrap().to_json(),
        "timeline: 1 vs 2 threads"
    );
    assert_eq!(
        json,
        eight.timeline.as_ref().unwrap().to_json(),
        "timeline: 1 vs 8 threads"
    );
    // The metrics registry (now carrying obs.* totals) too.
    assert_eq!(one.metrics.to_json(), eight.metrics.to_json());
    // And the dashboard rendered from it, since CI archives it.
    let tl = one.timeline.as_ref().unwrap();
    assert_eq!(
        origin_telemetry::obs::dashboard::render(tl, 0, SITES - 1),
        origin_telemetry::obs::dashboard::render(eight.timeline.as_ref().unwrap(), 0, SITES - 1),
    );
}

#[test]
fn observation_does_not_perturb_the_crawl() {
    // Observation reads completed loads; it must never touch the
    // simulation. An observed crawl measures exactly what an
    // unobserved one does, and only the observed run carries obs.*.
    let plain = faulted_mixed(2).run();
    let obs = ObsConfig::default();
    let seen = observed(2, &obs);
    assert_eq!(plain.measured.plt, seen.measured.plt);
    assert_eq!(plain.measured.dns, seen.measured.dns);
    assert_eq!(plain.model_origin.plt, seen.model_origin.plt);
    let plain_json = plain.metrics.to_json();
    let seen_json = seen.metrics.to_json();
    assert!(
        !plain_json.contains("\"obs."),
        "unobserved run leaked obs.* keys"
    );
    assert!(seen_json.contains("\"obs.visits\""));
    // Stripping the obs.* lines from the observed export reproduces
    // the unobserved one exactly — obs adds keys, changes nothing.
    let stripped: String = seen_json
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"obs."))
        .collect::<Vec<_>>()
        .join("\n");
    // Key sets differ only by obs.*; every shared key has equal value.
    for line in plain_json.lines() {
        if line.contains("\":") {
            assert!(
                stripped.contains(line.trim_end_matches(',')),
                "observed run changed a non-obs metric line: {line}"
            );
        }
    }
}

#[test]
fn timeline_window_override_and_totals_match_registry() {
    let obs = ObsConfig {
        window: Some(SimDuration::from_millis(2_000)),
        ..ObsConfig::default()
    };
    let r = observed(1, &obs);
    let tl = r.timeline.as_ref().unwrap();
    assert_eq!(tl.window_width(), SimDuration::from_millis(2_000));
    let totals = tl.totals();
    // The timeline's totals and the registry count the same world.
    assert_eq!(totals.visits(), r.metrics.counter("crawl.pages"));
    assert_eq!(totals.visits(), r.metrics.counter("obs.visits"));
    assert_eq!(tl.num_windows() as u64, r.metrics.counter("obs.windows"));
    assert!(r.metrics.counter("obs.flight_events") > 0);
    // PLT sketch count == visits (one PLT per visit), and the p99
    // exemplar points into a real visit's span namespace.
    assert_eq!(totals.plt().count(), totals.visits());
    let ex = totals.plt().quantile_exemplar(0.99).expect("p99 exemplar");
    assert!(ex.rank < SITES);
    assert_eq!(ex.span_id >> 24, ex.rank as u64);
}

#[test]
fn fault_abort_snapshot_identical_across_thread_counts() {
    // The lowest-ranked visit reaching the threshold wins the trigger
    // regardless of which worker processed it; the snapshot JSON must
    // not depend on the thread count.
    let obs = ObsConfig {
        fault_abort: Some(4),
        ..ObsConfig::default()
    };
    let one = observed(1, &obs);
    let eight = observed(8, &obs);
    let snap = one
        .flight
        .as_ref()
        .unwrap()
        .trigger_snapshot_json(4)
        .expect("this profile reaches 4 fault events on some visit");
    assert_eq!(
        snap,
        eight
            .flight
            .as_ref()
            .unwrap()
            .trigger_snapshot_json(4)
            .unwrap(),
        "fault-abort snapshot: 1 vs 8 threads"
    );
    assert!(snap.contains("\"trigger_rank\""));
    assert!(snap.contains("\"code\":\"visit.begin\""));
}

#[test]
fn never_firing_fault_profile_is_byte_identical_to_clean() {
    // The gating rule, pinned: a configured-but-silent subsystem is
    // indistinguishable from an absent one. A profile whose rates are
    // so small it never fires on this dataset must reproduce the clean
    // crawl byte for byte — stronger than the all-zero-profile test,
    // because the fault session objects exist and draw nothing.
    let tiny = FaultProfile::parse("drop=0.0000000001").unwrap();
    let [clean, silent] = [None, Some(tiny)].map(|faults| {
        CrawlSpec {
            faults,
            ..faulted_mixed(2)
        }
        .run()
    });
    assert_eq!(clean.measured.plt, silent.measured.plt);
    let clean_json = clean.metrics.to_json();
    assert_eq!(clean_json, silent.metrics.to_json());
    assert!(
        !clean_json.contains("\"fault."),
        "clean run leaked fault.* keys"
    );
}

#[test]
fn absent_subsystems_export_no_keys() {
    // One clean all-h2 crawl: no fault injection, no legacy sites, no
    // observation. None of the optional families may materialize —
    // this is what keeps the committed baseline schema stable.
    let r = CrawlSpec::new(SITES, SEED).run();
    let json = r.metrics.to_json();
    for family in ["\"fault.", "\"h1.", "\"h3.", "\"obs."] {
        assert!(
            !json.contains(family),
            "clean crawl exported {family}* keys"
        );
    }
    // Always-on core families are there regardless.
    for family in ["\"browser.", "\"dns.", "\"crawl."] {
        assert!(json.contains(family), "missing core family {family}*");
    }
}
