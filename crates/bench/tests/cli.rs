//! The `repro` binary from the outside: the `--only` vocabulary is the
//! experiment table, rows pull in exactly the inputs they need, and
//! the exit status tells a CI gate whether its artifact exists.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--sites", "200", "--threads", "2"])
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The ids the usage error for an unknown `--only` id lists.
fn known_ids() -> Vec<String> {
    let out = repro(&["--only", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "unknown id is a usage error");
    let err = stderr(&out);
    let list = err
        .split_once("(known: ")
        .and_then(|(_, rest)| rest.split_once(')'))
        .expect("the error names the known ids")
        .0;
    list.split(' ').map(str::to_string).collect()
}

#[test]
fn every_listed_id_is_accepted_and_prints_something() {
    let ids = known_ids();
    for id in [
        "t1",
        "t9",
        "f1",
        "f7a",
        "f9",
        "passive-origin",
        "scheduling",
    ] {
        assert_eq!(
            ids.iter().filter(|i| *i == id).count(),
            1,
            "{id} in {ids:?}"
        );
    }
    for id in &ids {
        let out = repro(&["--only", id]);
        assert_eq!(out.status.code(), Some(0), "--only {id}: {}", stderr(&out));
        assert!(!out.stdout.is_empty(), "--only {id} printed nothing");
    }
}

#[test]
fn f9_is_drawn_from_the_crawl_and_from_the_sample_group() {
    let out = repro(&["--only", "f9"]);
    let (text, log) = (stdout(&out), stderr(&out));
    assert!(text.contains("Figure 9 (top): modelled PLT CDFs"), "{text}");
    assert!(text.contains("Figure 9 (bottom): measured PLT"), "{text}");
    assert!(log.contains("# crawling") && log.contains("# sample group"));
    assert!(!text.contains("Table 1"), "only f9 was asked for");
}

#[test]
fn scheduling_needs_neither_the_crawl_nor_the_sample_group() {
    let out = repro(&["--only", "scheduling"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).starts_with("§6.1 scheduling fidelity"));
    let log = stderr(&out);
    assert!(!log.contains("# crawling"), "{log}");
    assert!(!log.contains("# sample group"), "{log}");
}

#[test]
fn an_unwritable_artifact_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("metrics.json");
    let bad = dir.join("no-such-dir").join("metrics.json");

    let out = repro(&["--only", "t1", "--metrics", good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("# wrote metrics to "));
    assert!(std::fs::read_to_string(&good)
        .expect("metrics written")
        .contains("\"runtime_ms\""));

    let out = repro(&["--only", "t1", "--metrics", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("# failed to write "));
    // The tables still came out: only the status reports the failure.
    assert!(stdout(&out).contains("Table 1"));

    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn a_zero_sampling_denominator_is_a_usage_error() {
    // "One in zero" reads as *none*; it must not silently mean *all*.
    for raw in ["1/0", "0"] {
        let out = repro(&["--only", "t1", "--sample", raw]);
        assert_eq!(out.status.code(), Some(2), "--sample {raw}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("invalid value {raw:?} for --sample")),
            "{err}"
        );
        assert!(stdout(&out).is_empty(), "nothing ran");
    }
}

#[test]
fn a_sampling_rate_without_a_trace_is_a_usage_error() {
    // Like `--window` without `--timeline`: a dependent flag is never
    // silently ignored.
    let out = repro(&["--only", "t1", "--sample", "1/4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--sample requires --trace"));
    assert!(stdout(&out).is_empty(), "nothing ran");
}

#[test]
fn a_protocol_report_requires_its_share_flag_at_any_value() {
    // Like `--faults-report` without `--faults`: the check is on the
    // flag, not its value, so share 0 (the clean baseline) still
    // writes its report.
    let dir = std::env::temp_dir().join(format!("repro-cli-share-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("r.json");
    let path = path.to_str().expect("a UTF-8 temp path");
    for (report, share) in [
        ("--redundancy-report", "--legacy-share"),
        ("--h3-report", "--h3-share"),
    ] {
        let out = repro(&["--only", "t1", report, path]);
        assert_eq!(out.status.code(), Some(2), "{report}");
        assert!(stderr(&out).contains(&format!("{report} requires {share}")));
        assert!(stdout(&out).is_empty(), "nothing ran");

        let out = repro(&["--only", "t1", share, "0", report, path]);
        assert_eq!(out.status.code(), Some(0), "{report}: {}", stderr(&out));
        std::fs::remove_file(path).expect("the report was written");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn watch_takes_the_last_rank_and_refuses_the_one_past_it() {
    // Ranks are 1-based: site 200 of 200 exists, site 201 does not.
    let watch = |range: &str| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["watch", "--sites", "200", "--threads", "2"])
            .args(["--window", "1000", "--site-range", range])
            .output()
            .expect("repro runs")
    };
    let rows = |out: &Output| -> Vec<String> {
        let text = stdout(out);
        let rows = text.lines().filter(|l| l.starts_with("w "));
        rows.map(str::to_string).collect()
    };

    let all = watch("1-200");
    assert_eq!(all.status.code(), Some(0), "{}", stderr(&all));
    assert!(stdout(&all).starts_with("timeline dashboard  sites 1..=200 "));
    // The last site's own windows (its epoch plus the spacing
    // interval) close the whole-dataset dashboard.
    let last = watch("200-200");
    assert_eq!(last.status.code(), Some(0), "{}", stderr(&last));
    let last_rows = rows(&last);
    assert!(!last_rows.is_empty());
    assert!(rows(&all).ends_with(&last_rows), "{}", stdout(&all));

    let past = watch("1-201");
    assert_eq!(past.status.code(), Some(2));
    let err = stderr(&past);
    assert!(
        err.contains("exceeds the dataset (200 sites; ranks 1..=200)"),
        "{err}"
    );
    assert!(stdout(&past).is_empty(), "nothing ran");
}
