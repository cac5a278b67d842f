//! The metric catalogue, the result line and a small JSON reader.
//!
//! `BENCHMARK.json` at the repository root names the same metrics; a
//! unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, in the contract's alphabet (`1/s`, `s`, `MiB`, `%`, …).
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median; 0 for
    /// per-layer metrics, which carry none.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    e2e(name, unit, higher_is_better, 0.0)
}

/// End-to-end metrics every untraced run reports.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("units_per_s", "1/s", true, 0.25),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.25),
];

/// Per-layer metrics every traced run reports, grouped by layer.
pub const PER_LAYER: [MetricDef; 54] = [
    layer("webgen.generate_us_per_site", "us", false),
    layer("webgen.page_us_per_site", "us", false),
    layer("browser.load_us_per_site", "us", false),
    layer("browser.pool_decide_ns", "ns", false),
    layer("browser.requests_per_site", "count", false),
    layer("browser.conns_opened_per_site", "count", false),
    layer("browser.coalesce_ratio", "ratio", true),
    layer("browser.pool_reuse_ratio", "ratio", true),
    layer("dns.resolve_hit_ns", "ns", false),
    layer("dns.resolve_miss_ns", "ns", false),
    layer("dns.lookups_per_site", "count", false),
    layer("dns.cache_hit_ratio", "ratio", true),
    layer("tls.san_match_ns", "ns", false),
    layer("intern.lookup_ns", "ns", false),
    layer("h1.cycle_ns", "ns", false),
    layer("h1.requests_per_site", "count", false),
    layer("h2.frame_decode_ns", "ns", false),
    layer("h2.hpack_encode_ns", "ns", false),
    layer("h2.hpack_decode_ns", "ns", false),
    layer("h2.exchange_us", "us", false),
    layer("h2.frames_per_wire_check", "count", false),
    layer("h3.handshake_ns", "ns", false),
    layer("h3.qpack_encode_ns", "ns", false),
    layer("h3.zero_rtt_share", "ratio", true),
    layer("netsim.queue_ns_per_event", "ns", false),
    layer("netsim.arrival_ns", "ns", false),
    layer("core.model_us_per_site", "us", false),
    layer("core.certplan_us_per_site", "us", false),
    layer("core.characterize_us_per_site", "us", false),
    layer("cdn.sample_build_s", "s", false),
    layer("cdn.wire_check_s", "s", false),
    layer("cdn.active_s", "s", false),
    layer("cdn.passive_s", "s", false),
    layer("cdn.longitudinal_s", "s", false),
    layer("cdn.incident_s", "s", false),
    layer("cdn.active_visits", "count", false),
    layer("cdn.passive_records", "count", false),
    layer("serve.compile_us_per_site", "us", false),
    layer("serve.run_ns_per_visit", "ns", false),
    layer("serve.ns_per_request", "ns", false),
    layer("serve.pool_reuse_ratio", "ratio", true),
    layer("serve.evictions_per_visit", "count", false),
    layer("serve.conns_opened_per_visit", "count", false),
    layer("serve.speedup_t2", "ratio", true),
    layer("obs.record_visit_ns", "ns", false),
    layer("obs.observed_overhead_pct", "%", false),
    layer("trace.sampled_overhead_pct", "%", false),
    layer("metrics.add_ns", "ns", false),
    layer("metrics.merge_us", "us", false),
    layer("bench.crawl_other_us_per_site", "us", false),
    layer("bench.crawl_flatness", "ratio", false),
    layer("bench.crawl_speedup_t2", "ratio", true),
    layer("bench.trace_overhead_pct", "%", false),
    layer("paper_abs_err_pct", "%", false),
];

/// A metric or workload name: starts with a letter or digit, at most
/// 64 characters, letters, digits, `_`, `.` and `-` only.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The one-line result a workload run ends its standard output with.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every invariant held on every rep and the digests agreed.
    pub correct: bool,
    /// Reps (untraced) or passes (traced) attempted.
    pub attempted: u64,
    /// Of those, how many broke an invariant or changed the digest.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// Build a result from `values`, checking them against the
    /// catalogue `defs`: exactly those names, finite values.
    pub fn new(
        attempted: u64,
        failed: u64,
        defs: &[MetricDef],
        values: &BTreeMap<&'static str, f64>,
    ) -> Result<Self, String> {
        let mut metrics = BTreeMap::new();
        for d in defs {
            if !valid_name(d.name) || !valid_unit(d.unit) {
                return Err(format!(
                    "metric {:?} [{:?}] is not printable",
                    d.name, d.unit
                ));
            }
            let v = *values
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            metrics.insert(d.name.to_string(), (v, d.unit.to_string()));
        }
        if let Some(extra) = values.keys().find(|k| !metrics.contains_key(**k)) {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(RunResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        })
    }

    /// The result as one JSON object on one line. Values print with
    /// every digit `f64` needs to round-trip.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// Read a result line back.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let doc = Json::parse(line)?;
        let keys: Vec<&str> = doc.entries()?.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected result keys {keys:?}"));
        }
        let count = |key: &str| -> Result<u64, String> {
            let n = doc.get(key)?.number()?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{key} is not a whole number: {n}"));
            }
            Ok(n as u64)
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in doc.get("metrics")?.entries()? {
            let value = m.get("value")?.number()?;
            let unit = m.get("unit")?.string()?.to_string();
            metrics.insert(name.clone(), (value, unit));
        }
        Ok(RunResult {
            correct: doc.get("correct")?.boolean()?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// A parsed JSON value (objects keep their key order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object entries, in document order.
    pub fn entries(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(e) => Ok(e),
            other => Err(format!("expected an object, found {other:?}")),
        }
    }

    /// Array items.
    #[cfg(test)]
    pub fn items(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(format!("expected an array, found {other:?}")),
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        self.entries()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    /// The number this value is.
    pub fn number(&self) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    /// The string this value is.
    pub fn string(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {other:?}")),
        }
    }

    /// The boolean this value is.
    pub fn boolean(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, found {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn expect(&mut self, literal: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(literal) {
            Ok(())
        } else {
            Err(format!("expected {literal:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    entries.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(entries));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("number characters are ASCII");
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// A string without escape processing beyond `\"`, `\\`, `\/`,
    /// `\n` and `\t`: all this benchmark writes or reads.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = match self.bytes.get(self.pos + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        other => return Err(format!("unsupported escape {other:?}")),
                    };
                    out.push(c);
                    self.pos += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator_accepts_only_the_contract_alphabet() {
        for ok in [
            "units_per_s",
            "h2.hpack_encode_ns",
            "crawl-small",
            "9lives",
            "A",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "slash/name",
            "pct%",
            "naïve",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!((0.0..=0.25).contains(&d.bound), "{}", d.name);
        }
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("a b"));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn result_line_parses_back_to_the_same_values() {
        let values = BTreeMap::from([
            ("units_per_s", 10_543.218_765_432_1),
            ("setup_s", 0.010_4),
            ("peak_rss_mib", 13.773_437_5),
        ]);
        let r = RunResult::new(25, 0, &END_TO_END, &values).unwrap();
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json(&line).unwrap();
        assert_eq!(back, r);
        assert!(back.correct);
        assert_eq!(
            back.metrics["units_per_s"],
            (10_543.218_765_432_1, "1/s".into())
        );
        // A failed rep flips `correct`.
        let bad = RunResult::new(25, 1, &END_TO_END, &values).unwrap();
        assert!(!RunResult::from_json(&bad.to_json()).unwrap().correct);
    }

    #[test]
    fn result_rejects_missing_extra_and_non_finite_metrics() {
        let mut values = BTreeMap::from([("units_per_s", 1.0), ("setup_s", 1.0)]);
        assert!(RunResult::new(1, 0, &END_TO_END, &values).is_err());
        values.insert("peak_rss_mib", f64::NAN);
        assert!(RunResult::new(1, 0, &END_TO_END, &values).is_err());
        values.insert("peak_rss_mib", 1.0);
        values.insert("stray", 1.0);
        assert!(RunResult::new(1, 0, &END_TO_END, &values).is_err());
    }

    #[test]
    fn reader_handles_nesting_and_rejects_garbage() {
        let doc = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"y"}} "#).unwrap();
        assert_eq!(doc.get("a").unwrap().items().unwrap().len(), 4);
        assert_eq!(
            doc.get("a").unwrap().items().unwrap()[1],
            Json::Num(-2500.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().string().unwrap(),
            "x\"y"
        );
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "{} x", "\"open", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        assert!(RunResult::from_json("{\"correct\": true}").is_err());
    }

    /// `BENCHMARK.json` and the catalogue must describe the same
    /// benchmark: same metrics, units, directions and bounds, the
    /// workloads this binary runs, and a command inside `paths`.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for (key, defs, has_bound) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let listed = doc.get(key).unwrap().items().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").unwrap().string().unwrap(), d.name);
                assert_eq!(
                    m.get("unit").unwrap().string().unwrap(),
                    d.unit,
                    "{}",
                    d.name
                );
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    m.get("better").unwrap().string().unwrap(),
                    better,
                    "{}",
                    d.name
                );
                assert_eq!(m.entries().unwrap().len(), if has_bound { 4 } else { 3 });
                if has_bound {
                    assert_eq!(
                        m.get("bound").unwrap().number().unwrap(),
                        d.bound,
                        "{}",
                        d.name
                    );
                }
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .unwrap()
            .iter()
            .map(|w| {
                assert!(w.get("why").unwrap().string().unwrap().len() <= 200);
                w.get("name").unwrap().string().unwrap()
            })
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        assert!(names.iter().all(|n| valid_name(n)));
        assert_eq!(
            doc.get("run_seconds").unwrap().number().unwrap(),
            crate::DEFAULT_SECONDS as f64
        );
        let paths = doc.get("paths").unwrap().items().unwrap();
        assert_eq!(paths, [Json::Str("benchmark".into())]);
        let command = doc.get("command").unwrap().items().unwrap();
        assert!(command.contains(&Json::Str("benchmark/Cargo.toml".into())));
    }
}
