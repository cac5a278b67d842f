//! Chrome trace-event JSON export (Perfetto-loadable): integer
//! timestamps, args in insertion order, every field written straight
//! from the tracer's arenas through `origin_netsim::json`.

use super::event::{Arg, EventKind, EventView, Name};
use super::tracer::Tracer;
use origin_netsim::json::{self, escape_into, push_u64};
use std::fmt::Write;

fn write_name(out: &mut String, e: &EventView<'_>) {
    match e.name_parts() {
        Name::Site(name) => escape_into(out, name),
        Name::Label(label) => escape_into(out, label),
        Name::Indexed(name, index, host) => {
            escape_into(out, name);
            out.push(' ');
            push_u64(out, index);
            out.push(' ');
            escape_into(out, host);
        }
    }
}

fn write_args(out: &mut String, e: &EventView<'_>) {
    out.push_str(",\"args\":{");
    json::push_joined(out, e.args(), ",", |out, (k, v)| {
        json::push_str(out, k);
        out.push(':');
        match v {
            Arg::Str(s) => json::push_str(out, s),
            Arg::U64(n) => push_u64(out, n),
            Arg::Bool(b) => json::push_bool(out, b),
            Arg::F64(f) => json::push_f64(out, f),
            // Writing to a `String` cannot fail.
            Arg::Ip(ip) => drop(write!(out, "\"{ip}\"")),
        }
    });
    out.push('}');
}

fn write_event(out: &mut String, e: &EventView<'_>) {
    let kind = e.kind();
    // Metadata events invert the spec's layout: the event name is the
    // metadata key (process_name / thread_name) and the label goes
    // under args.name.
    let (ph, meta_key) = match kind {
        EventKind::Complete => ('X', None),
        EventKind::Instant => ('i', None),
        EventKind::FlowStart => ('s', None),
        EventKind::FlowEnd => ('f', None),
        EventKind::ProcessName => ('M', Some("process_name")),
        EventKind::ThreadName => ('M', Some("thread_name")),
    };
    out.push_str("{\"name\":\"");
    match meta_key {
        Some(key) => out.push_str(key),
        None => write_name(out, e),
    }
    out.push_str("\",\"cat\":\"");
    escape_into(out, e.cat());
    out.push_str("\",\"ph\":\"");
    out.push(ph);
    out.push_str("\",\"ts\":");
    push_u64(out, e.ts_us());
    out.push_str(",\"pid\":");
    push_u64(out, e.pid());
    out.push_str(",\"tid\":");
    push_u64(out, u64::from(e.tid()));
    match kind {
        EventKind::Complete => {
            out.push_str(",\"dur\":");
            push_u64(out, e.dur_us());
            write_args(out, e);
        }
        EventKind::Instant => {
            out.push_str(",\"s\":\"t\"");
            write_args(out, e);
        }
        EventKind::FlowStart | EventKind::FlowEnd => {
            out.push_str(",\"id\":");
            push_u64(out, e.flow_id());
            if kind == EventKind::FlowEnd {
                out.push_str(",\"bp\":\"e\"");
            }
        }
        EventKind::ProcessName | EventKind::ThreadName => {
            out.push_str(",\"args\":{\"name\":\"");
            write_name(out, e);
            out.push_str("\"}");
        }
    }
    out.push('}');
}

/// Serialize a tracer's buffer as a Chrome trace-event JSON document
/// (`{"displayTimeUnit":"ms","traceEvents":[...]}`), loadable in
/// Perfetto / `chrome://tracing`. Output is a pure function of the
/// event buffer: same events, same bytes.
pub fn to_chrome_json(tracer: &Tracer) -> String {
    // An event renders to ~120 bytes (the rank-3 reference trace), its
    // strings included.
    let mut out = String::with_capacity(64 + tracer.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    json::push_joined(&mut out, tracer.events(), ",", |out, e| {
        out.push('\n');
        write_event(out, &e);
    });
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Site;

    static REQ: Site = Site::new("req", "request", &["host"]);
    static CACHE_HIT: Site = Site::new("dns.cache_hit", "dns", &["name"]);
    static COALESCE: Site = Site::new("coalesce", "flow", &[]);

    #[test]
    fn exports_all_phases() {
        let mut t = Tracer::new();
        t.begin_visit(42, "site-42 example.com");
        t.complete(&REQ, 100, 250, &[Arg::Str("a.example")]);
        t.instant_at(&CACHE_HIT, 105, &[Arg::Str("a.example")]);
        let id = t.next_id();
        t.flow_start(id, &COALESCE, 10, 1);
        t.flow_end(id, &COALESCE, 100);
        let json = to_chrome_json(&t);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains(
            "{\"name\":\"process_name\",\"cat\":\"meta\",\"ph\":\"M\",\"ts\":0,\"pid\":42,\
             \"tid\":0,\"args\":{\"name\":\"site-42 example.com\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"cat\":\"meta\",\"ph\":\"M\",\"ts\":0,\"pid\":42,\
             \"tid\":0,\"args\":{\"name\":\"loader\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"req\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":100,\"pid\":42,\
             \"tid\":0,\"dur\":250,\"args\":{\"host\":\"a.example\"}}"
        ));
        assert!(json.contains("\"ph\":\"i\",\"ts\":105,\"pid\":42,\"tid\":0,\"s\":\"t\""));
        let flow_id = 42u64 << 24;
        assert!(json.contains(&format!(
            "{{\"name\":\"coalesce\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":10,\"pid\":42,\
             \"tid\":1,\"id\":{flow_id}}}"
        )));
        assert!(json.contains(&format!(
            "{{\"name\":\"coalesce\",\"cat\":\"flow\",\"ph\":\"f\",\"ts\":100,\"pid\":42,\
             \"tid\":0,\"id\":{flow_id},\"bp\":\"e\"}}"
        )));
        assert!(json.ends_with("\n]}\n"));
    }

    #[test]
    fn output_is_reproducible() {
        static A: Site = Site::new("a", "request", &["f"]);
        let build = || {
            let mut t = Tracer::new();
            t.begin_visit(7, "x");
            t.complete(&A, 1, 2, &[Arg::F64(1.25)]);
            to_chrome_json(&t)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut t = Tracer::new();
        t.begin_visit(1, "q\"uote\nline");
        let json = to_chrome_json(&t);
        assert!(json.contains(r#"q\"uote\nline"#));
    }

    #[test]
    fn escapes_the_host_of_an_indexed_name() {
        // What `escape(&format!("req {} {}", 12, host))` produced when
        // the name was a `String`.
        let host = "a\"b\nc\u{1}\\d";
        let mut t = Tracer::new();
        t.begin_visit(1, "x");
        t.name_conn(1, 3, host);
        t.complete_indexed(&REQ, (12, host), 5, 6, &[Arg::Str(host)]);
        let json = to_chrome_json(&t);
        let escaped = r#"a\"b\nc\u0001\\d"#;
        assert!(json.contains(&format!("\"args\":{{\"name\":\"conn 3 {escaped}\"}}}}")));
        assert!(json.contains(&format!(
            "{{\"name\":\"req 12 {escaped}\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":5,\"pid\":1,\
             \"tid\":0,\"dur\":6,\"args\":{{\"host\":\"{escaped}\"}}}}"
        )));
    }
}
