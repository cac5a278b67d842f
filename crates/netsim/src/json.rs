//! The workspace's one JSON writer: tokens appended to a `String`.
//!
//! Every export — metrics registry, timeline, flight snapshots, HAR,
//! Chrome trace, comparison reports, figure series — is a byte-pinned
//! file, and the committed ones use five different whitespace
//! conventions. So there is no `Value` tree and no pretty-printer
//! here: an emitter keeps its layout as literal strings and hands
//! every string, number and separator to this module, the only place
//! that knows JSON's lexical rules (DESIGN.md §21).

use std::fmt::Write;

/// Append `s` to `out`, escaped for embedding in a JSON string.
pub fn escape_into(out: &mut String, s: &str) {
    // Everything escaped is one ASCII byte, so the runs between them
    // are copied whole.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        out.push_str(escape);
        if escape.is_empty() {
            // Writing to a `String` cannot fail.
            let _ = write!(out, "\\u{b:04x}");
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Append `s` as a JSON string: quoted and escaped.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append `n` in decimal: what `write!(out, "{n}")` appends, without
/// the formatter.
pub fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] += (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Append `n` in decimal, with its sign.
pub fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Append `x` in its shortest round-trip form; JSON has no non-finite
/// numbers, so those become `null`.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Append `x` with exactly `decimals` fractional digits (`null` when
/// non-finite): derived rates and percentages, whose inputs are exact
/// but whose last bits need not be part of a pinned file.
pub fn push_fixed(out: &mut String, x: f64, decimals: usize) {
    if x.is_finite() {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{x:.decimals$}");
    } else {
        out.push_str("null");
    }
}

/// Append `true` or `false`.
pub fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Append every item through `item`, with `sep` between consecutive
/// ones — the members of an array or object in whatever layout the
/// caller's `sep` spells (`","`, `", "`, `",\n"`).
pub fn push_joined<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    sep: &str,
    mut item: impl FnMut(&mut String, T),
) {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        item(out, x);
    }
}

/// [`push_joined`], streamed: each item, the separator ahead of it
/// included, is rendered into one reused buffer and written to `w`
/// before the next one is rendered, so the array is never held whole.
pub fn write_joined<T>(
    w: &mut impl std::io::Write,
    items: impl IntoIterator<Item = T>,
    sep: &str,
    mut item: impl FnMut(&mut String, T),
) -> std::io::Result<()> {
    let mut buf = String::new();
    for (i, x) in items.into_iter().enumerate() {
        buf.clear();
        if i > 0 {
            buf.push_str(sep);
        }
        item(&mut buf, x);
        w.write_all(buf.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_every_control_character() {
        assert_eq!(
            written(|o| push_str(o, "q\"uote\nline")),
            "\"q\\\"uote\\nline\""
        );
        assert_eq!(
            written(|o| escape_into(o, "a\"b\nc\u{1}\\d\r\te")),
            "a\\\"b\\nc\\u0001\\\\d\\r\\te"
        );
        for b in 0u8..0x20 {
            let s = written(|o| escape_into(o, &char::from(b).to_string()));
            assert!(s.starts_with('\\') && s.is_ascii(), "{b:#x} -> {s:?}");
            assert!(
                s.len() == 2 || s == format!("\\u{b:04x}"),
                "{b:#x} -> {s:?}"
            );
        }
        // DEL and non-ASCII pass through: JSON only reserves U+0000–U+001F.
        assert_eq!(
            written(|o| escape_into(o, "\u{7f}é\u{2028}𝄞")),
            "\u{7f}é\u{2028}𝄞"
        );
        assert_eq!(written(|o| push_str(o, "")), "\"\"");
    }

    #[test]
    fn integers_match_the_formatter() {
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(written(|o| push_u64(o, n)), n.to_string());
        }
        for n in [0, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(written(|o| push_i64(o, n)), n.to_string());
        }
    }

    #[test]
    fn floats_are_shortest_round_trip_or_null() {
        for (x, want) in [
            (0.0, "0.0"),
            (1.25, "1.25"),
            (-3.0, "-3.0"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e21, "1e21"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(written(|o| push_f64(o, x)), want);
        }
    }

    #[test]
    fn fixed_precision_rounds_and_pads() {
        assert_eq!(written(|o| push_fixed(o, 12.5, 3)), "12.500");
        assert_eq!(written(|o| push_fixed(o, 0.123_456_789, 6)), "0.123457");
        assert_eq!(written(|o| push_fixed(o, -1.0, 4)), "-1.0000");
        assert_eq!(written(|o| push_fixed(o, 2.5, 0)), "2");
        assert_eq!(written(|o| push_fixed(o, f64::NAN, 3)), "null");
    }

    #[test]
    fn joins_with_the_callers_separator() {
        let join =
            |xs: &[u64], sep: &str| written(|o| push_joined(o, xs, sep, |o, &x| push_u64(o, x)));
        assert_eq!(join(&[], ", "), "");
        assert_eq!(join(&[7], ", "), "7");
        assert_eq!(join(&[1, 2, 3], ", "), "1, 2, 3");
        assert_eq!(join(&[1, 2], ",\n"), "1,\n2");
        for xs in [&[][..], &[7], &[1, 2, 3]] {
            let mut streamed = Vec::new();
            write_joined(&mut streamed, xs, ", ", |o, &x| push_u64(o, x)).unwrap();
            assert_eq!(String::from_utf8(streamed).unwrap(), join(xs, ", "));
        }
        assert_eq!(written(|o| push_bool(o, true)), "true");
        assert_eq!(written(|o| push_bool(o, false)), "false");
    }
}
