//! Subject Alternative Name matching (RFC 6125 rules).

use origin_dns::DnsName;

/// Does the wildcard `pattern` (e.g. `*.example.com`) match `name`?
///
/// RFC 6125 §6.4.3 rules as implemented by browsers:
/// - the wildcard covers exactly **one** left-most label
///   (`*.example.com` matches `www.example.com` but neither
///   `example.com` nor `a.b.example.com`);
/// - the wildcard must be the entire left-most label (enforced at
///   [`DnsName`] parse time);
/// - matching is case-insensitive (names are normalized lowercase).
pub fn wildcard_matches(pattern: &DnsName, name: &DnsName) -> bool {
    if !pattern.is_wildcard() {
        return false;
    }
    let Some(parent) = pattern.parent_str() else {
        return false;
    };
    match name.parent_str() {
        Some(name_parent) => name_parent == parent,
        None => false,
    }
}

/// Does `entry` (exact name or wildcard pattern) cover `name`?
pub fn covers(entry: &DnsName, name: &DnsName) -> bool {
    if entry.is_wildcard() {
        wildcard_matches(entry, name)
    } else {
        entry == name
    }
}

/// Does any entry of a SAN list cover `name`?
pub fn any_covers<'a, I: IntoIterator<Item = &'a DnsName>>(entries: I, name: &DnsName) -> bool {
    entries.into_iter().any(|e| covers(e, name))
}

/// The index `i` when `name`'s first label is a filler label `alt-{i}`
/// as [`filler_name`] spells it (decimal `u16`, no leading zero), else
/// `None`.
pub(crate) fn filler_index(name: &DnsName) -> Option<u16> {
    let digits = name.labels().next()?.strip_prefix("alt-")?;
    let canonical =
        digits.bytes().all(|b| b.is_ascii_digit()) && (digits == "0" || !digits.starts_with('0'));
    digits.parse().ok().filter(|_| canonical)
}

/// Filler name `i` of a certificate for `subject`: `alt-{i}.{subject}`.
pub fn filler_name(i: u16, subject: &DnsName) -> DnsName {
    origin_dns::name::name(&format!("alt-{i}.{subject}"))
}

/// SAN-extension bytes of the filler names `alt-{i}.{subject}` for
/// `i < n`: each is its wire length plus 2 bytes of tag and length,
/// `subject.len() + digits(i) + 9`, summed one decimal-width band at a
/// time (`0..10`, `10..100`, …) instead of rendering any name.
pub fn filler_bytes(n: u16, subject: &DnsName) -> u64 {
    let n = u64::from(n);
    let mut digits = 0;
    let (mut lo, mut width) = (0, 1);
    while lo < n {
        let hi = 10u64.pow(width as u32).min(n);
        digits += (hi - lo) * width;
        (lo, width) = (hi, width + 1);
    }
    n * (subject.as_str().len() as u64 + 9) + digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;

    #[test]
    fn wildcard_matches_one_label() {
        let p = name("*.example.com");
        assert!(wildcard_matches(&p, &name("www.example.com")));
        assert!(wildcard_matches(&p, &name("api.example.com")));
    }

    #[test]
    fn wildcard_does_not_match_parent() {
        let p = name("*.example.com");
        assert!(!wildcard_matches(&p, &name("example.com")));
    }

    #[test]
    fn wildcard_does_not_match_nested() {
        let p = name("*.example.com");
        assert!(!wildcard_matches(&p, &name("a.b.example.com")));
    }

    #[test]
    fn wildcard_does_not_match_sibling() {
        let p = name("*.example.com");
        assert!(!wildcard_matches(&p, &name("www.example.org")));
        assert!(!wildcard_matches(&p, &name("www.badexample.com")));
    }

    #[test]
    fn non_wildcard_pattern_never_wildcard_matches() {
        assert!(!wildcard_matches(
            &name("www.example.com"),
            &name("www.example.com")
        ));
    }

    #[test]
    fn covers_exact_and_wildcard() {
        assert!(covers(&name("www.example.com"), &name("www.example.com")));
        assert!(!covers(&name("www.example.com"), &name("api.example.com")));
        assert!(covers(&name("*.example.com"), &name("api.example.com")));
    }

    #[test]
    fn any_covers_list() {
        let sans = vec![name("example.com"), name("*.example.com")];
        assert!(any_covers(&sans, &name("example.com")));
        assert!(any_covers(&sans, &name("cdn.example.com")));
        assert!(!any_covers(&sans, &name("x.cdn.example.com")));
        let empty: Vec<DnsName> = vec![];
        assert!(!any_covers(&empty, &name("example.com")));
    }
}
