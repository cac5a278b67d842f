//! Validated DNS names.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A validated, normalized (lowercase, no trailing dot) DNS hostname.
///
/// Validation follows the RFC 1035 preferred-name syntax with the
/// modern allowance for digits-first labels and underscores (seen in
/// service names like `_dns.resolver.arpa`): labels are 1–63 octets of
/// `[a-z0-9_-]`, not starting or ending with `-`, full name ≤253
/// octets. A leading `*` label is allowed so the same type can carry
/// certificate wildcard patterns (`*.example.com`).
///
/// The normalized text is held in a shared `Arc<str>`: hostnames are
/// cloned on every generated resource, every request record, and every
/// certificate SAN, and an atomic refcount bump there beats a heap
/// copy. The derived impls still delegate to the string contents
/// (`Hash`/`Eq`/`Ord` of `Arc<T>` forward to `T`), so nothing about
/// ordering, hashing, or the `Borrow<str>` probe contract changes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DnsName(Arc<str>);

/// Why a string failed to parse as a [`DnsName`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// Empty input or empty label (consecutive dots).
    EmptyLabel,
    /// Name exceeds 253 octets.
    TooLong,
    /// A label exceeds 63 octets.
    LabelTooLong,
    /// A label contains a character outside `[a-z0-9_-]`.
    BadCharacter(char),
    /// A label starts or ends with a hyphen.
    BadHyphen,
    /// `*` appears somewhere other than as the entire leftmost label.
    BadWildcard,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty name or label"),
            NameError::TooLong => write!(f, "name longer than 253 octets"),
            NameError::LabelTooLong => write!(f, "label longer than 63 octets"),
            NameError::BadCharacter(c) => write!(f, "invalid character {c:?}"),
            NameError::BadHyphen => write!(f, "label starts or ends with '-'"),
            NameError::BadWildcard => write!(f, "wildcard must be the entire leftmost label"),
        }
    }
}

impl std::error::Error for NameError {}

impl DnsName {
    /// Parse and normalize a hostname.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        // Generated names arrive lowercase: validated in place, their
        // shared text is the only allocation.
        let lower: Cow<str> = if s.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(s.to_ascii_lowercase())
        } else {
            Cow::Borrowed(s)
        };
        if lower.len() > 253 {
            return Err(NameError::TooLong);
        }
        for (i, label) in lower.split('.').enumerate() {
            if label.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if label.len() > 63 {
                return Err(NameError::LabelTooLong);
            }
            if label == "*" {
                if i != 0 {
                    return Err(NameError::BadWildcard);
                }
                continue;
            }
            if label.contains('*') {
                return Err(NameError::BadWildcard);
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(NameError::BadHyphen);
            }
            for c in label.chars() {
                if !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_') {
                    return Err(NameError::BadCharacter(c));
                }
            }
        }
        Ok(DnsName(Arc::from(&*lower)))
    }

    /// The normalized name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Labels from leftmost to rightmost.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }

    /// True when the leftmost label is `*`.
    pub fn is_wildcard(&self) -> bool {
        self.0.starts_with("*.")
    }

    /// The name with the leftmost label removed
    /// (`a.b.example.com → b.example.com`), or `None` for a
    /// single-label name.
    pub fn parent(&self) -> Option<DnsName> {
        self.parent_str().map(|rest| DnsName(Arc::from(rest)))
    }

    /// [`DnsName::parent`] as a borrowed slice of this name — the
    /// allocation-free form the per-request hot path (SAN wildcard
    /// matching, certificate fallback walks) uses.
    pub fn parent_str(&self) -> Option<&str> {
        self.0.split_once('.').map(|(_, rest)| rest)
    }

    /// The registrable domain under a simplified public-suffix model:
    /// the last two labels, or three when the name ends with a common
    /// two-part suffix such as `co.uk` / `com.au`. Good enough for
    /// grouping sharded subdomains by site, which is all the dataset
    /// characterization needs.
    pub fn registrable(&self) -> DnsName {
        let r = self.registrable_str();
        if r.len() == self.0.len() {
            self.clone()
        } else {
            DnsName(Arc::from(r))
        }
    }

    /// [`DnsName::registrable`] as a borrowed suffix of this name.
    /// The registrable domain is always a label-aligned suffix, so
    /// the hot-path colocation checks can compare slices (or interned
    /// ids of them) without allocating.
    pub fn registrable_str(&self) -> &str {
        const TWO_PART_SUFFIXES: &[&str] = &[
            "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au", "org.au", "co.jp", "ne.jp",
            "or.jp", "com.br", "com.cn", "com.mx", "co.in", "co.kr", "co.za",
        ];
        // Walk dots from the right: find the start of the last two,
        // then (for two-part public suffixes) the last three labels.
        let s: &str = &self.0;
        let Some(last_dot) = s.rfind('.') else {
            return s; // single label
        };
        let Some(second_dot) = s[..last_dot].rfind('.') else {
            return s; // exactly two labels
        };
        let last_two = &s[second_dot + 1..];
        if !TWO_PART_SUFFIXES.contains(&last_two) {
            return last_two;
        }
        match s[..second_dot].rfind('.') {
            Some(third_dot) => &s[third_dot + 1..],
            None => s, // exactly three labels ending in a two-part suffix
        }
    }

    /// Wire-format encoded length in bytes: one length octet per label
    /// plus the label bytes plus the root octet. Each dot of the text
    /// stands in for the next label's length octet, so that is the text
    /// plus the first label's octet and the root's. Used for
    /// certificate SAN size accounting.
    pub fn wire_len(&self) -> usize {
        self.0.len() + 2
    }
}

impl FromStr for DnsName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::parse(s)
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for DnsName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// `DnsName` hashes and compares exactly like its normalized string
/// (the derived impls delegate to the inner `String`), so maps keyed
/// by `DnsName` can be probed with a borrowed `&str` — which is what
/// lets the zone wildcard walk try successive suffixes without
/// allocating a name per level.
impl std::borrow::Borrow<str> for DnsName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Parse a name, panicking on failure — for literals in tests and
/// generators where the input is known valid.
pub fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap_or_else(|e| panic!("invalid DNS name {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        let n = DnsName::parse("WWW.Example.COM.").unwrap();
        assert_eq!(n.as_str(), "www.example.com");
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(DnsName::parse(""), Err(NameError::EmptyLabel));
        assert_eq!(DnsName::parse("a..b"), Err(NameError::EmptyLabel));
        assert_eq!(
            DnsName::parse("exa mple.com"),
            Err(NameError::BadCharacter(' '))
        );
        assert_eq!(DnsName::parse("-bad.com"), Err(NameError::BadHyphen));
        assert_eq!(DnsName::parse("bad-.com"), Err(NameError::BadHyphen));
        assert!(matches!(
            DnsName::parse(&"a".repeat(64)),
            Err(NameError::LabelTooLong)
        ));
        let long = format!("{}.com", "a.".repeat(130));
        assert!(DnsName::parse(&long).is_err());
    }

    #[test]
    fn wildcard_rules() {
        assert!(DnsName::parse("*.example.com").unwrap().is_wildcard());
        assert!(!name("www.example.com").is_wildcard());
        assert_eq!(DnsName::parse("www.*.com"), Err(NameError::BadWildcard));
        assert_eq!(
            DnsName::parse("w*w.example.com"),
            Err(NameError::BadWildcard)
        );
    }

    #[test]
    fn underscore_labels_allowed() {
        assert!(DnsName::parse("_dns.resolver.arpa").is_ok());
    }

    #[test]
    fn parent_drops_the_first_label() {
        let n = name("a.b.example.com");
        assert_eq!(n.parent().unwrap(), name("b.example.com"));
        assert_eq!(name("com").parent(), None);
    }

    #[test]
    fn registrable_domain() {
        assert_eq!(
            name("images.shop.example.com").registrable(),
            name("example.com")
        );
        assert_eq!(name("example.com").registrable(), name("example.com"));
        assert_eq!(name("www.bbc.co.uk").registrable(), name("bbc.co.uk"));
        assert_eq!(name("bbc.co.uk").registrable(), name("bbc.co.uk"));
        assert_eq!(name("com").registrable(), name("com"));
    }

    #[test]
    fn wire_len_counts_label_octets() {
        // www(3)+1 example(7)+1 com(3)+1 + root(1) = 17
        assert_eq!(name("www.example.com").wire_len(), 17);
        // *(1)+1 a(1)+1 com(3)+1 + root(1) = 9
        assert_eq!(name("*.a.com").wire_len(), 9);
    }

    #[test]
    fn display_and_fromstr() {
        let n: DnsName = "Example.COM".parse().unwrap();
        assert_eq!(n.to_string(), "example.com");
    }

    /// Fx hashes each of these pairs to one 64-bit value (see
    /// `origin_netsim::hash`); a map keyed by names still tells them
    /// apart.
    #[test]
    fn fx_colliding_names_round_trip() {
        use origin_netsim::hash::{FxBuildHasher, FxHashMap};
        use std::hash::BuildHasher;
        let pairs = [
            ("static.site-000881.com", "static.site-000031.com"),
            ("static.site-001841.com", "static.site-001091.com"),
        ];
        let fx = |n: &DnsName| FxBuildHasher::default().hash_one(n);
        let mut map = FxHashMap::default();
        for (a, b) in pairs.map(|(a, b)| (name(a), name(b))) {
            assert_eq!(fx(&a), fx(&b), "{a} {b}");
            map.insert(a.clone(), a);
            map.insert(b.clone(), b);
        }
        assert_eq!(map.len(), 4);
        for n in pairs.iter().flat_map(|&(a, b)| [a, b]) {
            assert_eq!(map.get(n).map(DnsName::as_str), Some(n));
        }
    }
}
