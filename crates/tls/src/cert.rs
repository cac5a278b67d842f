//! Leaf certificates and their wire-size model.

use crate::san;
use origin_dns::DnsName;
use std::sync::Arc;

/// Subject public key algorithm. Key type dominates base certificate
/// size: RSA-2048 leaves are ≈400 bytes larger than ECDSA P-256 ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyType {
    /// RSA with 2048-bit modulus.
    Rsa2048,
    /// ECDSA over P-256 — what the deployment CDN issues by default.
    EcdsaP256,
}

/// A leaf (end-entity) certificate.
///
/// Validity is measured in abstract days since an epoch so the model
/// does not depend on wall-clock time.
///
/// The SAN list is, in order: the subject and `*.{subject}` as two
/// flags, the other names, then the filler names as a count. Every
/// constructor normalises (`*.{subject}` is a flag only right after
/// the subject), so equal certificates list equal names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Unique serial number assigned by the issuing CA.
    pub serial: u64,
    /// Subject common name.
    pub subject: DnsName,
    /// The other listed SANs (exact names and wildcard patterns).
    pub(crate) sans: Vec<DnsName>,
    /// The subject is the first SAN (false only when CN-only).
    pub(crate) subject_listed: bool,
    /// `*.{subject}` is listed right after the subject.
    pub(crate) wildcard_listed: bool,
    /// Filler SANs held as a count: the names `alt-{i}.{subject}` for
    /// `i < filler`, listed after every other name (see
    /// [`Certificate::san_names`]). Operators pad certificates with
    /// names no page requests; the size and coverage model reads them,
    /// nothing else does, so none is stored.
    pub filler: u16,
    /// Display name of the issuing CA (Table 4 vocabulary). Shared:
    /// every connection that validates this certificate records the
    /// issuer by cloning the handle, not the text.
    pub issuer: Arc<str>,
    /// First valid day (inclusive).
    pub not_before_day: u32,
    /// Last valid day (inclusive).
    pub not_after_day: u32,
    /// Subject key algorithm.
    pub key_type: KeyType,
}

impl Certificate {
    /// A certificate for `subject` listing the subject alone.
    pub(crate) fn for_subject(subject: DnsName, issuer: Arc<str>, key_type: KeyType) -> Self {
        Certificate {
            serial: 0,
            subject,
            sans: Vec::new(),
            subject_listed: true,
            wildcard_listed: false,
            filler: 0,
            issuer,
            not_before_day: 0,
            not_after_day: 90,
            key_type,
        }
    }

    /// Does this certificate cover `name` (exact or wildcard SAN, or
    /// one of its filler names)?
    pub fn covers(&self, name: &DnsName) -> bool {
        (self.subject_listed && *name == self.subject)
            || (self.wildcard_listed && name.parent_str() == Some(self.subject.as_str()))
            || san::any_covers(&self.sans, name)
            || self.covers_as_filler(name)
    }

    /// Is `name` one of the filler names `alt-{i}.{subject}`?
    pub(crate) fn covers_as_filler(&self, name: &DnsName) -> bool {
        san::filler_index(name).is_some_and(|i| i < self.filler)
            && name.parent_str() == Some(self.subject.as_str())
    }

    /// Is `name` the subject's wildcard `*.{subject}`?
    pub(crate) fn is_subject_wildcard(&self, name: &DnsName) -> bool {
        name.is_wildcard() && name.parent_str() == Some(self.subject.as_str())
    }

    /// List `name` after the listed names unless it is one of them or
    /// one of the filler names. A `*.{subject}` right after the subject
    /// becomes its flag.
    pub(crate) fn list(&mut self, name: &DnsName) {
        let wildcard = self.is_subject_wildcard(name);
        let listed = (self.subject_listed && *name == self.subject)
            || (self.wildcard_listed && wildcard)
            || self.sans.contains(name)
            || self.covers_as_filler(name);
        if wildcard && self.subject_listed && !self.wildcard_listed && self.sans.is_empty() {
            self.wildcard_listed = true;
        } else if !listed {
            self.sans.push(name.clone());
        }
    }

    /// List no SAN at all: a CN-only certificate.
    pub fn clear_sans(&mut self) {
        self.sans = Vec::new();
        (self.subject_listed, self.wildcard_listed, self.filler) = (false, false, 0);
    }

    /// Number of DNS SAN entries.
    pub fn san_count(&self) -> usize {
        usize::from(self.subject_listed)
            + usize::from(self.wildcard_listed)
            + self.sans.len()
            + usize::from(self.filler)
    }

    /// The listed SANs in certificate order, filler names aside: the
    /// subject and its wildcard when listed, then the other names.
    /// The wildcard is built on demand.
    pub fn listed_names(&self) -> impl Iterator<Item = DnsName> + '_ {
        let subject = self.subject_listed.then(|| self.subject.clone());
        let wildcard = self
            .wildcard_listed
            .then(|| origin_dns::name::name(&format!("*.{}", self.subject)));
        subject
            .into_iter()
            .chain(wildcard)
            .chain(self.sans.iter().cloned())
    }

    /// Every SAN in certificate order: the listed names, then the
    /// filler names. A filler name is built on demand; nothing on a
    /// request path asks for one.
    pub fn san_names(&self) -> impl Iterator<Item = DnsName> + '_ {
        let filler = (0..self.filler).map(|i| san::filler_name(i, &self.subject));
        self.listed_names().chain(filler)
    }

    /// Estimated DER-encoded size in bytes.
    ///
    /// Calibrated against real leaf certificates: an ECDSA P-256 leaf
    /// with a handful of SANs is ≈1.0 KB, RSA-2048 ≈1.4 KB, and each
    /// SAN entry adds its dNSName encoding (wire length + 2 bytes of
    /// ASN.1 tag/length overhead). This is the quantity the §6.5
    /// 16 KB-record analysis needs: `10000-sans.badssl.com`-style
    /// certificates blow through multiple records.
    pub fn wire_size(&self) -> u64 {
        let base: u64 = match self.key_type {
            KeyType::Rsa2048 => 1_000,
            KeyType::EcdsaP256 => 600,
        };
        // tbsCertificate skeleton + signature + issuer/subject RDNs.
        let skeleton: u64 = 380;
        base + skeleton + self.san_bytes()
    }

    /// Byte length of the encoded SAN extension alone — what the §5.1
    /// equal-byte-padding experiment design controls for (Figure 6).
    pub fn san_bytes(&self) -> u64 {
        // `*.{subject}` is two bytes longer on the wire than the subject.
        let subject = self.subject.wire_len() as u64 + 2;
        let rules = u64::from(self.subject_listed) * subject
            + u64::from(self.wildcard_listed) * (subject + 2);
        let listed: u64 = self.sans.iter().map(|n| n.wire_len() as u64 + 2).sum();
        rules + listed + san::filler_bytes(self.filler, &self.subject)
    }
}

/// Builder for certificates outside the CA issuance path (tests,
/// synthetic dataset bootstrap).
#[derive(Debug, Clone)]
pub struct CertificateBuilder {
    cert: Certificate,
}

impl CertificateBuilder {
    /// Start building a certificate for `subject`. The subject is
    /// automatically the first SAN.
    pub fn new(subject: DnsName) -> Self {
        CertificateBuilder {
            cert: Certificate::for_subject(subject, "Test CA".into(), KeyType::EcdsaP256),
        }
    }

    /// Add a SAN entry (deduplicated, order-preserving).
    pub fn san(mut self, name: DnsName) -> Self {
        self.cert.list(&name);
        self
    }

    /// Add many SAN entries.
    pub fn sans<I: IntoIterator<Item = DnsName>>(self, names: I) -> Self {
        names.into_iter().fold(self, Self::san)
    }

    /// List `n` filler names after the SANs (see
    /// [`Certificate::filler`]). A listed SAN that is one of them is
    /// listed once, as filler.
    pub fn filler(mut self, n: u16) -> Self {
        self.cert.filler = n;
        for name in std::mem::take(&mut self.cert.sans) {
            self.cert.list(&name);
        }
        self
    }

    /// Set the issuer display name.
    pub fn issuer(mut self, issuer: &str) -> Self {
        self.cert.issuer = issuer.into();
        self
    }

    /// Set the validity window in days.
    pub fn validity(mut self, not_before_day: u32, not_after_day: u32) -> Self {
        assert!(not_before_day <= not_after_day, "inverted validity window");
        self.cert.not_before_day = not_before_day;
        self.cert.not_after_day = not_after_day;
        self
    }

    /// Set the key type.
    pub fn key_type(mut self, kt: KeyType) -> Self {
        self.cert.key_type = kt;
        self
    }

    /// Set the serial number.
    pub fn serial(mut self, serial: u64) -> Self {
        self.cert.serial = serial;
        self
    }

    /// Finish.
    pub fn build(self) -> Certificate {
        self.cert
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;

    fn cert() -> Certificate {
        CertificateBuilder::new(name("www.example.com"))
            .san(name("example.com"))
            .san(name("*.static.example.com"))
            .build()
    }

    #[test]
    fn subject_is_first_san() {
        let c = cert();
        assert_eq!(c.san_names().next(), Some(name("www.example.com")));
        assert_eq!(c.san_count(), 3);
    }

    #[test]
    fn covers_exact_and_wildcard_sans() {
        let c = cert();
        assert!(c.covers(&name("www.example.com")));
        assert!(c.covers(&name("example.com")));
        assert!(c.covers(&name("img.static.example.com")));
        assert!(!c.covers(&name("static.example.com")));
        assert!(!c.covers(&name("evil.com")));
    }

    #[test]
    fn builder_dedupes_sans() {
        let c = CertificateBuilder::new(name("a.com"))
            .san(name("a.com"))
            .sans(vec![name("b.com"), name("b.com")])
            .build();
        assert_eq!(c.san_count(), 2);
    }

    #[test]
    #[should_panic(expected = "inverted validity")]
    fn inverted_validity_panics() {
        CertificateBuilder::new(name("a.com")).validity(5, 1);
    }

    #[test]
    fn wire_size_grows_with_sans() {
        let small = CertificateBuilder::new(name("a.com")).build();
        let big = CertificateBuilder::new(name("a.com"))
            .sans((0..100).map(|i| name(&format!("host{i}.a.com"))))
            .build();
        assert!(big.wire_size() > small.wire_size());
        assert!(small.wire_size() < 1_200);
    }

    #[test]
    fn rsa_larger_than_ecdsa() {
        let e = CertificateBuilder::new(name("a.com"))
            .key_type(KeyType::EcdsaP256)
            .build();
        let r = CertificateBuilder::new(name("a.com"))
            .key_type(KeyType::Rsa2048)
            .build();
        assert!(r.wire_size() > e.wire_size());
    }

    #[test]
    fn huge_san_cert_spans_multiple_records() {
        // ~800 SANs with ~27-byte names ≈ 23 KB: the §6.5 regime where
        // the certificate no longer fits one 16 KB TLS record.
        let big = CertificateBuilder::new(name("a.com"))
            .sans((0..800).map(|i| name(&format!("subdomain-label-{i:04}.a.com"))))
            .build();
        assert!(big.wire_size() > 16 * 1024, "bytes={}", big.wire_size());
    }

    #[test]
    fn san_bytes_matches_equal_length_names() {
        // The §5.1 design: control and experiment add same-length
        // third-party names so SAN byte deltas are identical.
        let exp = CertificateBuilder::new(name("site.com"))
            .san(name("unpopular.resource.com"))
            .build();
        let ctl = CertificateBuilder::new(name("site.com"))
            .san(name("00popular.resource.com"))
            .build();
        assert_eq!(exp.san_bytes(), ctl.san_bytes());
    }

    /// A certificate whose filler names are a count agrees with its
    /// twin that lists them on everything the model reads: coverage,
    /// SAN count, SAN bytes and wire size, and the names themselves.
    #[test]
    fn filler_sans_match_the_listed_names() {
        use origin_netsim::SimRng;
        let mut rng = SimRng::seed_from_u64(0xF111);
        let label = |rng: &mut SimRng| -> String {
            let len = rng.range_u64(1, 9) as usize;
            (0..len)
                .map(|_| (b'a' + rng.range_u64(0, 26) as u8) as char)
                .collect()
        };
        // Every decimal-width edge, then uniform draws.
        let edges = [0u16, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 2000];
        for round in 0..96 {
            let n = match edges.get(round) {
                Some(&n) => n,
                None => rng.range_u64(0, 2_001) as u16,
            };
            let labels = 1 + rng.range_u64(1, 3) as usize;
            let subject: Vec<String> = (0..labels).map(|_| label(&mut rng)).collect();
            let subject = name(&subject.join("."));
            let mut extra = Vec::new();
            if rng.chance(0.5) {
                extra.push(name(&format!("*.{subject}")));
            }
            if rng.chance(0.5) {
                extra.push(name(&format!("www.{subject}")));
            }
            let filler = CertificateBuilder::new(subject.clone())
                .sans(extra.iter().cloned())
                .filler(n)
                .build();
            let listed = CertificateBuilder::new(subject.clone())
                .sans(extra.iter().cloned())
                .sans((0..n).map(|i| name(&format!("alt-{i}.{subject}"))))
                .build();
            assert_eq!(filler.san_count(), listed.san_count(), "{subject} {n}");
            assert_eq!(filler.san_bytes(), listed.san_bytes(), "{subject} {n}");
            assert_eq!(filler.wire_size(), listed.wire_size(), "{subject} {n}");
            assert!(filler.san_names().eq(listed.listed_names()));
            let last = n.saturating_sub(1);
            let probes = [
                format!("alt-0.{subject}"),
                format!("alt-{last}.{subject}"),
                format!("alt-{n}.{subject}"),
                format!("alt-{}.{subject}", n.saturating_add(1)),
                format!("alt-01.{subject}"),
                format!("alt-00.{subject}"),
                format!("alt--1.{subject}"),
                format!("alt-0x.{subject}"),
                format!("alt-65536.{subject}"),
                format!("alt-0.www.{subject}"),
                format!("alt-0.x{subject}"),
                format!("alt-0.{}", subject.parent_str().unwrap_or("com")),
                format!("alt.{subject}"),
                format!("www.{subject}"),
                subject.to_string(),
            ];
            for probe in probes {
                let probe = name(&probe);
                assert_eq!(
                    filler.covers(&probe),
                    listed.covers(&probe),
                    "{probe} n={n}"
                );
            }
        }
    }

    #[test]
    fn filler_names_follow_the_listed_sans() {
        let c = CertificateBuilder::new(name("a.com"))
            .san(name("*.a.com"))
            .filler(3)
            .build();
        let names: Vec<String> = c.san_names().map(|n| n.to_string()).collect();
        assert_eq!(
            names,
            [
                "a.com",
                "*.a.com",
                "alt-0.a.com",
                "alt-1.a.com",
                "alt-2.a.com"
            ]
        );
        assert!(c.sans.is_empty(), "the subject and its wildcard are rules");
        assert_eq!(c.san_count(), 5);
    }

    /// An extra SAN that is one of the filler names is listed once, as
    /// filler, whether the builder sees it before or after the count —
    /// as the CA lists it.
    #[test]
    fn builder_and_ca_list_a_filler_named_extra_once() {
        use crate::ca::{CertificateAuthority, KnownIssuer};
        use crate::ctlog::CtLogSet;
        let mut ct = CtLogSet::default_operators();
        let mut ca = CertificateAuthority::new(KnownIssuer::LetsEncrypt);
        let a = name("a.com");
        for extras in [
            vec![name("alt-0.a.com")],
            vec![name("alt-1.a.com"), name("*.a.com"), name("www.a.com")],
            vec![name("www.a.com"), name("alt-0.a.com"), name("alt-2.a.com")],
        ] {
            let issued = ca
                .issue_with_filler(a.clone(), &extras, 2, 0, &mut ct)
                .unwrap();
            let before = CertificateBuilder::new(a.clone())
                .sans(extras.iter().cloned())
                .filler(2)
                .build();
            let after = CertificateBuilder::new(a.clone())
                .filler(2)
                .sans(extras.iter().cloned())
                .build();
            for c in [&before, &after] {
                assert_eq!(c.san_count(), issued.san_count(), "{extras:?}");
                assert!(c.san_names().eq(issued.san_names()), "{extras:?}");
                assert_eq!(c.san_bytes(), issued.san_bytes(), "{extras:?}");
                assert_eq!(
                    (&c.sans, c.wildcard_listed),
                    (&issued.sans, issued.wildcard_listed),
                    "{extras:?}"
                );
            }
        }
        let c = CertificateBuilder::new(a)
            .san(name("alt-0.a.com"))
            .filler(1)
            .build();
        assert_eq!(c.san_count(), 2);
    }

    /// A certificate as it was stored when every listed SAN was a `Vec`
    /// entry: the subject, then each extra not listed yet nor one of the
    /// filler names, then `filler` filler names.
    struct Listed {
        subject: DnsName,
        sans: Vec<DnsName>,
        filler: u16,
    }

    impl Listed {
        fn new(subject: &DnsName, extras: &[DnsName], filler: u16) -> Self {
            let mut t = Listed {
                subject: subject.clone(),
                sans: vec![subject.clone()],
                filler,
            };
            for n in extras {
                if !(t.sans.contains(n) || t.is_filler(n)) {
                    t.sans.push(n.clone());
                }
            }
            t
        }

        fn is_filler(&self, n: &DnsName) -> bool {
            san::filler_index(n).is_some_and(|i| i < self.filler)
                && n.parent_str() == Some(self.subject.as_str())
        }

        fn check(&self, c: &Certificate, probes: &[DnsName], at: &str) {
            let filler = (0..self.filler).map(|i| san::filler_name(i, &self.subject));
            let names: Vec<DnsName> = self.sans.iter().cloned().chain(filler).collect();
            let bytes: u64 = names.iter().map(|n| n.wire_len() as u64 + 2).sum();
            let base = match c.key_type {
                KeyType::Rsa2048 => 1_000,
                KeyType::EcdsaP256 => 600,
            };
            assert_eq!(c.san_names().collect::<Vec<_>>(), names, "{at}");
            assert_eq!(c.san_count(), names.len(), "{at}");
            assert_eq!(c.san_bytes(), bytes, "{at}");
            assert_eq!(c.wire_size(), base + 380 + bytes, "{at}");
            for p in probes {
                let listed = san::any_covers(&self.sans, p) || self.is_filler(p);
                assert_eq!(c.covers(p), listed, "{at}: {p}");
            }
        }
    }

    /// Certificates from the builder and from CA issuance, whose subject
    /// and wildcard are rules, answer every question the model asks
    /// exactly as their twin listing every name does — whatever the
    /// extras repeat, wherever `*.{subject}` falls among them — and two
    /// certificates are equal exactly when their twins list equal names.
    #[test]
    fn subject_and_wildcard_rules_match_the_listed_names() {
        use crate::ca::{CaError, CertificateAuthority, KnownIssuer};
        use crate::ctlog::CtLogSet;
        use origin_netsim::SimRng;
        let mut rng = SimRng::seed_from_u64(0x5A45);
        let mut ct = CtLogSet::default_operators();
        let mut ca = CertificateAuthority::new(KnownIssuer::LetsEncrypt);
        let (mut equal, mut rules, mut refused) = (0, [0u32; 2], 0);
        for round in 0..600 {
            let labels = 1 + rng.index(3);
            let subject: Vec<String> = (0..labels)
                .map(|_| {
                    let len = 1 + rng.index(6);
                    (0..len)
                        .map(|_| (b'a' + rng.index(4) as u8) as char)
                        .collect()
                })
                .collect();
            let subject = name(&subject.join("."));
            let parent = subject.parent_str().unwrap_or("com");
            let filler = rng.range_u64(0, 110) as u16;
            let pool = [
                subject.to_string(),
                format!("*.{subject}"),
                format!("www.{subject}"),
                format!("*.www.{subject}"),
                format!("alt-0.{subject}"),
                format!("alt-{}.{subject}", rng.range_u64(0, 120)),
                format!("*.{parent}"),
                format!("x.{parent}"),
                "other.net".to_string(),
            ]
            .map(|n| name(&n));
            let draw = |rng: &mut SimRng| -> Vec<DnsName> {
                let n = rng.index(7);
                (0..n).map(|_| rng.choose(&pool).clone()).collect()
            };
            let (extras, others) = (draw(&mut rng), draw(&mut rng));
            let mut probes = pool.to_vec();
            probes.extend(
                [
                    format!("a.{subject}"),
                    format!("b.a.{subject}"),
                    format!("alt-{}.{subject}", filler.saturating_sub(1)),
                    format!("alt-{filler}.{subject}"),
                    parent.to_string(),
                ]
                .map(|n| name(&n)),
            );
            let at = format!("round {round}: {subject} {extras:?} filler {filler}");

            let twin = Listed::new(&subject, &extras, filler);
            let built = |extras: &[DnsName]| {
                CertificateBuilder::new(subject.clone())
                    .sans(extras.iter().cloned())
                    .filler(filler)
                    .build()
            };
            let c = built(&extras);
            twin.check(&c, &probes, &at);
            rules[0] += u32::from(c.wildcard_listed);
            let other = Listed::new(&subject, &others, filler);
            assert_eq!(
                c == built(&others),
                twin.sans == other.sans,
                "{at} vs {others:?}"
            );
            equal += u32::from(twin.sans == other.sans);

            let twin = Listed::new(&subject, &extras, filler);
            let requested = twin.sans.len() + usize::from(filler);
            match ca.issue_with_filler(subject.clone(), &extras, filler, 0, &mut ct) {
                Ok(c) => {
                    twin.check(&c, &probes, &format!("{at} (CA)"));
                    rules[1] += u32::from(c.wildcard_listed);
                }
                Err(e) => {
                    assert_eq!(
                        e,
                        CaError::TooManySans {
                            requested,
                            limit: 100
                        },
                        "{at}"
                    );
                    refused += 1;
                }
            }

            let mut cn_only = c.clone();
            cn_only.clear_sans();
            Listed {
                subject: subject.clone(),
                sans: Vec::new(),
                filler: 0,
            }
            .check(&cn_only, &probes, &format!("{at} (CN only)"));
        }
        assert!(
            equal > 20 && refused > 10,
            "{equal} equal twins, {refused} refused"
        );
        assert!(rules.iter().all(|&r| r > 50), "{rules:?} wildcard rules");
    }
}
