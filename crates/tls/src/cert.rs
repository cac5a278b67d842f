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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Unique serial number assigned by the issuing CA.
    pub serial: u64,
    /// Subject common name.
    pub subject: DnsName,
    /// Subject Alternative Names (exact names and wildcard patterns).
    /// The subject CN is conventionally repeated here.
    pub sans: Vec<DnsName>,
    /// Filler SANs held as a count: the names `alt-{i}.{subject}` for
    /// `i < filler`, listed after `sans` (see
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
    /// Does this certificate cover `name` (exact or wildcard SAN, or
    /// one of its filler names)?
    pub fn covers(&self, name: &DnsName) -> bool {
        san::any_covers(&self.sans, name) || self.covers_as_filler(name)
    }

    /// Is `name` one of the filler names `alt-{i}.{subject}`?
    pub(crate) fn covers_as_filler(&self, name: &DnsName) -> bool {
        san::filler_index(name).is_some_and(|i| i < self.filler)
            && name.parent_str() == Some(self.subject.as_str())
    }

    /// Number of DNS SAN entries.
    pub fn san_count(&self) -> usize {
        self.sans.len() + usize::from(self.filler)
    }

    /// Every SAN in certificate order: `sans`, then the filler names.
    /// A filler name is built on demand; nothing on a request path
    /// asks for one.
    pub fn san_names(&self) -> impl Iterator<Item = DnsName> + '_ {
        let filler = (0..self.filler).map(|i| san::filler_name(i, &self.subject));
        self.sans.iter().cloned().chain(filler)
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
        let listed: u64 = self.sans.iter().map(|n| n.wire_len() as u64 + 2).sum();
        listed + san::filler_bytes(self.filler, &self.subject)
    }
}

/// Builder for certificates outside the CA issuance path (tests,
/// synthetic dataset bootstrap).
#[derive(Debug, Clone)]
pub struct CertificateBuilder {
    subject: DnsName,
    sans: Vec<DnsName>,
    filler: u16,
    issuer: Arc<str>,
    not_before_day: u32,
    not_after_day: u32,
    key_type: KeyType,
    serial: u64,
}

impl CertificateBuilder {
    /// Start building a certificate for `subject`. The subject is
    /// automatically the first SAN.
    pub fn new(subject: DnsName) -> Self {
        CertificateBuilder {
            sans: vec![subject.clone()],
            filler: 0,
            subject,
            issuer: "Test CA".into(),
            not_before_day: 0,
            not_after_day: 90,
            key_type: KeyType::EcdsaP256,
            serial: 0,
        }
    }

    /// Add a SAN entry (deduplicated, order-preserving).
    pub fn san(mut self, name: DnsName) -> Self {
        if !self.sans.contains(&name) {
            self.sans.push(name);
        }
        self
    }

    /// Add many SAN entries.
    pub fn sans<I: IntoIterator<Item = DnsName>>(mut self, names: I) -> Self {
        for n in names {
            if !self.sans.contains(&n) {
                self.sans.push(n);
            }
        }
        self
    }

    /// List `n` filler names after the SANs (see
    /// [`Certificate::filler`]).
    pub fn filler(mut self, n: u16) -> Self {
        self.filler = n;
        self
    }

    /// Set the issuer display name.
    pub fn issuer(mut self, issuer: &str) -> Self {
        self.issuer = issuer.into();
        self
    }

    /// Set the validity window in days.
    pub fn validity(mut self, not_before_day: u32, not_after_day: u32) -> Self {
        assert!(not_before_day <= not_after_day, "inverted validity window");
        self.not_before_day = not_before_day;
        self.not_after_day = not_after_day;
        self
    }

    /// Set the key type.
    pub fn key_type(mut self, kt: KeyType) -> Self {
        self.key_type = kt;
        self
    }

    /// Set the serial number.
    pub fn serial(mut self, serial: u64) -> Self {
        self.serial = serial;
        self
    }

    /// Finish.
    pub fn build(self) -> Certificate {
        Certificate {
            serial: self.serial,
            subject: self.subject,
            sans: self.sans,
            filler: self.filler,
            issuer: self.issuer,
            not_before_day: self.not_before_day,
            not_after_day: self.not_after_day,
            key_type: self.key_type,
        }
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
        assert_eq!(c.sans[0], name("www.example.com"));
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
            assert!(filler.san_names().eq(listed.sans.iter().cloned()));
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
        assert_eq!(c.sans.len(), 2);
        assert_eq!(c.san_count(), 5);
    }
}
