//! Certificate authorities and issuance policy.

use crate::cert::{Certificate, KeyType};
use crate::ctlog::CtLogSet;
use origin_dns::DnsName;
use std::fmt;
use std::sync::Arc;

/// The certificate issuers the paper's Table 4 observes, with their
/// documented SAN-count issuance limits (§6.5): Let's Encrypt,
/// DigiCert and GoDaddy cap at 100 names per certificate, Comodo at
/// 2000, and a few CAs (cPanel, DFN-Verein, GlobalSign CloudSSL) are
/// observed issuing >800-name certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnownIssuer {
    /// Google Trust Services CA 101.
    GoogleTrustServices,
    /// Let's Encrypt (R3).
    LetsEncrypt,
    /// Amazon.
    Amazon,
    /// Cloudflare Inc ECC CA-3 — the deployment CDN's issuer.
    CloudflareEcc,
    /// DigiCert SHA2 High Assurance Server CA.
    DigiCertHighAssurance,
    /// DigiCert SHA2 Secure Server CA.
    DigiCertSecureServer,
    /// Sectigo RSA DV Secure Server CA.
    Sectigo,
    /// GoDaddy Secure Certificate Authority - G2.
    GoDaddy,
    /// DigiCert TLS RSA SHA256 2020 CA1.
    DigiCertTlsRsa,
    /// GeoTrust RSA CA 2018.
    GeoTrust,
    /// Comodo (2000-name SAN limit).
    Comodo,
}

impl KnownIssuer {
    /// Display name matching the paper's Table 4 rows.
    pub fn display_name(self) -> &'static str {
        match self {
            KnownIssuer::GoogleTrustServices => "Google Trust Services CA 101",
            KnownIssuer::LetsEncrypt => "Let's Encrypt (R3)",
            KnownIssuer::Amazon => "Amazon",
            KnownIssuer::CloudflareEcc => "Cloudflare Inc ECC CA-3",
            KnownIssuer::DigiCertHighAssurance => "DigiCert SHA2 High Assurance Server CA",
            KnownIssuer::DigiCertSecureServer => "DigiCert SHA2 Secure Server CA",
            KnownIssuer::Sectigo => "Sectigo RSA DV Secure Server CA",
            KnownIssuer::GoDaddy => "GoDaddy Secure Certificate Authority - G2",
            KnownIssuer::DigiCertTlsRsa => "DigiCert TLS RSA SHA256 2020 CA1",
            KnownIssuer::GeoTrust => "GeoTrust RSA CA 2018",
            KnownIssuer::Comodo => "Comodo RSA Domain Validation Secure Server CA",
        }
    }

    /// Maximum DNS names per issued certificate.
    pub fn san_limit(self) -> usize {
        match self {
            KnownIssuer::LetsEncrypt
            | KnownIssuer::DigiCertHighAssurance
            | KnownIssuer::DigiCertSecureServer
            | KnownIssuer::DigiCertTlsRsa
            | KnownIssuer::GoDaddy => 100,
            KnownIssuer::Comodo => 2_000,
            // Others are unobserved in the paper's limit table; use a
            // generous ceiling comparable to the observed >800 issuers.
            _ => 4_096,
        }
    }

    /// Default key type for leaves from this issuer.
    pub fn key_type(self) -> KeyType {
        match self {
            KnownIssuer::CloudflareEcc | KnownIssuer::GoogleTrustServices => KeyType::EcdsaP256,
            _ => KeyType::Rsa2048,
        }
    }

    /// All issuers in Table 4 order.
    pub fn all() -> &'static [KnownIssuer] {
        &[
            KnownIssuer::GoogleTrustServices,
            KnownIssuer::LetsEncrypt,
            KnownIssuer::Amazon,
            KnownIssuer::CloudflareEcc,
            KnownIssuer::DigiCertHighAssurance,
            KnownIssuer::DigiCertSecureServer,
            KnownIssuer::Sectigo,
            KnownIssuer::GoDaddy,
            KnownIssuer::DigiCertTlsRsa,
            KnownIssuer::GeoTrust,
        ]
    }
}

/// Issuance errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaError {
    /// The request exceeds the CA's SAN-count limit.
    TooManySans {
        /// Names requested.
        requested: usize,
        /// The CA's limit.
        limit: usize,
    },
}

impl fmt::Display for CaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaError::TooManySans { requested, limit } => {
                write!(f, "requested {requested} SANs exceeds CA limit of {limit}")
            }
        }
    }
}

impl std::error::Error for CaError {}

/// A certificate authority: issues and reissues leaf certificates,
/// logging each issuance to Certificate Transparency.
pub struct CertificateAuthority {
    issuer: KnownIssuer,
    /// Display name: one handle for every certificate and CT entry.
    issuer_name: Arc<str>,
    next_serial: u64,
    issued: u64,
    /// Validity period for new leaves, in days (90 = Let's Encrypt
    /// style).
    pub validity_days: u32,
}

impl CertificateAuthority {
    /// New CA for a known issuer.
    pub fn new(issuer: KnownIssuer) -> Self {
        CertificateAuthority {
            issuer,
            issuer_name: issuer.display_name().into(),
            next_serial: 1,
            issued: 0,
            validity_days: 90,
        }
    }

    /// The issuer identity.
    pub fn issuer(&self) -> KnownIssuer {
        self.issuer
    }

    /// Total certificates issued (including reissues).
    pub fn issued_count(&self) -> u64 {
        self.issued
    }

    /// Issue a certificate for `subject` with additional SANs, valid
    /// from `today`. Every issuance is appended to the CT logs.
    pub fn issue(
        &mut self,
        subject: DnsName,
        extra_sans: &[DnsName],
        today: u32,
        ct: &mut CtLogSet,
    ) -> Result<Certificate, CaError> {
        self.issue_with_filler(subject, extra_sans, 0, today, ct)
    }

    /// [`CertificateAuthority::issue`] with `filler` filler names
    /// (`alt-{i}.{subject}`, see [`Certificate::filler`]) after the
    /// SANs. The SAN limit counts them; an extra SAN that is one of
    /// them is listed once, as filler.
    pub fn issue_with_filler(
        &mut self,
        subject: DnsName,
        extra_sans: &[DnsName],
        filler: u16,
        today: u32,
        ct: &mut CtLogSet,
    ) -> Result<Certificate, CaError> {
        let mut cert =
            Certificate::for_subject(subject, self.issuer_name.clone(), self.issuer.key_type());
        cert.serial = self.next_serial;
        cert.filler = filler;
        cert.not_before_day = today;
        cert.not_after_day = today + self.validity_days;
        // Room for every extra but a leading `*.{subject}`, which is a flag.
        let wildcard = extra_sans
            .first()
            .is_some_and(|n| cert.is_subject_wildcard(n));
        cert.sans
            .reserve_exact(extra_sans.len() - usize::from(wildcard));
        for n in extra_sans {
            cert.list(n);
        }
        let limit = self.issuer.san_limit();
        if cert.san_count() > limit {
            return Err(CaError::TooManySans {
                requested: cert.san_count(),
                limit,
            });
        }
        self.next_serial += 1;
        self.issued += 1;
        ct.submit(&cert);
        Ok(cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use origin_dns::name::name;

    #[test]
    fn issue_assigns_serial_and_logs() {
        let mut ca = CertificateAuthority::new(KnownIssuer::LetsEncrypt);
        let mut ct = CtLogSet::default_operators();
        let c1 = ca.issue(name("a.com"), &[], 0, &mut ct).unwrap();
        let c2 = ca.issue(name("b.com"), &[], 0, &mut ct).unwrap();
        assert_eq!(c1.serial, 1);
        assert_eq!(c2.serial, 2);
        assert_eq!(ca.issued_count(), 2);
        // Each issuance is submitted to all three default CT logs.
        assert_eq!(ct.total_entries(), 6);
        assert_eq!(&*c1.issuer, "Let's Encrypt (R3)");
        assert!(Arc::ptr_eq(&c1.issuer, &c2.issuer));
        assert_eq!((c1.sans.capacity(), c1.san_count()), (0, 1));
    }

    #[test]
    fn san_limit_enforced() {
        let mut ca = CertificateAuthority::new(KnownIssuer::LetsEncrypt);
        let mut ct = CtLogSet::default_operators();
        let sans: Vec<DnsName> = (0..100).map(|i| name(&format!("h{i}.a.com"))).collect();
        let err = ca.issue(name("a.com"), &sans, 0, &mut ct).unwrap_err();
        assert_eq!(
            err,
            CaError::TooManySans {
                requested: 101,
                limit: 100
            }
        );
    }

    #[test]
    fn comodo_allows_large_certs() {
        let mut ca = CertificateAuthority::new(KnownIssuer::Comodo);
        let mut ct = CtLogSet::default_operators();
        let sans: Vec<DnsName> = (0..1_500).map(|i| name(&format!("h{i}.a.com"))).collect();
        let c = ca.issue(name("a.com"), &sans, 0, &mut ct).unwrap();
        assert_eq!(c.san_count(), 1_501);
    }

    #[test]
    fn issuer_catalog_matches_table4() {
        assert_eq!(KnownIssuer::all().len(), 10);
        assert_eq!(
            KnownIssuer::GoogleTrustServices.display_name(),
            "Google Trust Services CA 101"
        );
        assert_eq!(KnownIssuer::LetsEncrypt.san_limit(), 100);
        assert_eq!(KnownIssuer::Comodo.san_limit(), 2_000);
    }

    #[test]
    fn cloudflare_issues_ecdsa() {
        assert_eq!(KnownIssuer::CloudflareEcc.key_type(), KeyType::EcdsaP256);
        assert_eq!(KnownIssuer::LetsEncrypt.key_type(), KeyType::Rsa2048);
    }

    /// The SAN limit counts filler names, and an extra SAN that is one
    /// of them is not listed twice.
    #[test]
    fn filler_counts_toward_the_limit() {
        let mut ca = CertificateAuthority::new(KnownIssuer::LetsEncrypt);
        let mut ct = CtLogSet::default_operators();
        let c = ca
            .issue_with_filler(name("a.com"), &[name("alt-0.a.com")], 99, 0, &mut ct)
            .unwrap();
        assert_eq!((c.sans.len(), c.san_count()), (0, 100));
        let err = ca
            .issue_with_filler(name("a.com"), &[name("b.a.com")], 99, 0, &mut ct)
            .unwrap_err();
        assert_eq!(
            err,
            CaError::TooManySans {
                requested: 101,
                limit: 100
            }
        );
        assert_eq!(ca.issued_count(), 1);
    }
}
