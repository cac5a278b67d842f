//! Client-side certificate validation.
//!
//! The paper's "certificate validations" metric counts the number of
//! times a client cryptographically validates a server certificate —
//! once per new TLS connection. [`Validator`] performs the structural
//! checks a browser would (trust, validity window, name coverage) and
//! counts them, so experiment harnesses can report the validation
//! reductions of Figure 3 / §4.2.

use crate::cert::Certificate;
use origin_dns::DnsName;
use std::collections::HashSet;
use std::fmt;

/// Why validation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The issuer is not in the client trust store.
    UntrustedIssuer(String),
    /// The certificate is outside its validity window.
    Expired {
        /// Day the check ran.
        today: u32,
        /// Certificate's last valid day.
        not_after_day: u32,
    },
    /// Not yet valid.
    NotYetValid {
        /// Day the check ran.
        today: u32,
        /// Certificate's first valid day.
        not_before_day: u32,
    },
    /// No SAN entry covers the requested name.
    NameMismatch(DnsName),
    /// The certificate has been revoked (OCSP-style check, §6.2).
    Revoked(u64),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UntrustedIssuer(i) => write!(f, "untrusted issuer {i:?}"),
            ValidationError::Expired {
                today,
                not_after_day,
            } => {
                write!(f, "expired: today={today} not_after={not_after_day}")
            }
            ValidationError::NotYetValid {
                today,
                not_before_day,
            } => {
                write!(
                    f,
                    "not yet valid: today={today} not_before={not_before_day}"
                )
            }
            ValidationError::NameMismatch(n) => write!(f, "no SAN covers {n}"),
            ValidationError::Revoked(serial) => write!(f, "certificate {serial} revoked"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// A client-side validator: a trust store, a revocation list, and a
/// counter of validations performed.
pub struct Validator {
    trusted_issuers: HashSet<String>,
    revoked_serials: HashSet<u64>,
    validations: u64,
}

impl Validator {
    /// A validator trusting the given issuer display names.
    pub fn new<I: IntoIterator<Item = String>>(trusted: I) -> Self {
        Validator {
            trusted_issuers: trusted.into_iter().collect(),
            revoked_serials: HashSet::new(),
            validations: 0,
        }
    }

    /// A validator trusting every Table 4 issuer — what a stock
    /// browser trust store amounts to for this model.
    pub fn trust_all_known() -> Self {
        Validator::new(
            crate::ca::KnownIssuer::all()
                .iter()
                .map(|i| i.display_name().to_string()),
        )
    }

    /// Add an issuer to the trust store.
    pub fn trust(&mut self, issuer: &str) {
        self.trusted_issuers.insert(issuer.to_string());
    }

    /// Mark a serial as revoked (OCSP response, §6.2).
    pub fn revoke(&mut self, serial: u64) {
        self.revoked_serials.insert(serial);
    }

    /// Number of validations performed so far (success or failure —
    /// the client does the cryptographic work either way).
    pub fn validations(&self) -> u64 {
        self.validations
    }

    /// Reset the counter.
    pub fn reset_validations(&mut self) {
        self.validations = 0;
    }

    /// Validate `cert` for `name` on `today`. Increments the
    /// validation counter.
    pub fn validate(
        &mut self,
        cert: &Certificate,
        name: &DnsName,
        today: u32,
    ) -> Result<(), ValidationError> {
        self.validations += 1;
        if !self.trusted_issuers.contains(&*cert.issuer) {
            return Err(ValidationError::UntrustedIssuer(cert.issuer.to_string()));
        }
        if today < cert.not_before_day {
            return Err(ValidationError::NotYetValid {
                today,
                not_before_day: cert.not_before_day,
            });
        }
        if today > cert.not_after_day {
            return Err(ValidationError::Expired {
                today,
                not_after_day: cert.not_after_day,
            });
        }
        if self.revoked_serials.contains(&cert.serial) {
            return Err(ValidationError::Revoked(cert.serial));
        }
        if !cert.covers(name) {
            return Err(ValidationError::NameMismatch(name.clone()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::KnownIssuer;
    use crate::cert::CertificateBuilder;
    use origin_dns::name::name;

    fn cert() -> Certificate {
        CertificateBuilder::new(name("www.example.com"))
            .san(name("*.cdn.example.com"))
            .issuer(KnownIssuer::CloudflareEcc.display_name())
            .validity(10, 100)
            .serial(77)
            .build()
    }

    #[test]
    fn valid_cert_passes_and_counts() {
        let mut v = Validator::trust_all_known();
        assert!(v.validate(&cert(), &name("www.example.com"), 50).is_ok());
        assert!(v
            .validate(&cert(), &name("img.cdn.example.com"), 50)
            .is_ok());
        assert_eq!(v.validations(), 2);
    }

    #[test]
    fn untrusted_issuer_fails() {
        let mut v = Validator::new(vec![]);
        let err = v
            .validate(&cert(), &name("www.example.com"), 50)
            .unwrap_err();
        assert!(matches!(err, ValidationError::UntrustedIssuer(_)));
        // Failure still counts as a validation performed.
        assert_eq!(v.validations(), 1);
    }

    #[test]
    fn validity_window_checked() {
        let mut v = Validator::trust_all_known();
        assert!(matches!(
            v.validate(&cert(), &name("www.example.com"), 5),
            Err(ValidationError::NotYetValid { .. })
        ));
        assert!(matches!(
            v.validate(&cert(), &name("www.example.com"), 101),
            Err(ValidationError::Expired { .. })
        ));
    }

    #[test]
    fn name_mismatch_fails() {
        let mut v = Validator::trust_all_known();
        let err = v.validate(&cert(), &name("other.com"), 50).unwrap_err();
        assert_eq!(err, ValidationError::NameMismatch(name("other.com")));
    }

    #[test]
    fn revocation_checked() {
        let mut v = Validator::trust_all_known();
        v.revoke(77);
        assert_eq!(
            v.validate(&cert(), &name("www.example.com"), 50),
            Err(ValidationError::Revoked(77))
        );
    }

    #[test]
    fn reset_counter() {
        let mut v = Validator::trust_all_known();
        v.validate(&cert(), &name("www.example.com"), 50).ok();
        v.reset_validations();
        assert_eq!(v.validations(), 0);
    }

    #[test]
    fn manual_trust() {
        let mut v = Validator::new(vec![]);
        v.trust(KnownIssuer::CloudflareEcc.display_name());
        assert!(v.validate(&cert(), &name("www.example.com"), 50).is_ok());
    }
}
