//! Certificate and TLS model.
//!
//! Everything the paper asks of "certificates" is structural: which
//! DNS names a certificate covers (SAN membership and RFC 6125
//! wildcard matching), who issued it, how big it is on the wire (the
//! §6.5 16 KB-TLS-record discussion), and how issuance load lands on
//! Certificate Transparency logs (§6.4). This crate models exactly
//! that — no real cryptography, but the full decision surface, so the
//! §4 certificate-modification planner and the §5 reissue experiment
//! run against the same checks real clients perform.
//!
//! - [`san`] — name matching per RFC 6125 (wildcards cover exactly one
//!   left-most label).
//! - [`alpn`] — RFC 7301 application-protocol negotiation (server
//!   preference), the switch between h2 and the HTTP/1.1 fallback in
//!   the mixed-protocol universe.
//! - [`cert`] — [`Certificate`] with SAN list, issuer, validity,
//!   serial, and a DER-calibrated wire-size estimator.
//! - [`ca`] — [`CertificateAuthority`] with per-CA SAN-count limits
//!   (Let's Encrypt 100, Comodo 2000, …).
//! - [`ctlog`] — Certificate Transparency load: an append-only entry
//!   count per log operator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpn;
pub mod ca;
pub mod cert;
pub mod ctlog;
pub mod san;
pub mod strategy;

pub use alpn::{negotiate as alpn_negotiate, AlpnProtocol};
pub use ca::{CaError, CertificateAuthority, KnownIssuer};
pub use cert::{Certificate, CertificateBuilder, KeyType};
pub use ctlog::{CtLog, CtLogSet};
pub use san::{covers, wildcard_matches};
pub use strategy::{cost as strategy_cost, CertStrategy, StrategyCost};
