//! # respect-origin
//!
//! Umbrella crate for the Rust reproduction of *"Respect the ORIGIN!
//! A Best-case Evaluation of Connection Coalescing in The Wild"*
//! (Singanamalla et al., IMC 2022).
//!
//! Re-exports every sub-crate under a stable, documented namespace so
//! downstream users depend on a single crate:
//!
//! - [`h2`] — from-scratch HTTP/2 framing with RFC 8336 ORIGIN frames.
//! - [`h3`] — QUIC-ish HTTP/3 model: 1-RTT/0-RTT handshakes, QPACK,
//!   Alt-Svc, cross-hostname resumption, shared address validation.
//! - [`tls`] — certificate/SAN model, CA issuance, CT logs.
//! - [`dns`] — simulated zones and a caching recursive resolver.
//! - [`netsim`] — deterministic discrete-event network simulator.
//! - [`web`] — page/resource model and HAR-style timelines.
//! - [`webgen`] — synthetic Tranco-like dataset generator.
//! - [`browser`] — browser coalescing-policy models and page loader.
//! - [`model`] — the paper's §4 best-case coalescing model.
//! - [`cdn`] — the paper's §5 CDN deployment simulator.
//! - [`stats`] — CDFs, percentiles and table rendering.
//! - [`telemetry`] — metrics registry, span tracing, windowed time
//!   series and the flight recorder, all on simulated time.

#![forbid(unsafe_code)]

pub use origin_browser as browser;
pub use origin_cdn as cdn;
pub use origin_core as model;
pub use origin_core::stats;
pub use origin_dns as dns;
pub use origin_h2 as h2;
pub use origin_h3 as h3;
pub use origin_netsim as netsim;
pub use origin_telemetry as telemetry;
pub use origin_tls as tls;
pub use origin_web as web;
pub use origin_webgen as webgen;
