//! The §5 CDN deployment simulator.
//!
//! The paper validated its model by deploying ORIGIN frame support at
//! a large CDN: 5000 certificates reissued with a popular third-party
//! domain added to the SAN, an experiment/control split with
//! equal-byte certificate changes (Figure 6), and both passive
//! (sampled production logs) and active (scripted page loads)
//! measurements of IP-based (§5.2) and ORIGIN-based (§5.3)
//! coalescing. This crate rebuilds that deployment end to end:
//!
//! - [`sample`] — the 5000-domain sample group, the subpage-only
//!   filter (−22%), random treatment assignment, and the equal-byte
//!   certificate reissue of Figure 6.
//! - [`edge`] — an edge server terminating real `origin-h2`
//!   connections, configured with per-deployment certificates and
//!   origin sets; answers 421 for unconfigured authorities.
//! - [`mod@env`] — the deployment [`origin_browser::WebEnv`]: DNS
//!   aligned to a single address for the §5.2 IP experiment, or an
//!   isolated anycast address with ORIGIN frames for §5.3.
//! - [`active`] — the client-side active measurement (Figures 7a/7b):
//!   Firefox page loads counting new connections to the third party.
//! - [`passive`] — the server-side passive pipeline: 1 % sampling,
//!   the SNI≠Host flag bit, referer attribution, arrival-order
//!   labels, and the experiment/control rate comparison.
//! - [`longitudinal`] — the Figure 8 time series (before / during /
//!   after deployment).
//! - [`incident`] — the §6.7 non-compliant middlebox incident and its
//!   disclosure timeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod edge;
pub mod env;
pub mod incident;
pub mod longitudinal;
pub mod passive;
pub mod sample;

pub use active::{ActiveMeasurement, ActiveResult};
pub use edge::EdgeServer;
pub use env::{CdnEnv, DeploymentMode};
pub use incident::{IncidentReport, MiddleboxIncident};
pub use longitudinal::LongitudinalRun;
pub use passive::{PassivePipeline, PassiveReport};
pub use sample::{SampleGroup, SampleSite, Treatment, CONTROL_DECOY_HOST, THIRD_PARTY_HOST};
