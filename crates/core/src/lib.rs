//! The paper's §4 best-case coalescing model.
//!
//! Given a crawl (pages + their measured [`origin_web::PageLoad`]s),
//! this crate answers the paper's three questions:
//!
//! 1. **How much of the Internet is coalescable?**
//!    [`characterize`] aggregates the dataset the way §3.3 does
//!    (Tables 1–7, Figure 1); [`model`] predicts the ideal IP-based
//!    and ORIGIN-based DNS/TLS/validation counts (Figure 3) and
//!    reconstructs request timelines with setup phases removed
//!    (§4.1, Figures 2 and 9-top).
//! 2. **What changes are required?** [`certplan`] computes the
//!    least-effort certificate SAN additions (Figures 4–5, Table 8)
//!    and the most-effective per-provider changes (Table 9).
//! 3. **Can it be done?** The `origin-cdn` crate deploys the plan;
//!    this crate supplies the prediction it is validated against.
//!
//! [`stats`] holds the medians, CDFs, histograms and top-k tables the
//! answers are reported in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certplan;
pub mod characterize;
pub mod model;
pub mod reconstruct;
pub mod scheduling;
mod smallset;
pub mod stats;

pub use certplan::{CertPlan, PlanSummary};
pub use characterize::Characterization;
pub use model::{CoalescingGrouping, ModelPrediction};
pub use reconstruct::reconstruct;
