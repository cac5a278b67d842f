//! Web page and resource modelling.
//!
//! The paper's unit of measurement is a *page load*: a root HTML
//! document plus the tree of subresources it pulls in, recorded as a
//! HAR file with per-request phase timings
//! (`blocked / dns / connect / ssl / send / wait / receive`). This
//! crate provides:
//!
//! - [`content`] — the content-type vocabulary of Tables 5 and 6.
//! - [`page`] — [`Page`]/[`Resource`]: the dependency-annotated
//!   resource tree a browser walks, including the CORS fetch modes
//!   (`crossorigin=anonymous`, XHR/fetch) that blocked coalescing in
//!   the paper's §5.3 deployment.
//! - [`har`] — HAR-style request timelines and page-level rollups
//!   (PLT, DNS/TLS counts), exportable as JSON.
//! - [`waterfall`] — text waterfall rendering (Figure 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content;
pub mod har;
pub mod page;
pub mod waterfall;

pub use content::ContentType;
pub use har::{PageLoad, Phase, RequestTiming};
pub use page::{FetchMode, Page, PathSpec, Protocol, Resource};
