//! Deterministic span tracing for the request path.
//!
//! Where `origin-metrics` answers *how much* work the pipeline did,
//! this crate answers *why a specific request did what it did*: every
//! DNS lookup, TLS handshake, HTTP/2 frame, and coalescing decision
//! becomes a structured event on a timeline of **simulated** time.
//!
//! The design mirrors the metrics registry's sharding discipline:
//!
//! * **Recording formats nothing.** An event is a 16-byte record
//!   indexing its call site's static [`Site`] (name, category,
//!   argument keys) plus its values appended to a byte arena, each
//!   distinct string stored once per shard; names like
//!   `req 12 cdn.example` and every number are rendered by the
//!   exporter, from a borrowed [`EventView`].
//! * **No wall clock.** Every timestamp is simulated microseconds, a
//!   property of the workload rather than the machine.
//! * **No global counters.** Span and flow IDs derive purely from
//!   `(visit pid, per-visit sequence)` — see [`Tracer::next_id`] — so
//!   two runs, or two differently-sharded runs, mint identical IDs.
//! * **Rank-ordered merge.** Workers buffer events into private
//!   [`Tracer`]s; the driver merges shards back in rank order with
//!   [`Tracer::merge`], reproducing the sequential event order exactly.
//!   The exported JSON is therefore byte-identical for any `--threads`.
//! * **Deterministic sampling.** Whole-run traces keep 1-in-N *sites*
//!   chosen by a hash of the site's rank ([`Sampler`]), never by RNG
//!   draw order, so the sampled set is stable across thread counts.
//!
//! The only exporter living here is the Chrome trace-event JSON
//! (Perfetto-loadable) writer; HAR 1.2 and ASCII waterfalls reuse the
//! `origin-web` timeline types and live next to them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod perfetto;
mod sample;
mod tracer;

pub use event::{Arg, EventKind, EventView, Site};
pub use perfetto::to_chrome_json;
pub use sample::Sampler;
pub use tracer::{span_ref, Tracer};
