//! Why a specific request did what it did: every DNS lookup, TLS
//! handshake, HTTP/2 frame and coalescing decision becomes an event on
//! a timeline of simulated time.
//!
//! Recording formats nothing. An event is a few bytes appended to its
//! shard's one byte stream: a byte naming its shape in the shard's
//! shape table (its call site's static [`Site`] — name, category,
//! argument keys — its layout and its values' types), a few varints,
//! then its untagged values, each distinct string stored once per
//! shard; names like `req 12 cdn.example` and every number are
//! rendered by the exporter, from a borrowed [`EventView`]. The only
//! exporter here is the Chrome trace-event JSON (Perfetto) writer; HAR
//! 1.2 and ASCII waterfalls live beside the `origin-web` timeline types.

mod event;
mod perfetto;
mod sample;
mod tracer;

pub use event::{Arg, EventKind, EventView, Site};
pub use perfetto::{to_chrome_json, write_chrome_json};
pub use sample::Sampler;
pub use tracer::{span_ref, Tracer};
