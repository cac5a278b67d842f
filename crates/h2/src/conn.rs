//! Sans-IO HTTP/2 connection endpoints.
//!
//! A [`Connection`] is fed raw bytes with [`Connection::recv`] and
//! produces protocol [`Event`]s plus outgoing bytes retrievable with
//! [`Connection::take_outgoing`]. It never blocks, sleeps, or touches
//! sockets — transports (the discrete-event simulator, or a real
//! socket loop) move the bytes.
//!
//! The server side implements the paper's contribution: a configured
//! [`OriginSet`] is advertised in an ORIGIN frame on stream 0
//! immediately after the server SETTINGS, and requests for
//! authorities the server is not configured to serve are answered
//! with `421 Misdirected Request` (RFC 7540 §9.1.2).

use crate::error::{ErrorCode, H2Error};
use crate::frame::{encode_continuation, encode_headers, Frame, FrameDecoder};
use crate::hpack::{Decoder as HpackDecoder, Encoder as HpackEncoder, Header};
use crate::origin::{ClientOriginState, OriginEntry, OriginSet};
use crate::priority::PriorityTree;
use crate::settings::Settings;
use crate::stream::{StreamId, StreamState};
use crate::CLIENT_PREFACE;
use bytes::{Bytes, BytesMut};
use std::collections::HashMap;

/// Which end of the connection this endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Client endpoint: sends the preface, opens odd streams.
    Client,
    /// Server endpoint: expects the preface, answers requests.
    Server,
}

/// Protocol events surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The peer's SETTINGS arrived (and was acknowledged).
    SettingsReceived,
    /// The peer acknowledged our SETTINGS.
    SettingsAcked,
    /// A complete header block arrived (request on servers, response
    /// on clients).
    Headers {
        /// Carrying stream.
        stream: StreamId,
        /// Decoded header list.
        headers: Vec<Header>,
        /// Whether the sender half-closed.
        end_stream: bool,
    },
    /// Body bytes arrived.
    Data {
        /// Carrying stream.
        stream: StreamId,
        /// The bytes.
        data: Bytes,
        /// Whether the sender half-closed.
        end_stream: bool,
    },
    /// The peer reset a stream.
    StreamReset {
        /// The stream.
        stream: StreamId,
        /// Error code.
        code: ErrorCode,
    },
    /// An ORIGIN frame arrived (clients only; servers ignore it). The
    /// connection's origin state has already been updated.
    OriginReceived {
        /// Raw ASCII entries as received.
        origins: Vec<String>,
    },
    /// An ALTSVC frame arrived.
    AltSvcReceived {
        /// Origin field.
        origin: String,
        /// Alt-Svc value.
        value: String,
    },
    /// PING answered automatically; surfaced for observability.
    PingReceived,
    /// Our PING was acknowledged.
    PongReceived,
    /// Peer is going away.
    GoAway {
        /// Error code.
        code: ErrorCode,
        /// Highest stream the peer will process.
        last_stream: StreamId,
    },
    /// A frame of unknown type was ignored per RFC 7540 §4.1;
    /// surfaced so tests can assert fail-open behaviour.
    UnknownFrameIgnored {
        /// The raw type octet.
        kind: u8,
    },
}

struct StreamRec {
    state: StreamState,
    send_window: i64,
    recv_window: i64,
}

/// Body bytes waiting for flow-control window.
struct PendingData {
    stream: StreamId,
    data: Bytes,
    end_stream: bool,
}

/// Pending header-block accumulation across CONTINUATION frames.
struct PendingHeaders {
    stream: StreamId,
    fragment: BytesMut,
    end_stream: bool,
}

/// Server behaviour configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Our SETTINGS.
    pub settings: Settings,
    /// Origin set to advertise via ORIGIN frame right after SETTINGS
    /// (None = no ORIGIN frame — pre-deployment behaviour).
    pub origin_set: Option<OriginSet>,
    /// Authorities this server will actually serve. Requests for
    /// others get `421 Misdirected Request`. Empty = serve anything
    /// (a wildcard edge).
    pub authorized: Vec<String>,
}

/// Frame-level work counters for one connection.
///
/// Plain monotonic `u64`s so shard merges stay commutative; the
/// loader and edge harnesses fold these into an
/// [`origin_telemetry::metrics::Registry`] via
/// [`Connection::record_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Frames written to the outgoing buffer.
    pub frames_encoded: u64,
    /// Frames parsed from the peer.
    pub frames_decoded: u64,
    /// ORIGIN frames this endpoint sent (servers).
    pub origin_frames_sent: u64,
    /// ORIGIN frames this (client) endpoint accepted into its origin
    /// set. Servers ignore ORIGIN (RFC 8336 §2), so theirs stay 0.
    pub origin_frames_received: u64,
}

/// A sans-IO HTTP/2 connection endpoint.
pub struct Connection {
    role: Role,
    decoder: FrameDecoder,
    recv_buf: BytesMut,
    send_buf: BytesMut,
    hpack_enc: HpackEncoder,
    hpack_dec: HpackDecoder,
    /// Reused header-block staging buffer: HPACK encodes into it and
    /// the HEADERS/CONTINUATION frames copy straight from it into
    /// `send_buf` — no per-request `Vec`/`Bytes` round trip. Carries
    /// capacity only across requests.
    hpack_block: Vec<u8>,
    local_settings: Settings,
    remote_settings: Settings,
    streams: HashMap<StreamId, StreamRec>,
    next_stream_id: u32,
    preface_remaining: usize,
    pending_headers: Option<PendingHeaders>,
    pending_data: Vec<PendingData>,
    conn_send_window: i64,
    conn_recv_window: i64,
    goaway_sent: bool,
    goaway_received: bool,
    // Client-side origin tracking.
    origin_state: Option<ClientOriginState>,
    // Server-side config.
    server: Option<ServerConfig>,
    /// Count of ORIGIN frames sent (server) or received (client);
    /// the passive-measurement pipeline reads this.
    pub origin_frames: u64,
    /// Frame-level work counters (metrics export).
    pub stats: ConnStats,
    /// Stream priority tree (RFC 7540 §5.3), fed by PRIORITY frames
    /// and HEADERS priority fields; servers consult it to order
    /// response transmission (the §6.1 scheduling opportunity).
    pub priorities: PriorityTree,
}

impl Connection {
    /// Create a client endpoint for a TLS connection whose SNI was
    /// `authority`. Writes the connection preface and initial SETTINGS.
    pub fn client(authority: &str, settings: Settings) -> Self {
        let mut c = Connection::new(Role::Client, settings);
        c.origin_state = Some(ClientOriginState::connect_https(authority));
        c.send_buf.extend_from_slice(CLIENT_PREFACE);
        c.send_settings();
        c
    }

    /// Create a server endpoint. Writes initial SETTINGS followed by
    /// an ORIGIN frame when an origin set is configured — the frame
    /// ordering the paper's deployment used (origin set advertised as
    /// early as possible on stream 0).
    pub fn server(config: ServerConfig) -> Self {
        let mut c = Connection::new(Role::Server, config.settings.clone());
        c.preface_remaining = CLIENT_PREFACE.len();
        c.send_settings();
        if let Some(set) = &config.origin_set {
            set.to_frame().encode(&mut c.send_buf);
            c.origin_frames += 1;
            c.stats.frames_encoded += 1;
            c.stats.origin_frames_sent += 1;
        }
        c.server = Some(config);
        c
    }

    fn new(role: Role, settings: Settings) -> Self {
        Connection {
            role,
            decoder: FrameDecoder::new(settings.max_frame_size as usize),
            recv_buf: BytesMut::new(),
            send_buf: BytesMut::new(),
            hpack_enc: HpackEncoder::new(),
            hpack_dec: HpackDecoder::new(),
            hpack_block: Vec::new(),
            local_settings: settings,
            remote_settings: Settings::default(),
            streams: HashMap::new(),
            next_stream_id: if role == Role::Client { 1 } else { 2 },
            preface_remaining: 0,
            pending_headers: None,
            pending_data: Vec::new(),
            conn_send_window: 65_535,
            conn_recv_window: 65_535,
            goaway_sent: false,
            goaway_received: false,
            origin_state: None,
            server: None,
            origin_frames: 0,
            stats: ConnStats::default(),
            priorities: PriorityTree::new(),
        }
    }

    /// This endpoint's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Client-side origin state (None on servers).
    pub fn origin_state(&self) -> Option<&ClientOriginState> {
        self.origin_state.as_ref()
    }

    /// May this (client) connection be coalesced for `host` on the
    /// basis of ORIGIN state alone? Certificate coverage is checked
    /// separately by the browser model.
    pub fn origin_allows(&self, host: &str) -> bool {
        self.origin_state
            .as_ref()
            .map(|s| s.allows(&OriginEntry::https(host)))
            .unwrap_or(false)
    }

    /// Has the peer told us to go away (or have we)?
    pub fn is_closing(&self) -> bool {
        self.goaway_sent || self.goaway_received
    }

    /// State of a stream (Idle if unknown).
    pub fn stream_state(&self, id: StreamId) -> StreamState {
        self.streams
            .get(&id)
            .map(|s| s.state)
            .unwrap_or(StreamState::Idle)
    }

    /// Streams currently open (not closed) from this endpoint's view.
    pub fn open_streams(&self) -> u32 {
        self.streams
            .values()
            .filter(|r| r.state != StreamState::Closed)
            .count() as u32
    }

    /// Number of streams this endpoint has opened.
    pub fn streams_opened(&self) -> u32 {
        (self.next_stream_id - if self.role == Role::Client { 1 } else { 2 }) / 2
    }

    /// Drain bytes queued for the peer.
    pub fn take_outgoing(&mut self) -> Bytes {
        self.send_buf.split().freeze()
    }

    /// Fold this connection's frame and HPACK work into a metrics
    /// registry under `h2.*`.
    pub fn record_metrics(&self, metrics: &mut origin_telemetry::metrics::Registry) {
        metrics.add("h2.frames_encoded", self.stats.frames_encoded);
        metrics.add("h2.frames_decoded", self.stats.frames_decoded);
        metrics.add("h2.origin_frames_sent", self.stats.origin_frames_sent);
        metrics.add(
            "h2.origin_frames_accepted",
            self.stats.origin_frames_received,
        );
        metrics.add(
            "h2.hpack_evictions",
            self.hpack_enc.evictions() + self.hpack_dec.evictions(),
        );
    }

    fn send_settings(&mut self) {
        Frame::Settings {
            ack: false,
            params: self.local_settings.to_params(),
        }
        .encode(&mut self.send_buf);
        self.stats.frames_encoded += 1;
    }

    // ---- sending ----

    /// Client: send a request. Returns the new stream id.
    ///
    /// `headers` must include the pseudo-headers (`:method`,
    /// `:scheme`, `:authority`, `:path`). `end_stream` is true for
    /// bodyless requests (GET).
    pub fn send_request(&mut self, headers: &[Header], end_stream: bool) -> StreamId {
        assert_eq!(self.role, Role::Client, "only clients send requests");
        assert!(
            !self.goaway_received,
            "peer sent GOAWAY; new streams would be discarded (RFC 7540 §6.8)"
        );
        if let Some(limit) = self.remote_settings.max_concurrent_streams {
            assert!(
                self.open_streams() < limit,
                "SETTINGS_MAX_CONCURRENT_STREAMS ({limit}) reached"
            );
        }
        let id = StreamId(self.next_stream_id);
        self.next_stream_id += 2;
        let mut block = std::mem::take(&mut self.hpack_block);
        block.clear();
        self.hpack_enc.encode_into(headers, &mut block);
        self.write_header_block(id, &block, end_stream);
        self.hpack_block = block;
        self.streams.insert(
            id,
            StreamRec {
                state: StreamState::Idle.on_send_headers(end_stream),
                send_window: self.remote_settings.initial_window_size as i64,
                recv_window: self.local_settings.initial_window_size as i64,
            },
        );
        id
    }

    /// Send a header block on an existing stream (responses, trailers).
    /// Blocks larger than the peer's SETTINGS_MAX_FRAME_SIZE are split
    /// into HEADERS + CONTINUATION frames (RFC 7540 §6.10).
    pub fn send_headers(&mut self, stream: StreamId, headers: &[Header], end_stream: bool) {
        let mut block = std::mem::take(&mut self.hpack_block);
        block.clear();
        self.hpack_enc.encode_into(headers, &mut block);
        self.write_header_block(stream, &block, end_stream);
        self.hpack_block = block;
        let rec = self.streams.entry(stream).or_insert_with(|| StreamRec {
            state: StreamState::Idle,
            send_window: self.remote_settings.initial_window_size as i64,
            recv_window: self.local_settings.initial_window_size as i64,
        });
        rec.state = rec.state.on_send_headers(end_stream);
    }

    fn write_header_block(&mut self, stream: StreamId, fragment: &[u8], end_stream: bool) {
        let max = self.remote_settings.max_frame_size as usize;
        if fragment.len() <= max {
            encode_headers(&mut self.send_buf, stream, fragment, end_stream, true, None);
            self.stats.frames_encoded += 1;
            return;
        }
        let (first, mut rest) = fragment.split_at(max);
        encode_headers(&mut self.send_buf, stream, first, end_stream, false, None);
        self.stats.frames_encoded += 1;
        while rest.len() > max {
            let (chunk, tail) = rest.split_at(max);
            encode_continuation(&mut self.send_buf, stream, chunk, false);
            self.stats.frames_encoded += 1;
            rest = tail;
        }
        encode_continuation(&mut self.send_buf, stream, rest, true);
        self.stats.frames_encoded += 1;
    }

    /// Server: send a complete response in one HEADERS (+ optional
    /// DATA) exchange.
    pub fn send_response(&mut self, stream: StreamId, status: u16, body: &[u8]) {
        assert_eq!(self.role, Role::Server, "only servers send responses");
        let headers = vec![
            Header::new(":status", &status.to_string()),
            Header::new("content-length", &body.len().to_string()),
        ];
        if body.is_empty() {
            self.send_headers(stream, &headers, true);
        } else {
            self.send_headers(stream, &headers, false);
            self.send_data(stream, body, true);
        }
    }

    /// Server: answer `421 Misdirected Request` (RFC 7540 §9.1.2) —
    /// what a client provokes when it coalesces onto a server that is
    /// not configured for the authority.
    pub fn send_misdirected(&mut self, stream: StreamId) {
        self.send_response(stream, 421, b"");
    }

    /// Send body bytes, respecting connection- and stream-level
    /// flow-control windows (RFC 7540 §6.9): bytes beyond the current
    /// windows are queued and flushed automatically when the peer's
    /// WINDOW_UPDATE frames arrive.
    pub fn send_data(&mut self, stream: StreamId, data: &[u8], end_stream: bool) {
        let rec = self.streams.get(&stream).expect("unknown stream");
        assert!(rec.state.can_send(), "stream {stream} not writable");
        self.pending_data.push(PendingData {
            stream,
            data: Bytes::copy_from_slice(data),
            end_stream,
        });
        self.flush_pending_data();
    }

    /// Bytes queued awaiting flow-control window.
    pub fn queued_data(&self) -> usize {
        self.pending_data.iter().map(|p| p.data.len()).sum()
    }

    fn flush_pending_data(&mut self) {
        let max_frame = self.remote_settings.max_frame_size as usize;
        let mut queue = std::mem::take(&mut self.pending_data);
        let mut blocked: Vec<PendingData> = Vec::new();
        for mut item in queue.drain(..) {
            // Head-of-line per stream: keep order within the queue.
            if blocked.iter().any(|b| b.stream == item.stream) {
                blocked.push(item);
                continue;
            }
            let rec = self.streams.get_mut(&item.stream).expect("stream exists");
            loop {
                let window = rec.send_window.min(self.conn_send_window).max(0) as usize;
                if item.data.is_empty() {
                    if item.end_stream {
                        // Zero-length END_STREAM always fits.
                        Frame::Data {
                            stream: item.stream,
                            data: Bytes::new(),
                            end_stream: true,
                        }
                        .encode(&mut self.send_buf);
                        self.stats.frames_encoded += 1;
                        rec.state = rec.state.on_send_end_stream();
                    }
                    break;
                }
                if window == 0 {
                    blocked.push(item);
                    break;
                }
                let n = item.data.len().min(window).min(max_frame);
                let chunk = item.data.split_to(n);
                let last = item.data.is_empty();
                rec.send_window -= n as i64;
                self.conn_send_window -= n as i64;
                Frame::Data {
                    stream: item.stream,
                    data: chunk,
                    end_stream: item.end_stream && last,
                }
                .encode(&mut self.send_buf);
                self.stats.frames_encoded += 1;
                if last {
                    if item.end_stream {
                        rec.state = rec.state.on_send_end_stream();
                    }
                    break;
                }
            }
        }
        self.pending_data = blocked;
    }

    /// Send a PING.
    pub fn send_ping(&mut self, payload: [u8; 8]) {
        Frame::Ping {
            ack: false,
            payload,
        }
        .encode(&mut self.send_buf);
        self.stats.frames_encoded += 1;
    }

    /// Send GOAWAY and mark the connection closing.
    pub fn send_goaway(&mut self, code: ErrorCode) {
        let last = StreamId(self.next_stream_id.saturating_sub(2));
        Frame::GoAway {
            last_stream: last,
            code,
            debug: Bytes::new(),
        }
        .encode(&mut self.send_buf);
        self.stats.frames_encoded += 1;
        self.goaway_sent = true;
    }

    /// Server: advertise a new origin set mid-connection (RFC 8336
    /// allows ORIGIN at any point in the connection lifetime).
    pub fn send_origin_set(&mut self, set: &OriginSet) {
        assert_eq!(self.role, Role::Server, "only servers send ORIGIN");
        set.to_frame().encode(&mut self.send_buf);
        self.origin_frames += 1;
        self.stats.frames_encoded += 1;
        self.stats.origin_frames_sent += 1;
    }

    /// Is `authority` one this server is configured to serve?
    pub fn is_authorized(&self, authority: &str) -> bool {
        match &self.server {
            None => false,
            Some(cfg) => {
                cfg.authorized.is_empty()
                    || cfg
                        .authorized
                        .iter()
                        .any(|a| a.eq_ignore_ascii_case(authority))
            }
        }
    }

    // ---- receiving ----

    /// Feed bytes from the peer; returns the protocol events they
    /// produced. Automatic replies (SETTINGS acks, PING acks, WINDOW
    /// updates) are queued into the outgoing buffer.
    pub fn recv(&mut self, bytes: &[u8]) -> Result<Vec<Event>, H2Error> {
        self.recv_inner(bytes, None)
    }

    /// [`Connection::recv`] plus frame-level trace events at the
    /// tracer's current time cursor: one `h2.frame` instant per decoded
    /// frame, an `h2.origin.accept` instant when a client folds an
    /// ORIGIN frame into its origin set, and an `h2.hpack.eviction`
    /// instant per dynamic-table eviction the frame caused.
    pub fn recv_traced(
        &mut self,
        bytes: &[u8],
        tracer: &mut origin_telemetry::trace::Tracer,
    ) -> Result<Vec<Event>, H2Error> {
        self.recv_inner(bytes, Some(tracer))
    }

    fn recv_inner(
        &mut self,
        bytes: &[u8],
        mut tracer: Option<&mut origin_telemetry::trace::Tracer>,
    ) -> Result<Vec<Event>, H2Error> {
        self.recv_buf.extend_from_slice(bytes);
        if self.preface_remaining > 0 {
            let take = self.preface_remaining.min(self.recv_buf.len());
            let expect_off = CLIENT_PREFACE.len() - self.preface_remaining;
            if self.recv_buf[..take] != CLIENT_PREFACE[expect_off..expect_off + take] {
                return Err(H2Error::BadPreface);
            }
            let _ = self.recv_buf.split_to(take);
            self.preface_remaining -= take;
            if self.preface_remaining > 0 {
                return Ok(Vec::new());
            }
        }
        let mut events = Vec::new();
        while let Some(frame) = self.decoder.decode(&mut self.recv_buf)? {
            self.stats.frames_decoded += 1;
            let kind = frame.frame_type();
            let is_client_origin =
                kind == crate::frame::FrameType::Origin && self.role == Role::Client;
            let origins_before = events.len();
            let evictions_before = self.hpack_dec.evictions();
            self.handle_frame(frame, &mut events)?;
            if let Some(tracer) = tracer.as_deref_mut() {
                use origin_telemetry::trace::{Arg, Site};
                static FRAME: Site = Site::new("h2.frame", "h2", &["type"]);
                static ORIGIN_ACCEPT: Site =
                    Site::new("h2.origin.accept", "h2", &["origins", "set"]);
                static EVICTION: Site = Site::new("h2.hpack.eviction", "h2", &["table"]);
                tracer.instant(&FRAME, &[Arg::Str(kind.name())]);
                if is_client_origin {
                    // handle_frame pushed exactly one OriginReceived.
                    if let Some(Event::OriginReceived { origins }) = events[origins_before..]
                        .iter()
                        .find(|e| matches!(e, Event::OriginReceived { .. }))
                    {
                        tracer.instant(
                            &ORIGIN_ACCEPT,
                            &[Arg::U64(origins.len() as u64), Arg::Str(&origins.join(" "))],
                        );
                    }
                }
                for _ in evictions_before..self.hpack_dec.evictions() {
                    tracer.instant(&EVICTION, &[Arg::Str("decoder")]);
                }
            }
        }
        Ok(events)
    }

    fn handle_frame(&mut self, frame: Frame, events: &mut Vec<Event>) -> Result<(), H2Error> {
        // A CONTINUATION sequence must not be interleaved with other
        // frames (RFC 7540 §6.2).
        if self.pending_headers.is_some() && !matches!(frame, Frame::Continuation { .. }) {
            return Err(H2Error::Connection(
                ErrorCode::ProtocolError,
                "non-CONTINUATION frame inside header block",
            ));
        }
        match frame {
            Frame::Settings { ack, params } => {
                if ack {
                    events.push(Event::SettingsAcked);
                } else {
                    self.remote_settings.apply(&params);
                    self.hpack_enc
                        .set_max_table_size(self.remote_settings.header_table_size as usize);
                    Frame::Settings {
                        ack: true,
                        params: vec![],
                    }
                    .encode(&mut self.send_buf);
                    self.stats.frames_encoded += 1;
                    events.push(Event::SettingsReceived);
                }
            }
            Frame::Ping { ack, payload } => {
                if ack {
                    events.push(Event::PongReceived);
                } else {
                    Frame::Ping { ack: true, payload }.encode(&mut self.send_buf);
                    self.stats.frames_encoded += 1;
                    events.push(Event::PingReceived);
                }
            }
            Frame::Headers {
                stream,
                fragment,
                end_stream,
                end_headers,
                priority,
            } => {
                if let Some(spec) = priority {
                    self.priorities.apply(stream, spec);
                }
                if end_headers {
                    self.complete_headers(stream, &fragment, end_stream, events)?;
                } else {
                    self.pending_headers = Some(PendingHeaders {
                        stream,
                        fragment: BytesMut::from(&fragment[..]),
                        end_stream,
                    });
                }
            }
            Frame::Continuation {
                stream,
                fragment,
                end_headers,
            } => {
                let Some(mut pending) = self.pending_headers.take() else {
                    return Err(H2Error::Connection(
                        ErrorCode::ProtocolError,
                        "CONTINUATION without open header block",
                    ));
                };
                if pending.stream != stream {
                    return Err(H2Error::Connection(
                        ErrorCode::ProtocolError,
                        "CONTINUATION on wrong stream",
                    ));
                }
                pending.fragment.extend_from_slice(&fragment);
                if end_headers {
                    let frag = pending.fragment.freeze();
                    self.complete_headers(stream, &frag, pending.end_stream, events)?;
                } else {
                    self.pending_headers = Some(pending);
                }
            }
            Frame::Data {
                stream,
                data,
                end_stream,
            } => {
                let Some(rec) = self.streams.get_mut(&stream) else {
                    return Err(H2Error::Stream(
                        stream,
                        ErrorCode::StreamClosed,
                        "DATA on unknown stream",
                    ));
                };
                if !rec.state.can_recv() {
                    return Err(H2Error::Stream(
                        stream,
                        ErrorCode::StreamClosed,
                        "DATA on non-readable stream",
                    ));
                }
                rec.recv_window -= data.len() as i64;
                self.conn_recv_window -= data.len() as i64;
                if end_stream {
                    rec.state = rec.state.on_recv_end_stream();
                }
                // Replenish windows once half-consumed.
                let init = self.local_settings.initial_window_size as i64;
                if rec.recv_window < init / 2 {
                    let inc = (init - rec.recv_window) as u32;
                    rec.recv_window = init;
                    Frame::WindowUpdate {
                        stream,
                        increment: inc,
                    }
                    .encode(&mut self.send_buf);
                    self.stats.frames_encoded += 1;
                }
                if self.conn_recv_window < 32_768 {
                    let inc = (65_535 - self.conn_recv_window) as u32;
                    self.conn_recv_window = 65_535;
                    Frame::WindowUpdate {
                        stream: StreamId::CONNECTION,
                        increment: inc,
                    }
                    .encode(&mut self.send_buf);
                    self.stats.frames_encoded += 1;
                }
                events.push(Event::Data {
                    stream,
                    data,
                    end_stream,
                });
            }
            Frame::RstStream { stream, code } => {
                if let Some(rec) = self.streams.get_mut(&stream) {
                    rec.state = rec.state.on_reset();
                }
                self.priorities.remove(stream);
                events.push(Event::StreamReset { stream, code });
            }
            Frame::WindowUpdate { stream, increment } => {
                if stream.is_connection() {
                    self.conn_send_window += increment as i64;
                } else if let Some(rec) = self.streams.get_mut(&stream) {
                    rec.send_window += increment as i64;
                }
                self.flush_pending_data();
            }
            Frame::GoAway {
                last_stream, code, ..
            } => {
                self.goaway_received = true;
                events.push(Event::GoAway { code, last_stream });
            }
            Frame::Origin { origins } => {
                // RFC 8336 §2: clients update the origin set; servers
                // (and h2c endpoints) ignore the frame entirely.
                if self.role == Role::Client {
                    if let Some(st) = self.origin_state.as_mut() {
                        st.on_origin_frame(&origins);
                    }
                    self.origin_frames += 1;
                    self.stats.origin_frames_received += 1;
                    events.push(Event::OriginReceived { origins });
                }
            }
            Frame::AltSvc { origin, value, .. } => {
                events.push(Event::AltSvcReceived {
                    origin: String::from_utf8_lossy(&origin).into_owned(),
                    value: String::from_utf8_lossy(&value).into_owned(),
                });
            }
            Frame::PushPromise { promised, .. } => {
                // Push bodies are not modelled; refuse the stream so a
                // compliant peer stops.
                Frame::RstStream {
                    stream: promised,
                    code: ErrorCode::RefusedStream,
                }
                .encode(&mut self.send_buf);
                self.stats.frames_encoded += 1;
            }
            Frame::Priority { stream, spec } => {
                self.priorities.apply(stream, spec);
            }
            Frame::Unknown { kind, .. } => {
                // RFC 7540 §4.1: implementations MUST ignore and
                // discard frames of unknown type. This is the
                // "fail-open" rule the §6.7 middlebox violated.
                events.push(Event::UnknownFrameIgnored { kind });
            }
        }
        Ok(())
    }

    fn complete_headers(
        &mut self,
        stream: StreamId,
        fragment: &[u8],
        end_stream: bool,
        events: &mut Vec<Event>,
    ) -> Result<(), H2Error> {
        let headers = self
            .hpack_dec
            .decode(fragment)
            .map_err(|_| H2Error::Connection(ErrorCode::CompressionError, "HPACK decode failed"))?;
        let rec = self.streams.entry(stream).or_insert_with(|| StreamRec {
            state: StreamState::Idle,
            send_window: self.remote_settings.initial_window_size as i64,
            recv_window: self.local_settings.initial_window_size as i64,
        });
        rec.state = rec.state.on_recv_headers(end_stream);
        events.push(Event::Headers {
            stream,
            headers,
            end_stream,
        });
        Ok(())
    }
}

/// Build the standard request pseudo-header set.
pub fn request_headers(method: &str, authority: &str, path: &str) -> Vec<Header> {
    vec![
        Header::new(":method", method),
        Header::new(":scheme", "https"),
        Header::new(":authority", authority),
        Header::new(":path", path),
    ]
}

/// Extract the `:authority` pseudo-header from a decoded request.
pub fn authority_of(headers: &[Header]) -> Option<&str> {
    headers
        .iter()
        .find(|h| h.name == ":authority")
        .map(|h| h.value.as_str())
}

/// Extract the `:status` pseudo-header from a decoded response.
pub fn status_of(headers: &[Header]) -> Option<u16> {
    headers
        .iter()
        .find(|h| h.name == ":status")
        .and_then(|h| h.value.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pump bytes both ways until quiescent; collect events per side.
    fn pump(a: &mut Connection, b: &mut Connection) -> (Vec<Event>, Vec<Event>) {
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        loop {
            let out_a = a.take_outgoing();
            let out_b = b.take_outgoing();
            if out_a.is_empty() && out_b.is_empty() {
                break;
            }
            if !out_a.is_empty() {
                eb.extend(b.recv(&out_a).expect("b.recv"));
            }
            if !out_b.is_empty() {
                ea.extend(a.recv(&out_b).expect("a.recv"));
            }
        }
        (ea, eb)
    }

    fn pair() -> (Connection, Connection) {
        let client = Connection::client("www.example.com", Settings::default());
        let server = Connection::server(ServerConfig {
            authorized: vec!["www.example.com".into()],
            ..Default::default()
        });
        (client, server)
    }

    #[test]
    fn handshake_exchanges_settings() {
        let (mut c, mut s) = pair();
        let (ce, se) = pump(&mut c, &mut s);
        assert!(ce.contains(&Event::SettingsReceived));
        assert!(ce.contains(&Event::SettingsAcked));
        assert!(se.contains(&Event::SettingsReceived));
        assert!(se.contains(&Event::SettingsAcked));
    }

    #[test]
    fn bad_preface_rejected() {
        let mut s = Connection::server(ServerConfig::default());
        let err = s.recv(b"GET / HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err, H2Error::BadPreface);
    }

    #[test]
    fn preface_accepted_in_pieces() {
        let mut s = Connection::server(ServerConfig::default());
        let preface = CLIENT_PREFACE;
        assert!(s.recv(&preface[..10]).unwrap().is_empty());
        assert!(s.recv(&preface[10..]).unwrap().is_empty());
    }

    #[test]
    fn request_response_exchange() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        let stream = c.send_request(&request_headers("GET", "www.example.com", "/"), true);
        assert_eq!(stream, StreamId(1));
        let (_, se) = pump(&mut c, &mut s);
        let req = se
            .iter()
            .find_map(|e| match e {
                Event::Headers {
                    stream,
                    headers,
                    end_stream,
                } => Some((*stream, headers.clone(), *end_stream)),
                _ => None,
            })
            .expect("server saw request");
        assert_eq!(req.0, StreamId(1));
        assert!(req.2);
        assert_eq!(authority_of(&req.1), Some("www.example.com"));

        s.send_response(stream, 200, b"hello");
        let (ce, _) = pump(&mut c, &mut s);
        let status = ce
            .iter()
            .find_map(|e| match e {
                Event::Headers { headers, .. } => status_of(headers),
                _ => None,
            })
            .expect("client saw response headers");
        assert_eq!(status, 200);
        let body: Vec<u8> = ce
            .iter()
            .filter_map(|e| match e {
                Event::Data { data, .. } => Some(data.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(body, b"hello");
        assert_eq!(c.stream_state(stream), StreamState::Closed);
        assert_eq!(s.stream_state(stream), StreamState::Closed);
    }

    #[test]
    fn server_advertises_configured_origin_set() {
        let mut c = Connection::client("shop.example", Settings::default());
        let mut s = Connection::server(ServerConfig {
            origin_set: Some(OriginSet::from_hosts([
                "shop.example",
                "cdnjs.cloudflare.com",
            ])),
            ..Default::default()
        });
        let (ce, _) = pump(&mut c, &mut s);
        let got = ce
            .iter()
            .find_map(|e| match e {
                Event::OriginReceived { origins } => Some(origins.clone()),
                _ => None,
            })
            .expect("client received ORIGIN frame");
        assert_eq!(
            got,
            vec!["https://shop.example", "https://cdnjs.cloudflare.com"]
        );
        // Client origin state updated: coalescing now allowed for the
        // third-party host.
        assert!(c.origin_allows("cdnjs.cloudflare.com"));
        assert!(c.origin_allows("shop.example"));
        assert!(!c.origin_allows("evil.example"));
        assert_eq!(s.origin_frames, 1);
        assert_eq!(c.origin_frames, 1);
    }

    #[test]
    fn no_origin_frame_means_implicit_state() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        assert!(!c.origin_state().unwrap().is_explicit());
        assert!(c.origin_allows("www.example.com"));
        assert!(!c.origin_allows("static.example.com"));
    }

    #[test]
    fn misdirected_request_gets_421() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        let stream = c.send_request(
            &request_headers("GET", "unconfigured.example", "/x.js"),
            true,
        );
        let (_, se) = pump(&mut c, &mut s);
        let (req_stream, headers) = se
            .iter()
            .find_map(|e| match e {
                Event::Headers {
                    stream, headers, ..
                } => Some((*stream, headers.clone())),
                _ => None,
            })
            .unwrap();
        let authority = authority_of(&headers).unwrap();
        assert!(!s.is_authorized(authority));
        s.send_misdirected(req_stream);
        let (ce, _) = pump(&mut c, &mut s);
        let status = ce
            .iter()
            .find_map(|e| match e {
                Event::Headers { headers, .. } => status_of(headers),
                _ => None,
            })
            .unwrap();
        assert_eq!(status, 421);
        assert_eq!(stream, req_stream);
    }

    #[test]
    fn wildcard_server_authorizes_everything() {
        let s = Connection::server(ServerConfig::default());
        assert!(s.is_authorized("anything.example"));
    }

    #[test]
    fn ping_is_auto_acked() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        c.send_ping([9; 8]);
        let (ce, se) = pump(&mut c, &mut s);
        assert!(se.contains(&Event::PingReceived));
        assert!(ce.contains(&Event::PongReceived));
    }

    #[test]
    fn goaway_marks_closing() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        s.send_goaway(ErrorCode::NoError);
        let (ce, _) = pump(&mut c, &mut s);
        assert!(matches!(
            ce.last(),
            Some(Event::GoAway {
                code: ErrorCode::NoError,
                ..
            })
        ));
        assert!(c.is_closing());
        assert!(s.is_closing());
    }

    #[test]
    fn unknown_frames_ignored_fail_open() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        // Hand-craft an unknown frame type 0x42 and feed it to the client.
        let f = Frame::Unknown {
            kind: 0x42,
            flags: 0,
            stream: StreamId(0),
            payload: Bytes::from_static(b"???"),
        };
        let ev = c.recv(&f.to_bytes()).unwrap();
        assert_eq!(ev, vec![Event::UnknownFrameIgnored { kind: 0x42 }]);
        // Connection still works.
        let id = c.send_request(&request_headers("GET", "www.example.com", "/"), true);
        let (_, se) = pump(&mut c, &mut s);
        assert!(se.iter().any(|e| matches!(e, Event::Headers { .. })));
        assert_eq!(id, StreamId(1));
    }

    #[test]
    fn server_ignores_origin_frames() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        let f = OriginSet::from_hosts(["spoof.example"]).to_frame();
        let ev = s.recv(&f.to_bytes()).unwrap();
        assert!(ev.is_empty(), "server must ignore ORIGIN: {ev:?}");
        assert_eq!(s.origin_frames, 0);
    }

    #[test]
    fn multiple_requests_use_odd_stream_ids() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        let ids: Vec<StreamId> = (0..3)
            .map(|i| {
                c.send_request(
                    &request_headers("GET", "www.example.com", &format!("/{i}")),
                    true,
                )
            })
            .collect();
        assert_eq!(ids, vec![StreamId(1), StreamId(3), StreamId(5)]);
        assert_eq!(c.streams_opened(), 3);
        let (_, se) = pump(&mut c, &mut s);
        let seen: Vec<StreamId> = se
            .iter()
            .filter_map(|e| match e {
                Event::Headers { stream, .. } => Some(*stream),
                _ => None,
            })
            .collect();
        assert_eq!(seen, ids);
    }

    #[test]
    fn large_body_split_into_frames_and_window_updates_flow() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        let stream = c.send_request(&request_headers("GET", "www.example.com", "/big"), true);
        pump(&mut c, &mut s);
        let body = vec![0xAB; 40_000]; // > 2 frames at 16 KB
        s.send_response(stream, 200, &body);
        let (ce, _) = pump(&mut c, &mut s);
        let got: usize = ce
            .iter()
            .filter_map(|e| match e {
                Event::Data { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        assert_eq!(got, 40_000);
        // The client must have replenished its windows.
        assert!(
            ce.iter()
                .filter(|e| matches!(e, Event::Data { .. }))
                .count()
                >= 3
        );
    }

    #[test]
    fn rst_stream_surfaces_and_closes() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        let stream = c.send_request(&request_headers("GET", "www.example.com", "/"), true);
        pump(&mut c, &mut s);
        // Server refuses.
        Frame::RstStream {
            stream,
            code: ErrorCode::RefusedStream,
        }
        .encode(&mut s.send_buf);
        let (ce, _) = pump(&mut c, &mut s);
        assert!(ce.contains(&Event::StreamReset {
            stream,
            code: ErrorCode::RefusedStream
        }));
        assert_eq!(c.stream_state(stream), StreamState::Closed);
    }

    #[test]
    fn mid_connection_origin_update_replaces_set() {
        let mut c = Connection::client("a.example", Settings::default());
        let mut s = Connection::server(ServerConfig {
            origin_set: Some(OriginSet::from_hosts(["a.example", "b.example"])),
            ..Default::default()
        });
        pump(&mut c, &mut s);
        assert!(c.origin_allows("b.example"));
        s.send_origin_set(&OriginSet::from_hosts(["a.example"]));
        pump(&mut c, &mut s);
        assert!(!c.origin_allows("b.example"));
        assert_eq!(s.origin_frames, 2);
    }

    #[test]
    fn continuation_frames_reassemble() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        // Hand-encode a header block split across HEADERS+CONTINUATION.
        let mut enc = HpackEncoder::new();
        let block = enc.encode(&request_headers("GET", "www.example.com", "/split"));
        let (h1, h2) = block.split_at(block.len() / 2);
        Frame::Headers {
            stream: StreamId(1),
            fragment: Bytes::copy_from_slice(h1),
            end_stream: true,
            end_headers: false,
            priority: None,
        }
        .encode(&mut c.send_buf);
        Frame::Continuation {
            stream: StreamId(1),
            fragment: Bytes::copy_from_slice(h2),
            end_headers: true,
        }
        .encode(&mut c.send_buf);
        let (_, se) = pump(&mut c, &mut s);
        let headers = se
            .iter()
            .find_map(|e| match e {
                Event::Headers { headers, .. } => Some(headers.clone()),
                _ => None,
            })
            .expect("reassembled headers");
        assert_eq!(authority_of(&headers), Some("www.example.com"));
    }

    #[test]
    #[should_panic(expected = "GOAWAY")]
    fn requests_after_goaway_panic() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        s.send_goaway(ErrorCode::NoError);
        pump(&mut c, &mut s);
        c.send_request(&request_headers("GET", "www.example.com", "/"), true);
    }

    #[test]
    #[should_panic(expected = "MAX_CONCURRENT_STREAMS")]
    fn concurrency_limit_enforced() {
        let mut c = Connection::client("www.example.com", Settings::default());
        let mut s = Connection::server(ServerConfig {
            settings: Settings {
                max_concurrent_streams: Some(2),
                ..Default::default()
            },
            ..Default::default()
        });
        pump(&mut c, &mut s);
        // Two requests allowed; the third overruns the advertised cap
        // (responses are withheld, so streams stay open).
        c.send_request(&request_headers("GET", "www.example.com", "/1"), true);
        c.send_request(&request_headers("GET", "www.example.com", "/2"), true);
        c.send_request(&request_headers("GET", "www.example.com", "/3"), true);
    }

    #[test]
    fn flow_control_queues_and_resumes_on_window_update() {
        // Server with a tiny initial window: a large body must queue
        // and drain as the client's auto-replenish WINDOW_UPDATEs
        // arrive.
        let mut c = Connection::client("www.example.com", Settings::default());
        let mut s = Connection::server(ServerConfig::default());
        pump(&mut c, &mut s);
        let stream = c.send_request(&request_headers("GET", "www.example.com", "/big"), true);
        pump(&mut c, &mut s);
        // 200 KB ≫ the 64 KB connection window.
        let body = vec![0x5A; 200_000];
        s.send_response(stream, 200, &body);
        assert!(s.queued_data() > 0, "body beyond the window must queue");
        let (ce, _) = pump(&mut c, &mut s);
        let got: usize = ce
            .iter()
            .filter_map(|e| match e {
                Event::Data { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        assert_eq!(got, 200_000, "window updates must drain the queue");
        assert_eq!(s.queued_data(), 0);
        assert_eq!(c.stream_state(stream), StreamState::Closed);
    }

    #[test]
    fn data_frames_respect_peer_window_sizes() {
        let mut c = Connection::client("www.example.com", Settings::default());
        let mut s = Connection::server(ServerConfig::default());
        pump(&mut c, &mut s);
        let stream = c.send_request(&request_headers("GET", "www.example.com", "/x"), true);
        pump(&mut c, &mut s);
        s.send_response(stream, 200, &vec![1u8; 100_000]);
        // Every emitted DATA frame must be within the 16 KB max frame
        // size and the first flight within the 64 KB window.
        let wire = s.take_outgoing();
        let dec = FrameDecoder::default();
        let mut buf = BytesMut::from(&wire[..]);
        let mut first_flight = 0usize;
        while let Some(f) = dec.decode(&mut buf).unwrap() {
            if let Frame::Data { data, .. } = f {
                assert!(data.len() <= 16_384);
                first_flight += data.len();
            }
        }
        assert!(first_flight <= 65_535, "first flight {first_flight}");
        // Feed it through; the rest drains via pump.
        c.recv(&wire).unwrap();
        let (ce, _) = pump(&mut c, &mut s);
        let got: usize = ce
            .iter()
            .filter_map(|e| match e {
                Event::Data { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        assert_eq!(got + first_flight, 100_000);
    }

    #[test]
    fn priority_frames_populate_the_tree() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        // The client expresses a dependency: stream 3 depends on 1.
        Frame::Priority {
            stream: StreamId(1),
            spec: crate::frame::PrioritySpec {
                exclusive: false,
                depends_on: StreamId(0),
                weight: 200,
            },
        }
        .encode(&mut c.send_buf);
        Frame::Priority {
            stream: StreamId(3),
            spec: crate::frame::PrioritySpec {
                exclusive: false,
                depends_on: StreamId(1),
                weight: 100,
            },
        }
        .encode(&mut c.send_buf);
        pump(&mut c, &mut s);
        let order = s.priorities.transmission_order();
        assert_eq!(order, vec![StreamId(1), StreamId(3)]);
        // RST removes from the tree.
        Frame::RstStream {
            stream: StreamId(1),
            code: ErrorCode::Cancel,
        }
        .encode(&mut c.send_buf);
        pump(&mut c, &mut s);
        assert_eq!(s.priorities.transmission_order(), vec![StreamId(3)]);
    }

    #[test]
    fn open_streams_tracks_lifecycle() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        assert_eq!(c.open_streams(), 0);
        let id = c.send_request(&request_headers("GET", "www.example.com", "/"), true);
        assert_eq!(c.open_streams(), 1);
        let (_, se) = pump(&mut c, &mut s);
        assert!(se.iter().any(|e| matches!(e, Event::Headers { .. })));
        s.send_response(id, 200, b"done");
        pump(&mut c, &mut s);
        assert_eq!(c.open_streams(), 0);
    }

    #[test]
    fn oversized_header_block_splits_into_continuations() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        // A cookie far larger than the 16 KB max frame size forces a
        // HEADERS + CONTINUATION sequence on the wire.
        let mut headers = request_headers("GET", "www.example.com", "/big");
        headers.push(Header::sensitive("cookie", &"x".repeat(40_000)));
        c.send_request(&headers, true);
        let (_, se) = pump(&mut c, &mut s);
        let got = se
            .iter()
            .find_map(|e| match e {
                Event::Headers { headers, .. } => Some(headers.clone()),
                _ => None,
            })
            .expect("server reassembles the split block");
        assert!(got
            .iter()
            .any(|h| h.name == "cookie" && h.value.len() == 40_000));
    }

    #[test]
    fn interleaved_frame_during_continuation_is_protocol_error() {
        let (mut c, mut s) = pair();
        pump(&mut c, &mut s);
        Frame::Headers {
            stream: StreamId(1),
            fragment: Bytes::from_static(&[0x82]),
            end_stream: true,
            end_headers: false,
            priority: None,
        }
        .encode(&mut c.send_buf);
        Frame::Ping {
            ack: false,
            payload: [0; 8],
        }
        .encode(&mut c.send_buf);
        let out = c.take_outgoing();
        let err = s.recv(&out).unwrap_err();
        assert!(matches!(
            err,
            H2Error::Connection(ErrorCode::ProtocolError, _)
        ));
    }
}
