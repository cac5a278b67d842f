//! Frame codec: RFC 7540 core frames plus ALTSVC (RFC 7838) and
//! ORIGIN (RFC 8336).
//!
//! Encoding writes into a `BytesMut`; decoding is incremental in the
//! Tokio-framing style — [`FrameDecoder::decode`] consumes a byte
//! buffer and yields one complete frame at a time, returning
//! `Ok(None)` on partial input so a transport can feed bytes as they
//! arrive.

use crate::error::{ErrorCode, FrameError};
use crate::stream::StreamId;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Default SETTINGS_MAX_FRAME_SIZE (RFC 7540 §6.5.2).
pub const DEFAULT_MAX_FRAME_SIZE: usize = 16_384;

/// Frame type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// 0x00.
    Data,
    /// 0x01.
    Headers,
    /// 0x02.
    Priority,
    /// 0x03.
    RstStream,
    /// 0x04.
    Settings,
    /// 0x05.
    PushPromise,
    /// 0x06.
    Ping,
    /// 0x07.
    GoAway,
    /// 0x08.
    WindowUpdate,
    /// 0x09.
    Continuation,
    /// 0x0a (RFC 7838).
    AltSvc,
    /// 0x0c (RFC 8336).
    Origin,
    /// Anything else — must be ignored per RFC 7540 §4.1.
    Unknown(u8),
}

impl FrameType {
    /// Wire value.
    pub const fn to_u8(self) -> u8 {
        match self {
            FrameType::Data => 0x00,
            FrameType::Headers => 0x01,
            FrameType::Priority => 0x02,
            FrameType::RstStream => 0x03,
            FrameType::Settings => 0x04,
            FrameType::PushPromise => 0x05,
            FrameType::Ping => 0x06,
            FrameType::GoAway => 0x07,
            FrameType::WindowUpdate => 0x08,
            FrameType::Continuation => 0x09,
            FrameType::AltSvc => 0x0a,
            FrameType::Origin => 0x0c,
            FrameType::Unknown(v) => v,
        }
    }

    /// Canonical RFC frame name (`DATA`, `ORIGIN`, …) for trace and
    /// log output; unknown types render as `UNKNOWN`.
    pub fn name(self) -> &'static str {
        match self {
            FrameType::Data => "DATA",
            FrameType::Headers => "HEADERS",
            FrameType::Priority => "PRIORITY",
            FrameType::RstStream => "RST_STREAM",
            FrameType::Settings => "SETTINGS",
            FrameType::PushPromise => "PUSH_PROMISE",
            FrameType::Ping => "PING",
            FrameType::GoAway => "GOAWAY",
            FrameType::WindowUpdate => "WINDOW_UPDATE",
            FrameType::Continuation => "CONTINUATION",
            FrameType::AltSvc => "ALTSVC",
            FrameType::Origin => "ORIGIN",
            FrameType::Unknown(_) => "UNKNOWN",
        }
    }

    /// Parse a wire value.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0x00 => FrameType::Data,
            0x01 => FrameType::Headers,
            0x02 => FrameType::Priority,
            0x03 => FrameType::RstStream,
            0x04 => FrameType::Settings,
            0x05 => FrameType::PushPromise,
            0x06 => FrameType::Ping,
            0x07 => FrameType::GoAway,
            0x08 => FrameType::WindowUpdate,
            0x09 => FrameType::Continuation,
            0x0a => FrameType::AltSvc,
            0x0c => FrameType::Origin,
            other => FrameType::Unknown(other),
        }
    }
}

/// Flag bit: END_STREAM (DATA, HEADERS).
pub const FLAG_END_STREAM: u8 = 0x1;
/// Flag bit: ACK (SETTINGS, PING).
pub const FLAG_ACK: u8 = 0x1;
/// Flag bit: END_HEADERS (HEADERS, PUSH_PROMISE, CONTINUATION).
pub const FLAG_END_HEADERS: u8 = 0x4;
/// Flag bit: PADDED (DATA, HEADERS, PUSH_PROMISE).
pub const FLAG_PADDED: u8 = 0x8;
/// Flag bit: PRIORITY (HEADERS).
pub const FLAG_PRIORITY: u8 = 0x20;

/// The 9-octet frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length (24-bit).
    pub length: u32,
    /// Raw type octet.
    pub kind: u8,
    /// Flag octet.
    pub flags: u8,
    /// Stream identifier (reserved bit masked off).
    pub stream_id: StreamId,
}

impl FrameHeader {
    /// Parse from exactly 9 octets.
    pub fn parse(buf: &[u8; 9]) -> FrameHeader {
        let length = u32::from_be_bytes([0, buf[0], buf[1], buf[2]]);
        let kind = buf[3];
        let flags = buf[4];
        let stream_id =
            StreamId(u32::from_be_bytes([buf[5], buf[6], buf[7], buf[8]]) & 0x7fff_ffff);
        FrameHeader {
            length,
            kind,
            flags,
            stream_id,
        }
    }

    /// Serialize into 9 octets.
    pub fn encode(&self, dst: &mut BytesMut) {
        debug_assert!(self.length < (1 << 24));
        dst.put_uint(self.length as u64, 3);
        dst.put_u8(self.kind);
        dst.put_u8(self.flags);
        dst.put_u32(self.stream_id.0 & 0x7fff_ffff);
    }
}

/// A stream dependency specification carried by PRIORITY frames and
/// the HEADERS PRIORITY flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrioritySpec {
    /// Whether the dependency is exclusive.
    pub exclusive: bool,
    /// The stream this one depends on.
    pub depends_on: StreamId,
    /// Weight 1–256, stored as the wire octet (weight − 1).
    pub weight: u8,
}

/// A decoded HTTP/2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// DATA: request/response body bytes.
    Data {
        /// Carrying stream.
        stream: StreamId,
        /// Payload (padding stripped).
        data: Bytes,
        /// END_STREAM flag.
        end_stream: bool,
    },
    /// HEADERS: an HPACK-encoded header block fragment.
    Headers {
        /// Carrying stream.
        stream: StreamId,
        /// HPACK header block fragment (padding stripped).
        fragment: Bytes,
        /// END_STREAM flag.
        end_stream: bool,
        /// END_HEADERS flag.
        end_headers: bool,
        /// Priority fields when the PRIORITY flag was set.
        priority: Option<PrioritySpec>,
    },
    /// PRIORITY.
    Priority {
        /// Target stream.
        stream: StreamId,
        /// Dependency spec.
        spec: PrioritySpec,
    },
    /// RST_STREAM.
    RstStream {
        /// Target stream.
        stream: StreamId,
        /// Error code.
        code: ErrorCode,
    },
    /// SETTINGS.
    Settings {
        /// ACK flag (payload must be empty when set).
        ack: bool,
        /// `(identifier, value)` pairs in wire order.
        params: Vec<(u16, u32)>,
    },
    /// PUSH_PROMISE.
    PushPromise {
        /// Stream the promise rides on.
        stream: StreamId,
        /// The promised (reserved) stream.
        promised: StreamId,
        /// HPACK fragment of the promised request headers.
        fragment: Bytes,
        /// END_HEADERS flag.
        end_headers: bool,
    },
    /// PING.
    Ping {
        /// ACK flag.
        ack: bool,
        /// Opaque 8-octet payload.
        payload: [u8; 8],
    },
    /// GOAWAY.
    GoAway {
        /// Highest peer-initiated stream the sender may process.
        last_stream: StreamId,
        /// Error code.
        code: ErrorCode,
        /// Opaque debug data.
        debug: Bytes,
    },
    /// WINDOW_UPDATE (stream 0 = connection window).
    WindowUpdate {
        /// Target stream (0 for connection).
        stream: StreamId,
        /// Window size increment (1..2^31-1).
        increment: u32,
    },
    /// CONTINUATION of a header block.
    Continuation {
        /// Carrying stream.
        stream: StreamId,
        /// HPACK fragment.
        fragment: Bytes,
        /// END_HEADERS flag.
        end_headers: bool,
    },
    /// ALTSVC (RFC 7838): alternative service advertisement.
    AltSvc {
        /// Carrying stream.
        stream: StreamId,
        /// Origin the advertisement applies to (stream-0 frames).
        origin: Bytes,
        /// Alt-Svc field value.
        value: Bytes,
    },
    /// ORIGIN (RFC 8336): the origin set for this connection.
    /// Always stream 0; flags are unused.
    Origin {
        /// ASCII origins (`https://example.com[:port]`) in wire order.
        origins: Vec<String>,
    },
    /// A frame of unknown type — preserved so middlebox models and
    /// fail-open tests can observe it.
    Unknown {
        /// Raw type octet.
        kind: u8,
        /// Raw flags.
        flags: u8,
        /// Carrying stream.
        stream: StreamId,
        /// Raw payload.
        payload: Bytes,
    },
}

impl Frame {
    /// The frame's type.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Frame::Data { .. } => FrameType::Data,
            Frame::Headers { .. } => FrameType::Headers,
            Frame::Priority { .. } => FrameType::Priority,
            Frame::RstStream { .. } => FrameType::RstStream,
            Frame::Settings { .. } => FrameType::Settings,
            Frame::PushPromise { .. } => FrameType::PushPromise,
            Frame::Ping { .. } => FrameType::Ping,
            Frame::GoAway { .. } => FrameType::GoAway,
            Frame::WindowUpdate { .. } => FrameType::WindowUpdate,
            Frame::Continuation { .. } => FrameType::Continuation,
            Frame::AltSvc { .. } => FrameType::AltSvc,
            Frame::Origin { .. } => FrameType::Origin,
            Frame::Unknown { kind, .. } => FrameType::from_u8(*kind),
        }
    }

    /// The stream the frame rides on (0 for connection-scoped frames).
    pub fn stream_id(&self) -> StreamId {
        match self {
            Frame::Data { stream, .. }
            | Frame::Headers { stream, .. }
            | Frame::Priority { stream, .. }
            | Frame::RstStream { stream, .. }
            | Frame::PushPromise { stream, .. }
            | Frame::Continuation { stream, .. }
            | Frame::AltSvc { stream, .. }
            | Frame::WindowUpdate { stream, .. }
            | Frame::Unknown { stream, .. } => *stream,
            Frame::Settings { .. }
            | Frame::Ping { .. }
            | Frame::GoAway { .. }
            | Frame::Origin { .. } => StreamId::CONNECTION,
        }
    }

    /// Serialize the frame (header + payload) into `dst`.
    pub fn encode(&self, dst: &mut BytesMut) {
        match self {
            Frame::Data {
                stream,
                data,
                end_stream,
            } => {
                let flags = if *end_stream { FLAG_END_STREAM } else { 0 };
                header(dst, data.len(), FrameType::Data, flags, *stream);
                dst.extend_from_slice(data);
            }
            Frame::Headers {
                stream,
                fragment,
                end_stream,
                end_headers,
                priority,
            } => {
                encode_headers(
                    dst,
                    *stream,
                    fragment,
                    *end_stream,
                    *end_headers,
                    priority.as_ref(),
                );
            }
            Frame::Priority { stream, spec } => {
                header(dst, 5, FrameType::Priority, 0, *stream);
                put_priority(dst, spec);
            }
            Frame::RstStream { stream, code } => {
                header(dst, 4, FrameType::RstStream, 0, *stream);
                dst.put_u32(code.to_u32());
            }
            Frame::Settings { ack, params } => {
                let flags = if *ack { FLAG_ACK } else { 0 };
                header(
                    dst,
                    params.len() * 6,
                    FrameType::Settings,
                    flags,
                    StreamId::CONNECTION,
                );
                for (id, val) in params {
                    dst.put_u16(*id);
                    dst.put_u32(*val);
                }
            }
            Frame::PushPromise {
                stream,
                promised,
                fragment,
                end_headers,
            } => {
                let flags = if *end_headers { FLAG_END_HEADERS } else { 0 };
                header(
                    dst,
                    fragment.len() + 4,
                    FrameType::PushPromise,
                    flags,
                    *stream,
                );
                dst.put_u32(promised.0 & 0x7fff_ffff);
                dst.extend_from_slice(fragment);
            }
            Frame::Ping { ack, payload } => {
                let flags = if *ack { FLAG_ACK } else { 0 };
                header(dst, 8, FrameType::Ping, flags, StreamId::CONNECTION);
                dst.extend_from_slice(payload);
            }
            Frame::GoAway {
                last_stream,
                code,
                debug,
            } => {
                header(
                    dst,
                    8 + debug.len(),
                    FrameType::GoAway,
                    0,
                    StreamId::CONNECTION,
                );
                dst.put_u32(last_stream.0 & 0x7fff_ffff);
                dst.put_u32(code.to_u32());
                dst.extend_from_slice(debug);
            }
            Frame::WindowUpdate { stream, increment } => {
                header(dst, 4, FrameType::WindowUpdate, 0, *stream);
                dst.put_u32(increment & 0x7fff_ffff);
            }
            Frame::Continuation {
                stream,
                fragment,
                end_headers,
            } => {
                encode_continuation(dst, *stream, fragment, *end_headers);
            }
            Frame::AltSvc {
                stream,
                origin,
                value,
            } => {
                header(
                    dst,
                    2 + origin.len() + value.len(),
                    FrameType::AltSvc,
                    0,
                    *stream,
                );
                dst.put_u16(origin.len() as u16);
                dst.extend_from_slice(origin);
                dst.extend_from_slice(value);
            }
            Frame::Origin { origins } => {
                let len: usize = origins.iter().map(|o| 2 + o.len()).sum();
                header(dst, len, FrameType::Origin, 0, StreamId::CONNECTION);
                for o in origins {
                    debug_assert!(o.is_ascii());
                    dst.put_u16(o.len() as u16);
                    dst.extend_from_slice(o.as_bytes());
                }
            }
            Frame::Unknown {
                kind,
                flags,
                stream,
                payload,
            } => {
                let h = FrameHeader {
                    length: payload.len() as u32,
                    kind: *kind,
                    flags: *flags,
                    stream_id: *stream,
                };
                h.encode(dst);
                dst.extend_from_slice(payload);
            }
        }
    }

    /// Serialize into a standalone buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut b = BytesMut::new();
        self.encode(&mut b);
        b.freeze()
    }
}

/// Encode a HEADERS frame whose fragment is a borrowed slice.
///
/// This is the zero-copy path [`crate::conn::Connection`] uses to
/// emit header blocks straight from its reused HPACK scratch buffer
/// into the connection's send buffer — no intermediate `Bytes`
/// allocation per frame. `Frame::Headers::encode` delegates here, so
/// the wire bytes are identical by construction.
pub fn encode_headers(
    dst: &mut BytesMut,
    stream: StreamId,
    fragment: &[u8],
    end_stream: bool,
    end_headers: bool,
    priority: Option<&PrioritySpec>,
) {
    let mut flags = 0;
    if end_stream {
        flags |= FLAG_END_STREAM;
    }
    if end_headers {
        flags |= FLAG_END_HEADERS;
    }
    let extra = if priority.is_some() { 5 } else { 0 };
    if priority.is_some() {
        flags |= FLAG_PRIORITY;
    }
    header(
        dst,
        fragment.len() + extra,
        FrameType::Headers,
        flags,
        stream,
    );
    if let Some(p) = priority {
        put_priority(dst, p);
    }
    dst.extend_from_slice(fragment);
}

/// Encode a CONTINUATION frame from a borrowed fragment slice (see
/// [`encode_headers`]). `Frame::Continuation::encode` delegates here.
pub fn encode_continuation(
    dst: &mut BytesMut,
    stream: StreamId,
    fragment: &[u8],
    end_headers: bool,
) {
    let flags = if end_headers { FLAG_END_HEADERS } else { 0 };
    header(dst, fragment.len(), FrameType::Continuation, flags, stream);
    dst.extend_from_slice(fragment);
}

fn header(dst: &mut BytesMut, len: usize, kind: FrameType, flags: u8, stream: StreamId) {
    FrameHeader {
        length: len as u32,
        kind: kind.to_u8(),
        flags,
        stream_id: stream,
    }
    .encode(dst);
}

fn put_priority(dst: &mut BytesMut, p: &PrioritySpec) {
    let dep = (p.depends_on.0 & 0x7fff_ffff) | if p.exclusive { 0x8000_0000 } else { 0 };
    dst.put_u32(dep);
    dst.put_u8(p.weight);
}

fn get_priority(payload: &mut Bytes) -> PrioritySpec {
    let dep = payload.get_u32();
    let weight = payload.get_u8();
    PrioritySpec {
        exclusive: dep & 0x8000_0000 != 0,
        depends_on: StreamId(dep & 0x7fff_ffff),
        weight,
    }
}

/// Incremental frame decoder.
///
/// Feed bytes into a `BytesMut` and call [`FrameDecoder::decode`] in a
/// loop; it yields `Ok(Some(frame))` per complete frame, `Ok(None)`
/// when more bytes are needed, and errors on malformed input. The
/// buffer is only consumed when a whole frame is available.
#[derive(Debug, Clone)]
pub struct FrameDecoder {
    /// Largest payload this endpoint accepts
    /// (SETTINGS_MAX_FRAME_SIZE).
    pub max_frame_size: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder {
            max_frame_size: DEFAULT_MAX_FRAME_SIZE,
        }
    }
}

impl FrameDecoder {
    /// Decoder with a specific max frame size.
    pub fn new(max_frame_size: usize) -> Self {
        FrameDecoder { max_frame_size }
    }

    /// Try to decode one frame from `src`.
    pub fn decode(&self, src: &mut BytesMut) -> Result<Option<Frame>, FrameError> {
        if src.len() < 9 {
            return Ok(None);
        }
        let mut hdr = [0u8; 9];
        hdr.copy_from_slice(&src[..9]);
        let head = FrameHeader::parse(&hdr);
        let len = head.length as usize;
        if len > self.max_frame_size {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_frame_size,
            });
        }
        if src.len() < 9 + len {
            return Ok(None);
        }
        src.advance(9);
        let mut payload = src.split_to(len).freeze();
        let frame = Self::decode_payload(head, &mut payload)?;
        Ok(Some(frame))
    }

    fn decode_payload(head: FrameHeader, payload: &mut Bytes) -> Result<Frame, FrameError> {
        let kind = FrameType::from_u8(head.kind);
        let stream = head.stream_id;
        let flags = head.flags;
        match kind {
            FrameType::Data => {
                if stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "DATA",
                        id: 0,
                    });
                }
                let data = strip_padding(payload, flags)?;
                Ok(Frame::Data {
                    stream,
                    data,
                    end_stream: flags & FLAG_END_STREAM != 0,
                })
            }
            FrameType::Headers => {
                if stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "HEADERS",
                        id: 0,
                    });
                }
                let mut body = strip_padding(payload, flags)?;
                let priority = if flags & FLAG_PRIORITY != 0 {
                    if body.len() < 5 {
                        return Err(FrameError::BadLength {
                            kind: "HEADERS",
                            len: body.len(),
                        });
                    }
                    Some(get_priority(&mut body))
                } else {
                    None
                };
                Ok(Frame::Headers {
                    stream,
                    fragment: body,
                    end_stream: flags & FLAG_END_STREAM != 0,
                    end_headers: flags & FLAG_END_HEADERS != 0,
                    priority,
                })
            }
            FrameType::Priority => {
                if payload.len() != 5 {
                    return Err(FrameError::BadLength {
                        kind: "PRIORITY",
                        len: payload.len(),
                    });
                }
                if stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "PRIORITY",
                        id: 0,
                    });
                }
                Ok(Frame::Priority {
                    stream,
                    spec: get_priority(payload),
                })
            }
            FrameType::RstStream => {
                if payload.len() != 4 {
                    return Err(FrameError::BadLength {
                        kind: "RST_STREAM",
                        len: payload.len(),
                    });
                }
                if stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "RST_STREAM",
                        id: 0,
                    });
                }
                Ok(Frame::RstStream {
                    stream,
                    code: ErrorCode::from_u32(payload.get_u32()),
                })
            }
            FrameType::Settings => {
                if !stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "SETTINGS",
                        id: stream.0,
                    });
                }
                let ack = flags & FLAG_ACK != 0;
                if ack && !payload.is_empty() {
                    return Err(FrameError::BadLength {
                        kind: "SETTINGS(ACK)",
                        len: payload.len(),
                    });
                }
                if payload.len() % 6 != 0 {
                    return Err(FrameError::BadLength {
                        kind: "SETTINGS",
                        len: payload.len(),
                    });
                }
                let mut params = Vec::with_capacity(payload.len() / 6);
                while payload.remaining() >= 6 {
                    params.push((payload.get_u16(), payload.get_u32()));
                }
                Ok(Frame::Settings { ack, params })
            }
            FrameType::PushPromise => {
                if stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "PUSH_PROMISE",
                        id: 0,
                    });
                }
                let mut body = strip_padding(payload, flags)?;
                if body.len() < 4 {
                    return Err(FrameError::BadLength {
                        kind: "PUSH_PROMISE",
                        len: body.len(),
                    });
                }
                let promised = StreamId(body.get_u32() & 0x7fff_ffff);
                Ok(Frame::PushPromise {
                    stream,
                    promised,
                    fragment: body,
                    end_headers: flags & FLAG_END_HEADERS != 0,
                })
            }
            FrameType::Ping => {
                if payload.len() != 8 {
                    return Err(FrameError::BadLength {
                        kind: "PING",
                        len: payload.len(),
                    });
                }
                if !stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "PING",
                        id: stream.0,
                    });
                }
                let mut p = [0u8; 8];
                p.copy_from_slice(&payload[..8]);
                Ok(Frame::Ping {
                    ack: flags & FLAG_ACK != 0,
                    payload: p,
                })
            }
            FrameType::GoAway => {
                if payload.len() < 8 {
                    return Err(FrameError::BadLength {
                        kind: "GOAWAY",
                        len: payload.len(),
                    });
                }
                if !stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "GOAWAY",
                        id: stream.0,
                    });
                }
                let last_stream = StreamId(payload.get_u32() & 0x7fff_ffff);
                let code = ErrorCode::from_u32(payload.get_u32());
                Ok(Frame::GoAway {
                    last_stream,
                    code,
                    debug: payload.clone(),
                })
            }
            FrameType::WindowUpdate => {
                if payload.len() != 4 {
                    return Err(FrameError::BadLength {
                        kind: "WINDOW_UPDATE",
                        len: payload.len(),
                    });
                }
                Ok(Frame::WindowUpdate {
                    stream,
                    increment: payload.get_u32() & 0x7fff_ffff,
                })
            }
            FrameType::Continuation => {
                if stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "CONTINUATION",
                        id: 0,
                    });
                }
                Ok(Frame::Continuation {
                    stream,
                    fragment: payload.clone(),
                    end_headers: flags & FLAG_END_HEADERS != 0,
                })
            }
            FrameType::AltSvc => {
                if payload.len() < 2 {
                    return Err(FrameError::BadLength {
                        kind: "ALTSVC",
                        len: payload.len(),
                    });
                }
                let origin_len = payload.get_u16() as usize;
                if payload.len() < origin_len {
                    return Err(FrameError::BadLength {
                        kind: "ALTSVC",
                        len: payload.len(),
                    });
                }
                let origin = payload.split_to(origin_len);
                Ok(Frame::AltSvc {
                    stream,
                    origin,
                    value: payload.clone(),
                })
            }
            FrameType::Origin => {
                // RFC 8336 §2: ORIGIN frames on a non-zero stream or
                // with a malformed payload "MUST be ignored" — but the
                // codec surfaces structural errors; the connection
                // layer decides to ignore.
                if !stream.is_connection() {
                    return Err(FrameError::BadStreamId {
                        kind: "ORIGIN",
                        id: stream.0,
                    });
                }
                let mut origins = Vec::new();
                while payload.has_remaining() {
                    if payload.remaining() < 2 {
                        return Err(FrameError::BadLength {
                            kind: "ORIGIN",
                            len: payload.remaining(),
                        });
                    }
                    let len = payload.get_u16() as usize;
                    if payload.remaining() < len {
                        return Err(FrameError::BadLength {
                            kind: "ORIGIN",
                            len: payload.remaining(),
                        });
                    }
                    let entry = payload.split_to(len);
                    let s = std::str::from_utf8(&entry).map_err(|_| FrameError::BadString)?;
                    if !s.is_ascii() {
                        return Err(FrameError::BadString);
                    }
                    origins.push(s.to_string());
                }
                Ok(Frame::Origin { origins })
            }
            FrameType::Unknown(kind) => Ok(Frame::Unknown {
                kind,
                flags,
                stream,
                payload: payload.clone(),
            }),
        }
    }
}

/// Strip PADDED framing: first octet is the pad length; that many
/// trailing octets are removed.
fn strip_padding(payload: &mut Bytes, flags: u8) -> Result<Bytes, FrameError> {
    if flags & FLAG_PADDED == 0 {
        return Ok(payload.clone());
    }
    if payload.is_empty() {
        return Err(FrameError::BadPadding);
    }
    let pad = payload.get_u8() as usize;
    // Pad length must not exceed the remaining payload (RFC 7540 §6.1).
    if pad > payload.len() {
        return Err(FrameError::BadPadding);
    }
    let body_len = payload.len() - pad;
    Ok(payload.split_to(body_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) -> Frame {
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        let dec = FrameDecoder::default();
        let out = dec.decode(&mut buf).expect("decode ok").expect("complete");
        assert!(buf.is_empty(), "decoder must consume the whole frame");
        out
    }

    #[test]
    fn data_roundtrip() {
        let f = Frame::Data {
            stream: StreamId(1),
            data: Bytes::from_static(b"hello world"),
            end_stream: true,
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn headers_roundtrip_with_priority() {
        let f = Frame::Headers {
            stream: StreamId(5),
            fragment: Bytes::from_static(&[0x82, 0x86]),
            end_stream: false,
            end_headers: true,
            priority: Some(PrioritySpec {
                exclusive: true,
                depends_on: StreamId(3),
                weight: 200,
            }),
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn settings_roundtrip() {
        let f = Frame::Settings {
            ack: false,
            params: vec![(0x3, 100), (0x4, 65_535)],
        };
        assert_eq!(roundtrip(f.clone()), f);
        let ack = Frame::Settings {
            ack: true,
            params: vec![],
        };
        assert_eq!(roundtrip(ack.clone()), ack);
    }

    #[test]
    fn ping_goaway_window_roundtrip() {
        let p = Frame::Ping {
            ack: true,
            payload: [1, 2, 3, 4, 5, 6, 7, 8],
        };
        assert_eq!(roundtrip(p.clone()), p);
        let g = Frame::GoAway {
            last_stream: StreamId(9),
            code: ErrorCode::EnhanceYourCalm,
            debug: Bytes::from_static(b"bye"),
        };
        assert_eq!(roundtrip(g.clone()), g);
        let w = Frame::WindowUpdate {
            stream: StreamId(0),
            increment: 0x7fff_ffff,
        };
        assert_eq!(roundtrip(w.clone()), w);
    }

    #[test]
    fn rst_priority_continuation_pushpromise_altsvc_roundtrip() {
        let r = Frame::RstStream {
            stream: StreamId(7),
            code: ErrorCode::Cancel,
        };
        assert_eq!(roundtrip(r.clone()), r);
        let p = Frame::Priority {
            stream: StreamId(7),
            spec: PrioritySpec {
                exclusive: false,
                depends_on: StreamId(0),
                weight: 15,
            },
        };
        assert_eq!(roundtrip(p.clone()), p);
        let c = Frame::Continuation {
            stream: StreamId(7),
            fragment: Bytes::from_static(&[1, 2, 3]),
            end_headers: true,
        };
        assert_eq!(roundtrip(c.clone()), c);
        let pp = Frame::PushPromise {
            stream: StreamId(7),
            promised: StreamId(8),
            fragment: Bytes::from_static(&[0x82]),
            end_headers: true,
        };
        assert_eq!(roundtrip(pp.clone()), pp);
        let a = Frame::AltSvc {
            stream: StreamId(0),
            origin: Bytes::from_static(b"https://example.com"),
            value: Bytes::from_static(b"h3=\":443\""),
        };
        assert_eq!(roundtrip(a.clone()), a);
    }

    #[test]
    fn origin_frame_roundtrip() {
        let f = Frame::Origin {
            origins: vec![
                "https://example.com".to_string(),
                "https://static.example.com".to_string(),
                "https://cdnjs.cloudflare.com".to_string(),
            ],
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn empty_origin_frame_clears_set() {
        // RFC 8336: an ORIGIN frame with no entries is valid (empties
        // the origin set).
        let f = Frame::Origin { origins: vec![] };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn unknown_frame_passthrough() {
        let f = Frame::Unknown {
            kind: 0xfb,
            flags: 0x55,
            stream: StreamId(11),
            payload: Bytes::from_static(b"\x01\x02"),
        };
        assert_eq!(roundtrip(f.clone()), f);
        assert_eq!(f.frame_type(), FrameType::Unknown(0xfb));
    }

    #[test]
    fn partial_input_returns_none() {
        let f = Frame::Ping {
            ack: false,
            payload: [0; 8],
        };
        let bytes = f.to_bytes();
        let dec = FrameDecoder::default();
        for cut in 0..bytes.len() {
            let mut buf = BytesMut::from(&bytes[..cut]);
            assert_eq!(dec.decode(&mut buf).unwrap(), None, "cut={cut}");
        }
    }

    #[test]
    fn two_frames_in_one_buffer() {
        let mut buf = BytesMut::new();
        Frame::Ping {
            ack: false,
            payload: [1; 8],
        }
        .encode(&mut buf);
        Frame::Ping {
            ack: true,
            payload: [2; 8],
        }
        .encode(&mut buf);
        let dec = FrameDecoder::default();
        let f1 = dec.decode(&mut buf).unwrap().unwrap();
        let f2 = dec.decode(&mut buf).unwrap().unwrap();
        assert!(matches!(f1, Frame::Ping { ack: false, .. }));
        assert!(matches!(f2, Frame::Ping { ack: true, .. }));
        assert_eq!(dec.decode(&mut buf).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = BytesMut::new();
        FrameHeader {
            length: 20_000,
            kind: 0,
            flags: 0,
            stream_id: StreamId(1),
        }
        .encode(&mut buf);
        let dec = FrameDecoder::default();
        assert!(matches!(
            dec.decode(&mut buf),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn bad_lengths_rejected() {
        let dec = FrameDecoder::default();
        // PING with 7-byte payload
        let mut buf = BytesMut::new();
        FrameHeader {
            length: 7,
            kind: 0x06,
            flags: 0,
            stream_id: StreamId(0),
        }
        .encode(&mut buf);
        buf.extend_from_slice(&[0; 7]);
        assert!(matches!(
            dec.decode(&mut buf),
            Err(FrameError::BadLength { kind: "PING", .. })
        ));
        // SETTINGS with length 5
        let mut buf = BytesMut::new();
        FrameHeader {
            length: 5,
            kind: 0x04,
            flags: 0,
            stream_id: StreamId(0),
        }
        .encode(&mut buf);
        buf.extend_from_slice(&[0; 5]);
        assert!(matches!(
            dec.decode(&mut buf),
            Err(FrameError::BadLength {
                kind: "SETTINGS",
                ..
            })
        ));
    }

    #[test]
    fn data_on_stream_zero_rejected() {
        let dec = FrameDecoder::default();
        let mut buf = BytesMut::new();
        FrameHeader {
            length: 1,
            kind: 0x00,
            flags: 0,
            stream_id: StreamId(0),
        }
        .encode(&mut buf);
        buf.put_u8(0xaa);
        assert!(matches!(
            dec.decode(&mut buf),
            Err(FrameError::BadStreamId { kind: "DATA", .. })
        ));
    }

    #[test]
    fn origin_on_nonzero_stream_rejected() {
        let dec = FrameDecoder::default();
        let mut buf = BytesMut::new();
        FrameHeader {
            length: 0,
            kind: 0x0c,
            flags: 0,
            stream_id: StreamId(3),
        }
        .encode(&mut buf);
        assert!(matches!(
            dec.decode(&mut buf),
            Err(FrameError::BadStreamId { kind: "ORIGIN", .. })
        ));
    }

    #[test]
    fn origin_truncated_entry_rejected() {
        let dec = FrameDecoder::default();
        let mut buf = BytesMut::new();
        // Entry claims 10 bytes but only 3 are present.
        FrameHeader {
            length: 5,
            kind: 0x0c,
            flags: 0,
            stream_id: StreamId(0),
        }
        .encode(&mut buf);
        buf.put_u16(10);
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            dec.decode(&mut buf),
            Err(FrameError::BadLength { kind: "ORIGIN", .. })
        ));
    }

    #[test]
    fn padded_data_stripped() {
        // Hand-build a padded DATA frame: padlen=3, body "hi", 3 pad octets.
        let mut buf = BytesMut::new();
        FrameHeader {
            length: 6,
            kind: 0x00,
            flags: FLAG_PADDED | FLAG_END_STREAM,
            stream_id: StreamId(1),
        }
        .encode(&mut buf);
        buf.put_u8(3);
        buf.extend_from_slice(b"hi");
        buf.extend_from_slice(&[0; 3]);
        let dec = FrameDecoder::default();
        let f = dec.decode(&mut buf).unwrap().unwrap();
        assert_eq!(
            f,
            Frame::Data {
                stream: StreamId(1),
                data: Bytes::from_static(b"hi"),
                end_stream: true
            }
        );
    }

    #[test]
    fn pad_exceeding_payload_rejected() {
        let mut buf = BytesMut::new();
        FrameHeader {
            length: 2,
            kind: 0x00,
            flags: FLAG_PADDED,
            stream_id: StreamId(1),
        }
        .encode(&mut buf);
        buf.put_u8(200); // pad length 200 > remaining 1
        buf.put_u8(0);
        let dec = FrameDecoder::default();
        assert_eq!(dec.decode(&mut buf), Err(FrameError::BadPadding));
    }

    #[test]
    fn reserved_stream_bit_masked() {
        let h = FrameHeader::parse(&[0, 0, 0, 0x06, 0, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(h.stream_id, StreamId(0x7fff_ffff));
    }

    #[test]
    fn frame_type_codes() {
        assert_eq!(FrameType::Origin.to_u8(), 0x0c);
        assert_eq!(FrameType::AltSvc.to_u8(), 0x0a);
        assert_eq!(FrameType::from_u8(0x0b), FrameType::Unknown(0x0b));
        for v in 0..=0x0c_u8 {
            if v == 0x0b {
                continue;
            }
            assert_eq!(FrameType::from_u8(v).to_u8(), v);
        }
    }
}
