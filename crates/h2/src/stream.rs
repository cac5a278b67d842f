//! Stream identifiers and the RFC 7540 §5.1 stream state machine.

use std::fmt;

/// A 31-bit stream identifier. Stream 0 is the connection itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

impl StreamId {
    /// Stream 0: connection-scoped frames.
    pub const CONNECTION: StreamId = StreamId(0);

    /// True for stream 0.
    pub fn is_connection(self) -> bool {
        self.0 == 0
    }

    /// The next stream id initiated by the same peer.
    pub fn next(self) -> StreamId {
        StreamId(self.0 + 2)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// RFC 7540 §5.1 stream states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamState {
    /// Not yet used.
    Idle,
    /// Promised via PUSH_PROMISE, reserved by the local endpoint.
    ReservedLocal,
    /// Promised via PUSH_PROMISE, reserved by the remote endpoint.
    ReservedRemote,
    /// Both sides may send.
    Open,
    /// We sent END_STREAM; peer may still send.
    HalfClosedLocal,
    /// Peer sent END_STREAM; we may still send.
    HalfClosedRemote,
    /// Fully closed.
    Closed,
}

impl StreamState {
    /// Can the local endpoint still send DATA/HEADERS on this stream?
    pub fn can_send(self) -> bool {
        matches!(self, StreamState::Open | StreamState::HalfClosedRemote)
    }

    /// Can the remote endpoint still send on this stream?
    pub fn can_recv(self) -> bool {
        matches!(self, StreamState::Open | StreamState::HalfClosedLocal)
    }

    /// Transition when the local endpoint sends HEADERS
    /// (`end_stream` = END_STREAM flag).
    pub fn on_send_headers(self, end_stream: bool) -> StreamState {
        match (self, end_stream) {
            (StreamState::Idle, false) => StreamState::Open,
            (StreamState::Idle, true) => StreamState::HalfClosedLocal,
            (StreamState::ReservedLocal, false) => StreamState::HalfClosedRemote,
            (StreamState::ReservedLocal, true) => StreamState::Closed,
            (StreamState::Open, true) => StreamState::HalfClosedLocal,
            (StreamState::HalfClosedRemote, true) => StreamState::Closed,
            (s, _) => s,
        }
    }

    /// Transition when HEADERS is received.
    pub fn on_recv_headers(self, end_stream: bool) -> StreamState {
        match (self, end_stream) {
            (StreamState::Idle, false) => StreamState::Open,
            (StreamState::Idle, true) => StreamState::HalfClosedRemote,
            (StreamState::ReservedRemote, false) => StreamState::HalfClosedLocal,
            (StreamState::ReservedRemote, true) => StreamState::Closed,
            (StreamState::Open, true) => StreamState::HalfClosedRemote,
            (StreamState::HalfClosedLocal, true) => StreamState::Closed,
            (s, _) => s,
        }
    }

    /// Transition when the local endpoint sends DATA with END_STREAM.
    pub fn on_send_end_stream(self) -> StreamState {
        match self {
            StreamState::Open => StreamState::HalfClosedLocal,
            StreamState::HalfClosedRemote => StreamState::Closed,
            s => s,
        }
    }

    /// Transition when DATA with END_STREAM is received.
    pub fn on_recv_end_stream(self) -> StreamState {
        match self {
            StreamState::Open => StreamState::HalfClosedRemote,
            StreamState::HalfClosedLocal => StreamState::Closed,
            s => s,
        }
    }

    /// Transition on RST_STREAM (sent or received): immediate close.
    pub fn on_reset(self) -> StreamState {
        StreamState::Closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_stream_and_next_id() {
        assert!(StreamId::CONNECTION.is_connection());
        assert_eq!(StreamId(1).next(), StreamId(3));
    }

    #[test]
    fn request_response_lifecycle() {
        // Client sends a GET (END_STREAM on HEADERS), server responds.
        let mut client = StreamState::Idle;
        client = client.on_send_headers(true);
        assert_eq!(client, StreamState::HalfClosedLocal);
        assert!(!client.can_send());
        assert!(client.can_recv());
        // Response headers arrive…
        client = client.on_recv_headers(false);
        assert_eq!(client, StreamState::HalfClosedLocal);
        // …then final DATA.
        client = client.on_recv_end_stream();
        assert_eq!(client, StreamState::Closed);
    }

    #[test]
    fn server_view_of_request() {
        let mut server = StreamState::Idle;
        server = server.on_recv_headers(true);
        assert_eq!(server, StreamState::HalfClosedRemote);
        assert!(server.can_send());
        server = server.on_send_headers(false);
        assert_eq!(server, StreamState::HalfClosedRemote);
        server = server.on_send_end_stream();
        assert_eq!(server, StreamState::Closed);
    }

    #[test]
    fn post_with_body_lifecycle() {
        let mut s = StreamState::Idle;
        s = s.on_send_headers(false);
        assert_eq!(s, StreamState::Open);
        assert!(s.can_send() && s.can_recv());
        s = s.on_send_end_stream();
        assert_eq!(s, StreamState::HalfClosedLocal);
    }

    #[test]
    fn push_promise_states() {
        // Local endpoint reserved a push stream, then sends headers.
        let s = StreamState::ReservedLocal.on_send_headers(false);
        assert_eq!(s, StreamState::HalfClosedRemote);
        let s = StreamState::ReservedRemote.on_recv_headers(true);
        assert_eq!(s, StreamState::Closed);
    }

    #[test]
    fn reset_closes_from_any_state() {
        for s in [
            StreamState::Idle,
            StreamState::Open,
            StreamState::HalfClosedLocal,
            StreamState::HalfClosedRemote,
            StreamState::ReservedLocal,
        ] {
            assert_eq!(s.on_reset(), StreamState::Closed);
        }
    }

    #[test]
    fn closed_is_terminal() {
        let c = StreamState::Closed;
        assert_eq!(c.on_send_headers(true), c);
        assert_eq!(c.on_recv_headers(false), c);
        assert_eq!(c.on_send_end_stream(), c);
        assert_eq!(c.on_recv_end_stream(), c);
        assert!(!c.can_send());
        assert!(!c.can_recv());
    }
}
