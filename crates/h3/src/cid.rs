//! Connection-ID issuance and retirement (RFC 9000 §5.1).
//!
//! A QUIC endpoint identifies a connection by connection IDs rather
//! than its 4-tuple, issuing them with monotonically increasing
//! sequence numbers (`NEW_CONNECTION_ID`) and retiring old ones
//! (`RETIRE_CONNECTION_ID`). The registry models the client's view of
//! the IDs its peer issued: how many may be active at once is bounded
//! by the advertised `active_connection_id_limit`, and a retired
//! sequence number can never come back.

/// Default `active_connection_id_limit` (RFC 9000 requires ≥ 2;
/// deployed stacks commonly advertise a handful).
pub const DEFAULT_ACTIVE_CID_LIMIT: usize = 4;

/// Errors surfaced by the registry — protocol violations that a real
/// peer would answer with `PROTOCOL_VIOLATION`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CidError {
    /// Issuing another ID would exceed `active_connection_id_limit`.
    LimitExceeded,
    /// The sequence number is not an active connection ID.
    UnknownSequence(u64),
}

impl std::fmt::Display for CidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CidError::LimitExceeded => write!(f, "active_connection_id_limit exceeded"),
            CidError::UnknownSequence(seq) => write!(f, "unknown connection-ID sequence {seq}"),
        }
    }
}

/// The set of connection IDs issued on one connection.
#[derive(Debug, Clone)]
pub struct ConnectionIdRegistry {
    /// Active sequence numbers, ascending (issuance order).
    active: Vec<u64>,
    /// Next sequence number to mint.
    next_seq: u64,
    limit: usize,
    issued: u64,
    retired: u64,
}

impl ConnectionIdRegistry {
    /// Registry with `limit` as the `active_connection_id_limit`. The
    /// handshake's initial connection ID (sequence 0) is issued
    /// immediately — a connection always has one.
    pub fn new(limit: usize) -> Self {
        let mut r = ConnectionIdRegistry {
            active: Vec::with_capacity(limit.max(1)),
            next_seq: 0,
            limit: limit.max(1),
            issued: 0,
            retired: 0,
        };
        r.reset();
        r
    }

    /// Back to [`ConnectionIdRegistry::new`] with the same limit,
    /// keeping the allocation: a recycled connection's fresh start.
    pub fn reset(&mut self) {
        self.active.clear();
        self.next_seq = 0;
        self.issued = 0;
        self.retired = 0;
        self.issue().expect("limit >= 1 admits the initial CID");
    }

    /// Issue the next connection ID; returns its sequence number.
    pub fn issue(&mut self) -> Result<u64, CidError> {
        if self.active.len() >= self.limit {
            return Err(CidError::LimitExceeded);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.issued += 1;
        self.active.push(seq);
        Ok(seq)
    }

    /// Retire an active connection ID by sequence number.
    pub fn retire(&mut self, seq: u64) -> Result<(), CidError> {
        match self.active.iter().position(|&s| s == seq) {
            Some(pos) => {
                self.active.remove(pos);
                self.retired += 1;
                Ok(())
            }
            None => Err(CidError::UnknownSequence(seq)),
        }
    }

    /// Retire the oldest active ID and issue a fresh one — the
    /// migration-style rotation the loader performs periodically.
    /// Returns `(retired_seq, new_seq)`.
    pub fn rotate(&mut self) -> Result<(u64, u64), CidError> {
        let oldest = *self
            .active
            .first()
            .expect("a connection always holds an active CID");
        // Issue first when below the limit (never leaves the
        // connection without an active ID); at the limit, retire
        // first to free the slot.
        if self.active.len() < self.limit {
            let fresh = self.issue()?;
            self.retire(oldest)?;
            Ok((oldest, fresh))
        } else {
            self.retire(oldest)?;
            let fresh = self.issue()?;
            Ok((oldest, fresh))
        }
    }

    /// Sequence numbers currently active, in issuance order.
    pub fn active(&self) -> &[u64] {
        &self.active
    }

    /// Total IDs issued over the connection's lifetime.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total IDs retired over the connection's lifetime.
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

impl Default for ConnectionIdRegistry {
    fn default() -> Self {
        Self::new(DEFAULT_ACTIVE_CID_LIMIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_preserves_one_active_id_invariant() {
        let mut r = ConnectionIdRegistry::new(2);
        assert_eq!(r.active(), &[0]);
        let (old, new) = r.rotate().unwrap();
        assert_eq!((old, new), (0, 1));
        assert_eq!(r.active(), &[1]);
        assert!(!r.active().is_empty());
    }
}
