//! Cross-visit session connection pool with lifetime management.
//!
//! The browser's per-visit `ConnectionPool` answers the paper's
//! coalescing question *within* one page load and is discarded at the
//! end of the visit. The serving engine (DESIGN.md §20) needs the
//! orthogonal long-lived layer: a per-user pool that keeps connections
//! warm *across* visits, times out idle ones, and evicts under
//! per-edge caps and a global memory budget. That churn — not the
//! single page load — is where keep-alive handshake savings accrue
//! (Sy et al., PAPERS.md).
//!
//! The pool is deliberately a flat `Vec` with linear scans: budgets
//! are browser-realistic (tens of connections), so O(budget) scans
//! beat any index structure at this size and keep the hot path
//! allocation-free after warm-up.

use origin_netsim::{SimDuration, SimTime};

/// One warm connection in a session's pool.
#[derive(Debug, Clone, Copy)]
struct SessionConn {
    /// Coalescing key: everything this connection can serve shares it.
    key: u32,
    /// Edge (or self-hosted origin) terminating the connection; the
    /// unit of the per-edge cap.
    edge: u32,
    last_used: SimTime,
    /// Insertion sequence, the deterministic LRU tie-break when two
    /// connections share `last_used`.
    seq: u64,
}

/// Connection-churn counters, drained into metrics by the caller.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolChurn {
    /// Connections opened (pool misses).
    pub opened: u64,
    /// Pool hits: a warm connection served the key.
    pub reused: u64,
    /// Connections reaped by the idle timeout.
    pub idle_closed: u64,
    /// Evictions forced by the global budget.
    pub lru_evicted: u64,
    /// Evictions forced by a per-edge cap.
    pub edge_evicted: u64,
}

impl PoolChurn {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &PoolChurn) {
        self.opened += other.opened;
        self.reused += other.reused;
        self.idle_closed += other.idle_closed;
        self.lru_evicted += other.lru_evicted;
        self.edge_evicted += other.edge_evicted;
    }
}

/// A session-lifetime connection pool: keyed by coalescing key,
/// capped per edge and globally, reaped by idle timeout.
#[derive(Debug, Default)]
pub struct SessionPool {
    conns: Vec<SessionConn>,
    next_seq: u64,
}

impl SessionPool {
    /// An empty pool.
    pub fn new() -> Self {
        SessionPool::default()
    }

    /// Warm connections currently pooled.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Clear for reuse by the next session without releasing the
    /// backing allocation (slab recycling).
    pub fn reset(&mut self) {
        self.conns.clear();
        self.next_seq = 0;
    }

    /// Reap connections idle since before `now − timeout`.
    pub fn sweep_idle(&mut self, now: SimTime, timeout: SimDuration, churn: &mut PoolChurn) {
        let cutoff = now.since(SimTime::ZERO).saturating_sub(timeout);
        let before = self.conns.len();
        self.conns
            .retain(|c| c.last_used.since(SimTime::ZERO) >= cutoff);
        churn.idle_closed += (before - self.conns.len()) as u64;
    }

    /// Acquire a connection for `key` terminated at `edge`, opening
    /// one if no warm match exists. Returns `true` on reuse (no
    /// handshake) and `false` on a fresh open.
    ///
    /// On open, the pool first enforces `edge_cap` (max warm
    /// connections to one edge) and then `budget` (global cap, the
    /// memory bound), evicting the least-recently-used victim in each
    /// case. A `budget` of 0 disables pooling entirely: every acquire
    /// opens and nothing is retained.
    pub fn acquire(
        &mut self,
        key: u32,
        edge: u32,
        now: SimTime,
        edge_cap: usize,
        budget: usize,
        churn: &mut PoolChurn,
    ) -> bool {
        // One pass finds the key and counts the edge's connections.
        let mut at_edge = 0;
        for c in &mut self.conns {
            if c.key == key {
                c.last_used = now;
                churn.reused += 1;
                return true;
            }
            at_edge += usize::from(c.edge == edge);
        }
        churn.opened += 1;
        if budget == 0 {
            return false;
        }
        if at_edge >= edge_cap {
            self.evict_lru(Some(edge));
            churn.edge_evicted += 1;
        }
        if self.conns.len() >= budget {
            self.evict_lru(None);
            churn.lru_evicted += 1;
        }
        self.conns.push(SessionConn {
            key,
            edge,
            last_used: now,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        false
    }

    /// Remove the LRU connection, optionally restricted to one edge.
    /// LRU order is `(last_used, seq)` — fully deterministic.
    fn evict_lru(&mut self, edge: Option<u32>) {
        let victim = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, c)| edge.is_none_or(|e| c.edge == e))
            .min_by_key(|(_, c)| (c.last_used, c.seq))
            .map(|(i, _)| i);
        if let Some(i) = victim {
            self.conns.swap_remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn reuse_hits_same_key() {
        let mut p = SessionPool::new();
        let mut ch = PoolChurn::default();
        assert!(!p.acquire(7, 1, t(0), 6, 32, &mut ch));
        assert!(p.acquire(7, 1, t(1), 6, 32, &mut ch));
        assert!(!p.acquire(8, 1, t(1), 6, 32, &mut ch));
        assert_eq!((ch.opened, ch.reused), (2, 1));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn idle_sweep_reaps_stale_connections() {
        let mut p = SessionPool::new();
        let mut ch = PoolChurn::default();
        p.acquire(1, 0, t(0), 6, 32, &mut ch);
        p.acquire(2, 0, t(50), 6, 32, &mut ch);
        p.sweep_idle(t(100), SimDuration::from_secs(60), &mut ch);
        assert_eq!(p.len(), 1, "only the fresh connection survives");
        assert_eq!(ch.idle_closed, 1);
        // The survivor is key 2: it still hits.
        assert!(p.acquire(2, 0, t(100), 6, 32, &mut ch));
        assert!(!p.acquire(1, 0, t(100), 6, 32, &mut ch));
    }

    #[test]
    fn per_edge_cap_evicts_lru_of_that_edge() {
        let mut p = SessionPool::new();
        let mut ch = PoolChurn::default();
        for k in 0..3 {
            p.acquire(k, 5, t(k as u64), 3, 32, &mut ch);
        }
        p.acquire(99, 6, t(10), 3, 32, &mut ch); // other edge, untouched
        p.acquire(3, 5, t(11), 3, 32, &mut ch); // breaches edge 5's cap
        assert_eq!(ch.edge_evicted, 1);
        assert_eq!(p.len(), 4);
        // Key 0 (edge 5's LRU) was the victim; key 99 on edge 6 survives.
        assert!(!p.acquire(0, 5, t(12), 3, 32, &mut ch));
        // That re-open breached the cap again, evicting edge 5's LRU.
        assert_eq!(ch.edge_evicted, 2);
        assert!(p.acquire(99, 6, t(12), 3, 32, &mut ch));
    }

    #[test]
    fn budget_evicts_globally_lru() {
        let mut p = SessionPool::new();
        let mut ch = PoolChurn::default();
        for k in 0..4 {
            p.acquire(k, k, t(k as u64), 6, 4, &mut ch);
        }
        p.acquire(10, 10, t(10), 6, 4, &mut ch);
        assert_eq!(ch.lru_evicted, 1);
        assert_eq!(p.len(), 4, "never exceeds budget");
        assert!(
            !p.acquire(0, 0, t(11), 6, 4, &mut ch),
            "LRU key 0 was evicted"
        );
    }

    #[test]
    fn zero_budget_disables_pooling() {
        let mut p = SessionPool::new();
        let mut ch = PoolChurn::default();
        assert!(!p.acquire(1, 0, t(0), 6, 0, &mut ch));
        assert!(!p.acquire(1, 0, t(1), 6, 0, &mut ch));
        assert_eq!(p.len(), 0);
        assert_eq!((ch.opened, ch.reused, ch.lru_evicted), (2, 0, 0));
    }

    #[test]
    fn lru_tie_breaks_by_insertion_seq() {
        let mut p = SessionPool::new();
        let mut ch = PoolChurn::default();
        // Two connections with identical last_used: the earlier
        // insertion must be the deterministic victim.
        p.acquire(1, 0, t(5), 6, 2, &mut ch);
        p.acquire(2, 0, t(5), 6, 2, &mut ch);
        p.acquire(3, 0, t(6), 6, 2, &mut ch);
        assert!(!p.acquire(1, 0, t(7), 6, 2, &mut ch), "key 1 evicted first");
    }

    #[test]
    fn reset_recycles_allocation() {
        let mut p = SessionPool::new();
        let mut ch = PoolChurn::default();
        for k in 0..8 {
            p.acquire(k, 0, t(0), 8, 32, &mut ch);
        }
        let cap = p.conns.capacity();
        p.reset();
        assert!(p.is_empty());
        assert_eq!(p.conns.capacity(), cap, "reset must not free the slab");
    }

    #[test]
    fn churn_merge_is_additive() {
        let mut a = PoolChurn {
            opened: 1,
            reused: 2,
            idle_closed: 3,
            lru_evicted: 4,
            edge_evicted: 5,
        };
        let b = PoolChurn {
            opened: 10,
            reused: 20,
            idle_closed: 30,
            lru_evicted: 40,
            edge_evicted: 50,
        };
        a.merge(&b);
        assert_eq!(
            (
                a.opened,
                a.reused,
                a.idle_closed,
                a.lru_evicted,
                a.edge_evicted
            ),
            (11, 22, 33, 44, 55)
        );
    }
}
