//! Top-k counters for the paper's breakdown tables.

use origin_netsim::hash::FxHashMap;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hash::Hash;

/// One row of a top-k breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct TopEntry<K> {
    /// The counted key (AS, hostname, issuer, content type, …).
    pub key: K,
    /// Number of observations.
    pub count: u64,
    /// Share of all observations, in percent.
    pub percent: f64,
}

/// Counts occurrences of keys and reports the most frequent ones with
/// their share of the total — the shape of Tables 2, 4, 5, 6, 7 and 9.
///
/// The counter map uses the deterministic Fx hasher, and no output
/// observes map iteration order (reads go through [`TopK::top`]'s
/// sorted selection or a full count-sort).
///
/// A probe costs a hash of the key, so the crawl's per-request tables
/// do not probe per request: `Characterization::add` tallies a page's
/// requests per AS, content type, protocol and hostname first and
/// calls [`TopK::add_n`] / [`TopK::add_ref_n`] once per distinct key of
/// the page; keys seen a few times per page (certificate issuers,
/// planned SAN additions) are counted one at a time.
#[derive(Debug, Clone)]
pub struct TopK<K: Eq + Hash> {
    counts: FxHashMap<K, u64>,
    total: u64,
}

impl<K: Eq + Hash + Clone + Ord> TopK<K> {
    /// New empty counter.
    pub fn new() -> Self {
        TopK {
            counts: FxHashMap::default(),
            total: 0,
        }
    }

    /// Count `n` observations of `key`.
    pub fn add_n(&mut self, key: K, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Count `n` observations of a borrowed key, owning it only when it
    /// is new: where a handful of keys repeat across hundreds of
    /// thousands of requests, a hit costs one hash probe and no heap
    /// traffic, and a `DnsName` key is cloned (a refcount bump) once.
    pub fn add_ref_n<Q>(&mut self, key: &Q, n: u64)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if n == 0 {
            return;
        }
        if let Some(c) = self.counts.get_mut(key) {
            *c += n;
        } else {
            self.counts.insert(key.to_owned(), n);
        }
        self.total += n;
    }

    /// Fold another counter into this one. Addition is commutative and
    /// associative, so any merge order yields the same counter — which
    /// is what keeps sharded crawls bit-identical to sequential ones.
    pub fn merge(&mut self, other: &TopK<K>) {
        for (key, &n) in &other.counts {
            self.add_n(key.clone(), n);
        }
    }

    /// Total observations across all keys.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count for one key.
    pub fn count(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// The `k` most frequent keys, descending by count (ties broken by
    /// ascending key for determinism), with percentages of the total.
    ///
    /// A bounded min-heap of `k` borrowed candidates does the
    /// selection — O(n log k) with only the `k` returned keys cloned,
    /// where the old implementation cloned-and-sorted every entry.
    pub fn top(&self, k: usize) -> Vec<TopEntry<K>> {
        // Ranks order by (count, key-descending), so the heap's
        // *minimum* is the entry top-k would drop first.
        struct Rank<'a, K: Ord>(u64, &'a K);
        impl<K: Ord> PartialEq for Rank<'_, K> {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl<K: Ord> Eq for Rank<'_, K> {}
        impl<K: Ord> PartialOrd for Rank<'_, K> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<K: Ord> Ord for Rank<'_, K> {
            fn cmp(&self, other: &Self) -> Ordering {
                self.0.cmp(&other.0).then_with(|| other.1.cmp(self.1))
            }
        }

        let k = k.min(self.counts.len());
        if k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<std::cmp::Reverse<Rank<'_, K>>> = BinaryHeap::with_capacity(k + 1);
        for (key, &count) in &self.counts {
            let rank = Rank(count, key);
            if heap.len() < k {
                heap.push(std::cmp::Reverse(rank));
            } else if rank > heap.peek().expect("heap holds k entries").0 {
                heap.pop();
                heap.push(std::cmp::Reverse(rank));
            }
        }
        // Ascending `Reverse<Rank>` is descending rank: best first.
        heap.into_sorted_vec()
            .into_iter()
            .map(|std::cmp::Reverse(Rank(count, key))| TopEntry {
                key: key.clone(),
                count,
                percent: if self.total == 0 {
                    0.0
                } else {
                    count as f64 / self.total as f64 * 100.0
                },
            })
            .collect()
    }

    /// Cumulative share (percent) held by the top `k` keys — e.g. the
    /// paper's "the top-10 ASes service more than 60% of requests".
    pub fn top_share(&self, k: usize) -> f64 {
        self.top(k).iter().map(|e| e.percent).sum()
    }

    /// The smallest number of keys whose cumulative share reaches
    /// `target_percent` — e.g. "it takes 51 ASes to service 80% of the
    /// requests". Returns `None` when the total share never reaches the
    /// target.
    pub fn keys_to_reach(&self, target_percent: f64) -> Option<usize> {
        // Only the multiset of counts matters here, so skip the key
        // clones entirely. The per-entry percents (and their float
        // accumulation order: count-descending) are exactly the ones
        // `top` would produce.
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let mut cum = 0.0;
        for (i, &count) in counts.iter().enumerate() {
            if self.total > 0 {
                cum += count as f64 / self.total as f64 * 100.0;
            }
            if cum >= target_percent {
                return Some(i + 1);
            }
        }
        None
    }
}

impl<K: Eq + Hash + Clone + Ord> Default for TopK<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One observation of each key.
    fn counted<K: Eq + Hash + Clone + Ord>(keys: impl IntoIterator<Item = K>) -> TopK<K> {
        let mut t = TopK::new();
        for k in keys {
            t.add_n(k, 1);
        }
        t
    }

    #[test]
    fn empty() {
        let t: TopK<&str> = TopK::new();
        assert_eq!(t.total(), 0);
        assert!(t.top(5).is_empty());
        assert_eq!(t.keys_to_reach(50.0), None);
    }

    #[test]
    fn counting_and_percent() {
        let t: TopK<&str> = counted(["a", "a", "a", "b"]);
        let top = t.top(2);
        assert_eq!(top[0].key, "a");
        assert_eq!(top[0].count, 3);
        assert_eq!(top[0].percent, 75.0);
        assert_eq!(top[1].key, "b");
        assert_eq!(top[1].percent, 25.0);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let t: TopK<&str> = counted(["b", "a"]);
        let top = t.top(2);
        assert_eq!(top[0].key, "a");
        assert_eq!(top[1].key, "b");
    }

    #[test]
    fn top_share_and_keys_to_reach() {
        let mut t: TopK<u32> = TopK::new();
        t.add_n(1, 50);
        t.add_n(2, 30);
        t.add_n(3, 20);
        assert_eq!(t.top_share(1), 50.0);
        assert_eq!(t.top_share(2), 80.0);
        assert_eq!(t.keys_to_reach(80.0), Some(2));
        assert_eq!(t.keys_to_reach(81.0), Some(3));
        assert_eq!(t.keys_to_reach(100.0), Some(3));
        assert_eq!(t.keys_to_reach(101.0), None);
    }

    #[test]
    fn top_truncates() {
        let t: TopK<u32> = counted(0..10);
        assert_eq!(t.top(3).len(), 3);
        assert_eq!(t.distinct(), 10);
    }

    #[test]
    fn merge_identity_and_associativity() {
        let a: TopK<&str> = counted(["a", "a", "b"]);
        let b: TopK<&str> = counted(["b", "c"]);
        let c: TopK<&str> = counted(["c", "c", "d"]);
        // empty ⊕ x == x and x ⊕ empty == x.
        let mut left = TopK::new();
        left.merge(&a);
        assert_eq!(left.top(10), a.top(10));
        let mut right = a.clone();
        right.merge(&TopK::new());
        assert_eq!(right.top(10), a.top(10));
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c.top(10), a_bc.top(10));
        assert_eq!(ab_c.total(), 8);
    }

    #[test]
    fn add_str_matches_owned_add_n() {
        let mut borrowed: TopK<String> = TopK::new();
        let mut owned: TopK<String> = TopK::new();
        for key in ["cdn.example.com", "a.test", "cdn.example.com"] {
            borrowed.add_ref_n(key, 1);
            owned.add_n(key.to_string(), 1);
        }
        assert_eq!(borrowed.top(10), owned.top(10));
        assert_eq!(borrowed.total(), 3);
        assert_eq!(borrowed.count(&"cdn.example.com".to_string()), 2);
        borrowed.add_ref_n("a.test", 4);
        borrowed.add_ref_n("never.test", 0);
        owned.add_n("a.test".to_string(), 4);
        assert_eq!(borrowed.top(10), owned.top(10));
        assert_eq!((borrowed.total(), borrowed.distinct()), (7, 2));
    }

    #[test]
    fn add_n_zero_is_noop() {
        let mut t: TopK<&str> = TopK::new();
        t.add_n("x", 0);
        assert_eq!(t.total(), 0);
        assert_eq!(t.distinct(), 0);
    }
}
