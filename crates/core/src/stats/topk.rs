//! Top-k counters for the paper's breakdown tables.

use origin_netsim::hash::FxHashMap;
use std::borrow::Borrow;
use std::cmp::Reverse;
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
///
/// A *final* key gets no more observations once added (a site's own
/// hostname): it counts in the total and [`TopK::distinct`], but only
/// the best [`FINAL_KEPT`] are held, so `top(k ≤ FINAL_KEPT)` is exact.
#[derive(Debug, Clone)]
pub struct TopK<K: Eq + Hash> {
    counts: FxHashMap<K, u64>,
    total: u64,
    /// The best [`FINAL_KEPT`] final keys, best first.
    finals: Vec<(K, u64)>,
    /// Final keys counted, held or dropped.
    final_distinct: usize,
    /// The highest count of a dropped final key; 0 while none was.
    dropped: u64,
    /// Fingerprints of every final key counted, to catch a repeat.
    #[cfg(debug_assertions)]
    final_seen: origin_netsim::hash::FxHashSet<u64>,
}

/// Final keys a [`TopK`] holds.
pub const FINAL_KEPT: usize = 64;

impl<K: Eq + Hash + Clone + Ord> TopK<K> {
    /// New empty counter.
    pub fn new() -> Self {
        TopK {
            counts: FxHashMap::default(),
            total: 0,
            finals: Vec::new(),
            final_distinct: 0,
            dropped: 0,
            #[cfg(debug_assertions)]
            final_seen: Default::default(),
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

    /// Count `n` observations of a final key: one no later `add` or
    /// `merge` names again (debug builds assert it).
    pub fn add_final_ref_n<Q>(&mut self, key: &Q, n: u64)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if n == 0 {
            return;
        }
        #[cfg(debug_assertions)]
        {
            // SipHash: Fx collides on names a few digits apart.
            use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
            let print = BuildHasherDefault::<DefaultHasher>::default().hash_one(key);
            let fresh = !self.counts.contains_key(key) && self.final_seen.insert(print);
            assert!(fresh, "a final key was added twice");
        }
        self.total += n;
        self.final_distinct += 1;
        self.keep_final(key.to_owned(), n);
    }

    /// Hold a final key among the best [`FINAL_KEPT`] (count
    /// descending, then key ascending), dropping the worst.
    fn keep_final(&mut self, key: K, n: u64) {
        let finals = &mut self.finals;
        let at = finals.partition_point(|(k, c)| (Reverse(*c), k) < (Reverse(n), &key));
        finals.insert(at, (key, n));
        if finals.len() > FINAL_KEPT {
            let (_, worst) = finals.pop().expect("a key past FINAL_KEPT");
            self.dropped = self.dropped.max(worst);
        }
    }

    /// Fold another counter into this one. Addition is commutative and
    /// associative, and so is keeping the best final keys: any merge
    /// order yields the same counter, so shards merge bit-identically.
    pub fn merge(&mut self, other: &TopK<K>) {
        for (key, &n) in &other.counts {
            *self.counts.entry(key.clone()).or_insert(0) += n;
        }
        #[cfg(debug_assertions)]
        for f in &other.final_seen {
            assert!(self.final_seen.insert(*f), "a final key was added twice");
        }
        for (key, n) in &other.finals {
            self.keep_final(key.clone(), *n);
        }
        self.total += other.total;
        self.final_distinct += other.final_distinct;
        self.dropped = self.dropped.max(other.dropped);
    }

    /// Total observations across all keys.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len() + self.final_distinct
    }

    /// Count for one key. Panics on a key not held once a final key
    /// was dropped: it may have been that key.
    pub fn count(&self, key: &K) -> u64 {
        let held = self.finals.iter().find(|(k, _)| k == key).map(|(_, n)| n);
        let n = self.counts.get(key).or(held).copied();
        assert!(n.is_some() || self.dropped == 0, "a dropped final key");
        n.unwrap_or(0)
    }

    /// The `k` most frequent keys, descending by count (ties broken by
    /// ascending key for determinism), with percentages of the total.
    ///
    /// A bounded min-heap of `k` borrowed candidates does the
    /// selection — O(n log k) with only the `k` returned keys cloned,
    /// where the old implementation cloned-and-sorted every entry.
    /// Panics for `k` above [`FINAL_KEPT`] once a final key was dropped.
    pub fn top(&self, k: usize) -> Vec<TopEntry<K>> {
        assert!(k <= FINAL_KEPT || self.dropped == 0, "a dropped final key");
        // A rank is (count, key descending), so the min-heap's top is
        // the entry top-k would drop first.
        let mut heap = BinaryHeap::with_capacity(k.min(self.counts.len() + self.finals.len()) + 1);
        let finals = self.finals.iter().map(|(key, count)| (key, count));
        for (key, &count) in self.counts.iter().chain(finals) {
            heap.push(Reverse((count, Reverse(key))));
            if heap.len() > k {
                heap.pop();
            }
        }
        // Ascending `Reverse<rank>` is descending rank: best first.
        heap.into_sorted_vec()
            .into_iter()
            .map(|Reverse((count, Reverse(key)))| TopEntry {
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
    /// target. Panics where the answer needs a dropped final key.
    pub fn keys_to_reach(&self, target_percent: f64) -> Option<usize> {
        // Only the multiset of counts matters here, so skip the key
        // clones entirely. The per-entry percents (and their float
        // accumulation order: count-descending) are exactly the ones
        // `top` would produce.
        let finals = self.finals.iter().map(|(_, n)| n);
        let mut counts: Vec<u64> = self.counts.values().chain(finals).copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let mut cum = 0.0;
        for (i, &count) in counts.iter().enumerate() {
            assert!(count >= self.dropped, "a dropped final key");
            if self.total > 0 {
                cum += count as f64 / self.total as f64 * 100.0;
            }
            if cum >= target_percent {
                return Some(i + 1);
            }
        }
        assert!(self.dropped == 0, "a dropped final key");
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

    /// Random mixes of shared and final keys, counted in random chunks
    /// merged in random order, answer what one all-map counter of the
    /// same observations answers: `top(k ≤ FINAL_KEPT)`, `total`,
    /// `distinct`, percents, and `count` / `keys_to_reach` wherever
    /// no dropped final key is needed.
    #[test]
    fn final_keys_match_an_all_map_oracle() {
        let mut rng = origin_netsim::SimRng::seed_from_u64(0x70b);
        for trial in 0..300 {
            // Shared keys 0..20 observed many times; final keys from
            // 1,000 up, once each, with small counts so ranks tie.
            let mut obs: Vec<(u32, u64, bool)> = Vec::new();
            for _ in 0..rng.index(120) {
                obs.push((rng.index(20) as u32, rng.range_u64(1, 40), false));
            }
            for key in 1_000..1_000 + rng.index(200) as u32 {
                obs.push((key, rng.range_u64(1, 12), true));
            }
            rng.shuffle(&mut obs);
            let mut oracle = TopK::new();
            let mut chunks: Vec<TopK<u32>> = (0..1 + rng.index(8)).map(|_| TopK::new()).collect();
            for &(key, n, last) in &obs {
                oracle.add_n(key, n);
                let chunk = rng.index(chunks.len());
                if last {
                    chunks[chunk].add_final_ref_n(&key, n);
                } else {
                    chunks[chunk].add_n(key, n);
                }
            }
            while chunks.len() > 1 {
                let from = chunks.swap_remove(rng.index(chunks.len()));
                let into = rng.index(chunks.len());
                chunks[into].merge(&from);
            }
            let t = &chunks[0];
            assert_eq!(
                (t.total(), t.distinct()),
                (oracle.total(), oracle.distinct())
            );
            for k in [0, 1, 5, 10, 25, FINAL_KEPT] {
                assert_eq!(t.top(k), oracle.top(k), "trial {trial}, top({k})");
            }
            let shared = (0..20).filter(|k| oracle.count(k) > 0);
            for key in shared.chain(t.finals.iter().map(|(k, _)| *k)) {
                assert_eq!(t.count(&key), oracle.count(&key), "trial {trial}");
            }
            if t.dropped == 0 {
                for target in [10.0, 50.0, 80.0, 100.0] {
                    assert_eq!(t.keys_to_reach(target), oracle.keys_to_reach(target));
                }
            }
        }
    }

    /// One more final key than are held, all counted once: the last
    /// (by key) is dropped.
    fn one_final_dropped() -> TopK<u32> {
        let mut t = TopK::new();
        for key in 0..=FINAL_KEPT as u32 {
            t.add_final_ref_n(&key, 1);
        }
        assert_eq!(
            (t.distinct(), t.top(FINAL_KEPT).len()),
            (FINAL_KEPT + 1, FINAL_KEPT)
        );
        assert_eq!(t.count(&3), 1);
        t
    }

    #[test]
    #[should_panic(expected = "dropped final key")]
    fn top_past_the_held_finals_panics_after_a_drop() {
        one_final_dropped().top(FINAL_KEPT + 1);
    }

    #[test]
    #[should_panic(expected = "dropped final key")]
    fn count_of_a_dropped_final_key_panics() {
        one_final_dropped().count(&(FINAL_KEPT as u32));
    }

    #[test]
    #[should_panic(expected = "dropped final key")]
    fn keys_to_reach_past_the_held_finals_panics() {
        one_final_dropped().keys_to_reach(100.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "added twice")]
    fn a_repeated_final_key_panics() {
        let mut t: TopK<String> = TopK::new();
        t.add_final_ref_n("own.site.test", 1);
        t.add_final_ref_n("own.site.test", 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "added twice")]
    fn a_final_key_repeated_across_a_merge_panics() {
        let mut a: TopK<u32> = TopK::new();
        let mut b: TopK<u32> = TopK::new();
        for key in 0..=FINAL_KEPT as u32 {
            a.add_final_ref_n(&key, 2);
        }
        // Dropped from `a`'s held list, but still counted there.
        b.add_final_ref_n(&(FINAL_KEPT as u32), 1);
        a.merge(&b);
    }

    #[test]
    fn add_n_zero_is_noop() {
        let mut t: TopK<&str> = TopK::new();
        t.add_n("x", 0);
        assert_eq!(t.total(), 0);
        assert_eq!(t.distinct(), 0);
    }
}
