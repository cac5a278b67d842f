//! The workspace's hashes, each written once.
//!
//! - [`fnv1a`] / [`fnv1a64`]: 64-bit FNV-1a, the stable,
//!   platform-independent string hash of the visit path (per-authority
//!   421 skew, per-host link class, close-delimited response selection),
//!   of the trace sampler and of the golden digests, and the key of the
//!   HPACK/QPACK field-table index.
//! - [`splitmix64`] / [`splitmix64_finalize`]: the stateless integer
//!   hash that seeds [`SimRng`](crate::SimRng) and derives per-session
//!   seeds, per-edge rollout scores and per-host object sizes.
//! - [`FxHasher`] with the [`FxHashMap`] / [`FxHashSet`] aliases: the
//!   deterministic multiply-xor hasher of Firefox and rustc, a drop-in
//!   `BuildHasher` for the hot maps. SipHash's DoS resistance buys
//!   nothing against a simulator's own synthetic hostnames, and the
//!   keyed state breaks nothing here because no hot map's iteration
//!   order is ever observed.
//!
//! Fx stays for `DnsName` maps though names a few digits apart collide
//! in all 64 bits (`static.site-000881.com` / `…000031.com`): 20,000
//! ranks' 45,466 root and shard names give 44,940 hashes in 9,974 home
//! buckets of 2^16 (uniform: ≈ 32,788). A splitmix64 `finish()` spread
//! them (32,649) but slowed generation and crawl in 6 of 6 interleaved
//! runs (rank-adjacent names stopped sharing buckets); no bijection
//! parts a full collision, and the key compare keeps answers exact.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FNV-1a 64-bit offset basis.
const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `state`, so several fields
/// hash as one stream without being concatenated.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state = (state ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    state
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a(BASIS, bytes)
}

/// One SplitMix64 step: advance `x` by the golden-ratio increment and
/// finalize.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    splitmix64_finalize(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// The SplitMix64 output finalizer alone, for callers that have
/// already spread their input (e.g. `seed ^ rank · golden`).
#[inline]
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a-seeded multiply-xor hasher (the rustc/Firefox "Fx" hash):
/// deterministic, unkeyed, and several times faster than SipHash on
/// the short keys (hostnames, ids, addresses) the hot maps use.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

/// 64-bit multiplier from the Fx hash (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Process 8 bytes at a time, then the tail — each step is
        // one xor + one rotate + one multiply.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let v = u64::from_le_bytes(c.try_into().expect("exact 8-byte chunk"));
            self.add(v);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut v = 0u64;
            for (i, &b) in rem.iter().enumerate() {
                v |= (b as u64) << (8 * i);
            }
            self.add(v);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the deterministic [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_continues_a_stream() {
        // The published vectors are pinned beside `SimRng::derive`.
        assert_eq!(fnv1a(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn splitmix64_outputs_are_pinned() {
        // Computed from the private copies this function replaced
        // (serve engine/plan, cdn rollout, webgen legacy/h3 draws):
        // every serve report and dataset assignment hashes through it.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(0x0516), 0x215f_db01_5bbf_aab4);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
        assert_eq!(splitmix64_finalize(0), 0);
        assert_eq!(splitmix64_finalize(1), 0x5692_161d_100b_05e5);
        assert_eq!(splitmix64_finalize(0x0516), 0x8cf2_cd0e_84e4_ddb7);
        assert_eq!(splitmix64_finalize(u64::MAX), 0xb4d0_55fc_f2cb_bd7b);
    }

    #[test]
    fn fx_hash_is_deterministic() {
        let h = |s: &str| {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(h("www.example.com"), h("www.example.com"));
        assert_ne!(h("www.example.com"), h("cdn.example.com"));
        // Short and 8-byte-boundary inputs both hash.
        assert_ne!(h("a"), h("b"));
        assert_ne!(h("12345678"), h("123456789"));
    }

    #[test]
    fn fx_map_basic() {
        let mut m: FxHashMap<&str, u32> = FxHashMap::default();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
