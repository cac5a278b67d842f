//! Seeded randomness plumbing.
//!
//! Every stochastic decision in the reproduction (latency jitter,
//! sampling, group assignment, fault injection) draws from a
//! [`SimRng`] derived from an explicit seed, so whole experiments are
//! reproducible and sub-components can be given independent streams.
//!
//! The generator is a self-contained xoshiro256++ seeded through a
//! SplitMix64 expansion, so the repo carries no external RNG
//! dependency and the streams are identical on every platform.

use crate::hash::splitmix64;

/// A deterministic RNG with support for deriving independent
/// sub-streams by label, so adding randomness in one component never
/// perturbs another.
pub struct SimRng {
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Create from an explicit seed.
    ///
    /// The 64-bit seed is expanded into the 256-bit xoshiro state with
    /// SplitMix64, the seeding scheme its authors recommend; a
    /// xoshiro state of all zeroes (unreachable this way) would be a
    /// fixed point.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *slot = splitmix64(x);
        }
        SimRng { s, seed }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent sub-stream for a labelled component.
    ///
    /// Mixing uses an FNV-1a-shaped fold over the label followed by a
    /// SplitMix64 finalizer; distinct labels give uncorrelated streams.
    pub fn derive(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            // NOT the FNV prime: 2^44 + 0x1b3 where
            // [`fnv1a64`](crate::hash::fnv1a64) has
            // 2^40 + 0x1b3. Every derived stream — hence every
            // committed report — is seeded through this exact fold, so
            // it must not be "consolidated" onto `fnv1a64`
            // (`derive_and_fnv1a64_outputs_are_pinned` guards both).
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mixed = splitmix64(self.seed ^ h);
        SimRng::seed_from_u64(mixed)
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Fill a byte slice with raw output.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform f64 in [0, 1), using the top 53 bits of a draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// Uniform integer in `[lo, hi)`. Panics when `lo >= hi`.
    ///
    /// Unbiased via Lemire's multiply-shift rejection.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        let mut m = (self.next_u64() as u128) * (span as u128);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                m = (self.next_u64() as u128) * (span as u128);
                low = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform usize in `[0, n)`. Panics when n == 0.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range");
        lo + self.unit() * (hi - lo)
    }

    /// A sample from an exponential distribution with the given mean.
    /// Used for long-tailed latency jitter and inter-arrival times.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let u: f64 = 1.0 - self.unit(); // avoid ln(0)
        -mean * u.ln()
    }

    /// A sample from a log-normal distribution parameterized by the
    /// *median* and sigma of the underlying normal. Web latencies and
    /// page-resource counts are classically log-normal; the paper's
    /// long-tailed PLT/size distributions are modelled this way.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        assert!(median > 0.0, "median must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        let z = self.standard_normal();
        median * (sigma * z).exp()
    }

    /// Standard normal via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.unit();
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A Zipf-like rank draw over `[0, n)` with skew `s`: rank 0 is the
    /// most popular. Used for popularity-weighted choices (hostnames,
    /// services, providers).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "empty range");
        // Inverse-CDF on the truncated harmonic series would be exact
        // but O(n); rejection from the continuous bounding curve is
        // O(1) amortized and close enough for workload generation.
        if n == 1 {
            return 0;
        }
        let near_one = (s - 1.0).abs() < 1e-9;
        let t = (n as f64).powf(1.0 - s);
        loop {
            let u = self.unit();
            // Continuous inverse-CDF over ranks [1, n]:
            // x = (n^(1-s) * u + (1-u))^(1/(1-s)), so x ∈ [1, n].
            let x = if near_one {
                (n as f64).powf(u)
            } else {
                (t * u + (1.0 - u)).powf(1.0 / (1.0 - s))
            };
            // Rank 1 (most popular) maps to index 0.
            let k = x.floor() as usize - 1;
            if k < n {
                return k;
            }
        }
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Choose one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a64;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derive_is_stable_and_label_dependent() {
        let root = SimRng::seed_from_u64(42);
        let mut d1 = root.derive("dns");
        let mut d1b = root.derive("dns");
        let mut d2 = root.derive("tls");
        assert_eq!(d1.next_u64(), d1b.next_u64());
        assert_ne!(d1.next_u64(), d2.next_u64());
    }

    #[test]
    fn derive_and_fnv1a64_outputs_are_pinned() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // `derive` folds with its own multiplier (see the comment
        // there); these are the streams every report was built from.
        let root = SimRng::seed_from_u64(42);
        assert_eq!(root.derive("dns").next_u64(), 0xaecd_c1b3_567b_89ce);
        assert_eq!(root.derive("").next_u64(), 0xf7f9_5478_4c80_7c40);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_rate_is_roughly_p() {
        let mut r = SimRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::seed_from_u64(3);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    fn log_normal_median() {
        let mut r = SimRng::seed_from_u64(4);
        let mut xs: Vec<f64> = (0..20_001).map(|_| r.log_normal(100.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med - 100.0).abs() < 8.0, "median={med}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut r = SimRng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let k = r.zipf(10, 1.1);
            counts[k] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[0] > counts[9]);
    }

    #[test]
    fn zipf_single_element() {
        let mut r = SimRng::seed_from_u64(6);
        assert_eq!(r.zipf(1, 1.2), 0);
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = SimRng::seed_from_u64(7);
        let mut xs: Vec<u32> = (0..16).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(xs, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn range_and_choose() {
        let mut r = SimRng::seed_from_u64(8);
        for _ in 0..100 {
            let v = r.range_u64(5, 10);
            assert!((5..10).contains(&v));
        }
        let xs = [1, 2, 3];
        assert!(xs.contains(r.choose(&xs)));
    }

    #[test]
    fn fill_bytes_deterministic_and_full() {
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        let mut ba = [0u8; 13];
        let mut bb = [0u8; 13];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
        assert!(ba.iter().any(|&x| x != 0));
    }
}
