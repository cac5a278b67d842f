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

use crate::exact;
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
        mean * self.standard_exponential()
    }

    /// The unit exponential by a 256-layer ziggurat (Marsaglia & Tsang
    /// 2000): one `u64` picks a layer and a point in it, and 97.8% of
    /// draws end there. The tail past `R ≈ 7.697` is `R` plus a fresh
    /// unit exponential, which memorylessness makes exact.
    fn standard_exponential(&mut self) -> f64 {
        let zig = &exact::ZIG_EXP;
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // The top 52 bits as a uniform in (0, 1): [1, 2) − (1 − 2^-53).
            let u =
                f64::from_bits((bits >> 12) | 0x3ff0_0000_0000_0000) - (1.0 - f64::EPSILON / 2.0);
            let x = u * zig.x[i];
            if x < zig.x[i + 1] {
                return x;
            }
            if i == 0 {
                return exact::ZIG_EXP_R + self.standard_exponential();
            }
            if zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * self.unit() < exact::exp(-x) {
                return x;
            }
        }
    }

    /// A sample from a log-normal distribution parameterized by the
    /// *median* and sigma of the underlying normal. Web latencies and
    /// page-resource counts are classically log-normal; the paper's
    /// long-tailed PLT/size distributions are modelled this way.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        assert!(median > 0.0, "median must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        let z = self.standard_normal();
        median * exact::exp(sigma * z)
    }

    /// The standard normal by a 256-layer ziggurat (Marsaglia & Tsang
    /// 2000), both halves on one table: one `u64` picks a layer, a sign
    /// and a point, and 98.5% of draws end there. Past `R ≈ 3.654` the
    /// tail is sampled by Marsaglia's exact rejection from `R + Exp/R`.
    pub fn standard_normal(&mut self) -> f64 {
        let zig = &exact::ZIG_NORM;
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // The top 52 bits as a uniform in [−1, 1): [2, 4) − 3.
            let u = f64::from_bits((bits >> 12) | 0x4000_0000_0000_0000) - 3.0;
            let x = u * zig.x[i];
            if x.abs() < zig.x[i + 1] {
                return x;
            }
            if i == 0 {
                let tail = self.normal_tail();
                return if u < 0.0 { -tail } else { tail };
            }
            if zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * self.unit() < exact::exp(-0.5 * x * x) {
                return x;
            }
        }
    }

    /// `|z|` conditioned on `|z| > R`.
    fn normal_tail(&mut self) -> f64 {
        loop {
            let x = self.standard_exponential() / exact::ZIG_NORM_R;
            let y = self.standard_exponential();
            if 2.0 * y >= x * x {
                return exact::ZIG_NORM_R + x;
            }
        }
    }

    /// A rank from `law` (see [`Zipf`]): rank 0 is the most popular.
    /// Consumes no draw when the law has one rank.
    pub fn zipf(&mut self, law: &Zipf) -> usize {
        assert!(law.n > 0, "empty range");
        if law.n == 1 {
            return 0;
        }
        loop {
            if let Some(k) = law.rank(self.next_u64() >> 11) {
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

/// Half-width, in units of `m = u·2^53`, of the band around each cut
/// of a [`Zipf`] law inside which a draw evaluates the formula. It is
/// 16 times the largest error bound a law may have and keep its table;
/// every law the crawl and serve build is bounded by under 200 units.
/// A draw falls in a band with probability about `n·2^-32`.
const GUARD: u64 = 1 << 20;

/// A Zipf-like rank law over `[0, n)` with skew `s`, built once and
/// drawn by [`SimRng::zipf`]. Used for popularity-weighted choices
/// (services, SAN counts, the sites a serve session visits).
///
/// The law is inverse-CDF sampling of the continuous power law `x^−s`
/// on `[1, n]`, floored: `x = (n^(1−s)·u + 1 − u)^(1/(1−s))`, or `n^u`
/// at `s = 1`, and the rank is `⌊x⌋ − 1`; a rank that rounds out of
/// range is redrawn. The ranks so drawn follow
/// `P(rank < k) = ((k+1)^(1−s) − 1) / (n^(1−s) − 1)`, a stand-in for
/// the discrete law `k^−s`. Its support is `[0, n−1)`: `u < 1` keeps
/// `x` below `n`, so rank `n − 1` is drawn only where rounding lands
/// `x` on `n`.
///
/// A draw does not evaluate that formula. The law keeps the exact
/// inverse: the cut `m_c = ⌈u*·2^53⌉` where the rank steps up to
/// `c − 1`, from the closed form `u* = (c^(1−s) − 1)/(n^(1−s) − 1)`
/// (`ln c / ln n` at `s = 1`), and a guide table over the top bits of
/// `m` (Chen & Asau 1974). A draw takes the 53 bits `m` that
/// [`SimRng::unit`] would scale by `2^-53`, finds its interval with one
/// lookup and a short scan, and returns its index. Within [`GUARD`] of
/// a cut, where the formula's rounding may fall on either side, the
/// draw evaluates the formula on the same `u` instead, so every draw
/// equals the formula's, bit for bit. A law whose cuts cannot be
/// placed that closely (a skew within 1/64 of 1, where `n^(1−s) − 1`
/// cancels and the formula's power leaves `exact::pow`'s range) keeps
/// no table and always evaluates the formula.
pub struct Zipf {
    n: usize,
    /// `n^(1−s)` and `1/(1−s)` as the formula uses them, and whether it
    /// takes the `n^u` form.
    t: f64,
    inv: f64,
    near_one: bool,
    /// `cuts[k]` is the first `m` of rank `k` (`cuts[0] = 0`,
    /// `cuts[n−1] = 2^53`); empty when the law keeps no table.
    cuts: Box<[u64]>,
    /// `guide[g]` is the rank whose interval holds `m = g << shift`.
    guide: Box<[u32]>,
    shift: u32,
}

impl Zipf {
    /// The law over `[0, n)` with skew `s`. Drawing from a law with
    /// `n = 0` panics.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut law = Zipf {
            n,
            t: exact::pow(n as f64, 1.0 - s),
            inv: 1.0 / (1.0 - s),
            near_one: (s - 1.0).abs() < 1e-9,
            cuts: Box::default(),
            guide: Box::default(),
            shift: 0,
        };
        if n >= 2 && n <= u32::MAX as usize && law.error_bound(s) < (GUARD / 16) as f64 {
            law.build_table(s);
        }
        law
    }

    /// How far, in units of `m`, a computed cut and the formula's own
    /// step can sit from the exact step of the function the formula
    /// rounds, with a factor of two to spare. One unit of `m` is one
    /// unit roundoff `ε = 2^-53` of `u`, and `exact::pow` and
    /// `exact::ln` are within an ulp (2ε) — `pow` for powers up to
    /// `|1/(1−s)| = 64` only, so a law beyond that has no bound. At
    /// `s = 1`, `n^u` is off by 4ε, which moves the step by that over
    /// `ln n`, and `ln c / ln n` by 6ε. Otherwise the base `t·u + 1 − u`
    /// is off by 3ε, which the power `1/(1−s)` amplifies and the slope
    /// `(t − 1)/(1 − s)` takes back, and the cut's `c^(1−s) − 1` is off
    /// by 5ε of `max(1, t)` plus `1/(1−s)`'s own rounding times
    /// `|(1−s)·ln n|`; in `u`, both scale by `a = max(1, t)/|t − 1|`.
    /// The ceiling adds a unit.
    fn error_bound(&self, s: f64) -> f64 {
        let ln_n = exact::ln(self.n as f64);
        let units = if self.near_one {
            4.0 / ln_n + 7.0
        } else if self.inv.abs() > 64.0 {
            f64::INFINITY
        } else {
            let q = (1.0 - s).abs();
            let a = self.t.max(1.0) / (self.t - 1.0).abs();
            a * (8.0 + 4.0 * q + q * ln_n) + 4.0
        };
        2.0 * units
    }

    fn build_table(&mut self, s: f64) {
        let n = self.n;
        let scale = (1u64 << 53) as f64;
        let ln_n = exact::ln(n as f64);
        let mut cuts = Vec::with_capacity(n);
        cuts.push(0);
        for c in 2..n {
            let c = c as f64;
            let u = if self.near_one {
                exact::ln(c) / ln_n
            } else {
                (exact::pow(c, 1.0 - s) - 1.0) / (self.t - 1.0)
            };
            // ⌈u·2^53⌉: the product is exact and below 2^53.
            let v = u * scale;
            let m = v as u64;
            cuts.push(if (m as f64) < v { m + 1 } else { m });
        }
        cuts.push(1 << 53);
        if cuts.windows(2).any(|w| w[0] >= w[1]) {
            return;
        }
        let bits = n.next_power_of_two().trailing_zeros();
        self.shift = 53 - bits;
        let mut k = 0;
        self.guide = (0..1u64 << bits)
            .map(|g| {
                while cuts[k + 1] <= g << self.shift {
                    k += 1;
                }
                k as u32
            })
            .collect();
        self.cuts = cuts.into();
    }

    /// The rank `u = m·2^-53` draws, or `None` where the formula rounds
    /// out of range and the draw is redrawn.
    fn rank(&self, m: u64) -> Option<usize> {
        if !self.cuts.is_empty() {
            let mut k = self.guide[(m >> self.shift) as usize] as usize;
            while self.cuts[k + 1] <= m {
                k += 1;
            }
            if m - self.cuts[k] > GUARD && self.cuts[k + 1] - m > GUARD {
                return Some(k);
            }
        }
        self.formula(m)
    }

    /// [`Zipf::rank`] by the formula alone.
    fn formula(&self, m: u64) -> Option<usize> {
        let u = m as f64 * (1.0 / (1u64 << 53) as f64);
        let x = if self.near_one {
            exact::pow(self.n as f64, u)
        } else {
            exact::pow(self.t * u + (1.0 - u), self.inv)
        };
        // x ≥ 1 up to rounding, so the cast is `floor`; a value rounded
        // below 1 wraps and is redrawn. Rank 1 (most popular) maps to
        // index 0.
        let k = (x as usize).wrapping_sub(1);
        (k < self.n).then_some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a64;
    use crate::{ArrivalProcess, SimDuration};

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
        let law = Zipf::new(10, 1.1);
        for _ in 0..10_000 {
            let k = r.zipf(&law);
            counts[k] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[0] > counts[9]);
    }

    #[test]
    fn zipf_single_element() {
        let mut r = SimRng::seed_from_u64(6);
        assert_eq!(r.zipf(&Zipf::new(1, 1.2)), 0);
        // A one-rank law consumes no draw.
        assert_eq!(r.next_u64(), SimRng::seed_from_u64(6).next_u64());
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

    /// FNV-1a over the first 10⁴ outputs of one sampler, as bits.
    fn digest(mut draw: impl FnMut() -> u64) -> u64 {
        let bytes: Vec<u8> = (0..10_000).flat_map(|_| draw().to_le_bytes()).collect();
        fnv1a64(&bytes)
    }

    #[test]
    fn golden_draw_vector() {
        // Every sampler's first 10⁴ draws under one seed, hashed. The
        // samplers use exact IEEE operations only, so no libm, platform
        // or Rust release can move these; a sampler change re-pins them
        // in a commit of its own.
        let rng = || SimRng::seed_from_u64(0x0516);
        let mut r = rng();
        let mut got = vec![digest(|| r.unit().to_bits())];
        let mut r = rng();
        got.push(digest(|| r.exponential(3.5).to_bits()));
        let mut r = rng();
        got.push(digest(|| r.standard_normal().to_bits()));
        let mut r = rng();
        got.push(digest(|| r.log_normal(81.0, 0.816).to_bits()));
        for s in [1.1, 1.0, 0.8] {
            let (mut r, law) = (rng(), Zipf::new(1_940, s));
            got.push(digest(|| r.zipf(&law) as u64));
        }
        let period = SimDuration::from_secs(600);
        let mut arrivals = ArrivalProcess::new(rng(), 250.0, 0.6, period);
        got.push(digest(|| arrivals.next_arrival().as_micros()));
        let want = [
            0x0c15_0c55_6870_8dab, // unit
            0xd2d5_01d7_8c50_34cb, // exponential
            0x56fb_4b9a_fc7d_c72b, // standard_normal
            0xd4ba_1948_cc2a_1ab9, // log_normal
            0xf5a9_d0f4_bdbc_9247, // zipf, s = 1.1
            0x2fec_30a4_83b5_9375, // zipf, s = 1 (the near-one branch)
            0x4f4e_3099_5c0c_adf5, // zipf, s = 0.8
            0x90de_101f_615a_706a, // ArrivalProcess::next_arrival
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }

    /// Moments and a Kolmogorov–Smirnov distance of one sampler.
    struct Fit {
        mean: f64,
        var: f64,
        ks: f64,
    }

    /// 10⁶ draws: sample mean and variance, and the KS distance of the
    /// empirical CDF from `cdf`, a continuous law.
    fn fit(mut draw: impl FnMut() -> f64, cdf: impl Fn(f64) -> f64) -> Fit {
        let mut xs: Vec<f64> = (0..DRAWS).map(|_| draw()).collect();
        let (mean, var) = moments(&xs);
        xs.sort_by(f64::total_cmp);
        let n = DRAWS as f64;
        let ks = xs.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
            let f = cdf(x);
            d.max((f - i as f64 / n).abs())
                .max(((i + 1) as f64 / n - f).abs())
        });
        Fit { mean, var, ks }
    }

    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    const DRAWS: usize = 1_000_000;
    /// The KS distance that 10⁶ draws from the right law exceed with
    /// probability 0.1% (Kolmogorov's 1.95/√n).
    const KS_999: f64 = 1.95e-3;

    /// `P(Z ≤ x)`: Abramowitz & Stegun 7.1.26 for erfc, absolute error
    /// below 1.5·10⁻⁷.
    fn normal_cdf(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * z);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let tail = 0.5 * poly * (-z * z).exp();
        if x < 0.0 {
            tail
        } else {
            1.0 - tail
        }
    }

    /// `P(Z > x)` for `x ≥ 3`, from the continued fraction for Mills'
    /// ratio (relative error below 10⁻¹²).
    fn normal_upper_tail(x: f64) -> f64 {
        let mut c = x;
        for k in (1..=400).rev() {
            c = x + k as f64 / c;
        }
        (-0.5 * x * x).exp() / (c * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Each moment within five standard errors of its analytic value:
    /// `var_of_var` is the variance of one draw's squared deviation.
    fn assert_fit(name: &str, got: &Fit, mean: f64, var: f64, var_of_var: f64) {
        let n = DRAWS as f64;
        let mean_bound = 5.0 * (var / n).sqrt();
        let var_bound = 5.0 * (var_of_var / n).sqrt();
        assert!(
            (got.mean - mean).abs() < mean_bound,
            "{name}: mean {} vs {mean}",
            got.mean
        );
        assert!(
            (got.var - var).abs() < var_bound,
            "{name}: var {} vs {var}",
            got.var
        );
        assert!(got.ks < KS_999, "{name}: KS distance {}", got.ks);
    }

    #[test]
    fn standard_normal_fits_its_law() {
        let mut r = SimRng::seed_from_u64(11);
        let got = fit(|| r.standard_normal(), normal_cdf);
        assert_fit("normal", &got, 0.0, 1.0, 2.0);
    }

    #[test]
    fn exponential_fits_its_law() {
        let mut r = SimRng::seed_from_u64(12);
        let m = 2.5;
        let got = fit(|| r.exponential(m), |x| 1.0 - (-x / m).exp());
        // Var((X − μ)²) = μ₄ − σ⁴ = 9m⁴ − m⁴.
        assert_fit("exponential", &got, m, m * m, 8.0 * m.powi(4));
    }

    #[test]
    fn log_normal_fits_its_law() {
        let mut r = SimRng::seed_from_u64(13);
        let (med, sigma) = (81.0, 0.816);
        let got = fit(
            || r.log_normal(med, sigma),
            |x| normal_cdf((x / med).ln() / sigma),
        );
        // Raw moments E[Xᵏ] = medᵏ·e^(k²σ²/2), then central ones.
        let raw = |k: f64| med.powf(k) * (k * k * sigma * sigma / 2.0).exp();
        let mean = raw(1.0);
        let var = raw(2.0) - mean * mean;
        let m4 =
            raw(4.0) - 4.0 * mean * raw(3.0) + 6.0 * mean * mean * raw(2.0) - 3.0 * mean.powi(4);
        assert_fit("log-normal", &got, mean, var, m4 - var * var);
    }

    #[test]
    fn zipf_fits_its_law() {
        // P(rank < k) = ((k+1)^(1−s) − 1)/(n^(1−s) − 1), or
        // ln(k+1)/ln n at s = 1: the law the doc states. Three shapes of
        // the golden vector's kind, then every shape webgen draws:
        // named and tail services, the SAN-count tail, and the extra
        // services over a page's k candidates.
        let laws = [
            (14, 1_940, 1.1),
            (15, 1_940, 1.0),
            (16, 200, 0.8),
            (18, 24, 1.05),
            (19, 360, 1.02),
            (20, 1_940, 1.8),
            (21, 3, 0.8),
            (22, 7, 0.8),
            (23, 24, 0.8),
        ];
        for (seed, n, s) in laws {
            let cdf = |k: f64| {
                let x = k + 2.0;
                if s == 1.0 {
                    x.ln() / (n as f64).ln()
                } else {
                    (x.powf(1.0 - s) - 1.0) / ((n as f64).powf(1.0 - s) - 1.0)
                }
                .min(1.0)
            };
            let pmf = |k: usize| cdf(k as f64) - if k == 0 { 0.0 } else { cdf(k as f64 - 1.0) };
            let mean: f64 = (0..n).map(|k| k as f64 * pmf(k)).sum();
            let var: f64 = (0..n).map(|k| (k as f64 - mean).powi(2) * pmf(k)).sum();
            let m4: f64 = (0..n).map(|k| (k as f64 - mean).powi(4) * pmf(k)).sum();
            // A step law: the KS distance is the largest gap at a rank.
            let (mut r, law) = (SimRng::seed_from_u64(seed), Zipf::new(n, s));
            let mut counts = vec![0usize; n];
            let xs: Vec<f64> = (0..DRAWS)
                .map(|_| {
                    let k = r.zipf(&law);
                    counts[k] += 1;
                    k as f64
                })
                .collect();
            let (mean_got, var_got) = moments(&xs);
            let mut below = 0;
            let ks = (0..n).fold(0.0f64, |d, k| {
                below += counts[k];
                d.max((below as f64 / DRAWS as f64 - cdf(k as f64)).abs())
            });
            let got = Fit {
                mean: mean_got,
                var: var_got,
                ks,
            };
            assert_fit(&format!("zipf({n}, {s})"), &got, mean, var, m4 - var * var);
        }
        // Over two candidates the law puts all its mass on rank 0: rank
        // n − 1 is drawn only where rounding lands x on n.
        let (mut r, law) = (SimRng::seed_from_u64(24), Zipf::new(2, 0.8));
        assert!((0..DRAWS).all(|_| r.zipf(&law) == 0));
    }

    /// `(n, s)` of every law a run builds: webgen's named services, tail
    /// services and SAN-count tail, its extra services over each
    /// candidate count k, serve's sites at the 20,000-rank reference
    /// world, and the golden vector's three.
    fn production_laws() -> Vec<(usize, f64)> {
        let mut laws = vec![
            (24, 1.05),
            (360, 1.02),
            (1_940, 1.8),
            (SERVE_SITES, 1.1),
            (1_940, 1.1),
            (1_940, 1.0),
            (1_940, 0.8),
        ];
        laws.extend((1..=24).map(|k| (k, 0.8)));
        laws
    }

    /// Successful sites of `repro serve`'s default 20,000-rank world.
    const SERVE_SITES: usize = 12_716;

    /// The formula's rank at `u = m·2^-53`, written out as
    /// `SimRng::zipf` evaluated it on every draw before laws kept a
    /// table; `None` is a redraw.
    fn formula_rank(n: usize, s: f64, m: u64) -> Option<usize> {
        let u = m as f64 / (1u64 << 53) as f64;
        let x = if (s - 1.0).abs() < 1e-9 {
            exact::pow(n as f64, u)
        } else {
            exact::pow(
                exact::pow(n as f64, 1.0 - s) * u + (1.0 - u),
                1.0 / (1.0 - s),
            )
        };
        let k = (x as usize).wrapping_sub(1);
        (k < n).then_some(k)
    }

    #[test]
    fn every_production_law_keeps_a_table() {
        let serve_worlds = (1..=40).map(|i| (i * 500, 1.1));
        // A one-rank law needs none: it returns 0 without a draw.
        let laws = production_laws().into_iter().chain(serve_worlds);
        for (n, s) in laws.filter(|&(n, _)| n >= 2) {
            let law = Zipf::new(n, s);
            let bound = law.error_bound(s);
            assert_eq!(law.cuts.len(), n, "zipf({n}, {s}) keeps no table");
            assert!(bound < 200.0, "zipf({n}, {s}) error bound {bound}");
        }
        // Within 1/64 of s = 1 (but not at it) a law keeps no table and
        // draws by the formula alone.
        assert_eq!(Zipf::new(2, 1.0 + 1.0 / 64.0).cuts.len(), 2);
        let law = Zipf::new(1_940, 1.01);
        assert!(law.cuts.is_empty() && law.guide.is_empty());
        let (mut a, mut b) = (SimRng::seed_from_u64(25), SimRng::seed_from_u64(25));
        for _ in 0..10_000 {
            let want = loop {
                if let Some(k) = formula_rank(1_940, 1.01, b.next_u64() >> 11) {
                    break k;
                }
            };
            assert_eq!(a.zipf(&law), want);
        }
    }

    #[test]
    fn zipf_draws_equal_the_formula() {
        // 10⁶ draws of each shape a run builds (every candidate count
        // of webgen's extras is swept at its cuts below), on one stream
        // each: a redraw the table missed would shift every later draw.
        let shapes = [
            (24, 1.05),
            (360, 1.02),
            (1_940, 1.8),
            (24, 0.8),
            (SERVE_SITES, 1.1),
            (1_940, 1.1),
            (1_940, 1.0),
            (1_940, 0.8),
        ];
        for (i, (n, s)) in shapes.into_iter().enumerate() {
            let law = Zipf::new(n, s);
            let mut r = SimRng::seed_from_u64(30 + i as u64);
            let mut formula = SimRng::seed_from_u64(30 + i as u64);
            for d in 0..DRAWS {
                let want = loop {
                    if let Some(k) = formula_rank(n, s, formula.next_u64() >> 11) {
                        break k;
                    }
                };
                assert_eq!(r.zipf(&law), want, "zipf({n}, {s}), draw {d}");
            }
        }
    }

    #[test]
    fn zipf_cuts_sit_on_the_closed_form() {
        // Each cut is ⌈u*·2^53⌉ of its closed form; the formula steps
        // within the law's error bound of it; and a draw at the cut's
        // edges — inside the band, just outside it, and a few units
        // either side of the cut itself — equals the formula's.
        let edge = [(2, 1.0 + 1.0 / 64.0), (1_940, 1.0 - 1.0 / 64.0), (2_000, 0.5)];
        let laws = production_laws().into_iter().chain(edge);
        for (n, s) in laws.filter(|&(n, _)| n >= 2) {
            let law = Zipf::new(n, s);
            let bound = law.error_bound(s) as u64;
            let at = |m: u64| (law.rank(m), formula_rank(n, s, m));
            for (k, &cut) in law.cuts.iter().enumerate().take(n - 1) {
                let c = (k + 1) as f64;
                let u = if (s - 1.0).abs() < 1e-9 {
                    exact::ln(c) / exact::ln(n as f64)
                } else {
                    (exact::pow(c, 1.0 - s) - 1.0) / (exact::pow(n as f64, 1.0 - s) - 1.0)
                };
                let v = u * (1u64 << 53) as f64;
                let want = v as u64 + u64::from((v as u64 as f64) < v);
                assert_eq!(cut, if k == 0 { 0 } else { want }, "zipf({n}, {s}) cut {k}");
                if k > 0 {
                    assert_eq!(formula_rank(n, s, cut - bound - 1), Some(k - 1));
                }
                assert_eq!(formula_rank(n, s, cut + bound), Some(k), "zipf({n}, {s}) cut {k}");
                let edges = [GUARD + 1, GUARD, GUARD - 1, 8, 3, 2, 1, 0];
                let probes = edges
                    .iter()
                    .flat_map(|&d| [cut.wrapping_sub(d), cut + d])
                    .filter(|&m| m < 1 << 53);
                for m in probes {
                    let (got, want) = at(m);
                    assert_eq!(got, want, "zipf({n}, {s}) at m = {m}, cut {k} = {cut}");
                }
            }
            for m in (1 << 53) - GUARD - 2..(1 << 53) - GUARD + 2 {
                assert_eq!(at(m).0, at(m).1, "zipf({n}, {s}) at m = {m}");
            }
        }
    }

    #[test]
    fn ziggurat_tails_fit_their_laws() {
        // How often a draw lands past the base layer's edge, within five
        // standard errors, and the KS distance of what lands there from
        // the conditional law at its own 0.1% critical value.
        let ks_tail = |mut xs: Vec<f64>, cdf: &dyn Fn(f64) -> f64| {
            xs.sort_by(f64::total_cmp);
            let n = xs.len() as f64;
            let d = xs.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
                let f = cdf(x);
                d.max((f - i as f64 / n).abs())
                    .max(((i + 1) as f64 / n - f).abs())
            });
            assert!(d < 1.95 / n.sqrt(), "tail KS distance {d} over {n} draws");
        };
        let (rn, re) = (exact::ZIG_NORM_R, exact::ZIG_EXP_R);
        let mut r = SimRng::seed_from_u64(17);
        let beyond: Vec<f64> = (0..DRAWS)
            .map(|_| r.standard_normal().abs())
            .filter(|&z| z > rn)
            .collect();
        let expect = DRAWS as f64 * 2.0 * normal_upper_tail(rn);
        assert!(
            (beyond.len() as f64 - expect).abs() < 5.0 * expect.sqrt(),
            "{} normal tail draws vs {expect}",
            beyond.len()
        );
        let cond = |x: f64| 1.0 - normal_upper_tail(x) / normal_upper_tail(rn);
        ks_tail(beyond, &cond);
        ks_tail((0..100_000).map(|_| r.normal_tail()).collect(), &cond);

        let beyond: Vec<f64> = (0..DRAWS)
            .map(|_| r.exponential(1.0))
            .filter(|&x| x > re)
            .collect();
        let expect = DRAWS as f64 * (-re).exp();
        assert!(
            (beyond.len() as f64 - expect).abs() < 5.0 * expect.sqrt(),
            "{} exponential tail draws vs {expect}",
            beyond.len()
        );
        ks_tail(beyond, &|x| 1.0 - (re - x).exp());
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
