//! Transcendental functions and sampler tables from exact IEEE
//! operations.
//!
//! Every random draw in the reproduction ends in arithmetic on `f64`s,
//! and the platform's libm (`f64::ln`, `exp`, `powf`, `cos`) is free to
//! round differently on another machine, another C library or another
//! Rust release. The functions here use only `+ − × ÷`, comparisons,
//! integer casts and bit moves on the representation, each of which
//! IEEE 754 defines to the last bit, so a draw is the same everywhere
//! (DESIGN.md §6). Fused multiply-add is avoided too: on baseline
//! x86-64 `mul_add` is a libm call.
//!
//! `exp` and `pow` are table-driven, in the manner of Tang (1989) and
//! of today's glibc and musl: `e^x = 2^(k/128) · e^r` with
//! `|r| ≤ ln2/256`, and `ln x = ln c + ln(1 + r)` for the table point
//! `c` nearest `x`, with both tables held in two doubles, so neither
//! needs a division; `ln` is that logarithm rounded to one double.
//! `cos_turns` runs fdlibm's `__kernel_sin` / `__kernel_cos`
//! polynomials. The tables, and the ziggurat tables of
//! [`SimRng::standard_normal`](crate::SimRng::standard_normal) and
//! [`SimRng::exponential`](crate::SimRng::exponential), are computed
//! from the same operations by `const fn`, so they are part of the
//! binary and a call pays no initialisation check.

/// `ln 2` split so that `k · LN2_HI` is exact for `|k| < 2^21`.
const LN2_HI: f64 = 0.6931471803691238;
const LN2_LO: f64 = 1.9082149292705877e-10;
const INV_LN2: f64 = std::f64::consts::LOG2_E;

/// `ln 2` to double-double precision, for building tables.
const LN2_DD: (f64, f64) = (std::f64::consts::LN_2, 2.319_046_813_846_299_6e-17);
/// Entries in each of the `exp` and `pow` tables.
const TABLE: usize = 128;
/// `128 / ln 2`, and `ln 2 / 128` split so that `k · LN2_N_HI` is exact
/// for `|k| < 2^21`.
const INV_LN2_N: f64 = INV_LN2 * TABLE as f64;
const LN2_N_HI: f64 = LN2_HI / TABLE as f64;
const LN2_N_LO: f64 = LN2_LO / TABLE as f64;
/// `1.5 · 2^52`: adding it rounds a double of magnitude below `2^51` to
/// an integer (ties to even), which its low bits then hold.
const ROUND: f64 = 6755399441055744.0;

// `__kernel_sin` / `__kernel_cos` on [−π/4, π/4].
const S1: f64 = -0.16666666666666632;
const S2: f64 = 0.00833333333332249;
const S3: f64 = -0.0001984126982985795;
const S4: f64 = 2.7557313707070068e-06;
const S5: f64 = -2.5050760253406863e-08;
const S6: f64 = 1.58969099521155e-10;
const C1: f64 = 0.0416666666666666;
const C2: f64 = -0.001388888888887411;
const C3: f64 = 2.480158728947673e-05;
const C4: f64 = -2.7557314351390663e-07;
const C5: f64 = 2.087572321298175e-09;
const C6: f64 = -1.1359647557788195e-11;
const TAU: f64 = std::f64::consts::TAU;

const TWO52: f64 = 4503599627370496.0;

/// `a + b` as the rounded sum and its exact error (Knuth).
const fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// `x` as a head of 26 significant bits and an exact tail (Dekker).
const fn split(x: f64) -> (f64, f64) {
    let c = 134_217_729.0 * x; // 2^27 + 1
    let hi = c - (c - x);
    (hi, x - hi)
}

/// `a · b` as the rounded product and its exact error (Dekker), without
/// a fused multiply-add.
const fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
}

/// Double-double product, for building tables.
const fn dd_mul(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let (p, e) = two_prod(a.0, b.0);
    two_sum(p, e + (a.0 * b.1 + a.1 * b.0))
}

/// Double-double sum, for building tables.
const fn dd_add(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let (s, e) = two_sum(a.0, b.0);
    two_sum(s, e + (a.1 + b.1))
}

/// Double-double quotient by a double, for building tables.
const fn dd_div(a: (f64, f64), d: f64) -> (f64, f64) {
    let q = a.0 / d;
    let (p, e) = two_prod(q, d);
    two_sum(q, (((a.0 - p) - e) + a.1) / d)
}

/// `x · 2^n` for `x` near 1: exact, or rounded once when the result
/// is subnormal.
const fn scale2(x: f64, n: i32) -> f64 {
    // Each factor is a normal power of two; below 2^-1022 the first
    // keeps x normal, so only the second rounds.
    let (a, b) = if n > 1023 {
        (1023, n - 1023)
    } else if n < -1022 {
        (-969, n + 969)
    } else {
        (n, 0)
    };
    let pa = f64::from_bits(((a + 1023) as u64) << 52);
    let pb = f64::from_bits(((b + 1023) as u64) << 52);
    x * pa * pb
}

/// The integer nearest `x`, or, at a tie or just short of one (where
/// `x ± 0.5` rounds), possibly its other neighbour: `cos_turns` needs
/// no more. `|x| < 2^31`.
const fn round_i32(x: f64) -> i32 {
    if x < 0.0 {
        (x - 0.5) as i32
    } else {
        (x + 0.5) as i32
    }
}

/// `e^x`, within one ulp.
pub const fn exp(x: f64) -> f64 {
    let big = !(x < 704.0 && x > -704.0);
    if big {
        if x.is_nan() {
            return x;
        }
        if x > 709.782_712_893_384 {
            return f64::INFINITY;
        }
        if x < -745.133_219_101_941_1 {
            return 0.0;
        }
    }
    // x = k·ln2/128 + r, |r| ≤ ln2/256; k·LN2_N_HI and the first
    // subtraction are exact.
    let kd = x * INV_LN2_N + ROUND;
    let ki = kd.to_bits();
    let kd = kd - ROUND;
    exp_reduced(ki, (x - kd * LN2_N_HI) - kd * LN2_N_LO, big)
}

/// `e^(k·ln2/128 + r)` for `|r| ≲ ln2/256`, where `ki`'s low bits hold
/// `k`: `2^(k/128)` from the table times a degree-5 Taylor polynomial
/// in `r`, whose truncation error is below `2^-60`. Unless `big`, the
/// power of two goes straight into the exponent field.
const fn exp_reduced(ki: u64, r: f64, big: bool) -> f64 {
    let j = ki % TABLE as u64;
    let (t_hi, tail) = EXP2_TABLE[j as usize];
    // Estrin's scheme: the two halves evaluate side by side.
    let r2 = r * r;
    let p =
        tail + (r + (r2 * (0.5 + r * (1.0 / 6.0)) + r2 * r2 * (1.0 / 24.0 + r * (1.0 / 120.0))));
    if !big {
        // (k − j)/128 · 2^52 = (k − j) · 2^45; ROUND's own bits shift out.
        let scale = f64::from_bits(t_hi.to_bits().wrapping_add(ki.wrapping_sub(j) << 45));
        return scale + scale * p;
    }
    let k = ki.wrapping_sub(ROUND.to_bits()) as i64 as i32;
    scale2(t_hi + t_hi * p, (k - j as i32) / TABLE as i32)
}

/// `ln x` for finite `x > 0` as two doubles whose sum is within about
/// `2^-68` of it, absolutely: what `pow` needs, since it multiplies the
/// logarithm by `y` before raising.
const fn ln_parts(x: f64) -> (f64, f64) {
    let (x, k0) = if x < f64::MIN_POSITIVE {
        (x * TWO52, -52)
    } else {
        (x, 0)
    };
    // x = 2^k · z with z in [0.6875, 1.375), split into 128 intervals
    // of one mantissa step each; interval i is centred on c.
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(0x3fe6_0000_0000_0000);
    let i = ((tmp >> 45) % TABLE as u64) as usize;
    let k = (tmp as i64 >> 52) as i32 + k0;
    let z = f64::from_bits(ix.wrapping_sub(tmp & (0xfff << 52)));
    let (c, inv_c, lc_hi, lc_lo) = LN_TABLE[i];
    // r = z/c − 1 = r_hi + r_lo: z − c is exact, and c has at most
    // ten significant bits, so each half of r_hi times c is exact too.
    let d = z - c;
    let r_hi = d * inv_c;
    let (q_hi, q_lo) = split(r_hi);
    let r_lo = ((d - q_hi * c) - q_lo * c) * inv_c;
    // ln(1 + r) = r − r²/2 + r³/3 − …, |r| ≤ 2^-8: through r^7 the
    // truncation is below 2^-67, in Estrin's scheme.
    let r2 = r_hi * r_hi;
    let tail = r2 * (-0.5 + r_hi * (1.0 / 3.0))
        + r2 * r2 * ((-0.25 + r_hi * 0.2) + r2 * (-1.0 / 6.0 + r_hi * (1.0 / 7.0)));
    let kf = k as f64;
    let (s, e1) = two_sum(kf * LN2_HI, lc_hi);
    let (s, e2) = two_sum(s, r_hi);
    let early = e1 + (kf * LN2_LO + lc_lo);
    (s, (early + (r_lo - r_hi * r_lo) + e2) + tail)
}

/// `ln x` for finite `x > 0`: [`ln_parts`] summed. Within one ulp
/// wherever `|ln x| ≥ 2^-14`, which covers the densities the ziggurat
/// tables take it of; nearer 1 its error is below `2^-66` absolutely.
pub const fn ln(x: f64) -> f64 {
    let (hi, lo) = ln_parts(x);
    hi + lo
}

/// `x^y` for `x ≥ 0`, within one ulp: `ln x` in two doubles times `y`
/// in two, raised by `exp`'s table. NaN for a negative or NaN `x`.
pub const fn pow(x: f64, y: f64) -> f64 {
    if y == 0.0 || x == 1.0 {
        return 1.0;
    }
    if x.is_nan() || y.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return if y > 0.0 { 0.0 } else { f64::INFINITY };
    }
    if x == f64::INFINITY {
        return if y > 0.0 { x } else { 0.0 };
    }
    if y.is_infinite() {
        return if (x > 1.0) == (y > 0.0) {
            f64::INFINITY
        } else {
            0.0
        };
    }
    let (l_hi, l_lo) = ln_parts(x);
    let (z_hi, e) = two_prod(y, l_hi);
    let z_lo = e + y * l_lo;
    let big = !(z_hi < 704.0 && z_hi > -704.0);
    if big && z_hi > 709.8 {
        return f64::INFINITY;
    }
    if big && z_hi < -745.2 {
        return 0.0;
    }
    let kd = z_hi * INV_LN2_N + ROUND;
    let ki = kd.to_bits();
    let kd = kd - ROUND;
    exp_reduced(ki, (z_hi - kd * LN2_N_HI) + (z_lo - kd * LN2_N_LO), big)
}

/// `sin x` on `[−π/4, π/4]` (`__kernel_sin`).
const fn kernel_sin(x: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    x + z * x * (S1 + z * r)
}

/// `cos x` on `[−π/4, π/4]` (`__kernel_cos`).
const fn kernel_cos(x: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + z * r)
}

/// `cos 2πx`: one turn is one period. Reducing a turn count is exact
/// (subtracting the nearest integer), so unlike `cos` of a radian
/// argument no multiple of π is approximated before the reduction;
/// each kernel is within one ulp of `cos` or `sin` of the same reduced
/// radian argument. `|x| < 2^31`.
pub const fn cos_turns(x: f64) -> f64 {
    // r ∈ [0, ½] by periodicity and evenness, then [0, ¼] by
    // cos 2π(½ − r) = −cos 2πr, then one kernel for each eighth.
    let r = x - round_i32(x) as f64;
    let r = if r < 0.0 { -r } else { r };
    let (r, sign) = if r > 0.25 { (0.5 - r, -1.0) } else { (r, 1.0) };
    let c = if r <= 0.125 {
        kernel_cos(TAU * r)
    } else {
        kernel_sin(TAU * (0.25 - r))
    };
    sign * c
}

/// `√x` for a positive normal `x`, correctly rounded as IEEE 754
/// requires of `f64::sqrt`, from integer arithmetic so that a `const
/// fn` can call it.
const fn const_sqrt(x: f64) -> f64 {
    let bits = x.to_bits();
    // x = m · 2^e with a 53-bit m; make e even.
    let mut m = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
    let mut e = ((bits >> 52) & 0x7ff) as i32 - 1075;
    if e & 1 != 0 {
        m <<= 1;
        e -= 1;
    }
    // ⌊√(m · 2^54)⌋ has 54 bits: the 53 kept and a rounding bit.
    let n = (m as u128) << 54;
    let mut rem = n;
    let mut root: u128 = 0;
    let mut bit: u128 = 1 << 126;
    while bit > n {
        bit >>= 2;
    }
    while bit != 0 {
        if rem >= root + bit {
            rem -= root + bit;
            root = (root >> 1) + bit;
        } else {
            root >>= 1;
        }
        bit >>= 2;
    }
    // A square root is never half-way between two doubles, so the
    // rounding bit alone decides: round up when it is set.
    let mut q = ((root >> 1) + (root & 1)) as u64;
    let mut e = e / 2 - 26;
    if q >> 53 != 0 {
        q >>= 1;
        e += 1;
    }
    f64::from_bits((((e + 52 + 1023) as u64) << 52) | (q & ((1u64 << 52) - 1)))
}

/// `2^(j/128)` for `j` in `0..128`, as a double and its remainder
/// relative to it: the Taylor series of `e^(j·ln2/128)` summed in
/// double-double.
static EXP2_TABLE: [(f64, f64); TABLE] = {
    let mut t = [(0.0, 0.0); TABLE];
    let mut j = 0;
    while j < TABLE {
        let a = dd_mul((j as f64 / TABLE as f64, 0.0), LN2_DD);
        let mut sum = (1.0, 0.0);
        let mut term = (1.0, 0.0);
        let mut n = 1;
        while n < 30 {
            term = dd_div(dd_mul(term, a), n as f64);
            sum = dd_add(sum, term);
            n += 1;
        }
        t[j] = (sum.0, sum.1 / sum.0);
        j += 1;
    }
    t
};

/// For each of `ln_parts`' 128 intervals: its centre `c` (at most ten
/// significant bits), `1/c`, and `ln c` as a double and its remainder,
/// from `2·atanh((c − 1)/(c + 1))` summed in double-double.
static LN_TABLE: [(f64, f64, f64, f64); TABLE] = {
    let mut t = [(0.0, 0.0, 0.0, 0.0); TABLE];
    let mut i = 0;
    while i < TABLE {
        // Interval i starts at mantissa step i above 0.6875's; below 1
        // a step is 2^-8 wide, above it 2^-7.
        let start = f64::from_bits(0x3fe6_0000_0000_0000 + ((i as u64) << 45));
        let c = if start < 1.0 {
            start + 1.0 / 512.0
        } else {
            start + 1.0 / 256.0
        };
        // s = (c − 1)/(c + 1); both are exact doubles.
        let s = dd_div((c - 1.0, 0.0), c + 1.0);
        let s2 = dd_mul(s, s);
        let mut power = s;
        let mut sum = s;
        let mut n = 3;
        while n < 60 {
            power = dd_mul(power, s2);
            sum = dd_add(sum, dd_div(power, n as f64));
            n += 2;
        }
        t[i] = (c, 1.0 / c, 2.0 * sum.0, 2.0 * sum.1);
        i += 1;
    }
    t
};

/// Layers of each ziggurat.
const ZIG_LAYERS: usize = 256;

/// Where the normal ziggurat's base layer meets its tail, for 256
/// layers of the unnormalised density `e^(−x²/2)`.
pub(crate) const ZIG_NORM_R: f64 = 3.654152885361009;
/// Where the exponential ziggurat's base layer meets its tail, for 256
/// layers of `e^(−x)`.
pub(crate) const ZIG_EXP_R: f64 = 7.69711747013105;

/// `∫_r^∞ e^(−x²/2) dx` by Laplace's continued fraction for Mills'
/// ratio, `e^(−r²/2) / (r + 1/(r + 2/(r + 3/(r + …))))`, which converges
/// to double precision well inside 500 terms at `r ≈ 3.65`.
const fn normal_tail_area(r: f64) -> f64 {
    let mut c = r;
    let mut k = 500;
    while k > 0 {
        c = r + k as f64 / c;
        k -= 1;
    }
    exp(-0.5 * r * r) / c
}

/// A ziggurat: `x[i]` is layer `i`'s right edge (`x[0]` the base
/// layer's width were its tail a rectangle, `x[256] = 0`), `f[i]` the
/// density there. Every layer has the base layer's area `v`.
pub(crate) struct Ziggurat {
    pub(crate) x: [f64; ZIG_LAYERS + 1],
    pub(crate) f: [f64; ZIG_LAYERS + 1],
}

/// The unnormalised density a ziggurat covers: `e^(−x²/2)` or `e^(−x)`.
const fn density(normal: bool, x: f64) -> f64 {
    if normal {
        exp(-0.5 * x * x)
    } else {
        exp(-x)
    }
}

/// Marsaglia and Tsang's construction: from the base edge `r` and the
/// common area `v`, each layer's top edge is where the density reaches
/// `f(x_i) + v/x_i`.
const fn ziggurat(normal: bool, r: f64) -> Ziggurat {
    let v = if normal {
        r * density(normal, r) + normal_tail_area(r)
    } else {
        (r + 1.0) * density(normal, r)
    };
    let mut x = [0.0; ZIG_LAYERS + 1];
    let mut f = [0.0; ZIG_LAYERS + 1];
    x[0] = v / density(normal, r);
    x[1] = r;
    let mut i = 1;
    while i < ZIG_LAYERS - 1 {
        let y = v / x[i] + density(normal, x[i]);
        x[i + 1] = if normal {
            const_sqrt(-2.0 * ln(y))
        } else {
            -ln(y)
        };
        i += 1;
    }
    x[ZIG_LAYERS] = 0.0;
    let mut i = 0;
    while i <= ZIG_LAYERS {
        f[i] = density(normal, x[i]);
        i += 1;
    }
    Ziggurat { x, f }
}

/// The 256-layer ziggurat of the standard normal (both halves share it).
pub(crate) static ZIG_NORM: Ziggurat = ziggurat(true, ZIG_NORM_R);
/// The 256-layer ziggurat of the unit exponential.
pub(crate) static ZIG_EXP: Ziggurat = ziggurat(false, ZIG_EXP_R);

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in ulps between two finite doubles of one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `n + 1` evenly spaced points over `[lo, hi]`.
    fn sweep(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
        (0..=n).map(move |i| lo + (hi - lo) * i as f64 / n as f64)
    }

    fn worst(pairs: impl Iterator<Item = (f64, f64, f64)>) -> (u64, f64) {
        pairs
            .map(|(x, ours, std)| (ulps(ours, std), x))
            .max_by_key(|&(u, _)| u)
            .unwrap()
    }

    #[test]
    fn exp_is_within_one_ulp_of_std() {
        // The draw path: σ·z for log-normals, −x²/2 and −x in the
        // ziggurats' wedges; then the whole finite range, coarsely.
        let dense = sweep(-12.0, 12.0, 400_000);
        let wide = sweep(-708.0, 709.0, 200_000);
        let tiny = (0..2_000).map(|i| (i as f64 - 1_000.0) * 1e-12);
        let (u, at) = worst(dense.chain(wide).chain(tiny).map(|x| (x, exp(x), x.exp())));
        assert!(u <= 1, "exp is {u} ulps off at {at}");
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(-746.0), 0.0);
        assert!(exp(f64::NAN).is_nan());
        // A subnormal result rounds once.
        for x in [-709.0, -720.5, -740.0, -744.0] {
            assert!(ulps(exp(x), x.exp()) <= 1, "exp({x})");
        }
    }

    #[test]
    fn ln_is_within_one_ulp_of_std_away_from_one() {
        // The ziggurat tables take ln of densities between e^-7.7 and
        // 0.98: sweep that range densely, then the rest of (0, 1] up to
        // |ln x| = 2^-14, its lowest binades and a few decades either
        // side. Nearer 1 the error is absolute, not relative.
        let tables = sweep(4e-4, 0.98, 400_000);
        let below_one = (1..=400_000).map(|i| i as f64 / 400_000.0 * (1.0 - 2f64.powi(-14)));
        let low = (0..1_000).map(|i| (1.0 + i as f64 / 1_000.0) * 2f64.powi(-53));
        let decades = (-300..300)
            .flat_map(|e| (1..10).map(move |m| m as f64 * 10f64.powi(e)))
            .filter(|x| x.ln().abs() >= 2f64.powi(-14));
        let sub = [5e-324, 1e-310, 2.2e-308];
        let xs = tables.chain(below_one).chain(low).chain(decades).chain(sub);
        let (u, at) = worst(xs.map(|x| (x, ln(x), x.ln())));
        assert!(u <= 1, "ln is {u} ulps off at {at}");
        let near_one = (1..20_000).flat_map(|i| [1.0 - i as f64 * 3e-9, 1.0 + i as f64 * 6e-9]);
        for x in near_one.chain([1.0]) {
            let err = (ln(x) - x.ln()).abs();
            assert!(err <= 2f64.powi(-66), "ln({x}) off by {err:e}");
        }
    }

    #[test]
    fn pow_is_within_one_ulp_of_std() {
        // zipf raises n ≤ 20,000 to 1 − s and to a uniform, and a base
        // in [n^(1−s), 1] to 1/(1 − s) (a `Zipf` law keeps its table up
        // to |1/(1 − s)| = 64, s = 1 ± 1/64); the AS count raises
        // requests/81 to 0.35.
        let mut worst_seen = (0, 0.0, 0.0);
        let mut check = |x: f64, y: f64| {
            let (ours, std) = (pow(x, y), x.powf(y));
            let u = ulps(ours, std);
            if u > worst_seen.0 {
                worst_seen = (u, x, y);
            }
        };
        let edge = [1.0 - 1.0 / 64.0, 1.0 + 1.0 / 64.0];
        for s in [0.5, 0.8, 0.9, 1.02, 1.05, 1.1, 1.2, 1.5, 1.8, 2.0].into_iter().chain(edge) {
            for n in (1..=20_000).step_by(7) {
                check(n as f64, 1.0 - s);
            }
            let inv = 1.0 / (1.0 - s);
            let t = 20_000f64.powf(1.0 - s);
            for base in sweep(t.min(1.0), t.max(1.0), 20_000) {
                check(base, inv);
            }
        }
        for n in [2.0, 7.0, 64.0, 361.0, 1_940.0, 12_716.0] {
            for u in sweep(0.0, 1.0, 10_000) {
                check(n, u);
            }
        }
        for r in 3..=900 {
            check(r as f64 / 81.0, 0.35);
        }
        for x in [1e-300, 1e-10, 0.3, 3.0, 1e10, 1e300] {
            for y in [-3.5, -1.0, -0.25, 0.5, 1.0, 2.0, 7.25] {
                check(x, y);
            }
        }
        assert!(
            worst_seen.0 <= 1,
            "pow is {} ulps off at {:?}",
            worst_seen.0,
            worst_seen
        );
        assert_eq!(pow(2.0, 10.0), 1_024.0);
        assert_eq!(pow(0.0, 2.0), 0.0);
        assert_eq!(pow(5.0, 0.0), 1.0);
        assert_eq!(pow(1e300, 2.0), f64::INFINITY);
        assert_eq!(pow(1e-300, 2.0), 0.0);
        assert!(pow(-2.0, 0.5).is_nan());
    }

    #[test]
    fn cos_turns_is_within_two_ulps() {
        // Against std on the same radian argument, the kernels agree to
        // an ulp; against cos(2π·x) for a diurnal phase of up to ten
        // periods, the two differ by std's own argument rounding.
        for x in sweep(0.0, 0.125, 100_000) {
            assert!(ulps(cos_turns(x), (TAU * x).cos()) <= 1, "cos at {x}");
        }
        for x in sweep(0.125, 0.25, 100_000) {
            let s = (TAU * (0.25 - x)).sin();
            assert!(ulps(cos_turns(x), s) <= 1, "sin at {x}");
        }
        for x in sweep(-10.0, 10.0, 400_000) {
            let err = (cos_turns(x) - (TAU * x).cos()).abs();
            assert!(
                err <= 2e-15 * (1.0 + x.abs()),
                "cos_turns({x}) off by {err}"
            );
        }
        assert_eq!(cos_turns(0.0), 1.0);
        assert_eq!(cos_turns(0.5), -1.0);
        assert_eq!(cos_turns(0.25), 0.0);
        assert_eq!(cos_turns(3.0), 1.0);
    }

    #[test]
    fn const_sqrt_matches_the_instruction() {
        let xs = sweep(1e-3, 1e3, 200_000).chain((1..5_000).map(|i| i as f64 * 0.01));
        for x in xs.chain([f64::MIN_POSITIVE, 2.0, 0.5, 1e300, f64::MAX]) {
            assert_eq!(const_sqrt(x), x.sqrt(), "sqrt({x})");
        }
    }

    #[test]
    fn tables_hold_double_double_values() {
        // The exp table's midpoint is √2 and one ln table entry is
        // ln(1 + 1/256), each to double-double precision (40-digit
        // references).
        let (t_hi, tail) = EXP2_TABLE[64];
        assert_eq!(t_hi, std::f64::consts::SQRT_2);
        assert!((tail * t_hi - -9.667_293_313_452_913e-17).abs() < 1e-31);
        let (c, _, lc_hi, lc_lo) = LN_TABLE[80];
        assert_eq!(c, 1.0 + 1.0 / 256.0);
        assert_eq!(lc_hi, 0.003_898_640_415_657_323);
        assert!((lc_lo - 1.254_165_903_830_497_3e-19).abs() < 1e-33);
        // Every exp entry squares, in double-double, to the next even
        // one's value.
        for j in 0..TABLE / 2 {
            let t = (EXP2_TABLE[j].0, EXP2_TABLE[j].1 * EXP2_TABLE[j].0);
            let sq = dd_mul(t, t);
            let (hi, rel) = EXP2_TABLE[2 * j];
            assert!(((sq.0 - hi) + (sq.1 - hi * rel)).abs() < 1e-30, "entry {j}");
        }
    }

    #[test]
    fn ziggurat_layers_close_and_share_one_area() {
        for (zig, normal, r) in [(&ZIG_NORM, true, ZIG_NORM_R), (&ZIG_EXP, false, ZIG_EXP_R)] {
            let (x, f) = (&zig.x, &zig.f);
            assert_eq!(x[1], r);
            assert_eq!(x[ZIG_LAYERS], 0.0);
            assert_eq!(f[ZIG_LAYERS], 1.0);
            assert!(x.windows(2).all(|w| w[0] > w[1]), "edges fall");
            // Each layer i ≥ 1 is a rectangle x[i]·(f[i+1] − f[i]) of
            // the base layer's area v = x[0]·f[1]; the top one closes
            // at the mode, so the construction's R and v agree.
            let v = x[0] * f[1];
            for i in 1..ZIG_LAYERS {
                let area = x[i] * (f[i + 1] - f[i]);
                assert!((area / v - 1.0).abs() < 1e-9, "layer {i}: {area} vs {v}");
            }
            for i in 0..=ZIG_LAYERS {
                assert_eq!(f[i], density(normal, x[i]));
            }
        }
        // The common areas: Marsaglia & Tsang print v = 0.00492867323399
        // for the normal and 0.0039496598225815571993 for the
        // exponential; 40-digit arithmetic gives the normal's as
        // 0.0049286732339746553.
        assert!((ZIG_NORM.x[0] * ZIG_NORM.f[1] / 0.004_928_673_233_974_655 - 1.0).abs() < 1e-14);
        assert!((ZIG_EXP.x[0] * ZIG_EXP.f[1] / 0.003_949_659_822_581_557 - 1.0).abs() < 1e-14);
    }
}
