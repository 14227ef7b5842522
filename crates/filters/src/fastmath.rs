//! Photometric-weight evaluation and the lane primitives of the tap loop.
//!
//! The bilateral filter pays one `exp` per stencil tap for the photometric
//! weight `exp(-diff²/2σ_r²)`, and that `exp` is what the tap loop spends
//! most of its time on. This module owns that weight, behind an explicit
//! [`WeightMode`] knob:
//!
//! * [`WeightMode::Exact`] — `expf`, an in-repo port of glibc's `expf`
//!   that matches the host libm bit for bit (see below), so the exact mode
//!   is **bitwise-pinned**: the reference the layout-invariance and
//!   service tests assert against. It vectorizes like the other modes.
//! * [`WeightMode::Lut`] — the photometric Gaussian `exp(-u)` sampled on
//!   `u = diff² / 2σ_r²` over `[0, 16]` in 4096 bins with linear
//!   interpolation. Indexing the *exponent* rather than the intensity
//!   difference makes one global table serve every `σ_r`. Interpolation
//!   error is `≤ h²/8 ≈ 2e-6` (`h = 16/4096`, `|d²/du² e^{-u}| ≤ 1`) and
//!   the clamped tail contributes `≤ e^{-16} ≈ 1.1e-7`, so per-weight
//!   error is bounded by ~2.1e-6 — asserted by this module's tests and
//!   swept end-to-end by `tests/fastmath_oracle.rs`.
//! * [`WeightMode::FastExp`] — degree-5 polynomial `exp` (the classic
//!   Cephes/sse_mathfun reduction: split off the power of two, evaluate a
//!   minimax polynomial on the ~[-0.35, 0.35] remainder), relative error
//!   ~1e-7, no table traffic.
//!
//! [`SimdTier`] selects the lane width of the tap loop
//! (`crate::pencil_gather`): `Scalar` (1 lane) everywhere, `Sse2` (4) and
//! `Avx2` (8) on x86_64 behind `is_x86_feature_detected!` (no compile-time
//! features, no new dependencies — `core::arch` is std). The loop
//! vectorizes *across the voxels of a pencil*: lane `i` computes voxel
//! `a + i` with the scalar loop's exact sequence of f32 operations in
//! kernel tap order, so every tier gives the same bits in every mode.
//! `Lanes` is the per-tier primitive set that makes that true: each
//! method performs, per lane, exactly the scalar operation it is named
//! after, and the weight methods repeat `expf`, [`exp_neg_lut`] and
//! [`exp_neg_poly`] op for op.
//!
//! ## The `expf` port
//!
//! `expf` is glibc's `expf` (ARM optimized-routines): a 32-entry table
//! of `2^(i/32)` and a degree-3 polynomial, evaluated in `f64`. glibc ≥
//! 2.28 on an x86_64 host with FMA runs its FMA build, in which
//! `r = InvLn2N·x − kd` rounds once. Rust never contracts `a*b + c`, so
//! the port splits `InvLn2N = H + L`, with `H` keeping the top 29
//! significand bits: `H·x` and `L·x` are then exact (`x` has 24 bits), as
//! is `H·x − kd`, and only the final add rounds. Computing `r` as
//! `z − kd` instead rounds twice and differs from libm on two inputs.
//! The SSE2 (2×f64) and AVX2 (4×f64) lanes run the same operations, so
//! scalar, SSE2 and AVX2 agree bit for bit; the port equals libm on all
//! 2^32 inputs on such a host (the `#[ignore]` sweep in this module's
//! tests checks it).

use std::sync::OnceLock;

/// How the photometric (range) weight `exp(-diff²/2σ_r²)` is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightMode {
    /// `expf`, bit for bit the host libm — the bitwise-pinned reference.
    Exact,
    /// Interpolated lookup table over the quantized exponent.
    Lut,
    /// Degree-5 polynomial `exp` (no table traffic).
    FastExp,
}

/// Lane width of the tap loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// One lane, portable (the only tier off x86_64).
    Scalar,
    /// 4 lanes of SSE2 (baseline on every x86_64).
    Sse2,
    /// 8 lanes of AVX2.
    Avx2,
}

impl SimdTier {
    /// Parse a tier name (`scalar`/`sse2`/`avx2`), as accepted by the
    /// bench `--simd` flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(Self::Scalar),
            "sse2" => Some(Self::Sse2),
            "avx2" => Some(Self::Avx2),
            _ => None,
        }
    }

    /// Short label for bench JSON notes.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Sse2 => "sse2",
            Self::Avx2 => "avx2",
        }
    }
}

impl WeightMode {
    /// Parse a mode name (`exact`/`lut`/`fastexp`), as accepted by the
    /// bench `--weight` flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(Self::Exact),
            "lut" => Some(Self::Lut),
            "fastexp" => Some(Self::FastExp),
            _ => None,
        }
    }

    /// Short label for bench JSON notes.
    pub fn name(self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Lut => "lut",
            Self::FastExp => "fastexp",
        }
    }
}

/// The widest tier the running CPU supports.
pub fn detect_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
        // SSE2 is architectural on x86_64, but keep the runtime check so
        // the dispatch story is uniform.
        if std::arch::is_x86_feature_detected!("sse2") {
            return SimdTier::Sse2;
        }
    }
    SimdTier::Scalar
}

/// Weight-evaluation configuration carried by
/// [`FilterRun`](crate::FilterRun): a mode plus the tap-loop tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapConfig {
    /// Photometric weight evaluation.
    pub mode: WeightMode,
    /// Tap-loop lane width. Every tier gives the same bits in every mode;
    /// the tier only changes speed.
    pub tier: SimdTier,
}

impl TapConfig {
    /// The bitwise-pinned reference configuration: exact weights on the
    /// widest detected tier. This is the default everywhere outputs are
    /// contractually reproducible (the service, the layout-invariance
    /// tests).
    pub fn exact() -> Self {
        Self {
            mode: WeightMode::Exact,
            tier: detect_tier(),
        }
    }

    /// The fastest tolerance-bound configuration for this machine: LUT
    /// weights on the widest detected tier.
    pub fn fast() -> Self {
        Self {
            mode: WeightMode::Lut,
            tier: detect_tier(),
        }
    }

    /// `mode` on the widest detected tier.
    pub fn with_mode(mode: WeightMode) -> Self {
        Self {
            mode,
            tier: detect_tier(),
        }
    }

    /// Clamp the requested tier to what the CPU supports (a forced
    /// `--simd avx2` on a non-AVX2 machine silently degrades rather than
    /// faulting).
    pub fn clamped(mut self) -> Self {
        self.tier = self.tier.min(detect_tier());
        self
    }
}

impl Default for TapConfig {
    fn default() -> Self {
        Self::exact()
    }
}

// ---------------------------------------------------------------------------
// expf: glibc's algorithm, bit for bit
// ---------------------------------------------------------------------------

/// `T[i] = bits(2^(i/32)) − (i << 47)`: adding `k << 47` to entry
/// `k mod 32` yields the bits of `2^(k/32)`.
#[rustfmt::skip]
const EXP2F_T: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// [`INV_LN2_N`] with its low 24 significand bits cleared, so `H·x` is
/// exact for any `f32` `x`.
const INV_LN2_N_HI: f64 = f64::from_bits(0x4047154765000000);
/// `INV_LN2_N − INV_LN2_N_HI` (exact).
const INV_LN2_N_LO: f64 = INV_LN2_N - INV_LN2_N_HI;
/// `1.5·2^52`: adding it rounds to an integer held in the low bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338000000000000);
// Coefficients of the polynomial approximating `2^(r/32)` on |r| ≤ 1/2.
const EXP_C0: f64 = f64::from_bits(0x3ebc6af84b912394);
const EXP_C1: f64 = f64::from_bits(0x3f2ebfce50fac4f3);
const EXP_C2: f64 = f64::from_bits(0x3f962e42ff0c52d6);
/// `log(2^128)`: above it `expf` overflows to `+inf`.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b17217);
/// `log(2^-150)`: below it `expf` underflows to `+0`.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cff1b4);

/// `e^x`, bit for bit glibc's `expf` on a host with FMA (see the module
/// docs). Every `exp` the 3D bilateral filter evaluates — spatial and
/// photometric weights, the LUT entries — goes through this function or
/// its SIMD lanes.
#[inline]
pub(crate) fn expf(x: f32) -> f32 {
    // |x| >= 88, or x is NaN or infinite.
    if (x.to_bits() >> 20) & 0x7ff >= 0x42b {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if x.is_nan() || x == f32::INFINITY {
            return x + x;
        }
        if x > EXP_OVERFLOW {
            return f32::INFINITY;
        }
        if x < EXP_UNDERFLOW {
            return 0.0;
        }
    }
    let xd = f64::from(x);
    let kd = INV_LN2_N * xd + EXP_SHIFT;
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = (INV_LN2_N_HI * xd - kd) + INV_LN2_N_LO * xd;
    let s = f64::from_bits(EXP2F_T[(ki % 32) as usize].wrapping_add(ki << 47));
    let r2 = r * r;
    let y = (EXP_C0 * r + EXP_C1) * r2 + (EXP_C2 * r + 1.0);
    (y * s) as f32
}

// ---------------------------------------------------------------------------
// Photometric LUT
// ---------------------------------------------------------------------------

/// LUT bins over the exponent domain `[0, LUT_UMAX]`.
pub(crate) const LUT_LEN: usize = 4096;
/// Exponent clamp: `exp(-16) ≈ 1.1e-7` is below the interpolation error,
/// so larger exponents saturate to the last entry.
pub(crate) const LUT_UMAX: f32 = 16.0;
/// `u → bin` scale.
pub(crate) const LUT_SCALE: f32 = LUT_LEN as f32 / LUT_UMAX;

/// The global photometric table: `lut[i] = exp(-i / LUT_SCALE)`, one
/// extra entry so interpolation may read `i + 1` at the clamp.
pub(crate) fn lut() -> &'static [f32] {
    static LUT: OnceLock<Vec<f32>> = OnceLock::new();
    LUT.get_or_init(|| {
        (0..=LUT_LEN)
            .map(|i| expf(-(i as f32) / LUT_SCALE))
            .collect()
    })
}

/// `exp(-u)` for `u ≥ 0` via the interpolated table. `u` may be `+inf`
/// (huge intensity difference): it clamps to the tail. A NaN `u` clamps
/// to the tail too.
#[inline]
pub fn exp_neg_lut(u: f32) -> f32 {
    let t = lut();
    let s = (u * LUT_SCALE).min((LUT_LEN - 1) as f32);
    let i = s as usize; // truncation; s ∈ [0, LUT_LEN-1]
    let frac = s - i as f32;
    let a = t[i];
    let b = t[i + 1];
    a + (b - a) * frac
}

/// `exp(-u)` for `u ≥ 0` via the Cephes/sse_mathfun degree-5 polynomial.
/// Relative error ≤ ~2e-7 over the whole domain; underflows to 0 past the
/// f32 exponent range.
#[inline]
pub fn exp_neg_poly(u: f32) -> f32 {
    // Work on x = -u, clamped to the f32-representable range.
    let x = (-u).max(-87.336_54);
    // Split x = n·ln2 + r with n = round(x/ln2), r ∈ [-ln2/2, ln2/2],
    // using the Cody–Waite two-constant ln2 so r stays accurate.
    let fx = (x * std::f32::consts::LOG2_E + 0.5).floor();
    let r = x - fx * 0.693_359_4 - fx * -2.121_944_4e-4;
    let z = r * r;
    let mut y = 1.987_569_1e-4f32;
    y = y * r + 1.398_199_9e-3;
    y = y * r + 8.333_452e-3;
    y = y * r + 4.166_579_6e-2;
    y = y * r + 1.666_666_5e-1;
    y = y * r + 5.000_000_3e-1;
    let y = y * z + r + 1.0;
    // Scale by 2^n through the exponent bits.
    let n = fx as i32;
    let two_n = f32::from_bits(((n + 127) << 23) as u32);
    y * two_n
}

/// The photometric weight for intensity difference `diff` under `mode`.
#[inline]
pub(crate) fn photometric_weight(diff: f32, inv_2sr2: f32, mode: WeightMode) -> f32 {
    exp_neg(mode as u8, (diff * diff) * inv_2sr2)
}

/// `exp(-u)` under the weight mode numbered `mode` (`WeightMode as u8`).
#[inline(always)]
fn exp_neg(mode: u8, u: f32) -> f32 {
    match mode {
        EXACT => expf(-u),
        LUT => exp_neg_lut(u),
        _ => exp_neg_poly(u),
    }
}

/// [`WeightMode`]s as the `u8` const generic of the tap loop.
pub(crate) const EXACT: u8 = WeightMode::Exact as u8;
pub(crate) const LUT: u8 = WeightMode::Lut as u8;
pub(crate) const FAST_EXP: u8 = WeightMode::FastExp as u8;

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

/// `WIDTH` f32 lanes of the tap loop. Each method performs, per lane,
/// exactly the scalar f32 operation it is named after (IEEE add, sub,
/// mul and div round the same in every lane width), so lane `i` of a
/// vector computation produces the bits the [`Scalar`] implementation
/// produces for the same inputs.
///
/// The SIMD implementations are plain `#[inline(always)]` wrappers over
/// `core::arch` intrinsics; they are sound to call only inside a function
/// compiled with their tier's `#[target_feature]`, on a CPU that has it.
pub(crate) trait Lanes {
    /// Lane count.
    const WIDTH: usize;
    /// `WIDTH` f32 values.
    type V: Copy;
    /// A per-lane condition.
    type M: Copy;
    /// Per-lane event counters.
    type N: Copy;

    /// Load `WIDTH` values from `p`.
    ///
    /// # Safety
    /// `p..p + WIDTH` must be readable; the tier must be available.
    unsafe fn load(p: *const f32) -> Self::V;
    /// Store `WIDTH` values to `p`.
    ///
    /// # Safety
    /// `p..p + WIDTH` must be writable; the tier must be available.
    unsafe fn store(p: *mut f32, v: Self::V);
    /// `x` in every lane.
    ///
    /// # Safety
    /// The tier must be available (likewise for every method below).
    unsafe fn splat(x: f32) -> Self::V;
    /// `a + b`.
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    /// `a - b`.
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// `a * b`.
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// `a / b`.
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
    /// `v.is_nan()`.
    unsafe fn is_nan(v: Self::V) -> Self::M;
    /// `v > 0.0`.
    unsafe fn is_positive(v: Self::V) -> Self::M;
    /// `if m { a } else { b }`, bitwise.
    unsafe fn select(m: Self::M, a: Self::V, b: Self::V) -> Self::V;
    /// Counters at zero.
    unsafe fn no_events() -> Self::N;
    /// Count one event in every lane where `m` holds.
    unsafe fn count(n: Self::N, m: Self::M) -> Self::N;
    /// Sum of all lanes' counters.
    unsafe fn total(n: Self::N) -> u64;
    /// `exp(-u)` under the weight mode numbered `MODE`, for `u ≥ 0` or
    /// NaN (the photometric exponent is never negative).
    unsafe fn exp_neg<const MODE: u8>(u: Self::V) -> Self::V;
}

/// The one-lane tier: plain f32 arithmetic.
pub(crate) struct Scalar;

impl Lanes for Scalar {
    const WIDTH: usize = 1;
    type V = f32;
    type M = bool;
    type N = u64;

    #[inline(always)]
    unsafe fn load(p: *const f32) -> f32 {
        // SAFETY: the caller guarantees `p` is readable.
        unsafe { *p }
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: f32) {
        // SAFETY: the caller guarantees `p` is writable.
        unsafe { *p = v }
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> f32 {
        x
    }
    #[inline(always)]
    unsafe fn add(a: f32, b: f32) -> f32 {
        a + b
    }
    #[inline(always)]
    unsafe fn sub(a: f32, b: f32) -> f32 {
        a - b
    }
    #[inline(always)]
    unsafe fn mul(a: f32, b: f32) -> f32 {
        a * b
    }
    #[inline(always)]
    unsafe fn div(a: f32, b: f32) -> f32 {
        a / b
    }
    #[inline(always)]
    unsafe fn is_nan(v: f32) -> bool {
        v.is_nan()
    }
    #[inline(always)]
    unsafe fn is_positive(v: f32) -> bool {
        v > 0.0
    }
    #[inline(always)]
    unsafe fn select(m: bool, a: f32, b: f32) -> f32 {
        if m {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    unsafe fn no_events() -> u64 {
        0
    }
    #[inline(always)]
    unsafe fn count(n: u64, m: bool) -> u64 {
        n + u64::from(m)
    }
    #[inline(always)]
    unsafe fn total(n: u64) -> u64 {
        n
    }
    #[inline(always)]
    unsafe fn exp_neg<const MODE: u8>(u: f32) -> f32 {
        exp_neg(MODE, u)
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    //! The SSE2 (4-lane) and AVX2 (8-lane) [`Lanes`]. Every weight
    //! function repeats its scalar counterpart op for op; the `f64` part
    //! of [`expf`] runs two (SSE2) or four (AVX2) doubles per register.
    //! The table lookups are `vpgatherqq`/`vgatherdps` on AVX2 and lane
    //! extracts on SSE2. `min`/`max` take the constant as the second
    //! operand, so a NaN lane yields the constant exactly like
    //! `f32::min`/`f32::max`.

    use super::{
        exp_neg_lut, lut, Lanes, EXACT, EXP2F_T, EXP_C0, EXP_C1, EXP_C2, EXP_SHIFT, EXP_UNDERFLOW,
        INV_LN2_N, INV_LN2_N_HI, INV_LN2_N_LO, LUT, LUT_LEN, LUT_SCALE,
    };
    use std::arch::x86_64::*;

    /// 4 lanes of SSE2.
    pub(crate) struct Sse2;
    /// 8 lanes of AVX2.
    pub(crate) struct Avx2;

    // Cephes polynomial constants shared with `exp_neg_poly`.
    const POLY_MIN: f32 = -87.336_54;
    const POLY_C: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        5.000_000_3e-1,
    ];

    /// The `f64` core of [`super::expf`] on two doubles.
    #[inline(always)]
    unsafe fn exp_core_sse2(xd: __m128d) -> __m128d {
        let kd = _mm_add_pd(
            _mm_mul_pd(_mm_set1_pd(INV_LN2_N), xd),
            _mm_set1_pd(EXP_SHIFT),
        );
        let ki = _mm_castpd_si128(kd);
        let kd = _mm_sub_pd(kd, _mm_set1_pd(EXP_SHIFT));
        let r = _mm_add_pd(
            _mm_sub_pd(_mm_mul_pd(_mm_set1_pd(INV_LN2_N_HI), xd), kd),
            _mm_mul_pd(_mm_set1_pd(INV_LN2_N_LO), xd),
        );
        let lo = _mm_cvtsi128_si64(ki) as u64 % 32;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(ki, ki)) as u64 % 32;
        let t = _mm_set_epi64x(EXP2F_T[hi as usize] as i64, EXP2F_T[lo as usize] as i64);
        let s = _mm_castsi128_pd(_mm_add_epi64(t, _mm_slli_epi64::<47>(ki)));
        let r2 = _mm_mul_pd(r, r);
        let p = _mm_mul_pd(
            _mm_add_pd(_mm_mul_pd(_mm_set1_pd(EXP_C0), r), _mm_set1_pd(EXP_C1)),
            r2,
        );
        let q = _mm_add_pd(_mm_mul_pd(_mm_set1_pd(EXP_C2), r), _mm_set1_pd(1.0));
        _mm_mul_pd(_mm_add_pd(p, q), s)
    }

    /// [`super::expf`] on 4 lanes with `x ≤ 0` or NaN.
    #[inline(always)]
    pub(crate) unsafe fn expf_sse2(x: __m128) -> __m128 {
        let lo = _mm_cvtpd_ps(exp_core_sse2(_mm_cvtps_pd(x)));
        let hi = _mm_cvtpd_ps(exp_core_sse2(_mm_cvtps_pd(_mm_movehl_ps(x, x))));
        let y = _mm_movelh_ps(lo, hi);
        // Below log(2^-150) (and at -inf) the result is +0.
        _mm_andnot_ps(_mm_cmplt_ps(x, _mm_set1_ps(EXP_UNDERFLOW)), y)
    }

    /// The `f64` core of [`super::expf`] on four doubles.
    #[inline(always)]
    unsafe fn exp_core_avx2(xd: __m256d) -> __m256d {
        let kd = _mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(INV_LN2_N), xd),
            _mm256_set1_pd(EXP_SHIFT),
        );
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, _mm256_set1_pd(EXP_SHIFT));
        let r = _mm256_add_pd(
            _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(INV_LN2_N_HI), xd), kd),
            _mm256_mul_pd(_mm256_set1_pd(INV_LN2_N_LO), xd),
        );
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(EXP2F_T.as_ptr().cast(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let r2 = _mm256_mul_pd(r, r);
        let p = _mm256_mul_pd(
            _mm256_add_pd(
                _mm256_mul_pd(_mm256_set1_pd(EXP_C0), r),
                _mm256_set1_pd(EXP_C1),
            ),
            r2,
        );
        let q = _mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(EXP_C2), r),
            _mm256_set1_pd(1.0),
        );
        _mm256_mul_pd(_mm256_add_pd(p, q), s)
    }

    /// [`super::expf`] on 8 lanes with `x ≤ 0` or NaN.
    #[inline(always)]
    pub(crate) unsafe fn expf_avx2(x: __m256) -> __m256 {
        let lo = _mm256_cvtpd_ps(exp_core_avx2(_mm256_cvtps_pd(_mm256_castps256_ps128(x))));
        let hi = _mm256_cvtpd_ps(exp_core_avx2(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(
            x,
        ))));
        let y = _mm256_set_m128(hi, lo);
        // Below log(2^-150) (and at -inf) the result is +0.
        _mm256_andnot_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_UNDERFLOW)),
            y,
        )
    }

    impl Lanes for Sse2 {
        const WIDTH: usize = 4;
        type V = __m128;
        type M = __m128;
        type N = __m128i;

        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m128 {
            // SAFETY: the caller guarantees 4 readable floats at `p`.
            unsafe { _mm_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m128) {
            // SAFETY: the caller guarantees 4 writable floats at `p`.
            unsafe { _mm_storeu_ps(p, v) }
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m128 {
            _mm_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn add(a: __m128, b: __m128) -> __m128 {
            _mm_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m128, b: __m128) -> __m128 {
            _mm_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m128, b: __m128) -> __m128 {
            _mm_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn div(a: __m128, b: __m128) -> __m128 {
            _mm_div_ps(a, b)
        }
        #[inline(always)]
        unsafe fn is_nan(v: __m128) -> __m128 {
            _mm_cmpunord_ps(v, v)
        }
        #[inline(always)]
        unsafe fn is_positive(v: __m128) -> __m128 {
            _mm_cmpgt_ps(v, _mm_setzero_ps())
        }
        #[inline(always)]
        unsafe fn select(m: __m128, a: __m128, b: __m128) -> __m128 {
            _mm_or_ps(_mm_and_ps(m, a), _mm_andnot_ps(m, b))
        }
        #[inline(always)]
        unsafe fn no_events() -> __m128i {
            _mm_setzero_si128()
        }
        #[inline(always)]
        unsafe fn count(n: __m128i, m: __m128) -> __m128i {
            // A true lane is all ones, i.e. -1.
            _mm_sub_epi32(n, _mm_castps_si128(m))
        }
        #[inline(always)]
        unsafe fn total(n: __m128i) -> u64 {
            let mut lanes = [0i32; 4];
            // SAFETY: `lanes` holds 16 writable bytes.
            unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), n) };
            lanes.iter().map(|&c| c as u64).sum()
        }
        #[inline(always)]
        unsafe fn exp_neg<const MODE: u8>(u: __m128) -> __m128 {
            match MODE {
                EXACT => expf_sse2(_mm_xor_ps(u, _mm_set1_ps(-0.0))),
                LUT => {
                    // No gather below AVX2: look each lane up in turn.
                    let mut lanes = [0.0f32; 4];
                    // SAFETY: `lanes` holds 4 writable floats.
                    unsafe { _mm_storeu_ps(lanes.as_mut_ptr(), u) };
                    let lanes = lanes.map(exp_neg_lut);
                    // SAFETY: `lanes` holds 4 readable floats.
                    unsafe { _mm_loadu_ps(lanes.as_ptr()) }
                }
                _ => {
                    let x = _mm_max_ps(_mm_xor_ps(u, _mm_set1_ps(-0.0)), _mm_set1_ps(POLY_MIN));
                    let s = _mm_add_ps(
                        _mm_mul_ps(x, _mm_set1_ps(std::f32::consts::LOG2_E)),
                        _mm_set1_ps(0.5),
                    );
                    // floor(s) without SSE4.1: truncate, then subtract 1
                    // where truncation rounded up. `s` is never -0 here
                    // (`x·log2e + 0.5` cannot round to -0), so this is
                    // bitwise `f32::floor`.
                    let tr = _mm_cvtepi32_ps(_mm_cvttps_epi32(s));
                    let fx = _mm_sub_ps(tr, _mm_and_ps(_mm_cmpgt_ps(tr, s), _mm_set1_ps(1.0)));
                    let r = _mm_sub_ps(x, _mm_mul_ps(fx, _mm_set1_ps(0.693_359_4)));
                    let r = _mm_sub_ps(r, _mm_mul_ps(fx, _mm_set1_ps(-2.121_944_4e-4)));
                    let z = _mm_mul_ps(r, r);
                    let mut y = _mm_set1_ps(POLY_C[0]);
                    for &c in &POLY_C[1..] {
                        y = _mm_add_ps(_mm_mul_ps(y, r), _mm_set1_ps(c));
                    }
                    let y = _mm_add_ps(_mm_add_ps(_mm_mul_ps(y, z), r), _mm_set1_ps(1.0));
                    let n = _mm_cvttps_epi32(fx);
                    let two_n = _mm_castsi128_ps(_mm_slli_epi32::<23>(_mm_add_epi32(
                        n,
                        _mm_set1_epi32(127),
                    )));
                    _mm_mul_ps(y, two_n)
                }
            }
        }
    }

    impl Lanes for Avx2 {
        const WIDTH: usize = 8;
        type V = __m256;
        type M = __m256;
        type N = __m256i;

        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            // SAFETY: the caller guarantees 8 readable floats at `p`.
            unsafe { _mm256_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            // SAFETY: the caller guarantees 8 writable floats at `p`.
            unsafe { _mm256_storeu_ps(p, v) }
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256, b: __m256) -> __m256 {
            _mm256_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m256, b: __m256) -> __m256 {
            _mm256_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn div(a: __m256, b: __m256) -> __m256 {
            _mm256_div_ps(a, b)
        }
        #[inline(always)]
        unsafe fn is_nan(v: __m256) -> __m256 {
            _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)
        }
        #[inline(always)]
        unsafe fn is_positive(v: __m256) -> __m256 {
            _mm256_cmp_ps::<_CMP_GT_OQ>(v, _mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn select(m: __m256, a: __m256, b: __m256) -> __m256 {
            _mm256_blendv_ps(b, a, m)
        }
        #[inline(always)]
        unsafe fn no_events() -> __m256i {
            _mm256_setzero_si256()
        }
        #[inline(always)]
        unsafe fn count(n: __m256i, m: __m256) -> __m256i {
            // A true lane is all ones, i.e. -1.
            _mm256_sub_epi32(n, _mm256_castps_si256(m))
        }
        #[inline(always)]
        unsafe fn total(n: __m256i) -> u64 {
            let mut lanes = [0i32; 8];
            // SAFETY: `lanes` holds 32 writable bytes.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), n) };
            lanes.iter().map(|&c| c as u64).sum()
        }
        #[inline(always)]
        unsafe fn exp_neg<const MODE: u8>(u: __m256) -> __m256 {
            match MODE {
                EXACT => expf_avx2(_mm256_xor_ps(u, _mm256_set1_ps(-0.0))),
                LUT => {
                    let s = _mm256_min_ps(
                        _mm256_mul_ps(u, _mm256_set1_ps(LUT_SCALE)),
                        _mm256_set1_ps((LUT_LEN - 1) as f32),
                    );
                    let i = _mm256_cvttps_epi32(s);
                    let frac = _mm256_sub_ps(s, _mm256_cvtepi32_ps(i));
                    let t = lut().as_ptr();
                    // SAFETY: `i ∈ [0, LUT_LEN - 1]` (clamped above; a NaN
                    // lane takes the clamp), and the table has
                    // `LUT_LEN + 1` entries.
                    let (a, b) = unsafe {
                        (
                            _mm256_i32gather_ps::<4>(t, i),
                            _mm256_i32gather_ps::<4>(t, _mm256_add_epi32(i, _mm256_set1_epi32(1))),
                        )
                    };
                    _mm256_add_ps(a, _mm256_mul_ps(_mm256_sub_ps(b, a), frac))
                }
                _ => {
                    let x = _mm256_max_ps(
                        _mm256_xor_ps(u, _mm256_set1_ps(-0.0)),
                        _mm256_set1_ps(POLY_MIN),
                    );
                    let fx = _mm256_floor_ps(_mm256_add_ps(
                        _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
                        _mm256_set1_ps(0.5),
                    ));
                    let r = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(0.693_359_4)));
                    let r = _mm256_sub_ps(r, _mm256_mul_ps(fx, _mm256_set1_ps(-2.121_944_4e-4)));
                    let z = _mm256_mul_ps(r, r);
                    let mut y = _mm256_set1_ps(POLY_C[0]);
                    for &c in &POLY_C[1..] {
                        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(c));
                    }
                    let y =
                        _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), r), _mm256_set1_ps(1.0));
                    let n = _mm256_cvttps_epi32(fx);
                    let two_n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
                        n,
                        _mm256_set1_epi32(127),
                    )));
                    _mm256_mul_ps(y, two_n)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_matches_exp_within_bound() {
        // Dense sweep across the table domain plus the clamped tail.
        let mut max_err = 0.0f32;
        for i in 0..200_000 {
            let u = i as f32 * (LUT_UMAX * 1.5 / 200_000.0);
            let err = (exp_neg_lut(u) - (-u).exp()).abs();
            max_err = max_err.max(err);
        }
        assert!(max_err <= 2.5e-6, "LUT max abs error {max_err}");
        assert_eq!(exp_neg_lut(f32::INFINITY), lut()[LUT_LEN - 1]);
    }

    #[test]
    fn poly_matches_exp_within_bound() {
        let mut max_rel = 0.0f32;
        for i in 0..200_000 {
            let u = i as f32 * (40.0 / 200_000.0);
            let want = (-u).exp();
            let got = exp_neg_poly(u);
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel <= 5e-7, "poly max rel error {max_rel}");
        // Saturated inputs underflow cleanly instead of wrapping.
        assert!(exp_neg_poly(1e10) >= 0.0);
        assert!(exp_neg_poly(1e10) < 1e-30);
        assert!(exp_neg_poly(f32::INFINITY) < 1e-30);
    }

    #[test]
    fn exact_mode_uses_libm_exp() {
        for diff in [0.0f32, 0.01, -0.3, 2.5] {
            let inv = 1.0 / (2.0 * 0.1 * 0.1);
            let want = (-(diff * diff) * inv).exp();
            assert_eq!(
                photometric_weight(diff, inv, WeightMode::Exact).to_bits(),
                want.to_bits()
            );
        }
    }

    #[test]
    fn parse_roundtrips() {
        for m in [WeightMode::Exact, WeightMode::Lut, WeightMode::FastExp] {
            assert_eq!(WeightMode::parse(m.name()), Some(m));
        }
        for t in [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            assert_eq!(SimdTier::parse(t.name()), Some(t));
        }
        assert_eq!(WeightMode::parse("nope"), None);
        assert_eq!(SimdTier::parse(""), None);
    }

    #[test]
    fn clamped_never_exceeds_detected() {
        let cfg = TapConfig {
            mode: WeightMode::Lut,
            tier: SimdTier::Avx2,
        }
        .clamped();
        assert!(cfg.tier <= detect_tier());
        assert_eq!(TapConfig::exact().tier, detect_tier());
    }
}

/// The [`expf`] port against the host libm, and every SIMD tier against
/// the port.
///
/// The libm half is a property of the host: glibc ≥ 2.28 on x86_64 with
/// FMA, whose `expf` rounds `r` once. On other libms (or glibc's non-FMA
/// build, which rounds `r` twice) the port still equals glibc's FMA
/// result, but the comparison with `f32::exp` may fail on a few inputs.
/// The tier half holds everywhere.
#[cfg(test)]
mod expf_tests {
    use super::*;

    /// The two inputs on which a doubly rounded `r` differs from libm.
    const DOUBLE_ROUNDING: [u32; 2] = [0xc27c65d9, 0x4202422f];

    fn special_values() -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -88.0,
            -103.28,
            -103.97,
            88.72,
            EXP_OVERFLOW,
            EXP_UNDERFLOW,
        ];
        v.extend(DOUBLE_ROUNDING.map(f32::from_bits));
        v
    }

    /// Every 65521st bit pattern plus the special values.
    fn strided_set() -> Vec<f32> {
        let mut v: Vec<f32> = (0..=u32::MAX).step_by(65521).map(f32::from_bits).collect();
        v.extend(special_values());
        v
    }

    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `expf` through the lanes of `tier` (clamped to the host), for
    /// inputs `x ≤ 0` or NaN — the domain the tap loop feeds it. The
    /// scalar tier, and the remainder past the last whole vector, run the
    /// port itself.
    fn expf_tier(tier: SimdTier, xs: &[f32]) -> Vec<f32> {
        let mut out: Vec<f32> = xs.iter().map(|&x| expf(x)).collect();
        match tier.min(detect_tier()) {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => {
                #[target_feature(enable = "avx2")]
                unsafe fn run(xs: &[f32], out: &mut [f32]) {
                    use std::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};
                    for (x, o) in xs.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
                        // SAFETY: 8 floats on each side.
                        unsafe {
                            _mm256_storeu_ps(
                                o.as_mut_ptr(),
                                x86::expf_avx2(_mm256_loadu_ps(x.as_ptr())),
                            )
                        };
                    }
                }
                // SAFETY: the tier was clamped to the detected one.
                unsafe { run(xs, &mut out) };
            }
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => {
                use std::arch::x86_64::{_mm_loadu_ps, _mm_storeu_ps};
                for (x, o) in xs.chunks_exact(4).zip(out.chunks_exact_mut(4)) {
                    // SAFETY: 4 floats on each side; SSE2 is baseline on
                    // x86_64.
                    unsafe {
                        _mm_storeu_ps(o.as_mut_ptr(), x86::expf_sse2(_mm_loadu_ps(x.as_ptr())))
                    };
                }
            }
            _ => {}
        }
        out
    }

    /// Inputs of `xs` on which some tier differs from the port; only the
    /// `x ≤ 0` and NaN inputs count.
    fn tier_mismatches(xs: &[f32]) -> Vec<(SimdTier, f32)> {
        let xs: Vec<f32> = xs
            .iter()
            .copied()
            .filter(|x| x.is_nan() || *x <= 0.0)
            .collect();
        let want: Vec<f32> = xs.iter().map(|&x| expf(x)).collect();
        let mut bad = Vec::new();
        for tier in [SimdTier::Sse2, SimdTier::Avx2] {
            for ((x, got), want) in xs.iter().zip(expf_tier(tier, &xs)).zip(&want) {
                if !same(got, *want) {
                    bad.push((tier, *x));
                }
            }
        }
        bad
    }

    #[test]
    fn port_matches_libm_on_a_strided_sweep_and_special_values() {
        for x in strided_set() {
            assert!(
                same(expf(x), x.exp()),
                "expf({x:e} = {:#010x}) = {:e}, libm {:e}",
                x.to_bits(),
                expf(x),
                x.exp()
            );
        }
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(expf(-104.0).to_bits(), 0);
        assert_eq!(expf(89.0), f32::INFINITY);
        assert!(expf(f32::NAN).is_nan());
    }

    #[test]
    fn every_tier_matches_the_port_on_a_strided_sweep() {
        assert_eq!(tier_mismatches(&strided_set()), vec![]);
    }

    /// All 2^32 inputs against libm, then all `x ≤ 0` for each tier
    /// against the port. Release builds take well under a minute:
    /// `cargo test --release -p sfc-filters -- --ignored`.
    #[test]
    #[ignore]
    fn exhaustive_expf_sweep() {
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(4) as u64;
        let span = (1u64 << 32) / threads;
        let mismatches: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        (t * span..(t + 1) * span)
                            .filter(|&b| {
                                let x = f32::from_bits(b as u32);
                                !same(expf(x), x.exp())
                            })
                            .count() as u64
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("sweep worker"))
                .sum()
        });
        assert_eq!(
            mismatches, 0,
            "expf port differs from libm on {mismatches} inputs"
        );

        // x ≤ 0: +0 and the sign-bit half of the patterns (negative
        // values, -0, -inf, negative NaNs), in chunks.
        let chunk = 1u64 << 16;
        let bad: Vec<(SimdTier, f32)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut bad = tier_mismatches(&[0.0]);
                        let mut hi = (1u64 << 31) + t * chunk;
                        while hi < 1u64 << 32 {
                            let xs: Vec<f32> =
                                (hi..hi + chunk).map(|b| f32::from_bits(b as u32)).collect();
                            bad.extend(tier_mismatches(&xs));
                            hi += threads * chunk;
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sweep worker"))
                .collect()
        });
        assert!(
            bad.is_empty(),
            "tiers differ from the port on {} inputs, first {:?}",
            bad.len(),
            bad.first()
        );
    }
}
