//! Floating-point unit semantics: IEEE arithmetic, flush-to-zero, and the
//! multi-function (special function) unit approximations.
//!
//! Two behaviours here drive the paper's findings:
//!
//! * **FTZ** (`--use_fast_math` item 1): subnormal inputs and outputs of
//!   FP32 ops are flushed to sign-preserving zero, which makes subnormal
//!   exceptions vanish under fast math (Table 6) — and can convert a
//!   subnormal *divisor* into a zero, surfacing a fresh DIV0/INF where a
//!   SUB used to be (the myocyte cascade of §4.4).
//! * **SFU approximation** (`--use_fast_math` items 2 and 4): `MUFU`
//!   results are "coarser" — we model this by computing the exact value and
//!   then discarding low mantissa bits. SFU ops always flush subnormals,
//!   regardless of the FTZ modifier, as on real hardware.

use fpx_sass::op::MufuFunc;

/// Flush an FP32 subnormal to a sign-preserving zero.
#[inline]
pub fn ftz32(x: f32) -> f32 {
    if x.is_subnormal() {
        if x.is_sign_negative() {
            -0.0
        } else {
            0.0
        }
    } else {
        x
    }
}

/// Apply FTZ to a value only when the instruction carries the `.FTZ`
/// modifier.
#[inline]
pub fn maybe_ftz32(x: f32, ftz: bool) -> f32 {
    if ftz {
        ftz32(x)
    } else {
        x
    }
}

/// Number of low mantissa bits the SFU discards relative to a correctly
/// rounded result. NVIDIA documents ~1–2 ulp error for `MUFU.RCP`; dropping
/// two bits reproduces that magnitude of degradation.
const SFU_DROP_BITS: u32 = 2;

/// Degrade a correctly rounded FP32 result to SFU precision.
///
/// The SFU datapath has no subnormal support at all, so the value is
/// flushed *before* truncation — even when the instruction carries no
/// `.FTZ` modifier (module doc, `--use_fast_math` item 2).
#[inline]
pub fn sfu_round(x: f32) -> f32 {
    let x = ftz32(x);
    if x.is_nan() || x.is_infinite() || x == 0.0 {
        return x;
    }
    f32::from_bits(x.to_bits() & !((1u32 << SFU_DROP_BITS) - 1))
}

/// FP32 add; FTZ applies to inputs and output when requested.
#[inline]
pub fn fadd(a: f32, b: f32, ftz: bool) -> f32 {
    maybe_ftz32(maybe_ftz32(a, ftz) + maybe_ftz32(b, ftz), ftz)
}

/// FP32 multiply.
#[inline]
pub fn fmul(a: f32, b: f32, ftz: bool) -> f32 {
    maybe_ftz32(maybe_ftz32(a, ftz) * maybe_ftz32(b, ftz), ftz)
}

/// FP32 fused multiply-add (single rounding).
#[inline]
pub fn ffma(a: f32, b: f32, c: f32, ftz: bool) -> f32 {
    let (a, b, c) = (
        maybe_ftz32(a, ftz),
        maybe_ftz32(b, ftz),
        maybe_ftz32(c, ftz),
    );
    maybe_ftz32(a.mul_add(b, c), ftz)
}

/// A float type with a single-rounding fused multiply-add.
pub trait Fused: Copy + Default {
    fn fused(self, b: Self, c: Self) -> Self;
    fn nan(self) -> bool;
}

macro_rules! fused {
    ($($t:ty),*) => {$(
        impl Fused for $t {
            #[inline]
            fn fused(self, b: $t, c: $t) -> $t {
                self.mul_add(b, c)
            }
            #[inline]
            fn nan(self) -> bool {
                self.is_nan()
            }
        }
    )*};
}
fused!(f32, f64);

/// Fused multiply-add over a warp row: lane `l` is `a[l]·b[l] + c[l]`
/// rounded once, bit-identical to `mul_add` per lane. On x86-64 hosts
/// with FMA the row runs through the hardware instruction instead of one
/// library call per lane. A finite or infinite result is fixed by IEEE
/// rounding either way; which input NaN an FMA propagates depends on the
/// instruction form, so NaN lanes are recomputed by `mul_add` itself.
#[inline]
pub fn mul_add_row<T: Fused>(a: &[T; 32], b: &[T; 32], c: &[T; 32]) -> [T; 32] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the FMA feature was detected at runtime just above.
        let mut out = unsafe { mul_add_row_fma(a, b, c) };
        if out.iter().fold(false, |any, o| any | o.nan()) {
            for (l, o) in out.iter_mut().enumerate() {
                if o.nan() {
                    *o = a[l].fused(b[l], c[l]);
                }
            }
        }
        return out;
    }
    mul_add_row_generic(a, b, c)
}

/// A plain loop (not `array::from_fn`'s closure) so that, inlined into
/// [`mul_add_row_fma`], every lane compiles to the FMA instruction.
#[inline(always)]
fn mul_add_row_generic<T: Fused>(a: &[T; 32], b: &[T; 32], c: &[T; 32]) -> [T; 32] {
    let mut out = [T::default(); 32];
    for (l, o) in out.iter_mut().enumerate() {
        *o = a[l].fused(b[l], c[l]);
    }
    out
}

/// # Safety
///
/// The host CPU must support FMA (`is_x86_feature_detected!("fma")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn mul_add_row_fma<T: Fused>(a: &[T; 32], b: &[T; 32], c: &[T; 32]) -> [T; 32] {
    mul_add_row_generic(a, b, c)
}

/// IEEE-754-2008 minNum: a single NaN input is *swallowed* — the numeric
/// operand wins. NVIDIA follows the 2008 standard (paper §1), which is why
/// `FMNMX` can make a NaN disappear mid-kernel.
#[inline]
pub fn min_2008(a: f64, b: f64) -> f64 {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => f64::NAN,
        (true, false) => b,
        (false, true) => a,
        (false, false) => {
            if a < b || (a == b && a.is_sign_negative()) {
                a
            } else {
                b
            }
        }
    }
}

/// IEEE-754-2008 maxNum (NaN-swallowing, like [`min_2008`]).
#[inline]
pub fn max_2008(a: f64, b: f64) -> f64 {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => f64::NAN,
        (true, false) => b,
        (false, true) => a,
        (false, false) => {
            if a > b || (a == b && b.is_sign_negative()) {
                a
            } else {
                b
            }
        }
    }
}

/// Evaluate a `MUFU` (SFU) operation on an FP32 input.
///
/// The SFU always flushes subnormal inputs/outputs and returns a degraded
/// approximation. `MUFU.RCP(0) = ±INF` and `MUFU.RSQ(x<0) = NaN`, which is
/// exactly what the detector's DIV0/NaN rules key on (Algorithm 1).
pub fn mufu32(func: MufuFunc, x: f32) -> f32 {
    let x = ftz32(x);
    let exact = match func {
        MufuFunc::Rcp | MufuFunc::Rcp64h => 1.0 / x,
        MufuFunc::Rsq | MufuFunc::Rsq64h => 1.0 / x.sqrt(),
        MufuFunc::Sin => x.sin(),
        MufuFunc::Cos => x.cos(),
        MufuFunc::Ex2 => x.exp2(),
        MufuFunc::Lg2 => x.log2(),
        MufuFunc::Sqrt => x.sqrt(),
    };
    sfu_round(ftz32(exact))
}

/// Evaluate an FP64-seed `MUFU` (`RCP64H`/`RSQ64H`): takes the *high word*
/// of an FP64 value, returns the *high word* of the approximate result.
///
/// On hardware the SFU only produces a ~20-bit seed; storing just the high
/// 32 bits of the f64 reciprocal models that truncation faithfully.
pub fn mufu64h(func: MufuFunc, hi: u32) -> u32 {
    let x = f64::from_bits((hi as u64) << 32);
    let exact = match func {
        MufuFunc::Rcp64h => 1.0 / x,
        MufuFunc::Rsq64h => 1.0 / x.sqrt(),
        // Other funcs never appear with 64H; treat as reciprocal.
        _ => 1.0 / x,
    };
    (exact.to_bits() >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUB32: f32 = 1e-40; // subnormal

    #[test]
    fn ftz_flushes_with_sign() {
        assert_eq!(ftz32(SUB32), 0.0);
        assert!(ftz32(-SUB32).is_sign_negative());
        assert_eq!(ftz32(-SUB32), 0.0);
        assert_eq!(ftz32(1.5), 1.5);
        assert!(ftz32(f32::NAN).is_nan());
    }

    #[test]
    fn fadd_ftz_kills_subnormal_results() {
        // Two tiny normals whose sum is subnormal.
        let a = f32::MIN_POSITIVE;
        let b = -f32::MIN_POSITIVE / 2.0;
        assert!((a + b).is_subnormal());
        assert!(!fadd(a, b, true).is_subnormal());
        assert!(fadd(a, b, false).is_subnormal());
    }

    #[test]
    fn ffma_is_fused() {
        // Choose values where fused and unfused differ.
        let a = 1.0f32 + f32::EPSILON;
        let b = 1.0f32 - f32::EPSILON;
        let c = -1.0f32;
        assert_eq!(ffma(a, b, c, false), a.mul_add(b, c));
        assert_ne!(ffma(a, b, c, false), a * b + c);
    }

    #[test]
    fn mufu_rcp_of_zero_is_inf() {
        assert_eq!(mufu32(MufuFunc::Rcp, 0.0), f32::INFINITY);
        assert_eq!(mufu32(MufuFunc::Rcp, -0.0), f32::NEG_INFINITY);
        // Subnormal divisor also flushes to zero → INF: the fast-math
        // SUB→DIV0 cascade of §4.4.
        assert_eq!(mufu32(MufuFunc::Rcp, SUB32), f32::INFINITY);
    }

    #[test]
    fn mufu_rsq_of_negative_is_nan() {
        assert!(mufu32(MufuFunc::Rsq, -4.0).is_nan());
        assert_eq!(mufu32(MufuFunc::Rsq, 0.0), f32::INFINITY);
    }

    #[test]
    fn mufu_rcp_is_close_but_coarse() {
        let x = 3.0f32;
        let r = mufu32(MufuFunc::Rcp, x);
        assert!((r - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn mufu64h_reciprocal_seed() {
        let x = 4.0f64;
        let hi = (x.to_bits() >> 32) as u32;
        let r_hi = mufu64h(MufuFunc::Rcp64h, hi);
        let seed = f64::from_bits((r_hi as u64) << 32);
        assert!((seed - 0.25).abs() < 1e-7, "seed {seed} too far from 0.25");
        // RCP64H of zero → INF high word.
        let inf_hi = mufu64h(MufuFunc::Rcp64h, 0);
        assert!(f64::from_bits((inf_hi as u64) << 32).is_infinite());
    }

    #[test]
    fn min_max_2008_swallow_single_nan() {
        assert_eq!(min_2008(f64::NAN, 2.0), 2.0);
        assert_eq!(max_2008(2.0, f64::NAN), 2.0);
        assert!(min_2008(f64::NAN, f64::NAN).is_nan());
        assert_eq!(min_2008(1.0, 2.0), 1.0);
        assert_eq!(max_2008(1.0, 2.0), 2.0);
        // Signed-zero ordering.
        assert!(min_2008(0.0, -0.0).is_sign_negative());
        assert!(!max_2008(0.0, -0.0).is_sign_negative());
    }

    #[test]
    fn sfu_round_preserves_specials() {
        assert!(sfu_round(f32::NAN).is_nan());
        assert_eq!(sfu_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(sfu_round(0.0), 0.0);
    }

    #[test]
    fn sfu_round_flushes_subnormals_without_ftz() {
        // Regression: `sfu_round` used to truncate mantissa bits of a
        // subnormal instead of flushing it, contradicting the module doc
        // ("SFU ops always flush subnormals, regardless of the FTZ
        // modifier"). The flush must be sign-preserving.
        assert_eq!(sfu_round(SUB32), 0.0);
        assert!(!sfu_round(SUB32).is_subnormal());
        assert_eq!(sfu_round(-SUB32), 0.0);
        assert!(sfu_round(-SUB32).is_sign_negative());
        // Normal values still only lose low mantissa bits.
        let r = sfu_round(1.0 / 3.0);
        assert!((r - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn mufu_rcp_subnormal_operand_flushes_even_without_ftz() {
        // A subnormal RCP operand must flush to zero on the SFU path —
        // there is no `.FTZ` modifier involved — so the reciprocal is
        // ±INF, the §4.4 SUB→DIV0 cascade.
        assert_eq!(mufu32(MufuFunc::Rcp, SUB32), f32::INFINITY);
        assert_eq!(mufu32(MufuFunc::Rcp, -SUB32), f32::NEG_INFINITY);
        // And a MUFU whose *exact result* is subnormal flushes too: pick
        // x huge so 1/x is subnormal.
        let big = 3.0e38f32;
        assert!((1.0 / big).is_subnormal());
        assert_eq!(mufu32(MufuFunc::Rcp, big), 0.0);
    }
}
