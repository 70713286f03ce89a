//! IEEE 754 arithmetic by pure bit manipulation.
//!
//! Each operation reduces its exact result to `(sign, sig, exp)` with at
//! most a sticky LSB and hands it to [`round_pack`] — the single rounding
//! site. NaN propagation, signed zeros, infinities and the invalid cases
//! follow IEEE 754-2008 §6 and §7.

use crate::flags::Flags;
use crate::format::{FloatFormat, Rounding};
use crate::round::{round_pack, shift_right_sticky};
use crate::value::SoftFloat;
use crate::FloatClass;

/// A value together with the exception flags its computation raised.
pub(crate) type WithFlags = (SoftFloat, Flags);

// `add`/`sub`/`mul`/`div` mirror the softfloat naming convention; the std
// ops traits are unsuitable because operand formats must match at runtime
// (they panic on mismatch) and the flag-returning variants are primary.
#[expect(
    clippy::should_implement_trait,
    reason = "operand formats must match at runtime; see above"
)]
impl SoftFloat {
    /// The zero returned for an exact cancellation `x + (-x)`, `x != 0`:
    /// +0 in every rounding attribute except roundTowardNegative (-0),
    /// per IEEE 754-2008 §6.3.
    fn cancellation_zero(fmt: FloatFormat) -> Self {
        let sign = fmt.rounding() == Rounding::TowardNegative;
        Self::from_bits(u64::from(sign) << fmt.sign_shift(), fmt)
    }

    /// Addition with round-to-nearest-even, returning exception flags.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn add_with_flags(self, rhs: Self) -> (Self, Flags) {
        assert_eq!(self.format(), rhs.format(), "mixed-format add");
        let fmt = self.format();
        let (a, b) = (self.apply_ftz(), rhs.apply_ftz());

        if let Some(out) = nan_2op(a, b) {
            return out;
        }
        match (a.class(), b.class()) {
            (FloatClass::Infinite, FloatClass::Infinite) => {
                if a.sign() != b.sign() {
                    return (Self::quiet_nan(fmt), Flags::INVALID);
                }
                return (a, Flags::NONE);
            }
            (FloatClass::Infinite, _) => return (a, Flags::NONE),
            (_, FloatClass::Infinite) => return (b, Flags::NONE),
            _ => {}
        }
        if a.is_zero() && b.is_zero() {
            // IEEE 754 §6.3: equal signs keep the sign; opposite signs give
            // +0, except roundTowardNegative where the zero sum is -0.
            let sign = if a.sign() == b.sign() {
                a.sign()
            } else {
                fmt.rounding() == Rounding::TowardNegative
            };
            return (
                Self::from_bits(u64::from(sign) << fmt.sign_shift(), fmt),
                Flags::NONE,
            );
        }

        let ua = a.unpack();
        let ub = b.unpack();
        // Order so that ua has the larger exponent.
        let (hi, lo) = if ua.exp >= ub.exp { (ua, ub) } else { (ub, ua) };
        let diff = (hi.exp - lo.exp) as u32;
        // Give the high operand 3 extra bits of room, then sticky-align the
        // low one to the same LSB weight.
        let grs = 3u32;
        let hi_sig = (hi.sig as u128) << grs;
        let lo_sig = if diff >= grs {
            shift_right_sticky((lo.sig as u128) << grs, diff)
        } else {
            ((lo.sig as u128) << grs) >> diff
        };
        let exp = hi.exp - grs as i32;

        let va = if hi.sign {
            -(hi_sig as i128)
        } else {
            hi_sig as i128
        };
        let vb = if lo.sign {
            -(lo_sig as i128)
        } else {
            lo_sig as i128
        };
        let sum = va + vb;
        if sum == 0 {
            // IEEE 754 §6.3: exact cancellation x + (-x) is +0 in every
            // attribute except roundTowardNegative, where it is -0.
            return (Self::cancellation_zero(fmt), Flags::NONE);
        }
        let sign = sum < 0;
        let out = round_pack(sign, sum.unsigned_abs(), exp, fmt);
        (Self::from_bits(out.bits, fmt).apply_ftz(), out.flags)
    }

    /// Subtraction (`self - rhs`), returning exception flags.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn sub_with_flags(self, rhs: Self) -> (Self, Flags) {
        self.add_with_flags(rhs.neg())
    }

    /// Multiplication with round-to-nearest-even, returning exception flags.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn mul_with_flags(self, rhs: Self) -> (Self, Flags) {
        assert_eq!(self.format(), rhs.format(), "mixed-format mul");
        let fmt = self.format();
        let (a, b) = (self.apply_ftz(), rhs.apply_ftz());

        if let Some(out) = nan_2op(a, b) {
            return out;
        }
        let sign = a.sign() ^ b.sign();
        match (a.class(), b.class()) {
            (FloatClass::Infinite, FloatClass::Zero) | (FloatClass::Zero, FloatClass::Infinite) => {
                return (Self::quiet_nan(fmt), Flags::INVALID);
            }
            (FloatClass::Infinite, _) | (_, FloatClass::Infinite) => {
                return (Self::infinity(sign, fmt), Flags::NONE);
            }
            (FloatClass::Zero, _) | (_, FloatClass::Zero) => {
                return (
                    Self::from_bits(u64::from(sign) << fmt.sign_shift(), fmt),
                    Flags::NONE,
                );
            }
            _ => {}
        }
        let ua = a.unpack();
        let ub = b.unpack();
        let prod = ua.sig as u128 * ub.sig as u128; // exact, <= 2^106
        let out = round_pack(sign, prod, ua.exp + ub.exp, fmt);
        (Self::from_bits(out.bits, fmt).apply_ftz(), out.flags)
    }

    /// Division with round-to-nearest-even, returning exception flags.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn div_with_flags(self, rhs: Self) -> (Self, Flags) {
        assert_eq!(self.format(), rhs.format(), "mixed-format div");
        let fmt = self.format();
        let (a, b) = (self.apply_ftz(), rhs.apply_ftz());

        if let Some(out) = nan_2op(a, b) {
            return out;
        }
        let sign = a.sign() ^ b.sign();
        match (a.class(), b.class()) {
            (FloatClass::Infinite, FloatClass::Infinite) | (FloatClass::Zero, FloatClass::Zero) => {
                return (Self::quiet_nan(fmt), Flags::INVALID);
            }
            (FloatClass::Infinite, _) => return (Self::infinity(sign, fmt), Flags::NONE),
            (_, FloatClass::Infinite) | (FloatClass::Zero, _) => {
                return (
                    Self::from_bits(u64::from(sign) << fmt.sign_shift(), fmt),
                    Flags::NONE,
                );
            }
            (_, FloatClass::Zero) => {
                return (Self::infinity(sign, fmt), Flags::DIV_BY_ZERO);
            }
            _ => {}
        }
        let mut ua = a.unpack();
        let mut ub = b.unpack();
        // Normalize both significands to put their MSB at bit `frac_bits`
        // (subnormal significands are shorter, which would otherwise leave
        // the quotient with too few bits above the rounding point).
        for u in [&mut ua, &mut ub] {
            let msb = 63 - u.sig.leading_zeros();
            let up = fmt.frac_bits().saturating_sub(msb);
            u.sig <<= up;
            u.exp -= up as i32;
        }
        // Quotient with frac_bits + 4 extra result bits; remainder folds
        // into a sticky LSB.
        let extra = fmt.frac_bits() + 4;
        let num = (ua.sig as u128) << extra;
        let q = num / ub.sig as u128;
        let r = num % ub.sig as u128;
        let sig = q | u128::from(r != 0);
        let out = round_pack(sign, sig, ua.exp - ub.exp - extra as i32, fmt);
        (Self::from_bits(out.bits, fmt).apply_ftz(), out.flags)
    }

    /// Square root with round-to-nearest-even, returning exception flags.
    #[must_use]
    pub fn sqrt_with_flags(self) -> (Self, Flags) {
        let fmt = self.format();
        let a = self.apply_ftz();
        match a.class() {
            FloatClass::Nan => {
                let f = if a.is_signaling_nan() {
                    Flags::INVALID
                } else {
                    Flags::NONE
                };
                return (Self::quiet_nan(fmt), f);
            }
            FloatClass::Zero => return (a, Flags::NONE), // sqrt(-0) = -0
            FloatClass::Infinite => {
                return if a.sign() {
                    (Self::quiet_nan(fmt), Flags::INVALID)
                } else {
                    (a, Flags::NONE)
                };
            }
            _ => {}
        }
        if a.sign() {
            return (Self::quiet_nan(fmt), Flags::INVALID);
        }
        let u = a.unpack();
        let mut sig = u.sig as u128;
        let mut exp = u.exp;
        // Make the exponent even so sqrt(2^exp) is a power of two.
        if exp & 1 != 0 {
            sig <<= 1;
            exp -= 1;
        }
        // Left-shift by 2t so the integer sqrt has at least frac_bits + 4
        // bits; cap t so the shifted significand stays within u128.
        let t = (fmt.frac_bits() + 5).min((124 - fmt.frac_bits()) / 2);
        sig <<= 2 * t;
        exp -= 2 * t as i32;
        let root = isqrt_u128(sig);
        let sticky = u128::from(root * root != sig);
        let out = round_pack(false, root | sticky, exp / 2, fmt);
        (Self::from_bits(out.bits, fmt).apply_ftz(), out.flags)
    }

    /// Addition (flags discarded). See [`Self::add_with_flags`].
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn add(self, rhs: Self) -> Self {
        self.add_with_flags(rhs).0
    }

    /// Subtraction (flags discarded). See [`Self::sub_with_flags`].
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn sub(self, rhs: Self) -> Self {
        self.sub_with_flags(rhs).0
    }

    /// Multiplication (flags discarded). See [`Self::mul_with_flags`].
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn mul(self, rhs: Self) -> Self {
        self.mul_with_flags(rhs).0
    }

    /// Division (flags discarded). See [`Self::div_with_flags`].
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn div(self, rhs: Self) -> Self {
        self.div_with_flags(rhs).0
    }

    /// Square root (flags discarded). See [`Self::sqrt_with_flags`].
    #[must_use]
    pub fn sqrt(self) -> Self {
        self.sqrt_with_flags().0
    }

    /// Fused multiply-add `self * b + c` with a single rounding — the
    /// operator §II notes became the FPU workhorse "at the turn of the
    /// century".
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn fma_with_flags(self, b: Self, c: Self) -> (Self, Flags) {
        assert_eq!(self.format(), b.format(), "mixed-format fma");
        assert_eq!(self.format(), c.format(), "mixed-format fma");
        let fmt = self.format();
        let (a, b, c) = (self.apply_ftz(), b.apply_ftz(), c.apply_ftz());

        if a.is_nan() || b.is_nan() || c.is_nan() {
            let signaling = a.is_signaling_nan() || b.is_signaling_nan() || c.is_signaling_nan();
            let f = if signaling {
                Flags::INVALID
            } else {
                Flags::NONE
            };
            return (Self::quiet_nan(fmt), f);
        }
        // Infinite product or addend cases.
        let psign = a.sign() ^ b.sign();
        let p_inf = a.is_infinite() || b.is_infinite();
        if (a.is_infinite() && b.is_zero()) || (a.is_zero() && b.is_infinite()) {
            return (Self::quiet_nan(fmt), Flags::INVALID);
        }
        if p_inf {
            if c.is_infinite() && c.sign() != psign {
                return (Self::quiet_nan(fmt), Flags::INVALID);
            }
            return (Self::infinity(psign, fmt), Flags::NONE);
        }
        if c.is_infinite() {
            return (c, Flags::NONE);
        }
        if a.is_zero() || b.is_zero() {
            // Exact product is (signed) zero; defer to add semantics.
            let pz = Self::from_bits(u64::from(psign) << fmt.sign_shift(), fmt);
            return pz.add_with_flags(c);
        }
        let ua = a.unpack();
        let ub = b.unpack();
        let prod = ua.sig as u128 * ub.sig as u128;
        let pexp = ua.exp + ub.exp;
        if c.is_zero() {
            let out = round_pack(psign, prod, pexp, fmt);
            return (Self::from_bits(out.bits, fmt).apply_ftz(), out.flags);
        }
        let uc = c.unpack();
        // The exact-alignment window below only covers every cancellation
        // case when 3*frac_bits + 5 <= 127.
        assert!(
            fmt.frac_bits() <= 40,
            "fma supports formats up to 40 fraction bits"
        );
        // Order by LSB exponent; `hi` has the larger LSB weight.
        let (hi_sig, hi_exp, hi_sign, lo_sig, lo_exp, lo_sign) = if pexp >= uc.exp {
            (prod, pexp, psign, uc.sig as u128, uc.exp, uc.sign)
        } else {
            (uc.sig as u128, uc.exp, uc.sign, prod, pexp, psign)
        };
        let diff = (hi_exp - lo_exp) as u32;
        let hi_bits = 128 - hi_sig.leading_zeros();
        let (sum_sign, sum_sig, sum_exp);
        if hi_bits + diff <= 126 {
            // Exact alignment: both operands coexist in i128 at lo_exp.
            let va = hi_sig << diff;
            let a = if hi_sign { -(va as i128) } else { va as i128 };
            let b = if lo_sign {
                -(lo_sig as i128)
            } else {
                lo_sig as i128
            };
            let sum = a + b;
            if sum == 0 {
                // Same §6.3 rule as addition: exact cancellation takes the
                // attribute-dependent zero sign.
                return (Self::cancellation_zero(fmt), Flags::NONE);
            }
            sum_sign = sum < 0;
            sum_sig = sum.unsigned_abs();
            sum_exp = lo_exp;
        } else {
            // `lo` lies entirely below `hi`'s LSB (diff exceeds lo's width),
            // so no multi-bit cancellation is possible and the classic
            // guard/round/sticky alignment is exact enough: keep 3 extra
            // bits on `hi` and sticky-collapse `lo` into them.
            debug_assert!((lo_sig >> diff.min(127)) == 0, "lo must sit below hi's lsb");
            let hi3 = hi_sig << 3;
            let lo3 = shift_right_sticky(lo_sig << 3, diff);
            let a = if hi_sign { -(hi3 as i128) } else { hi3 as i128 };
            let b = if lo_sign { -(lo3 as i128) } else { lo3 as i128 };
            let sum = a + b;
            debug_assert!(sum != 0, "no cancellation to zero without overlap");
            sum_sign = sum < 0;
            sum_sig = sum.unsigned_abs();
            sum_exp = hi_exp - 3;
        }
        let out = round_pack(sum_sign, sum_sig, sum_exp, fmt);
        (Self::from_bits(out.bits, fmt).apply_ftz(), out.flags)
    }

    /// Fused multiply-add (flags discarded). See [`Self::fma_with_flags`].
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn fma(self, b: Self, c: Self) -> Self {
        self.fma_with_flags(b, c).0
    }
}

/// Common NaN handling for two-operand operations.
fn nan_2op(a: SoftFloat, b: SoftFloat) -> Option<WithFlags> {
    if a.is_nan() || b.is_nan() {
        let signaling = a.is_signaling_nan() || b.is_signaling_nan();
        let flags = if signaling {
            Flags::INVALID
        } else {
            Flags::NONE
        };
        Some((SoftFloat::quiet_nan(a.format()), flags))
    } else {
        None
    }
}

/// Integer square root (floor) of a `u128` by binary search on bits.
fn isqrt_u128(n: u128) -> u128 {
    if n == 0 {
        return 0;
    }
    let mut r: u128 = 0;
    let mut bit = 1u128 << ((127 - n.leading_zeros()) & !1);
    let mut n = n;
    while bit != 0 {
        if n >= r + bit {
            n -= r + bit;
            r = (r >> 1) + bit;
        } else {
            r >>= 1;
        }
        bit >>= 2;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;

    const F16: FloatFormat = FloatFormat::BINARY16;
    const F32F: FloatFormat = FloatFormat::BINARY32;

    fn f16(x: f64) -> SoftFloat {
        SoftFloat::from_f64(x, F16)
    }

    #[test]
    fn isqrt_small_values() {
        for n in 0u128..1000 {
            let r = isqrt_u128(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "n = {n}");
        }
        let big = u128::MAX;
        let r = isqrt_u128(big);
        assert!(r * r <= big);
        assert!(r
            .checked_add(1)
            .is_none_or(|r1| r1.checked_mul(r1).is_none_or(|sq| sq > big)));
    }

    #[test]
    fn add_basic() {
        assert_eq!(f16(1.5).add(f16(2.25)).to_f64(), 3.75);
        assert_eq!(f16(-1.5).add(f16(1.5)).to_f64(), 0.0);
        assert!(!f16(-1.5).add(f16(1.5)).sign(), "exact cancel is +0");
    }

    #[test]
    fn add_inf_and_nan_rules() {
        let inf = SoftFloat::infinity(false, F16);
        let ninf = SoftFloat::infinity(true, F16);
        let (r, fl) = inf.add_with_flags(ninf);
        assert!(r.is_nan());
        assert!(fl.contains(Flags::INVALID));
        assert!(inf.add(f16(1.0)).is_infinite());
        assert!(SoftFloat::quiet_nan(F16).add(f16(1.0)).is_nan());
    }

    #[test]
    fn signed_zero_addition() {
        let pz = f16(0.0);
        let nz = pz.neg();
        assert!(!pz.add(nz).sign(), "+0 + -0 = +0");
        assert!(nz.add(nz).sign(), "-0 + -0 = -0");
    }

    #[test]
    fn mul_special_cases() {
        let inf = SoftFloat::infinity(false, F16);
        let (r, fl) = inf.mul_with_flags(f16(0.0));
        assert!(r.is_nan());
        assert!(fl.contains(Flags::INVALID));
        assert!(f16(-2.0).mul(f16(0.0)).sign(), "-2 * +0 = -0");
        assert!(inf.mul(f16(-3.0)).sign());
    }

    #[test]
    fn div_rules() {
        let (r, fl) = f16(1.0).div_with_flags(f16(0.0));
        assert!(r.is_infinite());
        assert!(fl.contains(Flags::DIV_BY_ZERO));
        let (r, fl) = f16(0.0).div_with_flags(f16(0.0));
        assert!(r.is_nan());
        assert!(fl.contains(Flags::INVALID));
        assert_eq!(f16(1.0).div(f16(4.0)).to_f64(), 0.25);
    }

    #[test]
    fn sqrt_rules() {
        assert_eq!(f16(9.0).sqrt().to_f64(), 3.0);
        assert_eq!(f16(2.0).sqrt().to_f64(), {
            // Correctly rounded sqrt(2) in binary16.
            let exact = 2.0f64.sqrt();
            SoftFloat::from_f64(exact, F16).to_f64()
        });
        let (r, fl) = f16(-1.0).sqrt_with_flags();
        assert!(r.is_nan());
        assert!(fl.contains(Flags::INVALID));
        let nz = f16(0.0).neg();
        assert!(nz.sqrt().is_zero());
        assert!(nz.sqrt().sign(), "sqrt(-0) = -0");
    }

    #[test]
    fn gradual_underflow_flags() {
        // min_normal / 2 is subnormal and exact -> no underflow flag (exact).
        let mn = SoftFloat::from_bits(0x0400, F16);
        let (half, fl) = mn.mul_with_flags(f16(0.5));
        assert!(half.is_subnormal());
        assert!(
            fl.is_empty(),
            "exact subnormal result raises nothing, got {fl}"
        );
        // Inexact tiny result raises underflow.
        let tiny = SoftFloat::from_bits(0x0001, F16);
        let (_, fl) = tiny.mul_with_flags(f16(0.75));
        assert!(fl.contains(Flags::UNDERFLOW | Flags::INEXACT));
    }

    #[test]
    fn overflow_flag_and_saturation_to_inf() {
        let big = f16(65504.0);
        let (r, fl) = big.mul_with_flags(f16(2.0));
        assert!(r.is_infinite());
        assert!(fl.contains(Flags::OVERFLOW | Flags::INEXACT));
    }

    /// Oracle: compute in f64 and round once. Valid because every supported
    /// format satisfies p2 >= 2*p1 + 2 against f64, making double rounding
    /// innocuous for +, -, *, /, sqrt.
    fn oracle2(op: impl Fn(f64, f64) -> f64, a: SoftFloat, b: SoftFloat) -> SoftFloat {
        SoftFloat::from_f64(op(a.to_f64(), b.to_f64()), a.format())
    }

    #[test]
    fn f16_add_matches_oracle_on_dense_sample() {
        // Stride through all encodings pairwise with a coprime stride.
        let mut a_bits = 0u64;
        for i in 0..20000u64 {
            a_bits = (a_bits + 37) & 0xFFFF;
            let b_bits = (i * 12347) & 0xFFFF;
            let a = SoftFloat::from_bits(a_bits, F16);
            let b = SoftFloat::from_bits(b_bits, F16);
            if a.is_nan() || b.is_nan() {
                continue;
            }
            let got = a.add(b);
            let want = oracle2(|x, y| x + y, a, b);
            assert_eq!(
                got.bits(),
                want.bits(),
                "add 0x{a_bits:04x} + 0x{b_bits:04x}: got {} want {}",
                got.to_f64(),
                want.to_f64()
            );
        }
    }

    #[test]
    fn f16_mul_matches_oracle_on_dense_sample() {
        let mut a_bits = 0u64;
        for i in 0..20000u64 {
            a_bits = (a_bits + 41) & 0xFFFF;
            let b_bits = (i * 9973) & 0xFFFF;
            let a = SoftFloat::from_bits(a_bits, F16);
            let b = SoftFloat::from_bits(b_bits, F16);
            if a.is_nan() || b.is_nan() {
                continue;
            }
            let got = a.mul(b);
            let want = oracle2(|x, y| x * y, a, b);
            assert_eq!(
                got.bits(),
                want.bits(),
                "mul 0x{a_bits:04x} * 0x{b_bits:04x}"
            );
        }
    }

    #[test]
    fn f16_div_matches_oracle_on_dense_sample() {
        let mut a_bits = 0u64;
        for i in 0..20000u64 {
            a_bits = (a_bits + 43) & 0xFFFF;
            let b_bits = (i * 7919) & 0xFFFF;
            let a = SoftFloat::from_bits(a_bits, F16);
            let b = SoftFloat::from_bits(b_bits, F16);
            if a.is_nan() || b.is_nan() || b.is_zero() {
                continue;
            }
            let got = a.div(b);
            let want = oracle2(|x, y| x / y, a, b);
            assert_eq!(
                got.bits(),
                want.bits(),
                "div 0x{a_bits:04x} / 0x{b_bits:04x}"
            );
        }
    }

    #[test]
    fn f16_sqrt_matches_oracle_exhaustively() {
        for bits in 0..=0x7C00u64 {
            let a = SoftFloat::from_bits(bits, F16);
            if a.is_nan() {
                continue;
            }
            let got = a.sqrt();
            let want = SoftFloat::from_f64(a.to_f64().sqrt(), F16);
            assert_eq!(got.bits(), want.bits(), "sqrt 0x{bits:04x}");
        }
    }

    #[test]
    fn f32_ops_match_host_on_random_sample() {
        // xorshift for reproducible pseudo-random 32-bit patterns.
        let mut s = 0x12345678u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 0xFFFF_FFFF
        };
        for _ in 0..20000 {
            let ab = next();
            let bb = next();
            let a = SoftFloat::from_bits(ab, F32F);
            let b = SoftFloat::from_bits(bb, F32F);
            let (ha, hb) = (f32::from_bits(ab as u32), f32::from_bits(bb as u32));
            if a.is_nan() || b.is_nan() {
                continue;
            }
            assert_eq!(a.add(b).bits(), (ha + hb).to_bits() as u64, "add {ha} {hb}");
            assert_eq!(a.mul(b).bits(), (ha * hb).to_bits() as u64, "mul {ha} {hb}");
            if !b.is_zero() {
                assert_eq!(a.div(b).bits(), (ha / hb).to_bits() as u64, "div {ha} {hb}");
            }
        }
    }

    #[test]
    fn fma_single_rounding_beats_two_roundings() {
        // Construct a case where mul-then-add double rounding differs:
        // classic: a*b barely above a representable midpoint.
        // Search a small space for a witness to make the test robust.
        let mut found = false;
        'outer: for ai in 0x3C00u64..0x3D00 {
            for bi in (0x3C01u64..0x3E00).step_by(7) {
                let a = SoftFloat::from_bits(ai, F16);
                let b = SoftFloat::from_bits(bi, F16);
                let c = a.mul(b).neg();
                let fused = a.fma(b, c);
                let unfused = a.mul(b).add(c);
                // unfused is exactly zero; fused keeps the rounding residue.
                if !fused.is_zero() && unfused.is_zero() {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "fma must expose the exact product residue");
    }

    #[test]
    fn fma_matches_host_f32_on_random_sample() {
        let mut s = 0x9E3779B9u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 0xFFFF_FFFF
        };
        for _ in 0..5000 {
            let (ab, bb, cb) = (next(), next(), next());
            let a = SoftFloat::from_bits(ab, F32F);
            let b = SoftFloat::from_bits(bb, F32F);
            let c = SoftFloat::from_bits(cb, F32F);
            if a.is_nan() || b.is_nan() || c.is_nan() {
                continue;
            }
            let host = f32::from_bits(ab as u32)
                .mul_add(f32::from_bits(bb as u32), f32::from_bits(cb as u32));
            let got = a.fma(b, c);
            if host.is_nan() {
                assert!(got.is_nan());
            } else {
                assert_eq!(
                    got.bits(),
                    host.to_bits() as u64,
                    "fma a=0x{ab:08x} b=0x{bb:08x} c=0x{cb:08x}"
                );
            }
        }
    }
}

impl std::ops::Add for SoftFloat {
    type Output = SoftFloat;
    /// IEEE addition under the format's rounding attribute — see
    /// [`SoftFloat::add`].
    fn add(self, rhs: Self) -> Self {
        SoftFloat::add(self, rhs)
    }
}

impl std::ops::Sub for SoftFloat {
    type Output = SoftFloat;
    /// IEEE subtraction — see [`SoftFloat::sub`].
    fn sub(self, rhs: Self) -> Self {
        SoftFloat::sub(self, rhs)
    }
}

impl std::ops::Mul for SoftFloat {
    type Output = SoftFloat;
    /// IEEE multiplication — see [`SoftFloat::mul`].
    fn mul(self, rhs: Self) -> Self {
        SoftFloat::mul(self, rhs)
    }
}

impl std::ops::Div for SoftFloat {
    type Output = SoftFloat;
    /// IEEE division — see [`SoftFloat::div`].
    fn div(self, rhs: Self) -> Self {
        SoftFloat::div(self, rhs)
    }
}

impl std::ops::Neg for SoftFloat {
    type Output = SoftFloat;
    /// Sign-bit flip — see [`SoftFloat::neg`].
    fn neg(self) -> Self {
        SoftFloat::neg(&self)
    }
}

#[cfg(test)]
mod op_tests {
    use super::*;
    use crate::format::FloatFormat;

    #[test]
    fn operator_sugar_matches_methods() {
        let fmt = FloatFormat::BINARY16;
        let a = SoftFloat::from_f64(2.5, fmt);
        let b = SoftFloat::from_f64(-0.75, fmt);
        assert_eq!((a + b).bits(), a.add(b).bits());
        assert_eq!((a - b).bits(), a.sub(b).bits());
        assert_eq!((a * b).bits(), SoftFloat::mul(a, b).bits());
        assert_eq!((a / b).bits(), SoftFloat::div(a, b).bits());
        assert_eq!((-a).bits(), a.neg().bits());
    }
}
