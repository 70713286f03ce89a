//! Posit arithmetic: exact integer computation followed by a single posit
//! rounding ([`Posit::from_parts`]).
//!
//! The decode → compute → encode structure deliberately mirrors the
//! hardware datapath of §V: a count-leading-zeros/ones regime decode, plain
//! two's-complement integer arithmetic in the middle, and one rounder.
//! There are no subnormal, infinity, or signed-zero cases — the only
//! special value that can reach the arithmetic core is NaR, and it is
//! detected by a single "sign bit set and all others clear" test (§V: an OR
//! tree of no more than six logic levels for 64-bit posits).

use crate::events::PositEvents;
use crate::posit::Posit;

// `add`/`sub`/`mul`/`div` match the softfloat-style naming used across the
// workspace; the std ops traits don't fit because operand formats must
// match at runtime (the methods panic on mismatch).
#[expect(
    clippy::should_implement_trait,
    reason = "operand formats must match at runtime; see above"
)]
impl Posit {
    /// Addition with posit rounding.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn add(self, rhs: Self) -> Self {
        self.add_with_events(rhs).0
    }

    /// Addition plus the [`PositEvents`] it raised. Propagating an input
    /// NaR raises no event; only *producing* NaR from real inputs does.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn add_with_events(self, rhs: Self) -> (Self, PositEvents) {
        assert_eq!(self.format(), rhs.format(), "mixed-format posit add");
        let fmt = self.format();
        if self.is_nar() || rhs.is_nar() {
            return (Self::nar(fmt), PositEvents::NONE);
        }
        if self.is_zero() {
            return (rhs, PositEvents::NONE);
        }
        if rhs.is_zero() {
            return (self, PositEvents::NONE);
        }
        let (Some(a), Some(b)) = (self.unpack(), rhs.unpack()) else {
            // NaR/zero were handled above; unreachable, but NaR is the
            // only sound answer if decode ever fails.
            return (Self::nar(fmt), PositEvents::NAR);
        };
        // Exact alignment: posit32 significands are <= 28 bits and scales
        // span +-120, so the aligned sum always fits i128 (28 + 241 < ...
        // is too wide; align to the *smaller* exponent but cap the span).
        // Max span: |exp| <= max_scale + n = 152, so total <= 2*152 + 28
        // bits — use the sticky-free exact path when it fits, otherwise the
        // smaller operand degenerates to a sticky bit.
        let (hi, lo) = if a.exp >= b.exp { (a, b) } else { (b, a) };
        let diff = (hi.exp - lo.exp) as u32;
        let hi_bits = 64 - hi.sig.leading_zeros();
        let (sum_sign, sum_sig, sum_exp);
        if hi_bits + diff <= 126 {
            let va = (hi.sig as u128) << diff;
            let x = if hi.sign { -(va as i128) } else { va as i128 };
            let y = if lo.sign {
                -(lo.sig as i128)
            } else {
                lo.sig as i128
            };
            let sum = x + y;
            if sum == 0 {
                return (Self::zero(fmt), PositEvents::NONE);
            }
            sum_sign = sum < 0;
            sum_sig = sum.unsigned_abs();
            sum_exp = lo.exp;
        } else {
            // `lo` sits entirely below `hi`'s LSB: guard/round/sticky path.
            let hi3 = (hi.sig as u128) << 3;
            let lo3 = crate::quire::shift_right_sticky(u128::from(lo.sig) << 3, diff);
            let x = if hi.sign { -(hi3 as i128) } else { hi3 as i128 };
            let y = if lo.sign { -(lo3 as i128) } else { lo3 as i128 };
            let sum = x + y;
            sum_sign = sum < 0;
            sum_sig = sum.unsigned_abs();
            sum_exp = hi.exp - 3;
        }
        Self::from_parts_with_events(sum_sign, sum_sig, sum_exp, fmt)
    }

    /// Subtraction (`self - rhs`) with posit rounding.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn sub(self, rhs: Self) -> Self {
        self.add(rhs.neg())
    }

    /// Subtraction plus the [`PositEvents`] it raised.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn sub_with_events(self, rhs: Self) -> (Self, PositEvents) {
        self.add_with_events(rhs.neg())
    }

    /// Multiplication with posit rounding.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn mul(self, rhs: Self) -> Self {
        self.mul_with_events(rhs).0
    }

    /// Multiplication plus the [`PositEvents`] it raised.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn mul_with_events(self, rhs: Self) -> (Self, PositEvents) {
        assert_eq!(self.format(), rhs.format(), "mixed-format posit mul");
        let fmt = self.format();
        if self.is_nar() || rhs.is_nar() {
            return (Self::nar(fmt), PositEvents::NONE);
        }
        if self.is_zero() || rhs.is_zero() {
            return (Self::zero(fmt), PositEvents::NONE);
        }
        let (Some(a), Some(b)) = (self.unpack(), rhs.unpack()) else {
            return (Self::nar(fmt), PositEvents::NAR);
        };
        let prod = a.sig as u128 * b.sig as u128;
        Self::from_parts_with_events(a.sign ^ b.sign, prod, a.exp + b.exp, fmt)
    }

    /// Division with posit rounding. `x / 0` and anything involving NaR
    /// gives NaR — the single exception value (§V).
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn div(self, rhs: Self) -> Self {
        self.div_with_events(rhs).0
    }

    /// Division plus the [`PositEvents`] it raised. `x / 0` (for real
    /// nonzero `x`) produces NaR and raises `NAR`; propagating an input
    /// NaR raises nothing.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn div_with_events(self, rhs: Self) -> (Self, PositEvents) {
        assert_eq!(self.format(), rhs.format(), "mixed-format posit div");
        let fmt = self.format();
        if self.is_nar() || rhs.is_nar() {
            return (Self::nar(fmt), PositEvents::NONE);
        }
        if rhs.is_zero() {
            return (Self::nar(fmt), PositEvents::NAR);
        }
        if self.is_zero() {
            return (Self::zero(fmt), PositEvents::NONE);
        }
        let (Some(a), Some(b)) = (self.unpack(), rhs.unpack()) else {
            return (Self::nar(fmt), PositEvents::NAR);
        };
        // Quotient with n + 4 extra bits; remainder folds into sticky.
        let extra = fmt.n() + 4;
        let num = (a.sig as u128) << extra;
        let q = num / b.sig as u128;
        let r = num % b.sig as u128;
        // Normalization: both significands have their MSB determined by
        // decode, which never produces leading zeros, so the quotient has
        // at least `extra - 1` significant bits — comfortably more than the
        // n-1-bit encoding target.
        let sig = q | u128::from(r != 0);
        Self::from_parts_with_events(a.sign ^ b.sign, sig, a.exp - b.exp - extra as i32, fmt)
    }

    /// Square root with posit rounding. Negative inputs and NaR give NaR.
    #[must_use]
    pub fn sqrt(self) -> Self {
        self.sqrt_with_events().0
    }

    /// Square root plus the [`PositEvents`] it raised. A negative input
    /// produces NaR and raises `NAR`; propagating an input NaR raises
    /// nothing.
    #[must_use]
    pub fn sqrt_with_events(self) -> (Self, PositEvents) {
        let fmt = self.format();
        if self.is_nar() {
            return (Self::nar(fmt), PositEvents::NONE);
        }
        if self.sign() && !self.is_zero() {
            return (Self::nar(fmt), PositEvents::NAR);
        }
        if self.is_zero() {
            return (self, PositEvents::NONE);
        }
        let Some(u) = self.unpack() else {
            return (Self::nar(fmt), PositEvents::NAR);
        };
        let mut sig = u.sig as u128;
        let mut exp = u.exp;
        if exp & 1 != 0 {
            sig <<= 1;
            exp -= 1;
        }
        let t = fmt.n() + 4;
        sig <<= 2 * t;
        exp -= 2 * t as i32;
        let root = isqrt_u128(sig);
        let sticky = u128::from(root * root != sig);
        Self::from_parts_with_events(false, root | sticky, exp / 2, fmt)
    }

    /// Fused multiply-add `self * b + c` with a single posit rounding.
    ///
    /// Posit hardware gets this almost for free from the quire datapath;
    /// here it reuses the exact-alignment adder.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn fma(self, b: Self, c: Self) -> Self {
        self.fma_with_events(b, c).0
    }

    /// Fused multiply-add plus the [`PositEvents`] it raised.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn fma_with_events(self, b: Self, c: Self) -> (Self, PositEvents) {
        assert_eq!(self.format(), b.format(), "mixed-format posit fma");
        assert_eq!(self.format(), c.format(), "mixed-format posit fma");
        let fmt = self.format();
        if self.is_nar() || b.is_nar() || c.is_nar() {
            return (Self::nar(fmt), PositEvents::NONE);
        }
        if self.is_zero() || b.is_zero() {
            return (c, PositEvents::NONE);
        }
        let (Some(ua), Some(ub)) = (self.unpack(), b.unpack()) else {
            return (Self::nar(fmt), PositEvents::NAR);
        };
        let prod = ua.sig as u128 * ub.sig as u128;
        let psign = ua.sign ^ ub.sign;
        let pexp = ua.exp + ub.exp;
        if c.is_zero() {
            return Self::from_parts_with_events(psign, prod, pexp, fmt);
        }
        let Some(uc) = c.unpack() else {
            return (Self::nar(fmt), PositEvents::NAR);
        };
        let (hi_sig, hi_exp, hi_sign, lo_sig, lo_exp, lo_sign) = if pexp >= uc.exp {
            (prod, pexp, psign, uc.sig as u128, uc.exp, uc.sign)
        } else {
            (uc.sig as u128, uc.exp, uc.sign, prod, pexp, psign)
        };
        let diff = (hi_exp - lo_exp) as u32;
        let hi_bits = 128 - hi_sig.leading_zeros();
        let (sum_sign, sum_sig, sum_exp);
        if hi_bits + diff <= 126 {
            let va = hi_sig << diff;
            let x = if hi_sign { -(va as i128) } else { va as i128 };
            let y = if lo_sign {
                -(lo_sig as i128)
            } else {
                lo_sig as i128
            };
            let sum = x + y;
            if sum == 0 {
                return (Self::zero(fmt), PositEvents::NONE);
            }
            sum_sign = sum < 0;
            sum_sig = sum.unsigned_abs();
            sum_exp = lo_exp;
        } else {
            let hi3 = hi_sig << 3;
            let lo3 = crate::quire::shift_right_sticky(lo_sig << 3, diff);
            let x = if hi_sign { -(hi3 as i128) } else { hi3 as i128 };
            let y = if lo_sign { -(lo3 as i128) } else { lo3 as i128 };
            let sum = x + y;
            sum_sign = sum < 0;
            sum_sig = sum.unsigned_abs();
            sum_exp = hi_exp - 3;
        }
        Self::from_parts_with_events(sum_sign, sum_sig, sum_exp, fmt)
    }

    /// Reciprocal, `1 / self`.
    #[must_use]
    pub fn recip(self) -> Self {
        Self::one(self.format()).div(self)
    }
}

/// Integer square root (floor) of a `u128`.
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
    use crate::format::PositFormat;

    const P8: PositFormat = PositFormat::POSIT8;
    const P16: PositFormat = PositFormat::POSIT16;

    fn p16(x: f64) -> Posit {
        Posit::from_f64(x, P16)
    }

    #[test]
    fn add_exact_cases() {
        assert_eq!(p16(1.5).add(p16(2.25)).to_f64(), 3.75);
        assert_eq!(p16(-1.5).add(p16(1.5)).to_f64(), 0.0);
        assert_eq!(p16(0.0).add(p16(-2.0)).to_f64(), -2.0);
    }

    #[test]
    fn mul_exact_cases() {
        assert_eq!(p16(1.5).mul(p16(-0.25)).to_f64(), -0.375);
        assert_eq!(p16(0.0).mul(p16(1e6)).to_f64(), 0.0);
        assert_eq!(p16(3.0).mul(p16(3.0)).to_f64(), 9.0);
    }

    #[test]
    fn nar_propagates_through_everything() {
        let nar = Posit::nar(P16);
        let one = Posit::one(P16);
        assert!(nar.add(one).is_nar());
        assert!(one.sub(nar).is_nar());
        assert!(nar.mul(nar).is_nar());
        assert!(one.div(Posit::zero(P16)).is_nar());
        assert!(p16(-4.0).sqrt().is_nar());
        assert!(nar.sqrt().is_nar());
        assert!(nar.neg().is_nar());
    }

    #[test]
    fn saturating_add_at_maxpos() {
        // Posits never overflow to NaR: maxpos + maxpos = maxpos.
        let m = Posit::maxpos(P16);
        assert_eq!(m.add(m).bits(), m.bits());
    }

    #[test]
    fn div_and_recip() {
        assert_eq!(p16(1.0).div(p16(4.0)).to_f64(), 0.25);
        assert_eq!(p16(4.0).recip().to_f64(), 0.25);
        // Reciprocal symmetry on exact powers of useed.
        for k in [-20, -8, -2, 0, 2, 8, 20] {
            let x = p16((k as f64).exp2());
            assert_eq!(x.recip().to_f64(), (-k as f64).exp2(), "2^{k}");
        }
    }

    #[test]
    fn sqrt_exact_and_rounded() {
        assert_eq!(p16(9.0).sqrt().to_f64(), 3.0);
        assert_eq!(p16(0.0625).sqrt().to_f64(), 0.25);
        // Rounded case: sqrt(2) must equal the correctly rounded value.
        let got = p16(2.0).sqrt();
        let want = Posit::from_f64(2.0f64.sqrt(), P16);
        assert_eq!(got.bits(), want.bits());
    }

    /// Reference rounding oracle: delegates to `nga-oracle`'s
    /// exact-arithmetic posit rounder (encoding-midpoint comparison in a
    /// precomputed table, structurally independent of `from_parts`).
    /// Ties go to the even encoding; nonzero never rounds to zero and
    /// nothing rounds to NaR. The oracle tables are cached per format
    /// because building one walks the whole positive encoding ring.
    fn nearest_posit(v: f64, fmt: PositFormat) -> Posit {
        use nga_oracle::{float::host::nearest_posit_f64, PositOracle, PositSpec};
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        assert!(v.is_finite());
        static ORACLES: OnceLock<Mutex<HashMap<(u32, u32), &'static PositOracle>>> =
            OnceLock::new();
        let cache = ORACLES.get_or_init(|| Mutex::new(HashMap::new()));
        let oracle = *cache
            .lock()
            .unwrap()
            .entry((fmt.n(), fmt.es()))
            .or_insert_with(|| {
                // Constructed from raw widths: the dev-dep cycle gives the
                // oracle its own copy of this crate's format type.
                let spec = PositSpec {
                    n: fmt.n(),
                    es: fmt.es(),
                };
                Box::leak(Box::new(PositOracle::new(spec)))
            });
        Posit::from_bits(nearest_posit_f64(v, oracle), fmt)
    }

    #[test]
    fn posit8_add_matches_value_nearest_oracle_exhaustively() {
        // Bit-level rounding and value-nearest rounding coincide for
        // addition because sums never land in the tapered outer regimes
        // "between" representable midpoints asymmetrically... they can —
        // so this test documents where they agree: all sums of posit8
        // values are compared against the value-nearest oracle, and any
        // disagreement must be a saturation or regime-taper tie case.
        let mut mismatches = 0u32;
        for ab in 0..=0xFFu64 {
            for bb in 0..=0xFFu64 {
                let a = Posit::from_bits(ab, P8);
                let b = Posit::from_bits(bb, P8);
                if a.is_nar() || b.is_nar() {
                    continue;
                }
                let got = a.add(b);
                let exact = a.to_f64() + b.to_f64(); // exact: 12-bit sigs
                let want = nearest_posit(exact, P8);
                if got.bits() != want.bits() {
                    mismatches += 1;
                }
            }
        }
        assert_eq!(mismatches, 0, "posit8 add must be correctly rounded");
    }

    #[test]
    fn posit8_mul_matches_value_nearest_oracle_exhaustively() {
        let mut mismatches = 0u32;
        for ab in 0..=0xFFu64 {
            for bb in 0..=0xFFu64 {
                let a = Posit::from_bits(ab, P8);
                let b = Posit::from_bits(bb, P8);
                if a.is_nar() || b.is_nar() {
                    continue;
                }
                let got = a.mul(b);
                let exact = a.to_f64() * b.to_f64();
                let want = nearest_posit(exact, P8);
                if got.bits() != want.bits() {
                    mismatches += 1;
                }
            }
        }
        assert_eq!(mismatches, 0, "posit8 mul must be correctly rounded");
    }

    #[test]
    fn posit16_mul_matches_oracle_sampled() {
        let mut s = 0xDEADBEEFu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 0xFFFF
        };
        for _ in 0..20000 {
            let (ab, bb) = (next(), next());
            let a = Posit::from_bits(ab, P16);
            let b = Posit::from_bits(bb, P16);
            if a.is_nar() || b.is_nar() {
                continue;
            }
            let got = a.mul(b);
            let want = nearest_posit(a.to_f64() * b.to_f64(), P16);
            assert_eq!(got.bits(), want.bits(), "mul 0x{ab:04x} * 0x{bb:04x}");
        }
    }

    #[test]
    fn posit16_add_matches_oracle_sampled() {
        let mut s = 0xC0FFEEu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 0xFFFF
        };
        for _ in 0..20000 {
            let (ab, bb) = (next(), next());
            let a = Posit::from_bits(ab, P16);
            let b = Posit::from_bits(bb, P16);
            if a.is_nar() || b.is_nar() {
                continue;
            }
            let got = a.add(b);
            let want = nearest_posit(a.to_f64() + b.to_f64(), P16);
            assert_eq!(got.bits(), want.bits(), "add 0x{ab:04x} + 0x{bb:04x}");
        }
    }

    #[test]
    fn posit16_div_matches_oracle_sampled() {
        let mut s = 0xFEEDFACEu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 0xFFFF
        };
        for _ in 0..10000 {
            let (ab, bb) = (next(), next());
            let a = Posit::from_bits(ab, P16);
            let b = Posit::from_bits(bb, P16);
            if a.is_nar() || b.is_nar() || b.is_zero() {
                continue;
            }
            // The quotient value is not exact in f64; compare via the
            // rounding of a higher-precision quotient instead: f64 division
            // of exact f64 inputs is correctly rounded to 53 bits, and
            // 53 >= 2*13 + 2 makes double rounding innocuous for posit16's
            // max 13-bit significands — except near regime boundaries where
            // the target precision shrinks, making it safer still.
            let got = a.div(b);
            let want = nearest_posit(a.to_f64() / b.to_f64(), P16);
            assert_eq!(got.bits(), want.bits(), "div 0x{ab:04x} / 0x{bb:04x}");
        }
    }

    #[test]
    fn fma_is_single_rounded() {
        // A residue case: a*b - round(a*b) is nonzero and fma sees it.
        let mut found = false;
        for ab in 0x41u64..0x60 {
            for bb in 0x41u64..0x60 {
                let a = Posit::from_bits(ab, P8);
                let b = Posit::from_bits(bb, P8);
                let c = a.mul(b).neg();
                let fused = a.fma(b, c);
                let split = a.mul(b).add(c);
                if !fused.is_zero() && split.is_zero() {
                    found = true;
                }
            }
        }
        assert!(found, "fma must expose the exact product residue");
    }

    #[test]
    fn posit8_fma_matches_oracle_exhaustively_against_fixed_c() {
        for cb in [0x00u64, 0x30, 0x40, 0xC0, 0x7F] {
            let c = Posit::from_bits(cb, P8);
            for ab in 0..=0xFFu64 {
                for bb in (0..=0xFFu64).step_by(3) {
                    let a = Posit::from_bits(ab, P8);
                    let b = Posit::from_bits(bb, P8);
                    if a.is_nar() || b.is_nar() || c.is_nar() {
                        continue;
                    }
                    let got = a.fma(b, c);
                    let exact = a.to_f64() * b.to_f64() + c.to_f64(); // exact in f64
                    let want = nearest_posit(exact, P8);
                    assert_eq!(
                        got.bits(),
                        want.bits(),
                        "fma 0x{ab:02x}*0x{bb:02x}+0x{cb:02x}"
                    );
                }
            }
        }
    }
}

impl std::ops::Add for Posit {
    type Output = Posit;
    /// Posit addition — see [`Posit::add`].
    fn add(self, rhs: Self) -> Self {
        Posit::add(self, rhs)
    }
}

impl std::ops::Sub for Posit {
    type Output = Posit;
    /// Posit subtraction — see [`Posit::sub`].
    fn sub(self, rhs: Self) -> Self {
        Posit::sub(self, rhs)
    }
}

impl std::ops::Mul for Posit {
    type Output = Posit;
    /// Posit multiplication — see [`Posit::mul`].
    fn mul(self, rhs: Self) -> Self {
        Posit::mul(self, rhs)
    }
}

impl std::ops::Div for Posit {
    type Output = Posit;
    /// Posit division — see [`Posit::div`].
    fn div(self, rhs: Self) -> Self {
        Posit::div(self, rhs)
    }
}

impl std::ops::Neg for Posit {
    type Output = Posit;
    /// Exact two's-complement negation — see [`Posit::neg`].
    fn neg(self) -> Self {
        Posit::neg(&self)
    }
}

#[cfg(test)]
mod op_tests {
    use super::*;
    use crate::format::PositFormat;

    #[test]
    fn operator_sugar_matches_methods() {
        let fmt = PositFormat::POSIT16;
        let a = Posit::from_f64(2.5, fmt);
        let b = Posit::from_f64(-0.75, fmt);
        assert_eq!((a + b).bits(), a.add(b).bits());
        assert_eq!((a - b).bits(), a.sub(b).bits());
        assert_eq!((a * b).bits(), Posit::mul(a, b).bits());
        assert_eq!((a / b).bits(), Posit::div(a, b).bits());
        assert_eq!((-a).bits(), a.neg().bits());
    }
}
