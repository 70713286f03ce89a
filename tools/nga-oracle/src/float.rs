//! Reference IEEE-style binary floating point: fresh decode and one
//! correctly rounding encoder covering all five rounding-direction
//! attributes, gradual or flush-to-zero subnormals, overflow and the
//! subnormal/normal boundary.
//!
//! Independent of `nga-softfloat`'s datapath: only the *format
//! descriptor* ([`FloatFormat`]) and its mode enums are shared, as the
//! interface under test.

use crate::exact::{bitlen, Exact};
use nga_softfloat::{FloatFormat, Rounding, SubnormalMode};

/// The static shape of an IEEE-style binary interchange format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloatSpec {
    /// Exponent field width in bits.
    pub exp_bits: u32,
    /// Fraction (trailing significand) field width in bits.
    pub frac_bits: u32,
}

/// A decoded floating-point datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatVal {
    /// Any NaN (payloads are not modelled).
    Nan,
    /// ±infinity (`true` = negative).
    Inf(bool),
    /// ±zero (`true` = negative).
    Zero(bool),
    /// A nonzero finite value.
    Fin(Exact),
}

impl FloatSpec {
    /// IEEE binary64, used by the host conversion boundary.
    pub const F64: Self = Self {
        exp_bits: 11,
        frac_bits: 52,
    };

    /// The spec of a workspace format descriptor.
    #[must_use]
    pub fn of(fmt: FloatFormat) -> Self {
        Self {
            exp_bits: fmt.exp_bits(),
            frac_bits: fmt.frac_bits(),
        }
    }

    /// Exponent bias.
    #[must_use]
    pub fn bias(&self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    /// Smallest normal exponent.
    #[must_use]
    pub fn emin(&self) -> i32 {
        1 - self.bias()
    }

    /// Largest normal exponent.
    #[must_use]
    pub fn emax(&self) -> i32 {
        self.bias()
    }

    fn sign_shift(&self) -> u32 {
        self.exp_bits + self.frac_bits
    }

    fn exp_field_max(&self) -> u64 {
        (1u64 << self.exp_bits) - 1
    }

    /// The canonical quiet NaN encoding (positive, fraction MSB set).
    #[must_use]
    pub fn qnan_bits(&self) -> u64 {
        (self.exp_field_max() << self.frac_bits) | (1u64 << (self.frac_bits - 1))
    }

    /// ±infinity encoding.
    #[must_use]
    pub fn inf_bits(&self, sign: bool) -> u64 {
        (u64::from(sign) << self.sign_shift()) | (self.exp_field_max() << self.frac_bits)
    }

    /// ±zero encoding.
    #[must_use]
    pub fn zero_bits(&self, sign: bool) -> u64 {
        u64::from(sign) << self.sign_shift()
    }

    /// Largest-magnitude finite encoding with the given sign.
    #[must_use]
    pub fn max_finite_bits(&self, sign: bool) -> u64 {
        (u64::from(sign) << self.sign_shift())
            | ((self.exp_field_max() - 1) << self.frac_bits)
            | ((1u64 << self.frac_bits) - 1)
    }

    /// Applies denormals-are-zero: the implementation's flush-to-zero
    /// mode replaces subnormal *inputs* with signed zero as well as
    /// subnormal results.
    #[must_use]
    pub fn daz(&self, v: FloatVal, ftz: bool) -> FloatVal {
        match v {
            FloatVal::Fin(e)
                if ftz && e.cmp_mag(1, self.emin()) == std::cmp::Ordering::Less =>
            {
                FloatVal::Zero(e.sign)
            }
            other => other,
        }
    }

    /// Decodes an encoding into sign/significand/exponent (or a special).
    #[must_use]
    pub fn decode(&self, bits: u64) -> FloatVal {
        let fb = self.frac_bits;
        let sign = (bits >> self.sign_shift()) & 1 == 1;
        let e = (bits >> fb) & self.exp_field_max();
        let f = bits & ((1u64 << fb) - 1);
        if e == self.exp_field_max() {
            if f == 0 {
                FloatVal::Inf(sign)
            } else {
                FloatVal::Nan
            }
        } else if e == 0 {
            if f == 0 {
                FloatVal::Zero(sign)
            } else {
                FloatVal::Fin(Exact::new(sign, u128::from(f), self.emin() - fb as i32))
            }
        } else {
            FloatVal::Fin(Exact::new(
                sign,
                u128::from(f | (1u64 << fb)),
                e as i32 - self.bias() - fb as i32,
            ))
        }
    }

    /// Rounds the (possibly sticky) magnitude of `v` into this format
    /// under `mode`, handling subnormals, the subnormal/normal boundary,
    /// carry-out across the exponent boundary, overflow per IEEE §7.4
    /// and flush-to-zero outputs.
    #[must_use]
    pub fn round(&self, v: &Exact, mode: Rounding, ftz: bool) -> u64 {
        let sign = v.sign;
        let fb = self.frac_bits as i32;
        let p = fb + 1;
        // Transient sticky-zero representations cannot reach the rounder
        // from any sweep datapath (see exact.rs); bias up if one does.
        debug_assert!(v.sig != 0, "sticky zero reached the float rounder");
        let (sig, exp, sticky) = if v.sig == 0 {
            (1u128, v.exp - 1, true)
        } else {
            (v.sig, v.exp, v.sticky)
        };
        let e = exp + bitlen(sig) as i32 - 1;
        let target_lsb = e.max(self.emin()) - fb;
        let delta = exp - target_lsb;
        let (q, inexact, gt, tie) = if delta >= 0 {
            // Value already a multiple of the target ulp: exact.
            debug_assert!(!sticky, "coarse sticky value cannot reach the rounder");
            (sig << delta as u32, sticky, sticky, false)
        } else {
            let s = (-delta) as u32;
            if s >= 128 {
                // Entire significand is below the target ulp. Since
                // bitlen ≤ 128 the floor exponent e is ≤ target_lsb - 1,
                // so the dropped magnitude is ≥ half an ulp iff
                // e == target_lsb - 1, and a tie iff it is exactly 2^e.
                let ge_half = e == target_lsb - 1;
                let is_pow2 = sig == 1u128 << (bitlen(sig) - 1) && !sticky;
                (0, true, ge_half && !is_pow2, ge_half && is_pow2)
            } else {
                let q = sig >> s;
                let rem = sig & ((1u128 << s) - 1);
                let half = 1u128 << (s - 1);
                (
                    q,
                    rem != 0 || sticky,
                    rem > half || (rem == half && sticky),
                    rem == half && !sticky,
                )
            }
        };
        let up = match mode {
            Rounding::NearestEven => gt || (tie && q & 1 == 1),
            Rounding::NearestAway => gt || tie,
            Rounding::TowardZero => false,
            Rounding::TowardPositive => inexact && !sign,
            Rounding::TowardNegative => inexact && sign,
        };
        let mut q = q + u128::from(up);
        if e >= self.emin() {
            // Normal candidate: q ∈ [2^fb, 2^p]; a carry to 2^p crosses
            // the exponent boundary.
            let mut e = e;
            if q == 1 << p {
                q = 1 << fb;
                e += 1;
            }
            if e > self.emax() {
                return self.overflow(sign, mode);
            }
            (u64::from(sign) << self.sign_shift())
                | (((e + self.bias()) as u64) << self.frac_bits)
                | (q as u64 & ((1u64 << fb) - 1))
        } else {
            // Subnormal candidate at the fixed quantum 2^(emin - fb):
            // q ∈ [0, 2^fb]; q = 2^fb is the carry into the min normal.
            if q == 0 {
                self.zero_bits(sign)
            } else if q >= 1 << fb {
                (u64::from(sign) << self.sign_shift()) | (1u64 << self.frac_bits)
            } else if ftz {
                self.zero_bits(sign)
            } else {
                (u64::from(sign) << self.sign_shift()) | q as u64
            }
        }
    }

    fn overflow(&self, sign: bool, mode: Rounding) -> u64 {
        let to_infinity = match mode {
            Rounding::NearestEven | Rounding::NearestAway => true,
            Rounding::TowardZero => false,
            Rounding::TowardPositive => !sign,
            Rounding::TowardNegative => sign,
        };
        if to_infinity {
            self.inf_bits(sign)
        } else {
            self.max_finite_bits(sign)
        }
    }
}

/// Sign of a zero-valued *sum* of two zeros with signs `sa`, `sb`
/// (IEEE 754 §6.3).
#[must_use]
pub fn zero_sum_sign(sa: bool, sb: bool, mode: Rounding) -> bool {
    if sa == sb {
        sa
    } else {
        mode == Rounding::TowardNegative
    }
}

/// Sign of an exact cancellation `x + (-x)` with `x ≠ 0` (IEEE 754 §6.3).
#[must_use]
pub fn cancel_sign(mode: Rounding) -> bool {
    mode == Rounding::TowardNegative
}

fn ftz_of(fmt: FloatFormat) -> bool {
    fmt.subnormal_mode() == SubnormalMode::FlushToZero
}

/// Reference addition on raw encodings under `fmt`'s attributes.
#[must_use]
pub fn add_bits(a: u64, b: u64, fmt: FloatFormat) -> u64 {
    let spec = FloatSpec::of(fmt);
    let (mode, ftz) = (fmt.rounding(), ftz_of(fmt));
    use FloatVal as V;
    let va = spec.daz(spec.decode(a), ftz);
    let vb = spec.daz(spec.decode(b), ftz);
    match (va, vb) {
        (V::Nan, _) | (_, V::Nan) => spec.qnan_bits(),
        (V::Inf(sa), V::Inf(sb)) => {
            if sa == sb {
                spec.inf_bits(sa)
            } else {
                spec.qnan_bits()
            }
        }
        (V::Inf(s), _) | (_, V::Inf(s)) => spec.inf_bits(s),
        (V::Zero(sa), V::Zero(sb)) => spec.zero_bits(zero_sum_sign(sa, sb, mode)),
        (V::Zero(_), V::Fin(v)) | (V::Fin(v), V::Zero(_)) => spec.round(&v, mode, ftz),
        (V::Fin(x), V::Fin(y)) => match x.add(&y) {
            None => spec.zero_bits(cancel_sign(mode)),
            Some(s) => spec.round(&s, mode, ftz),
        },
    }
}

/// Reference subtraction: `a + (-b)` (IEEE 754 §5.4).
#[must_use]
pub fn sub_bits(a: u64, b: u64, fmt: FloatFormat) -> u64 {
    let spec = FloatSpec::of(fmt);
    add_bits(a, b ^ (1u64 << spec.sign_shift()), fmt)
}

/// Reference multiplication on raw encodings under `fmt`'s attributes.
#[must_use]
pub fn mul_bits(a: u64, b: u64, fmt: FloatFormat) -> u64 {
    let spec = FloatSpec::of(fmt);
    let (mode, ftz) = (fmt.rounding(), ftz_of(fmt));
    use FloatVal as V;
    let va = spec.daz(spec.decode(a), ftz);
    let vb = spec.daz(spec.decode(b), ftz);
    match (va, vb) {
        (V::Nan, _) | (_, V::Nan) => spec.qnan_bits(),
        (V::Inf(_), V::Zero(_)) | (V::Zero(_), V::Inf(_)) => spec.qnan_bits(),
        (V::Inf(sa), V::Inf(sb)) => spec.inf_bits(sa ^ sb),
        (V::Inf(sa), V::Fin(v)) | (V::Fin(v), V::Inf(sa)) => spec.inf_bits(sa ^ v.sign),
        (V::Zero(sa), V::Zero(sb)) => spec.zero_bits(sa ^ sb),
        (V::Zero(sa), V::Fin(v)) | (V::Fin(v), V::Zero(sa)) => spec.zero_bits(sa ^ v.sign),
        (V::Fin(x), V::Fin(y)) => spec.round(&x.mul(&y), mode, ftz),
    }
}

/// Reference division on raw encodings under `fmt`'s attributes.
#[must_use]
pub fn div_bits(a: u64, b: u64, fmt: FloatFormat) -> u64 {
    let spec = FloatSpec::of(fmt);
    let (mode, ftz) = (fmt.rounding(), ftz_of(fmt));
    use FloatVal as V;
    let va = spec.daz(spec.decode(a), ftz);
    let vb = spec.daz(spec.decode(b), ftz);
    match (va, vb) {
        (V::Nan, _) | (_, V::Nan) => spec.qnan_bits(),
        (V::Inf(_), V::Inf(_)) | (V::Zero(_), V::Zero(_)) => spec.qnan_bits(),
        (V::Inf(sa), V::Zero(sb)) | (V::Inf(sa), V::Fin(Exact { sign: sb, .. })) => {
            spec.inf_bits(sa ^ sb)
        }
        (V::Zero(sa), V::Inf(sb)) | (V::Fin(Exact { sign: sa, .. }), V::Inf(sb)) => {
            spec.zero_bits(sa ^ sb)
        }
        (V::Zero(sa), V::Fin(v)) => spec.zero_bits(sa ^ v.sign),
        (V::Fin(v), V::Zero(sb)) => spec.inf_bits(v.sign ^ sb),
        (V::Fin(x), V::Fin(y)) => spec.round(&x.div(&y), mode, ftz),
    }
}

/// Reference square root on a raw encoding under `fmt`'s attributes.
#[must_use]
pub fn sqrt_bits(a: u64, fmt: FloatFormat) -> u64 {
    let spec = FloatSpec::of(fmt);
    let (mode, ftz) = (fmt.rounding(), ftz_of(fmt));
    use FloatVal as V;
    match spec.daz(spec.decode(a), ftz) {
        V::Nan => spec.qnan_bits(),
        V::Zero(s) => spec.zero_bits(s),
        V::Inf(false) => spec.inf_bits(false),
        V::Inf(true) => spec.qnan_bits(),
        V::Fin(v) if v.sign => spec.qnan_bits(),
        V::Fin(v) => spec.round(&v.sqrt(), mode, ftz),
    }
}

/// Reference fused multiply-add `a*b + c` with a single rounding.
#[must_use]
pub fn fma_bits(a: u64, b: u64, c: u64, fmt: FloatFormat) -> u64 {
    let spec = FloatSpec::of(fmt);
    let (mode, ftz) = (fmt.rounding(), ftz_of(fmt));
    use FloatVal as V;
    let va = spec.daz(spec.decode(a), ftz);
    let vb = spec.daz(spec.decode(b), ftz);
    let vc = spec.daz(spec.decode(c), ftz);
    if matches!(va, V::Nan) || matches!(vb, V::Nan) || matches!(vc, V::Nan) {
        return spec.qnan_bits();
    }
    // Product classification.
    let product = match (va, vb) {
        (V::Inf(_), V::Zero(_)) | (V::Zero(_), V::Inf(_)) => return spec.qnan_bits(),
        (V::Inf(sa), V::Inf(sb)) => V::Inf(sa ^ sb),
        (V::Inf(sa), V::Fin(v)) | (V::Fin(v), V::Inf(sa)) => V::Inf(sa ^ v.sign),
        (V::Zero(sa), V::Zero(sb)) => V::Zero(sa ^ sb),
        (V::Zero(sa), V::Fin(v)) | (V::Fin(v), V::Zero(sa)) => V::Zero(sa ^ v.sign),
        (V::Fin(x), V::Fin(y)) => V::Fin(x.mul(&y)),
        (V::Nan, _) | (_, V::Nan) => return spec.qnan_bits(),
    };
    match (product, vc) {
        (V::Inf(sp), V::Inf(sc)) => {
            if sp == sc {
                spec.inf_bits(sp)
            } else {
                spec.qnan_bits()
            }
        }
        (V::Inf(sp), _) => spec.inf_bits(sp),
        (_, V::Inf(sc)) => spec.inf_bits(sc),
        (V::Zero(sp), V::Zero(sc)) => spec.zero_bits(zero_sum_sign(sp, sc, mode)),
        (V::Zero(_), V::Fin(v)) | (V::Fin(v), V::Zero(_)) => spec.round(&v, mode, ftz),
        (V::Fin(p), V::Fin(cv)) => match p.add(&cv) {
            None => spec.zero_bits(cancel_sign(mode)),
            Some(s) => spec.round(&s, mode, ftz),
        },
        (V::Nan, _) | (_, V::Nan) => spec.qnan_bits(),
    }
}

/// Exact negation of a decoded value.
#[must_use]
pub fn neg_val(v: &FloatVal) -> FloatVal {
    match v {
        FloatVal::Nan => FloatVal::Nan,
        FloatVal::Inf(s) => FloatVal::Inf(!s),
        FloatVal::Zero(s) => FloatVal::Zero(!s),
        FloatVal::Fin(e) => {
            let mut n = *e;
            n.sign = !n.sign;
            FloatVal::Fin(n)
        }
    }
}

/// Exact real sum of two decoded values. `None` when the sum is not a
/// real number (a NaN operand or `∞ + (−∞)`).
#[must_use]
pub fn add_vals(a: &FloatVal, b: &FloatVal) -> Option<FloatVal> {
    use FloatVal as V;
    match (a, b) {
        (V::Nan, _) | (_, V::Nan) => None,
        (V::Inf(sa), V::Inf(sb)) => {
            if sa == sb {
                Some(V::Inf(*sa))
            } else {
                None
            }
        }
        (V::Inf(s), _) | (_, V::Inf(s)) => Some(V::Inf(*s)),
        (V::Zero(sa), V::Zero(sb)) => Some(V::Zero(*sa && *sb)),
        (V::Zero(_), V::Fin(v)) | (V::Fin(v), V::Zero(_)) => Some(V::Fin(*v)),
        (V::Fin(x), V::Fin(y)) => Some(match x.add(y) {
            None => V::Zero(false),
            Some(s) => V::Fin(s),
        }),
    }
}

/// Exact real product of two decoded values. `None` when the product is
/// not a real number (a NaN operand or `0 × ∞`).
#[must_use]
pub fn mul_vals(a: &FloatVal, b: &FloatVal) -> Option<FloatVal> {
    use FloatVal as V;
    match (a, b) {
        (V::Nan, _) | (_, V::Nan) => None,
        (V::Inf(_), V::Zero(_)) | (V::Zero(_), V::Inf(_)) => None,
        (V::Inf(sa), V::Inf(sb)) => Some(V::Inf(sa ^ sb)),
        (V::Inf(sa), V::Fin(v)) | (V::Fin(v), V::Inf(sa)) => Some(V::Inf(sa ^ v.sign)),
        (V::Zero(sa), V::Zero(sb)) => Some(V::Zero(sa ^ sb)),
        (V::Zero(sa), V::Fin(v)) | (V::Fin(v), V::Zero(sa)) => Some(V::Zero(sa ^ v.sign)),
        (V::Fin(x), V::Fin(y)) => Some(V::Fin(x.mul(y))),
    }
}

/// The declared host-float conversion boundary; the only module in the
/// crate allowed to touch `f64` (it is on nga-lint's `ALLOWLIST`).
pub mod host;

#[cfg(test)]
mod tests {
    use super::*;

    const F16: FloatFormat = FloatFormat::BINARY16;

    fn spec16() -> FloatSpec {
        FloatSpec::of(F16)
    }

    #[test]
    fn decode_matches_known_binary16_codes() {
        let s = spec16();
        assert_eq!(s.decode(0x0000), FloatVal::Zero(false));
        assert_eq!(s.decode(0x8000), FloatVal::Zero(true));
        assert_eq!(s.decode(0x7C00), FloatVal::Inf(false));
        assert_eq!(s.decode(0x7C01), FloatVal::Nan);
        // 1.0 = 0x3C00: sig 0x400, exp -10.
        assert_eq!(s.decode(0x3C00), FloatVal::Fin(Exact::new(false, 0x400, -10)));
        // Smallest subnormal: 2^-24.
        assert_eq!(s.decode(0x0001), FloatVal::Fin(Exact::new(false, 1, -24)));
    }

    #[test]
    fn round_trips_every_finite_binary16_code() {
        let s = spec16();
        for code in 0..=0xFFFFu64 {
            if let FloatVal::Fin(v) = s.decode(code) {
                for mode in [
                    Rounding::NearestEven,
                    Rounding::NearestAway,
                    Rounding::TowardZero,
                    Rounding::TowardPositive,
                    Rounding::TowardNegative,
                ] {
                    assert_eq!(s.round(&v, mode, false), code, "code {code:#06x} {mode:?}");
                }
            }
        }
    }

    #[test]
    fn directed_overflow_per_mode() {
        let s = spec16();
        // 65520 = first value past maxfinite's rounding boundary.
        let v = Exact::new(false, 65520, 0);
        assert_eq!(s.round(&v, Rounding::NearestEven, false), s.inf_bits(false));
        assert_eq!(
            s.round(&v, Rounding::TowardZero, false),
            s.max_finite_bits(false)
        );
        assert_eq!(
            s.round(&v, Rounding::TowardNegative, false),
            s.max_finite_bits(false)
        );
        assert_eq!(s.round(&v, Rounding::TowardPositive, false), s.inf_bits(false));
        let n = Exact::new(true, 65520, 0);
        assert_eq!(
            s.round(&n, Rounding::TowardPositive, false),
            s.max_finite_bits(true)
        );
        assert_eq!(s.round(&n, Rounding::TowardNegative, false), s.inf_bits(true));
    }

    #[test]
    fn subnormal_boundary_ties() {
        let s = spec16();
        // Halfway between the largest subnormal (0x03FF) and the smallest
        // normal (0x0400): 2^-14 - 2^-25.
        let largest_sub = Exact::new(false, 0x3FF, -24);
        let min_normal = Exact::new(false, 1, -14);
        let mid = largest_sub
            .add(&Exact::new(false, 1, -25))
            .expect("nonzero");
        assert_eq!(s.round(&mid, Rounding::NearestEven, false), 0x0400, "tie to even");
        assert_eq!(s.round(&mid, Rounding::NearestAway, false), 0x0400);
        assert_eq!(s.round(&mid, Rounding::TowardZero, false), 0x03FF);
        assert_eq!(s.round(&mid, Rounding::TowardPositive, false), 0x0400);
        assert_eq!(s.round(&mid, Rounding::TowardNegative, false), 0x03FF);
        assert_eq!(s.round(&min_normal, Rounding::TowardZero, false), 0x0400);
        // FTZ flushes a subnormal result but not the min normal.
        assert_eq!(s.round(&largest_sub, Rounding::NearestEven, true), 0x0000);
        assert_eq!(s.round(&min_normal, Rounding::NearestEven, true), 0x0400);
    }

    #[test]
    fn tiny_values_underflow_per_mode() {
        let s = spec16();
        // 2^-300: far below the smallest subnormal.
        let v = Exact::new(false, 1, -300);
        assert_eq!(s.round(&v, Rounding::NearestEven, false), 0x0000);
        assert_eq!(s.round(&v, Rounding::TowardPositive, false), 0x0001);
        let n = Exact::new(true, 1, -300);
        assert_eq!(s.round(&n, Rounding::NearestEven, false), 0x8000, "keeps sign");
        assert_eq!(s.round(&n, Rounding::TowardNegative, false), 0x8001);
        // Exactly half the smallest subnormal: 2^-25 ties to even (0).
        let half = Exact::new(false, 1, -25);
        assert_eq!(s.round(&half, Rounding::NearestEven, false), 0x0000);
        assert_eq!(s.round(&half, Rounding::NearestAway, false), 0x0001);
    }

    #[test]
    fn signed_zero_sum_rules() {
        let pz = 0x0000u64;
        let nz = 0x8000u64;
        let down = F16.with_rounding(Rounding::TowardNegative);
        assert_eq!(add_bits(pz, nz, F16), pz, "+0 + -0 = +0 under RNE");
        assert_eq!(add_bits(pz, nz, down), nz, "+0 + -0 = -0 toward negative");
        assert_eq!(add_bits(nz, nz, F16), nz, "-0 + -0 = -0");
        // Exact cancellation of nonzero operands.
        let one = 0x3C00u64;
        let neg_one = 0xBC00u64;
        assert_eq!(add_bits(one, neg_one, F16), pz);
        assert_eq!(add_bits(one, neg_one, down), nz);
    }

    #[test]
    fn special_case_semantics() {
        let s = spec16();
        let inf = s.inf_bits(false);
        let ninf = s.inf_bits(true);
        let one = 0x3C00u64;
        assert_eq!(add_bits(inf, ninf, F16), s.qnan_bits());
        assert_eq!(mul_bits(inf, 0, F16), s.qnan_bits());
        assert_eq!(div_bits(one, 0x8000, F16), ninf, "1 / -0 = -inf");
        assert_eq!(div_bits(0, 0, F16), s.qnan_bits());
        assert_eq!(sqrt_bits(0x8000, F16), 0x8000, "sqrt(-0) = -0");
        assert_eq!(sqrt_bits(0xBC00, F16), s.qnan_bits());
        assert_eq!(fma_bits(inf, 0, one, F16), s.qnan_bits());
        assert_eq!(fma_bits(0, one, 0x8000, F16), 0, "(+0·1) + -0 = +0");
    }
}
