//! The declared host-float conversion boundary: bit-exact `f64` decode,
//! used to seed sweeps, check interval enclosures, and serve the posit
//! test oracle. No rounding decision is ever made in `f64` arithmetic —
//! every `f64` is immediately decoded to an exact value and compared
//! with integer arithmetic.
//!
//! This is the only module in `nga-oracle` allowed to name host float
//! types (it is on nga-lint's `ALLOWLIST` for rule `no-host-float`).

use super::{add_vals, mul_vals, neg_val, FloatSpec, FloatVal};
use crate::posit::PositOracle;
use nga_softfloat::{FloatFormat, Interval};
use std::cmp::Ordering;

/// Builds a boundary-biased `f64` bit pattern from two raw random
/// words: exponents concentrated in (and just outside) the
/// binary16-relevant range, with exactly-representable, subnormal,
/// zero and infinite strata.
#[must_use]
pub fn biased_f64_bits(x: u64, y: u64) -> u64 {
    let sign = x & (1u64 << 63);
    match (x >> 56) & 15 {
        0 => sign,                      // ±0
        1 => sign | (0x7FFu64 << 52),   // ±∞
        strat => {
            // Unbiased exponent in [-40, 39]: covers binary16's
            // subnormals, normals, and the overflow fringe.
            let e_unb = (y % 80) as i64 - 40;
            let exp = ((1023 + e_unb) as u64) << 52;
            let frac = x & ((1u64 << 52) - 1);
            let frac = if strat & 1 == 0 {
                // Exactly representable in binary16.
                (frac >> 42) << 42
            } else {
                frac
            };
            sign | exp | frac
        }
    }
}

/// Checks one interval enclosure case: builds the tightest `fmt`
/// enclosures of the two `f64` operands, applies the implementation's
/// interval op (`0` add, `1` sub, `2` mul), and verifies the result
/// still encloses the exact real result. Vacuously `true` when the
/// exact result is not a real number.
#[must_use]
pub fn interval_case_bits(a_bits: u64, b_bits: u64, op: u32, fmt: FloatFormat) -> bool {
    let a = f64::from_bits(a_bits);
    let b = f64::from_bits(b_bits);
    let (va, vb) = (decode_f64(a), decode_f64(b));
    let exact = match op {
        0 => add_vals(&va, &vb),
        1 => add_vals(&va, &neg_val(&vb)),
        _ => mul_vals(&va, &vb),
    };
    let Some(exact) = exact else {
        return true; // NaN operands / ∞−∞ / 0×∞: no enclosure defined
    };
    let (x, y) = (Interval::from_f64(a, fmt), Interval::from_f64(b, fmt));
    let z = match op {
        0 => x.add(&y),
        1 => x.sub(&y),
        _ => x.mul(&y),
    };
    let spec = FloatSpec::of(fmt);
    let lo = spec.decode(z.lo().bits());
    let hi = spec.decode(z.hi().bits());
    let Some(lo_ord) = cmp_vals(&lo, &exact) else {
        return false; // NaN endpoint: the enclosure is broken
    };
    let Some(hi_ord) = cmp_vals(&hi, &exact) else {
        return false;
    };
    lo_ord != Ordering::Greater && hi_ord != Ordering::Less
}

/// Decodes an `f64` bit-exactly.
#[must_use]
pub fn decode_f64(x: f64) -> FloatVal {
    FloatSpec::F64.decode(x.to_bits())
}

/// The nearest posit encoding to the real value `x` (ties to even
/// encoding, saturating at minpos/maxpos, never rounding a nonzero
/// value to 0 or NaR). NaN and ±∞ map to NaR.
#[must_use]
pub fn nearest_posit_f64(x: f64, oracle: &PositOracle) -> u64 {
    match decode_f64(x) {
        FloatVal::Nan | FloatVal::Inf(_) => oracle.spec().nar_bits(),
        FloatVal::Zero(_) => 0,
        FloatVal::Fin(v) => oracle.round(&v),
    }
}

/// Compares the real value of a soft-float encoding against the real
/// value of `x`, exactly. `None` if either side is NaN.
#[must_use]
pub fn cmp_bits_f64(bits: u64, spec: FloatSpec, x: f64) -> Option<Ordering> {
    let a = spec.decode(bits);
    let b = decode_f64(x);
    cmp_vals(&a, &b)
}

fn sign_of(v: &FloatVal) -> Option<bool> {
    match v {
        FloatVal::Nan => None,
        FloatVal::Inf(s) | FloatVal::Zero(s) => Some(*s),
        FloatVal::Fin(e) => Some(e.sign),
    }
}

fn cmp_vals(a: &FloatVal, b: &FloatVal) -> Option<Ordering> {
    use FloatVal as V;
    let (sa, sb) = (sign_of(a)?, sign_of(b)?);
    // Zeros compare equal regardless of sign.
    if matches!(a, V::Zero(_)) && matches!(b, V::Zero(_)) {
        return Some(Ordering::Equal);
    }
    let mag = |v: &V| -> u8 {
        match v {
            V::Zero(_) => 0,
            V::Fin(_) => 1,
            V::Inf(_) => 2,
            V::Nan => 3,
        }
    };
    let ord = match (a, b) {
        (V::Fin(x), V::Fin(y)) => {
            if sa != sb {
                // Handled by the sign comparison below.
                Ordering::Equal
            } else {
                let m = x.cmp_mag(y.sig, y.exp);
                if sa {
                    m.reverse()
                } else {
                    m
                }
            }
        }
        _ => {
            // At least one is Zero or Inf: order by class magnitude,
            // then by sign.
            let (ma, mb) = (mag(a), mag(b));
            let by_mag = ma.cmp(&mb);
            let m = if sa { by_mag.reverse() } else { by_mag };
            if sa == sb {
                m
            } else {
                Ordering::Equal
            }
        }
    };
    if sa != sb {
        // Differing signs and not both zero: negative < positive.
        return Some(if sa { Ordering::Less } else { Ordering::Greater });
    }
    Some(ord)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_cmp_is_exact() {
        let spec = FloatSpec {
            exp_bits: 5,
            frac_bits: 10,
        };
        // 0.1 is not representable in binary16: the nearest encodings
        // bracket it strictly.
        let lo = 0x2E66u64; // 0.0999755859375
        let hi = 0x2E67u64; // 0.10003662109375
        assert_eq!(cmp_bits_f64(lo, spec, 0.1), Some(Ordering::Less));
        assert_eq!(cmp_bits_f64(hi, spec, 0.1), Some(Ordering::Greater));
        assert_eq!(cmp_bits_f64(0x3C00, spec, 1.0), Some(Ordering::Equal));
        assert_eq!(cmp_bits_f64(0x8000, spec, 0.0), Some(Ordering::Equal));
        assert_eq!(cmp_bits_f64(0xFC00, spec, -1e300), Some(Ordering::Less));
        assert_eq!(cmp_bits_f64(0x7E00, spec, 0.0), None, "NaN is unordered");
    }
}
