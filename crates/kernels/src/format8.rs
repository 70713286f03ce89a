//! The four 8-bit storage formats the paper's edge-inference study
//! compares, unified behind one enum over raw `u8` codes.

use nga_core::{Posit, PositFormat};
use nga_fixed::{Fixed, FixedFormat, OverflowMode, RoundingMode};
use nga_softfloat::{FloatFormat, SoftFloat};

use crate::status::Event8;

/// An 8-bit number format, identified so kernels can be generic over it.
///
/// Values are raw encodings (`u8` codes): posit bit patterns, IEEE-style
/// FP8 bit patterns, or two's-complement Q4.4 raw words. All scalar ops
/// round to nearest-even in the source crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format8 {
    /// posit⟨8,0⟩ (`PositFormat::POSIT8`): NaR = `0x80`.
    Posit8 = 0,
    /// IEEE-style FP8 with 4 exponent / 3 fraction bits.
    E4m3 = 1,
    /// IEEE-style FP8 with 5 exponent / 2 fraction bits.
    E5m2 = 2,
    /// Signed Q4.4 fixed point (saturating).
    Fixed8 = 3,
}

impl Format8 {
    /// All four formats, in cache-index order.
    pub const ALL: [Self; 4] = [Self::Posit8, Self::E4m3, Self::E5m2, Self::Fixed8];

    /// Stable short name (used in benchmark output and JSON).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Self::Posit8 => "posit8",
            Self::E4m3 => "e4m3",
            Self::E5m2 => "e5m2",
            Self::Fixed8 => "fixed8_q4.4",
        }
    }

    /// Index into per-format cache arrays.
    #[inline(always)]
    #[must_use]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    fn fixed_format() -> FixedFormat {
        FixedFormat::Q4_4
    }

    fn float_format(self) -> FloatFormat {
        // Only the two FP8 variants call this; mapping the others to
        // E4M3 keeps the function total instead of panicking.
        match self {
            Self::E5m2 => FloatFormat::FP8_E5M2,
            _ => FloatFormat::FP8_E4M3,
        }
    }

    /// Bit-exact scalar multiply on raw codes, plus the [`Event8`] status
    /// the op raised, translated from the source crate's event
    /// vocabulary. This is the seed for the per-format value and event
    /// tables.
    #[must_use]
    pub fn mul_scalar_events(self, a: u8, b: u8) -> (u8, Event8) {
        match self {
            Self::Posit8 => {
                let x = Posit::from_bits(u64::from(a), PositFormat::POSIT8);
                let y = Posit::from_bits(u64::from(b), PositFormat::POSIT8);
                let (r, ev) = x.mul_with_events(y);
                (r.bits() as u8, Event8::from_posit(ev))
            }
            Self::E4m3 | Self::E5m2 => {
                let fmt = self.float_format();
                let x = SoftFloat::from_bits(u64::from(a), fmt);
                let y = SoftFloat::from_bits(u64::from(b), fmt);
                let (r, fl) = x.mul_with_flags(y);
                (r.bits() as u8, Event8::from_flags(fl))
            }
            Self::Fixed8 => {
                let fmt = Self::fixed_format();
                let x = fixed_from_code(a, fmt);
                let y = fixed_from_code(b, fmt);
                // The exact Q8.8 product fits MAX_BITS and saturating
                // convert never reports overflow, so the fallback arm is
                // unreachable.
                let r = x.mul_exact(&y).and_then(|w| {
                    w.convert_with_events(fmt, RoundingMode::NearestEven, OverflowMode::Saturate)
                });
                debug_assert!(r.is_ok(), "Q4.4 product path cannot fail");
                r.map_or((0, Event8::NONE), |(r, ev)| {
                    (r.raw() as u8, Event8::from_fixed(ev))
                })
            }
        }
    }

    /// Bit-exact scalar add on raw codes, plus the [`Event8`] status the
    /// op raised.
    #[must_use]
    pub fn add_scalar_events(self, a: u8, b: u8) -> (u8, Event8) {
        match self {
            Self::Posit8 => {
                let x = Posit::from_bits(u64::from(a), PositFormat::POSIT8);
                let y = Posit::from_bits(u64::from(b), PositFormat::POSIT8);
                let (r, ev) = x.add_with_events(y);
                (r.bits() as u8, Event8::from_posit(ev))
            }
            Self::E4m3 | Self::E5m2 => {
                let fmt = self.float_format();
                let x = SoftFloat::from_bits(u64::from(a), fmt);
                let y = SoftFloat::from_bits(u64::from(b), fmt);
                let (r, fl) = x.add_with_flags(y);
                (r.bits() as u8, Event8::from_flags(fl))
            }
            Self::Fixed8 => {
                let fmt = Self::fixed_format();
                let x = fixed_from_code(a, fmt);
                let y = fixed_from_code(b, fmt);
                let r = x.checked_add_with_events(y);
                debug_assert!(r.is_ok(), "same-format saturating add cannot fail");
                r.map_or((0, Event8::NONE), |(r, ev)| {
                    (r.raw() as u8, Event8::from_fixed(ev))
                })
            }
        }
    }

    // lint: allow-start(no-host-float): decode/encode are the declared
    // host<->code conversion boundary; table seeds use mul_scalar_events
    // / add_scalar_events, which stay on raw codes.
    /// Decodes a raw code to its real value (NaR and NaN map to NaN).
    #[must_use]
    pub fn decode(self, code: u8) -> f64 {
        match self {
            Self::Posit8 => Posit::from_bits(u64::from(code), PositFormat::POSIT8).to_f64(),
            Self::E4m3 | Self::E5m2 => {
                SoftFloat::from_bits(u64::from(code), self.float_format()).to_f64()
            }
            Self::Fixed8 => fixed_from_code(code, Self::fixed_format()).to_f64(),
        }
    }

    /// Encodes a real value (round to nearest even; saturating where the
    /// format saturates; NaN maps to NaR/NaN or 0 for fixed point).
    #[must_use]
    pub fn encode(self, x: f64) -> u8 {
        match self {
            Self::Posit8 => Posit::from_f64(x, PositFormat::POSIT8).bits() as u8,
            Self::E4m3 | Self::E5m2 => SoftFloat::from_f64(x, self.float_format()).bits() as u8,
            Self::Fixed8 => {
                let fmt = Self::fixed_format();
                if x.is_nan() {
                    return 0;
                }
                let clamped = x.clamp(fmt.min_value(), fmt.max_value());
                let enc = Fixed::from_f64(clamped, fmt, RoundingMode::NearestEven);
                debug_assert!(enc.is_ok(), "clamped value is finite");
                enc.map_or(0, |f| f.raw() as u8)
            }
        }
    }
    // lint: allow-end(no-host-float)
}

/// Q4.4 value from its raw two's-complement byte. Every `i8` is in range
/// for Q4.4, so the zero fallback is unreachable.
fn fixed_from_code(code: u8, fmt: FixedFormat) -> Fixed {
    Fixed::from_raw(i128::from(code as i8), fmt).unwrap_or_else(|_| Fixed::zero(fmt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posit8_known_codes() {
        assert_eq!(Format8::Posit8.decode(0x40), 1.0);
        assert_eq!(Format8::Posit8.encode(1.0), 0x40);
        assert!(Format8::Posit8.decode(0x80).is_nan(), "NaR decodes to NaN");
        assert_eq!(Format8::Posit8.mul_scalar_events(0x40, 0x40).0, 0x40, "1*1 = 1");
    }

    #[test]
    fn fixed8_is_q4_4() {
        assert_eq!(Format8::Fixed8.decode(0x10), 1.0);
        assert_eq!(Format8::Fixed8.decode(0xF0), -1.0);
        assert_eq!(Format8::Fixed8.encode(0.5), 0x08);
        // Saturation: 8 * 8 clamps to the max raw 0x7F = 7.9375.
        assert_eq!(Format8::Fixed8.mul_scalar_events(0x7F, 0x7F).0, 0x7F);
    }

    #[test]
    fn fp8_zero_and_one() {
        for fmt in [Format8::E4m3, Format8::E5m2] {
            let one = fmt.encode(1.0);
            assert_eq!(fmt.decode(one), 1.0);
            assert_eq!(fmt.add_scalar_events(0, one).0, one, "0 + 1 = 1");
            assert_eq!(fmt.mul_scalar_events(one, one).0, one, "1 * 1 = 1");
        }
    }

    #[test]
    fn round_trip_all_finite_codes() {
        for fmt in Format8::ALL {
            for code in 0..=255u8 {
                let v = fmt.decode(code);
                if v.is_finite() {
                    let back = fmt.encode(v);
                    // ±0 may canonicalise, otherwise re-encoding is exact.
                    assert_eq!(
                        fmt.decode(back),
                        v,
                        "{} code {code:#04x} round-trips",
                        fmt.id()
                    );
                }
            }
        }
    }
}
