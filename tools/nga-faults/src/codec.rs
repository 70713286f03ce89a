//! The formats under fault study and their f32 ⇄ code round-trips.
//!
//! This module is a declared host-float boundary (nga-lint's
//! `ALLOWLIST`): it exists to carry values between the host f32 world of
//! the DNN substrate and the bit-exact encodings whose bits the injector
//! flips. The encode and decode directions both go through the
//! workspace's bit-exact implementations — no host rounding decision is
//! made here.

use nga_core::{Posit, PositFormat};
use nga_fixed::{Fixed, FixedFormat, RoundingMode};
use nga_softfloat::{FloatFormat, SoftFloat};

/// A number format whose encoded values the injector can upset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatKind {
    /// posit⟨8,0⟩.
    Posit8,
    /// posit⟨16,1⟩.
    Posit16,
    /// FP8 E4M3.
    E4m3,
    /// FP8 E5M2.
    E5m2,
    /// bfloat16.
    Bfloat16,
    /// IEEE 754 binary16.
    Binary16,
    /// Q4.4 signed fixed point.
    Q44,
}

impl FormatKind {
    /// Every format, in fixed report order.
    pub const ALL: [Self; 7] = [
        Self::Posit8,
        Self::Posit16,
        Self::E4m3,
        Self::E5m2,
        Self::Bfloat16,
        Self::Binary16,
        Self::Q44,
    ];

    /// Stable identifier used in report JSON and task names.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Self::Posit8 => "posit8",
            Self::Posit16 => "posit16",
            Self::E4m3 => "e4m3",
            Self::E5m2 => "e5m2",
            Self::Bfloat16 => "bfloat16",
            Self::Binary16 => "binary16",
            Self::Q44 => "q4.4",
        }
    }

    /// Code width in bits (the injector flips bits `0..bits`).
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Self::Posit8 | Self::E4m3 | Self::E5m2 | Self::Q44 => 8,
            Self::Posit16 | Self::Bfloat16 | Self::Binary16 => 16,
        }
    }

    fn float_format(self) -> Option<FloatFormat> {
        match self {
            Self::E4m3 => Some(FloatFormat::FP8_E4M3),
            Self::E5m2 => Some(FloatFormat::FP8_E5M2),
            Self::Bfloat16 => Some(FloatFormat::BFLOAT16),
            Self::Binary16 => Some(FloatFormat::BINARY16),
            _ => None,
        }
    }

    fn posit_format(self) -> Option<PositFormat> {
        match self {
            Self::Posit8 => Some(PositFormat::POSIT8),
            Self::Posit16 => Some(PositFormat::POSIT16),
            _ => None,
        }
    }

    /// Encodes a host float into this format's code (round to nearest).
    #[must_use]
    pub fn encode(self, x: f32) -> u16 {
        if let Some(fmt) = self.posit_format() {
            return Posit::from_f64(f64::from(x), fmt).bits() as u16;
        }
        if let Some(fmt) = self.float_format() {
            return SoftFloat::from_f64(f64::from(x), fmt).bits() as u16;
        }
        // Q4.4: no special values — NaN maps to zero, the rest saturates.
        let fmt = FixedFormat::Q4_4;
        let clamped = if x.is_nan() {
            0.0
        } else {
            f64::from(x).clamp(fmt.min_value(), fmt.max_value())
        };
        Fixed::from_f64(clamped, fmt, RoundingMode::NearestEven)
            .map_or(0, |v| (v.raw() as i8 as u8).into())
    }

    /// Decodes a code back to a host float; NaR and NaN map to f32::NAN
    /// so downstream NaN-aware layers see poisoned lanes.
    #[must_use]
    pub fn decode(self, code: u16) -> f32 {
        if let Some(fmt) = self.posit_format() {
            let p = Posit::from_bits(u64::from(code), fmt);
            return if p.is_nar() { f32::NAN } else { p.to_f64() as f32 };
        }
        if let Some(fmt) = self.float_format() {
            return SoftFloat::from_bits(u64::from(code), fmt).to_f64() as f32;
        }
        let raw = i128::from(code as u8 as i8);
        Fixed::from_raw(raw, FixedFormat::Q4_4).map_or(0.0, |v| v.to_f64() as f32)
    }

    /// Whether a code is the format's poisoned value (posit NaR or IEEE
    /// NaN). Q4.4 has no special encodings.
    #[must_use]
    pub fn is_special(self, code: u16) -> bool {
        if let Some(fmt) = self.posit_format() {
            return Posit::from_bits(u64::from(code), fmt).is_nar();
        }
        if let Some(fmt) = self.float_format() {
            return SoftFloat::from_bits(u64::from(code), fmt).is_nan();
        }
        false
    }

    /// Round-trips a host float through this format (quantization without
    /// faults).
    #[must_use]
    pub fn roundtrip(self, x: f32) -> f32 {
        self.decode(self.encode(x))
    }

    /// `a × b` computed in this format (codes in, code out) — the operand
    /// micro-sweep's unit of work.
    #[must_use]
    pub fn mul_code(self, a: u16, b: u16) -> u16 {
        if let Some(fmt) = self.posit_format() {
            let x = Posit::from_bits(u64::from(a), fmt);
            let y = Posit::from_bits(u64::from(b), fmt);
            return x.mul(y).bits() as u16;
        }
        if let Some(fmt) = self.float_format() {
            let x = SoftFloat::from_bits(u64::from(a), fmt);
            let y = SoftFloat::from_bits(u64::from(b), fmt);
            return x.mul(y).bits() as u16;
        }
        let fmt = FixedFormat::Q4_4;
        let x = Fixed::from_raw(i128::from(a as u8 as i8), fmt);
        let y = Fixed::from_raw(i128::from(b as u8 as i8), fmt);
        let (Ok(x), Ok(y)) = (x, y) else { return 0 };
        x.mul_exact(&y)
            .and_then(|wide| {
                wide.convert(
                    fmt,
                    RoundingMode::NearestEven,
                    nga_fixed::OverflowMode::Saturate,
                )
            })
            .map_or(0, |v| (v.raw() as i8 as u8).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_idempotent_for_all_formats() {
        for fmt in FormatKind::ALL {
            for &x in &[0.0f32, 1.0, -1.5, 0.0625, 3.75, -7.5] {
                let once = fmt.roundtrip(x);
                let twice = fmt.roundtrip(once);
                assert_eq!(once.to_bits(), twice.to_bits(), "{} on {x}", fmt.id());
            }
            // Exact small values survive every format.
            assert_eq!(fmt.roundtrip(1.0), 1.0, "{}", fmt.id());
            assert_eq!(fmt.roundtrip(0.0), 0.0, "{}", fmt.id());
        }
    }

    #[test]
    fn specials_decode_to_nan() {
        assert!(FormatKind::Posit8.decode(0x80).is_nan());
        assert!(FormatKind::Posit16.decode(0x8000).is_nan());
        assert!(FormatKind::Posit8.is_special(0x80));
        assert!(!FormatKind::Posit8.is_special(0x40));
        let nan16 = FormatKind::Binary16.encode(f32::NAN);
        assert!(FormatKind::Binary16.is_special(nan16));
        assert!(FormatKind::Binary16.decode(nan16).is_nan());
        assert!(!FormatKind::Q44.is_special(0x80), "Q4.4 has no specials");
    }

    #[test]
    fn mul_code_matches_roundtrip_products_on_exact_cases() {
        for fmt in FormatKind::ALL {
            let a = fmt.encode(1.5);
            let b = fmt.encode(2.0);
            let prod = fmt.decode(fmt.mul_code(a, b));
            assert_eq!(prod, 3.0, "{}: 1.5 * 2 = 3", fmt.id());
        }
    }

    #[test]
    fn eight_bit_formats_report_eight_bits() {
        for fmt in FormatKind::ALL {
            let max_code = (1u32 << fmt.bits()) - 1;
            // Encoding stays within the declared width.
            for &x in &[100.0f32, -100.0, 0.001] {
                assert!(u32::from(fmt.encode(x)) <= max_code, "{}", fmt.id());
            }
        }
    }
}
