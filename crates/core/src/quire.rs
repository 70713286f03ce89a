//! The quire: an exact fixed-point accumulator for posit dot products.
//!
//! §V sketches how a 16-bit posit expands into a 58-bit signed fixed-point
//! value; the quire is that idea applied to *sums of products*: a two's-
//! complement register wide enough to hold any product of two posits
//! exactly (LSB weight `minpos²`, MSB above `maxpos²`) plus carry guard
//! bits, so that dot products of practical length accumulate with *no
//! rounding at all* until the final conversion back to posit.
//!
//! Widths follow the classic scheme (`n²/2`): 32 bits for posit8, 128 for
//! posit16, 512 for posit32.

use std::fmt;

use crate::format::PositFormat;
use crate::posit::Posit;

/// Right-shift with sticky (shared with the arithmetic core).
#[must_use]
pub(crate) fn shift_right_sticky(sig: u128, k: u32) -> u128 {
    if k == 0 {
        sig
    } else if k >= 128 {
        u128::from(sig != 0)
    } else {
        let dropped = sig & ((1u128 << k) - 1);
        (sig >> k) | u128::from(dropped != 0)
    }
}

/// An exact dot-product accumulator for one [`PositFormat`].
///
/// ```
/// use nga_core::{Posit, PositFormat, Quire};
///
/// let p16 = PositFormat::POSIT16;
/// let mut q = Quire::new(p16);
/// // Accumulate minpos^2 a million times: floats would flush each term;
/// // the quire keeps every bit.
/// let minpos = Posit::minpos(p16);
/// for _ in 0..1000 {
///     q.add_product(minpos, minpos);
/// }
/// let s = q.to_posit();
/// assert!(s.to_f64() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quire {
    /// Two's-complement register, little-endian 64-bit words.
    words: Vec<u64>,
    format: PositFormat,
    /// Sticky NaR: once an exception enters, the quire stays NaR.
    nar: bool,
}

impl Quire {
    /// Number of carry guard bits above the `maxpos²` position.
    const CARRY_BITS: u32 = 30;

    /// Creates an empty (zero) quire for `format`.
    #[must_use]
    pub fn new(format: PositFormat) -> Self {
        let value_bits = 4 * format.max_scale() as u32 + 2;
        let total = value_bits + Self::CARRY_BITS;
        let words = vec![0u64; total.div_ceil(64) as usize];
        Self {
            words,
            format,
            nar: false,
        }
    }

    /// The posit format this quire accumulates.
    #[must_use]
    pub fn format(&self) -> PositFormat {
        self.format
    }

    /// Width of the register in bits.
    #[must_use]
    pub fn width_bits(&self) -> u32 {
        self.words.len() as u32 * 64
    }

    /// Weight of the register's least-significant bit: `log2(minpos²)`.
    #[must_use]
    pub fn lsb_weight(&self) -> i32 {
        -2 * self.format.max_scale()
    }

    /// Whether the quire has absorbed a NaR.
    #[must_use]
    pub fn is_nar(&self) -> bool {
        self.nar
    }

    /// Whether the register is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        !self.nar && self.words.iter().all(|&w| w == 0)
    }

    /// Resets to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.nar = false;
    }

    /// Accumulates the exact product `a * b` (a fused dot-product step).
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ from the quire's.
    pub fn add_product(&mut self, a: Posit, b: Posit) {
        self.mac(a, b, false);
    }

    /// Subtracts the exact product `a * b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ from the quire's.
    pub fn sub_product(&mut self, a: Posit, b: Posit) {
        self.mac(a, b, true);
    }

    /// Accumulates a single posit value exactly.
    ///
    /// # Panics
    ///
    /// Panics if the operand format differs from the quire's.
    pub fn add_posit(&mut self, p: Posit) {
        self.mac(p, Posit::one(self.format), false);
    }

    fn mac(&mut self, a: Posit, b: Posit, negate: bool) {
        assert_eq!(a.format(), self.format, "mixed-format quire accumulate");
        assert_eq!(b.format(), self.format, "mixed-format quire accumulate");
        if a.is_nar() || b.is_nar() {
            self.nar = true;
            return;
        }
        if a.is_zero() || b.is_zero() {
            return;
        }
        let (Some(ua), Some(ub)) = (a.unpack(), b.unpack()) else {
            // NaR/zero were dispatched above; poison the quire rather
            // than panic if decode ever fails.
            self.nar = true;
            return;
        };
        let prod = ua.sig as u128 * ub.sig as u128;
        let pos = ua.exp + ub.exp - self.lsb_weight();
        debug_assert!(pos >= 0, "product LSB below quire LSB");
        let negative = (ua.sign ^ ub.sign) ^ negate;
        if negative {
            self.ripple_at(prod, pos as u32, u64::overflowing_sub);
        } else {
            self.ripple_at(prod, pos as u32, u64::overflowing_add);
        }
    }

    /// Adds (`op` = `u64::overflowing_add`) or subtracts
    /// (`u64::overflowing_sub`) `value << pos` to or from the register,
    /// rippling the carry or borrow upwards (two's-complement wrap beyond
    /// the carry guard — unreachable in fewer than 2^30 accumulations).
    fn ripple_at(&mut self, value: u128, pos: u32, op: impl Fn(u64, u64) -> (u64, bool)) {
        let (w, b) = ((pos / 64) as usize, pos % 64);
        let lo = value << b; // up to 192 bits across three words
        let hi = if b == 0 { 0 } else { value >> (128 - b) };
        let mut parts = [lo as u64, (lo >> 64) as u64, hi as u64].into_iter();
        let mut carry = 0u64;
        for word in self.words.iter_mut().skip(w) {
            let p = match parts.next() {
                Some(p) => p,
                None if carry == 0 => break,
                None => 0,
            };
            let (r1, c1) = op(*word, p);
            let (r2, c2) = op(r1, carry);
            *word = r2;
            carry = u64::from(c1) + u64::from(c2);
        }
    }

    /// Rounds the accumulated value to the nearest posit (the only rounding
    /// in an entire quire-based dot product).
    #[must_use]
    pub fn to_posit(&self) -> Posit {
        if self.nar {
            return Posit::nar(self.format);
        }
        let top = self.words.last().copied().unwrap_or(0);
        let negative = top >> 63 == 1;
        // Magnitude in two's complement.
        let mag: Vec<u64> = if negative {
            let mut carry = 1u64;
            self.words
                .iter()
                .map(|&w| {
                    let (v, c) = (!w).overflowing_add(carry);
                    carry = u64::from(c);
                    v
                })
                .collect()
        } else {
            self.words.clone()
        };
        // Find the most significant set bit.
        let Some((msw, top_word)) = mag.iter().enumerate().rfind(|&(_, &w)| w != 0) else {
            return Posit::zero(self.format);
        };
        let msb_in_word = 63 - top_word.leading_zeros();
        let msb_pos = msw as u32 * 64 + msb_in_word;
        // Collect the bit window [lo_pos, msb_pos] (at most 128 bits) into
        // `sig`; everything below lo_pos collapses into a sticky bit.
        let lo_pos = msb_pos.saturating_sub(127);
        let mut sig: u128 = 0;
        let mut sticky = false;
        for (i, &w) in mag.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let base = i as u32 * 64;
            if base + 64 <= lo_pos {
                sticky = true; // whole word below the window
            } else if base >= lo_pos {
                sig |= (w as u128) << (base - lo_pos);
            } else {
                let cut = lo_pos - base; // 1..=63
                if w & ((1u64 << cut) - 1) != 0 {
                    sticky = true;
                }
                sig |= (w >> cut) as u128;
            }
        }
        sig |= u128::from(sticky);
        let exp = lo_pos as i32 + self.lsb_weight();
        Posit::from_parts(negative, sig, exp, self.format)
    }
}

impl fmt::Display for Quire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nar {
            write!(f, "quire(NaR)")
        } else {
            write!(f, "quire({})", self.to_posit())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P8: PositFormat = PositFormat::POSIT8;
    const P16: PositFormat = PositFormat::POSIT16;

    #[test]
    fn widths_follow_the_classic_scheme() {
        assert_eq!(Quire::new(P8).width_bits(), 64); // >= 32 (one word)
        assert_eq!(Quire::new(P16).width_bits(), 192); // >= 114 + 30
        assert!(Quire::new(PositFormat::POSIT32).width_bits() >= 482 + 30);
    }

    #[test]
    fn empty_quire_is_zero() {
        let q = Quire::new(P16);
        assert!(q.is_zero());
        assert!(q.to_posit().is_zero());
    }

    #[test]
    fn single_product_round_trips() {
        let mut q = Quire::new(P16);
        let a = Posit::from_f64(3.0, P16);
        let b = Posit::from_f64(0.5, P16);
        q.add_product(a, b);
        assert_eq!(q.to_posit().to_f64(), 1.5);
    }

    #[test]
    fn accumulation_is_exact_where_posit_add_is_not() {
        // Sum (2^-20)^2 2^16 times: each term is 2^-40, far below the
        // point where chained posit16 adds stall (x + tiny rounds back to
        // x); the true sum 2^-24 is exactly representable.
        let mut q = Quire::new(P16);
        let t = Posit::from_f64((2.0f64).powi(-20), P16);
        for _ in 0..(1 << 16) {
            q.add_product(t, t);
        }
        assert_eq!(q.to_posit().to_f64(), (2.0f64).powi(-24));
        // The same accumulation by chained posit ops is badly wrong: each
        // product 2^-40 rounds up to minpos = 2^-28 before the add, so 100
        // terms land ~4096x too high.
        let mut acc = Posit::zero(P16);
        for _ in 0..100 {
            acc = acc.add(t.mul(t));
        }
        let true_sum = 100.0 * (2.0f64).powi(-40);
        assert!(
            acc.to_f64() > 100.0 * true_sum,
            "rounded accumulation blows up"
        );
        // ... and then stalls: the gap around acc exceeds the addend.
        assert_eq!(acc.add(t.mul(t)).bits(), acc.bits());
    }

    #[test]
    fn cancellation_is_exact() {
        let mut q = Quire::new(P16);
        let big = Posit::from_f64(1.0e6, P16);
        let one = Posit::one(P16);
        q.add_product(big, big);
        q.add_product(one, one);
        q.sub_product(big, big);
        assert_eq!(q.to_posit().to_f64(), 1.0);
    }

    #[test]
    fn nar_is_sticky() {
        let mut q = Quire::new(P16);
        q.add_posit(Posit::one(P16));
        q.add_product(Posit::nar(P16), Posit::one(P16));
        assert!(q.is_nar());
        assert!(q.to_posit().is_nar());
        q.add_posit(Posit::one(P16));
        assert!(q.is_nar(), "NaR never washes out");
        q.clear();
        assert!(q.is_zero());
    }

    #[test]
    fn negative_sums() {
        let mut q = Quire::new(P16);
        q.add_posit(Posit::from_f64(-2.5, P16));
        q.add_posit(Posit::from_f64(1.0, P16));
        assert_eq!(q.to_posit().to_f64(), -1.5);
    }

    #[test]
    fn dot_product_matches_f64_oracle() {
        // Random-ish vectors with exactly representable components.
        let mut s = 0xABCDu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let xs: Vec<Posit> = (0..64)
            .map(|_| Posit::from_bits(next() & 0x7FFF, P16)) // positive reals
            .collect();
        let ys: Vec<Posit> = (0..64)
            .map(|_| Posit::from_bits(next() & 0x7FFF, P16))
            .collect();
        let mut q = Quire::new(P16);
        let mut oracle = 0.0f64;
        for (x, y) in xs.iter().zip(&ys) {
            q.add_product(*x, *y);
            oracle += x.to_f64() * y.to_f64(); // each product exact in f64
        }
        // The quire result is the correctly rounded posit of the exact sum;
        // f64 accumulation of 64 exact products is itself exact enough to
        // identify the nearest posit here (values are within a few decades).
        let got = q.to_posit();
        let want = Posit::from_f64(oracle, P16);
        assert_eq!(got.bits(), want.bits());
    }

    #[test]
    fn quire_add_posit_matches_posit_value() {
        for bits in (0..=0xFFu64).step_by(1) {
            let p = Posit::from_bits(bits, P8);
            if p.is_nar() {
                continue;
            }
            let mut q = Quire::new(P8);
            q.add_posit(p);
            assert_eq!(q.to_posit().bits(), p.bits(), "bits 0x{bits:02x}");
        }
    }

    #[test]
    fn maxpos_squared_fits() {
        let mut q = Quire::new(P16);
        let m = Posit::maxpos(P16);
        q.add_product(m, m);
        // 2^56 saturates back to maxpos (2^28) when rounded to posit16.
        assert_eq!(q.to_posit().bits(), m.bits());
        q.sub_product(m, m);
        assert!(q.is_zero());
    }
}
