//! Posit operation event reporting.
//!
//! Posits have no IEEE exception flags — the format's pitch (§V of the
//! paper) is that the *only* special value is NaR and the only rounding
//! surprise is saturation at `maxpos`/`minpos`. For robustness accounting
//! on edge devices that is still information worth surfacing: a NaR that
//! appears mid-inference poisons every downstream MAC, and silent
//! saturation is exactly the failure mode fixed-point designers audit for.
//! This module mirrors `nga_softfloat::Flags` with the three events a
//! posit operation can raise.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Events raised by a single posit operation.
///
/// ```
/// use nga_core::{Posit, PositEvents, PositFormat};
/// let p8 = PositFormat::POSIT8;
/// let (r, ev) = Posit::one(p8).div_with_events(Posit::zero(p8));
/// assert!(r.is_nar());
/// assert!(ev.contains(PositEvents::NAR));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PositEvents(u8);

impl PositEvents {
    /// No event: the result is exact and real.
    pub const NONE: Self = Self(0);
    /// NaR was *produced* from non-NaR inputs (division by zero, square
    /// root of a negative). Propagating an input NaR does not raise this.
    pub const NAR: Self = Self(1);
    /// The result was rounded (any discarded nonzero bits).
    pub const INEXACT: Self = Self(2);
    /// The rounder saturated at `maxpos` or `minpos` instead of
    /// overflowing/underflowing — posit's replacement for the IEEE
    /// overflow/underflow exceptions.
    pub const SATURATED: Self = Self(4);

    /// Whether all events in `other` are set in `self`.
    #[must_use]
    pub fn contains(&self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no event is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Raw bits (bit 0 = NaR, bit 1 = inexact, bit 2 = saturated).
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.0
    }
}

impl BitOr for PositEvents {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl BitOrAssign for PositEvents {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for PositEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let names = [
            (Self::NAR, "nar"),
            (Self::INEXACT, "inexact"),
            (Self::SATURATED, "saturated"),
        ];
        let mut first = true;
        for (ev, name) in names {
            if self.contains(ev) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_union_and_display() {
        let ev = PositEvents::INEXACT | PositEvents::SATURATED;
        assert!(ev.contains(PositEvents::INEXACT));
        assert!(!ev.contains(PositEvents::NAR));
        assert_eq!(ev.to_string(), "inexact|saturated");
        assert_eq!(PositEvents::NONE.to_string(), "-");
    }
}
