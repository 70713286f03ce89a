//! Unified arithmetic status reporting across the 8-bit formats.
//!
//! Each source crate reports its own event vocabulary
//! (`nga_softfloat::Flags`, `nga_core::PositEvents`,
//! `nga_fixed::FixedEvents`); kernels need one byte-sized alphabet so the
//! high byte of one fused value+event table per op covers every format
//! and both execution tiers report identically. [`Event8`] is that
//! alphabet and [`StatusCounters`] the one order-independent accumulator,
//! which the row-banded sweeps merge into.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

use nga_core::PositEvents;
use nga_fixed::FixedEvents;
use nga_softfloat::Flags;

/// Width of one event lane in a packed tally word.
const TALLY_LANE_BITS: u32 = 9;
/// Largest count one lane holds.
const TALLY_LANE_MAX: u64 = (1 << TALLY_LANE_BITS) - 1;
/// The low bit of each of the seven lanes (bits 0, 9, …, 54).
const TALLY_LANE_LSBS: u64 = 1 | 1 << 9 | 1 << 18 | 1 << 27 | 1 << 36 | 1 << 45 | 1 << 54;
/// Operations one packed tally word absorbs before a lane can overflow:
/// each op adds at most one to each lane.
pub(crate) const TALLY_CAPACITY: usize = TALLY_LANE_MAX as usize;

/// Events one 8-bit scalar operation can raise, across all formats.
///
/// IEEE formats use `NAR_NAN` (invalid → NaN), `DIV_BY_ZERO`, `OVERFLOW`,
/// `UNDERFLOW`, `INEXACT`; posits use `NAR_NAN` (NaR produced),
/// `SATURATED` (maxpos/minpos rail), `INEXACT`; Q4.4 uses `SATURATED`,
/// `WRAPPED`, `INEXACT`. The bits fit in a `u8`, so they ride in the high
/// byte of each entry of the op's fused 128 KiB table, beside the result
/// code ([`crate::BinaryTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Event8(u8);

impl Event8 {
    /// No event.
    pub const NONE: Self = Self(0);
    /// NaN (IEEE invalid) or posit NaR produced from clean inputs.
    pub const NAR_NAN: Self = Self(1);
    /// The result was rounded.
    pub const INEXACT: Self = Self(2);
    /// IEEE overflow to infinity.
    pub const OVERFLOW: Self = Self(4);
    /// IEEE underflow (tiny and inexact).
    pub const UNDERFLOW: Self = Self(8);
    /// IEEE division of a finite nonzero value by zero.
    pub const DIV_BY_ZERO: Self = Self(16);
    /// Posit/fixed saturation at the format rails.
    pub const SATURATED: Self = Self(32);
    /// Fixed-point two's-complement wrap.
    pub const WRAPPED: Self = Self(64);

    /// Reconstructs from raw bits (as stored in a fused table entry's high
    /// byte).
    #[inline(always)]
    #[must_use]
    pub fn from_bits(bits: u8) -> Self {
        Self(bits & 0x7F)
    }

    /// Raw bits (bit 0 = NaR/NaN .. bit 6 = wrapped).
    #[inline(always)]
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.0
    }

    /// This event as a lane-packed tally word: bit `i` moves to bit
    /// `9·i`, the low bit of lane `i`. Summing spread words counts each
    /// event in its own lane without a branch; see
    /// [`StatusCounters::record`] and the status matmul workers.
    ///
    /// The multiply places copy `j` of the 7-bit event at bit `8·j`, so
    /// bit `i` of copy `i` lands at `9·i`. Copies are 8 bits apart and the
    /// event is 7 bits wide, so they never overlap or carry.
    #[inline(always)]
    #[must_use]
    pub(crate) fn spread(self) -> u64 {
        (u64::from(self.0) * 0x0001_0101_0101_0101) & TALLY_LANE_LSBS
    }

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

    /// Translates posit events into the unified alphabet.
    #[must_use]
    pub fn from_posit(ev: PositEvents) -> Self {
        let mut e = Self::NONE;
        if ev.contains(PositEvents::NAR) {
            e |= Self::NAR_NAN;
        }
        if ev.contains(PositEvents::INEXACT) {
            e |= Self::INEXACT;
        }
        if ev.contains(PositEvents::SATURATED) {
            e |= Self::SATURATED;
        }
        e
    }

    /// Translates IEEE flags into the unified alphabet.
    #[must_use]
    pub fn from_flags(fl: Flags) -> Self {
        let mut e = Self::NONE;
        if fl.contains(Flags::INVALID) {
            e |= Self::NAR_NAN;
        }
        if fl.contains(Flags::DIV_BY_ZERO) {
            e |= Self::DIV_BY_ZERO;
        }
        if fl.contains(Flags::OVERFLOW) {
            e |= Self::OVERFLOW;
        }
        if fl.contains(Flags::UNDERFLOW) {
            e |= Self::UNDERFLOW;
        }
        if fl.contains(Flags::INEXACT) {
            e |= Self::INEXACT;
        }
        e
    }

    /// Translates fixed-point events into the unified alphabet.
    #[must_use]
    pub fn from_fixed(ev: FixedEvents) -> Self {
        let mut e = Self::NONE;
        if ev.contains(FixedEvents::SATURATED) {
            e |= Self::SATURATED;
        }
        if ev.contains(FixedEvents::WRAPPED) {
            e |= Self::WRAPPED;
        }
        if ev.contains(FixedEvents::ROUNDED) {
            e |= Self::INEXACT;
        }
        e
    }
}

impl BitOr for Event8 {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl BitOrAssign for Event8 {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for Event8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let names = [
            (Self::NAR_NAN, "nar_nan"),
            (Self::INEXACT, "inexact"),
            (Self::OVERFLOW, "overflow"),
            (Self::UNDERFLOW, "underflow"),
            (Self::DIV_BY_ZERO, "div0"),
            (Self::SATURATED, "saturated"),
            (Self::WRAPPED, "wrapped"),
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

/// Per-event operation counters for a kernel sweep.
///
/// Merging is commutative and associative (saturating `u64` sums), so
/// row-banded parallel kernels produce the same totals as serial ones no
/// matter how rows are partitioned — the status analogue of the
/// bit-identical-output guarantee.
///
/// The counts live in an [`nga_obs::OpCounts`], of which only `ops` and
/// the seven event fields are ever set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusCounters(nga_obs::OpCounts);

impl StatusCounters {
    /// All counters zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the events raised by one scalar operation.
    #[inline]
    pub fn record(&mut self, ev: Event8) {
        self.add_tally(1, ev.spread());
    }

    /// Folds `ops` operations whose [`Event8::spread`] words sum to
    /// `tally`: each 9-bit lane adds to its event counter. The caller
    /// keeps `ops ≤ TALLY_CAPACITY` so no lane has carried into the next.
    #[inline]
    pub(crate) fn add_tally(&mut self, ops: u64, tally: u64) {
        let lane = |bit: u32| (tally >> (TALLY_LANE_BITS * bit)) & TALLY_LANE_MAX;
        let c = &mut self.0;
        c.ops = c.ops.saturating_add(ops);
        c.nar_nan = c.nar_nan.saturating_add(lane(0));
        c.inexact = c.inexact.saturating_add(lane(1));
        c.overflow = c.overflow.saturating_add(lane(2));
        c.underflow = c.underflow.saturating_add(lane(3));
        c.div_by_zero = c.div_by_zero.saturating_add(lane(4));
        c.saturated = c.saturated.saturating_add(lane(5));
        c.wrapped = c.wrapped.saturating_add(lane(6));
    }

    /// Fold another accumulator into this one (order-independent).
    pub fn merge(&mut self, other: &Self) {
        self.0.merge(&other.0);
    }

    /// The sticky union: every event raised at least once.
    #[must_use]
    pub fn union(&self) -> Event8 {
        let c = &self.0;
        let mut ev = Event8::NONE;
        if c.nar_nan > 0 {
            ev |= Event8::NAR_NAN;
        }
        if c.inexact > 0 {
            ev |= Event8::INEXACT;
        }
        if c.overflow > 0 {
            ev |= Event8::OVERFLOW;
        }
        if c.underflow > 0 {
            ev |= Event8::UNDERFLOW;
        }
        if c.div_by_zero > 0 {
            ev |= Event8::DIV_BY_ZERO;
        }
        if c.saturated > 0 {
            ev |= Event8::SATURATED;
        }
        if c.wrapped > 0 {
            ev |= Event8::WRAPPED;
        }
        ev
    }

    /// Folds these counters into an observability record:
    /// [`ops`](Self::ops) accumulates into [`nga_obs::OpCounts::ops`] and
    /// each event count into its counterpart field.
    pub fn fold_into_obs(&self, c: &mut nga_obs::OpCounts) {
        c.merge(&self.0);
    }

    /// Operations recorded.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.0.ops
    }

    /// Operations that produced NaN/NaR from clean inputs.
    #[must_use]
    pub fn nar_nan(&self) -> u64 {
        self.0.nar_nan
    }

    /// Operations that rounded.
    #[must_use]
    pub fn inexact(&self) -> u64 {
        self.0.inexact
    }

    /// Operations that overflowed to infinity.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.0.overflow
    }

    /// Operations that underflowed.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.0.underflow
    }

    /// Operations that divided by zero.
    #[must_use]
    pub fn div_by_zero(&self) -> u64 {
        self.0.div_by_zero
    }

    /// Operations that saturated at a format rail.
    #[must_use]
    pub fn saturated(&self) -> u64 {
        self.0.saturated
    }

    /// Operations that wrapped.
    #[must_use]
    pub fn wrapped(&self) -> u64 {
        self.0.wrapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translations_cover_each_vocabulary() {
        let p = Event8::from_posit(PositEvents::NAR | PositEvents::SATURATED);
        assert!(p.contains(Event8::NAR_NAN | Event8::SATURATED));
        let f = Event8::from_flags(Flags::OVERFLOW | Flags::INEXACT);
        assert!(f.contains(Event8::OVERFLOW | Event8::INEXACT));
        assert!(!f.contains(Event8::NAR_NAN));
        let x = Event8::from_fixed(FixedEvents::WRAPPED | FixedEvents::ROUNDED);
        assert!(x.contains(Event8::WRAPPED | Event8::INEXACT));
    }

    #[test]
    fn bits_round_trip() {
        let ev = Event8::DIV_BY_ZERO | Event8::UNDERFLOW;
        assert_eq!(Event8::from_bits(ev.bits()), ev);
        assert_eq!(ev.to_string(), "underflow|div0");
    }

    /// Per-bit reference for one op: what `record` did before the tally.
    fn record_per_bit(StatusCounters(c): &mut StatusCounters, ev: Event8) {
        c.ops += 1;
        let fields = [
            (Event8::NAR_NAN, &mut c.nar_nan),
            (Event8::INEXACT, &mut c.inexact),
            (Event8::OVERFLOW, &mut c.overflow),
            (Event8::UNDERFLOW, &mut c.underflow),
            (Event8::DIV_BY_ZERO, &mut c.div_by_zero),
            (Event8::SATURATED, &mut c.saturated),
            (Event8::WRAPPED, &mut c.wrapped),
        ];
        for (flag, field) in fields {
            *field += u64::from(ev.contains(flag));
        }
    }

    #[test]
    fn packed_tally_matches_per_bit_reference_for_every_event_byte() {
        for bits in 0..=127u8 {
            let ev = Event8::from_bits(bits);
            let mut want = StatusCounters::new();
            record_per_bit(&mut want, ev);
            let mut got = StatusCounters::new();
            got.add_tally(1, ev.spread());
            assert_eq!(got, want, "event byte {bits:#04x}");
            let mut recorded = StatusCounters::new();
            recorded.record(ev);
            assert_eq!(recorded, want, "record {bits:#04x}");
        }
    }

    #[test]
    fn packed_tally_lanes_hold_a_full_capacity_run() {
        // Every op raising every event drives every lane to its maximum.
        let all = Event8::from_bits(0x7F);
        let tally: u64 = (0..TALLY_CAPACITY).map(|_| all.spread()).sum();
        let mut got = StatusCounters::new();
        got.add_tally(TALLY_CAPACITY as u64, tally);
        let mut want = StatusCounters::new();
        for _ in 0..TALLY_CAPACITY {
            record_per_bit(&mut want, all);
        }
        assert_eq!(got, want);
        assert_eq!(got.wrapped(), TALLY_CAPACITY as u64);
        // Mixed events over every byte value, summed in one word.
        let tally: u64 = (0..=127u8).map(|b| Event8::from_bits(b).spread()).sum();
        let mut got = StatusCounters::new();
        got.add_tally(128, tally);
        let mut want = StatusCounters::new();
        for b in 0..=127u8 {
            record_per_bit(&mut want, Event8::from_bits(b));
        }
        assert_eq!(got, want);
        assert_eq!(got.nar_nan(), 64, "half the bytes have bit 0 set");
    }

    #[test]
    fn counters_merge_is_order_independent() {
        let evs = [
            Event8::NONE,
            Event8::NAR_NAN,
            Event8::INEXACT | Event8::SATURATED,
            Event8::OVERFLOW | Event8::INEXACT,
        ];
        let mut serial = StatusCounters::new();
        for ev in evs {
            serial.record(ev);
        }
        let mut a = StatusCounters::new();
        let mut b = StatusCounters::new();
        a.record(evs[2]);
        a.record(evs[0]);
        b.record(evs[3]);
        b.record(evs[1]);
        let mut merged = StatusCounters::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, serial);
        assert_eq!(merged.ops(), 4);
        assert_eq!(merged.inexact(), 2);
    }
}
