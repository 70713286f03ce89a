//! The per-scope counter record.

/// Monotonic operation counters for one scope.
///
/// All fields saturate instead of wrapping, so merges are commutative and
/// a trace can never go backwards. The seven event fields mirror the
/// unified `Event8` alphabet from `nga-kernels` bit for bit (bit 0 =
/// NaR/NaN … bit 6 = wrapped); [`OpCounts::add_event_bits`] folds a raw
/// event byte in without this crate depending on the kernels crate.
///
/// ```
/// use nga_obs::OpCounts;
/// let mut c = OpCounts::default();
/// c.muls = 3;
/// c.add_event_bits(0b10_0001); // NaR/NaN + saturated
/// assert_eq!((c.nar_nan, c.saturated), (1, 1));
/// assert_eq!(c.events_total(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Times the scope was entered (incremented by `span()`).
    pub calls: u64,
    /// Generic work items (explorer candidates, status-counter ops, …).
    pub ops: u64,
    /// Scalar additions performed.
    pub adds: u64,
    /// Scalar multiplications performed.
    pub muls: u64,
    /// Scalar divisions performed.
    pub divs: u64,
    /// Operation-table / MAC-table lookups performed.
    pub lut_hits: u64,
    /// Operations producing NaN/NaR from clean inputs (`Event8` bit 0).
    pub nar_nan: u64,
    /// Operations that rounded (`Event8` bit 1).
    pub inexact: u64,
    /// IEEE overflows to infinity (`Event8` bit 2).
    pub overflow: u64,
    /// IEEE underflows (`Event8` bit 3), and the subnormal velocities
    /// each `nga_nn` network step writes.
    pub underflow: u64,
    /// Divisions of finite nonzero by zero (`Event8` bit 4).
    pub div_by_zero: u64,
    /// Saturations at a format rail (`Event8` bit 5).
    pub saturated: u64,
    /// Two's-complement wraps (`Event8` bit 6).
    pub wrapped: u64,
}

impl OpCounts {
    /// Fold `other` into `self` (saturating, order-independent).
    pub fn merge(&mut self, other: &Self) {
        self.calls = self.calls.saturating_add(other.calls);
        self.ops = self.ops.saturating_add(other.ops);
        self.adds = self.adds.saturating_add(other.adds);
        self.muls = self.muls.saturating_add(other.muls);
        self.divs = self.divs.saturating_add(other.divs);
        self.lut_hits = self.lut_hits.saturating_add(other.lut_hits);
        self.nar_nan = self.nar_nan.saturating_add(other.nar_nan);
        self.inexact = self.inexact.saturating_add(other.inexact);
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.underflow = self.underflow.saturating_add(other.underflow);
        self.div_by_zero = self.div_by_zero.saturating_add(other.div_by_zero);
        self.saturated = self.saturated.saturating_add(other.saturated);
        self.wrapped = self.wrapped.saturating_add(other.wrapped);
    }

    /// Counts `macs` multiply-accumulates (one mul and one add each) and
    /// `lut_hits` table loads.
    #[inline]
    pub fn add_macs(&mut self, macs: u64, lut_hits: u64) {
        self.muls = self.muls.saturating_add(macs);
        self.adds = self.adds.saturating_add(macs);
        self.lut_hits = self.lut_hits.saturating_add(lut_hits);
    }

    /// Fold one raw event byte (the `Event8` bit layout) into the event
    /// counters: each set bit increments its counter by one. Branch-free,
    /// since event bits are data-dependent and mispredict.
    #[inline]
    pub fn add_event_bits(&mut self, bits: u8) {
        let bit = |i: u32| u64::from((bits >> i) & 1);
        self.nar_nan = self.nar_nan.saturating_add(bit(0));
        self.inexact = self.inexact.saturating_add(bit(1));
        self.overflow = self.overflow.saturating_add(bit(2));
        self.underflow = self.underflow.saturating_add(bit(3));
        self.div_by_zero = self.div_by_zero.saturating_add(bit(4));
        self.saturated = self.saturated.saturating_add(bit(5));
        self.wrapped = self.wrapped.saturating_add(bit(6));
    }

    /// Sum of the seven event counters.
    #[must_use]
    pub fn events_total(&self) -> u64 {
        self.nar_nan
            .saturating_add(self.inexact)
            .saturating_add(self.overflow)
            .saturating_add(self.underflow)
            .saturating_add(self.div_by_zero)
            .saturating_add(self.saturated)
            .saturating_add(self.wrapped)
    }

    /// Whether every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_saturates_and_commutes() {
        let mut a = OpCounts {
            muls: u64::MAX - 1,
            ..OpCounts::default()
        };
        let b = OpCounts {
            muls: 5,
            adds: 2,
            ..OpCounts::default()
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.muls, u64::MAX);
        a.merge(&OpCounts::default());
        assert_eq!(a.muls, u64::MAX - 1);
    }

    #[test]
    fn add_macs_counts_a_mul_and_an_add_per_mac() {
        let mut c = OpCounts::default();
        c.add_macs(6, 12);
        c.add_macs(u64::MAX, 0);
        assert_eq!((c.muls, c.adds, c.lut_hits), (u64::MAX, u64::MAX, 12));
        assert_eq!((c.ops, c.calls), (0, 0));
    }

    #[test]
    fn event_bits_map_to_fields() {
        let mut c = OpCounts::default();
        c.add_event_bits(0x7F);
        assert_eq!(c.events_total(), 7);
        assert_eq!(c.wrapped, 1);
        assert_eq!(c.nar_nan, 1);
        c.add_event_bits(0x00);
        assert_eq!(c.events_total(), 7);
        assert!(!c.is_empty());
        assert!(OpCounts::default().is_empty());
    }
}
