//! The 22 IEEE 754-2008 §5.11 comparison predicates.
//!
//! The paper (§V) uses the count of mandated comparison predicates — 22,
//! because NaN compares *unordered* to everything including itself, and
//! each relation needs quiet and signaling flavours — as evidence for the
//! circuit cost of float comparison versus the posit scheme, where a plain
//! two's-complement integer compare suffices.

use crate::flags::Flags;
use crate::value::SoftFloat;

/// The four mutually exclusive IEEE comparison relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `a < b`.
    Less,
    /// `a == b` (includes `-0 == +0`).
    Equal,
    /// `a > b`.
    Greater,
    /// At least one operand is NaN.
    Unordered,
}

/// One of the 22 comparison predicates of IEEE 754-2008 Table 5.1–5.3.
///
/// Quiet predicates signal invalid only on *signaling* NaN inputs; the
/// signaling flavours signal invalid on any NaN input. The `NotGreater` /
/// `LessUnordered` style predicates exist because negating a predicate
/// flips its behaviour on unordered pairs — a subtlety with no posit
/// counterpart.
///
/// ```
/// use nga_softfloat::{ComparisonPredicate, FloatFormat, SoftFloat};
/// let f16 = FloatFormat::BINARY16;
/// let nan = SoftFloat::quiet_nan(f16);
/// let one = SoftFloat::one(f16);
/// // NaN != NaN is *true* under the quiet not-equal predicate:
/// let (res, _) = ComparisonPredicate::QuietNotEqual.evaluate(nan, nan);
/// assert!(res);
/// let (res, _) = ComparisonPredicate::QuietEqual.evaluate(nan, nan);
/// assert!(!res);
/// let (res, _) = ComparisonPredicate::QuietLess.evaluate(one, nan);
/// assert!(!res, "all ordered relations are false against NaN");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[expect(
    missing_docs,
    reason = "variants follow the standard's naming scheme 1:1"
)]
pub enum ComparisonPredicate {
    // Table 5.1: quiet relations.
    QuietEqual,
    QuietNotEqual,
    // Table 5.2: signaling relations.
    SignalingEqual,
    SignalingGreater,
    SignalingGreaterEqual,
    SignalingLess,
    SignalingLessEqual,
    SignalingNotEqual,
    SignalingNotGreater,
    SignalingLessUnordered,
    SignalingNotLess,
    SignalingGreaterUnordered,
    // Table 5.3: quiet relations (continued).
    QuietGreater,
    QuietGreaterEqual,
    QuietLess,
    QuietLessEqual,
    QuietUnordered,
    QuietNotGreater,
    QuietLessUnordered,
    QuietNotLess,
    QuietGreaterUnordered,
    QuietOrdered,
}

impl ComparisonPredicate {
    /// All 22 predicates, in the standard's table order.
    pub const ALL: [Self; 22] = [
        Self::QuietEqual,
        Self::QuietNotEqual,
        Self::SignalingEqual,
        Self::SignalingGreater,
        Self::SignalingGreaterEqual,
        Self::SignalingLess,
        Self::SignalingLessEqual,
        Self::SignalingNotEqual,
        Self::SignalingNotGreater,
        Self::SignalingLessUnordered,
        Self::SignalingNotLess,
        Self::SignalingGreaterUnordered,
        Self::QuietGreater,
        Self::QuietGreaterEqual,
        Self::QuietLess,
        Self::QuietLessEqual,
        Self::QuietUnordered,
        Self::QuietNotGreater,
        Self::QuietLessUnordered,
        Self::QuietNotLess,
        Self::QuietGreaterUnordered,
        Self::QuietOrdered,
    ];

    /// Whether this predicate signals invalid on *quiet* NaN operands too.
    #[must_use]
    pub fn is_signaling(&self) -> bool {
        matches!(
            self,
            Self::SignalingEqual
                | Self::SignalingGreater
                | Self::SignalingGreaterEqual
                | Self::SignalingLess
                | Self::SignalingLessEqual
                | Self::SignalingNotEqual
                | Self::SignalingNotGreater
                | Self::SignalingLessUnordered
                | Self::SignalingNotLess
                | Self::SignalingGreaterUnordered
        )
    }

    /// Evaluates the predicate, returning `(result, flags)`.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn evaluate(&self, a: SoftFloat, b: SoftFloat) -> (bool, Flags) {
        let rel = compare_values(a, b);
        let nan_involved = rel == Relation::Unordered;
        let signaling_nan = a.is_signaling_nan() || b.is_signaling_nan();
        let invalid = if self.is_signaling() {
            nan_involved
        } else {
            signaling_nan
        };
        let flags = if invalid { Flags::INVALID } else { Flags::NONE };
        use Relation::{Equal, Greater, Less, Unordered};
        let result = match self {
            Self::QuietEqual | Self::SignalingEqual => rel == Equal,
            Self::QuietNotEqual | Self::SignalingNotEqual => rel != Equal,
            Self::QuietGreater | Self::SignalingGreater => rel == Greater,
            Self::QuietGreaterEqual | Self::SignalingGreaterEqual => rel == Greater || rel == Equal,
            Self::QuietLess | Self::SignalingLess => rel == Less,
            Self::QuietLessEqual | Self::SignalingLessEqual => rel == Less || rel == Equal,
            Self::QuietUnordered => rel == Unordered,
            Self::QuietOrdered => rel != Unordered,
            Self::QuietNotGreater | Self::SignalingNotGreater => rel != Greater,
            Self::QuietNotLess | Self::SignalingNotLess => rel != Less,
            Self::QuietLessUnordered | Self::SignalingLessUnordered => {
                rel == Less || rel == Unordered
            }
            Self::QuietGreaterUnordered | Self::SignalingGreaterUnordered => {
                rel == Greater || rel == Unordered
            }
        };
        (result, flags)
    }
}

/// The four-way IEEE comparison relation between two values.
///
/// # Panics
///
/// Panics if the operand formats differ.
#[must_use]
pub(crate) fn compare_values(a: SoftFloat, b: SoftFloat) -> Relation {
    assert_eq!(a.format(), b.format(), "mixed-format compare");
    if a.is_nan() || b.is_nan() {
        return Relation::Unordered;
    }
    if a.is_zero() && b.is_zero() {
        return Relation::Equal; // -0 == +0
    }
    let (ka, kb) = (a.total_order_key(), b.total_order_key());
    // total_order_key separates -0 (key -1) from +0 (key 0); the zero case
    // above already folded them, and infinities order correctly.
    match ka.cmp(&kb) {
        std::cmp::Ordering::Less => Relation::Less,
        std::cmp::Ordering::Equal => Relation::Equal,
        std::cmp::Ordering::Greater => Relation::Greater,
    }
}

impl SoftFloat {
    /// The IEEE comparison relation between `self` and `rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the operand formats differ.
    #[must_use]
    pub fn compare(&self, rhs: Self) -> Relation {
        compare_values(*self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FloatFormat;

    const F16: FloatFormat = FloatFormat::BINARY16;

    fn f(x: f64) -> SoftFloat {
        SoftFloat::from_f64(x, F16)
    }

    #[test]
    fn there_are_22_predicates() {
        assert_eq!(ComparisonPredicate::ALL.len(), 22);
    }

    #[test]
    fn relation_basic() {
        assert_eq!(f(1.0).compare(f(2.0)), Relation::Less);
        assert_eq!(f(2.0).compare(f(1.0)), Relation::Greater);
        assert_eq!(f(1.5).compare(f(1.5)), Relation::Equal);
        assert_eq!(f(0.0).compare(f(0.0).neg()), Relation::Equal);
        assert_eq!(
            SoftFloat::quiet_nan(F16).compare(f(1.0)),
            Relation::Unordered
        );
    }

    #[test]
    fn infinities_order_at_the_extremes() {
        let inf = SoftFloat::infinity(false, F16);
        let ninf = SoftFloat::infinity(true, F16);
        assert_eq!(ninf.compare(f(-65504.0)), Relation::Less);
        assert_eq!(inf.compare(f(65504.0)), Relation::Greater);
        assert_eq!(inf.compare(inf), Relation::Equal);
    }

    #[test]
    fn quiet_predicates_signal_only_on_snan() {
        let qnan = SoftFloat::quiet_nan(F16);
        let snan = SoftFloat::signaling_nan(F16);
        let one = f(1.0);
        let (_, fl) = ComparisonPredicate::QuietEqual.evaluate(qnan, one);
        assert!(fl.is_empty());
        let (_, fl) = ComparisonPredicate::QuietEqual.evaluate(snan, one);
        assert!(fl.contains(Flags::INVALID));
    }

    #[test]
    fn signaling_predicates_signal_on_any_nan() {
        let qnan = SoftFloat::quiet_nan(F16);
        let one = f(1.0);
        let (res, fl) = ComparisonPredicate::SignalingLess.evaluate(one, qnan);
        assert!(!res);
        assert!(fl.contains(Flags::INVALID));
    }

    #[test]
    fn negation_pairs_differ_exactly_on_unordered() {
        // The reason 22 predicates exist: !(a < b) is not (a >= b) when NaN
        // is involved. Check all pairs against their complements.
        let nan = SoftFloat::quiet_nan(F16);
        let one = f(1.0);
        let (lt, _) = ComparisonPredicate::QuietLess.evaluate(one, nan);
        let (ge, _) = ComparisonPredicate::QuietGreaterEqual.evaluate(one, nan);
        let (not_lt, _) = ComparisonPredicate::QuietNotLess.evaluate(one, nan);
        assert!(!lt && !ge, "both ordered relations false vs NaN");
        assert!(not_lt, "NotLess is true vs NaN");
    }

    #[test]
    fn predicate_truth_table_on_ordered_pair() {
        use ComparisonPredicate as P;
        let a = f(1.0);
        let b = f(2.0);
        let expect_true = [
            P::QuietNotEqual,
            P::SignalingNotEqual,
            P::QuietLess,
            P::SignalingLess,
            P::QuietLessEqual,
            P::SignalingLessEqual,
            P::QuietNotGreater,
            P::SignalingNotGreater,
            P::QuietLessUnordered,
            P::SignalingLessUnordered,
            P::QuietOrdered,
        ];
        for p in ComparisonPredicate::ALL {
            let (res, fl) = p.evaluate(a, b);
            assert_eq!(res, expect_true.contains(&p), "{p:?} on 1 < 2");
            assert!(fl.is_empty());
        }
    }

    #[test]
    fn nan_is_not_equal_to_itself() {
        let nan = SoftFloat::quiet_nan(F16);
        let (eq, _) = ComparisonPredicate::QuietEqual.evaluate(nan, nan);
        let (ne, _) = ComparisonPredicate::QuietNotEqual.evaluate(nan, nan);
        assert!(!eq);
        assert!(ne);
    }
}
