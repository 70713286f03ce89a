//! Directed IEEE-754 exception-flag tests on the tricky cases the
//! differential oracle (PR 3) flushed out: signed-zero cancellation,
//! flush-to-zero subnormal handling, and 0 × ∞ invalid operations —
//! now asserting the *flags*, not just the values, and pinning that
//! `|=` accumulates them stickily.

use nga_softfloat::{Flags, FloatFormat, SoftFloat, SubnormalMode};

const F16: FloatFormat = FloatFormat::BINARY16;

fn f(x: f64) -> SoftFloat {
    SoftFloat::from_f64(x, F16)
}

#[test]
fn signed_zero_cancellation_raises_no_flags() {
    // x + (-x) is exact: +0 under round-to-nearest-even, no exceptions.
    let (sum, flags) = f(1.5).add_with_flags(f(-1.5));
    assert!(sum.is_zero());
    assert!(!sum.sign(), "RNE cancellation yields +0");
    assert_eq!(flags, Flags::NONE);

    // (-0) + (-0) keeps the sign, still exception-free.
    let nz = SoftFloat::from_bits(0x8000, F16);
    let (sum, flags) = nz.add_with_flags(nz);
    assert!(sum.is_zero() && sum.sign(), "-0 + -0 = -0");
    assert_eq!(flags, Flags::NONE);

    // (+0) + (-0) = +0 under RNE, also exact.
    let pz = SoftFloat::zero(F16);
    let (sum, flags) = pz.add_with_flags(nz);
    assert!(sum.is_zero() && !sum.sign());
    assert_eq!(flags, Flags::NONE);
}

#[test]
fn zero_times_infinity_is_invalid() {
    let inf = SoftFloat::infinity(false, F16);
    let (prod, flags) = SoftFloat::zero(F16).mul_with_flags(inf);
    assert!(prod.is_nan());
    assert!(flags.contains(Flags::INVALID));
    assert!(!flags.contains(Flags::INEXACT), "invalid, not inexact");

    // ∞ − ∞ is the additive twin of the same invalid class.
    let (diff, flags) = inf.sub_with_flags(inf);
    assert!(diff.is_nan());
    assert!(flags.contains(Flags::INVALID));
}

#[test]
fn finite_over_zero_signals_div_by_zero_not_invalid() {
    let (q, flags) = f(1.0).div_with_flags(SoftFloat::zero(F16));
    assert!(q.is_infinite());
    assert_eq!(flags, Flags::DIV_BY_ZERO);

    // 0/0 is INVALID instead — the two must not be conflated.
    let (q, flags) = SoftFloat::zero(F16).div_with_flags(SoftFloat::zero(F16));
    assert!(q.is_nan());
    assert!(flags.contains(Flags::INVALID));
    assert!(!flags.contains(Flags::DIV_BY_ZERO));
}

#[test]
fn tiny_products_raise_underflow_and_inexact() {
    // min_subnormal × 0.5 cannot be represented: rounds with underflow.
    let tiny = SoftFloat::from_f64(F16.min_subnormal(), F16);
    let (prod, flags) = tiny.mul_with_flags(f(0.5));
    assert!(flags.contains(Flags::UNDERFLOW));
    assert!(flags.contains(Flags::INEXACT));
    let _ = prod;

    // Overflow pairs with inexact on the other end of the range.
    let big = SoftFloat::from_f64(60000.0, F16);
    let (prod, flags) = big.mul_with_flags(big);
    assert!(prod.is_infinite());
    assert!(flags.contains(Flags::OVERFLOW));
    assert!(flags.contains(Flags::INEXACT));
}

#[test]
fn flush_to_zero_changes_values_but_not_exact_flags() {
    let ftz = F16.with_subnormal_mode(SubnormalMode::FlushToZero);
    let sub_bits = 0x0001u64; // smallest binary16 subnormal
    let one = SoftFloat::from_f64(1.0, ftz);
    let sub = SoftFloat::from_bits(sub_bits, ftz);

    // DAZ: the subnormal operand is treated as zero, so the product is
    // exactly zero — a value change relative to gradual mode.
    let (prod, _) = sub.mul_with_flags(one);
    assert!(prod.is_zero(), "FTZ flushes the subnormal operand");

    let gradual = SoftFloat::from_bits(sub_bits, F16);
    let (prod, flags) = gradual.mul_with_flags(SoftFloat::from_f64(1.0, F16));
    assert!(!prod.is_zero(), "gradual mode preserves the subnormal");
    assert_eq!(flags, Flags::NONE, "exact product of representables");
}

#[test]
fn or_ing_flags_is_sticky() {
    let inf = SoftFloat::infinity(false, F16);
    let (_, invalid) = SoftFloat::zero(F16).mul_with_flags(inf);
    let (_, dbz) = f(1.0).div_with_flags(SoftFloat::zero(F16));
    let (_, none) = f(1.5).add_with_flags(f(-1.5));

    // A later clean op never clears a raised flag.
    let mut seen = Flags::NONE;
    seen |= invalid;
    seen |= none;
    assert!(seen.contains(Flags::INVALID));
    assert!(!seen.contains(Flags::DIV_BY_ZERO));
    seen |= dbz;
    seen |= none;
    assert!(seen.contains(Flags::INVALID | Flags::DIV_BY_ZERO));
}
