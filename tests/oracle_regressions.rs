//! Regression tests distilled from `nga-oracle` sweep counterexamples.
//!
//! Each case here was first found as a mismatch by the differential
//! sweeps (`tools/nga-oracle`), minimized by the harness, then fixed in
//! the implementation. The tests pin both the implementation behaviour
//! and — where cheap — re-assert agreement with the oracle itself, so a
//! regression trips even without rerunning the sweep.

use nga_oracle::float;
use nga_softfloat::{FloatFormat, Interval, Rounding, SoftFloat, SubnormalMode};

const F16: FloatFormat = FloatFormat::BINARY16;

fn rtn(fmt: FloatFormat) -> FloatFormat {
    fmt.with_rounding(Rounding::TowardNegative)
}

/// Found by `exh8/e4m3/add/scalar@rtn` (minimized `[0x0, 0x80]`):
/// `+0 + -0` must be `-0` under roundTowardNegative (IEEE 754 §6.3), but
/// the zero+zero fast path always kept `sign = a && b`.
#[test]
fn zero_plus_opposite_zero_is_negative_under_rtn() {
    for base in [FloatFormat::FP8_E4M3, FloatFormat::FP8_E5M2, F16] {
        let fmt = rtn(base);
        let pz = SoftFloat::zero(fmt);
        let nz = pz.neg();
        let sum = pz.add(nz);
        assert!(sum.is_zero() && sum.sign(), "+0 + -0 under RTN in {fmt}");
        assert_eq!(
            sum.bits(),
            float::add_bits(pz.bits(), nz.bits(), fmt),
            "oracle agreement in {fmt}"
        );
        // Under every other attribute the same sum is +0.
        for mode in [
            Rounding::NearestEven,
            Rounding::NearestAway,
            Rounding::TowardZero,
            Rounding::TowardPositive,
        ] {
            let fmt = base.with_rounding(mode);
            let sum = SoftFloat::zero(fmt).add(SoftFloat::zero(fmt).neg());
            assert!(sum.is_zero() && !sum.sign(), "+0 + -0 under {mode:?}");
        }
    }
}

/// Found by `sample16/binary16/add@rtn` and `sample16/fp19/add@rtn`
/// (minimized `[0x800, 0x40800]` in fp19): exact cancellation
/// `x + (-x)` must be `-0` under roundTowardNegative, but the
/// cancellation path returned the format's positive zero.
#[test]
fn exact_cancellation_is_negative_zero_under_rtn() {
    for base in [FloatFormat::FP8_E4M3, F16, FloatFormat::FP19] {
        let fmt = rtn(base);
        let x = SoftFloat::one(fmt);
        let diff = x.add(x.neg());
        assert!(diff.is_zero() && diff.sign(), "1 + (-1) under RTN in {fmt}");
        assert_eq!(diff.bits(), float::add_bits(x.bits(), x.neg().bits(), fmt));
    }
}

/// Found by `exh8/e4m3/fma/scalar@rtn`: the fused path has its own
/// exact-alignment cancellation branch with the same signed-zero rule.
#[test]
fn fma_cancellation_is_negative_zero_under_rtn() {
    let fmt = rtn(F16);
    let a = SoftFloat::from_f64(3.0, fmt);
    let b = SoftFloat::from_f64(5.0, fmt);
    let c = SoftFloat::from_f64(-15.0, fmt);
    let r = a.fma(b, c);
    assert!(r.is_zero() && r.sign(), "3*5 + (-15) under RTN");
    assert_eq!(r.bits(), float::fma_bits(a.bits(), b.bits(), c.bits(), fmt));
    // The zero-product + zero-addend path follows the same rule.
    let pz = SoftFloat::zero(fmt);
    let r = pz.fma(SoftFloat::one(fmt), pz.neg());
    assert!(r.is_zero() && r.sign(), "fma(+0, 1, -0) under RTN");
}

/// Found by `sample/interval/add` (minimized `[-inf, 131072.0]`): an
/// infinite point plus an interval whose upper bound overflowed to +inf
/// produced a NaN upper bound (`-inf + +inf`), breaking enclosure.
#[test]
fn interval_add_with_infinite_point_has_no_nan_bound() {
    let a = Interval::from_f64(f64::NEG_INFINITY, F16);
    let b = Interval::from_f64(131072.0, F16);
    for r in [a.add(&b), a.sub(&b), b.sub(&a)] {
        assert!(!r.lo().is_nan() && !r.hi().is_nan(), "{r}");
    }
    assert!(a.add(&b).contains(f64::NEG_INFINITY));
}

/// Found by `sample/interval/mul` (minimized `[0x0, 0x4200...]`): the
/// corner product `0 x inf` is NaN, and NaN sorts greatest in the total
/// order, so the fold picked it as the upper bound.
#[test]
fn interval_mul_zero_by_unbounded_encloses_zero() {
    let zero = Interval::from_f64(0.0, F16);
    let big = Interval::from_f64(131072.0, F16); // [65504, +inf] in binary16
    for p in [zero.mul(&big), big.mul(&zero)] {
        assert!(!p.lo().is_nan() && !p.hi().is_nan(), "{p}");
        assert!(p.contains(0.0), "{p}");
    }
}

/// Pinned from the FTZ audit: the implementation's flush-to-zero mode is
/// DAZ+FTZ (subnormal *inputs* flush too), so a subnormal divided by
/// zero is 0/0 = NaN, not infinity — and the oracle models the same.
#[test]
fn ftz_flushes_subnormal_inputs_before_the_operation() {
    let fmt = F16.with_subnormal_mode(SubnormalMode::FlushToZero);
    let sub = SoftFloat::from_bits(0x0040, fmt); // subnormal in binary16
    let zero = SoftFloat::zero(fmt);
    let q = sub.div(zero);
    assert!(q.is_nan(), "subnormal/0 is 0/0 under DAZ");
    assert_eq!(q.bits(), float::div_bits(sub.bits(), zero.bits(), fmt));
    let q = zero.div(sub);
    assert!(q.is_nan(), "0/subnormal is 0/0 under DAZ");
}

/// The 8-bit kernel tiers (scalar, parallel) must keep agreeing
/// with the oracle composition `add(0, mul(a, b))` on a boundary-heavy
/// sample of codes — a cheap standing version of `tiers8/*` sweeps.
#[test]
fn kernel_tiers_match_oracle_composition_on_boundary_codes() {
    use nga_kernels::{ArithCtx, Format8, KernelTier};
    let codes: Vec<u8> = (0u8..=255).step_by(17).chain([0x7F, 0x80, 0x81, 0xFF]).collect();
    for fmt in Format8::ALL {
        for tier in KernelTier::ALL {
            let n = codes.len();
            let mut out = vec![0u8; n * n];
            ArithCtx::labeled("oracle-regressions")
                .with_tier(tier)
                .matmul8(fmt, &codes, &codes, &mut out, n, 1, n);
            for (idx, &got) in out.iter().enumerate() {
                let (a, b) = (codes[idx / n], codes[idx % n]);
                let want = fmt.add_scalar_events(0, fmt.mul_scalar_events(a, b).0).0;
                assert_eq!(got, want, "{fmt:?} {a:#04x}*{b:#04x}");
            }
        }
    }
}
