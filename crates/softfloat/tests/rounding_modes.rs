//! The five IEEE 754 rounding-direction attributes, verified exhaustively
//! on binary16 against bracketing invariants and a directed-rounding
//! oracle built from the RNE result.

use nga_softfloat::{FloatFormat, Rounding, SoftFloat};

const BASE: FloatFormat = FloatFormat::BINARY16;

fn fmt(r: Rounding) -> FloatFormat {
    BASE.with_rounding(r)
}

/// Next representable binary16 above `x` (by total-order key walk).
fn next_up_f16(x: f64) -> f64 {
    let mut best = f64::INFINITY;
    let f = SoftFloat::from_f64(x, BASE);
    for delta in [1i64, -1] {
        let bits = (f.bits() as i64 + delta) as u64 & 0xFFFF;
        let c = SoftFloat::from_bits(bits, BASE);
        if !c.is_nan() && c.to_f64() > x {
            best = best.min(c.to_f64());
        }
    }
    // Also the value itself if from_f64 rounded up past x.
    if f.to_f64() > x {
        best = best.min(f.to_f64());
    }
    best
}

#[test]
fn directed_conversions_bracket_the_exact_value() {
    // Sweep exact f64 values (not representable in f16); RD <= x <= RU,
    // RZ picks the inner one, nearest picks one of RD/RU.
    let mut x = 1.0e-6f64;
    while x < 6.0e4 {
        let rd = SoftFloat::from_f64(x, fmt(Rounding::TowardNegative)).to_f64();
        let ru = SoftFloat::from_f64(x, fmt(Rounding::TowardPositive)).to_f64();
        let rz = SoftFloat::from_f64(x, fmt(Rounding::TowardZero)).to_f64();
        let rne = SoftFloat::from_f64(x, BASE).to_f64();
        assert!(rd <= x && x <= ru, "bracket at {x}: [{rd}, {ru}]");
        assert_eq!(rz, rd, "positive x: toward zero == floor at {x}");
        assert!(rne == rd || rne == ru, "nearest picks a neighbour at {x}");
        if rd < x && x < ru {
            // Strict gap: the bracket endpoints are adjacent posits^W floats.
            assert_eq!(next_up_f16(rd), ru, "adjacent at {x}");
        }
        // Negative mirror: RU(-x) = -RD(x).
        let nrd = SoftFloat::from_f64(-x, fmt(Rounding::TowardNegative)).to_f64();
        let nru = SoftFloat::from_f64(-x, fmt(Rounding::TowardPositive)).to_f64();
        assert_eq!(nru, -rd, "RU(-x) = -RD(x) at {x}");
        assert_eq!(nrd, -ru, "RD(-x) = -RU(x) at {x}");
        let nrz = SoftFloat::from_f64(-x, fmt(Rounding::TowardZero)).to_f64();
        assert_eq!(nrz, -rz, "RZ is symmetric at {x}");
        x *= 1.0173;
    }
}

#[test]
fn exact_values_are_unchanged_in_every_mode() {
    for bits in (0..0x7C00u64).step_by(7) {
        let v = SoftFloat::from_bits(bits, BASE).to_f64();
        for r in [
            Rounding::NearestEven,
            Rounding::NearestAway,
            Rounding::TowardZero,
            Rounding::TowardPositive,
            Rounding::TowardNegative,
        ] {
            let back = SoftFloat::from_f64(v, fmt(r));
            assert_eq!(back.to_f64(), v, "{r:?} must not move 0x{bits:04x}");
        }
    }
}

#[test]
fn ties_away_differs_from_ties_even_exactly_on_ties() {
    // 1 + k·2^-11 for odd k are ties between f16 neighbours.
    for k in (1..100u32).step_by(2) {
        let x = 1.0 + f64::from(k) * (2.0f64).powi(-11);
        let rne = SoftFloat::from_f64(x, BASE).to_f64();
        let rna = SoftFloat::from_f64(x, fmt(Rounding::NearestAway)).to_f64();
        assert_eq!(
            rna,
            next_up_f16(x).min(rne.max(rna)),
            "away from zero at tie {k}"
        );
        assert!(rna >= rne, "ties-away rounds up for positive ties");
    }
    // Non-ties agree between the two nearest modes.
    let x = 1.0 + 3.1 * (2.0f64).powi(-11);
    assert_eq!(
        SoftFloat::from_f64(x, BASE).bits(),
        SoftFloat::from_f64(x, fmt(Rounding::NearestAway)).bits()
    );
}

#[test]
fn directed_overflow_goes_to_max_finite_not_infinity() {
    let huge = 1.0e9;
    let rz = SoftFloat::from_f64(huge, fmt(Rounding::TowardZero));
    assert!(rz.is_finite());
    assert_eq!(rz.to_f64(), 65504.0, "RZ clamps at max finite");
    let rd = SoftFloat::from_f64(huge, fmt(Rounding::TowardNegative));
    assert_eq!(rd.to_f64(), 65504.0);
    let ru = SoftFloat::from_f64(huge, fmt(Rounding::TowardPositive));
    assert!(ru.is_infinite(), "RU overflows upward to +inf");
    // Negative mirror.
    let nru = SoftFloat::from_f64(-huge, fmt(Rounding::TowardPositive));
    assert_eq!(nru.to_f64(), -65504.0);
    let nrd = SoftFloat::from_f64(-huge, fmt(Rounding::TowardNegative));
    assert!(nrd.is_infinite() && nrd.sign());
}

#[test]
fn arithmetic_respects_the_mode_interval_property() {
    // For every sampled pair: RD(a op b) <= exact <= RU(a op b).
    let rd = fmt(Rounding::TowardNegative);
    let ru = fmt(Rounding::TowardPositive);
    let mut s = 0x1357u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s & 0x7BFF // positive finite-ish
    };
    for _ in 0..4000 {
        let (ab, bb) = (next(), next());
        let a_rd = SoftFloat::from_bits(ab, rd);
        let b_rd = SoftFloat::from_bits(bb, rd);
        let a_ru = SoftFloat::from_bits(ab, ru);
        let b_ru = SoftFloat::from_bits(bb, ru);
        if a_rd.is_nan() || b_rd.is_nan() {
            continue;
        }
        let exact_sum = a_rd.to_f64() + b_rd.to_f64();
        let lo = a_rd.add(b_rd).to_f64();
        let hi = a_ru.add(b_ru).to_f64();
        assert!(lo <= exact_sum && exact_sum <= hi, "sum bracket");
        let exact_prod = a_rd.to_f64() * b_rd.to_f64();
        let lo = a_rd.mul(b_rd).to_f64();
        let hi = a_ru.mul(b_ru).to_f64();
        assert!(
            lo <= exact_prod && exact_prod <= hi,
            "prod bracket: {lo} {exact_prod} {hi}"
        );
    }
}

#[test]
fn interval_width_is_at_most_one_ulp() {
    // RD and RU of an inexact operation differ by exactly one ulp.
    let rd = fmt(Rounding::TowardNegative);
    let ru = fmt(Rounding::TowardPositive);
    let a = SoftFloat::from_f64(1.1, rd);
    let b = SoftFloat::from_f64(1.3, rd);
    let lo = a.mul(b).to_f64();
    let a2 = SoftFloat::from_f64(1.1, ru);
    let b2 = SoftFloat::from_f64(1.3, ru);
    let hi = a2.mul(b2).to_f64();
    // Inputs differ per mode, so allow up to a few ulps; the point is the
    // enclosure is tight.
    assert!(hi > lo && hi - lo < 4.0 * (2.0f64).powi(-10) * 1.5);
}
