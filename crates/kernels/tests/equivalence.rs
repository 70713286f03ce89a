//! The table tier's correctness contract: for every 8-bit format, the
//! 64 KiB lookup tables agree with the bit-exact scalar ops on **all**
//! 65 536 input pairs (including NaR, NaN, infinities and both zeros),
//! and every kernel tier agrees bit-for-bit with a naive reference on
//! random shapes, including shapes large enough to run in row bands.

mod common;

use common::naive_matmul8;
use nga_kernels::{
    add_table, matmul_f32, matmul_f32_parallel, mul_table, ArithCtx, Format8, KernelTier, LutOp,
};
use proptest::prelude::*;

/// Special codes worth calling out in failure messages.
fn label(fmt: Format8, code: u8) -> &'static str {
    match (fmt, code) {
        (Format8::Posit8, 0x80) => "NaR",
        (Format8::E4m3, 0x7F | 0xFF) => "NaN",
        (Format8::E5m2, 0x7C | 0xFC) => "inf",
        (Format8::E5m2, c) if c & 0x7F > 0x7C => "NaN",
        (_, 0x00) => "+0",
        (Format8::E4m3 | Format8::E5m2, 0x80) => "-0",
        _ => "",
    }
}

fn exhaustive_for(fmt: Format8) {
    let mul = mul_table(fmt);
    let add = add_table(fmt);
    for a in 0..=255u8 {
        for b in 0..=255u8 {
            assert_eq!(
                mul.get(a, b),
                fmt.mul_scalar_events(a, b).0,
                "{} mul {a:#04x}{} × {b:#04x}{}",
                fmt.id(),
                label(fmt, a),
                label(fmt, b),
            );
            assert_eq!(
                add.get(a, b),
                fmt.add_scalar_events(a, b).0,
                "{} add {a:#04x}{} + {b:#04x}{}",
                fmt.id(),
                label(fmt, a),
                label(fmt, b),
            );
        }
    }
}

#[test]
fn posit8_tables_match_scalar_on_all_65536_pairs() {
    exhaustive_for(Format8::Posit8);
}

#[test]
fn e4m3_tables_match_scalar_on_all_65536_pairs() {
    exhaustive_for(Format8::E4m3);
}

#[test]
fn e5m2_tables_match_scalar_on_all_65536_pairs() {
    exhaustive_for(Format8::E5m2);
}

#[test]
fn fixed8_tables_match_scalar_on_all_65536_pairs() {
    exhaustive_for(Format8::Fixed8);
}

#[test]
fn nar_is_absorbing_for_posit8_ops() {
    // NaR in ⇒ NaR out, for every partner code, through the tables.
    let op = LutOp::new(Format8::Posit8);
    for b in 0..=255u8 {
        assert_eq!(op.mul(0x80, b), 0x80, "NaR × {b:#04x}");
        assert_eq!(op.add(0x80, b), 0x80, "NaR + {b:#04x}");
        assert_eq!(op.mul(b, 0x80), 0x80, "{b:#04x} × NaR");
        assert_eq!(op.add(b, 0x80), 0x80, "{b:#04x} + NaR");
    }
}

#[test]
fn kernel_tiers_match_scalar_reference_on_every_format() {
    // Every tier in `KernelTier::ALL` must be equivalent to the scalar
    // reference on both domains — nga-lint's kernel-consistency rule
    // checks that this suite names `KernelTier::ALL`.
    let (m, k, n) = (7, 9, 5);
    let af: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.03 - 0.4).collect();
    let bf: Vec<f32> = (0..k * n).map(|i| 0.7 - i as f32 * 0.02).collect();
    // Deterministic byte inputs that include NaR/NaN/inf codes.
    let a8: Vec<u8> = (0..m * k).map(|i| (i * 41 + 3) as u8).collect();
    let b8: Vec<u8> = (0..k * n).map(|i| (i * 97 + 128) as u8).collect();
    let mut f32_ref = vec![0.0f32; m * n];
    KernelTier::Scalar.matmul_f32(&af, &bf, &mut f32_ref, m, k, n);
    let refb: Vec<u32> = f32_ref.iter().map(|v| v.to_bits()).collect();
    for fmt in Format8::ALL {
        let (u8_ref, _) = naive_matmul8(fmt, &a8, &b8, m, k, n);
        for tier in KernelTier::ALL {
            let mut f = vec![0.0f32; m * n];
            let mut u = vec![0u8; m * n];
            tier.matmul_f32(&af, &bf, &mut f, m, k, n);
            tier.matmul8(fmt, &a8, &b8, &mut u, m, k, n);
            let fb: Vec<u32> = f.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, refb, "{tier} f32 ≡ scalar");
            assert_eq!(u, u8_ref, "{tier} {} ≡ naive", fmt.id());
        }
    }
}

/// Shapes `(m, k, n)`: half small, half with `m·n ≥ 16 384` so the
/// parallel tier really splits rows across threads, and `k·n > 511` so a
/// status sweep folds its event tally more than once per row.
fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![(1usize..24, 1usize..16, 1usize..24), (16usize..24, 1usize..4, 1024usize..1100)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_f32_matmul_is_bit_identical_to_serial(
        (m, k, n) in shapes(),
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u32 << 31) as f32) - 0.5
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut serial = vec![0.0f32; m * n];
        let mut par = vec![0.0f32; m * n];
        matmul_f32(&a, &b, &mut serial, m, k, n);
        matmul_f32_parallel(&a, &b, &mut par, m, k, n);
        let sb: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u32> = par.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sb, pb);
    }

    #[test]
    fn every_tier_matches_the_naive_reference(
        (m, k, n) in shapes(),
        seed in 0u64..1_000_000,
    ) {
        for fmt in Format8::ALL {
            let mut state = seed ^ (fmt as u64);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            };
            let a: Vec<u8> = (0..m * k).map(|_| next()).collect();
            let b: Vec<u8> = (0..k * n).map(|_| next()).collect();
            let (want, want_s) = naive_matmul8(fmt, &a, &b, m, k, n);
            for tier in KernelTier::ALL {
                let mut out = vec![0u8; m * n];
                tier.matmul8(fmt, &a, &b, &mut out, m, k, n);
                prop_assert_eq!(&out, &want, "{} {} codes", fmt.id(), tier);
                let mut ctx = ArithCtx::labeled("equivalence").with_tier(tier);
                let s = ctx.matmul8(fmt, &a, &b, &mut out, m, k, n);
                prop_assert_eq!(&out, &want, "{} {} ctx codes", fmt.id(), tier);
                prop_assert_eq!(s, want_s, "{} {} ctx counters", fmt.id(), tier);
            }
        }
    }
}
