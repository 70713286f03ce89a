//! The kernel tiers' correctness contract: for every 8-bit format, the
//! fused lookup tables agree with the bit-exact scalar ops on **all**
//! 65 536 input pairs (including NaR, NaN, infinities and both zeros),
//! and every kernel tier agrees bit-for-bit with a naive reference on
//! random shapes, including shapes large enough to run in row bands.
//! The f32 matmuls and `conv2d_f32` are held to naive per-element loops
//! the same way, on shapes that leave row and column tails in the
//! register tile and on inputs with NaN, infinities, zeros and
//! subnormals.

mod common;

use common::{
    f32_bits, f32_values, naive_conv2d_f32, naive_matmul8, naive_matmul_f32, tier_matmul8,
};
use nga_kernels::{
    add_table, conv2d_f32, im2col, matmul_f32, matmul_f32_parallel, mul_table, ArithCtx, Format8,
    KernelTier, LutOp,
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
    // reference on both domains. `ALL` lists every variant by
    // construction, and `common::tier_matmul8`'s exhaustive match stops
    // a new tier from compiling until it names that tier's kernel.
    let (m, k, n) = (7, 9, 5);
    let af: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.03 - 0.4).collect();
    let bf: Vec<f32> = (0..k * n).map(|i| 0.7 - i as f32 * 0.02).collect();
    // Deterministic byte inputs that include NaR/NaN/inf codes.
    let a8: Vec<u8> = (0..m * k).map(|i| (i * 41 + 3) as u8).collect();
    let b8: Vec<u8> = (0..k * n).map(|i| (i * 97 + 128) as u8).collect();
    let refb = f32_bits(&naive_matmul_f32(&af, &bf, None, m, k, n));
    for fmt in Format8::ALL {
        let (u8_ref, _) = naive_matmul8(fmt, &a8, &b8, m, k, n);
        for tier in KernelTier::ALL {
            let mut f = vec![0.0f32; m * n];
            let mut u = vec![0u8; m * n];
            ArithCtx::labeled("equivalence")
                .with_tier(tier)
                .matmul_f32(&af, &bf, &mut f, m, k, n);
            tier_matmul8(tier, fmt, &a8, &b8, &mut u, m, k, n);
            assert_eq!(f32_bits(&f), refb, "{tier} f32 ≡ naive");
            assert_eq!(u, u8_ref, "{tier} {} ≡ naive", fmt.id());
        }
    }
}

/// `a·b` through every f32 matmul entry point, each into an output
/// pre-filled with a sentinel so a skipped element shows.
fn f32_matmuls(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<(String, Vec<f32>)> {
    let run = |f: &dyn Fn(&mut [f32])| {
        let mut out = vec![12345.0f32; m * n];
        f(&mut out);
        out
    };
    let mut all = vec![
        (
            "matmul_f32".to_string(),
            run(&|o| matmul_f32(a, b, o, m, k, n)),
        ),
        (
            "matmul_f32_parallel".to_string(),
            run(&|o| matmul_f32_parallel(a, b, o, m, k, n)),
        ),
    ];
    for tier in KernelTier::ALL {
        let ctx = ArithCtx::labeled("equivalence").with_tier(tier);
        all.push((
            format!("ctx {tier}"),
            run(&|o| ctx.matmul_f32(a, b, o, m, k, n)),
        ));
    }
    all
}

#[test]
fn f32_tiles_and_tails_match_the_naive_reference() {
    // Rows m mod 4 ∈ {0,1,2,3} and columns n < 8, n mod 8 ≠ 0 and n a
    // multiple of 8, at k = 1 and deeper; then sizes with m·n ≥ 16 384
    // that run in row bands, with odd row counts so the bands (at any
    // thread count above one) start part-way through a 4-row tile.
    let small = [1usize, 2, 3, 4, 5, 6, 7, 9, 13]
        .into_iter()
        .flat_map(|m| [1usize, 3, 7, 8, 9, 16, 23].map(|n| (m, n)))
        .flat_map(|(m, n)| [1usize, 2, 5, 33].map(|k| (m, k, n)));
    let banded = [
        (17, 3, 1000),
        (18, 5, 1027),
        (19, 1, 1031),
        (16, 2, 1024),
        (21, 7, 789),
    ];
    for (i, (m, k, n)) in small.chain(banded).enumerate() {
        for special in [false, true] {
            let a = f32_values(i as u64, m * k, special);
            let b = f32_values(i as u64 + 1000, k * n, special);
            let want = f32_bits(&naive_matmul_f32(&a, &b, None, m, k, n));
            for (name, got) in f32_matmuls(&a, &b, m, k, n) {
                assert_eq!(f32_bits(&got), want, "{name} {m}x{k}x{n} special={special}");
            }
        }
    }
}

/// A conv call's geometry: `(ch, h, w, oc, kh, kw, stride, pad)`.
type ConvGeometry = (usize, usize, usize, usize, usize, usize, usize, usize);

/// `conv2d_f32` on `(ch, h, w, oc, kh, kw, stride, pad)` with inputs,
/// weights and biases from `seed`, checked bit for bit against the direct
/// loop and, with `gemm`, against a naive GEMM over `im2col` too.
fn check_conv(
    (ch, h, w, oc, kh, kw, stride, pad): ConvGeometry,
    seed: u64,
    special: bool,
    gemm: bool,
) {
    let kdim = ch * kh * kw;
    let input = f32_values(seed, ch * h * w, special);
    let weights = f32_values(seed + 1, oc * kdim, special);
    let bias = f32_values(seed + 2, oc, special);
    let mut out = Vec::new();
    let (oh, ow) = conv2d_f32(
        &input, ch, h, w, &weights, &bias, oc, kh, kw, stride, pad, &mut out,
    );
    let label = format!(
        "conv {:?} seed={seed} special={special}",
        (ch, h, w, oc, kh, kw, stride, pad)
    );
    let got = f32_bits(&out);

    let (direct, direct_hw) = naive_conv2d_f32(
        &input,
        (ch, h, w),
        &weights,
        &bias,
        oc,
        (kh, kw),
        stride,
        pad,
    );
    assert_eq!((oh, ow), direct_hw, "{label}: output size");
    assert_eq!(got, f32_bits(&direct), "{label}: direct loop");

    if gemm {
        let mut unfolded = Vec::new();
        im2col(&input, ch, h, w, kh, kw, stride, pad, &mut unfolded);
        let gemm = naive_matmul_f32(&weights, &unfolded, Some(&bias), oc, kdim, oh * ow);
        assert_eq!(got, f32_bits(&gemm), "{label}: naive GEMM over im2col");
    }
}

#[test]
fn conv2d_f32_matches_both_naive_references() {
    // (ch, h, w, oc, kh, kw, stride, pad).
    let shapes = [
        // ResNet20: a stage-1 conv, which runs in pixel-block bands; the
        // stride-2 3×3 conv that opens stage 2; its 1×1 stride-2
        // projection.
        (16, 32, 32, 16, 3, 3, 1, 1),
        (16, 32, 32, 32, 3, 3, 2, 1),
        (16, 32, 32, 32, 1, 1, 2, 0),
        // kws_mini's conv: ow = 10, so 8-pixel blocks straddle rows.
        (1, 24, 10, 8, 3, 3, 1, 1),
        // k = 1; fewer than 8 and non-multiple-of-8 output pixels.
        (1, 5, 5, 3, 1, 1, 1, 0),
        (2, 3, 3, 5, 3, 3, 1, 1),
        // Planes narrower than a block (ow = 3, 4, 2): up to four rows
        // per block.
        (3, 7, 6, 6, 3, 3, 2, 1),
        (5, 6, 4, 6, 3, 3, 1, 1),
        (2, 4, 4, 7, 2, 2, 2, 0),
        // Strided, asymmetric and wide-padded kernels; oc % 4 != 0.
        (4, 9, 11, 9, 5, 3, 1, 2),
        (3, 10, 13, 5, 3, 5, 3, 2),
        // 17 output channels over 1760 pixels, banded with a channel tail.
        (3, 40, 44, 17, 3, 3, 1, 1),
    ];
    for (i, shape) in shapes.into_iter().enumerate() {
        for special in [false, true] {
            check_conv(shape, 10 * i as u64, special, true);
        }
    }
}

/// An infinite weight on the tap that only ever sees padding at the
/// borders: `inf · 0.0` is NaN, so the border outputs are NaN. This pins
/// that padded taps still add `w · 0.0` rather than being skipped.
#[test]
fn padded_taps_add_weight_times_zero() {
    let (h, w) = (5, 6);
    let input: Vec<f32> = (0..h * w).map(|i| 0.5 + i as f32).collect();
    // One output channel, 3×3, pad 1: tap (0, 0) reads the padding on
    // output row 0 and column 0 and positive pixels elsewhere.
    let mut weights = vec![0.25f32; 9];
    weights[0] = f32::INFINITY;
    let mut out = Vec::new();
    let (oh, ow) = conv2d_f32(&input, 1, h, w, &weights, &[0.0], 1, 3, 3, 1, 1, &mut out);
    assert_eq!((oh, ow), (h, w));
    for oy in 0..oh {
        for ox in 0..ow {
            let v = out[oy * ow + ox];
            if oy == 0 || ox == 0 {
                assert!(
                    v.is_nan(),
                    "({oy}, {ox}): inf·0.0 on a padded tap gives NaN, got {v}"
                );
            } else {
                assert_eq!(v, f32::INFINITY, "({oy}, {ox})");
            }
        }
    }
}

/// Shapes `(m, k, n)`: half small, half with `m·n ≥ 16 384` so the
/// parallel tier really splits rows across threads, and `k·n > 511` so a
/// status sweep folds its event tally more than once per row.
fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        (1usize..24, 1usize..16, 1usize..24),
        (16usize..24, 1usize..4, 1024usize..1100)
    ]
}

/// Random conv geometry: kernels of 1–5 taps a side, padding below the
/// smaller side, stride 1–3, planes of 1–20 pixels a side, 1–5 input and
/// 1–9 output channels.
fn conv_geometry() -> impl Strategy<Value = ConvGeometry> {
    (
        (1usize..6, 1usize..6).prop_flat_map(|(kh, kw)| (Just(kh), Just(kw), 0..kh.min(kw))),
        1usize..4,
        (1usize..21, 1usize..21),
        (1usize..6, 1usize..10),
    )
        .prop_map(|((kh, kw, pad), stride, (h, w), (ch, oc))| (ch, h, w, oc, kh, kw, stride, pad))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conv2d_f32_matches_the_direct_loop_on_random_geometry(
        shape in conv_geometry(),
        seed in 0u64..1_000_000,
    ) {
        let (_, h, w, _, kh, kw, _, pad) = shape;
        // The direct loop needs every kernel to fit its padded input.
        prop_assume!(h + 2 * pad >= kh && w + 2 * pad >= kw);
        check_conv(shape, seed, seed % 2 == 0, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_f32_entry_point_matches_the_naive_reference(
        (m, k, n) in shapes(),
        seed in 0u64..1_000_000,
    ) {
        let special = seed % 2 == 0;
        let a = f32_values(seed, m * k, special);
        let b = f32_values(!seed, k * n, special);
        let want = f32_bits(&naive_matmul_f32(&a, &b, None, m, k, n));
        for (name, got) in f32_matmuls(&a, &b, m, k, n) {
            prop_assert_eq!(&f32_bits(&got), &want, "{} {}x{}x{}", name, m, k, n);
        }
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
                tier_matmul8(tier, fmt, &a, &b, &mut out, m, k, n);
                prop_assert_eq!(&out, &want, "{} {} codes", fmt.id(), tier);
                let mut ctx = ArithCtx::labeled("equivalence").with_tier(tier);
                let s = ctx.matmul8(fmt, &a, &b, &mut out, m, k, n);
                prop_assert_eq!(&out, &want, "{} {} ctx codes", fmt.id(), tier);
                prop_assert_eq!(s, want_s, "{} {} ctx counters", fmt.id(), tier);
            }
        }
    }
}
