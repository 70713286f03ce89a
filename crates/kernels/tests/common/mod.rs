//! Shared test helpers for the kernels integration tests. Each test
//! binary uses a subset of them.

#![allow(dead_code, reason = "each test binary uses only some of the helpers")]

use nga_kernels::{matmul8_parallel, matmul8_scalar, Format8, KernelTier, LutOp, StatusCounters};

/// Naive reference for every 8-bit matmul: per output element, in
/// ascending `k`, through the scalar event ops, recording every op. It
/// shares no loop with the kernels, so tier agreement with it checks the
/// kernels' one row worker rather than the worker against itself.
pub fn naive_matmul8(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    m: usize,
    k: usize,
    n: usize,
) -> (Vec<u8>, StatusCounters) {
    let mut counters = StatusCounters::new();
    let mut out = vec![0u8; m * n];
    for (idx, o) in out.iter_mut().enumerate() {
        let (i, j) = (idx / n, idx % n);
        for kk in 0..k {
            let (p, mul_ev) = fmt.mul_scalar_events(a[i * k + kk], b[kk * n + j]);
            counters.record(mul_ev);
            let (acc, add_ev) = fmt.add_scalar_events(*o, p);
            counters.record(add_ev);
            *o = acc;
        }
    }
    (out, counters)
}

/// `out = a · b` through the status-free 8-bit kernel that `tier` runs:
/// [`matmul8_scalar`] on `Scalar`, [`matmul8_parallel`] over the fused
/// tables on `Parallel`.
#[expect(clippy::too_many_arguments, reason = "BLAS-style flat slices and dims")]
pub fn tier_matmul8(
    tier: KernelTier,
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) {
    match tier {
        KernelTier::Scalar => matmul8_scalar(fmt, a, b, out, m, k, n),
        KernelTier::Parallel => matmul8_parallel(&LutOp::new(fmt), a, b, out, m, k, n),
    }
}

/// Naive reference for every f32 matmul and for the GEMM inside
/// `conv2d_f32`: per output element, `bias[i]` (or `0.0` without a bias)
/// plus `a[i][kk] · b[kk][j]` for ascending `kk`, one multiply and one add
/// each. It shares no loop with the kernels' register-blocked worker.
pub fn naive_matmul_f32(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for (idx, o) in out.iter_mut().enumerate() {
        let (i, j) = (idx / n, idx % n);
        let mut acc = bias.map_or(0.0, |b| b[i]);
        for kk in 0..k {
            acc += a[i * k + kk] * b[kk * n + j];
        }
        *o = acc;
    }
    out
}

/// Direct strided, zero-padded convolution of a `[ch, h, w]` input with
/// `[oc, ch, kh, kw]` weights: per output pixel, the bias plus `w · x` for
/// ascending `(c, ky, kx)`, where a tap in the padding reads `0.0` and is
/// still added (as im2col's zero row entries are). Returns the
/// `[oc, oh, ow]` output and `(oh, ow)`.
#[expect(clippy::too_many_arguments, reason = "conv geometry as plain dims")]
pub fn naive_conv2d_f32(
    input: &[f32],
    (ch, h, w): (usize, usize, usize),
    weights: &[f32],
    bias: &[f32],
    oc: usize,
    (kh, kw): (usize, usize),
    stride: usize,
    pad: usize,
) -> (Vec<f32>, (usize, usize)) {
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    let mut out = Vec::with_capacity(oc * oh * ow);
    for o in 0..oc {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias[o];
                for c in 0..ch {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let (iy, ix) = (oy * stride + ky, ox * stride + kx);
                            let x = if (pad..h + pad).contains(&iy) && (pad..w + pad).contains(&ix)
                            {
                                input[(c * h + iy - pad) * w + ix - pad]
                            } else {
                                0.0
                            };
                            acc += weights[((o * ch + c) * kh + ky) * kw + kx] * x;
                        }
                    }
                }
                out.push(acc);
            }
        }
    }
    (out, (oh, ow))
}

/// The bits of each value, for bit-for-bit comparison: both zeros, NaN
/// sign and payload and subnormals all count.
pub fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `len` values from a 64-bit LCG seeded by `seed`, mostly in `[-1, 1)`;
/// with `special`, about one in sixteen is NaN, ±∞, ±0.0 or a subnormal.
pub fn f32_values(seed: u64, len: usize, special: bool) -> Vec<f32> {
    const SPECIALS: [f32; 8] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 1024.0,
        f32::from_bits(1),
    ];
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 40) as u32;
            if special && r.is_multiple_of(16) {
                SPECIALS[(r / 16) as usize % SPECIALS.len()]
            } else {
                (r & 0xFF_FFFF) as f32 / (1u32 << 23) as f32 - 1.0
            }
        })
        .collect()
}
