//! Batched tensor primitives: dot products, blocked matmul and im2col
//! convolution over `&[f32]` and `&[u8]` (8-bit format codes).
//!
//! All matmuls accumulate each output element in ascending-`k` order, in
//! both the serial and the row-banded parallel variants, so parallel
//! results are bit-for-bit equal to serial ones.

use std::ops::Range;

use crate::format8::Format8;
use crate::parallel::for_each_band;
use crate::status::{StatusCounters, TALLY_CAPACITY};
use crate::table::{BinaryTable, LutOp, StatusOp};

/// Records one matmul's worth of arithmetic against the current obs
/// span: `m·k·n` MACs (one mul + one add each) plus `luts_per_mac`
/// table loads per MAC. Counts are shape-derived, so the record costs
/// one registry update per kernel call, not per element.
fn obs_macs(m: usize, k: usize, n: usize, luts_per_mac: u64) {
    let macs = (m as u64)
        .saturating_mul(k as u64)
        .saturating_mul(n as u64);
    nga_obs::record(|c| {
        c.muls = c.muls.saturating_add(macs);
        c.adds = c.adds.saturating_add(macs);
        c.lut_hits = c.lut_hits.saturating_add(macs.saturating_mul(luts_per_mac));
    });
}

/// [`obs_macs`] plus the per-event totals from a status sweep.
fn obs_status(m: usize, k: usize, n: usize, luts_per_mac: u64, s: &StatusCounters) {
    let macs = (m as u64)
        .saturating_mul(k as u64)
        .saturating_mul(n as u64);
    nga_obs::record(|c| {
        c.muls = c.muls.saturating_add(macs);
        c.adds = c.adds.saturating_add(macs);
        c.lut_hits = c.lut_hits.saturating_add(macs.saturating_mul(luts_per_mac));
        s.fold_into_obs(c);
    });
}

// ---------------------------------------------------------------------
// f32 kernels
// ---------------------------------------------------------------------

/// Dot product (ascending-index accumulation).
#[inline]
#[must_use]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn check_matmul_shapes<T>(a: &[T], b: &[T], out: &[T], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs is m×k");
    assert_eq!(b.len(), k * n, "rhs is k×n");
    assert_eq!(out.len(), m * n, "out is m×n");
}

/// The row worker shared by the serial and parallel f32 matmuls:
/// computes global rows `rows` of `a·b` into `oband` (local rows).
///
/// Register-blocked ikj: each lhs element is broadcast across a
/// contiguous rhs row, so the inner loop is a stride-1 fused
/// multiply-add sweep the compiler can vectorise.
fn matmul_f32_rows(
    a: &[f32],
    b: &[f32],
    oband: &mut [f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
) {
    for (li, gi) in rows.enumerate() {
        let arow = &a[gi * k..(gi + 1) * k];
        let orow = &mut oband[li * n..(li + 1) * n];
        orow.fill(0.0);
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Serial matrix multiply: `out = a · b` with `a` m×k, `b` k×n (all
/// row-major).
pub fn matmul_f32(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul_f32:serial");
    obs_macs(m, k, n, 0);
    matmul_f32_rows(a, b, out, 0..m, k, n);
}

/// Row-banded parallel matrix multiply; bit-for-bit equal to
/// [`matmul_f32`].
pub fn matmul_f32_parallel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul_f32:parallel");
    obs_macs(m, k, n, 0);
    for_each_band(out, m, n, |rows, oband| {
        matmul_f32_rows(a, b, oband, rows, k, n);
    });
}

/// Unfolds a `[ch, h, w]` input into the im2col matrix for a
/// `kh×kw`/`stride`/`pad` convolution: row `(c·kh + ky)·kw + kx`,
/// column `oy·ow + ox` holds the padded input pixel under kernel tap
/// `(ky, kx)` at output position `(oy, ox)`.
///
/// Returns `(oh, ow)`; `cols` is resized to `ch·kh·kw × oh·ow`.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    input: &[f32],
    ch: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    cols: &mut Vec<f32>,
) -> (usize, usize) {
    assert_eq!(input.len(), ch * h * w, "input is [ch, h, w]");
    assert!(stride > 0, "stride must be positive");
    let oh = (h + 2 * pad).saturating_sub(kh) / stride + 1;
    let ow = (w + 2 * pad).saturating_sub(kw) / stride + 1;
    let npix = oh * ow;
    cols.clear();
    cols.resize(ch * kh * kw * npix, 0.0);
    for c in 0..ch {
        let plane = &input[c * h * w..(c + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = ((c * kh + ky) * kw + kx) * npix;
                for oy in 0..oh {
                    // In-bounds input row for this tap, or all-padding.
                    let iy = oy * stride + ky;
                    if iy < pad || iy >= h + pad {
                        continue;
                    }
                    let iy = iy - pad;
                    let dst = &mut cols[row + oy * ow..row + (oy + 1) * ow];
                    for (ox, d) in dst.iter_mut().enumerate() {
                        let ix = ox * stride + kx;
                        if ix >= pad && ix < w + pad {
                            *d = plane[iy * w + (ix - pad)];
                        }
                    }
                }
            }
        }
    }
    (oh, ow)
}

/// im2col convolution: `weights` is `[oc, ch·kh·kw]` row-major, `bias`
/// has one entry per output channel, and the result `[oc, oh, ow]` is
/// written to `out`. Accumulation per output pixel starts at the bias
/// and proceeds in ascending `(c, ky, kx)` order — the same order as a
/// direct scalar convolution loop.
///
/// `cols` is scratch reused across calls to avoid re-allocating.
/// Returns `(oh, ow)`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_f32(
    input: &[f32],
    ch: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    bias: &[f32],
    oc: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    cols: &mut Vec<f32>,
    out: &mut Vec<f32>,
) -> (usize, usize) {
    let kdim = ch * kh * kw;
    assert_eq!(weights.len(), oc * kdim, "weights are [oc, ch*kh*kw]");
    assert_eq!(bias.len(), oc, "one bias per output channel");
    let _span = nga_obs::span("conv2d_f32");
    let (oh, ow) = im2col(input, ch, h, w, kh, kw, stride, pad, cols);
    let npix = oh * ow;
    obs_macs(oc, kdim, npix, 0);
    out.clear();
    out.resize(oc * npix, 0.0);
    for_each_band(out.as_mut_slice(), oc, npix, |rows, oband| {
        for (li, gi) in rows.enumerate() {
            let wrow = &weights[gi * kdim..(gi + 1) * kdim];
            let orow = &mut oband[li * npix..(li + 1) * npix];
            orow.fill(bias[gi]);
            for (kk, &wv) in wrow.iter().enumerate() {
                let crow = &cols[kk * npix..(kk + 1) * npix];
                for (o, &cv) in orow.iter_mut().zip(crow) {
                    *o += wv * cv;
                }
            }
        }
    });
    (oh, ow)
}

// ---------------------------------------------------------------------
// 8-bit format kernels
// ---------------------------------------------------------------------

/// Table-driven dot product over format codes (ascending-index
/// accumulation from the format's zero code `0x00`).
#[inline]
#[must_use]
pub fn dot8(op: &LutOp, a: &[u8], b: &[u8]) -> u8 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0u8;
    for (&x, &y) in a.iter().zip(b) {
        acc = op.add(acc, op.mul(x, y));
    }
    acc
}

fn matmul8_rows(
    op: &LutOp,
    a: &[u8],
    b: &[u8],
    oband: &mut [u8],
    rows: Range<usize>,
    k: usize,
    n: usize,
) {
    for (li, gi) in rows.enumerate() {
        let arow = &a[gi * k..(gi + 1) * k];
        let orow = &mut oband[li * n..(li + 1) * n];
        orow.fill(0);
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = op.add(*o, op.mul(av, bv));
            }
        }
    }
}

/// Serial table-driven matrix multiply over format codes.
pub fn matmul8(op: &LutOp, a: &[u8], b: &[u8], out: &mut [u8], m: usize, k: usize, n: usize) {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul8:table");
    obs_macs(m, k, n, 2);
    matmul8_rows(op, a, b, out, 0..m, k, n);
}

/// Row-banded parallel table-driven matmul; bit-for-bit equal to
/// [`matmul8`].
pub fn matmul8_parallel(
    op: &LutOp,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul8:parallel");
    obs_macs(m, k, n, 2);
    for_each_band(out, m, n, |rows, oband| {
        matmul8_rows(op, a, b, oband, rows, k, n);
    });
}

/// Reference matmul through the decode→compute→encode scalar ops (the
/// tier the tables are benchmarked against). Same accumulation order as
/// [`matmul8`], so results are identical codes.
pub fn matmul8_scalar(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul8:scalar");
    obs_macs(m, k, n, 0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        orow.fill(0);
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = fmt.add_scalar_events(*o, fmt.mul_scalar_events(av, bv).0).0;
            }
        }
    }
}

/// Serial matmul over raw `u8 × u8 → u8` tables supplied by the caller
/// (same accumulation order as [`matmul8`]). This is the path the fault
/// injector drives with deliberately corrupted tables, and the one the
/// verified-LUT fallback in `nga-nn` uses after a checksum pass.
#[allow(clippy::too_many_arguments)]
pub fn matmul8_tables(
    mul: &BinaryTable,
    add: &BinaryTable,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul8:tables");
    obs_macs(m, k, n, 2);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        orow.fill(0);
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = add.get(*o, mul.get(av, bv));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Status-reporting 8-bit kernels
// ---------------------------------------------------------------------

/// The status row worker shared by the table and parallel tiers: same
/// accumulation order as [`matmul8_rows`], counting one mul and one add
/// event per MAC.
///
/// Events are tallied branch-free: each op's event byte is spread into a
/// lane-packed word (`Event8::spread`) and summed, and the word is folded
/// into the counters after at most [`TALLY_CAPACITY`] ops, before any
/// 9-bit lane can overflow.
fn matmul8_status_rows(
    op: &StatusOp,
    a: &[u8],
    b: &[u8],
    oband: &mut [u8],
    rows: Range<usize>,
    k: usize,
    n: usize,
) -> StatusCounters {
    // Two ops (mul + add) per MAC.
    const MACS_PER_TALLY: usize = TALLY_CAPACITY / 2;
    let mut counters = StatusCounters::new();
    for (li, gi) in rows.enumerate() {
        let arow = &a[gi * k..(gi + 1) * k];
        let orow = &mut oband[li * n..(li + 1) * n];
        orow.fill(0);
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (ochunk, bchunk) in orow
                .chunks_mut(MACS_PER_TALLY)
                .zip(brow.chunks(MACS_PER_TALLY))
            {
                let mut tally = 0u64;
                for (o, &bv) in ochunk.iter_mut().zip(bchunk) {
                    let (p, mul_ev) = op.mul(av, bv);
                    let (s, add_ev) = op.add(*o, p);
                    tally += mul_ev.spread() + add_ev.spread();
                    *o = s;
                }
                counters.add_tally(2 * ochunk.len() as u64, tally);
            }
        }
    }
    counters
}

/// Status-reporting reference matmul through the scalar event ops.
/// Output codes equal [`matmul8_scalar`]; the returned counters record
/// one mul and one add event per MAC.
pub(crate) fn status_scalar(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> StatusCounters {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul8:scalar");
    let mut counters = StatusCounters::new();
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        orow.fill(0);
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                let (p, mul_ev) = fmt.mul_scalar_events(av, bv);
                counters.record(mul_ev);
                let (s, add_ev) = fmt.add_scalar_events(*o, p);
                counters.record(add_ev);
                *o = s;
            }
        }
    }
    obs_status(m, k, n, 0, &counters);
    counters
}

/// Status-reporting serial table matmul. Because the event tables are
/// seeded from the scalar event ops, both the output codes and the
/// counters are identical to [`status_scalar`].
pub(crate) fn status_table(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> StatusCounters {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul8:table");
    // One value load + one event load per op, two ops per MAC.
    let counters = matmul8_status_rows(&StatusOp::new(fmt), a, b, out, 0..m, k, n);
    obs_status(m, k, n, 4, &counters);
    counters
}

/// Status-reporting row-banded parallel table matmul. Output codes and
/// counters are identical to the serial tiers: each band's counters are
/// accumulated independently and merged with saturating sums, which are
/// order-independent.
pub(crate) fn status_parallel(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> StatusCounters {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul8:parallel");
    let op = StatusOp::new(fmt);
    let mut total = StatusCounters::new();
    for band in for_each_band(out, m, n, |rows, oband| {
        matmul8_status_rows(&op, a, b, oband, rows, k, n)
    }) {
        total.merge(&band);
    }
    obs_status(m, k, n, 4, &total);
    total
}

/// Status-reporting reference matmul through the scalar event ops.
#[allow(clippy::too_many_arguments)]
#[deprecated(
    since = "0.1.0",
    note = "use `ArithCtx::with_tier(KernelTier::Scalar)` and `ArithCtx::matmul8`"
)]
pub fn matmul8_status_scalar(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> StatusCounters {
    status_scalar(fmt, a, b, out, m, k, n)
}

/// Status-reporting serial table matmul.
#[allow(clippy::too_many_arguments)]
#[deprecated(
    since = "0.1.0",
    note = "use `ArithCtx::with_tier(KernelTier::Table)` and `ArithCtx::matmul8`"
)]
pub fn matmul8_status_table(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> StatusCounters {
    status_table(fmt, a, b, out, m, k, n)
}

/// Status-reporting row-banded parallel table matmul.
#[allow(clippy::too_many_arguments)]
#[deprecated(
    since = "0.1.0",
    note = "use `ArithCtx::with_tier(KernelTier::Parallel)` and `ArithCtx::matmul8`"
)]
pub fn matmul8_status_parallel(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> StatusCounters {
    status_parallel(fmt, a, b, out, m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(scale, -1.0)).collect()
    }

    #[test]
    fn matmul_matches_naive() {
        let (m, k, n) = (5, 7, 4);
        let a = seq(m * k, 0.13);
        let b = seq(k * n, -0.29);
        let mut out = vec![0.0; m * n];
        matmul_f32(&a, &b, &mut out, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let want: f32 = (0..k).map(|x| a[i * k + x] * b[x * n + j]).sum();
                assert!((out[i * n + j] - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn parallel_matmul_is_bit_identical() {
        let (m, k, n) = (33, 17, 29);
        let a = seq(m * k, 0.0137);
        let b = seq(k * n, -0.0229);
        let mut serial = vec![0.0; m * n];
        let mut par = vec![0.0; m * n];
        matmul_f32(&a, &b, &mut serial, m, k, n);
        matmul_f32_parallel(&a, &b, &mut par, m, k, n);
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            par.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1×1 kernel with no padding unfolds to the input itself.
        let input: Vec<f32> = (0..2 * 3 * 3).map(|v| v as f32).collect();
        let mut cols = Vec::new();
        let (oh, ow) = im2col(&input, 2, 3, 3, 1, 1, 1, 0, &mut cols);
        assert_eq!((oh, ow), (3, 3));
        assert_eq!(cols, input);
    }

    #[test]
    fn im2col_padding_is_zero() {
        let input = vec![1.0f32; 4]; // [1, 2, 2]
        let mut cols = Vec::new();
        let (oh, ow) = im2col(&input, 1, 2, 2, 3, 3, 1, 1, &mut cols);
        assert_eq!((oh, ow), (2, 2));
        // Tap (0,0) at output (0,0) reads padded position (-1,-1) = 0.
        assert_eq!(cols[0], 0.0);
        // Tap (ky=1, kx=1) at output (0,0) reads input (0,0) = 1; the
        // tap's row index is ky*kw + kx = 4.
        let npix = 4;
        assert_eq!(cols[4 * npix], 1.0);
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let input: Vec<f32> = (0..9).map(|v| v as f32 * 0.1).collect();
        let weights = vec![1.0f32]; // 1 out-channel, 1×1 kernel
        let bias = vec![0.0f32];
        let mut cols = Vec::new();
        let mut out = Vec::new();
        let (oh, ow) = conv2d_f32(
            &input, 1, 3, 3, &weights, &bias, 1, 1, 1, 1, 0, &mut cols, &mut out,
        );
        assert_eq!((oh, ow), (3, 3));
        assert_eq!(out, input);
    }

    #[test]
    fn matmul8_all_tiers_agree() {
        for fmt in Format8::ALL {
            let op = LutOp::new(fmt);
            let (m, k, n) = (6, 5, 7);
            let a: Vec<u8> = (0..m * k).map(|i| (i * 37 + 11) as u8).collect();
            let b: Vec<u8> = (0..k * n).map(|i| (i * 91 + 3) as u8).collect();
            let mut scalar = vec![0u8; m * n];
            let mut table = vec![0u8; m * n];
            let mut par = vec![0u8; m * n];
            matmul8_scalar(fmt, &a, &b, &mut scalar, m, k, n);
            matmul8(&op, &a, &b, &mut table, m, k, n);
            matmul8_parallel(&op, &a, &b, &mut par, m, k, n);
            assert_eq!(scalar, table, "{}: table ≡ scalar", fmt.id());
            assert_eq!(table, par, "{}: parallel ≡ table", fmt.id());
        }
    }
}
