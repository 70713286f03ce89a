//! Batched tensor primitives: dot products, blocked matmul and im2col
//! convolution over `&[f32]` and `&[u8]` (8-bit format codes).
//!
//! All matmuls accumulate each output element in ascending-`k` order, in
//! both the serial and the row-banded parallel variants, so parallel
//! results are bit-for-bit equal to serial ones.

use std::ops::Range;

use crate::format8::Format8;
use crate::kernel::KernelTier;
use crate::parallel::for_each_band;
use crate::status::{StatusCounters, TALLY_CAPACITY};
use crate::table::{BinaryTable, LutOp, StatusOp};

/// Records one matmul's worth of arithmetic against the current obs
/// span: `m·k·n` MACs (one mul + one add each), `luts_per_mac` table
/// loads per MAC and, for a status sweep, its per-event totals. Counts
/// are shape-derived, so the record costs one registry update per
/// kernel call, not per element.
fn obs_macs(m: usize, k: usize, n: usize, luts_per_mac: u64, status: Option<&StatusCounters>) {
    let macs = (m as u64)
        .saturating_mul(k as u64)
        .saturating_mul(n as u64);
    nga_obs::record(|c| {
        c.muls = c.muls.saturating_add(macs);
        c.adds = c.adds.saturating_add(macs);
        c.lut_hits = c.lut_hits.saturating_add(macs.saturating_mul(luts_per_mac));
        if let Some(s) = status {
            s.fold_into_obs(c);
        }
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
    obs_macs(m, k, n, 0, None);
    matmul_f32_rows(a, b, out, 0..m, k, n);
}

/// Row-banded parallel matrix multiply; bit-for-bit equal to
/// [`matmul_f32`].
pub fn matmul_f32_parallel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul_f32:parallel");
    obs_macs(m, k, n, 0, None);
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
    obs_macs(oc, kdim, npix, 0, None);
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

/// One 8-bit multiply-accumulate: the op every 8-bit matmul is generic
/// over. Status is a side channel: [`Mac8::mac`] returns the new
/// accumulator together with the summed `Event8::spread` words of the
/// multiply's and the add's events (zero for ops without event tables).
pub(crate) trait Mac8: Sync {
    /// Table loads per MAC, for the trace.
    const LUTS_PER_MAC: u64;

    /// `acc + a·b`, and the spread events the two ops raised.
    fn mac(&self, acc: u8, a: u8, b: u8) -> (u8, u64);
}

/// Decode/compute/encode through the reference scalar event ops.
impl Mac8 for Format8 {
    const LUTS_PER_MAC: u64 = 0;

    #[inline(always)]
    fn mac(&self, acc: u8, a: u8, b: u8) -> (u8, u64) {
        let (p, mul_ev) = self.mul_scalar_events(a, b);
        let (s, add_ev) = self.add_scalar_events(acc, p);
        (s, mul_ev.spread() + add_ev.spread())
    }
}

/// One value load per op; no events.
impl Mac8 for LutOp {
    const LUTS_PER_MAC: u64 = 2;

    #[inline(always)]
    fn mac(&self, acc: u8, a: u8, b: u8) -> (u8, u64) {
        (self.add(acc, self.mul(a, b)), 0)
    }
}

/// One value load and one event load per op.
impl Mac8 for StatusOp {
    const LUTS_PER_MAC: u64 = 4;

    #[inline(always)]
    fn mac(&self, acc: u8, a: u8, b: u8) -> (u8, u64) {
        let (p, mul_ev) = self.mul(a, b);
        let (s, add_ev) = self.add(acc, p);
        (s, mul_ev.spread() + add_ev.spread())
    }
}

/// Caller-supplied `(mul, add)` tables, possibly corrupted; no events.
impl Mac8 for (&BinaryTable, &BinaryTable) {
    const LUTS_PER_MAC: u64 = 2;

    #[inline(always)]
    fn mac(&self, acc: u8, a: u8, b: u8) -> (u8, u64) {
        (self.1.get(acc, self.0.get(a, b)), 0)
    }
}

/// The one 8-bit row worker: computes global rows `band` of `a·b` into
/// `oband` (local rows). Every output starts at the zero code `0x00` and
/// accumulates in ascending-`k` order, whatever the op or band split.
///
/// With `status`, events are tallied branch-free: the spread words are
/// summed and folded into the counters after at most [`TALLY_CAPACITY`]
/// ops, before any 9-bit lane can overflow.
#[allow(clippy::too_many_arguments)]
fn rows<M: Mac8>(
    op: &M,
    status: bool,
    a: &[u8],
    b: &[u8],
    oband: &mut [u8],
    band: Range<usize>,
    k: usize,
    n: usize,
) -> StatusCounters {
    // Two ops (mul + add) per MAC.
    let chunk = if status { TALLY_CAPACITY / 2 } else { usize::MAX };
    let mut counters = StatusCounters::new();
    for (li, gi) in band.enumerate() {
        let arow = &a[gi * k..(gi + 1) * k];
        let orow = &mut oband[li * n..(li + 1) * n];
        orow.fill(0);
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (ochunk, bchunk) in orow.chunks_mut(chunk).zip(brow.chunks(chunk)) {
                let mut tally = 0u64;
                for (o, &bv) in ochunk.iter_mut().zip(bchunk) {
                    let (s, t) = op.mac(*o, av, bv);
                    *o = s;
                    tally += t;
                }
                if status {
                    counters.add_tally(2 * ochunk.len() as u64, tally);
                }
            }
        }
    }
    counters
}

/// Every 8-bit matmul: checks the shapes, opens the trace scope `span`,
/// runs [`rows`] serially or in row bands (merging the bands' counters,
/// an order-independent fold) and records the MACs in the trace.
///
/// With `status`, the counters count one mul and one add event per MAC
/// and are folded into the trace too; without, they are empty.
#[allow(clippy::too_many_arguments)]
fn run<M: Mac8>(
    op: &M,
    span: &'static str,
    banded: bool,
    status: bool,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> StatusCounters {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span(span);
    let worker = |band, oband: &mut [u8]| rows(op, status, a, b, oband, band, k, n);
    let counters = if banded {
        let mut total = StatusCounters::new();
        for s in for_each_band(out, m, n, worker) {
            total.merge(&s);
        }
        total
    } else {
        worker(0..m, out)
    };
    obs_macs(m, k, n, M::LUTS_PER_MAC, status.then_some(&counters));
    counters
}

/// Serial table-driven matrix multiply over format codes.
pub fn matmul8(op: &LutOp, a: &[u8], b: &[u8], out: &mut [u8], m: usize, k: usize, n: usize) {
    run(op, "matmul8:table", false, false, a, b, out, m, k, n);
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
    run(op, "matmul8:parallel", true, false, a, b, out, m, k, n);
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
    run(&fmt, "matmul8:scalar", false, false, a, b, out, m, k, n);
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
    run(&(mul, add), "matmul8:tables", false, false, a, b, out, m, k, n);
}

/// Status-reporting matmul on `tier`: the codes of the status-free
/// matmuls plus counters recording one mul and one add event per MAC.
/// The event tables are seeded from the scalar event ops, so codes and
/// counters are identical on every tier.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul8_status(
    tier: KernelTier,
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> StatusCounters {
    match tier {
        KernelTier::Scalar => run(&fmt, "matmul8:scalar", false, true, a, b, out, m, k, n),
        KernelTier::Table => {
            run(&StatusOp::new(fmt), "matmul8:table", false, true, a, b, out, m, k, n)
        }
        KernelTier::Parallel => {
            run(&StatusOp::new(fmt), "matmul8:parallel", true, true, a, b, out, m, k, n)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Naive reference for every 8-bit matmul: per output element, in
    /// ascending `k`, through the scalar event ops, recording every op.
    /// Shares no loop with [`rows`].
    pub(crate) fn naive_matmul8(
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
    fn every_8bit_entry_point_matches_the_naive_reference() {
        let (m, k, n) = (6, 5, 7);
        let a: Vec<u8> = (0..m * k).map(|i| (i * 37 + 11) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|i| (i * 91 + 3) as u8).collect();
        for fmt in Format8::ALL {
            let (want, want_s) = naive_matmul8(fmt, &a, &b, m, k, n);
            let op = LutOp::new(fmt);
            let mut out = vec![0u8; m * n];
            matmul8_scalar(fmt, &a, &b, &mut out, m, k, n);
            assert_eq!(out, want, "{}: scalar", fmt.id());
            matmul8(&op, &a, &b, &mut out, m, k, n);
            assert_eq!(out, want, "{}: table", fmt.id());
            matmul8_parallel(&op, &a, &b, &mut out, m, k, n);
            assert_eq!(out, want, "{}: parallel", fmt.id());
            matmul8_tables(
                crate::mul_table(fmt),
                crate::add_table(fmt),
                &a,
                &b,
                &mut out,
                m,
                k,
                n,
            );
            assert_eq!(out, want, "{}: tables", fmt.id());
            for tier in KernelTier::ALL {
                let s = matmul8_status(tier, fmt, &a, &b, &mut out, m, k, n);
                assert_eq!(out, want, "{} {tier}: status codes", fmt.id());
                assert_eq!(s, want_s, "{} {tier}: status counters", fmt.id());
            }
        }
    }
}
