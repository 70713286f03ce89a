//! Batched tensor primitives: dot products, matmul and implicit-GEMM
//! convolution over `&[f32]` and `&[u8]` (8-bit format codes).
//!
//! All matmuls accumulate each output element in ascending-`k` order,
//! whatever row band (or, for f32, register tile) it falls in, so
//! parallel results are bit-for-bit equal to serial ones. The f32
//! convolution packs one `NR`-pixel panel of the im2col matrix at a time
//! and runs the f32 matmuls' register tile over it, so it keeps that
//! order too without ever building the matrix.

#![expect(
    clippy::indexing_slicing,
    reason = "kernels index with i * n + j by design; every shape is \
              checked once at entry (check_matmul_shapes, for_each_band)"
)]

use std::ops::Range;

use crate::format8::Format8;
use crate::kernel::KernelTier;
use crate::parallel::{bands_for, for_each_band, run_bands};
use crate::status::{StatusCounters, TALLY_CAPACITY};
use crate::table::{LutOp, StatusOp};

/// The MACs of an `m×k · k×n` product, `m·k·n` (saturating). Kernels
/// record them from the shape, so a call costs one registry update, not
/// one per element.
fn macs(m: usize, k: usize, n: usize) -> u64 {
    (m as u64).saturating_mul(k as u64).saturating_mul(n as u64)
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

/// Rows × columns of the f32 register tile. On the baseline x86-64
/// target (SSE2, 16 vector registers) 4×8 accumulators take 8 registers
/// and each `b` load feeds 4 outputs; 6×8 and 8×8 measured slower.
const MR: usize = 4;
const NR: usize = 8;

/// The f32 GEMM row worker of every f32 matmul: computes global rows
/// `rows` of `a·b` (`a` m×k, `b` k×n) into `oband` (local rows), each row
/// starting at its `bias` entry, or at `0.0` without a bias.
///
/// Register-blocked: an `MR`×`NR` output tile stays in a local array for
/// the whole `k` loop ([`tile`], shared with [`conv2d_f32`]), so each
/// output is stored once. Band rows past the last multiple of `MR` run
/// one row at a time, and columns past the last multiple of `NR` run in
/// one narrower tile.
///
/// Bit-identity: whatever the tile, tail or band split, every output
/// starts at its bias (or `0.0`) and adds `a[row][kk] · b[kk][col]` for
/// ascending `kk`, as a separate multiply and add (Rust never contracts
/// them into an FMA). That is the naive per-element loop's order, so
/// every result is the same f32 bit for bit.
fn gemm_f32_rows(
    a: &[f32],
    b: &[f32],
    oband: &mut [f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
) {
    // No columns, no work; and a zero chunk size would panic below.
    if n == 0 {
        return;
    }
    let mut blocks = oband.chunks_exact_mut(MR * n);
    let mut gi = rows.start;
    for oblk in &mut blocks {
        row_block::<MR>(a, b, oblk, gi, k, n, bias);
        gi += MR;
    }
    for orow in blocks.into_remainder().chunks_exact_mut(n) {
        row_block::<1>(a, b, orow, gi, k, n, bias);
        gi += 1;
    }
}

/// `R` output rows from global row `gi`: full `NR`-wide tiles, then the
/// column tail.
#[inline(always)]
fn row_block<const R: usize>(
    a: &[f32],
    b: &[f32],
    oblk: &mut [f32],
    gi: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(gi + r) * k..(gi + r + 1) * k]);
    let start: [f32; R] = std::array::from_fn(|r| bias.map_or(0.0, |b| b[gi + r]));
    let full = n - n % NR;
    for j0 in (0..full).step_by(NR) {
        let acc = tile(&arows, start, b, n, j0, NR);
        store(&acc, oblk.chunks_exact_mut(n), j0, NR);
    }
    if full < n {
        let acc = tile(&arows, start, b, n, full, n - full);
        store(&acc, oblk.chunks_exact_mut(n), full, n - full);
    }
}

/// Stores columns `..width` of each accumulator row at columns
/// `j0..j0 + width` of its output row.
#[inline(always)]
fn store<'o, const R: usize>(
    acc: &[[f32; NR]; R],
    orows: impl Iterator<Item = &'o mut [f32]>,
    j0: usize,
    width: usize,
) {
    for (accr, orow) in acc.iter().zip(orows) {
        orow[j0..j0 + width].copy_from_slice(&accr[..width]);
    }
}

/// The one f32 MAC loop: `R` rows of `a` times columns `j0..j0 + width`
/// (`width ≤ NR`) of `b`, whose rows are `stride` apart. Row `r` starts
/// at `start[r]` and adds `arows[r][kk] · b[kk][col]` for ascending `kk`.
/// Returns the accumulators; lanes past `width` are unspecified.
#[inline(always)]
fn tile<const R: usize>(
    arows: &[&[f32]; R],
    start: [f32; R],
    b: &[f32],
    stride: usize,
    j0: usize,
    width: usize,
) -> [[f32; NR]; R] {
    // Opaque start values: where LLVM sees the matmuls' constant `0.0`,
    // its vectoriser shuffles the tile between registers every `k` step
    // and the loop runs ~35 % slower.
    let mut acc = std::hint::black_box(start).map(|v| [v; NR]);
    for (kk, brow) in b.chunks_exact(stride).enumerate() {
        let bt = &brow[j0..j0 + width];
        for (accr, arow) in acc.iter_mut().zip(arows) {
            let av = arow[kk];
            for (o, &bv) in accr.iter_mut().zip(bt) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// Serial matrix multiply: `out = a · b` with `a` m×k, `b` k×n (all
/// row-major).
pub fn matmul_f32(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul_f32:serial");
    nga_obs::record(|c| c.add_macs(macs(m, k, n), 0));
    gemm_f32_rows(a, b, out, 0..m, k, n, None);
}

/// Row-banded parallel matrix multiply; bit-for-bit equal to
/// [`matmul_f32`].
pub fn matmul_f32_parallel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check_matmul_shapes(a, b, out, m, k, n);
    let _span = nga_obs::span("matmul_f32:parallel");
    nga_obs::record(|c| c.add_macs(macs(m, k, n), 0));
    for_each_band(out, m, n, |rows, oband| {
        gemm_f32_rows(a, b, oband, rows, k, n, None);
    });
}

/// Output size of a `k`-tap, `stride`, `pad` convolution along an
/// `len`-long axis.
fn conv_out_len(len: usize, k: usize, stride: usize, pad: usize) -> usize {
    (len + 2 * pad).saturating_sub(k) / stride + 1
}

/// Unfolds a `[ch, h, w]` input into the im2col matrix for a
/// `kh×kw`/`stride`/`pad` convolution: row `(c·kh + ky)·kw + kx`,
/// column `oy·ow + ox` holds the padded input pixel under kernel tap
/// `(ky, kx)` at output position `(oy, ox)`.
///
/// [`conv2d_f32`] packs this matrix one 8-column panel at a time and
/// never builds it whole; the tests and benchmarks compare it against a
/// GEMM over this reference.
///
/// Returns `(oh, ow)`; `cols` is resized to `ch·kh·kw × oh·ow`.
#[expect(clippy::too_many_arguments, reason = "conv geometry as plain dims")]
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
    let oh = conv_out_len(h, kh, stride, pad);
    let ow = conv_out_len(w, kw, stride, pad);
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

/// The geometry of one convolution call, over the zero-padded input
/// ([`ConvShape::padded`]).
struct ConvShape {
    ch: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    oh: usize,
    ow: usize,
    /// Width and size of one padded input plane.
    pw: usize,
    plane: usize,
}

impl ConvShape {
    fn new(ch: usize, hw: (usize, usize), khw: (usize, usize), stride: usize, pad: usize) -> Self {
        let ((h, w), (kh, kw)) = (hw, khw);
        let oh = conv_out_len(h, kh, stride, pad);
        let ow = conv_out_len(w, kw, stride, pad);
        // Every tap of every output pixel lies inside the padded plane,
        // also when a kernel is larger than its padded input.
        let ph = (h + 2 * pad).max((oh - 1) * stride + kh);
        let pw = (w + 2 * pad).max((ow - 1) * stride + kw);
        Self {
            ch,
            kh,
            kw,
            stride,
            oh,
            ow,
            pw,
            plane: ph * pw,
        }
    }

    /// Output pixels per channel; never 0, as `oh` and `ow` are at least 1.
    fn npix(&self) -> usize {
        self.oh * self.ow
    }

    /// Zeros before the first and after the last padded plane: a whole
    /// `NR`-lane read in [`ConvShape::pack`] may start up to `NR - 1`
    /// strides before a run's first pixel and end as far past its last.
    fn slack(&self) -> usize {
        NR * self.stride
    }

    /// The `[ch, h, w]` input with `pad` zeros around each plane, between
    /// [`ConvShape::slack`] zeros: one pass over the input, after which
    /// packing needs no bounds checks.
    fn padded(&self, input: &[f32], (h, w): (usize, usize), pad: usize) -> Vec<f32> {
        let slack = self.slack();
        let mut xp = vec![0.0f32; slack + self.ch * self.plane + slack];
        for c in 0..self.ch {
            for y in 0..h {
                let at = slack + c * self.plane + (y + pad) * self.pw + pad;
                xp[at..at + w].copy_from_slice(&input[(c * h + y) * w..][..w]);
            }
        }
        xp
    }

    /// Packs output pixels `p0..p0 + width` (`width ≤ NR`) into `panel`,
    /// their `kdim × NR` block of the im2col matrix: row
    /// `(c·kh + ky)·kw + kx`, lane `l` holds the padded input `xp` under
    /// tap `(ky, kx)` at output pixel `p0 + l`. Padded taps and lanes past
    /// `width` hold `0.0`.
    ///
    /// A block splits into one run of lanes per output row it touches.
    /// At stride 1, each row of a one-run block is one `NR`-float copy;
    /// every other block fills each row run by run, every run a fixed
    /// `NR`-lane select from its row of `xp`. No block falls back to
    /// per-pixel bounds checks.
    fn pack(&self, xp: &[f32], p0: usize, width: usize, panel: &mut [f32]) {
        let (stride, ow, pw) = (self.stride, self.ow, self.pw);
        // (first lane, lanes, `xp` index of tap (0, 0) under lane 0 as
        // if the run's row went on to the left) per run.
        let mut runs = [(0, 0, 0); NR];
        let mut nruns = 0;
        let (mut oy, mut ox) = (p0 / ow, p0 % ow);
        let mut lane = 0;
        while lane < width {
            let len = (ow - ox).min(width - lane);
            let start = self.slack() + oy * stride * pw + ox * stride;
            runs[nruns] = (lane, len, start - lane * stride);
            nruns += 1;
            lane += len;
            (oy, ox) = (oy + 1, 0);
        }
        let runs = &runs[..nruns];
        // One contiguous run over every lane: a plain copy.
        let whole = width == NR && nruns == 1 && stride == 1;
        let span = (NR - 1) * stride + 1;
        // Panel rows in `(c, ky, kx)` order; `panel` has exactly one per tap.
        let mut rows = panel.chunks_exact_mut(NR);
        for c in 0..self.ch {
            for ky in 0..self.kh {
                for kx in 0..self.kw {
                    let Some(row) = rows.next() else { return };
                    let at = c * self.plane + ky * pw + kx;
                    if whole {
                        row.copy_from_slice(&xp[at + runs[0].2..][..NR]);
                        continue;
                    }
                    let mut v = [0.0f32; NR];
                    for &(lane, len, base) in runs {
                        let src = &xp[at + base..][..span];
                        for (l, o) in v.iter_mut().enumerate() {
                            if (lane..lane + len).contains(&l) {
                                *o = src[l * stride];
                            }
                        }
                    }
                    row.copy_from_slice(&v);
                }
            }
        }
    }

    /// Computes pixel blocks `blocks` (of `NR` output pixels each) of
    /// every output channel. `orows` holds each channel's slice of those
    /// blocks' outputs. Each block's panel is packed once and then run
    /// through [`tile`] for every `MR`-channel block, then for each
    /// channel past the last multiple of `MR`.
    fn blocks(
        &self,
        xp: &[f32],
        weights: &[f32],
        bias: &[f32],
        blocks: Range<usize>,
        orows: &mut [&mut [f32]],
    ) {
        let kdim = self.ch * self.kh * self.kw;
        let mut panel = vec![0.0f32; kdim * NR];
        let first = blocks.start * NR;
        for blk in blocks {
            let p0 = blk * NR;
            let width = NR.min(self.npix() - p0);
            self.pack(xp, p0, width, &mut panel);
            let j0 = p0 - first;
            let mut groups = orows.chunks_exact_mut(MR);
            let mut oc0 = 0;
            for group in &mut groups {
                channels::<MR>(weights, bias, oc0, kdim, &panel, group, j0, width);
                oc0 += MR;
            }
            for group in groups.into_remainder().chunks_exact_mut(1) {
                channels::<1>(weights, bias, oc0, kdim, &panel, group, j0, width);
                oc0 += 1;
            }
        }
    }
}

/// Output channels `oc0..oc0 + R` of one packed pixel block, stored at
/// columns `j0..j0 + width` of `orows`.
#[inline(always)]
#[expect(clippy::too_many_arguments, reason = "one tile's operands and place")]
fn channels<const R: usize>(
    weights: &[f32],
    bias: &[f32],
    oc0: usize,
    kdim: usize,
    panel: &[f32],
    orows: &mut [&mut [f32]],
    j0: usize,
    width: usize,
) {
    let wrows: [&[f32]; R] =
        std::array::from_fn(|r| &weights[(oc0 + r) * kdim..(oc0 + r + 1) * kdim]);
    let start: [f32; R] = std::array::from_fn(|r| bias[oc0 + r]);
    let acc = tile(&wrows, start, panel, NR, 0, NR);
    store(&acc, orows.iter_mut().map(|r| &mut **r), j0, width);
}

/// Implicit-GEMM convolution: `weights` is `[oc, ch·kh·kw]` row-major,
/// `bias` has one entry per output channel, and the result `[oc, oh, ow]`
/// is written to `out`.
///
/// No im2col matrix is built. The input is copied once with its zero
/// padding; then, for each block of `NR` output pixels, the kernel packs
/// that block's `ch·kh·kw × NR` panel of the im2col matrix (≤ 18 KiB for
/// ResNet20, so it stays in L1) and runs the f32 matmuls' register tile
/// over it for every block of output channels. Large outputs run in bands
/// of pixel blocks, one band per thread, each packing only its own
/// panels.
///
/// Each output pixel starts at its bias and adds `w·x` in ascending
/// `(c, ky, kx)` order, one multiply and one add per tap, `w·0.0` on
/// padded taps included: a direct loop's order, bit for bit, whatever
/// the band split.
///
/// Returns `(oh, ow)`.
#[expect(clippy::too_many_arguments, reason = "conv geometry as plain dims")]
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
    out: &mut Vec<f32>,
) -> (usize, usize) {
    let kdim = ch * kh * kw;
    assert_eq!(input.len(), ch * h * w, "input is [ch, h, w]");
    assert_eq!(weights.len(), oc * kdim, "weights are [oc, ch*kh*kw]");
    assert_eq!(bias.len(), oc, "one bias per output channel");
    assert!(stride > 0, "stride must be positive");
    let _span = nga_obs::span("conv2d_f32");
    let shape = ConvShape::new(ch, (h, w), (kh, kw), stride, pad);
    let npix = shape.npix();
    nga_obs::record(|c| c.add_macs(macs(oc, kdim, npix), 0));
    out.clear();
    out.resize(oc * npix, 0.0);
    // Each band's slice of every output channel's row.
    let bands = bands_for(oc * npix, npix.div_ceil(NR));
    let mut work: Vec<_> = bands
        .into_iter()
        .map(|band| (band, Vec::with_capacity(oc)))
        .collect();
    for row in out.chunks_exact_mut(npix) {
        let mut rest = row;
        for (band, orows) in &mut work {
            let len = (band.end * NR).min(npix) - band.start * NR;
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            orows.push(head);
            rest = tail;
        }
    }
    let xp = shape.padded(input, (h, w), pad);
    run_bands(work, |(band, mut orows)| {
        shape.blocks(&xp, weights, bias, band, &mut orows);
    });
    (shape.oh, shape.ow)
}

// ---------------------------------------------------------------------
// 8-bit format kernels
// ---------------------------------------------------------------------

/// One 8-bit multiply-accumulate: the op every 8-bit matmul is generic
/// over. Status is a side channel: [`Mac8::mac`] returns the new
/// accumulator together with the summed `Event8::spread` words of the
/// multiply's and the add's events (zero for the status-free ops).
pub(crate) trait Mac8: Sync {
    /// The tier the op belongs to: it names the trace scope and decides
    /// whether the matmul runs in row bands.
    const TIER: KernelTier;

    /// `acc + a·b`, and the spread events the two ops raised.
    fn mac(&self, acc: u8, a: u8, b: u8) -> (u8, u64);
}

/// Decode/compute/encode through the reference scalar event ops.
impl Mac8 for Format8 {
    const TIER: KernelTier = KernelTier::Scalar;

    #[inline(always)]
    fn mac(&self, acc: u8, a: u8, b: u8) -> (u8, u64) {
        let (p, mul_ev) = self.mul_scalar_events(a, b);
        let (s, add_ev) = self.add_scalar_events(acc, p);
        (s, mul_ev.spread() + add_ev.spread())
    }
}

/// One table load per op, code only; no events.
impl Mac8 for LutOp<'_> {
    const TIER: KernelTier = KernelTier::Parallel;

    #[inline(always)]
    fn mac(&self, acc: u8, a: u8, b: u8) -> (u8, u64) {
        (self.add(acc, self.mul(a, b)), 0)
    }
}

/// One table load per op, code and events.
impl Mac8 for StatusOp {
    const TIER: KernelTier = KernelTier::Parallel;

    #[inline(always)]
    fn mac(&self, acc: u8, a: u8, b: u8) -> (u8, u64) {
        let (p, mul_ev) = self.mul(a, b);
        let (s, add_ev) = self.add(acc, p);
        (s, mul_ev.spread() + add_ev.spread())
    }
}

/// The one 8-bit row worker: computes global rows `band` of `a·b` into
/// `oband` (local rows). Every output starts at the zero code `0x00` and
/// accumulates in ascending-`k` order, whatever the op or band split.
///
/// With `status`, events are tallied branch-free: the spread words are
/// summed and folded into the counters after at most [`TALLY_CAPACITY`]
/// ops, before any 9-bit lane can overflow.
#[expect(clippy::too_many_arguments, reason = "BLAS-style flat slices and dims")]
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

/// Every 8-bit matmul: checks the shapes, opens the tier's trace scope,
/// runs [`rows`] (serially on `Scalar`; in row bands on `Parallel`,
/// merging the bands' counters, an order-independent fold) and records
/// the MACs in the trace.
///
/// With `status`, the counters count one mul and one add event per MAC
/// and are folded into the trace too; without, they are empty.
#[expect(clippy::too_many_arguments, reason = "BLAS-style flat slices and dims")]
fn run<M: Mac8>(
    op: &M,
    status: bool,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> StatusCounters {
    check_matmul_shapes(a, b, out, m, k, n);
    let (span, banded, luts_per_mac) = match M::TIER {
        KernelTier::Scalar => ("matmul8:scalar", false, 0),
        KernelTier::Parallel => ("matmul8:parallel", true, 2),
    };
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
    let macs = macs(m, k, n);
    nga_obs::record(|c| {
        c.add_macs(macs, macs.saturating_mul(luts_per_mac));
        // Empty without `status`, so this adds nothing then.
        counters.fold_into_obs(c);
    });
    counters
}

/// Table-driven matrix multiply over format codes, in row bands once
/// `m·n` reaches the banding threshold (one serial band below it, or on
/// one thread). `op` may hold the cached tables of a format
/// ([`LutOp::new`]) or caller-supplied ones ([`LutOp::from_tables`]),
/// such as the deliberately corrupted tables of the fault injector.
pub fn matmul8_parallel(
    op: &LutOp<'_>,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) {
    run(op, false, a, b, out, m, k, n);
}

/// Reference matmul through the decode→compute→encode scalar ops (the
/// tier the tables are benchmarked against), serial. Same accumulation
/// order as [`matmul8_parallel`], so results are identical codes.
pub fn matmul8_scalar(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) {
    run(&fmt, false, a, b, out, m, k, n);
}

/// Status-reporting matmul on `tier`: the codes of the status-free
/// matmuls plus counters recording one mul and one add event per MAC.
/// The fused tables are built from the scalar event ops, so codes and
/// counters are identical on every tier.
#[expect(clippy::too_many_arguments, reason = "BLAS-style flat slices and dims")]
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
        KernelTier::Scalar => run(&fmt, true, a, b, out, m, k, n),
        KernelTier::Parallel => run(&StatusOp::new(fmt), true, a, b, out, m, k, n),
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
                let mut want = 0.0f32;
                for x in 0..k {
                    want += a[i * k + x] * b[x * n + j];
                }
                assert_eq!(out[i * n + j].to_bits(), want.to_bits(), "({i}, {j})");
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
        let mut out = Vec::new();
        let (oh, ow) = conv2d_f32(&input, 1, 3, 3, &weights, &bias, 1, 1, 1, 1, 0, &mut out);
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
            matmul8_parallel(&op, &a, &b, &mut out, m, k, n);
            assert_eq!(out, want, "{}: parallel", fmt.id());
            let mul = crate::BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).0);
            let add = crate::BinaryTable::build(|a, b| fmt.add_scalar_events(a, b).0);
            matmul8_parallel(&LutOp::from_tables(&mul, &add), &a, &b, &mut out, m, k, n);
            assert_eq!(out, want, "{}: caller value tables", fmt.id());
            for tier in KernelTier::ALL {
                let s = matmul8_status(tier, fmt, &a, &b, &mut out, m, k, n);
                assert_eq!(out, want, "{} {tier}: status codes", fmt.id());
                assert_eq!(s, want_s, "{} {tier}: status counters", fmt.id());
            }
        }
    }
}
