//! 8-bit linear quantization and behavioural approximate-multiplier
//! injection (the ProxSim flow of §IV).
//!
//! "We quantize weights, bias, and activations to 8 bits using linear
//! quantization. The result of f̃(x, w) is obtained by introducing the
//! behavioural simulation of a given approximate multiplier in the
//! computation." Weights are symmetric `i8`, activations asymmetric `u8`
//! with per-layer scales calibrated on sample data; every
//! multiply inside conv/fc kernels goes through an
//! [`ApproxMultiplier`] on `(|w|, activation)` magnitudes, with
//! zero-point folding and bias addition kept exact (the accumulator is a
//! plain `i32`/`f32`, as in the AxDNN-style studies the paper cites).
//!
//! Conv and depthwise conv share one weight-stationary integer loop: a
//! tap `(oc, ic, ky, kx)` of up to four output channels at once keeps its
//! weights, 512 B `MacTable` rows and `z·w` terms in registers while it
//! sweeps the output rectangle its offset reaches (found once per layer,
//! so padding is never visited), adding `mac(w, a) − z·w` into one `i32`
//! per output; each activation load feeds every channel. Dense layers
//! stay row dot products with the same `acc·(s_w·s_a) + bias` epilogue.
//!
//! The order of the integer sum does not matter: every term is an exact
//! integer below 70 000 in magnitude (`|mac| ≤ 35 840` for the coarsest
//! DRUM, `|z·w| ≤ 255·127`), so below 30 000 taps per output (ResNet20
//! has at most 576) no partial sum leaves `i32`, and the total equals the
//! output-stationary `Σ mac − z·Σw` exactly, for every multiplier.

use crate::layers::{Layer, Network};
use crate::tensor::Tensor;
use nga_approx::ApproxMultiplier;
use std::ops::Range;

/// Asymmetric `u8` quantization parameters for activations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Step size.
    pub scale: f32,
    /// Zero point (the u8 code representing 0.0).
    pub zero: i32,
}

impl QuantParams {
    /// Derives parameters covering `[lo, hi]` (always including 0).
    #[must_use]
    pub fn from_range(lo: f32, hi: f32) -> Self {
        let lo = lo.min(0.0);
        let hi = hi.max(lo + 1e-6).max(0.0);
        let scale = (hi - lo) / 255.0;
        let zero = (-lo / scale).round() as i32;
        Self {
            scale,
            zero: zero.clamp(0, 255),
        }
    }

    /// Quantizes one value to u8.
    #[must_use]
    pub fn quantize(&self, x: f32) -> u8 {
        ((x / self.scale).round() as i32 + self.zero).clamp(0, 255) as u8
    }

    /// Dequantizes one u8 code.
    #[must_use]
    pub fn dequantize(&self, q: u8) -> f32 {
        (i32::from(q) - self.zero) as f32 * self.scale
    }
}

/// A quantized layer with weights: a convolution, a depthwise
/// convolution (each output channel reads only its own plane), or a dense
/// layer (a 1×1 convolution of a 1×1 plane).
#[derive(Debug, Clone)]
struct QConv {
    /// `[out_ch, in_ch, k, k]` weight codes.
    wq: Vec<i8>,
    out_ch: usize,
    /// Input planes each output channel reads (1 when depthwise).
    in_ch: usize,
    k: usize,
    depthwise: bool,
    w_scale: f32,
    bias: Vec<f32>,
    stride: usize,
    pad: usize,
    /// Input quantization, calibrated on the layer's sample inputs.
    in_q: QuantParams,
}

impl QConv {
    /// Quantizes dense (`[out, in]`), conv (`[out, in, k, k]`) or
    /// depthwise conv (`[ch, k, k]`) weights.
    fn new(w: &Tensor, bias: &Tensor, stride: usize, pad: usize, in_q: QuantParams) -> Self {
        let s = w.shape();
        let (wq, w_scale) = quantize_weights(w.data());
        Self {
            wq,
            out_ch: s[0],
            in_ch: if s.len() == 3 { 1 } else { s[1] },
            k: if s.len() == 2 { 1 } else { s[s.len() - 1] },
            depthwise: s.len() == 3,
            w_scale,
            bias: bias.data().to_vec(),
            stride,
            pad,
            in_q,
        }
    }

    /// The input feature map as `u8` codes.
    fn quantize(&self, x: &Tensor) -> Vec<u8> {
        x.data().iter().map(|&v| self.in_q.quantize(v)).collect()
    }

    /// Zero-point folding: `Σ w·(a − z) = Σ mac(w, a) − z·Σw`, so a tap
    /// (or row) whose weights sum to `wsum` subtracts `z·wsum`.
    fn zw(&self, wsum: i32) -> i32 {
        self.in_q.zero * wsum
    }

    /// Dequantizes output channel `oc`'s zero-point-corrected
    /// accumulator and adds its bias.
    fn out(&self, acc: i32, oc: usize) -> f32 {
        acc as f32 * (self.w_scale * self.in_q.scale) + self.bias[oc]
    }
}

#[derive(Debug, Clone)]
enum QLayer {
    Conv(QConv),
    Dense(QConv),
    Relu,
    MaxPool2,
    GlobalAvgPool,
    Flatten,
    Residual {
        main: Vec<QLayer>,
        shortcut: Vec<QLayer>,
    },
}

/// A fully quantized mirror of a float [`Network`], evaluable with any
/// [`ApproxMultiplier`] standing in for the MAC array's multiplier.
///
/// ```
/// use nga_nn::{layers::{Dense, Layer, Network}, quant::QuantizedNetwork, Tensor};
/// use nga_approx::ApproxMultiplier;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let net = Network { layers: vec![Layer::Dense(Dense::new(&mut rng, 4, 8))] };
/// let calib: Vec<Tensor> = vec![Tensor::from_vec(&[8], vec![0.5; 8])];
/// let q = QuantizedNetwork::from_float(&net, &calib);
/// let x = Tensor::from_vec(&[8], vec![0.25; 8]);
/// let exact = q.forward(&x, ApproxMultiplier::Exact);
/// let float = net.forward(&x);
/// for (a, b) in exact.data().iter().zip(float.data()) {
///     assert!((a - b).abs() < 0.05, "quantization error is small");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    layers: Vec<QLayer>,
}

impl QuantizedNetwork {
    /// Quantizes a float network, calibrating activation ranges on the
    /// given sample inputs.
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty.
    #[must_use]
    pub fn from_float(net: &Network, calib: &[Tensor]) -> Self {
        assert!(!calib.is_empty(), "need calibration samples");
        let _span = nga_obs::span("nn:calibrate");
        // One sample at a time, so only one set of activations is live.
        let mut ranges = Vec::new();
        for x in calib {
            observe(&net.layers, x.clone(), &mut ranges, &mut 0);
        }
        let mut in_q = ranges
            .into_iter()
            .map(|(lo, hi)| QuantParams::from_range(lo, hi));
        Self {
            layers: build(&net.layers, &mut in_q),
        }
    }

    /// Forward pass with the given multiplier model.
    #[must_use]
    pub fn forward(&self, x: &Tensor, m: ApproxMultiplier) -> Tensor {
        let _span = nga_obs::span("nn:qforward");
        self.layers.iter().fold(x.clone(), |t, l| eval(l, t, m))
    }
}

/// Runs one calibration sample through the float layers, widening the
/// input range of each weight layer (in walk order) in `ranges`.
fn observe(layers: &[Layer], mut x: Tensor, ranges: &mut Vec<(f32, f32)>, i: &mut usize) -> Tensor {
    for layer in layers {
        x = match layer {
            Layer::Residual(r) => {
                let main = observe(&r.main, x.clone(), ranges, i);
                main.add(&observe(&r.shortcut, x, ranges, i))
            }
            Layer::Conv2d(_) | Layer::DwConv2d(_) | Layer::Dense(_) => {
                if *i == ranges.len() {
                    ranges.push((f32::INFINITY, f32::NEG_INFINITY));
                }
                let (lo, hi) = x.min_max();
                ranges[*i] = (ranges[*i].0.min(lo), ranges[*i].1.max(hi));
                *i += 1;
                layer.forward(&x)
            }
            _ => layer.forward(&x),
        };
    }
    x
}

/// Quantizes layers, taking each weight layer's input quantization from
/// `in_q` in walk order.
fn build(layers: &[Layer], in_q: &mut impl Iterator<Item = QuantParams>) -> Vec<QLayer> {
    let mut out = Vec::with_capacity(layers.len());
    for layer in layers {
        let mut q = || in_q.next().expect("one observed range per weight layer");
        out.push(match layer {
            Layer::Conv2d(c) => QLayer::Conv(QConv::new(&c.weights, &c.bias, c.stride, c.pad, q())),
            Layer::DwConv2d(c) => {
                QLayer::Conv(QConv::new(&c.weights, &c.bias, c.stride, c.pad, q()))
            }
            Layer::Dense(d) => QLayer::Dense(QConv::new(&d.weights, &d.bias, 1, 0, q())),
            Layer::Relu { .. } => QLayer::Relu,
            Layer::MaxPool2 { .. } => QLayer::MaxPool2,
            Layer::GlobalAvgPool { .. } => QLayer::GlobalAvgPool,
            Layer::Flatten { .. } => QLayer::Flatten,
            Layer::Residual(r) => QLayer::Residual {
                main: build(&r.main, in_q),
                shortcut: build(&r.shortcut, in_q),
            },
        });
    }
    out
}

/// Symmetric i8 weight quantization; returns `(codes, scale)`.
fn quantize_weights(w: &[f32]) -> (Vec<i8>, f32) {
    let max = w.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-12);
    let scale = max / 127.0;
    let codes = w
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (codes, scale)
}

/// One signed approximate MAC: `sign(w) * M(|w|, a)` — the scalar
/// reference the [`nga_kernels::mac_table`] lookup is proven against.
#[cfg(test)]
fn approx_mac(m: ApproxMultiplier, w: i8, a: u8) -> i32 {
    let p = i32::from(m.multiply(w.unsigned_abs(), a));
    if w < 0 {
        -p
    } else {
        p
    }
}

/// The output-stationary conv loop the weight-stationary [`sweep`] is
/// proven against: per output pixel, clipped-border bounds, `Σ mac` and
/// `Σ w`, then `acc − z·Σw`. A depthwise output channel reads only its
/// own input plane.
#[cfg(test)]
fn conv_reference(c: &QConv, x: &Tensor, m: ApproxMultiplier) -> Tensor {
    let (out_ch, in_ch, k) = (c.out_ch, c.in_ch, c.k);
    let (h, w) = (x.shape()[1], x.shape()[2]);
    let oh = (h + 2 * c.pad - k) / c.stride + 1;
    let ow = (w + 2 * c.pad - k) / c.stride + 1;
    let xq: Vec<u8> = x.data().iter().map(|&v| c.in_q.quantize(v)).collect();
    let rescale = c.w_scale * c.in_q.scale;
    let mac = nga_kernels::mac_table(m);
    let npix = oh * ow;
    // Interior pixels see every kernel tap, so their Σw is the full
    // per-channel weight sum; only clipped border pixels recompute it.
    let full_wsum: Vec<i32> = (0..out_ch)
        .map(|oc| {
            c.wq[oc * in_ch * k * k..(oc + 1) * in_ch * k * k]
                .iter()
                .map(|&wv| i32::from(wv))
                .sum()
        })
        .collect();
    let mut y = vec![0.0f32; out_ch * npix];
    for oc in 0..out_ch {
        let wq = &c.wq[oc * in_ch * k * k..(oc + 1) * in_ch * k * k];
        let orow = &mut y[oc * npix..(oc + 1) * npix];
        let mut oidx = 0;
        for oy in 0..oh {
            let iy0 = (oy * c.stride) as isize - c.pad as isize;
            let ky_lo = (-iy0).clamp(0, k as isize) as usize;
            let ky_hi = (h as isize - iy0).clamp(0, k as isize) as usize;
            for ox in 0..ow {
                let ix0 = (ox * c.stride) as isize - c.pad as isize;
                let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                let kx_hi = (w as isize - ix0).clamp(0, k as isize) as usize;
                let clipped = ky_hi - ky_lo < k || kx_hi - kx_lo < k;
                let mut acc: i32 = 0;
                let mut wsum: i32 = if clipped { 0 } else { full_wsum[oc] };
                for ic in 0..in_ch {
                    let p = if c.depthwise { oc } else { ic };
                    let plane = &xq[p * h * w..(p + 1) * h * w];
                    let wch = &wq[ic * k * k..(ic + 1) * k * k];
                    for ky in ky_lo..ky_hi {
                        let ibase =
                            (iy0 + ky as isize) as usize * w + (ix0 + kx_lo as isize) as usize;
                        let wbase = ky * k + kx_lo;
                        let taps = kx_hi - kx_lo;
                        for (&wv, &av) in wch[wbase..wbase + taps]
                            .iter()
                            .zip(&plane[ibase..ibase + taps])
                        {
                            acc += mac.mac(wv, av);
                            if clipped {
                                wsum += i32::from(wv);
                            }
                        }
                    }
                }
                // Zero-point folding is exact: subtract z * Σw.
                let corrected = acc - c.in_q.zero * wsum;
                orow[oidx] = corrected as f32 * rescale + c.bias[oc];
                oidx += 1;
            }
        }
    }
    Tensor::from_vec(&[out_ch, oh, ow], y)
}

/// The layer walk [`QuantizedNetwork::forward`] is proven against: the
/// reference conv loop, a collected ReLU and cloned residual branches.
#[cfg(test)]
fn forward_reference(layers: &[QLayer], x: &Tensor, m: ApproxMultiplier) -> Tensor {
    let mut t = x.clone();
    for l in layers {
        t = match l {
            QLayer::Conv(c) => conv_reference(c, &t, m),
            QLayer::Relu => {
                let data = t.data().iter().map(|&v| v.max(0.0)).collect();
                Tensor::from_vec(t.shape(), data)
            }
            QLayer::Residual { main, shortcut } => {
                forward_reference(main, &t, m).add(&forward_reference(shortcut, &t, m))
            }
            QLayer::Dense(_) | QLayer::MaxPool2 | QLayer::GlobalAvgPool | QLayer::Flatten => {
                eval(l, t, m)
            }
        };
    }
    t
}

fn eval(l: &QLayer, mut x: Tensor, m: ApproxMultiplier) -> Tensor {
    match l {
        QLayer::Conv(c) => {
            let _span = nga_obs::span(if c.depthwise { "qdwconv2d" } else { "qconv2d" });
            conv_forward(c, &x, m)
        }
        QLayer::Dense(d) => {
            let _span = nga_obs::span("qdense");
            dense_forward(d, &x, m)
        }
        QLayer::Relu => {
            for v in x.data_mut() {
                *v = v.max(0.0);
            }
            x
        }
        QLayer::MaxPool2 => Layer::max_pool2().forward(&x),
        QLayer::GlobalAvgPool => Layer::global_avg_pool().forward(&x),
        QLayer::Flatten => Layer::flatten().forward(&x),
        QLayer::Residual { main, shortcut } => {
            let a = main.iter().fold(x.clone(), |t, l| eval(l, t, m));
            // An empty shortcut is the identity: the input itself.
            a.add(&shortcut.iter().fold(x, |t, l| eval(l, t, m)))
        }
    }
}

/// Output positions `o` along one axis whose input `o·stride + t − pad`
/// lies inside `0..n`, for kernel offset `t` and `out` outputs.
fn valid(n: usize, out: usize, t: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(t).div_ceil(stride);
    let hi = (n + pad).saturating_sub(t).div_ceil(stride).min(out);
    lo..hi.max(lo)
}

/// One kernel offset and the outputs it reaches: `runs` runs of `len`
/// outputs, run `r` starting at output `out0 + r·ow` and reading every
/// `stride`-th input from `in0 + r·stride·w`.
struct Tap {
    /// Weight index `ky·k + kx` within one input channel.
    t: usize,
    out0: usize,
    in0: usize,
    runs: usize,
    len: usize,
}

fn conv_forward(c: &QConv, x: &Tensor, m: ApproxMultiplier) -> Tensor {
    let (k, stride, pad) = (c.k, c.stride, c.pad);
    let (h, w) = (x.shape()[1], x.shape()[2]);
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let npix = oh * ow;
    let taps: Vec<Tap> = (0..k * k)
        .filter_map(|t| {
            let (ky, kx) = (t / k, t % k);
            let (ys, xs) = (valid(h, oh, ky, stride, pad), valid(w, ow, kx, stride, pad));
            // When the output is as wide as the plane, a full-width tap's
            // next row starts one stride past its last input, so all its
            // rows form one flat run.
            let (runs, len) = if xs.len() == ow && ow == w {
                (1, ys.len() * ow)
            } else {
                (ys.len(), xs.len())
            };
            // Lazily: an empty tap's offsets can underflow.
            (runs * len > 0).then(|| Tap {
                t,
                out0: ys.start * ow + xs.start,
                in0: (ys.start * stride + ky - pad) * w + xs.start * stride + kx - pad,
                runs,
                len,
            })
        })
        .collect();
    let xq = c.quantize(x);
    let mac = nga_kernels::mac_table(m);
    // Nominal MACs (padded taps included, matching `Layer::macs`), each
    // one `MacTable` lookup and one exact i32 add, recorded once per
    // kernel outside the bands, so worker threads never touch the
    // registry.
    let macs = (c.out_ch * c.in_ch * k * k * npix) as u64;
    nga_obs::record(|counts| counts.add_macs(macs, macs));
    let mut y = vec![0.0f32; c.out_ch * npix];
    nga_kernels::for_each_band(&mut y, c.out_ch, npix, |ocs, band| {
        // Up to four output channels share each activation load; a
        // depthwise channel is alone on its plane.
        let groups = ocs.len().div_ceil(if c.depthwise { 1 } else { 4 });
        let mut rest = band;
        for g in 0..groups {
            let lo = ocs.start + ocs.len() * g / groups;
            let chans = lo..ocs.start + ocs.len() * (g + 1) / groups;
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(chans.len() * npix);
            rest = tail;
            let run = match chans.len() {
                1 => sweep::<1>,
                2 => sweep::<2>,
                3 => sweep::<3>,
                _ => sweep::<4>,
            };
            run(c, &taps, [h, w, oh, ow], &xq, mac, chans, out);
        }
    });
    Tensor::from_vec(&[c.out_ch, oh, ow], y)
}

/// Computes the `G` output channels `chans` into `out`, weight
/// stationary: each tap's `G` weights, `MacTable` rows and `z·w` terms
/// stay fixed while it sweeps its runs, adding `mac(w, a) − z·w` into one
/// `i32` per output, for an `[h, w]` input and `[oh, ow]` output.
fn sweep<const G: usize>(
    c: &QConv,
    taps: &[Tap],
    [h, w, oh, ow]: [usize; 4],
    xq: &[u8],
    mac: &nga_kernels::MacTable,
    chans: Range<usize>,
    out: &mut [f32],
) {
    let (kk, stride, hw, npix) = (c.k * c.k, c.stride, h * w, oh * ow);
    let per_oc = c.in_ch * kk;
    let ws: [&[i8]; G] = std::array::from_fn(|j| &c.wq[(chans.start + j) * per_oc..][..per_oc]);
    let planes = if c.depthwise {
        &xq[chans.start * hw..][..hw]
    } else {
        xq
    };
    let mut acc = vec![[0i32; G]; npix];
    for tap in taps {
        for (ic, plane) in planes.chunks_exact(hw).enumerate() {
            let wv = ws.map(|wc| wc[ic * kk + tap.t]);
            let rows: [&[u16; 256]; G] =
                wv.map(|v| mac.row(v).try_into().expect("256 products per weight"));
            // `(p ^ neg) − neg` is `p` or `−p`: the sign of `w`, folded
            // with `z·w` into one constant per tap.
            let neg = wv.map(|v| -i32::from(v < 0));
            let fold: [i32; G] = std::array::from_fn(|j| neg[j] + c.zw(i32::from(wv[j])));
            for r in 0..tap.runs {
                let mut i = tap.in0 + r * stride * w;
                for o in &mut acc[tap.out0 + r * ow..][..tap.len] {
                    let a = usize::from(plane[i]);
                    i += stride;
                    for j in 0..G {
                        o[j] += (i32::from(rows[j][a]) ^ neg[j]) - fold[j];
                    }
                }
            }
        }
    }
    for ((orow, oc), j) in out.chunks_exact_mut(npix).zip(chans).zip(0..) {
        for (y, a) in orow.iter_mut().zip(&acc) {
            *y = c.out(a[j], oc);
        }
    }
}

fn dense_forward(d: &QConv, x: &Tensor, m: ApproxMultiplier) -> Tensor {
    assert_eq!(x.len(), d.in_ch, "dense input size");
    let xq = d.quantize(x);
    let mac = nga_kernels::mac_table(m);
    let macs = (d.out_ch * d.in_ch) as u64;
    nga_obs::record(|counts| counts.add_macs(macs, macs));
    let mut y = vec![0.0f32; d.out_ch];
    nga_kernels::for_each_band(&mut y, d.out_ch, 1, |rows, band| {
        for (y, o) in band.iter_mut().zip(rows) {
            let row = &d.wq[o * d.in_ch..(o + 1) * d.in_ch];
            let mut acc: i32 = 0;
            let mut wsum: i32 = 0;
            for (&wv, &av) in row.iter().zip(&xq) {
                acc += mac.mac(wv, av);
                wsum += i32::from(wv);
            }
            *y = d.out(acc - d.zw(wsum), o);
        }
    });
    Tensor::from_vec(&[d.out_ch], y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Deterministic values in `[lo, lo + span)` from a seed.
    fn values(seed: u64, n: usize, lo: f32, span: f32) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                lo + span * (state >> 40) as f32 / (1u64 << 24) as f32
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn weight_stationary_conv_matches_reference_bit_for_bit(
            k in prop::sample::select(vec![1usize, 3, 5]),
            stride in 1usize..=2,
            pad in 0usize..5,
            h in 1usize..=13,
            w in 1usize..=13,
            in_ch in 1usize..=4,
            out_ch in 1usize..=9,
            depthwise: bool,
            seed in 0u64..1_000_000,
        ) {
            let pad = pad % k;
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let in_ch = if depthwise { out_ch } else { in_ch };
            let shape: Vec<usize> = if depthwise {
                vec![out_ch, k, k]
            } else {
                vec![out_ch, in_ch, k, k]
            };
            let n_w = shape.iter().product();
            let weights = Tensor::from_vec(&shape, values(seed, n_w, -1.0, 2.0));
            let bias = Tensor::from_vec(&[out_ch], values(seed ^ 1, out_ch, -0.5, 1.0));
            // A seed-dependent range moves the zero point off 0 and 255;
            // inputs above 2.0 saturate at code 255.
            let lo = values(seed ^ 2, 1, -2.0, 2.0)[0];
            let c = QConv::new(&weights, &bias, stride, pad, QuantParams::from_range(lo, 2.0));
            prop_assert_eq!(c.depthwise, depthwise);
            let x = Tensor::from_vec(&[in_ch, h, w], values(seed ^ 3, in_ch * h * w, lo, 3.0 - lo));
            for m in ApproxMultiplier::ALL {
                let want = conv_reference(&c, &x, m);
                let got = conv_forward(&c, &x, m);
                prop_assert_eq!(got.shape(), want.shape());
                prop_assert_eq!(bits(&got), bits(&want), "{:?} k={} s={} p={} {}x{}", m, k, stride, pad, h, w);
            }
        }
    }

    /// The layer-major calibration `from_float` replaced: all samples
    /// advance together, and each weight layer's range is taken over all
    /// of its inputs at once.
    fn batch_ranges(
        layers: &[Layer],
        mut acts: Vec<Tensor>,
        out: &mut Vec<QuantParams>,
    ) -> Vec<Tensor> {
        for layer in layers {
            if let Layer::Residual(r) = layer {
                let m = batch_ranges(&r.main, acts.clone(), out);
                let s = batch_ranges(&r.shortcut, acts.clone(), out);
                acts = m.iter().zip(&s).map(|(a, b)| a.add(b)).collect();
                continue;
            }
            if matches!(
                layer,
                Layer::Conv2d(_) | Layer::DwConv2d(_) | Layer::Dense(_)
            ) {
                let (lo, hi) = acts
                    .iter()
                    .map(Tensor::min_max)
                    .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), (a, b)| {
                        (l.min(a), h.max(b))
                    });
                out.push(QuantParams::from_range(lo, hi));
            }
            acts = acts.iter().map(|t| layer.forward(t)).collect();
        }
        acts
    }

    /// Each weight layer's input quantization, in walk order.
    fn in_qs(layers: &[QLayer], out: &mut Vec<QuantParams>) {
        for l in layers {
            match l {
                QLayer::Conv(c) | QLayer::Dense(c) => out.push(c.in_q),
                QLayer::Residual { main, shortcut } => {
                    in_qs(main, out);
                    in_qs(shortcut, out);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn quantized_networks_match_reference_walk_bit_for_bit() {
        use crate::models::{kws_mini, resnet20, resnet_mini};
        let nets = [
            (kws_mini(24, 10, 16, 1), vec![1, 24, 10]),
            (resnet_mini(6, 10, 2), vec![3, 12, 12]),
            (resnet20(10, 3), vec![3, 32, 32]),
        ];
        for (i, (net, shape)) in nets.iter().enumerate() {
            let n: usize = shape.iter().product();
            let inputs: Vec<Tensor> = (0..3)
                .map(|s| Tensor::from_vec(shape, values(17 * i as u64 + s, n, -1.0, 2.0)))
                .collect();
            let q = QuantizedNetwork::from_float(net, &inputs[..2]);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            batch_ranges(&net.layers, inputs[..2].to_vec(), &mut want);
            in_qs(&q.layers, &mut got);
            assert_eq!(got, want, "net {i}: calibration ranges");
            for m in [
                ApproxMultiplier::Exact,
                ApproxMultiplier::Mitchell,
                ApproxMultiplier::Trunc9,
            ] {
                let x = &inputs[2];
                let got = q.forward(x, m);
                let want = forward_reference(&q.layers, x, m);
                assert_eq!(bits(&got), bits(&want), "net {i} {m:?}");
            }
        }
    }

    /// The calibration walk's layer scopes open under `nn:calibrate`, not
    /// at the caller's scope.
    #[test]
    fn calibration_layers_trace_under_their_own_scope() {
        let net = crate::models::kws_mini(8, 4, 3, 1);
        let x = Tensor::from_vec(&[1, 8, 4], values(5, 32, -1.0, 2.0));
        let scope = "quant-test-calibrate";
        {
            let _span = nga_obs::span(scope);
            let _ = QuantizedNetwork::from_float(&net, &[x]);
        }
        let report = nga_obs::snapshot();
        let calibrated = report.get(&format!("{scope}/nn:calibrate/conv2d"));
        assert_eq!(calibrated.map(|c| c.calls), Some(1));
        assert!(report.get(&format!("{scope}/conv2d")).is_none());
    }

    #[test]
    fn mac_table_matches_scalar_reference_exhaustively() {
        // Every multiplier, every (w, a) pair.
        for m in ApproxMultiplier::ALL {
            let t = nga_kernels::mac_table(m);
            for w in i8::MIN..=i8::MAX {
                for a in 0..=255u8 {
                    assert_eq!(t.mac(w, a), approx_mac(m, w, a), "{m:?} w={w} a={a}");
                }
            }
        }
    }

    #[test]
    fn quant_params_round_trip_within_half_step() {
        let q = QuantParams::from_range(-2.0, 6.0);
        for i in 0..=100 {
            let x = -2.0 + 8.0 * i as f32 / 100.0;
            let back = q.dequantize(q.quantize(x));
            assert!((back - x).abs() <= q.scale / 2.0 + 1e-6, "{x} -> {back}");
        }
        // Zero is exactly representable.
        assert_eq!(q.dequantize(q.quantize(0.0)), 0.0);
    }

    #[test]
    fn weight_quantization_preserves_extremes() {
        let (codes, scale) = quantize_weights(&[-0.5, 0.25, 0.5]);
        assert_eq!(codes[0], -127);
        assert_eq!(codes[2], 127);
        assert!((scale - 0.5 / 127.0).abs() < 1e-9);
    }

    #[test]
    fn quantized_conv_with_exact_multiplier_tracks_float() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network {
            layers: vec![
                Layer::Conv2d(Conv2d::new(&mut rng, 4, 2, 3, 1, 1)),
                Layer::relu(),
                Layer::flatten(),
                Layer::Dense(Dense::new(&mut rng, 3, 4 * 16)),
            ],
        };
        let calib: Vec<Tensor> = (0..4)
            .map(|i| {
                Tensor::from_vec(
                    &[2, 4, 4],
                    (0..32)
                        .map(|j| ((i * 7 + j) % 13) as f32 / 13.0 - 0.3)
                        .collect(),
                )
            })
            .collect();
        let q = QuantizedNetwork::from_float(&net, &calib);
        for t in &calib {
            let fy = net.forward(t);
            let qy = q.forward(t, ApproxMultiplier::Exact);
            let (_, hi) = fy.min_max();
            for (a, b) in fy.data().iter().zip(qy.data()) {
                assert!(
                    (a - b).abs() < 0.05 * hi.abs().max(1.0),
                    "float {a} vs quant {b}"
                );
            }
        }
    }

    #[test]
    fn approximate_multiplier_perturbs_but_preserves_scale() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Network {
            layers: vec![Layer::Dense(Dense::new(&mut rng, 4, 16))],
        };
        let calib = vec![Tensor::from_vec(&[16], vec![0.5; 16])];
        let q = QuantizedNetwork::from_float(&net, &calib);
        let x = Tensor::from_vec(&[16], (0..16).map(|i| i as f32 / 16.0).collect());
        let exact = q.forward(&x, ApproxMultiplier::Exact);
        let noisy = q.forward(&x, ApproxMultiplier::Trunc8);
        let mut differs = false;
        for (a, b) in exact.data().iter().zip(noisy.data()) {
            assert!((a - b).abs() < 1.0, "errors are bounded: {a} vs {b}");
            if a != b {
                differs = true;
            }
        }
        assert!(differs, "deep approximation must actually perturb outputs");
    }

    #[test]
    fn residual_blocks_quantize_recursively() {
        use crate::layers::Residual;
        let mut rng = StdRng::seed_from_u64(5);
        let net = Network {
            layers: vec![
                Layer::Residual(Residual {
                    main: vec![
                        Layer::Conv2d(Conv2d::new(&mut rng, 2, 2, 3, 1, 1)),
                        Layer::relu(),
                    ],
                    shortcut: vec![],
                }),
                Layer::global_avg_pool(),
            ],
        };
        let calib = vec![Tensor::from_vec(
            &[2, 4, 4],
            (0..32).map(|i| i as f32 / 32.0).collect(),
        )];
        let q = QuantizedNetwork::from_float(&net, &calib);
        let fy = net.forward(&calib[0]);
        let qy = q.forward(&calib[0], ApproxMultiplier::Exact);
        for (a, b) in fy.data().iter().zip(qy.data()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }
}
