//! Layers and the float reference network: convolution, fully-connected,
//! ReLU, pooling, flatten and residual blocks — everything the paper's
//! three models (ResNet20, KWS-CNN1, KWS-CNN2) are made of.
//!
//! Forward passes run on `nga-kernels`: convolutions on its
//! implicit-GEMM `conv2d_f32`, depthwise convolutions and dense layers in
//! scoped-thread bands of output channels. Backward passes are plain
//! nested loops that favour being *obviously correct* over speed; only
//! retraining runs them. One loop serves both convolutions: a depthwise
//! output channel reads its own input plane, a full one reads every plane.
//!
//! The three weight layers share one private training state (gradient and
//! momentum buffers, allocated on first use, and the input cached by
//! [`Layer::forward_train`]), so [`Layer::step`] has one update for all of
//! them. A training forward pass fills that cache, or a parameter-free
//! layer's own, and then runs [`Layer::forward`]; only max pooling (its
//! argmax) and residual blocks (their inner layers) compute their own.
//!
//! That update is SGD with momentum, bit for bit as the host evaluates
//! `v ← momentum·v − lr·g; w ← w + v`, but without the host's slow
//! subnormal multiply (§V's point about IEEE subnormals): the momentum of
//! a weight whose gradient stays 0 decays into the subnormal range and
//! stays there, and x86 multiplies on a slow path whenever an operand or
//! the result is subnormal. Products of zero or subnormal velocities are
//! formed from the fraction field in f64 instead, exactly (`m·|momentum|`
//! needs at most 47 bits) and rounded to an integer with ties to even,
//! which is the host's rounding on the 2^-149 grid those products lie on
//! while `|momentum| < 2`. Additions and subtractions take no slow path
//! on subnormals and stay on the host. A network step adds the number of
//! subnormal velocities it wrote to its trace scope's `underflow` count.
//!
//! Each pass records its nominal MACs in the current trace scope
//! (`nga_obs::OpCounts::add_macs`), derived from the shape with padded
//! taps included, matching [`Layer::macs`] (`conv2d_f32` records a conv
//! forward's). A backward pass counts twice its forward MACs: the
//! weight-gradient and the input-gradient products.

use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;

use crate::tensor::Tensor;

/// Error returned by [`Layer::backward`] when a layer is asked to
/// backpropagate without the caches a training forward pass would have
/// filled — the recoverable replacement for the old
/// `expect("forward_train first")` panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackwardError {
    layer: &'static str,
}

impl BackwardError {
    fn missing(layer: &'static str) -> Self {
        Self { layer }
    }

    /// The layer kind whose forward cache was empty.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.layer
    }
}

impl fmt::Display for BackwardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backward called on a {} layer with no forward cache; \
             run forward_train first",
            self.layer
        )
    }
}

impl std::error::Error for BackwardError {}

/// A weight layer's training state: the gradient and momentum buffers of
/// its weights and bias, and the input cached by the last training
/// forward pass.
#[derive(Debug, Clone)]
struct Train {
    grad_w: Tensor,
    grad_b: Tensor,
    vel_w: Tensor,
    vel_b: Tensor,
    /// How many velocities the last step left subnormal: while none are,
    /// a step runs the plain update without looking for them.
    subnormals: u64,
    cache_in: Option<Tensor>,
}

impl Default for Train {
    /// No buffers and no cache: an inference-only network carries no
    /// training state.
    fn default() -> Self {
        Self {
            grad_w: Tensor::zeros(&[0]),
            grad_b: Tensor::zeros(&[0]),
            vel_w: Tensor::zeros(&[0]),
            vel_b: Tensor::zeros(&[0]),
            subnormals: 0,
            cache_in: None,
        }
    }
}

/// A 2-D convolution with square kernels, stride and zero padding.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Weights `[out, in, k, k]`.
    pub weights: Tensor,
    /// Bias `[out]`.
    pub bias: Tensor,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every edge.
    pub pad: usize,
    train: Train,
}

impl Conv2d {
    /// He-initialized convolution.
    #[must_use]
    pub fn new(
        rng: &mut StdRng,
        out_ch: usize,
        in_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let fan_in = (in_ch * k * k) as f32;
        let std = (2.0 / fan_in).sqrt();
        let n = out_ch * in_ch * k * k;
        let data = (0..n).map(|_| sample_normal(rng) * std).collect();
        Self {
            weights: Tensor::from_vec(&[out_ch, in_ch, k, k], data),
            bias: Tensor::zeros(&[out_ch]),
            stride,
            pad,
            train: Train::default(),
        }
    }

    /// Output shape for a given input shape.
    #[must_use]
    pub fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let (h, w) = (in_shape[1], in_shape[2]);
        let k = self.weights.shape()[2];
        let oh = (h + 2 * self.pad - k) / self.stride + 1;
        let ow = (w + 2 * self.pad - k) / self.stride + 1;
        vec![self.weights.shape()[0], oh, ow]
    }

    fn forward_impl(&self, x: &Tensor) -> Tensor {
        let [out_ch, in_ch, k, _] = *self.weights.shape() else {
            unreachable!("conv weights are 4-D")
        };
        assert_eq!(x.shape()[0], in_ch, "channel count");
        let (h, w) = (x.shape()[1], x.shape()[2]);
        let os = self.out_shape(x.shape());
        // nga-kernels' implicit-GEMM conv: 8-pixel im2col panels packed in
        // L1 and run through the f32 register tile, in pixel-block bands.
        // Each output pixel starts at the bias and adds w·x for ascending
        // (ic, ky, kx), one multiply and one add per tap, whatever the
        // tile or band split: a direct loop's order, except that padded
        // taps also add w·0.0.
        let mut out = Vec::new();
        nga_kernels::conv2d_f32(
            x.data(),
            in_ch,
            h,
            w,
            self.weights.data(),
            self.bias.data(),
            out_ch,
            k,
            k,
            self.stride,
            self.pad,
            &mut out,
        );
        Tensor::from_vec(&os, out)
    }
}

/// Backward pass of a convolution with `[out, in, k, k]` weights, or of a
/// depthwise one with `[ch, k, k]` weights, whose output channel `oc`
/// reads input plane `oc` only. Per nonzero output gradient it adds to the
/// bias gradient, then for each tap (input plane, ky, kx) inside the
/// padding to the weight gradient and the input gradient.
fn conv_backward(
    weights: &Tensor,
    bias: &Tensor,
    (stride, pad): (usize, usize),
    train: &mut Train,
    grad_y: &Tensor,
) -> Result<Tensor, BackwardError> {
    let shape = weights.shape();
    let depthwise = shape.len() == 3;
    let Train {
        grad_w,
        grad_b,
        cache_in,
        ..
    } = train;
    let kind = if depthwise { "DwConv2d" } else { "Conv2d" };
    let Some(x) = cache_in.as_ref() else {
        return Err(BackwardError::missing(kind));
    };
    let gw = state(grad_w, weights).data_mut();
    let gb = state(grad_b, bias).data_mut();
    let (out_ch, k) = (gb.len(), shape[shape.len() - 1]);
    // Output channel `oc` reads `planes` input planes from `first(oc)` on.
    let planes = if depthwise { 1 } else { shape[1] };
    let first = |oc: usize| if depthwise { oc } else { 0 };
    let (h, w) = (x.shape()[1], x.shape()[2]);
    let (oh, ow) = (grad_y.shape()[1], grad_y.shape()[2]);
    nga_obs::record(|c| c.add_macs(2 * (out_ch * planes * k * k * oh * ow) as u64, 0));
    let mut grad_x = Tensor::zeros(x.shape());
    for (oc, gb) in gb.iter_mut().enumerate() {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = grad_y.at3(oc, oy, ox);
                if g == 0.0 {
                    continue;
                }
                *gb += g;
                for p in 0..planes {
                    let ic = first(oc) + p;
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let widx = ((oc * planes + p) * k + ky) * k + kx;
                            gw[widx] += g * x.at3(ic, iy as usize, ix as usize);
                            *grad_x.at3_mut(ic, iy as usize, ix as usize) +=
                                g * weights.data()[widx];
                        }
                    }
                }
            }
        }
    }
    Ok(grad_x)
}

/// A depthwise 2-D convolution: each channel is convolved with its own
/// `k×k` kernel (the building block of depthwise-separable CNNs like the
/// Hello-Edge DS-CNN keyword spotters).
#[derive(Debug, Clone)]
pub struct DwConv2d {
    /// Weights `[ch, k, k]`.
    pub weights: Tensor,
    /// Bias `[ch]`.
    pub bias: Tensor,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every edge.
    pub pad: usize,
    train: Train,
}

impl DwConv2d {
    /// He-initialized depthwise convolution.
    #[must_use]
    pub fn new(rng: &mut StdRng, ch: usize, k: usize, stride: usize, pad: usize) -> Self {
        let std = (2.0 / (k * k) as f32).sqrt();
        let data = (0..ch * k * k).map(|_| sample_normal(rng) * std).collect();
        Self {
            weights: Tensor::from_vec(&[ch, k, k], data),
            bias: Tensor::zeros(&[ch]),
            stride,
            pad,
            train: Train::default(),
        }
    }

    /// Output shape for a given input shape.
    #[must_use]
    pub fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let (h, w) = (in_shape[1], in_shape[2]);
        let k = self.weights.shape()[1];
        let oh = (h + 2 * self.pad - k) / self.stride + 1;
        let ow = (w + 2 * self.pad - k) / self.stride + 1;
        vec![in_shape[0], oh, ow]
    }

    fn forward_impl(&self, x: &Tensor) -> Tensor {
        let [ch, k, _] = *self.weights.shape() else {
            unreachable!("dwconv weights are 3-D")
        };
        assert_eq!(x.shape()[0], ch, "channel count");
        let (h, w) = (x.shape()[1], x.shape()[2]);
        let os = self.out_shape(x.shape());
        let (oh, ow) = (os[1], os[2]);
        let (stride, pad) = (self.stride, self.pad);
        let xdata = x.data();
        let wdata = self.weights.data();
        let bias = self.bias.data();
        let npix = oh * ow;
        nga_obs::record(|c| c.add_macs((ch * npix * k * k) as u64, 0));
        let mut y = vec![0.0f32; ch * npix];
        // Channels are independent: one scoped thread band per group of
        // channels. Per pixel, the valid kernel-tap window is clipped
        // once and walked with running offsets instead of re-deriving
        // padded coordinates per tap.
        nga_kernels::for_each_band(&mut y, ch, npix, |chans, band| {
            for (lc, c) in chans.enumerate() {
                let plane = &xdata[c * h * w..(c + 1) * h * w];
                let wk = &wdata[c * k * k..(c + 1) * k * k];
                let b = bias[c];
                let orow = &mut band[lc * npix..(lc + 1) * npix];
                let mut oidx = 0;
                for oy in 0..oh {
                    let iy0 = (oy * stride) as isize - pad as isize;
                    let ky_lo = (-iy0).clamp(0, k as isize) as usize;
                    let ky_hi = (h as isize - iy0).clamp(0, k as isize) as usize;
                    for ox in 0..ow {
                        let ix0 = (ox * stride) as isize - pad as isize;
                        let kx_lo = (-ix0).clamp(0, k as isize) as usize;
                        let kx_hi = (w as isize - ix0).clamp(0, k as isize) as usize;
                        let mut acc = b;
                        for ky in ky_lo..ky_hi {
                            let irow = (iy0 + ky as isize) as usize * w;
                            let ibase = irow + (ix0 + kx_lo as isize) as usize;
                            let wbase = ky * k + kx_lo;
                            let taps = kx_hi - kx_lo;
                            for (wv, xv) in wk[wbase..wbase + taps]
                                .iter()
                                .zip(&plane[ibase..ibase + taps])
                            {
                                acc += wv * xv;
                            }
                        }
                        orow[oidx] = acc;
                        oidx += 1;
                    }
                }
            }
        });
        Tensor::from_vec(&os, y)
    }
}

/// A fully-connected layer.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights `[out, in]`.
    pub weights: Tensor,
    /// Bias `[out]`.
    pub bias: Tensor,
    train: Train,
}

impl Dense {
    /// He-initialized dense layer.
    #[must_use]
    pub fn new(rng: &mut StdRng, out: usize, input: usize) -> Self {
        let std = (2.0 / input as f32).sqrt();
        let data = (0..out * input).map(|_| sample_normal(rng) * std).collect();
        Self {
            weights: Tensor::from_vec(&[out, input], data),
            bias: Tensor::zeros(&[out]),
            train: Train::default(),
        }
    }

    fn forward_impl(&self, x: &Tensor) -> Tensor {
        let [out, input] = *self.weights.shape() else {
            unreachable!("dense weights are 2-D")
        };
        assert_eq!(x.len(), input, "dense input size");
        let wdata = self.weights.data();
        let bias = self.bias.data();
        let xdata = x.data();
        nga_obs::record(|c| c.add_macs((out * input) as u64, 0));
        let mut y = vec![0.0f32; out];
        if xdata.iter().any(|v| v.is_nan()) {
            // Poisoned input (e.g. after a fault injection): skip NaN
            // lanes so one bad activation degrades the reduction instead
            // of wiping out every logit. Clean inputs never reach this
            // path, so the nominal result stays bit-identical.
            for (o, slot) in y.iter_mut().enumerate() {
                let row = &wdata[o * input..(o + 1) * input];
                let mut acc = bias[o];
                for (wv, xv) in row.iter().zip(xdata) {
                    if !xv.is_nan() {
                        acc += wv * xv;
                    }
                }
                *slot = acc;
            }
            return Tensor::from_vec(&[out], y);
        }
        // One output row per weight row; banded across threads for wide
        // layers, serial below the parallel cutoff.
        nga_kernels::for_each_band(&mut y, out, 1, |rows, band| {
            for (li, o) in rows.enumerate() {
                let row = &wdata[o * input..(o + 1) * input];
                band[li] = bias[o] + nga_kernels::dot_f32(row, xdata);
            }
        });
        Tensor::from_vec(&[out], y)
    }

    fn backward_impl(&mut self, grad_y: &Tensor) -> Result<Tensor, BackwardError> {
        let Train {
            grad_w,
            grad_b,
            cache_in,
            ..
        } = &mut self.train;
        let Some(x) = cache_in.as_ref() else {
            return Err(BackwardError::missing("Dense"));
        };
        let [out, input] = *self.weights.shape() else {
            unreachable!()
        };
        assert_eq!(grad_y.len(), out, "dense output gradient size");
        nga_obs::record(|c| c.add_macs(2 * (out * input) as u64, 0));
        let gw = state(grad_w, &self.weights).data_mut();
        let gb = state(grad_b, &self.bias).data_mut();
        let mut grad_x = Tensor::zeros(&[input]);
        let gx = grad_x.data_mut();
        let rows = gw
            .chunks_exact_mut(input)
            .zip(self.weights.data().chunks_exact(input));
        for (((gw_row, w_row), gb), &g) in rows.zip(gb).zip(grad_y.data()) {
            *gb += g;
            for (((gwv, &wv), &xv), gxv) in gw_row.iter_mut().zip(w_row).zip(x.data()).zip(&mut *gx)
            {
                *gwv += g * xv;
                *gxv += g * wv;
            }
        }
        Ok(grad_x)
    }
}

/// Residual block: `y = main(x) + shortcut(x)` (identity shortcut when
/// empty) — the ResNet20 building block.
#[derive(Debug, Clone)]
pub struct Residual {
    /// The main path.
    pub main: Vec<Layer>,
    /// The shortcut path (empty = identity).
    pub shortcut: Vec<Layer>,
}

/// One network layer.
#[derive(Debug, Clone)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Depthwise 2-D convolution (one kernel per channel).
    DwConv2d(DwConv2d),
    /// Fully connected.
    Dense(Dense),
    /// Rectified linear unit (elementwise max(0, x)).
    Relu {
        /// Forward-pass mask cache.
        mask: Option<Vec<bool>>,
    },
    /// 2×2 max pooling (stride 2).
    MaxPool2 {
        /// Argmax cache for backward.
        cache: Option<(Vec<usize>, Vec<usize>)>,
    },
    /// Global average pooling over H×W.
    GlobalAvgPool {
        /// Input spatial size cache.
        cache: Option<(usize, usize)>,
    },
    /// Flatten to a vector.
    Flatten {
        /// Input shape cache.
        cache: Option<Vec<usize>>,
    },
    /// Residual block.
    Residual(Residual),
}

impl Layer {
    /// Stable kind name, used as the layer's observability scope.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv2d",
            Layer::DwConv2d(_) => "dwconv2d",
            Layer::Dense(_) => "dense",
            Layer::Relu { .. } => "relu",
            Layer::MaxPool2 { .. } => "maxpool2",
            Layer::GlobalAvgPool { .. } => "gapool",
            Layer::Flatten { .. } => "flatten",
            Layer::Residual(_) => "residual",
        }
    }

    /// Convenience: a fresh ReLU.
    #[must_use]
    pub fn relu() -> Self {
        Layer::Relu { mask: None }
    }

    /// Convenience: a fresh 2×2 max pool.
    #[must_use]
    pub fn max_pool2() -> Self {
        Layer::MaxPool2 { cache: None }
    }

    /// Convenience: a fresh global average pool.
    #[must_use]
    pub fn global_avg_pool() -> Self {
        Layer::GlobalAvgPool { cache: None }
    }

    /// Convenience: a fresh flatten.
    #[must_use]
    pub fn flatten() -> Self {
        Layer::Flatten { cache: None }
    }

    /// Inference forward pass (no caches touched).
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let _span = nga_obs::span(self.kind());
        match self {
            Layer::Conv2d(c) => c.forward_impl(x),
            Layer::DwConv2d(c) => c.forward_impl(x),
            Layer::Dense(d) => d.forward_impl(x),
            Layer::Relu { .. } => {
                let data = x.data().iter().map(|&v| v.max(0.0)).collect();
                Tensor::from_vec(x.shape(), data)
            }
            Layer::MaxPool2 { .. } => max_pool2_forward(x).0,
            Layer::GlobalAvgPool { .. } => global_avg_forward(x),
            Layer::Flatten { .. } => {
                let mut y = x.clone();
                y.reshape(&[x.len()]);
                y
            }
            Layer::Residual(r) => {
                let mut main = x.clone();
                for l in &r.main {
                    main = l.forward(&main);
                }
                let mut short = x.clone();
                for l in &r.shortcut {
                    short = l.forward(&short);
                }
                main.add(&short)
            }
        }
    }

    /// Training forward pass (fills caches for [`Self::backward`]).
    pub fn forward_train(&mut self, x: &Tensor) -> Tensor {
        let kind = self.kind();
        if let Some((_, _, train)) = self.params_mut() {
            train.cache_in = Some(x.clone());
        }
        match self {
            Layer::Relu { mask } => *mask = Some(x.data().iter().map(|&v| v > 0.0).collect()),
            Layer::GlobalAvgPool { cache } => *cache = Some((x.shape()[1], x.shape()[2])),
            Layer::Flatten { cache } => *cache = Some(x.shape().to_vec()),
            Layer::MaxPool2 { cache } => {
                let _span = nga_obs::span(kind);
                let (y, arg, in_shape) = max_pool2_forward(x);
                *cache = Some((arg, in_shape));
                return y;
            }
            Layer::Residual(r) => {
                let _span = nga_obs::span(kind);
                let mut main = x.clone();
                for l in &mut r.main {
                    main = l.forward_train(&main);
                }
                let mut short = x.clone();
                for l in &mut r.shortcut {
                    short = l.forward_train(&short);
                }
                return main.add(&short);
            }
            Layer::Conv2d(_) | Layer::DwConv2d(_) | Layer::Dense(_) => {}
        }
        self.forward(x)
    }

    /// Backward pass: consumes the gradient w.r.t. the output, returns the
    /// gradient w.r.t. the input, accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`BackwardError`] (and leaves parameter gradients of this
    /// layer untouched) if [`Self::forward_train`] has not been called.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, BackwardError> {
        let _span = nga_obs::span(self.kind());
        match self {
            Layer::Conv2d(Conv2d {
                weights,
                bias,
                stride,
                pad,
                train,
            })
            | Layer::DwConv2d(DwConv2d {
                weights,
                bias,
                stride,
                pad,
                train,
            }) => conv_backward(weights, bias, (*stride, *pad), train, grad),
            Layer::Dense(d) => d.backward_impl(grad),
            Layer::Relu { mask } => {
                let Some(mask) = mask.as_ref() else {
                    return Err(BackwardError::missing("Relu"));
                };
                let data = grad
                    .data()
                    .iter()
                    .zip(mask)
                    .map(|(&g, &m)| if m { g } else { 0.0 })
                    .collect();
                Ok(Tensor::from_vec(grad.shape(), data))
            }
            Layer::MaxPool2 { cache } => {
                let Some((arg, in_shape)) = cache.as_ref() else {
                    return Err(BackwardError::missing("MaxPool2"));
                };
                let mut gx = Tensor::zeros(&[in_shape[0], in_shape[1], in_shape[2]]);
                for (i, &src) in arg.iter().enumerate() {
                    gx.data_mut()[src] += grad.data()[i];
                }
                Ok(gx)
            }
            Layer::GlobalAvgPool { cache } => {
                let Some((h, w)) = *cache else {
                    return Err(BackwardError::missing("GlobalAvgPool"));
                };
                let ch = grad.len();
                let mut gx = Tensor::zeros(&[ch, h, w]);
                let scale = 1.0 / (h * w) as f32;
                for c in 0..ch {
                    let g = grad.data()[c] * scale;
                    for y in 0..h {
                        for x in 0..w {
                            *gx.at3_mut(c, y, x) = g;
                        }
                    }
                }
                Ok(gx)
            }
            Layer::Flatten { cache } => {
                let Some(shape) = cache.clone() else {
                    return Err(BackwardError::missing("Flatten"));
                };
                let mut g = grad.clone();
                g.reshape(&shape);
                Ok(g)
            }
            Layer::Residual(r) => {
                let mut g_main = grad.clone();
                for l in r.main.iter_mut().rev() {
                    g_main = l.backward(&g_main)?;
                }
                let mut g_short = grad.clone();
                for l in r.shortcut.iter_mut().rev() {
                    g_short = l.backward(&g_short)?;
                }
                Ok(g_main.add(&g_short))
            }
        }
    }

    /// SGD-with-momentum update; zeroes accumulated gradients. Returns
    /// how many of the new velocities are subnormal (0 for a layer
    /// without parameters); [`Network::step`] records that count.
    pub fn step(&mut self, lr: f32, momentum: f32) -> u64 {
        if let Layer::Residual(r) = self {
            r.main
                .iter_mut()
                .chain(r.shortcut.iter_mut())
                .map(|l| l.step(lr, momentum))
                .sum()
        } else if let Some((weights, bias, t)) = self.params_mut() {
            let scan = t.subnormals > 0;
            t.subnormals = sgd(weights, &mut t.grad_w, &mut t.vel_w, lr, momentum, scan)
                + sgd(bias, &mut t.grad_b, &mut t.vel_b, lr, momentum, scan);
            t.subnormals
        } else {
            0
        }
    }

    /// The weights, bias and training state of a weight layer; `None` for
    /// every other kind.
    fn params_mut(&mut self) -> Option<(&mut Tensor, &mut Tensor, &mut Train)> {
        match self {
            Layer::Conv2d(c) => Some((&mut c.weights, &mut c.bias, &mut c.train)),
            Layer::DwConv2d(c) => Some((&mut c.weights, &mut c.bias, &mut c.train)),
            Layer::Dense(d) => Some((&mut d.weights, &mut d.bias, &mut d.train)),
            _ => None,
        }
    }

    /// Trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> u64 {
        match self {
            Layer::Conv2d(c) => (c.weights.len() + c.bias.len()) as u64,
            Layer::DwConv2d(c) => (c.weights.len() + c.bias.len()) as u64,
            Layer::Dense(d) => (d.weights.len() + d.bias.len()) as u64,
            Layer::Residual(r) => r
                .main
                .iter()
                .chain(&r.shortcut)
                .map(Layer::param_count)
                .sum(),
            _ => 0,
        }
    }

    /// Multiply-accumulate count for one forward pass on `in_shape`,
    /// returning `(macs, out_shape)`.
    #[must_use]
    pub fn macs(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        match self {
            Layer::Conv2d(c) => {
                let os = c.out_shape(in_shape);
                let [_, in_ch, k, _] = *c.weights.shape() else {
                    unreachable!()
                };
                let per_out = (in_ch * k * k) as u64;
                let outs = (os[0] * os[1] * os[2]) as u64;
                (outs * per_out, os)
            }
            Layer::DwConv2d(c) => {
                let os = c.out_shape(in_shape);
                let k = c.weights.shape()[1] as u64;
                let outs = (os[0] * os[1] * os[2]) as u64;
                (outs * k * k, os)
            }
            Layer::Dense(d) => {
                let [out, input] = *d.weights.shape() else {
                    unreachable!()
                };
                ((out * input) as u64, vec![out])
            }
            Layer::MaxPool2 { .. } => {
                let os = vec![in_shape[0], in_shape[1] / 2, in_shape[2] / 2];
                (0, os)
            }
            Layer::GlobalAvgPool { .. } => (0, vec![in_shape[0]]),
            Layer::Flatten { .. } => (0, vec![in_shape.iter().product()]),
            Layer::Relu { .. } => (0, in_shape.to_vec()),
            Layer::Residual(r) => {
                let mut macs = 0;
                let mut shape = in_shape.to_vec();
                for l in &r.main {
                    let (m, s) = l.macs(&shape);
                    macs += m;
                    shape = s;
                }
                let mut sshape = in_shape.to_vec();
                for l in &r.shortcut {
                    let (m, s) = l.macs(&sshape);
                    macs += m;
                    sshape = s;
                }
                assert_eq!(shape, sshape, "residual paths must agree");
                (macs, shape)
            }
        }
    }
}

/// A plain feed-forward network (sequence of layers).
#[derive(Debug, Clone, Default)]
pub struct Network {
    /// The layers, applied in order.
    pub layers: Vec<Layer>,
}

impl Network {
    /// An empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inference forward pass.
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let _span = nga_obs::span("nn:forward");
        let mut t = x.clone();
        for l in &self.layers {
            t = l.forward(&t);
        }
        t
    }

    /// Training forward pass (caches filled).
    pub fn forward_train(&mut self, x: &Tensor) -> Tensor {
        let _span = nga_obs::span("nn:forward_train");
        let mut t = x.clone();
        for l in &mut self.layers {
            t = l.forward_train(&t);
        }
        t
    }

    /// Backward pass from the loss gradient at the output.
    ///
    /// # Errors
    ///
    /// Returns [`BackwardError`] if any layer is missing its forward
    /// cache ([`Self::forward_train`] was not called); layers earlier in
    /// the network keep their gradients untouched in that case.
    pub fn backward(&mut self, grad: &Tensor) -> Result<(), BackwardError> {
        let _span = nga_obs::span("nn:backward");
        let mut g = grad.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g)?;
        }
        Ok(())
    }

    /// SGD step over all layers. Adds the number of subnormal velocities
    /// it wrote to the current trace scope's `underflow` count, in one
    /// record per step and none when there are none.
    pub fn step(&mut self, lr: f32, momentum: f32) {
        let subnormal: u64 = self.layers.iter_mut().map(|l| l.step(lr, momentum)).sum();
        if subnormal > 0 {
            nga_obs::record(|c| c.underflow = c.underflow.saturating_add(subnormal));
        }
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Total MACs for one forward pass.
    #[must_use]
    pub fn mac_count(&self, in_shape: &[usize]) -> u64 {
        let mut macs = 0;
        let mut shape = in_shape.to_vec();
        for l in &self.layers {
            let (m, s) = l.macs(&shape);
            macs += m;
            shape = s;
        }
        macs
    }
}

/// Lanes per block of [`sgd`]: a block whose velocities are all normal
/// or zero runs the plain update.
const SGD_BLOCK: usize = 64;

/// SGD with momentum over one parameter tensor, `v ← momentum·v − lr·g`,
/// `w ← w + v`, `g ← 0`, bit for bit as the host computes that
/// expression. Returns how many of the new velocities are subnormal.
///
/// A weight whose gradient stays 0 keeps a velocity that `v ← 0.9·v`
/// decays into the subnormal range, where round-to-nearest-even holds it
/// at a fixed point (`0.9·m·2^-149` rounds back to `m·2^-149` for
/// `m ≤ 4`). On x86 the host's f32 multiply takes a slow path, about 100
/// times the normal cost, whenever an operand or the result is
/// subnormal. Additions and subtractions do not, so `w + v` stays on the
/// host; skipping it would save nothing, and would be exact only for
/// finite `|w| > 2^-102`, where `|v| < 2^-126` is under half the f32
/// spacing on both sides of `w` (at `|w| = 2^-102` the spacing below
/// halves, and an opposite `v` above 2^-127 moves `w`).
///
/// Unless `scan` is set (the last step left a subnormal velocity
/// behind), every lane runs the plain update. Otherwise each block of
/// [`SGD_BLOCK`] lanes is checked, and a block holding a subnormal
/// velocity runs [`sgd_decaying`], which forms the products of those
/// velocities without the host multiply.
fn sgd(w: &mut Tensor, g: &mut Tensor, v: &mut Tensor, lr: f32, momentum: f32, scan: bool) -> u64 {
    let (g, v) = (state(g, w), state(v, w));
    let (w, g, v) = (w.data_mut(), g.data_mut(), v.data_mut());
    if !scan {
        return sgd_plain(w, g, v, lr, momentum);
    }
    let blocks = w
        .chunks_mut(SGD_BLOCK)
        .zip(g.chunks_mut(SGD_BLOCK))
        .zip(v.chunks_mut(SGD_BLOCK));
    blocks
        .map(|((w, g), v)| {
            if v.iter().any(|&x| subnormal(x)) {
                sgd_decaying(w, g, v, lr, momentum)
            } else {
                sgd_plain(w, g, v, lr, momentum)
            }
        })
        .sum()
}

/// The host expression, lane by lane; returns how many of the new
/// velocities are subnormal.
fn sgd_plain(w: &mut [f32], g: &mut [f32], v: &mut [f32], lr: f32, momentum: f32) -> u64 {
    let mut subnormals = 0u32;
    for ((w, g), v) in w.iter_mut().zip(g.iter_mut()).zip(v.iter_mut()) {
        let vel = momentum * *v - lr * *g;
        *v = vel;
        *w += vel;
        *g = 0.0;
        subnormals += u32::from(subnormal(vel));
    }
    u64::from(subnormals)
}

/// [`sgd_plain`] with every product `momentum·v` of a zero or subnormal
/// `v` taken from [`decay`] instead of the host multiply. The momentum
/// must be zero, or normal with `|momentum| < 2`; any other momentum
/// runs [`sgd_plain`].
///
/// The loop is vectorised: the compiler computes both arms of the choice
/// between [`decay`] and the host product for every lane and keeps one.
/// So a subnormal `v` reaches the host multiply as a stand-in between 2
/// and 4 (its bit 30 set), whose product with a normal momentum is
/// normal, and is discarded. The stand-in is chosen by a
/// different test ([`subnormal`]) than the arm (the exponent field); with
/// the same test the compiler would see that the stand-in equals `v`
/// wherever its product is kept, and multiply `v` itself.
fn sgd_decaying(w: &mut [f32], g: &mut [f32], v: &mut [f32], lr: f32, momentum: f32) -> u64 {
    if !(momentum == 0.0 || (momentum.is_normal() && momentum.abs() < 2.0)) {
        return sgd_plain(w, g, v, lr, momentum);
    }
    let mut subnormals = 0u32;
    for ((w, g), v) in w.iter_mut().zip(g.iter_mut()).zip(v.iter_mut()) {
        let bits = v.to_bits();
        let product = if bits & 0x7F80_0000 == 0 {
            decay(*v, momentum)
        } else {
            momentum * f32::from_bits(bits | u32::from(subnormal(*v)) << 30)
        };
        let vel = product - lr * *g;
        *v = vel;
        *w += vel;
        *g = 0.0;
        subnormals += u32::from(subnormal(vel));
    }
    u64::from(subnormals)
}

/// Whether `x` is subnormal, from its bits alone: `|x|`'s bits lie in
/// `1..2^23`, which adding `2^31 − 1` maps to the lowest `2^23 − 1`
/// values of an `i32`.
fn subnormal(x: f32) -> bool {
    ((x.to_bits() & 0x7FFF_FFFF).wrapping_add(0x7FFF_FFFF) as i32) < (0x807F_FFFF_u32 as i32)
}

/// `momentum·v` for a `v` whose exponent field is 0 (a zero or a
/// subnormal), rounded as the host's f32 multiply rounds it but without
/// a subnormal operation. `momentum` must be zero, or normal with
/// `|momentum| < 2`.
///
/// `v` is `m·2^-149`, with `m < 2^23` its fraction field, and `momentum`
/// has a 24-bit significand, so `m·|momentum|` is exact in f64 (at most
/// 47 significant bits, and 0 or at least 2^-126, a normal f64). Adding
/// 2^52 rounds it to an integer `q` with ties to even, which is then the
/// low word of the sum's bits. That is the host's rounding: below
/// 2^-125 = 2^24·2^-149 the f32 grid spacing is 2^-149, whether the
/// product is subnormal or normal, and `|momentum| < 2` keeps `q ≤ 2^24`.
/// For such `q` the bit pattern of the f32 `q·2^-149` is `q` itself: a
/// subnormal fraction field below 2^23, and from there exponent field
/// `q >> 23` over fraction `q mod 2^23`. The sign is the exclusive or of
/// the operands' signs, for a zero product too.
fn decay(v: f32, momentum: f32) -> f32 {
    /// 2^52: f64 values from here to 2^53 are the integers.
    const ROUND: f64 = 4_503_599_627_370_496.0;
    let m = f64::from(v.to_bits() & 0x007F_FFFF);
    let q = (m * f64::from(momentum.abs()) + ROUND).to_bits() as u32;
    let sign = (v.to_bits() ^ momentum.to_bits()) & 0x8000_0000;
    f32::from_bits(sign | q)
}

/// A gradient or momentum buffer for parameter `p`, zero-filled on first
/// use: an inference-only network carries no training state.
fn state<'a>(buf: &'a mut Tensor, p: &Tensor) -> &'a mut Tensor {
    if buf.len() != p.len() {
        *buf = Tensor::zeros(p.shape());
    }
    buf
}

/// 2×2 max pooling, NaN-aware: poisoned (NaN) lanes are skipped so a
/// single upset does not take over the window via comparison semantics,
/// and an all-NaN window degrades to 0.0 (routing its gradient to the
/// first lane). Windows without NaNs behave bit-identically to a plain
/// max reduction.
fn max_pool2_forward(x: &Tensor) -> (Tensor, Vec<usize>, Vec<usize>) {
    let (ch, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (oh, ow) = (h / 2, w / 2);
    let mut y = Tensor::zeros(&[ch, oh, ow]);
    let mut arg = vec![0usize; ch * oh * ow];
    for c in 0..ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = (c * h + 2 * oy) * w + 2 * ox;
                let mut seen = false;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let (iy, ix) = (2 * oy + dy, 2 * ox + dx);
                        let v = x.at3(c, iy, ix);
                        if v.is_nan() {
                            continue;
                        }
                        if !seen || v > best {
                            best = v;
                            best_idx = (c * h + iy) * w + ix;
                            seen = true;
                        }
                    }
                }
                *y.at3_mut(c, oy, ox) = if seen { best } else { 0.0 };
                arg[(c * oh + oy) * ow + ox] = best_idx;
            }
        }
    }
    (y, arg, vec![ch, h, w])
}

/// Global average pooling, NaN-aware: poisoned lanes are skipped and the
/// mean is taken over the surviving lanes (an all-NaN plane degrades to
/// 0.0). With no NaNs present the divisor is `h * w`, so the nominal
/// result is bit-identical to the plain mean.
fn global_avg_forward(x: &Tensor) -> Tensor {
    let (ch, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let mut y = Tensor::zeros(&[ch]);
    for c in 0..ch {
        let mut sum = 0.0;
        let mut lanes = 0usize;
        for yy in 0..h {
            for xx in 0..w {
                let v = x.at3(c, yy, xx);
                if v.is_nan() {
                    continue;
                }
                sum += v;
                lanes += 1;
            }
        }
        y.data_mut()[c] = if lanes == 0 { 0.0 } else { sum / lanes as f32 };
    }
    y
}

/// Standard normal sample via Box–Muller.
fn sample_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn normal(rng: &mut StdRng, shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| sample_normal(rng)).collect())
    }

    #[test]
    fn conv_identity_kernel() {
        let mut c = Conv2d::new(&mut rng(), 1, 1, 3, 1, 1);
        c.weights.data_mut().fill(0.0);
        c.weights.data_mut()[4] = 1.0; // centre tap
        let x = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = Layer::Conv2d(c).forward(&x);
        assert_eq!(y.data(), x.data(), "identity kernel passes through");
    }

    #[test]
    fn conv_shapes_with_stride_and_pad() {
        let c = Conv2d::new(&mut rng(), 8, 3, 3, 2, 1);
        assert_eq!(c.out_shape(&[3, 32, 32]), vec![8, 16, 16]);
        let c2 = Conv2d::new(&mut rng(), 4, 3, 3, 1, 0);
        assert_eq!(c2.out_shape(&[3, 32, 32]), vec![4, 30, 30]);
    }

    #[test]
    fn dense_matches_hand_computation() {
        let mut d = Dense::new(&mut rng(), 2, 3);
        d.weights = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        d.bias = Tensor::from_vec(&[2], vec![0.5, -0.5]);
        let x = Tensor::from_vec(&[3], vec![1.0, 1.0, 2.0]);
        let y = Layer::Dense(d).forward(&x);
        assert_eq!(y.data(), &[1.0 + 2.0 + 6.0 + 0.5, -1.0 + 2.0 - 0.5]);
    }

    #[test]
    fn relu_and_pool() {
        let x = Tensor::from_vec(&[1, 2, 2], vec![-1.0, 2.0, 3.0, -4.0]);
        let y = Layer::relu().forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 3.0, 0.0]);
        let p = Layer::max_pool2().forward(&x);
        assert_eq!(p.data(), &[3.0]);
    }

    /// A backward pass records twice the forward MACs (the weight- and
    /// input-gradient products) under `nn:backward`, for every weight
    /// layer kind, inside residual blocks too.
    #[test]
    fn backward_records_twice_the_forward_macs() {
        let mut rng = rng();
        let mut net = Network {
            layers: vec![
                Layer::Conv2d(Conv2d::new(&mut rng, 4, 2, 3, 1, 1)),
                Layer::relu(),
                Layer::Residual(Residual {
                    main: vec![Layer::DwConv2d(DwConv2d::new(&mut rng, 4, 3, 1, 1))],
                    shortcut: vec![],
                }),
                Layer::Residual(Residual {
                    main: vec![Layer::Conv2d(Conv2d::new(&mut rng, 6, 4, 3, 2, 1))],
                    shortcut: vec![Layer::Conv2d(Conv2d::new(&mut rng, 6, 4, 1, 2, 0))],
                }),
                Layer::global_avg_pool(),
                Layer::Dense(Dense::new(&mut rng, 3, 6)),
            ],
        };
        let in_shape = [2, 6, 6];
        let x = Tensor::from_vec(&in_shape, (0..72).map(|v| v as f32 * 0.05 - 1.0).collect());
        let scope = "layers-test-backward-macs";
        {
            let _span = nga_obs::span(scope);
            let y = net.forward_train(&x);
            let ones = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
            net.backward(&ones).expect("caches were filled");
        }
        let backward = format!("{scope}/nn:backward");
        let muls: u64 = nga_obs::snapshot()
            .scopes
            .iter()
            .filter(|r| r.path == backward || r.path.starts_with(&format!("{backward}/")))
            .map(|r| r.counts.muls)
            .sum();
        assert_eq!(muls, 2 * net.mac_count(&in_shape));
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = rng();
        let mut layer = Layer::Conv2d(Conv2d::new(&mut rng, 2, 1, 3, 1, 1));
        let x = Tensor::from_vec(&[1, 4, 4], (0..16).map(|v| v as f32 * 0.1).collect());
        // Loss = sum of outputs; grad_out = ones.
        let y = layer.forward_train(&x);
        let ones = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let gx = layer.backward(&ones).expect("cache was filled");
        // Finite difference on one input element.
        let eps = 1e-3;
        for idx in [0usize, 5, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp: f32 = layer.forward(&xp).data().iter().sum();
            let fm: f32 = layer.forward(&xm).data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (gx.data()[idx] - fd).abs() < 1e-2,
                "input grad at {idx}: {} vs {}",
                gx.data()[idx],
                fd
            );
        }
    }

    /// Weight gradients of both convolutions under a seeded upstream
    /// gradient (the loss is `Σ grad_y ⊙ y`, linear in every weight), so
    /// a transposed or misplaced tap shows; a sum loss is blind to both.
    #[test]
    fn conv_weight_gradients_match_finite_differences() {
        let mut rng = rng();
        let layers = [
            Layer::Conv2d(Conv2d::new(&mut rng, 2, 2, 3, 1, 1)),
            Layer::DwConv2d(DwConv2d::new(&mut rng, 2, 3, 2, 1)),
        ];
        for mut layer in layers {
            let x = normal(&mut rng, &[2, 5, 4]);
            let grad_y = normal(&mut rng, layer.forward_train(&x).shape());
            layer.backward(&grad_y).expect("cache was filled");
            let loss = |l: &Layer| -> f32 {
                let y = l.forward(&x);
                y.data().iter().zip(grad_y.data()).map(|(y, g)| y * g).sum()
            };
            let grad_w = layer.params_mut().expect("weight layer").2.grad_w.clone();
            let eps = 1e-2;
            for i in 0..grad_w.len() {
                let nudged = |delta: f32| {
                    let mut l = layer.clone();
                    l.params_mut().expect("weight layer").0.data_mut()[i] += delta;
                    loss(&l)
                };
                let fd = (nudged(eps) - nudged(-eps)) / (2.0 * eps);
                assert!(
                    (grad_w.data()[i] - fd).abs() < 1e-2,
                    "{} weight grad at {i}: {} vs {fd}",
                    layer.kind(),
                    grad_w.data()[i]
                );
            }
        }
    }

    #[test]
    fn dense_weight_gradients_match_finite_differences() {
        let mut rng = rng();
        let mut layer = Layer::Dense(Dense::new(&mut rng, 3, 4));
        let x = Tensor::from_vec(&[4], vec![0.5, -1.0, 2.0, 0.1]);
        let y = layer.forward_train(&x);
        let ones = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        layer.backward(&ones).expect("cache was filled");
        let Layer::Dense(d) = &layer else {
            unreachable!()
        };
        // grad_w[o][i] should equal x[i] for a sum loss.
        for o in 0..3 {
            for i in 0..4 {
                assert!((d.train.grad_w.data()[o * 4 + i] - x.data()[i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn training_state_is_allocated_on_first_use() {
        let mut rng = rng();
        let mut layer = Layer::Conv2d(Conv2d::new(&mut rng, 2, 1, 3, 1, 1));
        let before = layer.clone();
        // A step with no gradient yet moves nothing.
        layer.step(0.1, 0.9);
        let (Layer::Conv2d(c), Layer::Conv2d(b)) = (&layer, &before) else {
            unreachable!()
        };
        assert_eq!(c.weights, b.weights);
        assert_eq!(c.train.vel_w.shape(), c.weights.shape());
        assert!(
            b.train.grad_w.is_empty() && b.train.vel_w.is_empty(),
            "fresh layers hold no training state"
        );
    }

    #[test]
    fn residual_identity_doubles_input() {
        let r = Layer::Residual(Residual {
            main: vec![],
            shortcut: vec![],
        });
        let x = Tensor::from_vec(&[2], vec![1.0, -2.0]);
        // empty main == identity, so y = x + x.
        assert_eq!(r.forward(&x).data(), &[2.0, -4.0]);
    }

    #[test]
    fn param_and_mac_counting() {
        let mut rng = rng();
        let net = Network {
            layers: vec![
                Layer::Conv2d(Conv2d::new(&mut rng, 16, 3, 3, 1, 1)),
                Layer::relu(),
                Layer::global_avg_pool(),
                Layer::Dense(Dense::new(&mut rng, 10, 16)),
            ],
        };
        // conv: 16*3*3*3 + 16 = 448; dense: 10*16 + 10 = 170.
        assert_eq!(net.param_count(), 448 + 170);
        // conv MACs on 3x32x32: 16*32*32*27; dense: 160.
        assert_eq!(net.mac_count(&[3, 32, 32]), 16 * 32 * 32 * 27 + 160);
    }

    #[test]
    fn training_reduces_loss_on_a_toy_problem() {
        // Learn y = relu(Wx) mapping two clusters apart.
        let mut rng = rng();
        let mut net = Network {
            layers: vec![
                Layer::Dense(Dense::new(&mut rng, 8, 2)),
                Layer::relu(),
                Layer::Dense(Dense::new(&mut rng, 2, 8)),
            ],
        };
        let data = [
            (Tensor::from_vec(&[2], vec![1.0, 0.0]), 0usize),
            (Tensor::from_vec(&[2], vec![0.0, 1.0]), 1usize),
        ];
        let mut last_loss = f32::INFINITY;
        for _ in 0..200 {
            let mut loss = 0.0;
            for (x, label) in &data {
                let logits = net.forward_train(x);
                let (l, grad) = crate::train::softmax_xent(&logits, *label);
                loss += l;
                net.backward(&grad).expect("caches were filled");
                net.step(0.1, 0.9);
            }
            last_loss = loss;
        }
        assert!(last_loss < 0.05, "converged, loss {last_loss}");
        assert_eq!(net.forward(&data[0].0).argmax(), 0);
        assert_eq!(net.forward(&data[1].0).argmax(), 1);
    }

    #[test]
    fn backward_without_forward_cache_is_an_error_not_a_panic() {
        let mut rng = rng();
        let fresh: Vec<(Layer, &str)> = vec![
            (Layer::Conv2d(Conv2d::new(&mut rng, 1, 1, 3, 1, 1)), "Conv2d"),
            (
                Layer::DwConv2d(DwConv2d::new(&mut rng, 1, 3, 1, 1)),
                "DwConv2d",
            ),
            (Layer::Dense(Dense::new(&mut rng, 2, 2)), "Dense"),
            (Layer::relu(), "Relu"),
            (Layer::max_pool2(), "MaxPool2"),
            (Layer::global_avg_pool(), "GlobalAvgPool"),
            (Layer::flatten(), "Flatten"),
        ];
        let g = Tensor::from_vec(&[2], vec![1.0, 1.0]);
        for (mut layer, name) in fresh {
            let err = layer.backward(&g).expect_err("no cache yet");
            assert_eq!(err.layer(), name);
            assert!(err.to_string().contains("forward_train"), "message: {err}");
        }
        // A residual surfaces the inner layer's error.
        let mut res = Layer::Residual(Residual {
            main: vec![Layer::relu()],
            shortcut: vec![],
        });
        assert_eq!(res.backward(&g).expect_err("inner cache").layer(), "Relu");
    }

    #[test]
    fn max_pool_skips_poisoned_lanes() {
        // One NaN lane: the max over the remaining lanes wins.
        let x = Tensor::from_vec(&[1, 2, 2], vec![f32::NAN, 2.0, 3.0, -4.0]);
        assert_eq!(Layer::max_pool2().forward(&x).data(), &[3.0]);
        // All-NaN window degrades to 0.0 instead of -inf or NaN.
        let x = Tensor::from_vec(&[1, 2, 2], vec![f32::NAN; 4]);
        assert_eq!(Layer::max_pool2().forward(&x).data(), &[0.0]);
        // Backward through an all-NaN window routes to the first lane and
        // does not panic.
        let mut pool = Layer::max_pool2();
        let _ = pool.forward_train(&x);
        let gx = pool
            .backward(&Tensor::from_vec(&[1, 1, 1], vec![1.0]))
            .expect("cache was filled");
        assert_eq!(gx.data(), &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn global_avg_pool_skips_poisoned_lanes() {
        let x = Tensor::from_vec(&[2, 1, 2], vec![1.0, f32::NAN, 2.0, 4.0]);
        let y = Layer::global_avg_pool().forward(&x);
        assert_eq!(y.data(), &[1.0, 3.0], "NaN lane skipped; clean mean exact");
        let all_nan = Tensor::from_vec(&[1, 1, 2], vec![f32::NAN, f32::NAN]);
        assert_eq!(Layer::global_avg_pool().forward(&all_nan).data(), &[0.0]);
    }

    #[test]
    fn dense_skips_poisoned_lanes() {
        let mut d = Dense::new(&mut rng(), 1, 3);
        d.weights = Tensor::from_vec(&[1, 3], vec![1.0, 10.0, 100.0]);
        d.bias = Tensor::from_vec(&[1], vec![0.5]);
        let layer = Layer::Dense(d);
        let poisoned = Tensor::from_vec(&[3], vec![1.0, f32::NAN, 2.0]);
        let y = layer.forward(&poisoned);
        assert_eq!(y.data(), &[0.5 + 1.0 + 200.0], "NaN lane dropped");
        // Clean inputs take the nominal kernel path.
        let clean = Tensor::from_vec(&[3], vec![1.0, 0.0, 2.0]);
        assert_eq!(layer.forward(&clean).data(), &[0.5 + 1.0 + 200.0]);
    }

    /// The one convolution backward loop indexes a depthwise layer like
    /// the full convolution whose `[ch, ch, k, k]` kernel is block-diagonal
    /// with the same taps: the input, bias and (diagonal) weight gradients
    /// are bit-identical, the off-diagonal taps adding only zeros.
    #[test]
    fn depthwise_backward_matches_a_block_diagonal_conv() {
        let (ch, k) = (3, 3);
        for (stride, pad) in [(1, 1), (2, 0)] {
            let mut rng = rng();
            let dw = DwConv2d::new(&mut rng, ch, k, stride, pad);
            let mut full = Conv2d::new(&mut rng, ch, ch, k, stride, pad);
            full.weights.data_mut().fill(0.0);
            for c in 0..ch {
                let taps = &dw.weights.data()[c * k * k..(c + 1) * k * k];
                let diag = (c * ch + c) * k * k;
                full.weights.data_mut()[diag..diag + k * k].copy_from_slice(taps);
            }
            full.bias = normal(&mut rng, &[ch]);
            let mut dw = Layer::DwConv2d(DwConv2d {
                bias: full.bias.clone(),
                ..dw
            });
            let mut full = Layer::Conv2d(full);
            let x = normal(&mut rng, &[ch, 6, 5]);
            let y = dw.forward_train(&x);
            assert_eq!(full.forward_train(&x).shape(), y.shape());
            // Some zero output gradients, so the skip is exercised too.
            let mut grad_y = normal(&mut rng, y.shape());
            for g in grad_y.data_mut().iter_mut().step_by(5) {
                *g = 0.0;
            }
            let gx_dw = dw.backward(&grad_y).expect("cache was filled");
            let gx_full = full.backward(&grad_y).expect("cache was filled");
            let at = format!("stride {stride} pad {pad}");
            assert_eq!(bits(&gx_dw), bits(&gx_full), "grad_x, {at}");
            let (Layer::DwConv2d(d), Layer::Conv2d(f)) = (&dw, &full) else {
                unreachable!()
            };
            assert_eq!(bits(&d.train.grad_b), bits(&f.train.grad_b), "grad_b, {at}");
            for c in 0..ch {
                let diag = (c * ch + c) * k * k;
                assert_eq!(
                    bits(&d.train.grad_w)[c * k * k..(c + 1) * k * k],
                    bits(&f.train.grad_w)[diag..diag + k * k],
                    "grad_w channel {c}, {at}"
                );
            }
        }
    }

    /// A training forward pass returns the inference forward pass bit for
    /// bit and leaves every cache a backward pass needs, on a plain CNN, a
    /// ResNet with a projection shortcut and a depthwise-separable CNN.
    #[test]
    fn forward_train_is_forward_plus_the_caches() {
        use crate::models::{ds_cnn, kws_mini, resnet_mini};
        let nets = [
            ("kws_mini", kws_mini(12, 8, 4, 1), [1, 12, 8]),
            ("resnet_mini", resnet_mini(4, 4, 2), [3, 8, 8]),
            ("ds_cnn", ds_cnn(4, 6, 2, 3), [1, 12, 8]),
        ];
        for (name, mut net, shape) in nets {
            let x = normal(&mut rng(), &shape);
            let y = net.forward(&x);
            let y_train = net.forward_train(&x);
            assert_eq!(bits(&y_train), bits(&y), "{name}");
            let ones = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
            assert_eq!(net.backward(&ones), Ok(()), "{name}");
        }
    }

    /// The host expression the update must match bit for bit: `sgd` as it
    /// was written before it learned to avoid subnormal products.
    fn host_step(w: &mut [f32], g: &mut [f32], v: &mut [f32], lr: f32, momentum: f32) {
        for i in 0..w.len() {
            let vel = momentum * v[i] - lr * g[i];
            v[i] = vel;
            w[i] += vel;
            g[i] = 0.0;
        }
    }

    /// Asserts that `got` equals `want` lane by lane, bit for bit, except
    /// that a NaN matches any NaN: Rust leaves the payload of a NaN result
    /// unspecified (the compiler may swap an add's operands), so neither
    /// the host expression nor `sgd` pins it.
    fn assert_lanes(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        if let Some(i) = got.iter().zip(want).position(|p| !same(p)) {
            panic!(
                "{what}, lane {i}: {:#010x}, want {:#010x}",
                got[i].to_bits(),
                want[i].to_bits()
            );
        }
    }

    /// The momenta the subnormal path is checked at: the usual ones, a
    /// negative one, the largest below 2 and a subnormal one (which takes
    /// the host expression).
    const MOMENTA: [f32; 8] = [
        0.5,
        0.9,
        0.99,
        1.0,
        1.5,
        -0.9,
        f32::from_bits(0x3FFF_FFFF),
        f32::from_bits(0x0000_0300),
    ];

    /// Every f32 with exponent field 0 (both zeros and all 2^24 − 2
    /// signed subnormals) through the subnormal-safe update, against the
    /// host's `momentum * v - lr * g` and `w + v`. The gradient is +0, so
    /// each new velocity is the product itself, sign of zero included.
    #[test]
    fn every_subnormal_velocity_decays_as_the_host_multiplies() {
        const LANES: u32 = 1 << 16;
        let lr = 0.01;
        for momentum in MOMENTA {
            for start in (0..1u32 << 24).step_by(LANES as usize) {
                let v0: Vec<f32> = (start..start + LANES)
                    .map(|c| f32::from_bits((c & 0x007F_FFFF) | (c >> 23) << 31))
                    .collect();
                let (mut w, mut g, mut v) = (vec![1.0; v0.len()], vec![0.0; v0.len()], v0.clone());
                let (mut hw, mut hg, mut hv) = (w.clone(), g.clone(), v0.clone());
                let n = sgd_decaying(&mut w, &mut g, &mut v, lr, momentum);
                host_step(&mut hw, &mut hg, &mut hv, lr, momentum);
                assert_lanes(&v, &hv, &format!("velocities, momentum {momentum:e}"));
                assert_lanes(&w, &hw, &format!("weights, momentum {momentum:e}"));
                assert_eq!(n, hv.iter().filter(|x| x.is_subnormal()).count() as u64);
            }
        }
    }

    /// `sgd` against the host expression lane by lane, with and without
    /// the block scan, over a grid of velocities, gradients, weights and
    /// momenta chosen for their edges.
    #[test]
    fn sgd_lanes_match_the_host_expression() {
        let sub = f32::from_bits;
        let floor = sub(25 << 23); // 2^-102
        let velocities = [
            0.0,
            -0.0,
            sub(1),
            sub(4),
            sub(5),
            -sub(3),
            sub(0x007F_FFFF),
            -sub(0x007F_FFFF),
            f32::MIN_POSITIVE,
            1e-3,
            -0.25,
        ];
        let gradients = [0.0, -0.0, sub(7), -sub(0x0040_0000), 0.5, -1e-30];
        let weights = [
            0.0,
            -0.0,
            sub((25 << 23) - 1), // just below 2^-102
            floor,
            -floor,
            f32::INFINITY,
            f32::NEG_INFINITY,
            sub(0x7FC0_0001), // quiet NaN with a payload
            sub(0x7FA0_1234), // signalling NaN with a payload
            sub(0x0000_0009),
            1.0,
            -3.5,
        ];
        let round_up = sub(0x3F80_0001); // 1 + 2^-23
        let momenta = [
            0.9,
            0.0,
            -0.0,
            2.0,
            2.5,
            f32::NAN,
            round_up,
            -1.5,
            sub(0x0000_0300),
        ];
        let lr = 0.01;
        let mut lanes = Vec::new();
        for &v in &velocities {
            for &g in &gradients {
                for &w in &weights {
                    lanes.push((w, g, v));
                }
            }
        }
        let unzip = |i: usize| -> Vec<f32> { lanes.iter().map(|l| [l.0, l.1, l.2][i]).collect() };
        let n = lanes.len();
        for momentum in momenta {
            let (mut hw, mut hg, mut hv) = (unzip(0), unzip(1), unzip(2));
            host_step(&mut hw, &mut hg, &mut hv, lr, momentum);
            for scan in [false, true] {
                let mut w = Tensor::from_vec(&[n], unzip(0));
                let mut g = Tensor::from_vec(&[n], unzip(1));
                let mut v = Tensor::from_vec(&[n], unzip(2));
                let count = sgd(&mut w, &mut g, &mut v, lr, momentum, scan);
                let at = format!("momentum {momentum:e}, scan {scan}");
                assert_lanes(v.data(), &hv, &format!("velocities, {at}"));
                assert_lanes(w.data(), &hw, &format!("weights, {at}"));
                assert_lanes(g.data(), &hg, &format!("gradients, {at}"));
                assert_eq!(
                    count,
                    hv.iter().filter(|x| x.is_subnormal()).count() as u64,
                    "{at}"
                );
            }
        }
        // The largest subnormal times 1 + 2^-23 rounds up to 2^-126, the
        // smallest normal.
        let mut v = Tensor::from_vec(&[1], vec![sub(0x007F_FFFF)]);
        let (mut w, mut g) = (Tensor::from_vec(&[1], vec![1.0]), Tensor::zeros(&[1]));
        assert_eq!(sgd(&mut w, &mut g, &mut v, lr, round_up, true), 0);
        assert_eq!(v.data()[0], f32::MIN_POSITIVE);
    }

    /// A step of a pre-trained network, whose dead weights hold subnormal
    /// momentum, adds the subnormal velocities it wrote to its scope's
    /// `underflow` count, and a step that writes none records nothing.
    #[test]
    fn a_step_records_its_subnormal_velocities_as_underflow() {
        use crate::data::Dataset;
        use crate::models::kws_mini;
        use crate::train::{train_float, TrainConfig};
        let data = Dataset::synth_speech(4, 15, 16, 8, 11);
        let mut net = kws_mini(16, 8, 4, 5);
        let cfg = TrainConfig {
            lr: 0.02,
            momentum: 0.9,
            epochs: 20,
            seed: 3,
        };
        train_float(&mut net, &data, &cfg);
        let scope = "layers-test-step-underflow";
        {
            let _span = nga_obs::span(scope);
            net.step(0.02, 0.9);
        }
        let subnormal: u64 = net
            .layers
            .iter_mut()
            .filter_map(Layer::params_mut)
            .flat_map(|(_, _, t)| t.vel_w.data().iter().chain(t.vel_b.data()))
            .filter(|x| x.is_subnormal())
            .count() as u64;
        assert!(
            subnormal > 0,
            "the pre-trained net holds subnormal momentum"
        );
        let report = nga_obs::snapshot();
        assert_eq!(report.get(scope).map(|c| c.underflow), Some(subnormal));

        let mut fresh = kws_mini(16, 8, 4, 5);
        let quiet = "layers-test-step-no-underflow";
        {
            let _span = nga_obs::span(quiet);
            fresh.step(0.02, 0.9);
        }
        assert_eq!(nga_obs::snapshot().get(quiet).map(|c| c.underflow), Some(0));
    }
}
