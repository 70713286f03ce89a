//! Float/int8 inference models shared by `edge_infer` and `resnet20_f32`:
//! the traced layer walk, same-run conv ceilings, and the per-layer
//! metrics computed from their spans.

use std::collections::BTreeMap;

use nga_approx::ApproxMultiplier;
use nga_kernels::ArithCtx;
use nga_nn::layers::{Layer, Network};
use nga_nn::quant::QuantizedNetwork;
use nga_nn::Tensor;

use crate::trace::{TotalsExt, Tracer};
use crate::{median, same_bits, Metrics};

/// Span names of one model, all `'static` so the tracer can keep them.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpans {
    /// The traced layer walk of one f32 inference.
    pub walk: &'static str,
    /// One untraced `Network::forward` call (the f32 latency).
    pub forward: &'static str,
    /// One `QuantizedNetwork::forward` call (the int8 latency).
    pub int8: &'static str,
}

/// The span names for a model of the catalogue.
///
/// # Panics
///
/// Panics on a model name the catalogue does not list.
#[must_use]
pub fn spans_for(name: &str) -> ModelSpans {
    match name {
        "kws_mini" => ModelSpans {
            walk: "walk.kws_mini",
            forward: "infer.kws_mini.f32",
            int8: "infer.kws_mini.int8",
        },
        "resnet_mini" => ModelSpans {
            walk: "walk.resnet_mini",
            forward: "infer.resnet_mini.f32",
            int8: "infer.resnet_mini.int8",
        },
        "resnet20" => ModelSpans {
            walk: "walk.resnet20",
            forward: "infer.resnet20.f32",
            int8: "infer.resnet20.int8",
        },
        other => panic!("no span names for model {other}"),
    }
}

/// One network with its inputs and the reference outputs every item is
/// checked against.
#[derive(Debug)]
pub struct Model {
    /// Catalogue name (`kws_mini`, `resnet_mini`, `resnet20`).
    pub name: &'static str,
    /// Span names.
    pub spans: ModelSpans,
    /// The float network.
    pub net: Network,
    /// Its quantized mirror, when the workload runs int8 inference.
    pub qnet: Option<QuantizedNetwork>,
    /// Inputs, used round-robin by item index.
    pub inputs: Vec<Tensor>,
    /// `Network::forward` of each input, computed at set-up.
    pub want_f32: Vec<Tensor>,
    /// `QuantizedNetwork::forward` of each input, computed at set-up.
    pub want_int8: Vec<Tensor>,
    /// MACs of one forward pass (`Network::mac_count`).
    pub macs: u64,
    /// MACs of the conv layers alone (`Layer::macs`).
    pub conv_macs: u64,
    ceilings: Vec<ConvCeiling>,
}

impl Model {
    /// Builds the model record: MAC counts, optional quantization
    /// (calibrated on the first `calib` inputs) and reference outputs.
    #[must_use]
    pub fn new(
        name: &'static str,
        net: Network,
        inputs: Vec<Tensor>,
        int8: Option<(usize, ApproxMultiplier)>,
    ) -> Self {
        let in_shape = inputs[0].shape().to_vec();
        let macs = net.mac_count(&in_shape);
        let conv_macs = conv_macs(&net.layers, &in_shape);
        let want_f32 = inputs.iter().map(|x| net.forward(x)).collect();
        let (qnet, want_int8) = match int8 {
            Some((calib, m)) => {
                let q = QuantizedNetwork::from_float(&net, &inputs[..calib]);
                let want = inputs.iter().map(|x| q.forward(x, m)).collect();
                (Some(q), want)
            }
            None => (None, Vec::new()),
        };
        Self {
            name,
            spans: spans_for(name),
            net,
            qnet,
            inputs,
            want_f32,
            want_int8,
            macs,
            conv_macs,
            ceilings: Vec::new(),
        }
    }

    /// The input and reference slot of item `i`.
    #[must_use]
    pub fn slot(&self, i: u64) -> usize {
        (i % self.inputs.len() as u64) as usize
    }

    /// The traced f32 inference of item `i`: the layer walk.
    pub fn traced_f32(&self, i: u64, tr: &mut Tracer) -> Tensor {
        let x = &self.inputs[self.slot(i)];
        tr.span(self.spans.walk, |tr| walk(&self.net.layers, x, tr))
    }

    /// The traced int8 inference of item `i` with multiplier `m`.
    pub fn traced_int8(&self, i: u64, m: ApproxMultiplier, tr: &mut Tracer) -> Tensor {
        let x = &self.inputs[self.slot(i)];
        let q = self
            .qnet
            .as_ref()
            .expect("int8 model was quantized at set-up");
        tr.span(self.spans.int8, |_| q.forward(x, m))
    }

    /// Whether `out` is the f32 reference of item `i`, bit for bit.
    #[must_use]
    pub fn check_f32(&self, i: u64, out: &Tensor) -> bool {
        same_bits(out, &self.want_f32[self.slot(i)])
    }

    /// Whether `out` is the int8 reference of item `i`, bit for bit.
    #[must_use]
    pub fn check_int8(&self, i: u64, out: &Tensor) -> bool {
        same_bits(out, &self.want_int8[self.slot(i)])
    }

    /// Same-run probes after a traced item: one timed `Network::forward`
    /// (checked against the reference) and the conv ceilings.
    pub fn probe(&mut self, i: u64, tr: &mut Tracer) -> bool {
        let x = &self.inputs[self.slot(i)];
        let y = tr.span(self.spans.forward, |_| self.net.forward(x));
        if self.ceilings.is_empty() {
            self.ceilings = conv_ceilings(&self.net.layers, &self.inputs[0]);
        }
        let ctx = ArithCtx::new();
        for c in &mut self.ceilings {
            tr.span("ceil.conv2d", |_| {
                ctx.matmul_f32(&c.weights, &c.cols, &mut c.out, c.oc, c.kdim, c.npix);
            });
        }
        self.check_f32(i, &y)
    }
}

/// `Network::forward` replayed one public `Layer::forward` call at a time,
/// each inside a span named after `Layer::kind()`. Residual blocks are
/// opened up through their public `main`/`shortcut` paths and combined
/// with `Tensor::add` exactly as `Layer::forward` does, so projection
/// shortcuts are timed as the convs they are.
pub fn walk(layers: &[Layer], x: &Tensor, tr: &mut Tracer) -> Tensor {
    let mut t = x.clone();
    for l in layers {
        t = walk_layer(l, &t, tr);
    }
    t
}

fn walk_layer(l: &Layer, x: &Tensor, tr: &mut Tracer) -> Tensor {
    match l {
        Layer::Residual(r) => tr.span("nn.residual", |tr| {
            let main = walk(&r.main, x, tr);
            let short = walk(&r.shortcut, x, tr);
            main.add(&short)
        }),
        _ => tr.span(layer_span(l), |_| l.forward(x)),
    }
}

fn layer_span(l: &Layer) -> &'static str {
    match l.kind() {
        "conv2d" => "nn.conv2d",
        "dwconv2d" => "nn.dwconv2d",
        "dense" => "nn.dense",
        "relu" => "nn.relu",
        "maxpool2" => "nn.maxpool2",
        "gapool" => "nn.gapool",
        "flatten" => "nn.flatten",
        "residual" => "nn.residual",
        _ => "nn.other",
    }
}

/// MACs of the conv layers (including residual paths) on `in_shape`.
fn conv_macs(layers: &[Layer], in_shape: &[usize]) -> u64 {
    let mut shape = in_shape.to_vec();
    let mut macs = 0;
    for l in layers {
        if let Layer::Residual(r) = l {
            macs += conv_macs(&r.main, &shape) + conv_macs(&r.shortcut, &shape);
        }
        let (m, s) = l.macs(&shape);
        if matches!(l, Layer::Conv2d(_)) {
            macs += m;
        }
        shape = s;
    }
    macs
}

/// The f32 matmul a conv layer reduces to after im2col: `[oc, kdim]` by
/// `[kdim, npix]`, run through `ArithCtx::matmul_f32` on the same tier.
#[derive(Debug)]
struct ConvCeiling {
    weights: Vec<f32>,
    cols: Vec<f32>,
    out: Vec<f32>,
    oc: usize,
    kdim: usize,
    npix: usize,
}

/// One [`ConvCeiling`] per conv call of a forward pass on `x`, built from
/// that layer's real weights and im2col matrix.
fn conv_ceilings(layers: &[Layer], x: &Tensor) -> Vec<ConvCeiling> {
    let mut out = Vec::new();
    collect_ceilings(layers, x, &mut out);
    out
}

fn collect_ceilings(layers: &[Layer], x: &Tensor, acc: &mut Vec<ConvCeiling>) -> Tensor {
    let mut t = x.clone();
    for l in layers {
        match l {
            Layer::Residual(r) => {
                let main = collect_ceilings(&r.main, &t, acc);
                let short = collect_ceilings(&r.shortcut, &t, acc);
                t = main.add(&short);
                continue;
            }
            Layer::Conv2d(c) => {
                let ws = c.weights.shape();
                let (oc, ch, k) = (ws[0], ws[1], ws[2]);
                let (h, w) = (t.shape()[1], t.shape()[2]);
                let mut cols = Vec::new();
                let (oh, ow) =
                    nga_kernels::im2col(t.data(), ch, h, w, k, k, c.stride, c.pad, &mut cols);
                let npix = oh * ow;
                acc.push(ConvCeiling {
                    weights: c.weights.data().to_vec(),
                    cols,
                    out: vec![0.0; oc * npix],
                    oc,
                    kdim: ch * k * k,
                    npix,
                });
            }
            _ => {}
        }
        t = l.forward(&t);
    }
    t
}

/// Per-layer metrics of traced f32/int8 inference over `models`, from
/// `items` traced items (`int8_in_items`: whether each item also ran the
/// int8 forward of every model).
pub fn layer_metrics(tr: &Tracer, models: &[Model], items: u64, int8_in_items: bool) -> Metrics {
    let t = tr.totals();
    let per_item = |ns: f64| ns / 1e3 / items.max(1) as f64;
    let mut m = Metrics::new();
    for kind in [
        "conv2d", "dense", "relu", "maxpool2", "gapool", "flatten", "residual",
    ] {
        let span = format!("nn.{kind}");
        m.push((format!("nn.{kind}.self_us"), per_item(t.self_ns(&span))));
    }
    // Network::forward minus the layer calls it makes, per item; the
    // median, because the two sides are separate runs of the same work.
    let mut glue_ns: BTreeMap<u64, i64> = BTreeMap::new();
    let mut conv_macs = 0.0;
    let (mut q_ns, mut q_macs) = (0.0, 0.0);
    for md in models {
        let walk_self = tr.per_item(md.spans.walk, true);
        for (item, fwd) in tr.per_item(md.spans.forward, false) {
            *glue_ns.entry(item).or_default() += fwd;
        }
        for (item, walk) in tr.per_item(md.spans.walk, false) {
            let own = walk_self.get(&item).copied().unwrap_or(0);
            *glue_ns.entry(item).or_default() -= walk - own;
        }
        conv_macs += md.conv_macs as f64 * items as f64;
        let f32_us = t.mean_ns(md.spans.forward) / 1e3;
        let int8_us = t.mean_ns(md.spans.int8) / 1e3;
        m.push((format!("infer.{}.f32.us", md.name), f32_us));
        m.push((
            format!("infer.{}.f32.gmac_per_s", md.name),
            gmac(md.macs as f64, f32_us),
        ));
        m.push((format!("infer.{}.int8.us", md.name), int8_us));
        m.push((
            format!("infer.{}.int8.gmac_per_s", md.name),
            gmac(md.macs as f64, int8_us),
        ));
        q_ns += t.total_ns(md.spans.int8);
        q_macs += md.macs as f64 * t.get(md.spans.int8).map_or(0, |s| s.calls) as f64;
    }
    let glue_us = median(glue_ns.values().map(|&ns| ns as f64 / 1e3).collect());
    m.push(("nn.forward.glue_us".into(), glue_us));
    let conv_ns = t.total_ns("nn.conv2d");
    m.push(("nn.conv2d.gmac_per_s".into(), ratio(conv_macs, conv_ns)));
    m.push((
        "nn.conv2d.ceiling_pct".into(),
        100.0 * ratio(t.total_ns("ceil.conv2d"), conv_ns),
    ));
    if int8_in_items {
        m.push(("nn.qforward.us".into(), per_item(q_ns)));
        m.push(("nn.qforward.gmac_per_s".into(), ratio(q_macs, q_ns)));
    }
    m
}

/// GMAC/s of `macs` done in `us` microseconds (0 when nothing ran).
#[must_use]
pub fn gmac(macs: f64, us: f64) -> f64 {
    ratio(macs, us * 1e3)
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nga_nn::models::{kws_mini, resnet};

    fn input(shape: &[usize], salt: u32) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|i| (((i as u32).wrapping_mul(2_654_435_761) ^ salt) % 1000) as f32 / 500.0 - 1.0)
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn layer_walk_is_network_forward_bit_for_bit() {
        // resnet(1, 4) has stride-2 stages, so two blocks carry 1x1
        // projection shortcuts; kws_mini covers maxpool and flatten.
        for (net, shape) in [
            (resnet(1, 4, 10, 3), vec![3, 8, 8]),
            (kws_mini(8, 4, 5, 3), vec![1, 8, 4]),
        ] {
            let x = input(&shape, 7);
            let mut tr = Tracer::new();
            let y = walk(&net.layers, &x, &mut tr);
            assert!(same_bits(&y, &net.forward(&x)));
            assert!(tr.totals().contains_key("nn.conv2d"));
        }
    }

    #[test]
    fn conv_macs_cover_projection_shortcuts() {
        let net = resnet(1, 4, 10, 3);
        let shape = [3, 8, 8];
        let dense: u64 = 10 * 16;
        assert_eq!(
            conv_macs(&net.layers, &shape) + dense,
            net.mac_count(&shape)
        );
        assert_eq!(
            conv_ceilings(&net.layers, &input(&shape, 1)).len(),
            1 + 3 * 2 + 2
        );
    }
}
