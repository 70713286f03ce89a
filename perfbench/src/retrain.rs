//! `retrain`: the §IV approximate-retraining flow.
//!
//! Set-up trains `kws_mini` on `synth_speech_noisy` exactly as Fig. 5's
//! first keyword task does (data and weights from that task's fixed seed),
//! so every benchmark seed retrains the same model. One item is a fresh
//! clone of that network plus one epoch of `retrain_approx` over a short
//! training split drawn by the benchmark seed, with a multiplier from the
//! harsh end of the ladder. Items write as well as read: training caches,
//! backward passes, weight updates and re-quantization each epoch.

use nga_approx::ApproxMultiplier;
use nga_nn::data::Dataset;
use nga_nn::layers::{Layer, Network};
use nga_nn::models::kws_mini;
use nga_nn::quant::QuantizedNetwork;
use nga_nn::train::{
    accuracy_approx, retrain_approx, softmax, train_float, xent_grad_from_probs, TrainConfig,
};
use nga_nn::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::edge_infer::mac_table_build_ms;
use crate::trace::{TotalsExt, Tracer};
use crate::{Metrics, Size, Workload};

/// The harsh end of the multiplier ladder.
const MULT: ApproxMultiplier = ApproxMultiplier::Trunc9;
/// Seed of Fig. 5's first keyword task (`kws_task("KWS-mini-1", 23)`).
const TASK_SEED: u64 = 23;
/// Training splits, used round-robin.
const WINDOWS: usize = 3;

/// The workload state.
#[derive(Debug)]
pub struct Retrain {
    base: Network,
    windows: Vec<Dataset>,
    shuffle_seed: u64,
    /// Per split: loss bits and parameter bits of the reference retrain.
    want: Vec<(Vec<u32>, Vec<u32>)>,
    top1_before_pct: f64,
    top1_pct: f64,
}

/// Outputs of one item: the per-epoch losses and the retrained network.
#[derive(Debug)]
pub struct Out {
    losses: Vec<f32>,
    net: Network,
}

/// Fig. 5's retraining schedule, cut to one epoch.
fn config(shuffle_seed: u64, window: usize) -> TrainConfig {
    TrainConfig {
        lr: 0.004,
        momentum: 0.9,
        epochs: 1,
        seed: shuffle_seed.wrapping_add(window as u64),
    }
}

/// Every trainable parameter of `net`, as bits.
fn param_bits(layers: &[Layer], out: &mut Vec<u32>) {
    for l in layers {
        let tensors: Vec<&Tensor> = match l {
            Layer::Conv2d(c) => vec![&c.weights, &c.bias],
            Layer::DwConv2d(c) => vec![&c.weights, &c.bias],
            Layer::Dense(d) => vec![&d.weights, &d.bias],
            Layer::Residual(r) => {
                param_bits(&r.main, out);
                param_bits(&r.shortcut, out);
                vec![]
            }
            _ => vec![],
        };
        for t in tensors {
            out.extend(t.data().iter().map(|v| v.to_bits()));
        }
    }
}

fn params(net: &Network) -> Vec<u32> {
    let mut out = Vec::new();
    param_bits(&net.layers, &mut out);
    out
}

fn loss_bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|v| v.to_bits()).collect()
}

impl Retrain {
    /// Trains Fig. 5's keyword network, draws the retraining splits and
    /// shuffle seeds from `seed`, and retrains one clone per split as the
    /// reference.
    #[must_use]
    pub fn setup(seed: u64, size: Size) -> Self {
        let (classes, per_class, frames, coeffs, epochs, window) = match size {
            Size::Full => (16, 30, 24, 10, 35, 64),
            Size::Tiny => (4, 8, 8, 4, 2, 4),
        };
        let all = Dataset::synth_speech_noisy(classes, per_class, frames, coeffs, 0.7, TASK_SEED);
        let (train, eval) = all.split_alternating();
        let mut base = kws_mini(frames, coeffs, classes, TASK_SEED);
        let pre = TrainConfig {
            lr: 0.01,
            momentum: 0.9,
            epochs,
            seed: 5,
        };
        train_float(&mut base, &train, &pre);
        // Disjoint random splits of the training half.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut picks: Vec<usize> = (0..train.len()).collect();
        picks.shuffle(&mut rng);
        let windows: Vec<Dataset> = picks
            .chunks_exact(window)
            .take(WINDOWS)
            .map(|idx| {
                Dataset::from_samples(idx.iter().map(|&i| train.sample(i)).collect(), classes)
            })
            .collect();
        let shuffle_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut top1 = 0.0;
        let want = windows
            .iter()
            .enumerate()
            .map(|(w, data)| {
                let mut net = base.clone();
                let losses = retrain_approx(&mut net, data, MULT, &config(shuffle_seed, w));
                top1 += accuracy_approx(&net, &eval, MULT);
                (loss_bits(&losses), params(&net))
            })
            .collect();
        Self {
            top1_before_pct: accuracy_approx(&base, &eval, MULT),
            top1_pct: top1 / WINDOWS as f64,
            base,
            windows,
            shuffle_seed,
            want,
        }
    }

    fn window(&self, i: u64) -> usize {
        (i % self.windows.len() as u64) as usize
    }
}

impl Workload for Retrain {
    type Out = Out;

    fn run(&mut self, i: u64) -> Out {
        let w = self.window(i);
        let mut net = self.base.clone();
        let cfg = config(self.shuffle_seed, w);
        let losses = retrain_approx(&mut net, &self.windows[w], MULT, &cfg);
        Out { losses, net }
    }

    fn check(&self, i: u64, out: &Out) -> bool {
        let (losses, params_want) = &self.want[self.window(i)];
        loss_bits(&out.losses) == *losses && params(&out.net) == *params_want
    }

    fn traced(&mut self, i: u64, tr: &mut Tracer) -> Out {
        let w = self.window(i);
        let mut net = self.base.clone();
        let cfg = config(self.shuffle_seed, w);
        let losses = replica(&mut net, &self.windows[w], MULT, &cfg, tr);
        Out { losses, net }
    }

    fn per_layer(&mut self, tr: &Tracer, items: u64) -> (Metrics, bool) {
        let t = tr.totals();
        let per_item = |ns: f64| ns / 1e3 / items.max(1) as f64;
        let mut m = Metrics::new();
        for part in [
            "qforward",
            "forward_train",
            "backward",
            "step",
            "requantize",
            "static_loss",
        ] {
            let span = format!("train.{part}");
            m.push((format!("{span}.us"), per_item(t.total_ns(&span))));
        }
        m.push(("train.glue_us".into(), per_item(t.self_ns("item"))));
        m.push(("train.top1_pct".into(), self.top1_pct));
        m.push((
            "nn.quant.from_float_us".into(),
            t.mean_ns("train.requantize") / 1e3,
        ));
        m.push((
            "kernels.mac_table_build_ms".into(),
            mac_table_build_ms(MULT),
        ));
        (m, true)
    }

    fn notes(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("top1_pct", self.top1_pct, "%"),
            ("top1_before_retrain_pct", self.top1_before_pct, "%"),
        ]
    }
}

/// `retrain_approx` rebuilt from its public pieces, with every piece in a
/// span: `QuantizedNetwork::from_float`/`forward`, `softmax`,
/// `xent_grad_from_probs`, `forward_train`, `backward` and `step`. It must
/// reproduce the library's losses and weights bit for bit.
fn replica(
    net: &mut Network,
    data: &Dataset,
    m: ApproxMultiplier,
    cfg: &TrainConfig,
    tr: &mut Tracer,
) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut losses = Vec::with_capacity(cfg.epochs);
    let calib: Vec<Tensor> = (0..data.len().min(16)).map(|i| data.sample(i).0).collect();
    // The best checkpoint by static approximate loss, as the library keeps.
    let static_loss = |net: &Network, tr: &mut Tracer| -> f32 {
        tr.span("train.static_loss", |_| {
            let qnet = QuantizedNetwork::from_float(net, &calib);
            let mut total = 0.0;
            for i in 0..data.len() {
                let (x, label) = data.sample(i);
                let probs = softmax(&qnet.forward(&x, m));
                total += -(probs[label].max(1e-12)).ln();
            }
            total / data.len() as f32
        })
    };
    let mut best = (static_loss(net, tr), net.clone());
    for _ in 0..cfg.epochs {
        let qnet = tr.span("train.requantize", |_| {
            QuantizedNetwork::from_float(net, &calib)
        });
        order.shuffle(&mut rng);
        let mut total = 0.0;
        for &i in &order {
            let (x, label) = data.sample(i);
            let (loss, grad) = tr.span("train.qforward", |_| {
                let probs = softmax(&qnet.forward(&x, m));
                let loss = -(probs[label].max(1e-12)).ln();
                (loss, xent_grad_from_probs(&probs, label))
            });
            total += loss;
            tr.span("train.forward_train", |_| {
                let _ = net.forward_train(&x);
            });
            if tr.span("train.backward", |_| net.backward(&grad).is_ok()) {
                tr.span("train.step", |_| net.step(cfg.lr, cfg.momentum));
            }
        }
        let end_of_epoch = static_loss(net, tr);
        if end_of_epoch < best.0 {
            best = (end_of_epoch, net.clone());
        }
        losses.push(total / data.len() as f32);
    }
    *net = best.1;
    losses
}
