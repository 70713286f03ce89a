//! Training is pinned bit for bit: an FNV-1a hash over everything float
//! training and approximate retraining produce — the per-epoch losses of
//! `train_float` and of `retrain_approx(Trunc9)`, the final parameters,
//! the logits on the evaluation split and the float and approximate
//! accuracies — on kws_mini, resnet_mini and ds_cnn. A change to the SGD
//! update, a layer's forward or backward pass, or the quantized forward
//! that moves one bit of any of them changes the hash.
//!
//! The kws_mini task is the `retrain` benchmark's set-up (Fig. 5's first
//! keyword task). After its 35 epochs, weights whose gradient stays 0
//! hold momentum that `v ← 0.9·v` has decayed into the subnormal range,
//! so the test checks that the update rule's subnormal lanes are
//! exercised before it trusts the hash.

use nga_approx::ApproxMultiplier;
use nga_nn::data::Dataset;
use nga_nn::layers::{Layer, Network};
use nga_nn::models::{ds_cnn, kws_mini, resnet_mini};
use nga_nn::train::{accuracy, accuracy_approx, retrain_approx, train_float, TrainConfig};
use nga_nn::Tensor;

/// FNV-1a over 32-bit words, fed byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn f64(&mut self, x: f64) {
        let b = x.to_bits();
        self.word(b as u32);
        self.word((b >> 32) as u32);
    }
}

/// Every weight and bias tensor of `layers`, in layer order (a residual
/// block's main path before its shortcut).
fn param_tensors<'a>(layers: &'a mut [Layer], out: &mut Vec<&'a mut Tensor>) {
    for l in layers {
        match l {
            Layer::Conv2d(c) => out.extend([&mut c.weights, &mut c.bias]),
            Layer::DwConv2d(c) => out.extend([&mut c.weights, &mut c.bias]),
            Layer::Dense(d) => out.extend([&mut d.weights, &mut d.bias]),
            Layer::Residual(r) => {
                param_tensors(&mut r.main, out);
                param_tensors(&mut r.shortcut, out);
            }
            _ => {}
        }
    }
}

fn params(net: &mut Network) -> Vec<f32> {
    let mut ts = Vec::new();
    param_tensors(&mut net.layers, &mut ts);
    ts.iter().flat_map(|t| t.data().iter().copied()).collect()
}

/// The momentum buffers of a trained `net`, read through the public API:
/// with every weight zeroed and the gradients already zeroed by the last
/// step, one step at momentum 1 writes `w = 0 + (1·v − lr·0) = v`.
fn velocities(net: &Network) -> Vec<f32> {
    let mut probe = net.clone();
    let mut ts = Vec::new();
    param_tensors(&mut probe.layers, &mut ts);
    for t in ts {
        t.data_mut().fill(0.0);
    }
    probe.step(0.01, 1.0);
    params(&mut probe)
}

fn subnormals(xs: &[f32]) -> usize {
    xs.iter().filter(|x| x.is_subnormal()).count()
}

/// Trains `net` on `train` with `pre`, then retrains it with Trunc9 for
/// `retrain_epochs`, and hashes both runs' losses, the retrained
/// parameters, its logits on `eval` and the accuracies before and after
/// retraining. Returns the hash and the pre-trained net's momentum
/// buffers.
fn fingerprint(
    mut net: Network,
    train: &Dataset,
    eval: &Dataset,
    pre: &TrainConfig,
    retrain_epochs: usize,
) -> (u64, Vec<f32>) {
    let mut h = Fnv::new();
    h.floats(&train_float(&mut net, train, pre));
    let vel = velocities(&net);
    h.f64(accuracy(&net, eval));
    h.f64(accuracy_approx(&net, eval, ApproxMultiplier::Trunc9));
    let cfg = TrainConfig {
        lr: 0.004,
        momentum: 0.9,
        epochs: retrain_epochs,
        seed: 31,
    };
    h.floats(&retrain_approx(
        &mut net,
        train,
        ApproxMultiplier::Trunc9,
        &cfg,
    ));
    h.floats(&params(&mut net));
    for i in 0..eval.len() {
        h.floats(net.forward(&eval.sample(i).0).data());
    }
    h.f64(accuracy(&net, eval));
    h.f64(accuracy_approx(&net, eval, ApproxMultiplier::Trunc9));
    (h.0, vel)
}

#[test]
fn kws_mini_training_matches_its_fingerprint() {
    // The `retrain` benchmark's pre-training, then two retraining epochs.
    let all = Dataset::synth_speech_noisy(16, 30, 24, 10, 0.7, 23);
    let (train, eval) = all.split_alternating();
    let pre = TrainConfig {
        lr: 0.01,
        momentum: 0.9,
        epochs: 35,
        seed: 5,
    };
    let (hash, vel) = fingerprint(kws_mini(24, 10, 16, 23), &train, &eval, &pre, 2);
    let n = subnormals(&vel);
    assert!(
        n * 4 > vel.len(),
        "pre-trained kws_mini: {n} of {} momentum entries subnormal, expected over a quarter",
        vel.len()
    );
    assert_eq!(hash, 0x550e_1d4f_e801_daeb, "kws_mini training fingerprint");
}

#[test]
fn resnet_mini_training_matches_its_fingerprint() {
    let all = Dataset::synth_images_noisy(4, 10, 8, 0.55, 17);
    let (train, eval) = all.split_alternating();
    let pre = TrainConfig {
        lr: 0.005,
        momentum: 0.9,
        epochs: 8,
        seed: 5,
    };
    let (hash, _) = fingerprint(resnet_mini(4, 4, 9), &train, &eval, &pre, 2);
    assert_eq!(
        hash, 0xa9b4_07e6_b347_4d08,
        "resnet_mini training fingerprint"
    );
}

#[test]
fn ds_cnn_training_matches_its_fingerprint() {
    let all = Dataset::synth_speech_noisy(4, 12, 12, 8, 0.5, 3);
    let (train, eval) = all.split_alternating();
    let pre = TrainConfig {
        lr: 0.01,
        momentum: 0.9,
        epochs: 10,
        seed: 5,
    };
    let (hash, _) = fingerprint(ds_cnn(4, 6, 2, 3), &train, &eval, &pre, 2);
    assert_eq!(hash, 0x8761_a050_8ed7_aa96, "ds_cnn training fingerprint");
}
