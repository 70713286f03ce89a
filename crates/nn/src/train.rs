//! Training: softmax/cross-entropy (the paper's eq. (1)), SGD with
//! momentum (eq. (2)), and **approximate retraining** with the paper's
//! gradient estimator.
//!
//! §IV-B: "we compute the gradient of Y (with respect to w) instead of Ỹ.
//! This is necessary as the gradient of the approximate function is
//! undefined and thus we need to estimate it using the accurate
//! counterpart." Concretely: the loss (and its softmax gradient) is
//! evaluated on the *approximate* quantized forward pass, and that
//! gradient is then propagated through the *accurate* float network.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::Dataset;
use crate::layers::Network;
use crate::metrics::ConfusionMatrix;
use crate::quant::QuantizedNetwork;
use crate::tensor::Tensor;
use nga_approx::ApproxMultiplier;

/// Softmax + cross-entropy: returns `(loss, gradient w.r.t. logits)`.
///
/// The gradient is the classic `softmax(logits) - onehot(label)`.
#[must_use]
pub fn softmax_xent(logits: &Tensor, label: usize) -> (f32, Tensor) {
    let probs = softmax(logits);
    let loss = xent_loss(&probs, label);
    let mut grad = probs;
    grad[label] -= 1.0;
    (loss, Tensor::from_vec(logits.shape(), grad))
}

/// Cross-entropy loss of softmax probabilities at `label` (clamped away
/// from `ln 0`).
fn xent_loss(probs: &[f32], label: usize) -> f32 {
    -(probs[label].max(1e-12)).ln()
}

/// Cross-entropy gradient computed from externally supplied probabilities
/// (used by approximate retraining, where the probabilities come from the
/// approximate forward pass).
#[must_use]
pub fn xent_grad_from_probs(probs: &[f32], label: usize) -> Tensor {
    let mut grad = probs.to_vec();
    grad[label] -= 1.0;
    Tensor::from_vec(&[probs.len()], grad)
}

/// Softmax probabilities of a logits vector.
#[must_use]
pub fn softmax(logits: &Tensor) -> Vec<f32> {
    let max = logits
        .data()
        .iter()
        .cloned()
        .fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.data().iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    nga_obs::record(|c| c.divs = c.divs.saturating_add(exps.len() as u64));
    exps.iter().map(|&e| e / sum).collect()
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Number of epochs.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 0.01,
            momentum: 0.9,
            epochs: 5,
            seed: 7,
        }
    }
}

/// Plain float training on a dataset. Returns the mean loss per epoch.
pub fn train_float(net: &mut Network, data: &Dataset, cfg: &TrainConfig) -> Vec<f32> {
    let _span = nga_obs::span("nn:train");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0;
        for &i in &order {
            let (x, label) = data.sample(i);
            let logits = net.forward_train(&x);
            let (loss, grad) = softmax_xent(&logits, label);
            total += loss;
            // forward_train just filled every cache, so backward cannot
            // fail here; if it ever did, skip the update rather than
            // aborting the epoch.
            if net.backward(&grad).is_ok() {
                net.step(cfg.lr, cfg.momentum);
            }
        }
        losses.push(total / data.len() as f32);
    }
    losses
}

/// Top-1 accuracy of a float network on a dataset, in percent: the
/// accuracy of [`ConfusionMatrix::evaluate`], so an empty dataset scores
/// 0.0.
#[must_use]
pub fn accuracy(net: &Network, data: &Dataset) -> f64 {
    ConfusionMatrix::evaluate(net, data).accuracy()
}

/// Approximate retraining (§IV-B): each step runs the *approximate
/// quantized* forward pass to obtain Ỹ, forms the cross-entropy gradient
/// from Ỹ, runs the *accurate float* forward pass to fill the caches, and
/// backpropagates the approximate gradient through the accurate network.
///
/// Returns the mean (approximate) loss per epoch. Activation quantization
/// ranges are re-calibrated each epoch from the evolving float weights.
pub fn retrain_approx(
    net: &mut Network,
    data: &Dataset,
    multiplier: ApproxMultiplier,
    cfg: &TrainConfig,
) -> Vec<f32> {
    let _span = nga_obs::span("nn:retrain");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut losses = Vec::with_capacity(cfg.epochs);
    let calib = data.calibration_set();
    // The gradient estimator is only a heuristic (the true gradient is
    // undefined); with very crude multipliers it can diverge, so keep the
    // best checkpoint — including the starting point — by *static*
    // approximate loss (re-evaluated with frozen weights, not the moving
    // average seen during the epoch) and restore it at the end, as the
    // usual retraining recipes do. Each quantization of the weights
    // serves both the static loss and the next epoch's forward passes.
    let static_loss = |qnet: &QuantizedNetwork| -> f32 {
        let mut total = 0.0;
        for i in 0..data.len() {
            let (x, label) = data.sample(i);
            let probs = softmax(&qnet.forward(&x, multiplier));
            total += xent_loss(&probs, label);
        }
        total / data.len() as f32
    };
    let mut qnet = QuantizedNetwork::from_float(net, &calib);
    let mut best: (f32, Network) = (static_loss(&qnet), net.clone());
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0;
        for &i in &order {
            let (x, label) = data.sample(i);
            // Ỹ: approximate quantized forward.
            let approx_logits = qnet.forward(&x, multiplier);
            let probs = softmax(&approx_logits);
            let loss = xent_loss(&probs, label);
            total += loss;
            let grad = xent_grad_from_probs(&probs, label);
            // Y: accurate forward to fill caches, then backprop the
            // approximate gradient through it. The caches were just
            // filled, so a backward error (impossible here) only skips
            // this one update.
            let _ = net.forward_train(&x);
            if net.backward(&grad).is_ok() {
                net.step(cfg.lr, cfg.momentum);
            }
        }
        qnet = QuantizedNetwork::from_float(net, &calib);
        let end_of_epoch = static_loss(&qnet);
        if end_of_epoch < best.0 {
            best = (end_of_epoch, net.clone());
        }
        losses.push(total / data.len() as f32);
    }
    *net = best.1;
    losses
}

/// Top-1 accuracy of the quantized/approximate path, in percent: the
/// accuracy of [`ConfusionMatrix::evaluate_approx`].
#[must_use]
pub fn accuracy_approx(net: &Network, data: &Dataset, multiplier: ApproxMultiplier) -> f64 {
    ConfusionMatrix::evaluate_approx(net, data, multiplier).accuracy()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_xent_gradient_shape() {
        let logits = Tensor::from_vec(&[3], vec![1.0, 2.0, 0.5]);
        let (loss, grad) = softmax_xent(&logits, 1);
        assert!(loss > 0.0);
        // Gradient sums to zero (probs sum to 1, minus one at the label).
        let s: f32 = grad.data().iter().sum();
        assert!(s.abs() < 1e-6);
        assert!(grad.data()[1] < 0.0, "label gradient is negative");
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(&[2], vec![1000.0, 999.0]);
        let p = softmax(&logits);
        assert!(p[0] > p[1]);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_of_an_empty_dataset_is_zero() {
        let net = crate::models::kws_mini(4, 4, 3, 1);
        assert_eq!(accuracy(&net, &Dataset::from_samples(Vec::new(), 3)), 0.0);
    }

    #[test]
    fn perfect_prediction_has_near_zero_loss() {
        let logits = Tensor::from_vec(&[3], vec![100.0, 0.0, 0.0]);
        let (loss, _) = softmax_xent(&logits, 0);
        assert!(loss < 1e-6);
    }
}
