//! Workload construction and format-faithful (fault-injectable) DNN
//! evaluation.
//!
//! This module is a declared host-float boundary (nga-lint's
//! `ALLOWLIST`): the DNN substrate computes in f32, and the degradation
//! metrics are *about* the formats, not part of their arithmetic.
//! Everything is seeded — training, data and evaluation are
//! bit-reproducible run to run.

use nga_nn::layers::{Layer, Network};
use nga_nn::models::{kws_mini, resnet_mini};
use nga_nn::robust::nan_fraction;
use nga_nn::train::{train_float, TrainConfig};
use nga_nn::{data::Dataset, Tensor};

use crate::codec::FormatKind;
use crate::inject::Injector;

/// A trained model plus its materialised evaluation set.
pub struct Workload {
    /// Stable name used in task rows ("kws_mini", "resnet_mini").
    pub name: &'static str,
    /// The trained float network.
    pub net: Network,
    /// Evaluation samples (pre-drawn: `Dataset` is not `Sync`).
    pub samples: Vec<(Tensor, usize)>,
}

/// Builds and trains the sweep's workloads. `quick` keeps only the small
/// keyword-spotting model so the CI gate stays fast.
#[must_use]
pub fn workloads(quick: bool) -> Vec<Workload> {
    let mut out = Vec::new();
    {
        let data = Dataset::synth_speech(4, 10, 16, 8, 7);
        let mut net = kws_mini(16, 8, 4, 2);
        let cfg = TrainConfig {
            lr: 0.01,
            momentum: 0.9,
            epochs: 10,
            seed: 3,
        };
        train_float(&mut net, &data, &cfg);
        out.push(Workload {
            name: "kws_mini",
            net,
            samples: (0..data.len()).map(|i| data.sample(i)).collect(),
        });
    }
    if !quick {
        let data = Dataset::synth_images(4, 10, 8, 11);
        let mut net = resnet_mini(6, 4, 5);
        // The residual stack has no batch norm and wants a gentle
        // warm-up before fine-tuning (same schedule shape as fig5).
        let warm = TrainConfig {
            lr: 0.005,
            momentum: 0.9,
            epochs: 15,
            seed: 13,
        };
        train_float(&mut net, &data, &warm);
        let cfg = TrainConfig {
            lr: 0.0015,
            momentum: 0.9,
            epochs: 10,
            seed: 14,
        };
        train_float(&mut net, &data, &cfg);
        out.push(Workload {
            name: "resnet_mini",
            net,
            samples: (0..data.len()).map(|i| data.sample(i)).collect(),
        });
    }
    out
}

fn roundtrip_tensor(t: &Tensor, fmt: FormatKind, faults: Option<(&mut Injector, u32)>) -> Tensor {
    let bits = fmt.bits();
    let mut codes: Vec<u16> = t.data().iter().map(|&v| fmt.encode(v)).collect();
    if let Some((inj, rate_ppm)) = faults {
        for c in &mut codes {
            *c = inj.corrupt_code(*c, bits, rate_ppm);
        }
    }
    let data = codes.into_iter().map(|c| fmt.decode(c)).collect();
    Tensor::from_vec(t.shape(), data)
}

fn visit_params(layer: &mut Layer, f: &mut impl FnMut(&mut Tensor)) {
    match layer {
        Layer::Conv2d(c) => {
            f(&mut c.weights);
            f(&mut c.bias);
        }
        Layer::DwConv2d(c) => {
            f(&mut c.weights);
            f(&mut c.bias);
        }
        Layer::Dense(d) => {
            f(&mut d.weights);
            f(&mut d.bias);
        }
        Layer::Residual(r) => {
            for l in r.main.iter_mut().chain(r.shortcut.iter_mut()) {
                visit_params(l, f);
            }
        }
        _ => {}
    }
}

/// Clones `net` with every parameter round-tripped through `fmt`; when
/// `faults` is given, each stored parameter bit flips at the given rate
/// before decoding (the "weights" fault target).
#[must_use]
pub fn quantize_weights(
    net: &Network,
    fmt: FormatKind,
    mut faults: Option<(&mut Injector, u32)>,
) -> Network {
    let mut q = net.clone();
    for l in &mut q.layers {
        visit_params(l, &mut |t| {
            let faults = faults.as_mut().map(|(inj, rate)| (&mut **inj, *rate));
            *t = roundtrip_tensor(t, fmt, faults);
        });
    }
    q
}

/// Format-faithful forward pass: the input and every top-level layer
/// output are round-tripped through `fmt` (activation storage in the
/// format), with optional bit upsets on the stored activations (the
/// "activations" fault target).
#[must_use]
pub fn forward_codec(
    net: &Network,
    x: &Tensor,
    fmt: FormatKind,
    mut faults: Option<(&mut Injector, u32)>,
) -> Tensor {
    let mut t = {
        let f = faults.as_mut().map(|(inj, rate)| (&mut **inj, *rate));
        roundtrip_tensor(x, fmt, f)
    };
    for l in &net.layers {
        let y = l.forward(&t);
        let f = faults.as_mut().map(|(inj, rate)| (&mut **inj, *rate));
        t = roundtrip_tensor(&y, fmt, f);
    }
    t
}

/// Index of the maximum non-NaN logit; `None` when every lane is
/// poisoned (counted as a miss).
#[must_use]
pub fn argmax_skip_nan(logits: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in logits.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        if best.is_none_or(|(_, b)| v > b) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

/// Degradation metrics for one evaluation pass, in the report's integer
/// units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Top-1 accuracy in milli-percent (100 % = 100 000).
    pub acc_mpct: u64,
    /// Fraction of poisoned (NaN) logit lanes, in ppm.
    pub nan_ppm: u64,
    /// Mean relative logit error vs the fault-free baseline, in ppm
    /// (per-lane error capped at 10, NaN lanes excluded).
    pub mre_ppm: u64,
}

/// Runs `net` over `samples` under `fmt` and summarises degradation
/// against `baseline` logits (pass the same run as its own baseline to
/// get a zero-error reference row).
#[must_use]
pub fn evaluate(
    net: &Network,
    fmt: FormatKind,
    samples: &[(Tensor, usize)],
    baseline: Option<&[Vec<f32>]>,
    mut faults: Option<(&mut Injector, u32)>,
) -> (ModelStats, Vec<Vec<f32>>) {
    let mut logits_all = Vec::with_capacity(samples.len());
    let mut correct = 0u64;
    let mut nan_sum = 0.0f64;
    let mut err_sum = 0.0f64;
    let mut err_lanes = 0u64;
    for (si, (x, label)) in samples.iter().enumerate() {
        let f = faults.as_mut().map(|(inj, rate)| (&mut **inj, *rate));
        let y = forward_codec(net, x, fmt, f);
        let logits = y.data().to_vec();
        nan_sum += nan_fraction(&logits);
        if argmax_skip_nan(&logits) == Some(*label) {
            correct += 1;
        }
        if let Some(base) = baseline {
            for (&got, &want) in logits.iter().zip(&base[si]) {
                if got.is_nan() || want.is_nan() {
                    continue;
                }
                let rel = (f64::from(got) - f64::from(want)).abs()
                    / f64::from(want).abs().max(1e-6);
                err_sum += rel.min(10.0);
                err_lanes += 1;
            }
        }
        logits_all.push(logits);
    }
    let n = samples.len().max(1) as f64;
    let stats = ModelStats {
        acc_mpct: (correct as f64 / n * 100_000.0).round() as u64,
        nan_ppm: (nan_sum / n * 1_000_000.0).round() as u64,
        mre_ppm: if err_lanes == 0 {
            0
        } else {
            (err_sum / err_lanes as f64 * 1_000_000.0).round() as u64
        },
    };
    (stats, logits_all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_skips_poisoned_lanes() {
        assert_eq!(argmax_skip_nan(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax_skip_nan(&[1.0, f32::NAN, 2.0]), Some(2));
        assert_eq!(argmax_skip_nan(&[f32::NAN, f32::NAN]), None);
        assert_eq!(argmax_skip_nan(&[]), None);
    }

    #[test]
    fn fault_free_evaluation_is_reproducible_and_sane() {
        let w = &workloads(true)[0];
        let q = quantize_weights(&w.net, FormatKind::Posit16, None);
        let (a, logits_a) = evaluate(&q, FormatKind::Posit16, &w.samples, None, None);
        let (b, logits_b) = evaluate(&q, FormatKind::Posit16, &w.samples, None, None);
        assert_eq!(a, b);
        assert_eq!(logits_a, logits_b);
        assert_eq!(a.nan_ppm, 0, "no faults, no poisoning");
        assert!(a.acc_mpct >= 50_000, "posit16 keeps the model useful: {a:?}");
    }

    #[test]
    fn weight_faults_at_full_rate_destroy_accuracy_information() {
        let w = &workloads(true)[0];
        let clean = quantize_weights(&w.net, FormatKind::Posit8, None);
        let (base, base_logits) =
            evaluate(&clean, FormatKind::Posit8, &w.samples, None, None);
        let mut inj = Injector::new(1, 0);
        let noisy = quantize_weights(&w.net, FormatKind::Posit8, Some((&mut inj, 250_000)));
        assert!(inj.flips() > 0, "25 % per-bit rate must flip something");
        let (hit, _) = evaluate(
            &noisy,
            FormatKind::Posit8,
            &w.samples,
            Some(&base_logits),
            None,
        );
        assert!(hit.mre_ppm > 0, "quarter of all weight bits flipped");
        let _ = base;
    }
}
