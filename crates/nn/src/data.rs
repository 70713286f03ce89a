//! Synthetic-but-structured datasets standing in for CIFAR-10 and the
//! Speech Commands dataset (SCD), plus the paper's two augmentations.
//!
//! The substitution (DESIGN.md §3.2): each class has a smooth random
//! prototype pattern; samples are the prototype plus noise and small
//! shifts. This exercises exactly the code paths the paper's study needs
//! — conv stacks, quantized + approximate inference, retraining, and
//! augmentation-vs-no-augmentation comparisons — at laptop scale.
//!
//! Augmentations follow §IV-C-2: "for image classification, we randomly
//! flip the training samples, and for keyword spotting, we add background
//! noise with a volume of 10 % to the initial time series."

use std::cell::Cell;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Tensor;

/// Why an externally supplied sample set was rejected by
/// [`Dataset::try_from_samples`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataError {
    /// The dataset was declared with zero classes.
    NoClasses,
    /// A sample's label is outside `0..classes`.
    LabelOutOfRange {
        /// Index of the offending sample.
        index: usize,
        /// The out-of-range label.
        label: usize,
        /// The declared class count.
        classes: usize,
    },
    /// A sample contains a non-finite value (NaN or ±inf) — the
    /// signature of a truncated or bit-corrupted dump.
    Corrupt {
        /// Index of the offending sample.
        index: usize,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::NoClasses => {
                write!(f, "dataset declared with zero classes; nothing to label")
            }
            DataError::LabelOutOfRange {
                index,
                label,
                classes,
            } => write!(
                f,
                "sample {index} has label {label}, outside the declared \
                 0..{classes} range — wrong class count or corrupt labels"
            ),
            DataError::Corrupt { index } => write!(
                f,
                "sample {index} contains non-finite values — the source \
                 dump is truncated or corrupt"
            ),
        }
    }
}

impl std::error::Error for DataError {}

/// A training-time input perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Augmentation {
    /// Mirror the image horizontally with probability ½.
    HorizontalFlip,
    /// Add a random background-noise pattern scaled to `volume` of the
    /// sample's amplitude.
    BackgroundNoise {
        /// Relative noise amplitude (the paper uses 0.1).
        volume: f32,
    },
}

/// A labelled dataset with optional train-time augmentation.
#[derive(Debug)]
pub struct Dataset {
    samples: Vec<(Tensor, usize)>,
    augment: Option<Augmentation>,
    classes: usize,
    seed: u64,
    draws: Cell<u64>,
}

impl Dataset {
    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Returns sample `i`, applying the augmentation (if any) with fresh
    /// deterministic randomness per call.
    #[must_use]
    pub fn sample(&self, i: usize) -> (Tensor, usize) {
        let (x, label) = &self.samples[i];
        let Some(aug) = self.augment else {
            return (x.clone(), *label);
        };
        let draw = self.draws.get();
        self.draws.set(draw + 1);
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (draw.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ i as u64,
        );
        match aug {
            Augmentation::HorizontalFlip => {
                if rng.gen_bool(0.5) {
                    (flip_horizontal(x), *label)
                } else {
                    (x.clone(), *label)
                }
            }
            Augmentation::BackgroundNoise { volume } => {
                let (_, hi) = x.min_max();
                let amp = hi.abs().max(1e-6) * volume;
                let data = x
                    .data()
                    .iter()
                    .map(|&v| v + rng.gen_range(-amp..amp))
                    .collect();
                (Tensor::from_vec(x.shape(), data), *label)
            }
        }
    }

    /// The activation-range calibration set for quantizing a network
    /// trained on this data: its first 16 samples (all of them if fewer),
    /// drawn through [`Self::sample`], so an augmented set advances its
    /// draw counter.
    pub(crate) fn calibration_set(&self) -> Vec<Tensor> {
        (0..self.len().min(16)).map(|i| self.sample(i).0).collect()
    }

    /// Splits into `(train, test)` by alternating samples (stratified,
    /// since samples are laid out class-block by class-block).
    #[must_use]
    pub fn split_alternating(&self) -> (Self, Self) {
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (i, s) in self.samples.iter().enumerate() {
            if i % 2 == 0 {
                train.push(s.clone());
            } else {
                test.push(s.clone());
            }
        }
        let make = |samples: Vec<(Tensor, usize)>, salt: u64| Self {
            samples,
            augment: self.augment,
            classes: self.classes,
            seed: self.seed ^ salt,
            draws: Cell::new(0),
        };
        (make(train, 0), make(test, 0xA5A5))
    }

    /// Returns this dataset with an augmentation attached.
    #[must_use]
    pub fn with_augmentation(mut self, aug: Augmentation) -> Self {
        self.augment = Some(aug);
        self
    }

    /// Returns this dataset with augmentation removed (evaluation view).
    #[must_use]
    pub fn without_augmentation(&self) -> Self {
        Self {
            samples: self.samples.clone(),
            augment: None,
            classes: self.classes,
            seed: self.seed,
            draws: Cell::new(0),
        }
    }

    /// Wraps externally produced labelled tensors into a dataset (for
    /// pipelines whose features come from a real front end rather than the
    /// synthetic generators).
    ///
    /// # Panics
    ///
    /// Panics with the [`DataError`] message if the samples are rejected
    /// by [`Self::try_from_samples`]. Use that method (or
    /// [`Self::from_samples_or_else`]) to recover instead.
    #[must_use]
    pub fn from_samples(samples: Vec<(Tensor, usize)>, classes: usize) -> Self {
        match Self::try_from_samples(samples, classes) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validating constructor for externally produced samples: rejects a
    /// zero class count, out-of-range labels and non-finite sample values
    /// with an error that says which sample is bad and why.
    ///
    /// # Errors
    ///
    /// Returns the first [`DataError`] encountered scanning the samples
    /// in order.
    pub fn try_from_samples(
        samples: Vec<(Tensor, usize)>,
        classes: usize,
    ) -> Result<Self, DataError> {
        if classes == 0 {
            return Err(DataError::NoClasses);
        }
        for (index, (x, label)) in samples.iter().enumerate() {
            if *label >= classes {
                return Err(DataError::LabelOutOfRange {
                    index,
                    label: *label,
                    classes,
                });
            }
            if x.data().iter().any(|v| !v.is_finite()) {
                return Err(DataError::Corrupt { index });
            }
        }
        Ok(Self {
            samples,
            augment: None,
            classes,
            seed: 0x5A17,
            draws: Cell::new(0),
        })
    }

    /// [`Self::try_from_samples`], degrading to a caller-supplied
    /// fallback (typically one of the synthetic generators) when the
    /// external set is missing or corrupt — the pipeline keeps running on
    /// stand-in data instead of aborting.
    pub fn from_samples_or_else(
        samples: Vec<(Tensor, usize)>,
        classes: usize,
        fallback: impl FnOnce(DataError) -> Self,
    ) -> Self {
        Self::try_from_samples(samples, classes).unwrap_or_else(fallback)
    }

    /// A CIFAR-like synthetic image dataset: `classes` class prototypes of
    /// shape `[3, size, size]`, `per_class` noisy shifted samples each.
    #[must_use]
    pub fn synth_images(classes: usize, per_class: usize, size: usize, seed: u64) -> Self {
        Self::synth_images_noisy(classes, per_class, size, 0.15, seed)
    }

    /// [`Self::synth_images`] with an explicit per-pixel noise amplitude —
    /// higher noise makes the classification task harder (useful for the
    /// Fig. 5 degradation study).
    #[must_use]
    pub fn synth_images_noisy(
        classes: usize,
        per_class: usize,
        size: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<Tensor> = (0..classes)
            .map(|_| smooth_random(&mut rng, &[3, size, size], 4))
            .collect();
        let mut samples = Vec::with_capacity(classes * per_class);
        for (label, proto) in protos.iter().enumerate() {
            for _ in 0..per_class {
                let shifted = shift2d(proto, rng.gen_range(-1..=1), rng.gen_range(-1..=1));
                let data = shifted
                    .data()
                    .iter()
                    .map(|&v| v + rng.gen_range(-noise..noise))
                    .collect();
                samples.push((Tensor::from_vec(proto.shape(), data), label));
            }
        }
        Self {
            samples,
            augment: None,
            classes,
            seed,
            draws: Cell::new(0),
        }
    }

    /// A Speech-Commands-like synthetic dataset: MFCC-style time×frequency
    /// maps of shape `[1, frames, coeffs]` with per-class spectral
    /// trajectories.
    #[must_use]
    pub fn synth_speech(
        classes: usize,
        per_class: usize,
        frames: usize,
        coeffs: usize,
        seed: u64,
    ) -> Self {
        Self::synth_speech_noisy(classes, per_class, frames, coeffs, 0.12, seed)
    }

    /// [`Self::synth_speech`] with an explicit noise amplitude.
    #[must_use]
    pub fn synth_speech_noisy(
        classes: usize,
        per_class: usize,
        frames: usize,
        coeffs: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Each class: a smooth random trajectory through coefficient space.
        let protos: Vec<Tensor> = (0..classes)
            .map(|_| smooth_random(&mut rng, &[1, frames, coeffs], 3))
            .collect();
        let mut samples = Vec::with_capacity(classes * per_class);
        for (label, proto) in protos.iter().enumerate() {
            for _ in 0..per_class {
                let shifted = shift2d(proto, rng.gen_range(-2..=2), 0);
                let data = shifted
                    .data()
                    .iter()
                    .map(|&v| v + rng.gen_range(-noise..noise))
                    .collect();
                samples.push((Tensor::from_vec(proto.shape(), data), label));
            }
        }
        Self {
            samples,
            augment: None,
            classes,
            seed: seed ^ 0x5EEC,
            draws: Cell::new(0),
        }
    }
}

/// Smooth random pattern: coarse random grid, bilinearly upsampled.
fn smooth_random(rng: &mut StdRng, shape: &[usize], grid: usize) -> Tensor {
    let (ch, h, w) = (shape[0], shape[1], shape[2]);
    let coarse: Vec<f32> = (0..ch * (grid + 1) * (grid + 1))
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let mut t = Tensor::zeros(shape);
    for c in 0..ch {
        for y in 0..h {
            for x in 0..w {
                let fy = y as f32 / h as f32 * grid as f32;
                let fx = x as f32 / w as f32 * grid as f32;
                let (gy, gx) = (fy as usize, fx as usize);
                let (dy, dx) = (fy - gy as f32, fx - gx as f32);
                let at = |yy: usize, xx: usize| {
                    coarse[(c * (grid + 1) + yy.min(grid)) * (grid + 1) + xx.min(grid)]
                };
                let v = at(gy, gx) * (1.0 - dy) * (1.0 - dx)
                    + at(gy + 1, gx) * dy * (1.0 - dx)
                    + at(gy, gx + 1) * (1.0 - dy) * dx
                    + at(gy + 1, gx + 1) * dy * dx;
                *t.at3_mut(c, y, x) = v;
            }
        }
    }
    t
}

/// Integer shift with zero fill.
fn shift2d(t: &Tensor, dy: i32, dx: i32) -> Tensor {
    let (ch, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2]);
    let mut out = Tensor::zeros(t.shape());
    for c in 0..ch {
        for y in 0..h {
            for x in 0..w {
                let (sy, sx) = (y as i32 - dy, x as i32 - dx);
                if sy >= 0 && sy < h as i32 && sx >= 0 && sx < w as i32 {
                    *out.at3_mut(c, y, x) = t.at3(c, sy as usize, sx as usize);
                }
            }
        }
    }
    out
}

/// Mirror in the x dimension.
fn flip_horizontal(t: &Tensor) -> Tensor {
    let (ch, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2]);
    let mut out = Tensor::zeros(t.shape());
    for c in 0..ch {
        for y in 0..h {
            for x in 0..w {
                *out.at3_mut(c, y, x) = t.at3(c, y, w - 1 - x);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_have_expected_size_and_labels() {
        let d = Dataset::synth_images(4, 5, 8, 1);
        assert_eq!(d.len(), 20);
        assert_eq!(d.classes(), 4);
        let (x, label) = d.sample(7);
        assert_eq!(x.shape(), &[3, 8, 8]);
        assert!(label < 4);
    }

    #[test]
    fn speech_dataset_shape() {
        let d = Dataset::synth_speech(3, 4, 49, 10, 2);
        assert_eq!(d.len(), 12);
        assert_eq!(d.sample(0).0.shape(), &[1, 49, 10]);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::synth_images(3, 3, 8, 9);
        let b = Dataset::synth_images(3, 3, 8, 9);
        for i in 0..a.len() {
            assert_eq!(a.sample(i).0.data(), b.sample(i).0.data());
        }
    }

    #[test]
    fn flip_augmentation_mirrors_sometimes() {
        let d = Dataset::synth_images(2, 2, 8, 3).with_augmentation(Augmentation::HorizontalFlip);
        let base = d.without_augmentation();
        let mut saw_flip = false;
        let mut saw_identity = false;
        for _ in 0..32 {
            let (x, _) = d.sample(0);
            let (orig, _) = base.sample(0);
            if x.data() == orig.data() {
                saw_identity = true;
            } else {
                assert_eq!(x.data(), flip_horizontal(&orig).data(), "flip or nothing");
                saw_flip = true;
            }
        }
        assert!(saw_flip && saw_identity, "both branches exercised");
    }

    #[test]
    fn noise_augmentation_is_bounded() {
        let d = Dataset::synth_speech(2, 2, 16, 8, 4)
            .with_augmentation(Augmentation::BackgroundNoise { volume: 0.1 });
        let base = d.without_augmentation();
        let (x, _) = d.sample(1);
        let (orig, _) = base.sample(1);
        let (_, hi) = orig.min_max();
        for (a, b) in x.data().iter().zip(orig.data()) {
            assert!((a - b).abs() <= 0.1 * hi.abs().max(1e-6) + 1e-6);
        }
    }

    #[test]
    fn classes_are_separable_by_a_linear_probe() {
        // Nearest-prototype classification must beat chance by a wide
        // margin — otherwise the datasets can't support the Fig. 5 study.
        // Seed chosen to give a wide margin under the vendored RNG stream
        // (accuracy varies by seed; most seeds sit near 75%).
        let d = Dataset::synth_images(4, 10, 8, 11);
        // Use sample 0 of each class as the "prototype".
        let protos: Vec<(Tensor, usize)> = (0..4).map(|c| d.sample(c * 10)).collect();
        let mut correct = 0;
        for i in 0..d.len() {
            let (x, label) = d.sample(i);
            // No prototypes means the probe cannot classify; count the
            // sample as a miss and let the margin assert below report it.
            let Some(best) = protos
                .iter()
                .min_by(|a, b| dist(&a.0, &x).total_cmp(&dist(&b.0, &x)))
            else {
                continue;
            };
            if best.1 == label {
                correct += 1;
            }
        }
        assert!(correct * 100 / d.len() >= 65, "separable: {correct}/40");
    }

    fn dist(a: &Tensor, b: &Tensor) -> f32 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y) * (x - y))
            .sum()
    }

    #[test]
    fn try_from_samples_rejects_bad_inputs_with_clear_messages() {
        let t = || Tensor::from_vec(&[1, 2, 2], vec![0.0; 4]);
        let err = Dataset::try_from_samples(vec![(t(), 0)], 0).expect_err("no classes");
        assert_eq!(err, DataError::NoClasses);
        let err = Dataset::try_from_samples(vec![(t(), 0), (t(), 7)], 3).expect_err("label");
        assert_eq!(
            err,
            DataError::LabelOutOfRange {
                index: 1,
                label: 7,
                classes: 3
            }
        );
        assert!(err.to_string().contains("label 7"), "message: {err}");
        let bad = Tensor::from_vec(&[1, 1, 2], vec![1.0, f32::NAN]);
        let err = Dataset::try_from_samples(vec![(t(), 0), (bad, 1)], 3).expect_err("nan");
        assert_eq!(err, DataError::Corrupt { index: 1 });
        assert!(err.to_string().contains("corrupt"), "message: {err}");
        // Valid samples still come through.
        let d = Dataset::try_from_samples(vec![(t(), 0), (t(), 2)], 3).expect("valid");
        assert_eq!(d.len(), 2);
        assert_eq!(d.classes(), 3);
    }

    #[test]
    fn corrupt_external_set_degrades_to_synthetic_fallback() {
        let bad = Tensor::from_vec(&[1, 1, 2], vec![f32::INFINITY, 0.0]);
        let d = Dataset::from_samples_or_else(vec![(bad, 0)], 2, |e| {
            assert_eq!(e, DataError::Corrupt { index: 0 });
            Dataset::synth_images(2, 3, 8, 1)
        });
        assert_eq!(d.len(), 6, "pipeline keeps running on the stand-in");
        assert_eq!(d.classes(), 2);
    }
}
