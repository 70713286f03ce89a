//! Evaluation metrics beyond top-1 accuracy: confusion matrices and
//! per-class statistics, so the Fig. 5-style studies can report *where*
//! approximation errors land (misclassifications concentrate in confusable
//! class pairs long before top-1 accuracy moves).

use std::fmt;

use crate::data::Dataset;
use crate::layers::Network;
use crate::quant::QuantizedNetwork;
use crate::tensor::Tensor;
use nga_approx::ApproxMultiplier;

/// A confusion matrix: `counts[actual][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<u64>>,
}

impl ConfusionMatrix {
    /// An empty matrix for `classes` classes.
    #[must_use]
    pub fn new(classes: usize) -> Self {
        Self {
            counts: vec![vec![0; classes]; classes],
        }
    }

    /// Records one prediction.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        self.counts[actual][predicted] += 1;
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.counts.len()
    }

    /// Count at `(actual, predicted)`.
    #[must_use]
    pub fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual][predicted]
    }

    /// Total samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Top-1 accuracy in percent.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..self.classes()).map(|c| self.counts[c][c]).sum();
        100.0 * correct as f64 / self.total().max(1) as f64
    }

    /// Recall of one class in percent (diagonal over row sum).
    #[must_use]
    pub fn recall(&self, class: usize) -> f64 {
        let row: u64 = self.counts[class].iter().sum();
        100.0 * self.counts[class][class] as f64 / row.max(1) as f64
    }

    /// Precision of one class in percent (diagonal over column sum).
    #[must_use]
    pub fn precision(&self, class: usize) -> f64 {
        let col: u64 = (0..self.classes()).map(|a| self.counts[a][class]).sum();
        100.0 * self.counts[class][class] as f64 / col.max(1) as f64
    }

    /// The most-confused off-diagonal pair `(actual, predicted, count)`.
    #[must_use]
    pub fn worst_confusion(&self) -> Option<(usize, usize, u64)> {
        let mut best = None;
        for a in 0..self.classes() {
            for p in 0..self.classes() {
                if a != p
                    && self.counts[a][p] > 0
                    && best.is_none_or(|(_, _, c)| self.counts[a][p] > c)
                {
                    best = Some((a, p, self.counts[a][p]));
                }
            }
        }
        best
    }

    /// Evaluates a float network over a dataset.
    #[must_use]
    pub fn evaluate(net: &Network, data: &Dataset) -> Self {
        Self::evaluate_with(data, |x| net.forward(x).argmax())
    }

    /// Evaluates the quantized/approximate path over a dataset.
    #[must_use]
    pub fn evaluate_approx(net: &Network, data: &Dataset, multiplier: ApproxMultiplier) -> Self {
        let qnet = QuantizedNetwork::from_float(net, &data.calibration_set());
        Self::evaluate_with(data, |x| qnet.forward(x, multiplier).argmax())
    }

    /// Records `predict` of every sample against its label. A network with
    /// more outputs than the dataset has classes can predict past the last
    /// class; the matrix widens to hold that miss instead of panicking.
    fn evaluate_with(data: &Dataset, mut predict: impl FnMut(&Tensor) -> usize) -> Self {
        let mut m = Self::new(data.classes());
        for i in 0..data.len() {
            let (x, label) = data.sample(i);
            let predicted = predict(&x);
            if predicted >= m.classes() {
                for row in &mut m.counts {
                    row.resize(predicted + 1, 0);
                }
                m.counts.resize(predicted + 1, vec![0; predicted + 1]);
            }
            m.record(label, predicted);
        }
        m
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "confusion ({} classes, acc {:.1} %):",
            self.classes(),
            self.accuracy()
        )?;
        for row in &self.counts {
            write!(f, " ")?;
            for &c in row {
                write!(f, " {c:>4}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_rates() {
        let mut m = ConfusionMatrix::new(3);
        // Class 0: 2 right, 1 confused as 2.
        m.record(0, 0);
        m.record(0, 0);
        m.record(0, 2);
        // Class 1: all right.
        m.record(1, 1);
        m.record(1, 1);
        // Class 2: 1 right, 1 as 0.
        m.record(2, 2);
        m.record(2, 0);
        assert_eq!(m.total(), 7);
        assert!((m.accuracy() - 100.0 * 5.0 / 7.0).abs() < 1e-9);
        assert!((m.recall(0) - 100.0 * 2.0 / 3.0).abs() < 1e-9);
        assert!((m.precision(0) - 100.0 * 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.worst_confusion(), Some((0, 2, 1)));
    }

    #[test]
    fn evaluate_agrees_with_accuracy_helper() {
        use crate::data::Dataset;
        use crate::models::kws_mini;
        use crate::train::{accuracy, train_float, TrainConfig};
        let data = Dataset::synth_speech(3, 8, 16, 8, 41);
        let mut net = kws_mini(16, 8, 3, 2);
        let cfg = TrainConfig {
            lr: 0.02,
            momentum: 0.9,
            epochs: 10,
            seed: 3,
        };
        train_float(&mut net, &data, &cfg);
        let m = ConfusionMatrix::evaluate(&net, &data);
        assert!((m.accuracy() - accuracy(&net, &data)).abs() < 1e-9);
        assert_eq!(m.total() as usize, data.len());
    }

    /// A network with more outputs than the dataset has classes: its
    /// predictions past the last class count as misses.
    #[test]
    fn predictions_past_the_last_class_are_misses() {
        use crate::data::Dataset;
        use crate::models::kws_mini;
        use crate::train::accuracy;
        let data = Dataset::synth_speech(3, 4, 8, 8, 1);
        let net = kws_mini(8, 8, 4, 9);
        let predictions: Vec<(usize, usize)> = (0..data.len())
            .map(|i| {
                let (x, label) = data.sample(i);
                (label, net.forward(&x).argmax())
            })
            .collect();
        assert!(
            predictions.iter().any(|&(_, p)| p >= 3),
            "some prediction is class 3"
        );
        let correct = predictions.iter().filter(|(l, p)| l == p).count();
        let m = ConfusionMatrix::evaluate(&net, &data);
        assert_eq!(m.total() as usize, data.len());
        assert_eq!(m.accuracy(), 100.0 * correct as f64 / data.len() as f64);
        assert_eq!(accuracy(&net, &data), m.accuracy());
    }

    #[test]
    fn approx_path_confusion_is_comparable() {
        use crate::data::Dataset;
        use crate::models::kws_mini;
        use crate::train::{train_float, TrainConfig};
        let data = Dataset::synth_speech(3, 8, 16, 8, 43);
        let mut net = kws_mini(16, 8, 3, 2);
        let cfg = TrainConfig {
            lr: 0.02,
            momentum: 0.9,
            epochs: 12,
            seed: 3,
        };
        train_float(&mut net, &data, &cfg);
        let exact = ConfusionMatrix::evaluate_approx(&net, &data, ApproxMultiplier::Exact);
        let rough = ConfusionMatrix::evaluate_approx(&net, &data, ApproxMultiplier::Drum3);
        assert!(exact.accuracy() >= rough.accuracy() - 25.0);
        assert_eq!(exact.total(), rough.total());
    }
}
