//! `resnet20_f32`: the full-scale ResNet20 of Table I (40.8 M MACs), one
//! f32 image per item.
//!
//! Bound by `conv2d_f32`/im2col with row-banded threads; per-layer glue is
//! a small share. An overhead optimisation should not move this workload;
//! f32 kernel work should.

use nga_approx::ApproxMultiplier;
use nga_nn::data::Dataset;
use nga_nn::models::{resnet, resnet20};
use nga_nn::Tensor;

use crate::model::{layer_metrics, Model};
use crate::trace::Tracer;
use crate::{Metrics, Size, Workload};

/// Images, used round-robin.
const INPUTS: usize = 4;
/// Int8 inferences timed at the end of a traced run (each ~80 ms).
const INT8_CALLS: usize = 4;

/// The workload state.
#[derive(Debug)]
pub struct Resnet20 {
    model: Model,
}

impl Resnet20 {
    /// Builds ResNet20 from `seed` and computes the reference logits.
    #[must_use]
    pub fn setup(seed: u64, size: Size) -> Self {
        let (net, img) = match size {
            Size::Full => (resnet20(10, seed), 32),
            Size::Tiny => (resnet(1, 4, 10, seed), 8),
        };
        let images = Dataset::synth_images_noisy(INPUTS, 1, img, 0.15, seed);
        let inputs: Vec<Tensor> = (0..images.len()).map(|i| images.sample(i).0).collect();
        Self {
            model: Model::new("resnet20", net, inputs, None),
        }
    }
}

impl Workload for Resnet20 {
    type Out = Tensor;

    fn run(&mut self, i: u64) -> Tensor {
        let md = &self.model;
        md.net.forward(&md.inputs[md.slot(i)])
    }

    fn check(&self, i: u64, out: &Tensor) -> bool {
        self.model.check_f32(i, out)
    }

    fn traced(&mut self, i: u64, tr: &mut Tracer) -> Tensor {
        self.model.traced_f32(i, tr)
    }

    fn probe(&mut self, i: u64, tr: &mut Tracer) -> bool {
        self.model.probe(i, tr)
    }

    fn per_layer(&mut self, tr: &Tracer, items: u64) -> (Metrics, bool) {
        // The int8 row of the model x arithmetic table: a few ProxSim
        // inferences with the exact multiplier, after the traced items.
        let md = Model::new(
            "resnet20",
            self.model.net.clone(),
            self.model.inputs.clone(),
            Some((2, ApproxMultiplier::Exact)),
        );
        let mut tr8 = Tracer::new();
        let mut ok = true;
        for i in 0..INT8_CALLS as u64 {
            let y = md.traced_int8(i, ApproxMultiplier::Exact, &mut tr8);
            ok &= md.check_int8(i, &y);
        }
        let mut m = layer_metrics(tr, std::slice::from_ref(&self.model), items, false);
        let int8 = layer_metrics(&tr8, std::slice::from_ref(&md), 1, false);
        for (name, v) in int8 {
            if name.starts_with("infer.resnet20.int8") {
                m.retain(|(n, _)| *n != name);
                m.push((name, v));
            }
        }
        (m, ok)
    }
}
