//! `edge_infer`: single-sample inference of the two Fig. 5-scale minis,
//! each in f32 and in int8 ProxSim with one approximate multiplier.
//!
//! The kernels see under 16 384 outputs per call, so the time goes to
//! per-layer glue (tensor allocation, clones, ReLU, im2col, obs spans) and
//! to the quantized loops.

use std::time::Instant;

use nga_approx::ApproxMultiplier;
use nga_kernels::MacTable;
use nga_nn::data::Dataset;
use nga_nn::models::{kws_mini, resnet_mini};
use nga_nn::quant::QuantizedNetwork;
use nga_nn::Tensor;

use crate::model::{layer_metrics, Model};
use crate::trace::Tracer;
use crate::{median, Metrics, Size, Workload};

/// The multiplier of the int8 path: Mitchell's logarithmic multiplier,
/// mid-ladder.
const MULT: ApproxMultiplier = ApproxMultiplier::Mitchell;
/// Inputs per model, used round-robin.
const INPUTS: usize = 16;
/// Calibration inputs for `QuantizedNetwork::from_float`.
const CALIB: usize = 8;

/// The workload state.
#[derive(Debug)]
pub struct EdgeInfer {
    models: Vec<Model>,
}

impl EdgeInfer {
    /// Builds both models from `seed`, quantizes them and computes the
    /// reference outputs.
    #[must_use]
    pub fn setup(seed: u64, size: Size) -> Self {
        let (frames, coeffs, img, width) = match size {
            Size::Full => (24, 10, 12, 6),
            Size::Tiny => (8, 4, 8, 2),
        };
        let speech = Dataset::synth_speech_noisy(INPUTS, 1, frames, coeffs, 0.7, seed);
        let images = Dataset::synth_images_noisy(INPUTS, 1, img, 0.55, seed ^ 0x1A6E);
        let inputs = |d: &Dataset| -> Vec<Tensor> { (0..d.len()).map(|i| d.sample(i).0).collect() };
        let models = vec![
            Model::new(
                "kws_mini",
                kws_mini(frames, coeffs, 16, seed),
                inputs(&speech),
                Some((CALIB, MULT)),
            ),
            Model::new(
                "resnet_mini",
                resnet_mini(width, 10, seed),
                inputs(&images),
                Some((CALIB, MULT)),
            ),
        ];
        Self { models }
    }
}

/// Outputs of one item: per model, the f32 and the int8 logits.
pub type Out = Vec<(Tensor, Tensor)>;

impl Workload for EdgeInfer {
    type Out = Out;

    fn run(&mut self, i: u64) -> Out {
        self.models
            .iter()
            .map(|md| {
                let x = &md.inputs[md.slot(i)];
                let q = md.qnet.as_ref().expect("quantized at set-up");
                (md.net.forward(x), q.forward(x, MULT))
            })
            .collect()
    }

    fn check(&self, i: u64, out: &Out) -> bool {
        out.len() == self.models.len()
            && self
                .models
                .iter()
                .zip(out)
                .all(|(md, (y, q))| md.check_f32(i, y) && md.check_int8(i, q))
    }

    fn traced(&mut self, i: u64, tr: &mut Tracer) -> Out {
        self.models
            .iter()
            .map(|md| (md.traced_f32(i, tr), md.traced_int8(i, MULT, tr)))
            .collect()
    }

    fn probe(&mut self, i: u64, tr: &mut Tracer) -> bool {
        self.models
            .iter_mut()
            .fold(true, |ok, md| md.probe(i, tr) & ok)
    }

    fn per_layer(&mut self, tr: &Tracer, items: u64) -> (Metrics, bool) {
        let mut m = layer_metrics(tr, &self.models, items, true);
        // Set-up costs, timed here because set-up itself runs untraced.
        let from_float_us = median(
            (0..16)
                .map(|_| {
                    let t = Instant::now();
                    for md in &self.models {
                        let q = QuantizedNetwork::from_float(&md.net, &md.inputs[..CALIB]);
                        std::hint::black_box(q);
                    }
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect(),
        );
        m.push(("nn.quant.from_float_us".into(), from_float_us));
        m.push((
            "kernels.mac_table_build_ms".into(),
            mac_table_build_ms(MULT),
        ));
        (m, true)
    }
}

/// Median wall time of `MacTable::build` (what `mac_table` pays on first
/// use), in milliseconds.
#[must_use]
pub fn mac_table_build_ms(m: ApproxMultiplier) -> f64 {
    median(
        (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(MacTable::build(m));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}
