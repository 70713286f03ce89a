//! # nga-nn — a minimal DNN substrate for approximate-arithmetic studies
//!
//! The §IV evaluation of *Next Generation Arithmetic for Edge Computing*
//! (DATE 2020) retrains quantized DNNs whose multiplications are replaced
//! by behavioural models of approximate multipliers (the ProxSim flow).
//! This crate is that substrate, built from scratch:
//!
//! - dense tensors and the layers the paper's models need ([`layers`]:
//!   conv2d, fully-connected, ReLU, pooling, residual blocks),
//! - SGD-with-momentum training with softmax/cross-entropy loss
//!   ([`train`], eq. (1)–(2) of the paper),
//! - 8-bit linear quantization of weights, biases and activations
//!   ([`quant`]),
//! - behavioural injection of any [`nga_approx::ApproxMultiplier`] into
//!   the quantized conv/fc kernels ([`quant::QuantizedNetwork`]),
//! - **approximate retraining** with the paper's gradient estimator —
//!   the loss is evaluated through the *approximate* forward pass while
//!   gradients flow through the *accurate* counterpart, "necessary as the
//!   gradient of the approximate function is undefined" ([`train`]),
//! - synthetic-but-structured datasets standing in for CIFAR-10 and the
//!   Speech Commands dataset ([`data`], substitution documented in
//!   DESIGN.md §3.2), with the paper's two augmentations (random flip;
//!   10 % background noise),
//! - the paper's model zoo at full scale for Table I parameter/MAC
//!   accounting, plus width-reduced trainable variants ([`models`]),
//! - graceful degradation under injected faults ([`robust`]): verified
//!   lookup-table matmul that falls back to the scalar tier on checksum
//!   mismatch, NaN-aware pooling/dense reductions in [`layers`], and the
//!   poisoning metric used by the `nga-faults` harness.

#![warn(missing_docs)]

pub mod data;
pub mod layers;
pub mod metrics;
pub mod models;
pub mod quant;
pub mod robust;
pub mod train;

mod tensor;

pub use tensor::Tensor;
