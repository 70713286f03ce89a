//! nga-faults — deterministic fault-injection harness for the NGA
//! workspace.
//!
//! Flips bits in stored operands, lookup tables, NN weights and
//! activations at configurable per-bit rates, and measures how each
//! number format degrades: top-1 accuracy drop, NaR/NaN poisoning rate
//! and mean relative error. Everything is seeded through a vendored
//! SplitMix64 — no host entropy, no timestamps — so the emitted
//! `FAULTS_REPORT*.json` is byte-reproducible, which `scripts/check.sh`
//! enforces.
//!
//! Modules:
//! - [`rng`]: vendored SplitMix64 (integer-only, streamable).
//! - [`codec`]: the formats under study and their f32 ⇄ code bridges.
//! - [`inject`]: the per-bit upset injector for codes and 128 KiB LUTs.
//! - [`model`]: seeded DNN workloads and format-faithful evaluation.
//! - [`sweep`]: the deterministic task list and thread-sharded runner.
//! - [`report`]: integer-unit rows and deterministic JSON.

#![warn(missing_docs)]

pub mod codec;
pub mod inject;
pub mod model;
pub mod report;
pub mod rng;
pub mod sweep;
