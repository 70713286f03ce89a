//! Table-driven 8-bit arithmetic kernels and std-thread parallel tensor
//! primitives.
//!
//! Every 8-bit number format in this workspace (posit⟨8,0⟩, FP8 E4M3,
//! FP8 E5M2, Q4.4 fixed point) has at most 256 values, so any binary
//! operation fits in a 64 KiB exhaustive table. This crate builds those
//! tables lazily from the bit-exact scalar implementations in
//! `nga-core`/`nga-softfloat`/`nga-fixed` and layers batched tensor
//! kernels (dot, matmul, im2col convolution) on top, with optional
//! `std::thread::scope` row parallelism — no external dependencies.
//!
//! Three interchangeable [`KernelTier`] variants let benchmarks A/B the
//! tiers, all running the same 8-bit row worker:
//!
//! * [`KernelTier::Scalar`] — decode/compute/encode every element through
//!   the reference scalar ops.
//! * [`KernelTier::Table`] — one 64 KiB lookup per multiply/add.
//! * [`KernelTier::Parallel`] — lookup tables plus scoped-thread row bands.
//!
//! The quantized-inference path gets the same treatment via
//! [`MacTable`]: a 128 KiB product-magnitude table per
//! [`nga_approx::ApproxMultiplier`], replacing an abs-widen-multiply per
//! MAC with one indexed load.

#![forbid(unsafe_code)]

mod ctx;
mod format8;
mod kernel;
mod parallel;
mod status;
mod table;
mod tensor;

pub use ctx::ArithCtx;
pub use format8::Format8;
pub use kernel::KernelTier;
pub use parallel::{for_each_band, num_threads, split_bands};
pub use status::{Event8, StatusCounters};
pub use table::{
    add_event_table, add_table, mac_table, mul_event_table, mul_table, BinaryTable, LutOp,
    MacTable, StatusOp,
};
pub use tensor::{
    conv2d_f32, dot_f32, im2col, matmul8, matmul8_parallel, matmul8_scalar, matmul8_tables,
    matmul_f32, matmul_f32_parallel,
};
