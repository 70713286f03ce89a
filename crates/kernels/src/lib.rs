//! Table-driven 8-bit arithmetic kernels and std-thread parallel tensor
//! primitives.
//!
//! Every 8-bit number format in this workspace (posit⟨8,0⟩, FP8 E4M3,
//! FP8 E5M2, Q4.4 fixed point) has at most 256 values, so any binary
//! operation, together with the status events of every input pair, fits
//! in one 128 KiB exhaustive table (`code | events << 8`). This crate
//! builds those tables lazily from the bit-exact scalar implementations in
//! `nga-core`/`nga-softfloat`/`nga-fixed` and layers batched tensor
//! kernels (dot, matmul, and an implicit-GEMM f32 convolution that packs
//! 8-pixel panels of the im2col matrix instead of building it) on top,
//! with optional `std::thread::scope` band parallelism — no external
//! dependencies.
//!
//! Two interchangeable [`KernelTier`] variants let benchmarks A/B the
//! tiers, both running the same 8-bit row worker:
//!
//! * [`KernelTier::Scalar`] — decode/compute/encode every element through
//!   the reference scalar ops, serially.
//! * [`KernelTier::Parallel`] — one fused value+event table lookup per
//!   multiply/add, in scoped-thread row bands when the output is large
//!   enough to pay for them ([`for_each_band`]).
//!
//! The quantized-inference path gets the same treatment via
//! [`MacTable`]: a 128 KiB product-magnitude table per
//! [`nga_approx::ApproxMultiplier`], replacing an abs-widen-multiply per
//! MAC with one indexed load.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// Declares a field-less enum and its `ALL` array from one variant list,
/// so `ALL` names every variant, in declaration order. Variants take
/// their discriminants in that order too (`v as usize` is `v`'s index in
/// `ALL`). Doc comments and attributes go inside the invocation.
macro_rules! enum_with_all {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident,)+
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [Self; [$($name::$variant),+].len()] = [$(Self::$variant),+];
        }
    };
}

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
pub use parallel::{for_each_band, num_threads};
pub use status::{Event8, StatusCounters};
pub use table::{add_table, mac_table, mul_table, BinaryTable, LutOp, MacTable, StatusOp};
pub use tensor::{
    conv2d_f32, dot_f32, im2col, matmul8_parallel, matmul8_scalar, matmul_f32, matmul_f32_parallel,
};
