//! # nga-softfloat — parametric software IEEE 754 floating point
//!
//! A from-scratch, pure-integer implementation of IEEE 754-2008 binary
//! floating point, parameterized over exponent and fraction widths, as used
//! in the hardware-comparison study of *Next Generation Arithmetic for Edge
//! Computing* (DATE 2020, §V) and in the FPGA precision menagerie of §III
//! (binary16, bfloat16, and Intel's FP19 `{1,8,10}` DSP-block format).
//!
//! Everything is computed by bit manipulation on integers — the host FPU is
//! never on the value path, so this crate faithfully models *hardware*
//! behaviour including:
//!
//! - subnormals, signed zeros, infinities and NaNs,
//! - round-to-nearest-even at every operation,
//! - the five IEEE exception flags ([`Flags`]),
//! - a **normals-only mode** ([`SubnormalMode::FlushToZero`]) modelling the
//!   SIMD flags processors use to avoid the "trap to software" regions of the
//!   paper's Fig. 6,
//! - the full set of 22 IEEE 754-2008 §5.11 comparison predicates
//!   ([`ComparisonPredicate`]), whose sheer count is the paper's argument for
//!   the cost of float comparison hardware.
//!
//! ```
//! use nga_softfloat::{FloatFormat, SoftFloat};
//!
//! let f16 = FloatFormat::BINARY16;
//! let a = SoftFloat::from_f64(1.5, f16);
//! let b = SoftFloat::from_f64(2.25, f16);
//! let prod = a.mul(b);
//! assert_eq!(prod.to_f64(), 3.375);
//!
//! // bfloat16 trades fraction bits for dynamic range:
//! let bf = FloatFormat::BFLOAT16;
//! assert!(SoftFloat::from_f64(1.0e38, bf).is_finite());
//! assert!(!SoftFloat::from_f64(1.0e38, f16).is_finite()); // overflows to inf
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
#![warn(missing_docs)]

mod analysis;
mod arith;
mod compare;
mod flags;
mod format;
mod interval;
mod round;
mod value;

pub use analysis::{classify_region, dynamic_range_decades, RingCensus, RingRegion};
pub use compare::{ComparisonPredicate, Relation};
pub use flags::Flags;
pub use format::{FloatFormat, Rounding, SubnormalMode};
pub use interval::Interval;
pub use value::{FloatClass, SoftFloat};
