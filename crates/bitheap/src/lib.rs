//! # nga-bitheap — the bit-heap arithmetic framework
//!
//! A from-scratch implementation of the generic arithmetic framework of
//! §II-D and §III of *Next Generation Arithmetic for Edge Computing*
//! (DATE 2020):
//!
//! - a **bit heap** ([`BitHeap`]) — "an arbitrary sum of weighted bits, a
//!   generalization of the bit arrays classically used in multiplier
//!   design" — built over an evaluable boolean [`Netlist`] so every
//!   transformation can be verified bit-exactly,
//! - **compressor-tree synthesis** ([`compress`]) turning a heap into a
//!   two-row form plus final adder, with greedy and ALM-aware strategies,
//! - the §III **multiplier regularization** worked example
//!   ([`regularize`]): the 3×3 soft multiplier of Figs. 3/4 refactored
//!   into a single two-input carry chain with out-of-band auxiliary
//!   functions,
//! - a **fractal-synthesis packing** simulator ([`packing`]) implementing
//!   the paper's seeded, exhaustively-iterated carry-chain bin packing
//!   (only seeds and metrics are retained, never full solutions),
//! - an **FPGA cost model** ([`FpgaCost`]) counting fracturable LUTs,
//!   ALMs, carry-chain bits and logic depth,
//! - **truncated multipliers** ([`truncmul`]) as the §II-B "computing just
//!   right" worked example: drop the partial products the output format
//!   cannot express, compensate, and *measure* faithfulness.
//!
//! ```
//! use nga_bitheap::{BitHeap, Netlist};
//!
//! // Build the partial-product heap of a 4x4 unsigned multiplier and
//! // check its value exhaustively.
//! let mut net = Netlist::new();
//! let a = net.add_inputs(4);
//! let b = net.add_inputs(4);
//! let heap = BitHeap::multiplier(&mut net, &a, &b);
//! for x in 0..16u64 {
//!     for y in 0..16u64 {
//!         let assign = Netlist::assignment_from_ints(&[(&a, x), (&b, y)]);
//!         assert_eq!(heap.value(&net, &assign), x * y);
//!     }
//! }
//! ```

#![warn(missing_docs)]

pub mod booth;
pub mod compress;
pub mod packing;
pub mod regularize;
pub mod truncmul;

mod cost;
mod heap;
mod netlist;

pub use compress::{CompressedHeap, CompressionStats, Strategy};
pub use cost::FpgaCost;
pub use heap::BitHeap;
pub use netlist::{Netlist, NodeId, NodeOp};
