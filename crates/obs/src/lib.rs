//! Deterministic observability for the arithmetic workspace.
//!
//! The paper's whole evaluation is *counting*: operations per inference,
//! events per sweep, LUT traffic per layer. This crate is the one place
//! those counts accumulate — a dependency-free metrics layer with two
//! deliberate properties:
//!
//! * **Deterministic.** Counters are monotonic saturating `u64` sums keyed
//!   by scope path in a sorted map; merging is commutative, so row-banded
//!   parallel kernels report the same totals as serial ones and
//!   [`TraceReport::to_json`] is byte-reproducible across runs
//!   (`scripts/check.sh` diffs two back-to-back emissions).
//! * **No ambient state.** Nothing here reads the environment or the
//!   clock (`clippy.toml` bans both workspace-wide); wall-clock timing
//!   stays in `nga-bench` and the tools. A trace records *what* was
//!   computed, never *when*.
//!
//! # Model
//!
//! A [`Span`] is an RAII scope guard. Spans nest per thread: a span opened
//! while another is active gets the parent's path plus `/name`, giving
//! hierarchical paths like `nn:forward/conv2d/matmul_f32:parallel`.
//! [`record`] adds to the [`OpCounts`] of the innermost active span on the
//! current thread; [`record_at`] targets an absolute path (used by
//! long-lived owners like `ArithCtx` whose ops may run under other
//! spans). [`snapshot`] freezes the global registry into a sorted
//! [`TraceReport`].
//!
//! An `ArithCtx` adds its scalar ops to counts it owns, so they cost no
//! lock and no allocation, and records them at its label once, when it
//! is dropped.
//!
//! ```
//! let root = nga_obs::span("demo");
//! {
//!     let _child = nga_obs::span("matmul");
//!     nga_obs::record(|c| c.add_macs(8, 0));
//! }
//! nga_obs::record_at(root.path(), |c| c.ops = c.ops.saturating_add(1));
//! let report = nga_obs::snapshot();
//! assert_eq!(report.get("demo/matmul").map(|c| c.muls), Some(8));
//! assert!(report.to_json("quick").contains("\"demo/matmul\""));
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

mod counters;
mod registry;
mod report;

pub use counters::OpCounts;
pub use registry::{record, record_at, reset, snapshot, span, Span};
pub use report::{ScopeRow, TraceReport};
