//! Deterministic observability for the arithmetic workspace.
//!
//! The paper's whole evaluation is *counting*: operations per inference,
//! events per sweep, LUT traffic per layer. This crate is the one place
//! those counts accumulate — a dependency-free metrics layer with three
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
//! * **Compiled out on demand.** With the `obs-off` cargo feature every
//!   entry point is an empty `#[inline]` function and [`Span`] is
//!   zero-sized, so production builds pay nothing.
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
//! // An `obs-off` build records nothing, so its report has no rows.
//! let want = nga_obs::ENABLED.then_some(8);
//! assert_eq!(report.get("demo/matmul").map(|c| c.muls), want);
//! let json = report.to_json("quick");
//! assert_eq!(json.contains("\"demo/matmul\""), nga_obs::ENABLED);
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
mod report;

#[cfg(not(feature = "obs-off"))]
#[path = "enabled.rs"]
mod imp;

#[cfg(feature = "obs-off")]
#[path = "disabled.rs"]
mod imp;

/// Whether this build records: `false` under the `obs-off` feature, where
/// every entry point is a no-op and [`snapshot`] is always empty.
pub const ENABLED: bool = cfg!(not(feature = "obs-off"));

pub use counters::OpCounts;
pub use imp::{record, record_at, reset, snapshot, span, Span};
pub use report::{ScopeRow, TraceReport};
