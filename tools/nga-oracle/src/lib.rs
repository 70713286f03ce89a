//! Differential oracle for the workspace's arithmetic datapaths.
//!
//! Everything here is a *second, independent* implementation: values are
//! decoded into exact sign/significand/exponent triples ([`exact::Exact`]),
//! combined with exact (or remainder-carrying) integer arithmetic, and
//! re-encoded by one reference rounder per destination family —
//! IEEE-style [`SoftFloat`](nga_softfloat::SoftFloat) formats under all
//! five rounding-direction attributes ([`float`]), tapered
//! [`Posit`](nga_core::Posit) rounding ([`posit`]), and two's-complement
//! [`Fixed`](nga_fixed::Fixed) formats ([`fixedpt`]).
//!
//! The [`sweep`] module drives exhaustive and stratified differential
//! sweeps of the production datapaths against these references and
//! [`report`] serialises the result as deterministic JSON
//! (`ORACLE_REPORT.json`).
//!
//! The only host floating point permitted in this crate is the declared
//! conversion boundary in [`float::host`] (bit-exact `f64` decode used to
//! seed sweeps and to serve the posit test oracle).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod exact;
pub mod fixedpt;
pub mod float;
pub mod posit;
pub mod report;
pub mod sweep;

pub use exact::Exact;
pub use float::FloatSpec;
pub use posit::{PositOracle, PositSpec};
