//! # nga-funcgen — application-specific operator generators
//!
//! A Rust re-creation of the FloPoCo-style "computing just right"
//! methodology of §II of *Next Generation Arithmetic for Edge Computing*
//! (DATE 2020): generators that produce bit-exact fixed-point operators
//! parameterized in precision, with programmable **error analysis**,
//! programmable **cost models**, and a **parameter-space exploration**
//! that minimizes cost subject to the accuracy the output format implies.
//!
//! Implemented generator families, one per §II-A opportunity:
//!
//! - **operator specialization**: constant multiplication by CSD shift-add
//!   chains ([`constmul`]) and squarers (in `nga-bitheap`),
//! - **operator fusion**: the `x/√(x²+y²)` worked example ([`fusion`]),
//! - **function approximation**: plain tabulation ([`table`]), bipartite
//!   tables ([`bipartite`]), and piecewise-polynomial evaluation
//!   ([`poly`]),
//! - **operator sharing**: multiple-constant multiplication with common
//!   subexpression reuse ([`constmul::MultiConstMul`]),
//! - table-based FIR filters (distributed arithmetic) and the "computing
//!   just right" IIR biquad of the paper's reference \[1\] ([`fir`]),
//! - the Fig. 1 **parametric sine/cosine** generator ([`sincos`]), whose
//!   table-split parameter trades table size against multiplier size.

#![warn(missing_docs)]

pub mod bipartite;
pub mod constmul;
pub mod cordic;
pub mod elem;
pub mod explore;
pub mod fir;
pub mod fusion;
pub mod poly;
pub mod sincos;
pub mod table;

mod error;

pub use error::ErrorReport;
