//! # nga-hwmodel — the fair posit-vs-float hardware comparison of §V
//!
//! *Next Generation Arithmetic for Edge Computing* (DATE 2020) closes with
//! a "fair hardware comparison of posits vs IEEE floats": ring plots of
//! the two encoding spaces (Figs. 6/7), Yonemoto's 8-bit posit multiplier
//! (Fig. 8), decimal-accuracy profiles (Figs. 9/10) and a qualitative cost
//! argument — posit hardware is "slightly more expensive than normals-only
//! float hardware, but substantially simpler and faster than hardware that
//! fully supports all aspects of the IEEE 754 Standard."
//!
//! This crate turns each of those arguments into executable models:
//!
//! - [`yonemoto`]: a structural model of the Fig. 8 multiplier — one
//!   signed significand multiplier, no sign-magnitude pre/post negation,
//!   exceptions via a single OR tree — verified exhaustively against
//!   `nga-core`,
//! - [`cost`]: gate-level cost estimates for posit, normals-only-float and
//!   full-IEEE arithmetic units (decoders, multipliers, adders,
//!   comparators, exception logic),
//! - [`ring`]: the Fig. 6/7 censuses plus the subnormal timing
//!   side-channel model (§V cites Andrysco et al.),
//! - [`accuracy`]: the Fig. 9/10 decimal-accuracy series for 16-bit
//!   fixed point, binary16, bfloat16 and posit16.

#![warn(missing_docs)]

pub mod accuracy;
pub mod convert;
pub mod cost;
pub mod dsp;
pub mod ring;
pub mod yonemoto;
pub mod yonemoto16;
