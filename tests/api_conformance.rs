//! Conformance contract for the unified `ArithCtx` surface: everything
//! reachable through `nextgen_arith::prelude` must be bit- and
//! event-identical to the older per-crate surfaces it replaces, so
//! migrating a caller can never change numerics.
//!
//! Three layers are pinned:
//!
//! 1. `ArithCtx::mul`/`add` vs `Format8::{mul,add}_scalar_events` —
//!    exhaustive over all 65 536 code pairs for every 8-bit format and
//!    every kernel tier, both output codes and folded event counters;
//! 2. `ArithCtx::matmul8` vs a naive per-element matmul through the
//!    same scalar event ops — per tier, output codes and counters;
//! 3. the prelude itself: every re-exported item is usable from one
//!    `use` line.

use nextgen_arith::prelude::*;

/// Replays a scalar-op sweep through both surfaces on every tier and
/// demands identical codes and identical sticky counters.
#[test]
fn ctx_scalar_ops_match_event_surface_exhaustively() {
    for fmt in Format8::ALL {
        let mut ctxs: Vec<ArithCtx> = KernelTier::ALL
            .into_iter()
            .map(|tier| ArithCtx::labeled("conform:scalar").with_tier(tier))
            .collect();
        let mut want = StatusCounters::new();
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let (wm, em) = fmt.mul_scalar_events(a, b);
                let (wa, ea) = fmt.add_scalar_events(a, b);
                want.record(em);
                want.record(ea);
                for ctx in &mut ctxs {
                    let tier = ctx.tier();
                    assert_eq!(
                        ctx.mul(fmt, a, b),
                        wm,
                        "{} {tier} mul {a:#04x} {b:#04x}",
                        fmt.id()
                    );
                    assert_eq!(
                        ctx.add(fmt, a, b),
                        wa,
                        "{} {tier} add {a:#04x} {b:#04x}",
                        fmt.id()
                    );
                }
            }
        }
        for ctx in &ctxs {
            let tier = ctx.tier();
            assert_eq!(*ctx.counters(), want, "{} {tier} sticky counters", fmt.id());
            assert_eq!(
                ctx.events(),
                want.union(),
                "{} {tier} sticky union",
                fmt.id()
            );
        }
    }
}

/// `ArithCtx::matmul8` through each tier is bit- and counter-identical
/// to a naive matmul: per output element, ascending `k`, through the
/// scalar event ops, recording every op.
#[test]
fn ctx_matmul_matches_naive_reference() {
    let (m, k, n) = (5, 7, 6);
    let a: Vec<u8> = (0..m * k).map(|i| (i * 37 + 11) as u8).collect();
    let b: Vec<u8> = (0..k * n).map(|i| (i * 91 + 3) as u8).collect();
    for fmt in Format8::ALL {
        let mut want = vec![0u8; m * n];
        let mut want_s = StatusCounters::new();
        for (idx, o) in want.iter_mut().enumerate() {
            let (i, j) = (idx / n, idx % n);
            for kk in 0..k {
                let (p, mul_ev) = fmt.mul_scalar_events(a[i * k + kk], b[kk * n + j]);
                want_s.record(mul_ev);
                let (acc, add_ev) = fmt.add_scalar_events(*o, p);
                want_s.record(add_ev);
                *o = acc;
            }
        }
        for tier in KernelTier::ALL {
            let mut ctx = ArithCtx::labeled("conform:matmul").with_tier(tier);
            let mut out = vec![0u8; m * n];
            let s = ctx.matmul8(fmt, &a, &b, &mut out, m, k, n);
            assert_eq!(out, want, "{} {tier} codes", fmt.id());
            assert_eq!(s, want_s, "{} {tier} per-call counters", fmt.id());
            assert_eq!(*ctx.counters(), want_s, "{} {tier} sticky", fmt.id());
        }
    }
}

/// Every prelude item is nameable and constructible from the single
/// `use nextgen_arith::prelude::*` at the top of this file.
#[test]
fn prelude_walks() {
    // Context + tier + format + status types.
    let mut ctx = ArithCtx::new().with_tier(KernelTier::default());
    assert_eq!(ctx.tier(), KernelTier::Parallel);
    let _ = ctx.mul(Format8::Posit8, 0x40, 0x40);
    assert!(ctx.events().is_empty() || ctx.events().contains(Event8::INEXACT));
    let _: &StatusCounters = ctx.counters();

    // Scalar number systems.
    assert_eq!(Posit::from_f64(2.0, PositFormat::POSIT8).to_f64(), 2.0);
    assert_eq!(
        SoftFloat::from_f64(2.0, FloatFormat::FP8_E4M3).to_f64(),
        2.0
    );
    let q = Fixed::from_f64(2.0, FixedFormat::Q4_4, RoundingMode::NearestEven).unwrap();
    assert_eq!(q.to_f64(), 2.0);

    // Observability: the context's scope is visible in a snapshot once
    // the context is dropped.
    drop(ctx);
    let report = obs::snapshot();
    assert!(
        report.get("ctx").is_some_and(|c| c.muls >= 1),
        "prelude ctx scope recorded"
    );
}
