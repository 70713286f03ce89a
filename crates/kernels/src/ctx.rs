//! [`ArithCtx`]: the one entry point for instrumented 8-bit arithmetic.
//! It owns an explicit [`KernelTier`], sticky [`StatusCounters`], and an
//! observability span that every operation reports into.

use crate::format8::Format8;
use crate::kernel::KernelTier;
use crate::status::{Event8, StatusCounters};
use crate::table::{add_event_table, add_table, mul_event_table, mul_table};

/// An arithmetic context: kernel-tier selection + sticky status +
/// trace scope, in one value.
///
/// * **Tier** — set explicitly with [`with_tier`](Self::with_tier);
///   [`new`](Self::new) starts from the documented `NGA_KERNEL`
///   environment fallback ([`KernelTier::from_env`]).
/// * **Status** — every op folds its [`Event8`] into the context's
///   [`StatusCounters`]; [`events`](Self::events) is the sticky union,
///   IEEE-flag style.
/// * **Trace** — the context opens an `nga-obs` span at construction and
///   attributes its ops there, so a [`nga_obs::snapshot`] breaks work
///   down by context label.
///
/// ```
/// use nga_kernels::{ArithCtx, Event8, Format8, KernelTier};
///
/// let mut ctx = ArithCtx::new().with_tier(KernelTier::Table);
/// assert_eq!(ctx.tier(), KernelTier::Table);
///
/// // Scalar ops: same codes as Format8::mul_scalar_events, status kept.
/// let one = 0x40; // posit8 1.0
/// assert_eq!(ctx.mul(Format8::Posit8, one, one), one);
///
/// // Tensor ops: dispatched through the selected tier.
/// let a = vec![one; 4];
/// let mut out = vec![0u8; 4];
/// ctx.matmul8(Format8::Posit8, &a, &a, &mut out, 2, 2, 2);
/// assert_eq!(out, vec![0x60; 4]); // each dot product is 1·1 + 1·1 = 2.0
///
/// assert_eq!(ctx.counters().ops(), 1 + 2 * 8); // 1 mul + 8 MACs × 2 ops
/// assert!(!ctx.events().contains(Event8::NAR_NAN));
/// ```
#[derive(Debug)]
pub struct ArithCtx {
    tier: KernelTier,
    counters: StatusCounters,
    span: nga_obs::Span,
}

impl ArithCtx {
    /// A context labeled `"ctx"` on the tier from the documented
    /// `NGA_KERNEL` environment fallback.
    #[must_use]
    pub fn new() -> Self {
        Self::labeled("ctx")
    }

    /// A context whose trace scope is named `label` (useful when several
    /// contexts coexist and the trace should tell them apart).
    #[must_use]
    pub fn labeled(label: &str) -> Self {
        Self {
            tier: KernelTier::from_env(),
            counters: StatusCounters::new(),
            span: nga_obs::span(label),
        }
    }

    /// Builder: selects the execution tier explicitly, overriding the
    /// environment fallback.
    ///
    /// ```
    /// use nga_kernels::{ArithCtx, KernelTier};
    /// let ctx = ArithCtx::new().with_tier(KernelTier::Scalar);
    /// assert_eq!(ctx.tier().name(), "scalar");
    /// ```
    #[must_use]
    pub fn with_tier(mut self, tier: KernelTier) -> Self {
        self.tier = tier;
        self
    }

    /// The effective execution tier.
    #[must_use]
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// The sticky status counters accumulated by every op so far.
    #[must_use]
    pub fn counters(&self) -> &StatusCounters {
        &self.counters
    }

    /// The sticky event union: every event any op has raised.
    #[must_use]
    pub fn events(&self) -> Event8 {
        self.counters.union()
    }

    /// Clears the sticky status (the trace registry is unaffected).
    pub fn reset_status(&mut self) {
        self.counters = StatusCounters::new();
    }

    /// Bit-exact scalar multiply on raw codes; folds the raised events
    /// into the sticky status and the context's trace scope.
    ///
    /// `Table` and `Parallel` look the code and its events up in the
    /// format's value and event tables; `Scalar` computes both with
    /// [`Format8::mul_scalar_events`], the reference the tables are
    /// built from.
    #[must_use]
    pub fn mul(&mut self, fmt: Format8, a: u8, b: u8) -> u8 {
        let (r, ev) = match self.tier {
            KernelTier::Scalar => fmt.mul_scalar_events(a, b),
            KernelTier::Table | KernelTier::Parallel => (
                mul_table(fmt).get(a, b),
                Event8::from_bits(mul_event_table(fmt).get(a, b)),
            ),
        };
        self.fold_scalar(ev, |c| c.muls = c.muls.saturating_add(1));
        r
    }

    /// Bit-exact scalar add on raw codes; folds the raised events into
    /// the sticky status and the context's trace scope. Tier routing as
    /// in [`mul`](Self::mul).
    #[must_use]
    pub fn add(&mut self, fmt: Format8, a: u8, b: u8) -> u8 {
        let (r, ev) = match self.tier {
            KernelTier::Scalar => fmt.add_scalar_events(a, b),
            KernelTier::Table | KernelTier::Parallel => (
                add_table(fmt).get(a, b),
                Event8::from_bits(add_event_table(fmt).get(a, b)),
            ),
        };
        self.fold_scalar(ev, |c| c.adds = c.adds.saturating_add(1));
        r
    }

    /// Folds one scalar op's events into the sticky status and, through
    /// `nga-obs`'s thread-local buffer, into the context's trace scope.
    #[inline]
    fn fold_scalar(&mut self, ev: Event8, count_op: impl FnOnce(&mut nga_obs::OpCounts)) {
        self.counters.record(ev);
        nga_obs::record_at(self.span.path(), |c| {
            count_op(c);
            c.ops = c.ops.saturating_add(1);
            c.add_event_bits(ev.bits());
        });
    }

    /// `out = a · b` over 8-bit format codes through the selected tier.
    /// Output codes are identical across tiers; the per-call counters are
    /// returned and also merged into the sticky status and trace scope.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul8(
        &mut self,
        fmt: Format8,
        a: &[u8],
        b: &[u8],
        out: &mut [u8],
        m: usize,
        k: usize,
        n: usize,
    ) -> StatusCounters {
        let s = crate::tensor::matmul8_status(self.tier, fmt, a, b, out, m, k, n);
        self.counters.merge(&s);
        nga_obs::record_at(self.span.path(), |c| s.fold_into_obs(c));
        s
    }

    /// `out = a · b` over f32 through the selected tier.
    pub fn matmul_f32(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.tier.matmul_f32(a, b, out, m, k, n);
    }
}

impl Default for ArithCtx {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ops_match_event_surface_and_stick() {
        let mut ctx = ArithCtx::labeled("ctx-test-scalar").with_tier(KernelTier::Scalar);
        for fmt in Format8::ALL {
            for (a, b) in [(0x01u8, 0x7Fu8), (0x80, 0x80), (0x40, 0x40)] {
                let (want_m, _) = fmt.mul_scalar_events(a, b);
                let (want_a, _) = fmt.add_scalar_events(a, b);
                assert_eq!(ctx.mul(fmt, a, b), want_m, "{} mul", fmt.id());
                assert_eq!(ctx.add(fmt, a, b), want_a, "{} add", fmt.id());
            }
        }
        assert_eq!(ctx.counters().ops(), 4 * 3 * 2);
        // Q4.4 0x7F * 0x7F saturates, so the sticky union has SATURATED.
        assert!(ctx.events().contains(Event8::SATURATED));
        ctx.reset_status();
        assert_eq!(ctx.counters().ops(), 0);
        assert!(ctx.events().is_empty());
    }

    #[test]
    fn matmul_is_tier_invariant_and_merges_status() {
        let (m, k, n) = (4, 6, 5);
        let a: Vec<u8> = (0..m * k).map(|i| (i * 53 + 7) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|i| (i * 29 + 1) as u8).collect();
        for fmt in Format8::ALL {
            let (want, want_s) = crate::tensor::tests::naive_matmul8(fmt, &a, &b, m, k, n);
            for tier in KernelTier::ALL {
                let mut ctx = ArithCtx::labeled("ctx-test-mm").with_tier(tier);
                let mut out = vec![0u8; m * n];
                let s = ctx.matmul8(fmt, &a, &b, &mut out, m, k, n);
                assert_eq!(out, want, "{} {}", fmt.id(), tier);
                assert_eq!(s, want_s, "{} {} counters", fmt.id(), tier);
                assert_eq!(*ctx.counters(), want_s, "sticky = per-call on first op");
            }
        }
    }

    /// A context used and dropped on a scoped worker has published its
    /// buffered trace counts by the time the scope returns.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn worker_ctx_counts_are_visible_after_the_scope() {
        std::thread::scope(|s| {
            for tier in KernelTier::ALL {
                s.spawn(move || {
                    let mut ctx = ArithCtx::labeled("ctx-test-worker").with_tier(tier);
                    for _ in 0..50 {
                        let _ = ctx.mul(Format8::Fixed8, 0x7F, 0x7F);
                        let _ = ctx.add(Format8::Fixed8, 0x10, 0x10);
                    }
                });
            }
        });
        let c = nga_obs::snapshot()
            .get("ctx-test-worker")
            .copied()
            .unwrap_or_default();
        assert_eq!(c.calls, 3);
        assert_eq!((c.muls, c.adds, c.ops), (150, 150, 300));
        // Q4.4 7.9375² saturates at the rail; 1 + 1 is exact.
        assert_eq!(c.saturated, 150);
    }

    #[test]
    fn f32_matmul_dispatches() {
        let ctx = ArithCtx::labeled("ctx-test-f32").with_tier(KernelTier::Parallel);
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let mut out = [0.0f32; 4];
        ctx.matmul_f32(&a, &a, &mut out, 2, 2, 2);
        assert_eq!(out, [7.0, 10.0, 15.0, 22.0]);
    }
}
