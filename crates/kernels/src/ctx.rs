//! [`ArithCtx`]: the one entry point for instrumented 8-bit arithmetic.
//! It owns an explicit [`KernelTier`], sticky [`StatusCounters`], and an
//! observability span that every operation reports into.

use crate::format8::Format8;
use crate::kernel::KernelTier;
use crate::status::{Event8, StatusCounters};
use crate::table::{add_table, mul_table};

/// An arithmetic context: kernel-tier selection + sticky status +
/// trace scope, in one value.
///
/// * **Tier** — set explicitly with [`with_tier`](Self::with_tier);
///   [`new`](Self::new) starts at [`KernelTier::default`], the fused
///   tables.
/// * **Status** — every op folds its [`Event8`] into the context's
///   [`StatusCounters`]; [`events`](Self::events) is the sticky union,
///   IEEE-flag style.
/// * **Trace** — the context opens an `nga-obs` span at construction.
///   Tensor ops record into kernel scopes under it as they run; scalar
///   ops add to counts the context owns, which it records in its own
///   scope once, when it is dropped. So a [`nga_obs::snapshot`] taken
///   after the drop breaks work down by context label.
///
/// ```
/// use nga_kernels::{ArithCtx, Event8, Format8, KernelTier};
///
/// let mut ctx = ArithCtx::new();
/// assert_eq!(ctx.tier(), KernelTier::Parallel);
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
    /// Scalar-op counts not yet in the trace registry (published on drop).
    trace: nga_obs::OpCounts,
    span: nga_obs::Span,
}

impl ArithCtx {
    /// A context labeled `"ctx"` on the default tier
    /// ([`KernelTier::Parallel`]).
    #[must_use]
    pub fn new() -> Self {
        Self::labeled("ctx")
    }

    /// A context whose trace scope is named `label` (useful when several
    /// contexts coexist and the trace should tell them apart).
    #[must_use]
    pub fn labeled(label: &str) -> Self {
        Self {
            tier: KernelTier::default(),
            counters: StatusCounters::new(),
            trace: nga_obs::OpCounts::default(),
            span: nga_obs::span(label),
        }
    }

    /// Builder: selects the execution tier.
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
    /// `Parallel` looks the code and its events up in one load from the
    /// format's fused multiply table; `Scalar` computes both with
    /// [`Format8::mul_scalar_events`], the reference the tables are
    /// built from.
    #[must_use]
    pub fn mul(&mut self, fmt: Format8, a: u8, b: u8) -> u8 {
        let (r, ev) = match self.tier {
            KernelTier::Scalar => fmt.mul_scalar_events(a, b),
            KernelTier::Parallel => mul_table(fmt).get_with_events(a, b),
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
            KernelTier::Parallel => add_table(fmt).get_with_events(a, b),
        };
        self.fold_scalar(ev, |c| c.adds = c.adds.saturating_add(1));
        r
    }

    /// Folds one scalar op's events into the sticky status and into the
    /// context's own trace counts, which reach its trace scope when it is
    /// dropped. The trace update takes no lock and no allocation.
    #[inline]
    fn fold_scalar(&mut self, ev: Event8, count_op: impl FnOnce(&mut nga_obs::OpCounts)) {
        self.counters.record(ev);
        count_op(&mut self.trace);
        self.trace.ops = self.trace.ops.saturating_add(1);
        self.trace.add_event_bits(ev.bits());
    }

    /// `out = a · b` over 8-bit format codes through the selected tier.
    /// Output codes are identical across tiers; the per-call counters are
    /// returned and also merged into the sticky status. The trace gets the
    /// MACs and events once, from the tier's kernel scope (for example
    /// `<label>/matmul8:parallel`), which opens under the calling thread's
    /// innermost span.
    #[expect(clippy::too_many_arguments, reason = "BLAS-style flat slices and dims")]
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
        s
    }

    /// `out = a · b` over f32 through the selected tier: serial on
    /// `Scalar`, row-banded on `Parallel`, with bit-identical results.
    pub fn matmul_f32(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        match self.tier {
            KernelTier::Scalar => crate::tensor::matmul_f32(a, b, out, m, k, n),
            KernelTier::Parallel => crate::tensor::matmul_f32_parallel(a, b, out, m, k, n),
        }
    }
}

impl Default for ArithCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ArithCtx {
    /// Records the context's scalar-op counts in its trace scope, before
    /// the span closes.
    fn drop(&mut self) {
        nga_obs::record_at(self.span.path(), |c| c.merge(&self.trace));
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
        assert_eq!(ctx.counters().ops(), Format8::ALL.len() as u64 * 3 * 2);
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
    /// scalar counts by the time the scope returns.
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
        let tiers = KernelTier::ALL.len() as u64;
        assert_eq!(c.calls, tiers);
        assert_eq!(
            (c.muls, c.adds, c.ops),
            (50 * tiers, 50 * tiers, 100 * tiers)
        );
        // Q4.4 7.9375² saturates at the rail; 1 + 1 is exact.
        assert_eq!(c.saturated, 50 * tiers);
    }

    /// The trace counts every op once: the rows under a context's label
    /// (its own scope and the kernel scopes under it) add up to its
    /// sticky counters, on every tier.
    #[test]
    fn trace_under_the_label_reconciles_with_the_counters() {
        let label = "ctx-test-trace";
        // m·n ≥ 16 384, so the parallel tier runs in bands.
        let (m, k, n) = (130, 3, 130);
        let a: Vec<u8> = (0..m * k).map(|i| (i * 37 + 11) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|i| (i * 91 + 3) as u8).collect();
        let mut out = vec![0u8; m * n];
        let mut ctx = ArithCtx::labeled(label);
        for tier in KernelTier::ALL {
            ctx = ctx.with_tier(tier);
            for fmt in Format8::ALL {
                let _ = ctx.matmul8(fmt, &a, &b, &mut out, m, k, n);
                let _ = ctx.mul(fmt, 0x7C, 0x00);
                let _ = ctx.add(fmt, 0x7C, 0xFC);
            }
        }
        let counters = *ctx.counters();
        drop(ctx);
        let mut traced = nga_obs::OpCounts::default();
        for row in nga_obs::snapshot().scopes {
            if row.path == label || row.path.starts_with(&format!("{label}/")) {
                traced.merge(&row.counts);
            }
        }
        let mut want = nga_obs::OpCounts::default();
        counters.fold_into_obs(&mut want);
        assert!(want.nar_nan > 0, "E5M2 ∞·0 and ∞ + −∞ raise NaN");
        assert_eq!(
            (traced.ops, traced.nar_nan, traced.events_total()),
            (want.ops, want.nar_nan, want.events_total())
        );
    }

    /// Scalar counts go to the context's own label even when the
    /// innermost span at the drop is one the context did not open.
    #[test]
    fn drop_under_an_inner_span_publishes_at_the_label() {
        let label = "ctx-test-inner";
        let mut ctx = ArithCtx::labeled(label);
        let inner = nga_obs::span("inner");
        assert_eq!(inner.path(), "ctx-test-inner/inner");
        for _ in 0..3 {
            let _ = ctx.mul(Format8::Posit8, 0x40, 0x40);
        }
        let _ = ctx.add(Format8::Posit8, 0x40, 0x40);
        drop(ctx);
        drop(inner);
        let report = nga_obs::snapshot();
        let own = report.get(label).copied().unwrap_or_default();
        assert_eq!((own.calls, own.muls, own.adds, own.ops), (1, 3, 1, 4));
        let entered_only = nga_obs::OpCounts {
            calls: 1,
            ..nga_obs::OpCounts::default()
        };
        assert_eq!(report.get("ctx-test-inner/inner"), Some(&entered_only));
    }

    /// A live context's scalar counts are not in a snapshot; after the
    /// drop they are, once, equal to its scalar ops.
    #[test]
    fn scalar_counts_reach_the_trace_once_on_drop() {
        let label = "ctx-test-live";
        let mut ctx = ArithCtx::labeled(label);
        for fmt in Format8::ALL {
            let _ = ctx.mul(fmt, 0x7C, 0x00);
            let _ = ctx.add(fmt, 0x7C, 0xFC);
        }
        let at_label = || nga_obs::snapshot().get(label).copied().unwrap_or_default();
        let mut want = nga_obs::OpCounts {
            calls: 1,
            ..nga_obs::OpCounts::default()
        };
        assert_eq!(at_label(), want, "live: only the span entry");
        ctx.counters().fold_into_obs(&mut want);
        let formats = Format8::ALL.len() as u64;
        (want.muls, want.adds) = (formats, formats);
        drop(ctx);
        assert_eq!(at_label(), want);
        assert_eq!(at_label(), want, "a second snapshot adds nothing");
        assert_eq!(want.ops, 2 * formats);
        assert!(want.nar_nan > 0, "E5M2 ∞·0 and ∞ + −∞ raise NaN");
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
