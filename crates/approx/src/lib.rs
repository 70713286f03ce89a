//! # nga-approx — approximate 8×8 multipliers for edge DNN inference
//!
//! The §IV study of *Next Generation Arithmetic for Edge Computing*
//! (DATE 2020) injects "10 randomly selected approximate multipliers from
//! EvoApprox" into quantized DNNs (Table II). EvoApprox circuits are
//! evolved gate-level netlists distributed as C code; this crate instead
//! provides a ladder of **deterministic approximate 8×8 multipliers from
//! the classic approximation families** — truncation, broken-array,
//! OR-based lower parts, Mitchell logarithms and DRUM-style dynamic-range
//! selection — spanning the same mean-relative-error range (≈0.03 % to
//! ≈20 %) with the same error/energy trade-off shape. What matters to the
//! downstream study is the deterministic error function `ε(a,b)` and its
//! magnitude, not the specific netlists (see DESIGN.md §3.1).
//!
//! Every multiplier is characterized **exhaustively** over all 65 536
//! input pairs ([`ErrorMetrics::characterize`]), and the energy model
//! ([`ApproxMultiplier::energy`]) counts switched partial-product and
//! compressor operations relative to the exact array multiplier.
//!
//! ```
//! use nga_approx::{ApproxMultiplier, ErrorMetrics};
//!
//! let m = ApproxMultiplier::Mitchell;
//! let metrics = ErrorMetrics::characterize(m);
//! assert!(metrics.mre_percent < 10.0);
//! assert_eq!(ApproxMultiplier::Exact.multiply(213, 89), 213 * 89);
//! ```

#![warn(missing_docs)]

mod metrics;
mod mult;

pub use metrics::ErrorMetrics;
pub use mult::ApproxMultiplier;

/// One row of the paper's Table II, as reproduced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The multiplier.
    pub multiplier: ApproxMultiplier,
    /// Exhaustively measured error metrics.
    pub metrics: ErrorMetrics,
    /// Modelled energy saving versus the exact multiplier, in percent.
    pub energy_saving_percent: f64,
}

/// Builds the full Table II ladder: the ten multipliers sorted by
/// increasing mean relative error, with exhaustive metrics and energy
/// savings.
#[must_use]
pub fn table2() -> Vec<Table2Row> {
    let mut rows: Vec<Table2Row> = ApproxMultiplier::LADDER
        .iter()
        .map(|&m| Table2Row {
            multiplier: m,
            metrics: ErrorMetrics::characterize(m),
            energy_saving_percent: (1.0 - m.energy() / ApproxMultiplier::Exact.energy()) * 100.0,
        })
        .collect();
    rows.sort_by(|a, b| a.metrics.mre_percent.total_cmp(&b.metrics.mre_percent));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_ten_rows_spanning_the_paper_range() {
        let rows = table2();
        assert_eq!(rows.len(), 10);
        // Paper Table II: MRE from 0.03 % to 19.45 %.
        assert!(rows.first().expect("rows").metrics.mre_percent < 0.5);
        let top = rows.last().expect("rows").metrics.mre_percent;
        assert!((10.0..30.0).contains(&top), "top MRE {top}");
    }

    #[test]
    fn energy_saving_grows_with_error() {
        // The Table II trade-off: larger MRE buys larger energy saving.
        let rows = table2();
        for w in rows.windows(2) {
            assert!(
                w[1].energy_saving_percent >= w[0].energy_saving_percent - 8.0,
                "{:?} ({:.2}%) vs {:?} ({:.2}%)",
                w[0].multiplier,
                w[0].energy_saving_percent,
                w[1].multiplier,
                w[1].energy_saving_percent
            );
        }
        let last = rows.last().expect("rows");
        assert!(
            last.energy_saving_percent > 40.0,
            "top saving like Table II"
        );
    }
}
