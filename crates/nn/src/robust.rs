//! Graceful degradation under hardware faults: lookup-table integrity
//! checking with automatic fallback to the scalar kernel tier, plus the
//! poisoning metric the fault-injection harness (`tools/nga-faults`)
//! reports.
//!
//! The parallel tier of `nga-kernels` trades one 128 KiB fused value+event
//! LUT per operator for speed; a bit upset in that table silently
//! corrupts *every* MAC that hits the flipped entry. [`matmul8_verified`]
//! closes that hole: each call recomputes the FNV-1a checksum of the
//! supplied tables and, on a mismatch, recomputes the product through
//! the bit-exact scalar ops — same output codes, no silent corruption, at
//! scalar-tier speed until the table is rebuilt.

use nga_kernels::{matmul8_parallel, matmul8_scalar, BinaryTable, Format8, LutOp};

/// Which path a verified table-driven operation actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LutIntegrity {
    /// Both table checksums matched; the lookup tables did the work.
    Verified,
    /// At least one table failed verification; the result was recomputed
    /// through the scalar tier (bit-identical, slower).
    FellBack,
}

/// `out = a · b` over 8-bit format codes through caller-supplied lookup
/// tables, with integrity verification.
///
/// When `mul` and `add` pass [`BinaryTable::verify`] the product is
/// computed by table lookups; otherwise the call degrades to the scalar
/// tier for `fmt`. Either way the output codes are bit-identical to
/// [`matmul8_scalar`] (assuming the tables were built for `fmt`), and the
/// return value says which path ran so callers can count degradations.
#[expect(clippy::too_many_arguments, reason = "BLAS-style flat slices and dims")]
pub fn matmul8_verified(
    fmt: Format8,
    mul: &BinaryTable,
    add: &BinaryTable,
    a: &[u8],
    b: &[u8],
    out: &mut [u8],
    m: usize,
    k: usize,
    n: usize,
) -> LutIntegrity {
    let _span = nga_obs::span("matmul8:verified");
    if mul.verify() && add.verify() {
        matmul8_parallel(&LutOp::from_tables(mul, add), a, b, out, m, k, n);
        LutIntegrity::Verified
    } else {
        matmul8_scalar(fmt, a, b, out, m, k, n);
        LutIntegrity::FellBack
    }
}

/// Fraction of NaN values in a slice — the activation "poisoning rate"
/// the fault sweep reports. Empty slices count as unpoisoned.
#[must_use]
pub fn nan_fraction(data: &[f32]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let poisoned = data.iter().filter(|v| v.is_nan()).count();
    poisoned as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(m: usize, k: usize, n: usize) -> (Vec<u8>, Vec<u8>) {
        let a = (0..m * k).map(|i| (i * 41 + 0x21) as u8).collect();
        let b = (0..k * n).map(|i| (i * 23 + 0x55) as u8).collect();
        (a, b)
    }

    #[test]
    fn corrupted_lut_falls_back_to_bit_identical_scalar_results() {
        let fmt = Format8::Posit8;
        let mut mul = BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).0);
        let add = BinaryTable::build(|a, b| fmt.add_scalar_events(a, b).0);
        let (m, k, n) = (5, 6, 4);
        let (a, b) = inputs(m, k, n);
        let mut reference = vec![0u8; m * n];
        matmul8_scalar(fmt, &a, &b, &mut reference, m, k, n);

        let mut out = vec![0u8; m * n];
        let path = matmul8_verified(fmt, &mul, &add, &a, &b, &mut out, m, k, n);
        assert_eq!(path, LutIntegrity::Verified);
        assert_eq!(out, reference, "clean tables match the scalar tier");

        // Flip one bit in an entry the product actually uses: the
        // checksum catches it and the fallback restores exactness.
        mul.corrupt_entry(a[0], b[0], 0x04);
        let mut degraded = vec![0u8; m * n];
        let path = matmul8_verified(fmt, &mul, &add, &a, &b, &mut degraded, m, k, n);
        assert_eq!(path, LutIntegrity::FellBack);
        assert_eq!(
            degraded, reference,
            "fallback output is bit-identical to the scalar tier"
        );
    }

    #[test]
    fn nan_fraction_counts_poisoned_lanes() {
        assert_eq!(nan_fraction(&[]), 0.0);
        assert_eq!(nan_fraction(&[1.0, 2.0]), 0.0);
        assert_eq!(nan_fraction(&[f32::NAN, 2.0, f32::NAN, 4.0]), 0.5);
    }
}
