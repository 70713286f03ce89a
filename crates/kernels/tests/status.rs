//! Status-flag subsystem invariants: every execution tier must report
//! byte-identical output codes *and* identical event counters, and table
//! checksums must catch injected corruption.

mod common;

use common::naive_matmul8;
use nga_kernels::{
    matmul8_scalar, matmul8_tables, mul_table, ArithCtx, BinaryTable, Event8, Format8, KernelTier,
    StatusCounters, StatusOp,
};

/// Exhaustive 8-bit sweep: the event tables must agree with the scalar
/// event ops on every one of the 65 536 input pairs, for both ops and
/// all four formats (the table tier inherits its status semantics from
/// these tables, so this pins tier agreement at the op level).
#[test]
fn event_tables_match_scalar_exhaustively() {
    for fmt in Format8::ALL {
        let op = StatusOp::new(fmt);
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let (mv, mev) = fmt.mul_scalar_events(a, b);
                assert_eq!(
                    op.mul(a, b),
                    (mv, mev),
                    "{} mul({a:#04x}, {b:#04x})",
                    fmt.id()
                );
                let (av, aev) = fmt.add_scalar_events(a, b);
                assert_eq!(
                    op.add(a, b),
                    (av, aev),
                    "{} add({a:#04x}, {b:#04x})",
                    fmt.id()
                );
            }
        }
    }
}

#[test]
fn status_counters_agree_across_tiers() {
    // Large enough that the parallel tier actually spawns bands
    // (m * n >= 16384).
    let (m, k, n) = (130, 40, 130);
    for fmt in Format8::ALL {
        let a: Vec<u8> = (0..m * k).map(|i| (i * 37 + 11) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|i| (i * 91 + 3) as u8).collect();
        let (want, want_s) = naive_matmul8(fmt, &a, &b, m, k, n);
        assert_eq!(want_s.ops(), 2 * (m * k * n) as u64, "one mul + one add per MAC");
        for tier in KernelTier::ALL {
            let mut out = vec![0u8; m * n];
            let s = ArithCtx::labeled("status-test-tiers")
                .with_tier(tier)
                .matmul8(fmt, &a, &b, &mut out, m, k, n);
            assert_eq!(out, want, "{} {tier}: codes ≡ naive", fmt.id());
            assert_eq!(s, want_s, "{} {tier}: counters ≡ naive", fmt.id());
            // The status path must not perturb the value path.
            let mut plain = vec![0u8; m * n];
            tier.matmul8(fmt, &a, &b, &mut plain, m, k, n);
            assert_eq!(plain, out, "{} {tier}: status output ≡ plain output", fmt.id());
        }
    }
}

#[test]
fn posit8_counters_see_saturation_and_inexactness() {
    // maxpos * maxpos saturates; the counters must say so.
    let fmt = Format8::Posit8;
    let maxpos = 0x7Fu8;
    let (v, ev) = fmt.mul_scalar_events(maxpos, maxpos);
    assert_eq!(v, maxpos);
    assert!(ev.contains(Event8::SATURATED | Event8::INEXACT));
    // 1 * 1 is exact.
    let (v, ev) = fmt.mul_scalar_events(0x40, 0x40);
    assert_eq!(v, 0x40);
    assert!(ev.is_empty());
}

#[test]
fn checksum_catches_injected_corruption() {
    let fmt = Format8::E4m3;
    let mut table = BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).0);
    assert!(table.verify(), "freshly built table verifies");
    assert_eq!(
        table.checksum(),
        mul_table(fmt).checksum(),
        "same contents, same checksum"
    );
    table.corrupt_entry(0x3C, 0x3C, 0x40);
    assert!(!table.verify(), "single bit flip is detected");
    // Flipping the same bit back restores integrity.
    table.corrupt_entry(0x3C, 0x3C, 0x40);
    assert!(table.verify(), "restored table verifies again");
}

#[test]
fn corrupted_table_changes_matmul_output() {
    let fmt = Format8::Posit8;
    let mut mul = BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).0);
    let add = BinaryTable::build(|a, b| fmt.add_scalar_events(a, b).0);
    let (m, k, n) = (4, 4, 4);
    let a: Vec<u8> = (0..m * k).map(|i| (i * 17 + 0x38) as u8).collect();
    let b: Vec<u8> = (0..k * n).map(|i| (i * 13 + 0x42) as u8).collect();
    let mut clean = vec![0u8; m * n];
    matmul8_tables(&mul, &add, &a, &b, &mut clean, m, k, n);
    let mut reference = vec![0u8; m * n];
    matmul8_scalar(fmt, &a, &b, &mut reference, m, k, n);
    assert_eq!(clean, reference, "clean tables match the scalar tier");
    // Corrupt the entry for a pair that actually occurs in the product.
    mul.corrupt_entry(a[0], b[0], 0x80);
    let mut faulty = vec![0u8; m * n];
    matmul8_tables(&mul, &add, &a, &b, &mut faulty, m, k, n);
    assert_ne!(faulty, reference, "the upset propagates to the output");
}

#[test]
fn empty_counters_have_empty_union() {
    let c = StatusCounters::new();
    assert_eq!(c.ops(), 0);
    assert!(c.union().is_empty());
}

/// Lane overflow guard: with `n` and `k·n` far past the 511 ops a packed
/// tally lane holds, and every multiply raising the same events, the
/// table and parallel tiers still count exactly what the scalar tier
/// counts.
#[test]
fn saturating_matmul_counts_exactly_past_tally_capacity() {
    // m·n ≥ 16 384, so the parallel tier spawns bands.
    let (m, k, n) = (16, 24, 1100);
    let fmt = Format8::Fixed8;
    // Q4.4 0x7F = 7.9375; every product saturates at the rail.
    let (_, mul_ev) = fmt.mul_scalar_events(0x7F, 0x7F);
    assert!(mul_ev.contains(Event8::SATURATED));
    let a = vec![0x7Fu8; m * k];
    let b = vec![0x7Fu8; k * n];
    let mut want = vec![0u8; m * n];
    let want_s = ArithCtx::labeled("status-test-overflow")
        .with_tier(KernelTier::Scalar)
        .matmul8(fmt, &a, &b, &mut want, m, k, n);
    let macs = (m * k * n) as u64;
    assert_eq!(want_s.ops(), 2 * macs);
    assert!(want_s.saturated() >= macs, "every multiply saturates");
    for tier in [KernelTier::Table, KernelTier::Parallel] {
        let mut out = vec![0u8; m * n];
        let s = ArithCtx::labeled("status-test-overflow")
            .with_tier(tier)
            .matmul8(fmt, &a, &b, &mut out, m, k, n);
        assert_eq!(out, want, "{tier} codes");
        assert_eq!(s, want_s, "{tier} counters");
    }
}
