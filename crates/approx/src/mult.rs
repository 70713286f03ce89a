use std::fmt;

/// An 8×8 → 16 unsigned approximate multiplier.
///
/// The ten `LADDER` members span the error range of the paper's Table II
/// (MRE ≈ 0.03 % … ≈ 20 %); `Exact` is the reference array multiplier.
/// All are pure bit manipulation — no floating point anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApproxMultiplier {
    /// Exact array multiplier (reference, 0 % saving).
    Exact,
    /// Exact except the single least-significant partial product is
    /// dropped — the "almost exact" end of the ladder (Table II's id 320).
    DropLsb,
    /// Truncated array: the 3 lowest result columns are not computed.
    Trunc3,
    /// Truncated array: the 5 lowest result columns are not computed.
    Trunc5,
    /// Lower-part-OR adder multiplier: the low 6 columns are approximated
    /// by ORing partial products instead of adding them.
    Loa6,
    /// DRUM-style dynamic-range multiplier keeping 5 significant bits of
    /// each operand (unbiased rounding of the tail).
    Drum5,
    /// Mitchell's logarithmic multiplier (add the log approximations).
    Mitchell,
    /// DRUM-style with 4 significant bits.
    Drum4,
    /// Broken-array multiplier: the 8 lowest-weight partial products are
    /// omitted entirely.
    BrokenArray8,
    /// DRUM-style with 3 significant bits.
    Drum3,
    /// Truncated array: the low 8 columns are not computed.
    Trunc8,
    /// Truncated array: the low 9 columns are not computed — the deep end
    /// of the ladder (Table II's id 280, ~19 % MRE).
    Trunc9,
}

impl ApproxMultiplier {
    /// The ten approximate multipliers of the Table II reproduction,
    /// roughly ordered by increasing error.
    pub const LADDER: [Self; 10] = [
        Self::DropLsb,
        Self::Trunc3,
        Self::Loa6,
        Self::Trunc5,
        Self::Drum5,
        Self::Mitchell,
        Self::Drum4,
        Self::Trunc8,
        Self::Drum3,
        Self::Trunc9,
    ];

    /// Every multiplier, in declaration order: `Exact`, the ten `LADDER`
    /// members and `BrokenArray8`.
    pub const ALL: [Self; 12] = [
        Self::Exact,
        Self::DropLsb,
        Self::Trunc3,
        Self::Trunc5,
        Self::Loa6,
        Self::Drum5,
        Self::Mitchell,
        Self::Drum4,
        Self::BrokenArray8,
        Self::Drum3,
        Self::Trunc8,
        Self::Trunc9,
    ];

    /// Multiplies two unsigned 8-bit operands approximately.
    #[must_use]
    pub fn multiply(&self, a: u8, b: u8) -> u16 {
        let (a, b) = (u32::from(a), u32::from(b));
        let r = match self {
            Self::Exact => a * b,
            Self::DropLsb => {
                // Remove partial product a0·b0 (weight 1).
                a * b - (a & 1) * (b & 1)
            }
            Self::Trunc3 => trunc_columns(a, b, 3),
            Self::Trunc5 => trunc_columns(a, b, 5),
            Self::Trunc8 => trunc_columns(a, b, 8),
            Self::Trunc9 => trunc_columns(a, b, 9),
            Self::Loa6 => loa(a, b, 6),
            Self::Drum5 => drum(a, b, 5),
            Self::Drum4 => drum(a, b, 4),
            Self::Drum3 => drum(a, b, 3),
            Self::Mitchell => mitchell(a, b),
            Self::BrokenArray8 => broken_array(a, b, 8),
        };
        r.min(u32::from(u16::MAX)) as u16
    }

    /// Relative switched-energy estimate (exact multiplier = 64.0 units:
    /// one unit per partial-product AND plus its share of the compressor
    /// tree). Lower is cheaper.
    #[must_use]
    pub fn energy(&self) -> f64 {
        // Units: each computed partial product costs 1 (AND + its share of
        // compression); column-level tricks cost fractions.
        match self {
            Self::Exact => 64.0,
            Self::DropLsb => 63.0,      // 1 PP dropped
            Self::Trunc3 => 58.0,       // 6 PPs dropped in cols 0..3
            Self::Loa6 => 52.0,         // low-6-column adds become ORs
            Self::Trunc5 => 49.0,       // 15 PPs dropped
            Self::Drum5 => 40.0,        // 5x5 core + leading-one detectors
            Self::Mitchell => 30.0,     // two LODs, two shifts, one 16-bit add
            Self::Drum4 => 29.0,        // 4x4 core + detectors
            Self::BrokenArray8 => 56.0, // 8 low PPs dropped
            Self::Trunc8 => 24.0,       // 36 PPs dropped
            Self::Drum3 => 23.0,
            Self::Trunc9 => 20.4, // 45 PPs dropped (Table II top saving)
        }
    }

    /// A short stable identifier (used by benchmark tables).
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::DropLsb => "drop-lsb",
            Self::Trunc3 => "trunc-3",
            Self::Trunc5 => "trunc-5",
            Self::Trunc8 => "trunc-8",
            Self::Trunc9 => "trunc-9",
            Self::Loa6 => "loa-6",
            Self::Drum5 => "drum-5",
            Self::Drum4 => "drum-4",
            Self::Drum3 => "drum-3",
            Self::Mitchell => "mitchell",
            Self::BrokenArray8 => "broken-8",
        }
    }
}

impl fmt::Display for ApproxMultiplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Truncated multiplier: partial products landing in columns below `k`
/// are never generated, and nothing compensates for them.
fn trunc_columns(a: u32, b: u32, k: u32) -> u32 {
    let mut sum = 0u32;
    for i in 0..8 {
        for j in 0..8 {
            if i + j >= k {
                sum += (((a >> j) & 1) * ((b >> i) & 1)) << (i + j);
            }
        }
    }
    sum
}

/// Broken-array multiplier: omit the `count` lowest-weight partial
/// products in column-major order (cheaper rows of the array are broken
/// off).
fn broken_array(a: u32, b: u32, count: u32) -> u32 {
    let mut sum = 0u32;
    let mut dropped = 0u32;
    for w in 0..16u32 {
        for i in 0..8u32 {
            let Some(j) = w.checked_sub(i) else { continue };
            if j >= 8 {
                continue;
            }
            if dropped < count {
                dropped += 1;
                continue;
            }
            sum += (((a >> j) & 1) * ((b >> i) & 1)) << w;
        }
    }
    sum
}

/// Lower-part-OR-adder multiplier: in the low `k` columns the partial
/// products are combined by OR instead of addition (no carries generated).
fn loa(a: u32, b: u32, k: u32) -> u32 {
    let mut high = 0u32;
    let mut low_or = 0u32;
    for i in 0..8 {
        for j in 0..8 {
            let pp = ((a >> j) & 1) * ((b >> i) & 1);
            let w = i + j;
            if w >= k {
                high += pp << w;
            } else {
                low_or |= pp << w;
            }
        }
    }
    high + low_or
}

/// DRUM-style multiplier: keep the top `k` significant bits of each
/// operand starting at its leading one (with an unbiasing trailing 1),
/// multiply the small cores exactly, and shift back.
fn drum(a: u32, b: u32, k: u32) -> u32 {
    let (ka, sa) = drum_trunc(a, k);
    let (kb, sb) = drum_trunc(b, k);
    (ka * kb) << (sa + sb)
}

/// Truncates to the `k` bits below the leading one; sets the bit below
/// the cut (when cut) to 1 for unbiased expected value.
fn drum_trunc(x: u32, k: u32) -> (u32, u32) {
    if x == 0 {
        return (0, 0);
    }
    let top = 31 - x.leading_zeros();
    if top < k {
        return (x, 0);
    }
    let shift = top + 1 - k;
    let kept = (x >> shift) | 1; // unbiasing LSB
    (kept, shift)
}

/// Mitchell's logarithmic multiplier: `log2(x) ≈ top + frac`, add the
/// logs, exponentiate piecewise-linearly. Classic MRE ≈ 3.8 %.
fn mitchell(a: u32, b: u32) -> u32 {
    if a == 0 || b == 0 {
        return 0;
    }
    const F: u32 = 16; // fraction bits of the fixed-point log
    let log = |x: u32| -> u32 {
        let k = 31 - x.leading_zeros();
        let frac = if k == 0 { 0 } else { (x - (1 << k)) << (F - k) };
        (k << F) + frac
    };
    let sum = log(a) + log(b); // log2(a) + log2(b), QF
    let k = sum >> F;
    let frac = sum & ((1 << F) - 1);
    // antilog ≈ 2^k · (1 + frac)
    let one_plus = (1u64 << F) + u64::from(frac);
    ((one_plus << k) >> F) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_exact() {
        for a in (0..=255u32).step_by(3) {
            for b in (0..=255u32).step_by(5) {
                assert_eq!(
                    u32::from(ApproxMultiplier::Exact.multiply(a as u8, b as u8)),
                    a * b
                );
            }
        }
    }

    #[test]
    fn zero_times_anything_is_zero_for_all() {
        for m in ApproxMultiplier::ALL {
            for b in [0u8, 1, 7, 128, 255] {
                assert_eq!(m.multiply(0, b), 0, "{m} 0*{b}");
                assert_eq!(m.multiply(b, 0), 0, "{m} {b}*0");
            }
        }
    }

    /// The largest sum of the partial products an 8×8 array places in
    /// result columns below `k`: all that truncating those columns, or
    /// OR-ing instead of adding them, can take off the product.
    fn low_columns_weight(k: u32) -> u32 {
        let columns = (0..8).flat_map(|i| (0..8).map(move |j| i + j));
        columns.filter(|&w| w < k).map(|w| 1 << w).sum()
    }

    /// The 8 lowest-weight partial products `BrokenArray8` omits:
    /// columns 0–2 whole (1 + 2 + 3 products) and two of column 3.
    const BROKEN8_MAX_LOSS: u32 = 1 + 2 * 2 + 3 * 4 + 2 * 8;

    /// Whether `got` for the exact product `exact` is within what `m`'s
    /// construction allows.
    fn within_bound(m: ApproxMultiplier, exact: u32, got: u32) -> bool {
        use ApproxMultiplier as M;
        // Dropping, truncating or OR-ing partial products never adds to
        // the product, and loses at most their weight.
        let under = |max_loss: u32| got <= exact && exact - got <= max_loss;
        // DRUM-k moves each operand by at most 2^(1-k) of itself (the
        // cut tail below its `k` kept bits, replaced by the unbiasing 1),
        // so the product moves by at most (1 + 2^(1-k))² − 1
        // = (2^k + 1)·2^(2-2k) of itself.
        let drum = |k: u32| {
            u64::from(got.abs_diff(exact)) << (2 * k - 2) <= ((1u64 << k) + 1) * u64::from(exact)
        };
        match m {
            M::Exact => got == exact,
            // The one partial product a0·b0, of weight 1.
            M::DropLsb => under(1),
            M::Trunc3 => under(low_columns_weight(3)),
            M::Trunc5 => under(low_columns_weight(5)),
            M::Trunc8 => under(low_columns_weight(8)),
            M::Trunc9 => under(low_columns_weight(9)),
            M::Loa6 => under(low_columns_weight(6)),
            M::BrokenArray8 => under(BROKEN8_MAX_LOSS),
            M::Drum5 => drum(5),
            M::Drum4 => drum(4),
            M::Drum3 => drum(3),
            // Mitchell's piecewise-linear antilog is at least 8/9 of the
            // product (the worst case is both mantissas at 1.5), and the
            // final truncation to an integer loses less than 1 more.
            M::Mitchell => got <= exact && 9 * (exact - got) < exact + 9,
        }
    }

    #[test]
    fn every_multiplier_is_within_its_constructed_bound_exhaustively() {
        for m in ApproxMultiplier::ALL {
            for a in 0..=255u8 {
                for b in 0..=255u8 {
                    let exact = u32::from(a) * u32::from(b);
                    let got = u32::from(m.multiply(a, b));
                    assert!(
                        within_bound(m, exact, got),
                        "{m}: {a}*{b} = {got}, exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn drop_lsb_differs_only_when_both_odd() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let exact = u16::from(a) * u16::from(b);
                let got = ApproxMultiplier::DropLsb.multiply(a, b);
                if a & 1 == 1 && b & 1 == 1 {
                    assert_eq!(got, exact - 1);
                } else {
                    assert_eq!(got, exact);
                }
            }
        }
    }

    #[test]
    fn mitchell_error_is_classically_bounded() {
        // Mitchell's method always underestimates by at most ~11.1 %.
        for a in 1..=255u32 {
            for b in 1..=255u32 {
                let got = u32::from(ApproxMultiplier::Mitchell.multiply(a as u8, b as u8));
                let exact = a * b;
                assert!(got <= exact, "Mitchell never overestimates: {a}*{b}");
                let rel = (exact - got) as f64 / exact as f64;
                assert!(rel <= 0.12, "relative error {rel} at {a}*{b}");
            }
        }
    }

    #[test]
    fn drum_is_exact_for_small_operands() {
        // Operands that fit the kept width pass through exactly.
        for a in 0..32u8 {
            for b in 0..32u8 {
                assert_eq!(
                    ApproxMultiplier::Drum5.multiply(a, b),
                    u16::from(a) * u16::from(b),
                    "{a}*{b}"
                );
            }
        }
    }

    #[test]
    fn truncated_multipliers_only_err_in_low_columns() {
        for a in (0..=255u8).step_by(3) {
            for b in (0..=255u8).step_by(7) {
                let exact = i32::from(a) * i32::from(b);
                let got = i32::from(ApproxMultiplier::Trunc3.multiply(a, b));
                assert!((exact - got).abs() < 1 << 5, "error confined to 3 columns");
            }
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = ApproxMultiplier::ALL.iter().map(|m| m.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ApproxMultiplier::ALL.len());
    }

    #[test]
    fn all_is_every_variant_in_declaration_order() {
        for (i, m) in ApproxMultiplier::ALL.into_iter().enumerate() {
            assert_eq!(m as usize, i, "{m}");
        }
        // The last variant closes the list.
        let last = ApproxMultiplier::Trunc9 as usize;
        assert_eq!(last + 1, ApproxMultiplier::ALL.len());
    }
}
