//! Exhaustive operation tables for 8-bit formats.
//!
//! A binary op over 8-bit codes has exactly 2¹⁶ input pairs, so the whole
//! function fits in 64 KiB — smaller than most L2 caches. Tables are
//! built once per process behind [`std::sync::OnceLock`]s from the
//! bit-exact scalar ops, then every kernel multiply/add is a single
//! indexed load.

use std::sync::OnceLock;

use nga_approx::ApproxMultiplier;

use crate::format8::Format8;

/// An exhaustive `u8 × u8 → u8` operation table (64 KiB), carrying an
/// FNV-1a checksum of its contents taken at build time.
///
/// On an edge device, 64 KiB of SRAM holding the entire arithmetic of a
/// format is a single-event-upset target: one flipped bit silently
/// corrupts every MAC that touches that entry. The stored checksum lets
/// integrity be re-verified at any point ([`Self::verify`]) so callers
/// can fall back to the scalar tier ([`crate::KernelTier::Scalar`]) when
/// a table has been damaged; [`Self::corrupt_entry`] is the
/// fault-injection hook that models the upset (it deliberately does
/// *not* refresh the checksum).
pub struct BinaryTable {
    entries: Box<[u8; 65536]>,
    checksum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl BinaryTable {
    /// Builds the table by evaluating `op` on all 65 536 input pairs.
    #[must_use]
    pub fn build(op: impl Fn(u8, u8) -> u8) -> Self {
        let mut entries = Box::new([0u8; 65536]);
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                // lint: allow(no-panic): (a << 8) | b < 65536 by construction
                entries[(usize::from(a) << 8) | usize::from(b)] = op(a, b);
            }
        }
        let checksum = fnv1a(entries.as_slice());
        Self { entries, checksum }
    }

    /// Looks up `op(a, b)`.
    #[inline(always)]
    #[must_use]
    pub fn get(&self, a: u8, b: u8) -> u8 {
        // Indexing [u8; 65536] with (a << 8) | b is always in bounds, so
        // the bounds check compiles away.
        // lint: allow(no-panic): (a << 8) | b < 65536 by construction
        self.entries[(usize::from(a) << 8) | usize::from(b)]
    }

    /// The FNV-1a checksum recorded when the table was built.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the checksum and compares it against the build-time
    /// value: `false` means the entries have been corrupted since build.
    #[must_use]
    pub fn verify(&self) -> bool {
        fnv1a(self.entries.as_slice()) == self.checksum
    }

    /// Fault-injection hook: XORs `mask` into the entry for `(a, b)`,
    /// modeling a single-event upset in table SRAM. The stored checksum
    /// is left untouched, so [`Self::verify`] reports the damage.
    pub fn corrupt_entry(&mut self, a: u8, b: u8, mask: u8) {
        // lint: allow(no-panic): (a << 8) | b < 65536 by construction
        self.entries[(usize::from(a) << 8) | usize::from(b)] ^= mask;
    }
}

impl std::fmt::Debug for BinaryTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinaryTable").finish_non_exhaustive()
    }
}

static MUL_TABLES: [OnceLock<BinaryTable>; 4] = [const { OnceLock::new() }; 4];
static ADD_TABLES: [OnceLock<BinaryTable>; 4] = [const { OnceLock::new() }; 4];

/// The process-wide multiply table for `fmt` (built on first use).
#[inline]
pub fn mul_table(fmt: Format8) -> &'static BinaryTable {
    MUL_TABLES[fmt.index()].get_or_init(|| BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).0))
}

/// The process-wide addition table for `fmt` (built on first use).
#[inline]
pub fn add_table(fmt: Format8) -> &'static BinaryTable {
    ADD_TABLES[fmt.index()].get_or_init(|| BinaryTable::build(|a, b| fmt.add_scalar_events(a, b).0))
}

static MUL_EVENT_TABLES: [OnceLock<BinaryTable>; 4] = [const { OnceLock::new() }; 4];
static ADD_EVENT_TABLES: [OnceLock<BinaryTable>; 4] = [const { OnceLock::new() }; 4];

/// The process-wide multiply *event* table for `fmt`: entry `(a, b)`
/// holds [`Event8::bits`](crate::Event8::bits) of the status the scalar
/// multiply raises, so the table tier reports byte-identical status to
/// the scalar tier at one extra load per MAC.
#[inline]
pub fn mul_event_table(fmt: Format8) -> &'static BinaryTable {
    MUL_EVENT_TABLES[fmt.index()]
        .get_or_init(|| BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).1.bits()))
}

/// The process-wide addition *event* table for `fmt` (see
/// [`mul_event_table`]).
#[inline]
pub fn add_event_table(fmt: Format8) -> &'static BinaryTable {
    ADD_EVENT_TABLES[fmt.index()]
        .get_or_init(|| BinaryTable::build(|a, b| fmt.add_scalar_events(a, b).1.bits()))
}

/// Cached multiply + add tables for one format: the unit the tensor
/// kernels thread through their inner loops.
#[derive(Debug, Clone, Copy)]
pub struct LutOp {
    mul: &'static BinaryTable,
    add: &'static BinaryTable,
}

impl LutOp {
    /// The (lazily built) table pair for `fmt`.
    #[must_use]
    pub fn new(fmt: Format8) -> Self {
        Self {
            mul: mul_table(fmt),
            add: add_table(fmt),
        }
    }

    /// Table-driven multiply.
    #[inline(always)]
    #[must_use]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        self.mul.get(a, b)
    }

    /// Table-driven add.
    #[inline(always)]
    #[must_use]
    pub fn add(&self, a: u8, b: u8) -> u8 {
        self.add.get(a, b)
    }
}

/// Cached value *and* event tables for one format: the unit the
/// status-reporting tensor kernels thread through their inner loops.
/// Each multiply/add costs two loads (value + event bits) instead of one.
#[derive(Debug, Clone, Copy)]
pub struct StatusOp {
    mul: &'static BinaryTable,
    add: &'static BinaryTable,
    mul_events: &'static BinaryTable,
    add_events: &'static BinaryTable,
}

impl StatusOp {
    /// The (lazily built) value + event table quad for `fmt`.
    #[must_use]
    pub fn new(fmt: Format8) -> Self {
        Self {
            mul: mul_table(fmt),
            add: add_table(fmt),
            mul_events: mul_event_table(fmt),
            add_events: add_event_table(fmt),
        }
    }

    /// Table-driven multiply with its status events.
    #[inline(always)]
    #[must_use]
    pub fn mul(&self, a: u8, b: u8) -> (u8, crate::Event8) {
        (
            self.mul.get(a, b),
            crate::Event8::from_bits(self.mul_events.get(a, b)),
        )
    }

    /// Table-driven add with its status events.
    #[inline(always)]
    #[must_use]
    pub fn add(&self, a: u8, b: u8) -> (u8, crate::Event8) {
        (
            self.add.get(a, b),
            crate::Event8::from_bits(self.add_events.get(a, b)),
        )
    }
}

/// An exhaustive multiply-accumulate table for one approximate
/// multiplier: the product magnitude `m.multiply(|w|, a)` for all 65 536
/// `(w: i8, a: u8)` operand pairs, as `u16` (128 KiB). [`MacTable::mac`]
/// applies the sign of `w`.
///
/// This is the quantized-inference inner op (`nga-nn`'s ProxSim path):
/// one load replaces an abs/widen/multiply sequence per MAC.
pub struct MacTable {
    entries: Box<[u16; 65536]>,
}

impl MacTable {
    /// Builds the table for `m`.
    #[must_use]
    pub fn build(m: ApproxMultiplier) -> Self {
        let mut entries = Box::new([0u16; 65536]);
        for w in 0..=255u8 {
            for a in 0..=255u8 {
                // lint: allow(no-panic): (w << 8) | a < 65536 by construction
                entries[(usize::from(w) << 8) | usize::from(a)] =
                    m.multiply((w as i8).unsigned_abs(), a);
            }
        }
        Self { entries }
    }

    /// Looks up `sign(w) · m.multiply(|w|, a)`.
    #[inline(always)]
    #[must_use]
    pub fn mac(&self, w: i8, a: u8) -> i32 {
        // lint: allow(no-panic): (w << 8) | a < 65536 by construction
        let p = i32::from(self.entries[(usize::from(w as u8) << 8) | usize::from(a)]);
        if w < 0 {
            -p
        } else {
            p
        }
    }

    /// The 256 product magnitudes `m.multiply(|w|, a)` of weight `w`,
    /// indexed by activation code: a weight-stationary loop fetches it
    /// once per weight and applies the sign of `w` itself.
    #[inline(always)]
    #[must_use]
    pub fn row(&self, w: i8) -> &[u16] {
        let base = usize::from(w as u8) << 8;
        &self.entries[base..base + 256]
    }
}

impl std::fmt::Debug for MacTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MacTable").finish_non_exhaustive()
    }
}

const MAC_VARIANTS: usize = 12;

static MAC_TABLES: [OnceLock<MacTable>; MAC_VARIANTS] = [const { OnceLock::new() }; MAC_VARIANTS];

fn mac_index(m: ApproxMultiplier) -> usize {
    match m {
        ApproxMultiplier::Exact => 0,
        ApproxMultiplier::DropLsb => 1,
        ApproxMultiplier::Trunc3 => 2,
        ApproxMultiplier::Trunc5 => 3,
        ApproxMultiplier::Loa6 => 4,
        ApproxMultiplier::Drum5 => 5,
        ApproxMultiplier::Mitchell => 6,
        ApproxMultiplier::Drum4 => 7,
        ApproxMultiplier::BrokenArray8 => 8,
        ApproxMultiplier::Drum3 => 9,
        ApproxMultiplier::Trunc8 => 10,
        ApproxMultiplier::Trunc9 => 11,
    }
}

/// The process-wide MAC table for `m` (built on first use).
#[inline]
pub fn mac_table(m: ApproxMultiplier) -> &'static MacTable {
    MAC_TABLES[mac_index(m)].get_or_init(|| MacTable::build(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_scalar_spot_checks() {
        for fmt in Format8::ALL {
            let op = LutOp::new(fmt);
            for (a, b) in [(0u8, 0u8), (0x40, 0x40), (0x80, 0x23), (0xFF, 0x01)] {
                assert_eq!(op.mul(a, b), fmt.mul_scalar_events(a, b).0, "{} mul", fmt.id());
                assert_eq!(op.add(a, b), fmt.add_scalar_events(a, b).0, "{} add", fmt.id());
            }
        }
    }

    #[test]
    fn table_is_cached() {
        let a = mul_table(Format8::Posit8) as *const BinaryTable;
        let b = mul_table(Format8::Posit8) as *const BinaryTable;
        assert_eq!(a, b, "OnceLock returns the same table");
    }

    #[test]
    fn mac_table_signs() {
        let t = mac_table(ApproxMultiplier::Exact);
        assert_eq!(t.mac(3, 5), 15);
        assert_eq!(t.mac(-3, 5), -15);
        assert_eq!(t.mac(i8::MIN, 2), -256);
        assert_eq!(t.mac(0, 200), 0);
    }
}
