//! Exhaustive operation tables for 8-bit formats.
//!
//! A binary op over 8-bit codes has exactly 2¹⁶ input pairs, so the whole
//! function, with the status events of every pair, fits in one 128 KiB
//! table — smaller than most L2 caches. Tables are built once per
//! process behind [`std::sync::OnceLock`]s from the bit-exact scalar
//! event ops, then every kernel multiply/add is a single indexed load.

use std::sync::OnceLock;

use nga_approx::ApproxMultiplier;

use crate::format8::Format8;
use crate::status::Event8;

/// Entries in an exhaustive table over two 8-bit operands: one per pair.
const ENTRIES: usize = 1 << (2 * u8::BITS);

/// An exhaustive `u8 × u8 → (u8, Event8)` operation table (128 KiB):
/// entry `(a, b)` holds the result code in its low byte and the
/// [`Event8::bits`] the op raises in its high byte. It carries an FNV-1a
/// checksum of both bytes of every entry, taken at build time.
///
/// On an edge device, 128 KiB of SRAM holding the entire arithmetic of a
/// format is a single-event-upset target: one flipped bit silently
/// corrupts every MAC (or its reported status) that touches that entry.
/// The stored checksum lets integrity be re-verified at any point
/// ([`Self::verify`]) so callers can fall back to the scalar tier
/// ([`crate::KernelTier::Scalar`]) when a table has been damaged;
/// [`Self::corrupt_entry`] is the fault-injection hook that models the
/// upset (it deliberately does *not* refresh the checksum).
pub struct BinaryTable {
    entries: Box<[u16; ENTRIES]>,
    checksum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the entries' little-endian bytes.
fn fnv1a(entries: &[u16]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in entries.iter().flat_map(|e| e.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Entry index of `(a, b)`: always below [`ENTRIES`].
#[inline(always)]
fn index(a: u8, b: u8) -> usize {
    (usize::from(a) << 8) | usize::from(b)
}

impl BinaryTable {
    /// Builds a value table by evaluating `op` on every input pair;
    /// every entry's events are empty.
    #[must_use]
    pub fn build(op: impl Fn(u8, u8) -> u8) -> Self {
        Self::build_with_events(|a, b| (op(a, b), Event8::NONE))
    }

    /// Builds the fused table by evaluating `op` — a result code and the
    /// events it raises — on every input pair.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "index(a, b) < ENTRIES")]
    pub fn build_with_events(op: impl Fn(u8, u8) -> (u8, Event8)) -> Self {
        let mut entries = Box::new([0u16; ENTRIES]);
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let (code, ev) = op(a, b);
                entries[index(a, b)] = u16::from(code) | u16::from(ev.bits()) << 8;
            }
        }
        let checksum = fnv1a(entries.as_slice());
        Self { entries, checksum }
    }

    /// Looks up the code of `op(a, b)`.
    #[inline(always)]
    #[must_use]
    pub fn get(&self, a: u8, b: u8) -> u8 {
        self.get_with_events(a, b).0
    }

    /// Looks up the code of `op(a, b)` and the events it raises.
    #[inline(always)]
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "index(a, b) < ENTRIES")]
    pub fn get_with_events(&self, a: u8, b: u8) -> (u8, Event8) {
        // Indexing [u16; ENTRIES] with (a << 8) | b is always in bounds,
        // so the bounds check compiles away.
        let e = self.entries[index(a, b)];
        (e as u8, Event8::from_bits((e >> 8) as u8))
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

    /// Fault-injection hook: XORs `mask` into the entry for `(a, b)` (the
    /// code in the low byte, the event bits in the high byte), modeling a
    /// single-event upset in table SRAM. The stored checksum is left
    /// untouched, so [`Self::verify`] reports the damage.
    #[expect(clippy::indexing_slicing, reason = "index(a, b) < ENTRIES")]
    pub fn corrupt_entry(&mut self, a: u8, b: u8, mask: u16) {
        self.entries[index(a, b)] ^= mask;
    }
}

impl std::fmt::Debug for BinaryTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinaryTable").finish_non_exhaustive()
    }
}

/// One lazily built table per format: the length comes from
/// `Format8::ALL`, so rustc ties the caches to the enum.
type PerFormat = [OnceLock<BinaryTable>; Format8::ALL.len()];

static MUL_TABLES: PerFormat = [const { OnceLock::new() }; Format8::ALL.len()];
static ADD_TABLES: PerFormat = [const { OnceLock::new() }; Format8::ALL.len()];

/// `fmt`'s table in `caches`, built from `op` on first use.
#[inline]
#[expect(clippy::indexing_slicing, reason = "fmt.index() < Format8::ALL.len()")]
fn cached(
    caches: &'static PerFormat,
    fmt: Format8,
    op: impl Fn(u8, u8) -> (u8, Event8),
) -> &'static BinaryTable {
    caches[fmt.index()].get_or_init(|| BinaryTable::build_with_events(op))
}

/// The process-wide multiply table for `fmt`, codes and events (built on
/// first use).
#[inline]
pub fn mul_table(fmt: Format8) -> &'static BinaryTable {
    cached(&MUL_TABLES, fmt, |a, b| fmt.mul_scalar_events(a, b))
}

/// The process-wide addition table for `fmt`, codes and events (built on
/// first use).
#[inline]
pub fn add_table(fmt: Format8) -> &'static BinaryTable {
    cached(&ADD_TABLES, fmt, |a, b| fmt.add_scalar_events(a, b))
}

/// A multiply + add table pair: the unit the status-free tensor kernels
/// thread through their inner loops. [`LutOp::new`] takes the cached
/// tables of a format; [`LutOp::from_tables`] takes the caller's own
/// (for example, tables under fault injection).
#[derive(Debug, Clone, Copy)]
pub struct LutOp<'t> {
    mul: &'t BinaryTable,
    add: &'t BinaryTable,
}

impl LutOp<'static> {
    /// The (lazily built) table pair for `fmt`.
    #[must_use]
    pub fn new(fmt: Format8) -> Self {
        Self::from_tables(mul_table(fmt), add_table(fmt))
    }
}

impl<'t> LutOp<'t> {
    /// A caller-supplied `(mul, add)` table pair.
    #[must_use]
    pub fn from_tables(mul: &'t BinaryTable, add: &'t BinaryTable) -> Self {
        Self { mul, add }
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

/// The cached multiply + add tables of one format, read with their
/// events: the unit the status-reporting tensor kernels thread through
/// their inner loops. Each multiply/add is one load, code and events.
#[derive(Debug, Clone, Copy)]
pub struct StatusOp(LutOp<'static>);

impl StatusOp {
    /// The (lazily built) table pair for `fmt`.
    #[must_use]
    pub fn new(fmt: Format8) -> Self {
        Self(LutOp::new(fmt))
    }

    /// Table-driven multiply with its status events.
    #[inline(always)]
    #[must_use]
    pub fn mul(&self, a: u8, b: u8) -> (u8, Event8) {
        self.0.mul.get_with_events(a, b)
    }

    /// Table-driven add with its status events.
    #[inline(always)]
    #[must_use]
    pub fn add(&self, a: u8, b: u8) -> (u8, Event8) {
        self.0.add.get_with_events(a, b)
    }
}

/// An exhaustive multiply-accumulate table for one approximate
/// multiplier: the product magnitude `m.multiply(|w|, a)` for every
/// `(w: i8, a: u8)` operand pair, as `u16` (128 KiB). [`MacTable::mac`]
/// applies the sign of `w`.
///
/// This is the quantized-inference inner op (`nga-nn`'s ProxSim path):
/// one load replaces an abs/widen/multiply sequence per MAC.
pub struct MacTable {
    entries: Box<[u16; ENTRIES]>,
}

impl MacTable {
    /// Builds the table for `m`.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "(w << 8) | a < ENTRIES")]
    pub fn build(m: ApproxMultiplier) -> Self {
        let mut entries = Box::new([0u16; ENTRIES]);
        for w in 0..=255u8 {
            for a in 0..=255u8 {
                entries[(usize::from(w) << 8) | usize::from(a)] =
                    m.multiply((w as i8).unsigned_abs(), a);
            }
        }
        Self { entries }
    }

    /// Looks up `sign(w) · m.multiply(|w|, a)`.
    #[inline(always)]
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "(w << 8) | a < ENTRIES")]
    pub fn mac(&self, w: i8, a: u8) -> i32 {
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
    #[expect(clippy::indexing_slicing, reason = "(w << 8) + 256 <= ENTRIES")]
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

static MAC_TABLES: [OnceLock<MacTable>; ApproxMultiplier::ALL.len()] =
    [const { OnceLock::new() }; ApproxMultiplier::ALL.len()];

/// `m`'s position in [`ApproxMultiplier::ALL`].
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
#[expect(clippy::indexing_slicing, reason = "mac_index(m) < MAC_TABLES.len()")]
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
    fn mac_index_is_the_position_in_all() {
        for (i, m) in ApproxMultiplier::ALL.into_iter().enumerate() {
            assert_eq!(mac_index(m), i, "{m}");
        }
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
