//! The fault injector: independent per-bit upsets at a fixed rate.
//!
//! The model is the classic soft-error one — every stored bit flips
//! independently with probability `rate_ppm` / 1e6. Integer-only: codes
//! go in, codes come out, and all randomness is the vendored
//! [`SplitMix64`].

use crate::rng::SplitMix64;
use nga_kernels::BinaryTable;

/// A deterministic per-bit fault injector.
#[derive(Debug)]
pub struct Injector {
    rng: SplitMix64,
    flips: u64,
}

impl Injector {
    /// An injector drawing from stream `index` of `seed`.
    #[must_use]
    pub fn new(seed: u64, index: u64) -> Self {
        Self {
            rng: SplitMix64::stream(seed, index),
            flips: 0,
        }
    }

    /// Total bits flipped so far.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Upsets a code of width `bits`, flipping each bit with probability
    /// `rate_ppm` / 1e6.
    pub fn corrupt_code(&mut self, code: u16, bits: u32, rate_ppm: u32) -> u16 {
        let mut out = code;
        for bit in 0..bits {
            if self.rng.hit(rate_ppm) {
                out ^= 1 << bit;
                self.flips = self.flips.saturating_add(1);
            }
        }
        out
    }

    /// Upsets every bit of every 16-bit entry (code and event bytes) of a
    /// 128 KiB lookup table in place (checksum is left stale — detection
    /// is the point). Returns entries touched.
    pub fn corrupt_table(&mut self, table: &mut BinaryTable, rate_ppm: u32) -> u64 {
        let mut touched = 0u64;
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let mut mask = 0u16;
                for bit in 0..16 {
                    if self.rng.hit(rate_ppm) {
                        mask |= 1 << bit;
                    }
                }
                if mask != 0 {
                    table.corrupt_entry(a, b, mask);
                    self.flips = self.flips.saturating_add(u64::from(mask.count_ones()));
                    touched += 1;
                }
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nga_kernels::Format8;

    #[test]
    fn zero_rate_is_identity() {
        let mut inj = Injector::new(1, 0);
        for code in [0u16, 0x7F, 0xFFFF] {
            assert_eq!(inj.corrupt_code(code, 16, 0), code);
        }
        assert_eq!(inj.flips(), 0);
    }

    #[test]
    fn full_rate_inverts_every_bit() {
        let mut inj = Injector::new(1, 0);
        assert_eq!(inj.corrupt_code(0x00, 8, 1_000_000), 0xFF);
        assert_eq!(inj.corrupt_code(0xFFFF, 16, 1_000_000), 0x0000);
        assert_eq!(inj.flips(), 24);
    }

    #[test]
    fn same_seed_same_faults() {
        let run = || {
            let mut inj = Injector::new(99, 3);
            (0..256)
                .map(|c| inj.corrupt_code(c as u16, 8, 50_000))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn table_corruption_is_detected_by_checksum() {
        let fmt = Format8::Posit8;
        let mut table = BinaryTable::build_with_events(|a, b| fmt.mul_scalar_events(a, b));
        assert_eq!(table.checksum(), nga_kernels::mul_table(fmt).checksum());
        let mut inj = Injector::new(7, 0);
        let touched = inj.corrupt_table(&mut table, 2_000);
        assert!(touched > 0, "2000 ppm over 1 Mibit must hit something");
        assert!(!table.verify(), "stale checksum exposes the upsets");
    }
}
