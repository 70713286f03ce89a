//! Fixture: per-site waivers of the host-float rule.

pub fn waived(bits: u64) -> u64 {
    // lint: allow(no-host-float): fixture-sanctioned, reason present
    (bits as f64) as u64
}

pub fn badly_waived(bits: u64) -> u64 {
    // lint: allow(no-host-float)
    (bits as f64) as u64
}

