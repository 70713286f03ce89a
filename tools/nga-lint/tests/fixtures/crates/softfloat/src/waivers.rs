//! Fixture: waiver regions of the host-float rule.

// lint: allow-start(no-host-float): fixture-sanctioned, reason present
pub fn waived(bits: u64) -> u64 {
    (bits as f64) as u64
}
// lint: allow-end(no-host-float)

// lint: allow-start(no-host-float)
pub fn badly_waived(bits: u64) -> u64 {
    (bits as f64) as u64
}
// lint: allow-end(no-host-float)
