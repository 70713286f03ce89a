//! Seeded violations of the compiler-enforced workspace rules. A line
//! ending in a `//~` comment must draw exactly the lints it names from
//! clippy, and no other line may draw one.

// A copy of the deny list in the arithmetic crate roots; nga-lint's
// selftest fails when the copies drift.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub fn unwrap(v: Option<u8>) -> u8 {
    v.unwrap() //~ clippy::unwrap_used
}

pub fn expect(v: Option<u8>) -> u8 {
    v.expect("fixture") //~ clippy::expect_used
}

pub fn panics() {
    panic!("fixture") //~ clippy::panic
}

pub fn unreachable() {
    unreachable!() //~ clippy::unreachable
}

pub fn todo() {
    todo!() //~ clippy::todo
}

pub fn unimplemented() {
    unimplemented!() //~ clippy::unimplemented
}

pub fn computed_index(v: &[u8], i: usize) -> u8 {
    v[i * 2 + 1] //~ clippy::indexing_slicing
}

pub fn deref(r: &u8) -> u8 {
    let p: *const u8 = r;
    unsafe { *p } //~ unsafe_code
}

pub fn seeded() -> bool {
    std::env::var("FIXTURE_SEED").is_ok() //~ clippy::disallowed_methods
}

pub fn elapsed() -> u128 {
    let start = std::time::Instant::now(); //~ clippy::disallowed_methods clippy::disallowed_types
    start.elapsed().as_nanos()
}

#[expect(clippy::unwrap_used, reason = "stale: nothing here unwraps")] //~ unfulfilled_lint_expectations
pub fn stale() -> u8 {
    0
}

#[allow(clippy::needless_return)] //~ clippy::allow_attributes_without_reason
pub fn reasonless() -> u8 {
    return 0;
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_panic_and_index() {
        let v: &[u8] = &[1, 2];
        assert_eq!(v.first().copied().unwrap(), v[0]);
        assert_eq!(v.get(1).expect("fixture"), &v[1]);
        if v.len() > 2 {
            panic!("fixture");
        }
    }
}
