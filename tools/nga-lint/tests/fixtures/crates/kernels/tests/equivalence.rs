//! Fixture equivalence suite: exercises the Good tier only.

#[test]
fn good_tier_is_exercised() {
    let _ = KernelTier::Good;
}
