//! Fixture self-tests: every rule must fire on the seeded violations in
//! `tests/fixtures/` with the right rule id and file:line — and the real
//! workspace must lint clean.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use nga_lint::config::Config;
use nga_lint::lint_workspace;
use nga_lint::report::Finding;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_findings() -> &'static [Finding] {
    static FINDINGS: OnceLock<Vec<Finding>> = OnceLock::new();
    FINDINGS.get_or_init(|| {
        let root = fixtures_root();
        let cfg = Config::load(&root.join("lint.toml")).expect("fixture policy parses");
        lint_workspace(&root, &cfg).findings
    })
}

#[track_caller]
fn assert_fires(rule: &str, path: &str, line: usize) {
    assert!(
        fixture_findings()
            .iter()
            .any(|f| f.rule == rule && f.path == path && f.line == line),
        "expected [{rule}] at {path}:{line}; got:\n{}",
        fixture_findings()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[track_caller]
fn assert_silent(rule: &str, path: &str) {
    let hits: Vec<_> = fixture_findings()
        .iter()
        .filter(|f| f.rule == rule && f.path == path)
        .collect();
    assert!(hits.is_empty(), "unexpected [{rule}] findings: {hits:?}");
}

#[test]
fn injected_f64_op_is_flagged_with_file_and_line() {
    // `a as f64 * b as f64` and the `1.5` literal.
    assert_fires("no-host-float", "crates/softfloat/src/arith.rs", 4);
    assert_fires("no-host-float", "crates/softfloat/src/arith.rs", 5);
}

#[test]
fn allowlisted_conversion_module_is_exempt() {
    assert_silent("no-host-float", "crates/softfloat/src/value.rs");
}

#[test]
fn hidden_unwrap_expect_and_computed_index_are_flagged() {
    assert_fires("no-panic", "crates/core/src/ops.rs", 4); // v.unwrap()
    assert_fires("no-panic", "crates/core/src/ops.rs", 8); // v.expect(…)
    assert_fires("no-panic", "crates/core/src/ops.rs", 12); // v[i * 2 + 1]
}

#[test]
fn reasoned_waiver_suppresses_and_reasonless_waiver_is_itself_flagged() {
    // Line 17 carries `// lint: allow(no-panic): <reason>`.
    assert!(
        !fixture_findings()
            .iter()
            .any(|f| f.path == "crates/core/src/ops.rs" && f.line == 17),
        "properly waived unwrap must not fire"
    );
    // Line 21 is `// lint: allow(no-panic)` without a reason: the
    // annotation itself is a finding and grants no waiver.
    assert_fires("lint-annotation", "crates/core/src/ops.rs", 21);
    assert_fires("no-panic", "crates/core/src/ops.rs", 22);
}

#[test]
fn test_code_may_panic() {
    let in_tests: Vec<_> = fixture_findings()
        .iter()
        .filter(|f| f.path == "crates/core/src/ops.rs" && f.line > 24)
        .collect();
    assert!(
        in_tests.is_empty(),
        "#[cfg(test)] region must be exempt from no-panic: {in_tests:?}"
    );
}

#[test]
fn unsafe_block_and_missing_forbid_attr_are_flagged() {
    assert_fires("no-unsafe", "crates/core/src/danger.rs", 4);
    assert!(
        fixture_findings()
            .iter()
            .any(|f| f.rule == "no-unsafe" && f.path == "crates/softfloat/src/lib.rs"),
        "crate root without #![forbid(unsafe_code)] must be flagged"
    );
    assert_silent("no-unsafe", "crates/core/src/lib.rs");
}

#[test]
fn ambient_env_and_time_reads_are_flagged() {
    assert_fires("no-env-time", "crates/core/src/clock.rs", 4); // std::env::var
    assert_fires("no-env-time", "crates/core/src/clock.rs", 8); // Instant::now
}

#[test]
fn second_kernel_env_read_is_flagged_but_the_documented_one_is_not() {
    // The string literal "NGA_KERNEL" on line 4 of the rogue reader.
    assert_fires("ctx-single-source", "crates/core/src/tierread.rs", 4);
    assert_silent("ctx-single-source", "crates/kernels/src/tier_env.rs");
    assert_silent("no-env-time", "crates/kernels/src/tier_env.rs");
}

#[test]
fn tier_all_omitting_a_variant_is_flagged() {
    // `KernelTier::ALL` on line 9 lists `Good` but not `Rogue`.
    assert_fires("kernel-consistency", "crates/kernels/src/kernel.rs", 9);
    // The fixture suite names `Good` but neither `KernelTier::ALL` nor
    // `Rogue`.
    assert!(
        fixture_findings().iter().any(|f| f.rule == "kernel-consistency"
            && f.path == "crates/kernels/tests/equivalence.rs"
            && f.message.contains("`Rogue`")
            && !f.message.contains("`Good`")),
        "a tier missing from the equivalence suite must be flagged"
    );
    // The fixture's `Format8` enum has a complete `ALL`.
    assert_silent("kernel-consistency", "crates/kernels/src/format8.rs");
}

#[test]
fn wrong_lut_size_is_flagged() {
    // `[u8; 64]` on line 12 disagrees with 2-bit codes (16 entries).
    assert_fires("kernel-consistency", "crates/kernels/src/table.rs", 12);
    assert!(
        !fixture_findings()
            .iter()
            .any(|f| f.path == "crates/kernels/src/table.rs" && f.line == 6),
        "the correctly sized [u8; 16] table must not be flagged"
    );
}

#[test]
fn real_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let cfg = Config::load(&root.join("lint.toml")).expect("workspace policy parses");
    let result = lint_workspace(&root, &cfg);
    assert!(
        result.findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        result
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(result.files_scanned > 100, "whole workspace scanned");
}
