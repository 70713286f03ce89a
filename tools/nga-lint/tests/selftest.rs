//! Fixture self-tests: R1 must fire on the seeded violations in
//! `tests/fixtures/` with the right rule id and file:line, the real
//! workspace must lint clean, and the policy must still cover the tree.
//! The rules rustc and clippy enforce have their own fixture crate
//! (`tests/fixtures/clippy/`, gated by `scripts/clippy-fixture.sh`); the
//! tests here keep its copy of the workspace lint policy in step with the
//! real one.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use nga_lint::report::LintResult;
use nga_lint::{lint_workspace, path_has_prefix, ALLOWLIST, ROOTS};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lint of the fixture tree, whose `crates/softfloat/src` is one of
/// the real policy's roots and holds one of its allowlisted files.
fn fixture() -> &'static LintResult {
    static RESULT: OnceLock<LintResult> = OnceLock::new();
    RESULT.get_or_init(|| lint_workspace(&fixtures_root()))
}

#[track_caller]
fn assert_fires(rule: &str, path: &str, line: usize) {
    let findings = &fixture().findings;
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rule && f.path == path && f.line == line),
        "expected [{rule}] at {path}:{line}; got:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[track_caller]
fn assert_silent_at(path: &str, line: usize) {
    let hits: Vec<_> = fixture()
        .findings
        .iter()
        .filter(|f| f.path == path && f.line == line)
        .collect();
    assert!(
        hits.is_empty(),
        "unexpected findings at {path}:{line}: {hits:?}"
    );
}

#[test]
fn injected_f64_op_is_flagged_with_file_and_line() {
    // `a as f64 * b as f64` and the `1.5` literal.
    assert_fires("no-host-float", "crates/softfloat/src/arith.rs", 4);
    assert_fires("no-host-float", "crates/softfloat/src/arith.rs", 5);
}

#[test]
fn allowlisted_conversion_module_is_exempt() {
    assert_eq!(
        fixture().scanned,
        [
            "crates/softfloat/src/arith.rs",
            "crates/softfloat/src/waivers.rs"
        ],
        "value.rs is allowlisted"
    );
    assert!(
        fixture()
            .findings
            .iter()
            .all(|f| f.path != "crates/softfloat/src/value.rs"),
        "{:?}",
        fixture().findings
    );
}

#[test]
fn reasoned_waiver_suppresses_and_reasonless_waiver_is_itself_flagged() {
    // Lines 3-7 are a region opened with a reason.
    assert_silent_at("crates/softfloat/src/waivers.rs", 5);
    // Line 9 opens a region without a reason: the annotation itself is a
    // finding and grants no waiver, so line 13's end has no start.
    assert_fires("lint-annotation", "crates/softfloat/src/waivers.rs", 9);
    assert_fires("no-host-float", "crates/softfloat/src/waivers.rs", 11);
    assert_fires("lint-annotation", "crates/softfloat/src/waivers.rs", 13);
}

#[test]
fn real_workspace_lints_clean() {
    let root = workspace_root();
    let result = lint_workspace(&root);
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
    // R1 read every file its policy covers, counted here by an
    // independent walk of its roots less its allowlisted files.
    let covered = |paths: &[&str]| paths.iter().map(|p| count_rs(&root.join(p))).sum::<usize>();
    let want = covered(ROOTS) - covered(ALLOWLIST);
    assert!(want > 25, "R1 covers the bit-exact cores");
    assert_eq!(result.scanned.len(), want, "every R1 file scanned");
    println!("nga-lint: clean ({want} files scanned)");
}

#[test]
fn policy_covers_the_tree() {
    // A renamed crate directory or module would otherwise shrink what R1
    // scans without failing anything.
    let root = workspace_root();
    for path in ROOTS.iter().chain(ALLOWLIST) {
        assert!(
            root.join(path).exists(),
            "policy path {path} does not exist"
        );
    }
    for a in ALLOWLIST {
        assert!(
            ROOTS.iter().any(|r| path_has_prefix(a, r)),
            "allowlisted {a} is under no root"
        );
    }
    let scanned = lint_workspace(&root).scanned;
    for r in ROOTS {
        assert!(
            scanned.iter().any(|f| path_has_prefix(f, r)),
            "root {r} contributes no scanned file"
        );
    }
}

/// `.rs` files at `path`: the file itself, or every one below a directory.
/// A path that does not exist has none.
fn count_rs(path: &Path) -> usize {
    if !path.is_dir() {
        return usize::from(path.is_file() && path.extension().is_some_and(|e| e == "rs"));
    }
    std::fs::read_dir(path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .map(|entry| count_rs(&entry.expect("directory entry").path()))
        .sum()
}

/// The crate roots whose library code must be panic-free: each denies
/// the clippy panic lints the fixture crate copies.
const PANIC_FREE_ROOTS: &[&str] = &[
    "crates/core/src/lib.rs",
    "crates/softfloat/src/lib.rs",
    "crates/fixedpoint/src/lib.rs",
    "crates/kernels/src/lib.rs",
    "crates/obs/src/lib.rs",
    "tools/nga-oracle/src/lib.rs",
    "tools/nga-oracle/src/main.rs",
];

/// The non-blank, non-comment lines of TOML table `[name]` in `text`.
fn toml_table(text: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// The first `#![deny(…)]` crate attribute in `src`, whitespace removed.
fn deny_attr(src: &str) -> Option<String> {
    let start = src.find("#![deny(")?;
    let len = src.get(start..)?.find(")]")? + 2;
    Some(src.get(start..start + len)?.split_whitespace().collect())
}

#[test]
fn clippy_fixture_copies_the_workspace_lint_tables() {
    let workspace = read(&workspace_root().join("Cargo.toml"));
    let fixture = read(&fixtures_root().join("clippy/Cargo.toml"));
    for tool in ["rust", "clippy"] {
        let want = toml_table(&workspace, &format!("workspace.lints.{tool}"));
        assert!(!want.is_empty(), "[workspace.lints.{tool}] is missing");
        assert_eq!(
            toml_table(&fixture, &format!("lints.{tool}")),
            want,
            "the clippy fixture's [lints.{tool}] must copy [workspace.lints.{tool}]"
        );
    }
}

#[test]
fn clippy_fixture_copies_the_panic_free_deny_list() {
    let root = workspace_root();
    let want = deny_attr(&read(&fixtures_root().join("clippy/src/lib.rs")))
        .expect("the clippy fixture carries the deny list");
    for rel in PANIC_FREE_ROOTS {
        assert_eq!(
            deny_attr(&read(&root.join(rel))).as_deref(),
            Some(want.as_str()),
            "{rel} must deny the clippy panic lints the fixture copies"
        );
    }
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "compat", "tools"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("member directory") {
            let manifest = entry.expect("directory entry").path().join("Cargo.toml");
            if manifest.exists() {
                manifests.push(manifest);
            }
        }
    }
    for manifest in manifests {
        assert_eq!(
            toml_table(&read(&manifest), "lints"),
            ["workspace = true"],
            "{} must opt in with `[lints] workspace = true`",
            manifest.display()
        );
    }
}
