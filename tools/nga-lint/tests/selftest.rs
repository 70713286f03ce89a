//! Fixture self-tests: every rule must fire on the seeded violations in
//! `tests/fixtures/` with the right rule id and file:line — and the real
//! workspace must lint clean. The rules rustc and clippy enforce have
//! their own fixture crate (`tests/fixtures/clippy/`, gated by
//! `scripts/clippy-fixture.sh`); the tests here keep its copy of the
//! workspace lint policy in step with the real one.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use nga_lint::config::Config;
use nga_lint::lint_workspace;
use nga_lint::report::Finding;

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

#[track_caller]
fn assert_silent_at(path: &str, line: usize) {
    let hits: Vec<_> = fixture_findings()
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
    assert_silent("no-host-float", "crates/softfloat/src/value.rs");
}

#[test]
fn reasoned_waiver_suppresses_and_reasonless_waiver_is_itself_flagged() {
    // Line 4 carries `// lint: allow(no-host-float): <reason>`.
    assert_silent_at("crates/softfloat/src/waivers.rs", 5);
    // Line 9 is `// lint: allow(no-host-float)` without a reason: the
    // annotation itself is a finding and grants no waiver.
    assert_fires("lint-annotation", "crates/softfloat/src/waivers.rs", 9);
    assert_fires("no-host-float", "crates/softfloat/src/waivers.rs", 10);
}

#[test]
fn real_workspace_lints_clean() {
    let root = workspace_root();
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
    // R1 read every file it is configured to cover, counted here by an
    // independent walk of its paths less its allowlisted files.
    let r1 = cfg.rule("no-host-float");
    let covered = |paths: &[String]| paths.iter().map(|p| count_rs(&root.join(p))).sum::<usize>();
    let want = covered(&r1.paths) - covered(&r1.allow_paths);
    assert!(want > 25, "R1 covers the bit-exact cores");
    assert_eq!(result.files_scanned, want, "every R1 file scanned");
}

#[test]
fn config_errors_name_the_file_that_was_loaded() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-bad-policy.toml");
    std::fs::write(&path, "[workspace]\n\n[rules.no-host-flaot]\n").expect("write policy");
    let err = Config::load(&path).expect_err("unknown rule id");
    assert_eq!(err.line, 3);
    let shown = err.to_string();
    assert!(
        shown.starts_with(&format!("{}:3: ", path.display())),
        "{shown}"
    );
    assert!(!shown.contains("lint.toml"), "{shown}");
}

/// `.rs` files at `path`: the file itself, or every one below a directory.
fn count_rs(path: &Path) -> usize {
    if !path.is_dir() {
        return usize::from(path.extension().is_some_and(|e| e == "rs"));
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
