//! nga-lint: the one workspace invariant rustc and clippy cannot express.
//!
//! **R1 `no-host-float`.** The paper's central claim is that every
//! format is implemented from bit manipulation: results must never depend
//! on the host FPU. R1 flags `f32`/`f64` identifiers (types, `as` casts,
//! paths like `f64::NAN`) and float literals in the bit-exact cores,
//! [`ROOTS`]. One stray host-float multiply there would silently corrupt
//! every LUT built from the scalar ops.
//!
//! Exemptions:
//! * items under exactly `#[test]` or `#[cfg(test)]` are skipped (any
//!   other `cfg`, such as `cfg(any(test, debug_assertions))`, compiles
//!   into some non-test build and is scanned);
//! * the conversion and analysis modules in [`ALLOWLIST`] are not
//!   scanned;
//! * a waiver region covers the lines from
//!   `// lint: allow-start(no-host-float): <why this is a conversion boundary>`
//!   to `// lint: allow-end(no-host-float)`.
//!
//! Waivers are part of the audit surface, so they are checked too: an
//! `allow-start` without a reason, a rule id other than `no-host-float`,
//! an unclosed `allow-start`, a stray `allow-end` and any other `lint:`
//! directive are `lint-annotation` findings, never silent no-ops.
//!
//! The policy is the two constants below; there is no binary and no
//! configuration file. The crate's own tests run [`lint_workspace`] over
//! the workspace, so `cargo test --workspace` fails on any finding.
//!
//! The compiler enforces the rest: no `unsafe` (the workspace
//! `unsafe_code = "forbid"` lint), panic-freedom of the arithmetic crates
//! (clippy lints denied in their crate roots) and no ambient environment
//! or clock reads (`clippy.toml`). Their waivers are
//! `#[expect(<lint>, reason = "…")]` attributes: clippy rejects a
//! reason-less `#[allow]`, and rustc reports an `#[expect]` whose lint no
//! longer fires. The kernels crate's `KernelTier::ALL` and `Format8::ALL`
//! come from the same variant list as their enums, and its LUT lengths
//! from one constant, so rustc keeps those consistent too.

mod lexer;
pub mod report;
mod rules;

use std::path::Path;

use report::{Finding, LintResult};
use rules::FileContext;

/// The bit-exact cores R1 scans, workspace-relative: a directory covers
/// every `.rs` file below it. Scalar posit/softfloat/fixed ops seed every
/// 64 KiB LUT, so one stray `f64` multiply here corrupts every downstream
/// table and figure.
pub const ROOTS: &[&str] = &[
    "crates/core/src",
    "crates/softfloat/src",
    "crates/fixedpoint/src",
    "crates/kernels/src/format8.rs", // table seed ops
    "crates/kernels/src/table.rs",   // table builders
    "tools/nga-oracle/src",          // exact-arithmetic reference
    "tools/nga-faults/src",          // injector/rng/report are integer-only
];

/// Files under [`ROOTS`] that R1 does not scan.
pub const ALLOWLIST: &[&str] = &[
    // Declared conversion/analysis boundaries: these modules exist to
    // cross between host floats and bit-exact formats, or to measure
    // accuracy *about* the formats. The arithmetic cores never call
    // through them on a compute path.
    "crates/core/src/analysis.rs",      // decimal-accuracy measurement
    "crates/softfloat/src/value.rs",    // host<->soft bit-cast shims
    "crates/softfloat/src/analysis.rs", // error/ULP measurement
    "crates/softfloat/src/interval.rs", // interval diagnostics over f64
    "crates/softfloat/src/compare.rs",  // comparisons vs host reference
    // The oracle's single declared f64 boundary: decode-only, no host
    // rounding decision (see module docs).
    "tools/nga-oracle/src/float/host.rs",
    // Fault-harness boundaries: codec bridges f32 <-> bit-exact codes
    // through the workspace cores; model/sweep compute degradation
    // metrics *about* the formats on the f32 DNN substrate.
    "tools/nga-faults/src/codec.rs",
    "tools/nga-faults/src/model.rs",
    "tools/nga-faults/src/sweep.rs",
];

/// Runs R1 over the [`ROOTS`] of the workspace at `root`. A root that
/// does not exist there contributes no files.
#[must_use]
pub fn lint_workspace(root: &Path) -> LintResult {
    let mut files = Vec::new();
    for r in ROOTS {
        rs_files(root, r, &mut files);
    }
    files.retain(|rel| !ALLOWLIST.iter().any(|a| path_has_prefix(rel, a)));
    files.sort();

    let mut result = LintResult::default();
    for rel in files {
        let Ok(src) = std::fs::read_to_string(root.join(&rel)) else {
            result.findings.push(Finding {
                rule: rules::LINT_ANNOTATION,
                path: rel,
                line: 0,
                message: "file is not valid UTF-8 or unreadable".to_string(),
            });
            continue;
        };
        let ctx = FileContext::new(&rel, &src, &mut result.findings);
        rules::scan_host_float(&ctx, &mut result.findings);
        result.scanned.push(rel);
    }
    result
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    result
}

/// Collects `rel` if it is a `.rs` file, or every `.rs` file below it if
/// it is a directory, as workspace-relative paths with `/` separators.
fn rs_files(root: &Path, rel: &str, out: &mut Vec<String>) {
    let path = root.join(rel);
    if path.is_dir() {
        for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
            let name = entry.file_name();
            rs_files(root, &format!("{rel}/{}", name.to_string_lossy()), out);
        }
    } else if rel.ends_with(".rs") && path.is_file() {
        out.push(rel.to_string());
    }
}

/// Whether `rel` equals `prefix` or sits underneath it as a directory.
#[must_use]
pub fn path_has_prefix(rel: &str, prefix: &str) -> bool {
    rel == prefix
        || rel
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching_is_component_wise() {
        assert!(path_has_prefix("crates/core/src/a.rs", "crates/core"));
        assert!(!path_has_prefix("crates/core2/src/a.rs", "crates/core"));
        assert!(path_has_prefix("crates/core", "crates/core"));
    }
}
