//! nga-lint: the workspace invariant checker.
//!
//! A dependency-free static-analysis pass for the invariants rustc and
//! clippy cannot express, run on every build:
//!
//! * **R1 `no-host-float`** — no host-FPU types/literals/casts in the
//!   bit-exact cores outside explicit conversion boundaries.
//!
//! The compiler enforces the rest: no `unsafe` (R3, the workspace
//! `unsafe_code = "forbid"` lint), panic-freedom of the arithmetic crates
//! (R2, clippy lints denied in their crate roots) and no ambient
//! environment or clock reads (R5, `clippy.toml`). Their waivers are
//! `#[expect(<lint>, reason = "…")]` attributes. The kernels crate's
//! `KernelTier::ALL` and `Format8::ALL` come from the same variant list
//! as their enums, and its LUT lengths from one constant, so rustc keeps
//! those consistent too.
//!
//! Policy lives in `lint.toml`; per-site waivers use
//! `// lint: allow(<rule>): <reason>` annotations (reason mandatory).
//! See [`explain::explain`] for the full contract of each rule.

pub mod config;
pub mod explain;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::path::Path;

use config::Config;
use report::{Finding, LintResult};
use rules::FileContext;

/// Lints the workspace rooted at `root` under policy `cfg`.
#[must_use]
pub fn lint_workspace(root: &Path, cfg: &Config) -> LintResult {
    let mut findings: Vec<Finding> = Vec::new();
    let files = walk::rs_files(root, &|rel| cfg.excluded(rel));

    let host_float = cfg.rule(rules::NO_HOST_FLOAT);

    let mut files_scanned = 0usize;
    for rel in &files {
        if !host_float.applies_to(rel) {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(root.join(rel)) else {
            findings.push(Finding {
                rule: rules::LINT_ANNOTATION,
                path: rel.clone(),
                line: 0,
                message: "file is not valid UTF-8 or unreadable".to_string(),
            });
            continue;
        };
        files_scanned += 1;
        let ctx = FileContext::new(rel, &src, &mut findings);
        rules::scan_host_float(&ctx, &mut findings);
    }

    let mut result = LintResult {
        findings,
        files_scanned,
    };
    result.sort();
    result
}
