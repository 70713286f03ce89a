//! nga-lint: the workspace invariant checker.
//!
//! A dependency-free static-analysis pass that makes the repo's
//! methodological claims machine-checked on every build:
//!
//! * **R1 `no-host-float`** — no host-FPU types/literals/casts in the
//!   bit-exact cores outside explicit conversion boundaries.
//! * **R2 `no-panic`** — no `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   computed indexing in arithmetic-crate library paths.
//! * **R3 `no-unsafe`** — no `unsafe` anywhere; crate roots must carry
//!   `#![forbid(unsafe_code)]`.
//! * **R4 `kernel-consistency`** — `KernelTier::ALL` lists every tier and
//!   the equivalence tests run them; LUT shapes agree with the format enum.
//! * **R5 `no-env-time`** — no ambient `std::env`/`std::time` reads
//!   outside kernel selection and benches.
//! * **R6 `ctx-single-source`** — `NGA_KERNEL` is read in exactly one
//!   place (`KernelTier::from_env`); tier selection elsewhere must go
//!   through `KernelTier`/`ArithCtx::with_tier`.
//!
//! Policy lives in `lint.toml`; per-site waivers use
//! `// lint: allow(<rule>): <reason>` annotations (reason mandatory).
//! See [`explain::explain`] for the full contract of each rule.

pub mod config;
pub mod explain;
pub mod kernel_check;
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
    let no_panic = cfg.rule(rules::NO_PANIC);
    let no_unsafe = cfg.rule(rules::NO_UNSAFE);
    let env_time = cfg.rule(rules::NO_ENV_TIME);
    let ctx_single = cfg.rule(rules::CTX_SINGLE_SOURCE);
    let forbid_roots = no_unsafe.list("forbid_attr_crate_roots").to_vec();
    let check_indexing = no_panic.flag("check_indexing", false);
    let indexing_allow = no_panic.list("indexing_allow_paths").to_vec();

    let mut files_scanned = 0usize;
    for rel in &files {
        let r1 = host_float.applies_to(rel);
        let r2 = no_panic.applies_to(rel);
        let r3 = no_unsafe.applies_to(rel);
        let r5 = env_time.applies_to(rel);
        let r6 = ctx_single.applies_to(rel);
        let forbid = forbid_roots.iter().any(|p| p == rel);
        if !(r1 || r2 || r3 || r5 || r6 || forbid) {
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
        if r1 {
            rules::scan_host_float(&ctx, &mut findings);
        }
        if r2 {
            let idx = check_indexing
                && !indexing_allow
                    .iter()
                    .any(|p| config::path_has_prefix(rel, p));
            rules::scan_panic(&ctx, idx, &mut findings);
        }
        if r3 {
            rules::scan_unsafe(&ctx, &mut findings);
        }
        if forbid {
            rules::check_forbid_attr(&ctx, &mut findings);
        }
        if r5 {
            rules::scan_env_time(&ctx, &mut findings);
        }
        if r6 {
            rules::scan_ctx_single_source(&ctx, &mut findings);
        }
    }

    kernel_check::run(root, &cfg.rule(rules::KERNEL_CONSISTENCY), &mut findings);

    let mut result = LintResult {
        findings,
        files_scanned,
    };
    result.sort();
    result
}
