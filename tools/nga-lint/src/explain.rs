//! `--explain <rule>`: the contract behind each rule id.

use crate::rules;

/// Long-form documentation for a rule id, or `None` if unknown.
#[must_use]
pub fn explain(rule: &str) -> Option<&'static str> {
    match rule {
        rules::NO_HOST_FLOAT => Some(
            "no-host-float (R1)\n\
             ==================\n\
             The paper's central claim is that every format is implemented from bit\n\
             manipulation: results must never depend on the host FPU. This rule flags\n\
             `f32`/`f64` identifiers (types, `as` casts, paths like `f64::NAN`) and float\n\
             literals in the configured bit-exact cores. One stray host-float multiply\n\
             would silently corrupt every LUT built from the scalar ops.\n\n\
             Exemptions: `#[cfg(test)]`/`#[test]` items are skipped; conversion shims\n\
             (e.g. softfloat's `value.rs` bit-cast boundary) are allowlisted per-path in\n\
             lint.toml; individual conversion functions use region annotations:\n\
             `// lint: allow-start(no-host-float): <why this is a conversion boundary>`\n\
             … `// lint: allow-end(no-host-float)`.",
        ),
        rules::LINT_ANNOTATION => Some(
            "lint-annotation\n\
             ===============\n\
             Escape hatches are part of the audit surface, so they are themselves\n\
             checked: `// lint: allow(<rule>): <reason>` needs a non-empty reason and a\n\
             known rule id; `allow-start` must be closed by `allow-end`. A malformed\n\
             annotation is a finding, never a silent no-op.\n\n\
             The rules rustc and clippy enforce (no `unsafe`, panic-freedom, no\n\
             ambient environment or clock reads) take `#[expect(<lint>, reason = \"…\")]`\n\
             waivers instead: clippy rejects a reason-less `#[allow]`, and rustc\n\
             reports an `#[expect]` whose lint no longer fires.",
        ),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in rules::ALL_RULES {
            assert!(explain(rule).is_some(), "missing --explain text for {rule}");
        }
        assert!(explain("bogus").is_none());
        assert_eq!(rules::ALL_RULES, ["no-host-float", "lint-annotation"]);
    }
}
