//! `lint.toml` policy loading.
//!
//! The build environment is dependency-free, so this module parses the
//! small TOML subset the policy file actually uses: `[workspace]` and
//! `[rules.<id>]` headers, `key = ["a", "b"]` arrays of strings (single-
//! or multi-line), plus `#` comments. Anything else (an unknown section,
//! rule id or key, or another kind of value) is an error at its line, so
//! a typo cannot quietly leave a rule with nothing to scan.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::rules::ALL_RULES;

/// Config-file error with the file it was read from and a line number.
#[derive(Debug, Clone)]
pub struct ConfigError {
    /// The path [`Config::load`] read, or `lint.toml` for text given to
    /// [`Config::parse`].
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// One rule's policy: where it applies and where it is waived.
#[derive(Debug, Clone, Default)]
pub struct RulePolicy {
    /// Path prefixes (workspace-relative) the rule scans. Empty = off.
    pub paths: Vec<String>,
    /// Path prefixes exempt from the rule (conversion shims, benches …).
    pub allow_paths: Vec<String>,
}

impl RulePolicy {
    /// Whether `rel` (a workspace-relative path) is scanned by this rule.
    #[must_use]
    pub fn applies_to(&self, rel: &str) -> bool {
        self.paths.iter().any(|p| path_has_prefix(rel, p))
            && !self.allow_paths.iter().any(|p| path_has_prefix(rel, p))
    }
}

/// Whether `rel` equals `prefix` or sits underneath it as a directory.
#[must_use]
fn path_has_prefix(rel: &str, prefix: &str) -> bool {
    rel == prefix
        || rel
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// The whole lint policy.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes excluded from every rule (fixtures, target …).
    pub exclude: Vec<String>,
    /// Per-rule policies keyed by rule id.
    pub rules: BTreeMap<String, RulePolicy>,
}

impl Config {
    /// Policy for `rule` (a default empty policy when unconfigured).
    #[must_use]
    pub fn rule(&self, rule: &str) -> RulePolicy {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Whether `rel` is globally excluded.
    #[must_use]
    pub fn excluded(&self, rel: &str) -> bool {
        self.exclude.iter().any(|p| path_has_prefix(rel, p))
    }

    /// Loads and parses a policy file.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on unreadable files, syntax outside the
    /// supported subset, or an unknown section, rule id or key.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let file = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| ConfigError {
            file: file.clone(),
            line: 0,
            message: format!("cannot read: {e}"),
        })?;
        Self::parse(&text).map_err(|e| ConfigError { file, ..e })
    }

    /// Parses policy text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on syntax outside the supported subset, or
    /// an unknown section, rule id or key.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = Self::default();
        let mut section: Option<Section> = None;
        let lines: Vec<&str> = text.lines().collect();
        let mut i = 0;
        while i < lines.len() {
            let lineno = i + 1;
            let at = |message: String| ConfigError {
                file: "lint.toml".into(),
                line: lineno,
                message,
            };
            let mut line = strip_comment(lines[i]).trim().to_string();
            i += 1;
            if line.is_empty() {
                continue;
            }
            // Multi-line arrays: keep consuming until the bracket closes.
            while line.contains('=')
                && line
                    .split_once('=')
                    .is_some_and(|(_, v)| v.trim_start().starts_with('[') && !array_closed(v))
            {
                let Some(next) = lines.get(i) else { break };
                line.push(' ');
                line.push_str(strip_comment(next).trim());
                i += 1;
            }
            let line = line.as_str();
            if let Some(h) = line.strip_prefix('[') {
                let h = h
                    .strip_suffix(']')
                    .ok_or_else(|| at("unterminated section header".into()))?;
                section = Some(Section::parse(h).map_err(at)?);
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected `key = value`, got `{line}`")))?;
            let value = parse_list(val.trim()).map_err(at)?;
            *cfg.slot(section.as_ref(), key.trim()).map_err(at)? = value;
        }
        Ok(cfg)
    }

    /// The list that `key` sets in `section`.
    fn slot(&mut self, section: Option<&Section>, key: &str) -> Result<&mut Vec<String>, String> {
        match (section, key) {
            (Some(Section::Workspace), "exclude") => Ok(&mut self.exclude),
            (Some(Section::Rule(rule)), "paths") => {
                Ok(&mut self.rules.entry(rule.clone()).or_default().paths)
            }
            (Some(Section::Rule(rule)), "allow_paths") => {
                Ok(&mut self.rules.entry(rule.clone()).or_default().allow_paths)
            }
            (Some(Section::Workspace), _) => Err(format!(
                "unknown [workspace] key `{key}` (expected `exclude`)"
            )),
            (Some(Section::Rule(rule)), _) => Err(format!(
                "unknown [rules.{rule}] key `{key}` (expected `paths` or `allow_paths`)"
            )),
            (None, _) => Err(format!("key `{key}` outside any section")),
        }
    }
}

/// A `[...]` table of the policy file.
enum Section {
    Workspace,
    Rule(String),
}

impl Section {
    /// Parses a header's name: `workspace` or `rules.<id>` with `<id>` in
    /// [`ALL_RULES`].
    fn parse(name: &str) -> Result<Self, String> {
        let parts: Vec<&str> = name.split('.').map(str::trim).collect();
        match parts.as_slice() {
            ["workspace"] => Ok(Self::Workspace),
            ["rules", rule] if ALL_RULES.contains(rule) => Ok(Self::Rule((*rule).to_string())),
            ["rules", rule] => Err(format!(
                "unknown rule `{rule}` (known: {})",
                ALL_RULES.join(", ")
            )),
            _ => Err(format!("unsupported section [{name}]")),
        }
    }
}

/// Whether an array value's `[` is matched by a closing `]` outside
/// quotes.
fn array_closed(v: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    for c in v.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

/// Removes a trailing `#` comment (respecting quoted strings).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `["a", "b"]`, the one kind of value the policy uses.
fn parse_list(v: &str) -> Result<Vec<String>, String> {
    let inner = v
        .strip_prefix('[')
        .ok_or_else(|| format!("expected an array of strings, got `{v}`"))?
        .strip_suffix(']')
        .ok_or_else(|| "unterminated array".to_string())?;
    split_top_level(inner)
        .into_iter()
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .map(String::from)
                .ok_or_else(|| format!("arrays may only contain strings, got `{part}`"))
        })
        .collect()
}

/// Splits an array body on commas that are outside quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_real_schema() {
        let cfg = Config::parse(
            r#"
# policy
[workspace]
exclude = ["target", "tools/nga-lint/tests/fixtures"]

[rules.no-host-float]
paths = ["crates/core/src", "crates/softfloat/src"]
allow_paths = ["crates/softfloat/src/value.rs"]
"#,
        )
        .expect("parses");
        assert!(cfg.excluded("target/debug/foo.rs"));
        assert!(!cfg.excluded("crates/core/src/posit.rs"));
        let r1 = cfg.rule("no-host-float");
        assert!(r1.applies_to("crates/core/src/posit.rs"));
        assert!(r1.applies_to("crates/softfloat/src/arith.rs"));
        assert!(!r1.applies_to("crates/softfloat/src/value.rs"));
        assert!(!r1.applies_to("crates/nn/src/layers.rs"));
    }

    #[test]
    fn multi_line_arrays_with_comments() {
        let cfg = Config::parse(
            "[rules.no-host-float]\npaths = [\n    \"a/b\",  # first\n    \"c/d\",\n]\n",
        )
        .expect("parses");
        assert_eq!(cfg.rule("no-host-float").paths, ["a/b", "c/d"]);
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        assert!(path_has_prefix("crates/core/src/a.rs", "crates/core"));
        assert!(!path_has_prefix("crates/core2/src/a.rs", "crates/core"));
        assert!(path_has_prefix("crates/core", "crates/core"));
    }

    #[track_caller]
    fn error_line(text: &str) -> usize {
        match Config::parse(text) {
            Ok(cfg) => panic!("accepted {text:?} as {cfg:?}"),
            Err(e) => e.line,
        }
    }

    #[test]
    fn rejects_bad_syntax() {
        assert_eq!(error_line("[workspace\n"), 1);
        assert_eq!(error_line("[workspace]\nexclude = [\"a\"\n"), 2);
        assert_eq!(error_line("key_without_section = [\"a\"]\n"), 1);
        assert_eq!(error_line("[workspace]\nexclude = [\"a\", 3]\n"), 2);
        // A misspelt rule id, key or value type would leave a rule with
        // no paths, and so scanning nothing.
        assert_eq!(error_line("[workspace]\n\n[rules.no-host-flaot]\n"), 3);
        assert_eq!(error_line("[rules.no-host-float]\npath = [\"a\"]\n"), 2);
        assert_eq!(
            error_line("[rules.no-host-float]\n# one\npaths = \"a\"\n"),
            3
        );
        assert_eq!(
            error_line("[rules.no-host-float]\npaths = [\"a\"]\ncode_bits = 8\n"),
            3
        );
    }
}
