//! `lint.toml` policy loading.
//!
//! The build environment is dependency-free, so this module parses the
//! small TOML subset the policy file actually uses: `[section.sub]`
//! headers, `key = "string"`, `key = 123` and `key = ["a", "b"]`
//! arrays of strings (single- or multi-line), plus `#` comments.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A parsed policy value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Str(String),
    Int(u64),
    List(Vec<String>),
}

/// Config-file error with a line number.
#[derive(Debug, Clone)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
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
    /// Extra per-rule keys (e.g. `dispatch_file`).
    pub extra: BTreeMap<String, Value>,
}

impl RulePolicy {
    /// Whether `rel` (a workspace-relative path) is scanned by this rule.
    #[must_use]
    pub fn applies_to(&self, rel: &str) -> bool {
        self.paths.iter().any(|p| path_has_prefix(rel, p))
            && !self.allow_paths.iter().any(|p| path_has_prefix(rel, p))
    }

    /// String policy key.
    #[must_use]
    pub fn string(&self, key: &str) -> Option<&str> {
        match self.extra.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Integer policy key.
    #[must_use]
    pub fn int(&self, key: &str) -> Option<u64> {
        match self.extra.get(key) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        }
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
    /// Returns [`ConfigError`] on unreadable files or syntax outside the
    /// supported subset.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(|e| ConfigError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::parse(&text)
    }

    /// Parses policy text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on syntax outside the supported subset.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = Self::default();
        let mut section: Vec<String> = Vec::new();
        let lines: Vec<&str> = text.lines().collect();
        let mut i = 0;
        while i < lines.len() {
            let lineno = i + 1;
            let mut line = strip_comment(lines[i]).trim().to_string();
            i += 1;
            if line.is_empty() {
                continue;
            }
            // Multi-line arrays: keep consuming until the bracket closes.
            while line.contains('=')
                && line.split_once('=').is_some_and(|(_, v)| {
                    v.trim_start().starts_with('[') && !array_closed(v)
                })
            {
                let Some(next) = lines.get(i) else { break };
                line.push(' ');
                line.push_str(strip_comment(next).trim());
                i += 1;
            }
            let line = line.as_str();
            if let Some(h) = line.strip_prefix('[') {
                let h = h.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: "unterminated section header".into(),
                })?;
                section = h.split('.').map(|s| s.trim().to_string()).collect();
                continue;
            }
            let (key, val) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected `key = value`, got `{line}`"),
            })?;
            let key = key.trim().to_string();
            let value = parse_value(val.trim(), lineno)?;
            cfg.assign(&section, key, value, lineno)?;
        }
        Ok(cfg)
    }

    fn assign(
        &mut self,
        section: &[String],
        key: String,
        value: Value,
        line: usize,
    ) -> Result<(), ConfigError> {
        match section {
            [w] if w == "workspace" => {
                if key == "exclude" {
                    if let Value::List(v) = value {
                        self.exclude = v;
                        return Ok(());
                    }
                }
                Err(ConfigError {
                    line,
                    message: format!("unsupported [workspace] key `{key}`"),
                })
            }
            [r, rule] if r == "rules" => {
                let policy = self.rules.entry(rule.clone()).or_default();
                match (key.as_str(), value) {
                    ("paths", Value::List(v)) => policy.paths = v,
                    ("allow_paths", Value::List(v)) => policy.allow_paths = v,
                    (_, v) => {
                        policy.extra.insert(key, v);
                    }
                }
                Ok(())
            }
            _ => Err(ConfigError {
                line,
                message: format!("unsupported section [{}]", section.join(".")),
            }),
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

fn parse_value(v: &str, line: usize) -> Result<Value, ConfigError> {
    if let Some(inner) = v.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| ConfigError {
            line,
            message: "arrays must close on the same line".into(),
        })?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, line)? {
                Value::Str(s) => items.push(s),
                _ => {
                    return Err(ConfigError {
                        line,
                        message: "arrays may only contain strings".into(),
                    })
                }
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(s) = v.strip_prefix('"') {
        let s = s.strip_suffix('"').ok_or_else(|| ConfigError {
            line,
            message: "unterminated string".into(),
        })?;
        return Ok(Value::Str(s.to_string()));
    }
    v.parse::<u64>().map(Value::Int).map_err(|_| ConfigError {
        line,
        message: format!("unsupported value `{v}`"),
    })
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

[rules.kernel-consistency]
dispatch_file = "crates/kernels/src/kernel.rs"
code_bits = 8
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
        assert_eq!(
            cfg.rule("kernel-consistency").string("dispatch_file"),
            Some("crates/kernels/src/kernel.rs")
        );
        assert_eq!(cfg.rule("kernel-consistency").int("code_bits"), Some(8));
    }

    #[test]
    fn multi_line_arrays_with_comments() {
        let cfg = Config::parse(
            "[rules.no-host-float]\npaths = [\n    \"a/b\",  # first\n    \"c/d\",\n]\ncode_bits = 8\n",
        )
        .expect("parses");
        let p = cfg.rule("no-host-float");
        assert_eq!(p.paths, ["a/b", "c/d"]);
        assert_eq!(p.int("code_bits"), Some(8));
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        assert!(path_has_prefix("crates/core/src/a.rs", "crates/core"));
        assert!(!path_has_prefix("crates/core2/src/a.rs", "crates/core"));
        assert!(path_has_prefix("crates/core", "crates/core"));
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(Config::parse("[workspace\n").is_err());
        assert!(Config::parse("[workspace]\nexclude = [\"a\"\n").is_err());
        assert!(Config::parse("key_without_section = 1\n").is_err());
    }
}
