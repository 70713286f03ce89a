//! Findings and report serialization (human text and machine JSON).

use std::collections::BTreeMap;
use std::fmt;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`no-host-float` or `lint-annotation`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 for whole-file/cross-file findings).
    pub line: usize,
    /// Human message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The outcome of a full lint run.
#[derive(Debug, Default)]
pub struct LintResult {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl LintResult {
    /// Sorts findings for stable output (path, then line, then rule).
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    /// Finding counts per rule id (rules with zero findings omitted).
    #[must_use]
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for f in &self.findings {
            *m.entry(f.rule).or_insert(0) += 1;
        }
        m
    }

    /// Serializes the report as deterministic JSON (no timestamps, stable
    /// ordering) so the committed `LINT_REPORT.json` only changes when
    /// the workspace's lint status actually changes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"tool\": \"nga-lint\",\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!(
            "  \"status\": \"{}\",\n",
            if self.findings.is_empty() {
                "clean"
            } else {
                "findings"
            }
        ));
        s.push_str("  \"counts\": {");
        let counts = self.counts();
        let mut first = true;
        for (rule, n) in &counts {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    \"{rule}\": {n}"));
        }
        if !counts.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n");
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                escape(f.rule),
                escape(&f.path),
                f.line,
                escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = LintResult {
            findings: vec![
                Finding {
                    rule: "lint-annotation",
                    path: "b.rs".into(),
                    line: 2,
                    message: "unknown rule `no-such-rule` in lint annotation".into(),
                },
                Finding {
                    rule: "no-host-float",
                    path: "a.rs".into(),
                    line: 9,
                    message: "float literal \"1.5\"".into(),
                },
            ],
            files_scanned: 2,
        };
        r.sort();
        assert_eq!(r.findings[0].path, "a.rs");
        let j = r.to_json();
        assert!(j.contains("\"status\": \"findings\""));
        assert!(j.contains("\\\"1.5\\\""));
        assert!(j.contains("\"lint-annotation\": 1"));
    }

    #[test]
    fn clean_report() {
        let r = LintResult {
            findings: vec![],
            files_scanned: 5,
        };
        let j = r.to_json();
        assert!(j.contains("\"status\": \"clean\""));
        assert!(j.contains("\"findings\": []"));
    }
}
