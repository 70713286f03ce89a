//! Findings and the outcome of a lint run.

use std::fmt;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`no-host-float` or `lint-annotation`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 for a whole-file finding).
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
    /// Workspace-relative paths of the files R1 read, sorted.
    pub scanned: Vec<String>,
}
