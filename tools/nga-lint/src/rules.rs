//! Per-file token rules and the `// lint: allow(...)` escape hatch.
//!
//! Every rule operates on the token stream from [`crate::lexer`], so
//! occurrences inside strings, comments and doc examples never count,
//! and `#[cfg(test)]` / `#[test]` items are recognised structurally and
//! skipped by the rules that only police library paths.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::report::Finding;

/// R1: host-FPU types, casts and float literals in bit-exact cores.
pub const NO_HOST_FLOAT: &str = "no-host-float";
/// Malformed or reason-less `// lint:` annotations.
pub const LINT_ANNOTATION: &str = "lint-annotation";

/// Every rule id (the `--explain` index).
pub const ALL_RULES: &[&str] = &[NO_HOST_FLOAT, LINT_ANNOTATION];

/// A lexed file plus the line classifications rules consult.
pub struct FileContext {
    pub rel: String,
    pub lexed: Lexed,
    test_lines: Vec<bool>,
    /// rule id -> suppressed inclusive line ranges.
    suppressed: BTreeMap<String, Vec<(usize, usize)>>,
}

impl FileContext {
    /// Lexes `src` and parses its annotations; malformed annotations are
    /// reported into `out`.
    #[must_use]
    pub fn new(rel: &str, src: &str, out: &mut Vec<Finding>) -> Self {
        let lexed = lex(src);
        let test_lines = mark_test_lines(&lexed);
        let mut ctx = Self {
            rel: rel.to_string(),
            lexed,
            test_lines,
            suppressed: BTreeMap::new(),
        };
        ctx.parse_annotations(out);
        ctx
    }

    /// Whether `line` is inside a `#[cfg(test)]` / `#[test]` item.
    #[must_use]
    pub fn in_test(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// Whether findings for `rule` at `line` are waived by an annotation.
    #[must_use]
    pub fn waived(&self, rule: &str, line: usize) -> bool {
        self.suppressed
            .get(rule)
            .is_some_and(|ranges| ranges.iter().any(|&(a, b)| line >= a && line <= b))
    }

    fn waive(&mut self, rule: &str, from: usize, to: usize) {
        self.suppressed
            .entry(rule.to_string())
            .or_default()
            .push((from, to));
    }

    fn parse_annotations(&mut self, out: &mut Vec<Finding>) {
        // rule -> stack of open allow-start lines.
        let mut open: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let comments = self.lexed.comments.clone();
        let last_line = self.lexed.lines;
        for c in &comments {
            let Some(body) = annotation_body(&c.text) else {
                continue;
            };
            match parse_directive(body) {
                Ok(Directive::Allow(rules, _reason)) => {
                    let to = if c.own_line { c.line + 1 } else { c.line };
                    for r in self.check_rules(rules, c.line, out) {
                        self.waive(&r, c.line, to);
                    }
                }
                Ok(Directive::AllowStart(rules, _reason)) => {
                    for r in self.check_rules(rules, c.line, out) {
                        open.entry(r).or_default().push(c.line);
                    }
                }
                Ok(Directive::AllowEnd(rules)) => {
                    for r in self.check_rules(rules, c.line, out) {
                        match open.get_mut(&r).and_then(Vec::pop) {
                            Some(start) => self.waive(&r, start, c.line),
                            None => out.push(Finding {
                                rule: LINT_ANNOTATION,
                                path: self.rel.clone(),
                                line: c.line,
                                message: format!(
                                    "`allow-end({r})` without a matching `allow-start`"
                                ),
                            }),
                        }
                    }
                }
                Err(msg) => out.push(Finding {
                    rule: LINT_ANNOTATION,
                    path: self.rel.clone(),
                    line: c.line,
                    message: msg,
                }),
            }
        }
        for (rule, starts) in open {
            for start in starts {
                out.push(Finding {
                    rule: LINT_ANNOTATION,
                    path: self.rel.clone(),
                    line: start,
                    message: format!("`allow-start({rule})` is never closed by `allow-end`"),
                });
                // Still honour the start so one mistake doesn't cascade.
                self.waive(&rule, start, last_line);
            }
        }
    }

    /// Validates rule ids in an annotation, reporting unknown ones.
    fn check_rules(
        &self,
        rules: Vec<String>,
        line: usize,
        out: &mut Vec<Finding>,
    ) -> Vec<String> {
        let mut ok = Vec::new();
        for r in rules {
            if ALL_RULES.contains(&r.as_str()) {
                ok.push(r);
            } else {
                out.push(Finding {
                    rule: LINT_ANNOTATION,
                    path: self.rel.clone(),
                    line,
                    message: format!("unknown rule `{r}` in lint annotation"),
                });
            }
        }
        ok
    }
}

/// Extracts the directive body from a comment that is a lint annotation.
fn annotation_body(comment: &str) -> Option<&str> {
    let t = comment.trim_start_matches(['/', '!']).trim_start();
    t.strip_prefix("lint:").map(str::trim)
}

enum Directive {
    Allow(Vec<String>, String),
    AllowStart(Vec<String>, String),
    AllowEnd(Vec<String>),
}

fn parse_directive(body: &str) -> Result<Directive, String> {
    for (name, wants_reason) in [("allow-start", true), ("allow-end", false), ("allow", true)] {
        let Some(rest) = body.strip_prefix(name) else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(inner) = rest.strip_prefix('(') else {
            return Err(format!("expected `{name}(<rule>)`"));
        };
        let Some((rules, after)) = inner.split_once(')') else {
            return Err(format!("unterminated rule list in `{name}(…)`"));
        };
        let rules: Vec<String> = rules
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if rules.is_empty() {
            return Err(format!("`{name}()` names no rules"));
        }
        if wants_reason {
            let reason = after.trim_start().strip_prefix(':').map(str::trim);
            match reason {
                Some(r) if !r.is_empty() => {
                    return Ok(if name == "allow" {
                        Directive::Allow(rules, r.to_string())
                    } else {
                        Directive::AllowStart(rules, r.to_string())
                    });
                }
                _ => {
                    return Err(format!(
                        "`{name}` must carry a reason: `// lint: {name}(<rule>): <why>`"
                    ))
                }
            }
        }
        return Ok(Directive::AllowEnd(rules));
    }
    Err("unknown lint directive (expected allow / allow-start / allow-end)".to_string())
}

/// Marks the lines covered by `#[cfg(test)]` / `#[test]` items.
fn mark_test_lines(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.toks;
    let mut lines = vec![false; lexed.lines + 2];
    let mut i = 0;
    while i < toks.len() {
        if !is_punct(toks.get(i), b'#') || !is_punct(toks.get(i + 1), b'[') {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        let mut any_test = false;
        // Consume a run of consecutive outer attributes.
        let mut j = i;
        while is_punct(toks.get(j), b'#') && is_punct(toks.get(j + 1), b'[') {
            let mut depth = 0usize;
            let mut has_test = false;
            let mut has_not = false;
            let mut k = j + 1;
            while k < toks.len() {
                match &toks[k].kind {
                    TokKind::Punct(b'[') => depth += 1,
                    TokKind::Punct(b']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident => {
                        let t = toks[k].text.as_str();
                        has_test |= t == "test" || t == "bench";
                        has_not |= t == "not";
                    }
                    _ => {}
                }
                k += 1;
            }
            any_test |= has_test && !has_not;
            j = k + 1;
        }
        if !any_test {
            i = j;
            continue;
        }
        // The annotated item runs to its closing brace (or `;` for
        // brace-less items like `use`).
        let mut brace = 0usize;
        let mut end_line = attr_line;
        let mut k = j;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct(b'{') => brace += 1,
                TokKind::Punct(b'}') => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                TokKind::Punct(b';') if brace == 0 => {
                    end_line = toks[k].line;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if k >= toks.len() {
            end_line = lexed.lines;
        }
        for l in attr_line..=end_line.min(lines.len() - 1) {
            lines[l] = true;
        }
        i = k + 1;
    }
    lines
}

fn is_punct(t: Option<&Tok>, c: u8) -> bool {
    matches!(t, Some(tok) if tok.kind == TokKind::Punct(c))
}

/// Emits `f` unless the line is in a test item or waived.
fn emit(
    ctx: &FileContext,
    out: &mut Vec<Finding>,
    seen: &mut BTreeSet<(usize, String)>,
    rule: &'static str,
    line: usize,
    message: String,
) {
    if ctx.in_test(line) {
        return;
    }
    if ctx.waived(rule, line) {
        return;
    }
    if !seen.insert((line, message.clone())) {
        return;
    }
    out.push(Finding {
        rule,
        path: ctx.rel.clone(),
        line,
        message,
    });
}

/// R1: flags `f32`/`f64` identifiers (types, casts, paths) and float
/// literals outside test items.
pub fn scan_host_float(ctx: &FileContext, out: &mut Vec<Finding>) {
    let mut seen = BTreeSet::new();
    for t in &ctx.lexed.toks {
        match &t.kind {
            TokKind::Float => emit(
                ctx,
                out,
                &mut seen,
                NO_HOST_FLOAT,
                t.line,
                format!("float literal `{}` in a bit-exact core", t.text),
            ),
            TokKind::Ident if t.text == "f32" || t.text == "f64" => emit(
                ctx,
                out,
                &mut seen,
                NO_HOST_FLOAT,
                t.line,
                format!("host float type `{}` in a bit-exact core", t.text),
            ),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> (FileContext, Vec<Finding>) {
        let mut out = Vec::new();
        let c = FileContext::new("x.rs", src, &mut out);
        (c, out)
    }

    #[test]
    fn float_rule_flags_types_literals_and_casts() {
        let (c, mut out) = ctx("fn f(x: f64) -> f32 { (x * 1.5) as f32 }\n");
        scan_host_float(&c, &mut out);
        assert_eq!(out.iter().filter(|f| f.rule == NO_HOST_FLOAT).count(), 3);
    }

    #[test]
    fn float_rule_skips_tests_and_strings() {
        let src = "fn ok() -> u32 { 1 }\nconst S: &str = \"f64 1.5\";\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x = 1.5f64; }\n}\n";
        let (c, mut out) = ctx(src);
        scan_host_float(&c, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn f() { let x = 1.5; }\n";
        let (c, mut out) = ctx(src);
        scan_host_float(&c, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn allow_annotation_waives_next_line_with_reason() {
        let src = "// lint: allow(no-host-float): a reporting boundary\nfn f() -> f64 { 1.0 }\nfn g() -> f64 { 2.0 }\n";
        let (c, mut out) = ctx(src);
        assert!(out.is_empty(), "{out:?}");
        scan_host_float(&c, &mut out);
        assert_eq!(out.len(), 2, "{out:?}"); // only line 3: `f64` + `2.0`
        assert!(out.iter().all(|f| f.line == 3), "{out:?}");
    }

    #[test]
    fn allow_without_reason_is_itself_a_finding_and_waives_nothing() {
        let src = "// lint: allow(no-host-float)\nfn f() -> f64 { 0 }\n";
        let (c, mut out) = ctx(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, LINT_ANNOTATION);
        scan_host_float(&c, &mut out);
        assert!(out.iter().any(|f| f.rule == NO_HOST_FLOAT && f.line == 2), "{out:?}");
    }

    #[test]
    fn unknown_rule_in_annotation_is_a_finding() {
        let src = "// lint: allow(no-such-rule): whatever\nfn f() {}\n";
        let (_, out) = ctx(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("no-such-rule"));
    }

    #[test]
    fn region_annotations_cover_whole_functions() {
        let src = "// lint: allow-start(no-host-float): conversion boundary\nfn to_host(x: u64) -> f64 { x as f64 * 1.0 }\n// lint: allow-end(no-host-float)\nfn pure(x: u64) -> u64 { x }\nfn bad() -> f64 { 2.0 }\n";
        let (c, mut out) = ctx(src);
        assert!(out.is_empty(), "{out:?}");
        scan_host_float(&c, &mut out);
        assert_eq!(out.len(), 2, "{out:?}"); // `f64` return type + `2.0` literal
        assert!(out.iter().all(|f| f.line == 5), "{out:?}");
    }

    #[test]
    fn unclosed_region_is_reported() {
        let src = "// lint: allow-start(no-host-float): oops\nfn f() {}\n";
        let (_, out) = ctx(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("never closed"));
    }
}
