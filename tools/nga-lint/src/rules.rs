//! The R1 scan and its `// lint: allow-start` … `allow-end` waivers.
//!
//! The scan operates on the token stream from [`crate::lexer`], so
//! occurrences inside strings, comments and doc examples never count,
//! and `#[cfg(test)]` / `#[test]` items are recognised structurally and
//! skipped.

use std::collections::BTreeSet;

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::report::Finding;

/// R1: host-FPU types, casts and float literals in bit-exact cores.
pub const NO_HOST_FLOAT: &str = "no-host-float";
/// Malformed, reason-less or unbalanced `// lint:` annotations.
pub const LINT_ANNOTATION: &str = "lint-annotation";

/// A lexed file plus the line classifications the scan consults.
pub struct FileContext {
    pub rel: String,
    pub lexed: Lexed,
    test_lines: Vec<bool>,
    /// Inclusive line ranges of the waiver regions.
    waived: Vec<(usize, usize)>,
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
            waived: Vec::new(),
        };
        ctx.parse_annotations(out);
        ctx
    }

    /// Whether `line` is inside a `#[cfg(test)]` / `#[test]` item.
    #[must_use]
    pub fn in_test(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// Whether `line` is inside a waiver region.
    #[must_use]
    pub fn waived(&self, line: usize) -> bool {
        self.waived.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn parse_annotations(&mut self, out: &mut Vec<Finding>) {
        let mut finding = |line: usize, message: String| {
            out.push(Finding {
                rule: LINT_ANNOTATION,
                path: self.rel.clone(),
                line,
                message,
            });
        };
        // Lines of the open `allow-start`s.
        let mut open = Vec::new();
        for c in &self.lexed.comments {
            let Some(body) = annotation_body(&c.text) else {
                continue;
            };
            match parse_directive(body) {
                Ok(Directive::AllowStart) => open.push(c.line),
                Ok(Directive::AllowEnd) => match open.pop() {
                    Some(start) => self.waived.push((start, c.line)),
                    None => finding(
                        c.line,
                        format!("`allow-end({NO_HOST_FLOAT})` without a matching `allow-start`"),
                    ),
                },
                Err(msg) => finding(c.line, msg),
            }
        }
        for start in open {
            finding(
                start,
                format!("`allow-start({NO_HOST_FLOAT})` is never closed by `allow-end`"),
            );
            // Still honour the start so one mistake doesn't cascade.
            self.waived.push((start, self.lexed.lines));
        }
    }
}

/// Extracts the directive body from a comment that is a lint annotation.
fn annotation_body(comment: &str) -> Option<&str> {
    let t = comment.trim_start_matches(['/', '!']).trim_start();
    t.strip_prefix("lint:").map(str::trim)
}

enum Directive {
    AllowStart,
    AllowEnd,
}

/// Parses `allow-start(no-host-float): <reason>` or
/// `allow-end(no-host-float)`.
fn parse_directive(body: &str) -> Result<Directive, String> {
    let (name, directive, rest) = if let Some(rest) = body.strip_prefix("allow-start") {
        ("allow-start", Directive::AllowStart, rest)
    } else if let Some(rest) = body.strip_prefix("allow-end") {
        ("allow-end", Directive::AllowEnd, rest)
    } else {
        return Err(format!(
            "unknown lint directive (expected `allow-start({NO_HOST_FLOAT}): <reason>` \
             or `allow-end({NO_HOST_FLOAT})`)"
        ));
    };
    let Some((rule, after)) = rest
        .trim_start()
        .strip_prefix('(')
        .and_then(|inner| inner.split_once(')'))
    else {
        return Err(format!("expected `{name}({NO_HOST_FLOAT})`"));
    };
    let rule = rule.trim();
    if rule != NO_HOST_FLOAT {
        return Err(format!("unknown rule `{rule}` in lint annotation"));
    }
    if let Directive::AllowStart = directive {
        let reason = after.trim_start().strip_prefix(':').map(str::trim);
        if reason.is_none_or(str::is_empty) {
            return Err(format!(
                "`{name}` must carry a reason: `// lint: {name}({NO_HOST_FLOAT}): <why>`"
            ));
        }
    }
    Ok(directive)
}

/// Marks the lines covered by items under exactly `#[test]` or
/// `#[cfg(test)]`. Any other attribute that mentions `test`, such as
/// `#[cfg(any(test, debug_assertions))]`, also compiles into non-test
/// builds, so its item is scanned.
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
            // The attribute's tokens between its outer brackets.
            let mut inner = Vec::new();
            let mut depth = 0usize;
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
                    _ => {}
                }
                if k > j + 1 {
                    inner.push(toks[k].text.as_str());
                }
                k += 1;
            }
            any_test |= matches!(inner.as_slice(), ["test"] | ["cfg", "(", "test", ")"]);
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

/// R1: flags `f32`/`f64` identifiers (types, casts, paths) and float
/// literals outside test items and waiver regions, once per line and
/// message.
pub fn scan_host_float(ctx: &FileContext, out: &mut Vec<Finding>) {
    let mut seen = BTreeSet::new();
    for t in &ctx.lexed.toks {
        let message = match &t.kind {
            TokKind::Float => format!("float literal `{}` in a bit-exact core", t.text),
            TokKind::Ident if t.text == "f32" || t.text == "f64" => {
                format!("host float type `{}` in a bit-exact core", t.text)
            }
            _ => continue,
        };
        if ctx.in_test(t.line) || ctx.waived(t.line) || !seen.insert((t.line, message.clone())) {
            continue;
        }
        out.push(Finding {
            rule: NO_HOST_FLOAT,
            path: ctx.rel.clone(),
            line: t.line,
            message,
        });
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

    fn scan(src: &str) -> Vec<Finding> {
        let (c, mut out) = ctx(src);
        scan_host_float(&c, &mut out);
        out
    }

    #[test]
    fn float_rule_flags_types_literals_and_casts() {
        let out = scan("fn f(x: f64) -> f32 { (x * 1.5) as f32 }\n");
        assert_eq!(out.iter().filter(|f| f.rule == NO_HOST_FLOAT).count(), 3);
    }

    #[test]
    fn float_rule_skips_tests_and_strings() {
        let src = "fn ok() -> u32 { 1 }\nconst S: &str = \"f64 1.5\";\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x = 1.5f64; }\n}\n";
        let out = scan(src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let out = scan("#[cfg(not(test))]\nfn f() { let x = 1.5; }\n");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cfg_any_test_is_still_linted() {
        // Compiled into every debug build, not only into tests.
        let out = scan("#[cfg(any(test, debug_assertions))]\nfn f() -> f64 { 1.5 }\n");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(
            out.iter().all(|f| f.rule == NO_HOST_FLOAT && f.line == 2),
            "{out:?}"
        );
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
    fn region_without_reason_is_itself_a_finding_and_waives_nothing() {
        let src = "// lint: allow-start(no-host-float)\nfn f() -> f64 { 0 }\n// lint: allow-end(no-host-float)\n";
        let out = scan(src);
        let annotations: Vec<_> = out.iter().filter(|f| f.rule == LINT_ANNOTATION).collect();
        // The reason-less start, then the end that has no start left.
        assert_eq!(annotations.len(), 2, "{out:?}");
        assert!(annotations[0].message.contains("reason"), "{out:?}");
        assert!(
            annotations[1].message.contains("without a matching"),
            "{out:?}"
        );
        assert!(
            out.iter().any(|f| f.rule == NO_HOST_FLOAT && f.line == 2),
            "{out:?}"
        );
    }

    #[test]
    fn unknown_rules_and_directives_are_findings() {
        for (src, says) in [
            (
                "// lint: allow-start(no-such-rule): whatever\n",
                "no-such-rule",
            ),
            (
                "// lint: allow-start(no-host-float, other): two rules\n",
                "unknown rule",
            ),
            (
                "// lint: allow(no-host-float): a one-line waiver\n",
                "unknown lint directive",
            ),
        ] {
            let (_, out) = ctx(src);
            assert_eq!(out.len(), 1, "{src}: {out:?}");
            assert!(out[0].message.contains(says), "{src}: {out:?}");
        }
    }

    #[test]
    fn unclosed_region_is_reported() {
        let (_, out) = ctx("// lint: allow-start(no-host-float): oops\nfn f() {}\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("never closed"));
    }
}
