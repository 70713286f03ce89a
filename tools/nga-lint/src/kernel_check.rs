//! R4 `kernel-consistency`: cross-file structural checks tying the
//! kernels crate together.
//!
//! * `KernelTier::ALL` must list every tier variant (the compiler already
//!   checks that each dispatch `match` covers them all), and the
//!   equivalence-test suite must name `KernelTier::ALL` or each variant.
//! * The per-format LUT cache arrays must have one slot per `Format8`
//!   variant (and match the `ALL` constant's declared length).
//! * LUT entry counts must equal `(1 << code_bits)²` — the exhaustive
//!   table size implied by the 8-bit format width.

use std::path::Path;

use crate::config::RulePolicy;
use crate::lexer::{int_value, lex, Lexed, Tok, TokKind};
use crate::report::Finding;
use crate::rules::KERNEL_CONSISTENCY;

fn is_punct(t: Option<&Tok>, c: u8) -> bool {
    matches!(t, Some(tok) if tok.kind == TokKind::Punct(c))
}

fn is_ident(t: Option<&Tok>, name: &str) -> bool {
    matches!(t, Some(tok) if tok.kind == TokKind::Ident && tok.text == name)
}

fn finding(path: &str, line: usize, message: String) -> Finding {
    Finding {
        rule: KERNEL_CONSISTENCY,
        path: path.to_string(),
        line,
        message,
    }
}

fn read_lexed(root: &Path, rel: &str, out: &mut Vec<Finding>) -> Option<Lexed> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(src) => Some(lex(&src)),
        Err(e) => {
            out.push(finding(rel, 0, format!("cannot read configured file: {e}")));
            None
        }
    }
}

/// The variant names of `enum <name> { … }`.
fn enum_variants(lexed: &Lexed, name: &str) -> Option<Vec<String>> {
    let toks = &lexed.toks;
    let start = toks
        .iter()
        .enumerate()
        .find(|(i, t)| is_ident(Some(t), "enum") && is_ident(toks.get(i + 1), name))
        .map(|(i, _)| i)?;
    let mut depth = 0usize;
    let mut variants = Vec::new();
    for (k, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                if depth == 1 {
                    return Some(variants);
                }
                depth -= 1;
            }
            TokKind::Ident if depth == 1 => {
                let prev = toks.get(k.wrapping_sub(1));
                if is_punct(prev, b'{') || is_punct(prev, b',') {
                    variants.push(t.text.clone());
                }
            }
            _ => {}
        }
    }
    None
}

/// The declared length of `ALL: [Self; N]`.
fn all_len(lexed: &Lexed) -> Option<(usize, u128)> {
    let toks = &lexed.toks;
    toks.iter().enumerate().find_map(|(i, t)| {
        if is_ident(Some(t), "ALL")
            && is_punct(toks.get(i + 1), b':')
            && is_punct(toks.get(i + 2), b'[')
            && is_ident(toks.get(i + 3), "Self")
            && is_punct(toks.get(i + 4), b';')
        {
            let n = toks.get(i + 5)?;
            Some((n.line, int_value(&n.text)?))
        } else {
            None
        }
    })
}

/// Checks that `<enum_name>::ALL` in `file` declares one entry per
/// variant of the enum; returns the variants.
fn check_all_len(
    root: &Path,
    file: &str,
    enum_name: &str,
    out: &mut Vec<Finding>,
) -> Option<Vec<String>> {
    let lexed = read_lexed(root, file, out)?;
    let Some(variants) = enum_variants(&lexed, enum_name) else {
        out.push(finding(file, 0, format!("enum `{enum_name}` not found")));
        return None;
    };
    let n = variants.len();
    match all_len(&lexed) {
        Some((line, len)) if len != n as u128 => out.push(finding(
            file,
            line,
            format!("`{enum_name}::ALL` declares {len} entries but the enum has {n} variants"),
        )),
        Some(_) => {}
        None => out.push(finding(file, 0, format!("`{enum_name}::ALL` not found"))),
    }
    Some(variants)
}

/// Array-length literals for `[<elem>; N]` where `elem` is an identifier
/// in `elems`: returns `(line, N)` per occurrence.
fn sized_arrays(lexed: &Lexed, elems: &[&str]) -> Vec<(usize, String, u128)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct(b'[') {
            continue;
        }
        let Some(e) = toks.get(i + 1) else { continue };
        if e.kind != TokKind::Ident || !elems.contains(&e.text.as_str()) {
            continue;
        }
        // `[u8; N]` directly, or `[OnceLock<T>; N]` with a generic hop.
        let mut j = i + 2;
        if is_punct(toks.get(j), b'<') {
            let mut depth = 0usize;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct(b'<') => depth += 1,
                    TokKind::Punct(b'>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !is_punct(toks.get(j), b';') {
            continue;
        }
        let Some(n) = toks.get(j + 1) else { continue };
        if let Some(v) = int_value(&n.text) {
            out.push((n.line, e.text.clone(), v));
        }
    }
    out
}

/// The tier enum: its `ALL` constant is what the equivalence suite and
/// the benchmarks iterate.
const TIER_ENUM: &str = "KernelTier";

/// Runs the whole R4 suite as configured by `[rules.kernel-consistency]`.
pub fn run(root: &Path, policy: &RulePolicy, out: &mut Vec<Finding>) {
    let Some(dispatch_file) = policy.string("dispatch_file") else {
        return; // rule not configured
    };
    let equivalence = policy.string("equivalence_tests").unwrap_or_default();
    let code_bits = policy.int("code_bits").unwrap_or(8) as u32;

    // 1. `KernelTier::ALL` lists every tier…
    let tiers = check_all_len(root, dispatch_file, TIER_ENUM, out);

    // 2. …and the equivalence suite runs them all.
    if let (Some(tiers), Some(lexed)) = (tiers, read_lexed(root, equivalence, out)) {
        let toks = &lexed.toks;
        let names_all = toks.windows(4).any(|w| {
            is_ident(w.first(), TIER_ENUM)
                && is_punct(w.get(1), b':')
                && is_punct(w.get(2), b':')
                && is_ident(w.get(3), "ALL")
        });
        let missing: Vec<String> = tiers
            .into_iter()
            .filter(|v| !toks.iter().any(|t| is_ident(Some(t), v)))
            .map(|v| format!("`{v}`"))
            .collect();
        if !names_all && !missing.is_empty() {
            out.push(finding(
                equivalence,
                0,
                format!(
                    "the equivalence tests name neither `{TIER_ENUM}::ALL` nor the tier(s) {}",
                    missing.join(", ")
                ),
            ));
        }
    }

    // 3. LUT cache arrays sized to the format enum; table sizes match
    //    the code width.
    let enum_file = policy.string("format_enum_file").unwrap_or_default();
    let enum_name = policy.string("format_enum").unwrap_or("Format8");
    let table_file = policy.string("table_file").unwrap_or_default();
    let nvariants = check_all_len(root, enum_file, enum_name, out).map(|v| v.len());
    if let Some(lexed) = read_lexed(root, table_file, out) {
        if let Some(n) = nvariants {
            let caches = sized_arrays(&lexed, &["OnceLock"]);
            if caches.is_empty() {
                out.push(finding(
                    table_file,
                    0,
                    "no `[OnceLock<…>; N]` per-format cache arrays found".to_string(),
                ));
            }
            for (line, _, len) in &caches {
                if *len != n as u128 && *len < 16 {
                    // Small OnceLock arrays are the per-format caches; large
                    // ones (e.g. per-approx-multiplier) are exempt.
                    out.push(finding(
                        table_file,
                        *line,
                        format!(
                            "per-format cache array has {len} slots but `{enum_name}` has \
                             {n} variants"
                        ),
                    ));
                }
            }
        }
        let expected = 1u128 << (2 * code_bits);
        let tables = sized_arrays(&lexed, &["u8", "i8", "u16", "i16", "u32", "i32"]);
        if tables.is_empty() {
            out.push(finding(
                table_file,
                0,
                "no fixed-size LUT entry arrays found".to_string(),
            ));
        }
        for (line, elem, len) in tables {
            if len != expected {
                out.push(finding(
                    table_file,
                    line,
                    format!(
                        "LUT `[{elem}; {len}]` disagrees with the exhaustive table size \
                         {expected} implied by {code_bits}-bit codes"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_enum_variants_with_discriminants() {
        let lexed = lex("pub enum Format8 { Posit8 = 0, E4m3 = 1, E5m2 = 2, Fixed8 = 3 }");
        assert_eq!(
            enum_variants(&lexed, "Format8"),
            Some(vec!["Posit8".into(), "E4m3".into(), "E5m2".into(), "Fixed8".into()])
        );
    }

    #[test]
    fn reads_all_len_and_sized_arrays() {
        let lexed = lex(
            "pub const ALL: [Self; 4] = [];\n\
             static M: [OnceLock<BinaryTable>; 4] = x;\n\
             struct T { e: Box<[u8; 65536]> }\n",
        );
        assert_eq!(all_len(&lexed).map(|(_, n)| n), Some(4));
        let arrays = sized_arrays(&lexed, &["OnceLock"]);
        assert_eq!(arrays.len(), 1);
        assert_eq!(arrays[0].2, 4);
        let luts = sized_arrays(&lexed, &["u8"]);
        assert_eq!(luts.len(), 1);
        assert_eq!(luts[0].2, 65536);
    }
}
