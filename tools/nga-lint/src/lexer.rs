//! A minimal Rust lexer: just enough token structure for invariant
//! linting, with exact handling of the places naive text search goes
//! wrong — string literals (including raw and byte strings), char
//! literals vs lifetimes, and line/block/doc comments.
//!
//! The lexer never fails: unterminated constructs consume to end of
//! file, which is the right degradation for a lint (rustc will reject
//! the file anyway).

/// Token classification. Only the distinctions the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (any base, any suffix except `f32`/`f64`).
    Int,
    /// Float literal (`1.5`, `2e9`, `3f64`, …).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'_`).
    Lifetime,
    /// Single punctuation character.
    Punct(u8),
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Literal source text of the token.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: usize,
}

/// One comment (the rules only read these for `lint:` annotations).
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment body without the `//` / `/*` framing.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: usize,
}

/// A fully lexed source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    /// Total number of source lines.
    pub lines: usize,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn take_while(&mut self, f: impl Fn(u8) -> bool) {
        while self.pos < self.src.len() && f(self.peek(0)) {
            self.bump();
        }
    }
}

/// Lexes `src` into tokens and comments.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();
    while cur.pos < cur.src.len() {
        let b = cur.peek(0);
        if b == b'/' && cur.peek(1) == b'/' {
            line_comment(&mut cur, &mut out);
        } else if b == b'/' && cur.peek(1) == b'*' {
            block_comment(&mut cur, &mut out);
        } else if b.is_ascii_whitespace() {
            cur.bump();
        } else if is_ident_start(b) {
            ident_or_prefixed_literal(&mut cur, &mut out, src);
        } else if b.is_ascii_digit() {
            number(&mut cur, &mut out, src);
        } else if b == b'"' {
            string(&mut cur, &mut out, src);
        } else if b == b'\'' {
            char_or_lifetime(&mut cur, &mut out, src);
        } else {
            let line = cur.line;
            cur.bump();
            push_tok(&mut out, TokKind::Punct(b), (b as char).to_string(), line);
        }
    }
    out.lines = cur.line;
    out
}

fn push_tok(out: &mut Lexed, kind: TokKind, text: String, line: usize) {
    out.toks.push(Tok { kind, text, line });
}

fn line_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let start = cur.pos + 2;
    cur.take_while(|b| b != b'\n');
    let text = String::from_utf8_lossy(&cur.src[start.min(cur.pos)..cur.pos]).into_owned();
    out.comments.push(Comment { text, line });
}

fn block_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    cur.bump();
    cur.bump();
    let start = cur.pos;
    let mut depth = 1usize;
    let mut end = cur.pos;
    while cur.pos < cur.src.len() {
        if cur.peek(0) == b'/' && cur.peek(1) == b'*' {
            depth += 1;
            cur.bump();
            cur.bump();
        } else if cur.peek(0) == b'*' && cur.peek(1) == b'/' {
            depth -= 1;
            end = cur.pos;
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
        } else {
            cur.bump();
        }
    }
    if depth != 0 {
        end = cur.pos;
    }
    let text = String::from_utf8_lossy(&cur.src[start..end]).into_owned();
    out.comments.push(Comment { text, line });
}

fn ident_or_prefixed_literal(cur: &mut Cursor, out: &mut Lexed, src: &str) {
    let start = cur.pos;
    let line = cur.line;
    cur.take_while(is_ident_cont);
    let text = &src[start..cur.pos];
    // `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'` are literals, not idents.
    let next = cur.peek(0);
    match text {
        "r" | "br" | "rb" if next == b'"' || next == b'#' => {
            raw_string_tail(cur, out, src, start, line);
            return;
        }
        "b" if next == b'"' => {
            cur.bump();
            string_tail(cur, out, src, start, line);
            return;
        }
        "b" if next == b'\'' => {
            cur.bump();
            char_tail(cur, out, src, start, line);
            return;
        }
        _ => {}
    }
    push_tok(out, TokKind::Ident, text.to_string(), line);
}

fn raw_string_tail(cur: &mut Cursor, out: &mut Lexed, src: &str, start: usize, line: usize) {
    let mut hashes = 0usize;
    while cur.peek(0) == b'#' {
        hashes += 1;
        cur.bump();
    }
    if cur.peek(0) != b'"' {
        // `r#foo` raw identifier: re-lex the identifier after the hash.
        cur.take_while(is_ident_cont);
        let text = src[start..cur.pos].to_string();
        push_tok(out, TokKind::Ident, text, line);
        return;
    }
    cur.bump();
    loop {
        if cur.pos >= cur.src.len() {
            break;
        }
        if cur.bump() == b'"' {
            let mut seen = 0usize;
            while seen < hashes && cur.peek(0) == b'#' {
                seen += 1;
                cur.bump();
            }
            if seen == hashes {
                break;
            }
        }
    }
    let text = src[start..cur.pos].to_string();
    push_tok(out, TokKind::Str, text, line);
}

fn string(cur: &mut Cursor, out: &mut Lexed, src: &str) {
    let start = cur.pos;
    let line = cur.line;
    cur.bump();
    string_tail(cur, out, src, start, line);
}

fn string_tail(cur: &mut Cursor, out: &mut Lexed, src: &str, start: usize, line: usize) {
    while cur.pos < cur.src.len() {
        match cur.bump() {
            b'\\' => {
                cur.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
    let text = src[start..cur.pos].to_string();
    push_tok(out, TokKind::Str, text, line);
}

fn char_or_lifetime(cur: &mut Cursor, out: &mut Lexed, src: &str) {
    let start = cur.pos;
    let line = cur.line;
    // `'a` (no closing quote) is a lifetime; `'a'`, `'\n'` are chars.
    if is_ident_start(cur.peek(1)) && cur.peek(2) != b'\'' {
        cur.bump();
        cur.take_while(is_ident_cont);
        let text = src[start..cur.pos].to_string();
        push_tok(out, TokKind::Lifetime, text, line);
        return;
    }
    cur.bump();
    char_tail(cur, out, src, start, line);
}

fn char_tail(cur: &mut Cursor, out: &mut Lexed, src: &str, start: usize, line: usize) {
    while cur.pos < cur.src.len() {
        match cur.bump() {
            b'\\' => {
                cur.bump();
            }
            b'\'' => break,
            _ => {}
        }
    }
    let text = src[start..cur.pos].to_string();
    push_tok(out, TokKind::Char, text, line);
}

fn number(cur: &mut Cursor, out: &mut Lexed, src: &str) {
    let start = cur.pos;
    let line = cur.line;
    let mut is_float = false;
    if cur.peek(0) == b'0' && matches!(cur.peek(1), b'x' | b'X' | b'b' | b'B' | b'o' | b'O') {
        cur.bump();
        cur.bump();
        cur.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
    } else {
        cur.take_while(|b| b.is_ascii_digit() || b == b'_');
        // `1.5` is a float; `1..x`, `1.max(…)` and tuple access are not.
        if cur.peek(0) == b'.' && cur.peek(1).is_ascii_digit() {
            is_float = true;
            cur.bump();
            cur.take_while(|b| b.is_ascii_digit() || b == b'_');
        } else if cur.peek(0) == b'.' && cur.peek(1) != b'.' && !is_ident_start(cur.peek(1)) {
            // Trailing-dot float like `1.`.
            is_float = true;
            cur.bump();
        }
        if matches!(cur.peek(0), b'e' | b'E')
            && (cur.peek(1).is_ascii_digit()
                || (matches!(cur.peek(1), b'+' | b'-') && cur.peek(2).is_ascii_digit()))
        {
            is_float = true;
            cur.bump();
            if matches!(cur.peek(0), b'+' | b'-') {
                cur.bump();
            }
            cur.take_while(|b| b.is_ascii_digit() || b == b'_');
        }
        // Suffix (`u8`, `f64`, …).
        let sfx = cur.pos;
        cur.take_while(is_ident_cont);
        let suffix = &src[sfx..cur.pos];
        if suffix == "f32" || suffix == "f64" {
            is_float = true;
        }
    }
    let text = src[start..cur.pos].to_string();
    let kind = if is_float { TokKind::Float } else { TokKind::Int };
    push_tok(out, kind, text, line);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn floats_vs_ranges_vs_tuple_access() {
        let toks = kinds("let x = 1.5; for i in 0..=255u8 {} t.0 2e9 3f64 1.");
        let floats: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(floats, ["1.5", "2e9", "3f64", "1."]);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Int && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Int && t == "255u8"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r###"let s = "f64 unwrap()"; let r = r#"unsafe "quoted""#;"###);
        assert!(!toks.iter().any(|(_, t)| t == "f64" || t == "unsafe"));
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
            2
        );
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = kinds("fn f<'a>(x: &'a str, c: char) { let y = 'z'; let u = '_'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Char).count(),
            2
        );
    }

    #[test]
    fn comments_are_captured_with_position() {
        let l = lex("let a = 1; // trailing\n// own line\nlet b = 2;");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still */ fn f() {}");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.toks[0].text, "fn");
    }
}
