//! Hand-written lexer for the C subset.
//!
//! Tokens borrow their text from the source: an identifier is a `&str`
//! slice, and the parser copies it into a `String` only when it enters the
//! AST. The lexer is pulled one token at a time ([`Lexer::next_token`]);
//! the parser looks one token ahead and never back, so no token vector is
//! built.
//!
//! Pragma lines (`#pragma …`) are lexed as single [`TokenKind::Pragma`]
//! tokens carrying the raw directive text; the parser re-lexes the clause
//! list. Line (`//`) and block (`/* */`) comments are skipped. Backslash
//! line-continuations inside pragmas are honoured, matching how the NPB
//! sources spell long directives.

use std::borrow::Cow;
use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind<'a> {
    /// Identifier or keyword.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// A full `#pragma` line (without the leading `#pragma`). Borrowed from
    /// the source unless a continuation had to be spliced out of it.
    Pragma(Cow<'a, str>),
    /// Punctuation / operator, e.g. `+`, `<=`, `+=`, `(`, `{`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Float(v) => write!(f, "float `{v}`"),
            TokenKind::Pragma(p) => write!(f, "#pragma {p}"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source line (1-based) for error reporting.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub line: usize,
}

/// The lexer. Construct with [`Lexer::new`] and pull tokens with
/// [`Lexer::next_token`].
pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub(crate) fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src, pos: 0, line: 1 }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Advance over the bytes `keep` accepts, none of which may be `\n`.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&c| !keep(c)).unwrap_or(rest.len());
    }

    fn skip_trivia(&mut self) {
        loop {
            match (self.peek(), self.peek2()) {
                (Some(c), _) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                (Some(b'/'), Some(b'/')) => self.skip_while(|c| c != b'\n'),
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (None, _) => break,
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn lex_pragma(&mut self) -> TokenKind<'a> {
        // consume `#`
        self.bump();
        let start = self.pos;
        let rest = &self.src.as_bytes()[start..];
        let end = start + rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
        let line = &self.src[start..end];
        // strip leading "pragma"
        let body = |text: &str| -> usize {
            let trimmed = text.trim_start();
            let after = trimmed.strip_prefix("pragma").unwrap_or(trimmed);
            text.len() - after.len()
        };
        if line.is_ascii() && !line.contains('\\') {
            self.pos = end;
            return TokenKind::Pragma(Cow::Borrowed(line[body(line)..].trim()));
        }
        // a continuation (or a non-ASCII byte): splice the text byte by byte
        let mut text = String::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => break,
                Some(b'\\') => {
                    // continuation: skip backslash + newline, keep lexing
                    self.bump();
                    while matches!(self.peek(), Some(b'\r')) {
                        self.bump();
                    }
                    if matches!(self.peek(), Some(b'\n')) {
                        self.bump();
                        text.push(' ');
                    } else {
                        text.push('\\');
                    }
                }
                Some(c) => {
                    text.push(c as char);
                    self.bump();
                }
            }
        }
        TokenKind::Pragma(Cow::Owned(text[body(&text)..].trim().to_string()))
    }

    fn lex_number(&mut self) -> TokenKind<'a> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' => {
                    // avoid consuming `..` (not in subset, but be safe)
                    is_float = true;
                    self.bump();
                }
                b'e' | b'E' => {
                    is_float = true;
                    self.bump();
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.bump();
                    }
                }
                b'x' | b'X' if self.pos == start + 1 && self.src.as_bytes()[start] == b'0' => {
                    // hex literal
                    self.bump();
                    self.skip_while(|c| c.is_ascii_hexdigit());
                    let v = i64::from_str_radix(&self.src[start + 2..self.pos], 16).unwrap_or(0);
                    return TokenKind::Int(v);
                }
                _ => break,
            }
        }
        // suffixes: f F l L u U
        let text = &self.src[start..self.pos];
        while let Some(c @ (b'f' | b'F' | b'l' | b'L' | b'u' | b'U')) = self.peek() {
            is_float |= matches!(c, b'f' | b'F');
            self.bump();
        }
        if is_float {
            TokenKind::Float(text.parse::<f64>().unwrap_or(0.0))
        } else {
            TokenKind::Int(text.parse::<i64>().unwrap_or(0))
        }
    }

    fn lex_ident(&mut self) -> TokenKind<'a> {
        let start = self.pos;
        self.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_');
        TokenKind::Ident(&self.src[start..self.pos])
    }

    /// Punctuation by maximal munch, dispatched on its first byte.
    fn lex_punct(&mut self) -> Option<&'static str> {
        /// Every one-byte punctuator; the longer ones start with one of them.
        const SINGLE: &str = "<>.=!&|+-*/%^~?:;,()[]{}";
        let rest = &self.src.as_bytes()[self.pos..];
        let longer: &[&'static str] = match rest.first()? {
            b'<' => &["<<=", "<=", "<<"],
            b'>' => &[">>=", ">=", ">>"],
            b'.' => &["..."],
            b'=' => &["=="],
            b'!' => &["!="],
            b'&' => &["&&"],
            b'|' => &["||"],
            b'+' => &["++", "+="],
            b'-' => &["--", "-=", "->"],
            b'*' => &["*="],
            b'/' => &["/="],
            b'%' => &["%="],
            _ => &[],
        };
        let p = match longer.iter().find(|p| rest.starts_with(p.as_bytes())) {
            Some(p) => p,
            None => {
                let i = SINGLE.find(char::from(rest[0]))?;
                &SINGLE[i..i + 1]
            }
        };
        self.pos += p.len();
        Some(p)
    }

    /// Produce the next token; at the end of input, `Eof` every time.
    pub(crate) fn next_token(&mut self) -> Token<'a> {
        self.skip_trivia();
        let line = self.line;
        let kind = match self.peek() {
            None => TokenKind::Eof,
            Some(b'#') => self.lex_pragma(),
            Some(c) if c.is_ascii_digit() => self.lex_number(),
            Some(b'.') if matches!(self.peek2(), Some(d) if d.is_ascii_digit()) => {
                self.lex_number()
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.lex_ident(),
            Some(_) => TokenKind::Punct(self.lex_punct().unwrap_or_else(|| {
                // skip unknown byte rather than looping forever
                self.bump();
                "?"
            })),
        };
        Token { kind, line }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of `src` as the parser pulls them, up to and including
    /// the first `Eof`.
    fn tokens(src: &str) -> Vec<Token<'_>> {
        let mut lexer = Lexer::new(src);
        let mut toks = vec![lexer.next_token()];
        while toks[toks.len() - 1].kind != TokenKind::Eof {
            toks.push(lexer.next_token());
        }
        toks
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokens(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        let ks = kinds("int x = 42;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("int"),
                TokenKind::Ident("x"),
                TokenKind::Punct("="),
                TokenKind::Int(42),
                TokenKind::Punct(";"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn float_literals() {
        assert_eq!(kinds("0.5")[0], TokenKind::Float(0.5));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5e-2")[0], TokenKind::Float(0.025));
        assert_eq!(kinds("0.f")[0], TokenKind::Float(0.0));
        assert_eq!(kinds("1.0e+1")[0], TokenKind::Float(10.0));
    }

    #[test]
    fn hex_and_suffixes() {
        assert_eq!(kinds("0x10")[0], TokenKind::Int(16));
        assert_eq!(kinds("7L")[0], TokenKind::Int(7));
        assert_eq!(kinds("3u")[0], TokenKind::Int(3));
    }

    #[test]
    fn pragma_single_line() {
        let ks = kinds("#pragma acc parallel loop gang\nint x;");
        assert_eq!(ks[0], TokenKind::Pragma("acc parallel loop gang".into()));
        assert_eq!(ks[1], TokenKind::Ident("int"));
    }

    #[test]
    fn pragma_continuation() {
        let src = "#pragma acc parallel loop gang num_gangs(63)\\\n  num_workers(4)\nx;";
        let ks = kinds(src);
        match &ks[0] {
            TokenKind::Pragma(p) => {
                assert!(p.contains("num_gangs(63)"));
                assert!(p.contains("num_workers(4)"));
            }
            other => panic!("expected pragma, got {other:?}"),
        }
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("a /* block */ b // line\nc");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn maximal_munch_operators() {
        let ks = kinds("a<=b ==c+=1");
        assert_eq!(ks[1], TokenKind::Punct("<="));
        assert_eq!(ks[3], TokenKind::Punct("=="));
        assert_eq!(ks[5], TokenKind::Punct("+="));
    }

    #[test]
    fn punctuation_is_the_longest_listed_prefix() {
        // the reference: every punctuator, longest first, first match wins
        const PUNCTS: &[&str] = &[
            "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=",
            "/=", "%=", "->", "<<", ">>", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|",
            "^", "~", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
        ];
        let alphabet: Vec<char> = "<>.=!&|+-*/%^~?:;,()[]{}a".chars().collect();
        for &a in &alphabet {
            for &b in &alphabet {
                for &c in &alphabet {
                    let src = format!("{a}{b}{c}");
                    let want = PUNCTS.iter().find(|p| src.starts_with(*p)).copied();
                    assert_eq!(Lexer::new(&src).lex_punct(), want, "{src:?}");
                }
            }
        }
    }

    #[test]
    fn line_numbers_advance() {
        let toks = tokens("a\nb\n\nc");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    /// Render a token stream back to lexable text. Floats use Rust's `{:?}`,
    /// which always includes a decimal point or exponent, so they re-lex as
    /// floats; pragmas get their own line.
    fn render(tokens: &[Token]) -> String {
        let mut out = String::new();
        for t in tokens {
            match &t.kind {
                TokenKind::Ident(s) => {
                    out.push_str(s);
                    out.push(' ');
                }
                TokenKind::Int(v) => {
                    assert!(*v >= 0, "lexer never produces negative literals");
                    out.push_str(&v.to_string());
                    out.push(' ');
                }
                TokenKind::Float(v) => {
                    out.push_str(&format!("{v:?} "));
                }
                TokenKind::Pragma(p) => {
                    out.push_str(&format!("\n#pragma {p}\n"));
                }
                TokenKind::Punct(p) => {
                    out.push_str(p);
                    out.push(' ');
                }
                TokenKind::Eof => {}
            }
        }
        out
    }

    fn assert_token_roundtrip(src: &str) {
        let original = tokens(src);
        let rendered = render(&original);
        let relexed = tokens(&rendered);
        fn ks(ts: Vec<Token<'_>>) -> Vec<TokenKind<'_>> {
            ts.into_iter().map(|t| t.kind).collect()
        }
        assert_eq!(
            ks(original),
            ks(relexed),
            "token stream changed across render/relex\n--- rendered:\n{rendered}"
        );
    }

    #[test]
    fn roundtrip_pragma_heavy_kernel() {
        assert_token_roundtrip(
            "void z_solve(double lhs[64][64], double rhs[64], int nz) {\n\
             #pragma acc parallel loop gang num_gangs(63) num_workers(4) \\\n\
                 vector_length(32) present(lhs, rhs)\n\
             for (int k = 1; k < nz - 1; k++) {\n\
               #pragma acc loop vector reduction(+:sum)\n\
               for (int i = 0; i < 64; i++) {\n\
                 lhs[k][i] = lhs[k][i] - rhs[i] * 0.5 + 1e-6;\n\
               }\n\
             }\n\
             #pragma omp target teams distribute\n\
             for (int j = 0; j < 64; j++) { rhs[j] = 0.0; }\n\
             }\n",
        );
    }

    #[test]
    fn roundtrip_operator_soup() {
        assert_token_roundtrip(
            "a += b * c / d % e; x <<= 2; y >>= 1; p = q == r != s <= t >= u && v || !w;\n\
             n++; m--; f = g ? h : i; arr[j] = *ptr + (k & l | m ^ 0x1f) << 3 >> 1;",
        );
    }

    #[test]
    fn roundtrip_numeric_edge_cases() {
        assert_token_roundtrip("0 1 42 0x0 0xff 3u 7L 0.5 .5 1. 1e3 2.5e-2 1.0e+1 0.f 6.25e-4");
    }

    #[test]
    fn roundtrip_every_benchmark_pragma_shape() {
        // The pragma spellings the benchmark suites actually use, including
        // continuations and clause lists with nested parens.
        for pragma in [
            "acc parallel loop gang vector_length(128)",
            "acc kernels loop independent",
            "acc loop worker(4) vector(32)",
            "acc parallel loop reduction(+:norm) present(a, b)",
            "omp target teams distribute num_teams(120)",
            "omp parallel for simd reduction(max:err)",
        ] {
            assert_token_roundtrip(&format!(
                "#pragma {pragma}\nfor (int i = 0; i < n; i++) x[i] = 0;"
            ));
        }
    }
}
