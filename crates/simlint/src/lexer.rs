//! A small hand-rolled Rust lexer.
//!
//! Produces just enough token structure for the rule set: identifiers,
//! single-character punctuation, literals, lifetimes, and comments (kept,
//! because waivers live in them). It understands the lexical shapes that
//! would otherwise produce false positives — nested block comments, raw
//! strings, byte strings, char-vs-lifetime — but deliberately does not
//! build an AST: every rule is a token-pattern over this stream.

/// Token class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// One punctuation character (the `ch` field).
    Punct,
    /// String / raw string / byte string literal.
    Str,
    /// Character literal.
    Char,
    /// Numeric literal.
    Num,
    /// `// ...` comment (text includes the slashes).
    LineComment,
    /// `/* ... */` comment (possibly nested).
    BlockComment,
    /// `'label` lifetime.
    Lifetime,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Class.
    pub kind: TokKind,
    /// Source text for identifiers and comments; empty for other kinds
    /// (rules never need literal contents).
    pub text: String,
    /// Punctuation character for `Punct`, `\0` otherwise.
    pub ch: char,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.ch == c
    }

    /// Is this a comment of either flavour?
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens. Never fails: unrecognised bytes lex as
/// punctuation, unterminated literals run to end-of-file.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! bump_lines {
        ($from:expr, $to:expr) => {
            for k in $from..$to {
                if chars[k] == '\n' {
                    line += 1;
                }
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        let start_line = line;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() {
            match chars[i + 1] {
                '/' => {
                    let start = i;
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::LineComment,
                        text: chars[start..i].iter().collect(),
                        ch: '\0',
                        line: start_line,
                    });
                    continue;
                }
                '*' => {
                    let start = i;
                    i += 2;
                    let mut depth = 1usize;
                    while i < chars.len() && depth > 0 {
                        if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                            depth += 1;
                            i += 2;
                        } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                            depth -= 1;
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    bump_lines!(start, i.min(chars.len()));
                    toks.push(Tok {
                        kind: TokKind::BlockComment,
                        text: chars[start..i.min(chars.len())].iter().collect(),
                        ch: '\0',
                        line: start_line,
                    });
                    continue;
                }
                _ => {}
            }
        }
        // Identifiers — including raw-string / byte-string prefixes.
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            // r"..."  r#"..."#  b"..."  br#"..."#  b'.'
            let prefix_is_raw = matches!(text.as_str(), "r" | "br" | "rb");
            let prefix_is_byte = matches!(text.as_str(), "b" | "br" | "rb");
            if i < chars.len() {
                let next = chars[i];
                if prefix_is_raw && (next == '"' || next == '#') {
                    let str_start = i;
                    let mut hashes = 0usize;
                    while i < chars.len() && chars[i] == '#' {
                        hashes += 1;
                        i += 1;
                    }
                    if i < chars.len() && chars[i] == '"' {
                        i += 1; // opening quote
                        'scan: while i < chars.len() {
                            if chars[i] == '"' {
                                let mut k = i + 1;
                                let mut seen = 0usize;
                                while k < chars.len() && chars[k] == '#' && seen < hashes {
                                    seen += 1;
                                    k += 1;
                                }
                                if seen == hashes {
                                    i = k;
                                    break 'scan;
                                }
                            }
                            i += 1;
                        }
                        bump_lines!(str_start, i.min(chars.len()));
                        toks.push(Tok {
                            kind: TokKind::Str,
                            text: String::new(),
                            ch: '\0',
                            line: start_line,
                        });
                        continue;
                    }
                    // `r#ident` raw identifier: rewind the hash scan.
                    i = str_start;
                }
                if prefix_is_byte && next == '"' {
                    i += 1;
                    i = scan_string(&chars, i);
                    bump_lines!(start, i.min(chars.len()));
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        ch: '\0',
                        line: start_line,
                    });
                    continue;
                }
                if text == "b" && next == '\'' {
                    i += 1;
                    i = scan_char(&chars, i);
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        ch: '\0',
                        line: start_line,
                    });
                    continue;
                }
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                ch: '\0',
                line: start_line,
            });
            continue;
        }
        // Strings.
        if c == '"' {
            let start = i;
            i += 1;
            i = scan_string(&chars, i);
            bump_lines!(start, i.min(chars.len()));
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                ch: '\0',
                line: start_line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let one = chars.get(i + 1).copied();
            let two = chars.get(i + 2).copied();
            let is_lifetime = match (one, two) {
                (Some(a), Some(b)) => is_ident_start(a) && b != '\'',
                (Some(a), None) => is_ident_start(a),
                _ => false,
            };
            if is_lifetime {
                let start = i + 1;
                i += 1;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    ch: '\0',
                    line: start_line,
                });
            } else {
                i += 1;
                i = scan_char(&chars, i);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    ch: '\0',
                    line: start_line,
                });
            }
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            while i < chars.len() && (is_ident_continue(chars[i])) {
                i += 1;
            }
            // A fractional part, but not the `0..n` range syntax.
            if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                i += 1;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: String::new(),
                ch: '\0',
                line: start_line,
            });
            continue;
        }
        // Everything else: single punctuation character.
        toks.push(Tok {
            kind: TokKind::Punct,
            text: String::new(),
            ch: c,
            line: start_line,
        });
        i += 1;
    }
    toks
}

/// Scan past the body and closing quote of a normal (escaped) string,
/// starting just after the opening quote. Returns the index after the
/// closing quote.
fn scan_string(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Scan past the body and closing quote of a char literal.
fn scan_char(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn identifiers_and_paths() {
        let toks = lex("std::time::Instant::now()");
        let names: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(names, ["std", "time", "Instant", "now"]);
    }

    #[test]
    fn string_contents_are_not_code() {
        assert_eq!(idents(r#"let x = "HashMap::unwrap()";"#), ["let", "x"]);
    }

    #[test]
    fn raw_strings_swallow_quotes_and_hashes() {
        assert_eq!(
            idents(r###"let x = r#"contains "unwrap()" inside"# ; y"###),
            ["let", "x", "y"]
        );
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(
            idents("/* a /* unwrap() */ still comment */ real"),
            ["real"]
        );
    }

    #[test]
    fn lifetime_vs_char() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn line_numbers() {
        let toks = lex("a\nb\n  c");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 3]);
    }

    #[test]
    fn comments_are_kept_with_text() {
        let toks = lex("x // simlint: allow(I001): reason\ny");
        let c: Vec<&Tok> = toks.iter().filter(|t| t.is_comment()).collect();
        assert_eq!(c.len(), 1);
        assert!(c[0].text.contains("allow(I001)"));
        assert_eq!(c[0].line, 1);
    }

    #[test]
    fn byte_strings_and_range_numbers() {
        assert_eq!(
            idents(r#"for i in 0..10 { eat(b"unwrap()") }"#),
            ["for", "i", "in", "eat"]
        );
    }
}
