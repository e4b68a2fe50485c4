//! Tokenizer for the S3 Select SQL dialect.

use pushdown_common::{Error, Result};

/// A lexical token with its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

/// Token kinds. Keywords are recognized case-insensitively and carried as
/// `Keyword` with an upper-cased text so the parser can match on them.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An unquoted identifier (column name, alias, `S3Object`, ...).
    Ident(String),
    /// A `"double quoted"` identifier.
    QuotedIdent(String),
    /// A recognized SQL keyword, upper-cased.
    Keyword(&'static str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `'single quoted'` string literal (with `''` escaping).
    Str(String),
    // Punctuation / operators.
    Comma,
    LParen,
    RParen,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Dot,
    /// End of input.
    Eof,
}

/// All keywords of the dialect. Anything else lexes as an identifier.
pub(crate) const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "LIMIT", "AS", "AND", "OR", "NOT", "NULL", "TRUE", "FALSE", "IS",
    "IN", "BETWEEN", "LIKE", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "DATE", "GROUP",
    "ORDER", "BY", "ESCAPE", "JOIN", "ON", "INNER",
];

/// Tokenize `input` into a vector ending with an `Eof` token.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let b = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let start = i;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'-' if i + 1 < b.len() && b[i + 1] == b'-' => {
                // Line comment.
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: start,
                });
                i += 1;
            }
            b'+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    offset: start,
                });
                i += 1;
            }
            b'-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    offset: start,
                });
                i += 1;
            }
            b'/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    offset: start,
                });
                i += 1;
            }
            b'%' => {
                tokens.push(Token {
                    kind: TokenKind::Percent,
                    offset: start,
                });
                i += 1;
            }
            b'.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    offset: start,
                });
                i += 1;
            }
            b'=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            b'!' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(Error::Parse(format!("unexpected `!` at offset {start}")));
                }
            }
            b'<' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::LtEq,
                        offset: start,
                    });
                    i += 2;
                } else if i + 1 < b.len() && b[i + 1] == b'>' {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            b'>' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::GtEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            b'\'' => {
                // String literal with '' escaping. Bloom-filter bit arrays
                // arrive as one very long literal, so scan with memchr-like
                // tight loop rather than char-by-char pushes where possible.
                i += 1;
                let mut s = String::new();
                loop {
                    let Some(rel) = b[i..].iter().position(|&c| c == b'\'') else {
                        return Err(Error::Parse(format!(
                            "unterminated string literal starting at offset {start}"
                        )));
                    };
                    s.push_str(
                        std::str::from_utf8(&b[i..i + rel])
                            .map_err(|_| Error::Parse("invalid UTF-8 in string".into()))?,
                    );
                    i += rel + 1;
                    if i < b.len() && b[i] == b'\'' {
                        s.push('\'');
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                });
            }
            b'"' => {
                i += 1;
                let Some(rel) = b[i..].iter().position(|&c| c == b'"') else {
                    return Err(Error::Parse(format!(
                        "unterminated quoted identifier at offset {start}"
                    )));
                };
                let name = std::str::from_utf8(&b[i..i + rel])
                    .map_err(|_| Error::Parse("invalid UTF-8 in identifier".into()))?
                    .to_string();
                i += rel + 1;
                tokens.push(Token {
                    kind: TokenKind::QuotedIdent(name),
                    offset: start,
                });
            }
            b'0'..=b'9' => {
                let mut j = i;
                while j < b.len() && b[j].is_ascii_digit() {
                    j += 1;
                }
                let mut is_float = false;
                if j < b.len() && b[j] == b'.' && j + 1 < b.len() && b[j + 1].is_ascii_digit() {
                    is_float = true;
                    j += 1;
                    while j < b.len() && b[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                if j < b.len() && (b[j] == b'e' || b[j] == b'E') {
                    let mut k = j + 1;
                    if k < b.len() && (b[k] == b'+' || b[k] == b'-') {
                        k += 1;
                    }
                    if k < b.len() && b[k].is_ascii_digit() {
                        is_float = true;
                        j = k;
                        while j < b.len() && b[j].is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let text = std::str::from_utf8(&b[i..j]).unwrap();
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| {
                        Error::Parse(format!("bad float literal `{text}` at offset {start}"))
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| {
                        Error::Parse(format!("bad int literal `{text}` at offset {start}"))
                    })?)
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let text = std::str::from_utf8(&b[i..j]).unwrap();
                let upper = text.to_ascii_uppercase();
                if let Some(kw) = KEYWORDS.iter().find(|k| **k == upper) {
                    tokens.push(Token {
                        kind: TokenKind::Keyword(kw),
                        offset: start,
                    });
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Ident(text.to_string()),
                        offset: start,
                    });
                }
                i = j;
            }
            other => {
                return Err(Error::Parse(format!(
                    "unexpected character `{}` at offset {start}",
                    other as char
                )));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: b.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind> {
        tokenize(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_select() {
        use TokenKind::*;
        assert_eq!(
            kinds("SELECT * FROM S3Object"),
            vec![
                Keyword("SELECT"),
                Star,
                Keyword("FROM"),
                Ident("S3Object".into()),
                Eof
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(kinds("select")[0], TokenKind::Keyword("SELECT"));
        assert_eq!(kinds("SeLeCt")[0], TokenKind::Keyword("SELECT"));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("3.25")[0], TokenKind::Float(3.25));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5e-2")[0], TokenKind::Float(0.025));
        // `1.` with no digit after the dot is Int then Dot.
        assert_eq!(kinds("1 .x")[0], TokenKind::Int(1));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'abc'")[0], TokenKind::Str("abc".into()));
        assert_eq!(kinds("'it''s'")[0], TokenKind::Str("it's".into()));
        assert_eq!(kinds("''")[0], TokenKind::Str(String::new()));
    }

    #[test]
    fn long_bloom_literal() {
        let bits = "10".repeat(100_000);
        let sql = format!("'{bits}'");
        assert_eq!(kinds(&sql)[0], TokenKind::Str(bits));
    }

    #[test]
    fn operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("a <= b <> c != d >= e % f"),
            vec![
                Ident("a".into()),
                LtEq,
                Ident("b".into()),
                NotEq,
                Ident("c".into()),
                NotEq,
                Ident("d".into()),
                GtEq,
                Ident("e".into()),
                Percent,
                Ident("f".into()),
                Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("1 -- a comment\n2"),
            vec![TokenKind::Int(1), TokenKind::Int(2), TokenKind::Eof]
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let err = tokenize("a ^ b").unwrap_err();
        assert!(err.to_string().contains("offset 2"), "{err}");
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn quoted_identifiers() {
        assert_eq!(
            kinds("\"weird name\"")[0],
            TokenKind::QuotedIdent("weird name".into())
        );
    }
}
