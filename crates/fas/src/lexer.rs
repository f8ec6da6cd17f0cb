//! Tokenizer for FAS source text.
//!
//! Tokens borrow their text from the source: an identifier is a `&str`
//! span of the input, so tokenizing allocates only the token vector.

use crate::{FasError, Pos};
use std::fmt;

/// A lexical token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'src> {
    /// Identifier or keyword.
    Ident(&'src str),
    /// Numeric literal.
    Number {
        /// Its value.
        value: f64,
        /// Its source text.
        text: &'src str,
    },
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `=`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `.`.
    Dot,
    /// End of input.
    Eof,
}

impl Token<'_> {
    /// `true` if the token is the given keyword/identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, Token::Ident(i) if *i == s)
    }
}

/// The token as diagnostics name it: its source text in quotes, or
/// `end of input`.
impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Token::Ident(text) | Token::Number { text, .. } => text,
            Token::LParen => "(",
            Token::RParen => ")",
            Token::Comma => ",",
            Token::Eq => "=",
            Token::Ne => "!=",
            Token::Lt => "<",
            Token::Le => "<=",
            Token::Gt => ">",
            Token::Ge => ">=",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Star => "*",
            Token::Slash => "/",
            Token::Dot => ".",
            Token::Eof => return f.write_str("end of input"),
        };
        write!(f, "'{text}'")
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'src> {
    /// The token.
    pub token: Token<'src>,
    /// Where it starts.
    pub pos: Pos,
}

/// Tokenizes the whole input.
///
/// Comment syntax: a line whose first non-blank character is `*` or `#` is
/// skipped (SPICE-style title/comment lines), as is everything after `//`.
///
/// # Errors
///
/// [`FasError::Lex`] on malformed numbers or unexpected characters.
pub fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>, FasError> {
    // Typical FAS text has a token per four bytes; the comparator's model
    // has one per 3.9.
    let mut out = Vec::with_capacity(src.len() / 3 + 1);
    let mut line_no = 0;
    for line in src.lines() {
        line_no += 1;
        let trimmed = line.trim_start();
        if trimmed.starts_with('*') || trimmed.starts_with('#') {
            continue;
        }
        // Columns are byte offsets into the untruncated line, so positions
        // cannot drift for tokens adjacent to a `//` comment. Only ASCII is
        // ever consumed, so `i` stays on a character boundary.
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b' ' | b'\t' | b'\r' => {
                    i += 1;
                    continue;
                }
                // A trailing comment ends the line.
                b'/' if bytes.get(i + 1) == Some(&b'/') => break,
                _ => {}
            }
            let pos = Pos {
                line: line_no,
                col: i + 1,
            };
            let next = bytes.get(i + 1).copied();
            let (token, len) = match bytes[i] {
                b'(' => (Token::LParen, 1),
                b')' => (Token::RParen, 1),
                b',' => (Token::Comma, 1),
                b'+' => (Token::Plus, 1),
                b'-' => (Token::Minus, 1),
                b'*' => (Token::Star, 1),
                b'/' => (Token::Slash, 1),
                b'.' => (Token::Dot, 1),
                b'=' => (Token::Eq, 1),
                b'!' if next == Some(b'=') => (Token::Ne, 2),
                b'!' => {
                    return Err(FasError::Lex {
                        pos,
                        message: "expected '=' after '!'".into(),
                    })
                }
                b'<' if next == Some(b'=') => (Token::Le, 2),
                b'<' => (Token::Lt, 1),
                b'>' if next == Some(b'=') => (Token::Ge, 2),
                b'>' => (Token::Gt, 1),
                b'0'..=b'9' => {
                    let text = &line[i..i + number_len(&bytes[i..])];
                    let value: f64 = text.parse().map_err(|_| FasError::Lex {
                        pos,
                        message: format!("malformed number '{text}'"),
                    })?;
                    (Token::Number { value, text }, text.len())
                }
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let len = bytes[i..]
                        .iter()
                        .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
                        .unwrap_or(bytes.len() - i);
                    (Token::Ident(&line[i..i + len]), len)
                }
                _ => {
                    let other = line[i..].chars().next().unwrap_or_default();
                    return Err(FasError::Lex {
                        pos,
                        message: format!("unexpected character '{other}'"),
                    });
                }
            };
            out.push(Spanned { token, pos });
            i += len;
        }
    }
    out.push(Spanned {
        token: Token::Eof,
        pos: Pos {
            line: line_no + 1,
            col: 1,
        },
    });
    Ok(out)
}

/// Length of the numeric literal `bytes` starts with: digits and dots,
/// then an exponent only when digits follow it (`1e` is the number 1
/// followed by the identifier `e`).
fn number_len(bytes: &[u8]) -> usize {
    let mut i = bytes
        .iter()
        .position(|b| !(b.is_ascii_digit() || *b == b'.'))
        .unwrap_or(bytes.len());
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if bytes.get(j).is_some_and(u8::is_ascii_digit) {
            i = j + bytes[j..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .unwrap_or(bytes.len() - j);
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    fn num(value: f64, text: &str) -> Token<'_> {
        Token::Number { value, text }
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("make v2 = volt.value(in)"),
            vec![
                Token::Ident("make"),
                Token::Ident("v2"),
                Token::Eq,
                Token::Ident("volt"),
                Token::Dot,
                Token::Ident("value"),
                Token::LParen,
                Token::Ident("in"),
                Token::RParen,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("1 2.5 1e-12 3.0E+2"),
            vec![
                num(1.0, "1"),
                num(2.5, "2.5"),
                num(1e-12, "1e-12"),
                num(300.0, "3.0E+2"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn number_followed_by_ident() {
        // `1e` without digits is the number 1 followed by ident `e`.
        assert_eq!(
            toks("1e"),
            vec![num(1.0, "1"), Token::Ident("e"), Token::Eof]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("a <= b >= c != d < e > f"),
            vec![
                Token::Ident("a"),
                Token::Le,
                Token::Ident("b"),
                Token::Ge,
                Token::Ident("c"),
                Token::Ne,
                Token::Ident("d"),
                Token::Lt,
                Token::Ident("e"),
                Token::Gt,
                Token::Ident("f"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("* a title line\nmake x = 1 // trailing\n# hash comment"),
            vec![
                Token::Ident("make"),
                Token::Ident("x"),
                Token::Eq,
                num(1.0, "1"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn golden_positions_adjacent_to_trailing_comments() {
        // Columns are 1-based byte offsets into the raw line; a trailing
        // `//` comment must not shift the position of any token before it,
        // with or without separating whitespace.
        let spanned = tokenize("make x = 12// note\nmake y = x / 2 // tail\n").unwrap();
        let positions: Vec<(Token, Pos)> = spanned.into_iter().map(|s| (s.token, s.pos)).collect();
        assert_eq!(
            positions,
            vec![
                (Token::Ident("make"), Pos { line: 1, col: 1 }),
                (Token::Ident("x"), Pos { line: 1, col: 6 }),
                (Token::Eq, Pos { line: 1, col: 8 }),
                (num(12.0, "12"), Pos { line: 1, col: 10 }),
                (Token::Ident("make"), Pos { line: 2, col: 1 }),
                (Token::Ident("y"), Pos { line: 2, col: 6 }),
                (Token::Eq, Pos { line: 2, col: 8 }),
                (Token::Ident("x"), Pos { line: 2, col: 10 }),
                (Token::Slash, Pos { line: 2, col: 12 }),
                (num(2.0, "2"), Pos { line: 2, col: 14 }),
                (Token::Eof, Pos { line: 3, col: 1 }),
            ]
        );
    }

    #[test]
    fn lone_slash_still_divides() {
        assert_eq!(
            toks("a / b"),
            vec![
                Token::Ident("a"),
                Token::Slash,
                Token::Ident("b"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lex_errors() {
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("price: $5").is_err());
    }

    #[test]
    fn unexpected_character_is_named_whole() {
        // A non-ASCII character is reported as itself, not as its first
        // UTF-8 byte; the column is its byte offset.
        for (src, col, want) in [("make x = 2 é 3", 12, 'é'), ("π", 1, 'π'), ("a ✓", 3, '✓')]
        {
            assert_eq!(
                tokenize(src),
                Err(FasError::Lex {
                    pos: Pos { line: 1, col },
                    message: format!("unexpected character '{want}'"),
                })
            );
        }
    }

    #[test]
    fn tokens_display_their_source_text() {
        let shown: Vec<String> = tokenize("make x1 = 3.0E+2 <= (y) //")
            .unwrap()
            .iter()
            .map(|s| s.token.to_string())
            .collect();
        assert_eq!(
            shown,
            [
                "'make'",
                "'x1'",
                "'='",
                "'3.0E+2'",
                "'<='",
                "'('",
                "'y'",
                "')'",
                "end of input"
            ]
        );
    }

    #[test]
    fn positions_reported() {
        let spanned = tokenize("a\n  b").unwrap();
        assert_eq!(spanned[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(spanned[1].pos, Pos { line: 2, col: 3 });
    }
}
