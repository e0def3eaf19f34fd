//! Tokenizer for the Verilog subset.

use crate::{VerilogError, MAX_WORD_BITS};

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// Keyword or signal name.
    Ident(String),
    /// A number literal, possibly sized: `8'b1010`, `9'd256`, `4'hF`, `42`.
    ///
    /// `width` is `None` for unsized decimals. `bits` is LSB-first.
    Number {
        /// Declared width (bits), if sized.
        width: Option<usize>,
        /// Bit values, least significant first.
        bits: Vec<bool>,
    },
    /// Single punctuation/operator token.
    Punct(&'static str),
}

const PUNCTS: &[&str] = &[
    "<<", ">>", "==", "!=", "<=", ">=", "&&", "||", "(", ")", "[", "]", "{", "}", ",", ";", ":",
    "?", "=", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
];

fn u64_to_bits(mut v: u64, min_len: usize) -> Vec<bool> {
    let mut bits = Vec::new();
    while v > 0 {
        bits.push(v & 1 == 1);
        v >>= 1;
    }
    while bits.len() < min_len.max(1) {
        bits.push(false);
    }
    bits
}

/// Tokenizes `src`.
///
/// # Errors
///
/// Returns [`VerilogError::Lex`] on malformed literals or unknown
/// characters. Line (`//`) and block (`/* */`) comments are skipped.
pub fn tokenize(src: &str) -> Result<Vec<Token>, VerilogError> {
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if bytes[i..].starts_with(b"//") {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if bytes[i..].starts_with(b"/*") {
            let end = src[i + 2..].find("*/").ok_or_else(|| VerilogError::Lex {
                offset: i,
                message: "unterminated block comment".into(),
            })?;
            i += 2 + end + 2;
            continue;
        }
        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push(Token::Ident(src[start..i].to_string()));
            continue;
        }
        // Number (possibly sized).
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let first: u64 = src[start..i].parse().map_err(|_| VerilogError::Lex {
                offset: start,
                message: "decimal literal too large".into(),
            })?;
            if i < bytes.len() && bytes[i] == b'\'' {
                // Sized literal: width 'base digits.
                let width = first as usize;
                if width == 0 {
                    return Err(VerilogError::Lex {
                        offset: start,
                        message: "zero-width literal".into(),
                    });
                }
                if first > MAX_WORD_BITS as u64 {
                    return Err(VerilogError::Lex {
                        offset: start,
                        message: format!("literal wider than {MAX_WORD_BITS} bits"),
                    });
                }
                i += 1;
                if i >= bytes.len() {
                    return Err(VerilogError::Lex {
                        offset: i,
                        message: "missing literal base".into(),
                    });
                }
                let base = (bytes[i] as char).to_ascii_lowercase();
                i += 1;
                let dstart = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let digits: String = src[dstart..i].chars().filter(|&c| c != '_').collect();
                if digits.is_empty() {
                    return Err(VerilogError::Lex {
                        offset: dstart,
                        message: "empty literal digits".into(),
                    });
                }
                let mut bits: Vec<bool> = Vec::new();
                match base {
                    'b' => {
                        for ch in digits.chars().rev() {
                            match ch {
                                '0' => bits.push(false),
                                '1' => bits.push(true),
                                _ => {
                                    return Err(VerilogError::Lex {
                                        offset: dstart,
                                        message: format!("invalid binary digit {ch:?}"),
                                    })
                                }
                            }
                        }
                    }
                    'h' => {
                        for ch in digits.chars().rev() {
                            let v = ch.to_digit(16).ok_or_else(|| VerilogError::Lex {
                                offset: dstart,
                                message: format!("invalid hex digit {ch:?}"),
                            })?;
                            for k in 0..4 {
                                bits.push((v >> k) & 1 == 1);
                            }
                        }
                    }
                    'd' => {
                        let v: u64 = digits.parse().map_err(|_| VerilogError::Lex {
                            offset: dstart,
                            message: "decimal literal too large (use binary for >64 bits)".into(),
                        })?;
                        bits = u64_to_bits(v, width);
                    }
                    _ => {
                        return Err(VerilogError::Lex {
                            offset: i,
                            message: format!("unsupported literal base {base:?}"),
                        })
                    }
                }
                // Truncate or zero-extend to the declared width.
                bits.resize(width, false);
                out.push(Token::Number {
                    width: Some(width),
                    bits,
                });
            } else {
                out.push(Token::Number {
                    width: None,
                    bits: u64_to_bits(first, 1),
                });
            }
            continue;
        }
        // Punctuation (longest match first).
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                out.push(Token::Punct(p));
                i += p.len();
                continue 'outer;
            }
        }
        return Err(VerilogError::Lex {
            offset: i,
            message: format!("unexpected character {c:?}"),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_and_puncts() {
        let toks = tokenize("assign y = a & ~b;").unwrap();
        assert_eq!(toks[0], Token::Ident("assign".into()));
        assert_eq!(toks[2], Token::Punct("="));
        assert_eq!(toks[4], Token::Punct("&"));
        assert_eq!(toks[5], Token::Punct("~"));
        assert_eq!(toks.last(), Some(&Token::Punct(";")));
    }

    #[test]
    fn sized_literals() {
        let toks = tokenize("4'b1010 9'd256 8'hA5").unwrap();
        match &toks[0] {
            Token::Number { width, bits } => {
                assert_eq!(*width, Some(4));
                assert_eq!(bits, &[false, true, false, true]);
            }
            t => panic!("unexpected {t:?}"),
        }
        match &toks[1] {
            Token::Number { width, bits } => {
                assert_eq!(*width, Some(9));
                let v: u64 = bits.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
                assert_eq!(v, 256);
            }
            t => panic!("unexpected {t:?}"),
        }
        match &toks[2] {
            Token::Number { width, bits } => {
                assert_eq!(*width, Some(8));
                let v: u64 = bits.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
                assert_eq!(v, 0xA5);
            }
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn wide_binary_literal() {
        let src = format!("129'b1{}", "0".repeat(128));
        let toks = tokenize(&src).unwrap();
        match &toks[0] {
            Token::Number { width, bits } => {
                assert_eq!(*width, Some(129));
                assert!(bits[128]);
                assert!(bits[..128].iter().all(|&b| !b));
            }
            t => panic!("unexpected {t:?}"),
        }
        assert!(tokenize(&format!("{MAX_WORD_BITS}'b1")).is_ok());
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("a // line\n /* block\nspan */ b").unwrap();
        assert_eq!(
            toks,
            vec![Token::Ident("a".into()), Token::Ident("b".into())]
        );
    }

    #[test]
    fn two_char_operators() {
        let toks = tokenize("a << 2 >> b <= c == d").unwrap();
        assert!(toks.contains(&Token::Punct("<<")));
        assert!(toks.contains(&Token::Punct(">>")));
        assert!(toks.contains(&Token::Punct("<=")));
        assert!(toks.contains(&Token::Punct("==")));
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("a @ b").is_err());
        assert!(tokenize("3'q10").is_err());
        assert!(tokenize("4'b102").is_err());
        for width in [MAX_WORD_BITS as u64 + 1, 99_999_999_999] {
            assert!(matches!(
                tokenize(&format!("{width}'b1")),
                Err(VerilogError::Lex { offset: 0, .. })
            ));
        }
    }
}
