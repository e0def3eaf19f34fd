//! Recursive-descent parser for the Verilog subset.

use crate::ast::*;
use crate::lexer::{tokenize, Token};
use crate::{VerilogError, MAX_NESTING, MAX_WORD_BITS};

/// Parses a single module from source text.
///
/// # Errors
///
/// Returns [`VerilogError::Lex`] or [`VerilogError::Parse`] on malformed
/// input.
pub fn parse_module(src: &str) -> Result<Module, VerilogError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        ..Parser::default()
    };
    let m = p.module()?;
    p.expect_eof()?;
    Ok(m)
}

#[derive(Default)]
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nested constructs open around the current token (recursion depth).
    open: usize,
}

/// A parsed expression and the depth of its parse tree (a leaf is 1).
type Parsed = (Expr, usize);

/// Checks a parse-tree depth against [`MAX_NESTING`].
fn bounded(depth: usize) -> Result<usize, VerilogError> {
    if depth > MAX_NESTING {
        return Err(VerilogError::parse(format!(
            "expression nested deeper than {MAX_NESTING} levels"
        )));
    }
    Ok(depth)
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if let Some(Token::Punct(q)) = self.peek() {
            if *q == p {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), VerilogError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(VerilogError::parse(format!(
                "expected {p:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, VerilogError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            t => Err(VerilogError::parse(format!(
                "expected identifier, found {t:?}"
            ))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), VerilogError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(VerilogError::parse(format!(
                "expected keyword {kw:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_eof(&self) -> Result<(), VerilogError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(VerilogError::parse(format!(
                "trailing input after endmodule: {:?}",
                self.peek()
            )))
        }
    }

    fn small_number(&mut self) -> Result<usize, VerilogError> {
        match self.next() {
            Some(Token::Number { bits, .. }) => {
                if bits.len() > 32 {
                    return Err(VerilogError::parse("index constant too large"));
                }
                Ok(bits
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| (b as usize) << i)
                    .sum())
            }
            t => Err(VerilogError::parse(format!("expected number, found {t:?}"))),
        }
    }

    fn module(&mut self) -> Result<Module, VerilogError> {
        self.expect_keyword("module")?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut ports = Vec::new();
        if !self.eat_punct(")") {
            loop {
                ports.push(self.ident()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct(";")?;
        let mut signals = Vec::new();
        let mut assigns = Vec::new();
        loop {
            if self.eat_keyword("endmodule") {
                break;
            }
            if self.eat_keyword("input") {
                self.declaration(SignalKind::Input, &mut signals)?;
            } else if self.eat_keyword("output") {
                self.declaration(SignalKind::Output, &mut signals)?;
            } else if self.eat_keyword("wire") {
                self.declaration(SignalKind::Wire, &mut signals)?;
            } else if self.eat_keyword("assign") {
                let target = self.ident()?;
                self.expect_punct("=")?;
                let (expr, _) = self.expr()?;
                self.expect_punct(";")?;
                assigns.push(Assign { target, expr });
            } else {
                return Err(VerilogError::parse(format!(
                    "expected declaration, assign or endmodule, found {:?}",
                    self.peek()
                )));
            }
        }
        Ok(Module {
            name,
            ports,
            signals,
            assigns,
        })
    }

    fn declaration(
        &mut self,
        kind: SignalKind,
        signals: &mut Vec<Signal>,
    ) -> Result<(), VerilogError> {
        // Optional `wire` after input/output (e.g. `output wire y`).
        if kind != SignalKind::Wire {
            let _ = self.eat_keyword("wire");
        }
        let (msb, lsb) = if self.eat_punct("[") {
            let msb = self.small_number()?;
            self.expect_punct(":")?;
            let lsb = self.small_number()?;
            self.expect_punct("]")?;
            if lsb > msb {
                return Err(VerilogError::parse("descending ranges only ([msb:lsb])"));
            }
            if msb - lsb >= MAX_WORD_BITS {
                return Err(VerilogError::parse(format!(
                    "range [{msb}:{lsb}] is wider than {MAX_WORD_BITS} bits"
                )));
            }
            (msb, lsb)
        } else {
            (0, 0)
        };
        loop {
            let name = self.ident()?;
            signals.push(Signal {
                name,
                kind,
                msb,
                lsb,
            });
            if self.eat_punct(";") {
                break;
            }
            self.expect_punct(",")?;
        }
        Ok(())
    }

    // Expression grammar, lowest to highest precedence:
    //   ternary  ?:
    //   logical  || &&
    //   bitwise  | ^ &
    //   equality == !=
    //   relational < <= > >=
    //   shift << >>
    //   additive + -
    //   multiplicative * / %
    //   unary ~ ! - | & ^ (reductions)
    //   postfix [i] [m:l]
    //   primary ident literal (expr) {…}
    // Each returns the parse-tree depth it read, bounding operator chains
    // as they grow; `nested` bounds recursion before it happens.
    fn expr(&mut self) -> Result<Parsed, VerilogError> {
        self.ternary()
    }

    /// Parses one nested construct with `f`; the result is one level
    /// deeper than what `f` read.
    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Parsed, VerilogError>,
    ) -> Result<Parsed, VerilogError> {
        bounded(self.open + 1)?;
        self.open += 1;
        let parsed = f(self);
        self.open -= 1;
        let (e, depth) = parsed?;
        Ok((e, bounded(depth + 1)?))
    }

    fn ternary(&mut self) -> Result<Parsed, VerilogError> {
        let (cond, dc) = self.logical_or()?;
        if self.eat_punct("?") {
            let (t, dt) = self.nested(Self::expr)?;
            self.expect_punct(":")?;
            let (e, de) = self.nested(Self::expr)?;
            let ternary = Expr::Ternary(Box::new(cond), Box::new(t), Box::new(e));
            Ok((ternary, bounded((dc + 1).max(dt).max(de))?))
        } else {
            Ok((cond, dc))
        }
    }

    fn binary_level<F>(&mut self, ops: &[(&str, BinOp)], next: F) -> Result<Parsed, VerilogError>
    where
        F: Fn(&mut Self) -> Result<Parsed, VerilogError>,
    {
        let (mut lhs, mut depth) = next(self)?;
        'outer: loop {
            for (p, op) in ops {
                if self.eat_punct(p) {
                    let (rhs, dr) = next(self)?;
                    depth = bounded(depth.max(dr) + 1)?;
                    lhs = Expr::Binary(*op, Box::new(lhs), Box::new(rhs));
                    continue 'outer;
                }
            }
            return Ok((lhs, depth));
        }
    }

    fn logical_or(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(&[("||", BinOp::LogicalOr)], Self::logical_and)
    }

    fn logical_and(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(&[("&&", BinOp::LogicalAnd)], Self::bit_or)
    }

    fn bit_or(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(&[("|", BinOp::Or)], Self::bit_xor)
    }

    fn bit_xor(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(&[("^", BinOp::Xor)], Self::bit_and)
    }

    fn bit_and(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(&[("&", BinOp::And)], Self::equality)
    }

    fn equality(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(&[("==", BinOp::Eq), ("!=", BinOp::Ne)], Self::relational)
    }

    fn relational(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(
            &[
                ("<=", BinOp::Le),
                (">=", BinOp::Ge),
                ("<", BinOp::Lt),
                (">", BinOp::Gt),
            ],
            Self::shift,
        )
    }

    fn shift(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(&[("<<", BinOp::Shl), (">>", BinOp::Shr)], Self::additive)
    }

    fn additive(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(
            &[("+", BinOp::Add), ("-", BinOp::Sub)],
            Self::multiplicative,
        )
    }

    fn multiplicative(&mut self) -> Result<Parsed, VerilogError> {
        self.binary_level(
            &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Mod)],
            Self::unary,
        )
    }

    fn unary(&mut self) -> Result<Parsed, VerilogError> {
        for (p, op) in [
            ("~", UnOp::Not),
            ("!", UnOp::LogicalNot),
            ("-", UnOp::Neg),
            ("|", UnOp::RedOr),
            ("&", UnOp::RedAnd),
            ("^", UnOp::RedXor),
        ] {
            if self.eat_punct(p) {
                let (inner, depth) = self.nested(Self::unary)?;
                return Ok((Expr::Unary(op, Box::new(inner)), depth));
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Parsed, VerilogError> {
        let (mut e, mut depth) = self.primary()?;
        while self.eat_punct("[") {
            let first = self.small_number()?;
            if self.eat_punct(":") {
                let lsb = self.small_number()?;
                self.expect_punct("]")?;
                if lsb > first {
                    return Err(VerilogError::parse("descending part select only"));
                }
                e = Expr::Range(Box::new(e), first, lsb);
            } else {
                self.expect_punct("]")?;
                e = Expr::Index(Box::new(e), first);
            }
            depth = bounded(depth + 1)?;
        }
        Ok((e, depth))
    }

    fn primary(&mut self) -> Result<Parsed, VerilogError> {
        if self.eat_punct("(") {
            let parsed = self.nested(Self::expr)?;
            self.expect_punct(")")?;
            return Ok(parsed);
        }
        if self.eat_punct("{") {
            // Either replication {k{expr}} or concatenation {a, b, …}.
            // Lookahead: number followed by `{`.
            let save = self.pos;
            if let Some(Token::Number { .. }) = self.peek() {
                let k = self.small_number()?;
                if self.eat_punct("{") {
                    let (inner, depth) = self.nested(Self::expr)?;
                    self.expect_punct("}")?;
                    self.expect_punct("}")?;
                    return Ok((Expr::Repeat(k, Box::new(inner)), depth));
                }
                self.pos = save;
            }
            let mut items = Vec::new();
            let mut depth = 0;
            loop {
                let (item, d) = self.nested(Self::expr)?;
                items.push(item);
                depth = depth.max(d);
                if self.eat_punct("}") {
                    break;
                }
                self.expect_punct(",")?;
            }
            return Ok((Expr::Concat(items), depth));
        }
        match self.next() {
            Some(Token::Ident(s)) => Ok((Expr::Ident(s), 1)),
            Some(Token::Number { width, bits }) => Ok((
                Expr::Literal {
                    bits,
                    sized: width.is_some(),
                },
                1,
            )),
            t => Err(VerilogError::parse(format!(
                "expected expression, found {t:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_module() {
        let m = parse_module(
            "module m(a, b, y);
               input [3:0] a, b;
               output [3:0] y;
               assign y = a + b;
             endmodule",
        )
        .unwrap();
        assert_eq!(m.name, "m");
        assert_eq!(m.ports, vec!["a", "b", "y"]);
        assert_eq!(m.signals.len(), 3);
        assert_eq!(m.signal_table()["a"].width(), 4);
        assert_eq!(m.assigns.len(), 1);
    }

    #[test]
    fn precedence_mul_over_add() {
        let m = parse_module(
            "module m(a, b, c, y);
               input a, b, c; output y;
               assign y = a + b * c;
             endmodule",
        )
        .unwrap();
        match &m.assigns[0].expr {
            Expr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn ternary_and_comparison() {
        let m = parse_module(
            "module m(a, b, y);
               input [1:0] a, b; output [1:0] y;
               assign y = (a < b) ? a : b;
             endmodule",
        )
        .unwrap();
        assert!(matches!(m.assigns[0].expr, Expr::Ternary(_, _, _)));
    }

    #[test]
    fn concat_replication_and_selects() {
        let m = parse_module(
            "module m(a, y);
               input [3:0] a; output [7:0] y;
               assign y = {a[3:2], {2{a[0]}}, a[1], 3'b101};
             endmodule",
        )
        .unwrap();
        match &m.assigns[0].expr {
            Expr::Concat(items) => {
                assert_eq!(items.len(), 4);
                assert!(matches!(items[0], Expr::Range(_, 3, 2)));
                assert!(matches!(items[1], Expr::Repeat(2, _)));
                assert!(matches!(items[2], Expr::Index(_, 1)));
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn reduction_vs_binary_ops() {
        let m = parse_module(
            "module m(a, b, y);
               input [3:0] a, b; output y;
               assign y = |a & &b;
             endmodule",
        )
        .unwrap();
        // Parses as (|a) & (&b).
        match &m.assigns[0].expr {
            Expr::Binary(BinOp::And, l, r) => {
                assert!(matches!(**l, Expr::Unary(UnOp::RedOr, _)));
                assert!(matches!(**r, Expr::Unary(UnOp::RedAnd, _)));
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn error_on_missing_semicolon() {
        let r = parse_module("module m(a); input a; assign a = a endmodule");
        assert!(r.is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_nesting() {
        // Each shape builds a parse tree exactly `depth` levels deep.
        let shapes: [fn(usize) -> String; 5] = [
            |depth| format!("{}a{}", "(".repeat(depth - 1), ")".repeat(depth - 1)),
            |depth| format!("{}a{}", "{".repeat(depth - 1), "}".repeat(depth - 1)),
            |depth| vec!["a"; depth].join(" + "),
            |depth| format!("{}a", "~".repeat(depth - 1)),
            |depth| format!("{}a", "a ? a : ".repeat(depth - 1)),
        ];
        crate::on_worker_stack(move || {
            for shape in shapes {
                let parse = |depth| {
                    let body = format!("assign y = {};", shape(depth));
                    parse_module(&crate::module(&body))
                };
                assert!(parse(MAX_NESTING).is_ok(), "{}", shape(3));
                let deeper = matches!(parse(MAX_NESTING + 1), Err(VerilogError::Parse { .. }));
                assert!(deeper, "{}", shape(3));
            }
        });
    }

    #[test]
    fn declared_ranges_are_bounded_at_max_word_bits() {
        let parse = |msb: usize| {
            let body = format!("wire [{msb}:0] b; assign b = a; assign y = b[0];");
            parse_module(&crate::module(&body))
        };
        assert!(parse(MAX_WORD_BITS - 1).is_ok());
        for msb in [MAX_WORD_BITS, 999_999_999] {
            assert!(matches!(parse(msb), Err(VerilogError::Parse { .. })));
        }
    }

    #[test]
    fn error_on_trailing_tokens() {
        let r = parse_module("module m(); endmodule extra");
        assert!(r.is_err());
    }
}
