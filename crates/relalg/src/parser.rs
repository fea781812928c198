//! The textual query language.
//!
//! ERAM "uses relational algebra expressions as its query language";
//! this module provides the concrete syntax — exactly the notation
//! [`Expr`]'s `Display` emits, so expressions round-trip:
//!
//! ```text
//! select[#1 < 5000](r)
//! project[#0,#2](orders)
//! join[#0=#0, #1=#2](r1, r2)
//! (select[#1 >= 10](a) union b)
//! ((a minus b) intersect c)
//! ```
//!
//! Predicates support `=, !=, <, <=, >, >=` over column references
//! (`#i`) and constants (integers, floats with a decimal point,
//! `true`/`false`, double-quoted strings), combined with
//! `and`/`or`/`not (...)`/parentheses. The two sides of a comparison
//! must have one type — `#1 >= 50` on a float column is refused when
//! the expression is validated against the catalog; write `50.0`.
//!
//! Reserved words (not usable as relation names): `select`,
//! `project`, `join`, `union`, `minus`, `intersect`, `and`, `or`,
//! `not`, `true`, `false`.

use eram_storage::Value;

use crate::expr::Expr;
use crate::predicate::{CmpOp, Operand, Predicate};

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses an RA expression in the crate's textual syntax.
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(input);
    let expr = p.expr()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(expr)
}

/// Parses a predicate in the crate's textual syntax (useful for
/// interactive tools that assemble expressions programmatically).
pub fn parse_predicate(input: &str) -> Result<Predicate, ParseError> {
    let mut p = Parser::new(input);
    let pred = p.predicate()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing input after predicate"));
    }
    Ok(pred)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn try_eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Reads an identifier/keyword; empty string if none.
    fn ident(&mut self) -> &'a str {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    /// Looks ahead at the next identifier without consuming it.
    fn peek_ident(&mut self) -> &'a str {
        let save = self.pos;
        let id = self.ident();
        self.pos = save;
        id
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(b'(') {
            // Parenthesized, possibly an infix set operation.
            self.eat(b'(')?;
            let left = self.expr()?;
            let word = self.peek_ident();
            let expr = match word {
                "union" | "minus" | "intersect" => {
                    self.ident();
                    let right = self.expr()?;
                    match word {
                        "union" => left.union(right),
                        "minus" => left.difference(right),
                        _ => left.intersect(right),
                    }
                }
                _ => left,
            };
            self.eat(b')')?;
            return Ok(expr);
        }

        let save = self.pos;
        let name = self.ident();
        if name.is_empty() {
            return Err(self.err("expected expression"));
        }
        match name {
            "select" => {
                self.eat(b'[')?;
                let predicate = self.predicate()?;
                self.eat(b']')?;
                self.eat(b'(')?;
                let input = self.expr()?;
                self.eat(b')')?;
                Ok(input.select(predicate))
            }
            "project" => {
                self.eat(b'[')?;
                let mut columns = vec![self.column()?];
                while self.try_eat(b',') {
                    columns.push(self.column()?);
                }
                self.eat(b']')?;
                self.eat(b'(')?;
                let input = self.expr()?;
                self.eat(b')')?;
                Ok(input.project(columns))
            }
            "join" => {
                self.eat(b'[')?;
                let mut on = vec![self.key_pair()?];
                while self.try_eat(b',') {
                    on.push(self.key_pair()?);
                }
                self.eat(b']')?;
                self.eat(b'(')?;
                let left = self.expr()?;
                self.eat(b',')?;
                let right = self.expr()?;
                self.eat(b')')?;
                Ok(left.join(right, on))
            }
            _ => {
                // A relation name — but keywords in expression
                // position are reclassified as errors.
                if matches!(name, "union" | "minus" | "intersect") {
                    self.pos = save;
                    return Err(self.err(format!("unexpected keyword {name:?}")));
                }
                Ok(Expr::relation(name))
            }
        }
    }

    fn column(&mut self) -> Result<usize, ParseError> {
        self.eat(b'#')?;
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("expected column index after '#'"))
    }

    fn key_pair(&mut self) -> Result<(usize, usize), ParseError> {
        let l = self.column()?;
        self.eat(b'=')?;
        let r = self.column()?;
        Ok((l, r))
    }

    // predicate := and_chain ('or' and_chain)*   (left-assoc)
    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let mut left = self.pred_and()?;
        while self.peek_ident() == "or" {
            self.ident();
            let right = self.pred_and()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn pred_and(&mut self) -> Result<Predicate, ParseError> {
        let mut left = self.pred_atom()?;
        while self.peek_ident() == "and" {
            self.ident();
            let right = self.pred_atom()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn pred_atom(&mut self) -> Result<Predicate, ParseError> {
        match self.peek() {
            Some(b'(') => {
                self.eat(b'(')?;
                let p = self.predicate()?;
                self.eat(b')')?;
                Ok(p)
            }
            _ => {
                let word = self.peek_ident();
                match word {
                    "not" => {
                        self.ident();
                        self.eat(b'(')?;
                        let p = self.predicate()?;
                        self.eat(b')')?;
                        Ok(p.not())
                    }
                    // Bare true/false only count as predicates when
                    // not followed by a comparison operator.
                    "true" | "false" if !self.bool_is_operand() => {
                        self.ident();
                        Ok(if word == "true" {
                            Predicate::True
                        } else {
                            Predicate::False
                        })
                    }
                    _ => self.comparison(),
                }
            }
        }
    }

    /// After a bare `true`/`false`, is there a comparison operator?
    /// (`true = #0` treats it as a constant, plain `true` as a
    /// predicate.)
    fn bool_is_operand(&mut self) -> bool {
        let save = self.pos;
        let _ = self.ident();
        let next = self.peek();
        self.pos = save;
        matches!(next, Some(b'=' | b'!' | b'<' | b'>'))
    }

    fn comparison(&mut self) -> Result<Predicate, ParseError> {
        let left = self.operand()?;
        let op = self.cmp_op()?;
        let right = self.operand()?;
        Ok(Predicate::Compare { left, op, right })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        match self.peek() {
            Some(b'=') => {
                self.pos += 1;
                Ok(CmpOp::Eq)
            }
            Some(b'!') => {
                self.pos += 1;
                self.eat(b'=').map(|()| CmpOp::Ne)
            }
            Some(b'<') => {
                self.pos += 1;
                if self.bytes.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                    Ok(CmpOp::Le)
                } else {
                    Ok(CmpOp::Lt)
                }
            }
            Some(b'>') => {
                self.pos += 1;
                if self.bytes.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                    Ok(CmpOp::Ge)
                } else {
                    Ok(CmpOp::Gt)
                }
            }
            _ => Err(self.err("expected comparison operator")),
        }
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match self.peek() {
            Some(b'#') => Ok(Operand::Column(self.column()?)),
            Some(b'"') => Ok(Operand::Const(Value::Str(self.string_literal()?))),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Operand::Const(self.number()?)),
            _ => {
                let word = self.ident();
                match word {
                    "true" => Ok(Operand::Const(Value::Bool(true))),
                    "false" => Ok(Operand::Const(Value::Bool(false))),
                    _ => Err(self.err("expected column, number, string, or boolean")),
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            if c.is_ascii_digit() {
                self.pos += 1;
            } else if c == b'.' && !is_float {
                is_float = true;
                self.pos += 1;
            } else if (c == b'e' || c == b'E')
                && matches!(self.bytes.get(self.pos + 1), Some(d) if d.is_ascii_digit() || *d == b'-')
            {
                is_float = true;
                self.pos += 2;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(self.err("expected number"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| self.err(format!("bad float {text:?}: {e}")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| self.err(format!("bad integer {text:?}: {e}")))
        }
    }

    fn string_literal(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string literal")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        _ => return Err(self.err("unsupported escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one (possibly multibyte) char.
                    let rest = &self.src[self.pos..];
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: &Expr) {
        let text = e.to_string();
        let back = parse_expr(&text).unwrap_or_else(|err| panic!("{text}: {err}"));
        assert_eq!(&back, e, "{text}");
    }

    #[test]
    fn parses_relations_and_operators() {
        assert_eq!(parse_expr("r").unwrap(), Expr::relation("r"));
        assert_eq!(
            parse_expr("select[#1 < 5](r)").unwrap(),
            Expr::relation("r").select(Predicate::col_cmp(1, CmpOp::Lt, 5))
        );
        assert_eq!(
            parse_expr("project[#0,#2](r)").unwrap(),
            Expr::relation("r").project(vec![0, 2])
        );
        assert_eq!(
            parse_expr("join[#0=#1](a, b)").unwrap(),
            Expr::relation("a").join(Expr::relation("b"), vec![(0, 1)])
        );
        assert_eq!(
            parse_expr("(a union b)").unwrap(),
            Expr::relation("a").union(Expr::relation("b"))
        );
        assert_eq!(
            parse_expr("(a minus b)").unwrap(),
            Expr::relation("a").difference(Expr::relation("b"))
        );
        assert_eq!(
            parse_expr("(a intersect b)").unwrap(),
            Expr::relation("a").intersect(Expr::relation("b"))
        );
    }

    #[test]
    fn parses_nested_expressions() {
        let e = parse_expr("((a union b) intersect select[#0 = 3](c))").unwrap();
        assert_eq!(
            e,
            Expr::relation("a")
                .union(Expr::relation("b"))
                .intersect(Expr::relation("c").select(Predicate::col_cmp(0, CmpOp::Eq, 3)))
        );
    }

    #[test]
    fn predicate_precedence_and_connectives() {
        let p = parse_predicate("#0 < 5 and #1 >= 2 or not (#2 != 0)").unwrap();
        // `and` binds tighter than `or`.
        let expected = Predicate::col_cmp(0, CmpOp::Lt, 5)
            .and(Predicate::col_cmp(1, CmpOp::Ge, 2))
            .or(Predicate::col_cmp(2, CmpOp::Ne, 0).not());
        assert_eq!(p, expected);
    }

    #[test]
    fn constants_of_every_type() {
        assert_eq!(
            parse_predicate("#0 = -42").unwrap(),
            Predicate::col_cmp(0, CmpOp::Eq, -42)
        );
        assert_eq!(
            parse_predicate("#0 = 1.5").unwrap(),
            Predicate::col_cmp(0, CmpOp::Eq, 1.5)
        );
        assert_eq!(
            parse_predicate("#0 = true").unwrap(),
            Predicate::col_cmp(0, CmpOp::Eq, true)
        );
        assert_eq!(
            parse_predicate(r#"#0 = "hi \"there\"""#).unwrap(),
            Predicate::col_cmp(0, CmpOp::Eq, "hi \"there\"")
        );
        assert_eq!(parse_predicate("true").unwrap(), Predicate::True);
        assert_eq!(parse_predicate("false").unwrap(), Predicate::False);
    }

    #[test]
    fn column_to_column_comparison() {
        assert_eq!(
            parse_predicate("#0 <= #3").unwrap(),
            Predicate::col_col(0, CmpOp::Le, 3)
        );
    }

    #[test]
    fn display_round_trips() {
        let exprs = vec![
            Expr::relation("r1")
                .select(
                    Predicate::col_cmp(0, CmpOp::Lt, 5)
                        .and(Predicate::col_cmp(1, CmpOp::Eq, 1.25))
                        .or(Predicate::True.not()),
                )
                .project(vec![1, 0]),
            Expr::relation("a")
                .join(
                    Expr::relation("b").select(Predicate::col_cmp(0, CmpOp::Ne, "x")),
                    vec![(0, 0), (2, 1)],
                )
                .union(Expr::relation("c"))
                .difference(Expr::relation("a").intersect(Expr::relation("c"))),
            Expr::relation("t").select(Predicate::col_col(0, CmpOp::Gt, 1)),
        ];
        for e in &exprs {
            roundtrip(e);
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_expr("select[#1 <](r)").unwrap_err();
        assert!(err.position > 0);
        assert!(parse_expr("").is_err());
        assert!(parse_expr("r extra").is_err());
        assert!(parse_expr("join[#0=#0](a)").is_err());
        assert!(parse_expr("(a union)").is_err());
        assert!(parse_expr("select[#0 = \"oops](r)").is_err());
        assert!(parse_expr("union").is_err());
    }

    #[test]
    fn whitespace_is_insignificant() {
        let a = parse_expr("select[ #1 <  5 ] ( r )").unwrap();
        let b = parse_expr("select[#1<5](r)").unwrap();
        assert_eq!(a, b);
    }
}
