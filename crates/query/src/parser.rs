//! A small Datalog front end.
//!
//! Accepts the notation used throughout the paper, e.g.
//!
//! ```text
//! Twitter(x,y,z) :- Twitter_R(x,y), Twitter_S(y,z), Twitter_T(z,x)
//! ActorPairs(a1,a2) :- ActorPerform(a1,p1), ..., f1 > f2
//! OscarWinners(a) :- ObjectName(aw, 4242), ..., y >= 1990, y < 2000
//! ```
//!
//! Identifiers in atom arguments are variables; unsigned integers are
//! constants (the dictionary-encoded form of the paper's string literals
//! such as `"Joe Pesci"`). Comparisons between variables and/or integers
//! become filters. A trailing `.` is optional.

use crate::{CmpOp, ConjunctiveQuery, QueryBuilder, Term};
use std::fmt;

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the failure occurred.
    pub at: usize,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor { src, pos: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, pat: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(pat) {
            self.pos += pat.len();
            true
        } else {
            false
        }
    }

    fn require(&mut self, pat: &str) -> Result<(), ParseError> {
        if self.eat(pat) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{pat}`")))
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let bytes = self.src.as_bytes();
        let start = self.pos;
        if start >= bytes.len() || !(bytes[start].is_ascii_alphabetic() || bytes[start] == b'_') {
            return Err(self.err("expected identifier"));
        }
        let mut end = start;
        while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
            end += 1;
        }
        self.pos = end;
        Ok(&self.src[start..end])
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut end = start;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if end == start {
            return Err(self.err("expected number"));
        }
        self.pos = end;
        self.src[start..end]
            .parse::<u64>()
            .map_err(|e| self.err(format!("bad number: {e}")))
    }

    fn cmp_op(&mut self) -> Option<CmpOp> {
        // Longest match first.
        for (pat, op) in [
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("!=", CmpOp::Ne),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
            ("=", CmpOp::Eq),
        ] {
            if self.eat(pat) {
                return Some(op);
            }
        }
        None
    }
}

/// Parses a Datalog rule into a [`ConjunctiveQuery`].
///
/// ```
/// let q = parjoin_query::parser::parse(
///     "T(x,y,z) :- R(x,y), S(y,z), T(z,x)").unwrap();
/// assert_eq!(q.atoms.len(), 3);
/// assert_eq!(q.output_vars().len(), 3);
/// ```
pub fn parse(src: &str) -> Result<ConjunctiveQuery, ParseError> {
    let mut c = Cursor::new(src);
    let name = c.ident()?.to_string();
    let mut builder = QueryBuilder::new(&name);

    // Head variable list.
    c.require("(")?;
    let mut head = Vec::new();
    loop {
        let v = c.ident()?;
        head.push(builder.var(v));
        if !c.eat(",") {
            break;
        }
    }
    c.require(")")?;
    c.require(":-")?;

    // Body: atoms and filters, comma-separated.
    loop {
        c.skip_ws();
        // Decide: identifier followed by `(` is an atom; identifier
        // followed by a comparison is a filter; a number starts nothing
        // valid on the left.
        let save = c.pos;
        let id = c.ident()?;
        if c.peek() == Some(b'(') {
            c.require("(")?;
            let mut terms = Vec::new();
            loop {
                c.skip_ws();
                let ch = c.peek().ok_or_else(|| c.err("unexpected end in atom"))?;
                if ch.is_ascii_digit() {
                    terms.push(Term::Const(c.number()?));
                } else {
                    let v = c.ident()?;
                    terms.push(Term::Var(builder.var(v)));
                }
                if !c.eat(",") {
                    break;
                }
            }
            c.require(")")?;
            builder.atom_terms(id, terms);
        } else if let Some(op) = c.cmp_op() {
            let left = builder.var(&src[save..save + id.len()]);
            c.skip_ws();
            let ch = c.peek().ok_or_else(|| c.err("unexpected end in filter"))?;
            if ch.is_ascii_digit() {
                let k = c.number()?;
                builder.filter_vc(left, op, k);
            } else {
                let r = c.ident()?;
                let rv = builder.var(r);
                builder.filter_vv(left, op, rv);
            }
        } else {
            return Err(c.err("expected `(` (atom) or comparison (filter)"));
        }
        if !c.eat(",") {
            break;
        }
    }
    let _ = c.eat(".");
    c.skip_ws();
    if c.pos != src.len() {
        return Err(c.err("trailing input"));
    }

    builder.head(head);
    // Parsed text is user input: an invalid query is an error, not the
    // panic `QueryBuilder::build` reserves for queries written in code.
    builder.try_build().map_err(|msg| ParseError { at: 0, msg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Operand};

    #[test]
    fn parses_triangle() {
        let q = parse("Twitter(x,y,z) :- Twitter_R(x,y), Twitter_S(y,z), Twitter_T(z,x)").unwrap();
        assert_eq!(q.name, "Twitter");
        assert_eq!(q.atoms.len(), 3);
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.head.len(), 3);
        assert_eq!(q.atoms[2].relation, "Twitter_T");
    }

    #[test]
    fn parses_constants() {
        let q = parse("Q(a) :- ObjectName(a, 99), ActorPerform(a, p)").unwrap();
        assert_eq!(q.atoms[0].terms[1], Term::Const(99));
        assert_eq!(q.num_vars(), 2);
    }

    #[test]
    fn parses_filters() {
        let q = parse("Q(a,b) :- R(a,f1), S(b,f2), f1 > f2, f1 >= 10").unwrap();
        assert_eq!(q.filters.len(), 2);
        assert_eq!(q.filters[0].op, CmpOp::Gt);
        assert!(matches!(q.filters[0].right, Operand::Var(_)));
        assert!(matches!(q.filters[1].right, Operand::Const(10)));
    }

    #[test]
    fn trailing_dot_ok() {
        assert!(parse("Q(x) :- R(x).").is_ok());
    }

    #[test]
    fn whitespace_insensitive() {
        let q = parse("  Q ( x , y ) :-  R ( x , y ) ,  x  <=  7 ").unwrap();
        assert_eq!(q.filters.len(), 1);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("Q(x)").is_err());
        assert!(parse("Q(x) :- ").is_err());
        assert!(parse("Q(x) :- R(x) extra").is_err());
        assert!(parse("Q(x) :- 5(x)").is_err());
    }

    #[test]
    fn rejects_head_var_not_in_body() {
        let e = parse("Q(x, ghost) :- R(x)").unwrap_err();
        assert!(e.msg.contains("ghost") || e.msg.contains("unused"), "{e}");
    }

    #[test]
    fn parses_q4_shape() {
        let q = parse(
            "ActorPairs(a1, a2) :- ActorPerform(a1, p1), PerformFilm(p1, f1), \
             PerformFilm(p2, f1), ActorPerform(a2, p2), ActorPerform(a2, p3), \
             PerformFilm(p3, f2), PerformFilm(p4, f2), ActorPerform(a1, p4), f1 > f2",
        )
        .unwrap();
        assert_eq!(q.atoms.len(), 8);
        assert_eq!(q.num_vars(), 8);
        assert_eq!(q.filters.len(), 1);
    }
}
