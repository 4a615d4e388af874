//! A small SQL parser for the paper's query class.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query      := SELECT projection FROM table-list [WHERE condition (AND condition)*]
//! projection := '*' | attr-ref (',' attr-ref)*
//! table-list := ident (',' ident)*
//! condition  := attr-ref '=' attr-ref            -- equi-join
//!             | attr-ref cmp literal             -- selection
//!             | literal cmp attr-ref             -- selection (flipped)
//!             | literal rel attr-ref rel literal -- chained range, e.g. 30 < age < 50
//! cmp        := '=' | '<' | '<=' | '>' | '>='
//! rel        := '<' | '<='
//! literal    := integer | 'string' | "string" | date (MM-DD-YYYY or YYYY-MM-DD)
//! attr-ref   := ident | ident '.' ident
//! ```
//!
//! This covers the paper's example query verbatim (§2), including its
//! chained comparisons (`30 < age < 50`) and dash-separated date literals
//! (`01-01-2000 < date`).

use crate::value::days_in_month;
use std::fmt;

/// A reference to an attribute, possibly qualified by relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrRef {
    /// `relation.attribute`
    Qualified(String, String),
    /// bare `attribute`
    Bare(String),
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrRef::Qualified(r, a) => write!(f, "{r}.{a}"),
            AttrRef::Bare(a) => write!(f, "{a}"),
        }
    }
}

/// A literal value in a condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal {
    /// Integer literal.
    Int(u32),
    /// Quoted string literal.
    Str(String),
    /// Date literal `(year, month, day)`.
    Date(u32, u32, u32),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with sides swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// One WHERE-clause conjunct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// `attr op literal` (normalized: attribute always on the left).
    Cmp {
        /// The attribute.
        attr: AttrRef,
        /// The operator, after normalization.
        op: CmpOp,
        /// The literal operand.
        lit: Literal,
    },
    /// `lo (<|<=) attr (<|<=) hi`
    Between {
        /// Lower literal.
        lo: Literal,
        /// Whether the lower bound is inclusive.
        lo_inclusive: bool,
        /// The attribute.
        attr: AttrRef,
        /// Upper literal.
        hi: Literal,
        /// Whether the upper bound is inclusive.
        hi_inclusive: bool,
    },
    /// `attr = attr` equi-join.
    JoinEq {
        /// Left attribute.
        left: AttrRef,
        /// Right attribute.
        right: AttrRef,
    },
}

/// SELECT list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// Explicit attribute list.
    Attrs(Vec<AttrRef>),
}

/// A parsed (not yet planned) query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedQuery {
    /// The SELECT list.
    pub projection: Projection,
    /// FROM relations, in order.
    pub relations: Vec<String>,
    /// WHERE conjuncts.
    pub conditions: Vec<Condition>,
}

/// Parse errors, with byte position where known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the input, when known.
    pub position: Option<usize>,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.position {
            Some(p) => write!(f, "parse error at byte {p}: {}", self.message),
            None => write!(f, "parse error: {}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>, position: Option<usize>) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
        position,
    })
}

// ---------------------------------------------------------------- tokenizer

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Int(u32),
    Str(String),
    Date(u32, u32, u32),
    Comma,
    Dot,
    Star,
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug)]
struct Tokenizer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(src: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn tokenize(mut self) -> Result<Vec<(Token, usize)>, ParseError> {
        let mut out = Vec::new();
        loop {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos >= self.bytes.len() {
                return Ok(out);
            }
            let start = self.pos;
            let c = self.bytes[self.pos];
            let tok = match c {
                b',' => {
                    self.pos += 1;
                    Token::Comma
                }
                b'.' => {
                    self.pos += 1;
                    Token::Dot
                }
                b'*' => {
                    self.pos += 1;
                    Token::Star
                }
                b'=' => {
                    self.pos += 1;
                    Token::Eq
                }
                b'<' => {
                    self.pos += 1;
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        Token::Le
                    } else {
                        Token::Lt
                    }
                }
                b'>' => {
                    self.pos += 1;
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        Token::Ge
                    } else {
                        Token::Gt
                    }
                }
                b'\'' | b'"' => {
                    let quote = c;
                    self.pos += 1;
                    let s_start = self.pos;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != quote {
                        self.pos += 1;
                    }
                    if self.pos >= self.bytes.len() {
                        return err("unterminated string literal", Some(start));
                    }
                    let s = self.src[s_start..self.pos].to_string();
                    self.pos += 1;
                    Token::Str(s)
                }
                b'0'..=b'9' => self.number_or_date(start)?,
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos].is_ascii_alphanumeric()
                            || self.bytes[self.pos] == b'_')
                    {
                        self.pos += 1;
                    }
                    Token::Ident(self.src[start..self.pos].to_string())
                }
                other => {
                    return err(
                        format!("unexpected character {:?}", other as char),
                        Some(start),
                    )
                }
            };
            out.push((tok, start));
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// A digit run, optionally continuing as `a-b-c` (a date literal).
    fn number_or_date(&mut self, start: usize) -> Result<Token, ParseError> {
        let first = self.digits(start)?;
        if self.peek() != Some(b'-') {
            return Ok(Token::Int(first));
        }
        self.pos += 1;
        let second = self.digits(self.pos)?;
        if self.peek() != Some(b'-') {
            return err("expected second '-' in date literal", Some(start));
        }
        self.pos += 1;
        let third = self.digits(self.pos)?;
        // MM-DD-YYYY (the paper's style) or YYYY-MM-DD (ISO).
        let (y, m, d) = if first >= 1000 {
            (first, second, third)
        } else {
            (third, first, second)
        };
        // Calendar-valid and four-digit, so planning's `days_since_1900`
        // neither rejects the day nor walks billions of years.
        if !(1900..=9999).contains(&y)
            || !(1..=12).contains(&m)
            || !(1..=days_in_month(y, m)).contains(&d)
        {
            return err(
                format!("invalid date literal {first}-{second}-{third}"),
                Some(start),
            );
        }
        Ok(Token::Date(y, m, d))
    }

    fn digits(&mut self, at: usize) -> Result<u32, ParseError> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return err("expected digits", Some(at));
        }
        self.src[start..self.pos]
            .parse::<u32>()
            .map_err(|_| ParseError {
                message: "integer literal out of range".to_string(),
                position: Some(at),
            })
    }
}

// ------------------------------------------------------------------ parser

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn peek_pos(&self) -> Option<usize> {
        self.tokens.get(self.pos).map(|&(_, p)| p)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => err(format!("expected {kw}, found {other:?}"), self.peek_pos()),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => err(
                format!("expected identifier, found {other:?}"),
                self.peek_pos(),
            ),
        }
    }

    fn attr_ref(&mut self) -> Result<AttrRef, ParseError> {
        let first = self.ident()?;
        if self.peek() == Some(&Token::Dot) {
            self.next();
            let second = self.ident()?;
            Ok(AttrRef::Qualified(first, second))
        } else {
            Ok(AttrRef::Bare(first))
        }
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Literal::Int(v)),
            Some(Token::Str(s)) => Ok(Literal::Str(s)),
            Some(Token::Date(y, m, d)) => Ok(Literal::Date(y, m, d)),
            other => err(
                format!("expected literal, found {other:?}"),
                self.peek_pos(),
            ),
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        match self.next() {
            Some(Token::Eq) => Ok(CmpOp::Eq),
            Some(Token::Lt) => Ok(CmpOp::Lt),
            Some(Token::Le) => Ok(CmpOp::Le),
            Some(Token::Gt) => Ok(CmpOp::Gt),
            Some(Token::Ge) => Ok(CmpOp::Ge),
            other => err(
                format!("expected comparison, found {other:?}"),
                self.peek_pos(),
            ),
        }
    }

    fn condition(&mut self) -> Result<Condition, ParseError> {
        let lit_first = matches!(
            self.peek(),
            Some(Token::Int(_)) | Some(Token::Str(_)) | Some(Token::Date(..))
        );
        if lit_first {
            // literal op attr [op literal]  — possibly a chained range.
            let lo = self.literal()?;
            let op1 = self.cmp_op()?;
            let attr = self.attr_ref()?;
            let chained = matches!(self.peek(), Some(Token::Lt) | Some(Token::Le));
            if chained {
                if !matches!(op1, CmpOp::Lt | CmpOp::Le) {
                    return err("chained comparison must use < or <=", self.peek_pos());
                }
                let op2 = self.cmp_op()?;
                let hi = self.literal()?;
                return Ok(Condition::Between {
                    lo,
                    lo_inclusive: op1 == CmpOp::Le,
                    attr,
                    hi,
                    hi_inclusive: op2 == CmpOp::Le,
                });
            }
            // `lit op attr` ⇒ normalize to `attr flip(op) lit`.
            return Ok(Condition::Cmp {
                attr,
                op: op1.flip(),
                lit: lo,
            });
        }
        // attr op (attr | literal)
        let left = self.attr_ref()?;
        let op = self.cmp_op()?;
        match self.peek() {
            Some(Token::Ident(_)) => {
                if op != CmpOp::Eq {
                    return err("joins must use =", self.peek_pos());
                }
                let right = self.attr_ref()?;
                Ok(Condition::JoinEq { left, right })
            }
            _ => {
                let lit = self.literal()?;
                Ok(Condition::Cmp {
                    attr: left,
                    op,
                    lit,
                })
            }
        }
    }
}

/// Parse one SQL query of the supported class.
pub fn parse_query(sql: &str) -> Result<ParsedQuery, ParseError> {
    let tokens = Tokenizer::new(sql).tokenize()?;
    let mut p = Parser { tokens, pos: 0 };

    p.expect_keyword("SELECT")?;
    let projection = if p.peek() == Some(&Token::Star) {
        p.next();
        Projection::Star
    } else {
        let mut attrs = vec![p.attr_ref()?];
        while p.peek() == Some(&Token::Comma) {
            p.next();
            attrs.push(p.attr_ref()?);
        }
        Projection::Attrs(attrs)
    };

    p.expect_keyword("FROM")?;
    let mut relations = vec![p.ident()?];
    while p.peek() == Some(&Token::Comma) {
        p.next();
        relations.push(p.ident()?);
    }

    let mut conditions = Vec::new();
    if p.at_keyword("WHERE") {
        p.next();
        conditions.push(p.condition()?);
        while p.at_keyword("AND") {
            p.next();
            conditions.push(p.condition()?);
        }
    }

    if p.pos != p.tokens.len() {
        return err(
            format!("unexpected trailing input: {:?}", p.peek()),
            p.peek_pos(),
        );
    }

    Ok(ParsedQuery {
        projection,
        relations,
        conditions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select_star() {
        let q = parse_query("SELECT * FROM Patient WHERE age = 30").unwrap();
        assert_eq!(q.projection, Projection::Star);
        assert_eq!(q.relations, vec!["Patient"]);
        assert_eq!(
            q.conditions,
            vec![Condition::Cmp {
                attr: AttrRef::Bare("age".into()),
                op: CmpOp::Eq,
                lit: Literal::Int(30),
            }]
        );
    }

    #[test]
    fn parses_no_where() {
        let q = parse_query("select name from Patient").unwrap();
        assert_eq!(q.conditions, vec![]);
        assert_eq!(
            q.projection,
            Projection::Attrs(vec![AttrRef::Bare("name".into())])
        );
    }

    #[test]
    fn parses_chained_range() {
        let q = parse_query("SELECT * FROM Patient WHERE 30 < age < 50").unwrap();
        assert_eq!(
            q.conditions,
            vec![Condition::Between {
                lo: Literal::Int(30),
                lo_inclusive: false,
                attr: AttrRef::Bare("age".into()),
                hi: Literal::Int(50),
                hi_inclusive: false,
            }]
        );
    }

    #[test]
    fn parses_inclusive_chain() {
        let q = parse_query("SELECT * FROM T WHERE 1 <= x < 9").unwrap();
        assert_eq!(
            q.conditions,
            vec![Condition::Between {
                lo: Literal::Int(1),
                lo_inclusive: true,
                attr: AttrRef::Bare("x".into()),
                hi: Literal::Int(9),
                hi_inclusive: false,
            }]
        );
    }

    #[test]
    fn normalizes_flipped_comparison() {
        // `30 < age` becomes `age > 30`.
        let q = parse_query("SELECT * FROM Patient WHERE 30 < age").unwrap();
        assert_eq!(
            q.conditions,
            vec![Condition::Cmp {
                attr: AttrRef::Bare("age".into()),
                op: CmpOp::Gt,
                lit: Literal::Int(30),
            }]
        );
    }

    #[test]
    fn parses_paper_date_literals() {
        let q = parse_query("SELECT * FROM Prescription WHERE 01-01-2000 <= date <= 12-31-2002")
            .unwrap();
        assert_eq!(
            q.conditions,
            vec![Condition::Between {
                lo: Literal::Date(2000, 1, 1),
                lo_inclusive: true,
                attr: AttrRef::Bare("date".into()),
                hi: Literal::Date(2002, 12, 31),
                hi_inclusive: true,
            }]
        );
    }

    #[test]
    fn parses_iso_dates() {
        let q = parse_query("SELECT * FROM Prescription WHERE date >= 2000-01-01").unwrap();
        assert_eq!(
            q.conditions,
            vec![Condition::Cmp {
                attr: AttrRef::Bare("date".into()),
                op: CmpOp::Ge,
                lit: Literal::Date(2000, 1, 1),
            }]
        );
    }

    #[test]
    fn parses_join_and_qualified_attrs() {
        let q = parse_query(
            "SELECT Prescription.prescription FROM Diagnosis, Prescription \
             WHERE Diagnosis.prescription_id = Prescription.prescription_id",
        )
        .unwrap();
        assert_eq!(
            q.projection,
            Projection::Attrs(vec![AttrRef::Qualified(
                "Prescription".into(),
                "prescription".into()
            )])
        );
        assert_eq!(
            q.conditions,
            vec![Condition::JoinEq {
                left: AttrRef::Qualified("Diagnosis".into(), "prescription_id".into()),
                right: AttrRef::Qualified("Prescription".into(), "prescription_id".into()),
            }]
        );
    }

    #[test]
    fn parses_string_literals_both_quotes() {
        let q1 = parse_query("SELECT * FROM D WHERE diagnosis = 'Glaucoma'").unwrap();
        let q2 = parse_query("SELECT * FROM D WHERE diagnosis = \"Glaucoma\"").unwrap();
        assert_eq!(q1.conditions, q2.conditions);
    }

    #[test]
    fn rejects_unterminated_string() {
        let e = parse_query("SELECT * FROM D WHERE x = 'oops").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let e = parse_query("SELECT * FROM T WHERE a = 1 banana").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn rejects_missing_from() {
        assert!(parse_query("SELECT *").is_err());
        assert!(parse_query("SELECT * WHERE a = 1").is_err());
    }

    #[test]
    fn rejects_non_eq_join() {
        let e = parse_query("SELECT * FROM A, B WHERE A.x < B.y").unwrap_err();
        assert!(e.message.contains("joins must use ="));
    }

    #[test]
    fn rejects_invalid_date() {
        for lit in [
            "13-45-2000",
            "2001-02-31",
            "02-30-2001",
            "4000000000-01-01",
            "2100-02-29",
        ] {
            let sql = format!("SELECT * FROM Prescription WHERE date >= {lit}");
            let e = parse_query(&sql).expect_err(lit);
            assert!(e.message.contains("invalid date literal"), "{lit}: {e}");
        }
        assert!(parse_query("SELECT * FROM Prescription WHERE date >= 2000-02-29").is_ok());
    }

    #[test]
    fn rejects_chain_with_eq() {
        let e = parse_query("SELECT * FROM T WHERE 1 = x < 5").unwrap_err();
        assert!(e.message.contains("chained"));
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query("select * from T where 1 < x and x < 5").unwrap();
        assert_eq!(q.conditions.len(), 2);
    }

    #[test]
    fn parses_full_paper_query() {
        let q = parse_query(
            "Select Prescription.prescription \
             from Patient, Diagnosis, Prescription \
             where 30 <= age AND age <= 50 \
             and diagnosis = 'Glaucoma' \
             and Patient.patient_id = Diagnosis.patient_id \
             and 01-01-2000 <= date AND date <= 12-31-2002 \
             and Diagnosis.prescription_id = Prescription.prescription_id",
        )
        .unwrap();
        assert_eq!(q.relations.len(), 3);
        assert_eq!(q.conditions.len(), 7);
    }

    #[test]
    fn error_display_includes_position() {
        let e = parse_query("SELECT * FROM T WHERE ^").unwrap_err();
        let msg = format!("{e}");
        assert!(msg.contains("parse error"));
        assert!(msg.contains("byte"));
    }
}
