//! SQL lexer and parser for the subset ArchIS emits (plus plain SQL
//! selects for benchmarks and tests).
//!
//! String literals accept both `'...'` and `"..."` (the paper's examples
//! write `N.name = "Bob"`). Keywords are case-insensitive.

use crate::{Result, SqlError};
use relstore::expr::{AggFunc, BinOp, UnOp};
use relstore::value::Value;

/// A select-list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: SqlExpr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// `(table, alias)` pairs in FROM order.
    pub from: Vec<(String, String)>,
    /// WHERE condition.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<SqlExpr>,
    /// ORDER BY `(expr, ascending)` pairs.
    pub order_by: Vec<(SqlExpr, bool)>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

/// SQL expressions, including the SQL/XML constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Literal value.
    Lit(Value),
    /// Column reference, optionally qualified (`e.name`).
    Col {
        /// Table alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Binary operation (comparisons, AND/OR, arithmetic).
    Bin(BinOp, Box<SqlExpr>, Box<SqlExpr>),
    /// Unary operation (NOT, negation, IS \[NOT\] NULL).
    Un(UnOp, Box<SqlExpr>),
    /// Scalar function call (UDFs such as `toverlaps`).
    Call(String, Vec<SqlExpr>),
    /// Standard aggregate. The bool marks `COUNT(*)`.
    Agg(AggFunc, Box<SqlExpr>, bool),
    /// `agg(DISTINCT expr)` — aggregate over distinct argument values.
    AggDistinct(AggFunc, Box<SqlExpr>),
    /// `XMLElement(Name "tag", [XMLAttributes(...),] content...)`.
    XmlElement {
        /// Element tag.
        name: String,
        /// `XMLAttributes` entries: `(attribute name, value expr)`.
        attrs: Vec<(String, SqlExpr)>,
        /// Content expressions (XML or scalar).
        content: Vec<SqlExpr>,
    },
    /// `XMLAgg(expr)` — aggregates XML values of a group in input order.
    XmlAgg(Box<SqlExpr>),
}

impl SqlExpr {
    /// Does this expression (transitively) contain an aggregate?
    pub fn has_aggregate(&self) -> bool {
        match self {
            SqlExpr::Agg(..) | SqlExpr::AggDistinct(..) | SqlExpr::XmlAgg(..) => true,
            SqlExpr::Lit(_) | SqlExpr::Col { .. } => false,
            SqlExpr::Bin(_, l, r) => l.has_aggregate() || r.has_aggregate(),
            SqlExpr::Un(_, e) => e.has_aggregate(),
            SqlExpr::Call(_, args) => args.iter().any(SqlExpr::has_aggregate),
            SqlExpr::XmlElement { attrs, content, .. } => {
                attrs.iter().any(|(_, e)| e.has_aggregate())
                    || content.iter().any(SqlExpr::has_aggregate)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Name(String),
    Str(String),
    Int(i64),
    Dec(f64),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if b.get(i + 1) == Some(&b'-') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                out.push((Tok::LParen, i));
                i += 1;
            }
            b')' => {
                out.push((Tok::RParen, i));
                i += 1;
            }
            b',' => {
                out.push((Tok::Comma, i));
                i += 1;
            }
            b'.' => {
                out.push((Tok::Dot, i));
                i += 1;
            }
            b'*' => {
                out.push((Tok::Star, i));
                i += 1;
            }
            b'+' => {
                out.push((Tok::Plus, i));
                i += 1;
            }
            b'-' => {
                out.push((Tok::Minus, i));
                i += 1;
            }
            b'/' => {
                out.push((Tok::Slash, i));
                i += 1;
            }
            b'=' => {
                out.push((Tok::Eq, i));
                i += 1;
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                out.push((Tok::Ne, i));
                i += 2;
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Le, i));
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    out.push((Tok::Ne, i));
                    i += 2;
                } else {
                    out.push((Tok::Lt, i));
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Ge, i));
                    i += 2;
                } else {
                    out.push((Tok::Gt, i));
                    i += 1;
                }
            }
            b'\'' | b'"' => {
                let quote = c;
                let mut j = i + 1;
                let mut s = String::new();
                loop {
                    if j >= b.len() {
                        return Err(SqlError::Parse(i, "unterminated string".into()));
                    }
                    if b[j] == quote {
                        if b.get(j + 1) == Some(&quote) {
                            s.push(quote as char);
                            j += 2;
                            continue;
                        }
                        break;
                    }
                    s.push(b[j] as char);
                    j += 1;
                }
                out.push((Tok::Str(s), i));
                i = j + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let v: f64 = src[start..i]
                        .parse()
                        .map_err(|_| SqlError::Parse(start, "bad decimal".into()))?;
                    out.push((Tok::Dec(v), start));
                } else {
                    let v: i64 = src[start..i]
                        .parse()
                        .map_err(|_| SqlError::Parse(start, "bad integer".into()))?;
                    out.push((Tok::Int(v), start));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push((Tok::Name(src[start..i].to_string()), start));
            }
            other => {
                return Err(SqlError::Parse(
                    i,
                    format!("unexpected character {:?}", other as char),
                ))
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse one `SELECT` statement.
pub fn parse_sql(src: &str) -> Result<SelectStmt> {
    let toks = lex(src)?;
    let mut p = P {
        toks,
        pos: 0,
        len: src.len(),
    };
    let stmt = p.parse_select()?;
    if p.pos < p.toks.len() {
        return Err(p.err("unexpected trailing tokens"));
    }
    Ok(stmt)
}

struct P {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    len: usize,
}

impl P {
    fn err(&self, m: impl Into<String>) -> SqlError {
        let at = self.toks.get(self.pos).map(|t| t.1).unwrap_or(self.len);
        SqlError::Parse(at, m.into())
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.0)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.0)
    }

    fn kw(&self, k: &str) -> bool {
        matches!(self.peek(), Some(Tok::Name(n)) if n.eq_ignore_ascii_case(k))
    }

    fn kw2(&self, k: &str) -> bool {
        matches!(self.peek2(), Some(Tok::Name(n)) if n.eq_ignore_ascii_case(k))
    }

    fn eat_kw(&mut self, k: &str) -> Result<()> {
        if self.kw(k) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {k}")))
        }
    }

    fn eat(&mut self, t: &Tok) -> Result<()> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn name(&mut self) -> Result<String> {
        match self.peek().cloned() {
            Some(Tok::Name(n)) => {
                self.pos += 1;
                Ok(n)
            }
            other => Err(self.err(format!("expected a name, found {other:?}"))),
        }
    }

    fn parse_select(&mut self) -> Result<SelectStmt> {
        self.eat_kw("select")?;
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let alias = if self.kw("as") {
                self.pos += 1;
                Some(self.name_or_string()?)
            } else {
                None
            };
            items.push(SelectItem { expr, alias });
            if self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.eat_kw("from")?;
        let mut from = Vec::new();
        loop {
            let table = self.name()?;
            let alias = if self.kw("as") {
                self.pos += 1;
                self.name()?
            } else if matches!(self.peek(), Some(Tok::Name(n))
                if !is_keyword(n))
            {
                self.name()?
            } else {
                table.clone()
            };
            from.push((table, alias));
            if self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let where_clause = if self.kw("where") {
            self.pos += 1;
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.kw("group") && self.kw2("by") {
            self.pos += 2;
            loop {
                group_by.push(self.parse_expr()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.kw("order") && self.kw2("by") {
            self.pos += 2;
            loop {
                let e = self.parse_expr()?;
                let mut asc = true;
                if self.kw("asc") {
                    self.pos += 1;
                } else if self.kw("desc") {
                    self.pos += 1;
                    asc = false;
                }
                order_by.push((e, asc));
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let limit = if self.kw("limit") {
            self.pos += 1;
            match self.peek().cloned() {
                Some(Tok::Int(n)) if n >= 0 => {
                    self.pos += 1;
                    Some(n as usize)
                }
                _ => return Err(self.err("expected row count after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn name_or_string(&mut self) -> Result<String> {
        match self.peek().cloned() {
            Some(Tok::Name(n)) => {
                self.pos += 1;
                Ok(n)
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!("expected name or string, found {other:?}"))),
        }
    }

    fn parse_expr(&mut self) -> Result<SqlExpr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<SqlExpr> {
        let mut l = self.parse_and()?;
        while self.kw("or") {
            self.pos += 1;
            let r = self.parse_and()?;
            l = SqlExpr::Bin(BinOp::Or, Box::new(l), Box::new(r));
        }
        Ok(l)
    }

    fn parse_and(&mut self) -> Result<SqlExpr> {
        let mut l = self.parse_not()?;
        while self.kw("and") {
            self.pos += 1;
            let r = self.parse_not()?;
            l = SqlExpr::Bin(BinOp::And, Box::new(l), Box::new(r));
        }
        Ok(l)
    }

    fn parse_not(&mut self) -> Result<SqlExpr> {
        if self.kw("not") {
            self.pos += 1;
            let e = self.parse_not()?;
            return Ok(SqlExpr::Un(UnOp::Not, Box::new(e)));
        }
        self.parse_cmp()
    }

    fn parse_cmp(&mut self) -> Result<SqlExpr> {
        let l = self.parse_add()?;
        // IS [NOT] NULL
        if self.kw("is") {
            self.pos += 1;
            let negated = if self.kw("not") {
                self.pos += 1;
                true
            } else {
                false
            };
            self.eat_kw("null")?;
            let op = if negated {
                UnOp::IsNotNull
            } else {
                UnOp::IsNull
            };
            return Ok(SqlExpr::Un(op, Box::new(l)));
        }
        let op = match self.peek() {
            Some(Tok::Eq) => Some(BinOp::Eq),
            Some(Tok::Ne) => Some(BinOp::Ne),
            Some(Tok::Lt) => Some(BinOp::Lt),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::Gt) => Some(BinOp::Gt),
            Some(Tok::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let r = self.parse_add()?;
            return Ok(SqlExpr::Bin(op, Box::new(l), Box::new(r)));
        }
        Ok(l)
    }

    fn parse_add(&mut self) -> Result<SqlExpr> {
        let mut l = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let r = self.parse_mul()?;
            l = SqlExpr::Bin(op, Box::new(l), Box::new(r));
        }
        Ok(l)
    }

    fn parse_mul(&mut self) -> Result<SqlExpr> {
        let mut l = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let r = self.parse_unary()?;
            l = SqlExpr::Bin(op, Box::new(l), Box::new(r));
        }
        Ok(l)
    }

    fn parse_unary(&mut self) -> Result<SqlExpr> {
        if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            // Fold `-` into a numeric literal right after it, so `segno = -1`
            // is a constant the planner can turn into an access-path bound.
            // Lexed integers are never negative, so the negation cannot
            // overflow.
            match self.peek() {
                Some(&Tok::Int(i)) => {
                    self.pos += 1;
                    return Ok(SqlExpr::Lit(Value::Int(-i)));
                }
                Some(&Tok::Dec(d)) => {
                    self.pos += 1;
                    return Ok(SqlExpr::Lit(Value::Double(-d)));
                }
                _ => {}
            }
            let e = self.parse_unary()?;
            return Ok(SqlExpr::Un(UnOp::Neg, Box::new(e)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<SqlExpr> {
        match self.peek().cloned() {
            Some(Tok::Int(i)) => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Value::Int(i)))
            }
            Some(Tok::Dec(d)) => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Value::Double(d)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Value::Str(s)))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Name(n)) if n.eq_ignore_ascii_case("null") => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Value::Null))
            }
            Some(Tok::Name(n)) if n.eq_ignore_ascii_case("xmlelement") => self.parse_xmlelement(),
            Some(Tok::Name(n)) if n.eq_ignore_ascii_case("xmlagg") => {
                self.pos += 1;
                self.eat(&Tok::LParen)?;
                let arg = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                Ok(SqlExpr::XmlAgg(Box::new(arg)))
            }
            Some(Tok::Name(n)) if is_agg(&n) && self.peek2() == Some(&Tok::LParen) => {
                self.pos += 2;
                let func = agg_of(&n);
                if self.peek() == Some(&Tok::Star) {
                    self.pos += 1;
                    self.eat(&Tok::RParen)?;
                    return Ok(SqlExpr::Agg(
                        AggFunc::CountStar,
                        Box::new(SqlExpr::Lit(Value::Int(1))),
                        true,
                    ));
                }
                if self.kw("distinct") {
                    self.pos += 1;
                    let arg = self.parse_expr()?;
                    self.eat(&Tok::RParen)?;
                    return Ok(SqlExpr::AggDistinct(func, Box::new(arg)));
                }
                let arg = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                Ok(SqlExpr::Agg(func, Box::new(arg), false))
            }
            Some(Tok::Name(_)) => {
                let n = self.name()?;
                if self.peek() == Some(&Tok::LParen) {
                    // Scalar function call.
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.peek() == Some(&Tok::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(&Tok::RParen)?;
                    return Ok(SqlExpr::Call(n, args));
                }
                if self.peek() == Some(&Tok::Dot) {
                    self.pos += 1;
                    let col = self.name()?;
                    return Ok(SqlExpr::Col {
                        qualifier: Some(n),
                        name: col,
                    });
                }
                Ok(SqlExpr::Col {
                    qualifier: None,
                    name: n,
                })
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }

    /// `XMLElement(Name "tag" [, XMLAttributes(e AS "a", ...)] [, content]*)`
    fn parse_xmlelement(&mut self) -> Result<SqlExpr> {
        self.pos += 1; // XMLElement
        self.eat(&Tok::LParen)?;
        self.eat_kw("name")?;
        let name = self.name_or_string()?;
        let mut attrs = Vec::new();
        let mut content = Vec::new();
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            if self.kw("xmlattributes") {
                self.pos += 1;
                self.eat(&Tok::LParen)?;
                loop {
                    let e = self.parse_expr()?;
                    let aname = if self.kw("as") {
                        self.pos += 1;
                        self.name_or_string()?
                    } else {
                        // Default attribute name from a column reference.
                        match &e {
                            SqlExpr::Col { name, .. } => name.clone(),
                            _ => return Err(self.err("XMLAttributes entry needs AS \"name\"")),
                        }
                    };
                    attrs.push((aname, e));
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.eat(&Tok::RParen)?;
            } else {
                content.push(self.parse_expr()?);
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(SqlExpr::XmlElement {
            name,
            attrs,
            content,
        })
    }
}

fn is_keyword(n: &str) -> bool {
    matches!(
        n.to_ascii_lowercase().as_str(),
        "select"
            | "from"
            | "where"
            | "group"
            | "order"
            | "by"
            | "as"
            | "and"
            | "or"
            | "not"
            | "is"
            | "null"
            | "limit"
            | "asc"
            | "desc"
    )
}

fn is_agg(n: &str) -> bool {
    matches!(
        n.to_ascii_lowercase().as_str(),
        "count" | "sum" | "avg" | "min" | "max"
    )
}

fn agg_of(n: &str) -> AggFunc {
    match n.to_ascii_lowercase().as_str() {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "avg" => AggFunc::Avg,
        "min" => AggFunc::Min,
        _ => AggFunc::Max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query1_translation() {
        // The SQL/XML the paper shows for QUERY 1 (§5.3).
        let sql = r#"select XMLElement (Name "title_history",
            XMLAgg (XMLElement (Name "title",
                XMLAttributes (T.tstart as "tstart", T.tend as "tend"), T.title)))
            from employee_title as T, employee_name as N
            where N.id = T.id and N.name = "Bob"
            group by N.id"#;
        let stmt = parse_sql(sql).unwrap();
        assert_eq!(stmt.from.len(), 2);
        assert_eq!(stmt.from[0], ("employee_title".into(), "T".into()));
        assert_eq!(stmt.group_by.len(), 1);
        let SqlExpr::XmlElement { name, content, .. } = &stmt.items[0].expr else {
            panic!()
        };
        assert_eq!(name, "title_history");
        assert!(matches!(&content[0], SqlExpr::XmlAgg(_)));
        assert!(stmt.items[0].expr.has_aggregate());
    }

    #[test]
    fn minus_before_a_numeric_literal_folds_into_it() {
        let stmt = parse_sql("select - 1, -1.5, - (1) from t").unwrap();
        assert_eq!(stmt.items[0].expr, SqlExpr::Lit(Value::Int(-1)));
        assert_eq!(stmt.items[1].expr, SqlExpr::Lit(Value::Double(-1.5)));
        assert_eq!(
            stmt.items[2].expr,
            SqlExpr::Un(UnOp::Neg, Box::new(SqlExpr::Lit(Value::Int(1))))
        );
    }

    #[test]
    fn parses_xmlattributes_with_defaults() {
        let sql = r#"select XMLElement(Name e, XMLAttributes(t.tstart, t.tend as "end")) from t"#;
        let stmt = parse_sql(sql).unwrap();
        let SqlExpr::XmlElement { attrs, .. } = &stmt.items[0].expr else {
            panic!()
        };
        assert_eq!(attrs[0].0, "tstart");
        assert_eq!(attrs[1].0, "end");
    }

    #[test]
    fn parses_plain_select() {
        let stmt = parse_sql(
            "select e.salary, count(*) from employee_salary e \
             where e.salary >= 60000 and e.tstart <= '1994-05-06' \
             group by e.salary order by e.salary desc limit 10",
        )
        .unwrap();
        assert_eq!(stmt.items.len(), 2);
        assert!(matches!(
            stmt.items[1].expr,
            SqlExpr::Agg(AggFunc::CountStar, _, true)
        ));
        assert_eq!(stmt.limit, Some(10));
        assert!(!stmt.order_by[0].1);
    }

    #[test]
    fn parses_udf_calls_in_where() {
        let stmt = parse_sql(
            "select e.id from employee_id e \
             where toverlaps(e.tstart, e.tend, '1994-05-06', '1995-05-06')",
        )
        .unwrap();
        let Some(SqlExpr::Call(name, args)) = stmt.where_clause else {
            panic!()
        };
        assert_eq!(name, "toverlaps");
        assert_eq!(args.len(), 4);
    }

    #[test]
    fn parses_is_null_and_not() {
        let stmt = parse_sql("select a from t where not (a is null) and b is not null").unwrap();
        assert!(stmt.where_clause.is_some());
    }

    #[test]
    fn implicit_alias_defaults_to_table_name() {
        let stmt = parse_sql("select x from tbl where x = 1").unwrap();
        assert_eq!(stmt.from[0], ("tbl".into(), "tbl".into()));
        let stmt2 = parse_sql("select t.x from tbl t").unwrap();
        assert_eq!(stmt2.from[0], ("tbl".into(), "t".into()));
    }

    #[test]
    fn string_escapes_and_comments() {
        let stmt = parse_sql("select 'it''s' from t -- trailing comment").unwrap();
        assert_eq!(stmt.items[0].expr, SqlExpr::Lit(Value::Str("it's".into())));
    }

    #[test]
    fn rejects_bad_sql() {
        assert!(parse_sql("select").is_err());
        assert!(parse_sql("select a").is_err(), "missing FROM");
        assert!(parse_sql("select a from").is_err());
        assert!(parse_sql("select a from t where").is_err());
        assert!(parse_sql("select a from t limit x").is_err());
        assert!(parse_sql("select a from t alias1 alias2").is_err());
        assert!(parse_sql("select 'oops from t").is_err());
    }

    #[test]
    fn arithmetic_precedence() {
        let stmt = parse_sql("select a + b * 2 from t").unwrap();
        let SqlExpr::Bin(BinOp::Add, _, r) = &stmt.items[0].expr else {
            panic!()
        };
        assert!(matches!(**r, SqlExpr::Bin(BinOp::Mul, _, _)));
    }
}
