//! Row expressions with SQL three-valued logic and a scalar-UDF registry.
//!
//! Predicates evaluate to `Int(1)` / `Int(0)` / `Null` (true / false /
//! unknown), the SQLite convention. `AND` / `OR` short-circuit: `FALSE AND
//! x` is FALSE and `TRUE OR x` is TRUE without evaluating `x`, so an error
//! `x` would raise (an unknown-type comparison, a UDF rejecting its
//! arguments) does not surface on rows the left side already decides.
//!
//! ArchIS registers its temporal built-ins (`toverlaps`, `tcontains`, ...)
//! as scalar UDFs in a [`FnRegistry`] — the paper's "translation of
//! built-in functions" (§5.3, step 4). A call is bound to its function
//! once, when the expression is built ([`FnRegistry::call`]); evaluation
//! never looks a name up.

use crate::value::Value;
use crate::{Result, StoreError};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Logical AND (3-valued).
    And,
    /// Logical OR (3-valued).
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical NOT (3-valued).
    Not,
    /// Arithmetic negation.
    Neg,
    /// `IS NULL`
    IsNull,
    /// `IS NOT NULL`
    IsNotNull,
}

/// Aggregate functions, folded by [`crate::exec::Accumulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` — non-NULL inputs.
    Count,
    /// `COUNT(*)`.
    CountStar,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
}

/// A row expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Column by position in the input row.
    Col(usize),
    /// A constant.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Scalar UDF call, bound by [`FnRegistry::call`].
    Call(BoundFn, Vec<Expr>),
}

impl Expr {
    /// Shorthand: `Expr::Col`.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Shorthand: literal.
    pub fn lit(v: Value) -> Expr {
        Expr::Lit(v)
    }

    /// Shorthand: binary op.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    /// Conjunction of a list of predicates (empty list = TRUE).
    pub fn and_all(mut preds: Vec<Expr>) -> Expr {
        match preds.len() {
            0 => Expr::Lit(Value::Int(1)),
            1 => preds.pop().unwrap(),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().unwrap();
                it.fold(first, |acc, p| Expr::bin(BinOp::And, acc, p))
            }
        }
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Col(_) | Expr::Lit(_) => self.operand(row).map(Cow::into_owned),
            Expr::Un(op, e) => {
                let v = e.operand(row)?;
                Ok(match op {
                    UnOp::IsNull => Value::Int(v.is_null() as i64),
                    UnOp::IsNotNull => Value::Int(!v.is_null() as i64),
                    UnOp::Not => match truth(&v) {
                        Some(b) => Value::Int(!b as i64),
                        None => Value::Null,
                    },
                    UnOp::Neg => match *v {
                        Value::Int(i) => Value::Int(-i),
                        Value::Double(d) => Value::Double(-d),
                        Value::Null => Value::Null,
                        ref other => {
                            return Err(StoreError::Eval(format!("cannot negate {other}")))
                        }
                    },
                })
            }
            Expr::Bin(op, l, r) => {
                // AND/OR: three-valued, and the right side is evaluated
                // only when the left one does not decide.
                if let BinOp::And | BinOp::Or = op {
                    let decides = *op == BinOp::Or;
                    let lv = truth(&*l.operand(row)?);
                    if lv == Some(decides) {
                        return Ok(Value::Int(decides as i64));
                    }
                    let rv = truth(&*r.operand(row)?);
                    return Ok(match (lv, rv) {
                        (_, Some(b)) if b == decides => Value::Int(decides as i64),
                        (Some(_), Some(_)) => Value::Int(!decides as i64),
                        _ => Value::Null,
                    });
                }
                let lv = l.operand(row)?;
                let rv = r.operand(row)?;
                match op {
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        Ok(match lv.sql_cmp(&rv) {
                            None => Value::Null,
                            Some(ord) => {
                                let b = match op {
                                    BinOp::Eq => ord == Ordering::Equal,
                                    BinOp::Ne => ord != Ordering::Equal,
                                    BinOp::Lt => ord == Ordering::Less,
                                    BinOp::Le => ord != Ordering::Greater,
                                    BinOp::Gt => ord == Ordering::Greater,
                                    BinOp::Ge => ord != Ordering::Less,
                                    _ => unreachable!(),
                                };
                                Value::Int(b as i64)
                            }
                        })
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(*op, &lv, &rv),
                    BinOp::And | BinOp::Or => unreachable!(),
                }
            }
            Expr::Call(f, args) => {
                // Calls of up to four arguments — every temporal built-in —
                // evaluate them on the stack; only wider calls allocate.
                let mut inline: [Value; 4] = std::array::from_fn(|_| Value::Null);
                if let Some(vals) = inline.get_mut(..args.len()) {
                    for (v, a) in vals.iter_mut().zip(args) {
                        *v = a.eval(row)?;
                    }
                    return (f.f)(vals);
                }
                let vals = args
                    .iter()
                    .map(|a| a.eval(row))
                    .collect::<Result<Vec<Value>>>()?;
                (f.f)(&vals)
            }
        }
    }

    /// An operand's value, borrowed from the row or the literal when the
    /// expression is one (so comparing a string column allocates nothing).
    fn operand<'a>(&'a self, row: &'a [Value]) -> Result<Cow<'a, Value>> {
        match self {
            Expr::Col(i) => row
                .get(*i)
                .map(Cow::Borrowed)
                .ok_or_else(|| StoreError::Eval(format!("column index {i} out of range"))),
            Expr::Lit(v) => Ok(Cow::Borrowed(v)),
            e => e.eval(row).map(Cow::Owned),
        }
    }

    /// Evaluate as a predicate: NULL counts as false.
    pub fn eval_bool(&self, row: &[Value]) -> Result<bool> {
        Ok(truth(&*self.operand(row)?).unwrap_or(false))
    }
}

/// SQL truthiness: nonzero numbers are true, NULL is unknown.
pub fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(*i != 0),
        Value::Double(d) => Some(*d != 0.0),
        Value::Str(s) => Some(!s.is_empty()),
        _ => Some(true),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Date ± Int (days) arithmetic, used by temporal slicing rewrites.
    if let (Value::Date(d), Value::Int(n)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Date(*d + *n as i32),
            BinOp::Sub => Value::Date(*d - *n as i32),
            _ => return Err(StoreError::Eval("only +/- defined on dates".into())),
        });
    }
    if let (Value::Date(a), Value::Date(b)) = (l, r) {
        if op == BinOp::Sub {
            return Ok(Value::Int(a.days_since(*b) as i64));
        }
    }
    // Integer arithmetic stays integral except for division (exact).
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Int(a + b),
            BinOp::Sub => Value::Int(a - b),
            BinOp::Mul => Value::Int(a * b),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Double(*a as f64 / *b as f64)
                }
            }
            _ => unreachable!(),
        });
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok(match op {
            BinOp::Add => Value::Double(a + b),
            BinOp::Sub => Value::Double(a - b),
            BinOp::Mul => Value::Double(a * b),
            BinOp::Div => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Double(a / b)
                }
            }
            _ => unreachable!(),
        }),
        _ => Err(StoreError::Eval("arithmetic on non-numeric values".into())),
    }
}

/// A scalar user-defined function.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// A UDF resolved against a [`FnRegistry`]: the function itself plus its
/// (lowercase) name for display.
#[derive(Clone)]
pub struct BoundFn {
    name: String,
    f: ScalarFn,
}

impl BoundFn {
    /// The registered (lowercase) name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for BoundFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Named scalar UDFs available to expression evaluation.
#[derive(Default, Clone)]
pub struct FnRegistry {
    fns: HashMap<String, ScalarFn>,
}

impl FnRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a function. Names are case-insensitive.
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.fns.insert(name.to_ascii_lowercase(), Arc::new(f));
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> Result<&ScalarFn> {
        self.fns
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| StoreError::Eval(format!("unknown function {name}")))
    }

    /// Bind a call of `name` over `args`: the name is resolved here, once,
    /// so an unknown function fails when the plan is built, not per row.
    pub fn call(&self, name: &str, args: Vec<Expr>) -> Result<Expr> {
        let name = name.to_ascii_lowercase();
        let f = self
            .fns
            .get(&name)
            .cloned()
            .ok_or_else(|| StoreError::Eval(format!("unknown function {name}")))?;
        Ok(Expr::Call(BoundFn { name, f }, args))
    }

    /// Whether a function is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(&name.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal::Date;

    fn ev(e: &Expr, row: &[Value]) -> Value {
        e.eval(row).unwrap()
    }

    #[test]
    fn column_and_literal() {
        let row = vec![Value::Int(7), Value::Str("x".into())];
        assert_eq!(ev(&Expr::col(0), &row), Value::Int(7));
        assert_eq!(ev(&Expr::lit(Value::Int(3)), &row), Value::Int(3));
        assert!(Expr::col(9).eval(&row).is_err());
    }

    #[test]
    fn comparisons_yield_sql_booleans() {
        let row = vec![Value::Int(5), Value::Int(9)];
        let lt = Expr::bin(BinOp::Lt, Expr::col(0), Expr::col(1));
        assert_eq!(ev(&lt, &row), Value::Int(1));
        let eq = Expr::bin(BinOp::Eq, Expr::col(0), Expr::col(1));
        assert_eq!(ev(&eq, &row), Value::Int(0));
        // NULL propagates as unknown.
        let vs_null = Expr::bin(BinOp::Eq, Expr::col(0), Expr::lit(Value::Null));
        assert_eq!(ev(&vs_null, &row), Value::Null);
        assert!(!vs_null.eval_bool(&row).unwrap(), "unknown filters out");
    }

    #[test]
    fn three_valued_and_or() {
        let t = Expr::lit(Value::Int(1));
        let f = Expr::lit(Value::Int(0));
        let n = Expr::lit(Value::Null);
        let and = |a: &Expr, b: &Expr| ev(&Expr::bin(BinOp::And, a.clone(), b.clone()), &[]);
        let or = |a: &Expr, b: &Expr| ev(&Expr::bin(BinOp::Or, a.clone(), b.clone()), &[]);
        let (yes, no) = (Value::Int(1), Value::Int(0));
        // The full truth table, NULL on either side.
        let table = [
            (&t, &t, &yes, &yes),
            (&t, &f, &no, &yes),
            (&t, &n, &Value::Null, &yes),
            (&f, &t, &no, &yes),
            (&f, &f, &no, &no),
            (&f, &n, &no, &Value::Null),
            (&n, &t, &Value::Null, &yes),
            (&n, &f, &no, &Value::Null),
            (&n, &n, &Value::Null, &Value::Null),
        ];
        for (a, b, want_and, want_or) in table {
            assert_eq!(&and(a, b), want_and, "{a:?} AND {b:?}");
            assert_eq!(&or(a, b), want_or, "{a:?} OR {b:?}");
        }
        assert_eq!(
            ev(&Expr::Un(UnOp::Not, Box::new(Expr::lit(Value::Null))), &[]),
            Value::Null
        );
    }

    #[test]
    fn and_or_short_circuit_skips_the_right_side() {
        // Column 5 does not exist: evaluating the right side is an error.
        let boom = Expr::col(5);
        let t = Expr::lit(Value::Int(1));
        let f = Expr::lit(Value::Int(0));
        let n = Expr::lit(Value::Null);
        let and = |l: &Expr| Expr::bin(BinOp::And, l.clone(), boom.clone()).eval(&[]);
        let or = |l: &Expr| Expr::bin(BinOp::Or, l.clone(), boom.clone()).eval(&[]);
        assert_eq!(and(&f).unwrap(), Value::Int(0), "FALSE AND x never reads x");
        assert_eq!(or(&t).unwrap(), Value::Int(1), "TRUE OR x never reads x");
        // Undecided left sides still evaluate (and surface) the right one.
        assert!(and(&t).is_err() && and(&n).is_err());
        assert!(or(&f).is_err() && or(&n).is_err());
    }

    #[test]
    fn date_comparisons_drive_snapshot_predicates() {
        // tstart <= '1994-05-06' AND tend >= '1994-05-06' (paper QUERY 2).
        let day = Value::Date(Date::parse("1994-05-06").unwrap());
        let row = vec![
            Value::Date(Date::parse("1994-01-01").unwrap()),
            Value::Date(Date::parse("9999-12-31").unwrap()),
        ];
        let pred = Expr::and_all(vec![
            Expr::bin(BinOp::Le, Expr::col(0), Expr::lit(day.clone())),
            Expr::bin(BinOp::Ge, Expr::col(1), Expr::lit(day)),
        ]);
        assert!(pred.eval_bool(&row).unwrap());
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let add = Expr::bin(
            BinOp::Add,
            Expr::lit(Value::Int(2)),
            Expr::lit(Value::Int(3)),
        );
        assert_eq!(ev(&add, &[]), Value::Int(5));
        let div0 = Expr::bin(
            BinOp::Div,
            Expr::lit(Value::Int(1)),
            Expr::lit(Value::Int(0)),
        );
        assert_eq!(ev(&div0, &[]), Value::Null);
        let date_plus = Expr::bin(
            BinOp::Add,
            Expr::lit(Value::Date(Date::parse("1995-01-01").unwrap())),
            Expr::lit(Value::Int(30)),
        );
        assert_eq!(
            ev(&date_plus, &[]),
            Value::Date(Date::parse("1995-01-31").unwrap())
        );
        let date_diff = Expr::bin(
            BinOp::Sub,
            Expr::lit(Value::Date(Date::parse("1995-02-01").unwrap())),
            Expr::lit(Value::Date(Date::parse("1995-01-01").unwrap())),
        );
        assert_eq!(ev(&date_diff, &[]), Value::Int(31));
    }

    #[test]
    fn udf_dispatch() {
        let mut fns = FnRegistry::new();
        fns.register("double_it", |args| {
            Ok(Value::Int(args[0].as_int().unwrap_or(0) * 2))
        });
        let call = fns
            .call("DOUBLE_IT", vec![Expr::lit(Value::Int(21))])
            .unwrap();
        assert_eq!(call.eval(&[]).unwrap(), Value::Int(42));
        assert!(matches!(&call, Expr::Call(f, _) if f.name() == "double_it"));
        // Wider than the four arguments evaluated on the stack.
        fns.register("arity", |args| Ok(Value::Int(args.len() as i64)));
        let six = (0..6).map(|i| Expr::lit(Value::Int(i))).collect();
        assert_eq!(ev(&fns.call("arity", six).unwrap(), &[]), Value::Int(6));
        assert!(
            fns.call("nope", vec![]).is_err(),
            "unknown names fail at bind time"
        );
        assert!(fns.contains("Double_It"));
    }

    #[test]
    fn is_null_operators() {
        let isn = Expr::Un(UnOp::IsNull, Box::new(Expr::lit(Value::Null)));
        assert_eq!(ev(&isn, &[]), Value::Int(1));
        let isnn = Expr::Un(UnOp::IsNotNull, Box::new(Expr::lit(Value::Int(0))));
        assert_eq!(ev(&isnn, &[]), Value::Int(1));
    }

    #[test]
    fn and_all_composition() {
        assert_eq!(ev(&Expr::and_all(vec![]), &[]), Value::Int(1));
        let p = Expr::and_all(vec![
            Expr::lit(Value::Int(1)),
            Expr::lit(Value::Int(1)),
            Expr::lit(Value::Int(0)),
        ]);
        assert_eq!(ev(&p, &[]), Value::Int(0));
    }
}
