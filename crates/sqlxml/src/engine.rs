//! Planner and executor for SQL/XML selects.
//!
//! Planning mirrors what the paper relies on from DB2 / ATLaS:
//!
//! 1. WHERE conjuncts referencing one table are pushed below the join,
//!    after constant equalities have been carried across the equality
//!    join conditions (`t1.id = c and t1.id = t2.id` also gives
//!    `t2.id = c`); the bounded leading columns of each index and of the
//!    clustered key become access-path candidates that
//!    [`relstore::planner`] costs against a sequential scan using the
//!    per-segment statistics catalog (the paper's `segno = sn` segment
//!    restriction, §6.3, rides in as a candidate bound); a table with
//!    rows outside its own pages — ArchIS's BlockZIP-compressed archived
//!    segments — reads them through its [`SideStorage`] under the same
//!    merged bounds and predicates, after the planned base scan,
//! 2. equality join conditions execute as hash joins — the paper's "very
//!    fast (in linear time) since every table is already sorted on its id
//!    attribute" (§5.3): one input is hashed once and the other streams
//!    through it. The output order depends on the statement. One that
//!    returns rows gets sort-merge order: the right input is hashed and
//!    the key-sorted left input streams through it. One whose result
//!    cannot depend on row order — no `GROUP BY`, no `ORDER BY`, and every
//!    select item a bare `COUNT`, `MIN`, `MAX`, or `SUM`/`AVG` of an `Int`
//!    argument, as the paper's Q2, Q4, Q5 and Q6 are — gets probe order:
//!    the rows joined so far are hashed (for those queries the key table
//!    `employee_id`, one row per employee, or a join onto it) and the
//!    table joining in streams through unsorted and uncollected. A
//!    condition is a join key when each side is one column, optionally
//!    plus or minus an integer literal (`t3.tstart = t2.tend + 1`, the
//!    equality the translator emits beside every `tmeets`). Each table in
//!    FROM order joins the tables before it on *all* the key conditions
//!    that connect them, as one composite key — Q6's adjacent-period join
//!    matches on `(id, t2.tend + 1) = (id, t3.tstart)` instead of pairing
//!    every period of an id with every other one and filtering,
//! 3. the select list is compiled once per statement and evaluated per
//!    row, or per group when `GROUP BY` or aggregates are present; each
//!    group folds the rows the pipeline lends it where they lie
//!    ([`Accumulator`]), so joined rows are never copied or collected,
//!    `GROUP BY` finds a row's group by its hashed key ([`KeyIndex`]), and
//!    `XMLElement` / `XMLAgg` construct XML inside the engine.
//!
//! Every result carries the plan that produced it ([`QueryResult::plan`]):
//! one [`planner::PlanEntry`] per access-path decision, side-storage read
//! and hash join, in execution order. A caller may force the access paths
//! of one statement ([`execute_stmt_with`]); nothing about a plan is kept
//! once its statement returns.
//!
//! Compilation binds every UDF call to its registry entry once, and a
//! string literal passed to a UDF that is a date in `YYYY-MM-DD` form is
//! bound as a `DATE` value, so the temporal built-ins never re-parse their
//! window on every row.

use crate::parser::{parse_sql, SelectStmt, SqlExpr};
use crate::{Result, SqlError};
use relstore::exec::{Accumulator, Chain, Filter, HashJoin, JoinOrder, KeyIndex, Pipeline};
use relstore::expr::{AggFunc, BinOp, Expr, FnRegistry};
use relstore::planner;
use relstore::value::{DataType, Field, Value};
use relstore::{Database, Table};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use temporal::Date;
use xmldom::{Element, Node};

/// A value produced by the select list: relational or XML.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    /// A plain SQL value.
    Rel(Value),
    /// An XML forest (one or more nodes).
    Xml(Vec<Node>),
}

impl SqlValue {
    /// The relational value, or an error for XML.
    pub fn rel(&self) -> Result<&Value> {
        match self {
            SqlValue::Rel(v) => Ok(v),
            SqlValue::Xml(_) => Err(SqlError::Xml("expected a scalar, found XML".into())),
        }
    }

    /// Serialize: XML as markup, scalars via `Display`.
    pub fn render(&self) -> String {
        match self {
            SqlValue::Rel(v) => v.to_string(),
            SqlValue::Xml(nodes) => nodes.iter().map(Node::to_xml).collect::<String>(),
        }
    }
}

/// The result of a select: column names plus rows of [`SqlValue`]s, and
/// the plan that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<SqlValue>>,
    /// The plan the statement ran, in execution order: each table's scan
    /// (followed by its side-storage entry, if any), then each hash join.
    /// [`planner::explain`] formats it.
    pub plan: Vec<planner::PlanEntry>,
}

impl QueryResult {
    /// All XML values, serialized, row-major (the published document
    /// fragments of an SQL/XML query).
    pub fn xml_fragments(&self) -> Vec<String> {
        let mut out = Vec::new();
        for row in &self.rows {
            for v in row {
                if let SqlValue::Xml(nodes) = v {
                    for n in nodes {
                        out.push(n.to_xml());
                    }
                }
            }
        }
        out
    }

    /// Rows as plain values (errors if any cell is XML).
    pub fn scalar_rows(&self) -> Result<Vec<Vec<Value>>> {
        self.rows
            .iter()
            .map(|r| r.iter().map(|v| v.rel().cloned()).collect())
            .collect()
    }
}

/// Parse and execute a select against `db`.
pub fn execute(db: &Database, sql: &str, fns: &Arc<FnRegistry>) -> Result<QueryResult> {
    let stmt = parse_sql(sql)?;
    execute_stmt(db, &stmt, fns)
}

/// Execute a parsed select.
pub fn execute_stmt(
    db: &Database,
    stmt: &SelectStmt,
    fns: &Arc<FnRegistry>,
) -> Result<QueryResult> {
    execute_stmt_with(db, stmt, fns, &(), None)
}

/// Rows a table holds outside its own pages — ArchIS's BlockZIP-compressed
/// archived segments (paper §8.2, read through "user-defined uncompression
/// table functions"). The engine plans the table's own storage as usual
/// and then asks the side storage for the rest under the same bounds; the
/// two sources are disjoint, so the table's scan is their concatenation.
pub trait SideStorage {
    /// The side rows of `table` as read through `db` (the live database or
    /// a pinned snapshot of it), or `None` when `table` has no side
    /// storage. `bounds` are the merged key-column bounds of the pushed-down
    /// predicates, `pred` those predicates compiled over the table's own
    /// row (`None` when there are none). Every row the cursor lends must
    /// pass `pred`; the [`planner::PlanEntry`] follows the table's scan in
    /// the result's plan.
    fn scan(
        &self,
        db: &Database,
        table: &str,
        bounds: &[planner::ColumnBound],
        pred: Option<&Expr>,
    ) -> Option<Result<(Pipeline, planner::PlanEntry)>>;
}

/// No side storage: every table is exactly its own pages.
impl SideStorage for () {
    fn scan(
        &self,
        _db: &Database,
        _table: &str,
        _bounds: &[planner::ColumnBound],
        _pred: Option<&Expr>,
    ) -> Option<Result<(Pipeline, planner::PlanEntry)>> {
        None
    }
}

/// Execute with **side storage**: every table `side` answers for is read
/// as its planned base scan followed by the side rows within the same
/// bounds (see [`SideStorage`]). This is how ArchIS serves history tables
/// whose archived segments were compressed. `forced`, when set, overrides
/// the cost model on every table's access path (see
/// [`planner::choose_path`]).
pub fn execute_stmt_with(
    db: &Database,
    stmt: &SelectStmt,
    fns: &Arc<FnRegistry>,
    side: &dyn SideStorage,
    forced: Option<planner::ForcedPath>,
) -> Result<QueryResult> {
    let scope = Scope::build(db, stmt)?;
    let mut access = Access {
        side,
        forced,
        plan: Vec::with_capacity(3 * stmt.from.len()),
    };
    let rows = run_from_where(db, stmt, &scope, fns, &mut access, order_free(stmt, &scope))?;
    let result = project(stmt, &scope, rows, fns)?;
    Ok(QueryResult {
        plan: access.plan,
        ..result
    })
}

/// Where one statement's tables are read from, the override on their
/// access paths, and the plan its reads and joins record.
struct Access<'a> {
    side: &'a dyn SideStorage,
    forced: Option<planner::ForcedPath>,
    plan: Vec<planner::PlanEntry>,
}

/// Whether the statement's result is the same whatever order its joined
/// rows arrive in: no `GROUP BY`, no `ORDER BY`, and every select item a
/// bare `COUNT`, `COUNT(*)`, `COUNT(DISTINCT)`, `MIN` or `MAX` — which
/// [`Accumulator`] folds order-independently — or a `SUM`/`AVG` whose
/// argument is statically `Int` (integers add exactly; doubles do not
/// associate).
fn order_free(stmt: &SelectStmt, scope: &Scope) -> bool {
    stmt.group_by.is_empty()
        && stmt.order_by.is_empty()
        && !stmt.items.is_empty()
        && stmt.items.iter().all(|item| match &item.expr {
            SqlExpr::Agg(func, arg, _) | SqlExpr::AggDistinct(func, arg) => match func {
                AggFunc::Sum | AggFunc::Avg => static_int(arg, scope),
                AggFunc::Count | AggFunc::CountStar | AggFunc::Min | AggFunc::Max => true,
            },
            _ => false,
        })
}

/// Whether `e` evaluates to an `Int` (or NULL) on every row: an `Int`
/// column or literal, or `+`, `-`, `*` and negation of such (integer
/// arithmetic stays integral; division does not).
fn static_int(e: &SqlExpr, scope: &Scope) -> bool {
    match e {
        SqlExpr::Lit(v) => matches!(v, Value::Int(_) | Value::Null),
        SqlExpr::Col { .. } => col_index(e, scope).is_ok_and(|i| scope.dtype(i) == DataType::Int),
        SqlExpr::Un(relstore::UnOp::Neg, x) => static_int(x, scope),
        SqlExpr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul, l, r) => {
            static_int(l, scope) && static_int(r, scope)
        }
        _ => false,
    }
}

/// Name-resolution scope: the concatenated schema of the FROM tables.
struct Scope {
    /// `(alias, field)` in row order.
    fields: Vec<(String, Field)>,
    /// alias → (start offset, arity).
    tables: HashMap<String, (usize, usize)>,
}

impl Scope {
    fn build(db: &Database, stmt: &SelectStmt) -> Result<Scope> {
        let mut fields = Vec::new();
        let mut tables = HashMap::new();
        for (tname, alias) in &stmt.from {
            let t = db.table(tname)?;
            if tables.contains_key(alias) {
                return Err(SqlError::Unresolved(format!("duplicate alias {alias}")));
            }
            let start = fields.len();
            for f in &t.schema().fields {
                fields.push((alias.clone(), f.clone()));
            }
            tables.insert(alias.clone(), (start, t.schema().arity()));
        }
        Ok(Scope { fields, tables })
    }

    /// Resolve a column reference to its row offset.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let hits: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, (a, f))| f.name == name && qualifier.is_none_or(|q| q == a))
            .map(|(i, _)| i)
            .collect();
        match hits.len() {
            1 => Ok(hits[0]),
            0 => Err(SqlError::Unresolved(format!(
                "column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            _ => Err(SqlError::Unresolved(format!("ambiguous column {name}"))),
        }
    }

    fn dtype(&self, idx: usize) -> DataType {
        self.fields[idx].1.dtype
    }

    /// Aliases referenced by an expression.
    fn aliases_in(&self, e: &SqlExpr, out: &mut Vec<String>) -> Result<()> {
        match e {
            SqlExpr::Col { qualifier, name } => {
                let idx = self.resolve(qualifier.as_deref(), name)?;
                let alias = self.fields[idx].0.clone();
                if !out.contains(&alias) {
                    out.push(alias);
                }
            }
            SqlExpr::Lit(_) => {}
            SqlExpr::Bin(_, l, r) => {
                self.aliases_in(l, out)?;
                self.aliases_in(r, out)?;
            }
            SqlExpr::Un(_, x) => self.aliases_in(x, out)?,
            SqlExpr::Call(_, args) => {
                for a in args {
                    self.aliases_in(a, out)?;
                }
            }
            SqlExpr::Agg(_, a, _) | SqlExpr::AggDistinct(_, a) => self.aliases_in(a, out)?,
            SqlExpr::XmlAgg(a) => self.aliases_in(a, out)?,
            SqlExpr::XmlElement { attrs, content, .. } => {
                for (_, a) in attrs {
                    self.aliases_in(a, out)?;
                }
                for c in content {
                    self.aliases_in(c, out)?;
                }
            }
        }
        Ok(())
    }
}

/// Compile a scalar SqlExpr to a relstore row expression over the scope
/// (with an optional column offset shift for single-table compilation),
/// binding UDF calls through `fns`.
fn compile(e: &SqlExpr, scope: &Scope, shift: usize, fns: &FnRegistry) -> Result<Expr> {
    Ok(match e {
        SqlExpr::Lit(v) => Expr::Lit(v.clone()),
        SqlExpr::Col { qualifier, name } => {
            let idx = scope.resolve(qualifier.as_deref(), name)?;
            Expr::Col(idx - shift)
        }
        SqlExpr::Bin(op, l, r) => {
            // Coerce date-typed comparisons with string literals.
            let (l2, r2) = coerce_dates(op, l, r, scope);
            Expr::Bin(
                *op,
                Box::new(compile(&l2, scope, shift, fns)?),
                Box::new(compile(&r2, scope, shift, fns)?),
            )
        }
        SqlExpr::Un(op, x) => Expr::Un(*op, Box::new(compile(x, scope, shift, fns)?)),
        SqlExpr::Call(name, args) => {
            let compiled = args
                .iter()
                .map(|a| match a {
                    SqlExpr::Lit(Value::Str(s)) => Ok(Expr::Lit(date_literal(s))),
                    other => compile(other, scope, shift, fns),
                })
                .collect::<Result<Vec<_>>>()?;
            fns.call(name, compiled)?
        }
        SqlExpr::Agg(..)
        | SqlExpr::AggDistinct(..)
        | SqlExpr::XmlAgg(..)
        | SqlExpr::XmlElement { .. } => {
            return Err(SqlError::Xml(
                "aggregates and XML constructors are only allowed in the select list".into(),
            ))
        }
    })
}

/// A UDF's string-literal argument: a `DATE` when it is one written as
/// `YYYY-MM-DD` (it formats back to itself), else the string unchanged.
fn date_literal(s: &str) -> Value {
    match Date::parse(s) {
        Ok(d) if d.to_string() == s => Value::Date(d),
        _ => Value::Str(s.to_string()),
    }
}

/// Rewrite `typed_col <op> 'literal'` so string literals compared against
/// Date or Int columns become typed values (SQL string literals are the
/// only literal form the paper's translated queries use for dates).
fn coerce_dates(op: &BinOp, l: &SqlExpr, r: &SqlExpr, scope: &Scope) -> (SqlExpr, SqlExpr) {
    if !matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return (l.clone(), r.clone());
    }
    let col_type = |e: &SqlExpr| -> Option<DataType> {
        if let SqlExpr::Col { qualifier, name } = e {
            if let Ok(idx) = scope.resolve(qualifier.as_deref(), name) {
                return Some(scope.dtype(idx));
            }
        }
        None
    };
    let coerce = |e: &SqlExpr, ty: DataType| -> Option<SqlExpr> {
        if let SqlExpr::Lit(Value::Str(s)) = e {
            match ty {
                DataType::Date => Date::parse(s).ok().map(|d| SqlExpr::Lit(Value::Date(d))),
                DataType::Int => s
                    .trim()
                    .parse::<i64>()
                    .ok()
                    .map(|i| SqlExpr::Lit(Value::Int(i))),
                _ => None,
            }
        } else {
            None
        }
    };
    if let Some(ty) = col_type(l) {
        if let Some(r2) = coerce(r, ty) {
            return (l.clone(), r2);
        }
    }
    if let Some(ty) = col_type(r) {
        if let Some(l2) = coerce(l, ty) {
            return (l2, r.clone());
        }
    }
    (l.clone(), r.clone())
}

/// Split a condition into AND-connected conjuncts.
fn conjuncts(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    if let SqlExpr::Bin(BinOp::And, l, r) = e {
        conjuncts(l, out);
        conjuncts(r, out);
    } else {
        out.push(e.clone());
    }
}

/// Run FROM + WHERE, returning a pipeline that lends the joined rows over
/// the scope's schema. Scans stream from the base storage with their
/// predicates applied at the source. A join hashes its right input and
/// streams its left input sorted by key (sort-merge order, which a
/// statement that returns rows shows), or, when the statement is
/// [`order_free`], hashes its left input (the rows joined so far) and
/// streams the right one as it arrives. Each scan and each join appends
/// its entry to `access.plan`.
fn run_from_where(
    db: &Database,
    stmt: &SelectStmt,
    scope: &Scope,
    fns: &Arc<FnRegistry>,
    access: &mut Access,
    order_free: bool,
) -> Result<Pipeline> {
    let mut table_preds: HashMap<String, Vec<SqlExpr>> = HashMap::new();
    let mut join_conds: Vec<(String, String, SqlExpr)> = Vec::new();
    let mut residual: Vec<SqlExpr> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        let mut cs = Vec::new();
        conjuncts(w, &mut cs);
        for c in cs {
            let mut aliases = Vec::new();
            scope.aliases_in(&c, &mut aliases)?;
            match aliases.len() {
                0 | 1 => {
                    let key = aliases
                        .first()
                        .cloned()
                        .unwrap_or_else(|| stmt.from[0].1.clone());
                    table_preds.entry(key).or_default().push(c);
                }
                2 if is_join_key(&c, scope) => {
                    join_conds.push((aliases[0].clone(), aliases[1].clone(), c));
                }
                _ => residual.push(c),
            }
        }
    }
    propagate_constants(scope, &join_conds, &mut table_preds)?;

    // Per-table access paths (streaming scans).
    let mut sources: HashMap<String, Pipeline> = HashMap::new();
    for (tname, alias) in &stmt.from {
        let t = db.table(tname)?;
        let preds = table_preds.remove(alias).unwrap_or_default();
        let scan = scan_table(db, &t, alias, &preds, scope, fns, access)?;
        sources.insert(alias.clone(), scan);
    }

    // Left-deep joins in FROM order.
    let mut joined: Option<Pipeline> = None;
    let mut joined_aliases: Vec<String> = Vec::new();
    let mut joined_name = String::new();
    for (tname, alias) in &stmt.from {
        let Some(right) = sources.remove(alias) else {
            continue;
        };
        let Some(left) = joined.take() else {
            joined = Some(right);
            joined_aliases.push(alias.clone());
            joined_name.clone_from(tname);
            continue;
        };
        // Every key condition connecting `alias` to the joined set becomes
        // one component of a composite hash-join key. The joined row is a
        // prefix of the scope (FROM order is scope order), so its side
        // compiles unshifted; the new table's side is shifted to its own
        // columns.
        let right_off = scope.tables[alias].0;
        let (mut lkeys, mut rkeys) = (Vec::new(), Vec::new());
        let mut unconnected = Vec::new();
        for (a1, a2, cond) in join_conds.drain(..) {
            let connects = (joined_aliases.contains(&a1) && a2 == *alias)
                || (joined_aliases.contains(&a2) && a1 == *alias);
            match &cond {
                SqlExpr::Bin(BinOp::Eq, l, r) if connects => {
                    let l_is_new =
                        key_column(l, scope).is_some_and(|c| scope.fields[c].0 == *alias);
                    let (old, new) = if l_is_new { (r, l) } else { (l, r) };
                    lkeys.push(compile(old, scope, 0, fns)?);
                    rkeys.push(compile(new, scope, right_off, fns)?);
                }
                _ => unconnected.push((a1, a2, cond)),
            }
        }
        join_conds = unconnected;
        // With no key yet (nothing connects) the join is a cross join; the
        // conditions that relate these tables to later ones apply as those
        // join in, and the rest as residual filters.
        let join_order = if order_free {
            JoinOrder::Probe
        } else {
            JoinOrder::Key
        };
        let entry = planner::PlanEntry::join(&joined_name, tname, join_order);
        access.plan.push(entry);
        let join = HashJoin::new(left, right, lkeys, rkeys, join_order);
        joined = Some(Box::new(join));
        joined_aliases.push(alias.clone());
        joined_name = format!("{joined_name}⋈{tname}");
    }
    let mut result = joined.ok_or_else(|| SqlError::Exec("a select needs a FROM table".into()))?;

    // Residual predicates (multi-table non-equi, or join conds that never
    // connected — e.g. a condition between tables 1 and 3 joined crosswise).
    let mut residual_all = residual;
    residual_all.extend(join_conds.into_iter().map(|(_, _, c)| c));
    if !residual_all.is_empty() {
        let compiled = residual_all
            .iter()
            .map(|c| compile(c, scope, 0, fns))
            .collect::<Result<Vec<_>>>()?;
        let pred = Expr::and_all(compiled);
        result = Box::new(Filter::new(result, pred));
    }
    Ok(result)
}

/// A comparison between a column and a literal, normalized to
/// `column <op> literal` with the literal typed for the column.
fn col_op_lit(e: &SqlExpr, scope: &Scope) -> Option<(SqlExpr, BinOp, Value)> {
    let SqlExpr::Bin(op, l, r) = e else {
        return None;
    };
    if !matches!(
        op,
        BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return None;
    }
    match coerce_dates(op, l, r, scope) {
        (col @ SqlExpr::Col { .. }, SqlExpr::Lit(v)) => Some((col, *op, v)),
        (SqlExpr::Lit(v), col @ SqlExpr::Col { .. }) => Some((col, flip(*op), v)),
        _ => None,
    }
}

/// Equality closure over the WHERE conjuncts: a column pinned to a
/// constant pins every column the join conditions equate it with, however
/// many joins away. Algorithm 1 puts the key on the key table only
/// (`t1.id = c and t1.id = t2.id`); the derived `t2.id = c` is what lets
/// the attribute table be probed instead of read. Derived predicates are
/// *added* to their table's pushed-down list — nothing is removed, so the
/// rows that pass are exactly the rows that passed before. Columns of
/// different declared types are not equated (comparison across types is
/// not transitive).
fn propagate_constants(
    scope: &Scope,
    join_conds: &[(String, String, SqlExpr)],
    table_preds: &mut HashMap<String, Vec<SqlExpr>>,
) -> Result<()> {
    let mut equated: Vec<(usize, usize)> = Vec::new();
    for (_, _, cond) in join_conds {
        // Only plain `col = col` keys equate values; `col = col + k`
        // relates them without making them equal.
        if let SqlExpr::Bin(BinOp::Eq, l, r) = cond {
            if let (Ok(li), Ok(ri)) = (col_index(l, scope), col_index(r, scope)) {
                if scope.dtype(li) == scope.dtype(ri) {
                    equated.push((li, ri));
                }
            }
        }
    }
    if equated.is_empty() {
        return Ok(());
    }
    // Worklist: every pinned column, given or derived, is followed once.
    let mut pinned: Vec<(usize, Value)> = table_preds
        .values()
        .flatten()
        .filter_map(|p| match col_op_lit(p, scope)? {
            (col, BinOp::Eq, v) => Some((col_index(&col, scope).ok()?, v)),
            _ => None,
        })
        .collect();
    let mut next = 0;
    while let Some((col, v)) = pinned.get(next).cloned() {
        next += 1;
        for &(a, b) in &equated {
            let other = match col {
                c if c == a => b,
                c if c == b => a,
                _ => continue,
            };
            let known = |(c, w): &(usize, Value)| *c == other && w.total_cmp(&v) == Ordering::Equal;
            if pinned.iter().any(known) {
                continue;
            }
            let (alias, field) = &scope.fields[other];
            table_preds
                .entry(alias.clone())
                .or_default()
                .push(SqlExpr::Bin(
                    BinOp::Eq,
                    Box::new(SqlExpr::Col {
                        qualifier: Some(alias.clone()),
                        name: field.name.clone(),
                    }),
                    Box::new(SqlExpr::Lit(v.clone())),
                ));
            pinned.push((other, v.clone()));
        }
    }
    Ok(())
}

/// Whether `e` can be a hash-join key: an equality whose sides are
/// each a [`key_column`] expression.
fn is_join_key(e: &SqlExpr, scope: &Scope) -> bool {
    matches!(
        e,
        SqlExpr::Bin(BinOp::Eq, l, r)
            if key_column(l, scope).is_some() && key_column(r, scope).is_some()
    )
}

/// The column of one side of a join key: a bare column, or an `Int` or
/// `Date` column plus or minus an integer literal (day arithmetic for
/// dates), which is defined for every value of the column.
fn key_column(e: &SqlExpr, scope: &Scope) -> Option<usize> {
    let col = |e: &SqlExpr| col_index(e, scope).ok();
    match e {
        SqlExpr::Col { .. } => col(e),
        SqlExpr::Bin(BinOp::Add | BinOp::Sub, c, k)
            if matches!(**k, SqlExpr::Lit(Value::Int(_))) =>
        {
            col(c).filter(|&i| matches!(scope.dtype(i), DataType::Int | DataType::Date))
        }
        _ => None,
    }
}

fn col_index(e: &SqlExpr, scope: &Scope) -> Result<usize> {
    match e {
        SqlExpr::Col { qualifier, name } => scope.resolve(qualifier.as_deref(), name),
        _ => Err(SqlError::Unresolved("expected a column".into())),
    }
}

/// Scan one table with pushed-down predicates.
///
/// The bounds the predicates put on key columns become
/// [`planner::ScanCandidate`]s — one per bounded leading column, then one
/// per index (and the clustered key) that has more than its leading
/// column bound; [`planner::choose_path`] costs them against a sequential
/// scan using the table's per-segment statistics (unless `access.forced`
/// pins the path), and its decision goes onto `access.plan`. Returns a
/// streaming scan: base scans pull pages on demand, so a downstream LIMIT
/// stops the scan early. When `access.side` holds rows of the table too,
/// they follow the base scan, read under the same merged bounds and
/// filtered by the same predicates, and their entry follows the scan's.
fn scan_table(
    db: &Database,
    table: &Table,
    alias: &str,
    preds: &[SqlExpr],
    scope: &Scope,
    fns: &Arc<FnRegistry>,
    access: &mut Access,
) -> Result<Pipeline> {
    let (offset, _arity) = scope.tables[alias];
    let index_defs = table.index_defs();
    let cluster_cols = match table.kind() {
        relstore::StorageKind::Clustered => table.cluster_columns(),
        relstore::StorageKind::Heap => Vec::new(),
    };
    let is_key_column = |col: &String| {
        cluster_cols.contains(col) || index_defs.iter().any(|d| d.columns.contains(col))
    };
    // Merge the bounds on each key column, in first-appearance order.
    let mut bounded: Vec<planner::ColumnBound> = Vec::new();
    for p in preds {
        let Some((SqlExpr::Col { name: col, .. }, op, v)) = col_op_lit(p, scope) else {
            continue;
        };
        if !is_key_column(&col) {
            continue;
        }
        let at = bounded
            .iter()
            .position(|b| b.column == col)
            .unwrap_or_else(|| {
                bounded.push(planner::ColumnBound {
                    column: col,
                    eq: false,
                    lo: Bound::Unbounded,
                    hi: Bound::Unbounded,
                });
                bounded.len() - 1
            });
        let b = &mut bounded[at];
        match op {
            BinOp::Eq => {
                b.eq = true;
                b.lo = Bound::Included(v.clone());
                b.hi = Bound::Included(v);
            }
            BinOp::Ge => tighten(&mut b.lo, Bound::Included(v), Ordering::Greater),
            BinOp::Gt => tighten(&mut b.lo, Bound::Excluded(v), Ordering::Greater),
            BinOp::Le => tighten(&mut b.hi, Bound::Included(v), Ordering::Less),
            BinOp::Lt => tighten(&mut b.hi, Bound::Excluded(v), Ordering::Less),
            _ => {}
        }
    }
    // Single-column candidates first, one per bounded column that leads
    // an index. On a clustered table whose leading cluster column is the
    // bounded column, range-scanning the primary B+tree beats per-row
    // point fetches through a secondary index (this is why the paper's
    // segment restriction pays off on ATLaS/BerkeleyDB).
    let mut candidates: Vec<planner::ScanCandidate> = Vec::new();
    for b in &bounded {
        let leads = |d: &&relstore::IndexDef| d.columns.first() == Some(&b.column);
        let Some(index) = index_defs.iter().find(leads).map(|d| d.name.clone()) else {
            continue;
        };
        let kind = if cluster_cols.first() == Some(&b.column) {
            planner::PathKind::Cluster
        } else {
            planner::PathKind::Index
        };
        candidates.push(planner::ScanCandidate {
            kind,
            index: Some(index),
            bounds: vec![b.clone()],
        });
    }
    // Then every key the predicates bind deeper than its leading column.
    let keys = std::iter::once((planner::PathKind::Cluster, None, &cluster_cols)).chain(
        index_defs
            .iter()
            .map(|d| (planner::PathKind::Index, Some(&d.name), &d.columns)),
    );
    for (kind, index, columns) in keys {
        let bounds = planner::ScanCandidate::usable_bounds(columns, &bounded);
        if bounds.len() > 1 {
            candidates.push(planner::ScanCandidate {
                kind,
                index: index.cloned(),
                bounds,
            });
        }
    }

    // Every path applies ALL pushed predicates at the source (the
    // access-path bound is a superset filter; re-checking is cheap and
    // keeps correctness independent of planning).
    let pred = match preds {
        [] => None,
        _ => Some(Expr::and_all(
            preds
                .iter()
                .map(|p| compile(p, scope, offset, fns))
                .collect::<Result<Vec<_>>>()?,
        )),
    };
    let profile = planner::TableProfile::of(db, table);
    let choice = planner::choose_path(&profile, &candidates, access.forced);
    let (kind, index, (lo, hi)) = match choice.candidate.and_then(|i| candidates.get(i)) {
        Some(cand) => (cand.kind, cand.index.as_deref(), cand.key_range()),
        None => (
            planner::PathKind::Seq,
            None,
            (Bound::Unbounded, Bound::Unbounded),
        ),
    };
    let base: Pipeline = Box::new(relstore::exec::build_scan(
        table,
        kind,
        index,
        as_slice(&lo),
        as_slice(&hi),
        pred.clone(),
    )?);
    access.plan.push(choice.entry);
    match access.side.scan(db, table.name(), &bounded, pred.as_ref()) {
        None => Ok(base),
        Some(side_rows) => {
            let (rows, entry) = side_rows?;
            access.plan.push(entry);
            Ok(Box::new(Chain::new(base, rows)))
        }
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Replace `bound` by `new` when `new` is the tighter of the two: its
/// value lies on the `tighter` side (`Greater` for lower bounds, `Less`
/// for upper ones), or the values tie and `new` excludes the value.
fn tighten(bound: &mut Bound<Value>, new: Bound<Value>, tighter: Ordering) {
    let replace = match (&*bound, &new) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match y.total_cmp(x) {
                Ordering::Equal => matches!(new, Bound::Excluded(_)),
                side => side == tighter,
            }
        }
    };
    if replace {
        *bound = new;
    }
}

fn as_slice(b: &Bound<Vec<Value>>) -> Bound<&[Value]> {
    match b {
        Bound::Included(v) => Bound::Included(v.as_slice()),
        Bound::Excluded(v) => Bound::Excluded(v.as_slice()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

// ---------------------------------------------------------------------------
// Projection: per-row / per-group select-list evaluation with XML support
// ---------------------------------------------------------------------------

/// Evaluate the select list over the rows `input` lends: each row is
/// folded where it lies, never copied.
fn project(
    stmt: &SelectStmt,
    scope: &Scope,
    mut input: Pipeline,
    fns: &Arc<FnRegistry>,
) -> Result<QueryResult> {
    let grouped = !stmt.group_by.is_empty() || stmt.items.iter().any(|i| i.expr.has_aggregate());
    let columns: Vec<String> = stmt
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.alias.clone().unwrap_or_else(|| match &item.expr {
                SqlExpr::Col { name, .. } => name.clone(),
                SqlExpr::XmlElement { name, .. } => name.clone(),
                _ => format!("col{}", i + 1),
            })
        })
        .collect();
    // The select list and the ORDER BY keys compile once per statement.
    let items = stmt
        .items
        .iter()
        .map(|i| Item::compile(&i.expr, scope, fns))
        .collect::<Result<Vec<_>>>()?;
    let order_items = stmt
        .order_by
        .iter()
        .map(|(e, asc)| Ok((Item::compile(e, scope, fns)?, *asc)))
        .collect::<Result<Vec<_>>>()?;

    // One output row per group: a single global group (kept even when
    // empty) without GROUP BY, one per distinct key with it; without
    // aggregates every row is its own group. Groups fold their rows as
    // they arrive, so the input is never collected.
    let group = || Group::start(&items, &order_items);
    let mut out: Vec<(Vec<SqlValue>, Vec<Value>)> = Vec::new();
    if !grouped {
        // LIMIT without ordering stops pulling from the pipeline as soon
        // as enough rows have arrived — with streaming scans underneath,
        // this bounds physical I/O by the limit, not the table size.
        let limit = stmt.limit.filter(|_| stmt.order_by.is_empty());
        while limit.is_none_or(|n| out.len() < n) && input.advance()? {
            let mut g = group();
            g.update(input.row())?;
            out.push(g.finish()?);
        }
    } else if stmt.group_by.is_empty() {
        let mut g = group();
        while input.advance()? {
            g.update(input.row())?;
        }
        out.push(g.finish()?);
    } else {
        // Rows find their group by hashed key: values equal under
        // `total_cmp` share a group, and so do NULL keys (SQL grouping,
        // unlike the join, puts NULLs together).
        let keys = stmt
            .group_by
            .iter()
            .map(|g| compile(g, scope, 0, fns))
            .collect::<Result<Vec<_>>>()?;
        let mut index = KeyIndex::new(keys.len());
        let mut groups: Vec<Group> = Vec::new();
        let mut key = Vec::with_capacity(keys.len());
        while input.advance()? {
            let row = input.row();
            key.clear();
            for k in &keys {
                key.push(k.eval(row)?);
            }
            let (at, new) = index.find_or_push(&key);
            if new {
                groups.push(group());
            }
            if let Some(g) = groups.get_mut(at) {
                g.update(row)?;
            }
        }
        for g in groups {
            out.push(g.finish()?);
        }
    }

    if !order_items.is_empty() {
        out.sort_by(|(_, a), (_, b)| {
            for (k, (_, asc)) in order_items.iter().enumerate() {
                let ord = a[k].total_cmp(&b[k]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    let mut out_rows: Vec<Vec<SqlValue>> = out.into_iter().map(|(values, _)| values).collect();
    if let Some(n) = stmt.limit {
        out_rows.truncate(n);
    }
    Ok(QueryResult {
        columns,
        rows: out_rows,
        plan: Vec::new(),
    })
}

/// A select-list (or ORDER BY) item, compiled once per statement.
enum Item {
    /// A scalar expression over the group's first row (SQL requires these
    /// to be grouping columns; we follow SQLite in not enforcing that).
    Scalar(Expr),
    /// An aggregate folded over every row of the group.
    Agg {
        func: AggFunc,
        arg: Expr,
        distinct: bool,
    },
    /// `XMLAgg(item)`: the item evaluated per row, concatenated.
    XmlAgg(Box<Item>),
    /// `XMLElement(Name ..., XMLAttributes(...), content...)`.
    XmlElement {
        name: String,
        attrs: Vec<(String, Item)>,
        content: Vec<Item>,
    },
}

impl Item {
    fn compile(e: &SqlExpr, scope: &Scope, fns: &FnRegistry) -> Result<Item> {
        Ok(match e {
            SqlExpr::Agg(func, arg, _star) => Item::Agg {
                func: *func,
                arg: compile(arg, scope, 0, fns)?,
                distinct: false,
            },
            SqlExpr::AggDistinct(func, arg) => Item::Agg {
                func: *func,
                arg: compile(arg, scope, 0, fns)?,
                distinct: true,
            },
            SqlExpr::XmlAgg(arg) => Item::XmlAgg(Box::new(Item::compile(arg, scope, fns)?)),
            SqlExpr::XmlElement {
                name,
                attrs,
                content,
            } => Item::XmlElement {
                name: name.clone(),
                attrs: attrs
                    .iter()
                    .map(|(a, e)| Ok((a.clone(), Item::compile(e, scope, fns)?)))
                    .collect::<Result<_>>()?,
                content: content
                    .iter()
                    .map(|c| Item::compile(c, scope, fns))
                    .collect::<Result<_>>()?,
            },
            _ => Item::Scalar(compile(e, scope, 0, fns)?),
        })
    }

    /// The empty fold of this item over a group.
    fn fold(&self) -> Fold<'_> {
        match self {
            Item::Scalar(e) => Fold::Scalar(e, None),
            Item::Agg {
                func,
                arg,
                distinct,
            } => Fold::Agg(arg, Accumulator::new(*func, *distinct)),
            Item::XmlAgg(inner) => Fold::XmlAgg(inner, Vec::new()),
            Item::XmlElement {
                name,
                attrs,
                content,
            } => Fold::XmlElement(
                name,
                attrs,
                attrs
                    .iter()
                    .map(|(_, i)| i)
                    .chain(content)
                    .map(Item::fold)
                    .collect(),
            ),
        }
    }
}

/// An [`Item`] evaluated over a group whose rows arrive one at a time.
enum Fold<'a> {
    /// The scalar's value on the group's first row, once it has arrived.
    Scalar(&'a Expr, Option<Value>),
    Agg(&'a Expr, Accumulator),
    /// The nodes of the rows so far.
    XmlAgg(&'a Item, Vec<Node>),
    /// The element's name and attributes, and the folds of its
    /// attribute values, then of its content.
    XmlElement(&'a str, &'a [(String, Item)], Vec<Fold<'a>>),
}

impl Fold<'_> {
    fn update(&mut self, row: &[Value]) -> Result<()> {
        match self {
            Fold::Scalar(e, first @ None) => *first = Some(e.eval(row)?),
            Fold::Scalar(_, Some(_)) => {}
            Fold::Agg(arg, acc) => acc.update(arg, row)?,
            Fold::XmlAgg(inner, nodes) => {
                let mut one = inner.fold();
                one.update(row)?;
                match one.finish()? {
                    SqlValue::Xml(ns) => nodes.extend(ns),
                    SqlValue::Rel(Value::Null) => {}
                    SqlValue::Rel(v) => nodes.push(Node::Text(v.to_string())),
                }
            }
            Fold::XmlElement(_, _, parts) => {
                for f in parts {
                    f.update(row)?;
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<SqlValue> {
        match self {
            // A scalar over an empty group sees an empty row.
            Fold::Scalar(e, first) => Ok(SqlValue::Rel(match first {
                Some(v) => v,
                None => e.eval(&[])?,
            })),
            Fold::Agg(_, acc) => Ok(SqlValue::Rel(acc.finish()?)),
            Fold::XmlAgg(_, nodes) => Ok(SqlValue::Xml(nodes)),
            Fold::XmlElement(name, attrs, parts) => {
                let mut elem = Element::new(name.to_string());
                let mut parts = parts.into_iter();
                for ((aname, _), f) in attrs.iter().zip(parts.by_ref()) {
                    match f.finish()? {
                        SqlValue::Rel(Value::Null) => {} // NULL attrs omitted
                        SqlValue::Rel(v) => elem.set_attr(aname.clone(), v.to_string()),
                        SqlValue::Xml(_) => {
                            return Err(SqlError::Xml("attribute value cannot be XML".into()))
                        }
                    }
                }
                for f in parts {
                    match f.finish()? {
                        SqlValue::Rel(Value::Null) => {}
                        SqlValue::Rel(v) => elem.children.push(Node::Text(v.to_string())),
                        SqlValue::Xml(ns) => elem.children.extend(ns),
                    }
                }
                Ok(SqlValue::Xml(vec![Node::Element(elem)]))
            }
        }
    }
}

/// The select list and ORDER BY keys of one group, folding its rows.
struct Group<'a> {
    items: Vec<Fold<'a>>,
    keys: Vec<Fold<'a>>,
}

impl<'a> Group<'a> {
    fn start(items: &'a [Item], order: &'a [(Item, bool)]) -> Self {
        Group {
            items: items.iter().map(Item::fold).collect(),
            keys: order.iter().map(|(i, _)| i.fold()).collect(),
        }
    }

    fn update(&mut self, row: &[Value]) -> Result<()> {
        for f in self.items.iter_mut().chain(&mut self.keys) {
            f.update(row)?;
        }
        Ok(())
    }

    /// The group's output values and its ORDER BY key.
    fn finish(self) -> Result<(Vec<SqlValue>, Vec<Value>)> {
        let values = self
            .items
            .into_iter()
            .map(Fold::finish)
            .collect::<Result<Vec<_>>>()?;
        let mut keys = Vec::with_capacity(self.keys.len());
        for f in self.keys {
            match f.finish()? {
                SqlValue::Rel(v) => keys.push(v),
                SqlValue::Xml(_) => {
                    return Err(SqlError::Xml("cannot ORDER BY an XML value".into()))
                }
            }
        }
        Ok((values, keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::value::{DataType, Field, Schema};
    use relstore::StorageKind;

    fn fns() -> Arc<FnRegistry> {
        Arc::new(FnRegistry::new())
    }

    fn d(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    /// The paper's H-table fixture: employee_name + employee_title.
    fn setup() -> Database {
        let db = Database::in_memory();
        let name = db
            .create_table(
                "employee_name",
                Schema::new(vec![
                    Field::new("id", DataType::Int),
                    Field::new("name", DataType::Str),
                    Field::new("tstart", DataType::Date),
                    Field::new("tend", DataType::Date),
                ]),
                StorageKind::Heap,
                &[],
            )
            .unwrap();
        name.create_index("emp_name_id", &["id"]).unwrap();
        let title = db
            .create_table(
                "employee_title",
                Schema::new(vec![
                    Field::new("id", DataType::Int),
                    Field::new("title", DataType::Str),
                    Field::new("tstart", DataType::Date),
                    Field::new("tend", DataType::Date),
                ]),
                StorageKind::Heap,
                &[],
            )
            .unwrap();
        title.create_index("emp_title_id", &["id"]).unwrap();
        name.insert(vec![
            Value::Int(1001),
            Value::Str("Bob".into()),
            d("1995-01-01"),
            d("9999-12-31"),
        ])
        .unwrap();
        name.insert(vec![
            Value::Int(1002),
            Value::Str("Alice".into()),
            d("1994-03-01"),
            d("1996-06-30"),
        ])
        .unwrap();
        title
            .insert(vec![
                Value::Int(1001),
                Value::Str("Engineer".into()),
                d("1995-01-01"),
                d("1995-09-30"),
            ])
            .unwrap();
        title
            .insert(vec![
                Value::Int(1001),
                Value::Str("Sr Engineer".into()),
                d("1995-10-01"),
                d("9999-12-31"),
            ])
            .unwrap();
        title
            .insert(vec![
                Value::Int(1002),
                Value::Str("Manager".into()),
                d("1994-03-01"),
                d("1996-06-30"),
            ])
            .unwrap();
        db
    }

    #[test]
    fn paper_query1_translation_executes() {
        let db = setup();
        let out = execute(
            &db,
            r#"select XMLElement (Name "title_history",
                   XMLAgg (XMLElement (Name "title",
                       XMLAttributes (T.tstart as "tstart", T.tend as "tend"), T.title)))
               from employee_title as T, employee_name as N
               where N.id = T.id and N.name = "Bob"
               group by N.id"#,
            &fns(),
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
        let xml = out.xml_fragments().join("");
        assert_eq!(
            xml,
            "<title_history>\
             <title tstart=\"1995-01-01\" tend=\"1995-09-30\">Engineer</title>\
             <title tstart=\"1995-10-01\" tend=\"9999-12-31\">Sr Engineer</title>\
             </title_history>"
        );
    }

    #[test]
    fn paper_new_employees_example() {
        // The §5.3 example: employees hired after a date.
        let db = setup();
        let out = execute(
            &db,
            r#"select XMLElement (Name "new_employees",
                   XMLAttributes ("1995-01-01" as "start"),
                   XMLAgg (XMLElement (Name "employee", e.name)))
               from employee_name as e
               where e.tstart >= "1995-01-01""#,
            &fns(),
        )
        .unwrap();
        assert_eq!(
            out.xml_fragments().join(""),
            r#"<new_employees start="1995-01-01"><employee>Bob</employee></new_employees>"#
        );
    }

    #[test]
    fn plain_select_with_index_range() {
        let db = setup();
        let out = execute(
            &db,
            "select t.title from employee_title t where t.id = 1001",
            &fns(),
        )
        .unwrap();
        assert_eq!(out.rows.len(), 2);
        let vals = out.scalar_rows().unwrap();
        assert_eq!(vals[0][0], Value::Str("Engineer".into()));
    }

    #[test]
    fn date_coercion_in_where() {
        let db = setup();
        // Snapshot predicate with string literals against Date columns.
        let out = execute(
            &db,
            "select t.title from employee_title t \
             where t.tstart <= '1995-05-06' and t.tend >= '1995-05-06'",
            &fns(),
        )
        .unwrap();
        let titles: Vec<String> = out
            .scalar_rows()
            .unwrap()
            .into_iter()
            .map(|r| r[0].to_string())
            .collect();
        assert_eq!(titles, vec!["Engineer".to_string(), "Manager".to_string()]);
    }

    #[test]
    fn hash_join_on_ids() {
        let db = setup();
        let out = execute(
            &db,
            "select n.name, t.title from employee_name n, employee_title t \
             where n.id = t.id order by t.tstart",
            &fns(),
        )
        .unwrap();
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn group_by_with_plain_aggregates() {
        let db = setup();
        let out = execute(
            &db,
            "select t.id, count(*), min(t.tstart) from employee_title t group by t.id \
             order by t.id",
            &fns(),
        )
        .unwrap();
        let rows = out.scalar_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::Int(2));
        assert_eq!(rows[1][1], Value::Int(1));
        assert_eq!(rows[0][2], d("1995-01-01"));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let db = setup();
        let out = execute(
            &db,
            "select count(*), avg(n.id) from employee_name n",
            &fns(),
        )
        .unwrap();
        let rows = out.scalar_rows().unwrap();
        assert_eq!(rows, vec![vec![Value::Int(2), Value::Double(1001.5)]]);
    }

    #[test]
    fn scalar_udf_in_where() {
        let db = setup();
        let mut reg = FnRegistry::new();
        reg.register("is_senior", |args| {
            Ok(Value::Int(
                args[0].as_str().map_or(0, |s| s.starts_with("Sr") as i64),
            ))
        });
        let out = execute(
            &db,
            "select t.title from employee_title t where is_senior(t.title)",
            &Arc::new(reg),
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn unresolved_names_error() {
        let db = setup();
        assert!(matches!(
            execute(&db, "select nope from employee_name n", &fns()),
            Err(SqlError::Unresolved(_))
        ));
        assert!(matches!(
            execute(&db, "select n.id from missing n", &fns()),
            Err(SqlError::Exec(_))
        ));
        // Ambiguous column.
        assert!(matches!(
            execute(
                &db,
                "select tstart from employee_name a, employee_title b where a.id = b.id",
                &fns()
            ),
            Err(SqlError::Unresolved(_))
        ));
    }

    #[test]
    fn xml_in_where_is_rejected() {
        let db = setup();
        assert!(matches!(
            execute(
                &db,
                r#"select n.id from employee_name n where XMLElement(Name "x") = 1"#,
                &fns()
            ),
            Err(SqlError::Xml(_))
        ));
    }

    #[test]
    fn limit_and_order() {
        let db = setup();
        let out = execute(
            &db,
            "select t.title from employee_title t order by t.title limit 2",
            &fns(),
        )
        .unwrap();
        let titles: Vec<String> = out
            .scalar_rows()
            .unwrap()
            .into_iter()
            .map(|r| r[0].to_string())
            .collect();
        assert_eq!(titles, vec!["Engineer".to_string(), "Manager".to_string()]);
    }

    #[test]
    fn empty_group_yields_empty_xmlagg() {
        let db = setup();
        let out = execute(
            &db,
            r#"select XMLElement(Name "all", XMLAgg(XMLElement(Name "t", t.title)))
               from employee_title t where t.id = 9999"#,
            &fns(),
        )
        .unwrap();
        assert_eq!(out.xml_fragments().join(""), "<all/>");
    }

    /// Only a statement whose result cannot depend on row order joins in
    /// probe order: bare `COUNT`/`MIN`/`MAX` (`DISTINCT` too) and
    /// `SUM`/`AVG` of an expression that stays `Int`. A division (which
    /// yields a `Double`), a scalar item, `XMLAgg`, `GROUP BY` or `ORDER
    /// BY` keep sort-merge order.
    #[test]
    fn only_order_free_statements_join_in_probe_order() {
        let db = setup();
        let probe_order = |sql: &str| -> Vec<bool> {
            let plan = execute(&db, sql, &fns()).unwrap().plan;
            let joins = plan.iter().filter(|e| e.path.starts_with("hash("));
            joins.map(|e| e.path.ends_with("order=probe)")).collect()
        };
        let from = "from employee_name n, employee_title t where n.id = t.id";
        for (items, probe) in [
            ("count(*), min(t.title), max(t.tstart)", true),
            (
                "count(distinct n.name), sum(n.id), avg(-n.id * 2 + 1)",
                true,
            ),
            ("sum(n.id / 2)", false),
            ("avg(n.id), n.name", false),
            ("t.title", false),
            (r#"XMLAgg(XMLElement(Name "t", t.title))"#, false),
        ] {
            let sql = format!("select {items} {from}");
            assert_eq!(probe_order(&sql), [probe], "{sql}");
        }
        for tail in ["group by n.id", "order by n.id"] {
            let sql = format!("select count(*) {from} {tail}");
            assert_eq!(probe_order(&sql), [false], "{sql}");
        }
    }

    /// GROUP BY puts keys equal under `total_cmp` into one group — an
    /// `Int` and the equal `Double` included — and all NULL keys into one
    /// group, in first-seen order (the cross join pairs each title with
    /// both names).
    #[test]
    fn group_by_hashes_equal_values_and_nulls_together() {
        let mut reg = FnRegistry::new();
        reg.register("k", |args| {
            Ok(match args[0].as_str() {
                Some("Engineer") => Value::Int(7),
                Some("Sr Engineer") => Value::Double(7.0),
                _ => Value::Null,
            })
        });
        let out = execute(
            &setup(),
            "select k(t.title), count(*) from employee_title t, employee_name n \
             group by k(t.title)",
            &Arc::new(reg),
        )
        .unwrap();
        let (int, null) = (Value::Int, Value::Null);
        assert_eq!(
            out.scalar_rows().unwrap(),
            vec![vec![int(7), int(4)], vec![null, int(2)]]
        );
    }
}
