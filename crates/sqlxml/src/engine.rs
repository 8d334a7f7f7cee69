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
//!    restriction, §6.3, rides in as a candidate bound),
//! 2. equality join conditions execute as sort-merge joins — "very fast
//!    (in linear time) since every table is already sorted on its id
//!    attribute" (§5.3). A condition is a join key when each side is one
//!    column, optionally plus or minus an integer literal (`t3.tstart =
//!    t2.tend + 1`, the equality the translator emits beside every
//!    `tmeets`). Each table in FROM order joins the tables before it on
//!    *all* the key conditions that connect them, as one composite key —
//!    Q6's adjacent-period join merges on `(id, t2.tend + 1) = (id,
//!    t3.tstart)` instead of pairing every period of an id with every
//!    other one and filtering,
//! 3. the select list is compiled once per statement and evaluated per
//!    row, or per group when `GROUP BY` or aggregates are present;
//!    aggregates fold over the group in place ([`Accumulator`]), and
//!    `XMLElement` / `XMLAgg` construct XML inside the engine.
//!
//! Compilation binds every UDF call to its registry entry once, and a
//! string literal passed to a UDF that is a date in `YYYY-MM-DD` form is
//! bound as a `DATE` value, so the temporal built-ins never re-parse their
//! window on every row.

use crate::parser::{parse_sql, SelectStmt, SqlExpr};
use crate::{Result, SqlError};
use relstore::exec::{Accumulator, Executor, Filter, NestedLoopJoin, Row, SeqScan, SortMergeJoin};
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

/// The result of a select: column names plus rows of [`SqlValue`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<SqlValue>>,
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
    execute_stmt_with(db, stmt, fns, &HashMap::new())
}

/// Execute with **scan overrides**: tables named in `overrides` read the
/// supplied rows instead of their base storage (predicates are applied on
/// top; index selection is skipped). This is how ArchIS plugs in its
/// uncompression table functions (paper §8.2: "user-defined uncompression
/// table functions are used to extract records from each BLOB") — the
/// caller materializes live + decompressed rows for the referenced
/// history tables.
pub fn execute_stmt_with(
    db: &Database,
    stmt: &SelectStmt,
    fns: &Arc<FnRegistry>,
    overrides: &HashMap<String, Vec<Row>>,
) -> Result<QueryResult> {
    let scope = Scope::build(db, stmt)?;
    let exec = run_from_where(db, stmt, &scope, fns, overrides)?;
    project(stmt, &scope, exec, fns)
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

/// Run FROM + WHERE, returning a streaming executor of joined rows over
/// the scope's schema. Single-table plans stream all the way from the
/// base scan; joins materialize inside the join operators as before.
fn run_from_where(
    db: &Database,
    stmt: &SelectStmt,
    scope: &Scope,
    fns: &Arc<FnRegistry>,
    overrides: &HashMap<String, Vec<Row>>,
) -> Result<Executor> {
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

    // Per-table access paths (streaming executors).
    let mut sources: HashMap<String, Executor> = HashMap::new();
    for (tname, alias) in &stmt.from {
        let t = db.table(tname)?;
        let preds = table_preds.remove(alias).unwrap_or_default();
        let exec = match overrides.get(tname) {
            Some(provided) => filter_rows(provided.clone(), alias, &preds, scope, fns)?,
            None => scan_table(db, &t, alias, &preds, scope, fns)?,
        };
        sources.insert(alias.clone(), exec);
    }

    // Left-deep joins in FROM order.
    let mut joined: Option<Executor> = None;
    let mut joined_aliases: Vec<String> = Vec::new();
    for (i, (_tname, alias)) in stmt.from.iter().enumerate() {
        let right_exec = sources.remove(alias).expect("scanned above");
        if i == 0 {
            joined = Some(right_exec);
            joined_aliases.push(alias.clone());
            continue;
        }
        // Every key condition connecting `alias` to the joined set becomes
        // one component of a composite sort-merge key. The joined row is a
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
        let left_exec: Executor = joined.take().expect("first table seeds the join");
        let out: Executor = if lkeys.is_empty() {
            // Nothing connects yet: cross join; the conditions that relate
            // these tables to later ones apply as those join in, and the
            // rest as residual filters.
            Box::new(NestedLoopJoin::new(
                left_exec,
                right_exec,
                Expr::Lit(Value::Int(1)),
            ))
        } else {
            Box::new(SortMergeJoin::new(left_exec, right_exec, lkeys, rkeys))
        };
        joined = Some(out);
        joined_aliases.push(alias.clone());
    }
    let mut result: Executor = joined.unwrap_or_else(|| Box::new(SeqScan::from_rows(Vec::new())));

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

/// Whether `e` can be a sort-merge join key: an equality whose sides are
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

/// Apply pushed-down predicates to already-materialized rows (the scan
/// path for override-provided tables).
fn filter_rows(
    rows: Vec<Row>,
    alias: &str,
    preds: &[SqlExpr],
    scope: &Scope,
    fns: &Arc<FnRegistry>,
) -> Result<Executor> {
    let base: Executor = Box::new(SeqScan::from_rows(rows));
    if preds.is_empty() {
        return Ok(base);
    }
    let (offset, _arity) = scope.tables[alias];
    let compiled = preds
        .iter()
        .map(|p| compile(p, scope, offset, fns))
        .collect::<Result<Vec<_>>>()?;
    let pred = Expr::and_all(compiled);
    Ok(Box::new(Filter::new(base, pred)))
}

/// Scan one table with pushed-down predicates.
///
/// The bounds the predicates put on key columns become
/// [`planner::ScanCandidate`]s — one per bounded leading column, then one
/// per index (and the clustered key) that has more than its leading
/// column bound; [`planner::choose_path`] costs them against a sequential
/// scan using the table's per-segment statistics and records the decision
/// in the EXPLAIN plan log. Returns a streaming executor: base scans pull
/// pages on demand, so a downstream LIMIT stops the scan early.
fn scan_table(
    db: &Database,
    table: &Table,
    alias: &str,
    preds: &[SqlExpr],
    scope: &Scope,
    fns: &Arc<FnRegistry>,
) -> Result<Executor> {
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

    let profile = planner::TableProfile::of(db, table);
    let choice = planner::choose_path(&profile, &candidates);
    let base: Executor = match choice.candidate {
        None => relstore::exec::build_scan(
            table,
            planner::PathKind::Seq,
            None,
            Bound::Unbounded,
            Bound::Unbounded,
        )?,
        Some(i) => {
            let cand = &candidates[i];
            let (lo, hi) = cand.key_range();
            let parallel = match cand.kind {
                planner::PathKind::Cluster => parallel_cluster_scan(table, &lo, &hi)?,
                _ => None,
            };
            match parallel {
                Some(rows) => Box::new(SeqScan::from_rows(rows)),
                None => relstore::exec::build_scan(
                    table,
                    cand.kind,
                    cand.index.as_deref(),
                    as_slice(&lo),
                    as_slice(&hi),
                )?,
            }
        }
    };
    // Apply ALL pushed predicates (the access-path bound is a superset
    // filter; re-checking is cheap and keeps correctness independent of
    // planning).
    if preds.is_empty() {
        return Ok(base);
    }
    let compiled = preds
        .iter()
        .map(|p| compile(p, scope, offset, fns))
        .collect::<Result<Vec<_>>>()?;
    let pred = Expr::and_all(compiled);
    Ok(Box::new(Filter::new(base, pred)))
}

/// Fan a multi-segment cluster-range scan across threads.
///
/// The translator's segment restriction (`segno >= lo and segno <= hi`,
/// paper §6.3) bounds the leading cluster column to a small set of
/// integers. Each segment occupies a contiguous cluster-key range, so
/// scanning every segment in its own thread and concatenating the results
/// in ascending segment order is byte-identical to the sequential primary
/// range scan. Returns `None` (caller falls back to the sequential scan)
/// unless both bounds are inclusive integers spanning 2..=64 segments.
fn parallel_cluster_scan(
    table: &Table,
    lo: &Bound<Vec<Value>>,
    hi: &Bound<Vec<Value>>,
) -> Result<Option<Vec<Row>>> {
    let one_int = |b: &Bound<Vec<Value>>| -> Option<i64> {
        match b {
            Bound::Included(v) => match v.as_slice() {
                [Value::Int(i)] => Some(*i),
                _ => None,
            },
            _ => None,
        }
    };
    let (Some(a), Some(b)) = (one_int(lo), one_int(hi)) else {
        return Ok(None);
    };
    if !(a < b && b - a < 64) {
        return Ok(None); // single segment or implausibly wide range
    }
    let segnos: Vec<i64> = (a..=b).collect();
    let results: Vec<relstore::Result<Vec<Row>>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = segnos
            .iter()
            .map(|&sn| {
                s.spawn(move |_| {
                    let key = [Value::Int(sn)];
                    // lint:allow(planner-routed: reached only from scan_table
                    // after choose_path picked the clustered range; this is
                    // the parallel executor for that chosen plan)
                    table.cluster_range(Bound::Included(&key[..]), Bound::Included(&key[..]))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("segment scan thread panicked"))
            .collect()
    })
    .expect("scoped segment scan threads");
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    Ok(Some(out))
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

fn project(
    stmt: &SelectStmt,
    scope: &Scope,
    input: Executor,
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

    // LIMIT without grouping or ordering can stop pulling from the pipeline
    // as soon as enough rows have arrived — with streaming scans underneath,
    // this bounds physical I/O by the limit, not the table size.
    let rows: Vec<Row> = if !grouped && stmt.order_by.is_empty() {
        match stmt.limit {
            Some(n) => input.take(n).collect::<relstore::Result<Vec<Row>>>()?,
            None => input.collect::<relstore::Result<Vec<Row>>>()?,
        }
    } else {
        input.collect::<relstore::Result<Vec<Row>>>()?
    };

    // One output row per group: a single global group (kept even when
    // empty) without GROUP BY, one per distinct key with it; without
    // aggregates every row is its own group.
    let output = |group: &[Row]| -> Result<(Vec<SqlValue>, Vec<Value>)> {
        let values = items
            .iter()
            .map(|i| i.eval(group))
            .collect::<Result<Vec<_>>>()?;
        let mut keys = Vec::with_capacity(order_items.len());
        for (item, _) in &order_items {
            match item.eval(group)? {
                SqlValue::Rel(v) => keys.push(v),
                SqlValue::Xml(_) => {
                    return Err(SqlError::Xml("cannot ORDER BY an XML value".into()))
                }
            }
        }
        Ok((values, keys))
    };
    let mut out: Vec<(Vec<SqlValue>, Vec<Value>)> = if !grouped {
        rows.iter()
            .map(|row| output(std::slice::from_ref(row)))
            .collect::<Result<_>>()?
    } else if stmt.group_by.is_empty() {
        vec![output(&rows)?]
    } else {
        let keys = stmt
            .group_by
            .iter()
            .map(|g| compile(g, scope, 0, fns))
            .collect::<Result<Vec<_>>>()?;
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut groups: Vec<Vec<Row>> = Vec::new();
        for row in rows {
            let kv = keys
                .iter()
                .map(|k| k.eval(&row))
                .collect::<relstore::Result<Vec<_>>>()?;
            let gi = *index.entry(format!("{kv:?}")).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(row);
        }
        groups.iter().map(|g| output(g)).collect::<Result<_>>()?
    };

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

    /// Evaluate over one group of rows (one row when nothing aggregates).
    fn eval(&self, group: &[Row]) -> Result<SqlValue> {
        match self {
            Item::Scalar(e) => {
                let row: &[Value] = group.first().map_or(&[], |r| r.as_slice());
                Ok(SqlValue::Rel(e.eval(row)?))
            }
            Item::Agg {
                func,
                arg,
                distinct,
            } => {
                let mut acc = Accumulator::new(*func, *distinct);
                for row in group {
                    acc.update(arg, row)?;
                }
                Ok(SqlValue::Rel(acc.finish()))
            }
            Item::XmlAgg(inner) => {
                let mut nodes = Vec::new();
                for row in group {
                    match inner.eval(std::slice::from_ref(row))? {
                        SqlValue::Xml(ns) => nodes.extend(ns),
                        SqlValue::Rel(Value::Null) => {}
                        SqlValue::Rel(v) => nodes.push(Node::Text(v.to_string())),
                    }
                }
                Ok(SqlValue::Xml(nodes))
            }
            Item::XmlElement {
                name,
                attrs,
                content,
            } => {
                let mut elem = Element::new(name.clone());
                for (aname, aitem) in attrs {
                    match aitem.eval(group)? {
                        SqlValue::Rel(Value::Null) => {} // NULL attrs omitted
                        SqlValue::Rel(v) => elem.set_attr(aname.clone(), v.to_string()),
                        SqlValue::Xml(_) => {
                            return Err(SqlError::Xml("attribute value cannot be XML".into()))
                        }
                    }
                }
                for c in content {
                    match c.eval(group)? {
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
    fn sort_merge_join_on_ids() {
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

    /// The per-segment thread fan-out is invisible: it returns what one
    /// serial `cluster_range` over the whole segment bound returns.
    #[test]
    fn parallel_cluster_scan_equals_one_serial_range() {
        let db = Database::in_memory();
        let t = db
            .create_table(
                "employee_salary",
                Schema::new(vec![
                    Field::new("segno", DataType::Int),
                    Field::new("id", DataType::Int),
                    Field::new("salary", DataType::Int),
                ]),
                StorageKind::Clustered,
                &["segno", "id"],
            )
            .unwrap();
        // Inserted out of key order, segments 0..=5, 40 ids each.
        for id in (0..40i64).rev() {
            for segno in [3i64, 0, 5, 1, 4, 2] {
                t.insert(vec![
                    Value::Int(segno),
                    Value::Int(id),
                    Value::Int(segno * 1_000 + id),
                ])
                .unwrap();
            }
        }
        let (lo, hi) = (vec![Value::Int(1)], vec![Value::Int(4)]);
        let fanned = parallel_cluster_scan(
            &t,
            &Bound::Included(lo.clone()),
            &Bound::Included(hi.clone()),
        )
        .unwrap()
        .expect("four segments fan out");
        let serial = t
            .cluster_range(Bound::Included(&lo[..]), Bound::Included(&hi[..]))
            .unwrap();
        assert_eq!(fanned.len(), 4 * 40);
        assert_eq!(fanned, serial);
        // One segment (or a non-integer bound) is left to the serial scan.
        let one = Bound::Included(lo);
        assert!(parallel_cluster_scan(&t, &one, &one).unwrap().is_none());
    }
}
