//! XQuery → SQL/XML translation (paper §5.3, Algorithm 1) with the §6.3
//! segment restriction.
//!
//! The five steps of Algorithm 1:
//!
//! 1. **Identification of variable range** — every `for`/`let` variable is
//!    classified as a tuple variable over a key table, a tuple variable
//!    over an attribute history table, or an attribute variable, and gets
//!    its own alias in the SQL FROM clause;
//! 2. **Generation of join conditions** — `X.id = Y.id` for every pair of
//!    related tuple variables;
//! 3. **Generation of WHERE conditions** — path predicates
//!    (`[name="Bob"]`) and the XQuery `where` clause;
//! 4. **Translation of built-in functions** — `tstart(.)`/`tend(.)`
//!    become the `tstart`/`tend` columns in comparison contexts (as the
//!    paper's own QUERY 2 translation shows); interval predicates
//!    (`toverlaps`, ...) map to the registered SQL UDFs over
//!    `(tstart, tend)` pairs. `tmeets(a, b)` holds exactly when `a.tend`
//!    is not *forever* and `b.tstart = a.tend + 1`, so beside every
//!    `tmeets` over two period columns the translator also writes that
//!    implied equality — `(tmeets(...) and b.tstart = a.tend + 1)` — which
//!    the engine turns into a join key (Q6's adjacent-period join merges
//!    on `(id, tend + 1) = (id, tstart)`). The UDF stays as the residual
//!    check; an open period's `tend + 1` is 10000-01-01, which no
//!    `tstart` equals;
//! 5. **Output generation** — `XMLElement` / `XMLAttributes` / `XMLAgg`
//!    (or plain scalars for aggregate-wrapped queries).
//!
//! §6.3: when step 3 discovers a snapshot date or a slicing window on a
//! segment-clustered attribute table, the translator consults the segment
//! catalog and adds `segno` restrictions. A snapshot always falls in a
//! single segment (every tuple live inside a segment's interval is stored
//! in it), so the rewrite is loss-free; a multi-segment slicing range is
//! only added when the surrounding aggregate is duplicate-insensitive
//! (`count(distinct ...)`), because a tuple can be stored in several
//! consecutive segments.
//!
//! The supported XQuery subset is the paper's query corpus: FLWOR over
//! `doc(...)` paths and variable-relative paths, path predicates, the
//! temporal function library, element constructors, and aggregate-wrapped
//! queries. Shapes outside the subset return
//! [`ArchError::Unsupported`] — the caller can always fall back to the
//! native XQuery engine over the published H-document.

use crate::archive::SegmentInfo;
use crate::htable::{self, LIVE_SEGNO};
use crate::spec::RelationSpec;
use crate::{ArchError, ArchIS, Result};
use temporal::{Date, END_OF_TIME};
use xquery::ast::{Binding, CmpOp, DirectContent, Expr, Step};

/// The translator. Borrow an [`ArchIS`] for schema and segment metadata.
pub struct Translator<'a> {
    archis: &'a ArchIS,
}

#[derive(Debug, Clone, PartialEq)]
enum VarKind {
    /// Ranges over the key table (an H-document tuple element).
    Tuple,
    /// Ranges over one attribute history table.
    Attr(String),
}

#[derive(Debug, Clone)]
struct VarInfo {
    relation: String,
    kind: VarKind,
    alias: String,
}

/// Time constraints detected on an attribute variable (for §6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
enum TimeBound {
    StartLe(Date),
    EndGe(Date),
    Overlaps(Date, Date),
}

#[derive(Default)]
struct Ctx {
    vars: std::collections::HashMap<String, VarInfo>,
    from: Vec<(String, String)>,
    conds: Vec<String>,
    bounds: Vec<(String, TimeBound)>, // (alias, bound)
    alias_tables: std::collections::HashMap<String, (String, Option<String>)>, // alias -> (relation, attr)
    next_alias: usize,
}

impl Ctx {
    fn fresh_alias(&mut self) -> String {
        self.next_alias += 1;
        format!("t{}", self.next_alias)
    }

    fn add_table(&mut self, table: String, relation: &str, attr: Option<&str>) -> String {
        let alias = self.fresh_alias();
        self.from.push((table, alias.clone()));
        self.alias_tables.insert(
            alias.clone(),
            (relation.to_string(), attr.map(|s| s.to_string())),
        );
        alias
    }
}

impl<'a> Translator<'a> {
    /// A translator over an ArchIS instance.
    pub fn new(archis: &'a ArchIS) -> Self {
        Translator { archis }
    }

    /// Translate an XQuery string to SQL/XML.
    pub fn translate(&self, query: &str) -> Result<String> {
        let module = xquery::parse_query(query)?;
        if !module.functions.is_empty() {
            return Err(ArchError::Unsupported(
                "declare function is not supported by the translator".into(),
            ));
        }
        self.translate_expr(&module.body)
    }

    fn translate_expr(&self, expr: &Expr) -> Result<String> {
        match expr {
            // agg( FLWOR ) / count(distinct-values( FLWOR )).
            Expr::Call(name, args) if is_aggregate(name) && args.len() == 1 => {
                let (inner, distinct) = match &args[0] {
                    Expr::Call(n2, a2) if n2 == "distinct-values" && a2.len() == 1 => {
                        (&a2[0], true)
                    }
                    other => (other, false),
                };
                self.translate_flwor(
                    inner,
                    OutputMode::Aggregate {
                        func: normalize_agg(name),
                        distinct,
                    },
                )
            }
            Expr::ElementCtor {
                name,
                content: Some(content),
            } => self.translate_flwor(content, OutputMode::WrappedElement { name: name.clone() }),
            Expr::Flwor { .. } => self.translate_flwor(expr, OutputMode::Rows),
            other => Err(ArchError::Unsupported(format!(
                "top-level expression {other:?} is not translatable"
            ))),
        }
    }

    fn translate_flwor(&self, expr: &Expr, mode: OutputMode) -> Result<String> {
        // A bare path also counts as a degenerate FLWOR: `count(doc(...)/...)`.
        let (bindings, where_clause, order_by, ret): (
            Vec<Binding>,
            Option<Expr>,
            Vec<xquery::ast::OrderSpec>,
            Expr,
        ) = match expr {
            Expr::Flwor {
                bindings,
                where_clause,
                order_by,
                ret,
            } => (
                bindings.clone(),
                where_clause.as_deref().cloned(),
                order_by.clone(),
                (**ret).clone(),
            ),
            Expr::Path { .. } => (
                vec![Binding::For {
                    var: "__p".to_string(),
                    seq: expr.clone(),
                }],
                None,
                Vec::new(),
                Expr::Var("__p".to_string()),
            ),
            other => {
                return Err(ArchError::Unsupported(format!(
                    "expected FLWOR, got {other:?}"
                )))
            }
        };

        let mut ctx = Ctx::default();
        // Step 1 + 2 + 3: bind variables, joins, predicate conditions.
        for b in &bindings {
            match b {
                Binding::For { var, seq } | Binding::Let { var, seq } => {
                    self.bind_variable(&mut ctx, var, seq)?;
                }
            }
        }
        if let Some(w) = &where_clause {
            self.where_to_sql(&mut ctx, w)?;
        }
        // Step 5: output generation. A `table(...)` constructor in the
        // return clause bypasses the SQL/XML transformation so results come
        // back as plain relational rows (paper §5.3: "users have the option
        // to specify a table construct in the return clause").
        let distinct_mode = matches!(mode, OutputMode::Aggregate { distinct: true, .. });
        let table_bypass = match (&mode, &ret) {
            (OutputMode::Rows, Expr::Call(f, args)) if f == "table" && !args.is_empty() => {
                Some(args.clone())
            }
            _ => None,
        };
        let select = if let Some(cols) = &table_bypass {
            let mut items = Vec::with_capacity(cols.len());
            for c in cols {
                items.push(self.value_operand(&mut ctx, None, c)?.sql);
            }
            format!("select {}", items.join(", "))
        } else {
            match &mode {
                OutputMode::Aggregate { func, distinct } => {
                    let scalar = self.scalar_output(&mut ctx, &ret)?;
                    if *distinct {
                        format!("select {func}(distinct {scalar})")
                    } else {
                        format!("select {func}({scalar})")
                    }
                }
                OutputMode::WrappedElement { name } => {
                    let content = self.xml_output(&mut ctx, &ret)?;
                    format!("select XMLElement(Name \"{name}\", XMLAgg({content}))")
                }
                OutputMode::Rows => {
                    let content = self.xml_output(&mut ctx, &ret)?;
                    format!("select {content}")
                }
            }
        };
        // ORDER BY: keys must be scalar operands over bound variables.
        let mut order_sql: Vec<String> = Vec::new();
        for spec in &order_by {
            let key = self.value_operand(&mut ctx, None, &spec.key)?;
            order_sql.push(format!(
                "{}{}",
                key.sql,
                if spec.ascending { "" } else { " desc" }
            ));
        }

        // §6.3 segment restriction.
        self.add_segment_conditions(&mut ctx, distinct_mode)?;

        if ctx.from.is_empty() {
            return Err(ArchError::Unsupported(
                "query binds no H-table variables".into(),
            ));
        }
        let from = ctx
            .from
            .iter()
            .map(|(t, a)| format!("{t} as {a}"))
            .collect::<Vec<_>>()
            .join(", ");
        let mut sql = format!("{select} from {from}");
        if !ctx.conds.is_empty() {
            sql.push_str(" where ");
            sql.push_str(&ctx.conds.join(" and "));
        }
        if !order_sql.is_empty() {
            sql.push_str(" order by ");
            sql.push_str(&order_sql.join(", "));
        }
        Ok(sql)
    }

    /// Step 1: classify a `for`/`let` binding and create its alias(es).
    fn bind_variable(&self, ctx: &mut Ctx, var: &str, seq: &Expr) -> Result<()> {
        let Expr::Path { base, steps } = seq else {
            return Err(ArchError::Unsupported(format!(
                "binding of ${var} must be a path expression"
            )));
        };
        match &**base {
            // doc("employees.xml")/employees/employee[...]/attr[...]
            Expr::Call(f, args) if (f == "doc" || f == "document") && args.len() == 1 => {
                let Expr::StrLit(uri) = &args[0] else {
                    return Err(ArchError::Unsupported(
                        "doc() needs a string literal".into(),
                    ));
                };
                let spec = self
                    .archis
                    .relations()
                    .find(|s| s.doc == *uri)
                    .ok_or_else(|| ArchError::NotFound(format!("document {uri}")))?
                    .clone();
                let mut steps = steps.as_slice();
                // Root step.
                match steps.first() {
                    Some((Step::Child(root), preds)) if *root == spec.root => {
                        if !preds.is_empty() {
                            return Err(ArchError::Unsupported(
                                "predicates on the root element".into(),
                            ));
                        }
                        steps = &steps[1..];
                    }
                    _ => {
                        return Err(ArchError::Unsupported(format!(
                            "path must start at /{}",
                            spec.root
                        )))
                    }
                }
                // Tuple step.
                let (tuple_preds, rest) = match steps.first() {
                    Some((Step::Child(t), preds)) if *t == spec.name => {
                        (preds.clone(), &steps[1..])
                    }
                    _ => {
                        return Err(ArchError::Unsupported(format!(
                            "path must select {} elements",
                            spec.name
                        )))
                    }
                };
                let tuple_alias = ctx.add_table(htable::key_table(&spec), &spec.name, None);
                let tuple_var = VarInfo {
                    relation: spec.name.clone(),
                    kind: VarKind::Tuple,
                    alias: tuple_alias.clone(),
                };
                for p in &tuple_preds {
                    self.predicate_to_sql(ctx, &tuple_var, p)?;
                }
                match rest {
                    [] => {
                        ctx.vars.insert(var.to_string(), tuple_var);
                    }
                    [(Step::Child(attr), attr_preds)] => {
                        let attr_var = self.join_attribute(ctx, &spec, &tuple_var, attr)?;
                        for p in attr_preds {
                            self.predicate_to_sql(ctx, &attr_var, p)?;
                        }
                        ctx.vars.insert(var.to_string(), attr_var);
                    }
                    _ => {
                        return Err(ArchError::Unsupported(
                            "paths deeper than tuple/attribute".into(),
                        ))
                    }
                }
                Ok(())
            }
            // $e/attr[...]
            Expr::Var(parent) => {
                let parent_var = ctx
                    .vars
                    .get(parent)
                    .cloned()
                    .ok_or_else(|| ArchError::Unsupported(format!("unbound ${parent}")))?;
                if parent_var.kind != VarKind::Tuple {
                    return Err(ArchError::Unsupported(format!(
                        "${parent} must be a tuple variable"
                    )));
                }
                let spec = self.archis.relation(&parent_var.relation)?.clone();
                let [(Step::Child(attr), attr_preds)] = steps.as_slice() else {
                    return Err(ArchError::Unsupported(
                        "variable-relative path must select one attribute".into(),
                    ));
                };
                let attr_var = self.join_attribute(ctx, &spec, &parent_var, attr)?;
                for p in attr_preds {
                    self.predicate_to_sql(ctx, &attr_var, p)?;
                }
                ctx.vars.insert(var.to_string(), attr_var);
                Ok(())
            }
            other => Err(ArchError::Unsupported(format!(
                "binding base {other:?} is not translatable"
            ))),
        }
    }

    /// Step 2: attribute table + `id` join against its tuple variable.
    fn join_attribute(
        &self,
        ctx: &mut Ctx,
        spec: &RelationSpec,
        tuple_var: &VarInfo,
        attr: &str,
    ) -> Result<VarInfo> {
        if !spec.has_attr(attr) {
            return Err(ArchError::NotFound(format!(
                "attribute {attr} of {}",
                spec.name
            )));
        }
        let alias = ctx.add_table(htable::attr_table(spec, attr), &spec.name, Some(attr));
        ctx.conds.push(format!(
            "{}.{} = {}.{}",
            tuple_var.alias, spec.key, alias, spec.key
        ));
        Ok(VarInfo {
            relation: spec.name.clone(),
            kind: VarKind::Attr(attr.to_string()),
            alias,
        })
    }

    /// Step 3 + 4: one path predicate on `var`.
    fn predicate_to_sql(&self, ctx: &mut Ctx, var: &VarInfo, pred: &Expr) -> Result<()> {
        let sql = self.bool_expr(ctx, Some(var), pred)?;
        ctx.conds.push(sql);
        Ok(())
    }

    /// Translate the `where` clause.
    fn where_to_sql(&self, ctx: &mut Ctx, w: &Expr) -> Result<()> {
        let sql = self.bool_expr(ctx, None, w)?;
        ctx.conds.push(sql);
        Ok(())
    }

    /// A boolean expression in predicate/where position. `ctx_var` is the
    /// variable `.` refers to (path predicates), if any.
    fn bool_expr(&self, ctx: &mut Ctx, ctx_var: Option<&VarInfo>, e: &Expr) -> Result<String> {
        match e {
            Expr::And(l, r) => Ok(format!(
                "({} and {})",
                self.bool_expr(ctx, ctx_var, l)?,
                self.bool_expr(ctx, ctx_var, r)?
            )),
            Expr::Or(l, r) => Ok(format!(
                "({} or {})",
                self.bool_expr(ctx, ctx_var, l)?,
                self.bool_expr(ctx, ctx_var, r)?
            )),
            Expr::Cmp(op, l, r) => self.comparison(ctx, ctx_var, *op, l, r),
            // not(empty($x)) — $x is already an inner join; always true.
            Expr::Call(name, args) if name == "not" && args.len() == 1 => match &args[0] {
                Expr::Call(n2, a2) if n2 == "empty" && a2.len() == 1 => {
                    self.require_joined(ctx, ctx_var, &a2[0])?;
                    Ok("1 = 1".to_string())
                }
                inner => Ok(format!("not ({})", self.bool_expr(ctx, ctx_var, inner)?)),
            },
            Expr::Call(name, args) if is_interval_pred(name) && args.len() == 2 => {
                let a = self.interval_operand(ctx, ctx_var, &args[0])?;
                let b = self.interval_operand(ctx, ctx_var, &args[1])?;
                let call = format!("{name}({}, {}, {}, {})", a.0, a.1, b.0, b.1);
                // The implied adjacency equality (see the module doc);
                // only between columns — a literal period is a filter.
                let is_column = |sql: &str| !sql.starts_with('\'');
                if name == "tmeets" && is_column(&a.1) && is_column(&b.0) {
                    Ok(format!("({call} and {} = {} + 1)", b.0, a.1))
                } else {
                    Ok(call)
                }
            }
            Expr::Call(name, args) if name == "empty" && args.len() == 1 => {
                // `empty(overlapinterval($a,$b))` — no overlap.
                match &args[0] {
                    Expr::Call(n2, a2) if n2 == "overlapinterval" && a2.len() == 2 => {
                        let a = self.interval_operand(ctx, ctx_var, &a2[0])?;
                        let b = self.interval_operand(ctx, ctx_var, &a2[1])?;
                        Ok(format!(
                            "overlapdays({}, {}, {}, {}) is null",
                            a.0, a.1, b.0, b.1
                        ))
                    }
                    other => Err(ArchError::Unsupported(format!(
                        "empty({other:?}) is not translatable"
                    ))),
                }
            }
            other => Err(ArchError::Unsupported(format!(
                "boolean expression {other:?} is not translatable"
            ))),
        }
    }

    /// A `(tstart, tend)` pair of SQL expressions for an interval operand.
    fn interval_operand(
        &self,
        ctx: &mut Ctx,
        ctx_var: Option<&VarInfo>,
        e: &Expr,
    ) -> Result<(String, String)> {
        match e {
            Expr::ContextItem => {
                let v = ctx_var
                    .ok_or_else(|| ArchError::Unsupported("'.' outside a predicate".into()))?;
                Ok((format!("{}.tstart", v.alias), format!("{}.tend", v.alias)))
            }
            Expr::Var(name) => {
                let v = ctx
                    .vars
                    .get(name)
                    .ok_or_else(|| ArchError::Unsupported(format!("unbound ${name}")))?;
                Ok((format!("{}.tstart", v.alias), format!("{}.tend", v.alias)))
            }
            Expr::Call(f, args) if f == "telement" && args.len() == 2 => {
                let d1 = date_literal(&args[0])?;
                let d2 = date_literal(&args[1])?;
                // Record a slicing window on the context variable.
                if let Some(v) = ctx_var {
                    ctx.bounds
                        .push((v.alias.clone(), TimeBound::Overlaps(d1, d2)));
                }
                Ok((format!("'{d1}'"), format!("'{d2}'")))
            }
            // $e/attr used as an interval — join the attribute table.
            Expr::Path { base: b, steps } => {
                if let (Expr::Var(parent), [(Step::Child(attr), preds)]) = (&**b, steps.as_slice())
                {
                    let parent_var = ctx
                        .vars
                        .get(parent)
                        .cloned()
                        .ok_or_else(|| ArchError::Unsupported(format!("unbound ${parent}")))?;
                    let spec = self.archis.relation(&parent_var.relation)?.clone();
                    let v = self.join_attribute(ctx, &spec, &parent_var, attr)?;
                    for p in preds {
                        self.predicate_to_sql(ctx, &v, p)?;
                    }
                    return Ok((format!("{}.tstart", v.alias), format!("{}.tend", v.alias)));
                }
                Err(ArchError::Unsupported(format!("interval operand {e:?}")))
            }
            other => Err(ArchError::Unsupported(format!(
                "interval operand {other:?}"
            ))),
        }
    }

    /// Require that `$x` (or a var path) is joined in — used by
    /// `not(empty(...))`.
    fn require_joined(&self, ctx: &mut Ctx, ctx_var: Option<&VarInfo>, e: &Expr) -> Result<()> {
        match e {
            Expr::Var(name) if ctx.vars.contains_key(name) => Ok(()),
            Expr::Path { .. } => {
                self.interval_operand(ctx, ctx_var, e)?;
                Ok(())
            }
            other => Err(ArchError::Unsupported(format!(
                "not(empty({other:?})) is not translatable"
            ))),
        }
    }

    /// A comparison; handles temporal accessors (step 4) and value paths.
    fn comparison(
        &self,
        ctx: &mut Ctx,
        ctx_var: Option<&VarInfo>,
        op: CmpOp,
        l: &Expr,
        r: &Expr,
    ) -> Result<String> {
        let ls = self.value_operand(ctx, ctx_var, l)?;
        let rs = self.value_operand(ctx, ctx_var, r)?;
        // §6.3 bookkeeping: tstart <= D / tend >= D patterns.
        self.record_bound(ctx, &ls, op, &rs);
        self.record_bound(ctx, &rs, flip_cmp(op), &ls);
        Ok(format!("{} {} {}", ls.sql, cmp_sql(op), rs.sql))
    }

    fn record_bound(&self, ctx: &mut Ctx, l: &Operand, op: CmpOp, r: &Operand) {
        if let (Some((alias, which)), Some(d)) = (&l.time_col, r.date) {
            match (which.as_str(), op) {
                ("tstart", CmpOp::Le) => ctx.bounds.push((alias.clone(), TimeBound::StartLe(d))),
                ("tend", CmpOp::Ge) => ctx.bounds.push((alias.clone(), TimeBound::EndGe(d))),
                _ => {}
            }
        }
    }

    /// A scalar operand: literal, temporal accessor, value path, ...
    fn value_operand(&self, ctx: &mut Ctx, ctx_var: Option<&VarInfo>, e: &Expr) -> Result<Operand> {
        match e {
            Expr::StrLit(s) => Ok(Operand {
                sql: format!("'{}'", s.replace('\'', "''")),
                time_col: None,
                date: Date::parse(s).ok(),
            }),
            Expr::IntLit(i) => Ok(Operand {
                sql: i.to_string(),
                time_col: None,
                date: None,
            }),
            Expr::DecLit(d) => Ok(Operand {
                sql: d.to_string(),
                time_col: None,
                date: None,
            }),
            Expr::Call(f, args) if f == "xs:date" || f == "date" => {
                let d = date_literal(&args[0])?;
                Ok(Operand {
                    sql: format!("'{d}'"),
                    time_col: None,
                    date: Some(d),
                })
            }
            Expr::Call(f, args) if (f == "tstart" || f == "tend") && args.len() == 1 => {
                let v = self.var_of(ctx, ctx_var, &args[0])?;
                Ok(Operand {
                    sql: format!("{}.{}", v.alias, f),
                    time_col: Some((v.alias.clone(), f.clone())),
                    date: None,
                })
            }
            Expr::Call(f, args)
                if (f == "current-date" || f == "current-dateTime") && args.is_empty() =>
            {
                // In comparison position the still-current check
                // `tend(.) = current-date()` means tend = 9999-12-31.
                Ok(Operand {
                    sql: format!("'{END_OF_TIME}'"),
                    time_col: None,
                    date: Some(END_OF_TIME),
                })
            }
            Expr::Call(f, args) if (f == "string" || f == "number") && args.len() == 1 => {
                self.value_operand(ctx, ctx_var, &args[0])
            }
            Expr::ContextItem => {
                let v = ctx_var
                    .ok_or_else(|| ArchError::Unsupported("'.' outside a predicate".into()))?;
                let VarKind::Attr(attr) = &v.kind else {
                    return Err(ArchError::Unsupported(
                        "'.' compared as a value on a tuple variable".into(),
                    ));
                };
                Ok(Operand {
                    sql: format!("{}.{}", v.alias, attr),
                    time_col: None,
                    date: None,
                })
            }
            Expr::Var(name) => {
                let v = ctx
                    .vars
                    .get(name)
                    .ok_or_else(|| ArchError::Unsupported(format!("unbound ${name}")))?
                    .clone();
                match &v.kind {
                    VarKind::Attr(attr) => Ok(Operand {
                        sql: format!("{}.{}", v.alias, attr),
                        time_col: None,
                        date: None,
                    }),
                    VarKind::Tuple => {
                        let spec = self.archis.relation(&v.relation)?;
                        Ok(Operand {
                            sql: format!("{}.{}", v.alias, spec.key),
                            time_col: None,
                            date: None,
                        })
                    }
                }
            }
            // Path predicates on implicit attributes: [name = "Bob"],
            // [id = "100002"], or $e/salary in a where clause.
            Expr::Path { base, steps } => {
                let (parent_var, attr, preds) = match (&**base, steps.as_slice()) {
                    (Expr::ContextItem, [(Step::Child(attr), preds)]) => {
                        let v = ctx_var.ok_or_else(|| {
                            ArchError::Unsupported("relative path outside a predicate".into())
                        })?;
                        (v.clone(), attr.clone(), preds.clone())
                    }
                    (Expr::Var(parent), [(Step::Child(attr), preds)]) => {
                        let v =
                            ctx.vars.get(parent).cloned().ok_or_else(|| {
                                ArchError::Unsupported(format!("unbound ${parent}"))
                            })?;
                        (v, attr.clone(), preds.clone())
                    }
                    _ => {
                        return Err(ArchError::Unsupported(format!(
                            "value path {e:?} is not translatable"
                        )))
                    }
                };
                let spec = self.archis.relation(&parent_var.relation)?.clone();
                if attr == spec.key {
                    // The key column lives on whichever table the parent
                    // variable already ranges over — no extra join.
                    return Ok(Operand {
                        sql: format!("{}.{}", parent_var.alias, spec.key),
                        time_col: None,
                        date: None,
                    });
                }
                if spec.is_composite_col(&attr) {
                    // Composite natural-key columns live on the key table
                    // (paper §5.1), i.e. on the tuple variable's alias.
                    if parent_var.kind != VarKind::Tuple {
                        return Err(ArchError::Unsupported(format!(
                            "composite key column {attr} through an attribute variable"
                        )));
                    }
                    return Ok(Operand {
                        sql: format!("{}.{attr}", parent_var.alias),
                        time_col: None,
                        date: None,
                    });
                }
                let v = self.join_attribute(ctx, &spec, &parent_var, &attr)?;
                for p in &preds {
                    self.predicate_to_sql(ctx, &v, p)?;
                }
                Ok(Operand {
                    sql: format!("{}.{attr}", v.alias),
                    time_col: None,
                    date: None,
                })
            }
            Expr::Arith(op, l, r) => {
                let ls = self.value_operand(ctx, ctx_var, l)?;
                let rs = self.value_operand(ctx, ctx_var, r)?;
                let sym = match op {
                    xquery::ast::ArithOp::Add => "+",
                    xquery::ast::ArithOp::Sub => "-",
                    xquery::ast::ArithOp::Mul => "*",
                    xquery::ast::ArithOp::Div => "/",
                    xquery::ast::ArithOp::Mod => {
                        return Err(ArchError::Unsupported("mod in SQL output".into()))
                    }
                };
                Ok(Operand {
                    sql: format!("({} {} {})", ls.sql, sym, rs.sql),
                    time_col: None,
                    date: None,
                })
            }
            other => Err(ArchError::Unsupported(format!(
                "operand {other:?} is not translatable"
            ))),
        }
    }

    /// The variable an accessor argument refers to (`.` or `$x`).
    fn var_of(&self, ctx: &Ctx, ctx_var: Option<&VarInfo>, e: &Expr) -> Result<VarInfo> {
        match e {
            Expr::ContextItem => ctx_var
                .cloned()
                .ok_or_else(|| ArchError::Unsupported("'.' outside a predicate".into())),
            Expr::Var(name) => ctx
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| ArchError::Unsupported(format!("unbound ${name}"))),
            other => Err(ArchError::Unsupported(format!(
                "accessor argument {other:?}"
            ))),
        }
    }

    /// Step 5 for aggregate mode: a scalar output expression.
    fn scalar_output(&self, ctx: &mut Ctx, ret: &Expr) -> Result<String> {
        Ok(self.value_operand(ctx, None, ret)?.sql)
    }

    /// Step 5 for XML modes: an XMLElement expression for the return
    /// clause.
    fn xml_output(&self, ctx: &mut Ctx, ret: &Expr) -> Result<String> {
        match ret {
            Expr::Var(_) | Expr::Path { .. } => {
                // An attribute (or tuple-key) element with its period.
                self.attr_element(ctx, ret)
            }
            Expr::ElementCtor { name, content } => {
                let mut parts = vec![format!("Name \"{name}\"")];
                if let Some(c) = content {
                    for item in sequence_items(c) {
                        parts.push(self.xml_output(ctx, &item)?);
                    }
                }
                Ok(format!("XMLElement({})", parts.join(", ")))
            }
            Expr::DirectCtor {
                name,
                attrs,
                content,
            } => {
                let mut parts = vec![format!("Name \"{name}\"")];
                if !attrs.is_empty() {
                    let mut attr_parts = Vec::new();
                    for (aname, aparts) in attrs {
                        let [xquery::ast::AttrPart::Text(t)] = aparts.as_slice() else {
                            return Err(ArchError::Unsupported(
                                "computed attributes in direct constructors".into(),
                            ));
                        };
                        attr_parts.push(format!("'{}' as \"{aname}\"", t.replace('\'', "''")));
                    }
                    parts.push(format!("XMLAttributes({})", attr_parts.join(", ")));
                }
                for item in content {
                    match item {
                        DirectContent::Text(t) => {
                            parts.push(format!("'{}'", t.replace('\'', "''")))
                        }
                        DirectContent::Expr(e) => {
                            for sub in sequence_items(e) {
                                parts.push(self.xml_output(ctx, &sub)?);
                            }
                        }
                        DirectContent::Child(e) => parts.push(self.xml_output(ctx, e)?),
                    }
                }
                Ok(format!("XMLElement({})", parts.join(", ")))
            }
            Expr::Call(f, args) if f == "overlapinterval" && args.len() == 2 => {
                let a = self.interval_operand(ctx, None, &args[0])?;
                let b = self.interval_operand(ctx, None, &args[1])?;
                Ok(format!(
                    "XMLElement(Name \"interval\", XMLAttributes(\
                     overlapstart({a0}, {a1}, {b0}, {b1}) as \"tstart\", \
                     overlapend({a0}, {a1}, {b0}, {b1}) as \"tend\"))",
                    a0 = a.0,
                    a1 = a.1,
                    b0 = b.0,
                    b1 = b.1
                ))
            }
            Expr::Call(f, args) if (f == "string" || f == "number") && args.len() == 1 => {
                // Scalar content inside an element.
                Ok(self.value_operand(ctx, None, &args[0])?.sql)
            }
            // Presentation forms of *now* (paper §4.3): rewrite the tend
            // attribute through the corresponding SQL UDF.
            Expr::Call(f, args) if (f == "rtend" || f == "externalnow") && args.len() == 1 => {
                let inner = self.attr_element(ctx, &args[0])?;
                // attr_element emits `<alias>.tend as "tend"`; route it
                // through the UDF instead.
                let rewritten = rewrite_tend_through_udf(&inner, f);
                Ok(rewritten)
            }
            Expr::StrLit(s) => Ok(format!("'{}'", s.replace('\'', "''"))),
            Expr::IntLit(i) => Ok(i.to_string()),
            other => Err(ArchError::Unsupported(format!(
                "return expression {other:?} is not translatable"
            ))),
        }
    }

    /// An `XMLElement(Name attr, XMLAttributes(tstart, tend), value)` for a
    /// variable or variable path.
    fn attr_element(&self, ctx: &mut Ctx, e: &Expr) -> Result<String> {
        // Resolve to a VarInfo (joining if it's a fresh path).
        let v: VarInfo = match e {
            Expr::Var(name) => ctx
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| ArchError::Unsupported(format!("unbound ${name}")))?,
            Expr::Path { base, steps } => {
                if let (Expr::Var(parent), [(Step::Child(attr), preds)]) =
                    (&**base, steps.as_slice())
                {
                    let parent_var = ctx
                        .vars
                        .get(parent)
                        .cloned()
                        .ok_or_else(|| ArchError::Unsupported(format!("unbound ${parent}")))?;
                    let spec = self.archis.relation(&parent_var.relation)?.clone();
                    if *attr == spec.key {
                        // `$e/id`: the key element carries the tuple period.
                        return Ok(format!(
                            "XMLElement(Name \"{key}\", XMLAttributes({a}.tstart as \"tstart\", \
                             {a}.tend as \"tend\"), {a}.{key})",
                            key = spec.key,
                            a = parent_var.alias
                        ));
                    }
                    let v = self.join_attribute(ctx, &spec, &parent_var, attr)?;
                    for p in preds {
                        self.predicate_to_sql(ctx, &v, p)?;
                    }
                    v
                } else {
                    return Err(ArchError::Unsupported(format!(
                        "return path {e:?} is not translatable"
                    )));
                }
            }
            _ => unreachable!("caller matched Var/Path"),
        };
        match &v.kind {
            VarKind::Attr(attr) => Ok(format!(
                "XMLElement(Name \"{attr}\", XMLAttributes({a}.tstart as \"tstart\", \
                 {a}.tend as \"tend\"), {a}.{attr})",
                a = v.alias
            )),
            VarKind::Tuple => {
                let spec = self.archis.relation(&v.relation)?;
                Ok(format!(
                    "XMLElement(Name \"{key}\", XMLAttributes({a}.tstart as \"tstart\", \
                     {a}.tend as \"tend\"), {a}.{key})",
                    key = spec.key,
                    a = v.alias
                ))
            }
        }
    }

    /// §6.3: rewrite snapshot / slicing queries with `segno` restrictions.
    ///
    /// Aliases that get *no* time restriction receive the **canonical-row
    /// condition** instead: segment archival stores a still-open tuple in
    /// every segment it was live in, so without it history queries would
    /// double-count. A row is canonical iff it is closed (its closed copy
    /// exists in exactly one segment) or it sits in the live segment (the
    /// only place open periods are unique).
    fn add_segment_conditions(&self, ctx: &mut Ctx, distinct: bool) -> Result<()> {
        // Collapse bounds per alias.
        let mut per_alias: std::collections::HashMap<String, (Option<Date>, Option<Date>)> =
            std::collections::HashMap::new();
        for (alias, b) in &ctx.bounds {
            let entry = per_alias.entry(alias.clone()).or_default();
            match b {
                // tstart <= D: the window cannot start after D.
                TimeBound::StartLe(d) => entry.1 = Some(entry.1.map_or(*d, |x: Date| x.min(*d))),
                // tend >= D: the window cannot end before D.
                TimeBound::EndGe(d) => entry.0 = Some(entry.0.map_or(*d, |x: Date| x.max(*d))),
                TimeBound::Overlaps(d1, d2) => {
                    entry.0 = Some(entry.0.map_or(*d1, |x: Date| x.max(*d1)));
                    entry.1 = Some(entry.1.map_or(*d2, |x: Date| x.min(*d2)));
                }
            }
        }
        let mut restricted: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (alias, (lo, hi)) in per_alias {
            let (Some(lo), Some(hi)) = (lo, hi) else {
                continue;
            };
            if hi < lo {
                continue;
            }
            let Some((relation, Some(attr))) = ctx.alias_tables.get(&alias).cloned() else {
                continue;
            };
            let segs = self.archis.segments_of(&relation, &attr)?;
            let archived: Vec<&SegmentInfo> =
                segs.iter().filter(|s| s.segno != LIVE_SEGNO).collect();
            if archived.is_empty() {
                continue; // unsegmented table — nothing to restrict
            }
            // Statistics-based pruning: a segment's *interval* only says
            // the window may overlap; the stats catalog records the actual
            // tstart/tend extremes of the rows stored there. Segments whose
            // stats prove no row can match (`tsmin > hi` or `temax < lo`)
            // are dropped before any I/O. The extremes are maintained
            // exactly (recomputed at archival, absorbed on row moves), so
            // the rewrite is loss-free.
            let stats = self.archis.segment_stats(&relation, &attr)?;
            let covering: Vec<i64> = archived
                .iter()
                .filter(|s| s.start <= hi && s.end >= lo)
                .map(|s| s.segno)
                .filter(|segno| {
                    stats
                        .iter()
                        .find(|s| s.segno == *segno)
                        .is_none_or(|s| s.overlap_fraction(lo, hi) > 0.0)
                })
                .collect();
            let live_start = segs.last().map(|s| s.start).unwrap_or(END_OF_TIME);
            let needs_live = hi >= live_start;
            match (covering.as_slice(), needs_live) {
                ([], true) => {
                    ctx.conds.push(format!("{alias}.segno = {LIVE_SEGNO}"));
                    restricted.insert(alias.clone());
                }
                ([], false) => {
                    // The window precedes all data; restrict to an
                    // impossible segment so the scan is empty-fast.
                    ctx.conds.push(format!("{alias}.segno = -1"));
                    restricted.insert(alias.clone());
                }
                ([one], false) => {
                    ctx.conds.push(format!("{alias}.segno = {one}"));
                    restricted.insert(alias.clone());
                }
                (many, false) if distinct => {
                    let lo_s = many.first().unwrap();
                    let hi_s = many.last().unwrap();
                    ctx.conds.push(format!(
                        "{alias}.segno >= {lo_s} and {alias}.segno <= {hi_s}"
                    ));
                    restricted.insert(alias.clone());
                }
                (many, true) if distinct => {
                    let lo_s = many.first().unwrap();
                    ctx.conds.push(format!(
                        "({alias}.segno >= {lo_s} or {alias}.segno = {LIVE_SEGNO})"
                    ));
                    restricted.insert(alias.clone());
                }
                _ => {
                    // Multi-segment without a duplicate-insensitive
                    // aggregate: duplicates across segments would be
                    // observable, so fall through to the canonical-row
                    // condition below (correctness first; the paper's
                    // slicing benchmarks count distinct employees).
                }
            }
        }
        // Canonical-row condition for every other attribute alias.
        for (alias, (_, attr)) in &ctx.alias_tables {
            if attr.is_some() && !restricted.contains(alias) {
                ctx.conds.push(format!(
                    "({alias}.tend != '{END_OF_TIME}' or {alias}.segno = {LIVE_SEGNO})",
                    END_OF_TIME = END_OF_TIME
                ));
            }
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Operand {
    sql: String,
    /// `(alias, "tstart"|"tend")` when this operand is a period column.
    time_col: Option<(String, String)>,
    /// The date value when this operand is a date literal.
    date: Option<Date>,
}

enum OutputMode {
    Rows,
    WrappedElement { name: String },
    Aggregate { func: String, distinct: bool },
}

fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "max" | "min")
}

fn normalize_agg(name: &str) -> String {
    name.to_string()
}

fn is_interval_pred(name: &str) -> bool {
    matches!(
        name,
        "toverlaps" | "tcontains" | "tequals" | "tmeets" | "tprecedes"
    )
}

fn cmp_sql(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn date_literal(e: &Expr) -> Result<Date> {
    match e {
        Expr::StrLit(s) => {
            Date::parse(s).map_err(|err| ArchError::Unsupported(format!("bad date: {err}")))
        }
        Expr::Call(f, args) if (f == "xs:date" || f == "date") && args.len() == 1 => {
            date_literal(&args[0])
        }
        other => Err(ArchError::Unsupported(format!(
            "expected a date literal, got {other:?}"
        ))),
    }
}

/// Rewrite the `X.tend as "tend"` attribute of an XMLElement string to go
/// through the `rtend`/`externalnow` UDF.
fn rewrite_tend_through_udf(xml_element_sql: &str, udf: &str) -> String {
    // The tend attribute emitted by attr_element is `<alias>.tend as "tend"`.
    if let Some(pos) = xml_element_sql.find(".tend as \"tend\"") {
        // Find the alias start (the preceding delimiter).
        let head = &xml_element_sql[..pos];
        let alias_start = head
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map(|i| i + 1)
            .unwrap_or(0);
        let alias = &head[alias_start..];
        xml_element_sql.replace(
            &format!("{alias}.tend as \"tend\""),
            &format!("{udf}({alias}.tend) as \"tend\""),
        )
    } else {
        xml_element_sql.to_string()
    }
}

fn sequence_items(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Seq(items) => items.clone(),
        other => vec![other.clone()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ArchConfig, RelationSpec};
    use relstore::value::Value;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    /// ArchIS with Bob + Alice loaded (paper Table 1 shape).
    fn archis() -> ArchIS {
        let mut a = ArchIS::new(ArchConfig::default());
        a.create_relation(RelationSpec::employee()).unwrap();
        a.insert(
            "employee",
            1001,
            vec![
                ("name".into(), Value::Str("Bob".into())),
                ("salary".into(), Value::Int(60000)),
                ("title".into(), Value::Str("Engineer".into())),
                ("deptno".into(), Value::Str("d01".into())),
            ],
            d("1995-01-01"),
        )
        .unwrap();
        a.update(
            "employee",
            1001,
            vec![("salary".into(), Value::Int(70000))],
            d("1995-06-01"),
        )
        .unwrap();
        a.update(
            "employee",
            1001,
            vec![
                ("title".into(), Value::Str("Sr Engineer".into())),
                ("deptno".into(), Value::Str("d02".into())),
            ],
            d("1995-10-01"),
        )
        .unwrap();
        a.insert(
            "employee",
            1002,
            vec![
                ("name".into(), Value::Str("Alice".into())),
                ("salary".into(), Value::Int(80000)),
                ("title".into(), Value::Str("Manager".into())),
                ("deptno".into(), Value::Str("d01".into())),
            ],
            d("1994-03-01"),
        )
        .unwrap();
        a
    }

    #[test]
    fn translates_paper_query1_shape() {
        let a = archis();
        let sql = a
            .translate(
                r#"element title_history {
                    for $t in doc("employees.xml")/employees/employee[name="Bob"]/title
                    return $t }"#,
            )
            .unwrap();
        assert!(sql.contains("XMLElement(Name \"title_history\""), "{sql}");
        assert!(sql.contains("XMLAgg("), "{sql}");
        assert!(sql.contains("employee_title"), "{sql}");
        assert!(sql.contains("employee_name"), "{sql}");
        // Step 2: the id join.
        assert!(sql.contains(".id = "), "{sql}");
        // Executes and produces the grouped history.
        let out = a.execute_sql(&sql).unwrap();
        let xml = out.xml_fragments().join("");
        assert!(xml.starts_with("<title_history>"), "{xml}");
        assert!(
            xml.contains(">Engineer<") && xml.contains(">Sr Engineer<"),
            "{xml}"
        );
        assert!(!xml.contains("Manager"), "{xml}");
    }

    #[test]
    fn translated_query1_matches_native_xquery() {
        let a = archis();
        // Native evaluation over the published H-document.
        let doc = a.publish("employee").unwrap();
        let mut resolver = xquery::MapResolver::new();
        resolver.insert("employees.xml", doc);
        let engine = xquery::Engine::new(resolver);
        let q = r#"for $t in doc("employees.xml")/employees/employee[name="Bob"]/title
                   return $t"#;
        let native = engine.eval_to_xml(q).unwrap().replace('\n', "");
        let translated = a.query(q).unwrap().xml_fragments().join("");
        assert_eq!(native, translated);
    }

    #[test]
    fn translates_snapshot_predicates_to_columns() {
        let a = archis();
        let sql = a
            .translate(
                r#"for $s in doc("employees.xml")/employees/employee/salary
                       [tstart(.) <= xs:date("1995-03-01") and tend(.) >= xs:date("1995-03-01")]
                   return $s"#,
            )
            .unwrap();
        assert!(sql.contains(".tstart <= '1995-03-01'"), "{sql}");
        assert!(sql.contains(".tend >= '1995-03-01'"), "{sql}");
        let out = a.execute_sql(&sql).unwrap().xml_fragments().join("");
        assert!(out.contains("60000") && out.contains("80000"), "{out}");
        assert!(!out.contains("70000"), "{out}");
    }

    #[test]
    fn snapshot_gets_segment_restriction_after_archival() {
        let a = archis();
        a.force_archive("employee", d("1995-12-31")).unwrap();
        let sql = a
            .translate(
                r#"for $s in doc("employees.xml")/employees/employee/salary
                       [tstart(.) <= xs:date("1995-03-01") and tend(.) >= xs:date("1995-03-01")]
                   return $s"#,
            )
            .unwrap();
        assert!(
            sql.contains(".segno = 1"),
            "snapshot must hit segment 1: {sql}"
        );
        let out = a.execute_sql(&sql).unwrap().xml_fragments().join("");
        assert!(out.contains("60000") && out.contains("80000"), "{out}");
    }

    #[test]
    fn stats_prune_snapshot_into_dead_era() {
        // All history closed by 1995-12-31, archived into segment 1 whose
        // *interval* stretches to 1997-12-31. A snapshot inside the dead
        // era is interval-covered but statistics-pruned: no row in the
        // segment can match, so the translator emits the empty-fast
        // `segno = -1` restriction instead of scanning segment 1.
        let a = archis();
        a.delete("employee", 1001, d("1996-01-01")).unwrap();
        a.delete("employee", 1002, d("1996-01-01")).unwrap();
        a.force_archive("employee", d("1997-12-31")).unwrap();
        let q = r#"for $s in doc("employees.xml")/employees/employee/salary
                       [tstart(.) <= xs:date("1997-06-01") and tend(.) >= xs:date("1997-06-01")]
                   return $s"#;
        let sql = a.translate(q).unwrap();
        assert!(sql.contains(".segno = -1"), "stats must prune: {sql}");
        assert!(
            a.execute_sql(&sql).unwrap().xml_fragments().is_empty(),
            "nothing was alive in the dead era"
        );
        // The interval-only translation would have scanned segment 1 and
        // found the same nothing.
        let unpruned = sql.replace(".segno = -1", ".segno = 1");
        assert!(
            a.execute_sql(&unpruned).unwrap().xml_fragments().is_empty(),
            "same (empty) answer either way"
        );
    }

    #[test]
    fn snapshot_after_archive_window_goes_to_live() {
        let a = archis();
        a.force_archive("employee", d("1995-12-31")).unwrap();
        let sql = a
            .translate(
                r#"for $s in doc("employees.xml")/employees/employee/salary
                       [tstart(.) <= xs:date("1996-06-01") and tend(.) >= xs:date("1996-06-01")]
                   return $s"#,
            )
            .unwrap();
        assert!(sql.contains(&format!(".segno = {LIVE_SEGNO}")), "{sql}");
    }

    #[test]
    fn history_queries_get_canonical_condition() {
        let a = archis();
        let sql = a
            .translate(
                r#"count(for $s in doc("employees.xml")/employees/employee/salary return $s)"#,
            )
            .unwrap();
        assert!(sql.contains("9999-12-31"), "canonical-row condition: {sql}");
        let n = a.execute_sql(&sql).unwrap().scalar_rows().unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(n, 3, "Bob's two salary periods + Alice's one");
        // Stays correct after archival introduces duplicates.
        a.force_archive("employee", d("1995-12-31")).unwrap();
        let sql2 = a
            .translate(
                r#"count(for $s in doc("employees.xml")/employees/employee/salary return $s)"#,
            )
            .unwrap();
        let n2 = a.execute_sql(&sql2).unwrap().scalar_rows().unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(n2, 3, "duplicates across segments must not be counted");
    }

    #[test]
    fn slicing_with_distinct_count() {
        let a = archis();
        let q = r#"count(distinct-values(
            for $e in doc("employees.xml")/employees/employee
            for $s in $e/salary[. > 65000 and
                toverlaps(., telement(xs:date("1995-01-01"), xs:date("1996-01-01")))]
            return $e/id))"#;
        let sql = a.translate(q).unwrap();
        assert!(sql.contains("count(distinct"), "{sql}");
        assert!(sql.contains("toverlaps("), "{sql}");
        let n = a.execute_sql(&sql).unwrap().scalar_rows().unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(n, 2, "Bob (70000) and Alice (80000)");
    }

    #[test]
    fn temporal_join_with_tmeets() {
        let a = archis();
        let q = r#"max(for $e in doc("employees.xml")/employees/employee
                       for $s1 in $e/salary[toverlaps(., telement(xs:date("1995-01-01"), xs:date("1996-01-01")))]
                       for $s2 in $e/salary[tmeets($s1, .)]
                       return number($s2) - number($s1))"#;
        let sql = a.translate(q).unwrap();
        assert!(sql.contains("tmeets("), "{sql}");
        assert!(
            sql.contains("t3.tstart = t2.tend + 1"),
            "implied equality: {sql}"
        );
        let raise = a.execute_sql(&sql).unwrap().scalar_rows().unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(raise, 10000, "Bob's 60000 → 70000 raise");
    }

    #[test]
    fn since_query7_shape_translates() {
        let a = archis();
        let q = r#"for $e in doc("employees.xml")/employees/employee
                   let $m := $e/title[. = "Sr Engineer" and tend(.) = current-date()]
                   let $d := $e/deptno[. = "d02" and tcontains($m, .)]
                   where not(empty($d)) and not(empty($m))
                   return <employee>{$e/id}</employee>"#;
        let sql = a.translate(q).unwrap();
        assert!(sql.contains("tcontains("), "{sql}");
        assert!(
            sql.contains("= '9999-12-31'"),
            "current-date() comparison: {sql}"
        );
        let xml = a.execute_sql(&sql).unwrap().xml_fragments().join("");
        assert!(xml.contains("1001"), "Bob qualifies: {xml}");
        assert!(!xml.contains("1002"), "{xml}");
    }

    #[test]
    fn unsupported_shapes_report_cleanly() {
        let a = archis();
        for q in [
            "1 + 1",
            r#"doc("nope.xml")/x/y"#,
            r#"for $s in doc("employees.xml")//salary return $s"#,
            r#"declare function local:f($x) { $x }; local:f(1)"#,
            r#"for $e in doc("employees.xml")/wrong/employee return $e/name"#,
        ] {
            let err = a.translate(q).unwrap_err();
            assert!(
                matches!(err, ArchError::Unsupported(_) | ArchError::NotFound(_)),
                "query {q:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn order_by_translates_to_sql() {
        let a = archis();
        let q = r#"for $s in doc("employees.xml")/employees/employee/salary
                   order by $s descending
                   return $s"#;
        let sql = a.translate(q).unwrap();
        assert!(sql.contains("order by"), "{sql}");
        assert!(sql.contains("desc"), "{sql}");
        let out = a.execute_sql(&sql).unwrap().xml_fragments();
        let values: Vec<i64> = out
            .iter()
            .map(|f| {
                xmldom::parse(f)
                    .unwrap()
                    .text_content()
                    .parse::<i64>()
                    .unwrap()
            })
            .collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(values, sorted, "descending salary order");
        assert_eq!(values.len(), 3);
    }

    #[test]
    fn rtend_and_externalnow_in_output() {
        let a = archis();
        let q = r#"for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary
                   return externalnow($s)"#;
        let sql = a.translate(q).unwrap();
        assert!(sql.contains("externalnow("), "{sql}");
        let xml = a.execute_sql(&sql).unwrap().xml_fragments().join("");
        assert!(
            xml.contains("tend=\"now\""),
            "current period shown as now: {xml}"
        );
        assert!(
            xml.contains("tend=\"1995-05-31\""),
            "closed period untouched: {xml}"
        );

        let q2 = r#"for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary
                    return rtend($s)"#;
        let xml2 = a.query(q2).unwrap().xml_fragments().join("");
        assert!(
            xml2.contains("tend=\"2005-01-01\""),
            "now instantiated: {xml2}"
        );
        assert!(!xml2.contains("9999-12-31"), "{xml2}");
    }

    #[test]
    fn table_construct_bypasses_xml_output() {
        // Paper §5.3: a table(...) return produces relational rows.
        let a = archis();
        let q = r#"for $e in doc("employees.xml")/employees/employee
                   for $s in $e/salary
                   return table($e/id, $s)"#;
        let sql = a.translate(q).unwrap();
        assert!(!sql.contains("XMLElement"), "{sql}");
        let rows = a.query(q).unwrap().scalar_rows().unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn translation_is_fast() {
        // §7.1: "for each of the 6 example queries ... less than 0.1ms".
        // Generous CI bound: 2ms per translation in debug builds.
        let a = archis();
        let q = r#"for $s in doc("employees.xml")/employees/employee[id = 1001]/salary
                   return $s"#;
        let start = std::time::Instant::now();
        for _ in 0..100 {
            a.translate(q).unwrap();
        }
        let per = start.elapsed() / 100;
        assert!(per.as_millis() < 2, "translation took {per:?}");
    }
}
