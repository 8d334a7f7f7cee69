//! A Volcano-style iterator executor.
//!
//! Operators are plain `Iterator<Item = Result<Row>>` values that compose
//! into left-deep plans. The SQL/XML engine (crate `sqlxml`) builds these;
//! the paper's observation that the translated H-table queries "execute
//! very fast (in linear time) since every table is already sorted on its
//! `id` attribute" corresponds to [`SortMergeJoin`] here. Expressions
//! arrive with their UDFs already bound, so operators evaluate them
//! without a function registry.

use crate::expr::{AggFunc, Expr};
use crate::table::Table;
use crate::value::Value;
use crate::{Result, StoreError};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;

/// A materialized row.
pub type Row = Vec<Value>;

/// The executor item type: rows or a propagated error.
pub type RowResult = Result<Row>;

/// Object-safe alias for a boxed operator.
pub type Executor = Box<dyn Iterator<Item = RowResult>>;

/// Full-table scan. Streams rows page-at-a-time through
/// [`Table::stream`], so downstream early termination (LIMIT, point
/// probes) stops pulling pages instead of paying full-table cost.
pub struct SeqScan {
    inner: Executor,
}

impl SeqScan {
    /// Scan all rows of `table`.
    pub fn new(table: &Table) -> Self {
        match table.stream() {
            Ok(stream) => SeqScan {
                inner: Box::new(stream),
            },
            Err(e) => SeqScan {
                inner: Box::new(std::iter::once(Err(e))),
            },
        }
    }

    /// Wrap pre-materialized rows (used by table functions and tests).
    pub fn from_rows(rows: Vec<Row>) -> Self {
        SeqScan {
            inner: Box::new(rows.into_iter().map(Ok)),
        }
    }
}

impl Iterator for SeqScan {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        self.inner.next()
    }
}

/// B+tree index range scan. Streams index entries leaf-by-leaf and fetches
/// rows on demand (see [`Table::index_range_stream`]).
pub struct IndexRangeScan {
    inner: Executor,
}

impl IndexRangeScan {
    /// Scan `table` through `index` for keys in `[lo, hi]` (value bounds;
    /// prefixes of composite keys are allowed).
    pub fn new(table: &Table, index: &str, lo: Bound<&[Value]>, hi: Bound<&[Value]>) -> Self {
        match table.index_range_stream(index, lo, hi) {
            Ok(stream) => IndexRangeScan {
                inner: Box::new(stream),
            },
            Err(e) => IndexRangeScan {
                inner: Box::new(std::iter::once(Err(e))),
            },
        }
    }
}

impl Iterator for IndexRangeScan {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        self.inner.next()
    }
}

/// Filter by a predicate expression.
pub struct Filter {
    input: Executor,
    pred: Expr,
}

impl Filter {
    /// Keep rows where `pred` is true (NULL = drop).
    pub fn new(input: Executor, pred: Expr) -> Self {
        Filter { input, pred }
    }
}

impl Iterator for Filter {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        loop {
            match self.input.next()? {
                Err(e) => return Some(Err(e)),
                Ok(row) => match self.pred.eval_bool(&row) {
                    Err(e) => return Some(Err(e)),
                    Ok(true) => return Some(Ok(row)),
                    Ok(false) => continue,
                },
            }
        }
    }
}

/// Compute output columns from expressions.
pub struct Project {
    input: Executor,
    exprs: Vec<Expr>,
}

impl Project {
    /// Each output row is `exprs` evaluated on the input row.
    pub fn new(input: Executor, exprs: Vec<Expr>) -> Self {
        Project { input, exprs }
    }
}

impl Iterator for Project {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        match self.input.next()? {
            Err(e) => Some(Err(e)),
            Ok(row) => {
                let out: Result<Row> = self.exprs.iter().map(|e| e.eval(&row)).collect();
                Some(out)
            }
        }
    }
}

/// Materializing sort.
pub struct Sort {
    sorted: std::vec::IntoIter<Row>,
    err: Option<StoreError>,
}

impl Sort {
    /// Sort by the given key expressions (ascending flags per key).
    pub fn new(input: Executor, keys: Vec<(Expr, bool)>) -> Self {
        let mut rows = Vec::new();
        let mut err = None;
        for r in input {
            match r {
                Ok(row) => rows.push(row),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        if err.is_none() {
            // Precompute keys, then sort.
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
            'outer: for row in rows {
                let mut kv = Vec::with_capacity(keys.len());
                for (e, _) in &keys {
                    match e.eval(&row) {
                        Ok(v) => kv.push(v),
                        Err(e) => {
                            err = Some(e);
                            break 'outer;
                        }
                    }
                }
                keyed.push((kv, row));
            }
            if err.is_none() {
                keyed.sort_by(|(a, _), (b, _)| {
                    for (i, (_, asc)) in keys.iter().enumerate() {
                        let ord = a[i].total_cmp(&b[i]);
                        let ord = if *asc { ord } else { ord.reverse() };
                        if ord != Ordering::Equal {
                            return ord;
                        }
                    }
                    Ordering::Equal
                });
                return Sort {
                    sorted: keyed
                        .into_iter()
                        .map(|(_, r)| r)
                        .collect::<Vec<_>>()
                        .into_iter(),
                    err: None,
                };
            }
        }
        Sort {
            sorted: Vec::new().into_iter(),
            err,
        }
    }
}

impl Iterator for Sort {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        if let Some(e) = self.err.take() {
            return Some(Err(e));
        }
        self.sorted.next().map(Ok)
    }
}

/// Row-count limit.
pub struct Limit {
    input: Executor,
    remaining: usize,
}

impl Limit {
    /// Pass through at most `n` rows.
    pub fn new(input: Executor, n: usize) -> Self {
        Limit {
            input,
            remaining: n,
        }
    }
}

impl Iterator for Limit {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.input.next()
    }
}

/// Nested-loop join with an arbitrary condition (the fallback join).
/// The condition sees the concatenated `left ++ right` row.
pub struct NestedLoopJoin {
    left: Vec<Row>,
    right: Vec<Row>,
    cond: Expr,
    li: usize,
    ri: usize,
    err: Option<StoreError>,
}

impl NestedLoopJoin {
    /// Join two inputs on `cond` (evaluated on concatenated rows).
    pub fn new(left: Executor, right: Executor, cond: Expr) -> Self {
        let mut err = None;
        let collect = |it: Executor, err: &mut Option<StoreError>| -> Vec<Row> {
            let mut v = Vec::new();
            for r in it {
                match r {
                    Ok(row) => v.push(row),
                    Err(e) => {
                        *err = Some(e);
                        break;
                    }
                }
            }
            v
        };
        let left = collect(left, &mut err);
        let right = collect(right, &mut err);
        NestedLoopJoin {
            left,
            right,
            cond,
            li: 0,
            ri: 0,
            err,
        }
    }
}

impl Iterator for NestedLoopJoin {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        if let Some(e) = self.err.take() {
            return Some(Err(e));
        }
        while self.li < self.left.len() {
            while self.ri < self.right.len() {
                let mut row = self.left[self.li].clone();
                row.extend(self.right[self.ri].clone());
                self.ri += 1;
                match self.cond.eval_bool(&row) {
                    Err(e) => return Some(Err(e)),
                    Ok(true) => return Some(Ok(row)),
                    Ok(false) => continue,
                }
            }
            self.ri = 0;
            self.li += 1;
        }
        None
    }
}

/// Sort-merge equi-join on a composite key.
///
/// This is the paper's fast path: H-tables are stored sorted (clustered) on
/// `id`, so the ubiquitous `N.id = T.id` joins merge in linear time. The
/// key is a vector — every equality connecting the two inputs, e.g.
/// `(t2.id, t2.tend + 1) = (t3.id, t3.tstart)` for the adjacent-period
/// (`tmeets`) join — so rows pair only when all components match instead
/// of pairing on `id` and filtering the product afterwards.
pub struct SortMergeJoin {
    output: std::vec::IntoIter<Row>,
    err: Option<StoreError>,
}

/// Rows tagged with their evaluated join key.
type Keyed = Vec<(Vec<Value>, Row)>;

impl SortMergeJoin {
    /// Join where `lkeys` evaluated on the left row equal `rkeys` on the
    /// right row, component by component (the two lists have the same
    /// length). A NULL component never joins. Inputs need not be
    /// pre-sorted; they are sorted here (already-ordered inputs sort in
    /// near-linear time under the stdlib's adaptive merge sort). Output
    /// rows are `left ++ right`.
    pub fn new(left: Executor, right: Executor, lkeys: Vec<Expr>, rkeys: Vec<Expr>) -> Self {
        match Self::merge(left, right, &lkeys, &rkeys) {
            Ok(rows) => SortMergeJoin {
                output: rows.into_iter(),
                err: None,
            },
            Err(e) => SortMergeJoin {
                output: Vec::new().into_iter(),
                err: Some(e),
            },
        }
    }

    fn merge(left: Executor, right: Executor, lkeys: &[Expr], rkeys: &[Expr]) -> Result<Vec<Row>> {
        // An empty right input joins to nothing, so the left one is never
        // read: a fully pruned scan on the right costs no left scan.
        let right = sorted_by_key(right, rkeys)?;
        if right.is_empty() {
            return Ok(Vec::new());
        }
        let left = sorted_by_key(left, lkeys)?;
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < left.len() && j < right.len() {
            match cmp_keys(&left[i].0, &right[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    // Emit the cross product of the equal groups.
                    let same = |k: &Vec<Value>| cmp_keys(k, &left[i].0) == Ordering::Equal;
                    let ie = i + left[i..].iter().take_while(|(k, _)| same(k)).count();
                    let je = j + right[j..].iter().take_while(|(k, _)| same(k)).count();
                    for (_, l) in &left[i..ie] {
                        for (_, r) in &right[j..je] {
                            let mut row = Vec::with_capacity(l.len() + r.len());
                            row.extend_from_slice(l);
                            row.extend_from_slice(r);
                            out.push(row);
                        }
                    }
                    i = ie;
                    j = je;
                }
            }
        }
        Ok(out)
    }
}

/// Drain `input`, evaluate `keys` on every row, drop rows with a NULL key
/// component (they can never join) and sort the rest by key — stably, so
/// equal keys keep input order.
fn sorted_by_key(input: Executor, keys: &[Expr]) -> Result<Keyed> {
    let mut out = Vec::new();
    for row in input {
        let row = row?;
        let key = keys
            .iter()
            .map(|k| k.eval(&row))
            .collect::<Result<Vec<_>>>()?;
        if !key.iter().any(Value::is_null) {
            out.push((key, row));
        }
    }
    out.sort_by(|(a, _), (b, _)| cmp_keys(a, b));
    Ok(out)
}

/// Lexicographic [`Value::total_cmp`] over two keys of equal length.
fn cmp_keys(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| *o != Ordering::Equal)
        .unwrap_or(Ordering::Equal)
}

impl Iterator for SortMergeJoin {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        if let Some(e) = self.err.take() {
            return Some(Err(e));
        }
        self.output.next().map(Ok)
    }
}

/// One aggregate to compute: function plus argument expression.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Its argument (ignored for `CountStar`).
    pub arg: Expr,
}

/// The running state of one aggregate: the single fold behind
/// [`GroupAggregate`] and the SQL/XML engine's select-list aggregates.
///
/// NULL inputs are skipped. For `AGG(DISTINCT ...)` the inputs are kept
/// and deduplicated by [`Accumulator::finish`] in O(n log n), then folded
/// in first-seen order — so a float `SUM`/`AVG(DISTINCT)` adds in the same
/// order as a fold that checked each value against every one kept so far.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    /// `Some` for `DISTINCT`: the non-NULL inputs, in arrival order.
    distinct: Option<Vec<Value>>,
    count: i64,
    sum: f64,
    saw_float: bool,
    /// The running MIN or MAX (only for those functions).
    extreme: Option<Value>,
}

impl Accumulator {
    /// An empty fold of `func`, deduplicating its inputs if `distinct`.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        Accumulator {
            func,
            distinct: distinct.then(Vec::new),
            count: 0,
            sum: 0.0,
            saw_float: false,
            extreme: None,
        }
    }

    /// Fold one input row: `arg` evaluated on `row`, or just the row
    /// itself for `COUNT(*)`.
    pub fn update(&mut self, arg: &Expr, row: &[Value]) -> Result<()> {
        let v = if self.func == AggFunc::CountStar {
            Value::Int(1)
        } else {
            arg.eval(row)?
        };
        if v.is_null() {
            return Ok(());
        }
        match &mut self.distinct {
            Some(kept) => kept.push(v),
            None => self.fold(v),
        }
        Ok(())
    }

    fn fold(&mut self, v: Value) {
        self.count += 1;
        let keep = match self.func {
            AggFunc::Count | AggFunc::CountStar => return,
            AggFunc::Sum | AggFunc::Avg => {
                if let Some(f) = v.as_f64() {
                    self.sum += f;
                    self.saw_float |= matches!(v, Value::Double(_));
                }
                return;
            }
            AggFunc::Min => Ordering::Greater,
            AggFunc::Max => Ordering::Less,
        };
        // Replace the extreme unless it already wins (ties keep the first).
        if self
            .extreme
            .as_ref()
            .is_none_or(|m| m.total_cmp(&v) == keep)
        {
            self.extreme = Some(v);
        }
    }

    /// The aggregate's value (SQL semantics: COUNT of nothing is 0, every
    /// other aggregate of nothing is NULL).
    pub fn finish(mut self) -> Value {
        if let Some(values) = self.distinct.take() {
            for v in first_seen_distinct(values) {
                self.fold(v);
            }
        }
        match self.func {
            AggFunc::Count | AggFunc::CountStar => Value::Int(self.count),
            _ if self.count == 0 => Value::Null,
            AggFunc::Sum if self.saw_float => Value::Double(self.sum),
            AggFunc::Sum => Value::Int(self.sum as i64),
            AggFunc::Avg => Value::Double(self.sum / self.count as f64),
            AggFunc::Min | AggFunc::Max => self.extreme.unwrap_or(Value::Null),
        }
    }
}

/// `values` with later duplicates (equal under [`Value::total_cmp`])
/// removed, in first-seen order: a stable sort of the positions groups
/// equal values with the earliest first, in O(n log n).
fn first_seen_distinct(values: Vec<Value>) -> Vec<Value> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut first = vec![false; values.len()];
    for (k, &i) in order.iter().enumerate() {
        first[i] = k == 0 || values[order[k - 1]].total_cmp(&values[i]) != Ordering::Equal;
    }
    values
        .into_iter()
        .zip(first)
        .filter_map(|(v, keep)| keep.then_some(v))
        .collect()
}

/// Hash group-by with the standard SQL aggregates.
///
/// Output rows are `group keys ++ aggregate values`, grouped in first-seen
/// order. With no group keys, a single global row is produced (even on
/// empty input, matching SQL semantics) and rows are folded straight into
/// it.
pub struct GroupAggregate {
    output: std::vec::IntoIter<Row>,
    err: Option<StoreError>,
}

impl GroupAggregate {
    /// Group `input` by `group_exprs` and compute `aggs` per group.
    pub fn new(input: Executor, group_exprs: Vec<Expr>, aggs: Vec<AggSpec>) -> Self {
        match Self::fold(input, &group_exprs, &aggs) {
            Ok(rows) => GroupAggregate {
                output: rows.into_iter(),
                err: None,
            },
            Err(e) => GroupAggregate {
                output: Vec::new().into_iter(),
                err: Some(e),
            },
        }
    }

    fn fold(input: Executor, group_exprs: &[Expr], aggs: &[AggSpec]) -> Result<Vec<Row>> {
        let fresh = || -> Vec<Accumulator> {
            aggs.iter()
                .map(|a| Accumulator::new(a.func, false))
                .collect()
        };
        let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
        if group_exprs.is_empty() {
            groups.push((Vec::new(), fresh()));
        }
        let mut index: HashMap<String, usize> = HashMap::new();
        for row in input {
            let row = row?;
            let gi = if group_exprs.is_empty() {
                0
            } else {
                let key = group_exprs
                    .iter()
                    .map(|g| g.eval(&row))
                    .collect::<Result<Vec<_>>>()?;
                *index.entry(format!("{key:?}")).or_insert_with(|| {
                    groups.push((key, fresh()));
                    groups.len() - 1
                })
            };
            for (acc, spec) in groups[gi].1.iter_mut().zip(aggs) {
                acc.update(&spec.arg, &row)?;
            }
        }
        Ok(groups
            .into_iter()
            .map(|(mut row, accs)| {
                row.extend(accs.into_iter().map(Accumulator::finish));
                row
            })
            .collect())
    }
}

impl Iterator for GroupAggregate {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        if let Some(e) = self.err.take() {
            return Some(Err(e));
        }
        self.output.next().map(Ok)
    }
}

/// Build the scan executor for a planner-selected access path.
///
/// This is the execution half of [`crate::planner::choose_path`]: `Seq`
/// streams base storage, `Index` walks the named secondary index, and
/// `Cluster` range-scans the primary tree. Callers re-apply their full
/// predicate set on top (every path is a superset of the matching rows),
/// so a mis-estimated choice degrades speed, never results.
pub fn build_scan(
    table: &Table,
    kind: crate::planner::PathKind,
    index: Option<&str>,
    lo: Bound<&[Value]>,
    hi: Bound<&[Value]>,
) -> Result<Executor> {
    use crate::planner::PathKind;
    Ok(match kind {
        PathKind::Seq => Box::new(SeqScan::new(table)),
        PathKind::Cluster => Box::new(table.cluster_range_stream(lo, hi)?),
        PathKind::Index => {
            let name = index.ok_or_else(|| {
                StoreError::NotFound("index path chosen without an index name".into())
            })?;
            Box::new(IndexRangeScan::new(table, name, lo, hi))
        }
    })
}

/// Drain an executor into rows, surfacing the first error.
pub fn collect_rows(exec: impl Iterator<Item = RowResult>) -> Result<Vec<Row>> {
    exec.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, StorageKind};
    use crate::expr::BinOp;
    use crate::value::{DataType, Field, Schema};

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Str(format!("r{i}"))])
            .collect()
    }

    fn boxed(rows: Vec<Row>) -> Executor {
        Box::new(SeqScan::from_rows(rows))
    }

    #[test]
    fn filter_project_pipeline() {
        let plan = Project::new(
            Box::new(Filter::new(
                boxed(rows(10)),
                Expr::bin(BinOp::Ge, Expr::col(0), Expr::lit(Value::Int(7))),
            )),
            vec![Expr::col(1)],
        );
        let out = collect_rows(plan).unwrap();
        assert_eq!(
            out,
            vec![
                vec![Value::Str("r7".into())],
                vec![Value::Str("r8".into())],
                vec![Value::Str("r9".into())]
            ]
        );
    }

    #[test]
    fn sort_ascending_descending() {
        let input = vec![
            vec![Value::Int(2)],
            vec![Value::Int(0)],
            vec![Value::Int(1)],
        ];
        let asc = Sort::new(boxed(input.clone()), vec![(Expr::col(0), true)]);
        let got: Vec<i64> = collect_rows(asc)
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![0, 1, 2]);
        let desc = Sort::new(boxed(input), vec![(Expr::col(0), false)]);
        let got: Vec<i64> = collect_rows(desc)
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![2, 1, 0]);
    }

    #[test]
    fn limit_stops_early() {
        let out = collect_rows(Limit::new(boxed(rows(100)), 3)).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn nested_loop_join_arbitrary_condition() {
        let left = vec![vec![Value::Int(1)], vec![Value::Int(5)]];
        let right = vec![vec![Value::Int(3)], vec![Value::Int(7)]];
        // join where l.0 < r.0
        let j = NestedLoopJoin::new(
            boxed(left),
            boxed(right),
            Expr::bin(BinOp::Lt, Expr::col(0), Expr::col(1)),
        );
        let out = collect_rows(j).unwrap();
        assert_eq!(out.len(), 3); // (1,3) (1,7) (5,7)
    }

    #[test]
    fn sort_merge_join_with_duplicates() {
        let left = vec![
            vec![Value::Int(1), Value::Str("a".into())],
            vec![Value::Int(2), Value::Str("b".into())],
            vec![Value::Int(2), Value::Str("c".into())],
            vec![Value::Int(3), Value::Str("d".into())],
        ];
        let right = vec![
            vec![Value::Int(2), Value::Str("x".into())],
            vec![Value::Int(2), Value::Str("y".into())],
            vec![Value::Int(4), Value::Str("z".into())],
        ];
        let j = SortMergeJoin::new(
            boxed(left),
            boxed(right),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
        );
        let out = collect_rows(j).unwrap();
        assert_eq!(out.len(), 4, "2x2 cross product on key 2");
        for row in &out {
            assert_eq!(row[0], Value::Int(2));
            assert_eq!(row[2], Value::Int(2));
        }
    }

    #[test]
    fn sort_merge_join_null_keys_dropped() {
        let left = vec![vec![Value::Null], vec![Value::Int(1)]];
        let right = vec![vec![Value::Null], vec![Value::Int(1)]];
        let j = SortMergeJoin::new(
            boxed(left),
            boxed(right),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
        );
        assert_eq!(collect_rows(j).unwrap().len(), 1);
    }

    #[test]
    fn sort_merge_join_with_empty_right_never_pulls_left() {
        let left: Executor = Box::new(std::iter::from_fn(|| -> Option<RowResult> {
            panic!("left input pulled")
        }));
        let j = SortMergeJoin::new(
            left,
            boxed(Vec::new()),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
        );
        assert!(collect_rows(j).unwrap().is_empty());
    }

    /// `(id, a + 1) = (id, b)`: rows pair only when every component
    /// matches, a NULL in any component never joins, and duplicate key
    /// groups produce their full cross product.
    #[test]
    fn sort_merge_join_on_composite_keys() {
        let row = |id: i64, v: Option<i64>, tag: &str| {
            vec![
                Value::Int(id),
                v.map_or(Value::Null, Value::Int),
                Value::Str(tag.into()),
            ]
        };
        let left = vec![
            row(1, Some(10), "a"),
            row(1, Some(10), "b"),
            row(1, Some(20), "c"),
            row(2, Some(10), "d"),
            row(2, None, "e"),
            row(3, Some(5), "f"),
        ];
        let right = vec![
            row(1, Some(11), "x"),
            row(1, Some(11), "y"),
            row(1, Some(21), "z"),
            row(2, Some(12), "w"),
            row(2, None, "v"),
            row(3, Some(6), "u"),
        ];
        let lkeys = vec![
            Expr::col(0),
            Expr::bin(BinOp::Add, Expr::col(1), Expr::lit(Value::Int(1))),
        ];
        let rkeys = vec![Expr::col(0), Expr::col(1)];
        let j = SortMergeJoin::new(boxed(left), boxed(right), lkeys, rkeys);
        let pairs: Vec<String> = collect_rows(j)
            .unwrap()
            .iter()
            .map(|r| format!("{}{}", r[2], r[5]))
            .collect();
        assert_eq!(pairs, ["ax", "ay", "bx", "by", "cz", "fu"]);
    }

    #[test]
    fn group_aggregate_all_functions() {
        // Rows: (g, v) with NULL v mixed in.
        let input = vec![
            vec![Value::Str("a".into()), Value::Int(10)],
            vec![Value::Str("a".into()), Value::Int(20)],
            vec![Value::Str("a".into()), Value::Null],
            vec![Value::Str("b".into()), Value::Int(5)],
        ];
        let aggs = vec![
            AggSpec {
                func: AggFunc::Count,
                arg: Expr::col(1),
            },
            AggSpec {
                func: AggFunc::CountStar,
                arg: Expr::col(1),
            },
            AggSpec {
                func: AggFunc::Sum,
                arg: Expr::col(1),
            },
            AggSpec {
                func: AggFunc::Avg,
                arg: Expr::col(1),
            },
            AggSpec {
                func: AggFunc::Min,
                arg: Expr::col(1),
            },
            AggSpec {
                func: AggFunc::Max,
                arg: Expr::col(1),
            },
        ];
        let g = GroupAggregate::new(boxed(input), vec![Expr::col(0)], aggs);
        let out = collect_rows(g).unwrap();
        assert_eq!(out.len(), 2);
        let a = &out[0];
        assert_eq!(a[0], Value::Str("a".into()));
        assert_eq!(a[1], Value::Int(2), "COUNT skips NULL");
        assert_eq!(a[2], Value::Int(3), "COUNT(*) does not");
        assert_eq!(a[3], Value::Int(30));
        assert_eq!(a[4], Value::Double(15.0));
        assert_eq!(a[5], Value::Int(10));
        assert_eq!(a[6], Value::Int(20));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let aggs = vec![
            AggSpec {
                func: AggFunc::CountStar,
                arg: Expr::col(0),
            },
            AggSpec {
                func: AggFunc::Sum,
                arg: Expr::col(0),
            },
        ];
        let g = GroupAggregate::new(boxed(vec![]), vec![], aggs);
        let out = collect_rows(g).unwrap();
        assert_eq!(out, vec![vec![Value::Int(0), Value::Null]]);
    }

    fn fold(func: AggFunc, distinct: bool, values: &[Value]) -> Value {
        let mut acc = Accumulator::new(func, distinct);
        for v in values {
            acc.update(&Expr::col(0), std::slice::from_ref(v)).unwrap();
        }
        acc.finish()
    }

    /// The fold `AGG(DISTINCT)` used before [`Accumulator`]: keep each
    /// non-NULL value unless an equal one was kept already (O(n·d)), then
    /// aggregate the survivors in the order they were kept.
    fn fold_distinct_quadratic(func: AggFunc, values: &[Value]) -> Value {
        let mut seen: Vec<Value> = Vec::new();
        for v in values.iter().filter(|v| !v.is_null()) {
            if !seen.iter().any(|s| s.total_cmp(v) == Ordering::Equal) {
                seen.push(v.clone());
            }
        }
        fold(func, false, &seen)
    }

    #[test]
    fn accumulator_on_empty_and_null_only_input() {
        let nulls = [Value::Null, Value::Null];
        for input in [&[][..], &nulls[..]] {
            for distinct in [false, true] {
                assert_eq!(fold(AggFunc::Count, distinct, input), Value::Int(0));
                for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
                    assert_eq!(fold(func, distinct, input), Value::Null, "{func:?}");
                }
            }
        }
        assert_eq!(
            fold(AggFunc::CountStar, false, &nulls),
            Value::Int(2),
            "COUNT(*) counts rows"
        );
    }

    #[test]
    fn accumulator_skips_nulls() {
        let input = [Value::Int(4), Value::Null, Value::Int(2), Value::Null];
        assert_eq!(fold(AggFunc::Count, false, &input), Value::Int(2));
        assert_eq!(fold(AggFunc::Sum, false, &input), Value::Int(6));
        assert_eq!(fold(AggFunc::Avg, false, &input), Value::Double(3.0));
        assert_eq!(fold(AggFunc::Min, false, &input), Value::Int(2));
        assert_eq!(fold(AggFunc::Max, false, &input), Value::Int(4));
    }

    /// Float addition is not associative, so `SUM`/`AVG(DISTINCT)` are
    /// only reproducible if the distinct values are added in first-seen
    /// order: the sort-based dedupe must match the quadratic one bit for
    /// bit.
    #[test]
    fn distinct_float_sum_matches_first_seen_order() {
        let input: Vec<Value> = [1e16, 1.0, -1e16, 1.0, 3.5, 1e16, 2.25, 3.5, 1e-3]
            .into_iter()
            .map(Value::Double)
            .chain([Value::Null, Value::Int(7), Value::Double(7.0)])
            .collect();
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let got = fold(func, true, &input);
            let want = fold_distinct_quadratic(func, &input);
            match (&got, &want) {
                (Value::Double(a), Value::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{func:?}")
                }
                _ => assert_eq!(got, want, "{func:?}"),
            }
        }
        // Sorting first would sum 1e16 + (-1e16) before the small terms
        // and lose them; first-seen order keeps the old answer.
        let mut sorted = input.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_ne!(
            fold(AggFunc::Sum, true, &input),
            fold_distinct_quadratic(AggFunc::Sum, &sorted)
        );
    }

    #[test]
    fn scans_work_against_real_tables() {
        let db = Database::in_memory();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    Field::new("id", DataType::Int),
                    Field::new("v", DataType::Int),
                ]),
                StorageKind::Heap,
                &[],
            )
            .unwrap();
        t.create_index("by_id", &["id"]).unwrap();
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
        }
        let all = collect_rows(SeqScan::new(&t)).unwrap();
        assert_eq!(all.len(), 100);
        let lo = [Value::Int(10)];
        let hi = [Value::Int(12)];
        let some = collect_rows(IndexRangeScan::new(
            &t,
            "by_id",
            Bound::Included(&lo[..]),
            Bound::Included(&hi[..]),
        ))
        .unwrap();
        assert_eq!(some.len(), 3);
        // Unknown index surfaces as an error, not silence.
        let bad: Vec<_> = IndexRangeScan::new(&t, "nope", Bound::Unbounded, Bound::Unbounded)
            .collect::<Result<Vec<_>>>()
            .err()
            .into_iter()
            .collect();
        assert_eq!(bad.len(), 1);
    }
}
