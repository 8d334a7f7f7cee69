//! A Volcano-style iterator executor.
//!
//! Operators are plain `Iterator<Item = Result<Row>>` values that compose
//! into left-deep plans. The SQL/XML engine (crate `sqlxml`) builds these;
//! the paper's observation that the translated H-table queries "execute
//! very fast (in linear time) since every table is already sorted on its
//! `id` attribute" corresponds to [`SortMergeJoin`] here.

use crate::expr::{AggFunc, Expr, FnRegistry};
use crate::table::Table;
use crate::value::Value;
use crate::{Result, StoreError};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

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
    fns: Arc<FnRegistry>,
}

impl Filter {
    /// Keep rows where `pred` is true (NULL = drop).
    pub fn new(input: Executor, pred: Expr, fns: Arc<FnRegistry>) -> Self {
        Filter { input, pred, fns }
    }
}

impl Iterator for Filter {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        loop {
            match self.input.next()? {
                Err(e) => return Some(Err(e)),
                Ok(row) => match self.pred.eval_bool(&row, &self.fns) {
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
    fns: Arc<FnRegistry>,
}

impl Project {
    /// Each output row is `exprs` evaluated on the input row.
    pub fn new(input: Executor, exprs: Vec<Expr>, fns: Arc<FnRegistry>) -> Self {
        Project { input, exprs, fns }
    }
}

impl Iterator for Project {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        match self.input.next()? {
            Err(e) => Some(Err(e)),
            Ok(row) => {
                let out: Result<Row> = self.exprs.iter().map(|e| e.eval(&row, &self.fns)).collect();
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
    pub fn new(input: Executor, keys: Vec<(Expr, bool)>, fns: Arc<FnRegistry>) -> Self {
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
                    match e.eval(&row, &fns) {
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
    fns: Arc<FnRegistry>,
    li: usize,
    ri: usize,
    err: Option<StoreError>,
}

impl NestedLoopJoin {
    /// Join two inputs on `cond` (evaluated on concatenated rows).
    pub fn new(left: Executor, right: Executor, cond: Expr, fns: Arc<FnRegistry>) -> Self {
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
            fns,
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
                match self.cond.eval_bool(&row, &self.fns) {
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

/// Sort-merge equi-join on one key column per side.
///
/// This is the paper's fast path: H-tables are stored sorted (clustered) on
/// `id`, so the ubiquitous `N.id = T.id` joins merge in linear time.
pub struct SortMergeJoin {
    output: std::vec::IntoIter<Row>,
    err: Option<StoreError>,
}

impl SortMergeJoin {
    /// Join on `left[lkey] == right[rkey]`. Inputs need not be pre-sorted;
    /// they are sorted here (already-ordered inputs sort in near-linear
    /// time under the stdlib's adaptive merge sort).
    pub fn new(left: Executor, right: Executor, lkey: usize, rkey: usize) -> Self {
        let mut err = None;
        let mut collect = |it: Executor| -> Vec<Row> {
            let mut v = Vec::new();
            for r in it {
                match r {
                    Ok(row) => v.push(row),
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            v
        };
        // An empty right input joins to nothing, so the left one is never
        // read: a fully pruned scan on the right costs no left scan.
        let mut right = collect(right);
        let mut left = if right.is_empty() {
            Vec::new()
        } else {
            collect(left)
        };
        if let Some(e) = err {
            return SortMergeJoin {
                output: Vec::new().into_iter(),
                err: Some(e),
            };
        }
        left.sort_by(|a, b| a[lkey].total_cmp(&b[lkey]));
        right.sort_by(|a, b| a[rkey].total_cmp(&b[rkey]));
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < left.len() && j < right.len() {
            match left[i][lkey].total_cmp(&right[j][rkey]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    // NULL keys never join.
                    if left[i][lkey].is_null() {
                        i += 1;
                        continue;
                    }
                    // Emit the cross product of the equal groups.
                    let je = {
                        let mut je = j;
                        while je < right.len()
                            && right[je][rkey].total_cmp(&left[i][lkey]) == Ordering::Equal
                        {
                            je += 1;
                        }
                        je
                    };
                    let ie = {
                        let mut ie = i;
                        while ie < left.len()
                            && left[ie][lkey].total_cmp(&right[j][rkey]) == Ordering::Equal
                        {
                            ie += 1;
                        }
                        ie
                    };
                    for l in &left[i..ie] {
                        for r in &right[j..je] {
                            let mut row = l.clone();
                            row.extend(r.iter().cloned());
                            out.push(row);
                        }
                    }
                    i = ie;
                    j = je;
                }
            }
        }
        SortMergeJoin {
            output: out.into_iter(),
            err: None,
        }
    }
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

/// Hash group-by with the standard SQL aggregates.
///
/// Output rows are `group keys ++ aggregate values`, grouped in first-seen
/// order. With no group keys, a single global row is produced (even on
/// empty input, matching SQL semantics).
pub struct GroupAggregate {
    output: std::vec::IntoIter<Row>,
    err: Option<StoreError>,
}

#[derive(Default, Clone)]
struct AggState {
    count: i64,
    sum: f64,
    saw_float: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl GroupAggregate {
    /// Group `input` by `group_exprs` and compute `aggs` per group.
    pub fn new(
        input: Executor,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggSpec>,
        fns: Arc<FnRegistry>,
    ) -> Self {
        let mut groups: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut err = None;
        'rows: for r in input {
            let row = match r {
                Ok(row) => row,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            };
            let mut key = Vec::with_capacity(group_exprs.len());
            for ge in &group_exprs {
                match ge.eval(&row, &fns) {
                    Ok(v) => key.push(v),
                    Err(e) => {
                        err = Some(e);
                        break 'rows;
                    }
                }
            }
            let fingerprint = format!("{key:?}");
            let gi = *index.entry(fingerprint).or_insert_with(|| {
                groups.push((key.clone(), vec![AggState::default(); aggs.len()]));
                groups.len() - 1
            });
            for (ai, spec) in aggs.iter().enumerate() {
                let state = &mut groups[gi].1[ai];
                let v = if spec.func == AggFunc::CountStar {
                    Value::Int(1)
                } else {
                    match spec.arg.eval(&row, &fns) {
                        Ok(v) => v,
                        Err(e) => {
                            err = Some(e);
                            break 'rows;
                        }
                    }
                };
                if v.is_null() {
                    continue;
                }
                state.count += 1;
                if let Some(f) = v.as_f64() {
                    state.sum += f;
                    state.saw_float |= matches!(v, Value::Double(_));
                }
                match &state.min {
                    Some(m) if m.total_cmp(&v) != Ordering::Greater => {}
                    _ => state.min = Some(v.clone()),
                }
                match &state.max {
                    Some(m) if m.total_cmp(&v) != Ordering::Less => {}
                    _ => state.max = Some(v.clone()),
                }
            }
        }
        if err.is_some() {
            return GroupAggregate {
                output: Vec::new().into_iter(),
                err,
            };
        }
        if groups.is_empty() && group_exprs.is_empty() {
            groups.push((Vec::new(), vec![AggState::default(); aggs.len()]));
        }
        let mut out = Vec::with_capacity(groups.len());
        for (key, states) in groups {
            let mut row = key;
            for (spec, st) in aggs.iter().zip(&states) {
                row.push(match spec.func {
                    AggFunc::Count | AggFunc::CountStar => Value::Int(st.count),
                    AggFunc::Sum => {
                        if st.count == 0 {
                            Value::Null
                        } else if st.saw_float {
                            Value::Double(st.sum)
                        } else {
                            Value::Int(st.sum as i64)
                        }
                    }
                    AggFunc::Avg => {
                        if st.count == 0 {
                            Value::Null
                        } else {
                            Value::Double(st.sum / st.count as f64)
                        }
                    }
                    AggFunc::Min => st.min.clone().unwrap_or(Value::Null),
                    AggFunc::Max => st.max.clone().unwrap_or(Value::Null),
                });
            }
            out.push(row);
        }
        GroupAggregate {
            output: out.into_iter(),
            err: None,
        }
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

    fn fns() -> Arc<FnRegistry> {
        Arc::new(FnRegistry::new())
    }

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
                fns(),
            )),
            vec![Expr::col(1)],
            fns(),
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
        let asc = Sort::new(boxed(input.clone()), vec![(Expr::col(0), true)], fns());
        let got: Vec<i64> = collect_rows(asc)
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![0, 1, 2]);
        let desc = Sort::new(boxed(input), vec![(Expr::col(0), false)], fns());
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
            fns(),
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
        let j = SortMergeJoin::new(boxed(left), boxed(right), 0, 0);
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
        let j = SortMergeJoin::new(boxed(left), boxed(right), 0, 0);
        assert_eq!(collect_rows(j).unwrap().len(), 1);
    }

    #[test]
    fn sort_merge_join_with_empty_right_never_pulls_left() {
        let left: Executor = Box::new(std::iter::from_fn(|| -> Option<RowResult> {
            panic!("left input pulled")
        }));
        let j = SortMergeJoin::new(left, boxed(Vec::new()), 0, 0);
        assert!(collect_rows(j).unwrap().is_empty());
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
        let g = GroupAggregate::new(boxed(input), vec![Expr::col(0)], aggs, fns());
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
        let g = GroupAggregate::new(boxed(vec![]), vec![], aggs, fns());
        let out = collect_rows(g).unwrap();
        assert_eq!(out, vec![vec![Value::Int(0), Value::Null]]);
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
