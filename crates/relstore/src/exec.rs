//! A Volcano-style iterator executor.
//!
//! Operators are plain `Iterator<Item = Result<Row>>` values that compose
//! into left-deep plans; the SQL/XML engine (crate `sqlxml`) builds them.
//! Scans filter at the source: a table scan decodes each record into a
//! reused buffer and evaluates its pushed-down predicate there, so a row
//! the query throws away is never copied ([`keep`] is the one filter every
//! scan shares). The paper observes that the translated H-table queries
//! "execute very fast (in linear time)" because every join is on `id`;
//! here that is [`HashJoin`], which hashes its right input once and
//! streams its key-sorted left input through the table. Expressions
//! arrive with their UDFs already bound, so operators evaluate them
//! without a function registry.

use crate::expr::{AggFunc, Expr};
use crate::table::Table;
use crate::value::Value;
use crate::{Result, StoreError};
use std::cmp::Ordering;
use std::ops::Bound;

/// A materialized row.
pub type Row = Vec<Value>;

/// The executor item type: rows or a propagated error.
pub type RowResult = Result<Row>;

/// Object-safe alias for a boxed operator.
pub type Executor = Box<dyn Iterator<Item = RowResult>>;

/// The source filter every scan shares: `row` copied out when `pred`
/// accepts it (or there is no predicate), `None` when it rejects it (NULL
/// counts as false), the error when evaluation fails — never a silently
/// dropped row. Scans call this on their own decode buffer.
pub fn keep(pred: Option<&Expr>, row: &[Value]) -> Option<RowResult> {
    match pred.map_or(Ok(true), |p| p.eval_bool(row)) {
        Ok(true) => Some(Ok(row.to_vec())),
        Ok(false) => None,
        Err(e) => Some(Err(e)),
    }
}

/// Filter by a predicate expression (the engine's residual, multi-table
/// predicates; single-table ones are pushed into the scans).
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

/// `left ++ right` as one new row.
fn concat(left: &[Value], right: &[Value]) -> Row {
    let mut row = Vec::with_capacity(left.len() + right.len());
    row.extend_from_slice(left);
    row.extend_from_slice(right);
    row
}

/// Hash of a key tuple that agrees with [`Value::total_cmp`] equality:
/// keys that compare equal component by component hash alike. Numbers
/// hash by their `f64` value, so `Int(1)` and `Double(1.0)` collide as
/// they compare; NULL hashes as one constant. A multiply-rotate mix, not
/// SipHash: keys come from the store, not from an adversary.
fn hash_key(key: &[Value]) -> u64 {
    key.iter().fold(0, |h, v| match v {
        Value::Null => mix(h, 0),
        // `+ 0.0` folds `-0.0` onto `0.0`: they compare equal.
        Value::Int(i) => mix(mix(h, 1), (*i as f64 + 0.0).to_bits()),
        Value::Double(d) => mix(mix(h, 1), (d + 0.0).to_bits()),
        Value::Str(s) => mix_bytes(mix(h, 2), s.as_bytes()),
        Value::Date(d) => mix(mix(h, 3), d.day_number() as u64),
        Value::Blob(b) => mix_bytes(mix(h, 4), b),
    })
}

fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
    let chunks = bytes.chunks(8);
    let h = chunks.fold(h, |h, c| {
        mix(h, c.iter().fold(0u64, |w, &b| (w << 8) | u64::from(b)))
    });
    mix(h, bytes.len() as u64)
}

/// Lexicographic [`Value::total_cmp`] over two keys of equal length.
fn cmp_keys(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| *o != Ordering::Equal)
        .unwrap_or(Ordering::Equal)
}

/// End of a [`KeyIndex`] chain.
const NO_ENTRY: u32 = u32::MAX;

/// A chained hash table over key tuples. Keys are stored flat (`arity`
/// values per entry) with their hashes, so probing with a borrowed key
/// allocates nothing. Keys are equal when every component is equal under
/// [`Value::total_cmp`] — NULL equals NULL here; the join keeps NULL keys
/// out itself. [`HashJoin`]'s build side and the SQL/XML engine's
/// `GROUP BY` index.
pub struct KeyIndex {
    arity: usize,
    keys: Vec<Value>,
    hashes: Vec<u64>,
    /// Each entry's successor in its bucket's chain, newest entry first.
    next: Vec<u32>,
    heads: Vec<u32>,
    /// `64 - log2(buckets)`: buckets take the hash's well-mixed high bits.
    shift: u32,
}

impl KeyIndex {
    /// An empty index over keys of `arity` values.
    pub fn new(arity: usize) -> Self {
        KeyIndex {
            arity,
            keys: Vec::new(),
            hashes: Vec::new(),
            next: Vec::new(),
            heads: vec![NO_ENTRY; 16],
            shift: 60,
        }
    }

    fn key(&self, e: usize) -> &[Value] {
        let at = e * self.arity;
        self.keys.get(at..at + self.arity).unwrap_or_default()
    }

    /// Append an entry for `key` (duplicates allowed); returns its number.
    fn push(&mut self, key: &[Value]) -> usize {
        let e = self.hashes.len();
        self.keys.extend_from_slice(key);
        self.hashes.push(hash_key(key));
        self.next.push(NO_ENTRY);
        if e < self.heads.len() {
            self.link(e);
        } else {
            // Double the buckets and relink every entry in push order.
            self.heads = vec![NO_ENTRY; self.heads.len() * 2];
            self.shift -= 1;
            (0..=e).for_each(|e| self.link(e));
        }
        e
    }

    fn link(&mut self, e: usize) {
        let hash = self.hashes.get(e).copied().unwrap_or_default();
        let head = self.heads.get_mut((hash >> self.shift) as usize);
        if let (Some(head), Some(next)) = (head, self.next.get_mut(e)) {
            *next = std::mem::replace(head, e as u32);
        }
    }

    /// The entries whose key equals `key`, newest first.
    fn matches<'a>(&'a self, key: &'a [Value]) -> impl Iterator<Item = usize> + 'a {
        let hash = hash_key(key);
        let head = self.heads.get((hash >> self.shift) as usize).copied();
        std::iter::successors(head, |&e| self.next.get(e as usize).copied())
            .take_while(|&e| e != NO_ENTRY)
            .map(|e| e as usize)
            .filter(move |&e| {
                self.hashes.get(e) == Some(&hash) && cmp_keys(self.key(e), key).is_eq()
            })
    }

    /// The entry equal to `key`, or a new one for it: `(entry, whether it
    /// was added)`.
    pub fn find_or_push(&mut self, key: &[Value]) -> (usize, bool) {
        let found = self.matches(key).next();
        found.map_or_else(|| (self.push(key), true), |e| (e, false))
    }
}

/// Hash equi-join on a composite key.
///
/// Every equality connecting the two inputs is one key component — e.g.
/// `(t2.id, t2.tend + 1) = (t3.id, t3.tstart)` for the adjacent-period
/// (`tmeets`) join — so rows pair only when all components match. The
/// right input is drained into a [`KeyIndex`] (an empty right input joins
/// to nothing, so the left one is then never read); the left input is
/// sorted stably by key and streamed through it. Output rows are
/// `left ++ right` in key order, then left-input order, then right-input
/// order — the order a sort-merge join of the two inputs produces. A NULL
/// key component never joins. With no key components every pair joins:
/// the cross product, in left then right input order. The work starts at
/// the first `next()`.
pub struct HashJoin {
    state: JoinState,
}

enum JoinState {
    Pending {
        left: Executor,
        right: Executor,
        lkeys: Vec<Expr>,
        rkeys: Vec<Expr>,
    },
    Probing(Probe),
    Done,
}

/// A built join being streamed.
struct Probe {
    /// The right rows and their keys, entry `e` of `table` for row `e`.
    table: KeyIndex,
    right: Vec<Row>,
    /// The left rows, their keys flat (`arity` values per row), and the
    /// row numbers in stable key order.
    left: Vec<Row>,
    left_keys: Vec<Value>,
    order: std::vec::IntoIter<u32>,
    /// The left row being probed and its matches still to emit, the
    /// first-inserted last.
    current: usize,
    matches: Vec<usize>,
}

impl HashJoin {
    /// Join where `lkeys` evaluated on the left row equal `rkeys` on the
    /// right row, component by component (the two lists have the same
    /// length; both empty for a cross join).
    pub fn new(left: Executor, right: Executor, lkeys: Vec<Expr>, rkeys: Vec<Expr>) -> Self {
        HashJoin {
            state: JoinState::Pending {
                left,
                right,
                lkeys,
                rkeys,
            },
        }
    }

    /// Build the table from the right input and sort the left one;
    /// `None` when the right input has no joinable row.
    fn build(
        left: Executor,
        right: Executor,
        lkeys: &[Expr],
        rkeys: &[Expr],
    ) -> Result<Option<Probe>> {
        let mut key = Vec::with_capacity(rkeys.len());
        let mut table = KeyIndex::new(rkeys.len());
        let mut right_rows = Vec::new();
        for row in right {
            let row = row?;
            if eval_key(rkeys, &row, &mut key)? {
                table.push(&key);
                right_rows.push(row);
            }
        }
        if right_rows.is_empty() {
            return Ok(None);
        }
        let (mut left_rows, mut left_keys) = (Vec::new(), Vec::new());
        for row in left {
            let row = row?;
            if eval_key(lkeys, &row, &mut key)? {
                left_keys.append(&mut key);
                left_rows.push(row);
            }
        }
        let arity = lkeys.len();
        let key_of = |i: u32| {
            let i = i as usize;
            left_keys
                .get(i * arity..(i + 1) * arity)
                .unwrap_or_default()
        };
        let mut order: Vec<u32> = (0..left_rows.len() as u32).collect();
        order.sort_by(|&a, &b| cmp_keys(key_of(a), key_of(b)));
        Ok(Some(Probe {
            table,
            right: right_rows,
            left: left_rows,
            left_keys,
            order: order.into_iter(),
            current: 0,
            matches: Vec::new(),
        }))
    }
}

/// Evaluate the key expressions on `row` into `key`; `false` when a
/// component is NULL (the row can never join).
fn eval_key(exprs: &[Expr], row: &[Value], key: &mut Vec<Value>) -> Result<bool> {
    key.clear();
    for e in exprs {
        key.push(e.eval(row)?);
    }
    Ok(!key.iter().any(Value::is_null))
}

impl Probe {
    fn next_row(&mut self) -> Option<Row> {
        loop {
            if let Some(r) = self.matches.pop() {
                return Some(concat(self.left.get(self.current)?, self.right.get(r)?));
            }
            self.current = self.order.next()? as usize;
            let at = self.current * self.table.arity;
            let key = self.left_keys.get(at..at + self.table.arity)?;
            self.matches.extend(self.table.matches(key));
        }
    }
}

impl Iterator for HashJoin {
    type Item = RowResult;
    fn next(&mut self) -> Option<RowResult> {
        if let JoinState::Pending { .. } = self.state {
            let JoinState::Pending {
                left,
                right,
                lkeys,
                rkeys,
            } = std::mem::replace(&mut self.state, JoinState::Done)
            else {
                return None;
            };
            match HashJoin::build(left, right, &lkeys, &rkeys) {
                Ok(Some(probe)) => self.state = JoinState::Probing(probe),
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        match &mut self.state {
            JoinState::Probing(probe) => probe.next_row().map(Ok),
            _ => None,
        }
    }
}

/// The running state of one aggregate: the fold behind the SQL/XML
/// engine's select-list aggregates, updated as each row arrives.
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

/// Build the scan executor for a planner-selected access path, with the
/// scan's pushed-down predicate evaluated at the source.
///
/// This is the execution half of [`crate::planner::choose_path`]: `Seq`
/// streams base storage, `Index` walks the named secondary index, and
/// `Cluster` range-scans the primary tree. Every path is a superset of the
/// matching rows and `pred` is the full predicate set, so a mis-estimated
/// choice degrades speed, never results.
pub fn build_scan(
    table: &Table,
    kind: crate::planner::PathKind,
    index: Option<&str>,
    lo: Bound<&[Value]>,
    hi: Bound<&[Value]>,
    pred: Option<Expr>,
) -> Result<Executor> {
    use crate::planner::PathKind;
    Ok(match kind {
        PathKind::Seq => Box::new(table.stream()?.filtered(pred)),
        PathKind::Cluster => Box::new(table.cluster_range_stream(lo, hi)?.filtered(pred)),
        PathKind::Index => {
            let name = index.ok_or_else(|| {
                StoreError::NotFound("index path chosen without an index name".into())
            })?;
            Box::new(table.index_range_stream(name, lo, hi)?.filtered(pred))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, StorageKind};
    use crate::expr::BinOp;
    use crate::planner::PathKind;
    use crate::value::{DataType, Field, Schema};

    /// Without key components the join is the cross product, in left
    /// then right input order.
    #[test]
    fn hash_join_without_keys_is_the_cross_product() {
        let ints = |v: &[i64]| -> Executor {
            let rows: Vec<Row> = v.iter().map(|&i| vec![Value::Int(i)]).collect();
            Box::new(rows.into_iter().map(Ok))
        };
        let out: Result<Vec<Row>> =
            HashJoin::new(ints(&[1, 5]), ints(&[3, 7]), vec![], vec![]).collect();
        let pairs: Vec<(i64, i64)> = out
            .unwrap()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(pairs, [(1, 3), (1, 7), (5, 3), (5, 7)]);
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

    /// Every access path applies its pushed predicate at the source, and
    /// a predicate that fails on some row surfaces as an `Err` item in its
    /// place; an unknown index is an error, not silence.
    #[test]
    fn scans_filter_at_the_source_on_every_path() {
        let db = Database::in_memory();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        let t = db
            .create_table("t", schema, StorageKind::Clustered, &["id"])
            .unwrap();
        t.create_index("by_id", &["id"]).unwrap();
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
        }
        let (lo, hi) = ([Value::Int(10)], [Value::Int(14)]);
        let scan = |kind, index, pred| {
            let bounds = (Bound::Included(&lo[..]), Bound::Included(&hi[..]));
            build_scan(&t, kind, index, bounds.0, bounds.1, Some(pred)).unwrap()
        };
        let v_is = |op, v| Expr::bin(op, Expr::col(1), Expr::lit(Value::Int(v)));
        // Negating a string is a type error, reached once `v < 120` fails.
        let boom = Expr::Un(
            crate::expr::UnOp::Neg,
            Box::new(Expr::lit(Value::Str("x".into()))),
        );
        let failing = Expr::bin(BinOp::Or, v_is(BinOp::Lt, 120), boom);
        for (kind, index) in [
            (PathKind::Seq, None),
            (PathKind::Cluster, None),
            (PathKind::Index, Some("by_id")),
        ] {
            let some: Vec<Row> = scan(kind, index, v_is(BinOp::Ne, 110))
                .collect::<Result<_>>()
                .unwrap();
            let ids: Vec<i64> = some.iter().map(|r| r[0].as_int().unwrap()).collect();
            let want: &[i64] = match kind {
                PathKind::Seq => &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                _ => &[10, 12, 13, 14],
            };
            assert_eq!(ids.get(..want.len()), Some(want), "{kind:?}");
            let out: Vec<RowResult> = scan(kind, index, failing.clone()).collect();
            let first_err = out.iter().position(Result::is_err);
            assert_eq!(first_err, Some(if kind == PathKind::Seq { 12 } else { 2 }));
        }
        let unbounded = Bound::Unbounded;
        assert!(build_scan(
            &t,
            PathKind::Index,
            Some("nope"),
            unbounded,
            unbounded,
            None
        )
        .is_err());
    }

    #[test]
    fn key_index_finds_every_equal_entry_across_growth() {
        let mut idx = KeyIndex::new(2);
        let key = |a: i64, b: i64| [Value::Int(a), Value::Int(b)];
        for i in 0..1000 {
            idx.push(&key(i % 7, i % 3));
        }
        let mut seen: Vec<usize> = idx.matches(&key(3, 1)).collect();
        seen.reverse();
        let want: Vec<usize> = (0..1000).filter(|i| i % 7 == 3 && i % 3 == 1).collect();
        assert_eq!(seen, want);
        assert_eq!(idx.find_or_push(&key(3, 1)), (want[want.len() - 1], false));
        assert_eq!(idx.find_or_push(&key(3, 9)), (1000, true));
    }

    #[test]
    fn key_hash_agrees_with_total_cmp_equality() {
        let equal = [
            (vec![Value::Int(1)], vec![Value::Double(1.0)]),
            (vec![Value::Double(0.0)], vec![Value::Double(-0.0)]),
            (
                vec![Value::Null, Value::Int(-4)],
                vec![Value::Null, Value::Double(-4.0)],
            ),
            (vec![Value::Str("ab".into())], vec![Value::Str("ab".into())]),
        ];
        for (a, b) in &equal {
            assert!(cmp_keys(a, b).is_eq());
            assert_eq!(hash_key(a), hash_key(b), "{a:?} {b:?}");
        }
        assert_ne!(
            hash_key(&[Value::Str("ab".into())]),
            hash_key(&[Value::Str("ba".into())])
        );
    }
}
