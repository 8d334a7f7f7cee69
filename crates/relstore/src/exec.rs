//! A Volcano-style cursor executor.
//!
//! Operators are [`Cursor`]s that compose into left-deep plans; the
//! SQL/XML engine (crate `sqlxml`) builds them. A cursor *lends* its
//! current row instead of handing over an owned one, so a row travels from
//! a scan's decode buffer through the pushed predicate, a join's probe, the
//! join's one reused output buffer and the residual [`Filter`] into the
//! select list's folds without ever being copied into a row of its own.
//! Every source is a cursor and filters at the source: a table scan
//! decodes each record into a reused buffer and evaluates its pushed-down
//! predicate there, and side storage (ArchIS's compressed blocks) lends
//! the passing rows of its shared decoded blocks in place.
//!
//! The paper observes that the translated H-table queries "execute very
//! fast (in linear time)" because every join is on `id`; here that is
//! [`HashJoin`], which hashes one input once and streams the other through
//! the table. Its output order is the order of the input it streams: a
//! join in [`JoinOrder::Key`] streams its left input sorted by key and so
//! emits rows in sort-merge order (what statements that return rows get);
//! a join in [`JoinOrder::Probe`] hashes its left input (the rows joined
//! so far) and emits rows in the order the right one arrives, which only
//! statements whose result cannot depend on row order use. [`Accumulator`] folds
//! every aggregate those statements may hold to the same value in any
//! order. Expressions arrive with their UDFs already bound, so operators
//! evaluate them without a function registry.

use crate::expr::{AggFunc, Expr};
use crate::table::{RowStream, Table};
use crate::value::Value;
use crate::{Result, StoreError};
use std::cmp::Ordering;
use std::ops::Bound;

/// A materialized row.
pub type Row = Vec<Value>;

/// A pipeline stage that lends its rows: [`Cursor::advance`] moves to the
/// next row and [`Cursor::row`] borrows it until the next `advance`.
pub trait Cursor {
    /// Move to the next row; `Ok(false)` once the input is exhausted. An
    /// error ends the stream — it is never turned into a short but
    /// successful one.
    fn advance(&mut self) -> Result<bool>;

    /// The current row: valid after `advance` returned `Ok(true)`.
    fn row(&self) -> &[Value];
}

/// Object-safe alias for a boxed pipeline stage.
pub type Pipeline = Box<dyn Cursor>;

/// The rows of one cursor, then those of another: a table's own storage
/// followed by its side storage.
pub struct Chain {
    first: Pipeline,
    then: Pipeline,
    on_then: bool,
}

impl Chain {
    /// `first`'s rows, then `then`'s.
    pub fn new(first: Pipeline, then: Pipeline) -> Self {
        Chain {
            first,
            then,
            on_then: false,
        }
    }
}

impl Cursor for Chain {
    fn advance(&mut self) -> Result<bool> {
        if !self.on_then {
            if self.first.advance()? {
                return Ok(true);
            }
            self.on_then = true;
        }
        self.then.advance()
    }

    fn row(&self) -> &[Value] {
        if self.on_then {
            self.then.row()
        } else {
            self.first.row()
        }
    }
}

/// Filter by a predicate expression (the engine's residual, multi-table
/// predicates; single-table ones are pushed into the scans).
pub struct Filter {
    input: Pipeline,
    pred: Expr,
}

impl Filter {
    /// Keep rows where `pred` is true (NULL = drop).
    pub fn new(input: Pipeline, pred: Expr) -> Self {
        Filter { input, pred }
    }
}

impl Cursor for Filter {
    fn advance(&mut self) -> Result<bool> {
        while self.input.advance()? {
            if self.pred.eval_bool(self.input.row())? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn row(&self) -> &[Value] {
        self.input.row()
    }
}

/// Overwrite `dst` with `src`, value by value, reusing `dst`'s storage.
fn fill(dst: &mut [Value], src: &[Value]) {
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_from(s);
    }
}

/// Rows of equal arity stored flat, `arity` values per row, so holding
/// many rows costs no allocation per row.
#[derive(Default)]
struct FlatRows {
    arity: usize,
    len: usize,
    values: Vec<Value>,
}

impl FlatRows {
    fn push(&mut self, row: &[Value]) {
        self.arity = row.len();
        self.len += 1;
        self.values.extend_from_slice(row);
    }

    fn get(&self, i: usize) -> &[Value] {
        let at = i * self.arity;
        self.values.get(at..at + self.arity).unwrap_or_default()
    }
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

/// Evaluate the key expressions on `row` into `key`; `false` when a
/// component is NULL (the row can never join).
fn eval_key(exprs: &[Expr], row: &[Value], key: &mut Vec<Value>) -> Result<bool> {
    key.clear();
    for e in exprs {
        key.push(e.eval(row)?);
    }
    Ok(!key.iter().any(Value::is_null))
}

/// The row order a [`HashJoin`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrder {
    /// Sort-merge order: key order, then left-input order, then
    /// right-input order. The right input is hashed and the left one
    /// collected, sorted stably by key and streamed.
    Key,
    /// Probe-input order: the left input (the rows joined so far) is
    /// hashed and the right one streamed as it arrives, each of its rows
    /// followed by its matches in left-input order. Nothing is sorted or
    /// collected but the left input; only for consumers to which row order
    /// is invisible.
    Probe,
}

/// Hash equi-join on a composite key.
///
/// Every equality connecting the two inputs is one key component — e.g.
/// `(t2.id, t2.tend + 1) = (t3.id, t3.tstart)` for the adjacent-period
/// (`tmeets`) join — so rows pair only when all components match. The
/// build input is drained into a [`KeyIndex`] over rows stored flat and
/// the probe input streams through it. An empty right input joins to
/// nothing without the left input being read, in either order: key order
/// hashes the right input first, and probe order reads the right input's
/// first row before hashing the left one. Output rows are `left ++
/// right`, written into one reused buffer and lent; their order is the
/// [`JoinOrder`]'s. A NULL key component never joins. With no key
/// components every pair joins: the cross product. The work starts at the
/// first `advance()`.
pub struct HashJoin {
    /// The input still to be hashed and its key expressions, until the
    /// first `advance()`.
    pending: Option<(Pipeline, Vec<Expr>)>,
    probe: ProbeInput,
    table: KeyIndex,
    rows: FlatRows,
    key: Row,
    /// The build rows matching the current probe row still to emit, the
    /// first-inserted last.
    matches: Vec<usize>,
    out: Row,
    done: bool,
}

/// The input a [`HashJoin`] streams through its table.
enum ProbeInput {
    /// [`JoinOrder::Key`]: the left input sorted by key, each row lent
    /// with the key it was sorted by.
    Sorted(SortByKey),
    /// [`JoinOrder::Probe`]: the right input as it arrives, and its key
    /// expressions.
    Streamed(Pipeline, Vec<Expr>),
}

impl HashJoin {
    /// Join where `lkeys` evaluated on the left row equal `rkeys` on the
    /// right row, component by component (the two lists have the same
    /// length; both empty for a cross join), emitting rows in `order`.
    pub fn new(
        left: Pipeline,
        right: Pipeline,
        lkeys: Vec<Expr>,
        rkeys: Vec<Expr>,
        order: JoinOrder,
    ) -> Self {
        let (build, probe) = match order {
            JoinOrder::Key => (
                (right, rkeys),
                ProbeInput::Sorted(SortByKey::new(left, lkeys)),
            ),
            JoinOrder::Probe => ((left, lkeys), ProbeInput::Streamed(right, rkeys)),
        };
        HashJoin {
            table: KeyIndex::new(build.1.len()),
            pending: Some(build),
            probe,
            rows: FlatRows::default(),
            key: Vec::new(),
            matches: Vec::new(),
            out: Vec::new(),
            done: true,
        }
    }

    /// Hash the build input; the join is done at once when it has no
    /// joinable row.
    fn build(&mut self, mut input: Pipeline, keys: &[Expr]) -> Result<()> {
        while input.advance()? {
            let row = input.row();
            if eval_key(keys, row, &mut self.key)? {
                self.table.push(&self.key);
                self.rows.push(row);
            }
        }
        self.done = self.rows.len == 0;
        Ok(())
    }
}

impl Cursor for HashJoin {
    fn advance(&mut self) -> Result<bool> {
        // Whether the streamed input already stands on its first row.
        let mut primed = false;
        if let Some((input, keys)) = self.pending.take() {
            if let ProbeInput::Streamed(first, _) = &mut self.probe {
                if !first.advance()? {
                    return Ok(false);
                }
                primed = true;
            }
            self.build(input, &keys)?;
        }
        let HashJoin {
            probe,
            table,
            rows,
            key,
            matches,
            out,
            done,
            ..
        } = self;
        // Key order hashes the right input, probe order the left one.
        let build_left = matches!(probe, ProbeInput::Streamed(..));
        while !*done {
            if let Some(e) = matches.pop() {
                let at = if build_left {
                    0
                } else {
                    out.len() - rows.arity
                };
                fill(out.get_mut(at..).unwrap_or_default(), rows.get(e));
                return Ok(true);
            }
            let (row, row_key) = match probe {
                ProbeInput::Sorted(sorted) => {
                    if !sorted.advance()? {
                        *done = true;
                        break;
                    }
                    (sorted.row(), sorted.key())
                }
                ProbeInput::Streamed(input, exprs) => {
                    if !std::mem::take(&mut primed) && !input.advance()? {
                        *done = true;
                        break;
                    }
                    if !eval_key(exprs, input.row(), key)? {
                        continue;
                    }
                    (input.row(), key.as_slice())
                }
            };
            matches.extend(table.matches(row_key));
            if !matches.is_empty() {
                out.resize(row.len() + rows.arity, Value::Null);
                let at = if build_left { rows.arity } else { 0 };
                fill(out.get_mut(at..).unwrap_or_default(), row);
            }
        }
        Ok(false)
    }

    fn row(&self) -> &[Value] {
        &self.out
    }
}

/// The input's rows whose key has no NULL component (the others can never
/// join), sorted stably by key: collected at the first `advance()`, then
/// lent one by one with their keys. The streamed input of a
/// [`JoinOrder::Key`] join.
struct SortByKey {
    input: Option<Pipeline>,
    exprs: Vec<Expr>,
    rows: FlatRows,
    keys: FlatRows,
    order: std::vec::IntoIter<u32>,
    current: usize,
}

impl SortByKey {
    fn new(input: Pipeline, exprs: Vec<Expr>) -> Self {
        SortByKey {
            input: Some(input),
            exprs,
            rows: FlatRows::default(),
            keys: FlatRows::default(),
            order: Vec::new().into_iter(),
            current: 0,
        }
    }

    fn sort(&mut self, mut input: Pipeline) -> Result<()> {
        let mut key = Vec::new();
        while input.advance()? {
            if eval_key(&self.exprs, input.row(), &mut key)? {
                self.keys.push(&key);
                self.rows.push(input.row());
            }
        }
        let keys = &self.keys;
        let mut order: Vec<u32> = (0..self.rows.len as u32).collect();
        order.sort_by(|&a, &b| cmp_keys(keys.get(a as usize), keys.get(b as usize)));
        self.order = order.into_iter();
        Ok(())
    }

    /// Move to the next row in key order; `Ok(false)` once every row has
    /// been lent.
    fn advance(&mut self) -> Result<bool> {
        if let Some(input) = self.input.take() {
            self.sort(input)?;
        }
        match self.order.next() {
            Some(i) => {
                self.current = i as usize;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn row(&self) -> &[Value] {
        self.rows.get(self.current)
    }

    /// The current row's key.
    fn key(&self) -> &[Value] {
        self.keys.get(self.current)
    }
}

/// The running state of one aggregate: the fold behind the SQL/XML
/// engine's select-list aggregates, updated as each row arrives.
///
/// NULL inputs are skipped. `COUNT`, `MIN`, `MAX` and an all-`Int` `SUM`
/// or `AVG` fold to the same value whatever order the rows arrive in:
/// integers add exactly (in `i128`; a `SUM` outside `i64` is an error),
/// and `MIN`/`MAX` break ties between values that compare equal but differ
/// in type by [`tie_cmp`]. A `SUM`/`AVG` that sees a `Double` adds every
/// input as `f64` in arrival order. For `AGG(DISTINCT ...)` the inputs are
/// kept and deduplicated by [`Accumulator::finish`] in O(n log n), then
/// folded in first-seen order — so a float `SUM`/`AVG(DISTINCT)` adds in
/// the same order as a fold that checked each value against every one
/// kept so far; `MIN`/`MAX(DISTINCT)` fold every input, as duplicates
/// cannot change them.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    /// `Some` for `DISTINCT` `COUNT`/`SUM`/`AVG`: the non-NULL inputs, in
    /// arrival order.
    distinct: Option<Vec<Value>>,
    count: i64,
    /// The exact sum of the `Int` inputs.
    int_sum: i128,
    /// Every numeric input added as `f64`, in arrival order.
    float_sum: f64,
    saw_float: bool,
    /// The running MIN or MAX (only for those functions).
    extreme: Option<Value>,
}

impl Accumulator {
    /// An empty fold of `func`, deduplicating its inputs if `distinct`.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        let dedupe = distinct && !matches!(func, AggFunc::Min | AggFunc::Max);
        Accumulator {
            func,
            distinct: dedupe.then(Vec::new),
            count: 0,
            int_sum: 0,
            float_sum: 0.0,
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
                if let Value::Int(i) = v {
                    self.int_sum += i128::from(i);
                }
                if let Some(f) = v.as_f64() {
                    self.float_sum += f;
                    self.saw_float |= matches!(v, Value::Double(_));
                }
                return;
            }
            AggFunc::Min => Ordering::Greater,
            AggFunc::Max => Ordering::Less,
        };
        // Replace the extreme unless it already wins.
        let beats = |m: &Value| m.total_cmp(&v).then_with(|| tie_cmp(m, &v)) == keep;
        if self.extreme.as_ref().is_none_or(beats) {
            self.extreme = Some(v);
        }
    }

    /// The aggregate's value (SQL semantics: COUNT of nothing is 0, every
    /// other aggregate of nothing is NULL); an error when an integer `SUM`
    /// does not fit in `i64`.
    pub fn finish(mut self) -> Result<Value> {
        if let Some(values) = self.distinct.take() {
            for v in first_seen_distinct(values) {
                self.fold(v);
            }
        }
        Ok(match self.func {
            AggFunc::Count | AggFunc::CountStar => Value::Int(self.count),
            _ if self.count == 0 => Value::Null,
            AggFunc::Sum if self.saw_float => Value::Double(self.float_sum),
            AggFunc::Sum => Value::Int(i64::try_from(self.int_sum).map_err(|_| {
                StoreError::Eval(format!("SUM {} overflows a 64-bit integer", self.int_sum))
            })?),
            AggFunc::Avg if self.saw_float => Value::Double(self.float_sum / self.count as f64),
            AggFunc::Avg => Value::Double(self.int_sum as f64 / self.count as f64),
            AggFunc::Min | AggFunc::Max => self.extreme.unwrap_or(Value::Null),
        })
    }
}

/// The order among values [`Value::total_cmp`] calls equal, so that
/// `MIN`/`MAX` keep the same one of them whatever order they arrive in: an
/// `Int` before the equal `Double`, and doubles by [`f64::total_cmp`]
/// (`-0.0` before `0.0`). Other values that compare equal are identical.
fn tie_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Int(_), Value::Double(_)) => Ordering::Less,
        (Value::Double(_), Value::Int(_)) => Ordering::Greater,
        (Value::Double(x), Value::Double(y)) => x.total_cmp(y),
        _ => Ordering::Equal,
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

/// Build the scan for a planner-selected access path, with the scan's
/// pushed-down predicate evaluated at the source. The stream lends its
/// rows as a [`Cursor`] or copies them out as an [`Iterator`].
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
) -> Result<RowStream> {
    use crate::planner::PathKind;
    let stream = match kind {
        PathKind::Seq => table.stream()?,
        PathKind::Cluster => table.cluster_range_stream(lo, hi)?,
        PathKind::Index => {
            let name = index.ok_or_else(|| {
                StoreError::NotFound("index path chosen without an index name".into())
            })?;
            table.index_range_stream(name, lo, hi)?
        }
    };
    Ok(stream.filtered(pred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, StorageKind};
    use crate::expr::BinOp;
    use crate::planner::PathKind;
    use crate::value::{DataType, Field, Schema};

    /// A cursor over owned rows, lending each in turn.
    struct Rows(std::vec::IntoIter<Row>, Row);

    impl Cursor for Rows {
        fn advance(&mut self) -> Result<bool> {
            match self.0.next() {
                Some(row) => {
                    self.1 = row;
                    Ok(true)
                }
                None => Ok(false),
            }
        }

        fn row(&self) -> &[Value] {
            &self.1
        }
    }

    /// Without key components the join is the cross product: left-major
    /// in key order, right-major (the streamed input's order) in probe
    /// order, always as `left ++ right`.
    #[test]
    fn hash_join_without_keys_is_the_cross_product() {
        let ints = |v: &[i64]| -> Pipeline {
            let rows: Vec<Row> = v.iter().map(|&i| vec![Value::Int(i)]).collect();
            Box::new(Rows(rows.into_iter(), Vec::new()))
        };
        let pairs = |order| -> Vec<(i64, i64)> {
            let mut join = HashJoin::new(ints(&[1, 5]), ints(&[3, 7]), vec![], vec![], order);
            let mut pairs = Vec::new();
            while join.advance().unwrap() {
                let r = join.row();
                pairs.push((r[0].as_int().unwrap(), r[1].as_int().unwrap()));
            }
            pairs
        };
        assert_eq!(pairs(JoinOrder::Key), [(1, 3), (1, 7), (5, 3), (5, 7)]);
        assert_eq!(pairs(JoinOrder::Probe), [(1, 3), (5, 3), (1, 7), (5, 7)]);
    }

    fn fold(func: AggFunc, distinct: bool, values: &[Value]) -> Value {
        try_fold(func, distinct, values).unwrap()
    }

    fn try_fold(func: AggFunc, distinct: bool, values: &[Value]) -> Result<Value> {
        let mut acc = Accumulator::new(func, distinct);
        for v in values {
            acc.update(&Expr::col(0), std::slice::from_ref(v)).unwrap();
        }
        acc.finish()
    }

    /// Integers add exactly: `f64` addition would round 2^53 + 1 away
    /// before the `+ 1 - 1` could cancel. A sum outside `i64` is an error,
    /// never a wrapped or rounded value, even when later inputs would
    /// bring it back.
    #[test]
    fn integer_sum_and_avg_are_exact() {
        let big = 9_007_199_254_740_993;
        let input = [Value::Int(big), Value::Int(1), Value::Int(-1)];
        assert_eq!(fold(AggFunc::Sum, false, &input), Value::Int(big));
        let ints: Vec<Value> = [i64::MAX, i64::MAX, -i64::MAX]
            .into_iter()
            .map(Value::Int)
            .collect();
        assert_eq!(fold(AggFunc::Sum, false, &ints), Value::Int(i64::MAX));
        assert_eq!(
            fold(AggFunc::Avg, false, &ints),
            Value::Double(i64::MAX as f64 / 3.0)
        );
        let over = [Value::Int(i64::MAX), Value::Int(1)];
        assert!(matches!(
            try_fold(AggFunc::Sum, false, &over),
            Err(StoreError::Eval(_))
        ));
        let under = [Value::Int(i64::MIN), Value::Int(-1)];
        assert!(try_fold(AggFunc::Sum, false, &under).is_err());
        assert_eq!(
            fold(AggFunc::Avg, false, &over),
            Value::Double(i64::MAX as f64 / 2.0 + 0.5)
        );
    }

    /// `MIN`/`MAX` over values that compare equal but differ in type keep
    /// the same one whichever arrives first: the `Int` for MIN, the
    /// `Double` for MAX (and `-0.0` / `0.0` likewise for doubles).
    #[test]
    fn min_max_ties_do_not_depend_on_arrival_order() {
        let cases = [
            (Value::Int(1), Value::Double(1.0)),
            (Value::Double(-0.0), Value::Double(0.0)),
        ];
        for (low, high) in cases {
            for distinct in [false, true] {
                for input in [[low.clone(), high.clone()], [high.clone(), low.clone()]] {
                    // `Debug` tells `Int(1)` from `Double(1.0)` and `-0.0`
                    // from `0.0`; `==` does not always.
                    let min = fold(AggFunc::Min, distinct, &input);
                    let max = fold(AggFunc::Max, distinct, &input);
                    assert_eq!(format!("{min:?}"), format!("{low:?}"), "MIN of {input:?}");
                    assert_eq!(format!("{max:?}"), format!("{high:?}"), "MAX of {input:?}");
                }
            }
        }
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
            let out: Vec<Result<Row>> = scan(kind, index, failing.clone()).collect();
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
