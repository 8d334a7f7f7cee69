//! Property tests for the executor operators against straightforward
//! reference implementations.

use proptest::prelude::*;
use relstore::exec::{Accumulator, Cursor, Filter, HashJoin, JoinOrder, Pipeline, Row};
use relstore::expr::{BinOp, Expr};
use relstore::AggFunc;
use relstore::{StoreError, Value};
use std::cmp::Ordering;

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (0i64..8, -50i64..50).prop_map(|(k, v)| vec![Value::Int(k), Value::Int(v)]),
        0..40,
    )
}

/// A key component: NULL, or a small number as an `Int` or an equal
/// `Double`.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        3 => (0i64..4).prop_map(Value::Int),
        2 => (0i64..4).prop_map(|k| Value::Double(k as f64)),
    ]
}

/// A number that ties with others across types: NULL, a small `Int`, the
/// equal `Double`, or a signed zero.
fn arb_number() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        3 => (-3i64..3).prop_map(Value::Int),
        3 => (-3i64..3).prop_map(|k| Value::Double(k as f64)),
        1 => Just(Value::Double(-0.0)),
    ]
}

/// An `Int` input of `SUM`/`AVG`: NULL, small, just past 2^53 (where
/// `f64` stops being exact), or at an end of `i64`.
fn arb_int() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        3 => (-5i64..5).prop_map(Value::Int),
        2 => (0i64..3).prop_map(|k| Value::Int((1 << 53) + k)),
        1 => Just(Value::Int(i64::MAX)),
        1 => Just(Value::Int(i64::MIN)),
    ]
}

/// Lexicographic `total_cmp`: sorts join outputs for multiset equality
/// (every output row differs in its two input tags).
fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Rows `[k, d, tag]`: few distinct keys, so duplicates on both sides are
/// the rule; the tag (the row's input position) makes order visible.
fn arb_keyed_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((arb_key(), arb_key()), 0..24).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (k, d))| vec![k, d, Value::Int(i as i64)])
            .collect()
    })
}

/// An input that lends `rows` in turn and then ends, or fails if `fail`.
struct Rows {
    rows: Vec<Row>,
    /// How many rows have been lent.
    lent: usize,
    fail: bool,
}

impl Cursor for Rows {
    fn advance(&mut self) -> Result<bool, StoreError> {
        if self.lent < self.rows.len() {
            self.lent += 1;
            Ok(true)
        } else if self.fail {
            Err(StoreError::Eval("input failed".into()))
        } else {
            Ok(false)
        }
    }

    fn row(&self) -> &[Value] {
        &self.rows[self.lent - 1]
    }
}

fn input(rows: &[Row], fail: bool) -> Pipeline {
    Box::new(Rows {
        rows: rows.to_vec(),
        lent: 0,
        fail,
    })
}

fn rows_of(rows: &[Row]) -> Pipeline {
    input(rows, false)
}

/// The reference join: a nested loop over left then right input order,
/// keeping pairs whose key components are all non-NULL and equal under
/// `total_cmp`, then a stable sort by key — key order, then left-input
/// order, then right-input order.
fn reference_join(left: &[Row], right: &[Row], lkeys: &[Expr], rkeys: &[Expr]) -> Vec<Row> {
    let key = |keys: &[Expr], row: &Row| -> Vec<Value> {
        keys.iter().map(|k| k.eval(row).unwrap()).collect()
    };
    let mut pairs: Vec<(Vec<Value>, Row)> = Vec::new();
    for l in left {
        let lk = key(lkeys, l);
        for r in right {
            let rk = key(rkeys, r);
            let joins = lk.iter().all(|v| !v.is_null())
                && lk
                    .iter()
                    .zip(&rk)
                    .all(|(a, b)| a.total_cmp(b) == Ordering::Equal);
            if joins {
                pairs.push((lk.clone(), l.iter().chain(r).cloned().collect()));
            }
        }
    }
    pairs.sort_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    pairs.into_iter().map(|(_, row)| row).collect()
}

/// Copy every remaining row of `rows` out.
fn collect(rows: &mut dyn Cursor) -> Result<Vec<Row>, StoreError> {
    let mut out = Vec::new();
    while rows.advance()? {
        out.push(rows.row().to_vec());
    }
    Ok(out)
}

/// An input that yields `rows` and then fails.
fn failing(rows: &[Row]) -> Pipeline {
    input(rows, true)
}

/// An input that must never be read: reading it panics.
struct Unread;

impl Cursor for Unread {
    fn advance(&mut self) -> Result<bool, StoreError> {
        panic!("left input pulled")
    }

    fn row(&self) -> &[Value] {
        unreachable!("never advanced")
    }
}

proptest! {
    #[test]
    fn filter_matches_retain(rows in arb_rows(), threshold in -50i64..50) {
        let pred = Expr::bin(BinOp::Ge, Expr::col(1), Expr::lit(Value::Int(threshold)));
        let got: Vec<Row> = collect(&mut Filter::new(rows_of(&rows), pred)).unwrap();
        let want: Vec<Row> = rows
            .into_iter()
            .filter(|r| r[1].as_int().unwrap() >= threshold)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The hash join equals the reference row for row, in order: on one
    /// key, and on a composite key with a `col + 1` component (the shape
    /// of the adjacent-period join), over NULL, `Int` and `Double` keys
    /// with duplicates on both sides.
    #[test]
    fn hash_join_equals_sorted_nested_loop(
        left in arb_keyed_rows(),
        right in arb_keyed_rows(),
    ) {
        let plus_one = Expr::bin(BinOp::Add, Expr::col(1), Expr::lit(Value::Int(1)));
        let shapes = [
            (vec![Expr::col(0)], vec![Expr::col(0)]),
            (vec![Expr::col(0), plus_one], vec![Expr::col(0), Expr::col(1)]),
        ];
        for (lkeys, rkeys) in shapes {
            let mut join = HashJoin::new(
                rows_of(&left),
                rows_of(&right),
                lkeys.clone(),
                rkeys.clone(),
                JoinOrder::Key,
            );
            let got: Vec<Row> = collect(&mut join).unwrap();
            prop_assert_eq!(got, reference_join(&left, &right, &lkeys, &rkeys));
        }
    }

    /// An error from either input, or from a key expression, comes out
    /// as an `Err` item — never as a short but successful result.
    #[test]
    fn hash_join_surfaces_input_errors(
        left in arb_keyed_rows(),
        right in arb_keyed_rows(),
    ) {
        let keys = || vec![Expr::col(0)];
        let has_err = |mut exec: HashJoin| collect(&mut exec).is_err();
        let join = |l, r, lk, rk| HashJoin::new(l, r, lk, rk, JoinOrder::Key);
        // The left input is read only when the right one has a joinable
        // (non-NULL) key.
        let right_joins = right.iter().any(|r| !r[0].is_null());
        prop_assert_eq!(
            has_err(join(failing(&left), rows_of(&right), keys(), keys())),
            right_joins
        );
        prop_assert!(has_err(join(rows_of(&left), failing(&right), keys(), keys())));
        // Negating a string is a type error: every right row's key fails.
        let bad = vec![Expr::Un(
            relstore::expr::UnOp::Neg,
            Box::new(Expr::lit(Value::Str("x".into()))),
        )];
        if !right.is_empty() {
            prop_assert!(has_err(join(rows_of(&left), rows_of(&right), keys(), bad)));
        }
        // In probe order the right input's first row is read before the
        // left input is hashed, and the rest only when the left input has
        // a joinable key.
        let probe = |l, r| HashJoin::new(l, r, keys(), keys(), JoinOrder::Probe);
        let left_joins = left.iter().any(|r| !r[0].is_null());
        prop_assert_eq!(
            has_err(probe(failing(&left), rows_of(&right))),
            !right.is_empty()
        );
        prop_assert_eq!(
            has_err(probe(rows_of(&left), failing(&right))),
            right.is_empty() || left_joins
        );
    }

    /// The probe-order join equals the nested-loop reference as a
    /// multiset: on one key, on the adjacent-period composite key `(id,
    /// tend + 1) = (id, tstart)` and with no key at all (the cross
    /// product), over NULL, `Int` and `Double` keys with duplicates on
    /// both sides, and with either input empty.
    #[test]
    fn probe_order_join_equals_nested_loop_as_a_multiset(
        left in arb_keyed_rows(),
        right in arb_keyed_rows(),
    ) {
        let plus_one = Expr::bin(BinOp::Add, Expr::col(1), Expr::lit(Value::Int(1)));
        let shapes = [
            (vec![Expr::col(0)], vec![Expr::col(0)]),
            (vec![Expr::col(0), plus_one], vec![Expr::col(0), Expr::col(1)]),
            (vec![], vec![]),
        ];
        let none: Vec<Row> = Vec::new();
        for (lkeys, rkeys) in shapes {
            for (l, r) in [(&left, &right), (&none, &right), (&left, &none)] {
                let mut want = reference_join(l, r, &lkeys, &rkeys);
                want.sort_by(|a, b| cmp_rows(a, b));
                let order = JoinOrder::Probe;
                let mut join =
                    HashJoin::new(rows_of(l), rows_of(r), lkeys.clone(), rkeys.clone(), order);
                let mut got = collect(&mut join).unwrap();
                got.sort_by(|a, b| cmp_rows(a, b));
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Every aggregate a statement may hold and still have its joins
    /// stream in probe order folds to the identical value (`Debug`-equal:
    /// `Int(1)` is not `Double(1.0)`, nor `-0.0` `0.0`) in input order and
    /// in reverse: `COUNT`, `COUNT(*)`, `MIN` and `MAX`, plain and
    /// `DISTINCT`, over NULLs and numbers of both types that tie; `SUM` and
    /// `AVG`, plain and `DISTINCT`, over `Int`s near 2^53 and the ends of
    /// `i64` (an overflowing sum is the same error either way).
    #[test]
    fn order_free_aggregates_fold_alike_in_both_orders(
        mixed in proptest::collection::vec(arb_number(), 0..12),
        ints in proptest::collection::vec(arb_int(), 0..12),
    ) {
        let fold = |func, distinct, values: &mut dyn Iterator<Item = &Value>| {
            let mut acc = Accumulator::new(func, distinct);
            for v in values {
                acc.update(&Expr::col(0), std::slice::from_ref(v)).unwrap();
            }
            format!("{:?}", acc.finish())
        };
        let cases = [
            (AggFunc::Count, &mixed),
            (AggFunc::CountStar, &mixed),
            (AggFunc::Min, &mixed),
            (AggFunc::Max, &mixed),
            (AggFunc::Sum, &ints),
            (AggFunc::Avg, &ints),
        ];
        for (func, values) in cases {
            for distinct in [false, true] {
                let forward = fold(func, distinct, &mut values.iter());
                let backward = fold(func, distinct, &mut values.iter().rev());
                prop_assert_eq!(forward, backward, "{:?} distinct={} {:?}", func, distinct, values);
            }
        }
    }

    #[test]
    fn table_index_agrees_with_scan_filter(
        rows in proptest::collection::vec((0i64..20, 0i64..1000), 1..60),
        probe in 0i64..20,
    ) {
        use relstore::{Database, StorageKind, Schema, Field, DataType};
        for kind in [StorageKind::Heap, StorageKind::Clustered] {
            let db = Database::in_memory();
            let t = db.create_table(
                "t",
                Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
                kind,
                &["k"],
            ).unwrap();
            t.create_index("by_k", &["k"]).unwrap();
            for (k, v) in &rows {
                t.insert(vec![Value::Int(*k), Value::Int(*v)]).unwrap();
            }
            let mut via_index = t.index_lookup("by_k", &[Value::Int(probe)]).unwrap();
            let mut via_scan: Vec<Row> = t
                .scan()
                .unwrap()
                .into_iter()
                .filter(|r| r[0] == Value::Int(probe))
                .collect();
            via_index.sort_by(|a, b| a[1].total_cmp(&b[1]));
            via_scan.sort_by(|a, b| a[1].total_cmp(&b[1]));
            prop_assert_eq!(via_index, via_scan);
        }
    }
}

/// An empty right input joins to nothing without reading the left input,
/// in either order.
#[test]
fn hash_join_with_empty_right_never_pulls_left() {
    for order in [JoinOrder::Key, JoinOrder::Probe] {
        let right = rows_of(&[]);
        let mut join = HashJoin::new(
            Box::new(Unread),
            right,
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            order,
        );
        assert!(collect(&mut join).unwrap().is_empty());
    }
}
