//! Property tests for the executor operators against straightforward
//! reference implementations.

use proptest::prelude::*;
use relstore::exec::{Executor, Filter, HashJoin, Row, RowResult};
use relstore::expr::{BinOp, Expr};
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

fn rows_of(rows: &[Row]) -> Executor {
    let owned: Vec<Row> = rows.to_vec();
    Box::new(owned.into_iter().map(Ok))
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

/// An input that yields `rows` and then fails.
fn failing(rows: &[Row]) -> Executor {
    let err: RowResult = Err(StoreError::Eval("input failed".into()));
    Box::new(rows_of(rows).chain(std::iter::once(err)))
}

proptest! {
    #[test]
    fn filter_matches_retain(rows in arb_rows(), threshold in -50i64..50) {
        let pred = Expr::bin(BinOp::Ge, Expr::col(1), Expr::lit(Value::Int(threshold)));
        let got: Vec<Row> = Filter::new(rows_of(&rows), pred).collect::<Result<_, _>>().unwrap();
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
            let join = HashJoin::new(rows_of(&left), rows_of(&right), lkeys.clone(), rkeys.clone());
            let got: Vec<Row> = join.collect::<Result<_, _>>().unwrap();
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
        let has_err = |exec: HashJoin| exec.into_iter().any(|r| r.is_err());
        // The left input is read only when the right one has a joinable
        // (non-NULL) key.
        let right_joins = right.iter().any(|r| !r[0].is_null());
        prop_assert_eq!(
            has_err(HashJoin::new(failing(&left), rows_of(&right), keys(), keys())),
            right_joins
        );
        prop_assert!(has_err(HashJoin::new(rows_of(&left), failing(&right), keys(), keys())));
        // Negating a string is a type error: every right row's key fails.
        let bad = vec![Expr::Un(
            relstore::expr::UnOp::Neg,
            Box::new(Expr::lit(Value::Str("x".into()))),
        )];
        if !right.is_empty() {
            prop_assert!(has_err(HashJoin::new(rows_of(&left), rows_of(&right), keys(), bad)));
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

/// An empty right input joins to nothing without reading the left input.
#[test]
fn hash_join_with_empty_right_never_pulls_left() {
    let left: Executor = Box::new(std::iter::from_fn(|| -> Option<RowResult> {
        panic!("left input pulled")
    }));
    let right: Executor = Box::new(std::iter::empty());
    let join = HashJoin::new(left, right, vec![Expr::col(0)], vec![Expr::col(0)]);
    assert!(join.collect::<Result<Vec<_>, _>>().unwrap().is_empty());
}
