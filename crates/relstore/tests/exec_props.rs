//! Property tests for the executor operators against straightforward
//! reference implementations.

use proptest::prelude::*;
use relstore::exec::{collect_rows, Filter, NestedLoopJoin, Row, SeqScan, Sort, SortMergeJoin};
use relstore::expr::{BinOp, Expr};
use relstore::Value;

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (0i64..8, -50i64..50).prop_map(|(k, v)| vec![Value::Int(k), Value::Int(v)]),
        0..40,
    )
}

/// The multiset of output rows (join output order may differ).
fn norm(mut v: Vec<Row>) -> Vec<Row> {
    v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    v
}

proptest! {
    #[test]
    fn filter_matches_retain(rows in arb_rows(), threshold in -50i64..50) {
        let pred = Expr::bin(BinOp::Ge, Expr::col(1), Expr::lit(Value::Int(threshold)));
        let got = collect_rows(Filter::new(
            Box::new(SeqScan::from_rows(rows.clone())),
            pred,
        )).unwrap();
        let want: Vec<Row> = rows
            .into_iter()
            .filter(|r| r[1].as_int().unwrap() >= threshold)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sort_matches_std_sort(rows in arb_rows()) {
        let got = collect_rows(Sort::new(
            Box::new(SeqScan::from_rows(rows.clone())),
            vec![(Expr::col(1), true), (Expr::col(0), false)],
        )).unwrap();
        let mut want = rows;
        want.sort_by(|a, b| {
            a[1].total_cmp(&b[1]).then(b[0].total_cmp(&a[0]))
        });
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sort_merge_join_equals_nested_loop(left in arb_rows(), right in arb_rows()) {
        let smj = collect_rows(SortMergeJoin::new(
            Box::new(SeqScan::from_rows(left.clone())),
            Box::new(SeqScan::from_rows(right.clone())),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
        )).unwrap();
        let cond = Expr::bin(BinOp::Eq, Expr::col(0), Expr::col(2));
        let nlj = collect_rows(NestedLoopJoin::new(
            Box::new(SeqScan::from_rows(left)),
            Box::new(SeqScan::from_rows(right)),
            cond,
        )).unwrap();
        prop_assert_eq!(norm(smj), norm(nlj));
    }

    /// Composite keys with an offset component — `(l.0, l.1 + d) =
    /// (r.0, r.1)`, the shape of the adjacent-period join — against the
    /// nested loop filtering on the same conjunction.
    #[test]
    fn composite_key_join_equals_nested_loop(
        left in arb_rows(),
        right in arb_rows(),
        d in -3i64..4,
    ) {
        let plus_d = Expr::bin(BinOp::Add, Expr::col(1), Expr::lit(Value::Int(d)));
        let smj = collect_rows(SortMergeJoin::new(
            Box::new(SeqScan::from_rows(left.clone())),
            Box::new(SeqScan::from_rows(right.clone())),
            vec![Expr::col(0), plus_d.clone()],
            vec![Expr::col(0), Expr::col(1)],
        )).unwrap();
        let cond = Expr::and_all(vec![
            Expr::bin(BinOp::Eq, Expr::col(0), Expr::col(2)),
            Expr::bin(BinOp::Eq, plus_d, Expr::col(3)),
        ]);
        let nlj = collect_rows(NestedLoopJoin::new(
            Box::new(SeqScan::from_rows(left)),
            Box::new(SeqScan::from_rows(right)),
            cond,
        )).unwrap();
        prop_assert_eq!(norm(smj), norm(nlj));
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
