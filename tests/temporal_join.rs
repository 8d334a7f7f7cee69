//! The adjacent-period (`tmeets`) join as a merge on a composite key.
//!
//! `tmeets(a, b)` holds exactly when `a.tend` is not *forever* and
//! `b.tstart = a.tend + 1`. The translator writes that implied equality
//! beside every `tmeets` over two period columns, and the engine joins on
//! it — `(id, a.tend + 1) = (id, b.tstart)` — instead of pairing every
//! period of an id with every other one. The equality is redundant by
//! construction, so removing it must not change a single byte of any
//! answer: that is what these tests check, on random histories with open
//! periods, ids that never change salary, and changes on and next to
//! segment boundaries.

use archis::{queries as q, ArchConfig, ArchIS, Change, RelationSpec};
use proptest::prelude::*;
use relstore::value::{DataType, Field, Schema};
use relstore::{StorageKind, Value};
use std::collections::HashSet;
use temporal::{Date, END_OF_TIME};

/// The equality the translator adds to Q6's `tmeets`.
const IMPLIED: &str = " and t3.tstart = t2.tend + 1";

fn day(off: i32) -> Date {
    Date::from_ymd(1990, 1, 1).unwrap() + off
}

#[derive(Debug, Clone)]
enum Ev {
    Hire { id: i64, salary: i64 },
    Raise { id: i64, salary: i64 },
    Fire { id: i64 },
    Archive,
}

fn arb_events() -> impl Strategy<Value = Vec<Ev>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (1i64..8, 30_000i64..100_000).prop_map(|(id, salary)| Ev::Hire { id, salary }),
            4 => (1i64..8, 30_000i64..100_000).prop_map(|(id, salary)| Ev::Raise { id, salary }),
            1 => (1i64..8).prop_map(|id| Ev::Fire { id }),
            2 => Just(Ev::Archive),
        ],
        1..50,
    )
}

/// Replay events one day apart, so raises land on, and the day after,
/// archival days; skip impossible events. Ids hired and never raised keep
/// a single (open) salary period.
fn build(events: &[Ev], clustered: bool) -> ArchIS {
    let config = if clustered {
        ArchConfig::atlas_like()
    } else {
        ArchConfig::db2_like()
    };
    let mut a = ArchIS::new(config.with_umin(0.5));
    a.create_relation(RelationSpec::employee()).unwrap();
    let mut hired = HashSet::new();
    for (i, ev) in events.iter().enumerate() {
        let at = day(i as i32);
        let change = match ev {
            Ev::Hire { id, salary } if hired.insert(*id) => Change::Insert {
                relation: "employee".into(),
                key: *id,
                values: vec![
                    ("name".into(), Value::Str(format!("emp{id}"))),
                    ("salary".into(), Value::Int(*salary)),
                    ("title".into(), Value::Str("Engineer".into())),
                    ("deptno".into(), Value::Str("d01".into())),
                ],
                at,
            },
            Ev::Raise { id, salary } if hired.contains(id) => Change::Update {
                relation: "employee".into(),
                key: *id,
                changes: vec![("salary".into(), Value::Int(*salary))],
                at,
            },
            Ev::Fire { id } if hired.remove(id) => Change::Delete {
                relation: "employee".into(),
                key: *id,
                at,
            },
            Ev::Archive => {
                a.force_archive("employee", at).unwrap();
                continue;
            }
            _ => continue,
        };
        a.apply(&change).unwrap();
    }
    a
}

/// A result as one string, row order included.
fn render(out: sqlxml::QueryResult) -> String {
    out.rows
        .iter()
        .map(|r| r.iter().map(|v| v.render()).collect::<Vec<_>>().join("|"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run `sql` as written and with `implied` removed; both must agree.
fn assert_same_without(a: &ArchIS, sql: &str, implied: &str) {
    assert!(sql.contains(implied), "{sql}");
    let with = render(a.execute_sql(sql).unwrap());
    let without = render(a.execute_sql(&sql.replacen(implied, "", 1)).unwrap());
    assert_eq!(with, without, "{sql}");
}

/// Adjacent-period shapes over raw H-tables with a total ORDER BY: the
/// pairs themselves, a count, and the same key written from the other
/// side (`b.tstart - 1 = a.tend`).
fn raw_pair_queries() -> Vec<(String, &'static str)> {
    let pairs = "select t2.id, t2.salary, t3.salary, t2.segno, t3.segno, t2.tstart, t3.tstart \
                 from employee_salary as t2, employee_salary as t3 \
                 where t2.id = t3.id and tmeets(t2.tstart, t2.tend, t3.tstart, t3.tend){eq} \
                 order by t2.id, t2.tstart, t3.tstart, t2.segno, t3.segno, t2.salary, t3.salary";
    let count = "select count(*), sum(t3.salary - t2.salary) \
                 from employee_salary as t2, employee_salary as t3 \
                 where t2.id = t3.id and tmeets(t2.tstart, t2.tend, t3.tstart, t3.tend){eq}";
    let flipped = " and t3.tstart - 1 = t2.tend";
    vec![
        (pairs.replace("{eq}", IMPLIED), IMPLIED),
        (count.replace("{eq}", IMPLIED), IMPLIED),
        (pairs.replace("{eq}", flipped), flipped),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Q6 as translated (segment restriction included) and the raw
    /// adjacent-period joins answer byte-identically with and without the
    /// implied equality, on heap and clustered layouts, for every window.
    #[test]
    fn implied_equality_changes_no_answer(
        events in arb_events(),
        clustered in any::<bool>(),
        lo in 0i32..50,
        len in 0i32..30,
    ) {
        let a = build(&events, clustered);
        let q6 = a.translate(&q::q6_xquery(day(lo), day(lo + len))).unwrap();
        assert_same_without(&a, &q6, IMPLIED);
        for (sql, implied) in raw_pair_queries() {
            assert_same_without(&a, &sql, implied);
        }
    }
}

/// A hand-built pair of periods whose equality key matches although they
/// do not meet: `a` is open, so `a.tend + 1` is 10000-01-01, and a period
/// starting that day joins on the key. The residual `tmeets` must reject
/// it; the translated data never holds such a `tstart`, so there the key
/// alone already matches nothing.
#[test]
fn open_period_key_matches_no_period() {
    let a = ArchIS::with_defaults();
    let t = a
        .database()
        .create_table(
            "periods",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("tstart", DataType::Date),
                Field::new("tend", DataType::Date),
            ]),
            StorageKind::Heap,
            &[],
        )
        .unwrap();
    let after_forever = END_OF_TIME + 1;
    assert_eq!(after_forever.to_string(), "10000-01-01");
    let rows = [
        (1, day(0), day(9)),
        (1, day(10), END_OF_TIME),
        (1, after_forever, after_forever),
    ];
    for (id, s, e) in rows {
        t.insert(vec![Value::Int(id), Value::Date(s), Value::Date(e)])
            .unwrap();
    }
    let sql = "select a.tstart, b.tstart from periods as a, periods as b \
               where a.id = b.id and tmeets(a.tstart, a.tend, b.tstart, b.tend) \
               and b.tstart = a.tend + 1 order by a.tstart";
    let out = render(a.execute_sql(sql).unwrap());
    assert_eq!(
        out,
        format!("{}|{}", day(0), day(10)),
        "only the closed period meets"
    );
    // The key alone pairs the open period with the one after forever.
    let key_only = render(
        a.execute_sql(
            "select a.tstart, b.tstart from periods as a, periods as b \
             where a.id = b.id and b.tstart = a.tend + 1 order by a.tstart",
        )
        .unwrap(),
    );
    assert_eq!(key_only.lines().count(), 2, "{key_only}");
    assert_same_without(&a, sql, " and b.tstart = a.tend + 1");

    // On real history an open period's key meets nothing at all.
    let mut h = ArchIS::with_defaults();
    h.create_relation(RelationSpec::employee()).unwrap();
    h.insert(
        "employee",
        7,
        vec![
            ("name".into(), Value::Str("solo".into())),
            ("salary".into(), Value::Int(50_000)),
            ("title".into(), Value::Str("Engineer".into())),
            ("deptno".into(), Value::Str("d01".into())),
        ],
        day(3),
    )
    .unwrap();
    let q6 = h.translate(&q::q6_xquery(day(0), day(30))).unwrap();
    assert_eq!(render(h.execute_sql(&q6).unwrap()), "NULL", "{q6}");
}
