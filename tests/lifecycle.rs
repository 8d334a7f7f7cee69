//! Whole-system lifecycle: a durable ArchIS lives through three sessions —
//! load + archive, compress + more updates, reopen — and must answer every
//! benchmark query exactly like an in-memory twin that replayed the same
//! stream in one go.

use archis::{queries, ArchConfig, ArchIS, Change, RelationSpec};
use dataset::{DatasetConfig, Op};
use relstore::Value;
use temporal::Date;

fn to_change(op: &Op) -> Change {
    match op {
        Op::Hire {
            id,
            name,
            salary,
            title,
            deptno,
            at,
        } => Change::Insert {
            relation: "employee".into(),
            key: *id,
            values: vec![
                ("name".into(), Value::Str(name.clone())),
                ("salary".into(), Value::Int(*salary)),
                ("title".into(), Value::Str(title.clone())),
                ("deptno".into(), Value::Str(deptno.clone())),
            ],
            at: *at,
        },
        Op::Raise { id, salary, at } => Change::Update {
            relation: "employee".into(),
            key: *id,
            changes: vec![("salary".into(), Value::Int(*salary))],
            at: *at,
        },
        Op::TitleChange { id, title, at } => Change::Update {
            relation: "employee".into(),
            key: *id,
            changes: vec![("title".into(), Value::Str(title.clone()))],
            at: *at,
        },
        Op::DeptChange { id, deptno, at } => Change::Update {
            relation: "employee".into(),
            key: *id,
            changes: vec![("deptno".into(), Value::Str(deptno.clone()))],
            at: *at,
        },
        Op::Leave { id, at } => Change::Delete {
            relation: "employee".into(),
            key: *id,
            at: *at,
        },
    }
}

#[test]
fn durable_segmented_compressed_lifecycle_matches_in_memory_twin() {
    let ops = dataset::generate(&DatasetConfig {
        employees: 25,
        years: 12,
        seed: 1234,
        ..Default::default()
    });
    let (a_end, b_end) = (ops.len() / 3, 2 * ops.len() / 3);
    let path = std::env::temp_dir().join(format!("archis-lifecycle-{}.db", std::process::id()));
    std::fs::remove_file(&path).ok();
    let cfg = || ArchConfig::default().with_umin(0.4);

    // Session 1: first third, usefulness-driven archival, checkpoint.
    {
        let mut db = ArchIS::open_file(&path, cfg()).unwrap();
        db.create_relation(RelationSpec::employee()).unwrap();
        for op in &ops[..a_end] {
            db.apply(&to_change(op)).unwrap();
            db.maybe_archive("employee", op.at()).unwrap();
        }
        db.checkpoint().unwrap();
    }
    // Session 2: compress what is archived, then keep living.
    {
        let mut db = ArchIS::open_file(&path, cfg()).unwrap();
        db.compress_archived("employee").unwrap();
        for op in &ops[a_end..b_end] {
            db.apply(&to_change(op)).unwrap();
            db.maybe_archive("employee", op.at()).unwrap();
        }
        db.checkpoint().unwrap();
    }
    // Session 3: final third, compress again (incremental), checkpoint.
    {
        let mut db = ArchIS::open_file(&path, cfg()).unwrap();
        for op in &ops[b_end..] {
            db.apply(&to_change(op)).unwrap();
            db.maybe_archive("employee", op.at()).unwrap();
        }
        db.force_archive("employee", ops.last().unwrap().at())
            .unwrap();
        db.compress_archived("employee").unwrap();
        db.checkpoint().unwrap();
    }

    // The in-memory twin: one uninterrupted replay, never archived.
    let mut twin = ArchIS::new(ArchConfig::default());
    twin.create_relation(RelationSpec::employee()).unwrap();
    for op in &ops {
        twin.apply(&to_change(op)).unwrap();
    }

    let db = ArchIS::open_file(&path, cfg()).unwrap();
    // The published views are byte-identical.
    assert_eq!(
        db.publish("employee").unwrap().to_xml(),
        twin.publish("employee").unwrap().to_xml(),
        "published H-documents diverged"
    );
    // Scalar benchmark queries agree (through translation on both sides).
    let d = Date::from_ymd(1990, 7, 1).unwrap();
    let w2 = Date::from_ymd(1991, 7, 1).unwrap();
    for q in [
        queries::q2_xquery(d),
        queries::q4_xquery(),
        queries::q5_xquery(45_000, d, w2),
    ] {
        let lhs = db.query(&q).unwrap().scalar_rows().unwrap();
        let rhs = twin.query(&q).unwrap().scalar_rows().unwrap();
        assert_eq!(lhs, rhs, "query {q}");
    }
    // Point lookups read the compressed generations and find the twin's
    // salary. The archived copy of a period still open at archival keeps
    // `tend = forever`, so the elements' `tend` may differ.
    let store = db.compressed_store("employee").unwrap();
    let probe_rows = db.database().table("employee_id").unwrap().scan().unwrap();
    let probe = probe_rows
        .iter()
        .find(|r| r[1].as_date().unwrap() <= d && r[2].as_date().unwrap() >= d)
        .and_then(|r| r[0].as_int())
        .expect("someone employed");
    store.reset_stats();
    let q1 = queries::q1_xquery(probe, d);
    let salaries = |a: &ArchIS| -> Vec<i64> {
        let xml = a.query(&q1).unwrap().xml_fragments().join("");
        xml.split(['<', '>'])
            .filter_map(|t| t.parse().ok())
            .collect()
    };
    assert_eq!(salaries(&db), salaries(&twin), "Q1 for {probe} on {d}");
    let (hits, misses) = store.cache_stats();
    assert!(hits + misses > 0, "Q1 must read compressed blocks");
    std::fs::remove_file(&path).ok();
}
