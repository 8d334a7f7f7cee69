//! Segment clustering and BlockZIP compression — the paper's §6 and §8
//! machinery, observable step by step.
//!
//! Loads a generated history, watches the usefulness-based archiver cut
//! the live segment into time-delimited archived segments, compresses the
//! archive into independent 4000-byte blocks, and shows that snapshot
//! queries decompress only a handful of blocks while full-history scans
//! touch them all.
//!
//! ```sh
//! cargo run --example archive_compression
//! ```

use archis::htable::LIVE_SEGNO;
use archis::{queries, ArchConfig, ArchIS, RelationSpec};
use dataset::DatasetConfig;
use relstore::Value;
use temporal::Date;

fn main() {
    let ops = dataset::generate(&DatasetConfig {
        employees: 80,
        ..Default::default()
    });

    // Umin = 0.4, the configuration of the paper's benchmarks.
    let mut db = ArchIS::new(ArchConfig::default().with_umin(0.4));
    db.create_relation(RelationSpec::employee()).unwrap();
    for op in &ops {
        db.apply(&bench_change(op)).unwrap();
        db.maybe_archive("employee", op.at()).unwrap();
    }
    let last_day = ops.last().unwrap().at();
    db.force_archive("employee", last_day).unwrap();

    // 1. The segment catalog of the salary history.
    println!("--- salary history segments (Umin = 0.4) ---");
    println!("{:>6}  {:>10}  {:>10}", "segno", "segstart", "segend");
    for seg in db.segments_of("employee", "salary").unwrap() {
        let label = if seg.segno == LIVE_SEGNO {
            "live".to_string()
        } else {
            seg.segno.to_string()
        };
        println!(
            "{label:>6}  {:>10}  {:>10}",
            seg.start.to_string(),
            seg.end.to_string()
        );
    }

    // 2. Storage before compression.
    let before = db.storage_bytes().unwrap();
    println!("\nstorage before compression: {} KiB", before / 1024);

    // 3. BlockZIP the archived segments (live stays updatable).
    let blocks = db.compress_archived("employee").unwrap();
    db.vacuum_relation("employee").unwrap();
    let after = db.storage_bytes().unwrap();
    println!(
        "storage after BlockZIP:     {} KiB ({blocks} blocks)",
        after / 1024
    );
    println!(
        "compression factor:          {:.2}x",
        before as f64 / after as f64
    );

    // 4. Query the compressed archive: a snapshot touches few blocks, a
    //    full history scan touches them all.
    let store = db.compressed_store("employee").unwrap();
    let snap = Date::parse("1993-05-16").unwrap();
    // Probe an employee who was on the payroll on the snapshot date.
    let probe = db
        .database()
        .table("employee_id")
        .unwrap()
        .scan()
        .unwrap()
        .iter()
        .find(|r| r[1].as_date().unwrap() <= snap && r[2].as_date().unwrap() >= snap)
        .and_then(|r| r[0].as_int())
        .expect("someone was employed on the snapshot date");

    // Blocks *touched* (cache hits + misses): the compression pass leaves
    // blocks in the cache, so decompressions alone undercount.
    let touched = |q: &str| {
        store.reset_stats();
        let out = db.query(q).unwrap();
        let (hits, misses) = store.cache_stats();
        (out, hits + misses)
    };
    let (out, blocks) = touched(&queries::q1_xquery(probe, snap));
    println!(
        "\nQ1 (salary of {probe} on {snap}) = {} — touched {blocks} block(s)",
        out.xml_fragments().join("")
    );
    let (out, blocks) = touched(&queries::q2_xquery(snap));
    println!(
        "Q2 (average salary on {snap}) = {:.0} — touched {blocks} block(s)",
        out.scalar_rows().unwrap()[0][0].as_f64().unwrap_or(0.0)
    );
    let (out, blocks) = touched(&queries::q4_xquery());
    println!(
        "Q4 (total salary changes) = {} — touched {blocks} block(s) (full scan)",
        out.scalar_rows().unwrap()[0][0].as_int().unwrap_or(0)
    );

    // 5. Updates keep working against the live segment after compression.
    let current = db.database().table("employee").unwrap().scan().unwrap();
    let someone = current[0][0].as_int().unwrap();
    db.update(
        "employee",
        someone,
        vec![("salary".into(), Value::Int(123_456))],
        last_day.succ(),
    )
    .unwrap();
    println!("\npost-compression update applied to employee {someone} (live segment).");
}

fn bench_change(op: &dataset::Op) -> archis::Change {
    use dataset::Op;
    match op {
        Op::Hire {
            id,
            name,
            salary,
            title,
            deptno,
            at,
        } => archis::Change::Insert {
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
        Op::Raise { id, salary, at } => archis::Change::Update {
            relation: "employee".into(),
            key: *id,
            changes: vec![("salary".into(), Value::Int(*salary))],
            at: *at,
        },
        Op::TitleChange { id, title, at } => archis::Change::Update {
            relation: "employee".into(),
            key: *id,
            changes: vec![("title".into(), Value::Str(title.clone()))],
            at: *at,
        },
        Op::DeptChange { id, deptno, at } => archis::Change::Update {
            relation: "employee".into(),
            key: *id,
            changes: vec![("deptno".into(), Value::Str(deptno.clone()))],
            at: *at,
        },
        Op::Leave { id, at } => archis::Change::Delete {
            relation: "employee".into(),
            key: *id,
            at: *at,
        },
    }
}
