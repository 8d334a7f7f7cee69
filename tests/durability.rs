//! Durable ArchIS: checkpoint to a page file, drop everything, reopen,
//! and keep querying / updating / archiving — including a compressed
//! store reattached from its BLOB tables.

use archis::{queries, ArchConfig, ArchIS, RelationSpec};
use dataset::{DatasetConfig, Op};
use relstore::failpoint::{FailLog, FailPager, Failpoints};
use relstore::pager::MemPager;
use relstore::wal::{MemLog, WalConfig, WalPager};
use relstore::{BufferPool, Database, Value};
use std::sync::Arc;
use temporal::Date;

fn d(s: &str) -> Date {
    Date::parse(s).unwrap()
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("archis-durable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Remove a page file and its WAL sibling (open_file creates `<path>.wal`);
/// leaving a stale log behind would replay into the next test run.
fn remove_db(path: &std::path::Path) {
    std::fs::remove_file(path).ok();
    let mut wal = path.as_os_str().to_os_string();
    wal.push(".wal");
    std::fs::remove_file(std::path::PathBuf::from(wal)).ok();
}

fn load_bob(a: &mut ArchIS) {
    a.create_relation(RelationSpec::employee()).unwrap();
    a.insert(
        "employee",
        1001,
        vec![
            ("name".into(), Value::Str("Bob".into())),
            ("salary".into(), Value::Int(60000)),
            ("title".into(), Value::Str("Engineer".into())),
            ("deptno".into(), Value::Str("d01".into())),
        ],
        d("1995-01-01"),
    )
    .unwrap();
    a.update(
        "employee",
        1001,
        vec![("salary".into(), Value::Int(70000))],
        d("1995-06-01"),
    )
    .unwrap();
}

#[test]
fn archis_survives_reopen() {
    let path = tmpfile("bob.db");
    remove_db(&path);
    {
        let mut a = ArchIS::open_file(&path, ArchConfig::default()).unwrap();
        load_bob(&mut a);
        a.force_archive("employee", d("1995-12-31")).unwrap();
        a.checkpoint().unwrap();
    }
    {
        let a = ArchIS::open_file(&path, ArchConfig::default()).unwrap();
        // Relation spec restored.
        assert!(a.relation("employee").is_ok());
        // History queries work through the translator.
        let out = a
            .query(
                r#"for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary
                   return $s"#,
            )
            .unwrap();
        let xml = out.xml_fragments().join("");
        assert!(xml.contains("60000") && xml.contains("70000"), "{xml}");
        // Archiver state restored: segment catalog continues at segno 2.
        let segs = a.segments_of("employee", "salary").unwrap();
        assert_eq!(segs[0].segno, 1);
        assert_eq!(segs[0].end, d("1995-12-31"));
        // Updates keep working and usefulness accounting resumes.
        a.update(
            "employee",
            1001,
            vec![("salary".into(), Value::Int(80000))],
            d("1996-06-01"),
        )
        .unwrap();
        a.force_archive("employee", d("1996-12-31")).unwrap();
        let segs = a.segments_of("employee", "salary").unwrap();
        assert_eq!(
            segs.iter().filter(|s| s.segno < 1000).count(),
            2,
            "segno 2 was allocated"
        );
        a.checkpoint().unwrap();
    }
    {
        let a = ArchIS::open_file(&path, ArchConfig::default()).unwrap();
        let n = a
            .query(r#"count(for $s in doc("employees.xml")/employees/employee/salary return $s)"#)
            .unwrap()
            .scalar_rows()
            .unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(n, 3, "three salary periods across both sessions");
    }
    remove_db(&path);
}

#[test]
fn compressed_store_reattaches() {
    let path = tmpfile("compressed.db");
    remove_db(&path);
    {
        let mut a = ArchIS::open_file(&path, ArchConfig::default()).unwrap();
        load_bob(&mut a);
        for (i, date) in ["1996-02-01", "1997-02-01", "1998-02-01"]
            .iter()
            .enumerate()
        {
            a.update(
                "employee",
                1001,
                vec![("salary".into(), Value::Int(71000 + i as i64 * 1000))],
                d(date),
            )
            .unwrap();
        }
        a.force_archive("employee", d("1998-12-31")).unwrap();
        a.compress_archived("employee").unwrap();
        a.checkpoint().unwrap();
    }
    {
        let a = ArchIS::open_file(&path, ArchConfig::default()).unwrap();
        let store = a.compressed_store("employee").expect("store reattached");
        assert!(store.block_count() > 0);
        // The reattached store is the side storage of the attribute
        // tables again: queries read the archived rows out of its blocks.
        store.reset_stats();
        let snap = a
            .query(&queries::q1_xquery(1001, d("1995-03-01")))
            .unwrap()
            .xml_fragments()
            .join("");
        assert!(snap.contains(">60000<"), "{snap}");
        let (hits, misses) = store.cache_stats();
        assert!(hits + misses > 0, "Q1 must read the reattached blocks");
        let hist = a
            .query(&queries::q3_xquery(1001))
            .unwrap()
            .xml_fragments()
            .join("");
        assert_eq!(hist.matches("<salary").count(), 5, "{hist}");
    }
    remove_db(&path);
}

// ---------------------------------------------------------------------------
// Seeded crash torture (ISSUE satellite 1): archive the employee dataset on
// fault-injected media, kill the "machine" at a seeded write position,
// reboot, and check every §6.1 segment invariant plus tstart/tend timeline
// coalescing via `Archiver::verify_invariants`. The full 200-seed sweep runs
// under `--features failpoints` (scripts/ci.sh); the default build runs a
// 40-seed smoke slice so `cargo test -q` stays fast.
// ---------------------------------------------------------------------------

const TORTURE_SEEDS: u64 = if cfg!(feature = "failpoints") {
    200
} else {
    40
};

struct Media {
    fp: Arc<Failpoints>,
    base: Arc<FailPager>,
    log: Arc<FailLog>,
}

fn media(seed: u64) -> Media {
    let fp = Failpoints::new(seed);
    let base = Arc::new(FailPager::new(fp.clone(), Arc::new(MemPager::new())));
    let log = Arc::new(FailLog::new(fp.clone(), Arc::new(MemLog::new())));
    Media { fp, base, log }
}

fn archis_on(m: &Media, batch: usize) -> archis::Result<ArchIS> {
    let pager = Arc::new(WalPager::open(
        m.base.clone(),
        m.log.clone(),
        WalConfig::with_group_commit(batch),
    )?);
    let db = Database::open_pool(Arc::new(BufferPool::new(pager, 256)))?;
    ArchIS::open_with_database(db, ArchConfig::default())
}

fn torture_ops() -> Vec<Op> {
    dataset::generate(&DatasetConfig {
        employees: 16,
        years: 4,
        seed: 7,
        ..Default::default()
    })
}

/// Replay the dataset through ArchIS with a transaction per event and an
/// archival pass at every year boundary, like the paper's trigger mode.
fn archival_workload(m: &Media, batch: usize, ops: &[Op]) -> archis::Result<()> {
    let mut a = archis_on(m, batch)?;
    a.create_relation(RelationSpec::employee())?;
    let mut year = ops.first().map(|o| o.at().year()).unwrap_or(1985);
    for op in ops {
        if op.at().year() > year {
            year = op.at().year();
            a.maybe_archive("employee", op.at())?;
        }
        match op {
            Op::Hire {
                id,
                name,
                salary,
                title,
                deptno,
                at,
            } => a.insert(
                "employee",
                *id,
                vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("salary".into(), Value::Int(*salary)),
                    ("title".into(), Value::Str(title.clone())),
                    ("deptno".into(), Value::Str(deptno.clone())),
                ],
                *at,
            )?,
            Op::Raise { id, salary, at } => a.update(
                "employee",
                *id,
                vec![("salary".into(), Value::Int(*salary))],
                *at,
            )?,
            Op::TitleChange { id, title, at } => a.update(
                "employee",
                *id,
                vec![("title".into(), Value::Str(title.clone()))],
                *at,
            )?,
            Op::DeptChange { id, deptno, at } => a.update(
                "employee",
                *id,
                vec![("deptno".into(), Value::Str(deptno.clone()))],
                *at,
            )?,
            Op::Leave { id, at } => a.delete("employee", *id, *at)?,
        }
    }
    let end = ops
        .last()
        .map(|o| o.at())
        .unwrap_or_else(|| d("1999-12-31"));
    a.force_archive("employee", end)?;
    a.checkpoint()?;
    Ok(())
}

/// Reboot the crashed media and assert the recovered store is internally
/// consistent; returns the recovered ArchIS for follow-on use. A crash
/// before the creating transaction committed leaves no relation — that is
/// a valid (empty) prefix.
fn verify_recovered(m: &Media, ctx: &str) -> Option<ArchIS> {
    let a = archis_on(m, 1).unwrap_or_else(|e| panic!("{ctx}: recovery open failed: {e}"));
    if a.relation("employee").is_err() {
        return None;
    }
    let arch = a
        .archiver_of("employee")
        .unwrap_or_else(|e| panic!("{ctx}: archiver state missing: {e}"));
    let violations = arch
        .verify_invariants(a.database())
        .unwrap_or_else(|e| panic!("{ctx}: invariant scan failed: {e}"));
    assert!(
        violations.is_empty(),
        "{ctx}: invariant violations: {violations:#?}"
    );
    Some(a)
}

#[test]
fn seeded_crash_torture_preserves_archive_invariants() {
    let ops = torture_ops();
    assert!(ops.len() > 40, "dataset too small to exercise archival");

    // Dry run on disarmed media to learn the workload's total write count,
    // so seeded crash positions cover the whole run.
    let dry = media(0);
    archival_workload(&dry, 1, &ops).expect("dry run must not crash");
    let total_writes = dry.fp.writes();
    verify_recovered(&dry, "dry run").expect("dry run persisted the relation");

    let mut survivors = 0u64;
    for seed in 0..TORTURE_SEEDS {
        let m = media(seed);
        m.fp.set_tear_writes(seed % 3 != 0);
        let batch = [1usize, 4, 8][(seed % 3) as usize];
        let pos = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % total_writes + 1;
        m.fp.crash_after_writes(pos);
        match archival_workload(&m, batch, &ops) {
            Ok(()) => {} // crash position landed beyond this batch setting's writes
            Err(_) => assert!(m.fp.crashed(), "seed {seed}: died to a non-injected error"),
        }
        m.fp.revive();

        let ctx = format!("seed {seed} pos {pos} batch {batch}");
        if let Some(a) = verify_recovered(&m, &ctx) {
            survivors += 1;
            // The recovered store stays usable: hire a fresh employee after
            // the horizon, archive, and re-check the invariants end-to-end.
            a.insert(
                "employee",
                999_999,
                vec![
                    ("name".into(), Value::Str("Postcrash".into())),
                    ("salary".into(), Value::Int(1)),
                    ("title".into(), Value::Str("Survivor".into())),
                    ("deptno".into(), Value::Str("d001".into())),
                ],
                d("2002-01-01"),
            )
            .unwrap_or_else(|e| panic!("{ctx}: post-recovery insert failed: {e}"));
            a.force_archive("employee", d("2002-06-01"))
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery archive failed: {e}"));
            let violations = a
                .archiver_of("employee")
                .unwrap()
                .verify_invariants(a.database())
                .unwrap();
            assert!(
                violations.is_empty(),
                "{ctx}: post-recovery violations: {violations:#?}"
            );
        }
    }
    // The sweep must actually recover real states, not just empty stores.
    assert!(
        survivors > TORTURE_SEEDS / 2,
        "only {survivors}/{TORTURE_SEEDS} runs recovered a non-empty store"
    );
}
