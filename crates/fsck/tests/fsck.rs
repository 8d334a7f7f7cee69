//! End-to-end fsck behavior: clean databases check clean, targeted at-rest
//! corruption is detected and classified, index damage is repaired from
//! base storage with user data intact, and base-storage damage is reported
//! without inventing data. Also the WAL-recovery checksum regression: a
//! crash-recovered, checkpointed base file is checksum-valid everywhere.

use relstore::value::{DataType, Field, Schema, Value};
use relstore::{flip_bit_at, Database, HeapFile, StorageKind, WalConfig};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("archis-fsck-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("name", DataType::Str),
    ])
}

fn row(id: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Str(format!("name-{id}"))]
}

/// Build a durable table with a secondary index; return the pristine rows
/// and the page ids of (index root, heap first page).
fn build_fixture(path: &std::path::Path) -> (Vec<Vec<Value>>, u64, u64) {
    let db = Database::open_file(path, 256).unwrap();
    let t = db
        .create_table("people", schema(), StorageKind::Heap, &[])
        .unwrap();
    t.create_index("people_by_id", &["id"]).unwrap();
    for id in 0..500 {
        t.insert(row(id)).unwrap();
    }
    db.checkpoint().unwrap();
    let roots = t.roots();
    let mut rows = t.scan().unwrap();
    rows.sort_by_key(|r| format!("{r:?}"));
    (rows, roots.indexes[0].1, roots.base)
}

fn dump(path: &std::path::Path, table: &str) -> Vec<Vec<Value>> {
    let db = Database::open_file(path, 256).unwrap();
    let mut rows = db.table(table).unwrap().scan().unwrap();
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

#[test]
fn clean_database_scrubs_and_checks_clean() {
    let dir = tmpdir("clean");
    let path = dir.join("db.pages");
    build_fixture(&path);
    let scrub = archis_fsck::scrub(&path).unwrap();
    assert_eq!(scrub.exit_code(), 0, "{}", scrub.render());
    assert!(scrub.pages > 0);
    let check = archis_fsck::check(&path).unwrap();
    assert_eq!(check.exit_code(), 0, "{}", check.render());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_page_bit_flip_is_detected_and_repaired() {
    let dir = tmpdir("idxflip");
    let path = dir.join("db.pages");
    let (pristine, index_root, _) = build_fixture(&path);

    flip_bit_at(&path, index_root, 8 * 100 + 3).unwrap();

    // Detection: scrub pins the page, check classifies the index.
    let scrub = archis_fsck::scrub(&path).unwrap();
    assert_eq!(scrub.exit_code(), 1);
    assert!(scrub.findings.iter().any(|f| f.page == Some(index_root)));
    let check = archis_fsck::check(&path).unwrap();
    assert!(
        check.findings.iter().any(|f| f.kind == "index"),
        "{}",
        check.render()
    );
    assert!(
        !check.findings.iter().any(|f| f.kind == "base"),
        "index damage must not be misreported as base damage: {}",
        check.render()
    );

    // Repair: the index is derived data, so fsck must fully heal the file.
    let repair = archis_fsck::repair(&path).unwrap();
    assert_eq!(repair.exit_code(), 0, "{}", repair.render());
    assert!(
        repair.repairs.iter().any(|r| r.contains("rebuilt index")),
        "{}",
        repair.render()
    );
    assert_eq!(dump(&path, "people"), pristine, "user data intact");
    assert_eq!(archis_fsck::check(&path).unwrap().exit_code(), 0);
    assert_eq!(archis_fsck::scrub(&path).unwrap().exit_code(), 0);

    // The repaired index answers queries again.
    let db = Database::open_file(&path, 256).unwrap();
    let hits = db
        .table("people")
        .unwrap()
        .index_lookup("people_by_id", &[Value::Int(123)])
        .unwrap();
    assert_eq!(hits.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_page_bit_flip_is_reported_not_repaired() {
    let dir = tmpdir("heapflip");
    let path = dir.join("db.pages");
    let (_, _, heap_first) = build_fixture(&path);

    // Damage a mid-chain heap page, not the first one: the first page is
    // read while loading the table at open, so damage there surfaces as
    // an open failure rather than a scan-time base finding.
    let heap_last = {
        let db = Database::open_file(&path, 256).unwrap();
        let heap = HeapFile::open(db.pool().clone(), heap_first, None);
        let last = heap
            .scan()
            .unwrap()
            .iter()
            .map(|(rid, _)| rid.page)
            .max()
            .unwrap();
        assert_ne!(last, heap_first, "fixture must span several heap pages");
        last
    };
    flip_bit_at(&path, heap_last, 8 * 64).unwrap();

    let check = archis_fsck::check(&path).unwrap();
    assert_eq!(check.exit_code(), 1);
    assert!(
        check.findings.iter().any(|f| f.kind == "base"),
        "{}",
        check.render()
    );

    // Repair must not abort, must not invent data, and must keep
    // reporting the damage.
    let repair = archis_fsck::repair(&path).unwrap();
    assert_eq!(repair.exit_code(), 1, "{}", repair.render());
    assert!(repair
        .findings
        .iter()
        .any(|f| f.kind == "base" || f.page == Some(heap_last)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_index_degrades_queries_to_base_scan() {
    let dir = tmpdir("fallback");
    let path = dir.join("db.pages");
    let (_, index_root, _) = build_fixture(&path);
    flip_bit_at(&path, index_root, 8 * 2048).unwrap();

    // Read-only lookups still answer from base storage.
    let db = Database::open_file(&path, 256).unwrap();
    let hits = db
        .table("people")
        .unwrap()
        .index_lookup("people_by_id", &[Value::Int(321)])
        .unwrap();
    assert_eq!(hits.len(), 1, "index corruption must degrade, not fail");
    assert_eq!(hits[0][1], Value::Str("name-321".into()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_recovery_leaves_every_page_checksum_valid() {
    let dir = tmpdir("walcrc");
    let path = dir.join("db.pages");
    {
        let db = Database::open_wal(&path, 256, WalConfig::with_group_commit(1)).unwrap();
        let t = db
            .create_table("people", schema(), StorageKind::Heap, &[])
            .unwrap();
        t.create_index("people_by_id", &["id"]).unwrap();
        for id in 0..300 {
            t.insert(row(id)).unwrap();
        }
        db.commit().unwrap();
        // Unclean close: no checkpoint — recovery must replay the log.
    }
    {
        // Recovery + checkpoint publishes every replayed image into the
        // base file through the stamping write path.
        let db = Database::open_wal(&path, 256, WalConfig::default()).unwrap();
        assert_eq!(db.table("people").unwrap().row_count(), 300);
        db.checkpoint().unwrap();
    }
    let scrub = archis_fsck::scrub(&path).unwrap();
    assert_eq!(scrub.exit_code(), 0, "{}", scrub.render());
    let check = archis_fsck::check(&path).unwrap();
    assert_eq!(check.exit_code(), 0, "{}", check.render());
    std::fs::remove_dir_all(&dir).ok();
}

/// PR-5 degradation path under concurrent access: when an index root is
/// corrupt, every reader thread — index probes and full scans racing on
/// the same shared `Database` — must degrade to base storage and agree
/// with the pristine data, with no panics, no missed rows, and no torn
/// fallback state while the corruption flag flips.
#[test]
fn corrupt_index_degrades_consistently_under_concurrent_readers() {
    let dir = tmpdir("fallback-mt");
    let path = dir.join("db.pages");
    let (pristine, index_root, _) = build_fixture(&path);
    flip_bit_at(&path, index_root, 8 * 2048).unwrap();

    let db = Database::open_file(&path, 256).unwrap();
    let db = &db;
    let pristine = &pristine;
    std::thread::scope(|s| {
        // Probing threads: every lookup answers from base storage.
        for t in 0..4u64 {
            s.spawn(move || {
                let table = db.table("people").unwrap();
                for i in 0..100 {
                    let id = ((t * 131 + i * 7) % 500) as i64;
                    let hits = table
                        .index_lookup("people_by_id", &[Value::Int(id)])
                        .unwrap();
                    assert_eq!(hits.len(), 1, "thread {t}: id {id} lost in fallback");
                    assert_eq!(hits[0][1], Value::Str(format!("name-{id}")));
                }
            });
        }
        // Scanning threads: full scans bypass the index and must always
        // see the complete pristine row set.
        for t in 0..2 {
            s.spawn(move || {
                for _ in 0..10 {
                    let mut rows = db.table("people").unwrap().scan().unwrap();
                    rows.sort_by_key(|r| format!("{r:?}"));
                    assert_eq!(&rows, pristine, "scanner {t}: rows diverged");
                }
            });
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Stats-catalog drift: tamper with the planner's per-segment statistics
/// (wrong row count, narrowed `tend` extreme — the kind of drift that
/// would make pruning *unsound*), and fsck must classify it as a `stats`
/// finding, repair it by recomputing from the data, and check clean after.
#[test]
fn stats_catalog_drift_is_detected_and_recomputed() {
    use archis::{ArchConfig, ArchIS, RelationSpec};
    use temporal::Date;
    let d = |s: &str| Date::parse(s).unwrap();
    let dir = tmpdir("statsdrift");
    let path = dir.join("db.pages");
    {
        let mut a = ArchIS::open_file(&path, ArchConfig::default()).unwrap();
        a.create_relation(RelationSpec::employee()).unwrap();
        for id in 1..=10i64 {
            a.insert(
                "employee",
                id,
                vec![
                    ("name".into(), Value::Str(format!("emp-{id}"))),
                    ("salary".into(), Value::Int(50_000 + id)),
                    ("title".into(), Value::Str("Engineer".into())),
                    ("deptno".into(), Value::Str("d01".into())),
                ],
                d("1995-01-01"),
            )
            .unwrap();
            a.update(
                "employee",
                id,
                vec![("salary".into(), Value::Int(60_000 + id))],
                d("1995-06-01"),
            )
            .unwrap();
        }
        a.force_archive("employee", d("1995-12-31")).unwrap();
        a.checkpoint().unwrap();
    }
    assert_eq!(
        archis_fsck::check(&path).unwrap().exit_code(),
        0,
        "fixture checks clean before tampering"
    );

    // Tamper: shrink the row count and clip temax below the real maximum
    // (an unsound extreme would let the planner prune a live segment).
    {
        let a = ArchIS::open_file(&path, ArchConfig::default()).unwrap();
        let mut stat = a.segment_stats("employee", "salary").unwrap()[0].clone();
        stat.rows -= 3;
        stat.temax = d("1995-02-01");
        relstore::planner::store_stat(a.database(), &stat).unwrap();
        a.checkpoint().unwrap();
    }

    let check = archis_fsck::check(&path).unwrap();
    assert_eq!(check.exit_code(), 1);
    let stats_findings: Vec<_> = check
        .findings
        .iter()
        .filter(|f| f.kind == "stats")
        .collect();
    assert!(
        stats_findings.iter().any(|f| f.message.contains("rows"))
            && stats_findings.iter().any(|f| f.message.contains("temax")),
        "both tampered fields surface: {}",
        check.render()
    );

    let repair = archis_fsck::repair(&path).unwrap();
    assert_eq!(repair.exit_code(), 0, "{}", repair.render());
    assert!(
        repair
            .repairs
            .iter()
            .any(|r| r.contains("statistics catalog recomputed")),
        "{}",
        repair.render()
    );
    assert_eq!(archis_fsck::check(&path).unwrap().exit_code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A stats entry for a segment that holds no rows (phantom) and a segment
/// with rows but no entry (missing) are both findings; repair recomputes
/// the catalog wholesale.
#[test]
fn missing_and_phantom_stats_entries_are_findings() {
    use archis::{ArchConfig, ArchIS, RelationSpec};
    use temporal::Date;
    let d = |s: &str| Date::parse(s).unwrap();
    let dir = tmpdir("statsphantom");
    let path = dir.join("db.pages");
    {
        let mut a = ArchIS::open_file(&path, ArchConfig::default()).unwrap();
        a.create_relation(RelationSpec::employee()).unwrap();
        a.insert(
            "employee",
            1,
            vec![
                ("name".into(), Value::Str("solo".into())),
                ("salary".into(), Value::Int(50_000)),
                ("title".into(), Value::Str("Engineer".into())),
                ("deptno".into(), Value::Str("d01".into())),
            ],
            d("1995-01-01"),
        )
        .unwrap();
        a.update(
            "employee",
            1,
            vec![("salary".into(), Value::Int(60_000))],
            d("1995-06-01"),
        )
        .unwrap();
        a.force_archive("employee", d("1995-12-31")).unwrap();

        // Phantom: an entry for a segment number that does not exist.
        let mut phantom = a.segment_stats("employee", "salary").unwrap()[0].clone();
        phantom.segno = 99;
        relstore::planner::store_stat(a.database(), &phantom).unwrap();
        // Missing: drop the real entry for the title H-table.
        relstore::planner::clear_stats(a.database(), "employee_title").unwrap();
        a.checkpoint().unwrap();
    }

    let check = archis_fsck::check(&path).unwrap();
    assert!(
        check
            .findings
            .iter()
            .any(|f| f.kind == "stats" && f.message.contains("no rows")),
        "phantom entry surfaces: {}",
        check.render()
    );
    assert!(
        check
            .findings
            .iter()
            .any(|f| f.kind == "stats" && f.message.contains("no stats entry")),
        "missing entry surfaces: {}",
        check.render()
    );
    let repair = archis_fsck::repair(&path).unwrap();
    assert_eq!(repair.exit_code(), 0, "{}", repair.render());
    assert_eq!(archis_fsck::check(&path).unwrap().exit_code(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrite one table's catalog record on the closed base file (the
/// catalog heap is anchored at page 0).
fn tamper_catalog_record(path: &std::path::Path, table: &str, f: impl Fn(&mut Vec<Value>)) {
    use relstore::page::{SlottedPage, PAGE_SIZE};
    use relstore::value::{decode_row, encode_row};
    use relstore::{FilePager, Pager};
    let pager = FilePager::open(path).unwrap();
    let mut buf = vec![0u8; PAGE_SIZE];
    pager.read_page(0, &mut buf).unwrap();
    let mut page = SlottedPage::new(&mut buf);
    let (slot, mut row) = page
        .records()
        .map(|(slot, rec)| (slot, decode_row(rec).unwrap()))
        .find(|(_, row)| row[0] == Value::Str(table.into()))
        .expect("catalog record on page 0");
    f(&mut row);
    page.update_in_place(slot, &encode_row(&row)).unwrap();
    pager.write_page(0, &buf).unwrap();
    pager.sync().unwrap();
}

/// The recorded heap tail / page count is a cached counter like the row
/// count: a record that disagrees with the chain is a `counter` finding,
/// repair recounts it from the chain, and no row is touched.
#[test]
fn stale_heap_tail_is_detected_and_recounted() {
    let dir = tmpdir("heaptail");
    let path = dir.join("db.pages");
    let (pristine, _, heap_first) = build_fixture(&path);
    assert_eq!(archis_fsck::check(&path).unwrap().exit_code(), 0);

    // Claim the chain is one page long and ends where it starts.
    tamper_catalog_record(&path, "people", |row| {
        assert_eq!(row.len(), 10, "catalog record carries tail and page count");
        assert!(row[9].as_int().unwrap() > 1, "fixture spans several pages");
        row[8] = Value::Int(heap_first as i64);
        row[9] = Value::Int(1);
    });
    let check = archis_fsck::check(&path).unwrap();
    assert_eq!(check.exit_code(), 1);
    assert!(
        check
            .findings
            .iter()
            .any(|f| f.kind == "counter" && f.message.contains("heap tail")),
        "{}",
        check.render()
    );
    assert_eq!(
        dump(&path, "people"),
        pristine,
        "reads never trust the tail"
    );

    let repair = archis_fsck::repair(&path).unwrap();
    assert_eq!(repair.exit_code(), 0, "{}", repair.render());
    assert!(
        repair.repairs.iter().any(|r| r.contains("heap tail")),
        "{}",
        repair.render()
    );
    assert_eq!(archis_fsck::check(&path).unwrap().exit_code(), 0);
    assert_eq!(dump(&path, "people"), pristine);

    // A record from before the counters existed (eight fields) is not a
    // finding: it opens, answers, and checks clean.
    tamper_catalog_record(&path, "people", |row| row.truncate(8));
    assert_eq!(archis_fsck::check(&path).unwrap().exit_code(), 0);
    assert_eq!(dump(&path, "people"), pristine);
    std::fs::remove_dir_all(&dir).ok();
}
