//! Streaming-scan guarantees: early termination bounds physical I/O, and
//! cursors see exactly what a materialized scan sees.

use relstore::{DataType, Database, Field, Schema, StorageKind, Value};

const ROWS: i64 = 10_000;

fn populated(kind: StorageKind) -> Database {
    // Small pool so a full scan cannot hide in cache: pages must be
    // faulted in as the cursor reaches them.
    let db = Database::with_capacity(64);
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("payload", DataType::Str),
            ]),
            kind,
            &["k"],
        )
        .unwrap();
    t.insert_all((0..ROWS).map(|i| vec![Value::Int(i), Value::Str(format!("payload-{i:06}"))]))
        .unwrap();
    db
}

/// A sequential scan + `take(5)` must not pay full-table cost: the scan pulls
/// pages on demand, so five rows touch a handful of pages, not hundreds.
#[test]
fn seq_scan_with_early_take_does_bounded_io() {
    for kind in [StorageKind::Heap, StorageKind::Clustered] {
        let db = populated(kind);
        let t = db.table("t").unwrap();
        let total_pages = t.page_count().unwrap();
        assert!(
            total_pages > 50,
            "need a multi-page table, got {total_pages}"
        );

        db.pool().flush_all().unwrap();
        db.pool().reset_stats();
        let first5: Vec<_> = t
            .stream()
            .unwrap()
            .take(5)
            .collect::<relstore::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(first5.len(), 5);
        let reads = db.pool().stats().physical_reads;
        assert!(
            reads <= 8,
            "{kind:?}: take(5) faulted {reads} pages of a {total_pages}-page table"
        );

        // A full drain from cold really does touch the whole table, so the
        // bound above is meaningful.
        db.pool().flush_all().unwrap();
        db.pool().reset_stats();
        let all: Vec<_> = t
            .stream()
            .unwrap()
            .collect::<relstore::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(all.len(), ROWS as usize);
        assert!(db.pool().stats().physical_reads > reads * 4);
    }
}

/// Row-for-row: streaming must be a pure re-expression of the
/// materialized scan, in the same order.
#[test]
fn cursor_iteration_equals_materialized_scan() {
    for kind in [StorageKind::Heap, StorageKind::Clustered] {
        let db = populated(kind);
        let t = db.table("t").unwrap();
        let materialized = t.scan().unwrap();
        let streamed: Vec<_> = t
            .stream()
            .unwrap()
            .collect::<relstore::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(materialized.len(), ROWS as usize);
        assert_eq!(
            streamed, materialized,
            "{kind:?}: stream diverged from scan"
        );
    }
}

/// Index-range streaming returns exactly the rows a full scan filtered
/// on the key and sorted by it returns, and stays lazy (five rows from a
/// 10k-row range must not drain the index).
#[test]
fn index_stream_matches_filtered_scan() {
    use std::ops::Bound;
    let db = populated(StorageKind::Heap);
    let t = db.table("t").unwrap();
    t.create_index("t_by_k", &["k"]).unwrap();
    let lo = [Value::Int(100)];
    let hi = [Value::Int(9_900)];
    let mut oracle: Vec<Vec<Value>> = t
        .scan()
        .unwrap()
        .into_iter()
        .filter(|r| (100..9_900).contains(&r[0].as_int().unwrap()))
        .collect();
    oracle.sort_by_key(|r| r[0].as_int().unwrap());
    let streamed: Vec<_> = t
        .index_range_stream("t_by_k", Bound::Included(&lo[..]), Bound::Excluded(&hi[..]))
        .unwrap()
        .collect::<relstore::Result<Vec<_>>>()
        .unwrap();
    assert_eq!(oracle.len(), 9_800);
    assert_eq!(streamed, oracle);

    db.pool().flush_all().unwrap();
    db.pool().reset_stats();
    let first5: Vec<_> = t
        .index_range_stream("t_by_k", Bound::Included(&lo[..]), Bound::Excluded(&hi[..]))
        .unwrap()
        .take(5)
        .collect::<relstore::Result<Vec<_>>>()
        .unwrap();
    assert_eq!(first5.len(), 5);
    let reads = db.pool().stats().physical_reads;
    assert!(
        reads <= 16,
        "early-take over index stream faulted {reads} pages"
    );
}

/// Beginning a snapshot (and profiling or probing a table through it)
/// costs what the catalog and the index descent cost — not what the table
/// holds: doubling the table must not move the reads.
#[test]
fn snapshot_begin_and_point_probe_do_not_grow_with_the_table() {
    use relstore::pager::MemPager;
    use relstore::wal::{MemLog, WalConfig, WalPager};
    use relstore::BufferPool;
    use std::sync::Arc;
    let pager = WalPager::open(
        Arc::new(MemPager::new()),
        Arc::new(MemLog::new()),
        WalConfig::with_group_commit(1),
    )
    .unwrap();
    let db = Database::open_pool(Arc::new(BufferPool::new(Arc::new(pager), 256))).unwrap();
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("payload", DataType::Str),
            ]),
            StorageKind::Heap,
            &[],
        )
        .unwrap();
    t.create_index("t_by_k", &["k"]).unwrap();
    let fill = |range: std::ops::Range<i64>| {
        t.insert_all(range.map(|i| vec![Value::Int(i), Value::Str(format!("payload-{i:06}"))]))
            .unwrap();
        db.commit().unwrap();
    };
    // (reads to begin, reads to learn the page count and fetch one key)
    let measure = || {
        let snap = db.begin_snapshot().unwrap();
        let begin = snap.pool().stats().logical_reads;
        let t = snap.table("t").unwrap();
        let pages = t.base_page_count().unwrap();
        let hit = t.index_lookup("t_by_k", &[Value::Int(4_321)]).unwrap();
        assert_eq!(hit.len(), 1);
        (begin, snap.pool().stats().logical_reads - begin, pages)
    };
    fill(0..ROWS);
    let (begin_1, probe_1, pages_1) = measure();
    fill(ROWS..2 * ROWS);
    let (begin_2, probe_2, pages_2) = measure();
    assert!(pages_2 >= 2 * pages_1 - 1 && pages_1 > 50);
    assert_eq!(
        begin_1, begin_2,
        "snapshot begin read more for a bigger table"
    );
    assert!(begin_1 <= 2, "snapshot begin read {begin_1} pages");
    // One more index level at most.
    assert!(
        probe_2 <= probe_1 + 1 && probe_1 <= 6,
        "{probe_1} then {probe_2}"
    );
}
