//! Durable-database tests: create a file-backed database, checkpoint,
//! drop the handle, reopen, and keep working with all data, indexes and
//! counters intact.

use relstore::{DataType, Database, Field, Schema, StorageKind, Value};
use std::ops::Bound;

fn tmpfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("relstore-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("name", DataType::Str),
        Field::new("when", DataType::Date),
    ])
}

fn row(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::Str(format!("row-{i}")),
        Value::Date(temporal::Date::from_ymd(1995, 1, 1).unwrap() + i as i32),
    ]
}

#[test]
fn checkpoint_and_reopen_heap_and_clustered() {
    let path = tmpfile("mixed.db");
    std::fs::remove_file(&path).ok();
    {
        let db = Database::open_file(&path, 64).unwrap();
        let h = db
            .create_table("heap_t", schema(), StorageKind::Heap, &[])
            .unwrap();
        h.create_index("heap_by_id", &["id"]).unwrap();
        let c = db
            .create_table("clus_t", schema(), StorageKind::Clustered, &["id"])
            .unwrap();
        c.create_index("clus_by_name", &["name"]).unwrap();
        for i in 0..500 {
            h.insert(row(i)).unwrap();
            c.insert(row(i)).unwrap();
        }
        h.delete_where(|r| r[0].as_int().unwrap() % 10 == 0)
            .unwrap();
        db.checkpoint().unwrap();
    }
    {
        let db = Database::open_file(&path, 64).unwrap();
        assert_eq!(
            db.table_names(),
            vec!["clus_t".to_string(), "heap_t".to_string()]
        );
        let h = db.table("heap_t").unwrap();
        let c = db.table("clus_t").unwrap();
        assert_eq!(h.row_count(), 450);
        assert_eq!(c.row_count(), 500);
        // Indexes survived.
        assert_eq!(
            h.index_lookup("heap_by_id", &[Value::Int(11)])
                .unwrap()
                .len(),
            1
        );
        assert!(h
            .index_lookup("heap_by_id", &[Value::Int(10)])
            .unwrap()
            .is_empty());
        assert_eq!(
            c.index_lookup("clus_by_name", &[Value::Str("row-77".into())])
                .unwrap()
                .len(),
            1
        );
        // Clustered range scans still ordered.
        let lo = [Value::Int(100)];
        let hi = [Value::Int(110)];
        let rows: Vec<Vec<Value>> = c
            .cluster_range_stream(Bound::Included(&lo[..]), Bound::Excluded(&hi[..]))
            .unwrap()
            .collect::<relstore::Result<_>>()
            .unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0][0], Value::Int(100));
        // Keep writing after reopen, checkpoint again, reopen again.
        for i in 500..600 {
            h.insert(row(i)).unwrap();
            c.insert(row(i)).unwrap();
        }
        db.checkpoint().unwrap();
    }
    {
        let db = Database::open_file(&path, 64).unwrap();
        assert_eq!(db.table("heap_t").unwrap().row_count(), 550);
        assert_eq!(db.table("clus_t").unwrap().row_count(), 600);
        let scanned = db.table("clus_t").unwrap().scan().unwrap();
        assert_eq!(scanned.len(), 600);
        assert_eq!(scanned.last().unwrap()[1], Value::Str("row-599".into()));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_requires_file_backing() {
    let db = Database::in_memory();
    assert!(db.checkpoint().is_err());
}

#[test]
fn unflushed_changes_after_checkpoint_are_lost_but_consistent() {
    let path = tmpfile("partial.db");
    std::fs::remove_file(&path).ok();
    {
        let db = Database::open_file(&path, 64).unwrap();
        let t = db
            .create_table("t", schema(), StorageKind::Heap, &[])
            .unwrap();
        t.insert(row(1)).unwrap();
        db.checkpoint().unwrap();
        // Insert after the checkpoint, then "crash" (drop without
        // checkpoint): the row may or may not reach disk, but reopening
        // must never fail.
        t.insert(row(2)).unwrap();
    }
    {
        let db = Database::open_file(&path, 64).unwrap();
        let t = db.table("t").unwrap();
        let n = t.scan().unwrap().len();
        assert!(n >= 1, "checkpointed row must survive");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_database_roundtrips() {
    let path = tmpfile("empty.db");
    std::fs::remove_file(&path).ok();
    {
        let db = Database::open_file(&path, 64).unwrap();
        db.checkpoint().unwrap();
    }
    {
        let db = Database::open_file(&path, 64).unwrap();
        assert!(db.table_names().is_empty());
    }
    std::fs::remove_file(&path).ok();
}
