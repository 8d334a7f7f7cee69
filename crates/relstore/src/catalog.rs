//! The database catalog: named tables over one shared buffer pool.

use crate::buffer::BufferPool;
use crate::heap::{HeapFile, HeapTail, RecordId};
use crate::pager::{FilePager, MemPager};
use crate::table::{IndexDef, Table, TableRoots};
use crate::value::{decode_row, encode_row, DataType, Field, Schema, Value};
use crate::wal::{FileLog, WalConfig, WalPager};
use crate::{Result, StoreError};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Physical layout of a table (see [`crate::table`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Rows in a chained heap file; indexes point at record ids
    /// (DB2-style, the "ArchIS-DB2" configuration).
    Heap,
    /// Rows inside a B+tree keyed by cluster columns (BerkeleyDB-style,
    /// the "ArchIS-ATLaS" configuration).
    Clustered,
}

/// A database: a buffer pool plus a set of named tables.
///
/// Dropping a table unlinks it from the catalog without reclaiming its
/// pages (there is no free-list); storage experiments therefore measure
/// *reachable* pages via [`Table::page_count`], not allocated file size.
pub struct Database {
    pool: Arc<BufferPool>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    /// The durable catalog heap (page 0 of file-backed databases).
    catalog: Option<HeapFile>,
    /// Set by [`Database::abort`] after a mutation failed inside a WAL
    /// bracket: the buffered state may be torn, so [`Database::commit`]
    /// and [`Database::checkpoint`] refuse until the handle is reopened.
    aborted: std::sync::atomic::AtomicBool,
}

impl Database {
    /// An in-memory database with the default pool size.
    pub fn in_memory() -> Self {
        Self::with_capacity(4096)
    }

    /// An in-memory database whose pool holds `pages` pages (used to model
    /// constrained buffer memory in benchmarks).
    pub fn with_capacity(pages: usize) -> Self {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), pages));
        Database {
            pool,
            tables: RwLock::new(HashMap::new()),
            catalog: None,
            aborted: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// A database over a caller-supplied pool (e.g. file-backed).
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        Database {
            pool,
            tables: RwLock::new(HashMap::new()),
            catalog: None,
            aborted: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Open (or create) a **durable** database in a page file. Page 0
    /// anchors the catalog; call [`Database::checkpoint`] to persist table
    /// roots and flush dirty pages before dropping the handle.
    ///
    /// This path writes pages in place with no log — a crash mid-write can
    /// corrupt the file. Prefer [`Database::open_wal`] for crash safety.
    pub fn open_file(path: impl AsRef<Path>, pool_pages: usize) -> Result<Self> {
        let pager = Arc::new(FilePager::open(path)?);
        Self::open_pool(Arc::new(BufferPool::new(pager, pool_pages)))
    }

    /// Open (or create) a durable **crash-safe** database: a page file at
    /// `path` plus a write-ahead log at `<path>.wal`. Page writes are
    /// staged in the log, [`Database::commit`] marks atomic transaction
    /// boundaries (fsynced per `wal`'s group-commit policy), and opening
    /// replays any committed log tail left behind by a crash.
    pub fn open_wal(path: impl AsRef<Path>, pool_pages: usize, wal: WalConfig) -> Result<Self> {
        let mut wal_path = path.as_ref().as_os_str().to_os_string();
        wal_path.push(".wal");
        let base = Arc::new(FilePager::open(path)?);
        let log = Arc::new(FileLog::open(wal_path)?);
        let pager = Arc::new(WalPager::open(base, log, wal)?);
        Self::open_pool(Arc::new(BufferPool::new(pager, pool_pages)))
    }

    /// Open (or create) a durable database over an arbitrary pool whose
    /// pager persists pages (file-backed, WAL-backed, fault-injected, ...).
    /// Fresh stores (zero pages) get a catalog heap anchored at page 0;
    /// existing stores reload every table from it. The pool is taken as
    /// given; it does all its I/O on the caller's thread.
    pub fn open_pool(pool: Arc<BufferPool>) -> Result<Self> {
        let fresh = pool.pager().num_pages() == 0;
        if fresh {
            let catalog = HeapFile::create(pool.clone())?;
            debug_assert_eq!(catalog.first_page(), 0, "catalog must anchor at page 0");
            return Ok(Database {
                pool,
                tables: RwLock::new(HashMap::new()),
                catalog: Some(catalog),
                aborted: std::sync::atomic::AtomicBool::new(false),
            });
        }
        // The catalog's own tail is recorded nowhere; the first append to
        // it (a new table) finds it. Loading only scans.
        let catalog = HeapFile::open(pool.clone(), 0, None);
        let mut tables = HashMap::new();
        for (_, rec) in catalog.scan()? {
            let row = decode_row(&rec)?;
            let entry = CatalogEntry::from_row(&row)?;
            let table = Table::open_existing(
                pool.clone(),
                &entry.name,
                entry.schema,
                entry.kind,
                &entry.cluster,
                &entry.roots,
            )?;
            tables.insert(entry.name, Arc::new(table));
        }
        Ok(Database {
            pool,
            tables: RwLock::new(tables),
            catalog: Some(catalog),
            aborted: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Bring the durable catalog records (every table's schema + current
    /// roots) up to date. Must happen inside every transaction that
    /// touches a table: B+tree roots move when they split and the
    /// per-table row/sequence/page counters advance on every insert, so
    /// recovery to the last commit is only self-consistent if the catalog
    /// committed with the data.
    ///
    /// A record is rewritten only when its encoding changed, and then on
    /// the page it already lives on ([`HeapFile::update`]), so the catalog
    /// chain stays as long as the schema needs no matter how many commits
    /// pass — every open and every snapshot begin scans it.
    fn persist_catalog(&self) -> Result<()> {
        let catalog = self
            .catalog
            .as_ref()
            .ok_or_else(|| StoreError::Io("persist needs a durable database".into()))?;
        let mut stored: HashMap<String, (RecordId, Vec<u8>)> = HashMap::new();
        for item in catalog.cursor() {
            let (rid, rec) = item?;
            let name = CatalogEntry::name_of(&decode_row(&rec)?)?;
            stored.insert(name, (rid, rec));
        }
        for (name, table) in self.tables.read().iter() {
            let entry = CatalogEntry {
                name: name.clone(),
                schema: table.schema().clone(),
                kind: table.kind(),
                cluster: table.cluster_columns(),
                roots: table.roots(),
            };
            let rec = encode_row(&entry.to_row());
            match stored.remove(name) {
                Some((_, old)) if old == rec => {}
                Some((rid, _)) => {
                    catalog.update(rid, &rec)?;
                }
                None => {
                    catalog.insert(&rec)?;
                }
            }
        }
        // What is left belongs to dropped tables.
        for (rid, _) in stored.into_values() {
            catalog.delete(rid)?;
        }
        Ok(())
    }

    /// Whether this database stages writes in a WAL (i.e. whether
    /// [`Database::commit`] provides atomic crash recovery).
    pub fn is_transactional(&self) -> bool {
        self.pool.pager().is_transactional()
    }

    /// Commit a transaction: persist the catalog, push every dirty page to
    /// the (WAL) pager, and append a commit record under the group-commit
    /// policy. The cache stays resident. On non-transactional databases
    /// this is a no-op — writes there are applied in place and there is no
    /// atomicity to provide.
    pub fn commit(&self) -> Result<()> {
        if !self.is_transactional() {
            return Ok(());
        }
        if self.is_aborted() {
            return Err(StoreError::Io(
                "transaction aborted: the buffered state may hold a half-applied \
                 mutation; reopen the database to recover to the last commit"
                    .into(),
            ));
        }
        if self.catalog.is_some() {
            self.persist_catalog()?;
        }
        self.pool.flush_dirty()?;
        self.pool.pager().commit()
    }

    /// Poison this handle after a mutation failed mid-transaction: the
    /// buffer pool (and any in-memory counters layered above) may hold a
    /// half-applied change, and sealing it with a later commit would
    /// persist a torn batch. After `abort`, [`Database::commit`] and
    /// [`Database::checkpoint`] refuse; recovery is reopening the
    /// database, which replays the WAL to the last commit boundary.
    /// No-op on non-transactional databases — writes there are applied in
    /// place and there is no bracket to tear.
    pub fn abort(&self) {
        if self.is_transactional() {
            self.aborted
                .store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Has [`Database::abort`] poisoned this handle?
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Persist the catalog (every table's schema + current roots), write
    /// back all dirty pages, and — on WAL-backed databases — fold the log
    /// into the page file and truncate it. Required before closing a
    /// non-WAL durable database; on WAL databases it bounds recovery time
    /// and reclaims log space.
    pub fn checkpoint(&self) -> Result<()> {
        if self.is_aborted() {
            return Err(StoreError::Io(
                "transaction aborted: refusing to checkpoint a possibly torn \
                 buffer state; reopen the database to recover"
                    .into(),
            ));
        }
        self.persist_catalog()?;
        self.pool.flush_all()?;
        self.pool.pager().checkpoint()?;
        Ok(())
    }

    /// The shared buffer pool (I/O statistics live here).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Sequence number of the last sealed commit (0 on non-transactional
    /// databases, which have no commit notion).
    pub fn commit_lsn(&self) -> u64 {
        self.pool.pager().commit_lsn()
    }

    /// Freeze a read-only [`Snapshot`] of the last durable commit.
    ///
    /// The WAL pager pins its last durable commit without any I/O (commits
    /// still in the group-commit batch are not visible; `sync` the pager
    /// first to read your own writes), and the snapshot gets its own
    /// private buffer pool over a
    /// [`SnapshotPager`](crate::pager::SnapshotPager) — every read resolves
    /// page images as of the pinned commit, so the returned database serves
    /// a consistent catalog, table roots and data no matter what the live
    /// writer commits, flushes or checkpoints concurrently. Works only on
    /// transactional (WAL-backed) databases; the pin is released when the
    /// snapshot drops.
    pub fn begin_snapshot(&self) -> Result<Snapshot> {
        let pager = self.pool.pager().clone();
        let (commit_lsn, num_pages) = pager.pin_snapshot()?.ok_or_else(|| {
            StoreError::Io("snapshots require a transactional (WAL-backed) database".into())
        })?;
        // From here the pin is owned by the SnapshotPager: any early
        // return drops it, which releases the pin.
        let snap = Arc::new(crate::pager::SnapshotPager::new(
            pager, commit_lsn, num_pages,
        ));
        if num_pages == 0 {
            return Err(StoreError::Io(
                "cannot snapshot an empty store (nothing committed yet)".into(),
            ));
        }
        let pool = Arc::new(BufferPool::new(snap, SNAPSHOT_POOL_PAGES));
        let db = Self::open_pool(pool)?;
        Ok(Snapshot { db, commit_lsn })
    }

    /// Create a table. `cluster_columns` is required for
    /// [`StorageKind::Clustered`] and ignored for heap tables.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        kind: StorageKind,
        cluster_columns: &[&str],
    ) -> Result<Arc<Table>> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(StoreError::AlreadyExists(format!("table {name}")));
        }
        let table = Arc::new(Table::create(
            self.pool.clone(),
            name,
            schema,
            kind,
            cluster_columns,
        )?);
        tables.insert(name.to_string(), table.clone());
        Ok(table)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(format!("table {name}")))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Unlink a table from the catalog.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::NotFound(format!("table {name}")))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Rebuild a table compactly: copy all live rows (and index
    /// definitions) into fresh storage and swap it into the catalog.
    /// Reclaims the space of tombstoned records and sparse B+tree pages —
    /// the VACUUM step after ArchIS moves archived segments into
    /// compressed BLOBs.
    pub fn vacuum_table(&self, name: &str) -> Result<Arc<Table>> {
        let old = self.table(name)?;
        let rows = old.scan()?;
        let schema = old.schema().clone();
        let kind = old.kind();
        let cluster: Vec<String> = old.cluster_columns();
        let cluster_refs: Vec<&str> = cluster.iter().map(String::as_str).collect();
        let indexes = old.index_defs();
        let fresh = Arc::new(Table::create(
            self.pool.clone(),
            name,
            schema,
            kind,
            &cluster_refs,
        )?);
        // Bulk-load into the fresh table: clustered scans arrive in key
        // order already, so the rewrite packs pages bottom-up instead of
        // re-splitting its way through row-at-a-time inserts.
        fresh.insert_batch(rows)?;
        for def in indexes {
            let cols: Vec<&str> = def.columns.iter().map(String::as_str).collect();
            fresh.create_index(&def.name, &cols)?;
        }
        self.tables.write().insert(name.to_string(), fresh.clone());
        Ok(fresh)
    }

    /// Pages in the durable catalog's own chain (0 for in-memory
    /// databases): what every open and every snapshot begin scans.
    pub fn catalog_pages(&self) -> Result<u64> {
        self.catalog.as_ref().map_or(Ok(0), |c| Ok(c.walk()?.pages))
    }

    /// Reachable pages across all tables and their indexes.
    pub fn reachable_pages(&self) -> Result<u64> {
        let tables = self.tables.read();
        let mut total = 0;
        for t in tables.values() {
            total += t.page_count()?;
        }
        Ok(total)
    }

    /// Reachable storage in bytes.
    pub fn reachable_bytes(&self) -> Result<u64> {
        Ok(self.reachable_pages()? * crate::page::PAGE_SIZE as u64)
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::in_memory()
    }
}

/// Buffer pool size for snapshot readers. Snapshots are typically
/// short-lived query scopes, so the pool is modest; it only bounds cache
/// residency, not what the snapshot can read.
const SNAPSHOT_POOL_PAGES: usize = 512;

/// A read-only view of a [`Database`] frozen at one durable commit.
///
/// Derefs to [`Database`], so every read API — `table(..)`, scans, index
/// range queries, the executor — works unchanged, resolved against the
/// pinned commit. The snapshot owns a private buffer pool, so the live
/// pool's frames never leak newer images into it. Mutating through a
/// snapshot is a contract violation: writes land in cache but fail with
/// [`StoreError::Io`] the moment they reach the frozen pager (commit on a
/// snapshot is a no-op, since it is non-transactional).
///
/// Dropping the snapshot releases the WAL pin, letting the writer reclaim
/// the retained page versions.
pub struct Snapshot {
    db: Database,
    commit_lsn: u64,
}

impl Snapshot {
    /// The commit this snapshot is frozen at.
    pub fn commit_lsn(&self) -> u64 {
        self.commit_lsn
    }

    /// The frozen database view.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

/// One durable catalog record.
struct CatalogEntry {
    name: String,
    schema: Schema,
    kind: StorageKind,
    cluster: Vec<String>,
    roots: TableRoots,
}

fn dtype_tag(t: DataType) -> &'static str {
    match t {
        DataType::Int => "int",
        DataType::Double => "double",
        DataType::Str => "str",
        DataType::Date => "date",
        DataType::Blob => "blob",
    }
}

fn dtype_of(tag: &str) -> Result<DataType> {
    Ok(match tag {
        "int" => DataType::Int,
        "double" => DataType::Double,
        "str" => DataType::Str,
        "date" => DataType::Date,
        "blob" => DataType::Blob,
        other => {
            return Err(StoreError::corrupt(
                crate::CorruptObject::Catalog,
                format!("unknown type tag {other:?}"),
            ))
        }
    })
}

impl CatalogEntry {
    /// Row layout:
    /// `[name, kind, cluster-csv, schema-spec, base, seq, rows, index-spec,
    /// heap-tail, heap-pages]` where schema-spec is `col:type,...` and
    /// index-spec is `name|col,col|root;...` (column names are SQL
    /// identifiers, so the separators cannot occur inside them). The last
    /// two fields are the heap chain's tail page and length
    /// ([`TableRoots::heap`]); `-1, 0` stands for "not recorded" so the
    /// record keeps its size when they become known. Records written
    /// before the counters existed have eight fields and decode the same
    /// way.
    fn to_row(&self) -> Vec<Value> {
        let schema_spec = self
            .schema
            .fields
            .iter()
            .map(|f| format!("{}:{}", f.name, dtype_tag(f.dtype)))
            .collect::<Vec<_>>()
            .join(",");
        let index_spec = self
            .roots
            .indexes
            .iter()
            .map(|(def, root)| format!("{}|{}|{}", def.name, def.columns.join(","), root))
            .collect::<Vec<_>>()
            .join(";");
        let (tail, pages) = self
            .roots
            .heap
            .map_or((-1, 0), |t| (t.page as i64, t.pages as i64));
        vec![
            Value::Str(self.name.clone()),
            Value::Int(matches!(self.kind, StorageKind::Clustered) as i64),
            Value::Str(self.cluster.join(",")),
            Value::Str(schema_spec),
            Value::Int(self.roots.base as i64),
            Value::Int(self.roots.seq as i64),
            Value::Int(self.roots.rows as i64),
            Value::Str(index_spec),
            Value::Int(tail),
            Value::Int(pages),
        ]
    }

    fn corrupt(m: &str) -> StoreError {
        StoreError::corrupt(crate::CorruptObject::Catalog, format!("record: {m}"))
    }

    /// The table a catalog record describes.
    fn name_of(row: &[Value]) -> Result<String> {
        row.first()
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| Self::corrupt("expected a string field"))
    }

    fn from_row(row: &[Value]) -> Result<CatalogEntry> {
        let corrupt = Self::corrupt;
        if row.len() != 8 && row.len() != 10 {
            return Err(corrupt("wrong arity"));
        }
        let get_str = |i: usize| -> Result<&str> {
            row[i]
                .as_str()
                .ok_or_else(|| corrupt("expected a string field"))
        };
        let get_int = |i: usize| -> Result<i64> {
            row[i]
                .as_int()
                .ok_or_else(|| corrupt("expected an int field"))
        };
        let name = Self::name_of(row)?;
        let kind = if get_int(1)? == 1 {
            StorageKind::Clustered
        } else {
            StorageKind::Heap
        };
        let cluster: Vec<String> = get_str(2)?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        let mut fields = Vec::new();
        for spec in get_str(3)?.split(',').filter(|s| !s.is_empty()) {
            let (col, tag) = spec
                .split_once(':')
                .ok_or_else(|| corrupt("malformed schema spec"))?;
            fields.push(Field::new(col, dtype_of(tag)?));
        }
        let mut indexes = Vec::new();
        for spec in get_str(7)?.split(';').filter(|s| !s.is_empty()) {
            let mut parts = spec.split('|');
            let iname = parts
                .next()
                .ok_or_else(|| corrupt("malformed index spec"))?;
            let cols = parts
                .next()
                .ok_or_else(|| corrupt("malformed index spec"))?;
            let root: u64 = parts
                .next()
                .ok_or_else(|| corrupt("malformed index spec"))?
                .parse()
                .map_err(|_| corrupt("bad index root"))?;
            indexes.push((
                IndexDef {
                    name: iname.to_string(),
                    columns: cols.split(',').map(String::from).collect(),
                },
                root,
            ));
        }
        let heap = if row.len() == 10 && get_int(9)? > 0 {
            Some(HeapTail {
                page: get_int(8)? as u64,
                pages: get_int(9)? as u64,
            })
        } else {
            None
        };
        Ok(CatalogEntry {
            name,
            schema: Schema::new(fields),
            kind,
            cluster,
            roots: TableRoots {
                base: get_int(4)? as u64,
                seq: get_int(5)? as u64,
                rows: get_int(6)? as u64,
                heap,
                indexes,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Field, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("v", DataType::Str),
        ])
    }

    #[test]
    fn create_lookup_drop() {
        let db = Database::in_memory();
        db.create_table("t", schema(), StorageKind::Heap, &[])
            .unwrap();
        assert!(db.has_table("t"));
        assert!(db
            .create_table("t", schema(), StorageKind::Heap, &[])
            .is_err());
        db.table("t").unwrap();
        assert!(db.table("nope").is_err());
        db.drop_table("t").unwrap();
        assert!(!db.has_table("t"));
        assert!(db.drop_table("t").is_err());
    }

    #[test]
    fn tables_share_the_pool() {
        let db = Database::in_memory();
        let a = db
            .create_table("a", schema(), StorageKind::Heap, &[])
            .unwrap();
        let b = db
            .create_table("b", schema(), StorageKind::Clustered, &["id"])
            .unwrap();
        a.insert(vec![Value::Int(1), Value::Str("x".into())])
            .unwrap();
        b.insert(vec![Value::Int(2), Value::Str("y".into())])
            .unwrap();
        assert_eq!(db.table_names(), vec!["a".to_string(), "b".to_string()]);
        assert!(db.reachable_pages().unwrap() >= 2);
        assert_eq!(
            db.reachable_bytes().unwrap() % crate::page::PAGE_SIZE as u64,
            0
        );
    }

    fn wal_pager() -> Arc<dyn crate::pager::Pager> {
        use crate::pager::MemPager;
        use crate::wal::{MemLog, WalConfig, WalPager};
        let base = Arc::new(MemPager::new());
        let log = Arc::new(MemLog::new());
        Arc::new(WalPager::open(base, log, WalConfig::with_group_commit(1)).unwrap())
    }

    fn open_on(pager: &Arc<dyn crate::pager::Pager>) -> Database {
        Database::open_pool(Arc::new(BufferPool::new(pager.clone(), 256))).unwrap()
    }

    fn wal_db() -> Database {
        open_on(&wal_pager())
    }

    fn wide_row(i: i64) -> Vec<Value> {
        vec![Value::Int(i), Value::Str(format!("{i:0>200}"))]
    }

    #[test]
    fn reopening_reads_the_catalog_and_nothing_else() {
        let pager = wal_pager();
        let db = open_on(&pager);
        let t = db
            .create_table("t", schema(), StorageKind::Heap, &[])
            .unwrap();
        t.create_index("t_by_id", &["id"]).unwrap();
        t.insert_all((0..2_000).map(wide_row)).unwrap();
        db.commit().unwrap();
        let recorded = t.roots().heap.expect("heap tables record their tail");
        assert!(recorded.pages > 50);

        // A second handle and a snapshot both come up after reading the
        // catalog chain only, with the page count in hand.
        let again = open_on(&pager);
        let snap = db.begin_snapshot().unwrap();
        for view in [&again, snap.database()] {
            assert_eq!(
                view.pool().stats().logical_reads,
                db.catalog_pages().unwrap()
            );
            let t = view.table("t").unwrap();
            assert_eq!(t.roots().heap, Some(recorded));
            assert_eq!(t.base_page_count().unwrap(), recorded.pages);
            assert_eq!(
                view.pool().stats().logical_reads,
                db.catalog_pages().unwrap()
            );
        }
        // Appending through the reopened handle touches the tail, not the
        // chain.
        let before = again.pool().stats().logical_reads;
        again.table("t").unwrap().insert(wide_row(2_000)).unwrap();
        assert!(again.pool().stats().logical_reads - before < 10);
    }

    #[test]
    fn eight_field_catalog_records_open_and_upgrade() {
        let pager = wal_pager();
        let pages = {
            let db = open_on(&pager);
            let t = db
                .create_table("t", schema(), StorageKind::Heap, &[])
                .unwrap();
            t.insert_all((0..500).map(wide_row)).unwrap();
            db.commit().unwrap();
            // Rewrite the records the way the previous format had them.
            let catalog = db.catalog.as_ref().unwrap();
            for (rid, rec) in catalog.scan().unwrap() {
                let mut row = decode_row(&rec).unwrap();
                row.truncate(8);
                catalog.update(rid, &encode_row(&row)).unwrap();
            }
            db.pool.flush_dirty().unwrap();
            db.pool.pager().commit().unwrap();
            t.base_page_count().unwrap()
        };
        let db = open_on(&pager);
        let t = db.table("t").unwrap();
        assert_eq!(t.row_count(), 500);
        assert_eq!(t.roots().heap, None, "nothing recorded, nothing walked yet");
        assert_eq!(t.scan().unwrap().len(), 500);
        // The first question that needs the chain's length walks it once;
        // the next commit records the answer for everyone after.
        assert_eq!(t.base_page_count().unwrap(), pages);
        t.insert(wide_row(500)).unwrap();
        db.commit().unwrap();
        let upgraded = open_on(&pager);
        let t = upgraded.table("t").unwrap();
        assert_eq!(t.roots().heap.map(|h| h.pages), Some(pages));
        assert_eq!(t.scan().unwrap().len(), 501);
    }

    #[test]
    fn catalog_chain_does_not_grow_with_commits() {
        let db = wal_db();
        let t = db
            .create_table("t", schema(), StorageKind::Heap, &[])
            .unwrap();
        t.create_index("t_by_id", &["id"]).unwrap();
        let u = db
            .create_table("u", schema(), StorageKind::Clustered, &["id"])
            .unwrap();
        db.commit().unwrap();
        let pages = db.catalog_pages().unwrap();
        // Every commit changes both records (rows, sequence, tail, page
        // count, and now and then a root page number gaining a digit).
        for i in 0..1_000 {
            t.insert(wide_row(i)).unwrap();
            u.insert(wide_row(i)).unwrap();
            db.commit().unwrap();
        }
        assert_eq!(db.catalog_pages().unwrap(), pages);
        db.drop_table("u").unwrap();
        db.commit().unwrap();
        let snap = db.begin_snapshot().unwrap();
        assert_eq!(snap.table_names(), vec!["t".to_string()]);
        assert_eq!(snap.table("t").unwrap().row_count(), 1_000);
    }

    #[test]
    fn snapshot_requires_transactional_store() {
        let db = Database::in_memory();
        assert!(db.begin_snapshot().is_err());
    }

    #[test]
    fn snapshot_is_frozen_while_writer_advances() {
        let db = wal_db();
        let t = db
            .create_table("t", schema(), StorageKind::Clustered, &["id"])
            .unwrap();
        t.insert(vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        db.commit().unwrap();

        let snap = db.begin_snapshot().unwrap();
        let pinned = snap.commit_lsn();

        // Writer keeps mutating: new rows, a new table, a checkpoint fold.
        t.insert(vec![Value::Int(2), Value::Str("b".into())])
            .unwrap();
        db.commit().unwrap();
        db.create_table("u", schema(), StorageKind::Heap, &[])
            .unwrap();
        db.commit().unwrap();
        db.checkpoint().unwrap();

        // The snapshot still sees exactly the pinned state: one table, one
        // row — reads resolve through the version store, not the live pool.
        assert_eq!(snap.table_names(), vec!["t".to_string()]);
        let rows = snap.table("t").unwrap().scan().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(1));
        assert!(snap.table("u").is_err());
        assert_eq!(snap.commit_lsn(), pinned);

        // The live database sees everything.
        assert_eq!(db.table("t").unwrap().scan().unwrap().len(), 2);
        assert!(db.has_table("u"));
        assert!(db.commit_lsn() > pinned);
        drop(snap);
        // Dropping the snapshot releases the pin (versions get pruned on
        // the pager side; a later snapshot pins the newer state).
        let snap2 = db.begin_snapshot().unwrap();
        assert_eq!(snap2.table("t").unwrap().scan().unwrap().len(), 2);
    }

    #[test]
    fn snapshot_writes_never_reach_the_shared_store() {
        let db = wal_db();
        let t = db
            .create_table("t", schema(), StorageKind::Heap, &[])
            .unwrap();
        t.insert(vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        db.commit().unwrap();
        let snap = db.begin_snapshot().unwrap();

        // Anything needing a fresh page fails eagerly: the frozen pager
        // refuses to allocate.
        assert!(snap
            .create_table("u", schema(), StorageKind::Heap, &[])
            .is_err());

        // A row squeezed into an existing page's free space only dirties
        // the snapshot's *private* pool; it is invisible to the live store
        // and to any later snapshot, and dies with the handle.
        let frozen = snap.table("t").unwrap();
        let _ = frozen.insert(vec![Value::Int(9), Value::Str("z".into())]);
        assert_eq!(db.table("t").unwrap().scan().unwrap().len(), 1);
        drop(snap);
        let snap2 = db.begin_snapshot().unwrap();
        assert_eq!(snap2.table("t").unwrap().scan().unwrap().len(), 1);
        assert!(!snap2.has_table("u"));
    }
}
