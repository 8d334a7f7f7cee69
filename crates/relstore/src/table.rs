//! Typed tables with automatic secondary-index maintenance.
//!
//! Two layouts mirror the paper's two ArchIS backends:
//!
//! * [`crate::catalog::StorageKind::Heap`] — rows live in a chained heap
//!   file; secondary B+tree indexes map encoded key → record id. This is
//!   the DB2-style layout.
//! * [`crate::catalog::StorageKind::Clustered`] — rows live *inside* a
//!   B+tree keyed by the cluster columns (plus a uniquifier), like a
//!   BerkeleyDB primary database; secondary indexes map encoded key →
//!   cluster key. The paper notes this layout's extra storage overhead
//!   (Figure 11: ArchIS-ATLaS ratio 1.02 vs ArchIS-DB2 0.75).

use crate::btree::{BTree, RangeIter};
use crate::buffer::BufferPool;
use crate::catalog::StorageKind;
use crate::exec::{Cursor, Row};
use crate::expr::Expr;
use crate::heap::{HeapCursor, HeapFile, HeapReader, HeapTail, RecordId};
use crate::value::{decode_row, decode_row_into, encode_key, encode_row, Schema, Value};
use crate::{Result, StoreError};
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Definition of a secondary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within the table.
    pub name: String,
    /// Indexed column names, in key order.
    pub columns: Vec<String>,
}

struct Index {
    def: IndexDef,
    cols: Vec<usize>,
    tree: BTree,
}

/// The persistent roots of a table: everything needed to reattach to it
/// in a page file (see [`crate::catalog::Database::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRoots {
    /// Heap first page, or clustered-B+tree root.
    pub base: crate::page::PageId,
    /// Cluster-key uniquifier counter.
    pub seq: u64,
    /// Live row count.
    pub rows: u64,
    /// Heap tables: the chain's last page and its length, so reattaching
    /// and planning never walk the chain. `None` for clustered tables and
    /// for records written before the counters existed.
    pub heap: Option<HeapTail>,
    /// Secondary indexes with their B+tree roots.
    pub indexes: Vec<(IndexDef, crate::page::PageId)>,
}

/// Findings from [`Table::verify`]. Base-storage damage is report-only
/// (rows are the source of truth); index and counter damage is repairable
/// from base storage ([`Table::rebuild_index`] / [`Table::recount_rows`] /
/// [`Table::recount_heap`]).
#[derive(Debug, Clone, Default)]
pub struct TableCheck {
    /// Problems reading base storage (heap or clustered primary).
    pub base_errors: Vec<String>,
    /// `(index name, problem)` for each corrupt or diverged index.
    pub bad_indexes: Vec<(String, String)>,
    /// `(cached, actual)` when the cached row counter diverges.
    pub row_count: Option<(u64, u64)>,
    /// `(recorded, actual)` when a heap table's recorded tail page or page
    /// count diverges from its chain.
    pub heap_tail: Option<(HeapTail, HeapTail)>,
}

impl TableCheck {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.base_errors.is_empty()
            && self.bad_indexes.is_empty()
            && self.row_count.is_none()
            && self.heap_tail.is_none()
    }

    /// Findings exist but all are repairable from base storage.
    pub fn is_repairable(&self) -> bool {
        self.base_errors.is_empty()
    }
}

/// A typed table.
pub struct Table {
    name: String,
    schema: Schema,
    kind: StorageKind,
    pool: Arc<BufferPool>,
    heap: Option<HeapFile>,
    clustered: Option<BTree>,
    cluster_cols: Vec<usize>,
    indexes: parking_lot::RwLock<Vec<Index>>,
    /// Uniquifier appended to cluster keys so duplicate cluster-column
    /// values remain distinct entries.
    seq: AtomicU64,
    rows: AtomicU64,
}

impl Table {
    pub(crate) fn create(
        pool: Arc<BufferPool>,
        name: &str,
        schema: Schema,
        kind: StorageKind,
        cluster_columns: &[&str],
    ) -> Result<Self> {
        let cluster_cols = cluster_columns
            .iter()
            .map(|c| schema.require(c))
            .collect::<Result<Vec<_>>>()?;
        let (heap, clustered) = match kind {
            StorageKind::Heap => (Some(HeapFile::create(pool.clone())?), None),
            StorageKind::Clustered => {
                if cluster_cols.is_empty() {
                    return Err(StoreError::SchemaMismatch(format!(
                        "clustered table {name} needs cluster columns"
                    )));
                }
                (None, Some(BTree::create(pool.clone())?))
            }
        };
        Ok(Table {
            name: name.to_string(),
            schema,
            kind,
            pool,
            heap,
            clustered,
            cluster_cols,
            indexes: parking_lot::RwLock::new(Vec::new()),
            seq: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        })
    }

    /// The heap file backing this table. `create`/`open` set exactly one
    /// backing store per [`StorageKind`], so a miss means the catalog
    /// handed out a table whose roots were corrupted — an error, not a
    /// panic, so readers can't take down a commit in flight.
    fn heap_store(&self) -> Result<&HeapFile> {
        self.heap.as_ref().ok_or_else(|| {
            StoreError::corrupt(
                crate::CorruptObject::Table,
                format!("{}: heap store missing", self.name),
            )
        })
    }

    /// The clustered B+tree backing this table (see [`Table::heap_store`]).
    fn tree_store(&self) -> Result<&BTree> {
        self.clustered.as_ref().ok_or_else(|| {
            StoreError::corrupt(
                crate::CorruptObject::Table,
                format!("{}: b+tree missing", self.name),
            )
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Storage layout.
    pub fn kind(&self) -> StorageKind {
        self.kind
    }

    /// Names of the cluster columns (empty for heap tables).
    pub fn cluster_columns(&self) -> Vec<String> {
        self.cluster_cols
            .iter()
            .map(|&i| self.schema.fields[i].name.clone())
            .collect()
    }

    /// Snapshot of the table's persistent roots (for the durable catalog).
    pub fn roots(&self) -> TableRoots {
        TableRoots {
            base: match self.kind {
                // lint:allow(construction invariant: create/open_existing set
                // the backing store matching `kind` before handing the table out)
                StorageKind::Heap => self.heap.as_ref().expect("heap store").first_page(),
                StorageKind::Clustered => self.clustered.as_ref().expect("b+tree").root_page(),
            },
            seq: self.seq.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            heap: self.heap.as_ref().and_then(HeapFile::tail),
            indexes: self
                .indexes
                .read()
                .iter()
                .map(|i| (i.def.clone(), i.tree.root_page()))
                .collect(),
        }
    }

    /// Reattach to a table persisted in a page file, given the roots
    /// recorded by [`Table::roots`] at the last checkpoint.
    pub(crate) fn open_existing(
        pool: Arc<BufferPool>,
        name: &str,
        schema: Schema,
        kind: StorageKind,
        cluster_columns: &[String],
        roots: &TableRoots,
    ) -> Result<Self> {
        let cluster_cols = cluster_columns
            .iter()
            .map(|c| schema.require(c))
            .collect::<Result<Vec<_>>>()?;
        let (heap, clustered) = match kind {
            StorageKind::Heap => (
                Some(HeapFile::open(pool.clone(), roots.base, roots.heap)),
                None,
            ),
            StorageKind::Clustered => (None, Some(BTree::open(pool.clone(), roots.base))),
        };
        let indexes = roots
            .indexes
            .iter()
            .map(|(def, root)| {
                let cols = def
                    .columns
                    .iter()
                    .map(|c| schema.require(c))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Index {
                    def: def.clone(),
                    cols,
                    tree: BTree::open(pool.clone(), *root),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            name: name.to_string(),
            schema,
            kind,
            pool,
            heap,
            clustered,
            cluster_cols,
            indexes: parking_lot::RwLock::new(indexes),
            seq: AtomicU64::new(roots.seq),
            rows: AtomicU64::new(roots.rows),
        })
    }

    /// All index definitions.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.indexes.read().iter().map(|i| i.def.clone()).collect()
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Create a secondary index over `columns` and build it from existing
    /// rows.
    pub fn create_index(&self, name: &str, columns: &[&str]) -> Result<()> {
        {
            let indexes = self.indexes.read();
            if indexes.iter().any(|i| i.def.name == name) {
                return Err(StoreError::AlreadyExists(format!("index {name}")));
            }
        }
        let cols = columns
            .iter()
            .map(|c| self.schema.require(c))
            .collect::<Result<Vec<_>>>()?;
        // Build from existing data, bottom-up: sort the (key, handle)
        // entries into tree order and bulk-load instead of splitting our
        // way through random inserts.
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = self
            .scan_with_handles()?
            .into_iter()
            .map(|(handle, row)| (encode_key(&select(&row, &cols)), handle))
            .collect();
        entries.sort();
        let tree = BTree::bulk_load(self.pool.clone(), entries)?;
        self.indexes.write().push(Index {
            def: IndexDef {
                name: name.into(),
                columns: columns.iter().map(|s| s.to_string()).collect(),
            },
            cols,
            tree,
        });
        Ok(())
    }

    /// Names of the table's indexes.
    pub fn index_names(&self) -> Vec<String> {
        self.indexes
            .read()
            .iter()
            .map(|i| i.def.name.clone())
            .collect()
    }

    /// The index definition for `name`, if present.
    pub fn index_def(&self, name: &str) -> Option<IndexDef> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.def.name == name)
            .map(|i| i.def.clone())
    }

    /// Find an index whose leading column is `column`.
    pub fn index_on(&self, column: &str) -> Option<String> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.def.columns.first().map(String::as_str) == Some(column))
            .map(|i| i.def.name.clone())
    }

    /// The opaque row handle used as index payload: a record id for heap
    /// tables, the full cluster key for clustered tables.
    fn handle_of_cluster_key(key: &[u8]) -> Vec<u8> {
        key.to_vec()
    }

    /// Insert a row.
    pub fn insert(&self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        let bytes = encode_row(&row);
        let handle: Vec<u8> = match self.kind {
            StorageKind::Heap => {
                let rid = self.heap_store()?.insert(&bytes)?;
                rid.to_bytes().to_vec()
            }
            StorageKind::Clustered => {
                let mut key = encode_key(&select(&row, &self.cluster_cols));
                let uniq = self.seq.fetch_add(1, Ordering::Relaxed);
                key.extend_from_slice(&uniq.to_be_bytes());
                self.tree_store()?.insert(&key, &bytes)?;
                Self::handle_of_cluster_key(&key)
            }
        };
        for idx in self.indexes.read().iter() {
            let key = encode_key(&select(&row, &idx.cols));
            idx.tree.insert(&key, &handle)?;
        }
        self.rows.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Insert many rows.
    pub fn insert_all(&self, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<()> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Insert many rows as one batch. Clustered rows are sorted into
    /// cluster-key order first (consecutive inserts then land on the same
    /// leaf, so page pins and WAL page images amortize across the batch;
    /// an empty table is bulk-loaded bottom-up instead), and every
    /// secondary index is maintained with one sorted pass over the batch.
    /// Equivalent to [`Table::insert_all`] row for row.
    pub fn insert_batch(&self, rows: Vec<Vec<Value>>) -> Result<usize> {
        for r in &rows {
            self.schema.check_row(r)?;
        }
        let n = rows.len();
        if n == 0 {
            return Ok(0);
        }
        let was_empty = self.rows.load(Ordering::Relaxed) == 0;
        // (handle, row) pairs after base-storage insertion.
        let mut handles: Vec<(Vec<u8>, Vec<Value>)> = Vec::with_capacity(n);
        match self.kind {
            StorageKind::Heap => {
                let heap = self.heap_store()?;
                for row in rows {
                    let rid = heap.insert(&encode_row(&row))?;
                    handles.push((rid.to_bytes().to_vec(), row));
                }
            }
            StorageKind::Clustered => {
                let tree = self.tree_store()?;
                let mut keyed: Vec<(Vec<u8>, Vec<u8>, Vec<Value>)> = rows
                    .into_iter()
                    .map(|row| {
                        let mut key = encode_key(&select(&row, &self.cluster_cols));
                        let uniq = self.seq.fetch_add(1, Ordering::Relaxed);
                        key.extend_from_slice(&uniq.to_be_bytes());
                        let bytes = encode_row(&row);
                        (key, bytes, row)
                    })
                    .collect();
                // Uniquifiers make every key distinct, so key order is
                // already full (key, value) tree order.
                keyed.sort_by(|a, b| a.0.cmp(&b.0));
                if was_empty {
                    tree.bulk_fill(keyed.iter().map(|(k, b, _)| (k.clone(), b.clone())))?;
                } else {
                    for (k, b, _) in &keyed {
                        tree.insert(k, b)?;
                    }
                }
                handles.extend(
                    keyed
                        .into_iter()
                        .map(|(k, _, row)| (Self::handle_of_cluster_key(&k), row)),
                );
            }
        }
        self.index_batch(&handles, was_empty)?;
        self.rows.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    /// Maintain every secondary index for a batch of freshly inserted
    /// rows: one sorted insertion pass per index; indexes of a previously
    /// empty table are bulk-loaded bottom-up.
    fn index_batch(&self, handles: &[(Vec<u8>, Vec<Value>)], was_empty: bool) -> Result<()> {
        for idx in self.indexes.read().iter() {
            let mut entries: Vec<(Vec<u8>, Vec<u8>)> = handles
                .iter()
                .map(|(h, row)| (encode_key(&select(row, &idx.cols)), h.clone()))
                .collect();
            entries.sort();
            if was_empty {
                idx.tree.bulk_fill(entries)?;
            } else {
                for (k, v) in &entries {
                    idx.tree.insert(k, v)?;
                }
            }
        }
        Ok(())
    }

    /// All rows with their opaque handles (used for index builds and
    /// update/delete plumbing).
    fn scan_with_handles(&self) -> Result<Vec<(Vec<u8>, Vec<Value>)>> {
        match self.kind {
            StorageKind::Heap => {
                let mut out = Vec::new();
                for (rid, bytes) in self.heap_store()?.scan()? {
                    out.push((rid.to_bytes().to_vec(), decode_row(&bytes)?));
                }
                Ok(out)
            }
            StorageKind::Clustered => {
                let mut out = Vec::new();
                let mut iter = self
                    .tree_store()?
                    .range(Bound::Unbounded, Bound::Unbounded)?;
                for (key, bytes) in iter.by_ref() {
                    out.push((Self::handle_of_cluster_key(&key), decode_row(&bytes)?));
                }
                if let Some(e) = iter.take_error() {
                    return Err(e);
                }
                Ok(out)
            }
        }
    }

    /// Full scan. Heap tables return insertion order; clustered tables
    /// return cluster-key order (the temporally grouped order ArchIS relies
    /// on, paper §6).
    pub fn scan(&self) -> Result<Vec<Vec<Value>>> {
        self.stream()?.collect()
    }

    /// Streaming full scan: rows arrive page-at-a-time, in the same order
    /// as [`Table::scan`]. The iterator owns its storage handles, so it
    /// does not borrow the table.
    pub fn stream(&self) -> Result<RowStream> {
        let inner = match self.kind {
            StorageKind::Heap => RowStreamInner::Heap(self.heap_store()?.cursor()),
            StorageKind::Clustered => RowStreamInner::Clustered(
                self.tree_store()?
                    .range(Bound::Unbounded, Bound::Unbounded)?,
            ),
        };
        Ok(RowStream::new(inner))
    }

    /// Fetch the row behind an index payload handle.
    fn fetch(&self, handle: &[u8]) -> Result<Option<Vec<Value>>> {
        let mut row = Vec::new();
        Ok(self.fetcher()?.fetch_into(handle, &mut row)?.then_some(row))
    }

    /// An owning reader of rows by index payload handle.
    fn fetcher(&self) -> Result<RowFetcher> {
        Ok(match self.kind {
            StorageKind::Heap => RowFetcher::Heap(self.heap_store()?.reader()),
            StorageKind::Clustered => RowFetcher::Clustered(self.tree_store()?.clone_handle()),
        })
    }

    /// Rows whose index key equals `key_values` exactly, via index `index`.
    pub fn index_lookup(&self, index: &str, key_values: &[Value]) -> Result<Vec<Vec<Value>>> {
        let key = encode_key(key_values);
        self.index_range_raw(index, Bound::Included(&key[..]), Bound::Included(&key[..]))
    }

    fn index_range_raw(
        &self,
        index: &str,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Result<Vec<Vec<Value>>> {
        let stream = match self.index_stream_raw(index, lo, hi) {
            Ok(s) => s,
            Err(e) if e.is_corrupt() => return self.index_range_fallback(index, lo, hi),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for r in stream {
            match r {
                Ok(row) => out.push(row),
                // A corrupt index page must not fail a read-only query the
                // base storage can still answer: degrade to a table scan.
                Err(e) if e.is_corrupt() => return self.index_range_fallback(index, lo, hi),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Recovery path for a corrupt secondary index: answer the range from
    /// base storage instead. Each row's key for `index` is encoded and
    /// filtered against the same effective bounds the index scan would
    /// use, then sorted so the result comes back in index-key order.
    /// Slower (a full scan), but correct — the index is derived data.
    fn index_range_fallback(
        &self,
        index: &str,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Result<Vec<Vec<Value>>> {
        let cols = {
            let indexes = self.indexes.read();
            indexes
                .iter()
                .find(|i| i.def.name == index)
                .map(|i| i.cols.clone())
                .ok_or_else(|| StoreError::NotFound(format!("index {index} on {}", self.name)))?
        };
        // Same inclusive-prefix widening as the index scan path.
        let hi = widen(hi);
        let mut keyed: Vec<(Vec<u8>, Vec<Value>)> = Vec::new();
        for r in self.stream()? {
            let row = r?;
            let key = encode_key(&select(&row, &cols));
            if (lo, as_bound_slice(&hi)).contains(&key.as_slice()) {
                keyed.push((key, row));
            }
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(keyed.into_iter().map(|(_, r)| r).collect())
    }

    /// Rows whose index key (prefix) lies within the value bounds, in
    /// index-key order. `lo`/`hi` are encoded with [`encode_key`]; a prefix
    /// of the index's columns is allowed — the scan uses the encoded prefix
    /// range. Index entries are walked leaf-by-leaf and rows fetched on
    /// demand, so early termination (LIMIT, point probes) does not pay for
    /// the whole range.
    pub fn index_range_stream(
        &self,
        index: &str,
        lo: Bound<&[Value]>,
        hi: Bound<&[Value]>,
    ) -> Result<RowStream> {
        let (lo, hi) = (map_bound_enc(lo), map_bound_enc(hi));
        self.index_stream_raw(index, as_bound_slice(&lo), as_bound_slice(&hi))
    }

    fn index_stream_raw(
        &self,
        index: &str,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Result<RowStream> {
        let indexes = self.indexes.read();
        let idx = indexes
            .iter()
            .find(|i| i.def.name == index)
            .ok_or_else(|| StoreError::NotFound(format!("index {index} on {}", self.name)))?;
        let entries = idx.tree.range(lo, as_bound_slice(&widen(hi)))?;
        Ok(RowStream::new(RowStreamInner::Index(
            entries,
            self.fetcher()?,
        )))
    }

    /// Range scan over the *primary* clustered B+tree by a cluster-key
    /// (prefix) range — the fast path for `segno = n` segment restrictions
    /// on segment-clustered history tables. Walks the leaf chain lazily in
    /// cluster-key order; errors on heap tables.
    pub fn cluster_range_stream(
        &self,
        lo: Bound<&[Value]>,
        hi: Bound<&[Value]>,
    ) -> Result<RowStream> {
        let tree = self
            .clustered
            .as_ref()
            .ok_or_else(|| StoreError::SchemaMismatch(format!("{} is not clustered", self.name)))?;
        let (lo, hi) = (map_bound_enc(lo), map_bound_enc(hi));
        let hi = widen(as_bound_slice(&hi));
        let iter = tree.range(as_bound_slice(&lo), as_bound_slice(&hi))?;
        Ok(RowStream::new(RowStreamInner::Clustered(iter)))
    }

    /// `(handle, row)` pairs whose index key equals `key_values` (prefix
    /// allowed), via index `index`.
    fn index_handles(
        &self,
        index: &str,
        key_values: &[Value],
    ) -> Result<Vec<(Vec<u8>, Vec<Value>)>> {
        let indexes = self.indexes.read();
        let idx = indexes
            .iter()
            .find(|i| i.def.name == index)
            .ok_or_else(|| StoreError::NotFound(format!("index {index} on {}", self.name)))?;
        let key = encode_key(key_values);
        let mut out = Vec::new();
        let mut entries = idx.tree.scan_prefix(&key)?;
        for (_, handle) in entries.by_ref() {
            if let Some(row) = self.fetch(&handle)? {
                out.push((handle, row));
            }
        }
        // Mutating callers (update/delete via index) must see corruption,
        // not act on a silently truncated handle set.
        if let Some(e) = entries.take_error() {
            return Err(e);
        }
        Ok(out)
    }

    /// Update rows found through an index: rows whose `index` key equals
    /// `key_values` (prefix allowed) and that match `pred` are rewritten
    /// with `f`. Avoids the full-table scan of [`Table::update_where`] —
    /// the path ArchIS uses for its per-key history maintenance.
    pub fn update_via_index(
        &self,
        index: &str,
        key_values: &[Value],
        pred: impl Fn(&[Value]) -> bool,
        f: impl Fn(&mut Vec<Value>),
    ) -> Result<usize> {
        let victims: Vec<(Vec<u8>, Vec<Value>)> = self
            .index_handles(index, key_values)?
            .into_iter()
            .filter(|(_, row)| pred(row))
            .collect();
        let n = victims.len();
        for (handle, row) in victims {
            self.remove_physical(&handle, &row)?;
            let mut new_row = row;
            f(&mut new_row);
            self.insert(new_row)?;
        }
        Ok(n)
    }

    /// Delete rows found through an index (see [`Table::update_via_index`]).
    pub fn delete_via_index(
        &self,
        index: &str,
        key_values: &[Value],
        pred: impl Fn(&[Value]) -> bool,
    ) -> Result<usize> {
        let victims: Vec<(Vec<u8>, Vec<Value>)> = self
            .index_handles(index, key_values)?
            .into_iter()
            .filter(|(_, row)| pred(row))
            .collect();
        let n = victims.len();
        for (handle, row) in victims {
            self.remove_physical(&handle, &row)?;
        }
        Ok(n)
    }

    /// Physically remove one row (base storage + all indexes + counter).
    fn remove_physical(&self, handle: &[u8], row: &[Value]) -> Result<()> {
        match self.kind {
            StorageKind::Heap => {
                self.heap_store()?.delete(RecordId::from_bytes(handle)?)?;
            }
            StorageKind::Clustered => {
                self.tree_store()?.delete(handle, &encode_row(row))?;
            }
        }
        for idx in self.indexes.read().iter() {
            self.unindex(idx, &encode_key(&select(row, &idx.cols)), handle)?;
        }
        self.rows.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drop one row's entry from one index. Every live row has exactly one
    /// entry per index; a missed delete means the index has already
    /// diverged from the base storage, and index_lookup would start
    /// returning handles of deleted rows. Fail loudly instead of
    /// corrupting silently.
    fn unindex(&self, idx: &Index, key: &[u8], handle: &[u8]) -> Result<()> {
        if idx.tree.delete(key, handle)? {
            return Ok(());
        }
        Err(StoreError::corrupt_at(
            idx.tree.root_page(),
            crate::CorruptObject::Index,
            format!(
                "table {}: index {} has no entry for deleted row",
                self.name, idx.def.name
            ),
        ))
    }

    /// Delete all rows matching `pred`; returns how many were removed.
    pub fn delete_where(&self, pred: impl Fn(&[Value]) -> bool) -> Result<usize> {
        let victims: Vec<(Vec<u8>, Vec<Value>)> = self
            .scan_with_handles()?
            .into_iter()
            .filter(|(_, row)| pred(row))
            .collect();
        for (handle, row) in &victims {
            self.remove_physical(handle, row)?;
        }
        Ok(victims.len())
    }

    /// Update all rows matching `pred` by applying `f`; returns how many
    /// changed. A heap row is rewritten on its page when the page can hold
    /// the new encoding — its record id, and every index entry whose key
    /// did not change, stay as they are — so a table rewritten over and
    /// over does not grow. Clustered rows are deleted and reinserted.
    pub fn update_where(
        &self,
        pred: impl Fn(&[Value]) -> bool,
        f: impl Fn(&mut Vec<Value>),
    ) -> Result<usize> {
        let victims: Vec<(Vec<u8>, Vec<Value>)> = self
            .scan_with_handles()?
            .into_iter()
            .filter(|(_, row)| pred(row))
            .collect();
        let n = victims.len();
        for (handle, row) in victims {
            let mut new_row = row.clone();
            f(&mut new_row);
            match self.kind {
                StorageKind::Heap => self.rewrite_heap_row(&handle, &row, new_row)?,
                StorageKind::Clustered => {
                    self.remove_physical(&handle, &row)?;
                    self.insert(new_row)?;
                }
            }
        }
        Ok(n)
    }

    /// Replace the heap row at `handle`, moving it (and re-pointing its
    /// index entries) only if its page cannot hold the new encoding.
    fn rewrite_heap_row(&self, handle: &[u8], old: &[Value], new: Vec<Value>) -> Result<()> {
        self.schema.check_row(&new)?;
        let rid = RecordId::from_bytes(handle)?;
        let new_rid = self.heap_store()?.update(rid, &encode_row(&new))?;
        for idx in self.indexes.read().iter() {
            let old_key = encode_key(&select(old, &idx.cols));
            let new_key = encode_key(&select(&new, &idx.cols));
            if new_rid != rid || new_key != old_key {
                self.unindex(idx, &old_key, handle)?;
                idx.tree.insert(&new_key, &new_rid.to_bytes())?;
            }
        }
        Ok(())
    }

    /// Structural verification of the whole table: base storage (full
    /// scan), every secondary index (tree structure plus a full leaf-chain
    /// walk), and the cached row counter. Problems are *reported*, not
    /// returned as errors, so one finding never hides the rest — the
    /// contract fsck needs to plan repairs.
    pub fn verify(&self) -> TableCheck {
        let mut check = TableCheck::default();
        // Base storage: can every row still be read and decoded?
        let (actual, base_ok) = match self.stream().and_then(count_rows) {
            Ok(n) => (n, true),
            Err(e) => {
                check.base_errors.push(e.to_string());
                (0, false)
            }
        };
        if base_ok {
            let cached = self.rows.load(Ordering::Relaxed);
            if cached != actual {
                check.row_count = Some((cached, actual));
            }
            // The scan above read the whole chain, so this walk cannot
            // fail. A tail nobody recorded yet is not a finding.
            if let Some(heap) = &self.heap {
                if let (Some(recorded), Ok(walked)) = (heap.tail(), heap.walk()) {
                    if recorded != walked {
                        check.heap_tail = Some((recorded, walked));
                    }
                }
            }
        }
        // Secondary indexes: structure check plus a full walk (the walk
        // reads every leaf, so a checksum-failed page surfaces here).
        for idx in self.indexes.read().iter() {
            let walk = (|| -> Result<u64> {
                idx.tree.verify_structure()?;
                let mut live = 0u64;
                let mut it = idx.tree.range(Bound::Unbounded, Bound::Unbounded)?;
                for (_, handle) in it.by_ref() {
                    if self.fetch(&handle)?.is_some() {
                        live += 1;
                    }
                }
                if let Some(e) = it.take_error() {
                    return Err(e);
                }
                Ok(live)
            })();
            match walk {
                // With clean base storage, every live row must be reachable
                // through each index exactly once.
                Ok(live) => {
                    if base_ok && live != actual {
                        check.bad_indexes.push((
                            idx.def.name.clone(),
                            format!("{live} live entries for {actual} rows"),
                        ));
                    }
                }
                Err(e) => check
                    .bad_indexes
                    .push((idx.def.name.clone(), e.to_string())),
            }
        }
        check
    }

    /// Rebuild one secondary index from base storage, replacing its tree
    /// entirely. The repair path for a corrupt index: the old tree is
    /// never read (its pages may be damaged), and the replacement is
    /// bulk-loaded from the rows themselves — an index is derived data,
    /// so this loses nothing. The new root takes effect at the next
    /// catalog checkpoint.
    pub fn rebuild_index(&self, name: &str) -> Result<()> {
        let cols = {
            let indexes = self.indexes.read();
            indexes
                .iter()
                .find(|i| i.def.name == name)
                .map(|i| i.cols.clone())
                .ok_or_else(|| StoreError::NotFound(format!("index {name} on {}", self.name)))?
        };
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = self
            .scan_with_handles()?
            .into_iter()
            .map(|(handle, row)| (encode_key(&select(&row, &cols)), handle))
            .collect();
        entries.sort();
        let tree = BTree::bulk_load(self.pool.clone(), entries)?;
        let mut indexes = self.indexes.write();
        if let Some(idx) = indexes.iter_mut().find(|i| i.def.name == name) {
            idx.tree = tree;
        }
        Ok(())
    }

    /// Recount live rows from base storage and overwrite the cached
    /// counter; returns `(cached, actual)`. The repair path for a
    /// diverged row counter.
    pub fn recount_rows(&self) -> Result<(u64, u64)> {
        let actual = count_rows(self.stream()?)?;
        let cached = self.rows.swap(actual, Ordering::Relaxed);
        Ok((cached, actual))
    }

    /// Re-derive a heap table's tail page and page count from its chain
    /// and overwrite the recorded ones; returns `(recorded, actual)`, or
    /// `None` for clustered tables. The repair path for a diverged tail.
    pub fn recount_heap(&self) -> Result<Option<(Option<HeapTail>, HeapTail)>> {
        self.heap.as_ref().map(HeapFile::recount).transpose()
    }

    /// Pages used by base storage plus all indexes (storage experiments).
    pub fn page_count(&self) -> Result<u64> {
        let base = self.base_page_count()?;
        let mut total = base;
        for idx in self.indexes.read().iter() {
            total += idx.tree.page_count()?;
        }
        Ok(total)
    }

    /// Pages used by base storage alone (heap chain or clustered primary
    /// tree) — what a sequential scan reads. The cost model's input; for
    /// heap tables a recorded counter, not a walk.
    pub fn base_page_count(&self) -> Result<u64> {
        match self.kind {
            StorageKind::Heap => self.heap_store()?.page_count(),
            StorageKind::Clustered => self.tree_store()?.page_count(),
        }
    }
}

/// Streaming iterator over a table's rows (see [`Table::stream`],
/// [`Table::cluster_range_stream`] and [`Table::index_range_stream`]).
/// Owns its storage handles. Each row is decoded into one reused buffer —
/// straight from the stream's copy of its page, or, fetched through an
/// index, under its page's latch. With a predicate
/// ([`RowStream::filtered`]) only the rows that pass are lent (as a
/// [`Cursor`]) or copied out (as an [`Iterator`]).
pub struct RowStream {
    inner: RowStreamInner,
    pred: Option<Expr>,
    buf: Row,
}

enum RowStreamInner {
    Heap(HeapCursor),
    Clustered(RangeIter),
    /// Index entries in key order, each row fetched by its handle.
    Index(RangeIter, RowFetcher),
}

enum RowFetcher {
    Heap(HeapReader),
    Clustered(BTree),
}

impl RowStream {
    fn new(inner: RowStreamInner) -> Self {
        RowStream {
            inner,
            pred: None,
            buf: Vec::new(),
        }
    }

    /// Yield only the rows `pred` accepts (all rows for `None`). The
    /// predicate runs on the decode buffer after the page's latch is
    /// released; a row it rejects is never copied.
    pub fn filtered(mut self, pred: Option<Expr>) -> Self {
        self.pred = pred;
        self
    }
}

impl RowFetcher {
    /// Decode the row behind an index payload handle into `buf`; `false`
    /// if the entry points at a deleted row (lazy index deletion).
    fn fetch_into(&self, handle: &[u8], buf: &mut Row) -> Result<bool> {
        let decoded = match self {
            RowFetcher::Heap(reader) => {
                reader.with_record(RecordId::from_bytes(handle)?, |b| decode_row_into(b, buf))?
            }
            RowFetcher::Clustered(tree) => {
                let mut it = tree.range(Bound::Included(handle), Bound::Included(handle))?;
                match it.next_entry() {
                    Some((_, bytes)) => Some(decode_row_into(bytes, buf)),
                    None => it.take_error().map(Err),
                }
            }
        };
        decoded.transpose().map(|found| found.is_some())
    }
}

/// Each row the predicate keeps is lent in the decode buffer itself: a
/// pipeline reading the stream as a cursor copies nothing.
impl Cursor for RowStream {
    fn advance(&mut self) -> Result<bool> {
        let RowStream { inner, pred, buf } = self;
        loop {
            let decoded = match inner {
                RowStreamInner::Heap(c) => match c.next_record() {
                    Some(record) => {
                        record.and_then(|(_, bytes)| decode_row_into(bytes, buf).map(|()| true))
                    }
                    None => return Ok(false),
                },
                // A corrupt leaf (of the table or of the index) ends the
                // walk early; surface it rather than passing off a
                // truncated scan as complete.
                RowStreamInner::Clustered(it) => match it.next_entry() {
                    Some((_, bytes)) => decode_row_into(bytes, buf).map(|()| true),
                    None => return it.take_error().map_or(Ok(false), Err),
                },
                RowStreamInner::Index(entries, fetch) => match entries.next_entry() {
                    Some((_, handle)) => fetch.fetch_into(handle, buf),
                    None => return entries.take_error().map_or(Ok(false), Err),
                },
            };
            if decoded? && pred.as_ref().map_or(Ok(true), |p| p.eval_bool(buf))? {
                return Ok(true);
            }
        }
    }

    fn row(&self) -> &[Value] {
        &self.buf
    }
}

/// Owned rows: each kept row copied out of the decode buffer. An error
/// comes out in the failing row's place and the scan goes on after it.
impl Iterator for RowStream {
    type Item = Result<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.advance() {
            Ok(true) => Some(Ok(self.buf.clone())),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// The rows of `stream`, counted as they are lent (none is copied out); the
/// first error ends the count.
fn count_rows(mut stream: RowStream) -> Result<u64> {
    let mut n = 0;
    while stream.advance()? {
        n += 1;
    }
    Ok(n)
}

fn select(row: &[Value], cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| row[c].clone()).collect()
}

fn map_bound_enc(b: Bound<&[Value]>) -> Bound<Vec<u8>> {
    match b {
        Bound::Included(v) => Bound::Included(encode_key(v)),
        Bound::Excluded(v) => Bound::Excluded(encode_key(v)),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// An upper bound on encoded keys, an inclusive one widened to cover
/// every longer key with that prefix (composite keys, cluster-key
/// uniquifiers).
fn widen(hi: Bound<&[u8]>) -> Bound<Vec<u8>> {
    match hi {
        Bound::Included(k) => {
            crate::btree::prefix_upper(k).map_or(Bound::Unbounded, Bound::Excluded)
        }
        Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn as_bound_slice(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    match b {
        Bound::Included(v) => Bound::Included(v.as_slice()),
        Bound::Excluded(v) => Bound::Excluded(v.as_slice()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use crate::value::{DataType, Field};
    use temporal::Date;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemPager::new()), 512))
    }

    fn emp_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("salary", DataType::Int),
            Field::new("tstart", DataType::Date),
            Field::new("tend", DataType::Date),
        ])
    }

    fn row(id: i64, sal: i64, s: &str, e: &str) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::Int(sal),
            Value::Date(Date::parse(s).unwrap()),
            Value::Date(Date::parse(e).unwrap()),
        ]
    }

    fn table(kind: StorageKind) -> Table {
        Table::create(pool(), "employee_salary", emp_schema(), kind, &["id"]).unwrap()
    }

    fn both() -> [Table; 2] {
        [table(StorageKind::Heap), table(StorageKind::Clustered)]
    }

    #[test]
    fn insert_scan_roundtrip_both_layouts() {
        for t in both() {
            t.insert(row(2, 50_000, "1989-01-01", "1990-01-01"))
                .unwrap();
            t.insert(row(1, 60_000, "1995-01-01", "1995-05-31"))
                .unwrap();
            assert_eq!(t.row_count(), 2);
            let rows = t.scan().unwrap();
            assert_eq!(rows.len(), 2);
            if t.kind() == StorageKind::Clustered {
                assert_eq!(rows[0][0], Value::Int(1), "clustered scan is key-ordered");
            }
        }
    }

    #[test]
    fn schema_violations_rejected() {
        let t = table(StorageKind::Heap);
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![
                Value::Str("x".into()),
                Value::Int(1),
                Value::Null,
                Value::Null
            ])
            .is_err());
    }

    #[test]
    fn index_lookup_and_range() {
        for t in both() {
            t.create_index("by_id", &["id"]).unwrap();
            for id in 0..50 {
                t.insert(row(id, 1000 * id, "1990-01-01", "1991-01-01"))
                    .unwrap();
            }
            let hits = t.index_lookup("by_id", &[Value::Int(7)]).unwrap();
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0][1], Value::Int(7000));
            let lo = [Value::Int(10)];
            let hi = [Value::Int(19)];
            let range: Vec<Vec<Value>> = t
                .index_range_stream("by_id", Bound::Included(&lo[..]), Bound::Included(&hi[..]))
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(range.len(), 10);
            assert!(t.index_lookup("missing", &[Value::Int(1)]).is_err());
        }
    }

    #[test]
    fn index_built_on_existing_rows() {
        let t = table(StorageKind::Heap);
        for id in 0..20 {
            t.insert(row(id, id, "1990-01-01", "1991-01-01")).unwrap();
        }
        t.create_index("by_id", &["id"]).unwrap();
        assert_eq!(t.index_lookup("by_id", &[Value::Int(13)]).unwrap().len(), 1);
        assert!(
            t.create_index("by_id", &["id"]).is_err(),
            "duplicate index name"
        );
    }

    #[test]
    fn composite_index_prefix_range() {
        for t in both() {
            t.create_index("by_id_start", &["id", "tstart"]).unwrap();
            t.insert(row(1, 10, "1990-01-01", "1991-01-01")).unwrap();
            t.insert(row(1, 20, "1991-01-02", "1992-01-01")).unwrap();
            t.insert(row(2, 30, "1990-01-01", "1991-01-01")).unwrap();
            // Point lookup on the prefix (id only) finds both of id 1.
            let hits = t.index_lookup("by_id_start", &[Value::Int(1)]).unwrap();
            assert_eq!(hits.len(), 2);
        }
    }

    #[test]
    fn delete_where_maintains_indexes() {
        for t in both() {
            t.create_index("by_id", &["id"]).unwrap();
            for id in 0..10 {
                t.insert(row(id, id, "1990-01-01", "1991-01-01")).unwrap();
            }
            let n = t.delete_where(|r| r[0].as_int().unwrap() % 2 == 0).unwrap();
            assert_eq!(n, 5);
            assert_eq!(t.row_count(), 5);
            assert!(t
                .index_lookup("by_id", &[Value::Int(4)])
                .unwrap()
                .is_empty());
            assert_eq!(t.index_lookup("by_id", &[Value::Int(5)]).unwrap().len(), 1);
            assert_eq!(t.scan().unwrap().len(), 5);
        }
    }

    #[test]
    fn update_where_rewrites_row_and_indexes() {
        for t in both() {
            t.create_index("by_salary", &["salary"]).unwrap();
            t.insert(row(1, 60_000, "1995-01-01", "1995-05-31"))
                .unwrap();
            // The ArchIS archival update: close the current period.
            let n = t
                .update_where(|r| r[0] == Value::Int(1), |r| r[1] = Value::Int(70_000))
                .unwrap();
            assert_eq!(n, 1);
            assert!(t
                .index_lookup("by_salary", &[Value::Int(60_000)])
                .unwrap()
                .is_empty());
            assert_eq!(
                t.index_lookup("by_salary", &[Value::Int(70_000)])
                    .unwrap()
                    .len(),
                1
            );
        }
    }

    #[test]
    fn update_where_rewrites_heap_rows_in_place() {
        let t = table(StorageKind::Heap);
        t.create_index("by_id", &["id"]).unwrap();
        t.create_index("by_salary", &["salary"]).unwrap();
        for id in 0..4 {
            t.insert(row(id, 1000 + id, "1990-01-01", "1991-01-01"))
                .unwrap();
        }
        let pages = t.page_count().unwrap();
        // Rewriting the same rows over and over (the meta-table pattern)
        // must not consume a byte: same-size encodings overwrite in place.
        for round in 0..2_000 {
            let n = t
                .update_where(|_| true, |r| r[1] = Value::Int(5000 + round))
                .unwrap();
            assert_eq!(n, 4);
        }
        assert_eq!(t.page_count().unwrap(), pages);
        assert_eq!(t.row_count(), 4);
        assert!(t.verify().is_clean(), "{:?}", t.verify());
        assert_eq!(
            t.index_lookup("by_salary", &[Value::Int(6999)])
                .unwrap()
                .len(),
            4
        );
        assert_eq!(t.index_lookup("by_id", &[Value::Int(2)]).unwrap().len(), 1);
    }

    #[test]
    fn verify_and_recount_audit_the_recorded_heap_tail() {
        let pool = pool();
        let t = Table::create(pool.clone(), "t", emp_schema(), StorageKind::Heap, &[]).unwrap();
        let early = t.roots();
        for id in 0..2000 {
            t.insert(row(id, id, "1990-01-01", "1991-01-01")).unwrap();
        }
        let good = t.roots();
        assert!(good.heap.unwrap().pages > 5);
        assert!(t.verify().is_clean());

        // Reattach with the tail as recorded before the table grew: the
        // audit reports it against the chain, recount repairs it.
        let stale = TableRoots {
            heap: early.heap,
            ..good.clone()
        };
        let t2 =
            Table::open_existing(pool, "t", emp_schema(), StorageKind::Heap, &[], &stale).unwrap();
        let check = t2.verify();
        assert_eq!(
            check.heap_tail,
            Some((early.heap.unwrap(), good.heap.unwrap()))
        );
        assert!(check.is_repairable() && !check.is_clean());
        assert_eq!(
            t2.recount_heap().unwrap(),
            Some((early.heap, good.heap.unwrap()))
        );
        assert!(t2.verify().is_clean());
        assert_eq!(t2.roots(), good);
    }

    #[test]
    fn clustered_requires_cluster_columns() {
        assert!(Table::create(pool(), "t", emp_schema(), StorageKind::Clustered, &[]).is_err());
    }

    #[test]
    fn index_on_finds_by_leading_column() {
        let t = table(StorageKind::Heap);
        t.create_index("by_id_start", &["id", "tstart"]).unwrap();
        assert_eq!(t.index_on("id"), Some("by_id_start".into()));
        assert_eq!(t.index_on("salary"), None);
    }

    #[test]
    fn insert_batch_matches_insert_all() {
        for (batched, one_by_one) in [
            (table(StorageKind::Heap), table(StorageKind::Heap)),
            (table(StorageKind::Clustered), table(StorageKind::Clustered)),
        ] {
            for t in [&batched, &one_by_one] {
                t.create_index("by_salary", &["salary"]).unwrap();
            }
            // Unsorted input with duplicate cluster keys.
            let rows: Vec<Vec<Value>> = (0..500)
                .map(|i| row((i * 37) % 100, 1000 + i % 7, "1990-01-01", "1991-01-01"))
                .collect();
            // Two batches: the first bulk-loads an empty table, the second
            // takes the sorted-insert path into existing trees.
            let (a, b) = rows.split_at(300);
            batched.insert_batch(a.to_vec()).unwrap();
            batched.insert_batch(b.to_vec()).unwrap();
            one_by_one.insert_all(rows.clone()).unwrap();
            assert_eq!(batched.row_count(), one_by_one.row_count());
            let norm = |t: &Table| {
                let mut r = t.scan().unwrap();
                r.sort_by_key(|r| format!("{r:?}"));
                r
            };
            assert_eq!(norm(&batched), norm(&one_by_one));
            for sal in 1000..1007 {
                assert_eq!(
                    batched
                        .index_lookup("by_salary", &[Value::Int(sal)])
                        .unwrap()
                        .len(),
                    one_by_one
                        .index_lookup("by_salary", &[Value::Int(sal)])
                        .unwrap()
                        .len(),
                    "salary {sal}"
                );
            }
            // Batched rows stay individually deletable (indexes point at
            // real handles).
            assert!(batched.delete_where(|r| r[1] == Value::Int(1001)).unwrap() > 0);
        }
    }

    #[test]
    fn page_count_grows_with_data() {
        for t in both() {
            let before = t.page_count().unwrap();
            for id in 0..2000 {
                t.insert(row(id, id, "1990-01-01", "1991-01-01")).unwrap();
            }
            assert!(t.page_count().unwrap() > before);
        }
    }
}
