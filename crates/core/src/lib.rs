//! ArchIS — a transaction-time temporal database system on a relational
//! engine, with XML views and XQuery (ICDE 2006).
//!
//! The system stores the full transaction-time history of relational
//! tables and exposes it two ways:
//!
//! * as **H-documents** — temporally grouped XML views ([`publish`]) that
//!   can be queried natively with the [`xquery`] engine (the paper's
//!   "Tamino" path, provided by the `xmldb` crate), and
//! * as **H-tables** on the relational engine ([`htable`]): a key table
//!   plus one attribute-history table per column, each row timestamped
//!   with an inclusive `[tstart, tend]` period, maintained incrementally
//!   by the [`archive`] layer from inserts / updates / deletes on the
//!   current database.
//!
//! XQuery over the H-documents is translated to SQL/XML over the H-tables
//! ([`translate`], the paper's Algorithm 1) and executed by the `sqlxml`
//! engine. Performance features:
//!
//! * **usefulness-based segment clustering** (paper §6): attribute tables
//!   carry a `segno`; when the live segment's usefulness `U = Nlive/Nall`
//!   drops below `Umin`, its tuples are archived into a new time-delimited
//!   segment (sorted by id) and only still-live tuples are carried
//!   forward. Snapshot and slicing queries are rewritten with segment
//!   restrictions (§6.3).
//! * **BlockZIP compression** ([`compressed`], paper §8): archived
//!   segments can be compressed into 4000-byte independent blocks stored
//!   as BLOBs, decompressed block-wise by the query paths.
//!
//! See `DESIGN.md` at the repository root for the full system inventory.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
pub mod archive;
pub mod compressed;
pub mod htable;
pub mod planner;
pub mod publish;
pub mod queries;
pub mod spec;
pub mod translate;
pub mod udf;

pub use archive::{Change, UpdateLog};
pub use compressed::CompressedStore;
pub use spec::{ArchConfig, RelationSpec};
pub use translate::Translator;

use relstore::expr::FnRegistry;
use relstore::{Database, StorageKind};
use sqlxml::QueryResult;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use temporal::Date;

/// Errors from the ArchIS layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchError {
    /// Unknown relation or attribute.
    NotFound(String),
    /// Storage-engine failure.
    Store(String),
    /// SQL-engine failure.
    Sql(String),
    /// XQuery parse/eval failure.
    XQuery(String),
    /// The translator does not support this query shape.
    Unsupported(String),
    /// Compression failure.
    Compress(String),
    /// Inconsistent update (e.g. updating a key that is not current).
    BadUpdate(String),
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::NotFound(m) => write!(f, "not found: {m}"),
            ArchError::Store(m) => write!(f, "storage error: {m}"),
            ArchError::Sql(m) => write!(f, "sql error: {m}"),
            ArchError::XQuery(m) => write!(f, "xquery error: {m}"),
            ArchError::Unsupported(m) => write!(f, "unsupported query shape: {m}"),
            ArchError::Compress(m) => write!(f, "compression error: {m}"),
            ArchError::BadUpdate(m) => write!(f, "bad update: {m}"),
        }
    }
}

impl std::error::Error for ArchError {}

impl From<relstore::StoreError> for ArchError {
    fn from(e: relstore::StoreError) -> Self {
        ArchError::Store(e.to_string())
    }
}

impl From<sqlxml::SqlError> for ArchError {
    fn from(e: sqlxml::SqlError) -> Self {
        ArchError::Sql(e.to_string())
    }
}

impl From<xquery::XQueryError> for ArchError {
    fn from(e: xquery::XQueryError) -> Self {
        ArchError::XQuery(e.to_string())
    }
}

impl From<blockzip::BlockZipError> for ArchError {
    fn from(e: blockzip::BlockZipError) -> Self {
        ArchError::Compress(e.to_string())
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, ArchError>;

/// Name of the durable meta table holding relation specs.
const META_RELATIONS: &str = "archis_relations";
/// Name of the durable meta table holding archiver live-segment state.
const META_STATE: &str = "archis_state";

fn dtype_tag(t: relstore::value::DataType) -> &'static str {
    use relstore::value::DataType;
    match t {
        DataType::Int => "int",
        DataType::Double => "double",
        DataType::Str => "str",
        DataType::Date => "date",
        DataType::Blob => "blob",
    }
}

fn dtype_of(tag: &str) -> Option<relstore::value::DataType> {
    use relstore::value::DataType;
    Some(match tag {
        "int" => DataType::Int,
        "double" => DataType::Double,
        "str" => DataType::Str,
        "date" => DataType::Date,
        "blob" => DataType::Blob,
        _ => return None,
    })
}

/// Make `table` hold exactly `rows`, which are identified by their first
/// `key_cols` columns. Rows whose contents changed are rewritten where
/// they are and unchanged ones are left alone, so a meta table rewritten
/// at every commit dirties at most its own page and never grows; only a
/// changed key set (a relation was created) replaces the contents.
fn sync_rows(
    table: &relstore::Table,
    key_cols: usize,
    rows: Vec<Vec<relstore::Value>>,
) -> Result<()> {
    let wanted = |held: &[relstore::Value]| {
        rows.iter()
            .find(|r| r.iter().take(key_cols).eq(held.iter().take(key_cols)))
    };
    let held = table.scan()?;
    if held.len() != rows.len() || !held.iter().all(|h| wanted(h).is_some()) {
        table.delete_where(|_| true)?;
        table.insert_all(rows)?;
        return Ok(());
    }
    table.update_where(
        |h| wanted(h).is_some_and(|r| r != h),
        |h| {
            if let Some(r) = wanted(h) {
                h.clone_from(r);
            }
        },
    )?;
    Ok(())
}

/// The ArchIS system facade: a current + historical database with XML
/// views, query translation, segment clustering and optional compression.
pub struct ArchIS {
    db: Database,
    fns: Arc<FnRegistry>,
    config: ArchConfig,
    relations: HashMap<String, RelationSpec>,
    archivers: HashMap<String, archive::Archiver>,
    compressed: HashMap<String, CompressedStore>,
    /// Attribute table → relation, for every table whose archived rows a
    /// [`CompressedStore`] holds. Filled when compression runs or
    /// reattaches, so a query pays one map probe per FROM table.
    compressed_tables: HashMap<String, String>,
}

impl ArchIS {
    /// Build an ArchIS instance with the given configuration.
    pub fn new(config: ArchConfig) -> Self {
        let db = Database::with_capacity(config.buffer_pages);
        let mut registry = FnRegistry::new();
        udf::register_temporal_udfs(&mut registry, config.now);
        ArchIS {
            db,
            fns: Arc::new(registry),
            config,
            relations: HashMap::new(),
            archivers: HashMap::new(),
            compressed: HashMap::new(),
            compressed_tables: HashMap::new(),
        }
    }

    /// Default configuration (heap storage, Umin = 0.4).
    pub fn with_defaults() -> Self {
        Self::new(ArchConfig::default())
    }

    /// Open (or create) a **durable** ArchIS instance: a page file at
    /// `path` plus a write-ahead log at `<path>.wal`. Every archival
    /// operation (apply / archive / compress) commits as an atomic unit,
    /// fsynced per [`ArchConfig::group_commit`]; after a crash, reopening
    /// replays the committed log tail, so the store recovers to the last
    /// durable archival transaction. Relation specs and archiver state are
    /// stored in meta tables and restored on reopen; [`ArchIS::checkpoint`]
    /// folds the log into the page file and truncates it.
    pub fn open_file(path: impl AsRef<std::path::Path>, config: ArchConfig) -> Result<Self> {
        let db = Database::open_wal(
            path,
            config.buffer_pages,
            relstore::WalConfig::with_group_commit(config.group_commit),
        )?;
        Self::open_with_database(db, config)
    }

    /// Build an ArchIS instance over a caller-supplied [`Database`] (e.g.
    /// one opened over a fault-injected or custom WAL pager), restoring
    /// relation specs and archiver state from its meta tables if present.
    pub fn open_with_database(db: Database, config: ArchConfig) -> Result<Self> {
        let mut registry = FnRegistry::new();
        udf::register_temporal_udfs(&mut registry, config.now);
        let mut archis = ArchIS {
            db,
            fns: Arc::new(registry),
            config,
            relations: HashMap::new(),
            archivers: HashMap::new(),
            compressed: HashMap::new(),
            compressed_tables: HashMap::new(),
        };
        archis.restore_meta()?;
        Ok(archis)
    }

    /// Persist relation specs + archiver state and checkpoint the
    /// underlying database (folding and truncating the WAL when present).
    pub fn checkpoint(&self) -> Result<()> {
        self.persist_meta()?;
        self.db.checkpoint()?;
        Ok(())
    }

    /// Commit the current archival transaction on durable WAL-backed
    /// instances: rewrite the meta tables (archiver counters move with
    /// every change) so the committed state is self-describing, then flush
    /// dirty pages to the log and append a commit record. No-op for
    /// in-memory / plain-file instances.
    fn txn_commit(&self) -> Result<()> {
        if !self.db.is_transactional() {
            return Ok(());
        }
        self.persist_meta()?;
        self.db.commit()?;
        Ok(())
    }

    /// [`ArchIS::txn_commit`], then flush the group-commit batch so the
    /// commit is durable before the caller returns. Every commit that
    /// changes tables or the segment catalog uses it: the translator reads
    /// the *live* catalog while snapshots pin the last *durable* commit,
    /// so a snapshot begun after such a call returns must already hold its
    /// effects.
    fn txn_commit_durable(&self) -> Result<()> {
        self.txn_commit()?;
        if self.db.is_transactional() {
            self.db.pool().pager().sync()?;
        }
        Ok(())
    }

    /// Abort the current archival transaction: a mutation failed after it
    /// may have dirtied buffered pages or bumped archiver counters, so the
    /// in-memory state no longer matches any committable boundary. Poisons
    /// the database handle — further commits/checkpoints refuse — and the
    /// caller recovers by reopening, which replays the WAL to the last
    /// commit. No-op for in-memory / plain-file instances.
    fn txn_abort(&self) {
        self.db.abort();
    }

    /// Rewrite the meta tables (relation specs + archiver live-segment
    /// state), creating them on first use.
    fn persist_meta(&self) -> Result<()> {
        use relstore::value::{DataType, Field, Schema};
        if !self.db.has_table(META_RELATIONS) {
            self.db.create_table(
                META_RELATIONS,
                Schema::new(vec![
                    Field::new("name", DataType::Str),
                    Field::new("root", DataType::Str),
                    Field::new("doc", DataType::Str),
                    Field::new("key", DataType::Str),
                    Field::new("attrs", DataType::Str),
                    Field::new("composite", DataType::Str),
                ]),
                StorageKind::Heap,
                &[],
            )?;
            self.db.create_table(
                META_STATE,
                Schema::new(vec![
                    Field::new("relation", DataType::Str),
                    Field::new("attr", DataType::Str),
                    Field::new("nall", DataType::Int),
                    Field::new("nlive", DataType::Int),
                    Field::new("live_start", DataType::Date),
                    Field::new("next_segno", DataType::Int),
                ]),
                StorageKind::Heap,
                &[],
            )?;
        }
        use relstore::Value;
        let mut rel_rows = Vec::new();
        let mut state_rows = Vec::new();
        for spec in self.relations.values() {
            let attrs = spec
                .attrs
                .iter()
                .map(|(a, t)| format!("{a}:{}", dtype_tag(*t)))
                .collect::<Vec<_>>()
                .join(",");
            let composite = spec
                .composite
                .iter()
                .map(|(a, t)| format!("{a}:{}", dtype_tag(*t)))
                .collect::<Vec<_>>()
                .join(",");
            rel_rows.push(vec![
                Value::Str(spec.name.clone()),
                Value::Str(spec.root.clone()),
                Value::Str(spec.doc.clone()),
                Value::Str(spec.key.clone()),
                Value::Str(attrs),
                Value::Str(composite),
            ]);
            let archiver = self.archiver(&spec.name)?;
            for (attr, nall, nlive, live_start, next_segno) in archiver.state_rows() {
                state_rows.push(vec![
                    Value::Str(spec.name.clone()),
                    Value::Str(attr),
                    Value::Int(nall as i64),
                    Value::Int(nlive as i64),
                    Value::Date(live_start),
                    Value::Int(next_segno),
                ]);
            }
        }
        sync_rows(&*self.db.table(META_RELATIONS)?, 1, rel_rows)?;
        sync_rows(&*self.db.table(META_STATE)?, 2, state_rows)?;
        Ok(())
    }

    fn restore_meta(&mut self) -> Result<()> {
        use relstore::value::DataType;
        if !self.db.has_table(META_RELATIONS) {
            return Ok(()); // fresh database
        }
        let specs: Vec<RelationSpec> = self
            .db
            .table(META_RELATIONS)?
            .scan()?
            .into_iter()
            .filter_map(|r| {
                let attrs: Vec<(String, DataType)> = r[4]
                    .as_str()?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .filter_map(|s| {
                        let (a, t) = s.split_once(':')?;
                        Some((a.to_string(), dtype_of(t)?))
                    })
                    .collect();
                let composite: Vec<(String, DataType)> = r[5]
                    .as_str()?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .filter_map(|s| {
                        let (a, t) = s.split_once(':')?;
                        Some((a.to_string(), dtype_of(t)?))
                    })
                    .collect();
                Some(RelationSpec {
                    name: r[0].as_str()?.to_string(),
                    root: r[1].as_str()?.to_string(),
                    doc: r[2].as_str()?.to_string(),
                    key: r[3].as_str()?.to_string(),
                    attrs,
                    composite,
                })
            })
            .collect();
        let state_rows = self.db.table(META_STATE)?.scan()?;
        for spec in specs {
            let rows: Vec<(String, u64, u64, temporal::Date, i64)> = state_rows
                .iter()
                .filter(|r| r[0].as_str() == Some(spec.name.as_str()))
                .filter_map(|r| {
                    Some((
                        r[1].as_str()?.to_string(),
                        r[2].as_int()? as u64,
                        r[3].as_int()? as u64,
                        r[4].as_date()?,
                        r[5].as_int()?,
                    ))
                })
                .collect();
            let archiver = archive::Archiver::reopen(&spec, self.config.umin, &rows);
            // Reattach compressed stores if their blob tables exist.
            if let Some(store) = CompressedStore::reattach(&self.db, &spec).transpose()? {
                self.attach_compressed(store);
            }
            self.archivers.insert(spec.name.clone(), archiver);
            self.relations.insert(spec.name.clone(), spec);
        }
        Ok(())
    }

    /// The system configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// The underlying relational database (current tables + H-tables).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The UDF registry (temporal built-ins registered).
    pub fn functions(&self) -> &Arc<FnRegistry> {
        &self.fns
    }

    /// Register a relation to be archived: creates the current table and
    /// its H-tables (paper §5.1).
    pub fn create_relation(&mut self, spec: RelationSpec) -> Result<()> {
        if self.relations.contains_key(&spec.name) {
            return Err(ArchError::Store(format!(
                "relation {} already exists",
                spec.name
            )));
        }
        let archiver =
            match archive::Archiver::create(&self.db, &spec, self.config.storage, self.config.umin)
            {
                Ok(a) => a,
                Err(e) => {
                    // Table/index creation may have landed partially;
                    // poison the handle rather than let a later commit
                    // seal a half-created relation.
                    self.txn_abort();
                    return Err(e);
                }
            };
        self.relations.insert(spec.name.clone(), spec.clone());
        self.archivers.insert(spec.name.clone(), archiver);
        self.txn_commit_durable()?;
        Ok(())
    }

    /// The registered relation specs.
    pub fn relations(&self) -> impl Iterator<Item = &RelationSpec> {
        self.relations.values()
    }

    /// Look up a relation spec.
    pub fn relation(&self, name: &str) -> Result<&RelationSpec> {
        self.relations
            .get(name)
            .ok_or_else(|| ArchError::NotFound(format!("relation {name}")))
    }

    fn archiver(&self, name: &str) -> Result<&archive::Archiver> {
        self.archivers
            .get(name)
            .ok_or_else(|| ArchError::NotFound(format!("relation {name}")))
    }

    /// Apply one tracked change (the trigger path of paper §5.2). On
    /// durable instances the change commits as one atomic transaction.
    pub fn apply(&self, change: &Change) -> Result<()> {
        let archiver = self.archiver(&change.relation())?;
        if let Err(e) = archiver.apply(&self.db, change) {
            self.txn_abort();
            return Err(e);
        }
        self.txn_commit()
    }

    /// Apply a batch of changes as **one** WAL transaction: each
    /// relation's consecutive run goes through
    /// [`archive::Archiver::apply_batch`], then the whole batch commits
    /// once (meta rewrite + page images + commit record), riding group
    /// commit instead of paying a transaction per change. On durable
    /// instances the batch is the unit of atomicity — a crash mid-batch
    /// recovers to the previous batch boundary.
    pub fn apply_all(&self, changes: &[Change]) -> Result<()> {
        if changes.is_empty() {
            return Ok(());
        }
        let mut i = 0;
        while i < changes.len() {
            let rel = changes[i].relation();
            let mut j = i;
            while j < changes.len() && changes[j].relation() == rel {
                j += 1;
            }
            let run = self
                .archiver(&rel)
                .and_then(|a| a.apply_batch(&self.db, &changes[i..j]));
            if let Err(e) = run {
                self.txn_abort();
                return Err(e);
            }
            i = j;
        }
        self.txn_commit()
    }

    /// Apply a batch of changes (the update-log path of paper §5.2).
    /// Commits once per log, like [`ArchIS::apply_all`].
    pub fn replay(&self, log: &UpdateLog) -> Result<()> {
        self.apply_all(log.changes())
    }

    /// Insert a new current tuple at `at`.
    pub fn insert(
        &self,
        relation: &str,
        key: i64,
        values: Vec<(String, relstore::Value)>,
        at: Date,
    ) -> Result<()> {
        self.apply(&Change::Insert {
            relation: relation.to_string(),
            key,
            values,
            at,
        })
    }

    /// Update attributes of a current tuple at `at` (only changed
    /// attributes get new history rows — temporal grouping by
    /// construction).
    pub fn update(
        &self,
        relation: &str,
        key: i64,
        changes: Vec<(String, relstore::Value)>,
        at: Date,
    ) -> Result<()> {
        self.apply(&Change::Update {
            relation: relation.to_string(),
            key,
            changes,
            at,
        })
    }

    /// Delete a current tuple at `at` (closes all its open periods).
    pub fn delete(&self, relation: &str, key: i64, at: Date) -> Result<()> {
        self.apply(&Change::Delete {
            relation: relation.to_string(),
            key,
            at,
        })
    }

    /// Check usefulness on every attribute table of `relation` and archive
    /// live segments that dropped below `Umin` (paper §6.1). Returns how
    /// many segments were archived.
    pub fn maybe_archive(&self, relation: &str, at: Date) -> Result<usize> {
        let archived = self.archiver(relation)?.maybe_archive(&self.db, at)?;
        if archived > 0 {
            self.txn_commit_durable()?;
        }
        Ok(archived)
    }

    /// Force-archive the live segment of every attribute table (used when
    /// enabling compression or at end of load).
    pub fn force_archive(&self, relation: &str, at: Date) -> Result<usize> {
        let archived = self.archiver(relation)?.force_archive(&self.db, at)?;
        self.txn_commit_durable()?;
        Ok(archived)
    }

    /// Publish the H-document view of a relation's history (paper §3).
    /// When the relation's archived segments were compressed, their rows
    /// are sourced from the BLOB store so the view stays complete.
    pub fn publish(&self, relation: &str) -> Result<xmldom::Element> {
        let spec = self.relation(relation)?;
        match self.compressed.get(relation) {
            None => publish::publish(&self.db, spec),
            Some(store) => {
                publish::publish_with(&self.db, spec, &|attr| store.scan_all(&self.db, attr))
            }
        }
    }

    /// Translate an XQuery on the H-views into SQL/XML on the H-tables
    /// (paper Algorithm 1 + the §6.3 segment restriction).
    pub fn translate(&self, query: &str) -> Result<String> {
        let translator = Translator::new(self);
        translator.translate(query)
    }

    /// Translate and execute an XQuery against the H-tables.
    pub fn query(&self, query: &str) -> Result<QueryResult> {
        let sql = self.translate(query)?;
        self.execute_sql(&sql)
    }

    /// Execute raw SQL/SQL-XML against the database.
    ///
    /// History tables whose archived segments were BlockZIP-compressed are
    /// read as their planned table scan followed by the compressed blocks
    /// the same `(segno, id)` bounds select (paper §8.2's uncompression
    /// table functions, as the engine's [`sqlxml::engine::SideStorage`]):
    /// only those blocks are decompressed, and only rows passing the
    /// pushed-down predicates are copied out of them.
    pub fn execute_sql(&self, sql: &str) -> Result<QueryResult> {
        self.execute_sql_on(&self.db, sql)
    }

    /// [`ArchIS::execute_sql`] against an explicit database view — the
    /// live database or a frozen snapshot of it (see
    /// [`ArchIS::begin_snapshot`]). Compressed blocks are read through the
    /// same view, so a snapshot query decompresses the blocks as of its
    /// pinned commit.
    fn execute_sql_on(&self, db: &Database, sql: &str) -> Result<QueryResult> {
        let stmt = sqlxml::parse_sql(sql).map_err(ArchError::from)?;
        Ok(sqlxml::engine::execute_stmt_with(
            db, &stmt, &self.fns, self,
        )?)
    }

    /// Freeze a read-only [`ArchSnapshot`] at the WAL's last durable
    /// commit (requires a WAL-backed instance, e.g. [`ArchIS::open_file`]).
    /// Pinning never forces the writer's group-commit batch out: ingest
    /// commits still waiting in the batch are not visible (sync the pager
    /// — `database().pool().pager().sync()` — to read your own writes),
    /// while every commit that changes tables or segments (relation
    /// creation, archival, compression, vacuum) is flushed before its call
    /// returns, so the translator's live segment catalog never runs ahead
    /// of a snapshot begun afterwards.
    ///
    /// The snapshot serves Q1–Q6-style temporal queries against exactly
    /// the H-table state as of that commit — a reader at snapshot `S` sees
    /// the timeline as of `S`, coalesced per §6.1 — while `apply` /
    /// `apply_all` ingest keeps committing concurrently on `self`. Readers
    /// never block the writer: the snapshot reads through its own buffer
    /// pool against pinned page versions.
    pub fn begin_snapshot(&self) -> Result<ArchSnapshot<'_>> {
        let snap = self.db.begin_snapshot()?;
        Ok(ArchSnapshot { archis: self, snap })
    }

    /// Compress all *archived* segments of a relation's attribute tables
    /// with BlockZIP (paper §8.2). The live segment stays uncompressed and
    /// updatable. Returns the total number of blocks in the store.
    pub fn compress_archived(&mut self, relation: &str) -> Result<usize> {
        let spec = self.relation(relation)?.clone();
        let archiver = self.archiver(relation)?;
        let store = CompressedStore::build(&self.db, &spec, archiver, self.config.block_size)?;
        let blocks = store.block_count();
        self.attach_compressed(store);
        // Compression moved the archived rows into blocks; refresh the
        // stats catalog so per-segment block counts are recorded.
        self.recompute_stats(relation)?;
        self.txn_commit_durable()?;
        Ok(blocks)
    }

    /// Register a relation's compressed store as the side storage of its
    /// attribute tables.
    fn attach_compressed(&mut self, store: CompressedStore) {
        let spec = store.spec();
        for (attr, _) in &spec.attrs {
            self.compressed_tables
                .insert(htable::attr_table(spec, attr), spec.name.clone());
        }
        self.compressed.insert(spec.name.clone(), store);
    }

    /// The compressed store of a relation, if [`ArchIS::compress_archived`]
    /// ran.
    pub fn compressed_store(&self, relation: &str) -> Option<&CompressedStore> {
        self.compressed.get(relation)
    }

    /// Compressed blocks quarantined as unreadable across all relations.
    /// Nonzero means query answers are missing those blocks' rows.
    pub fn quarantined_blocks(&self) -> u64 {
        self.compressed
            .values()
            .map(|s| s.quarantined_blocks())
            .sum()
    }

    /// Drain the corruption warnings accumulated by all compressed stores
    /// (one line per quarantined block). Callers surface these next to
    /// query results so data loss is reported, never silent.
    pub fn take_corruption_warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for store in self.compressed.values() {
            out.extend(store.take_quarantine_warnings());
        }
        out
    }

    /// Reachable storage in bytes: H-tables (+ indexes), minus raw
    /// archived rows when a compressed store replaced them.
    pub fn storage_bytes(&self) -> Result<u64> {
        Ok(self.db.reachable_bytes()?)
    }

    /// Rebuild every table of a relation compactly (reclaims tombstoned
    /// records and sparse index pages — REORG before storage
    /// measurements).
    pub fn vacuum_relation(&self, relation: &str) -> Result<()> {
        let spec = self.relation(relation)?.clone();
        let mut tables = vec![spec.name.clone(), htable::key_table(&spec)];
        for (attr, _) in &spec.attrs {
            let t = htable::attr_table(&spec, attr);
            tables.push(t.clone());
            for suffix in ["_blob", "_segrange"] {
                let side = format!("{t}{suffix}");
                if self.db.has_table(&side) {
                    tables.push(side);
                }
            }
        }
        for t in tables {
            self.db.vacuum_table(&t)?;
        }
        // Vacuum rewrote the physical layout; rebuild the stats catalog
        // from the data so estimates stay exact.
        self.recompute_stats(relation)?;
        self.txn_commit_durable()?;
        Ok(())
    }

    /// Recompute the per-segment statistics catalog of a relation's
    /// attribute tables from the data itself — uncompressed archived rows
    /// plus the rows of BlockZIP-compressed segments — including
    /// compressed-block counts per segment. Called after vacuum and
    /// compression, and by `archis-fsck` repair when the catalog drifts.
    pub fn recompute_stats(&self, relation: &str) -> Result<()> {
        use relstore::planner;
        let spec = self.relation(relation)?.clone();
        planner::ensure_stats_table(&self.db)?;
        for (attr, _) in &spec.attrs {
            let tname = htable::attr_table(&spec, attr);
            planner::clear_stats(&self.db, &tname)?;
            for stat in self.expected_stats(relation, attr)? {
                planner::store_stat(&self.db, &stat)?;
            }
        }
        Ok(())
    }

    /// What the statistics catalog *should* contain for one attribute's
    /// H-table, computed from the data itself — uncompressed archived rows
    /// plus the rows of BlockZIP-compressed segments — ordered by segment
    /// number. [`ArchIS::recompute_stats`] persists exactly this;
    /// `archis-fsck check` compares the stored catalog against it.
    pub fn expected_stats(&self, relation: &str, attr: &str) -> Result<Vec<relstore::SegStat>> {
        let spec = self.relation(relation)?;
        let tname = htable::attr_table(spec, attr);
        let mut by_seg: HashMap<i64, Vec<(i64, Date, Date)>> = HashMap::new();
        for r in self.db.table(&tname)?.scan()? {
            let (Some(segno), Some(key), Some(ts), Some(te)) =
                (r[0].as_int(), r[1].as_int(), r[3].as_date(), r[4].as_date())
            else {
                continue;
            };
            if segno == htable::LIVE_SEGNO {
                continue;
            }
            by_seg.entry(segno).or_default().push((key, ts, te));
        }
        // Compressed segments: their raw rows were removed from the
        // attribute table, so source them from the block store. A
        // segment can contribute from both sides (a same-day close
        // after compression moves a row into the table copy of an
        // otherwise-compressed segment); the sources are disjoint.
        let mut blocks: HashMap<i64, i64> = HashMap::new();
        if let Some(store) = self.compressed.get(relation) {
            for (segno, lo, hi) in store.segment_ranges(attr)? {
                blocks.insert(segno, (hi as i64) - (lo as i64) + 1);
                let entry = by_seg.entry(segno).or_default();
                for r in store.scan_segment(&self.db, attr, segno)? {
                    let (Some(key), Some(ts), Some(te)) =
                        (r[1].as_int(), r[3].as_date(), r[4].as_date())
                    else {
                        continue;
                    };
                    entry.push((key, ts, te));
                }
            }
        }
        let mut out: Vec<relstore::SegStat> = by_seg
            .into_iter()
            .map(|(segno, rows)| {
                let mut stat = relstore::SegStat::compute(&tname, segno, &rows);
                stat.blocks = blocks.get(&segno).copied().unwrap_or(0);
                stat
            })
            .collect();
        out.sort_by_key(|s| s.segno);
        Ok(out)
    }

    /// The planner's per-segment statistics rows for one attribute's
    /// H-table, ordered by segment number (empty until something is
    /// archived).
    pub fn segment_stats(&self, relation: &str, attr: &str) -> Result<Vec<relstore::SegStat>> {
        let spec = self.relation(relation)?;
        Ok(relstore::planner::load_stats(
            &self.db,
            &htable::attr_table(spec, attr),
        ))
    }

    /// Per-attribute segment catalog accessor (used by benches and the
    /// translator).
    pub fn segments_of(&self, relation: &str, attr: &str) -> Result<Vec<archive::SegmentInfo>> {
        self.archiver(relation)?.segments(&self.db, attr)
    }

    /// The archiver (exposed for benchmarks; stable API not guaranteed).
    pub fn archiver_of(&self, relation: &str) -> Result<&archive::Archiver> {
        self.archiver(relation)
    }

    /// Storage layout in use.
    pub fn storage_kind(&self) -> StorageKind {
        self.config.storage
    }

    /// The pinned `current-date` used for *now* semantics.
    pub fn now(&self) -> Date {
        self.config.now
    }
}

/// Every compressed attribute table's archived rows come from its
/// relation's [`CompressedStore`]; other tables have no side storage.
impl sqlxml::engine::SideStorage for ArchIS {
    fn scan(
        &self,
        db: &Database,
        table: &str,
        bounds: &[relstore::planner::ColumnBound],
        pred: Option<&relstore::expr::Expr>,
    ) -> Option<sqlxml::Result<(relstore::exec::Executor, relstore::planner::PlanEntry)>> {
        let relation = self.compressed_tables.get(table)?;
        self.compressed.get(relation)?.scan(db, table, bounds, pred)
    }
}

/// A read-only ArchIS session frozen at one durable commit.
///
/// Minted by [`ArchIS::begin_snapshot`]; holds the WAL pin for its
/// lifetime. Queries (XQuery via [`ArchSnapshot::query`], raw SQL via
/// [`ArchSnapshot::execute_sql`]) resolve every page — catalog, H-table
/// roots, data, compressed blocks — as of the pinned commit, unaffected by
/// concurrent `apply_batch` ingest, archival or checkpoints on the parent
/// instance.
///
/// Translation ([`ArchIS::translate`]) uses the parent's in-memory
/// relation specs and current segment metadata; ingest does not change
/// either, and every commit that does is durable before it returns (see
/// [`ArchIS::begin_snapshot`]), so translated queries are exact under
/// concurrent inserts / updates / deletes. A `maybe_archive` that lands
/// *after* the pin may add segment restrictions referring to rows the
/// snapshot cannot see — those predicates simply match nothing, which
/// keeps results a function of the pinned state.
pub struct ArchSnapshot<'a> {
    archis: &'a ArchIS,
    snap: relstore::Snapshot,
}

impl ArchSnapshot<'_> {
    /// The WAL commit this session is frozen at.
    pub fn commit_lsn(&self) -> u64 {
        self.snap.commit_lsn()
    }

    /// The frozen database view (private buffer pool over pinned pages).
    pub fn database(&self) -> &Database {
        self.snap.database()
    }

    /// Translate and execute an XQuery against the pinned H-table state.
    pub fn query(&self, query: &str) -> Result<QueryResult> {
        let sql = self.archis.translate(query)?;
        self.execute_sql(&sql)
    }

    /// Execute raw SQL/SQL-XML against the pinned H-table state.
    pub fn execute_sql(&self, sql: &str) -> Result<QueryResult> {
        self.archis.execute_sql_on(self.snap.database(), sql)
    }
}
