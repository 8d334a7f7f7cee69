//! An embedded relational storage engine — the RDBMS substrate under
//! ArchIS.
//!
//! The paper runs ArchIS on DB2 and on ATLaS (a compact RDBMS over
//! BerkeleyDB). Neither is available here, so this crate implements the
//! relevant machinery from scratch:
//!
//! * [`page`] — 4 KiB slotted pages,
//! * [`pager`] — page files (in-memory or on disk),
//! * [`buffer`] — a pinning buffer pool with LRU eviction and logical /
//!   physical I/O counters (the deterministic stand-in for the paper's
//!   cold-cache measurements),
//! * [`btree`] — a B+tree over order-preserving byte-encoded keys, used
//!   both as a secondary index and as clustered primary storage
//!   (BerkeleyDB-style),
//! * [`heap`] — chained heap files (DB2-style base tables),
//! * [`table`] / [`catalog`] — typed tables with automatic index
//!   maintenance,
//! * [`exec`] — an iterator (Volcano-style) executor: scans that filter
//!   at the source, the hash join, the aggregate fold,
//! * [`expr`] — row expressions with a scalar UDF registry (the paper's
//!   temporal built-ins plug in here).
//!
//! Two table layouts mirror the paper's two backends: heap storage plus
//! secondary B+tree indexes ("ArchIS-DB2") and clustered B+tree primary
//! storage ("ArchIS-ATLaS"), whose extra storage overhead the paper calls
//! out in its Figure 11.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod exec;
pub mod expr;
pub mod failpoint;
pub mod heap;
pub mod page;
pub mod pager;
pub mod planner;
pub mod table;
pub mod value;
pub mod wal;

pub use btree::BTree;
pub use buffer::{BufferPool, IoStats};
pub use catalog::{Database, Snapshot, StorageKind};
pub use exec::{Filter, HashJoin, Row};
pub use expr::{AggFunc, BinOp, Expr, ScalarFn, UnOp};
pub use failpoint::{
    flip_bit_at, BitRot, FailChannel, FailLog, FailPager, Failpoints, FlippedBit, ShipmentFate,
};
pub use heap::{HeapFile, RecordId};
pub use page::{PageId, PAGE_SIZE};
pub use pager::{FilePager, MemPager, PageFileLayout, Pager, SnapshotPager, PAGE_FORMAT_VERSION};
pub use planner::{ForcedPath, PlanEntry, SegStat, TableProfile};
pub use table::{IndexDef, RowStream, Table, TableCheck};
pub use value::{
    decode_row, decode_row_into, encode_key, encode_row, DataType, Field, Schema, Value,
};
pub use wal::{
    crc32, encode_record, FileLog, LogFile, MemLog, RecordScan, RecoveryInfo, RecoveryStop,
    ScannedRecord, WalConfig, WalPager, WalStats, WAL_HEADER_LEN, WAL_REC_COMMIT, WAL_REC_PAGE,
};

use std::fmt;

/// What kind of on-disk object a [`StoreError::Corrupt`] error refers to.
///
/// Classification lets readers react per object instead of giving up on
/// any decode failure: a corrupt secondary-index page can fall back to a
/// base-storage scan, a corrupt compressed block can be quarantined, and
/// `archis-fsck` can decide between "repairable" (index, counters) and
/// "report-only" (heap, catalog) damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptObject {
    /// A raw page failed its checksum (or basic framing) before any typed
    /// decode was attempted.
    Page,
    /// A heap page or heap record id.
    Heap,
    /// A B+tree node (secondary index or clustered primary storage).
    BTree,
    /// The durable catalog (table roots, schemas, counters).
    Catalog,
    /// A table whose in-memory structure contradicts its declared layout.
    Table,
    /// A secondary index that diverged from its base storage.
    Index,
    /// An encoded row (value codec).
    Row,
    /// A compressed BlockZIP block.
    Block,
}

impl fmt::Display for CorruptObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CorruptObject::Page => "page",
            CorruptObject::Heap => "heap",
            CorruptObject::BTree => "btree",
            CorruptObject::Catalog => "catalog",
            CorruptObject::Table => "table",
            CorruptObject::Index => "index",
            CorruptObject::Row => "row",
            CorruptObject::Block => "block",
        };
        f.write_str(s)
    }
}

/// Unified error type for the storage engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A record or key was larger than a page can hold.
    RecordTooLarge(usize),
    /// Unknown table, column or index name.
    NotFound(String),
    /// An object with this name already exists.
    AlreadyExists(String),
    /// A row did not match the table schema.
    SchemaMismatch(String),
    /// Corrupted on-disk data, classified by object so callers (query
    /// fallbacks, quarantine, `archis-fsck`) can match on what broke and
    /// where instead of parsing a message string.
    Corrupt {
        /// The page the damage was detected on, when known.
        page_id: Option<page::PageId>,
        /// What kind of object the damaged bytes belong to.
        object: CorruptObject,
        /// Human-readable detail of the specific failure.
        kind: String,
    },
    /// Underlying I/O failure.
    Io(String),
    /// Expression evaluation failure (type error, unknown function, ...).
    Eval(String),
}

impl StoreError {
    /// A [`StoreError::Corrupt`] with no page attribution (the damage was
    /// detected in decoded data, not on a specific page).
    pub fn corrupt(object: CorruptObject, kind: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            page_id: None,
            object,
            kind: kind.into(),
        }
    }

    /// A [`StoreError::Corrupt`] attributed to a specific page.
    pub fn corrupt_at(
        page_id: page::PageId,
        object: CorruptObject,
        kind: impl Into<String>,
    ) -> StoreError {
        StoreError::Corrupt {
            page_id: Some(page_id),
            object,
            kind: kind.into(),
        }
    }

    /// Whether this error reports corruption (of any object kind).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, StoreError::Corrupt { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::RecordTooLarge(n) => write!(f, "record of {n} bytes exceeds page capacity"),
            StoreError::NotFound(s) => write!(f, "not found: {s}"),
            StoreError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            StoreError::SchemaMismatch(s) => write!(f, "schema mismatch: {s}"),
            StoreError::Corrupt {
                page_id,
                object,
                kind,
            } => match page_id {
                Some(id) => write!(f, "corrupt {object} data at page {id}: {kind}"),
                None => write!(f, "corrupt {object} data: {kind}"),
            },
            StoreError::Io(s) => write!(f, "i/o error: {s}"),
            StoreError::Eval(s) => write!(f, "evaluation error: {s}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
