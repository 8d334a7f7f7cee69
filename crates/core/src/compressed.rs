//! Compressed archived segments (paper §8.2).
//!
//! Archived segments are read-only, so they can be BlockZIPed: for each
//! attribute table, all archived rows — ordered by `sid = (segno, id)`,
//! the paper's "unique sid generated from (segno, id), sorted in the order
//! of segno and id" — are packed into independent ~4000-byte blocks. The
//! blocks are stored as BLOBs in a relational table
//! `<attr>_blob(blockno, part, startseg, startid, endseg, endid, blockblob)`
//! and a range table `<attr>_segrange(segno, startblock, endblock,
//! segstart, segend)` maps each segment to its block range. The live
//! segment stays uncompressed and updatable.
//!
//! Query access decompresses only the touched blocks. The store is the
//! SQL engine's [`SideStorage`] for the attribute tables it compressed:
//! the engine plans the table's own pages as usual, then reads the blocks
//! the same merged `(segno, id)` bounds select — a `segno` bound picks
//! segments through the segrange map, an `id` bound becomes a binary
//! search over each picked segment's block metadata, and no bound reads
//! every block. Selected blocks stream their rows without copying the
//! ones the bounds or the pushed-down predicate reject.

use crate::archive::{Archiver, SegmentInfo};
use crate::htable::{self, LIVE_SEGNO};
use crate::spec::RelationSpec;
use crate::{ArchError, Result};
use relstore::exec::Executor;
use relstore::expr::Expr;
use relstore::planner::{self, ColumnBound, PlanEntry};
use relstore::value::{DataType, Field, Schema, Value};
use relstore::{Database, StorageKind};
use sqlxml::engine::SideStorage;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::{Bound, Range, RangeInclusive};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use temporal::Date;

/// Decompressed rows of one block, shared between the cache and readers.
type BlockRows = Arc<Vec<Vec<Value>>>;

/// segno → (startblock, endblock inclusive) for one attribute's blob table.
type SegBlockRanges = BTreeMap<i64, (usize, usize)>;

/// Sharded LRU cache of decompressed blocks, keyed by
/// `(blob_table, blockno)`. Compressed blocks are immutable once written
/// (archived segments never change; incremental compression only appends
/// new block numbers), so entries never need invalidation — only LRU
/// eviction bounds the memory. Sharding keeps the parallel decompression
/// paths from serializing on one lock. The table name is an `Arc<str>`
/// (each `AttrBlocks` owns one) so the hot warm-read path builds its
/// lookup key with a refcount bump, not a per-call `String` allocation.
/// One cache shard: `(blob_table, blockno) -> (lru_tick, decompressed rows)`.
type CacheShard = HashMap<(Arc<str>, usize), (u64, BlockRows)>;

struct BlockCache {
    shards: Vec<parking_lot::Mutex<CacheShard>>,
    per_shard: usize,
    /// Logical clock for LRU ordering.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BlockCache {
    const SHARDS: usize = 8;
    /// Default capacity: 8 shards × 32 blocks ≈ 1 MiB of 4000-byte blocks.
    const PER_SHARD: usize = 32;

    fn new() -> Self {
        BlockCache {
            shards: (0..Self::SHARDS)
                .map(|_| parking_lot::Mutex::new(HashMap::new()))
                .collect(),
            per_shard: Self::PER_SHARD,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, table: &str, blockno: usize) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        table.hash(&mut h);
        blockno.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn get(&self, table: &Arc<str>, blockno: usize) -> Option<BlockRows> {
        let shard = &self.shards[self.shard_of(table, blockno)];
        let mut map = shard.lock();
        match map.get_mut(&(table.clone(), blockno)) {
            Some((stamp, rows)) => {
                *stamp = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(rows.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, table: &Arc<str>, blockno: usize, rows: BlockRows) {
        let shard = &self.shards[self.shard_of(table, blockno)];
        let mut map = shard.lock();
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        map.insert((table.clone(), blockno), (stamp, rows));
        while map.len() > self.per_shard {
            // O(per_shard) eviction; capacity is small by design.
            let oldest = map
                .iter()
                .min_by_key(|(_, (s, _))| *s)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => map.remove(&k),
                None => break,
            };
        }
    }

    /// Cold-path allocation reuse: when the shard that will receive
    /// `(table, blockno)` is already full, its LRU entry is doomed the
    /// moment the freshly decoded block is `put`. Evict it *now* instead,
    /// and — if no reader still holds the rows — hand the allocation back
    /// so the decode can fill it in place. Each recycled inner row keeps
    /// its capacity too (values are dropped, buffers are not), which is
    /// what makes single-row cold probes cheap: the steady state is one
    /// block in, one block out, zero net allocation.
    fn take_reusable(&self, table: &Arc<str>, blockno: usize) -> Option<Vec<Vec<Value>>> {
        let shard = &self.shards[self.shard_of(table, blockno)];
        let mut map = shard.lock();
        if map.len() < self.per_shard {
            return None;
        }
        let oldest = map
            .iter()
            .min_by_key(|(_, (s, _))| *s)
            .map(|(k, _)| k.clone())?;
        let (_, rows) = map.remove(&oldest)?;
        let mut rows = Arc::try_unwrap(rows).ok()?;
        for row in rows.iter_mut() {
            row.clear();
        }
        Some(rows)
    }

    fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

/// Block metadata kept in memory for fast range location (mirrors the
/// `_blob` table's key columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockMeta {
    blockno: usize,
    start_sid: (i64, i64),
    end_sid: (i64, i64),
}

/// How a block read failed (see `CompressedStore::load_block`).
enum BlockFault {
    /// The block's stored bytes are damaged — quarantine and continue.
    Corrupt(String),
    /// Operational failure unrelated to the block's bytes — propagate.
    Fatal(ArchError),
}

/// Per-attribute compressed storage.
struct AttrBlocks {
    /// The attribute history table whose archived rows the blocks hold.
    table: String,
    blob_table: Arc<str>,
    meta: Vec<BlockMeta>,
    /// segno → (startblock, endblock inclusive).
    segranges: SegBlockRanges,
}

impl AttrBlocks {
    /// The sid windows of every row inside `sids`, in sid order: one
    /// `(blockno, from, to)` per block and picked segment. The `segno`
    /// range picks segments through the segrange map; inside each, the
    /// blocks are sorted by sid, so the `id` range becomes a binary search
    /// for the first block ending at or after `(segno, lo)` plus the run of
    /// blocks starting at or before `(segno, hi)` — more than one when the
    /// rows of an id straddle a block boundary. A block spanning a segment
    /// boundary appears once per segment, with disjoint windows.
    fn select(&self, sids: &SidBounds) -> Vec<(usize, Sid, Sid)> {
        let mut out = Vec::new();
        if sids.segno.is_empty() || sids.id.is_empty() {
            return out;
        }
        for (&segno, &(lo, hi)) in self.segranges.range(sids.segno.clone()) {
            let first = self.meta.partition_point(|m| m.blockno < lo);
            let last = self.meta.partition_point(|m| m.blockno <= hi);
            let segment = self.meta.get(first..last).unwrap_or_default();
            let (from, to) = ((segno, *sids.id.start()), (segno, *sids.id.end()));
            let start = segment.partition_point(|m| m.end_sid < from);
            out.extend(
                segment
                    .iter()
                    .skip(start)
                    .take_while(|m| m.start_sid <= to)
                    .map(|m| (m.blockno, from, to)),
            );
        }
        out
    }
}

/// A row's `(segno, id)`.
type Sid = (i64, i64);

/// A fetched block and the range of its rows inside one sid window.
type Window = (BlockRows, Range<usize>);

/// The `(segno, id)` region a scan's bounds allow, as inclusive integer
/// ranges (a bound that is not an integer does not narrow its range; the
/// pushed-down predicate still applies).
struct SidBounds {
    segno: RangeInclusive<i64>,
    id: RangeInclusive<i64>,
}

/// One column's merged bound as an inclusive `i64` range (empty when the
/// bound admits no integer).
fn int_range(bound: Option<&ColumnBound>) -> RangeInclusive<i64> {
    let Some(b) = bound else {
        return i64::MIN..=i64::MAX;
    };
    let lo = match &b.lo {
        Bound::Included(Value::Int(v)) => Some(*v),
        Bound::Excluded(Value::Int(v)) => v.checked_add(1),
        _ => Some(i64::MIN),
    };
    let hi = match &b.hi {
        Bound::Included(Value::Int(v)) => Some(*v),
        Bound::Excluded(Value::Int(v)) => v.checked_sub(1),
        _ => Some(i64::MAX),
    };
    match (lo, hi) {
        (Some(lo), Some(hi)) => lo..=hi,
        _ => RangeInclusive::new(1, 0), // no integer at all
    }
}

/// The rows of one block inside the sid window `[from, to]`. A block's
/// rows are sorted by sid (they were packed in that order), so the window
/// is one contiguous run, found by binary search.
fn window(rows: &[Vec<Value>], from: Sid, to: Sid) -> Range<usize> {
    let sid = |r: &Vec<Value>| {
        let int = |i: usize| r.get(i).and_then(Value::as_int);
        (int(0), int(1))
    };
    let (from, to) = ((Some(from.0), Some(from.1)), (Some(to.0), Some(to.1)));
    let start = rows.partition_point(|r| sid(r) < from);
    let end = rows.partition_point(|r| sid(r) <= to);
    start..end.max(start)
}

/// The rows of fetched blocks, streamed: only rows inside a sid window are
/// visited, and one is cloned out only when it passes the pushed-down
/// predicate, evaluated on the block's own copy.
struct BlockStream {
    windows: Vec<Window>,
    at: usize,
    pred: Option<Expr>,
}

impl Iterator for BlockStream {
    type Item = relstore::Result<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((rows, range)) = self.windows.get_mut(self.at) {
            let Some(row) = range.next().and_then(|i| rows.get(i)) else {
                self.at += 1;
                continue;
            };
            match self.pred.as_ref().map_or(Ok(true), |p| p.eval_bool(row)) {
                Ok(true) => return Some(Ok(row.clone())),
                Ok(false) => {}
                Err(e) => return Some(Err(e)),
            }
        }
        None
    }
}

/// The compressed store is the side storage of the attribute tables it
/// compressed: their archived rows live in its blocks, not in the table.
impl SideStorage for CompressedStore {
    fn scan(
        &self,
        db: &Database,
        table: &str,
        bounds: &[ColumnBound],
        pred: Option<&Expr>,
    ) -> Option<sqlxml::Result<(Executor, PlanEntry)>> {
        let ab = self.attrs.values().find(|ab| ab.table == table)?;
        Some(
            self.block_scan(db, ab, bounds, pred)
                .map_err(|e| sqlxml::SqlError::Exec(e.to_string())),
        )
    }
}

/// The compressed store of one relation's archived history.
pub struct CompressedStore {
    spec: RelationSpec,
    attrs: HashMap<String, AttrBlocks>,
    /// Blocks decompressed since the last reset (benchmark I/O proxy).
    blocks_read: AtomicU64,
    /// LRU of decompressed blocks — warm reruns of Q1–Q6 skip BlockZIP
    /// entirely.
    cache: BlockCache,
    /// Blocks skipped because their stored bytes no longer decode
    /// (checksum-failed pages, truncated BLOB parts, bad BlockZIP frames).
    /// Keyed by `(blob_table, blockno)` so a damaged block warns once per
    /// process while the empty result stays *uncached* — a concurrent MVCC
    /// snapshot reading the same block number resolves its own (possibly
    /// still pristine) pinned bytes instead of inheriting the live view's
    /// damage.
    quarantined: parking_lot::Mutex<HashSet<(Arc<str>, usize)>>,
    /// One human-readable warning per quarantined block, for query-level
    /// loss reporting. Bounded: quarantine is per *corrupt* block, not per
    /// read — each block warns once per process.
    quarantine_log: parking_lot::Mutex<Vec<String>>,
}

impl CompressedStore {
    /// Compress every archived segment of every attribute table of `spec`,
    /// store the blocks as BLOB rows, and **remove the raw archived rows**
    /// (live rows stay). Storage measurements afterwards reflect the
    /// compressed layout.
    pub fn build(
        db: &Database,
        spec: &RelationSpec,
        archiver: &Archiver,
        block_size: usize,
    ) -> Result<CompressedStore> {
        let mut attrs = HashMap::new();
        for (attr, _) in &spec.attrs {
            let tname = htable::attr_table(spec, attr);
            let t = db.table(&tname)?;

            // The BLOB table (paper §8.2). `part` splits oversized blocks
            // across page-sized rows. Reused (appended to) on incremental
            // compression passes.
            let blob_table = format!("{tname}_blob");
            let segrange_table = format!("{tname}_segrange");
            let (mut meta, mut segranges) = if db.has_table(&blob_table) {
                let prev = Self::reattach_inner_attr(db, &blob_table, &segrange_table)?;
                (prev.0, prev.1)
            } else {
                let bt = db.create_table(
                    &blob_table,
                    Schema::new(vec![
                        Field::new("blockno", DataType::Int),
                        Field::new("part", DataType::Int),
                        Field::new("startseg", DataType::Int),
                        Field::new("startid", DataType::Int),
                        Field::new("endseg", DataType::Int),
                        Field::new("endid", DataType::Int),
                        Field::new("blockblob", DataType::Blob),
                    ]),
                    StorageKind::Heap,
                    &[],
                )?;
                bt.create_index(&format!("{blob_table}_by_no"), &["blockno"])?;
                db.create_table(
                    &segrange_table,
                    Schema::new(vec![
                        Field::new("segno", DataType::Int),
                        Field::new("startblock", DataType::Int),
                        Field::new("endblock", DataType::Int),
                        Field::new("segstart", DataType::Date),
                        Field::new("segend", DataType::Date),
                    ]),
                    StorageKind::Heap,
                    &[],
                )?;
                (Vec::new(), BTreeMap::new())
            };

            // Archived rows of the segments not compressed yet, in sid
            // order: after an earlier pass the attribute table holds newly
            // archived segments, so repeated calls compress incrementally.
            // A row a same-day close moved into an already compressed
            // segment stays in the table — each segment's blocks are the
            // one range its segrange entry names, so a bounded block scan
            // never needs to look anywhere else.
            let mut rows: Vec<Vec<Value>> = t
                .scan()?
                .into_iter()
                .filter(|r| {
                    r[0].as_int()
                        .is_some_and(|s| s != LIVE_SEGNO && !segranges.contains_key(&s))
                })
                .collect();
            rows.sort_by(|a, b| {
                (a[0].as_int(), a[1].as_int()).cmp(&(b[0].as_int(), b[1].as_int()))
            });
            let records: Vec<Vec<u8>> = rows.iter().map(|r| relstore::encode_row(r)).collect();
            let blocks = blockzip::pack_records(&records, block_size);
            let bt = db.table(&blob_table)?;
            let srt = db.table(&segrange_table)?;
            let first_new_block = meta.last().map(|m: &BlockMeta| m.blockno + 1).unwrap_or(0);

            let sid_of = |row: &[Value]| -> (i64, i64) {
                (row[0].as_int().unwrap_or(0), row[1].as_int().unwrap_or(0))
            };
            // One 4000-byte block fits exactly one row on a 4 KiB page
            // (52 bytes of row overhead); only oversized blocks split.
            const PART: usize = 4000;
            let new_meta_start = meta.len();
            let mut blob_rows = Vec::new();
            for (i, b) in blocks.iter().enumerate() {
                let no = first_new_block + i;
                let start_sid = sid_of(&rows[b.first_record]);
                let end_sid = sid_of(&rows[b.last_record]);
                for (part, chunk) in b.data.chunks(PART).enumerate() {
                    blob_rows.push(vec![
                        Value::Int(no as i64),
                        Value::Int(part as i64),
                        Value::Int(start_sid.0),
                        Value::Int(start_sid.1),
                        Value::Int(end_sid.0),
                        Value::Int(end_sid.1),
                        Value::Blob(chunk.to_vec()),
                    ]);
                }
                meta.push(BlockMeta {
                    blockno: no,
                    start_sid,
                    end_sid,
                });
            }
            // One batch: blob pages append heap-sequentially and the
            // blockno index is maintained in a single sorted pass.
            bt.insert_batch(blob_rows)?;

            // Record block ranges for the newly compressed segments.
            let segs = archiver.segments(db, attr)?;
            let new_meta = &meta[new_meta_start..];
            let mut compressed_now = Vec::new();
            for seg in segs.iter().filter(|s| s.segno != LIVE_SEGNO) {
                if segranges.contains_key(&seg.segno) {
                    continue; // compressed in an earlier pass
                }
                let covering: Vec<usize> = new_meta
                    .iter()
                    .filter(|m| m.start_sid.0 <= seg.segno && m.end_sid.0 >= seg.segno)
                    .map(|m| m.blockno)
                    .collect();
                if let (Some(&lo), Some(&hi)) = (covering.first(), covering.last()) {
                    srt.insert(vec![
                        Value::Int(seg.segno),
                        Value::Int(lo as i64),
                        Value::Int(hi as i64),
                        Value::Date(seg.start),
                        Value::Date(seg.end),
                    ])?;
                    segranges.insert(seg.segno, (lo, hi));
                    compressed_now.push(seg.segno);
                }
            }

            // Drop the raw rows of the segments just compressed: only the
            // live segment (and rows moved into a segment after it was
            // compressed) remains uncompressed. A vacuum then reclaims the
            // freed pages so that storage measurements reflect the
            // compressed layout.
            let seg_idx = format!("{tname}_by_seg");
            for segno in compressed_now {
                t.delete_via_index(&seg_idx, &[Value::Int(segno)], |_| true)?;
            }
            db.vacuum_table(&tname)?;

            attrs.insert(
                attr.clone(),
                AttrBlocks {
                    table: tname,
                    blob_table: blob_table.into(),
                    meta,
                    segranges,
                },
            );
        }
        Ok(CompressedStore {
            spec: spec.clone(),
            attrs,
            blocks_read: AtomicU64::new(0),
            cache: BlockCache::new(),
            quarantined: parking_lot::Mutex::new(HashSet::new()),
            quarantine_log: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// Reattach to compressed blob/segrange tables that already exist in a
    /// durable database (the reopen path). Returns `None` when the
    /// relation was never compressed.
    pub fn reattach(db: &Database, spec: &RelationSpec) -> Option<Result<CompressedStore>> {
        let all_present = spec
            .attrs
            .iter()
            .all(|(attr, _)| db.has_table(&format!("{}_blob", htable::attr_table(spec, attr))));
        if !all_present {
            return None;
        }
        Some(Self::reattach_inner(db, spec))
    }

    fn reattach_inner(db: &Database, spec: &RelationSpec) -> Result<CompressedStore> {
        let mut attrs = HashMap::new();
        for (attr, _) in &spec.attrs {
            let tname = htable::attr_table(spec, attr);
            let blob_table = format!("{tname}_blob");
            let segrange_table = format!("{tname}_segrange");
            let (meta, segranges) = Self::reattach_inner_attr(db, &blob_table, &segrange_table)?;
            attrs.insert(
                attr.clone(),
                AttrBlocks {
                    table: tname,
                    blob_table: blob_table.into(),
                    meta,
                    segranges,
                },
            );
        }
        Ok(CompressedStore {
            spec: spec.clone(),
            attrs,
            blocks_read: AtomicU64::new(0),
            cache: BlockCache::new(),
            quarantined: parking_lot::Mutex::new(HashSet::new()),
            quarantine_log: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// Block metadata + segment ranges of one attribute's existing blob /
    /// segrange tables.
    fn reattach_inner_attr(
        db: &Database,
        blob_table: &str,
        segrange_table: &str,
    ) -> Result<(Vec<BlockMeta>, SegBlockRanges)> {
        let mut by_block: HashMap<usize, BlockMeta> = HashMap::new();
        for r in db.table(blob_table)?.scan()? {
            let (Some(no), Some(ss), Some(si), Some(es), Some(ei)) = (
                r[0].as_int(),
                r[2].as_int(),
                r[3].as_int(),
                r[4].as_int(),
                r[5].as_int(),
            ) else {
                continue;
            };
            by_block.insert(
                no as usize,
                BlockMeta {
                    blockno: no as usize,
                    start_sid: (ss, si),
                    end_sid: (es, ei),
                },
            );
        }
        let mut meta: Vec<BlockMeta> = by_block.into_values().collect();
        meta.sort_by_key(|m| m.blockno);
        let mut segranges = BTreeMap::new();
        if db.has_table(segrange_table) {
            for r in db.table(segrange_table)?.scan()? {
                if let (Some(segno), Some(lo), Some(hi)) =
                    (r[0].as_int(), r[1].as_int(), r[2].as_int())
                {
                    segranges.insert(segno, (lo as usize, hi as usize));
                }
            }
        }
        Ok((meta, segranges))
    }

    /// Total number of compressed blocks across attributes.
    pub fn block_count(&self) -> usize {
        self.attrs.values().map(|a| a.meta.len()).sum()
    }

    /// Blocks decompressed since the last [`CompressedStore::reset_stats`].
    /// Cache hits do not count — this is the number of real BlockZIP
    /// unpacks.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read.load(Ordering::Relaxed)
    }

    /// Block-cache `(hits, misses)` since the last
    /// [`CompressedStore::reset_stats`].
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Blocks quarantined as unreadable since this store was opened. Any
    /// nonzero value means query results are missing the rows of that many
    /// blocks — real data loss that only a backup can undo.
    pub fn quarantined_blocks(&self) -> u64 {
        self.quarantined.lock().len() as u64
    }

    /// Drain the accumulated quarantine warnings (one per damaged block).
    pub fn take_quarantine_warnings(&self) -> Vec<String> {
        std::mem::take(&mut *self.quarantine_log.lock())
    }

    /// Reset the decompression and cache counters (cached blocks stay
    /// cached).
    pub fn reset_stats(&self) {
        self.blocks_read.store(0, Ordering::Relaxed);
        self.cache.reset();
    }

    /// Evict every cached decompressed block (counters are untouched).
    /// Benchmarks call this before a cold run so block decompression is
    /// part of the measurement again.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    fn attr(&self, attr: &str) -> Result<&AttrBlocks> {
        self.attrs
            .get(attr)
            .ok_or_else(|| ArchError::NotFound(format!("compressed attribute {attr}")))
    }

    /// Decompress one block the cache does not hold (the paper's
    /// "user-defined uncompression table function") and cache it.
    ///
    /// A block whose stored bytes no longer decode is **quarantined**, not
    /// fatal: archived blocks are immutable, so a decode failure means
    /// silent media corruption, and one rotten block must not take down a
    /// whole snapshot query. The block contributes no rows, the loss is
    /// counted ([`CompressedStore::quarantined_blocks`]) and logged
    /// ([`CompressedStore::take_quarantine_warnings`]) — once per damaged
    /// block, not per query. The empty result is deliberately *not*
    /// cached: the same store serves both the live database and pinned
    /// MVCC snapshot views, and a snapshot whose pinned pages predate the
    /// damage must keep decoding its own (pristine) bytes instead of
    /// inheriting the live view's loss from the cache.
    fn load_block(&self, db: &Database, ab: &AttrBlocks, blockno: usize) -> Result<BlockRows> {
        self.blocks_read.fetch_add(1, Ordering::Relaxed);
        let reuse = self.cache.take_reusable(&ab.blob_table, blockno);
        match self.decode_block(db, ab, blockno, reuse) {
            Ok(rows) => {
                self.cache.put(&ab.blob_table, blockno, rows.clone());
                Ok(rows)
            }
            Err(BlockFault::Corrupt(why)) => {
                if self
                    .quarantined
                    .lock()
                    .insert((ab.blob_table.clone(), blockno))
                {
                    self.quarantine_log.lock().push(format!(
                        "{} block {blockno} quarantined: {why}",
                        ab.blob_table
                    ));
                }
                Ok(Arc::new(Vec::new()))
            }
            Err(BlockFault::Fatal(e)) => Err(e),
        }
    }

    /// Decompress one block, classifying failures: data-level rot (bad
    /// page checksum, truncated BLOB, bad BlockZIP frame, undecodable row)
    /// is [`BlockFault::Corrupt`]; everything else (missing table, I/O)
    /// stays fatal.
    ///
    /// `reuse` is a recycled cache entry from [`BlockCache::take_reusable`]
    /// whose row buffers are refilled in place ([`relstore::decode_row_into`]),
    /// so a cold single-row probe replaces — rather than adds — allocations.
    fn decode_block(
        &self,
        db: &Database,
        ab: &AttrBlocks,
        blockno: usize,
        reuse: Option<Vec<Vec<Value>>>,
    ) -> std::result::Result<BlockRows, BlockFault> {
        let store_fault = |e: relstore::StoreError| {
            if e.is_corrupt() {
                BlockFault::Corrupt(e.to_string())
            } else {
                BlockFault::Fatal(e.into())
            }
        };
        let bt = db.table(&ab.blob_table).map_err(store_fault)?;
        let mut parts: Vec<(i64, Vec<u8>)> = bt
            .index_lookup(
                &format!("{}_by_no", ab.blob_table),
                &[Value::Int(blockno as i64)],
            )
            .map_err(store_fault)?
            .into_iter()
            .filter_map(|r| match (&r[1], &r[6]) {
                (Value::Int(p), Value::Blob(b)) => Some((*p, b.clone())),
                _ => None,
            })
            .collect();
        parts.sort_by_key(|(p, _)| *p);
        let data: Vec<u8> = parts.into_iter().flat_map(|(_, b)| b).collect();
        let records =
            blockzip::unpack_records(&data).map_err(|e| BlockFault::Corrupt(e.to_string()))?;
        let mut rows = reuse.unwrap_or_default();
        rows.truncate(records.len());
        rows.resize_with(records.len(), Vec::new);
        for (rec, row) in records.iter().zip(rows.iter_mut()) {
            relstore::decode_row_into(rec, row).map_err(store_fault)?;
        }
        Ok(Arc::new(rows))
    }

    /// Read blocks through the LRU cache: hits come straight from it, the
    /// misses are decompressed ([`Self::load_block`]) — fanned out across
    /// threads from `MIN_PARALLEL` misses up (every independent block is
    /// its own unit of work, paper §8.2). Results come back in `blocknos`
    /// order, exactly what reading the blocks one at a time returns.
    fn read_blocks(
        &self,
        db: &Database,
        ab: &AttrBlocks,
        blocknos: &[usize],
    ) -> Result<Vec<BlockRows>> {
        let cached: Vec<Option<BlockRows>> = blocknos
            .iter()
            .map(|&no| self.cache.get(&ab.blob_table, no))
            .collect();
        let misses: Vec<usize> = blocknos
            .iter()
            .zip(&cached)
            .filter(|(_, rows)| rows.is_none())
            .map(|(&no, _)| no)
            .collect();
        let mut loaded = self.load_blocks(db, ab, &misses)?.into_iter();
        Ok(cached
            .into_iter()
            .filter_map(|rows| rows.or_else(|| loaded.next()))
            .collect())
    }

    /// [`Self::load_block`] for each of `blocknos`, in order.
    fn load_blocks(
        &self,
        db: &Database,
        ab: &AttrBlocks,
        blocknos: &[usize],
    ) -> Result<Vec<BlockRows>> {
        const MIN_PARALLEL: usize = 4;
        if blocknos.len() < MIN_PARALLEL {
            return blocknos
                .iter()
                .map(|&no| self.load_block(db, ab, no))
                .collect();
        }
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8)
            .min(blocknos.len());
        let chunk = blocknos.len().div_ceil(threads);
        let results: Vec<Result<Vec<BlockRows>>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = blocknos
                .chunks(chunk)
                .map(|nos| {
                    s.spawn(move |_| nos.iter().map(|&no| self.load_block(db, ab, no)).collect())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("block reader panicked"))
                .collect()
        })
        .expect("crossbeam scope");
        let mut out = Vec::with_capacity(blocknos.len());
        for r in results {
            out.extend(r?);
        }
        Ok(out)
    }

    /// All archived rows of one segment of an attribute (decompresses only
    /// that segment's block range).
    pub fn scan_segment(&self, db: &Database, attr: &str, segno: i64) -> Result<Vec<Vec<Value>>> {
        self.rows_within(db, attr, segno..=segno, i64::MIN..=i64::MAX)
    }

    /// The archived rows of one key within one segment (binary search over
    /// the block metadata, then a single block decompression in the common
    /// case).
    pub fn lookup(
        &self,
        db: &Database,
        attr: &str,
        segno: i64,
        id: i64,
    ) -> Result<Vec<Vec<Value>>> {
        self.rows_within(db, attr, segno..=segno, id..=id)
    }

    /// The archived rows of an attribute whose `(segno, id)` lies inside
    /// the two ranges, copied out.
    fn rows_within(
        &self,
        db: &Database,
        attr: &str,
        segno: RangeInclusive<i64>,
        id: RangeInclusive<i64>,
    ) -> Result<Vec<Vec<Value>>> {
        let (windows, _) = self.windows(db, self.attr(attr)?, &SidBounds { segno, id })?;
        Ok(windows
            .iter()
            .flat_map(|(rows, range)| rows.get(range.clone()).unwrap_or_default())
            .cloned()
            .collect())
    }

    /// Every archived row of an attribute (decompresses everything — the
    /// history-query path).
    pub fn scan_all(&self, db: &Database, attr: &str) -> Result<Vec<Vec<Value>>> {
        let ab = self.attr(attr)?;
        let blocknos: Vec<usize> = ab.meta.iter().map(|m| m.blockno).collect();
        let mut out = Vec::new();
        for rows in self.read_blocks(db, ab, &blocknos)? {
            out.extend(rows.iter().cloned());
        }
        Ok(out)
    }

    /// Archived segment infos recorded in the segrange table, in segment
    /// order.
    pub fn segment_ranges(&self, attr: &str) -> Result<Vec<(i64, usize, usize)>> {
        let ab = self.attr(attr)?;
        Ok(ab
            .segranges
            .iter()
            .map(|(&s, &(lo, hi))| (s, lo, hi))
            .collect())
    }

    /// The rows of `ab` inside `sids`: the blocks [`AttrBlocks::select`]
    /// picks, fetched now (cache, then decode, then quarantine —
    /// [`Self::read_blocks`]), each with the window of its rows inside the
    /// bounds; plus how many blocks were read.
    fn windows(
        &self,
        db: &Database,
        ab: &AttrBlocks,
        sids: &SidBounds,
    ) -> Result<(Vec<Window>, usize)> {
        let picked = ab.select(sids);
        let mut blocknos: Vec<usize> = picked.iter().map(|&(no, _, _)| no).collect();
        // A block may be picked for two adjacent segments; read it once.
        blocknos.sort_unstable();
        blocknos.dedup();
        let blocks = self.read_blocks(db, ab, &blocknos)?;
        let windows = picked
            .into_iter()
            .filter_map(|(no, from, to)| {
                let rows = blocks.get(blocknos.partition_point(|&b| b < no))?;
                Some((rows.clone(), window(rows, from, to)))
            })
            .collect();
        Ok((windows, blocknos.len()))
    }

    /// The block branch of a scan of `ab`'s attribute table: the
    /// [`Self::windows`] the merged `(segno, id)` bounds select, streamed
    /// row by row, and the branch's EXPLAIN entry.
    fn block_scan(
        &self,
        db: &Database,
        ab: &AttrBlocks,
        bounds: &[ColumnBound],
        pred: Option<&Expr>,
    ) -> Result<(Executor, PlanEntry)> {
        let bound = |column: &str| bounds.iter().find(|b| b.column == column);
        let sids = SidBounds {
            segno: int_range(bound("segno")),
            id: int_range(bound(&self.spec.key)),
        };
        let (windows, blocks) = self.windows(db, ab, &sids)?;
        let rows = windows.iter().map(|(_, r)| r.len()).sum::<usize>() as f64;
        let pages = blocks as f64;
        let entry = PlanEntry {
            table: ab.table.clone(),
            path: format!("blocks({})", ab.blob_table),
            est_rows: rows,
            est_pages: pages,
            cost: pages * planner::SEQ_PAGE_COST + rows * planner::CPU_ROW_COST,
            chosen_by: "bounds".to_string(),
        };
        let stream = BlockStream {
            windows,
            at: 0,
            pred: pred.cloned(),
        };
        Ok((Box::new(stream), entry))
    }

    /// The relation this store belongs to.
    pub fn spec(&self) -> &RelationSpec {
        &self.spec
    }

    /// Rows of the (uncompressed) live segment of an attribute.
    pub fn live_rows(&self, db: &Database, attr: &str) -> Result<Vec<Vec<Value>>> {
        let tname = htable::attr_table(&self.spec, attr);
        let t = db.table(&tname)?;
        Ok(t.index_lookup(&format!("{tname}_by_seg"), &[Value::Int(LIVE_SEGNO)])?)
    }

    /// Find the archived segment covering `date`, if any, using the
    /// archiver's segment catalog.
    pub fn covering_segment(segs: &[SegmentInfo], date: Date) -> Option<i64> {
        segs.iter()
            .filter(|s| s.segno != LIVE_SEGNO)
            .find(|s| s.start <= date && date <= s.end)
            .map(|s| s.segno)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::SegmentInfo;

    fn seg(segno: i64, s: &str, e: &str) -> SegmentInfo {
        SegmentInfo {
            segno,
            start: Date::parse(s).unwrap(),
            end: Date::parse(e).unwrap(),
        }
    }

    #[test]
    fn covering_segment_picks_the_right_one() {
        let segs = vec![
            seg(1, "1990-01-01", "1992-06-30"),
            seg(2, "1992-07-01", "1995-12-31"),
            seg(LIVE_SEGNO, "1996-01-01", "9999-12-31"),
        ];
        let d = |s: &str| Date::parse(s).unwrap();
        assert_eq!(
            CompressedStore::covering_segment(&segs, d("1991-05-01")),
            Some(1)
        );
        assert_eq!(
            CompressedStore::covering_segment(&segs, d("1992-07-01")),
            Some(2)
        );
        assert_eq!(
            CompressedStore::covering_segment(&segs, d("1995-12-31")),
            Some(2)
        );
        // Live dates are not covered by any archived segment.
        assert_eq!(
            CompressedStore::covering_segment(&segs, d("1997-01-01")),
            None
        );
        assert_eq!(
            CompressedStore::covering_segment(&segs, d("1989-01-01")),
            None
        );
    }

    /// The thread fan-out is invisible: `read_blocks` returns, in order,
    /// what reading one block at a time returns.
    #[test]
    fn read_blocks_fan_out_equals_read_block_per_block() {
        let d = |s: &str| Date::parse(s).unwrap();
        let config = crate::spec::ArchConfig {
            block_size: 300, // many small blocks from little data
            ..Default::default()
        };
        let mut a = crate::ArchIS::new(config);
        a.create_relation(crate::spec::RelationSpec::employee())
            .unwrap();
        for id in 1..=240i64 {
            let values = vec![("salary".to_string(), Value::Int(40_000 + id))];
            a.insert("employee", id, values, d("1990-01-01")).unwrap();
            let raise = vec![("salary".to_string(), Value::Int(50_000 + id))];
            a.update("employee", id, raise, d("1991-01-01")).unwrap();
        }
        a.force_archive("employee", d("1992-12-31")).unwrap();
        a.compress_archived("employee").unwrap();
        let store = a.compressed_store("employee").unwrap();
        let ab = store.attr("salary").unwrap();
        let blocknos: Vec<usize> = (0..ab.meta.len()).collect();
        assert!(blocknos.len() >= 8, "need a real fan-out: {blocknos:?}");

        store.clear_cache();
        let fanned = store.read_blocks(a.database(), ab, &blocknos).unwrap();
        store.clear_cache();
        let serial: Vec<BlockRows> = blocknos
            .iter()
            .flat_map(|&no| store.read_blocks(a.database(), ab, &[no]).unwrap())
            .collect();
        assert_eq!(fanned, serial);
        assert!(serial.iter().all(|rows| !rows.is_empty()));
    }

    /// A store of many small blocks over four segments: 24 employees, each
    /// raised every 40 days and employee 7 every 5 days — its rows fill
    /// several blocks per segment, so some ids straddle a block boundary.
    /// Archived every 120 days and compressed at the end; `incremental`
    /// compresses after day 360 already, then closes employee 3's period
    /// the day after that archival (the closed row moves into the compressed
    /// segment's table copy) and compresses the last segment in a second
    /// pass.
    fn fixture(incremental: bool) -> crate::ArchIS {
        let d0 = Date::parse("1990-01-01").unwrap();
        let config = crate::spec::ArchConfig {
            block_size: 300,
            ..Default::default()
        };
        let mut a = crate::ArchIS::new(config);
        a.create_relation(crate::spec::RelationSpec::employee())
            .unwrap();
        let salary = |v: i64| vec![("salary".to_string(), Value::Int(v))];
        for id in 1..=24i64 {
            a.insert("employee", id, salary(40_000 + id), d0).unwrap();
        }
        for t in 1..=480i32 {
            let at = d0 + t;
            if incremental && t == 361 {
                a.update("employee", 3, salary(1), at).unwrap();
            }
            for id in 1..=24i64 {
                if (t as i64 + id) % 40 == 0 || (id == 7 && t % 5 == 0) {
                    a.update("employee", id, salary(id * 1_000 + t as i64), at)
                        .unwrap();
                }
            }
            if t % 120 == 0 {
                a.force_archive("employee", at).unwrap();
                if incremental && t == 360 {
                    a.compress_archived("employee").unwrap();
                }
            }
        }
        a.compress_archived("employee").unwrap();
        a
    }

    fn fixtures() -> &'static [crate::ArchIS; 2] {
        static FIXTURES: std::sync::OnceLock<[crate::ArchIS; 2]> = std::sync::OnceLock::new();
        FIXTURES.get_or_init(|| [fixture(false), fixture(true)])
    }

    /// A random merged bound on `column`: none, an equality, or a range
    /// with either end open, inclusive or exclusive.
    fn bound(column: &str, (kind, a, b): (u8, i64, i64)) -> Option<ColumnBound> {
        let (eq, lo, hi) = match kind {
            0 => return None,
            1 => (true, Bound::Included(a), Bound::Included(a)),
            2 => (false, Bound::Included(a), Bound::Included(b)),
            3 => (false, Bound::Excluded(a), Bound::Excluded(b)),
            4 => (false, Bound::Included(a), Bound::Unbounded),
            _ => (false, Bound::Unbounded, Bound::Excluded(b)),
        };
        Some(ColumnBound {
            column: column.to_string(),
            eq,
            lo: lo.map(Value::Int),
            hi: hi.map(Value::Int),
        })
    }

    fn within(b: &ColumnBound, v: &Value) -> bool {
        use std::cmp::Ordering::{Greater, Less};
        let above = match &b.lo {
            Bound::Included(x) => v.total_cmp(x) != Less,
            Bound::Excluded(x) => v.total_cmp(x) == Greater,
            Bound::Unbounded => true,
        };
        let below = match &b.hi {
            Bound::Included(x) => v.total_cmp(x) != Greater,
            Bound::Excluded(x) => v.total_cmp(x) == Less,
            Bound::Unbounded => true,
        };
        above && below
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    /// The block scan of `bounds` (and `pred`) on the salary table: its
    /// rows, and how many blocks it touched (block-cache hits + misses)
    /// next to the number its EXPLAIN entry reports.
    fn block_rows(
        a: &crate::ArchIS,
        bounds: &[ColumnBound],
        pred: Option<&Expr>,
    ) -> (Vec<Vec<Value>>, u64, f64) {
        let store = a.compressed_store("employee").unwrap();
        let (h0, m0) = store.cache_stats();
        let (rows, entry) = store
            .scan(a.database(), "employee_salary", bounds, pred)
            .expect("the salary table is compressed")
            .unwrap();
        let rows = rows.collect::<relstore::Result<Vec<_>>>().unwrap();
        let (h1, m1) = store.cache_stats();
        (rows, h1 + m1 - h0 - m0, entry.est_pages)
    }

    #[test]
    fn fixtures_straddle_block_boundaries_and_span_segments() {
        for a in fixtures() {
            let store = a.compressed_store("employee").unwrap();
            let ab = store.attr("salary").unwrap();
            assert!(ab.segranges.len() >= 4, "{:?}", ab.segranges);
            assert!(
                ab.meta.windows(2).any(|w| w[0].end_sid == w[1].start_sid),
                "some id's rows must straddle a block boundary"
            );
        }
        // The row a same-day close moved into compressed segment 3 stayed
        // in the table through the second pass.
        let a = &fixtures()[1];
        let table = a
            .database()
            .table("employee_salary")
            .unwrap()
            .scan()
            .unwrap();
        assert!(table
            .iter()
            .any(|r| r[0] == Value::Int(3) && r[1] == Value::Int(3)));
    }

    /// Bound-free and empty bounds: everything, or nothing at all.
    #[test]
    fn unbounded_reads_every_block_and_no_segment_reads_none() {
        for a in fixtures() {
            let store = a.compressed_store("employee").unwrap();
            let all = store.scan_all(a.database(), "salary").unwrap();
            let (rows, touched, pages) = block_rows(a, &[], None);
            assert_eq!(sorted(rows), sorted(all));
            assert_eq!(touched, store.attr("salary").unwrap().meta.len() as u64);
            assert_eq!(pages, touched as f64);
            let none = bound("segno", (1, -1, -1)).unwrap();
            let (rows, touched, pages) = block_rows(a, &[none], None);
            assert!(rows.is_empty());
            assert_eq!((touched, pages), (0, 0.0));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// For random `(segno, id)` bounds (and a pushed-down predicate on
        /// the value), the block stream returns exactly what filtering
        /// every decompressed row returns, and touches exactly the blocks
        /// its EXPLAIN entry counts.
        #[test]
        fn block_scan_equals_filtered_scan_all(
            incremental in proptest::prelude::any::<bool>(),
            segno in (0u8..6, -1i64..6, -1i64..6),
            id in (0u8..6, 0i64..26, 0i64..26),
            threshold in 0i64..30_000,
            filtered in proptest::prelude::any::<bool>(),
        ) {
            let a = &fixtures()[incremental as usize];
            let bounds: Vec<ColumnBound> =
                [bound("segno", segno), bound("id", id)].into_iter().flatten().collect();
            let pred = filtered.then(|| {
                Expr::bin(relstore::expr::BinOp::Gt, Expr::col(2), Expr::lit(Value::Int(threshold)))
            });
            let store = a.compressed_store("employee").unwrap();
            let want: Vec<Vec<Value>> = store
                .scan_all(a.database(), "salary")
                .unwrap()
                .into_iter()
                .filter(|r| bounds.iter().all(|b| within(b, &r[(b.column == "id") as usize])))
                .filter(|r| pred.as_ref().is_none_or(|p| p.eval_bool(r).unwrap()))
                .collect();
            let (got, touched, pages) = block_rows(a, &bounds, pred.as_ref());
            proptest::prop_assert_eq!(sorted(got), sorted(want));
            proptest::prop_assert_eq!(touched as f64, pages);
        }
    }

    #[test]
    fn reattach_returns_none_without_blob_tables() {
        let db = Database::in_memory();
        let spec = crate::spec::RelationSpec::employee();
        assert!(CompressedStore::reattach(&db, &spec).is_none());
    }
}
