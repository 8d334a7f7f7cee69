//! Physical page-level write-ahead logging.
//!
//! The paper's H-tables are transaction-time history: once a tuple version
//! is archived it must survive anything short of media loss. The seed
//! engine wrote dirty pages in place, so a crash mid-archival could corrupt
//! both the live tables and the history itself. This module adds the
//! standard fix: full page images go to an append-only, CRC-framed log
//! first; the base page file is only rewritten at checkpoints; recovery
//! replays the committed tail of the log.
//!
//! Log record framing (all integers little-endian):
//!
//! ```text
//! [kind: u8][page_id: u64][len: u32][crc32: u32][payload: len bytes]
//! ```
//!
//! * `kind` is [`WAL_REC_PAGE`] (payload = full page image) or
//!   [`WAL_REC_COMMIT`] (payload empty; `page_id` reuses its slot to carry
//!   the allocated page count at commit time).
//! * `crc32` is the IEEE CRC-32 of `kind ++ page_id ++ len ++ payload`, so
//!   a torn header is rejected just like a torn payload.
//!
//! Because records carry *full* page images, replay is idempotent and
//! needs no undo pass: recovery scans forward, buffering page images, and
//! only publishes them when it sees the transaction's commit record. The
//! scan stops at the first truncated or CRC-invalid record — everything
//! after a torn write is garbage by definition.
//!
//! Group commit: [`WalPager::commit`] seals the transaction's page images
//! into the current batch but only writes-and-fsyncs the log once every
//! [`WalConfig::group_commit`] commits (or on an explicit [`Pager::sync`] /
//! checkpoint / drop). Deferring the appends lets the batch *dedupe* page
//! images — hot pages (the catalog, a heap tail) that every transaction in
//! the batch rewrites are logged once per batch, not once per commit — so
//! larger batches amortize both the fsync and the log volume. The cost is
//! a bounded durability window: a crash mid-batch rolls back to the
//! previous batch boundary, which is itself a commit boundary — the same
//! trade DB2 exposes as `MINCOMMIT`.
//!
//! Snapshot isolation (MVCC): every commit seal bumps a monotonic
//! `commit_lsn`; every batch flush advances `durable_lsn` to it, and
//! [`Pager::pin_snapshot`] freezes the store at `durable_lsn` — the last
//! commit that reached the log and was fsynced. Pinning does no I/O, so a
//! reader never forces the writer's group-commit batch out early; a reader
//! that must see its own latest commit calls [`Pager::sync`] first. The
//! pager retains superseded *committed* page images in per-page version
//! chains, copy-on-write: the first uncommitted overwrite of a committed
//! image pushes the pre-image (tagged with its commit LSN) onto the page's
//! chain, and [`Pager::read_page_at`] serves the newest image at-or-below
//! the snapshot LSN — from the page table if its committed image is old
//! enough, else from the chain, else from the base file. Checkpoints
//! preserve pinned history by capturing the pre-fold base image (and the
//! folded image's LSN) into the chains before overwriting the base file.
//! Chains are pruned to `min(oldest pin, durable_lsn)` — the oldest LSN
//! any present or future pin can read — whenever that floor moves: at
//! every batch flush and every unpin.

use crate::page::{PageId, PAGE_SIZE};
use crate::pager::Pager;
use crate::{Result, StoreError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Record kind: a full page image staged for the in-flight transaction.
pub const WAL_REC_PAGE: u8 = 1;
/// Record kind: transaction commit (the `page_id` field carries the
/// allocated page count so recovery can restore `num_pages`).
pub const WAL_REC_COMMIT: u8 = 2;

/// Bytes of framing before the payload: kind (1) + page_id (8) + len (4) +
/// crc (4).
pub const WAL_HEADER_LEN: usize = 17;

/// Upper bound on a record payload; anything larger in the log is treated
/// as corruption (a page image is exactly [`PAGE_SIZE`] bytes).
const MAX_PAYLOAD: u32 = PAGE_SIZE as u32;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected). Slicing-by-16 tables, built once; no
// external crates. Also stamps/verifies page checksums in the base file
// (see `pager`), so the inner loop is on the physical-read hot path.
// ---------------------------------------------------------------------------

fn crc32_tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 16];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for t in 1..16 {
            for i in 0..256 {
                let prev = tables[t - 1][i];
                tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        tables
    })
}

/// Fold 16 input bytes into a running (reflected) CRC state: the state is
/// XORed into the first word, and each of the 16 bytes indexes the table
/// whose exponent matches its distance from the end of the block. Takes a
/// fixed-size array so the word loads compile without bounds checks.
#[inline(always)]
fn crc32_step16(t: &[[u32; 256]; 16], c: u32, w: &[u8; 16]) -> u32 {
    let w0 = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let w1 = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    let w2 = u32::from_le_bytes([w[8], w[9], w[10], w[11]]);
    let w3 = u32::from_le_bytes([w[12], w[13], w[14], w[15]]);
    t[15][(w0 & 0xFF) as usize]
        ^ t[14][((w0 >> 8) & 0xFF) as usize]
        ^ t[13][((w0 >> 16) & 0xFF) as usize]
        ^ t[12][(w0 >> 24) as usize]
        ^ t[11][(w1 & 0xFF) as usize]
        ^ t[10][((w1 >> 8) & 0xFF) as usize]
        ^ t[9][((w1 >> 16) & 0xFF) as usize]
        ^ t[8][(w1 >> 24) as usize]
        ^ t[7][(w2 & 0xFF) as usize]
        ^ t[6][((w2 >> 8) & 0xFF) as usize]
        ^ t[5][((w2 >> 16) & 0xFF) as usize]
        ^ t[4][(w2 >> 24) as usize]
        ^ t[3][(w3 & 0xFF) as usize]
        ^ t[2][((w3 >> 8) & 0xFF) as usize]
        ^ t[1][((w3 >> 16) & 0xFF) as usize]
        ^ t[0][(w3 >> 24) as usize]
}

/// View a `chunks_exact(16)` chunk as a fixed-size array (always succeeds
/// by construction; the fixed size lets [`crc32_step16`] skip bounds checks).
#[inline(always)]
fn as16(w: &[u8]) -> &[u8; 16] {
    w.try_into()
        .expect("chunks_exact(16) yields 16-byte chunks") // lint:allow(unreachable: chunks_exact guarantees the length)
}

/// IEEE CRC-32 of `data` (the checksum used to frame log records and to
/// stamp page slots in the base file). Slicing-by-16: sixteen bytes per
/// table-lookup round instead of one.
pub fn crc32(data: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for w in &mut chunks {
        c = crc32_step16(t, c, as16(w));
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Four independent IEEE CRC-32s computed in one interleaved pass.
///
/// A single CRC stream is a serial dependency chain (each 16-byte round
/// needs the previous round's state), which caps throughput well below
/// what the load units can sustain; four interleaved streams hide that
/// latency. The page checksum splits its fold window into quarters and
/// runs all four lanes at once (see `pager::page_crc`). Every result is
/// exactly `crc32` of its input.
pub fn crc32_quad(a: &[u8], b: &[u8], c: &[u8], d: &[u8]) -> (u32, u32, u32, u32) {
    let t = crc32_tables();
    let mut s = [0xFFFF_FFFFu32; 4];
    let mut ia = a.chunks_exact(16);
    let mut ib = b.chunks_exact(16);
    let mut ic = c.chunks_exact(16);
    let mut id = d.chunks_exact(16);
    loop {
        match (ia.next(), ib.next(), ic.next(), id.next()) {
            (Some(wa), Some(wb), Some(wc), Some(wd)) => {
                s[0] = crc32_step16(t, s[0], as16(wa));
                s[1] = crc32_step16(t, s[1], as16(wb));
                s[2] = crc32_step16(t, s[2], as16(wc));
                s[3] = crc32_step16(t, s[3], as16(wd));
            }
            // Unequal lengths: fold whatever this round still pulled, then
            // drain each lane on its own below.
            (oa, ob, oc, od) => {
                for (lane, w) in [oa, ob, oc, od].into_iter().enumerate() {
                    if let Some(w) = w {
                        s[lane] = crc32_step16(t, s[lane], as16(w));
                    }
                }
                break;
            }
        }
    }
    for (lane, it) in [&mut ia, &mut ib, &mut ic, &mut id].into_iter().enumerate() {
        for w in it.by_ref() {
            s[lane] = crc32_step16(t, s[lane], as16(w));
        }
        for &byte in it.remainder() {
            s[lane] = t[0][((s[lane] ^ byte as u32) & 0xFF) as usize] ^ (s[lane] >> 8);
        }
    }
    (
        s[0] ^ 0xFFFF_FFFF,
        s[1] ^ 0xFFFF_FFFF,
        s[2] ^ 0xFFFF_FFFF,
        s[3] ^ 0xFFFF_FFFF,
    )
}

/// Eight independent IEEE CRC-32s computed in one interleaved pass.
///
/// The four-lane variant ([`crc32_quad`]) hides most of the table-load
/// latency, but on cores with deeper load pipelines the serial chain per
/// lane is still the limiter; eight interleaved streams keep more loads
/// in flight per cycle. The page checksum splits its fold window into
/// eighths and runs all eight lanes at once (see `pager::page_crc`).
/// Every result is exactly [`crc32`] of its input.
pub fn crc32_oct(lanes: [&[u8]; 8]) -> [u32; 8] {
    let t = crc32_tables();
    let mut s = [0xFFFF_FFFFu32; 8];
    let mut iters: [std::slice::ChunksExact<'_, u8>; 8] = [
        lanes[0].chunks_exact(16),
        lanes[1].chunks_exact(16),
        lanes[2].chunks_exact(16),
        lanes[3].chunks_exact(16),
        lanes[4].chunks_exact(16),
        lanes[5].chunks_exact(16),
        lanes[6].chunks_exact(16),
        lanes[7].chunks_exact(16),
    ];
    // Joint rounds while every lane still has a full 16-byte chunk; the
    // fixed-count inner loop keeps all eight states live in registers.
    let rounds = lanes.iter().map(|l| l.len() / 16).min().unwrap_or(0);
    for _ in 0..rounds {
        for (state, it) in s.iter_mut().zip(iters.iter_mut()) {
            if let Some(w) = it.next() {
                *state = crc32_step16(t, *state, as16(w));
            }
        }
    }
    // Drain unequal tails lane by lane.
    for (lane, it) in iters.iter_mut().enumerate() {
        for w in it.by_ref() {
            s[lane] = crc32_step16(t, s[lane], as16(w));
        }
        for &byte in it.remainder() {
            s[lane] = t[0][((s[lane] ^ byte as u32) & 0xFF) as usize] ^ (s[lane] >> 8);
        }
    }
    for state in &mut s {
        *state ^= 0xFFFF_FFFF;
    }
    s
}

/// Little-endian `u64` at `pos`; the recovery scan bound-checks the header
/// before decoding, so the copy is always in range.
fn le_u64_at(b: &[u8], pos: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[pos..pos + 8]);
    u64::from_le_bytes(w)
}

/// Little-endian `u32` at `pos` (see [`le_u64_at`]).
fn le_u32_at(b: &[u8], pos: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[pos..pos + 4]);
    u32::from_le_bytes(w)
}

/// Encode one framed log record.
pub fn encode_record(kind: u8, page_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(WAL_HEADER_LEN + payload.len());
    rec.push(kind);
    rec.extend_from_slice(&page_id.to_le_bytes());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    // CRC covers kind ++ page_id ++ len ++ payload; splice it in after.
    let mut crc_input = Vec::with_capacity(13 + payload.len());
    crc_input.extend_from_slice(&rec[..13]);
    crc_input.extend_from_slice(payload);
    rec.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// One framing-valid record yielded by [`RecordScan`]: the caller
/// interprets `kind` (WAL replay knows pages and commits; the replication
/// shipping stream adds its own kinds on top of the same framing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannedRecord<'a> {
    /// Record kind byte (e.g. [`WAL_REC_PAGE`], [`WAL_REC_COMMIT`]).
    pub kind: u8,
    /// The record's `page_id` header field (commit records reuse it for
    /// the allocated page count; other framings may carry other scalars).
    pub page_id: u64,
    /// Record payload.
    pub payload: &'a [u8],
    /// Byte offset of the record's first framing byte.
    pub start: usize,
    /// Byte offset one past the record's last payload byte.
    pub end: usize,
}

/// Forward scanner over CRC-framed log records — the single replay entry
/// point shared by [`WalPager::open`] and the replication subsystem
/// (`crates/replica` replays shipped WAL streams through it).
///
/// Yields records while framing, CRC and kind all validate; afterwards
/// [`RecordScan::stop`] says why the scan ended and [`RecordScan::pos`]
/// where. Everything from `pos()` onward is, by the WAL's own definition,
/// garbage (torn tail) or corruption — callers decide whether that means
/// "stop replay here" (recovery) or "re-request from this position"
/// (replication).
pub struct RecordScan<'a> {
    bytes: &'a [u8],
    kinds: &'a [u8],
    pos: usize,
    stop: RecoveryStop,
    done: bool,
}

impl<'a> RecordScan<'a> {
    /// Scan `bytes`, accepting only records whose kind byte is in `kinds`
    /// (a CRC-valid record of any other kind stops the scan with
    /// [`RecoveryStop::BadKind`]).
    pub fn new(bytes: &'a [u8], kinds: &'a [u8]) -> RecordScan<'a> {
        RecordScan {
            bytes,
            kinds,
            pos: 0,
            stop: RecoveryStop::CleanEof,
            done: false,
        }
    }

    /// Byte offset of the first unconsumed byte (after exhaustion: where
    /// the scan stopped; everything before it was valid records).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Why the scan ended (meaningful once `next()` returned `None`).
    pub fn stop(&self) -> RecoveryStop {
        self.stop
    }
}

impl<'a> Iterator for RecordScan<'a> {
    type Item = ScannedRecord<'a>;

    fn next(&mut self) -> Option<ScannedRecord<'a>> {
        if self.done {
            return None;
        }
        let bytes = self.bytes;
        let pos = self.pos;
        if pos == bytes.len() {
            self.done = true;
            return None;
        }
        if bytes.len() - pos < WAL_HEADER_LEN {
            self.stop = RecoveryStop::TornRecord;
            self.done = true;
            return None;
        }
        let kind = bytes[pos];
        let page_id = le_u64_at(bytes, pos + 1);
        let len = le_u32_at(bytes, pos + 9);
        let crc = le_u32_at(bytes, pos + 13);
        if len > MAX_PAYLOAD {
            self.stop = RecoveryStop::BadChecksum;
            self.done = true;
            return None;
        }
        let end = pos + WAL_HEADER_LEN + len as usize;
        if end > bytes.len() {
            self.stop = RecoveryStop::TornRecord;
            self.done = true;
            return None;
        }
        let payload = &bytes[pos + WAL_HEADER_LEN..end];
        let mut crc_input = Vec::with_capacity(13 + payload.len());
        crc_input.extend_from_slice(&bytes[pos..pos + 13]);
        crc_input.extend_from_slice(payload);
        if crc32(&crc_input) != crc {
            self.stop = RecoveryStop::BadChecksum;
            self.done = true;
            return None;
        }
        if !self.kinds.contains(&kind) {
            self.stop = RecoveryStop::BadKind;
            self.done = true;
            return None;
        }
        self.pos = end;
        Some(ScannedRecord {
            kind,
            page_id,
            payload,
            start: pos,
            end,
        })
    }
}

/// Why a recovery scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStop {
    /// Scanned the whole log; every byte was a valid record.
    CleanEof,
    /// The final record was cut short (torn write of the header or payload).
    TornRecord,
    /// A record's CRC did not match its contents (bit flip / garbage tail).
    BadChecksum,
    /// An unknown record kind — treated exactly like a bad checksum.
    BadKind,
}

/// Outcome of replaying the log tail on open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Total log bytes present at open.
    pub log_bytes: u64,
    /// Committed transactions replayed into the page table.
    pub commits_applied: u64,
    /// Page-image records belonging to those committed transactions.
    pub pages_applied: u64,
    /// Records discarded because no commit record followed them.
    pub records_discarded: u64,
    /// Bytes ignored at the tail (from the first bad record onward).
    pub bytes_discarded: u64,
    /// What terminated the scan.
    pub stop: RecoveryStop,
}

/// Running counters for the log writer (mirrors [`crate::IoStats`] for the
/// buffer pool; used by the commit microbench and the torture tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Page-image records appended.
    pub page_records: u64,
    /// Commit records appended.
    pub commits: u64,
    /// Physical fsyncs issued on the log device.
    pub syncs: u64,
    /// Checkpoints taken (log folded into the base file and truncated).
    pub checkpoints: u64,
}

// ---------------------------------------------------------------------------
// Log devices
// ---------------------------------------------------------------------------

/// An append-only byte log. `append` makes bytes *visible* (a subsequent
/// `read_all` sees them) but only `sync` makes them *durable*; the
/// fault-injection wrappers model exactly that distinction.
pub trait LogFile: Send + Sync {
    /// Append raw bytes to the log.
    fn append(&self, bytes: &[u8]) -> Result<()>;
    /// Force appended bytes to stable storage.
    fn sync(&self) -> Result<()>;
    /// Read the entire log contents.
    fn read_all(&self) -> Result<Vec<u8>>;
    /// Discard the log contents.
    fn truncate(&self) -> Result<()>;
    /// Current log length in bytes.
    fn len(&self) -> Result<u64>;
    /// Whether the log is empty.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// In-memory log for tests. Exposes raw-byte accessors so corruption tests
/// can chop or flip committed bytes, plus a sync counter for group-commit
/// assertions.
#[derive(Default)]
pub struct MemLog {
    bytes: Mutex<Vec<u8>>,
    syncs: Mutex<u64>,
}

impl MemLog {
    /// An empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the raw log bytes.
    pub fn raw(&self) -> Vec<u8> {
        self.bytes.lock().clone()
    }

    /// Replace the raw log bytes (corruption injection for tests).
    pub fn set_raw(&self, bytes: Vec<u8>) {
        *self.bytes.lock() = bytes;
    }

    /// Number of `sync` calls observed.
    pub fn sync_count(&self) -> u64 {
        *self.syncs.lock()
    }
}

impl LogFile for MemLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.bytes.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        *self.syncs.lock() += 1;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(self.bytes.lock().clone())
    }

    fn truncate(&self) -> Result<()> {
        self.bytes.lock().clear();
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.bytes.lock().len() as u64)
    }
}

/// File-backed log. Appends go straight to the OS (`write_all`); `sync`
/// maps to `fdatasync`, which is the expensive call group commit exists to
/// amortize.
pub struct FileLog {
    file: Mutex<File>,
}

impl FileLog {
    /// Open (or create) a log file at `path`.
    ///
    /// Existing contents are deliberately kept (`truncate(false)`): the
    /// committed tail left behind by a crash is exactly what
    /// [`WalPager::open`] must replay, and the stale tail beyond it is
    /// fenced off by the CRC framing, not by truncation. Truncating here
    /// would silently discard every commit since the last checkpoint.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileLog {
            file: Mutex::new(file),
        })
    }
}

impl LogFile for FileLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::End(0))?;
        // lint:allow(the log mutex serializes appends: seek-to-end plus write
        // must be atomic for record framing to hold)
        f.write_all(bytes)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        // lint:allow(fsync under the log mutex is the group-commit barrier —
        // every batched record is on disk before commit returns)
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        // lint:allow(recovery-time scan: exclusive access to the log file while
        // reading it back is the point)
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn truncate(&self) -> Result<()> {
        let f = self.file.lock();
        // lint:allow(checkpoint truncation must not race an append on the
        // shared log descriptor)
        f.set_len(0)?;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.lock().metadata()?.len())
    }
}

// ---------------------------------------------------------------------------
// WalPager
// ---------------------------------------------------------------------------

/// Tuning knobs for the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Commits per fsync: 1 = fsync every commit, N = one fsync per N
    /// commits (the last N-1 commits ride in the volatile tail until the
    /// batch fills or someone syncs).
    pub group_commit: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { group_commit: 8 }
    }
}

impl WalConfig {
    /// Config with the given group-commit batch size (clamped to ≥ 1).
    pub fn with_group_commit(batch: usize) -> Self {
        WalConfig {
            group_commit: batch.max(1),
        }
    }
}

/// One page's superseded committed images, oldest first: `(lsn, image)`
/// where `lsn` is the commit that produced the image (0 = the pre-fold
/// base captured at a checkpoint).
type VersionChain = Vec<(u64, Box<[u8; PAGE_SIZE]>)>;

struct WalState {
    /// Latest image of every page written since the last checkpoint
    /// (committed or not — in-process readers must see their own writes).
    table: HashMap<PageId, Box<[u8; PAGE_SIZE]>>,
    /// Pages dirtied since the last commit. Their images live in `table`
    /// and are snapshotted into `batch` only when the transaction commits
    /// — a page rewritten ten times in one transaction is copied once,
    /// and uncommitted images never reach the log at all.
    uncommitted: HashSet<PageId>,
    /// Committed images awaiting the batch flush, deduped by page: a page
    /// rewritten by five transactions in the batch is logged once.
    batch: HashMap<PageId, Box<[u8; PAGE_SIZE]>>,
    /// Logical page count (base pages + allocations since checkpoint).
    num_pages: u64,
    /// `num_pages` as of the last commit — what the batch's commit record
    /// must carry, so allocations after it roll back.
    committed_num_pages: u64,
    /// Commits sealed into `batch` but not yet written + fsynced.
    pending_commits: usize,
    /// Sequence number of the last sealed commit (monotonic per process;
    /// starts at the number of commits replayed from the log on open).
    commit_lsn: u64,
    /// The last commit written to the log and fsynced — what snapshots
    /// pin. Set on open (everything replayed is durable), by every batch
    /// flush and by checkpoints.
    durable_lsn: u64,
    /// `committed_num_pages` as of `durable_lsn`.
    durable_num_pages: u64,
    /// For each page in `table` whose image is committed: the LSN of the
    /// commit that produced it. Entries for pages in `uncommitted` are
    /// stale (they describe the overwritten committed image, which now
    /// lives in `versions`).
    page_lsn: HashMap<PageId, u64>,
    /// Superseded committed images, oldest first: `(lsn, image)` where
    /// `lsn` is the commit that produced the image (0 = the pre-fold base
    /// image captured at a checkpoint). Populated copy-on-write by
    /// `write_page` when an uncommitted write lands on a committed image;
    /// pruned to `min(oldest pin, durable_lsn)` by `prune_versions`.
    versions: HashMap<PageId, VersionChain>,
    /// Live snapshot pins: commit LSN → refcount. Ordered so the pruning
    /// logic can read the oldest pin in O(log n).
    pinned: BTreeMap<u64, usize>,
    stats: WalStats,
}

/// A [`Pager`] that stages all writes in a write-ahead log.
///
/// * `write_page` caches the image in an in-memory page table — the base
///   pager is never touched, and nothing reaches the log until a commit
///   seals the image into the current batch.
/// * `commit` seals the transaction's images; the batch is written (one
///   deduped image per page plus a commit record) and fsynced once per
///   [`WalConfig::group_commit`] commits.
/// * `checkpoint` fsyncs the log, folds the page table into the base
///   pager, fsyncs that, then truncates the log.
/// * `open` replays the committed log tail (stopping at the first torn or
///   corrupt record) so a reopened store serves reads as of the last
///   durable commit.
pub struct WalPager {
    base: Arc<dyn Pager>,
    log: Arc<dyn LogFile>,
    cfg: WalConfig,
    state: Mutex<WalState>,
    recovery: RecoveryInfo,
}

impl WalPager {
    /// Open a WAL-backed pager over `base`, replaying any committed tail
    /// already present in `log`.
    pub fn open(base: Arc<dyn Pager>, log: Arc<dyn LogFile>, cfg: WalConfig) -> Result<Self> {
        let bytes = log.read_all()?;
        let mut table: HashMap<PageId, Box<[u8; PAGE_SIZE]>> = HashMap::new();
        let mut page_lsn: HashMap<PageId, u64> = HashMap::new();
        let mut num_pages = base.num_pages();
        let mut info = RecoveryInfo {
            log_bytes: bytes.len() as u64,
            commits_applied: 0,
            pages_applied: 0,
            records_discarded: 0,
            bytes_discarded: 0,
            stop: RecoveryStop::CleanEof,
        };

        // Scan forward; publish staged images only at commit records.
        let mut staged: Vec<(PageId, Box<[u8; PAGE_SIZE]>)> = Vec::new();
        let mut scan = RecordScan::new(&bytes, &[WAL_REC_PAGE, WAL_REC_COMMIT]);
        let mut bad_payload_at = None;
        for rec in &mut scan {
            match rec.kind {
                WAL_REC_PAGE => {
                    if rec.payload.len() != PAGE_SIZE {
                        bad_payload_at = Some(rec.start);
                        break;
                    }
                    let mut img = Box::new([0u8; PAGE_SIZE]);
                    img.copy_from_slice(rec.payload);
                    staged.push((rec.page_id, img));
                }
                _ => {
                    info.commits_applied += 1;
                    info.pages_applied += staged.len() as u64;
                    for (id, img) in staged.drain(..) {
                        table.insert(id, img);
                        page_lsn.insert(id, info.commits_applied);
                    }
                    num_pages = num_pages.max(rec.page_id);
                }
            }
        }
        let pos = match bad_payload_at {
            // A CRC-valid page record whose payload is not a full page
            // image is corruption by this framing's rules, not the
            // scanner's: treat like a bad checksum from its first byte.
            Some(at) => {
                info.stop = RecoveryStop::BadChecksum;
                at
            }
            None => {
                info.stop = scan.stop();
                scan.pos()
            }
        };
        info.bytes_discarded = (bytes.len() - pos) as u64;
        info.records_discarded = staged.len() as u64;

        let pager = WalPager {
            base,
            log,
            cfg,
            state: Mutex::new(WalState {
                table,
                uncommitted: HashSet::new(),
                batch: HashMap::new(),
                num_pages,
                committed_num_pages: num_pages,
                pending_commits: 0,
                commit_lsn: info.commits_applied,
                durable_lsn: info.commits_applied,
                durable_num_pages: num_pages,
                page_lsn,
                versions: HashMap::new(),
                pinned: BTreeMap::new(),
                stats: WalStats::default(),
            }),
            recovery: info,
        };
        // A dirty recovery tail must not stay in the log. Appends go
        // after the rejected bytes, so a torn or corrupt record would
        // become a permanent roadblock: every future recovery stops at
        // it and silently discards everything written from now on.
        // Commit-less staged pages are as bad — left in place, the next
        // commit's recovery would fold an aborted batch into it. Fold
        // the recovered state into the base and reclaim the log before
        // accepting writes (crash-safe: the clean prefix stays replayable
        // until the truncate, and replaying it over a half-folded base
        // reproduces the same images).
        if info.stop != RecoveryStop::CleanEof
            || info.bytes_discarded > 0
            || info.records_discarded > 0
        {
            pager.checkpoint()?;
        }
        Ok(pager)
    }

    /// What the opening replay found in the log.
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Log-writer counters since open.
    pub fn wal_stats(&self) -> WalStats {
        self.state.lock().stats
    }

    /// Current log length in bytes (grows until the next checkpoint).
    pub fn log_len(&self) -> Result<u64> {
        self.log.len()
    }

    /// Pages currently staged in the WAL page table.
    pub fn staged_pages(&self) -> usize {
        self.state.lock().table.len()
    }

    /// One-line MVCC state summary for a page (tests/debugging only).
    #[doc(hidden)]
    pub fn debug_page(&self, id: PageId) -> String {
        let st = self.state.lock();
        format!(
            "page {id}: in_table={} page_lsn={:?} uncommitted={} chain={:?} commit_lsn={} committed_pages={} base_pages={} pins={:?}",
            st.table.contains_key(&id),
            st.page_lsn.get(&id),
            st.uncommitted.contains(&id),
            st.versions
                .get(&id)
                .map(|c| c.iter().map(|(l, img)| (*l, img[..4].to_vec())).collect::<Vec<_>>())
                .unwrap_or_default(),
            st.commit_lsn,
            st.committed_num_pages,
            self.base.num_pages(),
            st.pinned,
        )
    }

    /// Seal the in-flight transaction: bump the commit LSN, move its page
    /// images into the group-commit batch (deduped — a page already in the
    /// batch keeps only the newest committed image), stamp each page's
    /// commit LSN and record the allocated page count. Retained versions
    /// stay: until the batch is flushed, new pins land at the older
    /// `durable_lsn` and may need them.
    fn seal_commit(st: &mut WalState) {
        st.commit_lsn += 1;
        let lsn = st.commit_lsn;
        for id in st.uncommitted.drain() {
            st.batch.insert(id, st.table[&id].clone());
            st.page_lsn.insert(id, lsn);
        }
        st.committed_num_pages = st.num_pages;
        st.stats.commits += 1;
        st.pending_commits += 1;
    }

    /// Drop retained versions no reader can reach. Every live pin is at or
    /// above the oldest one, and every future pin is at or above
    /// `durable_lsn`, so below `floor = min(oldest pin, durable_lsn)` only
    /// the newest image at-or-below `floor` matters. A chain dies whole
    /// once the page's current committed image — the page-table image, or
    /// for a page folded out of the table the base file, which equals the
    /// chain's newest entry — is itself at-or-below `floor`.
    fn prune_versions(st: &mut WalState) {
        let floor = st
            .pinned
            .keys()
            .next()
            .map_or(st.durable_lsn, |&pin| pin.min(st.durable_lsn));
        let (table, page_lsn, uncommitted) = (&st.table, &st.page_lsn, &st.uncommitted);
        st.versions.retain(|id, chain| {
            let current = if uncommitted.contains(id) {
                None
            } else if table.contains_key(id) {
                Some(page_lsn.get(id).copied().unwrap_or(0))
            } else {
                chain.last().map(|(l, _)| *l)
            };
            if current.is_some_and(|l| l <= floor) {
                return false;
            }
            let keep_from = chain.iter().rposition(|(l, _)| *l <= floor).unwrap_or(0);
            chain.drain(..keep_from);
            !chain.is_empty()
        });
    }

    /// Flush the sealed batch — deduped page images in page order, then
    /// one commit record, then fsync — and advance `durable_lsn` to the
    /// last sealed commit. No-op when nothing has committed since the last
    /// flush.
    fn flush_batch(&self, st: &mut WalState) -> Result<()> {
        if st.pending_commits == 0 {
            return Ok(());
        }
        let mut ids: Vec<PageId> = st.batch.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.log
                .append(&encode_record(WAL_REC_PAGE, id, &st.batch[&id][..]))?;
            st.stats.page_records += 1;
        }
        self.log
            .append(&encode_record(WAL_REC_COMMIT, st.committed_num_pages, &[]))?;
        self.log.sync()?;
        st.stats.syncs += 1;
        st.batch.clear();
        st.pending_commits = 0;
        st.durable_lsn = st.commit_lsn;
        st.durable_num_pages = st.committed_num_pages;
        Self::prune_versions(st);
        Ok(())
    }
}

impl Pager for WalPager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let st = self.state.lock();
        if let Some(img) = st.table.get(&id) {
            buf.copy_from_slice(&img[..]);
            return Ok(());
        }
        if id >= st.num_pages {
            return Err(StoreError::NotFound(format!("page {id}")));
        }
        if id < self.base.num_pages() {
            // lint:allow(read-through to the base file under the state lock keeps
            // the page table and the base file mutually consistent)
            self.base.read_page(id, buf)
        } else {
            // Allocated since the last checkpoint but never written: the
            // base file has no bytes for it yet, so it reads as zeroes.
            buf.fill(0);
            Ok(())
        }
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let st = &mut *self.state.lock();
        if id >= st.num_pages {
            return Err(StoreError::NotFound(format!("page {id}")));
        }
        match st.table.get_mut(&id) {
            Some(img) => {
                // Copy-on-write: the first uncommitted write over a
                // committed image retains the pre-image on the page's
                // version chain so pinned snapshots can keep reading it.
                // Retention is unconditional — a snapshot may be pinned
                // *after* this overwrite but before the commit seals, and
                // it must still see the pre-image; chains are discarded at
                // the next seal if nobody is pinned by then.
                if !st.uncommitted.contains(&id) {
                    let lsn = st.page_lsn.get(&id).copied().unwrap_or(0);
                    st.versions.entry(id).or_default().push((lsn, img.clone()));
                }
                img.copy_from_slice(buf);
            }
            None => {
                let mut img = Box::new([0u8; PAGE_SIZE]);
                img.copy_from_slice(buf);
                st.table.insert(id, img);
            }
        }
        st.uncommitted.insert(id);
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        // Allocation is not logged: the commit record carries the page
        // count, and unwritten pages read back as zeroes.
        let mut st = self.state.lock();
        let id = st.num_pages;
        st.num_pages += 1;
        Ok(id)
    }

    fn num_pages(&self) -> u64 {
        self.state.lock().num_pages
    }

    fn sync(&self) -> Result<()> {
        let st = &mut *self.state.lock();
        self.flush_batch(st)
    }

    fn commit(&self) -> Result<()> {
        let st = &mut *self.state.lock();
        Self::seal_commit(st);
        if st.pending_commits >= self.cfg.group_commit.max(1) {
            self.flush_batch(st)?;
        }
        Ok(())
    }

    fn checkpoint(&self) -> Result<()> {
        let st = &mut *self.state.lock();
        // Seal whatever is in flight — a checkpoint is a commit point, so
        // images dirtied since the last commit go with it — and flush the
        // batch so the log is complete before the base file changes.
        Self::seal_commit(st);
        self.flush_batch(st)?;

        let mut ids: Vec<PageId> = st.table.keys().copied().collect();
        ids.sort_unstable();

        // Folding is about to overwrite the base file and clear the page
        // table; pinned snapshots older than a page's folded image must
        // keep reading history, so capture what the fold destroys into the
        // version chains first:
        //  * a pin older than everything retained for a page still needs
        //    the pre-fold base image — push it at the chain front, tagged
        //    LSN 0 ("before every in-log commit");
        //  * once a page has a chain, the folded image's own LSN vanishes
        //    with `page_lsn`, so append `(lsn, image)` at the chain tail —
        //    otherwise a pin newer than the fold would wrongly pick an
        //    older retained version instead of the folded state.
        if !st.pinned.is_empty() {
            if let Some(&min_pin) = st.pinned.keys().next() {
                for &id in &ids {
                    let lsn = st.page_lsn.get(&id).copied().unwrap_or(0);
                    let chain_floor = st
                        .versions
                        .get(&id)
                        .and_then(|c| c.first())
                        .map(|(l, _)| *l);
                    if min_pin < lsn && chain_floor.is_none_or(|l| l > min_pin) {
                        // Pages past the base file were allocated since the
                        // last fold and read as zeroes — which is exactly
                        // their pre-fold image.
                        let mut img = Box::new([0u8; PAGE_SIZE]);
                        if id < self.base.num_pages() {
                            // lint:allow(pre-fold capture must be atomic with the
                            // fold below — dropping the state lock here would let
                            // a pin read a half-captured version chain)
                            self.base.read_page(id, &mut img[..])?;
                        }
                        st.versions.entry(id).or_default().insert(0, (0, img));
                    }
                    if let Some(chain) = st.versions.get_mut(&id) {
                        if !chain.is_empty() {
                            chain.push((lsn, st.table[&id].clone()));
                        }
                    }
                }
            }
        }

        // Fold the page table into the base file in page order.
        while self.base.num_pages() < st.num_pages {
            self.base.allocate()?;
        }
        for id in ids {
            // lint:allow(checkpoint folds the page table into the base file; the
            // state lock must cover the whole fold or readers see a torn mix)
            self.base.write_page(id, &st.table[&id][..])?;
        }
        self.base.sync()?;

        // The base now holds everything the log did; reclaim the log.
        self.log.truncate()?;
        self.log.sync()?;
        st.stats.syncs += 1;
        st.stats.checkpoints += 1;
        st.table.clear();
        st.page_lsn.clear();
        // Folded pages now read from the base file; only chains a live
        // pin still needs survive.
        Self::prune_versions(st);
        Ok(())
    }

    fn is_transactional(&self) -> bool {
        true
    }

    fn checksum_stats(&self) -> (u64, u64) {
        self.base.checksum_stats()
    }

    fn reset_checksum_stats(&self) {
        self.base.reset_checksum_stats();
    }

    fn commit_lsn(&self) -> u64 {
        self.state.lock().commit_lsn
    }

    /// Pin the last durable commit for snapshot reads. No I/O: commits
    /// sealed since the last flush are not visible to the pin (call
    /// [`Pager::sync`] first to read your own writes), and since the pin
    /// is never newer than the log's fsynced tail, recovery can only land
    /// at or after it. Registration happens under the state lock, so the
    /// floor `prune_versions` uses can never pass a pin being taken.
    fn pin_snapshot(&self) -> Result<Option<(u64, u64)>> {
        let st = &mut *self.state.lock();
        let lsn = st.durable_lsn;
        *st.pinned.entry(lsn).or_insert(0) += 1;
        Ok(Some((lsn, st.durable_num_pages)))
    }

    fn unpin_snapshot(&self, commit_lsn: u64) {
        let st = &mut *self.state.lock();
        if let Some(n) = st.pinned.get_mut(&commit_lsn) {
            *n -= 1;
            if *n == 0 {
                st.pinned.remove(&commit_lsn);
            }
        }
        Self::prune_versions(st);
    }

    /// Serve page `id` as of pinned commit `lsn`: the page table if its
    /// committed image is old enough, else the newest retained version
    /// at-or-below the pin, else the base file (pre-fold state), else
    /// zeroes for pages allocated-but-unwritten at the pin. Uncommitted
    /// images are never served — their committed pre-image is on the
    /// version chain (copy-on-write in `write_page`).
    fn read_page_at(&self, id: PageId, lsn: u64, buf: &mut [u8]) -> Result<()> {
        let st = self.state.lock();
        if !st.uncommitted.contains(&id) {
            if let Some(img) = st.table.get(&id) {
                if st.page_lsn.get(&id).copied().unwrap_or(0) <= lsn {
                    buf.copy_from_slice(&img[..]);
                    return Ok(());
                }
            }
        }
        if let Some(chain) = st.versions.get(&id) {
            if let Some((_, img)) = chain.iter().rev().find(|(l, _)| *l <= lsn) {
                buf.copy_from_slice(&img[..]);
                return Ok(());
            }
        }
        if id < self.base.num_pages() {
            // lint:allow(read-through to the base file under the state lock keeps
            // the version chains and the base file mutually consistent)
            return self.base.read_page(id, buf);
        }
        if id < st.num_pages {
            buf.fill(0);
            return Ok(());
        }
        Err(StoreError::NotFound(format!("page {id}")))
    }
}

impl Drop for WalPager {
    fn drop(&mut self) {
        // Best-effort: write + fsync any sealed-but-unflushed batch so a
        // clean process exit never loses commits. Uncommitted images are
        // deliberately left behind. Errors are unreportable here; crash
        // tests exercise the failure path explicitly.
        let st = &mut *self.state.lock();
        // lint:allow(Drop cannot report errors; the crash-recovery tests
        // exercise the failure path explicitly)
        let _ = self.flush_batch(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn wal_over_mem(cfg: WalConfig) -> (Arc<MemPager>, Arc<MemLog>, WalPager) {
        let base = Arc::new(MemPager::new());
        let log = Arc::new(MemLog::new());
        let pager = WalPager::open(base.clone(), log.clone(), cfg).unwrap();
        (base, log, pager)
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_quad_matches_single_stream() {
        for lens in [
            [0, 0, 0, 0],
            [1024, 1024, 1024, 1024],
            [1, 17, 40, 1000],
            [33, 0, 16, 5],
        ] {
            let lanes: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(k, &n)| (0..n).map(|i| (i * 11 + k * 5 + 1) as u8).collect())
                .collect();
            let got = crc32_quad(&lanes[0], &lanes[1], &lanes[2], &lanes[3]);
            let want = (
                crc32(&lanes[0]),
                crc32(&lanes[1]),
                crc32(&lanes[2]),
                crc32(&lanes[3]),
            );
            assert_eq!(got, want, "{lens:?}");
        }
    }

    #[test]
    fn record_roundtrip_survives_encode() {
        let payload = vec![7u8; PAGE_SIZE];
        let rec = encode_record(WAL_REC_PAGE, 42, &payload);
        assert_eq!(rec.len(), WAL_HEADER_LEN + PAGE_SIZE);
        assert_eq!(rec[0], WAL_REC_PAGE);
        assert_eq!(u64::from_le_bytes(rec[1..9].try_into().unwrap()), 42);
    }

    #[test]
    fn reads_fall_through_to_base_and_zero_fill() {
        let (base, _log, pager) = wal_over_mem(WalConfig::default());
        base.allocate().unwrap();
        let mut img = [0u8; PAGE_SIZE];
        img[0] = 9;
        base.write_page(0, &img).unwrap();

        // Reopen so the WalPager sees the base page.
        let log = Arc::new(MemLog::new());
        let pager2 = WalPager::open(base, log, WalConfig::default()).unwrap();
        drop(pager);
        let mut buf = [0u8; PAGE_SIZE];
        pager2.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 9);

        // Freshly allocated, never-written page reads as zeroes.
        let id = pager2.allocate().unwrap();
        pager2.read_page(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn uncommitted_writes_do_not_survive_reopen() {
        let base = Arc::new(MemPager::new());
        let log = Arc::new(MemLog::new());
        {
            let pager = WalPager::open(base.clone(), log.clone(), WalConfig::default()).unwrap();
            let id = pager.allocate().unwrap();
            let img = [3u8; PAGE_SIZE];
            pager.write_page(id, &img).unwrap();
            // no commit
        }
        let pager = WalPager::open(base, log.clone(), WalConfig::default()).unwrap();
        assert_eq!(pager.num_pages(), 0, "uncommitted allocation rolled back");
        // Deferred appends mean an uncommitted image never even reaches
        // the log — there is nothing to discard.
        assert_eq!(log.len().unwrap(), 0);
        assert_eq!(pager.recovery().records_discarded, 0);
        assert_eq!(pager.recovery().commits_applied, 0);
    }

    #[test]
    fn committed_writes_survive_reopen_without_checkpoint() {
        let base = Arc::new(MemPager::new());
        let log = Arc::new(MemLog::new());
        {
            let pager =
                WalPager::open(base.clone(), log.clone(), WalConfig::with_group_commit(1)).unwrap();
            let id = pager.allocate().unwrap();
            let img = [5u8; PAGE_SIZE];
            pager.write_page(id, &img).unwrap();
            pager.commit().unwrap();
        }
        assert_eq!(base.num_pages(), 0, "base untouched before checkpoint");
        let pager = WalPager::open(base, log, WalConfig::default()).unwrap();
        assert_eq!(pager.num_pages(), 1);
        assert_eq!(pager.recovery().commits_applied, 1);
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 5);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let (_base, log, pager) = wal_over_mem(WalConfig::with_group_commit(8));
        let id = pager.allocate().unwrap();
        let img = [1u8; PAGE_SIZE];
        for _ in 0..64 {
            pager.write_page(id, &img).unwrap();
            pager.commit().unwrap();
        }
        assert_eq!(log.sync_count(), 8, "64 commits / batch 8 = 8 fsyncs");
        assert_eq!(pager.wal_stats().commits, 64);

        // fsync-per-commit for comparison.
        let (_b2, log2, p2) = wal_over_mem(WalConfig::with_group_commit(1));
        let id2 = p2.allocate().unwrap();
        for _ in 0..64 {
            p2.write_page(id2, &img).unwrap();
            p2.commit().unwrap();
        }
        assert_eq!(log2.sync_count(), 64);
    }

    #[test]
    fn explicit_sync_flushes_partial_batch() {
        let (_base, log, pager) = wal_over_mem(WalConfig::with_group_commit(100));
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[2u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        assert_eq!(log.sync_count(), 0, "batch not full yet");
        pager.sync().unwrap();
        assert_eq!(log.sync_count(), 1);
        pager.sync().unwrap();
        assert_eq!(log.sync_count(), 1, "nothing pending, no extra fsync");
    }

    #[test]
    fn drop_flushes_pending_commits() {
        let base = Arc::new(MemPager::new());
        let log = Arc::new(MemLog::new());
        {
            let pager =
                WalPager::open(base.clone(), log.clone(), WalConfig::with_group_commit(100))
                    .unwrap();
            let id = pager.allocate().unwrap();
            pager.write_page(id, &[4u8; PAGE_SIZE]).unwrap();
            pager.commit().unwrap();
            assert_eq!(log.sync_count(), 0);
        }
        assert_eq!(log.sync_count(), 1, "Drop fsynced the tail");
    }

    #[test]
    fn checkpoint_folds_into_base_and_truncates_log() {
        let (base, log, pager) = wal_over_mem(WalConfig::default());
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        pager.write_page(a, &[0xAA; PAGE_SIZE]).unwrap();
        pager.write_page(b, &[0xBB; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        pager.checkpoint().unwrap();

        assert_eq!(base.num_pages(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        base.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 0xBB);
        assert_eq!(log.len().unwrap(), 0, "checkpoint truncated the log");
        assert_eq!(pager.staged_pages(), 0);

        // Post-checkpoint reads come from the base.
        pager.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0xAA);
    }

    #[test]
    fn replay_stops_at_torn_record() {
        let base = Arc::new(MemPager::new());
        let log = Arc::new(MemLog::new());
        {
            let pager =
                WalPager::open(base.clone(), log.clone(), WalConfig::with_group_commit(1)).unwrap();
            let id = pager.allocate().unwrap();
            pager.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
            pager.commit().unwrap(); // txn 1: durable
            pager.write_page(id, &[2u8; PAGE_SIZE]).unwrap();
            pager.commit().unwrap(); // txn 2: will be torn below
        }
        let mut raw = log.raw();
        raw.truncate(raw.len() - 10); // tear the final commit record
        log.set_raw(raw);

        let pager = WalPager::open(base, log, WalConfig::default()).unwrap();
        assert_eq!(pager.recovery().stop, RecoveryStop::TornRecord);
        assert_eq!(pager.recovery().commits_applied, 1);
        assert_eq!(
            pager.recovery().records_discarded,
            1,
            "txn 2's page image dropped"
        );
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "state is as of txn 1");
    }

    #[test]
    fn replay_rejects_bit_flip_via_crc() {
        let base = Arc::new(MemPager::new());
        let log = Arc::new(MemLog::new());
        let rec1_end;
        {
            let pager =
                WalPager::open(base.clone(), log.clone(), WalConfig::with_group_commit(1)).unwrap();
            let id = pager.allocate().unwrap();
            pager.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
            pager.commit().unwrap();
            rec1_end = log.len().unwrap() as usize;
            pager.write_page(id, &[2u8; PAGE_SIZE]).unwrap();
            pager.commit().unwrap();
        }
        let mut raw = log.raw();
        // Flip one payload bit inside txn 2's page image.
        raw[rec1_end + WAL_HEADER_LEN + 100] ^= 0x01;
        log.set_raw(raw);

        let pager = WalPager::open(base, log, WalConfig::default()).unwrap();
        assert_eq!(pager.recovery().stop, RecoveryStop::BadChecksum);
        assert_eq!(pager.recovery().commits_applied, 1);
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "corrupt txn 2 discarded, txn 1 intact");
    }

    #[test]
    fn file_backed_reopen_preserves_log_tail_and_base_pages() {
        // Regression for the open-mode decision: FileLog::open and
        // FilePager::open must keep existing contents (`truncate(false)`).
        // An accidental `truncate(true)` on either file would wipe the
        // committed WAL tail / the checkpointed base pages, and this
        // reboot sequence would come back empty.
        use crate::pager::FilePager;
        let dir = std::env::temp_dir().join(format!("relstore-walfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("pages.db");
        let log_path = dir.join("pages.db.wal");
        {
            let base = Arc::new(FilePager::open(&base_path).unwrap());
            let log = Arc::new(FileLog::open(&log_path).unwrap());
            let pager = WalPager::open(base, log, WalConfig::with_group_commit(1)).unwrap();
            let a = pager.allocate().unwrap();
            pager.write_page(a, &[0x5A; PAGE_SIZE]).unwrap();
            pager.commit().unwrap();
            pager.checkpoint().unwrap(); // folds page 0 into the base file
            let b = pager.allocate().unwrap();
            pager.write_page(b, &[0x6B; PAGE_SIZE]).unwrap();
            pager.commit().unwrap(); // lives only in the log tail
        }
        // "Reboot": reopening both files must replay the committed tail
        // over the checkpointed base — not truncate either one.
        let base = Arc::new(FilePager::open(&base_path).unwrap());
        assert_eq!(
            base.num_pages(),
            1,
            "checkpointed base page survived reopen"
        );
        let log = Arc::new(FileLog::open(&log_path).unwrap());
        assert!(log.len().unwrap() > 0, "committed WAL tail survived reopen");
        let pager = WalPager::open(base, log, WalConfig::default()).unwrap();
        assert_eq!(pager.recovery().commits_applied, 1);
        assert_eq!(pager.num_pages(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0x5A, "base page intact");
        pager.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 0x6B, "logged page replayed");
        drop(pager);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_to_unallocated_page_fails() {
        let (_base, _log, pager) = wal_over_mem(WalConfig::default());
        assert!(pager.write_page(3, &[0u8; PAGE_SIZE]).is_err());
        assert!(pager.read_page(3, &mut [0u8; PAGE_SIZE]).is_err());
    }

    #[test]
    fn crc32_oct_matches_single_stream() {
        for lens in [
            [0usize; 8],
            [1024; 8],
            [1, 17, 40, 1000, 0, 16, 512, 33],
            [64, 64, 64, 64, 64, 64, 64, 63],
        ] {
            let lanes: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(k, &n)| (0..n).map(|i| (i * 13 + k * 7 + 3) as u8).collect())
                .collect();
            let refs: [&[u8]; 8] = std::array::from_fn(|k| lanes[k].as_slice());
            let got = crc32_oct(refs);
            for k in 0..8 {
                assert_eq!(got[k], crc32(&lanes[k]), "lane {k} of {lens:?}");
            }
        }
    }

    fn page_at(pager: &WalPager, id: PageId, lsn: u64) -> u8 {
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page_at(id, lsn, &mut buf).unwrap();
        buf[0]
    }

    #[test]
    fn snapshot_reads_pinned_version_while_writer_commits() {
        let (_base, _log, pager) = wal_over_mem(WalConfig::with_group_commit(1));
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();

        let (lsn, pages) = pager.pin_snapshot().unwrap().unwrap();
        assert_eq!(lsn, 1);
        assert_eq!(pages, 1);

        // Writer keeps committing; the pinned view must not move.
        for i in 2..6u8 {
            pager.write_page(id, &[i; PAGE_SIZE]).unwrap();
            pager.commit().unwrap();
        }
        assert_eq!(page_at(&pager, id, lsn), 1, "snapshot sees pinned image");
        assert_eq!(pager.commit_lsn(), 5);
        assert_eq!(page_at(&pager, id, pager.commit_lsn()), 5);

        pager.unpin_snapshot(lsn);
        // After the last pin drops, retained versions are released.
        assert!(pager.state.lock().versions.is_empty());
    }

    #[test]
    fn snapshot_never_sees_uncommitted_writes() {
        let (_base, _log, pager) = wal_over_mem(WalConfig::with_group_commit(1));
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();

        let (lsn, _) = pager.pin_snapshot().unwrap().unwrap();
        // Dirty but uncommitted overwrite: invisible at any snapshot.
        pager.write_page(id, &[9u8; PAGE_SIZE]).unwrap();
        assert_eq!(page_at(&pager, id, lsn), 1);
        assert_eq!(page_at(&pager, id, pager.commit_lsn()), 1);
        pager.commit().unwrap();
        assert_eq!(page_at(&pager, id, lsn), 1);
        assert_eq!(page_at(&pager, id, pager.commit_lsn()), 9);
        pager.unpin_snapshot(lsn);
    }

    #[test]
    fn snapshot_ignores_pages_allocated_after_pin() {
        let (_base, _log, pager) = wal_over_mem(WalConfig::with_group_commit(1));
        let a = pager.allocate().unwrap();
        pager.write_page(a, &[1u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();

        let (lsn, pages) = pager.pin_snapshot().unwrap().unwrap();
        assert_eq!(pages, 1);
        let b = pager.allocate().unwrap();
        pager.write_page(b, &[7u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        // The snapshot's frozen page count excludes b; the version store
        // must also refuse to serve b's post-pin image at the pinned LSN.
        let mut buf = [0u8; PAGE_SIZE];
        assert!(matches!(
            pager.read_page_at(b, lsn, &mut buf),
            Ok(()) | Err(StoreError::NotFound(_))
        ));
        if pager.read_page_at(b, lsn, &mut buf).is_ok() {
            // If served (page exists now), it must be the zero-fill, never
            // the post-snapshot committed payload.
            assert_eq!(buf[0], 0);
        }
        pager.unpin_snapshot(lsn);
    }

    #[test]
    fn checkpoint_preserves_pinned_versions() {
        let base = Arc::new(MemPager::new());
        let log = Arc::new(MemLog::new());
        let pager = WalPager::open(base.clone(), log, WalConfig::with_group_commit(1)).unwrap();
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();

        let (lsn, _) = pager.pin_snapshot().unwrap().unwrap();
        pager.write_page(id, &[2u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        // Fold into the base file while the pin is live: the pinned image
        // must be captured into the version chain before the table clears.
        pager.checkpoint().unwrap();
        assert_eq!(base.num_pages(), 1);
        assert_eq!(page_at(&pager, id, lsn), 1, "pin survives checkpoint");
        assert_eq!(page_at(&pager, id, pager.commit_lsn()), 2);

        // More commits after the fold still resolve correctly.
        pager.write_page(id, &[3u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        assert_eq!(page_at(&pager, id, lsn), 1);
        assert_eq!(page_at(&pager, id, pager.commit_lsn()), 3);
        pager.unpin_snapshot(lsn);
        assert!(pager.state.lock().versions.is_empty());
    }

    #[test]
    fn checkpoint_captures_pinned_zero_page_not_in_base() {
        // A page allocated + committed as all-zeroes before the pin, then
        // overwritten and folded: the pre-fold image (zeroes) is not in the
        // base file, so Rule C must zero-fill the captured version.
        let (_base, _log, pager) = wal_over_mem(WalConfig::with_group_commit(1));
        let a = pager.allocate().unwrap();
        pager.write_page(a, &[4u8; PAGE_SIZE]).unwrap();
        let b = pager.allocate().unwrap();
        pager.commit().unwrap();

        let (lsn, pages) = pager.pin_snapshot().unwrap().unwrap();
        assert_eq!(pages, 2);
        pager.write_page(b, &[8u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        pager.checkpoint().unwrap();
        assert_eq!(page_at(&pager, b, lsn), 0, "pre-pin zero page preserved");
        assert_eq!(page_at(&pager, b, pager.commit_lsn()), 8);
        pager.unpin_snapshot(lsn);
    }

    #[test]
    fn overlapping_pins_release_independently() {
        let (_base, _log, pager) = wal_over_mem(WalConfig::with_group_commit(1));
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        let (s1, _) = pager.pin_snapshot().unwrap().unwrap();

        pager.write_page(id, &[2u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        let (s2, _) = pager.pin_snapshot().unwrap().unwrap();
        assert!(s2 > s1);

        pager.write_page(id, &[3u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();

        assert_eq!(page_at(&pager, id, s1), 1);
        assert_eq!(page_at(&pager, id, s2), 2);

        // Releasing the older pin prunes history below s2 but keeps s2's.
        pager.unpin_snapshot(s1);
        assert_eq!(page_at(&pager, id, s2), 2);
        pager.unpin_snapshot(s2);
        assert!(pager.state.lock().versions.is_empty());
    }

    #[test]
    fn unpin_keeps_preimages_of_uncommitted_pages_for_the_next_pin() {
        // Regression: releasing the last pin used to drop *all* retained
        // versions, including the pre-image of a page the in-flight
        // transaction had already overwritten. A pin taken right after
        // (same commit LSN — the seal hasn't landed) then read the page
        // as zeroes instead of its committed image.
        let (_base, _log, pager) = wal_over_mem(WalConfig::with_group_commit(1));
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[7u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();

        // Writer mid-transaction: overwrite pushes the committed pre-image.
        pager.write_page(id, &[9u8; PAGE_SIZE]).unwrap();

        // A reader pins and immediately releases while the write is in
        // flight — this must not destroy the pre-image.
        let (s1, _) = pager.pin_snapshot().unwrap().unwrap();
        pager.unpin_snapshot(s1);

        let (s2, _) = pager.pin_snapshot().unwrap().unwrap();
        assert_eq!(s2, s1, "no seal happened in between");
        assert_eq!(page_at(&pager, id, s2), 7, "committed image, not zeroes");
        pager.unpin_snapshot(s2);

        // Once the transaction seals, the retained pre-image is dead and
        // the next full unpin clears it.
        pager.commit().unwrap();
        let (s3, _) = pager.pin_snapshot().unwrap().unwrap();
        assert_eq!(page_at(&pager, id, s3), 9);
        pager.unpin_snapshot(s3);
        assert!(pager.state.lock().versions.is_empty());
    }

    #[test]
    fn pin_sees_last_flushed_commit_and_newest_after_sync() {
        let (_base, log, pager) = wal_over_mem(WalConfig::with_group_commit(64));
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[6u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        pager.sync().unwrap(); // commit 1 is durable
        let b = pager.allocate().unwrap();
        pager.write_page(id, &[7u8; PAGE_SIZE]).unwrap();
        pager.write_page(b, &[7u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap(); // commit 2 waits in the group-commit batch

        // Pinning does no I/O and lands on the last flushed commit.
        let syncs = log.sync_count();
        let (lsn, pages) = pager.pin_snapshot().unwrap().unwrap();
        assert_eq!(log.sync_count(), syncs, "pinning never fsyncs");
        assert_eq!(
            (lsn, pages),
            (1, 1),
            "pins the durable commit and page count"
        );
        assert_eq!(page_at(&pager, id, lsn), 6);

        // Flushes while the pin lives advance the floor to the pin, not
        // past it: the pinned image stays reachable.
        for i in 8..11u8 {
            pager.write_page(id, &[i; PAGE_SIZE]).unwrap();
            pager.commit().unwrap();
        }
        pager.sync().unwrap();
        assert_eq!(page_at(&pager, id, lsn), 6);
        pager.unpin_snapshot(lsn);

        // Read-your-writes: after `sync` a pin sees the newest commit.
        pager.write_page(id, &[11u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        pager.sync().unwrap();
        let (newest, pages) = pager.pin_snapshot().unwrap().unwrap();
        assert_eq!((newest, pages), (pager.commit_lsn(), 2));
        assert_eq!(page_at(&pager, id, newest), 11);
        assert_eq!(page_at(&pager, b, newest), 7);
        pager.unpin_snapshot(newest);
        assert!(pager.state.lock().versions.is_empty());
    }

    #[test]
    fn versions_are_retained_for_the_durable_floor_until_the_flush() {
        // No pin is live, but commits 2.. are not durable yet: the next pin
        // lands at commit 1 and must read its image, so the chain stays
        // until the batch flush moves the floor.
        let (_base, _log, pager) = wal_over_mem(WalConfig::with_group_commit(64));
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
        pager.commit().unwrap();
        pager.sync().unwrap();
        for i in 2..5u8 {
            pager.write_page(id, &[i; PAGE_SIZE]).unwrap();
            pager.commit().unwrap();
        }
        let (lsn, _) = pager.pin_snapshot().unwrap().unwrap();
        assert_eq!(page_at(&pager, id, lsn), 1);
        pager.unpin_snapshot(lsn);
        assert!(!pager.state.lock().versions.is_empty());
        pager.sync().unwrap();
        assert!(pager.state.lock().versions.is_empty());
    }
}
