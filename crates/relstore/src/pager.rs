//! Page files: the persistence layer under the buffer pool.
//!
//! The file-backed pager writes a versioned format (see
//! [`PAGE_FORMAT_VERSION`]): a small header identifies the file, and every
//! page slot carries a trailing CRC-32 over `page_id ++ payload`. The
//! checksum is stamped on every write and verified on every read miss, so
//! at-rest bit rot — in a heap page, a B+tree node, the catalog, or a
//! compressed block — surfaces as a structured
//! [`StoreError::Corrupt`](crate::StoreError::Corrupt) instead of a
//! garbage decode or, worse, a silently wrong answer. Including the page
//! id in the checksummed bytes also catches misdirected reads/writes (a
//! valid page returned for the wrong id). Unversioned legacy files are
//! still readable, without verification.

use crate::page::{PageId, PAGE_SIZE};
use crate::wal::{crc32, crc32_oct};
use crate::{CorruptObject, Result, StoreError};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Something that can read, write and allocate fixed-size pages.
///
/// Implementations must be internally synchronized; the buffer pool calls
/// them from behind its own lock but unit tests may not.
pub trait Pager: Send + Sync {
    /// Read page `id` into `buf` (exactly [`PAGE_SIZE`] bytes).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;
    /// Write `buf` to page `id`.
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()>;
    /// Allocate a fresh zeroed page and return its id.
    fn allocate(&self) -> Result<PageId>;
    /// Number of allocated pages (also the next id to be allocated).
    fn num_pages(&self) -> u64;

    /// Force all durable state to stable storage.
    ///
    /// Non-durable pagers (e.g. [`MemPager`]) treat this as a no-op.
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Mark a transaction boundary.
    ///
    /// Transactional pagers ([`crate::wal::WalPager`]) append a commit
    /// record and schedule an fsync under the group-commit policy; plain
    /// pagers, which write pages in place, treat every write as already
    /// "committed" and do nothing.
    fn commit(&self) -> Result<()> {
        Ok(())
    }

    /// Fold logged state into the base page file and reclaim the log.
    ///
    /// For plain pagers this degenerates to [`Pager::sync`].
    fn checkpoint(&self) -> Result<()> {
        self.sync()
    }

    /// Whether [`Pager::commit`] is meaningful (i.e. writes are staged in a
    /// log and crash recovery rolls the store back to the last commit).
    fn is_transactional(&self) -> bool {
        false
    }

    /// Page-checksum `(verifications, failures)` counters since open or
    /// the last [`Pager::reset_checksum_stats`]. Pagers without durable
    /// checksums ([`MemPager`]) report zeros; wrappers delegate to the
    /// durable base so the buffer pool's [`crate::IoStats`] always reflect
    /// the real verification work.
    fn checksum_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Reset the page-checksum counters (see [`Pager::checksum_stats`]).
    fn reset_checksum_stats(&self) {}

    /// Commit sequence number of the most recently sealed transaction.
    ///
    /// Monotonic within a process for transactional pagers; plain pagers
    /// (which have no commit notion) report 0.
    fn commit_lsn(&self) -> u64 {
        0
    }

    /// Pin a read-only snapshot of the durable committed state.
    ///
    /// Transactional pagers return `Some((commit_lsn, num_pages))`: the
    /// sequence number of the last *durable* commit — so the snapshot
    /// survives any crash without the pin forcing a flush; commits still
    /// waiting in a group-commit batch become visible after
    /// [`Pager::sync`] — and the page count as of that commit. Until [`Pager::unpin_snapshot`] releases the pin,
    /// [`Pager::read_page_at`] with that LSN must keep returning the exact
    /// committed page images, no matter what the writer commits, flushes
    /// or checkpoints in the meantime. Non-transactional pagers return
    /// `Ok(None)` (they overwrite pages in place; there is no committed
    /// state to freeze).
    fn pin_snapshot(&self) -> Result<Option<(u64, u64)>> {
        Ok(None)
    }

    /// Release a pin taken by [`Pager::pin_snapshot`]. Must be called with
    /// the same LSN; pins are refcounted per LSN.
    fn unpin_snapshot(&self, _commit_lsn: u64) {}

    /// Read page `id` as of pinned commit `commit_lsn`.
    ///
    /// Only meaningful between [`Pager::pin_snapshot`] and
    /// [`Pager::unpin_snapshot`] for that LSN. The default falls back to
    /// the current image (correct for pagers whose pages never change
    /// after a pin — i.e. none; transactional pagers override this).
    fn read_page_at(&self, id: PageId, _commit_lsn: u64, buf: &mut [u8]) -> Result<()> {
        self.read_page(id, buf)
    }
}

/// An in-memory pager: pages live in a `Vec`. The default for tests and
/// benchmarks (the paper's I/O effects are captured by the buffer pool's
/// logical-read counters rather than by actual disk latency).
#[derive(Default)]
pub struct MemPager {
    pages: Mutex<Vec<Box<[u8; PAGE_SIZE]>>>,
}

impl MemPager {
    /// An empty in-memory page file.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Pager for MemPager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let pages = self.pages.lock();
        let page = pages
            .get(id as usize)
            .ok_or_else(|| crate::StoreError::NotFound(format!("page {id}")))?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let mut pages = self.pages.lock();
        let page = pages
            .get_mut(id as usize)
            .ok_or_else(|| crate::StoreError::NotFound(format!("page {id}")))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.lock();
        pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(pages.len() as u64 - 1)
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }
}

/// Current on-disk page-file format version. Version 2 added the file
/// header and the per-page trailing CRC-32; version 3 widens the checksum
/// combine from four to eight interleaved CRC lanes (different stamp bytes
/// for the same page, hence the bump — `open` hard-errors on a mismatch
/// rather than silently flagging every page corrupt). "Version 1" is the
/// headerless legacy layout (`page i` at byte `i * PAGE_SIZE`, no
/// checksums).
pub const PAGE_FORMAT_VERSION: u32 = 3;

/// Magic bytes opening a versioned page file.
const V2_MAGIC: [u8; 8] = *b"ARCHISPG";

/// v2 header: magic (8) + format version (u32 LE) + reserved (u32).
const V2_HEADER_LEN: u64 = 16;

/// v2 on-disk slot: the page payload plus its trailing CRC-32.
const V2_SLOT_LEN: u64 = PAGE_SIZE as u64 + 4;

/// Byte layout of a page file, decoded from its header. Gives fsck's
/// scrub and the fault-injection bit-rot tooling the location of every
/// page's on-disk bytes without opening a pager (and without racing one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFileLayout {
    /// Format version (see [`PAGE_FORMAT_VERSION`]; 1 = legacy headerless).
    pub version: u32,
    /// Bytes of file header before the first page slot.
    pub header_len: u64,
    /// Bytes per on-disk page slot (payload + checksum in v2).
    pub slot_len: u64,
    /// Complete page slots present in the file.
    pub pages: u64,
}

impl PageFileLayout {
    /// Byte offset of page `id`'s slot.
    pub fn slot_offset(&self, id: PageId) -> u64 {
        self.header_len + id * self.slot_len
    }

    /// Decode the layout of the page file at `path`.
    pub fn of_file(path: impl AsRef<Path>) -> Result<PageFileLayout> {
        let mut f = File::open(path)?;
        let len = f.metadata()?.len();
        let mut head = [0u8; V2_HEADER_LEN as usize];
        let is_v2 = len >= V2_HEADER_LEN && {
            f.read_exact(&mut head)?;
            head[..8] == V2_MAGIC
        };
        if is_v2 {
            let version = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
            Ok(PageFileLayout {
                version,
                header_len: V2_HEADER_LEN,
                slot_len: V2_SLOT_LEN,
                pages: (len - V2_HEADER_LEN) / V2_SLOT_LEN,
            })
        } else {
            Ok(PageFileLayout {
                version: 1,
                header_len: 0,
                slot_len: PAGE_SIZE as u64,
                pages: len / PAGE_SIZE as u64,
            })
        }
    }
}

/// Fold window of the page checksum, in bytes. Wide enough that the XOR
/// pass auto-vectorizes and any error burst shorter than the window maps
/// injectively into the fold; small enough that the CRC over the fold is
/// a rounding error per physical read.
const CRC_FOLD_BYTES: usize = 512;

/// The v2 page-slot checksum: what [`FilePager`] stamps on write and
/// recomputes on every read (public so the scrub benchmark can measure
/// exactly the verify compute).
///
/// A table-driven CRC is one table load per byte — on a 2-load/cycle
/// core that caps out near 3 GB/s no matter how many interleaved lanes
/// run, which is real overhead on every physical read. So, like
/// Postgres's page checksum, the hot pass is a *parallel fold*: the page
/// is XOR-folded column-wise into a [`CRC_FOLD_BYTES`]-byte window (a
/// linear, auto-vectorizable sweep), and only the fold goes through
/// CRC-32 — eight interleaved lanes over its eighths (eight independent
/// dependency chains keep the table loads pipelined where four left the
/// load ports half idle), combined with per-lane rotations, plus the page
/// id folded in so a valid page served from the wrong slot (misdirected
/// I/O) still fails verification.
///
/// Detection guarantees survive the fold because XOR is linear: a single
/// flipped bit in the page flips exactly that bit of one fold column,
/// which lands in exactly one CRC lane — CRC-32's single-bit guarantee
/// then makes the stamp change. Likewise any error burst shorter than
/// the fold window hits each column at most once, so it cannot cancel
/// itself. Only error patterns that XOR to zero across columns exactly
/// [`CRC_FOLD_BYTES`] apart escape (probability ~2⁻³² territory for
/// random multi-bit damage), the same trade Postgres's folded FNV makes.
pub fn page_crc(id: PageId, payload: &[u8]) -> u32 {
    const FOLD_WORDS: usize = CRC_FOLD_BYTES / 8;
    let mut fold = [0u64; FOLD_WORDS];
    let mut blocks = payload.chunks_exact(CRC_FOLD_BYTES);
    for block in &mut blocks {
        for (slot, w) in fold.iter_mut().zip(block.chunks_exact(8)) {
            *slot ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk")); // lint:allow(unreachable: chunks_exact guarantees the length)
        }
    }
    // A trailing partial block (pages are normally a multiple of the
    // window) folds byte-wise so every payload bit is still covered.
    for (i, &b) in blocks.remainder().iter().enumerate() {
        fold[i / 8] ^= (b as u64) << (8 * (i % 8));
    }
    let mut buf = [0u8; CRC_FOLD_BYTES];
    for (chunk, w) in buf.chunks_exact_mut(8).zip(&fold) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    let e = CRC_FOLD_BYTES / 8;
    let lanes: [&[u8]; 8] = std::array::from_fn(|k| &buf[k * e..(k + 1) * e]);
    let crcs = crc32_oct(lanes);
    let mut stamp = crc32(&id.to_le_bytes());
    for (k, c) in crcs.iter().enumerate() {
        // Distinct rotations (0,4,…,28) keep the eight lanes from
        // cancelling each other under symmetric damage.
        stamp ^= c.rotate_left(4 * k as u32);
    }
    stamp
}

/// A file-backed pager.
///
/// New files are created in the v2 format: a 16-byte header, then one
/// `PAGE_SIZE + 4`-byte slot per page whose trailing CRC-32 stamp (a
/// vectorizable XOR-fold of the page, CRC'd with the page id folded in,
/// see [`page_crc`]) is written by every [`Pager::write_page`] /
/// [`Pager::allocate`] and verified by every [`Pager::read_page`].
/// Headerless legacy files keep working read/write without checksums.
pub struct FilePager {
    file: Mutex<File>,
    len_pages: Mutex<u64>,
    layout: PageFileLayout,
    crc_verified: AtomicU64,
    crc_failed: AtomicU64,
}

impl FilePager {
    /// Open (or create) a page file at `path`.
    ///
    /// Existing contents are deliberately kept (`truncate(false)`): a page
    /// file is the durable store, and reopening it after a restart *is*
    /// the recovery path — `num_pages` is derived from the surviving file
    /// length.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let layout = if len == 0 {
            // Fresh file: stamp the v2 header.
            let mut head = [0u8; V2_HEADER_LEN as usize];
            head[..8].copy_from_slice(&V2_MAGIC);
            head[8..12].copy_from_slice(&PAGE_FORMAT_VERSION.to_le_bytes());
            // lint:allow(the file was just created empty and is not yet shared;
            // the header must exist before any page I/O)
            file.write_all(&head)?;
            PageFileLayout {
                version: PAGE_FORMAT_VERSION,
                header_len: V2_HEADER_LEN,
                slot_len: V2_SLOT_LEN,
                pages: 0,
            }
        } else {
            let mut head = [0u8; V2_HEADER_LEN as usize];
            let is_v2 = len >= V2_HEADER_LEN && {
                file.seek(SeekFrom::Start(0))?;
                // lint:allow(header probe on open, before the pager is shared)
                file.read_exact(&mut head)?;
                head[..8] == V2_MAGIC
            };
            if is_v2 {
                let version = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
                if version != PAGE_FORMAT_VERSION {
                    return Err(StoreError::corrupt(
                        CorruptObject::Page,
                        format!(
                            "page file format version {version} (this build reads {PAGE_FORMAT_VERSION})"
                        ),
                    ));
                }
                PageFileLayout {
                    version,
                    header_len: V2_HEADER_LEN,
                    slot_len: V2_SLOT_LEN,
                    pages: (len - V2_HEADER_LEN) / V2_SLOT_LEN,
                }
            } else {
                // Legacy headerless layout: readable, but unverified.
                PageFileLayout {
                    version: 1,
                    header_len: 0,
                    slot_len: PAGE_SIZE as u64,
                    pages: len / PAGE_SIZE as u64,
                }
            }
        };
        Ok(FilePager {
            file: Mutex::new(file),
            len_pages: Mutex::new(layout.pages),
            layout,
            crc_verified: AtomicU64::new(0),
            crc_failed: AtomicU64::new(0),
        })
    }

    /// The on-disk format version this file uses.
    pub fn format_version(&self) -> u32 {
        self.layout.version
    }

    /// Whether reads of this file are checksum-verified (v2 files only).
    pub fn verifies_checksums(&self) -> bool {
        self.layout.version >= 2
    }

    fn offset(&self, id: PageId) -> u64 {
        self.layout.header_len + id * self.layout.slot_len
    }

    /// Write payload + stamped CRC as one slot-sized write; the caller
    /// already holds the file lock and passes the guarded `File` in.
    fn write_slot(&self, f: &mut File, id: PageId, buf: &[u8]) -> Result<()> {
        f.seek(SeekFrom::Start(self.offset(id)))?;
        if self.layout.version >= 2 {
            let mut slot = [0u8; V2_SLOT_LEN as usize];
            slot[..PAGE_SIZE].copy_from_slice(buf);
            slot[PAGE_SIZE..].copy_from_slice(&page_crc(id, buf).to_le_bytes());
            // lint:allow(the file mutex exists precisely to make seek+write
            // atomic on the single shared descriptor)
            f.write_all(&slot)?;
        } else {
            // lint:allow(the file mutex exists precisely to make seek+write
            // atomic on the single shared descriptor)
            f.write_all(buf)?;
        }
        Ok(())
    }
}

impl Pager for FilePager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(self.offset(id)))?;
        // lint:allow(the file mutex exists precisely to make seek+read atomic
        // on the single shared descriptor)
        f.read_exact(buf)?;
        if self.layout.version >= 2 {
            let mut stored = [0u8; 4];
            // lint:allow(trailing-checksum read continues the same locked read)
            f.read_exact(&mut stored)?;
            drop(f);
            let stored = u32::from_le_bytes(stored);
            let computed = page_crc(id, buf);
            if stored != computed {
                self.crc_failed.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::corrupt_at(
                    id,
                    CorruptObject::Page,
                    format!("checksum mismatch (stored {stored:08x}, computed {computed:08x})"),
                ));
            }
            self.crc_verified.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let mut f = self.file.lock();
        self.write_slot(&mut f, id, buf)
    }

    fn allocate(&self) -> Result<PageId> {
        let mut len = self.len_pages.lock();
        let id = *len;
        let mut f = self.file.lock();
        // lint:allow(allocation must extend the file and bump len_pages as one
        // step; both locks guard exactly this pairing)
        self.write_slot(&mut f, id, &[0u8; PAGE_SIZE])?;
        *len += 1;
        Ok(id)
    }

    fn num_pages(&self) -> u64 {
        *self.len_pages.lock()
    }

    fn sync(&self) -> Result<()> {
        // lint:allow(sync_data under the file lock orders the fsync after every
        // buffered write that raced it)
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn checksum_stats(&self) -> (u64, u64) {
        (
            self.crc_verified.load(Ordering::Relaxed),
            self.crc_failed.load(Ordering::Relaxed),
        )
    }

    fn reset_checksum_stats(&self) {
        self.crc_verified.store(0, Ordering::Relaxed);
        self.crc_failed.store(0, Ordering::Relaxed);
    }
}

/// A read-only view of another pager frozen at a pinned commit.
///
/// Built by `Database::begin_snapshot`: holds the pin taken via
/// [`Pager::pin_snapshot`] and routes every read through
/// [`Pager::read_page_at`] at the pinned LSN, so a buffer pool layered on
/// top serves a consistent committed page image of the whole store — the
/// catalog, every table root and every data page as of one commit — while
/// the writer keeps mutating the underlying pager. The pin is released
/// when the last clone of this pager drops.
///
/// Writes and allocations fail with [`StoreError::Io`]: a snapshot is a
/// reader's world. `num_pages` is frozen at the pin-time committed page
/// count, so pages allocated after the pin are unreachable by
/// construction.
pub struct SnapshotPager {
    inner: Arc<dyn Pager>,
    commit_lsn: u64,
    num_pages: u64,
}

impl SnapshotPager {
    /// Wrap `inner` at pinned commit `commit_lsn` with `num_pages` pages.
    /// The caller must already hold the pin (via [`Pager::pin_snapshot`]);
    /// this wrapper takes ownership of releasing it on drop.
    pub fn new(inner: Arc<dyn Pager>, commit_lsn: u64, num_pages: u64) -> Self {
        SnapshotPager {
            inner,
            commit_lsn,
            num_pages,
        }
    }

    /// The commit this snapshot is frozen at.
    pub fn commit_lsn(&self) -> u64 {
        self.commit_lsn
    }
}

impl Pager for SnapshotPager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if id >= self.num_pages {
            return Err(StoreError::NotFound(format!(
                "page {id} (allocated after snapshot commit {})",
                self.commit_lsn
            )));
        }
        self.inner.read_page_at(id, self.commit_lsn, buf)
    }

    fn write_page(&self, id: PageId, _buf: &[u8]) -> Result<()> {
        Err(StoreError::Io(format!(
            "write to page {id} on a read-only snapshot (commit {})",
            self.commit_lsn
        )))
    }

    fn allocate(&self) -> Result<PageId> {
        Err(StoreError::Io(format!(
            "allocation on a read-only snapshot (commit {})",
            self.commit_lsn
        )))
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn commit_lsn(&self) -> u64 {
        self.commit_lsn
    }

    fn checksum_stats(&self) -> (u64, u64) {
        self.inner.checksum_stats()
    }

    fn reset_checksum_stats(&self) {
        self.inner.reset_checksum_stats();
    }
}

impl Drop for SnapshotPager {
    fn drop(&mut self) {
        self.inner.unpin_snapshot(self.commit_lsn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(pager: &dyn Pager) {
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(pager.num_pages(), 2);
        let mut w = [0u8; PAGE_SIZE];
        w[0] = 0xAB;
        w[PAGE_SIZE - 1] = 0xCD;
        pager.write_page(b, &w).unwrap();
        let mut r = [0u8; PAGE_SIZE];
        pager.read_page(b, &mut r).unwrap();
        assert_eq!(r[0], 0xAB);
        assert_eq!(r[PAGE_SIZE - 1], 0xCD);
        pager.read_page(a, &mut r).unwrap();
        assert_eq!(r[0], 0, "fresh pages are zeroed");
    }

    #[test]
    fn mem_pager_roundtrip() {
        exercise(&MemPager::new());
        assert!(MemPager::new().read_page(7, &mut [0u8; PAGE_SIZE]).is_err());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("relstore-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_pager_roundtrip_and_reopen() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("pages.db");
        {
            let p = FilePager::open(&path).unwrap();
            assert_eq!(p.format_version(), PAGE_FORMAT_VERSION);
            assert!(p.verifies_checksums());
            exercise(&p);
            let (verified, failed) = p.checksum_stats();
            assert!(verified >= 2, "reads were checksum-verified");
            assert_eq!(failed, 0);
        }
        {
            let p = FilePager::open(&path).unwrap();
            assert_eq!(p.num_pages(), 2, "page count recovered from file length");
            let mut r = [0u8; PAGE_SIZE];
            p.read_page(1, &mut r).unwrap();
            assert_eq!(r[0], 0xAB, "data persisted");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_pager_detects_bit_flip() {
        use std::io::{Seek, SeekFrom, Write};
        let dir = temp_dir("bitflip");
        let path = dir.join("pages.db");
        {
            let p = FilePager::open(&path).unwrap();
            let id = p.allocate().unwrap();
            let mut w = [7u8; PAGE_SIZE];
            w[100] = 42;
            p.write_page(id, &w).unwrap();
        }
        let layout = PageFileLayout::of_file(&path).unwrap();
        assert_eq!(layout.version, PAGE_FORMAT_VERSION);
        assert_eq!(layout.pages, 1);
        // Flip one bit in the middle of page 0's payload, at rest.
        {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let off = layout.slot_offset(0) + 2000;
            f.seek(SeekFrom::Start(off)).unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            b[0] ^= 0x10;
            f.seek(SeekFrom::Start(off)).unwrap();
            f.write_all(&b).unwrap();
        }
        let p = FilePager::open(&path).unwrap();
        let mut r = [0u8; PAGE_SIZE];
        let err = p.read_page(0, &mut r).unwrap_err();
        assert!(err.is_corrupt(), "bit flip surfaces as Corrupt: {err}");
        assert_eq!(p.checksum_stats().1, 1, "failure counted");
        // Rewriting the page restamps the checksum and heals the slot.
        p.write_page(0, &[9u8; PAGE_SIZE]).unwrap();
        p.read_page(0, &mut r).unwrap();
        assert_eq!(r[0], 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_pager_reads_legacy_v1_files() {
        use std::io::Write;
        let dir = temp_dir("legacy");
        let path = dir.join("pages.db");
        // Hand-craft a headerless v1 file: two raw pages, no checksums.
        {
            let mut f = File::create(&path).unwrap();
            let mut page = [0u8; PAGE_SIZE];
            page[0] = 0x11;
            f.write_all(&page).unwrap();
            page[0] = 0x22;
            f.write_all(&page).unwrap();
        }
        let p = FilePager::open(&path).unwrap();
        assert_eq!(p.format_version(), 1);
        assert!(!p.verifies_checksums());
        assert_eq!(p.num_pages(), 2);
        let mut r = [0u8; PAGE_SIZE];
        p.read_page(1, &mut r).unwrap();
        assert_eq!(r[0], 0x22);
        assert_eq!(p.checksum_stats(), (0, 0), "v1 reads are unverified");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_crc_binds_page_id() {
        let payload = [5u8; PAGE_SIZE];
        assert_ne!(
            page_crc(1, &payload),
            page_crc(2, &payload),
            "same payload under a different id must not verify"
        );
    }
}
