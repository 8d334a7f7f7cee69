//! Chained heap files: unordered record storage, append-friendly.
//!
//! A heap file is a linked chain of slotted pages. Inserts go to the tail
//! page (history tables are append-mostly); full tails allocate a new page.
//! This is the DB2-style base-table layout of the "ArchIS-DB2"
//! configuration; clustered tables use [`crate::btree::BTree`] instead.

use crate::buffer::BufferPool;
use crate::page::{PageId, PageView, SlottedPage};
use crate::{Result, StoreError};
use parking_lot::Mutex;
use std::sync::Arc;

/// Physical address of a record: page and slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Pack into 8 bytes (page id is < 2^48 in practice).
    pub fn to_bytes(self) -> [u8; 10] {
        let mut out = [0u8; 10];
        out[..8].copy_from_slice(&self.page.to_be_bytes());
        out[8..].copy_from_slice(&self.slot.to_be_bytes());
        out
    }

    /// Unpack from [`RecordId::to_bytes`] output.
    pub fn from_bytes(b: &[u8]) -> Result<Self> {
        if b.len() != 10 {
            return Err(StoreError::corrupt(
                crate::CorruptObject::Heap,
                "record id must be 10 bytes",
            ));
        }
        Ok(RecordId {
            page: u64::from_be_bytes(b[..8].try_into().unwrap()),
            slot: u16::from_be_bytes(b[8..].try_into().unwrap()),
        })
    }
}

/// Where a heap chain ends and how long it is: what an append needs and
/// what the planner prices a sequential scan with. Persisted with the
/// table's other roots so reattaching never walks the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapTail {
    /// Last page of the chain (the append target).
    pub page: PageId,
    /// Pages in the chain.
    pub pages: u64,
}

/// What a [`HeapFile`] handle knows about its chain's end.
#[derive(Clone, Copy)]
enum Tail {
    /// Nothing recorded (a store written before the counters existed):
    /// the first append or page count walks the chain once.
    Unknown,
    /// Read from the catalog, not yet checked against the chain. Good
    /// enough for a page count; an append first confirms the page really
    /// is the last one.
    Recorded(HeapTail),
    /// Derived from the chain by this handle (created, walked or checked).
    Known(HeapTail),
}

/// An unordered record file over the buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    first: PageId,
    tail: Mutex<Tail>,
}

impl HeapFile {
    /// Create a heap file with one fresh empty page.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let (id, frame) = pool.allocate()?;
        {
            let mut guard = frame.write();
            SlottedPage::init(&mut guard.data[..]);
            guard.dirty = true;
        }
        Ok(HeapFile {
            pool,
            first: id,
            tail: Mutex::new(Tail::Known(HeapTail { page: id, pages: 1 })),
        })
    }

    /// Reattach to an existing heap file given its first page and, when
    /// the catalog recorded them, its tail and page count. Reads nothing.
    pub fn open(pool: Arc<BufferPool>, first: PageId, recorded: Option<HeapTail>) -> Self {
        HeapFile {
            pool,
            first,
            tail: Mutex::new(recorded.map_or(Tail::Unknown, Tail::Recorded)),
        }
    }

    /// First page of the chain (persist this as the table root).
    pub fn first_page(&self) -> PageId {
        self.first
    }

    /// The chain's tail and page count as far as this handle knows them
    /// (persist next to [`HeapFile::first_page`]); `None` until something
    /// had to find out.
    pub fn tail(&self) -> Option<HeapTail> {
        match *self.tail.lock() {
            Tail::Unknown => None,
            Tail::Recorded(t) | Tail::Known(t) => Some(t),
        }
    }

    /// Follow the chain from its first page to its last: what
    /// [`HeapFile::tail`] should say. A chain longer than the store has
    /// pages can only be a cycle.
    pub fn walk(&self) -> Result<HeapTail> {
        let limit = self.pool.pager().num_pages();
        let mut at = HeapTail {
            page: self.first,
            pages: 1,
        };
        loop {
            let frame = self.pool.get(at.page)?;
            let next = PageView::new(&frame.read().data[..]).next_page();
            match next {
                None => return Ok(at),
                Some(_) if at.pages >= limit => {
                    return Err(StoreError::corrupt_at(
                        at.page,
                        crate::CorruptObject::Heap,
                        "heap chain does not end",
                    ))
                }
                Some(n) => {
                    at = HeapTail {
                        page: n,
                        pages: at.pages + 1,
                    }
                }
            }
        }
    }

    /// The tail to append to: a recorded one is trusted only after its
    /// page proves to be the chain's last.
    fn append_tail(&self, tail: &mut Tail) -> Result<HeapTail> {
        let known = match *tail {
            Tail::Known(t) => return Ok(t),
            Tail::Recorded(t) => {
                let frame = self.pool.get(t.page)?;
                let is_last = PageView::new(&frame.read().data[..]).next_page().is_none();
                if is_last {
                    t
                } else {
                    self.walk()?
                }
            }
            Tail::Unknown => self.walk()?,
        };
        *tail = Tail::Known(known);
        Ok(known)
    }

    /// Append a record, returning its address.
    pub fn insert(&self, record: &[u8]) -> Result<RecordId> {
        let mut tail = self.tail.lock();
        let last = self.append_tail(&mut tail)?;
        {
            let frame = self.pool.get(last.page)?;
            let mut guard = frame.write();
            let mut page = SlottedPage::new(&mut guard.data[..]);
            if page.fits(record.len()) {
                let slot = page.insert(record)?;
                guard.dirty = true;
                return Ok(RecordId {
                    page: last.page,
                    slot: slot as u16,
                });
            }
        }
        // Tail is full: allocate and link a new page.
        let (new_id, new_frame) = self.pool.allocate()?;
        {
            let mut guard = new_frame.write();
            SlottedPage::init(&mut guard.data[..]);
            guard.dirty = true;
        }
        {
            let frame = self.pool.get(last.page)?;
            let mut guard = frame.write();
            let mut page = SlottedPage::new(&mut guard.data[..]);
            page.set_next_page(Some(new_id));
            guard.dirty = true;
        }
        *tail = Tail::Known(HeapTail {
            page: new_id,
            pages: last.pages + 1,
        });
        let frame = self.pool.get(new_id)?;
        let mut guard = frame.write();
        let mut page = SlottedPage::new(&mut guard.data[..]);
        let slot = page.insert(record)?;
        guard.dirty = true;
        Ok(RecordId {
            page: new_id,
            slot: slot as u16,
        })
    }

    /// Read a record by address. `None` if it was deleted.
    pub fn get(&self, rid: RecordId) -> Result<Option<Vec<u8>>> {
        self.reader().get(rid)
    }

    /// Tombstone a record.
    pub fn delete(&self, rid: RecordId) -> Result<()> {
        let frame = self.pool.get(rid.page)?;
        let mut guard = frame.write();
        let mut page = SlottedPage::new(&mut guard.data[..]);
        page.delete(rid.slot as usize)?;
        guard.dirty = true;
        Ok(())
    }

    /// Overwrite a record on its page if the page can hold the new
    /// payload, else delete + move. Returns the (possibly new) address.
    pub fn update(&self, rid: RecordId, record: &[u8]) -> Result<RecordId> {
        {
            let frame = self.pool.get(rid.page)?;
            let mut guard = frame.write();
            let mut page = SlottedPage::new(&mut guard.data[..]);
            match page.update_in_place(rid.slot as usize, record) {
                Ok(()) => {
                    guard.dirty = true;
                    return Ok(rid);
                }
                Err(StoreError::RecordTooLarge(_)) => {
                    page.delete(rid.slot as usize)?;
                    guard.dirty = true;
                }
                Err(e) => return Err(e),
            }
        }
        self.insert(record)
    }

    /// All live `(address, record)` pairs in chain order.
    pub fn scan(&self) -> Result<Vec<(RecordId, Vec<u8>)>> {
        self.cursor().collect()
    }

    /// Streaming cursor over the chain: records arrive one page at a time,
    /// and a frame is latched only while its page is copied into the
    /// cursor's own buffer. This is what lets executor scans terminate
    /// early without paying for the whole table.
    pub fn cursor(&self) -> HeapCursor {
        HeapCursor {
            pool: self.pool.clone(),
            next_page: Some(self.first),
            page: Vec::new(),
            page_id: self.first,
            slot: 0,
            failed: false,
        }
    }

    /// A read-only record fetcher that does not borrow the heap file
    /// (shares the pool). Used by owning index-scan iterators.
    pub fn reader(&self) -> HeapReader {
        HeapReader {
            pool: self.pool.clone(),
        }
    }

    /// Number of pages in the chain. O(1) whenever the count is recorded
    /// or was derived before; only a handle opened without one walks the
    /// chain, once.
    pub fn page_count(&self) -> Result<u64> {
        let mut tail = self.tail.lock();
        if let Tail::Recorded(t) | Tail::Known(t) = *tail {
            return Ok(t.pages);
        }
        let walked = self.walk()?;
        *tail = Tail::Known(walked);
        Ok(walked.pages)
    }

    /// Re-derive tail and page count from the chain itself, replacing
    /// whatever was recorded; returns `(recorded, actual)`. The repair
    /// path for counters that diverged from the chain.
    pub fn recount(&self) -> Result<(Option<HeapTail>, HeapTail)> {
        let recorded = self.tail();
        let actual = self.walk()?;
        *self.tail.lock() = Tail::Known(actual);
        Ok((recorded, actual))
    }
}

/// Streaming iterator over a heap file's live records (see
/// [`HeapFile::cursor`]). Owns its pool handle, so it outlives the borrow
/// of the heap file that created it.
pub struct HeapCursor {
    pool: Arc<BufferPool>,
    next_page: Option<PageId>,
    /// The current page, copied out of its frame: records are read from
    /// here with no latch held, and the buffer is reused page after page.
    page: Vec<u8>,
    page_id: PageId,
    /// Next slot of `page` to look at.
    slot: usize,
    failed: bool,
}

impl HeapCursor {
    /// Copy page `id` into the cursor's buffer, holding the frame's latch
    /// for the copy only.
    fn load(&mut self, id: PageId) -> Result<()> {
        let frame = self.pool.get(id)?;
        let guard = frame.read();
        self.page.clear();
        self.page.extend_from_slice(&guard.data[..]);
        drop(guard);
        self.next_page = PageView::new(&self.page).next_page();
        self.page_id = id;
        self.slot = 0;
        Ok(())
    }

    /// The next live record, borrowed from the cursor's copy of its page
    /// (no allocation per record). After an error the cursor is done.
    pub(crate) fn next_record(&mut self) -> Option<Result<(RecordId, &[u8])>> {
        let slot = loop {
            if self.failed {
                return None;
            }
            if !self.page.is_empty() {
                let page = PageView::new(&self.page);
                let live = (self.slot..page.slot_count()).find(|&s| page.get(s).is_some());
                if let Some(s) = live {
                    self.slot = s + 1;
                    break s;
                }
            }
            let id = self.next_page.take()?;
            if let Err(e) = self.load(id) {
                self.failed = true;
                return Some(Err(e));
            }
        };
        let rid = RecordId {
            page: self.page_id,
            slot: slot as u16,
        };
        PageView::new(&self.page)
            .get(slot)
            .map(|rec| Ok((rid, rec)))
    }
}

impl Iterator for HeapCursor {
    type Item = Result<(RecordId, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
            .map(|r| r.map(|(rid, rec)| (rid, rec.to_vec())))
    }
}

/// Fetches records by address through the buffer pool without borrowing a
/// [`HeapFile`] (see [`HeapFile::reader`]).
pub struct HeapReader {
    pool: Arc<BufferPool>,
}

impl HeapReader {
    /// Read a record by address. `None` if it was deleted.
    pub fn get(&self, rid: RecordId) -> Result<Option<Vec<u8>>> {
        self.with_record(rid, <[u8]>::to_vec)
    }

    /// Apply `f` to the record at `rid` in place, under the page's shared
    /// latch; `None` if it was deleted. `f` runs with the latch held, so it
    /// should only copy or decode the bytes.
    pub(crate) fn with_record<T>(
        &self,
        rid: RecordId,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<Option<T>> {
        let frame = self.pool.get(rid.page)?;
        let guard = frame.read();
        Ok(PageView::new(&guard.data[..]).get(rid.slot as usize).map(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn heap() -> HeapFile {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 64));
        HeapFile::create(pool).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.get(a).unwrap().unwrap(), b"alpha");
        assert_eq!(h.get(b).unwrap().unwrap(), b"beta");
    }

    #[test]
    fn spills_to_new_pages_and_scans_in_order() {
        let h = heap();
        let mut rids = Vec::new();
        for i in 0..500u32 {
            rids.push(h.insert(format!("record-{i:05}").as_bytes()).unwrap());
        }
        assert!(h.page_count().unwrap() > 1, "must have chained pages");
        let scanned = h.scan().unwrap();
        assert_eq!(scanned.len(), 500);
        for (i, (rid, rec)) in scanned.iter().enumerate() {
            assert_eq!(rid, &rids[i]);
            assert_eq!(rec, format!("record-{i:05}").as_bytes());
        }
    }

    #[test]
    fn delete_hides_from_scan() {
        let h = heap();
        let a = h.insert(b"x").unwrap();
        let _b = h.insert(b"y").unwrap();
        h.delete(a).unwrap();
        assert_eq!(h.get(a).unwrap(), None);
        let scanned = h.scan().unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].1, b"y");
    }

    #[test]
    fn update_in_place_and_relocating() {
        let h = heap();
        let a = h.insert(b"0123456789").unwrap();
        let same = h.update(a, b"short").unwrap();
        assert_eq!(same, a);
        assert_eq!(h.get(a).unwrap().unwrap(), b"short");
        // Growing keeps the address while the page has room...
        let same = h.update(a, &[b'z'; 100]).unwrap();
        assert_eq!(same, a);
        assert_eq!(h.get(a).unwrap().unwrap(), vec![b'z'; 100]);
        // ...and moves the record once it does not.
        h.insert(&[b'f'; 3900]).unwrap();
        let moved = h.update(a, &[b'y'; 500]).unwrap();
        assert_ne!(moved, a);
        assert_eq!(h.get(a).unwrap(), None, "old address tombstoned");
        assert_eq!(h.get(moved).unwrap().unwrap(), vec![b'y'; 500]);
    }

    #[test]
    fn reopen_restores_append_cursor() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 64));
        let h = HeapFile::create(pool.clone()).unwrap();
        for i in 0..300u32 {
            h.insert(format!("r{i}").as_bytes()).unwrap();
        }
        let first = h.first_page();
        drop(h);
        let h2 = HeapFile::open(pool, first, None);
        let before = h2.scan().unwrap().len();
        h2.insert(b"after-reopen").unwrap();
        assert_eq!(h2.scan().unwrap().len(), before + 1);
    }

    #[test]
    fn recorded_tail_makes_reopen_and_append_o1() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 64));
        let h = HeapFile::create(pool.clone()).unwrap();
        for i in 0..2000u32 {
            h.insert(format!("record-{i:05}").as_bytes()).unwrap();
        }
        let (first, tail) = (h.first_page(), h.tail().unwrap());
        assert!(tail.pages > 5);
        drop(h);

        // Reattaching with the recorded tail reads nothing; the page count
        // is free and an append touches the tail page only.
        let before = pool.stats().logical_reads;
        let h2 = HeapFile::open(pool.clone(), first, Some(tail));
        assert_eq!(h2.page_count().unwrap(), tail.pages);
        assert_eq!(pool.stats().logical_reads, before);
        h2.insert(b"appended").unwrap();
        assert!(pool.stats().logical_reads - before <= 2);
        assert_eq!(h2.scan().unwrap().len(), 2001);

        // Without a recorded tail the first page count walks once, then
        // is cached.
        let h3 = HeapFile::open(pool.clone(), first, None);
        assert_eq!(h3.tail(), None);
        let before = pool.stats().logical_reads;
        assert_eq!(h3.page_count().unwrap(), tail.pages);
        assert_eq!(pool.stats().logical_reads - before, tail.pages);
        assert_eq!(h3.page_count().unwrap(), tail.pages);
        assert_eq!(pool.stats().logical_reads - before, tail.pages);
    }

    #[test]
    fn stale_recorded_tail_is_caught_on_append_and_by_recount() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 64));
        let h = HeapFile::create(pool.clone()).unwrap();
        let stale = h.tail().unwrap();
        for i in 0..2000u32 {
            h.insert(format!("record-{i:05}").as_bytes()).unwrap();
        }
        let (first, actual) = (h.first_page(), h.tail().unwrap());
        drop(h);
        // A tail that is not the chain's last page must not be appended
        // to: the append walks to the real end instead.
        let h2 = HeapFile::open(pool.clone(), first, Some(stale));
        let rid = h2.insert(b"appended").unwrap();
        assert_eq!(rid.page, actual.page);
        assert_eq!(h2.tail(), Some(actual));
        assert_eq!(h2.scan().unwrap().len(), 2001);
        // recount reports what was recorded against what the chain says.
        let h3 = HeapFile::open(pool, first, Some(stale));
        assert_eq!(h3.recount().unwrap(), (Some(stale), actual));
        assert_eq!(h3.tail(), Some(actual));
    }

    #[test]
    fn record_id_bytes_roundtrip() {
        let rid = RecordId {
            page: 123456,
            slot: 42,
        };
        assert_eq!(RecordId::from_bytes(&rid.to_bytes()).unwrap(), rid);
        assert!(RecordId::from_bytes(&[1, 2, 3]).is_err());
    }
}
