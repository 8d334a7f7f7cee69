//! Slotted pages.
//!
//! Every page is [`PAGE_SIZE`] bytes. Record-bearing pages use the classic
//! slotted layout:
//!
//! ```text
//! +------------------+-------------------+---------------+--------------+
//! | header (12 B)    | slot array (4 B/e)| free space →  | ← record data|
//! +------------------+-------------------+---------------+--------------+
//! bytes 0..8   next-page id (u64, MAX = none)
//! bytes 8..10  slot count (u16)
//! bytes 10..12 free-space offset (u16): lowest byte used by record data
//! slot i       (offset u16, len u16); offset == 0 marks a dead slot
//! ```
//!
//! Records grow downward from the end of the page; the slot array grows
//! upward after the header. Deleting a record tombstones its slot; the
//! dead bytes are reclaimed only when an in-place update on the same page
//! needs them — ArchIS history tables are append-mostly, and the paper's
//! segment archival rewrites pages wholesale anyway.

use crate::{Result, StoreError};

/// Page size in bytes. Chosen to match the paper's 4000-byte BlockZIP
/// blocks (a compressed block plus its row header fits one page).
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within a store.
pub type PageId = u64;

/// Sentinel meaning "no page".
pub const NO_PAGE: PageId = u64::MAX;

const HEADER: usize = 12;
const SLOT: usize = 4;

/// A read-only view over one slotted page's bytes. Everything that only
/// *reads* a page (record fetches, scans, chain walks) goes through this,
/// so it can run under a shared frame lock; [`SlottedPage`] adds the
/// mutating half over `&mut [u8]`.
#[derive(Clone, Copy)]
pub struct PageView<'a> {
    data: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Wrap a page buffer formatted by [`SlottedPage::init`].
    pub fn new(data: &'a [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        PageView { data }
    }

    /// The chained next page, if any.
    pub fn next_page(self) -> Option<PageId> {
        let id = u64::from_be_bytes(self.data[..8].try_into().unwrap());
        (id != NO_PAGE).then_some(id)
    }

    /// Number of slots (live and dead).
    pub fn slot_count(self) -> usize {
        u16::from_be_bytes(self.data[8..10].try_into().unwrap()) as usize
    }

    fn free_offset(self) -> usize {
        u16::from_be_bytes(self.data[10..12].try_into().unwrap()) as usize
    }

    fn slot(self, i: usize) -> (usize, usize) {
        let base = HEADER + i * SLOT;
        let off = u16::from_be_bytes(self.data[base..base + 2].try_into().unwrap()) as usize;
        let len = u16::from_be_bytes(self.data[base + 2..base + 4].try_into().unwrap()) as usize;
        (off, len)
    }

    /// Contiguous free bytes between the slot array and the record data.
    fn gap(self) -> usize {
        self.free_offset()
            .saturating_sub(HEADER + self.slot_count() * SLOT)
    }

    /// Read a record. Returns `None` for dead or out-of-range slots.
    pub fn get(self, slot: usize) -> Option<&'a [u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return None; // tombstone
        }
        Some(&self.data[off..off + len])
    }

    /// Iterate live `(slot, record)` pairs.
    pub fn records(self) -> impl Iterator<Item = (usize, &'a [u8])> {
        (0..self.slot_count()).filter_map(move |i| self.get(i).map(|r| (i, r)))
    }
}

/// A typed view over one page's bytes offering slotted-record operations.
pub struct SlottedPage<'a> {
    data: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Wrap a page buffer. The caller must have called
    /// [`SlottedPage::init`] on this buffer at some point.
    pub fn new(data: &'a mut [u8]) -> Self {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        SlottedPage { data }
    }

    /// Format a fresh page: no slots, full free space, no next page.
    pub fn init(data: &mut [u8]) {
        data[..8].copy_from_slice(&NO_PAGE.to_be_bytes());
        data[8..10].copy_from_slice(&0u16.to_be_bytes());
        data[10..12].copy_from_slice(&(PAGE_SIZE as u16).to_be_bytes());
    }

    /// The read-only half of the page API.
    pub fn view(&self) -> PageView<'_> {
        PageView { data: self.data }
    }

    /// The chained next page, if any.
    pub fn next_page(&self) -> Option<PageId> {
        self.view().next_page()
    }

    /// Link this page to a successor.
    pub fn set_next_page(&mut self, next: Option<PageId>) {
        self.data[..8].copy_from_slice(&next.unwrap_or(NO_PAGE).to_be_bytes());
    }

    /// Number of slots (live and dead).
    pub fn slot_count(&self) -> usize {
        self.view().slot_count()
    }

    fn set_slot_count(&mut self, n: usize) {
        self.data[8..10].copy_from_slice(&(n as u16).to_be_bytes());
    }

    fn set_free_offset(&mut self, off: usize) {
        self.data[10..12].copy_from_slice(&(off as u16).to_be_bytes());
    }

    fn set_slot(&mut self, i: usize, off: usize, len: usize) {
        let base = HEADER + i * SLOT;
        self.data[base..base + 2].copy_from_slice(&(off as u16).to_be_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&(len as u16).to_be_bytes());
    }

    /// Contiguous free bytes available for one more record plus its slot.
    pub fn free_space(&self) -> usize {
        self.view().gap()
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT
    }

    /// Insert a record, returning its slot number.
    pub fn insert(&mut self, record: &[u8]) -> Result<usize> {
        if record.len() + SLOT > PAGE_SIZE - HEADER {
            return Err(StoreError::RecordTooLarge(record.len()));
        }
        if !self.fits(record.len()) {
            return Err(StoreError::corrupt(crate::CorruptObject::Page, "page full"));
        }
        let slot = self.slot_count();
        self.set_slot_count(slot + 1);
        self.place(slot, record);
        Ok(slot)
    }

    /// Copy `record` into the top of the free gap and point `slot` at it.
    /// The caller has checked that the gap holds it.
    fn place(&mut self, slot: usize, record: &[u8]) {
        let off = self.view().free_offset() - record.len();
        self.data[off..off + record.len()].copy_from_slice(record);
        self.set_slot(slot, off, record.len());
        self.set_free_offset(off);
    }

    /// Read a record. Returns `None` for dead or out-of-range slots.
    pub fn get(&self, slot: usize) -> Option<&[u8]> {
        self.view().get(slot)
    }

    /// Tombstone a record. Its bytes stay dead until an in-page update
    /// needs the room (see [`SlottedPage::update_in_place`]).
    pub fn delete(&mut self, slot: usize) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(StoreError::NotFound(format!("slot {slot}")));
        }
        self.set_slot(slot, 0, 0);
        Ok(())
    }

    /// Replace a record without moving it off the page, so its slot (and
    /// with it every record id pointing here) stays valid. A payload no
    /// longer than the old one overwrites it; a longer one goes into the
    /// free gap, after squeezing out the page's dead bytes if the gap alone
    /// is too small. Reports `RecordTooLarge` when even that is not enough
    /// and the caller must delete + reinsert elsewhere.
    pub fn update_in_place(&mut self, slot: usize, record: &[u8]) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(StoreError::NotFound(format!("slot {slot}")));
        }
        let (off, len) = self.view().slot(slot);
        if off == 0 {
            return Err(StoreError::NotFound(format!("slot {slot} is dead")));
        }
        if record.len() <= len {
            self.data[off..off + record.len()].copy_from_slice(record);
            self.set_slot(slot, off, record.len());
            return Ok(());
        }
        if self.view().gap() < record.len() {
            let live_without: usize = self
                .view()
                .records()
                .filter(|(i, _)| *i != slot)
                .map(|(_, r)| r.len())
                .sum();
            let room = PAGE_SIZE - HEADER - self.slot_count() * SLOT - live_without;
            if room < record.len() {
                return Err(StoreError::RecordTooLarge(record.len()));
            }
            // The old copy is dead weight from here on; drop it first so
            // compaction does not carry it along.
            self.set_slot(slot, 0, 0);
            self.compact();
        }
        self.place(slot, record);
        Ok(())
    }

    /// Repack the live records against the end of the page, reclaiming the
    /// bytes of deleted and superseded ones. Slot numbers do not change.
    fn compact(&mut self) {
        let live: Vec<(usize, Vec<u8>)> = self
            .view()
            .records()
            .map(|(i, r)| (i, r.to_vec()))
            .collect();
        self.set_free_offset(PAGE_SIZE);
        for (slot, rec) in live {
            self.place(slot, &rec);
        }
    }

    /// Iterate live `(slot, record)` pairs.
    pub fn records(&self) -> impl Iterator<Item = (usize, &[u8])> {
        self.view().records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> [u8; PAGE_SIZE] {
        let mut buf = [0u8; PAGE_SIZE];
        SlottedPage::init(&mut buf);
        buf
    }

    #[test]
    fn insert_and_get() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.records().count(), 2);
    }

    #[test]
    fn delete_tombstones() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let a = p.insert(b"abc").unwrap();
        let b = p.insert(b"def").unwrap();
        p.delete(a).unwrap();
        assert_eq!(p.get(a), None);
        assert_eq!(p.get(b), Some(&b"def"[..]));
        assert_eq!(p.records().count(), 1);
        assert!(p.delete(99).is_err());
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let rec = [7u8; 100];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        assert!(n >= (PAGE_SIZE - HEADER) / (100 + SLOT) - 1);
        assert!(p.insert(&rec).is_err());
        // All inserted records still readable.
        assert_eq!(p.records().count(), n);
    }

    #[test]
    fn rejects_oversized_record() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        assert!(matches!(
            p.insert(&[0u8; PAGE_SIZE]),
            Err(StoreError::RecordTooLarge(_))
        ));
    }

    #[test]
    fn update_in_place_shrinks_and_regrows() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let s = p.insert(b"0123456789").unwrap();
        p.update_in_place(s, b"abcde").unwrap();
        assert_eq!(p.get(s), Some(&b"abcde"[..]));
        p.update_in_place(s, b"longer-than-before").unwrap();
        assert_eq!(p.get(s), Some(&b"longer-than-before"[..]));
        assert!(p.update_in_place(99, b"x").is_err());
    }

    #[test]
    fn update_in_place_grows_into_the_gap_then_into_dead_space() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let a = p.insert(&[1u8; 1000]).unwrap();
        let b = p.insert(&[2u8; 1000]).unwrap();
        let c = p.insert(&[3u8; 1000]).unwrap();
        // Grows into the gap: the slot keeps its number.
        p.update_in_place(a, &[4u8; 1040]).unwrap();
        assert_eq!(p.get(a), Some(&[4u8; 1040][..]));
        // Gap exhausted (≈ 30 bytes left): growing again has to reclaim
        // the superseded 1000-byte copy of `a` and the deleted `b`.
        p.delete(b).unwrap();
        assert!(p.free_space() < 1100);
        p.update_in_place(c, &[5u8; 1100]).unwrap();
        assert_eq!(p.get(a), Some(&[4u8; 1040][..]));
        assert_eq!(p.get(b), None);
        assert_eq!(p.get(c), Some(&[5u8; 1100][..]));
        // Reclaimed space is usable by later inserts too.
        assert!(p.fits(1500));
        // A payload the page cannot hold even when compacted is refused
        // and leaves the record as it was.
        assert!(matches!(
            p.update_in_place(a, &[6u8; 3000]),
            Err(StoreError::RecordTooLarge(_))
        ));
        assert_eq!(p.get(a), Some(&[4u8; 1040][..]));
    }

    #[test]
    fn read_only_view_agrees_with_the_mutable_page() {
        let mut buf = fresh();
        {
            let mut p = SlottedPage::new(&mut buf);
            p.insert(b"alpha").unwrap();
            let dead = p.insert(b"beta").unwrap();
            p.insert(b"gamma").unwrap();
            p.delete(dead).unwrap();
            p.set_next_page(Some(9));
        }
        let v = PageView::new(&buf);
        assert_eq!(v.next_page(), Some(9));
        assert_eq!(v.slot_count(), 3);
        assert_eq!(v.get(1), None);
        let recs: Vec<_> = v.records().collect();
        assert_eq!(recs, vec![(0, &b"alpha"[..]), (2, &b"gamma"[..])]);
    }

    #[test]
    fn next_page_chain() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        assert_eq!(p.next_page(), None);
        p.set_next_page(Some(42));
        assert_eq!(p.next_page(), Some(42));
        p.set_next_page(None);
        assert_eq!(p.next_page(), None);
    }

    #[test]
    fn empty_payload_is_storable() {
        let mut buf = fresh();
        let mut p = SlottedPage::new(&mut buf);
        let s = p.insert(b"").unwrap();
        // Zero-length record at a nonzero offset is live.
        assert_eq!(p.get(s), Some(&b""[..]));
    }
}
