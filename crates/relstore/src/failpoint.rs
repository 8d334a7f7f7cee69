//! Deterministic fault injection for crash-recovery testing.
//!
//! A [`Failpoints`] handle models the power state of a machine: I/O
//! devices ([`FailLog`] over a [`LogFile`], [`FailPager`] over a
//! [`Pager`]) register against it and split their contents into a
//! *durable* part (the wrapped inner device — what survives power loss)
//! and a *volatile* part (bytes appended or pages written since the last
//! fsync — what a crash throws away).
//!
//! Faults are armed up front and fire deterministically:
//!
//! * [`Failpoints::crash_after_writes`] — the Nth write operation (log
//!   append, page write, allocation, truncate) powers the machine off.
//! * [`Failpoints::crash_after_syncs`] — the Nth fsync completes
//!   *durably* and then the machine powers off (the classic
//!   "crash right after commit" window).
//! * [`Failpoints::set_tear_writes`] — when a crash interrupts unsynced
//!   data, a seeded prefix of it survives anyway (modelling a torn sector
//!   write); with tearing off, unsynced data vanishes entirely.
//! * [`Failpoints::set_drop_syncs`] — fsyncs report success but harden
//!   nothing (a lying disk); combined with a later crash this exposes any
//!   code path that trusts an un-checksummed tail.
//! * [`BitRot`] / [`flip_bit_at`] — at-rest media decay: seeded bit flips
//!   applied to a closed page file between reopen cycles, for exercising
//!   page-checksum detection and fsck repair.
//!
//! All randomness comes from a caller-supplied seed through a xorshift
//! generator, so every torture run replays bit-for-bit. After a crash,
//! every device errors until [`Failpoints::revive`] — the simulated
//! reboot — at which point volatile state is gone and recovery code can
//! be exercised against exactly what "disk" retained.
//!
//! **Concurrency contract.** One [`Failpoints`] schedule is shared (via
//! `Arc`) by every wrapped device and consulted under a single internal
//! mutex, so the write/sync counters order operations **globally across
//! threads** — counters are per-machine, never per-thread. The engine
//! has no background I/O thread (no log writer, pool flusher or readahead
//! worker): every write and fsync happens on the thread that asked for
//! it. Each device additionally holds its own state lock across the
//! schedule consult *and* the resulting side effect (lock order: device →
//! schedule, never the reverse), so a crash decision and its torn-write
//! fallout are atomic with respect to concurrent operations on that
//! device. Reads are deliberately not counted — only mutations and fsyncs
//! advance the schedule — so concurrent readers can never shift a seeded
//! crash position.

use crate::page::{PageId, PAGE_SIZE};
use crate::pager::Pager;
use crate::wal::LogFile;
use crate::{Result, StoreError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Error message marker for injected crashes; tests match on it to tell a
/// simulated power-off from a real bug.
pub const CRASH_MSG: &str = "failpoint: simulated crash";

fn crash_error() -> StoreError {
    StoreError::Io(CRASH_MSG.into())
}

/// Whether a [`StoreError`] is an injected crash rather than a real fault.
pub fn is_crash(err: &StoreError) -> bool {
    matches!(err, StoreError::Io(msg) if msg == CRASH_MSG)
}

#[derive(Debug)]
struct FpState {
    rng: u64,
    writes: u64,
    syncs: u64,
    crash_at_write: Option<u64>,
    crash_at_sync: Option<u64>,
    drop_syncs: bool,
    tear_writes: bool,
    crashed: bool,
    /// Bumped on every crash; devices compare it to drop volatile state
    /// lazily (a "reboot generation").
    epoch: u64,
}

pub(crate) enum WriteFate {
    Persist,
    Crash,
}

pub(crate) enum SyncFate {
    Persist,
    DropSilently,
    PersistThenCrash,
}

/// Shared, seeded fault schedule. Clone the `Arc` into every wrapped
/// device so one schedule governs the whole simulated machine.
pub struct Failpoints {
    state: Mutex<FpState>,
}

impl Failpoints {
    /// A fault schedule with no faults armed, seeded for reproducibility.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(Failpoints {
            state: Mutex::new(FpState {
                // SplitMix64 scramble so nearby seeds diverge immediately.
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                writes: 0,
                syncs: 0,
                crash_at_write: None,
                crash_at_sync: None,
                drop_syncs: false,
                tear_writes: true,
                crashed: false,
                epoch: 0,
            }),
        })
    }

    /// Arm a power-off on the `n`th write operation from now (1-based).
    pub fn crash_after_writes(&self, n: u64) {
        let mut st = self.state.lock();
        let at = st.writes + n;
        st.crash_at_write = Some(at);
    }

    /// Arm a power-off immediately *after* the `n`th fsync from now
    /// completes durably (1-based).
    pub fn crash_after_syncs(&self, n: u64) {
        let mut st = self.state.lock();
        let at = st.syncs + n;
        st.crash_at_sync = Some(at);
    }

    /// Disarm any pending crash points (the "dry run" mode used to count a
    /// workload's writes and syncs before sweeping crash positions).
    pub fn disarm(&self) {
        let mut st = self.state.lock();
        st.crash_at_write = None;
        st.crash_at_sync = None;
    }

    /// Make fsyncs lie: report success without hardening anything.
    pub fn set_drop_syncs(&self, on: bool) {
        self.state.lock().drop_syncs = on;
    }

    /// Whether a crash leaves a seeded prefix of unsynced data behind
    /// (torn write). Default: on.
    pub fn set_tear_writes(&self, on: bool) {
        self.state.lock().tear_writes = on;
    }

    /// Write operations observed so far.
    pub fn writes(&self) -> u64 {
        self.state.lock().writes
    }

    /// Fsync operations observed so far.
    pub fn syncs(&self) -> u64 {
        self.state.lock().syncs
    }

    /// Whether the machine is currently powered off.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Reboot: devices start serving again from their durable state.
    /// Armed crash points are cleared; counters keep running.
    pub fn revive(&self) {
        let mut st = self.state.lock();
        st.crashed = false;
        st.crash_at_write = None;
        st.crash_at_sync = None;
    }

    fn next_rand(st: &mut FpState) -> u64 {
        // xorshift64* — deterministic, no external crates.
        let mut x = st.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        st.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// How many bytes of an unsynced region survive a crash.
    pub(crate) fn survival(&self, pending: usize) -> usize {
        let mut st = self.state.lock();
        if !st.tear_writes || pending == 0 {
            return 0;
        }
        (Self::next_rand(&mut st) % (pending as u64 + 1)) as usize
    }

    pub(crate) fn note_write(&self) -> WriteFate {
        let mut st = self.state.lock();
        st.writes += 1;
        if st.crash_at_write == Some(st.writes) {
            st.crashed = true;
            st.epoch += 1;
            WriteFate::Crash
        } else {
            WriteFate::Persist
        }
    }

    pub(crate) fn note_sync(&self) -> SyncFate {
        let mut st = self.state.lock();
        st.syncs += 1;
        if st.crash_at_sync == Some(st.syncs) {
            st.crashed = true;
            st.epoch += 1;
            // The sync itself completes before power is lost.
            SyncFate::PersistThenCrash
        } else if st.drop_syncs {
            SyncFate::DropSilently
        } else {
            SyncFate::Persist
        }
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    fn check_power(&self) -> Result<()> {
        if self.state.lock().crashed {
            Err(crash_error())
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// FailLog
// ---------------------------------------------------------------------------

struct FailLogState {
    volatile: Vec<u8>,
    seen_epoch: u64,
}

/// A [`LogFile`] wrapper that buffers appends in volatile memory until
/// `sync`, and consults a [`Failpoints`] schedule on every operation.
pub struct FailLog {
    fp: Arc<Failpoints>,
    inner: Arc<dyn LogFile>,
    state: Mutex<FailLogState>,
}

impl FailLog {
    /// Wrap `inner` (the durable medium) under the fault schedule `fp`.
    pub fn new(fp: Arc<Failpoints>, inner: Arc<dyn LogFile>) -> Self {
        FailLog {
            fp,
            inner,
            state: Mutex::new(FailLogState {
                volatile: Vec::new(),
                seen_epoch: 0,
            }),
        }
    }

    fn catch_up(&self, st: &mut FailLogState) {
        let epoch = self.fp.epoch();
        if st.seen_epoch != epoch {
            st.volatile.clear();
            st.seen_epoch = epoch;
        }
    }

    /// Unsynced bytes currently held in the volatile buffer (test hook).
    pub fn volatile_len(&self) -> usize {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        st.volatile.len()
    }
}

impl LogFile for FailLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        self.fp.check_power()?;
        match self.fp.note_write() {
            WriteFate::Persist => {
                st.volatile.extend_from_slice(bytes);
                Ok(())
            }
            WriteFate::Crash => {
                // Power dies mid-write: a seeded prefix of everything
                // unsynced (earlier appends + this one) may reach the
                // platter anyway — that is the torn tail recovery must
                // reject.
                let mut pending = std::mem::take(&mut st.volatile);
                pending.extend_from_slice(bytes);
                let keep = self.fp.survival(pending.len());
                self.inner.append(&pending[..keep])?;
                Err(crash_error())
            }
        }
    }

    fn sync(&self) -> Result<()> {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        self.fp.check_power()?;
        match self.fp.note_sync() {
            SyncFate::Persist => {
                let pending = std::mem::take(&mut st.volatile);
                self.inner.append(&pending)?;
                self.inner.sync()
            }
            SyncFate::DropSilently => Ok(()),
            SyncFate::PersistThenCrash => {
                let pending = std::mem::take(&mut st.volatile);
                self.inner.append(&pending)?;
                self.inner.sync()?;
                Err(crash_error())
            }
        }
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        self.fp.check_power()?;
        let mut all = self.inner.read_all()?;
        all.extend_from_slice(&st.volatile);
        Ok(all)
    }

    fn truncate(&self) -> Result<()> {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        self.fp.check_power()?;
        match self.fp.note_write() {
            WriteFate::Persist => {
                st.volatile.clear();
                self.inner.truncate()
            }
            WriteFate::Crash => Err(crash_error()),
        }
    }

    fn len(&self) -> Result<u64> {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        self.fp.check_power()?;
        Ok(self.inner.len()? + st.volatile.len() as u64)
    }
}

// ---------------------------------------------------------------------------
// FailPager
// ---------------------------------------------------------------------------

struct FailPagerState {
    volatile: HashMap<PageId, Box<[u8; PAGE_SIZE]>>,
    num_pages: u64,
    seen_epoch: u64,
}

/// A [`Pager`] wrapper with the same durable/volatile split as
/// [`FailLog`]: page writes and allocations sit in volatile memory until
/// `sync` pushes them into the wrapped pager. A crash during a page write
/// can leave the durable page *torn* — a seeded prefix of the new image
/// spliced over the old one.
pub struct FailPager {
    fp: Arc<Failpoints>,
    inner: Arc<dyn Pager>,
    state: Mutex<FailPagerState>,
}

impl FailPager {
    /// Wrap `inner` (the durable medium) under the fault schedule `fp`.
    pub fn new(fp: Arc<Failpoints>, inner: Arc<dyn Pager>) -> Self {
        let num_pages = inner.num_pages();
        FailPager {
            fp,
            inner,
            state: Mutex::new(FailPagerState {
                volatile: HashMap::new(),
                num_pages,
                seen_epoch: 0,
            }),
        }
    }

    fn catch_up(&self, st: &mut FailPagerState) {
        let epoch = self.fp.epoch();
        if st.seen_epoch != epoch {
            st.volatile.clear();
            st.num_pages = self.inner.num_pages();
            st.seen_epoch = epoch;
        }
    }

    fn flush_volatile(&self, st: &mut FailPagerState) -> Result<()> {
        while self.inner.num_pages() < st.num_pages {
            self.inner.allocate()?;
        }
        let mut ids: Vec<PageId> = st.volatile.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.inner.write_page(id, &st.volatile[&id][..])?;
        }
        st.volatile.clear();
        Ok(())
    }
}

impl Pager for FailPager {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        self.fp.check_power()?;
        if let Some(img) = st.volatile.get(&id) {
            buf.copy_from_slice(&img[..]);
            return Ok(());
        }
        if id < self.inner.num_pages() {
            // lint:allow(fault-injection wrapper: state stays locked across the
            // inner read so a concurrent crash() cannot interleave with it)
            return self.inner.read_page(id, buf);
        }
        if id < st.num_pages {
            buf.fill(0);
            return Ok(());
        }
        Err(StoreError::NotFound(format!("page {id}")))
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        self.fp.check_power()?;
        if id >= st.num_pages {
            return Err(StoreError::NotFound(format!("page {id}")));
        }
        match self.fp.note_write() {
            WriteFate::Persist => {
                let mut img = Box::new([0u8; PAGE_SIZE]);
                img.copy_from_slice(buf);
                st.volatile.insert(id, img);
                Ok(())
            }
            WriteFate::Crash => {
                // Torn page: a seeded prefix of the new image lands over
                // whatever the durable page held; all other volatile
                // writes evaporate.
                let keep = self.fp.survival(PAGE_SIZE);
                if keep > 0 {
                    while self.inner.num_pages() <= id {
                        self.inner.allocate()?;
                    }
                    let mut old = [0u8; PAGE_SIZE];
                    // lint:allow(torn-write simulation must be atomic under the state lock,
                    // or a concurrent writer could observe a half-torn page)
                    self.inner.read_page(id, &mut old)?;
                    old[..keep].copy_from_slice(&buf[..keep]);
                    // lint:allow(second half of the torn-write simulation, same guard)
                    self.inner.write_page(id, &old)?;
                }
                st.volatile.clear();
                Err(crash_error())
            }
        }
    }

    fn allocate(&self) -> Result<PageId> {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        self.fp.check_power()?;
        match self.fp.note_write() {
            WriteFate::Persist => {
                let id = st.num_pages;
                st.num_pages += 1;
                Ok(id)
            }
            WriteFate::Crash => Err(crash_error()),
        }
    }

    fn num_pages(&self) -> u64 {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        st.num_pages
    }

    fn sync(&self) -> Result<()> {
        let mut st = self.state.lock();
        self.catch_up(&mut st);
        self.fp.check_power()?;
        match self.fp.note_sync() {
            SyncFate::Persist => {
                self.flush_volatile(&mut st)?;
                self.inner.sync()
            }
            SyncFate::DropSilently => Ok(()),
            SyncFate::PersistThenCrash => {
                self.flush_volatile(&mut st)?;
                self.inner.sync()?;
                Err(crash_error())
            }
        }
    }

    fn checksum_stats(&self) -> (u64, u64) {
        self.inner.checksum_stats()
    }

    fn reset_checksum_stats(&self) {
        self.inner.reset_checksum_stats();
    }
}

// ---------------------------------------------------------------------------
// Replication channel faults
// ---------------------------------------------------------------------------

/// Fate of one shipment on a faulty replication channel.
///
/// The first five model *transient* transport faults a robust replica must
/// absorb without operator help: retry, detect, and re-request from its
/// last durable position. [`ShipmentFate::CorruptPayload`] is different in
/// kind — the damage is re-framed with a valid CRC, so it models a buggy
/// or malicious primary whose stream *content* is wrong. A replica must
/// detect that via the running divergence checksum and quarantine itself,
/// never converge; it is therefore only ever armed explicitly, never drawn
/// by the random schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipmentFate {
    /// Deliver the shipment unharmed.
    Deliver,
    /// Lose the shipment entirely (the replica sees a transport error).
    Drop,
    /// Deliver a stale copy of the previous shipment instead.
    Duplicate,
    /// Deliver a shipment from a *later* position than requested.
    Reorder,
    /// Deliver a seeded prefix of the shipment (torn in transit).
    Truncate,
    /// Flip one seeded bit somewhere in the shipment bytes.
    BitFlip,
    /// Rewrite payload bytes and re-frame the record CRC so the damage
    /// passes framing validation — silent content divergence.
    CorruptPayload,
}

#[derive(Debug)]
struct ChannelState {
    rng: u64,
    /// Shipments whose fate has been decided (the global counter).
    shipments: u64,
    /// Explicitly armed fates by absolute shipment number.
    armed: HashMap<u64, ShipmentFate>,
    /// Percent of shipments that draw a random transient fault.
    random_pct: u32,
}

/// Deterministic, seeded fault schedule for a replication channel — the
/// transport-level sibling of [`Failpoints`]. Where `Failpoints` decides
/// the fate of disk writes and fsyncs, `FailChannel` decides the fate of
/// *shipments*: chunks of the primary's WAL stream in flight to a replica.
///
/// **Concurrency contract** (mirrors [`Failpoints`]): one `FailChannel`
/// is shared via `Arc` by every wrapped transport and consulted under a
/// single internal mutex, so the shipment counter orders fetches
/// **globally across threads** — a replica's puller threads hit the same
/// armed positions regardless of which thread fetches. Each fate draw and
/// its seeded parameters (truncation length, flipped bit) come from one
/// atomic consult, so concurrent fetches can never interleave inside a
/// fault decision. The transport wrapper holds no lock of its own while
/// calling the inner transport; only the fate consult is serialized —
/// the channel schedule can therefore never deadlock against transport
/// I/O (consult first, then perform the I/O unlocked).
pub struct FailChannel {
    state: Mutex<ChannelState>,
}

impl FailChannel {
    /// A channel-fault schedule with no faults armed, seeded for
    /// reproducibility.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(FailChannel {
            state: Mutex::new(ChannelState {
                // Same SplitMix64 scramble as `Failpoints`.
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                shipments: 0,
                armed: HashMap::new(),
                random_pct: 0,
            }),
        })
    }

    /// Arm a fate for the `n`th shipment from now (1-based).
    pub fn arm_nth(&self, n: u64, fate: ShipmentFate) {
        let mut st = self.state.lock();
        let at = st.shipments + n;
        st.armed.insert(at, fate);
    }

    /// Make `pct` percent of un-armed shipments draw a seeded random
    /// *transient* fault (drop / duplicate / reorder / truncate /
    /// bit-flip — never [`ShipmentFate::CorruptPayload`], which would
    /// defeat convergence sweeps by design).
    pub fn set_random_faults(&self, pct: u32) {
        self.state.lock().random_pct = pct.min(100);
    }

    /// Shipments whose fate has been decided so far.
    pub fn shipments(&self) -> u64 {
        self.state.lock().shipments
    }

    /// Decide the fate of the next shipment (bumps the global counter).
    pub fn next_fate(&self) -> ShipmentFate {
        let mut st = self.state.lock();
        st.shipments += 1;
        let n = st.shipments;
        if let Some(fate) = st.armed.remove(&n) {
            return fate;
        }
        if st.random_pct > 0 {
            let roll = Failpoints::next_rand_for(&mut st.rng) % 100;
            if roll < st.random_pct as u64 {
                return match Failpoints::next_rand_for(&mut st.rng) % 5 {
                    0 => ShipmentFate::Drop,
                    1 => ShipmentFate::Duplicate,
                    2 => ShipmentFate::Reorder,
                    3 => ShipmentFate::Truncate,
                    _ => ShipmentFate::BitFlip,
                };
            }
        }
        ShipmentFate::Deliver
    }

    /// Seeded survival length for a truncated shipment of `len` bytes.
    pub fn truncate_len(&self, len: usize) -> usize {
        let mut st = self.state.lock();
        if len == 0 {
            return 0;
        }
        (Failpoints::next_rand_for(&mut st.rng) % len as u64) as usize
    }

    /// Flip one seeded bit in `bytes`; returns the flipped bit index, or
    /// `None` for an empty shipment.
    pub fn flip_bit(&self, bytes: &mut [u8]) -> Option<u64> {
        let mut st = self.state.lock();
        if bytes.is_empty() {
            return None;
        }
        let bit = Failpoints::next_rand_for(&mut st.rng) % (bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8); // lint:allow(bit < len * 8 by construction)
        Some(bit)
    }

    /// Seeded index draw in `0..n` (used by transports to pick which
    /// record of a shipment to corrupt, which offset to reorder to, ...).
    pub fn pick(&self, n: u64) -> u64 {
        let mut st = self.state.lock();
        if n == 0 {
            return 0;
        }
        Failpoints::next_rand_for(&mut st.rng) % n
    }
}

impl Failpoints {
    /// xorshift64* step over a caller-held state word (shared by the
    /// [`FailChannel`] schedule so both fault sources use one generator
    /// implementation).
    fn next_rand_for(rng: &mut u64) -> u64 {
        let mut x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

// ---------------------------------------------------------------------------
// At-rest bit rot
// ---------------------------------------------------------------------------

/// Deterministic at-rest bit-rot injector.
///
/// Where [`FailPager`] models faults on the *write* path (torn writes,
/// dropped syncs, power loss), `BitRot` models silent media decay: it
/// flips bits in a page file **on disk**, between reopen cycles, with no
/// pager open. Seeded like [`Failpoints`] so a failing seed replays
/// exactly.
pub struct BitRot {
    rng: u64,
}

/// One injected bit flip: which page, which bit of its slot, and the byte
/// offset in the file that was damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlippedBit {
    /// Page whose on-disk slot was damaged.
    pub page_id: PageId,
    /// Bit index within the slot (`byte * 8 + bit`), spanning payload and,
    /// in v2 files, the trailing checksum.
    pub bit: u64,
    /// Absolute byte offset in the file that was modified.
    pub file_offset: u64,
}

impl BitRot {
    /// A bit-rot source seeded for reproducibility.
    pub fn new(seed: u64) -> BitRot {
        BitRot {
            // Same SplitMix64 scramble as `Failpoints`: nearby seeds diverge.
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: tiny, deterministic, good enough for fault fuzzing.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Flip one seeded-random bit in some page slot of the page file at
    /// `path`. Returns what was damaged, or `None` if the file holds no
    /// complete page slots.
    pub fn flip_random(&mut self, path: impl AsRef<Path>) -> Result<Option<FlippedBit>> {
        let layout = crate::pager::PageFileLayout::of_file(&path)?;
        if layout.pages == 0 {
            return Ok(None);
        }
        let page_id = self.next_u64() % layout.pages;
        let bit = self.next_u64() % (layout.slot_len * 8);
        flip_bit_at(path, page_id, bit).map(Some)
    }
}

/// Flip bit `bit` (counting `byte * 8 + bit_in_byte` from the start of the
/// slot) of page `page_id`'s on-disk slot in the page file at `path`.
///
/// Operates on the file directly — no pager may have the file open for
/// writing while rot is injected, exactly like real at-rest corruption.
pub fn flip_bit_at(path: impl AsRef<Path>, page_id: PageId, bit: u64) -> Result<FlippedBit> {
    let layout = crate::pager::PageFileLayout::of_file(&path)?;
    if page_id >= layout.pages {
        return Err(StoreError::NotFound(format!("page {page_id}")));
    }
    let bit = bit % (layout.slot_len * 8);
    let file_offset = layout.slot_offset(page_id) + bit / 8;
    let mask = 1u8 << (bit % 8);
    // lint:allow(fault injection writes the durable file directly by design:
    // at-rest rot happens beneath every pager and WAL)
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    use std::io::{Read, Seek, SeekFrom, Write};
    f.seek(SeekFrom::Start(file_offset))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    b[0] ^= mask;
    f.seek(SeekFrom::Start(file_offset))?;
    // lint:allow(fault injection writes the durable file directly by design)
    f.write_all(&b)?;
    f.sync_data()?;
    Ok(FlippedBit {
        page_id,
        bit,
        file_offset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use crate::wal::MemLog;

    #[test]
    fn log_crash_drops_unsynced_tail() {
        let fp = Failpoints::new(1);
        fp.set_tear_writes(false);
        let inner = Arc::new(MemLog::new());
        let log = FailLog::new(fp.clone(), inner.clone());

        log.append(b"aaaa").unwrap();
        log.sync().unwrap();
        log.append(b"bbbb").unwrap();
        fp.crash_after_writes(1);
        assert!(is_crash(&log.append(b"cccc").unwrap_err()));
        assert!(fp.crashed());
        assert!(
            is_crash(&log.append(b"dddd").unwrap_err()),
            "dead until revive"
        );

        fp.revive();
        assert_eq!(
            log.read_all().unwrap(),
            b"aaaa",
            "only synced bytes survived"
        );
    }

    #[test]
    fn log_crash_with_tearing_keeps_seeded_prefix() {
        for seed in 0..32u64 {
            let fp = Failpoints::new(seed);
            fp.set_tear_writes(true);
            let inner = Arc::new(MemLog::new());
            let log = FailLog::new(fp.clone(), inner.clone());
            log.append(b"aaaa").unwrap();
            log.sync().unwrap();
            fp.crash_after_writes(1);
            let _ = log.append(b"bbbb").unwrap_err();
            fp.revive();
            let got = log.read_all().unwrap();
            assert!(got.starts_with(b"aaaa"));
            assert!(
                got.len() <= 8,
                "survivors are a prefix of the unsynced tail"
            );
            assert!(b"aaaabbbb".starts_with(&got[..]));
        }
    }

    #[test]
    fn crash_schedule_is_deterministic() {
        let run = |seed: u64| -> Vec<u8> {
            let fp = Failpoints::new(seed);
            let inner = Arc::new(MemLog::new());
            let log = FailLog::new(fp.clone(), inner);
            log.append(b"xyzw").unwrap();
            fp.crash_after_writes(1);
            let _ = log.append(b"pqrs");
            fp.revive();
            log.read_all().unwrap()
        };
        assert_eq!(run(7), run(7), "same seed, same torn tail");
    }

    #[test]
    fn dropped_sync_leaves_data_volatile() {
        let fp = Failpoints::new(3);
        fp.set_tear_writes(false);
        let inner = Arc::new(MemLog::new());
        let log = FailLog::new(fp.clone(), inner.clone());
        log.append(b"aaaa").unwrap();
        fp.set_drop_syncs(true);
        log.sync().unwrap(); // lies
        assert_eq!(log.read_all().unwrap(), b"aaaa", "still visible in-process");
        fp.crash_after_writes(1);
        let _ = log.append(b"b").unwrap_err();
        fp.revive();
        assert_eq!(log.read_all().unwrap(), b"", "lying fsync hardened nothing");
    }

    #[test]
    fn crash_after_sync_persists_then_kills() {
        let fp = Failpoints::new(9);
        let inner = Arc::new(MemLog::new());
        let log = FailLog::new(fp.clone(), inner.clone());
        log.append(b"aaaa").unwrap();
        fp.crash_after_syncs(1);
        assert!(is_crash(&log.sync().unwrap_err()));
        fp.revive();
        assert_eq!(
            log.read_all().unwrap(),
            b"aaaa",
            "the fsync completed before power loss"
        );
    }

    #[test]
    fn pager_crash_discards_unsynced_pages_and_tears_inflight() {
        let fp = Failpoints::new(11);
        let inner = Arc::new(MemPager::new());
        inner.allocate().unwrap();
        inner.write_page(0, &[0xEE; PAGE_SIZE]).unwrap();
        let pager = FailPager::new(fp.clone(), inner.clone());

        pager.write_page(0, &[0x11; PAGE_SIZE]).unwrap();
        pager.sync().unwrap();
        fp.crash_after_writes(1);
        let err = pager.write_page(0, &[0x22; PAGE_SIZE]).unwrap_err();
        assert!(is_crash(&err));
        fp.revive();

        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(0, &mut buf).unwrap();
        // Durable content is the synced 0x11 image with a (possibly empty)
        // 0x22 torn prefix.
        let torn = buf.iter().take_while(|&&b| b == 0x22).count();
        assert!(
            buf[torn..].iter().all(|&b| b == 0x11),
            "suffix keeps the old image"
        );
    }

    #[test]
    fn pager_unsynced_allocation_rolls_back() {
        let fp = Failpoints::new(13);
        fp.set_tear_writes(false);
        let inner = Arc::new(MemPager::new());
        let pager = FailPager::new(fp.clone(), inner);
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
        assert_eq!(pager.num_pages(), 1);
        fp.crash_after_writes(1);
        let _ = pager.write_page(id, &[2u8; PAGE_SIZE]).unwrap_err();
        fp.revive();
        assert_eq!(pager.num_pages(), 0, "allocation was never synced");
    }

    #[test]
    fn sync_makes_pager_state_durable() {
        let fp = Failpoints::new(17);
        let inner = Arc::new(MemPager::new());
        let pager = FailPager::new(fp.clone(), inner.clone());
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[7u8; PAGE_SIZE]).unwrap();
        pager.sync().unwrap();
        fp.crash_after_writes(1);
        let _ = pager.allocate().unwrap_err();
        fp.revive();
        assert_eq!(pager.num_pages(), 1);
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
        assert_eq!(
            inner.num_pages(),
            1,
            "flushed through to the durable medium"
        );
    }
}
