//! A page-based B+tree over byte-string keys.
//!
//! Keys are the order-preserving encodings of [`crate::value::encode_key`];
//! values are arbitrary byte strings (a packed [`crate::heap::RecordId`]
//! for secondary indexes, a full encoded row for clustered tables — the
//! BerkeleyDB-style layout of the "ArchIS-ATLaS" configuration).
//!
//! Duplicate keys are allowed; entries sort by `(key, value)`. Deletion is
//! lazy (no rebalancing): ArchIS history tables never delete from archived
//! segments, and live-segment rewrites rebuild their trees wholesale.

use crate::buffer::BufferPool;
use crate::page::{PageId, PAGE_SIZE};
use crate::{Result, StoreError};
use parking_lot::Mutex;
use std::ops::{Bound, Range};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

const LEAF_TAG: u8 = 0;
const INTERNAL_TAG: u8 = 1;
const NO_PAGE: u64 = u64::MAX;

/// Leaf header: tag(1) + count(2) + next(8).
const LEAF_HEADER: usize = 11;
/// Internal header: tag(1) + count(2) + first child(8).
const INTERNAL_HEADER: usize = 11;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        next: Option<PageId>,
    },
    Internal {
        first_child: PageId,
        entries: Vec<(Vec<u8>, PageId)>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                LEAF_HEADER
                    + entries
                        .iter()
                        .map(|(k, v)| 4 + k.len() + v.len())
                        .sum::<usize>()
            }
            Node::Internal { entries, .. } => {
                INTERNAL_HEADER + entries.iter().map(|(k, _)| 10 + k.len()).sum::<usize>()
            }
        }
    }

    fn serialize(&self, out: &mut [u8]) {
        debug_assert!(self.serialized_size() <= PAGE_SIZE);
        match self {
            Node::Leaf { entries, next } => {
                out[0] = LEAF_TAG;
                out[1..3].copy_from_slice(&(entries.len() as u16).to_be_bytes());
                out[3..11].copy_from_slice(&next.unwrap_or(NO_PAGE).to_be_bytes());
                let mut pos = LEAF_HEADER;
                for (k, v) in entries {
                    out[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_be_bytes());
                    out[pos + 2..pos + 4].copy_from_slice(&(v.len() as u16).to_be_bytes());
                    pos += 4;
                    out[pos..pos + k.len()].copy_from_slice(k);
                    pos += k.len();
                    out[pos..pos + v.len()].copy_from_slice(v);
                    pos += v.len();
                }
            }
            Node::Internal {
                first_child,
                entries,
            } => {
                out[0] = INTERNAL_TAG;
                out[1..3].copy_from_slice(&(entries.len() as u16).to_be_bytes());
                out[3..11].copy_from_slice(&first_child.to_be_bytes());
                let mut pos = INTERNAL_HEADER;
                for (k, child) in entries {
                    out[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_be_bytes());
                    pos += 2;
                    out[pos..pos + k.len()].copy_from_slice(k);
                    pos += k.len();
                    out[pos..pos + 8].copy_from_slice(&child.to_be_bytes());
                    pos += 8;
                }
            }
        }
    }

    /// Decode a node from the bytes of page `pid` (threaded through so a
    /// damaged node reports which page holds it — fsck and the
    /// index-fallback paths match on that attribution).
    fn deserialize(pid: PageId, data: &[u8]) -> Result<Node> {
        if data.first() == Some(&INTERNAL_TAG) {
            let mut entries = Vec::new();
            let first_child = each_separator(pid, data, |k, c| entries.push((k.to_vec(), c)))?;
            return Ok(Node::Internal {
                first_child,
                entries,
            });
        }
        let (count, next) = check_leaf(pid, data)?;
        let mut entries = Vec::with_capacity(count);
        let mut pos = LEAF_HEADER;
        while let Some((k, v)) = leaf_entry(data, pos).filter(|_| entries.len() < count) {
            pos = v.end;
            entries.push((data[k].to_vec(), data[v].to_vec()));
        }
        Ok(Node::Leaf { entries, next })
    }
}

/// A B+tree. Clone-cheap handle (shares the pool); the root page id is the
/// persistent identity of the tree.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: Mutex<PageId>,
    /// Cached page count; 0 means "unknown" (a tree always has ≥ 1 page).
    /// Pages are only ever added (deletion is lazy), so once known the
    /// counter stays exact by bumping it on every allocation. Shared
    /// (`Arc`) across `clone_handle` so writes through any handle keep
    /// every clone's view exact; only independently `open`ed handles have
    /// separate counters, and such a tree must have a single writer handle.
    pages: Arc<AtomicU64>,
    /// Cached entry count; −1 means "unknown". `create`/`bulk_load` seed
    /// it and insert/delete keep it exact, so `len` on a handle that built
    /// the tree never walks the leaves. Shared across `clone_handle` like
    /// `pages`.
    entries: Arc<AtomicI64>,
}

impl BTree {
    /// Create an empty tree (one empty leaf).
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let node = Node::Leaf {
            entries: Vec::new(),
            next: None,
        };
        let (id, frame) = pool.allocate()?;
        {
            let mut guard = frame.write();
            node.serialize(&mut guard.data[..]);
            guard.dirty = true;
        }
        Ok(BTree {
            pool,
            root: Mutex::new(id),
            pages: Arc::new(AtomicU64::new(1)),
            entries: Arc::new(AtomicI64::new(0)),
        })
    }

    /// Reattach to an existing tree by its root page. The counters start
    /// unknown and are private to this handle (use [`BTree::clone_handle`]
    /// to share them): open the same root twice and the two handles'
    /// cached `len`/`page_count` diverge on writes, so an opened tree must
    /// have at most one writing handle.
    ///
    /// This is a session-layer entry point: production code must reach a
    /// tree through [`Table`](crate::table::Table) (the live writer
    /// session) or through a [`Snapshot`](crate::catalog::Snapshot)'s
    /// frozen pool — never by opening a root against the shared pool
    /// directly, which would bypass the writer-vs-snapshot handle
    /// discipline. `archis-lint`'s `session-layer` rule enforces this.
    pub fn open(pool: Arc<BufferPool>, root: PageId) -> Self {
        BTree {
            pool,
            root: Mutex::new(root),
            pages: Arc::new(AtomicU64::new(0)),
            entries: Arc::new(AtomicI64::new(-1)),
        }
    }

    /// The current root page id (persist as the index root; note it changes
    /// when the root splits).
    pub fn root_page(&self) -> PageId {
        *self.root.lock()
    }

    /// An independent handle to the same tree: shares the pool and the
    /// cached size counters, snapshots the current root. Lets owning
    /// iterators (streaming scans) keep reading without borrowing the
    /// original, and writes through either handle keep both handles'
    /// `len`/`page_count` exact.
    pub fn clone_handle(&self) -> BTree {
        BTree {
            pool: self.pool.clone(),
            root: Mutex::new(self.root_page()),
            pages: self.pages.clone(),
            entries: self.entries.clone(),
        }
    }

    /// Build a tree bottom-up from entries already sorted by `(key, value)`
    /// — the tree's native order. Leaves are packed to capacity and chained
    /// left to right, then each internal level is built from the first key
    /// of every right sibling (the same separator convention `insert`'s
    /// splits produce), so the result obeys every invariant of an
    /// incrementally built tree while writing each page exactly once: no
    /// top-down descent, no splits, no rewritten WAL page images.
    ///
    /// Returns `Corrupt` if the input is out of order and `RecordTooLarge`
    /// for entries `insert` would also reject.
    pub fn bulk_load<I>(pool: Arc<BufferPool>, entries: I) -> Result<BTree>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let mut pages = 0u64;
        let mut alloc_blank = |pool: &Arc<BufferPool>| -> Result<PageId> {
            pages += 1;
            Ok(pool.allocate()?.0)
        };
        let store_at = |pid: PageId, node: &Node| -> Result<()> {
            let frame = pool.get(pid)?;
            let mut guard = frame.write();
            guard.data[..].fill(0);
            node.serialize(&mut guard.data[..]);
            guard.dirty = true;
            Ok(())
        };

        // Leaf level: stream entries into packed leaves. The next-pointer
        // forces allocating a leaf's page before its contents are final, so
        // each leaf's page id is claimed when the previous one closes.
        let mut level: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, page)
        let mut cur: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut cur_size = LEAF_HEADER;
        let mut cur_pid = alloc_blank(&pool)?;
        let mut prev: Option<(Vec<u8>, Vec<u8>)> = None;
        let mut total = 0i64;
        for (k, v) in entries {
            if 4 + k.len() + v.len() > PAGE_SIZE - LEAF_HEADER {
                return Err(StoreError::RecordTooLarge(k.len() + v.len()));
            }
            if let Some((pk, pv)) = &prev {
                if (pk.as_slice(), pv.as_slice()) > (k.as_slice(), v.as_slice()) {
                    return Err(StoreError::corrupt(
                        crate::CorruptObject::BTree,
                        "bulk_load input not sorted by (key, value)",
                    ));
                }
            }
            let cost = 4 + k.len() + v.len();
            if cur_size + cost > PAGE_SIZE {
                let next_pid = alloc_blank(&pool)?;
                let first_key = cur[0].0.clone();
                store_at(
                    cur_pid,
                    &Node::Leaf {
                        entries: std::mem::take(&mut cur),
                        next: Some(next_pid),
                    },
                )?;
                level.push((first_key, cur_pid));
                cur_pid = next_pid;
                cur_size = LEAF_HEADER;
            }
            cur_size += cost;
            prev = Some((k.clone(), v.clone()));
            cur.push((k, v));
            total += 1;
        }
        let first_key = cur.first().map(|(k, _)| k.clone()).unwrap_or_default();
        store_at(
            cur_pid,
            &Node::Leaf {
                entries: cur,
                next: None,
            },
        )?;
        level.push((first_key, cur_pid));

        // Internal levels: group children under packed internal nodes until
        // one node remains. Every key fitting in a leaf also fits as a
        // separator (10 + klen ≤ PAGE_SIZE − INTERNAL_HEADER), so each node
        // absorbs ≥ 2 children when available and the level count shrinks.
        while level.len() > 1 {
            let mut parents: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let (first_key, first_child) = level[i].clone();
                i += 1;
                let mut node_entries: Vec<(Vec<u8>, PageId)> = Vec::new();
                let mut size = INTERNAL_HEADER;
                while i < level.len() {
                    let cost = 10 + level[i].0.len();
                    if size + cost > PAGE_SIZE {
                        break;
                    }
                    node_entries.push(level[i].clone());
                    size += cost;
                    i += 1;
                }
                let pid = alloc_blank(&pool)?;
                store_at(
                    pid,
                    &Node::Internal {
                        first_child,
                        entries: node_entries,
                    },
                )?;
                parents.push((first_key, pid));
            }
            level = parents;
        }

        let root = level[0].1;
        Ok(BTree {
            pool,
            root: Mutex::new(root),
            pages: Arc::new(AtomicU64::new(pages)),
            entries: Arc::new(AtomicI64::new(total)),
        })
    }

    /// Bulk-load `entries` (sorted by `(key, value)`) into this tree,
    /// replacing its contents. Intended for trees known to be empty or
    /// being rewritten wholesale (fresh indexes, vacuum, segment
    /// rewrites): the previous pages are abandoned to lazy reclamation,
    /// like every other delete path in this store.
    pub fn bulk_fill<I>(&self, entries: I) -> Result<()>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let built = BTree::bulk_load(self.pool.clone(), entries)?;
        let mut root = self.root.lock();
        *root = built.root_page();
        self.pages
            .store(built.pages.load(Ordering::Relaxed), Ordering::Relaxed);
        self.entries
            .store(built.entries.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(())
    }

    fn load(&self, id: PageId) -> Result<Node> {
        let frame = self.pool.get(id)?;
        let guard = frame.read();
        Node::deserialize(id, &guard.data[..])
    }

    fn store(&self, id: PageId, node: &Node) -> Result<()> {
        let frame = self.pool.get(id)?;
        let mut guard = frame.write();
        guard.data[..].fill(0);
        node.serialize(&mut guard.data[..]);
        guard.dirty = true;
        Ok(())
    }

    fn alloc(&self, node: &Node) -> Result<PageId> {
        let (id, frame) = self.pool.allocate()?;
        let mut guard = frame.write();
        node.serialize(&mut guard.data[..]);
        guard.dirty = true;
        // Keep the cached page count exact once it is known.
        let _ = self
            .pages
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n != 0).then(|| n + 1)
            });
        Ok(id)
    }

    /// Insert an entry. Duplicate `(key, value)` pairs are stored as given.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<()> {
        if 4 + key.len() + value.len() > PAGE_SIZE - LEAF_HEADER {
            return Err(StoreError::RecordTooLarge(key.len() + value.len()));
        }
        let mut root = self.root.lock();
        if let Some((sep, right)) = self.insert_rec(*root, key, value)? {
            let new_root = Node::Internal {
                first_child: *root,
                entries: vec![(sep, right)],
            };
            *root = self.alloc(&new_root)?;
        }
        // Keep the cached entry count exact once it is known.
        let _ = self
            .entries
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n >= 0).then(|| n + 1)
            });
        Ok(())
    }

    /// Recursive insert; returns `(separator, new right page)` on split.
    fn insert_rec(
        &self,
        pid: PageId,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let mut node = self.load(pid)?;
        match &mut node {
            Node::Leaf { entries, next: _ } => {
                let pos =
                    entries.partition_point(|(k, v)| (k.as_slice(), v.as_slice()) <= (key, value));
                entries.insert(pos, (key.to_vec(), value.to_vec()));
                let appended_at_end = pos == entries.len() - 1;
                if node.serialized_size() <= PAGE_SIZE {
                    self.store(pid, &node)?;
                    return Ok(None);
                }
                // Split by bytes so oversized entries still distribute.
                let Node::Leaf { entries, next } = node else {
                    unreachable!()
                };
                let total: usize = entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum();
                let mut acc = 0usize;
                let mut cut = entries.len() - 1;
                for (i, (k, v)) in entries.iter().enumerate() {
                    acc += 4 + k.len() + v.len();
                    if acc >= total / 2 {
                        cut = (i + 1).min(entries.len() - 1).max(1);
                        break;
                    }
                }
                if appended_at_end {
                    // Rightmost split: ascending bulk loads (ArchIS's
                    // id-sorted segment rewrites) keep left leaves ~full
                    // instead of half-empty.
                    cut = entries.len() - 1;
                }
                let right_entries = entries[cut..].to_vec();
                let left_entries = entries[..cut].to_vec();
                let sep = right_entries[0].0.clone();
                let right = Node::Leaf {
                    entries: right_entries,
                    next,
                };
                let right_pid = self.alloc(&right)?;
                let left = Node::Leaf {
                    entries: left_entries,
                    next: Some(right_pid),
                };
                self.store(pid, &left)?;
                Ok(Some((sep, right_pid)))
            }
            Node::Internal {
                first_child,
                entries,
            } => {
                // Route to the rightmost child whose separator <= key.
                let idx = entries.partition_point(|(k, _)| k.as_slice() <= key);
                let child = if idx == 0 {
                    *first_child
                } else {
                    entries[idx - 1].1
                };
                if let Some((sep, new_child)) = self.insert_rec(child, key, value)? {
                    entries.insert(idx, (sep, new_child));
                    if node.serialized_size() <= PAGE_SIZE {
                        self.store(pid, &node)?;
                        return Ok(None);
                    }
                    let Node::Internal {
                        first_child,
                        entries,
                    } = node
                    else {
                        unreachable!()
                    };
                    let mid = entries.len() / 2;
                    let (up_key, up_child) = entries[mid].clone();
                    let right = Node::Internal {
                        first_child: up_child,
                        entries: entries[mid + 1..].to_vec(),
                    };
                    let right_pid = self.alloc(&right)?;
                    let left = Node::Internal {
                        first_child,
                        entries: entries[..mid].to_vec(),
                    };
                    self.store(pid, &left)?;
                    Ok(Some((up_key, right_pid)))
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// All values stored under exactly `key`.
    pub fn get(&self, key: &[u8]) -> Result<Vec<Vec<u8>>> {
        Ok(self
            .range(Bound::Included(key), Bound::Included(key))?
            .map(|(_, v)| v)
            .collect())
    }

    /// Remove one entry matching `(key, value)`. Returns whether anything
    /// was removed. No rebalancing (lazy deletion).
    pub fn delete(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        let root = self.root.lock();
        let mut pid = *root;
        loop {
            let mut node = self.load(pid)?;
            match &mut node {
                Node::Internal {
                    first_child,
                    entries,
                } => {
                    // Strict `<`, matching `range`: a separator equal to
                    // `key` may leave duplicates of that key in the left
                    // subtree (bulk-loaded leaf boundaries fall wherever a
                    // page fills), so land one child early and let the
                    // forward leaf-chain scan below skip ahead.
                    let idx = entries.partition_point(|(k, _)| k.as_slice() < key);
                    pid = if idx == 0 {
                        *first_child
                    } else {
                        entries[idx - 1].1
                    };
                }
                Node::Leaf { .. } => break,
            }
        }
        // The pair may sit in a later leaf if duplicates span pages.
        loop {
            let mut node = self.load(pid)?;
            let Node::Leaf { entries, next } = &mut node else {
                unreachable!()
            };
            if let Some(pos) = entries.iter().position(|(k, v)| k == key && v == value) {
                entries.remove(pos);
                self.store(pid, &node)?;
                let _ = self
                    .entries
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                        (n > 0).then(|| n - 1)
                    });
                return Ok(true);
            }
            // Stop once past the key.
            if entries.last().is_some_and(|(k, _)| k.as_slice() > key) {
                return Ok(false);
            }
            match next {
                Some(n) => pid = *n,
                None => return Ok(false),
            }
        }
    }

    /// Iterate entries with keys in the given bounds, in key order.
    pub fn range(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Result<RangeIter> {
        let start_key: &[u8] = match lo {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        let root = self.root.lock();
        let mut pid = *root;
        // Descend with strict `<`: a separator equal to the start key may
        // leave duplicates of that key in the left subtree (splits cut by
        // bytes, and bulk-loaded leaf boundaries fall wherever a page
        // fills), so land one child early and let the iterator's lo-bound
        // filter skip ahead along the leaf chain. Each node is read in
        // place under its latch, not decoded.
        loop {
            let frame = self.pool.get(pid)?;
            let guard = frame.read();
            match descend(pid, &guard.data[..], start_key)? {
                Some(child) => pid = child,
                None => break,
            }
        }
        Ok(RangeIter {
            tree: BTree {
                pool: self.pool.clone(),
                root: Mutex::new(*root),
                pages: self.pages.clone(),
                entries: self.entries.clone(),
            },
            leaf: Some(pid),
            page: Vec::new(),
            left: 0,
            pos: 0,
            lo: bound_owned(lo),
            hi: bound_owned(hi),
            primed: false,
            error: None,
        })
    }

    /// Entries whose key starts with `prefix`, in key order.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<RangeIter> {
        let hi = prefix_upper(prefix);
        match &hi {
            Some(h) => self.range(Bound::Included(prefix), Bound::Excluded(h)),
            None => self.range(Bound::Included(prefix), Bound::Unbounded),
        }
    }

    /// Total entries. O(1) once the count is known: `create`/`bulk_load`
    /// seed it and insert/delete keep it exact; only a tree reattached
    /// with `open` pays one full leaf walk, on the first call.
    pub fn len(&self) -> Result<usize> {
        let cached = self.entries.load(Ordering::Relaxed);
        if cached >= 0 {
            return Ok(cached as usize);
        }
        let mut it = self.range(Bound::Unbounded, Bound::Unbounded)?;
        let n = it.by_ref().count();
        // A walk cut short by a corrupt leaf must not publish (or serve) a
        // silently low count.
        if let Some(e) = it.take_error() {
            return Err(e);
        }
        // Racy double-compute is fine: competing walks publish the same
        // value, and insert/delete only adjust an already-published count.
        let _ = self
            .entries
            .compare_exchange(-1, n as i64, Ordering::Relaxed, Ordering::Relaxed);
        Ok(n)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Pages used by the tree (for storage-size experiments). O(1) once the
    /// count is known: `create`/`bulk_load` seed it and `alloc` keeps it
    /// exact; only a tree reattached with `open` pays one full walk, on the
    /// first call.
    pub fn page_count(&self) -> Result<u64> {
        let cached = self.pages.load(Ordering::Relaxed);
        if cached != 0 {
            return Ok(cached);
        }
        fn rec(t: &BTree, pid: PageId) -> Result<u64> {
            match t.load(pid)? {
                Node::Leaf { .. } => Ok(1),
                Node::Internal {
                    first_child,
                    entries,
                } => {
                    let mut n = 1 + rec(t, first_child)?;
                    for (_, c) in entries {
                        n += rec(t, c)?;
                    }
                    Ok(n)
                }
            }
        }
        let root = *self.root.lock();
        let n = rec(self, root)?;
        // Racy double-compute is fine; both walks see the same tree or a
        // superset, and alloc only bumps an already-published count.
        let _ = self
            .pages
            .compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed);
        Ok(n)
    }

    /// Test/debug aid: walk the whole tree and check its structural
    /// invariants — uniform leaf depth, sorted entries and separators,
    /// separator bounds on every subtree (keys under a child lie between
    /// its flanking separators, inclusively: duplicates of a separator may
    /// legally sit in the left sibling), and a leaf chain that visits
    /// exactly the tree's leaves in order. Both `insert`-built and
    /// `bulk_load`-built trees must satisfy these.
    pub fn verify_structure(&self) -> Result<()> {
        let bad =
            |m: String| StoreError::corrupt(crate::CorruptObject::BTree, format!("structure: {m}"));
        struct Walk<'a> {
            t: &'a BTree,
            leaves: Vec<PageId>,
            leaf_depth: Option<usize>,
        }
        impl Walk<'_> {
            fn rec(
                &mut self,
                pid: PageId,
                depth: usize,
                lo: Option<&[u8]>,
                hi: Option<&[u8]>,
            ) -> Result<()> {
                let bad = |m: String| {
                    StoreError::corrupt(crate::CorruptObject::BTree, format!("structure: {m}"))
                };
                match self.t.load(pid)? {
                    Node::Leaf { entries, .. } => {
                        match self.leaf_depth {
                            None => self.leaf_depth = Some(depth),
                            Some(d) if d != depth => {
                                return Err(bad(format!(
                                    "leaf {pid} at depth {depth}, expected {d}"
                                )))
                            }
                            _ => {}
                        }
                        let mut prev: Option<(&Vec<u8>, &Vec<u8>)> = None;
                        for (k, v) in &entries {
                            if let Some((pk, pv)) = prev {
                                if (pk, pv) > (k, v) {
                                    return Err(bad(format!("leaf {pid} entries unsorted")));
                                }
                            }
                            if lo.is_some_and(|lo| k.as_slice() < lo) {
                                return Err(bad(format!("leaf {pid} key below separator")));
                            }
                            if hi.is_some_and(|hi| k.as_slice() > hi) {
                                return Err(bad(format!("leaf {pid} key above separator")));
                            }
                            prev = Some((k, v));
                        }
                        self.leaves.push(pid);
                        Ok(())
                    }
                    Node::Internal {
                        first_child,
                        entries,
                    } => {
                        let mut prev: Option<&[u8]> = None;
                        for (k, _) in &entries {
                            if prev.is_some_and(|p| p > k.as_slice()) {
                                return Err(bad(format!("internal {pid} separators unsorted")));
                            }
                            prev = Some(k);
                        }
                        // Recurse with flanking separators as inclusive
                        // bounds; clone to drop the borrow of `entries`.
                        let seps: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
                        let first_hi = seps.first().map(|k| k.as_slice()).or(hi);
                        self.rec(first_child, depth + 1, lo, first_hi)?;
                        for (i, (k, child)) in entries.iter().enumerate() {
                            let child_hi = seps.get(i + 1).map(|k| k.as_slice()).or(hi);
                            self.rec(*child, depth + 1, Some(k), child_hi)?;
                        }
                        Ok(())
                    }
                }
            }
        }
        let root = *self.root.lock();
        let mut walk = Walk {
            t: self,
            leaves: Vec::new(),
            leaf_depth: None,
        };
        walk.rec(root, 0, None, None)?;
        // The leaf chain must visit exactly the in-order leaves.
        let mut pid = walk.leaves[0];
        for (i, want) in walk.leaves.iter().enumerate() {
            if pid != *want {
                return Err(bad(format!("leaf chain diverges at position {i}")));
            }
            match self.load(pid)? {
                Node::Leaf { next, .. } => match next {
                    Some(n) => pid = n,
                    None => {
                        if i + 1 != walk.leaves.len() {
                            return Err(bad("leaf chain ends early".into()));
                        }
                    }
                },
                _ => unreachable!(),
            }
        }
        Ok(())
    }
}

/// The smallest byte string greater than every string with this prefix.
pub fn prefix_upper(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut hi = prefix.to_vec();
    while let Some(last) = hi.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(hi);
        }
        hi.pop();
    }
    None
}

fn bound_owned(b: Bound<&[u8]>) -> Bound<Vec<u8>> {
    match b {
        Bound::Included(k) => Bound::Included(k.to_vec()),
        Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn read_u16(page: &[u8], at: usize) -> Option<usize> {
    Some(u16::from_be_bytes(page.get(at..at + 2)?.try_into().ok()?) as usize)
}

fn read_u64(page: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_be_bytes(page.get(at..at + 8)?.try_into().ok()?))
}

/// The key and value byte ranges of the leaf entry at offset `pos` of a
/// leaf page; `None` when the entry overruns the page.
fn leaf_entry(page: &[u8], pos: usize) -> Option<(Range<usize>, Range<usize>)> {
    let key = pos + 4..pos + 4 + read_u16(page, pos)?;
    let value = key.end..key.end + read_u16(page, pos + 2)?;
    (value.end <= page.len()).then_some((key, value))
}

fn node_corrupt(pid: PageId, m: String) -> StoreError {
    StoreError::corrupt_at(pid, crate::CorruptObject::BTree, m)
}

/// Check leaf page `pid` whole — its tag and the framing of every entry —
/// without decoding it; returns its entry count and next leaf.
fn check_leaf(pid: PageId, page: &[u8]) -> Result<(usize, Option<PageId>)> {
    match page.first() {
        Some(&LEAF_TAG) => {}
        Some(&INTERNAL_TAG) => {
            return Err(node_corrupt(
                pid,
                "internal node linked into the leaf chain".into(),
            ))
        }
        t => {
            let t = t.copied().unwrap_or_default();
            return Err(node_corrupt(pid, format!("node: unknown tag {t}")));
        }
    }
    let short = || node_corrupt(pid, "node: short page".into());
    let count = read_u16(page, 1).ok_or_else(short)?;
    let next = read_u64(page, 3).ok_or_else(short)?;
    let mut pos = LEAF_HEADER;
    for _ in 0..count {
        pos = leaf_entry(page, pos)
            .ok_or_else(|| node_corrupt(pid, "node: leaf entry overruns page".into()))?
            .1
            .end;
    }
    Ok((count, (next != NO_PAGE).then_some(next)))
}

/// Walk internal page `pid` in place: `f` sees every `(separator, right
/// child)` entry in order. Returns the first child; an entry that overruns
/// the page is an error.
fn each_separator(pid: PageId, page: &[u8], mut f: impl FnMut(&[u8], PageId)) -> Result<PageId> {
    let overrun = || node_corrupt(pid, "node: internal entry overruns page".into());
    let count = read_u16(page, 1).ok_or_else(overrun)?;
    let first = read_u64(page, 3).ok_or_else(overrun)?;
    let mut pos = INTERNAL_HEADER;
    for _ in 0..count {
        let klen = read_u16(page, pos).ok_or_else(overrun)?;
        let separator = page.get(pos + 2..pos + 2 + klen).ok_or_else(overrun)?;
        f(
            separator,
            read_u64(page, pos + 2 + klen).ok_or_else(overrun)?,
        );
        pos += klen + 10;
    }
    Ok(first)
}

/// One step of a descent toward `key` from page `pid`, read in place:
/// the child whose subtree holds the first entry not below `key` (strict
/// `<` on the sorted separators, see [`BTree::range`]), or `None` at a
/// leaf. The whole node is checked, as decoding it would.
fn descend(pid: PageId, page: &[u8], key: &[u8]) -> Result<Option<PageId>> {
    if page.first() != Some(&INTERNAL_TAG) {
        return check_leaf(pid, page).map(|_| None);
    }
    let mut below = None;
    let first = each_separator(pid, page, |separator, right| {
        if separator < key {
            below = Some(right);
        }
    })?;
    Ok(Some(below.unwrap_or(first)))
}

/// Ordered iterator over a key range; walks the leaf chain lazily.
///
/// Each leaf is copied out of its frame into the iterator's own buffer
/// (the latch is held for the copy only) and its entries are read from
/// there in place: `next_entry` lends them to the crate without
/// allocating, the [`Iterator`] impl hands out owned copies.
///
/// A leaf that fails to load (checksum mismatch, mangled node) ends the
/// iteration and parks the error in [`RangeIter::take_error`]; callers
/// that must not return silently truncated results check it after
/// draining the iterator.
pub struct RangeIter {
    tree: BTree,
    leaf: Option<PageId>,
    /// The current leaf page; every entry's framing was checked on load.
    page: Vec<u8>,
    /// Entries of `page` not yet visited, and the offset of the next one.
    left: usize,
    pos: usize,
    lo: Bound<Vec<u8>>,
    hi: Bound<Vec<u8>>,
    primed: bool,
    error: Option<StoreError>,
}

impl RangeIter {
    /// The error that cut the walk short, if any. `None` after a walk that
    /// visited every in-range entry.
    pub fn take_error(&mut self) -> Option<StoreError> {
        self.error.take()
    }

    /// The next in-range `(key, value)` entry, borrowed from the
    /// iterator's copy of its leaf.
    pub(crate) fn next_entry(&mut self) -> Option<(&[u8], &[u8])> {
        let (key, value) = loop {
            if self.left > 0 {
                let Some((k, v)) = leaf_entry(&self.page, self.pos) else {
                    self.left = 0;
                    continue;
                };
                self.pos = v.end;
                self.left -= 1;
                let key = self.page.get(k.clone()).unwrap_or_default();
                if !self.primed {
                    let in_lo = match &self.lo {
                        Bound::Included(lo) => key >= lo.as_slice(),
                        Bound::Excluded(lo) => key > lo.as_slice(),
                        Bound::Unbounded => true,
                    };
                    if !in_lo {
                        continue;
                    }
                    self.primed = true;
                }
                let in_hi = match &self.hi {
                    Bound::Included(hi) => key <= hi.as_slice(),
                    Bound::Excluded(hi) => key < hi.as_slice(),
                    Bound::Unbounded => true,
                };
                if !in_hi {
                    self.leaf = None;
                    self.left = 0;
                    return None;
                }
                break (k, v);
            }
            let pid = self.leaf.take()?;
            if let Err(e) = self.load_leaf(pid) {
                self.error = Some(e);
                return None;
            }
        };
        Some((
            self.page.get(key).unwrap_or_default(),
            self.page.get(value).unwrap_or_default(),
        ))
    }

    /// Copy leaf `pid` into the buffer and check it whole ([`check_leaf`]),
    /// so a damaged leaf fails before any of its entries is handed out.
    fn load_leaf(&mut self, pid: PageId) -> Result<()> {
        let frame = self.tree.pool.get(pid)?;
        let guard = frame.read();
        self.page.clear();
        self.page.extend_from_slice(&guard.data[..]);
        drop(guard);
        let (count, next) = check_leaf(pid, &self.page)?;
        self.leaf = next;
        self.left = count;
        self.pos = LEAF_HEADER;
        Ok(())
    }
}

impl Iterator for RangeIter {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_entry().map(|(k, v)| (k.to_vec(), v.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn tree() -> BTree {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 256));
        BTree::create(pool).unwrap()
    }

    #[test]
    fn insert_and_point_lookup() {
        let t = tree();
        t.insert(b"bob", b"1").unwrap();
        t.insert(b"alice", b"2").unwrap();
        t.insert(b"carol", b"3").unwrap();
        assert_eq!(t.get(b"alice").unwrap(), vec![b"2".to_vec()]);
        assert_eq!(t.get(b"dave").unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn duplicates_all_returned() {
        let t = tree();
        t.insert(b"k", b"v1").unwrap();
        t.insert(b"k", b"v2").unwrap();
        t.insert(b"k", b"v1").unwrap();
        let mut vs = t.get(b"k").unwrap();
        vs.sort();
        assert_eq!(vs, vec![b"v1".to_vec(), b"v1".to_vec(), b"v2".to_vec()]);
    }

    #[test]
    fn thousands_of_keys_stay_sorted() {
        let t = tree();
        let mut keys: Vec<u32> = (0..5000).collect();
        // Insert in a scrambled order.
        for i in 0..keys.len() {
            let j = (i * 2654435761) % keys.len();
            keys.swap(i, j);
        }
        for k in &keys {
            t.insert(&k.to_be_bytes(), format!("val{k}").as_bytes())
                .unwrap();
        }
        let all: Vec<_> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect();
        assert_eq!(all.len(), 5000);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(k, &(i as u32).to_be_bytes().to_vec());
            assert_eq!(v, format!("val{i}").as_bytes());
        }
        assert!(t.page_count().unwrap() > 3, "tree must have split");
    }

    #[test]
    fn range_bounds_are_respected() {
        let t = tree();
        for k in 0u32..100 {
            t.insert(&k.to_be_bytes(), b"x").unwrap();
        }
        let collect = |lo: Bound<&[u8]>, hi: Bound<&[u8]>| -> Vec<u32> {
            t.range(lo, hi)
                .unwrap()
                .map(|(k, _)| u32::from_be_bytes(k.try_into().unwrap()))
                .collect()
        };
        let lo = 10u32.to_be_bytes();
        let hi = 20u32.to_be_bytes();
        assert_eq!(
            collect(Bound::Included(&lo), Bound::Excluded(&hi)),
            (10..20).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(Bound::Excluded(&lo), Bound::Included(&hi)),
            (11..=20).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(Bound::Unbounded, Bound::Excluded(&lo)),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(
            collect(Bound::Included(&hi), Bound::Unbounded),
            (20..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn prefix_scan() {
        let t = tree();
        t.insert(b"emp:1:salary", b"a").unwrap();
        t.insert(b"emp:1:title", b"b").unwrap();
        t.insert(b"emp:2:salary", b"c").unwrap();
        t.insert(b"dept:1", b"d").unwrap();
        let hits: Vec<_> = t.scan_prefix(b"emp:1:").unwrap().map(|(k, _)| k).collect();
        assert_eq!(
            hits,
            vec![b"emp:1:salary".to_vec(), b"emp:1:title".to_vec()]
        );
        assert_eq!(t.scan_prefix(b"zzz").unwrap().count(), 0);
    }

    #[test]
    fn prefix_upper_bound_handles_ff() {
        assert_eq!(prefix_upper(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_upper(&[0x61, 0xFF]), Some(vec![0x62]));
        assert_eq!(prefix_upper(&[0xFF, 0xFF]), None);
    }

    #[test]
    fn delete_removes_one_instance() {
        let t = tree();
        t.insert(b"k", b"v").unwrap();
        t.insert(b"k", b"v").unwrap();
        assert!(t.delete(b"k", b"v").unwrap());
        assert_eq!(t.get(b"k").unwrap().len(), 1);
        assert!(t.delete(b"k", b"v").unwrap());
        assert!(!t.delete(b"k", b"v").unwrap());
        assert!(t.is_empty().unwrap());
    }

    #[test]
    fn delete_across_split_leaves() {
        let t = tree();
        for i in 0u32..2000 {
            t.insert(&i.to_be_bytes(), &[0u8; 16]).unwrap();
        }
        for i in (0u32..2000).step_by(3) {
            assert!(
                t.delete(&i.to_be_bytes(), &[0u8; 16]).unwrap(),
                "delete {i}"
            );
        }
        assert_eq!(t.len().unwrap(), 2000 - 2000usize.div_ceil(3));
    }

    #[test]
    fn large_values_split_correctly() {
        let t = tree();
        for i in 0u32..16 {
            t.insert(&i.to_be_bytes(), &vec![i as u8; 800]).unwrap();
        }
        let all: Vec<_> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect();
        assert_eq!(all.len(), 16);
        for (i, (_, v)) in all.iter().enumerate() {
            assert_eq!(v.len(), 800);
            assert_eq!(v[0], i as u8);
        }
    }

    #[test]
    fn oversized_entry_rejected() {
        let t = tree();
        assert!(matches!(
            t.insert(b"k", &vec![0u8; PAGE_SIZE]),
            Err(StoreError::RecordTooLarge(_))
        ));
    }

    #[test]
    fn bulk_load_matches_incremental_scan() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 512));
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0u32..5000)
            .map(|i| (i.to_be_bytes().to_vec(), format!("val{i}").into_bytes()))
            .collect();
        let bulk = BTree::bulk_load(pool.clone(), entries.clone()).unwrap();
        let inc = BTree::create(pool).unwrap();
        for (k, v) in &entries {
            inc.insert(k, v).unwrap();
        }
        let scan = |t: &BTree| -> Vec<(Vec<u8>, Vec<u8>)> {
            t.range(Bound::Unbounded, Bound::Unbounded)
                .unwrap()
                .collect()
        };
        assert_eq!(scan(&bulk), scan(&inc));
        assert_eq!(
            bulk.get(&1234u32.to_be_bytes()).unwrap(),
            vec![b"val1234".to_vec()]
        );
        assert!(
            bulk.page_count().unwrap() > 3,
            "bulk tree must have multiple pages"
        );
        // Packed leaves: the bulk tree never uses more pages than splits do.
        assert!(bulk.page_count().unwrap() <= inc.page_count().unwrap());
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 64));
        let empty = BTree::bulk_load(pool.clone(), Vec::new()).unwrap();
        assert!(empty.is_empty().unwrap());
        empty.insert(b"k", b"v").unwrap();
        assert_eq!(empty.get(b"k").unwrap(), vec![b"v".to_vec()]);
        let one = BTree::bulk_load(pool, vec![(b"a".to_vec(), b"1".to_vec())]).unwrap();
        assert_eq!(one.len().unwrap(), 1);
        assert_eq!(one.page_count().unwrap(), 1);
    }

    #[test]
    fn bulk_load_duplicates_across_pages() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 256));
        // 3000 copies of one key span many leaves; range must see them all.
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0u32..3000)
            .map(|i| (b"dup".to_vec(), i.to_be_bytes().to_vec()))
            .collect();
        let t = BTree::bulk_load(pool, entries).unwrap();
        assert_eq!(t.get(b"dup").unwrap().len(), 3000);
        assert!(t.page_count().unwrap() > 3);
    }

    #[test]
    fn bulk_load_rejects_unsorted_and_oversized() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 64));
        let unsorted = vec![(b"b".to_vec(), vec![]), (b"a".to_vec(), vec![])];
        assert!(matches!(
            BTree::bulk_load(pool.clone(), unsorted),
            Err(StoreError::Corrupt { .. })
        ));
        let oversized = vec![(b"k".to_vec(), vec![0u8; PAGE_SIZE])];
        assert!(matches!(
            BTree::bulk_load(pool, oversized),
            Err(StoreError::RecordTooLarge(_))
        ));
    }

    #[test]
    fn bulk_loaded_tree_accepts_inserts() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 512));
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0u32..2000)
            .map(|i| ((i * 2).to_be_bytes().to_vec(), vec![7u8; 8]))
            .collect();
        let t = BTree::bulk_load(pool, entries).unwrap();
        // Odd keys land between packed leaves and force immediate splits.
        for i in 0u32..2000 {
            t.insert(&(i * 2 + 1).to_be_bytes(), &[9u8; 8]).unwrap();
        }
        let all: Vec<_> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect();
        assert_eq!(all.len(), 4000);
        for (i, (k, _)) in all.iter().enumerate() {
            assert_eq!(k, &(i as u32).to_be_bytes().to_vec());
        }
    }

    #[test]
    fn page_count_is_cached_without_io() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 8));
        let t = BTree::create(pool.clone()).unwrap();
        for i in 0u32..4000 {
            t.insert(&i.to_be_bytes(), &[0u8; 16]).unwrap();
        }
        let walked = {
            // A fresh handle must pay exactly one full walk...
            let reopened = BTree::open(pool.clone(), t.root_page());
            let n = reopened.page_count().unwrap();
            pool.reset_stats();
            assert_eq!(reopened.page_count().unwrap(), n);
            let after = pool.stats();
            assert_eq!(
                after.physical_reads, 0,
                "second page_count must not hit disk"
            );
            assert_eq!(
                after.logical_reads, 0,
                "second page_count must not touch the pool"
            );
            n
        };
        // ...while the tree that allocated its own pages never walks at all.
        assert!(
            walked as usize > 8,
            "tree must outgrow the pool for this test"
        );
        pool.reset_stats();
        assert_eq!(t.page_count().unwrap(), walked);
        assert_eq!(pool.stats().logical_reads, 0);
    }

    #[test]
    fn len_is_cached_without_io() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 8));
        let t = BTree::create(pool.clone()).unwrap();
        for i in 0u32..4000 {
            t.insert(&i.to_be_bytes(), &[0u8; 16]).unwrap();
        }
        for i in 0u32..100 {
            assert!(t.delete(&i.to_be_bytes(), &[0u8; 16]).unwrap());
        }
        // The building handle tracked every insert/delete: len is free.
        pool.reset_stats();
        assert_eq!(t.len().unwrap(), 3900);
        assert!(!t.is_empty().unwrap());
        assert_eq!(
            pool.stats().logical_reads,
            0,
            "len on a tracked handle must not do I/O"
        );
        // A reopened handle pays one walk, then answers from the cache.
        let reopened = BTree::open(pool.clone(), t.root_page());
        assert_eq!(reopened.len().unwrap(), 3900);
        pool.reset_stats();
        assert_eq!(reopened.len().unwrap(), 3900);
        assert_eq!(
            pool.stats().logical_reads,
            0,
            "second len must not touch the pool"
        );
        // Deleting a missing pair leaves the count alone.
        assert!(!t.delete(b"missing", b"none").unwrap());
        assert_eq!(t.len().unwrap(), 3900);
    }

    #[test]
    fn range_finds_duplicates_left_of_separator() {
        // Force duplicates of one key to straddle a leaf boundary, then ask
        // for exactly that key: the descent must land left of the equal
        // separator or the left leaf's copies are lost.
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 256));
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0u32..500 {
            entries.push((b"aa".to_vec(), i.to_be_bytes().to_vec()));
        }
        for i in 0u32..500 {
            entries.push((b"bb".to_vec(), i.to_be_bytes().to_vec()));
        }
        let t = BTree::bulk_load(pool, entries).unwrap();
        assert_eq!(t.get(b"aa").unwrap().len(), 500);
        assert_eq!(t.get(b"bb").unwrap().len(), 500);
    }

    #[test]
    fn delete_finds_duplicates_left_of_separator() {
        // Delete-side twin of range_finds_duplicates_left_of_separator:
        // bulk_load packs duplicates of one key across leaf boundaries, so
        // internal separators equal the key and the copies sit in the left
        // subtree. Every (key, value) pair must still be deletable.
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 256));
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0u32..500 {
            entries.push((b"aa".to_vec(), i.to_be_bytes().to_vec()));
        }
        for i in 0u32..500 {
            entries.push((b"bb".to_vec(), i.to_be_bytes().to_vec()));
        }
        let t = BTree::bulk_load(pool, entries).unwrap();
        for i in 0u32..500 {
            assert!(
                t.delete(b"aa", &i.to_be_bytes()).unwrap(),
                "aa/{i} must be found despite equal separators"
            );
        }
        assert_eq!(t.get(b"aa").unwrap().len(), 0);
        assert_eq!(t.get(b"bb").unwrap().len(), 500);
        // Deleting the already-deleted pairs reports false, not a hang.
        assert!(!t.delete(b"aa", &0u32.to_be_bytes()).unwrap());
    }

    #[test]
    fn reopen_by_root_page() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 256));
        let t = BTree::create(pool.clone()).unwrap();
        for i in 0u32..1000 {
            t.insert(&i.to_be_bytes(), b"v").unwrap();
        }
        let root = t.root_page();
        drop(t);
        let t2 = BTree::open(pool, root);
        assert_eq!(t2.len().unwrap(), 1000);
    }
}
