//! Concurrency and eviction-safety tests for the sharded CLOCK buffer pool.
//!
//! The pool is the one structure every layer above hammers from multiple
//! threads (concurrent readers, snapshot queries beside a writer, the
//! compressed block decode fan-out), so it gets a dedicated stress test
//! (lost-update detection under eviction pressure) and a property test
//! (CLOCK must never evict a frame a caller still holds).

use proptest::prelude::*;
use relstore::pager::MemPager;
use relstore::BufferPool;
use std::collections::HashMap;
use std::sync::Arc;

const THREADS: usize = 8;
const GETS_PER_THREAD: usize = 400;
const PAGES: usize = 256;

/// Eight threads hammer 256 pages through a 128-frame pool (constant
/// eviction on both shards). Each thread owns one byte offset per page and
/// increments it on every visit; evicted dirty frames must be written back,
/// so after the dust settles every increment must still be visible.
#[test]
fn concurrent_gets_lose_no_writes_under_eviction() {
    let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 128));
    assert!(pool.shard_count() > 1, "stress test wants a sharded pool");
    let mut ids = Vec::with_capacity(PAGES);
    for _ in 0..PAGES {
        let (id, frame) = pool.allocate().unwrap();
        frame.write().dirty = true;
        ids.push(id);
    }
    pool.reset_stats();

    let per_thread: Vec<HashMap<u64, u8>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let pool = pool.clone();
                let ids = ids.clone();
                s.spawn(move |_| {
                    // Deterministic per-thread page sequence (xorshift).
                    let mut x = 0x9E37_79B9u64.wrapping_add(tid as u64);
                    let mut counts: HashMap<u64, u8> = HashMap::new();
                    for _ in 0..GETS_PER_THREAD {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let id = ids[(x % PAGES as u64) as usize];
                        let frame = pool.get(id).unwrap();
                        let mut guard = frame.write();
                        guard.data[tid] = guard.data[tid].wrapping_add(1);
                        guard.dirty = true;
                        *counts.entry(id).or_insert(0) += 1;
                    }
                    counts
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();

    let stats = pool.stats();
    assert_eq!(
        stats.logical_reads,
        (THREADS * GETS_PER_THREAD) as u64,
        "every get must count as one logical read"
    );
    assert!(stats.physical_reads <= stats.logical_reads);
    assert!(
        stats.evictions > 0,
        "256 pages through 128 frames must evict"
    );
    assert!(
        stats.writes_evict > 0,
        "dirty victims must be attributed to eviction"
    );
    assert_eq!(
        stats.writes_checkpoint, 0,
        "no explicit flush has run yet, so no checkpoint write-backs"
    );
    assert_eq!(
        stats.physical_writes,
        stats.writes_evict + stats.writes_checkpoint
    );

    pool.flush_all().unwrap();
    let stats = pool.stats();
    assert!(
        stats.writes_checkpoint > 0,
        "flush_all write-backs count as checkpoint writes"
    );
    assert_eq!(
        stats.physical_writes,
        stats.writes_evict + stats.writes_checkpoint,
        "eviction and checkpoint causes must partition total write-backs"
    );
    for &id in &ids {
        let frame = pool.get(id).unwrap();
        let guard = frame.read();
        for (tid, counts) in per_thread.iter().enumerate() {
            let expected = counts.get(&id).copied().unwrap_or(0);
            assert_eq!(
                guard.data[tid], expected,
                "page {id} byte {tid}: lost update under eviction"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CLOCK may only evict unreferenced frames: any frame the caller still
    /// holds an `Arc` to must survive arbitrary allocation pressure, both
    /// as the same in-memory object and with its contents intact.
    #[test]
    fn clock_never_evicts_pinned_frames(
        cap in 8usize..40,
        npin in 1usize..8,
        pressure in 1usize..200,
    ) {
        let pool = BufferPool::new(Arc::new(MemPager::new()), cap);
        let mut pinned = Vec::with_capacity(npin);
        for i in 0..npin {
            let (id, frame) = pool.allocate().unwrap();
            {
                let mut guard = frame.write();
                guard.data[0] = 0xA0 + i as u8;
                guard.dirty = true;
            }
            pinned.push((id, frame)); // keep the Arc alive: the pin
        }
        for _ in 0..pressure {
            let (_, f) = pool.allocate().unwrap();
            drop(f);
        }
        for (i, (id, frame)) in pinned.iter().enumerate() {
            let again = pool.get(*id).unwrap();
            prop_assert!(
                Arc::ptr_eq(frame, &again),
                "pinned frame for page {} was evicted and re-faulted", id
            );
            prop_assert_eq!(again.read().data[0], 0xA0 + i as u8);
        }
    }
}
