//! MVCC concurrency torture (ISSUE 7 tentpole): snapshot readers against
//! a committing writer, deterministically.
//!
//! The invariant under test is the whole point of the snapshot layer:
//! a reader's view at snapshot LSN `S` must be **byte-identical to a
//! serial execution stopped at `S`** — never a torn page, never an
//! uncommitted row, never a hybrid of two commits. The writer itself is
//! the serial oracle: after every operation it records a canonical dump
//! of the live store keyed by the WAL commit LSN, and every concurrent
//! reader checks its frozen dump against the recorded one for its LSN.
//!
//! Three layers of torture:
//!  * one long run (≥ 1000 committed batches) with several readers,
//!  * a 200-seed sweep of shorter runs (`--features failpoints` builds,
//!    where the CI gate runs it),
//!  * crash-at-every-fsync while readers are in flight: recovery must
//!    land on a committed prefix that covers every snapshot the store
//!    ever returned (pins land on the last durable commit, so a returned
//!    snapshot can never be lost to a crash).
//!
//! Plus the PR-5 degradation regression: a quarantined compressed block
//! read while a snapshot is open must not leak the live view's data loss
//! into the snapshot's pristine pinned bytes.

use archis::{ArchConfig, ArchIS, RelationSpec};
use relstore::pager::MemPager;
use relstore::wal::{MemLog, WalConfig, WalPager};
use relstore::{BufferPool, Database, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use temporal::Date;

/// Canonical whole-store image: every table, rows rendered and sorted,
/// folded into one string (the "bytes" of byte-identical). `None` when
/// the media died underneath the scan (crash torture only).
fn try_dump(db: &Database) -> Option<String> {
    let mut out = String::new();
    for name in db.table_names() {
        let mut rows: Vec<String> = db
            .table(&name)
            .ok()?
            .scan()
            .ok()?
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        out.push_str(&name);
        out.push('\n');
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
    }
    Some(out)
}

fn dump(db: &Database) -> String {
    try_dump(db).expect("dump on good media")
}

/// FNV-1a over the dump: cheap to store once per commit LSN.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn archis_mem(group_commit: usize) -> ArchIS {
    let pager = Arc::new(
        WalPager::open(
            Arc::new(MemPager::new()),
            Arc::new(MemLog::new()),
            WalConfig::with_group_commit(group_commit),
        )
        .unwrap(),
    );
    let db = Database::open_pool(Arc::new(BufferPool::new(pager, 512))).unwrap();
    ArchIS::open_with_database(db, ArchConfig::default()).unwrap()
}

/// Deterministic op stream: multiplicative LCG, kinds weighted toward
/// upserts so the history keeps growing.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One writer op against the live store. Kinds: 0..=3 upsert, 4 delete,
/// 5 archival pass. Dates advance five days per op so periods coalesce.
fn writer_op(
    a: &ArchIS,
    alive: &mut std::collections::BTreeSet<i64>,
    i: usize,
    kind: u64,
    key: i64,
) -> archis::Result<()> {
    let base_day = Date::parse("1990-01-01").unwrap().day_number();
    let at = Date::from_day_number(base_day + i as i32 * 5);
    match kind {
        0..=3 => {
            if alive.insert(key) {
                a.insert(
                    "employee",
                    key,
                    vec![
                        ("name".into(), Value::Str(format!("e{key}"))),
                        ("salary".into(), Value::Int(1000 + i as i64)),
                        ("title".into(), Value::Str("Engineer".into())),
                        ("deptno".into(), Value::Str("d001".into())),
                    ],
                    at,
                )?;
            } else {
                a.update(
                    "employee",
                    key,
                    vec![("salary".into(), Value::Int(1000 + i as i64))],
                    at,
                )?;
            }
        }
        4 => {
            if alive.remove(&key) {
                a.delete("employee", key, at)?;
            }
        }
        _ => {
            a.maybe_archive("employee", at)?;
        }
    }
    Ok(())
}

/// Run `ops` writer operations with `readers` concurrent snapshot readers
/// and fail on the first divergence. Returns how many snapshot-vs-serial
/// comparisons actually happened.
fn torture(seed: u64, ops: usize, readers: usize, keys: i64) -> u64 {
    let mut a = archis_mem(1);
    a.create_relation(RelationSpec::employee()).unwrap();

    // Serial oracle: commit LSN -> hash of the canonical dump at that LSN.
    // Recorded by the writer after every op, for every LSN the op sealed
    // (an `ArchIS::checkpoint` seals twice; both land on the same state).
    let recorded: Mutex<BTreeMap<u64, u64>> = Mutex::new(BTreeMap::new());
    let done = AtomicBool::new(false);
    let compared = AtomicU64::new(0);
    // Every reader pins once before the writer starts, so even a short
    // run compares at least one snapshot per reader.
    let start = Barrier::new(readers + 1);
    {
        let mut rec = recorded.lock().unwrap();
        let h = fnv(&dump(a.database()));
        for l in 0..=a.database().commit_lsn() {
            rec.insert(l, h);
        }
    }

    let a = &a;
    let recorded = &recorded;
    let done = &done;
    let compared = &compared;
    let start = &start;
    std::thread::scope(|s| {
        for r in 0..readers {
            s.spawn(move || {
                let mut rng = Lcg(seed ^ (0x9e37 + r as u64));
                let mut first = true;
                while first || !done.load(Ordering::Acquire) {
                    let snap = a.begin_snapshot().expect("pin never fails on good media");
                    if std::mem::take(&mut first) {
                        start.wait();
                    }
                    let lsn = snap.commit_lsn();
                    let got = fnv(&dump(snap.database()));
                    // The writer records an op's LSNs after the op returns;
                    // a reader can pin the newest commit first. Spin until
                    // the oracle catches up, but give up once the writer is
                    // finished and the entry still hasn't appeared — that
                    // means the writer panicked mid-run, and spinning
                    // forever would turn its failure into a hang.
                    let want = loop {
                        if let Some(&w) = recorded.lock().unwrap().get(&lsn) {
                            break w;
                        }
                        if done.load(Ordering::Acquire) {
                            match recorded.lock().unwrap().get(&lsn) {
                                Some(&w) => break w,
                                None => return,
                            }
                        }
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    };
                    assert_eq!(
                        got,
                        want,
                        "seed {seed} reader {r}: snapshot at LSN {lsn} diverged from \
                         serial execution at that LSN:\n{}",
                        dump(snap.database())
                    );
                    compared.fetch_add(1, Ordering::Relaxed);
                    // Vary pin lifetimes so unpin-time pruning gets hit at
                    // many interleavings, and back off briefly — every
                    // snapshot page read shares the WAL state mutex with
                    // the writer, so an unthrottled pin/dump loop would
                    // starve the very commits it is checking against.
                    let pause = 20 + rng.next() % 100;
                    std::thread::sleep(std::time::Duration::from_micros(pause));
                    drop(snap);
                }
            });
        }

        // Set `done` even if the writer panics below — otherwise the
        // readers spin forever and a writer failure reads as a hang.
        struct DoneGuard<'a>(&'a AtomicBool);
        impl Drop for DoneGuard<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let _guard = DoneGuard(done);
        start.wait();

        let mut rng = Lcg(seed);
        let mut alive = std::collections::BTreeSet::new();
        let mut prev = a.database().commit_lsn();
        for i in 0..ops {
            let kind = rng.next() % 6;
            let key = (rng.next() % keys as u64) as i64;
            writer_op(a, &mut alive, i, kind, key).unwrap();
            if i == ops / 2 {
                // One mid-run checkpoint: folds the WAL into the base file
                // while pins are live (the checkpoint's version-capture
                // path).
                a.checkpoint().unwrap();
            }
            let cur = a.database().commit_lsn();
            if cur > prev {
                let h = fnv(&dump(a.database()));
                let mut rec = recorded.lock().unwrap();
                for l in prev + 1..=cur {
                    rec.insert(l, h);
                }
                prev = cur;
            }
        }
    });
    compared.load(Ordering::Relaxed)
}

/// Tentpole acceptance: ≥ 1000 committed batches with several concurrent
/// snapshot readers, zero divergences from serial re-execution.
#[test]
fn snapshot_readers_match_serial_execution_over_1000_batches() {
    let compared = torture(42, 1000, 3, 8);
    assert!(
        compared >= 30,
        "only {compared} snapshot comparisons — readers never overlapped the writer"
    );
}

/// CI sweep gate: 200 deterministic seeds of shorter runs. Compiled into
/// the failpoints configuration so plain `cargo test` stays fast; the
/// ordered gate in scripts/ci.sh runs it explicitly.
#[test]
#[cfg(feature = "failpoints")]
fn snapshot_sweep_200_seeds() {
    for seed in 0..200 {
        let compared = torture(seed, 25, 2, 5);
        assert!(compared > 0, "seed {seed}: no comparison ever completed");
    }
}

/// Q1-style temporal queries on a frozen snapshot while ingest proceeds:
/// the same XQuery, translated once per view, answers from the pinned
/// commit on the snapshot and from the newest commit on the live store.
#[test]
fn temporal_query_on_snapshot_ignores_concurrent_ingest() {
    let mut a = archis_mem(1);
    a.create_relation(RelationSpec::employee()).unwrap();
    let base_day = Date::parse("1992-01-01").unwrap().day_number();
    a.insert(
        "employee",
        1,
        vec![
            ("name".into(), Value::Str("alice".into())),
            ("salary".into(), Value::Int(5000)),
            ("title".into(), Value::Str("Engineer".into())),
            ("deptno".into(), Value::Str("d001".into())),
        ],
        Date::from_day_number(base_day),
    )
    .unwrap();

    let snap = a.begin_snapshot().unwrap();

    // Concurrent "ingest": a raise lands after the pin.
    a.update(
        "employee",
        1,
        vec![("salary".into(), Value::Int(9000))],
        Date::from_day_number(base_day + 10),
    )
    .unwrap();

    let q = archis::queries::q1_xquery(1, Date::from_day_number(base_day + 20));
    let live = a.query(&q).unwrap();
    let frozen = snap.query(&q).unwrap();
    let render = |r: &sqlxml::QueryResult| {
        r.rows
            .iter()
            .map(|row| format!("{row:?}"))
            .collect::<Vec<_>>()
            .join("|")
    };
    assert!(render(&live).contains("9000"), "{:?}", live.rows);
    assert!(render(&frozen).contains("5000"), "{:?}", frozen.rows);
    assert!(!render(&frozen).contains("9000"), "{:?}", frozen.rows);
}

/// Snapshots pin the last durable commit while the translator reads the
/// live segment catalog, so an archival must be durable before
/// `maybe_archive` returns: otherwise a snapshot begun right after it sits
/// before the archival, the translator restricts Q1 to the new segment,
/// and the snapshot finds nothing there.
#[test]
fn snapshot_after_archival_sees_the_new_segment() {
    let mut a = archis_mem(64);
    a.create_relation(RelationSpec::employee()).unwrap();
    let day = |n: i32| Date::from_day_number(Date::parse("1993-01-01").unwrap().day_number() + n);
    for id in 0..10i64 {
        a.insert(
            "employee",
            id,
            vec![
                ("name".into(), Value::Str(format!("e{id}"))),
                ("salary".into(), Value::Int(1000 + id)),
                ("title".into(), Value::Str("Engineer".into())),
                ("deptno".into(), Value::Str("d001".into())),
            ],
            day(0),
        )
        .unwrap();
    }
    for round in 1..=3i64 {
        for id in 0..10i64 {
            let salary = Value::Int(1000 * (round + 1) + id);
            a.update(
                "employee",
                id,
                vec![("salary".into(), salary)],
                day(10 * round as i32),
            )
            .unwrap();
        }
    }
    // Read-your-writes for the ingest above: the archival below is then
    // the only commit that is not durable unless `maybe_archive` flushes.
    a.database().pool().pager().sync().unwrap();
    assert!(a.maybe_archive("employee", day(40)).unwrap() > 0);

    let snap = a.begin_snapshot().unwrap();
    let q = archis::queries::q1_xquery(3, day(15));
    let sql = a.translate(&q).unwrap();
    assert!(
        sql.contains("segno = 1"),
        "Q1 is restricted to the new segment: {sql}"
    );
    let rows = snap.query(&q).unwrap();
    let render = format!("{:?}", rows.rows);
    assert!(render.contains("2003"), "{render}");
    assert_eq!(rows.rows.len(), 1, "{render}");
}

// ---------------------------------------------------------------------------
// Crash torture: fsync-by-fsync, with readers in flight.
// ---------------------------------------------------------------------------

#[cfg(feature = "failpoints")]
mod crash {
    use super::*;
    use relstore::failpoint::{FailLog, FailPager, Failpoints};

    struct Media {
        fp: Arc<Failpoints>,
        base: Arc<FailPager>,
        log: Arc<FailLog>,
    }

    fn media(seed: u64) -> Media {
        let fp = Failpoints::new(seed);
        let base = Arc::new(FailPager::new(fp.clone(), Arc::new(MemPager::new())));
        let log = Arc::new(FailLog::new(fp.clone(), Arc::new(MemLog::new())));
        Media { fp, base, log }
    }

    fn archis_on(m: &Media, group_commit: usize) -> archis::Result<ArchIS> {
        let pager = Arc::new(WalPager::open(
            m.base.clone(),
            m.log.clone(),
            WalConfig::with_group_commit(group_commit),
        )?);
        let db = Database::open_pool(Arc::new(BufferPool::new(pager, 256)))?;
        ArchIS::open_with_database(db, ArchConfig::default())
    }

    /// Fault-free serial run of `ops` seeded operations; records the dump
    /// at every commit LSN. This is the full oracle: any crashed
    /// concurrent run of the same seed executes a prefix of exactly this
    /// LSN/state sequence (readers never change LSN assignment — pins do
    /// no I/O at all).
    fn shadow(seed: u64, ops: usize, group_commit: usize) -> (BTreeMap<u64, String>, u64) {
        let m = media(0);
        let mut a = archis_on(&m, group_commit).unwrap();
        let mut states = BTreeMap::new();
        // LSN 0 is the fresh, pre-creation store (what recovery yields
        // when the crash beat the first commit).
        states.insert(0u64, String::new());
        a.create_relation(RelationSpec::employee()).unwrap();
        let mut prev = 0u64;
        let mut record = |a: &ArchIS, prev: &mut u64| {
            let cur = a.database().commit_lsn();
            if cur > *prev {
                let d = dump(a.database());
                for l in *prev + 1..=cur {
                    states.insert(l, d.clone());
                }
                *prev = cur;
            }
        };
        record(&a, &mut prev);
        let mut rng = Lcg(seed);
        let mut alive = std::collections::BTreeSet::new();
        for i in 0..ops {
            let kind = rng.next() % 6;
            let key = (rng.next() % 5) as i64;
            writer_op(&a, &mut alive, i, kind, key).unwrap();
            record(&a, &mut prev);
        }
        // Flush the group-commit remainder so the sync count covers the
        // whole workload.
        a.database().pool().pager().sync().unwrap();
        (states, m.fp.syncs())
    }

    /// Reopen crashed media and dump the recovered store.
    fn recovered_dump(m: &Media, group_commit: usize) -> String {
        let pager = Arc::new(
            WalPager::open(
                m.base.clone(),
                m.log.clone(),
                WalConfig::with_group_commit(group_commit),
            )
            .expect("recovery open"),
        );
        let db =
            Database::open_pool(Arc::new(BufferPool::new(pager, 256))).expect("catalog reload");
        dump(&db)
    }

    /// Crash at every fsync boundary while snapshot readers run. Recovery
    /// must land on a state the serial oracle produced, at an LSN at
    /// least as new as every snapshot the store returned before the crash
    /// — pins land on the last durable commit by construction, so no
    /// crash may "unhappen" them.
    #[test]
    fn crash_at_every_fsync_recovers_prefix_covering_returned_snapshots() {
        const SEED: u64 = 7;
        const OPS: usize = 12;
        const GROUP: usize = 2; // >1 so pins trail the newest commit
        let (states, total_syncs) = shadow(SEED, OPS, GROUP);
        assert!(total_syncs > 0);

        for n in 1..=total_syncs {
            let m = media(n);
            m.fp.crash_after_syncs(n);
            // Highest snapshot LSN any reader was ever handed; 0 = none.
            let max_returned = AtomicU64::new(0);
            let done = AtomicBool::new(false);

            let setup = (|| {
                let mut a = archis_on(&m, GROUP)?;
                a.create_relation(RelationSpec::employee())?;
                Ok::<_, archis::ArchError>(a)
            })();

            if let Ok(a) = setup {
                let a = &a;
                let max_returned = &max_returned;
                let done = &done;
                let states = &states;
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(move || {
                            while !done.load(Ordering::Acquire) {
                                // A pin lands on a durable commit, so it
                                // counts as "returned" even if the media dies
                                // before the dump below finishes.
                                let snap = match a.begin_snapshot() {
                                    Ok(s) => s,
                                    Err(_) => break, // media crashed mid-pin
                                };
                                let lsn = snap.commit_lsn();
                                max_returned.fetch_max(lsn, Ordering::Relaxed);
                                let Some(d) = try_dump(snap.database()) else {
                                    break; // media crashed mid-read
                                };
                                assert_eq!(
                                    Some(&d),
                                    states.get(&lsn),
                                    "crash {n}: snapshot at LSN {lsn} diverged from the \
                                     serial oracle"
                                );
                            }
                        });
                    }

                    let mut rng = Lcg(SEED);
                    let mut alive = std::collections::BTreeSet::new();
                    for i in 0..OPS {
                        let kind = rng.next() % 6;
                        let key = (rng.next() % 5) as i64;
                        if writer_op(a, &mut alive, i, kind, key).is_err() {
                            break; // injected crash
                        }
                    }
                    let _ = a.database().pool().pager().sync();
                    done.store(true, Ordering::Release);
                });
            }

            m.fp.revive();
            let got = recovered_dump(&m, GROUP);
            let recovered_lsn = states
                .iter()
                .filter(|(_, v)| **v == got)
                .map(|(k, _)| *k)
                .max()
                .unwrap_or_else(|| {
                    panic!(
                        "crash at fsync {n}/{total_syncs}: recovered a state outside \
                         the serial oracle:\n{got}"
                    )
                });
            let max_ret = max_returned.load(Ordering::Relaxed);
            assert!(
                recovered_lsn >= max_ret,
                "crash at fsync {n}/{total_syncs}: recovery landed at LSN {recovered_lsn}, \
                 older than returned snapshot LSN {max_ret} — a durable pin was lost"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// PR-5 degradation regression: quarantined block vs. open snapshot.
// ---------------------------------------------------------------------------

/// A compressed block that rots *after* a snapshot was pinned: the live
/// query loses the block (quarantined, warned once), while the open
/// snapshot — whose pinned pages still hold the pristine bytes — keeps
/// answering in full. The empty quarantine result must not be cached into
/// the snapshot's read path.
#[test]
fn quarantined_block_read_during_open_snapshot_stays_pristine() {
    let mut a = archis_mem(1);
    a.create_relation(RelationSpec::employee()).unwrap();
    let base_day = Date::parse("1995-01-01").unwrap().day_number();
    for i in 0..40i64 {
        a.insert(
            "employee",
            i,
            vec![
                ("name".into(), Value::Str(format!("e{i}"))),
                ("salary".into(), Value::Int(1000 + i)),
                ("title".into(), Value::Str("Engineer".into())),
                ("deptno".into(), Value::Str("d001".into())),
            ],
            Date::from_day_number(base_day + i as i32),
        )
        .unwrap();
    }
    let end = Date::from_day_number(base_day + 400);
    a.force_archive("employee", end).unwrap();
    a.compress_archived("employee").unwrap();

    let sql = "SELECT id FROM employee_salary";
    let pristine = a.execute_sql(sql).unwrap().rows.len();
    assert!(pristine >= 40, "fixture must have archived salary history");

    // Pin the pristine state, then rot every blob part in the live store:
    // truncated BLOB bytes fail BlockZIP framing, which is the quarantine
    // path (not a fatal error). Evict the warm decompressed blocks so the
    // next live read really hits the damaged bytes.
    let snap = a.begin_snapshot().unwrap();
    let blob = a.database().table("employee_salary_blob").unwrap();
    let damaged = blob
        .update_where(|_| true, |row| row[6] = Value::Blob(vec![0xDE, 0xAD]))
        .unwrap();
    assert!(damaged > 0);
    a.database().commit().unwrap();
    a.compressed_store("employee").unwrap().clear_cache();

    // Live query: the blocks are gone — quarantined, counted, warned.
    let live = a.execute_sql(sql).unwrap().rows.len();
    assert!(
        live < pristine,
        "damaged blocks must drop rows from the live view"
    );
    assert!(a.quarantined_blocks() > 0);
    let warnings = a.take_corruption_warnings();
    assert!(
        warnings.iter().any(|w| w.contains("employee_salary_blob")),
        "{warnings:?}"
    );

    // Snapshot query: same store, same block cache, pinned pages — full
    // pristine answer (the quarantined empty result was *not* cached), and
    // no new quarantines from resolving it.
    let before = a.quarantined_blocks();
    let via_snap = snap.execute_sql(sql).unwrap().rows.len();
    assert_eq!(
        via_snap, pristine,
        "open snapshot must keep serving the pre-damage bytes"
    );
    assert_eq!(a.quarantined_blocks(), before);

    // The quarantine record survives for operators even though the
    // snapshot's pristine decode re-warmed the cache (blocks are
    // immutable, so cached content *is* the block's true content).
    assert!(a.quarantined_blocks() > 0);
}
