//! Randomized planner equivalence: for random histories, random archival
//! points and random storage layouts, the cost-based planner must return
//! exactly what every forced access path returns — the planner is allowed
//! to pick *where* the bytes come from, never *which* bytes come back.
//! Includes pinned MVCC snapshots (the stats catalog at head describes
//! segments the snapshot cannot see; pruning must stay conservative
//! because segment extremes only ever widen), BlockZIP-compressed stores
//! against their uncompressed twins, and the block-touch regressions the
//! compressed read path rests on: a fully-pruned segment contributes zero
//! block reads, a point query one or two blocks, a keyed history at most
//! one per segment, a window only its un-pruned segments' blocks.

use archis::{queries as q, ArchConfig, ArchIS, Change, RelationSpec};
use proptest::prelude::*;
use relstore::pager::MemPager;
use relstore::planner::{set_forced_path, ForcedPath};
use relstore::wal::{MemLog, WalConfig, WalPager};
use relstore::{BufferPool, Database, Value};
use std::sync::{Arc, Mutex};
use temporal::Date;

/// The forced path is process-global; every test here flips it, so
/// they serialize on this lock (a poisoned lock is fine to reuse — the
/// path is always restored to cost mode below).
static PATH_LOCK: Mutex<()> = Mutex::new(());

/// The full path matrix: cost-based (None) first, then every override.
const PATHS: [Option<ForcedPath>; 4] = [
    None,
    Some(ForcedPath::Seq),
    Some(ForcedPath::Index),
    Some(ForcedPath::Cluster),
];

fn day(off: i32) -> Date {
    Date::from_ymd(1990, 1, 1).unwrap() + off
}

#[derive(Debug, Clone)]
enum Ev {
    Hire { id: i64, salary: i64 },
    Raise { id: i64, salary: i64 },
    Fire { id: i64 },
    Archive,
    Vacuum,
}

fn arb_events() -> impl Strategy<Value = Vec<Ev>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (1i64..6, 30_000i64..100_000)
                .prop_map(|(id, salary)| Ev::Hire { id, salary }),
            4 => (1i64..6, 30_000i64..100_000).prop_map(|(id, salary)| Ev::Raise { id, salary }),
            1 => (1i64..6).prop_map(|id| Ev::Fire { id }),
            2 => Just(Ev::Archive),
            1 => Just(Ev::Vacuum),
        ],
        1..40,
    )
}

/// Replay events one day apart onto `a`, starting at `day(base)`; skip
/// the impossible ones. `hired` carries who is currently employed so a
/// second batch can continue where the first left off.
fn replay(a: &ArchIS, events: &[Ev], base: i32, hired: &mut std::collections::HashSet<i64>) {
    for (i, ev) in events.iter().enumerate() {
        let at = day(base + i as i32);
        match ev {
            Ev::Hire { id, salary } => {
                if hired.insert(*id) {
                    a.apply(&Change::Insert {
                        relation: "employee".into(),
                        key: *id,
                        values: vec![
                            ("name".into(), Value::Str(format!("emp{id}"))),
                            ("salary".into(), Value::Int(*salary)),
                            ("title".into(), Value::Str("Engineer".into())),
                            ("deptno".into(), Value::Str(format!("d{:02}", id % 3))),
                        ],
                        at,
                    })
                    .expect("hire");
                }
            }
            Ev::Raise { id, salary } => {
                if hired.contains(id) {
                    a.apply(&Change::Update {
                        relation: "employee".into(),
                        key: *id,
                        changes: vec![("salary".into(), Value::Int(*salary))],
                        at,
                    })
                    .expect("raise");
                }
            }
            Ev::Fire { id } => {
                if hired.remove(id) {
                    a.apply(&Change::Delete {
                        relation: "employee".into(),
                        key: *id,
                        at,
                    })
                    .expect("fire");
                }
            }
            Ev::Archive => {
                a.force_archive("employee", at).expect("archive");
            }
            Ev::Vacuum => {
                a.vacuum_relation("employee").expect("vacuum");
            }
        }
    }
}

fn build(events: &[Ev], clustered: bool) -> ArchIS {
    let config = if clustered {
        ArchConfig::atlas_like()
    } else {
        ArchConfig::db2_like()
    };
    let mut a = ArchIS::new(config.with_umin(0.5));
    a.create_relation(RelationSpec::employee()).unwrap();
    replay(&a, events, 0, &mut std::collections::HashSet::new());
    a
}

/// One canonical string per query result. Every query below carries a
/// total ORDER BY (or is a scalar), so equal strings mean byte-identical
/// results — row order included.
fn render(out: sqlxml::QueryResult) -> String {
    let xml = out.xml_fragments().join("\n");
    let rows = out
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.render()).collect::<Vec<_>>().join("|"))
        .collect::<Vec<_>>()
        .join("\n");
    format!("{xml}\n--\n{rows}")
}

/// [`render`] up to row order: the XML fragments and the rows, each
/// sorted — the comparison for queries without a total ORDER BY.
fn render_unordered(out: sqlxml::QueryResult) -> String {
    let mut xml = out.xml_fragments();
    xml.sort();
    let mut rows: Vec<String> = out
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.render()).collect::<Vec<_>>().join("|"))
        .collect();
    rows.sort();
    format!("{}\n--\n{}", xml.join("\n"), rows.join("\n"))
}

/// An ArchIS on a WAL pager over memory — the MVCC machinery pins a
/// commit LSN in the log, so snapshots need one.
fn wal_archis() -> ArchIS {
    let pager = Arc::new(
        WalPager::open(
            Arc::new(MemPager::new()),
            Arc::new(MemLog::new()),
            WalConfig::with_group_commit(1),
        )
        .expect("wal pager"),
    );
    let db = Database::open_pool(Arc::new(BufferPool::new(pager, 512))).expect("db");
    let mut a =
        ArchIS::open_with_database(db, ArchConfig::db2_like().with_umin(0.5)).expect("open");
    a.create_relation(RelationSpec::employee())
        .expect("relation");
    a
}

/// The query families of the paper's workload, each with a total order so
/// access path cannot leak into row order: snapshot, keyed history,
/// window, join, and the segno-range shape the adversarial test uses.
fn query_suite(probe: Date, lo: Date, hi: Date, key: i64) -> Vec<(bool, String)> {
    vec![
        (
            false,
            r#"count(for $s in doc("employees.xml")/employees/employee/salary return $s)"#
                .to_string(),
        ),
        (
            false,
            format!(
                r#"avg(for $s in doc("employees.xml")/employees/employee/salary
                       [tstart(.) <= xs:date("{probe}") and tend(.) >= xs:date("{probe}")]
                   return number($s))"#
            ),
        ),
        (
            false,
            format!(
                r#"count(distinct-values(
                     for $e in doc("employees.xml")/employees/employee
                     for $s in $e/salary[. > 50000 and
                         toverlaps(., telement(xs:date("{lo}"), xs:date("{hi}")))]
                     return $e/id))"#
            ),
        ),
        (
            true,
            format!(
                "select s.id, s.salary, s.tstart, s.tend from employee_salary s \
                 where s.tstart <= '{probe}' and s.tend >= '{probe}' \
                 order by s.id, s.tstart, s.salary, s.tend"
            ),
        ),
        (
            true,
            format!(
                "select s.salary, s.tstart, s.tend from employee_salary s \
                 where s.id = {key} order by s.tstart, s.salary, s.tend"
            ),
        ),
        (
            true,
            format!(
                "select n.id, n.name, s.salary from employee_name n, employee_salary s \
                 where n.id = s.id and s.tstart <= '{probe}' and s.tend >= '{probe}' \
                 order by n.id, s.tstart, s.salary"
            ),
        ),
        (
            true,
            "select s.id, s.tstart, s.salary from employee_salary s \
             where s.segno >= 1 order by s.id, s.tstart, s.salary"
                .to_string(),
        ),
    ]
    .into_iter()
    .chain(point_suite(key).into_iter().map(|sql| (true, sql)))
    .collect()
}

/// Algorithm 1's single-object shapes: the constant sits on the key table
/// only, so the attribute table is bound through equality closure, and
/// together with a segment restriction through a composite key.
fn point_suite(key: i64) -> Vec<String> {
    let live = archis::htable::LIVE_SEGNO;
    let select = "select s.segno, s.salary, s.tstart, s.tend \
                  from employee_id k, employee_salary s where";
    let order = "order by s.segno, s.tstart, s.salary, s.tend";
    vec![
        // closure → by_id
        format!("{select} k.id = {key} and k.id = s.id {order}"),
        // closure + segment equality → (segno, id) point
        format!("{select} k.id = {key} and k.id = s.id and s.segno = 1 {order}"),
        format!("{select} {key} = k.id and s.id = k.id and s.segno = {live} {order}"),
        // a segment range ends the key prefix; the id still filters
        format!("{select} k.id = {key} and k.id = s.id and s.segno >= 1 and s.segno <= 2 {order}"),
        // equality prefix + range on the next key column
        format!(
            "select s.id, s.salary, s.tstart from employee_salary s \
             where s.segno = 1 and s.id >= {key} and s.id < {} \
             order by s.id, s.tstart, s.salary",
            key + 2
        ),
        // the constant travels across two joins
        format!(
            "select n.name, s.salary, s.tstart from employee_id k, employee_name n, \
             employee_salary s where k.id = {key} and k.id = n.id and n.id = s.id \
             order by s.tstart, s.salary, n.tstart, s.segno"
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Heap and clustered layouts, every query family, every forced path:
    /// the cost-based plan's bytes are the reference, the other three must
    /// match them exactly.
    #[test]
    fn forced_paths_agree_with_cost_based_plans(
        events in arb_events(),
        clustered in any::<bool>(),
        probe_day in 0i32..45,
        lo in 0i32..40,
        len in 1i32..20,
        key in 1i64..6,
    ) {
        let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = build(&events, clustered);
        for (is_sql, text) in query_suite(day(probe_day), day(lo), day(lo + len), key) {
            let mut outputs = Vec::new();
            for path in PATHS {
                set_forced_path(path);
                let out = if is_sql { a.execute_sql(&text) } else { a.query(&text) };
                set_forced_path(None);
                outputs.push(render(out.expect("query")));
            }
            for (i, o) in outputs.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    &outputs[0], o,
                    "path {:?} diverges from the cost-based plan on {}",
                    PATHS[i], text
                );
            }
        }
    }

    /// The compressed table-function paths (core::planner) under the same
    /// matrix: Q1/Q3/Q4/Q5/Q6 answers are path-invariant.
    #[test]
    fn compressed_paths_agree_across_forced_paths(
        events in arb_events(),
        probe_day in 0i32..45,
        lo in 0i32..40,
        len in 1i32..20,
        key in 1i64..6,
    ) {
        let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut a = build(&events, false);
        a.compress_archived("employee").expect("compress");
        let Some(store) = a.compressed_store("employee") else { return Ok(()) };
        let (probe, d1, d2) = (day(probe_day), day(lo), day(lo + len));
        let mut answers = Vec::new();
        for path in PATHS {
            set_forced_path(path);
            let ans = (
                q::q1_compressed(&a, store, key, probe).expect("q1"),
                q::q3_compressed(&a, store, key).expect("q3"),
                q::q4_compressed(&a, store).expect("q4"),
                q::q5_compressed(&a, store, 50_000, d1, d2).expect("q5"),
                q::q6_compressed(&a, store, d1, d2).expect("q6"),
            );
            set_forced_path(None);
            answers.push(ans);
        }
        for (i, a) in answers.iter().enumerate().skip(1) {
            prop_assert_eq!(&answers[0], a, "path {:?} diverges", PATHS[i]);
        }
    }

    /// The same single-object shapes through the general path on a
    /// compressed store (archived rows come from the uncompression
    /// override; derived predicates filter them like any other).
    #[test]
    fn point_queries_agree_on_compressed_stores(
        events in arb_events(),
        key in 1i64..6,
    ) {
        let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut a = build(&events, false);
        let plain: Vec<String> = point_suite(key)
            .iter()
            .map(|sql| render(a.execute_sql(sql).expect("plain")))
            .collect();
        a.compress_archived("employee").expect("compress");
        for (sql, want) in point_suite(key).iter().zip(&plain) {
            for path in PATHS {
                set_forced_path(path);
                let out = a.execute_sql(sql);
                set_forced_path(None);
                prop_assert_eq!(
                    want, &render(out.expect("compressed")),
                    "path {:?} on the compressed store diverges on {}", path, sql
                );
            }
        }
    }

    /// Pinned MVCC snapshots: after the snapshot is taken, the head keeps
    /// mutating — more events, another archival, a vacuum — so the stats
    /// catalog the planner consults describes a *newer* world than the
    /// snapshot sees. Pruning must stay conservative (segment extremes
    /// only ever widen), so every path still returns identical bytes.
    #[test]
    fn pinned_snapshot_agrees_across_paths(
        pre in arb_events(),
        post in arb_events(),
        probe_day in 0i32..45,
        key in 1i64..6,
    ) {
        let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = wal_archis();
        let mut hired = std::collections::HashSet::new();
        replay(&a, &pre, 0, &mut hired);
        let snap = a.begin_snapshot().expect("snapshot");
        replay(&a, &post, 50, &mut hired);
        a.force_archive("employee", day(120)).expect("head archive");
        let probe = day(probe_day);
        for (is_sql, text) in query_suite(probe, probe, probe + 10, key) {
            let mut outputs = Vec::new();
            for path in PATHS {
                set_forced_path(path);
                let out = if is_sql { snap.execute_sql(&text) } else { snap.query(&text) };
                set_forced_path(None);
                outputs.push(render(out.expect("snapshot query")));
            }
            for (i, o) in outputs.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    &outputs[0], o,
                    "path {:?} diverges on the pinned snapshot for {}",
                    PATHS[i], text
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A compressed store answers every query family exactly like its
    /// uncompressed twin — through `ArchIS::query` / `execute_sql`, under
    /// every forced path, at head and on a snapshot pinned after
    /// compression. The twins share a history that ends in an archival;
    /// one is compressed, then both take a raise dated the day after that
    /// archival (the closed period moves into the compressed segment's
    /// table copy, beside its blocks) and keep ingesting and archiving.
    /// Ordered and aggregate answers must be byte-identical, the rest equal
    /// as row multisets.
    #[test]
    fn compressed_store_answers_like_its_uncompressed_twin(
        pre in arb_events(),
        post in arb_events(),
        probe_day in 0i32..80,
        lo in 0i32..70,
        len in 1i32..30,
        key in 1i64..6,
    ) {
        let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut twins = [wal_archis(), wal_archis()];
        let mut hired = [std::collections::HashSet::new(), std::collections::HashSet::new()];
        let archived_at = pre.len() as i32;
        for (a, hired) in twins.iter().zip(hired.iter_mut()) {
            replay(a, &pre, 0, hired);
            a.force_archive("employee", day(archived_at)).expect("archive");
        }
        twins[1].compress_archived("employee").expect("compress");
        let raise = hired[0].iter().min().map(|&id| Ev::Raise { id, salary: 12_345 });
        for (a, hired) in twins.iter().zip(hired.iter_mut()) {
            replay(a, raise.as_slice(), archived_at + 1, hired);
            a.database().pool().pager().sync().expect("sync");
        }
        let snaps = [
            twins[0].begin_snapshot().expect("snapshot"),
            twins[1].begin_snapshot().expect("snapshot"),
        ];
        for (a, hired) in twins.iter().zip(hired.iter_mut()) {
            replay(a, &post, archived_at + 2, hired);
        }
        let (probe, d1, d2) = (day(probe_day), day(lo), day(lo + len));
        let ordered = query_suite(probe, d1, d2, key).into_iter().map(|(sql, q)| (sql, true, q));
        let unordered = [q::q1_xquery(key, probe), q::q3_xquery(key), q::q6_xquery(d1, d2)]
            .into_iter()
            .map(|q| (false, false, q));
        let queries: Vec<(bool, bool, String)> = ordered.chain(unordered).collect();
        for (is_sql, total, text) in &queries {
            let show = |out: archis::Result<sqlxml::QueryResult>| {
                let out = out.expect("query");
                if *total { render(out) } else { render_unordered(out) }
            };
            for path in PATHS {
                set_forced_path(path);
                let [plain, zipped, plain_snap, zipped_snap] = if *is_sql {
                    [
                        twins[0].execute_sql(text),
                        twins[1].execute_sql(text),
                        snaps[0].execute_sql(text),
                        snaps[1].execute_sql(text),
                    ]
                } else {
                    [
                        twins[0].query(text),
                        twins[1].query(text),
                        snaps[0].query(text),
                        snaps[1].query(text),
                    ]
                };
                set_forced_path(None);
                prop_assert_eq!(
                    show(plain), show(zipped),
                    "path {:?}: the compressed store diverges on {}", path, text
                );
                prop_assert_eq!(
                    show(plain_snap), show(zipped_snap),
                    "path {:?}: the compressed snapshot diverges on {}", path, text
                );
            }
        }
        // A second, incremental pass compresses what `post` archived; the
        // moved row stays in the table copy of its compressed segment.
        drop(snaps);
        twins[1].compress_archived("employee").expect("second pass");
        for (is_sql, total, text) in &queries {
            let run = |a: &ArchIS| {
                let out = if *is_sql { a.execute_sql(text) } else { a.query(text) };
                let out = out.expect("query");
                if *total { render(out) } else { render_unordered(out) }
            };
            prop_assert_eq!(
                run(&twins[0]), run(&twins[1]),
                "the twice-compressed store diverges on {}", text
            );
        }
    }
}

/// Every id of a store large enough that its indexes have split — so some
/// probed keys are the separators between B+tree leaves, first or last on
/// their page — including ids that exist only in archived segments (fired
/// before the archival) and only in the live one (hired after it): the
/// point plans must return what every forced path returns.
#[test]
fn point_plans_agree_for_every_key_of_a_split_index() {
    let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const IDS: i64 = 260;
    for clustered in [false, true] {
        let mut events = Vec::new();
        for id in 1..=IDS {
            events.push(Ev::Hire {
                id: 1000 + id,
                salary: 40_000 + id,
            });
        }
        for id in 1..=IDS {
            events.push(Ev::Raise {
                id: 1000 + id,
                salary: 50_000 + id,
            });
            if id % 9 == 0 {
                events.push(Ev::Fire { id: 1000 + id });
            }
        }
        events.push(Ev::Archive);
        for id in 1..=IDS {
            if id % 2 == 0 {
                events.push(Ev::Raise {
                    id: 1000 + id,
                    salary: 60_000 + id,
                });
            }
        }
        for id in IDS + 1..=IDS + 20 {
            events.push(Ev::Hire {
                id: 1000 + id,
                salary: 45_000,
            });
        }
        let a = build(&events, clustered);
        let t = a.database().table("employee_salary").unwrap();
        assert!(
            t.page_count().unwrap() > t.base_page_count().unwrap() + 6,
            "indexes must have split"
        );
        for id in 1001..=1000 + IDS + 20 {
            for sql in point_suite(id).iter().take(3) {
                let mut outputs = Vec::new();
                for path in PATHS {
                    set_forced_path(path);
                    let out = a.execute_sql(sql);
                    set_forced_path(None);
                    outputs.push(render(out.expect("query")));
                }
                for (i, o) in outputs.iter().enumerate().skip(1) {
                    assert_eq!(&outputs[0], o, "path {:?} diverges on {sql}", PATHS[i]);
                }
            }
        }
        // The sweep did exercise the point plans, and they found rows.
        relstore::planner::take_plan_log();
        let hit = a
            .execute_sql(&point_suite(1009)[1])
            .expect("archived-only id");
        assert_eq!(
            hit.rows.len(),
            2,
            "fired before the archival: two archived periods"
        );
        let log = relstore::planner::explain(&relstore::planner::take_plan_log());
        let point = if clustered {
            "cluster(segno,id)"
        } else {
            "index(employee_salary_by_seg)"
        };
        assert!(log.contains(point), "{log}");
    }
}

/// Fixture with a *dead era*: rows exist only in 1990, everyone is gone by
/// 1991, but the segment archived at the end of 1999 has a catalog
/// interval stretching across the whole decade. Interval-only planning
/// must read it for a mid-decade snapshot; the stats catalog proves it
/// holds nothing.
fn dead_era_archis() -> ArchIS {
    let mut a = ArchIS::new(ArchConfig::db2_like());
    a.create_relation(RelationSpec::employee()).unwrap();
    let d = |s: &str| Date::parse(s).unwrap();
    for id in 1..=8i64 {
        a.insert(
            "employee",
            id,
            vec![
                ("name".into(), Value::Str(format!("emp{id}"))),
                ("salary".into(), Value::Int(40_000 + id)),
                ("title".into(), Value::Str("Engineer".into())),
                ("deptno".into(), Value::Str("d01".into())),
            ],
            d("1990-01-01"),
        )
        .unwrap();
        a.update(
            "employee",
            id,
            vec![("salary".into(), Value::Int(41_000 + id))],
            d("1990-06-01"),
        )
        .unwrap();
        a.delete("employee", id, d("1991-01-01")).unwrap();
    }
    a.force_archive("employee", d("1999-12-31")).unwrap();
    a
}

/// The pruning I/O claim, measured exactly: a snapshot into the dead era
/// plans zero segments, so the compressed store decompresses **zero
/// blocks** — not "fewer", zero. The control reads the covering segment
/// the catalog interval alone would have sent it to: there are blocks
/// there to touch.
#[test]
fn fully_pruned_snapshot_decompresses_zero_blocks() {
    let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut a = dead_era_archis();
    a.compress_archived("employee").expect("compress");
    let store = a.compressed_store("employee").expect("store");
    let probe = Date::parse("1995-06-01").unwrap();

    store.reset_stats();
    let avg = q::q2_compressed(&a, store, probe).expect("q2");
    assert_eq!(avg, 0.0, "the era is dead — nobody is employed");
    assert_eq!(
        store.blocks_read(),
        0,
        "a fully-pruned snapshot must not decompress any block"
    );
    let (hits, misses) = store.cache_stats();
    assert_eq!((hits, misses), (0, 0), "nor even touch the block cache");

    // The general path prunes the same way: the translated `segno = -1`
    // bounds the block scan to no segment at all.
    let general = a.query(&q::q2_xquery(probe)).expect("general path");
    assert_eq!(general.rows.len(), 1, "one (empty) average");
    assert_eq!(
        store.cache_stats(),
        (0, 0),
        "the general path must not touch a block either"
    );

    let segs = a.segments_of("employee", "salary").expect("segments");
    let covering = segs.iter().find(|s| s.start <= probe && probe <= s.end);
    let covering = covering.expect("an archived segment's interval covers the probe");
    store.reset_stats();
    let rows = store
        .scan_segment(a.database(), "salary", covering.segno)
        .expect("scan covering segment");
    assert_eq!(rows.len(), 16, "two periods for each of eight employees");
    // The compression pass itself warms the block cache, so the control
    // may be served by hits — but it must *touch* blocks either way.
    let (hits, misses) = store.cache_stats();
    assert!(store.blocks_read() + hits + misses > 0);
}

/// Four yearly archived segments of 48 employees — a salary raise or a
/// title change every few months each — compressed into small blocks, and
/// a live year on top.
fn yearly_compressed_archis() -> ArchIS {
    let d = |y: i32, m: u32| Date::from_ymd(y, m, 1).unwrap();
    let config = ArchConfig {
        block_size: 800,
        ..ArchConfig::db2_like()
    };
    let mut a = ArchIS::new(config);
    a.create_relation(RelationSpec::employee()).unwrap();
    for id in 1..=48i64 {
        a.insert(
            "employee",
            id,
            vec![
                ("name".into(), Value::Str(format!("emp{id}"))),
                ("salary".into(), Value::Int(40_000 + id)),
                ("title".into(), Value::Str("Engineer".into())),
                ("deptno".into(), Value::Str(format!("d{:02}", id % 4))),
            ],
            d(1990, 1),
        )
        .unwrap();
    }
    for year in 1990..=1994 {
        for month in 2..=12u32 {
            for id in 1..=48i64 {
                let step = id + month as i64;
                let mut changes = Vec::new();
                if step % 3 == 0 {
                    changes.push(("salary".into(), Value::Int(40_000 + id * 10 + step)));
                }
                if step % 5 == 0 {
                    changes.push(("title".into(), Value::Str(format!("T{year}-{month}"))));
                }
                if !changes.is_empty() {
                    a.update("employee", id, changes, d(year, month)).unwrap();
                }
            }
        }
        if year < 1994 {
            a.force_archive("employee", Date::from_ymd(year, 12, 31).unwrap())
                .unwrap();
        }
    }
    a.compress_archived("employee").unwrap();
    a
}

/// Block touches (block-cache hits + misses) of one query through
/// `ArchIS::query`, checked against the query's EXPLAIN block entries.
fn block_touches(a: &ArchIS, xquery: &str) -> u64 {
    let store = a.compressed_store("employee").expect("store");
    relstore::planner::take_plan_log();
    let (h0, m0) = store.cache_stats();
    a.query(xquery).expect("query");
    let (h1, m1) = store.cache_stats();
    let explained: f64 = relstore::planner::take_plan_log()
        .iter()
        .filter(|e| e.path.starts_with("blocks("))
        .map(|e| e.est_pages)
        .sum();
    let touched = h1 + m1 - h0 - m0;
    assert_eq!(touched as f64, explained, "EXPLAIN counts the blocks read");
    touched
}

/// Fig. 14's claim as block counts through the general path: on a
/// compressed store a point snapshot (Q1) touches one block — two when
/// the key's rows straddle a block boundary — a keyed history (Q3) at
/// most one per compressed segment plus such a spill, and a window that
/// is not one of Q1–Q6 only the blocks of the segment its time restriction
/// leaves, never the whole store.
#[test]
fn compressed_queries_touch_only_the_blocks_their_bounds_select() {
    let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = yearly_compressed_archis();
    let store = a.compressed_store("employee").expect("store");
    let segments = store.segment_ranges("salary").expect("salary segments");
    assert_eq!(segments.len(), 4, "{segments:?}");
    let total = store.block_count() as u64;
    for key in [1, 17, 30, 48] {
        for probe in ["1990-06-15", "1991-03-01", "1992-12-31", "1993-07-04"] {
            let probe = Date::parse(probe).unwrap();
            let touched = block_touches(&a, &q::q1_xquery(key, probe));
            assert!(
                (1..=2).contains(&touched),
                "Q1({key}, {probe}) touched {touched} blocks"
            );
        }
        // In the live year no compressed block is needed at all.
        let live = Date::parse("1994-06-15").unwrap();
        assert_eq!(block_touches(&a, &q::q1_xquery(key, live)), 0);
        let touched = block_touches(&a, &q::q3_xquery(key));
        assert!(
            touched <= segments.len() as u64 + 1,
            "Q3({key}) touched {touched} blocks over {} segments",
            segments.len()
        );
    }

    // A title history over most of 1992: the translator restricts it to
    // the 1992 segment, and only that segment's blocks are read.
    let window = r#"for $t in doc("employees.xml")/employees/employee/title
                        [toverlaps(., telement(xs:date("1992-02-01"), xs:date("1992-11-30")))]
                    return $t"#;
    let sql = a.translate(window).expect("translate");
    let segs = a.segments_of("employee", "title").expect("segments");
    let in_1992 = segs
        .iter()
        .find(|s| {
            s.start <= Date::parse("1992-06-01").unwrap()
                && s.end >= Date::parse("1992-06-01").unwrap()
        })
        .expect("an archived 1992 segment");
    assert!(
        sql.contains(&format!(".segno = {}", in_1992.segno)),
        "{sql}"
    );
    let (_, lo, hi) = store
        .segment_ranges("title")
        .expect("title segments")
        .into_iter()
        .find(|(s, _, _)| *s == in_1992.segno)
        .expect("the 1992 segment is compressed");
    let touched = block_touches(&a, window);
    assert!(touched >= 1, "the window has rows in 1992");
    assert!(
        touched <= (hi - lo + 1) as u64,
        "the window touched {touched} blocks; its segment has {}",
        hi - lo + 1
    );
    assert!(touched * 3 < total, "{touched} of {total} blocks");
}

/// The same claim at the buffer-pool level ([`relstore::IoStats`]): the
/// translated dead-era snapshot is restricted to no segment at all and
/// must do strictly less I/O than what the catalog interval alone leads
/// to — the covering segment, walked through its index — cold cache on
/// both sides.
#[test]
fn stats_pruning_cuts_pool_reads_on_dead_era_snapshot() {
    let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = dead_era_archis();
    let pruned_sql = a
        .translate(&q::q2_xquery(Date::parse("1995-06-01").unwrap()))
        .expect("translate");
    assert!(pruned_sql.contains(".segno = -1"), "{pruned_sql}");
    let interval_only_sql = pruned_sql.replace(".segno = -1", ".segno = 1");
    let pool = a.database().pool();

    let cold_run = |sql: &str, path: Option<ForcedPath>| {
        set_forced_path(path);
        pool.flush_all().expect("flush");
        pool.reset_stats();
        let out = a.execute_sql(sql).expect("query");
        set_forced_path(None);
        (render(out), pool.stats())
    };

    let (pruned_out, pruned) = cold_run(&pruned_sql, None);
    let (control_out, control) = cold_run(&interval_only_sql, Some(ForcedPath::Index));
    assert_eq!(
        pruned_out, control_out,
        "pruning must not change the answer"
    );
    assert!(
        pruned.physical_reads < control.physical_reads,
        "pruned {} >= interval-only {} physical reads",
        pruned.physical_reads,
        control.physical_reads
    );
    assert!(
        pruned.logical_reads < control.logical_reads,
        "pruned {} >= interval-only {} logical reads",
        pruned.logical_reads,
        control.logical_reads
    );
}

/// An instance built to punish selectivity-blind access-path choice:
///
/// * a **dead era** — everyone hired in 1985 is gone by 1990, but the
///   first archived segment's catalog interval stretches to 1994, so an
///   interval-only snapshot inside 1990–1994 scans the whole segment
///   while the statistics prove it holds nothing;
/// * a second archived generation (1995–1999) and a live tail (2000+), so
///   unselective range predicates (`id >= 0`, `segno >= 1`) span enough
///   rows that an index walk costs far more page requests than one
///   sequential pass.
fn adversarial_archis(n: i64) -> ArchIS {
    let d = |s: &str| Date::parse(s).expect("valid date");
    let mut a = ArchIS::new(ArchConfig::db2_like().with_now(d("2005-01-01")));
    a.create_relation(RelationSpec::employee()).unwrap();
    let hire = |a: &ArchIS, id: i64, at: &str, salary: i64| {
        a.insert(
            "employee",
            id,
            vec![
                ("name".into(), Value::Str(format!("emp-{id:05}"))),
                ("salary".into(), Value::Int(salary)),
                ("title".into(), Value::Str("Engineer".into())),
                ("deptno".into(), Value::Str(format!("d{:02}", id % 10))),
            ],
            d(at),
        )
        .unwrap();
    };
    // First generation: hired 1985, raises through 1989, all gone by 1990.
    for id in 1..=n {
        hire(&a, id, "1985-03-01", 40_000 + id);
    }
    for year in 1986..=1989 {
        for id in 1..=n {
            a.update(
                "employee",
                id,
                vec![(
                    "salary".into(),
                    Value::Int(40_000 + id + (year - 1985) * 1_000),
                )],
                d(&format!("{year}-02-01")),
            )
            .unwrap();
        }
    }
    for id in 1..=n {
        a.delete("employee", id, d("1990-01-01")).unwrap();
    }
    // Archive well past the last death: segment 1's interval covers the
    // 1990-1994 era even though no row inside survives past 1989.
    a.force_archive("employee", d("1994-12-31")).unwrap();
    // Second generation: rehired 1995, raises through 1999, archived.
    for id in 1..=n {
        hire(&a, id + n, "1995-03-01", 60_000 + id);
    }
    for year in 1996..=1999 {
        for id in 1..=n {
            a.update(
                "employee",
                id + n,
                vec![(
                    "salary".into(),
                    Value::Int(60_000 + id + (year - 1995) * 1_000),
                )],
                d(&format!("{year}-02-01")),
            )
            .unwrap();
        }
    }
    a.force_archive("employee", d("1999-12-31")).unwrap();
    // A live tail so the LIVE segment is non-trivial.
    for id in 1..=n {
        a.update(
            "employee",
            id + n,
            vec![("salary".into(), Value::Int(70_000 + id))],
            d("2000-02-01"),
        )
        .unwrap();
    }
    a
}

/// The planner never loses where a fixed choice does. On the adversarial
/// store, in buffer-pool logical reads (a deterministic I/O proxy), every
/// cost-based plan is within 5 % of the cheapest forced path and at least
/// 2× below the query's trap — the forced path a selectivity-blind chooser
/// would have taken.
#[test]
fn cost_based_plans_never_lose_on_the_adversarial_store() {
    let _g = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const N: i64 = 300;
    let a = adversarial_archis(N);
    let live = archis::htable::LIVE_SEGNO;
    let mid = N + 4; // a second-generation, still-live id
    let a1 = a
        .translate(&q::q2_xquery(Date::parse("1992-06-01").unwrap()))
        .expect("translate");
    assert!(a1.contains(".segno = -1"), "dead era is pruned: {a1}");
    // A1's trap is what the catalog interval alone leads to: the covering
    // segment, walked by index.
    let a1_trap = a1.replace(".segno = -1", ".segno = 1");
    let a2 = "select s.id, s.salary from employee_salary s where s.id >= 0";
    let a3 = "select s.id, s.salary from employee_salary s where s.segno >= 1";
    let a4 =
        format!("select s.salary from employee_salary s where s.segno = {live} and s.id = {mid}");
    // (label, query, trap query, trap path)
    let queries = [
        (
            "A1 dead-era snapshot",
            a1.as_str(),
            a1_trap.as_str(),
            ForcedPath::Index,
        ),
        ("A2 id>=0 index trap", a2, a2, ForcedPath::Index),
        ("A3 segno>=1 range trap", a3, a3, ForcedPath::Index),
        (
            "A4 eq-order trap",
            a4.as_str(),
            a4.as_str(),
            ForcedPath::Seq,
        ),
    ];
    let pool = a.database().pool();
    let pages = |sql: &str, path: Option<ForcedPath>| {
        set_forced_path(path);
        pool.flush_all().expect("flush");
        pool.reset_stats();
        let out = a.execute_sql(sql);
        set_forced_path(None);
        out.expect("query");
        pool.stats().logical_reads
    };
    for (label, sql, trap_sql, trap_path) in queries {
        let cost = pages(sql, None);
        let best = PATHS[1..].iter().map(|&p| pages(sql, p)).min().unwrap();
        assert!(
            cost as f64 <= best as f64 * 1.05,
            "{label}: cost-based plan reads {cost} pages, best forced path {best}"
        );
        let trap = pages(trap_sql, Some(trap_path));
        assert!(
            cost * 2 <= trap,
            "{label}: cost-based plan reads {cost} pages, the trap only {trap}"
        );
    }
    // `segno = -1` names no segment, so it bounds the access path: the
    // dead-era snapshot reads index descents, not the table.
    let a1_cost = pages(&a1, None);
    assert!(
        a1_cost <= 10,
        "A1 dead-era snapshot: cost-based plan reads {a1_cost} pages"
    );
}
