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
use relstore::planner::ForcedPath;
use relstore::wal::{MemLog, WalConfig, WalPager};
use relstore::{BufferPool, Database, Value};
use std::sync::Arc;
use temporal::Date;

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

/// The SQL a query runs as: `text` itself, or the XQuery translated by
/// `a` (what `ArchIS::query` and `ArchSnapshot::query` run), so it can be
/// executed on a forced path.
fn to_sql(a: &ArchIS, is_sql: bool, text: &str) -> String {
    if is_sql {
        text.to_string()
    } else {
        a.translate(text).expect("translate")
    }
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
        let a = build(&events, clustered);
        for (is_sql, text) in query_suite(day(probe_day), day(lo), day(lo + len), key) {
            let sql = to_sql(&a, is_sql, &text);
            let mut outputs = Vec::new();
            for path in PATHS {
                let out = a.execute_sql_on_path(&sql, path);
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

    /// The same single-object shapes through the general path on a
    /// compressed store (archived rows come from the block scan; derived
    /// predicates filter them like any other).
    #[test]
    fn point_queries_agree_on_compressed_stores(
        events in arb_events(),
        key in 1i64..6,
    ) {
        let mut a = build(&events, false);
        let plain: Vec<String> = point_suite(key)
            .iter()
            .map(|sql| render(a.execute_sql(sql).expect("plain")))
            .collect();
        a.compress_archived("employee").expect("compress");
        for (sql, want) in point_suite(key).iter().zip(&plain) {
            for path in PATHS {
                let out = a.execute_sql_on_path(sql, path);
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
        let a = wal_archis();
        let mut hired = std::collections::HashSet::new();
        replay(&a, &pre, 0, &mut hired);
        let snap = a.begin_snapshot().expect("snapshot");
        replay(&a, &post, 50, &mut hired);
        a.force_archive("employee", day(120)).expect("head archive");
        let probe = day(probe_day);
        for (is_sql, text) in query_suite(probe, probe, probe + 10, key) {
            let sql = to_sql(&a, is_sql, &text);
            let mut outputs = Vec::new();
            for path in PATHS {
                let out = snap.execute_sql_on_path(&sql, path);
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
            let sql = [to_sql(&twins[0], *is_sql, text), to_sql(&twins[1], *is_sql, text)];
            for path in PATHS {
                let [plain, zipped, plain_snap, zipped_snap] = [
                    twins[0].execute_sql_on_path(&sql[0], path),
                    twins[1].execute_sql_on_path(&sql[1], path),
                    snaps[0].execute_sql_on_path(&sql[0], path),
                    snaps[1].execute_sql_on_path(&sql[1], path),
                ];
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
                    let out = a.execute_sql_on_path(sql, path);
                    outputs.push(render(out.expect("query")));
                }
                for (i, o) in outputs.iter().enumerate().skip(1) {
                    assert_eq!(&outputs[0], o, "path {:?} diverges on {sql}", PATHS[i]);
                }
            }
        }
        // The sweep did exercise the point plans, and they found rows.
        let hit = a
            .execute_sql(&point_suite(1009)[1])
            .expect("archived-only id");
        assert_eq!(
            hit.rows.len(),
            2,
            "fired before the archival: two archived periods"
        );
        let log = relstore::planner::explain(&hit.plan);
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
    let mut a = dead_era_archis();
    a.compress_archived("employee").expect("compress");
    let store = a.compressed_store("employee").expect("store");
    let probe = Date::parse("1995-06-01").unwrap();

    // The translated `segno = -1` bounds the block scan to no segment at
    // all.
    store.reset_stats();
    let avg = a.query(&q::q2_xquery(probe)).expect("q2");
    let avg = avg.scalar_rows().expect("scalar");
    assert_eq!(avg.len(), 1, "one average");
    assert_eq!(
        avg[0][0].as_f64(),
        None,
        "the era is dead — nobody is employed"
    );
    assert_eq!(
        store.blocks_read(),
        0,
        "a fully-pruned snapshot must not decompress any block"
    );
    assert_eq!(
        store.cache_stats(),
        (0, 0),
        "nor even touch the block cache"
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
    let (h0, m0) = store.cache_stats();
    let out = a.query(xquery).expect("query");
    let (h1, m1) = store.cache_stats();
    let explained: f64 = out
        .plan
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
    let a = dead_era_archis();
    let pruned_sql = a
        .translate(&q::q2_xquery(Date::parse("1995-06-01").unwrap()))
        .expect("translate");
    assert!(pruned_sql.contains(".segno = -1"), "{pruned_sql}");
    let interval_only_sql = pruned_sql.replace(".segno = -1", ".segno = 1");
    let pool = a.database().pool();

    let cold_run = |sql: &str, path: Option<ForcedPath>| {
        pool.flush_all().expect("flush");
        pool.reset_stats();
        let out = a.execute_sql_on_path(sql, path).expect("query");
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
        pool.flush_all().expect("flush");
        pool.reset_stats();
        a.execute_sql_on_path(sql, path).expect("query");
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

/// The hash joins of one query as EXPLAIN names them, checked to add no
/// rows, pages or cost of their own (the log's sums stay those of its
/// scans).
fn join_paths(a: &ArchIS, xquery: &str) -> Vec<String> {
    let joins: Vec<_> = a
        .query(xquery)
        .expect("query")
        .plan
        .into_iter()
        .filter(|e| e.path.starts_with("hash("))
        .collect();
    assert!(joins
        .iter()
        .all(|e| e.est_rows == 0.0 && e.est_pages == 0.0 && e.cost == 0.0));
    joins.into_iter().map(|e| e.path).collect()
}

/// Statements whose result cannot depend on row order — the aggregates
/// Q2 (`avg` of an `Int` column), Q4 (`count`), Q5 (`count(distinct)`)
/// and Q6 (`max`) — hash the rows joined so far, the key table
/// `employee_id` (for Q6's second join, the `employee_id⋈employee_salary`
/// rows), and stream `employee_salary` through them in probe order; the
/// row-returning Q1 and Q3 keep sort-merge (`key`) order. On a heap store
/// and on a compressed one.
#[test]
fn order_free_aggregates_hash_the_key_table_and_row_queries_keep_key_order() {
    let d = |y: i32, m: u32| Date::from_ymd(y, m, 1).unwrap();
    let events: Vec<Ev> = (1..=6)
        .map(|id| Ev::Hire { id, salary: 40_000 })
        .chain((0..240).map(|i| match i % 40 {
            39 => Ev::Archive,
            _ => Ev::Raise {
                id: 1 + i % 6,
                salary: 40_000 + i * 10,
            },
        }))
        .collect();
    let heap = build(&events, false);
    let compressed = yearly_compressed_archis();
    let by_id = "hash(build=employee_id, probe=employee_salary, order=probe)";
    let then_by_joined =
        "hash(build=employee_id⋈employee_salary, probe=employee_salary, order=probe)";
    let keyed = "hash(build=employee_salary, probe=employee_id, order=key)";
    for (a, probe, (lo, hi)) in [
        (&heap, day(120), (day(60), day(180))),
        (&compressed, d(1992, 6), (d(1991, 3), d(1993, 3))),
    ] {
        assert_eq!(join_paths(a, &q::q2_xquery(probe)), [by_id]);
        assert_eq!(join_paths(a, &q::q4_xquery()), [by_id]);
        assert_eq!(join_paths(a, &q::q5_xquery(40_500, lo, hi)), [by_id]);
        assert_eq!(
            join_paths(a, &q::q6_xquery(lo, hi)),
            [by_id, then_by_joined]
        );
        assert_eq!(join_paths(a, &q::q1_xquery(3, probe)), [keyed]);
        assert_eq!(join_paths(a, &q::q3_xquery(3)), [keyed]);
    }
}

/// Plans belong to their requests: two threads query one store at once,
/// one with every access path forced to `Seq` and one planning by cost.
/// Each result's plan names its own request's choice, and both threads
/// get the same rows.
#[test]
fn concurrent_queries_each_run_their_own_plan() {
    const N: i64 = 120;
    let a = adversarial_archis(N);
    let sql = format!(
        "select s.salary from employee_salary s where s.segno = {} and s.id = {}",
        archis::htable::LIVE_SEGNO,
        N + 4
    );
    let sql = &sql;
    // Each pair of queries, one per thread, starts together.
    let start = std::sync::Barrier::new(2);
    let run = |path: Option<ForcedPath>, chosen_by: &str| {
        (0..200)
            .map(|_| {
                start.wait();
                let out = a.execute_sql_on_path(sql, path).expect("query");
                assert!(
                    matches!(&out.plan[..], [scan] if scan.chosen_by == chosen_by),
                    "{}",
                    relstore::planner::explain(&out.plan)
                );
                render(out)
            })
            .collect::<Vec<_>>()
    };
    let (seq, cost) = std::thread::scope(|s| {
        let seq = s.spawn(|| run(Some(ForcedPath::Seq), "forced:seq"));
        let cost = s.spawn(|| run(None, "cost"));
        (
            seq.join().expect("seq thread"),
            cost.join().expect("cost thread"),
        )
    });
    assert_eq!(seq, cost);
    let cost_plan = a.execute_sql(sql).expect("query").plan;
    assert!(
        cost_plan.iter().any(|e| e.path.starts_with("index(")),
        "the cost-based plan probes an index, so the two threads' plans differ:\n{}",
        relstore::planner::explain(&cost_plan)
    );
}
