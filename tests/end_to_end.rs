//! Full-pipeline integration tests: workload → ArchIS (both storage
//! layouts, with segmentation and compression) → H-document publication →
//! native XML database — every execution path must give the same answers,
//! and those answers must match a brute-force recomputation from the raw
//! event stream.

use archis::{queries, ArchConfig, ArchIS, Change, RelationSpec};
use dataset::{DatasetConfig, Op};
use relstore::Value;
use std::collections::HashMap;
use temporal::{Date, Interval, END_OF_TIME};
use xmldb::XmlDb;

fn now() -> Date {
    Date::from_ymd(2005, 1, 1).unwrap()
}

fn to_change(op: &Op) -> Change {
    match op {
        Op::Hire {
            id,
            name,
            salary,
            title,
            deptno,
            at,
        } => Change::Insert {
            relation: "employee".into(),
            key: *id,
            values: vec![
                ("name".into(), Value::Str(name.clone())),
                ("salary".into(), Value::Int(*salary)),
                ("title".into(), Value::Str(title.clone())),
                ("deptno".into(), Value::Str(deptno.clone())),
            ],
            at: *at,
        },
        Op::Raise { id, salary, at } => Change::Update {
            relation: "employee".into(),
            key: *id,
            changes: vec![("salary".into(), Value::Int(*salary))],
            at: *at,
        },
        Op::TitleChange { id, title, at } => Change::Update {
            relation: "employee".into(),
            key: *id,
            changes: vec![("title".into(), Value::Str(title.clone()))],
            at: *at,
        },
        Op::DeptChange { id, deptno, at } => Change::Update {
            relation: "employee".into(),
            key: *id,
            changes: vec![("deptno".into(), Value::Str(deptno.clone()))],
            at: *at,
        },
        Op::Leave { id, at } => Change::Delete {
            relation: "employee".into(),
            key: *id,
            at: *at,
        },
    }
}

fn load(config: ArchConfig, ops: &[Op], archive: bool) -> ArchIS {
    let mut a = ArchIS::new(config.with_now(now()));
    a.create_relation(RelationSpec::employee()).unwrap();
    for op in ops {
        a.apply(&to_change(op)).unwrap();
        if archive {
            a.maybe_archive("employee", op.at()).unwrap();
        }
    }
    a
}

/// Brute-force ground truth: the salary of each employee on a date,
/// replayed straight from the event stream.
fn salaries_at(ops: &[Op], date: Date) -> HashMap<i64, i64> {
    let mut current: HashMap<i64, i64> = HashMap::new();
    let mut alive: HashMap<i64, bool> = HashMap::new();
    for op in ops {
        if op.at() > date {
            break;
        }
        match op {
            Op::Hire { id, salary, .. } => {
                current.insert(*id, *salary);
                alive.insert(*id, true);
            }
            Op::Raise { id, salary, .. } => {
                current.insert(*id, *salary);
            }
            Op::Leave { id, .. } => {
                alive.insert(*id, false);
            }
            _ => {}
        }
    }
    current.retain(|id, _| alive.get(id).copied().unwrap_or(false));
    current
}

fn workload() -> Vec<Op> {
    dataset::generate(&DatasetConfig {
        employees: 30,
        years: 12,
        seed: 99,
        ..Default::default()
    })
}

#[test]
fn snapshots_match_brute_force_on_many_dates() {
    let ops = workload();
    let a = load(ArchConfig::db2_like(), &ops, true);
    for year in [1986, 1989, 1992, 1995] {
        let date = Date::from_ymd(year, 7, 1).unwrap();
        let truth = salaries_at(&ops, date);
        // Per-employee snapshot through the translated SQL path.
        for (&id, &salary) in truth.iter().take(8) {
            let out = a.query(&queries::q1_xquery(id, date)).unwrap();
            let xml = out.xml_fragments().join("");
            assert!(
                xml.contains(&format!(">{salary}<")),
                "employee {id} on {date}: expected {salary}, got {xml}"
            );
        }
        // The average matches too.
        if !truth.is_empty() {
            let expected: f64 = truth.values().map(|&s| s as f64).sum::<f64>() / truth.len() as f64;
            let got = a
                .query(&queries::q2_xquery(date))
                .unwrap()
                .scalar_rows()
                .unwrap()[0][0]
                .as_f64()
                .unwrap();
            assert!(
                (got - expected).abs() < 1e-6,
                "avg salary on {date}: {got} vs {expected}"
            );
        }
    }
}

#[test]
fn all_execution_paths_agree_on_the_benchmark_queries() {
    let ops = workload();
    let heap = load(ArchConfig::db2_like(), &ops, true);
    let clustered = load(ArchConfig::atlas_like(), &ops, true);
    let unsegmented = load(ArchConfig::db2_like(), &ops, false);

    // Native XML database over the published history.
    let tamino = XmlDb::new(now());
    tamino.store("employees.xml", &heap.publish("employee").unwrap());

    let probe = {
        let date = Date::from_ymd(1992, 7, 1).unwrap();
        *salaries_at(&ops, date).keys().min().unwrap()
    };
    let d = Date::from_ymd(1992, 7, 1).unwrap();
    let w2 = Date::from_ymd(1993, 7, 1).unwrap();
    let j2 = Date::from_ymd(1995, 7, 1).unwrap();
    let qs = [
        queries::q1_xquery(probe, d),
        queries::q2_xquery(d),
        queries::q3_xquery(probe),
        queries::q4_xquery(),
        queries::q5_xquery(50_000, d, w2),
        queries::q6_xquery(d, j2),
    ];
    for q in &qs {
        let native = tamino.query_xml(q).unwrap().replace('\n', "");
        let via_heap = render(&heap, q);
        let via_clustered = render(&clustered, q);
        let via_unseg = render(&unsegmented, q);
        assert_eq!(via_heap, via_clustered, "heap vs clustered on {q}");
        assert_eq!(via_heap, via_unseg, "segmented vs unsegmented on {q}");
        assert_eq!(via_heap, native, "SQL path vs native XQuery on {q}");
    }
}

fn render(a: &ArchIS, q: &str) -> String {
    let out = a.query(q).unwrap();
    let xml = out.xml_fragments().join("");
    if xml.is_empty() {
        out.rows
            .iter()
            .flat_map(|r| r.iter().map(|v| v.render()))
            .collect::<Vec<_>>()
            .join("")
    } else {
        xml
    }
}

#[test]
fn incremental_hdoc_maintenance_equals_publication() {
    // Maintaining the H-document change by change (the native XML DB path)
    // must produce the same view as publishing from the H-tables.
    let ops = workload();
    let a = load(ArchConfig::db2_like(), &ops, true);
    let tamino = XmlDb::new(now());
    tamino.store("employees.xml", &xmldom::Element::new("employees"));
    for op in &ops {
        let change = match op {
            Op::Hire {
                id,
                name,
                salary,
                title,
                deptno,
                at,
            } => xmldb::DocChange::Insert {
                tuple: "employee".into(),
                key_child: "id".into(),
                key: id.to_string(),
                attrs: vec![
                    ("name".into(), name.clone()),
                    ("salary".into(), salary.to_string()),
                    ("title".into(), title.clone()),
                    ("deptno".into(), deptno.clone()),
                ],
                at: *at,
            },
            Op::Raise { id, salary, at } => xmldb::DocChange::Update {
                tuple: "employee".into(),
                key_child: "id".into(),
                key: id.to_string(),
                attr: "salary".into(),
                value: salary.to_string(),
                at: *at,
            },
            Op::TitleChange { id, title, at } => xmldb::DocChange::Update {
                tuple: "employee".into(),
                key_child: "id".into(),
                key: id.to_string(),
                attr: "title".into(),
                value: title.clone(),
                at: *at,
            },
            Op::DeptChange { id, deptno, at } => xmldb::DocChange::Update {
                tuple: "employee".into(),
                key_child: "id".into(),
                key: id.to_string(),
                attr: "deptno".into(),
                value: deptno.clone(),
                at: *at,
            },
            Op::Leave { id, at } => xmldb::DocChange::Delete {
                tuple: "employee".into(),
                key_child: "id".into(),
                key: id.to_string(),
                at: *at,
            },
        };
        tamino.apply_change("employees.xml", &change).unwrap();
    }
    // Compare the two views query by query (element order can differ, so
    // compare per-employee salary histories).
    let published = XmlDb::new(now());
    published.store("employees.xml", &a.publish("employee").unwrap());
    let ids: Vec<String> = {
        let out = published
            .query_xml(r#"for $e in doc("employees.xml")/employees/employee return string($e/id)"#)
            .unwrap();
        out.lines().map(String::from).collect()
    };
    assert!(!ids.is_empty());
    for id in &ids {
        let q = format!(
            r#"for $s in doc("employees.xml")/employees/employee[id = {id}]/salary
               return $s"#
        );
        assert_eq!(
            tamino.query_xml(&q).unwrap(),
            published.query_xml(&q).unwrap(),
            "salary history of {id} differs between maintenance paths"
        );
    }
}

#[test]
fn compression_preserves_every_salary_period() {
    let ops = workload();
    let mut a = load(ArchConfig::db2_like(), &ops, true);
    let last = ops.last().unwrap().at();
    a.force_archive("employee", last).unwrap();

    // Ground truth before compression via the SQL path.
    let count_before = a
        .query(&queries::q4_xquery())
        .unwrap()
        .scalar_rows()
        .unwrap()[0][0]
        .as_int()
        .unwrap();

    a.compress_archived("employee").unwrap();
    let store = a.compressed_store("employee").unwrap();
    store.clear_cache();
    store.reset_stats();
    let count_after = a
        .query(&queries::q4_xquery())
        .unwrap()
        .scalar_rows()
        .unwrap()[0][0]
        .as_int()
        .unwrap();
    assert_eq!(count_before, count_after);
    assert!(
        store.blocks_read() > 0,
        "Q4 must read the compressed blocks"
    );

    // Per-employee histories survive byte for byte.
    let date = Date::from_ymd(1992, 7, 1).unwrap();
    for (&id, &salary) in salaries_at(&ops, date).iter().take(10) {
        let xml = render(&a, &queries::q1_xquery(id, date));
        assert_eq!(xml.matches("<salary").count(), 1, "employee {id}: {xml}");
        assert!(
            xml.contains(&format!(">{salary}<")),
            "employee {id} on {date}: expected {salary}, got {xml}"
        );
        let mut hist = history_of(&a, id);
        assert!(!hist.is_empty());
        // Periods are disjoint.
        hist.sort_by_key(|iv| iv.start());
        for w in hist.windows(2) {
            assert!(w[0].end() < w[1].start(), "employee {id}: {hist:?}");
        }
    }
}

/// The salary periods of Q3's answer for `id`.
fn history_of(a: &ArchIS, id: i64) -> Vec<Interval> {
    let xml = render(a, &queries::q3_xquery(id));
    let attr = |el: &str, name: &str| {
        let at = el.find(&format!("{name}=\"")).unwrap() + name.len() + 2;
        Date::parse(&el[at..at + 10]).unwrap()
    };
    xml.split("<salary")
        .skip(1)
        .map(|el| Interval::new(attr(el, "tstart"), attr(el, "tend")).unwrap())
        .collect()
}

#[test]
fn segment_invariants_hold_across_the_whole_load() {
    // Paper §6.1 invariants (1) and (2) for every tuple of every archived
    // segment of every attribute.
    let ops = workload();
    let a = load(ArchConfig::db2_like().with_umin(0.4), &ops, true);
    for attr in ["name", "salary", "title", "deptno"] {
        let segs = a.segments_of("employee", attr).unwrap();
        let table = a.database().table(&format!("employee_{attr}")).unwrap();
        for seg in segs
            .iter()
            .filter(|s| s.segno != archis::htable::LIVE_SEGNO)
        {
            let rows = table
                .index_lookup(&format!("employee_{attr}_by_seg"), &[Value::Int(seg.segno)])
                .unwrap();
            assert!(
                !rows.is_empty(),
                "empty archived segment {} of {attr}",
                seg.segno
            );
            for r in rows {
                let ts = r[3].as_date().unwrap();
                let te = r[4].as_date().unwrap();
                assert!(
                    ts <= seg.end,
                    "invariant (1) violated in {attr} seg {}",
                    seg.segno
                );
                assert!(
                    te >= seg.start,
                    "invariant (2) violated in {attr} seg {}",
                    seg.segno
                );
            }
        }
        // Archived segments tile time without overlap.
        let archived: Vec<_> = segs
            .iter()
            .filter(|s| s.segno != archis::htable::LIVE_SEGNO)
            .collect();
        for w in archived.windows(2) {
            assert_eq!(
                w[0].end.succ(),
                w[1].start,
                "segments of {attr} must tile time"
            );
        }
    }
}

#[test]
fn publication_respects_the_covering_constraint() {
    // "the interval of a parent node always covers that of its child
    // nodes" (paper §3).
    let ops = workload();
    let a = load(ArchConfig::db2_like(), &ops, true);
    let doc = a.publish("employee").unwrap();
    let root_iv = doc.interval().unwrap();
    for emp in doc.children_named("employee") {
        let emp_iv = emp.interval().unwrap();
        assert!(root_iv.contains(&emp_iv) || root_iv.start() <= emp_iv.start());
        for child in emp.child_elements() {
            let civ = child.interval().unwrap();
            assert!(
                emp_iv.contains(&civ),
                "covering constraint violated: {} {civ:?} not in {emp_iv:?}",
                child.name
            );
        }
        // Attribute periods of one attribute are coalesced: no two
        // adjacent value-equivalent periods.
        for attr in ["salary", "title", "deptno", "name"] {
            let periods: Vec<(String, Interval)> = emp
                .children_named(attr)
                .map(|e| (e.text_content(), e.interval().unwrap()))
                .collect();
            for w in periods.windows(2) {
                assert!(
                    w[0].1.end() < w[1].1.start(),
                    "{attr} periods must be ordered"
                );
                if w[0].0 == w[1].0 {
                    assert!(
                        !w[0].1.joinable(&w[1].1),
                        "{attr} has uncoalesced value-equivalent periods"
                    );
                }
            }
        }
    }
    let _ = END_OF_TIME;
}

#[test]
fn publication_stays_complete_after_compression() {
    let ops = workload();
    let mut a = load(ArchConfig::db2_like(), &ops, true);
    let before = a.publish("employee").unwrap().to_xml();
    a.force_archive("employee", ops.last().unwrap().at())
        .unwrap();
    a.compress_archived("employee").unwrap();
    let after = a.publish("employee").unwrap().to_xml();
    assert_eq!(
        before, after,
        "compression must not change the H-document view"
    );
}

#[test]
fn compression_is_incremental_across_archival_cycles() {
    let ops = workload();
    let split = ops.len() / 2;
    let mut a = load(ArchConfig::db2_like(), &ops[..split], false);
    // Cycle 1: archive + compress the first half.
    a.force_archive("employee", ops[split - 1].at()).unwrap();
    let blocks1 = a.compress_archived("employee").unwrap();
    // Keep living: replay the second half, archive + compress again.
    for op in &ops[split..] {
        a.apply(&to_change(op)).unwrap();
    }
    a.force_archive("employee", ops.last().unwrap().at())
        .unwrap();
    let blocks2 = a.compress_archived("employee").unwrap();
    assert!(
        blocks2 > blocks1,
        "second pass must add blocks ({blocks1} -> {blocks2})"
    );
    // Every query still answers from the two-generation store.
    // Both dates lie in archived segments, one per compression pass.
    let store = a.compressed_store("employee").unwrap();
    let d_early = Date::from_ymd(1987, 7, 1).unwrap();
    let d_late = ops.last().unwrap().at() - 30;
    for d in [d_early, d_late] {
        store.reset_stats();
        let truth = salaries_at(&ops, d);
        for (&id, &salary) in truth.iter().take(5) {
            let xml = render(&a, &queries::q1_xquery(id, d));
            assert!(
                xml.contains(&format!(">{salary}<")),
                "employee {id} on {d}: expected {salary}, got {xml}"
            );
        }
        let (hits, misses) = store.cache_stats();
        assert!(hits + misses > 0, "snapshots on {d} must read blocks");
    }
    // And the published view equals an uncompressed twin's.
    let twin = load(ArchConfig::db2_like(), &ops, false);
    assert_eq!(
        a.publish("employee").unwrap().to_xml(),
        twin.publish("employee").unwrap().to_xml()
    );
}

#[test]
fn snapshot_on_segment_boundary_dates_is_exact() {
    // A snapshot on the exact segend / segstart day must not lose rows.
    let ops = workload();
    let a = load(ArchConfig::db2_like().with_umin(0.4), &ops, true);
    let segs = a.segments_of("employee", "salary").unwrap();
    for seg in segs
        .iter()
        .filter(|s| s.segno != archis::htable::LIVE_SEGNO)
        .take(3)
    {
        for d in [seg.start, seg.end] {
            let truth = salaries_at(&ops, d);
            if truth.is_empty() {
                continue;
            }
            let expected: f64 = truth.values().map(|&s| s as f64).sum::<f64>() / truth.len() as f64;
            let got = a
                .query(&queries::q2_xquery(d))
                .unwrap()
                .scalar_rows()
                .unwrap()[0][0]
                .as_f64()
                .unwrap_or(f64::NAN);
            assert!(
                (got - expected).abs() < 1e-6,
                "snapshot on boundary {d} (segment {}): {got} vs {expected}",
                seg.segno
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Point queries are index-bounded: what a question about one employee
// reads does not depend on how much history the store holds.
// ---------------------------------------------------------------------------

/// A WAL-backed store (snapshots need one) holding `employees` × 17 years,
/// ingested in batches with the usefulness check after each, like a
/// production load.
fn durable_store(employees: usize) -> (ArchIS, Vec<Op>) {
    use relstore::pager::MemPager;
    use relstore::wal::{MemLog, WalConfig, WalPager};
    let pager = WalPager::open(
        std::sync::Arc::new(MemPager::new()),
        std::sync::Arc::new(MemLog::new()),
        WalConfig::with_group_commit(8),
    )
    .unwrap();
    let pool = relstore::BufferPool::new(std::sync::Arc::new(pager), 512);
    let db = relstore::Database::open_pool(std::sync::Arc::new(pool)).unwrap();
    let mut a = ArchIS::open_with_database(db, ArchConfig::default().with_now(now())).unwrap();
    a.create_relation(RelationSpec::employee()).unwrap();
    let ops = dataset::generate(&DatasetConfig {
        employees,
        years: 17,
        seed: 7,
        ..Default::default()
    });
    for batch in ops.chunks(64) {
        let changes: Vec<Change> = batch.iter().map(to_change).collect();
        a.apply_all(&changes).unwrap();
        a.maybe_archive("employee", batch[batch.len() - 1].at())
            .unwrap();
    }
    a.checkpoint().unwrap();
    (a, ops)
}

/// The larger of the two stores, built once for the tests below.
fn big_store() -> &'static (ArchIS, Vec<Op>) {
    static STORE: std::sync::OnceLock<(ArchIS, Vec<Op>)> = std::sync::OnceLock::new();
    STORE.get_or_init(|| durable_store(300))
}

/// Employees hired in the first year who never leave, and a date late in
/// the history (so Q1 is answered from an archived segment or the live
/// one, whichever covers it).
fn probes(ops: &[Op]) -> (Vec<i64>, Date) {
    let left: std::collections::HashSet<i64> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Leave { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    let first_year = Date::from_ymd(1986, 1, 1).unwrap();
    let ids: Vec<i64> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Hire { id, at, .. } if *at < first_year && !left.contains(id) => Some(*id),
            _ => None,
        })
        .step_by(3)
        .take(8)
        .collect();
    assert!(ids.len() >= 2, "workload keeps some first-year hires");
    (ids, Date::from_ymd(1998, 3, 14).unwrap())
}

/// Logical page reads of one query on a fresh snapshot: the snapshot's
/// begin, and the query's execution (planning included).
fn cold_reads(a: &ArchIS, xq: &str) -> (u64, u64, Vec<relstore::PlanEntry>) {
    let snap = a.begin_snapshot().unwrap();
    let begin = snap.database().pool().stats().logical_reads;
    let out = snap.query(xq).unwrap();
    assert!(!out.rows.is_empty());
    let total = snap.database().pool().stats().logical_reads;
    (begin, total - begin, out.plan)
}

#[test]
fn point_query_reads_do_not_grow_with_the_store() {
    let (small, small_ops) = durable_store(150);
    let (big, big_ops) = big_store();
    let salary_pages = |a: &ArchIS| {
        let t = a.database().table("employee_salary").unwrap();
        t.base_page_count().unwrap()
    };
    assert!(salary_pages(big) > salary_pages(&small) * 3 / 2);
    let mut begins = Vec::new();
    for (a, ops) in [(&small, &small_ops), (big, big_ops)] {
        let (ids, date) = probes(ops);
        for id in ids {
            for xq in [queries::q1_xquery(id, date), queries::q3_xquery(id)] {
                let (begin, exec, plan) = cold_reads(a, &xq);
                begins.push(begin);
                assert!(
                    exec <= 80,
                    "{exec} logical reads on a {}-page table for {xq}\n{}",
                    salary_pages(a),
                    relstore::planner::explain(&plan)
                );
            }
        }
    }
    // Beginning a snapshot reads the catalog, whatever the tables hold.
    assert!(
        begins.iter().all(|b| *b == begins[0] && *b <= 4),
        "{begins:?}"
    );
}

/// ROADMAP 4(b): the plan's page estimates against the reads the plan
/// actually performs, and what planning itself reads.
#[test]
fn plan_estimates_track_actual_reads_for_point_queries() {
    let (a, ops) = big_store();
    let (ids, date) = probes(ops);
    let (d1, d2) = (date, date + 365);
    let suite = [
        (true, queries::q1_xquery(ids[0], date)),
        (false, queries::q2_xquery(date)),
        (true, queries::q3_xquery(ids[1])),
        (false, queries::q4_xquery()),
        (false, queries::q5_xquery(45_000, d1, d2)),
        (false, queries::q6_xquery(d1, d2)),
    ];
    for (point, xq) in &suite {
        let (_, actual, plan) = cold_reads(a, xq);
        assert!(!plan.is_empty());
        let est: f64 = plan.iter().map(|e| e.est_pages).sum();
        if *point {
            let ratio = est / actual as f64;
            assert!(
                (0.25..=4.0).contains(&ratio),
                "estimated {est:.0} pages, read {actual} for {xq}\n{}",
                relstore::planner::explain(&plan)
            );
        }
    }
    // Profiling a table for the cost model reads the statistics table and
    // nothing else: no heap chain is walked to learn its length.
    let snap = a.begin_snapshot().unwrap();
    let db = snap.database();
    let before = db.pool().stats().logical_reads;
    for name in ["employee_salary", "employee_id", "employee_title"] {
        let t = db.table(name).unwrap();
        let profile = relstore::TableProfile::of(db, &t);
        assert_eq!(profile.base_pages as u64, t.base_page_count().unwrap());
    }
    let planning = db.pool().stats().logical_reads - before;
    let chain = db
        .table("employee_salary")
        .unwrap()
        .base_page_count()
        .unwrap();
    assert!(
        chain > 100 && planning <= 24,
        "{planning} reads to profile three tables"
    );
}

/// The catalog and the two meta tables are rewritten at every commit;
/// they must stay the size the schema needs.
#[test]
fn a_thousand_commits_leave_catalog_and_meta_tables_the_same_size() {
    let (a, ops) = durable_store(20);
    let sizes = |a: &ArchIS| {
        let db = a.database();
        let pages = |t: &str| db.table(t).unwrap().base_page_count().unwrap();
        (
            db.catalog_pages().unwrap(),
            pages("archis_relations"),
            pages("archis_state"),
        )
    };
    let before = sizes(&a);
    assert!(
        before.0 <= 2 && before.1 == 1 && before.2 == 1,
        "{before:?}"
    );
    let (ids, _) = probes(&ops);
    let mut at = now();
    for i in 0..1_000i64 {
        at = at + 1;
        a.update(
            "employee",
            ids[i as usize % 2],
            vec![("salary".into(), Value::Int(50_000 + i))],
            at,
        )
        .unwrap();
        a.maybe_archive("employee", at).unwrap();
    }
    assert_eq!(sizes(&a), before);
}
