//! Allocation budgets for the query executor.
//!
//! A counting global allocator tallies the allocations made by the current
//! thread only, and the bytes that thread holds, so each count below
//! repeats exactly from run to run no matter what other tests do in
//! parallel. The budgets pin the executor's streaming shape: a scan
//! decodes rows into a reused buffer and lends
//! them (or, read as an iterator, clones only the rows its pushed
//! predicate keeps), and a scan of compressed blocks lends the rows of
//! the cached decoded blocks in place; a join hashes one input into rows
//! stored flat and streams the other through it — the left input sorted
//! by key, in sort-merge order, for statements that return rows; the right
//! input unsorted, in probe order, for aggregates whose result cannot
//! depend on row order — writing each joined row into one reused buffer; and
//! ungrouped aggregates fold the rows lent to them instead of collecting
//! the joined rows first. A row the scan skips this cheaply is still never
//! skipped silently: a corrupt record comes out as an error.

use archis::{queries, ArchConfig, ArchIS, Change, RelationSpec};
use dataset::{DatasetConfig, Op};
use relstore::exec::build_scan;
use relstore::planner::PathKind;
use relstore::{BinOp, DataType, Database, Expr, Field, Schema, StorageKind, Table, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Bound;
use temporal::Date;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add_live(bytes: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialized thread-local `Cell`s, which never
// allocate, and `try_with` skips counting during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        add_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread while `f` runs.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn d(s: &str) -> Date {
    Date::parse(s).unwrap()
}

fn to_change(op: &Op) -> Change {
    let relation = "employee".to_string();
    match op {
        Op::Hire {
            id,
            name,
            salary,
            title,
            deptno,
            at,
        } => Change::Insert {
            relation,
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
            relation,
            key: *id,
            changes: vec![("salary".into(), Value::Int(*salary))],
            at: *at,
        },
        Op::TitleChange { id, title, at } => Change::Update {
            relation,
            key: *id,
            changes: vec![("title".into(), Value::Str(title.clone()))],
            at: *at,
        },
        Op::DeptChange { id, deptno, at } => Change::Update {
            relation,
            key: *id,
            changes: vec![("deptno".into(), Value::Str(deptno.clone()))],
            at: *at,
        },
        Op::Leave { id, at } => Change::Delete {
            relation,
            key: *id,
            at: *at,
        },
    }
}

/// H for 150 employees over 17 years (seed 7), archived as it grows, on
/// the default heap layout.
fn store() -> ArchIS {
    let ops = dataset::generate(&DatasetConfig {
        employees: 150,
        seed: 7,
        ..DatasetConfig::default()
    });
    let mut a = ArchIS::new(ArchConfig::default().with_now(d("2002-01-01")));
    a.create_relation(RelationSpec::employee()).unwrap();
    for op in &ops {
        a.apply(&to_change(op)).unwrap();
        a.maybe_archive("employee", op.at()).unwrap();
    }
    a
}

/// Allocations of one warm run of `query` (a first run warms every cache
/// the query touches), checked to repeat exactly.
fn query_allocs(a: &ArchIS, query: &str) -> u64 {
    let run = || allocs(|| a.query(query).unwrap());
    let (_, first) = run();
    let (n, again) = run();
    assert_eq!(again, first);
    assert_eq!(run().0, n, "allocation count repeats");
    n
}

/// Q4 (count every salary period) and Q6 (the adjacent-period self-join
/// folded by `max`) allocate at most half of what the previous executor
/// made on this store: 14 299 allocations for Q4 and 29 839 for Q6. That
/// executor copied every scanned record out of its page and decoded it
/// into a fresh row before filtering, sort-merged both join inputs with a
/// heap-allocated key per row, and collected the joined rows before
/// folding `count`/`max` over them.
#[test]
fn q4_and_q6_allocate_at_most_half_of_the_materializing_executor() {
    let a = store();
    let q4 = query_allocs(&a, &queries::q4_xquery());
    let q6 = query_allocs(&a, &queries::q6_xquery(d("1990-01-01"), d("1995-12-31")));
    assert!(q4 <= 14_299 / 2, "Q4 made {q4} allocations");
    assert!(q6 <= 29_839 / 2, "Q6 made {q6} allocations");
}

/// Q4 and Q6 may take their rows in any order, so their joins hash the
/// rows joined so far — the small `employee_id` table, and for Q6's second
/// join its join with `employee_salary` — and stream `employee_salary`
/// through them, and `count`/`max` fold each
/// joined row where the pipeline lends it: no owned row is made per
/// probed row, so each query makes fewer allocations than
/// `employee_salary` has rows (3 887 on this store), counts that repeat
/// exactly from run to run.
#[test]
fn q4_and_q6_allocate_fewer_times_than_the_table_has_rows() {
    let a = store();
    let rows = a.database().table("employee_salary").unwrap().row_count();
    let q4 = query_allocs(&a, &queries::q4_xquery());
    let q6 = query_allocs(&a, &queries::q6_xquery(d("1990-01-01"), d("1995-12-31")));
    assert!(q4 < rows, "Q4 made {q4} allocations for {rows} rows");
    assert!(q6 < rows, "Q6 made {q6} allocations for {rows} rows");
}

/// A warm query leaves nothing behind once its result is dropped: the
/// plan it ran comes back inside the result, so the bytes this thread
/// holds do not grow with the number of queries it has run.
#[test]
fn warm_queries_leave_no_bytes_behind() {
    let a = store();
    let q6 = queries::q6_xquery(d("1990-01-01"), d("1995-12-31"));
    let run = |times: usize| {
        for _ in 0..times {
            a.query(&q6).unwrap();
        }
        LIVE.with(Cell::get)
    };
    let warm = run(10);
    let grown = run(1_000) - warm;
    assert!(
        grown <= 4 * 1024,
        "1 000 more Q6 runs left {grown} bytes behind"
    );
}

/// On a compressed store most `employee_salary` rows live in BlockZIP
/// blocks, decoded once into the block cache by the first run. The block
/// stream evaluates the pushed predicate on the cached block and lends each
/// passing row in place, so Q4 and Q6 allocate at most half of what they
/// made when every passing block row was cloned into a row of its own:
/// 2 648 allocations for Q4 and 4 479 for Q6 (471 and 1 275 with lent
/// rows, in a release build).
#[test]
fn compressed_q4_and_q6_lend_block_rows_without_copying_them() {
    let mut a = store();
    a.compress_archived("employee").unwrap();
    let q4 = query_allocs(&a, &queries::q4_xquery());
    let q6 = query_allocs(&a, &queries::q6_xquery(d("1990-01-01"), d("1995-12-31")));
    assert!(q4 <= 2_648 / 2, "Q4 made {q4} allocations");
    assert!(q6 <= 4_479 / 2, "Q6 made {q6} allocations");
}

/// A table of `(id, name)` rows on `kind` storage with an index on `id`.
fn names(kind: StorageKind, rows: i64) -> (Database, std::sync::Arc<Table>) {
    let db = Database::in_memory();
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("name", DataType::Str),
    ]);
    let t = db.create_table("names", schema, kind, &["id"]).unwrap();
    t.create_index("names_id", &["id"]).unwrap();
    t.insert_batch(
        (0..rows)
            .map(|i| vec![Value::Int(i), Value::Str(format!("name-{i:05}"))])
            .collect(),
    )
    .unwrap();
    (db, t)
}

fn full_scan(t: &Table, pred: Expr) -> relstore::RowStream {
    build_scan(
        t,
        PathKind::Seq,
        None,
        Bound::Unbounded,
        Bound::Unbounded,
        Some(pred),
    )
    .unwrap()
}

/// A sequential scan whose pushed predicate rejects every row decodes
/// each record into one reused buffer (a string column refills its
/// buffer in place) and copies nothing out: its allocations are bounded
/// by the pages it reads, not the rows on them.
#[test]
fn a_scan_rejecting_every_row_allocates_per_page_not_per_row() {
    for kind in [StorageKind::Heap, StorageKind::Clustered] {
        let (_db, t) = names(kind, 5_000);
        let pages = t.base_page_count().unwrap();
        assert!(t.row_count() > 50 * pages, "{kind:?}: many rows per page");
        let nobody = Expr::bin(
            BinOp::Eq,
            Expr::col(1),
            Expr::lit(Value::Str("nobody".into())),
        );
        let (n, kept) = allocs(|| full_scan(&t, nobody).count());
        assert_eq!(kept, 0);
        assert!(
            n <= pages + 16,
            "{kind:?}: {n} allocations for {pages} pages"
        );
    }
}

/// A record whose bytes are damaged mid-page (an unknown value tag; the
/// page itself is intact) comes out of a predicate-pushed scan as an
/// `Err` item in its place, with the rows around it still delivered, and
/// out of an index fetch as an `Err` too.
#[test]
fn a_corrupt_record_mid_page_is_an_error_not_a_dropped_row() {
    for kind in [StorageKind::Heap, StorageKind::Clustered] {
        let (db, t) = names(kind, 300);
        let victim = b"name-00150";
        let pool = db.pool();
        let damaged = (0..pool.pager().num_pages()).any(|page| {
            let frame = pool.get(page).unwrap();
            let mut guard = frame.write();
            let at = guard.data.windows(victim.len()).position(|w| w == victim);
            // The string's tag byte sits before its 4-byte length.
            if let Some(tag) = at.and_then(|at| at.checked_sub(5)) {
                guard.data[tag] = 99;
                guard.dirty = true;
            }
            at.is_some()
        });
        assert!(damaged, "{kind:?}: victim record found");

        let any_id = Expr::bin(BinOp::Ge, Expr::col(0), Expr::lit(Value::Int(0)));
        let out: Vec<_> = full_scan(&t, any_id.clone()).collect();
        let errors: Vec<_> = out.iter().filter_map(|r| r.as_ref().err()).collect();
        assert_eq!(errors.len(), 1, "{kind:?}");
        assert!(errors[0].is_corrupt(), "{kind:?}: {}", errors[0]);
        assert_eq!(out.len(), 300, "{kind:?}: the other rows still arrive");

        let id = [Value::Int(150)];
        let fetched: Vec<_> = build_scan(
            &t,
            PathKind::Index,
            Some("names_id"),
            Bound::Included(&id[..]),
            Bound::Included(&id[..]),
            Some(any_id),
        )
        .unwrap()
        .collect();
        assert!(
            matches!(fetched.as_slice(), [Err(e)] if e.is_corrupt()),
            "{kind:?}: {fetched:?}"
        );
    }
}
