//! The paper's benchmark queries (Table 3) in every execution form.
//!
//! | id | class | query |
//! |----|-------|-------|
//! | Q1 | snapshot, single object | salary of one employee on a date |
//! | Q2 | snapshot | average salary on a date |
//! | Q3 | history, single object | salary history of one employee |
//! | Q4 | history | total number of salary changes |
//! | Q5 | temporal slicing | employees with salary > K in a window |
//! | Q6 | temporal join | max salary increase in a window |
//!
//! Each query exists as (a) an **XQuery string** — run natively by the
//! `xmldb` crate (the Tamino path) or translated to SQL/XML by
//! [`crate::Translator`] and executed on the H-tables (the ArchIS path) —
//! and (b) a **compressed-path implementation** over
//! [`crate::CompressedStore`] (the paper's §8.3 table-function path; Q6
//! is the hand-optimized single-scan aggregate the paper mentions).

use crate::compressed::CompressedStore;
use crate::planner::{self, SegAccess, SegmentPlan};
use crate::{ArchIS, Result};
use relstore::value::Value;
use std::collections::{HashMap, HashSet};
use temporal::{Date, Interval};

/// Q1: the salary of employee `id` on `date`.
pub fn q1_xquery(id: i64, date: Date) -> String {
    format!(
        r#"for $s in doc("employees.xml")/employees/employee[id = {id}]/salary
               [tstart(.) <= xs:date("{date}") and tend(.) >= xs:date("{date}")]
           return $s"#
    )
}

/// Q2: the average salary of all employees on `date`.
pub fn q2_xquery(date: Date) -> String {
    format!(
        r#"avg(for $s in doc("employees.xml")/employees/employee/salary
               [tstart(.) <= xs:date("{date}") and tend(.) >= xs:date("{date}")]
           return number($s))"#
    )
}

/// Q3: the full salary history of employee `id`.
pub fn q3_xquery(id: i64) -> String {
    format!(
        r#"for $s in doc("employees.xml")/employees/employee[id = {id}]/salary
           return $s"#
    )
}

/// Q4: the total number of salary periods (salary changes).
pub fn q4_xquery() -> String {
    r#"count(for $s in doc("employees.xml")/employees/employee/salary
             return $s)"#
        .to_string()
}

/// Q5: how many employees earned more than `threshold` at some time in
/// `[d1, d2]`.
pub fn q5_xquery(threshold: i64, d1: Date, d2: Date) -> String {
    format!(
        r#"count(distinct-values(
               for $e in doc("employees.xml")/employees/employee
               for $s in $e/salary[. > {threshold} and
                   toverlaps(., telement(xs:date("{d1}"), xs:date("{d2}")))]
               return $e/id))"#
    )
}

/// Q6: the maximum salary increase between consecutive salary periods
/// that start inside `[d1, d2]`.
pub fn q6_xquery(d1: Date, d2: Date) -> String {
    format!(
        r#"max(for $e in doc("employees.xml")/employees/employee
               for $s1 in $e/salary[toverlaps(., telement(xs:date("{d1}"), xs:date("{d2}")))]
               for $s2 in $e/salary[tmeets($s1, .)]
               return number($s2) - number($s1))"#
    )
}

// ---------------------------------------------------------------------------
// Compressed-path implementations (paper §8.3)
// ---------------------------------------------------------------------------

fn decode_salary_row(row: &[Value]) -> Option<(i64, i64, Interval)> {
    let id = row[1].as_int()?;
    let sal = row[2].as_int()?;
    let iv = Interval::new(row[3].as_date()?, row[4].as_date()?).ok()?;
    Some((id, sal, iv))
}

/// Fetch the rows a [`SegmentPlan`] selects: probe or scan each archived
/// segment, then the live segment. The key filter is re-applied to every
/// access path so forced paths return byte-identical row sets.
fn rows_for_plan(
    archis: &ArchIS,
    store: &CompressedStore,
    attr: &str,
    plan: &SegmentPlan,
    key: Option<i64>,
) -> Result<Vec<Vec<Value>>> {
    let db = archis.database();
    let mut out = Vec::new();
    for &segno in &plan.segnos {
        let rows = match (plan.access, key) {
            (SegAccess::Probe, Some(k)) => store.lookup(db, attr, segno, k)?,
            _ => store.scan_segment(db, attr, segno)?,
        };
        out.extend(rows);
    }
    if plan.live {
        out.extend(store.live_rows(db, attr)?);
    }
    if let Some(k) = key {
        out.retain(|r| r[1] == Value::Int(k));
    }
    Ok(out)
}

/// Rows of the salary attribute valid on `date`: one segment's blocks (or
/// the live segment) only — possibly none at all when the statistics
/// prove the covering segment holds no row alive on `date`.
fn salary_rows_at(
    archis: &ArchIS,
    store: &CompressedStore,
    date: Date,
) -> Result<Vec<(i64, i64, Interval)>> {
    let plan = planner::plan_snapshot(archis, "employee", "salary", date, None)?;
    let rows = rows_for_plan(archis, store, "salary", &plan, None)?;
    Ok(rows
        .iter()
        .filter_map(|r| decode_salary_row(r))
        .filter(|(_, _, iv)| iv.contains_date(date))
        .collect())
}

/// Q1 on the compressed store.
pub fn q1_compressed(
    archis: &ArchIS,
    store: &CompressedStore,
    id: i64,
    date: Date,
) -> Result<Option<i64>> {
    let plan = planner::plan_snapshot(archis, "employee", "salary", date, Some(id))?;
    let rows = rows_for_plan(archis, store, "salary", &plan, Some(id))?;
    Ok(rows
        .iter()
        .filter_map(|r| decode_salary_row(r))
        .find(|(rid, _, iv)| *rid == id && iv.contains_date(date))
        .map(|(_, sal, _)| sal))
}

/// Q2 on the compressed store.
pub fn q2_compressed(archis: &ArchIS, store: &CompressedStore, date: Date) -> Result<f64> {
    let rows = salary_rows_at(archis, store, date)?;
    if rows.is_empty() {
        return Ok(0.0);
    }
    Ok(rows.iter().map(|(_, s, _)| *s as f64).sum::<f64>() / rows.len() as f64)
}

/// Q3 on the compressed store: salary history of one employee
/// (deduplicated across segments).
pub fn q3_compressed(
    archis: &ArchIS,
    store: &CompressedStore,
    id: i64,
) -> Result<Vec<(i64, Interval)>> {
    let plan = planner::plan_history(archis, "employee", "salary", Some(id))?;
    let mut dedup: HashMap<Date, (i64, Date)> = HashMap::new();
    for row in rows_for_plan(archis, store, "salary", &plan, Some(id))? {
        if let Some((_, sal, iv)) = decode_salary_row(&row) {
            let e = dedup.entry(iv.start()).or_insert((sal, iv.end()));
            if iv.end() < e.1 {
                *e = (sal, iv.end());
            }
        }
    }
    let mut out: Vec<(i64, Interval)> = dedup
        .into_iter()
        .filter_map(|(s, (sal, e))| Interval::new(s, e).ok().map(|iv| (sal, iv)))
        .collect();
    out.sort_by_key(|(_, iv)| iv.start());
    Ok(out)
}

/// All distinct salary periods `(id, salary, interval)` across segments.
fn all_salary_periods(
    archis: &ArchIS,
    store: &CompressedStore,
) -> Result<Vec<(i64, i64, Interval)>> {
    let db = archis.database();
    // The plan always selects every archived segment (an unbounded
    // history cannot be pruned); `scan_all` reads the identical block
    // range in one pass instead of per-segment.
    let plan = planner::plan_history(archis, "employee", "salary", None)?;
    let live = if plan.live {
        store.live_rows(db, "salary")?
    } else {
        Vec::new()
    };
    let mut dedup: HashMap<(i64, Date), (i64, Date)> = HashMap::new();
    for row in store.scan_all(db, "salary")?.iter().chain(live.iter()) {
        if let Some((id, sal, iv)) = decode_salary_row(row) {
            let e = dedup.entry((id, iv.start())).or_insert((sal, iv.end()));
            if iv.end() < e.1 {
                *e = (sal, iv.end());
            }
        }
    }
    let mut out: Vec<(i64, i64, Interval)> = dedup
        .into_iter()
        .filter_map(|((id, s), (sal, e))| Interval::new(s, e).ok().map(|iv| (id, sal, iv)))
        .collect();
    out.sort_by_key(|(id, _, iv)| (*id, iv.start()));
    Ok(out)
}

/// Q4 on the compressed store.
pub fn q4_compressed(archis: &ArchIS, store: &CompressedStore) -> Result<usize> {
    Ok(all_salary_periods(archis, store)?.len())
}

/// Q5 on the compressed store: touched segments' blocks only.
pub fn q5_compressed(
    archis: &ArchIS,
    store: &CompressedStore,
    threshold: i64,
    d1: Date,
    d2: Date,
) -> Result<usize> {
    let window = Interval::new(d1, d2).map_err(|e| crate::ArchError::BadUpdate(e.to_string()))?;
    // Which segments to decompress — and whether the live segment can
    // contribute at all — is the planner's call (stats-pruned).
    let plan = planner::plan_window(archis, "employee", "salary", d1, d2)?;
    let db = archis.database();
    let mut ids: HashSet<i64> = HashSet::new();
    let mut consider = |rows: Vec<Vec<Value>>| {
        for row in rows {
            if let Some((id, sal, iv)) = decode_salary_row(&row) {
                if sal > threshold && iv.overlaps(&window) {
                    ids.insert(id);
                }
            }
        }
    };
    // Segments are independent blobs, so selected ones can be unzipped
    // and scanned concurrently; folding the per-segment row sets in segno
    // order keeps the result identical to the sequential loop.
    if plan.segnos.len() >= 2 {
        let scans: Vec<Result<Vec<Vec<Value>>>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = plan
                .segnos
                .iter()
                .map(|&segno| s.spawn(move |_| store.scan_segment(db, "salary", segno)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("segment scan thread panicked"))
                .collect()
        })
        .expect("scoped segment scan threads");
        for rows in scans {
            consider(rows?);
        }
    } else {
        for &segno in &plan.segnos {
            consider(store.scan_segment(db, "salary", segno)?);
        }
    }
    if plan.live {
        consider(store.live_rows(db, "salary")?);
    }
    Ok(ids.len())
}

/// Q6 on the compressed store: the paper's one-scan user-defined
/// aggregate — consecutive periods are adjacent after the (id, tstart)
/// sort, so one pass suffices.
pub fn q6_compressed(
    archis: &ArchIS,
    store: &CompressedStore,
    d1: Date,
    d2: Date,
) -> Result<Option<i64>> {
    let window = Interval::new(d1, d2).map_err(|e| crate::ArchError::BadUpdate(e.to_string()))?;
    let periods = all_salary_periods(archis, store)?;
    let mut best: Option<i64> = None;
    for w in periods.windows(2) {
        let (id1, s1, iv1) = &w[0];
        let (id2, s2, iv2) = &w[1];
        if id1 == id2 && iv1.meets(iv2) && iv1.overlaps(&window) {
            let raise = s2 - s1;
            if best.is_none_or(|b| raise > b) {
                best = Some(raise);
            }
        }
    }
    Ok(best)
}

/// The §7.1 baseline: Q2 evaluated directly on the *current* table
/// (the paper reports the history snapshot runs ~27% slower than this).
pub fn q2_current(archis: &ArchIS) -> Result<f64> {
    let out = archis.execute_sql("select avg(e.salary) from employee e")?;
    let rows = out.scalar_rows().map_err(crate::ArchError::from)?;
    Ok(rows[0][0].as_f64().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ArchConfig, RelationSpec};

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    /// Three employees with raises; archived twice, then compressed.
    fn setup() -> ArchIS {
        let mut a = ArchIS::new(ArchConfig::default());
        a.create_relation(RelationSpec::employee()).unwrap();
        for (id, name, start, sal) in [
            (100001i64, "Bob", "1990-01-01", 50_000i64),
            (100002, "Alice", "1990-06-01", 60_000),
            (100003, "Carol", "1991-01-01", 40_000),
        ] {
            a.insert(
                "employee",
                id,
                vec![
                    ("name".into(), Value::Str(name.into())),
                    ("salary".into(), Value::Int(sal)),
                    ("title".into(), Value::Str("Engineer".into())),
                    ("deptno".into(), Value::Str("d01".into())),
                ],
                d(start),
            )
            .unwrap();
        }
        // Yearly raises 1992-1999 for everyone.
        for year in 1992..2000 {
            for (i, id) in [100001i64, 100002, 100003].iter().enumerate() {
                a.update(
                    "employee",
                    *id,
                    vec![(
                        "salary".into(),
                        Value::Int(40_000 + (year - 1990) as i64 * 2_000 + i as i64 * 5_000),
                    )],
                    d(&format!("{year}-02-01")),
                )
                .unwrap();
            }
            if year == 1995 {
                a.force_archive("employee", d("1995-12-31")).unwrap();
            }
        }
        a.force_archive("employee", d("1999-12-31")).unwrap();
        a
    }

    #[test]
    fn sql_and_compressed_paths_agree() {
        let mut a = setup();
        // SQL-path answers first (pre-compression).
        let q1_sql = a.query(&q1_xquery(100001, d("1994-06-01"))).unwrap();
        let q2_sql = a
            .execute_sql(&a.translate(&q2_xquery(d("1994-06-01"))).unwrap())
            .unwrap()
            .scalar_rows()
            .unwrap()[0][0]
            .as_f64()
            .unwrap();
        let q4_sql = a.query(&q4_xquery()).unwrap().scalar_rows().unwrap()[0][0]
            .as_int()
            .unwrap();
        let q5_sql = a
            .query(&q5_xquery(45_000, d("1993-01-01"), d("1995-01-01")))
            .unwrap()
            .scalar_rows()
            .unwrap()[0][0]
            .as_int()
            .unwrap();
        let q5_wide_sql = a
            .query(&q5_xquery(45_000, d("1993-01-01"), d("1999-06-01")))
            .unwrap()
            .scalar_rows()
            .unwrap()[0][0]
            .as_int()
            .unwrap();
        let q6_sql = a
            .query(&q6_xquery(d("1993-01-01"), d("1995-01-01")))
            .unwrap()
            .scalar_rows()
            .unwrap()[0][0]
            .as_int()
            .unwrap();
        // Compress, then compare every compressed-path answer.
        a.compress_archived("employee").unwrap();
        let store = a.compressed_store("employee").unwrap();
        // Q1: 1994 salary of Bob = 40000 + 4*2000 = 48000.
        assert_eq!(
            q1_compressed(&a, store, 100001, d("1994-06-01")).unwrap(),
            Some(48_000)
        );
        assert!(q1_sql.xml_fragments().join("").contains("48000"));
        let q2c = q2_compressed(&a, store, d("1994-06-01")).unwrap();
        assert!((q2c - q2_sql).abs() < 1e-9, "Q2: {q2c} vs {q2_sql}");
        let hist = q3_compressed(&a, store, 100001).unwrap();
        assert_eq!(hist.len(), 9, "initial + 8 raises");
        assert_eq!(q4_compressed(&a, store).unwrap() as i64, q4_sql);
        assert_eq!(
            q5_compressed(&a, store, 45_000, d("1993-01-01"), d("1995-01-01")).unwrap() as i64,
            q5_sql
        );
        // A window over both archived segments takes the per-segment
        // thread fan-out; the SQL path is its oracle.
        assert_eq!(
            q5_compressed(&a, store, 45_000, d("1993-01-01"), d("1999-06-01")).unwrap() as i64,
            q5_wide_sql
        );
        assert_eq!(
            q6_compressed(&a, store, d("1993-01-01"), d("1995-01-01")).unwrap(),
            Some(q6_sql)
        );
    }

    #[test]
    fn compressed_snapshot_touches_few_blocks() {
        let mut a = setup();
        a.compress_archived("employee").unwrap();
        let store = a.compressed_store("employee").unwrap();
        // Blocks *touched* = cache hits + misses; `blocks_read` alone only
        // counts real decompressions, which the block cache elides on
        // reruns.
        let touched = |s: &crate::CompressedStore| {
            let (h, m) = s.cache_stats();
            h + m
        };
        store.reset_stats();
        q1_compressed(&a, store, 100001, d("1994-06-01")).unwrap();
        let point = touched(store);
        store.reset_stats();
        q4_compressed(&a, store).unwrap();
        let full = touched(store);
        assert!(
            point <= full,
            "single-object snapshot ({point} blocks) must not exceed a full scan ({full})"
        );
        // A warm rerun of the full scan is served from the cache.
        store.reset_stats();
        q4_compressed(&a, store).unwrap();
        let (hits, misses) = store.cache_stats();
        assert!(hits > 0, "warm rerun must hit the block cache");
        assert_eq!(misses, 0, "warm rerun must not decompress anything");
        assert_eq!(store.blocks_read(), 0);
    }

    #[test]
    fn q2_current_matches_live_average() {
        let a = setup();
        // Last raises in 1999: 58000, 63000, 68000 → avg 63000.
        assert!((q2_current(&a).unwrap() - 63_000.0).abs() < 1e-9);
    }
}
