//! Cost-based segment planning for the compressed-store query paths
//! (paper §8.3 + the PR 8 statistics catalog).
//!
//! The SQL engine plans its scans in [`relstore::planner`]; this module is
//! the H-table-aware twin for the table-function paths over
//! [`crate::CompressedStore`]: given a snapshot date, a slicing window or
//! a full-history request, decide **which archived segments to
//! decompress** and **how** (single-key block probe vs whole-segment block
//! scan), using the same per-segment statistics catalog the archiver
//! maintains.
//!
//! The statistics earn their keep on pruning: a segment's catalog
//! *interval* `[start, end]` says a window may overlap, but the stats know
//! the actual `tstart`/`tend` extremes of the rows stored inside. A
//! segment whose stats prove no row can match is dropped before a single
//! block is decompressed. The extremes are maintained exactly (recomputed
//! at archival, absorbed on row moves, rebuilt by vacuum), so the pruning
//! is loss-free.
//!
//! `relstore::planner::set_forced_path` (the `planner_equiv` test hook) is
//! honored: `Seq` forces whole-segment scans; `Index` forces key probes
//! where a key exists; `Cluster` reads the segment's block range in sid
//! order, which for the compressed store *is* the clustered layout, i.e. a
//! segment scan. Pruning is never switched off. Every decision is recorded
//! in the thread-local plan log ([`relstore::planner::take_plan_log`]) for
//! EXPLAIN-style dumps.

use crate::htable::LIVE_SEGNO;
use crate::{ArchIS, Result};
use relstore::planner::{forced_path, record_plan, ForcedPath, PlanEntry, SegStat};
use temporal::{Date, END_OF_TIME};

/// How to read one archived segment of a compressed attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegAccess {
    /// Binary-search the block metadata for one key's covering block(s)
    /// ([`crate::CompressedStore::lookup`]).
    Probe,
    /// Decompress the segment's whole block range
    /// ([`crate::CompressedStore::scan_segment`]).
    Scan,
}

/// The plan for one query over a compressed attribute's history.
#[derive(Debug, Clone)]
pub struct SegmentPlan {
    /// Archived segments to touch, ascending segno order.
    pub segnos: Vec<i64>,
    /// Whether the live (uncompressed) segment must be read too.
    pub live: bool,
    /// Access method for the archived segments.
    pub access: SegAccess,
}

/// Resolve the access method: a key probe when a key is known (a probe
/// never touches more blocks than a scan), a segment scan otherwise,
/// overridden by a forced path.
fn access_for(key: Option<i64>) -> (SegAccess, &'static str) {
    match (forced_path(), key) {
        (Some(ForcedPath::Seq), _) => (SegAccess::Scan, "forced:seq"),
        (Some(ForcedPath::Cluster), _) => (SegAccess::Scan, "forced:cluster"),
        (Some(ForcedPath::Index), Some(_)) => (SegAccess::Probe, "forced:index"),
        (Some(ForcedPath::Index), None) => (SegAccess::Scan, "forced:index"),
        (None, Some(_)) => (SegAccess::Probe, "cost"),
        (None, None) => (SegAccess::Scan, "cost"),
    }
}

/// Estimated rows a segment contributes to a window, from its stats.
fn seg_est_rows(stat: Option<&SegStat>, lo: Date, hi: Date, key: Option<i64>) -> f64 {
    let Some(s) = stat else { return 0.0 };
    let mut est = s.rows as f64 * s.overlap_fraction(lo, hi);
    if key.is_some() {
        est /= (s.distinct_keys.max(1)) as f64;
    }
    est
}

/// Record one compressed-path decision in the EXPLAIN plan log.
fn log_plan(
    table: &str,
    plan: &SegmentPlan,
    stats: &[SegStat],
    lo: Date,
    hi: Date,
    key: Option<i64>,
    chosen_by: &str,
) {
    let stat_of = |segno: i64| stats.iter().find(|s| s.segno == segno);
    let est_rows: f64 = plan
        .segnos
        .iter()
        .map(|&s| seg_est_rows(stat_of(s), lo, hi, key))
        .sum();
    let est_blocks: f64 = plan
        .segnos
        .iter()
        .map(|&s| match plan.access {
            SegAccess::Probe => 1.0,
            SegAccess::Scan => stat_of(s).map(|st| st.blocks.max(1) as f64).unwrap_or(1.0),
        })
        .sum();
    let path = match plan.access {
        SegAccess::Probe => format!("blocks:probe(segs={})", plan.segnos.len()),
        SegAccess::Scan => format!("blocks:scan(segs={})", plan.segnos.len()),
    };
    let path = if plan.live {
        format!("{path}+live")
    } else {
        path
    };
    record_plan(PlanEntry {
        table: table.to_string(),
        path,
        est_rows,
        est_pages: est_blocks,
        cost: est_blocks,
        chosen_by: chosen_by.to_string(),
    });
}

/// Plan a **snapshot** query at `date` (Q1/Q2 shape): at most one archived
/// segment covers any date (paper §6.3); stats may prove even that one
/// holds no matching row.
pub fn plan_snapshot(
    archis: &ArchIS,
    relation: &str,
    attr: &str,
    date: Date,
    key: Option<i64>,
) -> Result<SegmentPlan> {
    let segs = archis.segments_of(relation, attr)?;
    let stats = archis.segment_stats(relation, attr)?;
    let covering = segs
        .iter()
        .filter(|s| s.segno != LIVE_SEGNO)
        .find(|s| s.start <= date && date <= s.end)
        .map(|s| s.segno);
    let (mut segnos, live) = match covering {
        Some(segno) => (vec![segno], false),
        None => (Vec::new(), true),
    };
    segnos.retain(|&segno| {
        stats
            .iter()
            .find(|s| s.segno == segno)
            .is_none_or(|s| s.overlap_fraction(date, date) > 0.0)
    });
    let (access, chosen_by) = access_for(key);
    let plan = SegmentPlan {
        segnos,
        live,
        access,
    };
    let table = crate::htable::attr_table(archis.relation(relation)?, attr);
    log_plan(&table, &plan, &stats, date, date, key, chosen_by);
    Ok(plan)
}

/// Plan a **slicing window** query over `[d1, d2]` (Q5 shape): every
/// interval-overlapping archived segment, stats-pruned, plus the live
/// segment when the window reaches past the last archival (or nothing was
/// ever archived).
pub fn plan_window(
    archis: &ArchIS,
    relation: &str,
    attr: &str,
    d1: Date,
    d2: Date,
) -> Result<SegmentPlan> {
    let segs = archis.segments_of(relation, attr)?;
    let stats = archis.segment_stats(relation, attr)?;
    let overlapping: Vec<i64> = segs
        .iter()
        .filter(|s| s.segno != LIVE_SEGNO && s.start <= d2 && s.end >= d1)
        .map(|s| s.segno)
        .collect();
    let touched_archive = !overlapping.is_empty();
    let mut segnos = overlapping;
    segnos.retain(|&segno| {
        stats
            .iter()
            .find(|s| s.segno == segno)
            .is_none_or(|s| s.overlap_fraction(d1, d2) > 0.0)
    });
    let live_start = segs.last().map(|s| s.start).unwrap_or(END_OF_TIME);
    let live = d2 >= live_start || !touched_archive;
    let (access, chosen_by) = access_for(None);
    let plan = SegmentPlan {
        segnos,
        live,
        access,
    };
    let table = crate::htable::attr_table(archis.relation(relation)?, attr);
    log_plan(&table, &plan, &stats, d1, d2, None, chosen_by);
    Ok(plan)
}

/// Plan a **full-history** query (Q3/Q4/Q6 shape): every archived segment
/// plus the live one. With a key, archived segments are probed; stats
/// cannot prune an unbounded history.
pub fn plan_history(
    archis: &ArchIS,
    relation: &str,
    attr: &str,
    key: Option<i64>,
) -> Result<SegmentPlan> {
    let segs = archis.segments_of(relation, attr)?;
    let stats = archis.segment_stats(relation, attr)?;
    let segnos: Vec<i64> = segs
        .iter()
        .filter(|s| s.segno != LIVE_SEGNO)
        .map(|s| s.segno)
        .collect();
    let (access, chosen_by) = access_for(key);
    let plan = SegmentPlan {
        segnos,
        live: true,
        access,
    };
    let table = crate::htable::attr_table(archis.relation(relation)?, attr);
    log_plan(
        &table,
        &plan,
        &stats,
        temporal::DAWN_OF_TIME,
        END_OF_TIME,
        key,
        chosen_by,
    );
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ArchConfig, RelationSpec};
    use relstore::value::Value;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn archis_with_dead_era() -> ArchIS {
        let mut a = ArchIS::new(ArchConfig::default());
        a.create_relation(RelationSpec::employee()).unwrap();
        a.insert(
            "employee",
            1,
            vec![
                ("name".into(), Value::Str("Bob".into())),
                ("salary".into(), Value::Int(50_000)),
            ],
            d("1990-01-01"),
        )
        .unwrap();
        a.delete("employee", 1, d("1991-01-01")).unwrap();
        // Segment 1's interval stretches to 1999-12-31 even though every
        // row inside ended by 1990-12-31.
        a.force_archive("employee", d("1999-12-31")).unwrap();
        a
    }

    #[test]
    fn snapshot_in_dead_era_is_pruned_to_nothing() {
        let a = archis_with_dead_era();
        let plan = plan_snapshot(&a, "employee", "salary", d("1995-06-01"), None).unwrap();
        assert!(plan.segnos.is_empty(), "stats prove the era is dead");
        assert!(!plan.live, "snapshot inside the archived interval");
        // The catalog interval alone would have kept the segment.
        let segs = a.segments_of("employee", "salary").unwrap();
        let covering = segs.iter().find(|s| s.segno == 1).unwrap();
        assert!(covering.start <= d("1995-06-01") && d("1995-06-01") <= covering.end);
    }

    #[test]
    fn live_snapshot_and_probe_access() {
        let a = archis_with_dead_era();
        let plan = plan_snapshot(&a, "employee", "salary", d("2001-06-01"), Some(1)).unwrap();
        assert!(plan.segnos.is_empty());
        assert!(plan.live);
        assert_eq!(plan.access, SegAccess::Probe);
        let hist = plan_history(&a, "employee", "salary", Some(1)).unwrap();
        assert_eq!(hist.segnos, vec![1]);
        assert!(hist.live);
        assert_eq!(hist.access, SegAccess::Probe);
        let drained = relstore::planner::take_plan_log();
        assert!(
            drained.iter().any(|e| e.table == "employee_salary"),
            "plans are logged for EXPLAIN: {drained:?}"
        );
    }

    #[test]
    fn window_prunes_dead_segments_but_keeps_reachable_live() {
        let a = archis_with_dead_era();
        // Window inside the dead era: pruned, and live is unreachable.
        let w = plan_window(&a, "employee", "salary", d("1994-01-01"), d("1996-01-01")).unwrap();
        assert!(w.segnos.is_empty());
        assert!(!w.live, "window ends before the live segment starts");
        // Window reaching past the archival touches live.
        let w2 = plan_window(&a, "employee", "salary", d("1994-01-01"), d("2005-01-01")).unwrap();
        assert!(w2.live);
    }
}
