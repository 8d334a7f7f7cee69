//! Cost-based access-path selection.
//!
//! A fixed rule (any indexable bound beats a sequential scan; equality
//! beats range) is selectivity-blind: it happily probes a secondary index
//! for a bound that matches the whole table, and it cannot tell a narrow
//! time slice from a full-history sweep. This module is the engine's one
//! access-path chooser, a small cost model in the classic System-R shape:
//!
//! * **Statistics** — per-segment rows, live/dead split, `tstart`/`tend`
//!   min-max, an equi-depth `tstart` histogram, distinct-key and
//!   compressed-block counts, persisted in the ordinary table
//!   [`STATS_TABLE`] (the `sqlite_stat1` trick: stats ride the same
//!   catalog, WAL and MVCC snapshots as the data they describe, so a
//!   pinned snapshot plans against the stats frozen at pin time).
//! * **Cost formulas** — sequential pages are cheap, random page fetches
//!   through a secondary index cost [`RANDOM_PAGE_COST`]× more, clustered
//!   ranges read only the covered fraction of the primary tree.
//! * **Selectivity** — segment bounds resolve against the per-segment row
//!   counts; temporal bounds interpolate the histogram; equality on a key
//!   column uses distinct counts (and, on a table without statistics, the
//!   row count: an equality probe through an index is taken for a key
//!   lookup); ranges without statistics fall back to textbook constants.
//!   A candidate may bind several leading columns of one key — an equality
//!   prefix plus at most one range — and multiplies their selectivities.
//!
//! The chooser is deliberately advisory: callers re-apply every predicate
//! as a filter, so a wrong estimate can only cost time, never correctness.
//! A [`ForcedPath`] (`Seq` | `Index` | `Cluster`) passed to
//! [`choose_path`] pins the decision so `tests/planner_equiv.rs` can prove
//! every path gives the same answer. The module holds no state: the
//! override is an argument of each call, and each decision comes back as
//! the [`PlanEntry`] of its [`Choice`], for the caller to hand on with its
//! result.

use crate::catalog::Database;
use crate::exec::JoinOrder;
use crate::table::Table;
use crate::value::{DataType, Field, Schema, Value};
use crate::{Result, StorageKind};
use std::fmt;
use std::ops::Bound;
use temporal::Date;

/// Name of the durable per-segment statistics table (created on demand by
/// the archiver through [`ensure_stats_table`]). Layout:
/// `(tbl, segno, nrows, nlive, tsmin, tsmax, temin, temax, dkeys, blocks, hist)`.
pub const STATS_TABLE: &str = "archis_segstats";

/// Secondary index on the stats table (`tbl` prefix lookups).
pub const STATS_INDEX: &str = "archis_segstats_by_tbl";

/// Number of equi-depth histogram buckets kept per segment.
pub const HIST_BUCKETS: usize = 8;

// --- cost constants -------------------------------------------------------
//
// Calibrated against a cold-device model of 25 µs per physical page: what
// matters is the *ratio* between sequential and random page costs, not
// the absolute scale.

/// Cost of one sequentially-read base page.
pub const SEQ_PAGE_COST: f64 = 1.0;

/// Cost of one randomly-fetched page (secondary-index row fetch).
pub const RANDOM_PAGE_COST: f64 = 4.0;

/// Per-row CPU cost (decode + predicate check) in page-cost units.
pub const CPU_ROW_COST: f64 = 0.01;

/// Fixed cost of a B+tree root-to-leaf descent.
pub const BTREE_DESCENT_COST: f64 = 3.0;

/// Index entries per leaf page (both index layouts pack hundreds of
/// small keys per 4 KiB page; 128 is deliberately conservative).
pub const INDEX_ENTRIES_PER_LEAF: f64 = 128.0;

/// Fallback rows-per-page estimate when a table's page count is unknown.
pub const ROWS_PER_PAGE_FALLBACK: f64 = 64.0;

// Fallback range selectivities when no statistics apply (textbook
// constants).
const RANGE_SEL_FALLBACK: f64 = 0.25;
const OPEN_RANGE_SEL_FALLBACK: f64 = 0.4;

/// The live segment's well-known number (mirrors `archis::LIVE_SEGNO`;
/// duplicated here because the stats layer sits below the core crate).
pub const LIVE_SEGNO: i64 = 1_000_000;

// ---------------------------------------------------------------------------
// Per-segment statistics
// ---------------------------------------------------------------------------

/// Statistics for one archived segment of one H-table (or, with
/// `segno == LIVE_SEGNO`, for the live segment).
#[derive(Debug, Clone, PartialEq)]
pub struct SegStat {
    /// H-table the segment belongs to.
    pub tbl: String,
    /// Segment number (archived segments count from 1).
    pub segno: i64,
    /// Total rows stored in the segment.
    pub rows: i64,
    /// Rows still open (`tend` = forever).
    pub live: i64,
    /// Minimum `tstart` over the segment's rows.
    pub tsmin: Date,
    /// Maximum `tstart` over the segment's rows.
    pub tsmax: Date,
    /// Minimum `tend` over the segment's rows.
    pub temin: Date,
    /// Maximum `tend` over the segment's rows.
    pub temax: Date,
    /// Estimated distinct key values in the segment.
    pub distinct_keys: i64,
    /// Compressed BlockZIP blocks holding the segment (0 = uncompressed).
    pub blocks: i64,
    /// Equi-depth histogram over `tstart`: ascending bucket upper bounds,
    /// each bucket holding ≈ `rows / len` rows. Empty when `rows == 0`.
    pub hist: Vec<Date>,
}

impl SegStat {
    /// Compute statistics from H-table segment rows shaped
    /// `(key, tstart, tend)` — callers project those three columns out of
    /// whatever row layout they hold. Rows need not be sorted.
    pub fn compute(tbl: &str, segno: i64, rows: &[(i64, Date, Date)]) -> SegStat {
        let n = rows.len() as i64;
        if rows.is_empty() {
            return SegStat {
                tbl: tbl.to_string(),
                segno,
                rows: 0,
                live: 0,
                tsmin: temporal::END_OF_TIME,
                tsmax: temporal::DAWN_OF_TIME,
                temin: temporal::END_OF_TIME,
                temax: temporal::DAWN_OF_TIME,
                distinct_keys: 0,
                blocks: 0,
                hist: Vec::new(),
            };
        }
        let mut tsmin = rows[0].1;
        let mut tsmax = rows[0].1;
        let mut temin = rows[0].2;
        let mut temax = rows[0].2;
        let mut live = 0i64;
        let mut keys: Vec<i64> = Vec::with_capacity(rows.len());
        let mut starts: Vec<Date> = Vec::with_capacity(rows.len());
        for &(k, ts, te) in rows {
            tsmin = tsmin.min(ts);
            tsmax = tsmax.max(ts);
            temin = temin.min(te);
            temax = temax.max(te);
            if te.is_forever() {
                live += 1;
            }
            keys.push(k);
            starts.push(ts);
        }
        keys.sort_unstable();
        keys.dedup();
        starts.sort_unstable();
        let buckets = HIST_BUCKETS.min(starts.len());
        let mut hist = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            // Upper bound of bucket b: the (b/buckets) quantile.
            let idx = (b * starts.len()) / buckets;
            hist.push(starts[idx.saturating_sub(1).min(starts.len() - 1)]);
        }
        SegStat {
            tbl: tbl.to_string(),
            segno,
            rows: n,
            live,
            tsmin,
            tsmax,
            temin,
            temax,
            distinct_keys: keys.len() as i64,
            blocks: 0,
            hist,
        }
    }

    /// Fold one more row into the statistics (used by the incremental
    /// maintenance paths that move single rows between segments). The
    /// histogram is left untouched — it stays an estimate until the next
    /// recompute — but the exact fields (`rows`, `live`, min/max bounds)
    /// are kept exact, which is what `archis-fsck` audits.
    pub fn absorb(&mut self, _key: i64, tstart: Date, tend: Date) {
        self.rows += 1;
        if tend.is_forever() {
            self.live += 1;
        }
        self.tsmin = self.tsmin.min(tstart);
        self.tsmax = self.tsmax.max(tstart);
        self.temin = self.temin.min(tend);
        self.temax = self.temax.max(tend);
    }

    /// Serialize to the [`STATS_TABLE`] row layout.
    pub fn to_row(&self) -> Vec<Value> {
        let hist = self
            .hist
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("|");
        vec![
            Value::Str(self.tbl.clone()),
            Value::Int(self.segno),
            Value::Int(self.rows),
            Value::Int(self.live),
            Value::Date(self.tsmin),
            Value::Date(self.tsmax),
            Value::Date(self.temin),
            Value::Date(self.temax),
            Value::Int(self.distinct_keys),
            Value::Int(self.blocks),
            Value::Str(hist),
        ]
    }

    /// Decode a [`STATS_TABLE`] row; `None` if the row is malformed.
    pub fn from_row(row: &[Value]) -> Option<SegStat> {
        if row.len() != 11 {
            return None;
        }
        let date = |v: &Value| -> Option<Date> {
            match v {
                Value::Date(d) => Some(*d),
                _ => None,
            }
        };
        let int = |v: &Value| v.as_int();
        let hist_str = match &row[10] {
            Value::Str(s) => s.clone(),
            _ => return None,
        };
        let mut hist = Vec::new();
        if !hist_str.is_empty() {
            for part in hist_str.split('|') {
                hist.push(Date::parse(part).ok()?);
            }
        }
        Some(SegStat {
            tbl: match &row[0] {
                Value::Str(s) => s.clone(),
                _ => return None,
            },
            segno: int(&row[1])?,
            rows: int(&row[2])?,
            live: int(&row[3])?,
            tsmin: date(&row[4])?,
            tsmax: date(&row[5])?,
            temin: date(&row[6])?,
            temax: date(&row[7])?,
            distinct_keys: int(&row[8])?,
            blocks: int(&row[9])?,
            hist,
        })
    }

    /// Estimated fraction of this segment's rows with
    /// `tstart <= hi && tend >= lo` (overlap with `[lo, hi]`). Exact
    /// min/max bounds short-circuit to 0 when no overlap is possible.
    pub fn overlap_fraction(&self, lo: Date, hi: Date) -> f64 {
        if self.rows == 0 || self.tsmin > hi || self.temax < lo {
            return 0.0;
        }
        // Fraction with tstart <= hi, from the histogram when present.
        let start_frac = self.tstart_le_fraction(hi);
        // Fraction with tend >= lo by linear interpolation on [temin, temax].
        let end_frac = if lo <= self.temin {
            1.0
        } else if lo > self.temax {
            0.0
        } else {
            let span = (self.temax.day_number() - self.temin.day_number()).max(1) as f64;
            let above = (self.temax.day_number() - lo.day_number()).max(0) as f64;
            (above / span).clamp(0.0, 1.0)
        };
        (start_frac * end_frac).clamp(0.0, 1.0)
    }

    /// Estimated fraction of rows with `tstart <= d` (equi-depth
    /// histogram walk; falls back to min/max interpolation).
    pub fn tstart_le_fraction(&self, d: Date) -> f64 {
        if d < self.tsmin {
            return 0.0;
        }
        if d >= self.tsmax {
            return 1.0;
        }
        if !self.hist.is_empty() {
            let below = self.hist.iter().filter(|&&b| b <= d).count();
            return (below as f64 / self.hist.len() as f64).clamp(0.0, 1.0);
        }
        let span = (self.tsmax.day_number() - self.tsmin.day_number()).max(1) as f64;
        let below = (d.day_number() - self.tsmin.day_number()).max(0) as f64;
        (below / span).clamp(0.0, 1.0)
    }
}

/// Schema of the stats table.
pub fn stats_schema() -> Schema {
    Schema::new(vec![
        Field::new("tbl", DataType::Str),
        Field::new("segno", DataType::Int),
        Field::new("nrows", DataType::Int),
        Field::new("nlive", DataType::Int),
        Field::new("tsmin", DataType::Date),
        Field::new("tsmax", DataType::Date),
        Field::new("temin", DataType::Date),
        Field::new("temax", DataType::Date),
        Field::new("dkeys", DataType::Int),
        Field::new("blocks", DataType::Int),
        Field::new("hist", DataType::Str),
    ])
}

/// Create the stats table (heap, indexed by `tbl`) if it does not exist.
pub fn ensure_stats_table(db: &Database) -> Result<()> {
    if db.has_table(STATS_TABLE) {
        return Ok(());
    }
    let t = db.create_table(STATS_TABLE, stats_schema(), StorageKind::Heap, &[])?;
    t.create_index(STATS_INDEX, &["tbl"])?;
    Ok(())
}

/// All persisted segment stats for one H-table, ascending by segment.
/// Returns an empty vector when the stats table (or the entry) is absent
/// or unreadable — statistics are advisory and must never fail a query.
pub fn load_stats(db: &Database, tbl: &str) -> Vec<SegStat> {
    let Ok(t) = db.table(STATS_TABLE) else {
        return Vec::new();
    };
    let key = [Value::Str(tbl.to_string())];
    let Ok(rows) = t.index_lookup(STATS_INDEX, &key) else {
        return Vec::new();
    };
    let mut out: Vec<SegStat> = rows.iter().filter_map(|r| SegStat::from_row(r)).collect();
    out.sort_by_key(|s| s.segno);
    out
}

/// Replace the persisted stats row(s) for `(tbl, segno)` with `stat`.
pub fn store_stat(db: &Database, stat: &SegStat) -> Result<()> {
    ensure_stats_table(db)?;
    let t = db.table(STATS_TABLE)?;
    let pred_tbl = Value::Str(stat.tbl.clone());
    let pred_seg = Value::Int(stat.segno);
    t.delete_where(|row| row.first() == Some(&pred_tbl) && row.get(1) == Some(&pred_seg))?;
    t.insert(stat.to_row())?;
    Ok(())
}

/// Drop all persisted stats rows for one H-table.
pub fn clear_stats(db: &Database, tbl: &str) -> Result<()> {
    if !db.has_table(STATS_TABLE) {
        return Ok(());
    }
    let t = db.table(STATS_TABLE)?;
    let pred = Value::Str(tbl.to_string());
    t.delete_where(|row| row.first() == Some(&pred))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Forced access paths and plan entries (EXPLAIN)
// ---------------------------------------------------------------------------

/// An access-path override, passed to [`choose_path`] per call. Tests
/// force each one to prove every path returns the cost-based plan's
/// answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedPath {
    /// Always scan the base storage sequentially.
    Seq,
    /// Always take a secondary-index range when one is available.
    Index,
    /// Always take the clustered-primary range when one is available.
    Cluster,
}

/// One access-path decision, made per scanned table, or one join
/// ([`PlanEntry::join`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// Table scanned.
    pub table: String,
    /// Chosen path, e.g. `seq`, `index(employee_salary_by_seg)`,
    /// `cluster(segno)`.
    pub path: String,
    /// Estimated rows produced by the access path (before residual
    /// filters); 0 for a join.
    pub est_rows: f64,
    /// Estimated physical pages touched.
    pub est_pages: f64,
    /// Total estimated cost in page-cost units.
    pub cost: f64,
    /// What made the decision: `cost` or `forced:<path>`; for a join,
    /// `row order` (the statement returns rows) or `order-free`.
    pub chosen_by: &'static str,
}

impl PlanEntry {
    /// The entry of a hash join of `left` (the tables joined so far, as
    /// `a⋈b`) with the table `right`: `path` names the input hashed, the
    /// input streamed and the output order — `key` (sort-merge order) or
    /// `probe` (the streamed input's order). Joins carry no estimates of
    /// their own: `est_rows`, `est_pages` and `cost` are 0, so sums over
    /// the log are those of its scans.
    pub fn join(left: &str, right: &str, order: JoinOrder) -> Self {
        let (build, probe, order, chosen_by) = match order {
            JoinOrder::Key => (right, left, "key", "row order"),
            JoinOrder::Probe => (left, right, "probe", "order-free"),
        };
        PlanEntry {
            table: format!("{left}⋈{right}"),
            path: format!("hash(build={build}, probe={probe}, order={order})"),
            est_rows: 0.0,
            est_pages: 0.0,
            cost: 0.0,
            chosen_by,
        }
    }
}

impl fmt::Display for PlanEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: path={} est_rows={:.0} est_pages={:.1} cost={:.1} [{}]",
            if self.path.starts_with("hash(") {
                "join"
            } else {
                "scan"
            },
            self.table,
            self.path,
            self.est_rows,
            self.est_pages,
            self.cost,
            self.chosen_by
        )
    }
}

/// Format a query's plan as an EXPLAIN-style dump, one entry per line.
pub fn explain(entries: &[PlanEntry]) -> String {
    entries
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------------------
// Table profiles and candidates
// ---------------------------------------------------------------------------

/// What the cost model knows about one table.
#[derive(Debug, Clone)]
pub struct TableProfile {
    /// Table name.
    pub name: String,
    /// Live row count (from the table's cached counter).
    pub rows: f64,
    /// Base-storage pages (heap chain or clustered-tree pages, indexes
    /// excluded — a sequential scan never touches them).
    pub base_pages: f64,
    /// Per-segment statistics, empty for non-H-tables (or before the
    /// first archive populated them).
    pub segs: Vec<SegStat>,
}

impl TableProfile {
    /// Profile `table`, loading persisted segment stats from `db`. Row and
    /// page counts come from the table's recorded counters, so the only
    /// pages this reads are the stats table's.
    pub fn of(db: &Database, table: &Table) -> TableProfile {
        let rows = table.row_count() as f64;
        let base_pages = table
            .base_page_count()
            .map(|p| p as f64)
            .unwrap_or_else(|_| (rows / ROWS_PER_PAGE_FALLBACK).ceil().max(1.0));
        let segs = if table.name() == STATS_TABLE {
            Vec::new()
        } else {
            load_stats(db, table.name())
        };
        TableProfile {
            name: table.name().to_string(),
            rows,
            base_pages: base_pages.max(1.0),
            segs,
        }
    }

    /// Profile without statistics (tests, stats-free tables).
    pub fn bare(name: &str, rows: u64, base_pages: u64) -> TableProfile {
        TableProfile {
            name: name.to_string(),
            rows: rows as f64,
            base_pages: (base_pages as f64).max(1.0),
            segs: Vec::new(),
        }
    }
}

/// How a candidate reaches rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Sequential scan of base storage.
    Seq,
    /// Secondary B+tree range, fetching rows one at a time.
    Index,
    /// Range over the clustered primary B+tree.
    Cluster,
}

/// The merged bounds the pushed-down predicates put on one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBound {
    /// The bounded column.
    pub column: String,
    /// Whether an equality bound participates (then `lo == hi`).
    pub eq: bool,
    /// Lower bound.
    pub lo: Bound<Value>,
    /// Upper bound.
    pub hi: Bound<Value>,
}

impl ColumnBound {
    /// The value an equality bound pins the column to.
    fn eq_value(&self) -> Option<&Value> {
        match (&self.lo, self.eq) {
            (Bound::Included(v), true) => Some(v),
            _ => None,
        }
    }
}

/// One way to reach rows through a key (a secondary index or the clustered
/// primary key): the leading key columns the predicates bind.
#[derive(Debug, Clone)]
pub struct ScanCandidate {
    /// `Index` or `Cluster` (a `Seq` candidate is always implicit).
    pub kind: PathKind,
    /// Secondary-index name for `Index` candidates.
    pub index: Option<String>,
    /// Bounds on the key's leading columns, in key order: every column
    /// but the last is bound by equality, the last by equality or a
    /// range. Never empty.
    pub bounds: Vec<ColumnBound>,
}

impl ScanCandidate {
    /// The bounds usable on `key_columns` (a key's columns in key order):
    /// the longest equality prefix, plus a range on the column after it if
    /// there is one. Empty when the leading column is unbound.
    pub fn usable_bounds(key_columns: &[String], bounded: &[ColumnBound]) -> Vec<ColumnBound> {
        let mut out = Vec::new();
        for col in key_columns {
            let Some(b) = bounded.iter().find(|b| b.column == *col) else {
                break;
            };
            out.push(b.clone());
            if b.eq_value().is_none() {
                break;
            }
        }
        out
    }

    /// The composite key interval to scan: the equality prefix's values
    /// followed by the last column's bound. A prefix is a valid bound on
    /// longer keys — an inclusive upper bound covers every key that
    /// extends it — so the interval is a superset of the matching keys.
    pub fn key_range(&self) -> (Bound<Vec<Value>>, Bound<Vec<Value>>) {
        let (last, prefix) = match self.bounds.split_last() {
            Some(split) => split,
            None => return (Bound::Unbounded, Bound::Unbounded),
        };
        let prefix: Vec<Value> = prefix
            .iter()
            .filter_map(|b| b.eq_value().cloned())
            .collect();
        let extend = |b: &Bound<Value>| -> Bound<Vec<Value>> {
            let with = |v: &Value| prefix.iter().cloned().chain([v.clone()]).collect();
            match b {
                Bound::Included(v) => Bound::Included(with(v)),
                Bound::Excluded(v) => Bound::Excluded(with(v)),
                Bound::Unbounded if prefix.is_empty() => Bound::Unbounded,
                Bound::Unbounded => Bound::Included(prefix.clone()),
            }
        };
        (extend(&last.lo), extend(&last.hi))
    }

    /// The bound columns, comma-separated (EXPLAIN label).
    fn columns(&self) -> String {
        let cols: Vec<&str> = self.bounds.iter().map(|b| b.column.as_str()).collect();
        cols.join(",")
    }
}

/// The chooser's verdict.
#[derive(Debug, Clone)]
pub struct Choice {
    /// Selected path kind.
    pub kind: PathKind,
    /// Index of the winning candidate in the input slice (`None` = seq).
    pub candidate: Option<usize>,
    /// EXPLAIN record for this decision.
    pub entry: PlanEntry,
}

/// Estimated fraction of rows a candidate's bounds let through: the
/// product of its columns' selectivities (independence), never less than
/// one row's worth.
pub fn selectivity(profile: &TableProfile, cand: &ScanCandidate) -> f64 {
    let sel: f64 = cand
        .bounds
        .iter()
        .map(|b| column_selectivity(profile, b))
        .product();
    sel.clamp(1.0 / profile.rows.max(1.0), 1.0)
}

/// Estimated fraction of rows matching one column's bound.
pub fn column_selectivity(profile: &TableProfile, bound: &ColumnBound) -> f64 {
    let ColumnBound { column, eq, lo, hi } = bound;
    let rows = profile.rows.max(1.0);
    if !profile.segs.is_empty() {
        match column.as_str() {
            "segno" => {
                let mut matched = 0.0;
                let mut counted = 0.0;
                for s in &profile.segs {
                    counted += s.rows as f64;
                    if int_in_bounds(s.segno, lo, hi) {
                        matched += s.rows as f64;
                    }
                }
                // Rows not covered by any stats entry (for H-tables, the
                // live segment) count as matched only if LIVE_SEGNO is in
                // bounds.
                let residual = (rows - counted).max(0.0);
                let has_live_stat = profile.segs.iter().any(|s| s.segno == LIVE_SEGNO);
                if !has_live_stat && int_in_bounds(LIVE_SEGNO, lo, hi) {
                    matched += residual;
                }
                return (matched / rows).clamp(0.0, 1.0);
            }
            "tstart" => {
                if let (Some(dlo), Some(dhi)) = (date_bound(lo), date_bound(hi)) {
                    let mut matched = 0.0;
                    for s in &profile.segs {
                        let le_hi = dhi.map_or(1.0, |d| s.tstart_le_fraction(d));
                        let lt_lo = dlo.map_or(0.0, |d| s.tstart_le_fraction(d.pred()));
                        matched += (le_hi - lt_lo).max(0.0) * s.rows as f64;
                    }
                    return (matched / rows).clamp(0.0, 1.0);
                }
            }
            "tend" => {
                if let (Some(dlo), Some(dhi)) = (date_bound(lo), date_bound(hi)) {
                    let mut matched = 0.0;
                    for s in &profile.segs {
                        // Linear interpolation on [temin, temax].
                        let span = (s.temax.day_number() - s.temin.day_number()).max(1) as f64;
                        let ge_lo = match dlo {
                            None => 1.0,
                            Some(d) if d <= s.temin => 1.0,
                            Some(d) if d > s.temax => 0.0,
                            Some(d) => (s.temax.day_number() - d.day_number()).max(0) as f64 / span,
                        };
                        let gt_hi = match dhi {
                            None => 0.0,
                            Some(d) if d >= s.temax => 0.0,
                            Some(d) if d < s.temin => 1.0,
                            Some(d) => (s.temax.day_number() - d.day_number()).max(0) as f64 / span,
                        };
                        matched += (ge_lo - gt_hi).max(0.0) * s.rows as f64;
                    }
                    return (matched / rows).clamp(0.0, 1.0);
                }
            }
            _ => {
                if *eq {
                    // Equality on a key-ish column: distinct estimate. Keys
                    // recur across segments (live rows are carried
                    // forward), so the table-wide distinct count is close
                    // to the largest per-segment count, not the sum.
                    let distinct = profile
                        .segs
                        .iter()
                        .map(|s| s.distinct_keys)
                        .max()
                        .unwrap_or(0)
                        .max(1) as f64;
                    return (1.0 / distinct).clamp(1.0 / rows, 1.0);
                }
            }
        }
    }
    // No statistics. Candidates bind key columns only, and the one thing
    // known about a key is its tree's entry count — the table's row
    // counter: an equality probe is priced as a key lookup, one entry of
    // that many. A wrong guess costs time, bounded by the fetch cap in
    // `candidate_cost`, never rows.
    if *eq {
        1.0 / rows
    } else {
        match (lo, hi) {
            (Bound::Unbounded, Bound::Unbounded) => 1.0,
            (Bound::Unbounded, _) | (_, Bound::Unbounded) => OPEN_RANGE_SEL_FALLBACK,
            _ => RANGE_SEL_FALLBACK,
        }
    }
}

fn int_in_bounds(v: i64, lo: &Bound<Value>, hi: &Bound<Value>) -> bool {
    let lo_ok = match lo {
        Bound::Unbounded => true,
        Bound::Included(Value::Int(l)) => v >= *l,
        Bound::Excluded(Value::Int(l)) => v > *l,
        _ => true,
    };
    let hi_ok = match hi {
        Bound::Unbounded => true,
        Bound::Included(Value::Int(h)) => v <= *h,
        Bound::Excluded(Value::Int(h)) => v < *h,
        _ => true,
    };
    lo_ok && hi_ok
}

/// Extract a date from a bound; `Ok(None)` for unbounded, `None` (outer)
/// when the bound is not a date at all.
#[allow(clippy::option_option)]
fn date_bound(b: &Bound<Value>) -> Option<Option<Date>> {
    match b {
        Bound::Unbounded => Some(None),
        Bound::Included(Value::Date(d)) => Some(Some(*d)),
        Bound::Excluded(Value::Date(d)) => Some(Some(*d)),
        _ => None,
    }
}

/// Cost of a sequential scan.
pub fn seq_cost(profile: &TableProfile) -> f64 {
    profile.base_pages * SEQ_PAGE_COST + profile.rows * CPU_ROW_COST
}

/// Cost of one candidate path given its selectivity.
fn candidate_cost(profile: &TableProfile, cand: &ScanCandidate, sel: f64) -> (f64, f64, f64) {
    let est_rows = sel * profile.rows;
    match cand.kind {
        PathKind::Seq => (seq_cost(profile), profile.rows, profile.base_pages),
        PathKind::Cluster => {
            let pages = (sel * profile.base_pages).ceil();
            let cost = BTREE_DESCENT_COST + pages * SEQ_PAGE_COST + est_rows * CPU_ROW_COST;
            (cost, est_rows, pages + BTREE_DESCENT_COST)
        }
        PathKind::Index => {
            let leaf_pages = (est_rows / INDEX_ENTRIES_PER_LEAF).ceil();
            // Archived segments are written contiguously at archival time
            // (the paper's §6 segment clustering), so a `segno` range that
            // stays below the live segment walks sequential runs — price
            // it like a clustered range (a segment is sorted by id, so
            // binding the id as well only shortens the run). The live
            // segment is mutation churn and gets no such break.
            let archived_run = !profile.segs.is_empty()
                && cand.bounds.first().is_some_and(|b| {
                    b.column == "segno" && !int_in_bounds(LIVE_SEGNO, &b.lo, &b.hi)
                });
            if archived_run {
                let pages = (sel * profile.base_pages).ceil();
                let cost = BTREE_DESCENT_COST
                    + (leaf_pages + pages) * SEQ_PAGE_COST
                    + est_rows * CPU_ROW_COST;
                return (cost, est_rows, BTREE_DESCENT_COST + leaf_pages + pages);
            }
            // Row fetches are random single-page reads; k rows scattered
            // over P pages land on P·(1 − (1 − 1/P)^k) distinct ones
            // (Cardenas) — about k while k ≪ P, never more than P.
            let p = profile.base_pages;
            let fetch_pages = p * (1.0 - (1.0 - 1.0 / p).powf(est_rows));
            let cost = BTREE_DESCENT_COST
                + leaf_pages * SEQ_PAGE_COST
                + fetch_pages * RANDOM_PAGE_COST
                + est_rows * CPU_ROW_COST;
            (
                cost,
                est_rows,
                BTREE_DESCENT_COST + leaf_pages + fetch_pages,
            )
        }
    }
}

fn path_label(cand: Option<&ScanCandidate>) -> String {
    match cand {
        None => "seq".to_string(),
        Some(c) => match c.kind {
            PathKind::Seq => "seq".to_string(),
            PathKind::Cluster => format!("cluster({})", c.columns()),
            PathKind::Index => format!("index({})", c.index.clone().unwrap_or_else(|| c.columns())),
        },
    }
}

/// Pick an access path for one table scan.
///
/// `candidates` lists first one single-column entry per bounded leading
/// key column, in the order the bounds appear in the predicate list, then
/// the multi-column ones. A sequential scan is always considered
/// implicitly. `forced` overrides the cost model; the decision comes back
/// as the choice's [`PlanEntry`].
pub fn choose_path(
    profile: &TableProfile,
    candidates: &[ScanCandidate],
    forced: Option<ForcedPath>,
) -> Choice {
    let (winner, chosen_by) = match forced {
        Some(ForcedPath::Seq) => (None, "forced:seq"),
        Some(ForcedPath::Index) => {
            let idx = pick_cheapest(profile, candidates, Some(PathKind::Index));
            (idx, "forced:index")
        }
        Some(ForcedPath::Cluster) => {
            let idx = pick_cheapest(profile, candidates, Some(PathKind::Cluster));
            (idx, "forced:cluster")
        }
        None => (pick_cheapest(profile, candidates, None), "cost"),
    };
    let cand = winner.map(|i| &candidates[i]);
    let sel = cand.map_or(1.0, |c| selectivity(profile, c));
    let (cost, est_rows, est_pages) = match cand {
        None => (seq_cost(profile), profile.rows, profile.base_pages),
        Some(c) => candidate_cost(profile, c, sel),
    };
    let entry = PlanEntry {
        table: profile.name.clone(),
        path: path_label(cand),
        est_rows,
        est_pages,
        cost,
        chosen_by,
    };
    Choice {
        kind: cand.map_or(PathKind::Seq, |c| c.kind),
        candidate: winner,
        entry,
    }
}

/// Cheapest candidate by the cost model; `None` when the sequential scan
/// wins (or, with `only` set, when no candidate of that kind exists).
fn pick_cheapest(
    profile: &TableProfile,
    candidates: &[ScanCandidate],
    only: Option<PathKind>,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in candidates.iter().enumerate() {
        if let Some(k) = only {
            if c.kind != k {
                continue;
            }
        }
        let (cost, _, _) = candidate_cost(profile, c, selectivity(profile, c));
        if best.is_none_or(|(_, b)| cost < b) {
            best = Some((i, cost));
        }
    }
    match only {
        // Forced kinds take the best candidate of that kind, whatever the
        // cost (that is the point of forcing).
        Some(_) => best.map(|(i, _)| i),
        None => {
            let seq = seq_cost(profile);
            best.and_then(|(i, c)| if c < seq { Some(i) } else { None })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn bound(column: &str, eq: bool, lo: Bound<Value>, hi: Bound<Value>) -> ColumnBound {
        ColumnBound {
            column: column.into(),
            eq,
            lo,
            hi,
        }
    }

    fn eq_bound(column: &str, v: i64) -> ColumnBound {
        bound(
            column,
            true,
            Bound::Included(Value::Int(v)),
            Bound::Included(Value::Int(v)),
        )
    }

    /// An H-table of ten archived segments, 1 000 rows and 1 000 distinct
    /// keys each, on 200 pages.
    fn ten_segment_profile() -> TableProfile {
        let rows: Vec<(i64, Date, Date)> = (0..1000)
            .map(|i| (i, d("1990-01-01"), d("1995-01-01")))
            .collect();
        TableProfile {
            name: "t".into(),
            rows: 10_000.0,
            base_pages: 200.0,
            segs: (1..=10)
                .map(|sn| SegStat::compute("t", sn, &rows))
                .collect(),
        }
    }

    fn index_cand(index: &str, bounds: Vec<ColumnBound>) -> ScanCandidate {
        ScanCandidate {
            kind: PathKind::Index,
            index: Some(index.into()),
            bounds,
        }
    }

    #[test]
    fn segstat_roundtrip_and_compute() {
        let rows: Vec<(i64, Date, Date)> = (0..100)
            .map(|i| {
                (
                    i % 10,
                    Date::from_day_number(d("1990-01-01").day_number() + (i as i32) * 30),
                    if i % 4 == 0 {
                        temporal::END_OF_TIME
                    } else {
                        d("1999-06-30")
                    },
                )
            })
            .collect();
        let s = SegStat::compute("emp_salary", 3, &rows);
        assert_eq!(s.rows, 100);
        assert_eq!(s.live, 25);
        assert_eq!(s.distinct_keys, 10);
        assert_eq!(s.tsmin, d("1990-01-01"));
        assert_eq!(s.hist.len(), HIST_BUCKETS);
        let back = SegStat::from_row(&s.to_row()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn stats_persist_through_database() {
        let db = Database::in_memory();
        let s = SegStat::compute("t_a", 1, &[(1, d("1990-01-01"), d("1991-01-01"))]);
        store_stat(&db, &s).unwrap();
        let loaded = load_stats(&db, "t_a");
        assert_eq!(loaded, vec![s.clone()]);
        // Overwrite, not duplicate.
        let mut s2 = s.clone();
        s2.rows = 7;
        store_stat(&db, &s2).unwrap();
        assert_eq!(load_stats(&db, "t_a"), vec![s2]);
        clear_stats(&db, "t_a").unwrap();
        assert!(load_stats(&db, "t_a").is_empty());
    }

    #[test]
    fn cost_model_prefers_seq_for_unselective_index() {
        let profile = TableProfile::bare("t", 100_000, 1_600);
        let cand = index_cand(
            "by_id",
            vec![bound(
                "id",
                false,
                Bound::Included(Value::Int(0)),
                Bound::Unbounded,
            )],
        );
        let choice = choose_path(&profile, &[cand], None);
        assert_eq!(choice.kind, PathKind::Seq, "sel≈0.4 range must not probe");
    }

    #[test]
    fn cost_model_prefers_index_for_narrow_eq() {
        let profile = TableProfile::bare("t", 100_000, 1_600);
        let cand = index_cand(
            "by_id",
            vec![bound(
                "id",
                true,
                Bound::Included(Value::Int(42)),
                Bound::Included(Value::Int(42)),
            )],
        );
        let choice = choose_path(&profile, &[cand], None);
        assert_eq!(choice.kind, PathKind::Index);
    }

    #[test]
    fn segment_stats_drive_segno_selectivity() {
        let profile = ten_segment_profile();
        // One segment out of ten.
        let sel = column_selectivity(&profile, &eq_bound("segno", 3));
        assert!((sel - 0.1).abs() < 1e-9, "sel {sel}");
        // All segments.
        let sel_all = column_selectivity(
            &profile,
            &bound(
                "segno",
                false,
                Bound::Included(Value::Int(1)),
                Bound::Unbounded,
            ),
        );
        assert!((sel_all - 1.0).abs() < 1e-9, "sel {sel_all}");
        // One id within one segment: the columns' selectivities multiply
        // (1/10 of the rows × 1/1000 distinct keys = one row).
        let point = index_cand("by_seg", vec![eq_bound("segno", 3), eq_bound("id", 7)]);
        assert!((selectivity(&profile, &point) * profile.rows - 1.0).abs() < 1e-9);
    }

    #[test]
    fn usable_bounds_take_an_equality_prefix_then_one_range() {
        let key: Vec<String> = ["segno", "id", "tstart"].map(String::from).to_vec();
        let range = |c: &str| {
            bound(
                c,
                false,
                Bound::Included(Value::Int(2)),
                Bound::Excluded(Value::Int(9)),
            )
        };
        let cols = |bs: &[ColumnBound]| -> Vec<String> {
            ScanCandidate::usable_bounds(&key, bs)
                .iter()
                .map(|b| b.column.clone())
                .collect()
        };
        // Leading column unbound: the key is unusable.
        assert!(cols(&[eq_bound("id", 1)]).is_empty());
        // Equality prefix extends as far as equalities go...
        assert_eq!(
            cols(&[eq_bound("id", 1), eq_bound("segno", 4)]),
            ["segno", "id"]
        );
        // ...a range ends it, whatever is bound behind it.
        assert_eq!(cols(&[range("segno"), eq_bound("id", 1)]), ["segno"]);
        assert_eq!(
            cols(&[eq_bound("segno", 4), range("id"), eq_bound("tstart", 0)]),
            ["segno", "id"]
        );

        let point = index_cand("k", vec![eq_bound("segno", 4), eq_bound("id", 1)]);
        let both = vec![Value::Int(4), Value::Int(1)];
        assert_eq!(
            point.key_range(),
            (Bound::Included(both.clone()), Bound::Included(both))
        );
        let ranged = index_cand("k", vec![eq_bound("segno", 4), range("id")]);
        assert_eq!(
            ranged.key_range(),
            (
                Bound::Included(vec![Value::Int(4), Value::Int(2)]),
                Bound::Excluded(vec![Value::Int(4), Value::Int(9)])
            )
        );
        // An open side falls back to the prefix alone.
        let open = index_cand(
            "k",
            vec![
                eq_bound("segno", 4),
                bound(
                    "id",
                    false,
                    Bound::Unbounded,
                    Bound::Excluded(Value::Int(9)),
                ),
            ],
        );
        assert_eq!(open.key_range().0, Bound::Included(vec![Value::Int(4)]));
    }

    #[test]
    fn cost_and_forced_index_take_the_composite_candidate() {
        let profile = ten_segment_profile();
        let cands = [
            index_cand("by_seg", vec![eq_bound("segno", 3)]),
            index_cand("by_id", vec![eq_bound("id", 7)]),
            index_cand("by_seg", vec![eq_bound("segno", 3), eq_bound("id", 7)]),
        ];
        // Cost-based and forced `index` both take the point access.
        assert_eq!(choose_path(&profile, &cands, None).candidate, Some(2));
        let forced = choose_path(&profile, &cands, Some(ForcedPath::Index));
        assert_eq!(forced.candidate, Some(2));
        assert_eq!(forced.entry.chosen_by, "forced:index");
        let entry = choose_path(&profile, &cands, None).entry;
        assert_eq!(entry.path, "index(by_seg)");
        assert!(entry.est_rows < 2.0 && entry.est_pages < 10.0, "{entry}");
    }

    #[test]
    fn stats_free_equality_is_priced_as_a_key_lookup() {
        // A small key table: eleven pages, no statistics. The probe must
        // win over reading all of it.
        let profile = TableProfile::bare("employee_id", 1_148, 11);
        let cand = index_cand("employee_id_by_id", vec![eq_bound("id", 100_104)]);
        let choice = choose_path(&profile, std::slice::from_ref(&cand), None);
        assert_eq!(choice.kind, PathKind::Index);
        assert!(choice.entry.est_rows <= 1.0 + 1e-9);
    }

    #[test]
    fn forced_paths_override_cost() {
        let profile = TableProfile::bare("t", 100_000, 1_600);
        let cand = index_cand(
            "by_id",
            vec![bound(
                "id",
                false,
                Bound::Included(Value::Int(0)),
                Bound::Unbounded,
            )],
        );
        let cands = std::slice::from_ref(&cand);
        let c = choose_path(&profile, cands, Some(ForcedPath::Index));
        assert_eq!(c.kind, PathKind::Index);
        let c = choose_path(&profile, cands, Some(ForcedPath::Seq));
        assert_eq!(c.kind, PathKind::Seq);
    }

    #[test]
    fn overlap_fraction_prunes_disjoint_windows() {
        let rows: Vec<(i64, Date, Date)> = (0..100)
            .map(|i| {
                (
                    i,
                    Date::from_day_number(d("1995-01-01").day_number() + i as i32),
                    Date::from_day_number(d("1996-01-01").day_number() + i as i32),
                )
            })
            .collect();
        let s = SegStat::compute("t", 1, &rows);
        // Window entirely before the first tstart: prunable.
        assert_eq!(s.overlap_fraction(d("1990-01-01"), d("1994-12-31")), 0.0);
        // Window after every tend: prunable.
        assert_eq!(s.overlap_fraction(d("1997-01-01"), d("1999-01-01")), 0.0);
        // Window covering everything: full.
        assert!(s.overlap_fraction(d("1990-01-01"), d("1999-01-01")) > 0.99);
    }

    #[test]
    fn explain_formats_plan_entries() {
        let profile = TableProfile::bare("emp", 1000, 16);
        let plan = [
            choose_path(&profile, &[], None).entry,
            choose_path(&profile, &[], Some(ForcedPath::Seq)).entry,
        ];
        let text = explain(&plan);
        assert!(text.contains("scan emp: path=seq"), "{text}");
        assert!(text.contains("[cost]"), "{text}");
        assert!(text.contains("[forced:seq]"), "{text}");
    }
}
