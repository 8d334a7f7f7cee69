//! Update tracking and usefulness-based segment clustering
//! (paper §5.2 and §6).
//!
//! Changes to the current database arrive as [`Change`]s — either applied
//! immediately (the trigger path used on ArchIS-DB2) or buffered in an
//! [`UpdateLog`] and replayed (the log path used on ArchIS-ATLaS). Each
//! change maintains the current table *and* the H-tables:
//!
//! * insert ⇒ open periods (`[at, ∞]`) in the key table and in every
//!   attribute table,
//! * update ⇒ for **changed attributes only**, close the open period at
//!   `at − 1` and open a new one — unchanged attributes keep their period
//!   growing, which is exactly the temporal grouping that removes
//!   coalescing from query results (paper §3),
//! * delete ⇒ close every open period.
//!
//! Attribute tables are segment-clustered: live rows sit in the segment
//! [`LIVE_SEGNO`]; when usefulness `U = Nlive/Nall` of the live segment
//! drops below `Umin`, [`Archiver::maybe_archive`] runs the paper's
//! archival procedure (copy everything into a new numbered segment sorted
//! by id, carry only live rows forward, record the segment's interval).
//!
//! Segment scans here go through [`relstore::Table::index_lookup`] /
//! index range streams, which walk the B+tree leaf chain and fetch each
//! row on demand on the caller's thread: copying a whole live segment
//! during archival, or walking an archived segment's rows, reads the
//! segment's pages in clustered order.

use crate::htable::{self, LIVE_SEGNO};
use crate::spec::RelationSpec;
use crate::{ArchError, Result};
use parking_lot::Mutex;
use relstore::planner::{self, SegStat};
use relstore::value::Value;
use relstore::{Database, StorageKind};
use std::collections::HashMap;
use temporal::{Date, END_OF_TIME};

/// Fold one row that just moved into archived segment `segno` of `tname`
/// into that segment's statistics entry, keeping the exact fields (row
/// count, live count, tstart/tend min-max) in sync with the data. Rows
/// only move into archived segments on the rare same-day-as-archival
/// close paths, so a read-modify-write per moved row is fine.
fn absorb_into_stat(
    db: &Database,
    tname: &str,
    segno: i64,
    key: i64,
    ts: Date,
    te: Date,
) -> Result<()> {
    planner::ensure_stats_table(db)?;
    let mut stat = planner::load_stats(db, tname)
        .into_iter()
        .find(|s| s.segno == segno)
        .unwrap_or_else(|| SegStat::compute(tname, segno, &[]));
    stat.absorb(key, ts, te);
    planner::store_stat(db, &stat)?;
    Ok(())
}

/// One tracked change to the current database.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// A new tuple.
    Insert {
        /// Relation name.
        relation: String,
        /// Key value.
        key: i64,
        /// Attribute values (missing attributes stay NULL).
        values: Vec<(String, Value)>,
        /// Transaction date.
        at: Date,
    },
    /// Attribute updates on a current tuple.
    Update {
        /// Relation name.
        relation: String,
        /// Key value.
        key: i64,
        /// Changed attributes (NULL = attribute removed).
        changes: Vec<(String, Value)>,
        /// Transaction date.
        at: Date,
    },
    /// Removal of a current tuple.
    Delete {
        /// Relation name.
        relation: String,
        /// Key value.
        key: i64,
        /// Transaction date.
        at: Date,
    },
}

impl Change {
    /// The relation this change targets.
    pub fn relation(&self) -> String {
        match self {
            Change::Insert { relation, .. }
            | Change::Update { relation, .. }
            | Change::Delete { relation, .. } => relation.clone(),
        }
    }

    /// The transaction date.
    pub fn at(&self) -> Date {
        match self {
            Change::Insert { at, .. } | Change::Update { at, .. } | Change::Delete { at, .. } => {
                *at
            }
        }
    }
}

/// A buffered change stream (the paper's update-log tracking mode).
#[derive(Debug, Default, Clone)]
pub struct UpdateLog {
    changes: Vec<Change>,
}

impl UpdateLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a change.
    pub fn push(&mut self, change: Change) {
        self.changes.push(change);
    }

    /// The buffered changes in arrival order.
    pub fn changes(&self) -> &[Change] {
        &self.changes
    }

    /// Number of buffered changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Drop all buffered changes.
    pub fn clear(&mut self) {
        self.changes.clear();
    }
}

/// A segment's catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment number (archived segments count from 1; the live segment is
    /// [`LIVE_SEGNO`]).
    pub segno: i64,
    /// First day covered.
    pub start: Date,
    /// Last day covered ([`END_OF_TIME`] for the live segment).
    pub end: Date,
}

/// Fetch one attribute's archival state. Attributes are seeded at
/// [`Archiver::create`] / reattach, so a miss means the caller named an
/// attribute outside the relation spec — surfaced as an error rather than
/// a panic so a bad request can never abort a commit in flight.
fn attr_state<'a>(
    state: &'a mut HashMap<String, AttrState>,
    attr: &str,
) -> Result<&'a mut AttrState> {
    state
        .get_mut(attr)
        .ok_or_else(|| ArchError::NotFound(format!("attribute state {attr}")))
}

#[derive(Debug, Clone)]
struct AttrState {
    /// Rows in the live segment.
    nall: u64,
    /// Rows in the live segment whose period is still open.
    nlive: u64,
    /// First day the live segment covers.
    live_start: Date,
    /// Next archived segment number.
    next_segno: i64,
}

/// The paper's equation (4): the expected length of a segment in days,
/// given the tuple count at its start `n0` (usefulness 100%), the
/// usefulness threshold `umin`, and per-day insertion / deletion / update
/// rates.
///
/// `Tseg = N0 (1 − Umin) / (Umin·Rupd − (1 − Umin)·Rins + Rdel)` — a
/// higher update or deletion rate shortens segments; a higher insertion
/// rate lengthens them. Returns `None` when the denominator is ≤ 0 (the
/// live segment's usefulness never drops below the threshold).
pub fn expected_segment_days(
    n0: f64,
    umin: f64,
    r_ins: f64,
    r_del: f64,
    r_upd: f64,
) -> Option<f64> {
    let denom = umin * r_upd - (1.0 - umin) * r_ins + r_del;
    (denom > 0.0).then(|| n0 * (1.0 - umin) / denom)
}

/// Per-relation history maintenance.
pub struct Archiver {
    spec: RelationSpec,
    umin: f64,
    state: Mutex<HashMap<String, AttrState>>,
}

impl Archiver {
    /// Create the H-tables for `spec` and an archiver over them.
    pub fn create(
        db: &Database,
        spec: &RelationSpec,
        storage: StorageKind,
        umin: f64,
    ) -> Result<Archiver> {
        htable::create_htables(db, spec, storage, temporal::DAWN_OF_TIME)?;
        let mut state = HashMap::new();
        for (attr, _) in &spec.attrs {
            state.insert(
                attr.clone(),
                AttrState {
                    nall: 0,
                    nlive: 0,
                    live_start: temporal::DAWN_OF_TIME,
                    next_segno: 1,
                },
            );
        }
        Ok(Archiver {
            spec: spec.clone(),
            umin,
            state: Mutex::new(state),
        })
    }

    /// The relation spec.
    pub fn spec(&self) -> &RelationSpec {
        &self.spec
    }

    /// Snapshot the per-attribute live-segment state for the durable
    /// catalog: `(attr, nall, nlive, live_start, next_segno)` rows.
    pub fn state_rows(&self) -> Vec<(String, u64, u64, Date, i64)> {
        let state = self.state.lock();
        let mut out: Vec<(String, u64, u64, Date, i64)> = state
            .iter()
            .map(|(attr, s)| (attr.clone(), s.nall, s.nlive, s.live_start, s.next_segno))
            .collect();
        out.sort();
        out
    }

    /// Reattach to already-persisted H-tables (they exist in `db`),
    /// restoring the live-segment state saved by [`Archiver::state_rows`].
    pub fn reopen(
        spec: &RelationSpec,
        umin: f64,
        rows: &[(String, u64, u64, Date, i64)],
    ) -> Archiver {
        let mut state = HashMap::new();
        for (attr, _) in &spec.attrs {
            let saved = rows.iter().find(|(a, ..)| a == attr);
            let (nall, nlive, live_start, next_segno) = match saved {
                Some((_, nall, nlive, ls, ns)) => (*nall, *nlive, *ls, *ns),
                None => (0, 0, temporal::DAWN_OF_TIME, 1),
            };
            state.insert(
                attr.clone(),
                AttrState {
                    nall,
                    nlive,
                    live_start,
                    next_segno,
                },
            );
        }
        Archiver {
            spec: spec.clone(),
            umin,
            state: Mutex::new(state),
        }
    }

    /// Usefulness of an attribute's live segment (1.0 when empty).
    pub fn usefulness(&self, attr: &str) -> f64 {
        let state = self.state.lock();
        match state.get(attr) {
            Some(s) if s.nall > 0 => s.nlive as f64 / s.nall as f64,
            _ => 1.0,
        }
    }

    /// Apply one change to the current table and the H-tables.
    pub fn apply(&self, db: &Database, change: &Change) -> Result<()> {
        match change {
            Change::Insert {
                key, values, at, ..
            } => self.insert(db, *key, values, *at),
            Change::Update {
                key, changes, at, ..
            } => self.update(db, *key, changes, *at),
            Change::Delete { key, at, .. } => self.delete(db, *key, *at),
        }
    }

    /// Apply a batch of changes, in order — semantically identical to
    /// calling [`Archiver::apply`] per change, but maximal runs of inserts
    /// with distinct keys go through one [`relstore::Table::insert_batch`]
    /// per touched table, amortizing B+tree descents and page pins.
    /// [`crate::ArchIS::apply_all`] wraps the whole batch in a single WAL
    /// transaction; the batch is the unit of atomicity there.
    pub fn apply_batch(&self, db: &Database, changes: &[Change]) -> Result<()> {
        let mut i = 0;
        while i < changes.len() {
            if matches!(changes[i], Change::Insert { .. }) {
                let mut seen = std::collections::HashSet::new();
                let mut j = i;
                while j < changes.len() {
                    let Change::Insert { key, .. } = &changes[j] else {
                        break;
                    };
                    if !seen.insert(*key) {
                        break; // re-insert of a batch key must take the checked path
                    }
                    j += 1;
                }
                if j - i > 1 {
                    self.insert_run(db, &changes[i..j])?;
                    i = j;
                    continue;
                }
            }
            self.apply(db, &changes[i])?;
            i += 1;
        }
        Ok(())
    }

    /// Batched variant of [`Archiver::insert`] for a run of inserts with
    /// distinct keys: validate every key up front, then write the current
    /// table, the key table, and each attribute H-table with one batch
    /// insert apiece.
    fn insert_run(&self, db: &Database, run: &[Change]) -> Result<()> {
        let current = db.table(&self.spec.name)?;
        let cur_idx = format!("cur_{}_{}", self.spec.name, self.spec.key);
        let mut cur_rows = Vec::with_capacity(run.len());
        let mut key_rows = Vec::with_capacity(run.len());
        let mut attr_rows: std::collections::HashMap<&str, Vec<Vec<Value>>> =
            std::collections::HashMap::new();
        for change in run {
            let Change::Insert {
                key, values, at, ..
            } = change
            else {
                unreachable!()
            };
            if !current
                .index_lookup(&cur_idx, &[Value::Int(*key)])?
                .is_empty()
            {
                return Err(ArchError::BadUpdate(format!(
                    "insert: key {key} already current in {}",
                    self.spec.name
                )));
            }
            let lookup = |name: &str| -> Value {
                values
                    .iter()
                    .find(|(a, _)| a == name)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(Value::Null)
            };
            let mut row = vec![Value::Int(*key)];
            for (c, _) in &self.spec.composite {
                row.push(lookup(c));
            }
            for (attr, _) in &self.spec.attrs {
                row.push(lookup(attr));
            }
            cur_rows.push(row);
            let mut key_row = vec![Value::Int(*key)];
            for (c, _) in &self.spec.composite {
                key_row.push(lookup(c));
            }
            key_row.push(Value::Date(*at));
            key_row.push(Value::Date(END_OF_TIME));
            key_rows.push(key_row);
            for (attr, value) in values {
                if value.is_null() || self.spec.is_composite_col(attr) {
                    continue;
                }
                if !self.spec.has_attr(attr) {
                    return Err(ArchError::NotFound(format!("attribute {attr}")));
                }
                attr_rows.entry(attr.as_str()).or_default().push(vec![
                    Value::Int(LIVE_SEGNO),
                    Value::Int(*key),
                    value.clone(),
                    Value::Date(*at),
                    Value::Date(END_OF_TIME),
                ]);
            }
        }
        current.insert_batch(cur_rows)?;
        db.table(&htable::key_table(&self.spec))?
            .insert_batch(key_rows)?;
        let mut state = self.state.lock();
        for (attr, rows) in attr_rows {
            let n = rows.len() as u64;
            db.table(&htable::attr_table(&self.spec, attr))?
                .insert_batch(rows)?;
            let s = attr_state(&mut state, attr)?;
            s.nall += n;
            s.nlive += n;
        }
        Ok(())
    }

    fn insert(&self, db: &Database, key: i64, values: &[(String, Value)], at: Date) -> Result<()> {
        let current = db.table(&self.spec.name)?;
        let cur_idx = format!("cur_{}_{}", self.spec.name, self.spec.key);
        if !current
            .index_lookup(&cur_idx, &[Value::Int(key)])?
            .is_empty()
        {
            return Err(ArchError::BadUpdate(format!(
                "insert: key {key} already current in {}",
                self.spec.name
            )));
        }
        let lookup = |name: &str| -> Value {
            values
                .iter()
                .find(|(a, _)| a == name)
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null)
        };
        // Current table row in schema order (key, composite cols, attrs).
        let mut row = vec![Value::Int(key)];
        for (c, _) in &self.spec.composite {
            row.push(lookup(c));
        }
        for (attr, _) in &self.spec.attrs {
            row.push(lookup(attr));
        }
        current.insert(row)?;
        // Key table (with the composite natural-key columns, §5.1).
        let mut key_row = vec![Value::Int(key)];
        for (c, _) in &self.spec.composite {
            key_row.push(lookup(c));
        }
        key_row.push(Value::Date(at));
        key_row.push(Value::Date(END_OF_TIME));
        db.table(&htable::key_table(&self.spec))?.insert(key_row)?;
        // Attribute histories.
        let mut state = self.state.lock();
        for (attr, value) in values {
            if value.is_null() {
                continue;
            }
            if self.spec.is_composite_col(attr) {
                continue; // lives in the key table
            }
            if !self.spec.has_attr(attr) {
                return Err(ArchError::NotFound(format!("attribute {attr}")));
            }
            let t = db.table(&htable::attr_table(&self.spec, attr))?;
            t.insert(vec![
                Value::Int(LIVE_SEGNO),
                Value::Int(key),
                value.clone(),
                Value::Date(at),
                Value::Date(END_OF_TIME),
            ])?;
            let s = attr_state(&mut state, attr)?;
            s.nall += 1;
            s.nlive += 1;
        }
        Ok(())
    }

    fn update(&self, db: &Database, key: i64, changes: &[(String, Value)], at: Date) -> Result<()> {
        let current = db.table(&self.spec.name)?;
        let cur_idx = format!("cur_{}_{}", self.spec.name, self.spec.key);
        if current
            .index_lookup(&cur_idx, &[Value::Int(key)])?
            .is_empty()
        {
            return Err(ArchError::BadUpdate(format!(
                "update: key {key} is not current in {}",
                self.spec.name
            )));
        }
        let mut state = self.state.lock();
        let ncomposite = self.spec.composite.len();
        for (attr, new_value) in changes {
            if self.spec.is_composite_col(attr) {
                return Err(ArchError::BadUpdate(format!(
                    "composite key column {attr} is immutable over a tuple's history"
                )));
            }
            let Some(pos) = self.spec.attrs.iter().position(|(a, _)| a == attr) else {
                return Err(ArchError::NotFound(format!("attribute {attr}")));
            };
            // Current table: overwrite the attribute.
            let nv = new_value.clone();
            current.update_via_index(
                &cur_idx,
                &[Value::Int(key)],
                |_| true,
                move |row| row[pos + 1 + ncomposite] = nv.clone(),
            )?;
            // History table.
            let t = db.table(&htable::attr_table(&self.spec, attr))?;
            let idx = format!("{}_by_id", htable::attr_table(&self.spec, attr));
            let open: Vec<Vec<Value>> = t
                .index_lookup(&idx, &[Value::Int(key)])?
                .into_iter()
                .filter(|r| r[0] == Value::Int(LIVE_SEGNO) && r[4] == Value::Date(END_OF_TIME))
                .collect();
            let s = attr_state(&mut state, attr)?;
            match open.first() {
                Some(row) if &row[2] == new_value => {
                    // Value-equivalent: the open period simply continues
                    // (temporal grouping — no new history tuple).
                }
                Some(row) if row[3] == Value::Date(at) => {
                    // Same-day correction: replace the value in place.
                    let nv = new_value.clone();
                    let closed = nv.is_null();
                    t.update_via_index(
                        &idx,
                        &[Value::Int(key)],
                        |r| r[0] == Value::Int(LIVE_SEGNO) && r[4] == Value::Date(END_OF_TIME),
                        move |r| r[2] = nv.clone(),
                    )?;
                    if closed {
                        // NULLing an attribute on its start day removes it.
                        t.delete_via_index(&idx, &[Value::Int(key)], |r| {
                            r[0] == Value::Int(LIVE_SEGNO)
                                && r[4] == Value::Date(END_OF_TIME)
                                && r[2].is_null()
                        })?;
                        s.nall -= 1;
                        s.nlive -= 1;
                    }
                }
                Some(_) => {
                    // Close the open period at `at - 1`. When several
                    // changes share a date an archival may already have run
                    // *today*, making `at - 1 < live_start`: the closed
                    // period then lies entirely inside an archived segment,
                    // so the row moves there to keep the §6.1 invariants
                    // (an archived copy with `tend = ∞` exists but is
                    // superseded by this closed copy under the translator's
                    // duplicate-elimination rule).
                    let end = at.pred();
                    let seg = if end < s.live_start {
                        self.covering_segment(db, &htable::attr_table(&self.spec, attr), end)?
                    } else {
                        LIVE_SEGNO
                    };
                    t.update_via_index(
                        &idx,
                        &[Value::Int(key)],
                        |r| r[0] == Value::Int(LIVE_SEGNO) && r[4] == Value::Date(END_OF_TIME),
                        move |r| {
                            r[4] = Value::Date(end);
                            r[0] = Value::Int(seg);
                        },
                    )?;
                    s.nlive -= 1;
                    if seg != LIVE_SEGNO {
                        s.nall -= 1;
                        if let Some(ts) = open[0][3].as_date() {
                            absorb_into_stat(
                                db,
                                &htable::attr_table(&self.spec, attr),
                                seg,
                                key,
                                ts,
                                end,
                            )?;
                        }
                    }
                    // ... and open a new one unless the attribute was NULLed.
                    if !new_value.is_null() {
                        t.insert(vec![
                            Value::Int(LIVE_SEGNO),
                            Value::Int(key),
                            new_value.clone(),
                            Value::Date(at),
                            Value::Date(END_OF_TIME),
                        ])?;
                        s.nall += 1;
                        s.nlive += 1;
                    }
                }
                None => {
                    // Attribute previously NULL: open its first period.
                    if !new_value.is_null() {
                        t.insert(vec![
                            Value::Int(LIVE_SEGNO),
                            Value::Int(key),
                            new_value.clone(),
                            Value::Date(at),
                            Value::Date(END_OF_TIME),
                        ])?;
                        s.nall += 1;
                        s.nlive += 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn delete(&self, db: &Database, key: i64, at: Date) -> Result<()> {
        let current = db.table(&self.spec.name)?;
        let cur_idx = format!("cur_{}_{}", self.spec.name, self.spec.key);
        let n = current.delete_via_index(&cur_idx, &[Value::Int(key)], |_| true)?;
        if n == 0 {
            return Err(ArchError::BadUpdate(format!(
                "delete: key {key} is not current in {}",
                self.spec.name
            )));
        }
        // Close the key-table period (tstart/tend sit after the composite
        // columns).
        let kt = db.table(&htable::key_table(&self.spec))?;
        let kidx = format!("{}_by_id", htable::key_table(&self.spec));
        let ts_at = 1 + self.spec.composite.len();
        kt.update_via_index(
            &kidx,
            &[Value::Int(key)],
            move |r| r[ts_at + 1] == Value::Date(END_OF_TIME),
            move |r| {
                // A tuple deleted the day it was created keeps a one-day life.
                let end = if r[ts_at] == Value::Date(at) {
                    at
                } else {
                    at.pred()
                };
                r[ts_at + 1] = Value::Date(end);
            },
        )?;
        // Close every open attribute period. As in `update`, a close date
        // that falls before the live segment's start (same-day changes
        // after an archival) moves the row into the archived segment that
        // covers it.
        let mut state = self.state.lock();
        for (attr, _) in &self.spec.attrs {
            let tname = htable::attr_table(&self.spec, attr);
            let t = db.table(&tname)?;
            let idx = format!("{tname}_by_id");
            let live_start = attr_state(&mut state, attr)?.live_start;
            let seg_of = |end: Date| -> Result<i64> {
                if end < live_start {
                    self.covering_segment(db, &tname, end)
                } else {
                    Ok(LIVE_SEGNO)
                }
            };
            let seg_at = seg_of(at)?;
            let seg_pred = seg_of(at.pred())?;
            let moved: std::cell::RefCell<Vec<(i64, Date, Date)>> =
                std::cell::RefCell::new(Vec::new());
            let n = t.update_via_index(
                &idx,
                &[Value::Int(key)],
                |r| r[0] == Value::Int(LIVE_SEGNO) && r[4] == Value::Date(END_OF_TIME),
                |r| {
                    // A tuple deleted the day it was created keeps a
                    // one-day life.
                    let (end, seg) = if r[3] == Value::Date(at) {
                        (at, seg_at)
                    } else {
                        (at.pred(), seg_pred)
                    };
                    r[4] = Value::Date(end);
                    if seg != LIVE_SEGNO {
                        r[0] = Value::Int(seg);
                        let ts = r[3].as_date().unwrap_or(end);
                        moved.borrow_mut().push((seg, ts, end));
                    }
                },
            )?;
            let moved = moved.into_inner();
            let s = attr_state(&mut state, attr)?;
            s.nlive -= n as u64;
            s.nall -= moved.len() as u64;
            for (seg, ts, end) in moved {
                absorb_into_stat(db, &tname, seg, key, ts, end)?;
            }
        }
        Ok(())
    }

    /// Archive every attribute whose live-segment usefulness fell below
    /// `Umin`. Returns the number of segments created.
    pub fn maybe_archive(&self, db: &Database, at: Date) -> Result<usize> {
        let mut archived = 0;
        for (attr, _) in &self.spec.attrs.clone() {
            let (nall, nlive) = {
                let state = self.state.lock();
                let s = &state[attr];
                (s.nall, s.nlive)
            };
            if nall > 0 && (nlive as f64 / nall as f64) < self.umin {
                self.archive_attr(db, attr, at)?;
                archived += 1;
            }
        }
        Ok(archived)
    }

    /// Archive the live segment of every non-empty attribute table
    /// regardless of usefulness.
    pub fn force_archive(&self, db: &Database, at: Date) -> Result<usize> {
        let mut archived = 0;
        for (attr, _) in &self.spec.attrs.clone() {
            let nall = self.state.lock()[attr].nall;
            if nall > 0 {
                self.archive_attr(db, attr, at)?;
                archived += 1;
            }
        }
        Ok(archived)
    }

    /// The archived segment of `tname` whose interval contains `end`:
    /// the one with the greatest start ≤ `end` (segments tile time).
    /// Falls back to the live segment if none is recorded yet.
    fn covering_segment(&self, db: &Database, tname: &str, end: Date) -> Result<i64> {
        let st = db.table(htable::SEGMENTS_TABLE)?;
        let mut best: Option<(Date, i64)> = None;
        for row in st.index_lookup("segments_by_tbl", &[Value::Str(tname.to_string())])? {
            let (Some(segno), Some(start)) = (row[1].as_int(), row[2].as_date()) else {
                continue;
            };
            if start <= end && best.is_none_or(|(bs, _)| start > bs) {
                best = Some((start, segno));
            }
        }
        Ok(best.map_or(LIVE_SEGNO, |(_, segno)| segno))
    }

    /// The paper's §6.1 archival procedure for one attribute table.
    fn archive_attr(&self, db: &Database, attr: &str, at: Date) -> Result<()> {
        let tname = htable::attr_table(&self.spec, attr);
        let t = db.table(&tname)?;
        let seg_idx = format!("{tname}_by_seg");
        let (segno, live_start) = {
            let mut state = self.state.lock();
            let s = attr_state(&mut state, attr)?;
            let segno = s.next_segno;
            s.next_segno += 1;
            (segno, s.live_start)
        };
        // 1-2. Record the segment interval [live_start, at].
        db.table(htable::SEGMENTS_TABLE)?.insert(vec![
            Value::Str(tname.clone()),
            Value::Int(segno),
            Value::Date(live_start),
            Value::Date(at),
        ])?;
        // 3. Copy ALL live-segment tuples into the new segment, sorted by id.
        let mut rows = t.index_lookup(&seg_idx, &[Value::Int(LIVE_SEGNO)])?;
        rows.sort_by(|a, b| a[1].total_cmp(&b[1]));
        let mut copies = Vec::with_capacity(rows.len());
        let mut live_rows = Vec::new();
        for row in &rows {
            let mut copy = row.clone();
            copy[0] = Value::Int(segno);
            copies.push(copy);
            if row[4] == Value::Date(END_OF_TIME) {
                live_rows.push(row.clone());
            }
        }
        // Fresh per-segment statistics for the cost-based planner, computed
        // from the copies already in hand (no extra scan).
        let stat_rows: Vec<(i64, Date, Date)> = copies
            .iter()
            .filter_map(|r| Some((r[1].as_int()?, r[3].as_date()?, r[4].as_date()?)))
            .collect();
        planner::ensure_stats_table(db)?;
        planner::store_stat(db, &SegStat::compute(&tname, segno, &stat_rows))?;
        // Already id-sorted, so the batch path appends in tree order.
        t.insert_batch(copies)?;
        // 4. Replace the live segment with only the still-live tuples.
        t.delete_via_index(&seg_idx, &[Value::Int(LIVE_SEGNO)], |_| true)?;
        t.insert_batch(live_rows.clone())?;
        let mut state = self.state.lock();
        let s = attr_state(&mut state, attr)?;
        s.nall = live_rows.len() as u64;
        s.nlive = live_rows.len() as u64;
        s.live_start = at.succ();
        Ok(())
    }

    /// Audit every structural invariant of this relation's H-tables and
    /// return a human-readable description of each violation (empty =
    /// consistent). Used by the crash-recovery torture tests: whatever
    /// prefix of history a recovery restores, it must be *internally*
    /// consistent — the §6.1 segment invariants, period sanity, coalesced
    /// per-key timelines, and archiver counters that match the data.
    pub fn verify_invariants(&self, db: &Database) -> Result<Vec<String>> {
        let mut bad = Vec::new();
        let state = self.state.lock();
        for (attr, _) in &self.spec.attrs {
            let tname = htable::attr_table(&self.spec, attr);
            let rows = db.table(&tname)?.scan()?;
            let segs = {
                // Inline `segments` to avoid re-locking state.
                let st = db.table(htable::SEGMENTS_TABLE)?;
                let mut out = Vec::new();
                for row in st.index_lookup("segments_by_tbl", &[Value::Str(tname.clone())])? {
                    out.push(SegmentInfo {
                        segno: row[1].as_int().unwrap_or(0),
                        start: row[2].as_date().unwrap_or(END_OF_TIME),
                        end: row[3].as_date().unwrap_or(END_OF_TIME),
                    });
                }
                out.sort_by_key(|s| s.segno);
                out
            };
            let by_segno: HashMap<i64, &SegmentInfo> = segs.iter().map(|s| (s.segno, s)).collect();

            // Per-row checks: period sanity + the §6.1 segment invariants.
            for r in &rows {
                let (Some(segno), Some(key), Some(ts), Some(te)) =
                    (r[0].as_int(), r[1].as_int(), r[3].as_date(), r[4].as_date())
                else {
                    bad.push(format!("{tname}: malformed history row {r:?}"));
                    continue;
                };
                if ts > te {
                    bad.push(format!("{tname} key {key}: tstart {ts} > tend {te}"));
                }
                if segno == LIVE_SEGNO {
                    continue;
                }
                match by_segno.get(&segno) {
                    None => bad.push(format!(
                        "{tname} key {key}: row in segment {segno} missing from the catalog"
                    )),
                    Some(seg) => {
                        if ts > seg.end {
                            bad.push(format!(
                                "{tname} key {key}: tstart {ts} > segment {segno} end {}",
                                seg.end
                            ));
                        }
                        if te < seg.start {
                            bad.push(format!(
                                "{tname} key {key}: tend {te} < segment {segno} start {}",
                                seg.start
                            ));
                        }
                    }
                }
            }

            // Per-key timeline checks. Archival copies duplicate rows
            // across segments; an open archived copy is superseded by its
            // closed counterpart (same key + tstart), so dedupe to the
            // earliest tend before checking coalescing.
            let mut timeline: HashMap<i64, HashMap<Date, Date>> = HashMap::new();
            for r in &rows {
                let (Some(key), Some(ts), Some(te)) =
                    (r[1].as_int(), r[3].as_date(), r[4].as_date())
                else {
                    continue;
                };
                let periods = timeline.entry(key).or_default();
                match periods.get_mut(&ts) {
                    Some(end) => *end = (*end).min(te),
                    None => {
                        periods.insert(ts, te);
                    }
                }
            }
            for (key, periods) in &timeline {
                let mut sorted: Vec<(Date, Date)> = periods.iter().map(|(a, b)| (*a, *b)).collect();
                sorted.sort();
                let mut open = 0;
                for w in sorted.windows(2) {
                    if w[1].0 <= w[0].1 {
                        bad.push(format!(
                            "{tname} key {key}: periods [{}, {}] and [{}, {}] overlap",
                            w[0].0, w[0].1, w[1].0, w[1].1
                        ));
                    }
                }
                for (_, te) in &sorted {
                    if *te == END_OF_TIME {
                        open += 1;
                    }
                }
                if open > 1 {
                    bad.push(format!("{tname} key {key}: {open} open periods"));
                }
            }

            // Archiver counters must describe the data they claim to.
            if let Some(s) = state.get(attr) {
                let nall = rows
                    .iter()
                    .filter(|r| r[0] == Value::Int(LIVE_SEGNO))
                    .count() as u64;
                let nlive = rows
                    .iter()
                    .filter(|r| r[0] == Value::Int(LIVE_SEGNO) && r[4] == Value::Date(END_OF_TIME))
                    .count() as u64;
                if s.nall != nall {
                    bad.push(format!(
                        "{tname}: state says nall={} but live segment holds {nall} rows",
                        s.nall
                    ));
                }
                if s.nlive != nlive {
                    bad.push(format!(
                        "{tname}: state says nlive={} but live segment holds {nlive} open rows",
                        s.nlive
                    ));
                }
            }
        }

        // Key table: period sanity + at most one open period per key.
        let kt = db.table(&htable::key_table(&self.spec))?;
        let ts_at = 1 + self.spec.composite.len();
        let mut open_per_key: HashMap<i64, usize> = HashMap::new();
        for r in kt.scan()? {
            let (Some(key), Some(ts), Some(te)) =
                (r[0].as_int(), r[ts_at].as_date(), r[ts_at + 1].as_date())
            else {
                bad.push(format!(
                    "{}: malformed key row {r:?}",
                    htable::key_table(&self.spec)
                ));
                continue;
            };
            if ts > te {
                bad.push(format!("key table key {key}: tstart {ts} > tend {te}"));
            }
            if te == END_OF_TIME {
                *open_per_key.entry(key).or_default() += 1;
            }
        }
        for (key, n) in open_per_key {
            if n > 1 {
                bad.push(format!("key table key {key}: {n} open periods"));
            }
        }
        Ok(bad)
    }

    /// Segment catalog for an attribute: archived segments in order, then
    /// the live segment.
    pub fn segments(&self, db: &Database, attr: &str) -> Result<Vec<SegmentInfo>> {
        let tname = htable::attr_table(&self.spec, attr);
        let st = db.table(htable::SEGMENTS_TABLE)?;
        let mut out = Vec::new();
        for row in st.index_lookup("segments_by_tbl", &[Value::Str(tname.clone())])? {
            out.push(SegmentInfo {
                segno: row[1].as_int().unwrap_or(0),
                start: row[2].as_date().unwrap_or(END_OF_TIME),
                end: row[3].as_date().unwrap_or(END_OF_TIME),
            });
        }
        out.sort_by_key(|s| s.segno);
        let live_start = self
            .state
            .lock()
            .get(attr)
            .map(|s| s.live_start)
            .unwrap_or(temporal::DAWN_OF_TIME);
        out.push(SegmentInfo {
            segno: LIVE_SEGNO,
            start: live_start,
            end: END_OF_TIME,
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::value::DataType;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn setup(umin: f64) -> (Database, Archiver) {
        let db = Database::in_memory();
        let spec = RelationSpec::employee();
        let a = Archiver::create(&db, &spec, StorageKind::Heap, umin).unwrap();
        (db, a)
    }

    fn bob_insert() -> Change {
        Change::Insert {
            relation: "employee".into(),
            key: 1001,
            values: vec![
                ("name".into(), Value::Str("Bob".into())),
                ("salary".into(), Value::Int(60000)),
                ("title".into(), Value::Str("Engineer".into())),
                ("deptno".into(), Value::Str("d01".into())),
            ],
            at: d("1995-01-01"),
        }
    }

    #[test]
    fn insert_opens_periods_everywhere() {
        let (db, a) = setup(0.0);
        a.apply(&db, &bob_insert()).unwrap();
        assert_eq!(db.table("employee").unwrap().row_count(), 1);
        let kt = db.table("employee_id").unwrap().scan().unwrap();
        assert_eq!(
            kt,
            vec![vec![
                Value::Int(1001),
                Value::Date(d("1995-01-01")),
                Value::Date(END_OF_TIME)
            ]]
        );
        let sal = db.table("employee_salary").unwrap().scan().unwrap();
        assert_eq!(sal.len(), 1);
        assert_eq!(sal[0][0], Value::Int(LIVE_SEGNO));
        assert_eq!(sal[0][2], Value::Int(60000));
    }

    #[test]
    fn update_changes_only_touched_attributes() {
        // Bob's history from paper Table 1.
        let (db, a) = setup(0.0);
        a.apply(&db, &bob_insert()).unwrap();
        a.apply(
            &db,
            &Change::Update {
                relation: "employee".into(),
                key: 1001,
                changes: vec![("salary".into(), Value::Int(70000))],
                at: d("1995-06-01"),
            },
        )
        .unwrap();
        // salary has two periods.
        let mut sal = db.table("employee_salary").unwrap().scan().unwrap();
        sal.sort_by(|x, y| x[3].total_cmp(&y[3]));
        assert_eq!(sal.len(), 2);
        assert_eq!(
            sal[0][4],
            Value::Date(d("1995-05-31")),
            "old period closed at day-1"
        );
        assert_eq!(sal[1][3], Value::Date(d("1995-06-01")));
        assert_eq!(sal[1][4], Value::Date(END_OF_TIME));
        // name has ONE period (unchanged attribute keeps growing).
        assert_eq!(db.table("employee_name").unwrap().scan().unwrap().len(), 1);
        // Current table reflects the new salary.
        let cur = db.table("employee").unwrap().scan().unwrap();
        assert_eq!(cur[0][2], Value::Int(70000));
    }

    #[test]
    fn value_equivalent_update_extends_not_duplicates() {
        let (db, a) = setup(0.0);
        a.apply(&db, &bob_insert()).unwrap();
        a.apply(
            &db,
            &Change::Update {
                relation: "employee".into(),
                key: 1001,
                changes: vec![("salary".into(), Value::Int(60000))],
                at: d("1995-06-01"),
            },
        )
        .unwrap();
        assert_eq!(
            db.table("employee_salary").unwrap().scan().unwrap().len(),
            1,
            "same value must not create a new history tuple"
        );
    }

    #[test]
    fn delete_closes_all_open_periods() {
        let (db, a) = setup(0.0);
        a.apply(&db, &bob_insert()).unwrap();
        a.apply(
            &db,
            &Change::Delete {
                relation: "employee".into(),
                key: 1001,
                at: d("1996-12-31"),
            },
        )
        .unwrap();
        assert_eq!(db.table("employee").unwrap().row_count(), 0);
        let kt = db.table("employee_id").unwrap().scan().unwrap();
        assert_eq!(kt[0][2], Value::Date(d("1996-12-30")));
        for t in [
            "employee_salary",
            "employee_name",
            "employee_title",
            "employee_deptno",
        ] {
            for row in db.table(t).unwrap().scan().unwrap() {
                assert_ne!(row[4], Value::Date(END_OF_TIME), "{t} period still open");
            }
        }
    }

    #[test]
    fn bad_updates_are_rejected() {
        let (db, a) = setup(0.0);
        assert!(matches!(
            a.apply(
                &db,
                &Change::Update {
                    relation: "employee".into(),
                    key: 1,
                    changes: vec![],
                    at: d("1995-01-01")
                }
            ),
            Err(ArchError::BadUpdate(_))
        ));
        a.apply(&db, &bob_insert()).unwrap();
        assert!(a.apply(&db, &bob_insert()).is_err(), "double insert");
        assert!(a
            .apply(
                &db,
                &Change::Delete {
                    relation: "employee".into(),
                    key: 9,
                    at: d("1995-01-01")
                }
            )
            .is_err());
        assert!(a
            .apply(
                &db,
                &Change::Update {
                    relation: "employee".into(),
                    key: 1001,
                    changes: vec![("bogus".into(), Value::Int(1))],
                    at: d("1995-02-01")
                }
            )
            .is_err());
    }

    #[test]
    fn usefulness_tracks_live_fraction() {
        let (db, a) = setup(0.0);
        a.apply(&db, &bob_insert()).unwrap();
        assert_eq!(a.usefulness("salary"), 1.0);
        for (i, date) in ["1996-01-01", "1997-01-01", "1998-01-01"]
            .iter()
            .enumerate()
        {
            a.apply(
                &db,
                &Change::Update {
                    relation: "employee".into(),
                    key: 1001,
                    changes: vec![("salary".into(), Value::Int(61000 + i as i64 * 1000))],
                    at: d(date),
                },
            )
            .unwrap();
        }
        // 4 salary rows, 1 live.
        assert!((a.usefulness("salary") - 0.25).abs() < 1e-9);
        assert_eq!(a.usefulness("name"), 1.0);
    }

    #[test]
    fn archive_respects_umin_and_invariants() {
        let (db, a) = setup(0.4);
        a.apply(&db, &bob_insert()).unwrap();
        for (i, date) in ["1996-01-01", "1997-01-01", "1998-01-01"]
            .iter()
            .enumerate()
        {
            a.apply(
                &db,
                &Change::Update {
                    relation: "employee".into(),
                    key: 1001,
                    changes: vec![("salary".into(), Value::Int(61000 + i as i64 * 1000))],
                    at: d(date),
                },
            )
            .unwrap();
        }
        let archived = a.maybe_archive(&db, d("1998-06-30")).unwrap();
        assert_eq!(archived, 1, "only salary fell below Umin");
        // Segment catalog has one archived + live.
        let segs = a.segments(&db, "salary").unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].segno, 1);
        assert_eq!(segs[0].end, d("1998-06-30"));
        assert_eq!(segs[1].segno, LIVE_SEGNO);
        assert_eq!(segs[1].start, d("1998-07-01"));
        // Paper invariants (1) tstart <= segend, (2) tend >= segstart for
        // every tuple in the archived segment.
        let rows = db.table("employee_salary").unwrap().scan().unwrap();
        let seg1: Vec<_> = rows.iter().filter(|r| r[0] == Value::Int(1)).collect();
        assert_eq!(seg1.len(), 4, "all tuples copied into the archived segment");
        for r in &seg1 {
            assert!(r[3].as_date().unwrap() <= segs[0].end, "invariant (1)");
            assert!(r[4].as_date().unwrap() >= segs[0].start, "invariant (2)");
        }
        // Live segment holds exactly the one still-open tuple.
        let live: Vec<_> = rows
            .iter()
            .filter(|r| r[0] == Value::Int(LIVE_SEGNO))
            .collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0][4], Value::Date(END_OF_TIME));
        assert_eq!(
            a.usefulness("salary"),
            1.0,
            "fresh live segment is 100% useful"
        );
    }

    #[test]
    fn snapshot_lives_in_exactly_one_archived_segment() {
        // The property behind the §6.3 single-segment snapshot rewrite.
        let (db, a) = setup(0.0);
        a.apply(&db, &bob_insert()).unwrap();
        a.apply(
            &db,
            &Change::Update {
                relation: "employee".into(),
                key: 1001,
                changes: vec![("salary".into(), Value::Int(70000))],
                at: d("1995-06-01"),
            },
        )
        .unwrap();
        a.force_archive(&db, d("1995-12-31")).unwrap();
        a.apply(
            &db,
            &Change::Update {
                relation: "employee".into(),
                key: 1001,
                changes: vec![("salary".into(), Value::Int(80000))],
                at: d("1996-06-01"),
            },
        )
        .unwrap();
        // Snapshot at 1995-07-01 (inside segment 1): the live tuple at that
        // time (70000) must be in segment 1 even though it was still open.
        let rows = db.table("employee_salary").unwrap().scan().unwrap();
        let day = d("1995-07-01");
        let hit: Vec<_> = rows
            .iter()
            .filter(|r| {
                r[0] == Value::Int(1)
                    && r[3].as_date().unwrap() <= day
                    && r[4].as_date().unwrap() >= day
            })
            .collect();
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0][2], Value::Int(70000));
    }

    #[test]
    fn archival_records_segment_statistics() {
        let (db, a) = setup(0.0);
        a.apply(&db, &bob_insert()).unwrap();
        a.apply(
            &db,
            &Change::Update {
                relation: "employee".into(),
                key: 1001,
                changes: vec![("salary".into(), Value::Int(70000))],
                at: d("1995-06-01"),
            },
        )
        .unwrap();
        a.force_archive(&db, d("1995-12-31")).unwrap();
        let stats = planner::load_stats(&db, "employee_salary");
        assert_eq!(stats.len(), 1, "one archived segment, one stats row");
        let s = &stats[0];
        assert_eq!(s.segno, 1);
        assert_eq!(s.rows, 2, "both history rows were copied into segment 1");
        assert_eq!(s.live, 1, "one open period carried into the copy");
        assert_eq!(s.tsmin, d("1995-01-01"));
        assert_eq!(s.tsmax, d("1995-06-01"));
        assert_eq!(s.temax, END_OF_TIME);
    }

    #[test]
    fn row_moves_into_archived_segment_update_its_statistics() {
        // A close dated before the live segment's start moves the row into
        // the covering archived segment; the stats row must track it so
        // fsck's exact audit stays clean.
        let (db, a) = setup(0.0);
        a.apply(&db, &bob_insert()).unwrap();
        a.force_archive(&db, d("1995-06-01")).unwrap();
        // Same-day delete: at.pred() < live_start, so the closed rows land
        // in segment 1.
        a.apply(
            &db,
            &Change::Delete {
                relation: "employee".into(),
                key: 1001,
                at: d("1995-06-02"),
            },
        )
        .unwrap();
        let stats = planner::load_stats(&db, "employee_salary");
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        let rows = db.table("employee_salary").unwrap().scan().unwrap();
        let in_seg1 = rows.iter().filter(|r| r[0] == Value::Int(1)).count() as i64;
        let live_seg1 = rows
            .iter()
            .filter(|r| r[0] == Value::Int(1) && r[4] == Value::Date(END_OF_TIME))
            .count() as i64;
        assert_eq!(s.rows, in_seg1, "stats row count tracks the moved row");
        assert_eq!(s.live, live_seg1);
    }

    #[test]
    fn update_log_replays() {
        let mut log = UpdateLog::new();
        log.push(bob_insert());
        log.push(Change::Update {
            relation: "employee".into(),
            key: 1001,
            changes: vec![("title".into(), Value::Str("Sr Engineer".into()))],
            at: d("1995-10-01"),
        });
        assert_eq!(log.len(), 2);
        let (db, a) = setup(0.0);
        for c in log.changes() {
            a.apply(&db, c).unwrap();
        }
        assert_eq!(db.table("employee_title").unwrap().scan().unwrap().len(), 2);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn equation4_segment_length() {
        // Higher update/deletion rates shorten segments; higher insertion
        // rates lengthen them (paper §6.2).
        let base = expected_segment_days(1000.0, 0.4, 0.0, 0.0, 2.0).unwrap();
        let more_updates = expected_segment_days(1000.0, 0.4, 0.0, 0.0, 4.0).unwrap();
        assert!(more_updates < base);
        let with_inserts = expected_segment_days(1000.0, 0.4, 0.5, 0.0, 2.0).unwrap();
        assert!(with_inserts > base);
        let with_deletes = expected_segment_days(1000.0, 0.4, 0.0, 1.0, 2.0).unwrap();
        assert!(with_deletes < base);
        // Higher usefulness threshold ⇒ shorter segment.
        let higher_umin = expected_segment_days(1000.0, 0.6, 0.0, 0.0, 2.0).unwrap();
        assert!(higher_umin < base);
        // Insert-dominated workloads never trip the threshold.
        assert_eq!(expected_segment_days(1000.0, 0.4, 10.0, 0.0, 1.0), None);
    }

    #[test]
    fn attribute_nulling_closes_without_reopening() {
        let db = Database::in_memory();
        let spec = RelationSpec::new("gadget", "gadgets", "id", vec![("note", DataType::Str)]);
        let a = Archiver::create(&db, &spec, StorageKind::Heap, 0.0).unwrap();
        a.apply(
            &db,
            &Change::Insert {
                relation: "gadget".into(),
                key: 1,
                values: vec![("note".into(), Value::Str("x".into()))],
                at: d("2000-01-01"),
            },
        )
        .unwrap();
        a.apply(
            &db,
            &Change::Update {
                relation: "gadget".into(),
                key: 1,
                changes: vec![("note".into(), Value::Null)],
                at: d("2000-02-01"),
            },
        )
        .unwrap();
        let rows = db.table("gadget_note").unwrap().scan().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][4], Value::Date(d("2000-01-31")));
    }
}
