//! Inputs and the reference: the seeded employee stream as ArchIS changes,
//! the seeded Q1–Q6 parameter generator, and a plain in-memory model of the
//! salary history that every engine answer is checked against.

use crate::util::Rng;
use archis::Change;
use dataset::Op;
use relstore::Value;
use std::collections::BTreeMap;
use temporal::{Date, END_OF_TIME};

pub const RELATION: &str = "employee";

/// First day of every generated history (`dataset`'s default).
pub fn history_start() -> Date {
    Date::from_ymd(1985, 1, 1).expect("valid date")
}

/// One seeded employee history: the generator's events, the same events as
/// ArchIS changes, and the size of each change as a user would encode it.
pub struct Stream {
    pub ops: Vec<Op>,
    pub changes: Vec<Change>,
    /// `user_bytes[i]` = encoded bytes of `changes[..i]` (so one longer).
    pub user_bytes: Vec<u64>,
}

impl Stream {
    pub fn generate(employees: usize, seed: u64) -> Stream {
        let ops = dataset::generate(&dataset::DatasetConfig {
            employees,
            years: 17,
            seed,
            ..Default::default()
        });
        let changes: Vec<Change> = ops.iter().map(op_to_change).collect();
        let mut user_bytes = Vec::with_capacity(changes.len() + 1);
        let mut total = 0u64;
        user_bytes.push(0);
        for c in &changes {
            total += encoded_len(c);
            user_bytes.push(total);
        }
        Stream {
            ops,
            changes,
            user_bytes,
        }
    }
}

fn op_to_change(op: &Op) -> Change {
    let relation = RELATION.to_string();
    let set = |attr: &str, v: Value| vec![(attr.to_string(), v)];
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
            changes: set("salary", Value::Int(*salary)),
            at: *at,
        },
        Op::TitleChange { id, title, at } => Change::Update {
            relation,
            key: *id,
            changes: set("title", Value::Str(title.clone())),
            at: *at,
        },
        Op::DeptChange { id, deptno, at } => Change::Update {
            relation,
            key: *id,
            changes: set("deptno", Value::Str(deptno.clone())),
            at: *at,
        },
        Op::Leave { id, at } => Change::Delete {
            relation,
            key: *id,
            at: *at,
        },
    }
}

/// Bytes of a change in a plain encoding: 8-byte key, 4-byte date, and per
/// attribute its name plus an 8-byte integer or the string's bytes. The
/// denominator of the `*_bytes_per_user_byte` ratios.
fn encoded_len(c: &Change) -> u64 {
    let values = match c {
        Change::Insert { values, .. } => values.as_slice(),
        Change::Update { changes, .. } => changes.as_slice(),
        Change::Delete { .. } => &[],
    };
    let payload: usize = values
        .iter()
        .map(|(name, v)| {
            name.len()
                + match v {
                    Value::Str(s) => s.len(),
                    _ => 8,
                }
        })
        .sum();
    12 + payload as u64
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// One instance of the paper's Q1–Q6 (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Q1 { id: i64, date: Date },
    Q2 { date: Date },
    Q3 { id: i64 },
    Q4,
    Q5 { threshold: i64, d1: Date, d2: Date },
    Q6 { d1: Date, d2: Date },
}

pub const CLASSES: usize = 6;

/// The fixed mix Q1:Q2:Q3:Q4:Q5:Q6 = 40:10:20:5:15:10 as one cycle of 20
/// classes (0-based), interleaved so that any window of a few queries is
/// close to the mix.
const CYCLE: [usize; 20] = [0, 2, 0, 4, 0, 5, 0, 2, 1, 0, 4, 0, 2, 0, 5, 3, 0, 4, 2, 1];

/// Share of each class in the mix.
pub fn mix_weights() -> [f64; CLASSES] {
    let mut w = [0.0; CLASSES];
    for c in CYCLE {
        w[c] += 1.0 / CYCLE.len() as f64;
    }
    w
}

impl Query {
    pub fn class(&self) -> usize {
        match self {
            Query::Q1 { .. } => 0,
            Query::Q2 { .. } => 1,
            Query::Q3 { .. } => 2,
            Query::Q4 => 3,
            Query::Q5 { .. } => 4,
            Query::Q6 { .. } => 5,
        }
    }

    pub fn xquery(&self) -> String {
        use archis::queries::*;
        match *self {
            Query::Q1 { id, date } => q1_xquery(id, date),
            Query::Q2 { date } => q2_xquery(date),
            Query::Q3 { id } => q3_xquery(id),
            Query::Q4 => q4_xquery(),
            Query::Q5 { threshold, d1, d2 } => q5_xquery(threshold, d1, d2),
            Query::Q6 { d1, d2 } => q6_xquery(d1, d2),
        }
    }
}

/// Seeded source of mix queries over `[lo, hi]`, steering clear of three
/// cases in which the engine at this commit answers differently from the
/// reference model (README, "Known engine deviations"):
///
/// * a salary period that ends on the last day of an archived segment (or
///   the day before) can be stored twice in that segment, once still open,
///   so snapshot queries (Q1, Q2) use dates on which no such period is
///   current and slicing windows (Q5) do not start on such a day;
/// * a period that starts on an archived segment's last day, after the
///   archival ran, is stored in the next segment, so no snapshot date and
///   neither end of a slicing window falls on (or next to) such a day;
/// * a Q6 window inside a single archived segment is restricted to that
///   segment's copies, where a period still current at archival has no
///   successor, so Q6 windows always contain a segment boundary.
pub struct QueryGen {
    rng: Rng,
    ids: Vec<(i64, Date)>,
    lo: Date,
    hi: Date,
    /// Disjoint ascending date ranges Q1/Q2 may use.
    snapshot_dates: Vec<(Date, Date)>,
    /// Last days of all archived segments.
    segment_ends: Vec<Date>,
    /// Those a one-year window inside `[lo, hi]` can contain.
    boundaries: Vec<Date>,
    next: usize,
}

impl QueryGen {
    /// `segments` are the archived salary segments `(first day, last day)`
    /// of the store; `model` holds (at least) the history stored.
    pub fn new(
        seed: u64,
        model: &Model,
        lo: Date,
        hi: Date,
        segments: &[(Date, Date)],
    ) -> Result<QueryGen, String> {
        let ids: Vec<(i64, Date)> = model
            .emps
            .iter()
            .map(|(id, periods)| (*id, periods[0].tstart))
            .filter(|(_, hired)| *hired <= hi)
            .collect();
        if ids.is_empty() || lo + 365 > hi {
            return Err(format!("query range {lo}..{hi} too small"));
        }
        // Dates on which a possibly twice-stored period is current, and the
        // days around each segment's end.
        let mut avoid: Vec<(Date, Date)> = Vec::new();
        for &(start, end) in segments {
            avoid.push((end.pred(), end.succ()));
            for p in model.emps.values().flatten() {
                if (p.tend == end || p.tend == end.pred()) && p.tstart <= end {
                    avoid.push((p.tstart.max(start), end));
                }
            }
        }
        avoid.sort();
        let mut snapshot_dates = Vec::new();
        let mut from = lo;
        for (a, b) in avoid {
            if from > hi || a > hi {
                break;
            }
            if a > from {
                snapshot_dates.push((from, a.pred()));
            }
            from = from.max(b.succ());
        }
        if from <= hi {
            snapshot_dates.push((from, hi));
        }
        let boundaries: Vec<Date> = segments
            .iter()
            .map(|&(_, end)| end)
            .filter(|end| lo.max(*end - 363) <= (*end).min(hi - 364))
            .collect();
        if snapshot_dates.is_empty() || boundaries.is_empty() {
            return Err(format!(
                "no usable query dates in {lo}..{hi} ({} segments)",
                segments.len()
            ));
        }
        let mut rng = Rng::new(seed);
        let next = rng.below(CYCLE.len() as u64) as usize;
        Ok(QueryGen {
            rng,
            ids,
            lo,
            hi,
            snapshot_dates,
            segment_ends: segments.iter().map(|s| s.1).collect(),
            boundaries,
            next,
        })
    }

    fn date_in(&mut self, lo: Date, hi: Date) -> Date {
        lo + self.rng.below(hi.days_since(lo) as u64 + 1) as i32
    }

    /// A date Q1/Q2 may use, uniform over the usable days.
    fn snapshot_date(&mut self) -> Date {
        let days = |&(a, b): &(Date, Date)| b.days_since(a) as u64 + 1;
        let total: u64 = self.snapshot_dates.iter().map(days).sum();
        let mut pick = self.rng.below(total);
        for range in &self.snapshot_dates {
            if pick < days(range) {
                return range.0 + pick as i32;
            }
            pick -= days(range);
        }
        unreachable!("pick < total")
    }

    pub fn next_query(&mut self) -> Query {
        let class = CYCLE[self.next];
        self.next = (self.next + 1) % CYCLE.len();
        let (id, _) = self.ids[self.rng.below(self.ids.len() as u64) as usize];
        match class {
            0 => Query::Q1 {
                id,
                date: self.snapshot_date(),
            },
            1 => Query::Q2 {
                date: self.snapshot_date(),
            },
            2 => Query::Q3 { id },
            3 => Query::Q4,
            4 => {
                // Neither end on (or next to) a segment's last day: see the
                // first and third deviations.
                let clear =
                    |ends: &[Date], d: Date| ends.iter().all(|e| d.days_since(*e).abs() > 1);
                let d1 = loop {
                    let d1 = self.date_in(self.lo, self.hi - 364);
                    if clear(&self.segment_ends, d1) && clear(&self.segment_ends, d1 + 364) {
                        break d1;
                    }
                };
                let threshold = 40_000 + 1_000 * self.rng.below(40) as i64;
                Query::Q5 {
                    threshold,
                    d1,
                    d2: d1 + 364,
                }
            }
            _ => {
                let end = self.boundaries[self.rng.below(self.boundaries.len() as u64) as usize];
                let d1 = self.date_in(self.lo.max(end - 363), end.min(self.hi - 364));
                Query::Q6 { d1, d2: d1 + 364 }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------------

/// One salary period, `[tstart, tend]` inclusive (`tend` = END_OF_TIME
/// while current).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Period {
    pub salary: i64,
    pub tstart: Date,
    pub tend: Date,
}

impl Period {
    fn contains(&self, d: Date) -> bool {
        self.tstart <= d && d <= self.tend
    }

    fn overlaps(&self, d1: Date, d2: Date) -> bool {
        self.tstart <= d2 && self.tend >= d1
    }
}

/// The reference: each employee's salary periods in time order, built by
/// replaying the same events the engine ingests. Q1–Q6 are a few lines
/// each over it.
#[derive(Default, Clone)]
pub struct Model {
    pub emps: BTreeMap<i64, Vec<Period>>,
}

/// What a query should return.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Periods(Vec<Period>),
    /// `None` = the aggregate ran over nothing.
    Number(Option<f64>),
}

impl Model {
    pub fn replay(ops: &[Op]) -> Model {
        let mut m = Model::default();
        for op in ops {
            m.apply(op);
        }
        m
    }

    pub fn apply(&mut self, op: &Op) {
        let close = |periods: &mut Vec<Period>, at: Date| {
            if let Some(last) = periods.last_mut() {
                last.tend = at.pred();
            }
        };
        match op {
            Op::Hire { id, salary, at, .. } => self.emps.entry(*id).or_default().push(Period {
                salary: *salary,
                tstart: *at,
                tend: END_OF_TIME,
            }),
            Op::Raise { id, salary, at } => {
                let periods = self.emps.entry(*id).or_default();
                close(periods, *at);
                periods.push(Period {
                    salary: *salary,
                    tstart: *at,
                    tend: END_OF_TIME,
                });
            }
            Op::Leave { id, at } => close(self.emps.entry(*id).or_default(), *at),
            Op::TitleChange { .. } | Op::DeptChange { .. } => {}
        }
    }

    fn all(&self) -> impl Iterator<Item = &Period> {
        self.emps.values().flatten()
    }

    pub fn answer(&self, q: &Query) -> Answer {
        match *q {
            Query::Q1 { id, date } => Answer::Periods(
                self.emps
                    .get(&id)
                    .into_iter()
                    .flatten()
                    .filter(|p| p.contains(date))
                    .copied()
                    .collect(),
            ),
            Query::Q2 { date } => {
                let live: Vec<f64> = self
                    .all()
                    .filter(|p| p.contains(date))
                    .map(|p| p.salary as f64)
                    .collect();
                Answer::Number(
                    (!live.is_empty()).then(|| live.iter().sum::<f64>() / live.len() as f64),
                )
            }
            Query::Q3 { id } => Answer::Periods(self.emps.get(&id).cloned().unwrap_or_default()),
            Query::Q4 => Answer::Number(Some(self.all().count() as f64)),
            Query::Q5 { threshold, d1, d2 } => Answer::Number(Some(
                self.emps
                    .values()
                    .filter(|ps| {
                        ps.iter()
                            .any(|p| p.salary > threshold && p.overlaps(d1, d2))
                    })
                    .count() as f64,
            )),
            Query::Q6 { d1, d2 } => Answer::Number(
                self.emps
                    .values()
                    .flat_map(|ps| ps.windows(2))
                    .filter(|w| w[0].overlaps(d1, d2) && w[0].tend.succ() == w[1].tstart)
                    .map(|w| (w[1].salary - w[0].salary) as f64)
                    .reduce(f64::max),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Checking engine output against the model
// ---------------------------------------------------------------------------

/// Parse a rendered result: `<salary tstart=".." tend="..">N</salary>`
/// elements for Q1/Q3, one number (or nothing) for the aggregates.
pub fn parse_rendered(q: &Query, rendered: &str) -> Result<Answer, String> {
    let text = rendered.trim();
    match q {
        Query::Q1 { .. } | Query::Q3 { .. } => {
            let mut periods = Vec::new();
            let mut rest = text;
            while let Some(at) = rest.find("<salary") {
                let elem = &rest[at..];
                let end = elem
                    .find("</salary>")
                    .ok_or_else(|| format!("unterminated element in {text:?}"))?;
                periods.push(parse_salary_element(&elem[..end])?);
                rest = &elem[end + "</salary>".len()..];
            }
            if !rest.trim().is_empty() {
                return Err(format!("trailing output {rest:?}"));
            }
            periods.sort_by_key(|p| p.tstart);
            Ok(Answer::Periods(periods))
        }
        _ if text.is_empty() || text.eq_ignore_ascii_case("null") => Ok(Answer::Number(None)),
        _ => text
            .parse::<f64>()
            .map(|x| Answer::Number(Some(x)))
            .map_err(|e| format!("not a number {text:?}: {e}")),
    }
}

fn parse_salary_element(elem: &str) -> Result<Period, String> {
    let attr = |name: &str| -> Result<Date, String> {
        let key = format!("{name}=\"");
        let from = elem
            .find(&key)
            .ok_or_else(|| format!("no {name} in {elem:?}"))?
            + key.len();
        let len = elem[from..]
            .find('"')
            .ok_or_else(|| format!("open {name} in {elem:?}"))?;
        Date::parse(&elem[from..from + len]).map_err(|e| format!("{name} in {elem:?}: {e}"))
    };
    let body = elem
        .find('>')
        .ok_or_else(|| format!("no body in {elem:?}"))?;
    Ok(Period {
        salary: elem[body + 1..]
            .trim()
            .parse()
            .map_err(|e| format!("salary in {elem:?}: {e}"))?,
        tstart: attr("tstart")?,
        tend: attr("tend")?,
    })
}

fn close_enough(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Exact check against a store that holds exactly `model`'s history.
///
/// One leniency, from how segments are stored (paper §6): a snapshot (Q1)
/// answer comes from the archived segment covering the date, where a period
/// that was current at archival still carries `tend` = forever; so for Q1
/// the value and `tstart` must match and `tend` must reach the date.
pub fn check_exact(model: &Model, q: &Query, rendered: &str) -> Result<(), String> {
    let got = parse_rendered(q, rendered)?;
    let want = model.answer(q);
    let ok = match (&got, &want, q) {
        (Answer::Periods(g), Answer::Periods(w), Query::Q1 { date, .. }) => {
            g.len() == w.len()
                && g.iter()
                    .zip(w)
                    .all(|(g, w)| g.salary == w.salary && g.tstart == w.tstart && g.tend >= *date)
        }
        (Answer::Periods(g), Answer::Periods(w), _) => g == w,
        (Answer::Number(Some(g)), Answer::Number(Some(w)), _) => close_enough(*g, *w),
        (Answer::Number(None), Answer::Number(None), _) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{q:?}: got {got:?}, want {want:?}"))
    }
}

/// Do two rendered results hold the same answer (row order aside)?
pub fn same_answer(q: &Query, a: &str, b: &str) -> Result<(), String> {
    let (pa, pb) = (parse_rendered(q, a)?, parse_rendered(q, b)?);
    let same = match (&pa, &pb) {
        (Answer::Number(Some(x)), Answer::Number(Some(y))) => close_enough(*x, *y),
        _ => pa == pb,
    };
    if same {
        Ok(())
    } else {
        Err(format!("{q:?}: {pa:?} != {pb:?}"))
    }
}

/// Check against a store whose commit point floats between `base` and
/// `last` (a snapshot beside a live writer, or a lagging replica). Query
/// dates lie in segments archived before `base`, so Q1/Q2/Q5 do not move
/// and are checked exactly; Q3/Q4/Q6 grow with the history (Q6 because a
/// period still open at `base` gains a successor later) and must lie
/// between the two models' answers.
pub fn check_between(base: &Model, last: &Model, q: &Query, rendered: &str) -> Result<(), String> {
    match q {
        Query::Q1 { .. } | Query::Q2 { .. } | Query::Q5 { .. } => check_exact(base, q, rendered),
        _ => {
            let got = parse_rendered(q, rendered)?;
            let (lo, hi) = (base.answer(q), last.answer(q));
            let ok = match (&got, &lo, &hi) {
                (Answer::Periods(g), Answer::Periods(lo), Answer::Periods(hi)) => {
                    // Some prefix of the final history, with only its last
                    // period possibly still open.
                    let n = g.len();
                    (lo.len()..=hi.len()).contains(&n)
                        && g.iter().zip(hi).enumerate().all(|(i, (g, h))| {
                            g.salary == h.salary
                                && g.tstart == h.tstart
                                && (g.tend == h.tend || (i + 1 == n && g.tend == END_OF_TIME))
                        })
                }
                (Answer::Number(g), Answer::Number(lo), Answer::Number(hi)) => {
                    let at_least = |a: Option<f64>, b: Option<f64>| match (a, b) {
                        (_, None) => true,
                        (None, Some(_)) => false,
                        (Some(a), Some(b)) => a >= b || close_enough(a, b),
                    };
                    at_least(*g, *lo) && at_least(*hi, *g)
                }
                _ => false,
            };
            if ok {
                Ok(())
            } else {
                Err(format!(
                    "{q:?}: got {got:?}, want between {lo:?} and {hi:?}"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::from_ymd(y, m, day).unwrap()
    }

    fn tiny() -> Vec<Op> {
        vec![
            Op::Hire {
                id: 1,
                name: "A".into(),
                salary: 100,
                title: "T".into(),
                deptno: "d001".into(),
                at: d(1985, 1, 10),
            },
            Op::Hire {
                id: 2,
                name: "B".into(),
                salary: 300,
                title: "T".into(),
                deptno: "d001".into(),
                at: d(1985, 2, 1),
            },
            Op::Raise {
                id: 1,
                salary: 150,
                at: d(1986, 1, 10),
            },
            Op::Leave {
                id: 2,
                at: d(1986, 6, 1),
            },
        ]
    }

    #[test]
    fn model_answers_all_six_classes() {
        let m = Model::replay(&tiny());
        let q1 = Query::Q1 {
            id: 1,
            date: d(1985, 6, 1),
        };
        assert_eq!(
            m.answer(&q1),
            Answer::Periods(vec![Period {
                salary: 100,
                tstart: d(1985, 1, 10),
                tend: d(1986, 1, 9)
            }])
        );
        let q2 = Query::Q2 {
            date: d(1985, 6, 1),
        };
        assert_eq!(m.answer(&q2), Answer::Number(Some(200.0)));
        assert_eq!(m.answer(&Query::Q4), Answer::Number(Some(3.0)));
        let q5 = Query::Q5 {
            threshold: 120,
            d1: d(1986, 1, 1),
            d2: d(1986, 12, 31),
        };
        assert_eq!(m.answer(&q5), Answer::Number(Some(2.0)));
        let q6 = Query::Q6 {
            d1: d(1985, 1, 1),
            d2: d(1985, 12, 31),
        };
        assert_eq!(m.answer(&q6), Answer::Number(Some(50.0)));
        let none = Query::Q6 {
            d1: d(1990, 1, 1),
            d2: d(1990, 12, 31),
        };
        assert_eq!(m.answer(&none), Answer::Number(None));
    }

    #[test]
    fn rendered_answers_are_checked() {
        let m = Model::replay(&tiny());
        let q3 = Query::Q3 { id: 1 };
        let good = "<salary tstart=\"1986-01-10\" tend=\"9999-12-31\">150</salary>\n\
                    <salary tstart=\"1985-01-10\" tend=\"1986-01-09\">100</salary>";
        assert!(check_exact(&m, &q3, good).is_ok());
        assert!(check_exact(&m, &q3, &good.replace("150", "151")).is_err());
        assert!(check_exact(&m, &Query::Q4, "3").is_ok());
        assert!(check_exact(&m, &Query::Q4, "4").is_err());
        // Q1 from an archived segment: tend may still read "forever".
        let q1 = Query::Q1 {
            id: 1,
            date: d(1985, 6, 1),
        };
        let open = "<salary tstart=\"1985-01-10\" tend=\"9999-12-31\">100</salary>";
        assert!(check_exact(&m, &q1, open).is_ok());
    }

    #[test]
    fn floating_commit_point_is_bounded() {
        let ops = tiny();
        let (base, last) = (Model::replay(&ops[..2]), Model::replay(&ops));
        let q3 = Query::Q3 { id: 1 };
        let early = "<salary tstart=\"1985-01-10\" tend=\"9999-12-31\">100</salary>";
        assert!(check_between(&base, &last, &q3, early).is_ok());
        assert!(check_between(&base, &last, &Query::Q4, "2").is_ok());
        assert!(check_between(&base, &last, &Query::Q4, "3").is_ok());
        assert!(check_between(&base, &last, &Query::Q4, "4").is_err());
        assert!(check_between(&base, &last, &Query::Q4, "1").is_err());
    }

    #[test]
    fn mix_is_40_10_20_5_15_10() {
        let w = mix_weights();
        let want = [0.40, 0.10, 0.20, 0.05, 0.15, 0.10];
        for (w, want) in w.iter().zip(want) {
            assert!((w - want).abs() < 1e-12);
        }
    }
}
