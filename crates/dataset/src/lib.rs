//! The employee temporal workload generator.
//!
//! The paper evaluates on the TimeCenter *employee temporal data set*,
//! which "models the history of employees over 17 years, and simulates the
//! increases of salaries, changes of titles, and changes of departments".
//! That data set is distributed as a generator, so this crate implements an
//! equivalent one: a seeded, deterministic stream of hire / raise / title /
//! department / termination events over a configurable horizon and
//! population. The benchmark harness replays the stream through ArchIS
//! (trigger or log mode) and through the native XML database.
//!
//! ```
//! use dataset::{DatasetConfig, Op};
//! let ops = dataset::generate(&DatasetConfig { employees: 50, ..Default::default() });
//! assert!(matches!(ops[0], Op::Hire { .. }));
//! // Deterministic: same seed, same stream.
//! let again = dataset::generate(&DatasetConfig { employees: 50, ..Default::default() });
//! assert_eq!(ops.len(), again.len());
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal::Date;

/// One event in the employee history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A new employee.
    Hire {
        /// Employee id (stable key).
        id: i64,
        /// Name.
        name: String,
        /// Starting salary.
        salary: i64,
        /// Starting title.
        title: String,
        /// Starting department.
        deptno: String,
        /// Hire date.
        at: Date,
    },
    /// A salary change.
    Raise {
        /// Employee id.
        id: i64,
        /// New salary.
        salary: i64,
        /// Effective date.
        at: Date,
    },
    /// A title change.
    TitleChange {
        /// Employee id.
        id: i64,
        /// New title.
        title: String,
        /// Effective date.
        at: Date,
    },
    /// A department change.
    DeptChange {
        /// Employee id.
        id: i64,
        /// New department.
        deptno: String,
        /// Effective date.
        at: Date,
    },
    /// Termination.
    Leave {
        /// Employee id.
        id: i64,
        /// Last day + 1 (transaction date).
        at: Date,
    },
}

impl Op {
    /// The event date.
    pub fn at(&self) -> Date {
        match self {
            Op::Hire { at, .. }
            | Op::Raise { at, .. }
            | Op::TitleChange { at, .. }
            | Op::DeptChange { at, .. }
            | Op::Leave { at, .. } => *at,
        }
    }

    /// The employee the event concerns.
    pub fn id(&self) -> i64 {
        match self {
            Op::Hire { id, .. }
            | Op::Raise { id, .. }
            | Op::TitleChange { id, .. }
            | Op::DeptChange { id, .. }
            | Op::Leave { id, .. } => *id,
        }
    }
}

/// Generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Employees hired in year one (the population then grows slowly).
    pub employees: usize,
    /// First day of the history.
    pub start: Date,
    /// Horizon in years (the paper's data set covers 17).
    pub years: u32,
    /// Departments (`d001`, `d002`, ...).
    pub departments: usize,
    /// Yearly probability of a title change.
    pub title_change_prob: f64,
    /// Yearly probability of a department change.
    pub dept_change_prob: f64,
    /// Yearly attrition probability.
    pub attrition_prob: f64,
    /// Yearly growth of the workforce (fraction of initial size hired).
    pub growth: f64,
    /// RNG seed (same seed ⇒ identical stream).
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            employees: 100,
            start: Date::from_ymd(1985, 1, 1).expect("valid"),
            years: 17,
            departments: 9,
            title_change_prob: 0.25,
            dept_change_prob: 0.2,
            attrition_prob: 0.05,
            growth: 0.04,
            seed: 42,
        }
    }
}

const TITLES: &[&str] = &[
    "Engineer",
    "Sr Engineer",
    "TechLeader",
    "Manager",
    "Sr Manager",
    "Staff",
    "Sr Staff",
    "Assistant",
];

const FIRST: &[&str] = &[
    "Bob", "Alice", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi", "Ivan", "Judy", "Ken",
    "Lena", "Mallory", "Niaj", "Olivia", "Peggy", "Quent", "Rupert", "Sybil", "Trent",
];

const LAST: &[&str] = &[
    "Smith", "Jones", "Chen", "Garcia", "Patel", "Kim", "Okafor", "Novak", "Silva", "Dubois",
    "Ivanov", "Tanaka", "Olsen", "Russo", "Kaur", "Weber",
];

/// Generate the event stream, ordered by date (ties by employee id).
pub fn generate(config: &DatasetConfig) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ops: Vec<Op> = Vec::new();
    let mut next_id: i64 = 100_001;
    // (id, hire anniversary day-of-year offset, salary, title idx, dept, active)
    struct Emp {
        id: i64,
        salary: i64,
        title: usize,
        dept: usize,
        active: bool,
    }
    let mut emps: Vec<Emp> = Vec::new();
    let year_days = 365;

    let mut hire = |rng: &mut StdRng, ops: &mut Vec<Op>, emps: &mut Vec<Emp>, at: Date| {
        let id = next_id;
        next_id += 1;
        let salary = 30_000 + rng.gen_range(0..400) * 100;
        let title = rng.gen_range(0..TITLES.len().min(3)); // start junior-ish
        let dept = rng.gen_range(0..config.departments.max(1));
        let name = format!(
            "{} {}",
            FIRST[rng.gen_range(0..FIRST.len())],
            LAST[rng.gen_range(0..LAST.len())]
        );
        ops.push(Op::Hire {
            id,
            name,
            salary,
            title: TITLES[title].to_string(),
            deptno: format!("d{:03}", dept + 1),
            at,
        });
        emps.push(Emp {
            id,
            salary,
            title,
            dept,
            active: true,
        });
    };

    // Year 0: the initial population, hired through the year.
    for _ in 0..config.employees {
        let day = config.start + rng.gen_range(0..year_days);
        hire(&mut rng, &mut ops, &mut emps, day);
    }

    for year in 1..config.years {
        let year_start = config.start + (year as i32) * year_days;
        // Growth hires.
        let hires = ((config.employees as f64) * config.growth).round() as usize;
        for _ in 0..hires {
            let day = year_start + rng.gen_range(0..year_days);
            hire(&mut rng, &mut ops, &mut emps, day);
        }
        for e in emps.iter_mut() {
            if !e.active {
                continue;
            }
            // Attrition.
            if rng.gen_bool(config.attrition_prob) {
                let day = year_start + rng.gen_range(0..year_days);
                ops.push(Op::Leave { id: e.id, at: day });
                e.active = false;
                continue;
            }
            // Annual raise (2–9%), rounded to a new distinct value.
            let pct = rng.gen_range(2..10) as f64 / 100.0;
            let new_salary = ((e.salary as f64) * (1.0 + pct)).round() as i64;
            if new_salary != e.salary {
                e.salary = new_salary;
                let day = year_start + rng.gen_range(0..year_days);
                ops.push(Op::Raise {
                    id: e.id,
                    salary: e.salary,
                    at: day,
                });
            }
            // Title change.
            if rng.gen_bool(config.title_change_prob) {
                let next = (e.title + 1).min(TITLES.len() - 1);
                if next != e.title {
                    e.title = next;
                    let day = year_start + rng.gen_range(0..year_days);
                    ops.push(Op::TitleChange {
                        id: e.id,
                        title: TITLES[e.title].to_string(),
                        at: day,
                    });
                }
            }
            // Department change.
            if config.departments > 1 && rng.gen_bool(config.dept_change_prob) {
                let mut next = rng.gen_range(0..config.departments);
                if next == e.dept {
                    next = (next + 1) % config.departments;
                }
                e.dept = next;
                let day = year_start + rng.gen_range(0..year_days);
                ops.push(Op::DeptChange {
                    id: e.id,
                    deptno: format!("d{:03}", e.dept + 1),
                    at: day,
                });
            }
        }
    }
    // Order by date; a hire must precede same-day events of the same
    // employee, so break ties with (id, hire-first).
    ops.sort_by_key(|op| (op.at(), op.id(), !matches!(op, Op::Hire { .. })));
    // Drop events that race their own hire/leave on the same day in the
    // wrong order (rare with daily granularity): keep the stream replayable.
    sanitize(ops)
}

/// Remove events that would not replay (before hire, after leave, same-day
/// duplicates on one attribute).
fn sanitize(ops: Vec<Op>) -> Vec<Op> {
    use std::collections::HashMap;
    #[derive(Default, Clone)]
    struct S {
        hired: Option<Date>,
        left: Option<Date>,
        last_raise: Option<Date>,
        last_title: Option<Date>,
        last_dept: Option<Date>,
    }
    let mut state: HashMap<i64, S> = HashMap::new();
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let s = state.entry(op.id()).or_default();
        let alive =
            |s: &S, at: Date| s.hired.is_some_and(|h| h <= at) && s.left.is_none_or(|l| at < l);
        match &op {
            Op::Hire { at, .. } => {
                if s.hired.is_some() {
                    continue;
                }
                s.hired = Some(*at);
                out.push(op);
            }
            Op::Raise { at, .. } => {
                if !alive(s, *at) || s.last_raise == Some(*at) || s.hired == Some(*at) {
                    continue;
                }
                s.last_raise = Some(*at);
                out.push(op);
            }
            Op::TitleChange { at, .. } => {
                if !alive(s, *at) || s.last_title == Some(*at) || s.hired == Some(*at) {
                    continue;
                }
                s.last_title = Some(*at);
                out.push(op);
            }
            Op::DeptChange { at, .. } => {
                if !alive(s, *at) || s.last_dept == Some(*at) || s.hired == Some(*at) {
                    continue;
                }
                s.last_dept = Some(*at);
                out.push(op);
            }
            Op::Leave { at, .. } => {
                // A hire and a leave on one day is not a representable
                // lifetime under closed-closed day periods.
                if !alive(s, *at) || s.hired == Some(*at) {
                    continue;
                }
                s.left = Some(*at);
                out.push(op);
            }
        }
    }
    out
}

/// Summary statistics of a stream (used by benches to report workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Hires.
    pub hires: usize,
    /// Salary changes.
    pub raises: usize,
    /// Title changes.
    pub title_changes: usize,
    /// Department changes.
    pub dept_changes: usize,
    /// Terminations.
    pub leaves: usize,
}

/// Compute [`StreamStats`].
pub fn stats(ops: &[Op]) -> StreamStats {
    let mut s = StreamStats::default();
    for op in ops {
        match op {
            Op::Hire { .. } => s.hires += 1,
            Op::Raise { .. } => s.raises += 1,
            Op::TitleChange { .. } => s.title_changes += 1,
            Op::DeptChange { .. } => s.dept_changes += 1,
            Op::Leave { .. } => s.leaves += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> DatasetConfig {
        DatasetConfig {
            employees: 40,
            years: 10,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a, b);
        let c = generate(&DatasetConfig { seed: 8, ..small() });
        assert_ne!(a, c);
    }

    #[test]
    fn stream_is_date_ordered() {
        let ops = generate(&small());
        for w in ops.windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
    }

    /// Every op references a hired, not-yet-left employee, strictly after
    /// the hire day — a same-day `Leave` would need a lifetime shorter than
    /// the closed-closed day granule — and no attribute changes twice on
    /// one day. Checked on the small stream and on the standing benchmark's
    /// H and L streams (700 / 2 000 employees, 17 years), half of which
    /// used to carry a hire-day leave.
    #[test]
    fn stream_replays_consistently() {
        let mut configs = vec![small()];
        for employees in [700, 2000] {
            for seed in [1, 7, 42, 2017, 4099] {
                configs.push(DatasetConfig {
                    employees,
                    years: 17,
                    seed,
                    ..Default::default()
                });
            }
        }
        for config in &configs {
            let mut hired: HashMap<i64, Date> = HashMap::new();
            let mut left: HashMap<i64, Date> = HashMap::new();
            for op in &generate(config) {
                let (id, at) = (op.id(), op.at());
                let what = format!(
                    "{op:?} ({} employees, seed {})",
                    config.employees, config.seed
                );
                match op {
                    Op::Hire { .. } => {
                        assert!(hired.insert(id, at).is_none(), "double hire: {what}");
                    }
                    Op::Leave { .. } => {
                        assert!(hired[&id] < at, "leave on the hire day: {what}");
                        assert!(left.insert(id, at).is_none(), "double leave: {what}");
                    }
                    _ => {
                        assert!(hired[&id] < at, "op on or before the hire day: {what}");
                        assert!(
                            left.get(&id).is_none_or(|l| at < *l),
                            "op after leave: {what}"
                        );
                    }
                }
            }
        }
    }

    /// Dropping an event in `sanitize` must not move any RNG draw: a seed
    /// without a hire-day leave generates the stream it always did.
    #[test]
    fn stream_length_is_pinned() {
        let ops = generate(&DatasetConfig {
            employees: 700,
            years: 17,
            seed: 1009,
            ..Default::default()
        });
        assert_eq!(ops.len(), 16_491);
    }

    #[test]
    fn workload_shape_matches_paper() {
        // 17 years, raises dominate (yearly), title/dept changes sparser.
        let ops = generate(&DatasetConfig::default());
        let s = stats(&ops);
        assert!(s.hires >= 100);
        assert!(s.raises > s.title_changes);
        assert!(s.raises > s.dept_changes);
        assert!(
            s.raises as f64 > s.hires as f64 * 5.0,
            "many raises over 17 years"
        );
        assert!(s.leaves > 0);
        // Horizon respected.
        let last = ops.iter().map(Op::at).max().unwrap();
        assert!(last < Date::from_ymd(1985, 1, 1).unwrap() + 17 * 365);
    }

    #[test]
    fn scaling_the_population_scales_the_stream() {
        let small_n = generate(&DatasetConfig {
            employees: 50,
            ..Default::default()
        })
        .len();
        let big_n = generate(&DatasetConfig {
            employees: 350,
            ..Default::default()
        })
        .len();
        let ratio = big_n as f64 / small_n as f64;
        assert!(
            (5.0..=9.0).contains(&ratio),
            "7x population should give roughly 7x events, got {ratio:.1}"
        );
    }

    #[test]
    fn salaries_are_positive_and_rising_on_average() {
        let ops = generate(&small());
        let mut last: HashMap<i64, i64> = HashMap::new();
        let mut ups = 0usize;
        let mut downs = 0usize;
        for op in &ops {
            match op {
                Op::Hire { id, salary, .. } => {
                    assert!(*salary > 0);
                    last.insert(*id, *salary);
                }
                Op::Raise { id, salary, .. } => {
                    if *salary > last[id] {
                        ups += 1;
                    } else {
                        downs += 1;
                    }
                    last.insert(*id, *salary);
                }
                _ => {}
            }
        }
        assert!(ups > downs * 10, "raises go up: {ups} vs {downs}");
    }
}
