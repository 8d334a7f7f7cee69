//! The paper's benchmark queries (Table 3) as XQuery.
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
//! Each builder returns an **XQuery string**, run natively by the `xmldb`
//! crate (the Tamino path) or through [`ArchIS::query`] (the ArchIS path):
//! translated to SQL/XML by [`crate::Translator`] and executed on the
//! H-tables, reading a compressed store's blocks where the relation has
//! one. [`q2_current`] is the §7.1 baseline on the current table.

use crate::{ArchIS, Result};
use temporal::Date;

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
    use relstore::value::Value;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    /// Three employees with raises, archived twice.
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
    fn q2_current_matches_live_average() {
        let a = setup();
        // Last raises in 1999: 58000, 63000, 68000 → avg 63000.
        assert!((q2_current(&a).unwrap() - 63_000.0).abs() < 1e-9);
    }
}
