//! A SQL + SQL/XML engine over [`relstore`].
//!
//! ArchIS translates XQuery on H-views into SQL/XML on H-tables (paper §5.3)
//! using the publishing constructs the SQL/XML standard defines:
//! `XMLElement`, `XMLAttributes` and the aggregate `XMLAgg`. Pushing tag
//! binding and structure construction *inside* the relational engine is the
//! high-performance approach the paper adopts (after reference 34 in its
//! references), so this crate implements exactly that: a SQL parser, a
//! small planner (predicate pushdown into the scans, cost-based access
//! paths, hash joins on composite equality keys), and an executor whose
//! select list can construct XML values and aggregate them per group as
//! rows arrive.
//!
//! Scalar UDFs (the paper's temporal built-ins: `toverlaps`, `tcontains`,
//! ...) are resolved through a [`relstore::expr::FnRegistry`] supplied by
//! the caller, once per statement when it is compiled.
//!
//! # Example
//!
//! ```
//! use relstore::{Database, StorageKind, Schema, Field, DataType, Value};
//! use relstore::expr::FnRegistry;
//! use sqlxml::execute;
//!
//! let db = Database::in_memory();
//! let t = db.create_table("employee_name",
//!     Schema::new(vec![Field::new("id", DataType::Int),
//!                      Field::new("name", DataType::Str)]),
//!     StorageKind::Heap, &[]).unwrap();
//! t.insert(vec![Value::Int(1), Value::Str("Bob".into())]).unwrap();
//! let out = execute(&db,
//!     r#"select XMLElement(Name "employee", e.name) from employee_name as e"#,
//!     &FnRegistry::new().into()).unwrap();
//! assert_eq!(out.xml_fragments().join(""), "<employee>Bob</employee>");
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
pub mod engine;
pub mod parser;

pub use engine::{execute, execute_stmt, execute_stmt_with, QueryResult, SideStorage, SqlValue};
pub use parser::{parse_sql, SelectStmt};

use std::fmt;

/// Errors from SQL parsing or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical / syntax error with byte offset.
    Parse(usize, String),
    /// Unknown table / column / alias.
    Unresolved(String),
    /// Execution failure (wraps relstore errors).
    Exec(String),
    /// Misuse of XML constructs (e.g. `XMLAgg` outside the select list).
    Xml(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(at, m) => write!(f, "SQL syntax error at byte {at}: {m}"),
            SqlError::Unresolved(m) => write!(f, "unresolved name: {m}"),
            SqlError::Exec(m) => write!(f, "execution error: {m}"),
            SqlError::Xml(m) => write!(f, "SQL/XML error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<relstore::StoreError> for SqlError {
    fn from(e: relstore::StoreError) -> Self {
        SqlError::Exec(e.to_string())
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SqlError>;
