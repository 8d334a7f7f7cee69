//! Relation specifications and system configuration.

use relstore::value::DataType;
use relstore::StorageKind;
use temporal::Date;

/// Description of one archived relation — enough to derive the current
/// table, the H-tables and the H-document view.
///
/// The paper's running example is
/// `employee(id, name, salary, title, deptno)` with key `id`, viewed as
/// `employees.xml` with root element `employees` and one `employee`
/// element per key.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSpec {
    /// Relation name; also the H-document tuple element name
    /// (`employee`).
    pub name: String,
    /// Root element of the H-document (`employees`).
    pub root: String,
    /// Document URI the XQuery views use (`employees.xml`).
    pub doc: String,
    /// Key attribute (integer; composite keys use a surrogate, §5.1).
    pub key: String,
    /// Non-key attributes with their types, in declaration order.
    pub attrs: Vec<(String, DataType)>,
    /// Composite natural-key columns stored alongside the surrogate in the
    /// key table (paper §5.1: `lineitem_id(id, supplierno, itemno,
    /// tstart, tend)`). Immutable over the tuple's history.
    pub composite: Vec<(String, DataType)>,
}

impl RelationSpec {
    /// Build a spec with the usual naming conventions
    /// (`name` → root `names` + `names.xml` is *not* assumed; callers pass
    /// the plural explicitly, matching the paper's `employee`/`employees`).
    pub fn new(name: &str, root: &str, key: &str, attrs: Vec<(&str, DataType)>) -> Self {
        RelationSpec {
            name: name.to_string(),
            root: root.to_string(),
            doc: format!("{root}.xml"),
            key: key.to_string(),
            attrs: attrs.into_iter().map(|(n, t)| (n.to_string(), t)).collect(),
            composite: Vec::new(),
        }
    }

    /// Builder: declare composite natural-key columns (stored in the key
    /// table next to the surrogate; immutable over a tuple's history).
    pub fn with_composite_key(mut self, cols: Vec<(&str, DataType)>) -> Self {
        self.composite = cols.into_iter().map(|(n, t)| (n.to_string(), t)).collect();
        self
    }

    /// Is this column part of the composite natural key?
    pub fn is_composite_col(&self, col: &str) -> bool {
        self.composite.iter().any(|(n, _)| n == col)
    }

    /// The paper's employee relation.
    pub fn employee() -> Self {
        RelationSpec::new(
            "employee",
            "employees",
            "id",
            vec![
                ("name", DataType::Str),
                ("salary", DataType::Int),
                ("title", DataType::Str),
                ("deptno", DataType::Str),
            ],
        )
    }

    /// The paper's department relation (`dept(deptno, deptname, mgrno)`,
    /// with the key surrogated to an integer id as §5.1 prescribes for
    /// non-integer keys).
    pub fn dept() -> Self {
        RelationSpec::new(
            "dept",
            "depts",
            "id",
            vec![
                ("deptno", DataType::Str),
                ("deptname", DataType::Str),
                ("mgrno", DataType::Int),
            ],
        )
    }

    /// Does the relation have this attribute?
    pub fn has_attr(&self, attr: &str) -> bool {
        self.attrs.iter().any(|(n, _)| n == attr)
    }

    /// Type of an attribute.
    pub fn attr_type(&self, attr: &str) -> Option<DataType> {
        self.attrs.iter().find(|(n, _)| n == attr).map(|(_, t)| *t)
    }
}

/// ArchIS configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// H-table layout: heap + indexes ("ArchIS-DB2") or clustered B+trees
    /// ("ArchIS-ATLaS").
    pub storage: StorageKind,
    /// Minimum tolerable usefulness `Umin` (paper §6.1). The paper's
    /// benchmarks use 0.4 (9 segments on their data set).
    pub umin: f64,
    /// BlockZIP block size in bytes (paper §8.2 uses 4000).
    pub block_size: usize,
    /// Buffer-pool capacity in pages.
    pub buffer_pages: usize,
    /// Pinned `current-date` for *now* semantics (determinism).
    pub now: Date,
    /// WAL group-commit batch size for durable ([`crate::ArchIS::open_file`])
    /// instances: commits per log fsync. 1 = fsync-per-commit durability;
    /// larger batches amortize the fsync across a window of archival
    /// transactions. Ignored by in-memory instances.
    pub group_commit: usize,
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig {
            storage: StorageKind::Heap,
            umin: 0.4,
            block_size: 4000,
            buffer_pages: 4096,
            now: Date::from_ymd(2005, 1, 1).expect("valid"),
            group_commit: 8,
        }
    }
}

impl ArchConfig {
    /// The DB2-style configuration (heap tables + secondary indexes).
    pub fn db2_like() -> Self {
        ArchConfig {
            storage: StorageKind::Heap,
            ..Default::default()
        }
    }

    /// The ATLaS/BerkeleyDB-style configuration (clustered B+trees).
    pub fn atlas_like() -> Self {
        ArchConfig {
            storage: StorageKind::Clustered,
            ..Default::default()
        }
    }

    /// Builder: set Umin.
    pub fn with_umin(mut self, umin: f64) -> Self {
        self.umin = umin;
        self
    }

    /// Builder: set the pinned now.
    pub fn with_now(mut self, now: Date) -> Self {
        self.now = now;
        self
    }

    /// Builder: set buffer pool pages.
    pub fn with_buffer_pages(mut self, pages: usize) -> Self {
        self.buffer_pages = pages;
        self
    }

    /// Builder: set the WAL group-commit batch size (clamped to ≥ 1).
    pub fn with_group_commit(mut self, batch: usize) -> Self {
        self.group_commit = batch.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn employee_spec_matches_paper() {
        let e = RelationSpec::employee();
        assert_eq!(e.name, "employee");
        assert_eq!(e.root, "employees");
        assert_eq!(e.doc, "employees.xml");
        assert_eq!(e.key, "id");
        assert!(e.has_attr("salary"));
        assert!(!e.has_attr("mgrno"));
        assert_eq!(e.attr_type("salary"), Some(DataType::Int));
        assert_eq!(e.attr_type("name"), Some(DataType::Str));
    }

    #[test]
    fn composite_key_builder() {
        let li = RelationSpec::new("lineitem", "lineitems", "id", vec![("qty", DataType::Int)])
            .with_composite_key(vec![
                ("supplierno", DataType::Str),
                ("itemno", DataType::Int),
            ]);
        assert!(li.is_composite_col("supplierno"));
        assert!(!li.is_composite_col("qty"));
        assert_eq!(li.composite.len(), 2);
    }

    #[test]
    fn config_builders() {
        let c = ArchConfig::atlas_like().with_umin(0.26);
        assert_eq!(c.storage, StorageKind::Clustered);
        assert_eq!(c.umin, 0.26);
        assert_eq!(ArchConfig::default().block_size, 4000);
        assert_eq!(ArchConfig::default().group_commit, 8);
        assert_eq!(ArchConfig::default().with_group_commit(0).group_commit, 1);
        assert_eq!(ArchConfig::default().with_group_commit(64).group_commit, 64);
    }
}
