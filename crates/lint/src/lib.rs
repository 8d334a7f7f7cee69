//! `archis-lint` — repo-specific static analysis for the ArchIS engine.
//!
//! Nine analyses run over the storage-engine sources (`crates/relstore/src`,
//! `crates/core/src`, `crates/replica/src`, `crates/bench/src` and
//! `crates/sqlxml/src` by
//! default), built on a hand-rolled token scanner (no external parser
//! crates; the build is offline). Six are token-pattern rules; three are
//! flow-sensitive, built on a per-function CFG ([`cfg`]) and a forward
//! fixpoint solver ([`dataflow`]):
//!
//! 1. **WAL discipline** (`wal-discipline`) — direct page writes, file
//!    truncation or raw file creation outside the sanctioned modules.
//! 2. **Session layer** (`session-layer`) — `BTree::open` outside the
//!    session/snapshot layer, which would bypass MVCC root management.
//! 3. **Lock order** (`lock-order`, `lock-across-io`) — cycles in the
//!    inter-procedural lock-acquisition graph, and engine-level locks held
//!    across pager/file I/O.
//! 4. **Panic-path ratchet** (`panic-path`, `slice-index`) — per-file
//!    counts of `unwrap`/`expect`/`panic!` and slice indexing in non-test
//!    code, compared against the committed `lint-baseline.toml`.
//! 5. **Error-drop audit** (`error-drop`) — `let _ =` and statement-final
//!    `.ok()` on the commit/recovery/vacuum paths.
//! 6. **Planner discipline** (`planner-bypass`) — direct raw access-path
//!    calls (`stream`, `index_range`, `cluster_range_stream`, ...) in the query
//!    paths, which would hand-wire a plan past the cost-based planner and
//!    its segment pruning.
//! 7. **Pin leaks** (`pin-leak`) — flow-sensitive: snapshot pins must be
//!    released on every path and must not be live across
//!    checkpoint/vacuum/compress calls.
//! 8. **WAL bracket** (`wal-bracket`) — flow-sensitive: mutations between
//!    transaction begin and commit must not escape via `?`/`return`
//!    without an abort edge.
//! 9. **Corrupt taint** (`corrupt-taint`) — flow-sensitive:
//!    `StoreError::Corrupt` results must propagate; defaulting them away
//!    outside the sanctioned degradation helpers is a finding.
//!
//! Individual sites are suppressed with a `// lint:allow(reason)` comment
//! on the same line or the line(s) immediately above; the reason is
//! mandatory by convention and should say why the invariant holds.
//! Suppression is applied centrally in [`run`] (the rules report every
//! finding), so the JSON report can carry the allow-site of each silenced
//! diagnostic.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

pub mod baseline;
pub mod cfg;
pub mod dataflow;
pub mod lexer;
pub mod model;
pub mod rules {
    pub mod corrupt_taint;
    pub mod error_drop;
    pub mod lock_order;
    pub mod panic_ratchet;
    pub mod pin_leak;
    pub mod planner_bypass;
    pub mod session_layer;
    pub mod wal_bracket;
    pub mod wal_discipline;
}

use baseline::Baseline;
use model::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// One finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: PathBuf,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl Diagnostic {
    pub fn new(file: &Path, line: u32, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_path_buf(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// What to scan and where the policy knobs sit. `Config::for_root` is the
/// real tree's configuration; fixture tests build their own.
pub struct Config {
    /// Repo root; scanned paths and diagnostics are relative to it.
    pub root: PathBuf,
    /// Directories (relative to `root`) whose `.rs` files are scanned.
    pub scan_dirs: Vec<PathBuf>,
    /// File-name suffixes allowed to write pages / truncate / open files.
    pub wal_allow: Vec<String>,
    /// File-name suffixes allowed to call `BTree::open` (the session /
    /// snapshot layer that owns root-page lifetimes).
    pub btree_open_allow: Vec<String>,
    /// File-name suffixes audited by the error-drop rule (the
    /// commit/recovery/vacuum paths).
    pub error_drop_files: Vec<String>,
    /// File-name suffixes audited by the planner-bypass rule (the query
    /// paths, where access-path choice belongs to the cost-based planner).
    pub planner_query_files: Vec<String>,
    /// Receiver-field → candidate impl types, used to resolve calls like
    /// `self.pool.get(...)` through the stoplist of common method names.
    pub receiver_hints: Vec<(String, Vec<String>)>,
    /// Path (relative to `root`) of the panic-ratchet baseline.
    pub baseline_path: PathBuf,
    /// Constructors that take ownership of a snapshot pin (pin-leak):
    /// naming a pinned value in their argument list releases it.
    pub pin_transfer: Vec<String>,
    /// Calls no snapshot pin may be live across (pin-leak).
    pub pin_maintenance: Vec<String>,
    /// Files audited by the wal-bracket analysis; entries containing `/`
    /// match as path suffixes, bare names match the file name.
    pub wal_bracket_files: Vec<String>,
    /// Method/associated-fn names that mutate pages inside a WAL bracket.
    pub wal_mutation_calls: Vec<String>,
    /// Calls that close a WAL bracket successfully.
    pub wal_commit_calls: Vec<String>,
    /// Calls that close a WAL bracket by rolling back.
    pub wal_abort_calls: Vec<String>,
    /// Read entry points whose `Result` can carry `StoreError::Corrupt`.
    pub corrupt_sources: Vec<String>,
    /// Adapters that silently default an error away (corrupt-taint).
    pub corrupt_sinks: Vec<String>,
    /// Sanctioned degradation helpers allowed to consume Corrupt results.
    pub corrupt_sanctioned: Vec<String>,
}

impl Config {
    /// The production configuration for the ArchIS repo rooted at `root`.
    pub fn for_root(root: PathBuf) -> Config {
        Config {
            root,
            scan_dirs: vec![
                PathBuf::from("crates/relstore/src"),
                PathBuf::from("crates/core/src"),
                PathBuf::from("crates/fsck/src"),
                PathBuf::from("crates/replica/src"),
                PathBuf::from("crates/sqlxml/src"),
                PathBuf::from("crates/bench/src"),
            ],
            wal_allow: vec!["wal.rs".into(), "pager.rs".into(), "failpoint.rs".into()],
            btree_open_allow: vec!["table.rs".into(), "btree.rs".into()],
            error_drop_files: vec![
                "wal.rs".into(),
                "pager.rs".into(),
                "catalog.rs".into(),
                "archive.rs".into(),
            ],
            planner_query_files: vec![
                "engine.rs".into(),
                "queries.rs".into(),
                "translate.rs".into(),
            ],
            receiver_hints: vec![
                ("pool".into(), vec!["BufferPool".into()]),
                (
                    "pager".into(),
                    vec!["FilePager".into(), "MemPager".into(), "WalPager".into()],
                ),
                ("base".into(), vec!["FilePager".into(), "MemPager".into()]),
                ("log".into(), vec!["FileLog".into(), "MemLog".into()]),
                ("clustered".into(), vec!["BTree".into()]),
                ("heap".into(), vec!["HeapFile".into()]),
            ],
            baseline_path: PathBuf::from("lint-baseline.toml"),
            pin_transfer: vec!["SnapshotPager".into()],
            pin_maintenance: vec!["checkpoint".into(), "vacuum".into(), "compress".into()],
            wal_bracket_files: vec![
                "core/src/lib.rs".into(),
                "archive.rs".into(),
                "catalog.rs".into(),
            ],
            wal_mutation_calls: vec![
                "apply".into(),
                "apply_batch".into(),
                "create".into(),
                "persist_meta".into(),
            ],
            wal_commit_calls: vec!["txn_commit".into(), "commit".into(), "checkpoint".into()],
            wal_abort_calls: vec!["txn_abort".into(), "abort".into()],
            corrupt_sources: vec![
                "read_page".into(),
                "read_page_at".into(),
                "read_block".into(),
                "decode_block".into(),
                "lookup".into(),
                "index_lookup".into(),
                "index_range".into(),
                "index_range_stream".into(),
                "cluster_range_stream".into(),
            ],
            corrupt_sinks: vec![
                "ok".into(),
                "unwrap_or".into(),
                "unwrap_or_default".into(),
                "unwrap_or_else".into(),
                "or_default".into(),
            ],
            corrupt_sanctioned: vec![
                "index_range_fallback".into(),
                "quarantine".into(),
                "quarantine_block".into(),
            ],
        }
    }

    pub fn is_wal_allowed_file(&self, rel: &Path) -> bool {
        Self::name_matches(rel, &self.wal_allow)
    }

    pub fn is_btree_open_allowed_file(&self, rel: &Path) -> bool {
        Self::name_matches(rel, &self.btree_open_allow)
    }

    pub fn is_error_drop_audited(&self, rel: &Path) -> bool {
        Self::name_matches(rel, &self.error_drop_files)
    }

    pub fn is_planner_query_file(&self, rel: &Path) -> bool {
        Self::name_matches(rel, &self.planner_query_files)
    }

    pub fn is_wal_bracket_file(&self, rel: &Path) -> bool {
        Self::name_matches(rel, &self.wal_bracket_files)
    }

    pub fn receiver_types(&self, field: &str) -> &[String] {
        self.receiver_hints
            .iter()
            .find(|(f, _)| f == field)
            .map(|(_, t)| t.as_slice())
            .unwrap_or(&[])
    }

    /// Bare entries match the file name; entries containing `/` match as
    /// path suffixes (`core/src/lib.rs` selects one lib.rs, not all).
    fn name_matches(rel: &Path, names: &[String]) -> bool {
        let full = rel.to_string_lossy().replace('\\', "/");
        names.iter().any(|m| {
            if m.contains('/') {
                full.ends_with(m.as_str())
            } else {
                rel.file_name().and_then(|n| n.to_str()) == Some(m.as_str())
            }
        })
    }
}

/// Everything one run produces: site diagnostics, `lint:allow`-silenced
/// findings (with their marker line, for the JSON report), the freshly
/// counted ratchet sections (so `--update-baseline` can write them out),
/// and scan statistics for the self-run timing line.
pub struct Outcome {
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a `lint:allow` marker, paired with the
    /// marker's line.
    pub suppressed: Vec<(Diagnostic, u32)>,
    pub counted: Baseline,
    pub files_scanned: usize,
    pub functions_scanned: usize,
    pub elapsed: std::time::Duration,
}

impl Outcome {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Load the scanned files, run all nine analyses and compare the panic
/// counts against the committed baseline (unless `update_baseline`).
///
/// The per-file rules fan out across worker threads (each analysis is
/// file-local); the cross-file lock-order pass and the ratchet run
/// serially afterwards. A dataflow fixpoint failure anywhere is a hard
/// `Err` — the binary exits 2 rather than under-reporting.
pub fn run(cfg: &Config, update_baseline: bool) -> Result<Outcome, String> {
    let start = std::time::Instant::now();
    let files = load_files(cfg)?;
    let mut diagnostics = Vec::new();

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, files.len().max(1));
    let chunk = files.len().div_ceil(workers);
    let results: Vec<Result<Vec<Diagnostic>, String>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = files
            .chunks(chunk)
            .map(|slice| s.spawn(move |_| per_file_rules(cfg, slice)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("lint worker panicked".into()))
            })
            .collect()
    })
    .unwrap_or_else(|_| vec![Err("lint thread scope failed".into())]);
    for r in results {
        diagnostics.extend(r?);
    }

    rules::lock_order::check(cfg, &files, &mut diagnostics);

    let (panics, indexing) = rules::panic_ratchet::count(&files);
    let mut counted = Baseline::default();
    counted
        .sections
        .insert(rules::panic_ratchet::RULE_PANIC.into(), panics);
    counted
        .sections
        .insert(rules::panic_ratchet::RULE_INDEX.into(), indexing);

    if !update_baseline {
        let path = cfg.root.join(&cfg.baseline_path);
        let committed = match std::fs::read_to_string(&path) {
            Ok(text) => Baseline::parse(&text)?,
            Err(e) => {
                return Err(format!(
                    "cannot read baseline {}: {e}; run with --update-baseline to create it",
                    path.display()
                ))
            }
        };
        ratchet_diagnostics(&counted, &committed, &mut diagnostics);
    }

    // Central `lint:allow` handling: the rules report every finding and
    // the marker partitions them here, so silenced diagnostics are still
    // visible to the JSON report together with their allow-site.
    let by_path: std::collections::BTreeMap<&Path, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_path(), f)).collect();
    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    for d in diagnostics {
        match by_path
            .get(d.file.as_path())
            .and_then(|f| f.allow_marker(d.line))
        {
            Some(marker) => suppressed.push((d, marker)),
            None => active.push(d),
        }
    }
    active.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    suppressed.sort_by(|(a, _), (b, _)| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Outcome {
        diagnostics: active,
        suppressed,
        counted,
        files_scanned: files.len(),
        functions_scanned: files.iter().map(|f| f.functions.len()).sum(),
        elapsed: start.elapsed(),
    })
}

/// The file-local analyses, run on one worker's slice of the files.
fn per_file_rules(cfg: &Config, slice: &[SourceFile]) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    rules::wal_discipline::check(cfg, slice, &mut out);
    rules::session_layer::check(cfg, slice, &mut out);
    rules::error_drop::check(cfg, slice, &mut out);
    rules::planner_bypass::check(cfg, slice, &mut out);
    rules::pin_leak::check(cfg, slice, &mut out)?;
    rules::wal_bracket::check(cfg, slice, &mut out)?;
    rules::corrupt_taint::check(cfg, slice, &mut out)?;
    Ok(out)
}

/// Compare fresh counts to the committed baseline. Counts above baseline
/// are regressions; counts below (or files that vanished) make the
/// baseline stale — also an error, so the committed file always matches
/// reality and every burndown tightens the ratchet in the same commit.
fn ratchet_diagnostics(counted: &Baseline, committed: &Baseline, out: &mut Vec<Diagnostic>) {
    for (section, rule) in [
        (
            rules::panic_ratchet::RULE_PANIC,
            rules::panic_ratchet::RULE_PANIC,
        ),
        (
            rules::panic_ratchet::RULE_INDEX,
            rules::panic_ratchet::RULE_INDEX,
        ),
    ] {
        let fresh = counted.section(section);
        let base = committed.section(section);
        for (file, &n) in &fresh {
            let b = base.get(file).copied().unwrap_or(0);
            if n > b {
                out.push(Diagnostic::new(
                    Path::new(file),
                    0,
                    rule,
                    format!(
                        "{section} count rose to {n} (baseline {b}); convert the new \
                         sites to Result or annotate with lint:allow(reason)"
                    ),
                ));
            } else if n < b {
                out.push(Diagnostic::new(
                    Path::new(file),
                    0,
                    rule,
                    format!(
                        "{section} count improved to {n} (baseline {b}); baseline is \
                         stale, run --update-baseline to ratchet down"
                    ),
                ));
            }
        }
        for (file, &b) in &base {
            if !fresh.contains_key(file) && b > 0 {
                out.push(Diagnostic::new(
                    Path::new(file),
                    0,
                    rule,
                    format!(
                        "{section} count improved to 0 (baseline {b}); baseline is \
                         stale, run --update-baseline to ratchet down"
                    ),
                ));
            }
        }
    }
}

fn load_files(cfg: &Config) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    for dir in &cfg.scan_dirs {
        collect_rs(&cfg.root.join(dir), &mut paths)
            .map_err(|e| format!("scanning {}: {e}", dir.display()))?;
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path.strip_prefix(&cfg.root).unwrap_or(&path).to_path_buf();
        files.push(SourceFile::parse(rel, &src));
    }
    if files.is_empty() {
        return Err("no .rs files found under the scan directories".into());
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            // A file named `tests.rs` is a `#[cfg(test)] mod tests;`
            // module by workspace convention — the gate lives on the
            // `mod` declaration in the parent file, where the in-file
            // test-region marker cannot see it. Skip it like any other
            // test region (the ratchet counts non-test code only).
            if path.file_stem().is_some_and(|s| s == "tests") {
                continue;
            }
            out.push(path);
        }
    }
    Ok(())
}
