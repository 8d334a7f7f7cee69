//! Offline checker and repair tool for ArchIS page files.
//!
//! Three modes, layered from cheapest to most thorough:
//!
//! * **scrub** — raw media pass: read every page slot in the base file and
//!   verify its trailing CRC-32. No structure is interpreted; this is the
//!   "does the disk still hold what we wrote" question, answerable even
//!   when the catalog itself is damaged.
//! * **check** — scrub plus a full structural audit: open the database
//!   (replaying any WAL tail), walk the catalog, every table's base
//!   storage, every secondary index, the cached row counters and
//!   recorded heap tails / page counts, the planner's per-segment
//!   statistics catalog, the ArchIS archiver invariants (paper §6.1),
//!   and decode every compressed block.
//! * **repair** — check, then fix everything *derived*: corrupt secondary
//!   indexes are rebuilt from base storage with a bottom-up bulk load,
//!   diverged row counters and heap tails are recounted, drifted segment
//!   statistics are recomputed from the data, and — once every structure
//!   verifies clean — orphaned corrupt pages (damage stranded outside any
//!   live structure, e.g. the old pages of a rebuilt index) are zeroed and
//!   restamped so a follow-up scrub comes back clean. Base-storage and
//!   compressed-block damage is *reported*, never invented around: rows
//!   and blocks are source data only a backup can restore.
//!
//! Findings render one per line as `file:page: [kind] message` (page `-`
//! when the finding is not page-addressed), and the process exit code
//! follows the archis-lint convention: 0 clean, 1 findings, 2 operational
//! error.

use archis::{ArchConfig, ArchIS};
use relstore::page::{PageId, PAGE_SIZE};
use relstore::{Database, FilePager, Pager, StoreError, WalConfig};
use std::fmt;
use std::path::{Path, PathBuf};

/// Operational failure (I/O, bad arguments) — distinct from *findings*,
/// which describe corruption in the examined file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckError(pub String);

impl fmt::Display for FsckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fsck: {}", self.0)
    }
}

impl std::error::Error for FsckError {}

impl From<relstore::StoreError> for FsckError {
    fn from(e: relstore::StoreError) -> Self {
        FsckError(e.to_string())
    }
}

impl From<archis::ArchError> for FsckError {
    fn from(e: archis::ArchError) -> Self {
        FsckError(e.to_string())
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, FsckError>;

/// One corruption finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Page the finding is anchored to, when page-addressed.
    pub page: Option<PageId>,
    /// Finding class: `checksum`, `format`, `catalog`, `base`, `index`,
    /// `counter`, `invariant`, `stats`, `block`, or `diverged` (replica
    /// cross-store audit).
    pub kind: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    fn at(page: PageId, kind: &'static str, message: impl Into<String>) -> Finding {
        Finding {
            page: Some(page),
            kind,
            message: message.into(),
        }
    }

    fn global(kind: &'static str, message: impl Into<String>) -> Finding {
        Finding {
            page: None,
            kind,
            message: message.into(),
        }
    }
}

/// The result of one fsck run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The examined page file.
    pub path: PathBuf,
    /// Page slots in the file.
    pub pages: u64,
    /// Corruption findings that remain (after repairs, in repair mode).
    pub findings: Vec<Finding>,
    /// Repair actions taken (repair mode only).
    pub repairs: Vec<String>,
}

impl Outcome {
    /// Process exit code: 0 clean, 1 findings remain.
    pub fn exit_code(&self) -> i32 {
        if self.findings.is_empty() {
            0
        } else {
            1
        }
    }

    /// Machine-readable report: one `file:page: [kind] message` line per
    /// finding, then one `file: repaired: action` line per repair.
    pub fn render(&self) -> String {
        let file = self.path.display();
        let mut out = String::new();
        for f in &self.findings {
            let page = f
                .page
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!("{file}:{page}: [{}] {}\n", f.kind, f.message));
        }
        for r in &self.repairs {
            out.push_str(&format!("{file}: repaired: {r}\n"));
        }
        out
    }
}

/// Raw media scrub: verify the checksum of every page slot in `path`.
pub fn scrub(path: impl AsRef<Path>) -> Result<Outcome> {
    let path = path.as_ref();
    let (pages, findings) = scrub_file(path)?;
    Ok(Outcome {
        path: path.to_path_buf(),
        pages,
        findings,
        repairs: Vec::new(),
    })
}

fn scrub_file(path: &Path) -> Result<(u64, Vec<Finding>)> {
    let pager = FilePager::open(path)?;
    let pages = pager.num_pages();
    let mut findings = Vec::new();
    if !pager.verifies_checksums() {
        findings.push(Finding::global(
            "format",
            "legacy v1 page file: pages carry no checksums and cannot be verified",
        ));
        return Ok((pages, findings));
    }
    let mut buf = [0u8; PAGE_SIZE];
    for id in 0..pages {
        match pager.read_page(id, &mut buf) {
            Ok(()) => {}
            Err(e) if e.is_corrupt() => {
                findings.push(Finding::at(id, "checksum", e.to_string()));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok((pages, findings))
}

/// Cross-store convergence audit: verify that a replica's store is
/// byte-identical to what the primary's shipping stream prescribes at
/// the replica's replayed LSN, then run the full structural audit
/// (catalog, counters, §6.1 archiver invariants) on the replica.
///
/// The replica's durable position (`<replica>.pos`) names a commit
/// count, but the store itself may be up to one publish ahead of it — a
/// crash between the store fsync and the position append leaves exactly
/// that window. The audit therefore replays the stream commit by commit
/// from the recorded position to the primary's head and accepts the
/// first exact page-for-page match; if no prefix matches, the diverged
/// pages at the closest candidate are reported as `diverged` findings.
/// A replica that has durably quarantined itself is reported too — a
/// quarantined replica is *supposed* to be loud.
pub fn check_against(
    replica_path: impl AsRef<Path>,
    primary_path: impl AsRef<Path>,
) -> Result<Outcome> {
    use relstore::wal::{FileLog, LogFile, RecordScan, WalPager, WAL_REC_COMMIT, WAL_REC_PAGE};
    use replica::{read_position, DirSegments, ShippingLog, SHIP_REC_CRC};
    use std::collections::HashMap;
    use std::sync::Arc;

    let replica_path = replica_path.as_ref();
    let primary_path = primary_path.as_ref();
    let mut findings = Vec::new();

    // Replica devices: page file, WAL, position log.
    let mut wal_path = replica_path.as_os_str().to_os_string();
    wal_path.push(".wal");
    let mut pos_path = replica_path.as_os_str().to_os_string();
    pos_path.push(".pos");
    let pos_bytes = FileLog::open(&pos_path)?.read_all()?;
    let pos = read_position(&pos_bytes).unwrap_or_default();
    if pos.quarantined {
        findings.push(Finding::global(
            "diverged",
            format!(
                "replica is quarantined read-only after divergence \
                 (last verified commit {}, stream position {})",
                pos.commits, pos.pos
            ),
        ));
    }

    // Primary's shipping stream.
    let mut ship_path = primary_path.as_os_str().to_os_string();
    ship_path.push(".ship");
    if !Path::new(&ship_path).is_dir() {
        return Err(FsckError(format!(
            "{}: primary has no shipping stream",
            Path::new(&ship_path).display()
        )));
    }
    let ship = ShippingLog::open(DirSegments::open(&ship_path)?)?;
    let (head_pos, head_commits) = ship.head();

    // Replica store (ordinary WAL recovery; read-only thereafter).
    let base = Arc::new(FilePager::open(replica_path)?);
    let pages = base.num_pages();
    let pager = WalPager::open(
        base,
        Arc::new(FileLog::open(&wal_path)?),
        WalConfig::with_group_commit(1),
    )?;
    let rep_pages = pager.num_pages();

    if pos.commits > head_commits {
        findings.push(Finding::global(
            "diverged",
            format!(
                "replica claims commit {} but the primary's stream head is {}",
                pos.commits, head_commits
            ),
        ));
        return Ok(Outcome {
            path: replica_path.to_path_buf(),
            pages,
            findings,
            repairs: Vec::new(),
        });
    }

    // Replay the stream; compare at every candidate commit from the
    // recorded position to the head, accepting the first exact match.
    let stream = ship.read_from(0, head_pos as usize)?;
    let mut expected: HashMap<PageId, Box<[u8; PAGE_SIZE]>> = HashMap::new();
    let mut staged: Vec<(PageId, Box<[u8; PAGE_SIZE]>)> = Vec::new();
    let mut exp_pages = 0u64;
    let mut commits = 0u64;
    let mut matched = None;
    let mut best: Option<(u64, Vec<PageId>, u64)> = None;
    let mut compare = |commits: u64,
                       expected: &HashMap<PageId, Box<[u8; PAGE_SIZE]>>,
                       exp_pages: u64|
     -> Result<()> {
        if commits < pos.commits || matched.is_some() {
            return Ok(());
        }
        let mut diffs = Vec::new();
        let span = exp_pages.max(rep_pages);
        let mut buf = [0u8; PAGE_SIZE];
        let zero = [0u8; PAGE_SIZE];
        for id in 0..span {
            // lint:allow(unwrap_or on an Option, not a Result: missing pages
            // compare as all-zero; the &b[..] is a whole-slice coercion)
            let want: &[u8] = expected.get(&id).map(|b| &b[..]).unwrap_or(&zero);
            let got: &[u8] = if id < rep_pages {
                match pager.read_page(id, &mut buf) {
                    Ok(()) => &buf,
                    Err(_) => &zero,
                }
            } else {
                &zero
            };
            if want != got {
                diffs.push(id);
            }
        }
        if diffs.is_empty() && exp_pages == rep_pages {
            matched = Some(commits);
        } else if best.as_ref().is_none_or(|(_, d, _)| diffs.len() < d.len()) {
            best = Some((commits, diffs, exp_pages));
        }
        Ok(())
    };
    compare(0, &expected, exp_pages)?;
    for rec in RecordScan::new(&stream, &[WAL_REC_PAGE, WAL_REC_COMMIT, SHIP_REC_CRC]) {
        match rec.kind {
            WAL_REC_PAGE => {
                if rec.payload.len() == PAGE_SIZE {
                    let mut img = Box::new([0u8; PAGE_SIZE]);
                    img.copy_from_slice(rec.payload);
                    staged.push((rec.page_id, img));
                }
            }
            WAL_REC_COMMIT => {
                for (id, img) in staged.drain(..) {
                    expected.insert(id, img);
                }
                exp_pages = exp_pages.max(rec.page_id);
            }
            _ => {
                // SHIP_REC_CRC: one global commit is fully published here.
                commits += 1;
                if commits == pos.commits && pos.commits > 0 && rec.payload.len() == 16 {
                    // lint:allow(trailer length checked == 16 in the guard)
                    let shipped = u64::from_le_bytes(rec.payload[8..].try_into().unwrap());
                    if shipped != pos.crc_state {
                        findings.push(Finding::global(
                            "diverged",
                            format!(
                                "checksum chain mismatch at the replica's recorded \
                                 commit {}: stream {shipped:#018x}, position log {:#018x}",
                                pos.commits, pos.crc_state
                            ),
                        ));
                    }
                }
                compare(commits, &expected, exp_pages)?;
            }
        }
    }

    match matched {
        // An exact match at or after the recorded position is clean: a
        // store ahead of its position log is the expected crash window
        // (position append is ordered after the store fsync).
        Some(_) => {}
        None => {
            let (at, diffs, exp) = best.unwrap_or((pos.commits, Vec::new(), 0));
            if exp != rep_pages {
                findings.push(Finding::global(
                    "diverged",
                    format!(
                        "page count mismatch at commit {at}: stream prescribes \
                         {exp} pages, replica holds {rep_pages}"
                    ),
                ));
            }
            for id in &diffs {
                findings.push(Finding::at(
                    *id,
                    "diverged",
                    format!(
                        "replica page differs from the shipped image at commit {at} \
                         (closest candidate of {} examined)",
                        head_commits - pos.commits + 1
                    ),
                ));
            }
            if diffs.is_empty() && exp == rep_pages {
                findings.push(Finding::global(
                    "diverged",
                    "replica matches no committed prefix of the primary's stream",
                ));
            }
        }
    }
    drop(pager);

    // Structural audit of the replica itself (catalog, tables, counters,
    // §6.1 archiver invariants) — skipped for a fresh replica, where an
    // open would create a catalog page and mutate what we are auditing.
    if rep_pages > 0 {
        let (_, scrub_findings) = scrub_file(replica_path)?;
        findings.extend(scrub_findings);
        findings.extend(structural_check(replica_path)?);
    }

    Ok(Outcome {
        path: replica_path.to_path_buf(),
        pages,
        findings,
        repairs: Vec::new(),
    })
}

/// Scrub plus full structural audit (no writes beyond WAL replay).
pub fn check(path: impl AsRef<Path>) -> Result<Outcome> {
    let path = path.as_ref();
    let (pages, mut findings) = scrub_file(path)?;
    findings.extend(structural_check(path)?);
    Ok(Outcome {
        path: path.to_path_buf(),
        pages,
        findings,
        repairs: Vec::new(),
    })
}

/// Open the database for auditing, classifying an open failure into a
/// finding instead of an error.
///
/// Opening is done in two stages so structured corruption information is
/// not lost: the relstore [`Database`] open (WAL replay, catalog load,
/// heap-chain tail walks) surfaces `StoreError::Corrupt` with a page id —
/// page 0 means the catalog anchor itself, any other page is a heap or
/// catalog chain page, i.e. report-only base storage. Only then is the
/// ArchIS metadata layer attached on top.
fn open_archis(path: &Path) -> std::result::Result<ArchIS, Finding> {
    let db = match Database::open_wal(
        path,
        ArchConfig::default().buffer_pages,
        WalConfig::default(),
    ) {
        Ok(db) => db,
        Err(e) => {
            return Err(match e {
                StoreError::Corrupt {
                    page_id: Some(0), ..
                } => Finding::at(
                    0,
                    "catalog",
                    "cannot open database: the catalog anchor page is corrupt",
                ),
                StoreError::Corrupt {
                    page_id: Some(p), ..
                } => Finding::at(
                    p,
                    "base",
                    format!("cannot open database: {e}; heap/catalog chain damage is report-only"),
                ),
                _ => Finding::global("catalog", format!("cannot open database: {e}")),
            });
        }
    };
    ArchIS::open_with_database(db, ArchConfig::default())
        .map_err(|e| Finding::global("catalog", format!("cannot open archis metadata: {e}")))
}

/// Open the database and audit every structure, turning each problem into
/// a finding. A database that cannot open at all yields a single finding
/// pinned to the page that stopped the open when that is known.
fn structural_check(path: &Path) -> Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let archis = match open_archis(path) {
        Ok(a) => a,
        Err(f) => {
            findings.push(f);
            return Ok(findings);
        }
    };
    findings.extend(audit_tables(&archis).into_iter().map(|(f, _)| f));
    findings.extend(audit_stats(&archis).into_iter().map(|(f, _)| f));
    findings.extend(audit_archis(&archis));
    Ok(findings)
}

/// Statistics-catalog audit: the planner's per-segment stats must agree
/// with the data they summarize. Only the *exact* fields are compared —
/// row count, live/dead split, and the four `tstart`/`tend` extremes;
/// `distinct_keys` and the histogram are estimates by design and drift
/// legitimately between recomputes. A wrong stat never corrupts answers
/// (the equivalence suite holds regardless) but silently degrades pruning
/// and costing, so it is a first-class finding with a derivable repair:
/// recompute the relation's catalog from the data.
fn audit_stats(archis: &ArchIS) -> Vec<(Finding, Option<Repair>)> {
    let mut out = Vec::new();
    for spec in archis.relations() {
        let mut drifted = Vec::new();
        for (attr, _) in &spec.attrs {
            let stored = match archis.segment_stats(&spec.name, attr) {
                Ok(s) => s,
                Err(e) => {
                    drifted.push(format!("attribute {attr}: cannot load stats: {e}"));
                    continue;
                }
            };
            let expected = match archis.expected_stats(&spec.name, attr) {
                Ok(s) => s,
                Err(e) => {
                    drifted.push(format!("attribute {attr}: cannot recompute stats: {e}"));
                    continue;
                }
            };
            for want in &expected {
                match stored.iter().find(|s| s.segno == want.segno) {
                    None => drifted.push(format!(
                        "attribute {attr}: segment {} has {} rows but no stats entry",
                        want.segno, want.rows
                    )),
                    Some(got) => {
                        let fields = [
                            ("rows", got.rows.to_string(), want.rows.to_string()),
                            ("live", got.live.to_string(), want.live.to_string()),
                            ("tsmin", got.tsmin.to_string(), want.tsmin.to_string()),
                            ("tsmax", got.tsmax.to_string(), want.tsmax.to_string()),
                            ("temin", got.temin.to_string(), want.temin.to_string()),
                            ("temax", got.temax.to_string(), want.temax.to_string()),
                            ("blocks", got.blocks.to_string(), want.blocks.to_string()),
                        ];
                        for (field, g, w) in fields {
                            if g != w {
                                drifted.push(format!(
                                    "attribute {attr}: segment {}: {field} is {g}, data says {w}",
                                    want.segno
                                ));
                            }
                        }
                    }
                }
            }
            for got in &stored {
                if !expected.iter().any(|s| s.segno == got.segno) {
                    drifted.push(format!(
                        "attribute {attr}: stats entry for segment {} but the segment holds no rows",
                        got.segno
                    ));
                }
            }
        }
        for why in drifted {
            out.push((
                Finding::global("stats", format!("relation {}: {why}", spec.name)),
                Some(Repair::RecomputeStats(spec.name.clone())),
            ));
        }
    }
    out
}

/// Per-table findings, each paired with the repair that would fix it (or
/// `None` when only a backup can).
#[allow(clippy::type_complexity)]
fn audit_tables(archis: &ArchIS) -> Vec<(Finding, Option<Repair>)> {
    let db = archis.database();
    let mut out = Vec::new();
    for name in db.table_names() {
        let Ok(t) = db.table(&name) else { continue };
        let c = t.verify();
        for e in &c.base_errors {
            out.push((
                Finding::global("base", format!("table {name}: base storage: {e}")),
                None,
            ));
        }
        for (idx, why) in &c.bad_indexes {
            let repair = c
                .is_repairable()
                .then(|| Repair::RebuildIndex(name.clone(), idx.clone()));
            out.push((
                Finding::global("index", format!("table {name}: index {idx}: {why}")),
                repair,
            ));
        }
        if let Some((cached, actual)) = c.row_count {
            out.push((
                Finding::global(
                    "counter",
                    format!("table {name}: cached row count {cached}, actual {actual}"),
                ),
                Some(Repair::Recount(name.clone())),
            ));
        }
        if let Some((recorded, actual)) = c.heap_tail {
            out.push((
                Finding::global(
                    "counter",
                    format!(
                        "table {name}: recorded heap tail page {} of {} pages, chain ends at page {} after {}",
                        recorded.page, recorded.pages, actual.page, actual.pages
                    ),
                ),
                Some(Repair::RecountHeap(name.clone())),
            ));
        }
    }
    out
}

/// ArchIS-level findings: §6.1 archiver invariants and compressed-block
/// decode (quarantines become `block` findings). All report-only.
fn audit_archis(archis: &ArchIS) -> Vec<Finding> {
    let db = archis.database();
    let mut findings = Vec::new();
    for spec in archis.relations() {
        match archis
            .archiver_of(&spec.name)
            .and_then(|a| a.verify_invariants(db))
        {
            Ok(violations) => findings.extend(
                violations
                    .into_iter()
                    .map(|m| Finding::global("invariant", format!("relation {}: {m}", spec.name))),
            ),
            Err(e) => findings.push(Finding::global(
                "invariant",
                format!("relation {}: cannot audit invariants: {e}", spec.name),
            )),
        }
        if let Some(store) = archis.compressed_store(&spec.name) {
            for (attr, _) in &spec.attrs {
                if let Err(e) = store.scan_all(db, attr) {
                    findings.push(Finding::global(
                        "block",
                        format!("relation {} attribute {attr}: {e}", spec.name),
                    ));
                }
            }
        }
    }
    findings.extend(
        archis
            .take_corruption_warnings()
            .into_iter()
            .map(|w| Finding::global("block", w)),
    );
    findings
}

enum Repair {
    RebuildIndex(String, String),
    Recount(String),
    RecountHeap(String),
    RecomputeStats(String),
}

/// Check, then repair everything derivable from base storage; findings
/// that remain afterwards are unrepairable without a backup.
pub fn repair(path: impl AsRef<Path>) -> Result<Outcome> {
    let path = path.as_ref();
    let mut findings = Vec::new();
    let mut repairs = Vec::new();

    // Phase 1: structural repair inside an open database.
    match open_archis(path) {
        Err(f) => findings.push(f),
        Ok(archis) => {
            let db = archis.database();
            for (finding, repair) in audit_tables(&archis) {
                match repair {
                    Some(Repair::RebuildIndex(table, idx)) => {
                        match db.table(&table).and_then(|t| t.rebuild_index(&idx)) {
                            Ok(()) => repairs.push(format!(
                                "table {table}: rebuilt index {idx} from base storage"
                            )),
                            Err(e) => findings.push(Finding::global(
                                "index",
                                format!("table {table}: index {idx}: rebuild failed: {e}"),
                            )),
                        }
                    }
                    Some(Repair::Recount(table)) => {
                        match db.table(&table).and_then(|t| t.recount_rows()) {
                            Ok((cached, actual)) => repairs.push(format!(
                                "table {table}: row counter corrected {cached} -> {actual}"
                            )),
                            Err(e) => findings.push(Finding::global(
                                "counter",
                                format!("table {table}: recount failed: {e}"),
                            )),
                        }
                    }
                    Some(Repair::RecountHeap(table)) => {
                        match db.table(&table).and_then(|t| t.recount_heap()) {
                            Ok(Some((_, actual))) => repairs.push(format!(
                                "table {table}: heap tail corrected to page {} of {} pages",
                                actual.page, actual.pages
                            )),
                            Ok(None) => {}
                            Err(e) => findings.push(Finding::global(
                                "counter",
                                format!("table {table}: heap recount failed: {e}"),
                            )),
                        }
                    }
                    None => findings.push(finding),
                    Some(Repair::RecomputeStats(_)) => unreachable!("table audit"),
                }
            }
            // Stats drift: one recompute per affected relation fixes every
            // drifted attribute/segment at once.
            let mut recomputed = std::collections::HashSet::new();
            for (finding, repair) in audit_stats(&archis) {
                let Some(Repair::RecomputeStats(relation)) = repair else {
                    findings.push(finding);
                    continue;
                };
                if !recomputed.insert(relation.clone()) {
                    continue;
                }
                match archis.recompute_stats(&relation) {
                    Ok(()) => repairs.push(format!(
                        "relation {relation}: statistics catalog recomputed from data"
                    )),
                    Err(e) => findings.push(Finding::global(
                        "stats",
                        format!("relation {relation}: stats recompute failed: {e}"),
                    )),
                }
            }
            findings.extend(audit_archis(&archis));
            // Persist the new index roots / counters and fold the WAL so
            // the base file reflects the repaired state (folding restamps
            // every written page's checksum).
            archis.checkpoint()?;
        }
    }

    // Phase 2: orphan cleanup. Only when every structure verifies clean —
    // then any page still failing its checksum is, by construction,
    // outside every live structure (the cold re-verify just read every
    // reachable page from disk), e.g. the stranded pages of a rebuilt
    // index. Zero + restamp them so the media scrub goes back to clean.
    if findings.is_empty() {
        let verified_clean = match open_archis(path) {
            Ok(archis) => {
                let clean = audit_tables(&archis).is_empty()
                    && audit_stats(&archis).is_empty()
                    && audit_archis(&archis).is_empty();
                if !clean {
                    findings.push(Finding::global(
                        "catalog",
                        "post-repair verification still reports damage".to_string(),
                    ));
                }
                clean
            }
            Err(f) => {
                findings.push(f);
                false
            }
        };
        if verified_clean {
            let (_, stale) = scrub_file(path)?;
            if !stale.is_empty() {
                let pager = FilePager::open(path)?;
                for f in &stale {
                    if let Some(id) = f.page {
                        // lint:allow(offline repair: fsck zeroes orphaned pages on the closed base file directly; no WAL is attached)
                        pager.write_page(id, &[0u8; PAGE_SIZE])?;
                        repairs.push(format!("page {id}: zeroed orphaned corrupt page"));
                    }
                }
                pager.sync()?;
            }
        }
    }

    // Final verdict: whatever the media scrub still reports is beyond
    // repair (reachable base-storage damage keeps its bad checksum — we
    // refuse to restamp bytes we know are wrong).
    let (pages, remaining) = scrub_file(path)?;
    for f in remaining {
        let dup = findings
            .iter()
            .any(|g| g.kind == f.kind && g.page == f.page);
        if !dup {
            findings.push(f);
        }
    }
    Ok(Outcome {
        path: path.to_path_buf(),
        pages,
        findings,
        repairs,
    })
}
