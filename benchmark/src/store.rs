//! Stores on real files: the scratch directory, building and cloning a
//! store, and the batch-64 ingest loop every write path shares.

use crate::data::{Stream, RELATION};
use crate::trace::Tracer;
use archis::{ArchConfig, ArchIS, RelationSpec};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Changes per `apply_all` (one WAL transaction).
pub const BATCH: usize = 64;

/// All temporary stores of one invocation live under one directory, removed
/// when the guard drops — on success, on error and on panic alike.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(out_dir: &Path) -> std::io::Result<Scratch> {
        let dir = out_dir.join(format!("archis-bench-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut p = path.as_os_str().to_os_string();
    p.push(suffix);
    PathBuf::from(p)
}

/// Bytes of the page file plus its write-ahead log.
pub fn store_bytes(path: &Path) -> u64 {
    let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    len(path) + len(&with_suffix(path, ".wal"))
}

/// Copy a checkpointed, closed store (page file + log) to a new path.
pub fn clone_store(src: &Path, dst: &Path) -> Result<(), String> {
    for suffix in ["", ".wal"] {
        let (from, to) = (with_suffix(src, suffix), with_suffix(dst, suffix));
        std::fs::copy(&from, &to).map_err(|e| format!("copy {}: {e}", from.display()))?;
    }
    Ok(())
}

/// The flush policy of every store here: `ArchConfig::default()`, i.e. one
/// log fsync per 8 commits (group commit), checkpoint on request.
pub fn config(pool_pages: usize) -> ArchConfig {
    ArchConfig::default().with_buffer_pages(pool_pages)
}

pub fn open(path: &Path, pool_pages: usize) -> Result<ArchIS, String> {
    ArchIS::open_file(path, config(pool_pages)).map_err(|e| format!("open store: {e}"))
}

/// Create an empty store holding the employee relation.
pub fn create(path: &Path, pool_pages: usize) -> Result<ArchIS, String> {
    let mut a = open(path, pool_pages)?;
    a.create_relation(RelationSpec::employee())
        .map_err(|e| format!("create relation: {e}"))?;
    Ok(a)
}

/// What one run of the ingest loop did.
#[derive(Default)]
pub struct Ingested {
    /// One sample per batch run plainly: `apply_all` + `maybe_archive`, ms.
    pub commit_ms: Vec<f64>,
    /// The same for the batches run under spans (every other one, when a
    /// tracer is given).
    pub stepped_ms: Vec<f64>,
    /// Index one past the last change applied.
    pub end: usize,
    /// Segments archived by `maybe_archive`.
    pub archival_events: usize,
}

/// Replay `stream.changes[range]` in batches of [`BATCH`], each followed by
/// the usefulness check, until the range is done or — when `stop_after` is
/// given — that many segments have been archived. With a tracer every other
/// batch runs the same two calls under spans. A failed batch aborts the
/// store's transaction, so the loop stops there and returns the error.
pub fn ingest(
    a: &ArchIS,
    stream: &Stream,
    range: Range<usize>,
    stop_after: Option<usize>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Ingested, String> {
    let mut out = Ingested {
        end: range.start,
        ..Default::default()
    };
    while out.end < range.end && stop_after.is_none_or(|n| out.archival_events < n) {
        let end = (out.end + BATCH).min(range.end);
        let chunk = &stream.changes[out.end..end];
        let at = stream.ops[end - 1].at();
        let t0 = Instant::now();
        let batch = out.commit_ms.len() + out.stepped_ms.len();
        let archived = match tracer.as_deref_mut().filter(|_| batch % 2 == 1) {
            None => {
                let done = a
                    .apply_all(chunk)
                    .and_then(|()| a.maybe_archive(RELATION, at));
                out.commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                done
            }
            Some(t) => {
                let done = t.op("commit", |op| {
                    op.step("archive.apply", || a.apply_all(chunk))?;
                    op.step("archive.maybe_archive", || a.maybe_archive(RELATION, at))
                });
                out.stepped_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                done
            }
        }
        .map_err(|e| format!("batch ending at change {end}: {e}"))?;
        out.archival_events += archived;
        out.end = end;
    }
    Ok(out)
}

/// Build a store from the stream's first changes, through `archivals`
/// archived segments; checkpoint it and close it, leaving page file + empty
/// log at `path` ready to be cloned.
pub fn build(
    path: &Path,
    stream: &Stream,
    archivals: usize,
    pool_pages: usize,
) -> Result<Ingested, String> {
    let a = create(path, pool_pages)?;
    let done = ingest(&a, stream, 0..stream.changes.len(), Some(archivals), None)?;
    a.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    Ok(done)
}
