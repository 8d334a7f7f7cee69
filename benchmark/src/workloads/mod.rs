//! The workloads. Each sets up its stores, runs a closed loop for the given
//! time, checks every answer against the reference model and reports the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced run).
//!
//! Sizes are fixed here, not configurable: a number is comparable across
//! commits only if the load behind it is the same.

mod ingest;
mod mixed;
mod query;

use crate::data::{self, Model, QueryGen};
use crate::store::Scratch;
use crate::trace::{self, LayerTimes, Span};
use crate::util::Json;
use archis::ArchIS;
use std::collections::BTreeMap;
use std::path::Path;
use temporal::Date;

/// H, the history the query workloads read: 700 employees × 17 years
/// ≈ 16 k changes ≈ 8 MB ≈ 2 000 pages. It fits a 4 096-page pool
/// (`query-warm`) and does not fit a 512-page one (`query-cold`, where every
/// snapshot also reads through its own 512-page pool that starts empty, and
/// `query-compressed`).
const H_EMPLOYEES: usize = 700;
const H_POOL_FITS: usize = 4096;
const H_POOL_SMALL: usize = 512;
/// L, the stream the write workloads ingest: 2 000 employees × 17 years
/// ≈ 47 k changes ≈ 22 MB, under a 512-page pool. L-base — L through its
/// 4th archival, ≈ 16.7 k changes, early 1991, ≈ 8 MB — is what `mixed`
/// starts from; the rest is its tail.
const L_EMPLOYEES: usize = 2000;
const L_POOL: usize = 512;
const L_BASE_ARCHIVALS: usize = 4;

/// The write workloads run through a **fixed number of archivals**,
/// proportional to `--seconds`, and stop there. Archiving a segment takes
/// ≈ 0.5 s — 100 batches' worth — and a run sees only a handful, so a run
/// cut by time or by change count holds 4 or 5 of them depending on the
/// seed and its throughput swings ±7 % with that alone; cut at an archival,
/// every run of every seed holds the same number of whole cycles. (The
/// guide: "run until background work has completed several cycles".) These
/// are the rates at the commit that added the benchmark, where a run then
/// takes about `--seconds`.
const INGEST_ARCHIVALS_PER_S: f64 = 0.75;
const TAIL_ARCHIVALS_PER_S: f64 = 0.625;

fn archivals(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(1)
}

pub const WORKLOADS: [&str; 6] = [
    "ingest-archive",
    "query-warm",
    "query-cold",
    "query-compressed",
    "mixed",
    "mixed-ingest",
];

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("store_bytes_per_user_byte", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer the
/// workload bypasses reads 0. Times are means per operation unless the name
/// says otherwise.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("latency.ms_p95", "ms"),
    ("xquery.parse_ms", "ms"),
    ("translate.ms", "ms"),
    ("sqlxml.parse_ms", "ms"),
    ("exec.ms", "ms"),
    ("xml_build.ms", "ms"),
    ("snapshot.begin_ms", "ms"),
    ("pool.hit_rate", "ratio"),
    ("pool.physical_reads_per_query", "count"),
    ("pool.evictions", "count"),
    ("pool.prefetch_issued", "count"),
    ("pool.prefetch_hits", "count"),
    ("pool.prefetch_wasted", "count"),
    ("exec.pages_per_result_row", "count"),
    ("io.read_bytes_per_query", "bytes"),
    ("io.read_syscalls_per_query", "count"),
    ("io.write_syscalls_per_commit", "count"),
    ("io.write_bytes_per_user_byte", "ratio"),
    ("archive.apply_ms", "ms"),
    ("archive.maybe_archive_ms", "ms"),
    ("archive.archival_events", "count"),
    ("checkpoint.ms", "ms"),
    ("wal.commits", "count"),
    ("wal.syncs_per_commit", "ratio"),
    ("wal.page_records_per_commit", "count"),
    ("blockzip.compress_s", "s"),
    ("blockzip.blocks", "count"),
    ("blockzip.stored_ratio", "ratio"),
    ("compressed.unzip_share", "ratio"),
    ("replica.poll_ms", "ms"),
    ("replica.pages_per_poll", "count"),
    ("replica.lag_commits_p95", "count"),
    ("mixed.primary_query_ms_p50", "ms"),
    ("mixed.replica_query_ms_p50", "ms"),
    ("mixed.writer_stall_ms_max", "ms"),
    ("mixed.ingest_changes_per_s", "1/s"),
    ("mixed.query_qps", "1/s"),
    ("q1.ms_p50", "ms"),
    ("q2.ms_p50", "ms"),
    ("q3.ms_p50", "ms"),
    ("q4.ms_p50", "ms"),
    ("q5.ms_p50", "ms"),
    ("q6.ms_p50", "ms"),
    ("q1.count", "count"),
    ("q2.count", "count"),
    ("q3.count", "count"),
    ("q4.count", "count"),
    ("q5.count", "count"),
    ("q6.count", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

pub struct RunConfig<'a> {
    pub seed: u64,
    pub seconds: f64,
    /// Untraced: every operation through the engine's whole-call entry
    /// point. Traced: operations alternate between the whole call and the
    /// same pipeline step by step under spans, so the two are measured on
    /// the same store over the same seconds; the per-layer metrics come
    /// from the stepwise half and `trace.overhead_pct` from comparing the
    /// halves.
    pub trace: bool,
    /// `benchmark/out`: scratch stores and trace files go here.
    pub out_dir: &'a Path,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// End-to-end (untraced run) or per-layer (traced run) metric values.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sizes, sample counts and whatever else explains the numbers.
    pub detail: Vec<(String, Json)>,
    /// Counts that repeat exactly for a seed (fixed-count, one client).
    pub exact: BTreeMap<&'static str, u64>,
    spans: Vec<Span>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn note(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    fn set(&mut self, metric: &'static str, value: f64) {
        self.metrics.insert(metric, value);
    }
}

pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let scratch = Scratch::create(cfg.out_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let mut out = match workload {
        "ingest-archive" => ingest::run(cfg, &scratch),
        "query-warm" => query::run(cfg, &scratch, query::Store::Warm),
        "query-cold" => query::run(cfg, &scratch, query::Store::Cold),
        "query-compressed" => query::run(cfg, &scratch, query::Store::Compressed),
        "mixed" => mixed::run(cfg, &scratch, mixed::Side::Reader),
        "mixed-ingest" => mixed::run(cfg, &scratch, mixed::Side::Writer),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if cfg.trace {
        let path = cfg.out_dir.join(format!("trace-{workload}.jsonl"));
        trace::write_jsonl(&path, &out.spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.note("trace_file", Json::str(path.display().to_string()));
        out.note("trace_spans", Json::Int(out.spans.len() as u64));
    }
    Ok(out)
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Percent by which tracing slows an operation: the median time of the
/// stepwise half of the operations against that of the whole-call half
/// (medians, so that an archival landing in one half does not decide it).
fn overhead_pct(whole_ms: f64, stepwise_ms: f64) -> f64 {
    if whole_ms > 0.0 {
        (stepwise_ms - whole_ms) / whole_ms * 100.0
    } else {
        0.0
    }
}

/// Mean time per operation spent in step `name`, over the operations whose
/// root span is `root`.
fn step_mean(lt: &LayerTimes, root: &[&str], name: &str) -> f64 {
    let ops: usize = root
        .iter()
        .map(|r| lt.roots.get(r).map_or(0, Vec::len))
        .sum();
    let total: f64 = lt.steps.get(name).map_or(0.0, |v| v.iter().sum());
    if ops > 0 {
        total / ops as f64
    } else {
        0.0
    }
}

/// What queries may be drawn over one store: the history it holds, the last
/// usable date, and its archived salary segments.
struct QuerySpace<'a> {
    model: &'a Model,
    hi: Date,
    segments: Vec<(Date, Date)>,
}

impl<'a> QuerySpace<'a> {
    fn of(a: &ArchIS, model: &'a Model, hi: Date) -> Result<Self, String> {
        let segments = a
            .segments_of(data::RELATION, "salary")
            .map_err(err)?
            .iter()
            .filter(|s| s.segno != archis::htable::LIVE_SEGNO)
            .map(|s| (s.start, s.end))
            .collect();
        Ok(QuerySpace {
            model,
            hi,
            segments,
        })
    }

    fn gen(&self, seed: u64) -> Result<QueryGen, String> {
        let lo = data::history_start() + 365;
        QueryGen::new(seed, self.model, lo, self.hi, &self.segments)
    }
}
