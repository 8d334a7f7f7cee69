//! `ingest-archive`: the write path alone. One writer replays the L stream
//! into an empty store in batches of 64 (`apply_all` + `maybe_archive`)
//! through its first 0.75 × `--seconds` archivals, then checkpoints once. `xquery`, `translate`, `sqlxml`
//! and `blockzip` are bypassed; afterwards a few mix queries check what was
//! stored.

use super::query::{whole_call, Target};
use super::{archivals, overhead_pct, step_mean, Outcome, QuerySpace, RunConfig};
use super::{INGEST_ARCHIVALS_PER_S, L_EMPLOYEES, L_POOL};
use crate::data::{check_exact, Model, Stream};
use crate::store::{self, Scratch};
use crate::trace::{self, Tracer};
use crate::util::{median, percentile, sorted, Json, ProcIo};
use std::time::Instant;

/// Mix queries run after the ingest to check its output.
const CHECK_QUERIES: usize = 40;
/// Setting up an empty store takes a few tens of ms; repeat it and report
/// the median.
const SETUP_REPS: usize = 15;

pub fn run(cfg: &RunConfig, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let stream = Stream::generate(L_EMPLOYEES, cfg.seed);
        let path = scratch.path(&format!("ingest{rep}.db"));
        let a = store::create(&path, L_POOL)?;
        setups.push(t0.elapsed().as_secs_f64());
        ready = Some((stream, path, a));
    }
    let (stream, path, a) = ready.expect("at least one set-up");

    let mut tracer = cfg.trace.then(|| Tracer::new(Instant::now(), 1));
    let (io0, pool0, t0) = (ProcIo::now(), a.database().pool().stats(), Instant::now());
    let events = archivals(INGEST_ARCHIVALS_PER_S, cfg.seconds);
    let all = 0..stream.changes.len();
    let done = store::ingest(&a, &stream, all, Some(events), tracer.as_mut())?;
    let tc = Instant::now();
    match tracer.as_mut() {
        None => a.checkpoint(),
        Some(t) => t.op("checkpoint", |_| a.checkpoint()),
    }
    .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = tc.elapsed().as_secs_f64() * 1e3;
    let elapsed_s = t0.elapsed().as_secs_f64();
    let io = ProcIo::now().since(&io0);
    let pool = a.database().pool().stats();
    let commits = done.commit_ms.len() + done.stepped_ms.len();
    let user_bytes = stream.user_bytes[done.end] as f64;
    out.attempted += commits as u64 + 1;
    // One client and a fixed count: these repeat exactly for a seed.
    let store_bytes = store::store_bytes(&path);
    out.exact
        .insert("ingest.archival_events", done.archival_events as u64);
    out.exact.insert("ingest.store_bytes", store_bytes);
    out.exact.insert("ingest.user_bytes", user_bytes as u64);

    out.note(
        "dataset",
        Json::str(format!(
            "L: {L_EMPLOYEES} employees, 17 years, {} changes, from empty",
            stream.changes.len()
        )),
    );
    out.note("pool_pages", Json::Int(L_POOL as u64));
    out.note("threads", Json::Int(1));
    out.note("changes_applied", Json::Int(done.end as u64));
    out.note("commit_samples", Json::Int(done.commit_ms.len() as u64));
    out.note("user_bytes", Json::Int(user_bytes as u64));
    out.note("archival_events", Json::Int(done.archival_events as u64));
    out.note(
        "reached",
        Json::str(stream.ops[done.end - 1].at().to_string()),
    );

    // Output check: the store must answer as the model of the same prefix.
    // (A run too short to reach an archived segment has nothing to draw.)
    let model = Model::replay(&stream.ops[..done.end]);
    let reached = stream.ops[done.end - 1].at();
    if let Ok(mut gen) = QuerySpace::of(&a, &model, reached)?.gen(cfg.seed) {
        for _ in 0..CHECK_QUERIES {
            let q = gen.next_query();
            out.attempted += 1;
            let checked = whole_call(&Target::Live(&a), &q.xquery())
                .and_then(|rendered| check_exact(&model, &q, &rendered));
            if let Err(e) = checked {
                out.fail(e);
            }
        }
    }

    if let Some(tracer) = tracer {
        let lt = trace::layer_times(&tracer.spans);
        out.set(
            "archive.apply_ms",
            step_mean(&lt, &["commit"], "archive.apply"),
        );
        out.set(
            "archive.maybe_archive_ms",
            step_mean(&lt, &["commit"], "archive.maybe_archive"),
        );
        out.set("archive.archival_events", done.archival_events as f64);
        out.set("checkpoint.ms", checkpoint_ms);
        out.set(
            "io.write_syscalls_per_commit",
            io.syscw as f64 / commits as f64,
        );
        out.set("io.write_bytes_per_user_byte", io.wchar as f64 / user_bytes);
        out.set("pool.hit_rate", pool.hit_rate());
        out.set("pool.evictions", (pool.evictions - pool0.evictions) as f64);
        out.set(
            "latency.ms_p95",
            percentile(&sorted(done.stepped_ms.clone()), 95.0),
        );
        out.set("trace.coverage", lt.coverage);
        out.set(
            "trace.overhead_pct",
            overhead_pct(median(&done.commit_ms), median(&done.stepped_ms)),
        );
        out.spans = tracer.spans;
    } else {
        let commit_ms = sorted(done.commit_ms);
        out.set("throughput_per_s", done.end as f64 / elapsed_s);
        out.set("latency_ms_p50", percentile(&commit_ms, 50.0));
        out.note("latency_ms_p95", Json::Num(percentile(&commit_ms, 95.0)));
        out.set("store_bytes_per_user_byte", store_bytes as f64 / user_bytes);
        out.set("setup_s", median(&setups));
    }
    Ok(out)
}
