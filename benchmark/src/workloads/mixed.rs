//! `mixed`: the same layers used differently, writes beside reads. On a
//! shipping primary cloned from L-base, thread A ingests the L tail (batch
//! 64 + `maybe_archive`) through its first 0.625 × `--seconds` archivals while
//! thread B loops {mix query on a primary
//! snapshot; `Replica::poll`; the same query on a replica snapshot} until A
//! stops. The shared resources are the pager and WAL locks and the page
//! version chains, so a reader-side gain bought with writer stalls (or the
//! reverse) shows here and nowhere else.
//!
//! One run, two reports: `mixed` gives the reader's end-to-end numbers and
//! `mixed-ingest` the writer's (the benchmark contract wants one metric set
//! for all workloads, so the two sides cannot share a result line).

use super::query::windowed_qps;
use super::query::{mix_latency, set_query_layers, Reader, Target};
use super::{archivals, err, overhead_pct, step_mean, Outcome, QuerySpace, RunConfig};
use super::{L_BASE_ARCHIVALS, L_EMPLOYEES, L_POOL, TAIL_ARCHIVALS_PER_S};
use crate::data::{check_between, Model, Query, Stream};
use crate::store::{self, Scratch};
use crate::trace::{self, Tracer};
use crate::util::{mean, median, percentile, sorted, Json};
use archis::ArchIS;
use replica::{LocalTransport, Primary, Replica, RetryPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Whose end-to-end numbers the run reports.
#[derive(Clone, Copy, PartialEq)]
pub enum Side {
    Reader,
    Writer,
}

/// What thread B did besides its queries.
#[derive(Default)]
struct Polls {
    ms: Vec<f64>,
    pages: u64,
    /// Commits the replica was behind, sampled just before each poll.
    lag_commits: Vec<f64>,
    failures: Vec<String>,
}

pub fn run(cfg: &RunConfig, scratch: &Scratch, side: Side) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let events = archivals(TAIL_ARCHIVALS_PER_S, cfg.seconds);
    let t_setup = Instant::now();
    let stream = Stream::generate(L_EMPLOYEES, cfg.seed);
    let base = scratch.path("l-base.db");
    let built = store::build(&base, &stream, L_BASE_ARCHIVALS, L_POOL)?;
    let upto = built.end;
    let base_cut = stream.ops[upto - 1].at();
    out.exact
        .insert("base.archival_events", built.archival_events as u64);
    out.exact
        .insert("base.store_bytes", store::store_bytes(&base));
    let (base_model, last_model) = (
        Model::replay(&stream.ops[..upto]),
        Model::replay(&stream.ops),
    );

    let (ppath, rpath) = (scratch.path("primary.db"), scratch.path("replica.db"));
    store::clone_store(&base, &ppath)?;
    // The replica starts from the same checkpointed pages; the shipping
    // stream carries full page images of every later commit.
    store::clone_store(&base, &rpath)?;
    let config = store::config(L_POOL);
    let wal = relstore::WalConfig::with_group_commit(config.group_commit);
    let (primary, db) = Primary::open_file(&ppath, L_POOL, wal).map_err(err)?;
    let a = ArchIS::open_with_database(db, config).map_err(err)?;
    let transport = LocalTransport::new(primary.ship());
    let rep = Replica::open_file(&rpath, transport, RetryPolicy::default()).map_err(err)?;

    // Query dates stay inside segments archived before the base was cut:
    // there a snapshot's answer to Q1/Q2/Q5 cannot move under the writer,
    // and a translation made after a later archival still names segments
    // the snapshot holds. Twice-stored periods (see `QueryGen`) are looked
    // up in the final history, which knows where every base period ends.
    let mut space = QuerySpace::of(&a, &last_model, base_cut)?;
    space.hi = space
        .segments
        .iter()
        .map(|s| s.1)
        .max()
        .ok_or("L-base has no archived salary segment")?;
    let mut gen = space.gen(cfg.seed)?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    out.note(
        "dataset",
        Json::str(format!(
            "L-base: {L_EMPLOYEES} employees through {base_cut} (archival {L_BASE_ARCHIVALS}), \
             {upto} changes; tail of {} changes, ingested through {events} archivals",
            stream.changes.len() - upto
        )),
    );
    out.note("pool_pages", Json::Int(L_POOL as u64));
    out.note("threads", Json::Int(2));
    out.note("query_dates_through", Json::str(space.hi.to_string()));

    let check = |q: &Query, r: &str| check_between(&base_model, &last_model, q, r);
    let epoch = Instant::now();
    let (wal0, pool0) = (primary.pager().wal_stats(), a.database().pool().stats());
    let writer_done = AtomicBool::new(false);
    let (a, rep) = (&a, &rep);

    let (written, writer_s, on_primary, on_replica, polls, spans) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut tracer = cfg.trace.then(|| Tracer::new(epoch, 1));
            let t0 = Instant::now();
            let tail = upto..stream.changes.len();
            let done = store::ingest(a, &stream, tail, Some(events), tracer.as_mut());
            let writer_s = t0.elapsed().as_secs_f64();
            writer_done.store(true, Ordering::SeqCst);
            (done, writer_s, tracer.map(|t| t.spans).unwrap_or_default())
        });
        let reader = s.spawn(|| {
            let mut tracer = cfg.trace.then(|| Tracer::new(epoch, 2));
            let (mut on_primary, mut on_replica) = (Reader::new(epoch), Reader::new(epoch));
            let mut polls = Polls::default();
            while !writer_done.load(Ordering::SeqCst) {
                let q = gen.next_query();
                let primary_root = "primary_query";
                on_primary.run(
                    &Target::Snapshot(a),
                    &q,
                    primary_root,
                    tracer.as_mut(),
                    &check,
                );
                if let Ok(lag) = rep.lag() {
                    polls.lag_commits.push(lag.commits as f64);
                }
                let t0 = Instant::now();
                let polled = match tracer.as_mut() {
                    None => rep.poll(),
                    Some(t) => t.op("replica.poll", |_| rep.poll()),
                };
                match polled {
                    Ok(progress) => {
                        polls.ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        polls.pages += progress.pages;
                    }
                    Err(e) => polls.failures.push(format!("replica poll: {e}")),
                }
                let replica_root = "replica_query";
                on_replica.run(
                    &Target::Replica(a, rep),
                    &q,
                    replica_root,
                    tracer.as_mut(),
                    &check,
                );
            }
            let spans = tracer.map(|t| t.spans).unwrap_or_default();
            (on_primary, on_replica, polls, spans)
        });
        let (done, writer_s, mut spans) = writer.join().expect("writer thread panicked");
        let (on_primary, on_replica, polls, mut reader_spans) =
            reader.join().expect("reader thread panicked");
        spans.append(&mut reader_spans);
        (done, writer_s, on_primary, on_replica, polls, spans)
    });
    let written = written?;
    let wal = primary.pager().wal_stats();
    let pool = a.database().pool().stats();
    a.checkpoint().map_err(err)?;

    let commits = written.commit_ms.len() + written.stepped_ms.len();
    let queries = on_primary.attempted() + on_replica.attempted();
    out.attempted += (commits + queries + polls.ms.len() + polls.failures.len()) as u64;
    for f in on_primary
        .failures
        .iter()
        .chain(&on_replica.failures)
        .chain(&polls.failures)
    {
        out.fail(f.clone());
    }
    let changes_per_s = (written.end - upto) as f64 / writer_s;
    let answered: Vec<_> = [&on_primary, &on_replica]
        .iter()
        .flat_map(|r| r.samples.iter().chain(&r.stepped))
        .copied()
        .collect();
    let qps = windowed_qps(&answered, writer_s, &mut out);
    out.note("commit_samples", Json::Int(written.commit_ms.len() as u64));
    let slowest = sorted(written.commit_ms.clone());
    out.note(
        "commit_ms_slowest",
        Json::Arr(
            slowest
                .iter()
                .rev()
                .take(8)
                .map(|ms| Json::Num(*ms))
                .collect(),
        ),
    );
    out.note("writer_s", Json::Num(writer_s));
    out.note("archival_events", Json::Int(written.archival_events as u64));
    out.note(
        "tail_changes_applied",
        Json::Int((written.end - upto) as u64),
    );
    out.note("ingest_changes_per_s", Json::Num(changes_per_s));
    out.note("query_qps", Json::Num(qps));
    out.note("polls", Json::Int(polls.ms.len() as u64));

    if !cfg.trace {
        let mut samples = on_primary.samples.clone();
        samples.extend(&on_replica.samples);
        let lat = mix_latency(&samples);
        lat.note(&mut out);
        match side {
            Side::Reader => {
                out.set("throughput_per_s", qps);
                out.set("latency_ms_p50", lat.p50);
                out.note("latency_ms_p95", Json::Num(lat.p95));
            }
            Side::Writer => {
                let commit_ms = sorted(written.commit_ms);
                out.set("throughput_per_s", changes_per_s);
                out.set("latency_ms_p50", percentile(&commit_ms, 50.0));
                out.note("latency_ms_p95", Json::Num(percentile(&commit_ms, 95.0)));
            }
        }
        out.set(
            "store_bytes_per_user_byte",
            store::store_bytes(&ppath) as f64 / stream.user_bytes[written.end] as f64,
        );
        out.set("setup_s", setup_s);
        return Ok(out);
    }

    let lt = trace::layer_times(&spans);
    let mut reads = on_primary.reads;
    reads.add(&on_replica.reads);
    let mut stepped = on_primary.stepped.clone();
    stepped.extend(&on_replica.stepped);
    let lat = mix_latency(&stepped);
    lat.note(&mut out);
    set_query_layers(&mut out, &lt, &["primary_query", "replica_query"], &reads);
    lat.set_class_metrics(&mut out);
    // The readers' private pools are in `reads`; the writer's pool evicts too.
    out.set(
        "pool.evictions",
        (reads.pool.evictions + pool.evictions - pool0.evictions) as f64,
    );
    out.set(
        "archive.apply_ms",
        step_mean(&lt, &["commit"], "archive.apply"),
    );
    out.set(
        "archive.maybe_archive_ms",
        step_mean(&lt, &["commit"], "archive.maybe_archive"),
    );
    out.set("archive.archival_events", written.archival_events as f64);
    let wal_commits = (wal.commits - wal0.commits).max(1) as f64;
    out.set("wal.commits", (wal.commits - wal0.commits) as f64);
    out.set(
        "wal.syncs_per_commit",
        (wal.syncs - wal0.syncs) as f64 / wal_commits,
    );
    out.set(
        "wal.page_records_per_commit",
        (wal.page_records - wal0.page_records) as f64 / wal_commits,
    );
    out.set("replica.poll_ms", mean(&polls.ms));
    out.set(
        "replica.pages_per_poll",
        polls.pages as f64 / polls.ms.len().max(1) as f64,
    );
    out.set(
        "replica.lag_commits_p95",
        percentile(&sorted(polls.lag_commits), 95.0),
    );
    let p50 = |r: &Reader| median(&r.stepped.iter().map(|s| s.ms).collect::<Vec<_>>());
    out.set("mixed.primary_query_ms_p50", p50(&on_primary));
    out.set("mixed.replica_query_ms_p50", p50(&on_replica));
    let stall = written.commit_ms.iter().chain(&written.stepped_ms);
    out.set(
        "mixed.writer_stall_ms_max",
        stall.copied().fold(0.0, f64::max),
    );
    out.set("mixed.ingest_changes_per_s", changes_per_s);
    out.set("mixed.query_qps", qps);
    let (overhead, p95) = match side {
        Side::Reader => {
            let mut whole = on_primary.samples;
            whole.extend(&on_replica.samples);
            (overhead_pct(mix_latency(&whole).p50, lat.p50), lat.p95)
        }
        Side::Writer => (
            overhead_pct(median(&written.commit_ms), median(&written.stepped_ms)),
            percentile(&sorted(written.stepped_ms), 95.0),
        ),
    };
    out.set("trace.overhead_pct", overhead);
    out.set("latency.ms_p95", p95);
    out.spans = spans;
    Ok(out)
}
