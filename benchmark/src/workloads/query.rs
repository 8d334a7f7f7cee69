//! Running queries — the whole-call and the stepwise form of one query, the
//! closed reader loop — and the three read-only workloads over history H:
//!
//! * `query-warm`: live database, pool holds everything. Time is front end
//!   + operators + XML construction; the pager, WAL and BlockZIP are idle.
//! * `query-cold`: a fresh snapshot per query, each with a private pool that
//!   starts empty: eviction, pager reads and prefetch do most of the work.
//! * `query-compressed`: archived segments BlockZIP-compressed, queried
//!   through the general `ArchIS::query` path, which decompresses them.

use super::{err, overhead_pct, step_mean, Outcome, QuerySpace, RunConfig};
use super::{H_EMPLOYEES, H_POOL_FITS, H_POOL_SMALL};
use crate::data::{self, check_exact, same_answer, Model, Query, Stream, CLASSES};
use crate::store::{self, Scratch};
use crate::trace::{self, LayerTimes, Span, Tracer};
use crate::util::{median, percentile, sorted, window_rates, Json, ProcIo};
use archis::ArchIS;
use relstore::IoStats;
use replica::Replica;
use std::time::{Duration, Instant};

/// Reader threads (`nproc` = 2 here).
const READERS: usize = 2;
/// Queries in one cycle of the mix; a traced run alternates whole-call and
/// stepwise execution cycle by cycle, so both halves see the same mix.
const CYCLE: usize = 20;
/// Untimed warm-up before the measured loop, s.
const WARM_UP_S: f64 = 0.2;

const CLASS_MS: [&str; CLASSES] = [
    "q1.ms_p50",
    "q2.ms_p50",
    "q3.ms_p50",
    "q4.ms_p50",
    "q5.ms_p50",
    "q6.ms_p50",
];
const CLASS_COUNT: [&str; CLASSES] = [
    "q1.count", "q2.count", "q3.count", "q4.count", "q5.count", "q6.count",
];

// ---------------------------------------------------------------------------
// One query
// ---------------------------------------------------------------------------

/// Where a query runs.
pub enum Target<'a> {
    /// The live database, through `ArchIS::query`.
    Live(&'a ArchIS),
    /// A fresh snapshot per query (its own 512-page pool, empty at first).
    Snapshot(&'a ArchIS),
    /// A fresh replica snapshot per query. Replica snapshots expose only a
    /// `Database`, so the read is the primary's translation executed there.
    Replica(&'a ArchIS, &'a Replica),
}

/// Serialize a result as a client would receive it: XML as markup, scalars
/// as text, one row per line.
fn render(result: &sqlxml::QueryResult) -> String {
    let mut out = String::new();
    for row in &result.rows {
        for cell in row {
            out.push_str(&cell.render());
        }
        out.push('\n');
    }
    out
}

/// The untraced form: the engine's whole-call entry point, then render.
pub fn whole_call(target: &Target, xq: &str) -> Result<String, String> {
    let result = match target {
        Target::Live(a) => a.query(xq).map_err(err)?,
        Target::Snapshot(a) => a.begin_snapshot().map_err(err)?.query(xq).map_err(err)?,
        Target::Replica(a, rep) => {
            let sql = a.translate(xq).map_err(err)?;
            let snap = rep.begin_snapshot().map_err(err)?;
            sqlxml::engine::execute(snap.database(), &sql, a.functions()).map_err(err)?
        }
    };
    Ok(render(&result))
}

/// Counters of the pools the stepwise queries read through.
#[derive(Default, Clone, Copy)]
pub struct Reads {
    pub pool: IoStats,
    pub rows: u64,
}

impl Reads {
    pub fn add(&mut self, other: &Reads) {
        pool_add(&mut self.pool, &other.pool);
        self.rows += other.rows;
    }
}

fn pool_delta(now: &IoStats, then: &IoStats) -> IoStats {
    IoStats {
        logical_reads: now.logical_reads - then.logical_reads,
        physical_reads: now.physical_reads - then.physical_reads,
        evictions: now.evictions - then.evictions,
        prefetch_issued: now.prefetch_issued - then.prefetch_issued,
        prefetch_hits: now.prefetch_hits - then.prefetch_hits,
        prefetch_wasted: now.prefetch_wasted - then.prefetch_wasted,
        ..IoStats::default()
    }
}

fn pool_add(total: &mut IoStats, part: &IoStats) {
    total.logical_reads += part.logical_reads;
    total.physical_reads += part.physical_reads;
    total.evictions += part.evictions;
    total.prefetch_issued += part.prefetch_issued;
    total.prefetch_hits += part.prefetch_hits;
    total.prefetch_wasted += part.prefetch_wasted;
}

/// The traced form: the same pipeline one public call at a time, a span
/// around each. `xquery.parse` and `sqlxml.parse` are probes: the step
/// after each repeats that parse (see [`LayerTimes`]).
fn stepwise(
    target: &Target,
    xq: &str,
    root: &'static str,
    tracer: &mut Tracer,
    reads: &mut Reads,
) -> Result<String, String> {
    tracer.op(root, |op| {
        let a = match target {
            Target::Live(a) | Target::Snapshot(a) | Target::Replica(a, _) => *a,
        };
        let snapshot = match target {
            Target::Snapshot(a) => Some(
                op.step("snapshot.begin", || a.begin_snapshot())
                    .map_err(err)?,
            ),
            _ => None,
        };
        op.step("xquery.parse", || xquery::parser::parse_query(xq).map(drop))
            .map_err(err)?;
        let sql = op.step("translate", || a.translate(xq)).map_err(err)?;
        op.step("sqlxml.parse", || sqlxml::parse_sql(&sql).map(drop))
            .map_err(err)?;
        let (result, pool) = match target {
            Target::Live(a) => {
                // Shared with the other reader thread, so an approximation.
                let before = a.database().pool().stats();
                let result = op.step("exec", || a.execute_sql(&sql)).map_err(err)?;
                (result, pool_delta(&a.database().pool().stats(), &before))
            }
            Target::Snapshot(_) => {
                let snap = snapshot.as_ref().expect("begun above");
                let result = op.step("exec", || snap.execute_sql(&sql)).map_err(err)?;
                (result, snap.database().pool().stats())
            }
            Target::Replica(a, rep) => {
                let snap = op
                    .step("snapshot.begin", || rep.begin_snapshot())
                    .map_err(err)?;
                let result = op
                    .step("exec", || {
                        sqlxml::engine::execute(snap.database(), &sql, a.functions())
                    })
                    .map_err(err)?;
                (result, snap.database().pool().stats())
            }
        };
        pool_add(&mut reads.pool, &pool);
        reads.rows += result.rows.len() as u64;
        Ok(op.step("xml_build", || render(&result)))
    })
}

// ---------------------------------------------------------------------------
// The reader loop
// ---------------------------------------------------------------------------

/// One answered query.
#[derive(Clone, Copy)]
pub struct Sample {
    pub class: usize,
    pub ms: f64,
    /// When the answer arrived, seconds since the loop's epoch.
    pub done_s: f64,
}

/// What one reader did.
pub struct Reader {
    epoch: Instant,
    /// Every query answered by a whole call.
    pub samples: Vec<Sample>,
    /// Every query run stepwise (traced runs only).
    pub stepped: Vec<Sample>,
    pub failures: Vec<String>,
    pub reads: Reads,
    pub spans: Vec<Span>,
}

impl Reader {
    pub fn new(epoch: Instant) -> Reader {
        Reader {
            epoch,
            samples: Vec::new(),
            stepped: Vec::new(),
            failures: Vec::new(),
            reads: Reads::default(),
            spans: Vec::new(),
        }
    }

    /// Run one query, time it, check it. With a tracer the query runs
    /// stepwise on every other cycle of the mix.
    pub fn run(
        &mut self,
        target: &Target,
        q: &Query,
        root: &'static str,
        tracer: Option<&mut Tracer>,
        check: &dyn Fn(&Query, &str) -> Result<(), String>,
    ) {
        let xq = q.xquery();
        let cycle = self.attempted() / CYCLE;
        let t0 = Instant::now();
        let (answer, into) = match tracer.filter(|_| cycle % 2 == 1) {
            None => (whole_call(target, &xq), &mut self.samples),
            Some(t) => (
                stepwise(target, &xq, root, t, &mut self.reads),
                &mut self.stepped,
            ),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match answer.and_then(|rendered| check(q, &rendered)) {
            // A failed or wrong answer has no latency: it misses every
            // latency figure and counts in `failed`.
            Err(e) => self.failures.push(e),
            Ok(()) => into.push(Sample {
                class: q.class(),
                ms,
                done_s: self.epoch.elapsed().as_secs_f64(),
            }),
        }
    }

    pub fn merge(&mut self, mut other: Reader) {
        self.samples.append(&mut other.samples);
        self.stepped.append(&mut other.stepped);
        self.failures.append(&mut other.failures);
        self.reads.add(&other.reads);
        self.spans.append(&mut other.spans);
    }

    pub fn attempted(&self) -> usize {
        self.samples.len() + self.stepped.len() + self.failures.len()
    }
}

/// Latency figures over the fixed mix. The median is taken per query class
/// and combined with the mix weights: the classes' latencies are far apart
/// and the mix puts exactly half its queries in the two fastest, so a
/// pooled median would sit on the gap between two classes and jump with a
/// handful of samples. p95 is pooled (it falls inside the slowest class).
pub struct MixLatency {
    pub p50: f64,
    pub p95: f64,
    class_p50: [f64; CLASSES],
    class_count: [usize; CLASSES],
}

pub fn mix_latency(samples: &[Sample]) -> MixLatency {
    let mut per_class: [Vec<f64>; CLASSES] = Default::default();
    for s in samples {
        per_class[s.class].push(s.ms);
    }
    let weights = data::mix_weights();
    let (mut weighted, mut weight) = (0.0, 0.0);
    let mut class_p50 = [0.0; CLASSES];
    let mut class_count = [0; CLASSES];
    for c in 0..CLASSES {
        class_count[c] = per_class[c].len();
        if !per_class[c].is_empty() {
            class_p50[c] = median(&per_class[c]);
            weighted += weights[c] * class_p50[c];
            weight += weights[c];
        }
    }
    let pooled = sorted(samples.iter().map(|s| s.ms).collect());
    MixLatency {
        p50: if weight > 0.0 { weighted / weight } else { 0.0 },
        p95: percentile(&pooled, 95.0),
        class_p50,
        class_count,
    }
}

impl MixLatency {
    /// Sample counts behind the percentiles, for the detail document.
    pub fn note(&self, out: &mut Outcome) {
        let ints = |v: &[usize]| Json::Arr(v.iter().map(|n| Json::Int(*n as u64)).collect());
        out.note(
            "query_samples",
            Json::Int(self.class_count.iter().sum::<usize>() as u64),
        );
        out.note("query_samples_per_class", ints(&self.class_count));
        out.note(
            "query_ms_p50_per_class",
            Json::Arr(self.class_p50.iter().map(|ms| Json::Num(*ms)).collect()),
        );
    }

    pub fn set_class_metrics(&self, out: &mut Outcome) {
        for c in 0..CLASSES {
            out.set(CLASS_MS[c], self.class_p50[c]);
            out.set(CLASS_COUNT[c], self.class_count[c] as f64);
        }
    }
}

/// Queries per second over `[0, seconds)` of the loop: the median over
/// one-second windows (see [`window_rates`]), which are also noted.
pub fn windowed_qps(samples: &[Sample], seconds: f64, out: &mut Outcome) -> f64 {
    let rates = window_rates(samples.iter().map(|s| (s.done_s, 1.0)), seconds);
    out.note(
        "throughput_per_window",
        Json::Arr(rates.iter().map(|r| Json::Num(*r)).collect()),
    );
    median(&rates)
}

/// The per-layer metrics every traced query loop reports. `roots` are the
/// root span names of its query operations.
pub fn set_query_layers(out: &mut Outcome, lt: &LayerTimes, roots: &[&str], reads: &Reads) {
    let queries: usize = roots
        .iter()
        .map(|r| lt.roots.get(r).map_or(0, Vec::len))
        .sum();
    let per_query = |n: u64| n as f64 / queries.max(1) as f64;
    out.set("xquery.parse_ms", step_mean(lt, roots, "xquery.parse"));
    out.set("translate.ms", step_mean(lt, roots, "translate"));
    out.set("sqlxml.parse_ms", step_mean(lt, roots, "sqlxml.parse"));
    out.set("exec.ms", step_mean(lt, roots, "exec"));
    out.set("xml_build.ms", step_mean(lt, roots, "xml_build"));
    out.set("snapshot.begin_ms", step_mean(lt, roots, "snapshot.begin"));
    out.set("pool.hit_rate", reads.pool.hit_rate());
    out.set(
        "pool.physical_reads_per_query",
        per_query(reads.pool.physical_reads),
    );
    out.set("pool.evictions", reads.pool.evictions as f64);
    out.set("pool.prefetch_issued", reads.pool.prefetch_issued as f64);
    out.set("pool.prefetch_hits", reads.pool.prefetch_hits as f64);
    out.set("pool.prefetch_wasted", reads.pool.prefetch_wasted as f64);
    out.set(
        "exec.pages_per_result_row",
        reads.pool.logical_reads as f64 / reads.rows.max(1) as f64,
    );
    out.set("trace.coverage", lt.coverage);
}

// ---------------------------------------------------------------------------
// query-warm / query-cold / query-compressed
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
pub enum Store {
    Warm,
    Cold,
    Compressed,
}

/// `READERS` threads, each a closed loop of mix queries until the deadline.
fn read_phase(
    a: &ArchIS,
    kind: Store,
    space: &QuerySpace,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Reader, String> {
    let gens = (1..=READERS as u64)
        .map(|thread| space.gen(seed ^ thread.wrapping_mul(0xA24B_AED4_963E_E407)))
        .collect::<Result<Vec<_>, _>>()?;
    let model = space.model;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut all = Reader::new(epoch);
    std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .into_iter()
            .zip(1u64..)
            .map(|(mut gen, thread)| {
                s.spawn(move || {
                    let target = match kind {
                        Store::Cold => Target::Snapshot(a),
                        Store::Warm | Store::Compressed => Target::Live(a),
                    };
                    let mut tracer = traced.then(|| Tracer::new(epoch, thread));
                    let mut reader = Reader::new(epoch);
                    while Instant::now() < deadline {
                        let q = gen.next_query();
                        reader.run(&target, &q, "query", tracer.as_mut(), &|q, r| {
                            check_exact(model, q, r)
                        });
                    }
                    reader.spans = tracer.map(|t| t.spans).unwrap_or_default();
                    reader
                })
            })
            .collect();
        for h in handles {
            all.merge(h.join().expect("reader thread panicked"));
        }
    });
    Ok(all)
}

pub fn run(cfg: &RunConfig, scratch: &Scratch, kind: Store) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t_setup = Instant::now();
    let path = scratch.path("query.db");
    let stream = Stream::generate(H_EMPLOYEES, cfg.seed);
    let pool = match kind {
        Store::Warm => H_POOL_FITS,
        Store::Cold | Store::Compressed => H_POOL_SMALL,
    };
    // Ingesting in place leaves `query-warm`'s pool holding every page.
    let mut a = store::create(&path, pool)?;
    let built = store::ingest(&a, &stream, 0..stream.changes.len(), None, None)?;
    a.checkpoint().map_err(err)?;
    out.exact
        .insert("base.archival_events", built.archival_events as u64);
    out.exact
        .insert("base.store_bytes", store::store_bytes(&path));
    let mut plain = None;
    let mut blockzip = [0.0; 3];
    if kind == Store::Compressed {
        if cfg.trace {
            // The same history uncompressed, for `compressed.unzip_share`.
            let plain_path = scratch.path("plain.db");
            store::clone_store(&path, &plain_path)?;
            plain = Some(store::open(&plain_path, pool)?);
        }
        let before = a.storage_bytes().map_err(err)?;
        let t0 = Instant::now();
        let blocks = a.compress_archived(data::RELATION).map_err(err)?;
        let compress_s = t0.elapsed().as_secs_f64();
        a.checkpoint().map_err(err)?;
        let after = a.storage_bytes().map_err(err)?;
        out.exact.insert("blockzip.blocks", blocks as u64);
        out.exact.insert("blockzip.storage_bytes", after);
        blockzip = [compress_s, blocks as f64, after as f64 / before as f64];
    }
    let a = a;
    let model = Model::replay(&stream.ops);
    let hi = stream.ops.last().expect("non-empty stream").at();
    let user_bytes = *stream.user_bytes.last().expect("non-empty stream");
    let store_bytes = store::store_bytes(&path);
    let space = QuerySpace::of(&a, &model, hi)?;
    // Let caches fill and lazy set-up finish before timing.
    let warm_up = read_phase(&a, kind, &space, cfg.seed ^ 0x5EED, WARM_UP_S, false)?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    out.note(
        "dataset",
        Json::str(format!(
            "H: {H_EMPLOYEES} employees, 17 years, {} changes",
            stream.changes.len()
        )),
    );
    out.note("pool_pages", Json::Int(pool as u64));
    out.note("threads", Json::Int(READERS as u64));
    out.note("store_bytes", Json::Int(store_bytes));
    out.note("user_bytes", Json::Int(user_bytes));

    let io0 = ProcIo::now();
    let mut done = read_phase(&a, kind, &space, cfg.seed, cfg.seconds, cfg.trace)?;
    let io = ProcIo::now().since(&io0);
    out.attempted += (warm_up.attempted() + done.attempted()) as u64;
    for f in warm_up.failures.iter().chain(&done.failures) {
        out.fail(f.clone());
    }

    if cfg.trace {
        let lt = trace::layer_times(&done.spans);
        let queries = done.attempted().max(1) as f64;
        let lat = mix_latency(&done.stepped);
        lat.note(&mut out);
        set_query_layers(&mut out, &lt, &["query"], &done.reads);
        lat.set_class_metrics(&mut out);
        out.set("latency.ms_p95", lat.p95);
        out.set("io.read_bytes_per_query", io.rchar as f64 / queries);
        out.set("io.read_syscalls_per_query", io.syscr as f64 / queries);
        out.set("blockzip.compress_s", blockzip[0]);
        out.set("blockzip.blocks", blockzip[1]);
        out.set("blockzip.stored_ratio", blockzip[2]);
        out.set(
            "trace.overhead_pct",
            overhead_pct(mix_latency(&done.samples).p50, lat.p50),
        );
        out.spans = std::mem::take(&mut done.spans);
        if let Some(plain) = &plain {
            let share = unzip_share(&a, plain, &space, cfg.seed, &mut out)?;
            out.set("compressed.unzip_share", share);
        }
    } else {
        let lat = mix_latency(&done.samples);
        lat.note(&mut out);
        let qps = windowed_qps(&done.samples, cfg.seconds, &mut out);
        out.set("throughput_per_s", qps);
        out.set("latency_ms_p50", lat.p50);
        out.note("latency_ms_p95", Json::Num(lat.p95));
        out.set(
            "store_bytes_per_user_byte",
            store_bytes as f64 / user_bytes as f64,
        );
        out.set("setup_s", setup_s);
    }
    Ok(out)
}

/// `compressed.unzip_share`: how much of `exec` on the compressed store is
/// not there on the same history uncompressed — the same translated SQL
/// through `execute_sql` on both, two cycles of the mix, single-threaded.
/// The two answers must also agree.
fn unzip_share(
    compressed: &ArchIS,
    plain: &ArchIS,
    space: &QuerySpace,
    seed: u64,
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut gen = space.gen(seed ^ 0x21B)?;
    let mut tracer = Tracer::new(Instant::now(), 9);
    for _ in 0..2 * CYCLE {
        let q = gen.next_query();
        out.attempted += 1;
        let agree = compressed
            .translate(&q.xquery())
            .map_err(err)
            .and_then(|sql| {
                let zipped = tracer
                    .op("exec.compressed", |_| compressed.execute_sql(&sql))
                    .map_err(err)?;
                let unzipped = tracer
                    .op("exec.uncompressed", |_| plain.execute_sql(&sql))
                    .map_err(err)?;
                same_answer(&q, &render(&zipped), &render(&unzipped))
            });
        if let Err(e) = agree {
            out.fail(format!("compressed vs uncompressed: {e}"));
        }
    }
    let lt = trace::layer_times(&tracer.spans);
    let total = |name: &str| lt.roots.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let (zipped, unzipped) = (total("exec.compressed"), total("exec.uncompressed"));
    out.spans.append(&mut tracer.spans);
    Ok(if zipped > 0.0 {
        (zipped - unzipped) / zipped
    } else {
        0.0
    })
}
