//! `archis-bench` — the standing ArchIS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`; everything
//! else goes to standard error and to `benchmark/out/`. See `README.md`
//! beside this crate for the workloads, the metrics and the trace format.

#![forbid(unsafe_code)]

mod data;
mod store;
mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::Json;
use workloads::{Outcome, RunConfig, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: archis-bench [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace [0|1]] [--verify-only] [--repeat <n>] [--append <path>]
  --workload     one of the workloads below; all of them when omitted
  --seed         feeds the data stream and the query parameters (default 42)
  --seconds      run length per workload (default 8)
  --trace        run step by step under spans and report the per-layer metrics
  --verify-only  short self-check of every workload, untraced and traced
  --repeat       run the untraced set n times, report spread per metric
  --append       also append each result as one JSON line to this file";

/// Measured time per workload of `--verify-only`.
const VERIFY_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    verify_only: bool,
    repeat: usize,
    append: Option<PathBuf>,
}

impl Args {
    /// The workload named by `--workload`, or all of them.
    fn selected(&self) -> Vec<&str> {
        match &self.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.to_vec(),
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 8.0,
        trace: false,
        verify_only: false,
        repeat: 0,
        append: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                }
            }
            "--verify-only" => args.verify_only = true,
            "--repeat" => {
                args.repeat = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--append" => args.append = Some(PathBuf::from(value(&mut i, flag)?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

/// The result object of the benchmark contract: exactly `correct`,
/// `attempted`, `failed` and `metrics` (every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one).
fn result_line(out: &Outcome, trace: bool) -> Json {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names.iter().map(|(name, unit)| {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        (
            *name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(is_correct(out, trace))),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// No operation failed, and every end-to-end metric is a positive finite
/// number (a zero or NaN there means the workload measured nothing).
fn is_correct(out: &Outcome, trace: bool) -> bool {
    let measured = trace
        || END_TO_END.iter().all(|(name, _)| {
            out.metrics
                .get(name)
                .is_some_and(|v| v.is_finite() && *v > 0.0)
        });
    out.failed == 0 && out.attempted > 0 && measured
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Everything known about one run, for `benchmark/out/` and `--append`.
fn detail_document(workload: &str, args: &Args, seconds: f64, trace: bool, out: &Outcome) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields: Vec<(String, Json)> = [
        ("commit", Json::str(git_head())),
        ("workload", Json::str(workload)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("load", Json::str("closed loop, one process")),
        (
            "flush_policy",
            Json::str("ArchConfig::default(): group commit, one log fsync per 8 commits"),
        ),
        ("batch", Json::Int(store::BATCH as u64)),
        ("available_parallelism", Json::Int(parallelism as u64)),
        ("result", result_line(out, trace)),
        (
            "exact",
            Json::obj(out.exact.iter().map(|(k, v)| (*k, Json::Int(*v)))),
        ),
        (
            "errors",
            Json::Arr(out.errors.iter().map(Json::str).collect()),
        ),
    ]
    .into_iter()
    .map(|(key, value)| (key.to_string(), value))
    .collect();
    fields.extend(out.detail.iter().cloned());
    Json::Obj(fields)
}

fn run_one(
    workload: &str,
    args: &Args,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    eprintln!(
        "[{workload}] seed {} · {seconds} s · trace {}",
        args.seed, trace as u8
    );
    let cfg = RunConfig {
        seed: args.seed,
        seconds,
        trace,
        out_dir,
    };
    let out = workloads::run(workload, &cfg)?;
    for e in &out.errors {
        eprintln!("[{workload}] FAILED: {e}");
    }
    let doc = detail_document(workload, args, seconds, trace, &out).render();
    let path = out_dir.join(format!("result-{workload}-trace{}.json", trace as u8));
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    if let Some(path) = &args.append {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{doc}"))
            .map_err(|e| format!("append {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// `--verify-only`: every workload briefly in a traced run, which
/// alternates whole calls with the stepwise pipeline and checks every
/// answer of both against the reference model — so passing means model,
/// whole-call and stepwise answers agree on all six classes, on H and on
/// L-base. (`mixed-ingest` is the same run as `mixed`.)
fn verify_only(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    for workload in WORKLOADS.iter().filter(|w| **w != "mixed-ingest") {
        let out = run_one(workload, args, VERIFY_SECONDS, true, out_dir)?;
        let pass = is_correct(&out, true);
        eprintln!(
            "[{workload}] {} of {} operations failed — {}",
            out.failed,
            out.attempted,
            if pass { "ok" } else { "NOT OK" }
        );
        ok &= pass;
    }
    Ok(ok)
}

/// `--repeat N`: the untraced set N times; per (workload, metric) the
/// median, quartiles and relative spread; counts that must repeat exactly
/// for a seed are asserted equal.
fn repeat(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let names = args.selected();
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in names {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut exact: Option<BTreeMap<&'static str, u64>> = None;
        for _ in 0..args.repeat {
            let out = run_one(workload, args, args.seconds, false, out_dir)?;
            ok &= is_correct(&out, false);
            for (name, _) in END_TO_END {
                values
                    .entry(name)
                    .or_default()
                    .push(out.metrics.get(name).copied().unwrap_or(0.0));
            }
            match &exact {
                None => exact = Some(out.exact),
                Some(first) if *first != out.exact => {
                    eprintln!(
                        "[{workload}] exact counts differ between repeats: {first:?} vs {:?}",
                        out.exact
                    );
                    ok = false;
                }
                Some(_) => {}
            }
        }
        for (name, unit) in END_TO_END {
            let v = util::sorted(values.remove(name).unwrap_or_default());
            let med = util::percentile(&v, 50.0);
            let (q1, q3) = (util::percentile(&v, 25.0), util::percentile(&v, 75.0));
            let (min, max) = (
                v.first().copied().unwrap_or(0.0),
                v.last().copied().unwrap_or(0.0),
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload)),
                ("metric", Json::str(name)),
                ("unit", Json::str(unit)),
                ("runs", Json::Int(v.len() as u64)),
                ("median", Json::Num(med)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("iqr_over_median", Json::Num((q3 - q1) / med)),
                ("max_spread_over_median", Json::Num((max - min) / med)),
            ]));
        }
        if let Some(exact) = exact {
            rows.push(Json::obj([
                ("workload", Json::str(workload)),
                (
                    "exact_counts_equal_across_repeats",
                    Json::obj(exact.iter().map(|(k, v)| (*k, Json::Int(*v)))),
                ),
            ]));
        }
    }
    for row in &rows {
        println!("{}", row.render());
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)
        .map_err(|e| format!("{e}\n{USAGE}\nworkloads: {}", WORKLOADS.join(", ")))?;
    let out_dir = PathBuf::from("benchmark/out");
    if !Path::new("benchmark/Cargo.toml").exists() {
        return Err("run from the repository root (benchmark/Cargo.toml not found)".into());
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    if args.verify_only {
        return verify_only(&args, &out_dir);
    }
    if args.repeat > 0 {
        return repeat(&args, &out_dir);
    }
    let names = args.selected();
    // A run that printed its result exits 0 even when operations failed:
    // the result line says so (`"correct": false`, `failed`).
    for workload in names {
        let out = run_one(workload, &args, args.seconds, args.trace, &out_dir)?;
        println!("{}", result_line(&out, args.trace).render());
    }
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // --verify-only / --repeat found failures or unequal counts.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("archis-bench: {e}");
            ExitCode::from(1)
        }
    }
}
