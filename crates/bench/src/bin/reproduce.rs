//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [-e EXPERIMENT]... [--scale N] [--runs N]
//!
//! EXPERIMENT: fig7 | fig8 | translate | fig9 | snapcur | fig10 |
//!             fig11 | fig13 | fig14 | updates | scrub | all
//!             (default: all)
//! --scale N   initial employee population (default 100; fig10 also
//!             loads 7N)
//! --runs N    cold runs per query, median reported (default 3)
//! ```
//!
//! After each experiment the harness prints the buffer-pool I/O it
//! accumulated — logical reads, physical reads, and the hit rate — so a
//! change in caching or scan behaviour shows up as a delta even when wall
//! times are noisy. Performance beyond the paper's figures is measured by
//! `archis-bench` (`benchmark/`), not here.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
use bench::experiments as exp;

/// One experiment: its `-e` name and `run(scale, runs)`.
type Experiment = (&'static str, fn(usize, usize));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig7", |scale, _| drop(exp::fig7(scale))),
    ("fig8", |scale, runs| drop(exp::fig8(scale, runs))),
    ("translate", |scale, _| drop(exp::translate_cost(scale))),
    ("fig9", |scale, runs| drop(exp::fig9(scale, runs))),
    ("snapcur", |scale, runs| {
        drop(exp::snapshot_vs_current(scale, runs))
    }),
    ("fig10", |scale, runs| drop(exp::fig10(scale, runs))),
    ("fig11", |scale, _| drop(exp::fig11(scale))),
    ("fig13", |scale, _| drop(exp::fig13(scale))),
    ("fig14", |scale, runs| drop(exp::fig14(scale, runs))),
    ("updates", |scale, _| drop(exp::updates(scale))),
    ("scrub", |scale, runs| drop(exp::scrub_bench(scale, runs))),
];

/// Run one experiment and report the pool I/O it accumulated.
fn section(name: &str, f: impl FnOnce()) {
    let _ = bench::iostat::take(); // drop anything a prior phase leaked
    let _ = bench::iostat::take_checksums();
    f();
    let (logical, physical) = bench::iostat::take();
    let (verified, failed) = bench::iostat::take_checksums();
    if logical > 0 {
        let hits = logical - physical.min(logical);
        println!(
            "   [{name}] pool I/O: {logical} logical / {physical} physical reads, hit rate {:.1}%",
            100.0 * hits as f64 / logical as f64
        );
    }
    if verified + failed > 0 {
        println!("   [{name}] page checksums: {verified} verified, {failed} failed");
    }
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "reproduce [-e {}|all]... [--scale N] [--runs N]",
        names.join("|")
    )
}

/// Refuse the command line: say why, list the experiments, exit 2.
fn bad_usage(why: &str) -> ! {
    eprintln!("{why}\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let mut experiments: Vec<String> = Vec::new();
    let mut scale = 100usize;
    let mut runs = 3usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| bad_usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "-e" | "--experiment" => {
                let e = value();
                if e != "all" && !EXPERIMENTS.iter().any(|(n, _)| *n == e) {
                    bad_usage(&format!("unknown experiment {e:?}"));
                }
                experiments.push(e);
            }
            "--scale" => scale = value().parse().expect("--scale takes a number"),
            "--runs" => runs = value().parse().expect("--runs takes a number"),
            "-h" | "--help" => {
                println!("{}", usage());
                return;
            }
            other => bad_usage(&format!("unknown argument {other:?}")),
        }
    }
    let all = experiments.is_empty() || experiments.iter().any(|e| e == "all");

    println!("ArchIS reproduction harness — scale {scale} employees, {runs} cold run(s) per query");
    for (name, run) in EXPERIMENTS {
        if all || experiments.iter().any(|e| e == name) {
            section(name, || run(scale, runs));
        }
    }
}
