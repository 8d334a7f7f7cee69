//! One function per figure/table of the paper's evaluation.
//!
//! Each function loads its workload, runs the measurement, prints a table
//! shaped like the paper's figure, and returns the rows so the `reproduce`
//! binary can archive them. Absolute numbers differ from the paper (our
//! substrate is an embedded engine, not DB2/ATLaS/Tamino on 2005 hardware);
//! the *shape* — who wins and by roughly what factor — is the
//! reproduction target, see EXPERIMENTS.md.

use crate::*;
use archis::queries as q;
use archis::ArchConfig;
use std::time::Instant;

/// Figure 7: storage size against `Umin` (plus the paper's bound
/// `Nseg/Nnoseg ≤ 1/(1−Umin)`).
pub fn fig7(employees: usize) -> Vec<Vec<String>> {
    let ops = dataset::generate(&base_config(employees));
    let baseline = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, false);
    let base_rows = baseline
        .database()
        .table("employee_salary")
        .unwrap()
        .row_count();
    let mut rows = Vec::new();
    for umin in [0.2, 0.26, 0.36, 0.4] {
        let a = load_archis(
            ArchConfig::db2_like().with_umin(umin).with_now(bench_now()),
            &ops,
            true,
        );
        let seg_rows = a.database().table("employee_salary").unwrap().row_count();
        let nsegs = a.segments_of("employee", "salary").unwrap().len() - 1; // minus live
        rows.push(vec![
            format!("{umin:.2}"),
            nsegs.to_string(),
            format!("{:.3}", seg_rows as f64 / base_rows as f64),
            format!("{:.3}", 1.0 / (1.0 - umin)),
        ]);
    }
    print_table(
        "Figure 7: storage ratio vs Umin (employee_salary tuples)",
        &["Umin", "segments", "Nseg/Nnoseg", "bound 1/(1-Umin)"],
        &rows,
    );
    rows
}

/// Figure 8: Q1–Q6 on Tamino vs ArchIS-DB2 vs ArchIS-ATLaS (segment
/// clustering on, no compression).
pub fn fig8(employees: usize, runs: usize) -> Vec<Vec<String>> {
    let ops = dataset::generate(&base_config(employees));
    let probe = ops[0].id();
    let qs = BenchQuerySet::standard(probe);
    let heap = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, true);
    let clustered = load_archis(ArchConfig::atlas_like().with_now(bench_now()), &ops, true);
    let tamino = build_xmldb(&heap);
    let mut rows = Vec::new();
    for (label, xq) in qs.all() {
        let t = median_of(runs, || run_xmldb_cold(&tamino, xq));
        let h = median_of(runs, || run_archis_cold(&heap, xq));
        let c = median_of(runs, || run_archis_cold(&clustered, xq));
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", t.ms()),
            format!("{:.2}", h.ms()),
            format!("{:.2}", c.ms()),
            format!("{:.1}x", t.ms() / h.ms().max(1e-6)),
            format!("{:.1}x", t.ms() / c.ms().max(1e-6)),
            h.physical_reads.to_string(),
            c.physical_reads.to_string(),
        ]);
    }
    print_table(
        "Figure 8: query performance, segment-clustered RDBMS vs native XML DB (cold, ms)",
        &[
            "query",
            "Tamino",
            "ArchIS-DB2",
            "ArchIS-ATLaS",
            "DB2 speedup",
            "ATLaS speedup",
            "DB2 reads",
            "ATLaS reads",
        ],
        &rows,
    );
    rows
}

/// §7.1: query translation cost (paper: < 0.1 ms per query).
pub fn translate_cost(employees: usize) -> Vec<Vec<String>> {
    let ops = dataset::generate(&base_config(employees));
    let a = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, true);
    let qs = BenchQuerySet::standard(ops[0].id());
    let mut rows = Vec::new();
    for (label, xq) in qs.all() {
        let n = 200;
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(a.translate(xq).unwrap());
        }
        let per = start.elapsed() / n;
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", per.as_secs_f64() * 1e6),
        ]);
    }
    print_table(
        "§7.1: XQuery → SQL/XML translation cost",
        &["query", "µs/translation"],
        &rows,
    );
    rows
}

/// Figure 9: segment clustering on vs off (ArchIS-ATLaS configuration).
pub fn fig9(employees: usize, runs: usize) -> Vec<Vec<String>> {
    let ops = dataset::generate(&base_config(employees));
    let qs = BenchQuerySet::standard(ops[0].id());
    let with = load_archis(ArchConfig::atlas_like().with_now(bench_now()), &ops, true);
    let without = load_archis(ArchConfig::atlas_like().with_now(bench_now()), &ops, false);
    let mut rows = Vec::new();
    for (label, xq) in qs.all() {
        let w = median_of(runs, || run_archis_cold(&with, xq));
        let wo = median_of(runs, || run_archis_cold(&without, xq));
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", w.ms()),
            format!("{:.2}", wo.ms()),
            format!("{:.2}x", wo.ms() / w.ms().max(1e-6)),
            w.physical_reads.to_string(),
            wo.physical_reads.to_string(),
        ]);
    }
    print_table(
        "Figure 9: with vs without segment clustering (cold, ms)",
        &[
            "query",
            "clustered",
            "non-clustered",
            "speedup",
            "reads(c)",
            "reads(nc)",
        ],
        &rows,
    );
    rows
}

/// §7.1: snapshot on the history vs directly on the current database
/// (paper: the history snapshot runs ~27% slower).
pub fn snapshot_vs_current(employees: usize, runs: usize) -> Vec<Vec<String>> {
    let ops = dataset::generate(&base_config(employees));
    let a = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, true);
    // A *current* snapshot (today) against the history tables...
    let today_q = q::q2_xquery(bench_now());
    let hist = median_of(runs, || run_archis_cold(&a, &today_q));
    // ... vs the same aggregate on the current table.
    let cur = median_of(runs, || {
        run_sql_cold(&a, "select avg(e.salary) from employee e")
    });
    let rows = vec![vec![
        format!("{:.2}", hist.ms()),
        format!("{:.2}", cur.ms()),
        format!("{:+.0}%", (hist.ms() / cur.ms().max(1e-6) - 1.0) * 100.0),
    ]];
    print_table(
        "§7.1: snapshot on archived history vs current database (Q2, cold, ms)",
        &["history", "current DB", "overhead"],
        &rows,
    );
    rows
}

/// Figure 10: scalability — the same queries on a 7× larger data set.
pub fn fig10(employees: usize, runs: usize) -> Vec<Vec<String>> {
    let small_ops = dataset::generate(&base_config(employees));
    let big_ops = dataset::generate(&base_config(employees * 7));
    let small = load_archis(
        ArchConfig::db2_like().with_now(bench_now()),
        &small_ops,
        true,
    );
    let big = load_archis(ArchConfig::db2_like().with_now(bench_now()), &big_ops, true);
    let qs_small = BenchQuerySet::standard(small_ops[0].id());
    let qs_big = BenchQuerySet::standard(big_ops[0].id());
    let mut rows = Vec::new();
    for ((label, xq_s), (_, xq_b)) in qs_small.all().into_iter().zip(qs_big.all()) {
        let s = median_of(runs, || run_archis_cold(&small, xq_s));
        let b = median_of(runs, || run_archis_cold(&big, xq_b));
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", s.ms()),
            format!("{:.2}", b.ms()),
            format!("{:.1}x", b.ms() / s.ms().max(1e-6)),
            format!(
                "{:.1}x",
                b.physical_reads as f64 / s.physical_reads.max(1) as f64
            ),
        ]);
    }
    print_table(
        "Figure 10: scalability, 7x data (ArchIS-DB2, cold, ms; ~7x or less expected)",
        &["query", "1x", "7x", "time ratio", "reads ratio"],
        &rows,
    );
    rows
}

/// Figure 11: storage (compression) ratios *without* RDBMS compression.
/// Denominator: the serialized H-document size.
pub fn fig11(employees: usize) -> Vec<Vec<String>> {
    let ops = dataset::generate(&base_config(employees));
    let heap = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, true);
    let clustered = load_archis(ArchConfig::atlas_like().with_now(bench_now()), &ops, true);
    // REORG after load so page-fill artifacts of the change replay don't
    // pollute the storage comparison (the paper bulk-loads from logs).
    heap.vacuum_relation("employee").unwrap();
    clustered.vacuum_relation("employee").unwrap();
    let tamino = build_xmldb(&heap);
    let hdoc = tamino.raw_bytes() as f64;
    let rows = vec![
        vec![
            "Tamino (auto-compressed)".into(),
            format!("{:.2}", tamino.stored_bytes() as f64 / hdoc),
        ],
        vec![
            "ArchIS-DB2 (heap + indexes)".into(),
            format!("{:.2}", heap.storage_bytes().unwrap() as f64 / hdoc),
        ],
        vec![
            "ArchIS-ATLaS (clustered)".into(),
            format!("{:.2}", clustered.storage_bytes().unwrap() as f64 / hdoc),
        ],
    ];
    print_table(
        "Figure 11: storage ratio vs H-document size (no RDBMS compression)",
        &["system", "ratio"],
        &rows,
    );
    rows
}

/// Figure 13: storage ratios *with* BlockZIP compression of archived
/// segments.
pub fn fig13(employees: usize) -> Vec<Vec<String>> {
    let ops = dataset::generate(&base_config(employees));
    let mut heap = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, true);
    let mut clustered = load_archis(ArchConfig::atlas_like().with_now(bench_now()), &ops, true);
    // Archive whatever is still live, then compress.
    let last = ops.last().unwrap().at();
    heap.force_archive("employee", last).unwrap();
    clustered.force_archive("employee", last).unwrap();
    let tamino = build_xmldb(&heap);
    let hdoc = tamino.raw_bytes() as f64;
    heap.compress_archived("employee").unwrap();
    clustered.compress_archived("employee").unwrap();
    heap.vacuum_relation("employee").unwrap();
    clustered.vacuum_relation("employee").unwrap();
    let rows = vec![
        vec![
            "Tamino (compressed)".into(),
            format!("{:.2}", tamino.stored_bytes() as f64 / hdoc),
        ],
        vec!["Tamino (uncompressed H-doc)".into(), "1.00".into()],
        vec![
            "ArchIS-DB2 + BlockZIP".into(),
            format!("{:.2}", heap.storage_bytes().unwrap() as f64 / hdoc),
        ],
        vec![
            "ArchIS-ATLaS + BlockZIP".into(),
            format!("{:.2}", clustered.storage_bytes().unwrap() as f64 / hdoc),
        ],
    ];
    print_table(
        "Figure 13: storage ratio vs H-document size (BlockZIP on archived segments)",
        &["system", "ratio"],
        &rows,
    );
    rows
}

/// Figure 14: Q1–Q6 with compression — BlockZIP'ed ArchIS vs Tamino
/// (which is always compressed). Both ArchIS columns run the same XQuery
/// through [`archis::ArchIS::query`]; the compressed one reads the archived
/// rows out of BlockZIP blocks. Besides the times, each row carries the
/// deterministic I/O of the two ArchIS runs: the compressed run's pool
/// logical reads and block touches (cache hits + misses), and the
/// uncompressed run's logical reads.
pub fn fig14(employees: usize, runs: usize) -> Vec<Vec<String>> {
    let ops = dataset::generate(&base_config(employees));
    let probe = ops[0].id();
    let qs = BenchQuerySet::standard(probe);
    let mut heap = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, true);
    let uncompressed = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, true);
    let last = ops.last().unwrap().at();
    heap.force_archive("employee", last).unwrap();
    let tamino = build_xmldb(&heap);
    heap.compress_archived("employee").unwrap();
    let store = heap.compressed_store("employee").unwrap();

    // `cold` evicts the decompressed-block cache so BlockZIP unpacking is
    // part of the measurement; a warm rerun keeps it, so the hit-rate
    // column shows what the cache buys on repeated queries.
    let run_compressed = |xq: &str, cold: bool| -> RunCost {
        if cold {
            store.clear_cache();
        }
        store.reset_stats();
        let mut c = run_archis_cold(&heap, xq);
        (c.cache_hits, c.cache_misses) = store.cache_stats();
        c
    };
    let mut rows = Vec::new();
    for (label, xq) in qs.all() {
        let c = median_of(runs, || run_compressed(xq, true));
        // Warm rerun straight after: the block cache still holds whatever
        // the cold run decompressed.
        let w = run_compressed(xq, false);
        let t = median_of(runs, || run_xmldb_cold(&tamino, xq));
        let u = median_of(runs, || run_archis_cold(&uncompressed, xq));
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", t.ms()),
            format!("{:.2}", c.ms()),
            format!("{:.2}", u.ms()),
            format!("{:.1}x", t.ms() / c.ms().max(1e-6)),
            format!("{:.2}", w.ms()),
            format!("{:.2}", w.cache_hit_rate()),
            c.logical_reads.to_string(),
            (c.cache_hits + c.cache_misses).to_string(),
            u.logical_reads.to_string(),
        ]);
    }
    print_table(
        "Figure 14: query performance with compression (cold, ms; warm rerun via block cache)",
        &[
            "query",
            "Tamino",
            "ArchIS+BlockZIP",
            "ArchIS uncompressed",
            "speedup vs Tamino",
            "warm ms",
            "cache hit rate",
            "BlockZIP reads",
            "blocks",
            "uncompressed reads",
        ],
        &rows,
    );
    rows
}

/// §8.4: update performance — one raise and a daily batch, ArchIS vs the
/// native XML DB (whole-document rewrite), plus the one-off archival and
/// compression costs.
pub fn updates(employees: usize) -> Vec<Vec<String>> {
    let ops = dataset::generate(&base_config(employees));
    let a = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, true);
    let tamino = build_xmldb(&a);
    let day = ops.last().unwrap().at().succ();

    // Single update: +10% raise for one still-current employee.
    let cur = a.database().table("employee").unwrap();
    let first_current = cur
        .scan()
        .unwrap()
        .into_iter()
        .next()
        .expect("someone is employed");
    let probe = first_current[0].as_int().unwrap();
    let cur_salary = first_current[2].as_int().unwrap_or(50_000);
    let start = Instant::now();
    a.update(
        "employee",
        probe,
        vec![(
            "salary".into(),
            relstore::Value::Int(cur_salary + cur_salary / 10),
        )],
        day,
    )
    .unwrap();
    let archis_single = start.elapsed();
    let start = Instant::now();
    tamino
        .apply_change(
            "employees.xml",
            &xmldb::DocChange::Update {
                tuple: "employee".into(),
                key_child: "id".into(),
                key: probe.to_string(),
                attr: "salary".into(),
                value: (cur_salary + cur_salary / 10).to_string(),
                at: day,
            },
        )
        .unwrap();
    let tamino_single = start.elapsed();

    // Daily batch: raises for ~2% of current employees.
    let current_ids: Vec<i64> = a
        .database()
        .table("employee")
        .unwrap()
        .scan()
        .unwrap()
        .iter()
        .filter_map(|r| r[0].as_int())
        .collect();
    // ~5% of the workforce gets a raise on one day.
    let batch: Vec<i64> = current_ids
        .iter()
        .step_by((current_ids.len() / 20).max(1))
        .copied()
        .collect();
    let day2 = day.succ();
    let start = Instant::now();
    for (i, id) in batch.iter().enumerate() {
        a.update(
            "employee",
            *id,
            vec![("salary".into(), relstore::Value::Int(90_000 + i as i64))],
            day2,
        )
        .unwrap();
    }
    let archis_daily = start.elapsed();
    let start = Instant::now();
    for (i, id) in batch.iter().enumerate() {
        tamino
            .apply_change(
                "employees.xml",
                &xmldb::DocChange::Update {
                    tuple: "employee".into(),
                    key_child: "id".into(),
                    key: id.to_string(),
                    attr: "salary".into(),
                    value: (90_000 + i as i64).to_string(),
                    at: day2,
                },
            )
            .unwrap();
    }
    let tamino_daily = start.elapsed();

    // One-off archival + compression of the segment.
    let mut a2 = load_archis(ArchConfig::db2_like().with_now(bench_now()), &ops, false);
    let start = Instant::now();
    a2.force_archive("employee", day).unwrap();
    let archive_cost = start.elapsed();
    let start = Instant::now();
    a2.compress_archived("employee").unwrap();
    let compress_cost = start.elapsed();

    let ms = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    let rows = vec![
        vec!["single raise".into(), ms(archis_single), ms(tamino_single)],
        vec![
            format!("daily batch ({} updates)", batch.len()),
            ms(archis_daily),
            ms(tamino_daily),
        ],
        vec![
            "segment archival (one-off)".into(),
            ms(archive_cost),
            "-".into(),
        ],
        vec![
            "segment compression (one-off)".into(),
            ms(compress_cost),
            "-".into(),
        ],
    ];
    print_table(
        "§8.4: update performance (ms)",
        &["operation", "ArchIS-DB2", "Tamino"],
        &rows,
    );
    rows
}

/// Checksum/scrub microbenchmark: how fast the media scrub verifies a
/// real checkpointed ArchIS page file, and what the CRC-32 stamps add to
/// the scan hot path. Builds a file-backed database (employee history +
/// archived segments + compressed blocks, plus a dense 50k-row payload
/// table), then measures
///
/// * the **media scrub** — `FilePager::read_page` over every slot, i.e.
///   exactly what `archis-fsck scrub` does,
/// * a **cold dense scan** of the payload table through the buffer pool
///   (each physical read verifies its page checksum on the way in), and
/// * a **pure CRC-32 pass** over the same page images in memory — the
///   isolated compute the stamps add per physically-read page.
///
/// The acceptance number is the CRC compute attributable to the scan's
/// physical reads as a share of the scan's wall time (target ≤ 5%).
/// Prints the table and writes `BENCH_scrub.json`.
pub fn scrub_bench(employees: usize, runs: usize) -> Vec<Vec<String>> {
    use relstore::exec::Cursor;
    use relstore::pager::page_crc;
    use relstore::{
        DataType, Database, Field, FilePager, PageFileLayout, Pager, Schema, StorageKind, Value,
        PAGE_SIZE,
    };

    const DENSE_ROWS: usize = 50_000;
    let dir = std::env::temp_dir().join(format!("archis-scrub-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join("scrub.db");
    let wal = {
        let mut p = path.as_os_str().to_os_string();
        p.push(".wal");
        std::path::PathBuf::from(p)
    };
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);

    {
        let ops = dataset::generate(&base_config(employees));
        let changes: Vec<_> = ops.iter().map(op_to_change).collect();
        let mut a = ArchIS::open_file(&path, ArchConfig::db2_like().with_now(bench_now()))
            .expect("open file-backed archis");
        a.create_relation(RelationSpec::employee()).unwrap();
        a.apply_all(&changes).unwrap();
        a.force_archive("employee", ops.last().unwrap().at())
            .unwrap();
        a.compress_archived("employee").unwrap();
        a.checkpoint().unwrap();
    }
    {
        // The dense scan target.
        let db = Database::open_file(&path, 256).expect("reopen for dense load");
        let t = db
            .create_table(
                "scan_payload",
                Schema::new(vec![
                    Field::new("k", DataType::Int),
                    Field::new("payload", DataType::Str),
                ]),
                StorageKind::Heap,
                &[],
            )
            .unwrap();
        t.insert_all(
            (0..DENSE_ROWS as i64)
                .map(|i| vec![Value::Int(i), Value::Str(format!("payload-{i:08}"))]),
        )
        .unwrap();
        db.checkpoint().unwrap();
    }

    // Media scrub: verify every slot's checksum straight off the pager,
    // exactly the `archis-fsck scrub` read loop.
    let pager = FilePager::open(&path).expect("reopen page file");
    let pages = pager.num_pages();
    let mut scrub_ms = f64::MAX;
    for _ in 0..runs.max(1) {
        pager.reset_checksum_stats();
        let mut buf = [0u8; PAGE_SIZE];
        let start = Instant::now();
        for id in 0..pages {
            pager.read_page(id, &mut buf).expect("scrub read");
        }
        scrub_ms = scrub_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let (scrub_verified, scrub_failed) = pager.checksum_stats();
    drop(pager);

    // Pure CRC-32 pass over the same page images in memory: the isolated
    // compute the stamps add to each physical read.
    let bytes = std::fs::read(&path).expect("read page file");
    let layout = PageFileLayout::of_file(&path).expect("layout");
    let mut crc_ms = f64::MAX;
    let mut sink = 0u32;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        for id in 0..pages {
            let off = layout.slot_offset(id) as usize;
            sink ^= page_crc(id, &bytes[off..off + PAGE_SIZE]);
        }
        crc_ms = crc_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    std::hint::black_box(sink);
    let crc_us_per_page = crc_ms * 1e3 / pages as f64;

    // Cold dense scan through the buffer pool (pool far smaller than the
    // table so every page is a physical read, each verifying its stamp).
    let db = Database::open_file(&path, 64).expect("reopen database");
    let t = db.table("scan_payload").unwrap();
    let mut scan_ms = f64::MAX;
    let mut scanned_rows = 0usize;
    for _ in 0..runs.max(1) {
        db.pool().flush_all().unwrap();
        db.pool().reset_stats();
        let start = Instant::now();
        scanned_rows = 0;
        // Count the rows as the stream lends them: the owned-row iterator
        // would time a clone per row on top of the scan.
        let mut stream = t.stream().unwrap();
        while stream.advance().unwrap() {
            scanned_rows += 1;
        }
        scan_ms = scan_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let stats = db.pool().stats();
    crate::iostat::record(stats.logical_reads, stats.physical_reads);
    crate::iostat::record_checksums(stats.checksum_verifications, stats.checksum_failures);
    drop(t);
    drop(db);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_dir(&dir);

    let scrub_pps = pages as f64 / (scrub_ms / 1e3).max(1e-9);
    let crc_mbps = (pages as f64 * PAGE_SIZE as f64 / 1e6) / (crc_ms / 1e3).max(1e-9);
    // CRC compute attributable to the scan's physical reads, as a share
    // of the scan's wall time: the stamps' overhead on the scan hot path.
    let scan_crc_ms = crc_us_per_page * stats.physical_reads as f64 / 1e3;
    let overhead_pct = 100.0 * scan_crc_ms / scan_ms.max(1e-9);
    let rows = vec![
        vec![
            "media scrub (read+verify)".into(),
            format!("{scrub_ms:.2}"),
            format!("{scrub_pps:.0} pages/s"),
        ],
        vec![
            "pure CRC-32 pass".into(),
            format!("{crc_ms:.2}"),
            format!("{crc_mbps:.0} MB/s"),
        ],
        vec![
            "cold dense scan".into(),
            format!("{scan_ms:.2}"),
            format!("{scanned_rows} rows / {} pages", stats.physical_reads),
        ],
        vec![
            "CRC share of scan".into(),
            format!("{scan_crc_ms:.2}"),
            format!("{overhead_pct:.2}%"),
        ],
    ];
    print_table(
        &format!(
            "Scrub/checksum microbench: {pages} pages, best of {runs} (target CRC share <= 5%)"
        ),
        &["pass", "ms", "rate"],
        &rows,
    );
    let json = format!(
        "{{\n  \"pages\": {pages},\n  \"scrub_ms\": {scrub_ms:.3},\n  \"scrub_pages_per_sec\": {scrub_pps:.0},\n  \"scrub_verified\": {scrub_verified},\n  \"scrub_failed\": {scrub_failed},\n  \"crc_pass_ms\": {crc_ms:.3},\n  \"crc_mb_per_sec\": {crc_mbps:.0},\n  \"crc_us_per_page\": {crc_us_per_page:.3},\n  \"dense_scan_ms\": {scan_ms:.3},\n  \"dense_scan_pages\": {},\n  \"crc_share_of_scan_pct\": {overhead_pct:.2}\n}}\n",
        stats.physical_reads
    );
    // lint:allow(wal-discipline: benchmark report artifact, not database
    // state — BENCH_*.json summaries live outside the pager/WAL layer)
    if let Err(e) = std::fs::write("BENCH_scrub.json", &json) {
        eprintln!("warning: could not write BENCH_scrub.json: {e}");
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests: each experiment runs end-to-end at a tiny scale.
    #[test]
    fn fig7_runs() {
        let rows = fig7(12);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            let ratio: f64 = r[2].parse().unwrap();
            let bound: f64 = r[3].parse().unwrap();
            assert!(
                ratio <= bound + 0.35,
                "ratio {ratio} far above bound {bound}"
            );
            assert!(ratio >= 1.0, "segmentation never shrinks data");
        }
    }

    #[test]
    fn fig8_runs_and_archis_wins_snapshots() {
        let rows = fig8(12, 1);
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn translate_cost_is_small() {
        let rows = translate_cost(8);
        for r in &rows {
            let us: f64 = r[1].parse().unwrap();
            assert!(us < 5_000.0, "{} took {us}µs", r[0]);
        }
    }

    #[test]
    fn fig9_fig10_fig11_run() {
        assert_eq!(fig9(10, 1).len(), 6);
        assert_eq!(fig10(6, 1).len(), 6);
        let f11 = fig11(10);
        assert_eq!(f11.len(), 3);
        // Tamino compresses below 1.0 of the H-doc.
        let tamino_ratio: f64 = f11[0][1].parse().unwrap();
        assert!(tamino_ratio < 1.0);
    }

    #[test]
    fn fig13_compression_shrinks_storage() {
        // Needs a non-trivial scale: at tiny data sizes the per-attribute
        // blob/segrange table floor (one page each) dominates.
        let rows = fig13(40);
        let db2: f64 = rows[2][1].parse().unwrap();
        let f11 = fig11(40);
        let db2_uncompressed: f64 = f11[1][1].parse().unwrap();
        assert!(
            db2 < db2_uncompressed,
            "BlockZIP must shrink ArchIS storage: {db2} vs {db2_uncompressed}"
        );
    }

    #[test]
    fn fig14_and_updates_run() {
        // `reproduce`'s default scale: the salary history spans six blocks.
        let f14 = fig14(100, 1);
        assert_eq!(f14.len(), 6);
        let count = |r: &[String], col: usize| -> u64 { r[col].parse().unwrap() };
        for r in &f14 {
            // Warm reruns must be served out of the decompressed-block
            // cache: every block a query touches fits, so the hit-rate
            // column reads 1.00 for all of Q1–Q6.
            let hit_rate: f64 = r[6].parse().unwrap();
            assert!(
                hit_rate >= 0.99,
                "{}: warm cache hit rate only {hit_rate}",
                r[0]
            );
            // The paper's Fig. 14 claim, counted instead of timed: reading
            // history out of BlockZIP blocks costs at most twice the page
            // reads of the uncompressed store (pool reads + block touches
            // against pool reads; at this scale 45+1 vs 41 on Q1, 36+6 vs
            // 27 on Q3, 76+12 vs 184 on Q6).
            let compressed = count(r, 7) + count(r, 8);
            let uncompressed = count(r, 9);
            assert!(
                compressed <= 2 * uncompressed,
                "{}: compressed reads {compressed} > 2 × uncompressed {uncompressed}",
                r[0]
            );
        }
        let rows = updates(10);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn scrub_bench_runs_and_checksums_hold() {
        let rows = scrub_bench(20, 1);
        assert_eq!(rows.len(), 4);
        // A pristine checkpointed file must verify with zero failures.
        let (verified, failed) = crate::iostat::take_checksums();
        assert!(verified > 0, "cold scan verified no pages");
        assert_eq!(failed, 0, "pristine file reported checksum failures");
        let pct: f64 = rows[3][2].trim_end_matches('%').parse().unwrap();
        assert!(pct.is_finite() && pct >= 0.0);
        let _ = std::fs::remove_file("BENCH_scrub.json");
    }
}
