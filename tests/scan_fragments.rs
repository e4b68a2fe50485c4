//! The fused local scan against its oracle: a [`ScanFragment`] evaluated
//! inside the partition workers must deliver the rows, the row order and
//! the merged `PhaseStats` of the legacy closure-taking scan followed by
//! consumer-side `filter_rows` / `project_rows` / `TopKAccumulator`,
//! for every storage format, byte source, pool width and batch size.

use pushdowndb::cache::SegmentKey;
use pushdowndb::common::mix::fnv1a;
use pushdowndb::common::perf::PhaseStats;
use pushdowndb::common::{DataType, Error, RetryPolicy, Row, Schema, Value};
use pushdowndb::core::ops;
use pushdowndb::core::planner::{execute_sql, Strategy};
use pushdowndb::core::scan::{
    cached_scan_streamed, plain_scan_streamed, scan, scan_rows, ScanFragment, ScanSource,
};
use pushdowndb::core::{upload_columnar_table, upload_csv_table, QueryContext, Table};
use pushdowndb::format::columnar::{encode_columnar, ColumnarReader, WriterOptions};
use pushdowndb::format::compress::compress;
use pushdowndb::format::csv::encode_csv;
use pushdowndb::s3::{FaultPlan, S3Store};
use pushdowndb::sql::bind::{Binder, BoundExpr};
use pushdowndb::sql::eval::eval;
use pushdowndb::sql::parse_expr;
use pushdowndb::tpch::TpchGen;
use std::sync::OnceLock;

const ROWS: usize = 420;
const ROWS_PER_PARTITION: usize = 64;
const CHUNK: u64 = 512;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", DataType::Int),
        ("v", DataType::Float),
        ("s", DataType::Str),
        ("d", DataType::Date),
        ("n", DataType::Int),
    ])
}

/// `s` repeats five values (dictionary-coded in ColumnarLite), `n` is a
/// NULL-bearing key with many duplicates (top-K ties), `v` wanders.
fn rows() -> Vec<Row> {
    (0..ROWS as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Float(((i * 37) % 101) as f64 - 12.5),
                Value::Str(format!("name-{}", i % 5)),
                Value::Date(9000 + (i % 60) as i32),
                if i % 11 == 4 {
                    Value::Null
                } else {
                    Value::Int((i * 7) % 13)
                },
            ])
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Csv,
    Columnar,
}

/// Where the bytes come from, and the cache state the scan starts in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Plain,
    CachedCold,
    CachedWarm,
    /// Warm, every byte in the disk tier (no memory budget).
    CachedWarmDisk,
    /// Every other chunk of every partition resident.
    PartialHit,
}

const SOURCES: [Source; 5] = [
    Source::Plain,
    Source::CachedCold,
    Source::CachedWarm,
    Source::CachedWarmDisk,
    Source::PartialHit,
];

/// The table and its encoded partitions, written once per format: every
/// run copies the objects into a store of its own.
fn encoded(format: Format) -> &'static (Table, Vec<(String, bytes::Bytes)>) {
    static CSV: OnceLock<(Table, Vec<(String, bytes::Bytes)>)> = OnceLock::new();
    static COLUMNAR: OnceLock<(Table, Vec<(String, bytes::Bytes)>)> = OnceLock::new();
    let build = || {
        let store = S3Store::new();
        let table = match format {
            Format::Csv => {
                upload_csv_table(&store, "b", "t", &schema(), &rows(), ROWS_PER_PARTITION)
            }
            Format::Columnar => upload_columnar_table(
                &store,
                "b",
                "t",
                &schema(),
                &rows(),
                ROWS_PER_PARTITION,
                WriterOptions {
                    rows_per_group: 32,
                    compress: true,
                },
            ),
        }
        .unwrap();
        let objects = table
            .partitions(&store)
            .into_iter()
            .map(|key| {
                let data = store.raw_object("b", &key).unwrap();
                (key, data)
            })
            .collect();
        (table, objects)
    };
    match format {
        Format::Csv => CSV.get_or_init(build),
        Format::Columnar => COLUMNAR.get_or_init(build),
    }
}

/// A fresh store holding the table, its cache in the state `source`
/// names. Every run builds its own, so cold and partial scans — which
/// fill the cache — never see each other.
fn setup(format: Format, source: Source) -> (QueryContext, Table) {
    let (table, objects) = encoded(format);
    let table = table.clone();
    let store = S3Store::new();
    for (key, data) in objects {
        store.put_object("b", key, data.clone());
    }
    let ctx = QueryContext::new(store.clone()).with_cache_chunk_bytes(CHUNK);
    let ctx = match source {
        Source::Plain => return (ctx, table),
        Source::CachedWarmDisk => ctx.with_cache_tiers(0, 1 << 24),
        _ => ctx.with_cache(1 << 24),
    };
    match source {
        Source::CachedWarm | Source::CachedWarmDisk => {
            cached_scan_streamed(&ctx.scoped(), &table, |_| Ok(())).unwrap();
        }
        Source::PartialHit => {
            let cache = ctx.cache().unwrap();
            for key in table.partitions(&store) {
                let data = store.raw_object("b", &key).unwrap();
                let len = data.len() as u64;
                // The layout the catalog gives the scan: fixed blocks for
                // CSV, column-chunk extents for ColumnarLite.
                let chunks: Vec<(u64, u64)> = match format {
                    Format::Csv => (0..len)
                        .step_by(CHUNK as usize)
                        .map(|f| (f, (f + CHUNK).min(len)))
                        .collect(),
                    Format::Columnar => ColumnarReader::open(data.clone()).unwrap().chunk_extents(),
                };
                assert!(chunks.len() >= 3, "need gaps and hits in {key}");
                let epoch = cache.begin_fill(&SegmentKey::whole("b", &key));
                for &(first, last) in chunks.iter().step_by(2) {
                    cache.insert(
                        SegmentKey::chunk("b", &key, (first, last)),
                        data.slice(first as usize..last as usize),
                        epoch,
                    );
                }
            }
        }
        _ => {}
    }
    (ctx, table)
}

fn scan_source(source: Source) -> ScanSource {
    if source == Source::Plain {
        ScanSource::Plain
    } else {
        ScanSource::Cached
    }
}

fn bind(src: &str) -> BoundExpr {
    Binder::new(&schema())
        .bind_expr(&parse_expr(src).unwrap())
        .unwrap()
}

/// One fragment shape under test, with the consumer-side pipeline it
/// must be indistinguishable from.
struct Case {
    name: &'static str,
    predicate: Option<&'static str>,
    /// Output expressions (`None` = whole rows).
    outputs: Option<Vec<&'static str>>,
    /// `(order column in the output, k, ascending)`.
    top_k: Option<(usize, usize, bool)>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "identity",
            predicate: None,
            outputs: None,
            top_k: None,
        },
        // Vectorizable predicate, plain-column projection (pruned decode).
        Case {
            name: "filter+project",
            predicate: Some("v < 40.0 AND n IS NOT NULL AND d >= 9010"),
            outputs: Some(vec!["s", "k"]),
            top_k: None,
        },
        // A predicate that cannot vectorize (row fallback), whole rows.
        Case {
            name: "fallback filter",
            predicate: Some("k % 3 = 0 AND s LIKE 'name-%'"),
            outputs: None,
            top_k: None,
        },
        // Computed outputs, the shape of aggregate arguments.
        Case {
            name: "computed outputs",
            predicate: Some("n > 2"),
            outputs: Some(vec!["v * 2 + k", "n", "v"]),
            top_k: None,
        },
        // No predicate, no referenced column at all (`COUNT(*)`).
        Case {
            name: "empty outputs",
            predicate: None,
            outputs: Some(vec![]),
            top_k: None,
        },
        // Duplicate-heavy, NULL-bearing sort key: ties everywhere.
        Case {
            name: "top-k asc",
            predicate: None,
            outputs: None,
            top_k: Some((4, 17, true)),
        },
        Case {
            name: "top-k desc filtered",
            predicate: Some("v > 0"),
            outputs: None,
            top_k: Some((4, 40, false)),
        },
        Case {
            name: "top-k zero",
            predicate: None,
            outputs: None,
            top_k: Some((1, 0, true)),
        },
    ]
}

impl Case {
    fn fragment(&self, table: &Table) -> ScanFragment {
        let outputs = self
            .outputs
            .as_ref()
            .map(|exprs| exprs.iter().map(|e| bind(e)).collect());
        let fragment = ScanFragment::new(table, self.predicate.map(bind), outputs);
        match self.top_k {
            Some((col, k, asc)) => fragment.top_k(&[(col, asc)], k),
            None => fragment,
        }
    }
}

/// What one execution yields: rows in delivery order (top-K: the final
/// ordered answer), scan stats, operator stats, and the scope's bill.
#[derive(Debug, PartialEq)]
struct Outcome {
    rows: Vec<Row>,
    scan: PhaseStats,
    ops: PhaseStats,
    billed: pushdowndb::common::pricing::Usage,
}

/// The table columns a case references, ascending: every column for
/// whole rows.
fn referenced(case: &Case) -> Vec<usize> {
    let Some(outputs) = &case.outputs else {
        return (0..schema().len()).collect();
    };
    let mut names = Vec::new();
    for src in case.predicate.iter().chain(outputs) {
        parse_expr(src).unwrap().referenced_columns(&mut names);
    }
    let mut cols: Vec<usize> = names.iter().map(|n| schema().resolve(n).unwrap()).collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// The oracle: the legacy shim streams every row — for a case that
/// projects, a scan of the columns it references and nothing else (no
/// predicate, no expressions: what a warm ColumnarLite cache serves then
/// is their chunks and the footer) — and the consumer filters, projects
/// and heaps them.
fn oracle(case: &Case, format: Format, source: Source) -> Outcome {
    let (ctx, table) = setup(format, source);
    let ctx = ctx.scoped();
    let columns = referenced(case);
    let read = schema().project(&columns);
    let bind_read = |src: &&str| {
        Binder::new(&read)
            .bind_expr(&parse_expr(src).unwrap())
            .unwrap()
    };
    let pred = case.predicate.as_ref().map(bind_read);
    let outputs: Option<Vec<BoundExpr>> = case
        .outputs
        .as_ref()
        .map(|exprs| exprs.iter().map(bind_read).collect());
    let mut ops_stats = PhaseStats::default();
    let mut rows = Vec::new();
    let mut heap = case
        .top_k
        .map(|(col, k, asc)| ops::TopKAccumulator::new(&[(col, asc)], k));
    let consume = |batch: pushdowndb::common::row::RowBatch| {
        let mut kept = match &pred {
            Some(p) => ops::filter_rows(batch.rows, p, &mut ops_stats)?,
            None => batch.rows,
        };
        if let Some(exprs) = &outputs {
            kept = kept
                .iter()
                .map(|r| {
                    exprs
                        .iter()
                        .map(|e| eval(e, r))
                        .collect::<Result<Vec<_>, Error>>()
                        .map(Row::new)
                })
                .collect::<Result<_, Error>>()?;
        }
        match &mut heap {
            Some(heap) => heap.push_batch(&kept, &mut ops_stats),
            None => rows.extend(kept),
        }
        Ok(())
    };
    let summary = match (source, &case.outputs) {
        (_, Some(_)) => {
            let fragment = ScanFragment::columns(&table, None, &columns);
            scan(&ctx, &table, scan_source(source), &fragment, consume)
        }
        (Source::Plain, None) => plain_scan_streamed(&ctx, &table, consume),
        (_, None) => cached_scan_streamed(&ctx, &table, consume),
    }
    .unwrap();
    if let Some(heap) = heap {
        rows = heap.finish(&mut ops_stats);
    }
    Outcome {
        rows,
        scan: summary.stats,
        ops: ops_stats,
        billed: ctx.billed(),
    }
}

/// The fused scan: the same pipeline as a worker-side fragment.
fn fused(
    case: &Case,
    format: Format,
    source: Source,
    threads: usize,
    batch_rows: usize,
) -> Outcome {
    let (ctx, table) = setup(format, source);
    let mut ctx = ctx.scoped();
    ctx.scan_threads = threads;
    ctx.batch_rows = batch_rows;
    let fragment = case.fragment(&table);
    let mut rows = Vec::new();
    let mut heap = case
        .top_k
        .map(|(col, k, asc)| ops::TopKAccumulator::new(&[(col, asc)], k));
    let summary = scan(&ctx, &table, scan_source(source), &fragment, |batch| {
        assert!(!batch.is_empty(), "empty batches never cross the queue");
        assert!(batch.len() <= batch_rows);
        assert_eq!(&batch.schema, fragment.schema());
        match &mut heap {
            // Candidates were charged by the workers.
            Some(heap) => heap.absorb(batch.rows),
            None => rows.extend(batch.rows),
        }
        Ok(())
    })
    .unwrap();
    let mut ops_stats = summary.op_stats;
    ops_stats.merge(&summary.reduce_stats);
    if let Some(heap) = heap {
        rows = heap.finish(&mut ops_stats);
    }
    Outcome {
        rows,
        scan: summary.stats,
        ops: ops_stats,
        billed: ctx.billed(),
    }
}

/// Every case × source × pool width × batch size for one storage format.
fn check_fragments_match_oracle(format: Format) {
    for source in SOURCES {
        for case in cases() {
            // The oracle is invariant to pool width and batch size (the
            // scan module's own tests pin that).
            let want = oracle(&case, format, source);
            if case.name == "identity" {
                assert_eq!(want.rows, rows());
            }
            for threads in [1, 2, 8] {
                for batch_rows in [1, 7, 1024] {
                    let got = fused(&case, format, source, threads, batch_rows);
                    assert_eq!(
                        got, want,
                        "{} on {format:?} from {source:?}, {threads} threads, \
                         batches of {batch_rows}",
                        case.name
                    );
                }
            }
        }
    }
}

#[test]
fn csv_fragment_scans_match_the_legacy_shim_and_consumer_side_operators() {
    check_fragments_match_oracle(Format::Csv);
}

#[test]
fn columnar_fragment_scans_match_the_legacy_shim_and_consumer_side_operators() {
    check_fragments_match_oracle(Format::Columnar);
}

/// The bytes of the footer segments and of the chunks of columns `cols`
/// in every ColumnarLite partition: what a warm cached scan decoding
/// those columns is served.
fn footer_and_chunk_bytes(cols: &[usize]) -> u64 {
    let (_, objects) = encoded(Format::Columnar);
    objects
        .iter()
        .map(|(_, data)| {
            let reader = ColumnarReader::open(data.clone()).unwrap();
            let ranges = reader.extents_of(cols);
            ranges.iter().map(|(first, last)| last - first).sum::<u64>()
        })
        .sum()
}

/// A pruned ColumnarLite scan decodes three columns of five. A GET, and
/// a cold cache's fill, meter and bill every byte and request of the
/// whole object all the same; a warm cache serves the footer and the
/// chunks of those three columns only, and a partial hit fetches what it
/// misses of them in no more requests than the unpruned scan.
#[test]
fn pruned_columnar_scan_meters_and_bills_like_the_unpruned_one() {
    for source in SOURCES {
        let run = |pruned: bool| {
            let (ctx, table) = setup(Format::Columnar, source);
            let ctx = ctx.scoped();
            let pred = Some(bind("d >= 9030"));
            let fragment = if pruned {
                ScanFragment::columns(&table, pred, &[2, 0])
            } else {
                ScanFragment::new(&table, pred, None)
            };
            let (rows, summary) = scan_rows(&ctx, &table, scan_source(source), &fragment).unwrap();
            (rows, summary, ctx.billed())
        };
        let (narrow, pruned, pruned_bill) = run(true);
        let (wide, unpruned, unpruned_bill) = run(false);
        assert_eq!(pruned.op_stats, unpruned.op_stats, "{source:?}");
        assert_eq!(
            (pruned.hit_parts, pruned.fill_parts),
            (unpruned.hit_parts, unpruned.fill_parts)
        );
        assert_eq!(
            pruned.stats.server_cpu_units, unpruned.stats.server_cpu_units,
            "{source:?}: every decoded row counts"
        );
        assert!(pruned.stats.cl_parse_bytes > 0);
        let projected: Vec<Row> = wide.iter().map(|r| r.project(&[2, 0])).collect();
        assert_eq!(narrow, projected);
        let served = |s: &PhaseStats| s.cache_bytes + s.disk_bytes + s.plain_bytes;
        // The bytes a read hands the decoder are the bytes it moved.
        assert_eq!(served(&pruned.stats), pruned.stats.cl_parse_bytes);
        let needed = footer_and_chunk_bytes(&[0, 2, 3]);
        match source {
            Source::Plain | Source::CachedCold => {
                assert_eq!(pruned.stats, unpruned.stats, "{source:?}");
                assert_eq!(pruned_bill, unpruned_bill, "{source:?}");
                assert_eq!(pruned.stats.plain_bytes, pruned.stats.cl_parse_bytes);
                assert_eq!(pruned.stats.cache_bytes + pruned.stats.disk_bytes, 0);
            }
            Source::CachedWarm | Source::CachedWarmDisk => {
                let tier = match source {
                    Source::CachedWarm => pruned.stats.cache_bytes,
                    _ => pruned.stats.disk_bytes,
                };
                assert_eq!(
                    tier, needed,
                    "{source:?}: the footer and three columns' chunks"
                );
                assert_eq!(served(&pruned.stats), needed, "{source:?}");
                assert!(needed < served(&unpruned.stats), "{source:?}");
                assert_eq!(pruned.stats.requests + pruned_bill.requests, 0);
            }
            Source::PartialHit => {
                assert!(pruned.stats.plain_bytes > 0 && pruned.stats.cache_bytes > 0);
                assert!(pruned.stats.requests <= unpruned.stats.requests);
                assert_eq!(pruned.stats.requests, pruned_bill.requests);
                assert_eq!(unpruned.stats.requests, unpruned_bill.requests);
            }
        }
    }
}

#[test]
fn consumer_and_worker_errors_cancel_the_scan_cleanly() {
    for format in [Format::Csv, Format::Columnar] {
        for source in [Source::Plain, Source::CachedCold] {
            for threads in [1, 2, 8] {
                let (ctx, table) = setup(format, source);
                let mut ctx = ctx.scoped();
                ctx.scan_threads = threads;
                ctx.batch_rows = 16;

                // The consumer gives up on its third batch.
                let mut batches = 0;
                let identity = ScanFragment::new(&table, None, None);
                let err = scan(&ctx, &table, scan_source(source), &identity, |_| {
                    batches += 1;
                    if batches == 3 {
                        Err(Error::Other("stop".into()))
                    } else {
                        Ok(())
                    }
                })
                .unwrap_err();
                assert_eq!(err.to_string(), Error::Other("stop".into()).to_string());
                assert_eq!(batches, 3);

                // The predicate divides by zero at k = 333, in the sixth
                // partition: the scan returns that error — no panic, no
                // hang — and delivers nothing past the failing row.
                for (what, fragment) in [
                    (
                        "predicate",
                        ScanFragment::new(&table, Some(bind("1000 / (k - 333) > 0")), None),
                    ),
                    (
                        "output",
                        ScanFragment::new(&table, None, Some(vec![bind("1000 / (k - 333)")])),
                    ),
                ] {
                    let mut delivered = 0usize;
                    let err = scan(&ctx, &table, scan_source(source), &fragment, |batch| {
                        delivered += batch.len();
                        Ok(())
                    })
                    .unwrap_err();
                    assert_eq!(err.code(), "EvalError", "{what}: {err}");
                    assert!(err.to_string().contains("division by zero"), "{what}");
                    assert!(delivered <= 333, "{what}: {delivered}");
                }

                // The context is still usable afterwards.
                let (all, _) = scan_rows(&ctx, &table, scan_source(source), &identity).unwrap();
                assert_eq!(all, rows());
            }
        }
    }
}

/// The accumulator edge cases the columnar aggregate kernels pin
/// (`ops.rs` unit tests), through the engine's own aggregate and
/// group-by plans: a ColumnarLite table and a CSV table decoded into
/// column vectors answer — or fail — exactly like the row fold over the
/// same rows (`ops::GroupByAccumulator`), and charge the same CPU.
#[test]
fn aggregates_over_columnar_lite_match_the_row_fold_on_edge_values() {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Str),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("d", DataType::Date),
    ]);
    // `i` overflows a SUM only when its last row is included; `f` holds
    // NaNs (MIN/MAX compare partially, so order matters) and NULLs.
    let rows: Vec<Row> = (0..200i64)
        .map(|n| {
            Row::new(vec![
                Value::Str(format!("g{}", n % 3)),
                Value::Int(if n == 199 { i64::MAX } else { n - 50 }),
                match n % 7 {
                    0 => Value::Float(f64::NAN),
                    3 => Value::Null,
                    _ => Value::Float((n * 13 % 29) as f64 - 7.25),
                },
                Value::Date(9000 + (n % 40) as i32),
            ])
        })
        .collect();
    use pushdowndb::sql::agg::AggFunc::{Avg, Count, Max, Min, Sum};
    // Each statement, with its predicate, grouping columns and
    // aggregates for the row fold.
    let shapes = [
        (
            "SELECT SUM(i), COUNT(i), AVG(i) FROM t WHERE i < 1000",
            Some("i < 1000"),
            vec![],
            vec![(Sum, Some(1)), (Count, Some(1)), (Avg, Some(1))],
        ),
        ("SELECT SUM(i) FROM t", None, vec![], vec![(Sum, Some(1))]),
        (
            "SELECT MIN(f), MAX(f), SUM(f), COUNT(f), AVG(f), COUNT(*) FROM t",
            None,
            vec![],
            vec![
                (Min, Some(2)),
                (Max, Some(2)),
                (Sum, Some(2)),
                (Count, Some(2)),
                (Avg, Some(2)),
                (Count, None),
            ],
        ),
        (
            "SELECT SUM(d), AVG(d), MIN(d), MAX(d), MIN(g), MAX(g) FROM t WHERE f > 0.0",
            Some("f > 0.0"),
            vec![],
            vec![
                (Sum, Some(3)),
                (Avg, Some(3)),
                (Min, Some(3)),
                (Max, Some(3)),
                (Min, Some(0)),
                (Max, Some(0)),
            ],
        ),
        (
            "SELECT g, SUM(d), MIN(f), MAX(f), AVG(i) FROM t WHERE i < 1000 GROUP BY g",
            Some("i < 1000"),
            vec![0],
            vec![
                (Sum, Some(3)),
                (Min, Some(2)),
                (Max, Some(2)),
                (Avg, Some(1)),
            ],
        ),
        (
            "SELECT g, SUM(i) FROM t GROUP BY g",
            None,
            vec![0],
            vec![(Sum, Some(1))],
        ),
    ];
    let fold = |pred: Option<&str>, group: &[usize], aggs: &[_]| {
        let stats = &mut PhaseStats::default();
        let kept = match pred {
            Some(p) => {
                let p = Binder::new(&schema).bind_expr(&parse_expr(p).unwrap());
                ops::filter_rows(rows.clone(), &p.unwrap(), stats).map_err(|e| e.to_string())?
            }
            None => rows.clone(),
        };
        let mut acc = ops::GroupByAccumulator::new(group.to_vec(), aggs.to_vec());
        acc.update_batch(&kept, stats).map_err(|e| e.to_string())?;
        Ok::<_, String>(format!("{:?}", acc.finish(stats)))
    };
    let run = |columnar: bool, sql: &str| {
        let store = S3Store::new();
        let table = if columnar {
            let opts = WriterOptions {
                rows_per_group: 16,
                compress: true,
            };
            upload_columnar_table(&store, "b", "t", &schema, &rows, 48, opts)
        } else {
            upload_csv_table(&store, "b", "t", &schema, &rows, 48)
        }
        .unwrap();
        let mut ctx = QueryContext::new(store);
        ctx.scan_threads = 4;
        ctx.batch_rows = 10;
        // NaN != NaN, so rows compare as text.
        execute_sql(&ctx, &table, sql, Strategy::Baseline)
            .map(|out| {
                let phases = out.metrics.groups.iter().flat_map(|g| &g.phases);
                let cpu: u64 = phases.map(|p| p.stats.server_cpu_units).sum();
                (format!("{:?}", out.rows), cpu)
            })
            .map_err(|e| e.to_string())
    };
    for (sql, pred, group, aggs) in shapes {
        let folded = fold(pred, &group, &aggs);
        let overflows = sql.ends_with("SUM(i) FROM t") || sql.ends_with("SUM(i) FROM t GROUP BY g");
        assert_eq!(folded.is_err(), overflows, "{sql}: {folded:?}");
        if let Err(e) = &folded {
            assert!(e.contains("integer overflow in SUM"), "{e}");
        }
        let csv = run(false, sql);
        let answer = csv.clone().map(|(rows, _)| rows);
        assert_eq!(answer, folded, "{sql}, CSV into column vectors");
        assert_eq!(run(true, sql), csv, "{sql}, ColumnarLite");
    }
}

/// Retried GETs under an injected fault plan bill extra requests; the
/// fused operators' metrics must keep agreeing with the ledger.
#[test]
fn usage_equals_billed_under_injected_faults() {
    let shapes = [
        "SELECT s, k FROM t WHERE v < 40.0",
        "SELECT SUM(v), COUNT(*), MIN(n) FROM t WHERE d >= 9010",
        "SELECT s, SUM(v), COUNT(*) FROM t WHERE n > 2 GROUP BY s",
        "SELECT * FROM t ORDER BY n DESC LIMIT 25",
    ];
    for format in [Format::Csv, Format::Columnar] {
        for source in [Source::Plain, Source::CachedCold, Source::PartialHit] {
            for (i, sql) in shapes.iter().enumerate() {
                let (clean_ctx, table) = setup(format, source);
                let clean = execute_sql(
                    &clean_ctx.with_cache_reads(source != Source::Plain),
                    &table,
                    sql,
                    Strategy::Baseline,
                )
                .unwrap();

                let (mut ctx, table) = setup(format, source);
                ctx.store
                    .set_fault_plan(Some(FaultPlan::new(17 + i as u64, 0.35)));
                ctx.retry = RetryPolicy::with_attempts(24);
                let ctx = ctx.with_cache_reads(source != Source::Plain);
                let out = execute_sql(&ctx, &table, sql, Strategy::Baseline).unwrap();
                assert_eq!(out.rows, clean.rows, "{sql} on {format:?} from {source:?}");
                assert_eq!(out.metrics.usage(), out.billed, "{sql}");
                assert!(
                    out.billed.requests > clean.billed.requests,
                    "{sql} on {format:?} from {source:?}: the fault plan must have fired"
                );
                assert_eq!(out.billed.plain_bytes, clean.billed.plain_bytes);
            }
        }
    }
}

/// `format::compress` output is part of the dataset: these digests were
/// taken at the commit before the kernels were rewritten (PR 16) and
/// must never move — a changed byte here is a changed `dataset_digest`
/// in every benchmark file.
#[test]
fn compressed_tpch_partition_bytes_are_pinned() {
    let gen = TpchGen::new(0.001);
    let orders = gen.orders();
    let (schema, lineitem) = gen.lineitems(&orders.1);
    let part = &lineitem[..1500];
    let digest = |bytes: &[u8]| fnv1a(bytes.iter().copied());
    for (rows_per_group, len, want) in [
        (4096, 79_975, 0xa121_d164_1047_80c8u64),
        (400, 88_253, 0xa027_9600_1ecd_3d83),
    ] {
        let file = encode_columnar(
            &schema,
            part,
            WriterOptions {
                rows_per_group,
                compress: true,
            },
        );
        assert_eq!(file.len(), len);
        assert_eq!(digest(&file), want, "{rows_per_group} rows per group");
    }
    let csv = encode_csv(&schema, part);
    assert_eq!(csv.len(), 170_417);
    let z = compress(&csv);
    assert_eq!(z.len(), 80_012);
    assert_eq!(digest(&z), 0x4461_0325_d0ac_f1d3);
}
