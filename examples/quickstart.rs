//! Quickstart: stand up the simulated S3 + S3 Select substrate, load a
//! table, run the same filter query three ways — exactly the §IV
//! experiment of the paper, in miniature — then let the cost-based
//! optimizer (`Strategy::Adaptive`, beyond the paper) pick the plan
//! itself and explain its decision.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pushdown_bench::run_candidate;
use pushdowndb::common::{fmtutil, DataType, Row, Schema, Value};
use pushdowndb::core::algos::filter::{self, FilterQuery, RowFetch};
use pushdowndb::core::planner::execute_sql_verbose;
use pushdowndb::core::{build_index, upload_csv_table, QueryContext, Strategy};
use pushdowndb::s3::S3Store;
use pushdowndb::select::InputFormat;
use pushdowndb::sql::parse_expr;

fn main() -> pushdowndb::common::Result<()> {
    // 1. A simulated S3 with a partitioned CSV table.
    let store = S3Store::new();
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("city", DataType::Str),
        ("balance", DataType::Float),
    ]);
    let rows: Vec<Row> = (0..10_000)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Str(["tokyo", "zurich", "boston", "madrid"][(i % 4) as usize].into()),
                Value::Float((i as f64 * 7.7) % 2000.0 - 1000.0),
            ])
        })
        .collect();
    let ctx = QueryContext::new(store);
    let table = upload_csv_table(&ctx.store, "demo", "accounts", &schema, &rows, 2_500)?;

    // 2. Talk to S3 Select directly, like a client would.
    let resp = ctx.engine.select(
        "demo",
        "accounts/part-00000.csv",
        "SELECT COUNT(*), AVG(balance), MIN(balance) FROM S3Object WHERE balance < 0",
        &schema,
        InputFormat::Csv,
    )?;
    println!("S3 Select says: {:?}", resp.rows()?[0]);
    println!(
        "  (scanned {}, returned {})",
        fmtutil::bytes(resp.stats.bytes_scanned),
        fmtutil::bytes(resp.stats.bytes_returned)
    );

    // 3. Run a filter query under each strategy of paper §IV and compare
    //    modeled runtime + dollar cost: the planner's `server-side` and
    //    `s3-side` candidates by name, and the §IV-A index.
    let sql = "SELECT id, balance FROM accounts WHERE id < 40";
    let q = FilterQuery {
        table: table.clone(),
        predicate: parse_expr("id < 40")?,
        projection: Some(vec!["id".into(), "balance".into()]),
    };
    let index = build_index(&ctx, &table, "id")?;

    println!("\nfilter `id < 40` ({} matching rows):", 40);
    for (name, out) in [
        (
            "server-side",
            run_candidate(&ctx, &table, sql, "server-side", None)?,
        ),
        (
            "s3-side    ",
            run_candidate(&ctx, &table, sql, "s3-side", None)?,
        ),
        (
            "indexed    ",
            filter::indexed(&ctx, &index, &q, RowFetch::PerRow)?,
        ),
    ] {
        println!(
            "  {name}: {} rows, modeled runtime {}, cost {}",
            out.rows.len(),
            fmtutil::secs(out.runtime(&ctx)),
            fmtutil::dollars(out.cost(&ctx).total()),
        );
    }

    // 4. Or let the cost-based optimizer choose. The loader gathered
    //    column statistics (min/max/NDV/null fraction/width) for free at
    //    upload time; `Strategy::Adaptive` predicts every candidate's
    //    footprint from them — priced by the same models that score the
    //    measurement — and executes the argmin. The EXPLAIN surface
    //    shows every candidate and predicted-vs-actual per phase.
    let sql = "SELECT id, balance FROM accounts WHERE balance < -990";
    let (out, explain) = execute_sql_verbose(&ctx, &table, sql, Strategy::Adaptive)?;
    println!("\nadaptive: {sql}\n{}", explain.report(&out, &ctx));
    Ok(())
}
