//! The SQL side allocates columns, not rows (`--features alloc-counters`;
//! without the feature this file is empty). Sibling of `alloc_ingest.rs`.
//!
//! While a partition was a `Vec<Row>`, the prep CTAS and the transform
//! allocated a `Vec<Value>` per probe key and per output row — an
//! allocation *count* proportional to the row count — and dropping the
//! result freed it row by row. Over column batches the count is a
//! function of columns × partitions (plus the doubling of a few
//! selection vectors), whatever the row count, and a drop frees one
//! vector per column.
#![cfg(feature = "alloc-counters")]

use sqlml_common::alloc::{alloc_calls, bytes_allocated};
use sqlml_core::workload::{Workload, WorkloadScale, PREP_QUERY};
use sqlml_sqlengine::{Engine, EngineConfig};
use sqlml_transform::{InSqlTransformer, TransformSpec};

/// (bytes allocated, allocation calls, free calls on drop, output rows)
/// of the prep CTAS + transform over `carts` carts.
fn measure(carts: usize) -> (u64, u64, u64, usize) {
    let engine = Engine::new(EngineConfig::with_workers(4));
    let w = Workload::generate(WorkloadScale::with_carts(carts), 42);
    engine.register_rows("carts", w.carts_schema, w.carts);
    engine.register_rows("users", w.users_schema, w.users);
    let transformer = InSqlTransformer::new(engine.clone());
    let spec = TransformSpec::new(&["gender"]);

    let (bytes, (allocs, _)) = (bytes_allocated(), alloc_calls());
    engine
        .execute(&format!("CREATE TABLE prep AS {PREP_QUERY}"))
        .unwrap();
    let out = transformer.transform("prep", &spec).unwrap();
    let (bytes, allocs) = (bytes_allocated() - bytes, alloc_calls().0 - allocs);

    let rows = out.table.num_rows();
    let (_, frees) = alloc_calls();
    engine.execute("DROP TABLE prep").unwrap();
    drop(out);
    (bytes, allocs, alloc_calls().1 - frees, rows)
}

/// One test function: the counters are process-wide, so nothing else may
/// allocate while a measurement runs.
#[test]
fn the_prep_ctas_and_transform_allocate_columns_not_rows() {
    let (_, small_allocs, _, small_rows) = measure(30_000);
    let (bytes, allocs, frees, rows) = measure(60_000);
    assert!(
        rows > 20_000 && rows > small_rows + 10_000,
        "{small_rows} → {rows} rows"
    );

    // The two results: prep is (age, gender, amount, abandoned) = two
    // 8-byte vectors and two 4-byte code vectors; the transformed table
    // shares age and amount and adds three 8-byte vectors.
    let output_bytes = (rows * (2 * 8 + 2 * 4 + 3 * 8)) as u64;
    // Measured 2.8×: the join's two id vectors and the recode pass's
    // per-row id vectors come on top of the columns themselves.
    assert!(
        bytes <= 4 * output_bytes,
        "CTAS + transform allocated {bytes} B for {output_bytes} B of output columns"
    );
    // Twice the rows, (nearly) the same number of allocations: a doubled
    // selection vector here and there, never one per row (measured
    // 1 392 → 1 396, of which the worker threads and the recode map's
    // SQL statements are the bulk).
    assert!(
        allocs <= small_allocs + 100 && allocs < 5_000,
        "{small_allocs} allocations at {small_rows} rows, {allocs} at {rows}"
    );
    // Measured 109.
    assert!(
        frees < 500,
        "dropping the prep and transformed tables took {frees} frees for {rows} rows"
    );
}
