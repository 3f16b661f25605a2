//! Ingestion allocates the matrix, not the rows (`--features
//! alloc-counters`; without the feature this file is empty).
//!
//! An N×5 numeric table is N·5·8 bytes as a matrix. While a partition
//! was a `Vec<LabeledPoint>` built from a `Vec<Row>`, ingesting it
//! allocated a `Vec<Value>`, a `Vec<f64>` and a feature `Vec<f64>` per
//! row: 9.6× the matrix from memory and 11.8× over a loopback stream at
//! commit `4aaef92`. Decoded straight into per-worker blocks it is the
//! blocks' own doubling growth — 3.3× from memory. On the stream the
//! blocks grow a frame at a time and the sender's frames are 12 of the
//! matrix's 40 bytes a row, queued in memory and never read back from a
//! spill file: 2.7×.
#![cfg(feature = "alloc-counters")]

use sqlml_common::alloc::bytes_allocated;
use sqlml_common::codec::NumericFrame;
use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{Row, SplitMix64, Value};
use sqlml_mlengine::job::{JobConfig, JobRunner};
use sqlml_mlengine::MemoryInputFormat;
use sqlml_sqlengine::{Engine, EngineConfig};
use sqlml_transfer::{StreamSession, StreamSessionConfig};

const ROWS: usize = 60_000;
const WORKERS: usize = 3;
const MATRIX_BYTES: u64 = (ROWS * 5 * 8) as u64;

/// Transformed-carts-shaped rows: age, two indicators, amount, label.
fn table() -> (Schema, Vec<Row>) {
    let schema = Schema::new(vec![
        Field::new("age", DataType::Int),
        Field::new("gender_f", DataType::Int),
        Field::new("gender_m", DataType::Int),
        Field::new("amount", DataType::Double),
        Field::new("abandoned", DataType::Int),
    ]);
    let mut rng = SplitMix64::new(0xA110C);
    let rows = (0..ROWS)
        .map(|_| {
            let female = rng.chance(0.5);
            Row::new(vec![
                Value::Int(rng.range_i64(18, 80)),
                Value::Int(i64::from(female)),
                Value::Int(i64::from(!female)),
                Value::Double(rng.next_f64() * 500.0),
                Value::Int(rng.range_i64(1, 2)),
            ])
        })
        .collect();
    (schema, rows)
}

fn job_config() -> JobConfig {
    JobConfig {
        num_workers: WORKERS,
        worker_nodes: (0..WORKERS).map(sqlml_dfs::node_name).collect(),
    }
}

/// One test function: the counters are process-wide, so nothing else may
/// allocate while a measurement runs.
#[test]
fn ingestion_allocates_a_small_multiple_of_the_matrix() {
    let (schema, rows) = table();

    let partitions: Vec<Vec<Row>> = rows.chunks(ROWS / WORKERS).map(<[Row]>::to_vec).collect();
    let format = MemoryInputFormat::new(partitions);
    let runner = JobRunner::new(job_config());
    let before = bytes_allocated();
    let (dataset, report) = runner.ingest_dataset(&format, Some(4)).unwrap();
    let from_memory = bytes_allocated() - before;
    assert_eq!((report.rows, dataset.dim()), (ROWS, 4));
    assert!(
        from_memory <= 5 * MATRIX_BYTES,
        "memory ingest allocated {from_memory} B for a {MATRIX_BYTES} B matrix"
    );
    drop((dataset, format));

    // The loopback stream: SQL workers encode and send, ML workers decode
    // into their blocks, then a one-pass naive Bayes (which allocates a
    // few vectors of `dim` floats) so the session has a job to finish.
    let engine = Engine::new(EngineConfig {
        num_workers: WORKERS,
        nodes: (0..WORKERS).map(sqlml_dfs::node_name).collect(),
    });
    engine.register_rows("handoff", schema, rows);
    let session = StreamSession::start().unwrap();
    let config = StreamSessionConfig {
        ml_job: job_config(),
        spill_dir: std::env::temp_dir().join("sqlml-alloc-ingest"),
        ..Default::default()
    };
    session.install_udf(&engine, &config, None);
    let before = bytes_allocated();
    let outcome = session
        .run(&engine, "handoff", "nb label=4", &config)
        .unwrap();
    let over_the_stream = bytes_allocated() - before;
    assert_eq!(outcome.stats.rows_ingested, ROWS);
    assert!(
        2 * over_the_stream <= 7 * MATRIX_BYTES,
        "stream ingest allocated {over_the_stream} B for a {MATRIX_BYTES} B matrix"
    );

    // A corrupt frame header cannot size an allocation: counts claiming
    // 4 G rows × 4 G columns are refused for the few bytes they came in.
    let mut corrupt = vec![0xFF; 8];
    corrupt.extend([0x08; 64]);
    let before = bytes_allocated();
    for cut in 0..=corrupt.len() {
        assert!(NumericFrame::parse(&corrupt[..cut]).is_err());
    }
    let for_nothing = bytes_allocated() - before;
    assert!(
        for_nothing <= 64 * 1024,
        "{for_nothing} B allocated parsing 72 corrupt bytes"
    );
}
