//! Training prepares the ingested matrix where it lies (`--features
//! alloc-counters`; without the feature this file is empty). Sibling of
//! `alloc_ingest.rs`.
//!
//! An N×5 numeric table is N·5·8 bytes as a matrix. While the binary
//! classifiers relabelled into a new label vector and standardized into
//! a new feature block, training an SVM on a freshly ingested 60 000-row
//! dataset allocated 1.0× the matrix (2 413 728 B). Handed the dataset,
//! the runner overwrites both in place: what is left (13 392 B) is a few
//! vectors of `dim` floats per round and the round crew's threads.
#![cfg(feature = "alloc-counters")]

use sqlml_common::alloc::bytes_allocated;
use sqlml_common::{Row, SplitMix64, Value};
use sqlml_mlengine::job::{JobConfig, JobRunner, TrainingSpec};
use sqlml_mlengine::MemoryInputFormat;

const ROWS: usize = 60_000;
const WORKERS: usize = 3;
const MATRIX_BYTES: u64 = (ROWS * 5 * 8) as u64;

/// Transformed-carts-shaped rows: age, two indicators, amount, and a
/// label recoded to 1/2, so training maps every label.
fn format() -> MemoryInputFormat {
    let mut rng = SplitMix64::new(0x7A1E);
    let rows: Vec<Row> = (0..ROWS)
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
    MemoryInputFormat::new(rows.chunks(ROWS / WORKERS).map(<[Row]>::to_vec).collect())
}

/// One test function: the counters are process-wide, so nothing else may
/// allocate while a measurement runs.
#[test]
fn training_an_owned_dataset_allocates_a_small_fraction_of_the_matrix() {
    let format = format();
    let runner = JobRunner::new(JobConfig {
        num_workers: WORKERS,
        worker_nodes: (0..WORKERS).map(sqlml_dfs::node_name).collect(),
    });
    let spec = TrainingSpec::parse("svm label=4 iterations=10").unwrap();

    let (dataset, _) = runner.ingest_dataset(&format, Some(4)).unwrap();
    assert_eq!((dataset.num_points(), dataset.dim()), (ROWS, 4));
    let before = bytes_allocated();
    runner.train_owned(dataset, &spec).unwrap();
    let owned = bytes_allocated() - before;
    assert!(
        4 * owned < MATRIX_BYTES,
        "training an owned dataset allocated {owned} B for a {MATRIX_BYTES} B matrix"
    );

    // A dataset the caller keeps is copied before it is written: the
    // price of leaving it as it was.
    let (dataset, _) = runner.ingest_dataset(&format, Some(4)).unwrap();
    let before = bytes_allocated();
    runner.train(&dataset, &spec).unwrap();
    let borrowed = bytes_allocated() - before;
    assert!(
        borrowed >= MATRIX_BYTES,
        "training a borrowed dataset allocated {borrowed} B, less than its {MATRIX_BYTES} B"
    );
}
