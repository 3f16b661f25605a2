//! Loading the warehouse allocates per column and per DFS block, not per
//! row (`--features alloc-counters`; without the feature this file is
//! empty). Sibling of `alloc_sql.rs` and `alloc_ingest.rs`.
//!
//! While `load_workload` generated a `Vec<Row>` and dealt it into
//! batches, every cart cost a row vector and its cells, so doubling the
//! carts doubled the allocation count. The column generator writes typed
//! vectors sized up front, so the count is a function of partitions,
//! columns, worker threads and DFS blocks, whatever the row count.
#![cfg(feature = "alloc-counters")]

use sqlml_common::alloc::alloc_calls;
use sqlml_core::workload::WorkloadScale;
use sqlml_core::{ClusterConfig, SimCluster};

/// (allocation calls of `load_workload`, DFS blocks of the warehouse).
fn measure(carts: usize) -> (u64, u64) {
    let cluster = SimCluster::start(ClusterConfig::default()).unwrap();
    let (allocs, _) = alloc_calls();
    cluster
        .load_workload(WorkloadScale::with_carts(carts), 42)
        .unwrap();
    let allocs = alloc_calls().0 - allocs;
    let files = cluster.dfs.list("/warehouse/");
    (allocs, files.iter().map(|f| f.num_blocks as u64).sum())
}

/// One test function: the counters are process-wide, so nothing else may
/// allocate while a measurement runs.
#[test]
fn loading_the_warehouse_allocates_per_block_not_per_row() {
    let (small, small_blocks) = measure(30_000);
    let (large, large_blocks) = measure(60_000);
    // Measured 838 → 846 over 8 blocks each; the row-built warehouse
    // took 31 146 → 61 454.
    let budget = small + 100 + (large_blocks - small_blocks);
    assert!(
        large <= budget,
        "{small} allocations at 30 000 carts ({small_blocks} blocks), \
         {large} at 60 000 ({large_blocks} blocks): more than {budget}"
    );
}
