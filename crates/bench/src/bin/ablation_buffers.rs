//! **A1 — send-buffer sweep.** The paper fixes send/receive buffers at
//! 4 KiB without exploring the choice; this ablation sweeps the
//! in-memory send-buffer size and reports streaming-transfer time and
//! spill volume. It is what sets `TransferConfig`'s default: the
//! smallest size at which nothing spills (EXPERIMENTS.md A1).
//!
//! Expected shape: a queue smaller than a partition's frames spills
//! nearly every frame — the producer outruns any sender thread — without
//! corrupting the transfer; one that holds the partition spills nothing
//! (the §3 spill path is for a slow reader) and is the fastest row.
//!
//! Run: `cargo run --release -p sqlml-bench --bin ablation_buffers`

use std::time::Instant;

use sqlml_bench::{check_shape, BenchParams};
use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{Pipeline, PipelineRequest, Strategy};
use sqlml_transform::TransformSpec;

fn main() {
    let mut params = BenchParams::from_args();
    // Buffering behaviour is a pure streaming concern; no DFS throttle.
    params.throttle_mbps = None;
    let request = PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: "svm label=4 iterations=5".to_string(),
    };

    println!(
        "A1: send-buffer size sweep ({} carts)\n",
        params.scale.carts
    );
    println!(
        "{:>12} {:>12} {:>14} {:>8} {:>10} {:>12}",
        "buffer", "time (s)", "spilled (B)", "spills", "batches", "rows"
    );
    let mut results = Vec::new();
    for buffer in [64usize, 1 << 10, 4 << 10, 64 << 10, 1 << 20] {
        let cluster = {
            let c = sqlml_core::ClusterConfig {
                transfer: sqlml_transfer::TransferConfig {
                    send_buffer_bytes: buffer,
                    ..params.transfer
                },
                ..Default::default()
            };
            let cluster = sqlml_core::SimCluster::start(c).expect("cluster");
            cluster
                .load_workload(params.scale, params.seed)
                .expect("workload");
            cluster
        };
        let pipeline = Pipeline::new(&cluster);
        let t0 = Instant::now();
        let report = pipeline
            .run(&request, Strategy::InSqlStream)
            .expect("stream run");
        let elapsed = t0.elapsed().as_secs_f64();
        let summary = report.transfer_summary().expect("transfer summary");
        let stats = report.stream_stats.expect("stream stats");
        println!(
            "{:>12} {:>12.3} {:>14} {:>8} {:>10} {:>12}",
            buffer,
            elapsed,
            stats.bytes_spilled,
            stats.spill_events,
            stats.batches_sent,
            stats.rows_ingested
        );
        println!("             {summary}");
        results.push((buffer, elapsed, stats.bytes_spilled, stats.rows_ingested));
    }

    let rows0 = results[0].3;
    let ok = check_shape(
        "every buffer size delivers the same row count",
        results.iter().all(|r| r.3 == rows0),
    ) & check_shape(
        "the tiny 64B buffer spills; the 1MiB buffer spills less",
        results[0].2 > results.last().unwrap().2,
    );
    std::process::exit(if ok { 0 } else { 1 });
}
