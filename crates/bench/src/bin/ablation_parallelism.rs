//! **A2 — degree-of-parallelism sweep.** §3 introduces `k`, the number
//! of streaming readers per SQL worker (`m = n·k` splits), "a parameter
//! to control the degree of parallelism in the ML job". This ablation
//! sweeps `k` and reports split counts and ingestion time.
//!
//! Expected shape: split count scales as `n·k`; delivery stays exact for
//! every `k` (loopback transport makes large time gains invisible at this
//! scale, so the checks are on correctness and accounting, not speed).
//!
//! Run: `cargo run --release -p sqlml-bench --bin ablation_parallelism`

use sqlml_bench::{check_shape, BenchParams};
use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, Pipeline, PipelineRequest, SimCluster, Strategy};
use sqlml_transfer::TransferConfig;
use sqlml_transform::TransformSpec;

fn run_once(cfg: ClusterConfig, params: &BenchParams, request: &PipelineRequest) -> RunResult {
    let cluster = SimCluster::start(cfg).expect("cluster");
    cluster
        .load_workload(params.scale, params.seed)
        .expect("workload");
    let pipeline = Pipeline::new(&cluster);
    let report = pipeline
        .run(request, Strategy::InSqlStream)
        .expect("stream run");
    let pipeline_secs = report.pipeline_time().as_secs_f64();
    let summary = report.transfer_summary();
    let stats = report.stream_stats.expect("stats");
    RunResult {
        pipeline_secs,
        summary,
        num_splits: stats.num_splits,
        local_splits: stats.local_splits,
        rows_sent: stats.rows_sent,
        rows_ingested: stats.rows_ingested,
    }
}

struct RunResult {
    pipeline_secs: f64,
    summary: Option<String>,
    num_splits: usize,
    local_splits: usize,
    rows_sent: u64,
    rows_ingested: usize,
}

fn main() {
    let mut params = BenchParams::from_args();
    params.throttle_mbps = None;
    let request = PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: "svm label=4 iterations=5".to_string(),
    };

    println!(
        "A2: k (readers per SQL worker) sweep ({} carts)\n",
        params.scale.carts
    );
    println!(
        "{:>4} {:>8} {:>8} {:>12} {:>10}",
        "k", "splits", "local", "time (s)", "rows"
    );
    let mut all_exact = true;
    let mut split_counts = Vec::new();
    for k in [1u32, 2, 4, 8] {
        let cfg = ClusterConfig {
            transfer: TransferConfig {
                splits_per_worker: k,
                ..params.transfer
            },
            ..Default::default()
        };
        let r = run_once(cfg, &params, &request);
        println!(
            "{:>4} {:>8} {:>8} {:>12.3} {:>10}",
            k, r.num_splits, r.local_splits, r.pipeline_secs, r.rows_ingested
        );
        if let Some(summary) = r.summary {
            println!("     {summary}");
        }
        all_exact &= r.rows_sent as usize == r.rows_ingested;
        split_counts.push((k, r.num_splits));
    }

    let ok = check_shape(
        "m = n*k splits for every k (n = 4 SQL workers)",
        split_counts.iter().all(|(k, m)| *m == 4 * *k as usize),
    ) & check_shape("delivery is exact for every k", all_exact);
    std::process::exit(if ok { 0 } else { 1 });
}
