//! **A4 — locality-aware split placement.** Step 3 of the paper's
//! Figure 2 locates each InputSplit at its SQL worker's node "so that
//! data transfer does not incur network I/O". This ablation measures
//! DFS-side ingestion with the ML workers colocated with the data versus
//! deliberately anti-located, under a constrained cluster interconnect.
//!
//! Expected shape: colocated workers read every split locally and avoid
//! the network entirely; anti-located workers pay the interconnect and
//! ingest slower.
//!
//! Run: `cargo run --release -p sqlml-bench --bin ablation_locality`

use sqlml_bench::{check_shape, BenchParams};
use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, SimCluster};
use sqlml_dfs::DfsConfig;
use sqlml_mlengine::input::TextInputFormat;
use sqlml_mlengine::job::{JobConfig, JobRunner};
use sqlml_transform::TransformSpec;

fn main() {
    let params = BenchParams::from_args();
    // Unthrottled disks; a 8 MB/s interconnect so remote reads hurt.
    let cluster = SimCluster::start(ClusterConfig {
        dfs: DfsConfig {
            num_datanodes: 4,
            block_size: 256 * 1024,
            replication: 1, // single replica => locality is all-or-nothing
            bytes_per_sec: None,
            remote_bytes_per_sec: Some(8 * 1024 * 1024),
        },
        ..ClusterConfig::default()
    })
    .expect("cluster");
    cluster
        .load_workload(params.scale, params.seed)
        .expect("workload");

    // Materialize the transformed hand-off files once.
    let engine = &cluster.engine;
    engine
        .execute(&format!("CREATE TABLE prep AS {PREP_QUERY}"))
        .expect("prep");
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    let out = transformer
        .transform("prep", &TransformSpec::new(&["gender"]))
        .expect("transform");
    out.table.save_text(&cluster.dfs, "/handoff").expect("save");
    let schema = out.table.schema().clone();

    println!(
        "A4: ingestion locality ({} rows over a 8 MB/s interconnect)\n",
        out.table.num_rows()
    );
    println!(
        "{:>14} {:>8} {:>8} {:>12}",
        "placement", "splits", "local", "time (s)"
    );

    let run = |label: &str, nodes: Vec<String>| {
        let fmt = TextInputFormat::new(cluster.dfs.clone(), "/handoff", schema.clone());
        let runner = JobRunner::new(JobConfig {
            num_workers: 4,
            worker_nodes: nodes,
        });
        let (_, report) = runner.ingest_dataset(&fmt, None).expect("ingest");
        println!(
            "{label:>14} {:>8} {:>8} {:>12.3}",
            report.num_splits,
            report.local_splits,
            report.duration.as_secs_f64()
        );
        report
    };

    let colocated = run("colocated", (0..4).map(sqlml_dfs::node_name).collect());
    let antilocated = run("anti-located", (10..14).map(sqlml_dfs::node_name).collect());

    let ok = check_shape(
        "colocated workers read every split locally",
        colocated.local_splits == colocated.num_splits,
    ) & check_shape(
        "anti-located workers read nothing locally",
        antilocated.local_splits == 0,
    ) & check_shape(
        &format!(
            "remote ingestion is slower ({:.3}s vs {:.3}s)",
            antilocated.duration.as_secs_f64(),
            colocated.duration.as_secs_f64()
        ),
        antilocated.duration > colocated.duration,
    );
    std::process::exit(if ok { 0 } else { 1 });
}
