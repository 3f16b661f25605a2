//! Fault-tolerance integration tests (§6): DFS replica failover,
//! streaming-transfer restarts, and combinations.

use std::sync::Arc;

use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, Pipeline, PipelineRequest, SimCluster, Strategy, WorkloadScale};
use sqlml_transfer::FaultInjector;
use sqlml_transform::TransformSpec;

fn cluster() -> SimCluster {
    let c = SimCluster::start(ClusterConfig::for_tests()).unwrap();
    c.load_workload(WorkloadScale::TINY, 31).unwrap();
    c
}

fn request() -> PipelineRequest {
    PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: "svm label=4 iterations=10".to_string(),
    }
}

#[test]
fn naive_pipeline_survives_a_datanode_death() {
    // Replication 2 on 2 nodes: killing one node after the warehouse is
    // written still leaves one replica of every block.
    let cluster = cluster();
    cluster.dfs.kill_datanode(1);
    let pipeline = Pipeline::new(&cluster);
    let report = pipeline.run(&request(), Strategy::Naive).unwrap();
    assert!(report.rows_to_ml > 0);
}

#[test]
fn streaming_restart_protocol_is_exactly_once() {
    let cluster = cluster();
    let injector = Arc::new(FaultInjector::new());
    injector.fail_worker_after(0, 50);
    injector.fail_worker_after(1, 80);
    let cfg = cluster.stream_config();
    cluster
        .stream
        .install_udf(&cluster.engine, &cfg, Some(Arc::clone(&injector)));

    // Build a numeric hand-off table directly.
    let engine = &cluster.engine;
    engine
        .execute(&format!("CREATE TABLE prep AS {PREP_QUERY}"))
        .unwrap();
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    let out = transformer
        .transform("prep", &TransformSpec::default())
        .unwrap();
    let expected = out.table.num_rows();
    engine.register_table("handoff", out.table);

    let outcome = cluster
        .stream
        .run(engine, "handoff", "nb label=3", &cfg)
        .unwrap();
    // Both workers faulted once and restarted; delivery exactly once.
    assert_eq!(injector.fired().len(), 2);
    assert_eq!(outcome.stats.max_attempts, 2);
    assert_eq!(outcome.stats.rows_ingested, expected);
}

/// A fault injector installed before the pipeline is built still fires:
/// building a `Pipeline` must not re-register `stream_transfer` over it.
#[test]
fn an_injector_installed_before_the_pipeline_still_fires() {
    let cluster = cluster();
    let injector = Arc::new(FaultInjector::new());
    injector.fail_worker_after(0, 50);
    cluster.stream.install_udf(
        &cluster.engine,
        &cluster.stream_config(),
        Some(Arc::clone(&injector)),
    );
    let pipeline = Pipeline::new(&cluster);
    let staged = pipeline.run(&request(), Strategy::InSql).unwrap();
    let report = pipeline.run(&request(), Strategy::InSqlStream).unwrap();
    assert_eq!(injector.fired().len(), 1, "the injector was dropped");
    let stats = report
        .stream_stats
        .expect("a streamed run reports its transfer");
    assert_eq!(stats.max_attempts, 2, "one restart");
    assert_eq!(report.rows_to_ml, staged.rows_to_ml, "exactly once");
}

#[test]
fn repeated_faults_on_one_worker_eventually_succeed_within_attempt_budget() {
    let cluster = cluster();
    let injector = Arc::new(FaultInjector::new());
    // Two consecutive faults on worker 0 (attempts 1 and 2 both die).
    injector.fail_worker_after(0, 10);
    injector.fail_worker_after(0, 10);
    let cfg = cluster.stream_config();
    cluster
        .stream
        .install_udf(&cluster.engine, &cfg, Some(Arc::clone(&injector)));

    let engine = &cluster.engine;
    engine
        .execute(&format!("CREATE TABLE prep AS {PREP_QUERY}"))
        .unwrap();
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    let out = transformer
        .transform("prep", &TransformSpec::default())
        .unwrap();
    let expected = out.table.num_rows();
    engine.register_table("handoff2", out.table);

    let outcome = cluster
        .stream
        .run(engine, "handoff2", "nb label=3", &cfg)
        .unwrap();
    assert_eq!(outcome.stats.max_attempts, 3, "two restarts then success");
    assert_eq!(outcome.stats.rows_ingested, expected);
}

/// Overlapped-plane fault satellite: with a tiny send buffer and small
/// frames, the sender queues stay non-empty while a worker dies mid-
/// stream; the restart protocol must still deliver exactly once even
/// though undrained frames sat in the queues at failure time.
#[test]
fn fault_with_backed_up_sender_queue_is_exactly_once() {
    let cluster = cluster();
    let injector = Arc::new(FaultInjector::new());
    injector.fail_worker_after(0, 120);
    let mut cfg = cluster.stream_config();
    // Tiny buffers and frames keep frames queued (and spilling) at the
    // moment the fault fires.
    cfg.transfer.send_buffer_bytes = 64;
    cfg.transfer.frame_bytes = 64;
    cluster
        .stream
        .install_udf(&cluster.engine, &cfg, Some(Arc::clone(&injector)));

    let engine = &cluster.engine;
    engine
        .execute(&format!("CREATE TABLE prep3 AS {PREP_QUERY}"))
        .unwrap();
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    let out = transformer
        .transform("prep3", &TransformSpec::default())
        .unwrap();
    let expected = out.table.num_rows();
    engine.register_table("handoff3", out.table);

    let outcome = cluster
        .stream
        .run(engine, "handoff3", "nb label=3", &cfg)
        .unwrap();
    assert_eq!(injector.fired().len(), 1, "fault must have fired");
    assert_eq!(outcome.stats.max_attempts, 2, "one restart");
    assert_eq!(outcome.stats.rows_ingested, expected, "exactly once");
    assert_eq!(outcome.stats.rows_sent as usize, expected);
    assert!(
        outcome.stats.queue_depth_hw > 0,
        "frames must actually have queued: {:?}",
        outcome.stats
    );
}

#[test]
fn losing_all_replicas_fails_the_naive_pipeline_loudly() {
    let config = ClusterConfig {
        sql_workers: 2,
        ml_workers: 2,
        dfs: sqlml_dfs::DfsConfig {
            num_datanodes: 2,
            block_size: 64 * 1024,
            replication: 1, // no redundancy
            bytes_per_sec: None,
            remote_bytes_per_sec: None,
        },
        ..ClusterConfig::default()
    };
    let cluster = SimCluster::start(config).unwrap();
    cluster.load_workload(WorkloadScale::TINY, 33).unwrap();
    cluster.dfs.kill_datanode(0);
    cluster.dfs.kill_datanode(1);
    let pipeline = Pipeline::new(&cluster);
    // The SQL engine holds its tables in memory, so the query runs; the
    // DFS materialization hop is what fails.
    let err = pipeline.run(&request(), Strategy::Naive).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("datanode") || msg.contains("replica") || msg.contains("dfs"),
        "unexpected error: {msg}"
    );
}

#[test]
fn streaming_strategy_is_unaffected_by_dfs_death() {
    // The whole point of insql+stream: no file system between the
    // systems. Killing every datanode after table load must not matter.
    let cluster = cluster();
    cluster.dfs.kill_datanode(0);
    cluster.dfs.kill_datanode(1);
    let pipeline = Pipeline::new(&cluster);
    let report = pipeline.run(&request(), Strategy::InSqlStream).unwrap();
    assert!(report.rows_to_ml > 0);
}
