//! **A6 — socket streaming (§3) vs message-queue transfer (§8 future
//! work).**
//!
//! The paper proposes Kafka as an alternative transport with two
//! benefits: at-least-once reads under failure without restarting the
//! producer, and the log acting as a cache when consumers are slow — at
//! the cost of an extra materialization hop through the broker.
//!
//! This ablation measures both transports on the same transformed table:
//! one-shot delivery (where the socket path should win — no middleman)
//! and a four-algorithm workflow (where the queue amortizes one publish
//! across jobs while the socket path must re-stream every time).
//!
//! Run: `cargo run --release -p sqlml-bench --bin ablation_queue`

use std::time::Instant;

use sqlml_bench::{check_shape, BenchParams};
use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{ClusterConfig, SimCluster};
use sqlml_mq::{broker::BrokerConfig, session, Broker};
use sqlml_transform::TransformSpec;

const COMMANDS: [&str; 4] = [
    "svm label=4 iterations=5",
    "logreg label=4 iterations=5",
    "nb label=4",
    "tree label=4 depth=3",
];

fn main() {
    let params = BenchParams::from_args();
    let cluster = SimCluster::start(ClusterConfig::default()).expect("cluster");
    cluster
        .load_workload(params.scale, params.seed)
        .expect("workload");
    let engine = &cluster.engine;

    // Prepare the transformed hand-off table once.
    engine
        .execute(&format!("CREATE TABLE prep AS {PREP_QUERY}"))
        .expect("prep");
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    let out = transformer
        .transform("prep", &TransformSpec::new(&["gender"]))
        .expect("transform");
    let rows = out.table.num_rows();
    engine.register_table("handoff", out.table);
    println!("A6: socket streaming vs message queue, {rows} rows\n");

    // Give the broker the same 4 MB/s I/O budget the DFS gets in the
    // figure runs, so its extra hop costs honestly.
    let broker = Broker::new(BrokerConfig {
        bytes_per_sec: params.throttle_mbps.map(|m| m * 1024 * 1024),
    });
    session::install_udf(engine, &broker);
    let stream_cfg = cluster.stream_config();
    cluster.stream.install_udf(engine, &stream_cfg, None);

    // --- one-shot delivery -------------------------------------------
    let t0 = Instant::now();
    let stream_once = cluster
        .stream
        .run(engine, "handoff", COMMANDS[0], &stream_cfg)
        .expect("stream");
    let stream_once_t = t0.elapsed().as_secs_f64() - stream_once.job.train_duration.as_secs_f64();

    let t1 = Instant::now();
    let mq_once = session::run_mq_pipeline(
        engine,
        &broker,
        "handoff",
        "once",
        COMMANDS[0],
        cluster.ml_job_config(),
    )
    .expect("mq");
    let mq_once_t = t1.elapsed().as_secs_f64() - mq_once.job.train_duration.as_secs_f64();

    println!("one-shot delivery:");
    println!("  socket stream   {stream_once_t:8.3}s");
    println!(
        "  message queue   {mq_once_t:8.3}s  (publish {:.3}s)",
        mq_once.publish_time.as_secs_f64()
    );
    let bytes_per_row = mq_once.bytes_published as f64 / rows as f64;
    println!("  published       {bytes_per_row:.2} B/row");

    // --- four algorithms over the same data ---------------------------
    let t2 = Instant::now();
    let mut stream_train = 0.0;
    for cmd in COMMANDS {
        let o = cluster
            .stream
            .run(engine, "handoff", cmd, &stream_cfg)
            .expect("stream multi");
        stream_train += o.job.train_duration.as_secs_f64();
    }
    let stream_multi_t = t2.elapsed().as_secs_f64() - stream_train;

    let t3 = Instant::now();
    let (pub_rows, _, schema) =
        session::publish_table(engine, &broker, "handoff", "shared").expect("publish");
    assert_eq!(pub_rows as usize, rows);
    let mut mq_train = 0.0;
    for cmd in COMMANDS {
        let job = session::run_mq_job(
            &broker,
            "shared",
            schema.clone(),
            cmd,
            cluster.ml_job_config(),
            None,
        )
        .expect("mq job");
        assert_eq!(job.ingest.rows, rows);
        mq_train += job.train_duration.as_secs_f64();
    }
    let mq_multi_t = t3.elapsed().as_secs_f64() - mq_train;

    println!("\nfour algorithms over the same data:");
    println!("  socket stream   {stream_multi_t:8.3}s  (re-streams the SQL side 4x)");
    println!("  message queue   {mq_multi_t:8.3}s  (one publish, 4 consumes)");

    let ok = check_shape(
        "both transports deliver every row",
        stream_once.stats.rows_ingested == rows && mq_once.consume_rows == rows,
    ) & check_shape(
        &format!(
            "queue amortizes across jobs better than its one-shot ratio \
             (one-shot mq/stream {:.2}, multi mq/stream {:.2})",
            mq_once_t / stream_once_t,
            mq_multi_t / stream_multi_t
        ),
        mq_multi_t / stream_multi_t < mq_once_t / stream_once_t * 1.05,
    );
    std::process::exit(if ok { 0 } else { 1 });
}
