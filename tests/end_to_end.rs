//! Cross-crate integration tests: the full SQL → transform → transfer →
//! ML pipeline, across all three strategies.

use sqlml_core::workload::PREP_QUERY;
use sqlml_core::{
    CacheMode, ClusterConfig, Pipeline, PipelineRequest, SimCluster, Strategy, WorkloadScale,
};
use sqlml_mlengine::job::TrainedModel;
use sqlml_transform::TransformSpec;

fn cluster() -> SimCluster {
    let c = SimCluster::start(ClusterConfig::for_tests()).unwrap();
    c.load_workload(WorkloadScale::TINY, 2024).unwrap();
    c
}

fn request(ml: &str) -> PipelineRequest {
    PipelineRequest {
        prep_sql: PREP_QUERY.to_string(),
        spec: TransformSpec::new(&["gender"]),
        ml_command: ml.to_string(),
    }
}

#[test]
fn the_three_strategies_agree_on_rows_and_labels() {
    let cluster = cluster();
    let pipeline = Pipeline::new(&cluster);
    let run_all = |ml: &str| -> Vec<_> {
        [Strategy::Naive, Strategy::InSql, Strategy::InSqlStream]
            .map(|strategy| pipeline.run(&request(ml), strategy).unwrap())
            .into()
    };
    let reports = run_all("svm label=4 iterations=20");
    let rows: Vec<usize> = reports.iter().map(|r| r.rows_to_ml).collect();
    assert_eq!(rows[0], rows[1]);
    assert_eq!(rows[1], rows[2]);
    assert!(rows[0] > 0);

    // A command carrying SQL quotes (unknown keys are ignored by the ML
    // side) travels inside a generated statement under InSqlStream only;
    // it must reach ML unchanged there too, not break the statement or
    // become extra UDF arguments.
    for quoted in [
        "svm label=4 iterations=5 note=it's",
        "svm label=4 iterations=5 note=x',0,'svm",
    ] {
        let quoted_rows: Vec<usize> = run_all(quoted).iter().map(|r| r.rows_to_ml).collect();
        assert_eq!(quoted_rows, rows, "{quoted}");
    }

    // The SVMs trained through different transports should agree on
    // clear-cut inputs (identical data; SGD is deterministic given
    // partition-invariant reduction).
    let probes: [&[f64]; 3] = [
        &[20.0, 1.0, 0.0, 240.0], // young, pricey: abandon
        &[78.0, 0.0, 1.0, 10.0],  // old, cheap: keep
        &[25.0, 0.0, 1.0, 200.0],
    ];
    for probe in probes {
        let preds: Vec<f64> = reports.iter().map(|r| r.model.predict(probe)).collect();
        assert_eq!(preds[0], preds[1], "naive vs insql disagree on {probe:?}");
        assert_eq!(preds[1], preds[2], "insql vs stream disagree on {probe:?}");
    }
}

#[test]
fn every_algorithm_runs_through_the_streaming_pipeline() {
    let cluster = cluster();
    let pipeline = Pipeline::new(&cluster);
    for ml in [
        "svm label=4 iterations=10",
        "logreg label=4 iterations=10",
        "nb label=4",
        "tree label=4 depth=3",
        "linreg label=0 iterations=10", // predict age from the rest
        "kmeans k=2 iterations=5",
    ] {
        let report = pipeline.run(&request(ml), Strategy::InSqlStream).unwrap();
        assert!(report.rows_to_ml > 0, "{ml}: no rows");
        match (&report.model, ml.split(' ').next().unwrap()) {
            (TrainedModel::Svm(_), "svm")
            | (TrainedModel::LogReg(_), "logreg")
            | (TrainedModel::NaiveBayes(_), "nb")
            | (TrainedModel::Tree(_), "tree")
            | (TrainedModel::LinReg(_), "linreg")
            | (TrainedModel::KMeans(_), "kmeans") => {}
            (m, a) => panic!("{a} produced {m:?}"),
        }
    }
}

#[test]
fn transformed_bytes_on_dfs_equal_streamed_bytes_semantically() {
    // insql writes the transformed table to the DFS; insql+stream ships
    // it over TCP. Both must deliver the exact same multiset of rows to
    // the ML side. We verify via the ingest row-count plus a full
    // dataset comparison using the engine directly.
    let cluster = cluster();
    let engine = &cluster.engine;
    engine
        .execute(&format!("CREATE TABLE prep AS {PREP_QUERY}"))
        .unwrap();
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    let out = transformer
        .transform("prep", &TransformSpec::new(&["gender"]))
        .unwrap();

    // DFS round trip.
    out.table.save_text(&cluster.dfs, "/verify").unwrap();
    let back = sqlml_sqlengine::PartitionedTable::load_text(
        &cluster.dfs,
        "/verify",
        out.table.schema().clone(),
    )
    .unwrap();
    assert_eq!(back.collect_sorted(), out.table.collect_sorted());

    // Streaming round trip: collect what the ML job would see.
    engine.register_table("verify_stream", out.table.clone());
    let cfg = cluster.stream_config();
    cluster.stream.install_udf(engine, &cfg, None);
    let outcome = cluster
        .stream
        .run(engine, "verify_stream", "nb label=4", &cfg)
        .unwrap();
    assert_eq!(outcome.stats.rows_ingested, out.table.num_rows());
    assert_eq!(outcome.stats.rows_sent as usize, out.table.num_rows());
}

#[test]
fn tiny_batches_with_midstream_fault_stay_exactly_once_and_pipelined() {
    // Satellite regression for the pipelined reader: a 32-byte frame size
    // makes the stream many small frames, a fault injected mid-stream
    // forces the §6 whole-group restart while the reader has already
    // consumed rows, and delivery must still be exactly-once. The
    // receive-side counters also prove pipelining: the first row reached
    // the ML engine before any DataEnd was observed.
    let cluster = cluster();
    let engine = &cluster.engine;
    engine
        .execute(&format!("CREATE TABLE prep_tiny AS {PREP_QUERY}"))
        .unwrap();
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    let out = transformer
        .transform("prep_tiny", &TransformSpec::new(&["gender"]))
        .unwrap();
    let total_rows = out.table.num_rows();
    assert!(total_rows > 20, "need a stream long enough to fault into");
    engine.register_table("tiny_batch_stream", out.table.clone());

    let mut cfg = cluster.stream_config();
    cfg.transfer.frame_bytes = 32;
    let injector = std::sync::Arc::new(sqlml_transfer::FaultInjector::new());
    // Kill SQL worker 0 after it has sent a handful of rows — mid-stream,
    // after the reader has certainly consumed some of them.
    injector.fail_worker_after(0, 9);
    cluster
        .stream
        .install_udf(engine, &cfg, Some(std::sync::Arc::clone(&injector)));
    let outcome = cluster
        .stream
        .run(engine, "tiny_batch_stream", "nb label=4", &cfg)
        .unwrap();

    assert_eq!(
        injector.fired(),
        vec![(0, 9)],
        "the fault must actually fire"
    );
    assert_eq!(outcome.stats.max_attempts, 2, "restart protocol ran once");
    // Exactly-once despite rows consumed before the fault.
    assert_eq!(outcome.stats.rows_ingested, total_rows);
    assert_eq!(outcome.stats.rows_sent as usize, total_rows);
    // The tiny frame size really was honoured on the wire.
    assert!(
        outcome.stats.batches_sent >= outcome.stats.rows_sent / 3,
        "expected many small frames, got {} for {} rows",
        outcome.stats.batches_sent,
        outcome.stats.rows_sent
    );
    // Pipelining: a row was handed to the ML engine before any stream
    // finished.
    let recv = &outcome.stats.receive;
    assert!(recv.rows_received as usize >= total_rows);
    let first_row = recv.time_to_first_row.expect("first row stamped");
    let first_end = recv.time_to_first_data_end.expect("DataEnd stamped");
    assert!(
        first_row <= first_end,
        "reader only yielded after DataEnd: {first_row:?} vs {first_end:?}"
    );
}

/// §3's send queue by its counts, on the benchmark-shaped table (age,
/// two gender indicators, amount, label) at 20 000 carts: under the
/// default config a partition's frames fit the in-memory queue and
/// nothing spills; a 4 KiB queue (the paper's figure, one frame) still
/// takes the spill path, and still delivers every row exactly once; and
/// the wire costs 12 bytes a row — three 1-byte integer runs, an `f64`,
/// a 1-byte label — plus headers.
#[test]
fn the_send_queue_holds_a_partition_and_a_row_costs_twelve_bytes() {
    let cluster = SimCluster::start(ClusterConfig::for_tests()).unwrap();
    (cluster.load_workload(WorkloadScale::with_carts(20_000), 2024)).unwrap();
    let engine = &cluster.engine;
    engine
        .execute(&format!("CREATE TABLE prep_q AS {PREP_QUERY}"))
        .unwrap();
    let out = sqlml_transform::InSqlTransformer::new(engine.clone())
        .transform("prep_q", &TransformSpec::new(&["gender"]))
        .unwrap();
    let total_rows = out.table.num_rows();
    assert!(total_rows > 5_000, "{total_rows} rows: too few to queue up");
    engine.register_table("queued", out.table.clone());

    let default_cfg = cluster.stream_config();
    assert_eq!(
        default_cfg.transfer,
        sqlml_transfer::TransferConfig::default()
    );
    let mut paper_cfg = default_cfg.clone();
    paper_cfg.transfer.send_buffer_bytes = 4096;
    cluster.stream.install_udf(engine, &default_cfg, None);
    for (cfg, spills) in [(&default_cfg, false), (&paper_cfg, true)] {
        let stats = (cluster.stream)
            .run(engine, "queued", "nb label=4", cfg)
            .unwrap()
            .stats;
        assert_eq!(stats.rows_sent as usize, total_rows);
        assert_eq!(stats.rows_ingested, total_rows);
        assert_eq!(stats.receive.rows_received as usize, total_rows);
        assert_eq!(stats.max_attempts, 1);
        assert_eq!(stats.spill_events > 0, spills, "{stats:?}");
        assert_eq!(stats.bytes_spilled > 0, spills, "{stats:?}");
        assert_eq!((stats.dict_hits, stats.dict_misses), (0, 0));
        let bytes_per_row = stats.bytes_sent as f64 / stats.rows_sent as f64;
        assert!(
            (12.0..=12.1).contains(&bytes_per_row),
            "{bytes_per_row} B/row"
        );
    }
}

#[test]
fn figure_shapes_hold_even_at_test_scale_with_throttle() {
    // A miniature of the figure3/figure4 logic so regressions in the
    // relative ordering fail CI, not just the bench binaries.
    let config = ClusterConfig {
        sql_workers: 2,
        ml_workers: 2,
        dfs: sqlml_dfs::DfsConfig {
            num_datanodes: 2,
            block_size: 64 * 1024,
            replication: 2,
            bytes_per_sec: Some(2 * 1024 * 1024),
            remote_bytes_per_sec: None,
        },
        ..ClusterConfig::default()
    };
    let cluster = SimCluster::start(config).unwrap();
    cluster
        .load_workload(
            WorkloadScale {
                carts: 20_000,
                users: 400,
            },
            5,
        )
        .unwrap();
    let pipeline = Pipeline::with_cache(&cluster);
    let req = request("svm label=4 iterations=5");

    let naive = pipeline.run(&req, Strategy::Naive).unwrap();
    let insql = pipeline.run(&req, Strategy::InSqlStream).unwrap();
    // Second streaming run hits the cache (Figure 4's best bar).
    let cached = pipeline.run(&req, Strategy::InSqlStream).unwrap();
    assert_eq!(cached.cache_use, CacheMode::FullResult);

    assert!(
        insql.pipeline_time() < naive.pipeline_time(),
        "insql+stream {:?} should beat naive {:?}",
        insql.pipeline_time(),
        naive.pipeline_time()
    );
    assert!(
        cached.pipeline_time() < insql.pipeline_time(),
        "cached {:?} should beat uncached {:?}",
        cached.pipeline_time(),
        insql.pipeline_time()
    );
}

#[test]
fn block_level_splits_deliver_identical_pipelines() {
    // Hadoop-style block splits (many splits per part-file) through the
    // full naive and insql pipelines: same rows, same model behaviour.
    let make = |block_splits: bool| {
        let config = ClusterConfig {
            sql_workers: 2,
            ml_workers: 2,
            dfs: sqlml_dfs::DfsConfig {
                num_datanodes: 2,
                block_size: 4 * 1024, // small blocks => many splits
                replication: 2,
                bytes_per_sec: None,
                remote_bytes_per_sec: None,
            },
            block_level_splits: block_splits,
            ..ClusterConfig::default()
        };
        let cluster = SimCluster::start(config).unwrap();
        cluster.load_workload(WorkloadScale::TINY, 404).unwrap();
        cluster
    };
    let mut row_counts = Vec::new();
    for block_splits in [false, true] {
        let cluster = make(block_splits);
        let pipeline = Pipeline::new(&cluster);
        for strategy in [Strategy::Naive, Strategy::InSql] {
            let report = pipeline
                .run(&request("svm label=4 iterations=10"), strategy)
                .unwrap();
            row_counts.push(report.rows_to_ml);
        }
    }
    assert!(
        row_counts.iter().all(|c| *c == row_counts[0]),
        "row counts diverged across split granularities: {row_counts:?}"
    );
}

#[test]
fn rewriter_script_and_pipeline_agree() {
    // The §4 rewriter's executable script must produce the same
    // transformed rows as the pipeline's direct path (up to dummy-column
    // names, which the static script genericizes).
    let cluster = cluster();
    let engine = cluster.engine.clone();
    let rewriter = sqlml_rewriter::QueryRewriter::new(engine.clone());
    let spec = TransformSpec::new(&["gender"]);
    let (via_script, _) = rewriter.rewrite_and_run(PREP_QUERY, &spec, None).unwrap();

    engine
        .execute(&format!("CREATE TABLE prep2 AS {PREP_QUERY}"))
        .unwrap();
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    let direct = transformer.transform("prep2", &spec).unwrap();

    assert_eq!(
        via_script.collect_sorted(),
        direct.table.collect_sorted(),
        "script path and direct path diverge"
    );
}

/// `visits(age, gender, channel, amount, churned)`: every sixth gender
/// and every fifth channel is NULL.
fn register_visits_with_null_categoricals(cluster: &SimCluster) -> usize {
    use sqlml_common::schema::{DataType, Field, Schema};
    use sqlml_common::{Row, Value};
    let schema = Schema::new(vec![
        Field::new("age", DataType::Int),
        Field::categorical("gender"),
        Field::categorical("channel"),
        Field::new("amount", DataType::Double),
        Field::categorical("churned"),
    ]);
    let cat = |null: bool, v: &str| if null { Value::Null } else { Value::str(v) };
    let rows: Vec<Row> = (0..120i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(18 + i % 60),
                cat(i % 6 == 0, if i % 2 == 0 { "F" } else { "M" }),
                cat(i % 5 == 0, ["web", "app", "store"][i as usize % 3]),
                Value::Double(10.0 + (i * 7 % 200) as f64),
                Value::str(if i % 60 < 25 { "Yes" } else { "No" }),
            ])
        })
        .collect();
    let n = rows.len();
    cluster.engine.register_rows("visits", schema, rows);
    n
}

#[test]
fn null_categoricals_reach_ml_identically_under_every_strategy() {
    // A NULL categorical is a NULL code (recode-only column) or an
    // all-zero indicator block (dummy-coded column) under every
    // strategy. The recode *join* used to drop such rows (NULL keys
    // never match) while the external transform kept them, so In-SQL
    // and Naive trained on different data.
    let cluster = cluster();
    let n = register_visits_with_null_categoricals(&cluster);
    let prep = "SELECT age, gender, channel, amount, churned FROM visits";
    let spec = TransformSpec::new(&["gender"]);

    // Row for row: In-SQL transform vs the external transform.
    let engine = &cluster.engine;
    engine
        .execute(&format!("CREATE TABLE visits_prep AS {prep}"))
        .unwrap();
    let insql = sqlml_transform::InSqlTransformer::new(engine.clone())
        .transform("visits_prep", &spec)
        .unwrap();
    let prep_schema = engine.validate(prep).unwrap();
    engine
        .query_to_dfs(prep, &cluster.dfs, "/nulls/prep")
        .unwrap();
    let external = sqlml_core::naive::run_external_transform(
        &cluster.dfs,
        "/nulls/prep",
        &prep_schema,
        &spec,
        "/nulls/trsfm",
    )
    .unwrap();
    let mut external_rows = Vec::new();
    for f in cluster.dfs.list("/nulls/trsfm/") {
        let text = cluster.dfs.read_string(&f.path).unwrap();
        external_rows
            .extend(sqlml_common::codec::decode_text_batch(&text, &external.schema).unwrap());
    }
    external_rows.sort();
    let insql_rows = insql.table.collect_sorted();
    assert_eq!(insql_rows.len(), n, "In-SQL transform dropped rows");
    assert_eq!(insql_rows, external_rows);
    assert_eq!(insql.table.schema().names(), external.schema.names());
    // Layout: age, gender_F, gender_M, channel, amount, churned.
    let null_gender = insql_rows
        .iter()
        .filter(|r| r.get(1).as_i64().unwrap() + r.get(2).as_i64().unwrap() == 0)
        .count();
    assert_eq!(null_gender, n / 6);
    assert_eq!(
        insql_rows.iter().filter(|r| r.get(3).is_null()).count(),
        n / 5
    );

    // End to end: every strategy hands ML all n rows and the same model.
    let pipeline = Pipeline::new(&cluster);
    let req = PipelineRequest {
        prep_sql: prep.to_string(),
        spec,
        ml_command: "svm label=5 iterations=20".to_string(),
    };
    let reports: Vec<_> = [Strategy::Naive, Strategy::InSql, Strategy::InSqlStream]
        .into_iter()
        .map(|s| pipeline.run(&req, s).unwrap())
        .collect();
    for r in &reports {
        assert_eq!(r.rows_to_ml, n, "{:?} lost rows", r.strategy);
    }
    for probe in [[20.0, 0.0, 0.0, 1.0, 150.0], [70.0, 1.0, 0.0, 0.0, 15.0]] {
        let preds: Vec<f64> = reports.iter().map(|r| r.model.predict(&probe)).collect();
        assert!(preds.iter().all(|p| *p == preds[0]), "{probe:?}: {preds:?}");
    }
}

#[test]
fn cached_map_lacking_a_value_fails_instead_of_shrinking_the_training_set() {
    // §5.2 reuses a recode map built over an earlier result. If the new
    // result holds a value the map has never seen, the run must fail
    // loudly; the recode join used to drop those rows without a word.
    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field, Schema};
    let cluster = cluster();
    let engine = &cluster.engine;
    let schema = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::categorical("gender"),
    ]);
    engine.register_rows(
        "earlier",
        schema.clone(),
        vec![row![1i64, "F"], row![2i64, "M"]],
    );
    engine.register_rows(
        "later",
        schema,
        vec![row![1i64, "F"], row![2i64, "X"], row![3i64, "M"]],
    );
    let transformer = sqlml_transform::InSqlTransformer::new(engine.clone());
    for spec in [TransformSpec::default(), TransformSpec::new(&["gender"])] {
        let map = transformer.transform("earlier", &spec).unwrap().recode_map;
        let err = transformer
            .transform_with_map("later", &spec, &map)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unseen value"), "{err}");
        assert!(err.contains("gender"), "{err}");
    }
}
