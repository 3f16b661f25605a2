//! End-to-end tests of the parallel streaming data transfer: a real SQL
//! engine streams to a real ML job over TCP through the coordinator.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use sqlml_common::codec::NumericFrame;
use sqlml_common::row;
use sqlml_common::schema::{DataType, Field, Schema};
use sqlml_common::{Row, SplitMix64, Value};
use sqlml_mlengine::job::JobConfig;
use sqlml_mlengine::TrainedModel;
use sqlml_sqlengine::udf::{PartitionCtx, TableUdf};
use sqlml_sqlengine::{Engine, EngineConfig};
use sqlml_transfer::protocol::{read_data_frame, write_message, DataFrame, Message};
use sqlml_transfer::stream_udf::WorkerTransferStats;
use sqlml_transfer::{
    Coordinator, FaultInjector, StreamSession, StreamSessionConfig, StreamTransferUdf,
    TransferConfig,
};

/// A recoded-and-numeric table: features (x, y) + binary label, the shape
/// the In-SQL transformation hands to the ML system.
fn engine_with_points(workers: usize, n: usize, seed: u64) -> Engine {
    let engine = Engine::new(EngineConfig {
        num_workers: workers,
        nodes: (0..workers).map(sqlml_dfs::node_name).collect(),
    });
    let schema = Schema::new(vec![
        Field::new("x", DataType::Double),
        Field::new("y", DataType::Double),
        Field::new("label", DataType::Int),
    ]);
    let mut rng = SplitMix64::new(seed);
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let cls = (i % 2) as i64;
            let c = if cls == 0 { -2.0 } else { 2.0 };
            row![
                c + rng.next_gaussian() * 0.4,
                c + rng.next_gaussian() * 0.4,
                cls
            ]
        })
        .collect();
    engine.register_rows("points", schema, rows);
    engine
}

fn config(workers: usize, k: u32, buffer: usize) -> StreamSessionConfig {
    StreamSessionConfig {
        transfer: TransferConfig {
            splits_per_worker: k,
            send_buffer_bytes: buffer,
            ..Default::default()
        },
        ml_job: JobConfig {
            num_workers: workers,
            worker_nodes: (0..workers).map(sqlml_dfs::node_name).collect(),
        },
        spill_dir: std::env::temp_dir().join("sqlml-transfer-tests"),
    }
}

#[test]
fn streams_a_table_into_a_trained_svm() {
    let engine = engine_with_points(3, 600, 71);
    let session = StreamSession::start().unwrap();
    let cfg = config(3, 1, 4096);
    session.install_udf(&engine, &cfg, None);

    let outcome = session
        .run(&engine, "points", "svm label=2 iterations=60", &cfg)
        .unwrap();

    assert_eq!(outcome.stats.rows_sent, 600);
    assert_eq!(outcome.stats.rows_ingested, 600);
    assert_eq!(outcome.stats.num_splits, 3);
    assert_eq!(outcome.stats.max_attempts, 1, "no restarts expected");
    // Colocated nodes => every split local (the locality goal of §3).
    assert_eq!(outcome.stats.local_splits, 3);

    match &outcome.job.model {
        TrainedModel::Svm(m) => {
            assert_eq!(m.predict(&[2.0, 2.0]), 1.0);
            assert_eq!(m.predict(&[-2.0, -2.0]), 0.0);
        }
        other => panic!("unexpected model {other:?}"),
    }
}

#[test]
fn a_job_without_ml_workers_is_refused_before_anything_moves() {
    let engine = engine_with_points(2, 100, 71);
    let session = StreamSession::start().unwrap();
    let cfg = config(0, 1, 4096);
    session.install_udf(&engine, &cfg, None);
    let started = std::time::Instant::now();
    let err = session
        .run(&engine, "points", "svm label=2", &cfg)
        .unwrap_err();
    // Not the 60 s the SQL workers would wait for readers that never come.
    assert!(started.elapsed() < Duration::from_secs(1), "{err}");
    assert!(matches!(err, sqlml_common::SqlmlError::Ml(_)), "{err}");
    assert!(err.to_string().contains("num_workers"), "{err}");
    // The session is still good for a well-formed run.
    let cfg = config(2, 1, 4096);
    let outcome = session.run(&engine, "points", "svm label=2", &cfg).unwrap();
    assert_eq!(outcome.stats.rows_ingested, 100);
}

/// The relational→matrix boundary is checked once, in the session
/// preamble: a table the job cannot ingest is refused with a typed error
/// and nothing moves. Pinned by a fault plan that fires at the streaming
/// loop's very first row: it stays unfired through both refused runs and
/// fires in the good run on the same session.
#[test]
fn a_table_the_job_cannot_ingest_is_refused_before_anything_moves() {
    use sqlml_common::SqlmlError;
    let engine = engine_with_points(2, 100, 71);
    let with_gender = Schema::new(vec![
        Field::new("age", DataType::Int),
        Field::categorical("gender"),
        Field::new("label", DataType::Int),
    ]);
    let carts = (0..100i64).map(|i| row![20 + i, if i % 2 == 0 { "F" } else { "M" }, i % 2]);
    engine.register_rows("carts", with_gender, carts.collect());
    let session = StreamSession::start().unwrap();
    let cfg = config(2, 1, 4096);
    let injector = Arc::new(FaultInjector::new());
    injector.fail_worker_after(0, 0);
    session.install_udf(&engine, &cfg, Some(Arc::clone(&injector)));

    let err = session
        .run(&engine, "carts", "svm label=2", &cfg)
        .unwrap_err();
    assert!(matches!(err, SqlmlError::Type(_)), "{err}");
    assert!(err.to_string().contains("column gender"), "{err}");
    assert_eq!(injector.fired(), vec![], "no row reached the wire");

    let err = session
        .run(&engine, "points", "svm label=9", &cfg)
        .unwrap_err();
    assert!(matches!(err, SqlmlError::Ml(_)), "{err}");
    assert!(err.to_string().contains("label column 9"), "{err}");
    assert_eq!(injector.fired(), vec![], "no row reached the wire");

    // The plan was live all along: a good table on the same session
    // streams, trips it once, restarts and lands exactly once.
    let outcome = session.run(&engine, "points", "svm label=2", &cfg).unwrap();
    assert_eq!(injector.fired(), vec![(0, 0)]);
    assert_eq!(outcome.stats.rows_ingested, 100);
    assert_eq!(outcome.stats.max_attempts, 2);
}

/// The schema cannot speak for a column held as mixed values: declared
/// `Int`, one cell a string. The preamble finds the cell and names it —
/// before a transfer id is allocated, so no SQL worker's layout step can
/// fail behind the registration barrier and no reader burns its retry
/// budget on frames that will never decode. Pinned like the `Str`
/// refusal: the row-0 fault plan never fires, and the good run on the
/// same session takes the first transfer id's worth of attempts.
#[test]
fn a_string_hiding_in_an_int_column_is_refused_before_anything_moves() {
    use sqlml_common::SqlmlError;
    let engine = engine_with_points(2, 100, 71);
    let declared_numeric = Schema::new(vec![
        Field::new("age", DataType::Int),
        Field::new("label", DataType::Int),
    ]);
    let rows = (0..100i64).map(|i| match i {
        57 => row!["oops", 1i64],
        _ => row![20 + i, i % 2],
    });
    engine.register_rows("sneaky", declared_numeric, rows.collect());
    let session = StreamSession::start().unwrap();
    let cfg = config(2, 1, 4096);
    let injector = Arc::new(FaultInjector::new());
    injector.fail_worker_after(0, 0);
    session.install_udf(&engine, &cfg, Some(Arc::clone(&injector)));

    let started = std::time::Instant::now();
    let err = session
        .run(&engine, "sneaky", "svm label=1", &cfg)
        .unwrap_err();
    assert!(matches!(err, SqlmlError::Type(_)), "{err}");
    // Row 57 of the table is row 28 of partition 1 (round-robin over 2).
    let names = ["column age", "oops", "row 28 of partition 1"];
    assert!(names.iter().all(|n| err.to_string().contains(n)), "{err}");
    assert_eq!(injector.fired(), vec![], "no row reached the wire");
    // Not 8 reader attempts with 25 ms·n back-off between them.
    assert!(started.elapsed() < Duration::from_millis(500), "{err}");

    let outcome = session.run(&engine, "points", "svm label=2", &cfg).unwrap();
    assert_eq!(injector.fired(), vec![(0, 0)]);
    assert_eq!(outcome.stats.rows_ingested, 100);
    assert_eq!(outcome.stats.max_attempts, 2, "the plan's one restart");
}

#[test]
fn higher_parallelism_k_multiplies_splits() {
    let engine = engine_with_points(2, 200, 73);
    let session = StreamSession::start().unwrap();
    let cfg = config(4, 3, 4096);
    session.install_udf(&engine, &cfg, None);

    let outcome = session
        .run(&engine, "points", "logreg label=2 iterations=20", &cfg)
        .unwrap();
    // m = n_sql * k = 2 * 3.
    assert_eq!(outcome.stats.num_splits, 6);
    assert_eq!(outcome.stats.rows_ingested, 200);
}

#[test]
fn tiny_send_buffer_spills_to_disk() {
    let engine = engine_with_points(2, 4000, 79);
    let session = StreamSession::start().unwrap();
    // 1-byte in-memory budget: essentially every queued frame after the
    // first must take the spill path.
    let cfg = config(2, 1, 1);
    session.install_udf(&engine, &cfg, None);

    let outcome = session.run(&engine, "points", "nb label=2", &cfg).unwrap();
    assert_eq!(outcome.stats.rows_ingested, 4000);
    assert!(
        outcome.stats.bytes_spilled > 0,
        "expected spill with a 1-byte buffer, stats: {:?}",
        outcome.stats
    );
}

#[test]
fn injected_fault_triggers_group_restart_and_exact_delivery() {
    let engine = engine_with_points(2, 500, 83);
    let session = StreamSession::start().unwrap();
    let cfg = config(2, 2, 4096);
    let injector = Arc::new(FaultInjector::new());
    injector.fail_worker_after(1, 100);
    session.install_udf(&engine, &cfg, Some(Arc::clone(&injector)));

    let outcome = session
        .run(&engine, "points", "svm label=2 iterations=30", &cfg)
        .unwrap();

    assert_eq!(injector.fired(), vec![(1, 100)], "fault must have fired");
    assert_eq!(
        outcome.stats.max_attempts, 2,
        "worker 1 should have restarted once"
    );
    // Exactly-once delivery despite the restart.
    assert_eq!(outcome.stats.rows_ingested, 500);
}

#[test]
fn several_sequential_sessions_share_one_coordinator() {
    let session = StreamSession::start().unwrap();
    for seed in [91u64, 93, 95] {
        let engine = engine_with_points(2, 150, seed);
        let cfg = config(2, 1, 4096);
        session.install_udf(&engine, &cfg, None);
        let outcome = session
            .run(&engine, "points", "tree label=2 depth=3", &cfg)
            .unwrap();
        assert_eq!(outcome.stats.rows_ingested, 150);
    }
}

#[test]
fn rejects_unknown_commands_before_transfer() {
    let engine = engine_with_points(2, 10, 97);
    let session = StreamSession::start().unwrap();
    let cfg = config(2, 1, 4096);
    session.install_udf(&engine, &cfg, None);
    assert!(session
        .run(&engine, "points", "bogus algo=1", &cfg)
        .is_err());
}

/// Delivery exactness with several readers per worker: the sender's,
/// the readers' and the ML job's row counts all agree, with no restart.
#[test]
fn sent_received_and_ingested_totals_agree() {
    let session = StreamSession::start().unwrap();
    let engine = engine_with_points(2, 800, 101);
    let cfg = config(2, 2, 4096);
    session.install_udf(&engine, &cfg, None);
    let outcome = session
        .run(&engine, "points", "svm label=2 iterations=20", &cfg)
        .unwrap();
    assert_eq!(outcome.stats.rows_sent, 800);
    assert_eq!(outcome.stats.rows_ingested, 800);
    assert_eq!(outcome.stats.receive.rows_received, 800);
    assert_eq!(outcome.stats.max_attempts, 1, "no restarts");
}

#[test]
fn misaligned_nodes_mean_remote_reads() {
    // SQL workers on node-0/node-1, ML workers on node-8/node-9: zero
    // local splits but the transfer still completes (best-effort
    // locality, as the paper specifies).
    let engine = engine_with_points(2, 100, 99);
    let session = StreamSession::start().unwrap();
    let mut cfg = config(2, 1, 4096);
    cfg.ml_job.worker_nodes = vec![sqlml_dfs::node_name(8), sqlml_dfs::node_name(9)];
    session.install_udf(&engine, &cfg, None);
    let outcome = session.run(&engine, "points", "nb label=2", &cfg).unwrap();
    assert_eq!(outcome.stats.local_splits, 0);
    assert_eq!(outcome.stats.rows_ingested, 100);
}

#[test]
fn concurrent_sessions_on_one_coordinator_do_not_cross_wires() {
    // Two transfers in flight at once through ONE session and ONE engine:
    // their readers race to accept on ephemeral ports, and a reader that
    // dials into the wrong group must be turned away by the hello
    // handshake (transfer ids disagree), never silently fed rows. Each
    // run must account for exactly its own table's rows.
    let engine = engine_with_points(2, 500, 123);
    // Second table with a different row count so crossed wires would
    // show up as a wrong total, not a coin flip.
    {
        use sqlml_common::schema::{DataType, Field, Schema};
        let schema = Schema::new(vec![
            Field::new("x", DataType::Double),
            Field::new("y", DataType::Double),
            Field::new("label", DataType::Int),
        ]);
        let mut rng = SplitMix64::new(321);
        let rows: Vec<Row> = (0..300)
            .map(|i| {
                let cls = (i % 2) as i64;
                let c = if cls == 0 { -2.0 } else { 2.0 };
                row![
                    c + rng.next_gaussian() * 0.4,
                    c + rng.next_gaussian() * 0.4,
                    cls
                ]
            })
            .collect();
        engine.register_rows("points_b", schema, rows);
    }
    let session = Arc::new(StreamSession::start().unwrap());
    let cfg = config(2, 1, 4096);
    session.install_udf(&engine, &cfg, None);

    let runs = [("points", 500usize), ("points_b", 300usize)];
    std::thread::scope(|s| {
        let handles: Vec<_> = runs
            .iter()
            .map(|(table, want)| {
                let session = Arc::clone(&session);
                let engine = engine.clone();
                let cfg = cfg.clone();
                s.spawn(move || {
                    let outcome = session
                        .run(&engine, table, "nb label=2", &cfg)
                        .unwrap_or_else(|e| panic!("{table}: {e}"));
                    assert_eq!(outcome.stats.rows_sent, *want as u64, "{table}: sent");
                    assert_eq!(outcome.stats.rows_ingested, *want, "{table}: ingested");
                    assert_eq!(outcome.stats.max_attempts, 1, "{table}: no restarts");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn pre_cancelled_transfer_fails_fast_without_the_report_timeout() {
    use sqlml_common::CancelToken;
    use std::time::{Duration, Instant};

    let engine = engine_with_points(2, 200, 7);
    let session = StreamSession::start().unwrap();
    let cfg = config(2, 1, 4096);
    session.install_udf(&engine, &cfg, None);

    let token = CancelToken::new();
    token.cancel("caller gave up");
    let start = Instant::now();
    let err = session
        .run_with_cancel(&engine, "points", "nb label=2", &cfg, &token)
        .unwrap_err();
    assert!(err.is_cancelled(), "expected cancellation, got {err}");
    // The old failure mode was a 120s wait for an ML job that never
    // launched; a cancelled run must return immediately.
    assert!(start.elapsed() < Duration::from_secs(10));

    // The session is still healthy for the next caller.
    let outcome = session.run(&engine, "points", "nb label=2", &cfg).unwrap();
    assert_eq!(outcome.stats.rows_ingested, 200);
}

/// Run the UDF over one partition against a real coordinator and `k`
/// hand-rolled readers that keep every data frame they receive:
/// (wire bytes including the length prefix, rows).
fn stream_and_capture(
    rows: &[Row],
    k: u32,
    frame_bytes: usize,
) -> (WorkerTransferStats, Vec<(usize, usize)>) {
    let coord = Coordinator::start().unwrap();
    let values = vec![
        Value::from(coord.addr()),
        Value::Int(1),
        Value::from("nb label=0"),
        Value::Int(i64::from(k)),
        Value::Int(TransferConfig::default().send_buffer_bytes as i64),
        Value::Int(frame_bytes as i64),
    ];
    let ctx = PartitionCtx {
        partition: 0,
        num_partitions: 1,
        worker: 0,
        num_workers: 1,
        node: "node-0".into(),
    };
    let udf = StreamTransferUdf::new(std::env::temp_dir().join("sqlml-udf-tests"));
    let batch = sqlml_sqlengine::Batch::from_rows(&Schema::empty(), rows);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| udf.execute(&batch, &Schema::empty(), &values, &ctx));
        let info = coord
            .handle()
            .wait_for_session(1, Duration::from_secs(10))
            .unwrap();
        let readers: Vec<_> = (0..k)
            .map(|split_index| {
                let addr = info.workers[0].data_addr.clone();
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let hello = Message::DataHello {
                        transfer_id: 1,
                        split_index,
                        attempt: 1,
                    };
                    write_message(&mut stream, &hello).unwrap();
                    let mut scratch = Vec::new();
                    let mut frames = Vec::new();
                    loop {
                        match read_data_frame(&mut stream, &mut scratch).unwrap() {
                            DataFrame::Other(Message::DataStart { .. }) => {}
                            DataFrame::Numeric(batch) => {
                                let rows = NumericFrame::parse(batch).unwrap().rows();
                                frames.push((batch.len() + 5, rows));
                            }
                            DataFrame::Other(Message::DataEnd { .. }) => return frames,
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                })
            })
            .collect();
        let frames = readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect();
        let stats_rows = sender.join().unwrap().unwrap();
        (
            WorkerTransferStats::from_row(&stats_rows.row(0)).unwrap(),
            frames,
        )
    })
}

/// The one cut rule, over seeded narrow and wide tables: a frame holds
/// `frame_bytes` ÷ row stride rows and nothing else cuts it. Every
/// column here is an integer below 2^30 (a 4-byte run), so the stride is
/// 4 per column; every frame but the partition's last holds exactly that
/// many rows, its runs fit `frame_bytes`, the frame adds only its header
/// (length, tag, two counts, one code per column), and the frame and row
/// counts the readers saw are the ones the stats row reports.
#[test]
fn frames_are_cut_at_frame_bytes_and_nothing_else() {
    let mut rng = SplitMix64::new(0xF4A3E);
    for (cols, frame_bytes, k) in [(1, 64, 1), (1, 4096, 1), (5, 256, 2), (40, 1024, 3)] {
        let rows: Vec<Row> = (0..1500)
            .map(|_| {
                let cell = |_| Value::Int((1 << 29) + rng.next_below(1 << 29) as i64);
                Row::new((0..cols).map(cell).collect())
            })
            .collect();
        let (stats, frames) = stream_and_capture(&rows, k, frame_bytes);
        let shape = format!("{cols} cols, frame_bytes {frame_bytes}, k {k}");
        let (stride, header) = (4 * cols, 5 + 8 + cols);
        let per_frame = frame_bytes / stride;
        assert_eq!(stats.rows_sent, 1500, "{shape}");
        assert_eq!(stats.batches_sent, frames.len() as u64, "{shape}");
        assert_eq!(frames.len(), 1500usize.div_ceil(per_frame), "{shape}");
        assert_eq!(frames.iter().map(|f| f.1).sum::<usize>(), 1500, "{shape}");
        assert!(
            frames.iter().all(|f| f.0 == header + f.1 * stride),
            "{shape}: {frames:?}"
        );
        let short = frames.iter().filter(|f| f.1 != per_frame).count();
        assert!(short <= 1, "{shape}: {short} frames cut early: {frames:?}");
        // DataEnd (13 B per peer) is the only other thing on the wire.
        let wire: usize = frames.iter().map(|f| f.0).sum();
        assert_eq!(stats.bytes_sent, (wire + 13 * k as usize) as u64, "{shape}");
    }
}

/// A row larger than `frame_bytes` is neither split nor refused: it
/// ships in a frame of its own.
#[test]
fn a_row_larger_than_frame_bytes_ships_alone() {
    let wide = Row::new(vec![Value::Double(0.25); 40]);
    let rows = vec![wide; 20];
    let (stats, frames) = stream_and_capture(&rows, 2, 128);
    assert_eq!(stats.batches_sent, 20);
    assert!(frames.iter().all(|f| f.1 == 1 && f.0 > 128), "{frames:?}");
}
