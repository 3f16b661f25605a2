//! End-to-end orchestration for queue-based transfer: publish a table
//! from the SQL engine, then run (any number of) ML jobs over the topic.
//!
//! The structural difference from the socket path is visible in the API:
//! publish and consume are **separate calls** — the broker's log sits
//! between them, so the SQL side never waits for the ML side (and one
//! publish can feed many jobs, the "Kafka as cache" idea of §8).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_common::{Result, Schema, SqlmlError};
use sqlml_mlengine::job::{JobConfig, JobOutcome, JobRunner, TrainingSpec};
use sqlml_sqlengine::Engine;

use crate::broker::Broker;
use crate::input_format::{ConsumerFaults, MqInputFormat};
use crate::udf::MqTransferUdf;

/// Statistics of a queue-based pipeline run.
#[derive(Debug)]
pub struct MqPipelineOutcome {
    pub job: JobOutcome,
    pub rows_published: u64,
    pub bytes_published: u64,
    pub publish_time: Duration,
    pub consume_rows: usize,
}

/// Register the `mq_transfer` UDF on an engine. Call once per engine.
pub fn install_udf(engine: &Engine, broker: &Broker) {
    engine.register_table_udf(Arc::new(MqTransferUdf::new(broker.clone())));
}

/// Publish a catalog table to `topic` (creating the topic with one
/// partition per table partition). Returns the rows published, the bytes
/// the log took, and the table's schema. A table an ML job could not
/// read — one holding a string — is refused before the topic exists, as
/// the socket path refuses it before a transfer id does.
pub fn publish_table(
    engine: &Engine,
    broker: &Broker,
    table: &str,
    topic: &str,
) -> Result<(u64, u64, Schema)> {
    let source = engine.catalog().table(table)?;
    source.check_numeric(table)?;
    let schema = source.schema().clone();
    broker.create_topic(topic, source.num_partitions())?;
    engine.query(&format!(
        "SELECT * FROM TABLE(mq_transfer({table}, {})) AS s",
        sqlml_common::sql_string_literal(topic)
    ))?;
    let bytes = broker.stats(topic)?.bytes;
    Ok((source.num_rows() as u64, bytes, schema))
}

/// Run one ML job over an already-published topic.
pub fn run_mq_job(
    broker: &Broker,
    topic: &str,
    schema: Schema,
    command: &str,
    ml_config: JobConfig,
    faults: Option<Arc<ConsumerFaults>>,
) -> Result<JobOutcome> {
    let spec = TrainingSpec::parse(command)?;
    let mut format = MqInputFormat::new(broker.clone(), topic, schema);
    if let Some(f) = faults {
        format = format.with_faults(f);
    }
    JobRunner::new(ml_config).run(&format, &spec)
}

/// Full pipeline: publish, then train — the queue analogue of
/// `StreamSession::run`.
pub fn run_mq_pipeline(
    engine: &Engine,
    broker: &Broker,
    table: &str,
    topic: &str,
    command: &str,
    ml_config: JobConfig,
) -> Result<MqPipelineOutcome> {
    let t0 = Instant::now();
    let (rows_published, bytes_published, schema) = publish_table(engine, broker, table, topic)?;
    let publish_time = t0.elapsed();
    let job = run_mq_job(broker, topic, schema, command, ml_config, None)?;
    if job.ingest.rows as u64 != rows_published {
        return Err(SqlmlError::Transfer(format!(
            "published {rows_published} rows but the job ingested {}",
            job.ingest.rows
        )));
    }
    Ok(MqPipelineOutcome {
        rows_published,
        bytes_published,
        publish_time,
        consume_rows: job.ingest.rows,
        job,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field};
    use sqlml_common::SplitMix64;
    use sqlml_sqlengine::EngineConfig;

    fn engine_with_points(workers: usize, n: usize, seed: u64) -> Engine {
        let engine = Engine::new(EngineConfig::with_workers(workers));
        let schema = Schema::new(vec![
            Field::new("x", DataType::Double),
            Field::new("y", DataType::Double),
            Field::new("label", DataType::Int),
        ]);
        let mut rng = SplitMix64::new(seed);
        let rows = (0..n)
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

    #[test]
    fn publish_then_train_end_to_end() {
        let engine = engine_with_points(3, 300, 101);
        let broker = Broker::new(BrokerConfig::default());
        install_udf(&engine, &broker);
        let outcome = run_mq_pipeline(
            &engine,
            &broker,
            "points",
            "points-topic",
            "svm label=2 iterations=40",
            JobConfig {
                num_workers: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.rows_published, 300);
        assert_eq!(outcome.consume_rows, 300);
        assert_eq!(outcome.job.model.predict(&[2.0, 2.0]), 1.0);
        assert_eq!(outcome.job.model.predict(&[-2.0, -2.0]), 0.0);
    }

    /// A table no ML job could read is refused before its topic exists,
    /// named down to the cell as the socket path names it.
    fn assert_refused_before_publishing(engine: &Engine, table: &str, names: &[&str]) {
        let broker = Broker::new(BrokerConfig::default());
        install_udf(engine, &broker);
        let err = publish_table(engine, &broker, table, "topic").unwrap_err();
        assert!(matches!(err, SqlmlError::Type(_)), "{err}");
        assert!(names.iter().all(|n| err.to_string().contains(n)), "{err}");
        assert!(!broker.has_topic("topic"), "{table} was published");
    }

    #[test]
    fn a_string_column_is_refused_before_it_is_published() {
        let engine = Engine::new(EngineConfig::with_workers(2));
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::categorical("gender"),
        ]);
        let rows = (0..100i64).map(|i| row![20 + i, if i % 2 == 0 { "F" } else { "M" }]);
        engine.register_rows("carts", schema, rows.collect());
        assert_refused_before_publishing(&engine, "carts", &["column gender"]);
    }

    #[test]
    fn a_string_hiding_in_an_int_column_is_refused_before_it_is_published() {
        let engine = Engine::new(EngineConfig::with_workers(2));
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("label", DataType::Int),
        ]);
        let rows = (0..100i64).map(|i| match i {
            57 => row!["oops", 1i64],
            _ => row![20 + i, i % 2],
        });
        engine.register_rows("sneaky", schema, rows.collect());
        // Table row 57 is row 28 of partition 1 (round-robin over 2).
        let names = ["column age", "oops", "row 28 of partition 1"];
        assert_refused_before_publishing(&engine, "sneaky", &names);
    }

    /// Exactly-once at every record boundary: a consumer killed before
    /// record `k` resumes at `k`, for every `k`, and its block equals
    /// the fault-free read's, labels and features bit for bit.
    #[test]
    fn a_consumer_killed_at_any_record_boundary_delivers_exactly_once() {
        let engine = engine_with_points(1, 1500, 113);
        let broker = Broker::new(BrokerConfig::default());
        install_udf(&engine, &broker);
        let (_, _, schema) = publish_table(&engine, &broker, "points", "cut").unwrap();
        // (f64, f64, i8) rows are 17 bytes: 240 to a 4 KiB frame.
        assert_eq!(broker.partition_len("cut", 0).unwrap(), 7);
        let read = |faults| {
            let format = MqInputFormat::new(broker.clone(), "cut", schema.clone());
            let runner = JobRunner::new(JobConfig::default());
            let (data, _) = (runner.ingest_dataset(&format.with_faults(faults), Some(2))).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let one_split = data.partition(0);
            (bits(one_split.labels()), bits(one_split.features()))
        };
        let clean = read(Arc::new(ConsumerFaults::new()));
        assert_eq!(clean.0.len(), 1500);
        for k in 0..7 {
            let faults = Arc::new(ConsumerFaults::new());
            faults.fail_partition_after(0, k);
            assert!(read(Arc::clone(&faults)) == clean, "killed before {k}");
            assert_eq!(faults.fired(), vec![(0, k)]);
        }
    }

    #[test]
    fn one_publish_feeds_many_jobs() {
        // §8: "Kafka could also be the system to cache the data" — the
        // log is durable, so several algorithms train from one publish.
        let engine = engine_with_points(2, 200, 103);
        let broker = Broker::new(BrokerConfig::default());
        install_udf(&engine, &broker);
        let (rows, _, schema) = publish_table(&engine, &broker, "points", "shared").unwrap();
        assert_eq!(rows, 200);
        for command in [
            "svm label=2 iterations=10",
            "nb label=2",
            "tree label=2 depth=3",
        ] {
            let job = run_mq_job(
                &broker,
                "shared",
                schema.clone(),
                command,
                JobConfig {
                    num_workers: 2,
                    ..Default::default()
                },
                None,
            )
            .unwrap();
            assert_eq!(job.ingest.rows, 200, "{command}");
        }
        // The log still holds everything.
        assert_eq!(broker.stats("shared").unwrap().sealed_partitions, 2);
    }

    #[test]
    fn consumer_failure_never_touches_the_producer() {
        // The §8 durability argument vs the §6 socket restart: a consumer
        // fault is absorbed by log replay; the publish is not redone.
        let engine = engine_with_points(2, 150, 107);
        let broker = Broker::new(BrokerConfig::default());
        install_udf(&engine, &broker);
        let (rows, _, schema) = publish_table(&engine, &broker, "points", "faulty").unwrap();
        let records_before = broker.stats("faulty").unwrap().records;

        let faults = Arc::new(ConsumerFaults::new());
        faults.fail_partition_after(0, 1);
        faults.fail_partition_after(1, 1);
        let job = run_mq_job(
            &broker,
            "faulty",
            schema,
            "nb label=2",
            JobConfig {
                num_workers: 2,
                ..Default::default()
            },
            Some(Arc::clone(&faults)),
        )
        .unwrap();
        assert_eq!(job.ingest.rows as u64, rows, "exactly-once after replay");
        assert_eq!(faults.fired().len(), 2);
        // Nothing was re-published.
        assert_eq!(broker.stats("faulty").unwrap().records, records_before);
    }

    #[test]
    fn slow_consumer_is_fully_decoupled() {
        // Publish completes with no consumer at all; a consumer started
        // afterwards still gets everything — the log *is* the buffer.
        let engine = engine_with_points(2, 120, 109);
        let broker = Broker::new(BrokerConfig::default());
        install_udf(&engine, &broker);
        let (rows, _, schema) = publish_table(&engine, &broker, "points", "late").unwrap();
        assert_eq!(broker.stats("late").unwrap().sealed_partitions, 2);
        std::thread::sleep(Duration::from_millis(30));
        let job = run_mq_job(
            &broker,
            "late",
            schema,
            "nb label=2",
            JobConfig {
                num_workers: 2,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(job.ingest.rows as u64, rows);
    }
}
