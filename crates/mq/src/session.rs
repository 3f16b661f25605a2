//! End-to-end orchestration for queue-based transfer: publish a table
//! from the SQL engine, then run (any number of) ML jobs over the topic.
//!
//! The structural difference from the socket path is visible in the API:
//! publish and consume are **separate calls** — the broker's log sits
//! between them, so the SQL side never waits for the ML side (and one
//! publish can feed many jobs, the "Kafka as cache" idea of §8).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_common::{counter_u64, Result, Row, Schema, SqlmlError};
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
/// partition per table partition). Returns (rows, bytes) published and
/// the table's schema.
pub fn publish_table(
    engine: &Engine,
    broker: &Broker,
    table: &str,
    topic: &str,
) -> Result<(u64, u64, Schema)> {
    let source = engine.catalog().table(table)?;
    let schema = source.schema().clone();
    broker.create_topic(topic, source.num_partitions())?;
    let stats = engine.query(&format!(
        "SELECT * FROM TABLE(mq_transfer({table}, {})) AS s",
        sqlml_common::sql_string_literal(topic)
    ))?;
    let (rows, bytes) = published_totals(&stats.collect_rows())?;
    Ok((rows, bytes, schema))
}

/// Total (rows, bytes) over `mq_transfer`'s per-worker stats rows. The
/// counts come back through a SQL table as `i64`; a negative one is a
/// corrupted row and an error, never an `as` cast wrapping to ~1.8e19.
fn published_totals(stats: &[Row]) -> Result<(u64, u64)> {
    let (mut rows, mut bytes) = (0u64, 0u64);
    for r in stats {
        rows += counter_u64(r.get(1).as_i64()?, "rows_published")?;
        bytes += counter_u64(r.get(2).as_i64()?, "bytes_published")?;
    }
    Ok((rows, bytes))
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
    use sqlml_common::{Row, SplitMix64};
    use sqlml_sqlengine::EngineConfig;

    fn engine_with_points(workers: usize, n: usize, seed: u64) -> Engine {
        let engine = Engine::new(EngineConfig::with_workers(workers));
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

    #[test]
    fn a_negative_published_count_is_an_error_not_a_wrap() {
        assert_eq!(
            published_totals(&[row![0i64, 5i64, 50i64, 1i64], row![1i64, 7i64, 70i64, 1i64]])
                .unwrap(),
            (12, 120)
        );
        let err = published_totals(&[row![0i64, -3i64, 10i64, 1i64]]).unwrap_err();
        assert!(matches!(err, SqlmlError::Overflow(_)), "{err}");
        assert!(err.to_string().contains("rows_published -3"), "{err}");
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

    /// A string-heavy table through the broker: every record is one compact
    /// batch, so repeated categorical values travel as dictionary indexes
    /// and must come back as the same strings, row for row.
    #[test]
    fn categorical_table_round_trips_through_the_broker() {
        let engine = Engine::new(EngineConfig::with_workers(2));
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::categorical("plan"),
            Field::categorical("region"),
        ]);
        let plans = ["basic-monthly", "plus-annual", "premium-annual"];
        let regions = ["north-america", "europe", "asia-pacific", "ünïcode", ""];
        let rows: Vec<Row> = (0..500usize)
            .map(|i| row![i as i64, plans[i % 3], regions[i % 5]])
            .collect();
        engine.register_rows("accounts", schema, rows.clone());
        let broker = Broker::new(BrokerConfig::default());
        install_udf(&engine, &broker);
        let (published, bytes, _) =
            publish_table(&engine, &broker, "accounts", "accounts-topic").unwrap();
        assert_eq!(published, 500);
        // Only possible when repeats are shipped as indexes.
        let string_bytes: usize = rows
            .iter()
            .map(|r| r.get(1).as_str().unwrap().len() + r.get(2).as_str().unwrap().len())
            .sum();
        assert!(
            (bytes as usize) < string_bytes,
            "{bytes} bytes published for {string_bytes} bytes of strings"
        );

        // String rows are not something a (numeric) reader hands back:
        // read the log itself, one compact batch per record.
        let mut got = Vec::new();
        for partition in 0..broker.num_partitions("accounts-topic").unwrap() {
            let mut offset = 0;
            while let Some(record) = broker
                .read("accounts-topic", partition, offset, Duration::from_secs(1))
                .unwrap()
            {
                got.extend(sqlml_common::codec::decode_compact_batch(&record).unwrap());
                offset += 1;
            }
        }
        got.sort();
        assert_eq!(got, rows, "ids ascend, so sorted order is insertion order");
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
