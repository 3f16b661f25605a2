//! The SQL-side publishing table UDF: `TABLE(mq_transfer(t, 'topic'))`.
//!
//! Runs once per partition in parallel (like `stream_transfer`), but
//! instead of holding sockets open to live readers, each SQL worker
//! appends its rows to its own topic partition and seals it. The SQL
//! side is completely decoupled from the ML side — it finishes even if
//! no consumer ever starts, and never restarts on consumer failure.

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{codec, Result, Row, Schema, SqlmlError, Value};
use sqlml_sqlengine::udf::{PartitionCtx, TableUdf};
use sqlml_sqlengine::Batch;

use crate::broker::Broker;

/// Rows per published record (one record = one compact row batch, the
/// same encoding the socket transfer puts in a frame).
pub const BATCH_ROWS: usize = 64;

/// Output layout of the UDF: per-worker publish statistics.
pub fn stats_schema() -> Schema {
    Schema::new(vec![
        Field::new("worker", DataType::Int),
        Field::new("rows_published", DataType::Int),
        Field::new("bytes_published", DataType::Int),
        Field::new("records", DataType::Int),
    ])
}

/// The publishing UDF, bound to one broker.
pub struct MqTransferUdf {
    broker: Broker,
}

impl MqTransferUdf {
    pub fn new(broker: Broker) -> Self {
        MqTransferUdf { broker }
    }

    fn parse_args(args: &[Value]) -> Result<String> {
        if args.len() != 1 {
            return Err(SqlmlError::Plan(
                "mq_transfer takes exactly one argument: the topic name".into(),
            ));
        }
        Ok(args[0].as_str()?.to_string())
    }
}

impl TableUdf for MqTransferUdf {
    fn name(&self) -> &str {
        "mq_transfer"
    }

    fn output_schema(&self, _input: &Schema, args: &[Value]) -> Result<Schema> {
        Self::parse_args(args)?;
        Ok(stats_schema())
    }

    fn execute(
        &self,
        input: &Batch,
        _input_schema: &Schema,
        args: &[Value],
        ctx: &PartitionCtx,
    ) -> Result<Batch> {
        let rows = input.rows();
        let topic = Self::parse_args(args)?;
        // Topic partitioning mirrors the table's: partition p of the
        // table goes to partition p of the topic. The first worker to
        // arrive creates the topic (idempotent races are fine: creation
        // under the session helper happens up front; this is the
        // fallback for direct SQL use).
        if !self.broker.has_topic(&topic) {
            // Racy create is acceptable: create_topic truncates, and all
            // workers run before any append when invoked via SQL in one
            // statement... To stay safe, only create when invoked for a
            // topic that genuinely does not exist, and require the
            // session helper for concurrent use.
            self.broker.create_topic(&topic, ctx.num_partitions)?;
        }
        if self.broker.num_partitions(&topic)? != ctx.num_partitions {
            return Err(SqlmlError::Transfer(format!(
                "topic {topic:?} has {} partitions but the table has {}",
                self.broker.num_partitions(&topic)?,
                ctx.num_partitions
            )));
        }

        let mut bytes = 0u64;
        let mut records = 0u64;
        for batch in rows.chunks(BATCH_ROWS) {
            let mut buf = Vec::with_capacity(batch.len() * 16);
            codec::encode_compact_batch(batch, &mut buf)?;
            bytes += buf.len() as u64;
            self.broker.append(&topic, ctx.partition, buf)?;
            records += 1;
        }
        self.broker.seal(&topic, ctx.partition)?;

        let stats = Row::new(vec![
            Value::Int(ctx.partition as i64),
            Value::Int(rows.len() as i64),
            Value::Int(bytes as i64),
            Value::Int(records as i64),
        ]);
        Ok(Batch::from_rows(&stats_schema(), &[stats]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use sqlml_common::row;

    fn ctx(partition: usize, total: usize) -> PartitionCtx {
        PartitionCtx {
            partition,
            num_partitions: total,
            worker: partition,
            num_workers: total,
            node: format!("node-{partition}"),
        }
    }

    #[test]
    fn publishes_batches_and_seals() {
        let broker = Broker::new(BrokerConfig::default());
        broker.create_topic("out", 2).unwrap();
        let udf = MqTransferUdf::new(broker.clone());
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64]).collect();
        let args = vec![Value::Str("out".into())];
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);

        let batch = Batch::from_rows(&schema, &rows);
        let stats = udf.execute(&batch, &schema, &args, &ctx(1, 2)).unwrap();
        assert_eq!(stats.row(0).get(1), &Value::Int(100));
        assert_eq!(stats.row(0).get(3), &Value::Int(2)); // 100 rows / 64-per-record

        let topic_stats = broker.stats("out").unwrap();
        assert_eq!(topic_stats.records, 2);
        assert_eq!(topic_stats.sealed_partitions, 1);
        // Partition 0 untouched.
        assert_eq!(broker.partition_len("out", 0).unwrap(), 0);
    }

    #[test]
    fn partition_count_mismatch_is_rejected() {
        let broker = Broker::new(BrokerConfig::default());
        broker.create_topic("out", 5).unwrap();
        let udf = MqTransferUdf::new(broker);
        let args = vec![Value::Str("out".into())];
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let empty = Batch::from_rows(&schema, &[]);
        assert!(udf.execute(&empty, &schema, &args, &ctx(0, 2)).is_err());
    }

    #[test]
    fn arg_validation() {
        let broker = Broker::new(BrokerConfig::default());
        let udf = MqTransferUdf::new(broker);
        assert!(udf.output_schema(&Schema::empty(), &[]).is_err());
        assert!(udf
            .output_schema(&Schema::empty(), &[Value::Int(3)])
            .is_err());
        assert!(udf
            .output_schema(&Schema::empty(), &[Value::Str("t".into())])
            .is_ok());
    }
}
