//! The SQL-side publishing table UDF: `TABLE(mq_transfer(t, 'topic'))`.
//!
//! Runs once per partition in parallel (like `stream_transfer`), but
//! instead of holding sockets open to live readers, each SQL worker
//! appends its partition to its own topic partition and seals it. A
//! record is one numeric frame — the socket path's wire, cut by the same
//! rule at the default [`codec::FRAME_BYTES`]. The SQL side is completely
//! decoupled from the ML side — it finishes even if no consumer ever
//! starts, and never restarts on consumer failure.

use std::sync::Arc;

use sqlml_common::schema::{DataType, Field};
use sqlml_common::{codec, Result, Schema, SqlmlError, Value};
use sqlml_sqlengine::column::Prim;
use sqlml_sqlengine::udf::{PartitionCtx, TableUdf};
use sqlml_sqlengine::{Batch, Column};

use crate::broker::Broker;

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
        input_schema: &Schema,
        args: &[Value],
        ctx: &PartitionCtx,
    ) -> Result<Batch> {
        let topic = Self::parse_args(args)?;
        let columns = input.numeric_columns(input_schema)?;
        // Partition p of the table goes to partition p of the topic, which
        // `publish_table` created (a worker never creates one: a racing
        // sibling's create would truncate its appends).
        let partitions = self.broker.num_partitions(&topic)?;
        if partitions != ctx.num_partitions {
            return Err(SqlmlError::Transfer(format!(
                "topic {topic:?} has {partitions} partitions but the table has {}",
                ctx.num_partitions
            )));
        }

        let mut bytes = 0;
        let mut records = 0;
        for rows in codec::frame_ranges(&columns, input.len(), codec::FRAME_BYTES) {
            // The runs, plus two counts and a run code per column.
            let mut frame = Vec::with_capacity(codec::FRAME_BYTES + 8 + columns.len());
            codec::encode_numeric_frame(&columns, rows, &mut frame)?;
            bytes += frame.len() as i64;
            records += 1;
            self.broker.append(&topic, ctx.partition, frame)?;
        }
        self.broker.seal(&topic, ctx.partition)?;

        let stats = [ctx.partition as i64, input.len() as i64, bytes, records];
        let column = |v: i64| Arc::new(Column::Int(Prim::new(vec![v], None)));
        Ok(Batch::new(stats.map(column).to_vec(), 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;

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
    fn publishes_one_record_per_frame_and_seals() {
        let broker = Broker::new(BrokerConfig::default());
        broker.create_topic("out", 2).unwrap();
        let udf = MqTransferUdf::new(broker.clone());
        let args = vec![Value::Str("out".into())];
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);

        // 5000 values below 2^15 ship at 2 bytes: 2048 rows a frame.
        let x = Column::Int(Prim::new((0..5000).collect(), None));
        let batch = Batch::new(vec![Arc::new(x)], 5000);
        let stats = udf.execute(&batch, &schema, &args, &ctx(1, 2)).unwrap();
        let stat = |c: usize| stats.column(c).value(0);
        let bytes = 5000 * 2 + 3 * (8 + 1);
        assert_eq!([1, 2, 3].map(stat), [5000, bytes, 3].map(Value::Int));

        let topic_stats = broker.stats("out").unwrap();
        assert_eq!(topic_stats.records, 3);
        assert_eq!(topic_stats.bytes, bytes as u64);
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
        let empty = Batch::new(vec![Arc::new(Column::Int(Prim::new(vec![], None)))], 0);
        assert!(udf.execute(&empty, &schema, &args, &ctx(0, 2)).is_err());
        let unknown = [Value::Str("never-created".into())];
        assert!(udf.execute(&empty, &schema, &unknown, &ctx(0, 5)).is_err());
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
