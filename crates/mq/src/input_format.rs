//! The ML-side `MqInputFormat`: consume a topic through the standard
//! `InputFormat` interface, with replay-on-failure.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use sqlml_common::codec::NumericFrame;
use sqlml_common::lockorder::TrackedMutex;
use sqlml_common::{Result, Schema, SqlmlError};
use sqlml_mlengine::dataset::PartitionBlock;
use sqlml_mlengine::input::{InputFormat, InputSplit, RecordReader};

use crate::broker::Broker;

/// How long a consumer waits for the producer before giving up.
pub const CONSUME_TIMEOUT: Duration = Duration::from_secs(60);

/// Attempts a reader makes over its partition's life: every failure but
/// the last is retried from the first record not yet pushed.
pub const MAX_CONSUME_ATTEMPTS: u32 = 8;

/// Deliberate consumer-side failures for the fault tests: "(partition,
/// fail after N records)" plans, each firing once, before the reader
/// reads record N.
#[derive(Debug)]
pub struct ConsumerFaults {
    plans: TrackedMutex<Vec<(usize, usize)>>,
    fired: TrackedMutex<Vec<(usize, usize)>>,
}

impl Default for ConsumerFaults {
    fn default() -> Self {
        ConsumerFaults {
            plans: TrackedMutex::new("mq.consumer_faults.plans", Vec::new()),
            fired: TrackedMutex::new("mq.consumer_faults.fired", Vec::new()),
        }
    }
}

impl ConsumerFaults {
    pub fn new() -> Self {
        ConsumerFaults::default()
    }

    pub fn fail_partition_after(&self, partition: usize, records: usize) {
        self.plans.lock().push((partition, records));
    }

    fn should_fail(&self, partition: usize, consumed: usize) -> bool {
        // Take the matching plan out under `plans` alone; `fired` is
        // locked only after that guard is released (keeps the two locks
        // order-free for the lock-order suite).
        let plan = {
            let mut plans = self.plans.lock();
            plans
                .iter()
                .position(|(p, after)| *p == partition && consumed >= *after)
                .map(|pos| plans.remove(pos))
        };
        if let Some(plan) = plan {
            self.fired.lock().push(plan);
            true
        } else {
            false
        }
    }

    pub fn fired(&self) -> Vec<(usize, usize)> {
        self.fired.lock().clone()
    }
}

/// One split = one topic partition.
#[derive(Debug, Clone)]
pub struct MqSplit {
    pub topic: String,
    pub partition: usize,
    /// The broker "node" — queue transfers have no SQL-worker locality,
    /// which is part of the §8 trade-off this crate makes observable.
    pub location: String,
}

impl InputSplit for MqSplit {
    fn locations(&self) -> Vec<String> {
        vec![self.location.clone()]
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Consume a topic as ML input.
pub struct MqInputFormat {
    broker: Broker,
    topic: String,
    schema: Schema,
    faults: Option<Arc<ConsumerFaults>>,
}

impl MqInputFormat {
    pub fn new(broker: Broker, topic: impl Into<String>, schema: Schema) -> Self {
        MqInputFormat {
            broker,
            topic: topic.into(),
            schema,
            faults: None,
        }
    }

    pub fn with_faults(mut self, faults: Arc<ConsumerFaults>) -> Self {
        self.faults = Some(faults);
        self
    }
}

impl InputFormat for MqInputFormat {
    fn get_splits(&self) -> Result<Vec<Arc<dyn InputSplit>>> {
        let partitions = self.broker.num_partitions(&self.topic)?;
        Ok((0..partitions)
            .map(|p| {
                Arc::new(MqSplit {
                    topic: self.topic.clone(),
                    partition: p,
                    location: "broker".to_string(),
                }) as Arc<dyn InputSplit>
            })
            .collect())
    }

    fn create_reader(
        &self,
        split: &dyn InputSplit,
        _worker_node: &str,
    ) -> Result<Box<dyn RecordReader>> {
        let s = split
            .as_any()
            .downcast_ref::<MqSplit>()
            .ok_or_else(|| SqlmlError::Transfer("MqInputFormat got a foreign split".into()))?;
        Ok(Box::new(MqRecordReader {
            broker: self.broker.clone(),
            split: s.clone(),
            schema: self.schema.clone(),
            faults: self.faults.clone(),
            offset: 0,
            failures: 0,
        }))
    }
}

/// Reader over one topic partition, one record per call. Each record is
/// one numeric frame, and [`PartitionBlock::push_frame`] lands a frame
/// whole or not at all, so the offset of the first record not yet pushed
/// is the exactly-once watermark: after any failure (an injected fault, a
/// read error, a record that does not decode) the next attempt reads the
/// log from there — the committed-offset replay of a Kafka consumer.
struct MqRecordReader {
    broker: Broker,
    split: MqSplit,
    schema: Schema,
    faults: Option<Arc<ConsumerFaults>>,
    /// Records pushed into the caller's block: the next offset to read.
    offset: usize,
    /// Failed attempts so far, against [`MAX_CONSUME_ATTEMPTS`].
    failures: u32,
}

impl MqRecordReader {
    /// Push the record at `self.offset`: its row count, or `None` at the
    /// sealed end of the partition.
    fn push_next(&self, out: &mut PartitionBlock) -> Result<Option<usize>> {
        let (topic, partition) = (&self.split.topic, self.split.partition);
        if let Some(f) = &self.faults {
            if f.should_fail(partition, self.offset) {
                return Err(SqlmlError::InjectedFault(format!(
                    "consumer of {topic}/{partition} killed after {} records",
                    self.offset
                )));
            }
        }
        let Some(record) =
            (self.broker).read(topic, partition, self.offset as u64, CONSUME_TIMEOUT)?
        else {
            return Ok(None);
        };
        // Guard against schema drift between publisher and consumer.
        let arity = NumericFrame::parse(&record)?.cols();
        if arity != self.schema.len() {
            return Err(SqlmlError::Transfer(format!(
                "record arity {arity} does not match schema arity {}",
                self.schema.len()
            )));
        }
        out.push_frame(&record, 0).map(Some)
    }
}

impl RecordReader for MqRecordReader {
    /// The next record's rows (records without rows are passed over); 0
    /// at the sealed end of the partition.
    fn next_batch(&mut self, out: &mut PartitionBlock) -> Result<usize> {
        loop {
            match self.push_next(out) {
                Ok(None) => return Ok(0),
                Ok(Some(rows)) => {
                    self.offset += 1;
                    if rows > 0 {
                        return Ok(rows);
                    }
                }
                Err(e) => {
                    self.failures += 1;
                    if self.failures >= MAX_CONSUME_ATTEMPTS {
                        return Err(e);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use sqlml_common::codec::{encode_numeric_frame, NumericColumn};
    use sqlml_common::schema::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    /// One record: a numeric frame of `rows` rows of integer columns.
    fn frame(rows: usize, columns: &[&[i64]]) -> Vec<u8> {
        let columns: Vec<_> = columns
            .iter()
            .map(|c| NumericColumn::int(c, None))
            .collect();
        let mut buf = Vec::new();
        encode_numeric_frame(&columns, 0..rows, &mut buf).unwrap();
        buf
    }

    fn publish(broker: &Broker, topic: &str, partition: usize, records: Vec<Vec<u8>>) {
        for record in records {
            broker.append(topic, partition, record).unwrap();
        }
        broker.seal(topic, partition).unwrap();
    }

    /// Read one split to its end; the first column of every row.
    fn read_split(fmt: &MqInputFormat, split: &dyn InputSplit) -> Result<Vec<f64>> {
        let mut reader = fmt.create_reader(split, "node-0")?;
        let mut block = PartitionBlock::new(None);
        while reader.next_batch(&mut block)? > 0 {}
        let data = sqlml_mlengine::Dataset::from_blocks(vec![block])?;
        Ok(data.iter().map(|p| p.features[0]).collect())
    }

    #[test]
    fn consumes_all_partitions() {
        let broker = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 2).unwrap();
        publish(&broker, "t", 0, vec![frame(2, &[&[1, 2]])]);
        publish(&broker, "t", 1, vec![frame(1, &[&[3]]), frame(0, &[&[]])]);
        let fmt = MqInputFormat::new(broker, "t", schema());
        let splits = fmt.get_splits().unwrap();
        assert_eq!(splits.len(), 2);
        assert_eq!(read_split(&fmt, splits[0].as_ref()).unwrap(), [1.0, 2.0]);
        assert_eq!(read_split(&fmt, splits[1].as_ref()).unwrap(), [3.0]);
    }

    #[test]
    fn schema_arity_mismatch_is_detected() {
        let broker = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        publish(&broker, "t", 0, vec![frame(1, &[&[1], &[2]])]); // two columns
        let fmt = MqInputFormat::new(broker, "t", schema()); // expects one
        let splits = fmt.get_splits().unwrap();
        let err = read_split(&fmt, splits[0].as_ref()).unwrap_err();
        assert!(err.to_string().contains("record arity 2"), "{err}");
    }

    /// A record cut short at any byte is an error — after the reader's
    /// attempts are spent, never a panic — and the records before it
    /// land once.
    #[test]
    fn a_truncated_record_is_an_error_not_a_panic() {
        let whole = frame(3, &[&[7, 8, 9]]);
        for cut in 0..whole.len() {
            let broker = Broker::new(BrokerConfig::default());
            broker.create_topic("t", 1).unwrap();
            publish(
                &broker,
                "t",
                0,
                vec![frame(1, &[&[6]]), whole[..cut].to_vec()],
            );
            let fmt = MqInputFormat::new(broker, "t", schema());
            let mut reader = fmt
                .create_reader(&*fmt.get_splits().unwrap()[0], "n")
                .unwrap();
            let mut block = PartitionBlock::new(None);
            assert_eq!(reader.next_batch(&mut block).unwrap(), 1);
            let err = reader.next_batch(&mut block).unwrap_err();
            assert!(err.to_string().contains("corrupt numeric frame"), "{err}");
            assert_eq!(block.len(), 1, "cut at {cut}");
        }
    }

    #[test]
    fn missing_topic_fails_at_split_time() {
        let broker = Broker::new(BrokerConfig::default());
        let fmt = MqInputFormat::new(broker, "missing", schema());
        assert!(fmt.get_splits().is_err());
    }
}
