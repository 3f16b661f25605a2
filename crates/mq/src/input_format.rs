//! The ML-side `MqInputFormat`: consume a topic through the standard
//! `InputFormat` interface, with replay-on-failure.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use sqlml_common::lockorder::TrackedMutex;
use sqlml_common::{codec, Result, Row, Schema, SqlmlError};
use sqlml_mlengine::dataset::PartitionBlock;
use sqlml_mlengine::input::{InputFormat, InputSplit, RecordReader};

use crate::broker::Broker;

/// How long a consumer waits for the producer before giving up.
pub const CONSUME_TIMEOUT: Duration = Duration::from_secs(60);

/// How many times a reader replays its partition after an (injected or
/// real) failure.
pub const MAX_CONSUME_ATTEMPTS: u32 = 8;

/// Deliberate consumer-side failures for the fault tests: "(partition,
/// fail after N records)" plans, each firing once.
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
            drained: false,
            faults: self.faults.clone(),
        }))
    }
}

/// Reader over one topic partition. Drains the whole partition (possibly
/// replaying after failures — the log makes replay always possible)
/// before yielding the first row, so delivery is exactly-once per split.
struct MqRecordReader {
    broker: Broker,
    split: MqSplit,
    schema: Schema,
    drained: bool,
    faults: Option<Arc<ConsumerFaults>>,
}

impl MqRecordReader {
    fn drain(&self) -> Result<Vec<Row>> {
        let mut last_err = None;
        for _ in 0..MAX_CONSUME_ATTEMPTS {
            match self.consume_from_start() {
                Ok(rows) => return Ok(rows),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| SqlmlError::Transfer("consume failed".into())))
    }

    /// One consume attempt: replay the partition from offset 0 — the
    /// at-least-once read the paper wants from Kafka.
    fn consume_from_start(&self) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        let mut offset = 0u64;
        let mut consumed_records = 0usize;
        loop {
            if let Some(f) = &self.faults {
                if f.should_fail(self.split.partition, consumed_records) {
                    return Err(SqlmlError::InjectedFault(format!(
                        "consumer of {}/{} killed after {consumed_records} records",
                        self.split.topic, self.split.partition
                    )));
                }
            }
            match self.broker.read(
                &self.split.topic,
                self.split.partition,
                offset,
                CONSUME_TIMEOUT,
            )? {
                Some(record) => {
                    for row in codec::decode_compact_batch(&record)? {
                        // Guard against schema drift between publisher
                        // and consumer.
                        if row.len() != self.schema.len() {
                            return Err(SqlmlError::Transfer(format!(
                                "record arity {} does not match schema arity {}",
                                row.len(),
                                self.schema.len()
                            )));
                        }
                        rows.push(row);
                    }
                    offset += 1;
                    consumed_records += 1;
                }
                None => return Ok(rows), // sealed: clean EOF
            }
        }
    }
}

impl RecordReader for MqRecordReader {
    /// The whole partition in one call, once the drain succeeded.
    fn next_batch(&mut self, out: &mut PartitionBlock) -> Result<usize> {
        if self.drained {
            return Ok(0);
        }
        let rows = self.drain()?;
        self.drained = true;
        for row in &rows {
            out.push_record(row)?;
        }
        Ok(rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use sqlml_common::row;
    use sqlml_common::schema::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    fn append(broker: &Broker, topic: &str, partition: usize, rows: &[Row]) {
        let mut buf = Vec::new();
        codec::encode_compact_batch(rows, &mut buf).unwrap();
        broker.append(topic, partition, buf).unwrap();
    }

    fn publish(broker: &Broker, topic: &str, partition: usize, rows: &[Row]) {
        append(broker, topic, partition, rows);
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
        publish(&broker, "t", 0, &[row![1i64], row![2i64]]);
        publish(&broker, "t", 1, &[row![3i64]]);
        let fmt = MqInputFormat::new(broker, "t", schema());
        let splits = fmt.get_splits().unwrap();
        assert_eq!(splits.len(), 2);
        assert_eq!(read_split(&fmt, splits[0].as_ref()).unwrap(), [1.0, 2.0]);
        assert_eq!(read_split(&fmt, splits[1].as_ref()).unwrap(), [3.0]);
    }

    #[test]
    fn consumer_fault_replays_from_the_log() {
        let broker = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        // Three records of one row each.
        for i in 0..3i64 {
            append(&broker, "t", 0, &[row![i]]);
        }
        broker.seal("t", 0).unwrap();

        let faults = Arc::new(ConsumerFaults::new());
        faults.fail_partition_after(0, 2);
        let fmt = MqInputFormat::new(broker, "t", schema()).with_faults(Arc::clone(&faults));
        let splits = fmt.get_splits().unwrap();
        // Exactly-once despite the mid-read failure.
        let rows = read_split(&fmt, splits[0].as_ref()).unwrap();
        assert_eq!(rows, [0.0, 1.0, 2.0]);
        assert_eq!(faults.fired(), vec![(0, 2)]);
    }

    #[test]
    fn schema_arity_mismatch_is_detected() {
        let broker = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        publish(&broker, "t", 0, &[row![1i64, 2i64]]); // two columns
        let fmt = MqInputFormat::new(broker, "t", schema()); // expects one
        let splits = fmt.get_splits().unwrap();
        let err = read_split(&fmt, splits[0].as_ref()).unwrap_err();
        assert!(err.to_string().contains("record arity 2"), "{err}");
    }

    #[test]
    fn missing_topic_fails_at_split_time() {
        let broker = Broker::new(BrokerConfig::default());
        let fmt = MqInputFormat::new(broker, "missing", schema());
        assert!(fmt.get_splits().is_err());
    }
}
