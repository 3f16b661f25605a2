//! The Kafka-like broker: topics of append-only, offset-addressed
//! partition logs.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_common::lockorder::{TrackedCondvar, TrackedMutex};
use sqlml_common::{Result, SqlmlError};

/// Broker configuration.
#[derive(Debug, Clone, Default)]
pub struct BrokerConfig {
    /// Optional broker I/O bandwidth in bytes/second (produce and
    /// consume both pay it), modeling a real broker's disk/network.
    pub bytes_per_sec: Option<u64>,
}

/// One partition's log.
#[derive(Debug, Default)]
struct PartitionLog {
    records: Vec<Arc<Vec<u8>>>,
    /// Producer finished: consumers reaching the end see EOF instead of
    /// blocking.
    sealed: bool,
}

#[derive(Debug, Default)]
struct Topic {
    partitions: Vec<PartitionLog>,
}

/// Per-topic counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopicStats {
    pub partitions: usize,
    pub records: usize,
    pub bytes: u64,
    pub sealed_partitions: usize,
}

struct Inner {
    topics: TrackedMutex<HashMap<String, Topic>>,
    appended: TrackedCondvar,
    throttle: Option<sqlml_dfs::Throttle>,
}

/// A shared handle to an in-process broker. Clones address the same
/// topics.
///
/// ```
/// use sqlml_mq::{Broker, broker::BrokerConfig};
/// use std::time::Duration;
///
/// let broker = Broker::new(BrokerConfig::default());
/// broker.create_topic("events", 2).unwrap();
/// broker.append("events", 0, b"hello".to_vec()).unwrap();
/// broker.seal("events", 0).unwrap();
/// let rec = broker
///     .read("events", 0, 0, Duration::from_millis(50))
///     .unwrap()
///     .unwrap();
/// assert_eq!(&*rec, b"hello");
/// // Replay is always possible: the log is durable.
/// assert!(broker.read("events", 0, 0, Duration::from_millis(50)).unwrap().is_some());
/// ```
#[derive(Clone)]
pub struct Broker {
    inner: Arc<Inner>,
}

impl Broker {
    pub fn new(config: BrokerConfig) -> Broker {
        Broker {
            inner: Arc::new(Inner {
                topics: TrackedMutex::new("mq.broker.topics", HashMap::new()),
                appended: TrackedCondvar::new("mq.broker.appended"),
                throttle: config.bytes_per_sec.map(sqlml_dfs::Throttle::new),
            }),
        }
    }

    /// Create (or recreate, truncating) a topic with `partitions` logs.
    pub fn create_topic(&self, name: &str, partitions: usize) -> Result<()> {
        if partitions == 0 {
            return Err(SqlmlError::Transfer(
                "a topic needs at least one partition".into(),
            ));
        }
        let mut topics = self.inner.topics.lock();
        topics.insert(
            name.to_string(),
            Topic {
                partitions: (0..partitions).map(|_| PartitionLog::default()).collect(),
            },
        );
        Ok(())
    }

    pub fn has_topic(&self, name: &str) -> bool {
        self.inner.topics.lock().contains_key(name)
    }

    pub fn num_partitions(&self, topic: &str) -> Result<usize> {
        let topics = self.inner.topics.lock();
        Ok(self.topic(&topics, topic)?.partitions.len())
    }

    fn topic<'a>(&self, topics: &'a HashMap<String, Topic>, name: &str) -> Result<&'a Topic> {
        topics
            .get(name)
            .ok_or_else(|| SqlmlError::Transfer(format!("unknown topic {name:?}")))
    }

    /// Append one record; returns its offset.
    pub fn append(&self, topic: &str, partition: usize, record: Vec<u8>) -> Result<u64> {
        if let Some(t) = &self.inner.throttle {
            t.consume(record.len());
        }
        let mut topics = self.inner.topics.lock();
        let t = topics
            .get_mut(topic)
            .ok_or_else(|| SqlmlError::Transfer(format!("unknown topic {topic:?}")))?;
        let log = t.partitions.get_mut(partition).ok_or_else(|| {
            SqlmlError::Transfer(format!("topic {topic:?} has no partition {partition}"))
        })?;
        if log.sealed {
            return Err(SqlmlError::Transfer(format!(
                "append to sealed partition {topic:?}/{partition}"
            )));
        }
        log.records.push(Arc::new(record));
        let offset = log.records.len() as u64 - 1;
        drop(topics);
        self.inner.appended.notify_all();
        Ok(offset)
    }

    /// Mark a partition complete: consumers at the end see EOF.
    pub fn seal(&self, topic: &str, partition: usize) -> Result<()> {
        let mut topics = self.inner.topics.lock();
        let t = topics
            .get_mut(topic)
            .ok_or_else(|| SqlmlError::Transfer(format!("unknown topic {topic:?}")))?;
        let log = t.partitions.get_mut(partition).ok_or_else(|| {
            SqlmlError::Transfer(format!("topic {topic:?} has no partition {partition}"))
        })?;
        log.sealed = true;
        drop(topics);
        self.inner.appended.notify_all();
        Ok(())
    }

    /// Read the record at `offset`, blocking until it exists or the
    /// partition is sealed (then `Ok(None)` = clean EOF). Errors on
    /// timeout — a stuck producer must not hang consumers forever.
    pub fn read(
        &self,
        topic: &str,
        partition: usize,
        offset: u64,
        timeout: Duration,
    ) -> Result<Option<Arc<Vec<u8>>>> {
        let deadline = Instant::now() + timeout;
        let mut topics = self.inner.topics.lock();
        loop {
            let t = self.topic(&topics, topic)?;
            let log = t.partitions.get(partition).ok_or_else(|| {
                SqlmlError::Transfer(format!("topic {topic:?} has no partition {partition}"))
            })?;
            // An offset past `usize` is past the end, never wrapped
            // onto a real record.
            let at = usize::try_from(offset).ok();
            if let Some(rec) = at.and_then(|at| log.records.get(at)) {
                let rec = Arc::clone(rec);
                drop(topics);
                if let Some(th) = &self.inner.throttle {
                    th.consume(rec.len());
                }
                return Ok(Some(rec));
            }
            if log.sealed {
                return Ok(None);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SqlmlError::Transfer(format!(
                    "timed out waiting for {topic:?}/{partition}@{offset}"
                )));
            }
            self.inner.appended.wait_for(&mut topics, deadline - now);
        }
    }

    /// Current record count of a partition.
    pub fn partition_len(&self, topic: &str, partition: usize) -> Result<u64> {
        let topics = self.inner.topics.lock();
        let t = self.topic(&topics, topic)?;
        t.partitions
            .get(partition)
            .map(|l| l.records.len() as u64)
            .ok_or_else(|| {
                SqlmlError::Transfer(format!("topic {topic:?} has no partition {partition}"))
            })
    }

    pub fn stats(&self, topic: &str) -> Result<TopicStats> {
        let topics = self.inner.topics.lock();
        let t = self.topic(&topics, topic)?;
        Ok(TopicStats {
            partitions: t.partitions.len(),
            records: t.partitions.iter().map(|p| p.records.len()).sum(),
            bytes: t
                .partitions
                .iter()
                .flat_map(|p| p.records.iter())
                .map(|r| r.len() as u64)
                .sum(),
            sealed_partitions: t.partitions.iter().filter(|p| p.sealed).count(),
        })
    }

    /// Drop a topic and its data.
    pub fn delete_topic(&self, name: &str) -> Result<()> {
        self.inner
            .topics
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SqlmlError::Transfer(format!("unknown topic {name:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker() -> Broker {
        Broker::new(BrokerConfig::default())
    }

    #[test]
    fn append_read_round_trip_with_offsets() {
        let b = broker();
        b.create_topic("t", 2).unwrap();
        assert_eq!(b.append("t", 0, vec![1]).unwrap(), 0);
        assert_eq!(b.append("t", 0, vec![2]).unwrap(), 1);
        assert_eq!(b.append("t", 1, vec![3]).unwrap(), 0);
        let timeout = Duration::from_millis(100);
        assert_eq!(*b.read("t", 0, 0, timeout).unwrap().unwrap(), vec![1]);
        assert_eq!(*b.read("t", 0, 1, timeout).unwrap().unwrap(), vec![2]);
        assert_eq!(*b.read("t", 1, 0, timeout).unwrap().unwrap(), vec![3]);
    }

    #[test]
    fn read_blocks_until_append_or_seal() {
        let b = broker();
        b.create_topic("t", 1).unwrap();
        let b2 = b.clone();
        let reader =
            std::thread::spawn(move || b2.read("t", 0, 0, Duration::from_secs(2)).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        b.append("t", 0, vec![9]).unwrap();
        assert_eq!(*reader.join().unwrap().unwrap(), vec![9]);

        // EOF after seal.
        let b3 = b.clone();
        let reader =
            std::thread::spawn(move || b3.read("t", 0, 1, Duration::from_secs(2)).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        b.seal("t", 0).unwrap();
        assert!(reader.join().unwrap().is_none());
    }

    #[test]
    fn read_times_out_on_a_stuck_producer() {
        let b = broker();
        b.create_topic("t", 1).unwrap();
        let err = b.read("t", 0, 0, Duration::from_millis(80)).unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    #[test]
    fn sealed_partitions_reject_appends_but_replay_fine() {
        let b = broker();
        b.create_topic("t", 1).unwrap();
        b.append("t", 0, vec![1]).unwrap();
        b.seal("t", 0).unwrap();
        assert!(b.append("t", 0, vec![2]).is_err());
        // Replay from offset 0 still works — the at-least-once property.
        let timeout = Duration::from_millis(50);
        assert_eq!(*b.read("t", 0, 0, timeout).unwrap().unwrap(), vec![1]);
        assert_eq!(*b.read("t", 0, 0, timeout).unwrap().unwrap(), vec![1]);
        assert!(b.read("t", 0, 1, timeout).unwrap().is_none());
    }

    #[test]
    fn stats_and_lifecycle() {
        let b = broker();
        b.create_topic("t", 3).unwrap();
        b.append("t", 0, vec![0; 10]).unwrap();
        b.append("t", 2, vec![0; 5]).unwrap();
        b.seal("t", 1).unwrap();
        let s = b.stats("t").unwrap();
        assert_eq!(s.partitions, 3);
        assert_eq!(s.records, 2);
        assert_eq!(s.bytes, 15);
        assert_eq!(s.sealed_partitions, 1);
        assert!(b.has_topic("t"));
        b.delete_topic("t").unwrap();
        assert!(!b.has_topic("t"));
        assert!(b.stats("t").is_err());
    }

    #[test]
    fn bad_partition_indices_error() {
        let b = broker();
        b.create_topic("t", 1).unwrap();
        assert!(b.append("t", 5, vec![1]).is_err());
        assert!(b.read("t", 5, 0, Duration::from_millis(10)).is_err());
        assert!(b.create_topic("zero", 0).is_err());
        assert!(b.append("missing", 0, vec![1]).is_err());
    }

    #[test]
    fn recreating_a_topic_truncates_it() {
        let b = broker();
        b.create_topic("t", 1).unwrap();
        b.append("t", 0, vec![1]).unwrap();
        b.create_topic("t", 2).unwrap();
        assert_eq!(b.stats("t").unwrap().records, 0);
        assert_eq!(b.num_partitions("t").unwrap(), 2);
    }
}
