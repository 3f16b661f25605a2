//! Message-queue data transfer — the paper's §8 future work, built out.
//!
//! > "As future work, we plan to investigate using a message passing
//! > system like Kafka to pass the data between SQL and ML workers.
//! > Kafka would guarantee at least one read, in case of failures. Kafka
//! > could also be the system to cache the data when the ML workers are
//! > not fast enough to consume the data."
//!
//! This crate implements that design against a Kafka-like [`Broker`]:
//!
//! * **durable partitioned logs** — each topic is a set of append-only
//!   record logs with monotone offsets; records survive consumer
//!   failures, so a crashed reader just replays from its last committed
//!   offset (at-least-once; a record lands in the reader's block whole
//!   or not at all, so resuming at the first record not yet pushed is
//!   exactly-once);
//! * **producer/consumer decoupling** — the log absorbs the whole
//!   stream, so slow (or not-yet-started) ML workers never block the SQL
//!   side, and the *same* published data can feed many ML jobs (the
//!   caching use the paper anticipates);
//! * **no sender restart** — unlike §6's socket protocol, a consumer
//!   failure never reaches the SQL side: the producer publishes once.
//!
//! The pieces mirror the socket-based `sqlml-transfer` crate, and share
//! its wire: a [`MqTransferUdf`] table UDF publishes a table from inside
//! the SQL engine (one topic partition per SQL worker, one numeric frame
//! per record, cut as the socket path cuts them), and an [`MqInputFormat`]
//! lets any unmodified ML job consume it through the same frame decoder.
//! Both transfers refuse a table holding a string before anything moves
//! (`PartitionedTable::check_numeric`).

pub mod broker;
pub mod input_format;
pub mod session;
pub mod udf;

pub use broker::{Broker, BrokerConfig, TopicStats};
pub use input_format::{ConsumerFaults, MqInputFormat};
pub use session::{publish_table, run_mq_job, MqPipelineOutcome};
pub use udf::MqTransferUdf;
