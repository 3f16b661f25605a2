//! A distributed "big ML" engine that ingests data through Hadoop-style
//! `InputFormat`s.
//!
//! This crate stands in for Spark MLlib / Mahout / SystemML in the paper's
//! architecture. Its defining property — the one the paper's generality
//! argument rests on — is that **every job reads its input through the
//! [`input::InputFormat`] interface**: the engine asks the format for
//! [`input::InputSplit`]s (with locality hints), assigns splits to ML
//! workers preferring colocated ones, and each worker pulls records
//! through a [`input::RecordReader`]. Swapping `TextInputFormat` (files on
//! the DFS) for the transfer crate's `SqlStreamInputFormat` (live TCP
//! streams from SQL workers) requires **no change to any algorithm**.
//!
//! Included algorithms (all parallel over dataset partitions):
//! SVM with SGD (the paper's evaluation algorithm), logistic regression,
//! linear regression, Gaussian naive Bayes, decision trees (CART), and
//! k-means.

pub mod dataset;
pub mod input;
pub mod job;
pub mod kmeans;
pub mod linalg;
pub mod linreg;
pub mod logreg;
pub mod metrics;
pub mod naive_bayes;
pub mod svm;
pub mod tree;

pub use dataset::{Dataset, LabeledPoint, PartitionBlock, PartitionView, PointRef};
pub use input::{InputFormat, InputSplit, MemoryInputFormat, RecordReader, TextInputFormat};
pub use job::{IngestReport, JobConfig, JobRunner, TrainedModel, TrainingSpec};
