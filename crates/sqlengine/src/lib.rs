//! An MPP "big SQL" engine with UDF extensibility.
//!
//! This crate stands in for the paper's IBM Big SQL / Hive / Impala layer:
//! a SQL system that stores tables partitioned across a cluster, executes
//! queries with intra-query parallelism, and — critically for the paper's
//! techniques — can be extended with **scalar UDFs** (usable in any
//! expression) and **parallel table UDFs** (operators that run once per
//! partition, used to implement the In-SQL transformations of §2 and the
//! streaming-transfer source of §3).
//!
//! Components:
//!
//! * [`lexer`], [`ast`], [`parser`] — SQL front end (SELECT/PROJECT/JOIN/
//!   DISTINCT/GROUP BY/ORDER BY/LIMIT, `CREATE TABLE`, `CREATE TABLE AS`,
//!   table-UDF invocation via `TABLE(udf(...))` in FROM).
//! * [`catalog`] — tables plus scalar/table UDF registries.
//! * [`table`] — partitioned storage with per-partition home nodes
//!   (locality) and DFS text import/export; a partition is a [`mod@column`]
//!   batch: typed value vectors with validity, strings as per-partition
//!   dictionary codes.
//! * [`expr`] — compiled expressions with SQL three-valued logic, one
//!   batch-at-a-time evaluator.
//! * [`plan`], [`planner`], [`optimizer`] — logical plans, name
//!   resolution, join extraction from WHERE, predicate pushdown and
//!   broadcast-side selection.
//! * [`executor`] — parallel partition-at-a-time execution across worker
//!   threads, on column batches.
//! * [`udf`] — the UDF traits.
//! * [`engine`] — the public facade.

pub mod ast;
pub mod catalog;
pub mod column;
pub mod engine;
pub mod executor;
pub mod expr;
pub mod functions;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod table;
pub mod udf;
pub mod validate;

pub use catalog::Catalog;
pub use column::{Batch, Column};
pub use engine::{Engine, EngineConfig};
pub use table::PartitionedTable;
pub use udf::{PartitionCtx, ScalarUdf, TableUdf};
