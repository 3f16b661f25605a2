//! The paper's primary contribution, assembled: a generic integration of
//! big SQL and big ML systems.
//!
//! This crate wires the substrates together into the three end-to-end
//! approaches the evaluation (§7) compares:
//!
//! * **naive** — SQL result materialized on the DFS, transformed by an
//!   external tool (our stand-in for Jaql) reading and writing DFS files,
//!   then ingested by the ML job from the DFS;
//! * **insql** — transformations pushed into the SQL engine as UDFs
//!   (pipelined with the preparation query), one DFS hand-off;
//! * **insql+stream** — In-SQL transformation plus the parallel streaming
//!   transfer: no file system between the systems at all.
//!
//! Plus the §5 caching variants of each (reuse a recode map, or the whole
//! transformed result), a synthetic workload generator reproducing the
//! paper's carts/users scenario, and a [`cluster::SimCluster`] that
//! stands in for the paper's 5-server testbed.

pub mod cluster;
pub mod naive;
pub mod pipeline;
pub mod scoring;
pub mod workload;

pub use cluster::{ClusterConfig, SimCluster};
pub use pipeline::{CacheMode, Pipeline, PipelineReport, PipelineRequest, Strategy};
pub use scoring::{register_model_udf, ModelUdf};
pub use sqlml_rewriter::describe_prep;
pub use workload::{Warehouse, Workload, WorkloadScale};
