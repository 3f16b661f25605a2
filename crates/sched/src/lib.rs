//! The query-serving plane: many concurrent [`sqlml_core::PipelineRequest`]s
//! multiplexed over a fleet of [`sqlml_core::SimCluster`] shards.
//!
//! The paper's premise is that SQL+analytics pipelines are a *recurring,
//! shared* workload — §5's caching only pays off when many queries hit
//! the same cluster. This crate supplies the subsystem that makes that
//! real: a serving layer in front of [`sqlml_core::Pipeline`] with
//!
//! * a **bounded admission queue** per shard with backpressure — a full
//!   queue (or an invalid request) is rejected immediately with a typed
//!   [`RejectReason`], never silently dropped or unboundedly buffered.
//!   What to do with a `QueueFull` reject (shed, back off, surface it)
//!   is the caller's choice;
//! * **weighted fair scheduling** across tenants: virtual-finish-time
//!   stamps (WFQ) so a tenant with weight 2 drains twice as fast as one
//!   with weight 1, and no tenant starves behind another's burst. The
//!   cost model is **cache-aware**: a query placed on a shard whose §5
//!   cache holds its full result is admitted at a tenth of its cost;
//! * a **shard router** ([`ShardRouter`]) placing each admitted query on
//!   one of N replicated-warehouse shards by a score combining queue
//!   depth, busy executors, and cache affinity (probed via the
//!   non-materializing [`sqlml_cache::CacheManager::probe`]). Placement
//!   is the one balancing decision: a query runs entirely on the shard
//!   it was placed on (or pinned to), unless that shard drains out of
//!   the fleet while the query is still queued;
//! * **one concurrency bound per shard**: its pool of
//!   [`SchedulerConfig::max_concurrent`] executor threads, each running
//!   one pipeline at a time, so at most that many pipelines share a
//!   cluster at once;
//! * **per-query deadlines and cooperative cancellation** threaded
//!   through the SQL → transfer → ML stages (see
//!   [`sqlml_common::CancelToken`]), unwinding through the normal error
//!   path so no threads, sockets, spill files, or temp tables leak —
//!   wherever the query ended up running;
//! * per-query [`QueryHandle`]s exposing status, the result, the
//!   queued/running/total latency split, and placement (which shard, and
//!   whether the query was migrated off a drained shard);
//! * an **elastic fleet**: shards join ([`QueryScheduler::add_shard`])
//!   and leave ([`QueryScheduler::remove_shard`]) at runtime behind an
//!   epoch-versioned registry, with a two-phase drain that migrates or
//!   drains queued work before the shard's executors are joined.
//!
//! Which of these policies pay is decided on a deterministic replay of
//! the `serve-mix` workload (the `replay` test module), not by switches
//! in the product.
//!
//! Schedulers are built with [`SchedulerBuilder`]:
//!
//! ```no_run
//! # use sqlml_core::{ClusterConfig, PipelineRequest, Strategy, WorkloadScale};
//! # use sqlml_sched::{DrainPolicy, QueryScheduler, QuerySpec, SchedulerConfig, SubmitOpts};
//! # use sqlml_transform::TransformSpec;
//! let sched = QueryScheduler::builder(SchedulerConfig::default())
//!     .warehouse(ClusterConfig::for_tests(), WorkloadScale::TINY, 42)
//!     .shards(2)
//!     .build()
//!     .unwrap();
//! let handle = sched
//!     .submit(QuerySpec::new(
//!         "analytics",
//!         PipelineRequest {
//!             prep_sql: "SELECT age, amount, abandoned FROM carts".into(),
//!             spec: TransformSpec::default(),
//!             ml_command: "svm label=2 iterations=10".into(),
//!         },
//!         Strategy::InSqlStream,
//!     ))
//!     .unwrap();
//! let result = handle.wait();
//! // Grow under load, then drain the newcomer back out; queued work
//! // migrates to the survivors and no handle is ever lost.
//! let id = sched.add_shard().unwrap();
//! let removal = sched.remove_shard(id, DrainPolicy::Migrate).unwrap();
//! # let _ = (result, removal);
//! // Pin a query to a specific shard via SubmitOpts; it runs there:
//! let pinned = sched.submit_opts(
//!     QuerySpec::new(
//!         "analytics",
//!         PipelineRequest {
//!             prep_sql: "SELECT 1".into(),
//!             spec: TransformSpec::default(),
//!             ml_command: "svm label=0 iterations=1".into(),
//!         },
//!         Strategy::InSql,
//!     ),
//!     SubmitOpts::pinned(0),
//! );
//! # let _ = pinned;
//! ```

mod admission;
mod cost;
mod drain;
mod executor;
mod handle;
pub mod queue;
mod registry;
pub mod router;
pub mod scheduler;
mod stats;

pub use admission::{QuerySpec, SubmitOpts};
pub use cost::{probe_discount, FULL_DISCOUNT};
pub use drain::{DrainPolicy, ShardRemoval};
pub use handle::{QueryHandle, QueryLatency, QueryStatus};
pub use queue::{FairQueue, RejectReason, Rejected};
pub use router::{Placement, ShardLoad, ShardRouter};
pub use scheduler::{QueryScheduler, SchedulerBuilder, SchedulerConfig, ShardTemplate};
pub use stats::{ClusterCounters, SchedStatsSnapshot, ShardStat};

#[cfg(test)]
mod replay;
