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
//!   [`RejectReason`], never silently dropped or unboundedly buffered —
//!   plus an opt-in client-side [`RetryPolicy`] (bounded exponential
//!   backoff + jitter, deadline-aware give-up) for riding out transient
//!   `QueueFull` rejects;
//! * **weighted fair scheduling** across tenants: virtual-finish-time
//!   stamps (WFQ) so a tenant with weight 2 drains twice as fast as one
//!   with weight 1, and no tenant starves behind another's burst. The
//!   cost model is **cache-aware**: a query the §5 cache probe predicts
//!   will be (nearly) free is admitted at a discounted cost, and the
//!   *measured* cost is settled back onto the tenant's virtual clock
//!   after the run, so mispredictions never compound;
//! * a **shard router** ([`ShardRouter`]) placing each admitted query on
//!   one of N replicated-warehouse shards by a score combining queue
//!   depth, busy executors, and cache affinity (probed via the
//!   non-materializing [`sqlml_cache::CacheManager::probe`]);
//! * **bounded cross-shard work stealing**: an idle shard's executor may
//!   claim the head-of-line query of the most-backlogged peer — never a
//!   cache-pinned one — and run it entirely on its own cluster;
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
//!   whether the query was stolen or migrated off a drained shard);
//! * an **elastic fleet**: shards join ([`QueryScheduler::add_shard`])
//!   and leave ([`QueryScheduler::remove_shard`]) at runtime behind an
//!   epoch-versioned registry, with a two-phase drain that migrates or
//!   drains queued work and settles WFQ costs before the shard's
//!   executors are joined.
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
//! // Pin a query to a specific shard via SubmitOpts:
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
pub mod retry;
pub mod router;
pub mod scheduler;
mod stats;

pub use admission::{QuerySpec, SubmitOpts};
pub use cost::{probe_discount, FULL_DISCOUNT, MAP_DISCOUNT};
pub use drain::{DrainPolicy, ShardRemoval};
pub use handle::{QueryHandle, QueryLatency, QueryStatus};
pub use queue::{FairQueue, Popped, RejectReason, Rejected};
pub use retry::{retry_queue_full, Clock, RetryPolicy, SystemClock};
pub use router::{Placement, ShardLoad, ShardRouter};
pub use scheduler::{QueryScheduler, SchedulerBuilder, SchedulerConfig, ShardTemplate};
pub use stats::{ClusterCounters, SchedStatsSnapshot, ShardStat};
