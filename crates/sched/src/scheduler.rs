//! The query scheduler: configuration, construction, and fleet
//! membership. `QueryScheduler` is one struct with an `impl` block per
//! seam, each in the sibling module named for it: `admission` (submit →
//! validate → place → admit), `executor` (the per-shard worker loop and
//! stealing), `drain` (`remove_shard` and backlog migration), `stats`
//! (counters and snapshots). `handle` holds the per-query state and
//! `cost` the WFQ cost model they all charge through. The crate docs
//! walk a query through them.
//!
//! The fleet is **elastic**: shard membership lives in an epoch-versioned
//! `ShardRegistry` rather than a fixed vector, so
//! [`QueryScheduler::add_shard`] can boot and publish a fresh warehouse
//! at runtime and [`QueryScheduler::remove_shard`] can drain one out —
//! placement, stealing, and stats always iterate one consistent
//! snapshot. Shards are addressed by **stable id** (assigned at
//! registration, never reused), which is what `placed_on`/`ran_on`,
//! pinned submissions, and per-cluster counters report. Construction
//! goes through [`SchedulerBuilder`] (`QueryScheduler::builder(config)`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sqlml_cache::CacheManager;
use sqlml_common::lockorder::TrackedMutex;
use sqlml_common::{Result, SqlmlError};
use sqlml_core::workload::WorkloadScale;
use sqlml_core::{ClusterConfig, SimCluster};

use crate::handle::Job;
use crate::registry::ShardRegistry;
use crate::router::ShardRouter;
use crate::stats::Stats;

/// Serving-plane tunables.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Executor threads **per shard** (`0` counts as 1) — the maximum
    /// number of pipelines executing on one cluster at once, and the
    /// shard's only concurrency bound.
    pub max_concurrent: usize,
    /// Bounded admission-queue capacity per shard (queued, not yet
    /// executing).
    pub queue_capacity: usize,
    /// Deadline applied to queries that don't carry their own (`None` =
    /// unbounded). Measured from submission, so queue wait counts.
    pub default_deadline: Option<Duration>,
    /// Share one §5 [`CacheManager`] per shard across that shard's
    /// queries.
    pub enable_cache: bool,
    /// Cache-aware serving: probe shard caches for placement affinity
    /// and admit predicted cache hits at a discounted WFQ cost (measured
    /// cost settles back after the run). Off = pure load routing at full
    /// cost — the ablation baseline.
    pub cache_aware: bool,
    /// Allow an idle shard to claim the head-of-line query of the
    /// most-backlogged peer (never a cache-pinned one).
    pub work_stealing: bool,
    /// Minimum victim backlog before a steal is attempted; bounds how
    /// aggressively idle shards raid peers that are merely busy, not
    /// backlogged.
    pub steal_min_backlog: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_concurrent: 4,
            queue_capacity: 32,
            default_deadline: None,
            enable_cache: true,
            cache_aware: true,
            work_stealing: true,
            steal_min_backlog: 2,
        }
    }
}

/// The recipe for booting one more identical shard warehouse: the same
/// (config, scale, seed) triple [`SimCluster::start_shards`] replicates
/// at fleet boot, kept so [`QueryScheduler::add_shard`] can boot an
/// identical replacement at runtime. The identical seed makes the new
/// warehouse byte-identical to its peers, so results never depend on
/// placement.
#[derive(Debug, Clone)]
pub struct ShardTemplate {
    pub config: ClusterConfig,
    pub scale: WorkloadScale,
    pub seed: u64,
}

/// Builds a [`QueryScheduler`]: the one construction path, for fixed
/// and elastic fleets alike.
///
/// Shards come from either (or both) of:
/// * [`SchedulerBuilder::cluster`] / [`SchedulerBuilder::clusters`] —
///   pre-booted [`SimCluster`]s the caller owns;
/// * [`SchedulerBuilder::warehouse`] + [`SchedulerBuilder::shards`] — a
///   [`ShardTemplate`] the builder boots `n` identical shards from. The
///   template is retained, which is what arms
///   [`QueryScheduler::add_shard`].
pub struct SchedulerBuilder {
    config: SchedulerConfig,
    clusters: Vec<Arc<SimCluster>>,
    template: Option<ShardTemplate>,
    template_shards: usize,
}

impl SchedulerBuilder {
    fn new(config: SchedulerConfig) -> SchedulerBuilder {
        SchedulerBuilder {
            config,
            clusters: Vec::new(),
            template: None,
            template_shards: 1,
        }
    }

    /// Add one pre-booted cluster as a shard.
    pub fn cluster(mut self, cluster: Arc<SimCluster>) -> SchedulerBuilder {
        self.clusters.push(cluster);
        self
    }

    /// Add pre-booted clusters as shards (replicated warehouses; see
    /// [`SimCluster::start_shards`]).
    pub fn clusters(mut self, clusters: Vec<Arc<SimCluster>>) -> SchedulerBuilder {
        self.clusters.extend(clusters);
        self
    }

    /// Set the warehouse template: `build` boots
    /// [`SchedulerBuilder::shards`] identical shards from it, and
    /// [`QueryScheduler::add_shard`] boots one more on demand.
    pub fn warehouse(mut self, config: ClusterConfig, scale: WorkloadScale, seed: u64) -> Self {
        self.template = Some(ShardTemplate {
            config,
            scale,
            seed,
        });
        self
    }

    /// How many shards to boot from the warehouse template (default 1;
    /// ignored without [`SchedulerBuilder::warehouse`]).
    pub fn shards(mut self, n: usize) -> SchedulerBuilder {
        self.template_shards = n.max(1);
        self
    }

    /// Boot any template shards and assemble the scheduler. Fails only
    /// on template boot errors or a shardless configuration.
    pub fn build(mut self) -> Result<QueryScheduler> {
        if let Some(template) = &self.template {
            for _ in 0..self.template_shards {
                self.clusters.push(SimCluster::start_seeded(
                    template.config.clone(),
                    template.scale,
                    template.seed,
                )?);
            }
        }
        if self.clusters.is_empty() {
            return Err(SqlmlError::Execution(
                "a scheduler needs at least one cluster or a warehouse template".into(),
            ));
        }
        Ok(QueryScheduler::assemble(
            self.clusters,
            self.config,
            self.template,
        ))
    }
}

/// The serving plane over an elastic fleet of [`SimCluster`] shards
/// (possibly a fleet of one). Built via [`QueryScheduler::builder`].
pub struct QueryScheduler {
    pub(crate) registry: Arc<ShardRegistry<Job>>,
    pub(crate) router: ShardRouter,
    pub(crate) stats: Arc<Stats>,
    pub(crate) config: SchedulerConfig,
    /// Recipe for booting one more shard; arms [`QueryScheduler::add_shard`].
    template: Option<ShardTemplate>,
    /// Fleet-wide tenant weights, applied to every shard's queue — held
    /// across shard registration so a concurrent weight change can never
    /// miss a joining shard. Outermost scheduler lock (see
    /// `xtask/lock-order.manifest`).
    tenants: TrackedMutex<HashMap<String, u32>>,
    /// Executor threads by shard id, so `remove_shard` can join exactly
    /// the departing shard's threads.
    pub(crate) workers: TrackedMutex<HashMap<usize, Vec<JoinHandle<()>>>>,
    pub(crate) next_id: AtomicU64,
}

impl QueryScheduler {
    /// Start building a scheduler: `QueryScheduler::builder(config)
    /// .cluster(c).build()`, or `.warehouse(cfg, scale, seed).shards(n)`
    /// for a template-booted (and elastically growable) fleet.
    pub fn builder(config: SchedulerConfig) -> SchedulerBuilder {
        SchedulerBuilder::new(config)
    }

    /// Register the clusters and spin up their executor threads. The
    /// fleet is assumed to host identical warehouses (see
    /// [`SimCluster::start_shards`]): the router may place — and an idle
    /// shard may steal — any unpinned request onto any shard.
    fn assemble(
        clusters: Vec<Arc<SimCluster>>,
        config: SchedulerConfig,
        template: Option<ShardTemplate>,
    ) -> QueryScheduler {
        // The scheduler's lock hierarchy, declared up front so the
        // instrumented build flags an inversion the moment it happens
        // rather than only when a full cycle forms. `sched.tenants` is
        // outermost: weight changes fan out to every queue under it, and
        // shard registration happens under it so a concurrent
        // `set_tenant_weight` can never miss a joining shard.
        sqlml_common::declare_order(&[
            ("sched.tenants", "sched.queue.state"),
            ("sched.tenants", "sched.workers"),
            ("sched.tenants", "sched.registry"),
            ("sched.workers", "sched.registry"),
        ]);
        let sched = QueryScheduler {
            registry: Arc::new(ShardRegistry::new()),
            router: ShardRouter::new(),
            stats: Arc::new(Stats::default()),
            config,
            template,
            tenants: TrackedMutex::new("sched.tenants", HashMap::new()),
            workers: TrackedMutex::new("sched.workers", HashMap::new()),
            next_id: AtomicU64::new(1),
        };
        for cluster in clusters {
            sched.register_shard(cluster);
        }
        sched
    }

    /// Build a shard entry around a booted cluster, spawn its executor
    /// threads, and publish it to the registry — all under the tenant
    /// and worker locks, so weight changes, shutdown, and other resizes
    /// serialize against the registration. Returns the stable shard id.
    fn register_shard(&self, cluster: Arc<SimCluster>) -> usize {
        let cache = self
            .config
            .enable_cache
            .then(|| Arc::new(CacheManager::new(cluster.engine.clone())));
        let entry = self
            .registry
            .build_entry(cluster, self.config.queue_capacity, cache);
        let tenants = self.tenants.lock();
        for (tenant, weight) in tenants.iter() {
            entry.queue.set_weight(tenant, *weight);
        }
        let mut workers = self.workers.lock();
        let handles = self.spawn_executors(&entry);
        let id = entry.id();
        workers.insert(id, handles);
        self.registry.insert(entry);
        id
    }

    /// Stable ids of the current fleet, in registration order.
    pub fn shard_ids(&self) -> Vec<usize> {
        self.registry
            .snapshot()
            .shards()
            .iter()
            .map(|s| s.id())
            .collect()
    }

    /// Boot one more shard from the warehouse template and join it to
    /// the fleet: the new shard participates in placement and work
    /// stealing the moment this returns. Errors if the scheduler was
    /// built from pre-booted clusters without a template, or if the
    /// warehouse boot itself fails. Returns the new shard's stable id.
    pub fn add_shard(&self) -> Result<usize> {
        let template = self.template.clone().ok_or_else(|| {
            SqlmlError::Execution(
                "add_shard needs a warehouse template (SchedulerBuilder::warehouse)".into(),
            )
        })?;
        let cluster = SimCluster::start_seeded(template.config, template.scale, template.seed)?;
        let id = self.register_shard(cluster);
        self.stats.shards_added.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Executor threads per shard: `max_concurrent`, at least one.
    pub(crate) fn executors(&self) -> usize {
        self.config.max_concurrent.max(1)
    }

    /// Weighted fair share for a tenant (default 1), applied on every
    /// shard's queue (tenants are fleet-wide identities). Held under the
    /// tenant lock so a shard joining concurrently can never miss the
    /// weight: registration replays the map under the same lock.
    pub fn set_tenant_weight(&self, tenant: &str, weight: u32) {
        let mut tenants = self.tenants.lock();
        tenants.insert(tenant.to_string(), weight.max(1));
        let snap = self.registry.snapshot();
        for shard in snap.shards() {
            shard.queue.set_weight(tenant, weight);
        }
    }

    /// Graceful shutdown — what dropping the scheduler does, by name.
    pub fn shutdown(self) {}
}

impl Drop for QueryScheduler {
    /// Stop admitting, drain everything already queued, and join the
    /// executor threads.
    fn drop(&mut self) {
        let snap = self.registry.snapshot();
        for shard in snap.shards() {
            shard.queue.close();
        }
        let drained: Vec<(usize, Vec<JoinHandle<()>>)> = self.workers.lock().drain().collect();
        for (_, handles) in drained {
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

/// Shared set-up for the scheduler's unit tests: one TINY-workload
/// cluster, a scheduler over it, and the request every test submits.
#[cfg(test)]
pub(crate) mod fixtures {
    use std::sync::Arc;

    use sqlml_core::workload::{WorkloadScale, PREP_QUERY};
    use sqlml_core::{ClusterConfig, PipelineRequest, SimCluster};
    use sqlml_transform::TransformSpec;

    use super::{QueryScheduler, SchedulerConfig};

    pub(crate) fn cluster() -> Arc<SimCluster> {
        let c = SimCluster::start(ClusterConfig::for_tests()).unwrap();
        c.load_workload(WorkloadScale::TINY, 11).unwrap();
        Arc::new(c)
    }

    pub(crate) fn sched_with(config: SchedulerConfig) -> QueryScheduler {
        QueryScheduler::builder(config)
            .cluster(cluster())
            .build()
            .unwrap()
    }

    pub(crate) fn request() -> PipelineRequest {
        PipelineRequest {
            prep_sql: PREP_QUERY.to_string(),
            spec: TransformSpec::new(&["gender"]),
            ml_command: "svm label=4 iterations=10".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_without_shards_is_a_typed_error() {
        let err = match QueryScheduler::builder(SchedulerConfig::default()).build() {
            Ok(_) => panic!("an empty builder must not produce a scheduler"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("at least one cluster"), "{err}");
    }
}
