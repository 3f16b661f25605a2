//! The query scheduler: worker threads executing admitted pipeline
//! requests against a fleet of shard clusters, under per-shard fair
//! queues and worker-slot governors, with cache-aware placement, bounded
//! cross-shard work stealing, and per-query handles.
//!
//! Life of a query:
//!
//! 1. [`QueryScheduler::submit`] validates the request (SQL plans, ML
//!    command parses) — both can reject with a typed reason, immediately.
//! 2. The [`ShardRouter`] probes every shard's §5 cache for the request's
//!    descriptor (a cheap, non-materializing
//!    [`sqlml_cache::CacheManager::probe`]) and places the query on the
//!    shard with the best score (cache affinity vs queue depth vs slot
//!    availability). A cache-affine placement *pins* the query to its
//!    shard; a load-driven one leaves it stealable.
//! 3. The query waits in its home shard's [`FairQueue`] stamped with a
//!    **discounted** WFQ cost when the probe predicts cache reuse. After
//!    the run, the measured cost (from the actual
//!    [`sqlml_core::CacheMode`]) is settled back onto the tenant's
//!    virtual clock, so mispredictions cannot compound into an unfair
//!    advantage.
//! 4. An executor thread of the home shard pops it in weighted-fair
//!    order — or, if an idle peer shard finds its own queue empty, that
//!    peer **steals** the head-of-line query of the most-backlogged shard
//!    (never a pinned one) and runs it *entirely* on the stealing
//!    cluster, preserving the §6 exactly-once restart semantics, which
//!    are local to whichever cluster executes the transfer.
//! 5. The executor acquires the query's worker-slot cost from its shard's
//!    [`WorkerGovernor`] and runs [`Pipeline::run_with`] with the query's
//!    [`CancelToken`]; cancellation (explicit or deadline) unwinds
//!    through the normal error path wherever the query ended up running.
//! 6. The outcome lands in the [`QueryHandle`]: status, shared result,
//!    the queued/running latency split, and where the query ran.
//!
//! The fleet is **elastic**: shard membership lives in an epoch-versioned
//! [`ShardRegistry`] rather than a fixed vector, so
//! [`QueryScheduler::add_shard`] can boot and publish a fresh warehouse
//! at runtime and [`QueryScheduler::remove_shard`] can drain one out —
//! placement, stealing, and stats always iterate one consistent
//! [`Snapshot`]. Shards are addressed by **stable id** (assigned at
//! registration, never reused), which is what `placed_on`/`ran_on`,
//! pinned submissions, and per-cluster counters report. Construction
//! goes through [`SchedulerBuilder`] (`QueryScheduler::builder(config)`);
//! the submit surface is [`QueryScheduler::submit`] +
//! [`QueryScheduler::submit_opts`] with [`SubmitOpts`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqlml_cache::{CacheManager, CacheProbe, QueryDescriptor};
use sqlml_common::lockorder::{TrackedCondvar, TrackedMutex};
use sqlml_common::{CancelToken, Result, SqlmlError};
use sqlml_core::workload::WorkloadScale;
use sqlml_core::{
    describe_prep, CacheMode, ClusterConfig, Pipeline, PipelineReport, PipelineRequest, SimCluster,
    Strategy,
};
use sqlml_mlengine::job::TrainingSpec;

use crate::queue::{Popped, RejectReason, Rejected};
use crate::registry::{ShardEntry, ShardRegistry, Snapshot};
use crate::retry::{retry_queue_full, RetryPolicy, SystemClock};
use crate::router::{probe_discount, ShardLoad, ShardRouter, FULL_DISCOUNT, MAP_DISCOUNT};
use crate::scale::{ScaleAdvice, ScalePolicy, ScaleSignal, WaitWindow};

/// How long an idle executor waits on its own queue before scanning
/// peers for stealable work. Bounds steal latency, not correctness.
const STEAL_POLL: Duration = Duration::from_millis(10);

/// Queue-wait samples retained for [`ScaleSignal::queue_wait_p95`].
const WAIT_WINDOW: usize = 256;

/// How many fresh-snapshot placement attempts a drain migration makes
/// per job before declaring the fleet collapsed. Each retry only fires
/// when the chosen peer closed between snapshot and push — i.e. another
/// shard drained concurrently — so the bound is effectively the number
/// of simultaneous drains the migration can ride out.
const MIGRATE_RETRIES: usize = 8;

/// Serving-plane tunables.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Executor threads **per shard** — the maximum number of pipelines
    /// in some stage of execution (including waiting for worker slots)
    /// on one cluster at once.
    pub max_concurrent: usize,
    /// Bounded admission-queue capacity per shard (queued, not yet
    /// executing).
    pub queue_capacity: usize,
    /// Worker-slot capacity for each shard's governor. One slot ≙ one
    /// engine worker; a streaming pipeline costs `sql_workers +
    /// ml_workers` slots, a staged one `max(sql_workers, ml_workers)`.
    /// `0` = auto: `(sql_workers + ml_workers) × 4`, i.e. a
    /// multiprogramming level of ~4 streaming pipelines time-sharing each
    /// cluster.
    pub worker_slots: usize,
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
            worker_slots: 0,
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
    default_retry: Option<RetryPolicy>,
    scale_policy: Option<Box<dyn ScalePolicy>>,
}

impl SchedulerBuilder {
    fn new(config: SchedulerConfig) -> SchedulerBuilder {
        SchedulerBuilder {
            config,
            clusters: Vec::new(),
            template: None,
            template_shards: 1,
            default_retry: None,
            scale_policy: None,
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

    /// Default client-side retry policy: submissions whose
    /// [`SubmitOpts::retry`] is [`Retry::Default`] (including plain
    /// [`QueryScheduler::submit`]) ride out transient rejects with it.
    pub fn retry(mut self, policy: RetryPolicy) -> SchedulerBuilder {
        self.default_retry = Some(policy);
        self
    }

    /// Install an autoscale policy consulted by
    /// [`QueryScheduler::scale_advice`]. Advisory only — the scheduler
    /// never resizes itself. No policy is installed by default.
    pub fn scale_policy(mut self, policy: impl ScalePolicy + 'static) -> SchedulerBuilder {
        self.scale_policy = Some(Box::new(policy));
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
            self.default_retry,
            self.scale_policy,
        ))
    }
}

/// Per-submission options for [`QueryScheduler::submit_opts`].
#[derive(Debug, Clone, Default)]
pub struct SubmitOpts {
    /// Bypass the router and admit directly onto this shard (stable id).
    /// The job is admitted unpinned, so an idle peer may still steal it.
    /// A draining target rejects with [`RejectReason::Draining`]; an
    /// unknown id with [`RejectReason::Invalid`].
    pub pin_shard: Option<usize>,
    /// Client-side retry for transient rejects (queue full, shard
    /// draining).
    pub retry: Retry,
}

impl SubmitOpts {
    /// Targeted placement onto one shard (stable id).
    pub fn pinned(shard: usize) -> SubmitOpts {
        SubmitOpts {
            pin_shard: Some(shard),
            ..SubmitOpts::default()
        }
    }

    /// Retry transient rejects with this specific policy.
    pub fn with_retry(mut self, policy: RetryPolicy) -> SubmitOpts {
        self.retry = Retry::Policy(policy);
        self
    }

    /// Never retry, even if the scheduler has a default policy.
    pub fn no_retry(mut self) -> SubmitOpts {
        self.retry = Retry::No;
        self
    }
}

/// How a submission handles transient rejects.
#[derive(Debug, Clone, Default)]
pub enum Retry {
    /// Use the scheduler's default policy ([`SchedulerBuilder::retry`]);
    /// no retry if none was configured.
    #[default]
    Default,
    /// Never retry.
    No,
    /// Retry with this policy, overriding the scheduler default.
    Policy(RetryPolicy),
}

/// What [`QueryScheduler::remove_shard`] does with the departing shard's
/// queued (not yet running) jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPolicy {
    /// Lift the backlog out in WFQ order and re-admit it onto live
    /// peers: each job is re-placed by the router (cache-pinned jobs
    /// re-probe the surviving caches first) and force-pushed past the
    /// peer's capacity bound so nothing already admitted is ever lost.
    Migrate,
    /// Leave the backlog in place: the departing shard's own executors
    /// finish every queued job before the shard is torn down. Slower to
    /// leave, but no job changes cluster.
    Drain,
}

/// Receipt from a completed [`QueryScheduler::remove_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRemoval {
    /// Stable id of the removed shard.
    pub shard: usize,
    /// Queued jobs re-admitted onto live peers ([`DrainPolicy::Migrate`]).
    pub migrated: usize,
    /// Queued jobs the departing shard's own executors finished
    /// ([`DrainPolicy::Drain`]; counted at drain start).
    pub drained_in_place: usize,
}

/// One shard's row in [`QueryScheduler::fleet_snapshot`] — all fields
/// read from the same registry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStat {
    /// Stable shard id.
    pub shard: usize,
    pub queue_depth: usize,
    pub slots_in_use: usize,
    pub slot_capacity: usize,
    pub draining: bool,
}

/// One submission: who is asking, what to run, how to run it.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub tenant: String,
    pub request: PipelineRequest,
    pub strategy: Strategy,
    /// Per-query deadline override (measured from submission).
    pub deadline: Option<Duration>,
}

impl QuerySpec {
    pub fn new(tenant: &str, request: PipelineRequest, strategy: Strategy) -> QuerySpec {
        QuerySpec {
            tenant: tenant.to_string(),
            request,
            strategy,
            deadline: None,
        }
    }

    pub fn with_deadline(mut self, deadline: Duration) -> QuerySpec {
        self.deadline = Some(deadline);
        self
    }
}

/// Where a query is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Admitted, waiting in the fair queue (or for worker slots).
    Queued,
    /// Executing on a cluster.
    Running,
    Completed,
    Failed,
    /// Cancelled (explicitly or by deadline) before completing.
    Cancelled,
}

/// The queued/running/total latency split of a finished query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryLatency {
    /// Submission → execution start (whole life for never-started runs).
    pub queued: Duration,
    /// Execution start → finish.
    pub running: Duration,
    /// Submission → finish.
    pub total: Duration,
}

struct QueryState {
    status: QueryStatus,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    /// `Arc` because neither [`PipelineReport`] nor the error is `Clone`
    /// and several waiters may want the result.
    result: Option<Arc<Result<PipelineReport>>>,
}

/// Sentinel for "never started executing" in [`QueryShared::ran_on`].
const NOT_RUN: usize = usize::MAX;

struct QueryShared {
    id: u64,
    tenant: String,
    strategy: Strategy,
    cancel: CancelToken,
    /// Stable id of the shard the router placed this query on.
    placed_on: usize,
    /// Stable id of the shard that actually executed it ([`NOT_RUN`]
    /// until claimed). A query runs *entirely* on one cluster — stealing
    /// and drain migration move it before execution starts, never
    /// mid-run.
    ran_on: AtomicUsize,
    stolen: AtomicBool,
    /// Set when a shard drain re-admitted the queued job onto a peer.
    migrated: AtomicBool,
    state: TrackedMutex<QueryState>,
    done: TrackedCondvar,
}

/// Serving-plane counters (monotonic except the in-flight gauge).
#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    inflight_now: AtomicUsize,
    inflight_hw: AtomicUsize,
    migrated: AtomicU64,
    cost_settlements: AtomicU64,
    shards_added: AtomicU64,
    shards_removed: AtomicU64,
}

/// A point-in-time copy of one cluster's serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Stable id of the shard these counters belong to.
    pub shard: usize,
    /// Queries the router placed on this cluster.
    pub admitted: u64,
    /// Queries this cluster stole from a backlogged peer and ran.
    pub stolen: u64,
    /// Placements driven by cache affinity (the probe hit here).
    pub cache_affinity_hits: u64,
    /// Queued jobs this cluster adopted from a draining peer.
    pub migrated_in: u64,
    /// The shard was mid-drain when the snapshot was taken.
    pub draining: bool,
}

/// A point-in-time copy of the serving-plane counters. All per-shard
/// rows come from one registry [`Snapshot`], so they are mutually
/// consistent even while shards join or leave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStatsSnapshot {
    pub submitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    /// Admitted and not yet finished (queued + running).
    pub inflight_now: usize,
    /// Most queries ever in flight at once.
    pub inflight_high_water: usize,
    /// Queued jobs re-admitted onto live peers by shard drains.
    pub migrated: u64,
    /// Measured-vs-estimated WFQ cost corrections settled after runs.
    pub cost_settlements: u64,
    /// Shards that joined the fleet at runtime.
    pub shards_added: u64,
    /// Shards drained out of the fleet at runtime.
    pub shards_removed: u64,
    /// Fleet-membership epoch the per-cluster rows were read at.
    pub registry_epoch: u64,
    /// Per-cluster placement/stealing/affinity counters, in registration
    /// order; each row names its shard's stable id. Length 1 for a
    /// single-cluster scheduler.
    pub per_cluster: Vec<ClusterCounters>,
}

/// Move a query to its terminal state exactly once. Returns false when
/// it was already terminal (e.g. cancelled while this worker ran it —
/// the stale result is discarded).
fn finalize(shared: &QueryShared, stats: &Stats, result: Result<PipelineReport>) -> bool {
    let status = match &result {
        Ok(_) => QueryStatus::Completed,
        Err(e) if e.is_cancelled() => QueryStatus::Cancelled,
        Err(_) => QueryStatus::Failed,
    };
    {
        let mut st = shared.state.lock();
        if st.result.is_some() {
            return false;
        }
        st.status = status;
        st.finished = Some(Instant::now());
        st.result = Some(Arc::new(result));
        // Counters update before the lock drops so a waiter woken by the
        // result never reads a snapshot that still counts this query as
        // in flight.
        match status {
            QueryStatus::Completed => stats.completed.fetch_add(1, Ordering::Relaxed),
            QueryStatus::Cancelled => stats.cancelled.fetch_add(1, Ordering::Relaxed),
            _ => stats.failed.fetch_add(1, Ordering::Relaxed),
        };
        stats.inflight_now.fetch_sub(1, Ordering::Relaxed);
    }
    shared.done.notify_all();
    true
}

/// The caller's view of one submitted query.
#[derive(Clone)]
pub struct QueryHandle {
    shared: Arc<QueryShared>,
    stats: Arc<Stats>,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("id", &self.shared.id)
            .field("tenant", &self.shared.tenant)
            .field("strategy", &self.shared.strategy)
            .field("status", &self.status())
            .field("placed_on", &self.shared.placed_on)
            .finish()
    }
}

impl QueryHandle {
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    pub fn tenant(&self) -> &str {
        &self.shared.tenant
    }

    pub fn strategy(&self) -> Strategy {
        self.shared.strategy
    }

    pub fn status(&self) -> QueryStatus {
        self.shared.state.lock().status
    }

    pub fn is_finished(&self) -> bool {
        self.shared.state.lock().result.is_some()
    }

    /// Shard the router placed this query on.
    pub fn placed_on(&self) -> usize {
        self.shared.placed_on
    }

    /// Shard that executed (or is executing) the query; `None` while it
    /// has not yet started. Never changes once set: a query runs entirely
    /// on one cluster.
    pub fn ran_on(&self) -> Option<usize> {
        match self.shared.ran_on.load(Ordering::Relaxed) {
            NOT_RUN => None,
            s => Some(s),
        }
    }

    /// Whether an idle peer shard stole this query from its home queue.
    pub fn was_stolen(&self) -> bool {
        self.shared.stolen.load(Ordering::Relaxed)
    }

    /// Whether a shard drain ([`QueryScheduler::remove_shard`] with
    /// [`DrainPolicy::Migrate`]) re-admitted this query onto a peer
    /// while it was queued.
    pub fn was_migrated(&self) -> bool {
        self.shared.migrated.load(Ordering::Relaxed)
    }

    /// Fire the query's cancellation token. A still-queued query is
    /// finalized immediately; a running one unwinds at its next
    /// cancellation checkpoint (stage boundary or streaming frame cut).
    /// Cooperative by design: a run past its last checkpoint may still
    /// complete and deliver its result.
    pub fn cancel(&self, reason: &str) {
        self.shared.cancel.cancel(reason);
        let still_queued = self.shared.state.lock().status == QueryStatus::Queued;
        if still_queued {
            finalize(
                &self.shared,
                &self.stats,
                Err(SqlmlError::Cancelled(format!("while queued: {reason}"))),
            );
        }
    }

    /// Block until the query finishes; returns the shared result.
    pub fn wait(&self) -> Arc<Result<PipelineReport>> {
        let mut st = self.shared.state.lock();
        loop {
            if let Some(result) = &st.result {
                return Arc::clone(result);
            }
            self.shared.done.wait(&mut st);
        }
    }

    /// Like [`QueryHandle::wait`], bounded: `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Arc<Result<PipelineReport>>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            if let Some(result) = &st.result {
                return Some(Arc::clone(result));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.shared.done.wait_for(&mut st, left);
        }
    }

    /// The latency split; `None` until the query finishes.
    pub fn latency(&self) -> Option<QueryLatency> {
        let st = self.shared.state.lock();
        let finished = st.finished?;
        let started = st.started.unwrap_or(finished);
        Some(QueryLatency {
            queued: started.duration_since(st.submitted),
            running: finished.duration_since(started),
            total: finished.duration_since(st.submitted),
        })
    }
}

/// What travels through a shard's fair queue to an executor thread.
struct Job {
    shared: Arc<QueryShared>,
    request: PipelineRequest,
    /// Shard whose queue admitted this job (tenant accounting lives
    /// there; cost settlement goes back to it). An `Arc` to the entry
    /// itself, not an index: the home shard may leave the registry while
    /// the job still runs elsewhere, and settlement must land on the
    /// queue that actually charged the estimate. Drain migration
    /// re-homes the job onto its adopting shard.
    home: Arc<ShardEntry<Job>>,
    /// The cache descriptor computed at admission, kept so a drain
    /// migration can re-probe the surviving shards' caches before the
    /// job travels.
    descriptor: Option<QueryDescriptor>,
    /// Cache-affine placements are pinned: stealing them would turn a
    /// predicted near-free run into a full re-computation elsewhere.
    pinned: bool,
    /// Undiscounted slot cost, the unit of the WFQ cost model.
    base_cost: f64,
    /// What admission charged the tenant's virtual clock (discounted by
    /// the cache probe's prediction).
    est_cost: f64,
}

/// Worker slots a strategy occupies on a cluster: streaming holds the
/// SQL and ML sides live simultaneously; staged strategies hold one side
/// at a time, so their footprint is the wider of the two.
fn slot_cost(cluster: &SimCluster, strategy: Strategy) -> usize {
    let sql = cluster.config.sql_workers.max(1);
    let ml = cluster.config.ml_workers.max(1);
    match strategy {
        Strategy::Naive | Strategy::InSql => sql.max(ml),
        Strategy::InSqlStream => sql + ml,
    }
}

/// The WFQ cost multiplier a *measured* cache outcome implies — the
/// settlement-side twin of [`probe_discount`].
fn mode_discount(mode: CacheMode) -> f64 {
    match mode {
        CacheMode::FullResult => FULL_DISCOUNT,
        CacheMode::RecodeMap => MAP_DISCOUNT,
        CacheMode::None => 1.0,
    }
}

/// The serving plane over an elastic fleet of [`SimCluster`] shards
/// (possibly a fleet of one). Built via [`QueryScheduler::builder`].
pub struct QueryScheduler {
    registry: Arc<ShardRegistry<Job>>,
    router: ShardRouter,
    stats: Arc<Stats>,
    config: SchedulerConfig,
    /// Recipe for booting one more shard; arms [`QueryScheduler::add_shard`].
    template: Option<ShardTemplate>,
    default_retry: Option<RetryPolicy>,
    scale_policy: Option<Box<dyn ScalePolicy>>,
    /// Fleet-wide tenant weights, applied to every shard's queue — held
    /// across shard registration so a concurrent weight change can never
    /// miss a joining shard. Outermost scheduler lock (see
    /// `xtask/lock-order.manifest`).
    tenants: TrackedMutex<HashMap<String, u32>>,
    /// Executor threads by shard id, so `remove_shard` can join exactly
    /// the departing shard's threads.
    workers: TrackedMutex<HashMap<usize, Vec<JoinHandle<()>>>>,
    /// Recent queue waits, feeding [`ScaleSignal::queue_wait_p95`].
    waits: Arc<WaitWindow>,
    next_id: AtomicU64,
}

impl QueryScheduler {
    /// Start building a scheduler: `QueryScheduler::builder(config)
    /// .cluster(c).build()`, or `.warehouse(cfg, scale, seed).shards(n)`
    /// for a template-booted (and elastically growable) fleet.
    pub fn builder(config: SchedulerConfig) -> SchedulerBuilder {
        SchedulerBuilder::new(config)
    }

    /// Register the clusters and spin up their executor threads. Each
    /// thread is homed on one shard and owns one [`Pipeline`] over that
    /// shard's cluster; with `enable_cache` all of a shard's threads
    /// share one §5 cache. The fleet is assumed to host identical
    /// warehouses (see [`SimCluster::start_shards`]): the router may
    /// place — and an idle shard may steal — any unpinned request onto
    /// any shard.
    fn assemble(
        clusters: Vec<Arc<SimCluster>>,
        config: SchedulerConfig,
        template: Option<ShardTemplate>,
        default_retry: Option<RetryPolicy>,
        scale_policy: Option<Box<dyn ScalePolicy>>,
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
            default_retry,
            scale_policy,
            tenants: TrackedMutex::new("sched.tenants", HashMap::new()),
            workers: TrackedMutex::new("sched.workers", HashMap::new()),
            waits: Arc::new(WaitWindow::new(WAIT_WINDOW)),
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
        let entry = self.registry.build_entry(
            cluster,
            self.config.queue_capacity,
            self.config.worker_slots,
            cache,
        );
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

    /// One shard's executor pool: `max_concurrent` threads popping its
    /// queue (and stealing from peers via fresh registry snapshots).
    fn spawn_executors(&self, entry: &Arc<ShardEntry<Job>>) -> Vec<JoinHandle<()>> {
        (0..self.config.max_concurrent.max(1))
            .map(|_| {
                let entry = Arc::clone(entry);
                let registry = Arc::clone(&self.registry);
                let stats = Arc::clone(&self.stats);
                let waits = Arc::clone(&self.waits);
                let cache_aware = self.config.cache_aware;
                let stealing = self.config.work_stealing;
                let steal_min = self.config.steal_min_backlog.max(1);
                std::thread::spawn(move || {
                    let pipeline = match &entry.cache {
                        Some(c) => Pipeline::with_shared_cache(&entry.cluster, Arc::clone(c)),
                        None => Pipeline::new(&entry.cluster),
                    };
                    loop {
                        match entry.queue.pop_timeout(STEAL_POLL) {
                            Popped::Item(job) => {
                                run_one(&pipeline, &entry, &stats, &waits, cache_aware, job)
                            }
                            Popped::Closed => break,
                            // A draining shard stops raiding peers: its
                            // executors only finish what is already
                            // theirs and then exit.
                            Popped::Empty => {
                                if stealing && !entry.is_draining() {
                                    let snap = registry.snapshot();
                                    if let Some(job) = try_steal(&snap, entry.id(), steal_min) {
                                        run_one(
                                            &pipeline,
                                            &entry,
                                            &stats,
                                            &waits,
                                            cache_aware,
                                            job,
                                        );
                                    }
                                }
                            }
                        }
                    }
                })
            })
            .collect()
    }

    pub fn num_shards(&self) -> usize {
        self.registry.snapshot().len()
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

    /// The current fleet-membership epoch (bumps on every join/leave).
    pub fn registry_epoch(&self) -> u64 {
        self.registry.snapshot().epoch()
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
        self.add_shard_cluster(cluster)
    }

    /// Join a pre-booted cluster to the fleet (the caller vouches it
    /// hosts the same warehouse as its peers). Returns the stable id.
    pub fn add_shard_cluster(&self, cluster: Arc<SimCluster>) -> Result<usize> {
        let id = self.register_shard(cluster);
        self.stats.shards_added.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Drain shard `id` out of the fleet: flip it to draining (the
    /// router stops placing onto it, thieves stop raiding it, racing
    /// pinned submits reject with [`RejectReason::Draining`]), dispose
    /// of its backlog per `policy`, close its queue, join its executor
    /// threads, and unregister it. In-flight runs finish normally
    /// wherever they are; their WFQ costs still settle onto the queue
    /// that admitted them. A cancel racing the drain resolves its handle
    /// exactly once — the migration path skips already-finalized jobs.
    ///
    /// Refuses to drain the last live shard (there would be nowhere to
    /// migrate, and a fleet of zero cannot serve).
    pub fn remove_shard(&self, id: usize, policy: DrainPolicy) -> Result<ShardRemoval> {
        let entry = self
            .registry
            .begin_drain(id)
            .map_err(|e| SqlmlError::Execution(format!("remove_shard({id}): {e}")))?;
        let (migrated, drained_in_place) = match policy {
            DrainPolicy::Migrate => (self.migrate_queued(&entry), 0),
            DrainPolicy::Drain => (0, entry.queue.len()),
        };
        // Close after draining: under Migrate, stragglers that raced the
        // lift-out land behind it and are finished by the shard's own
        // executors before they observe Closed.
        entry.queue.close();
        let handles = {
            let mut workers = self.workers.lock();
            let handles = workers.remove(&id);
            self.registry.remove(id);
            handles
        };
        // Join outside every lock: executors may be mid-pipeline.
        for handle in handles.into_iter().flatten() {
            let _ = handle.join();
        }
        self.stats.shards_removed.fetch_add(1, Ordering::Relaxed);
        Ok(ShardRemoval {
            shard: id,
            migrated,
            drained_in_place,
        })
    }

    /// Lift the draining shard's backlog out in WFQ order and re-admit
    /// each job onto a live peer. Pinned jobs re-probe the surviving
    /// caches (their old affinity died with the shard they were pinned
    /// to); every job's WFQ estimate is re-stamped on its new home and
    /// its home pointer re-aimed so post-run settlement lands where the
    /// new estimate was charged. Force-push bypasses the peer's capacity
    /// bound — an admitted query is never bounced back to the client —
    /// but a peer that closed mid-migration hands the job back and a
    /// fresh snapshot picks another. Returns how many jobs moved.
    fn migrate_queued(&self, from: &Arc<ShardEntry<Job>>) -> usize {
        let mut moved = 0;
        'jobs: for mut job in from.queue.drain_now() {
            // Cancelled-while-queued jobs are already terminal; dropping
            // them here is the same skip their executor would have done.
            if job.shared.state.lock().result.is_some() {
                continue;
            }
            for _ in 0..MIGRATE_RETRIES {
                let snap = self.registry.snapshot();
                let loads = shard_loads(&snap, job.descriptor.as_ref(), &job.request);
                let Some(placement) = self.router.place(&loads) else {
                    break;
                };
                let target = Arc::clone(&snap.shards()[placement.shard]);
                if self.config.cache_aware {
                    job.pinned = placement.affinity != CacheProbe::Miss;
                    job.est_cost = job.base_cost * probe_discount(placement.affinity);
                }
                job.home = Arc::clone(&target);
                let shared = Arc::clone(&job.shared);
                let est = job.est_cost;
                let pinned = job.pinned;
                match target.queue.force_push(&shared.tenant, est, job) {
                    Ok(_) => {
                        shared.migrated.store(true, Ordering::Relaxed);
                        target.counters.migrated_in.fetch_add(1, Ordering::Relaxed);
                        if pinned {
                            target
                                .counters
                                .affinity_hits
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        self.stats.migrated.fetch_add(1, Ordering::Relaxed);
                        moved += 1;
                        continue 'jobs;
                    }
                    // The chosen peer closed between snapshot and push
                    // (a racing drain): take the job back and re-place
                    // it from a fresh snapshot.
                    Err((_, back)) => job = back,
                }
            }
            // No live peer after bounded retries (the fleet collapsed
            // around us). Zero-lost still holds: the handle resolves,
            // as a failure, exactly once.
            finalize(
                &job.shared,
                &self.stats,
                Err(SqlmlError::Execution(format!(
                    "shard {} drained but no live peer could adopt the query",
                    from.id()
                ))),
            );
        }
        moved
    }

    /// Submit a query with default options. Rejections (validation,
    /// backpressure, shutdown) are immediate and carry their reason; an
    /// `Ok` handle means the query is admitted and will eventually reach
    /// a terminal status.
    pub fn submit(&self, spec: QuerySpec) -> std::result::Result<QueryHandle, Rejected> {
        self.submit_opts(spec, SubmitOpts::default())
    }

    /// Submit with per-call options: targeted placement
    /// ([`SubmitOpts::pin_shard`]) and/or client-side retry
    /// ([`SubmitOpts::retry`], resolving [`Retry::Default`] against the
    /// scheduler's [`SchedulerBuilder::retry`] policy). Each retry
    /// attempt counts as a submission in the stats.
    pub fn submit_opts(
        &self,
        spec: QuerySpec,
        opts: SubmitOpts,
    ) -> std::result::Result<QueryHandle, Rejected> {
        let policy = match &opts.retry {
            Retry::No => None,
            Retry::Default => self.default_retry.as_ref(),
            Retry::Policy(p) => Some(p),
        };
        match policy {
            None => self.submit_once(&spec, opts.pin_shard),
            Some(p) => {
                let deadline = spec.deadline.or(self.config.default_deadline);
                retry_queue_full(p, deadline, &SystemClock, || {
                    self.submit_once(&spec, opts.pin_shard)
                })
            }
        }
    }

    /// One admission attempt: validate, place (router or pin), admit.
    fn submit_once(
        &self,
        spec: &QuerySpec,
        pin_shard: Option<usize>,
    ) -> std::result::Result<QueryHandle, Rejected> {
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let snap = self.registry.snapshot();
        self.validate(spec, &snap)?;
        if let Some(id) = pin_shard {
            // Targeted placement: bypass the router (operator escape
            // hatch; also how the stealing tests build deterministic
            // backlog). Admitted unpinned, so a peer may still steal it.
            let Some(entry) = snap.find(id) else {
                return Err(self.reject(RejectReason::Invalid(format!(
                    "no such shard {id} (fleet of {})",
                    snap.len()
                ))));
            };
            if entry.is_draining() {
                return Err(self.reject(RejectReason::Draining { shard: id }));
            }
            return self.admit(spec, entry, CacheProbe::Miss, None);
        }
        // Probe every live shard's cache for the request's descriptor,
        // then score placement: cache affinity vs queue depth vs slots.
        let descriptor: Option<QueryDescriptor> = if self.config.cache_aware {
            match snap.shards().first() {
                Some(s) => describe_prep(&s.cluster.engine, &spec.request.prep_sql)
                    .ok()
                    .flatten(),
                None => None,
            }
        } else {
            None
        };
        let loads = shard_loads(&snap, descriptor.as_ref(), &spec.request);
        let Some(placement) = self.router.place(&loads) else {
            // Every shard is draining (or the fleet is empty): the
            // serving plane is effectively shutting down.
            return Err(self.reject(RejectReason::ShuttingDown));
        };
        let entry = Arc::clone(&snap.shards()[placement.shard]);
        self.admit(spec, &entry, placement.affinity, descriptor)
    }

    /// Validate up front so a bad request is a reject-with-reason, not a
    /// query that occupies a queue only to fail.
    fn validate(
        &self,
        spec: &QuerySpec,
        snap: &Snapshot<Job>,
    ) -> std::result::Result<(), Rejected> {
        if let Err(e) = TrainingSpec::parse(&spec.request.ml_command) {
            return Err(self.reject(RejectReason::Invalid(format!("ml command: {e}"))));
        }
        // Shards host identical warehouses, so any shard's catalog
        // answers for the fleet.
        let Some(first) = snap.shards().first() else {
            return Err(self.reject(RejectReason::ShuttingDown));
        };
        if let Err(e) = first.cluster.engine.validate(&spec.request.prep_sql) {
            return Err(self.reject(RejectReason::Invalid(format!("prep sql: {e}"))));
        }
        Ok(())
    }

    fn admit(
        &self,
        spec: &QuerySpec,
        entry: &Arc<ShardEntry<Job>>,
        affinity: CacheProbe,
        descriptor: Option<QueryDescriptor>,
    ) -> std::result::Result<QueryHandle, Rejected> {
        let cancel = match spec.deadline.or(self.config.default_deadline) {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let shared = Arc::new(QueryShared {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            tenant: spec.tenant.clone(),
            strategy: spec.strategy,
            cancel,
            placed_on: entry.id(),
            ran_on: AtomicUsize::new(NOT_RUN),
            stolen: AtomicBool::new(false),
            migrated: AtomicBool::new(false),
            state: TrackedMutex::new(
                "sched.query.state",
                QueryState {
                    status: QueryStatus::Queued,
                    submitted: Instant::now(),
                    started: None,
                    finished: None,
                    result: None,
                },
            ),
            done: TrackedCondvar::new("sched.query.done"),
        });
        let base_cost = slot_cost(&entry.cluster, spec.strategy) as f64;
        let est_cost = if self.config.cache_aware {
            base_cost * probe_discount(affinity)
        } else {
            base_cost
        };
        let pinned = self.config.cache_aware && affinity != CacheProbe::Miss;
        let job = Job {
            shared: Arc::clone(&shared),
            request: spec.request.clone(),
            home: Arc::clone(entry),
            descriptor,
            pinned,
            base_cost,
            est_cost,
        };
        // Count the query in flight *before* it becomes poppable — an
        // executor may pop and finalize (decrementing the gauge) the
        // instant the push lands.
        let now = self.stats.inflight_now.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.inflight_hw.fetch_max(now, Ordering::Relaxed);
        if let Err(rejected) = entry.queue.push(&spec.tenant, est_cost, job) {
            self.stats.inflight_now.fetch_sub(1, Ordering::Relaxed);
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            // A push that raced the start of a drain sees the closed
            // queue as ShuttingDown; the fleet is alive, so surface the
            // retryable, targeted truth instead.
            if matches!(rejected.reason, RejectReason::ShuttingDown) && entry.is_draining() {
                return Err(Rejected {
                    reason: RejectReason::Draining { shard: entry.id() },
                });
            }
            return Err(rejected);
        }
        entry.counters.admitted.fetch_add(1, Ordering::Relaxed);
        if pinned {
            entry.counters.affinity_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(QueryHandle {
            shared,
            stats: Arc::clone(&self.stats),
        })
    }

    fn reject(&self, reason: RejectReason) -> Rejected {
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        Rejected { reason }
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

    pub fn stats(&self) -> SchedStatsSnapshot {
        let snap = self.registry.snapshot();
        SchedStatsSnapshot {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            inflight_now: self.stats.inflight_now.load(Ordering::Relaxed),
            inflight_high_water: self.stats.inflight_hw.load(Ordering::Relaxed),
            migrated: self.stats.migrated.load(Ordering::Relaxed),
            cost_settlements: self.stats.cost_settlements.load(Ordering::Relaxed),
            shards_added: self.stats.shards_added.load(Ordering::Relaxed),
            shards_removed: self.stats.shards_removed.load(Ordering::Relaxed),
            registry_epoch: snap.epoch(),
            per_cluster: snap
                .shards()
                .iter()
                .map(|s| ClusterCounters {
                    shard: s.id(),
                    admitted: s.counters.admitted.load(Ordering::Relaxed),
                    stolen: s.counters.stolen.load(Ordering::Relaxed),
                    cache_affinity_hits: s.counters.affinity_hits.load(Ordering::Relaxed),
                    migrated_in: s.counters.migrated_in.load(Ordering::Relaxed),
                    draining: s.is_draining(),
                })
                .collect(),
        }
    }

    /// Queries waiting in the admission queues right now (all shards).
    pub fn queue_depth(&self) -> usize {
        let snap = self.registry.snapshot();
        snap.shards().iter().map(|s| s.queue.len()).sum()
    }

    /// Per-shard admission-queue depths, in registration order — all
    /// read from one registry snapshot, so the vector is internally
    /// consistent even mid-resize. Pair with [`QueryScheduler::shard_ids`]
    /// (or use [`QueryScheduler::fleet_snapshot`]) to name the shards.
    pub fn queue_depths(&self) -> Vec<usize> {
        let snap = self.registry.snapshot();
        snap.shards().iter().map(|s| s.queue.len()).collect()
    }

    /// Worker slots currently held / capacity, summed over the fleet —
    /// one registry snapshot, consistent with a concurrent resize.
    pub fn slot_usage(&self) -> (usize, usize) {
        let snap = self.registry.snapshot();
        snap.shards().iter().fold((0, 0), |(u, c), s| {
            (u + s.governor.in_use(), c + s.governor.capacity())
        })
    }

    /// Per-shard load and drain state, all fields read from the same
    /// registry snapshot.
    pub fn fleet_snapshot(&self) -> Vec<ShardStat> {
        let snap = self.registry.snapshot();
        snap.shards()
            .iter()
            .map(|s| ShardStat {
                shard: s.id(),
                queue_depth: s.queue.len(),
                slots_in_use: s.governor.in_use(),
                slot_capacity: s.governor.capacity(),
                draining: s.is_draining(),
            })
            .collect()
    }

    /// The autoscale input signal, measured over the live (non-draining)
    /// fleet: shard count, total backlog, recent queue-wait p95, and the
    /// slot-busy fraction.
    pub fn scale_signal(&self) -> ScaleSignal {
        let snap = self.registry.snapshot();
        let (mut shards, mut queued, mut used, mut cap) = (0usize, 0usize, 0usize, 0usize);
        for s in snap.shards() {
            if s.is_draining() {
                continue;
            }
            shards += 1;
            queued += s.queue.len();
            used += s.governor.in_use();
            cap += s.governor.capacity();
        }
        ScaleSignal {
            shards,
            queued,
            queue_wait_p95: self.waits.p95(),
            slot_busy: used as f64 / cap.max(1) as f64,
        }
    }

    /// What the installed [`ScalePolicy`] advises for the current
    /// [`QueryScheduler::scale_signal`]. Advisory only: the caller acts
    /// (or not) via [`QueryScheduler::add_shard`] /
    /// [`QueryScheduler::remove_shard`]. [`ScaleAdvice::Hold`] when no
    /// policy is installed (the default).
    pub fn scale_advice(&self) -> ScaleAdvice {
        match &self.scale_policy {
            Some(policy) => policy.advise(&self.scale_signal()),
            None => ScaleAdvice::Hold,
        }
    }

    /// Graceful shutdown: stop admitting, drain everything already
    /// queued, and join the executor threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
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

impl Drop for QueryScheduler {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Per-shard load signals for the router, every field read from the one
/// registry snapshot the caller holds. Draining shards are marked (and
/// their caches not probed — they cannot be placed onto anyway).
fn shard_loads(
    snap: &Snapshot<Job>,
    descriptor: Option<&QueryDescriptor>,
    request: &PipelineRequest,
) -> Vec<ShardLoad> {
    snap.shards()
        .iter()
        .map(|s| {
            let draining = s.is_draining();
            ShardLoad {
                queue_depth: s.queue.len(),
                slots_in_use: s.governor.in_use(),
                slot_capacity: s.governor.capacity(),
                probe: match (descriptor, &s.cache, draining) {
                    (Some(d), Some(c), false) => c.probe(d, &request.spec),
                    _ => CacheProbe::Miss,
                },
                draining,
            }
        })
        .collect()
}

/// Scan peers for the most-backlogged queue and claim its head-of-line
/// query — unless that query is cache-pinned to its home shard. Peers
/// mid-drain are never raided: their backlog is the drain protocol's to
/// migrate (or finish), and racing it would double-account the jobs.
fn try_steal(snap: &Snapshot<Job>, me: usize, steal_min: usize) -> Option<Job> {
    let victim = snap
        .shards()
        .iter()
        .filter(|s| s.id() != me && !s.is_draining())
        .map(|s| (s.queue.len(), s))
        .filter(|(len, _)| *len >= steal_min)
        .max_by_key(|(len, _)| *len)?
        .1;
    victim.queue.try_pop_if(|job| !job.pinned)
}

/// Execute one admitted query on this worker thread (shard `me`). A
/// stolen job (`me` ≠ home) runs *entirely* here: governor slots,
/// pipeline, §6 transfer state, and cache population all belong to the
/// stealing cluster; only tenant cost accounting settles back home. The
/// job's home pointer keeps the home queue alive even if that shard has
/// since left the registry.
fn run_one(
    pipeline: &Pipeline<'_>,
    me: &Arc<ShardEntry<Job>>,
    stats: &Stats,
    waits: &WaitWindow,
    cache_aware: bool,
    job: Job,
) {
    let shared = Arc::clone(&job.shared);
    // Hold the query's slot cost for the whole run.
    let guard = match me
        .governor
        .acquire(slot_cost(&me.cluster, shared.strategy), &shared.cancel)
    {
        Ok(g) => g,
        Err(e) => {
            finalize(&shared, stats, Err(e));
            return;
        }
    };
    // Claim Queued → Running; a query cancelled while queued is already
    // terminal and must not run.
    let queue_wait;
    {
        let mut st = shared.state.lock();
        if st.result.is_some() {
            return;
        }
        st.status = QueryStatus::Running;
        let now = Instant::now();
        st.started = Some(now);
        queue_wait = now.duration_since(st.submitted);
    }
    waits.record(queue_wait);
    shared.ran_on.store(me.id(), Ordering::Relaxed);
    if me.id() != job.home.id() {
        shared.stolen.store(true, Ordering::Relaxed);
        me.counters.stolen.fetch_add(1, Ordering::Relaxed);
    }
    let result = pipeline.run_with(&job.request, shared.strategy, &shared.cancel);
    drop(guard);
    // Settle the measured WFQ cost back onto the tenant's virtual clock
    // at the *home* queue, where admission (or drain migration) charged
    // the estimate.
    if cache_aware {
        if let Ok(report) = &result {
            let measured = job.base_cost * mode_discount(report.cache_use);
            if (measured - job.est_cost).abs() > f64::EPSILON {
                job.home
                    .queue
                    .settle(&shared.tenant, job.est_cost, measured);
                stats.cost_settlements.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    finalize(&shared, stats, result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlml_core::workload::{WorkloadScale, PREP_QUERY};
    use sqlml_core::ClusterConfig;
    use sqlml_transform::TransformSpec;

    fn cluster() -> Arc<SimCluster> {
        let c = SimCluster::start(ClusterConfig::for_tests()).unwrap();
        c.load_workload(WorkloadScale::TINY, 11).unwrap();
        Arc::new(c)
    }

    fn sched_with(config: SchedulerConfig) -> QueryScheduler {
        QueryScheduler::builder(config)
            .cluster(cluster())
            .build()
            .unwrap()
    }

    fn request() -> PipelineRequest {
        PipelineRequest {
            prep_sql: PREP_QUERY.to_string(),
            spec: TransformSpec::new(&["gender"]),
            ml_command: "svm label=4 iterations=10".to_string(),
        }
    }

    #[test]
    fn invalid_requests_reject_with_reason() {
        let sched = sched_with(SchedulerConfig::default());
        let mut bad_ml = request();
        bad_ml.ml_command = "teleport label=1".into();
        let err = sched
            .submit(QuerySpec::new("t", bad_ml, Strategy::InSql))
            .unwrap_err();
        assert!(matches!(err.reason, RejectReason::Invalid(_)));
        assert!(err.to_string().contains("ml command"), "{err}");
        let mut bad_sql = request();
        bad_sql.prep_sql = "SELECT nothing FROM nowhere".into();
        let err = sched
            .submit(QuerySpec::new("t", bad_sql, Strategy::InSql))
            .unwrap_err();
        assert!(err.to_string().contains("prep sql"), "{err}");
        let s = sched.stats();
        assert_eq!((s.submitted, s.rejected), (2, 2));
        sched.shutdown();
    }

    #[test]
    fn one_query_completes_with_latency_split() {
        let sched = sched_with(SchedulerConfig::default());
        let handle = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSqlStream))
            .unwrap();
        let result = handle.wait();
        let report = result.as_ref().as_ref().expect("pipeline failed");
        assert!(report.rows_to_ml > 0);
        assert_eq!(handle.status(), QueryStatus::Completed);
        // A fleet of one: placed and ran on shard 0, never stolen.
        assert_eq!(handle.placed_on(), 0);
        assert_eq!(handle.ran_on(), Some(0));
        assert!(!handle.was_stolen());
        let lat = handle.latency().expect("finished queries have latency");
        assert_eq!(lat.total, lat.queued + lat.running);
        assert!(lat.running > Duration::ZERO);
        let s = sched.stats();
        assert_eq!((s.completed, s.inflight_now), (1, 0));
        assert!(s.inflight_high_water >= 1);
        assert_eq!(s.per_cluster.len(), 1);
        assert_eq!(s.per_cluster[0].admitted, 1);
        assert_eq!(s.per_cluster[0].stolen, 0);
        sched.shutdown();
    }

    #[test]
    fn zero_deadline_cancels_cleanly_and_cluster_stays_usable() {
        let sched = sched_with(SchedulerConfig::default());
        let doomed = sched
            .submit(
                QuerySpec::new("t", request(), Strategy::InSqlStream).with_deadline(Duration::ZERO),
            )
            .unwrap();
        let result = doomed.wait();
        let err = result.as_ref().as_ref().unwrap_err();
        assert!(err.is_cancelled(), "expected cancellation, got {err}");
        assert_eq!(doomed.status(), QueryStatus::Cancelled);
        // The shared cluster is unharmed: the next query completes.
        let ok = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSqlStream))
            .unwrap();
        assert!(ok.wait().as_ref().as_ref().is_ok());
        sched.shutdown();
    }

    #[test]
    fn explicit_cancel_of_a_queued_query_is_immediate() {
        // No executor will ever pop: fill the only worker with a query
        // first, then cancel the one stuck behind it.
        let sched = sched_with(SchedulerConfig {
            max_concurrent: 1,
            ..SchedulerConfig::default()
        });
        let first = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .unwrap();
        let second = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .unwrap();
        second.cancel("user pressed ctrl-c");
        let result = second.wait();
        let err = result.as_ref().as_ref().unwrap_err();
        assert!(err.to_string().contains("ctrl-c"), "{err}");
        assert!(first.wait().as_ref().as_ref().is_ok());
        sched.shutdown();
    }

    #[test]
    fn submit_with_retry_rides_out_a_transient_full_queue() {
        let sched = sched_with(SchedulerConfig {
            max_concurrent: 1,
            queue_capacity: 1,
            ..SchedulerConfig::default()
        });
        // Fill the single executor + single queue slot. The first query
        // occupies the queue slot until the worker pops it, so wait for
        // it to start running before claiming the slot for the second —
        // otherwise this submit races the pop and can bounce.
        let running = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .unwrap();
        let started = Instant::now();
        while running.status() == QueryStatus::Queued {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "first query never left the queue"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .unwrap();
        // A plain submit bounces; a retried one is admitted once the
        // backlog drains.
        assert!(sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .is_err());
        let policy = RetryPolicy {
            max_attempts: 60,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(200),
            jitter: 0.0,
            seed: 1,
        };
        let retried = sched
            .submit_opts(
                QuerySpec::new("t", request(), Strategy::InSql),
                SubmitOpts::default().with_retry(policy),
            )
            .expect("retry should eventually be admitted");
        assert!(running.wait().as_ref().as_ref().is_ok());
        assert!(queued.wait().as_ref().as_ref().is_ok());
        assert!(retried.wait().as_ref().as_ref().is_ok());
        sched.shutdown();
    }

    #[test]
    fn pinned_submit_rejects_an_unknown_shard_id() {
        let sched = sched_with(SchedulerConfig::default());
        let err = sched
            .submit_opts(
                QuerySpec::new("t", request(), Strategy::InSql),
                SubmitOpts::pinned(3),
            )
            .unwrap_err();
        assert!(matches!(err.reason, RejectReason::Invalid(_)));
        assert!(err.to_string().contains("no such shard"), "{err}");
        sched.shutdown();
    }

    #[test]
    fn builder_without_shards_is_a_typed_error() {
        let err = match QueryScheduler::builder(SchedulerConfig::default()).build() {
            Ok(_) => panic!("an empty builder must not produce a scheduler"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("at least one cluster"), "{err}");
    }

    #[test]
    fn builder_default_retry_applies_to_plain_submit() {
        // Same transient-full-queue scenario as the retry test above,
        // but the policy lives on the scheduler: a *plain* submit rides
        // it out, and an explicit no_retry opt-out still bounces.
        let sched = QueryScheduler::builder(SchedulerConfig {
            max_concurrent: 1,
            queue_capacity: 1,
            ..SchedulerConfig::default()
        })
        .cluster(cluster())
        .retry(RetryPolicy {
            max_attempts: 60,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(200),
            jitter: 0.0,
            seed: 1,
        })
        .build()
        .unwrap();
        let running = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .unwrap();
        let started = Instant::now();
        while running.status() == QueryStatus::Queued {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "first query never left the queue"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .unwrap();
        assert!(sched
            .submit_opts(
                QuerySpec::new("t", request(), Strategy::InSql),
                SubmitOpts::default().no_retry(),
            )
            .is_err());
        let retried = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .expect("scheduler-default retry should ride out the backlog");
        assert!(running.wait().as_ref().as_ref().is_ok());
        assert!(queued.wait().as_ref().as_ref().is_ok());
        assert!(retried.wait().as_ref().as_ref().is_ok());
        sched.shutdown();
    }

    #[test]
    fn scale_advice_holds_without_a_policy_and_follows_one_installed() {
        let sched = sched_with(SchedulerConfig::default());
        assert_eq!(sched.scale_advice(), ScaleAdvice::Hold);
        let signal = sched.scale_signal();
        assert_eq!((signal.shards, signal.queued), (1, 0));
        sched.shutdown();
        // An installed policy sees the scheduler's real signal.
        let sched = QueryScheduler::builder(SchedulerConfig::default())
            .cluster(cluster())
            .scale_policy(crate::scale::ThresholdScalePolicy {
                min_shards: 0,
                ..crate::scale::ThresholdScalePolicy::default()
            })
            .build()
            .unwrap();
        // Idle fleet above the floor: the threshold policy says shrink.
        assert_eq!(sched.scale_advice(), ScaleAdvice::Shrink);
        sched.shutdown();
    }
}
