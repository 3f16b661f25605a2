//! Admission: what a caller submits and the path it takes into a
//! shard's fair queue — `submit → submit_once → validate → place →
//! admit`. Every rejection is immediate and typed; an `Ok` handle means
//! the query is queued and will reach a terminal status.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_cache::{CacheProbe, QueryDescriptor};
use sqlml_common::CancelToken;
use sqlml_core::{describe_prep, PipelineRequest, Strategy};
use sqlml_mlengine::job::TrainingSpec;

use crate::cost::Charge;
use crate::handle::{Job, QueryHandle, QueryShared};
use crate::queue::{RejectReason, Rejected};
use crate::registry::{ShardEntry, Snapshot};
use crate::retry::{retry_queue_full, RetryPolicy, SystemClock};
use crate::router::ShardLoad;
use crate::scheduler::QueryScheduler;

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

/// Per-submission options for [`QueryScheduler::submit_opts`].
#[derive(Debug, Clone, Default)]
pub struct SubmitOpts {
    /// Bypass the router and admit directly onto this shard (stable id).
    /// The job is admitted unpinned, so an idle peer may still steal it.
    /// A draining target rejects with [`RejectReason::Draining`]; an
    /// unknown id with [`RejectReason::Invalid`].
    pub pin_shard: Option<usize>,
    /// Client-side retry for transient rejects (queue full, shard
    /// draining); `None` submits once.
    pub retry: Option<RetryPolicy>,
}

impl SubmitOpts {
    /// Targeted placement onto one shard (stable id).
    pub fn pinned(shard: usize) -> SubmitOpts {
        SubmitOpts {
            pin_shard: Some(shard),
            ..SubmitOpts::default()
        }
    }

    /// Retry transient rejects with this policy.
    pub fn with_retry(mut self, policy: RetryPolicy) -> SubmitOpts {
        self.retry = Some(policy);
        self
    }
}

impl QueryScheduler {
    /// Submit a query with default options. Rejections (validation,
    /// backpressure, shutdown) are immediate and carry their reason; an
    /// `Ok` handle means the query is admitted and will eventually reach
    /// a terminal status.
    pub fn submit(&self, spec: QuerySpec) -> Result<QueryHandle, Rejected> {
        self.submit_opts(spec, SubmitOpts::default())
    }

    /// Submit with per-call options: targeted placement
    /// ([`SubmitOpts::pin_shard`]) and/or client-side retry
    /// ([`SubmitOpts::retry`]). Each retry attempt counts as a
    /// submission in the stats. The query's deadline and its queued time
    /// both count from this call, not from the attempt that lands.
    pub fn submit_opts(&self, spec: QuerySpec, opts: SubmitOpts) -> Result<QueryHandle, Rejected> {
        let deadline = spec.deadline.or(self.config.default_deadline);
        let cancel = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let submitted = Instant::now();
        let once = || self.submit_once(&spec, opts.pin_shard, &cancel, submitted);
        match &opts.retry {
            None => once(),
            Some(p) => retry_queue_full(p, deadline, &SystemClock, once),
        }
    }

    /// One admission attempt: validate, place (router or pin), admit.
    fn submit_once(
        &self,
        spec: &QuerySpec,
        pin_shard: Option<usize>,
        cancel: &CancelToken,
        submitted: Instant,
    ) -> Result<QueryHandle, Rejected> {
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
            return self.admit(spec, entry, CacheProbe::Miss, None, cancel, submitted);
        }
        // Probe every live shard's cache for the request's descriptor,
        // then score placement: cache affinity vs queue depth vs busy
        // executors.
        let descriptor = snap
            .shards()
            .first()
            .filter(|_| self.config.cache_aware)
            .and_then(|s| describe_prep(&s.cluster.engine, &spec.request.prep_sql).ok()?);
        let Some((entry, affinity)) = self.place(&snap, descriptor.as_ref(), &spec.request) else {
            // Every shard is draining (or the fleet is empty): the
            // serving plane is effectively shutting down.
            return Err(self.reject(RejectReason::ShuttingDown));
        };
        self.admit(spec, &entry, affinity, descriptor, cancel, submitted)
    }

    /// Validate up front so a bad request is a reject-with-reason, not a
    /// query that occupies a queue only to fail.
    fn validate(&self, spec: &QuerySpec, snap: &Snapshot<Job>) -> Result<(), Rejected> {
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

    /// Score the snapshot's shards for one request and pick a live one:
    /// the chosen entry plus the cache reuse it offers. Every load signal
    /// is read from the one snapshot the caller holds; draining shards
    /// are marked (and their caches not probed — they cannot be placed
    /// onto anyway). `None` means no live shard exists.
    pub(crate) fn place(
        &self,
        snap: &Snapshot<Job>,
        descriptor: Option<&QueryDescriptor>,
        request: &PipelineRequest,
    ) -> Option<(Arc<ShardEntry<Job>>, CacheProbe)> {
        let executors = self.executors();
        let loads: Vec<ShardLoad> = snap
            .shards()
            .iter()
            .map(|s| {
                let draining = s.is_draining();
                ShardLoad {
                    queue_depth: s.queue.len(),
                    running: s.running.load(Ordering::Relaxed),
                    executors,
                    probe: match (descriptor, &s.cache, draining) {
                        (Some(d), Some(c), false) => c.probe(d, &request.spec),
                        _ => CacheProbe::Miss,
                    },
                    draining,
                }
            })
            .collect();
        let placement = self.router.place(&loads)?;
        Some((
            Arc::clone(&snap.shards()[placement.shard]),
            placement.affinity,
        ))
    }

    fn admit(
        &self,
        spec: &QuerySpec,
        entry: &Arc<ShardEntry<Job>>,
        affinity: CacheProbe,
        descriptor: Option<QueryDescriptor>,
        cancel: &CancelToken,
        submitted: Instant,
    ) -> Result<QueryHandle, Rejected> {
        let shared = Arc::new(QueryShared::new(
            self.next_id.fetch_add(1, Ordering::Relaxed),
            &spec.tenant,
            spec.strategy,
            cancel.clone(),
            entry.id(),
            submitted,
        ));
        let charge = Charge::new(
            &entry.cluster,
            spec.strategy,
            affinity,
            self.config.cache_aware,
        );
        let job = Job {
            shared: Arc::clone(&shared),
            request: spec.request.clone(),
            home: Arc::clone(entry),
            descriptor,
            charge,
        };
        // Count the query in flight *before* it becomes poppable — an
        // executor may pop and finalize (decrementing the gauge) the
        // instant the push lands.
        let now = self.stats.inflight_now.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.inflight_hw.fetch_max(now, Ordering::Relaxed);
        if let Err(rejected) = entry.queue.push(&spec.tenant, charge.est, job) {
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
        if charge.pinned {
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
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use sqlml_common::Value;
    use sqlml_core::workload::PREP_QUERY;
    use sqlml_sqlengine::udf::ScalarFn;

    use super::*;
    use crate::scheduler::fixtures::{cluster, request, sched_with};
    use crate::{QueryStatus, SchedulerConfig};

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

    /// Fill a 1-executor, 1-slot scheduler: one query running, one
    /// queued. The first query occupies the queue slot until the worker
    /// pops it, so wait for it to start running before claiming the slot
    /// for the second — otherwise that submit races the pop and can
    /// bounce.
    fn saturate(sched: &QueryScheduler) -> [QueryHandle; 2] {
        let running = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .unwrap();
        wait_until_running(&running);
        let queued = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .unwrap();
        [running, queued]
    }

    fn wait_until_running(handle: &QueryHandle) {
        let started = Instant::now();
        while handle.status() == QueryStatus::Queued {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "first query never left the queue"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn patient_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 60,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(200),
            jitter: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn submit_with_retry_rides_out_a_transient_full_queue() {
        let sched = sched_with(SchedulerConfig {
            max_concurrent: 1,
            queue_capacity: 1,
            ..SchedulerConfig::default()
        });
        let backlog = saturate(&sched);
        // A plain submit bounces; a retried one is admitted once the
        // backlog drains.
        assert!(sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql))
            .is_err());
        let retried = sched
            .submit_opts(
                QuerySpec::new("t", request(), Strategy::InSql),
                SubmitOpts::default().with_retry(patient_policy()),
            )
            .expect("retry should eventually be admitted");
        for h in backlog.iter().chain([&retried]) {
            assert!(h.wait().as_ref().as_ref().is_ok());
        }
        sched.shutdown();
    }

    #[test]
    fn a_retried_submission_is_queued_from_its_first_attempt() {
        // `nap(x)` sleeps on its first call, so a prep query filtering on
        // it keeps the only executor busy for 600 ms.
        let c = cluster();
        let napped = AtomicBool::new(false);
        c.engine
            .register_scalar_udf(Arc::new(ScalarFn::new("nap", move |_: &[Value]| {
                if !napped.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(600));
                }
                Ok(Value::Double(1.0))
            })));
        let sched = QueryScheduler::builder(SchedulerConfig {
            max_concurrent: 1,
            queue_capacity: 1,
            ..SchedulerConfig::default()
        })
        .cluster(c)
        .build()
        .unwrap();
        let mut slow = request();
        slow.prep_sql = format!("{PREP_QUERY} AND nap(U.age) > 0.0");
        let running = sched
            .submit(QuerySpec::new("t", slow, Strategy::InSql))
            .unwrap();
        wait_until_running(&running);
        // Fills the queue; cancelled at pop once the executor frees up.
        let doomed = sched
            .submit(QuerySpec::new("t", request(), Strategy::InSql).with_deadline(Duration::ZERO))
            .unwrap();
        let every_200ms = RetryPolicy {
            max_attempts: 60,
            base: Duration::from_millis(200),
            cap: Duration::from_millis(200),
            jitter: 0.0,
            seed: 1,
        };
        let retried = sched
            .submit_opts(
                QuerySpec::new("t", request(), Strategy::InSql),
                SubmitOpts::default().with_retry(every_200ms),
            )
            .expect("retry should eventually be admitted");
        assert!(sched.stats().rejected >= 1);
        assert!(running.wait().as_ref().as_ref().is_ok());
        assert!(doomed.wait().as_ref().as_ref().unwrap_err().is_cancelled());
        assert!(retried.wait().as_ref().as_ref().is_ok());
        // At least one 200 ms backoff passed between the first attempt
        // and the one that landed; the query's clock covers it.
        let queued = retried.latency().unwrap().queued;
        assert!(queued >= Duration::from_millis(200), "queued {queued:?}");
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
}
