//! Admission: what a caller submits and the path it takes into a
//! shard's fair queue — `submit → validate → place → admit`. Every
//! rejection is immediate and typed; an `Ok` handle means the query is
//! queued and will reach a terminal status.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_cache::{CacheProbe, QueryDescriptor};
use sqlml_common::CancelToken;
use sqlml_core::{describe_prep, PipelineRequest, Strategy};
use sqlml_mlengine::job::TrainingSpec;

use crate::cost::{self, slot_cost, Charge};
use crate::handle::{Job, QueryHandle, QueryShared};
use crate::queue::{RejectReason, Rejected};
use crate::registry::{ShardEntry, Snapshot};
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
    /// Bypass the router and admit directly onto this shard (stable id):
    /// the query runs there unless the shard is removed first, in which
    /// case drain migration moves it to a live peer. A draining target
    /// rejects with [`RejectReason::Draining`]; an unknown id with
    /// [`RejectReason::Invalid`].
    pub pin_shard: Option<usize>,
}

impl SubmitOpts {
    /// Targeted placement onto one shard (stable id).
    pub fn pinned(shard: usize) -> SubmitOpts {
        SubmitOpts {
            pin_shard: Some(shard),
        }
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
    /// ([`SubmitOpts::pin_shard`]). The query's deadline and its queued
    /// time both count from this call.
    pub fn submit_opts(&self, spec: QuerySpec, opts: SubmitOpts) -> Result<QueryHandle, Rejected> {
        let cancel = match spec.deadline.or(self.config.default_deadline) {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let submitted = Instant::now();
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let snap = self.registry.snapshot();
        self.validate(&spec, &snap)?;
        let base = slot_cost(&snap.shards()[0].cluster.config, spec.strategy);
        if let Some(id) = opts.pin_shard {
            // Targeted placement: bypass the router (operator escape
            // hatch; also how tests build a deterministic backlog on one
            // shard).
            let Some(entry) = snap.find(id) else {
                return Err(self.reject(RejectReason::Invalid(format!(
                    "no such shard {id} (fleet of {})",
                    snap.len()
                ))));
            };
            if entry.is_draining() {
                return Err(self.reject(RejectReason::Draining { shard: id }));
            }
            let charge = Charge {
                base,
                affinity: CacheProbe::Miss,
            };
            return self.admit(&spec, entry, charge, None, cancel, submitted);
        }
        // Probe every live shard's cache for the request's descriptor,
        // then score placement: cache affinity vs queue depth vs busy
        // executors. A Naive query never reads the cache, so it takes no
        // descriptor: its probe reads Miss for routing and for its charge.
        let descriptor = match spec.strategy {
            Strategy::Naive => None,
            _ => describe_prep(&snap.shards()[0].cluster.engine, &spec.request.prep_sql)
                .ok()
                .flatten(),
        };
        let Some((entry, charge)) = self.place(&snap, descriptor.as_ref(), &spec.request, base)
        else {
            // Every shard is draining (or the fleet is empty): the
            // serving plane is effectively shutting down.
            return Err(self.reject(RejectReason::ShuttingDown));
        };
        self.admit(&spec, &entry, charge, descriptor, cancel, submitted)
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

    /// Score the snapshot's shards for one request, pick a live one and
    /// price the request there at `base` slot cost. Every load signal is
    /// read from the one snapshot the caller holds; draining shards are
    /// marked (and their caches not probed — they cannot be placed onto
    /// anyway). `None` means no live shard exists.
    pub(crate) fn place(
        &self,
        snap: &Snapshot<Job>,
        descriptor: Option<&QueryDescriptor>,
        request: &PipelineRequest,
        base: f64,
    ) -> Option<(Arc<ShardEntry<Job>>, Charge)> {
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
        let (placement, charge) = cost::place(&self.router, &loads, base)?;
        Some((Arc::clone(&snap.shards()[placement.shard]), charge))
    }

    fn admit(
        &self,
        spec: &QuerySpec,
        entry: &Arc<ShardEntry<Job>>,
        charge: Charge,
        descriptor: Option<QueryDescriptor>,
        cancel: CancelToken,
        submitted: Instant,
    ) -> Result<QueryHandle, Rejected> {
        let shared = Arc::new(QueryShared::new(
            self.next_id.fetch_add(1, Ordering::Relaxed),
            &spec.tenant,
            spec.strategy,
            cancel,
            entry.id(),
            submitted,
        ));
        let job = Job {
            shared: Arc::clone(&shared),
            request: spec.request.clone(),
            descriptor,
            charge,
        };
        // Count the query in flight *before* it becomes poppable — an
        // executor may pop and finalize (decrementing the gauge) the
        // instant the push lands.
        let now = self.stats.inflight_now.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.inflight_hw.fetch_max(now, Ordering::Relaxed);
        if let Err(rejected) = entry.queue.push(&spec.tenant, charge.est(), job) {
            self.stats.inflight_now.fetch_sub(1, Ordering::Relaxed);
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            // A push that raced the start of a drain sees the closed
            // queue as ShuttingDown; the fleet is alive, so surface the
            // targeted truth instead.
            if matches!(rejected.reason, RejectReason::ShuttingDown) && entry.is_draining() {
                return Err(Rejected {
                    reason: RejectReason::Draining { shard: entry.id() },
                });
            }
            return Err(rejected);
        }
        entry.counters.admitted.fetch_add(1, Ordering::Relaxed);
        if charge.affinity != CacheProbe::Miss {
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
    use super::*;
    use crate::scheduler::fixtures::{request, sched_with};
    use crate::SchedulerConfig;

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
    fn a_naive_query_is_neither_routed_nor_priced_by_the_cache() {
        let sched = sched_with(SchedulerConfig::default());
        let run = |strategy| {
            let h = sched
                .submit(QuerySpec::new("t", request(), strategy))
                .unwrap();
            assert!(h.wait().as_ref().as_ref().is_ok(), "{strategy:?}");
        };
        let affinity_hits = || sched.stats().per_cluster[0].cache_affinity_hits;
        // The first In-SQL run stores its full result: the cache now
        // answers this request.
        run(Strategy::InSql);
        run(Strategy::Naive);
        assert_eq!(affinity_hits(), 0, "a Naive query was steered by the cache");
        run(Strategy::InSql);
        assert_eq!(affinity_hits(), 1, "the cache was not primed");
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
