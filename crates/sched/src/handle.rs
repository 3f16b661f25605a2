//! The per-query side of the serving plane: the caller's
//! [`QueryHandle`], the state it shares with whichever executor runs the
//! query, the [`Job`] that travels through a shard's fair queue, and the
//! one-shot [`finalize`] every terminal transition goes through.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlml_cache::QueryDescriptor;
use sqlml_common::lockorder::{TrackedCondvar, TrackedMutex};
use sqlml_common::{CancelToken, Result, SqlmlError};
use sqlml_core::{PipelineReport, PipelineRequest, Strategy};

use crate::cost::Charge;
use crate::registry::ShardEntry;
use crate::stats::Stats;

/// Where a query is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Admitted, waiting in the fair queue for a free executor.
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

/// What a [`QueryHandle`] and the job's executor share.
pub(crate) struct QueryShared {
    id: u64,
    pub tenant: String,
    pub strategy: Strategy,
    pub cancel: CancelToken,
    /// Stable id of the shard the router placed this query on.
    placed_on: usize,
    /// Stable id of the shard that actually executed it ([`NOT_RUN`]
    /// until claimed). A query runs *entirely* on one cluster — stealing
    /// and drain migration move it before execution starts, never
    /// mid-run.
    ran_on: AtomicUsize,
    pub stolen: AtomicBool,
    /// Set when a shard drain re-admitted the queued job onto a peer.
    pub migrated: AtomicBool,
    state: TrackedMutex<QueryState>,
    done: TrackedCondvar,
}

impl QueryShared {
    /// A freshly admitted query: `Queued`, its clock started at
    /// `submitted` (the first admission attempt, retries included).
    pub fn new(
        id: u64,
        tenant: &str,
        strategy: Strategy,
        cancel: CancelToken,
        placed_on: usize,
        submitted: Instant,
    ) -> QueryShared {
        QueryShared {
            id,
            tenant: tenant.to_string(),
            strategy,
            cancel,
            placed_on,
            ran_on: AtomicUsize::new(NOT_RUN),
            stolen: AtomicBool::new(false),
            migrated: AtomicBool::new(false),
            state: TrackedMutex::new(
                "sched.query.state",
                QueryState {
                    status: QueryStatus::Queued,
                    submitted,
                    started: None,
                    finished: None,
                    result: None,
                },
            ),
            done: TrackedCondvar::new("sched.query.done"),
        }
    }

    /// Whether the query already reached a terminal state (e.g. it was
    /// cancelled while queued).
    pub fn is_finished(&self) -> bool {
        self.state.lock().result.is_some()
    }

    /// Claim Queued → Running on shard `shard`. False when the query is
    /// already terminal and must not run.
    pub fn claim(&self, shard: usize) -> bool {
        {
            let mut st = self.state.lock();
            if st.result.is_some() {
                return false;
            }
            st.status = QueryStatus::Running;
            st.started = Some(Instant::now());
        }
        self.ran_on.store(shard, Ordering::Relaxed);
        true
    }
}

/// Move a query to its terminal state exactly once. Returns false when
/// it was already terminal (e.g. cancelled while this worker ran it —
/// the stale result is discarded).
pub(crate) fn finalize(
    shared: &QueryShared,
    stats: &Stats,
    result: Result<PipelineReport>,
) -> bool {
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
    pub(crate) shared: Arc<QueryShared>,
    pub(crate) stats: Arc<Stats>,
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
        self.shared.is_finished()
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

    /// Whether a shard drain ([`crate::QueryScheduler::remove_shard`]
    /// with [`crate::DrainPolicy::Migrate`]) re-admitted this query onto
    /// a peer while it was queued.
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
pub(crate) struct Job {
    pub shared: Arc<QueryShared>,
    pub request: PipelineRequest,
    /// Shard whose queue admitted this job (tenant accounting lives
    /// there; cost settlement goes back to it). An `Arc` to the entry
    /// itself, not an index: the home shard may leave the registry while
    /// the job still runs elsewhere, and settlement must land on the
    /// queue that actually charged the estimate. Drain migration
    /// re-homes the job onto its adopting shard.
    pub home: Arc<ShardEntry<Job>>,
    /// The cache descriptor computed at admission, kept so a drain
    /// migration can re-probe the surviving shards' caches before the
    /// job travels.
    pub descriptor: Option<QueryDescriptor>,
    /// What the home queue charged the tenant for this job, and whether
    /// the placement pinned it there.
    pub charge: Charge,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::fixtures::{request, sched_with};
    use crate::{QuerySpec, SchedulerConfig};

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
}
